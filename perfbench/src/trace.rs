//! Benchmark-side spans around the calls into each layer.
//!
//! Spans are flat: each wraps one public call, so a span's duration is the
//! layer's self time. Spans taken inside an op count towards
//! `trace.coverage`; *side* spans re-run a layer outside the op (the
//! single-thread and SAX-only passes of `ingest`) and only feed their own
//! layer's time.

use std::time::{Duration, Instant};

use dxml_telemetry::{Metric, Snapshot};

/// A public call the benchmark times, in report order.
#[derive(Clone, Copy)]
pub enum Layer {
    SyntaxParse,
    TermParse,
    DesignTargetCache,
    BoxesTargetCache,
    DesignVerifyLocal,
    BoxesVerifyLocal,
    DesignExtensionNuta,
    DesignTypecheck,
    BoxesTypecheck,
    PerfectSchema,
    BoxesPerfectSchema,
    StreamValidatorBuild,
    StreamValidate,
    SaxScan,
    BatchValidate,
}

impl Layer {
    pub const ALL: [Layer; 15] = [
        Layer::SyntaxParse,
        Layer::TermParse,
        Layer::DesignTargetCache,
        Layer::BoxesTargetCache,
        Layer::DesignVerifyLocal,
        Layer::BoxesVerifyLocal,
        Layer::DesignExtensionNuta,
        Layer::DesignTypecheck,
        Layer::BoxesTypecheck,
        Layer::PerfectSchema,
        Layer::BoxesPerfectSchema,
        Layer::StreamValidatorBuild,
        Layer::StreamValidate,
        Layer::SaxScan,
        Layer::BatchValidate,
    ];

    /// The metric name stem (`<stem>_ms`, `<stem>_share`).
    pub fn stem(self) -> &'static str {
        match self {
            Layer::SyntaxParse => "schema.syntax.parse",
            Layer::TermParse => "tree.term.parse",
            Layer::DesignTargetCache => "core.design.target_cache",
            Layer::BoxesTargetCache => "core.boxes.target_cache",
            Layer::DesignVerifyLocal => "core.design.verify_local",
            Layer::BoxesVerifyLocal => "core.boxes.verify_local",
            Layer::DesignExtensionNuta => "core.design.extension_nuta",
            Layer::DesignTypecheck => "core.design.typecheck",
            Layer::BoxesTypecheck => "core.boxes.typecheck",
            Layer::PerfectSchema => "core.perfect.perfect_schema",
            Layer::BoxesPerfectSchema => "core.boxes.perfect_schema",
            Layer::StreamValidatorBuild => "schema.stream.validator_build",
            Layer::StreamValidate => "schema.stream.validate",
            Layer::SaxScan => "tree.sax.scan",
            Layer::BatchValidate => "core.batch.validate_batch",
        }
    }
}

/// Per-layer time and engine counters of the traced ops. Off, a span is a
/// plain call: no clock is read.
#[derive(Default)]
pub struct Tracer {
    pub on: bool,
    layer: [Duration; Layer::ALL.len()],
    covered: Duration,
    pub op_wall: Duration,
    pub ops: u64,
    counters: [u64; Metric::ALL.len()],
    /// Explicit `extension_nuta` calls and how many the memo served.
    pub ext_lookups: u64,
    pub ext_hits: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, ..Tracer::default() }
    }

    /// Runs one layer call inside an op.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        self.layer[layer as usize] += dt;
        self.covered += dt;
        out
    }

    /// Runs one layer call outside any op (a decomposition pass).
    pub fn side<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.layer[layer as usize] += t0.elapsed();
        out
    }

    pub fn layer_time(&self, layer: Layer) -> Duration {
        self.layer[layer as usize]
    }

    /// Adds the counter movement between two snapshots taken around one op.
    pub fn add_counters(&mut self, before: &Snapshot, after: &Snapshot) {
        for (i, m) in Metric::ALL.iter().enumerate() {
            self.counters[i] += after.counter(*m).saturating_sub(before.counter(*m));
        }
    }

    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// Layer self time inside ops over op wall time.
    pub fn coverage(&self) -> f64 {
        ratio(self.covered.as_secs_f64(), self.op_wall.as_secs_f64())
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
