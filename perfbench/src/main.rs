//! End-to-end and per-layer benchmark of the distributed XML design engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <design_cold|verify_warm|synthesize|ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client drives the public API in a closed loop: each op is sent only
//! after the previous one completes. The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. See `README.md` for what each workload and metric
//! measures.

mod gen;
mod trace;
mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use dxml_telemetry::{self as telemetry, Metric, Snapshot};

use trace::{ratio, Layer, Tracer};
use workloads::{DesignCold, Ingest, Synthesize, VerifyWarm, Workload};

/// Set-up is timed in slots spread over the run: one before the first op,
/// then one between ops every `SETUP_EVERY` of wall time. Slot `i` belongs
/// to set-up sample `i mod SETUP_SAMPLES`, a sample is the mean of its
/// slots, and `setup_s` is the median of the samples. So each sample spans
/// the whole run, as the op timings do. On a shared machine a compile runs
/// up to 1.7× slower for a second or so at a time; samples taken in one
/// burst, or a median over single slots, flip between the two speeds.
const SETUP_EVERY: Duration = Duration::from_millis(500);
const SETUP_SAMPLES: usize = 5;
/// A slot compiles at least once, and again until this much time has
/// passed or it has compiled `SLOT_MAX_REPS` times.
const SLOT_MIN: Duration = Duration::from_millis(10);
const SLOT_MAX_REPS: usize = 500;
/// Untimed ops run after set-up (from a stream of their own, so the
/// measured ops stay unseen).
const WARMUP_OPS: usize = 8;
/// The p90 needs at least ten samples beyond it.
const MIN_OPS: usize = 120;
/// A run takes no new op after this much wall time from its start,
/// whatever `--seconds`, so it ends well within three minutes.
const WALL_CAP: Duration = Duration::from_secs(120);
/// Ops hashed twice by the determinism self-test.
const DIGEST_OPS: usize = 8;
/// Plans drawn from the held-out seed for the mix self-test.
const MIX_PLANS: usize = 480;
const HELD_OUT: u64 = 0x5EED_0FF5_E7AB_1E00;
/// The warm-up ops come from this seed in every run, so every run warms
/// up on the same ops.
const WARMUP_SEED: u64 = 0x3A93_0C0D_EBAD_F00D;
/// Ops each determinism probe process runs with telemetry on.
const PROBE_OPS: usize = 12;
/// Counters that depend on thread scheduling, left out of the probe.
const SCHEDULING: [Metric; 2] = [Metric::BatchSteals, Metric::InternShardContention];
/// Below this, benchmark-side spans miss part of an op.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, probe: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            args.probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "design_cold" => bench(DesignCold::new, &args),
        "verify_warm" => bench(VerifyWarm::new, &args),
        "synthesize" => bench(Synthesize::new, &args),
        "ingest" => bench(Ingest::new, &args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The self-test outcomes of one run.
#[derive(Default)]
struct Verdict {
    problems: Vec<String>,
}

impl Verdict {
    fn require(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            eprintln!("perfbench: self-test `{what}` failed: {e}");
            self.problems.push(what.to_string());
        }
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn bench<W: Workload>(make: fn() -> W, args: &Args) -> Result<(), String> {
    let mut w = make();
    if args.probe {
        return probe(w, args.seed);
    }
    let deadline = Instant::now() + WALL_CAP;
    let mut verdict = Verdict::default();
    w.compile()?;
    warm_up(&w)?;
    let mut setup = SetUp::new(make());
    setup.tick()?;
    verdict.require("compact-syntax round trip", w.self_test());
    verdict.require("same seed, same ops", same_ops(&w, args.seed));
    verdict.require("held-out mix", held_out_mix(&w, args.seed));

    let mut planner = w.planner(args.seed);
    let (run, metrics) = if args.trace {
        traced(&w, &mut planner, args, &mut setup, deadline, &mut verdict)?
    } else {
        let run =
            measure(&w, &mut planner, Tracer::new(false), &mut setup, args.seconds, deadline)?;
        run.print_summary(&setup);
        verdict.require("latency samples", run.enough_samples());
        let metrics = vec![
            ("throughput_ops_s".into(), run.throughput(), "1/s"),
            ("latency_p50_ms".into(), run.quantile_ms(0.5), "ms"),
            ("latency_p90_ms".into(), run.quantile_ms(0.9), "ms"),
            ("setup_s".into(), setup.seconds(), "s"),
            ("peak_rss_mb".into(), run.peak_mb, "MB"),
        ];
        (run, metrics)
    };
    emit(&verdict, &run, &metrics);
    Ok(())
}

/// The traced run: the first half of the time untraced, the second half
/// traced with telemetry collection on. Returns both halves merged and the
/// per-layer metrics.
fn traced<W: Workload>(
    w: &W,
    planner: &mut W::Planner,
    args: &Args,
    setup: &mut SetUp<W>,
    deadline: Instant,
    verdict: &mut Verdict,
) -> Result<(Run, Metrics), String> {
    let half = args.seconds / 2.0;
    let plain = measure(w, planner, Tracer::new(false), setup, half, deadline)?;
    plain.print_summary(setup);
    telemetry::set_enabled(true);
    let traced = measure(w, planner, Tracer::new(true), setup, half, deadline);
    telemetry::set_enabled(false);
    let traced = traced?;
    let tr = &traced.tracer;
    let coverage = tr.coverage();
    let overhead = ratio(plain.throughput(), traced.throughput());
    eprintln!("trace: coverage {coverage:.4}, overhead {overhead:.4}");
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "trace coverage {coverage:.3} is below {MIN_COVERAGE}: a layer call runs outside the benchmark's spans"
        ));
    }
    verdict.require("determinism probe", compare_probes(&args.workload, args.seed));
    let builds = tr.counter(Metric::TargetCacheBuilds) + tr.counter(Metric::BoxTargetCacheBuilds);
    if let Some(per_op) = W::MAX_BUILDS_PER_OP {
        let allowed = per_op * tr.ops;
        verdict.require(
            "warm target caches",
            if builds <= allowed {
                Ok(())
            } else {
                Err(format!(
                    "{builds} target-cache builds in {} timed ops, at most {allowed} allowed",
                    tr.ops
                ))
            },
        );
    }

    let ops = tr.ops as f64;
    let wall = tr.op_wall.as_secs_f64();
    let mut metrics: Metrics = Vec::new();
    for layer in Layer::ALL {
        let t = tr.layer_time(layer).as_secs_f64();
        metrics.push((format!("{}_ms", layer.stem()), ratio(t * 1e3, ops), "ms"));
        metrics.push((format!("{}_share", layer.stem()), ratio(t, wall), "ratio"));
    }
    let counted = [
        ("automata.dfa.subset_states", Metric::SubsetStates),
        ("automata.dfa.subset_transitions", Metric::SubsetTransitions),
        ("core.design.target_cache_builds", Metric::TargetCacheBuilds),
        ("core.boxes.target_cache_builds", Metric::BoxTargetCacheBuilds),
        ("automata.equiv.bfs_states", Metric::EquivBfsStates),
        ("automata.equiv.bfs_transitions", Metric::EquivBfsTransitions),
        ("schema.stream.events", Metric::StreamEvents),
        ("core.batch.steals", Metric::BatchSteals),
        ("automata.symbol.symbols_interned", Metric::SymbolsInterned),
        ("automata.symbol.table_bytes", Metric::InternTableBytes),
    ];
    for (name, m) in counted {
        metrics.push((name.into(), ratio(tr.counter(m) as f64, ops), "count"));
    }
    let residual_hits = tr.counter(Metric::ResidualDfaHits) as f64;
    let residual_builds = tr.counter(Metric::ResidualDfaBuilds) as f64;
    let batch = tr.layer_time(Layer::BatchValidate).as_secs_f64();
    let single = tr.layer_time(Layer::StreamValidate).as_secs_f64();
    let ratios = [
        ("core.design.ext_memo_hit_ratio", ratio(tr.ext_hits as f64, tr.ext_lookups as f64)),
        (
            "core.cache.residual_dfa_hit_ratio",
            ratio(residual_hits, residual_hits + residual_builds),
        ),
        ("core.batch.parallel_speedup", ratio(single, batch)),
        ("trace.coverage", coverage),
        ("trace.overhead", overhead),
    ];
    for (name, v) in ratios {
        metrics.push((name.into(), v, "ratio"));
    }
    metrics.push(("validate_mb_s".into(), plain.validate_mb_s(), "MB/s"));
    metrics.push(("retained_mb".into(), plain.retained_mb, "MB"));
    Ok((plain.merge(traced), metrics))
}

/// Times set-up on a spare copy of the workload, so the registered state
/// the ops use is never rebuilt.
struct SetUp<W> {
    spare: W,
    /// Each slot's mean compile time.
    slots: Vec<f64>,
    next: Instant,
}

impl<W: Workload> SetUp<W> {
    fn new(spare: W) -> SetUp<W> {
        SetUp { spare, slots: Vec::new(), next: Instant::now() }
    }

    /// Times one slot, if one is due: compiles the spare's registered state
    /// from scratch, timing only `compile`, then drops it again.
    fn tick(&mut self) -> Result<(), String> {
        if Instant::now() < self.next {
            return Ok(());
        }
        let mut times = Vec::new();
        let started = Instant::now();
        while times.is_empty() || (started.elapsed() < SLOT_MIN && times.len() < SLOT_MAX_REPS) {
            self.spare.release();
            let t0 = Instant::now();
            self.spare.compile()?;
            times.push(t0.elapsed().as_secs_f64());
        }
        self.spare.release();
        self.slots.push(times.iter().sum::<f64>() / times.len() as f64);
        self.next = Instant::now() + SETUP_EVERY;
        Ok(())
    }

    /// `setup_s`: the median of the interleaved samples.
    fn seconds(&self) -> f64 {
        let samples: Vec<f64> = (0..SETUP_SAMPLES.min(self.slots.len()))
            .map(|k| {
                let own: Vec<f64> =
                    self.slots.iter().skip(k).step_by(SETUP_SAMPLES).copied().collect();
                own.iter().sum::<f64>() / own.len() as f64
            })
            .collect();
        median(&samples)
    }
}

/// Runs `WARMUP_OPS` untimed ops, one at a time, each checked by the
/// oracle.
fn warm_up<W: Workload>(w: &W) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    for plan in w.planner(WARMUP_SEED).take(WARMUP_OPS) {
        let op = w.materialize(&plan);
        let out = w.run(&op, &mut tr)?;
        w.check(&op, &out).map_err(|e| format!("warm-up op: {e}"))?;
    }
    Ok(())
}

fn digest<W: Workload>(w: &W, seed: u64) -> u64 {
    let mut h = DefaultHasher::new();
    for plan in w.planner(seed).take(DIGEST_OPS) {
        w.digest(&w.materialize(&plan), &mut h);
    }
    h.finish()
}

fn same_ops<W: Workload>(w: &W, seed: u64) -> Result<(), String> {
    let (a, b) = (digest(w, seed), digest(w, seed));
    eprintln!("inputs: digest {a:016x} over the first {DIGEST_OPS} ops");
    if a == b {
        Ok(())
    } else {
        Err(format!("digests {a:016x} and {b:016x} differ"))
    }
}

fn held_out_mix<W: Workload>(w: &W, seed: u64) -> Result<(), String> {
    let plans: Vec<W::Plan> = w.planner(seed ^ HELD_OUT).take(MIX_PLANS).collect();
    let mut bad = Vec::new();
    for c in W::mix(&plans) {
        if c.value < c.lo || c.value > c.hi {
            bad.push(format!("{} = {} outside [{}, {}]", c.name, c.value, c.lo, c.hi));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// What one measured loop saw.
struct Run {
    latencies: Vec<Duration>,
    busy: Duration,
    failed: u64,
    bytes: u64,
    retained_mb: f64,
    /// `VmHWM` once `MIN_OPS` ops have completed. Every run reaches that
    /// op, and by then every size stratum has occurred, so the figure does
    /// not grow with the ops a faster engine completes in the same time.
    peak_mb: f64,
    tracer: Tracer,
}

impl Run {
    fn attempted(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Ops completed per second of op time (generation and checks, which
    /// run between ops, are not op time).
    fn throughput(&self) -> f64 {
        ratio(self.latencies.len() as f64, self.busy.as_secs_f64())
    }

    fn validate_mb_s(&self) -> f64 {
        ratio(self.bytes as f64 / 1e6, self.busy.as_secs_f64())
    }

    /// Nearest-rank quantile.
    fn quantile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
        sorted.get(rank - 1).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    fn enough_samples(&self) -> Result<(), String> {
        let n = self.latencies.len();
        let beyond = n - (0.9 * n as f64).ceil() as usize;
        if beyond >= 10 {
            Ok(())
        } else {
            Err(format!("only {beyond} samples beyond the p90 of {n}"))
        }
    }

    fn print_summary<W: Workload>(&self, setup: &SetUp<W>) {
        let n = self.latencies.len();
        println!(
            "samples           {n} ops ({} beyond the p90)",
            n - (0.9 * n as f64).ceil() as usize
        );
        println!("throughput_ops_s  {:.3} 1/s", self.throughput());
        println!("latency_p50_ms    {:.4} ms", self.quantile_ms(0.5));
        println!("latency_p90_ms    {:.4} ms", self.quantile_ms(0.9));
        println!("error_rate        {:.4}", ratio(self.failed as f64, n as f64));
        println!("setup_s           {:.6} s ({} slots)", setup.seconds(), setup.slots.len());
        println!("peak_rss_mb       {:.2} MB", self.peak_mb);
        println!("retained_mb       {:.2} MB", self.retained_mb);
        if self.bytes > 0 {
            println!("validate_mb_s     {:.2} MB/s", self.validate_mb_s());
        }
    }

    fn merge(mut self, other: Run) -> Run {
        self.latencies.extend(other.latencies);
        self.busy += other.busy;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self
    }
}

/// Runs ops until `seconds` of op time have passed (and at least
/// `MIN_OPS` ops) or the deadline, checking each against the oracle
/// between ops. Set-up slots fall due between ops too.
fn measure<W: Workload>(
    w: &W,
    planner: &mut W::Planner,
    mut tracer: Tracer,
    setup: &mut SetUp<W>,
    seconds: f64,
    deadline: Instant,
) -> Result<Run, String> {
    let budget = Duration::from_secs_f64(seconds);
    let rss_before = rss_mb("VmRSS");
    let mut run = Run {
        latencies: Vec::new(),
        busy: Duration::ZERO,
        failed: 0,
        bytes: 0,
        retained_mb: 0.0,
        peak_mb: 0.0,
        tracer: Tracer::default(),
    };
    while (run.busy < budget || run.latencies.len() < MIN_OPS) && Instant::now() < deadline {
        let plan = planner.next().expect("plan streams are endless");
        let op = w.materialize(&plan);
        let before = tracer.on.then(Snapshot::take);
        let t0 = Instant::now();
        let out = w.run(&op, &mut tracer);
        let dt = t0.elapsed();
        if let Some(before) = before {
            tracer.add_counters(&before, &Snapshot::take());
            tracer.op_wall += dt;
            tracer.ops += 1;
        }
        run.busy += dt;
        run.latencies.push(dt);
        run.bytes += w.op_bytes(&op) as u64;
        let outcome = out.and_then(|o| {
            if tracer.on {
                w.side(&op, &o, &mut tracer)?;
            }
            w.check(&op, &o)
        });
        if let Err(e) = outcome {
            if run.failed < 5 {
                eprintln!("perfbench: op {} failed: {e}", run.latencies.len() - 1);
            }
            run.failed += 1;
        }
        if run.latencies.len() == MIN_OPS {
            run.peak_mb = peak_rss_mb();
        }
        setup.tick()?;
    }
    if run.latencies.len() < MIN_OPS {
        run.peak_mb = peak_rss_mb();
    }
    run.retained_mb = rss_mb("VmRSS") - rss_before;
    run.tracer = tracer;
    Ok(run)
}

/// Prints the result line.
fn emit(verdict: &Verdict, run: &Run, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.problems.is_empty() && run.failed == 0,
        run.attempted(),
        run.failed,
        body.join(", ")
    );
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn peak_rss_mb() -> f64 {
    rss_mb("VmHWM")
}

// ----------------------------------------------------------------------
// Determinism probe
// ----------------------------------------------------------------------

/// Probe mode: set-up and the first `PROBE_OPS` ops with telemetry on,
/// then one `name value` line per counter.
fn probe<W: Workload>(mut w: W, seed: u64) -> Result<(), String> {
    telemetry::set_enabled(true);
    w.compile()?;
    let mut tr = Tracer::new(false);
    for plan in w.planner(seed).take(PROBE_OPS) {
        let op = w.materialize(&plan);
        let out = w.run(&op, &mut tr)?;
        w.check(&op, &out)?;
    }
    let snap = Snapshot::take();
    for m in Metric::ALL {
        if !SCHEDULING.contains(&m) {
            println!("{} {}", m.name(), snap.counter(m));
        }
    }
    Ok(())
}

/// Runs two probe processes and requires identical counters.
fn compare_probes(workload: &str, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let run = || {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string(), "--probe"])
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("probe exited with {}", out.status));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let (a, b) = (run()?, run()?);
    if a.trim().is_empty() {
        return Err("probe printed no counters".into());
    }
    let diff: Vec<String> = a
        .lines()
        .zip(b.lines())
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("{x} vs {y}"))
        .collect();
    if diff.is_empty() {
        Ok(())
    } else {
        Err(diff.join("; "))
    }
}
