//! The four workloads: seeded op plans, the timed op, and the known-answer
//! oracle each op is checked against outside the timed span.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::Hash;

use dxml_automata::{RFormalism, Symbol};
use dxml_core::{validate_batch, BoxDesignProblem, DesignProblem, DistributedDoc, TypingVerdict};
use dxml_schema::{RDtd, REdtd, RSdtd, SchemaError, StreamValidator};
use dxml_tree::term::to_term;
use dxml_tree::{SaxParser, XTree};

use crate::gen::{self, fun_name, rng, stratified, Blocks, DocPlan, DtdDesign, Shape};
use crate::trace::{Layer, Tracer};

/// A named mix property of a plan sample and the range it must fall in.
pub struct MixCheck {
    pub name: &'static str,
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

fn share<T>(plans: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    plans.iter().filter(|p| pred(p)).count() as f64 / plans.len().max(1) as f64
}

/// `(min, max)` of the values `f` yields over the plans.
fn range<T>(plans: &[T], f: impl Fn(&T) -> Option<usize>) -> (f64, f64) {
    let vals: Vec<usize> = plans.iter().filter_map(f).collect();
    let min = vals.iter().copied().min().unwrap_or(0) as f64;
    let max = vals.iter().copied().max().unwrap_or(0) as f64;
    (min, max)
}

pub trait Workload {
    /// A cheap description of one op: what the mix checks look at.
    type Plan;
    /// The op's inputs, as they reach the program.
    type Op;
    /// What the timed op returns, for the oracle.
    type Out;
    type Planner: Iterator<Item = Self::Plan>;

    /// Builds the registered state from text: the timed set-up step.
    fn compile(&mut self) -> Result<(), String>;
    /// Drops the registered state, untimed, so the next `compile` starts
    /// from nothing.
    fn release(&mut self);
    /// The op plan stream of `seed`.
    fn planner(&self, seed: u64) -> Self::Planner;
    fn materialize(&self, plan: &Self::Plan) -> Self::Op;
    /// The timed op.
    fn run(&self, op: &Self::Op, tr: &mut Tracer) -> Result<Self::Out, String>;
    /// The known-answer oracle.
    fn check(&self, op: &Self::Op, out: &Self::Out) -> Result<(), String>;
    /// Feeds the op's inputs to a hasher (the determinism self-test).
    fn digest(&self, op: &Self::Op, h: &mut DefaultHasher);
    /// The mix properties of a plan sample, each with its stated range.
    fn mix(plans: &[Self::Plan]) -> Vec<MixCheck>;
    /// Traced runs only: per-layer passes outside the op.
    fn side(&self, _op: &Self::Op, _out: &Self::Out, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Document bytes the op validates.
    fn op_bytes(&self, _op: &Self::Op) -> usize {
        0
    }
    /// Self-tests of the state compiled at set-up.
    fn self_test(&self) -> Result<(), String> {
        Ok(())
    }
    /// Target-cache builds a timed op may cause, where the workload
    /// bounds them.
    const MAX_BUILDS_PER_OP: Option<u64> = None;
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Checks that typing verdicts agree with each other and with the label,
/// and that an `Invalid` counterexample fails the target's own validation.
fn check_verdicts(
    local_valid: bool,
    typing: &TypingVerdict,
    expect_valid: bool,
    validate: impl Fn(&XTree) -> Result<(), SchemaError>,
) -> Result<(), String> {
    if local_valid != typing.is_valid() {
        return Err(format!("verify_local says {local_valid}, typecheck {}", typing.is_valid()));
    }
    if local_valid != expect_valid {
        return Err(format!("verdict {local_valid}, generator label {expect_valid}"));
    }
    if let TypingVerdict::Invalid { counterexample, .. } = typing {
        if validate(counterexample).is_ok() {
            return Err(format!("counterexample {counterexample} validates against the target"));
        }
    }
    Ok(())
}

fn parse_schema(text: &str) -> Result<RDtd, String> {
    RDtd::parse(RFormalism::Nre, text).map_err(err)
}

/// The round-trip self-test of the compact renderer.
fn round_trip(parsed: &RDtd, generated: &RDtd, what: &str) -> Result<(), String> {
    if parsed.equivalent(generated) {
        Ok(())
    } else {
        Err(format!("{what} does not parse back to an equivalent schema"))
    }
}

// ----------------------------------------------------------------------
// design_cold
// ----------------------------------------------------------------------

/// Every op is a design never seen before: DTD designs arrive as compact
/// schema text plus a kernel term; box designs are built by the generator
/// (the repo has no text syntax for EDTDs that are not single-type).
///
/// No op uses registered state. The set-up compiles one reference design
/// per front end, the largest of the mix, so that `setup_s` times the
/// same parse-and-compile path every op pays.
pub struct DesignCold {
    reference: Registry,
}

impl DesignCold {
    pub fn new() -> DesignCold {
        let design = DtdDesign::new(48, 8, REGISTRY_SEED);
        let (boxed, _) = gen::box_design(24, None);
        DesignCold { reference: Registry::new(vec![design], Boxes::Generated(vec![boxed])) }
    }
}

pub enum ColdPlan {
    Dtd { n: usize, fns: usize, fixed: usize, tweak: Option<usize>, seed: u64 },
    Box { n: usize, tweak: Option<usize> },
}

pub enum ColdOp {
    Dtd {
        target: String,
        funs: Vec<(Symbol, String)>,
        kernel: String,
        valid: bool,
        generated: DtdDesign,
    },
    Box {
        problem: BoxDesignProblem,
        kernel: String,
        valid: bool,
    },
}

pub struct DesignOut {
    local_valid: bool,
    typing: TypingVerdict,
    parsed: Option<DesignProblem>,
}

pub struct ColdPlanner {
    seed: u64,
    i: usize,
    kind: Blocks,
    invalid: Blocks,
    size: Blocks,
    fns: Blocks,
}

/// Ops per randomisation block: 4 box and 3 invalid designs in every 12.
const COLD_BLOCK: usize = 12;

impl Iterator for ColdPlanner {
    type Item = ColdPlan;

    fn next(&mut self) -> Option<ColdPlan> {
        let i = self.i;
        self.i += 1;
        let mut r = rng(self.seed, 1_000_000 + i as u64);
        let boxed = self.kind.slot(i) < 4;
        let inv_slot = self.invalid.slot(i);
        let tweak = (inv_slot < 3).then_some(inv_slot);
        let size = self.size.slot(i);
        Some(if boxed {
            ColdPlan::Box { n: stratified(size, COLD_BLOCK, 4, 24, &mut r), tweak }
        } else {
            ColdPlan::Dtd {
                n: stratified(size, COLD_BLOCK, 8, 48, &mut r),
                fns: stratified(self.fns.slot(i), COLD_BLOCK, 1, 8, &mut r),
                fixed: 1 + r.below(2),
                tweak,
                seed: r.next_u64(),
            }
        })
    }
}

impl Workload for DesignCold {
    type Plan = ColdPlan;
    type Op = ColdOp;
    type Out = DesignOut;
    type Planner = ColdPlanner;

    fn compile(&mut self) -> Result<(), String> {
        self.reference.compile()
    }

    fn release(&mut self) {
        self.reference.release();
    }

    fn self_test(&self) -> Result<(), String> {
        self.reference.round_trips()
    }

    fn planner(&self, seed: u64) -> ColdPlanner {
        ColdPlanner {
            seed,
            i: 0,
            kind: Blocks::new(seed, 1, COLD_BLOCK),
            invalid: Blocks::new(seed, 2, COLD_BLOCK),
            size: Blocks::new(seed, 3, COLD_BLOCK),
            fns: Blocks::new(seed, 4, COLD_BLOCK),
        }
    }

    fn materialize(&self, plan: &ColdPlan) -> ColdOp {
        match *plan {
            ColdPlan::Dtd { n, fns, fixed, tweak, seed } => {
                let mut design = DtdDesign::new(n, fns, seed);
                let mut r = rng(seed, 5);
                if let Some(kind) = tweak {
                    design.tweak(kind, &mut r);
                }
                let kernel = design.kernel(&design.fun_names(), fixed, &mut r);
                ColdOp::Dtd {
                    target: gen::render_dtd(&design.target),
                    funs: design.funs.iter().map(|(f, s)| (*f, gen::render_dtd(s))).collect(),
                    kernel: to_term(&kernel),
                    valid: tweak.is_none(),
                    generated: design,
                }
            }
            ColdPlan::Box { n, tweak } => {
                let (problem, kernel) = gen::box_design(n, tweak);
                ColdOp::Box { problem, kernel: to_term(&kernel), valid: tweak.is_none() }
            }
        }
    }

    fn run(&self, op: &ColdOp, tr: &mut Tracer) -> Result<DesignOut, String> {
        match op {
            ColdOp::Dtd { target, funs, kernel, .. } => {
                let (target, schemas) = tr.span(Layer::SyntaxParse, || {
                    let target = parse_schema(target)?;
                    let schemas = funs
                        .iter()
                        .map(|(f, text)| Ok((*f, parse_schema(text)?)))
                        .collect::<Result<Vec<_>, String>>()?;
                    Ok::<_, String>((target, schemas))
                })?;
                let names: Vec<Symbol> = schemas.iter().map(|(f, _)| *f).collect();
                let doc = tr
                    .span(Layer::TermParse, || DistributedDoc::parse(kernel, names))
                    .map_err(err)?;
                let mut problem = DesignProblem::new(target);
                for (f, s) in schemas {
                    problem.add_function(f, s);
                }
                let (local_valid, typing) = design_route(&problem, &doc, tr)?;
                Ok(DesignOut { local_valid, typing, parsed: Some(problem) })
            }
            ColdOp::Box { problem, kernel, .. } => {
                let doc = tr
                    .span(Layer::TermParse, || DistributedDoc::parse(kernel, ["f"]))
                    .map_err(err)?;
                tr.span(Layer::BoxesTargetCache, || problem.target_cache());
                let (local_valid, typing) = box_route(problem, &doc, tr)?;
                Ok(DesignOut { local_valid, typing, parsed: None })
            }
        }
    }

    fn check(&self, op: &ColdOp, out: &DesignOut) -> Result<(), String> {
        match (op, &out.parsed) {
            (ColdOp::Dtd { valid, generated, .. }, Some(parsed)) => {
                round_trip(parsed.doc_schema(), &generated.target, "the target")?;
                for (f, schema) in &generated.funs {
                    let back = parsed.fun_schema(f).ok_or("a function schema went missing")?;
                    round_trip(back, schema, "a function schema")?;
                }
                check_verdicts(out.local_valid, &out.typing, *valid, |t| {
                    parsed.doc_schema().validate(t)
                })
            }
            (ColdOp::Box { problem, valid, .. }, None) => {
                check_verdicts(out.local_valid, &out.typing, *valid, |t| {
                    problem.doc_schema().validate(t)
                })
            }
            _ => Err("outcome does not match the op".into()),
        }
    }

    fn digest(&self, op: &ColdOp, h: &mut DefaultHasher) {
        match op {
            ColdOp::Dtd { target, funs, kernel, valid, .. } => {
                (target, kernel, valid).hash(h);
                for (f, text) in funs {
                    (f.as_str(), text).hash(h);
                }
            }
            ColdOp::Box { problem, kernel, valid } => {
                (format!("{problem:?}"), kernel, valid).hash(h);
            }
        }
    }

    fn mix(plans: &[ColdPlan]) -> Vec<MixCheck> {
        let boxed = |p: &ColdPlan| matches!(p, ColdPlan::Box { .. });
        let invalid = |p: &ColdPlan| match p {
            ColdPlan::Dtd { tweak, .. } | ColdPlan::Box { tweak, .. } => tweak.is_some(),
        };
        let (dmin, dmax) = range(plans, |p| match p {
            ColdPlan::Dtd { n, .. } => Some(*n),
            ColdPlan::Box { .. } => None,
        });
        let (bmin, bmax) = range(plans, |p| match p {
            ColdPlan::Box { n, .. } => Some(*n),
            ColdPlan::Dtd { .. } => None,
        });
        let (fmin, fmax) = range(plans, |p| match p {
            ColdPlan::Dtd { fns, .. } => Some(*fns),
            ColdPlan::Box { .. } => None,
        });
        vec![
            MixCheck { name: "box_share", value: share(plans, boxed), lo: 0.28, hi: 0.38 },
            MixCheck { name: "invalid_share", value: share(plans, invalid), lo: 0.2, hi: 0.3 },
            MixCheck { name: "dtd_n_min", value: dmin, lo: 8.0, hi: 12.0 },
            MixCheck { name: "dtd_n_max", value: dmax, lo: 44.0, hi: 48.0 },
            MixCheck { name: "box_n_min", value: bmin, lo: 4.0, hi: 6.0 },
            MixCheck { name: "box_n_max", value: bmax, lo: 22.0, hi: 24.0 },
            MixCheck { name: "functions_min", value: fmin, lo: 1.0, hi: 1.0 },
            MixCheck { name: "functions_max", value: fmax, lo: 8.0, hi: 8.0 },
        ]
    }
}

/// `verify_local`, then `typecheck` on the DTD front end. The explicit
/// `extension_nuta` call fills the memo first, so the typecheck span
/// times the inclusion alone (its own lookup is a memo hit).
fn design_route(
    problem: &DesignProblem,
    doc: &DistributedDoc,
    tr: &mut Tracer,
) -> Result<(bool, TypingVerdict), String> {
    tr.span(Layer::DesignTargetCache, || problem.target_cache());
    let local = tr.span(Layer::DesignVerifyLocal, || problem.verify_local(doc)).map_err(err)?;
    let hits = problem.cache_stats().ext_memo_hits;
    tr.span(Layer::DesignExtensionNuta, || problem.extension_nuta(doc)).map_err(err)?;
    tr.ext_lookups += 1;
    tr.ext_hits += problem.cache_stats().ext_memo_hits - hits;
    let typing = tr.span(Layer::DesignTypecheck, || problem.typecheck(doc)).map_err(err)?;
    Ok((local.is_valid(), typing))
}

/// `verify_local`, then `typecheck` on the box (EDTD) front end.
fn box_route(
    problem: &BoxDesignProblem,
    doc: &DistributedDoc,
    tr: &mut Tracer,
) -> Result<(bool, TypingVerdict), String> {
    let local = tr.span(Layer::BoxesVerifyLocal, || problem.verify_local(doc)).map_err(err)?;
    let typing = tr.span(Layer::BoxesTypecheck, || problem.typecheck(doc)).map_err(err)?;
    Ok((local.is_valid(), typing))
}

// ----------------------------------------------------------------------
// Registered problems (verify_warm, synthesize)
// ----------------------------------------------------------------------

/// Where a registry's box problems come from.
enum Boxes {
    /// The `BoxDesignProblem::from` embedding of each DTD design.
    Embedded,
    /// Generated EDTD designs, built before set-up; compiling clones each
    /// and builds its target cache.
    Generated(Vec<BoxDesignProblem>),
}

/// DTD designs registered as compact text, and box designs, compiled at
/// set-up.
struct Registry {
    designs: Vec<DtdDesign>,
    texts: Vec<(String, Vec<(Symbol, String)>)>,
    box_source: Boxes,
    dtd: Vec<DesignProblem>,
    boxes: Vec<BoxDesignProblem>,
}

impl Registry {
    fn new(designs: Vec<DtdDesign>, box_source: Boxes) -> Registry {
        let texts = designs
            .iter()
            .map(|d| {
                let funs = d.funs.iter().map(|(f, s)| (*f, gen::render_dtd(s))).collect();
                (gen::render_dtd(&d.target), funs)
            })
            .collect();
        Registry { designs, texts, box_source, dtd: Vec::new(), boxes: Vec::new() }
    }

    /// Parses every registered text and compiles the front ends.
    fn compile(&mut self) -> Result<(), String> {
        for (target, funs) in &self.texts {
            let mut problem = DesignProblem::new(parse_schema(target)?);
            for (f, text) in funs {
                problem.add_function(*f, parse_schema(text)?);
            }
            if let Boxes::Embedded = self.box_source {
                let boxed = BoxDesignProblem::from(&problem);
                boxed.target_cache();
                self.boxes.push(boxed);
            }
            problem.target_cache();
            self.dtd.push(problem);
        }
        if let Boxes::Generated(templates) = &self.box_source {
            for template in templates {
                let problem = template.clone();
                problem.target_cache();
                self.boxes.push(problem);
            }
        }
        Ok(())
    }

    fn release(&mut self) {
        self.dtd.clear();
        self.boxes.clear();
    }

    /// The round-trip self-test over every registered schema.
    fn round_trips(&self) -> Result<(), String> {
        for (design, problem) in self.designs.iter().zip(&self.dtd) {
            round_trip(problem.doc_schema(), &design.target, "a registered target")?;
            for (f, schema) in &design.funs {
                let back = problem.fun_schema(f).ok_or("a function schema went missing")?;
                round_trip(back, schema, "a registered function schema")?;
            }
        }
        Ok(())
    }
}

/// The family seed of every registered design. Registered problems stand
/// for deployed schemas, fixed across runs; the run seed drives the
/// requests (kernels) sent against them.
const REGISTRY_SEED: u64 = 11;

fn fun_names(count: usize) -> Vec<Symbol> {
    (0..count).map(fun_name).collect()
}

// ----------------------------------------------------------------------
// verify_warm
// ----------------------------------------------------------------------

/// Kernels checked against problems compiled at set-up.
pub struct VerifyWarm {
    reg: Registry,
}

pub const WARM_SIZES: [usize; 3] = [16, 32, 48];
const WARM_FUNCTIONS: usize = 16;
/// Ops per block: every (front end, problem, new-or-recheck) combination
/// once, and 3 invalid kernels in every 12.
const WARM_BLOCK: usize = 12;
/// The extension memo keeps the last `EXT_CACHE_CAP` = 4 documents.
const RECHECK_WINDOW: usize = 4;

impl VerifyWarm {
    pub fn new() -> VerifyWarm {
        let designs =
            WARM_SIZES.iter().map(|&n| DtdDesign::new(n, WARM_FUNCTIONS, REGISTRY_SEED)).collect();
        VerifyWarm { reg: Registry::new(designs, Boxes::Embedded) }
    }
}

#[derive(Clone)]
pub struct WarmPlan {
    problem: usize,
    boxed: bool,
    calls: Vec<usize>,
    fixed: usize,
    misplace: Option<usize>,
    seed: u64,
    recheck: bool,
}

pub struct WarmPlanner {
    seed: u64,
    i: usize,
    combo: Blocks,
    invalid: Blocks,
    calls: Blocks,
    /// The last new kernels per (problem, front end): what the DTD
    /// problem's extension memo holds.
    recent: Vec<VecDeque<WarmPlan>>,
}

impl Iterator for WarmPlanner {
    type Item = WarmPlan;

    fn next(&mut self) -> Option<WarmPlan> {
        let i = self.i;
        self.i += 1;
        let mut r = rng(self.seed, 2_000_000 + i as u64);
        let combo = self.combo.slot(i);
        let boxed = combo % 2 == 1;
        let problem = (combo / 2) % WARM_SIZES.len();
        let recheck = combo >= WARM_BLOCK / 2;
        let recent = &mut self.recent[problem * 2 + usize::from(boxed)];
        if recheck && !recent.is_empty() {
            let mut plan = recent[r.below(recent.len())].clone();
            plan.recheck = true;
            return Some(plan);
        }
        let k = stratified(self.calls.slot(i), WARM_BLOCK, 1, WARM_FUNCTIONS, &mut r);
        let mut order = gen::permutation(&mut r, WARM_FUNCTIONS);
        order.truncate(k);
        let inv = self.invalid.slot(i);
        let plan = WarmPlan {
            problem,
            boxed,
            calls: order,
            fixed: 1 + r.below(2),
            misplace: (inv < 3).then_some(inv),
            seed: r.next_u64(),
            recheck: false,
        };
        if recent.len() == RECHECK_WINDOW {
            recent.pop_front();
        }
        recent.push_back(plan.clone());
        Some(plan)
    }
}

pub struct WarmOp {
    problem: usize,
    boxed: bool,
    kernel: String,
    valid: bool,
}

impl Workload for VerifyWarm {
    const MAX_BUILDS_PER_OP: Option<u64> = Some(0);
    type Plan = WarmPlan;
    type Op = WarmOp;
    type Out = (bool, TypingVerdict);
    type Planner = WarmPlanner;

    fn compile(&mut self) -> Result<(), String> {
        self.reg.compile()
    }

    fn release(&mut self) {
        self.reg.release();
    }

    fn planner(&self, seed: u64) -> WarmPlanner {
        WarmPlanner {
            seed,
            i: 0,
            combo: Blocks::new(seed, 11, WARM_BLOCK),
            invalid: Blocks::new(seed, 12, WARM_BLOCK),
            calls: Blocks::new(seed, 13, WARM_BLOCK),
            recent: vec![VecDeque::new(); WARM_SIZES.len() * 2],
        }
    }

    fn materialize(&self, plan: &WarmPlan) -> WarmOp {
        let design = &self.reg.designs[plan.problem];
        let calls: Vec<Symbol> = plan.calls.iter().map(|&c| fun_name(c)).collect();
        let mut r = rng(plan.seed, 6);
        let mut kernel = design.kernel(&calls, plan.fixed, &mut r);
        if let Some(kind) = plan.misplace {
            gen::misplace(&mut kernel, kind, &mut r);
        }
        WarmOp {
            problem: plan.problem,
            boxed: plan.boxed,
            kernel: to_term(&kernel),
            valid: plan.misplace.is_none(),
        }
    }

    fn run(&self, op: &WarmOp, tr: &mut Tracer) -> Result<(bool, TypingVerdict), String> {
        let names = fun_names(WARM_FUNCTIONS);
        let doc =
            tr.span(Layer::TermParse, || DistributedDoc::parse(&op.kernel, names)).map_err(err)?;
        if op.boxed {
            box_route(&self.reg.boxes[op.problem], &doc, tr)
        } else {
            design_route(&self.reg.dtd[op.problem], &doc, tr)
        }
    }

    fn check(&self, op: &WarmOp, out: &(bool, TypingVerdict)) -> Result<(), String> {
        check_verdicts(out.0, &out.1, op.valid, |t| {
            if op.boxed {
                self.reg.boxes[op.problem].doc_schema().validate(t)
            } else {
                self.reg.dtd[op.problem].doc_schema().validate(t)
            }
        })
    }

    fn self_test(&self) -> Result<(), String> {
        self.reg.round_trips()
    }

    fn digest(&self, op: &WarmOp, h: &mut DefaultHasher) {
        (op.problem, op.boxed, &op.kernel, op.valid).hash(h);
        for (target, funs) in &self.reg.texts {
            target.hash(h);
            for (f, text) in funs {
                (f.as_str(), text).hash(h);
            }
        }
    }

    fn mix(plans: &[WarmPlan]) -> Vec<MixCheck> {
        let (cmin, cmax) = range(plans, |p| Some(p.calls.len()));
        vec![
            MixCheck { name: "box_share", value: share(plans, |p| p.boxed), lo: 0.45, hi: 0.55 },
            MixCheck {
                name: "invalid_share",
                value: share(plans, |p| p.misplace.is_some()),
                lo: 0.15,
                hi: 0.35,
            },
            MixCheck {
                name: "recheck_share",
                value: share(plans, |p| p.recheck),
                lo: 0.4,
                hi: 0.55,
            },
            MixCheck { name: "calls_min", value: cmin, lo: 1.0, hi: 1.0 },
            MixCheck { name: "calls_max", value: cmax, lo: 16.0, hi: 16.0 },
        ]
    }
}

// ----------------------------------------------------------------------
// synthesize
// ----------------------------------------------------------------------

/// `perfect_schema` for one function of a kernel over problems compiled at
/// set-up.
pub struct Synthesize {
    reg: Registry,
}

pub const SYNTH_DTD_SIZES: [usize; 4] = [8, 16, 24, 32];
pub const SYNTH_BOX_SIZES: [usize; 4] = [4, 8, 16, 24];
const SYNTH_FUNCTIONS: usize = 8;
/// (problem, front end) combinations.
const SYNTH_COMBOS: usize = 8;
/// Call shapes: box gap-width strata, or DTD (others, copies, deep).
const SYNTH_SHAPES: usize = 8;
/// Ops per block: every combination with every call shape once.
const SYNTH_BLOCK: usize = SYNTH_COMBOS * SYNTH_SHAPES;

impl Synthesize {
    pub fn new() -> Synthesize {
        let designs = SYNTH_DTD_SIZES
            .iter()
            .map(|&n| DtdDesign::new(n, SYNTH_FUNCTIONS, REGISTRY_SEED))
            .collect();
        let boxes = SYNTH_BOX_SIZES.iter().map(|&n| gen::box_design(n, None).0).collect();
        Synthesize { reg: Registry::new(designs, Boxes::Generated(boxes)) }
    }
}

pub enum SynthPlan {
    /// `f<target>` docks `copies` times under the root next to `others`,
    /// or (`deep`) replaces one node inside the fixed `e1` subtree.
    Dtd { problem: usize, target: usize, copies: usize, deep: bool, others: Vec<usize>, seed: u64 },
    /// `f` fills the gap `lo..hi` of the box target.
    Box { problem: usize, lo: usize, hi: usize },
}

pub struct SynthPlanner {
    seed: u64,
    i: usize,
    combo: Blocks,
}

impl Iterator for SynthPlanner {
    type Item = SynthPlan;

    fn next(&mut self) -> Option<SynthPlan> {
        let i = self.i;
        self.i += 1;
        let mut r = rng(self.seed, 3_000_000 + i as u64);
        let slot = self.combo.slot(i);
        let (combo, shape) = (slot % SYNTH_COMBOS, slot / SYNTH_COMBOS);
        let problem = (combo / 2) % SYNTH_DTD_SIZES.len();
        Some(if combo % 2 == 1 {
            let n = SYNTH_BOX_SIZES[problem];
            let width = stratified(shape, SYNTH_SHAPES, 1, n, &mut r);
            let lo = r.below(n - width + 1);
            SynthPlan::Box { problem, lo, hi: lo + width }
        } else {
            let mut order = gen::permutation(&mut r, SYNTH_FUNCTIONS);
            let target = order.pop().expect("functions are declared");
            order.truncate(shape % 4);
            let deep = shape < 3;
            SynthPlan::Dtd {
                problem,
                target,
                copies: if deep { 1 } else { 1 + shape / 4 },
                deep,
                others: order,
                seed: r.next_u64(),
            }
        })
    }
}

pub struct SynthOp {
    boxed: bool,
    problem: usize,
    kernel: String,
    function: Symbol,
}

pub enum Perfect {
    Dtd(RDtd),
    Box(REdtd),
}

impl Workload for Synthesize {
    /// `perfect_schema` confirms its candidate by typechecking a copy of
    /// the design that carries it, and that copy compiles its own target
    /// cache. The registered targets are never recompiled.
    const MAX_BUILDS_PER_OP: Option<u64> = Some(1);
    type Plan = SynthPlan;
    type Op = SynthOp;
    type Out = Perfect;
    type Planner = SynthPlanner;

    fn compile(&mut self) -> Result<(), String> {
        self.reg.compile()
    }

    fn release(&mut self) {
        self.reg.release();
    }

    fn planner(&self, seed: u64) -> SynthPlanner {
        SynthPlanner { seed, i: 0, combo: Blocks::new(seed, 21, SYNTH_BLOCK) }
    }

    fn materialize(&self, plan: &SynthPlan) -> SynthOp {
        match plan {
            SynthPlan::Dtd { problem, target, copies, deep, others, seed } => {
                let design = &self.reg.designs[*problem];
                let f = fun_name(*target);
                let mut calls: Vec<Symbol> = others.iter().map(|&c| fun_name(c)).collect();
                let mut r = rng(*seed, 7);
                let size = design.e1_tree.size();
                if !*deep || size == 1 {
                    calls.extend((0..*copies).map(|_| f));
                }
                let mut kernel = design.kernel(&calls, 1, &mut r);
                if *deep && size > 1 {
                    // The fixed `e1` subtree holds ids `first..first+size`;
                    // replace one of its inner nodes by the call.
                    let first = kernel.children(0)[0];
                    let node = first + 1 + r.below(size - 1);
                    kernel = kernel.with_subtree_replaced(node, &XTree::leaf(f));
                }
                SynthOp { boxed: false, problem: *problem, kernel: to_term(&kernel), function: f }
            }
            SynthPlan::Box { problem, lo, hi } => {
                let kernel = gen::box_gap_kernel(SYNTH_BOX_SIZES[*problem], *lo, *hi);
                SynthOp {
                    boxed: true,
                    problem: *problem,
                    kernel: to_term(&kernel),
                    function: Symbol::new("f"),
                }
            }
        }
    }

    fn run(&self, op: &SynthOp, tr: &mut Tracer) -> Result<Perfect, String> {
        if op.boxed {
            let doc = tr
                .span(Layer::TermParse, || DistributedDoc::parse(&op.kernel, ["f"]))
                .map_err(err)?;
            let problem = &self.reg.boxes[op.problem];
            let schema =
                tr.span(Layer::BoxesPerfectSchema, || problem.perfect_schema(&doc, op.function));
            schema.map(Perfect::Box).map_err(err)
        } else {
            let names = fun_names(SYNTH_FUNCTIONS);
            let doc = tr
                .span(Layer::TermParse, || DistributedDoc::parse(&op.kernel, names))
                .map_err(err)?;
            let problem = &self.reg.dtd[op.problem];
            let schema =
                tr.span(Layer::PerfectSchema, || problem.perfect_schema(&doc, op.function));
            schema.map(Perfect::Dtd).map_err(err)
        }
    }

    fn check(&self, op: &SynthOp, out: &Perfect) -> Result<(), String> {
        let verdict = match out {
            Perfect::Dtd(schema) => {
                let names = fun_names(SYNTH_FUNCTIONS);
                let doc = DistributedDoc::parse(&op.kernel, names).map_err(err)?;
                let solved =
                    self.reg.dtd[op.problem].clone().with_function(op.function, schema.clone());
                solved.typecheck(&doc)
            }
            Perfect::Box(schema) => {
                let doc = DistributedDoc::parse(&op.kernel, ["f"]).map_err(err)?;
                let solved =
                    self.reg.boxes[op.problem].clone().with_function(op.function, schema.clone());
                solved.typecheck(&doc)
            }
        };
        match verdict.map_err(err)? {
            TypingVerdict::Valid => Ok(()),
            TypingVerdict::Invalid { .. } => {
                Err(format!("the perfect schema of {} does not typecheck", op.function))
            }
        }
    }

    fn self_test(&self) -> Result<(), String> {
        self.reg.round_trips()
    }

    fn digest(&self, op: &SynthOp, h: &mut DefaultHasher) {
        (op.boxed, op.problem, &op.kernel, op.function.as_str()).hash(h);
    }

    fn mix(plans: &[SynthPlan]) -> Vec<MixCheck> {
        let boxed = |p: &SynthPlan| matches!(p, SynthPlan::Box { .. });
        let deep = |p: &SynthPlan| matches!(p, SynthPlan::Dtd { deep: true, .. });
        let (dmin, dmax) = range(plans, |p| match p {
            SynthPlan::Dtd { problem, .. } => Some(SYNTH_DTD_SIZES[*problem]),
            SynthPlan::Box { .. } => None,
        });
        let (bmin, bmax) = range(plans, |p| match p {
            SynthPlan::Box { problem, .. } => Some(SYNTH_BOX_SIZES[*problem]),
            SynthPlan::Dtd { .. } => None,
        });
        vec![
            MixCheck { name: "box_share", value: share(plans, boxed), lo: 0.45, hi: 0.55 },
            MixCheck { name: "deep_share", value: share(plans, deep), lo: 0.1, hi: 0.25 },
            MixCheck { name: "dtd_n_min", value: dmin, lo: 8.0, hi: 8.0 },
            MixCheck { name: "dtd_n_max", value: dmax, lo: 32.0, hi: 32.0 },
            MixCheck { name: "box_n_min", value: bmin, lo: 4.0, hi: 4.0 },
            MixCheck { name: "box_n_max", value: bmax, lo: 24.0, hi: 24.0 },
        ]
    }
}

// ----------------------------------------------------------------------
// ingest
// ----------------------------------------------------------------------

/// Peer-returned documents validated with one `validate_batch` call per op.
pub struct Ingest {
    docs: usize,
    eurostat: Option<Front>,
    chain: Option<Front>,
}

/// A registered SDTD and the streaming validator built from it at set-up.
struct Front {
    schema: RSdtd,
    validator: StreamValidator,
}

impl Front {
    fn compile(text: &str) -> Result<Front, String> {
        let schema = RSdtd::parse(RFormalism::Nre, text).map_err(err)?;
        let validator = StreamValidator::new(&schema);
        Ok(Front { schema, validator })
    }
}

/// Documents per batch and `validate_batch` worker. With two, a worker
/// that finishes its first document early takes another instead of
/// idling. More would lengthen the op: four documents on two workers take
/// about 30 ms, so a 15 s run gets about 480 samples.
const DOCS_PER_WORKER: usize = 2;
/// Ops per block: 2 deep-chain, 4 wide and 4 mixed batches, each shape
/// over its own size strata.
const INGEST_BLOCK: usize = 10;

impl Ingest {
    /// A batch holds `DOCS_PER_WORKER` documents per worker that
    /// `validate_batch` starts (`available_parallelism`, as it counts them).
    pub fn new() -> Ingest {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Ingest { docs: DOCS_PER_WORKER * workers, eurostat: None, chain: None }
    }

    fn front(&self, chain: bool) -> &Front {
        let s = if chain { &self.chain } else { &self.eurostat };
        s.as_ref().expect("compiled at set-up")
    }
}

pub struct IngestPlan {
    chain: bool,
    docs: Vec<DocPlan>,
}

pub struct IngestPlanner {
    seed: u64,
    i: usize,
    docs: usize,
    shape: Blocks,
    flags: Blocks,
}

impl Iterator for IngestPlanner {
    type Item = IngestPlan;

    fn next(&mut self) -> Option<IngestPlan> {
        let i = self.i;
        self.i += 1;
        let mut r = rng(self.seed, 4_000_000 + i as u64);
        let slot = self.shape.slot(i);
        let (shape, stratum, strata) = match slot {
            0 | 1 => (Shape::Deep, slot, 2),
            2..=5 => (Shape::Wide, slot - 2, 4),
            _ => (Shape::Mixed, slot - 6, 4),
        };
        // Every document of a batch has the same size, so each worker
        // gets an equal share.
        let records = match shape {
            Shape::Deep => stratified(stratum, strata, 2_000, 20_000, &mut r),
            _ => stratified(stratum, strata, 1_000, 10_000, &mut r),
        };
        // Per block of documents: a tenth misplace one element, a
        // twentieth are hostile.
        let block = INGEST_BLOCK * self.docs;
        let docs = (0..self.docs)
            .map(|d| {
                let flag = self.flags.slot(i * self.docs + d);
                DocPlan {
                    shape,
                    records,
                    bad: (flag < block / 10).then(|| r.below(records)),
                    hostile: (block / 10..block * 3 / 20)
                        .contains(&flag)
                        .then(|| 2_000 + r.below(3_000)),
                    tag: r.next_u64(),
                }
            })
            .collect();
        Some(IngestPlan { chain: shape == Shape::Deep, docs })
    }
}

pub struct IngestOp {
    chain: bool,
    docs: Vec<String>,
    valid: Vec<bool>,
}

/// Drains a document through the bare SAX parser.
fn sax_drain(doc: &str) -> usize {
    let mut sax = SaxParser::new(doc);
    let mut events = 0;
    while let Ok(Some(_)) = sax.next_event() {
        events += 1;
    }
    events
}

impl Workload for Ingest {
    type Plan = IngestPlan;
    type Op = IngestOp;
    type Out = Vec<Result<(), SchemaError>>;
    type Planner = IngestPlanner;

    fn compile(&mut self) -> Result<(), String> {
        self.eurostat = Some(Front::compile(gen::EUROSTAT_SDTD)?);
        self.chain = Some(Front::compile(gen::CHAIN_SDTD)?);
        Ok(())
    }

    fn release(&mut self) {
        self.eurostat = None;
        self.chain = None;
    }

    fn planner(&self, seed: u64) -> IngestPlanner {
        IngestPlanner {
            seed,
            i: 0,
            docs: self.docs,
            shape: Blocks::new(seed, 31, INGEST_BLOCK),
            flags: Blocks::new(seed, 32, INGEST_BLOCK * self.docs),
        }
    }

    fn materialize(&self, plan: &IngestPlan) -> IngestOp {
        IngestOp {
            chain: plan.chain,
            docs: plan.docs.iter().map(DocPlan::render).collect(),
            valid: plan.docs.iter().map(DocPlan::valid).collect(),
        }
    }

    fn run(&self, op: &IngestOp, tr: &mut Tracer) -> Result<Self::Out, String> {
        let schema = &self.front(op.chain).schema;
        Ok(tr.span(Layer::BatchValidate, || validate_batch(schema, &op.docs)))
    }

    fn check(&self, op: &IngestOp, out: &Self::Out) -> Result<(), String> {
        for (i, (verdict, valid)) in out.iter().zip(&op.valid).enumerate() {
            if verdict.is_ok() != *valid {
                return Err(format!("document {i}: verdict {verdict:?}, generator label {valid}"));
            }
        }
        Ok(())
    }

    fn side(&self, op: &IngestOp, out: &Self::Out, tr: &mut Tracer) -> Result<(), String> {
        let front = self.front(op.chain);
        // What `validate_batch` rebuilds on every call.
        let rebuilt = tr.side(Layer::StreamValidatorBuild, || StreamValidator::new(&front.schema));
        std::hint::black_box(rebuilt);
        for (doc, batch) in op.docs.iter().zip(out) {
            let single = tr.side(Layer::StreamValidate, || front.validator.validate(doc));
            if &single != batch {
                return Err("single-thread and batch verdicts differ".into());
            }
            std::hint::black_box(tr.side(Layer::SaxScan, || sax_drain(doc)));
        }
        Ok(())
    }

    fn op_bytes(&self, op: &IngestOp) -> usize {
        op.docs.iter().map(String::len).sum()
    }

    fn digest(&self, op: &IngestOp, h: &mut DefaultHasher) {
        (op.chain, &op.docs, &op.valid).hash(h);
    }

    fn mix(plans: &[IngestPlan]) -> Vec<MixCheck> {
        let docs: Vec<&DocPlan> = plans.iter().flat_map(|p| &p.docs).collect();
        let (wmin, wmax) = range(&docs, |d| (d.shape != Shape::Deep).then_some(d.records));
        vec![
            MixCheck { name: "deep_share", value: share(plans, |p| p.chain), lo: 0.15, hi: 0.25 },
            MixCheck {
                name: "invalid_share",
                value: share(&docs, |d| d.bad.is_some()),
                lo: 0.08,
                hi: 0.12,
            },
            MixCheck {
                name: "hostile_share",
                value: share(&docs, |d| d.hostile.is_some()),
                lo: 0.04,
                hi: 0.06,
            },
            MixCheck { name: "records_min", value: wmin, lo: 1_000.0, hi: 1_500.0 },
            MixCheck { name: "records_max", value: wmax, lo: 9_500.0, hi: 10_000.0 },
        ]
    }
}
