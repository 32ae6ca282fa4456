//! Static cost analysis: predict determinisation blowup and synthesise
//! budgets **before** running anything.
//!
//! PR 9's `*_with_budget` entry points let a caller bound every
//! worst-case-exponential loop, but picking the quota values required
//! running the schema and tripping. This module closes that loop
//! statically: from the structural [`NfaMetrics`] of each content model it
//! brackets — without determinising anything — the exact telemetry
//! counters the engine would report (`dfa.subset_states`,
//! `dfa.subset_transitions`, `equiv.bfs_states`, `equiv.bfs_transitions`),
//! detects suffix-counting shapes like `(a|b)* a (a|b)^{n-1}` that force a
//! `2^n` DFA lower bound, and composes the per-model brackets into a
//! design-level [`DesignCost`] from which [`recommend_budget`] synthesises
//! concrete step/state quotas with a headroom factor.
//!
//! # The bracket invariant
//!
//! Every [`Bounds`] value in this module is a *sound* bracket of a
//! telemetry counter: `lower ≤ actual ≤ upper` for the counter it names.
//! The calibration suite (`crates/bench/tests/cost_calibration.rs`)
//! asserts this differentially against the live PR 8 counters on the full
//! bench corpus, and the `cost_analysis` bench target gates it in CI. The
//! load-bearing facts, matching `Dfa::from_nfa_with_budget` and
//! `equiv::included_with_budget` exactly:
//!
//! * the subset construction materialises only **non-empty** subsets of
//!   the `m` NFA states, so it builds at most `2^m − 1` subset states —
//!   and it scans the NFA's registered alphabet once per popped subset, so
//!   `dfa.subset_transitions = dfa.subset_states × |alphabet|` exactly;
//! * the subsets visited along a shortest accepted word's run are pairwise
//!   distinct (collapsing two of them would pump the word shorter), so a
//!   non-empty language forces at least `min_word_len + 1` subset states;
//! * a suffix-counting model `S* a T_1 … T_k` with `{a, b} ⊆ T_i` for
//!   some filler `b ∈ S \ {a}` forces `2^{k+1}` subset states: the
//!   `2^{k+1}` prefixes in `{a,b}^{k+1}` lead to pairwise distinct,
//!   non-empty subsets (two prefixes differing at window offset `i` are
//!   separated by the extension `b^{k-i}`);
//! * the inclusion BFS over the completed product pops each reachable
//!   pair at most once, so a run over DFAs with `s_a`/`s_b` states pops at
//!   most `(s_a + 1) × (s_b + 1)` pairs (completion adds one sink per
//!   side) and scans the union alphabet once per fully expanded pop; when
//!   the inclusion *holds* it exhausts every reachable pair, so the pairs
//!   along either side's shortest word force `max(minlen_a, minlen_b) + 1`
//!   pops and `pops × |Σ_a ∪ Σ_b|` edge scans exactly.
//!
//! # What is calibrated and what is coarse
//!
//! The subset-construction and product-BFS brackets above are tight and
//! differentially calibrated. The residual-walk and box-fixpoint terms of
//! [`DesignCost`] are *coarse structural* bounds (sound but loose); they
//! exist so the synthesised step quota covers every governed loop of a
//! `verify_local`/`typecheck`/`perfect_schema` run, and they ride inside
//! the headroom factor rather than the calibrated core.
//!
//! # Budget synthesis
//!
//! [`recommend_budget`] (and [`recommend_box_budget`]) turn a
//! [`DesignCost`] into a [`Budget`]: with a positive headroom factor `h`
//! the quotas are `upper × h + BASE_SLACK` (admission control — every
//! well-behaved schema fits, a predicted-exponential one is surfaced by
//! `DX014`/`DX015` instead of an OOM); with headroom `0` the quotas are
//! `lower − 1`, *guaranteed* to trip on any covering run — the shape the
//! fuzz smoke-test uses to prove the predictions have teeth.

use std::fmt;

use dxml_automata::symbol::Word;
use dxml_automata::{Alphabet, Budget, Nfa, NfaMetrics, RSpec, Regex, Symbol};
use dxml_core::{BoxDesignProblem, DesignProblem};
use dxml_schema::{RDtd, REdtd};

/// Suffix-counting lower bounds at or above this many predicted subset
/// states raise `DX014` (predicted-exponential content model).
pub const EXPONENTIAL_THRESHOLD: u64 = 64;

/// Designs whose predicted upper state bound reaches this raise the
/// `DX015` budget advisory (and `DX016` when one location dominates).
pub const ATTENTION_THRESHOLD: u64 = 1 << 16;

/// Default headroom factor of [`recommend_budget`]: quotas are twice the
/// predicted upper bound (plus [`BASE_SLACK`]).
pub const DEFAULT_HEADROOM: f64 = 2.0;

/// Flat additive slack of every positive-headroom quota, covering the
/// per-node costs (fresh realizable-language determinisations, BFS pops)
/// that scale with the *document* rather than the schema.
pub const BASE_SLACK: u64 = 1 << 12;

/// A sound bracket `lower ≤ actual ≤ upper` of one cost counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Guaranteed minimum of the counter.
    pub lower: u64,
    /// Guaranteed maximum of the counter (saturating; `u64::MAX` means
    /// "astronomical", not "unknown" — the bound is still sound).
    pub upper: u64,
}

impl Bounds {
    /// A bracket that pins the counter exactly.
    pub fn exact(v: u64) -> Bounds {
        Bounds { lower: v, upper: v }
    }

    /// A bracket from both ends.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` — a violated bracket is a bug in the
    /// model, never a recoverable condition.
    pub fn new(lower: u64, upper: u64) -> Bounds {
        assert!(lower <= upper, "inverted bounds: {lower} > {upper}");
        Bounds { lower, upper }
    }

    /// Whether `actual` falls inside the bracket.
    pub fn contains(&self, actual: u64) -> bool {
        self.lower <= actual && actual <= self.upper
    }

    /// Component-wise saturating sum (brackets of independent counters
    /// add).
    pub fn plus(self, other: Bounds) -> Bounds {
        Bounds {
            lower: self.lower.saturating_add(other.lower),
            upper: self.upper.saturating_add(other.upper),
        }
    }

    /// Component-wise saturating scaling by a constant factor.
    pub fn times(self, k: u64) -> Bounds {
        Bounds { lower: self.lower.saturating_mul(k), upper: self.upper.saturating_mul(k) }
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lower == self.upper {
            write!(f, "{}", self.lower)
        } else if self.upper == u64::MAX {
            write!(f, "[{} … 2^64)", self.lower)
        } else {
            write!(f, "[{} … {}]", self.lower, self.upper)
        }
    }
}

/// `2^m − 1` with saturation: the number of non-empty subsets of `m` NFA
/// states, i.e. the hard ceiling of the subset construction.
fn pow2_minus1(m: usize) -> u64 {
    if m >= 64 {
        u64::MAX
    } else {
        (1u64 << m) - 1
    }
}

fn pow2(m: usize) -> u64 {
    if m >= 64 {
        u64::MAX
    } else {
        1u64 << m
    }
}

// ---------------------------------------------------------------------
// Suffix-counting detection
// ---------------------------------------------------------------------

/// A detected suffix-counting shape `S* a T_1 … T_k` — the canonical
/// exponential-determinisation family of the form `(a|b)* a (a|b)^{n-1}`
/// — together with the witness data backing its lower bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuffixCounting {
    /// The pivot symbol `a` whose position from the end the language
    /// counts.
    pub pivot: Symbol,
    /// A filler symbol `b ∈ S \ {a}` allowed at every window offset.
    pub filler: Symbol,
    /// The window width `k + 1`: membership of `pivot`-vs-`filler` words
    /// is decided by the letter exactly `window` positions from the end.
    pub window: u32,
    /// `2^window` (saturating): a lower bound on the states of *any* DFA
    /// for the language, hence on `dfa.subset_states`.
    pub dfa_lower_bound: u64,
    /// A shortest accepted member of the witness family:
    /// `pivot filler^{window-1}`.
    pub accepted: Word,
    /// The matching rejected word `filler^window` — same length, differs
    /// only at the window position.
    pub rejected: Word,
}

impl SuffixCounting {
    /// One-sentence human rendering of the witness, used by `DX014`.
    pub fn describe(&self) -> String {
        format!(
            "membership is decided by the letter {} position(s) from the end \
             (accepts `{}`, rejects `{}`), so any DFA must remember the last \
             {} letters: at least {} subset states",
            self.window,
            render_word(&self.accepted),
            render_word(&self.rejected),
            self.window,
            self.dfa_lower_bound,
        )
    }
}

fn render_word(w: &Word) -> String {
    let parts: Vec<String> = w.iter().map(ToString::to_string).collect();
    parts.join(" ")
}

/// Flattens nested top-level concatenations into a factor list.
fn flatten_concat(re: &Regex) -> Vec<&Regex> {
    fn go<'a>(re: &'a Regex, out: &mut Vec<&'a Regex>) {
        match re {
            Regex::Concat(vs) => {
                for v in vs {
                    go(v, out);
                }
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    go(re, &mut out);
    out
}

/// The symbol set of a width-1 factor (a symbol or an alternation of
/// symbols — every word it accepts has length exactly 1), or `None`.
fn unit_symbols(re: &Regex) -> Option<Alphabet> {
    match re {
        Regex::Sym(s) => {
            let mut a = Alphabet::new();
            a.insert(*s);
            Some(a)
        }
        Regex::Alt(vs) => {
            let mut out = Alphabet::new();
            for v in vs {
                out = out.union(&unit_symbols(v)?);
            }
            Some(out)
        }
        _ => None,
    }
}

/// Detects the suffix-counting shape `S* a T_1 … T_k` in an expression:
/// a leading star over a width-1 alternation `S` with `|S| ≥ 2`, a pivot
/// `a ∈ S`, and a width-1 tail where some filler `b ∈ S \ {a}` satisfies
/// `{a, b} ⊆ T_i` for every tail factor.
///
/// Under those conditions `L ∩ {a,b}*` is exactly the words of length
/// `≥ k+1` whose letter `k+1` positions from the end is `a`, which is the
/// textbook `2^{k+1}`-state fooling family — the returned
/// [`SuffixCounting::dfa_lower_bound`] is a *proved* lower bound on the
/// subset-construction state count, not a heuristic. `(a|b)* a (a|b)^{n-1}`
/// yields `window = n` and bound `2^n`.
pub fn suffix_counting(re: &Regex) -> Option<SuffixCounting> {
    let parts = flatten_concat(re);
    if parts.len() < 2 {
        return None;
    }
    let body = match parts[0] {
        Regex::Star(body) => unit_symbols(body)?,
        _ => return None,
    };
    if body.len() < 2 {
        return None;
    }
    let pivot = match parts[1] {
        Regex::Sym(s) if body.contains(s) => *s,
        _ => return None,
    };
    let tails: Vec<Alphabet> = parts[2..].iter().map(|p| unit_symbols(p)).collect::<Option<_>>()?;
    if !tails.iter().all(|t| t.contains(&pivot)) {
        return None;
    }
    let filler =
        *body.iter().find(|b| **b != pivot && tails.iter().all(|t| t.contains(b)))?;
    let k = tails.len();
    let window = u32::try_from(k + 1).ok()?;
    let mut accepted = vec![pivot];
    accepted.extend(std::iter::repeat(filler).take(k));
    let rejected = vec![filler; k + 1];
    Some(SuffixCounting {
        pivot,
        filler,
        window,
        dfa_lower_bound: pow2(k + 1),
        accepted,
        rejected,
    })
}

// ---------------------------------------------------------------------
// Per-content-model cost
// ---------------------------------------------------------------------

/// The predicted determinisation cost of one content model.
#[derive(Clone, Debug)]
pub struct ContentModelCost {
    /// The structural metrics of the model's NFA (Thompson for `nRE`,
    /// as-is for `nFA`/`dFA`).
    pub metrics: NfaMetrics,
    /// Star nesting depth of the expression (`Plus` counts as an orbit);
    /// `None` for automaton-backed models.
    pub star_height: Option<usize>,
    /// Bracket of `dfa.subset_states` for determinising this model.
    pub subset_states: Bounds,
    /// Bracket of `dfa.subset_transitions`; exactly
    /// `subset_states × |alphabet|` on both ends.
    pub subset_steps: Bounds,
    /// The detected exponential shape, if any.
    pub suffix_counting: Option<SuffixCounting>,
}

/// Star nesting depth; `Plus` is an orbit, `Opt` is not.
fn star_height(re: &Regex) -> usize {
    match re {
        Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 0,
        Regex::Concat(vs) | Regex::Alt(vs) => vs.iter().map(star_height).max().unwrap_or(0),
        Regex::Star(b) | Regex::Plus(b) => 1 + star_height(b),
        Regex::Opt(b) => star_height(b),
    }
}

/// Brackets the subset-construction cost of a content model from its
/// structure alone. See the module docs for the exact counter semantics
/// each bound tracks.
pub fn content_model_cost(spec: &RSpec) -> ContentModelCost {
    let nfa = spec.to_nfa();
    let metrics = nfa.metrics();
    let (height, suffix) = match spec {
        RSpec::Nre(re) | RSpec::Dre(re) => (Some(star_height(re)), suffix_counting(re)),
        RSpec::Nfa(_) | RSpec::Dfa(_) => (None, None),
    };
    let mut lower = match metrics.min_word_len {
        Some(len) => (len as u64).saturating_add(1),
        None => 1, // the start closure alone
    };
    if let Some(sc) = &suffix {
        lower = lower.max(sc.dfa_lower_bound);
    }
    let mut upper = pow2_minus1(metrics.states);
    if matches!(spec, RSpec::Dfa(_)) {
        // Determinising a DFA only ever visits singleton subsets.
        upper = upper.min(metrics.states as u64);
    }
    let subset_states = Bounds::new(lower, upper.max(lower));
    let subset_steps = subset_states.times(metrics.alphabet.len() as u64);
    ContentModelCost { metrics, star_height: height, subset_states, subset_steps, suffix_counting: suffix }
}

// ---------------------------------------------------------------------
// Inclusion (product-BFS) cost
// ---------------------------------------------------------------------

/// The predicted cost of one `included(a, b)` language-inclusion check:
/// determinise both sides, complete them over the union alphabet, BFS the
/// product.
#[derive(Clone, Debug)]
pub struct InclusionCost {
    /// Bracket of the `dfa.subset_states` the check adds (both sides).
    pub subset_states: Bounds,
    /// Bracket of the `dfa.subset_transitions` the check adds.
    pub subset_steps: Bounds,
    /// Bracket of `equiv.bfs_states` (pairs popped) with no assumption on
    /// the verdict — a counterexample on the start pair can stop the BFS
    /// after a single pop.
    pub bfs_states: Bounds,
    /// Bracket of `equiv.bfs_transitions` with no assumption on the
    /// verdict.
    pub bfs_steps: Bounds,
    /// Bracket of `equiv.bfs_states` when the inclusion *holds*: the BFS
    /// exhausts every reachable pair, so the pairs along either side's
    /// shortest accepted word are all popped.
    pub bfs_states_if_included: Bounds,
    /// Bracket of `equiv.bfs_transitions` when the inclusion holds —
    /// exactly `pairs popped × |Σ_a ∪ Σ_b|` on both ends.
    pub bfs_steps_if_included: Bounds,
}

/// Brackets an `included(a, b)` run from the two NFAs' structure.
pub fn inclusion_cost(a: &Nfa, b: &Nfa) -> InclusionCost {
    let ma = a.metrics();
    let mb = b.metrics();
    let sa = content_nfa_states(&ma);
    let sb = content_nfa_states(&mb);
    let width = ma.alphabet.union(&mb.alphabet).len() as u64;
    // Completion adds at most one sink state per side.
    let pairs_upper = sa.upper.saturating_add(1).saturating_mul(sb.upper.saturating_add(1));
    let pairs_lower_included = ma
        .min_word_len
        .into_iter()
        .chain(mb.min_word_len)
        .max()
        .map_or(1, |len| (len as u64).saturating_add(1));
    let subset_states = sa.plus(sb);
    let subset_steps = sa
        .times(ma.alphabet.len() as u64)
        .plus(sb.times(mb.alphabet.len() as u64));
    let included_states = Bounds::new(pairs_lower_included.min(pairs_upper), pairs_upper);
    InclusionCost {
        subset_states,
        subset_steps,
        bfs_states: Bounds::new(1, pairs_upper),
        bfs_steps: Bounds::new(0, pairs_upper.saturating_mul(width)),
        bfs_states_if_included: included_states,
        bfs_steps_if_included: included_states.times(width),
    }
}

/// Subset-state bracket from bare metrics (shared by the two sides of
/// [`inclusion_cost`]; same maths as [`content_model_cost`]).
fn content_nfa_states(m: &NfaMetrics) -> Bounds {
    let lower = match m.min_word_len {
        Some(len) => (len as u64).saturating_add(1),
        None => 1,
    };
    let upper = pow2_minus1(m.states).max(lower);
    Bounds::new(lower, upper)
}

// ---------------------------------------------------------------------
// Schema- and design-level composition
// ---------------------------------------------------------------------

/// The summed determinisation cost of one schema's content models.
#[derive(Clone, Debug)]
pub struct SchemaCost {
    /// Per-rule costs with human-readable locations (`element `a`` /
    /// `specialisation `x``), in rule order.
    pub rules: Vec<(String, ContentModelCost)>,
    /// Bracket of the total `dfa.subset_states` of determinising every
    /// content model once (the memoised cold path).
    pub subset_states: Bounds,
    /// Bracket of the matching total `dfa.subset_transitions`.
    pub subset_steps: Bounds,
}

impl SchemaCost {
    fn from_rules(rules: Vec<(String, ContentModelCost)>) -> SchemaCost {
        let mut subset_states = Bounds::exact(0);
        let mut subset_steps = Bounds::exact(0);
        for (_, cost) in &rules {
            subset_states = subset_states.plus(cost.subset_states);
            subset_steps = subset_steps.plus(cost.subset_steps);
        }
        SchemaCost { rules, subset_states, subset_steps }
    }

    /// The rules whose detected suffix-counting lower bound crosses
    /// [`EXPONENTIAL_THRESHOLD`] — the `DX014` set.
    pub fn exponential(&self) -> impl Iterator<Item = (&str, &SuffixCounting)> {
        self.rules.iter().filter_map(|(loc, cost)| {
            cost.suffix_counting
                .as_ref()
                .filter(|sc| sc.dfa_lower_bound >= EXPONENTIAL_THRESHOLD)
                .map(|sc| (loc.as_str(), sc))
        })
    }
}

/// Brackets the content-model determinisation cost of an `R-DTD`.
pub fn dtd_cost(dtd: &RDtd) -> SchemaCost {
    SchemaCost::from_rules(
        dtd.rules()
            .map(|(name, spec)| (format!("element `{name}`"), content_model_cost(spec)))
            .collect(),
    )
}

/// Brackets the content-model determinisation cost of an `R-EDTD`.
pub fn edtd_cost(e: &REdtd) -> SchemaCost {
    SchemaCost::from_rules(
        e.rules()
            .map(|(name, spec)| (format!("specialisation `{name}`"), content_model_cost(spec)))
            .collect(),
    )
}

/// The location whose predicted upper bound dominates a design's total.
#[derive(Clone, Debug)]
pub struct Dominant {
    /// The dominating content model's location (diagnostic style).
    pub location: String,
    /// Its predicted upper state bound.
    pub upper: u64,
    /// The design's total predicted upper state bound.
    pub total_upper: u64,
}

/// The composed cost model of a whole design problem: what a cold
/// `verify_local`/`typecheck` run would charge against a [`Budget`].
#[derive(Clone, Debug)]
pub struct DesignCost {
    /// The target schema's per-rule costs.
    pub target: SchemaCost,
    /// Each function schema's costs, keyed `schema of function `f``.
    pub functions: Vec<(String, SchemaCost)>,
    /// Bracket of the determinised tree-target (`Duta`) state count —
    /// subsets of the one-state-per-specialised-name `Nuta`.
    pub duta_states: Bounds,
    /// Bracket of the total states a covering cold run grows. The lower
    /// end counts only the *guaranteed* work — one memoised
    /// determinisation per target rule — so a state quota of
    /// `states.lower − 1` provably trips on any document exercising every
    /// rule.
    pub states: Bounds,
    /// Bracket of the total governed steps (subset scans, BFS edge scans,
    /// residual walks) a covering cold run charges.
    pub steps: Bounds,
    /// Bracket of `equiv.bfs_states` per local-check inclusion, under the
    /// self-inclusion approximation of the realizable language (coarse —
    /// reported, not calibrated at design level).
    pub bfs_states: Bounds,
    /// Matching bracket of `equiv.bfs_transitions` (coarse).
    pub bfs_steps: Bounds,
    /// Coarse bracket of the universal-residual walk steps of a
    /// `perfect_schema` run: each walk scans at most the determinised
    /// states times the union alphabet.
    pub residual_steps: Bounds,
    /// Coarse bracket of the Section-7 per-function `D`-fixpoint
    /// iterations (exactly 0 for DTD-target designs; each Kleene round
    /// on a box design grows a monotone set over the specialised names).
    pub fixpoint_iters: Bounds,
    /// The dominating location, when one content model accounts for at
    /// least half of the design's predicted upper state bound.
    pub dominant: Option<Dominant>,
}

impl DesignCost {
    fn compose(
        target: SchemaCost,
        functions: Vec<(String, SchemaCost)>,
        nuta_states: usize,
        fixpoint_iters: Bounds,
    ) -> DesignCost {
        let duta_states = Bounds::new(1, pow2_minus1(nuta_states).max(1));
        // Guaranteed floor: each target rule's content DFA is memoised and
        // built once a node with that label is checked, so a covering
        // document forces at least the per-rule lowers. Function-schema
        // and duta states also count against the same budget but are not
        // part of the floor (their exercise depends on the document).
        let states_lower = target.subset_states.lower.max(1);
        let mut states_upper = duta_states
            .upper
            .saturating_add(target.subset_states.upper);
        let steps_lower = target.subset_steps.lower;
        let mut steps_upper = target
            .subset_steps
            .upper
            // Coarse duta-determinisation step term: per subset state one
            // scan over the label alphabet.
            .saturating_add(duta_states.upper.saturating_mul(nuta_states as u64 + 1));
        let mut bfs_states = Bounds::exact(0);
        let mut bfs_steps = Bounds::exact(0);
        for (_, cost) in &target.rules {
            let width = cost.metrics.alphabet.len() as u64;
            let pairs = cost
                .subset_states
                .upper
                .saturating_add(1)
                .saturating_mul(cost.subset_states.upper.saturating_add(1));
            bfs_states = bfs_states.plus(Bounds::new(0, pairs));
            bfs_steps = bfs_steps.plus(Bounds::new(0, pairs.saturating_mul(width)));
        }
        for (_, schema) in &functions {
            states_upper = states_upper.saturating_add(schema.subset_states.upper);
            steps_upper = steps_upper.saturating_add(schema.subset_steps.upper);
        }
        steps_upper = steps_upper.saturating_add(bfs_steps.upper);
        let residual_steps = Bounds::new(0, states_upper.saturating_mul(nuta_states as u64 + 1));
        steps_upper = steps_upper.saturating_add(residual_steps.upper);
        let states = Bounds::new(states_lower, states_upper.max(states_lower));
        let steps = Bounds::new(steps_lower, steps_upper.max(steps_lower));
        let dominant = {
            let all = target
                .rules
                .iter()
                .map(|(loc, c)| (loc.clone(), c.subset_states.upper))
                .chain(functions.iter().flat_map(|(f, schema)| {
                    schema
                        .rules
                        .iter()
                        .map(move |(loc, c)| (format!("{f}: {loc}"), c.subset_states.upper))
                }));
            let mut total: u64 = 0;
            let mut top: Option<(String, u64)> = None;
            for (loc, upper) in all {
                total = total.saturating_add(upper);
                if top.as_ref().map_or(true, |(_, best)| upper > *best) {
                    top = Some((loc, upper));
                }
            }
            top.filter(|(_, upper)| total > 0 && *upper >= total.div_ceil(2))
                .map(|(location, upper)| Dominant { location, upper, total_upper: total })
        };
        DesignCost {
            target,
            functions,
            duta_states,
            states,
            steps,
            bfs_states,
            bfs_steps,
            residual_steps,
            fixpoint_iters,
            dominant,
        }
    }
}

/// Composes the design-level cost model of a DTD-target design problem.
pub fn design_cost(problem: &DesignProblem) -> DesignCost {
    let target = dtd_cost(problem.doc_schema());
    let functions: Vec<(String, SchemaCost)> = problem
        .fun_schemas()
        .iter()
        .map(|(f, schema)| (format!("schema of function `{f}`"), dtd_cost(schema)))
        .collect();
    let nuta_states = problem.doc_schema().alphabet().len();
    DesignCost::compose(target, functions, nuta_states, Bounds::exact(0))
}

/// Composes the design-level cost model of a box (R-EDTD-target) design
/// problem, including the Section-7 fixpoint term.
pub fn box_design_cost(problem: &BoxDesignProblem) -> DesignCost {
    let target = edtd_cost(problem.doc_schema());
    let functions: Vec<(String, SchemaCost)> = problem
        .fun_schemas()
        .iter()
        .map(|(f, schema)| (format!("schema of function `{f}`"), edtd_cost(schema)))
        .collect();
    let spec_names = problem.doc_schema().specialized_names().len();
    let n_funs = functions.len() as u64;
    let fixpoint = Bounds::new(
        n_funs.min(1),
        n_funs.saturating_mul(spec_names as u64 + 1).max(n_funs.min(1)),
    );
    DesignCost::compose(target, functions, spec_names, fixpoint)
}

// ---------------------------------------------------------------------
// Budget synthesis
// ---------------------------------------------------------------------

fn scale(v: u64, headroom: f64) -> u64 {
    if v == u64::MAX {
        return u64::MAX;
    }
    let x = (v as f64) * headroom;
    if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x as u64
    }
}

/// One quota from one bracket: `upper × headroom + BASE_SLACK` for
/// positive headroom (admission), `lower − 1` for headroom `≤ 0`
/// (guaranteed trip on a covering run).
fn quota(b: Bounds, headroom: f64) -> u64 {
    if headroom <= 0.0 {
        b.lower.saturating_sub(1)
    } else {
        scale(b.upper, headroom).saturating_add(BASE_SLACK)
    }
}

/// The `(state quota, step quota)` pair [`budget_from_cost`] would
/// install — exposed separately so the `DX015` advisory can print the
/// numbers it recommends.
pub fn recommended_quotas(cost: &DesignCost, headroom: f64) -> (u64, u64) {
    (quota(cost.states, headroom), quota(cost.steps, headroom))
}

/// Turns a composed [`DesignCost`] into a concrete [`Budget`] with
/// step/state quotas. Shared by the DTD and box routes.
pub fn budget_from_cost(cost: &DesignCost, headroom: f64) -> Budget {
    let (states, steps) = recommended_quotas(cost, headroom);
    Budget::unlimited().with_state_quota(states).with_step_quota(steps)
}

/// Recommends a [`Budget`] admitting this design with
/// [`DEFAULT_HEADROOM`]: every run the cost model covers fits, and a
/// schema that *cannot* fit is better surfaced by `DX014`/`DX015` than by
/// an unbounded determinisation.
pub fn recommend_budget(problem: &DesignProblem) -> Budget {
    recommend_budget_with_headroom(problem, DEFAULT_HEADROOM)
}

/// [`recommend_budget`] with an explicit headroom factor. Headroom `≤ 0`
/// synthesises the *trip* budget (`lower − 1` quotas), the shape the
/// fuzz smoke-test uses to prove predictions bind.
pub fn recommend_budget_with_headroom(problem: &DesignProblem, headroom: f64) -> Budget {
    budget_from_cost(&design_cost(problem), headroom)
}

/// Box-problem analogue of [`recommend_budget`].
pub fn recommend_box_budget(problem: &BoxDesignProblem) -> Budget {
    recommend_box_budget_with_headroom(problem, DEFAULT_HEADROOM)
}

/// Box-problem analogue of [`recommend_budget_with_headroom`].
pub fn recommend_box_budget_with_headroom(problem: &BoxDesignProblem, headroom: f64) -> Budget {
    budget_from_cost(&box_design_cost(problem), headroom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::{Dfa, RFormalism};

    fn re(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    #[test]
    fn bounds_arithmetic_saturates() {
        let b = Bounds::new(2, 5);
        assert!(b.contains(2) && b.contains(5) && !b.contains(6));
        assert_eq!(b.plus(Bounds::exact(1)), Bounds::new(3, 6));
        assert_eq!(Bounds::new(1, u64::MAX).plus(b).upper, u64::MAX);
        assert_eq!(b.times(3), Bounds::new(6, 15));
        assert_eq!(format!("{}", Bounds::exact(4)), "4");
        assert_eq!(format!("{}", Bounds::new(2, 8)), "[2 … 8]");
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_panic() {
        let _ = Bounds::new(3, 2);
    }

    #[test]
    fn pow2_minus1_saturates() {
        assert_eq!(pow2_minus1(0), 0);
        assert_eq!(pow2_minus1(3), 7);
        assert_eq!(pow2_minus1(63), (1u64 << 63) - 1);
        assert_eq!(pow2_minus1(64), u64::MAX);
        assert_eq!(pow2_minus1(200), u64::MAX);
    }

    #[test]
    fn suffix_counting_detects_the_canonical_family() {
        for n in 1..=8usize {
            let tail = " (a | b)".repeat(n - 1);
            let sc = suffix_counting(&re(&format!("(a | b)* a{tail}"))).unwrap();
            assert_eq!(sc.window as usize, n);
            assert_eq!(sc.dfa_lower_bound, 1u64 << n);
            assert_eq!(sc.accepted.len(), n);
            assert_eq!(sc.rejected.len(), n);
            // The witnesses really are decided the way the bound claims.
            let family = re(&format!("(a | b)* a{tail}"));
            assert!(family.accepts(&sc.accepted), "n={n}");
            assert!(!family.accepts(&sc.rejected), "n={n}");
        }
    }

    #[test]
    fn suffix_counting_survives_wider_windows() {
        // Tail letters may range over more than {pivot, filler}.
        let sc = suffix_counting(&re("(a | b | c)* a (a | b | c)")).unwrap();
        assert_eq!(sc.dfa_lower_bound, 4);
        // But a tail slot missing the pivot or every filler breaks the
        // window argument, so detection must refuse.
        assert!(suffix_counting(&re("(a | b)* a b")).is_none());
        assert!(suffix_counting(&re("(a | b)* a c")).is_none());
    }

    #[test]
    fn suffix_counting_rejects_benign_shapes() {
        assert!(suffix_counting(&re("b* a")).is_none(), "star body too narrow");
        assert!(suffix_counting(&re("(a | b)+ a")).is_none(), "plus is not star");
        assert!(suffix_counting(&re("(a b)* a")).is_none(), "body not width 1");
        assert!(suffix_counting(&re("(a | b)* c")).is_none(), "pivot outside body");
        assert!(suffix_counting(&re("a (a | b)*")).is_none(), "star not leading");
        assert!(suffix_counting(&re("(a | b)*")).is_none(), "no pivot");
    }

    #[test]
    fn content_model_bounds_bracket_the_real_subset_construction() {
        for expr in ["a, b?", "(b* a)+", "(a | b)* a", "(a | b)* a (a | b) (a | b)", "ε", "∅"] {
            let spec = RSpec::Nre(re(expr));
            let cost = content_model_cost(&spec);
            let dfa = Dfa::from_nfa(&spec.to_nfa());
            let actual = dfa.num_states() as u64;
            assert!(
                cost.subset_states.contains(actual),
                "{expr}: actual {actual} outside {}",
                cost.subset_states
            );
            assert_eq!(
                cost.subset_steps,
                cost.subset_states.times(cost.metrics.alphabet.len() as u64),
            );
        }
    }

    #[test]
    fn deterministic_specs_get_linear_uppers() {
        let dfa = Dfa::from_nfa(&re("(b* a)+").to_nfa());
        let n = dfa.num_states() as u64;
        let cost = content_model_cost(&RSpec::Dfa(dfa));
        assert!(cost.subset_states.upper <= n, "{} > {n}", cost.subset_states.upper);
        assert!(cost.star_height.is_none());
    }

    #[test]
    fn star_height_counts_orbits() {
        assert_eq!(star_height(&re("a, b?")), 0);
        assert_eq!(star_height(&re("(b* a)+")), 2);
        assert_eq!(star_height(&re("(a | b)* a")), 1);
    }

    #[test]
    fn inclusion_cost_brackets_are_coherent() {
        let a = re("(a | b)* a").to_nfa();
        let cost = inclusion_cost(&a, &a);
        assert!(cost.bfs_states.lower <= cost.bfs_states_if_included.lower);
        assert!(cost.bfs_states_if_included.lower >= 2, "minlen 1 forces 2 pops");
        assert!(cost.bfs_states_if_included.upper <= cost.bfs_states.upper.saturating_add(1));
        assert_eq!(
            cost.bfs_steps_if_included.upper,
            cost.bfs_states_if_included.upper.saturating_mul(2),
        );
    }

    #[test]
    fn design_cost_floors_on_the_target_rules() {
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a, b?\na -> b*").unwrap();
        let problem = DesignProblem::new(dtd);
        let cost = design_cost(&problem);
        assert!(cost.states.lower >= 2, "two non-empty rules force ≥ 2 states each");
        assert!(cost.states.lower <= cost.states.upper);
        assert!(cost.steps.lower <= cost.steps.upper);
        assert_eq!(cost.fixpoint_iters, Bounds::exact(0));
    }

    #[test]
    fn dominant_location_is_flagged() {
        let mut dtd = RDtd::parse(RFormalism::Nre, "s -> a?").unwrap();
        dtd.set_rule(
            "a",
            RSpec::Nre(re("(a | b)* a (a | b) (a | b) (a | b) (a | b) (a | b)")),
        );
        let cost = design_cost(&DesignProblem::new(dtd));
        let dom = cost.dominant.expect("the adversarial rule dominates");
        assert!(dom.location.contains("element `a`"), "{}", dom.location);
        assert!(dom.upper * 2 >= dom.total_upper);
    }

    #[test]
    fn budgets_trip_at_zero_headroom_and_admit_with_headroom() {
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a, b?\na -> b*").unwrap();
        let problem = DesignProblem::new(dtd);
        let cost = design_cost(&problem);
        let trip = budget_from_cost(&cost, 0.0);
        let admit = budget_from_cost(&cost, DEFAULT_HEADROOM);
        // The trip budget's state quota sits strictly below the floor;
        // the admission quota sits above the upper bound.
        assert!(trip.grow_states(cost.states.lower).is_err());
        assert!(admit.grow_states(cost.states.upper).is_ok());
    }
}
