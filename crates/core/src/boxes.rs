//! The design engine: typing verification and perfect typing for **R-EDTD
//! targets** (Section 7).
//!
//! Section 7 of the paper lifts every design problem to full R-EDTD targets
//! (unranked regular tree languages) by reducing the tree problems to string
//! problems whose constant parts are *boxes* `B(fn)` ([`BoxLang`],
//! Definition 21): with the target in the normal form of Lemma 4.10 —
//! operationally, its bottom-up **determinised** specialised automaton —
//! every kernel subtree evaluates to a unique subset of specialised names, so
//! a sequence of fixed kernel children contributes a box `Σ1 Σ2 … Σn` of
//! specialised names, and every docking point contributes a regular gap
//! language over the same specialised alphabet.
//!
//! A DTD is the R-EDTD in which every name is its own specialisation, so
//! this module is the only tree route of the crate: [`crate::DesignProblem`]
//! is a DTD front end that holds its trivial-EDTD embedding (the
//! [`From<&DesignProblem>`](BoxDesignProblem::from) image) and typechecks
//! through it.
//!
//! [`BoxDesignProblem`] packages an [`REdtd`] target with one [`REdtd`]
//! schema per function and offers three decision procedures:
//!
//! * [`BoxDesignProblem::typecheck`] — the ground-truth tree-automaton
//!   route: the extension automaton ([`BoxDesignProblem::extension_nuta`])
//!   vs. the determinised target, with a full counterexample document on
//!   failure;
//! * [`BoxDesignProblem::verify_local`] — the Section-7 string route: a
//!   single bottom-up pass over the kernel computing, per node, the set of
//!   achievable subset states from the words-with-box-gaps language of its
//!   children (Moore-machine image, [`Duta::outputs_over`]); sound **and**
//!   complete because the determinised run is unique, with the offending
//!   realizable child word reported as a box;
//! * [`BoxDesignProblem::perfect_schema`] — perfect typing for EDTD
//!   targets: the admissible gap language is propagated top-down along the
//!   spine from the root to the docking parent by universal context
//!   residuals over the per-label Moore machines, and the resulting maximal
//!   schema is itself an [`REdtd`] (one specialised name per inhabited
//!   `(label, subset state)` pair) — which a DTD could not express. The
//!   candidate is confirmed by the [`BoxDesignProblem::typecheck`] oracle in
//!   the refute-and-refine style of [`crate::perfect`].
//!
//! The artefacts are cached by what they depend on. The determinised target
//! (with its accepting set and Moore-machine DFA memo) depends only on the
//! target schema: it is built once and shared by `Arc` across clones, so a
//! problem, its copies with more functions and the DTD front end over the
//! same schema all reuse one automaton. The per-function gap languages are
//! built on the first [`BoxDesignProblem::verify_local`] or
//! [`BoxDesignProblem::perfect_schema`] and dropped by
//! [`BoxDesignProblem::add_function`]; `typecheck` never builds them. The
//! extension automata are memoised per document in a FIFO that clones share
//! until one of them is mutated.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dxml_automata::{
    AutomataError, BoxLang, Budget, Dfa, Nfa, RFormalism, RSpec, StateSet, Symbol,
};
use dxml_schema::{REdtd, SchemaError};
use dxml_telemetry as telemetry;
use dxml_tree::uta::Duta;
use dxml_tree::{uta, NodeId, Nuta, XTree};

use crate::design::{CacheStats, Origin, ResidualDfaCache, TypingVerdict};
use crate::doc::DistributedDoc;
use crate::error::DesignError;
use crate::perfect::fresh_start;

/// How many `(document, extension automaton)` pairs a problem memoises —
/// enough for the few documents a problem is typically checked against
/// back-to-back, small enough that stale documents do not accumulate.
pub(crate) const EXT_CACHE_CAP: usize = 4;

/// The symbol standing for the determinised target's subset state `i` in
/// the string languages of the reduction (`#` cannot occur in parsed
/// element names, so these never collide with real labels).
fn state_sym(i: usize) -> Symbol {
    Symbol::new(format!("#s{i}"))
}

/// The inverse of [`state_sym`].
fn letter_of(sym: &Symbol) -> Option<usize> {
    sym.as_str().strip_prefix("#s").and_then(|t| t.parse().ok())
}

/// An NFA accepting exactly the single-symbol words of a subset-state set
/// (one box slot of the reduction).
fn state_set_nfa(states: &StateSet) -> Nfa {
    Nfa::any_of(states.iter().map(state_sym))
}

/// The deterministic *skeleton* of a per-label Moore machine over
/// subset-state symbols: its transitions, no final states. The machine is
/// deterministic by construction, so this is already a [`Dfa`] — the
/// residual constructions consume it directly, with the per-call admissible
/// outputs marked final on a clone (see [`TargetAutomaton::machine_dfa`]).
fn machine_skeleton(duta: &Duta, label: &Symbol) -> Dfa {
    let machine = match duta.machine(label) {
        Some(m) => m,
        None => return Dfa::new(1, 0),
    };
    let mut dfa = Dfa::new(machine.num_configs(), machine.start());
    for (config, letter, next) in machine.transitions() {
        dfa.set_transition(config, state_sym(letter), next);
    }
    dfa
}

// ----------------------------------------------------------------------
// Cached artefacts
// ----------------------------------------------------------------------

/// The determinised target and what derives from it alone. It depends only
/// on the target schema, so every clone of a problem shares one (behind an
/// `Arc`) until [`BoxDesignProblem::set_doc_schema`] replaces the target.
#[derive(Debug)]
pub(crate) struct TargetAutomaton {
    duta: Duta,
    accepting: StateSet,
    empty_subset: Option<usize>,
    /// Determinised per-label Moore-machine skeletons, keyed by label —
    /// the residual inputs of the spine walk, built at most once per label.
    machine_dfas: ResidualDfaCache,
}

impl TargetAutomaton {
    /// Governed build: the determinisation charges `budget`, and a trip
    /// returns before anything is cached.
    fn build(target: &REdtd, budget: &Budget) -> Result<TargetAutomaton, AutomataError> {
        let _span = telemetry::span(telemetry::SpanKind::BoxTargetCacheBuild);
        telemetry::count(telemetry::Metric::BoxTargetCacheBuilds, 1);
        let duta = target.to_nuta().determinize_with_budget(&target.labels(), budget)?;
        let accepting = StateSet::from_iter(duta.num_states(), duta.accepting_states());
        let empty_subset = duta.empty_subset();
        Ok(TargetAutomaton {
            duta,
            accepting,
            empty_subset,
            machine_dfas: ResidualDfaCache::default(),
        })
    }

    /// The determinised skeleton of `label`'s Moore machine (transitions
    /// over subset-state symbols, no finals), memoised per target. Callers
    /// clone it and mark their admissible outputs final — the clone is
    /// cheap next to the subset construction it replaces.
    fn machine_dfa(&self, label: &Symbol) -> Arc<Dfa> {
        self.machine_dfas.get_or_build(label, || machine_skeleton(&self.duta, label))
    }

    /// The language of child words whose Moore output under `label` lies in
    /// `outputs`, as a DFA over subset-state symbols: the memoised skeleton
    /// with the admissible configurations marked final.
    fn admissible_children_dfa(&self, label: &Symbol, outputs: &StateSet) -> Dfa {
        let mut dfa = (*self.machine_dfa(label)).clone();
        if let Some(machine) = self.duta.machine(label) {
            for config in 0..machine.num_configs() {
                if outputs.contains(machine.output(config)) {
                    dfa.set_final(config);
                }
            }
        }
        dfa
    }

    /// Renders a witness word over subset-state symbols as a box of
    /// specialised-name sets.
    fn box_of(&self, witness: &[Symbol]) -> BoxLang {
        let mut b = BoxLang::epsilon();
        for sym in witness {
            match letter_of(sym) {
                Some(i) => b.push_slot(self.duta.subset(i).iter().cloned()),
                None => b.push_slot(Vec::<Symbol>::new()),
            }
        }
        b
    }
}
/// Per-function artefacts of the box reduction: which trees the function can
/// realize, expressed in the determinised target's subset states.
#[derive(Clone, Debug)]
struct FunArtifacts {
    /// The gap language: the exact image of the function's forest language
    /// under the tree → subset-state evaluation, as an NFA over
    /// [`state_sym`] symbols.
    forest_states: Nfa,
    /// Whether the function can return no document at all (empty schema
    /// language — the design is vacuous).
    forest_empty: bool,
    /// A realizable element label unknown to the target, if any (every
    /// extension is then invalid no matter the kernel).
    unknown: Option<Symbol>,
}

impl FunArtifacts {
    fn build(schema: &REdtd, duta: &Duta, budget: &Budget) -> Result<FunArtifacts, AutomataError> {
        let nuta = schema.to_nuta();
        let inhabited = nuta.inhabited_witnesses();
        let restrict =
            |nfa: Nfa| nfa.filter_symbols(|s| inhabited.contains_key(s)).trim();
        // Realizable specialised names: reachable from the start content
        // through content models restricted to inhabited names — after the
        // restriction every remaining transition lies on a realizable word,
        // so reachability is occurrence-exact (the analogue of
        // `RDtd::reduce`).
        let forest_restricted = restrict(schema.content(schema.start()).to_nfa());
        let mut realizable: BTreeSet<Symbol> = forest_restricted.alphabet().iter().cloned().collect();
        let mut contents: BTreeMap<Symbol, Nfa> = BTreeMap::new();
        let mut queue: VecDeque<Symbol> = realizable.iter().cloned().collect();
        while let Some(spec) = queue.pop_front() {
            let content = restrict(schema.content(&spec).to_nfa());
            for next in content.alphabet().iter() {
                if realizable.insert(*next) {
                    queue.push_back(*next);
                }
            }
            contents.insert(spec, content);
        }
        let forest_empty = forest_restricted.is_empty();
        let label_of = |spec: &Symbol| {
            schema.label_of(spec).cloned().unwrap_or(*spec)
        };
        let unknown = realizable
            .iter()
            .map(&label_of)
            .find(|label| !duta.labels().contains(label));

        // Least fixpoint: `d[ã]` = the subset states achievable by trees
        // derivable from ã. Exact by induction — independent subtrees make
        // independent state choices, so the image of a content word is the
        // full product of the per-name sets. The slot map (ã → its states
        // as symbols) is the same data seen by `expand_symbols`; it grows
        // monotonically with `d`, so it is maintained incrementally instead
        // of being rebuilt from `d` on every fixpoint iteration.
        let universe = duta.num_states();
        let mut d: BTreeMap<Symbol, StateSet> =
            realizable.iter().map(|s| (*s, StateSet::empty(universe))).collect();
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> =
            realizable.iter().map(|s| (*s, BTreeSet::new())).collect();
        if unknown.is_none() && !forest_empty {
            loop {
                let mut changed = false;
                for spec in &realizable {
                    budget.step()?;
                    let word_lang = contents[spec].expand_symbols(&slots);
                    let outs =
                        duta.outputs_over_with_budget(&label_of(spec), &word_lang, letter_of, budget)?;
                    let entry = d.get_mut(spec).expect("d covers every realizable name");
                    let slot = slots.get_mut(spec).expect("slots covers every realizable name");
                    for &o in outs.keys() {
                        if entry.insert(o) {
                            slot.insert(state_sym(o));
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        let forest_states = forest_restricted.expand_symbols(&slots).trim();
        Ok(FunArtifacts { forest_states, forest_empty, unknown })
    }
}

/// Builds the per-function artefacts, fanning the independent fixpoints out
/// over [`std::thread::scope`] workers. Each function's `D`-fixpoint only
/// reads the shared determinised target, so the builds are embarrassingly
/// parallel; the offline (per-problem, once) cost dominates cold decisions
/// on many-function designs. Work is handed out through an atomic cursor so
/// an expensive schema does not serialise the cheap ones behind it, and the
/// results land in a `BTreeMap`, making the output independent of
/// completion order.
///
/// A budget trip in one worker stops that worker after its current build;
/// the shared budget makes every sibling trip at its own next check, and the
/// first trip is what the caller sees. A genuine panic in a worker is
/// re-raised on the calling thread with its original payload.
fn build_fun_artifacts(
    fun_schemas: &BTreeMap<Symbol, REdtd>,
    duta: &Duta,
    budget: &Budget,
) -> Result<BTreeMap<Symbol, FunArtifacts>, AutomataError> {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(fun_schemas.len());
    if workers <= 1 {
        return fun_schemas
            .iter()
            .map(|(f, schema)| FunArtifacts::build(schema, duta, budget).map(|a| (*f, a)))
            .collect();
    }
    let entries: Vec<(&Symbol, &REdtd)> = fun_schemas.iter().collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut built = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(f, schema)) = entries.get(i) else { break };
                        let artifacts = FunArtifacts::build(schema, duta, budget);
                        let tripped = artifacts.is_err();
                        built.push((*f, artifacts));
                        if tripped {
                            break;
                        }
                    }
                    built
                })
            })
            .collect();
        let mut out = BTreeMap::new();
        let mut first_trip: Option<AutomataError> = None;
        for handle in handles {
            match handle.join() {
                Ok(built) => {
                    for (f, artifacts) in built {
                        match artifacts {
                            Ok(a) => {
                                out.insert(f, a);
                            }
                            Err(e) => {
                                if first_trip.is_none() {
                                    first_trip = Some(e);
                                }
                            }
                        }
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        first_trip.map_or(Ok(out), Err)
    })
}

/// Every artefact the decisions of a [`BoxDesignProblem`] use: the
/// determinised specialised target (shared by the problem's clones) and the
/// per-function gap languages (the problem's own). Returned by
/// [`BoxDesignProblem::target_cache`].
#[derive(Clone, Copy, Debug)]
pub struct BoxTargetCache<'a> {
    target: &'a TargetAutomaton,
    funs: &'a BTreeMap<Symbol, FunArtifacts>,
}

impl<'a> BoxTargetCache<'a> {
    /// The target's specialised tree automaton, determinised (bottom-up)
    /// over the target's label universe. Its subset states are the slots of
    /// the kernel boxes.
    pub fn duta(&self) -> &'a Duta {
        &self.target.duta
    }

    /// The gap language of a declared function: the exact image of its
    /// forest language under tree → subset-state evaluation, over
    /// `#s<i>` state symbols. Exposed so tests and benches can pin that
    /// repeated decisions reuse it.
    pub fn forest_states(&self, function: &Symbol) -> Option<&'a Nfa> {
        self.funs.get(function).map(|fa| &fa.forest_states)
    }
}

/// The child words a run of kernel children contributes to its parent: each
/// docking point its gap language, every other child the one-letter slot of
/// its achievable subset states.
fn children_word(
    doc: &DistributedDoc,
    funs: &BTreeMap<Symbol, FunArtifacts>,
    achievable: &[StateSet],
    children: &[NodeId],
) -> Nfa {
    children.iter().fold(Nfa::epsilon(), |acc, &c| {
        let label = doc.kernel().label(c);
        let piece = match funs.get(label) {
            Some(fa) if doc.is_function(label) => fa.forest_states.clone(),
            _ => state_set_nfa(&achievable[c]),
        };
        acc.concat(&piece)
    })
}

/// FIFO memo of extension automata keyed by the document, with the hit and
/// miss counts behind [`BoxDesignProblem::cache_stats`] (mirrored into the
/// global `design.ext_memo_*` telemetry counters).
#[derive(Default)]
struct ExtensionMemo {
    entries: Mutex<Vec<(DistributedDoc, Arc<Nuta>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ExtensionMemo {
    fn get_or_build(&self, doc: &DistributedDoc, make: impl FnOnce() -> Nuta) -> Arc<Nuta> {
        if let Ok(entries) = self.entries.lock() {
            if let Some((_, ext)) = entries.iter().find(|(d, _)| d == doc) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::count(telemetry::Metric::ExtMemoHits, 1);
                return Arc::clone(ext);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::count(telemetry::Metric::ExtMemoMisses, 1);
        let ext = Arc::new(make());
        if let Ok(mut entries) = self.entries.lock() {
            if entries.len() >= EXT_CACHE_CAP {
                entries.remove(0);
            }
            entries.push((doc.clone(), Arc::clone(&ext)));
        }
        ext
    }
}

// ----------------------------------------------------------------------
// Verdicts
// ----------------------------------------------------------------------

/// A violation found by the box (string-level) typing check of an EDTD
/// target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoxViolation {
    /// An element name can occur in some extension but is not part of the
    /// target's label universe.
    UnknownElement {
        /// The undeclared element name.
        element: Symbol,
        /// Where the element comes from.
        origin: Origin,
    },
    /// A realizable child word of `element` breaks the typing: rendered as
    /// a box whose slots are the exact sets of specialised types the
    /// children can take.
    Content {
        /// The element whose children break the typing.
        element: Symbol,
        /// A shortest realizable child word, as a box of specialised-name
        /// sets.
        counterexample: BoxLang,
        /// The specialised types the element still admits under that child
        /// word — empty when no typing exists at all; non-empty (at the
        /// root) when types exist but the start name is not among them.
        admitted: Vec<Symbol>,
        /// Where the bad word can be realised.
        origin: Origin,
    },
}

impl fmt::Display for BoxViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoxViolation::UnknownElement { element, origin } => {
                write!(f, "element `{element}` ({origin}) is not declared in the target schema")
            }
            BoxViolation::Content { element, counterexample, admitted, origin } => {
                if admitted.is_empty() {
                    write!(
                        f,
                        "children ⟨{counterexample}⟩ of `{element}` ({origin}) are realizable but \
                         admit no typing under the target"
                    )
                } else {
                    let names: Vec<&str> = admitted.iter().map(Symbol::as_str).collect();
                    write!(
                        f,
                        "children ⟨{counterexample}⟩ of `{element}` ({origin}) type the node as \
                         [{}], which does not include the start name",
                        names.join(", ")
                    )
                }
            }
        }
    }
}

/// The outcome of the box typing check.
#[derive(Clone, Debug)]
pub enum BoxVerdict {
    /// All achievable subset states are admissible; every extension
    /// validates against the EDTD target.
    Valid,
    /// A realizable violation exists.
    Invalid(BoxViolation),
}

impl BoxVerdict {
    /// Whether the verdict is [`BoxVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, BoxVerdict::Valid)
    }
}

// ----------------------------------------------------------------------
// The problem
// ----------------------------------------------------------------------

/// A typing-verification instance with an **R-EDTD target**: the target
/// schema `τ` plus one R-EDTD schema per function symbol. DTD problems
/// embed through [`From<&DesignProblem>`](BoxDesignProblem::from) with
/// trivial specialisations and produce the same verdicts.
///
/// Cloning shares the determinised target, which
/// [`BoxDesignProblem::add_function`] keeps and
/// [`BoxDesignProblem::set_doc_schema`] drops, and the extension memo,
/// which either mutation replaces.
#[derive(Clone)]
pub struct BoxDesignProblem {
    doc_schema: REdtd,
    fun_schemas: BTreeMap<Symbol, REdtd>,
    target: Arc<OnceLock<TargetAutomaton>>,
    gaps: OnceLock<BTreeMap<Symbol, FunArtifacts>>,
    ext_memo: Arc<ExtensionMemo>,
}

impl fmt::Debug for BoxDesignProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoxDesignProblem")
            .field("doc_schema", &self.doc_schema)
            .field("fun_schemas", &self.fun_schemas)
            .field("target_cache_ready", &self.target_cache_ready())
            .finish()
    }
}

impl BoxDesignProblem {
    /// Creates a box design problem with no function schemas.
    pub fn new(doc_schema: REdtd) -> BoxDesignProblem {
        BoxDesignProblem {
            doc_schema,
            fun_schemas: BTreeMap::new(),
            target: Arc::default(),
            gaps: OnceLock::new(),
            ext_memo: Arc::default(),
        }
    }

    /// Declares the R-EDTD schema of a function (builder style).
    pub fn with_function(mut self, function: impl Into<Symbol>, schema: REdtd) -> BoxDesignProblem {
        self.add_function(function, schema);
        self
    }

    /// Declares the R-EDTD schema of a function. The determinised target
    /// depends on the target schema alone and is kept; the gap languages
    /// and the memoised extension automata are dropped.
    pub fn add_function(&mut self, function: impl Into<Symbol>, schema: REdtd) {
        self.fun_schemas.insert(function.into(), schema);
        self.gaps = OnceLock::new();
        self.ext_memo = Arc::default();
    }

    /// The target document schema `τ`.
    pub fn doc_schema(&self) -> &REdtd {
        &self.doc_schema
    }

    /// Replaces the target schema, dropping every cached artefact (clones
    /// made earlier keep the old determinised target).
    pub fn set_doc_schema(&mut self, doc_schema: REdtd) {
        self.doc_schema = doc_schema;
        self.target = Arc::default();
        self.gaps = OnceLock::new();
        self.ext_memo = Arc::default();
    }

    /// The declared function schemas.
    pub fn fun_schemas(&self) -> &BTreeMap<Symbol, REdtd> {
        &self.fun_schemas
    }

    /// The schema of a function, if declared.
    pub fn fun_schema(&self, function: &Symbol) -> Option<&REdtd> {
        self.fun_schemas.get(function)
    }

    /// Every content model of the problem — the target schema's rules
    /// followed by each function schema's rules — paired with a stable
    /// human-readable location in the style of the `dxml-analysis`
    /// diagnostics (`target schema: specialisation `x``, `schema of
    /// function `f`: specialisation `y``). The budget-synthesis entry
    /// point of the box route: `dxml-analysis::cost` brackets the
    /// determinisation cost of exactly these models to recommend
    /// step/state quotas for the Section-7 constructions.
    pub fn content_models(&self) -> Vec<(String, RSpec)> {
        let mut out = Vec::new();
        for (name, spec) in self.doc_schema.rules() {
            out.push((format!("target schema: specialisation `{name}`"), spec.clone()));
        }
        for (f, schema) in &self.fun_schemas {
            for (name, spec) in schema.rules() {
                out.push((format!("schema of function `{f}`: specialisation `{name}`"), spec.clone()));
            }
        }
        out
    }

    /// Every artefact the problem's decisions use (the determinised
    /// specialised target and the per-function gap languages), built on the
    /// first call; later calls are free.
    ///
    /// # Panics
    ///
    /// Never: the unlimited budget cannot trip.
    pub fn target_cache(&self) -> BoxTargetCache<'_> {
        self.target_cache_with_budget(&Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed variant of [`BoxDesignProblem::target_cache`]: the cold
    /// builds (determinisation, then the per-function fixpoints) charge
    /// `budget`, and a trip propagates *without* initialising the tripped
    /// cell, so a retry with a larger budget rebuilds cleanly.
    pub fn target_cache_with_budget(
        &self,
        budget: &Budget,
    ) -> Result<BoxTargetCache<'_>, DesignError> {
        let target = self.shared_target(budget)?;
        let funs = match self.gaps.get() {
            Some(funs) => funs,
            None => {
                let _span = telemetry::span(telemetry::SpanKind::BoxTargetCacheBuild);
                telemetry::count(telemetry::Metric::BoxTargetCacheBuilds, 1);
                let built = build_fun_artifacts(&self.fun_schemas, &target.duta, budget)?;
                self.gaps.get_or_init(|| built)
            }
        };
        Ok(BoxTargetCache { target, funs })
    }

    /// The determinised target, built (charging `budget`) on first use and
    /// shared with every clone.
    pub(crate) fn shared_target(&self, budget: &Budget) -> Result<&TargetAutomaton, DesignError> {
        if let Some(target) = self.target.get() {
            return Ok(target);
        }
        let built = TargetAutomaton::build(&self.doc_schema, budget)?;
        Ok(self.target.get_or_init(|| built))
    }

    /// Whether the determinised target has been built (used by tests and
    /// benches to pin that repeated decisions do not re-determinise).
    pub fn target_cache_ready(&self) -> bool {
        self.target.get().is_some()
    }

    /// Point-in-time statistics of this problem's caches: whether the
    /// determinised target exists, the Moore-machine DFA memo's builds and
    /// hits, and the extension memo's hits and misses. Both memos count for
    /// every clone that shares them.
    pub fn cache_stats(&self) -> CacheStats {
        let (residual_dfa_builds, residual_dfa_hits) =
            self.target.get().map_or((0, 0), |target| target.machine_dfas.stats());
        CacheStats {
            target_cache_built: self.target_cache_ready(),
            residual_dfa_builds,
            residual_dfa_hits,
            ext_memo_hits: self.ext_memo.hits.load(Ordering::Relaxed),
            ext_memo_misses: self.ext_memo.misses.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Kernel boxes
    // ------------------------------------------------------------------

    /// The kernel box `B` of a node (Definition 21): one slot per child,
    /// each the exact set of specialised names the child's subtree can be
    /// typed as under the target. Defined for nodes whose children carry no
    /// docking point anywhere below them (and that are not docking points
    /// themselves); `None` otherwise. A child using a label unknown to the
    /// target contributes an empty slot (the box language is then empty).
    pub fn kernel_box(&self, doc: &DistributedDoc, node: NodeId) -> Option<BoxLang> {
        let kernel = doc.kernel();
        if doc.is_function(kernel.label(node)) {
            return None;
        }
        let duta = self.target_cache().duta();
        let mut b = BoxLang::epsilon();
        for &child in kernel.children(node) {
            let sub = kernel.subtree(child);
            if sub.document_order().iter().any(|&n| doc.is_function(sub.label(n))) {
                return None;
            }
            match duta.run(&sub) {
                Some(states) => b.push_slot(duta.subset(states[sub.root()]).iter().cloned()),
                None => b.push_slot(Vec::<Symbol>::new()),
            }
        }
        Some(b)
    }

    // ------------------------------------------------------------------
    // Typing verification — tree route
    // ------------------------------------------------------------------

    /// A [`Nuta`] recognising exactly the extensions of `doc`: the kernel
    /// with every docking point `f` replaced by a forest of trees valid
    /// under `τf`'s specialised rules, whose root-label word matches the
    /// content model of `τf`'s start name.
    ///
    /// States are `#k<i>` for kernel node `i` and `<f>$<x>` for specialised
    /// name `x` of function `f`'s schema (the `$`/`#` mangling cannot
    /// collide with parsed element names). Each call site expands
    /// independently, so the automaton over-approximates snapshot
    /// materialisation when the same function occurs twice — matching the
    /// paper, where every docking point is its own call.
    ///
    /// The automaton is memoised per document (FIFO of the last few
    /// documents): back-to-back decisions on the same document hand back
    /// the very same `Arc` without rebuilding. Declaring a function or
    /// replacing the target clears the memo.
    pub fn extension_nuta(&self, doc: &DistributedDoc) -> Result<Arc<Nuta>, DesignError> {
        doc.require_schemas(&self.fun_schemas)?;
        Ok(self.ext_memo.get_or_build(doc, || self.build_extension_nuta(doc)))
    }

    /// Builds the extension automaton (no memoisation; callers go through
    /// [`BoxDesignProblem::extension_nuta`]).
    fn build_extension_nuta(&self, doc: &DistributedDoc) -> Nuta {
        let kernel = doc.kernel();
        let mut a = Nuta::new();

        // Rules for the trees producible by each called function.
        let mut forest_nfas: BTreeMap<Symbol, Nfa> = BTreeMap::new();
        for f in doc.called_functions() {
            let schema = &self.fun_schemas[&f];
            let prefix = |name: &Symbol| Symbol::new(format!("{f}${name}"));
            for spec in schema.specialized_names().iter() {
                let content = schema.content(spec).to_nfa().map_symbols(prefix);
                let label = schema.label_of(spec).cloned().unwrap_or(*spec);
                a.set_rule(prefix(spec), label, content);
            }
            let forest = schema.content(schema.start()).to_nfa().map_symbols(prefix);
            forest_nfas.insert(f, forest);
        }

        // One state per kernel node; the content of a node concatenates its
        // children, with each docking point contributing its forest language.
        let state_of = |node: usize| Symbol::new(format!("#k{node}"));
        for node in kernel.document_order() {
            if doc.is_function(kernel.label(node)) {
                continue;
            }
            let mut content = Nfa::epsilon();
            for &child in kernel.children(node) {
                let piece = match forest_nfas.get(kernel.label(child)) {
                    Some(forest) => forest.clone(),
                    None => Nfa::symbol(state_of(child)),
                };
                content = content.concat(&piece);
            }
            a.set_rule(state_of(node), *kernel.label(node), content);
        }
        a.set_final(state_of(kernel.root()));
        a
    }

    /// Decides whether every extension of `doc` validates against the EDTD
    /// target, via tree-language inclusion of the extension automaton in
    /// the determinised specialised target. On failure the verdict carries
    /// a full counterexample document and the typing failure it triggers
    /// ([`REdtd::validate`]).
    pub fn typecheck(&self, doc: &DistributedDoc) -> Result<TypingVerdict, DesignError> {
        self.typecheck_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::typecheck`]: the
    /// determinisation of the target (on a cold cache), the extension
    /// determinisation and the product walk all charge `budget`, and a trip
    /// surfaces as [`DesignError::BudgetExceeded`] without poisoning the
    /// problem's caches.
    pub fn typecheck_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<TypingVerdict, DesignError> {
        self.typecheck_validated(doc, budget, |t| self.doc_schema.validate(t))
    }

    /// The tree route of every front end: inclusion of the extension
    /// automaton in the determinised target. A counterexample is explained
    /// by `validate`, the front end's own validation against its target.
    pub(crate) fn typecheck_validated(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
        validate: impl FnOnce(&XTree) -> Result<(), SchemaError>,
    ) -> Result<TypingVerdict, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::Typecheck);
        budget.check_interrupts()?;
        let ext = self.extension_nuta(doc)?;
        let target = self.shared_target(budget)?;
        match uta::included_in_duta_with_budget(&ext, &target.duta, budget)? {
            Ok(()) => Ok(TypingVerdict::Valid),
            Err(counterexample) => match validate(&counterexample) {
                Err(violation) => Ok(TypingVerdict::Invalid { counterexample, violation }),
                Ok(()) => Err(DesignError::InvariantViolation {
                    detail: format!(
                        "tree-inclusion counterexample `{counterexample}` unexpectedly \
                         validates against the target schema"
                    ),
                }),
            },
        }
    }

    // ------------------------------------------------------------------
    // Typing verification — box/string route
    // ------------------------------------------------------------------

    /// The Section-7 string route: typing verification without tree
    /// automata on the extension side. One bottom-up pass over the kernel
    /// computes, per node, the **exact** set of subset states its subtree
    /// can evaluate to — fixed children contribute box slots, docking
    /// points their gap languages — via the Moore-machine image
    /// [`Duta::outputs_over`]. Sound and complete for every R-EDTD target
    /// because the determinised run is unique; agrees with
    /// [`BoxDesignProblem::typecheck`] on every input (asserted by the
    /// tests).
    ///
    /// If some called function has an empty schema language no extension
    /// exists and the verdict is vacuously valid.
    pub fn verify_local(&self, doc: &DistributedDoc) -> Result<BoxVerdict, DesignError> {
        self.verify_local_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::verify_local`]: the cache
    /// build and every per-node Moore-machine image charge `budget`, and a
    /// trip surfaces as [`DesignError::BudgetExceeded`].
    pub fn verify_local_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<BoxVerdict, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::VerifyLocal);
        budget.check_interrupts()?;
        doc.require_schemas(&self.fun_schemas)?;
        let BoxTargetCache { target, funs } = self.target_cache_with_budget(budget)?;
        let kernel = doc.kernel();
        let called = doc.called_functions();

        if called.iter().any(|f| funs[f].forest_empty) {
            return Ok(BoxVerdict::Valid);
        }
        for f in &called {
            if let Some(label) = &funs[f].unknown {
                return Ok(BoxVerdict::Invalid(BoxViolation::UnknownElement {
                    element: *label,
                    origin: Origin::Function { function: *f },
                }));
            }
        }

        let universe = target.duta.num_states();
        let mut achievable: Vec<StateSet> = vec![StateSet::empty(universe); kernel.size()];
        for node in kernel.bottom_up_order() {
            let label = kernel.label(node);
            if doc.is_function(label) {
                continue;
            }
            let origin = || Origin::Kernel { path: kernel.anc_str(node) };
            if !target.duta.labels().contains(label) {
                return Ok(BoxVerdict::Invalid(BoxViolation::UnknownElement {
                    element: *label,
                    origin: origin(),
                }));
            }
            let word = children_word(doc, funs, &achievable, kernel.children(node));
            let outs = target.duta.outputs_over_with_budget(label, &word, letter_of, budget)?;
            // A realizable child word with no typing at all is already a
            // violation — the surrounding kernel always completes it to a
            // full extension (all gap languages are non-empty), and the
            // empty subset propagates to a non-accepting root.
            if let Some(witness) = target.empty_subset.and_then(|ei| outs.get(&ei)) {
                return Ok(BoxVerdict::Invalid(BoxViolation::Content {
                    element: *label,
                    counterexample: target.box_of(witness),
                    admitted: Vec::new(),
                    origin: origin(),
                }));
            }
            if node == kernel.root() {
                if let Some((&state, witness)) =
                    outs.iter().find(|(state, _)| !target.accepting.contains(**state))
                {
                    return Ok(BoxVerdict::Invalid(BoxViolation::Content {
                        element: *label,
                        counterexample: target.box_of(witness),
                        admitted: target.duta.subset(state).iter().cloned().collect(),
                        origin: origin(),
                    }));
                }
            }
            achievable[node] = StateSet::from_iter(universe, outs.keys().copied());
        }
        Ok(BoxVerdict::Valid)
    }

    // ------------------------------------------------------------------
    // Perfect typing for EDTD targets
    // ------------------------------------------------------------------

    /// Computes the **perfect schema** of `function` for the EDTD target:
    /// the most permissive R-EDTD schema under which the design still
    /// typechecks, the other functions keeping their declared schemas.
    ///
    /// The admissible gap language is computed exactly by walking the spine
    /// from the root down to the docking parent: at each level the set of
    /// *safe* subset states is the universal context residual of the
    /// admissible-children language (the per-label Moore machine with every
    /// admissible output marked final) by the
    /// realizable sibling languages, restricted to single states; at the
    /// parent the full residual (uniform for several docking points,
    /// [`Nfa::uniform_context_residual`]) is the gap language. The schema
    /// materialises it with one specialised name per inhabited
    /// `(label, subset state)` pair — maximal per construction, confirmed
    /// by the [`BoxDesignProblem::typecheck`] oracle.
    ///
    /// # Errors
    ///
    /// * [`DesignError::FunctionNotCalled`] — `function` labels no docking
    ///   point of `doc`.
    /// * [`DesignError::MissingFunctionSchema`] — another called function
    ///   has no declared schema.
    /// * [`DesignError::NoMaximalSchema`] — another function's language is
    ///   empty (the design is vacuous), or several docking points under the
    ///   same parent interact without a unique maximum.
    /// * [`DesignError::SynthesisUnsupported`] — the docking points of
    ///   `function` sit under several distinct parents; the per-parent
    ///   residuals of this construction cannot bound that case for EDTD
    ///   targets.
    /// * [`DesignError::InvariantViolation`] — the oracle refuted a
    ///   candidate the construction proves maximal; a bug in this library,
    ///   never a property of the input.
    pub fn perfect_schema(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
    ) -> Result<REdtd, DesignError> {
        self.perfect_schema_with_budget(doc, function, &Budget::unlimited())
    }

    /// Governed variant of [`BoxDesignProblem::perfect_schema`]: the cache
    /// build, the achievable-set pass, the spine residuals and the
    /// confirming typecheck oracle all charge `budget`, and a trip surfaces
    /// as [`DesignError::BudgetExceeded`] with the problem's caches left
    /// unpoisoned (a retry with a larger budget agrees with the ungoverned
    /// result).
    ///
    /// # Errors
    ///
    /// Everything [`BoxDesignProblem::perfect_schema`] reports, plus
    /// [`DesignError::BudgetExceeded`].
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (an admitted function with an
    /// empty docking set).
    pub fn perfect_schema_with_budget(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
        budget: &Budget,
    ) -> Result<REdtd, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::PerfectSchema);
        budget.check_interrupts()?;
        let f = function.into();
        let kernel = doc.kernel();
        let docking = doc.docking_points(&f)?;
        if docking.len() > 1 {
            return Err(DesignError::SynthesisUnsupported {
                function: f,
                detail: "its docking points sit under several distinct parents".into(),
            });
        }
        let BoxTargetCache { target, funs } = self.target_cache_with_budget(budget)?;
        let mut forced_empty = false;
        for g in doc.called_functions() {
            if g == f {
                continue;
            }
            let art = funs.get(&g).ok_or(DesignError::MissingFunctionSchema { function: g })?;
            if art.forest_empty {
                return Err(DesignError::NoMaximalSchema { function: f });
            }
            if art.unknown.is_some() {
                // A sibling realizes trees outside the target's universe:
                // every non-vacuous design fails, independent of `f`.
                forced_empty = true;
            }
        }
        let (&parent, positions) = docking.iter().next().expect("docking is non-empty");

        // The spine from the root down to the docking parent; everything
        // off the spine is free of `f` and gets an exact achievable set.
        let mut spine = vec![parent];
        let mut cursor = parent;
        while let Some(p) = kernel.parent(cursor) {
            spine.push(p);
            cursor = p;
        }
        spine.reverse();
        let spine_set: BTreeSet<NodeId> = spine.iter().copied().collect();

        let duta = &target.duta;
        let universe = duta.num_states();
        let mut achievable: Vec<StateSet> = vec![StateSet::empty(universe); kernel.size()];
        for node in kernel.bottom_up_order() {
            let label = kernel.label(node);
            if spine_set.contains(&node) || doc.is_function(label) {
                continue;
            }
            if !duta.labels().contains(label) {
                forced_empty = true;
                continue;
            }
            let word = children_word(doc, funs, &achievable, kernel.children(node));
            let outs = duta.outputs_over_with_budget(label, &word, letter_of, budget)?;
            achievable[node] = StateSet::from_iter(universe, outs.keys().copied());
        }

        // Top-down: the safe subset states per spine level, then the gap
        // language at the parent.
        let segment = |range: &[NodeId]| children_word(doc, funs, &achievable, range);
        let mut safe: StateSet = target.accepting.clone();
        let mut gap = Nfa::empty();
        for (level, &x) in spine.iter().enumerate() {
            if forced_empty {
                break;
            }
            let label = kernel.label(x);
            if !duta.labels().contains(label) {
                forced_empty = true;
                break;
            }
            // The skeleton DFA comes from the target's memo; only the finals
            // (the admissible outputs at this level) differ per call.
            let admissible_children = target.admissible_children_dfa(label, &safe);
            let children = kernel.children(x);
            if level + 1 < spine.len() {
                let next = spine[level + 1];
                let position = children
                    .iter()
                    .position(|&c| c == next)
                    .expect("spine child is a child of its spine parent");
                let prefix = segment(&children[..position]);
                let suffix = segment(&children[position + 1..]);
                let residual = admissible_children
                    .universal_context_residual_with_budget(&prefix, &suffix, budget)?;
                safe = StateSet::from_iter(
                    universe,
                    (0..universe).filter(|&j| residual.accepts(&[state_sym(j)])),
                );
                if safe.is_empty() {
                    forced_empty = true;
                }
            } else {
                // The docking parent: residual over the gap(s).
                let mut contexts: Vec<Nfa> = Vec::with_capacity(positions.len() + 1);
                let mut prev = 0usize;
                for &position in positions {
                    contexts.push(segment(&children[prev..position]));
                    prev = position + 1;
                }
                contexts.push(segment(&children[prev..]));
                gap = if positions.len() == 1 {
                    admissible_children.universal_context_residual_with_budget(
                        &contexts[0],
                        &contexts[1],
                        budget,
                    )
                } else {
                    admissible_children.uniform_context_residual_with_budget(&contexts, budget)
                }?;
            }
        }
        let gap = if forced_empty { Nfa::empty() } else { gap };

        let schema = build_perfect(&gap, duta);
        let candidate = self.clone().with_function(f, schema.clone());
        match candidate.typecheck_with_budget(doc, budget)? {
            TypingVerdict::Valid => Ok(schema),
            TypingVerdict::Invalid { counterexample, .. } => {
                if positions.len() > 1 {
                    // The uniform candidate is an upper bound on every
                    // valid gap language (substituting any of its words at
                    // every docking point stays valid), so a refutation
                    // proves incomparable maximal languages exist.
                    Err(DesignError::NoMaximalSchema { function: f })
                } else {
                    Err(DesignError::InvariantViolation {
                        detail: format!(
                            "typecheck refuted the maximal box candidate for `{f}` \
                             with `{counterexample}`"
                        ),
                    })
                }
            }
        }
    }

    /// Perfect schemas for every called function of `doc`, each synthesised
    /// with the other functions keeping their declared schemas.
    pub fn perfect_schemas(
        &self,
        doc: &DistributedDoc,
    ) -> Result<BTreeMap<Symbol, REdtd>, DesignError> {
        doc.called_functions()
            .into_iter()
            .map(|f| self.perfect_schema(doc, f).map(|s| (f, s)))
            .collect()
    }
}

/// Materialises a gap language over subset-state symbols as an R-EDTD: a
/// fresh start whose content model is the gap language with every state
/// expanded to the inhabited `(label, state)` pairs carrying it, plus one
/// specialised rule per reachable pair holding the target's exact content
/// language for that pair.
fn build_perfect(gap: &Nfa, duta: &Duta) -> REdtd {
    let pairs = duta.inhabited_label_states();
    let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
    let mut pair_index: BTreeMap<Symbol, (Symbol, usize)> = BTreeMap::new();
    for (label, states) in &pairs {
        for &i in states {
            let name = label.specialize(i);
            slots.entry(state_sym(i)).or_default().insert(name);
            pair_index.insert(name, (*label, i));
        }
    }
    let start = fresh_start(duta.labels());
    let mut schema = REdtd::new(RFormalism::Nfa, start.as_str(), start.as_str());
    let forest = gap.trim().expand_symbols(&slots);
    schema.set_rule(start.as_str(), RSpec::Nfa(forest.clone()));
    let mut queue: VecDeque<Symbol> = forest.alphabet().iter().cloned().collect();
    let mut seen: BTreeSet<Symbol> = queue.iter().cloned().collect();
    while let Some(name) = queue.pop_front() {
        let (label, i) = pair_index[&name];
        let content = duta.content_nfa(i, &label, state_sym).expand_symbols(&slots).trim();
        for next in content.alphabet().iter() {
            if seen.insert(*next) {
                queue.push_back(*next);
            }
        }
        schema.add_specialization(name, label);
        schema.set_rule(name, RSpec::Nfa(content));
    }
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::Regex;
    use dxml_schema::RDtd;
    use dxml_tree::term::parse_term;

    fn dtd(rules: &str) -> RDtd {
        RDtd::parse(RFormalism::Nre, rules).unwrap()
    }

    /// The classic non-DTD-definable target: `s` has `a`-children of which
    /// exactly one contains a `c`, the rest contain a `b`.
    fn one_c_target() -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("ab", "a");
        e.add_specialization("ac", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
        e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    }

    /// An EDTD function schema returning forests of `a(c)`-trees: start
    /// content `x*` with `µ(x) = a`, `x → c`.
    fn ac_forest_schema(star: bool) -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "r", "r");
        e.add_specialization("x", "a");
        let content = if star { "x*" } else { "x" };
        e.set_rule("r", RSpec::Nre(Regex::parse(content).unwrap()));
        e.set_rule("x", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    }

    fn agree(problem: &BoxDesignProblem, doc: &DistributedDoc) -> bool {
        let global = problem.typecheck(doc).unwrap();
        let local = problem.verify_local(doc).unwrap();
        assert_eq!(
            global.is_valid(),
            local.is_valid(),
            "typecheck ({global:?}) and verify_local ({local:?}) disagree on {doc:?}"
        );
        global.is_valid()
    }

    #[test]
    fn specialised_target_typechecks_the_right_forests() {
        let target = one_c_target();
        // f returns exactly one a(c): the kernel supplies the a(b)'s.
        let good = BoxDesignProblem::new(target.clone())
            .with_function("f", ac_forest_schema(false));
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        assert!(agree(&good, &doc));
        // f returning any number of a(c)'s can produce zero or two: invalid.
        let bad = BoxDesignProblem::new(target).with_function("f", ac_forest_schema(true));
        assert!(!agree(&bad, &doc));
        match bad.typecheck(&doc).unwrap() {
            TypingVerdict::Invalid { counterexample, violation } => {
                assert!(!bad.doc_schema().accepts(&counterexample));
                assert!(bad.extension_nuta(&doc).unwrap().accepts(&counterexample));
                let _ = format!("{violation}");
            }
            TypingVerdict::Valid => panic!("expected invalid"),
        }
        match bad.verify_local(&doc).unwrap() {
            BoxVerdict::Invalid(ref v @ BoxViolation::Content { ref counterexample, .. }) => {
                assert!(counterexample.width() >= 1);
                let _ = format!("{v}");
            }
            other => panic!("expected a Content violation, got {other:?}"),
        }
    }

    #[test]
    fn unknown_elements_are_reported_with_origin() {
        let target = one_c_target();
        // Kernel element outside the target universe.
        let p = BoxDesignProblem::new(target.clone());
        let doc = DistributedDoc::parse("s(a(b) zz)", [] as [&str; 0]).unwrap();
        assert!(!agree(&p, &doc));
        assert!(matches!(
            p.verify_local(&doc).unwrap(),
            BoxVerdict::Invalid(BoxViolation::UnknownElement { ref element, origin: Origin::Kernel { .. } })
                if element.as_str() == "zz"
        ));
        // Function forest realizing an unknown element.
        let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
        schema.add_specialization("x", "a");
        schema.set_rule("r", RSpec::Nre(Regex::parse("x").unwrap()));
        schema.set_rule("x", RSpec::Nre(Regex::parse("zz?").unwrap()));
        let p2 = BoxDesignProblem::new(target).with_function("f", schema);
        let doc2 = DistributedDoc::parse("s(a(b) a(c) f)", ["f"]).unwrap();
        assert!(!agree(&p2, &doc2));
        assert!(matches!(
            p2.verify_local(&doc2).unwrap(),
            BoxVerdict::Invalid(BoxViolation::UnknownElement { origin: Origin::Function { .. }, .. })
        ));
    }

    #[test]
    fn vacuous_designs_are_valid() {
        // The function's specialised language is empty: x → x never
        // bottoms out.
        let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
        schema.add_specialization("x", "a");
        schema.set_rule("r", RSpec::Nre(Regex::parse("x").unwrap()));
        schema.set_rule("x", RSpec::Nre(Regex::parse("x").unwrap()));
        let p = BoxDesignProblem::new(one_c_target()).with_function("f", schema);
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(agree(&p, &doc));
    }

    #[test]
    fn missing_schema_is_an_error() {
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(matches!(p.typecheck(&doc), Err(DesignError::MissingFunctionSchema { .. })));
        assert!(matches!(p.verify_local(&doc), Err(DesignError::MissingFunctionSchema { .. })));
    }

    #[test]
    fn kernel_boxes_expose_the_specialised_slots() {
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(a(b) a(c) f)", ["f"]).unwrap();
        let kernel_box = p.kernel_box(&doc, doc.kernel().root());
        assert!(kernel_box.is_none(), "root has a docking child");
        // The box of the first a-child: its `b` subtree types exactly as a
        // leaf typable by no specialisation other than… `b` itself has no
        // rule in the target, so check the a-node instead: a(b) types
        // exactly as {ab}.
        let a_node = doc.kernel().children(doc.kernel().root())[0];
        let b = p.kernel_box(&doc, a_node).unwrap();
        assert_eq!(b.width(), 1, "a(b) has one child");
        // And the box of the whole fixed prefix via a synthetic doc without
        // the docking point: slots are the exact specialised-type sets.
        let plain = DistributedDoc::parse("s(a(b) a(c))", [] as [&str; 0]).unwrap();
        let pb = p.kernel_box(&plain, plain.kernel().root()).unwrap();
        assert_eq!(pb.width(), 2);
        assert_eq!(pb.slots()[0], BTreeSet::from([Symbol::new("ab")]));
        assert_eq!(pb.slots()[1], BTreeSet::from([Symbol::new("ac")]));
        assert!(pb.contains(&[Symbol::new("ab"), Symbol::new("ac")]));
    }

    #[test]
    fn dtd_embedding_agrees_with_design_problem() {
        let target = dtd("s -> a, b*\nb -> c?");
        let problem = crate::DesignProblem::new(target).with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let boxed = BoxDesignProblem::from(&problem);
        assert!(agree(&boxed, &doc));
        assert_eq!(
            problem.typecheck(&doc).unwrap().is_valid(),
            boxed.typecheck(&doc).unwrap().is_valid()
        );
        // And on an invalid design.
        let bad = crate::DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b*\nb -> d?"));
        let boxed_bad = BoxDesignProblem::from(&bad);
        assert!(!agree(&boxed_bad, &doc));
        assert!(!bad.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn repeated_decisions_reuse_the_cache() {
        let p = BoxDesignProblem::new(one_c_target()).with_function("f", ac_forest_schema(false));
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        assert!(!p.target_cache_ready());
        assert!(p.verify_local(&doc).unwrap().is_valid());
        assert!(p.target_cache_ready());
        let first = p.target_cache().duta() as *const _;
        assert!(p.typecheck(&doc).unwrap().is_valid());
        let second = p.target_cache().duta() as *const _;
        assert!(std::ptr::eq(first, second), "decisions must not re-determinise the target");
        let f = Symbol::new("f");
        let fs1 = p.target_cache().forest_states(&f).unwrap() as *const _;
        assert!(p.verify_local(&doc).unwrap().is_valid());
        let fs2 = p.target_cache().forest_states(&f).unwrap() as *const _;
        assert!(std::ptr::eq(fs1, fs2), "gap languages must be reused across calls");
        // Mutation invalidates.
        let mut changed = p.clone();
        changed.set_doc_schema(one_c_target());
        assert!(!changed.target_cache_ready());
    }

    #[test]
    fn perfect_schema_for_a_specialised_target() {
        // Kernel s(a(b) f): the perfect gap language is a's typed ab* ac ab*
        // — expressible as an EDTD, not as a DTD.
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        let perfect = p.perfect_schema(&doc, "f").unwrap();
        let solved = p.clone().with_function("f", perfect.clone());
        assert!(solved.typecheck(&doc).unwrap().is_valid());
        assert!(solved.verify_local(&doc).unwrap().is_valid());
        // The synthesised schema accepts a lone a(c) forest …
        let forest_ac = parse_term("r(a(c))").unwrap();
        // … by embedding it under the fresh start (whose name we read off).
        let start = *perfect.start();
        let embed = |forest: &str| {
            parse_term(&format!("{}({forest})", start.as_str())).unwrap()
        };
        assert!(perfect.accepts(&embed("a(c)")));
        assert!(perfect.accepts(&embed("a(b) a(c) a(b)")));
        assert!(!perfect.accepts(&embed("a(b)")));
        assert!(!perfect.accepts(&embed("a(c) a(c)")));
        let _ = forest_ac;
        // Declared valid schemas are subsumed: the single-a(c) schema's
        // forests are all accepted by the perfect one.
        let declared = ac_forest_schema(false);
        let with_declared = p.clone().with_function("f", declared);
        assert!(with_declared.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn perfect_schema_error_cases() {
        let p = BoxDesignProblem::new(one_c_target());
        let doc = DistributedDoc::parse("s(a(b) f)", ["f"]).unwrap();
        assert!(matches!(
            p.perfect_schema(&doc, "g"),
            Err(DesignError::FunctionNotCalled { .. })
        ));
        // Docking under two distinct parents is unsupported for EDTD
        // targets.
        let mut nested = REdtd::new(RFormalism::Nre, "s", "s");
        nested.set_rule("s", RSpec::Nre(Regex::parse("t t").unwrap()));
        nested.set_rule("t", RSpec::Nre(Regex::parse("a*").unwrap()));
        let p2 = BoxDesignProblem::new(nested);
        let doc2 = DistributedDoc::parse("s(t(f) t(f))", ["f"]).unwrap();
        assert!(matches!(
            p2.perfect_schema(&doc2, "f"),
            Err(DesignError::SynthesisUnsupported { .. })
        ));
        // Interacting docking points under one parent: (ab ac | ac ab)
        // admits {ab-word} and {ac-word}… use the DTD-style (a,a)|(b,b).
        let mut t = REdtd::new(RFormalism::Nre, "s", "s");
        t.set_rule("s", RSpec::Nre(Regex::parse("a a | b b").unwrap()));
        let p3 = BoxDesignProblem::new(t);
        let doc3 = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        assert!(matches!(
            p3.perfect_schema(&doc3, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
        // A sibling with an empty language makes the design vacuous.
        let mut empty = REdtd::new(RFormalism::Nre, "r", "r");
        empty.set_rule("r", RSpec::Nre(Regex::parse("r").unwrap()));
        let p4 = BoxDesignProblem::new(one_c_target()).with_function("g", empty);
        let doc4 = DistributedDoc::parse("s(a(b) f g)", ["f", "g"]).unwrap();
        assert!(matches!(
            p4.perfect_schema(&doc4, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
    }

    #[test]
    fn perfect_schema_with_repeated_docking_points() {
        // τ(s) = (ab)* over specialised pairs: s → (x y)* with µ(x)=a,
        // µ(y)=b; kernel s(f f): the uniform candidate (x y)* is closed
        // under concatenation, hence the unique maximum.
        let mut t = REdtd::new(RFormalism::Nre, "s", "s");
        t.add_specialization("x", "a");
        t.add_specialization("y", "b");
        t.set_rule("s", RSpec::Nre(Regex::parse("(x y)*").unwrap()));
        let p = BoxDesignProblem::new(t);
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = p.perfect_schema(&doc, "f").unwrap();
        let solved = p.clone().with_function("f", perfect.clone());
        assert!(solved.typecheck(&doc).unwrap().is_valid());
        let start = *perfect.start();
        let embed = |forest: &str| parse_term(&format!("{}({forest})", start.as_str())).unwrap();
        assert!(perfect.accepts(&embed("a b")));
        assert!(!perfect.accepts(&embed("a")));
    }

    #[test]
    fn independent_violations_force_the_empty_gap() {
        // The kernel's `zz` child violates the target whatever f returns:
        // the perfect gap language is empty (vacuously valid).
        let mut t = REdtd::new(RFormalism::Nre, "s", "s");
        t.set_rule("s", RSpec::Nre(Regex::parse("t a*").unwrap()));
        t.set_rule("t", RSpec::Nre(Regex::parse("b").unwrap()));
        let p = BoxDesignProblem::new(t);
        let doc = DistributedDoc::parse("s(t(zz) f)", ["f"]).unwrap();
        let perfect = p.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.is_empty());
        let solved = p.clone().with_function("f", perfect);
        assert!(solved.typecheck(&doc).unwrap().is_valid());
    }
}
