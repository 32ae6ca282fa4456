//! Design problems with DTD targets (Sections 3–5): the DTD front end of
//! the design engine.
//!
//! A [`DesignProblem`] pairs the *global type* `τ` a distributed document
//! must conform to with a schema `τf` for each function, describing the
//! documents the function may return. A kernel `T` **has type `τ`** iff every
//! possible extension `ext_T(t1…tn)` with `ti ∈ [τfi]` validates against `τ`
//! — the typing-verification problem.
//!
//! A DTD is the R-EDTD in which every name is its own specialisation, so the
//! problem holds its trivial-EDTD embedding, a [`BoxDesignProblem`], and the
//! tree route runs there once for both front ends. What stays here is what
//! is phrased in DTD terms:
//!
//! * [`DesignProblem::verify_local`] — the DTD string walk: since DTD
//!   validation is per-node-local, the extension language is included in
//!   `[τ]` iff a family of *string*-language inclusions holds, each decided
//!   by [`dxml_automata::equiv::included`] with a counterexample word. The
//!   same walk confirms the candidates of [`crate::perfect`] and, with the
//!   synthesised function's docking parents skipped, explains refuted ones.
//! * [`DesignProblem::typecheck`] — decides on the same walk, and only when
//!   it finds a violation runs the engine's tree route (extension automaton
//!   included in the determinised target) to build a counterexample
//!   document. That document is explained by [`RDtd::validate`], so the
//!   violation names the DTD's content models.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dxml_automata::equiv::included_with_budget as str_included_with_budget;
use dxml_telemetry as telemetry;
use dxml_automata::{AutomataError, Budget, Dfa, Nfa, RSpec, Symbol};
use dxml_schema::{RDtd, SchemaError};
use dxml_tree::{NodeId, Nuta, XTree};

use crate::boxes::BoxDesignProblem;
use crate::doc::DistributedDoc;
use crate::error::DesignError;

/// A function schema reduced once per problem (every surviving name
/// realizable, Definition 5) together with its *forest* language — the
/// root-word language its documents contribute at a docking point.
#[derive(Clone, Debug)]
pub(crate) struct ReducedFun {
    schema: RDtd,
    forest: Nfa,
    empty: bool,
}

impl ReducedFun {
    pub(crate) fn build(schema: &RDtd) -> ReducedFun {
        let schema = schema.reduce();
        let empty = schema.language_is_empty();
        let forest = schema.content(schema.start()).to_nfa();
        ReducedFun { schema, forest, empty }
    }

    /// The reduced schema.
    pub fn schema(&self) -> &RDtd {
        &self.schema
    }

    /// The forest language: the content model of the reduced start symbol.
    pub fn forest(&self) -> &Nfa {
        &self.forest
    }

    /// Whether the schema's language is empty (the function can return no
    /// document at all).
    pub fn language_is_empty(&self) -> bool {
        self.empty
    }
}

/// A lazily filled memo of determinised residual inputs: the key identifies
/// the *machine* (a target content model, or a per-label Moore machine) and
/// the value is its determinisation, shared by every residual taken against
/// it. Kept behind a `Mutex` so the enclosing cache stays usable through
/// `&self` (the synthesis loops hold the cache by shared reference).
#[derive(Default)]
pub(crate) struct ResidualDfaCache {
    memo: Mutex<BTreeMap<Symbol, Arc<Dfa>>>,
    /// Memo misses (machines actually determinised) and hits, kept as plain
    /// per-problem atomics so test assertions stay deterministic even when
    /// the process-global telemetry registry is shared with other work; the
    /// same events are mirrored into `cache.residual_dfa_builds`/`_hits`.
    builds: AtomicU64,
    hits: AtomicU64,
}

impl ResidualDfaCache {
    /// The determinisation of the machine identified by `key`, built by
    /// `make` on first use and shared afterwards.
    pub(crate) fn get_or_build(&self, key: &Symbol, make: impl FnOnce() -> Dfa) -> Arc<Dfa> {
        self.get_or_try_build(key, || Ok::<Dfa, AutomataError>(make()))
            .expect("an infallible build cannot fail")
    }

    /// Fallible twin of [`ResidualDfaCache::get_or_build`]: a `make` that
    /// errors (a budget trip) inserts nothing, so the memo stays clean and a
    /// retry with a larger budget rebuilds from scratch. A `make` that
    /// *panicked* on an earlier call poisons the mutex; the memo data is
    /// only ever mutated after a successful build, so the poison is benign
    /// and recovered from.
    pub(crate) fn get_or_try_build<E>(
        &self,
        key: &Symbol,
        make: impl FnOnce() -> Result<Dfa, E>,
    ) -> Result<Arc<Dfa>, E> {
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(d) = memo.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count(telemetry::Metric::ResidualDfaHits, 1);
            return Ok(Arc::clone(d));
        }
        let d = Arc::new(make()?);
        memo.insert(*key, Arc::clone(&d));
        self.builds.fetch_add(1, Ordering::Relaxed);
        telemetry::count(telemetry::Metric::ResidualDfaBuilds, 1);
        Ok(d)
    }

    /// Memo misses and hits so far, in that order.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.builds.load(Ordering::Relaxed), self.hits.load(Ordering::Relaxed))
    }
}

impl Clone for ResidualDfaCache {
    fn clone(&self) -> Self {
        ResidualDfaCache {
            memo: Mutex::new(
                self.memo.lock().map(|memo| memo.clone()).unwrap_or_default(),
            ),
            builds: AtomicU64::new(self.builds.load(Ordering::Relaxed)),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
        }
    }
}

impl fmt::Debug for ResidualDfaCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let machines = self.memo.lock().map_or(0, |memo| memo.len());
        write!(f, "ResidualDfaCache({machines} machines)")
    }
}

/// What the DTD string walk and the perfect-typing synthesis of
/// [`crate::perfect`] read: the target's content NFAs and productive names,
/// the function schemas reduced once per problem, and the memo of
/// determinised content models the residual constructions consume. Built
/// lazily on the first decision that needs it; the determinised target
/// lives in the problem's embedding (see [`DesignProblem::target_cache`]).
#[derive(Clone, Debug)]
pub struct TargetCache {
    content_nfas: BTreeMap<Symbol, Nfa>,
    epsilon: Nfa,
    productive: BTreeSet<Symbol>,
    reduced_fun: BTreeMap<Symbol, ReducedFun>,
    residual_dfas: ResidualDfaCache,
}

impl TargetCache {
    fn build(target: &RDtd, fun_schemas: &BTreeMap<Symbol, RDtd>) -> TargetCache {
        let _span = telemetry::span(telemetry::SpanKind::TargetCacheBuild);
        telemetry::count(telemetry::Metric::TargetCacheBuilds, 1);
        TargetCache {
            content_nfas: target
                .alphabet()
                .iter()
                .map(|a| (*a, target.content(a).to_nfa()))
                .collect(),
            epsilon: Nfa::epsilon(),
            productive: target.bound_names(),
            reduced_fun: fun_schemas
                .iter()
                .map(|(f, schema)| (*f, ReducedFun::build(schema)))
                .collect(),
            residual_dfas: ResidualDfaCache::default(),
        }
    }

    /// The content model of `name` as an NFA (`{ε}` for names without a
    /// rule, matching the leaf-only convention of [`RDtd::content`]).
    pub(crate) fn content_nfa(&self, name: &Symbol) -> &Nfa {
        self.content_nfas.get(name).unwrap_or(&self.epsilon)
    }

    /// The *productive* (bound, Definition 5) element names of the target:
    /// the names that can root a complete valid subtree.
    pub(crate) fn productive(&self) -> &BTreeSet<Symbol> {
        &self.productive
    }

    /// The reduced schema of a declared function (with its forest language
    /// and emptiness), reduced once per problem.
    pub(crate) fn reduced_fun(&self, function: &Symbol) -> Option<&ReducedFun> {
        self.reduced_fun.get(function)
    }

    /// The determinisation of the content model of `name`, memoised per
    /// problem (keyed by the element name — the machine's identity within
    /// this cache). The universal/uniform context residuals of the
    /// perfect-typing synthesis consume this instead of re-determinising
    /// `content_nfa(name)` on every call. A budget trip during the
    /// determinisation caches nothing, so retrying with a larger budget
    /// rebuilds the machine cleanly.
    pub(crate) fn content_dfa(
        &self,
        name: &Symbol,
        budget: &Budget,
    ) -> Result<Arc<Dfa>, AutomataError> {
        self.residual_dfas
            .get_or_try_build(name, || Dfa::from_nfa_with_budget(self.content_nfa(name), budget))
    }
}

/// The child words a kernel child labelled `label` contributes to its
/// parent: the reduced forest language when it is a docking point of a
/// function in `funs`, the singleton of its own label otherwise.
pub(crate) fn child_language(label: &Symbol, funs: &BTreeMap<Symbol, &ReducedFun>) -> Nfa {
    funs.get(label).map_or_else(|| Nfa::symbol(*label), |r| r.forest().clone())
}

/// Point-in-time cache statistics of one design problem: how much of the
/// lazily built machinery exists and how well the memos are doing. The same
/// events feed the process-global [`dxml_telemetry`] counters
/// (`cache.residual_dfa_*`, `design.ext_memo_*`); these per-problem numbers
/// are kept separately so assertions about *this* problem stay exact no
/// matter what other problems in the process are doing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Whether the determinised target automaton has been built.
    pub target_cache_built: bool,
    /// Residual-DFA memo misses: content models actually determinised.
    pub residual_dfa_builds: u64,
    /// Residual-DFA memo hits: determinisations served from the memo.
    pub residual_dfa_hits: u64,
    /// Extension-automaton FIFO memo hits.
    pub ext_memo_hits: u64,
    /// Extension-automaton FIFO memo misses (automaton built).
    pub ext_memo_misses: u64,
}

/// A typing-verification instance: the target document schema `τ` plus one
/// schema per function symbol — the DTD front end of the design engine.
///
/// The problem holds its trivial-EDTD embedding, built on the first
/// decision and kept in sync by [`DesignProblem::add_function`]. Its
/// determinised target is shared with every clone and every
/// [`From`](BoxDesignProblem::from) image, survives `add_function`, and is
/// dropped only by [`DesignProblem::set_doc_schema`]. The extension memo is
/// shared the same way until either mutation, and the [`TargetCache`] of
/// the string walk is rebuilt after either.
#[derive(Clone)]
pub struct DesignProblem {
    doc_schema: RDtd,
    fun_schemas: BTreeMap<Symbol, RDtd>,
    engine: OnceLock<BoxDesignProblem>,
    target: OnceLock<TargetCache>,
}

impl fmt::Debug for DesignProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DesignProblem")
            .field("doc_schema", &self.doc_schema)
            .field("fun_schemas", &self.fun_schemas)
            .field("target_cache_ready", &self.target_cache_ready())
            .finish()
    }
}

impl From<&DesignProblem> for BoxDesignProblem {
    /// Embeds a DTD design problem as a box design problem with trivial
    /// specialisations (every element name is its own specialisation): a
    /// clone of the problem's own embedding, sharing its determinised
    /// target.
    fn from(problem: &DesignProblem) -> BoxDesignProblem {
        problem.engine().clone()
    }
}

/// The outcome of typing verification.
#[derive(Clone, Debug)]
pub enum TypingVerdict {
    /// Every extension of the kernel validates against the target schema.
    Valid,
    /// Some extension violates the target schema.
    Invalid {
        /// A materialised document that is a possible extension but does not
        /// validate.
        counterexample: XTree,
        /// Why the counterexample fails validation.
        violation: SchemaError,
    },
}

impl TypingVerdict {
    /// Whether the verdict is [`TypingVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, TypingVerdict::Valid)
    }
}

/// Where a local-typing violation was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// At a kernel node, identified by its root-to-node label path.
    Kernel {
        /// `anc-str` of the kernel node.
        path: Vec<Symbol>,
    },
    /// Inside documents producible by a function.
    Function {
        /// The function symbol.
        function: Symbol,
    },
}

/// A violation found by the local (string-level) typing check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalViolation {
    /// The kernel root label differs from the target start symbol.
    RootLabel {
        /// The target start symbol.
        expected: Symbol,
        /// The kernel root label.
        found: Symbol,
    },
    /// An element name can occur in some extension but is not declared in the
    /// target schema.
    UnknownElement {
        /// The undeclared element name.
        element: Symbol,
        /// Where the element comes from.
        origin: Origin,
    },
    /// A realizable child word violates the target content model of
    /// `element`.
    Content {
        /// The element whose content model is violated.
        element: Symbol,
        /// A shortest realizable child word outside the target content model.
        counterexample: Vec<Symbol>,
        /// A rendering of the expected content model.
        expected: String,
        /// Where the bad word can be realised.
        origin: Origin,
    },
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Kernel { path } => {
                let p: Vec<&str> = path.iter().map(Symbol::as_str).collect();
                write!(f, "kernel node /{}", p.join("/"))
            }
            Origin::Function { function } => write!(f, "documents returned by `{function}`"),
        }
    }
}

impl fmt::Display for LocalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalViolation::RootLabel { expected, found } => {
                write!(f, "kernel root is `{found}` but the target schema starts at `{expected}`")
            }
            LocalViolation::UnknownElement { element, origin } => {
                write!(f, "element `{element}` ({origin}) is not declared in the target schema")
            }
            LocalViolation::Content { element, counterexample, expected, origin } => {
                let w: Vec<&str> = counterexample.iter().map(Symbol::as_str).collect();
                write!(
                    f,
                    "children [{}] of `{element}` ({origin}) are possible but do not match {expected}",
                    w.join(" ")
                )
            }
        }
    }
}

/// The outcome of the local typing check.
#[derive(Clone, Debug)]
pub enum LocalVerdict {
    /// All local inclusions hold; every extension validates.
    Valid,
    /// A local inclusion fails; the violation is realizable in some
    /// extension.
    Invalid(LocalViolation),
}

impl LocalVerdict {
    /// Whether the verdict is [`LocalVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, LocalVerdict::Valid)
    }
}

impl DesignProblem {
    /// Creates a design problem with no function schemas.
    pub fn new(doc_schema: RDtd) -> DesignProblem {
        DesignProblem {
            doc_schema,
            fun_schemas: BTreeMap::new(),
            engine: OnceLock::new(),
            target: OnceLock::new(),
        }
    }

    /// Declares the schema of a function (builder style).
    pub fn with_function(mut self, function: impl Into<Symbol>, schema: RDtd) -> DesignProblem {
        self.add_function(function, schema);
        self
    }

    /// Declares the schema of a function. The embedding gains its trivial
    /// EDTD and keeps the determinised target; the [`TargetCache`] and the
    /// memoised extension automata, which depend on the function schemas,
    /// are dropped.
    pub fn add_function(&mut self, function: impl Into<Symbol>, schema: RDtd) {
        let function = function.into();
        if let Some(engine) = self.engine.get_mut() {
            engine.add_function(function, schema.to_edtd());
        }
        self.fun_schemas.insert(function, schema);
        self.target = OnceLock::new();
    }

    /// The target document schema `τ`.
    pub fn doc_schema(&self) -> &RDtd {
        &self.doc_schema
    }

    /// Replaces the target document schema, dropping the embedding and every
    /// cached artefact (clones made earlier keep the old determinised
    /// target).
    pub fn set_doc_schema(&mut self, doc_schema: RDtd) {
        self.doc_schema = doc_schema;
        self.engine = OnceLock::new();
        self.target = OnceLock::new();
    }

    /// The declared function schemas.
    pub fn fun_schemas(&self) -> &BTreeMap<Symbol, RDtd> {
        &self.fun_schemas
    }

    /// The schema of a function, if declared.
    pub fn fun_schema(&self, function: &Symbol) -> Option<&RDtd> {
        self.fun_schemas.get(function)
    }

    /// Every content model of the problem — the target schema's rules
    /// followed by each function schema's rules — paired with a stable
    /// human-readable location in the style of the `dxml-analysis`
    /// diagnostics (`target schema: element `a``, `schema of function `f`:
    /// element `b``). This is the budget-synthesis entry point: the static
    /// cost model in `dxml-analysis::cost` brackets the determinisation
    /// cost of exactly these models to recommend step/state quotas.
    pub fn content_models(&self) -> Vec<(String, RSpec)> {
        let mut out = Vec::new();
        for (name, spec) in self.doc_schema.rules() {
            out.push((format!("target schema: element `{name}`"), spec.clone()));
        }
        for (f, schema) in &self.fun_schemas {
            for (name, spec) in schema.rules() {
                out.push((format!("schema of function `{f}`: element `{name}`"), spec.clone()));
            }
        }
        out
    }

    /// The trivial-EDTD embedding every tree-route decision runs on, built
    /// on first use.
    fn engine(&self) -> &BoxDesignProblem {
        self.engine.get_or_init(|| {
            let mut engine = BoxDesignProblem::new(self.doc_schema.to_edtd());
            for (f, schema) in &self.fun_schemas {
                engine.add_function(*f, schema.to_edtd());
            }
            engine
        })
    }

    /// Builds every artefact the problem's decisions use — the determinised
    /// target in the embedding, then the string walk's content NFAs,
    /// productive names and reduced function schemas — and returns the
    /// latter. The first call pays for the determinisation and the
    /// reductions; later calls are free.
    ///
    /// # Panics
    ///
    /// Never: the unlimited budget cannot trip.
    pub fn target_cache(&self) -> &TargetCache {
        self.target_cache_with_budget(&Budget::unlimited())
            .expect("the unlimited budget never trips")
    }

    /// Governed variant of [`DesignProblem::target_cache`]: the cold
    /// determinisation charges `budget`, and a trip propagates *without*
    /// initialising any cache cell, so a tripped build leaves the problem
    /// exactly as it was and a retry (with any budget) rebuilds from
    /// scratch.
    pub fn target_cache_with_budget(&self, budget: &Budget) -> Result<&TargetCache, DesignError> {
        self.engine().shared_target(budget)?;
        Ok(self.target.get_or_init(|| TargetCache::build(&self.doc_schema, &self.fun_schemas)))
    }

    /// Whether the determinised target has already been built (used by
    /// tests and benches to pin that repeated decisions do not
    /// re-determinise).
    pub fn target_cache_ready(&self) -> bool {
        self.engine.get().is_some_and(BoxDesignProblem::target_cache_ready)
    }

    /// Point-in-time statistics of this problem's caches: whether the
    /// determinised target exists, the content-model memo's builds and hits
    /// and the extension memo's hits and misses (shared with the clones
    /// that share the memo). Exact regardless of other work in the process;
    /// the same events also feed the global [`dxml_telemetry`] counters.
    pub fn cache_stats(&self) -> CacheStats {
        let (residual_dfa_builds, residual_dfa_hits) =
            self.target.get().map_or((0, 0), |cache| cache.residual_dfas.stats());
        CacheStats {
            residual_dfa_builds,
            residual_dfa_hits,
            ..self.engine.get().map(BoxDesignProblem::cache_stats).unwrap_or_default()
        }
    }

    /// A [`Nuta`] recognising exactly the extensions of `doc`, built and
    /// memoised per document by the embedding
    /// ([`BoxDesignProblem::extension_nuta`]). With trivial specialisations
    /// its states are `#k<i>` for kernel node `i` and `<f>$<a>` for element
    /// `a` of function `f`'s schema.
    pub fn extension_nuta(&self, doc: &DistributedDoc) -> Result<Arc<Nuta>, DesignError> {
        self.engine().extension_nuta(doc)
    }

    // ------------------------------------------------------------------
    // Typing verification
    // ------------------------------------------------------------------

    /// Decides whether every extension of `doc` validates against
    /// [`DesignProblem::doc_schema`]. The decision is the exact DTD string
    /// walk of [`DesignProblem::verify_local`]; only when it finds a
    /// violation does the tree route run — inclusion of the extension
    /// automaton in the determinised target — to build a full
    /// counterexample document and the validation error it triggers. A
    /// valid design therefore never builds an extension automaton.
    ///
    /// The target is compiled once per target schema and shared (see
    /// [`DesignProblem::target_cache`]); repeated calls only pay for the
    /// walk, and for the extension side when the design is invalid.
    pub fn typecheck(&self, doc: &DistributedDoc) -> Result<TypingVerdict, DesignError> {
        self.typecheck_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`DesignProblem::typecheck`]: the target
    /// compilation (on a cold cache), every string inclusion of the walk
    /// and, on a violation, the product of the extension automaton with the
    /// determinised target all charge `budget`; a trip surfaces as
    /// [`DesignError::BudgetExceeded`] and leaves every cache rebuildable.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant, as for
    /// [`DesignProblem::verify_local_with_budget`].
    pub fn typecheck_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<TypingVerdict, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::Typecheck);
        if self.string_walk(doc, budget)?.is_valid() {
            return Ok(TypingVerdict::Valid);
        }
        let (counterexample, violation) =
            self.engine().tree_typecheck(doc, budget, |t| self.doc_schema.validate(t))?;
        Ok(TypingVerdict::Invalid { counterexample, violation })
    }

    /// The DTD string walk: local typing verification by string-language
    /// inclusions only (no tree automata). Sound and complete for DTD
    /// targets because DTD validation is per-node-local; agrees with
    /// [`DesignProblem::typecheck`] on every input (asserted by the tests).
    ///
    /// Checks performed:
    ///
    /// 1. the kernel root label is the target start symbol;
    /// 2. for every kernel node, the language of realizable child words is
    ///    included in the target content model of its label;
    /// 3. for every element name reachable inside a forest attached by a
    ///    function `f`, the name is declared in the target and the (reduced)
    ///    content model of `τf` is included in the target's.
    ///
    /// If some called function has an empty schema language no extension
    /// exists and the verdict is vacuously valid.
    pub fn verify_local(&self, doc: &DistributedDoc) -> Result<LocalVerdict, DesignError> {
        self.verify_local_with_budget(doc, &Budget::unlimited())
    }

    /// Governed variant of [`DesignProblem::verify_local`]: every
    /// string-language inclusion (and the cold target-cache build) charges
    /// `budget`; a trip surfaces as [`DesignError::BudgetExceeded`].
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (a call site surviving
    /// `require_schemas` without a reduced schema).
    pub fn verify_local_with_budget(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<LocalVerdict, DesignError> {
        let _span = telemetry::span(telemetry::SpanKind::VerifyLocal);
        self.string_walk(doc, budget)
    }

    /// The walk behind [`DesignProblem::verify_local`] and
    /// [`DesignProblem::typecheck`], unspanned so that each entry point
    /// records only its own span.
    fn string_walk(
        &self,
        doc: &DistributedDoc,
        budget: &Budget,
    ) -> Result<LocalVerdict, DesignError> {
        budget.check_interrupts()?;
        doc.require_schemas(&self.fun_schemas)?;
        let cache = self.target_cache_with_budget(budget)?;

        // The reduced function schemas (every surviving name realizable —
        // what makes counterexample words realizable and the check
        // complete) come from the problem cache: reduced once, reused by
        // every later call.
        let mut reduced: BTreeMap<Symbol, &ReducedFun> = BTreeMap::new();
        for f in doc.called_functions() {
            let r =
                cache.reduced_fun(&f).expect("require_schemas admitted only declared functions");
            if r.language_is_empty() {
                return Ok(LocalVerdict::Valid);
            }
            reduced.insert(f, r);
        }
        Ok(match self.local_violation(doc, cache, &reduced, |_| false, budget)? {
            Some(violation) => LocalVerdict::Invalid(violation),
            None => LocalVerdict::Valid,
        })
    }

    /// The walk behind [`DesignProblem::verify_local`]: the first violation
    /// in the order the checks are listed there, or `None`. Only the
    /// forests of the functions in `funs` are expanded and checked, and the
    /// content of a kernel node for which `skip` holds is not checked —
    /// perfect-typing synthesis passes every function but the synthesised
    /// one and skips that function's docking parents, leaving exactly the
    /// violations no schema of it can influence.
    pub(crate) fn local_violation(
        &self,
        doc: &DistributedDoc,
        cache: &TargetCache,
        funs: &BTreeMap<Symbol, &ReducedFun>,
        skip: impl Fn(NodeId) -> bool,
        budget: &Budget,
    ) -> Result<Option<LocalViolation>, DesignError> {
        let kernel = doc.kernel();
        let tau = &self.doc_schema;
        if kernel.root_label() != tau.start() {
            return Ok(Some(LocalViolation::RootLabel {
                expected: *tau.start(),
                found: *kernel.root_label(),
            }));
        }

        // (2) kernel nodes: realizable child words vs target content models.
        for node in kernel.document_order() {
            let label = kernel.label(node);
            if doc.is_function(label) {
                continue;
            }
            let origin = || Origin::Kernel { path: kernel.anc_str(node) };
            if !tau.alphabet().contains(label) {
                return Ok(Some(LocalViolation::UnknownElement {
                    element: *label,
                    origin: origin(),
                }));
            }
            if skip(node) {
                continue;
            }
            let realizable = kernel
                .children(node)
                .iter()
                .fold(Nfa::epsilon(), |acc, &c| acc.concat(&child_language(kernel.label(c), funs)));
            if let Err(ce) =
                str_included_with_budget(&realizable, cache.content_nfa(label), budget)?
            {
                return Ok(Some(LocalViolation::Content {
                    element: *label,
                    counterexample: ce.word,
                    expected: format!("{}", tau.content(label)),
                    origin: origin(),
                }));
            }
        }

        // (3) function forests: every name reachable below an attached root.
        for (f, reduced) in funs {
            let r = reduced.schema();
            let mut seen: BTreeSet<Symbol> = r
                .content(r.start())
                .alphabet()
                .iter()
                .filter(|s| r.alphabet().contains(s))
                .cloned()
                .collect();
            let mut queue: VecDeque<Symbol> = seen.iter().cloned().collect();
            while let Some(name) = queue.pop_front() {
                let origin = Origin::Function { function: *f };
                if !tau.alphabet().contains(&name) {
                    return Ok(Some(LocalViolation::UnknownElement { element: name, origin }));
                }
                let content = r.content(&name);
                if let Err(ce) =
                    str_included_with_budget(&content.to_nfa(), cache.content_nfa(&name), budget)?
                {
                    return Ok(Some(LocalViolation::Content {
                        element: name,
                        counterexample: ce.word,
                        expected: format!("{}", tau.content(&name)),
                        origin,
                    }));
                }
                for next in content.alphabet().iter() {
                    if r.alphabet().contains(next) && seen.insert(*next) {
                        queue.push_back(*next);
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::RFormalism;
    use dxml_tree::term::parse_term;

    fn dtd(rules: &str) -> RDtd {
        RDtd::parse(RFormalism::Nre, rules).unwrap()
    }

    /// The embedding's determinised target, seen through a `From` clone
    /// (which shares it).
    fn shared_duta(problem: &DesignProblem) -> *const dxml_tree::uta::Duta {
        BoxDesignProblem::from(problem).target_cache().duta()
    }

    fn agree(problem: &DesignProblem, doc: &DistributedDoc) -> bool {
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
    fn valid_typing_accepts() {
        let target = dtd("s -> a, b*\nb -> c?");
        let problem = DesignProblem::new(target).with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));
    }

    #[test]
    fn invalid_typing_yields_counterexample() {
        let target = dtd("s -> a, b*\nb -> c?");
        // f may return roots whose b-children contain a `d`, unknown to τ.
        let problem = DesignProblem::new(target.clone()).with_function("f", dtd("r -> b*\nb -> d?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(!agree(&problem, &doc));
        match problem.typecheck(&doc).unwrap() {
            TypingVerdict::Invalid { counterexample, violation } => {
                assert!(!target.accepts(&counterexample));
                assert!(problem.extension_nuta(&doc).unwrap().accepts(&counterexample));
                let _ = format!("{violation}");
            }
            TypingVerdict::Valid => panic!("expected invalid"),
        }
    }

    #[test]
    fn wrong_root_and_unknown_kernel_element() {
        let target = dtd("s -> a*");
        let problem = DesignProblem::new(target);
        let wrong_root = DistributedDoc::parse("t(a)", [] as [&str; 0]).unwrap();
        assert!(!agree(&problem, &wrong_root));
        assert!(matches!(
            problem.verify_local(&wrong_root).unwrap(),
            LocalVerdict::Invalid(LocalViolation::RootLabel { .. })
        ));
        let unknown = DistributedDoc::parse("s(a x)", [] as [&str; 0]).unwrap();
        assert!(!agree(&problem, &unknown));
    }

    #[test]
    fn empty_function_language_is_vacuously_valid() {
        let target = dtd("s -> a");
        // f's schema has an empty language (r -> r never bottoms out), so no
        // extension exists at all.
        let problem = DesignProblem::new(target).with_function("f", dtd("r -> r"));
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));
    }

    #[test]
    fn missing_schema_is_an_error() {
        let problem = DesignProblem::new(dtd("s -> a"));
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(matches!(
            problem.typecheck(&doc),
            Err(DesignError::MissingFunctionSchema { .. })
        ));
        assert!(problem.fun_schema(&Symbol::new("f")).is_none());
    }

    #[test]
    fn forest_word_interleaves_with_kernel_children() {
        // τ requires a (b c)* content; f supplies `b c` pairs between the
        // kernel's own children.
        let target = dtd("s -> (b, c)*");
        let good = DesignProblem::new(target.clone()).with_function("f", dtd("r -> (b, c)*"));
        let doc = DistributedDoc::parse("s(b c f)", ["f"]).unwrap();
        assert!(agree(&good, &doc));
        // A function returning a lone `b` forest breaks the pairing.
        let bad = DesignProblem::new(target).with_function("f", dtd("r -> b"));
        assert!(!agree(&bad, &doc));
    }

    #[test]
    fn two_call_sites_expand_independently() {
        let target = dtd("s -> a, a");
        let problem = DesignProblem::new(target).with_function("f", dtd("r -> a"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));
    }

    #[test]
    fn typecheck_reuses_the_cached_target() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(!problem.target_cache_ready());
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.target_cache_ready());
        // Repeated decisions hand back the very same determinised target.
        let first = shared_duta(&problem);
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        let second = shared_duta(&problem);
        assert!(std::ptr::eq(first, second), "typecheck must not re-determinise the target");
        // Replacing the target invalidates the cache.
        let mut changed = problem.clone();
        changed.set_doc_schema(dtd("s -> a"));
        assert!(!changed.target_cache_ready());
        assert!(!changed.typecheck(&doc).unwrap().is_valid());
    }

    #[test]
    fn one_determinised_target_is_shared() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let duta = shared_duta(&problem);
        // The embedding, and the copy with the synthesised schema, reuse
        // it …
        let embedded = BoxDesignProblem::from(&problem);
        assert!(std::ptr::eq(duta, embedded.target_cache().duta()));
        let solved = problem.clone().with_function("f", perfect);
        assert!(solved.typecheck(&doc).unwrap().is_valid());
        assert!(std::ptr::eq(duta, shared_duta(&solved)));
        // … as does every later add_function.
        let mut more = solved.clone();
        more.add_function("g", dtd("r -> b"));
        assert!(std::ptr::eq(duta, shared_duta(&more)));
        // A new target schema drops it, in the copy only.
        let mut changed = more.clone();
        changed.set_doc_schema(dtd("s -> a, b*\nb -> c?"));
        assert!(!changed.target_cache_ready());
        assert!(!std::ptr::eq(duta, shared_duta(&changed)));
        assert!(std::ptr::eq(duta, shared_duta(&more)));
    }

    #[test]
    fn verify_local_reuses_cached_reduced_schemas() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?\njunk -> junk"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        let f = Symbol::new("f");
        let first = problem.target_cache().reduced_fun(&f).unwrap() as *const _;
        // The cached reduction dropped the unprofitable `junk` rule.
        assert!(!problem
            .target_cache()
            .reduced_fun(&f)
            .unwrap()
            .schema()
            .alphabet()
            .contains(&Symbol::new("junk")));
        assert!(problem.verify_local(&doc).unwrap().is_valid());
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        let second = problem.target_cache().reduced_fun(&f).unwrap() as *const _;
        assert!(std::ptr::eq(first, second), "verify_local must not re-reduce function schemas");
        // Declaring a new function rebuilds the reduced schemas; the
        // determinised target, which depends on the target alone, is kept.
        let mut changed = problem.clone();
        changed.add_function("g", dtd("r -> b"));
        assert!(changed.target_cache_ready());
        assert!(changed.target_cache().reduced_fun(&Symbol::new("g")).is_some());
    }

    #[test]
    fn extension_nuta_is_memoised_per_document() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let first = problem.extension_nuta(&doc).unwrap();
        let second = problem.extension_nuta(&doc).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same document must reuse the extension automaton");
        // typecheck goes through the same memo.
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(Arc::ptr_eq(&first, &problem.extension_nuta(&doc).unwrap()));
        // A different document gets its own automaton …
        let other = DistributedDoc::parse("s(a b f)", ["f"]).unwrap();
        let third = problem.extension_nuta(&other).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        // … and both stay cached side by side.
        assert!(Arc::ptr_eq(&third, &problem.extension_nuta(&other).unwrap()));
        assert!(Arc::ptr_eq(&first, &problem.extension_nuta(&doc).unwrap()));
        // Clones share the memo until one of them declares a function.
        assert!(Arc::ptr_eq(&first, &problem.clone().extension_nuta(&doc).unwrap()));
        let mut changed = problem.clone();
        changed.add_function("f", dtd("r -> b"));
        assert!(!Arc::ptr_eq(&first, &changed.extension_nuta(&doc).unwrap()));
        // The FIFO is bounded: flooding it evicts the oldest entry.
        for i in 0..crate::boxes::EXT_CACHE_CAP {
            let flood = DistributedDoc::parse(&format!("s(a {} f)", "b ".repeat(i + 2)), ["f"])
                .unwrap();
            problem.extension_nuta(&flood).unwrap();
        }
        assert!(!Arc::ptr_eq(&first, &problem.extension_nuta(&doc).unwrap()));
    }

    #[test]
    fn agreement_on_unproductive_recursive_schemas() {
        // Target with an empty language: `a -> a` never bottoms out, and the
        // start symbol requires an `a`. The kernel r(a) cannot validate; both
        // routes must refute, exercising the `bound_names` fixpoint.
        let empty_target = dtd("r -> a\na -> a");
        let problem = DesignProblem::new(empty_target);
        let doc = DistributedDoc::parse("r(a)", [] as [&str; 0]).unwrap();
        assert!(!agree(&problem, &doc));

        // Target whose unproductive branch is avoidable: `s -> b | a` with
        // `a -> a`; a kernel using only `b` stays valid.
        let avoidable = dtd("s -> b | a\na -> a");
        let problem2 = DesignProblem::new(avoidable.clone());
        assert!(agree(&problem2, &DistributedDoc::parse("s(b)", [] as [&str; 0]).unwrap()));
        assert!(!agree(&problem2, &DistributedDoc::parse("s(a)", [] as [&str; 0]).unwrap()));

        // Function schema with an unproductive-recursive branch: the reduced
        // forest language is just `b`, and the design is valid.
        let problem3 = DesignProblem::new(dtd("s -> b*"))
            .with_function("f", dtd("r -> b | a\na -> a"));
        let doc3 = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        assert!(agree(&problem3, &doc3));

        // Mutually-recursive unproductive function schema: empty language,
        // vacuously valid (no extension exists).
        let problem4 = DesignProblem::new(dtd("s -> a"))
            .with_function("f", dtd("r -> a\na -> b\nb -> a"));
        assert!(agree(&problem4, &doc3));
    }

    #[test]
    fn agreement_when_element_names_overlap_function_names() {
        // The target declares an *element* literally named `f`, while the
        // kernel also calls a *function* named `f`. The docking-point leaf is
        // a call; the trees the call returns contain `f`-elements.
        let target = dtd("s -> f, a\nf -> a?");
        let problem = DesignProblem::new(target.clone())
            .with_function("f", dtd("r -> f\nf -> a?"));
        let doc = DistributedDoc::parse("s(f a)", ["f"]).unwrap();
        assert!(agree(&problem, &doc));

        // An f-forest violating the target's `f` content model is caught.
        let bad = DesignProblem::new(target).with_function("f", dtd("r -> f\nf -> a, a"));
        assert!(!agree(&bad, &doc));

        // Elements whose names textually embed the mangling prefixes used by
        // the extension automaton (`f$…`, `#k…`) must not collide. `$` is
        // not parseable syntax, so the schemas and kernel are built directly.
        let fa = Symbol::new("f$a");
        let mut tricky_target = RDtd::new(dxml_automata::RFormalism::Nre, "s");
        tricky_target.set_rule(
            "s",
            dxml_automata::RSpec::Nre(dxml_automata::Regex::concat(vec![
                dxml_automata::Regex::Sym(fa),
                dxml_automata::Regex::sym("#k0").star(),
            ])),
        );
        let mut gschema = RDtd::new(dxml_automata::RFormalism::Nre, "r");
        gschema.set_rule("r", dxml_automata::RSpec::Nre(dxml_automata::Regex::sym("#k0").star()));
        let tricky = DesignProblem::new(tricky_target).with_function("g", gschema);
        let kernel = dxml_tree::XTree::node(
            Symbol::new("s"),
            vec![dxml_tree::XTree::leaf(fa), dxml_tree::XTree::leaf(Symbol::new("g"))],
        );
        let tricky_doc = DistributedDoc::new(kernel, ["g"]).unwrap();
        assert!(agree(&tricky, &tricky_doc));
    }

    #[test]
    fn extension_nuta_recognises_materialisations() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let ext = problem.extension_nuta(&doc).unwrap();
        assert!(ext.accepts(&parse_term("s(a b b)").unwrap()));
        assert!(ext.accepts(&parse_term("s(a b(c) b)").unwrap()));
        // Not an extension: the forest must contribute exactly two b's.
        assert!(!ext.accepts(&parse_term("s(a b)").unwrap()));
        assert!(!ext.accepts(&parse_term("s(a)").unwrap()));
    }
}
