//! Perfect typing — maximal function-schema synthesis (Section 6), for the
//! DTD front end.
//!
//! [`DesignProblem::typecheck`] answers "does this design typecheck?".
//! This module answers the question the paper is actually about: *what are
//! the most permissive function schemas for which it would?* For a DTD
//! target `τ` and a function `f` docking into the kernel, the **perfect
//! schema** of `f` is the schema with the largest content models such that
//! the design still typechecks when `f` is given that schema (the other
//! functions keep their declared schemas). The R-EDTD counterpart is
//! [`crate::BoxDesignProblem::perfect_schema`].
//!
//! # Construction
//!
//! The synthesis reads the string-walk artefacts cached in
//! [`crate::design::TargetCache`] (the per-element content NFAs, their
//! memoised determinisations and the productive names) and proceeds in two
//! interleaved phases, in the style of implicit-hitting-set abduction:
//!
//! 1. **Candidate construction.** Inside the forests `f` may return, target
//!    validation is per-node-local, so the maximal content model of an
//!    element `a` is the target's own `π(a)` restricted to productive
//!    names. The only genuinely constrained language is the *forest*
//!    language `W` contributed at the docking points: for a docking point
//!    under a kernel node labelled `b`, with sibling languages `P` (to the
//!    left) and `S` (to the right), the admissible words are the universal
//!    residual `{ w : ∀u∈P, ∀v∈S, u·w·v ∈ π(b) }`
//!    ([`dxml_automata::Nfa::universal_context_residual`]). When `f` docks
//!    *several times under the same parent*, the candidate is the uniform
//!    residual instead ([`dxml_automata::Nfa::uniform_context_residual`]):
//!    the words `w` whose substitution at *every* docking point stays in
//!    `π(b)`. The candidate `U` is the intersection over all parents.
//!
//!    `U` is an upper bound by construction: a forest language `V` is
//!    valid iff every combination of its words at the docking points
//!    validates, and since singletons only shrink the combination space,
//!    every `w ∈ V` has `{w}` valid, i.e. `V ⊆ U`. Consequently **a
//!    maximal schema exists iff `U` itself is valid, and is then exactly
//!    `U`** — mixed-word combinations from `U` are what the oracle below
//!    decides.
//! 2. **Refute or confirm.** The candidate is submitted to the
//!    [`DesignProblem::typecheck`] oracle — the engine's tree route, run on
//!    a copy of the problem that shares its determinised target. A
//!    counterexample either exposes a violation *independent* of `f`
//!    (found by the [`DesignProblem::verify_local`] walk with `f`'s docking
//!    parents skipped; only the empty forest language then typechecks,
//!    vacuously), or proves — by the maximality argument above — that
//!    incomparable maximal languages exist
//!    ([`DesignError::NoMaximalSchema`]: e.g. `(a,a) | (b,b)` with two `f`
//!    docking points, where `{a}` and `{b}` are both maximal), or, when
//!    neither explanation applies, reveals a broken invariant of the
//!    construction, reported as [`DesignError::InvariantViolation`] rather
//!    than being papered over.
//!
//! # Worked example (the paper's Eurostat scenario, Figures 1–4)
//!
//! The global type requires `eurostat → averages, nationalIndex*`; the
//! kernel stores the averages locally and docks the per-country data at a
//! single call `fNCP`. The perfect schema for `fNCP` is then: forests of
//! `nationalIndex*`, with every inner element free to use the target's own
//! content models.
//!
//! ```
//! use dxml_automata::RFormalism;
//! use dxml_core::{DesignProblem, DistributedDoc};
//! use dxml_schema::RDtd;
//!
//! let target = RDtd::parse(
//!     RFormalism::Nre,
//!     "eurostat -> averages, nationalIndex*\n\
//!      averages -> (Good, index+)+\n\
//!      nationalIndex -> country, Good, (index | value, year)\n\
//!      index -> value, year",
//! )
//! .unwrap();
//! let problem = DesignProblem::new(target);
//! let doc = DistributedDoc::parse(
//!     "eurostat(averages(Good index(value year)) fNCP)",
//!     ["fNCP"],
//! )
//! .unwrap();
//!
//! let perfect = problem.perfect_schema(&doc, "fNCP").unwrap();
//! // The forest language is nationalIndex*: both the old `index` format and
//! // the newer `value, year` format are admitted …
//! let forest = perfect.content(perfect.start()).to_nfa();
//! let national = |n: usize| vec![dxml_automata::Symbol::new("nationalIndex"); n];
//! assert!(forest.accepts(&national(0)));
//! assert!(forest.accepts(&national(3)));
//! // … and the design typechecks with the synthesised schema.
//! let solved = problem.clone().with_function("fNCP", perfect);
//! assert!(solved.typecheck(&doc).unwrap().is_valid());
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dxml_automata::{Alphabet, Budget, Nfa, RFormalism, RSpec, Symbol};
use dxml_schema::RDtd;
use dxml_tree::NodeId;

use crate::design::{child_language, DesignProblem, ReducedFun, TargetCache, TypingVerdict};
use crate::doc::DistributedDoc;
use crate::error::DesignError;

impl DesignProblem {
    /// Computes the **perfect schema** of `function`: the schema with the
    /// largest content models under which the design still typechecks, the
    /// other functions keeping their declared schemas (Section 6).
    ///
    /// The returned [`RDtd`]'s start symbol is a fresh name; its start
    /// content model is the maximal *forest* language of the docking
    /// points, and every other rule is the target's content model of that
    /// element restricted to productive names. Any schema the design
    /// typechecks with is a sub-schema of the result, and enlarging any
    /// returned content model by a single word over the schema's element
    /// names breaks typechecking (the property the tests assert).
    ///
    /// # Errors
    ///
    /// * [`DesignError::FunctionNotCalled`] — `function` labels no docking
    ///   point of `doc`, so every schema typechecks and no maximal one
    ///   exists.
    /// * [`DesignError::MissingFunctionSchema`] — another called function
    ///   has no declared schema.
    /// * [`DesignError::NoMaximalSchema`] — no single most-permissive
    ///   schema exists: either another function's language is empty (the
    ///   design is vacuous and every schema typechecks), or the docking
    ///   points of `function` interact through a content model with several
    ///   incomparable maximal languages.
    /// * [`DesignError::InvariantViolation`] — the typecheck oracle refuted
    ///   a converged candidate for a reason the construction cannot
    ///   explain; a bug in this library, never a property of the input.
    pub fn perfect_schema(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
    ) -> Result<RDtd, DesignError> {
        self.perfect_schema_with_budget(doc, function, &Budget::unlimited())
    }

    /// Governed variant of [`DesignProblem::perfect_schema`]: the residual
    /// constructions, the cached determinisations and the confirming
    /// typecheck oracle all charge `budget`, and a trip surfaces as
    /// [`DesignError::BudgetExceeded`]. A trip leaves the problem's caches
    /// unpoisoned: retrying the same synthesis with a larger budget (or the
    /// unlimited default) succeeds and agrees with the ungoverned result.
    ///
    /// # Errors
    ///
    /// Everything [`DesignProblem::perfect_schema`] reports, plus
    /// [`DesignError::BudgetExceeded`].
    pub fn perfect_schema_with_budget(
        &self,
        doc: &DistributedDoc,
        function: impl Into<Symbol>,
        budget: &Budget,
    ) -> Result<RDtd, DesignError> {
        let _span = dxml_telemetry::span(dxml_telemetry::SpanKind::PerfectSchema);
        budget.check_interrupts()?;
        let f = function.into();
        let kernel = doc.kernel();

        let docking = doc.docking_points(&f)?;

        // Reduced schemas and forest languages of the *other* called
        // functions, straight from the problem cache (reduced once per
        // problem). An empty one makes the design vacuous: every schema
        // for `f` typechecks and no maximal schema exists.
        let cache = self.target_cache_with_budget(budget)?;
        let mut siblings: BTreeMap<Symbol, &ReducedFun> = BTreeMap::new();
        for g in doc.called_functions() {
            if g == f {
                continue;
            }
            let reduced = cache
                .reduced_fun(&g)
                .ok_or(DesignError::MissingFunctionSchema { function: g })?;
            if reduced.language_is_empty() {
                return Err(DesignError::NoMaximalSchema { function: f });
            }
            siblings.insert(g, reduced);
        }
        let productive = Alphabet::from_iter(cache.productive().iter().cloned());

        // The candidate: intersection over all parents of the residual
        // languages, seeded with all words over productive names.
        let tau = self.doc_schema();
        let mut w = Nfa::sigma_star(&productive);
        for (&parent, positions) in &docking {
            let label = kernel.label(parent);
            if !tau.alphabet().contains(label) {
                // The parent element itself is unknown to the target: no
                // forest whatsoever can make the design typecheck.
                w = Nfa::empty();
                break;
            }
            // The fixed-language segments between consecutive docking
            // points (and before the first / after the last one).
            let children = kernel.children(parent);
            let segment = |range: &[NodeId]| {
                range.iter().fold(Nfa::epsilon(), |acc, &c| {
                    acc.concat(&child_language(kernel.label(c), &siblings))
                })
            };
            let mut contexts: Vec<Nfa> = Vec::with_capacity(positions.len() + 1);
            let mut prev = 0usize;
            for &position in positions {
                contexts.push(segment(&children[prev..position]));
                prev = position + 1;
            }
            contexts.push(segment(&children[prev..]));
            // The determinised content model comes from the problem cache:
            // synthesis re-enters here once per docking parent and once per
            // synthesised function, but each content model is determinised
            // at most once per problem.
            let content = cache.content_dfa_with_budget(label, budget)?;
            let residual = if positions.len() == 1 {
                content.universal_context_residual_with_budget(&contexts[0], &contexts[1], budget)
            } else {
                content.uniform_context_residual_with_budget(&contexts, budget)
            }?;
            w = w.intersect(&residual);
            if w.is_empty() {
                break;
            }
        }
        self.confirm_candidate(doc, &f, &docking, &siblings, &w, cache, budget)
    }

    /// Perfect schemas for every called function of `doc`, each synthesised
    /// with the other functions keeping their declared schemas.
    pub fn perfect_schemas(
        &self,
        doc: &DistributedDoc,
    ) -> Result<BTreeMap<Symbol, RDtd>, DesignError> {
        doc.called_functions()
            .into_iter()
            .map(|f| self.perfect_schema(doc, f).map(|s| (f, s)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Candidate construction
    // ------------------------------------------------------------------

    /// Materialises the candidate forest language `w` as a schema: a fresh
    /// start symbol whose content model is `w`, plus one rule per element
    /// name reachable from `w`, carrying the target's content model of that
    /// element restricted to productive names.
    fn build_perfect(&self, w: &Nfa, cache: &TargetCache) -> RDtd {
        let start = fresh_start(self.doc_schema().alphabet());
        let mut schema = RDtd::new(RFormalism::Nfa, start.as_str());
        let trimmed = w.trim();
        let mut queue: VecDeque<Symbol> = trimmed.alphabet().iter().cloned().collect();
        let mut seen: BTreeSet<Symbol> = queue.iter().cloned().collect();
        schema.set_rule(start.as_str(), RSpec::Nfa(trimmed));
        while let Some(name) = queue.pop_front() {
            let content = cache
                .content_nfa(&name)
                .filter_symbols(|s| cache.productive().contains(s))
                .trim();
            for next in content.alphabet().iter() {
                if seen.insert(*next) {
                    queue.push_back(*next);
                }
            }
            schema.set_rule(name, RSpec::Nfa(content));
        }
        schema
    }

    // ------------------------------------------------------------------
    // The typecheck oracle
    // ------------------------------------------------------------------

    /// Submits the candidate to the typecheck oracle. On refutation the
    /// counterexample is explained: a violation independent of `f` means
    /// only the empty forest language typechecks (vacuously); otherwise,
    /// for interacting docking points, the refutation *proves* incomparable
    /// maximal languages exist (the candidate is an upper bound on every
    /// valid forest language); any other refutation is a broken invariant
    /// of the construction.
    #[allow(clippy::too_many_arguments)] // internal: the synthesis walk's full working set
    fn confirm_candidate(
        &self,
        doc: &DistributedDoc,
        f: &Symbol,
        docking: &BTreeMap<NodeId, Vec<usize>>,
        siblings: &BTreeMap<Symbol, &ReducedFun>,
        w: &Nfa,
        cache: &TargetCache,
        budget: &Budget,
    ) -> Result<RDtd, DesignError> {
        let schema = self.build_perfect(w, cache);
        let candidate = self.clone().with_function(*f, schema.clone());
        match candidate.typecheck_with_budget(doc, budget)? {
            TypingVerdict::Valid => Ok(schema),
            TypingVerdict::Invalid { counterexample, .. } => {
                let independent = self.local_violation(
                    doc,
                    cache,
                    siblings,
                    |n| docking.contains_key(&n),
                    budget,
                )?;
                if independent.is_some() {
                    let empty = self.build_perfect(&Nfa::empty(), cache);
                    let check = self.clone().with_function(*f, empty.clone());
                    match check.typecheck_with_budget(doc, budget)? {
                        TypingVerdict::Valid => Ok(empty),
                        TypingVerdict::Invalid { counterexample, .. } => {
                            Err(DesignError::InvariantViolation {
                                detail: format!(
                                    "the empty forest language for `{f}` still admits the \
                                     invalid extension `{counterexample}`"
                                ),
                            })
                        }
                    }
                } else if docking.values().any(|positions| positions.len() > 1) {
                    // Several docking points share a parent: the refuted
                    // upper bound proves incomparable maximal languages.
                    Err(DesignError::NoMaximalSchema { function: *f })
                } else {
                    Err(DesignError::InvariantViolation {
                        detail: format!(
                            "typecheck refuted the maximal perfect candidate for `{f}` \
                             with `{counterexample}`"
                        ),
                    })
                }
            }
        }
    }
}

/// A start name for a synthesised schema that collides with no name in
/// `taken`: `result`, extended by underscores as needed.
pub(crate) fn fresh_start(taken: &Alphabet) -> String {
    let mut start = String::from("result");
    while taken.contains(&Symbol::new(&start)) {
        start.push('_');
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::equiv::included as str_included;
    use dxml_automata::symbol::word;

    fn dtd(rules: &str) -> RDtd {
        RDtd::parse(RFormalism::Nre, rules).unwrap()
    }

    fn solve(problem: &DesignProblem, doc: &DistributedDoc, f: &str, schema: RDtd) -> bool {
        problem
            .clone()
            .with_function(f, schema)
            .typecheck(doc)
            .unwrap()
            .is_valid()
    }

    #[test]
    fn single_docking_point_residual() {
        // τ(s) = a, b* and the kernel is s(a f): the forest language is b*.
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&[]));
        assert!(forest.accepts(&word("b b b")));
        assert!(!forest.accepts(&word("a")));
        assert!(!forest.accepts(&word("b a")));
        // The inner `b` elements inherit the target's content model c?.
        let b_content = perfect.content(&Symbol::new("b")).to_nfa();
        assert!(b_content.accepts(&[]));
        assert!(b_content.accepts(&word("c")));
        assert!(!b_content.accepts(&word("c c")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn perfect_schema_respects_fixed_sibling_functions() {
        // τ(s) = (b, c)* with kernel s(g f): g is declared to return a
        // single `b`, so f must contribute c (b c)*.
        let problem = DesignProblem::new(dtd("s -> (b, c)*")).with_function("g", dtd("r -> b"));
        let doc = DistributedDoc::parse("s(g f)", ["g", "f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&word("c")));
        assert!(forest.accepts(&word("c b c")));
        assert!(!forest.accepts(&[]));
        assert!(!forest.accepts(&word("b c")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn unproductive_target_names_are_excluded() {
        // τ(s) = (a | d)* but d -> d is unproductive: the perfect forest
        // language is a*, and `d` does not appear in the schema at all.
        let problem = DesignProblem::new(dtd("s -> (a | d)*\nd -> d"));
        let doc = DistributedDoc::parse("s(f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&word("a a")));
        assert!(!forest.accepts(&word("d")));
        assert!(!perfect.alphabet().contains(&Symbol::new("d")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn independent_violations_force_the_empty_forest() {
        // The kernel node `x` violates τ no matter what f returns, so only
        // the empty forest language (no extension at all) typechecks.
        let problem = DesignProblem::new(dtd("s -> x, b*\nx -> a"));
        let doc = DistributedDoc::parse("s(x f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        assert!(perfect.content(perfect.start()).to_nfa().is_empty());
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn uncallable_and_vacuous_designs_are_errors() {
        let problem = DesignProblem::new(dtd("s -> a, b*"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(matches!(
            problem.perfect_schema(&doc, "g"),
            Err(DesignError::FunctionNotCalled { .. })
        ));
        // `a` is an element of the kernel, not a declared function.
        assert!(matches!(
            problem.perfect_schema(&doc, "a"),
            Err(DesignError::FunctionNotCalled { .. })
        ));
        // A sibling function with an empty language makes the design
        // vacuous: every schema typechecks, no maximal one exists.
        let vacuous = DesignProblem::new(dtd("s -> a, b*")).with_function("g", dtd("r -> r"));
        let doc2 = DistributedDoc::parse("s(a f g)", ["f", "g"]).unwrap();
        assert!(matches!(
            vacuous.perfect_schema(&doc2, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
        // A sibling function without a schema is reported as missing.
        let missing = DesignProblem::new(dtd("s -> a, b*"));
        assert!(matches!(
            missing.perfect_schema(&doc2, "f"),
            Err(DesignError::MissingFunctionSchema { .. })
        ));
    }

    #[test]
    fn interacting_docking_points_have_no_maximum() {
        // τ(s) = (a, a) | (b, b) with kernel s(f f): {a} and {b} are both
        // maximal forest languages, so no single maximal schema exists.
        let problem = DesignProblem::new(dtd("s -> a, a | b, b"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        assert!(matches!(
            problem.perfect_schema(&doc, "f"),
            Err(DesignError::NoMaximalSchema { .. })
        ));
    }

    #[test]
    fn compatible_repeated_docking_points_converge() {
        // τ(s) = a* with kernel s(f f): the candidate a* is valid as-is.
        let problem = DesignProblem::new(dtd("s -> a*"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&[]));
        assert!(forest.accepts(&word("a a a")));
        assert!(!forest.accepts(&word("b")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn repeated_docking_points_with_unique_empty_maximum() {
        // τ(s) = a with kernel s(f f): no word can be contributed twice and
        // concatenate to the single `a`, so the *unique* maximal forest
        // language is empty — not a NoMaximalSchema situation.
        let problem = DesignProblem::new(dtd("s -> a"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        assert!(perfect.content(perfect.start()).to_nfa().is_empty());
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn repeated_docking_points_with_nonempty_uniform_maximum() {
        // τ(s) = (a, b)* with kernel s(f f): the uniform candidate (ab)* is
        // closed under concatenation, hence valid — and it is the unique
        // maximum, which the plain two-sided residual can never find.
        let problem = DesignProblem::new(dtd("s -> (a, b)*"));
        let doc = DistributedDoc::parse("s(f f)", ["f"]).unwrap();
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let forest = perfect.content(perfect.start()).to_nfa();
        assert!(forest.accepts(&[]));
        assert!(forest.accepts(&word("a b")));
        assert!(forest.accepts(&word("a b a b")));
        assert!(!forest.accepts(&word("a")));
        assert!(!forest.accepts(&word("b a")));
        assert!(solve(&problem, &doc, "f", perfect));
    }

    #[test]
    fn perfect_schemas_covers_every_called_function() {
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b"))
            .with_function("g", dtd("r -> b"));
        let doc = DistributedDoc::parse("s(a f g)", ["f", "g"]).unwrap();
        let all = problem.perfect_schemas(&doc).unwrap();
        assert_eq!(all.len(), 2);
        for (f, schema) in &all {
            assert!(solve(&problem, &doc, f.as_str(), schema.clone()), "function {f}");
        }
    }

    #[test]
    fn declared_schemas_are_subsumed_by_the_perfect_one() {
        // Whenever the design typechecks with the declared schema, that
        // schema's forest language is included in the perfect one.
        let problem = DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
            .with_function("f", dtd("r -> b, b\nb -> c?"));
        let doc = DistributedDoc::parse("s(a f)", ["f"]).unwrap();
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        let perfect = problem.perfect_schema(&doc, "f").unwrap();
        let declared = problem.fun_schema(&Symbol::new("f")).unwrap();
        let declared_forest = declared.content(declared.start()).to_nfa();
        let perfect_forest = perfect.content(perfect.start()).to_nfa();
        assert!(str_included(&declared_forest, &perfect_forest).is_ok());
    }
}
