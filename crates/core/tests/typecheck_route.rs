//! The route `typecheck` takes on both front ends. A valid design is decided
//! by the exact string walk alone, so no extension automaton is built; an
//! invalid one falls through to the tree route, which builds exactly one to
//! render the counterexample document. Pinned through the per-problem
//! extension-memo counters, which stay exact whatever else the process runs.

use dxml_automata::limits::faults;
use dxml_automata::{Budget, Resource};
use dxml_bench::{box_workload, design_workload, elem};
use dxml_core::{BoxDesignProblem, DesignError, DesignProblem, DistributedDoc, TypingVerdict};

/// A valid DTD design with two functions, and the same kernel with an `e2`
/// misplaced under the root.
fn dtd_design() -> (DesignProblem, DistributedDoc, DistributedDoc) {
    let (problem, good) = design_workload(8, 2, 11);
    let mut kernel = good.kernel().clone();
    kernel.add_child(0, elem(2));
    let bad = DistributedDoc::new(kernel, ["f0", "f1"]).unwrap();
    (problem, good, bad)
}

/// A valid design over a specialised EDTD target (`s -> x0 … x5`), and a
/// kernel that docks the call before the fixed children instead of after.
fn edtd_design() -> (BoxDesignProblem, DistributedDoc, DistributedDoc) {
    let (problem, good) = box_workload(6);
    let bad = DistributedDoc::parse("s(f a(e0) a(e1) a(e2))", ["f"]).unwrap();
    (problem, good, bad)
}

/// A valid `typecheck` builds no extension automaton; an invalid one builds
/// exactly one, and repeating it is served by the memo.
fn assert_string_first(
    front_end: &str,
    typecheck: impl Fn(&DistributedDoc) -> TypingVerdict,
    misses: impl Fn() -> u64,
    good: &DistributedDoc,
    bad: &DistributedDoc,
) {
    let before = misses();
    assert!(typecheck(good).is_valid(), "{front_end}: the design is valid");
    assert!(typecheck(good).is_valid(), "{front_end}: the design is valid");
    assert_eq!(
        misses(),
        before,
        "{front_end}: a valid typecheck must build no extension automaton"
    );
    assert!(!typecheck(bad).is_valid(), "{front_end}: the kernel is invalid");
    assert_eq!(
        misses(),
        before + 1,
        "{front_end}: an invalid typecheck builds one extension automaton"
    );
    assert!(!typecheck(bad).is_valid(), "{front_end}: the kernel is invalid");
    assert_eq!(misses(), before + 1, "{front_end}: a repeated invalid typecheck hits the memo");
}

#[test]
fn valid_typecheck_builds_no_extension_automaton() {
    let (problem, good, bad) = dtd_design();
    assert_string_first(
        "DTD",
        |doc| problem.typecheck(doc).unwrap(),
        || problem.cache_stats().ext_memo_misses,
        &good,
        &bad,
    );

    // The embedding gets a problem of its own: clones share the memo.
    let (problem, good, bad) = dtd_design();
    let boxed = BoxDesignProblem::from(&problem);
    assert_string_first(
        "embedding",
        |doc| boxed.typecheck(doc).unwrap(),
        || boxed.cache_stats().ext_memo_misses,
        &good,
        &bad,
    );

    let (problem, good, bad) = edtd_design();
    assert_string_first(
        "EDTD",
        |doc| problem.typecheck(doc).unwrap(),
        || problem.cache_stats().ext_memo_misses,
        &good,
        &bad,
    );
}

/// A governed valid `typecheck` on a cold problem trips in the walk's
/// target build, before any extension automaton exists, and the same
/// problem then decides both kernels correctly.
fn assert_trips_and_recovers(
    front_end: &str,
    typecheck: impl Fn(&DistributedDoc, &Budget) -> Result<TypingVerdict, DesignError>,
    misses: impl Fn() -> u64,
    good: &DistributedDoc,
    bad: &DistributedDoc,
) {
    match typecheck(good, &faults::budget_tripping_after(10)) {
        Err(DesignError::BudgetExceeded { resource: Resource::Steps, limit: 10, .. }) => {}
        other => panic!("{front_end}: expected a steps trip, got {other:?}"),
    }
    assert_eq!(misses(), 0, "{front_end}: the trip must come before any extension automaton");
    let unlimited = Budget::unlimited();
    assert!(typecheck(good, &unlimited).unwrap().is_valid(), "{front_end}: valid after the trip");
    assert!(!typecheck(bad, &unlimited).unwrap().is_valid(), "{front_end}: invalid after the trip");
}

#[test]
fn governed_typecheck_trips_and_the_same_problem_recovers() {
    let (problem, good, bad) = dtd_design();
    assert_trips_and_recovers(
        "DTD",
        |doc, budget| problem.typecheck_with_budget(doc, budget),
        || problem.cache_stats().ext_memo_misses,
        &good,
        &bad,
    );

    let (problem, good, bad) = dtd_design();
    let boxed = BoxDesignProblem::from(&problem);
    assert_trips_and_recovers(
        "embedding",
        |doc, budget| boxed.typecheck_with_budget(doc, budget),
        || boxed.cache_stats().ext_memo_misses,
        &good,
        &bad,
    );

    let (problem, good, bad) = edtd_design();
    assert_trips_and_recovers(
        "EDTD",
        |doc, budget| problem.typecheck_with_budget(doc, budget),
        || problem.cache_stats().ext_memo_misses,
        &good,
        &bad,
    );
}
