//! Table 4 (perfect typing, Section 6): perfect-schema synthesis on the
//! seeded design workload, and the effect of the cached determinised
//! target on repeated typechecking.
//!
//! Besides timing, this target *asserts* the caching contract: repeated
//! `typecheck` calls on the same problem reuse the very same determinised
//! target (pointer identity), and a warm call is never slower than a cold
//! one that has to determinise from scratch.

use dxml_automata::{Regex, RSpec};
use dxml_bench::{design_workload, elem, section, smoke, Session};
use dxml_core::{BoxDesignProblem, DesignProblem};

fn main() {
    let mut session = Session::new("table4_perfect");

    section("table4: perfect-schema synthesis, growing schema size n");
    for n in [4usize, 8, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        let f = doc.called_functions().into_iter().next().expect("workload has calls");
        // The synthesised schema must solve the design it was derived from.
        let schema = problem.perfect_schema(&doc, f).expect("synthesis succeeds");
        let solved = problem.clone().with_function(f, schema);
        assert!(solved.typecheck(&doc).expect("typecheck runs").is_valid());
        session.bench(&format!("perfect_schema/n={n}"), 5, || {
            problem.perfect_schema(&doc, f).expect("synthesis succeeds").size()
        });
    }

    section("table4: cold vs warm typecheck (cached determinised target)");
    for n in [4usize, 8, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        let cold = session.bench(&format!("typecheck_cold/n={n}"), 5, || {
            // A fresh problem per iteration: the OnceLock target cache is
            // empty every time, so each call re-determinises.
            let mut fresh = DesignProblem::new(problem.doc_schema().clone());
            for (g, schema) in problem.fun_schemas() {
                fresh.add_function(*g, schema.clone());
            }
            assert!(fresh.typecheck(&doc).unwrap().is_valid());
        });
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(problem.target_cache_ready(), "first typecheck must populate the cache");
        // The determinised target lives in the embedding; a `From` clone
        // shares it.
        let before = BoxDesignProblem::from(&problem).target_cache().duta() as *const _;
        let warm = session.bench(&format!("typecheck_warm/n={n}"), 5, || {
            assert!(problem.typecheck(&doc).unwrap().is_valid());
        });
        let after = BoxDesignProblem::from(&problem).target_cache().duta() as *const _;
        assert!(
            std::ptr::eq(before, after),
            "repeated typecheck must not re-determinise the target (n={n})"
        );
        // With the cache in place the warm path skips the determinisation
        // entirely; at the largest size the difference must be visible.
        if n == 16 && !smoke() {
            assert!(
                warm.median <= cold.median,
                "warm typecheck ({:?}) slower than cold ({:?}) at n={n}: target \
                 determinisation is being repeated",
                warm.median,
                cold.median
            );
        }
    }

    section("table4: extension automaton memoised per (problem, document)");
    for n in [8usize, 16] {
        let (problem, doc) = design_workload(n, 2, 11);
        let cold = session.bench(&format!("extension_cold/n={n}"), 5, || {
            // A fresh problem per iteration: the per-document memo is empty
            // every time, so each call rebuilds the extension automaton.
            let mut fresh = DesignProblem::new(problem.doc_schema().clone());
            for (g, schema) in problem.fun_schemas() {
                fresh.add_function(*g, schema.clone());
            }
            fresh.extension_nuta(&doc).unwrap().size()
        });
        let first = problem.extension_nuta(&doc).unwrap();
        let warm = session.bench(&format!("extension_warm/n={n}"), 5, || {
            problem.extension_nuta(&doc).unwrap().size()
        });
        // Back-to-back decisions on the same document hand back the very
        // same automaton.
        assert!(
            std::sync::Arc::ptr_eq(&first, &problem.extension_nuta(&doc).unwrap()),
            "repeated decisions must not rebuild the extension automaton (n={n})"
        );
        assert!(problem.typecheck(&doc).unwrap().is_valid());
        assert!(
            std::sync::Arc::ptr_eq(&first, &problem.extension_nuta(&doc).unwrap()),
            "typecheck must go through the per-document memo (n={n})"
        );
        // A valid typecheck never reaches the tree route, so the check above
        // holds trivially; an invalid kernel does reach it. Break one
        // function schema (its forests may start with the start element,
        // which the target content model forbids): after one extension
        // build, the invalid typecheck must be exactly one memo hit.
        let f = doc.called_functions().into_iter().next().expect("workload has calls");
        let mut broken = problem.fun_schema(&f).expect("workload declares all schemas").clone();
        broken.set_rule("r", RSpec::Nre(Regex::sym(elem(0)).plus()));
        broken.set_rule(elem(0), RSpec::Nre(Regex::Epsilon));
        let invalid = problem.clone().with_function(f, broken);
        invalid.extension_nuta(&doc).unwrap();
        let before = invalid.cache_stats();
        assert!(!invalid.typecheck(&doc).unwrap().is_valid());
        let after = invalid.cache_stats();
        assert_eq!(
            (
                after.ext_memo_hits - before.ext_memo_hits,
                after.ext_memo_misses - before.ext_memo_misses
            ),
            (1, 0),
            "an invalid typecheck must go through the per-document memo (n={n})"
        );
        if n == 16 && !smoke() {
            assert!(
                warm.median <= cold.median,
                "warm extension lookup ({:?}) slower than a cold rebuild ({:?}) at n={n}",
                warm.median,
                cold.median
            );
        }
    }

    session.finish();
}
