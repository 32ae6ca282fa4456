//! Ablation: the global tree-automaton route to typing verification
//! (extension automaton + inclusion — the precursor of the paper's *perfect
//! automaton* construction of Section 6) against the string-inclusion local
//! route, on well-typed and ill-typed variants of the seeded workload.
//!
//! `typecheck` decides on the string route and runs the tree route only on a
//! violation, so the tree-route cases call the inclusion of the extension
//! automaton in the determinised target directly.

use dxml_automata::{Regex, RSpec};
use dxml_bench::{Session, design_workload, elem, section};
use dxml_core::BoxDesignProblem;
use dxml_tree::uta::included_in_duta;

fn main() {
    let mut session = Session::new("ablation_perfect_automaton");
    section("ablation: well-typed workloads (both routes must accept)");
    for n in [4usize, 8, 16] {
        let (problem, doc) = design_workload(n, 2, 5);
        let boxed = BoxDesignProblem::from(&problem);
        let target = boxed.target_cache();
        session.bench(&format!("tree_route/valid/n={n}"), 10, || {
            let ext = problem.extension_nuta(&doc).unwrap();
            assert!(included_in_duta(&ext, target.duta()).is_ok());
        });
        session.bench(&format!("string_route/valid/n={n}"), 10, || {
            assert!(problem.verify_local(&doc).unwrap().is_valid());
        });
    }

    section("ablation: ill-typed workloads (both routes must refute)");
    for n in [4usize, 8, 16] {
        let (mut problem, doc) = design_workload(n, 2, 5);
        // Break one function schema: its forests may start with the start
        // element itself, which the target content model forbids.
        let f = doc.called_functions().into_iter().next().expect("workload has calls");
        let mut broken = problem.fun_schema(&f).expect("workload declares all schemas").clone();
        broken.set_rule("r", RSpec::Nre(Regex::sym(elem(0)).plus()));
        broken.set_rule(elem(0), RSpec::Nre(Regex::Epsilon));
        problem.add_function(f, broken);
        let boxed = BoxDesignProblem::from(&problem);
        let target = boxed.target_cache();
        session.bench(&format!("tree_route/invalid/n={n}"), 10, || {
            let ext = problem.extension_nuta(&doc).unwrap();
            assert!(included_in_duta(&ext, target.duta()).is_err());
        });
        session.bench(&format!("string_route/invalid/n={n}"), 10, || {
            assert!(!problem.verify_local(&doc).unwrap().is_valid());
        });
    }

    section("ablation: extension-automaton construction alone");
    for n in [4usize, 8, 16, 32] {
        let (problem, doc) = design_workload(n, 2, 5);
        session.bench(&format!("extension_nuta/n={n}"), 20, || {
            // `extension_nuta` is memoised per (problem, doc) since PR 3: a
            // fresh problem per iteration keeps this a *construction*
            // measurement, not a cache lookup (that path is timed as
            // `extension_warm` in table4_perfect).
            let mut fresh = dxml_core::DesignProblem::new(problem.doc_schema().clone());
            for (g, schema) in problem.fun_schemas() {
                fresh.add_function(*g, schema.clone());
            }
            fresh.extension_nuta(&doc).unwrap().size()
        });
    }

    session.finish();
}
