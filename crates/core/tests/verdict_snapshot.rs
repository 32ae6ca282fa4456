//! Golden verdict snapshot: every decision the DTD front end and its
//! `BoxDesignProblem::from` embedding reach on a fixed corpus, rendered as
//! text and compared byte for byte with `tests/golden/verdicts.txt`.
//!
//! For each case and each front end the snapshot records the `typecheck`
//! counterexample and violation, the `verify_local` verdict and the
//! `perfect_schema` result (or error). Any change to a verdict, a
//! counterexample document, an error message or a synthesised schema shows
//! up as a diff. On a mismatch the actual rendering is written next to the
//! test binaries (`CARGO_TARGET_TMPDIR/verdicts.actual.txt`) for review.
//!
//! The corpus:
//!
//! * `design_workload(n, k, 11)` for n ∈ {4, 8, 16, 32} and k ∈ 1..=4, valid
//!   and under three one-rule tweaks (the target start narrows to `e0 ->
//!   e1`; the last function's forest widens to `(e1 | e2)*`; the last
//!   function's rule for some `e<m>` appends `e1?`), plus two kernels with
//!   one misplaced element each (an `e2` under the root; an `e1` below the
//!   fixed `e1` subtree);
//! * the Eurostat battery: two offices for each of `fDE` and `fFR` under
//!   four kernels;
//! * small hand-written designs, including element names that textually
//!   embed the extension automaton's `f$…` and `#k…` state names.

use std::fmt::Write as _;

use dxml_automata::{RFormalism, RSpec, Regex, Symbol};
use dxml_bench::{design_workload, elem};
use dxml_core::{BoxDesignProblem, DesignProblem, DistributedDoc, TypingVerdict};
use dxml_schema::RDtd;
use dxml_tree::XTree;

const GOLDEN: &str = include_str!("golden/verdicts.txt");

fn dtd(rules: &str) -> RDtd {
    RDtd::parse(RFormalism::Nre, rules).unwrap()
}

fn typing(out: &mut String, verdict: Result<TypingVerdict, dxml_core::DesignError>) {
    match verdict {
        Ok(TypingVerdict::Valid) => writeln!(out, "  typecheck: valid"),
        Ok(TypingVerdict::Invalid { counterexample, violation }) => {
            writeln!(out, "  typecheck: invalid {counterexample}\n    violation: {violation}")
        }
        Err(e) => writeln!(out, "  typecheck: error: {e}"),
    }
    .unwrap();
}

fn schema<S: std::fmt::Debug>(
    out: &mut String,
    f: &Symbol,
    result: Result<S, dxml_core::DesignError>,
) {
    match result {
        Ok(s) => write!(out, "  perfect {f}: {s:?}"),
        Err(e) => writeln!(out, "  perfect {f}: error: {e}"),
    }
    .unwrap();
}

/// Records every decision of both front ends on `(problem, doc)`;
/// `perfect_for` picks the functions whose perfect schema is recorded.
fn record(
    out: &mut String,
    name: &str,
    problem: &DesignProblem,
    doc: &DistributedDoc,
    perfect_for: &[Symbol],
) {
    writeln!(out, "== {name}").unwrap();
    writeln!(out, "dtd").unwrap();
    typing(out, problem.typecheck(doc));
    match problem.verify_local(doc) {
        Ok(v) => writeln!(out, "  verify_local: {v:?}"),
        Err(e) => writeln!(out, "  verify_local: error: {e}"),
    }
    .unwrap();
    for f in perfect_for {
        schema(out, f, problem.perfect_schema(doc, *f));
    }
    let boxed = BoxDesignProblem::from(problem);
    writeln!(out, "box").unwrap();
    typing(out, boxed.typecheck(doc));
    match boxed.verify_local(doc) {
        Ok(v) => writeln!(out, "  verify_local: {v:?}"),
        Err(e) => writeln!(out, "  verify_local: error: {e}"),
    }
    .unwrap();
    for f in perfect_for {
        schema(out, f, boxed.perfect_schema(doc, *f));
    }
}

fn workload_cases(out: &mut String) {
    for n in [4usize, 8, 16, 32] {
        for k in 1..=4usize {
            let (problem, doc) = design_workload(n, k, 11);
            let first = Symbol::new("f0");
            let last = Symbol::new(format!("f{}", k - 1));
            let perfect = if k == 1 { vec![first] } else { vec![first, last] };
            let tag = format!("workload n={n} k={k}");
            record(out, &format!("{tag} valid"), &problem, &doc, &perfect);

            let mut narrowed = problem.clone();
            let mut target = problem.doc_schema().clone();
            target.set_rule(elem(0), RSpec::Nre(Regex::sym(elem(1))));
            narrowed.set_doc_schema(target);
            record(out, &format!("{tag} tweak=narrow-start"), &narrowed, &doc, &perfect);

            let mut widened = problem.clone();
            let mut fun = problem.fun_schema(&last).unwrap().clone();
            fun.set_rule(
                "r",
                RSpec::Nre(Regex::alt(vec![Regex::sym(elem(1)), Regex::sym(elem(2))]).star()),
            );
            widened.add_function(last, fun);
            record(out, &format!("{tag} tweak=widen-forest"), &widened, &doc, &perfect);

            let mut appended = problem.clone();
            let mut fun = problem.fun_schema(&last).unwrap().clone();
            let m = 1 + (n + k) % (n - 1);
            let extra = Regex::sym(elem(1)).opt();
            let re = match fun.has_rule(&elem(m)) {
                true => match fun.content(&elem(m)) {
                    RSpec::Nre(re) => Regex::concat(vec![re, extra]),
                    other => panic!("family rules are expressions, got {other}"),
                },
                false => extra,
            };
            fun.set_rule(elem(m), RSpec::Nre(re));
            appended.add_function(last, fun);
            record(out, &format!("{tag} tweak=append-e1-to-e{m}"), &appended, &doc, &perfect);

            let names: Vec<Symbol> = (0..k).map(|i| Symbol::new(format!("f{i}"))).collect();
            let mut root_kernel = doc.kernel().clone();
            root_kernel.add_child(0, elem(2));
            let root_doc = DistributedDoc::new(root_kernel, names.clone()).unwrap();
            record(out, &format!("{tag} misplaced=e2-under-root"), &problem, &root_doc, &perfect);

            let mut deep_kernel = doc.kernel().clone();
            let fixed = deep_kernel.children(0)[0];
            let node = fixed + deep_kernel.subtree(fixed).size() - 1;
            deep_kernel.add_child(node, elem(1));
            let deep_doc = DistributedDoc::new(deep_kernel, names).unwrap();
            record(out, &format!("{tag} misplaced=e1-below-fixed"), &problem, &deep_doc, &perfect);
        }
    }
}

fn eurostat_cases(out: &mut String) {
    let target = RDtd::parse_w3c(
        RFormalism::Dre,
        r#"<!ELEMENT eurostat (averages, nationalIndex*)>
           <!ELEMENT averages (Good, index+)+>
           <!ELEMENT nationalIndex (country, Good, (index | (value, year)))>
           <!ELEMENT index (value, year)>
           <!ELEMENT country (#PCDATA)>
           <!ELEMENT Good (#PCDATA)>
           <!ELEMENT value (#PCDATA)>
           <!ELEMENT year (#PCDATA)>"#,
    )
    .unwrap();
    let office = |tail: &str| {
        RDtd::parse(
            RFormalism::Dre,
            &format!("natResult -> nationalIndex*\nnationalIndex -> country, Good, index{tail}\nindex -> value, year"),
        )
        .unwrap()
    };
    let offices = [("well", office("")), ("ill", office(", value"))];
    let kernels = [
        "eurostat(averages(Good index(value year)) fDE)",
        "eurostat(averages(Good index(value year)) fDE fFR)",
        "eurostat(averages(Good index(value year)) nationalIndex(country Good value year) fFR)",
        "eurostat(fDE averages(Good index(value year)))",
    ];
    for (a_name, a) in &offices {
        for (b_name, b) in &offices {
            for k in kernels {
                let problem = DesignProblem::new(target.clone())
                    .with_function("fDE", a.clone())
                    .with_function("fFR", b.clone());
                let doc = DistributedDoc::parse(k, ["fDE", "fFR"]).unwrap();
                let called: Vec<Symbol> = doc.called_functions().into_iter().collect();
                record(
                    out,
                    &format!("eurostat fDE={a_name} fFR={b_name} {k}"),
                    &problem,
                    &doc,
                    &called,
                );
            }
        }
    }
}

fn unit_cases(out: &mut String) {
    let none: [&str; 0] = [];
    let cases: Vec<(&str, DesignProblem, DistributedDoc)> = vec![
        (
            "valid typing",
            DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
                .with_function("f", dtd("r -> b, b\nb -> c?")),
            DistributedDoc::parse("s(a f)", ["f"]).unwrap(),
        ),
        (
            "unknown element below a forest",
            DesignProblem::new(dtd("s -> a, b*\nb -> c?"))
                .with_function("f", dtd("r -> b*\nb -> d?")),
            DistributedDoc::parse("s(a f)", ["f"]).unwrap(),
        ),
        (
            "wrong root",
            DesignProblem::new(dtd("s -> a*")),
            DistributedDoc::parse("t(a)", none).unwrap(),
        ),
        (
            "unknown kernel element",
            DesignProblem::new(dtd("s -> a*")),
            DistributedDoc::parse("s(a x)", none).unwrap(),
        ),
        (
            "empty function language",
            DesignProblem::new(dtd("s -> a")).with_function("f", dtd("r -> r")),
            DistributedDoc::parse("s(f)", ["f"]).unwrap(),
        ),
        (
            "missing schema",
            DesignProblem::new(dtd("s -> a")),
            DistributedDoc::parse("s(f)", ["f"]).unwrap(),
        ),
        (
            "interleaved forest good",
            DesignProblem::new(dtd("s -> (b, c)*")).with_function("f", dtd("r -> (b, c)*")),
            DistributedDoc::parse("s(b c f)", ["f"]).unwrap(),
        ),
        (
            "interleaved forest bad",
            DesignProblem::new(dtd("s -> (b, c)*")).with_function("f", dtd("r -> b")),
            DistributedDoc::parse("s(b c f)", ["f"]).unwrap(),
        ),
        (
            "two call sites",
            DesignProblem::new(dtd("s -> a, a")).with_function("f", dtd("r -> a")),
            DistributedDoc::parse("s(f f)", ["f"]).unwrap(),
        ),
        (
            "empty target",
            DesignProblem::new(dtd("r -> a\na -> a")),
            DistributedDoc::parse("r(a)", none).unwrap(),
        ),
        (
            "avoidable unproductive b",
            DesignProblem::new(dtd("s -> b | a\na -> a")),
            DistributedDoc::parse("s(b)", none).unwrap(),
        ),
        (
            "avoidable unproductive a",
            DesignProblem::new(dtd("s -> b | a\na -> a")),
            DistributedDoc::parse("s(a)", none).unwrap(),
        ),
        (
            "unproductive function branch",
            DesignProblem::new(dtd("s -> b*")).with_function("f", dtd("r -> b | a\na -> a")),
            DistributedDoc::parse("s(f)", ["f"]).unwrap(),
        ),
        (
            "mutually unproductive function",
            DesignProblem::new(dtd("s -> a")).with_function("f", dtd("r -> a\na -> b\nb -> a")),
            DistributedDoc::parse("s(f)", ["f"]).unwrap(),
        ),
        (
            "element named like a function",
            DesignProblem::new(dtd("s -> f, a\nf -> a?"))
                .with_function("f", dtd("r -> f\nf -> a?")),
            DistributedDoc::parse("s(f a)", ["f"]).unwrap(),
        ),
        (
            "element named like a function, bad forest",
            DesignProblem::new(dtd("s -> f, a\nf -> a?"))
                .with_function("f", dtd("r -> f\nf -> a, a")),
            DistributedDoc::parse("s(f a)", ["f"]).unwrap(),
        ),
        (
            "interacting docking points",
            DesignProblem::new(dtd("s -> a, a | b, b")),
            DistributedDoc::parse("s(f f)", ["f"]).unwrap(),
        ),
        (
            "fixed sibling function",
            DesignProblem::new(dtd("s -> (b, c)*")).with_function("g", dtd("r -> b")),
            DistributedDoc::parse("s(g f)", ["g", "f"]).unwrap(),
        ),
        (
            "independent kernel violation",
            DesignProblem::new(dtd("s -> x, b*\nx -> a")),
            DistributedDoc::parse("s(x f)", ["f"]).unwrap(),
        ),
        (
            "vacuous sibling",
            DesignProblem::new(dtd("s -> a, b*")).with_function("g", dtd("r -> r")),
            DistributedDoc::parse("s(a f g)", ["f", "g"]).unwrap(),
        ),
        (
            "nested docking parents",
            DesignProblem::new(dtd("s -> t, t\nt -> a*")),
            DistributedDoc::parse("s(t(f) t(f))", ["f"]).unwrap(),
        ),
    ];
    for (name, problem, doc) in &cases {
        let called: Vec<Symbol> = doc.called_functions().into_iter().collect();
        record(out, name, problem, doc, &called);
    }

    // Element names that textually embed the extension automaton's state
    // names (`f$a`, `#k0`); `$` is no parseable syntax, so the schemas and
    // the kernel are built directly.
    let fa = Symbol::new("f$a");
    let mut target = RDtd::new(RFormalism::Nre, "s");
    target.set_rule("s", RSpec::Nre(Regex::concat(vec![Regex::Sym(fa), Regex::sym("#k0").star()])));
    let mut g = RDtd::new(RFormalism::Nre, "r");
    g.set_rule("r", RSpec::Nre(Regex::sym("#k0").star()));
    let tricky = DesignProblem::new(target.clone()).with_function("g", g);
    let kernel =
        XTree::node(Symbol::new("s"), vec![XTree::leaf(fa), XTree::leaf(Symbol::new("g"))]);
    let doc = DistributedDoc::new(kernel, ["g"]).unwrap();
    record(out, "mangled names", &tricky, &doc, &[Symbol::new("g")]);
    let mut bad_g = RDtd::new(RFormalism::Nre, "r");
    bad_g.set_rule("r", RSpec::Nre(Regex::sym("f$a")));
    let tricky_bad = DesignProblem::new(target).with_function("g", bad_g);
    record(out, "mangled names, bad forest", &tricky_bad, &doc, &[Symbol::new("g")]);
}

#[test]
fn verdicts_match_the_golden_snapshot() {
    let mut out = String::new();
    unit_cases(&mut out);
    eurostat_cases(&mut out);
    workload_cases(&mut out);
    if out != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("verdicts.actual.txt");
        std::fs::write(&path, &out).unwrap();
        let line = out
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "at the end".to_string(), |i| format!("at line {}", i + 1));
        panic!(
            "verdicts differ from tests/golden/verdicts.txt {line}; actual output in {}",
            path.display()
        );
    }
}
