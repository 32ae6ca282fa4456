//! Seeded input generators and the compact-syntax renderer.
//!
//! Everything here runs outside the timed spans. The design families build
//! on `dxml_bench::design_workload` and `dxml_bench::box_workload`; the renderer
//! turns a generated [`RDtd`] into the compact rule syntax that
//! [`RDtd::parse`] reads, because `RDtd`'s `Display` prints its debug form
//! (`nRE-DTD with start …`), which the parser rejects.

use std::fmt::Write as _;

use dxml_automata::{RFormalism, RSpec, Regex, Symbol};
use dxml_bench::{design_workload, elem};
use dxml_core::BoxDesignProblem;
use dxml_schema::{RDtd, REdtd};
use dxml_tree::generate::SplitRng;
use dxml_tree::XTree;

/// A generator stream seeded from `(seed, stream)`, so independent
/// decisions draw from independent sequences.
pub fn rng(seed: u64, stream: u64) -> SplitRng {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finaliser: nearby seeds give unrelated streams.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SplitRng::new(z ^ (z >> 31))
}

/// A uniformly shuffled `0..len`.
pub fn permutation(rng: &mut SplitRng, len: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Blocked randomisation: every block of `len` consecutive ops holds each
/// slot `0..len` exactly once, in a seeded order. Drawing a mix property
/// from the slot keeps each run's composition fixed while the seed still
/// decides which op gets which property.
pub struct Blocks {
    seed: u64,
    stream: u64,
    len: usize,
    block: usize,
    perm: Vec<usize>,
}

impl Blocks {
    pub fn new(seed: u64, stream: u64, len: usize) -> Blocks {
        Blocks { seed, stream, len, block: usize::MAX, perm: Vec::new() }
    }

    /// The slot of op `i`.
    pub fn slot(&mut self, i: usize) -> usize {
        let block = i / self.len;
        if block != self.block {
            let mut r = rng(self.seed, self.stream.wrapping_add(block as u64 * 7919));
            self.perm = permutation(&mut r, self.len);
            self.block = block;
        }
        self.perm[i % self.len]
    }
}

/// Spreads `slot` of `slots` over `lo..=hi`, with a seeded jitter inside
/// the slot's stratum.
pub fn stratified(slot: usize, slots: usize, lo: usize, hi: usize, rng: &mut SplitRng) -> usize {
    let width = hi - lo + 1;
    let base = slot * width / slots;
    let next = ((slot + 1) * width / slots).max(base + 1);
    lo + base + rng.below(next - base)
}

// ----------------------------------------------------------------------
// Compact syntax
// ----------------------------------------------------------------------

/// Renders a DTD in the compact rule syntax (`name -> content`, start rule
/// first). Names without a rule are leaf-only and appear only on
/// right-hand sides, which is how the parser reads them back.
///
/// # Panics
///
/// Panics on a content model that is not an expression; the generators
/// only build expression content models.
pub fn render_dtd(dtd: &RDtd) -> String {
    let mut out = String::new();
    let start = *dtd.start();
    let mut line = |name: &Symbol, spec: &RSpec| {
        let re = match spec {
            RSpec::Nre(re) | RSpec::Dre(re) => re,
            other => panic!("cannot render the automaton content model {other}"),
        };
        let _ = write!(out, "{name} -> ");
        render_regex(re, 0, &mut out);
        out.push('\n');
    };
    line(&start, &dtd.content(&start));
    for (name, spec) in dtd.rules() {
        if *name != start {
            line(name, spec);
        }
    }
    out
}

/// Writes `re` with the fewest parentheses the parser needs: alternation
/// binds loosest, then `,` concatenation, then the postfix operators.
fn render_regex(re: &Regex, parent: u8, out: &mut String) {
    let prec = match re {
        Regex::Alt(_) => 0,
        Regex::Concat(_) => 1,
        Regex::Star(_) | Regex::Plus(_) | Regex::Opt(_) => 2,
        Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 3,
    };
    if prec < parent {
        out.push('(');
    }
    match re {
        Regex::Empty => out.push('∅'),
        Regex::Epsilon => out.push('ε'),
        Regex::Sym(s) => out.push_str(s.as_str()),
        Regex::Concat(parts) | Regex::Alt(parts) => {
            let sep = if prec == 0 { " | " } else { ", " };
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                render_regex(p, prec + 1, out);
            }
        }
        Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => {
            render_regex(r, 3, out);
            out.push(match re {
                Regex::Star(_) => '*',
                Regex::Plus(_) => '+',
                _ => '?',
            });
        }
    }
    if prec < parent {
        out.push(')');
    }
}

// ----------------------------------------------------------------------
// DTD design family
// ----------------------------------------------------------------------

/// A DTD design from `dxml_bench::design_workload`: the `dtd_family`
/// target with the start rule `e0 -> e1+`, and functions `f<i>` returning
/// `r`-rooted forests of `e1`-trees under the family rules. Only the
/// forests are swapped: `e1*`, `e1+`, `e1?` or `e1` by `i mod 4`, so every
/// declared function still fits under `e0` and the design is valid until a
/// tweak breaks it.
pub struct DtdDesign {
    pub n: usize,
    pub target: RDtd,
    pub funs: Vec<(Symbol, RDtd)>,
    /// A shortest valid `e1` subtree, the kernel's fixed content.
    pub e1_tree: XTree,
}

pub fn fun_name(i: usize) -> Symbol {
    Symbol::new(format!("f{i}"))
}

impl DtdDesign {
    pub fn new(n: usize, fns: usize, seed: u64) -> DtdDesign {
        let (problem, doc) = design_workload(n, fns, seed);
        // `design_workload`'s kernel grafts the sampled `e1` tree first.
        let kernel = doc.kernel();
        let e1_tree = kernel.subtree(kernel.children(0)[0]);
        let funs = (0..fns)
            .map(|i| {
                let f = fun_name(i);
                let mut schema =
                    problem.fun_schema(&f).expect("design_workload declares f0…").clone();
                let e1 = Regex::sym(elem(1));
                let forest = match i % 4 {
                    0 => e1.star(),
                    1 => e1.plus(),
                    2 => e1.opt(),
                    _ => e1,
                };
                schema.set_rule("r", RSpec::Nre(forest));
                (f, schema)
            })
            .collect();
        DtdDesign { n: n.max(3), target: problem.doc_schema().clone(), funs, e1_tree }
    }

    /// Applies one of the three one-rule tweaks, each of which makes an
    /// `e0`-kernel that calls every function ill-typed:
    ///
    /// * `0` — the target start rule narrows to `e0 -> e1`, while the kernel
    ///   holds a fixed `e1` and every function can add another;
    /// * `1` — a function's forest widens to `(e1 | e2)*`, but `e0` admits
    ///   only `e1` children;
    /// * `2` — a function's rule for some `e<k>` (k ≥ 1) appends `e1?`,
    ///   a child no family rule admits below `e0`.
    pub fn tweak(&mut self, kind: usize, rng: &mut SplitRng) {
        let f = rng.below(self.funs.len());
        match kind % 3 {
            0 => self.target.set_rule(elem(0), RSpec::Nre(Regex::sym(elem(1)))),
            1 => {
                let forest = Regex::alt(vec![Regex::sym(elem(1)), Regex::sym(elem(2))]).star();
                self.funs[f].1.set_rule("r", RSpec::Nre(forest));
            }
            _ => {
                let k = 1 + rng.below(self.n - 1);
                let schema = &mut self.funs[f].1;
                let orig = match schema.has_rule(&elem(k)) {
                    true => match schema.content(&elem(k)) {
                        RSpec::Nre(re) => Some(re),
                        _ => unreachable!("family rules are expressions"),
                    },
                    false => None,
                };
                let extra = Regex::sym(elem(1)).opt();
                let re = match orig {
                    Some(re) => Regex::concat(vec![re, extra]),
                    None => extra,
                };
                schema.set_rule(elem(k), RSpec::Nre(re));
            }
        }
    }

    /// A kernel `e0(…)` whose children are `fixed` copies of the `e1`
    /// subtree and one call per entry of `calls`, in a seeded order (one
    /// fixed `e1` always comes first so `e1+` holds whatever the calls
    /// return).
    pub fn kernel(&self, calls: &[Symbol], fixed: usize, rng: &mut SplitRng) -> XTree {
        let mut items: Vec<Option<Symbol>> = calls.iter().copied().map(Some).collect();
        items.extend((1..fixed.max(1)).map(|_| None));
        let order = permutation(rng, items.len());
        let mut kernel = XTree::leaf(elem(0));
        kernel.graft(0, &self.e1_tree);
        for i in order {
            match items[i] {
                Some(f) => {
                    kernel.add_child(0, f);
                }
                None => {
                    kernel.graft(0, &self.e1_tree);
                }
            }
        }
        kernel
    }

    pub fn fun_names(&self) -> Vec<Symbol> {
        self.funs.iter().map(|(f, _)| *f).collect()
    }
}

/// Makes a valid `e0` kernel ill-typed by one misplaced element:
/// `kind` 0 adds an `e2` leaf under the root (`e0` admits only `e1`),
/// otherwise an `e1` leaf is appended below a node of the first fixed `e1`
/// subtree (no family rule admits `e1` below `e1`…`e<n-1>`).
pub fn misplace(kernel: &mut XTree, kind: usize, rng: &mut SplitRng) {
    match kind % 2 {
        0 => {
            kernel.add_child(0, elem(2));
        }
        _ => {
            // A grafted subtree occupies the contiguous ids `first..first+size`.
            let first = kernel.children(0)[0];
            let node = first + rng.below(kernel.subtree(first).size());
            kernel.add_child(node, elem(1));
        }
    }
}

// ----------------------------------------------------------------------
// Box designs
// ----------------------------------------------------------------------

/// The `box_workload(n)` design: the specialised target `s -> x0 … x(n-1)`
/// (each `xi` an `a` with one `ei` leaf), a kernel holding the first half
/// and one call `f` supplying the rest. With `tweak`, `f`'s schema is
/// broken by one rule: `0` drops its last specialisation (the root word
/// comes up one `a` short), `1` makes its first `y` demand the next
/// element's leaf (the typed word shifts out of order).
pub fn box_design(n: usize, tweak: Option<usize>) -> (BoxDesignProblem, XTree) {
    let (mut problem, doc) = dxml_bench::box_workload(n);
    if let Some(kind) = tweak {
        let n = n.max(2);
        let split = n / 2;
        let mut schema = REdtd::new(RFormalism::Nre, "r", "r");
        let shift = kind % 2 == 1;
        let last = if shift { n } else { n - 1 };
        let mut forest = Vec::new();
        for i in split..last {
            let spec = Symbol::new(format!("y{i}"));
            schema.add_specialization(spec, "a");
            let leaf = if shift && i == split { i + 1 } else { i };
            schema.set_rule(spec, RSpec::Nre(Regex::sym(elem(leaf))));
            forest.push(Regex::Sym(spec));
        }
        schema.set_rule("r", RSpec::Nre(Regex::concat(forest)));
        problem.add_function("f", schema);
    }
    (problem, doc.kernel().clone())
}

/// A box kernel `s(a(e0) … a(e(lo-1)) f a(e hi) … a(e(n-1)))`: the call
/// fills the gap `lo..hi`, so its perfect schema is that stretch of the
/// target.
pub fn box_gap_kernel(n: usize, lo: usize, hi: usize) -> XTree {
    let mut kernel = XTree::leaf(Symbol::new("s"));
    for i in (0..lo).chain(hi..n) {
        if i == hi {
            kernel.add_child(0, Symbol::new("f"));
        }
        let a = kernel.add_child(0, Symbol::new("a"));
        kernel.add_child(a, elem(i));
    }
    if hi == n {
        kernel.add_child(0, Symbol::new("f"));
    }
    kernel
}

// ----------------------------------------------------------------------
// Ingest documents
// ----------------------------------------------------------------------

/// The Figure-1 Eurostat type: averages and per-country national index
/// records, with context-dependent `index` specialisations.
pub const EUROSTAT_SDTD: &str = "eurostat -> averages~1*, nationalIndex~2*\n\
     averages~1 -> Good, index~1\n\
     nationalIndex~2 -> country, Good, index~2\n\
     index~1 -> value\n\
     index~2 -> value, year";

/// The recursive chain type for deep documents (the Figure-1 type is at
/// most four elements deep).
pub const CHAIN_SDTD: &str = "a -> a?";

pub const AVERAGE: &str = "<averages><Good/><index><value/></index></averages>";
pub const RECORD: &str =
    "<nationalIndex><country/><Good/><index><value/><year/></index></nationalIndex>";
/// A record with `Good` and `country` swapped: one misplaced element.
const BAD_RECORD: &str =
    "<nationalIndex><Good/><country/><index><value/><year/></index></nationalIndex>";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `records` national-index records under the root.
    Wide,
    /// A quarter as many averages, then the records.
    Mixed,
    /// An `a`-chain `records` elements deep.
    Deep,
}

/// One peer-returned document. `bad` misplaces one element at a seeded
/// position; `hostile` appends `fresh` never-seen element names (unique to
/// `tag`). Either makes the document invalid.
pub struct DocPlan {
    pub shape: Shape,
    pub records: usize,
    pub bad: Option<usize>,
    pub hostile: Option<usize>,
    pub tag: u64,
}

impl DocPlan {
    pub fn valid(&self) -> bool {
        self.bad.is_none() && self.hostile.is_none()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        // Never the first element, so a deep document keeps a single root.
        let bad_at = self.bad.map(|b| 1 + b % (self.records - 1));
        if self.shape == Shape::Deep {
            out.reserve(8 * self.records);
            for i in 0..self.records {
                out.push_str(if bad_at == Some(i) { "<b/><a>" } else { "<a>" });
            }
            self.push_hostile(&mut out);
            for _ in 0..self.records {
                out.push_str("</a>");
            }
            return out;
        }
        out.reserve(80 * self.records + 32);
        out.push_str("<eurostat>");
        if self.shape == Shape::Mixed {
            for _ in 0..self.records / 4 {
                out.push_str(AVERAGE);
            }
        }
        for i in 0..self.records {
            out.push_str(if bad_at == Some(i) { BAD_RECORD } else { RECORD });
        }
        self.push_hostile(&mut out);
        out.push_str("</eurostat>");
        out
    }

    fn push_hostile(&self, out: &mut String) {
        if let Some(fresh) = self.hostile {
            for i in 0..fresh {
                let _ = write!(out, "<h{:x}n{i}/>", self.tag);
            }
        }
    }
}
