//! Differential property tests for tree-language inclusion: on seeded
//! random nUTAs, `included_in_duta` — one product of the nondeterministic
//! left side with the determinised target — must reach the same verdict as
//! a reference that determinises the left side too and walks pairs of
//! subset states. Every witness must be accepted by the left side and
//! rejected by the target, including targets determinised over a label
//! universe that lacks some of the left side's labels (the dead state), and
//! `equivalent` must name the side that accepts its witness.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dxml_automata::{Alphabet, Nfa, Symbol};
use dxml_tree::uta::{equivalent, included_in_duta, Duta, LabelMachine, Nuta};
use dxml_tree::XTree;

/// A small deterministic xorshift generator (no rand crate offline).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A random content NFA over the given state symbols, sometimes with
/// ε-transitions.
fn random_content(rng: &mut Rng, states: &[Symbol]) -> Nfa {
    let n = 1 + rng.below(3);
    let mut nfa = Nfa::new(n, 0);
    for _ in 0..rng.below(2 * n + 2) {
        let from = rng.below(n);
        let to = rng.below(n);
        if rng.chance(10) {
            nfa.add_epsilon(from, to);
        } else {
            nfa.add_transition(from, states[rng.below(states.len())], to);
        }
    }
    for q in 0..n {
        if rng.chance(45) {
            nfa.set_final(q);
        }
    }
    nfa
}

/// A random nUTA over `labels` with up to 3 states named `{prefix}{i}`.
fn random_nuta(rng: &mut Rng, prefix: &str, labels: &[&str]) -> Nuta {
    let states: Vec<Symbol> =
        (0..1 + rng.below(3)).map(|i| Symbol::new(format!("{prefix}{i}"))).collect();
    let mut a = Nuta::new();
    for q in &states {
        for l in labels {
            if rng.chance(50) {
                a.set_rule(*q, *l, random_content(rng, &states));
            }
        }
        if rng.chance(50) {
            a.set_final(*q);
        }
    }
    a
}

/// The union of two nUTAs with disjoint state names.
fn union(a: &Nuta, b: &Nuta) -> Nuta {
    let mut u = Nuta::new();
    for (q, l, content) in a.rules().chain(b.rules()) {
        u.set_rule(*q, *l, content.clone());
    }
    for f in a.finals().iter().chain(b.finals()) {
        u.set_final(*f);
    }
    u
}

/// Reference inclusion: determinise `a` as well, then collect every pair
/// (subset state of `a`, state of `db` or dead) jointly reachable by some
/// tree, each with a witness, and report the first bad pair.
fn reference_included(a: &Nuta, db: &Duta) -> Result<(), XTree> {
    let da = a.determinize(a.labels());
    let mut pairs: Vec<(usize, Option<usize>, XTree)> = Vec::new();
    let mut pair_index: BTreeSet<(usize, Option<usize>)> = BTreeSet::new();
    loop {
        let snapshot_len = pairs.len();
        for label in da.labels() {
            let Some(ma) = da.machine(label) else { continue };
            let mb = db.machine(label);
            let start = (ma.start(), mb.map(LabelMachine::start));
            let mut seen: BTreeMap<(usize, Option<usize>), Vec<usize>> = BTreeMap::new();
            seen.insert(start, Vec::new());
            let mut queue = VecDeque::from([start]);
            while let Some((ca, cb)) = queue.pop_front() {
                let path = seen[&(ca, cb)].clone();
                let out = (ma.output(ca), cb.zip(mb).map(|(c, m)| m.output(c)));
                if pair_index.insert(out) {
                    let children = path.iter().map(|&p| pairs[p].2.clone()).collect();
                    pairs.push((out.0, out.1, XTree::node(*label, children)));
                }
                for (letter, (pa, pb, _)) in pairs.iter().enumerate().take(snapshot_len) {
                    let next_b = match (cb, pb, mb) {
                        (Some(cb), Some(pb), Some(mb)) => Some(mb.step(cb, *pb)),
                        _ => None,
                    };
                    let next = (ma.step(ca, *pa), next_b);
                    if let Entry::Vacant(slot) = seen.entry(next) {
                        let mut next_path = path.clone();
                        next_path.push(letter);
                        slot.insert(next_path);
                        queue.push_back(next);
                    }
                }
            }
        }
        if pairs.len() == snapshot_len {
            break;
        }
    }
    match pairs
        .into_iter()
        .find(|(ia, ib, _)| da.is_final(*ia) && !ib.is_some_and(|i| db.is_final(i)))
    {
        Some((_, _, witness)) => Err(witness),
        None => Ok(()),
    }
}

/// Checks one inclusion against the reference and its witness against both
/// automata; returns whether it held.
fn check_inclusion(a: &Nuta, db: &Duta, case: &str) -> bool {
    let product = included_in_duta(a, db);
    let reference = reference_included(a, db);
    assert_eq!(product.is_ok(), reference.is_ok(), "{case}: verdicts differ");
    if let Err(witness) = &product {
        assert!(a.accepts(witness), "{case}: witness {witness} rejected by the left side");
        assert!(!db.accepts(witness), "{case}: witness {witness} accepted by the target");
    }
    product.is_ok()
}

#[test]
fn product_inclusion_agrees_with_the_subset_pair_reference() {
    let mut rng = Rng(0x5eed_1c1d_0000_0001);
    let (mut held, mut failed, mut dead) = (0, 0, 0);
    for seed in 0..300 {
        let a = random_nuta(&mut rng, "p", &["la", "lb", "lc"]);
        let c = random_nuta(&mut rng, "q", &["la", "lb"]);
        let b = union(&a, &c);
        // Sometimes `c`'s universe lacks `lc`, so the left side reaches the
        // dead state; sometimes it is widened to every label.
        let universe: Alphabet = if rng.chance(50) {
            c.labels().clone()
        } else {
            ["la", "lb", "lc"].map(Symbol::new).into_iter().collect()
        };
        let dc = c.determinize(&universe);
        let db = b.determinize(b.labels());
        let da = a.determinize(a.labels());
        assert!(check_inclusion(&a, &db, &format!("seed {seed}: a ⊆ a ∪ c")));
        for (left, right, case) in [(&a, &dc, "a ⊆ c"), (&b, &da, "a ∪ c ⊆ a")] {
            if check_inclusion(left, right, &format!("seed {seed}: {case}")) {
                held += 1;
            } else {
                failed += 1;
                let witness = included_in_duta(left, right).unwrap_err();
                dead += usize::from(witness.labels().iter().any(|l| !right.labels().contains(l)));
            }
        }
    }
    assert!(held > 20 && failed > 20, "both verdicts must occur: {held} held, {failed} failed");
    assert!(dead > 5, "some witnesses must leave the target's universe: {dead}");
}

#[test]
fn equivalent_names_the_side_that_accepts_its_witness() {
    let mut rng = Rng(0x5eed_e401_0000_0002);
    let (mut equal, mut first, mut second) = (0, 0, 0);
    for seed in 0..300 {
        let a = random_nuta(&mut rng, "p", &["la", "lb"]);
        let b = if rng.chance(30) {
            union(&a, &random_nuta(&mut rng, "q", &["la", "lb", "lc"]))
        } else {
            random_nuta(&mut rng, "q", &["la", "lb", "lc"])
        };
        let (left, right) = if rng.chance(50) { (&a, &b) } else { (&b, &a) };
        let reference = reference_included(left, &right.determinize(right.labels())).is_ok()
            && reference_included(right, &left.determinize(left.labels())).is_ok();
        match equivalent(left, right) {
            Ok(()) => {
                assert!(reference, "seed {seed}: equivalent, but an inclusion fails");
                equal += 1;
            }
            Err((witness, in_left)) => {
                assert!(!reference, "seed {seed}: distinguished, but both inclusions hold");
                assert_eq!(left.accepts(&witness), in_left, "seed {seed}: side of {witness}");
                assert_eq!(right.accepts(&witness), !in_left, "seed {seed}: side of {witness}");
                if in_left {
                    first += 1;
                } else {
                    second += 1;
                }
            }
        }
    }
    assert!(equal > 0 && first > 0 && second > 0, "{equal} equal, {first} left, {second} right");
}
