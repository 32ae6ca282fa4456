//! Seeded property-style tests over random small NFAs (no third-party
//! dependencies): determinisation/minimisation preserve membership, the
//! boolean/rational operations satisfy their algebraic laws on all words up
//! to length 5, and the context residuals of the synthesis agree with their
//! definitions on all words up to length 4.

use dxml_automata::equiv::{included, is_equivalent, is_included};
use dxml_automata::{Alphabet, Dfa, Nfa, Symbol};

/// The xorshift64* generator used across the workspace for reproducibility.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

fn sigma() -> Vec<Symbol> {
    vec![Symbol::new("a"), Symbol::new("b")]
}

/// A random NFA with up to 5 states over {a, b}, with ~2 transitions per
/// state, a sprinkling of ε-transitions and ~2 final states.
fn random_nfa(rng: &mut Rng) -> Nfa {
    let n = 1 + rng.below(5);
    let mut nfa = Nfa::new(n, rng.below(n));
    let sigma = sigma();
    for q in 0..n {
        for sym in &sigma {
            if rng.chance(2, 3) {
                nfa.add_transition(q, *sym, rng.below(n));
            }
        }
        if rng.chance(1, 5) {
            nfa.add_epsilon(q, rng.below(n));
        }
        if rng.chance(2, 5) {
            nfa.set_final(q);
        }
    }
    nfa
}

/// All words over {a, b} of length ≤ 5 (63 words).
fn all_words_up_to_5() -> Vec<Vec<Symbol>> {
    let sigma = sigma();
    let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
    for _ in 0..5 {
        let mut next = Vec::new();
        for w in &frontier {
            for s in &sigma {
                let mut w2 = w.clone();
                w2.push(*s);
                next.push(w2);
            }
        }
        words.extend(next.iter().cloned());
        frontier = next;
    }
    words
}

#[test]
fn determinize_then_minimize_preserves_membership() {
    let words = all_words_up_to_5();
    let mut rng = Rng::new(2009);
    for case in 0..60 {
        let nfa = random_nfa(&mut rng);
        let dfa = Dfa::from_nfa(&nfa);
        let min = dfa.minimize();
        for w in &words {
            let expected = nfa.accepts(w);
            assert_eq!(dfa.accepts(w), expected, "case {case}: determinize changed membership");
            assert_eq!(min.accepts(w), expected, "case {case}: minimize changed membership");
        }
        // Minimisation never grows the automaton.
        assert!(min.num_states() <= dfa.complete(&dfa.alphabet()).num_states() + 1);
    }
}

#[test]
fn inclusion_in_union_always_holds() {
    let mut rng = Rng::new(42);
    for case in 0..60 {
        let a = random_nfa(&mut rng);
        let b = random_nfa(&mut rng);
        let union = a.union(&b);
        assert!(is_included(&a, &union), "case {case}: a ⊈ a ∪ b");
        assert!(is_included(&b, &union), "case {case}: b ⊈ a ∪ b");
        // And the intersection is included in both components.
        let inter = a.intersect(&b);
        assert!(is_included(&inter, &a), "case {case}: a ∩ b ⊈ a");
        assert!(is_included(&inter, &b), "case {case}: a ∩ b ⊈ b");
    }
}

#[test]
fn inclusion_counterexamples_are_genuine() {
    let mut rng = Rng::new(7);
    let mut refuted = 0;
    for _ in 0..80 {
        let a = random_nfa(&mut rng);
        let b = random_nfa(&mut rng);
        match included(&a, &b) {
            Ok(()) => {
                // Verified against brute-force enumeration up to length 5.
                for w in all_words_up_to_5() {
                    assert!(!a.accepts(&w) || b.accepts(&w), "inclusion verdict wrong on short word");
                }
            }
            Err(ce) => {
                refuted += 1;
                assert!(a.accepts(&ce.word) && !b.accepts(&ce.word), "bogus counterexample");
                assert!(ce.in_first);
            }
        }
    }
    assert!(refuted > 0, "the random family should refute some inclusions");
}

#[test]
fn complement_laws() {
    let alphabet = Alphabet::from_chars("ab");
    let words = all_words_up_to_5();
    let mut rng = Rng::new(1234);
    for case in 0..40 {
        let a = random_nfa(&mut rng);
        let comp = a.complement(&alphabet);
        for w in &words {
            assert_eq!(a.accepts(w), !comp.accepts(w), "case {case}: complement flipped wrong");
        }
        // a ∪ ā is universal, a ∩ ā is empty.
        assert!(a.union(&comp).is_universal(&alphabet), "case {case}");
        assert!(a.intersect(&comp).is_empty(), "case {case}");
        // Double complement is the identity (as a language).
        assert!(is_equivalent(&comp.complement(&alphabet), &a), "case {case}");
    }
}

#[test]
fn eps_free_and_trim_preserve_language() {
    let words = all_words_up_to_5();
    let mut rng = Rng::new(99);
    for case in 0..60 {
        let a = random_nfa(&mut rng);
        let ef = a.eps_free();
        assert!(!ef.has_epsilon());
        let t = a.trim();
        for w in &words {
            assert_eq!(a.accepts(w), ef.accepts(w), "case {case}: eps_free changed membership");
            assert_eq!(a.accepts(w), t.accepts(w), "case {case}: trim changed membership");
        }
    }
}

#[test]
fn shortest_accepted_is_shortest() {
    let mut rng = Rng::new(5);
    for case in 0..60 {
        let a = random_nfa(&mut rng);
        match a.shortest_accepted() {
            None => assert!(a.is_empty(), "case {case}: no witness but non-empty"),
            Some(w) => {
                assert!(a.accepts(&w), "case {case}: witness rejected");
                for shorter in all_words_up_to_5().iter().filter(|v| v.len() < w.len()) {
                    assert!(
                        w.len() > 5 || !a.accepts(shorter),
                        "case {case}: shorter accepted word exists"
                    );
                }
            }
        }
    }
}

/// A finite context language: the union of one to three random literal
/// words of length ≤ 2 over {a, b}, returned with its words.
fn random_context(rng: &mut Rng) -> (Nfa, Vec<Vec<Symbol>>) {
    let sigma = sigma();
    let words: Vec<Vec<Symbol>> = (0..1 + rng.below(3))
        .map(|_| (0..rng.below(3)).map(|_| sigma[rng.below(2)]).collect())
        .collect();
    let literals: Vec<Nfa> = words.iter().map(|w| Nfa::literal(w)).collect();
    (Nfa::union_all(&literals), words)
}

/// The concatenation of `parts`.
fn cat(parts: &[&[Symbol]]) -> Vec<Symbol> {
    parts.concat()
}

#[test]
fn context_residuals_match_their_definitions() {
    let words: Vec<Vec<Symbol>> =
        all_words_up_to_5().into_iter().filter(|w| w.len() <= 4).collect();
    let mut rng = Rng::new(2021);
    for case in 0..60 {
        let l = random_nfa(&mut rng);
        let d = Dfa::from_nfa(&l);
        let (p, pw) = random_context(&mut rng);
        let (s, sw) = random_context(&mut rng);
        // Universal: w ∈ R ⟺ ∀u ∈ P, ∀v ∈ S: u·w·v ∈ L.
        let r = d.universal_context_residual(&p, &s);
        for w in &words {
            let expected = pw.iter().all(|u| sw.iter().all(|v| l.accepts(&cat(&[u, w, v]))));
            assert_eq!(r.accepts(w), expected, "case {case}: universal residual on {w:?}");
        }
        // Uniform over three contexts: w ∈ U ⟺ ∀uᵢ ∈ Cᵢ: u₀·w·u₁·w·u₂ ∈ L.
        let (c1, c1w) = random_context(&mut rng);
        let u = d.uniform_context_residual(&[p.clone(), c1, s.clone()]);
        for w in &words {
            let expected = pw.iter().all(|u0| {
                c1w.iter()
                    .all(|u1| sw.iter().all(|u2| l.accepts(&cat(&[u0, w, u1, w, u2]))))
            });
            assert_eq!(u.accepts(w), expected, "case {case}: uniform residual on {w:?}");
        }
    }
}
