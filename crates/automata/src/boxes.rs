//! Boxes: cartesian products of symbol sets (Section 2.1.2).
//!
//! A *box* of width `n` over `Σ` is a language of the form `Σ1 Σ2 … Σn` with
//! `Σi ⊆ Σ`: every word of length exactly `n` whose `i`-th symbol belongs to
//! `Σi`. Boxes appear in the paper as the "kernel boxes" `B(fn)` used to
//! reduce the R-EDTD design problems on trees to design problems on strings
//! whose constant parts are boxes rather than single words (Section 7,
//! Definition 21).
//!
//! Besides the box datatype itself, which renders kernel boxes in
//! counterexamples, this module provides the one automaton operation the
//! Section-7 reduction needs: [`Nfa::expand_symbols`], the slot
//! substitution `σ(a) ⊆ Σ'` applied to every transition, turning a word
//! automaton over constant symbols into one over *boxes* of specialised
//! names (the inverse-morphism step of the reduction from R-EDTD tree
//! problems to string problems).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::nfa::Nfa;
use crate::symbol::Symbol;

/// A box `Σ1 Σ2 … Σn`: a finite regular language that is a cartesian product
/// of symbol sets.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BoxLang {
    slots: Vec<BTreeSet<Symbol>>,
}

impl BoxLang {
    /// The empty-width box, whose language is `{ε}`.
    pub fn epsilon() -> Self {
        BoxLang { slots: Vec::new() }
    }

    /// Appends a slot.
    pub fn push_slot<I, S>(&mut self, symbols: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        self.slots.push(symbols.into_iter().map(Into::into).collect());
    }

    /// The width `n` of the box.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// The slots of the box.
    pub fn slots(&self) -> &[BTreeSet<Symbol>] {
        &self.slots
    }

    /// Whether `word` belongs to the box.
    pub fn contains(&self, word: &[Symbol]) -> bool {
        word.len() == self.slots.len()
            && word.iter().zip(&self.slots).all(|(s, slot)| slot.contains(s))
    }
}

impl Nfa {
    /// Substitutes every transition symbol by a *slot* (a set of symbols):
    /// the language becomes `{ b1…bn : a1…an ∈ [self], bi ∈ slots(ai) }`.
    ///
    /// This is the inverse-morphism step of the Section-7 reduction: a
    /// content model over element names turns into an automaton over the
    /// specialised names (or determinised subset states) each element can
    /// stand for. Symbols mapped to an empty slot lose their transitions —
    /// words using them become unrealizable.
    pub fn expand_symbols(&self, slots: &BTreeMap<Symbol, BTreeSet<Symbol>>) -> Nfa {
        let mut out = Nfa::new(self.num_states(), self.start());
        for (q, lbl, t) in self.transitions() {
            match lbl {
                None => out.add_epsilon(q, t),
                Some(sym) => match slots.get(sym) {
                    Some(slot) => {
                        for b in slot {
                            out.add_transition(q, *b, t);
                        }
                    }
                    None => out.add_transition(q, *sym, t),
                },
            }
        }
        for &f in self.finals() {
            out.set_final(f);
        }
        out
    }
}

impl fmt::Display for BoxLang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if slot.len() == 1 {
                write!(f, "{}", slot.iter().next().unwrap())?;
            } else {
                let names: Vec<String> = slot.iter().map(ToString::to_string).collect();
                write!(f, "{{{}}}", names.join(","))?;
            }
        }
        if self.slots.is_empty() {
            write!(f, "ε")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::word_chars;

    fn sample_box() -> BoxLang {
        let mut b = BoxLang::epsilon();
        b.push_slot(["a", "b"]);
        b.push_slot(["c"]);
        b.push_slot(["a", "d"]);
        b
    }

    #[test]
    fn membership_and_counts() {
        let b = sample_box();
        assert_eq!(b.width(), 3);
        assert!(b.contains(&word_chars("aca")));
        assert!(b.contains(&word_chars("bcd")));
        assert!(!b.contains(&word_chars("acc")));
        assert!(!b.contains(&word_chars("ac")));
    }

    #[test]
    fn empty_slot_empties_language() {
        let mut b = sample_box();
        b.push_slot(Vec::<Symbol>::new());
        assert_eq!(b.width(), 4);
        for w in ["aca", "acaa", "bcdd"] {
            assert!(!b.contains(&word_chars(w)), "word {w}");
        }
    }

    #[test]
    fn epsilon_box() {
        let b = BoxLang::epsilon();
        assert!(b.contains(&[]));
        assert!(!b.contains(&word_chars("a")));
        assert_eq!(format!("{b}"), "ε");
    }

    #[test]
    fn display_format() {
        let b = sample_box();
        assert_eq!(format!("{b}"), "{a,b} c {a,d}");
    }

    #[test]
    fn expand_symbols_substitutes_slots() {
        use std::collections::BTreeMap;
        // a b → ({a1,a2}) ({b1}); `c` has no mapping and passes through.
        let lang = Nfa::literal(&word_chars("ab")).union(&Nfa::symbol("c"));
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        slots.insert(Symbol::new("a"), BTreeSet::from([Symbol::new("a1"), Symbol::new("a2")]));
        slots.insert(Symbol::new("b"), BTreeSet::from([Symbol::new("b1")]));
        let expanded = lang.expand_symbols(&slots);
        for w in [["a1", "b1"], ["a2", "b1"]] {
            let w: Vec<Symbol> = w.iter().map(Symbol::new).collect();
            assert!(expanded.accepts(&w), "word {w:?}");
        }
        assert!(expanded.accepts(&[Symbol::new("c")]));
        assert!(!expanded.accepts(&word_chars("ab")));
        // Empty slots kill the words using them.
        slots.insert(Symbol::new("b"), BTreeSet::new());
        let dead = lang.expand_symbols(&slots);
        assert!(!dead.accepts(&[Symbol::new("a1"), Symbol::new("b1")]));
        assert!(dead.accepts(&[Symbol::new("c")]));
    }
}
