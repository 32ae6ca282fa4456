//! `R-EDTD`s — extended DTDs (Definition 7), the paper's abstraction of
//! Relax NG and of full unranked regular tree languages.
//!
//! An `R-EDTD` is a tuple `⟨Σ, Σ', d, s⟩`: an alphabet `Σ` of element names,
//! an alphabet `Σ'` of *specialised* names with an erasing morphism
//! `µ : Σ' → Σ` (we write `ã` for a specialisation of `a`), an `R-DTD`-style
//! rule set `d` over `Σ'` and a start name `s ∈ Σ'`. A tree over `Σ` belongs
//! to the language iff it is the `µ`-image of a tree over `Σ'` valid under
//! the rules — which makes `R-EDTD`s exactly the unranked regular tree
//! languages, operationally an [`Nuta`] whose states are the specialised
//! names.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dxml_automata::{Alphabet, Nfa, RFormalism, RSpec, Symbol};
use dxml_tree::{uta, Nuta, XTree};

use crate::error::SchemaError;

/// An `R-EDTD` `⟨Σ, Σ', d, s⟩` (Definition 7).
#[derive(Clone)]
pub struct REdtd {
    formalism: RFormalism,
    /// The start name `s ∈ Σ'`.
    start: Symbol,
    /// The morphism `µ : Σ' → Σ` (specialised name → element name).
    mu: BTreeMap<Symbol, Symbol>,
    /// Content models over `Σ'`; specialised names without an entry are
    /// leaf-only (content `{ε}`).
    rules: BTreeMap<Symbol, RSpec>,
}

impl REdtd {
    /// The embedding of a DTD in which every name is its own
    /// specialisation. `alphabet` holds the start and every symbol of
    /// `rules`, so no rule needs scanning for names.
    pub(crate) fn trivial(
        formalism: RFormalism,
        start: Symbol,
        alphabet: &Alphabet,
        rules: BTreeMap<Symbol, RSpec>,
    ) -> REdtd {
        REdtd { formalism, start, mu: alphabet.iter().map(|a| (*a, *a)).collect(), rules }
    }

    /// Creates an EDTD whose start is the specialised name `start` with
    /// `µ(start) = start_label`.
    pub fn new(
        formalism: RFormalism,
        start: impl Into<Symbol>,
        start_label: impl Into<Symbol>,
    ) -> REdtd {
        let start = start.into();
        let mut mu = BTreeMap::new();
        mu.insert(start, start_label.into());
        REdtd { formalism, start, mu, rules: BTreeMap::new() }
    }

    /// Registers a specialised name with its underlying element name
    /// (`µ(specialized) = label`). Idempotent; re-registering with a
    /// different label replaces the mapping.
    pub fn add_specialization(&mut self, specialized: impl Into<Symbol>, label: impl Into<Symbol>) {
        self.mu.insert(specialized.into(), label.into());
    }

    /// Sets the content model of a specialised name. The content model reads
    /// specialised names; any of its symbols not yet registered defaults to
    /// its own label (`µ(ã) = ã`), which makes plain-DTD rule sets work
    /// unchanged.
    pub fn set_rule(&mut self, specialized: impl Into<Symbol>, content: RSpec) {
        let name = specialized.into();
        self.mu.entry(name).or_insert_with(|| name);
        for sym in content.alphabet().iter() {
            self.mu.entry(*sym).or_insert_with(|| *sym);
        }
        self.rules.insert(name, content);
    }

    /// The content-model formalism `R`.
    pub fn formalism(&self) -> RFormalism {
        self.formalism
    }

    /// The start name `s ∈ Σ'`.
    pub fn start(&self) -> &Symbol {
        &self.start
    }

    /// `µ(name)`, if the specialised name is registered.
    pub fn label_of(&self, specialized: &Symbol) -> Option<&Symbol> {
        self.mu.get(specialized)
    }

    /// The specialised names `Σ'`.
    pub fn specialized_names(&self) -> Alphabet {
        self.mu.keys().cloned().collect()
    }

    /// The element names `Σ` (the image of `µ`).
    pub fn labels(&self) -> Alphabet {
        self.mu.values().cloned().collect()
    }

    /// The specialised names mapped to `label`, in sorted order.
    pub fn specializations_of(&self, label: &Symbol) -> Vec<Symbol> {
        self.mu
            .iter()
            .filter(|(_, l)| *l == label)
            .map(|(s, _)| *s)
            .collect()
    }

    /// The content model of a specialised name; unregistered or leaf-only
    /// names yield `{ε}`.
    pub fn content(&self, specialized: &Symbol) -> RSpec {
        self.rules
            .get(specialized)
            .cloned()
            .unwrap_or(RSpec::Nre(dxml_automata::Regex::Epsilon))
    }

    /// The explicit content rule of a specialised name, by reference
    /// (`None` for leaf-only names). The non-cloning sibling of
    /// [`REdtd::content`], for callers that only read the rule.
    pub fn rule(&self, specialized: &Symbol) -> Option<&RSpec> {
        self.rules.get(specialized)
    }

    /// Iterates over the explicit rules.
    pub fn rules(&self) -> impl Iterator<Item = (&Symbol, &RSpec)> {
        self.rules.iter()
    }

    /// A size measure: number of specialised names plus the sizes of all
    /// content models.
    pub fn size(&self) -> usize {
        self.mu.len() + self.rules.values().map(RSpec::size).sum::<usize>()
    }

    // ------------------------------------------------------------------
    // Semantics via unranked tree automata
    // ------------------------------------------------------------------

    /// The EDTD as a nondeterministic unranked tree automaton: states are the
    /// specialised names, `Δ(ã, µ(ã))` is the content model of `ã`, and the
    /// start name is the only final state.
    pub fn to_nuta(&self) -> Nuta {
        let mut a = Nuta::new();
        for (spec, label) in &self.mu {
            let content = match self.rules.get(spec) {
                Some(rule) => rule.to_nfa(),
                None => Nfa::epsilon(),
            };
            a.set_rule(*spec, *label, content);
        }
        a.set_final(self.start);
        a
    }

    /// Whether the tree (over `Σ`) belongs to the language.
    pub fn accepts(&self, tree: &XTree) -> bool {
        self.to_nuta().accepts(tree)
    }

    /// Validates a tree, explaining the rejection: unlike [`REdtd::accepts`]
    /// this reports *where* the typing breaks down — the first node (in
    /// document order) that admits no specialised type although all of its
    /// children do, or a root whose admissible types miss the start name.
    pub fn validate(&self, tree: &XTree) -> Result<(), SchemaError> {
        let nuta = self.to_nuta();
        let possible = nuta.run(tree);
        if possible[tree.root()].contains(&self.start) {
            return Ok(());
        }
        if let Some(expected) = self.label_of(&self.start) {
            if tree.root_label() != expected {
                return Err(SchemaError::RootMismatch {
                    expected: *expected,
                    found: *tree.root_label(),
                });
            }
        }
        let labels = self.labels();
        for node in tree.document_order() {
            if !possible[node].is_empty() {
                continue;
            }
            if tree.children(node).iter().any(|&c| possible[c].is_empty()) {
                continue; // blame the deepest untypable descendant instead
            }
            let label = tree.label(node);
            if !labels.contains(label) {
                return Err(SchemaError::UnknownElement { label: *label });
            }
            let expected: Vec<String> = self
                .specializations_of(label)
                .iter()
                .map(|s| format!("{s} -> {}", self.content(s)))
                .collect();
            return Err(SchemaError::InvalidContent {
                path: tree.anc_str(node),
                children: tree.child_str(node),
                expected: expected.join("  |  "),
            });
        }
        // Every node is typable, but the root types miss the start name.
        let admitted: Vec<String> =
            possible[tree.root()].iter().map(ToString::to_string).collect();
        Err(SchemaError::Structural(format!(
            "the root admits specialised types [{}] but not the start `{}`",
            admitted.join(", "),
            self.start
        )))
    }

    /// Whether the language is empty.
    pub fn language_is_empty(&self) -> bool {
        self.to_nuta().is_empty()
    }

    /// A tree in the language, if any.
    pub fn sample_tree(&self) -> Option<XTree> {
        self.to_nuta().sample_tree()
    }

    /// Language equivalence with another EDTD (`equiv[S]`, Theorem 4.7).
    pub fn equivalent(&self, other: &REdtd) -> bool {
        uta::is_equivalent(&self.to_nuta(), &other.to_nuta())
    }

    /// Language equivalence with a distinguishing tree on failure
    /// (`true` = the tree belongs to `self` only).
    pub fn equivalent_witness(&self, other: &REdtd) -> Result<(), (XTree, bool)> {
        uta::equivalent(&self.to_nuta(), &other.to_nuta())
    }

    /// Language inclusion in another EDTD, with a counterexample tree on
    /// failure.
    pub fn included_in(&self, other: &REdtd) -> Result<(), XTree> {
        uta::included(&self.to_nuta(), &other.to_nuta())
    }

    // ------------------------------------------------------------------
    // Normal form (Lemma 4.10)
    // ------------------------------------------------------------------

    /// Whether the EDTD is in the *normal form* of Lemma 4.10: distinct
    /// specialised names (of the same label) have pairwise disjoint tree
    /// languages, so every tree admits at most one typing. The start name is
    /// exempt — [`REdtd::normalize`] may introduce a start that aliases the
    /// union of several root types, which cannot be avoided with a single
    /// start symbol.
    ///
    /// Operationally: every reachable subset state of the determinised
    /// specialised target contains at most one non-start name.
    pub fn is_normal(&self) -> bool {
        let duta = self.to_nuta().determinize(&self.labels());
        duta.subsets()
            .iter()
            .all(|s| s.iter().filter(|q| **q != self.start).count() <= 1)
    }

    /// The normal form of the EDTD (Lemma 4.10): an equivalent EDTD whose
    /// specialised names are the inhabited `(label, subset state)` pairs of
    /// the *determinised* specialised target, so that every tree has exactly
    /// one typing (up to the start alias). The construction is the
    /// tree-automaton analogue of the subset construction and can be
    /// exponential, exactly as the lemma announces.
    ///
    /// The name of the pair `(a, i)` is `a~i` ([`Symbol::specialize`]); when
    /// several root types are accepting, a fresh start `a~start` aliases
    /// their union (it occurs in no content model).
    pub fn normalize(&self) -> REdtd {
        let duta = self.to_nuta().determinize(&self.labels());
        let pairs = duta.inhabited_label_states();
        // Placeholder alphabet for the machine letters, expanded afterwards
        // to every inhabited pair carrying that subset state. `#` cannot
        // occur in parsed element names, so placeholders never collide.
        let placeholder = |i: usize| Symbol::new(format!("#q{i}"));
        let mut slots: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
        for (label, states) in &pairs {
            for &i in states {
                slots
                    .entry(placeholder(i))
                    .or_default()
                    .insert(label.specialize(i));
            }
        }
        let root_label = self
            .label_of(&self.start)
            .cloned()
            .unwrap_or(self.start);
        let accepting: Vec<usize> = pairs
            .get(&root_label)
            .map(|states| states.iter().copied().filter(|&i| duta.is_final(i)).collect())
            .unwrap_or_default();
        let content_of = |label: &Symbol, i: usize| -> Nfa {
            duta.content_nfa(i, label, placeholder)
                .expand_symbols(&slots)
                .trim()
        };
        // Start: the unique accepting pair if there is one; otherwise a
        // fresh alias for the union of the accepting pairs (possibly none —
        // the empty language keeps an unsatisfiable start).
        let mut out = match accepting.as_slice() {
            [i] => REdtd::new(RFormalism::Nfa, root_label.specialize(*i), root_label),
            many => {
                let alias = Symbol::new(format!("{root_label}~start"));
                let mut e = REdtd::new(RFormalism::Nfa, alias, root_label);
                let union = many
                    .iter()
                    .map(|&i| content_of(&root_label, i))
                    .fold(Nfa::empty(), |acc, nfa| acc.union(&nfa));
                e.set_rule(alias, RSpec::Nfa(union.trim()));
                e
            }
        };
        for (label, states) in &pairs {
            for &i in states {
                let name = label.specialize(i);
                out.add_specialization(name, *label);
                out.set_rule(name, RSpec::Nfa(content_of(label, i)));
            }
        }
        out
    }
}

impl fmt::Debug for REdtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}-EDTD with start `{}`:", self.formalism, self.start)?;
        for (spec, label) in &self.mu {
            if spec == label {
                writeln!(f, "  {spec} -> {}", self.content(spec))?;
            } else {
                writeln!(f, "  {spec} [µ={label}] -> {}", self.content(spec))?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for REdtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::Regex;
    use dxml_tree::term::parse_term;

    /// The classic non-DTD-definable language: `s(a(b)* a(c) a(b)*)` —
    /// exactly one of the `a` children contains `c`, the others contain `b`.
    fn one_c_edtd() -> REdtd {
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("ab", "a");
        e.add_specialization("ac", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
        e.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        e
    }

    #[test]
    fn specialisation_distinguishes_contexts() {
        let e = one_c_edtd();
        assert!(e.accepts(&parse_term("s(a(c))").unwrap()));
        assert!(e.accepts(&parse_term("s(a(b) a(c) a(b))").unwrap()));
        assert!(!e.accepts(&parse_term("s(a(b))").unwrap()));
        assert!(!e.accepts(&parse_term("s(a(c) a(c))").unwrap()));
        assert_eq!(e.specializations_of(&Symbol::new("a")).len(), 2);
        assert_eq!(e.label_of(&Symbol::new("ab")), Some(&Symbol::new("a")));
    }

    #[test]
    fn sample_and_emptiness() {
        let e = one_c_edtd();
        assert!(!e.language_is_empty());
        let t = e.sample_tree().unwrap();
        assert!(e.accepts(&t));

        let mut empty = REdtd::new(RFormalism::Nre, "s", "s");
        empty.set_rule("s", RSpec::Nre(Regex::sym("s")));
        assert!(empty.language_is_empty());
        assert_eq!(empty.sample_tree(), None);
    }

    #[test]
    fn equivalence_and_inclusion() {
        let e = one_c_edtd();
        // Same language written with the specialisations swapped.
        let mut f = REdtd::new(RFormalism::Nre, "s", "s");
        f.add_specialization("x", "a");
        f.add_specialization("y", "a");
        f.set_rule("s", RSpec::Nre(Regex::parse("y* x y*").unwrap()));
        f.set_rule("x", RSpec::Nre(Regex::parse("c").unwrap()));
        f.set_rule("y", RSpec::Nre(Regex::parse("b").unwrap()));
        assert!(e.equivalent(&f));
        assert!(e.equivalent_witness(&f).is_ok());

        // A superset: any number of c-children.
        let mut g = REdtd::new(RFormalism::Nre, "s", "s");
        g.add_specialization("ab", "a");
        g.add_specialization("ac", "a");
        g.set_rule("s", RSpec::Nre(Regex::parse("(ab | ac)*").unwrap()));
        g.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        g.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        assert!(e.included_in(&g).is_ok());
        let witness = g.included_in(&e).unwrap_err();
        assert!(g.accepts(&witness) && !e.accepts(&witness));
        assert!(!g.equivalent(&e));
    }

    #[test]
    fn size_is_positive() {
        assert!(one_c_edtd().size() > 5);
    }

    #[test]
    fn validate_explains_rejections() {
        let e = one_c_edtd();
        assert!(e.validate(&parse_term("s(a(b) a(c))").unwrap()).is_ok());
        // Wrong root label.
        assert!(matches!(
            e.validate(&parse_term("t(a(c))").unwrap()),
            Err(SchemaError::RootMismatch { .. })
        ));
        // An `a` whose content matches no specialisation.
        match e.validate(&parse_term("s(a(b c) a(c))").unwrap()) {
            Err(SchemaError::InvalidContent { path, children, expected }) => {
                assert_eq!(path.last().unwrap().as_str(), "a");
                assert_eq!(children.len(), 2);
                assert!(expected.contains("ab") && expected.contains("ac"), "{expected}");
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
        // Unknown element.
        assert!(matches!(
            e.validate(&parse_term("s(a(c) zz)").unwrap()),
            Err(SchemaError::UnknownElement { .. })
        ));
        // Every node typable but the root word matches no start content:
        // two c-specialisations.
        match e.validate(&parse_term("s(a(c) a(c))").unwrap()) {
            Err(SchemaError::InvalidContent { path, .. }) => {
                assert_eq!(path, vec![Symbol::new("s")]);
            }
            other => panic!("expected InvalidContent at the root, got {other:?}"),
        }
    }

    #[test]
    fn normalization_preserves_the_language() {
        for e in [one_c_edtd(), {
            // A deliberately ambiguous EDTD: x and y overlap on b-leaves.
            let mut e = REdtd::new(RFormalism::Nre, "s", "s");
            e.add_specialization("x", "a");
            e.add_specialization("y", "a");
            e.set_rule("s", RSpec::Nre(Regex::parse("x y").unwrap()));
            e.set_rule("x", RSpec::Nre(Regex::parse("b*").unwrap()));
            e.set_rule("y", RSpec::Nre(Regex::parse("b | c").unwrap()));
            e
        }] {
            let n = e.normalize();
            assert!(e.equivalent(&n), "normalisation changed the language of {e}");
            assert!(n.is_normal(), "normal form is not normal: {n}");
        }
        // The ambiguous EDTD is not normal to begin with.
        let e = {
            let mut e = REdtd::new(RFormalism::Nre, "s", "s");
            e.add_specialization("x", "a");
            e.add_specialization("y", "a");
            e.set_rule("s", RSpec::Nre(Regex::parse("x y").unwrap()));
            e.set_rule("x", RSpec::Nre(Regex::parse("b*").unwrap()));
            e.set_rule("y", RSpec::Nre(Regex::parse("b | c").unwrap()));
            e
        };
        assert!(!e.is_normal());
    }

    #[test]
    fn normalization_of_empty_and_dtd_like_languages() {
        // Empty language: the normal form is empty too.
        let mut empty = REdtd::new(RFormalism::Nre, "s", "s");
        empty.set_rule("s", RSpec::Nre(Regex::sym("s")));
        let n = empty.normalize();
        assert!(n.language_is_empty());
        // A trivial (DTD-like) EDTD stays equivalent and normal.
        let mut plain = REdtd::new(RFormalism::Nre, "s", "s");
        plain.set_rule("s", RSpec::Nre(Regex::parse("a*").unwrap()));
        let np = plain.normalize();
        assert!(plain.equivalent(&np));
        assert!(np.is_normal());
        assert!(np.accepts(&parse_term("s(a a)").unwrap()));
    }
}
