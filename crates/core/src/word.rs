//! Word constraint implication over semistructured data — the PTIME
//! baseline (Abiteboul & Vianu [4]).
//!
//! Derivability of `∀x (α(r,x) → β(r,x))` from Σ under the inference
//! system {reflexivity, transitivity, right-congruence} is exactly
//! reachability of the word `β` from `α` in the prefix rewriting system
//! `{αᵢ ⇒ βᵢ}`, which [`PrefixRewriteSystem::post_star`] decides in
//! polynomial time. The paper (Section 4.2) credits these three rules to
//! [4] as complete for word constraint implication over untyped data —
//! which this implementation's own property tests showed needs a caveat:
//! when Σ forces a non-empty word down to `ε` (whose semantics is
//! *equality*, `ε(x,y) ⟺ x = y`), semantic consequences arise that the
//! rules cannot derive. Example: `Σ = {a → ε} ⊨ a → a·a` (any `a`-target
//! equals the root, so `a` loops there), but `a·a ∉ post*(a)`. See
//! [`WordEngine::has_epsilon_collapse`]; every construction in the paper
//! stays in the ε-collapse-free fragment where the rules are complete.
//!
//! [`WordEngine`] is the one word engine: it memoizes `post*(α)` per
//! left-hand side, as a [`BitNfa`], for up to `MEMO_CAPACITY` left-hand
//! sides (so a [`crate::SharedContext`] that keeps an engine answers
//! repeat queries as automaton membership), and [`WordEngine::decide`]
//! is the one word decision. An `Implied` answer carries the rewrite
//! derivation read off the same automaton's stamps
//! ([`PrefixRewriteSystem::derivation`]), so certifying it needs no
//! second saturation or search. The solver's word tier and the
//! Theorem 5.1 local-extent reduction both call it, and both hand an
//! ε-collapsing negative to the chase.

use crate::outcome::{
    CounterModel, CounterModelProvenance, Deadline, Evidence, Outcome, Refutation,
};
use crate::word_evidence::{quotient_countermodel, Derivation, DerivationStep};
use pathcons_automata::{BitNfa, PrefixRewriteSystem};
use pathcons_constraints::{Path, PathConstraint};
use pathcons_graph::Label;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Error: a constraint handed to the word engine is not a word constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotAWordConstraint {
    /// Index in the offending slice (`usize::MAX` for the query).
    pub index: usize,
}

impl fmt::Display for NotAWordConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.index == usize::MAX {
            write!(f, "the query is not a word constraint")
        } else {
            write!(f, "constraint #{} is not a word constraint", self.index)
        }
    }
}

impl std::error::Error for NotAWordConstraint {}

/// Most left-hand sides an engine keeps saturated. Past it the least
/// recently used one is evicted, and a later query on it saturates
/// again; a resident context's traffic reuses far fewer.
const MEMO_CAPACITY: usize = 256;

/// The largest derivation an `Implied` answer carries, counting each
/// step and each label of the words the steps yield: a bound on
/// certificate size, not a search budget. Witnesses can be
/// exponentially long in Σ (a binary counter's `0…0 ⇒* 1…1`), and each
/// step's word can be long. A larger derivation leaves the answer
/// `Implied` without one.
pub const MAX_DERIVATION_SIZE: usize = 1 << 16;

/// A memo from left-hand side to automaton holding at most
/// [`MEMO_CAPACITY`] entries, least recently used evicted first.
#[derive(Debug)]
struct Memo<V> {
    /// Each value with the tick of its last use.
    map: HashMap<Box<[Label]>, (V, u64)>,
    tick: u64,
}

impl<V: Clone> Memo<V> {
    fn new() -> Memo<V> {
        Memo {
            map: HashMap::new(),
            tick: 0,
        }
    }

    fn get(&mut self, key: &[Label]) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(value, used)| {
            *used = tick;
            value.clone()
        })
    }

    /// The value under `key`, storing `value` there first if it has none
    /// (evicting the least recently used entry when full): every caller
    /// racing on one key gets the value the first of them stored.
    fn get_or_insert(&mut self, key: &[Label], value: V) -> V {
        if let Some(stored) = self.get(key) {
            return stored;
        }
        if self.map.len() >= MEMO_CAPACITY {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                self.map.remove(&lru);
            }
        }
        self.map.insert(key.into(), (value.clone(), self.tick));
        value
    }
}

/// The word-constraint implication engine.
///
/// ```
/// use pathcons_core::WordEngine;
/// use pathcons_constraints::{parse_constraints, PathConstraint};
/// use pathcons_graph::LabelInterner;
///
/// let mut labels = LabelInterner::new();
/// let sigma = parse_constraints(
///     "book.author -> person\nperson.wrote -> book",
///     &mut labels,
/// ).unwrap();
/// let engine = WordEngine::new(&sigma).unwrap();
///
/// // book.author.wrote -> person.wrote -> book  (right-congruence + transitivity)
/// let phi = PathConstraint::parse("book.author.wrote -> book", &mut labels).unwrap();
/// assert!(engine.implies(&phi).unwrap());
///
/// let psi = PathConstraint::parse("book -> person", &mut labels).unwrap();
/// assert!(!engine.implies(&psi).unwrap());
/// ```
#[derive(Debug)]
pub struct WordEngine {
    system: PrefixRewriteSystem,
    /// The Σ-only ε-collapse predicate, computed on first use.
    collapse: OnceLock<bool>,
    /// `post*(lhs)` per lhs. Saturation is a function of `(Σ, lhs)`
    /// alone; the automaton is immutable once built, so clones of the
    /// `Arc` are handed out under a short lock.
    post: Mutex<Memo<Arc<BitNfa>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WordEngine {
    /// Builds the engine from a set of word constraints. Nothing is
    /// saturated yet.
    pub fn new(sigma: &[PathConstraint]) -> Result<WordEngine, NotAWordConstraint> {
        let mut system = PrefixRewriteSystem::new();
        for (index, c) in sigma.iter().enumerate() {
            if !c.is_word() {
                return Err(NotAWordConstraint { index });
            }
            system.add_rule(c.lhs().to_vec(), c.rhs().to_vec());
        }
        Ok(WordEngine {
            system,
            collapse: OnceLock::new(),
            post: Mutex::new(Memo::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Whether some *non-empty* word is forced down to `ε` by Σ — i.e.
    /// `pre*(ε)` contains more than the empty word. Computed once.
    ///
    /// In that situation the empty path's equality semantics
    /// (`ε(x,y) ⟺ x = y`) gives constraints consequences the three-rule
    /// system cannot derive: from `Σ = {a → ε}` every model satisfies
    /// `a → a·a` (the constraint pins every `a`-target to the root,
    /// looping `a` there), yet `a·a ∉ post*(a)`. When this predicate is
    /// `true`, a negative [`Self::implies`] answer means "not derivable",
    /// which may underapproximate semantic implication, and
    /// [`Self::decide`] declines to refute. (This is a corner the
    /// paper's citation of [4]'s completeness does not cover — none of
    /// the paper's constructions produce ε-collapsing sets.)
    pub fn has_epsilon_collapse(&self) -> bool {
        *self
            .collapse
            .get_or_init(|| self.system.pre_star(&[]).accepts_some_nonempty())
    }

    /// Whether `φ` is *derivable* from Σ under {reflexivity,
    /// transitivity, right-congruence} — which coincides with semantic
    /// (finite) implication whenever Σ has no ε-collapse
    /// (see [`Self::has_epsilon_collapse`]). `true` is always sound.
    pub fn implies(&self, phi: &PathConstraint) -> Result<bool, NotAWordConstraint> {
        if !phi.is_word() {
            return Err(NotAWordConstraint { index: usize::MAX });
        }
        Ok(self.implies_word(phi.lhs(), phi.rhs()))
    }

    /// Whether the word constraint `lhs → rhs` is derivable:
    /// `post*(lhs) ∋ rhs`.
    pub fn implies_word(&self, lhs: &Path, rhs: &Path) -> bool {
        self.consequences(lhs).accepts(rhs)
    }

    /// Decides `Σ ⊨ φ` for a word query, where `sigma` is the theory
    /// this engine was built from:
    ///
    /// - `β ∈ post*(α)` → `Implied` (the rules are sound), carrying the
    ///   derivation read off `post*(α)` unless it has more than
    ///   [`MAX_DERIVATION_SIZE`];
    /// - otherwise, when Σ has an ε-collapse, `None`: the rules may miss
    ///   a semantic consequence, so the caller must ask a semi-decider;
    /// - otherwise `NotImplied`, carrying the `post*` quotient
    ///   countermodel when it fits its node ceiling, meets `deadline`
    ///   and verifies.
    ///
    /// `None` also when `φ` is not a word constraint.
    pub fn decide(
        &self,
        sigma: &[PathConstraint],
        phi: &PathConstraint,
        deadline: &Deadline,
    ) -> Option<Outcome> {
        if !phi.is_word() {
            return None;
        }
        let post = self.consequences(phi.lhs());
        if post.accepts(phi.rhs()) {
            let derivation = self
                .system
                .derivation(&post, phi.lhs(), phi.rhs(), MAX_DERIVATION_SIZE)
                .map(|steps| Derivation {
                    start: phi.lhs().to_vec(),
                    steps: steps
                        .into_iter()
                        .map(|(rule, result)| DerivationStep { rule, result })
                        .collect(),
                });
            return Some(Outcome::Implied(Evidence::WordDerivation(derivation)));
        }
        if self.has_epsilon_collapse() {
            return None;
        }
        let empty = self.consequences(&[]);
        let refutation = match quotient_countermodel(sigma, phi, &empty, &post, deadline) {
            Some(graph) => Refutation::with_countermodel(CounterModel {
                graph,
                types: None,
                provenance: CounterModelProvenance::PostStarQuotient,
            }),
            None => Refutation::by_decision_procedure(),
        };
        Some(Outcome::NotImplied(refutation))
    }

    /// The `post*` automaton of a path — every `β` with
    /// `Σ ⊢ ∀x (α(r,x) → β(r,x))` — saturated on first use and memoized.
    ///
    /// Saturation runs outside the memo's lock, so one caller's cold
    /// saturation never blocks another's hit. Callers racing on one
    /// cold lhs each saturate, and all of them get the automaton the
    /// first to finish stored.
    pub fn consequences(&self, alpha: &[Label]) -> Arc<BitNfa> {
        if let Some(nfa) = self
            .post
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(alpha)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return nfa;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let nfa = Arc::new(self.system.post_star(alpha));
        self.post
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_or_insert(alpha, nfa)
    }

    /// Pre-saturates `post*` for each of `words` (e.g. the left-hand
    /// sides expected in traffic).
    pub fn warm(&self, words: &[Vec<Label>]) {
        for word in words {
            let _ = self.consequences(word);
        }
    }

    /// `(hits, misses)` of the `post*` memo so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The underlying prefix rewriting system.
    pub fn system(&self) -> &PrefixRewriteSystem {
        &self.system
    }
}

/// Semi-decides the same implication by naive BFS over rewritten words,
/// bounded by `max_len`/`max_words`: an independent check of the
/// saturation engine, used by the unit tests and by servebench to confirm
/// its by-construction Implied verdicts on small theories. Returns `None`
/// when the bound was insufficient to find `rhs` (inconclusive),
/// `Some(true)` when found.
pub fn word_implication_naive(
    sigma: &[PathConstraint],
    phi: &PathConstraint,
    max_len: usize,
    max_words: usize,
) -> Result<Option<bool>, NotAWordConstraint> {
    let engine = WordEngine::new(sigma)?;
    if !phi.is_word() {
        return Err(NotAWordConstraint { index: usize::MAX });
    }
    let reached = engine.system.bounded_post(phi.lhs(), max_len, max_words);
    if reached.contains(&phi.rhs().to_vec()) {
        Ok(Some(true))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    fn engine(text: &str, labels: &mut LabelInterner) -> WordEngine {
        let sigma = parse_constraints(text, labels).unwrap();
        WordEngine::new(&sigma).unwrap()
    }

    #[test]
    fn reflexivity_and_simple_rules() {
        let mut labels = LabelInterner::new();
        let e = engine("a -> b", &mut labels);
        let q = |t: &str, labels: &mut LabelInterner| PathConstraint::parse(t, labels).unwrap();
        assert!(e.implies(&q("a -> a", &mut labels)).unwrap());
        assert!(e.implies(&q("a -> b", &mut labels)).unwrap());
        assert!(!e.implies(&q("b -> a", &mut labels)).unwrap());
    }

    #[test]
    fn extent_constraints_from_the_paper() {
        // Section 1's word constraints imply derived containments.
        let mut labels = LabelInterner::new();
        let e = engine(
            "book.author -> person\nperson.wrote -> book\nbook.ref -> book",
            &mut labels,
        );
        let q = |t: &str, labels: &mut LabelInterner| PathConstraint::parse(t, labels).unwrap();
        // Authors of referenced books are persons:
        assert!(e
            .implies(&q("book.ref.author -> person", &mut labels))
            .unwrap());
        // Deep ref chains stay books:
        assert!(e
            .implies(&q("book.ref.ref.ref -> book", &mut labels))
            .unwrap());
        // And their authors' books are books:
        assert!(e
            .implies(&q("book.ref.author.wrote -> book", &mut labels))
            .unwrap());
        // But persons need not be authors:
        assert!(!e.implies(&q("person -> book.author", &mut labels)).unwrap());
    }

    #[test]
    fn empty_sigma_gives_only_reflexivity() {
        let mut labels = LabelInterner::new();
        let e = engine("", &mut labels);
        let phi = PathConstraint::parse("a.b -> a.b", &mut labels).unwrap();
        assert!(e.implies(&phi).unwrap());
        let psi = PathConstraint::parse("a.b -> a", &mut labels).unwrap();
        assert!(!e.implies(&psi).unwrap());
    }

    #[test]
    fn non_word_constraints_rejected() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("K: a -> b", &mut labels).unwrap();
        assert_eq!(
            WordEngine::new(&sigma).unwrap_err(),
            NotAWordConstraint { index: 0 }
        );
        let e = engine("a -> b", &mut labels);
        let backward = PathConstraint::parse("(): a <- b", &mut labels).unwrap();
        assert!(e.implies(&backward).is_err());
    }

    #[test]
    fn empty_path_rules() {
        let mut labels = LabelInterner::new();
        // () -> K : the root is K-reachable; then K.a -> a etc.
        let e = engine("() -> K\nK.a -> K", &mut labels);
        let q = |t: &str, labels: &mut LabelInterner| PathConstraint::parse(t, labels).unwrap();
        assert!(e.implies(&q("() -> K", &mut labels)).unwrap());
        assert!(e.implies(&q("a -> K.a", &mut labels)).unwrap());
        assert!(e.implies(&q("a -> K", &mut labels)).unwrap());
        assert!(e.implies(&q("a.b -> K.b", &mut labels)).unwrap());
    }

    #[test]
    fn naive_baseline_agrees_when_conclusive() {
        let mut labels = LabelInterner::new();
        let sigma =
            parse_constraints("book.author -> person\nperson.wrote -> book", &mut labels).unwrap();
        let phi = PathConstraint::parse("book.author.wrote -> book", &mut labels).unwrap();
        let naive = word_implication_naive(&sigma, &phi, 12, 100_000).unwrap();
        assert_eq!(naive, Some(true));
        let e = WordEngine::new(&sigma).unwrap();
        assert!(e.implies(&phi).unwrap());
    }

    #[test]
    fn consequences_automaton_enumerates() {
        let mut labels = LabelInterner::new();
        let e = engine("a -> b.a\nb -> c", &mut labels);
        let alpha = Path::parse("a", &mut labels).unwrap();
        let nfa = e.consequences(&alpha);
        let b = labels.get("b").unwrap();
        let a = labels.get("a").unwrap();
        let c = labels.get("c").unwrap();
        assert!(nfa.accepts(&[a]));
        assert!(nfa.accepts(&[b, a]));
        assert!(nfa.accepts(&[c, a]));
        assert!(!nfa.accepts(&[c]));
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use std::sync::Barrier;

    fn word(ids: &[usize]) -> Vec<Label> {
        ids.iter().map(|&i| Label::from_index(i)).collect()
    }

    /// 128 distinct rules over `labels` labels, lhs of 1–2 labels and
    /// rhs of 1–3 (over 8 labels: the resident-context shape).
    fn sigma_over(labels: usize) -> Vec<PathConstraint> {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut sigma: Vec<PathConstraint> = Vec::new();
        while sigma.len() < 128 {
            let lhs: Vec<usize> = (0..1 + next(2)).map(|_| next(labels)).collect();
            let rhs: Vec<usize> = (0..1 + next(3)).map(|_| next(labels)).collect();
            let rule =
                PathConstraint::word(Path::from_labels(word(&lhs)), Path::from_labels(word(&rhs)));
            if lhs != rhs && !sigma.contains(&rule) {
                sigma.push(rule);
            }
        }
        sigma
    }

    fn memo_len(engine: &WordEngine) -> usize {
        engine.post.lock().unwrap().map.len()
    }

    #[test]
    fn racing_callers_get_one_automaton_and_every_call_counts() {
        let engine = WordEngine::new(&sigma_over(8)).unwrap();
        let lhs: Vec<Vec<Label>> = [&[0][..], &[1, 2], &[3, 3, 4], &[5, 6, 7, 0]]
            .iter()
            .map(|ids| word(ids))
            .collect();
        const ROUNDS: usize = 50;
        let barrier = Barrier::new(2);
        let seen: Vec<Vec<Arc<BitNfa>>> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (0..ROUNDS)
                            .flat_map(|_| lhs.iter().map(|w| engine.consequences(w)))
                            .collect()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (i, w) in lhs.iter().enumerate() {
            let stored = engine.consequences(w);
            for calls in &seen {
                for nfa in calls.iter().skip(i).step_by(lhs.len()) {
                    assert!(Arc::ptr_eq(nfa, &stored), "lhs {w:?}");
                }
            }
        }
        let (hits, misses) = engine.cache_stats();
        assert_eq!(hits + misses, (2 * ROUNDS + 1) as u64 * lhs.len() as u64);
        assert!((lhs.len()..=2 * lhs.len()).contains(&(misses as usize)));
    }

    #[test]
    fn memo_stays_bounded_over_many_distinct_lhs() {
        let sigma = sigma_over(32);
        let engine = WordEngine::new(&sigma).unwrap();
        // Lhs `i` is `i + 32` in base 32 (2–3 labels, all distinct); its
        // queries are one rewrite step away (implied) and its reverse.
        let lhs = |i: usize| {
            let mut digits = Vec::new();
            let mut n = i + 32;
            while n > 0 {
                digits.push(n % 32);
                n /= 32;
            }
            word(&digits)
        };
        let queries = |w: &[Label]| -> [Vec<Label>; 2] {
            let step = sigma
                .iter()
                .find(|c| w.starts_with(c.lhs().labels()))
                .map(|c| [c.rhs().labels(), &w[c.lhs().len()..]].concat())
                .unwrap_or_else(|| w.to_vec());
            let mut reversed = w.to_vec();
            reversed.reverse();
            [step, reversed]
        };
        let implied = |lhs: &[Label], rhs: &[Label]| engine.consequences(lhs).accepts(rhs);
        const LHS: usize = 10_000;
        let mut verdicts = Vec::with_capacity(LHS);
        for i in 0..LHS {
            let w = lhs(i);
            let [step, reversed] = queries(&w);
            let v = (implied(&w, &step), implied(&w, &reversed));
            assert!(v.0, "one rewrite step is derivable");
            verdicts.push(v);
            assert!(memo_len(&engine) <= MEMO_CAPACITY);
        }
        assert_eq!(memo_len(&engine), MEMO_CAPACITY);
        assert_eq!(engine.cache_stats(), (LHS as u64, LHS as u64));
        // Evicted lhs saturate again to the same verdicts, which a fresh
        // saturation confirms.
        for i in (0..LHS).step_by(97) {
            let w = lhs(i);
            let [step, reversed] = queries(&w);
            let again = (implied(&w, &step), implied(&w, &reversed));
            assert_eq!(again, verdicts[i], "lhs {w:?}");
            let fresh = engine.system().post_star(&w);
            assert_eq!(
                (fresh.accepts(&step), fresh.accepts(&reversed)),
                verdicts[i]
            );
        }
        assert!(verdicts.iter().any(|v| v.1) && verdicts.iter().any(|v| !v.1));
        assert!(memo_len(&engine) <= MEMO_CAPACITY);
    }
}

#[cfg(test)]
mod epsilon_collapse_tests {
    use super::*;
    use crate::chase::chase_implication;
    use crate::outcome::{Budget, Outcome};
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;

    /// The incompleteness witness: Σ = {a → ε} semantically implies
    /// a → a·a, but the three-rule system cannot derive it.
    #[test]
    fn pumping_consequence_detected_and_routed() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> ()", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> a.a", &mut labels).unwrap();

        let engine = WordEngine::new(&sigma).unwrap();
        assert!(engine.has_epsilon_collapse());
        // Not derivable…
        assert!(!engine.implies(&phi).unwrap());
        // …but semantically implied (the chase proves it)…
        assert!(matches!(
            chase_implication(&sigma, &phi, &Budget::default()),
            Outcome::Implied(_)
        ));
        // …and the solver routes around the incompleteness.
        let solver = crate::Solver::new(crate::DataContext::Semistructured);
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert!(answer.outcome.is_implied(), "{answer:?}");
    }

    #[test]
    fn derived_collapse_detected_transitively() {
        let mut labels = LabelInterner::new();
        // b → a → ε: b collapses too, via transitivity.
        let sigma = parse_constraints("a -> ()\nb -> a", &mut labels).unwrap();
        let engine = WordEngine::new(&sigma).unwrap();
        assert!(engine.has_epsilon_collapse());
    }

    #[test]
    fn collapse_free_sets_are_flagged_clean() {
        let mut labels = LabelInterner::new();
        // ε on the LEFT is harmless (the §4.1.2 encoding uses it).
        let sigma = parse_constraints("() -> K\nK.a -> K", &mut labels).unwrap();
        let engine = WordEngine::new(&sigma).unwrap();
        assert!(!engine.has_epsilon_collapse());
    }
}
