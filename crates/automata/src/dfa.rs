//! Deterministic finite automata, used for the `Paths(σ)` languages of
//! type systems (the *type graph* of a schema is a partial DFA) and as the
//! target of NFA determinization.

use crate::nfa::{Nfa, StateId};
use pathcons_graph::Label;
use std::collections::{HashMap, VecDeque};

/// A (partial) deterministic finite automaton.
///
/// Transitions are partial: a missing transition rejects. All states are
/// optionally accepting; for `Paths(σ)` every state is accepting and
/// membership is "the run does not get stuck".
#[derive(Clone, Debug)]
pub struct Dfa {
    /// `transitions[s]` is sorted by label; at most one target per label.
    transitions: Vec<Vec<(Label, StateId)>>,
    accepting: Vec<bool>,
    start: StateId,
}

impl Default for Dfa {
    fn default() -> Dfa {
        Dfa::new()
    }
}

impl Dfa {
    /// Creates a DFA with a single non-accepting start state.
    pub fn new() -> Dfa {
        Dfa {
            transitions: vec![Vec::new()],
            accepting: vec![false],
            start: StateId::from_index(0),
        }
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId::from_index(self.transitions.len());
        self.transitions.push(Vec::new());
        self.accepting.push(false);
        id
    }

    /// Marks a state accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state.index()] = accepting;
    }

    /// Whether `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state.index()]
    }

    /// Installs the transition `from --label--> to`.
    ///
    /// # Panics
    /// Panics if a *different* transition for the same label already exists
    /// (determinism violation).
    pub fn set_transition(&mut self, from: StateId, label: Label, to: StateId) {
        assert!(to.index() < self.transitions.len(), "no such target state");
        let row = &mut self.transitions[from.index()];
        match row.binary_search_by_key(&label, |&(l, _)| l) {
            Ok(pos) => assert_eq!(
                row[pos].1, to,
                "determinism violation: conflicting transition"
            ),
            Err(pos) => row.insert(pos, (label, to)),
        }
    }

    /// The target of `state --label-->`, if defined.
    pub fn step(&self, state: StateId, label: Label) -> Option<StateId> {
        let row = &self.transitions[state.index()];
        row.binary_search_by_key(&label, |&(l, _)| l)
            .ok()
            .map(|pos| row[pos].1)
    }

    /// Out-transitions of `state`, sorted by label.
    pub fn transitions(&self, state: StateId) -> impl Iterator<Item = (Label, StateId)> + '_ {
        self.transitions[state.index()].iter().copied()
    }

    /// Runs the DFA on `word` from the start state; `None` if the run gets
    /// stuck.
    pub fn run(&self, word: &[Label]) -> Option<StateId> {
        self.run_from(self.start, word)
    }

    /// Runs the DFA on `word` from `state`.
    pub fn run_from(&self, mut state: StateId, word: &[Label]) -> Option<StateId> {
        for &label in word {
            state = self.step(state, label)?;
        }
        Some(state)
    }

    /// Whether the DFA accepts `word` (run completes in an accepting state).
    pub fn accepts(&self, word: &[Label]) -> bool {
        self.run(word)
            .map(|s| self.accepting[s.index()])
            .unwrap_or(false)
    }

    /// Whether `word` is *readable* (the run completes, accepting or not).
    /// This is the `Paths(σ)` membership test when every state is a type.
    pub fn readable(&self, word: &[Label]) -> bool {
        self.run(word).is_some()
    }

    /// Enumerates readable words of length at most `max_len`, BFS order.
    pub fn readable_up_to(&self, max_len: usize) -> Vec<Vec<Label>> {
        let mut result = Vec::new();
        let mut frontier: Vec<(Vec<Label>, StateId)> = vec![(Vec::new(), self.start)];
        for len in 0..=max_len {
            let mut next = Vec::new();
            for (word, state) in &frontier {
                result.push(word.clone());
                if len == max_len {
                    continue;
                }
                for (label, target) in self.transitions(*state) {
                    let mut w = word.clone();
                    w.push(label);
                    next.push((w, target));
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        result
    }

    /// A shortest word whose run from the start ends in `target`, if any.
    pub fn shortest_word_to(&self, target: StateId) -> Option<Vec<Label>> {
        let mut parent: Vec<Option<(StateId, Label)>> = vec![None; self.state_count()];
        let mut seen = vec![false; self.state_count()];
        let mut queue = VecDeque::new();
        seen[self.start.index()] = true;
        queue.push_back(self.start);
        while let Some(s) = queue.pop_front() {
            if s == target {
                let mut word = Vec::new();
                let mut state = s;
                while state != self.start {
                    let (prev, label) = parent[state.index()].expect("BFS parent");
                    word.push(label);
                    state = prev;
                }
                word.reverse();
                return Some(word);
            }
            for (l, t) in self.transitions(s) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    parent[t.index()] = Some((s, l));
                    queue.push_back(t);
                }
            }
        }
        None
    }
}

/// Determinizes `nfa` by the subset construction, restricted to the given
/// alphabet. The result has no unreachable states; the dead (empty) subset
/// is never materialized, so the result is partial.
pub fn determinize(nfa: &Nfa, alphabet: &[Label]) -> Dfa {
    let mut dfa = Dfa::new();
    let mut subsets: HashMap<Vec<u32>, StateId> = HashMap::new();

    let encode = |bitmap: &[bool]| -> Vec<u32> {
        bitmap
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect()
    };
    let is_accepting = |bitmap: &[bool]| -> bool {
        bitmap
            .iter()
            .enumerate()
            .any(|(i, &b)| b && nfa.is_accepting(StateId::from_index(i)))
    };

    let start_closure = nfa.epsilon_closure(&[nfa.start()]);
    let start_key = encode(&start_closure);
    subsets.insert(start_key.clone(), dfa.start());
    dfa.set_accepting(dfa.start(), is_accepting(&start_closure));

    let mut queue: VecDeque<(Vec<u32>, StateId)> = VecDeque::new();
    queue.push_back((start_key, dfa.start()));

    while let Some((key, dfa_state)) = queue.pop_front() {
        for &label in alphabet {
            let mut seed = Vec::new();
            for &i in &key {
                seed.extend(nfa.successors(StateId::from_index(i as usize), label));
            }
            if seed.is_empty() {
                continue;
            }
            let closure = nfa.epsilon_closure(&seed);
            let next_key = encode(&closure);
            if next_key.is_empty() {
                continue;
            }
            let target = match subsets.get(&next_key) {
                Some(&s) => s,
                None => {
                    let s = dfa.add_state();
                    dfa.set_accepting(s, is_accepting(&closure));
                    subsets.insert(next_key.clone(), s);
                    queue.push_back((next_key.clone(), s));
                    s
                }
            };
            dfa.set_transition(dfa_state, label, target);
        }
    }
    dfa
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_graph::LabelInterner;

    fn ab() -> (Label, Label) {
        let interner = LabelInterner::with_labels(["a", "b"]);
        let mut it = interner.labels();
        (it.next().unwrap(), it.next().unwrap())
    }

    #[test]
    fn run_and_step() {
        let (a, b) = ab();
        let mut dfa = Dfa::new();
        let s1 = dfa.add_state();
        dfa.set_transition(dfa.start(), a, s1);
        dfa.set_transition(s1, b, dfa.start());
        assert_eq!(dfa.run(&[a, b, a]), Some(s1));
        assert_eq!(dfa.run(&[b]), None);
        assert!(dfa.readable(&[a, b]));
        assert!(!dfa.readable(&[a, a]));
    }

    #[test]
    #[should_panic(expected = "determinism violation")]
    fn conflicting_transition_panics() {
        let (a, _) = ab();
        let mut dfa = Dfa::new();
        let s1 = dfa.add_state();
        let s2 = dfa.add_state();
        dfa.set_transition(dfa.start(), a, s1);
        dfa.set_transition(dfa.start(), a, s2);
    }

    #[test]
    fn setting_same_transition_twice_is_ok() {
        let (a, _) = ab();
        let mut dfa = Dfa::new();
        let s1 = dfa.add_state();
        dfa.set_transition(dfa.start(), a, s1);
        dfa.set_transition(dfa.start(), a, s1);
        assert_eq!(dfa.step(dfa.start(), a), Some(s1));
    }

    #[test]
    fn determinize_preserves_language() {
        let (a, b) = ab();
        // NFA for (a|b)* a — classic nondeterministic example.
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        nfa.add_transition(nfa.start(), a, nfa.start());
        nfa.add_transition(nfa.start(), b, nfa.start());
        nfa.add_transition(nfa.start(), a, s1);
        nfa.set_accepting(s1, true);

        let dfa = determinize(&nfa, &[a, b]);
        for word in [
            vec![],
            vec![a],
            vec![b],
            vec![a, a],
            vec![a, b],
            vec![b, a],
            vec![b, b],
            vec![a, b, a],
            vec![b, b, b],
        ] {
            assert_eq!(nfa.accepts(&word), dfa.accepts(&word), "word {word:?}");
        }
    }

    #[test]
    fn determinize_with_epsilons() {
        let (a, b) = ab();
        // start -ε-> s1 -a-> s2(acc); start -b-> s2
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_epsilon(nfa.start(), s1);
        nfa.add_transition(s1, a, s2);
        nfa.add_transition(nfa.start(), b, s2);
        nfa.set_accepting(s2, true);
        let dfa = determinize(&nfa, &[a, b]);
        assert!(dfa.accepts(&[a]));
        assert!(dfa.accepts(&[b]));
        assert!(!dfa.accepts(&[]));
        assert!(!dfa.accepts(&[a, b]));
    }

    #[test]
    fn readable_up_to_enumerates() {
        let (a, b) = ab();
        let mut dfa = Dfa::new();
        let s1 = dfa.add_state();
        dfa.set_transition(dfa.start(), a, s1);
        dfa.set_transition(s1, b, dfa.start());
        let words = dfa.readable_up_to(3);
        assert!(words.contains(&vec![]));
        assert!(words.contains(&vec![a]));
        assert!(words.contains(&vec![a, b]));
        assert!(words.contains(&vec![a, b, a]));
        assert_eq!(words.len(), 4);
    }

    #[test]
    fn shortest_word_to_state() {
        let (a, b) = ab();
        let mut dfa = Dfa::new();
        let s1 = dfa.add_state();
        let s2 = dfa.add_state();
        dfa.set_transition(dfa.start(), a, s1);
        dfa.set_transition(s1, b, s2);
        dfa.set_transition(dfa.start(), b, dfa.start());
        assert_eq!(dfa.shortest_word_to(s2), Some(vec![a, b]));
        assert_eq!(dfa.shortest_word_to(dfa.start()), Some(vec![]));
    }
}
