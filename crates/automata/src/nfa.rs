//! Nondeterministic finite automata over interned labels.
//!
//! The automata here serve two roles in the reproduction:
//!
//! 1. they are the data structure the prefix-rewriting saturation of
//!    [`crate::rewrite`] operates on (the "P-automaton" of pushdown
//!    reachability), which underlies the PTIME word-constraint decision
//!    procedure of Abiteboul & Vianu [4] used throughout the paper;
//! 2. they represent the `Paths(σ)` languages of type systems (via the
//!    deterministic variant in [`crate::dfa`]).

use pathcons_graph::Label;
use std::collections::VecDeque;
use std::fmt;

/// A state of an [`Nfa`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// Raw index of the state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a state id from a raw index.
    #[inline]
    pub fn from_index(index: usize) -> StateId {
        debug_assert!(index <= u32::MAX as usize);
        StateId(index as u32)
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

#[derive(Clone, Debug, Default)]
struct StateData {
    /// Labeled transitions, sorted by `(label, target)`, deduplicated.
    transitions: Vec<(Label, StateId)>,
    /// ε-transitions, sorted and deduplicated.
    epsilon: Vec<StateId>,
    accepting: bool,
}

/// A nondeterministic finite automaton with ε-transitions over [`Label`]s.
///
/// States are arena-allocated; the automaton always has a start state.
///
/// ```
/// use pathcons_automata::Nfa;
/// use pathcons_graph::LabelInterner;
///
/// let mut labels = LabelInterner::new();
/// let a = labels.intern("a");
/// let b = labels.intern("b");
///
/// let nfa = Nfa::from_word(&[a, b]); // accepts exactly "ab"
/// assert!(nfa.accepts(&[a, b]));
/// assert!(!nfa.accepts(&[a]));
/// assert!(!nfa.accepts(&[b, a]));
/// ```
#[derive(Clone, Debug)]
pub struct Nfa {
    states: Vec<StateData>,
    start: StateId,
}

impl Default for Nfa {
    fn default() -> Nfa {
        Nfa::new()
    }
}

impl Nfa {
    /// Creates an automaton with a single non-accepting start state
    /// (accepting the empty language).
    pub fn new() -> Nfa {
        Nfa {
            states: vec![StateData::default()],
            start: StateId(0),
        }
    }

    /// Creates an automaton accepting exactly the single word `word`
    /// (a chain of `|word| + 1` states).
    pub fn from_word(word: &[Label]) -> Nfa {
        let mut nfa = Nfa::new();
        let mut current = nfa.start();
        for &label in word {
            let next = nfa.add_state();
            nfa.add_transition(current, label, next);
            current = next;
        }
        nfa.set_accepting(current, true);
        nfa
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Total number of labeled transitions.
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.transitions.len()).sum()
    }

    /// Total number of ε-transitions.
    pub fn epsilon_count(&self) -> usize {
        self.states.iter().map(|s| s.epsilon.len()).sum()
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(u32::try_from(self.states.len()).expect("too many states"));
        self.states.push(StateData::default());
        id
    }

    /// Marks `state` as accepting or not.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.states[state.index()].accepting = accepting;
    }

    /// Whether `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.states[state.index()].accepting
    }

    /// All accepting states.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.accepting)
            .map(|(i, _)| StateId::from_index(i))
    }

    /// Adds a labeled transition; returns `true` if it was new.
    pub fn add_transition(&mut self, from: StateId, label: Label, to: StateId) -> bool {
        assert!(to.index() < self.states.len(), "no such target state");
        let transitions = &mut self.states[from.index()].transitions;
        match transitions.binary_search(&(label, to)) {
            Ok(_) => false,
            Err(pos) => {
                transitions.insert(pos, (label, to));
                true
            }
        }
    }

    /// Adds an ε-transition; returns `true` if it was new.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) -> bool {
        assert!(to.index() < self.states.len(), "no such target state");
        let eps = &mut self.states[from.index()].epsilon;
        match eps.binary_search(&to) {
            Ok(_) => false,
            Err(pos) => {
                eps.insert(pos, to);
                true
            }
        }
    }

    /// Labeled transitions out of `state`, sorted by label.
    pub fn transitions(&self, state: StateId) -> impl Iterator<Item = (Label, StateId)> + '_ {
        self.states[state.index()].transitions.iter().copied()
    }

    /// ε-successors of `state`.
    pub fn epsilon_successors(&self, state: StateId) -> impl Iterator<Item = StateId> + '_ {
        self.states[state.index()].epsilon.iter().copied()
    }

    /// Successors of `state` along `label` (not ε-closed).
    pub fn successors(&self, state: StateId, label: Label) -> impl Iterator<Item = StateId> + '_ {
        let transitions = &self.states[state.index()].transitions;
        let start = transitions.partition_point(|&(l, _)| l < label);
        transitions[start..]
            .iter()
            .take_while(move |&&(l, _)| l == label)
            .map(|&(_, t)| t)
    }

    /// ε-closure of a set of states, returned as a membership bitmap.
    pub fn epsilon_closure(&self, seed: &[StateId]) -> Vec<bool> {
        let mut in_set = vec![false; self.states.len()];
        let mut queue: VecDeque<StateId> = VecDeque::new();
        for &s in seed {
            if !in_set[s.index()] {
                in_set[s.index()] = true;
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            for t in self.epsilon_successors(s) {
                if !in_set[t.index()] {
                    in_set[t.index()] = true;
                    queue.push_back(t);
                }
            }
        }
        in_set
    }

    /// The set of states reachable from the start state by reading `word`
    /// (ε-closed), as a membership bitmap.
    pub fn read(&self, word: &[Label]) -> Vec<bool> {
        let mut current = self.epsilon_closure(&[self.start]);
        for &label in word {
            let mut seed = Vec::new();
            for (i, &active) in current.iter().enumerate() {
                if active {
                    for t in self.successors(StateId::from_index(i), label) {
                        seed.push(t);
                    }
                }
            }
            current = self.epsilon_closure(&seed);
        }
        current
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Label]) -> bool {
        self.read(word)
            .iter()
            .enumerate()
            .any(|(i, &active)| active && self.states[i].accepting)
    }

    /// Whether the accepted language is empty.
    pub fn is_empty(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// Whether the automaton accepts any *non-empty* word.
    pub fn accepts_some_nonempty(&self) -> bool {
        // BFS over (state, consumed-a-label) pairs.
        let mut seen = vec![[false; 2]; self.state_count()];
        let mut queue = std::collections::VecDeque::new();
        seen[self.start.index()][0] = true;
        queue.push_back((self.start, false));
        while let Some((s, consumed)) = queue.pop_front() {
            if consumed && self.states[s.index()].accepting {
                return true;
            }
            for t in self.epsilon_successors(s) {
                if !seen[t.index()][consumed as usize] {
                    seen[t.index()][consumed as usize] = true;
                    queue.push_back((t, consumed));
                }
            }
            for (_, t) in self.transitions(s) {
                if !seen[t.index()][1] {
                    seen[t.index()][1] = true;
                    queue.push_back((t, true));
                }
            }
        }
        false
    }

    /// A shortest accepted word, if any (BFS over states).
    pub fn shortest_accepted(&self) -> Option<Vec<Label>> {
        // BFS over single states suffices for reachability to an accepting
        // state; the path spells an accepted word.
        let mut parent: Vec<Option<(StateId, Option<Label>)>> = vec![None; self.states.len()];
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::new();
        seen[self.start.index()] = true;
        queue.push_back(self.start);
        let mut hit: Option<StateId> = None;
        'bfs: while let Some(s) = queue.pop_front() {
            if self.states[s.index()].accepting {
                hit = Some(s);
                break 'bfs;
            }
            for t in self.epsilon_successors(s) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    parent[t.index()] = Some((s, None));
                    queue.push_back(t);
                }
            }
            for (l, t) in self.transitions(s) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    parent[t.index()] = Some((s, Some(l)));
                    queue.push_back(t);
                }
            }
        }
        let mut state = hit?;
        let mut word = Vec::new();
        while state != self.start {
            let (prev, label) = parent[state.index()].expect("BFS parent");
            if let Some(l) = label {
                word.push(l);
            }
            state = prev;
        }
        word.reverse();
        Some(word)
    }
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
    fn from_word_accepts_exactly_that_word() {
        let (a, b) = ab();
        let nfa = Nfa::from_word(&[a, b, a]);
        assert!(nfa.accepts(&[a, b, a]));
        assert!(!nfa.accepts(&[a, b]));
        assert!(!nfa.accepts(&[a, b, a, a]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn empty_word_automaton() {
        let nfa = Nfa::from_word(&[]);
        assert!(nfa.accepts(&[]));
        let (a, _) = ab();
        assert!(!nfa.accepts(&[a]));
    }

    #[test]
    fn epsilon_transitions_are_followed() {
        let (a, _) = ab();
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_epsilon(nfa.start(), s1);
        nfa.add_transition(s1, a, s2);
        nfa.set_accepting(s2, true);
        assert!(nfa.accepts(&[a]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn epsilon_closure_is_transitive() {
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_epsilon(nfa.start(), s1);
        nfa.add_epsilon(s1, s2);
        let closure = nfa.epsilon_closure(&[nfa.start()]);
        assert!(closure.iter().all(|&b| b));
    }

    #[test]
    fn nondeterminism_unions_runs() {
        let (a, b) = ab();
        // start -a-> s1(acc), start -a-> s2 -b-> s3(acc)
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        let s3 = nfa.add_state();
        nfa.add_transition(nfa.start(), a, s1);
        nfa.add_transition(nfa.start(), a, s2);
        nfa.add_transition(s2, b, s3);
        nfa.set_accepting(s1, true);
        nfa.set_accepting(s3, true);
        assert!(nfa.accepts(&[a]));
        assert!(nfa.accepts(&[a, b]));
        assert!(!nfa.accepts(&[b]));
    }

    #[test]
    fn shortest_accepted_finds_minimum() {
        let (a, b) = ab();
        let mut nfa = Nfa::new();
        // loop a on start; accept after b.
        let s1 = nfa.add_state();
        nfa.add_transition(nfa.start(), a, nfa.start());
        nfa.add_transition(nfa.start(), b, s1);
        nfa.set_accepting(s1, true);
        assert_eq!(nfa.shortest_accepted(), Some(vec![b]));
    }

    #[test]
    fn emptiness() {
        let (a, _) = ab();
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        nfa.add_transition(nfa.start(), a, s1);
        assert!(nfa.is_empty());
        nfa.set_accepting(s1, true);
        assert!(!nfa.is_empty());
    }

    #[test]
    fn duplicate_transitions_are_ignored() {
        let (a, _) = ab();
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        assert!(nfa.add_transition(nfa.start(), a, s1));
        assert!(!nfa.add_transition(nfa.start(), a, s1));
        assert_eq!(nfa.transition_count(), 1);
        assert!(nfa.add_epsilon(nfa.start(), s1));
        assert!(!nfa.add_epsilon(nfa.start(), s1));
        assert_eq!(nfa.epsilon_count(), 1);
    }
}
