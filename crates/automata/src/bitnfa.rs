//! NFAs frozen as per-(state, label) target bitsets — the form a `post*`
//! saturation produces (see [`crate::PrefixRewriteSystem::post_star`])
//! and a word context keeps per left-hand side.
//!
//! A saturated automaton has a fixed state space, and its transitions
//! concentrate on few sources: the start state and the last state of
//! each rule's right-hand-side chain reach every anchor the rule fires
//! on. One bitset per non-empty `(state, label)` row stores that
//! relation in `states / 8` bytes per row, and every operation the word
//! tier runs on it — membership, ε-closure, the residual quotient's
//! `pre_l` step and the subset construction — is a word-parallel OR
//! over those rows. The rows are indexed sparsely, per column by source
//! state, so the index grows with the alphabet and the rows that exist,
//! not with `states × alphabet`; a step scans its column's rows.
//!
//! A state set is a bitset of `⌈states / 64⌉` `u64`s: state `q` is bit
//! `q % 64` of word `q / 64`.

use crate::dfa::Dfa;
use crate::nfa::StateId;
use pathcons_graph::Label;
use std::collections::{HashMap, VecDeque};

/// A [`BitNfa`] under construction: transitions are added one at a time
/// and read back while they are, and [`Self::freeze`] packs the result.
pub(crate) struct BitNfaBuilder {
    states: usize,
    labels: Box<[Label]>,
    /// Per state, its non-empty rows as `(column, row in rows)`, sorted
    /// by column.
    index: Vec<Vec<(u32, u32)>>,
    /// The non-empty rows, `set_words` words each, in the order their
    /// first transition arrived.
    rows: Vec<u64>,
    accepting: Box<[u64]>,
    epsilon: bool,
}

impl BitNfaBuilder {
    /// `states` states and no transitions over the sorted, deduplicated
    /// `labels`; [`Self::insert`] adds the transitions.
    pub(crate) fn new(labels: Vec<Label>, states: usize) -> BitNfaBuilder {
        debug_assert!(labels.windows(2).all(|w| w[0] < w[1]));
        BitNfaBuilder {
            states,
            labels: labels.into(),
            index: vec![Vec::new(); states],
            rows: Vec::new(),
            accepting: vec![0; states.div_ceil(64)].into(),
            epsilon: false,
        }
    }

    /// Words per state set.
    pub(crate) fn set_words(&self) -> usize {
        self.states.div_ceil(64)
    }

    /// The column that reads `label`, if it is in the alphabet.
    pub(crate) fn column(&self, label: Label) -> Option<usize> {
        self.labels.binary_search(&label).ok()
    }

    /// The ε column.
    pub(crate) fn epsilon_column(&self) -> usize {
        self.labels.len()
    }

    /// Adds `from --column--> to` (column [`Self::epsilon_column`] for
    /// ε), allocating the row on its first transition; returns whether
    /// the transition is new.
    pub(crate) fn insert(&mut self, from: usize, column: usize, to: usize) -> bool {
        let w = self.set_words();
        let entries = &mut self.index[from];
        let r = match entries.binary_search_by_key(&(column as u32), |&(c, _)| c) {
            Ok(i) => entries[i].1 as usize,
            Err(i) => {
                let r = self.rows.len() / w;
                entries.insert(i, (column as u32, u32::try_from(r).expect("too many rows")));
                self.rows.resize(self.rows.len() + w, 0);
                r
            }
        };
        let word = &mut self.rows[r * w + to / 64];
        let bit = 1u64 << (to % 64);
        let new = *word & bit == 0;
        *word |= bit;
        self.epsilon |= column == self.labels.len();
        new
    }

    /// The targets of `state` under `column`, unless there are none.
    pub(crate) fn row(&self, state: usize, column: usize) -> Option<&[u64]> {
        let entries = &self.index[state];
        let i = entries
            .binary_search_by_key(&(column as u32), |&(c, _)| c)
            .ok()?;
        let (r, w) = (entries[i].1 as usize, self.set_words());
        Some(&self.rows[r * w..(r + 1) * w])
    }

    pub(crate) fn set_accepting(&mut self, state: usize) {
        insert(&mut self.accepting, StateId::from_index(state));
    }

    /// The finished automaton, its rows laid out by column and source
    /// state (a counting sort over the columns).
    pub(crate) fn freeze(self) -> BitNfa {
        let w = self.set_words();
        let columns = self.labels.len() + 1;
        let mut col_start = vec![0u32; columns + 1];
        for &(c, _) in self.index.iter().flatten() {
            col_start[c as usize + 1] += 1;
        }
        for c in 0..columns {
            col_start[c + 1] += col_start[c];
        }
        let count = col_start[columns] as usize;
        let mut next = col_start[..columns].to_vec();
        let mut sources = vec![0u32; count];
        let mut rows = vec![0u64; count * w];
        for (q, entries) in self.index.iter().enumerate() {
            for &(c, r) in entries {
                let i = next[c as usize] as usize;
                next[c as usize] += 1;
                sources[i] = q as u32;
                rows[i * w..(i + 1) * w]
                    .copy_from_slice(&self.rows[r as usize * w..(r as usize + 1) * w]);
            }
        }
        BitNfa {
            states: self.states,
            labels: self.labels,
            col_start: col_start.into(),
            sources: sources.into(),
            rows: rows.into(),
            accepting: self.accepting,
            epsilon: self.epsilon,
        }
    }
}

/// An NFA with ε-transitions over a fixed, sorted alphabet, stored as one
/// target bitset per non-empty `(state, label)` and `(state, ε)` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitNfa {
    states: usize,
    /// The alphabet, sorted: column `c` reads `labels[c]`, and column
    /// `labels.len()` is ε.
    labels: Box<[Label]>,
    /// Column `c`'s rows are rows `col_start[c]..col_start[c + 1]`.
    col_start: Box<[u32]>,
    /// Each row's source state, ascending within a column.
    sources: Box<[u32]>,
    /// The rows, `set_words` words each.
    rows: Box<[u64]>,
    accepting: Box<[u64]>,
    /// Whether any ε-transition exists (closures are no-ops otherwise).
    epsilon: bool,
}

impl BitNfa {
    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// The start state (always state 0).
    #[inline]
    pub fn start(&self) -> StateId {
        StateId::from_index(0)
    }

    /// Words per state set.
    #[inline]
    pub(crate) fn set_words(&self) -> usize {
        self.states.div_ceil(64)
    }

    fn empty_set(&self) -> Vec<u64> {
        vec![0; self.set_words()]
    }

    /// Whether the state set `set` contains `state`.
    pub fn contains(set: &[u64], state: StateId) -> bool {
        contains(set, state)
    }

    /// Whether `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        contains(&self.accepting, state)
    }

    /// The accepting states, as a set.
    pub fn accepting_set(&self) -> &[u64] {
        &self.accepting
    }

    /// Bytes held on the heap.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[Label]>(&self.labels)
            + std::mem::size_of_val::<[u32]>(&self.col_start)
            + std::mem::size_of_val::<[u32]>(&self.sources)
            + std::mem::size_of_val::<[u64]>(&self.rows)
            + std::mem::size_of_val::<[u64]>(&self.accepting)
    }

    /// The column that reads `label`, if it is in the alphabet.
    fn column(&self, label: Label) -> Option<usize> {
        self.labels.binary_search(&label).ok()
    }

    /// The ε column.
    fn epsilon_column(&self) -> usize {
        self.labels.len()
    }

    /// Row `i`'s targets.
    fn row_at(&self, i: usize) -> &[u64] {
        let w = self.set_words();
        &self.rows[i * w..(i + 1) * w]
    }

    /// Column `column`'s non-empty rows as `(source, targets)`, by
    /// source.
    fn column_rows(&self, column: usize) -> impl Iterator<Item = (usize, &[u64])> + '_ {
        let (lo, hi) = (
            self.col_start[column] as usize,
            self.col_start[column + 1] as usize,
        );
        (lo..hi).map(move |i| (self.sources[i] as usize, self.row_at(i)))
    }

    /// The targets of `state` under `column`, unless there are none.
    fn row(&self, state: usize, column: usize) -> Option<&[u64]> {
        let lo = self.col_start[column] as usize;
        let hi = self.col_start[column + 1] as usize;
        let i = self.sources[lo..hi].binary_search(&(state as u32)).ok()?;
        Some(self.row_at(lo + i))
    }

    /// Every labeled transition `(from, label, to)`, by label, then
    /// source, then target.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Label, StateId)> + '_ {
        self.labels.iter().enumerate().flat_map(move |(c, &l)| {
            self.column_rows(c)
                .flat_map(move |(q, row)| members(row).map(move |t| (StateId::from_index(q), l, t)))
        })
    }

    /// Every ε-transition `(from, to)`, sorted.
    pub fn epsilon_transitions(&self) -> impl Iterator<Item = (StateId, StateId)> + '_ {
        self.column_rows(self.epsilon_column())
            .flat_map(|(q, row)| members(row).map(move |t| (StateId::from_index(q), t)))
    }

    /// Closes `set` under ε-transitions.
    fn close(&self, set: &mut [u64]) {
        if !self.epsilon {
            return;
        }
        let eps = self.epsilon_column();
        let mut stack: Vec<usize> = members(set).map(StateId::index).collect();
        while let Some(q) = stack.pop() {
            if let Some(row) = self.row(q, eps) {
                for (i, (s, &r)) in set.iter_mut().zip(row).enumerate() {
                    let new = r & !*s;
                    *s |= new;
                    push_bits(i, new, |t| stack.push(t));
                }
            }
        }
    }

    /// Writes the ε-closed `column`-image of `set` into `out`; returns
    /// whether it is non-empty.
    fn step_into(&self, set: &[u64], column: usize, out: &mut Vec<u64>) -> bool {
        out.clear();
        out.resize(self.set_words(), 0);
        let mut any = false;
        for (q, row) in self.column_rows(column) {
            if contains(set, StateId::from_index(q)) {
                any = true;
                or_into(out, row);
            }
        }
        self.close(out);
        any
    }

    /// The ε-closed `column`-image of `set`; `None` when it is empty.
    fn step(&self, set: &[u64], column: usize) -> Option<Vec<u64>> {
        let mut next = Vec::new();
        self.step_into(set, column, &mut next).then_some(next)
    }

    /// The ε-closed start set.
    fn initial(&self) -> Vec<u64> {
        let mut set = self.empty_set();
        insert(&mut set, self.start());
        self.close(&mut set);
        set
    }

    fn any_accepting(&self, set: &[u64]) -> bool {
        set.iter().zip(&*self.accepting).any(|(s, a)| s & a != 0)
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Label]) -> bool {
        let mut current = self.initial();
        let mut next = Vec::new();
        for &label in word {
            match self.column(label) {
                Some(c) if self.step_into(&current, c, &mut next) => {
                    std::mem::swap(&mut current, &mut next);
                }
                _ => return false,
            }
        }
        self.any_accepting(&current)
    }

    /// Whether the automaton accepts some *non-empty* word.
    pub fn accepts_some_nonempty(&self) -> bool {
        // Every state reachable after reading at least one label.
        let mut seen = self.empty_set();
        let mut frontier = self.initial();
        loop {
            let mut next = self.empty_set();
            for c in 0..self.labels.len() {
                for (q, row) in self.column_rows(c) {
                    if contains(&frontier, StateId::from_index(q)) {
                        or_into(&mut next, row);
                    }
                }
            }
            self.close(&mut next);
            let mut grew = false;
            for (s, n) in seen.iter_mut().zip(next.iter_mut()) {
                *n &= !*s;
                *s |= *n;
                grew |= *n != 0;
            }
            if !grew {
                return self.any_accepting(&seen);
            }
            frontier = next;
        }
    }

    /// The states with a `label`-transition into `set`, closed under
    /// *backward* ε-transitions: `pre_l(set)` of the residual quotient.
    pub fn pre_closed(&self, label: Label, set: &[u64]) -> Vec<u64> {
        let mut pre = self.empty_set();
        if let Some(c) = self.column(label) {
            for (q, row) in self.column_rows(c) {
                if intersects(row, set) {
                    insert(&mut pre, StateId::from_index(q));
                }
            }
        }
        self.close_backward(&mut pre);
        pre
    }

    /// Closes `set` under backward ε-transitions: adds every state with
    /// an ε-path into it.
    pub fn close_backward(&self, set: &mut [u64]) {
        if !self.epsilon {
            return;
        }
        loop {
            let mut grew = false;
            for (q, row) in self.column_rows(self.epsilon_column()) {
                let state = StateId::from_index(q);
                if !contains(set, state) && intersects(row, set) {
                    insert(set, state);
                    grew = true;
                }
            }
            if !grew {
                return;
            }
        }
    }

    /// Every accepted word of length at most `max_len` over `alphabet`,
    /// in length-lexicographic order of exploration. For tests.
    pub fn accepted_up_to(&self, alphabet: &[Label], max_len: usize) -> Vec<Vec<Label>> {
        let mut result = Vec::new();
        let mut frontier: Vec<(Vec<Label>, Vec<u64>)> = vec![(Vec::new(), self.initial())];
        for len in 0..=max_len {
            let mut next = Vec::new();
            for (word, set) in &frontier {
                if self.any_accepting(set) {
                    result.push(word.clone());
                }
                if len == max_len {
                    continue;
                }
                for &label in alphabet {
                    if let Some(image) = self.column(label).and_then(|c| self.step(set, c)) {
                        let mut w = word.clone();
                        w.push(label);
                        next.push((w, image));
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        result
    }

    /// Determinizes the automaton by the subset construction over its
    /// alphabet; `None` when it would pass `max_states` subset states.
    /// The DFA is an accelerator for repeated membership, and the subset
    /// construction is exponential in the worst case.
    ///
    /// Subsets are explored breadth-first, labels in alphabet order, and
    /// the dead subset is never materialized — the same exploration as
    /// [`crate::determinize`] over an [`crate::Nfa`] with the same
    /// transitions, so the same DFA, state numbering included.
    pub fn determinize_capped(&self, max_states: usize) -> Option<Dfa> {
        let mut dfa = Dfa::new();
        let start = self.initial();
        dfa.set_accepting(dfa.start(), self.any_accepting(&start));
        let mut subsets: HashMap<Vec<u64>, StateId> = HashMap::from([(start.clone(), dfa.start())]);
        let mut queue: VecDeque<(Vec<u64>, StateId)> = VecDeque::from([(start, dfa.start())]);
        while let Some((set, state)) = queue.pop_front() {
            for (c, &label) in self.labels.iter().enumerate() {
                let Some(next) = self.step(&set, c) else {
                    continue;
                };
                let target = match subsets.get(&next) {
                    Some(&s) => s,
                    None => {
                        if dfa.state_count() >= max_states {
                            return None;
                        }
                        let s = dfa.add_state();
                        dfa.set_accepting(s, self.any_accepting(&next));
                        subsets.insert(next.clone(), s);
                        queue.push_back((next, s));
                        s
                    }
                };
                dfa.set_transition(state, label, target);
            }
        }
        Some(dfa)
    }
}

/// The states of a set, ascending.
fn members(set: &[u64]) -> impl Iterator<Item = StateId> + '_ {
    set.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                StateId::from_index(i * 64 + b)
            })
        })
    })
}

/// Calls `push` on each state of `bits`, word `i` of a set.
pub(crate) fn push_bits(i: usize, mut bits: u64, mut push: impl FnMut(usize)) {
    while bits != 0 {
        push(i * 64 + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

#[inline]
fn contains(set: &[u64], state: StateId) -> bool {
    set[state.index() / 64] & (1 << (state.index() % 64)) != 0
}

#[inline]
fn insert(set: &mut [u64], state: StateId) {
    set[state.index() / 64] |= 1 << (state.index() % 64);
}

fn or_into(set: &mut [u64], row: &[u64]) {
    for (s, r) in set.iter_mut().zip(row) {
        *s |= r;
    }
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{determinize, Nfa, PrefixRewriteSystem};

    #[test]
    fn a_wide_automaton_is_stored_in_less_than_a_byte_per_state_and_label() {
        // `lᵢ ⇒ lᵢ₊₁·lᵢ₊₂` for i < 1 000: every rule fires from `l₀`,
        // over 1 002 labels and 1 002 states, but only the start state
        // and each rule's interior state have rows.
        let n = 1000;
        let l = |i: usize| Label::from_index(i);
        let system = PrefixRewriteSystem::from_rules(
            (0..n).map(|i| crate::RewriteRule::new(vec![l(i)], vec![l(i + 1), l(i + 2)])),
        );
        let nfa = system.post_star(&[l(0)]);
        assert_eq!(nfa.state_count(), n + 2);
        assert!(nfa.accepts(&[l(1), l(2)]));
        assert!(nfa.accepts(&[l(2), l(3), l(2)]));
        assert!(!nfa.accepts(&[l(2)]));
        let pairs = nfa.state_count() * (n + 2);
        assert!(
            nfa.heap_bytes() < pairs,
            "{} heap bytes for {pairs} (state, label) pairs",
            nfa.heap_bytes()
        );
    }

    #[test]
    fn capped_determinization_falls_back_or_matches_the_nfa_one() {
        let (a, b) = (Label::from_index(0), Label::from_index(1));
        // (a|b)* a, with an ε-detour: needs 2 subset states.
        let mut bits = BitNfaBuilder::new(vec![a, b], 3);
        let mut nfa = Nfa::new();
        nfa.add_state();
        let accepting = nfa.add_state();
        for (from, label, to) in [
            (0, Some(a), 0),
            (0, Some(b), 0),
            (0, Some(a), 1),
            (1, None, 2),
        ] {
            let (f, t) = (StateId::from_index(from), StateId::from_index(to));
            match label {
                Some(l) => {
                    bits.insert(from, bits.column(l).unwrap(), to);
                    nfa.add_transition(f, l, t);
                }
                None => {
                    bits.insert(from, bits.epsilon_column(), to);
                    nfa.add_epsilon(f, t);
                }
            }
        }
        bits.set_accepting(2);
        let bits = bits.freeze();
        nfa.set_accepting(accepting, true);

        assert!(bits.determinize_capped(1).is_none());
        let capped = bits.determinize_capped(2).expect("2 subsets suffice");
        let reference = determinize(&nfa, &[a, b]);
        assert_eq!(capped.state_count(), reference.state_count());
        for q in (0..capped.state_count()).map(StateId::from_index) {
            assert!(capped.transitions(q).eq(reference.transitions(q)));
            assert_eq!(capped.is_accepting(q), reference.is_accepting(q));
        }
        for word in [vec![], vec![a], vec![b, a], vec![a, b]] {
            assert_eq!(bits.accepts(&word), nfa.accepts(&word), "word {word:?}");
        }
    }
}
