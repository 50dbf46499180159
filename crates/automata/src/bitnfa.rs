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
//!
//! A saturated automaton also keeps its provenance: a positive stamp
//! per transition the saturation added for a rule (its breadth-first
//! generation; `0` for the fixed ones), stored per row in the order of
//! the row's bits, and the rule that added it. [`BitNfa::run`] finds a
//! run through the transitions stamped below a bound, which is how
//! [`crate::PrefixRewriteSystem::derivation`] reads a rewrite
//! derivation off the automaton.

use crate::nfa::StateId;
use pathcons_graph::Label;

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
    /// The stamped transitions as `(row in rows, target, stamp, rule)`.
    stamped: Vec<(u32, u32, u32, u32)>,
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
            stamped: Vec::new(),
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
    /// the transition is new. A new transition a rule added keeps its
    /// `provenance`, a positive stamp and the rule.
    pub(crate) fn insert(
        &mut self,
        from: usize,
        column: usize,
        to: usize,
        provenance: Option<(u32, usize)>,
    ) -> bool {
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
        if let Some((stamp, rule)) = provenance.filter(|_| new) {
            debug_assert!(stamp > 0);
            self.stamped.push((r as u32, to as u32, stamp, rule as u32));
        }
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
    /// state (a counting sort over the columns), and the stamps of every
    /// row with a stamped transition in the order of the row's bits.
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
        let mut moved = vec![0u32; count];
        for (q, entries) in self.index.iter().enumerate() {
            for &(c, r) in entries {
                let i = next[c as usize] as usize;
                next[c as usize] += 1;
                sources[i] = q as u32;
                moved[r as usize] = i as u32;
                rows[i * w..(i + 1) * w]
                    .copy_from_slice(&self.rows[r as usize * w..(r as usize + 1) * w]);
            }
        }
        // Rows with a stamped transition keep a stamp per bit, the start
        // state's rows first: their bits also keep the rule.
        let mut stamped = vec![false; count];
        for &(r, ..) in &self.stamped {
            stamped[moved[r as usize] as usize] = true;
        }
        let bits = |i: usize| {
            rows[i * w..(i + 1) * w]
                .iter()
                .map(|x| x.count_ones() as usize)
        };
        let (start, exits): (Vec<usize>, Vec<usize>) = (0..count)
            .filter(|&i| stamped[i])
            .partition(|&i| sources[i] == 0);
        let mut stamp_at = vec![UNSTAMPED; count];
        let mut offset = 0;
        for &i in start.iter().chain(&exits) {
            stamp_at[i] = offset as u32;
            offset += bits(i).sum::<usize>();
        }
        let start_bits = start.iter().flat_map(|&i| bits(i)).sum();
        let mut stamps = vec![0u32; offset];
        let mut rules = vec![0u32; start_bits];
        let mut exit_rule = vec![0u32; self.states];
        for &(r, t, stamp, rule) in &self.stamped {
            let i = moved[r as usize] as usize;
            let at = stamp_at[i] as usize + rank(&rows[i * w..(i + 1) * w], t as usize);
            stamps[at] = stamp;
            match sources[i] {
                0 => rules[at] = rule,
                from => exit_rule[from as usize] = rule,
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
            stamp_at: stamp_at.into(),
            stamps: Packed::new(stamps),
            start_rules: Packed::new(rules),
            exit_rule: Packed::new(exit_rule),
        }
    }
}

/// The `stamp_at` of a row without stamps.
const UNSTAMPED: u32 = u32::MAX;

/// Integers stored in as few little-endian bytes each as the largest
/// needs: one or two for the stamps and rules of most automata.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Packed {
    width: usize,
    bytes: Box<[u8]>,
}

impl Packed {
    fn new(values: Vec<u32>) -> Packed {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = (4 - max.leading_zeros() as usize / 8).max(1);
        let bytes = values
            .iter()
            .flat_map(|v| v.to_le_bytes().into_iter().take(width));
        Packed {
            width,
            bytes: bytes.collect(),
        }
    }

    fn get(&self, i: usize) -> u32 {
        let bytes = &self.bytes[i * self.width..(i + 1) * self.width];
        bytes.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b))
    }
}

/// One transition of a run, `from --column--> to` (the ε column for
/// ε); see [`BitNfa::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Move {
    pub(crate) from: u32,
    pub(crate) column: u32,
    pub(crate) to: u32,
}

/// A state a run search reached, the least stamp sum of a run to it,
/// and that run's last move.
type Reached = (u32, u64, Move);

/// The last move of the empty run.
const NO_MOVE: Move = Move {
    from: u32::MAX,
    column: u32::MAX,
    to: u32::MAX,
};

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
    /// Row `i`'s stamps start at `stamps[stamp_at[i]]`, one per target
    /// in ascending order, unless the row has none (`UNSTAMPED`):
    /// stamped transitions leave the start state (a rule's direct or
    /// ε-transition) or the last state of a rule's rhs chain (its exit).
    stamp_at: Box<[u32]>,
    stamps: Packed,
    /// The rule that added each of the start state's stamped
    /// transitions, laid out as their stamps, which come first.
    start_rules: Packed,
    /// Per state, the rule whose exits leave it, if any do.
    exit_rule: Packed,
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
            + std::mem::size_of_val::<[u32]>(&self.stamp_at)
            + self.stamps.bytes.len()
            + self.start_rules.bytes.len()
            + self.exit_rule.bytes.len()
    }

    /// The column that reads `label`, if it is in the alphabet.
    pub(crate) fn column(&self, label: Label) -> Option<usize> {
        self.labels.binary_search(&label).ok()
    }

    /// The ε column.
    pub(crate) fn epsilon_column(&self) -> usize {
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

    /// The index of the row of `state` under `column`, if it has one.
    fn row_index(&self, state: usize, column: usize) -> Option<usize> {
        let lo = self.col_start[column] as usize;
        let hi = self.col_start[column + 1] as usize;
        let i = self.sources[lo..hi].binary_search(&(state as u32)).ok()?;
        Some(lo + i)
    }

    /// The targets of `state` under `column`, unless there are none.
    fn row(&self, state: usize, column: usize) -> Option<&[u64]> {
        self.row_index(state, column).map(|i| self.row_at(i))
    }

    /// The stamp of the transition `m` and the rule that added it, when
    /// the saturation added it for a rule (stamps are positive); `m`
    /// must exist.
    pub(crate) fn provenance(&self, m: Move) -> Option<(u32, usize)> {
        let i = self
            .row_index(m.from as usize, m.column as usize)
            .expect("a run's transitions exist");
        if self.stamp_at[i] == UNSTAMPED {
            return None;
        }
        let at = self.stamp_at[i] as usize + rank(self.row_at(i), m.to as usize);
        let stamp = self.stamps.get(at);
        let rule = match m.from {
            0 => self.start_rules.get(at),
            from => self.exit_rule.get(from as usize),
        };
        (stamp > 0).then_some((stamp, rule as usize))
    }

    /// A run reading `word` from the start state to `target` through
    /// transitions stamped below `bound`, or `None` when there is none.
    ///
    /// Of all such runs it takes one whose stamps have the least sum,
    /// so it leans on the oldest transitions; ties go to the move found
    /// first, trying states and each row's targets in ascending order.
    /// So the run is a function of the automaton, `word`, `target` and
    /// `bound` alone. The search assumes what a saturation guarantees:
    /// every ε-transition leaves the start state.
    pub(crate) fn run(&self, word: &[Label], target: usize, bound: u32) -> Option<Vec<Move>> {
        let (eps, w, n) = (self.epsilon_column(), self.set_words(), word.len());
        let columns = word
            .iter()
            .map(|&l| self.column(l))
            .collect::<Option<Vec<_>>>()?;
        // `useful[i * w..][..w]`: the states reached by `word[..i]` from
        // which `word[i..]` reaches `target`, stamps aside; the search
        // looks nowhere else.
        let mut useful = self.initial();
        let mut next = Vec::new();
        for (i, &c) in columns.iter().enumerate() {
            self.step_into(&useful[i * w..], c, &mut next);
            useful.extend_from_slice(&next);
        }
        let mut kept = self.empty_set();
        for i in (0..=n).rev() {
            kept.fill(0);
            let (now, later) = useful.split_at_mut((i + 1) * w);
            let reached = &mut now[i * w..];
            match columns.get(i) {
                None => insert(&mut kept, StateId::from_index(target)),
                Some(&c) => self.rows_from(c, reached, |q, row| {
                    if intersects(row, &later[..w]) {
                        insert(&mut kept, StateId::from_index(q));
                    }
                }),
            }
            // The start state also leads on through an ε-move.
            if self.row(0, eps).is_some_and(|row| intersects(row, &kept)) {
                insert(&mut kept, self.start());
            }
            reached.iter_mut().zip(&kept).for_each(|(r, k)| *r &= k);
        }
        // `layers[at[i]..at[i + 1]]`: each useful state a run reading
        // `word[..i]` reaches, the least stamp sum of such a run and its
        // last move, by state.
        let (mut layers, mut at) = (Vec::new(), vec![0]);
        let (mut layer, mut slot) = (Vec::new(), vec![u32::MAX; self.states]);
        for i in 0..=n {
            let useful = &useful[i * w..(i + 1) * w];
            if i == 0 {
                if contains(useful, self.start()) {
                    slot[0] = 0;
                    layer.push((0, 0, NO_MOVE));
                }
            } else {
                for &(p, cost, _) in &layers[at[i - 1]..at[i]] {
                    let Some(r) = self.row_index(p as usize, columns[i - 1]) else {
                        continue;
                    };
                    self.relax(
                        &mut layer,
                        &mut slot,
                        useful,
                        (r, columns[i - 1]),
                        cost,
                        bound,
                    );
                }
            }
            if let (Some(r), k) = (self.row_index(0, eps), slot[0]) {
                if k != u32::MAX {
                    let cost = layer[k as usize].1;
                    self.relax(&mut layer, &mut slot, useful, (r, eps), cost, bound);
                }
            }
            for &(t, ..) in &layer {
                slot[t as usize] = u32::MAX;
            }
            layer.sort_unstable_by_key(|&(t, ..)| t);
            layers.append(&mut layer);
            at.push(layers.len());
        }
        let entry = |i: usize, state: u32| {
            let layer: &[Reached] = &layers[at[i]..at[i + 1]];
            let k = layer.binary_search_by_key(&state, |&(t, ..)| t).ok()?;
            Some(layer[k].2)
        };
        let mut run = Vec::with_capacity(n);
        let (mut i, mut m) = (n, entry(n, target as u32)?);
        while m != NO_MOVE {
            run.push(m);
            i -= usize::from(m.column as usize != eps);
            m = entry(i, m.from).expect("a run's states are reached");
        }
        run.reverse();
        Some(run)
    }

    /// Calls `f` on each row of `column` whose source is in `set`, as
    /// `(source, targets)` by source: found from the set's members or by
    /// a scan of the column, whichever is shorter.
    fn rows_from(&self, column: usize, set: &[u64], mut f: impl FnMut(usize, &[u64])) {
        let rows = (self.col_start[column + 1] - self.col_start[column]) as usize;
        if set.iter().map(|w| w.count_ones() as usize).sum::<usize>() < rows {
            for q in members(set).map(StateId::index) {
                if let Some(row) = self.row(q, column) {
                    f(q, row);
                }
            }
        } else {
            for (q, row) in self.column_rows(column) {
                if contains(set, StateId::from_index(q)) {
                    f(q, row);
                }
            }
        }
    }

    /// Lowers each `useful` target of row `r` (of `column`) stamped below
    /// `bound` to `cost` plus its stamp in `layer`, adding it if it is
    /// new; an ε-loop is no move. `slot` indexes `layer` by state.
    fn relax(
        &self,
        layer: &mut Vec<Reached>,
        slot: &mut [u32],
        useful: &[u64],
        (r, column): (usize, usize),
        cost: u64,
        bound: u32,
    ) {
        let (from, row, at) = (self.sources[r], self.row_at(r), self.stamp_at[r]);
        let column = column as u32;
        for (w, (&bits, &u)) in row.iter().zip(useful).enumerate() {
            push_bits(w, bits & u, |t| {
                let stamp = match at {
                    UNSTAMPED => 0,
                    at => self.stamps.get(at as usize + rank(row, t)),
                };
                let to = t as u32;
                if stamp >= bound || (column as usize == self.labels.len() && to == from) {
                    return;
                }
                let reached = (to, cost + u64::from(stamp), Move { from, column, to });
                match slot[t] {
                    u32::MAX => {
                        slot[t] = layer.len() as u32;
                        layer.push(reached);
                    }
                    k if reached.1 < layer[k as usize].1 => layer[k as usize] = reached,
                    _ => {}
                }
            });
        }
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

/// The number of members of `set` below `state`.
fn rank(set: &[u64], state: usize) -> usize {
    let (word, bit) = (state / 64, state % 64);
    set[..word]
        .iter()
        .map(|x| x.count_ones() as usize)
        .sum::<usize>()
        + (set[word] & ((1u64 << bit) - 1)).count_ones() as usize
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefixRewriteSystem;

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
}
