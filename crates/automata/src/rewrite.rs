//! Prefix rewriting systems and `post*` saturation.
//!
//! The axiomatization of word-constraint implication over semistructured
//! data (Abiteboul & Vianu [4]; restated as the first three rules of the
//! paper's system `I_r`, Section 4.2) is
//!
//! - *reflexivity*:       `∀x (α(r,x) → α(r,x))`
//! - *transitivity*:      from `α → β` and `β → γ` infer `α → γ`
//! - *right-congruence*:  from `α → β` infer `α·γ → β·γ`
//!
//! Derivability of `α → β` from a finite set `{αᵢ → βᵢ}` under these rules
//! is exactly reachability of the word `β` from the word `α` in the
//! *prefix rewriting system* with rules `αᵢ ⇒ βᵢ` (rewrite an occurrence
//! of `αᵢ` *as a prefix*: `αᵢ·w ⇒ βᵢ·w`). Prefix rewriting is the
//! transition relation of a pushdown process, so the set `post*(α)` of
//! words reachable from `α` is a regular language computable in polynomial
//! time by P-automaton saturation (Caucal; Bouajjani–Esparza–Maler). This
//! module implements that saturation, which makes the word-constraint
//! implication problem — the decidable baseline that Theorems 4.3, 5.1 and
//! 5.2 of the paper are measured against — decidable in PTIME.
//!
//! [`PrefixRewriteSystem::post_star`] is the standard worklist
//! saturation: reading layers hang off the nodes of one trie of Σ's
//! left-hand sides (rules sharing a prefix share its layers), layers
//! and transition rows are bitsets over the fixed state space, and the
//! result is frozen as a [`BitNfa`]. Its tests hold a round-based
//! reference it must match, transition for transition.
//!
//! The saturation stamps every transition it adds for a rule with its
//! breadth-first generation and the rule, and
//! [`PrefixRewriteSystem::derivation`] reads a rewrite derivation
//! `α ⇒* β` back off those stamps: the witness generation of pushdown
//! `post*` (Schwoon, *Model-Checking Pushdown Systems*, 2002; Reps,
//! Schwoon, Jha and Melski, SCP 2005). Deciding and certifying then
//! share one saturation.

use crate::bitnfa::{push_bits, BitNfa, BitNfaBuilder, Move};
use pathcons_graph::Label;
use std::collections::HashSet;

/// A single prefix rewrite rule `lhs ⇒ rhs` (`lhs·w ⇒ rhs·w` for all `w`).
///
/// Read as a word constraint this is `∀x (lhs(r,x) → rhs(r,x))`:
/// every node reachable by `lhs` is also reachable by `rhs` — so in the
/// search for nodes, `lhs` may be *replaced* by `rhs`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RewriteRule {
    /// The prefix being rewritten (may be empty).
    pub lhs: Vec<Label>,
    /// Its replacement (may be empty).
    pub rhs: Vec<Label>,
}

impl RewriteRule {
    /// Convenience constructor.
    pub fn new(lhs: Vec<Label>, rhs: Vec<Label>) -> RewriteRule {
        RewriteRule { lhs, rhs }
    }
}

/// A finite prefix rewriting system.
#[derive(Clone, Debug, Default)]
pub struct PrefixRewriteSystem {
    rules: Vec<RewriteRule>,
}

impl PrefixRewriteSystem {
    /// Creates an empty system (only reflexive reachability).
    pub fn new() -> PrefixRewriteSystem {
        PrefixRewriteSystem::default()
    }

    /// Creates a system from rules.
    pub fn from_rules<I: IntoIterator<Item = RewriteRule>>(rules: I) -> PrefixRewriteSystem {
        PrefixRewriteSystem {
            rules: rules.into_iter().collect(),
        }
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, lhs: Vec<Label>, rhs: Vec<Label>) {
        self.rules.push(RewriteRule::new(lhs, rhs));
    }

    /// The rules of the system.
    pub fn rules(&self) -> &[RewriteRule] {
        &self.rules
    }

    /// Computes an automaton accepting `post*({initial})` — every word
    /// reachable from `initial` by a sequence of prefix rewrites.
    ///
    /// The automaton starts as the chain for `initial` (states
    /// `0..=|initial|`, the last accepting). For every rule `u ⇒ v` with
    /// `|v| ≥ 2`, in rule order, a fixed interior chain of `|v| − 1`
    /// states is allocated once. Saturation then runs to fixpoint:
    /// whenever the automaton can read `u` from the start state and end
    /// in state `q`, a path spelling `v` from the start state to `q` is
    /// added (through the rule's interior chain; for `|v| = 1` a direct
    /// transition; for `v = ε` an ε-transition). States are never added
    /// during saturation, so the transition count — and hence the running
    /// time — is polynomial in the input size. The transition into the
    /// anchor (chain exit, direct or ε) keeps the rule and a stamp for
    /// [`Self::derivation`] (see `Saturation`).
    ///
    /// This is the worklist saturation over the trie of Σ's left-hand
    /// sides (see `Saturation`), so it computes the least fixpoint on
    /// that state space.
    pub fn post_star(&self, initial: &[Label]) -> BitNfa {
        Saturation::run(self, initial, false)
    }

    /// Computes an automaton accepting `pre*({target})` — every word
    /// from which `target` is reachable: `w ∈ pre*(β)` under the rules
    /// iff `w ∈ post*(β)` under the rules reversed (`rhs ⇒ lhs`).
    pub fn pre_star(&self, target: &[Label]) -> BitNfa {
        Saturation::run(self, target, true)
    }

    /// Reads a derivation `initial ⇒* target` off `post`, which must be
    /// [`Self::post_star`]`(initial)`: the rewrite steps in order, each
    /// as the applied rule's index and the word it yields. `None` when
    /// `target ∉ post`, or when the derivation read passes `max_size`,
    /// counting each step and each label of the words it yields
    /// (witnesses can be exponentially long in the rules, and their
    /// words long).
    ///
    /// The walk starts from an accepting run of `target` and works back
    /// to `initial`. The run's first segment ends at its first stamped
    /// transition, which the saturation added for a rule `u ⇒ v`: the
    /// segment is that rule's rhs chain into the anchor `q` the rule
    /// fired on, or the rule's direct transition or ε-transition to
    /// `q`. Then `q` is reachable by `u` through transitions stamped
    /// below that one, and swapping such a run in undoes one step
    /// `u·w ⇒ v·w`. Each swap trades one stamp for smaller ones, so the
    /// multiset of stamps on the run falls and the walk ends, at a run
    /// with no stamps: `initial`'s own chain. Runs take the least
    /// stamps they can (see [`BitNfa::run`]) and stamps are
    /// breadth-first generations, so the derivations read are short,
    /// though not always shortest. The walk is a function of the
    /// system, `initial` and `target`: a memoized automaton and a fresh
    /// one give the same derivation.
    pub fn derivation(
        &self,
        post: &BitNfa,
        initial: &[Label],
        target: &[Label],
        max_size: usize,
    ) -> Option<Vec<(usize, Vec<Label>)>> {
        if target.len() >= max_size {
            return (target == initial).then(Vec::new);
        }
        // The run and the word it reads, both reversed: the walk
        // rewrites their fronts.
        let mut run = post.run(target, initial.len(), u32::MAX)?;
        run.reverse();
        let mut word: Vec<Label> = target.iter().rev().copied().collect();
        let (mut steps, mut size) = (Vec::new(), 0);
        let first_segment = |run: &[Move]| {
            run.iter()
                .rev()
                .enumerate()
                .find_map(|(i, &m)| post.provenance(m).map(|p| (i + 1, m.to, p)))
        };
        while let Some((len, anchor, (stamp, rule))) = first_segment(&run) {
            size += 1 + word.len();
            if size > max_size {
                return None;
            }
            let RewriteRule { lhs, rhs } = &self.rules[rule];
            let prefix = post.run(lhs, anchor as usize, stamp)?;
            steps.push((rule, word.iter().rev().copied().collect()));
            run.truncate(run.len() - len);
            run.extend(prefix.into_iter().rev());
            word.truncate(word.len() - rhs.len());
            word.extend(lhs.iter().rev());
        }
        debug_assert!(word.iter().rev().eq(initial));
        steps.reverse();
        Some(steps)
    }

    /// Whether `to` is reachable from `from` (i.e. the word constraint
    /// `from → to` is derivable under reflexivity + transitivity +
    /// right-congruence).
    pub fn reaches(&self, from: &[Label], to: &[Label]) -> bool {
        self.post_star(from).accepts(to)
    }

    /// Reference implementation: breadth-first exploration of the rewrite
    /// relation, pruned to words of length at most `max_len` and at most
    /// `max_words` distinct words. Returns the set of reached words.
    ///
    /// This under-approximates `post*` (derivations may need to pass
    /// through longer intermediate words); it exists as a test oracle for
    /// the saturation algorithm.
    pub fn bounded_post(
        &self,
        initial: &[Label],
        max_len: usize,
        max_words: usize,
    ) -> HashSet<Vec<Label>> {
        let mut seen: HashSet<Vec<Label>> = HashSet::new();
        let mut queue: Vec<Vec<Label>> = Vec::new();
        if initial.len() <= max_len {
            seen.insert(initial.to_vec());
            queue.push(initial.to_vec());
        }
        while let Some(word) = queue.pop() {
            if seen.len() >= max_words {
                break;
            }
            for rule in &self.rules {
                if word.len() >= rule.lhs.len() && word[..rule.lhs.len()] == rule.lhs[..] {
                    let mut next = rule.rhs.clone();
                    next.extend_from_slice(&word[rule.lhs.len()..]);
                    if next.len() <= max_len && !seen.contains(&next) {
                        seen.insert(next.clone());
                        queue.push(next);
                    }
                }
            }
        }
        seen
    }
}

/// One node of the trie of Σ's left-hand sides: the prefix it spells
/// is read by the layer `layers[node]`.
#[derive(Default)]
struct TrieNode {
    /// `(column, child)`, one per label some lhs continues with.
    children: Vec<(usize, usize)>,
    /// The rules whose whole lhs this node spells.
    rules: Vec<usize>,
}

/// Worklist saturation state (Bouajjani–Esparza–Maler 1997; Esparza et
/// al., CAV 2000). Node `u` of the lhs trie keeps the layer `L_u`: the
/// (ε-closed) states reachable from the start by reading the prefix `u`,
/// as a bitset. Layers only grow. A state entering `L_u` is pushed once
/// and, when popped, flows along its existing transitions into the
/// layers of `u`'s children (and along ε into `L_u`) and, if `u` spells
/// whole lhs, becomes an anchor of those rules. A transition inserted
/// later flows into the children of every node whose layer holds its
/// source. Rules sharing an lhs prefix share its layers, and the
/// automaton's rows are bitsets, so one propagation step is a
/// word-parallel OR.
///
/// The worklist runs by generations: 0 for the start state's root
/// membership, and `g + 1` for the memberships, and the stamps of the
/// transitions added for rules, that propagating generation `g` adds.
/// So a rule firing on an anchor adds a transition stamped above every
/// transition of some run of its lhs to the anchor.
struct Saturation {
    nfa: BitNfaBuilder,
    /// Every rule's rhs as columns, back to back: rule `r`'s is
    /// `rhs[rhs_at[r]..rhs_at[r + 1]]`.
    rhs: Vec<usize>,
    rhs_at: Vec<usize>,
    /// Per rule, its first interior chain state (used when `|rhs| ≥ 2`).
    chain: Vec<usize>,
    trie: Vec<TrieNode>,
    /// Per column, the trie edges `(node, child)` that read it.
    edges_by_column: Vec<Vec<(usize, usize)>>,
    /// `layers[node * words..][..words]` is `L_node`.
    layers: Vec<u64>,
    words: usize,
    /// Layer memberships awaiting propagation, `(node, state)`: those of
    /// the generation being propagated, and those of the next.
    queue: Vec<(usize, usize)>,
    next: Vec<(usize, usize)>,
    /// The generation of `next`, and the stamp of transitions added now.
    generation: u32,
}

impl Saturation {
    /// Saturates from `initial` under `system`'s rules, each read
    /// `rhs ⇒ lhs` when `reversed`.
    fn run(system: &PrefixRewriteSystem, initial: &[Label], reversed: bool) -> BitNfa {
        let rules = || {
            system.rules.iter().map(move |r| {
                if reversed {
                    (&r.rhs[..], &r.lhs[..])
                } else {
                    (&r.lhs[..], &r.rhs[..])
                }
            })
        };
        let mut labels: Vec<Label> = initial
            .iter()
            .chain(system.rules.iter().flat_map(|r| r.lhs.iter().chain(&r.rhs)))
            .copied()
            .collect();
        labels.sort_unstable();
        labels.dedup();
        // States: the chain for `initial`, then one interior chain per
        // rule with `|rhs| ≥ 2`, in rule order.
        let mut states = initial.len() + 1;
        let chain: Vec<usize> = rules()
            .map(|(_, rhs)| {
                let first = states;
                states += rhs.len().saturating_sub(1);
                first
            })
            .collect();
        let mut nfa = BitNfaBuilder::new(labels, states);
        let column = |nfa: &BitNfaBuilder, label: Label| {
            nfa.column(label).expect("every label is in the alphabet")
        };
        for (i, &label) in initial.iter().enumerate() {
            nfa.insert(i, column(&nfa, label), i + 1, None);
        }
        nfa.set_accepting(initial.len());

        let mut trie = vec![TrieNode::default()];
        let mut edges_by_column = vec![Vec::new(); nfa.epsilon_column()];
        let mut rhs = Vec::new();
        let mut rhs_at = vec![0];
        for (rule_idx, (lhs, right)) in rules().enumerate() {
            let mut node = 0;
            for &label in lhs {
                let c = column(&nfa, label);
                node = match trie[node].children.iter().find(|&&(cc, _)| cc == c) {
                    Some(&(_, child)) => child,
                    None => {
                        let child = trie.len();
                        trie.push(TrieNode::default());
                        trie[node].children.push((c, child));
                        edges_by_column[c].push((node, child));
                        child
                    }
                };
            }
            trie[node].rules.push(rule_idx);
            rhs.extend(right.iter().map(|&l| column(&nfa, l)));
            rhs_at.push(rhs.len());
        }
        let words = nfa.set_words();
        let mut sat = Saturation {
            nfa,
            rhs,
            rhs_at,
            chain,
            layers: vec![0; trie.len() * words],
            trie,
            edges_by_column,
            words,
            queue: Vec::new(),
            next: Vec::new(),
            generation: 0,
        };
        sat.add_member(0, 0);
        sat.drain();
        sat.nfa.freeze()
    }

    /// Records `state ∈ L_node`; queues its propagation if it is new.
    fn add_member(&mut self, node: usize, state: usize) {
        let word = &mut self.layers[node * self.words + state / 64];
        let bit = 1u64 << (state % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.next.push((node, state));
        }
    }

    /// ORs the row `(state, column)` into `L_node`, queueing the states
    /// it adds.
    fn flow(&mut self, state: usize, column: usize, node: usize) {
        let Some(row) = self.nfa.row(state, column) else {
            return;
        };
        let layer = &mut self.layers[node * self.words..(node + 1) * self.words];
        for (i, (l, &r)) in layer.iter_mut().zip(row).enumerate() {
            let new = r & !*l;
            *l |= new;
            push_bits(i, new, |state| self.next.push((node, state)));
        }
    }

    fn in_layer(&self, node: usize, state: usize) -> bool {
        self.layers[node * self.words + state / 64] & (1 << (state % 64)) != 0
    }

    /// Installs `from --column--> to` — stamped for `rule` when one is
    /// given — and propagates it through every layer holding `from`
    /// whose node reads `column`.
    fn add_transition(&mut self, from: usize, column: usize, to: usize, rule: Option<usize>) {
        let provenance = rule.map(|rule| (self.generation, rule));
        if !self.nfa.insert(from, column, to, provenance) {
            return;
        }
        for i in 0..self.edges_by_column[column].len() {
            let (node, child) = self.edges_by_column[column][i];
            if self.in_layer(node, from) {
                self.add_member(child, to);
            }
        }
    }

    /// Installs `from --ε--> to`, stamped for `rule`, and propagates it
    /// through every layer holding `from`.
    fn add_epsilon(&mut self, from: usize, to: usize, rule: usize) {
        let eps = self.nfa.epsilon_column();
        if !self
            .nfa
            .insert(from, eps, to, Some((self.generation, rule)))
        {
            return;
        }
        for node in 0..self.trie.len() {
            if self.in_layer(node, from) {
                self.add_member(node, to);
            }
        }
    }

    fn drain(&mut self) {
        let eps = self.nfa.epsilon_column();
        while !self.next.is_empty() {
            std::mem::swap(&mut self.queue, &mut self.next);
            self.generation += 1;
            while let Some((node, state)) = self.queue.pop() {
                for i in 0..self.trie[node].rules.len() {
                    let rule = self.trie[node].rules[i];
                    self.install_rhs(rule, state);
                }
                self.flow(state, eps, node);
                for i in 0..self.trie[node].children.len() {
                    let (column, child) = self.trie[node].children[i];
                    self.flow(state, column, child);
                }
            }
        }
    }

    /// Adds the rhs path of `rule` from the start to anchor `q`, through
    /// the rule's interior chain. The transition into `q` is stamped;
    /// the chain's fixed transitions are not.
    fn install_rhs(&mut self, rule: usize, q: usize) {
        let start = 0;
        let (at, len) = (self.rhs_at[rule], self.rhs_at[rule + 1] - self.rhs_at[rule]);
        if len == 0 {
            return self.add_epsilon(start, q, rule);
        }
        let chain = self.chain[rule];
        for i in 0..len {
            let from = if i == 0 { start } else { chain + i - 1 };
            let to = if i + 1 == len { q } else { chain + i };
            self.add_transition(from, self.rhs[at + i], to, (i + 1 == len).then_some(rule));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_graph::LabelInterner;

    fn alphabet(n: usize) -> Vec<Label> {
        let names: Vec<String> = (0..n).map(|i| format!("l{i}")).collect();
        LabelInterner::with_labels(names.iter().map(String::as_str))
            .labels()
            .collect()
    }

    #[test]
    fn reflexivity() {
        let ab = alphabet(2);
        let system = PrefixRewriteSystem::new();
        assert!(system.reaches(&[ab[0], ab[1]], &[ab[0], ab[1]]));
        assert!(!system.reaches(&[ab[0]], &[ab[1]]));
    }

    #[test]
    fn single_rule_application() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        system.add_rule(vec![a], vec![b]);
        // a·a ⇒ b·a but not a·a ⇒ a·b (only prefixes rewrite).
        assert!(system.reaches(&[a, a], &[b, a]));
        assert!(!system.reaches(&[a, a], &[a, b]));
    }

    #[test]
    fn transitivity_through_chain_of_rules() {
        let l = alphabet(4);
        let mut system = PrefixRewriteSystem::new();
        system.add_rule(vec![l[0]], vec![l[1]]);
        system.add_rule(vec![l[1]], vec![l[2]]);
        system.add_rule(vec![l[2]], vec![l[3]]);
        assert!(system.reaches(&[l[0]], &[l[3]]));
        assert!(!system.reaches(&[l[3]], &[l[0]]));
    }

    #[test]
    fn growing_rule_stops_once_prefix_gone() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        // a ⇒ b·a : applies once; b·a no longer starts with a.
        system.add_rule(vec![a], vec![b, a]);
        assert!(system.reaches(&[a], &[b, a]));
        assert!(!system.reaches(&[a], &[b, b, a]));
        assert!(!system.reaches(&[a], &[b, b]));
    }

    #[test]
    fn growing_rule_reaches_unboundedly_long_words() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        // a ⇒ a·b via b ⇒ ... cannot be expressed by prefix rewriting, but
        // a ⇒ b·a together with b ⇒ a yields an infinite reachable set:
        // a ⇒ ba ⇒ aa ⇒ baa ⇒ aaa ⇒ ...
        system.add_rule(vec![a], vec![b, a]);
        system.add_rule(vec![b], vec![a]);
        assert!(system.reaches(&[a], &[b, a]));
        assert!(system.reaches(&[a], &[a, a]));
        assert!(system.reaches(&[a], &[b, a, a]));
        assert!(system.reaches(&[a], &[a, a, a, a, a]));
        assert!(!system.reaches(&[a], &[a, b]));
    }

    #[test]
    fn shrinking_rule_to_empty_word() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        system.add_rule(vec![a, b], vec![]);
        assert!(system.reaches(&[a, b], &[]));
        assert!(system.reaches(&[a, b, a, b], &[a, b])); // strip one prefix
        assert!(system.reaches(&[a, b, a, b], &[])); // strip both
        assert!(!system.reaches(&[b, a], &[]));
    }

    #[test]
    fn empty_lhs_rule_prepends() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        // ε ⇒ a : any word w rewrites to a·w.
        system.add_rule(vec![], vec![a]);
        assert!(system.reaches(&[b], &[a, b]));
        assert!(system.reaches(&[b], &[a, a, b]));
        assert!(system.reaches(&[], &[a]));
        assert!(!system.reaches(&[b], &[b, a]));
    }

    #[test]
    fn interplay_of_rules_requires_saturation_rounds() {
        let l = alphabet(3);
        let (a, b, c) = (l[0], l[1], l[2]);
        let mut system = PrefixRewriteSystem::new();
        // a ⇒ b·b; b·b·b ⇒ c. From a·b: a·b ⇒ b·b·b ⇒ c.
        system.add_rule(vec![a], vec![b, b]);
        system.add_rule(vec![b, b, b], vec![c]);
        assert!(system.reaches(&[a, b], &[c]));
        assert!(!system.reaches(&[a], &[c]));
    }

    #[test]
    fn pre_star_is_post_star_reversed() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        system.add_rule(vec![a], vec![b]);
        let pre = system.pre_star(&[b, a]);
        // Words that can reach b·a: itself and a·a.
        assert!(pre.accepts(&[b, a]));
        assert!(pre.accepts(&[a, a]));
        assert!(!pre.accepts(&[b, b]));
    }

    #[test]
    fn bounded_post_agrees_with_post_star_on_small_cases() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        system.add_rule(vec![a], vec![b, a]);
        system.add_rule(vec![b, b], vec![a]);
        let reached = system.bounded_post(&[a], 6, 10_000);
        let auto = system.post_star(&[a]);
        for word in &reached {
            assert!(auto.accepts(word), "missing {word:?}");
        }
    }

    #[test]
    fn monoid_like_commuting_rules() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        // ab ⇒ ba and ba ⇒ ab (prefix only!).
        system.add_rule(vec![a, b], vec![b, a]);
        system.add_rule(vec![b, a], vec![a, b]);
        assert!(system.reaches(&[a, b, a], &[b, a, a]));
        // The swap applies only at the prefix: a·a·b cannot become a·b·a.
        assert!(!system.reaches(&[a, a, b], &[a, b, a]));
    }
}

#[cfg(test)]
mod worklist_tests {
    use super::*;
    use crate::nfa::{Nfa, StateId};
    use pathcons_graph::LabelInterner;

    /// The round-based reference for [`PrefixRewriteSystem::post_star`]:
    /// recomputes every rule's reading set from scratch each round until
    /// nothing changes, on an [`Nfa`]. The worklist version must match
    /// it state for state and transition for transition.
    fn post_star_rounds(system: &PrefixRewriteSystem, initial: &[Label]) -> Nfa {
        let mut nfa = Nfa::from_word(initial);
        let start = nfa.start();

        // Pre-allocate interior chains, one per rule with a long RHS.
        let chains: Vec<Vec<StateId>> = system
            .rules
            .iter()
            .map(|rule| {
                if rule.rhs.len() >= 2 {
                    (0..rule.rhs.len() - 1).map(|_| nfa.add_state()).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();

        loop {
            let mut changed = false;
            for (rule_idx, rule) in system.rules.iter().enumerate() {
                // Anchors: states reachable from the start by reading lhs.
                let anchors = nfa.read(&rule.lhs);
                for q in (0..anchors.len()).filter(|&q| anchors[q]) {
                    let q = StateId::from_index(q);
                    changed |= add_rhs_path(&mut nfa, start, &rule.rhs, &chains[rule_idx], q);
                }
            }
            if !changed {
                break;
            }
        }
        nfa
    }

    /// Adds a path spelling `rhs` from `start` to anchor `q`, reusing the
    /// rule's interior `chain`. Returns whether anything was added.
    fn add_rhs_path(
        nfa: &mut Nfa,
        start: StateId,
        rhs: &[Label],
        chain: &[StateId],
        q: StateId,
    ) -> bool {
        match rhs.len() {
            0 => nfa.add_epsilon(start, q),
            1 => nfa.add_transition(start, rhs[0], q),
            _ => {
                debug_assert_eq!(chain.len(), rhs.len() - 1);
                let mut changed = nfa.add_transition(start, rhs[0], chain[0]);
                for i in 1..rhs.len() - 1 {
                    changed |= nfa.add_transition(chain[i - 1], rhs[i], chain[i]);
                }
                changed |= nfa.add_transition(chain[rhs.len() - 2], rhs[rhs.len() - 1], q);
                changed
            }
        }
    }

    fn alphabet(n: usize) -> Vec<Label> {
        let names: Vec<String> = (0..n).map(|i| format!("l{i}")).collect();
        LabelInterner::with_labels(names.iter().map(String::as_str))
            .labels()
            .collect()
    }

    /// Deterministic pseudo-random system generator (no rand dependency
    /// in this crate).
    fn pseudo_system(
        seed: u64,
        alphabet: &[Label],
        rules: usize,
        max_len: usize,
    ) -> PrefixRewriteSystem {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut system = PrefixRewriteSystem::new();
        for _ in 0..rules {
            let llen = (next() as usize) % (max_len + 1);
            let rlen = (next() as usize) % (max_len + 1);
            let lhs: Vec<Label> = (0..llen)
                .map(|_| alphabet[(next() as usize) % alphabet.len()])
                .collect();
            let rhs: Vec<Label> = (0..rlen)
                .map(|_| alphabet[(next() as usize) % alphabet.len()])
                .collect();
            system.add_rule(lhs, rhs);
        }
        system
    }

    /// Every transition of an automaton, ε as `None`, sorted.
    fn edges_of_rounds(nfa: &Nfa) -> Vec<(StateId, Option<Label>, StateId)> {
        let mut edges: Vec<_> = (0..nfa.state_count())
            .map(StateId::from_index)
            .flat_map(|q| {
                nfa.transitions(q)
                    .map(move |(l, t)| (q, Some(l), t))
                    .chain(nfa.epsilon_successors(q).map(move |t| (q, None, t)))
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    fn edges_of_worklist(nfa: &BitNfa) -> Vec<(StateId, Option<Label>, StateId)> {
        let mut edges: Vec<_> = nfa
            .transitions()
            .map(|(q, l, t)| (q, Some(l), t))
            .chain(nfa.epsilon_transitions().map(|(q, t)| (q, None, t)))
            .collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn worklist_agrees_with_rounds_on_random_systems() {
        let ab = alphabet(3);
        let mut epsilon_lhs = 0;
        let mut epsilon_rhs = 0;
        for seed in 0..400u64 {
            let system = pseudo_system(seed, &ab, 4, 3);
            epsilon_lhs += system.rules().iter().filter(|r| r.lhs.is_empty()).count();
            epsilon_rhs += system.rules().iter().filter(|r| r.rhs.is_empty()).count();
            let initial: Vec<Label> = (0..(seed as usize % 4))
                .map(|i| ab[(seed as usize + i) % ab.len()])
                .collect();
            let fast = system.post_star(&initial);
            let slow = post_star_rounds(&system, &initial);
            assert_eq!(fast.state_count(), slow.state_count(), "seed {seed}");
            assert_eq!(
                edges_of_worklist(&fast),
                edges_of_rounds(&slow),
                "seed {seed}: {:?} from {initial:?}",
                system.rules()
            );
            let accepting: Vec<StateId> = slow.accepting_states().collect();
            for q in (0..slow.state_count()).map(StateId::from_index) {
                assert_eq!(fast.is_accepting(q), accepting.contains(&q));
            }
        }
        assert!(epsilon_lhs > 0 && epsilon_rhs > 0, "ε rules exercised");
    }

    /// Every word over `alphabet` of length at most `max_len` that `nfa`
    /// accepts.
    fn accepted_up_to(nfa: &BitNfa, alphabet: &[Label], max_len: usize) -> Vec<Vec<Label>> {
        let mut words = vec![Vec::new()];
        let mut longest = vec![Vec::new()];
        for _ in 0..max_len {
            longest = longest
                .iter()
                .flat_map(|w: &Vec<Label>| alphabet.iter().map(move |&l| [&w[..], &[l]].concat()))
                .collect();
            words.extend(longest.iter().cloned());
        }
        words.retain(|w| nfa.accepts(w));
        words
    }

    /// Applies `steps` to `initial`, checking each is a prefix rewrite
    /// by the rule it names; returns the final word.
    fn replay(
        system: &PrefixRewriteSystem,
        initial: &[Label],
        steps: &[(usize, Vec<Label>)],
    ) -> Vec<Label> {
        let mut word = initial.to_vec();
        for (rule, result) in steps {
            let RewriteRule { lhs, rhs } = &system.rules()[*rule];
            assert!(
                word.starts_with(lhs),
                "rule {rule} does not apply to {word:?}"
            );
            word = [&rhs[..], &word[lhs.len()..]].concat();
            assert_eq!(&word, result, "rule {rule} yields another word");
        }
        word
    }

    #[test]
    fn derivations_replay_on_random_systems() {
        let ab = alphabet(3);
        let mut derived = 0;
        for seed in 0..400u64 {
            let system = pseudo_system(seed, &ab, 4, 3);
            let initial: Vec<Label> = (0..(seed as usize % 4))
                .map(|i| ab[(seed as usize + i) % ab.len()])
                .collect();
            let post = system.post_star(&initial);
            for target in accepted_up_to(&post, &ab, 4) {
                let steps = system
                    .derivation(&post, &initial, &target, 100_000)
                    .unwrap_or_else(|| panic!("seed {seed}: no derivation of {target:?}"));
                assert_eq!(replay(&system, &initial, &steps), target, "seed {seed}");
                derived += 1;
            }
            let outside = [ab[0]; 5];
            if !post.accepts(&outside) {
                assert!(system
                    .derivation(&post, &initial, &outside, 100_000)
                    .is_none());
            }
        }
        assert!(derived > 1000, "{derived} derivations");
    }

    #[test]
    fn derivations_past_the_size_cap_are_refused() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        system.add_rule(vec![a], vec![b, b]);
        system.add_rule(vec![b], vec![a]);
        let post = system.post_star(&[a]);
        // a ⇒ b·b ⇒ a·b: two steps yielding two labels each.
        let steps = system.derivation(&post, &[a], &[a, b], 6).unwrap();
        assert_eq!(replay(&system, &[a], &steps), vec![a, b]);
        assert!(system.derivation(&post, &[a], &[a, b], 5).is_none());
        // A reflexive derivation is empty, whatever the cap.
        assert_eq!(system.derivation(&post, &[a], &[a], 0), Some(Vec::new()));
    }

    #[test]
    fn worklist_handles_epsilon_rules() {
        let ab = alphabet(2);
        let (a, b) = (ab[0], ab[1]);
        let mut system = PrefixRewriteSystem::new();
        system.add_rule(vec![], vec![a]);
        system.add_rule(vec![a, a], vec![b]);
        // ε ⇒ a ⇒ (prepends) : from b: b ⇒ ab ⇒ aab ⇒ bb ⇒ abb ⇒ ...
        assert!(system.reaches(&[b], &[a, b]));
        assert!(system.reaches(&[b], &[b, b]));
        assert!(system.reaches(&[b], &[a, b, b]));
        assert!(!system.reaches(&[b], &[]));
    }
}
