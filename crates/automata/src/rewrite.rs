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

use crate::nfa::{Nfa, StateId};
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

    /// The system with every rule reversed (`rhs ⇒ lhs`).
    ///
    /// `w ∈ pre*(β)` under `R` iff `w ∈ post*(β)` under `R` reversed, so
    /// this is how `pre*` is obtained from [`Self::post_star`].
    pub fn reversed(&self) -> PrefixRewriteSystem {
        PrefixRewriteSystem {
            rules: self
                .rules
                .iter()
                .map(|r| RewriteRule::new(r.rhs.clone(), r.lhs.clone()))
                .collect(),
        }
    }

    /// Computes an NFA accepting `post*({initial})` — every word reachable
    /// from `initial` by a sequence of prefix rewrites.
    ///
    /// The automaton starts as the chain for `initial`. For every rule
    /// `u ⇒ v` with `|v| ≥ 2`, a fixed auxiliary chain of `|v| − 1` interior
    /// states is allocated once. Saturation then runs to fixpoint: whenever
    /// the automaton can read `u` from the start state and end in state
    /// `q`, a path spelling `v` from the start state to `q` is added
    /// (reusing the rule's interior chain; for `|v| = 1` a direct
    /// transition; for `v = ε` an ε-transition). States are never added
    /// during saturation, so the transition count — and hence the running
    /// time — is polynomial in the input size.
    ///
    /// This is the incremental (worklist) implementation: per-rule reading
    /// layers are maintained under transition insertion instead of being
    /// recomputed from scratch each round (see
    /// [`Self::post_star_rounds`] for the naive saturation the tests
    /// check it against).
    pub fn post_star(&self, initial: &[Label]) -> Nfa {
        Saturation::run(self, initial)
    }

    /// The round-based reference implementation of [`Self::post_star`]:
    /// recomputes every rule's reading set from scratch each round until
    /// nothing changes. Kept as a test oracle for the worklist version.
    pub fn post_star_rounds(&self, initial: &[Label]) -> Nfa {
        let mut nfa = Nfa::from_word(initial);
        let start = nfa.start();

        // Pre-allocate interior chains, one per rule with a long RHS.
        let chains: Vec<Vec<StateId>> = self
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
            for (rule_idx, rule) in self.rules.iter().enumerate() {
                // Anchors: states reachable from the start by reading lhs.
                let anchors = nfa.read_states(&rule.lhs);
                for q in anchors {
                    changed |= add_rhs_path(&mut nfa, start, &rule.rhs, &chains[rule_idx], q);
                }
            }
            if !changed {
                break;
            }
        }
        nfa
    }

    /// Computes an NFA accepting `pre*({target})` — every word from which
    /// `target` is reachable.
    pub fn pre_star(&self, target: &[Label]) -> Nfa {
        self.reversed().post_star(target)
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

/// Incremental saturation state: per rule, the "reading layers"
/// `L_0 … L_{|u|}` where `L_i` is the (ε-closed) set of states reachable
/// from the start by reading the first `i` letters of the rule's LHS.
/// Layers only grow; every transition insertion is propagated through
/// them, and every state newly entering the final layer is a fresh anchor
/// whose RHS path is then installed — which may insert further
/// transitions, and so on to fixpoint.
struct Saturation<'a> {
    system: &'a PrefixRewriteSystem,
    nfa: Nfa,
    chains: Vec<Vec<StateId>>,
    /// `layers[rule][i][state]`.
    layers: Vec<Vec<Vec<bool>>>,
    /// For each label, the `(rule, layer)` positions whose next LHS
    /// letter is that label — so a transition insertion touches only the
    /// rules that can actually consume it.
    positions_by_label: std::collections::HashMap<Label, Vec<(usize, usize)>>,
    /// Anchors awaiting RHS installation: `(rule, state)`.
    anchor_queue: Vec<(usize, StateId)>,
    /// Layer memberships awaiting forward propagation:
    /// `(rule, layer, state)`.
    member_queue: Vec<(usize, usize, StateId)>,
}

impl<'a> Saturation<'a> {
    fn run(system: &'a PrefixRewriteSystem, initial: &[Label]) -> Nfa {
        let mut nfa = Nfa::from_word(initial);
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
        let states = nfa.state_count();
        let layers = system
            .rules
            .iter()
            .map(|rule| vec![vec![false; states]; rule.lhs.len() + 1])
            .collect();
        let mut positions_by_label: std::collections::HashMap<Label, Vec<(usize, usize)>> =
            std::collections::HashMap::new();
        for (rule_idx, rule) in system.rules.iter().enumerate() {
            for (layer, &letter) in rule.lhs.iter().enumerate() {
                positions_by_label
                    .entry(letter)
                    .or_default()
                    .push((rule_idx, layer));
            }
        }
        let mut sat = Saturation {
            system,
            nfa,
            chains,
            layers,
            positions_by_label,
            anchor_queue: Vec::new(),
            member_queue: Vec::new(),
        };
        // Seed every rule's layer 0 with the start state.
        let start = sat.nfa.start();
        for rule_idx in 0..sat.system.rules.len() {
            sat.add_member(rule_idx, 0, start);
        }
        sat.drain();
        sat.nfa
    }

    /// Records `state ∈ L_i` of `rule`; enqueues propagation.
    fn add_member(&mut self, rule: usize, layer: usize, state: StateId) {
        let slot = &mut self.layers[rule][layer][state.index()];
        if !*slot {
            *slot = true;
            if layer == self.system.rules[rule].lhs.len() {
                self.anchor_queue.push((rule, state));
            } else {
                self.member_queue.push((rule, layer, state));
            }
            // ε-successors share the layer.
            let eps: Vec<StateId> = self.nfa.epsilon_successors(state).collect();
            for t in eps {
                self.add_member(rule, layer, t);
            }
        }
    }

    /// Installs a transition and propagates it through the layers of the
    /// rules whose LHS can consume `label` at some position.
    fn add_transition(&mut self, from: StateId, label: Label, to: StateId) {
        if !self.nfa.add_transition(from, label, to) {
            return;
        }
        let Some(positions) = self.positions_by_label.get(&label) else {
            return;
        };
        for &(rule, layer) in positions.clone().iter() {
            if self.layers[rule][layer][from.index()] {
                self.add_member(rule, layer + 1, to);
            }
        }
    }

    /// Installs an ε-transition and propagates it through all layers.
    fn add_epsilon(&mut self, from: StateId, to: StateId) {
        if !self.nfa.add_epsilon(from, to) {
            return;
        }
        for rule in 0..self.system.rules.len() {
            for layer in 0..self.layers[rule].len() {
                if self.layers[rule][layer][from.index()] {
                    self.add_member(rule, layer, to);
                }
            }
        }
    }

    fn drain(&mut self) {
        loop {
            if let Some((rule, layer, state)) = self.member_queue.pop() {
                // Forward propagation: existing transitions out of
                // `state` matching the next LHS letter.
                let letter = self.system.rules[rule].lhs[layer];
                let targets: Vec<StateId> = self.nfa.successors(state, letter).collect();
                for t in targets {
                    self.add_member(rule, layer + 1, t);
                }
                continue;
            }
            if let Some((rule, q)) = self.anchor_queue.pop() {
                self.install_rhs(rule, q);
                continue;
            }
            return;
        }
    }

    /// Adds the RHS path of `rule` from the start to anchor `q`.
    fn install_rhs(&mut self, rule: usize, q: StateId) {
        let start = self.nfa.start();
        let rhs = self.system.rules[rule].rhs.clone();
        match rhs.len() {
            0 => self.add_epsilon(start, q),
            1 => self.add_transition(start, rhs[0], q),
            _ => {
                let chain = self.chains[rule].clone();
                self.add_transition(start, rhs[0], chain[0]);
                for i in 1..rhs.len() - 1 {
                    self.add_transition(chain[i - 1], rhs[i], chain[i]);
                }
                self.add_transition(chain[rhs.len() - 2], rhs[rhs.len() - 1], q);
            }
        }
    }
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
    use pathcons_graph::LabelInterner;

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

    #[test]
    fn worklist_agrees_with_rounds_on_random_systems() {
        let ab = alphabet(3);
        for seed in 0..200u64 {
            let system = pseudo_system(seed, &ab, 4, 3);
            let initial: Vec<Label> = (0..(seed as usize % 4))
                .map(|i| ab[(seed as usize + i) % ab.len()])
                .collect();
            let fast = system.post_star(&initial);
            let slow = system.post_star_rounds(&initial);
            for word in slow.accepted_up_to(&ab, 5) {
                assert!(
                    fast.accepts(&word),
                    "worklist missing {word:?} (seed {seed})"
                );
            }
            for word in fast.accepted_up_to(&ab, 5) {
                assert!(
                    slow.accepts(&word),
                    "worklist over-accepts {word:?} (seed {seed})"
                );
            }
        }
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
