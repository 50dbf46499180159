//! Randomized soundness/completeness fuzz for `post*` saturation, on top
//! of the property tests: both directions checked against a naive
//! full-closure reference across 2000 pseudo-random systems.
//!
//! (Origin: a code-review probe that validated the saturation algorithm;
//! kept as a regression net for the workspace's most safety-critical
//! algorithm.)

use pathcons_automata::{BitNfa, PrefixRewriteSystem};
use pathcons_graph::{Label, LabelInterner};
use std::collections::HashSet;

fn alphabet(n: usize) -> Vec<Label> {
    let names: Vec<String> = (0..n).map(|i| format!("l{i}")).collect();
    LabelInterner::with_labels(names.iter().map(String::as_str))
        .labels()
        .collect()
}

/// Deterministic xorshift-based system generator (no rand dependency).
fn pseudo_system(
    seed: u64,
    alphabet: &[Label],
    rules: usize,
    max_len: usize,
) -> PrefixRewriteSystem {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
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

/// Exhaustive closure of the rewrite relation restricted to words of
/// length ≤ `max_len` (exact within the bound, unlike `bounded_post`'s
/// word-count cap).
fn full_closure(
    system: &PrefixRewriteSystem,
    initial: &[Label],
    max_len: usize,
) -> HashSet<Vec<Label>> {
    let mut seen: HashSet<Vec<Label>> = HashSet::new();
    let mut queue: Vec<Vec<Label>> = Vec::new();
    if initial.len() <= max_len {
        seen.insert(initial.to_vec());
        queue.push(initial.to_vec());
    }
    while let Some(word) = queue.pop() {
        for rule in system.rules() {
            if word.len() >= rule.lhs.len() && word[..rule.lhs.len()] == rule.lhs[..] {
                let mut next = rule.rhs.clone();
                next.extend_from_slice(&word[rule.lhs.len()..]);
                if next.len() <= max_len && seen.insert(next.clone()) {
                    queue.push(next);
                }
            }
        }
    }
    seen
}

/// Soundness: the automaton must not accept any short word the (generous)
/// exhaustive closure cannot reach. Derivations for words of length ≤ 3
/// over these rule sizes stay within length 12, so the reference is exact
/// on the compared slice.
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

#[test]
fn post_star_no_over_acceptance() {
    let ab = alphabet(3);
    for seed in 0..2000u64 {
        let system = pseudo_system(seed, &ab, 4, 3);
        let initial: Vec<Label> = (0..(seed as usize % 4))
            .map(|i| ab[(seed as usize + i) % ab.len()])
            .collect();
        let auto = system.post_star(&initial);
        let reached = full_closure(&system, &initial, 12);
        for word in accepted_up_to(&auto, &ab, 3) {
            assert!(
                reached.contains(&word),
                "seed {seed}: post* accepts {word:?} from {initial:?} but the \
                 exhaustive closure cannot reach it; rules {:?}",
                system.rules()
            );
        }
    }
}

/// Completeness: every word the exhaustive closure reaches must be
/// accepted.
#[test]
fn post_star_no_under_acceptance() {
    let ab = alphabet(3);
    for seed in 0..2000u64 {
        let system = pseudo_system(seed, &ab, 4, 3);
        let initial: Vec<Label> = (0..(seed as usize % 4))
            .map(|i| ab[(seed as usize + i) % ab.len()])
            .collect();
        let auto = system.post_star(&initial);
        for word in full_closure(&system, &initial, 5) {
            assert!(
                auto.accepts(&word),
                "seed {seed}: closure reaches {word:?} from {initial:?} but \
                 post* rejects it; rules {:?}",
                system.rules()
            );
        }
    }
}
