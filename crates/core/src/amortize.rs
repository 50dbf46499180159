//! Cross-query amortization on a shared context.
//!
//! Production traffic is many implications φ against few constraint
//! sets Σ. The word tier's `post*` saturation of the prefix-rewriting
//! system depends only on `(Σ, φ.lhs)`, so a context keeps one
//! [`WordEngine`], whose per-lhs memo turns each repeat query into NFA
//! membership, and whose Σ-only ε-collapse predicate is forced at build.
//! (The chase has no goal-independent phase worth sharing: it grafts
//! the ¬φ pattern before its first round.)
//!
//! A [`SharedContext`] is attached to a [`crate::Solver`] via
//! [`crate::Solver::with_shared`]. Reuse is guarded: the context checks
//! that the query's Σ is *identical* to what it was built from, and the
//! caller silently falls back to cold solving otherwise — the shared
//! state is an accelerator, never a source of different answers. Warm
//! and cold runs produce byte-identical verdicts and evidence: a cold
//! engine runs the same [`WordEngine::decide`] over the same
//! saturations.

use crate::word::WordEngine;
use pathcons_constraints::PathConstraint;

/// Counter snapshot of a [`SharedContext`], for service stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// `post*` cache hits.
    pub word_hits: u64,
    /// `post*` cache misses (first-time saturations).
    pub word_misses: u64,
}

impl std::fmt::Debug for SharedContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedContext")
            .field("word", &self.word.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Everything one context shares across its queries: its Σ and (for
/// word theories) the memoizing word engine.
pub struct SharedContext {
    sigma: Vec<PathConstraint>,
    word: Option<WordEngine>,
}

impl SharedContext {
    /// Builds all shared state for `sigma`. The work done here is charged
    /// to the context, not to any query.
    pub fn build(sigma: &[PathConstraint]) -> SharedContext {
        let word = WordEngine::new(sigma).ok();
        if let Some(engine) = &word {
            // The Σ-only collapse check is paid here, not by a query.
            engine.has_epsilon_collapse();
        }
        SharedContext {
            sigma: sigma.to_vec(),
            word,
        }
    }

    /// The shared word engine for a query on `sigma`, or `None` when Σ
    /// differs (in any constraint or in order) or is not a word theory.
    pub fn word_for(&self, sigma: &[PathConstraint]) -> Option<&WordEngine> {
        self.word.as_ref().filter(|_| self.sigma == sigma)
    }

    /// The underlying word engine, when Σ is a word theory.
    pub fn word(&self) -> Option<&WordEngine> {
        self.word.as_ref()
    }

    /// Counter snapshot for service stats.
    pub fn stats(&self) -> SharedStats {
        let (word_hits, word_misses) = self
            .word
            .as_ref()
            .map(WordEngine::cache_stats)
            .unwrap_or((0, 0));
        SharedStats {
            word_hits,
            word_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::{parse_constraints, Path};
    use pathcons_graph::LabelInterner;

    #[test]
    fn cached_post_star_matches_fresh_reaches() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(
            "book.author -> person\nperson.wrote -> book\nbook.ref -> book",
            &mut labels,
        )
        .unwrap();
        let shared = SharedContext::build(&sigma);
        let engine = shared.word_for(&sigma).expect("word theory");
        let queries = [
            ("book.ref.author", "person"),
            ("book.ref.ref.ref", "book"),
            ("book.ref.author.wrote", "book"),
            ("person", "book.author"),
            ("book.ref.author", "book"),
        ];
        for (lhs_text, rhs_text) in queries {
            let lhs = Path::parse(lhs_text, &mut labels).unwrap();
            let rhs = Path::parse(rhs_text, &mut labels).unwrap();
            assert_eq!(
                engine.implies_word(&lhs, &rhs),
                engine.system().reaches(&lhs, &rhs),
                "{lhs_text} -> {rhs_text}"
            );
        }
        let (hits, misses) = engine.cache_stats();
        // Four distinct lhs, five queries: the repeat hits.
        assert_eq!(misses, 4);
        assert_eq!(hits, 1);
    }

    #[test]
    fn non_word_theories_have_no_word_state() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("K: a -> b", &mut labels).unwrap();
        let shared = SharedContext::build(&sigma);
        assert!(shared.word().is_none());
        assert!(shared.word_for(&sigma).is_none());
    }

    #[test]
    fn shared_state_refuses_a_different_sigma() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let other = parse_constraints("a -> c", &mut labels).unwrap();
        let shared = SharedContext::build(&sigma);
        assert!(shared.word_for(&sigma).is_some());
        assert!(shared.word_for(&other).is_none());
    }
}
