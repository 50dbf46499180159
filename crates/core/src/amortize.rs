//! Cross-query amortization on a shared context.
//!
//! Production traffic is many implications φ against few constraint
//! sets Σ, and both complete decision procedures have Σ-only phases
//! that are goal-independent and therefore amortizable:
//!
//! - the chase's prefix rounds over the bare root graph (captured by
//!   [`SharedChase`], resumed per query by
//!   [`crate::chase_implication_with`]);
//! - `post*` saturation of the prefix-rewriting system, which depends
//!   only on `(Σ, φ.lhs)`: the context keeps one [`WordEngine`], whose
//!   per-lhs memo turns each repeat query into NFA membership, and
//!   whose Σ-only ε-collapse predicate is forced at build.
//!
//! A [`SharedContext`] bundles both and is attached to a
//! [`crate::Solver`] via [`crate::Solver::with_shared`]. Reuse is
//! guarded: the context checks that the query's Σ (and, for the chase,
//! the budget caps) is *identical* to what it was built from, and the
//! caller silently falls back to cold solving otherwise — the shared
//! state is an accelerator, never a source of different answers. Warm
//! and cold runs produce byte-identical verdicts, traces, and
//! countermodels: a cold engine runs the same [`WordEngine::decide`]
//! over the same saturations, and the shared chase resumes the exact
//! deterministic state a cold run recomputes inline.

use crate::chase::SharedChase;
use crate::outcome::Budget;
use crate::word::WordEngine;
use pathcons_constraints::PathConstraint;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counter snapshot of a [`SharedContext`], for service stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Queries that resumed the shared chase prefix.
    pub chase_reuses: u64,
    /// Chase rounds the prefix holds (saved per reusing query).
    pub prefix_rounds: u64,
    /// Repair steps the prefix holds.
    pub prefix_steps: u64,
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

/// Everything one context shares across its queries: the Σ-only chase
/// prefix and (for word theories) the memoizing word engine.
pub struct SharedContext {
    chase: SharedChase,
    word: Option<WordEngine>,
    chase_reuses: AtomicU64,
}

impl SharedContext {
    /// Builds all shared state for `sigma` under `budget`'s caps. Build
    /// with an unarmed deadline: the work done here is charged to the
    /// context, not to any query.
    pub fn build(sigma: &[PathConstraint], budget: &Budget) -> SharedContext {
        let word = WordEngine::new(sigma).ok();
        if let Some(engine) = &word {
            // The Σ-only collapse check is paid here, not by a query.
            engine.has_epsilon_collapse();
        }
        SharedContext {
            chase: SharedChase::build(sigma, budget),
            word,
            chase_reuses: AtomicU64::new(0),
        }
    }

    /// The shared chase prefix for a query on `sigma` under `budget`,
    /// or `None` when it is not an exact match (the caller then chases
    /// cold, inlining the prefix). Counts the reuse.
    pub fn chase_for(&self, sigma: &[PathConstraint], budget: &Budget) -> Option<&SharedChase> {
        if self.chase.compatible(sigma, budget) {
            self.chase_reuses.fetch_add(1, Ordering::Relaxed);
            Some(&self.chase)
        } else {
            None
        }
    }

    /// The shared word engine for a query on `sigma`, or `None` when Σ
    /// differs (in any constraint or in order) or is not a word theory.
    pub fn word_for(&self, sigma: &[PathConstraint]) -> Option<&WordEngine> {
        self.word.as_ref().filter(|_| self.chase.sigma() == sigma)
    }

    /// The underlying chase prefix snapshot.
    pub fn chase(&self) -> &SharedChase {
        &self.chase
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
            chase_reuses: self.chase_reuses.load(Ordering::Relaxed),
            prefix_rounds: self.chase.rounds(),
            prefix_steps: self.chase.steps() as u64,
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
        let shared = SharedContext::build(&sigma, &Budget::small());
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
        let shared = SharedContext::build(&sigma, &Budget::default());
        assert!(shared.word().is_none());
        assert!(shared.word_for(&sigma).is_none());
    }

    #[test]
    fn shared_state_refuses_a_different_sigma() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let other = parse_constraints("a -> c", &mut labels).unwrap();
        let budget = Budget::default();
        let shared = SharedContext::build(&sigma, &budget);
        assert!(shared.chase_for(&sigma, &budget).is_some());
        assert!(shared.chase_for(&other, &budget).is_none());
        assert!(shared.word_for(&other).is_none());
        let tighter = Budget {
            chase_rounds: 3,
            ..budget.clone()
        };
        assert!(shared.chase_for(&sigma, &tighter).is_none());
        assert_eq!(shared.stats().chase_reuses, 1);
    }
}
