//! Memory regression test for the answer cache's key storage.
//!
//! A counting global allocator tracks live heap bytes. The test fills a
//! capacity-4096 `AnswerCache` with distinct canonical keys over one
//! 128-rule Σ — the resident-context shape, where every key carries the
//! whole Σ — and bounds the live-heap growth per entry. Keeping this
//! binary to a single `#[test]` keeps other tests' allocations out of
//! the count.

use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::{Answer, DataContext, Evidence, Method, Outcome};
use pathcons_engine::{canonicalize, AnswerCache, CachedEntry, QueryKey};
use pathcons_graph::Label;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes, as seen through the counting allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// adjusts a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CAPACITY: usize = 4096;
const RULES: usize = 128;
const LABELS: u64 = 8;
/// The bound: at most 4 KiB of live heap per cached entry.
const MAX_BYTES_PER_ENTRY: isize = 4096;

fn path(labels: &[u64]) -> Path {
    Path::from_labels(labels.iter().map(|&l| Label::from_index(l as usize)))
}

/// 128 distinct word rules `x.y -> z` / `x -> y.z` over 8 labels.
fn sigma() -> Vec<PathConstraint> {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % LABELS
    };
    let mut rules = Vec::with_capacity(RULES);
    while rules.len() < RULES {
        let (x, y, z) = (next(), next(), next());
        let rule = if rules.len() % 2 == 0 {
            PathConstraint::word(path(&[x, y]), path(&[z]))
        } else {
            PathConstraint::word(path(&[x]), path(&[y, z]))
        };
        if !rules.contains(&rule) {
            rules.push(rule);
        }
    }
    rules
}

/// A distinct goal per entry: `i` written in base 8 as the rhs path.
fn phi(i: usize) -> PathConstraint {
    let mut digits = vec![0u64];
    let mut n = i as u64;
    while n > 0 {
        digits.push(n % LABELS);
        n /= LABELS;
    }
    PathConstraint::word(path(&[0]), path(&digits))
}

#[test]
fn cached_entries_stay_under_four_kib_each() {
    let sigma = sigma();
    let canon = canonicalize(&DataContext::Semistructured, &sigma, &phi(0));
    assert_eq!(canon.key.sigma.len(), RULES);
    let entry = CachedEntry {
        answer: Answer {
            outcome: Outcome::Implied(Evidence::WordDerivation),
            method: Method::WordAutomaton,
        },
        renaming: canon.renaming.clone(),
        certificate: None,
    };

    let mut cache = AnswerCache::new(CAPACITY);
    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..CAPACITY {
        let key = QueryKey {
            phi: phi(i),
            ..canon.key.clone()
        };
        cache.insert(key, entry.clone());
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(cache.len(), CAPACITY, "every key is distinct");
    assert_eq!(cache.stats().evictions, 0);

    let per_entry = grown / CAPACITY as isize;
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "{per_entry} live bytes per cached entry (bound {MAX_BYTES_PER_ENTRY})"
    );
    // The entries are really there: a stored key answers its lookup.
    let probe = QueryKey {
        phi: phi(CAPACITY - 1),
        ..canon.key.clone()
    };
    assert!(cache.lookup(&probe).is_some());
}
