//! Memory regression test for cached word-tier refutations.
//!
//! A refuted entry holds its countermodel once: the certificate keeps
//! it, renamed into canonical labels and packed into one LEB128 buffer,
//! and a hit rebuilds the answer's copy from it. A counting global
//! allocator tracks live heap bytes while a capacity-512 `AnswerCache`
//! fills with refuted entries of fresh 32-rule theories over four
//! labels — one cold word job each, as a cold-theory workload sends
//! them — and the live-heap growth per entry is bounded. Keeping this
//! binary to a single `#[test]` keeps other tests' allocations out of
//! the count.

use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::{DataContext, Outcome, Solver};
use pathcons_engine::{canonicalize, certify, AnswerCache, CachedEntry};
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

const CAPACITY: usize = 512;
const RULES: usize = 32;
const LABELS: u64 = 4;
/// The bound: at most 2 KiB of live heap per cached refutation, key
/// included. With the countermodel stored once, packed, an entry takes
/// about 760 bytes; holding it twice as `Graph`s took about 5.5 KB, and
/// canonical-model truncations about 34.7 KB.
const MAX_BYTES_PER_ENTRY: isize = 2 * 1024;

fn path(labels: &[u64]) -> Path {
    Path::from_labels(labels.iter().map(|&l| Label::from_index(l as usize)))
}

/// A stream of refuted jobs: 32 rules with paths of 1–3 labels over
/// `0..4`, and a query `x -> 4` whose rhs label Σ never mentions.
fn jobs() -> impl Iterator<Item = (Vec<PathConstraint>, PathConstraint)> {
    let mut state = 0x5eed_u64;
    let mut next = move |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    std::iter::repeat_with(move || {
        let mut word = || -> Vec<u64> { (0..1 + next(3)).map(|_| next(LABELS)).collect() };
        let sigma = (0..RULES)
            .map(|_| PathConstraint::word(path(&word()), path(&word())))
            .collect();
        let phi = PathConstraint::word(path(&[next(LABELS)]), path(&[LABELS]));
        (sigma, phi)
    })
}

#[test]
fn cached_refutations_stay_under_two_kib_each() {
    let context = DataContext::Semistructured;
    let solver = Solver::new(context.clone());
    let mut cache = AnswerCache::new(CAPACITY);
    let before = LIVE.load(Ordering::Relaxed);
    for (sigma, phi) in jobs().take(CAPACITY) {
        let answer = solver.implies(&sigma, &phi).unwrap();
        assert!(
            matches!(&answer.outcome, Outcome::NotImplied(r) if r.countermodel.is_some()),
            "{phi:?} refuted with a countermodel"
        );
        let canon = canonicalize(&context, &sigma, &phi);
        let certificate = certify(&canon, &sigma, &phi, &answer, None);
        assert!(certificate.is_some(), "{phi:?} certified");
        cache.insert(
            canon.key,
            CachedEntry {
                answer,
                renaming: canon.renaming,
                certificate,
            },
        );
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(cache.len(), CAPACITY, "every key is distinct");

    let per_entry = grown / CAPACITY as isize;
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "{per_entry} live bytes per cached refutation (bound {MAX_BYTES_PER_ENTRY})"
    );
}
