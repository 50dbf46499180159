//! Memory regression test for the answer cache's key storage.
//!
//! A counting global allocator tracks live heap bytes and allocations.
//! The test fills a capacity-4096 `AnswerCache` three times and bounds
//! the live-heap growth per entry each time:
//!
//! - with distinct keys over one 128-rule Σ — the resident-context
//!   shape, where the cache interns the shared Σ once;
//! - with a distinct 32-rule Σ per key — the cold shape, where interning
//!   shares nothing and may cost at most 64 bytes and one allocation per
//!   entry over storing each Σ inside its key;
//! - with a distinct 2-rule Σ per key — the wire shape, whose short Σ
//!   stay inline in their keys and pay nothing for interning.
//!
//! It then fills the cache with `Implied` entries whose certificates
//! carry their steps — a chase trace and a word derivation — and bounds
//! them too: the steps are stored once, in the packed certificate.
//!
//! Keeping this binary to a single `#[test]` keeps other tests'
//! allocations out of the count.

use pathcons_cert::{
    Certificate, CertificateBody, ChaseStep, ChaseTrace, ImpliedCert, RewriteStep,
};
use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::{Answer, DataContext, Derivation, DerivationStep, Evidence, Method, Outcome};
use pathcons_engine::{canonicalize, AnswerCache, CachedEntry, QueryKey};
use pathcons_graph::Label;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes and allocations, as seen through the counting
/// allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// adjusts a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        ALLOCS.fetch_sub(1, Ordering::Relaxed);
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
/// Live heap per entry when every key shares one interned 128-rule Σ.
const MAX_SHARED_BYTES_PER_ENTRY: isize = 512;
/// Live heap and allocations per entry with a distinct 32-rule Σ per
/// key, when each key stored its own Σ inline (x86-64 Linux, release
/// and debug alike), plus the interning allowance: 64 bytes and one
/// allocation.
const MAX_DISTINCT_BYTES_PER_ENTRY: isize = INLINE_DISTINCT_BYTES + 64;
const INLINE_DISTINCT_BYTES: isize = 538;
const MAX_DISTINCT_ALLOCS_PER_ENTRY: isize = INLINE_DISTINCT_ALLOCS + 1;
const INLINE_DISTINCT_ALLOCS: isize = 2;
/// Live heap and allocations per entry with a distinct 2-rule Σ per
/// key: 337 bytes and 2 allocations stored inline (x86-64 Linux,
/// release and debug alike), plus 16 bytes of slack. Interning each
/// such Σ measured 395 bytes and 3 allocations.
const MAX_SHORT_BYTES_PER_ENTRY: isize = 352;
const MAX_SHORT_ALLOCS_PER_ENTRY: isize = 2;
/// Live heap and allocations per entry over a short Σ for an `Implied`
/// chase entry with a 12-step trace and its certificate: 376 bytes and
/// 3 allocations measured (x86-64 Linux, release and debug alike), plus
/// 16 bytes of slack. Keeping the trace in the answer as well measured
/// 664 bytes and 4 allocations.
const MAX_CHASE_BYTES_PER_ENTRY: isize = 392;
const MAX_CHASE_ALLOCS_PER_ENTRY: isize = 3;
/// The same for an `Implied` word entry with a 6-step derivation and
/// its certificate: 380 bytes and 3 allocations, what the entry cost
/// when word evidence carried no steps at all. Keeping the derivation
/// in the answer would add its allocations.
const MAX_WORD_BYTES_PER_ENTRY: isize = 380;
const MAX_WORD_ALLOCS_PER_ENTRY: isize = 3;

fn path(labels: &[u64]) -> Path {
    Path::from_labels(labels.iter().map(|&l| Label::from_index(l as usize)))
}

/// A pseudo-random label stream.
fn labels(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % LABELS
    }
}

/// `rules` distinct word rules `x.y -> z` / `x -> y.z` over 8 labels.
fn sigma(seed: u64, rules: usize) -> Vec<PathConstraint> {
    let mut next = labels(seed);
    let mut sigma = Vec::with_capacity(rules);
    while sigma.len() < rules {
        let (x, y, z) = (next(), next(), next());
        let rule = if sigma.len() % 2 == 0 {
            PathConstraint::word(path(&[x, y]), path(&[z]))
        } else {
            PathConstraint::word(path(&[x]), path(&[y, z]))
        };
        if !sigma.contains(&rule) {
            sigma.push(rule);
        }
    }
    sigma
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

/// Fills a fresh cache with the keys `key(0..CAPACITY)`; returns it
/// with its live-heap bytes and allocations per entry.
fn fill(key: impl Fn(usize) -> QueryKey, entry: &CachedEntry) -> (AnswerCache, isize, isize) {
    let (bytes, allocs) = (LIVE.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    let mut cache = AnswerCache::new(CAPACITY);
    for i in 0..CAPACITY {
        cache.insert(key(i), entry.clone());
    }
    let per_entry = |now: isize, then: isize| (now - then) / CAPACITY as isize;
    (
        cache,
        per_entry(LIVE.load(Ordering::Relaxed), bytes),
        per_entry(ALLOCS.load(Ordering::Relaxed), allocs),
    )
}

#[test]
fn cached_entries_stay_small() {
    let shared = sigma(0x5eed, RULES);
    let canon = canonicalize(&DataContext::Semistructured, &shared, &phi(0));
    assert_eq!(canon.key.sigma.len(), RULES);
    let entry = CachedEntry {
        answer: Answer {
            outcome: Outcome::Implied(Evidence::WordDerivation(None)),
            method: Method::WordAutomaton,
        },
        renaming: canon.renaming.clone(),
        certificate: None,
    };
    let key = |sigma: &[PathConstraint], i: usize| QueryKey {
        sigma: sigma.to_vec(),
        phi: phi(i),
        ..canon.key.clone()
    };

    // One shared Σ.
    let (mut cache, bytes, _) = fill(|i| key(&canon.key.sigma, i), &entry);
    assert_eq!(cache.len(), CAPACITY, "every key is distinct");
    assert_eq!(cache.stats().evictions, 0);
    assert_eq!(cache.interned_sigmas(), 1);
    assert!(
        bytes <= MAX_SHARED_BYTES_PER_ENTRY,
        "{bytes} live bytes per entry over a shared Σ (bound {MAX_SHARED_BYTES_PER_ENTRY})"
    );
    // The entries are really there: a stored key answers its lookup.
    assert!(cache.lookup(&key(&canon.key.sigma, CAPACITY - 1)).is_some());
    // Once every entry is evicted, the intern table is empty.
    for i in 0..CAPACITY {
        assert!(cache.evict_invalid(&key(&canon.key.sigma, i)));
    }
    assert!(cache.is_empty());
    assert_eq!(cache.interned_sigmas(), 0);
    drop(cache);

    // A distinct Σ per entry.
    let (cache, bytes, allocs) = fill(|i| key(&sigma(i as u64, 32), i), &entry);
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(cache.interned_sigmas(), CAPACITY);
    assert!(
        bytes <= MAX_DISTINCT_BYTES_PER_ENTRY,
        "{bytes} live bytes per entry over distinct Σ (bound {MAX_DISTINCT_BYTES_PER_ENTRY})"
    );
    assert!(
        allocs <= MAX_DISTINCT_ALLOCS_PER_ENTRY,
        "{allocs} live allocations per entry over distinct Σ (bound {MAX_DISTINCT_ALLOCS_PER_ENTRY})"
    );
    drop(cache);

    // A distinct short Σ per entry: stored inline, nothing interned.
    let (cache, bytes, allocs) = fill(|i| key(&sigma(i as u64, 2), i), &entry);
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(cache.interned_sigmas(), 0);
    assert!(
        bytes <= MAX_SHORT_BYTES_PER_ENTRY,
        "{bytes} live bytes per entry over short Σ (bound {MAX_SHORT_BYTES_PER_ENTRY})"
    );
    assert!(
        allocs <= MAX_SHORT_ALLOCS_PER_ENTRY,
        "{allocs} live allocations per entry over short Σ (bound {MAX_SHORT_ALLOCS_PER_ENTRY})"
    );
    drop(cache);

    // Implied entries whose certificates carry their steps.
    let short = |i: usize| key(&sigma(i as u64, 2), i);
    let snapshot = 7;
    let trace = ChaseTrace {
        steps: (0..12)
            .map(|i| ChaseStep {
                constraint: i % 2,
                a: i,
                b: i + 1,
            })
            .collect(),
    };
    let chase = CachedEntry {
        answer: Answer {
            outcome: Outcome::Implied(Evidence::ChaseForced {
                steps: trace.steps.len(),
                trace: trace.clone(),
            }),
            method: Method::Chase,
        },
        renaming: canon.renaming.clone(),
        certificate: Some(Certificate {
            snapshot,
            body: CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)),
        }),
    };
    let words: Vec<Vec<Label>> = (0..7u64)
        .map(|i| path(&[i, i + 1, 0, 1]).to_vec())
        .collect();
    let word = CachedEntry {
        answer: Answer {
            outcome: Outcome::Implied(Evidence::WordDerivation(Some(Derivation {
                start: words[0].clone(),
                steps: (1..7)
                    .map(|i| DerivationStep {
                        rule: i % 2,
                        result: words[i].clone(),
                    })
                    .collect(),
            }))),
            method: Method::WordAutomaton,
        },
        renaming: canon.renaming.clone(),
        certificate: Some(Certificate {
            snapshot,
            body: CertificateBody::Implied(ImpliedCert::WordRewrite {
                start: words[0].clone(),
                steps: (1..7)
                    .map(|i| RewriteStep {
                        rule: i % 2,
                        result: words[i].clone(),
                    })
                    .collect(),
            }),
        }),
    };
    for (kind, entry, max_bytes, max_allocs) in [
        (
            "chase",
            &chase,
            MAX_CHASE_BYTES_PER_ENTRY,
            MAX_CHASE_ALLOCS_PER_ENTRY,
        ),
        (
            "word",
            &word,
            MAX_WORD_BYTES_PER_ENTRY,
            MAX_WORD_ALLOCS_PER_ENTRY,
        ),
    ] {
        let (cache, bytes, allocs) = fill(short, entry);
        assert_eq!(cache.len(), CAPACITY);
        assert!(
            bytes <= max_bytes,
            "{bytes} live bytes per Implied {kind} entry (bound {max_bytes})"
        );
        assert!(
            allocs <= max_allocs,
            "{allocs} live allocations per Implied {kind} entry (bound {max_allocs})"
        );
    }
}
