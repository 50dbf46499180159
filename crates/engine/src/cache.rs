//! The canonicalizing answer cache: a bounded LRU from [`QueryKey`] to
//! solved [`Answer`]s, with hit/miss/eviction counters.
//!
//! Keys are stored once per entry, in a compact byte encoding shared by
//! the map and the LRU slot (see `encode_key`): a resident-context key
//! carries the whole canonical Σ, so its storage sets the cache's
//! footprint.
//!
//! Entries store the answer *in the label space of the query that
//! inserted it*, together with that query's renaming into the canonical
//! space. A later alpha-variant hit composes the two renamings to map
//! evidence (countermodel graphs) into its own label space — see
//! [`crate::BatchEngine`] for the adaptation step.

use crate::canon::{ContextKey, QueryKey, Renaming};
use pathcons_cert::Certificate;
use pathcons_constraints::{Kind, Path, PathConstraint};
use pathcons_core::Answer;
use std::collections::HashMap;
use std::sync::Arc;

/// Monotonic counters describing cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries stored (including overwrites of the same key).
    pub insertions: u64,
    /// Verify-mode re-solves performed on hits.
    pub verifications: u64,
    /// Verify-mode re-solves that disagreed with the cached answer.
    pub verify_mismatches: u64,
    /// Entries rejected at serve time — by the structural hit-validator
    /// or by the cache's own map/slot consistency check — and evicted
    /// instead of served.
    pub validation_evictions: u64,
    /// Hits served after their stored certificate validated
    /// (`--verify` check mode).
    pub checked_hits: u64,
    /// Hits whose stored certificate failed the checker; the entry was
    /// evicted and the query re-solved fresh.
    pub cert_invalid: u64,
}

/// A cached answer plus the inserting query's renaming into the
/// canonical label space.
#[derive(Clone, Debug)]
pub struct CachedEntry {
    /// The answer, in the inserting query's label space.
    pub answer: Answer,
    /// Inserting query's labels → canonical labels.
    pub renaming: Renaming,
    /// A checkable certificate for the answer, in the *canonical* label
    /// space and bound to the canonical key's snapshot id — valid for
    /// every alpha-variant that hits this entry. Absent when the
    /// solver's evidence kind has no certificate form.
    pub certificate: Option<Certificate>,
}

const NIL: usize = usize::MAX;

/// A key as the cache stores it: its [`encode_key`] bytes in one
/// allocation, shared by the map and the LRU slot.
type StoredKey = Arc<[u8]>;

/// Writes the stored encoding of `key` into `out` (cleared first).
///
/// Layout: a context tag byte (followed, for schema contexts, by the
/// 8-byte little-endian fingerprint), the revision, `|Σ|`, then each
/// constraint of Σ and finally φ as a kind byte plus, for each of
/// prefix, lhs and rhs, its length and its label ids. Every integer
/// but the fingerprint is LEB128 — canonical ids are small, so most
/// take one byte. Each field is fixed-width or length-prefixed, so the
/// encoding is injective: equal bytes mean equal keys, and a hit still
/// proves alpha-equivalence.
fn encode_key(key: &QueryKey, out: &mut Vec<u8>) {
    out.clear();
    let (tag, fingerprint) = match key.context {
        ContextKey::Semistructured => (0, None),
        ContextKey::M(fingerprint) => (1, Some(fingerprint)),
        ContextKey::MPlus(fingerprint) => (2, Some(fingerprint)),
        ContextKey::MPlusFinite(fingerprint) => (3, Some(fingerprint)),
    };
    out.push(tag);
    if let Some(fingerprint) = fingerprint {
        out.extend_from_slice(&fingerprint.to_le_bytes());
    }
    leb128(out, key.revision);
    leb128(out, key.sigma.len() as u64);
    for c in key.sigma.iter().chain(std::iter::once(&key.phi)) {
        encode_constraint(c, out);
    }
}

fn encode_constraint(c: &PathConstraint, out: &mut Vec<u8>) {
    out.push(match c.kind() {
        Kind::Forward => 0,
        Kind::Backward => 1,
    });
    for path in [c.prefix(), c.lhs(), c.rhs()] {
        encode_path(path, out);
    }
}

fn encode_path(path: &Path, out: &mut Vec<u8>) {
    leb128(out, path.len() as u64);
    for label in path.labels() {
        leb128(out, label.index() as u64);
    }
}

/// Unsigned LEB128: seven bits per byte, high bit set on all but the
/// last.
fn leb128(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

struct Slot {
    key: StoredKey,
    entry: CachedEntry,
    prev: usize,
    next: usize,
}

/// A bounded LRU cache over canonical query keys.
///
/// Capacity 0 disables caching: every lookup misses and inserts are
/// dropped (counters still run, so a disabled cache is observable).
pub struct AnswerCache {
    capacity: usize,
    map: HashMap<StoredKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    stats: CacheStats,
    /// The encoding of the key being looked up, reused across calls so
    /// lookups allocate nothing.
    scratch: Vec<u8>,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a canonical key, counting a hit or miss and refreshing
    /// recency on hit. Returns a clone (entries stay owned by the cache).
    ///
    /// Defensive against torn state: a mapped index whose slot is dead,
    /// or whose slot stores a *different* key than the map said (the
    /// canonical-key half of the hit-validator), is treated as a miss —
    /// the mapping is dropped and a
    /// [`CacheStats::validation_evictions`] is counted — rather than
    /// served or panicked on.
    pub fn lookup(&mut self, key: &QueryKey) -> Option<CachedEntry> {
        encode_key(key, &mut self.scratch);
        match self.map.get(&self.scratch[..]).copied() {
            Some(idx) => match self.slots.get(idx).and_then(Option::as_ref) {
                Some(slot) if slot.key[..] == self.scratch[..] => {
                    self.stats.hits += 1;
                    self.unlink(idx);
                    self.push_front(idx);
                    Some(
                        self.slots[idx]
                            .as_ref()
                            .expect("slot checked live above")
                            .entry
                            .clone(),
                    )
                }
                _ => {
                    // Torn map entry: never serve it.
                    self.map.remove(&self.scratch[..]);
                    self.stats.validation_evictions += 1;
                    self.stats.misses += 1;
                    None
                }
            },
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Removes an entry the hit-validator rejected, counting a
    /// [`CacheStats::validation_evictions`]. Returns whether the key
    /// was present.
    pub fn evict_invalid(&mut self, key: &QueryKey) -> bool {
        encode_key(key, &mut self.scratch);
        let removed = match self.map.remove(&self.scratch[..]) {
            None => false,
            Some(idx) => {
                if self.slots.get(idx).and_then(Option::as_ref).is_some() {
                    self.unlink(idx);
                    self.slots[idx] = None;
                    self.free.push(idx);
                }
                true
            }
        };
        if removed {
            self.stats.validation_evictions += 1;
        }
        removed
    }

    /// Stores an entry, evicting the least-recently-used one if full.
    pub fn insert(&mut self, key: QueryKey, entry: CachedEntry) {
        if self.capacity == 0 {
            return;
        }
        encode_key(&key, &mut self.scratch);
        self.stats.insertions += 1;
        if let Some(idx) = self.map.get(&self.scratch[..]).copied() {
            // Overwrite in place (a concurrent miss may have re-solved).
            let slot = self.slots[idx].as_mut().expect("mapped slot is live");
            slot.entry = entry;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let slot = self.slots[lru].take().expect("tail slot is live");
            self.map.remove(&slot.key);
            self.free.push(lru);
            self.stats.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let key: StoredKey = Arc::from(&self.scratch[..]);
        self.slots[idx] = Some(Slot {
            key: Arc::clone(&key),
            entry,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drops every entry and keeps the counters, so they keep growing.
    ///
    /// The owning engine calls this once when it finds the cache lock
    /// poisoned: a panic may have unwound out of a cache method midway
    /// through an update, and dropping entries is always safe, since the
    /// cache is a performance layer, never a source of truth.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Records a verify-mode re-solve and whether it agreed.
    pub fn note_verification(&mut self, agreed: bool) {
        self.stats.verifications += 1;
        if !agreed {
            self.stats.verify_mismatches += 1;
        }
    }

    /// Records a check-mode certificate validation on a hit.
    pub fn note_certcheck(&mut self, valid: bool) {
        if valid {
            self.stats.checked_hits += 1;
        } else {
            self.stats.cert_invalid += 1;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let slot = self.slots[idx].as_ref().expect("unlink of live slot");
            (slot.prev, slot.next)
        };
        match prev {
            NIL => {
                if self.head == idx {
                    self.head = next;
                }
            }
            p => self.slots[p].as_mut().expect("prev is live").next = next,
        }
        match next {
            NIL => {
                if self.tail == idx {
                    self.tail = prev;
                }
            }
            n => self.slots[n].as_mut().expect("next is live").prev = prev,
        }
        let slot = self.slots[idx].as_mut().expect("unlink of live slot");
        slot.prev = NIL;
        slot.next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let slot = self.slots[idx].as_mut().expect("push of live slot");
            slot.prev = NIL;
            slot.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("head is live").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::ContextKey;
    use pathcons_constraints::{Path, PathConstraint};
    use pathcons_core::{Answer, Evidence, Method, Outcome};
    use pathcons_graph::Label;

    fn key(n: usize) -> QueryKey {
        let l = Label::from_index(n);
        QueryKey {
            context: ContextKey::Semistructured,
            sigma: vec![],
            phi: PathConstraint::forward(Path::empty(), Path::single(l), Path::single(l)),
            revision: 0,
        }
    }

    fn stored(key: &QueryKey) -> StoredKey {
        let mut out = Vec::new();
        encode_key(key, &mut out);
        out.into()
    }

    fn entry() -> CachedEntry {
        CachedEntry {
            answer: Answer {
                outcome: Outcome::Implied(Evidence::WordDerivation),
                method: Method::WordAutomaton,
            },
            renaming: Renaming::new(),
            certificate: None,
        }
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let mut cache = AnswerCache::new(2);
        assert!(cache.lookup(&key(0)).is_none());
        cache.insert(key(0), entry());
        cache.insert(key(1), entry());
        assert!(cache.lookup(&key(0)).is_some());
        cache.insert(key(2), entry()); // evicts key(1), the LRU
        assert!(cache.lookup(&key(1)).is_none());
        assert!(cache.lookup(&key(0)).is_some());
        assert!(cache.lookup(&key(2)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.insertions, 3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_order_tracks_recency_across_churn() {
        let mut cache = AnswerCache::new(3);
        for i in 0..3 {
            cache.insert(key(i), entry());
        }
        // Touch 0 and 1; 2 becomes LRU.
        assert!(cache.lookup(&key(0)).is_some());
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), entry());
        assert!(cache.lookup(&key(2)).is_none());
        // Slot reuse: keep churning well past capacity.
        for i in 4..40 {
            cache.insert(key(i), entry());
        }
        assert_eq!(cache.len(), 3);
        assert!(cache.lookup(&key(39)).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = AnswerCache::new(0);
        cache.insert(key(0), entry());
        assert!(cache.lookup(&key(0)).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn evict_invalid_removes_entry_and_counts() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), entry());
        cache.insert(key(1), entry());
        assert!(cache.evict_invalid(&key(0)));
        assert!(!cache.evict_invalid(&key(0)), "second eviction is a no-op");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().validation_evictions, 1);
        assert!(cache.lookup(&key(0)).is_none());
        assert!(cache.lookup(&key(1)).is_some());
        // The freed slot is reusable.
        cache.insert(key(2), entry());
        assert!(cache.lookup(&key(2)).is_some());
    }

    #[test]
    fn torn_map_entries_miss_instead_of_panicking() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), entry());
        // Tear the map: point a key at a slot index that was never
        // allocated (as a panic mid-insert could).
        cache.map.insert(stored(&key(7)), 999);
        assert!(cache.lookup(&key(7)).is_none(), "torn entry is a miss");
        assert_eq!(cache.stats().validation_evictions, 1);
        assert!(
            !cache.map.contains_key(&stored(&key(7))),
            "torn mapping dropped"
        );
        // Tear differently: map key(8) at key(0)'s slot (key mismatch).
        let idx0 = *cache.map.get(&stored(&key(0))).unwrap();
        cache.map.insert(stored(&key(8)), idx0);
        assert!(cache.lookup(&key(8)).is_none());
        assert_eq!(cache.stats().validation_evictions, 2);
        // The legitimate entry is untouched throughout.
        assert!(cache.lookup(&key(0)).is_some());
    }

    #[test]
    fn same_content_under_another_revision_misses() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), entry());
        let bumped = QueryKey {
            revision: 1,
            ..key(0)
        };
        assert!(cache.lookup(&bumped).is_none());
        assert!(cache.lookup(&key(0)).is_some());
        assert_eq!(cache.stats().validation_evictions, 0, "a plain miss");
    }

    #[test]
    fn stored_encoding_separates_near_miss_keys() {
        let path = |ids: &[usize]| Path::from_labels(ids.iter().map(|&i| Label::from_index(i)));
        let with =
            |context: ContextKey, sigma: Vec<PathConstraint>, phi: PathConstraint| QueryKey {
                context,
                sigma,
                phi,
                revision: 0,
            };
        let word = |lhs: &[usize], rhs: &[usize]| PathConstraint::word(path(lhs), path(rhs));
        let keys = [
            with(ContextKey::Semistructured, vec![], word(&[0, 1], &[2])),
            // A label moved across the lhs/rhs boundary.
            with(ContextKey::Semistructured, vec![], word(&[0], &[1, 2])),
            // The same labels split between Σ and φ.
            with(
                ContextKey::Semistructured,
                vec![word(&[0, 1], &[2])],
                word(&[], &[]),
            ),
            // Kind and prefix.
            with(
                ContextKey::Semistructured,
                vec![],
                PathConstraint::backward(path(&[0]), path(&[1]), path(&[2])),
            ),
            with(
                ContextKey::Semistructured,
                vec![],
                PathConstraint::forward(path(&[0]), path(&[1]), path(&[2])),
            ),
            // Multi-byte label ids.
            with(ContextKey::Semistructured, vec![], word(&[128], &[2])),
            with(ContextKey::Semistructured, vec![], word(&[0, 1], &[300])),
            // Same fingerprint, different schema model.
            with(ContextKey::M(7), vec![], word(&[0, 1], &[2])),
            with(ContextKey::MPlus(7), vec![], word(&[0, 1], &[2])),
            with(ContextKey::MPlusFinite(7), vec![], word(&[0, 1], &[2])),
            with(ContextKey::M(8), vec![], word(&[0, 1], &[2])),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(stored(a), stored(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn overwrite_keeps_single_entry() {
        let mut cache = AnswerCache::new(2);
        cache.insert(key(0), entry());
        cache.insert(key(0), entry());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 2);
        assert_eq!(cache.stats().evictions, 0);
    }
}
