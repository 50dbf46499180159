//! The canonicalizing answer cache: a bounded LRU from [`QueryKey`] to
//! solved [`Answer`]s, with hit/miss/eviction counters.
//!
//! Keys are stored once per entry, in a compact byte encoding shared by
//! the map and the LRU slot (see `encode_key`): a resident-context key
//! carries the whole canonical Σ, so its storage sets the cache's
//! footprint.
//!
//! Entries are stored packed (see `PackedEntry`): the answer *in the
//! label space of the query that inserted it*, that query's renaming
//! into the canonical space as a sorted slice, and the certificate as
//! one LEB128 buffer. A refutation's countermodel is kept once, in the
//! certificate's canonical space; the answer's copy is rebuilt from it
//! on a hit. [`AnswerCache::lookup`] unpacks a fresh [`CachedEntry`],
//! and a later alpha-variant hit composes the two renamings to map
//! evidence (countermodel graphs) into its own label space — see
//! [`crate::BatchEngine`] for the adaptation step.

use crate::canon::{self, ContextKey, QueryKey, Renaming};
use pathcons_cert::{
    BudgetCert, Certificate, CertificateBody, ChaseStep, ChaseTrace, CounterModelCert, ImpliedCert,
    RewriteStep,
};
use pathcons_constraints::{Kind, PathConstraint};
use pathcons_core::{Answer, CounterModel, CounterModelProvenance, Outcome};
use pathcons_graph::{Graph, Label, NodeId};
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
        encode_word(path.labels(), out);
    }
}

/// A word as its length and its label ids.
fn encode_word(word: &[Label], out: &mut Vec<u8>) {
    leb128(out, word.len() as u64);
    for label in word {
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

/// A [`CachedEntry`] as a slot stores it.
///
/// An untyped refutation whose certificate graph renames back, through
/// the inverse of `renaming`, to exactly the answer's countermodel
/// (same node count, root and edges) stores that countermodel once: the
/// answer keeps `countermodel: None` and `folded` holds the provenance.
/// Every other answer is stored whole.
struct PackedEntry {
    answer: Answer,
    folded: Option<CounterModelProvenance>,
    /// The inserting query's renaming, sorted by source label.
    renaming: Box<[(Label, Label)]>,
    /// The certificate's snapshot id and its [`pack_body`] bytes.
    certificate: Option<(u64, Box<[u8]>)>,
}

impl PackedEntry {
    fn pack(entry: CachedEntry) -> PackedEntry {
        let CachedEntry {
            mut answer,
            renaming,
            certificate,
        } = entry;
        let mut folded = None;
        if let (Outcome::NotImplied(refutation), Some(canonical)) =
            (&mut answer.outcome, countermodel_graph(&certificate))
        {
            let rebuilds = refutation.countermodel.as_ref().is_some_and(|cm| {
                cm.types.is_none()
                    && canon::rename_graph(canonical, &canon::invert(&renaming))
                        .is_some_and(|rebuilt| same_graph(&rebuilt, &cm.graph))
            });
            if rebuilds {
                folded = refutation.countermodel.take().map(|cm| cm.provenance);
            }
        }
        PackedEntry {
            answer,
            folded,
            renaming: renaming.into_iter().collect(),
            certificate: certificate.map(|c| (c.snapshot, pack_body(&c.body))),
        }
    }

    /// Rebuilds the entry `pack` stored; `None` when the certificate
    /// bytes do not decode or a folded countermodel cannot be rebuilt.
    fn unpack(&self) -> Option<CachedEntry> {
        let renaming: Renaming = self.renaming.iter().copied().collect();
        let certificate = match &self.certificate {
            None => None,
            Some((snapshot, bytes)) => Some(Certificate {
                snapshot: *snapshot,
                body: unpack_body(bytes)?,
            }),
        };
        let mut answer = self.answer.clone();
        if let Some(provenance) = self.folded {
            let canonical = countermodel_graph(&certificate)?;
            let Outcome::NotImplied(refutation) = &mut answer.outcome else {
                return None;
            };
            refutation.countermodel = Some(CounterModel {
                graph: canon::rename_graph(canonical, &canon::invert(&renaming))?,
                types: None,
                provenance,
            });
        }
        Some(CachedEntry {
            answer,
            renaming,
            certificate,
        })
    }
}

fn countermodel_graph(certificate: &Option<Certificate>) -> Option<&Graph> {
    match certificate {
        Some(Certificate {
            body: CertificateBody::NotImplied(cm),
            ..
        }) => Some(&cm.graph),
        _ => None,
    }
}

fn same_graph(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count() && a.root() == b.root() && a.edges().eq(b.edges())
}

/// Tag bytes of the packed certificate bodies, one per variant.
const CHASE_TRACE: u8 = 0;
const WORD_REWRITE: u8 = 1;
const COUNTERMODEL: u8 = 2;
const BUDGET: u8 = 3;

/// Packs a certificate body into one buffer: its tag byte, then LEB128
/// integers and length-prefixed words and strings.
///
/// - chase trace: `pattern_at`, the step count, then each step's
///   constraint, `a` and `b`;
/// - word rewrite: the start word, the step count, then each step's
///   rule and result word;
/// - countermodel: the node count, the root, then for each node its
///   out-degree and its `(label, target)` edges in stored order;
/// - budget: the reason, then `0`, or `1` and the phase.
fn pack_body(body: &CertificateBody) -> Box<[u8]> {
    let mut out = Vec::new();
    match body {
        CertificateBody::Implied(ImpliedCert::ChaseReplay(trace)) => {
            out.push(CHASE_TRACE);
            leb128(&mut out, trace.pattern_at as u64);
            leb128(&mut out, trace.steps.len() as u64);
            for step in &trace.steps {
                for n in [step.constraint, step.a, step.b] {
                    leb128(&mut out, n as u64);
                }
            }
        }
        CertificateBody::Implied(ImpliedCert::WordRewrite { start, steps }) => {
            out.push(WORD_REWRITE);
            encode_word(start, &mut out);
            leb128(&mut out, steps.len() as u64);
            for step in steps {
                leb128(&mut out, step.rule as u64);
                encode_word(&step.result, &mut out);
            }
        }
        CertificateBody::NotImplied(cm) => {
            out.push(COUNTERMODEL);
            let graph = &cm.graph;
            leb128(&mut out, graph.node_count() as u64);
            leb128(&mut out, graph.root().index() as u64);
            for node in graph.nodes() {
                leb128(&mut out, graph.out_degree(node) as u64);
                for (label, to) in graph.out_edges(node) {
                    leb128(&mut out, label.index() as u64);
                    leb128(&mut out, to.index() as u64);
                }
            }
        }
        CertificateBody::Unknown(budget) => {
            out.push(BUDGET);
            pack_bytes(budget.reason.as_bytes(), &mut out);
            match &budget.phase {
                None => out.push(0),
                Some(phase) => {
                    out.push(1);
                    pack_bytes(phase.as_bytes(), &mut out);
                }
            }
        }
    }
    out.into_boxed_slice()
}

fn pack_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    leb128(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads back what [`pack_body`] wrote; `None` on malformed or
/// trailing bytes. Never panics, and every count is bounded by the
/// bytes left (each counted item takes at least one), so a corrupt
/// buffer cannot request a huge allocation.
fn unpack_body(bytes: &[u8]) -> Option<CertificateBody> {
    let mut r = Unpacker(bytes);
    let body = match r.byte()? {
        CHASE_TRACE => {
            let pattern_at = r.index()?;
            let steps = (0..r.count()?)
                .map(|_| {
                    Some(ChaseStep {
                        constraint: r.index()?,
                        a: r.index()?,
                        b: r.index()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            if pattern_at > steps.len() {
                return None;
            }
            CertificateBody::Implied(ImpliedCert::ChaseReplay(ChaseTrace { steps, pattern_at }))
        }
        WORD_REWRITE => {
            let start = r.word()?;
            let steps = (0..r.count()?)
                .map(|_| {
                    Some(RewriteStep {
                        rule: r.index()?,
                        result: r.word()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            CertificateBody::Implied(ImpliedCert::WordRewrite { start, steps })
        }
        COUNTERMODEL => {
            let nodes = r.count()?;
            let root = r.index()?;
            if root >= nodes {
                return None;
            }
            let mut graph = Graph::with_capacity(nodes);
            for _ in 1..nodes {
                graph.add_node();
            }
            graph.set_root(NodeId::from_index(root));
            for from in 0..nodes {
                for _ in 0..r.count()? {
                    let label = r.label()?;
                    let to = r.index()?;
                    if to >= nodes {
                        return None;
                    }
                    graph.add_edge(NodeId::from_index(from), label, NodeId::from_index(to));
                }
            }
            CertificateBody::NotImplied(CounterModelCert { graph })
        }
        BUDGET => {
            let reason = r.string()?;
            let phase = match r.byte()? {
                0 => None,
                1 => Some(r.string()?),
                _ => return None,
            };
            CertificateBody::Unknown(BudgetCert { reason, phase })
        }
        _ => return None,
    };
    r.0.is_empty().then_some(body)
}

/// A cursor over a packed certificate body.
struct Unpacker<'a>(&'a [u8]);

impl Unpacker<'_> {
    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }

    /// An unsigned LEB128 integer; `None` if it is cut off or overflows.
    fn int(&mut self) -> Option<u64> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let part = u64::from(b & 0x7f);
            if shift == 63 && part > 1 {
                return None;
            }
            n |= part << shift;
            if b & 0x80 == 0 {
                return Some(n);
            }
        }
        None
    }

    fn index(&mut self) -> Option<usize> {
        usize::try_from(self.int()?).ok()
    }

    /// The length of a sequence whose items take a byte or more each.
    fn count(&mut self) -> Option<usize> {
        self.index().filter(|&n| n <= self.0.len())
    }

    fn label(&mut self) -> Option<Label> {
        let n = u32::try_from(self.int()?).ok()?;
        Some(Label::from_index(n as usize))
    }

    fn word(&mut self) -> Option<Vec<Label>> {
        (0..self.count()?).map(|_| self.label()).collect()
    }

    fn string(&mut self) -> Option<String> {
        let n = self.count()?;
        let (text, rest) = self.0.split_at(n);
        self.0 = rest;
        String::from_utf8(text.to_vec()).ok()
    }
}

struct Slot {
    key: StoredKey,
    entry: PackedEntry,
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
    /// recency on hit. Returns the entry unpacked from its slot (entries
    /// stay owned by the cache).
    ///
    /// Defensive against torn state: a mapped index whose slot is dead,
    /// whose slot stores a *different* key than the map said (the
    /// canonical-key half of the hit-validator), or whose packed entry
    /// does not unpack, is treated as a miss — the mapping and any slot
    /// behind it are dropped and a
    /// [`CacheStats::validation_evictions`] is counted — rather than
    /// served or panicked on.
    pub fn lookup(&mut self, key: &QueryKey) -> Option<CachedEntry> {
        encode_key(key, &mut self.scratch);
        let idx = match self.map.get(&self.scratch[..]) {
            Some(&idx) => idx,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        let unpacked = self
            .slots
            .get(idx)
            .and_then(Option::as_ref)
            .filter(|slot| slot.key[..] == self.scratch[..])
            .and_then(|slot| slot.entry.unpack());
        match unpacked {
            Some(entry) => {
                self.stats.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(entry)
            }
            None => {
                // Torn map entry or undecodable slot: never serve it.
                self.remove_mapped(idx);
                self.stats.validation_evictions += 1;
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
        let removed = match self.map.get(&self.scratch[..]) {
            None => false,
            Some(&idx) => {
                self.remove_mapped(idx);
                true
            }
        };
        if removed {
            self.stats.validation_evictions += 1;
        }
        removed
    }

    /// Drops the mapping of the key in `scratch`, which points at
    /// `idx`, and frees that slot if it is live and stores this key.
    fn remove_mapped(&mut self, idx: usize) {
        self.map.remove(&self.scratch[..]);
        let owned = self
            .slots
            .get(idx)
            .and_then(Option::as_ref)
            .is_some_and(|slot| slot.key[..] == self.scratch[..]);
        if owned {
            self.unlink(idx);
            self.slots[idx] = None;
            self.free.push(idx);
        }
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
            slot.entry = PackedEntry::pack(entry);
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
            entry: PackedEntry::pack(entry),
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
    use crate::certwire::certificate_to_json;
    use pathcons_constraints::{Path, PathConstraint};
    use pathcons_core::{Answer, Evidence, Method, Outcome, Refutation};
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

    fn labels(ids: &[usize]) -> Vec<Label> {
        ids.iter().map(|&i| Label::from_index(i)).collect()
    }

    /// A graph over labels `base..base + 3` with a non-zero root and
    /// multi-byte label ids when `base` is large.
    fn graph(base: usize) -> Graph {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.set_root(a);
        g.add_edge(a, Label::from_index(base + 2), b);
        g.add_edge(a, Label::from_index(base), NodeId::from_index(0));
        g.add_edge(b, Label::from_index(base + 1), a);
        g.add_edge(b, Label::from_index(base + 1), b);
        g
    }

    fn bodies() -> Vec<CertificateBody> {
        let step = |constraint, a, b| ChaseStep { constraint, a, b };
        vec![
            CertificateBody::Implied(ImpliedCert::ChaseReplay(ChaseTrace::default())),
            CertificateBody::Implied(ImpliedCert::ChaseReplay(ChaseTrace {
                steps: vec![step(0, 1, 2), step(129, 300, 70_000), step(3, 0, 128)],
                pattern_at: 2,
            })),
            CertificateBody::Implied(ImpliedCert::WordRewrite {
                start: labels(&[0, 1]),
                steps: vec![
                    RewriteStep {
                        rule: 0,
                        result: labels(&[2]),
                    },
                    RewriteStep {
                        rule: 200,
                        result: labels(&[128, 16_384, 0]),
                    },
                    RewriteStep {
                        rule: 1,
                        result: vec![],
                    },
                ],
            }),
            CertificateBody::NotImplied(CounterModelCert {
                graph: Graph::new(),
            }),
            CertificateBody::NotImplied(CounterModelCert { graph: graph(0) }),
            CertificateBody::NotImplied(CounterModelCert { graph: graph(127) }),
            CertificateBody::Unknown(BudgetCert {
                reason: "step-budget".to_owned(),
                phase: Some("chase-rounds".to_owned()),
            }),
            CertificateBody::Unknown(BudgetCert {
                reason: "chase-budget".to_owned(),
                phase: None,
            }),
        ]
    }

    #[test]
    fn packed_bodies_unpack_to_the_same_wire_text() {
        for body in bodies() {
            let certificate = Certificate {
                snapshot: 0xfeed_f00d,
                body,
            };
            let packed = pack_body(&certificate.body);
            let unpacked = Certificate {
                snapshot: certificate.snapshot,
                body: unpack_body(&packed).expect("a packed body unpacks"),
            };
            assert_eq!(
                certificate_to_json(&unpacked).to_string(),
                certificate_to_json(&certificate).to_string()
            );
        }
    }

    #[test]
    fn cut_or_padded_bodies_do_not_unpack() {
        for body in bodies() {
            let packed = pack_body(&body);
            for len in 0..packed.len() {
                assert!(
                    unpack_body(&packed[..len]).is_none(),
                    "{body:?} cut at {len}"
                );
            }
            let mut padded = packed.to_vec();
            padded.push(0);
            assert!(
                unpack_body(&padded).is_none(),
                "{body:?} with a trailing byte"
            );
        }
        assert!(unpack_body(&[9]).is_none(), "unknown tag");
        // A count larger than the buffer is rejected before allocating.
        assert!(unpack_body(&[COUNTERMODEL, 0xff, 0xff, 0xff, 0xff, 0x0f, 0]).is_none());
    }

    /// Swaps labels 0 and 1 and fixes 2 (its own inverse).
    fn swap() -> Renaming {
        [(0, 1), (1, 0), (2, 2)]
            .into_iter()
            .map(|(a, b)| (Label::from_index(a), Label::from_index(b)))
            .collect()
    }

    /// A refuted entry whose answer holds `answer_graph` (typed when
    /// `typed`) and whose certificate holds `cert_graph`, under
    /// [`swap`].
    fn refuted(answer_graph: Graph, cert_graph: Graph, typed: bool) -> CachedEntry {
        let types = typed
            .then(|| vec![pathcons_types::TypeNodeId::from_index(0); answer_graph.node_count()]);
        CachedEntry {
            answer: Answer {
                outcome: Outcome::NotImplied(Refutation::with_countermodel(CounterModel {
                    graph: answer_graph,
                    types,
                    provenance: CounterModelProvenance::PostStarQuotient,
                })),
                method: Method::WordAutomaton,
            },
            renaming: swap(),
            certificate: Some(Certificate {
                snapshot: 7,
                body: CertificateBody::NotImplied(CounterModelCert { graph: cert_graph }),
            }),
        }
    }

    fn stored_countermodel(cache: &AnswerCache, key: &QueryKey) -> bool {
        let idx = cache.map[&stored(key)];
        let entry = &cache.slots[idx].as_ref().unwrap().entry;
        entry.answer.outcome.countermodel().is_some()
    }

    #[test]
    fn countermodels_are_stored_once_only_when_the_certificate_rebuilds_them() {
        let canonical = graph(0);
        let own = canon::rename_graph(&canonical, &swap()).unwrap();
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), refuted(own.clone(), canonical.clone(), false));
        cache.insert(key(1), refuted(own.clone(), canonical.clone(), true));
        // Mismatched: the certificate graph is the answer's unrenamed.
        cache.insert(key(2), refuted(own.clone(), own.clone(), false));
        assert!(
            !stored_countermodel(&cache, &key(0)),
            "folded into the certificate"
        );
        assert!(
            stored_countermodel(&cache, &key(1)),
            "typed keeps its graph"
        );
        assert!(
            stored_countermodel(&cache, &key(2)),
            "mismatched keeps its graph"
        );
        for (k, typed) in [(key(0), false), (key(1), true), (key(2), false)] {
            let entry = cache.lookup(&k).expect("hit");
            let cm = entry
                .answer
                .outcome
                .countermodel()
                .expect("countermodel served");
            assert!(same_graph(&cm.graph, &own), "{k:?}");
            assert_eq!(cm.types.is_some(), typed);
            assert_eq!(cm.provenance, CounterModelProvenance::PostStarQuotient);
        }
        assert_eq!(cache.stats().validation_evictions, 0);
    }

    #[test]
    fn truncated_packed_entries_miss_instead_of_panicking() {
        let canonical = graph(0);
        let own = canon::rename_graph(&canonical, &swap()).unwrap();
        let mut cache = AnswerCache::new(4);
        cache.insert(key(0), refuted(own, canonical, false));
        assert!(!stored_countermodel(&cache, &key(0)), "folded");
        cache.insert(key(1), entry());
        // Tear the slot: cut its packed certificate short (as a panic
        // mid-write could).
        let idx0 = cache.map[&stored(&key(0))];
        let slot = cache.slots[idx0].as_mut().unwrap();
        let (_, bytes) = slot.entry.certificate.as_mut().unwrap();
        *bytes = bytes[..bytes.len() / 2].into();
        assert!(
            cache.lookup(&key(0)).is_none(),
            "undecodable entry is a miss"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(stats.validation_evictions, 1);
        assert_eq!(cache.len(), 1, "the torn entry is evicted");
        assert!(cache.lookup(&key(0)).is_none());
        assert_eq!(cache.stats().validation_evictions, 1, "a plain miss now");
        // The freed slot is reusable and the other entry untouched.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(2), entry());
        assert!(cache.lookup(&key(2)).is_some());
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
