//! The canonicalizing answer cache: a bounded LRU from [`QueryKey`] to
//! solved [`Answer`]s, with hit/miss/eviction counters.
//!
//! Keys are stored once per entry, in a compact byte encoding shared by
//! the map and the LRU slot (see `encode_key`). A key names a long
//! canonical Σ by intern id: each distinct such Σ encoding is stored
//! once (see `InternedSigma`), reference-counted by the live entries
//! that carry it and dropped with the last of them, so keys over one
//! resident context's Σ share one copy of it. A short Σ stays inline.
//!
//! Entries are stored packed (see `PackedEntry`): the answer *in the
//! label space of the query that inserted it*, that query's renaming
//! into the canonical space as a sorted slice, and the certificate as
//! one LEB128 buffer. What a certificate carries is kept once, in its
//! canonical space: a refutation's countermodel is rebuilt from it on a
//! hit, and an `Implied` answer's steps (a chase trace, a word
//! derivation) are dropped, since the wire prints only the evidence
//! kind. [`AnswerCache::lookup`] unpacks a fresh [`CachedEntry`],
//! and a later alpha-variant hit composes the two renamings to map
//! evidence (countermodel graphs) into its own label space — see
//! [`crate::BatchEngine`] for the adaptation step.

use crate::canon::{self, ContextKey, QueryKey, Renaming};
use pathcons_cert::{
    BudgetCert, Certificate, CertificateBody, ChaseStep, ChaseTrace, CounterModelCert, ImpliedCert,
    RewriteStep,
};
use pathcons_constraints::{Kind, PathConstraint};
use pathcons_core::{Answer, CounterModel, CounterModelProvenance, Evidence, Outcome};
use pathcons_graph::{Graph, Label, NodeId};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
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

/// The end of the LRU list. Links are `u32` slot indices, which keeps a
/// slot small.
const NIL: u32 = u32::MAX;

/// A key as the cache stores it: its [`encode_key`] bytes in one
/// allocation, shared by the map and the LRU slot.
type StoredKey = Arc<[u8]>;

/// Σ encodings shorter than this are stored inline in their keys, not
/// interned. Interning a Σ costs about 60 bytes and one allocation
/// beyond its bytes (an `Arc` header, the id and an intern-table slot),
/// so it pays once two live keys share a Σ longer than that, as a
/// resident context's keys do. The short Σ of the wire-shaped jobs are
/// rarely shared: interning them too costs 58 bytes and one allocation
/// per entry (`tests/cache_footprint.rs`) and about 1 MiB of peak RSS
/// on servebench's `wire_mix` (EXPERIMENTS.md).
const MIN_INTERNED_SIGMA: usize = 64;

/// A canonical Σ's [`encode_sigma`] bytes, interned: one allocation
/// holding the intern id (4 bytes, little-endian) and then the bytes.
/// It hashes and compares by the bytes alone, so the intern table
/// answers a lookup by encoding. The table holds one reference and each
/// live entry one more, so the `Arc`'s strong count is the table's
/// reference count.
#[derive(Clone)]
struct InternedSigma(Arc<[u8]>);

impl InternedSigma {
    fn new(id: u32, bytes: &[u8]) -> InternedSigma {
        InternedSigma(id.to_le_bytes().iter().chain(bytes).copied().collect())
    }

    fn id(&self) -> u32 {
        u32::from_le_bytes([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    fn bytes(&self) -> &[u8] {
        &self.0[4..]
    }
}

impl Borrow<[u8]> for InternedSigma {
    fn borrow(&self) -> &[u8] {
        self.bytes()
    }
}

impl Hash for InternedSigma {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes().hash(state);
    }
}

impl PartialEq for InternedSigma {
    fn eq(&self, other: &InternedSigma) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for InternedSigma {}

/// Writes the encoding of `key`'s Σ into `out` (cleared first): `|Σ|`,
/// then each constraint (see [`encode_constraint`]). Every integer is
/// LEB128 — canonical ids are small, so most take one byte.
fn encode_sigma(key: &QueryKey, out: &mut Vec<u8>) {
    out.clear();
    leb128(out, key.sigma.len() as u64);
    for c in &key.sigma {
        encode_constraint(c, out);
    }
}

/// Writes the stored encoding of `key` into `out` (cleared first).
/// `sigma` is the intern id of the Σ encoded as `sigma_bytes`, or `None`
/// when the Σ is stored inline.
///
/// Layout: `id + 1` for an interned Σ, or `0` and `sigma_bytes`; then a
/// context tag byte (followed, for schema contexts, by the 8-byte
/// little-endian fingerprint), the revision, and φ (see
/// [`encode_constraint`]). Every integer but the fingerprint is LEB128.
/// Each field is fixed-width or length-prefixed, and live entries with
/// distinct interned Σ encodings have distinct ids, so the encoding is
/// injective: equal bytes mean equal keys, and a hit still proves
/// alpha-equivalence.
fn encode_key(key: &QueryKey, sigma: Option<u32>, sigma_bytes: &[u8], out: &mut Vec<u8>) {
    out.clear();
    match sigma {
        Some(id) => leb128(out, u64::from(id) + 1),
        None => {
            out.push(0);
            out.extend_from_slice(sigma_bytes);
        }
    }
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
    encode_constraint(&key.phi, out);
}

/// A constraint as one LEB128 integer holding its prefix's length and
/// its kind (`2·|prefix| + kind`, so a word constraint's takes one byte),
/// the prefix's label ids, then lhs and rhs as words.
fn encode_constraint(c: &PathConstraint, out: &mut Vec<u8>) {
    let kind = match c.kind() {
        Kind::Forward => 0,
        Kind::Backward => 1,
    };
    leb128(out, 2 * c.prefix().len() as u64 + kind);
    for label in c.prefix().labels() {
        leb128(out, label.index() as u64);
    }
    for path in [c.lhs(), c.rhs()] {
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
/// An `Implied` answer drops its steps (`drop_steps`): they are in the
/// inserting query's Σ order and labels, and the certificate holds them
/// in canonical space. Every other answer is stored whole.
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
        if let Outcome::Implied(evidence) = &mut answer.outcome {
            drop_steps(evidence);
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

/// Empties the steps of an `Implied` answer's evidence, wrapped or not:
/// a chase trace or a word derivation.
fn drop_steps(evidence: &mut Evidence) {
    match evidence {
        Evidence::ChaseForced { trace, .. } => *trace = ChaseTrace::default(),
        Evidence::WordDerivation(derivation) => *derivation = None,
        Evidence::UntypedImplication(inner) | Evidence::LocalExtentReduction(inner) => {
            drop_steps(inner)
        }
        _ => {}
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
/// - chase trace: the step count, then each step's
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
            let steps = (0..r.count()?)
                .map(|_| {
                    Some(ChaseStep {
                        constraint: r.index()?,
                        a: r.index()?,
                        b: r.index()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            CertificateBody::Implied(ImpliedCert::ChaseReplay(ChaseTrace { steps }))
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
    /// The key's Σ, when interned; holding it keeps it interned.
    sigma: Option<InternedSigma>,
    entry: PackedEntry,
    prev: u32,
    next: u32,
}

/// A bounded LRU cache over canonical query keys.
///
/// Capacity 0 disables caching: every lookup misses and inserts are
/// dropped (counters still run, so a disabled cache is observable).
pub struct AnswerCache {
    capacity: usize,
    map: HashMap<StoredKey, usize>,
    slots: Vec<Option<Slot>>,
    /// The Σ of every live entry, once each.
    sigmas: HashSet<InternedSigma>,
    /// Intern ids whose Σ was dropped, for reuse.
    free_ids: Vec<u32>,
    next_id: u32,
    free: Vec<usize>,
    head: u32,
    tail: u32,
    stats: CacheStats,
    /// The encodings of the key being looked up and of its Σ, reused
    /// across calls so lookups allocate nothing.
    scratch: Vec<u8>,
    sigma_scratch: Vec<u8>,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            sigmas: HashSet::new(),
            free_ids: Vec::new(),
            next_id: 0,
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
            scratch: Vec::new(),
            sigma_scratch: Vec::new(),
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

    /// Number of distinct Σ encodings interned, one per Σ that some
    /// live entry's key carries.
    pub fn interned_sigmas(&self) -> usize {
        self.sigmas.len()
    }

    /// Encodes `key`'s Σ into `sigma_scratch` and, unless it is long
    /// enough to intern but not interned, the stored key into `scratch`.
    /// `false` means no live entry carries this Σ, so none has this key.
    fn encode(&mut self, key: &QueryKey) -> bool {
        encode_sigma(key, &mut self.sigma_scratch);
        let sigma = if self.sigma_scratch.len() < MIN_INTERNED_SIGMA {
            None
        } else {
            match self.sigmas.get(&self.sigma_scratch[..]) {
                Some(sigma) => Some(sigma.id()),
                None => return false,
            }
        };
        encode_key(key, sigma, &self.sigma_scratch, &mut self.scratch);
        true
    }

    /// Whether the live slot `idx` stores the key encoded in `scratch`
    /// and `sigma_scratch`, compared byte for byte.
    fn slot_holds_scratch(&self, idx: usize) -> bool {
        self.slots
            .get(idx)
            .and_then(Option::as_ref)
            .is_some_and(|slot| {
                slot.key[..] == self.scratch[..]
                    && slot
                        .sigma
                        .as_ref()
                        .map_or(true, |sigma| sigma.bytes() == &self.sigma_scratch[..])
            })
    }

    /// Looks up a canonical key, counting a hit or miss and refreshing
    /// recency on hit. Returns the entry unpacked from its slot (entries
    /// stay owned by the cache).
    ///
    /// Defensive against torn state: a mapped index whose slot is dead,
    /// whose slot stores a *different* key or Σ than the map said (the
    /// canonical-key half of the hit-validator), or whose packed entry
    /// does not unpack, is treated as a miss — the mapping and any slot
    /// behind it are dropped and a
    /// [`CacheStats::validation_evictions`] is counted — rather than
    /// served or panicked on.
    pub fn lookup(&mut self, key: &QueryKey) -> Option<CachedEntry> {
        let idx = match self.encode(key).then(|| self.map.get(&self.scratch[..])) {
            Some(Some(&idx)) => idx,
            _ => {
                self.stats.misses += 1;
                return None;
            }
        };
        let unpacked = if self.slot_holds_scratch(idx) {
            self.slots[idx]
                .as_ref()
                .and_then(|slot| slot.entry.unpack())
        } else {
            None
        };
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
        let removed = match self.encode(key).then(|| self.map.get(&self.scratch[..])) {
            Some(Some(&idx)) => {
                self.remove_mapped(idx);
                true
            }
            _ => false,
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
        if self.slot_holds_scratch(idx) {
            self.unlink(idx);
            let slot = self.slots[idx].take().expect("owned slot is live");
            self.release(idx, slot);
        }
    }

    /// Frees slot `idx`, whose unlinked `slot` was taken out of it and
    /// unmapped, dropping its Σ from the intern table if no other entry
    /// carries it.
    fn release(&mut self, idx: usize, slot: Slot) {
        // The table's reference and this slot's are the last two.
        if let Some(sigma) = slot.sigma.as_ref().filter(|s| Arc::strong_count(&s.0) == 2) {
            self.sigmas.remove(sigma.bytes());
            self.free_ids.push(sigma.id());
        }
        self.free.push(idx);
    }

    /// The interned copy of the Σ encoded in `sigma_scratch`, interning
    /// it under a fresh id if no entry carries it yet.
    fn intern_scratch(&mut self) -> InternedSigma {
        if let Some(sigma) = self.sigmas.get(&self.sigma_scratch[..]) {
            return sigma.clone();
        }
        let id = self.free_ids.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        });
        let sigma = InternedSigma::new(id, &self.sigma_scratch);
        self.sigmas.insert(sigma.clone());
        sigma
    }

    /// Stores an entry, evicting the least-recently-used one if full.
    pub fn insert(&mut self, key: QueryKey, entry: CachedEntry) {
        if self.capacity == 0 {
            return;
        }
        self.stats.insertions += 1;
        // Intern before evicting, so an evicted entry with the same Σ
        // cannot drop it from the table under the id encoded here.
        encode_sigma(&key, &mut self.sigma_scratch);
        let sigma = (self.sigma_scratch.len() >= MIN_INTERNED_SIGMA).then(|| self.intern_scratch());
        encode_key(
            &key,
            sigma.as_ref().map(InternedSigma::id),
            &self.sigma_scratch,
            &mut self.scratch,
        );
        if let Some(idx) = self.map.get(&self.scratch[..]).copied() {
            // Overwrite in place (a concurrent miss may have re-solved).
            let slot = self.slots[idx].as_mut().expect("mapped slot is live");
            slot.entry = PackedEntry::pack(entry);
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            debug_assert_ne!(self.tail, NIL);
            let lru = self.tail as usize;
            self.unlink(lru);
            let slot = self.slots[lru].take().expect("tail slot is live");
            self.map.remove(&slot.key);
            self.release(lru, slot);
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
            sigma,
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
        self.sigmas.clear();
        self.free_ids.clear();
        self.next_id = 0;
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
        let slot = self.slots[idx].as_mut().expect("unlink of live slot");
        let (prev, next) = (slot.prev, slot.next);
        slot.prev = NIL;
        slot.next = NIL;
        match prev {
            NIL => {
                if self.head == idx as u32 {
                    self.head = next;
                }
            }
            p => self.slots[p as usize].as_mut().expect("prev is live").next = next,
        }
        match next {
            NIL => {
                if self.tail == idx as u32 {
                    self.tail = prev;
                }
            }
            n => self.slots[n as usize].as_mut().expect("next is live").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        let link = u32::try_from(idx)
            .ok()
            .filter(|&l| l != NIL)
            .expect("slot index fits a link");
        let old_head = self.head;
        let slot = self.slots[idx].as_mut().expect("push of live slot");
        slot.prev = NIL;
        slot.next = old_head;
        if old_head != NIL {
            self.slots[old_head as usize]
                .as_mut()
                .expect("head is live")
                .prev = link;
        }
        self.head = link;
        if self.tail == NIL {
            self.tail = link;
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

    /// The stored key of `key`, with its Σ inline when short and under
    /// intern id 0 otherwise (the id the first Σ interned gets).
    fn stored(key: &QueryKey) -> StoredKey {
        let mut sigma = Vec::new();
        encode_sigma(key, &mut sigma);
        let id = (sigma.len() >= MIN_INTERNED_SIGMA).then_some(0);
        let mut out = Vec::new();
        encode_key(key, id, &sigma, &mut out);
        out.into()
    }

    /// What a cache compares to match `key`: its Σ's encoding and its
    /// stored key.
    fn identity(key: &QueryKey) -> (Vec<u8>, StoredKey) {
        let mut sigma = Vec::new();
        encode_sigma(key, &mut sigma);
        (sigma, stored(key))
    }

    fn entry() -> CachedEntry {
        CachedEntry {
            answer: Answer {
                outcome: Outcome::Implied(Evidence::WordDerivation(None)),
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
                assert_ne!(identity(a), identity(b), "{a:?} vs {b:?}");
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

    /// `key(n)` over the Σ `{s·i → s : i < 16}`, long enough to intern.
    fn key_over(n: usize, s: usize) -> QueryKey {
        let path = |ids: &[usize]| Path::from_labels(ids.iter().map(|&i| Label::from_index(i)));
        QueryKey {
            sigma: (0..16)
                .map(|i| PathConstraint::word(path(&[s, i]), path(&[s])))
                .collect(),
            ..key(n)
        }
    }

    #[test]
    fn short_sigmas_are_stored_inline() {
        let mut cache = AnswerCache::new(4);
        let mut short = key(0);
        short.sigma = key_over(0, 100).sigma[..2].to_vec();
        cache.insert(short.clone(), entry());
        cache.insert(key(1), entry());
        assert_eq!(cache.interned_sigmas(), 0);
        assert!(cache.lookup(&short).is_some());
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key_over(2, 100), entry());
        assert_eq!(cache.interned_sigmas(), 1);
        assert!(cache.lookup(&key_over(2, 100)).is_some());
    }

    #[test]
    fn each_sigma_is_interned_once_and_dropped_with_its_last_entry() {
        let mut cache = AnswerCache::new(3);
        cache.insert(key_over(0, 100), entry());
        cache.insert(key_over(1, 100), entry());
        assert_eq!(cache.interned_sigmas(), 1, "one Σ shared by two keys");
        cache.insert(key_over(2, 200), entry());
        assert_eq!(cache.interned_sigmas(), 2);
        // Evicting one of Σ_100's two entries keeps it interned.
        cache.insert(key_over(3, 300), entry());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.interned_sigmas(), 3);
        assert!(cache.lookup(&key_over(1, 100)).is_some());
        // Its last entry goes, and the Σ with it.
        assert!(cache.evict_invalid(&key_over(1, 100)));
        assert_eq!(cache.interned_sigmas(), 2);
        // A Σ no entry carries is a plain miss, and its freed id is
        // reused without confusing the keys still stored.
        assert!(cache.lookup(&key_over(1, 100)).is_none());
        cache.insert(key_over(4, 400), entry());
        assert!(cache.lookup(&key_over(4, 400)).is_some());
        assert!(cache.lookup(&key_over(2, 200)).is_some());
        assert!(cache.lookup(&key_over(3, 300)).is_some());
        assert!(cache.lookup(&key_over(4, 100)).is_none());
        for k in [key_over(2, 200), key_over(3, 300), key_over(4, 400)] {
            assert!(cache.evict_invalid(&k));
        }
        assert_eq!(cache.interned_sigmas(), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().validation_evictions, 4);
    }

    #[test]
    fn a_slot_with_another_sigma_under_the_same_key_bytes_misses() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key_over(0, 100), entry());
        // Tear the slot: same stored key bytes, another Σ.
        let idx = cache.map[&stored(&key_over(0, 100))];
        let mut other = Vec::new();
        encode_sigma(&key_over(0, 200), &mut other);
        cache.slots[idx].as_mut().unwrap().sigma = Some(InternedSigma::new(0, &other));
        assert!(cache.lookup(&key_over(0, 100)).is_none());
        assert_eq!(cache.stats().validation_evictions, 1);
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
