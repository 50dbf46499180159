//! Canonical query keys — the normal form the answer cache is keyed by.
//!
//! Implication `Σ ⊨ φ` is invariant under bijective renaming of labels:
//! a structure witnesses (or refutes) the renamed query iff its renamed
//! copy witnesses the original. The cache exploits this by keying
//! entries on an *alpha-renamed normal form* of `(context, Σ, φ)`:
//!
//! 1. Σ is de-duplicated (it denotes a set of constraints, not a list).
//! 2. Labels are renamed to `0, 1, 2, …` — first by order of occurrence
//!    in φ, then constraint by constraint, greedily choosing at each
//!    step the constraint whose renamed form is smallest.
//! 3. The renamed Σ is sorted.
//!
//! The key **is** the renamed query, so a collision between two queries
//! proves they are alpha-equivalent (the renamings are injective by
//! construction) — cache hits are sound by construction, never by
//! hash-fingerprint luck. The converse is best-effort: symmetric ties
//! in step 2 are broken by input order, so some exotic alpha-variants
//! hash apart and merely miss. That costs a re-solve, never an answer.
//!
//! Schema contexts (`M`, `M⁺`, `M⁺_f`) pin label identities to the
//! schema, so their queries keep their labels (identity renaming) and
//! the key carries a structural fingerprint of the schema instead.

use pathcons_constraints::{Kind, Path, PathConstraint};
use pathcons_core::DataContext;
use pathcons_graph::{Graph, Label};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::fmt::{self, Write as _};

/// An injective label renaming, as a total map on the labels it covers.
pub type Renaming = BTreeMap<Label, Label>;

/// The context part of a cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ContextKey {
    /// All semistructured structures (alpha-renaming applies).
    Semistructured,
    /// Model `M` over a schema with the given structural fingerprint.
    M(u64),
    /// `M⁺` over a fingerprinted schema.
    MPlus(u64),
    /// `M⁺_f` over a fingerprinted schema.
    MPlusFinite(u64),
}

impl ContextKey {
    /// The key of a solver context.
    pub fn of(context: &DataContext) -> ContextKey {
        match context {
            DataContext::Semistructured => ContextKey::Semistructured,
            DataContext::M(ctx) => ContextKey::M(fnv_debug(&ctx.schema)),
            DataContext::MPlus(ctx) => ContextKey::MPlus(fnv_debug(&ctx.schema)),
            DataContext::MPlusFinite(ctx) => ContextKey::MPlusFinite(fnv_debug(&ctx.schema)),
        }
    }

    /// Whether queries in this context may be alpha-renamed (labels not
    /// pinned by a schema).
    pub fn renames_labels(&self) -> bool {
        matches!(self, ContextKey::Semistructured)
    }
}

/// FNV-1a 64 as a streaming [`fmt::Write`] sink: hashes a value's
/// `Debug` rendering as it is written, without building the `String`.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a over a value's structural debug rendering.
///
/// Schema fingerprints only separate *different* schemas into
/// different cache keys; the constraints themselves are stored
/// structurally, so a (vanishingly unlikely) fingerprint collision
/// between two distinct schemas could at worst conflate their contexts
/// — acceptable for a cache whose verify mode re-checks, and irrelevant
/// for the single-schema batches the service front-end produces.
fn fnv_debug(value: &dyn fmt::Debug) -> u64 {
    let mut sink = Fnv(0xcbf2_9ce4_8422_2325);
    // The sink never fails, and the workspace's Debug impls don't either.
    let _ = write!(sink, "{value:?}");
    sink.0
}

/// A stable fingerprint of a canonical query — the *snapshot id*
/// certificates are bound to.
///
/// Computed over the structural debug rendering of the key with the
/// same FNV-1a used for schema fingerprints. Canonicalization renames
/// labels to first-occurrence order anchored at φ, so alpha-variants of
/// a query share a snapshot id across processes — an offline checker
/// that re-canonicalizes a job recovers the id the engine issued the
/// certificate under.
///
/// The [`QueryKey::revision`] field is excluded: it scopes *cache
/// reuse*, not query identity. The same `(context, Σ, φ)` asked at two
/// store revisions is one logical query with one certificate, and an
/// offline auditor re-canonicalizing the job text (which records no
/// revision) must recover the id the engine issued.
pub fn snapshot_id(key: &QueryKey) -> u64 {
    fnv_debug(&Revisionless(key))
}

/// Renders a key exactly as its derived `Debug` does with `revision`
/// zeroed — the rendering snapshot ids have always hashed.
struct Revisionless<'a>(&'a QueryKey);

impl fmt::Debug for Revisionless<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryKey")
            .field("context", &self.0.context)
            .field("sigma", &self.0.sigma)
            .field("phi", &self.0.phi)
            .field("revision", &0u64)
            .finish()
    }
}

/// The cache key: the alpha-renamed normal form itself.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Context discriminant (plus schema fingerprint where applicable).
    pub context: ContextKey,
    /// Renamed, de-duplicated, sorted Σ.
    pub sigma: Vec<PathConstraint>,
    /// Renamed φ.
    pub phi: PathConstraint,
    /// Revision of the resident context the query ran against (`0` for
    /// queries outside a mutable store). Part of the key's equality, so
    /// answers cached under an earlier revision of a mutated context
    /// can never be served to a later one — per-context invalidation by
    /// construction, without flushing unrelated entries. Excluded from
    /// [`snapshot_id`]: certificates name the query, not the revision.
    pub revision: u64,
}

/// A canonicalized query: the key plus the renaming that produced it.
#[derive(Clone, Debug)]
pub struct CanonicalQuery {
    /// The cache key.
    pub key: QueryKey,
    /// Query labels → canonical labels (identity for schema contexts).
    pub renaming: Renaming,
}

/// Computes the canonical form of a query.
///
/// The greedy step compares every remaining constraint's renamed form
/// without building it: each candidate's sort key is written into one
/// reused buffer (see `Shapes`), and only the winner is renamed into
/// a [`PathConstraint`].
pub fn canonicalize(
    context: &DataContext,
    sigma: &[PathConstraint],
    phi: &PathConstraint,
) -> CanonicalQuery {
    let context_key = ContextKey::of(context);
    if !context_key.renames_labels() {
        return identity_canonical(context_key, sigma, phi);
    }
    let uniq = distinct(sigma);

    // Alpha-renaming, anchored at φ: φ's labels get the smallest ids in
    // order of occurrence, then constraints are placed greedily.
    let mut renaming = Renaming::new();
    let mut next = 0usize;
    assign_first_occurrence(&mut renaming, &mut next, phi);

    // Presort by each constraint's *self-canonical* shape (renamed in
    // isolation), which is independent of the caller's label names and
    // of Σ's order — so greedy tie-breaks don't depend on either. The
    // sort is stable: equal shapes keep their input order.
    let mut shapes = Shapes::new(&uniq);
    let mut remaining: Vec<usize> = (0..uniq.len()).collect();
    remaining.sort_by(|&a, &b| shapes.cmp_keys(a, b));
    for &i in &remaining {
        shapes.write(i, uniq[i], &renaming);
    }

    let mut renamed_sigma: Vec<PathConstraint> = Vec::with_capacity(uniq.len());
    while !remaining.is_empty() {
        if !remaining.iter().any(|&i| shapes.open[i]) {
            // Every remaining key is final (all its labels committed),
            // so taking the first minimum over and over is exactly a
            // stable sort by key.
            remaining.sort_by(|&a, &b| shapes.cmp_keys(a, b));
            for &i in &remaining {
                let Some(rc) = rename_constraint(uniq[i], &renaming) else {
                    return identity_canonical(context_key, sigma, phi);
                };
                renamed_sigma.push(rc);
            }
            break;
        }
        // The first strict minimum wins, as in input-order tie-breaking.
        let mut best = 0;
        for pos in 1..remaining.len() {
            if shapes.cmp_keys(remaining[pos], remaining[best]) == Ordering::Less {
                best = pos;
            }
        }
        let winner = uniq[remaining.remove(best)];
        let assigned = next;
        assign_first_occurrence(&mut renaming, &mut next, winner);
        // `assign_first_occurrence` just covered every label of the
        // winner, so the rename is total. If that invariant is ever
        // broken, degrade to the identity form instead of aborting —
        // the query stays solvable and cacheable, just without
        // alpha-variant sharing.
        let Some(rc) = rename_constraint(winner, &renaming) else {
            return identity_canonical(context_key, sigma, phi);
        };
        renamed_sigma.push(rc);
        if next != assigned {
            // New committed ids change the keys of candidates that
            // still had provisional labels; closed keys never change.
            for &i in &remaining {
                if shapes.open[i] {
                    shapes.write(i, uniq[i], &renaming);
                }
            }
        }
    }
    renamed_sigma.sort_by(cmp_constraints);
    renamed_sigma.dedup();

    let Some(phi) = rename_constraint(phi, &renaming) else {
        // Unreachable (φ's labels were assigned first), but never abort.
        return identity_canonical(context_key, sigma, phi);
    };
    CanonicalQuery {
        key: QueryKey {
            context: context_key,
            sigma: renamed_sigma,
            phi,
            revision: 0,
        },
        renaming,
    }
}

/// Σ without duplicates, keeping first occurrences.
fn distinct(sigma: &[PathConstraint]) -> Vec<&PathConstraint> {
    let mut seen: HashSet<&PathConstraint> = HashSet::with_capacity(sigma.len());
    sigma.iter().filter(|c| seen.insert(*c)).collect()
}

/// Offset of provisional ids: every committed id is a `u32`, so a
/// provisional id `PROVISIONAL + rank` sorts above all of them and in
/// rank order among themselves — the same order as the `next + rank`
/// ids the candidate would receive if committed now. Keeping the offset
/// fixed (instead of `next`) means a candidate's key changes only when
/// one of its own labels is committed.
const PROVISIONAL: u64 = 1 << 32;

/// The candidates' renamed sort keys, `(kind, prefix, lhs, rhs)`,
/// stored flat in one buffer: each candidate owns a fixed region of
/// `ids` holding its prefix, lhs and rhs label ids back to back.
struct Shapes {
    ids: Vec<u64>,
    /// Per candidate: kind rank, region start, and the three lengths.
    spans: Vec<(u8, usize, [usize; 3])>,
    /// Per candidate: whether its key still holds a provisional id.
    open: Vec<bool>,
    /// Scratch: the candidate's uncommitted labels in first-occurrence
    /// order (a label's rank is its position).
    fresh: Vec<Label>,
}

impl Shapes {
    /// Every constraint's self-canonical key: its labels renamed in
    /// isolation, all provisional.
    fn new(constraints: &[&PathConstraint]) -> Shapes {
        let mut shapes = Shapes {
            ids: Vec::new(),
            spans: Vec::with_capacity(constraints.len()),
            open: vec![false; constraints.len()],
            fresh: Vec::new(),
        };
        for c in constraints {
            let lens = [c.prefix().len(), c.lhs().len(), c.rhs().len()];
            shapes
                .spans
                .push((kind_rank(c.kind()), shapes.ids.len(), lens));
            shapes
                .ids
                .resize(shapes.ids.len() + lens.iter().sum::<usize>(), 0);
        }
        for (i, c) in constraints.iter().enumerate() {
            shapes.write(i, c, &Renaming::new());
        }
        shapes
    }

    /// Rewrites candidate `i`'s key (`c` is its constraint) under
    /// `renaming`: committed labels keep their ids, the others get
    /// provisional ids by first occurrence within `c`.
    fn write(&mut self, i: usize, c: &PathConstraint, renaming: &Renaming) {
        let (_, start, lens) = self.spans[i];
        let region = &mut self.ids[start..start + lens.iter().sum::<usize>()];
        self.fresh.clear();
        for (slot, label) in region.iter_mut().zip(constraint_labels(c)) {
            *slot = match renaming.get(&label) {
                Some(id) => id.index() as u64,
                None => {
                    let rank = match self.fresh.iter().position(|&l| l == label) {
                        Some(rank) => rank,
                        None => {
                            self.fresh.push(label);
                            self.fresh.len() - 1
                        }
                    };
                    PROVISIONAL + rank as u64
                }
            };
        }
        self.open[i] = !self.fresh.is_empty();
    }

    /// Candidate `i`'s key as a tuple ordered like [`cmp_constraints`].
    fn key(&self, i: usize) -> (u8, &[u64], &[u64], &[u64]) {
        let (kind, start, [prefix, lhs, rhs]) = self.spans[i];
        let ids = &self.ids[start..start + prefix + lhs + rhs];
        let (prefix_ids, rest) = ids.split_at(prefix);
        let (lhs_ids, rhs_ids) = rest.split_at(lhs);
        (kind, prefix_ids, lhs_ids, rhs_ids)
    }

    fn cmp_keys(&self, a: usize, b: usize) -> Ordering {
        self.key(a).cmp(&self.key(b))
    }
}

/// The identity-renamed canonical form: Σ de-duplicated and sorted,
/// labels kept as-is. The normal form for schema contexts (labels are
/// pinned by the schema), and the never-abort fallback should the
/// alpha-renaming pass ever fail to cover a label.
fn identity_canonical(
    context_key: ContextKey,
    sigma: &[PathConstraint],
    phi: &PathConstraint,
) -> CanonicalQuery {
    let uniq = distinct(sigma);
    let mut renaming = Renaming::new();
    for c in uniq.iter().copied().chain(std::iter::once(phi)) {
        for l in constraint_labels(c) {
            renaming.insert(l, l);
        }
    }
    let mut sigma: Vec<PathConstraint> = uniq.into_iter().cloned().collect();
    sigma.sort_by(cmp_constraints);
    CanonicalQuery {
        key: QueryKey {
            context: context_key,
            sigma,
            phi: phi.clone(),
            revision: 0,
        },
        renaming,
    }
}

/// All labels of a constraint, in scan order (prefix, lhs, rhs).
fn constraint_labels(c: &PathConstraint) -> impl Iterator<Item = Label> + '_ {
    c.prefix()
        .labels()
        .iter()
        .chain(c.lhs().labels())
        .chain(c.rhs().labels())
        .copied()
}

/// Extends `map` with canonical ids for `c`'s yet-unmapped labels, in
/// first-occurrence order.
fn assign_first_occurrence(map: &mut Renaming, next: &mut usize, c: &PathConstraint) {
    for l in constraint_labels(c) {
        if let std::collections::btree_map::Entry::Vacant(slot) = map.entry(l) {
            slot.insert(Label::from_index(*next));
            *next += 1;
        }
    }
}

/// Applies a renaming to a constraint; `None` if a label is uncovered.
pub fn rename_constraint(c: &PathConstraint, map: &Renaming) -> Option<PathConstraint> {
    let prefix = rename_path(c.prefix(), map)?;
    let lhs = rename_path(c.lhs(), map)?;
    let rhs = rename_path(c.rhs(), map)?;
    Some(match c.kind() {
        Kind::Forward => PathConstraint::forward(prefix, lhs, rhs),
        Kind::Backward => PathConstraint::backward(prefix, lhs, rhs),
    })
}

fn rename_path(path: &Path, map: &Renaming) -> Option<Path> {
    let labels: Option<Vec<Label>> = path.labels().iter().map(|l| map.get(l).copied()).collect();
    Some(Path::from_labels(labels?))
}

/// Applies a renaming to a graph's edge labels, preserving nodes and
/// root; `None` if an edge label is uncovered.
pub fn rename_graph(graph: &Graph, map: &Renaming) -> Option<Graph> {
    let mut out = Graph::with_capacity(graph.node_count());
    for _ in 1..graph.node_count() {
        out.add_node();
    }
    out.set_root(graph.root());
    for (from, label, to) in graph.edges() {
        out.add_edge(from, *map.get(&label)?, to);
    }
    Some(out)
}

/// Inverts an injective renaming.
pub fn invert(map: &Renaming) -> Renaming {
    map.iter().map(|(k, v)| (*v, *k)).collect()
}

fn kind_rank(kind: Kind) -> u8 {
    match kind {
        Kind::Forward => 0,
        Kind::Backward => 1,
    }
}

/// Total order on constraints used for canonical sorting: kind, then
/// the label ids of prefix, lhs and rhs, each compared
/// lexicographically.
fn cmp_constraints(a: &PathConstraint, b: &PathConstraint) -> Ordering {
    fn key(c: &PathConstraint) -> (u8, &[Label], &[Label], &[Label]) {
        (
            kind_rank(c.kind()),
            c.prefix().labels(),
            c.lhs().labels(),
            c.rhs().labels(),
        )
    }
    key(a).cmp(&key(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_constraints::parse_constraints;
    use pathcons_graph::LabelInterner;
    use proptest::prelude::*;

    fn canon(sigma_text: &str, phi_text: &str) -> QueryKey {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints(sigma_text, &mut labels).unwrap();
        let phi = PathConstraint::parse(phi_text, &mut labels).unwrap();
        canonicalize(&DataContext::Semistructured, &sigma, &phi).key
    }

    #[test]
    fn renamed_variants_share_a_key() {
        // Same query up to label names and Σ order.
        let a = canon("a -> b\nb -> c", "a -> c");
        let b = canon("y -> z\nx -> y", "x -> z");
        assert_eq!(a, b);
    }

    #[test]
    fn duplicates_and_order_are_normalized() {
        let a = canon("a -> b\na -> b\nb -> a", "a -> a");
        let b = canon("b -> a\na -> b", "a -> a");
        assert_eq!(a, b);
    }

    #[test]
    fn different_shapes_get_different_keys() {
        let a = canon("a -> b", "b -> a");
        let b = canon("a -> b", "a -> b");
        assert_ne!(a, b);
        let fwd = canon("p: a -> b", "a -> b");
        let bwd = canon("p: a <- b", "a -> b");
        assert_ne!(fwd, bwd);
    }

    #[test]
    fn renaming_is_injective_and_total() {
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("q: a.b -> c\nc -> a", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> c", &mut labels).unwrap();
        let canon = canonicalize(&DataContext::Semistructured, &sigma, &phi);
        let images: HashSet<Label> = canon.renaming.values().copied().collect();
        assert_eq!(images.len(), canon.renaming.len(), "injective");
        assert_eq!(canon.renaming.len(), 4, "covers a, b, c, q");
    }

    #[test]
    fn phi_anchors_the_smallest_ids() {
        let mut labels = LabelInterner::new();
        let z = labels.intern("z");
        let sigma = parse_constraints("a -> b", &mut labels).unwrap();
        let phi = PathConstraint::parse("z -> z", &mut labels).unwrap();
        let canon = canonicalize(&DataContext::Semistructured, &sigma, &phi);
        assert_eq!(canon.renaming[&z], Label::from_index(0));
    }

    #[test]
    fn snapshot_ids_track_alpha_equivalence() {
        let a = canon("a -> b\nb -> c", "a -> c");
        let b = canon("y -> z\nx -> y", "x -> z");
        assert_eq!(snapshot_id(&a), snapshot_id(&b), "alpha-variants share");
        let c = canon("a -> b", "a -> b");
        assert_ne!(snapshot_id(&a), snapshot_id(&c), "different queries differ");
    }

    #[test]
    fn revision_scopes_keys_but_not_snapshot_ids() {
        let base = canon("a -> b\nb -> c", "a -> c");
        let bumped = QueryKey {
            revision: 3,
            ..base.clone()
        };
        // Different revisions are different cache keys…
        assert_ne!(base, bumped);
        // …but one logical query: certificates bind to one snapshot id.
        assert_eq!(snapshot_id(&base), snapshot_id(&bumped));
    }

    #[test]
    fn graph_renaming_round_trips() {
        let mut g = Graph::new();
        let n = g.add_node();
        let (a, b) = (Label::from_index(0), Label::from_index(1));
        g.add_edge(g.root(), a, n);
        g.add_edge(n, b, g.root());
        let map: Renaming = [(a, b), (b, a)].into_iter().collect();
        let renamed = rename_graph(&g, &map).unwrap();
        assert!(renamed.has_edge(g.root(), b, n));
        assert!(renamed.has_edge(n, a, g.root()));
        let back = rename_graph(&renamed, &invert(&map)).unwrap();
        assert!(back.has_edge(g.root(), a, n));
        // Uncovered labels are detected, not dropped.
        let partial: Renaming = [(a, a)].into_iter().collect();
        assert!(rename_graph(&g, &partial).is_none());
    }

    #[test]
    fn symmetric_ties_go_to_the_first_candidate() {
        // `a -> b` and `a -> c` tie under φ's renaming; the first in
        // input order is placed first, so `b` takes id 1.
        let mut labels = LabelInterner::new();
        let sigma = parse_constraints("a -> b\na -> c", &mut labels).unwrap();
        let phi = PathConstraint::parse("a -> a", &mut labels).unwrap();
        let canon = canonicalize(&DataContext::Semistructured, &sigma, &phi);
        let b = labels.get("b").unwrap();
        assert_eq!(canon.renaming[&b], Label::from_index(1));
    }

    /// FNV-1a over a finished string: what fingerprints hashed before
    /// they streamed through the [`Fnv`] sink.
    fn fnv(text: &str) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    #[test]
    fn streamed_fingerprints_match_the_formatted_rendering() {
        let corpus = [
            ("", "() -> ()"),
            ("a -> b\nb -> c", "a -> c"),
            ("p: a -> a.b\np: b <- c", "p: a -> c"),
            ("a.b: c <- d.e\nx -> x\nx -> x", "a.b.c -> ()"),
        ];
        for (revision, (sigma, phi)) in corpus.iter().enumerate() {
            let key = QueryKey {
                revision: revision as u64 * 7,
                ..canon(sigma, phi)
            };
            let revisionless = QueryKey {
                revision: 0,
                ..key.clone()
            };
            assert_eq!(snapshot_id(&key), fnv(&format!("{revisionless:?}")));
        }
        for name in ["m-bibliography", "mplus-bibliography"] {
            let context = crate::build_context(name, &mut LabelInterner::new()).unwrap();
            let schema = match &context {
                DataContext::M(ctx) | DataContext::MPlus(ctx) | DataContext::MPlusFinite(ctx) => {
                    format!("{:?}", ctx.schema)
                }
                DataContext::Semistructured => unreachable!("schema context"),
            };
            let fingerprint = match ContextKey::of(&context) {
                ContextKey::M(fp) | ContextKey::MPlus(fp) | ContextKey::MPlusFinite(fp) => fp,
                ContextKey::Semistructured => unreachable!("schema context"),
            };
            assert_eq!(fingerprint, fnv(&schema), "{name}");
        }
    }

    /// The greedy canonicalization as first written — every trial clones
    /// the renaming and builds the renamed constraint — kept as the
    /// oracle the buffered implementation must agree with exactly.
    fn reference_canonicalize(sigma: &[PathConstraint], phi: &PathConstraint) -> CanonicalQuery {
        fn sort_key(c: &PathConstraint) -> (u8, Vec<u32>, Vec<u32>, Vec<u32>) {
            let path_key = |p: &Path| p.labels().iter().map(|l| l.index() as u32).collect();
            (
                kind_rank(c.kind()),
                path_key(c.prefix()),
                path_key(c.lhs()),
                path_key(c.rhs()),
            )
        }
        fn self_key(c: &PathConstraint) -> (u8, Vec<u32>, Vec<u32>, Vec<u32>) {
            let mut map = Renaming::new();
            assign_first_occurrence(&mut map, &mut 0, c);
            sort_key(&rename_constraint(c, &map).unwrap())
        }
        let mut renaming = Renaming::new();
        let mut next = 0usize;
        assign_first_occurrence(&mut renaming, &mut next, phi);
        let mut remaining = distinct(sigma);
        remaining.sort_by_cached_key(|c| self_key(c));
        let mut renamed_sigma = Vec::new();
        while !remaining.is_empty() {
            let mut best: Option<(usize, PathConstraint, Renaming, usize)> = None;
            for (i, c) in remaining.iter().enumerate() {
                let mut trial = renaming.clone();
                let mut trial_next = next;
                assign_first_occurrence(&mut trial, &mut trial_next, c);
                let rc = rename_constraint(c, &trial).unwrap();
                let better = match &best {
                    None => true,
                    Some((_, bc, _, _)) => sort_key(&rc) < sort_key(bc),
                };
                if better {
                    best = Some((i, rc, trial, trial_next));
                }
            }
            let (i, rc, committed, committed_next) = best.unwrap();
            renaming = committed;
            next = committed_next;
            renamed_sigma.push(rc);
            remaining.remove(i);
        }
        renamed_sigma.sort_by_key(sort_key);
        renamed_sigma.dedup();
        CanonicalQuery {
            key: QueryKey {
                context: ContextKey::Semistructured,
                sigma: renamed_sigma,
                phi: rename_constraint(phi, &renaming).unwrap(),
                revision: 0,
            },
            renaming,
        }
    }

    /// A constraint over labels `0..alphabet` drawn from raw numbers.
    fn constraint(kind: bool, parts: &[Vec<usize>; 3]) -> PathConstraint {
        let path = |ids: &Vec<usize>| Path::from_labels(ids.iter().map(|&i| Label::from_index(i)));
        let [prefix, lhs, rhs] = parts;
        if kind {
            PathConstraint::backward(path(prefix), path(lhs), path(rhs))
        } else {
            PathConstraint::forward(path(prefix), path(lhs), path(rhs))
        }
    }

    fn arb_constraint(alphabet: usize) -> impl Strategy<Value = PathConstraint> {
        let path = move |max: usize| proptest::collection::vec(0..alphabet, 0..max);
        (0u8..3, path(2), path(3), path(3))
            .prop_map(|(kind, prefix, lhs, rhs)| constraint(kind == 0, &[prefix, lhs, rhs]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn buffered_greedy_matches_the_reference(
            alphabet in 1usize..7,
            sigma_seeds in proptest::collection::vec(arb_constraint(6), 0..12),
            phi in arb_constraint(6),
            repeats in proptest::collection::vec(0usize..12, 0..4),
        ) {
            // Fold labels into the drawn alphabet (small alphabets force
            // symmetric ties) and repeat some constraints (duplicates).
            let fold = |c: &PathConstraint| {
                let ids = |p: &Path| p.labels().iter().map(|l| l.index() % alphabet).collect();
                constraint(c.is_backward(), &[ids(c.prefix()), ids(c.lhs()), ids(c.rhs())])
            };
            let mut sigma: Vec<PathConstraint> = sigma_seeds.iter().map(fold).collect();
            for r in repeats {
                if let Some(c) = sigma.get(r % sigma.len().max(1)).cloned() {
                    sigma.push(c);
                }
            }
            let phi = fold(&phi);
            let got = canonicalize(&DataContext::Semistructured, &sigma, &phi);
            let want = reference_canonicalize(&sigma, &phi);
            prop_assert_eq!(&got.key, &want.key, "keys for Σ = {:?}, φ = {:?}", sigma, phi);
            prop_assert_eq!(&got.renaming, &want.renaming, "renamings for Σ = {:?}, φ = {:?}", sigma, phi);
        }
    }
}
