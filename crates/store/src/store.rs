//! The resident constraint store.
//!
//! A [`ConstraintStore`] is built **once** — from a binary snapshot or
//! from JSONL — and then answers arbitrarily many jobs without
//! re-parsing context data: labels are interned to `u32` in one
//! store-wide table, each context's base Σ is parsed up front, solver
//! contexts are prebuilt, and data graphs live in columnar form with
//! forward/backward adjacency indexes ([`ColumnarGraph`]).
//!
//! Job resolution ([`ConstraintStore::prepare`]) clones the shared
//! interner (cheap: one `Vec<String>` + map), parses only the job's own
//! sigma/phi texts against it, and concatenates the context's resident
//! base Σ in front. Context names not in the store fall back to the
//! engine's builtin contexts, so a store-backed server answers every
//! job a bare `pathcons batch` would. Verdicts are identical either
//! way: the engine's cache canonicalizes queries by alpha-renaming, so
//! the interner's contents never leak into an answer.

use crate::columnar::ColumnarGraph;
use crate::snapshot::{self, ContextRecord, GraphColumns, SnapshotDoc, SnapshotError};
use pathcons_constraints::PathConstraint;
use pathcons_core::{Budget, DataContext, SharedContext, SharedStats};
use pathcons_engine::{build_context, prepare_job, Job, Json, PreparedJob};
use pathcons_graph::{Graph, LabelInterner};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One context resident in the store: prebuilt solver context, parsed
/// base Σ, and (optionally) a columnar data graph.
#[derive(Debug)]
pub struct ResidentContext {
    kind: String,
    context: DataContext,
    base_sigma: Vec<PathConstraint>,
    sigma_texts: Vec<String>,
    columnar: Option<ColumnarGraph>,
    /// Arena-form rehydration of `columnar`, built on first use by the
    /// satisfaction checkers (`graph()`); job solving never needs it.
    graph: OnceLock<Graph>,
    /// Monotonic revision, bumped by every constraint or edge mutation.
    /// Scopes the engine's cache keys and the shared state below: a
    /// mutation invalidates exactly this context's reuse, nothing else.
    revision: u64,
    /// Per-context amortization state, keyed by the revision it was
    /// built at. Built lazily on first use (or eagerly by
    /// [`ConstraintStore::warm_all`]); a revision mismatch rebuilds.
    shared: Mutex<Option<(u64, Arc<SharedContext>)>>,
    /// Jobs prepared against this context (any verdict).
    jobs: AtomicU64,
}

impl ResidentContext {
    fn new(
        kind: String,
        context: DataContext,
        base_sigma: Vec<PathConstraint>,
        sigma_texts: Vec<String>,
        columnar: Option<ColumnarGraph>,
    ) -> ResidentContext {
        ResidentContext {
            kind,
            context,
            base_sigma,
            sigma_texts,
            columnar,
            graph: OnceLock::new(),
            revision: 0,
            shared: Mutex::new(None),
            jobs: AtomicU64::new(0),
        }
    }

    /// The solver-context kind this context was built from.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The parsed base Σ, prepended to every job's own sigma.
    pub fn base_sigma(&self) -> &[PathConstraint] {
        &self.base_sigma
    }

    /// The columnar data graph, if the context carries one.
    pub fn columnar(&self) -> Option<&ColumnarGraph> {
        self.columnar.as_ref()
    }

    /// The data graph in arena form, rehydrated lazily from the columns
    /// (and cached) for checkers that need [`Graph`].
    pub fn graph(&self) -> Option<&Graph> {
        let columnar = self.columnar.as_ref()?;
        Some(self.graph.get_or_init(|| columnar.to_graph()))
    }

    /// The context's current revision (0 until the first mutation).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Jobs prepared against this context so far.
    pub fn jobs_answered(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// The shared amortization state at the current revision, building
    /// it on first use. A state cached at an earlier revision is
    /// replaced, so mutations can never leak stale reuse.
    fn shared_state(&self, budget: &Budget) -> Arc<SharedContext> {
        let mut guard = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((revision, shared)) = guard.as_ref() {
            if *revision == self.revision {
                return Arc::clone(shared);
            }
        }
        let shared = Arc::new(SharedContext::build(&self.base_sigma, budget));
        *guard = Some((self.revision, Arc::clone(&shared)));
        shared
    }

    /// Counter snapshot of the shared state, without building it:
    /// `None` when the context has never been warmed (or a mutation
    /// invalidated the state and no job has rebuilt it yet).
    pub fn shared_stats(&self) -> Option<SharedStats> {
        let guard = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        guard
            .as_ref()
            .filter(|(revision, _)| *revision == self.revision)
            .map(|(_, shared)| shared.stats())
    }
}

/// Per-context counters the serve `stats` op reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContextStats {
    /// The context's name in the store.
    pub name: String,
    /// Its solver-context kind.
    pub kind: String,
    /// Current revision (0 until the first mutation).
    pub revision: u64,
    /// Jobs prepared against it.
    pub jobs: u64,
    /// Whether shared amortization state is live at this revision.
    pub warm: bool,
    /// Shared-state counters (all zero when not warm).
    pub shared: SharedStats,
}

/// The resident store: one shared label table plus named contexts.
#[derive(Debug)]
pub struct ConstraintStore {
    labels: LabelInterner,
    contexts: BTreeMap<String, ResidentContext>,
    content_id: u64,
    /// Budget caps the shared amortization state is built under. Must
    /// match the engine budget jobs are solved with, or the guarded
    /// reuse checks refuse the state and every job solves cold. `None`
    /// disables amortization entirely (the bench's cold mode).
    shared_budget: Option<Budget>,
}

impl ConstraintStore {
    /// Builds a store from a decoded snapshot document, moving its
    /// columns and texts into the resident contexts. `content_id` is the
    /// id the store reports until its first mutation.
    fn from_doc(doc: SnapshotDoc, content_id: u64) -> Result<ConstraintStore, SnapshotError> {
        let corrupt = SnapshotError::Corrupt;
        // Graph label ids index the document's string table; the store's
        // interner starts as that table and may grow past it below.
        let label_count = doc.labels.len() as u32;
        let mut labels = LabelInterner::with_labels(&doc.labels);
        let mut contexts = BTreeMap::new();
        for ContextRecord {
            name,
            kind,
            sigma,
            graph,
        } in doc.contexts
        {
            if contexts.contains_key(&name) {
                return Err(corrupt(format!("duplicate context `{name}`")));
            }
            let context = build_context(&kind, &mut labels)
                .map_err(|e| corrupt(format!("context `{name}`: {e}")))?;
            let mut base_sigma = Vec::with_capacity(sigma.len());
            for text in &sigma {
                base_sigma.push(PathConstraint::parse(text, &mut labels).map_err(|e| {
                    corrupt(format!("context `{name}`: bad constraint `{text}`: {e}"))
                })?);
            }
            let columnar = match graph {
                None => None,
                Some(g) => Some(
                    ColumnarGraph::from_columns(
                        g.node_count,
                        g.root,
                        label_count,
                        g.src,
                        g.label,
                        g.dst,
                    )
                    .map_err(|e| corrupt(format!("context `{name}`: {e}")))?,
                ),
            };
            let resident = ResidentContext::new(kind, context, base_sigma, sigma, columnar);
            contexts.insert(name, resident);
        }
        Ok(ConstraintStore {
            labels,
            contexts,
            content_id,
            shared_budget: Some(Budget::default()),
        })
    }

    /// Loads a store from snapshot bytes (the fast path at serve
    /// startup): one pass validates the frame and checksum and decodes,
    /// and the verified checksum becomes the content id.
    pub fn from_bytes(bytes: &[u8]) -> Result<ConstraintStore, SnapshotError> {
        let (doc, content_id) = snapshot::decode(bytes)?;
        Self::from_doc(doc, content_id)
    }

    /// Builds a store from JSONL text (the cold path, and what
    /// `pathcons snapshot build` runs once). Two line shapes are
    /// accepted and may be mixed:
    ///
    /// - a **context spec**: `{"name": "...", "kind": "semistructured",
    ///   "sigma": ["a -> b"], "edges": [["n0", "label", "n1"], ...],
    ///   "root": "n0"}` — `kind`, `sigma`, `edges` and `root` optional;
    ///   node names are numbered by first appearance, the root defaults
    ///   to the first node mentioned;
    /// - a **batch job** (`{"id": ..., "phi": ...}` — the
    ///   `examples/batch_jobs.jsonl` format): its `context` name is
    ///   registered as a builtin-kind context with empty base Σ, so a
    ///   snapshot can be built straight from an existing jobs file.
    pub fn from_jsonl(text: &str) -> Result<ConstraintStore, String> {
        let mut doc = SnapshotDoc::default();
        // One document-wide interner for edge-label names, so the graph
        // columns of every record index one shared string table.
        let mut doc_labels = LabelInterner::new();
        let mut names: BTreeMap<String, usize> = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let value = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
            if value.get("phi").is_some() {
                // A batch job: register its context name once.
                let name = value
                    .get("context")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                if !names.contains_key(&name) {
                    names.insert(name.clone(), doc.contexts.len());
                    doc.contexts.push(ContextRecord {
                        kind: name.clone(),
                        name,
                        sigma: Vec::new(),
                        graph: None,
                    });
                }
                continue;
            }
            let record = parse_context_spec(&value, &mut doc_labels)
                .map_err(|e| format!("line {lineno}: {e}"))?;
            if names.contains_key(&record.name) {
                return Err(format!(
                    "line {lineno}: duplicate context `{}`",
                    record.name
                ));
            }
            names.insert(record.name.clone(), doc.contexts.len());
            doc.contexts.push(record);
        }
        doc.labels = label_names(&doc_labels);
        let mut store = Self::from_doc(doc, 0).map_err(|e| e.to_string())?;
        // The store's own table may have grown past the document's
        // (schema contexts and sigma texts intern extra names), so the
        // id this store reports is the id of the snapshot it would
        // *write* — `to_bytes` is a fixpoint: loading those bytes back
        // re-interns the same names in the same order.
        store.refresh_content_id();
        Ok(store)
    }

    /// Re-encodes the store as a snapshot document. Loading its
    /// encoding is the identity on content: encoding the loaded store
    /// yields the same bytes (and therefore the same content id).
    pub fn to_doc(&self) -> SnapshotDoc {
        let contexts = self
            .contexts
            .iter()
            .map(|(name, resident)| ContextRecord {
                name: name.clone(),
                kind: resident.kind.clone(),
                sigma: resident.sigma_texts.clone(),
                graph: resident.columnar.as_ref().map(|col| {
                    let (src, label, dst) = col.columns();
                    GraphColumns {
                        node_count: col.node_count() as u32,
                        root: col.root(),
                        src: src.to_vec(),
                        label: label.to_vec(),
                        dst: dst.to_vec(),
                    }
                }),
            })
            .collect();
        SnapshotDoc {
            labels: label_names(&self.labels),
            contexts,
        }
    }

    /// Encodes the store to snapshot bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(&self.to_doc())
    }

    /// The content id (payload checksum) of the snapshot this store was
    /// loaded from or would encode to, as raw `u64`.
    pub fn content_id(&self) -> u64 {
        self.content_id
    }

    /// The content id rendered the way the certificate layer renders
    /// snapshot ids: 16 lowercase hex digits.
    pub fn content_id_hex(&self) -> String {
        format!("{:016x}", self.content_id)
    }

    /// Sets the budget caps shared amortization state is built under,
    /// or disables amortization with `None`. Call before serving, with
    /// the engine's own budget: the guarded reuse checks require the
    /// caps to match exactly, so a mismatched budget silently degrades
    /// every job to cold solving.
    pub fn set_shared_budget(&mut self, budget: Option<Budget>) {
        self.shared_budget = budget;
        for resident in self.contexts.values_mut() {
            *resident.shared.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    /// The budget shared state is built under (`None`: amortization
    /// disabled).
    pub fn shared_budget(&self) -> Option<&Budget> {
        self.shared_budget.as_ref()
    }

    /// Eagerly builds the shared amortization state of every resident
    /// context (`pathcons serve --warm`): the Σ-only chase prefixes and
    /// word-engine saturation are paid at startup instead of on each
    /// context's first job. Returns how many contexts were warmed; 0
    /// when amortization is disabled.
    pub fn warm_all(&self) -> usize {
        let Some(budget) = &self.shared_budget else {
            return 0;
        };
        for resident in self.contexts.values() {
            let _ = resident.shared_state(budget);
        }
        self.contexts.len()
    }

    /// Appends a constraint to a resident context's base Σ, bumping its
    /// revision. Returns the new revision. The engine cache keys and
    /// shared state of *other* contexts are untouched — invalidation is
    /// per context, never the world.
    pub fn add_constraint(&mut self, context_name: &str, text: &str) -> Result<u64, String> {
        let constraint = PathConstraint::parse(text, &mut self.labels)
            .map_err(|e| format!("bad constraint `{text}`: {e}"))?;
        let resident = self
            .contexts
            .get_mut(context_name)
            .ok_or_else(|| format!("unknown context `{context_name}`"))?;
        resident.base_sigma.push(constraint);
        resident.sigma_texts.push(text.to_owned());
        resident.revision += 1;
        let revision = resident.revision;
        self.refresh_content_id();
        Ok(revision)
    }

    /// Adds an edge to a resident context's data graph (creating a
    /// graph when the context has none), bumping its revision. Node ids
    /// beyond the current node count grow the graph. Returns the new
    /// revision.
    pub fn add_edge(
        &mut self,
        context_name: &str,
        src: u32,
        label: &str,
        dst: u32,
    ) -> Result<u64, String> {
        let label_id = self.labels.intern(label).index() as u32;
        let label_count = self.labels.len() as u32;
        let resident = self
            .contexts
            .get_mut(context_name)
            .ok_or_else(|| format!("unknown context `{context_name}`"))?;
        let (node_count, root, mut src_col, mut label_col, mut dst_col) = match &resident.columnar {
            Some(col) => {
                let (s, l, d) = col.columns();
                (
                    col.node_count() as u32,
                    col.root(),
                    s.to_vec(),
                    l.to_vec(),
                    d.to_vec(),
                )
            }
            None => (1, 0, Vec::new(), Vec::new(), Vec::new()),
        };
        src_col.push(src);
        label_col.push(label_id);
        dst_col.push(dst);
        let node_count = node_count.max(src + 1).max(dst + 1);
        resident.columnar = Some(
            ColumnarGraph::from_columns(node_count, root, label_count, src_col, label_col, dst_col)
                .map_err(|e| format!("context `{context_name}`: {e}"))?,
        );
        // The arena rehydration belongs to the old graph; rebuild lazily.
        resident.graph = OnceLock::new();
        resident.revision += 1;
        let revision = resident.revision;
        self.refresh_content_id();
        Ok(revision)
    }

    /// Re-derives the content id after a mutation, so `ping`/`stats`
    /// advertise the id of the snapshot the mutated store would write.
    fn refresh_content_id(&mut self) {
        if let Ok(id) = snapshot::content_id(&self.to_bytes()) {
            self.content_id = id;
        }
    }

    /// Per-context counters for the serve `stats` op, in name order.
    pub fn context_stats(&self) -> Vec<ContextStats> {
        self.contexts
            .iter()
            .map(|(name, resident)| {
                let shared = resident.shared_stats();
                ContextStats {
                    name: name.clone(),
                    kind: resident.kind.clone(),
                    revision: resident.revision,
                    jobs: resident.jobs_answered(),
                    warm: shared.is_some(),
                    shared: shared.unwrap_or_default(),
                }
            })
            .collect()
    }

    /// Number of resident contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Looks up a resident context by name.
    pub fn context(&self, name: &str) -> Option<&ResidentContext> {
        self.contexts.get(name)
    }

    /// Iterates `(name, context)` pairs in name order.
    pub fn contexts(&self) -> impl Iterator<Item = (&str, &ResidentContext)> {
        self.contexts.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// The shared label table.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Resolves a job against the store: resident contexts get the
    /// prebuilt solver context, a cloned interner, and base Σ prepended
    /// to the job's own sigma; unknown names fall back to the engine's
    /// builtin contexts (fresh interner), exactly as `pathcons batch`
    /// builds them.
    ///
    /// Jobs that carry no sigma of their own (the shared-context hot
    /// path: every query runs against exactly the resident base Σ) are
    /// handed the context's amortization state, so the solver resumes
    /// the shared chase prefix and the cached `post*` automata instead
    /// of solving cold. Jobs with extra constraints get `shared: None`
    /// — their Σ differs from what the state was built from, and the
    /// solver-side guards would refuse it anyway. Either way the
    /// prepared job carries the context's revision, scoping the
    /// engine's cache key.
    pub fn prepare(&self, job: &Job) -> Result<PreparedJob, String> {
        let Some(resident) = self.contexts.get(&job.context) else {
            return prepare_job(
                &job.context,
                &job.sigma,
                &job.phi,
                &mut LabelInterner::new(),
            );
        };
        resident.jobs.fetch_add(1, Ordering::Relaxed);
        let mut labels = self.labels.clone();
        let mut sigma = resident.base_sigma.clone();
        sigma.reserve(job.sigma.len());
        for text in &job.sigma {
            sigma.push(
                PathConstraint::parse(text, &mut labels)
                    .map_err(|e| format!("bad constraint `{text}`: {e}"))?,
            );
        }
        let phi = PathConstraint::parse(&job.phi, &mut labels)
            .map_err(|e| format!("bad query `{}`: {e}", job.phi))?;
        let shared = match (&self.shared_budget, job.sigma.is_empty()) {
            (Some(budget), true) => Some(resident.shared_state(budget)),
            _ => None,
        };
        Ok(PreparedJob {
            context: resident.context.clone(),
            sigma,
            phi,
            shared,
            revision: resident.revision,
        })
    }

    /// Checks constraint texts against a resident context's data graph
    /// (the `check` protocol op): returns `(text, holds)` per
    /// constraint. Errors when the context is unknown or has no graph.
    pub fn check(
        &self,
        context_name: &str,
        texts: &[String],
    ) -> Result<Vec<(String, bool)>, String> {
        let resident = self
            .contexts
            .get(context_name)
            .ok_or_else(|| format!("unknown context `{context_name}`"))?;
        let graph = resident
            .graph()
            .ok_or_else(|| format!("context `{context_name}` has no data graph"))?;
        let mut labels = self.labels.clone();
        let mut verdicts = Vec::with_capacity(texts.len());
        for text in texts {
            let constraint = PathConstraint::parse(text, &mut labels)
                .map_err(|e| format!("bad constraint `{text}`: {e}"))?;
            verdicts.push((
                text.clone(),
                pathcons_constraints::holds(graph, &constraint),
            ));
        }
        Ok(verdicts)
    }

    /// A human-readable description (what `pathcons snapshot info`
    /// prints): content id, label count, per-context shape.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "snapshot {}", self.content_id_hex());
        let _ = writeln!(
            out,
            "{} label(s), {} context(s)",
            self.labels.len(),
            self.contexts.len()
        );
        for (name, resident) in &self.contexts {
            let shown = if name.is_empty() { "(default)" } else { name };
            let _ = write!(
                out,
                "  {shown}: kind {}, {} base constraint(s)",
                if resident.kind.is_empty() {
                    "semistructured"
                } else {
                    &resident.kind
                },
                resident.base_sigma.len()
            );
            match &resident.columnar {
                None => {
                    let _ = writeln!(out, ", no graph");
                }
                Some(col) => {
                    let _ = writeln!(
                        out,
                        ", graph {} node(s) / {} edge(s)",
                        col.node_count(),
                        col.edge_count()
                    );
                }
            }
        }
        out
    }
}

/// Renders the interner back to its name list, in id order.
fn label_names(labels: &LabelInterner) -> Vec<String> {
    labels.iter().map(|(_, name)| name.to_owned()).collect()
}

/// Parses one context-spec JSONL line into a [`ContextRecord`],
/// interning edge-label names into the shared document table so graph
/// columns of every record index one string table.
fn parse_context_spec(
    value: &Json,
    doc_labels: &mut LabelInterner,
) -> Result<ContextRecord, String> {
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or("context spec needs a string `name` (or a job line needs `phi`)")?
        .to_owned();
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .unwrap_or("semistructured")
        .to_owned();
    let sigma = match value.get("sigma") {
        None => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut texts = Vec::with_capacity(items.len());
            for item in items {
                texts.push(
                    item.as_str()
                        .ok_or("`sigma` entries must be strings")?
                        .to_owned(),
                );
            }
            texts
        }
        Some(_) => return Err("`sigma` must be an array of strings".into()),
    };
    let graph = match value.get("edges") {
        None => None,
        Some(Json::Arr(items)) => Some(parse_edges(items, value, doc_labels)?),
        Some(_) => return Err("`edges` must be an array of [src, label, dst] triples".into()),
    };
    Ok(ContextRecord {
        name,
        kind,
        sigma,
        graph,
    })
}

/// Builds graph columns from `[["n0", "label", "n1"], …]` triples. Node
/// names are numbered by first appearance; the optional `root` names
/// the root node (default: the first node mentioned). Label ids index
/// the shared document string table (`doc_labels`).
fn parse_edges(
    items: &[Json],
    value: &Json,
    doc_labels: &mut LabelInterner,
) -> Result<GraphColumns, String> {
    let mut nodes: BTreeMap<String, u32> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let node_id = |name: &str, nodes: &mut BTreeMap<String, u32>, order: &mut Vec<String>| {
        if let Some(&id) = nodes.get(name) {
            return id;
        }
        let id = order.len() as u32;
        nodes.insert(name.to_owned(), id);
        order.push(name.to_owned());
        id
    };
    let mut src = Vec::with_capacity(items.len());
    let mut label = Vec::with_capacity(items.len());
    let mut dst = Vec::with_capacity(items.len());
    for item in items {
        let Json::Arr(triple) = item else {
            return Err("each edge must be a [src, label, dst] triple".into());
        };
        let [s, l, d] = triple.as_slice() else {
            return Err("each edge must be a [src, label, dst] triple".into());
        };
        let (s, l, d) = match (s.as_str(), l.as_str(), d.as_str()) {
            (Some(s), Some(l), Some(d)) => (s, l, d),
            _ => return Err("edge triple entries must be strings".into()),
        };
        src.push(node_id(s, &mut nodes, &mut order));
        label.push(doc_labels.intern(l).index() as u32);
        dst.push(node_id(d, &mut nodes, &mut order));
    }
    if order.is_empty() {
        return Err("`edges` must name at least one node".into());
    }
    let root = match value.get("root").and_then(Json::as_str) {
        None => 0,
        Some(name) => *nodes
            .get(name)
            .ok_or_else(|| format!("root `{name}` does not appear in `edges`"))?,
    };
    Ok(GraphColumns {
        node_count: order.len() as u32,
        root,
        src,
        label,
        dst,
    })
}
