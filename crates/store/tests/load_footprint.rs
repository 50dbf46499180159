//! Memory regression test for snapshot loading.
//!
//! A counting global allocator tracks live and peak heap bytes. The
//! footprint test encodes a bibliography snapshot of ~100k edges whose
//! columns are shuffled out of order (so the CSR build does real work),
//! then bounds the peak heap while `ConstraintStore::from_bytes` loads
//! it: the snapshot buffer plus everything the load allocates must stay
//! within 3× the snapshot's byte length. Loaded from a file with
//! `ConstraintStore::open`, which streams it and holds no snapshot
//! buffer, the load must stay within 2×. The hostile-input test checks
//! that out-of-table label ids are rejected before any allocation sized
//! by the id. The resident-footprint test bounds what a loaded store
//! keeps: about three words per edge and two per node. The refresh test
//! checks that re-deriving the content id after a mutation allocates
//! nothing the size of an edge column. The tests take one lock, so no
//! test's allocations land in another's count.

use pathcons_store::snapshot::{self, ContextRecord, GraphColumns, SnapshotDoc};
use pathcons_store::{ColumnarGraph, ConstraintStore, SnapshotError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes, as seen through the counting allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The high-water mark of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// The largest single allocation (or reallocation target) since the
/// last [`reset_peak`].
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Serializes the tests of this binary.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

fn grow(bytes: usize) {
    LARGEST.fetch_max(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// adjusts counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
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
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as isize, Ordering::Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Restarts peak and largest-allocation tracking; returns the live
/// bytes at this point.
fn reset_peak() -> isize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    live
}

/// The bound: snapshot buffer plus load allocations, per snapshot byte.
const MAX_PEAK_PER_SNAPSHOT_BYTE: usize = 3;
/// The bound for a load streamed from a file, which holds no snapshot
/// buffer: load allocations per snapshot byte.
const MAX_FILE_PEAK_PER_SNAPSHOT_BYTE: usize = 2;

/// The bound on what a loaded store keeps resident: bytes per edge of
/// its graph (the `label` and `dst` columns, the backward permutation
/// and one source sample per 64 edges), bytes per node (the forward and
/// backward offset tables), and a fixed allowance for everything else.
const MAX_RESIDENT_PER_EDGE: f64 = 12.1;
const MAX_RESIDENT_PER_NODE: f64 = 8.0;
const RESIDENT_SLACK: f64 = 64.0 * 1024.0;

const LABELS: [&str; 7] = ["book", "person", "author", "wrote", "ref", "title", "name"];
const SIGMA: [&str; 5] = [
    "book.author -> person",
    "person.wrote -> book",
    "book.ref -> book",
    "book: author <- wrote",
    "person: wrote <- author",
];

/// A Figure 1 style bibliography: `books` books with a title, `2/5` as
/// many persons with a name, one to three authors per book with the
/// inverse `wrote` edge, and a `ref` from three books in ten. The edge
/// order is shuffled.
fn bibliography(books: u32) -> GraphColumns {
    let (book, person, author, wrote, reference, title, name) = (0, 1, 2, 3, 4, 5, 6);
    let mut state = 0x5eed_u64;
    let mut next = move |bound: u32| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % u64::from(bound)) as u32
    };
    let persons = books * 2 / 5;
    let mut node_count = 1;
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut entities = |count: u32, kind: u32, field: u32, edges: &mut Vec<_>| {
        let first = node_count;
        for i in 0..count {
            let entity = first + 2 * i;
            edges.push((0, kind, entity));
            edges.push((entity, field, entity + 1));
        }
        node_count += 2 * count;
        first
    };
    let first_book = entities(books, book, title, &mut edges);
    let first_person = entities(persons, person, name, &mut edges);
    for b in 0..books {
        let b_node = first_book + 2 * b;
        for _ in 0..=next(3) {
            let p_node = first_person + 2 * next(persons);
            edges.push((b_node, author, p_node));
            edges.push((p_node, wrote, b_node));
        }
        if next(10) < 3 {
            edges.push((b_node, reference, first_book + 2 * next(books)));
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, next(i as u32 + 1) as usize);
    }
    GraphColumns {
        node_count,
        root: 0,
        src: edges.iter().map(|e| e.0).collect(),
        label: edges.iter().map(|e| e.1).collect(),
        dst: edges.iter().map(|e| e.2).collect(),
    }
}

fn snapshot_doc(graph: GraphColumns) -> SnapshotDoc {
    SnapshotDoc {
        labels: LABELS.iter().map(|l| (*l).to_owned()).collect(),
        contexts: vec![ContextRecord {
            name: "archive".to_owned(),
            kind: "semistructured".to_owned(),
            sigma: SIGMA.iter().map(|c| (*c).to_owned()).collect(),
            graph: Some(graph),
        }],
    }
}

/// The shuffled ~100k-edge bibliography snapshot both load paths read,
/// and its edge count.
fn fixture() -> (Vec<u8>, usize) {
    let graph = bibliography(14_000);
    let edges = graph.src.len();
    assert!(edges > 90_000, "about 100k edges, got {edges}");
    (snapshot::encode(&snapshot_doc(graph)), edges)
}

/// Checks a loaded fixture store: the content id, and deduplicated
/// edges in `(src, label, dst)` order.
fn check_loaded(store: &ConstraintStore, bytes: &[u8], edges: usize) {
    let (_, id) = snapshot::decode(bytes, bytes.len() as u64).expect("fixture decodes");
    assert_eq!(store.content_id(), id);
    let archive = store.context("archive").expect("archive resident");
    let graph = archive.columnar().expect("archive graph resident");
    assert!(graph.edge_count() <= edges);
    assert!(graph.edges().zip(graph.edges().skip(1)).all(|(a, b)| a < b));
}

#[test]
fn snapshot_load_peak_heap_is_bounded_by_the_snapshot_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (bytes, edges) = fixture();

    let before = reset_peak();
    let store = ConstraintStore::from_bytes(&bytes).expect("snapshot loads");
    let peak = (PEAK.load(Ordering::Relaxed) - before) as usize + bytes.len();
    let ratio = peak as f64 / bytes.len() as f64;
    eprintln!(
        "from_bytes peak {peak} bytes for a {} byte snapshot ({ratio:.2}x)",
        bytes.len()
    );
    assert!(
        peak <= MAX_PEAK_PER_SNAPSHOT_BYTE * bytes.len(),
        "peak heap {peak} bytes is {ratio:.2}x the {} byte snapshot \
         (bound {MAX_PEAK_PER_SNAPSHOT_BYTE}x)",
        bytes.len()
    );
    check_loaded(&store, &bytes, edges);
}

#[test]
fn streamed_file_load_peak_heap_is_bounded_by_the_snapshot_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (bytes, edges) = fixture();
    let path = std::env::temp_dir().join(format!(
        "pathcons-load-footprint-{}.pcs",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).expect("write the fixture snapshot");

    let before = reset_peak();
    let loaded = ConstraintStore::open(&path);
    let peak = (PEAK.load(Ordering::Relaxed) - before) as usize;
    std::fs::remove_file(&path).expect("remove the fixture snapshot");
    let store = loaded.expect("snapshot file loads");
    let ratio = peak as f64 / bytes.len() as f64;
    eprintln!(
        "open peak {peak} bytes for a {} byte snapshot ({ratio:.2}x)",
        bytes.len()
    );
    assert!(
        peak <= MAX_FILE_PEAK_PER_SNAPSHOT_BYTE * bytes.len(),
        "peak heap {peak} bytes is {ratio:.2}x the {} byte snapshot \
         (bound {MAX_FILE_PEAK_PER_SNAPSHOT_BYTE}x)",
        bytes.len()
    );
    check_loaded(&store, &bytes, edges);
}

#[test]
fn hostile_label_ids_are_rejected_without_id_sized_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    /// Far below the 16 GiB a bucket table sized by `u32::MAX` would take.
    const MAX_GROWTH: isize = 1 << 20;

    let before = reset_peak();
    let built = ColumnarGraph::from_columns(2, 0, 7, vec![0], vec![u32::MAX], vec![1]);
    assert!(built.is_err(), "label id u32::MAX accepted");
    assert!(PEAK.load(Ordering::Relaxed) - before < MAX_GROWTH);

    // A checksum-valid snapshot whose label ids run past its table.
    let mut graph = bibliography(50);
    graph.label[0] = LABELS.len() as u32;
    graph.label[1] = u32::MAX;
    let bytes = snapshot::encode(&snapshot_doc(graph));
    let before = reset_peak();
    assert!(
        matches!(
            snapshot::decode(&bytes[..], bytes.len() as u64),
            Err(SnapshotError::Corrupt(_))
        ),
        "the checksum is valid, the label ids are not"
    );
    assert!(ConstraintStore::from_bytes(&bytes).is_err());
    assert!(PEAK.load(Ordering::Relaxed) - before < MAX_GROWTH);
}

#[test]
fn a_loaded_store_keeps_three_words_per_edge() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (bytes, _) = fixture();
    let path =
        std::env::temp_dir().join(format!("pathcons-load-resident-{}.pcs", std::process::id()));
    std::fs::write(&path, &bytes).expect("write the fixture snapshot");

    let before = reset_peak();
    let loaded = ConstraintStore::open(&path);
    let resident = (LIVE.load(Ordering::Relaxed) - before) as f64;
    std::fs::remove_file(&path).expect("remove the fixture snapshot");
    let store = loaded.expect("snapshot file loads");
    let graph = store
        .context("archive")
        .and_then(|c| c.columnar())
        .expect("archive graph resident");
    let (edges, nodes) = (graph.edge_count() as f64, graph.node_count() as f64);
    let bound = MAX_RESIDENT_PER_EDGE * edges + MAX_RESIDENT_PER_NODE * nodes + RESIDENT_SLACK;
    eprintln!(
        "resident {resident} bytes for {edges} edges and {nodes} nodes \
         ({:.2} B/edge net of 8 B/node), graph {} bytes",
        (resident - 8.0 * nodes) / edges,
        graph.heap_bytes()
    );
    assert!(
        resident <= bound,
        "a loaded store keeps {resident} bytes, over the {bound} byte bound"
    );
    assert!(graph.heap_bytes() as f64 <= resident);
}

#[test]
fn refreshing_the_content_id_copies_no_column() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (bytes, _) = fixture();
    let mut store = ConstraintStore::from_bytes(&bytes).expect("snapshot loads");
    let edges = store
        .context("archive")
        .and_then(|c| c.columnar())
        .expect("archive graph resident")
        .edge_count();

    reset_peak();
    store
        .add_constraint("archive", "book.title -> title")
        .expect("constraint added");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 4 * edges,
        "a mutation allocated {largest} bytes at once, an edge column is {} bytes",
        4 * edges
    );
    assert_eq!(store.content_id(), snapshot::content_id(&store.to_doc()));
}

#[test]
fn resident_encoding_reproduces_the_normalized_snapshot() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (shuffled, _) = fixture();
    let normalized = ConstraintStore::from_bytes(&shuffled)
        .expect("snapshot loads")
        .to_bytes();
    assert_ne!(normalized, shuffled, "loading sorts the shuffled columns");
    let store = ConstraintStore::from_bytes(&normalized).expect("normalized snapshot loads");
    assert!(snapshot::encode(&store.to_doc()) == normalized);
    assert!(store.to_bytes() == normalized);
    let (_, id) = snapshot::decode(&normalized[..], normalized.len() as u64).expect("decodes");
    assert_eq!(store.content_id(), id);
}
