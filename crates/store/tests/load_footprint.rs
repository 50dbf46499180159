//! Memory regression test for snapshot loading.
//!
//! A counting global allocator tracks live and peak heap bytes. The
//! footprint test encodes a bibliography snapshot of ~100k edges whose
//! columns are shuffled out of order (so the CSR build does real work),
//! then bounds the peak heap while `ConstraintStore::from_bytes` loads
//! it: the snapshot buffer plus everything the load allocates must stay
//! within 3× the snapshot's byte length. The hostile-input test checks
//! that out-of-table label ids are rejected before any allocation sized
//! by the id. The two tests take one lock, so neither's allocations land
//! in the other's count.

use pathcons_store::snapshot::{self, ContextRecord, GraphColumns, SnapshotDoc};
use pathcons_store::{ColumnarGraph, ConstraintStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes, as seen through the counting allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The high-water mark of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Serializes the tests of this binary.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

fn grow(bytes: usize) {
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

/// Restarts peak tracking; returns the live bytes at this point.
fn reset_peak() -> isize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The bound: snapshot buffer plus load allocations, per snapshot byte.
const MAX_PEAK_PER_SNAPSHOT_BYTE: usize = 3;

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

#[test]
fn snapshot_load_peak_heap_is_bounded_by_the_snapshot_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let graph = bibliography(14_000);
    let edges = graph.src.len();
    assert!(edges > 90_000, "about 100k edges, got {edges}");
    let bytes = snapshot::encode(&snapshot_doc(graph));

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

    assert_eq!(store.content_id(), snapshot::content_id(&bytes).unwrap());
    let archive = store.context("archive").expect("archive resident");
    let graph = archive.columnar().expect("archive graph resident");
    assert!(graph.edge_count() <= edges);
    assert!(graph.edges().zip(graph.edges().skip(1)).all(|(a, b)| a < b));
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
    assert!(snapshot::content_id(&bytes).is_ok(), "checksum is valid");
    let before = reset_peak();
    assert!(snapshot::decode(&bytes).is_err());
    assert!(ConstraintStore::from_bytes(&bytes).is_err());
    assert!(PEAK.load(Ordering::Relaxed) - before < MAX_GROWTH);
}
