//! Workload generators and measurement helpers shared by the benchmark
//! runners: `repro` regenerates the paper's Table 1 and Figures 1–4 and,
//! with `--out`, writes the Table 1 slopes to `BENCH_table1.json`; the
//! `bench_*` binaries write the other `BENCH_*.json` files (see
//! `DESIGN.md` and `EXPERIMENTS.md` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::telemetry::json_escape;
use pathcons_graph::{Label, LabelInterner};
use pathcons_monoid::Presentation;
use pathcons_types::{Schema, SchemaBuilder, TypeExpr, TypeGraph, TypeNodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A generated word-constraint implication instance.
#[derive(Clone, Debug)]
pub struct WordInstance {
    /// The labels used.
    pub labels: LabelInterner,
    /// Σ: word constraints.
    pub sigma: Vec<PathConstraint>,
    /// φ: a word constraint query.
    pub phi: PathConstraint,
}

/// Generates a random word-constraint instance: `constraints` rules over
/// `alphabet` labels with paths of length up to `max_len`, and a query
/// built by chaining a few rules (so a healthy fraction of queries are
/// implied).
pub fn gen_word_instance(
    constraints: usize,
    alphabet: usize,
    max_len: usize,
    seed: u64,
) -> WordInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels =
        LabelInterner::with_labels((0..alphabet).map(|i| format!("l{i}")).collect::<Vec<_>>());
    let alpha: Vec<Label> = labels.labels().collect();
    let word = |rng: &mut StdRng, min: usize| -> Path {
        let len = rng.gen_range(min..=max_len.max(min));
        Path::from_labels((0..len).map(|_| alpha[rng.gen_range(0..alpha.len())]))
    };
    let sigma: Vec<PathConstraint> = (0..constraints)
        .map(|_| PathConstraint::word(word(&mut rng, 1), word(&mut rng, 0)))
        .collect();
    // Query: start from a random Σ lhs extended by a suffix; the rhs is a
    // random word — sometimes implied, sometimes not.
    let phi = if sigma.is_empty() || rng.gen_bool(0.5) {
        PathConstraint::word(word(&mut rng, 1), word(&mut rng, 0))
    } else {
        let base = &sigma[rng.gen_range(0..sigma.len())];
        let suffix = word(&mut rng, 0);
        PathConstraint::word(base.lhs().concat(&suffix), base.rhs().concat(&suffix))
    };
    WordInstance { labels, sigma, phi }
}

/// A generated chase-scaling instance (see the `gen_*chase_instance`
/// generators for the shapes).
#[derive(Clone, Debug)]
pub struct ChaseInstance {
    /// The labels used.
    pub labels: LabelInterner,
    /// Σ.
    pub sigma: Vec<PathConstraint>,
    /// φ.
    pub phi: PathConstraint,
}

/// Generates the growing-graph chase workload with `constraints` rules.
///
/// Each rule is `l0 → l_i·l0`: whenever `l0` reaches a node from the
/// root, so must `l_i·l0`. Repairing rule 0 adds a fresh `l0`-successor
/// of the root, which re-violates *every* rule — so each chase round
/// applies exactly `constraints` repairs and adds `constraints` fresh
/// nodes, forever. The goal `l0 → q` is never implied and the chase
/// never reaches a fixpoint: a run under a round budget `R` performs
/// `R · constraints` repairs on a graph growing to `Θ(R · constraints)`
/// nodes, and every round re-violates every rule, so both chase engines
/// rescan every rule over the whole growing graph each round.
pub fn gen_chase_instance(constraints: usize) -> ChaseInstance {
    assert!(constraints >= 1);
    let mut names: Vec<String> = (0..constraints).map(|i| format!("l{i}")).collect();
    names.push("q".to_owned());
    let labels = LabelInterner::with_labels(&names);
    let alpha: Vec<Label> = labels.labels().take(constraints).collect();
    let q = labels.get("q").unwrap();
    let sigma = (0..constraints)
        .map(|i| {
            PathConstraint::word(
                Path::single(alpha[0]),
                Path::from_labels([alpha[i], alpha[0]]),
            )
        })
        .collect();
    let phi = PathConstraint::word(Path::single(alpha[0]), Path::single(q));
    ChaseInstance { labels, sigma, phi }
}

/// Generates the sparse chase workload: the relay `s_i → s_{i+1}` for
/// each `i < constraints`, with φ = `s0 → q`.
///
/// Each rule's hypothesis alphabet `{s_i}` is disjoint from every other
/// rule's, and round `i` violates rule `i` alone: its repair adds the one
/// `s_{i+1}` edge that rule `i + 1` fires on next. The chase reaches a
/// fixpoint after `constraints` repairs (`constraints + 1` rounds) and
/// refutes φ, while a full rescan scans all of Σ in every round.
pub fn gen_sparse_chase_instance(constraints: usize) -> ChaseInstance {
    assert!(constraints >= 1);
    let mut names: Vec<String> = (0..=constraints).map(|i| format!("s{i}")).collect();
    names.push("q".to_owned());
    let labels = LabelInterner::with_labels(&names);
    let s: Vec<Label> = labels.labels().take(constraints + 1).collect();
    let q = labels.get("q").unwrap();
    let sigma = (0..constraints)
        .map(|i| PathConstraint::word(Path::single(s[i]), Path::single(s[i + 1])))
        .collect();
    let phi = PathConstraint::word(Path::single(s[0]), Path::single(q));
    ChaseInstance { labels, sigma, phi }
}

/// Generates the merge-heavy chase workload: the equalities `p_i → ε`
/// for each `i < constraints`, with φ = `w → ε` for the word `w` of
/// length `len` that cycles through `p_0 … p_{k-1}`.
///
/// The ¬φ pattern is the path `w` from the root. Each round merges the
/// root's one non-root successor into the root (which ends the round),
/// so the chase applies `len` merges in `len` rounds, after which the
/// pattern's end is the root and φ is `Implied`.
pub fn gen_merge_chase_instance(constraints: usize, len: usize) -> ChaseInstance {
    assert!(constraints >= 1);
    let names: Vec<String> = (0..constraints).map(|i| format!("p{i}")).collect();
    let labels = LabelInterner::with_labels(&names);
    let p: Vec<Label> = labels.labels().collect();
    let sigma = p
        .iter()
        .map(|&l| PathConstraint::word(Path::single(l), Path::empty()))
        .collect();
    let w = Path::from_labels((0..len).map(|i| p[i % constraints]));
    let phi = PathConstraint::word(w, Path::empty());
    ChaseInstance { labels, sigma, phi }
}

/// A generated local-extent implication instance (Definition 2.4 shape).
#[derive(Clone, Debug)]
pub struct LocalExtentInstance {
    /// The labels used.
    pub labels: LabelInterner,
    /// Σ with prefix bounded by `(π, K)`.
    pub sigma: Vec<PathConstraint>,
    /// A query bounded by `(π, K)`.
    pub phi: PathConstraint,
}

/// Generates a local-extent instance: `bounded` constraints on the local
/// database plus `others` constraints on sibling databases.
pub fn gen_local_extent_instance(
    bounded: usize,
    others: usize,
    alphabet: usize,
    max_len: usize,
    seed: u64,
) -> LocalExtentInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut names: Vec<String> = (0..alphabet).map(|i| format!("l{i}")).collect();
    names.push("K".to_owned());
    names.push("W".to_owned());
    names.push("pi".to_owned());
    let labels = LabelInterner::with_labels(&names);
    let alpha: Vec<Label> = labels.labels().take(alphabet).collect();
    let k = labels.get("K").unwrap();
    let w = labels.get("W").unwrap();
    let pi = Path::single(labels.get("pi").unwrap());
    let pi_k = pi.push(k);

    let word = |rng: &mut StdRng, min: usize| -> Path {
        let len = rng.gen_range(min..=max_len.max(min));
        Path::from_labels((0..len).map(|_| alpha[rng.gen_range(0..alpha.len())]))
    };

    let mut sigma = Vec::new();
    for _ in 0..bounded {
        sigma.push(PathConstraint::forward(
            pi_k.clone(),
            word(&mut rng, 1),
            word(&mut rng, 0),
        ));
    }
    for i in 0..others {
        // Constraints on a sibling database W (prefix π·W·…).
        let prefix = pi.push(w);
        if i % 2 == 0 {
            sigma.push(PathConstraint::forward(
                prefix,
                word(&mut rng, 1),
                word(&mut rng, 0),
            ));
        } else {
            sigma.push(PathConstraint::backward(
                prefix,
                word(&mut rng, 1),
                word(&mut rng, 0),
            ));
        }
    }
    let phi = PathConstraint::forward(pi_k, word(&mut rng, 1), word(&mut rng, 0));
    LocalExtentInstance { labels, sigma, phi }
}

/// A generated `M`-schema implication instance.
#[derive(Clone, Debug)]
pub struct MInstance {
    /// The labels used.
    pub labels: LabelInterner,
    /// The schema (model `M`).
    pub schema: Schema,
    /// Its type graph.
    pub type_graph: TypeGraph,
    /// Σ: `P_c` constraints over `Paths(σ)`.
    pub sigma: Vec<PathConstraint>,
    /// The query.
    pub phi: PathConstraint,
}

/// Builds a recursive `M` schema with `classes` classes: class `C_i` has
/// fields `f: C_{i+1 mod n}`, `g: C_{(i*7+3) mod n}` and `v: string`, and
/// `DBtype = [c0: C_0, …]` with `entries` entry fields.
pub fn gen_m_schema(classes: usize, labels: &mut LabelInterner) -> Schema {
    assert!(classes >= 1);
    let mut builder = SchemaBuilder::new();
    let string = builder.atom("string");
    let ids: Vec<_> = (0..classes)
        .map(|i| builder.declare_class(&format!("C{i}")))
        .collect();
    let f = labels.intern("f");
    let g = labels.intern("g");
    let v = labels.intern("v");
    for (i, &class) in ids.iter().enumerate() {
        builder.define_class(
            class,
            TypeExpr::Record(vec![
                (f, TypeExpr::Class(ids[(i + 1) % classes])),
                (g, TypeExpr::Class(ids[(i * 7 + 3) % classes])),
                (v, TypeExpr::Atom(string)),
            ]),
        );
    }
    let entry = labels.intern("c0");
    builder
        .finish(TypeExpr::Record(vec![(entry, TypeExpr::Class(ids[0]))]))
        .expect("generated schema is well-formed")
}

/// Generates an `M` instance: `constraints` equations between same-type
/// paths of length up to `max_len` plus a same-type query.
pub fn gen_m_instance(classes: usize, constraints: usize, max_len: usize, seed: u64) -> MInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = LabelInterner::new();
    let schema = gen_m_schema(classes, &mut labels);
    let type_graph = TypeGraph::build(&schema, &mut labels);

    // Enumerate paths up to max_len, bucketed by type.
    let dfa = type_graph.to_dfa();
    let words = dfa.readable_up_to(max_len);
    let mut buckets: std::collections::HashMap<TypeNodeId, Vec<Path>> =
        std::collections::HashMap::new();
    for w in words {
        let t = type_graph.type_of_path(&w).expect("readable");
        buckets.entry(t).or_default().push(Path::from_labels(w));
    }
    let rich: Vec<&Vec<Path>> = buckets.values().filter(|v| v.len() >= 2).collect();
    assert!(!rich.is_empty(), "schema must admit same-type path pairs");

    let pair = |rng: &mut StdRng| -> (Path, Path) {
        let bucket = rich[rng.gen_range(0..rich.len())];
        let x = bucket[rng.gen_range(0..bucket.len())].clone();
        let y = bucket[rng.gen_range(0..bucket.len())].clone();
        (x, y)
    };

    let sigma: Vec<PathConstraint> = (0..constraints)
        .map(|_| {
            let (x, y) = pair(&mut rng);
            PathConstraint::word(x, y)
        })
        .collect();
    let (x, y) = pair(&mut rng);
    let phi = PathConstraint::word(x, y);
    MInstance {
        labels,
        schema,
        type_graph,
        sigma,
        phi,
    }
}

/// One monoid word-problem test pair with hand-verified ground truth for
/// *both* problems (they can differ: in the bicyclic monoid `qp ≢ ε`, yet
/// every finite quotient makes `p` invertible and hence `qp = ε`, so
/// `Δ ⊨_f (qp, ε)` while `Δ ⊭ (qp, ε)`).
#[derive(Clone, Debug)]
pub struct MonoidTestCase {
    /// Left word.
    pub alpha: Vec<u32>,
    /// Right word.
    pub beta: Vec<u32>,
    /// Ground truth for the unrestricted problem `Δ ⊨ (α, β)`.
    pub equal: bool,
    /// Ground truth for the finite problem `Δ ⊨_f (α, β)`.
    pub finitely_equal: bool,
}

impl MonoidTestCase {
    fn uniform(alpha: Vec<u32>, beta: Vec<u32>, equal: bool) -> MonoidTestCase {
        MonoidTestCase {
            alpha,
            beta,
            equal,
            finitely_equal: equal,
        }
    }
}

/// A monoid word-problem case with its known answers, used to check
/// reduction faithfulness.
#[derive(Clone, Debug)]
pub struct MonoidCase {
    /// Readable description.
    pub name: &'static str,
    /// The presentation.
    pub presentation: Presentation,
    /// Test pairs with known ground truth.
    pub cases: Vec<MonoidTestCase>,
}

/// A corpus of presentations with decidable-in-practice word problems and
/// hand-verified answers — the instances on which Lemmas 4.5 / 5.4 are
/// machine-checked.
pub fn monoid_corpus() -> Vec<MonoidCase> {
    let mut corpus = Vec::new();
    let c = MonoidTestCase::uniform;

    let free = Presentation::free(["x", "y"]);
    corpus.push(MonoidCase {
        name: "free⟨x,y⟩",
        presentation: free,
        cases: vec![
            c(vec![0, 1], vec![0, 1], true),
            c(vec![0, 1], vec![1, 0], false),
            c(vec![0], vec![0, 0], false),
        ],
    });

    let mut comm = Presentation::free(["x", "y"]);
    comm.add_equation(vec![0, 1], vec![1, 0]);
    corpus.push(MonoidCase {
        name: "⟨x,y | xy=yx⟩",
        presentation: comm,
        cases: vec![
            c(vec![0, 1], vec![1, 0], true),
            c(vec![0, 1, 0], vec![0, 0, 1], true),
            c(vec![0, 1], vec![0, 0, 1], false),
        ],
    });

    let mut z3 = Presentation::free(["x"]);
    z3.add_equation(vec![0, 0, 0], vec![]);
    corpus.push(MonoidCase {
        name: "Z3 = ⟨x | x³=ε⟩",
        presentation: z3,
        cases: vec![
            c(vec![0, 0, 0, 0], vec![0], true),
            c(vec![0, 0], vec![0], false),
            c(vec![0; 6], vec![], true),
        ],
    });

    let mut idem = Presentation::free(["x", "y"]);
    idem.add_equation(vec![0, 0], vec![0]);
    idem.add_equation(vec![1, 1], vec![1]);
    corpus.push(MonoidCase {
        name: "⟨x,y | x²=x, y²=y⟩",
        presentation: idem,
        cases: vec![
            c(vec![0, 0, 1], vec![0, 1], true),
            c(vec![0, 1, 1, 0], vec![0, 1, 0], true),
            c(vec![0, 1], vec![1, 0], false),
        ],
    });

    let mut bicyclic = Presentation::free(["p", "q"]);
    bicyclic.add_equation(vec![0, 1], vec![]);
    corpus.push(MonoidCase {
        name: "bicyclic ⟨p,q | pq=ε⟩",
        presentation: bicyclic,
        cases: vec![
            c(vec![0, 0, 1, 1], vec![], true),
            // qp ≢ ε, but qp = ε in every *finite* quotient: the case
            // that separates implication from finite implication.
            MonoidTestCase {
                alpha: vec![1, 0],
                beta: vec![],
                equal: false,
                finitely_equal: true,
            },
            c(vec![0, 1, 0], vec![0], true),
        ],
    });

    corpus
}

/// A scaled-up Figure 1: a random bibliography graph whose construction
/// preserves the Section 1 constraints (extent, inverse, ref-closure) by
/// design — the realistic satisfaction/checking workload.
#[derive(Clone, Debug)]
pub struct Bibliography {
    /// The labels used (book, person, author, wrote, ref, title, name).
    pub labels: LabelInterner,
    /// The document graph.
    pub graph: pathcons_graph::Graph,
    /// The Section 1 constraints, all of which hold by construction.
    pub constraints: Vec<PathConstraint>,
}

/// Generates a bibliography with `books` books and `persons` persons;
/// every book gets 1–3 authors with matching inverse `wrote` edges, and
/// ~30% of books reference another book.
pub fn gen_bibliography(books: usize, persons: usize, seed: u64) -> Bibliography {
    assert!(books >= 1 && persons >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = LabelInterner::new();
    let book_l = labels.intern("book");
    let person_l = labels.intern("person");
    let author_l = labels.intern("author");
    let wrote_l = labels.intern("wrote");
    let ref_l = labels.intern("ref");
    let title_l = labels.intern("title");
    let name_l = labels.intern("name");

    let mut graph = pathcons_graph::Graph::new();
    let root = graph.root();
    let book_nodes: Vec<_> = (0..books)
        .map(|_| {
            let b = graph.add_node();
            graph.add_edge(root, book_l, b);
            let t = graph.add_node();
            graph.add_edge(b, title_l, t);
            b
        })
        .collect();
    let person_nodes: Vec<_> = (0..persons)
        .map(|_| {
            let p = graph.add_node();
            graph.add_edge(root, person_l, p);
            let n = graph.add_node();
            graph.add_edge(p, name_l, n);
            p
        })
        .collect();
    for &b in &book_nodes {
        let n_authors = rng.gen_range(1..=3.min(persons));
        for _ in 0..n_authors {
            let p = person_nodes[rng.gen_range(0..persons)];
            graph.add_edge(b, author_l, p);
            graph.add_edge(p, wrote_l, b); // inverse by construction
        }
        if books > 1 && rng.gen_bool(0.3) {
            let other = book_nodes[rng.gen_range(0..books)];
            graph.add_edge(b, ref_l, other);
        }
    }

    let constraints = pathcons_constraints::parse_constraints(
        "book.author -> person\n\
         person.wrote -> book\n\
         book.ref -> book\n\
         book: author <- wrote\n\
         person: wrote <- author",
        &mut labels,
    )
    .expect("fixed constraint text");
    Bibliography {
        labels,
        graph,
        constraints,
    }
}

/// Schema version of the shared `meta` header embedded in every
/// `BENCH_*.json` file. Bump when the header shape changes.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Renders the shared `"meta"` header object every `BENCH_*.json`
/// emitter embeds: schema version, the rustc that built the bench,
/// available hardware threads, and a one-line workload-shape
/// description. One helper so the files stay comparable across
/// benchmarks and machines.
pub fn bench_meta(workload: &str) -> String {
    let rustc =
        std::process::Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|v| v.trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        r#"{{"schema": {BENCH_SCHEMA_VERSION}, "rustc": "{}", "threads": {threads}, "workload": "{}"}}"#,
        json_escape(&rustc),
        json_escape(workload)
    )
}

/// Milliseconds elapsed running `f` once.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Median wall time in milliseconds over `reps` runs.
pub fn median_time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| time_ms(&mut f).1).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// polynomial degree of a scaling series.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-9).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// One timed scaling series of `BENCH_table1.json`: the median wall time
/// at each instance size, fitted to a log–log slope.
#[derive(Clone, Debug)]
pub struct Series {
    /// Series key (`word`, `local_extent`, …).
    pub name: &'static str,
    /// What the size axis counts.
    pub size: &'static str,
    /// `(size, median_ms)` points, in sweep order.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// The empirical polynomial degree of the series in its size.
    pub fn slope(&self) -> f64 {
        let points: Vec<(f64, f64)> = self.points.iter().map(|&(n, ms)| (n as f64, ms)).collect();
        log_log_slope(&points)
    }
}

/// What the semi-deciders settled on one undecidable Table 1 cell's
/// monoid corpus, checked against the oracle's ground truth.
#[derive(Clone, Debug, Default)]
pub struct UndecidableCell {
    /// Cell key.
    pub name: &'static str,
    /// Cases the encoded instance settled, agreeing with the oracle.
    pub conclusive: usize,
    /// Cases run.
    pub total: usize,
    /// Cases the encoded instance settled against the oracle.
    pub disagreements: usize,
}

/// Renders `BENCH_table1.json`: the shared meta header, each series'
/// points and slope (`null` when the fit is not finite), and the
/// undecidable cells' counts.
pub fn table1_document(workload: &str, series: &[Series], cells: &[UndecidableCell]) -> String {
    let series: Vec<String> = series
        .iter()
        .map(|s| {
            let points: Vec<String> = s
                .points
                .iter()
                .map(|&(n, ms)| format!(r#"{{"size": {n}, "median_ms": {ms:.4}}}"#))
                .collect();
            let slope = s.slope();
            let slope = if slope.is_finite() {
                format!("{slope:.3}")
            } else {
                "null".to_owned()
            };
            format!(
                r#"{{"name": "{}", "size": "{}", "points": [{}], "slope": {slope}}}"#,
                json_escape(s.name),
                json_escape(s.size),
                points.join(", ")
            )
        })
        .collect();
    let cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                r#"{{"name": "{}", "conclusive": {}, "total": {}, "disagreements": {}}}"#,
                json_escape(c.name),
                c.conclusive,
                c.total,
                c.disagreements
            )
        })
        .collect();
    format!(
        "{{\n  \"meta\": {},\n  \"series\": [\n    {}\n  ],\n  \"undecidable\": [\n    {}\n  ]\n}}\n",
        bench_meta(workload),
        series.join(",\n    "),
        cells.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcons_core::WordEngine;
    use pathcons_types::Model;

    #[test]
    fn word_instances_are_well_formed() {
        for seed in 0..10 {
            let inst = gen_word_instance(8, 3, 4, seed);
            assert!(inst.sigma.iter().all(|c| c.is_word()));
            assert!(inst.phi.is_word());
            // They feed the engine without errors.
            let engine = WordEngine::new(&inst.sigma).unwrap();
            let _ = engine.implies(&inst.phi).unwrap();
        }
    }

    #[test]
    fn chained_queries_are_often_implied() {
        let mut implied = 0;
        for seed in 0..40 {
            let inst = gen_word_instance(8, 3, 4, seed);
            let engine = WordEngine::new(&inst.sigma).unwrap();
            if engine.implies(&inst.phi).unwrap() {
                implied += 1;
            }
        }
        assert!(
            implied >= 10,
            "only {implied}/40 implied — generator drifted"
        );
    }

    #[test]
    fn chase_instances_diverge_under_both_engines() {
        use pathcons_core::{Budget, Outcome};
        let inst = gen_chase_instance(4);
        let budget = Budget {
            chase_rounds: 8,
            chase_max_nodes: 1 << 20,
            ..Budget::default()
        };
        for outcome in [
            pathcons_core::chase_implication(&inst.sigma, &inst.phi, &budget),
            pathcons_core::chase_implication_reference(&inst.sigma, &inst.phi, &budget),
        ] {
            assert!(
                matches!(outcome, Outcome::Unknown(_)),
                "workload must exhaust the round budget, got {outcome:?}"
            );
        }
    }

    #[test]
    fn sparse_and_merge_instances_decide_in_the_expected_rounds() {
        use pathcons_core::{Budget, Outcome};
        let budget = |rounds| Budget {
            chase_rounds: rounds,
            chase_max_nodes: 1 << 20,
            ..Budget::default()
        };
        let sparse = gen_sparse_chase_instance(8);
        let merge = gen_merge_chase_instance(3, 8);
        for (inst, rounds, implied) in [(&sparse, 9, false), (&merge, 8, true)] {
            for outcome in [
                pathcons_core::chase_implication(&inst.sigma, &inst.phi, &budget(rounds)),
                pathcons_core::chase_implication_reference(&inst.sigma, &inst.phi, &budget(rounds)),
            ] {
                match outcome {
                    Outcome::Implied(_) => assert!(implied, "{:?}", inst.phi),
                    Outcome::NotImplied(_) => assert!(!implied, "{:?}", inst.phi),
                    other => panic!("{:?}: expected a decision, got {other:?}", inst.phi),
                }
            }
            // One round fewer leaves both shapes undecided.
            let short =
                pathcons_core::chase_implication(&inst.sigma, &inst.phi, &budget(rounds - 1));
            assert!(matches!(short, Outcome::Unknown(_)), "{short:?}");
        }
    }

    #[test]
    fn local_extent_instances_are_valid_families() {
        for seed in 0..10 {
            let inst = gen_local_extent_instance(5, 5, 3, 4, seed);
            // A valid family either decides or declines an ε-collapsing
            // negative to the chase; it is never malformed.
            match pathcons_core::local_extent_implies(&inst.sigma, &inst.phi) {
                Ok(answer) => assert!(!answer.outcome.is_unknown()),
                Err(pathcons_core::LocalExtentError::EpsilonCollapse) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
    }

    #[test]
    fn m_instances_are_valid() {
        for seed in 0..5 {
            let inst = gen_m_instance(4, 6, 4, seed);
            assert_eq!(inst.schema.model(), Model::M);
            let outcome =
                pathcons_core::m_implies(&inst.schema, &inst.type_graph, &inst.sigma, &inst.phi)
                    .unwrap();
            assert!(!outcome.is_unknown());
        }
    }

    #[test]
    fn corpus_answers_match_knuth_bendix() {
        use pathcons_monoid::{
            decide_finite_word_problem, decide_word_problem, WordProblemAnswer, WordProblemBudget,
        };
        let budget = WordProblemBudget::default();
        for case in monoid_corpus() {
            for tc in &case.cases {
                match decide_word_problem(&case.presentation, &tc.alpha, &tc.beta, &budget) {
                    WordProblemAnswer::Equal(_) => {
                        assert!(tc.equal, "{}: expected not-equal", case.name)
                    }
                    WordProblemAnswer::NotEqual(_) => {
                        assert!(!tc.equal, "{}: expected equal", case.name)
                    }
                    WordProblemAnswer::Unknown => {
                        panic!("{}: oracle inconclusive on corpus case", case.name)
                    }
                }
                // The finite-problem oracle must never contradict the
                // ground truth (it may be inconclusive, e.g. bicyclic
                // qp ≟ ε where no finite witness exists and equality is
                // not congruence-provable).
                match decide_finite_word_problem(&case.presentation, &tc.alpha, &tc.beta, &budget) {
                    WordProblemAnswer::Equal(_) => {
                        assert!(tc.finitely_equal, "{}: unsound finite-equal", case.name)
                    }
                    WordProblemAnswer::NotEqual(_) => {
                        assert!(
                            !tc.finitely_equal,
                            "{}: unsound finite-not-equal",
                            case.name
                        )
                    }
                    WordProblemAnswer::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn bench_meta_header_is_valid_json() {
        let meta = bench_meta("shape with \"quotes\" and \\slashes");
        let parsed = pathcons_engine::Json::parse(&meta).expect("meta header parses as JSON");
        assert_eq!(
            parsed.get("schema").and_then(pathcons_engine::Json::as_u64),
            Some(BENCH_SCHEMA_VERSION as u64)
        );
        assert_eq!(
            parsed
                .get("workload")
                .and_then(pathcons_engine::Json::as_str),
            Some("shape with \"quotes\" and \\slashes")
        );
        assert!(parsed
            .get("threads")
            .and_then(pathcons_engine::Json::as_u64)
            .is_some_and(|n| n >= 1));
        assert!(parsed
            .get("rustc")
            .and_then(pathcons_engine::Json::as_str)
            .is_some());
    }

    #[test]
    fn table1_document_parses_with_meta_and_slope() {
        use pathcons_engine::Json;
        let cubic = Series {
            name: "cubic",
            size: "n",
            points: (1..=6).map(|n| (n, (n as f64).powi(3))).collect(),
        };
        let cell = UndecidableCell {
            name: "cell",
            conclusive: 2,
            total: 3,
            disagreements: 0,
        };
        let doc = table1_document("synthetic", &[cubic], &[cell]);
        let parsed = Json::parse(&doc).expect("Table 1 document parses as JSON");
        assert_eq!(
            parsed
                .get("meta")
                .and_then(|m| m.get("schema"))
                .and_then(Json::as_u64),
            Some(BENCH_SCHEMA_VERSION as u64)
        );
        let series = parsed.get("series").and_then(Json::as_array).unwrap();
        assert_eq!(
            series[0]
                .get("points")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            6
        );
        let slope = series[0].get("slope").and_then(Json::as_f64).unwrap();
        assert!((slope - 3.0).abs() < 1e-3, "cubic slope read {slope}");
    }

    #[test]
    fn slope_of_cubic_series_is_three() {
        let pts: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i as f64).powi(3))).collect();
        let slope = log_log_slope(&pts);
        assert!((slope - 3.0).abs() < 1e-6);
    }
}

#[cfg(test)]
mod bibliography_tests {
    use super::*;
    use pathcons_constraints::all_hold;

    #[test]
    fn generated_bibliographies_satisfy_their_constraints() {
        for seed in 0..10 {
            let bib = gen_bibliography(20, 8, seed);
            assert!(all_hold(&bib.graph, &bib.constraints), "seed {seed}");
        }
    }

    #[test]
    fn bibliography_scales_linearly_in_inputs() {
        let small = gen_bibliography(10, 5, 1);
        let large = gen_bibliography(100, 50, 1);
        assert!(large.graph.node_count() > small.graph.node_count() * 5);
    }
}
