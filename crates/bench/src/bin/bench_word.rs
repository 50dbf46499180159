//! Word-tier amortization baseline: what one `post*` saturation costs
//! against one NFA membership on the cached automaton. `reaches(lhs,
//! rhs)` *is* `post_star(lhs).accepts(rhs)`, so a context that caches
//! the saturated automaton answers every later query on the same lhs at
//! membership cost — this benchmark measures the gap that makes the
//! shared-context layer worth having, on a Table-1-style grid over
//! constraint count and word length. Results go to `BENCH_word.json`.
//!
//! Usage:
//!
//! ```text
//! bench_word [--smoke] [--out PATH]
//! ```
//!
//! Besides the grid, one resident-shaped cell mirrors servebench's
//! `resident_word` context: 128 distinct rules over 8 labels, lhs of 1–2
//! labels, rhs of 1–3. A wide cell keeps that rule shape over a large
//! alphabet (1 024 rules over 1 024 labels; 256 over 256 in the smoke
//! run), where an automaton has many states and labels but few
//! transitions. Every cell also reports the heap bytes of a memoized
//! automaton.
//!
//! `--smoke` runs a scaled-down grid (seconds, used by CI); the default
//! run covers the full grid and asserts the amortization floor on the
//! headline cell: answering the query mix through a shared cache at
//! least 2x faster than re-saturating per query. Both assert that every
//! memoized verdict matches a fresh saturation.

use pathcons_bench::{bench_meta, gen_word_instance, median_time_ms};
use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::WordEngine;
use pathcons_graph::{Label, LabelInterner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// A cell's theory: `constraints` rules over `alphabet` labels, lhs of
/// 1 to `max_lhs` labels and rhs of `min_rhs` to `max_rhs`.
#[derive(Clone, Copy)]
struct Shape {
    /// Generated by [`gen_word_instance`], as Table 1's word series is.
    grid: bool,
    constraints: usize,
    alphabet: usize,
    max_lhs: usize,
    min_rhs: usize,
    max_rhs: usize,
}

impl Shape {
    /// A Table-1 grid cell: [`gen_word_instance`]'s paths of up to
    /// `max_len` labels over 4.
    fn grid(constraints: usize, max_len: usize) -> Shape {
        Shape {
            grid: true,
            constraints,
            alphabet: 4,
            max_lhs: max_len,
            min_rhs: 0,
            max_rhs: max_len,
        }
    }

    /// servebench's `resident_word` context.
    const RESIDENT: Shape = Shape {
        grid: false,
        constraints: 128,
        alphabet: 8,
        max_lhs: 2,
        min_rhs: 1,
        max_rhs: 3,
    };

    /// The resident rule shape, `constraints` rules over as many labels.
    fn wide(constraints: usize) -> Shape {
        Shape {
            constraints,
            alphabet: constraints,
            ..Shape::RESIDENT
        }
    }

    /// The theory's labels and rules.
    fn sigma(&self, seed: u64) -> (LabelInterner, Vec<PathConstraint>) {
        if self.grid {
            let inst = gen_word_instance(self.constraints, self.alphabet, self.max_lhs, seed);
            return (inst.labels, inst.sigma);
        }
        let labels = LabelInterner::with_labels(
            (0..self.alphabet)
                .map(|i| format!("r{i}"))
                .collect::<Vec<_>>(),
        );
        let alpha: Vec<Label> = labels.labels().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut word = |min: usize, max: usize| -> Path {
            let len = rng.gen_range(min..=max);
            Path::from_labels((0..len).map(|_| alpha[rng.gen_range(0..alpha.len())]))
        };
        let mut sigma: Vec<PathConstraint> = Vec::with_capacity(self.constraints);
        while sigma.len() < self.constraints {
            let (lhs, rhs) = (word(1, self.max_lhs), word(self.min_rhs, self.max_rhs));
            let rule = PathConstraint::word(lhs.clone(), rhs.clone());
            if lhs != rhs && !sigma.contains(&rule) {
                sigma.push(rule);
            }
        }
        (labels, sigma)
    }
}

struct Cell {
    shape: Shape,
    queries: usize,
    distinct_lhs: usize,
    /// All queries, re-saturating `post*` for every one (the cold path).
    cold_ms: f64,
    /// All queries through a fresh memoizing engine: one saturation per
    /// distinct lhs, membership for the rest.
    warm_ms: f64,
    /// One `post*` saturation.
    saturation_ms: f64,
    /// All queries as bare membership against the cached automaton.
    membership_ms: f64,
    /// Heap bytes of a memoized `post*` automaton, mean over the
    /// distinct lhs.
    automaton_bytes: usize,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-6)
    }
}

fn measure_cell(shape: Shape, queries: usize, distinct_lhs: usize, reps: usize, seed: u64) -> Cell {
    let (labels, sigma) = shape.sigma(seed);
    let max_len = shape.max_lhs.max(shape.max_rhs);
    let alpha: Vec<Label> = labels.labels().collect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let mut word = |min: usize| -> Path {
        let len = rng.gen_range(min..=max_len.max(min));
        Path::from_labels((0..len).map(|_| alpha[rng.gen_range(0..alpha.len())]))
    };
    // Few distinct lhs across many rhs: the shared-context job shape.
    let lhs_pool: Vec<Path> = (0..distinct_lhs).map(|_| word(1)).collect();
    let qs: Vec<PathConstraint> = (0..queries)
        .map(|i| PathConstraint::word(lhs_pool[i % distinct_lhs].clone(), word(0)))
        .collect();

    // Both paths must agree on every verdict before timing means anything.
    let engine = WordEngine::new(&sigma).expect("generated sigma is word constraints");
    let cold = |q: &PathConstraint| engine.system().post_star(q.lhs()).accepts(q.rhs());
    for q in &qs {
        assert_eq!(
            cold(q),
            engine.implies_word(q.lhs(), q.rhs()),
            "memoized membership diverged from a fresh saturation on {q:?}"
        );
    }

    let cold_ms = median_time_ms(reps, || {
        for q in &qs {
            std::hint::black_box(cold(q));
        }
    });
    let warm_ms = median_time_ms(reps, || {
        let engine = WordEngine::new(&sigma).expect("word sigma");
        for q in &qs {
            std::hint::black_box(engine.implies_word(q.lhs(), q.rhs()));
        }
    });
    let saturation_ms = median_time_ms(reps, || {
        std::hint::black_box(engine.system().post_star(lhs_pool[0].labels()));
    });
    let nfa = engine.consequences(lhs_pool[0].labels());
    let membership_ms = median_time_ms(reps, || {
        for q in &qs {
            std::hint::black_box(nfa.accepts(q.rhs().labels()));
        }
    });
    let automaton_bytes = lhs_pool
        .iter()
        .map(|lhs| engine.consequences(lhs.labels()).heap_bytes())
        .sum::<usize>()
        / distinct_lhs;
    Cell {
        shape,
        queries,
        distinct_lhs,
        cold_ms,
        warm_ms,
        saturation_ms,
        membership_ms,
        automaton_bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_word.json".to_owned());

    let (grid, wide, queries, distinct_lhs, reps): (
        Vec<(usize, usize)>,
        usize,
        usize,
        usize,
        usize,
    ) = if smoke {
        (vec![(8, 4), (32, 6)], 256, 16, 4, 3)
    } else {
        (
            vec![(8, 4), (8, 8), (32, 4), (32, 8), (128, 4), (128, 8)],
            1024,
            64,
            4,
            5,
        )
    };
    let shapes = grid
        .iter()
        .map(|&(constraints, max_len)| Shape::grid(constraints, max_len))
        .chain([Shape::RESIDENT, Shape::wide(wide)]);

    let mut cells = Vec::new();
    for shape in shapes {
        let cell = measure_cell(shape, queries, distinct_lhs, reps, 7);
        println!(
            "{:>4} constraints over {} labels, lhs<= {}, rhs {}..={}: cold {:>9.3} ms, warm {:>9.3} ms ({:>6.1}x) | saturation {:>8.3} ms vs {} memberships {:>8.3} ms | automaton {} B",
            shape.constraints,
            shape.alphabet,
            shape.max_lhs,
            shape.min_rhs,
            shape.max_rhs,
            cell.cold_ms,
            cell.warm_ms,
            cell.speedup(),
            cell.saturation_ms,
            cell.queries,
            cell.membership_ms,
            cell.automaton_bytes,
        );
        cells.push(cell);
    }

    // The headline cell: the largest grid point must show the
    // amortization the shared-context layer banks on.
    if !smoke {
        let headline = cells
            .iter()
            .rev()
            .find(|c| c.shape.grid)
            .expect("grid is non-empty");
        assert!(
            headline.speedup() >= 2.0,
            "shared word cache fell below the 2x floor over per-query saturation: {:.2}x",
            headline.speedup()
        );
    }

    let workload = format!(
        "word implication grids over alphabet 4 plus a resident-shaped cell (128 rules over 8 labels, lhs <= 2, rhs 1..=3) and a wide one ({wide} such rules over {wide} labels): {queries} queries per cell, {distinct_lhs} distinct lhs; cold = post* per query, warm = cached post* + membership"
    );
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"meta\": {},", bench_meta(&workload));
    let _ = writeln!(json, "  \"workload\": \"{workload}\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"grid\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"constraints\": {}, \"alphabet\": {}, \"max_lhs\": {}, \"min_rhs\": {}, \"max_rhs\": {}, \"queries\": {}, \"distinct_lhs\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.2}, \"saturation_ms\": {:.3}, \"membership_ms\": {:.3}, \"automaton_bytes\": {}}}{}",
            c.shape.constraints,
            c.shape.alphabet,
            c.shape.max_lhs,
            c.shape.min_rhs,
            c.shape.max_rhs,
            c.queries,
            c.distinct_lhs,
            c.cold_ms,
            c.warm_ms,
            c.speedup(),
            c.saturation_ms,
            c.membership_ms,
            c.automaton_bytes,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write results");
    println!("wrote {out}");
}
