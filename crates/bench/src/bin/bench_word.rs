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
//! `--smoke` runs a scaled-down grid (seconds, used by CI); the default
//! run covers the full grid and asserts the amortization floor on the
//! headline cell: answering the query mix through a shared cache at
//! least 2x faster than re-saturating per query.

use pathcons_bench::{bench_meta, gen_word_instance, median_time_ms};
use pathcons_constraints::{Path, PathConstraint};
use pathcons_core::WordEngine;
use pathcons_graph::Label;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

struct Cell {
    constraints: usize,
    max_len: usize,
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
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-6)
    }
}

fn measure_cell(
    constraints: usize,
    alphabet: usize,
    max_len: usize,
    queries: usize,
    distinct_lhs: usize,
    reps: usize,
    seed: u64,
) -> Cell {
    let inst = gen_word_instance(constraints, alphabet, max_len, seed);
    let alpha: Vec<Label> = inst.labels.labels().collect();
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
    let engine = WordEngine::new(&inst.sigma).expect("generated sigma is word constraints");
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
        let engine = WordEngine::new(&inst.sigma).expect("word sigma");
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
    Cell {
        constraints,
        max_len,
        queries,
        distinct_lhs,
        cold_ms,
        warm_ms,
        saturation_ms,
        membership_ms,
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

    let alphabet = 4;
    let (grid, queries, distinct_lhs, reps): (Vec<(usize, usize)>, usize, usize, usize) = if smoke {
        (vec![(8, 4), (32, 6)], 16, 4, 3)
    } else {
        (
            vec![(8, 4), (8, 8), (32, 4), (32, 8), (128, 4), (128, 8)],
            64,
            4,
            5,
        )
    };

    let mut cells = Vec::new();
    for &(constraints, max_len) in &grid {
        let cell = measure_cell(
            constraints,
            alphabet,
            max_len,
            queries,
            distinct_lhs,
            reps,
            7,
        );
        println!(
            "{:>4} constraints, len<= {}: cold {:>9.3} ms, warm {:>9.3} ms ({:>6.1}x) | saturation {:>8.3} ms vs {} memberships {:>8.3} ms",
            cell.constraints,
            cell.max_len,
            cell.cold_ms,
            cell.warm_ms,
            cell.speedup(),
            cell.saturation_ms,
            cell.queries,
            cell.membership_ms,
        );
        cells.push(cell);
    }

    // The headline cell: the largest grid point must show the
    // amortization the shared-context layer banks on.
    if !smoke {
        let headline = cells.last().expect("grid is non-empty");
        assert!(
            headline.speedup() >= 2.0,
            "shared word cache fell below the 2x floor over per-query saturation: {:.2}x",
            headline.speedup()
        );
    }

    let workload = format!(
        "word implication grids over alphabet {alphabet}: {queries} queries per cell, {distinct_lhs} distinct lhs; cold = post* per query, warm = cached post* + membership"
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
            "    {{\"constraints\": {}, \"max_len\": {}, \"queries\": {}, \"distinct_lhs\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.2}, \"saturation_ms\": {:.3}, \"membership_ms\": {:.3}}}{}",
            c.constraints,
            c.max_len,
            c.queries,
            c.distinct_lhs,
            c.cold_ms,
            c.warm_ms,
            c.speedup(),
            c.saturation_ms,
            c.membership_ms,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write results");
    println!("wrote {out}");
}
