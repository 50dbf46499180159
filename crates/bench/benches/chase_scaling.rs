//! Chase engine scaling: incremental (dirty-constraint worklist, in-place
//! merges) vs the full-rescan reference, on the growing-graph
//! cascade workload of [`pathcons_bench::gen_chase_instance`].
//!
//! The grid varies the round budget (how far the graph grows) and the
//! constraint-set size (how many rules are rescanned per round). Both
//! engines do the same `rounds × constraints` repairs; only violation
//! detection and bookkeeping differ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathcons_bench::gen_chase_instance;
use pathcons_core::{chase_implication, chase_implication_reference, Budget};

fn budget(rounds: usize) -> Budget {
    Budget {
        chase_rounds: rounds,
        chase_max_nodes: 1 << 20,
        ..Budget::default()
    }
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/rounds");
    let inst = gen_chase_instance(16);
    for &rounds in &[16usize, 32, 64] {
        let budget = budget(rounds);
        group.throughput(Throughput::Elements((rounds * inst.sigma.len()) as u64));
        group.bench_with_input(BenchmarkId::new("incremental", rounds), &rounds, |b, _| {
            b.iter(|| std::hint::black_box(chase_implication(&inst.sigma, &inst.phi, &budget)))
        });
        group.bench_with_input(BenchmarkId::new("reference", rounds), &rounds, |b, _| {
            b.iter(|| {
                std::hint::black_box(chase_implication_reference(&inst.sigma, &inst.phi, &budget))
            })
        });
    }
    group.finish();
}

fn bench_constraints(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/constraints");
    let budget = budget(32);
    for &k in &[4usize, 8, 16] {
        let inst = gen_chase_instance(k);
        group.throughput(Throughput::Elements((32 * k) as u64));
        group.bench_with_input(BenchmarkId::new("incremental", k), &k, |b, _| {
            b.iter(|| std::hint::black_box(chase_implication(&inst.sigma, &inst.phi, &budget)))
        });
        group.bench_with_input(BenchmarkId::new("reference", k), &k, |b, _| {
            b.iter(|| {
                std::hint::black_box(chase_implication_reference(&inst.sigma, &inst.phi, &budget))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rounds, bench_constraints);
criterion_main!(benches);
