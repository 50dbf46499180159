//! Chase benchmark trajectory: measures the production chase against
//! the retained reference on three workload shapes and writes the
//! results to `BENCH_chase.json`:
//!
//! - `cascade`: the growing graph of `gen_chase_instance`, where every
//!   rule is violated every round until the round budget runs out;
//! - `sparse`: the relay of `gen_sparse_chase_instance`, where one rule
//!   of many fires per round (the shape a dirty-constraint worklist
//!   would skip most scans on);
//! - `merge`: the equalities of `gen_merge_chase_instance`, where every
//!   round merges one node.
//!
//! Both engines graft the ¬φ pattern and rescan all of Σ every round
//! with the same set-at-a-time `violations`; they differ in merges (in
//! place vs a rebuild). The full run only requires the production
//! engine to keep at least half the reference's speed at the cascade
//! headline point.
//!
//! Usage:
//!
//! ```text
//! bench_chase [--smoke] [--telemetry] [--out PATH]
//! ```
//!
//! `--smoke` runs a tiny grid (seconds, used by CI to keep the runner
//! honest); the default run covers the full grid, with a headline point
//! at 64 rounds × 16 constraints, and is the run committed to the repo.
//!
//! `--telemetry` additionally measures instrumentation overhead on the
//! headline 64×16 workload — the disabled path (`Telemetry::disabled`,
//! the monomorphized no-op fast path) against an enabled
//! [`DiscardRecorder`] (full dyn-dispatch emission, data dropped) — and
//! captures one attributed run with an [`InMemoryRecorder`] so the
//! phase breakdown lands in the JSON. In full mode the measured
//! emission overhead (discard vs disabled medians) must stay under 2%
//! — the ceiling on what instrumentation can possibly cost, since the
//! disabled path does strictly less work than the discard path.

use pathcons_bench::{
    bench_meta, gen_chase_instance, gen_merge_chase_instance, gen_sparse_chase_instance,
    median_time_ms, time_ms, ChaseInstance,
};
use pathcons_core::telemetry::{schema, DiscardRecorder, InMemoryRecorder};
use pathcons_core::{chase_implication, chase_implication_reference, Budget, Outcome, Telemetry};
use std::fmt::Write as _;
use std::sync::Arc;

struct Point {
    shape: &'static str,
    rounds: usize,
    constraints: usize,
    outcome: &'static str,
    reference_ms: f64,
    production_ms: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.production_ms.max(1e-6)
    }
}

fn verdict(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Implied(_) => "implied",
        Outcome::NotImplied(_) => "not-implied",
        Outcome::Unknown(_) => "unknown",
    }
}

/// One row: `inst` under a budget of `rounds` rounds, which must end in
/// `expected` under both engines.
fn measure(
    shape: &'static str,
    inst: &ChaseInstance,
    rounds: usize,
    expected: &'static str,
    reps: usize,
) -> Point {
    let budget = Budget {
        chase_rounds: rounds,
        chase_max_nodes: 1 << 20,
        ..Budget::default()
    };
    // Both engines must agree on the verdict before timing means anything.
    let production = chase_implication(&inst.sigma, &inst.phi, &budget);
    let reference = chase_implication_reference(&inst.sigma, &inst.phi, &budget);
    assert_eq!(verdict(&production), expected, "{shape}: production chase");
    assert_eq!(verdict(&reference), expected, "{shape}: reference chase");
    let production_ms = median_time_ms(reps, || {
        std::hint::black_box(chase_implication(&inst.sigma, &inst.phi, &budget))
    });
    let reference_ms = median_time_ms(reps, || {
        std::hint::black_box(chase_implication_reference(&inst.sigma, &inst.phi, &budget))
    });
    Point {
        shape,
        rounds,
        constraints: inst.sigma.len(),
        outcome: expected,
        reference_ms,
        production_ms,
    }
}

/// Instrumentation-overhead measurement on one grid point, plus the
/// budget attribution captured from an in-memory recorder run.
struct TelemetryPoint {
    rounds: usize,
    constraints: usize,
    disabled_ms: f64,
    discard_ms: f64,
    steps_total: u64,
    rounds_used: u64,
    rounds_budget: u64,
    reason: String,
    phases: Vec<(String, u64)>,
}

impl TelemetryPoint {
    fn overhead_pct(&self) -> f64 {
        (self.discard_ms / self.disabled_ms.max(1e-6) - 1.0) * 100.0
    }
}

fn measure_telemetry(rounds: usize, constraints: usize, reps: usize) -> TelemetryPoint {
    let inst = gen_chase_instance(constraints);
    let disabled = Budget {
        chase_rounds: rounds,
        chase_max_nodes: 1 << 20,
        ..Budget::default()
    };
    let discard = disabled
        .clone()
        .with_telemetry(Telemetry::new(Arc::new(DiscardRecorder)));
    // The difference being measured (~1%) is far below the machine's
    // run-to-run drift, so the two configurations are timed in adjacent
    // pairs and the overhead is the *median of paired deltas*: both
    // halves of a pair see the same ambient slowdown, which the
    // subtraction cancels — unlike separately-aggregated medians or
    // minima, which drift apart whenever load shifts mid-measurement.
    let mut disabled_samples = Vec::with_capacity(reps);
    let mut deltas = Vec::with_capacity(reps);
    for _ in 0..reps {
        let a =
            time_ms(|| std::hint::black_box(chase_implication(&inst.sigma, &inst.phi, &disabled)))
                .1;
        let b =
            time_ms(|| std::hint::black_box(chase_implication(&inst.sigma, &inst.phi, &discard))).1;
        disabled_samples.push(a);
        deltas.push(b - a);
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let disabled_ms = median(disabled_samples);
    let discard_ms = disabled_ms + median(deltas);

    // One attributed run: where did the budget go?
    let rec = Arc::new(InMemoryRecorder::new());
    let attributed = disabled.clone().with_telemetry(Telemetry::new(rec.clone()));
    let outcome = chase_implication(&inst.sigma, &inst.phi, &attributed);
    assert!(
        matches!(outcome, Outcome::Unknown(_)),
        "telemetry workload must exhaust the round budget"
    );
    let snap = rec.snapshot();
    assert!(snap.spans_balanced(), "spans unbalanced: {:?}", snap.spans);
    let attributions = snap.events_named(schema::EVENT_ATTRIBUTION);
    let att = attributions
        .first()
        .expect("an Unknown chase run must emit a budget attribution");
    let phases: Vec<(String, u64)> = att
        .fields
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix(schema::PHASE_PREFIX)
                .map(|p| (p.to_owned(), *v))
        })
        .collect();
    TelemetryPoint {
        rounds,
        constraints,
        disabled_ms,
        discard_ms,
        steps_total: att.field(schema::FIELD_STEPS_TOTAL).unwrap_or(0),
        rounds_used: att.field(schema::FIELD_ROUNDS_USED).unwrap_or(0),
        rounds_budget: att.field(schema::FIELD_ROUNDS_BUDGET).unwrap_or(0),
        reason: att.label(schema::LABEL_REASON).unwrap_or("?").to_owned(),
        phases,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_chase.json".to_owned());

    // Cascade rows are (rounds, constraints); a sparse relay of k rules
    // decides in k + 1 rounds, and a merge path (length L, k rules) in L.
    let reps = if smoke { 3 } else { 5 };
    let cascade: &[(usize, usize)] = if smoke {
        &[(8, 4), (16, 8)]
    } else {
        &[(16, 16), (32, 16), (64, 16), (64, 4), (64, 8), (128, 16)]
    };
    let sparse: &[usize] = if smoke { &[16] } else { &[64, 256] };
    let merge: &[(usize, usize)] = if smoke {
        &[(16, 4)]
    } else {
        &[(64, 16), (256, 16)]
    };

    let mut points = Vec::new();
    for &(rounds, constraints) in cascade {
        let inst = gen_chase_instance(constraints);
        points.push(measure("cascade", &inst, rounds, "unknown", reps));
    }
    for &constraints in sparse {
        let inst = gen_sparse_chase_instance(constraints);
        points.push(measure(
            "sparse",
            &inst,
            constraints + 1,
            "not-implied",
            reps,
        ));
    }
    for &(len, constraints) in merge {
        let inst = gen_merge_chase_instance(constraints, len);
        points.push(measure("merge", &inst, len, "implied", reps));
    }
    for p in &points {
        println!(
            "{:<7} {:>4} rounds x {:>3} constraints ({:<11}): reference {:>9.3} ms, production {:>8.3} ms, speedup {:>7.2}x",
            p.shape,
            p.rounds,
            p.constraints,
            p.outcome,
            p.reference_ms,
            p.production_ms,
            p.speedup()
        );
    }

    // The acceptance headline: the cascade at >= 64 rounds, >= 16
    // constraints.
    let headline = points
        .iter()
        .filter(|p| p.shape == "cascade" && p.rounds >= 64 && p.constraints >= 16)
        .max_by(|a, b| a.speedup().partial_cmp(&b.speedup()).unwrap());
    if let Some(h) = headline {
        println!(
            "headline ({} rounds x {} constraints): {:.1}x",
            h.rounds,
            h.constraints,
            h.speedup()
        );
        if !smoke {
            assert!(
                h.speedup() >= 0.5,
                "production chase fell below half the reference's speed: {:.2}x",
                h.speedup()
            );
        }
    }

    let telemetry_point = if telemetry {
        let (t_rounds, t_constraints, t_reps) = if smoke { (16, 8, 5) } else { (64, 16, 100) };
        let tp = measure_telemetry(t_rounds, t_constraints, t_reps);
        println!(
            "telemetry {:>4} rounds x {:>2} constraints: disabled {:>8.3} ms, discard {:>8.3} ms, overhead {:>+5.2}% ({} steps, {}/{} rounds, {})",
            tp.rounds,
            tp.constraints,
            tp.disabled_ms,
            tp.discard_ms,
            tp.overhead_pct(),
            tp.steps_total,
            tp.rounds_used,
            tp.rounds_budget,
            tp.reason,
        );
        if !smoke {
            assert!(
                tp.overhead_pct() < 2.0,
                "telemetry emission overhead broke the 2% ceiling: {:+.2}%",
                tp.overhead_pct()
            );
        }
        Some(tp)
    } else {
        None
    };

    let workload = "cascade l0 -> l_i.l0, phi = l0 -> q (never-terminating growth); sparse s_i -> s_i+1, phi = s0 -> q (one rule fires per round); merge p_i -> (), phi = (p_0..p_k-1)^* -> () (one merge per round)";
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"meta\": {},", bench_meta(workload));
    let _ = writeln!(json, "  \"workload\": \"{workload}\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"series\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{}\", \"rounds\": {}, \"constraints\": {}, \"outcome\": \"{}\", \"reference_ms\": {:.3}, \"production_ms\": {:.3}, \"speedup\": {:.2}}}{}",
            p.shape,
            p.rounds,
            p.constraints,
            p.outcome,
            p.reference_ms,
            p.production_ms,
            p.speedup(),
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    match &telemetry_point {
        None => json.push_str("  ]\n}\n"),
        Some(tp) => {
            json.push_str("  ],\n");
            json.push_str("  \"telemetry\": {\n");
            let _ = writeln!(
                json,
                "    \"rounds\": {}, \"constraints\": {},",
                tp.rounds, tp.constraints
            );
            let _ = writeln!(
                json,
                "    \"disabled_ms\": {:.3}, \"discard_ms\": {:.3}, \"overhead_pct\": {:.2},",
                tp.disabled_ms,
                tp.discard_ms,
                tp.overhead_pct()
            );
            let _ = writeln!(
                json,
                "    \"steps_total\": {}, \"rounds_used\": {}, \"rounds_budget\": {}, \"reason\": \"{}\",",
                tp.steps_total, tp.rounds_used, tp.rounds_budget, tp.reason
            );
            json.push_str("    \"phases\": {");
            for (i, (name, steps)) in tp.phases.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}\"{name}\": {steps}",
                    if i == 0 { "" } else { ", " }
                );
            }
            json.push_str("}\n  }\n}\n");
        }
    }
    std::fs::write(&out, json).expect("write BENCH_chase.json");
    println!("wrote {out}");
}
