//! Measures the *live* TxRace cells of the Table 1 grid — the runs an
//! event log cannot replace because the engine actively aborts, rolls
//! back, and redirects execution — under each speculative-state
//! versioning policy, and emits `BENCH_live.json`.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin bench_live [workers] [seed] > BENCH_live.json
//! ```
//!
//! One row per app: wall-clock (best of three, serial) for the default
//! undo-journal policy and the write-buffer oracle, plus the
//! undo-vs-buffer speedup. Detection outputs are asserted bit-identical
//! across both policies before any timing is reported — the policies may
//! only differ in simulator wall-clock, never in results.

use std::time::Instant;

use txrace::{Detector, RunOutcome, Scheme};
use txrace_bench::{geomean, json_rows, JsonValue};
use txrace_htm::{HtmConfig, VersionPolicy};
use txrace_workloads::{all_workloads, Workload};

/// Timed repetitions per (app, policy) cell; the minimum is reported.
const REPS: u32 = 3;

fn run_policy(w: &Workload, seed: u64, version: VersionPolicy) -> RunOutcome {
    let mut cfg = w.config(Scheme::txrace(), seed);
    cfg.htm = HtmConfig { version, ..cfg.htm };
    let out = Detector::new(cfg).run(&w.program);
    assert!(
        out.completed(),
        "{}: {version:?} run did not complete",
        w.name
    );
    out
}

/// Times one (app, policy) cell serially and returns (min wall ns, last
/// outcome).
fn time_policy(w: &Workload, seed: u64, version: VersionPolicy) -> (u64, RunOutcome) {
    let mut wall_ns = u64::MAX;
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = run_policy(w, seed, version);
        wall_ns = wall_ns.min(t0.elapsed().as_nanos() as u64);
        last = Some(out);
    }
    (wall_ns, last.expect("at least one repetition ran"))
}

/// All policies must agree on everything observable; only wall-clock may
/// differ.
fn assert_identical_outputs(
    app: &str,
    policy: VersionPolicy,
    oracle: &RunOutcome,
    out: &RunOutcome,
) {
    let tag = format!("{app} [{policy:?} vs Undo]");
    assert_eq!(
        oracle.races.reports(),
        out.races.reports(),
        "{tag}: race sets differ"
    );
    assert_eq!(oracle.breakdown, out.breakdown, "{tag}: cycles differ");
    assert_eq!(oracle.htm, out.htm, "{tag}: abort mixes differ");
    assert_eq!(oracle.engine, out.engine, "{tag}: engine stats differ");
    assert_eq!(oracle.memory, out.memory, "{tag}: final memory differs");
    assert_eq!(oracle.run, out.run, "{tag}: run results differ");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let mut rows = Vec::new();
    let mut speedups_buffer = Vec::new();
    let total_start = Instant::now();
    for w in all_workloads(workers) {
        let (undo_ns, undo) = time_policy(&w, seed, VersionPolicy::Undo);
        let (buffer_ns, buffer) = time_policy(&w, seed, VersionPolicy::Buffer);
        assert_identical_outputs(w.name, VersionPolicy::Buffer, &undo, &buffer);

        let vs_buffer = buffer_ns as f64 / undo_ns.max(1) as f64;
        speedups_buffer.push(vs_buffer);
        rows.push(vec![
            ("app", JsonValue::Str(w.name.to_string())),
            ("txrace_cycles", JsonValue::Int(undo.breakdown.total())),
            (
                "txrace_races",
                JsonValue::Int(undo.races.distinct_count() as u64),
            ),
            ("undo_wall_ns", JsonValue::Int(undo_ns)),
            ("buffer_wall_ns", JsonValue::Int(buffer_ns)),
            ("speedup_vs_buffer", JsonValue::Num(round3(vs_buffer))),
        ]);
    }
    rows.push(vec![
        ("app", JsonValue::Str("(total)".to_string())),
        ("workers", JsonValue::Int(workers as u64)),
        ("seed", JsonValue::Int(seed)),
        ("reps", JsonValue::Int(u64::from(REPS))),
        (
            "wall_ns",
            JsonValue::Int(total_start.elapsed().as_nanos() as u64),
        ),
        (
            "speedup_vs_buffer",
            JsonValue::Num(round3(geomean(&speedups_buffer))),
        ),
    ]);
    println!("{}", json_rows(&rows));
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
