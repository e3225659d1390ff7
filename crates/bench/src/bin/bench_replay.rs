//! Measures what the record/replay pipeline buys: wall-clock of the
//! pure-observer sweeps behind Figures 11–13 done the old way (re-execute
//! the program for every scheme) versus the pipeline way (record each
//! (workload, seed) once, fan replay consumers across cores). Emits the
//! machine-readable trajectory `BENCH_replay.json` in the same flat
//! format as `BENCH_table1.json`.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin bench_replay \
//!     [workers] [seed] > BENCH_replay.json
//! ```
//!
//! The TxRace cells of those figures are excluded on both sides: the
//! engine steers execution, runs live under either strategy, and would
//! only dilute the comparison. Both strategies must produce identical
//! results cell for cell — the binary asserts it.

use std::time::Instant;

use txrace::{RunOutcome, Scheme};
use txrace_bench::{
    geomean, json_rows, pool_width, record_workload, replay_scheme, replay_schemes_fanout,
    run_scheme, JsonValue,
};
use txrace_hb::RaceReport;
use txrace_sim::par_map;
use txrace_workloads::{all_workloads, by_name, Workload};

/// Timed repetitions per strategy; the minimum is reported.
const REPS: u32 = 2;

/// One figure's pure-observer sweep: `schemes` evaluated on every
/// `(workload, seed)` unit.
struct FigSpec {
    name: &'static str,
    units: Vec<(Workload, u64)>,
    schemes: Vec<Scheme>,
}

/// The result fingerprint both strategies must agree on, bit for bit.
#[derive(PartialEq)]
struct CellResult {
    races: Vec<RaceReport>,
    total_cycles: u64,
    checks: u64,
}

impl CellResult {
    fn of(out: &RunOutcome) -> Self {
        CellResult {
            races: out.races.reports().to_vec(),
            total_cycles: out.breakdown.total(),
            checks: out.checks,
        }
    }
}

fn cells(spec: &FigSpec) -> Vec<(usize, Scheme)> {
    (0..spec.units.len())
        .flat_map(|u| spec.schemes.iter().map(move |s| (u, s.clone())))
        .collect()
}

/// The old strategy: every cell re-executes the program live.
fn reexec(spec: &FigSpec) -> Vec<CellResult> {
    let grid = cells(spec);
    par_map(pool_width(), &grid, |_, (u, scheme)| {
        let (w, seed) = &spec.units[*u];
        CellResult::of(&run_scheme(w, scheme.clone(), *seed))
    })
}

/// The pipeline strategy: record each unit once, replay every scheme.
fn replayed(spec: &FigSpec) -> Vec<CellResult> {
    let logs = par_map(pool_width(), &spec.units, |_, (w, seed)| {
        record_workload(w, *seed)
    });
    let grid = cells(spec);
    par_map(pool_width(), &grid, |_, (u, scheme)| {
        let (w, seed) = &spec.units[*u];
        CellResult::of(&replay_scheme(w, &logs[*u], scheme.clone(), *seed))
    })
}

/// One consumer's observability row out of the fan-out strategy.
struct ConsumerRow {
    unit: usize,
    scheme: String,
    wall_ns: u64,
    events: u64,
}

/// Short stable scheme label for JSON rows.
fn scheme_label(s: &Scheme) -> String {
    match s {
        Scheme::Tsan => "tsan".to_string(),
        Scheme::TsanSampling { rate } => format!("tsan@{rate}"),
        other => format!("{other:?}"),
    }
}

/// The parallel strategy: record each unit once, then fan *all* schemes
/// over that unit's shared log in a single concurrent pass. Returns the
/// cell results in [`cells`] grid order plus per-consumer wall-time /
/// event-count rows (the shard-imbalance observability).
fn fanned(spec: &FigSpec) -> (Vec<CellResult>, Vec<ConsumerRow>) {
    let logs = par_map(pool_width(), &spec.units, |_, (w, seed)| {
        record_workload(w, *seed)
    });
    let mut results = Vec::new();
    let mut consumer_rows = Vec::new();
    for (u, ((w, seed), log)) in spec.units.iter().zip(&logs).enumerate() {
        let outs = replay_schemes_fanout(w, log, &spec.schemes, *seed, pool_width());
        for (f, scheme) in outs.iter().zip(&spec.schemes) {
            results.push(CellResult::of(&f.outcome));
            consumer_rows.push(ConsumerRow {
                unit: u,
                scheme: scheme_label(scheme),
                wall_ns: f.wall_ns,
                events: f.events,
            });
        }
    }
    (results, consumer_rows)
}

fn rate_sweep() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Tsan];
    schemes.extend((0..=100).step_by(10).map(|pct| Scheme::TsanSampling {
        rate: pct as f64 / 100.0,
    }));
    schemes
}

fn main() {
    let mut args = txrace_bench::args_after_cache_flag().into_iter();
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let racy_apps = [
        "fluidanimate",
        "vips",
        "raytrace",
        "ferret",
        "x264",
        "bodytrack",
        "facesim",
        "streamcluster",
        "canneal",
    ];
    let mut fig11_apps = all_workloads(workers);
    fig11_apps.retain(|w| racy_apps.contains(&w.name));
    let bodytrack = || by_name("bodytrack", workers).expect("bodytrack exists");

    let specs = [
        FigSpec {
            name: "fig11",
            units: fig11_apps.into_iter().map(|w| (w, seed)).collect(),
            schemes: vec![
                Scheme::Tsan,
                Scheme::TsanSampling { rate: 0.1 },
                Scheme::TsanSampling { rate: 0.5 },
            ],
        },
        FigSpec {
            name: "fig12",
            units: vec![(bodytrack(), seed)],
            schemes: rate_sweep(),
        },
        FigSpec {
            name: "fig13",
            units: (0..3).map(|s| (bodytrack(), s)).collect(),
            schemes: rate_sweep(),
        },
    ];

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let total_start = Instant::now();
    for spec in &specs {
        let mut reexec_ns = u64::MAX;
        let mut replay_ns = u64::MAX;
        let mut fanout_ns = u64::MAX;
        let mut fanout_rows = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let old = reexec(spec);
            reexec_ns = reexec_ns.min(t0.elapsed().as_nanos() as u64);
            let t1 = Instant::now();
            let new = replayed(spec);
            replay_ns = replay_ns.min(t1.elapsed().as_nanos() as u64);
            assert!(
                old == new,
                "{}: replay path diverged from re-execution",
                spec.name
            );
            let t2 = Instant::now();
            let (par, consumers) = fanned(spec);
            let ns = t2.elapsed().as_nanos() as u64;
            if ns < fanout_ns {
                fanout_ns = ns;
                fanout_rows = consumers;
            }
            assert!(
                par == new,
                "{}: fan-out pass diverged from serial replay",
                spec.name
            );
        }
        let speedup = reexec_ns as f64 / replay_ns.max(1) as f64;
        speedups.push(speedup);
        rows.push(vec![
            ("app", JsonValue::Str(spec.name.to_string())),
            ("cells", JsonValue::Int(cells(spec).len() as u64)),
            ("recordings", JsonValue::Int(spec.units.len() as u64)),
            ("wall_ns", JsonValue::Int(replay_ns)),
            ("reexec_wall_ns", JsonValue::Int(reexec_ns)),
            ("fanout_wall_ns", JsonValue::Int(fanout_ns)),
            (
                "speedup",
                JsonValue::Num((speedup * 1000.0).round() / 1000.0),
            ),
        ]);
        for c in fanout_rows {
            rows.push(vec![
                ("app", JsonValue::Str(spec.name.to_string())),
                ("row", JsonValue::Str("consumer".to_string())),
                ("unit", JsonValue::Int(c.unit as u64)),
                ("scheme", JsonValue::Str(c.scheme)),
                ("wall_ns", JsonValue::Int(c.wall_ns)),
                ("events", JsonValue::Int(c.events)),
            ]);
        }
    }
    rows.push(vec![
        ("app", JsonValue::Str("(total)".to_string())),
        ("workers", JsonValue::Int(workers as u64)),
        ("seed", JsonValue::Int(seed)),
        ("reps", JsonValue::Int(u64::from(REPS))),
        ("pool", JsonValue::Int(pool_width() as u64)),
        (
            "wall_ns",
            JsonValue::Int(total_start.elapsed().as_nanos() as u64),
        ),
        (
            "speedup",
            JsonValue::Num((geomean(&speedups) * 1000.0).round() / 1000.0),
        ),
    ]);
    println!("{}", json_rows(&rows));
}
