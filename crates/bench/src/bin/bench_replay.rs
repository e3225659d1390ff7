//! Measures what record-once, fan-out replay buys over the alternatives,
//! and checks that every strategy produces identical results. Emits
//! `BENCH_replay.json` in the flat `json_rows` format the other
//! JSON-emitting binaries share.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin bench_replay \
//!     [workers] [seed] > BENCH_replay.json
//! ```
//!
//! `workers` is the [`fan_out`] width (default 4); the apps always run
//! at 4 threads, so every result and fingerprint is independent of it.
//! Three measurements, each asserted equal across strategies:
//!
//! - **Figures 11–13**: the pure-observer cells of each figure evaluated
//!   by re-executing the program per scheme, by recording each
//!   (workload, seed) once and replaying every scheme serially, and by
//!   recording once and fanning all schemes over the shared log. The
//!   TxRace cells are excluded on all sides: the engine steers execution
//!   and runs live under any strategy.
//! - **Sweep**: the Figure 12-style 12-configuration TSan sweep over one
//!   recorded trace *artifact* (the serialized `.txlog` bytes), on each
//!   racy app. N separate replay-tool runs decode the artifact and walk
//!   the events N times; the pipeline decodes once and drives all N
//!   consumers through one [`fan_out`] pass.
//! - **Panel**: a heterogeneous 6-member panel (three TSan variants,
//!   FastTrack, the vector-clock reference, lockset) replayed serially
//!   one member at a time versus one [`fan_out`] pass.
//!
//! Every row carries `app` and a `row` kind:
//!
//! - `figure` (`app` is `fig11`/`fig12`/`fig13`): `cells`, `recordings`,
//!   `reexec_wall_ns`, `replay_wall_ns`, `fanout_wall_ns`, and `speedup`
//!   (re-execution ÷ serial replay);
//! - `sweep` (one per racy app): `detectors`, `events`,
//!   `artifact_bytes`, `serial_wall_ns` (N decodes + N walks),
//!   `parallel_wall_ns` (one decode + fan-out), `speedup`;
//! - `fanout` (one per racy app): the panel's `serial_wall_ns`,
//!   `fanout_wall_ns`, `speedup`;
//! - `consumer` (one per app and panel member): `name`, its
//!   `serial_wall_ns`, `events`, `findings`, and `fingerprint`
//!   ([`PanelConsumer::fingerprint`] of its report list). A member has no
//!   fan-out wall time of its own: it shares its group's pass over the
//!   log;
//! - `total`: `workers`, `seed`, `reps`, `pool`, `wall_ns`, and the
//!   geomeans `figure_speedup`, `sweep_speedup`, `fanout_speedup`.
//!
//! Fingerprints do not depend on `workers`: two runs at different widths
//! emit identical `fingerprint` fields, which
//! `tests/parallel_replay_equivalence.rs` checks for this panel on every
//! workload at widths 1 to 8.

use std::time::Instant;

use txrace::{CostModel, Detector, LocksetConsumer, PanelConsumer, RunOutcome, Scheme};
use txrace_bench::{
    geomean, json_rows, pool_width, rate_sweep, record_workload, replay_schemes_fanout, run_scheme,
    Args, JsonValue, RACY_APPS,
};
use txrace_hb::{FastTrack, RaceReport, ShadowMode, VectorClockDetector};
use txrace_sim::{fan_out, par_map, EventLog};
use txrace_workloads::{all_workloads, by_name, Workload};

/// Timed repetitions per measurement; the minimum is reported.
const REPS: u32 = 3;

/// Threads every app runs at.
const APP_THREADS: usize = 4;

/// One figure's pure-observer sweep: `schemes` evaluated on every
/// `(workload, seed)` unit.
struct FigSpec {
    name: &'static str,
    units: Vec<(Workload, u64)>,
    schemes: Vec<Scheme>,
}

/// The result fingerprint all figure strategies must agree on, bit for
/// bit.
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

/// Re-execution: every cell runs the program live.
fn reexec(spec: &FigSpec) -> Vec<CellResult> {
    let grid = cells(spec);
    par_map(pool_width(), &grid, |_, (u, scheme)| {
        let (w, seed) = &spec.units[*u];
        CellResult::of(&run_scheme(w, scheme.clone(), *seed))
    })
}

fn record_units(spec: &FigSpec) -> Vec<EventLog> {
    par_map(pool_width(), &spec.units, |_, (w, seed)| {
        record_workload(w, *seed)
    })
}

/// Serial replay: record each unit once, replay every cell on its own
/// (one scheme at width 1).
fn replayed(spec: &FigSpec) -> Vec<CellResult> {
    let logs = record_units(spec);
    let grid = cells(spec);
    par_map(pool_width(), &grid, |_, (u, scheme)| {
        let (w, seed) = &spec.units[*u];
        let outs = replay_schemes_fanout(w, &logs[*u], std::slice::from_ref(scheme), *seed, 1);
        CellResult::of(&outs[0])
    })
}

/// Fan-out: record each unit once, then fan *all* schemes over that
/// unit's shared log in one pass. Results come in [`cells`] order.
fn fanned(spec: &FigSpec, workers: usize) -> Vec<CellResult> {
    let logs = record_units(spec);
    spec.units
        .iter()
        .zip(&logs)
        .flat_map(|((w, seed), log)| {
            replay_schemes_fanout(w, log, &spec.schemes, *seed, workers)
                .iter()
                .map(CellResult::of)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn tsan_consumer(w: &Workload, scheme: Scheme, seed: u64) -> PanelConsumer {
    let d = Detector::new(w.config(scheme, seed));
    PanelConsumer::Tsan(d.consumer(&w.program))
}

/// The heterogeneous panel, with the names its `consumer` rows carry.
const PANEL: [&str; 6] = [
    "tsan",
    "tsan@0.1",
    "tsan@0.5",
    "fasttrack",
    "vcref",
    "lockset",
];

fn make_panel(w: &Workload, seed: u64) -> Vec<PanelConsumer> {
    let n = w.program.thread_count();
    vec![
        tsan_consumer(w, Scheme::Tsan, seed),
        tsan_consumer(w, Scheme::TsanSampling { rate: 0.1 }, seed),
        tsan_consumer(w, Scheme::TsanSampling { rate: 0.5 }, seed),
        PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact)),
        PanelConsumer::VcRef(VectorClockDetector::new(n)),
        PanelConsumer::Lockset(LocksetConsumer::new(n, CostModel::default())),
    ]
}

type Rows<'a> = Vec<Vec<(&'a str, JsonValue)>>;

/// Runs `f` [`REPS`] times and keeps the result with the smallest wall
/// time (returned first, in nanoseconds). `f` times itself, usually with
/// [`timed`], so set-up can stay outside the timed region.
fn best_of<T>(mut f: impl FnMut() -> (u64, T)) -> (u64, T) {
    let mut best = f();
    for _ in 1..REPS {
        let next = f();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// `f`'s result and its wall time in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

fn ratio(slow_ns: u64, fast_ns: u64) -> f64 {
    slow_ns as f64 / fast_ns.max(1) as f64
}

/// A ratio for a JSON row, rounded to three decimals.
fn num(x: f64) -> JsonValue {
    JsonValue::Num((x * 1000.0).round() / 1000.0)
}

/// The figure rows: re-execution == serial replay == fan-out, cell for
/// cell. Returns each figure's re-execution ÷ serial-replay speedup.
fn figures(seed: u64, workers: usize, rows: &mut Rows) -> Vec<f64> {
    let mut fig11_apps = all_workloads(APP_THREADS);
    fig11_apps.retain(|w| RACY_APPS.contains(&w.name));
    let bodytrack = || by_name("bodytrack", APP_THREADS).expect("bodytrack exists");
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

    let mut speedups = Vec::new();
    for spec in &specs {
        let (reexec_ns, old) = best_of(|| timed(|| reexec(spec)));
        let (replay_ns, new) = best_of(|| timed(|| replayed(spec)));
        assert!(
            old == new,
            "{}: replay path diverged from re-execution",
            spec.name
        );
        let (fanout_ns, par) = best_of(|| timed(|| fanned(spec, workers)));
        assert!(
            par == new,
            "{}: fan-out pass diverged from serial replay",
            spec.name
        );
        speedups.push(ratio(reexec_ns, replay_ns));
        rows.push(vec![
            ("app", JsonValue::Str(spec.name.to_string())),
            ("row", JsonValue::Str("figure".to_string())),
            ("cells", JsonValue::Int(cells(spec).len() as u64)),
            ("recordings", JsonValue::Int(spec.units.len() as u64)),
            ("reexec_wall_ns", JsonValue::Int(reexec_ns)),
            ("replay_wall_ns", JsonValue::Int(replay_ns)),
            ("fanout_wall_ns", JsonValue::Int(fanout_ns)),
            ("speedup", num(ratio(reexec_ns, replay_ns))),
        ]);
    }
    speedups
}

/// The sweep row of one app: N decodes + N serial walks of the trace
/// artifact versus one decode + one fan-out pass. Returns the speedup.
fn sweep(w: &Workload, log: &EventLog, seed: u64, workers: usize, rows: &mut Rows) -> f64 {
    let artifact = log.to_bytes();
    let schemes = rate_sweep();
    let decode = || EventLog::from_bytes(&artifact).expect("artifact round-trips");

    let (serial_ns, serial_fps) = best_of(|| {
        let mut total = 0;
        let mut fps = Vec::new();
        for scheme in &schemes {
            let mut c = tsan_consumer(w, scheme.clone(), seed);
            total += timed(|| decode().replay(&mut c)).0;
            fps.push(c.fingerprint());
        }
        (total, fps)
    });
    let (parallel_ns, reports) = best_of(|| {
        let consumers: Vec<PanelConsumer> = schemes
            .iter()
            .map(|s| tsan_consumer(w, s.clone(), seed))
            .collect();
        timed(|| fan_out(&decode(), consumers, workers))
    });
    let parallel_fps: Vec<u64> = reports.iter().map(|r| r.consumer.fingerprint()).collect();
    assert_eq!(
        parallel_fps, serial_fps,
        "{}: parallel sweep diverged from serial single-consumer replay",
        w.name
    );
    rows.push(vec![
        ("app", JsonValue::Str(w.name.to_string())),
        ("row", JsonValue::Str("sweep".to_string())),
        ("detectors", JsonValue::Int(schemes.len() as u64)),
        ("events", JsonValue::Int(log.len() as u64)),
        ("artifact_bytes", JsonValue::Int(artifact.len() as u64)),
        ("serial_wall_ns", JsonValue::Int(serial_ns)),
        ("parallel_wall_ns", JsonValue::Int(parallel_ns)),
        ("speedup", num(ratio(serial_ns, parallel_ns))),
    ]);
    ratio(serial_ns, parallel_ns)
}

/// The panel rows of one app: each member replayed serially versus one
/// fan-out pass, fingerprints asserted equal. Returns the speedup.
fn panel(w: &Workload, log: &EventLog, seed: u64, workers: usize, rows: &mut Rows) -> f64 {
    let (serial_ns, (serial_walls, serial_fps)) = best_of(|| {
        let mut walls = Vec::new();
        let mut fps = Vec::new();
        for mut c in make_panel(w, seed) {
            walls.push(timed(|| log.replay(&mut c)).0);
            fps.push(c.fingerprint());
        }
        (walls.iter().sum(), (walls, fps))
    });
    let (fanout_ns, reports) = best_of(|| {
        let consumers = make_panel(w, seed);
        timed(|| fan_out(log, consumers, workers))
    });
    rows.push(vec![
        ("app", JsonValue::Str(w.name.to_string())),
        ("row", JsonValue::Str("fanout".to_string())),
        ("consumers", JsonValue::Int(reports.len() as u64)),
        ("events", JsonValue::Int(log.len() as u64)),
        ("serial_wall_ns", JsonValue::Int(serial_ns)),
        ("fanout_wall_ns", JsonValue::Int(fanout_ns)),
        ("speedup", num(ratio(serial_ns, fanout_ns))),
    ]);
    for (((name, r), serial_wall), fp) in PANEL
        .into_iter()
        .zip(&reports)
        .zip(serial_walls)
        .zip(serial_fps)
    {
        assert_eq!(
            r.consumer.fingerprint(),
            fp,
            "{}: fan-out diverged from serial for {name}",
            w.name
        );
        rows.push(vec![
            ("app", JsonValue::Str(w.name.to_string())),
            ("row", JsonValue::Str("consumer".to_string())),
            ("name", JsonValue::Str(name.to_string())),
            ("serial_wall_ns", JsonValue::Int(serial_wall)),
            ("events", JsonValue::Int(log.len() as u64)),
            (
                "findings",
                JsonValue::Int(r.consumer.finding_count() as u64),
            ),
            ("fingerprint", JsonValue::Int(fp)),
        ]);
    }
    ratio(serial_ns, fanout_ns)
}

fn main() {
    let mut args = Args::from_env("bench_replay [workers] [seed]");
    let workers: usize = args.next_or(4);
    let seed: u64 = args.next_or(42);
    args.finish();

    let total_start = Instant::now();
    let mut rows = Vec::new();
    let figure_speedups = figures(seed, workers, &mut rows);

    let mut apps = all_workloads(APP_THREADS);
    apps.retain(|w| RACY_APPS.contains(&w.name));
    let mut sweep_speedups = Vec::new();
    let mut fanout_speedups = Vec::new();
    for w in &apps {
        let log = record_workload(w, seed);
        sweep_speedups.push(sweep(w, &log, seed, workers, &mut rows));
        fanout_speedups.push(panel(w, &log, seed, workers, &mut rows));
    }

    rows.push(vec![
        ("app", JsonValue::Str("(total)".to_string())),
        ("row", JsonValue::Str("total".to_string())),
        ("workers", JsonValue::Int(workers as u64)),
        ("seed", JsonValue::Int(seed)),
        ("reps", JsonValue::Int(u64::from(REPS))),
        ("pool", JsonValue::Int(pool_width() as u64)),
        (
            "wall_ns",
            JsonValue::Int(total_start.elapsed().as_nanos() as u64),
        ),
        ("figure_speedup", num(geomean(&figure_speedups))),
        ("sweep_speedup", num(geomean(&sweep_speedups))),
        ("fanout_speedup", num(geomean(&fanout_speedups))),
    ]);
    println!("{}", json_rows(&rows));
}
