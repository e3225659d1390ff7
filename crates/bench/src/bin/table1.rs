//! Regenerates the paper's **Table 1**: per-application transaction
//! statistics, detected races, and runtime overheads for TSan vs TxRace.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin table1 [workers] [seed]
//! ```
//!
//! Counts are at the per-app scale noted in each workload (the paper's
//! runs are 10^2–10^4 larger); overheads are directly comparable. Paper
//! values are shown in parentheses.

use txrace::{Detector, RunOutcome, Scheme, SiteClassTable, StaticPruneMode};
use txrace_bench::{
    evaluate_app, fmt_x, geomean, json_rows, paper, pool_width, AppResult, Args, JsonValue, Table,
};
use txrace_sim::par_map;
use txrace_workloads::{all_workloads, Workload};

/// A "TxRace+SA" run: static pruning on top of the default TxRace
/// configuration (race-free regions lose their transaction markers
/// entirely; surviving slow paths skip race-free sites). `Full` uses the
/// flow-insensitive layer; `FullFlow` adds the dataflow passes.
fn run_pruned(w: &Workload, seed: u64, mode: StaticPruneMode) -> RunOutcome {
    let cfg = w.config(Scheme::txrace(), seed).with_prune(mode);
    let out = Detector::new(cfg).run(&w.program);
    assert!(out.completed(), "{}: pruned run did not complete", w.name);
    out
}

/// Everything one table row needs; computed per app, in parallel across
/// the worker pool (each cell is an independent deterministic simulation,
/// so the fan-out changes wall-clock only, never the results).
struct Cell {
    base: AppResult,
    sa: RunOutcome,
    flow: RunOutcome,
    stats: txrace::PruneStats,
    flow_stats: txrace::PruneStats,
}

fn eval_cell(w: &Workload, seed: u64) -> Cell {
    let base = evaluate_app(w, seed);
    let sa = run_pruned(w, seed, StaticPruneMode::Full);
    let flow = run_pruned(w, seed, StaticPruneMode::FullFlow);
    let stats = SiteClassTable::analyze(&w.program).stats(&w.program);
    let flow_stats = SiteClassTable::analyze_flow(&w.program).stats(&w.program);
    Cell {
        base,
        sa,
        flow,
        stats,
        flow_stats,
    }
}

fn main() {
    let mut args = Args::from_env("table1 [workers] [seed] [--json]");
    let json = args.flag("--json");
    let workers = args.workers();
    let seed: u64 = args.next_or(42);
    args.finish();
    if json {
        return print_json(workers, seed);
    }

    println!("TxRace reproduction — Table 1 (workers={workers}, seed={seed})");
    println!("paper values in parentheses; counts are scaled per the app's note\n");

    let mut t = Table::new(&[
        "application",
        "committed",
        "conflict",
        "capacity",
        "unknown",
        "TSan races",
        "TxRace races",
        "TSan ovh",
        "TxRace ovh",
        "pruned",
        "TxRace+SA ovh",
        "TxRace+SA-flow ovh",
    ]);
    let mut tsan_ovh = Vec::new();
    let mut tx_ovh = Vec::new();
    let mut sa_ovh = Vec::new();
    let mut flow_ovh = Vec::new();

    // `(paper)` column suffixes apply only to the 14 paper apps; the
    // message-passing families (pipeline/actors/worksteal) have no
    // paper row and print bare measured values.
    let vs = |got: String, p: Option<String>| match p {
        Some(p) => format!("{got} ({p})"),
        None => got,
    };
    let apps = all_workloads(workers);
    let results = par_map(pool_width(), &apps, |_, w| eval_cell(w, seed));
    for (w, c) in apps.iter().zip(results) {
        let r = &c.base;
        let htm = r.txrace.htm.expect("txrace stats");
        let p = paper::row(w.name);
        t.row(vec![
            w.name.to_string(),
            format!("{}", htm.committed),
            vs(
                htm.conflict_aborts.to_string(),
                p.map(|p| p.conflict.to_string()),
            ),
            vs(
                htm.capacity_aborts.to_string(),
                p.map(|p| p.capacity.to_string()),
            ),
            vs(
                htm.unknown_aborts.to_string(),
                p.map(|p| p.unknown.to_string()),
            ),
            vs(
                r.tsan.races.distinct_count().to_string(),
                p.map(|p| p.tsan_races.to_string()),
            ),
            vs(
                r.txrace.races.distinct_count().to_string(),
                p.map(|p| p.txrace_races.to_string()),
            ),
            vs(fmt_x(r.tsan.overhead), p.map(|p| fmt_x(p.tsan_overhead))),
            vs(
                fmt_x(r.txrace.overhead),
                p.map(|p| fmt_x(p.txrace_overhead)),
            ),
            format!(
                "{:.0}%/{:.0}%",
                c.stats.pruned_fraction() * 100.0,
                c.flow_stats.pruned_fraction() * 100.0
            ),
            fmt_x(c.sa.overhead),
            fmt_x(c.flow.overhead),
        ]);
        // The headline geomeans compare against the paper, so they stay
        // on the paper's app set.
        if p.is_some() {
            tsan_ovh.push(r.tsan.overhead);
            tx_ovh.push(r.txrace.overhead);
            sa_ovh.push(c.sa.overhead);
            flow_ovh.push(c.flow.overhead);
        }
    }
    println!("{}", t.render());
    println!("(pruned column: dynamic-access fraction, Full/FullFlow)");
    println!("(geomeans below cover the 14 paper apps only)");
    println!(
        "geo.mean overhead: TSan {} (paper {}), TxRace {} (paper {} Prof / {} Dyn)",
        fmt_x(geomean(&tsan_ovh)),
        fmt_x(paper::GEOMEAN_TSAN_OVERHEAD),
        fmt_x(geomean(&tx_ovh)),
        fmt_x(paper::GEOMEAN_TXRACE_OVERHEAD),
        fmt_x(paper::GEOMEAN_TXRACE_DYN_OVERHEAD),
    );
    let tx = geomean(&tx_ovh);
    let sa = geomean(&sa_ovh);
    let flow = geomean(&flow_ovh);
    println!(
        "with static pruning (TxRace+SA): {} geo.mean ({:.0}% of TxRace's extra overhead elided)",
        fmt_x(sa),
        (1.0 - (sa - 1.0) / (tx - 1.0).max(1e-9)) * 100.0,
    );
    println!(
        "with flow-sensitive pruning (TxRace+SA-flow): {} geo.mean ({:.0}% elided)",
        fmt_x(flow),
        (1.0 - (flow - 1.0) / (tx - 1.0).max(1e-9)) * 100.0,
    );
}

/// Machine-readable output: `table1 --json [workers] [seed]`.
fn print_json(workers: usize, seed: u64) {
    let mut rows = Vec::new();
    let apps = all_workloads(workers);
    let results = par_map(pool_width(), &apps, |_, w| eval_cell(w, seed));
    for (w, c) in apps.iter().zip(results) {
        let r = &c.base;
        let h = r.txrace.htm.expect("txrace stats");
        rows.push(vec![
            ("app", JsonValue::Str(w.name.to_string())),
            ("committed", JsonValue::Int(h.committed)),
            ("conflict_aborts", JsonValue::Int(h.conflict_aborts)),
            ("capacity_aborts", JsonValue::Int(h.capacity_aborts)),
            ("unknown_aborts", JsonValue::Int(h.unknown_aborts)),
            (
                "tsan_races",
                JsonValue::Int(r.tsan.races.distinct_count() as u64),
            ),
            (
                "txrace_races",
                JsonValue::Int(r.txrace.races.distinct_count() as u64),
            ),
            ("tsan_overhead", JsonValue::Num(r.tsan.overhead)),
            ("txrace_overhead", JsonValue::Num(r.txrace.overhead)),
            ("recall", JsonValue::Num(r.recall)),
            ("pruned_fraction", JsonValue::Num(c.stats.pruned_fraction())),
            (
                "pruned_fraction_flow",
                JsonValue::Num(c.flow_stats.pruned_fraction()),
            ),
            (
                "txrace_sa_races",
                JsonValue::Int(c.sa.races.distinct_count() as u64),
            ),
            ("txrace_sa_overhead", JsonValue::Num(c.sa.overhead)),
            (
                "txrace_saflow_races",
                JsonValue::Int(c.flow.races.distinct_count() as u64),
            ),
            ("txrace_saflow_overhead", JsonValue::Num(c.flow.overhead)),
        ]);
    }
    println!("{}", json_rows(&rows));
}
