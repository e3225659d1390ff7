//! The ProductionMode overhead/recall frontier: sweep the adaptive
//! controller's budget from "barely above baseline" to "anything goes"
//! and measure, per workload, the modeled overhead the duty-cycled
//! detector actually spends and the fraction of the TxRace+SA-flow race
//! set it still finds.
//!
//! Truth per app is the always-on TxRace run with full flow-sensitive
//! static pruning (`Scheme::txrace()` + `StaticPruneMode::FullFlow`) —
//! the strongest always-on configuration in the repo — so recall here
//! reads as "what does budgeting cost on top of the best static
//! pipeline", not as recall against the TSan oracle.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin frontier [workers] [seed] [--json]
//! ```
//!
//! With `--json` the binary prints one JSON row per (app × budget) cell
//! (`BENCH_frontier.json` is this output redirected to a file); otherwise
//! it renders a table plus per-budget geomean/recall summaries.

use txrace::{recall, Detector, Scheme, StaticPruneMode};
use txrace_bench::{fmt_x, geomean, json_rows, paper, pool_width, Args, JsonValue, Table};
use txrace_sim::par_map;
use txrace_workloads::all_workloads;

/// Budget grid, as multipliers over the uninstrumented baseline. The
/// low end (1.05x) is tighter than any always-on scheme achieves; the
/// high end (2.0x) is loose enough that every app stays always-on.
const BUDGETS: [f64; 6] = [1.05, 1.1, 1.2, 1.35, 1.5, 2.0];

struct Cell {
    app: &'static str,
    budget: f64,
    overhead: f64,
    races: usize,
    truth_races: usize,
    recall: f64,
    epochs: usize,
    active_epochs: usize,
    paper_app: bool,
}

fn main() {
    let mut args = Args::from_env("frontier [workers] [seed] [--json]");
    let json = args.flag("--json");
    let workers = args.workers();
    let seed: u64 = args.next_or(42);
    args.finish();

    let apps = all_workloads(workers);

    // Truth runs: one always-on TxRace+FullFlow run per app, reused by
    // every budget point of that app.
    let truths = par_map(pool_width(), &apps, |_, w| {
        let cfg = w
            .config(Scheme::txrace(), seed)
            .with_prune(StaticPruneMode::FullFlow);
        let out = Detector::new(cfg).run(&w.program);
        assert!(out.completed(), "{}: truth run did not complete", w.name);
        out
    });

    // The production grid: every (app × budget) cell is an independent
    // deterministic run.
    let grid: Vec<(usize, f64)> = (0..apps.len())
        .flat_map(|ai| BUDGETS.iter().map(move |&b| (ai, b)))
        .collect();
    let cells: Vec<Cell> = par_map(pool_width(), &grid, |_, &(ai, budget)| {
        let w = &apps[ai];
        let truth = &truths[ai];
        let out = Detector::new(w.config(Scheme::production(budget), seed)).run(&w.program);
        assert!(
            out.completed(),
            "{}: production run (budget {budget}) did not complete",
            w.name
        );
        let tm = out
            .telemetry
            .as_ref()
            .expect("production runs always carry telemetry");
        Cell {
            app: w.name,
            budget,
            overhead: out.overhead,
            races: out.races.distinct_count(),
            truth_races: truth.races.distinct_count(),
            recall: recall(&out.races, &truth.races),
            epochs: tm.epochs.len(),
            active_epochs: tm.active_epochs(),
            paper_app: paper::row(w.name).is_some(),
        }
    });

    if json {
        let rows: Vec<Vec<(&str, JsonValue)>> = cells
            .iter()
            .map(|c| {
                vec![
                    ("app", JsonValue::Str(c.app.to_string())),
                    ("budget", JsonValue::Num(c.budget)),
                    ("overhead", JsonValue::Num(c.overhead)),
                    ("races", JsonValue::Int(c.races as u64)),
                    ("truth_races", JsonValue::Int(c.truth_races as u64)),
                    ("recall", JsonValue::Num(c.recall)),
                    ("epochs", JsonValue::Int(c.epochs as u64)),
                    ("active_epochs", JsonValue::Int(c.active_epochs as u64)),
                    ("paper_app", JsonValue::Int(c.paper_app as u64)),
                ]
            })
            .collect();
        println!("{}", json_rows(&rows));
        return;
    }

    println!("ProductionMode budget frontier — workers={workers}, seed={seed}");
    println!("truth = always-on TxRace + SA full-flow pruning\n");
    let mut header = vec!["application".to_string()];
    for b in BUDGETS {
        header.push(format!("{b:.2}x ovh/rec"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    for (ai, w) in apps.iter().enumerate() {
        let mut row = vec![w.name.to_string()];
        for (bi, _) in BUDGETS.iter().enumerate() {
            let c = &cells[ai * BUDGETS.len() + bi];
            row.push(format!("{} / {:.2}", fmt_x(c.overhead), c.recall));
        }
        t.row(row);
    }
    println!("{}", t.render());

    println!(
        "per-budget summary over the {} paper applications:",
        truths
            .iter()
            .zip(&apps)
            .filter(|(_, w)| paper::row(w.name).is_some())
            .count()
    );
    let mut s = Table::new(&[
        "budget",
        "geo.mean overhead",
        "mean recall",
        "apps fully active",
    ]);
    for (bi, &b) in BUDGETS.iter().enumerate() {
        let paper_cells: Vec<&Cell> = cells
            .iter()
            .skip(bi)
            .step_by(BUDGETS.len())
            .filter(|c| c.paper_app)
            .collect();
        let ovh: Vec<f64> = paper_cells.iter().map(|c| c.overhead).collect();
        let mean_recall =
            paper_cells.iter().map(|c| c.recall).sum::<f64>() / paper_cells.len().max(1) as f64;
        let fully_active = paper_cells
            .iter()
            .filter(|c| c.active_epochs == c.epochs)
            .count();
        s.row(vec![
            format!("{b:.2}x"),
            fmt_x(geomean(&ovh)),
            format!("{mean_recall:.2}"),
            format!("{fully_active}/{}", paper_cells.len()),
        ]);
    }
    println!("{}", s.render());
    println!(
        "the controller spends its whole allowance before going idle, so\n\
         overhead tracks the budget until the app is cheap enough to run\n\
         always-on; recall climbs with the budget as more of each app's\n\
         execution stays monitored."
    );
}
