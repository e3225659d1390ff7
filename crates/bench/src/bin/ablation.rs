//! Ablation studies for the design choices DESIGN.md calls out (beyond
//! the paper's own Figure 9 loop-cut ablation):
//!
//! 1. **Fast-path happens-before tracking** (paper §5, Figure 6): with it
//!    disabled, the slow path reports false positives across fast-path
//!    synchronization edges — completeness breaks.
//! 2. **Ideal HTM** (paper §8.2 envisions it): no capacity limits and no
//!    spurious aborts; TxRace falls back to the slow path only on true
//!    conflicts, and overhead drops accordingly.
//! 3. **The `K < 5` small-region heuristic** (paper §4.3): sweep K and
//!    watch the tradeoff between transaction-management cost and
//!    software-check cost.
//! 4. **TSan shadow cells** (paper §5): with the default bounded cells,
//!    reader eviction loses races; the paper configures "enough cells to
//!    be sound" — our `ShadowMode::Exact`.
//! 5. **Static race-freedom pruning** (DESIGN.md §6): classify every
//!    static site with the sound `sa` analyses before instrumenting, and
//!    measure how much overhead each pruning depth buys without changing
//!    the race set.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin ablation [workers] [seed]
//! ```

use txrace::{recall, Detector, Knobs, Scheme, SiteClassTable, StaticPruneMode, TxRaceOpts};
use txrace_bench::{fmt_x, geomean, pool_width, run_scheme, Args, Table};
use txrace_hb::ShadowMode;
use txrace_htm::HtmConfig;
use txrace_sim::par_map;
use txrace_workloads::{all_workloads, by_name};

fn main() {
    let mut args = Args::from_env("ablation [workers] [seed]");
    let workers = args.workers();
    let seed: u64 = args.next_or(42);
    args.finish();

    fast_sync_ablation(workers, seed);
    ideal_htm_ablation(workers, seed);
    k_threshold_ablation(workers, seed);
    shadow_cells_ablation(workers, seed);
    static_prune_ablation(workers, seed);
}

fn fast_sync_ablation(workers: usize, seed: u64) {
    println!("== ablation 1: fast-path happens-before tracking (§5, Fig. 6) ==\n");
    let mut t = Table::new(&[
        "application",
        "tracked: races",
        "untracked: races",
        "false positives",
    ]);
    let names = ["fluidanimate", "ferret", "apache", "streamcluster"];
    let rows = par_map(pool_width(), &names, |_, &name| {
        let w = by_name(name, workers).expect("known app");
        let truth = run_scheme(&w, Scheme::Tsan, seed);
        let on = run_scheme(&w, Scheme::txrace(), seed);
        let off_opts = TxRaceOpts {
            track_fast_sync: false,
            ..TxRaceOpts::default()
        };
        let off = run_scheme(&w, Scheme::TxRace(off_opts), seed);
        let fp_on = on
            .races
            .pairs()
            .filter(|p| !truth.races.contains(p.a, p.b))
            .count();
        let fp_off = off
            .races
            .pairs()
            .filter(|p| !truth.races.contains(p.a, p.b))
            .count();
        vec![
            name.to_string(),
            format!("{} ({fp_on} fp)", on.races.distinct_count()),
            format!("{}", off.races.distinct_count()),
            format!("{fp_off}"),
        ]
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
    println!("without fast-path tracking the detector is no longer complete.\n");
}

fn ideal_htm_ablation(workers: usize, seed: u64) {
    println!("== ablation 2: ideal HTM (no capacity / no unknown aborts, §8.2) ==\n");
    let ideal = HtmConfig {
        write_sets: 1 << 16,
        write_ways: 1 << 16,
        read_set_max_lines: usize::MAX / 2,
        max_concurrent_txns: 64,
        ..HtmConfig::default()
    };
    let mut t = Table::new(&["application", "best-effort HTM", "ideal HTM"]);
    let (mut real, mut idl) = (Vec::new(), Vec::new());
    let apps = all_workloads(workers);
    let outs = par_map(pool_width(), &apps, |_, w| {
        let out = run_scheme(w, Scheme::txrace(), seed);
        // Ideal hardware: unlimited capacity and an interrupt-free OS.
        let mut cfg = w.config(Scheme::txrace(), seed).with_htm(ideal);
        cfg.interrupts = txrace_sim::InterruptModel::NONE;
        let out_ideal = Detector::new(cfg).run(&w.program);
        (out, out_ideal)
    });
    for (w, (out, out_ideal)) in apps.iter().zip(outs) {
        t.row(vec![
            w.name.to_string(),
            fmt_x(out.overhead),
            fmt_x(out_ideal.overhead),
        ]);
        real.push(out.overhead);
        idl.push(out_ideal.overhead);
    }
    println!("{}", t.render());
    println!(
        "geo.mean: best-effort {} -> ideal {} (the paper: \"overhead would be\n\
         improved significantly\" with conflict-only aborts)\n",
        fmt_x(geomean(&real)),
        fmt_x(geomean(&idl))
    );
}

fn k_threshold_ablation(workers: usize, seed: u64) {
    println!("== ablation 3: small-region threshold K (§4.3; paper uses K = 5) ==\n");
    let mut t = Table::new(&["K", "facesim", "apache", "ferret"]);
    let ks = [0u64, 2, 5, 10, 20];
    let names = ["facesim", "apache", "ferret"];
    let grid: Vec<(u64, &'static str)> = ks
        .iter()
        .flat_map(|&k| names.iter().map(move |&name| (k, name)))
        .collect();
    let outs = par_map(pool_width(), &grid, |_, &(k, name)| {
        let w = by_name(name, workers).expect("known app");
        let cfg = w
            .config(Scheme::txrace(), seed)
            .with_knobs(Knobs::default().with_k(k));
        let out = Detector::new(cfg).run(&w.program);
        assert!(out.completed(), "{name}: K={k} run did not complete");
        out
    });
    for (k, row) in ks.iter().zip(outs.chunks(names.len())) {
        let mut cells = vec![format!("{k}")];
        cells.extend(row.iter().map(|out| fmt_x(out.overhead)));
        t.row(cells);
    }
    println!("{}", t.render());
    println!(
        "small K turns tiny regions into transactions (management cost);\n\
              large K software-checks bigger regions (check cost).\n"
    );
}

fn shadow_cells_ablation(_workers: usize, seed: u64) {
    println!("== ablation 4: TSan shadow cells (§5) ==\n");
    // Eviction only matters when a variable has more concurrent readers
    // than cells: eight readers share one variable, then a writer races
    // with all of them (eight distinct racy pairs).
    let readers = 8usize;
    let mut b = txrace_sim::ProgramBuilder::new(readers + 1);
    let x = b.var("x");
    for t in 0..readers {
        let pad = b.array(&format!("pad{t}"), 8);
        // Each reader touches x exactly once, early, then does private
        // work — after eviction it never re-registers, so a bounded
        // shadow can forget it before the racy write arrives.
        b.thread(t).read(x);
        b.thread(t).loop_n(20, |tb| {
            for i in 0..4 {
                tb.read(txrace_sim::elem(pad, i));
            }
            tb.compute(5);
        });
    }
    b.thread(readers).compute(2000).write(x, 1).compute(5);
    let p = b.build();

    let mut truth_cfg = txrace::RunConfig::new(Scheme::Tsan, seed);
    truth_cfg.shadow = ShadowMode::Exact;
    let truth = Detector::new(truth_cfg).run(&p);
    let mut t = Table::new(&["shadow mode", "races", "recall vs sound"]);
    let modes = [
        (
            "cells=1",
            ShadowMode::Cells {
                per_granule: 1,
                seed,
            },
        ),
        (
            "cells=2",
            ShadowMode::Cells {
                per_granule: 2,
                seed,
            },
        ),
        (
            "cells=4 (TSan default)",
            ShadowMode::Cells {
                per_granule: 4,
                seed,
            },
        ),
        ("exact (paper config)", ShadowMode::Exact),
    ];
    let outs = par_map(pool_width(), &modes, |_, (_, mode)| {
        let mut cfg = txrace::RunConfig::new(Scheme::Tsan, seed);
        cfg.shadow = *mode;
        Detector::new(cfg).run(&p)
    });
    for ((name, _), out) in modes.iter().zip(outs) {
        t.row(vec![
            name.to_string(),
            out.races.distinct_count().to_string(),
            format!("{:.2}", recall(&out.races, &truth.races)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "bounded cells evict readers and miss races, which is why the\n\
              paper configures enough shadow cells to be sound.\n"
    );
}

fn static_prune_ablation(workers: usize, seed: u64) {
    println!("== ablation 5: static race-freedom pruning (DESIGN.md §6) ==\n");
    let mut t = Table::new(&[
        "application",
        "pruned sites",
        "dyn pruned",
        "off",
        "checks-only",
        "full",
        "full-flow",
        "races (off/full/flow)",
    ]);
    let mut off_ovh = Vec::new();
    let mut checks_ovh = Vec::new();
    let mut full_ovh = Vec::new();
    let mut flow_ovh = Vec::new();
    let apps = all_workloads(workers);
    let results = par_map(pool_width(), &apps, |_, w| {
        let stats = SiteClassTable::analyze(&w.program).stats(&w.program);
        let flow_stats = SiteClassTable::analyze_flow(&w.program).stats(&w.program);
        let mut runs = [
            StaticPruneMode::Off,
            StaticPruneMode::ChecksOnly,
            StaticPruneMode::Full,
            StaticPruneMode::FullFlow,
        ]
        .into_iter()
        .map(|mode| {
            let cfg = w.config(Scheme::txrace(), seed).with_prune(mode);
            let out = Detector::new(cfg).run(&w.program);
            assert!(out.completed(), "{}: {mode:?} run did not complete", w.name);
            out
        });
        (
            (stats, flow_stats),
            runs.next().unwrap(),
            runs.next().unwrap(),
            runs.next().unwrap(),
            runs.next().unwrap(),
        )
    });
    for (w, ((stats, flow_stats), off, checks, full, flow)) in apps.iter().zip(results) {
        // ChecksOnly is schedule-preserving, so its race set must match
        // exactly; checking it here keeps the ablation honest.
        let same: Vec<_> = off.races.pairs().collect();
        assert!(
            checks.races.pairs().eq(same.iter().copied()),
            "{}: checks-only pruning changed the race set",
            w.name
        );
        t.row(vec![
            w.name.to_string(),
            format!(
                "{}/{} ({:.0}%), flow {}/{}",
                stats.race_free,
                stats.data_sites,
                stats.static_pruned_fraction() * 100.0,
                flow_stats.race_free,
                flow_stats.data_sites,
            ),
            format!(
                "{:.1}%/{:.1}%",
                stats.pruned_fraction() * 100.0,
                flow_stats.pruned_fraction() * 100.0
            ),
            fmt_x(off.overhead),
            fmt_x(checks.overhead),
            fmt_x(full.overhead),
            fmt_x(flow.overhead),
            format!(
                "{}/{}/{}",
                off.races.distinct_count(),
                full.races.distinct_count(),
                flow.races.distinct_count()
            ),
        ]);
        off_ovh.push(off.overhead);
        checks_ovh.push(checks.overhead);
        full_ovh.push(full.overhead);
        flow_ovh.push(flow.overhead);
    }
    println!("{}", t.render());
    println!(
        "geo.mean: off {} -> checks-only {} -> full {} -> full-flow {}\n\
         checks-only skips FastTrack checks at provably race-free sites;\n\
         full also strips the transaction markers around fully-pruned regions;\n\
         full-flow adds must-lockset + MHP dataflow, redundant-check\n\
         elimination, and benign-atomic footprint pruning.",
        fmt_x(geomean(&off_ovh)),
        fmt_x(geomean(&checks_ovh)),
        fmt_x(geomean(&full_ovh)),
        fmt_x(geomean(&flow_ovh)),
    );
}
