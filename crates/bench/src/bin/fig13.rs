//! Regenerates the paper's **Figure 13**: bodytrack recall as a function
//! of the TSan sampling rate (against 100% sampling as the oracle), with
//! TxRace's recall marked. The paper measures TxRace at recall 0.75 —
//! equivalent to sampling ~47.2% of memory operations — while its
//! overhead equals only ~25.5% sampling (Figure 12): the cost-
//! effectiveness argument in one pair of plots.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig13 [workers] [seeds]
//! ```
//!
//! Recall at each rate is averaged over several seeds (sampling is
//! probabilistic).

use txrace::{recall, Scheme};
use txrace_bench::{pool_width, record_workload, replay_schemes_fanout, run_scheme, Table};
use txrace_sim::par_map;
use txrace_workloads::by_name;

fn main() {
    let mut args = txrace_bench::args_after_cache_flag().into_iter();
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let nseeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    println!("TxRace reproduction — Figure 13: bodytrack recall vs sampling rate (workers={workers}, {nseeds} seeds)\n");
    let w = by_name("bodytrack", workers).expect("bodytrack exists");

    // Phase 1: record the program ONCE per seed. Every sampling rate and
    // the TSan truth below replay these traces instead of re-executing.
    let seeds: Vec<u64> = (0..nseeds).collect();
    let logs = par_map(pool_width(), &seeds, |_, &seed| record_workload(&w, seed));

    // Phase 2: one fan-out pass per seed carries the TSan truth plus all
    // eleven sampling rates over that seed's shared trace — twelve
    // consumers, one concurrent log walk. Recall is computed against the
    // truth consumer of the same pass.
    let pcts: Vec<u64> = (0..=100).step_by(10).collect();
    let mut schemes = vec![Scheme::Tsan];
    schemes.extend(pcts.iter().map(|&pct| Scheme::TsanSampling {
        rate: pct as f64 / 100.0,
    }));
    // per_seed[si] = (truth races, recall of each rate) under seed `si`.
    let per_seed: Vec<(txrace_hb::RaceSet, Vec<f64>)> = seeds
        .iter()
        .zip(&logs)
        .map(|(&seed, log)| {
            let outs = replay_schemes_fanout(&w, log, &schemes, seed, pool_width());
            let truth = outs[0].outcome.races.clone();
            let recalls = outs[1..]
                .iter()
                .map(|f| recall(&f.outcome.races, &truth))
                .collect();
            (truth, recalls)
        })
        .collect();
    // TxRace steers execution, so its per-seed cells still run live.
    let tx_recalls = par_map(pool_width(), &seeds, |si, &seed| {
        let out = run_scheme(&w, Scheme::txrace(), seed);
        recall(&out.races, &per_seed[si].0)
    });

    let mut t = Table::new(&["sampling rate", "recall"]);
    for (ri, pct) in pcts.iter().enumerate() {
        let acc: f64 = per_seed.iter().map(|(_, recalls)| recalls[ri]).sum();
        t.row(vec![
            format!("{pct}%"),
            format!("{:.2}", acc / nseeds as f64),
        ]);
    }
    println!("{}", t.render());

    let acc: f64 = tx_recalls.iter().sum();
    println!(
        "TxRace recall: {:.2} (paper: 0.75, equivalent to ~47.2% sampling)",
        acc / nseeds as f64
    );
}
