//! Regenerates the paper's **Figure 11**: cost-effectiveness of TxRace vs
//! TSan with sampling at 10%, 50%, and 100%, across the nine applications
//! where at least one race is detected. Cost-effectiveness is
//! `recall / normalized-overhead` with TSan@100% as the 1.0 reference.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig11 [workers] [seed]
//! ```

use txrace::{recall, Scheme};
use txrace_bench::{
    cost_effectiveness, normalized_overhead, pool_width, record_workload, replay_schemes_fanout,
    run_scheme, Args, Table, RACY_APPS,
};
use txrace_sim::par_map;
use txrace_workloads::all_workloads;

fn main() {
    let mut args = Args::from_env("fig11 [workers] [seed]");
    let workers = args.workers();
    let seed: u64 = args.next_or(42);
    args.finish();

    println!("TxRace reproduction — Figure 11: cost-effectiveness vs sampling (workers={workers}, seed={seed})\n");
    let mut t = Table::new(&["application", "TSan+10%", "TSan+50%", "TSan+100%", "TxRace"]);
    // One pool cell per racy app. Each cell records its app ONCE, then
    // fans the truth run and both sampling rates over that single trace
    // in one parallel pass — execution happens a single time per app and
    // the log is walked concurrently, not once per scheme; only TxRace
    // (an active engine that steers execution) still runs live.
    let mut apps = all_workloads(workers);
    apps.retain(|w| RACY_APPS.contains(&w.name));
    let rows = par_map(pool_width(), &apps, |_, w| {
        let log = record_workload(w, seed);
        let schemes = [
            Scheme::Tsan,
            Scheme::TsanSampling { rate: 0.1 },
            Scheme::TsanSampling { rate: 0.5 },
        ];
        let outs = replay_schemes_fanout(w, &log, &schemes, seed, schemes.len());
        let truth = &outs[0];
        let ce = |overhead: f64, rec: f64| {
            cost_effectiveness(rec, normalized_overhead(overhead, truth.overhead))
        };
        let mut cells = vec![w.name.to_string()];
        for f in &outs[1..] {
            let r = recall(&f.races, &truth.races);
            cells.push(format!("{:.2}", ce(f.overhead, r)));
        }
        cells.push("1.00".to_string()); // TSan@100% is its own reference
        let tx = run_scheme(w, Scheme::txrace(), seed);
        let r = recall(&tx.races, &truth.races);
        cells.push(format!("{:.2}", ce(tx.overhead, r)));
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    println!("{}", t.render());
    println!("paper: TxRace beats sampling on every app except x264; low-rate");
    println!("sampling looks good only where races manifest dynamically often.");
}
