//! Regenerates the paper's **Figure 10**: the number of distinct data
//! races TxRace detects in vips accumulated across multiple runs with
//! different schedules. The paper finds ~79 of 112 per run, a different
//! subset each time, reaching all 112 by the seventh run; TSan finds all
//! 112 in every run.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig10 [workers] [runs]
//! ```

use txrace::Scheme;
use txrace_bench::{pool_width, run_scheme, Table};
use txrace_hb::RaceSet;
use txrace_sim::par_map;
use txrace_workloads::by_name;

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let runs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);

    println!(
        "TxRace reproduction — Figure 10: vips distinct races across runs (workers={workers})\n"
    );
    let w = by_name("vips", workers).expect("vips exists");
    let tsan = run_scheme(&w, Scheme::Tsan, 1);
    println!(
        "TSan reports {} distinct races every run (paper: 112)\n",
        tsan.races.distinct_count()
    );

    // Each run has its own seed, so the runs are independent pool cells;
    // only the cumulative merge below is order-sensitive, and it consumes
    // the results in input (run-number) order.
    let run_seeds: Vec<u64> = (1..=runs).collect();
    let outs = par_map(pool_width(), &run_seeds, |_, &run| {
        run_scheme(&w, Scheme::txrace(), run)
    });
    let mut cumulative = RaceSet::new();
    let mut t = Table::new(&["run", "found this run", "cumulative distinct"]);
    for (run, out) in run_seeds.iter().zip(outs) {
        let this = out.races.distinct_count();
        cumulative.merge(&out.races);
        t.row(vec![
            run.to_string(),
            this.to_string(),
            cumulative.distinct_count().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper: ~79 per run, cumulative reaches 112 by run 7; here: cumulative {} of {}",
        cumulative.distinct_count(),
        tsan.races.distinct_count()
    );
}
