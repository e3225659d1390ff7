//! Regenerates the paper's **Figure 8**: TxRace overhead scalability at
//! 2, 4, and 8 worker threads, each normalized to the uninstrumented
//! execution at the same thread count. The paper's observations to look
//! for: conflict aborts grow with concurrency, capacity aborts shrink
//! (smaller per-worker datasets), and unknown aborts blow up at 8 threads
//! (hyperthread-saturated cores).
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig8 [seed]
//! ```

use txrace::Scheme;
use txrace_bench::{fmt_x, geomean, pool_width, run_scheme, Args, Table};
use txrace_sim::par_map;
use txrace_workloads::all_workloads;

fn main() {
    let mut args = Args::from_env("fig8 [seed]");
    let seed: u64 = args.next_or(42);
    args.finish();
    let counts = [2usize, 4, 8];

    println!("TxRace reproduction — Figure 8: scalability (seed={seed})\n");
    let mut t = Table::new(&["application", "2 threads", "4 threads", "8 threads"]);
    let mut per_count: Vec<Vec<f64>> = vec![Vec::new(); counts.len()];
    let mut aborts: Vec<(u64, u64, u64)> = vec![(0, 0, 0); counts.len()];

    // One pool cell per (app, thread count) pair, in fixed order; each
    // cell rebuilds its app at that worker count and runs independently.
    let names: Vec<&'static str> = all_workloads(2).iter().map(|w| w.name).collect();
    let grid: Vec<(&'static str, usize)> = names
        .iter()
        .flat_map(|&name| counts.iter().map(move |&workers| (name, workers)))
        .collect();
    let outs = par_map(pool_width(), &grid, |_, &(name, workers)| {
        let w = txrace_workloads::by_name(name, workers).expect("known app");
        run_scheme(&w, Scheme::txrace(), seed)
    });
    for (name, row) in names.iter().zip(outs.chunks(counts.len())) {
        let mut cells = vec![name.to_string()];
        for (i, out) in row.iter().enumerate() {
            cells.push(fmt_x(out.overhead));
            per_count[i].push(out.overhead);
            let h = out.htm.as_ref().expect("txrace stats");
            aborts[i].0 += h.conflict_aborts;
            aborts[i].1 += h.capacity_aborts;
            aborts[i].2 += h.unknown_aborts;
        }
        t.row(cells);
    }
    println!("{}", t.render());
    for (i, &workers) in counts.iter().enumerate() {
        println!(
            "{workers} threads: geo.mean overhead {}, total conflict/capacity/unknown aborts = {}/{}/{}",
            fmt_x(geomean(&per_count[i])),
            aborts[i].0,
            aborts[i].1,
            aborts[i].2
        );
    }
    println!("\npaper: conflicts rise with threads, capacity falls, unknown explodes at 8 (5-9x).");
}
