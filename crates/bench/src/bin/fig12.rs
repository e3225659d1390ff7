//! Regenerates the paper's **Figure 12**: bodytrack runtime overhead as a
//! function of the TSan sampling rate, normalized to 100% sampling, with
//! TxRace's overhead marked. The paper measures TxRace at 0.69 of full
//! TSan — equivalent to sampling ~25.5% of memory operations.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin fig12 [workers] [seed]
//! ```

use txrace::Scheme;
use txrace_bench::{
    normalized_overhead, pool_width, rate_sweep, record_workload, replay_schemes_fanout,
    run_scheme, Args, Table,
};
use txrace_workloads::by_name;

fn main() {
    let mut args = Args::from_env("fig12 [workers] [seed]");
    let workers = args.workers();
    let seed: u64 = args.next_or(42);
    args.finish();

    println!("TxRace reproduction — Figure 12: bodytrack overhead vs sampling rate (workers={workers}, seed={seed})\n");
    let w = by_name("bodytrack", workers).expect("bodytrack exists");

    // Record bodytrack ONCE; the whole sweep — full TSan reference plus
    // the eleven sampling rates — rides a single fan-out pass over that
    // one shared trace (every consumer on its own thread, the log walked
    // concurrently). Only TxRace re-executes (it steers the run, so it
    // cannot consume a fixed trace).
    let log = record_workload(&w, seed);
    let outs = replay_schemes_fanout(&w, &log, &rate_sweep(), seed, pool_width());
    let full = outs[0].overhead;

    let mut t = Table::new(&["sampling rate", "normalized overhead"]);
    for (pct, f) in (0..=100).step_by(10).zip(&outs[1..]) {
        let norm = normalized_overhead(f.overhead, full);
        t.row(vec![format!("{pct}%"), format!("{norm:.2}")]);
    }
    println!("{}", t.render());

    let tx = run_scheme(&w, Scheme::txrace(), seed);
    let tx_norm = normalized_overhead(tx.overhead, full);
    println!(
        "TxRace: {:.2} of full TSan (paper: 0.69, equivalent to ~25.5% sampling)",
        tx_norm
    );
}
