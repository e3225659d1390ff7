//! The paper's §9 future-work directions, implemented and measured:
//!
//! * **Conflict-address hints** (the TxIntro/RaceTM direction): if future
//!   hardware reports the conflicting cache line, the conflict slow path
//!   can check only accesses to that line instead of the whole region —
//!   same racy pair found, far fewer shadow checks.
//! * **Slow-path sampling** (the LiteRace/Pacer direction): sample the
//!   slow path's access checks, trading a little recall for cost.
//!
//! ```text
//! cargo run --release -p txrace-bench --bin extensions [workers] [seed]
//! ```

use txrace::{recall, Detector, Knobs, Scheme};
use txrace_bench::{fmt_x, geomean, run_scheme, Args, Table};
use txrace_htm::HtmConfig;
use txrace_workloads::all_workloads;

fn main() {
    let mut args = Args::from_env("extensions [workers] [seed]");
    let workers = args.workers();
    let seed: u64 = args.next_or(42);
    args.finish();

    println!("TxRace extensions (paper §9 directions) — workers={workers}, seed={seed}\n");
    let mut t = Table::new(&[
        "application",
        "TxRace",
        "+conflict hints",
        "+slow sampling 50%",
        "recall",
        "hints recall",
        "sampling recall",
    ]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut recs: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for w in all_workloads(workers) {
        let truth = run_scheme(&w, Scheme::Tsan, seed);
        let base = run_scheme(&w, Scheme::txrace(), seed);

        // The engine follows the conflict address whenever the HTM
        // reports one.
        let hint_htm = HtmConfig {
            report_conflict_address: true,
            ..HtmConfig::default()
        };
        let hints =
            Detector::new(w.config(Scheme::txrace(), seed).with_htm(hint_htm)).run(&w.program);

        let samp_cfg = w
            .config(Scheme::txrace(), seed)
            .with_knobs(Knobs::default().with_sampling(0.5));
        let samp = Detector::new(samp_cfg).run(&w.program);
        assert!(
            samp.completed(),
            "{}: sampling run did not complete",
            w.name
        );

        let r0 = recall(&base.races, &truth.races);
        let r1 = recall(&hints.races, &truth.races);
        let r2 = recall(&samp.races, &truth.races);
        t.row(vec![
            w.name.to_string(),
            fmt_x(base.overhead),
            fmt_x(hints.overhead),
            fmt_x(samp.overhead),
            format!("{r0:.2}"),
            format!("{r1:.2}"),
            format!("{r2:.2}"),
        ]);
        for (i, v) in [base.overhead, hints.overhead, samp.overhead]
            .into_iter()
            .enumerate()
        {
            cols[i].push(v);
        }
        for (i, v) in [r0, r1, r2].into_iter().enumerate() {
            recs[i].push(v.max(1e-3));
        }
    }
    println!("{}", t.render());
    println!(
        "geo.mean overhead: TxRace {}, +hints {}, +sampling {}",
        fmt_x(geomean(&cols[0])),
        fmt_x(geomean(&cols[1])),
        fmt_x(geomean(&cols[2])),
    );
    println!(
        "geo.mean recall:   TxRace {:.2}, +hints {:.2}, +sampling {:.2}",
        geomean(&recs[0]),
        geomean(&recs[1]),
        geomean(&recs[2]),
    );
    println!("\nhints shrink the conflict slow path with (near-)unchanged recall —");
    println!("the paper's \"more efficient slow path\" if hardware reported addresses.");
}
