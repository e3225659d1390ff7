//! A small command-line front end for running detectors over the bundled
//! workloads.
//!
//! ```text
//! txrace-cli list
//! txrace-cli run <app> [--scheme tsan|txrace|lockset|sampling=<rate>]
//!                      [--seed <n>] [--workers <n>]
//!                      [--loopcut noopt|dyn|prof] [--verbose]
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p txrace-bench --bin txrace-cli -- run vips --seed 3
//! cargo run --release -p txrace-bench --bin txrace-cli -- run bodytrack --scheme tsan
//! ```

use txrace::{CostModel, Detector, LocksetConsumer, LoopcutMode, Scheme};
use txrace_bench::Args;
use txrace_workloads::{all_workloads, by_name, Workload};

const USAGE: &str = "txrace-cli list | txrace-cli run <app> \
                     [--scheme tsan|txrace|lockset|sampling=<rate>] [--seed <n>] \
                     [--workers <n>] [--loopcut noopt|dyn|prof] [--verbose]";

/// What `run` does: a live detector, or the lockset replay.
enum Detection {
    Live(Scheme),
    Lockset,
}

/// The `--scheme` value, `txrace` with the `--loopcut` mode; `None` if
/// either names nothing.
fn detection(scheme: &str, loopcut: &str) -> Option<Detection> {
    let loopcut = match loopcut {
        "noopt" => LoopcutMode::NoOpt,
        "dyn" => LoopcutMode::Dyn,
        "prof" => LoopcutMode::Prof,
        _ => return None,
    };
    let live = match scheme {
        "lockset" => return Some(Detection::Lockset),
        "tsan" => Scheme::Tsan,
        "txrace" => Scheme::txrace_loopcut(loopcut),
        _ => {
            let rate: f64 = scheme.strip_prefix("sampling=")?.parse().ok()?;
            // `contains` is false for NaN, so NaN is refused too.
            (0.0..=1.0)
                .contains(&rate)
                .then_some(Scheme::TsanSampling { rate })?
        }
    };
    Some(Detection::Live(live))
}

fn main() {
    let mut args = Args::from_env(USAGE);
    let scheme: String = args.value("--scheme").unwrap_or_else(|| "txrace".into());
    let loopcut: String = args.value("--loopcut").unwrap_or_else(|| "dyn".into());
    let seed = args.value("--seed").unwrap_or(42);
    let verbose = args.flag("--verbose");
    let command: String = args.next_or(String::new());
    let app: String = args.next_or(String::new());
    let workers = args.workers();
    args.finish();
    let detection = detection(&scheme, &loopcut);
    match (command.as_str(), by_name(&app, workers), detection) {
        ("list", None, _) if app.is_empty() => {
            println!("available workloads (paper Table 1 order):");
            for w in all_workloads(2) {
                println!(
                    "  {:<14} {} planted race(s); scale: {}",
                    w.name,
                    w.planted.len(),
                    w.scale
                );
            }
        }
        ("run", Some(w), Some(detection)) => run(&w, detection, seed, workers, verbose),
        _ => {
            eprintln!(
                "unknown command, app, scheme or loop-cut mode in {command:?} {app:?} \
                 --scheme {scheme:?} --loopcut {loopcut:?}; try `txrace-cli list`\nusage: {USAGE}"
            );
            std::process::exit(2);
        }
    }
}

fn run(w: &Workload, detection: Detection, seed: u64, workers: usize, verbose: bool) {
    let app = w.name;
    let scheme = match detection {
        Detection::Live(scheme) => scheme,
        Detection::Lockset => {
            // Record under the workload's own scheduler, then replay the
            // trace through the lockset consumer.
            let log = txrace_bench::record_workload(w, seed);
            let mut ls = LocksetConsumer::new(w.program.thread_count(), CostModel::default());
            log.replay(&mut ls);
            println!(
                "{app} (lockset, seed {seed}, {workers} workers): {:?}",
                log.result().status
            );
            println!("lockset violations: {}", ls.reports().len());
            if verbose {
                for rep in ls.reports() {
                    println!("  {rep}");
                }
            }
            return;
        }
    };
    let out = Detector::new(w.config(scheme, seed)).run(&w.program);
    println!(
        "{app} (seed {seed}, {workers} workers): {:?} in {} steps",
        out.run.status, out.run.steps
    );
    println!(
        "races:    {} distinct static pair(s)",
        out.races.distinct_count()
    );
    if verbose {
        for r in out.races.reports() {
            let label = |s| w.program.label_of(s).unwrap_or("<unlabeled>");
            println!(
                "  {r}  [{} vs {}]",
                label(r.prior.site),
                label(r.current.site)
            );
        }
    }
    println!("overhead: {:.2}x vs uninstrumented", out.overhead);
    if let Some(h) = out.htm {
        println!(
            "txns:     {} committed; aborts {} conflict / {} capacity / {} unknown / {} retry",
            h.committed, h.conflict_aborts, h.capacity_aborts, h.unknown_aborts, h.retry_aborts
        );
    }
    if let Some(es) = out.engine {
        println!(
            "slowpath: {} regions ({} conflict, {} capacity, {} unknown, {} small, {} cuts)",
            es.slow_total(),
            es.slow_conflict,
            es.slow_capacity,
            es.slow_unknown,
            es.slow_small,
            es.loop_cuts
        );
    }
}
