//! Records a workload into an event trace and pretty-prints it — the
//! debugging companion of the record/replay pipeline. What this prints is
//! exactly the stream every pure-observer detector consumes, so a
//! surprising race report can be traced event by event. Each invocation
//! records the workload afresh, in process; no trace is read from or
//! written to disk.
//!
//! ```text
//! txdump <app> [--seed <n>] [--workers <n>] [--thread <t>]
//!              [--kind <k>[,<k>...]] [--head <n>] [--summary] [--stats]
//!              [--sites] [--epochs] [--budget <x>]
//! ```
//!
//! `--stats` prints per-kind event counts, per-channel traffic, the
//! app's write density, and the top-N hottest addresses (N from
//! `--head`, default 10) instead of the event stream.
//!
//! `--sites` skips recording entirely and prints the static analysis
//! view: every data site with its flow-insensitive (`Full`) and
//! flow-sensitive (`FullFlow`) classification, redundancy witnesses, and
//! the static may-race candidate pairs.
//!
//! `--epochs` runs the app live under the adaptive `ProductionMode`
//! controller (`--budget`, a finite overhead of at least 1.0x, default
//! 1.2) and prints the per-epoch telemetry the controller steered by:
//! the active knob values, abort counts, check/elision totals, the
//! tsan/htm cycle split, and the cumulative modeled overhead at each
//! epoch boundary.
//!
//! Kinds: `read write rmw acquire release signal wait spawn join
//! barrier-arrive barrier-release thread-done compute syscall
//! chan-send chan-recv`.
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p txrace-bench --bin txdump -- bodytrack --summary
//! cargo run --release -p txrace-bench --bin txdump -- vips --thread 1 --kind read,write --head 40
//! ```

use std::collections::BTreeMap;
use std::str::FromStr;

use txrace_bench::Args;
use txrace_sim::{EventLog, TraceEvent, TraceEventKind};
use txrace_workloads::by_name;

const USAGE: &str = "txdump <app> [--seed <n>] [--workers <n>] [--thread <t>] \
                     [--kind <k>[,<k>...]] [--head <n>] [--summary] [--stats] \
                     [--sites] [--epochs] [--budget <x>]";

/// Every event kind under its command-line name.
const KINDS: [(&str, TraceEventKind); 16] = [
    ("read", TraceEventKind::Read),
    ("write", TraceEventKind::Write),
    ("rmw", TraceEventKind::Rmw),
    ("acquire", TraceEventKind::Acquire),
    ("release", TraceEventKind::Release),
    ("signal", TraceEventKind::Signal),
    ("wait", TraceEventKind::Wait),
    ("spawn", TraceEventKind::Spawn),
    ("join", TraceEventKind::Join),
    ("barrier-arrive", TraceEventKind::BarrierArrive),
    ("barrier-release", TraceEventKind::BarrierRelease),
    ("thread-done", TraceEventKind::ThreadDone),
    ("compute", TraceEventKind::Compute),
    ("syscall", TraceEventKind::Syscall),
    ("chan-send", TraceEventKind::ChanSend),
    ("chan-recv", TraceEventKind::ChanRecv),
];

fn kind_name(k: TraceEventKind) -> &'static str {
    let named = KINDS.iter().find(|&&(_, kind)| kind == k);
    named.expect("KINDS names every kind").0
}

/// The `--kind` filter: a comma-separated list of kind names.
struct Kinds(Vec<TraceEventKind>);

impl FromStr for Kinds {
    type Err = ();

    fn from_str(s: &str) -> Result<Kinds, ()> {
        let kind = |name| KINDS.iter().find(|&&(n, _)| n == name).map(|&(_, k)| k);
        let kinds = s.split(',').map(kind).collect::<Option<_>>();
        kinds.map(Kinds).ok_or(())
    }
}

/// Events per kind, by kind name.
fn kind_counts(log: &EventLog) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for e in log.events() {
        *counts.entry(kind_name(e.kind())).or_insert(0) += 1;
    }
    counts
}

/// `--stats`: aggregate trace statistics — per-kind event counts, write
/// density, and the `top_n` hottest addresses by access count.
fn print_stats(log: &EventLog, top_n: usize) {
    let total = log.len().max(1) as f64;
    println!("\nevents by kind:");
    for (k, n) in kind_counts(log) {
        println!("  {k:<16} {n:>9}  ({:5.1}%)", n as f64 / total * 100.0);
    }

    // (reads, writes) per address; RMWs count as writes.
    let mut heat: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
    // (sends, recvs) per channel: each arg is a ChanId; sends and recvs
    // must balance in a completed run (the ChanTrafficImbalance lint's
    // view).
    let mut chan: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for e in log.events() {
        match e.kind() {
            TraceEventKind::Read => heat.entry(e.arg()).or_default().0 += 1,
            TraceEventKind::Write | TraceEventKind::Rmw => heat.entry(e.arg()).or_default().1 += 1,
            TraceEventKind::ChanSend => chan.entry(e.arg()).or_default().0 += 1,
            TraceEventKind::ChanRecv => chan.entry(e.arg()).or_default().1 += 1,
            _ => {}
        }
    }
    if !chan.is_empty() {
        println!("\nchannel traffic:");
        for (ch, (s, r)) in &chan {
            println!(
                "  ch{ch:<4} {s:>7} sends {r:>7} recvs{}",
                if s == r { "" } else { "  (IMBALANCED)" }
            );
        }
    }

    let reads: u64 = heat.values().map(|&(r, _)| r).sum();
    let writes: u64 = heat.values().map(|&(_, w)| w).sum();
    let accesses = reads + writes;
    println!("\nwrite density:");
    println!("  {reads} reads, {writes} writes (incl. rmw) over {accesses} accesses");
    println!(
        "  {:.1}% writes; {} distinct addresses, {:.1} accesses/address",
        writes as f64 / (accesses.max(1)) as f64 * 100.0,
        heat.len(),
        accesses as f64 / heat.len().max(1) as f64,
    );

    let mut hottest: Vec<(u32, (u64, u64))> = heat.into_iter().collect();
    hottest.sort_by_key(|&(addr, (r, w))| (std::cmp::Reverse(r + w), addr));
    println!("\ntop {} hottest addresses:", top_n.min(hottest.len()));
    println!(
        "  {:<18} {:>9} {:>9} {:>9}",
        "address", "reads", "writes", "total"
    );
    for (addr, (r, w)) in hottest.into_iter().take(top_n) {
        println!("  {:#016x} {r:>9} {w:>9} {:>9}", addr, r + w);
    }
}

/// `--sites`: the static analysis view of one workload — per-site
/// classification under both pruning layers, plus the may-race pairs.
fn print_sites(w: &txrace_workloads::Workload) {
    use txrace::{FlowAnalysis, SiteClass, SiteClassTable};

    let p = &w.program;
    let base = SiteClassTable::analyze(p);
    let fa = FlowAnalysis::run(p);
    let class_str = |c: SiteClass| match c {
        SiteClass::PotentiallyRacy => "RACY".to_string(),
        SiteClass::RaceFree(r) => r.to_string(),
    };
    let op_str = |op: &txrace_sim::Op| match op {
        txrace_sim::Op::Read(_) => "read",
        txrace_sim::Op::Write(_, _) => "write",
        txrace_sim::Op::Rmw(_, _) => "rmw",
        txrace_sim::Op::ReadArr { .. } => "read[]",
        txrace_sim::Op::WriteArr { .. } => "write[]",
        _ => "other",
    };
    println!(
        "\nsite classification ({} data sites):",
        fa.table.stats(p).data_sites
    );
    println!(
        "  {:>6} {:>3} {:<8} {:<22} {:<14} {:<16} witness",
        "site", "thr", "op", "label", "full", "full-flow"
    );
    p.visit_static(&mut |t, site, op| {
        if !op.is_data_access() {
            return;
        }
        let label = p.label_of(site).unwrap_or("-");
        let witness = fa
            .table
            .witness_of(site)
            .map(|ws| {
                p.label_of(ws)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("site {}", ws.0))
            })
            .unwrap_or_default();
        println!(
            "  {:>6} {:>3} {:<8} {:<22} {:<14} {:<16} {}",
            site.0,
            t.0,
            op_str(op),
            label,
            class_str(base.class(site)),
            class_str(fa.table.class(site)),
            witness
        );
    });

    println!("\nmay-race candidate pairs ({}):", fa.pairs.len());
    for pr in fa.pairs.pairs() {
        let name = |s: txrace_sim::SiteId| {
            p.label_of(s)
                .map(str::to_string)
                .unwrap_or_else(|| format!("site {}", s.0))
        };
        let addr = fa.pairs.witness_addr(pr).expect("pair has a witness");
        println!("  {:<22} x {:<22} @ {:#x}", name(pr.a), name(pr.b), addr.0);
    }
}

/// `--epochs`: run the app live under `ProductionMode` and print the
/// epoch-by-epoch telemetry the adaptive controller steered by.
fn print_epochs(w: &txrace_workloads::Workload, seed: u64, budget: f64) {
    use txrace::{Detector, Scheme};

    let out = Detector::new(w.config(Scheme::production(budget), seed)).run(&w.program);
    let tm = out
        .telemetry
        .as_ref()
        .expect("production runs always carry telemetry");
    println!(
        "\nproduction run: budget {budget}x, overhead {:.2}x, {} race(s), \
         {}/{} epochs active",
        out.overhead,
        out.races.distinct_count(),
        tm.active_epochs(),
        tm.epochs.len(),
    );
    println!(
        "\n  {:>5} {:>7} {:>6} {:>5} {:>3} {:>5} {:>13} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "epoch",
        "events",
        "active",
        "samp",
        "K",
        "lcut",
        "aborts c/k/u",
        "checks",
        "elided",
        "tsan cyc",
        "htm cyc",
        "cum ovh"
    );
    for e in &tm.epochs {
        println!(
            "  {:>5} {:>7} {:>6} {:>5.2} {:>3} {:>5} {:>5}/{:<3}/{:<3} {:>9} {:>9} {:>10} {:>10} {:>7.2}x",
            e.index,
            e.events,
            if e.active { "on" } else { "off" },
            e.sampling,
            e.k_min_ops,
            e.loopcut_threshold,
            e.conflict_aborts,
            e.capacity_aborts,
            e.unknown_aborts,
            e.checks,
            e.elided_checks,
            e.tsan_cycles,
            e.htm_cycles,
            e.cum_overhead,
        );
    }
    println!(
        "\n  {} events total; controller decisions are a pure function of\n  \
         this telemetry prefix, so a rerun with the same seed and budget\n  \
         reproduces this table exactly.",
        tm.total_events()
    );
}

fn main() {
    let mut args = Args::from_env(USAGE);
    let seed = args.value("--seed").unwrap_or(42u64);
    let thread: Option<u32> = args.value("--thread");
    let kinds: Option<Kinds> = args.value("--kind");
    let head: Option<usize> = args.value("--head");
    let budget = args.value("--budget").unwrap_or(1.2f64);
    // `contains` is false for NaN, so NaN is refused too.
    if !(1.0..f64::INFINITY).contains(&budget) {
        args.exit("the budget must be a finite overhead of at least 1.0x");
    }
    let summary = args.flag("--summary");
    let stats = args.flag("--stats");
    let sites = args.flag("--sites");
    let epochs = args.flag("--epochs");
    // The one positional argument is the app; flags go anywhere.
    let app: String = args.next_or(String::new());
    let workers = args.workers();
    args.finish();

    let Some(w) = by_name(&app, workers) else {
        eprintln!("unknown app {app:?}; try `txrace-cli list`\nusage: {USAGE}");
        std::process::exit(2);
    };
    if sites {
        // Pure static analysis: no recording needed.
        println!("{app} ({workers} workers): static site classification");
        print_sites(&w);
        return;
    }
    if epochs {
        // Live engine run, not a trace replay: the controller only
        // exists inside the two-phase engine.
        println!("{app} (seed {seed}, {workers} workers): adaptive controller epochs");
        print_epochs(&w, seed, budget);
        return;
    }
    let log = txrace_bench::record_workload(&w, seed);

    let census = log.census();
    println!(
        "{app} (seed {seed}, {workers} workers): {:?} in {} steps",
        log.result().status,
        log.result().steps
    );
    println!(
        "trace: {} events over {} threads ({} mem accesses, {} sync ops, {} syscalls, {} compute units)",
        log.len(),
        log.thread_count(),
        census.mem_accesses,
        census.sync_ops,
        census.syscalls,
        census.compute_units,
    );
    if stats {
        print_stats(&log, head.unwrap_or(10));
        return;
    }
    if summary {
        println!("\nevents by kind:");
        for (k, n) in kind_counts(&log) {
            println!("  {k:<16} {n}");
        }
        return;
    }

    let keep = |e: &TraceEvent| {
        thread.is_none_or(|t| e.thread().0 == t)
            && kinds.as_ref().is_none_or(|ks| ks.0.contains(&e.kind()))
    };
    let mut printed = 0usize;
    for (i, e) in log.events().iter().enumerate() {
        if !keep(e) {
            continue;
        }
        if head.is_some_and(|h| printed >= h) {
            println!("  ... (truncated by --head)");
            break;
        }
        printed += 1;
        let label = w
            .program
            .label_of(e.site())
            .map(|l| format!(" [{l}]"))
            .unwrap_or_default();
        match e.kind() {
            TraceEventKind::BarrierRelease => {
                let (b, arrivals) = log.barriers().release_arrivals(e.arg());
                println!(
                    "  {i:>7}  {:<16} barrier {} releasing {} thread(s)",
                    "barrier-release",
                    b.0,
                    arrivals.len()
                );
            }
            TraceEventKind::ThreadDone => {
                println!("  {i:>7}  {:<16} t{}", "thread-done", e.thread().0);
            }
            k => {
                println!(
                    "  {i:>7}  {:<16} t{} site {}{} arg {}",
                    kind_name(k),
                    e.thread().0,
                    e.site().0,
                    label,
                    e.arg()
                );
            }
        }
    }
}
