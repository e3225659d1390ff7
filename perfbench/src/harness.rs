//! The workload-independent half of the benchmark: repeated set-up, the
//! check round, timed rounds of jobs, and the metrics derived from them.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use txrace::RunConfig;
use txrace_sim::{FairSched, RandomSched, RoundRobin, Scheduler};

use crate::speed::{self, timed, Clock, HostSpeed};
use crate::stats::{median, quantile, tail_percentile, Spread};
use crate::tracer::Tracer;

/// Fewest timed set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 31;

/// Every run times at least this many rounds, however long they take, so
/// the tail percentile (fixed per workload by the job count of this many
/// rounds) never depends on host speed.
pub const MIN_ROUNDS: usize = 20;

/// What every workload sees of the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Fan-out and shard width: the host's available parallelism.
    pub width: usize,
    /// Root of the checkout (the fixtures live under it).
    pub root: PathBuf,
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub spread: Spread,
}

impl Metric {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            spread: Spread::exact(value),
        }
    }
}

/// What the untimed check round produced.
#[derive(Debug, Default)]
pub struct Checked {
    /// Output fingerprint per job; `None` where the job failed.
    pub fingerprints: Vec<Option<u64>>,
    /// Modeled-currency metrics (deterministic per seed).
    pub modeled: Vec<Metric>,
    /// Per-layer counts for one round of jobs (deterministic per seed).
    pub counts: Vec<(&'static str, f64)>,
}

impl Checked {
    pub fn fail(&mut self, job: usize, why: impl std::fmt::Display) {
        eprintln!("check failed on job {job}: {why}");
        self.fingerprints[job] = None;
    }
}

/// One benchmark workload: a fixed set of jobs built from the seed.
pub trait Workload: Sized {
    /// Times the jobs: thread CPU time where a job runs on the calling
    /// thread alone, wall time where it fans out to other threads.
    const CLOCK: Clock;
    /// Builds the inputs (timed as `setup_s`).
    fn setup(cx: &Ctx) -> Self;
    fn jobs(&self) -> usize;
    /// Uninstrumented dynamic operation count of job `j`'s program(s).
    fn job_ops(&self, j: usize) -> u64;
    /// Runs job `j` the way a user would; fingerprinting its outputs is
    /// left to the caller, outside the timed region.
    fn run_job(&self, cx: &Ctx, j: usize) -> Result<Fingerprint, String>;
    /// Runs job `j` decomposed into layer calls, one span per call, under
    /// a single `job` span; extra layer probes go under a `probe` span.
    /// Must fingerprint the same as [`Workload::run_job`].
    fn run_traced(&self, cx: &Ctx, j: usize, tr: &mut Tracer) -> Result<Fingerprint, String>;
    /// Runs every job once with all output checks.
    fn check_round(&self, cx: &Ctx) -> Checked;
}

/// A job's outputs, fingerprinted on demand.
pub type Fingerprint = Box<dyn FnOnce() -> u64>;

/// Hash fingerprint of any debug-printable output.
pub fn fingerprint(parts: &[&dyn std::fmt::Debug]) -> u64 {
    let mut h = DefaultHasher::new();
    for p in parts {
        format!("{p:?}").hash(&mut h);
    }
    h.finish()
}

/// The scheduler a [`txrace::Detector`] builds for `cfg` (same policy,
/// seed and interrupt model), for the decomposed traced runs.
pub fn make_sched(cfg: &RunConfig) -> Box<dyn Scheduler> {
    match cfg.sched {
        txrace::SchedKind::RoundRobin => Box::new(RoundRobin::new()),
        txrace::SchedKind::Random { stickiness } => Box::new(
            RandomSched::new(cfg.seed)
                .with_interrupts(cfg.interrupts)
                .with_stickiness(stickiness),
        ),
        txrace::SchedKind::Fair { jitter, slack } => Box::new(
            FairSched::new(cfg.seed, jitter)
                .with_slack(slack)
                .with_interrupts(cfg.interrupts),
        ),
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub rounds: usize,
    pub traced_rounds: usize,
    pub tracer: Tracer,
}

/// One timed pass over every job.
struct Round {
    /// Host time per passed job on the workload's clock.
    host_ns: Vec<f64>,
    /// The same in wall time.
    wall_ns: Vec<f64>,
    ops: u64,
}

fn run_round<W: Workload>(
    w: &W,
    cx: &Ctx,
    want: &[Option<u64>],
    round: usize,
    mut tr: Option<&mut Tracer>,
    hs: &mut HostSpeed,
    failed: &mut u64,
) -> Round {
    let mut host_ns = Vec::with_capacity(w.jobs());
    let mut wall_ns = Vec::with_capacity(w.jobs());
    let mut since_sample = 0.0;
    let mut ops = 0;
    for (j, want) in want.iter().enumerate() {
        let (got, took) = timed(|| match tr.as_deref_mut() {
            Some(tr) => {
                tr.set_job((round * w.jobs() + j) as u64);
                let r = guarded(|| w.run_traced(cx, j, tr));
                if r.is_err() {
                    tr.close_open();
                }
                r
            }
            None => guarded(|| w.run_job(cx, j)),
        });
        let ns = took.on(W::CLOCK);
        since_sample += ns;
        match (got.and_then(|fp| guarded(|| Ok(fp()))), want) {
            (Ok(fp), Some(want)) if fp == *want => {
                host_ns.push(ns);
                wall_ns.push(took.wall);
                ops += w.job_ops(j);
            }
            (Ok(_), Some(_)) => {
                eprintln!("job {j}: output differs from the check round");
                *failed += 1;
            }
            (Err(e), _) => {
                eprintln!("job {j}: {e}");
                *failed += 1;
            }
            (Ok(_), None) => *failed += 1,
        }
        if since_sample >= speed::EVERY_NS || j + 1 == w.jobs() {
            hs.sample();
            since_sample = 0.0;
        }
    }
    Round {
        host_ns,
        wall_ns,
        ops,
    }
}

/// Builds the workload's inputs once more and drops them; returns the
/// thread CPU seconds it took (set-up runs on the calling thread alone).
fn timed_setup<W: Workload>(cx: &Ctx, tr: &mut Tracer) -> f64 {
    let (w, took) = timed(|| tr.span("workloads.build", |_| W::setup(cx)));
    drop(w);
    took.cpu / 1e9
}

/// Set-up, check round, then timed rounds until `seconds` have passed.
pub fn drive<W: Workload>(cx: &Ctx, seconds: f64, trace: bool) -> Outcome {
    let mut tr = Tracer::new(trace);
    let w = W::setup(cx);
    let checked = w.check_round(cx);
    // Peak memory of one pass over every job in a fresh process. Later
    // rounds only add allocator fragmentation, which depends on how the
    // fan-out threads happened to meet the allocator's arenas.
    let peak_rss = peak_rss_mb();
    let jobs = w.jobs();
    let mut attempted = jobs as u64;
    let mut failed = checked.fingerprints.iter().filter(|f| f.is_none()).count() as u64;

    // Set-up is timed once the process is warm: before every round (so its
    // median spans the whole run, like the rounds) and at least SETUPS
    // times. A traced run alternates untraced and traced rounds, so both
    // sides of the tracing-overhead ratio see the same host conditions.
    // Host times are scaled to nominal host speed by the reference kernel,
    // sampled after every set-up and all through the rounds.
    let mut hs = HostSpeed::new();
    hs.sample();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let min_rounds = if trace { MIN_ROUNDS / 2 } else { MIN_ROUNDS };
    let mut rounds = Vec::new();
    let mut traced_rounds = 0;
    while rounds.len() < min_rounds
        || (trace && traced_rounds == 0)
        || start.elapsed().as_secs_f64() < seconds
    {
        let setup = timed_setup::<W>(cx, &mut tr);
        setup_s.push(setup);
        hs.sample();
        let n = rounds.len() + traced_rounds;
        let traced = trace && n % 2 == 1;
        let tr_round = if traced { Some(&mut tr) } else { None };
        let round = run_round(
            &w,
            cx,
            &checked.fingerprints,
            n,
            tr_round,
            &mut hs,
            &mut failed,
        );
        if traced {
            traced_rounds += 1;
        } else {
            rounds.push(round);
        }
        attempted += jobs as u64;
    }
    while setup_s.len() < SETUPS {
        let setup = timed_setup::<W>(cx, &mut tr);
        setup_s.push(setup);
        hs.sample();
    }
    let setup_scale = hs.scale(Clock::ThreadCpu);
    let setup_s: Vec<f64> = setup_s.iter().map(|s| s * setup_scale).collect();
    let scale = hs.scale(W::CLOCK);

    let host_jobs: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.host_ns.iter().copied())
        .collect();
    let all_jobs: Vec<f64> = host_jobs.iter().map(|ns| ns * scale).collect();
    let round_ops =
        |r: &Round, k: f64| r.ops as f64 / (r.host_ns.iter().sum::<f64>() * k / 1e9).max(1e-12);
    let per_round_ops: Vec<f64> = rounds.iter().map(|r| round_ops(r, scale)).collect();
    let host_ops: Vec<f64> = rounds.iter().map(|r| round_ops(r, 1.0)).collect();
    let kernel_ms: Vec<f64> = hs.samples.iter().map(|t| t.on(W::CLOCK) / 1e6).collect();
    let per_round_p50: Vec<f64> = rounds
        .iter()
        .map(|r| median(&r.host_ns) * scale / 1e6)
        .collect();
    let wall_jobs: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.wall_ns.iter().copied())
        .collect();
    // The tail percentile is fixed by the job count of MIN_ROUNDS rounds;
    // each round's own value of it is taken, and the median over rounds
    // reported, so a burst of host noise in a few rounds cannot fill the
    // pooled tail.
    let tail_p = tail_percentile(jobs * MIN_ROUNDS);
    let per_round_tail: Vec<f64> = rounds
        .iter()
        .map(|r| quantile(&r.host_ns, tail_p / 100.0) * scale / 1e6)
        .collect();

    let mut end_to_end = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            spread: Spread::of(&setup_s),
        },
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            spread: Spread::of(&per_round_ops),
        },
        // Pooled median of every job; quartiles of the per-round medians.
        Metric {
            name: "job_p50_ms",
            unit: "ms",
            spread: Spread {
                median: median(&all_jobs) / 1e6,
                ..Spread::of(&per_round_p50)
            },
        },
        Metric {
            name: "job_tail_ms",
            unit: "ms",
            spread: Spread::of(&per_round_tail),
        },
        Metric::exact("peak_rss_mb", "MB", peak_rss),
        // The same timings in host time, and the host's speed.
        Metric {
            name: "host_ops_per_s",
            unit: "1/s",
            spread: Spread::of(&host_ops),
        },
        Metric {
            name: "host_job_p50_ms",
            unit: "ms",
            spread: Spread::of(&host_jobs.iter().map(|ns| ns / 1e6).collect::<Vec<_>>()),
        },
        Metric {
            name: "kernel_ms",
            unit: "ms",
            spread: Spread::of(&kernel_ms),
        },
    ];
    end_to_end.extend(checked.modeled.iter().cloned());
    end_to_end.push(Metric::exact(
        "error_rate",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    ));
    end_to_end.push(Metric::exact("job_tail_percentile", "%", tail_p));

    let per_layer = if trace {
        crate::layers::per_layer(&tr, &checked.counts, traced_rounds, median(&wall_jobs))
    } else {
        Vec::new()
    };
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        rounds: rounds.len(),
        traced_rounds,
        tracer: tr,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
