//! The record/replay correctness contract: for every *pure observer*
//! detector, analyzing a recorded trace is bit-identical to analyzing the
//! live run it was recorded from.
//!
//! Observers never roll back or redirect execution, so the interleaving
//! is fully determined by `(program, scheduler, seed)` — which makes the
//! recorded event stream exactly what the live detector saw, method call
//! for method call. Checked here on all bundled workloads (races,
//! breakdowns, check counts, sampling decisions, final memory) and on
//! randomly generated programs.

use proptest::prelude::*;
use txrace::{Detector, RunConfig, RunOutcome, Scheme};
use txrace_hb::{FastTrack, Lockset, ShadowMode, VectorClockDetector};
use txrace_sim::{
    record_run, EventLog, FairSched, Live, Machine, Program, StepLimit, TraceConsumer,
    TraceEventKind, MAX_LOG_ADDR, MAX_LOG_BARRIERS, MAX_LOG_CHANS, MAX_LOG_CONDS, MAX_LOG_LOCKS,
};
use txrace_workloads::{all_workloads, random_program, GenConfig};

/// Asserts every field of the outcome that replay promises to reproduce.
fn assert_outcomes_identical(app: &str, live: &RunOutcome, replayed: &RunOutcome) {
    assert_eq!(
        live.races.reports(),
        replayed.races.reports(),
        "{app}: race sets differ"
    );
    assert_eq!(
        live.breakdown, replayed.breakdown,
        "{app}: cycle ledgers differ"
    );
    assert_eq!(live.baseline_cycles, replayed.baseline_cycles, "{app}");
    assert!(
        (live.overhead - replayed.overhead).abs() < 1e-12,
        "{app}: overheads differ"
    );
    assert_eq!(live.checks, replayed.checks, "{app}: check counts differ");
    assert_eq!(live.memory, replayed.memory, "{app}: final memory differs");
    assert_eq!(live.run, replayed.run, "{app}: run results differ");
}

/// Live-vs-replayed comparison of the full detector pipeline on `p`.
fn check_detector_schemes(app: &str, p: &Program, cfg_of: impl Fn(Scheme) -> RunConfig) {
    let schemes = [
        Scheme::Tsan,
        Scheme::TsanSampling { rate: 0.3 },
        Scheme::TsanSampling { rate: 0.85 },
    ];
    // One recording serves every scheme: scheduling never depends on it.
    let log = Detector::new(cfg_of(Scheme::Tsan)).record(p);
    for scheme in schemes {
        let d = Detector::new(cfg_of(scheme.clone()));
        let live = d.run(p);
        let consumer = d.consumer(p);
        let replayed = d.replay(&log, consumer);
        assert_outcomes_identical(app, &live, &replayed);
    }
}

#[test]
fn all_workloads_replay_identically() {
    for w in all_workloads(4) {
        check_detector_schemes(w.name, &w.program, |scheme| w.config(scheme, 42));
    }
}

/// The decoder's address and id-count bounds reject hostile logs; they
/// must never reject a real one. Every shipped workload, at the evaluated
/// widths, records accesses and final memory, and declares locks,
/// conditions, barriers and channels, far below them, and round-trips
/// through the byte encoding.
#[test]
fn shipped_workload_logs_stay_below_the_decode_bounds() {
    for workers in [4, 8] {
        for w in all_workloads(workers) {
            let log = Detector::new(w.config(Scheme::Tsan, 42)).record(&w.program);
            let accesses = log.events().iter().filter(|e| {
                matches!(
                    e.kind(),
                    TraceEventKind::Read | TraceEventKind::Write | TraceEventKind::Rmw
                )
            });
            let top = accesses
                .map(|e| u64::from(e.arg()))
                .chain(log.final_memory().iter().map(|(a, _)| a.0))
                .max()
                .unwrap_or(0);
            assert!(
                top < MAX_LOG_ADDR / 16,
                "{} at {workers} workers: address {top:#x} within 16x of MAX_LOG_ADDR",
                w.name
            );
            let p = &w.program;
            for (what, n, max) in [
                ("locks", p.lock_count(), MAX_LOG_LOCKS),
                ("conditions", p.cond_count(), MAX_LOG_CONDS),
                ("barriers", p.barrier_count(), MAX_LOG_BARRIERS),
                ("channels", p.chan_count(), MAX_LOG_CHANS),
            ] {
                assert!(
                    u64::from(n) < max / 16,
                    "{} at {workers} workers: {n} {what} within 16x of the cap",
                    w.name
                );
            }
            let decoded = EventLog::from_bytes(&log.to_bytes())
                .unwrap_or_else(|e| panic!("{} at {workers} workers: {e}", w.name));
            assert_eq!(decoded.events(), log.events(), "{}", w.name);
        }
    }
}

#[test]
fn replay_equivalence_holds_across_seeds() {
    for seed in [0, 7, 1234] {
        for name in ["bodytrack", "vips", "streamcluster"] {
            let w = txrace_workloads::by_name(name, 3).expect("bundled workload");
            check_detector_schemes(name, &w.program, |scheme| w.config(scheme, seed));
        }
    }
}

/// Drives a raw consumer live under a fair scheduler, returning it.
fn drive_live<C: TraceConsumer>(p: &Program, seed: u64, consumer: C) -> C {
    let mut rt = Live::new(consumer);
    let mut m = Machine::new(p);
    let mut sched = FairSched::new(seed, 0.1);
    m.run_with_limit(&mut rt, &mut sched, StepLimit::default());
    rt.into_inner()
}

#[test]
fn raw_hb_and_lockset_detectors_replay_identically() {
    for w in all_workloads(3) {
        let n = w.program.thread_count();
        let mut sched = FairSched::new(9, 0.1);
        let log = record_run(&w.program, &mut sched, StepLimit::default());

        let live = drive_live(&w.program, 9, FastTrack::new(n, ShadowMode::Exact));
        let mut rep = FastTrack::new(n, ShadowMode::Exact);
        log.replay(&mut rep);
        assert_eq!(
            live.races().reports(),
            rep.races().reports(),
            "{}: FastTrack",
            w.name
        );

        let live = drive_live(&w.program, 9, VectorClockDetector::new(n));
        let mut rep = VectorClockDetector::new(n);
        log.replay(&mut rep);
        assert_eq!(
            live.races().reports(),
            rep.races().reports(),
            "{}: VectorClockDetector",
            w.name
        );

        let live = drive_live(&w.program, 9, Lockset::new(n));
        let mut rep = Lockset::new(n);
        log.replay(&mut rep);
        assert_eq!(live.reports(), rep.reports(), "{}: Lockset", w.name);
    }
}

#[test]
fn recording_is_deterministic() {
    let w = txrace_workloads::by_name("bodytrack", 4).expect("bundled workload");
    let d = Detector::new(w.config(Scheme::Tsan, 5));
    let a = d.record(&w.program);
    let b = d.record(&w.program);
    assert_eq!(a.events(), b.events());
    assert_eq!(a.census(), b.census());
    assert_eq!(a.final_memory(), b.final_memory());
    assert_eq!(a.result(), b.result());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs: the full pipeline (including sampling RNG state
    /// and static pruning) replays identically to the live run.
    #[test]
    fn random_programs_replay_identically(
        gen_seed in 0u64..400,
        sched_seed in 0u64..40,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let log = Detector::new(RunConfig::new(Scheme::Tsan, sched_seed)).record(&p);
        for scheme in [Scheme::Tsan, Scheme::TsanSampling { rate: 0.4 }] {
            let d = Detector::new(RunConfig::new(scheme, sched_seed));
            let live = d.run(&p);
            let replayed = d.replay(&log, d.consumer(&p));
            prop_assert_eq!(live.races.reports(), replayed.races.reports());
            prop_assert_eq!(live.breakdown, replayed.breakdown);
            prop_assert_eq!(live.checks, replayed.checks);
            prop_assert_eq!(&live.memory, &replayed.memory);
            prop_assert_eq!(live.run, replayed.run);
        }
    }

    /// Random sync-free programs through the raw HB detectors.
    #[test]
    fn random_programs_raw_detectors_replay_identically(
        gen_seed in 0u64..200,
        sched_seed in 0u64..20,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let n = p.thread_count();
        let mut sched = FairSched::new(sched_seed, 0.1);
        let log = record_run(&p, &mut sched, StepLimit::default());

        let live = drive_live(&p, sched_seed, FastTrack::new(n, ShadowMode::Exact));
        let mut rep = FastTrack::new(n, ShadowMode::Exact);
        log.replay(&mut rep);
        prop_assert_eq!(live.races().reports(), rep.races().reports());
    }
}
