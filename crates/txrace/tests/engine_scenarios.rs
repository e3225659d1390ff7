//! End-to-end scenario tests of the TxRace two-phase protocol, one per
//! paper mechanism: conflict-triggered slow path (Figure 3), false-sharing
//! filtering, capacity fallback with concurrent fast/slow detection
//! (Figure 5), fast-path happens-before tracking (Figure 6),
//! non-overlapping false negatives (Figure 4), loop-cut, the §9
//! conflict-address slow path, and the forward progress / correctness
//! invariants of DESIGN.md §6.

use txrace::{
    instrument, recall, Detector, EngineConfig, InstrumentConfig, LoopcutMode, RunConfig,
    SchedKind, Scheme, TxRaceEngine, TxRaceOpts,
};
use txrace_htm::HtmConfig;
use txrace_sim::{
    InterruptKind, InterruptModel, Machine, Op, Program, ProgramBuilder, RunStatus, Scheduler,
    Stmt, ThreadId,
};

fn txrace_cfg(seed: u64) -> RunConfig {
    RunConfig::new(Scheme::txrace(), seed)
}

fn tsan_cfg(seed: u64) -> RunConfig {
    RunConfig::new(Scheme::Tsan, seed)
}

/// Two threads hammer the same variable in big unsynchronized regions:
/// the HTM must conflict, the slow path must pinpoint the planted pair.
fn racy_program() -> Program {
    // The racy accesses recur throughout both threads' main loops, so the
    // conflicting accesses overlap in flight under any fair schedule.
    let mut b = ProgramBuilder::new(2);
    let x = b.var("x");
    let scratch = b.array("scratch", 64);
    for t in 0..2u32 {
        b.thread(t as usize).loop_n(50, |tb| {
            tb.compute(5);
            for i in 0..6 {
                tb.read(txrace_sim::elem(scratch, (t as usize) * 8 + i));
            }
            if t == 0 {
                tb.write_l(x, 1, "racy_write");
            } else {
                tb.read_l(x, "racy_read");
            }
            tb.compute(4);
            // A syscall cuts the region, so each iteration is its own
            // transaction: most commit, the overlapping ones conflict.
            tb.syscall(txrace_sim::SyscallKind::Io);
        });
    }
    b.build()
}

#[test]
fn conflict_abort_triggers_slow_path_and_pinpoints_race() {
    let p = racy_program();
    let out =
        Detector::new(txrace_cfg(7).with_sched(SchedKind::Random { stickiness: 0.5 })).run(&p);
    assert!(out.completed());
    let htm = out.htm.expect("txrace run has HTM stats");
    assert!(htm.conflict_aborts > 0, "expected conflict aborts: {htm:?}");
    assert!(htm.committed > 0);
    let w = p.site("racy_write").unwrap();
    let r = p.site("racy_read").unwrap();
    assert!(
        out.races.contains(w, r),
        "planted race not found; races: {:?}",
        out.races.pairs().collect::<Vec<_>>()
    );
    let es = out.engine.expect("engine stats");
    assert!(es.slow_conflict > 0);
    assert!(es.txfail_writes > 0, "conflict episode must write TxFail");
}

#[test]
fn false_sharing_conflicts_are_filtered_by_slow_path() {
    // Distinct variables in one cache line: the fast path conflicts, the
    // word-granular slow path must not report anything.
    let mut b = ProgramBuilder::new(2);
    let base = b.var("padded");
    let x0 = base;
    let x1 = b.var_sharing_line(base, 8);
    for (t, v) in [(0usize, x0), (1usize, x1)] {
        b.thread(t).loop_n(60, |tb| {
            tb.write(v, t as u64).read(v).compute(3);
        });
    }
    let p = b.build();
    let out =
        Detector::new(txrace_cfg(3).with_sched(SchedKind::Random { stickiness: 0.3 })).run(&p);
    assert!(out.completed());
    let htm = out.htm.unwrap();
    assert!(
        htm.conflict_aborts > 0,
        "false sharing should conflict in HTM: {htm:?}"
    );
    assert!(
        out.races.is_empty(),
        "false sharing must be filtered (completeness): {:?}",
        out.races.reports()
    );
}

#[test]
fn lock_protected_accesses_never_race_and_never_conflict() {
    let mut b = ProgramBuilder::new(4);
    let x = b.var("x");
    let l = b.lock_id("l");
    for t in 0..4 {
        b.thread(t).loop_n(25, |tb| {
            tb.lock(l);
            for _ in 0..6 {
                tb.read(x);
            }
            tb.write(x, t as u64);
            tb.unlock(l);
        });
    }
    let p = b.build();
    let out = Detector::new(txrace_cfg(11)).run(&p);
    assert!(out.completed());
    assert!(out.races.is_empty());
    // Critical sections on one lock cannot overlap, so their transactions
    // cannot conflict with each other.
    assert_eq!(out.htm.unwrap().conflict_aborts, 0);
}

#[test]
fn capacity_abort_sends_only_that_thread_slow() {
    // Thread 0 writes far more lines than the (shrunken) HTM holds;
    // thread 1 does small clean work.
    let mut b = ProgramBuilder::new(2);
    let big = b.array("big", 1024); // 128 lines
    let y = b.var("y");
    b.thread(0).loop_n(3, |tb| {
        for i in 0..128 {
            tb.write(txrace_sim::elem(big, i * 8), 1);
        }
        tb.compute(10);
    });
    b.thread(1).loop_n(50, |tb| {
        tb.read(y).read(y).read(y).write(y, 1).read(y).read(y);
    });
    let p = b.build();
    let htm = HtmConfig {
        write_sets: 8,
        write_ways: 4, // 32-line write capacity
        ..HtmConfig::default()
    };
    let cfg = RunConfig::new(
        Scheme::TxRace(TxRaceOpts {
            loopcut: LoopcutMode::NoOpt,
            ..TxRaceOpts::default()
        }),
        5,
    )
    .with_htm(htm);
    let out = Detector::new(cfg).run(&p);
    assert!(out.completed());
    let stats = out.htm.unwrap();
    assert!(stats.capacity_aborts > 0, "{stats:?}");
    let es = out.engine.unwrap();
    assert!(es.slow_capacity > 0);
    // No conflicts, no TxFail episodes: thread 1 stays fast.
    assert_eq!(es.txfail_writes, 0);
    assert!(out.races.is_empty());
}

#[test]
fn loopcut_dyn_reduces_capacity_aborts() {
    // Each loop iteration writes a fresh cache line (stride 64); the
    // shrunken HTM holds 32 write lines, so a 200-iteration transaction
    // always overflows unless it is cut.
    let mut b = ProgramBuilder::new(2);
    let big0 = b.array("big0", 8192);
    let big1 = b.array("big1", 8192);
    for (t, base) in [(0usize, big0), (1usize, big1)] {
        // Ten dynamic instances of the region (cut by the syscall), each
        // walking 60 fresh lines: NoOpt capacity-aborts every instance;
        // Dyn learns after the first; Prof avoids even that one.
        b.thread(t).loop_n(10, |tb| {
            tb.loop_n(60, |tb| {
                tb.write_arr(base, 64, 1);
                tb.compute(2);
            });
            tb.syscall(txrace_sim::SyscallKind::Io);
        });
    }
    let p = b.build();
    let htm = HtmConfig {
        write_sets: 8,
        write_ways: 4, // 32-line write capacity
        ..HtmConfig::default()
    };
    let run = |mode: LoopcutMode| {
        let cfg = RunConfig::new(
            Scheme::TxRace(TxRaceOpts {
                loopcut: mode,
                ..TxRaceOpts::default()
            }),
            9,
        )
        .with_htm(htm);
        Detector::new(cfg).run(&p)
    };
    let noopt = run(LoopcutMode::NoOpt);
    let dynr = run(LoopcutMode::Dyn);
    let prof = run(LoopcutMode::Prof);
    assert!(noopt.completed() && dynr.completed() && prof.completed());
    let (n_cap, d_cap, p_cap) = (
        noopt.htm.unwrap().capacity_aborts,
        dynr.htm.unwrap().capacity_aborts,
        prof.htm.unwrap().capacity_aborts,
    );
    assert!(n_cap > 0);
    assert!(d_cap < n_cap, "Dyn should cut: {d_cap} vs {n_cap}");
    assert!(
        p_cap <= d_cap,
        "Prof avoids early aborts: {p_cap} vs {d_cap}"
    );
    assert!(dynr.engine.unwrap().loop_cuts > 0);
    assert!(
        dynr.overhead < noopt.overhead,
        "loopcut should pay off: {} vs {}",
        dynr.overhead,
        noopt.overhead
    );
}

#[test]
fn fast_slow_concurrent_detection_via_strong_isolation() {
    // Figure 5: thread 0 runs big fast regions touching X; thread 1 runs
    // tiny (SlowOnly) regions also touching X. The slow thread's plain
    // access must doom thread 0's transaction (strong isolation), pulling
    // it into the slow path where the race is confirmed.
    let mut b = ProgramBuilder::new(2);
    let x = b.var("x");
    let pad = b.array("pad", 64);
    b.thread(0).loop_n(80, |tb| {
        for i in 0..6 {
            tb.read(txrace_sim::elem(pad, i));
        }
        tb.write_l(x, 7, "fast_write");
        tb.compute(3);
    });
    b.thread(1).loop_n(80, |tb| {
        tb.read_l(x, "slow_read").compute(6);
        tb.syscall(txrace_sim::SyscallKind::Io); // keeps regions tiny (SlowOnly)
    });
    let p = b.build();
    let out =
        Detector::new(txrace_cfg(21).with_sched(SchedKind::Random { stickiness: 0.4 })).run(&p);
    assert!(out.completed());
    assert!(
        out.engine.unwrap().slow_small > 0,
        "thread 1 regions are SlowOnly"
    );
    let w = p.site("fast_write").unwrap();
    let r = p.site("slow_read").unwrap();
    assert!(
        out.races.contains(w, r),
        "fast/slow race not detected: {:?}",
        out.races.pairs().collect::<Vec<_>>()
    );
}

#[test]
fn fast_path_sync_tracking_prevents_false_positives() {
    // Figure 6: a signal/wait edge whose endpoints run on the fast path
    // must still order slow-path accesses before and after it.
    let mut b = ProgramBuilder::new(2);
    let x = b.var("x");
    let c = b.cond_id("c");
    // Thread 0: writes X in a tiny SlowOnly region, then signals.
    b.thread(0).write_l(x, 1, "before_signal").signal(c);
    // Thread 1: waits, runs a big fast region (clean), then a tiny
    // SlowOnly region writing X.
    let pad = b.array("pad", 64);
    b.thread(1).wait(c);
    b.thread(1).loop_n(10, |tb| {
        for i in 0..6 {
            tb.read(txrace_sim::elem(pad, i));
        }
    });
    b.thread(1).syscall(txrace_sim::SyscallKind::Io);
    b.thread(1).write_l(x, 2, "after_wait");
    let p = b.build();
    let out = Detector::new(txrace_cfg(2)).run(&p);
    assert!(out.completed());
    assert!(
        out.races.is_empty(),
        "signal/wait-ordered accesses misreported: {:?}",
        out.races.reports()
    );
}

#[test]
fn non_overlapping_race_is_missed_but_tsan_finds_it() {
    // Figure 4(b) / the bodytrack init idiom: write early, read much
    // later; transactions never overlap, so TxRace misses what TSan finds.
    let mut b = ProgramBuilder::new(2);
    let x = b.var("x");
    let pad0 = b.array("pad0", 64);
    let pad1 = b.array("pad1", 64);
    // Thread 0: racy write in its own early region (closed by a syscall),
    // then long quiet work.
    b.thread(0).write_l(x, 1, "init_write");
    b.thread(0).write(x, 1).write(x, 1).write(x, 1).write(x, 1); // pad region >= K
    b.thread(0).syscall(txrace_sim::SyscallKind::Io);
    b.thread(0).loop_n(400, |tb| {
        tb.read(txrace_sim::elem(pad0, 0)).compute(20);
    });
    // Thread 1: long quiet work, then the racy read in its own region.
    b.thread(1).loop_n(400, |tb| {
        tb.read(txrace_sim::elem(pad1, 0)).compute(20);
    });
    b.thread(1).syscall(txrace_sim::SyscallKind::Io);
    b.thread(1)
        .read_l(x, "late_read")
        .read(x)
        .read(x)
        .read(x)
        .read(x);
    let p = b.build();

    // Round-robin keeps the two ends of the race hundreds of steps apart.
    let tx = Detector::new(txrace_cfg(1).with_sched(SchedKind::RoundRobin)).run(&p);
    let ts = Detector::new(tsan_cfg(1).with_sched(SchedKind::RoundRobin)).run(&p);
    let w = p.site("init_write").unwrap();
    let r = p.site("late_read").unwrap();
    assert!(ts.races.contains(w, r), "HB detector must find it");
    assert!(
        !tx.races.contains(w, r),
        "overlap-based TxRace should miss the temporally-distant race"
    );
    assert!(recall(&tx.races, &ts.races) < 1.0);
}

#[test]
fn unknown_aborts_from_interrupts_are_survivable() {
    let p = racy_program();
    let cfg = txrace_cfg(13).with_interrupts(InterruptModel {
        context_switch_p: 0.02,
        transient_p: 0.01,
    });
    let out = Detector::new(cfg).run(&p);
    assert!(out.completed());
    let htm = out.htm.unwrap();
    assert!(htm.unknown_aborts > 0, "{htm:?}");
    assert!(htm.retry_aborts > 0, "{htm:?}");
    let es = out.engine.unwrap();
    assert!(es.slow_unknown > 0);
    assert!(es.fast_retries > 0);
}

#[test]
fn final_memory_matches_uninstrumented_semantics() {
    // Deterministic final state under locks: every scheme must agree.
    let mut b = ProgramBuilder::new(3);
    let counter = b.var("counter");
    let l = b.lock_id("l");
    for t in 0..3 {
        b.thread(t).loop_n(40, |tb| {
            tb.lock(l).rmw(counter, 1).unlock(l);
        });
    }
    let p = b.build();
    for scheme in [Scheme::Tsan, Scheme::txrace()] {
        let out = Detector::new(RunConfig::new(scheme, 17)).run(&p);
        assert!(out.completed());
        assert_eq!(out.memory.load(counter), 120, "atomicity violated");
    }
}

#[test]
fn same_seed_same_outcome() {
    let p = racy_program();
    let run = || {
        let out = Detector::new(txrace_cfg(99)).run(&p);
        (
            out.races.pairs().collect::<Vec<_>>(),
            out.breakdown,
            out.htm,
            out.engine,
            out.run.steps,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_can_find_different_schedules() {
    let p = racy_program();
    let steps: Vec<u64> = (0..4)
        .map(|s| Detector::new(txrace_cfg(s)).run(&p).run.steps)
        .collect();
    assert!(
        steps.windows(2).any(|w| w[0] != w[1]),
        "seeds should vary schedules: {steps:?}"
    );
}

#[test]
fn txrace_is_complete_every_report_is_a_tsan_race() {
    // Completeness (no false positives): on the same seed, everything
    // TxRace reports must be HB-racy per full TSan on a matching trace.
    // (TSan ground truth is schedule-dependent; use the same seed & sched.)
    let p = racy_program();
    for seed in 0..5 {
        let tx = Detector::new(txrace_cfg(seed)).run(&p);
        let ts = Detector::new(tsan_cfg(seed)).run(&p);
        for pair in tx.races.pairs() {
            assert!(
                ts.races.contains(pair.a, pair.b),
                "seed {seed}: TxRace reported {pair} unknown to TSan"
            );
        }
    }
}

#[test]
fn slow_only_small_regions_still_detect_races() {
    // Both sides tiny (< K): everything runs SlowOnly, detection is pure
    // software and still works.
    let mut b = ProgramBuilder::new(2);
    let x = b.var("x");
    for t in 0..2 {
        b.thread(t).loop_n(10, |tb| {
            tb.write_l(x, t as u64, &format!("w{t}_{}", 0)).compute(2);
            tb.syscall(txrace_sim::SyscallKind::Io);
        });
    }
    let p = b.build();
    let out = Detector::new(txrace_cfg(4)).run(&p);
    assert!(out.completed());
    let es = out.engine.unwrap();
    assert!(es.slow_small > 0);
    assert_eq!(out.races.distinct_count(), 1);
}

#[test]
fn single_threaded_phases_cost_nothing_extra() {
    // A program that is mostly single-threaded prologue/epilogue: TxRace
    // overhead should stay close to 1x thanks to the elision.
    let mut b = ProgramBuilder::new(2);
    let x = b.var("x");
    b.thread(0).loop_n(2000, |tb| {
        tb.write(x, 1).compute(2);
    });
    b.thread(0).spawn(ThreadId(1));
    b.thread(0).read(x).read(x).read(x).read(x).read(x);
    b.thread(0).join(ThreadId(1));
    b.thread(0).loop_n(2000, |tb| {
        tb.write(x, 2).compute(2);
    });
    b.thread(1).read(x).read(x).read(x).read(x).read(x);
    let p = b.build();
    let out = Detector::new(txrace_cfg(6)).run(&p);
    assert!(out.completed());
    assert!(
        out.overhead < 1.2,
        "single-threaded elision should keep overhead tiny, got {}",
        out.overhead
    );
}

/// Figure 4(a) vs 4(b): the *same* temporally-distant race is caught when
/// each thread is one long transaction (the accesses' transactions
/// overlap) and missed when the regions are cut short.
#[test]
fn transaction_length_controls_detection_figure4() {
    let build = |cut: bool| {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let pad0 = b.array("pad0", 8);
        let pad1 = b.array("pad1", 8);
        // Thread 0 writes X early; thread 1 reads X late. With no cuts,
        // each thread is a single long transaction and the two overlap;
        // with per-iteration cuts the racy accesses sit in short
        // transactions hundreds of steps apart.
        // The racy regions carry enough private accesses to stay above the
        // K threshold, so they run as transactions rather than being
        // software-checked outright.
        b.thread(0).write_l(x, 1, "early_write");
        for i in 0..5 {
            b.thread(0).read(txrace_sim::elem(pad0, i));
        }
        if cut {
            b.thread(0).syscall(txrace_sim::SyscallKind::Io);
        }
        // The writer runs longer than the reader, so in the uncut case its
        // transaction is still in flight when the reader's late access
        // arrives.
        b.thread(0).loop_n(90, |tb| {
            for i in 0..4 {
                tb.read(txrace_sim::elem(pad0, i));
            }
            tb.compute(4);
            if cut {
                tb.syscall(txrace_sim::SyscallKind::Io);
            }
        });
        b.thread(1).loop_n(60, |tb| {
            for i in 0..4 {
                tb.read(txrace_sim::elem(pad1, i));
            }
            tb.compute(4);
            if cut {
                tb.syscall(txrace_sim::SyscallKind::Io);
            }
        });
        if cut {
            b.thread(1).syscall(txrace_sim::SyscallKind::Io);
        }
        for i in 0..5 {
            b.thread(1).read(txrace_sim::elem(pad1, i));
        }
        b.thread(1).read_l(x, "late_read");
        b.build()
    };
    let run = |p: &Program| Detector::new(txrace_cfg(1).with_sched(SchedKind::RoundRobin)).run(p);
    let long = build(false);
    let short = build(true);
    let long_out = run(&long);
    let short_out = run(&short);
    assert!(
        long_out.races.contains(
            long.site("early_write").unwrap(),
            long.site("late_read").unwrap()
        ),
        "long transactions overlap: race must be caught (Fig. 4a)"
    );
    assert!(
        !short_out.races.contains(
            short.site("early_write").unwrap(),
            short.site("late_read").unwrap()
        ),
        "short transactions never overlap: race must be missed (Fig. 4b)"
    );
    // TSan finds it either way — transaction length is an HTM-side limit.
    let ts = Detector::new(tsan_cfg(1).with_sched(SchedKind::RoundRobin)).run(&short);
    assert!(ts.races.contains(
        short.site("early_write").unwrap(),
        short.site("late_read").unwrap()
    ));
}

/// The §9 conflict-address extension through the `Detector` front end:
/// when the HTM reports the conflicting line, the conflict slow path
/// checks only accesses to it, so it does strictly fewer checks and
/// spends fewer conflict cycles, and everything it reports is still a
/// real (TSan) race.
#[test]
fn conflict_address_reporting_shrinks_the_conflict_slow_path() {
    for name in ["x264", "fluidanimate"] {
        let w = txrace_workloads::by_name(name, 4).expect("known app");
        let hint_htm = HtmConfig {
            report_conflict_address: true,
            ..HtmConfig::default()
        };
        let truth = Detector::new(w.config(Scheme::Tsan, 42)).run(&w.program);
        let base = Detector::new(w.config(Scheme::txrace(), 42)).run(&w.program);
        let hints =
            Detector::new(w.config(Scheme::txrace(), 42).with_htm(hint_htm)).run(&w.program);
        assert!(base.completed() && hints.completed(), "{name}");
        assert!(
            hints.checks < base.checks,
            "{name}: hints should check less: {} vs {}",
            hints.checks,
            base.checks
        );
        assert!(
            hints.breakdown.conflict < base.breakdown.conflict,
            "{name}: hints should spend fewer conflict cycles: {} vs {}",
            hints.breakdown.conflict,
            base.breakdown.conflict
        );
        assert!(hints.races.distinct_count() > 0, "{name}");
        for pr in hints.races.pairs() {
            assert!(
                truth.races.contains(pr.a, pr.b),
                "{name}: hinted run reported a non-race {pr:?}"
            );
        }
    }
}

/// Without fast-path sync tracking (paper §5, Figure 6) the slow path
/// misses happens-before edges formed on the fast path and reports
/// false positives; the default configuration reports none.
#[test]
fn untracked_fast_path_sync_reports_false_positives() {
    for name in ["ferret", "apache"] {
        let w = txrace_workloads::by_name(name, 4).expect("known app");
        let truth = Detector::new(w.config(Scheme::Tsan, 42)).run(&w.program);
        let false_positives = |opts: TxRaceOpts| {
            let out = Detector::new(w.config(Scheme::TxRace(opts), 42)).run(&w.program);
            assert!(out.completed(), "{name}");
            out.races
                .pairs()
                .filter(|pr| !truth.races.contains(pr.a, pr.b))
                .count()
        };
        let untracked = TxRaceOpts {
            track_fast_sync: false,
            ..TxRaceOpts::default()
        };
        assert_eq!(false_positives(TxRaceOpts::default()), 0, "{name}");
        assert!(false_positives(untracked) > 0, "{name}");
    }
}

/// Runs the lowest-numbered runnable thread (so thread 0 runs to its
/// end first) and hits thread 0's `at`-th step with an interrupt of
/// `kind`. Counts thread 0's steps.
struct Directed {
    at: Option<u64>,
    kind: InterruptKind,
    steps: u64,
}

impl Scheduler for Directed {
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        runnable[0]
    }

    fn interrupt(&mut self, t: ThreadId) -> Option<InterruptKind> {
        if t != ThreadId(0) {
            return None;
        }
        self.steps += 1;
        (Some(self.steps) == self.at).then_some(self.kind)
    }
}

/// Learned loop-cut thresholds, as `loopcut_profile().thresholds`.
type Thresholds = Vec<(txrace_sim::LoopId, u32)>;

/// Thread 0 runs one region twice, twelve fresh lines each, against an
/// eight-line write capacity: the first instance capacity-aborts and
/// activates the inner loop; the second is cut three times (after 2, 3
/// and 4 iterations), and its last transaction ends at the region end.
/// Runs it once without an interrupt, then with one `kind` interrupt at
/// thread 0's next-to-last step, which is still inside the transaction
/// the third cut began. Returns both runs' learned thresholds and the
/// interrupted run's stats.
fn run_interrupted_cut(kind: InterruptKind) -> (Thresholds, Thresholds, txrace::EngineStats) {
    let mut b = ProgramBuilder::new(2);
    let arr = b.array("arr", 4096);
    b.thread(0).loop_n(2, |tb| {
        tb.loop_n(12, |tb| {
            tb.write_arr(arr, 64, 1);
        });
        tb.syscall(txrace_sim::SyscallKind::Io);
    });
    let other = b.var("other");
    b.thread(1).write(other, 1);
    let p = b.build();
    let ip = instrument(&p, &InstrumentConfig::default());
    let cfg = EngineConfig {
        htm: HtmConfig {
            write_sets: 2,
            write_ways: 4,
            ..HtmConfig::default()
        },
        ..EngineConfig::default()
    };
    let run = |at: Option<u64>| {
        let mut engine = TxRaceEngine::new(&ip, cfg.clone());
        let mut sched = Directed { at, kind, steps: 0 };
        let r = Machine::new(&ip.program).run(&mut engine, &mut sched);
        assert_eq!(r.status, RunStatus::Done);
        (
            engine.loopcut_profile().thresholds,
            engine.stats(),
            sched.steps,
        )
    };
    let (clean, clean_stats, steps) = run(None);
    assert_eq!(clean_stats.loop_cuts, 3);
    assert_eq!(clean_stats.fast_retries, 0);
    let (interrupted, stats, _) = run(Some(steps - 1));
    assert_eq!(stats.loop_cuts, 3, "the interrupt must not change the cuts");
    (clean, interrupted, stats)
}

/// A transient abort of a transaction that a loop cut began rolls back
/// to the cut's probe, and the retry starts a fresh transaction there
/// that keeps the cut loop. Its commit at the region's end grows the
/// loop's threshold exactly as the interrupt-free run's does (§4.3: every
/// committing cut transaction earns the credit).
#[test]
fn retry_rolled_back_to_a_loop_cut_probe_keeps_its_cut_credit() {
    let (clean, retried, stats) = run_interrupted_cut(InterruptKind::Transient);
    assert_eq!(
        stats.fast_retries, 1,
        "the interrupt must abort a transaction"
    );
    let [(l, 6)] = clean[..] else {
        panic!("one loop learned to 6 expected: {clean:?}");
    };
    assert_eq!(retried, vec![(l, 6)]);
}

/// A context switch in the same place is an unknown abort: the thread
/// re-executes from the cut's probe on the slow path, no transaction
/// commits there, and the loop earns no credit, one below the
/// interrupt-free run's threshold.
#[test]
fn slow_path_fallback_from_a_loop_cut_probe_earns_no_cut_credit() {
    let (clean, slow, stats) = run_interrupted_cut(InterruptKind::ContextSwitch);
    assert_eq!(stats.fast_retries, 0);
    assert_eq!(
        stats.slow_unknown, 1,
        "the interrupt must send the thread slow"
    );
    let [(l, 6)] = clean[..] else {
        panic!("one loop learned to 6 expected: {clean:?}");
    };
    assert_eq!(slow, vec![(l, 5)]);
}

/// Main spawns threads 1 and 2, joins thread 1 twice and never joins
/// thread 2. Two joins of one thread are not one join per thread: main's
/// accesses after the joins still run concurrently with thread 2's, so
/// they stay instrumented and their race on `x` is reported.
#[test]
fn a_repeated_join_does_not_end_main_concurrency() {
    let mut b = ProgramBuilder::new(3);
    let x = b.var("x");
    let y = b.var("y");
    b.thread(0)
        .spawn(ThreadId(1))
        .spawn(ThreadId(2))
        .join(ThreadId(1))
        .join(ThreadId(1))
        .write(x, 1)
        .write(x, 2);
    b.thread(1).write(y, 1);
    b.thread(2).write(x, 3);
    let p = b.build();
    assert_eq!(txrace_sim::lint(&p), vec![], "the program is lint-clean");

    let ip = instrument(&p, &InstrumentConfig::default());
    let main = ip.program.thread(ThreadId(0));
    let ops: Vec<Op> = main
        .iter()
        .map(|s| match s {
            Stmt::Op { op, .. } => *op,
            Stmt::Loop { .. } => unreachable!("main has no loops"),
        })
        .collect();
    let last_join = ops
        .iter()
        .rposition(|op| matches!(op, Op::Join(_)))
        .expect("main joins");
    assert!(
        matches!(
            ops[last_join + 1..],
            [Op::TxBegin(_), Op::Write(..), Op::Write(..), Op::TxEnd(_)]
        ),
        "main's post-join writes must sit in a region: {:?}",
        &ops[last_join + 1..]
    );

    let out = Detector::new(txrace_cfg(0)).run(&p);
    assert!(out.completed());
    assert!(
        out.races.distinct_count() >= 1,
        "main's writes race with thread 2's"
    );
}
