//! Stateless model checking of the TxRace engine: on a small program
//! containing a true race, a lock-protected counter, and a false-sharing
//! pair, explore **every** thread interleaving and verify, on each one:
//!
//! * forward progress (the run completes),
//! * completeness (nothing but the true race is ever reported),
//! * final-state correctness for the lock-protected state.
//!
//! This is the strongest form of DESIGN.md invariants 4 and 8: not
//! sampled over seeds, but proven over the complete schedule space of the
//! program.

use txrace::{instrument, EngineConfig, InstrumentConfig, TsanConsumer, TxRaceEngine};
use txrace_hb::ShadowMode;
use txrace_sim::explore::{explore, ExploreLimits};
use txrace_sim::{Live, Program, ProgramBuilder, RunStatus};

/// Two threads; per thread: one racy access, one locked increment, one
/// false-shared private write. Small enough to explore exhaustively
/// (instrumented with `K = 2` so the three-access region still runs as a
/// transaction without padding that would blow up the schedule space).
fn model_program() -> Program {
    let mut b = ProgramBuilder::new(2);
    let racy = b.var("racy");
    let counter = b.var("counter");
    let fs_base = b.var("fs0");
    let fs1 = b.var_sharing_line(fs_base, 8);
    let l = b.lock_id("l");
    for t in 0..2 {
        let fs = if t == 0 { fs_base } else { fs1 };
        let mut tb = b.thread(t);
        // The true race.
        if t == 0 {
            tb.write_l(racy, 1, "race_w");
        } else {
            tb.read_l(racy, "race_r");
        }
        tb.write(fs, 7); // false sharing: same line, disjoint words
        tb.lock(l).rmw(counter, 1).unlock(l);
    }
    b.build()
}

#[test]
fn txrace_is_complete_and_live_on_every_interleaving() {
    let p = model_program();
    let cfg = InstrumentConfig { k_min_ops: 2 };
    let ip = instrument(&p, &cfg);
    let race_w = p.site("race_w").unwrap();
    let race_r = p.site("race_r").unwrap();
    let counter = {
        // Recover the counter address for the final-state check.
        let mut b = ProgramBuilder::new(1);
        let _racy = b.var("racy");
        b.var("counter")
    };

    let mut detected = 0u64;
    let ip_ref = &ip;
    let stats = explore(
        &ip.program,
        || TxRaceEngine::new(ip_ref, EngineConfig::default()),
        |machine, engine, result| {
            assert_eq!(result.status, RunStatus::Done, "forward progress");
            // Completeness: the only reportable pair is the true race.
            for pair in engine.races().pairs() {
                assert!(
                    pair == txrace_hb::RacePair::new(race_w, race_r),
                    "false positive: {pair}"
                );
            }
            detected += u64::from(engine.races().contains(race_w, race_r));
            // Lock-protected increments both land on every schedule.
            assert_eq!(machine.memory().load(counter), 2, "atomicity");
        },
        ExploreLimits {
            max_paths: 2_000_000,
            max_steps: 10_000,
        },
    );
    assert!(
        stats.complete,
        "schedule space not covered ({} paths)",
        stats.paths
    );
    assert!(stats.paths > 100, "suspiciously few paths: {}", stats.paths);
    assert!(
        detected > 0,
        "the race overlaps on some schedules; at least one must catch it"
    );
}

#[test]
fn tsan_reports_exactly_the_race_on_every_interleaving() {
    let p = model_program();
    let race_w = p.site("race_w").unwrap();
    let race_r = p.site("race_r").unwrap();
    let n = p.thread_count();
    let stats = explore(
        &p,
        || {
            Live::new(TsanConsumer::new(
                n,
                txrace::CostModel::default(),
                1.0,
                ShadowMode::Exact,
                None,
                0,
            ))
        },
        |_machine, rt, result| {
            assert_eq!(result.status, RunStatus::Done);
            // The racy pair is unordered on every schedule; everything
            // else is lock-protected, thread-local, or atomic.
            assert_eq!(rt.consumer().races().distinct_count(), 1);
            assert!(rt.consumer().races().contains(race_w, race_r));
        },
        ExploreLimits {
            max_paths: 2_000_000,
            max_steps: 10_000,
        },
    );
    assert!(stats.complete);
}
