//! The parallel replay contract: fanning one [`EventLog`] to N
//! consumers on the worker pool, and sharding FastTrack/lockset shadow
//! state by address across W workers, are both *byte-identical* to a
//! serial single-consumer replay — for every detector, every worker
//! count, and every width.
//!
//! Fan-out is trivially equivalent (consumers are pure observers with
//! private state; concurrency can't change what any of them sees), so
//! the tests there guard the harness plumbing: ordering, panel
//! recovery, outcome assembly. Sharding is the interesting case — the
//! routing/broadcast/merge rules of `txrace_hb::sharded` are what these
//! tests pin down, including the deterministic reconstruction of the
//! serial report *order* from per-shard report lists.

use proptest::prelude::*;
use txrace::{CostModel, Detector, LocksetConsumer, PanelConsumer, RunConfig, Scheme};
use txrace_hb::{
    shard_of, FastTrack, Lockset, ShadowMode, ShardPlan, ShardedFastTrack, ShardedLockset,
    VectorClockDetector,
};
use txrace_sim::{fan_out, Addr, EventLog, Program, SyncIndex, TraceEventKind};
use txrace_workloads::{all_workloads, random_program, GenConfig};

/// Worker counts / fan-out widths exercised everywhere, including more
/// shards than a small host has cores.
const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

/// Checks both parallel layers against fresh serial replays of `log`.
fn check_parallel_equivalence(app: &str, p: &Program, d: &Detector, log: &EventLog) {
    let n = p.thread_count();

    // --- Serial references: one single-threaded replay per detector. ---
    let serial_out = d.replay(log, d.consumer(p));
    let mut serial_ft = FastTrack::new(n, ShadowMode::Exact);
    log.replay(&mut serial_ft);
    let mut serial_vc = VectorClockDetector::new(n);
    log.replay(&mut serial_vc);
    let mut serial_ls = Lockset::new(n);
    log.replay(&mut serial_ls);

    // --- Layer 1: heterogeneous fan-out at every width. ---
    for width in WORKERS {
        let panel = vec![
            PanelConsumer::Tsan(d.consumer(p)),
            PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact)),
            PanelConsumer::VcRef(VectorClockDetector::new(n)),
            PanelConsumer::Lockset(LocksetConsumer::new(n, CostModel::default())),
        ];
        let mut fanned = fan_out(log, panel, width).into_iter();

        let tsan = fanned
            .next()
            .and_then(|r| r.consumer.into_tsan())
            .expect("fan_out preserves panel order");
        let out = d.outcome_of_replayed(tsan, log);
        assert_eq!(
            out.races.reports(),
            serial_out.races.reports(),
            "{app}: tsan races diverged at width {width}"
        );
        assert_eq!(out.breakdown, serial_out.breakdown, "{app} w={width}");
        assert_eq!(out.checks, serial_out.checks, "{app} w={width}");
        assert_eq!(out.memory, serial_out.memory, "{app} w={width}");

        let ft = fanned
            .next()
            .and_then(|r| r.consumer.into_fasttrack())
            .expect("fan_out preserves panel order");
        assert_eq!(
            ft.races().reports(),
            serial_ft.races().reports(),
            "{app}: fasttrack races diverged at width {width}"
        );
        assert_eq!(ft.checks(), serial_ft.checks(), "{app} w={width}");

        let vc = fanned
            .next()
            .and_then(|r| r.consumer.into_vcref())
            .expect("fan_out preserves panel order");
        assert_eq!(
            vc.races().reports(),
            serial_vc.races().reports(),
            "{app}: vcref races diverged at width {width}"
        );

        let ls = fanned
            .next()
            .and_then(|r| r.consumer.into_lockset())
            .expect("fan_out preserves panel order");
        assert_eq!(
            ls.reports(),
            serial_ls.reports(),
            "{app}: lockset reports diverged at width {width}"
        );
    }

    // --- Layer 2: address-sharded detectors at every worker count. ---
    for workers in WORKERS {
        let plan = ShardPlan::build(log, workers);
        let out = ShardedFastTrack::new(n, workers).run_with_plan(&plan);
        assert_eq!(
            out.races.reports(),
            serial_ft.races().reports(),
            "{app}: sharded fasttrack races diverged at {workers} workers"
        );
        assert_eq!(
            out.races.distinct_count(),
            serial_ft.races().distinct_count(),
            "{app} workers={workers}"
        );
        assert_eq!(out.checks, serial_ft.checks(), "{app} workers={workers}");
        assert_eq!(
            out.sync_ops,
            serial_ft.sync_ops(),
            "{app} workers={workers}"
        );
        // Routing partitions the checks and the accesses: per-shard
        // shares sum to the serial totals, and each shard dispatches
        // only its access slice plus the shared sync stream — not the
        // full log (that was the old broadcast design's S× walk).
        let routed: u64 = out.shards.iter().map(|s| s.checks).sum();
        assert_eq!(routed, serial_ft.checks(), "{app} workers={workers}");
        let sliced: u64 = (0..workers)
            .map(|i| plan.partition().slice(i).len() as u64)
            .sum();
        assert_eq!(sliced, plan.partition().total_accesses());
        for (i, s) in out.shards.iter().enumerate() {
            assert_eq!(s.events, plan.shard_events(i), "{app} workers={workers}");
            assert!(s.events <= log.len() as u64, "{app} workers={workers}");
        }

        let ls_out = ShardedLockset::new(n, workers).run_with_plan(&plan);
        assert_eq!(
            ls_out.reports,
            serial_ls.reports(),
            "{app}: sharded lockset reports diverged at {workers} workers"
        );
    }
}

#[test]
fn all_workloads_parallel_replay_identically_across_seeds() {
    for seed in [11, 42, 1234] {
        for w in all_workloads(4) {
            let d = Detector::new(w.config(Scheme::Tsan, seed));
            let log = d.record(&w.program);
            check_parallel_equivalence(w.name, &w.program, &d, &log);
        }
    }
}

#[test]
fn channel_families_shard_identically_and_ride_the_sync_stream() {
    // The message-passing workloads synchronize through ChanSend/ChanRecv
    // edges, not locks or barriers. Sharded replay is only sound for them
    // if channel events ride the broadcast sync stream — every shard must
    // observe the complete channel history even though no shard owns it.
    for seed in [7, 42] {
        for w in all_workloads(4) {
            if !matches!(w.name, "pipeline" | "actors" | "worksteal") {
                continue;
            }
            let d = Detector::new(w.config(Scheme::Tsan, seed));
            let log = d.record(&w.program);
            let n = w.program.thread_count();

            let is_chan = |k: TraceEventKind| {
                matches!(k, TraceEventKind::ChanSend | TraceEventKind::ChanRecv)
            };
            let sync = SyncIndex::of(&log);
            let chan_in_log = log.events().iter().filter(|e| is_chan(e.kind)).count();
            let chan_in_sync = sync
                .events()
                .iter()
                .filter(|(_, e)| is_chan(e.kind))
                .count();
            assert!(
                chan_in_log > 0,
                "{}: fixture must exercise channels",
                w.name
            );
            assert_eq!(
                chan_in_sync, chan_in_log,
                "{}: every channel event rides the sync stream",
                w.name
            );

            let mut serial_ft = FastTrack::new(n, ShadowMode::Exact);
            log.replay(&mut serial_ft);
            let mut serial_ls = Lockset::new(n);
            log.replay(&mut serial_ls);

            for workers in WORKERS {
                let plan = ShardPlan::with_sync(sync.clone(), &log, workers);
                // No shard's slice contains a channel event: the
                // partitioner routes only data accesses.
                let sliced: u64 = (0..workers)
                    .map(|i| plan.partition().slice(i).len() as u64)
                    .sum();
                assert_eq!(
                    sliced + log.len() as u64 - plan.partition().total_accesses(),
                    log.len() as u64
                );
                let out = ShardedFastTrack::new(n, workers).run_with_plan(&plan);
                assert_eq!(
                    out.races.reports(),
                    serial_ft.races().reports(),
                    "{} seed={seed} workers={workers}: sharded fasttrack diverged",
                    w.name
                );
                let ls_out = ShardedLockset::new(n, workers).run_with_plan(&plan);
                assert_eq!(
                    ls_out.reports,
                    serial_ls.reports(),
                    "{} seed={seed} workers={workers}: sharded lockset diverged",
                    w.name
                );
            }
        }
    }
}

#[test]
fn shard_routing_is_a_partition() {
    // Every address maps to exactly one shard for every worker count —
    // the property the sharded detectors' correctness rests on.
    for shards in 1..=8 {
        for word in 0..512u64 {
            let addr = Addr(word * 8);
            let s = shard_of(addr, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(addr, shards), "routing must be stable");
        }
    }
    // One shard means everything routes to it (sharded == serial by
    // construction).
    for word in 0..64u64 {
        assert_eq!(shard_of(Addr(word * 8), 1), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random programs: both parallel layers reproduce the serial
    /// replay byte for byte, for every worker count.
    #[test]
    fn random_programs_parallel_replay_identically(
        gen_seed in 0u64..400,
        sched_seed in 0u64..40,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let d = Detector::new(RunConfig::new(Scheme::Tsan, sched_seed));
        let log = d.record(&p);
        check_parallel_equivalence("random", &p, &d, &log);
    }
}
