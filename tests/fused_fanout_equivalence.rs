//! The fused fan-out contract: a panel that [`fan_out`] fuses (the TSan
//! sampling sweep and raw FastTrack sharing one sync pass, identical
//! members sharing one shadow) returns every member exactly as a serial
//! [`EventLog::replay`] of that member alone would leave it: races,
//! checks, skipped, elided, the cycle breakdown, and the outcome
//! assembled from it.
//!
//! The panels mix members that fuse with members that must not, or must
//! fuse only partly: a FullFlow-pruned TSan member, `ShadowMode::Cells`
//! members, duplicate full-rate members, and sampling members whose seeds
//! differ.

use proptest::prelude::*;
use txrace::{
    CostModel, Detector, LocksetConsumer, PanelConsumer, RunConfig, RunOutcome, Scheme,
    StaticPruneMode,
};
use txrace_hb::{FastTrack, ShadowMode, VectorClockDetector};
use txrace_sim::{fan_out, EventLog, Program, TraceConsumer};
use txrace_workloads::{random_program, GenConfig};

/// Fan-out widths: serial, the host's, odd, and one group per member.
const WIDTHS: [usize; 4] = [1, 2, 3, 14];

/// One panel member: the detector that builds and assesses a TSan
/// member, or a raw consumer.
enum Spec {
    Tsan(Box<Detector>),
    Raw(fn(usize) -> PanelConsumer),
}

impl Spec {
    fn build(&self, p: &Program) -> PanelConsumer {
        match self {
            Spec::Tsan(d) => PanelConsumer::Tsan(d.consumer(p)),
            Spec::Raw(mk) => mk(p.thread_count()),
        }
    }
}

fn detector(cfg: RunConfig) -> Spec {
    Spec::Tsan(Box::new(Detector::new(cfg)))
}

fn tsan(scheme: Scheme, seed: u64) -> Spec {
    detector(RunConfig::new(scheme, seed))
}

fn cells(cfg: RunConfig, seed: u64) -> RunConfig {
    RunConfig {
        shadow: ShadowMode::Cells {
            per_granule: 1,
            seed,
        },
        ..cfg
    }
}

/// The benchmark's panel (full TSan, rates 0.0–1.0, raw FastTrack,
/// lockset), then members that must not fuse or fuse only partly.
fn panel(seed: u64) -> Vec<Spec> {
    let mut specs = vec![tsan(Scheme::Tsan, seed)];
    specs.extend((0..=10).map(|i| {
        tsan(
            Scheme::TsanSampling {
                rate: f64::from(i) / 10.0,
            },
            seed,
        )
    }));
    specs.push(Spec::Raw(|n| {
        PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact))
    }));
    specs.push(Spec::Raw(|n| {
        PanelConsumer::Lockset(LocksetConsumer::new(n, CostModel::default()))
    }));
    // Pruned: never fuses.
    specs.push(detector(
        RunConfig::new(Scheme::Tsan, seed).with_prune(StaticPruneMode::FullFlow),
    ));
    specs.push(detector(
        RunConfig::new(Scheme::TsanSampling { rate: 0.4 }, seed)
            .with_prune(StaticPruneMode::ChecksOnly),
    ));
    // Bounded shadow cells: fuses, with a shadow of its own.
    specs.push(detector(cells(RunConfig::new(Scheme::Tsan, seed), seed)));
    specs.push(detector(cells(
        RunConfig::new(Scheme::TsanSampling { rate: 0.7 }, seed),
        seed + 1,
    )));
    specs.push(Spec::Raw(|n| {
        PanelConsumer::FastTrack(FastTrack::new(
            n,
            ShadowMode::Cells {
                per_granule: 2,
                seed: 5,
            },
        ))
    }));
    // Duplicates of the shared full-rate shadow.
    specs.push(tsan(Scheme::Tsan, seed + 7));
    specs.push(Spec::Raw(|n| {
        PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact))
    }));
    // Other sampling seeds: a sweep of their own.
    specs.push(tsan(Scheme::TsanSampling { rate: 0.5 }, seed + 1));
    specs.push(tsan(Scheme::TsanSampling { rate: 0.0 }, seed + 1));
    specs.push(tsan(Scheme::TsanSampling { rate: 0.3 }, seed + 2));
    specs.push(Spec::Raw(|n| {
        PanelConsumer::VcRef(VectorClockDetector::new(n))
    }));
    specs
}

/// Asserts that `got` (from a fan-out) equals `want` (replayed alone).
fn assert_member_eq(
    what: &str,
    spec: &Spec,
    log: &EventLog,
    got: PanelConsumer,
    want: PanelConsumer,
) {
    assert_eq!(got.kind_name(), want.kind_name(), "{what}: member kind");
    assert_eq!(got.fingerprint(), want.fingerprint(), "{what}: reports");
    match (got, want) {
        (PanelConsumer::Tsan(g), PanelConsumer::Tsan(w)) => {
            assert_eq!(g.checked(), w.checked(), "{what}: checks");
            assert_eq!(g.skipped(), w.skipped(), "{what}: skipped");
            assert_eq!(g.elided(), w.elided(), "{what}: elided");
            assert_eq!(g.breakdown(), w.breakdown(), "{what}: breakdown");
            let Spec::Tsan(d) = spec else {
                unreachable!("a TSan member comes from a detector")
            };
            let g = d.outcome_of_replayed(g, log);
            let w = d.outcome_of_replayed(w, log);
            assert_outcomes_eq(what, &g, &w);
        }
        (PanelConsumer::FastTrack(g), PanelConsumer::FastTrack(w)) => {
            assert_eq!(g.checks(), w.checks(), "{what}: checks");
            assert_eq!(g.sync_ops(), w.sync_ops(), "{what}: sync ops");
        }
        _ => {}
    }
}

fn assert_outcomes_eq(what: &str, got: &RunOutcome, want: &RunOutcome) {
    assert_eq!(got.races.reports(), want.races.reports(), "{what}: races");
    assert_eq!(got.breakdown, want.breakdown, "{what}: breakdown");
    assert_eq!(got.checks, want.checks, "{what}: checks");
    assert_eq!(got.baseline_cycles, want.baseline_cycles, "{what}");
    assert_eq!(got.overhead.to_bits(), want.overhead.to_bits(), "{what}");
    assert_eq!(got.memory, want.memory, "{what}: memory");
    assert_eq!(got.run, want.run, "{what}: run");
}

/// Fans `specs` over `log` at every width and compares each member with
/// its own serial replay.
fn check_fused_fanout(what: &str, p: &Program, log: &EventLog, specs: &[Spec]) {
    for width in WIDTHS {
        let fanned = fan_out(log, specs.iter().map(|s| s.build(p)).collect(), width);
        assert_eq!(fanned.len(), specs.len(), "{what} w={width}");
        for (i, (r, spec)) in fanned.into_iter().zip(specs).enumerate() {
            let mut alone = spec.build(p);
            log.replay(&mut alone);
            let what = format!("{what} w={width} member {i}");
            assert_member_eq(&what, spec, log, r.consumer, alone);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random programs with channels: every member of a fused fan-out
    /// equals its standalone serial replay, at every width.
    #[test]
    fn fused_fanout_equals_serial_replay_per_member(
        gen_seed in 0u64..400,
        sched_seed in 0u64..40,
    ) {
        let cfg = GenConfig {
            chans: 2,
            ..GenConfig::default()
        };
        let p = random_program(&cfg, gen_seed);
        let log = Detector::new(RunConfig::new(Scheme::Tsan, sched_seed)).record(&p);
        check_fused_fanout("random", &p, &log, &panel(sched_seed));
    }
}

/// The sweep alone, at the seed the benchmark uses, on a program whose
/// readers share variables: the common case every figure takes.
#[test]
fn sweep_only_panel_fuses_exactly() {
    let p = random_program(&GenConfig::default(), 42);
    let log = Detector::new(RunConfig::new(Scheme::Tsan, 42)).record(&p);
    let specs: Vec<Spec> = panel(42).into_iter().take(12).collect();
    check_fused_fanout("sweep", &p, &log, &specs);
}

/// Fusion is visible in the plan: identical full-rate members share one
/// fused consumer, pruned members ride alone, and every member is
/// carried exactly once. Fusion does not depend on the fan-out width.
#[test]
fn fuse_joins_only_compatible_members() {
    let p = random_program(&GenConfig::default(), 3);
    let specs = panel(9);
    let entries = PanelConsumer::fuse(specs.iter().map(|s| s.build(&p)).collect());
    let mut seen: Vec<usize> = entries
        .iter()
        .flat_map(|f| f.members.iter().copied())
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..specs.len()).collect::<Vec<_>>());
    let entry_of = |i: usize| {
        entries
            .iter()
            .find(|f| f.members.contains(&i))
            .expect("every member is carried")
    };
    // The pruned members (14, 15), lockset (13) and vcref (24) ride
    // alone.
    for alone in [13, 14, 15, 24] {
        assert_eq!(entry_of(alone).members, vec![alone]);
    }
    // Full TSan (0), rate 1.0 (11), raw FastTrack (12) and their
    // duplicates (19, 20) share one fused consumer.
    let full = &entry_of(0).members;
    for dup in [11, 12, 19, 20] {
        assert!(full.contains(&dup), "{dup} not with full TSan");
    }
    // So does every sweep member with the first seed (rates 0.0–0.9).
    for first_seed in 1..=10 {
        assert!(
            full.contains(&first_seed),
            "{first_seed} not with full TSan"
        );
    }
    // Other sampling seeds never join the first seed's sweep.
    let other_seed = &entry_of(21).members;
    for first_seed in 1..=10 {
        assert!(!other_seed.contains(&first_seed));
    }
    assert!(!entry_of(23).members.contains(&21), "seeds differ");
}
