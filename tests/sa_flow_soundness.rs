//! Soundness of the flow-sensitive analysis layer, end to end.
//!
//! Two promises are on trial:
//!
//! 1. **The candidate generator over-approximates the dynamic truth**:
//!    every race an exact, unpruned FastTrack detector reports — on any
//!    workload, any seed, any scheme — is one of the statically
//!    generated [`MayRacePairs`].
//! 2. **Flow pruning never removes a dynamically racing check**: a site
//!    the flow table calls race-free never shows up in an unpruned race
//!    report, with exactly one principled exception — a
//!    `RedundantCheck` site, whose races are still caught (and were
//!    generated as candidates) under its own id; only its *check* moved
//!    to the surviving witness.

use std::collections::BTreeSet;

use proptest::prelude::*;
use txrace::{
    instrument, instrument_pruned, AdaptiveController, Detector, EngineConfig, FlowAnalysis,
    InstrumentConfig, InstrumentedProgram, Knobs, MayRacePairs, RaceFreeReason, RunConfig,
    RunOutcome, SchedKind, Scheme, SiteClass, SiteClassTable, StaticPruneMode, TxRaceEngine,
};
use txrace_hb::RacePair;
use txrace_sim::{
    FairSched, Machine, Program, RandomSched, RoundRobin, Scheduler, SiteId, StepLimit,
};
use txrace_workloads::{all_workloads, by_name, random_program, GenConfig, RaceKind};

fn pairs_of(out: &txrace::RunOutcome) -> BTreeSet<RacePair> {
    out.races.pairs().collect()
}

/// Asserts the flow-pruning soundness contract against an *unpruned*
/// run: every reported site is either still checked, or elided as a
/// redundant re-check (where detection survives via the witness).
fn assert_flow_prune_sound(ctx: &str, out: &txrace::RunOutcome, table: &SiteClassTable) {
    for r in out.races.reports() {
        for site in [r.prior.site, r.current.site] {
            match table.class(site) {
                SiteClass::PotentiallyRacy => {}
                SiteClass::RaceFree(RaceFreeReason::RedundantCheck) => {
                    let w = table
                        .witness_of(site)
                        .unwrap_or_else(|| panic!("{ctx}: redundant site {site} has no witness"));
                    assert!(
                        !table.is_race_free(w),
                        "{ctx}: witness {w} of redundant site {site} was itself pruned"
                    );
                }
                c => panic!(
                    "{ctx}: race report {} -- {} involves site {site}, which the \
                     flow analysis classified {c:?}",
                    r.prior.site, r.current.site
                ),
            }
        }
    }
}

/// Promise 1 on every workload: the static candidate pairs cover every
/// race an exact detector can find, across seeds and schemes.
#[test]
fn mayrace_covers_dynamic_races_on_all_workloads() {
    for w in all_workloads(4) {
        let mrp = MayRacePairs::analyze(&w.program);
        for seed in [1, 2, 42] {
            for scheme in [Scheme::Tsan, Scheme::txrace()] {
                let out = Detector::new(w.config(scheme.clone(), seed)).run(&w.program);
                assert!(out.completed(), "{} seed {seed}", w.name);
                for pr in out.races.pairs() {
                    assert!(
                        mrp.contains(pr.a, pr.b),
                        "{} seed {seed} ({scheme:?}): dynamic race {pr} escaped the \
                         static candidate set",
                        w.name
                    );
                }
            }
        }
    }
}

/// Promise 2 on every workload: unpruned exact TSan never blames a site
/// the flow table pruned, except redundant re-checks with a live witness.
#[test]
fn flow_pruned_sites_never_race_dynamically() {
    for w in all_workloads(4) {
        let table = SiteClassTable::analyze_flow(&w.program);
        for seed in [1, 2, 42] {
            let out = Detector::new(w.config(Scheme::Tsan, seed)).run(&w.program);
            assert!(out.completed(), "{} seed {seed}", w.name);
            assert_flow_prune_sound(w.name, &out, &table);
        }
    }
}

/// The flow layer strictly refines the base layer: every site the
/// flow-insensitive table prunes is pruned by the flow table with the
/// same reason, on every workload.
#[test]
fn flow_layer_refines_base_layer_on_all_workloads() {
    for w in all_workloads(4) {
        let base = SiteClassTable::analyze(&w.program);
        let flow = SiteClassTable::analyze_flow(&w.program);
        let (bs, fs) = (base.stats(&w.program), flow.stats(&w.program));
        for s in 0..w.program.site_count() {
            let site = txrace_sim::SiteId(s);
            if let SiteClass::RaceFree(r) = base.class(site) {
                assert_eq!(
                    flow.class(site),
                    SiteClass::RaceFree(r),
                    "{}: flow layer changed the base verdict of site {site}",
                    w.name
                );
            }
        }
        assert!(
            fs.race_free >= bs.race_free,
            "{}: flow layer pruned fewer sites than the base layer",
            w.name
        );
    }
}

/// FullFlow runs end to end: the planted hot races are still found and
/// no pruned site is ever blamed (mirrors the Full-mode suite, one
/// layer deeper).
#[test]
fn fullflow_prune_still_finds_hot_races() {
    for name in [
        "fluidanimate",
        "raytrace",
        "ferret",
        "streamcluster",
        "canneal",
        "pipeline",
    ] {
        let w = by_name(name, 4).expect("known app");
        let table = SiteClassTable::analyze_flow(&w.program);
        let expected = w.expected_txrace_reliable_races();
        let mut best = 0;
        for seed in [1, 2, 3] {
            let tx = Detector::new(
                w.config(Scheme::txrace(), seed)
                    .with_prune(StaticPruneMode::FullFlow),
            )
            .run(&w.program);
            assert!(tx.completed(), "{name} seed {seed}");
            // In the pruned run itself the contract is unconditional:
            // elided sites have no checks, so they cannot be reported.
            for r in tx.races.reports() {
                for site in [r.prior.site, r.current.site] {
                    assert!(
                        !table.is_race_free(site),
                        "{name}: FullFlow run reported pruned site {site}"
                    );
                }
            }
            let found = w
                .planted_pairs()
                .iter()
                .filter(|&&(p, k)| k == RaceKind::Overlapping && tx.races.contains(p.a, p.b))
                .count();
            best = best.max(found);
        }
        assert_eq!(
            best, expected,
            "{name}: flow pruning lost hot races ({best}/{expected})"
        );
    }
}

/// FullFlow matches Full race-for-race on every workload at the default
/// seed: the deeper pruning elides cost, not detection.
#[test]
fn fullflow_matches_full_detection_on_all_workloads() {
    for w in all_workloads(4) {
        let run = |mode| {
            let out =
                Detector::new(w.config(Scheme::txrace(), 42).with_prune(mode)).run(&w.program);
            assert!(out.completed(), "{} {mode:?}", w.name);
            out
        };
        let full = run(StaticPruneMode::Full);
        let flow = run(StaticPruneMode::FullFlow);
        assert_eq!(
            pairs_of(&full),
            pairs_of(&flow),
            "{}: FullFlow changed the detected race set vs Full",
            w.name
        );
    }
}

/// Asserts that running a FullFlow-instrumented program through
/// `run_instrumented` reproduces `run` on the original program: the
/// table step reuses the table the instrumented program carries (and,
/// for production, re-analyzes the instrumented program for the same
/// table and watch set).
fn assert_run_instrumented_matches_run(ctx: &str, cfg: RunConfig, p: &Program) {
    let d = Detector::new(cfg.with_prune(StaticPruneMode::FullFlow));
    let ip = instrument_pruned(
        p,
        &InstrumentConfig::from_knobs(&d.config().knobs),
        Some(&SiteClassTable::analyze_flow(p)),
    );
    let run = d.run(p);
    let pre = d.run_instrumented(&ip);
    assert!(run.completed(), "{ctx}");
    assert_eq!(run.races.reports(), pre.races.reports(), "{ctx}: races");
    assert_eq!(run.breakdown, pre.breakdown, "{ctx}: breakdown");
    assert_eq!(run.htm, pre.htm, "{ctx}: HTM stats");
    assert_eq!(run.engine, pre.engine, "{ctx}: engine stats");
    assert_eq!(run.telemetry, pre.telemetry, "{ctx}: telemetry");
}

#[test]
fn run_instrumented_matches_run_under_fullflow_on_all_workloads() {
    for w in all_workloads(4) {
        for scheme in [Scheme::txrace(), Scheme::production(1.2)] {
            let ctx = format!("{} {scheme:?}", w.name);
            assert_run_instrumented_matches_run(&ctx, w.config(scheme, 42), &w.program);
        }
    }
}

#[test]
fn run_instrumented_matches_run_under_fullflow_on_random_programs() {
    for gen_seed in 0..200 {
        let p = random_program(&GenConfig::default(), gen_seed);
        let cfg = RunConfig::new(Scheme::txrace(), gen_seed);
        assert_run_instrumented_matches_run(&format!("gen {gen_seed}"), cfg, &p);
    }
}

/// The premise of reusing the table an instrumented program carries: the
/// pass keeps every original site id and adds only marker sites, so
/// analyzing the instrumented program with the same analysis gives the
/// carried verdict and witness at every original site, and calls no
/// marker site race-free.
fn assert_carried_table_classifies_instrumented(ctx: &str, p: &Program) {
    for (name, flow) in [("base", false), ("flow", true)] {
        let analyze = |p: &Program| {
            if flow {
                SiteClassTable::analyze_flow(p)
            } else {
                SiteClassTable::analyze(p)
            }
        };
        let ip = instrument_pruned(p, &InstrumentConfig::default(), Some(&analyze(p)));
        let carried = ip
            .prune_table()
            .expect("instrument_pruned carries its table");
        let again = analyze(&ip.program);
        for site in (0..p.site_count()).map(SiteId) {
            assert_eq!(
                carried.class(site),
                again.class(site),
                "{ctx} ({name}): class of original site {site}"
            );
            assert_eq!(
                carried.witness_of(site),
                again.witness_of(site),
                "{ctx} ({name}): witness of original site {site}"
            );
        }
        for site in (p.site_count()..ip.program.site_count()).map(SiteId) {
            assert!(
                !again.is_race_free(site),
                "{ctx} ({name}): marker site {site} is race-free"
            );
        }
    }
}

#[test]
fn carried_table_classifies_the_instrumented_program_on_all_workloads() {
    for w in all_workloads(4) {
        assert_carried_table_classifies_instrumented(w.name, &w.program);
    }
}

#[test]
fn carried_table_classifies_the_instrumented_program_on_random_programs() {
    let cfg = GenConfig::default();
    assert!(cfg.chans > 0, "the generator must emit channel traffic");
    for gen_seed in 0..200 {
        let p = random_program(&cfg, gen_seed);
        assert_carried_table_classifies_instrumented(&format!("gen {gen_seed}"), &p);
    }
}

/// The scheduler `Detector` builds for `cfg`.
fn sched_of(cfg: &RunConfig) -> Box<dyn Scheduler> {
    match cfg.sched {
        SchedKind::RoundRobin => Box::new(RoundRobin::new()),
        SchedKind::Random { stickiness } => Box::new(
            RandomSched::new(cfg.seed)
                .with_interrupts(cfg.interrupts)
                .with_stickiness(stickiness),
        ),
        SchedKind::Fair { jitter, slack } => Box::new(
            FairSched::new(cfg.seed, jitter)
                .with_slack(slack)
                .with_interrupts(cfg.interrupts),
        ),
    }
}

/// Asserts that `out`, from `run_instrumented(ip)` under `cfg` (default
/// TxRace options or production), equals an engine run whose table step
/// analyzes `ip.program` whatever table `ip` carries: the knobs' analysis
/// of the instrumented program, and for production its watch set.
fn assert_matches_reanalysis(
    ctx: &str,
    cfg: &RunConfig,
    ip: &InstrumentedProgram,
    out: &RunOutcome,
) {
    let production = match cfg.scheme {
        Scheme::Production(mode) => Some(mode),
        _ => None,
    };
    let mut knobs = cfg.knobs;
    if production.is_some() {
        knobs.prune = StaticPruneMode::FullFlow;
    }
    let (prune, watch) = match knobs.prune {
        StaticPruneMode::Off => (None, Vec::new()),
        StaticPruneMode::ChecksOnly | StaticPruneMode::Full => {
            (Some(SiteClassTable::analyze(&ip.program)), Vec::new())
        }
        StaticPruneMode::FullFlow => {
            let flow = FlowAnalysis::run(&ip.program);
            let watch = production.map_or_else(Vec::new, |_| flow.watch_sites());
            (Some(flow.table), watch)
        }
    };
    let ecfg = EngineConfig {
        htm: cfg.htm,
        cost: cfg.cost,
        shadow_factor: cfg.shadow_factor,
        shadow: cfg.shadow,
        conflict_hints: cfg.htm.report_conflict_address,
        knobs,
        prune,
        epoch_events: cfg
            .telemetry_epochs
            .or(production.map(|_| AdaptiveController::EPOCH_EVENTS)),
        production,
        watch,
        ..EngineConfig::default()
    };
    let mut engine = TxRaceEngine::new(ip, ecfg);
    let mut machine = Machine::new(&ip.program);
    let run = machine.run_with_limit(&mut engine, sched_of(cfg).as_mut(), StepLimit::default());
    assert!(out.completed(), "{ctx}");
    assert_eq!(run, out.run, "{ctx}: run result");
    assert_eq!(
        engine.races().reports(),
        out.races.reports(),
        "{ctx}: races"
    );
    assert_eq!(engine.breakdown(), out.breakdown, "{ctx}: breakdown");
    assert_eq!(Some(engine.htm_stats()), out.htm, "{ctx}: HTM stats");
    assert_eq!(Some(engine.stats()), out.engine, "{ctx}: engine stats");
    assert_eq!(engine.take_telemetry(), out.telemetry, "{ctx}: telemetry");
    assert_eq!(*machine.memory(), *out.memory, "{ctx}: final memory");
}

/// The table step falls back to analyzing the instrumented program
/// whenever the carried table cannot serve: no table carried, a table
/// from a different analysis than the knobs ask for, or production,
/// whose watch set needs the may-race pairs.
fn assert_fallbacks_reanalyze(ctx: &str, cfg: RunConfig, p: &Program) {
    let flow = Knobs {
        prune: StaticPruneMode::FullFlow,
        ..cfg.knobs
    };
    let icfg = InstrumentConfig::from_knobs(&flow);
    let d = Detector::new(cfg.clone().with_knobs(flow));
    let bare = instrument(p, &icfg);
    assert!(
        bare.prune_table().is_none(),
        "{ctx}: instrument carries no table"
    );
    assert_matches_reanalysis(
        &format!("{ctx} (no table)"),
        d.config(),
        &bare,
        &d.run_instrumented(&bare),
    );
    let base = instrument_pruned(p, &icfg, Some(&SiteClassTable::analyze(p)));
    assert_matches_reanalysis(
        &format!("{ctx} (Full table, FullFlow knobs)"),
        d.config(),
        &base,
        &d.run_instrumented(&base),
    );
    let prod = Detector::new(RunConfig {
        scheme: Scheme::production(1.2),
        ..cfg
    });
    let ip = instrument_pruned(p, &icfg, Some(&SiteClassTable::analyze_flow(p)));
    assert_matches_reanalysis(
        &format!("{ctx} (production)"),
        prod.config(),
        &ip,
        &prod.run_instrumented(&ip),
    );
}

#[test]
fn run_instrumented_reanalyzes_when_the_carried_table_cannot_serve() {
    for w in all_workloads(4) {
        assert_fallbacks_reanalyze(w.name, w.config(Scheme::txrace(), 42), &w.program);
    }
    for gen_seed in 0..50 {
        let p = random_program(&GenConfig::default(), gen_seed);
        let cfg = RunConfig::new(Scheme::txrace(), gen_seed);
        assert_fallbacks_reanalyze(&format!("gen {gen_seed}"), cfg, &p);
    }
}

/// Channels give the static layers no ordering or exclusion credit: two
/// plain writes synchronized *only* by a send→recv edge must stay in the
/// static candidate set and must never be pruned by either table — while
/// the dynamic detectors, which do see the edge, report nothing. If the
/// analysis ever started crediting channels (unsoundly, since send/recv
/// pairing is schedule-dependent), this is the test that catches it.
#[test]
fn channel_synchronized_sites_are_never_statically_pruned() {
    use txrace_sim::ProgramBuilder;
    let mut b = ProgramBuilder::new(2);
    let x = b.var("x");
    let ch = b.chan_id("ch", 1);
    b.thread(0).write_l(x, 1, "before_send").send(ch);
    b.thread(1).recv(ch).write_l(x, 2, "after_recv");
    let p = b.build();

    let (mut before, mut after) = (None, None);
    p.visit_static(&mut |_, site, _| match p.label_of(site) {
        Some("before_send") => before = Some(site),
        Some("after_recv") => after = Some(site),
        _ => {}
    });
    let (before, after) = (before.expect("labeled site"), after.expect("labeled site"));

    let mrp = MayRacePairs::analyze(&p);
    assert!(
        mrp.contains(before, after),
        "channel-synchronized pair must stay a static may-race candidate"
    );
    for (name, table) in [
        ("base", SiteClassTable::analyze(&p)),
        ("flow", SiteClassTable::analyze_flow(&p)),
    ] {
        for site in [before, after] {
            assert!(
                !table.is_race_free(site),
                "{name} table pruned channel-synchronized site {site}"
            );
        }
    }

    // The dynamic side of the line: the send→recv edge orders the two
    // writes, so exact TSan is silent and the pruned TxRace run agrees.
    for seed in [1, 42] {
        let tsan = Detector::new(RunConfig::new(Scheme::Tsan, seed)).run(&p);
        assert!(tsan.completed(), "seed {seed}");
        assert_eq!(
            tsan.races.distinct_count(),
            0,
            "seed {seed}: channel handoff misreported as a race"
        );
        let tx = Detector::new(
            RunConfig::new(Scheme::txrace(), seed).with_prune(StaticPruneMode::FullFlow),
        )
        .run(&p);
        assert!(tx.completed(), "seed {seed}");
        assert_eq!(tx.races.distinct_count(), 0, "seed {seed} (FullFlow)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Promise 1 on random programs: an exact unpruned TSan run never
    /// reports a pair outside the static candidate set.
    #[test]
    fn mayrace_covers_random_program_races(
        gen_seed in 0u64..400,
        sched_seed in 0u64..20,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let mrp = MayRacePairs::analyze(&p);
        let out = Detector::new(RunConfig::new(Scheme::Tsan, sched_seed)).run(&p);
        prop_assert!(out.completed());
        for pr in out.races.pairs() {
            prop_assert!(
                mrp.contains(pr.a, pr.b),
                "dynamic race {} escaped the candidate set (gen {}, sched {})",
                pr, gen_seed, sched_seed
            );
        }
    }

    /// Promise 2 on random programs, plus termination of the dataflow
    /// fixpoints and the FullFlow pipeline end to end.
    #[test]
    fn fullflow_terminates_and_stays_sound_on_random_programs(
        gen_seed in 0u64..200,
        sched_seed in 0u64..10,
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let table = SiteClassTable::analyze_flow(&p);
        let truth = Detector::new(RunConfig::new(Scheme::Tsan, sched_seed)).run(&p);
        prop_assert!(truth.completed());
        assert_flow_prune_sound("random program (flow)", &truth, &table);
        let tx = Detector::new(
            RunConfig::new(Scheme::txrace(), sched_seed)
                .with_prune(StaticPruneMode::FullFlow),
        )
        .run(&p);
        prop_assert!(tx.completed());
        for r in tx.races.reports() {
            for site in [r.prior.site, r.current.site] {
                prop_assert!(
                    !table.is_race_free(site),
                    "FullFlow run reported pruned site {} (gen {}, sched {})",
                    site, gen_seed, sched_seed
                );
            }
        }
    }
}
