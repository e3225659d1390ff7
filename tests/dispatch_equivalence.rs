//! Static and dynamic scheduler dispatch run a program the same way.
//!
//! `Detector::run` drives the interpreter through a concrete scheduler
//! enum that the loop calls directly. An external harness that composes
//! the public layers itself (instrument, engine or TSan consumer,
//! `Machine`) typically holds a `Box<dyn Scheduler>` instead. Both must
//! give the identical `RunOutcome`, compared through its full `Debug`
//! rendering: races, cycle ledger, HTM and engine statistics, telemetry,
//! final memory and run result.

use txrace::{
    instrument, instrument_pruned, watch_sites, AdaptiveController, Detector, EngineConfig,
    InstrumentConfig, InstrumentedProgram, Knobs, LoopcutMode, ProductionMode, RunConfig,
    RunOutcome, SchedKind, Scheme, SiteClassTable, StaticPruneMode, TxRaceEngine,
};
use txrace_sim::{
    FairSched, Live, Machine, Program, RandomSched, RoundRobin, Scheduler, StepLimit,
};
use txrace_workloads::all_workloads;

const PROD_BUDGET: f64 = 1.2;

/// The scheduler `Detector` builds for `cfg`, behind a vtable.
fn boxed_sched(cfg: &RunConfig) -> Box<dyn Scheduler> {
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

/// TSan, composed from its public layers.
fn composed_tsan(cfg: &RunConfig, p: &Program) -> RunOutcome {
    let mut rt = Live::new(Detector::new(cfg.clone()).consumer(p));
    let mut machine = Machine::new(p);
    let run = machine.run_with_limit(&mut rt, boxed_sched(cfg).as_mut(), StepLimit::default());
    let c = rt.into_inner();
    let breakdown = c.breakdown();
    let baseline_cycles = cfg.cost.baseline_cycles(p);
    RunOutcome {
        races: c.races().clone(),
        breakdown,
        baseline_cycles,
        overhead: breakdown.overhead_vs(baseline_cycles),
        htm: None,
        engine: None,
        checks: c.checked(),
        telemetry: None,
        memory: std::sync::Arc::new(machine.into_memory()),
        run,
    }
}

/// The engine configuration `Detector` derives for the default TxRace
/// options (Dyn loop-cut, three retries).
fn engine_config(cfg: &RunConfig, knobs: Knobs, prune: Option<SiteClassTable>) -> EngineConfig {
    EngineConfig {
        htm: cfg.htm,
        cost: cfg.cost,
        shadow_factor: cfg.shadow_factor,
        loopcut: LoopcutMode::Dyn,
        profile: None,
        max_retries: 3,
        shadow: cfg.shadow,
        track_fast_sync: true,
        conflict_hints: false,
        knobs,
        prune,
        epoch_events: cfg.telemetry_epochs,
        production: None,
        watch: Vec::new(),
    }
}

/// An engine scheme, composed from its public layers.
fn composed_engine(cfg: &RunConfig, ip: &InstrumentedProgram, ecfg: EngineConfig) -> RunOutcome {
    let mut engine = TxRaceEngine::new(ip, ecfg);
    let mut machine = Machine::new(&ip.program);
    let run = machine.run_with_limit(&mut engine, boxed_sched(cfg).as_mut(), StepLimit::default());
    let breakdown = engine.breakdown();
    let baseline_cycles = cfg.cost.baseline_cycles(&ip.program);
    RunOutcome {
        races: engine.races().clone(),
        breakdown,
        baseline_cycles,
        overhead: breakdown.overhead_vs(baseline_cycles),
        htm: Some(engine.htm_stats()),
        engine: Some(engine.stats()),
        checks: engine.checks(),
        telemetry: engine.take_telemetry(),
        memory: std::sync::Arc::new(machine.into_memory()),
        run,
    }
}

fn composed_txrace(cfg: &RunConfig, p: &Program) -> RunOutcome {
    let ip = instrument(p, &InstrumentConfig::from_knobs(&cfg.knobs));
    composed_engine(cfg, &ip, engine_config(cfg, cfg.knobs, None))
}

fn composed_sa_flow(cfg: &RunConfig, p: &Program) -> RunOutcome {
    let table = SiteClassTable::analyze_flow(p);
    let icfg = InstrumentConfig::from_knobs(&cfg.knobs);
    let ip = instrument_pruned(p, &icfg, Some(&table));
    composed_engine(cfg, &ip, engine_config(cfg, cfg.knobs, Some(table)))
}

fn composed_production(cfg: &RunConfig, p: &Program) -> RunOutcome {
    let table = SiteClassTable::analyze_flow(p);
    let watch = watch_sites(p, &table);
    let knobs = Knobs {
        prune: StaticPruneMode::FullFlow,
        ..cfg.knobs
    };
    let ip = instrument_pruned(p, &InstrumentConfig::from_knobs(&knobs), Some(&table));
    let mut ecfg = engine_config(cfg, knobs, Some(table));
    ecfg.epoch_events = Some(
        cfg.telemetry_epochs
            .unwrap_or(AdaptiveController::EPOCH_EVENTS),
    );
    ecfg.production = Some(ProductionMode {
        budget: PROD_BUDGET,
    });
    ecfg.watch = watch;
    composed_engine(cfg, &ip, ecfg)
}

/// Every shipped workload under TSan, TxRace, TxRace+SA-flow and
/// Production(1.2): `Detector::run` equals the `dyn`-dispatched
/// composition.
#[test]
fn static_and_dyn_dispatch_give_identical_outcomes() {
    type Composed = fn(&RunConfig, &Program) -> RunOutcome;
    let kinds: [(&str, Scheme, bool, Composed); 4] = [
        ("tsan", Scheme::Tsan, false, composed_tsan),
        ("txrace", Scheme::txrace(), false, composed_txrace),
        ("sa-flow", Scheme::txrace(), true, composed_sa_flow),
        (
            "prod",
            Scheme::production(PROD_BUDGET),
            false,
            composed_production,
        ),
    ];
    for w in all_workloads(4) {
        for (name, scheme, flow, composed) in &kinds {
            let mut cfg = w.config(scheme.clone(), 42);
            if *flow {
                cfg = cfg.with_prune(StaticPruneMode::FullFlow);
            }
            let facade = Detector::new(cfg.clone()).run(&w.program);
            assert!(facade.completed(), "{} ({name}): {:?}", w.name, facade.run);
            assert_eq!(
                format!("{facade:?}"),
                format!("{:?}", composed(&cfg, &w.program)),
                "{} ({name}): static and dyn dispatch disagree",
                w.name
            );
        }
    }
}
