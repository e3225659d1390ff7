//! The detector pipeline decomposed into public layer calls, for the
//! traced run: the same work [`txrace::Detector`] does, one span per
//! call, with fingerprints identical to the façade's outcomes.

use txrace::{
    instrument, instrument_pruned, watch_sites, AdaptiveController, CycleBreakdown, Detector,
    EngineConfig, EngineStats, InstrumentConfig, InstrumentedProgram, Knobs, LoopcutMode,
    ProductionMode, RunConfig, RunOutcome, Scheme, SiteClassTable, StaticPruneMode, TxRaceEngine,
};
use txrace_hb::RaceSet;
use txrace_htm::HtmStats;
use txrace_sim::{
    DirectRuntime, FlatProgram, Live, Machine, Program, RunResult, RunStatus, StepLimit,
};

use crate::harness::{fingerprint, make_sched, Fingerprint};
use crate::tracer::Tracer;

/// The four detector configurations of the Table 1 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full TSan.
    Tsan,
    /// TxRace with Dyn loop-cut.
    TxRace,
    /// TxRace with flow-sensitive static pruning.
    SaFlow,
    /// ProductionMode at a 1.2x overhead budget.
    Prod,
}

pub const PROD_BUDGET: f64 = 1.2;

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Tsan, Kind::TxRace, Kind::SaFlow, Kind::Prod];

    /// This kind's run configuration, given the workload's configuration
    /// for a scheme.
    pub fn config(self, base: impl Fn(Scheme) -> RunConfig) -> RunConfig {
        match self {
            Kind::Tsan => base(Scheme::Tsan),
            Kind::TxRace => base(Scheme::txrace()),
            Kind::SaFlow => base(Scheme::txrace()).with_prune(StaticPruneMode::FullFlow),
            Kind::Prod => base(Scheme::production(PROD_BUDGET)),
        }
    }
}

/// Fingerprint of the outputs a detector run reports.
pub fn fp_parts(
    races: &RaceSet,
    breakdown: &CycleBreakdown,
    htm: Option<&HtmStats>,
    engine: Option<&EngineStats>,
    run: &RunResult,
) -> u64 {
    fingerprint(&[&races.reports(), breakdown, &htm, &engine, run])
}

pub fn fp_outcome(out: &RunOutcome) -> u64 {
    fp_parts(
        &out.races,
        &out.breakdown,
        out.htm.as_ref(),
        out.engine.as_ref(),
        &out.run,
    )
}

/// A façade run that must complete.
pub fn run_detector(cfg: RunConfig, p: &Program) -> Result<RunOutcome, String> {
    let out = Detector::new(cfg).run(p);
    if out.completed() {
        Ok(out)
    } else {
        Err(format!("run did not complete: {:?}", out.run.status))
    }
}

fn completed(run: &RunResult) -> Result<(), String> {
    if run.status == RunStatus::Done {
        Ok(())
    } else {
        Err(format!("run did not complete: {:?}", run.status))
    }
}

/// `txrace_sim::lint` as a span; lint issues are a job failure.
pub fn traced_lint(tr: &mut Tracer, p: &Program) -> Result<(), String> {
    let issues = tr.span("sim.lint", |_| txrace_sim::lint(p));
    if issues.is_empty() {
        Ok(())
    } else {
        Err(format!("program failed the IR lint: {issues:?}"))
    }
}

/// `Detector::run` for the TSan scheme, decomposed (lint included).
pub fn traced_tsan(tr: &mut Tracer, cfg: &RunConfig, p: &Program) -> Result<Fingerprint, String> {
    traced_lint(tr, p)?;
    let d = Detector::new(cfg.clone());
    let consumer = tr.span("txrace.baselines.consumer", |_| d.consumer(p));
    let mut machine = tr.span("sim.machine.new", |_| Machine::new(p));
    let mut rt = Live::new(consumer);
    let mut sched = make_sched(cfg);
    let run = tr.span("txrace.baselines.tsan_live", |_| {
        machine.run_with_limit(&mut rt, sched.as_mut(), StepLimit::default())
    });
    let _baseline = tr.span("txrace.cost.baseline", |_| cfg.cost.baseline_cycles(p));
    let _memory = machine.memory().clone();
    completed(&run)?;
    let c = rt.into_inner();
    Ok(Box::new(move || {
        fp_parts(c.races(), &c.breakdown(), None, None, &run)
    }))
}

/// `Detector::run` for an engine scheme, decomposed (lint included).
/// Returns the fingerprint and the instrumented program it ran.
pub fn traced_engine(
    tr: &mut Tracer,
    cfg: &RunConfig,
    p: &Program,
    kind: Kind,
) -> Result<(Fingerprint, InstrumentedProgram), String> {
    traced_lint(tr, p)?;
    let (ip, ecfg) = match kind {
        Kind::Tsan => unreachable!("TSan is not an engine scheme"),
        Kind::TxRace => {
            let icfg = InstrumentConfig::from_knobs(&cfg.knobs);
            let ip = tr.span("txrace.instrument", |_| instrument(p, &icfg));
            (ip, engine_config(cfg, cfg.knobs, None))
        }
        Kind::SaFlow => {
            let table = tr.span("txrace.sa.analyze", |_| SiteClassTable::analyze_flow(p));
            let icfg = InstrumentConfig::from_knobs(&cfg.knobs);
            let ip = tr.span("txrace.instrument", |_| {
                instrument_pruned(p, &icfg, Some(&table))
            });
            (ip, engine_config(cfg, cfg.knobs, Some(table)))
        }
        Kind::Prod => {
            let table = tr.span("txrace.sa.analyze", |_| SiteClassTable::analyze_flow(p));
            let watch = tr.span("txrace.sa.watch", |_| watch_sites(p, &table));
            let knobs = Knobs {
                prune: StaticPruneMode::FullFlow,
                ..cfg.knobs
            };
            let icfg = InstrumentConfig::from_knobs(&knobs);
            let ip = tr.span("txrace.instrument", |_| {
                instrument_pruned(p, &icfg, Some(&table))
            });
            let mut ecfg = engine_config(cfg, knobs, Some(table));
            ecfg.epoch_events = Some(
                cfg.telemetry_epochs
                    .unwrap_or(AdaptiveController::EPOCH_EVENTS),
            );
            ecfg.production = Some(ProductionMode {
                budget: PROD_BUDGET,
            });
            ecfg.watch = watch;
            (ip, ecfg)
        }
    };
    tr.count("txrace.instrument.regions", ip.region_count() as f64);
    let fp = traced_engine_run(tr, cfg, &ip, ecfg)?;
    Ok((fp, ip))
}

/// `Detector::run_instrumented` for TxRace with flow-sensitive pruning,
/// decomposed: the prune table is derived from the instrumented program.
pub fn traced_run_instrumented(
    tr: &mut Tracer,
    cfg: &RunConfig,
    ip: &InstrumentedProgram,
) -> Result<Fingerprint, String> {
    let table = tr.span("txrace.sa.analyze", |_| {
        SiteClassTable::analyze_flow(&ip.program)
    });
    traced_engine_run(tr, cfg, ip, engine_config(cfg, cfg.knobs, Some(table)))
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

fn traced_engine_run(
    tr: &mut Tracer,
    cfg: &RunConfig,
    ip: &InstrumentedProgram,
    ecfg: EngineConfig,
) -> Result<Fingerprint, String> {
    let mut engine = tr.span("txrace.engine.new", |_| TxRaceEngine::new(ip, ecfg));
    let mut machine = tr.span("sim.machine.new", |_| Machine::new(&ip.program));
    let mut sched = make_sched(cfg);
    let run = tr.span("txrace.engine.run", |_| {
        machine.run_with_limit(&mut engine, sched.as_mut(), StepLimit::default())
    });
    let _baseline = tr.span("txrace.cost.baseline", |_| {
        cfg.cost.baseline_cycles(&ip.program)
    });
    let _telemetry = engine.take_telemetry();
    let _memory = machine.memory().clone();
    completed(&run)?;
    Ok(Box::new(move || {
        fp_parts(
            engine.races(),
            &engine.breakdown(),
            Some(&engine.htm_stats()),
            Some(&engine.stats()),
            &run,
        )
    }))
}

/// Layer probes on one program, outside any job span: a stand-alone flat
/// compile and the interpreter floor (`Machine::run` with
/// [`DirectRuntime`] under the job's scheduler). Returns the floor time.
pub fn probe_floor(tr: &mut Tracer, cfg: &RunConfig, p: &Program) -> u64 {
    tr.span("sim.flat.compile", |_| FlatProgram::from_program(p));
    let mut machine = Machine::new(p);
    let mut rt = DirectRuntime::default();
    let mut sched = make_sched(cfg);
    tr.span("sim.exec.floor", |_| {
        machine.run_with_limit(&mut rt, sched.as_mut(), StepLimit::default())
    });
    tr.count("sim.exec.steps", rt.ops as f64);
    tr.last_ns("sim.exec.floor")
}

/// [`probe_floor`] on an engine's instrumented program; its floor time is
/// subtracted from the engine run to give the engine's own time.
pub fn probe_engine_floor(tr: &mut Tracer, cfg: &RunConfig, ip: &InstrumentedProgram) {
    let ns = probe_floor(tr, cfg, &ip.program);
    tr.count("txrace.engine.floor_ns", ns as f64);
}

/// Per-round counts of an engine outcome: HTM, engine and Fig. 7 ledger.
pub fn engine_counts(out: &RunOutcome, counts: &mut Vec<(&'static str, f64)>) {
    let mut add = |name: &'static str, v: u64| match counts.iter_mut().find(|c| c.0 == name) {
        Some(c) => c.1 += v as f64,
        None => counts.push((name, v as f64)),
    };
    if let Some(h) = &out.htm {
        add("htm.committed", h.committed);
        add("htm.aborts.conflict", h.conflict_aborts);
        add("htm.aborts.capacity", h.capacity_aborts);
        add("htm.aborts.unknown", h.unknown_aborts);
        add("htm.aborts.retry", h.retry_aborts);
        add("htm.aborts.explicit", h.explicit_aborts);
    }
    if let Some(e) = &out.engine {
        add("txrace.engine.slow_entries", e.slow_total());
        add("txrace.engine.loop_cuts", e.loop_cuts);
        add("txrace.engine.elided_checks", e.elided_checks);
    }
    if let Some(t) = &out.telemetry {
        add("txrace.control.epochs", t.epochs.len() as u64);
        add("txrace.control.active_epochs", t.active_epochs() as u64);
    }
    let b = &out.breakdown;
    add("txrace.cost.txn_mgmt", b.txn_mgmt);
    add("txrace.cost.conflict", b.conflict);
    add("txrace.cost.capacity", b.capacity);
    add("txrace.cost.unknown", b.unknown);
    add("txrace.cost.checks", b.checks);
    add("txrace.cost.elided", b.elided);
}

/// Adds `htm.commit_ratio`: commits over transactions begun.
pub fn commit_ratio(counts: &mut Vec<(&'static str, f64)>) {
    let get = |n: &str| counts.iter().find(|c| c.0 == n).map_or(0.0, |c| c.1);
    let committed = get("htm.committed");
    let begun = committed
        + [
            "htm.aborts.conflict",
            "htm.aborts.capacity",
            "htm.aborts.unknown",
            "htm.aborts.retry",
            "htm.aborts.explicit",
        ]
        .iter()
        .map(|n| get(n))
        .sum::<f64>();
    counts.push((
        "htm.commit_ratio",
        if begun > 0.0 { committed / begun } else { 0.0 },
    ));
}
