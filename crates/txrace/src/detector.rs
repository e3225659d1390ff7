//! The public façade: configure a detection scheme, run a program, get a
//! [`RunOutcome`] with races, transaction statistics, and the cycle
//! breakdown.

use std::sync::Arc;

use txrace_hb::{RaceSet, ShadowMode};
use txrace_htm::{HtmConfig, HtmStats};
use txrace_sim::{
    AnySched, EventLog, FairSched, InterruptModel, Live, Machine, Memory, Program, RandomSched,
    RoundRobin, RunResult, RunStatus, SiteId, StepLimit, TraceConsumer,
};

use crate::baselines::TsanConsumer;
use crate::control::{AdaptiveController, Knobs, ProductionMode, Telemetry};
use crate::cost::{CostModel, CycleBreakdown};
use crate::engine::{EngineConfig, EngineStats, TxRaceEngine};
use crate::instrument::{instrument_pruned, InstrumentConfig, InstrumentedProgram};
use crate::loopcut::LoopcutMode;
use crate::sa::{FlowAnalysis, SiteClassTable, StaticPruneMode};

/// TxRace-specific options. Runtime tunables (the `K` threshold, the
/// slow-path sampling rate, the loop-cut initial threshold, the prune
/// mode) live in [`RunConfig::knobs`], not here; the conflict-address
/// slow path is on exactly when the HTM reports conflict addresses
/// ([`HtmConfig::report_conflict_address`]). Transient aborts are
/// retried three times before the slow path.
#[derive(Debug, Clone, Copy)]
pub struct TxRaceOpts {
    /// Loop-cut scheme (`NoOpt` / `Dyn` / `Prof`). `Prof` collects its
    /// profile with one Dyn run on a seed derived from the run's own (the
    /// paper's offline profiling run with representative input).
    pub loopcut: LoopcutMode,
    /// Track happens-before of sync ops on the fast path (§5). Disable
    /// only for the ablation study — false positives appear.
    pub track_fast_sync: bool,
}

impl Default for TxRaceOpts {
    fn default() -> Self {
        TxRaceOpts {
            loopcut: LoopcutMode::Dyn,
            track_fast_sync: true,
        }
    }
}

/// Which detector to run.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// Full software happens-before checking (the TSan baseline).
    Tsan,
    /// TSan with per-access sampling at the given rate in `[0, 1]`.
    TsanSampling {
        /// Fraction of dynamic accesses checked.
        rate: f64,
    },
    /// The TxRace two-phase detector.
    TxRace(TxRaceOpts),
    /// TxRace + flow-sensitive static pruning under an adaptive overhead
    /// budget: the deploy-everywhere configuration. Runs with epoch
    /// telemetry and the [`AdaptiveController`] re-tuning the knobs
    /// online; the outcome carries the telemetry stream.
    Production(ProductionMode),
}

impl Scheme {
    /// TxRace with default options (Dyn loop-cut, `K = 5`).
    pub fn txrace() -> Scheme {
        Scheme::TxRace(TxRaceOpts::default())
    }

    /// TxRace with a specific loop-cut mode.
    pub fn txrace_loopcut(mode: LoopcutMode) -> Scheme {
        Scheme::TxRace(TxRaceOpts {
            loopcut: mode,
            ..TxRaceOpts::default()
        })
    }

    /// Production mode with the given overhead budget (e.g. `1.2` allows
    /// 20% extra cycles over the uninstrumented baseline).
    ///
    /// # Panics
    ///
    /// Panics unless `budget` is a finite overhead of at least 1.0x.
    pub fn production(budget: f64) -> Scheme {
        assert!(
            (1.0..f64::INFINITY).contains(&budget),
            "production budget {budget} is not a finite overhead of at least 1.0x"
        );
        Scheme::Production(ProductionMode { budget })
    }
}

/// Scheduling policy for the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedKind {
    /// Deterministic round-robin (no interrupts ever fire).
    RoundRobin,
    /// Seeded random with burst stickiness in `[0, 1)`.
    Random {
        /// Probability of keeping the running thread each step.
        stickiness: f64,
    },
    /// Fair (parallel-cores) scheduling with a random-jitter fraction in
    /// `[0, 1]` and a fairness slack (bounded random-walk amplitude of
    /// relative thread positions).
    Fair {
        /// Probability of a uniformly random pick.
        jitter: f64,
        /// Fairness slack in steps.
        slack: u64,
    },
}

/// Full configuration of one detection run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Detector selection.
    pub scheme: Scheme,
    /// Seed for scheduling (and sampling, shifted).
    pub seed: u64,
    /// Scheduler policy.
    pub sched: SchedKind,
    /// OS interrupt injection (drives unknown/retry aborts).
    pub interrupts: InterruptModel,
    /// Simulated HTM parameters.
    pub htm: HtmConfig,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Workload-specific TSan shadow-cost multiplier.
    pub shadow_factor: f64,
    /// Slow-path shadow-memory configuration.
    pub shadow: ShadowMode,
    /// Control-plane knobs: the `K` threshold, slow-path sampling rate,
    /// loop-cut initial threshold, and static pruning mode, consumed by
    /// the instrumentation pass, the engine and the loop-cut learner. The
    /// TSan schemes read only the prune mode; TSan samples only as
    /// [`Scheme::TsanSampling`].
    pub knobs: Knobs,
    /// Emit per-epoch [`Telemetry`] with this nominal epoch length in
    /// executed operations (production runs always emit telemetry,
    /// defaulting to [`AdaptiveController::EPOCH_EVENTS`]).
    pub telemetry_epochs: Option<u64>,
}

impl RunConfig {
    /// A configuration with sensible defaults: fair (parallel-cores)
    /// scheduling with light jitter and no interrupt injection.
    pub fn new(scheme: Scheme, seed: u64) -> Self {
        RunConfig {
            scheme,
            seed,
            sched: SchedKind::Fair {
                jitter: 0.1,
                slack: 0,
            },
            interrupts: InterruptModel::NONE,
            htm: HtmConfig::default(),
            cost: CostModel::default(),
            shadow_factor: 1.0,
            shadow: ShadowMode::Exact,
            knobs: Knobs::default(),
            telemetry_epochs: None,
        }
    }

    /// Sets the interrupt model.
    pub fn with_interrupts(mut self, m: InterruptModel) -> Self {
        self.interrupts = m;
        self
    }

    /// Sets the HTM parameters.
    pub fn with_htm(mut self, htm: HtmConfig) -> Self {
        self.htm = htm;
        self
    }

    /// Sets the workload shadow factor.
    pub fn with_shadow_factor(mut self, f: f64) -> Self {
        self.shadow_factor = f;
        self
    }

    /// Sets the scheduler policy.
    pub fn with_sched(mut self, s: SchedKind) -> Self {
        self.sched = s;
        self
    }

    /// Sets the static race-freedom pruning mode (a knob).
    pub fn with_prune(mut self, p: StaticPruneMode) -> Self {
        self.knobs.prune = p;
        self
    }

    /// Replaces the full control-plane knob set.
    pub fn with_knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }
}

/// Everything one detection run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Distinct static races reported.
    pub races: RaceSet,
    /// Cycle breakdown by overhead category.
    pub breakdown: CycleBreakdown,
    /// Uninstrumented baseline cycles of the program.
    pub baseline_cycles: u64,
    /// `breakdown.total() / baseline_cycles`.
    pub overhead: f64,
    /// HTM statistics (TxRace runs only).
    pub htm: Option<HtmStats>,
    /// Engine statistics (TxRace runs only).
    pub engine: Option<EngineStats>,
    /// Software access checks performed.
    pub checks: u64,
    /// Epoch telemetry ([`RunConfig::telemetry_epochs`] set, or production
    /// runs; `None` otherwise).
    pub telemetry: Option<Telemetry>,
    /// Final shared-memory state of the run. Outcomes replayed from one
    /// [`EventLog`] share the log's copy.
    pub memory: Arc<Memory>,
    /// Interpreter result.
    pub run: RunResult,
}

impl RunOutcome {
    /// True if the program ran to completion.
    pub fn completed(&self) -> bool {
        self.run.status == RunStatus::Done
    }
}

/// Runs detection schemes over programs, all through one front end: one
/// table step derives the prune table (and production's watch set) from
/// the knobs, and every TxRace run builds its engine in one place.
/// [`Scheme::Production`] is TxRace with flow-sensitive pruning, default
/// options and the adaptive controller.
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: RunConfig,
}

/// What the table step decides for one program: the knobs the scheme
/// runs under, the prune table they ask for, and the production watch
/// set (empty for every other scheme).
struct Plan {
    knobs: Knobs,
    table: Option<SiteClassTable>,
    watch: Vec<SiteId>,
}

impl Detector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: RunConfig) -> Self {
        Detector { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The configured scheduler on `seed`, as a concrete type so every
    /// run's interpreter loop calls it directly.
    fn make_sched(&self, seed: u64) -> AnySched {
        match self.cfg.sched {
            SchedKind::RoundRobin => AnySched::RoundRobin(RoundRobin::new()),
            SchedKind::Random { stickiness } => AnySched::Random(
                RandomSched::new(seed)
                    .with_interrupts(self.cfg.interrupts)
                    .with_stickiness(stickiness),
            ),
            SchedKind::Fair { jitter, slack } => AnySched::Fair(
                FairSched::new(seed, jitter)
                    .with_slack(slack)
                    .with_interrupts(self.cfg.interrupts),
            ),
        }
    }

    /// The table step. Production always deploys the strongest static
    /// analysis: the flow-sensitive prune table plus the watch set over
    /// the surviving may-race candidate sites, both from one analysis.
    /// A `carried` table of `p` is reused when the analysis the knobs
    /// ask for built it and the scheme needs no watch set (production's
    /// needs the may-race pairs); otherwise `p` is analyzed.
    fn plan(&self, p: &Program, carried: Option<&SiteClassTable>) -> Plan {
        let production = matches!(self.cfg.scheme, Scheme::Production(_));
        let knobs = if production {
            Knobs {
                prune: StaticPruneMode::FullFlow,
                ..self.cfg.knobs
            }
        } else {
            self.cfg.knobs
        };
        let mut watch = Vec::new();
        let reuse = carried.filter(|t| !production && t.built_for(knobs.prune));
        let table = match (knobs.prune, reuse) {
            (StaticPruneMode::Off, _) => None,
            (_, Some(table)) => Some(table.clone()),
            (StaticPruneMode::ChecksOnly | StaticPruneMode::Full, None) => {
                Some(SiteClassTable::analyze(p))
            }
            (StaticPruneMode::FullFlow, None) => {
                let flow = FlowAnalysis::run(p);
                if production {
                    watch = flow.watch_sites();
                }
                Some(flow.table)
            }
        };
        Plan {
            knobs,
            table,
            watch,
        }
    }

    /// The preparation path of the engine schemes: the table step, then
    /// the transactionalization pass under the plan's knobs, pruned when
    /// the prune mode strips markers.
    fn prepare(&self, p: &Program) -> (InstrumentedProgram, Plan) {
        let plan = self.plan(p, None);
        let strip = matches!(
            plan.knobs.prune,
            StaticPruneMode::Full | StaticPruneMode::FullFlow
        );
        let icfg = InstrumentConfig::from_knobs(&plan.knobs);
        let ip = instrument_pruned(p, &icfg, plan.table.as_ref().filter(|_| strip));
        (ip, plan)
    }

    /// Runs the configured scheme on `program`. TxRace schemes instrument
    /// internally; to reuse an instrumented program across runs, use
    /// [`Detector::run_instrumented`].
    ///
    /// # Panics
    ///
    /// Panics if the program fails the structural IR lint
    /// ([`txrace_sim::lint()`]): unbalanced locking, joins of never-spawned
    /// threads, or disagreeing barrier arrival counts would make both the
    /// static analyses and the run itself meaningless.
    pub fn run(&self, program: &Program) -> RunOutcome {
        assert_lint_clean(program);
        if let Scheme::Tsan | Scheme::TsanSampling { .. } = self.cfg.scheme {
            return self.run_tsan(program);
        }
        let (ip, plan) = self.prepare(program);
        self.run_engine(&ip, plan)
    }

    /// Runs an engine scheme on an already instrumented program. The
    /// table step reuses the table `ip` carries
    /// ([`InstrumentedProgram::prune_table`]) when the analysis the knobs
    /// ask for built it and the scheme is not [`Scheme::Production`];
    /// otherwise it analyzes the instrumented program (the pass preserves
    /// original sites, so the verdicts match the uninstrumented
    /// analysis). Either way, `run_instrumented(&instrument_pruned(p, ..))`
    /// under the same knobs equals `run(p)`.
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is a TSan scheme.
    pub fn run_instrumented(&self, ip: &InstrumentedProgram) -> RunOutcome {
        self.run_engine(ip, self.plan(&ip.program, ip.prune_table()))
    }

    /// Runs the engine on `ip` under `plan`; production adds the adaptive
    /// controller and always emits epoch telemetry.
    fn run_engine(&self, ip: &InstrumentedProgram, plan: Plan) -> RunOutcome {
        let (opts, production) = match &self.cfg.scheme {
            Scheme::TxRace(opts) => (*opts, None),
            Scheme::Production(mode) => (TxRaceOpts::default(), Some(*mode)),
            other => panic!("the TxRace engine cannot run {other:?}"),
        };
        // Prof learns its thresholds from one Dyn run on a derived seed,
        // without pruning or telemetry.
        let profile = (opts.loopcut == LoopcutMode::Prof).then(|| {
            let cfg = EngineConfig {
                track_fast_sync: opts.track_fast_sync,
                knobs: plan.knobs,
                ..EngineConfig::default()
            };
            let (engine, ..) = self.drive(ip, self.cfg.seed.wrapping_add(0x9E37_79B9), cfg);
            engine.loopcut_profile()
        });
        let production_epochs = production.map(|_| AdaptiveController::EPOCH_EVENTS);
        let cfg = EngineConfig {
            loopcut: opts.loopcut,
            profile,
            track_fast_sync: opts.track_fast_sync,
            knobs: plan.knobs,
            prune: plan.table,
            epoch_events: self.cfg.telemetry_epochs.or(production_epochs),
            production,
            watch: plan.watch,
            ..EngineConfig::default()
        };
        let (mut engine, machine, run) = self.drive(ip, self.cfg.seed, cfg);
        let baseline_cycles = engine.static_baseline();
        let breakdown = engine.breakdown();
        let telemetry = engine.take_telemetry();
        RunOutcome {
            races: engine.races().clone(),
            breakdown,
            baseline_cycles,
            overhead: breakdown.overhead_vs(baseline_cycles),
            htm: Some(engine.htm_stats()),
            engine: Some(engine.stats()),
            checks: engine.checks(),
            telemetry,
            memory: Arc::new(machine.into_memory()),
            run,
        }
    }

    /// The one place an engine runs: completes `cfg` with the run's
    /// hardware, cost and shadow settings (conflict hints follow the
    /// HTM's address reporting), then builds the engine for `ip` and runs
    /// it to completion on `seed`.
    fn drive(
        &self,
        ip: &InstrumentedProgram,
        seed: u64,
        cfg: EngineConfig,
    ) -> (TxRaceEngine, Machine, RunResult) {
        let cfg = EngineConfig {
            htm: self.cfg.htm,
            cost: self.cfg.cost,
            shadow_factor: self.cfg.shadow_factor,
            shadow: self.cfg.shadow,
            conflict_hints: self.cfg.htm.report_conflict_address,
            ..cfg
        };
        let mut engine = TxRaceEngine::new(ip, cfg);
        let mut machine = Machine::new(&ip.program);
        let run = machine.run(&mut engine, &mut self.make_sched(seed));
        (engine, machine, run)
    }

    fn run_tsan(&self, program: &Program) -> RunOutcome {
        let mut rt = Live::new(self.consumer(program));
        let mut machine = Machine::new(program);
        let run = machine.run(&mut rt, &mut self.make_sched(self.cfg.seed));
        self.tsan_outcome(
            rt.into_inner(),
            self.cfg.cost.baseline_cycles(program),
            Arc::new(machine.into_memory()),
            run,
        )
    }

    fn tsan_outcome(
        &self,
        consumer: TsanConsumer,
        baseline_cycles: u64,
        memory: Arc<Memory>,
        run: RunResult,
    ) -> RunOutcome {
        let breakdown = consumer.breakdown();
        let checks = consumer.checked();
        RunOutcome {
            races: consumer.into_races(),
            breakdown,
            baseline_cycles,
            overhead: breakdown.overhead_vs(baseline_cycles),
            htm: None,
            engine: None,
            checks,
            telemetry: None,
            memory,
            run,
        }
    }

    /// Records `program` into a replayable [`EventLog`] under the
    /// configured scheduler and seed, with no detector attached.
    ///
    /// The recorded stream is exactly what any *pure observer* (the TSan
    /// baselines, the raw HB detectors) would see live: observers never
    /// redirect execution, so the interleaving is fully determined by
    /// `(program, sched, seed)`. Record once, then fan
    /// [`Detector::replay`] over the log as many times as needed — e.g.
    /// one replay per sampling rate, in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the program fails the structural IR lint, exactly like
    /// [`Detector::run`].
    pub fn record(&self, program: &Program) -> EventLog {
        assert_lint_clean(program);
        let mut sched = self.make_sched(self.cfg.seed);
        txrace_sim::record_run(program, &mut sched, StepLimit::default())
    }

    /// Builds the configured scheme's trace consumer for `program` —
    /// sampling seed, shadow factor, and prune table all derived exactly
    /// as [`Detector::run`] would. Feed it to [`Detector::replay`].
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is [`Scheme::TxRace`] or
    /// [`Scheme::Production`]: the TxRace engine steers execution
    /// (rollbacks, re-execution) and therefore cannot run from a fixed
    /// trace.
    pub fn consumer(&self, program: &Program) -> TsanConsumer {
        let sampling = match &self.cfg.scheme {
            Scheme::Tsan => None,
            Scheme::TsanSampling { rate } => Some(*rate),
            Scheme::TxRace(_) | Scheme::Production(_) => {
                panic!("engine schemes are not trace consumers; use run()")
            }
        };
        let c = TsanConsumer::new(
            program.thread_count(),
            self.cfg.cost,
            self.cfg.shadow_factor,
            self.cfg.shadow,
            sampling,
            self.cfg.seed.wrapping_add(0x517C_C1B7),
        );
        match self.plan(program, None).table {
            Some(table) => c.with_prune(table),
            None => c,
        }
    }

    /// Replays a recorded log through `consumer` and assembles the same
    /// [`RunOutcome`] a live [`Detector::run`] would have produced —
    /// bit-identical races, breakdown, check counts, memory, and result —
    /// provided the log was recorded under the same `(program, sched,
    /// seed)` (see [`Detector::record`]).
    pub fn replay(&self, log: &EventLog, mut consumer: TsanConsumer) -> RunOutcome {
        log.replay(&mut consumer);
        self.outcome_of_replayed(consumer, log)
    }

    /// Replays a recorded log through an arbitrary [`TraceConsumer`] and
    /// returns it (a convenience for raw detectors like
    /// [`txrace_hb::FastTrack`] that don't produce a [`RunOutcome`]).
    pub fn replay_into<C: TraceConsumer>(&self, log: &EventLog, mut consumer: C) -> C {
        log.replay(&mut consumer);
        consumer
    }

    /// Assembles the [`RunOutcome`] for a consumer that has *already*
    /// been replayed over `log` — the tail half of [`Detector::replay`],
    /// split out so parallel drivers ([`txrace_sim::fan_out`]) can run
    /// many consumers over one log and assemble outcomes afterwards.
    /// `Detector::replay(log, c)` ≡
    /// `{ log.replay(&mut c); Detector::outcome_of_replayed(c, log) }`.
    /// The consumer's races move into the outcome, and the outcome shares
    /// the log's final memory: nothing is copied.
    pub fn outcome_of_replayed(&self, consumer: TsanConsumer, log: &EventLog) -> RunOutcome {
        self.tsan_outcome(
            consumer,
            self.cfg.cost.baseline_cycles_of_census(&log.census()),
            Arc::clone(log.final_memory()),
            log.result().clone(),
        )
    }
}

/// Panics, listing the issues, if `program` fails the structural IR lint.
fn assert_lint_clean(program: &Program) {
    let issues = txrace_sim::lint(program);
    assert!(
        issues.is_empty(),
        "program failed the IR lint:\n{}",
        issues
            .iter()
            .map(|i| format!("  - {i}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Computes recall: the fraction of `truth`'s races also found in `found`
/// (the paper's effectiveness metric, §8.4, with TSan's reports as the
/// "real data races").
pub fn recall(found: &RaceSet, truth: &RaceSet) -> f64 {
    if truth.distinct_count() == 0 {
        return 1.0;
    }
    let hit = truth.pairs().filter(|p| found.contains(p.a, p.b)).count();
    hit as f64 / truth.distinct_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_hb::{RacePair, RaceSet};
    use txrace_sim::{ProgramBuilder, SiteId};

    #[test]
    #[should_panic(expected = "not a finite overhead of at least 1.0x")]
    fn production_rejects_nan_budget() {
        let _ = Scheme::production(f64::NAN);
    }

    #[test]
    fn production_budget_bounds() {
        for bad in [f64::INFINITY, 0.99, 0.0, -1.0] {
            assert!(
                std::panic::catch_unwind(|| Scheme::production(bad)).is_err(),
                "{bad}"
            );
        }
        assert!(matches!(Scheme::production(1.0), Scheme::Production(_)));
    }

    fn two_writers() -> Program {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).write(x, t as u64);
        }
        b.build()
    }

    #[test]
    #[should_panic(expected = "is not a rate in [0, 1]")]
    fn tsan_sampling_rejects_nan_rate() {
        let scheme = Scheme::TsanSampling { rate: f64::NAN };
        let _ = Detector::new(RunConfig::new(scheme, 3)).run(&two_writers());
    }

    #[test]
    #[should_panic(expected = "is not a rate in [0, 1]")]
    fn engine_sampling_rejects_nan_rate() {
        let knobs = Knobs {
            sampling: Some(f64::NAN),
            ..Knobs::default()
        };
        let cfg = RunConfig::new(Scheme::txrace(), 3).with_knobs(knobs);
        let _ = Detector::new(cfg).run(&two_writers());
    }

    #[test]
    fn finite_out_of_range_sampling_rates_clamp() {
        let p = two_writers();
        let run =
            |rate: f64| Detector::new(RunConfig::new(Scheme::TsanSampling { rate }, 3)).run(&p);
        assert_eq!(run(7.0).races.reports(), run(1.0).races.reports());
        assert_eq!(run(7.0).checks, 2);
        assert_eq!(run(-7.0).checks, 0);
    }

    #[test]
    fn recall_of_empty_truth_is_one() {
        assert_eq!(recall(&RaceSet::new(), &RaceSet::new()), 1.0);
    }

    #[test]
    fn recall_counts_hits() {
        use txrace_hb::{AccessInfo, AccessKind, RaceReport};
        let mk = |a: u32, b: u32| RaceReport {
            addr: txrace_sim::Addr(0x100),
            prior: AccessInfo {
                site: SiteId(a),
                thread: txrace_sim::ThreadId(0),
                kind: AccessKind::Write,
            },
            current: AccessInfo {
                site: SiteId(b),
                thread: txrace_sim::ThreadId(1),
                kind: AccessKind::Write,
            },
        };
        let truth: RaceSet = [mk(1, 2), mk(3, 4)].into_iter().collect();
        let found: RaceSet = [mk(1, 2)].into_iter().collect();
        assert_eq!(recall(&found, &truth), 0.5);
        let _ = RacePair::new(SiteId(1), SiteId(2));
    }

    #[test]
    fn tsan_and_txrace_complete_on_simple_program() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).compute(5).write(x, t as u64).compute(5);
        }
        let p = b.build();
        for scheme in [Scheme::Tsan, Scheme::txrace()] {
            let out = Detector::new(RunConfig::new(scheme, 3)).run(&p);
            assert!(out.completed());
            assert!(out.overhead >= 1.0);
        }
    }
}
