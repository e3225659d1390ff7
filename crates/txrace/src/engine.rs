//! The TxRace two-phase runtime (paper §3–§5).
//!
//! Implements [`txrace_sim::Runtime`]: each thread alternates between the
//! HTM-backed **fast path** and the FastTrack-checked **slow path** at the
//! granularity of transactional regions.
//!
//! Abort handling (§4.2):
//!
//! * **Conflict** — a potential race. The aborted thread writes the shared
//!   `TxFail` flag; since every transaction reads `TxFail` at begin,
//!   strong isolation + requester-wins artificially abort all in-flight
//!   transactions. Every involved thread rolls back to its region start
//!   and re-executes under FastTrack, which pinpoints the racy pair and
//!   filters cache-line false sharing.
//! * **Capacity** — only the aborted thread re-executes on the slow path
//!   (no evidence of a race), concurrently with others' fast paths
//!   (Figure 5); the loop-cut learner is fed.
//! * **Retry** — retried on the fast path a bounded number of times, then
//!   treated like capacity.
//! * **Unknown** — treated like capacity (§4.2).
//!
//! Happens-before of synchronization operations is tracked on *every*
//! path (§5, Figure 6): skipping it on the fast path would make the slow
//! path report false positives across fast-path sync edges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txrace_hb::{FastTrack, RaceSet, ShadowMode};
use txrace_htm::{AbortReason, AbortStatus, HtmConfig, HtmStats, HtmSystem, XbeginError};
use txrace_sim::CacheLine;
use txrace_sim::{
    Addr, BarrierId, Directive, Interner, LoopId, Memory, Op, OpEvent, RegionId, Runtime, SiteId,
    Snapshot, ThreadId,
};

use crate::control::{AdaptiveController, EpochRecord, Knobs, ProductionMode, Telemetry};
use crate::cost::{CostModel, CycleBreakdown};
use crate::instrument::{InstrumentedProgram, RegionInfo, RegionKind};
use crate::loopcut::{LoopcutMode, LoopcutProfile, LoopcutState};
use crate::sa::SiteClassTable;

/// The shared `TxFail` flag lives at address 0; the variable layout
/// reserves the low cache lines for runtime-internal state.
pub const TXFAIL_ADDR: Addr = Addr(0);

/// Why a region instance ran on the slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowTrigger {
    /// A conflict abort (potential race) — the global episode.
    Conflict,
    /// A capacity abort on this thread.
    Capacity,
    /// An unknown abort on this thread.
    Unknown,
    /// The region is statically too small to be worth a transaction.
    SmallRegion,
    /// No free hardware transaction slot.
    NoSlot,
    /// Transient retries exhausted.
    RetryExhausted,
}

/// Counters describing one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Region instances re-executed slowly after a conflict abort.
    pub slow_conflict: u64,
    /// Region instances re-executed slowly after a capacity abort.
    pub slow_capacity: u64,
    /// Region instances re-executed slowly after an unknown abort.
    pub slow_unknown: u64,
    /// Region instances run slowly because they are statically tiny.
    pub slow_small: u64,
    /// Region instances run slowly because no HTM slot was free.
    pub slow_noslot: u64,
    /// Region instances run slowly after exhausting transient retries.
    pub slow_retry: u64,
    /// Writes to the `TxFail` flag (conflict episodes originated).
    pub txfail_writes: u64,
    /// Fast-path transaction retries after transient aborts.
    pub fast_retries: u64,
    /// Transactions split by the loop-cut optimization.
    pub loop_cuts: u64,
    /// Slow-path checks elided because the static race-freedom analysis
    /// proved the site race-free.
    pub elided_checks: u64,
    /// Slow-path checks skipped because production-mode monitoring was
    /// idle (duty-cycling under the overhead budget).
    pub idle_skips: u64,
}

impl EngineStats {
    /// Total region instances diverted to the slow path.
    pub fn slow_total(&self) -> u64 {
        self.slow_conflict
            + self.slow_capacity
            + self.slow_unknown
            + self.slow_small
            + self.slow_noslot
            + self.slow_retry
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Outside,
    Fast(RegionId),
    Slow(RegionId, SlowTrigger),
}

/// Tunables for the engine (see [`crate::TxRaceOpts`] for the user-facing
/// configuration).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// HTM hardware parameters.
    pub htm: HtmConfig,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Workload-specific TSan shadow-cost multiplier.
    pub shadow_factor: f64,
    /// Loop-cut scheme.
    pub loopcut: LoopcutMode,
    /// Profile for [`LoopcutMode::Prof`].
    pub profile: Option<LoopcutProfile>,
    /// Transient-abort retries before falling back to the slow path.
    pub max_retries: u32,
    /// Slow-path shadow configuration.
    pub shadow: ShadowMode,
    /// Track happens-before of sync operations on the fast path (paper
    /// §5, Figure 6). Disabling this is an *ablation*: the slow path then
    /// reports false positives across fast-path synchronization edges,
    /// which is exactly why the paper pays this cost on every path.
    pub track_fast_sync: bool,
    /// Extension (paper §9, the TxIntro direction): when the HTM reports
    /// the conflicting cache line ([`HtmConfig::report_conflict_address`]),
    /// restrict the conflict slow path to accesses on that line — much
    /// cheaper re-execution, same racy pair. Requires the HTM feature; has
    /// no effect otherwise.
    pub conflict_hints: bool,
    /// The unified control-plane knobs: the slow-path sampling rate is
    /// read from [`Knobs::sampling`], the dynamic `K` override (production
    /// mode only) from [`Knobs::k_min_ops`], and the loop-cut initial
    /// threshold from [`Knobs::loopcut_threshold`]. Default knobs
    /// reproduce the paper's configuration.
    pub knobs: Knobs,
    /// Static race-freedom classification: slow-path checks at sites the
    /// table proves race-free are elided (their would-be cost is recorded
    /// in [`CycleBreakdown::elided`]). `None` checks every site (the
    /// paper's configuration).
    pub prune: Option<SiteClassTable>,
    /// Emit epoch-structured [`Telemetry`] with this nominal epoch
    /// length in executed operations; `None` keeps only the end-of-run
    /// aggregates (no per-event counting overhead beyond one branch).
    pub epoch_events: Option<u64>,
    /// Run under an [`AdaptiveController`] holding this budget. Implies
    /// telemetry (an epoch length must also be set) and enables the
    /// dynamic `K` override, duty-cycled monitoring, and the watch set.
    pub production: Option<ProductionMode>,
    /// Watched sites for duty-cycled re-arming (production mode): a
    /// slow-path access to one of these while idle may re-open a
    /// monitoring window. Built from [`crate::sa::watch_sites`].
    pub watch: Vec<txrace_sim::SiteId>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            htm: HtmConfig::default(),
            cost: CostModel::default(),
            shadow_factor: 1.0,
            loopcut: LoopcutMode::Dyn,
            profile: None,
            max_retries: 3,
            shadow: ShadowMode::Exact,
            track_fast_sync: true,
            conflict_hints: false,
            knobs: Knobs::default(),
            prune: None,
            epoch_events: None,
            production: None,
            watch: Vec::new(),
        }
    }
}

/// The TxRace runtime. Construct per run with [`TxRaceEngine::new`], drive
/// it through [`txrace_sim::Machine::run`], then harvest
/// [`races`](TxRaceEngine::races), [`breakdown`](TxRaceEngine::breakdown)
/// and [`stats`](TxRaceEngine::stats).
#[derive(Debug)]
pub struct TxRaceEngine {
    regions: Vec<RegionInfo>,
    htm: HtmSystem,
    ft: FastTrack,
    cost: CostModel,
    eff_check: u64,
    breakdown: CycleBreakdown,
    mode: Vec<Mode>,
    snaps: Vec<Option<(Snapshot, RegionId)>>,
    pending_slow: Vec<Option<(RegionId, SlowTrigger)>>,
    txn_base_acc: Vec<u64>,
    retry_count: Vec<u32>,
    txfail_seen: Vec<u64>,
    txfail_value: u64,
    max_retries: u32,
    loopcut: LoopcutState,
    last_cut_loop: Vec<Option<LoopId>>,
    track_fast_sync: bool,
    conflict_hints: bool,
    pending_hint: Vec<Option<CacheLine>>,
    slow_hint: Vec<Option<CacheLine>>,
    episode_hint: Option<CacheLine>,
    sampler: Option<(f64, StdRng)>,
    prune: Option<SiteClassTable>,
    sync_dead: bool,
    stats: EngineStats,
    /// Knobs currently in force (production mode re-tunes them at epoch
    /// boundaries; otherwise they stay at their configured values).
    knobs: Knobs,
    /// The production-mode controller, when this is a budgeted run.
    controller: Option<AdaptiveController>,
    /// Whether slow-path monitoring is armed (always true outside
    /// production mode).
    monitoring_on: bool,
    /// `watch[site]`: an idle-mode access here may re-arm monitoring.
    watch: Vec<bool>,
    /// Epoch telemetry under construction (`epoch_events` set).
    telemetry: Option<Telemetry>,
    epoch_events: Option<u64>,
    /// Executed operations, total and within the current epoch.
    events_total: u64,
    epoch_acc: u64,
    /// Static baseline cycles of the program (the overhead denominator).
    static_baseline: u64,
    /// Checks skipped because monitoring was idle (duty-cycling).
    idle_skips: u64,
    /// Cycles charged to software detection / HTM management, for the
    /// telemetry split (subsets of the paid breakdown buckets).
    tsan_cycles: u64,
    htm_cycles: u64,
    /// Previous-epoch snapshots for delta telemetry.
    prev_events: u64,
    prev_htm: HtmStats,
    prev_checks: u64,
    prev_elided: u64,
    prev_baseline: u64,
    prev_tsan_cycles: u64,
    prev_htm_cycles: u64,
}

impl TxRaceEngine {
    /// Builds an engine for one run of `ip`.
    ///
    /// All per-access state downstream is a flat table indexed by a dense
    /// id (raw address, cache line, site, loop, thread). The interner
    /// enumerates the program's id spaces once here, at load time, and
    /// pre-sizes every table, so the per-access dispatch below does zero
    /// hashing and zero growth.
    pub fn new(ip: &InstrumentedProgram, cfg: EngineConfig) -> Self {
        let n = ip.program.thread_count();
        let interner = Interner::of_program(&ip.program);
        let mut htm = HtmSystem::new(cfg.htm, n);
        htm.reserve_capacity(interner.addr_capacity(), interner.line_capacity());
        let mut ft = FastTrack::new(n, cfg.shadow);
        ft.reserve_addrs(interner.addr_capacity());
        let mut loopcut = LoopcutState::new(cfg.loopcut, n, cfg.profile.as_ref());
        loopcut.reserve_loops(interner.loop_count() as usize);
        loopcut.set_initial_threshold(cfg.knobs.loopcut_threshold);
        // Happens-before tracking exists to order slow-path checks; when
        // the prune table proves every checkable site race-free, no check
        // can ever consult the FastTrack state, so the per-sync-op
        // tracking is dead and its cost is elided with the checks.
        let sync_dead = cfg.prune.as_ref().is_some_and(|table| {
            let mut live = false;
            ip.program.visit_static(&mut |_, site, op| {
                if crate::sa::op_is_checkable(op) && !table.is_race_free(site) {
                    live = true;
                }
            });
            !live
        });
        let static_baseline = cfg.cost.baseline_cycles(&ip.program);
        let controller = cfg.production.map(|mode| {
            // The event estimate paces the controller's allowance; one
            // executed op is one event, so the loop-weighted static op
            // count is the estimate (re-execution makes actual counts
            // run a little over — pacing only needs the right scale).
            let est_events = ip.program.fold_dynamic(|_| 1);
            AdaptiveController::new(mode, static_baseline, est_events, cfg.knobs)
        });
        let mut watch = Vec::new();
        if !cfg.watch.is_empty() {
            watch = vec![false; ip.program.site_count() as usize];
            for s in &cfg.watch {
                if let Some(slot) = watch.get_mut(s.index()) {
                    *slot = true;
                }
            }
        }
        TxRaceEngine {
            regions: ip.regions.clone(),
            htm,
            ft,
            eff_check: cfg.cost.effective_tsan_check(cfg.shadow_factor),
            cost: cfg.cost,
            breakdown: CycleBreakdown::default(),
            mode: vec![Mode::Outside; n],
            snaps: vec![None; n],
            pending_slow: vec![None; n],
            txn_base_acc: vec![0; n],
            retry_count: vec![0; n],
            txfail_seen: vec![0; n],
            txfail_value: 0,
            max_retries: cfg.max_retries,
            loopcut,
            last_cut_loop: vec![None; n],
            track_fast_sync: cfg.track_fast_sync,
            conflict_hints: cfg.conflict_hints,
            pending_hint: vec![None; n],
            slow_hint: vec![None; n],
            episode_hint: None,
            sampler: cfg
                .knobs
                .sampling
                .map(|rate| (rate.clamp(0.0, 1.0), StdRng::seed_from_u64(0x7852_11e5))),
            prune: cfg.prune,
            sync_dead,
            stats: EngineStats::default(),
            knobs: cfg.knobs,
            controller,
            monitoring_on: true,
            watch,
            telemetry: cfg.epoch_events.map(|e| Telemetry {
                epoch_events: e,
                epochs: Vec::new(),
            }),
            epoch_events: cfg.epoch_events,
            events_total: 0,
            epoch_acc: 0,
            static_baseline,
            idle_skips: 0,
            tsan_cycles: 0,
            htm_cycles: 0,
            prev_events: 0,
            prev_htm: HtmStats::default(),
            prev_checks: 0,
            prev_elided: 0,
            prev_baseline: 0,
            prev_tsan_cycles: 0,
            prev_htm_cycles: 0,
        }
    }

    /// Races detected (slow-path FastTrack reports).
    pub fn races(&self) -> &RaceSet {
        self.ft.races()
    }

    /// Cycle breakdown in the categories of Figure 7.
    pub fn breakdown(&self) -> CycleBreakdown {
        self.breakdown
    }

    /// HTM transaction statistics (Table 1 columns).
    pub fn htm_stats(&self) -> HtmStats {
        *self.htm.stats()
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.loop_cuts = self.loopcut.cuts();
        s.idle_skips = self.idle_skips;
        s
    }

    /// The loop-cut thresholds learned in this run (profile export).
    pub fn loopcut_profile(&self) -> LoopcutProfile {
        self.loopcut.to_profile()
    }

    /// Slow-path access checks performed.
    pub fn checks(&self) -> u64 {
        self.ft.checks()
    }

    /// The knobs currently in force (production mode re-tunes them).
    pub fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// Takes the epoch telemetry stream, flushing the partial final
    /// epoch first. `None` unless [`EngineConfig::epoch_events`] was
    /// set. Call once, after the run.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.flush_epoch();
        self.telemetry.take()
    }

    /// Closes the current epoch: records the counter deltas and lets
    /// the production controller re-tune the knobs.
    fn flush_epoch(&mut self) {
        if self.telemetry.is_none() || self.epoch_acc == 0 {
            return;
        }
        self.epoch_acc = 0;
        let htm_stats = *self.htm.stats();
        let checks = self.ft.checks();
        let elided_now = self.stats.elided_checks + self.idle_skips;
        let bd = self.breakdown;
        let tm = self.telemetry.as_mut().expect("telemetry enabled");
        let rec = EpochRecord {
            index: tm.epochs.len() as u64,
            events: self.events_total - self.prev_events,
            active: self.monitoring_on,
            sampling: if self.monitoring_on {
                self.knobs.sampling.unwrap_or(1.0)
            } else {
                0.0
            },
            k_min_ops: self.knobs.k_min_ops,
            loopcut_threshold: self.knobs.loopcut_threshold,
            conflict_aborts: htm_stats.conflict_aborts - self.prev_htm.conflict_aborts,
            capacity_aborts: htm_stats.capacity_aborts - self.prev_htm.capacity_aborts,
            unknown_aborts: htm_stats.unknown_aborts - self.prev_htm.unknown_aborts,
            checks: checks - self.prev_checks,
            elided_checks: elided_now - self.prev_elided,
            tsan_cycles: self.tsan_cycles - self.prev_tsan_cycles,
            htm_cycles: self.htm_cycles - self.prev_htm_cycles,
            baseline_cycles: bd.baseline - self.prev_baseline,
            cum_overhead: bd.overhead_vs(self.static_baseline),
        };
        let capacity_delta = rec.capacity_aborts;
        tm.epochs.push(rec);
        self.prev_events = self.events_total;
        self.prev_htm = htm_stats;
        self.prev_checks = checks;
        self.prev_elided = elided_now;
        self.prev_baseline = bd.baseline;
        self.prev_tsan_cycles = self.tsan_cycles;
        self.prev_htm_cycles = self.htm_cycles;
        if let Some(ctl) = self.controller.as_mut() {
            ctl.on_epoch(self.events_total, bd.extra(), capacity_delta);
            self.monitoring_on = ctl.active();
            self.knobs = *ctl.knobs();
            self.loopcut
                .set_initial_threshold(self.knobs.loopcut_threshold);
        }
    }

    /// Production-mode slow-path gate. Returns true when the access at
    /// `site` should be software-checked. While idle, a watched site
    /// may re-arm monitoring (with a shadow reset, so no reported pair
    /// can span the unmonitored gap); any other idle access charges its
    /// skipped check to the elided bucket.
    fn production_gate(&mut self, site: SiteId) -> bool {
        if self.controller.is_none() || self.monitoring_on {
            return true;
        }
        let watched = self.watch.get(site.index()).copied().unwrap_or(false);
        let events = self.events_total;
        let spent = self.breakdown.extra();
        let opened = watched
            && self
                .controller
                .as_mut()
                .is_some_and(|c| c.on_watch_hit(events, spent));
        if opened {
            // Every re-arm starts a fresh monitored stretch: accesses
            // from before the idle gap must not pair with accesses
            // after it (their ordering sync was never observed).
            self.ft.reset_shadow();
            self.monitoring_on = true;
            if let Some(c) = &self.controller {
                self.knobs = *c.knobs();
            }
            return true;
        }
        self.idle_skips += 1;
        self.breakdown.elided += self.eff_check;
        false
    }

    fn bucket_of(&mut self, trigger: SlowTrigger) -> &mut u64 {
        match trigger {
            SlowTrigger::Conflict => &mut self.breakdown.conflict,
            SlowTrigger::Capacity | SlowTrigger::NoSlot => &mut self.breakdown.capacity,
            SlowTrigger::Unknown | SlowTrigger::RetryExhausted => &mut self.breakdown.unknown,
            SlowTrigger::SmallRegion => &mut self.breakdown.txn_mgmt,
        }
    }

    fn region(&self, r: RegionId) -> &RegionInfo {
        &self.regions[r.index()]
    }

    /// Bookkeeping after a successful `xend`: the transaction's
    /// provisional work becomes baseline, management cost is charged, and
    /// the retry budget resets.
    fn on_fast_commit(&mut self, ti: usize) {
        self.breakdown.txn_mgmt += self.cost.xend;
        self.htm_cycles += self.cost.xend;
        self.breakdown.baseline += self.txn_base_acc[ti];
        self.txn_base_acc[ti] = 0;
        self.retry_count[ti] = 0;
    }

    /// Consumes any pending slow-path demand for thread `ti`, entering
    /// slow mode for region `r`; returns false if nothing was pending.
    fn take_pending_slow(&mut self, ti: usize, expected: Option<RegionId>) -> bool {
        if let Some((r, trigger)) = self.pending_slow[ti].take() {
            if let Some(e) = expected {
                debug_assert_eq!(r, e, "pending slow region mismatch");
            }
            self.slow_hint[ti] = self.pending_hint[ti].take();
            self.mode[ti] = Mode::Slow(r, trigger);
            true
        } else {
            false
        }
    }

    fn enter_region(&mut self, t: ThreadId, r: RegionId, mem: &mut Memory, ev: &OpEvent<'_>) {
        let ti = t.index();
        debug_assert_eq!(self.mode[ti], Mode::Outside, "region entered while busy");
        // Production mode re-tunes K online: a region whose checked-op
        // count falls below the current knob runs slow-only (its markers
        // were kept precisely so this decision can move at run time).
        // While the controller is idle the fast path is suspended too —
        // a transaction whose conflict abort we would not act on is pure
        // management cost, and letting it run would drain the pacing
        // allowance the watch-hit reopen is waiting to refill.
        // Outside production mode the static instrumentation decides.
        let kind = {
            let info = self.region(r);
            let idle = self.controller.is_some() && !self.monitoring_on;
            if idle || (self.controller.is_some() && info.checked_ops < self.knobs.k_min_ops) {
                RegionKind::SlowOnly
            } else {
                info.kind
            }
        };
        match kind {
            RegionKind::SlowOnly => {
                self.stats.slow_small += 1;
                self.mode[ti] = Mode::Slow(r, SlowTrigger::SmallRegion);
            }
            RegionKind::Fast => {
                if !self.take_pending_slow(ti, Some(r)) {
                    self.begin_fast_txn(t, r, mem, ev);
                }
            }
        }
    }

    /// Starts a hardware transaction with its snapshot at the current op
    /// (a `TxBegin` or a loop-cut probe).
    fn begin_fast_txn(&mut self, t: ThreadId, r: RegionId, mem: &mut Memory, ev: &OpEvent<'_>) {
        let ti = t.index();
        match self.htm.xbegin(t) {
            Ok(()) => {
                self.mode[ti] = Mode::Fast(r);
                // O(1): the interpreter snapshot is pc + loop stack, and
                // memory rollback state is the HTM's journal watermark.
                self.snaps[ti] = Some((ev.snapshot(), r));
                self.breakdown.txn_mgmt += self.cost.xbegin;
                self.htm_cycles += self.cost.xbegin;
                self.loopcut.on_txn_start(t);
                // Subscribe to artificial aborts: every transaction reads
                // TxFail first, so any non-transactional write to it dooms
                // all in-flight transactions (strong isolation). Recording
                // the observed value keeps the origin/victim test below
                // current — a stale value would misclassify a later direct
                // conflict as an artificial abort and skip the TxFail
                // write, silently shrinking episodes.
                self.txfail_seen[ti] = self.htm.read(t, mem, TXFAIL_ADDR);
            }
            Err(XbeginError::NoSlot) => {
                self.stats.slow_noslot += 1;
                self.mode[ti] = Mode::Slow(r, SlowTrigger::NoSlot);
            }
            Err(XbeginError::Nested) => unreachable!("engine never nests transactions"),
        }
    }

    fn end_region(
        &mut self,
        t: ThreadId,
        r: RegionId,
        mem: &mut Memory,
        ev: &OpEvent<'_>,
    ) -> Directive {
        let ti = t.index();
        match self.mode[ti] {
            Mode::Fast(cur) => {
                debug_assert_eq!(cur, r, "TxEnd region mismatch");
                // Read the (optional) conflict hint before xend frees the
                // hardware slot.
                let hint = if self.conflict_hints {
                    self.htm.conflict_line_hint(t)
                } else {
                    None
                };
                match self.htm.xend(t, mem) {
                    Ok(()) => {
                        self.on_fast_commit(ti);
                        if let Some(l) = self.last_cut_loop[ti].take() {
                            self.loopcut.on_cut_commit(l);
                        }
                        self.snaps[ti] = None;
                        self.mode[ti] = Mode::Outside;
                        Directive::Continue
                    }
                    Err(status) => self.handle_abort_hinted(t, status, hint, mem, ev),
                }
            }
            Mode::Slow(cur, _) => {
                debug_assert_eq!(cur, r, "TxEnd region mismatch (slow)");
                self.retry_count[ti] = 0;
                self.snaps[ti] = None;
                self.last_cut_loop[ti] = None;
                self.slow_hint[ti] = None;
                self.mode[ti] = Mode::Outside;
                Directive::Continue
            }
            Mode::Outside => unreachable!("TxEnd without an open region"),
        }
    }

    /// Consumes an abort observed while the transaction slot is still
    /// live (the lazy `before_op` doom check).
    fn handle_abort(
        &mut self,
        t: ThreadId,
        status: AbortStatus,
        mem: &mut Memory,
        ev: &OpEvent<'_>,
    ) -> Directive {
        let hint = if self.conflict_hints {
            self.htm.conflict_line_hint(t)
        } else {
            None
        };
        self.handle_abort_hinted(t, status, hint, mem, ev)
    }

    /// Consumes an abort: classifies the status, applies the §4.2 policy,
    /// and rolls the thread back to its region snapshot. `hw_hint` must be
    /// captured by the caller while the slot was still live (an `xend`
    /// frees it).
    fn handle_abort_hinted(
        &mut self,
        t: ThreadId,
        status: AbortStatus,
        hint_before: Option<CacheLine>,
        mem: &mut Memory,
        ev: &OpEvent<'_>,
    ) -> Directive {
        let ti = t.index();
        if self.htm.in_txn(t) {
            let s = self.htm.abort_rollback(t);
            debug_assert_eq!(s, status);
        }
        let r = self.snaps[ti].as_ref().expect("abort without a snapshot").1;
        let reason = status.reason();
        // Wasted transactional work plus the rollback itself are overhead
        // attributed to the abort reason.
        let wasted = self.txn_base_acc[ti] + self.cost.rollback_penalty;
        self.txn_base_acc[ti] = 0;
        self.htm_cycles += wasted;
        let hw_hint = hint_before;
        let trigger = match reason {
            AbortReason::Conflict => {
                self.stats.slow_conflict += 1;
                // TxFail protocol: the episode origin (first to observe an
                // unchanged flag) writes it, artificially aborting every
                // in-flight transaction; artificial-abort victims only
                // record the new value.
                let seen = self.htm.read(t, mem, TXFAIL_ADDR);
                if seen == self.txfail_seen[ti] {
                    self.txfail_value = seen + 1;
                    self.htm.write(t, mem, TXFAIL_ADDR, self.txfail_value);
                    self.stats.txfail_writes += 1;
                    self.breakdown.conflict += 2 * self.cost.mem_access;
                    self.htm_cycles += 2 * self.cost.mem_access;
                    self.txfail_seen[ti] = self.txfail_value;
                    // Episode origin publishes the conflicting line next
                    // to TxFail (extension: one extra shared write).
                    if self.conflict_hints {
                        self.episode_hint = hw_hint;
                        self.breakdown.conflict += self.cost.mem_access;
                        self.htm_cycles += self.cost.mem_access;
                    }
                } else {
                    self.txfail_seen[ti] = seen;
                }
                if self.conflict_hints {
                    // Artificial-abort victims read the published line;
                    // the origin uses the hardware-reported one.
                    let hint = hw_hint
                        .filter(|&l| l != TXFAIL_ADDR.line())
                        .or(self.episode_hint);
                    self.pending_hint[ti] = hint;
                }
                Some(SlowTrigger::Conflict)
            }
            AbortReason::Capacity | AbortReason::Explicit => {
                self.stats.slow_capacity += 1;
                // Attribute the overflow to the innermost running loop
                // (the LBR-based attribution of the paper), falling back
                // to the region's last loop.
                let l = ev
                    .innermost_loop()
                    .or_else(|| self.region(r).loops.last().copied());
                self.loopcut.on_capacity_abort(l);
                Some(SlowTrigger::Capacity)
            }
            AbortReason::Unknown => {
                self.stats.slow_unknown += 1;
                Some(SlowTrigger::Unknown)
            }
            AbortReason::Retry => {
                self.retry_count[ti] += 1;
                if self.retry_count[ti] <= self.max_retries {
                    self.stats.fast_retries += 1;
                    None // retry on the fast path
                } else {
                    self.retry_count[ti] = 0;
                    self.stats.slow_retry += 1;
                    Some(SlowTrigger::RetryExhausted)
                }
            }
        };
        // The slot is consumed on the slow-path triggers (the rollback
        // lands on an op that consumes `pending_slow` instead), so take
        // the stored snapshot rather than cloning it; only a fast-path
        // retry re-reads the slot and must leave it in place.
        let snap = match trigger {
            Some(trig) => {
                *self.bucket_of(trig) += wasted;
                self.pending_slow[ti] = Some((r, trig));
                self.snaps[ti].take().expect("abort without a snapshot").0
            }
            None => {
                self.breakdown.unknown += wasted;
                self.snaps[ti]
                    .as_ref()
                    .expect("abort without a snapshot")
                    .0
                    .clone()
            }
        };
        self.last_cut_loop[ti] = None;
        self.mode[ti] = Mode::Outside;
        Directive::Rollback(snap)
    }

    /// Loop-cut probe handling. In fast mode, may split the transaction;
    /// after a rollback that targeted this probe, re-enters the region.
    fn probe(&mut self, t: ThreadId, l: LoopId, mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
        let ti = t.index();
        match self.mode[ti] {
            Mode::Fast(r) => {
                if !self.loopcut.probe(t, l) {
                    return Directive::Continue;
                }
                let hint = if self.conflict_hints {
                    self.htm.conflict_line_hint(t)
                } else {
                    None
                };
                match self.htm.xend(t, mem) {
                    Ok(()) => {
                        self.on_fast_commit(ti);
                        self.loopcut.on_cut_commit(l);
                        self.mode[ti] = Mode::Outside;
                        self.begin_fast_txn(t, r, mem, ev);
                        if matches!(self.mode[ti], Mode::Fast(_)) {
                            self.last_cut_loop[ti] = Some(l);
                        }
                        Directive::Continue
                    }
                    Err(status) => self.handle_abort_hinted(t, status, hint, mem, ev),
                }
            }
            Mode::Slow(_, _) => Directive::Continue,
            Mode::Outside => {
                // A rollback landed on this probe: resume the region here,
                // slow if an abort demanded it, fast otherwise (retry).
                if self.take_pending_slow(ti, None) {
                    // Entered slow mode for the pending region.
                } else if let Some((_, r)) = self.snaps[ti].as_ref() {
                    let r = *r;
                    self.begin_fast_txn(t, r, mem, ev);
                }
                // A probe with neither pending slow work nor a snapshot is
                // orphaned (it sits outside any region); ignore it.
                Directive::Continue
            }
        }
    }

    fn charge_access_base(&mut self, t: ThreadId) {
        let ti = t.index();
        match self.mode[ti] {
            Mode::Fast(_) => self.txn_base_acc[ti] += self.cost.mem_access,
            _ => self.breakdown.baseline += self.cost.mem_access,
        }
    }

    fn charge_check(&mut self, trigger: SlowTrigger) {
        let c = self.eff_check;
        *self.bucket_of(trigger) += c;
        self.tsan_cycles += c;
    }

    /// True when the static prune table elides this slow-path check;
    /// records the avoided cost in the `elided` breakdown category.
    fn prune_elides(&mut self, site: SiteId) -> bool {
        if self.prune.as_ref().is_some_and(|t| t.is_race_free(site)) {
            self.stats.elided_checks += 1;
            self.breakdown.elided += self.eff_check;
            true
        } else {
            false
        }
    }

    /// Whether a slow-path access at `addr` should be software-checked,
    /// honouring the conflict-hint and sampling extensions.
    fn slow_check_decision(&mut self, ti: usize, addr: Addr) -> bool {
        if let Some(line) = self.slow_hint[ti] {
            if addr.line() != line {
                return false;
            }
        }
        if let Some((rate, rng)) = &mut self.sampler {
            if rng.gen::<f64>() >= *rate {
                return false;
            }
        }
        true
    }
}

impl Runtime for TxRaceEngine {
    fn before_op(&mut self, mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
        let t = ev.thread;
        // Epoch clock: one executed op is one event. Off (a single
        // branch) unless telemetry was requested.
        if let Some(len) = self.epoch_events {
            self.events_total += 1;
            self.epoch_acc += 1;
            if self.epoch_acc >= len {
                self.flush_epoch();
            }
        }
        // Simulated OS interrupts abort in-flight transactions.
        if let Some(kind) = ev.interrupted {
            self.htm.interrupt(t, mem, kind);
        }
        // A doomed transaction is observed at the thread's next operation
        // (the hardware transfers control lazily in this simulation, which
        // preserves the paper's commit-before-TxFail race window, §6).
        if matches!(self.mode[t.index()], Mode::Fast(_)) {
            if let Some(status) = self.htm.is_doomed(t) {
                return self.handle_abort(t, status, mem, ev);
            }
        }
        match ev.op {
            Op::TxBegin(r) => {
                self.enter_region(t, r, mem, ev);
                Directive::Continue
            }
            Op::TxEnd(r) => self.end_region(t, r, mem, ev),
            Op::LoopCutProbe(l) => self.probe(t, l, mem, ev),
            ref op if op.is_data_access() => {
                self.charge_access_base(t);
                Directive::Continue
            }
            ref op if op.is_sync() => {
                debug_assert!(
                    !self.htm.in_txn(t),
                    "sync op inside a transaction: instrumentation bug"
                );
                self.breakdown.baseline += self.cost.base_op_cost(op);
                Directive::Continue
            }
            ref op => {
                // Compute (and any other non-access op) inside a fast
                // transaction is provisional work: on abort it is wasted
                // and must move to the abort bucket with the accesses.
                let c = self.cost.base_op_cost(op);
                match self.mode[t.index()] {
                    Mode::Fast(_) => self.txn_base_acc[t.index()] += c,
                    _ => self.breakdown.baseline += c,
                }
                Directive::Continue
            }
        }
    }

    fn read(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr) -> u64 {
        let t = ev.thread;
        if let Mode::Slow(_, trigger) = self.mode[t.index()] {
            if !self.prune_elides(ev.site)
                && self.production_gate(ev.site)
                && self.slow_check_decision(t.index(), addr)
            {
                self.ft.read(t, ev.site, addr);
                self.charge_check(trigger);
            }
        }
        // Fast mode: transactional access. Slow/outside: non-transactional
        // access with strong isolation against others' transactions.
        self.htm.read(t, mem, addr)
    }

    fn write(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, val: u64) {
        let t = ev.thread;
        if let Mode::Slow(_, trigger) = self.mode[t.index()] {
            if !self.prune_elides(ev.site)
                && self.production_gate(ev.site)
                && self.slow_check_decision(t.index(), addr)
            {
                self.ft.write(t, ev.site, addr);
                self.charge_check(trigger);
            }
        }
        self.htm.write(t, mem, addr, val);
    }

    fn rmw(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, delta: u64) -> u64 {
        // Atomic RMWs cannot race under the C11 model, so the detector does
        // not check them; they still participate in HTM conflict detection
        // (a benign-conflict source the slow path then filters).
        self.htm.rmw(ev.thread, mem, addr, delta)
    }

    fn after_sync(&mut self, _mem: &mut Memory, ev: &OpEvent<'_>) {
        let t = ev.thread;
        if !self.track_fast_sync && !matches!(self.mode[t.index()], Mode::Slow(_, _)) {
            return; // ablation: fast-path sync edges are lost
        }
        if self.sync_dead {
            // Nothing will ever consult the happens-before state: record
            // the avoided tracking cost with the elided checks.
            if matches!(
                ev.op,
                Op::Lock(_)
                    | Op::Unlock(_)
                    | Op::Signal(_)
                    | Op::Wait(_)
                    | Op::Spawn(_)
                    | Op::Join(_)
                    | Op::ChanSend(_)
                    | Op::ChanRecv(_)
            ) {
                self.breakdown.elided += self.cost.tsan_sync;
            }
            return;
        }
        if self.controller.is_some() && !self.monitoring_on {
            // Idle duty cycle: the happens-before state is reset before
            // monitoring re-arms, so anything tracked now would be
            // discarded — skip it and record the avoided cost.
            if matches!(
                ev.op,
                Op::Lock(_)
                    | Op::Unlock(_)
                    | Op::Signal(_)
                    | Op::Wait(_)
                    | Op::Spawn(_)
                    | Op::Join(_)
                    | Op::ChanSend(_)
                    | Op::ChanRecv(_)
            ) {
                self.breakdown.elided += self.cost.tsan_sync;
            }
            return;
        }
        match ev.op {
            Op::Lock(l) => self.ft.lock_acquire(t, l),
            Op::Unlock(l) => self.ft.lock_release(t, l),
            Op::Signal(c) => self.ft.signal(t, c),
            Op::Wait(c) => self.ft.wait(t, c),
            Op::Spawn(u) => self.ft.spawn(t, u),
            Op::Join(u) => self.ft.join(t, u),
            // Channel send/recv is a happens-before edge like any other
            // sync primitive; since channel ops are `is_sync()` they also
            // cut transactions in `instrument`, so they only ever fire
            // outside a hardware transaction (like syscalls).
            Op::ChanSend(ch) => self.ft.chan_send(t, ch),
            Op::ChanRecv(ch) => self.ft.chan_recv(t, ch),
            _ => return,
        }
        // Happens-before tracking happens on every path (§5, Figure 6).
        self.breakdown.txn_mgmt += self.cost.tsan_sync;
        self.tsan_cycles += self.cost.tsan_sync;
    }

    fn after_barrier(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        if !self.track_fast_sync {
            return; // ablation: see after_sync
        }
        if self.sync_dead || (self.controller.is_some() && !self.monitoring_on) {
            self.breakdown.elided += self.cost.tsan_sync * arrivals.len() as u64;
            return;
        }
        self.ft.barrier_arrivals(b, arrivals);
        self.breakdown.txn_mgmt += self.cost.tsan_sync * arrivals.len() as u64;
        self.tsan_cycles += self.cost.tsan_sync * arrivals.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::{instrument, InstrumentConfig};
    use txrace_sim::{
        FairSched, InterruptModel, Machine, Program, ProgramBuilder, RoundRobin, RunStatus,
    };

    fn instrumented(p: &Program) -> InstrumentedProgram {
        instrument(p, &InstrumentConfig::default())
    }

    fn run_engine(ip: &InstrumentedProgram, cfg: EngineConfig, seed: u64) -> TxRaceEngine {
        let mut engine = TxRaceEngine::new(ip, cfg);
        let mut m = Machine::new(&ip.program);
        let mut s = FairSched::new(seed, 0.1);
        let r = m.run(&mut engine, &mut s);
        assert_eq!(r.status, RunStatus::Done);
        engine
    }

    /// A clean two-thread program with mid-size regions.
    fn clean_program() -> Program {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2 {
            let arr = b.array(&format!("a{t}"), 16);
            b.thread(t).loop_n(20, |tb| {
                for i in 0..6 {
                    tb.read(txrace_sim::elem(arr, i));
                }
                tb.compute(10);
                tb.syscall(txrace_sim::SyscallKind::Io);
            });
        }
        b.build()
    }

    #[test]
    fn baseline_bucket_matches_static_baseline_without_aborts() {
        let p = clean_program();
        let ip = instrumented(&p);
        let engine = run_engine(&ip, EngineConfig::default(), 1);
        let bd = engine.breakdown();
        let static_base = CostModel::default().baseline_cycles(&p);
        // No aborts: every op executed exactly once, so the baseline
        // bucket is exactly the static baseline.
        assert_eq!(engine.htm_stats().total_aborts(), 0);
        assert_eq!(bd.baseline, static_base);
        assert_eq!(bd.conflict + bd.capacity + bd.unknown, 0);
        assert!(bd.txn_mgmt > 0, "xbegin/xend must be charged");
    }

    #[test]
    fn retry_exhaustion_falls_back_to_slow_path() {
        let p = clean_program();
        let ip = instrumented(&p);
        let cfg = EngineConfig {
            max_retries: 1,
            ..EngineConfig::default()
        };
        let mut engine = TxRaceEngine::new(&ip, cfg);
        let mut m = Machine::new(&ip.program);
        // Transient events on nearly every step: every transaction aborts
        // with RETRY, exhausting the single retry immediately.
        let mut s = FairSched::new(3, 0.0).with_interrupts(InterruptModel {
            context_switch_p: 0.0,
            transient_p: 0.9,
        });
        let r = m.run(&mut engine, &mut s);
        assert_eq!(
            r.status,
            RunStatus::Done,
            "forward progress despite retries"
        );
        let es = engine.stats();
        assert!(es.fast_retries > 0, "{es:?}");
        assert!(es.slow_retry > 0, "{es:?}");
    }

    #[test]
    fn slot_exhaustion_diverts_to_slow_path_and_still_completes() {
        let p = clean_program();
        let ip = instrumented(&p);
        let cfg = EngineConfig {
            htm: HtmConfig {
                max_concurrent_txns: 1,
                ..HtmConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = run_engine(&ip, cfg, 5);
        assert!(engine.stats().slow_noslot > 0);
    }

    #[test]
    fn one_conflict_episode_writes_txfail_once() {
        // Two threads conflict on one line; the episode origin writes
        // TxFail, the artificially-aborted victims must not write again.
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        for t in 0..3 {
            let arr = b.array(&format!("a{t}"), 8);
            b.thread(t).loop_n(1, |tb| {
                for i in 0..5 {
                    tb.read(txrace_sim::elem(arr, i));
                }
                if t < 2 {
                    tb.write(x, t as u64);
                }
                for i in 0..5 {
                    tb.read(txrace_sim::elem(arr, i));
                }
            });
        }
        let p = b.build();
        let ip = instrumented(&p);
        let mut engine = TxRaceEngine::new(&ip, EngineConfig::default());
        let mut m = Machine::new(&ip.program);
        let mut s = RoundRobin::new();
        let r = m.run(&mut engine, &mut s);
        assert_eq!(r.status, RunStatus::Done);
        let es = engine.stats();
        assert!(
            es.slow_conflict >= 2,
            "origin and victims re-run slow: {es:?}"
        );
        assert_eq!(es.txfail_writes, 1, "only the episode origin writes TxFail");
    }

    #[test]
    fn small_region_checks_are_charged_to_txn_mgmt() {
        // All regions are below K: everything is SlowOnly, so the check
        // cost lands in the fast-path (txn_mgmt) bucket and no transaction
        // ever starts.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).loop_n(10, |tb| {
                tb.read(x).write(x, t as u64);
                tb.syscall(txrace_sim::SyscallKind::Io);
            });
        }
        let p = b.build();
        let ip = instrumented(&p);
        let engine = run_engine(&ip, EngineConfig::default(), 2);
        assert_eq!(engine.htm_stats().committed, 0);
        assert!(engine.stats().slow_small > 0);
        let bd = engine.breakdown();
        assert!(bd.txn_mgmt > 0);
        assert_eq!(bd.conflict + bd.capacity + bd.unknown, 0);
        // And the races on x are still found (software-checked regions):
        // write/write plus both write/read pairs.
        assert_eq!(engine.races().distinct_count(), 3);
    }

    #[test]
    fn capacity_abort_attributes_cycles_to_capacity_bucket() {
        let mut b = ProgramBuilder::new(2);
        let big = b.array("big", 80 * 8 * 8);
        b.thread(0).loop_n(80, |tb| {
            tb.write_arr(big, 8 * 64, 1);
        });
        let quiet = b.array("quiet", 8);
        b.thread(1).loop_n(10, |tb| {
            for i in 0..5 {
                tb.read(txrace_sim::elem(quiet, i));
            }
            tb.syscall(txrace_sim::SyscallKind::Io);
        });
        let p = b.build();
        let ip = instrumented(&p);
        let cfg = EngineConfig {
            loopcut: LoopcutMode::NoOpt,
            ..EngineConfig::default()
        };
        let engine = run_engine(&ip, cfg, 7);
        assert!(engine.htm_stats().capacity_aborts > 0);
        let bd = engine.breakdown();
        assert!(bd.capacity > 0);
        assert_eq!(bd.conflict, 0);
    }

    #[test]
    fn engine_exposes_learned_loopcut_profile() {
        let mut b = ProgramBuilder::new(2);
        for t in 0..2 {
            let big = b.array(&format!("big{t}"), 90 * 8 * 8);
            b.thread(t).loop_n(3, |tb| {
                tb.loop_n(90, |tb| {
                    tb.write_arr(big, 8 * 64, 1);
                });
                tb.syscall(txrace_sim::SyscallKind::Io);
            });
        }
        let p = b.build();
        let ip = instrumented(&p);
        let engine = run_engine(&ip, EngineConfig::default(), 9);
        let profile = engine.loopcut_profile();
        assert!(
            !profile.thresholds.is_empty(),
            "capacity aborts should have taught thresholds"
        );
        assert!(engine.stats().loop_cuts > 0);
    }

    #[test]
    fn channel_handoff_synchronizes_the_slow_path() {
        // Producer writes the payload then sends; consumer receives then
        // reads it. The send→recv happens-before edge must be tracked on
        // every path, so even with tiny (SlowOnly) regions FastTrack sees
        // the handoff as ordered. A second, unsynchronized variable is the
        // control: it must still be reported.
        let mut b = ProgramBuilder::new(2);
        let payload = b.var("payload");
        let racy = b.var("racy");
        let ch = b.chan_id("ch", 4);
        // A single handoff: the channel edge is unidirectional (send→recv,
        // no backpressure), so re-writing the same payload slot across
        // iterations would be a true race — see the hb crate docs.
        b.thread(0).write(payload, 7).send(ch).loop_n(10, |tb| {
            tb.write(racy, 1);
        });
        b.thread(1).recv(ch).read(payload).loop_n(10, |tb| {
            tb.write(racy, 2);
        });
        let p = b.build();
        let ip = instrumented(&p);
        let engine = run_engine(&ip, EngineConfig::default(), 13);
        let races = engine.races();
        // The payload handoff is channel-ordered: no report touches it.
        assert!(
            !races.reports().iter().any(|r| r.addr == payload),
            "channel-synchronized handoff must not be reported: {races:?}"
        );
        assert!(
            races.reports().iter().any(|r| r.addr == racy),
            "the unsynchronized control variable must still race"
        );
    }

    #[test]
    fn prune_table_elides_slow_path_checks_without_losing_races() {
        use crate::sa::SiteClassTable;
        // Tiny regions (SlowOnly) so every access runs on the slow path:
        // the racy accesses to x must still be checked and reported, the
        // race-free accesses to each thread's private variable must be
        // elided and charged to the elided bucket.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            let mine = b.var(&format!("mine{t}"));
            b.thread(t).loop_n(10, |tb| {
                tb.write(x, t as u64).read(mine);
                tb.syscall(txrace_sim::SyscallKind::Io);
            });
        }
        let p = b.build();
        let table = SiteClassTable::analyze(&p);
        let ip = instrumented(&p);
        let run_with = |prune: Option<SiteClassTable>| {
            let cfg = EngineConfig {
                prune,
                ..EngineConfig::default()
            };
            let mut engine = TxRaceEngine::new(&ip, cfg);
            let mut m = Machine::new(&ip.program);
            let mut s = FairSched::new(11, 0.1);
            assert_eq!(m.run(&mut engine, &mut s).status, RunStatus::Done);
            engine
        };
        let off = run_with(None);
        let on = run_with(Some(table));
        assert!(on.stats().elided_checks > 0, "private reads elided");
        assert_eq!(on.races().distinct_count(), off.races().distinct_count());
        assert_eq!(off.stats().elided_checks, 0);
        assert_eq!(off.breakdown().elided, 0);
        // Identical schedule, so the pruned run's paid cycles plus its
        // elided cycles reproduce the unpruned total exactly.
        assert_eq!(
            off.breakdown().total(),
            on.breakdown().total() + on.breakdown().elided
        );
        assert_eq!(on.checks() + on.stats().elided_checks, off.checks());
    }
}
