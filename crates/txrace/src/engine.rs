//! The TxRace two-phase runtime (paper §3–§5).
//!
//! Implements [`txrace_sim::Runtime`]: each thread alternates between the
//! HTM-backed **fast path** and the FastTrack-checked **slow path** at the
//! granularity of transactional regions.
//!
//! The engine steers execution only at the compiler-inserted markers:
//! the `tx_begin`/`tx_end` hooks open and close a region, the
//! `loop_cut_probe` hook may split its transaction, and `before_op`
//! (fired for every op) only delivers interrupts and observes a doomed
//! transaction. Every cycle is priced from the typed call that carries
//! it — the memory hooks for accesses, the `compute`/`syscall` events
//! for work, the sync events for sync ops — into the buckets of the
//! paper's Figure 7.
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
//! path report false positives across fast-path sync edges. The
//! interpreter delivers those operations to the engine's
//! [`txrace_sim::TraceConsumer`] impl, the same events a replayed log
//! drives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txrace_hb::{FastTrack, RaceSet, ShadowMode};
use txrace_htm::{AbortReason, AbortStatus, HtmConfig, HtmStats, HtmSystem, XbeginError};
use txrace_sim::CacheLine;
use txrace_sim::{
    Addr, BarrierId, ChanId, CondId, Directive, LockId, LoopId, Memory, OpEvent, RegionId, Runtime,
    SiteId, Snapshot, SyscallKind, ThreadId, TraceConsumer,
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

/// One thread's place in the §4.2 abort policy. Each field lives only
/// in the phase where it means something.
#[derive(Debug, Default)]
struct ThreadCtx {
    phase: Phase,
    /// Transient-abort retries of the current region so far.
    retries: u32,
    /// The `TxFail` value this thread last observed.
    txfail_seen: u64,
}

#[derive(Debug)]
enum Phase {
    /// Outside every region. After an abort, holds the entry to make
    /// where the rollback lands (the region's `TxBegin` or a loop-cut
    /// probe).
    Outside(Option<Entry>),
    /// Inside a hardware transaction.
    Fast(FastTxn),
    /// Re-executing a region under FastTrack.
    Slow(SlowRun),
}

impl Default for Phase {
    fn default() -> Self {
        Phase::Outside(None)
    }
}

impl Phase {
    /// A slow path with no conflict hint.
    fn slow(region: RegionId, trigger: SlowTrigger) -> Phase {
        Phase::Slow(SlowRun {
            region,
            trigger,
            hint: None,
        })
    }
}

/// An open hardware transaction.
#[derive(Debug)]
struct FastTxn {
    region: RegionId,
    /// Where an abort rolls back to: the op that began the transaction.
    snap: Snapshot,
    /// Provisional work: baseline on commit, wasted on abort.
    base: u64,
    /// The loop whose cut began this transaction; a commit feeds it to
    /// the learner.
    cut_loop: Option<LoopId>,
}

/// A region instance on the slow path.
#[derive(Debug, Clone, Copy)]
struct SlowRun {
    region: RegionId,
    trigger: SlowTrigger,
    /// Conflict-hint extension: only accesses to this line are checked.
    hint: Option<CacheLine>,
}

/// How a thread enters a region.
#[derive(Debug)]
enum Entry {
    /// On the slow path, as an abort demanded.
    Slow(SlowRun),
    /// In a fresh transaction: a first entry, or a retry after a
    /// transient abort. A retry keeps the loop whose cut began the
    /// aborted transaction, so its commit still feeds the learner.
    Fast {
        region: RegionId,
        cut: Option<LoopId>,
    },
}

/// Where the knobs in force come from.
#[derive(Debug)]
enum Control {
    /// Fixed at their configured values.
    Fixed(Knobs),
    /// Re-tuned at epoch boundaries by the production-mode controller.
    Adaptive(AdaptiveController),
}

impl Control {
    fn knobs(&self) -> &Knobs {
        match self {
            Control::Fixed(knobs) => knobs,
            Control::Adaptive(ctl) => ctl.knobs(),
        }
    }

    /// Whether production-mode monitoring is idle (never outside
    /// production mode).
    fn idle(&self) -> bool {
        matches!(self, Control::Adaptive(ctl) if !ctl.active())
    }
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
    /// no effect otherwise. [`crate::Detector`] sets it exactly when the
    /// HTM reports conflict addresses.
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
    threads: Vec<ThreadCtx>,
    max_retries: u32,
    loopcut: LoopcutState,
    track_fast_sync: bool,
    conflict_hints: bool,
    episode_hint: Option<CacheLine>,
    sampler: Option<(f64, StdRng)>,
    prune: Option<SiteClassTable>,
    sync_dead: bool,
    stats: EngineStats,
    control: Control,
    /// `watch[site]`: an idle-mode access here may re-arm monitoring.
    watch: Vec<bool>,
    /// Epoch telemetry under construction (`epoch_events` set).
    telemetry: Option<Telemetry>,
    /// Executed operations, total and within the current epoch.
    events_total: u64,
    epoch_acc: u64,
    /// Static baseline cycles of the program (the overhead denominator).
    static_baseline: u64,
    /// Cycles charged to software detection / HTM management, for the
    /// telemetry split (subsets of the paid breakdown buckets).
    tsan_cycles: u64,
    htm_cycles: u64,
    /// The counters at the last epoch boundary, for delta telemetry.
    prev_epoch: EpochCounters,
}

/// The cumulative counters an [`EpochRecord`] reports as deltas from the
/// previous epoch boundary.
#[derive(Debug, Clone, Copy, Default)]
struct EpochCounters {
    events: u64,
    htm: HtmStats,
    checks: u64,
    elided: u64,
    baseline: u64,
    tsan_cycles: u64,
    htm_cycles: u64,
}

impl TxRaceEngine {
    /// Builds an engine for one run of `ip`.
    ///
    /// # Panics
    ///
    /// Panics if the slow-path sampling rate ([`Knobs::sampling`]) is
    /// NaN; a finite rate outside `[0, 1]` is clamped.
    pub fn new(ip: &InstrumentedProgram, cfg: EngineConfig) -> Self {
        if let Some(rate) = cfg.knobs.sampling {
            assert!(
                !rate.is_nan(),
                "sampling rate {rate} is not a rate in [0, 1]"
            );
        }
        let n = ip.program.thread_count();
        let htm = HtmSystem::new(cfg.htm, n);
        let ft = FastTrack::new(n, cfg.shadow);
        let mut loopcut = LoopcutState::new(cfg.loopcut, n, cfg.profile.as_ref());
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
        let control = cfg.production.map_or(Control::Fixed(cfg.knobs), |mode| {
            // The event estimate paces the controller's allowance; one
            // executed op is one event, so the loop-weighted static op
            // count is the estimate (re-execution makes actual counts
            // run a little over — pacing only needs the right scale).
            let est_events = ip.program.fold_dynamic(|_| 1);
            let ctl = AdaptiveController::new(mode, static_baseline, est_events, cfg.knobs);
            Control::Adaptive(ctl)
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
            threads: (0..n).map(|_| ThreadCtx::default()).collect(),
            max_retries: cfg.max_retries,
            loopcut,
            track_fast_sync: cfg.track_fast_sync,
            conflict_hints: cfg.conflict_hints,
            episode_hint: None,
            sampler: cfg
                .knobs
                .sampling
                .map(|rate| (rate.clamp(0.0, 1.0), StdRng::seed_from_u64(0x7852_11e5))),
            prune: cfg.prune,
            sync_dead,
            stats: EngineStats::default(),
            control,
            watch,
            telemetry: cfg.epoch_events.map(|e| Telemetry {
                epoch_events: e,
                epochs: Vec::new(),
            }),
            events_total: 0,
            epoch_acc: 0,
            static_baseline,
            tsan_cycles: 0,
            htm_cycles: 0,
            prev_epoch: EpochCounters::default(),
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

    /// Static baseline cycles of the program (the overhead denominator),
    /// priced once at construction.
    pub(crate) fn static_baseline(&self) -> u64 {
        self.static_baseline
    }

    /// HTM transaction statistics (Table 1 columns).
    pub fn htm_stats(&self) -> HtmStats {
        *self.htm.stats()
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.loop_cuts = self.loopcut.cuts();
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
        let bd = self.breakdown;
        let now = EpochCounters {
            events: self.events_total,
            htm: *self.htm.stats(),
            checks: self.ft.checks(),
            elided: self.stats.elided_checks + self.stats.idle_skips,
            baseline: bd.baseline,
            tsan_cycles: self.tsan_cycles,
            htm_cycles: self.htm_cycles,
        };
        let prev = std::mem::replace(&mut self.prev_epoch, now);
        let tm = self.telemetry.as_mut().expect("telemetry enabled");
        let active = !self.control.idle();
        let knobs = self.control.knobs();
        let rec = EpochRecord {
            index: tm.epochs.len() as u64,
            events: now.events - prev.events,
            active,
            sampling: if active {
                knobs.sampling.unwrap_or(1.0)
            } else {
                0.0
            },
            k_min_ops: knobs.k_min_ops,
            loopcut_threshold: knobs.loopcut_threshold,
            conflict_aborts: now.htm.conflict_aborts - prev.htm.conflict_aborts,
            capacity_aborts: now.htm.capacity_aborts - prev.htm.capacity_aborts,
            unknown_aborts: now.htm.unknown_aborts - prev.htm.unknown_aborts,
            checks: now.checks - prev.checks,
            elided_checks: now.elided - prev.elided,
            tsan_cycles: now.tsan_cycles - prev.tsan_cycles,
            htm_cycles: now.htm_cycles - prev.htm_cycles,
            baseline_cycles: now.baseline - prev.baseline,
            cum_overhead: bd.overhead_vs(self.static_baseline),
        };
        let capacity_delta = rec.capacity_aborts;
        tm.epochs.push(rec);
        if let Control::Adaptive(ctl) = &mut self.control {
            ctl.on_epoch(self.events_total, bd.extra(), capacity_delta);
            self.loopcut
                .set_initial_threshold(ctl.knobs().loopcut_threshold);
        }
    }

    /// Production-mode slow-path gate. Returns true when the access at
    /// `site` should be software-checked. While idle, a watched site
    /// may re-arm monitoring (with a shadow reset, so no reported pair
    /// can span the unmonitored gap); any other idle access charges its
    /// skipped check to the elided bucket.
    fn production_gate(&mut self, site: SiteId) -> bool {
        let Control::Adaptive(ctl) = &mut self.control else {
            return true;
        };
        if ctl.active() {
            return true;
        }
        let watched = self.watch.get(site.index()).copied().unwrap_or(false);
        if watched && ctl.on_watch_hit(self.events_total, self.breakdown.extra()) {
            // Every re-arm starts a fresh monitored stretch: accesses
            // from before the idle gap must not pair with accesses
            // after it (their ordering sync was never observed).
            self.ft.reset_shadow();
            return true;
        }
        self.stats.idle_skips += 1;
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

    /// Ends `t`'s transaction. A commit turns its provisional work into
    /// baseline, charges the management cost, resets the retry budget and
    /// feeds `cut` to the loop-cut learner; a failed commit is an abort,
    /// whose rollback is returned.
    fn commit(
        &mut self,
        t: ThreadId,
        cut: Option<LoopId>,
        txn: FastTxn,
        mem: &mut Memory,
        ev: &OpEvent<'_>,
    ) -> Option<Directive> {
        // Read the (optional) conflict hint before xend frees the
        // hardware slot.
        let hint = self.hw_hint(t);
        if let Err(status) = self.htm.xend(t) {
            return Some(self.handle_abort(t, txn, status, hint, mem, ev));
        }
        self.breakdown.txn_mgmt += self.cost.xend;
        self.htm_cycles += self.cost.xend;
        self.breakdown.baseline += txn.base;
        self.threads[t.index()].retries = 0;
        if let Some(l) = cut {
            self.loopcut.on_cut_commit(l);
        }
        None
    }

    /// Enters a region on the path `entry` names.
    fn enter(&mut self, t: ThreadId, entry: Entry, mem: &mut Memory, ev: &OpEvent<'_>) {
        match entry {
            Entry::Slow(run) => self.threads[t.index()].phase = Phase::Slow(run),
            Entry::Fast { region, cut } => self.begin_txn(region, cut, mem, ev),
        }
    }

    /// Starts a hardware transaction for region `r` with its snapshot at
    /// the current op (a `TxBegin` or a loop-cut probe). `cut` is the
    /// loop whose cut begins it, if any.
    fn begin_txn(&mut self, r: RegionId, cut: Option<LoopId>, mem: &mut Memory, ev: &OpEvent<'_>) {
        let t = ev.thread;
        let ti = t.index();
        self.threads[ti].phase = match self.htm.xbegin(t) {
            Ok(()) => {
                self.breakdown.txn_mgmt += self.cost.xbegin;
                self.htm_cycles += self.cost.xbegin;
                self.loopcut.on_txn_start(t);
                // Subscribe to artificial aborts: every transaction reads
                // TxFail first, so any non-transactional write to it dooms
                // all in-flight transactions (strong isolation). Remembering
                // the observed value keeps the origin/victim test below
                // current — a stale value would misclassify a later direct
                // conflict as an artificial abort and skip the TxFail
                // write, silently shrinking episodes.
                self.threads[ti].txfail_seen = self.htm.read(t, mem, TXFAIL_ADDR);
                // The interpreter snapshot is the pc plus a copy of the
                // loop stack; memory rollback state is the HTM's journal
                // watermark.
                Phase::Fast(FastTxn {
                    region: r,
                    snap: ev.snapshot(),
                    base: 0,
                    cut_loop: cut,
                })
            }
            Err(XbeginError::NoSlot) => {
                self.stats.slow_noslot += 1;
                Phase::slow(r, SlowTrigger::NoSlot)
            }
            Err(XbeginError::Nested) => unreachable!("engine never nests transactions"),
        };
    }

    /// The conflicting line the hardware reports for `t`'s doomed
    /// transaction, when the conflict-hint extension is on. Read it while
    /// the slot is still live (an `xend` frees it).
    fn hw_hint(&self, t: ThreadId) -> Option<CacheLine> {
        self.conflict_hints
            .then(|| self.htm.conflict_line_hint(t))
            .flatten()
    }

    /// Consumes an abort of `txn`: classifies the status, applies the §4.2
    /// policy, and rolls the thread back to the transaction's snapshot,
    /// leaving it outside the region with the entry to make there.
    /// `hw_hint` must be captured by the caller with
    /// [`hw_hint`](Self::hw_hint) while the slot was still live.
    fn handle_abort(
        &mut self,
        t: ThreadId,
        txn: FastTxn,
        status: AbortStatus,
        hw_hint: Option<CacheLine>,
        mem: &mut Memory,
        ev: &OpEvent<'_>,
    ) -> Directive {
        let ti = t.index();
        if self.htm.in_txn(t) {
            let s = self.htm.abort_rollback(t);
            debug_assert_eq!(s, status);
        }
        // Wasted transactional work plus the rollback itself are overhead
        // attributed to the abort reason. Only a commit feeds the cut
        // loop to the learner: a fast-path retry carries it into its fresh
        // transaction, and a slow-path entry drops it.
        let region = txn.region;
        let wasted = txn.base + self.cost.rollback_penalty;
        self.htm_cycles += wasted;
        let mut hint = None;
        let trigger = match status.reason() {
            AbortReason::Conflict => {
                self.stats.slow_conflict += 1;
                // TxFail protocol: the episode origin (first to observe an
                // unchanged flag) writes it, artificially aborting every
                // in-flight transaction; artificial-abort victims only
                // record the new value.
                let seen = self.htm.read(t, mem, TXFAIL_ADDR);
                if seen == self.threads[ti].txfail_seen {
                    let flag = seen + 1;
                    self.htm.write(t, mem, TXFAIL_ADDR, flag);
                    self.stats.txfail_writes += 1;
                    self.breakdown.conflict += 2 * self.cost.mem_access;
                    self.htm_cycles += 2 * self.cost.mem_access;
                    self.threads[ti].txfail_seen = flag;
                    // Episode origin publishes the conflicting line next
                    // to TxFail (extension: one extra shared write).
                    if self.conflict_hints {
                        self.episode_hint = hw_hint;
                        self.breakdown.conflict += self.cost.mem_access;
                        self.htm_cycles += self.cost.mem_access;
                    }
                } else {
                    self.threads[ti].txfail_seen = seen;
                }
                if self.conflict_hints {
                    // Artificial-abort victims read the published line;
                    // the origin uses the hardware-reported one.
                    hint = hw_hint
                        .filter(|&l| l != TXFAIL_ADDR.line())
                        .or(self.episode_hint);
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
                    .or_else(|| self.regions[region.index()].loops.last().copied());
                self.loopcut.on_capacity_abort(l);
                Some(SlowTrigger::Capacity)
            }
            AbortReason::Unknown => {
                self.stats.slow_unknown += 1;
                Some(SlowTrigger::Unknown)
            }
            AbortReason::Retry => {
                let ctx = &mut self.threads[ti];
                ctx.retries += 1;
                if ctx.retries <= self.max_retries {
                    self.stats.fast_retries += 1;
                    None // retry on the fast path
                } else {
                    ctx.retries = 0;
                    self.stats.slow_retry += 1;
                    Some(SlowTrigger::RetryExhausted)
                }
            }
        };
        let entry = match trigger {
            Some(trigger) => {
                *self.bucket_of(trigger) += wasted;
                Entry::Slow(SlowRun {
                    region,
                    trigger,
                    hint,
                })
            }
            None => {
                self.breakdown.unknown += wasted;
                Entry::Fast {
                    region,
                    cut: txn.cut_loop,
                }
            }
        };
        self.threads[ti].phase = Phase::Outside(Some(entry));
        Directive::Rollback(txn.snap)
    }

    /// Charges `c` cycles of the program's own work (an access, compute
    /// or a system call) by `t`. Inside a fast transaction the work is
    /// provisional: on abort it is wasted and moves to the abort bucket.
    ///
    /// Zombie freedom (DESIGN.md §6): no such work runs on a doomed
    /// transaction, because `before_op` observes the doom first and rolls
    /// back. The HTM's property tests exclude zombie accesses on exactly
    /// this premise.
    fn charge_base(&mut self, t: ThreadId, c: u64) {
        match &mut self.threads[t.index()].phase {
            Phase::Fast(txn) => {
                debug_assert!(
                    self.htm.is_doomed(t).is_none(),
                    "{t}: work on a doomed transaction"
                );
                txn.base += c;
            }
            _ => self.breakdown.baseline += c,
        }
    }

    /// Charges the architectural cost of one sync op by `t`, which never
    /// runs inside a transaction.
    fn charge_sync_op(&mut self, t: ThreadId) {
        debug_assert!(
            !self.htm.in_txn(t),
            "sync op inside a transaction: instrumentation bug"
        );
        self.breakdown.baseline += self.cost.sync_op;
    }

    /// Whether an access at `site` to `addr` on the slow path `run` is
    /// software-checked: only if neither the prune table, an idle duty
    /// cycle, the conflict hint nor the sampler skips it. A check is
    /// charged to the bucket of the slow path's trigger; one the prune
    /// table proves race-free, to the `elided` bucket.
    fn slow_check(&mut self, run: SlowRun, site: SiteId, addr: Addr) -> bool {
        let SlowRun { trigger, hint, .. } = run;
        if self
            .prune
            .as_ref()
            .is_some_and(|table| table.is_race_free(site))
        {
            self.stats.elided_checks += 1;
            self.breakdown.elided += self.eff_check;
            return false;
        }
        if !self.production_gate(site) || hint.is_some_and(|line| addr.line() != line) {
            return false;
        }
        if let Some((rate, rng)) = &mut self.sampler {
            if rng.gen::<f64>() >= *rate {
                return false;
            }
        }
        let c = self.eff_check;
        *self.bucket_of(trigger) += c;
        self.tsan_cycles += c;
        true
    }

    /// Prices one sync event by `t`, then gates its tracking: false
    /// under the ablation when `t` is off the slow path (fast-path sync
    /// edges are lost), else [`charge_sync`](Self::charge_sync) for its
    /// one edge.
    fn track_sync(&mut self, t: ThreadId) -> bool {
        self.charge_sync_op(t);
        (self.track_fast_sync || matches!(self.threads[t.index()].phase, Phase::Slow(_)))
            && self.charge_sync(1)
    }

    /// Charges `edges` happens-before updates and says whether to make
    /// them. When nothing will ever consult the happens-before state —
    /// the prune table proves every check dead, or an idle duty cycle
    /// resets the state before monitoring re-arms — the updates are
    /// skipped and their cost goes to the `elided` bucket.
    fn charge_sync(&mut self, edges: u64) -> bool {
        let c = self.cost.tsan_sync * edges;
        if self.sync_dead || self.control.idle() {
            self.breakdown.elided += c;
            return false;
        }
        self.breakdown.txn_mgmt += c;
        self.tsan_cycles += c;
        true
    }
}

impl Runtime for TxRaceEngine {
    fn before_op(&mut self, mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
        let t = ev.thread;
        // Epoch clock: one executed op is one event. Off (a single
        // branch) unless telemetry was requested.
        if let Some(len) = self.telemetry.as_ref().map(|tm| tm.epoch_events) {
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
        let ctx = &mut self.threads[t.index()];
        if let Phase::Fast(_) = ctx.phase {
            if let Some(status) = self.htm.is_doomed(t) {
                let Phase::Fast(txn) = std::mem::take(&mut ctx.phase) else {
                    unreachable!()
                };
                let hint = self.hw_hint(t);
                return self.handle_abort(t, txn, status, hint, mem, ev);
            }
        }
        Directive::Continue
    }

    /// Opens region `r`, or re-enters it where an abort's rollback landed.
    fn tx_begin(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, r: RegionId) -> Directive {
        let t = ev.thread;
        let ti = t.index();
        let Phase::Outside(pending) = std::mem::take(&mut self.threads[ti].phase) else {
            unreachable!("{t}: region entered while busy");
        };
        // Production mode re-tunes K online: a region whose checked-op
        // count falls below the current knob runs slow-only (its markers
        // were kept precisely so this decision can move at run time).
        // While the controller is idle the fast path is suspended too —
        // a transaction whose conflict abort we would not act on is pure
        // management cost, and letting it run would drain the pacing
        // allowance the watch-hit reopen is waiting to refill.
        // Outside production mode the static instrumentation decides.
        // A slow-only entry lets a pending entry lapse.
        let info = &self.regions[r.index()];
        let slow_only = info.kind == RegionKind::SlowOnly
            || matches!(&self.control, Control::Adaptive(ctl)
                if !ctl.active() || info.checked_ops < ctl.knobs().k_min_ops);
        if slow_only {
            self.stats.slow_small += 1;
            self.threads[ti].phase = Phase::slow(r, SlowTrigger::SmallRegion);
        } else {
            let first = Entry::Fast {
                region: r,
                cut: None,
            };
            self.enter(t, pending.unwrap_or(first), mem, ev);
        }
        Directive::Continue
    }

    /// Closes region `r`: commits its transaction or ends its slow path.
    fn tx_end(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, r: RegionId) -> Directive {
        let t = ev.thread;
        let ti = t.index();
        match std::mem::take(&mut self.threads[ti].phase) {
            Phase::Fast(txn) => {
                debug_assert_eq!(txn.region, r, "TxEnd region mismatch");
                self.commit(t, txn.cut_loop, txn, mem, ev)
                    .unwrap_or(Directive::Continue)
            }
            Phase::Slow(run) => {
                debug_assert_eq!(run.region, r, "TxEnd region mismatch (slow)");
                self.threads[ti].retries = 0;
                Directive::Continue
            }
            Phase::Outside(_) => unreachable!("TxEnd without an open region"),
        }
    }

    /// Loop-cut probe. In fast mode, may split the transaction;
    /// after a rollback that targeted this probe, re-enters the region.
    fn loop_cut_probe(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, l: LoopId) -> Directive {
        let t = ev.thread;
        let ti = t.index();
        match &mut self.threads[ti].phase {
            Phase::Outside(pending) => {
                // An orphaned probe outside any region has nothing pending.
                if let Some(entry) = pending.take() {
                    self.enter(t, entry, mem, ev);
                }
                Directive::Continue
            }
            Phase::Fast(_) if self.loopcut.probe(t, l) => {
                let Phase::Fast(txn) = std::mem::take(&mut self.threads[ti].phase) else {
                    unreachable!()
                };
                let region = txn.region;
                self.commit(t, Some(l), txn, mem, ev).unwrap_or_else(|| {
                    self.begin_txn(region, Some(l), mem, ev);
                    Directive::Continue
                })
            }
            // No cut due, or on the slow path: nothing changes.
            _ => Directive::Continue,
        }
    }

    fn load(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr) -> u64 {
        let t = ev.thread;
        self.charge_base(t, self.cost.mem_access);
        if let Phase::Slow(run) = self.threads[t.index()].phase {
            if self.slow_check(run, ev.site, addr) {
                self.ft.read(t, ev.site, addr);
            }
        }
        // Fast mode: transactional access. Slow/outside: non-transactional
        // access with strong isolation against others' transactions.
        self.htm.read(t, mem, addr)
    }

    fn store(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, val: u64) {
        let t = ev.thread;
        self.charge_base(t, self.cost.mem_access);
        if let Phase::Slow(run) = self.threads[t.index()].phase {
            if self.slow_check(run, ev.site, addr) {
                self.ft.write(t, ev.site, addr);
            }
        }
        self.htm.write(t, mem, addr, val);
    }

    fn fetch_add(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, delta: u64) -> u64 {
        // Atomic RMWs cannot race under the C11 model, so the detector does
        // not check them; they still participate in HTM conflict detection
        // (a benign-conflict source the slow path then filters).
        self.charge_base(ev.thread, self.cost.mem_access);
        self.htm.rmw(ev.thread, mem, addr, delta)
    }
}

/// Happens-before tracking of sync operations on *every* path (§5,
/// Figure 6), and the pricing of every non-access op: each sync event
/// pays its architectural cost and passes one gate (`track_sync`), then
/// makes one FastTrack call. Channel send/recv are `is_sync()`, so like
/// every sync op they cut transactions in `instrument` and are only ever
/// delivered outside a hardware transaction. Access events keep the
/// no-op defaults: the memory hooks price and check accesses, next to
/// the HTM access they mediate.
impl TraceConsumer for TxRaceEngine {
    fn compute(&mut self, t: ThreadId, _site: SiteId, units: u32) {
        self.charge_base(t, u64::from(units) * self.cost.compute_unit);
    }

    fn syscall(&mut self, t: ThreadId, _site: SiteId, _kind: SyscallKind) {
        self.charge_base(t, self.cost.syscall);
    }

    fn barrier_arrive(&mut self, t: ThreadId, _site: SiteId, _b: BarrierId) {
        // Tracked once per release, over all arrivals (below).
        self.charge_sync_op(t);
    }

    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        if self.track_sync(t) {
            self.ft.acquire(t, site, l);
        }
    }

    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        if self.track_sync(t) {
            self.ft.release(t, site, l);
        }
    }

    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        if self.track_sync(t) {
            self.ft.signal(t, site, c);
        }
    }

    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        if self.track_sync(t) {
            self.ft.wait(t, site, c);
        }
    }

    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        if self.track_sync(t) {
            self.ft.spawn(t, site, child);
        }
    }

    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        if self.track_sync(t) {
            self.ft.join(t, site, child);
        }
    }

    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        if self.track_sync(t) {
            self.ft.chan_send(t, site, ch);
        }
    }

    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        if self.track_sync(t) {
            self.ft.chan_recv(t, site, ch);
        }
    }

    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        // One edge per arrival. The ablation drops releases outright,
        // whatever path the arrivers are on.
        if self.track_fast_sync && self.charge_sync(arrivals.len() as u64) {
            self.ft.barrier_release(b, arrivals);
        }
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
