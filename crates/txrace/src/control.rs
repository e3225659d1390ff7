//! The unified control plane: runtime knobs, epoch-structured telemetry,
//! and the adaptive production-mode controller.
//!
//! Before this module, the tunables that shape a run were scattered —
//! transaction capacity `K` in [`mod@crate::instrument`], the sampling rate
//! in [`crate::TxRaceOpts`]/[`crate::TsanConsumer`], loop-cut thresholds
//! in [`crate::loopcut`], the prune mode in [`crate::RunConfig`] — and
//! telemetry existed only as end-of-run aggregates, so nothing could
//! close the loop at runtime. [`Knobs`] gathers the tunables into one
//! value consumed uniformly by the instrumentation pass, the engine, the
//! loop-cut learner, and the baselines; [`Telemetry`] structures the
//! engine's counters into fixed-size event epochs; and
//! [`AdaptiveController`] re-tunes the knobs at epoch boundaries to hold
//! a [`ProductionMode`] overhead budget.
//!
//! ## The controller
//!
//! The budget buys an *extra-cycle allowance* `A = (budget - 1) ×
//! baseline_cycles`. The controller is a pure function of `(budget,
//! telemetry prefix)` — it draws no randomness and reads no clocks, so
//! the same `(workload, seed, budget)` always produces the same
//! epoch-by-epoch knob schedule and race set:
//!
//! * **Warmup**: monitoring starts fully on. At each epoch boundary the
//!   spend so far is compared against the *paced* allowance
//!   `A × progress` (progress = events so far / estimated total events),
//!   with a grace floor of `A ×` [`AdaptiveController::GRACE`] so cheap
//!   early epochs don't demote a workload that would comfortably fit.
//!   Overspending demotes the run to duty-cycled monitoring and
//!   escalates the knobs (larger `K` so tiny regions stop paying HTM
//!   management, a higher initial loop-cut threshold when capacity
//!   aborts drove the spend).
//! * **Duty-cycling**: once demoted, monitoring re-arms only through
//!   *watch hits* — slow-path accesses to statically race-candidate
//!   sites (the [`crate::sa::MayRacePairs`] set, the debug-register
//!   analogy of HardRace). A hit opens a window of
//!   [`AdaptiveController::WINDOW_EPOCHS`] epochs iff the paced
//!   allowance has credit; the engine resets its FastTrack shadow state
//!   at every window open, so a reported pair always has both endpoints
//!   inside one contiguous monitored stretch (no false positives across
//!   unmonitored gaps).
//! * **Hard cap**: spend at or beyond `A` forces monitoring off for the
//!   rest of the run — the budget is a ceiling, not a suggestion.

use crate::loopcut;
use crate::sa::StaticPruneMode;

/// Every runtime tunable in one place, consumed by
/// [`mod@crate::instrument`] (via [`crate::InstrumentConfig::from_knobs`]),
/// the engine, and the loop-cut learner; the TSan baselines read only
/// the prune mode.
///
/// The defaults reproduce the paper's configuration exactly (`K = 5`,
/// no sampling, loop-cut initial threshold 2, no static pruning), so a
/// default-knob run is byte-identical to the pre-control-plane code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Transaction capacity threshold: regions with fewer checkable
    /// memory ops run slow-path-only (paper §4.3, `K = 5`).
    pub k_min_ops: u64,
    /// Slow-path check sampling rate in `[0, 1]`; `None` checks
    /// everything (the paper's configuration).
    pub sampling: Option<f64>,
    /// Initial loop-cut threshold installed when a capacity abort first
    /// activates a loop (paper: "a small initial estimate").
    pub loopcut_threshold: u32,
    /// Static race-freedom pruning mode.
    pub prune: StaticPruneMode,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            k_min_ops: 5,
            sampling: None,
            loopcut_threshold: loopcut::INITIAL_THRESHOLD,
            prune: StaticPruneMode::Off,
        }
    }
}

impl Knobs {
    /// Knobs with a specific `K` (the ablation sweep's axis).
    pub fn with_k(mut self, k: u64) -> Self {
        self.k_min_ops = k;
        self
    }

    /// Knobs with a slow-path sampling rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is NaN.
    pub fn with_sampling(mut self, rate: f64) -> Self {
        assert!(
            !rate.is_nan(),
            "sampling rate {rate} is not a rate in [0, 1]"
        );
        self.sampling = Some(rate);
        self
    }
}

/// The always-on production scheme: TxRace+SA-flow detection under an
/// overhead budget, held by the [`AdaptiveController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductionMode {
    /// Target overhead ceiling as a factor of baseline cycles (e.g.
    /// `1.2` buys 20% extra cycles).
    pub budget: f64,
}

/// One epoch's worth of engine telemetry: counter deltas over a window
/// of [`Telemetry::epoch_events`] executed operations, plus the knob
/// values in force while the epoch ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub index: u64,
    /// Operations executed in this epoch (the final epoch may be short).
    pub events: u64,
    /// Whether slow-path monitoring was armed at the end of the epoch.
    pub active: bool,
    /// Effective sampling rate in force: the configured rate (1.0 = full
    /// checking) while monitoring is armed, 0.0 while it is idle.
    pub sampling: f64,
    /// The `K` small-region threshold in force.
    pub k_min_ops: u64,
    /// The loop-cut initial threshold in force.
    pub loopcut_threshold: u32,
    /// HTM conflict aborts in this epoch.
    pub conflict_aborts: u64,
    /// HTM capacity aborts in this epoch.
    pub capacity_aborts: u64,
    /// HTM unknown aborts in this epoch.
    pub unknown_aborts: u64,
    /// Software access checks performed in this epoch.
    pub checks: u64,
    /// Checks elided (static pruning or duty-cycle idling) this epoch.
    pub elided_checks: u64,
    /// Cycles charged to software detection (checks + HB sync tracking).
    pub tsan_cycles: u64,
    /// Cycles charged to HTM management (xbegin/xend, wasted
    /// transactional work, rollbacks).
    pub htm_cycles: u64,
    /// Baseline (uninstrumented-equivalent) cycles retired this epoch.
    pub baseline_cycles: u64,
    /// Cumulative overhead factor at the end of this epoch.
    pub cum_overhead: f64,
}

impl EpochRecord {
    /// Fraction of would-be checks elided in this epoch (static pruning
    /// plus duty-cycle idling); 0.0 when the epoch performed no checks
    /// at all.
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.checks + self.elided_checks;
        if total == 0 {
            return 0.0;
        }
        self.elided_checks as f64 / total as f64
    }
}

/// The epoch-structured telemetry stream of one engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Nominal epoch length in executed operations.
    pub epoch_events: u64,
    /// The per-epoch records, in execution order.
    pub epochs: Vec<EpochRecord>,
}

impl Telemetry {
    /// Total operations covered by the recorded epochs.
    pub fn total_events(&self) -> u64 {
        self.epochs.iter().map(|e| e.events).sum()
    }

    /// The knob schedule as `(epoch index, K, sampling, loop-cut
    /// threshold, active)` tuples — the controller-determinism test's
    /// comparison key.
    pub fn knob_schedule(&self) -> Vec<(u64, u64, f64, u32, bool)> {
        self.epochs
            .iter()
            .map(|e| {
                (
                    e.index,
                    e.k_min_ops,
                    e.sampling,
                    e.loopcut_threshold,
                    e.active,
                )
            })
            .collect()
    }

    /// Number of epochs with monitoring armed at the epoch boundary.
    pub fn active_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| e.active).count()
    }
}

/// Re-tunes [`Knobs`] at epoch boundaries to hold a [`ProductionMode`]
/// budget. Decisions are a pure function of the construction inputs and
/// the sequence of `(events, spent)` observations — no randomness, no
/// clocks — which is what makes production runs replayable and golden-
/// testable.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    /// Extra-cycle allowance: `(budget - 1) × baseline_cycles`.
    allowance: f64,
    /// Estimated total executed operations (paces the allowance).
    est_events: u64,
    knobs: Knobs,
    /// False once the warmup overspend check demoted the run.
    warm: bool,
    /// Monitoring armed (always true during warmup).
    active: bool,
    /// Remaining epochs of the open watch window.
    window_left: u32,
}

impl AdaptiveController {
    /// Grace fraction of the allowance that warmup may spend regardless
    /// of progress, so cheap early epochs don't demote a run that fits.
    pub const GRACE: f64 = 0.15;
    /// Epochs a watch hit keeps monitoring armed.
    pub const WINDOW_EPOCHS: u32 = 2;
    /// Default epoch length in executed operations.
    pub const EPOCH_EVENTS: u64 = 64;

    /// Creates a controller for a run with the given static baseline
    /// cost and estimated event count, starting from `knobs`.
    pub fn new(mode: ProductionMode, baseline_cycles: u64, est_events: u64, knobs: Knobs) -> Self {
        AdaptiveController {
            allowance: (mode.budget - 1.0).max(0.0) * baseline_cycles as f64,
            est_events: est_events.max(1),
            knobs,
            warm: true,
            active: true,
            window_left: 0,
        }
    }

    /// The knobs currently in force.
    pub fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// Whether slow-path monitoring is currently armed.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Fraction of the estimated run completed after `events` ops.
    fn progress(&self, events: u64) -> f64 {
        (events as f64 / self.est_events as f64).min(1.0)
    }

    /// The allowance credit available at `events` ops: spend is paced
    /// linearly with progress so a run can't burn the whole budget in
    /// its first percent and then exceed the cap on a longer input.
    fn paced(&self, events: u64) -> f64 {
        self.allowance * self.progress(events)
    }

    /// Epoch-boundary decision. `events` is the cumulative executed-op
    /// count, `spent` the cumulative extra (non-baseline) cycles, and
    /// `capacity_delta` the epoch's capacity aborts (drives the
    /// loop-cut escalation on demotion). Read the outcome from
    /// [`AdaptiveController::active`] and [`AdaptiveController::knobs`].
    pub fn on_epoch(&mut self, events: u64, spent: u64, capacity_delta: u64) {
        let spent = spent as f64;
        // Hard cap first: at or beyond the allowance nothing re-arms.
        // Warmup overspend demotes from always-on to duty-cycled
        // monitoring (warmup is always armed and never in a window).
        let demote = spent >= self.allowance
            || (self.warm && spent > self.paced(events).max(self.allowance * Self::GRACE));
        if demote {
            if self.active {
                self.escalate(capacity_delta);
            }
            self.warm = false;
            self.active = false;
            self.window_left = 0;
        } else if self.window_left > 0 {
            self.window_left -= 1;
            if self.window_left == 0 {
                self.active = false;
            }
        }
    }

    /// A slow-path access hit a watched (statically race-candidate)
    /// site while monitoring was idle. Opens a watch window iff the
    /// paced allowance has credit; returns true when the window opened
    /// (the engine must reset its shadow state before checking).
    ///
    /// The pacing check carries the same [`Self::GRACE`] margin warmup
    /// gets: demotion fires the first time `spent` crosses the paced
    /// curve, which leaves `spent ≈ paced + ε` — and the overshoot `ε`
    /// is largest right after a check spike, i.e. exactly when a race
    /// cluster is still in flight. Without the margin the reopen would
    /// sit out the rest of the cluster waiting for `paced` to outgrow
    /// the overshoot.
    pub fn on_watch_hit(&mut self, events: u64, spent: u64) -> bool {
        if self.active || self.warm {
            return false;
        }
        let spent = spent as f64;
        let margin = self.allowance * Self::GRACE;
        if spent >= self.allowance || spent >= self.paced(events) + margin {
            return false;
        }
        self.active = true;
        self.window_left = Self::WINDOW_EPOCHS;
        true
    }

    /// Knob escalation applied on demotion: quadruple `K` (tiny regions
    /// stop paying transaction management) and, when capacity aborts
    /// drove the epoch's spend, double the initial loop-cut threshold so
    /// newly-activated loops start closer to their stable cut point.
    fn escalate(&mut self, capacity_delta: u64) {
        if self.knobs.k_min_ops < Knobs::default().k_min_ops * 4 {
            self.knobs.k_min_ops = self.knobs.k_min_ops.saturating_mul(4).max(1);
        }
        if capacity_delta > 0 && self.knobs.loopcut_threshold < 64 {
            self.knobs.loopcut_threshold *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(budget: f64, baseline: u64, est: u64) -> AdaptiveController {
        AdaptiveController::new(ProductionMode { budget }, baseline, est, Knobs::default())
    }

    #[test]
    fn defaults_reproduce_paper_configuration() {
        let k = Knobs::default();
        assert_eq!(k.k_min_ops, 5);
        assert_eq!(k.sampling, None);
        assert_eq!(k.loopcut_threshold, 2);
        assert_eq!(k.prune, StaticPruneMode::Off);
    }

    #[test]
    fn warmup_stays_active_within_paced_allowance() {
        // budget 1.2 on 10_000 baseline cycles: allowance 2000.
        let mut c = ctl(1.2, 10_000, 1000);
        assert!(c.active());
        // 100/1000 events, 150 spent <= max(200 paced, 300 grace): stay.
        c.on_epoch(100, 150, 0);
        assert!(c.active());
        assert_eq!(*c.knobs(), Knobs::default(), "no escalation");
    }

    #[test]
    fn warmup_overspend_demotes_and_escalates() {
        let mut c = ctl(1.2, 10_000, 1000);
        // 100/1000 events but 900 spent > max(200, 300): demote.
        c.on_epoch(100, 900, 5);
        assert!(!c.active());
        assert_eq!(c.knobs().k_min_ops, 20, "K escalated x4");
        assert_eq!(c.knobs().loopcut_threshold, 4, "capacity-driven bump");
    }

    #[test]
    fn grace_floor_protects_early_epochs() {
        let mut c = ctl(1.2, 10_000, 100_000);
        // Tiny progress (paced ~ 2) but spend 250 < 300 grace: stay.
        c.on_epoch(100, 250, 0);
        assert!(c.active());
    }

    #[test]
    fn watch_hit_opens_window_and_expiry_closes_it() {
        let mut c = ctl(1.2, 10_000, 1000);
        c.on_epoch(100, 900, 0);
        assert!(!c.active(), "demoted");
        // Paced credit at 500 events is 1000 > 950 spent: window opens.
        assert!(c.on_watch_hit(500, 950));
        assert!(c.active());
        assert!(!c.on_watch_hit(500, 950), "already open: no re-grant");
        c.on_epoch(600, 1000, 0);
        assert!(c.active(), "still in the window");
        c.on_epoch(700, 1100, 0);
        assert!(!c.active(), "the window closed");
    }

    #[test]
    fn watch_hit_denied_without_paced_credit() {
        let mut c = ctl(1.2, 10_000, 1000);
        c.on_epoch(100, 900, 0);
        // Paced credit at 200 events is 400 < 900 spent: denied.
        assert!(!c.on_watch_hit(200, 900));
        assert!(!c.active());
    }

    #[test]
    fn hard_cap_forces_idle_forever() {
        let mut c = ctl(1.2, 10_000, 1000);
        c.on_epoch(999, 2000, 0);
        assert!(!c.active(), "demoted at the cap");
        assert_eq!(c.knobs().k_min_ops, 20);
        assert!(!c.on_watch_hit(1000, 2000), "no credit at the cap");
        c.on_epoch(1000, 2000, 0);
        assert!(!c.active(), "idle at the cap");
        assert_eq!(c.knobs().k_min_ops, 20, "an idle epoch escalates nothing");
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut c = ctl(1.3, 50_000, 5000);
            let mut trace = Vec::new();
            for e in 1..=50u64 {
                let spent = e * e * 7; // superlinear spend
                c.on_epoch(e * 100, spent, e % 3);
                trace.push((c.active(), *c.knobs()));
                if e % 7 == 0 {
                    c.on_watch_hit(e * 100, spent);
                    trace.push((c.active(), *c.knobs()));
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epoch_record_pruned_fraction() {
        let mut e = EpochRecord {
            index: 0,
            events: 64,
            active: true,
            sampling: 1.0,
            k_min_ops: 5,
            loopcut_threshold: 2,
            conflict_aborts: 0,
            capacity_aborts: 0,
            unknown_aborts: 0,
            checks: 30,
            elided_checks: 10,
            tsan_cycles: 0,
            htm_cycles: 0,
            baseline_cycles: 0,
            cum_overhead: 1.0,
        };
        assert!((e.pruned_fraction() - 0.25).abs() < 1e-12);
        e.checks = 0;
        e.elided_checks = 0;
        assert_eq!(e.pruned_fraction(), 0.0);
    }
}
