//! Baseline detectors the paper compares TxRace against: full
//! ThreadSanitizer-style checking of every access, and the
//! sampling-based variant (Figures 11–13).
//!
//! Both are *pure trace consumers* ([`TraceConsumer`]): they observe the
//! event stream, never redirect execution, charge their own cycle
//! accounting per event, and forward each event to their detector
//! through the same trait. Run them live by wrapping in
//! [`txrace_sim::Live`], or replay them from a recorded
//! [`txrace_sim::EventLog`] — the two paths produce bit-identical race
//! sets, breakdowns, and sampling decisions (the sampling RNG draws once
//! per non-pruned access, in event order, on either path).
//!
//! [`TsanConsumer::new`] builds both TSan variants: a sampling rate of
//! `None` checks every access, `Some(rate)` samples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txrace_hb::{FastTrack, Lockset, LocksetReport, RaceSet, ShadowMode};
use txrace_sim::{Addr, BarrierId, CondId, LockId, SiteId, SyscallKind, ThreadId, TraceConsumer};

use crate::cost::{CostModel, CycleBreakdown};
use crate::sa::SiteClassTable;

/// Event tallies a consumer accumulates on the hot path; the cycle
/// breakdown is derived from them on demand (`count * unit_cost` is the
/// same u64 as adding `unit_cost` per event, without the per-event
/// arithmetic).
#[derive(Debug, Default, Clone, Copy)]
struct EventTally {
    /// Memory-access events (read + write + rmw).
    mem: u64,
    /// Sync ops whose happens-before tracking is charged.
    sync: u64,
    /// Barrier arrivals (architectural cost only).
    barrier_arrive: u64,
    /// Total threads released across all barrier releases.
    barrier_released: u64,
    /// Total `Compute` units.
    compute_units: u64,
    /// Syscall events.
    syscalls: u64,
}

/// The always-on software detector: FastTrack checks on every shared
/// access (the paper's "TSan" baseline), optionally sampling accesses at a
/// fixed rate (the paper's "TSan+Sampling" comparison).
#[derive(Debug)]
pub struct TsanConsumer {
    ft: FastTrack,
    cost: CostModel,
    eff_check: u64,
    tally: EventTally,
    sampler: Option<(f64, StdRng)>,
    prune: Option<SiteClassTable>,
    skipped: u64,
    elided: u64,
}

impl TsanConsumer {
    /// Builds a consumer for `threads` threads. `sampling` is the
    /// fraction of accesses checked: `None` checks every access;
    /// `Some(rate)` checks each access with probability `rate` (clamped
    /// to `[0, 1]`, drawn from an RNG seeded with `seed`), and a rate of
    /// `1.0` draws nothing and checks everything. The prune table, when
    /// the prune knob asks for one, is installed separately via
    /// [`TsanConsumer::with_prune`].
    pub fn new(
        threads: usize,
        cost: CostModel,
        shadow_factor: f64,
        shadow: ShadowMode,
        sampling: Option<f64>,
        seed: u64,
    ) -> Self {
        TsanConsumer {
            ft: FastTrack::new(threads, shadow),
            eff_check: cost.effective_tsan_check(shadow_factor),
            cost,
            tally: EventTally::default(),
            sampler: sampling
                .map(|rate| rate.clamp(0.0, 1.0))
                .filter(|&rate| rate < 1.0)
                .map(|rate| (rate, StdRng::seed_from_u64(seed))),
            prune: None,
            skipped: 0,
            elided: 0,
        }
    }

    /// Installs a static race-freedom table: accesses at sites the table
    /// proves race-free skip the shadow-memory check entirely (their
    /// would-be cost is recorded in [`CycleBreakdown::elided`]).
    pub fn with_prune(mut self, table: SiteClassTable) -> Self {
        self.prune = Some(table);
        self
    }

    /// Races detected.
    pub fn races(&self) -> &RaceSet {
        self.ft.races()
    }

    /// The races detected, moved out of the consumer.
    pub fn into_races(self) -> RaceSet {
        self.ft.into_races()
    }

    /// Cycle breakdown (`baseline` + `checks`), derived from the event
    /// tallies. Equal, term for term, to what per-event accumulation
    /// would have produced.
    pub fn breakdown(&self) -> CycleBreakdown {
        let t = &self.tally;
        CycleBreakdown {
            baseline: t.mem * self.cost.mem_access
                + (t.sync + t.barrier_arrive) * self.cost.sync_op
                + t.compute_units * self.cost.compute_unit
                + t.syscalls * self.cost.syscall,
            checks: self.ft.checks() * self.eff_check
                + (t.sync + t.barrier_released) * self.cost.tsan_sync,
            elided: self.elided * self.eff_check,
            ..CycleBreakdown::default()
        }
    }

    /// Accesses actually checked: every sampled access goes to FastTrack,
    /// which counts it.
    pub fn checked(&self) -> u64 {
        self.ft.checks()
    }

    /// Accesses skipped by sampling.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Accesses elided by the static race-freedom analysis.
    pub fn elided(&self) -> u64 {
        self.elided
    }

    /// True when the prune table elides the check at `site`.
    fn prune_elides(&mut self, site: SiteId) -> bool {
        if self.prune.as_ref().is_some_and(|t| t.is_race_free(site)) {
            self.elided += 1;
            true
        } else {
            false
        }
    }

    /// Decides whether this access is checked.
    fn sample(&mut self) -> bool {
        let take = match &mut self.sampler {
            None => true,
            Some((rate, rng)) => rng.gen::<f64>() < *rate,
        };
        if !take {
            self.skipped += 1;
        }
        take
    }

    #[cfg(test)]
    fn sample_for_test(&mut self) -> bool {
        self.sample()
    }
}

impl TraceConsumer for TsanConsumer {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.tally.mem += 1;
        if !self.prune_elides(site) && self.sample() {
            self.ft.read(t, site, addr);
        }
    }

    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.tally.mem += 1;
        if !self.prune_elides(site) && self.sample() {
            self.ft.write(t, site, addr);
        }
    }

    fn rmw(&mut self, _t: ThreadId, _site: SiteId, _addr: Addr) {
        // Atomics are never data races under the C11 model; TSan does not
        // check them either.
        self.tally.mem += 1;
    }

    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.ft.acquire(t, site, l);
        self.tally.sync += 1;
    }

    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.ft.release(t, site, l);
        self.tally.sync += 1;
    }

    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.ft.signal(t, site, c);
        self.tally.sync += 1;
    }

    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.ft.wait(t, site, c);
        self.tally.sync += 1;
    }

    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.ft.spawn(t, site, child);
        self.tally.sync += 1;
    }

    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.ft.join(t, site, child);
        self.tally.sync += 1;
    }

    fn barrier_arrive(&mut self, _t: ThreadId, _site: SiteId, _b: BarrierId) {
        self.tally.barrier_arrive += 1;
    }

    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.ft.barrier_release(b, arrivals);
        self.tally.barrier_released += arrivals.len() as u64;
    }

    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: txrace_sim::ChanId) {
        self.ft.chan_send(t, site, ch);
        self.tally.sync += 1;
    }

    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: txrace_sim::ChanId) {
        self.ft.chan_recv(t, site, ch);
        self.tally.sync += 1;
    }

    fn compute(&mut self, _t: ThreadId, _site: SiteId, units: u32) {
        self.tally.compute_units += u64::from(units);
    }

    fn syscall(&mut self, _t: ThreadId, _site: SiteId, _kind: SyscallKind) {
        self.tally.syscalls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::{Live, Machine, ProgramBuilder, RandomSched, RunStatus};

    #[test]
    fn full_tsan_finds_plain_race() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "w0");
        b.thread(1).write_l(x, 2, "w1");
        let p = b.build();
        let mut rt = Live::new(TsanConsumer::new(
            2,
            CostModel::default(),
            1.0,
            ShadowMode::Exact,
            None,
            0,
        ));
        let mut m = Machine::new(&p);
        let mut s = RandomSched::new(1);
        assert_eq!(m.run(&mut rt, &mut s).status, RunStatus::Done);
        let rt = rt.into_inner();
        assert_eq!(rt.races().distinct_count(), 1);
        assert_eq!(rt.checked(), 2);
        assert!(rt.breakdown().checks > 0);
    }

    #[test]
    fn zero_rate_sampling_checks_nothing() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write(x, 1);
        b.thread(1).write(x, 2);
        let p = b.build();
        let mut rt = Live::new(TsanConsumer::new(
            2,
            CostModel::default(),
            1.0,
            ShadowMode::Exact,
            Some(0.0),
            7,
        ));
        let mut m = Machine::new(&p);
        let mut s = RandomSched::new(1);
        m.run(&mut rt, &mut s);
        let rt = rt.into_inner();
        assert_eq!(rt.checked(), 0);
        assert_eq!(rt.skipped(), 2);
        assert!(rt.races().is_empty());
    }

    #[test]
    fn sampling_rate_is_roughly_respected() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(10_000, |t| {
            t.read(x);
        });
        let p = b.build();
        let mut rt = Live::new(TsanConsumer::new(
            1,
            CostModel::default(),
            1.0,
            ShadowMode::Exact,
            Some(0.3),
            9,
        ));
        let mut m = Machine::new(&p);
        let mut s = RandomSched::new(1);
        m.run(&mut rt, &mut s);
        let rt = rt.into_inner();
        let rate = rt.checked() as f64 / (rt.checked() + rt.skipped()) as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn full_rate_sampling_equals_full() {
        let mut rt = TsanConsumer::new(
            2,
            CostModel::default(),
            1.0,
            ShadowMode::Exact,
            Some(1.0),
            7,
        );
        assert!(rt.sample_for_test());
        assert_eq!(rt.skipped(), 0);
    }

    #[test]
    fn sync_tracking_prevents_false_positives_under_sampling() {
        // Sampling skips access checks but must never skip sync tracking.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let c = b.cond_id("c");
        b.thread(0).write(x, 1).signal(c);
        b.thread(1).wait(c).write(x, 2);
        let p = b.build();
        let mut rt = Live::new(TsanConsumer::new(
            2,
            CostModel::default(),
            1.0,
            ShadowMode::Exact,
            Some(0.99),
            3,
        ));
        let mut m = Machine::new(&p);
        let mut s = RandomSched::new(1);
        m.run(&mut rt, &mut s);
        assert!(
            rt.consumer().races().is_empty(),
            "ordered accesses misreported"
        );
    }

    #[test]
    fn prune_table_elides_race_free_checks_only() {
        use crate::sa::SiteClassTable;
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            let mine = b.var(&format!("mine{t}"));
            b.thread(t).write(x, t as u64).read(mine).read(mine);
        }
        let p = b.build();
        let table = SiteClassTable::analyze(&p);
        let mk = |prune: bool| {
            let rt = TsanConsumer::new(2, CostModel::default(), 1.0, ShadowMode::Exact, None, 0);
            if prune {
                rt.with_prune(table.clone())
            } else {
                rt
            }
        };
        let run = |c: TsanConsumer| {
            let mut rt = Live::new(c);
            let mut m = Machine::new(&p);
            let mut s = RandomSched::new(5);
            assert_eq!(m.run(&mut rt, &mut s).status, RunStatus::Done);
            rt.into_inner()
        };
        let off = run(mk(false));
        let on = run(mk(true));
        // Two racy writes checked, four private reads elided.
        assert_eq!(on.checked(), 2);
        assert_eq!(on.elided(), 4);
        assert_eq!(off.checked(), 6);
        assert_eq!(on.races().distinct_count(), off.races().distinct_count());
        assert_eq!(
            off.breakdown().total(),
            on.breakdown().total() + on.breakdown().elided
        );
    }
}

/// An always-on Eraser-style lockset detector (Savage et al. '97), the
/// classic pre-happens-before baseline the paper's related work contrasts
/// with: cheap bookkeeping, but *incomplete* — it cannot see non-mutex
/// synchronization (signal/wait, barriers, spawn/join, channel
/// send/recv), so it reports false positives on correctly ordered code.
#[derive(Debug)]
pub struct LocksetConsumer {
    ls: Lockset,
    cost: CostModel,
    tally: EventTally,
    /// Accesses that paid the lockset check (reads + writes).
    checked: u64,
}

impl LocksetConsumer {
    /// Creates a lockset consumer for `threads` threads.
    pub fn new(threads: usize, cost: CostModel) -> Self {
        LocksetConsumer {
            ls: Lockset::new(threads),
            cost,
            tally: EventTally::default(),
            checked: 0,
        }
    }

    /// Lockset violations reported (candidate set emptied while shared-
    /// modified). Some are true races; some are false positives.
    pub fn reports(&self) -> &[LocksetReport] {
        self.ls.reports()
    }

    /// Cycle breakdown (`baseline` + `checks`), derived from the event
    /// tallies exactly as per-event accumulation would have produced.
    ///
    /// Lockset checks are cheaper than vector-clock checks: a set
    /// intersection against the held set, modeled at half a TSan check.
    pub fn breakdown(&self) -> CycleBreakdown {
        let t = &self.tally;
        CycleBreakdown {
            baseline: t.mem * self.cost.mem_access
                + t.sync * self.cost.sync_op
                + t.compute_units * self.cost.compute_unit
                + t.syscalls * self.cost.syscall,
            checks: self.checked * (self.cost.tsan_check / 2),
            ..CycleBreakdown::default()
        }
    }
}

impl TraceConsumer for LocksetConsumer {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.ls.read(t, site, addr);
        self.tally.mem += 1;
        self.checked += 1;
    }

    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.ls.write(t, site, addr);
        self.tally.mem += 1;
        self.checked += 1;
    }

    fn rmw(&mut self, _t: ThreadId, _site: SiteId, _addr: Addr) {
        self.tally.mem += 1;
    }

    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.ls.acquire(t, site, l);
        self.tally.sync += 1;
    }

    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.ls.release(t, site, l);
        self.tally.sync += 1;
    }

    // Eraser is blind to every other synchronization primitive — that
    // blindness is its incompleteness — but their architectural cost is
    // still paid.
    fn signal(&mut self, _t: ThreadId, _site: SiteId, _c: CondId) {
        self.tally.sync += 1;
    }

    fn wait(&mut self, _t: ThreadId, _site: SiteId, _c: CondId) {
        self.tally.sync += 1;
    }

    fn spawn(&mut self, _t: ThreadId, _site: SiteId, _child: ThreadId) {
        self.tally.sync += 1;
    }

    fn join(&mut self, _t: ThreadId, _site: SiteId, _child: ThreadId) {
        self.tally.sync += 1;
    }

    fn barrier_arrive(&mut self, _t: ThreadId, _site: SiteId, _b: BarrierId) {
        self.tally.sync += 1;
    }

    fn chan_send(&mut self, _t: ThreadId, _site: SiteId, _ch: txrace_sim::ChanId) {
        self.tally.sync += 1;
    }

    fn chan_recv(&mut self, _t: ThreadId, _site: SiteId, _ch: txrace_sim::ChanId) {
        self.tally.sync += 1;
    }

    fn compute(&mut self, _t: ThreadId, _site: SiteId, units: u32) {
        self.tally.compute_units += u64::from(units);
    }

    fn syscall(&mut self, _t: ThreadId, _site: SiteId, _kind: SyscallKind) {
        self.tally.syscalls += 1;
    }
}

#[cfg(test)]
mod lockset_tests {
    use super::*;
    use txrace_sim::{Live, Machine, ProgramBuilder, RoundRobin, RunStatus};

    #[test]
    fn lockset_consumer_flags_unlocked_sharing() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write(x, 1);
        b.thread(1).write(x, 2);
        let p = b.build();
        let mut rt = Live::new(LocksetConsumer::new(2, CostModel::default()));
        let mut m = Machine::new(&p);
        let mut s = RoundRobin::new();
        assert_eq!(m.run(&mut rt, &mut s).status, RunStatus::Done);
        assert_eq!(rt.consumer().reports().len(), 1);
    }

    #[test]
    fn lockset_consumer_false_positive_on_signal_wait() {
        // Ordered by signal/wait: a HB detector stays silent, Eraser does
        // not — the incompleteness the paper's related work describes.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let c = b.cond_id("c");
        b.thread(0).write(x, 1).signal(c);
        b.thread(1).wait(c).write(x, 2);
        let p = b.build();
        let mut rt = Live::new(LocksetConsumer::new(2, CostModel::default()));
        let mut m = Machine::new(&p);
        let mut s = RoundRobin::new();
        assert_eq!(m.run(&mut rt, &mut s).status, RunStatus::Done);
        assert_eq!(
            rt.consumer().reports().len(),
            1,
            "expected the classic false positive"
        );
    }
}
