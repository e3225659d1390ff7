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
use txrace_hb::{FastTrack, Lockset, LocksetReport, RaceSet, Shadow, ShadowMode, SyncClocks};
use txrace_sim::{
    Addr, AddrMap, BarrierId, CondId, LockId, SiteId, SyscallKind, ThreadId, TraceConsumer,
};

use crate::cost::{CostModel, CycleBreakdown};
use crate::parallel::PanelConsumer;
use crate::sa::SiteClassTable;

/// Event tallies a consumer accumulates on the hot path; the cycle
/// breakdown is derived from them on demand (`count * unit_cost` is the
/// same u64 as adding `unit_cost` per event, without the per-event
/// arithmetic).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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

impl EventTally {
    fn is_zero(&self) -> bool {
        *self == EventTally::default()
    }
}

/// What a [`TsanConsumer`] member reports as once the sweep is split.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// A TSan baseline, priced by its cost model.
    Tsan { cost: CostModel, eff_check: u64 },
    /// Raw FastTrack (no cost model), fused into a sweep.
    FastTrack,
}

/// One member of a [`TsanConsumer`]: its role and the shadow it reads
/// its checks and races from.
#[derive(Debug, Clone, Copy)]
struct Member {
    role: Role,
    shadow: usize,
}

/// A shadow and its sampling rate: an access whose draw `u` satisfies
/// `u < rate` is checked. A rate of 1.0 checks every access (every draw
/// is below it), and a rate of 0.0 none.
#[derive(Debug, Clone)]
struct Rated {
    rate: f64,
    shadow: Shadow,
}

/// The always-on software detector: FastTrack checks on every shared
/// access (the paper's "TSan" baseline), optionally sampling accesses at a
/// fixed rate (the paper's "TSan+Sampling" comparison).
///
/// One consumer runs one or more *members* over one sync pass: one
/// [`SyncClocks`], one address map, and one sampling draw per access,
/// shared by every member, with one [`Shadow`] per distinct rate and
/// shadow mode. A member's outcome does not depend on the others,
/// because sampling skips only access checks, never sync tracking.
/// [`TsanConsumer::new`] builds the standalone one-member consumer; a
/// fan-out pass fuses sweep members (see [`crate::PanelConsumer`]) and
/// splits them back into standalone consumers afterwards. The accessors
/// below describe the first member.
#[derive(Debug)]
pub struct TsanConsumer {
    sync: SyncClocks,
    /// Address → dense variable id, shared by every shadow.
    vars: AddrMap,
    /// Highest rate first, so the checks of one access stop at the first
    /// shadow its draw does not reach.
    shadows: Vec<Rated>,
    members: Vec<Member>,
    /// Drawn once per unpruned access when some shadow samples.
    sampler: Option<StdRng>,
    /// The sampler's seed.
    seed: u64,
    prune: Option<SiteClassTable>,
    tally: EventTally,
    /// Unpruned accesses: each member checked or skipped every one.
    accesses: u64,
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
    ///
    /// # Panics
    ///
    /// Panics if the sampling rate is NaN.
    pub fn new(
        threads: usize,
        cost: CostModel,
        shadow_factor: f64,
        shadow: ShadowMode,
        sampling: Option<f64>,
        seed: u64,
    ) -> Self {
        let rate = sampling.map_or(1.0, |rate| {
            assert!(
                !rate.is_nan(),
                "sampling rate {rate} is not a rate in [0, 1]"
            );
            rate.clamp(0.0, 1.0)
        });
        let role = Role::Tsan {
            eff_check: cost.effective_tsan_check(shadow_factor),
            cost,
        };
        Self::from_members(
            SyncClocks::new(threads),
            AddrMap::new(),
            vec![Rated {
                rate,
                shadow: Shadow::new(shadow),
            }],
            vec![Member { role, shadow: 0 }],
            seed,
        )
    }

    /// A consumer with fresh tallies over the given state; it samples
    /// when some shadow's rate is below 1.
    fn from_members(
        sync: SyncClocks,
        vars: AddrMap,
        shadows: Vec<Rated>,
        members: Vec<Member>,
        seed: u64,
    ) -> Self {
        let samples = shadows.iter().any(|s| s.rate < 1.0);
        TsanConsumer {
            sync,
            vars,
            shadows,
            members,
            sampler: samples.then(|| StdRng::seed_from_u64(seed)),
            seed,
            prune: None,
            tally: EventTally::default(),
            accesses: 0,
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

    fn lead(&self) -> &Shadow {
        &self.shadows[self.members[0].shadow].shadow
    }

    /// Races detected.
    pub fn races(&self) -> &RaceSet {
        self.lead().races()
    }

    /// The races detected, moved out of the consumer.
    pub fn into_races(mut self) -> RaceSet {
        let lead = self.members[0].shadow;
        self.shadows.swap_remove(lead).shadow.into_races()
    }

    /// Cycle breakdown (`baseline` + `checks`), derived from the event
    /// tallies. Equal, term for term, to what per-event accumulation
    /// would have produced.
    pub fn breakdown(&self) -> CycleBreakdown {
        let Role::Tsan { cost, eff_check } = self.members[0].role else {
            unreachable!("a consumer's first member is a TSan member")
        };
        let t = &self.tally;
        CycleBreakdown {
            baseline: t.mem * cost.mem_access
                + (t.sync + t.barrier_arrive) * cost.sync_op
                + t.compute_units * cost.compute_unit
                + t.syscalls * cost.syscall,
            checks: self.checked() * eff_check + (t.sync + t.barrier_released) * cost.tsan_sync,
            elided: self.elided * eff_check,
            ..CycleBreakdown::default()
        }
    }

    /// Accesses actually checked: every sampled access goes to the
    /// shadow, which counts it.
    pub fn checked(&self) -> u64 {
        self.lead().checks()
    }

    /// Accesses skipped by sampling.
    pub fn skipped(&self) -> u64 {
        self.accesses - self.checked()
    }

    /// Accesses elided by the static race-freedom analysis.
    pub fn elided(&self) -> u64 {
        self.elided
    }

    /// Counts an access, then checks it in every shadow its draw
    /// reaches, resolving its address once.
    #[inline]
    fn access<const WRITE: bool>(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.tally.mem += 1;
        if self.prune.as_ref().is_some_and(|p| p.is_race_free(site)) {
            self.elided += 1;
            return;
        }
        self.accesses += 1;
        let u = match &mut self.sampler {
            Some(rng) => rng.gen::<f64>(),
            None => 0.0,
        };
        let Some((top, rest)) = self.shadows.split_first_mut() else {
            unreachable!("a consumer has a shadow")
        };
        if u >= top.rate {
            return;
        }
        let var = self.vars.resolve(addr);
        check::<WRITE>(&mut top.shadow, &self.sync, var, t, site, addr);
        for s in rest.iter_mut().take_while(|s| u < s.rate) {
            check::<WRITE>(&mut s.shadow, &self.sync, var, t, site, addr);
        }
    }
}

/// One shadow's check of one access, kept out of line so that
/// [`TsanConsumer::access`] stays small where it is inlined.
#[inline(never)]
fn check<const WRITE: bool>(
    shadow: &mut Shadow,
    sync: &SyncClocks,
    var: u32,
    t: ThreadId,
    site: SiteId,
    addr: Addr,
) {
    if WRITE {
        shadow.write(sync, var, t, site, addr);
    } else {
        shadow.read(sync, var, t, site, addr);
    }
}

/// Where a fresh, unpruned sweep member can sit in a fused
/// [`TsanConsumer`]: members with equal `threads` share one sync pass,
/// provided every member that draws (`seed` set) draws from one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SweepSlot {
    pub threads: usize,
    /// Checks the accesses whose draw falls below it; 1.0 draws nothing.
    pub rate: f64,
    /// The sampler seed, for members that draw.
    pub seed: Option<u64>,
    pub mode: ShadowMode,
}

/// The slot of a panel member, or `None` when it cannot be fused: it is
/// neither TSan nor raw FastTrack, has consumed events already, prunes,
/// or is a fused sweep itself.
pub(crate) fn sweep_slot(member: &PanelConsumer) -> Option<SweepSlot> {
    match member {
        PanelConsumer::Tsan(c) => {
            let fresh = c.members.len() == 1
                && c.prune.is_none()
                && c.accesses == 0
                && c.elided == 0
                && c.tally.is_zero()
                && c.sync.sync_ops() == 0;
            fresh.then(|| SweepSlot {
                threads: c.sync.threads(),
                rate: c.shadows[0].rate,
                seed: c.sampler.is_some().then_some(c.seed),
                mode: c.shadows[0].shadow.mode(),
            })
        }
        PanelConsumer::FastTrack(f) => {
            let fresh = f.checks() == 0 && f.sync_ops() == 0;
            fresh.then(|| SweepSlot {
                threads: f.sync().threads(),
                rate: 1.0,
                seed: None,
                mode: f.shadow().mode(),
            })
        }
        PanelConsumer::Lockset(_) | PanelConsumer::VcRef(_) => None,
    }
}

impl TsanConsumer {
    /// Fuses fresh members into one consumer. Each inner list shares one
    /// shadow, so its members must have equal slots; all members must
    /// have slots with one thread count and at most one seed.
    /// [`TsanConsumer::unsweep`] returns the members in the order given.
    pub(crate) fn sweep(shadows: Vec<Vec<PanelConsumer>>) -> Self {
        let slots: Vec<Vec<SweepSlot>> = shadows
            .iter()
            .map(|ms| {
                ms.iter()
                    .map(|m| sweep_slot(m).expect("a fusable member"))
                    .collect()
            })
            .collect();
        let first = slots[0][0];
        let seed = slots.iter().flatten().find_map(|s| s.seed);
        for s in slots.iter().flatten() {
            assert_eq!(s.threads, first.threads, "one sweep, one thread count");
            assert!(s.seed.is_none() || s.seed == seed, "one sweep, one seed");
        }
        // Shadows highest rate first; members keep the order given.
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_by(|&a, &b| slots[b][0].rate.total_cmp(&slots[a][0].rate));
        let mut rank = vec![0; order.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let rated = order
            .iter()
            .map(|&i| Rated {
                rate: slots[i][0].rate,
                shadow: Shadow::new(slots[i][0].mode),
            })
            .collect();
        let members = shadows
            .into_iter()
            .enumerate()
            .flat_map(|(i, ms)| {
                let shadow = rank[i];
                ms.into_iter().map(move |m| Member {
                    role: match m {
                        PanelConsumer::Tsan(c) => c.members[0].role,
                        _ => Role::FastTrack,
                    },
                    shadow,
                })
            })
            .collect();
        Self::from_members(
            SyncClocks::new(first.threads),
            AddrMap::new(),
            rated,
            members,
            seed.unwrap_or(0),
        )
    }

    /// True for a consumer [`TsanConsumer::sweep`] built.
    pub(crate) fn is_sweep(&self) -> bool {
        self.members.len() > 1
    }

    /// The standalone members of a fused consumer, in the order
    /// [`TsanConsumer::sweep`] was given them: each equals the member
    /// replayed on its own — races, checks, skips, tallies and RNG state.
    pub(crate) fn unsweep(self) -> Vec<PanelConsumer> {
        let TsanConsumer {
            sync,
            vars,
            shadows,
            members,
            sampler,
            seed,
            tally,
            accesses,
            ..
        } = self;
        // Each part moves into its last user and is cloned for the others.
        let (mut sync, mut vars) = (Some(sync), Some(vars));
        let mut shadows: Vec<Option<Rated>> = shadows.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(members.len());
        for (k, m) in members.iter().enumerate() {
            let last = k + 1 == members.len();
            let last_sharer = members[k + 1..].iter().all(|o| o.shadow != m.shadow);
            let Rated { rate, shadow } = take_or_clone(&mut shadows[m.shadow], last_sharer);
            let (sync, vars) = (
                take_or_clone(&mut sync, last),
                take_or_clone(&mut vars, last),
            );
            out.push(match m.role {
                Role::FastTrack => {
                    PanelConsumer::FastTrack(FastTrack::from_parts(sync, vars, shadow))
                }
                role => PanelConsumer::Tsan(TsanConsumer {
                    sync,
                    vars,
                    shadows: vec![Rated { rate, shadow }],
                    members: vec![Member { role, shadow: 0 }],
                    sampler: sampler.clone().filter(|_| rate < 1.0),
                    seed,
                    prune: None,
                    tally,
                    accesses,
                    elided: 0,
                }),
            });
        }
        out
    }
}

/// The value in `slot`: moved out on its last use, cloned before.
fn take_or_clone<T: Clone>(slot: &mut Option<T>, last: bool) -> T {
    let value = if last { slot.take() } else { slot.clone() };
    value.expect("a part is not used after its last use")
}

impl TraceConsumer for TsanConsumer {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.access::<false>(t, site, addr);
    }

    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.access::<true>(t, site, addr);
    }

    fn rmw(&mut self, _t: ThreadId, _site: SiteId, _addr: Addr) {
        // Atomics are never data races under the C11 model; TSan does not
        // check them either.
        self.tally.mem += 1;
    }

    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.sync.acquire(t, site, l);
        self.tally.sync += 1;
    }

    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.sync.release(t, site, l);
        self.tally.sync += 1;
    }

    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.sync.signal(t, site, c);
        self.tally.sync += 1;
    }

    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.sync.wait(t, site, c);
        self.tally.sync += 1;
    }

    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.sync.spawn(t, site, child);
        self.tally.sync += 1;
    }

    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.sync.join(t, site, child);
        self.tally.sync += 1;
    }

    fn barrier_arrive(&mut self, _t: ThreadId, _site: SiteId, _b: BarrierId) {
        self.tally.barrier_arrive += 1;
    }

    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.sync.barrier_release(b, arrivals);
        self.tally.barrier_released += arrivals.len() as u64;
    }

    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: txrace_sim::ChanId) {
        self.sync.chan_send(t, site, ch);
        self.tally.sync += 1;
    }

    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: txrace_sim::ChanId) {
        self.sync.chan_recv(t, site, ch);
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
        assert!(rt.sampler.is_none(), "a rate of 1.0 draws nothing");
        rt.write(ThreadId(0), SiteId(1), Addr(0x400));
        assert_eq!(rt.checked(), 1);
        assert_eq!(rt.skipped(), 0);
    }

    #[test]
    #[should_panic(expected = "is not a rate in [0, 1]")]
    fn nan_sampling_rate_is_rejected() {
        let _ = TsanConsumer::new(
            2,
            CostModel::default(),
            1.0,
            ShadowMode::Exact,
            Some(f64::NAN),
            7,
        );
    }

    #[test]
    fn out_of_range_rates_clamp() {
        let mk = |rate| {
            TsanConsumer::new(
                2,
                CostModel::default(),
                1.0,
                ShadowMode::Exact,
                Some(rate),
                7,
            )
        };
        assert_eq!(mk(-0.5).shadows[0].rate, 0.0);
        assert_eq!(mk(f64::NEG_INFINITY).shadows[0].rate, 0.0);
        let high = mk(2.0);
        assert_eq!(high.shadows[0].rate, 1.0);
        assert!(high.sampler.is_none());
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
