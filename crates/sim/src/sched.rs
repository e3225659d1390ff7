//! Schedulers: who runs next, and when "the OS" interrupts a thread.
//!
//! Interrupt injection models the architectural events (context switches,
//! interrupts, exceptions) that abort best-effort RTM transactions with an
//! *unknown* status, and the rarer transient events whose abort status sets
//! only the RETRY bit. The paper observed unknown aborts growing sharply at
//! 8 threads (hyperthreading); workloads model that by raising the
//! context-switch probability with thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ids::ThreadId;

/// Why the simulated OS interrupted a thread mid-transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptKind {
    /// Context switch / interrupt / exception: aborts a transaction with no
    /// status bit set ("unknown" abort).
    ContextSwitch,
    /// A transient microarchitectural event: aborts with only the RETRY
    /// bit, meaning the transaction may succeed if retried.
    Transient,
}

/// Per-step interrupt probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptModel {
    /// Probability that a step is hit by a context switch.
    pub context_switch_p: f64,
    /// Probability that a step is hit by a transient event.
    pub transient_p: f64,
}

impl InterruptModel {
    /// No interrupts at all (an idealized machine).
    pub const NONE: InterruptModel = InterruptModel {
        context_switch_p: 0.0,
        transient_p: 0.0,
    };
}

impl Default for InterruptModel {
    fn default() -> Self {
        Self::NONE
    }
}

impl InterruptModel {
    /// Draws the interrupt hitting one step: one draw per non-zero
    /// probability, context switch first.
    #[inline]
    fn draw(&self, rng: &mut StdRng) -> Option<InterruptKind> {
        if self.context_switch_p > 0.0 && rng.gen::<f64>() < self.context_switch_p {
            return Some(InterruptKind::ContextSwitch);
        }
        if self.transient_p > 0.0 && rng.gen::<f64>() < self.transient_p {
            return Some(InterruptKind::Transient);
        }
        None
    }
}

/// `x % n` without a hardware division for the runnable-set sizes that
/// occur (`n <= 16`): each arm divides by a constant, which the compiler
/// lowers to a multiply and shift, and the value is exactly `x % n`. A
/// uniform pick from `n` threads is `reduce(rng.next_u64(), n)`, the same
/// index `rng.gen_range(0..n)` draws, so interleavings stay bit-identical.
#[inline(always)]
fn reduce(x: u64, n: usize) -> usize {
    macro_rules! by_constant {
        ($($k:literal)*) => {
            match n {
                1 => 0,
                $($k => x % $k,)*
                _ => x % n as u64,
            }
        };
    }
    by_constant!(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16) as usize
}

/// Chooses the next thread to run and injects interrupts.
///
/// Implementations must be deterministic given their construction
/// parameters: the whole reproduction depends on seedable interleavings.
pub trait Scheduler {
    /// Picks one of the currently runnable threads. `runnable` is never
    /// empty and is sorted by thread id.
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId;

    /// Returns an interrupt hitting thread `t` at this step, if any.
    fn interrupt(&mut self, t: ThreadId) -> Option<InterruptKind> {
        let _ = t;
        None
    }
}

/// Deterministic round-robin over runnable threads. No interrupts.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    counter: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    #[inline]
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        let t = runnable[reduce(self.counter as u64, runnable.len())];
        self.counter += 1;
        t
    }
}

/// Uniform-random scheduling from a seed, with optional interrupt
/// injection and optional *burst* mode.
///
/// Burst mode runs the chosen thread for a geometric number of consecutive
/// steps, which makes interleavings coarser: concurrent regions overlap in
/// longer stretches, the way real timeslices behave. Workloads use it to
/// control how often racy regions actually overlap (the knob behind the
/// paper's Figure 10 across-run variance).
#[derive(Debug, Clone)]
pub struct RandomSched {
    rng: StdRng,
    interrupts: InterruptModel,
    /// Probability of *keeping* the current thread each step (0 = uniform).
    stickiness: f64,
    current: Option<ThreadId>,
}

impl RandomSched {
    /// Creates a uniform random scheduler with no interrupts.
    pub fn new(seed: u64) -> Self {
        RandomSched {
            rng: StdRng::seed_from_u64(seed),
            interrupts: InterruptModel::NONE,
            stickiness: 0.0,
            current: None,
        }
    }

    /// Sets the interrupt model.
    pub fn with_interrupts(mut self, m: InterruptModel) -> Self {
        self.interrupts = m;
        self
    }

    /// Sets burst stickiness in `[0, 1)`: the probability of continuing to
    /// run the same thread on the next step.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_stickiness(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "stickiness must be in [0, 1)");
        self.stickiness = p;
        self
    }
}

impl Scheduler for RandomSched {
    #[inline]
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        if self.stickiness > 0.0 {
            if let Some(cur) = self.current.filter(|c| runnable.contains(c)) {
                // Consume randomness deterministically regardless of outcome.
                if self.rng.gen::<f64>() < self.stickiness {
                    return cur;
                }
            }
        }
        let t = runnable[reduce(self.rng.next_u64(), runnable.len())];
        self.current = Some(t);
        t
    }

    #[inline]
    fn interrupt(&mut self, _t: ThreadId) -> Option<InterruptKind> {
        self.interrupts.draw(&mut self.rng)
    }
}

/// A fair scheduler modelling truly parallel cores: every runnable thread
/// advances at (almost) the same rate, with a tunable fraction of
/// uniformly random picks.
///
/// On a real multicore, all threads execute simultaneously, so two
/// threads' positions in their instruction streams stay closely aligned —
/// unlike a uniformly random interleaving, whose relative drift grows
/// like √steps and makes temporally-adjacent code stop overlapping. Use
/// `jitter` near 0 for tight alignment (hot races overlap reliably) and
/// near 1 for schedule-sensitive behaviour.
#[derive(Debug, Clone)]
pub struct FairSched {
    rng: StdRng,
    jitter: f64,
    slack: u64,
    burst_budget: u64,
    /// Picks per thread since the last window reset; covers every thread
    /// id that has been runnable (an id never seen counts 0).
    counts: Vec<u64>,
    current: Option<ThreadId>,
    /// Picks left until the counts reset.
    until_reset: u64,
    interrupts: InterruptModel,
}

impl FairSched {
    /// The fairness window: counts are forgotten every `WINDOW` picks, so
    /// fairness is enforced *locally* without forcing threads to repay old
    /// imbalances (which would un-align threads that a barrier just
    /// re-aligned).
    const WINDOW: u64 = 2000;

    /// Creates a fair scheduler; `jitter` in `[0, 1]` is the probability
    /// of a uniformly random pick instead of the fairness pick.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not in `[0, 1]`.
    pub fn new(seed: u64, jitter: f64) -> Self {
        assert!((0.0..=1.0).contains(&jitter), "jitter must be in [0, 1]");
        FairSched {
            rng: StdRng::seed_from_u64(seed),
            jitter,
            slack: 0,
            burst_budget: 0,
            counts: Vec::new(),
            current: None,
            until_reset: Self::WINDOW,
            interrupts: InterruptModel::NONE,
        }
    }

    /// Sets the fairness slack: the scheduler keeps running one thread in
    /// a burst until it gets `slack` steps ahead of the least-run thread,
    /// then switches to the least-run one. Relative thread positions
    /// oscillate with amplitude ~`slack` and a pseudo-random phase — fast,
    /// bounded decorrelation, like OS timeslices on loaded cores. `0` is
    /// strict per-step fairness.
    pub fn with_slack(mut self, slack: u64) -> Self {
        self.slack = slack;
        self
    }

    /// Sets the interrupt model.
    pub fn with_interrupts(mut self, m: InterruptModel) -> Self {
        self.interrupts = m;
        self
    }
}

impl Scheduler for FairSched {
    #[inline]
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        // Forget the counts every `WINDOW` picks, counting down rather
        // than dividing a running pick count.
        self.until_reset -= 1;
        if self.until_reset == 0 {
            self.counts.fill(0);
            self.until_reset = Self::WINDOW;
        }
        // `runnable` is sorted, so its last id bounds every lookup below.
        let top = runnable[runnable.len() - 1].index();
        if self.counts.len() <= top {
            self.counts.resize(top + 1, 0);
        }
        let pick = if self.jitter > 0.0 && self.rng.gen::<f64>() < self.jitter {
            runnable[reduce(self.rng.next_u64(), runnable.len())]
        } else {
            let counts = &self.counts;
            let count = |t: &ThreadId| counts[t.index()];
            // Minimum and tie count in passes that select and add but do
            // not branch on the counts.
            let min = runnable
                .iter()
                .map(count)
                .min()
                .expect("runnable is never empty");
            let ties = runnable.iter().filter(|t| count(t) == min).count();
            // Burst mode: stay on the current thread until it is `slack`
            // ahead of the least-run thread; then (and with slack 0) run
            // the least-run thread, ties broken randomly.
            let stay = self.current.filter(|c| {
                self.slack > 0 && runnable.contains(c) && count(c) <= min + self.burst_budget
            });
            if let Some(c) = stay {
                c
            } else {
                // Each burst gets a fresh random length in [1, slack],
                // so relative thread positions oscillate with random
                // amplitude and phase (bounded by `slack`).
                if self.slack > 0 {
                    self.burst_budget = self.rng.gen_range(1..=self.slack);
                }
                // The k-th tie, selected without materializing the tie
                // list or branching on which threads tie.
                let k = reduce(self.rng.next_u64(), ties);
                let mut seen = 0;
                let mut pick = runnable[0];
                for &t in runnable {
                    let tie = counts[t.index()] == min;
                    pick = if tie & (seen == k) { t } else { pick };
                    seen += usize::from(tie);
                }
                pick
            }
        };
        self.counts[pick.index()] += 1;
        self.current = Some(pick);
        pick
    }

    #[inline]
    fn interrupt(&mut self, _t: ThreadId) -> Option<InterruptKind> {
        self.interrupts.draw(&mut self.rng)
    }
}

/// One of the three shipped schedulers as a concrete type, so a run is
/// dispatched with a `match` the optimizer sees through (every step takes
/// the same arm) instead of a call through a vtable.
#[derive(Debug, Clone)]
pub enum AnySched {
    /// [`RoundRobin`].
    RoundRobin(RoundRobin),
    /// [`RandomSched`].
    Random(RandomSched),
    /// [`FairSched`].
    Fair(FairSched),
}

impl Scheduler for AnySched {
    #[inline]
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        match self {
            AnySched::RoundRobin(s) => s.next(runnable),
            AnySched::Random(s) => s.next(runnable),
            AnySched::Fair(s) => s.next(runnable),
        }
    }

    #[inline]
    fn interrupt(&mut self, t: ThreadId) -> Option<InterruptKind> {
        match self {
            AnySched::RoundRobin(s) => s.interrupt(t),
            AnySched::Random(s) => s.interrupt(t),
            AnySched::Fair(s) => s.interrupt(t),
        }
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn tids(v: &[u32]) -> Vec<ThreadId> {
        v.iter().map(|&i| ThreadId(i)).collect()
    }

    #[test]
    fn reduce_is_exactly_the_remainder() {
        let mut rng = StdRng::seed_from_u64(1);
        let edges = [
            0,
            1,
            15,
            16,
            17,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let draws: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        for n in 1..=40usize {
            for &x in edges.iter().chain(&draws) {
                assert_eq!(reduce(x, n), (x % n as u64) as usize, "{x} % {n}");
            }
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = RoundRobin::new();
        let r = tids(&[0, 1, 2]);
        let picks: Vec<u32> = (0..6).map(|_| s.next(&r).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_sched_is_deterministic_per_seed() {
        let r = tids(&[0, 1, 2, 3]);
        let mut a = RandomSched::new(7);
        let mut b = RandomSched::new(7);
        for _ in 0..100 {
            assert_eq!(a.next(&r), b.next(&r));
        }
    }

    #[test]
    fn random_sched_differs_across_seeds() {
        let r = tids(&[0, 1, 2, 3]);
        let mut a = RandomSched::new(1);
        let mut b = RandomSched::new(2);
        let pa: Vec<u32> = (0..50).map(|_| a.next(&r).0).collect();
        let pb: Vec<u32> = (0..50).map(|_| b.next(&r).0).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn interrupts_fire_at_configured_rate() {
        let mut s = RandomSched::new(3).with_interrupts(InterruptModel {
            context_switch_p: 0.5,
            transient_p: 0.0,
        });
        let n = (0..10_000)
            .filter(|_| s.interrupt(ThreadId(0)) == Some(InterruptKind::ContextSwitch))
            .count();
        assert!((4_000..6_000).contains(&n), "rate off: {n}");
    }

    #[test]
    fn no_interrupts_by_default() {
        let mut s = RandomSched::new(3);
        assert!((0..1000).all(|_| s.interrupt(ThreadId(0)).is_none()));
    }

    #[test]
    fn stickiness_keeps_thread_mostly() {
        let r = tids(&[0, 1]);
        let mut s = RandomSched::new(11).with_stickiness(0.95);
        let mut prev = s.next(&r);
        let mut switches = 0;
        for _ in 0..1000 {
            let cur = s.next(&r);
            if cur != prev {
                switches += 1;
            }
            prev = cur;
        }
        // ~2.5% of steps should switch (5% leave-rate, half return to the
        // same thread); without stickiness it would be ~50%.
        assert!(switches < 100, "too many switches: {switches}");
    }

    #[test]
    #[should_panic(expected = "stickiness")]
    fn stickiness_validated() {
        let _ = RandomSched::new(0).with_stickiness(1.0);
    }

    #[test]
    fn fair_sched_keeps_threads_aligned() {
        let r = tids(&[0, 1, 2, 3]);
        let mut s = FairSched::new(5, 0.1);
        let mut counts = [0u64; 4];
        for _ in 0..4000 {
            counts[s.next(&r).0 as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max - min < 40, "drift too large: {counts:?}");
    }

    #[test]
    fn fair_sched_with_full_jitter_is_uniform_random() {
        let r = tids(&[0, 1]);
        let mut s = FairSched::new(5, 1.0);
        let picks: Vec<u32> = (0..100).map(|_| s.next(&r).0).collect();
        assert!(picks.contains(&0) && picks.contains(&1));
    }

    #[test]
    fn fair_sched_is_deterministic() {
        let r = tids(&[0, 1, 2]);
        let mut a = FairSched::new(9, 0.3);
        let mut b = FairSched::new(9, 0.3);
        for _ in 0..200 {
            assert_eq!(a.next(&r), b.next(&r));
        }
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn fair_sched_validates_jitter() {
        let _ = FairSched::new(0, 1.5);
    }
}
