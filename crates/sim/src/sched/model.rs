//! Reference model of the three schedulers: their earlier `next` bodies,
//! which reduce draws with `%` (`gen_range`), keep a running pick count
//! for the fairness window, and branch on the counts to find the least-run
//! thread and its ties. The shipped schedulers must not be told apart
//! from it: a property test drives each side by side over random runnable
//! sets and configurations and compares every pick, every interrupt and
//! the generator state left behind.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    FairSched, InterruptKind, InterruptModel, RandomSched, RoundRobin, Scheduler, ThreadId,
};

fn model_interrupt(m: &InterruptModel, rng: &mut StdRng) -> Option<InterruptKind> {
    if m.context_switch_p > 0.0 {
        let x: f64 = rng.gen();
        if x < m.context_switch_p {
            return Some(InterruptKind::ContextSwitch);
        }
    }
    if m.transient_p > 0.0 {
        let x: f64 = rng.gen();
        if x < m.transient_p {
            return Some(InterruptKind::Transient);
        }
    }
    None
}

#[derive(Default)]
struct ModelRoundRobin {
    counter: usize,
}

impl Scheduler for ModelRoundRobin {
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        let t = runnable[self.counter % runnable.len()];
        self.counter += 1;
        t
    }
}

struct ModelRandom {
    rng: StdRng,
    interrupts: InterruptModel,
    stickiness: f64,
    current: Option<ThreadId>,
}

impl Scheduler for ModelRandom {
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        if let Some(cur) = self.current {
            if runnable.contains(&cur) && self.stickiness > 0.0 {
                let stay: f64 = self.rng.gen();
                if stay < self.stickiness {
                    return cur;
                }
            }
        }
        let t = runnable[self.rng.gen_range(0..runnable.len())];
        self.current = Some(t);
        t
    }

    fn interrupt(&mut self, _t: ThreadId) -> Option<InterruptKind> {
        model_interrupt(&self.interrupts, &mut self.rng)
    }
}

struct ModelFair {
    rng: StdRng,
    jitter: f64,
    slack: u64,
    burst_budget: u64,
    counts: Vec<u64>,
    current: Option<ThreadId>,
    picks: u64,
    interrupts: InterruptModel,
}

impl ModelFair {
    fn count_mut(&mut self, t: ThreadId) -> &mut u64 {
        if self.counts.len() <= t.index() {
            self.counts.resize(t.index() + 1, 0);
        }
        &mut self.counts[t.index()]
    }
}

impl Scheduler for ModelFair {
    fn next(&mut self, runnable: &[ThreadId]) -> ThreadId {
        self.picks += 1;
        // The fairness window: counts are forgotten every 2000 picks.
        if self.picks.is_multiple_of(2000) {
            self.counts.iter_mut().for_each(|c| *c = 0);
        }
        let pick = if self.jitter > 0.0 && self.rng.gen::<f64>() < self.jitter {
            runnable[self.rng.gen_range(0..runnable.len())]
        } else {
            let count_of = |counts: &[u64], t: ThreadId| {
                if counts.len() <= t.index() {
                    0
                } else {
                    counts[t.index()]
                }
            };
            let mut min = u64::MAX;
            let mut ties = 0usize;
            for &t in runnable {
                let c = count_of(&self.counts, t);
                if c < min {
                    min = c;
                    ties = 1;
                } else if c == min {
                    ties += 1;
                }
            }
            let stay = self.current.filter(|&c| {
                self.slack > 0
                    && runnable.contains(&c)
                    && count_of(&self.counts, c) <= min + self.burst_budget
            });
            match stay {
                Some(c) => c,
                None => {
                    if self.slack > 0 {
                        self.burst_budget = self.rng.gen_range(1..=self.slack);
                    }
                    let k = self.rng.gen_range(0..ties);
                    runnable
                        .iter()
                        .copied()
                        .filter(|&t| count_of(&self.counts, t) == min)
                        .nth(k)
                        .expect("k < tie count")
                }
            }
        };
        *self.count_mut(pick) += 1;
        self.current = Some(pick);
        pick
    }

    fn interrupt(&mut self, _t: ThreadId) -> Option<InterruptKind> {
        model_interrupt(&self.interrupts, &mut self.rng)
    }
}

/// A stretch of steps over one runnable set: the sorted, deduplicated
/// thread ids, the number of picks, and how often an interrupt is drawn
/// (every `k`-th step, as the interpreter draws one per executed op but
/// none for blocked or loop-control steps).
type Segment = (Vec<ThreadId>, usize, usize);

fn segments() -> impl Strategy<Value = Vec<Segment>> {
    let set = proptest::collection::vec(0u32..16, 1..=8).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(ThreadId).collect::<Vec<_>>()
    });
    proptest::collection::vec((set, 1usize..120, 1usize..4), 1..40)
}

const JITTERS: [f64; 3] = [0.0, 0.1, 1.0];
const SLACKS: [u64; 4] = [0, 1, 8, 140];
const STICKINESS: [f64; 3] = [0.0, 0.5, 0.95];

fn interrupts(on: bool) -> InterruptModel {
    if on {
        InterruptModel {
            context_switch_p: 0.05,
            transient_p: 0.02,
        }
    } else {
        InterruptModel::NONE
    }
}

/// Drives `new` and `model` through `segs`, failing at the first pick or
/// interrupt on which they differ.
fn drive(
    new: &mut impl Scheduler,
    model: &mut impl Scheduler,
    segs: &[Segment],
) -> Result<(), TestCaseError> {
    let mut step = 0usize;
    for (runnable, len, every) in segs {
        for _ in 0..*len {
            let t = model.next(runnable);
            prop_assert_eq!(new.next(runnable), t, "pick at step {}", step);
            if step.is_multiple_of(*every) {
                prop_assert_eq!(
                    new.interrupt(t),
                    model.interrupt(t),
                    "interrupt at step {}",
                    step
                );
            }
            step += 1;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fair_sched_matches_reference_model(
        seed in any::<u64>(),
        (j, s) in (0usize..3, 0usize..4),
        irq in proptest::bool::ANY,
        segs in segments(),
    ) {
        let mut new = FairSched::new(seed, JITTERS[j])
            .with_slack(SLACKS[s])
            .with_interrupts(interrupts(irq));
        let mut model = ModelFair {
            rng: StdRng::seed_from_u64(seed),
            jitter: JITTERS[j],
            slack: SLACKS[s],
            burst_budget: 0,
            counts: Vec::new(),
            current: None,
            picks: 0,
            interrupts: interrupts(irq),
        };
        drive(&mut new, &mut model, &segs)?;
        prop_assert_eq!(new.rng.next_u64(), model.rng.next_u64(), "generator state");
    }

    #[test]
    fn random_sched_matches_reference_model(
        seed in any::<u64>(),
        st in 0usize..3,
        irq in proptest::bool::ANY,
        segs in segments(),
    ) {
        let mut new = RandomSched::new(seed)
            .with_stickiness(STICKINESS[st])
            .with_interrupts(interrupts(irq));
        let mut model = ModelRandom {
            rng: StdRng::seed_from_u64(seed),
            interrupts: interrupts(irq),
            stickiness: STICKINESS[st],
            current: None,
        };
        drive(&mut new, &mut model, &segs)?;
        prop_assert_eq!(new.rng.next_u64(), model.rng.next_u64(), "generator state");
    }

    #[test]
    fn round_robin_matches_reference_model(segs in segments()) {
        let mut new = RoundRobin::new();
        let mut model = ModelRoundRobin::default();
        drive(&mut new, &mut model, &segs)?;
        prop_assert_eq!(new.counter, model.counter);
    }
}
