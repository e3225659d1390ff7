//! Workload descriptors: the program, its run-configuration hints, and the
//! ground-truth race manifest.

use txrace::{CostModel, RunConfig, SchedKind, Scheme};
use txrace_hb::RacePair;
use txrace_sim::{InterruptModel, Op, Program};

/// How a planted race is expected to behave under the two detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Both accesses recur in hot, temporally-overlapping regions: TSan
    /// and TxRace both find it.
    Overlapping,
    /// The init idiom (paper §8.3): a structure is written while
    /// thread-local and read long after becoming shared — HB-racy, but the
    /// transactions never overlap, so TxRace misses it.
    InitIdiom,
    /// Touched in a narrow window whose alignment depends on the
    /// schedule; found by TxRace only on some seeds (vips, Figure 10).
    SchedulerSensitive,
}

/// A ground-truth race planted in a workload, identified by the labels of
/// its two sites.
#[derive(Debug, Clone)]
pub struct PlantedRace {
    /// Label of the first access site.
    pub a: String,
    /// Label of the second access site.
    pub b: String,
    /// Expected detection behaviour.
    pub kind: RaceKind,
}

impl PlantedRace {
    /// Builds a manifest entry.
    pub fn new(a: impl Into<String>, b: impl Into<String>, kind: RaceKind) -> Self {
        PlantedRace {
            a: a.into(),
            b: b.into(),
            kind,
        }
    }
}

/// One benchmark workload: the program plus everything a harness needs to
/// run and score it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper name of the application.
    pub name: &'static str,
    /// The synthetic program.
    pub program: Program,
    /// TSan shadow-cost factor, calibrated so the TSan baseline hits the
    /// paper's per-app overhead.
    pub shadow_factor: f64,
    /// OS interrupt injection rates (at the build's worker count).
    pub interrupts: InterruptModel,
    /// Scheduler policy (fair-with-jitter models parallel cores; random
    /// models heavy timeslicing).
    pub sched: SchedKind,
    /// Ground-truth planted races.
    pub planted: Vec<PlantedRace>,
    /// How far transaction counts were scaled down from the paper.
    pub scale: &'static str,
}

impl Workload {
    /// A run configuration for this workload under `scheme`.
    pub fn config(&self, scheme: Scheme, seed: u64) -> RunConfig {
        RunConfig::new(scheme, seed)
            .with_shadow_factor(self.shadow_factor)
            .with_interrupts(self.interrupts)
            .with_sched(self.sched)
    }

    /// Resolves the planted manifest to site pairs.
    ///
    /// # Panics
    ///
    /// Panics if a manifest label does not exist in the program (a
    /// workload construction bug).
    pub fn planted_pairs(&self) -> Vec<(RacePair, RaceKind)> {
        self.planted
            .iter()
            .map(|r| {
                let a = self
                    .program
                    .site(&r.a)
                    .unwrap_or_else(|| panic!("unknown label {:?}", r.a));
                let b = self
                    .program
                    .site(&r.b)
                    .unwrap_or_else(|| panic!("unknown label {:?}", r.b));
                (RacePair::new(a, b), r.kind)
            })
            .collect()
    }

    /// Planted races TxRace reliably finds (everything but the init idiom
    /// and the scheduler-sensitive tail).
    pub fn expected_txrace_reliable_races(&self) -> usize {
        self.planted
            .iter()
            .filter(|r| r.kind == RaceKind::Overlapping)
            .count()
    }
}

/// Solves for the shadow-cost factor that makes the full-TSan baseline hit
/// `target_overhead` on `p`:
///
/// `overhead = (base + checked_accesses*tsan_check*sf + syncs*tsan_sync) / base`
///
/// Atomic RMWs are not checked by TSan and are excluded. Returns at least
/// a small positive factor.
pub fn calibrate_shadow_factor(p: &Program, cost: &CostModel, target_overhead: f64) -> f64 {
    let base = cost.baseline_cycles(p) as f64;
    let checked = p.fold_dynamic(|op| {
        u64::from(matches!(
            op,
            Op::Read(_) | Op::Write(_, _) | Op::ReadArr { .. } | Op::WriteArr { .. }
        ))
    }) as f64;
    let syncs = p.fold_dynamic(|op| u64::from(op.is_sync())) as f64;
    if checked == 0.0 || base == 0.0 {
        return 1.0;
    }
    let extra_needed = (target_overhead - 1.0) * base - syncs * cost.tsan_sync as f64;
    (extra_needed / (checked * cost.tsan_check as f64)).max(0.01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace::{Detector, Scheme};
    use txrace_sim::ProgramBuilder;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).loop_n(200, |tb| {
                tb.read(x).compute(10);
            });
        }
        b.build()
    }

    #[test]
    fn calibration_hits_target_overhead() {
        let p = sample_program();
        let cost = CostModel::default();
        for target in [2.0, 10.0, 100.0] {
            let sf = calibrate_shadow_factor(&p, &cost, target);
            let cfg = RunConfig::new(Scheme::Tsan, 1).with_shadow_factor(sf);
            let out = Detector::new(cfg).run(&p);
            let rel = (out.overhead - target).abs() / target;
            assert!(rel < 0.1, "target {target}, got {} (sf {sf})", out.overhead);
        }
    }

    #[test]
    fn calibration_floors_below_one() {
        let p = sample_program();
        let sf = calibrate_shadow_factor(&p, &CostModel::default(), 0.5);
        assert!(sf > 0.0);
    }

    #[test]
    fn planted_manifest_resolves() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "wa");
        b.thread(1).read_l(x, "rb");
        let w = Workload {
            name: "t",
            program: b.build(),
            shadow_factor: 1.0,
            interrupts: InterruptModel::NONE,
            sched: SchedKind::Fair {
                jitter: 0.1,
                slack: 0,
            },
            planted: vec![PlantedRace::new("wa", "rb", RaceKind::Overlapping)],
            scale: "1:1",
        };
        let pairs = w.planted_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(w.planted.len(), 1);
        assert_eq!(w.expected_txrace_reliable_races(), 1);
    }
}
