//! The deterministic cycle-accounting cost model.
//!
//! The paper reports wall-clock overheads on a Haswell testbed; this
//! reproduction replaces time with transparent cycle accounting so results
//! are exactly reproducible. Every IR operation has a base cost; detection
//! machinery (TSan checks, transaction begin/end, rollbacks, sync
//! tracking) adds documented extra costs attributed to the overhead
//! buckets of the paper's Figure 7.

use txrace_sim::{OpCensus, Program};

/// Per-operation cycle costs.
///
/// `tsan_check` is the cost of one FastTrack shadow-memory check; the
/// per-workload `shadow_factor` in [`crate::RunConfig`] scales it to model
/// shadow-memory cache behaviour (the paper's vips suffers ~1200x TSan
/// overhead where blackscholes sees 1.85x — a property of the workload's
/// memory access pattern, not of the algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// One shared-memory access.
    pub mem_access: u64,
    /// One cycle of `Compute` (multiplier).
    pub compute_unit: u64,
    /// Architectural cost of a synchronization op.
    pub sync_op: u64,
    /// Architectural cost of a system call.
    pub syscall: u64,
    /// `xbegin` plus the instrumented TxFail read.
    pub xbegin: u64,
    /// `xend` (commit).
    pub xend: u64,
    /// One software happens-before access check (TSan hook).
    pub tsan_check: u64,
    /// Happens-before tracking of one sync op (done on every path, §5).
    pub tsan_sync: u64,
    /// Fixed cost of one transactional rollback (register restore, cache
    /// refill, fallback-path dispatch).
    pub rollback_penalty: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            mem_access: 1,
            compute_unit: 1,
            sync_op: 12,
            syscall: 20,
            xbegin: 45,
            xend: 25,
            tsan_check: 38,
            tsan_sync: 35,
            rollback_penalty: 150,
        }
    }
}

impl CostModel {
    /// Total uninstrumented cycles of `p` (loop-weighted static sum):
    /// the "original execution time" denominator for overheads.
    /// Instrumentation markers are free here; their cost is charged by
    /// the engine as overhead.
    pub fn baseline_cycles(&self, p: &Program) -> u64 {
        self.baseline_cycles_of_census(&OpCensus::of(p))
    }

    /// Total uninstrumented cycles from an [`OpCensus`]: base costs are
    /// uniform within each census class, which is what lets a replayed
    /// analysis price a run without ever seeing the [`Program`].
    pub fn baseline_cycles_of_census(&self, c: &OpCensus) -> u64 {
        c.mem_accesses * self.mem_access
            + c.compute_units * self.compute_unit
            + c.sync_ops * self.sync_op
            + c.syscalls * self.syscall
    }

    /// The effective TSan check cost under a workload shadow factor.
    pub fn effective_tsan_check(&self, shadow_factor: f64) -> u64 {
        ((self.tsan_check as f64) * shadow_factor).round().max(1.0) as u64
    }
}

/// Cycle totals attributed to the categories of the paper's Figure 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Work the uninstrumented program would also do (done-once op costs).
    pub baseline: u64,
    /// Pure fast-path overhead: xbegin/xend, TxFail reads, fast-path sync
    /// tracking, and slow-only tiny-region checks.
    pub txn_mgmt: u64,
    /// Handling conflict aborts: wasted transactional work, rollbacks, and
    /// slow-path re-execution checks triggered by conflicts.
    pub conflict: u64,
    /// Handling capacity aborts (incl. hardware slot exhaustion).
    pub capacity: u64,
    /// Handling unknown/retry aborts.
    pub unknown: u64,
    /// Software check cost for always-on detectors (TSan baselines).
    pub checks: u64,
    /// Check cost *avoided* by the static race-freedom pruning analysis:
    /// every elided check records here what it would have cost. Not part
    /// of [`CycleBreakdown::total`] — the run never paid these cycles —
    /// so `total_unpruned == total_pruned + elided` for a
    /// schedule-identical pair of runs.
    pub elided: u64,
}

impl CycleBreakdown {
    /// Total instrumented cycles.
    pub fn total(&self) -> u64 {
        self.baseline + self.txn_mgmt + self.conflict + self.capacity + self.unknown + self.checks
    }

    /// Overhead factor relative to `baseline_cycles` (>= 1.0 when the
    /// instrumented run did at least the original work).
    pub fn overhead_vs(&self, baseline_cycles: u64) -> f64 {
        if baseline_cycles == 0 {
            return 1.0;
        }
        self.total() as f64 / baseline_cycles as f64
    }

    /// Extra (non-baseline) paid cycles: everything detection added on
    /// top of the work the uninstrumented program would also have done.
    /// This is what the adaptive controller's allowance is spent on.
    pub fn extra(&self) -> u64 {
        self.total() - self.baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::{Op, ProgramBuilder, SyscallKind, ThreadId};

    #[test]
    fn base_costs_follow_op_kind() {
        let c = CostModel::default();
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).read(x).compute(100).syscall(SyscallKind::Io);
        let p = b.build();
        assert_eq!(
            c.baseline_cycles(&p),
            c.mem_access + 100 * c.compute_unit + c.syscall
        );
    }

    fn hand_priced_program() -> Program {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0)
            .spawn(ThreadId(1))
            .loop_n(3, |t| {
                t.lock(l).write(x, 1).unlock(l).loop_n(4, |t| {
                    t.read(x).rmw(x, 1).compute(5);
                });
            })
            .syscall(SyscallKind::Io)
            .join(ThreadId(1));
        b.thread(1).read(x).compute(2);
        b.build()
    }

    #[test]
    fn census_pricing_equals_program_pricing() {
        let c = CostModel::default();
        let p = hand_priced_program();
        // Thread 0: spawn 12 + 3 * (lock 12 + write 1 + unlock 12
        // + 4 * (read 1 + rmw 1 + compute 5)) + syscall 20 + join 12;
        // thread 1: read 1 + compute 2.
        let expected = 12 + 3 * (25 + 4 * 7) + 20 + 12 + 3;
        assert_eq!(c.baseline_cycles(&p), expected);
        assert_eq!(c.baseline_cycles_of_census(&OpCensus::of(&p)), expected);
    }

    #[test]
    fn markers_are_free_in_baseline() {
        let c = CostModel::default();
        let p = hand_priced_program();
        // Instrumentation adds only markers, which are free.
        let ip = crate::instrument(&p, &crate::InstrumentConfig::default());
        let mut markers = 0;
        ip.program.visit_static(&mut |_, _, op| {
            markers += usize::from(matches!(
                op,
                Op::TxBegin(_) | Op::TxEnd(_) | Op::LoopCutProbe(_)
            ));
        });
        assert!(markers > 0);
        assert_eq!(c.baseline_cycles(&ip.program), c.baseline_cycles(&p));
    }

    #[test]
    fn loops_multiply_baseline() {
        let c = CostModel::default();
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(10, |t| {
            t.read(x);
        });
        let p = b.build();
        assert_eq!(c.baseline_cycles(&p), 10 * c.mem_access);
    }

    #[test]
    fn breakdown_totals_and_overhead() {
        let bd = CycleBreakdown {
            baseline: 100,
            txn_mgmt: 20,
            conflict: 30,
            capacity: 0,
            unknown: 0,
            checks: 0,
            elided: 40,
        };
        // Elided cycles were never paid: they do not count toward total.
        assert_eq!(bd.total(), 150);
        assert!((bd.overhead_vs(100) - 1.5).abs() < 1e-9);
        assert_eq!(bd.overhead_vs(0), 1.0);
        assert_eq!(bd.extra(), 50);
    }

    #[test]
    fn shadow_factor_scales_checks() {
        let c = CostModel::default();
        assert_eq!(c.effective_tsan_check(1.0), c.tsan_check);
        assert_eq!(c.effective_tsan_check(2.0), 2 * c.tsan_check);
        assert_eq!(c.effective_tsan_check(0.0), 1, "floor at one cycle");
    }
}
