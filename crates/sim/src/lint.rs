//! Structural validation of IR programs.
//!
//! [`lint`] checks properties that [`crate::ir::ProgramBuilder`] cannot
//! enforce syntactically but that well-formed workloads should satisfy:
//! balanced lock/unlock pairing, joins only of threads that can actually
//! be spawned, agreeing barrier arrival counts, and no dead (zero-trip)
//! loops. Violations are warnings, not hard errors, at this layer — the
//! interpreter tolerates all of them — but the static race-freedom
//! analysis assumes lock discipline, so the detector façade refuses
//! programs that fail the lint.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{BarrierId, ChanId, LockId, LoopId, ThreadId};
use crate::ir::{Op, Program, Stmt};

/// One structural problem found in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintIssue {
    /// An `Unlock` executes while the lock's hold depth is zero.
    UnlockWithoutLock {
        /// The thread containing the unlock.
        thread: ThreadId,
        /// The lock being released.
        lock: LockId,
    },
    /// A thread's body ends with a lock still held.
    LockHeldAtExit {
        /// The exiting thread.
        thread: ThreadId,
        /// The lock left held.
        lock: LockId,
    },
    /// A loop body has a nonzero net lock-depth change, so the lock state
    /// differs between iterations.
    LoopChangesLockDepth {
        /// The thread containing the loop.
        thread: ThreadId,
        /// The offending loop.
        id: LoopId,
        /// The lock whose depth drifts.
        lock: LockId,
    },
    /// A `Join` targets a thread that does not start parked, so no
    /// `Spawn` can ever have started it.
    JoinOfNeverSpawned {
        /// The joining thread.
        thread: ThreadId,
        /// The join target.
        target: ThreadId,
    },
    /// Threads arriving at a barrier disagree on how many times they
    /// arrive, guaranteeing a stall once the counts diverge.
    BarrierArrivalMismatch {
        /// The barrier in question.
        barrier: BarrierId,
        /// Per-thread dynamic arrival counts (participants only).
        arrivals: Vec<(ThreadId, u64)>,
    },
    /// A channel's total dynamic send count differs from its total
    /// dynamic receive count: either a receiver starves (deadlock) or
    /// messages are left queued at exit (and senders stall once the
    /// surplus exceeds the capacity).
    ChanTrafficImbalance {
        /// The channel in question.
        chan: ChanId,
        /// Total dynamic sends across all threads (loop-weighted).
        sends: u64,
        /// Total dynamic receives across all threads (loop-weighted).
        recvs: u64,
    },
    /// A loop with zero trips: its body is dead code.
    ZeroTripLoop {
        /// The thread containing the loop.
        thread: ThreadId,
        /// The dead loop.
        id: LoopId,
    },
}

impl fmt::Display for LintIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintIssue::UnlockWithoutLock { thread, lock } => {
                write!(f, "{thread}: unlock of {lock} while not held")
            }
            LintIssue::LockHeldAtExit { thread, lock } => {
                write!(f, "{thread}: exits with {lock} still held")
            }
            LintIssue::LoopChangesLockDepth { thread, id, lock } => {
                write!(f, "{thread}: loop {id} changes net hold depth of {lock}")
            }
            LintIssue::JoinOfNeverSpawned { thread, target } => {
                write!(f, "{thread}: joins {target}, which is never spawned")
            }
            LintIssue::BarrierArrivalMismatch { barrier, arrivals } => {
                write!(f, "barrier {barrier}: arrival counts disagree (")?;
                for (i, (t, n)) in arrivals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}: {n}")?;
                }
                write!(f, ")")
            }
            LintIssue::ChanTrafficImbalance { chan, sends, recvs } => {
                write!(
                    f,
                    "channel {chan}: {sends} sends vs {recvs} receives (traffic imbalance)"
                )
            }
            LintIssue::ZeroTripLoop { thread, id } => {
                write!(f, "{thread}: loop {id} has zero trips (dead body)")
            }
        }
    }
}

/// Checks `p` for structural problems. Returns all issues found, in a
/// deterministic order (by thread, then program order; barrier issues
/// last).
pub fn lint(p: &Program) -> Vec<LintIssue> {
    let mut acc = Acc::default();
    for t in 0..p.thread_count() {
        let tid = ThreadId(t as u32);
        acc.depth.clear();
        acc.depth.resize(p.lock_count() as usize, 0);
        walk(p, tid, p.thread(tid), 1, &mut acc);
        for (l, &d) in acc.depth.iter().enumerate() {
            if d > 0 {
                acc.issues.push(LintIssue::LockHeldAtExit {
                    thread: tid,
                    lock: LockId(l as u32),
                });
            }
        }
    }
    let Acc {
        arrivals,
        traffic,
        mut issues,
        ..
    } = acc;
    for (barrier, counts) in arrivals {
        let mut it = counts.values();
        let first = it.next().copied().unwrap_or(0);
        if it.any(|&n| n != first) {
            issues.push(LintIssue::BarrierArrivalMismatch {
                barrier,
                arrivals: counts.into_iter().collect(),
            });
        }
    }
    for (chan, (sends, recvs)) in traffic {
        if sends != recvs {
            issues.push(LintIssue::ChanTrafficImbalance { chan, sends, recvs });
        }
    }
    issues
}

/// Program-wide accumulators shared by every per-thread walk, and the
/// walked thread's lock state.
#[derive(Default)]
struct Acc {
    /// Hold depth per lock, indexed by [`LockId`].
    depth: Vec<u64>,
    /// Hold depths on entry to each open loop, innermost last.
    saved: Vec<u64>,
    /// arrivals[barrier] -> thread -> dynamic count
    arrivals: BTreeMap<BarrierId, BTreeMap<ThreadId, u64>>,
    /// traffic[chan] = (total dynamic sends, total dynamic recvs)
    traffic: BTreeMap<ChanId, (u64, u64)>,
    issues: Vec<LintIssue>,
}

fn walk(p: &Program, tid: ThreadId, stmts: &[Stmt], multiplier: u64, acc: &mut Acc) {
    for s in stmts {
        match s {
            Stmt::Op { op, .. } => match op {
                Op::Lock(l) => acc.depth[l.index()] += 1,
                Op::Unlock(l) => {
                    let d = &mut acc.depth[l.index()];
                    if *d == 0 {
                        acc.issues.push(LintIssue::UnlockWithoutLock {
                            thread: tid,
                            lock: *l,
                        });
                    } else {
                        *d -= 1;
                    }
                }
                Op::Join(target) if !p.starts_parked(*target) => {
                    acc.issues.push(LintIssue::JoinOfNeverSpawned {
                        thread: tid,
                        target: *target,
                    });
                }
                Op::Barrier(b) => {
                    *acc.arrivals.entry(*b).or_default().entry(tid).or_insert(0) += multiplier;
                }
                Op::ChanSend(ch) => {
                    acc.traffic.entry(*ch).or_insert((0, 0)).0 += multiplier;
                }
                Op::ChanRecv(ch) => {
                    acc.traffic.entry(*ch).or_insert((0, 0)).1 += multiplier;
                }
                _ => {}
            },
            Stmt::Loop { id, trips, body } => {
                if *trips == 0 {
                    acc.issues.push(LintIssue::ZeroTripLoop {
                        thread: tid,
                        id: *id,
                    });
                    continue;
                }
                let mark = acc.saved.len();
                acc.saved.extend_from_slice(&acc.depth);
                walk(p, tid, body, multiplier * u64::from(*trips), acc);
                // Report each drifting lock once, and reset it to its
                // depth before the loop, so that an enclosing loop does
                // not report the same drift again and exit-held checks
                // reflect the first iteration only.
                for l in 0..acc.depth.len() {
                    let before = acc.saved[mark + l];
                    if acc.depth[l] != before {
                        acc.issues.push(LintIssue::LoopChangesLockDepth {
                            thread: tid,
                            id: *id,
                            lock: LockId(l as u32),
                        });
                        acc.depth[l] = before;
                    }
                }
                acc.saved.truncate(mark);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;

    #[test]
    fn clean_program_has_no_issues() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        b.thread(0)
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .join(ThreadId(1))
            .join(ThreadId(2));
        for t in 1..3 {
            b.thread(t).loop_n(4, |tb| {
                tb.lock(l).write(x, 1).unlock(l).barrier(bar);
            });
        }
        assert!(lint(&b.build()).is_empty());
    }

    #[test]
    fn flags_unlock_without_lock_and_held_at_exit() {
        let mut b = ProgramBuilder::new(2);
        let l = b.lock_id("l");
        let m = b.lock_id("m");
        b.thread(0)
            .unlock(l)
            .lock(m)
            .spawn(ThreadId(1))
            .join(ThreadId(1));
        b.thread(1).compute(1);
        let issues = lint(&b.build());
        assert!(issues.contains(&LintIssue::UnlockWithoutLock {
            thread: ThreadId(0),
            lock: l,
        }));
        assert!(issues.contains(&LintIssue::LockHeldAtExit {
            thread: ThreadId(0),
            lock: m,
        }));
    }

    #[test]
    fn flags_loop_with_net_lock_change_once() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(2, |tb| {
            tb.loop_n(3, |tb| {
                tb.lock(l).write(x, 1);
            });
        });
        b.thread(0).spawn(ThreadId(1)).join(ThreadId(1));
        b.thread(1).compute(1);
        let issues = lint(&b.build());
        let drift: Vec<_> = issues
            .iter()
            .filter(|i| matches!(i, LintIssue::LoopChangesLockDepth { .. }))
            .collect();
        assert_eq!(
            drift.len(),
            1,
            "inner loop reported exactly once: {issues:?}"
        );
        // The drifting lock is not reported as held at exit: only its
        // guaranteed (pre-loop) depth survives the loop.
        assert!(!issues
            .iter()
            .any(|i| matches!(i, LintIssue::LockHeldAtExit { .. })));
    }

    #[test]
    fn drift_of_a_lock_held_before_the_loop_is_reported_once() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l).loop_n(2, |tb| {
            tb.unlock(l).write(x, 1);
        });
        let issues = lint(&b.build());
        let drift = issues
            .iter()
            .filter(|i| matches!(i, LintIssue::LoopChangesLockDepth { .. }))
            .count();
        assert_eq!(drift, 1, "{issues:?}");
    }

    #[test]
    fn flags_join_of_never_spawned() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write(x, 1).join(ThreadId(1));
        b.thread(1).read(x);
        // Thread 1 does not start parked (it was never spawnable).
        let issues = lint(&b.build());
        assert!(issues.contains(&LintIssue::JoinOfNeverSpawned {
            thread: ThreadId(0),
            target: ThreadId(1),
        }));
    }

    #[test]
    fn flags_barrier_arrival_mismatch_with_loop_multiplicity() {
        let mut b = ProgramBuilder::new(3);
        let bar = b.barrier_id("bar");
        b.thread(0).spawn(ThreadId(1)).spawn(ThreadId(2));
        b.thread(1).loop_n(4, |tb| {
            tb.barrier(bar);
        });
        b.thread(2).loop_n(3, |tb| {
            tb.barrier(bar);
        });
        b.thread(0).join(ThreadId(1)).join(ThreadId(2));
        let issues = lint(&b.build());
        assert!(issues.iter().any(|i| matches!(
            i,
            LintIssue::BarrierArrivalMismatch { barrier, arrivals }
                if *barrier == bar && arrivals.len() == 2
        )));
    }

    #[test]
    fn flags_channel_traffic_imbalance_with_loop_multiplicity() {
        let mut b = ProgramBuilder::new(2);
        let ch = b.chan_id("ch", 8);
        b.thread(0).spawn(ThreadId(1)).loop_n(4, |tb| {
            tb.send(ch);
        });
        b.thread(1).loop_n(3, |tb| {
            tb.recv(ch);
        });
        b.thread(0).join(ThreadId(1));
        let issues = lint(&b.build());
        assert!(issues.contains(&LintIssue::ChanTrafficImbalance {
            chan: ch,
            sends: 4,
            recvs: 3,
        }));
    }

    #[test]
    fn balanced_channel_traffic_is_clean() {
        let mut b = ProgramBuilder::new(2);
        let ch = b.chan_id("ch", 2);
        b.thread(0).spawn(ThreadId(1)).loop_n(5, |tb| {
            tb.send(ch);
        });
        b.thread(1).loop_n(5, |tb| {
            tb.recv(ch);
        });
        b.thread(0).join(ThreadId(1));
        assert!(lint(&b.build()).is_empty());
    }

    #[test]
    fn flags_zero_trip_loop() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).loop_n(0, |tb| {
            tb.write(x, 1);
        });
        b.thread(0).spawn(ThreadId(1)).join(ThreadId(1));
        b.thread(1).read(x);
        let issues = lint(&b.build());
        assert!(issues
            .iter()
            .any(|i| matches!(i, LintIssue::ZeroTripLoop { .. })));
    }
}
