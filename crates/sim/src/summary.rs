//! Static per-site access summaries over the IR.
//!
//! [`summarize`] walks a [`Program`]'s statement trees once (no
//! execution) and produces one [`SiteAccess`] record per data-access site:
//! which thread issues it, whether it writes, the set of addresses it can
//! touch (its *footprint*), the locks provably held around every dynamic
//! occurrence, and the single-threaded-ness of its program phase.
//! Channel operations get no record: the flow-sensitive layer
//! (`txrace::sa::flow`) cuts its spans at every sync op, channels
//! included, without consulting the summary.
//!
//! This is the IR-visitor half of the static race-freedom analysis; the
//! classification rules that consume these records live in the `txrace`
//! crate (`txrace::sa`). Everything here is deliberately *conservative*:
//! when a property cannot be established from the statement tree alone
//! (for example, a loop body with a net lock-depth change), the summary
//! under-approximates — it claims fewer locks held and a wider footprint
//! never a narrower one — so downstream pruning stays sound.
//!
//! The walk is dense: lock depths live in a vector indexed by
//! [`LockId`], the held set is a [`LockSet`] bitset maintained
//! incrementally, and loop entry states are saved on one reusable stack,
//! so a record costs one footprint vector and no lock-set allocation
//! (for programs with at most 64 locks).

use std::collections::BTreeSet;

use crate::addr::Addr;
use crate::ids::{LockId, LockSet, SiteId, ThreadId};
use crate::ir::{Op, Program, Stmt};

/// Where an access sits relative to the main thread's spawn/join
/// structure. Accesses in a single-threaded phase are globally
/// happens-before-ordered with respect to every other access in the
/// program (via the spawn and join edges), so they can never race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// On the main thread, before the first `Spawn`, while every other
    /// thread is still parked (also: anywhere in a program that never
    /// spawns and whose other threads never run).
    PreSpawn,
    /// Potentially concurrent with another thread.
    Concurrent,
    /// On the main thread, after every spawned thread has provably been
    /// joined.
    PostJoin,
}

/// The static summary of one data-access site.
#[derive(Debug, Clone)]
pub struct SiteAccess {
    /// The site this record describes.
    pub site: SiteId,
    /// The thread whose body contains the site.
    pub thread: ThreadId,
    /// True for `Write`, `WriteArr`, and `Rmw`.
    pub writes: bool,
    /// True for `Rmw` (an atomic access; never checked by the detectors).
    pub atomic: bool,
    /// Every address a dynamic occurrence of this site can touch. Scalar
    /// accesses have a one-element footprint; indexed accesses cover
    /// `base + stride * i` for each iteration `i` of the innermost
    /// enclosing loop (mirroring the interpreter's addressing).
    pub addrs: Vec<Addr>,
    /// Locks held at *every* dynamic occurrence of this site.
    pub locks: LockSet,
    /// Single-threaded-phase classification.
    pub phase: Phase,
}

/// All access records of a program, in walk order: thread by thread in
/// thread order, each thread's in program order.
#[derive(Debug, Clone)]
pub struct ProgramSummary {
    accesses: Vec<SiteAccess>,
}

impl ProgramSummary {
    /// The records, one per data-access site that can execute. Sites
    /// inside zero-trip loops have no record (they are dead code).
    pub fn accesses(&self) -> &[SiteAccess] {
        &self.accesses
    }
}

/// Trip-weighted dynamic access counts per static site: `counts[s]` is
/// the number of times site `s`'s op executes in one run (loop trips
/// multiply; zero-trip loops contribute nothing). Only data-access sites
/// get non-zero counts — sync ops, computes, and syscalls stay zero —
/// so the vector sums to [`Program::dynamic_access_count`].
///
/// This is the weighting the prune-statistics report uses: a fraction of
/// *sites* pruned overstates pruning on loop-heavy programs where the
/// surviving sites are exactly the hot ones.
pub fn dynamic_site_counts(p: &Program) -> Vec<u64> {
    let mut counts = vec![0u64; p.site_count() as usize];
    p.visit_dynamic(&mut |site, op, n| {
        if op.is_data_access() {
            counts[site.index()] += n;
        }
    });
    counts
}

/// Builds the access summary of `p`.
pub fn summarize(p: &Program) -> ProgramSummary {
    let mut w = Walker {
        out: Vec::new(),
        depth: Vec::new(),
        held: LockSet::new(),
        saved: Vec::new(),
    };
    for t in 0..p.thread_count() {
        let tid = ThreadId(t as u32);
        w.depth.clear();
        w.depth.resize(p.lock_count() as usize, 0);
        w.held = LockSet::new();
        let stmts = p.thread(tid);
        if t == 0 {
            if let Some((pre_end, post_start)) = main_phase_split(p) {
                w.walk(tid, &stmts[..pre_end], None, Phase::PreSpawn);
                w.walk(tid, &stmts[pre_end..post_start], None, Phase::Concurrent);
                w.walk(tid, &stmts[post_start..], None, Phase::PostJoin);
                continue;
            }
        }
        w.walk(tid, stmts, None, Phase::Concurrent);
    }
    ProgramSummary { accesses: w.out }
}

/// If every non-main thread starts parked, splits the main thread's
/// top-level statements into `[..pre_end]` (single-threaded prologue),
/// `[pre_end..post_start]` (concurrent middle), and `[post_start..]`
/// (single-threaded epilogue), with `pre_end <= post_start`. Returns
/// `None` when other threads run from the start (no single-threaded
/// phase exists).
///
/// The prologue ends at the first top-level statement that contains a
/// `Spawn`. The epilogue begins only after the main thread has joined
/// *every* thread it could have spawned, a per-thread joined-set check
/// that counts only joins guaranteed to execute. A thread that is never
/// joined keeps the rest of main concurrent.
///
/// This is the one decision of where main is single-threaded: the
/// summary's [`Phase`]s and the instrumentation pass's elided prologue
/// and epilogue both come from it. A wrong answer would unsoundly prune
/// checks in the former and leave racing accesses unmonitored in the
/// latter.
pub fn main_phase_split(p: &Program) -> Option<(usize, usize)> {
    let spawned: BTreeSet<u32> = (1..p.thread_count() as u32)
        .filter(|&t| p.starts_parked(ThreadId(t)))
        .collect();
    if spawned.len() != p.thread_count() - 1 {
        return None;
    }
    let stmts = p.thread(ThreadId(0));
    let Some(pre_end) = stmts
        .iter()
        .position(|s| s.any_op(&|op| matches!(op, Op::Spawn(_))))
    else {
        // Main never spawns anyone and nobody else can run: the whole
        // program is single-threaded.
        return Some((stmts.len(), stmts.len()));
    };
    let mut joined: BTreeSet<u32> = BTreeSet::new();
    let mut post_start = stmts.len();
    for (i, s) in stmts.iter().enumerate() {
        collect_executed_joins(s, &mut joined);
        if i >= pre_end && joined.is_superset(&spawned) {
            // Everything *after* this statement is single-threaded.
            post_start = i + 1;
            break;
        }
    }
    Some((pre_end, post_start))
}

/// Collects `Join` targets that are guaranteed to execute (subtrees under
/// zero-trip loops never run and must not count).
fn collect_executed_joins(s: &Stmt, joined: &mut BTreeSet<u32>) {
    match s {
        Stmt::Op {
            op: Op::Join(u), ..
        } => {
            joined.insert(u.0);
        }
        Stmt::Op { .. } => {}
        Stmt::Loop { trips, body, .. } if *trips > 0 => {
            for s in body {
                collect_executed_joins(s, joined);
            }
        }
        Stmt::Loop { .. } => {}
    }
}

struct Walker {
    out: Vec<SiteAccess>,
    /// Current lock-hold depth per lock (re-entrant depth tracked).
    depth: Vec<u32>,
    /// The locks with a non-zero depth.
    held: LockSet,
    /// Lock depths on entry to each open loop, innermost last.
    saved: Vec<u32>,
}

impl Walker {
    fn walk(&mut self, t: ThreadId, stmts: &[Stmt], innermost_trips: Option<u32>, phase: Phase) {
        for s in stmts {
            match s {
                Stmt::Op { site, op } => self.op(t, *site, op, innermost_trips, phase),
                Stmt::Loop { trips, body, .. } => {
                    if *trips == 0 {
                        // Dead code: nothing inside ever executes, so it
                        // contributes no records (and no footprint for
                        // other sites to conflict with).
                        continue;
                    }
                    let mark = self.saved.len();
                    self.saved.extend_from_slice(&self.depth);
                    let start = self.out.len();
                    self.walk(t, body, Some(*trips), phase);
                    // A body with a net lock-depth change makes the lock
                    // state iteration-dependent; the single walk above saw
                    // only the first iteration's state. Be conservative:
                    // strip every drifting lock both from the records made
                    // inside the loop and from the state carried past it
                    // (claiming a lock is NOT held is always sound).
                    for l in 0..self.depth.len() {
                        if self.saved[mark + l] == self.depth[l] {
                            continue;
                        }
                        let l = LockId(l as u32);
                        for r in &mut self.out[start..] {
                            r.locks.remove(l);
                        }
                        self.depth[l.index()] = 0;
                        self.held.remove(l);
                    }
                    self.saved.truncate(mark);
                }
            }
        }
    }

    fn op(
        &mut self,
        t: ThreadId,
        site: SiteId,
        op: &Op,
        innermost_trips: Option<u32>,
        phase: Phase,
    ) {
        match op {
            Op::Lock(l) => {
                self.depth[l.index()] += 1;
                self.held.insert(*l);
            }
            Op::Unlock(l) => {
                // Unbalanced unlocks (flagged by the lint) saturate at
                // zero rather than corrupting the state.
                let d = &mut self.depth[l.index()];
                *d = d.saturating_sub(1);
                if *d == 0 {
                    self.held.remove(*l);
                }
            }
            op if op.is_data_access() => {
                let addrs = footprint(op, innermost_trips);
                let locks = self.held.clone();
                self.out.push(SiteAccess {
                    site,
                    thread: t,
                    writes: op.is_write_access(),
                    atomic: matches!(op, Op::Rmw(_, _)),
                    addrs,
                    locks,
                    phase,
                });
            }
            _ => {}
        }
    }
}

/// The addresses one site can touch, mirroring the interpreter: indexed
/// accesses use the innermost enclosing loop's iteration index (0 outside
/// any loop).
fn footprint(op: &Op, innermost_trips: Option<u32>) -> Vec<Addr> {
    match op {
        Op::Read(a) | Op::Write(a, _) | Op::Rmw(a, _) => vec![*a],
        Op::ReadArr { base, stride } | Op::WriteArr { base, stride, .. } => {
            let n = innermost_trips.unwrap_or(1).max(1);
            (0..u64::from(n)).map(|i| base.offset(stride * i)).collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;

    fn record<'a>(s: &'a ProgramSummary, p: &Program, label: &str) -> &'a SiteAccess {
        let site = p.site(label).expect("label exists");
        s.accesses()
            .iter()
            .find(|r| r.site == site)
            .expect("record exists")
    }

    #[test]
    fn scalar_footprint_and_kind() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0)
            .read_l(x, "r")
            .write_l(x, 1, "w")
            .rmw_l(x, 1, "a");
        b.thread(1).read(x);
        let p = b.build();
        let s = summarize(&p);
        let r = record(&s, &p, "r");
        assert!(!r.writes && !r.atomic && r.addrs == vec![x]);
        let w = record(&s, &p, "w");
        assert!(w.writes && !w.atomic);
        let a = record(&s, &p, "a");
        assert!(a.writes && a.atomic);
    }

    #[test]
    fn array_footprint_covers_innermost_loop() {
        let mut b = ProgramBuilder::new(2);
        let arr = b.array("arr", 16);
        b.thread(0).loop_n(3, |tb| {
            tb.loop_n(4, |tb| {
                tb.read_arr_l(arr, 8, "inner");
            });
            tb.write_arr_l(arr, 8, 1, "outer");
        });
        b.thread(1).read(arr);
        let p = b.build();
        let s = summarize(&p);
        // Innermost loop has 4 trips: footprint is 4 addresses.
        assert_eq!(record(&s, &p, "inner").addrs.len(), 4);
        // The outer access's innermost enclosing loop has 3 trips.
        assert_eq!(record(&s, &p, "outer").addrs.len(), 3);
        assert_eq!(record(&s, &p, "inner").addrs[2], arr.offset(16));
    }

    #[test]
    fn locks_tracked_through_balanced_loops() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l).loop_n(5, |tb| {
            tb.write_l(x, 1, "locked");
        });
        b.thread(0).unlock(l).read_l(x, "unlocked");
        b.thread(1).read(x);
        let p = b.build();
        let s = summarize(&p);
        assert!(record(&s, &p, "locked").locks.contains(l));
        assert!(record(&s, &p, "unlocked").locks.is_empty());
    }

    #[test]
    fn lock_drifting_loop_body_loses_credit() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        // The body net-acquires `l`: the state differs per iteration, so
        // neither the inner access nor anything after may claim it.
        b.thread(0).loop_n(3, |tb| {
            tb.lock(l).write_l(x, 1, "inside");
        });
        b.thread(0).read_l(x, "after");
        b.thread(1).read(x);
        let p = b.build();
        let s = summarize(&p);
        assert!(record(&s, &p, "inside").locks.is_empty());
        assert!(record(&s, &p, "after").locks.is_empty());
    }

    #[test]
    fn phases_split_around_spawn_and_join() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        b.thread(0)
            .write_l(x, 1, "pre")
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .read_l(x, "mid")
            .join(ThreadId(1))
            .read_l(x, "mid2")
            .join(ThreadId(2))
            .write_l(x, 2, "post");
        b.thread(1).read(x);
        b.thread(2).read(x);
        let p = b.build();
        let s = summarize(&p);
        assert_eq!(record(&s, &p, "pre").phase, Phase::PreSpawn);
        assert_eq!(record(&s, &p, "mid").phase, Phase::Concurrent);
        // Only one of the two spawned threads is joined yet.
        assert_eq!(record(&s, &p, "mid2").phase, Phase::Concurrent);
        assert_eq!(record(&s, &p, "post").phase, Phase::PostJoin);
    }

    #[test]
    fn unparked_siblings_suppress_phases() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "w");
        b.thread(1).read(x);
        let p = b.build();
        let s = summarize(&p);
        assert_eq!(record(&s, &p, "w").phase, Phase::Concurrent);
    }

    #[test]
    fn single_threaded_program_is_all_prespawn() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "w");
        let p = b.build();
        let s = summarize(&p);
        assert_eq!(record(&s, &p, "w").phase, Phase::PreSpawn);
    }

    #[test]
    fn dynamic_site_counts_are_trip_weighted_and_total_consistent() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).write_l(x, 1, "once").loop_n(3, |tb| {
            tb.read_l(x, "outer");
            tb.loop_n(4, |tb| {
                tb.write_l(x, 2, "inner");
            });
            tb.loop_n(0, |tb| {
                tb.write_l(x, 3, "dead");
            });
        });
        b.thread(1).lock(l).read(x).unlock(l);
        let p = b.build();
        let counts = dynamic_site_counts(&p);
        let at = |label: &str| counts[p.site(label).unwrap().index()];
        assert_eq!(at("once"), 1);
        assert_eq!(at("outer"), 3);
        assert_eq!(at("inner"), 12);
        assert_eq!(at("dead"), 0);
        // Sync sites count zero; the vector sums to the program's total
        // dynamic access count.
        assert_eq!(counts.iter().sum::<u64>(), p.dynamic_access_count());
    }

    #[test]
    fn zero_trip_loops_leave_no_records() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).loop_n(0, |tb| {
            tb.write_l(x, 1, "dead");
        });
        b.thread(1).read(x);
        let p = b.build();
        let s = summarize(&p);
        let site = p.site("dead").unwrap();
        assert!(s.accesses().iter().all(|r| r.site != site));
    }

    #[test]
    fn drift_strips_only_the_drifting_lock() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        let m = b.lock_id("m");
        b.thread(0).lock(m).loop_n(3, |tb| {
            tb.lock(l).write_l(x, 1, "inside");
        });
        b.thread(0).read_l(x, "after").unlock(m);
        b.thread(1).read(x);
        let p = b.build();
        let s = summarize(&p);
        for label in ["inside", "after"] {
            let locks: Vec<LockId> = record(&s, &p, label).locks.iter().collect();
            assert_eq!(locks, vec![m], "{label}");
        }
    }
}
