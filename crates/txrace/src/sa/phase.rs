//! Phase-aware may-happen-in-parallel (MHP) analysis: proving that two
//! accesses on different threads can never overlap in time, because
//! barrier generations or fork-join structure order them.
//!
//! Two mechanisms, both conservative:
//!
//! * **Barrier arrival intervals.** For every data-access site and every
//!   barrier, the oracle computes the exact interval `[lo, hi]` of
//!   "arrivals at that barrier by the site's own thread before the site
//!   executes", over every dynamic occurrence of the site. The IR is
//!   branch-free, so per-iteration arrival deltas are deterministic and
//!   the interval is computed structurally — the first occurrence gives
//!   `lo`, and each enclosing `trips`-loop widens `hi` (and the running
//!   count) by `(trips - 1) * delta` — no fixpoint, no over-widening.
//! * **Fork-join spans.** When a thread spawns and joins workers at its
//!   top level, a worker joined before another is spawned is fully
//!   ordered against it, and a spawner-side access before a worker's
//!   spawn (or after its join) is ordered against that worker — even
//!   when the spawner's [`Phase`] is `Concurrent` because *other*
//!   workers are still live (staged pipelines).
//!
//! **Why barrier generations align.** A barrier's width is its syntactic
//! member count, an arriving thread blocks until the generation
//! releases, and a blocked thread cannot arrive again — so generation
//! `i` completes exactly when every member has made its `i`-th arrival.
//! Site `x` (thread `u`) is therefore ordered before site `y` (thread
//! `v`) by barrier `b` when:
//!
//! 1. `u` arrives at `b` again after `x` (`total_u > x.hi`), so `x`
//!    happens-before `u`'s arrival number `x.hi + 1`; and
//! 2. `y` runs after `v` returns from arrival number `y.lo > x.hi`,
//!    whose generation's release requires `u`'s arrival `x.hi + 1` —
//!    generations complete in order, so the release happens-after `x`
//!    and happens-before `y`.
//!
//! Both bounds quantify over *all* dynamic occurrences, so the claim
//! holds for every occurrence pair. Threads that provably never run
//! (parked, and spawned only from dead code) are excluded from arrival
//! counting and get no intervals; a dead barrier member merely makes
//! later generations unreachable, which leaves every claim about code
//! beyond them vacuously true.
//!
//! **Layout.** The intervals are two flat `sites × barriers` arrays (one
//! for `lo`, one for `hi`) plus a per-site presence flag, filled by one
//! structural walk per thread: `O(sites × barriers)` space and time, no
//! per-site allocation.

use std::collections::BTreeSet;

use txrace_sim::summary::Phase;
use txrace_sim::{Op, Program, SiteAccess, Stmt, ThreadId};

/// The may-happen-in-parallel oracle for one program.
#[derive(Debug)]
pub(super) struct MhpOracle {
    /// Per site index and barrier: the `[lo, hi]` arrival interval, at
    /// `site * barriers + barrier`; meaningful only where `has_interval`.
    intervals: Intervals,
    /// Per thread, per barrier: total arrivals across the whole run
    /// (zero rows for threads that never run).
    arrivals: Vec<Vec<u64>>,
    /// Per thread: `(spawner, top-level index)` of its `Spawn`, if the
    /// spawn sits at the spawner's top level and the thread starts
    /// parked (the precondition for the spawn happens-before edge).
    spawn_at: Vec<Option<(ThreadId, usize)>>,
    /// Per thread: `(joiner, top-level index)` of its `Join`, same
    /// top-level requirement.
    join_at: Vec<Option<(ThreadId, usize)>>,
    /// Per site index: `(thread, top-level statement index)` containing
    /// the site — every dynamic occurrence happens within that span.
    top_idx: Vec<Option<(ThreadId, usize)>>,
}

impl MhpOracle {
    /// Builds the oracle for `p`.
    pub fn build(p: &Program) -> Self {
        let nb = barrier_count(p);
        let nt = p.thread_count();
        let runs = running_threads(p);

        let mut intervals = Intervals::new(p.site_count() as usize, nb);
        let mut arrivals = vec![vec![0u64; nb]; nt];
        for (t, total) in arrivals.iter_mut().enumerate() {
            if !runs[t] {
                continue;
            }
            intervals.walk(p.thread(ThreadId(t as u32)), total, &mut Vec::new());
        }

        // Fork-join spans: top-level Spawn/Join positions per target.
        let mut spawn_at = vec![None; nt];
        let mut join_at = vec![None; nt];
        let mut top_idx = vec![None; p.site_count() as usize];
        for t in 0..nt {
            for (i, s) in p.thread(ThreadId(t as u32)).iter().enumerate() {
                index_top(s, ThreadId(t as u32), i, &mut top_idx);
                if let Stmt::Op { op, .. } = s {
                    match op {
                        Op::Spawn(u) if p.starts_parked(*u) => {
                            spawn_at[u.index()] = Some((ThreadId(t as u32), i));
                        }
                        Op::Join(u) => {
                            join_at[u.index()] = Some((ThreadId(t as u32), i));
                        }
                        _ => {}
                    }
                }
            }
        }

        MhpOracle {
            intervals,
            arrivals,
            spawn_at,
            join_at,
            top_idx,
        }
    }

    /// True iff every dynamic occurrence of `x` is ordered (by
    /// happens-before) against every occurrence of `y`, so the two can
    /// never execute in parallel. Trivially true for same-thread sites
    /// and for sites in a single-threaded phase.
    ///
    /// Only barrier and fork-join structure count as evidence. Channel
    /// send/recv does create happens-before edges at runtime, but which
    /// send pairs with which recv is schedule-dependent, so the oracle
    /// conservatively grants channels no ordering credit — channel-
    /// synchronized sites stay "may happen in parallel" here and rely on
    /// the dynamic detectors for their race-freedom.
    pub fn ordered(&self, x: &SiteAccess, y: &SiteAccess) -> bool {
        if x.thread == y.thread {
            return true;
        }
        if x.phase != Phase::Concurrent || y.phase != Phase::Concurrent {
            return true;
        }
        self.barrier_before(x, y)
            || self.barrier_before(y, x)
            || self.fork_join_before(x, y)
            || self.fork_join_before(y, x)
    }

    /// True iff some barrier proves every occurrence of `x` happens
    /// before every occurrence of `y` (see the module docs for the
    /// two-condition argument).
    fn barrier_before(&self, x: &SiteAccess, y: &SiteAccess) -> bool {
        let iv = &self.intervals;
        let (xs, ys) = (x.site.index(), y.site.index());
        if !iv.has_interval[xs] || !iv.has_interval[ys] {
            return false;
        }
        let (xhi, ylo) = (iv.hi(xs), iv.lo(ys));
        let xt = &self.arrivals[x.thread.index()];
        (0..xt.len()).any(|b| xt[b] > xhi[b] && ylo[b] > xhi[b])
    }

    /// True iff `x` is wholly before `y` by fork-join structure.
    fn fork_join_before(&self, x: &SiteAccess, y: &SiteAccess) -> bool {
        // Worker-to-worker: x's thread joined before y's thread spawned,
        // by the same parent thread.
        if let (Some((jt, ji)), Some((st, si))) = (
            self.join_at[x.thread.index()],
            self.spawn_at[y.thread.index()],
        ) {
            if jt == st && ji < si {
                return true;
            }
        }
        // Spawner-side access before the worker's spawn.
        if let (Some((xt, xi)), Some((st, si))) = (
            self.top_idx[x.site.index()],
            self.spawn_at[y.thread.index()],
        ) {
            if xt == st && xi < si {
                return true;
            }
        }
        // Worker access before the joiner's post-join access.
        if let (Some((jt, ji)), Some((yt, yi))) =
            (self.join_at[x.thread.index()], self.top_idx[y.site.index()])
        {
            if jt == yt && yi > ji {
                return true;
            }
        }
        false
    }
}

/// Number of distinct barriers referenced by `p`'s code (dense ids).
fn barrier_count(p: &Program) -> usize {
    let mut max = 0usize;
    p.visit_static(&mut |_, _, op| {
        if let Op::Barrier(b) = op {
            max = max.max(b.index() + 1);
        }
    });
    max
}

/// Threads that can actually execute: not parked, or (transitively)
/// spawned by a running thread from non-dead code.
fn running_threads(p: &Program) -> Vec<bool> {
    let nt = p.thread_count();
    let mut runs: Vec<bool> = (0..nt)
        .map(|t| !p.starts_parked(ThreadId(t as u32)))
        .collect();
    loop {
        let mut changed = false;
        for t in 0..nt {
            if !runs[t] {
                continue;
            }
            for u in spawns_in(p.thread(ThreadId(t as u32))) {
                if !runs[u.index()] {
                    runs[u.index()] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return runs;
        }
    }
}

fn spawns_in(stmts: &[Stmt]) -> BTreeSet<ThreadId> {
    fn walk(stmts: &[Stmt], out: &mut BTreeSet<ThreadId>) {
        for s in stmts {
            match s {
                Stmt::Op {
                    op: Op::Spawn(u), ..
                } => {
                    out.insert(*u);
                }
                Stmt::Op { .. } => {}
                Stmt::Loop { trips: 0, .. } => {}
                Stmt::Loop { body, .. } => walk(body, out),
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(stmts, &mut out);
    out
}

/// Flat per-site barrier arrival intervals.
#[derive(Debug)]
struct Intervals {
    /// Barrier count: the row width of `lo` and `hi`.
    barriers: usize,
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Per site: whether the walk recorded an interval for it (a
    /// data-access site of a running thread, outside dead code).
    has_interval: Vec<bool>,
}

impl Intervals {
    fn new(sites: usize, barriers: usize) -> Self {
        Intervals {
            barriers,
            lo: vec![0; sites * barriers],
            hi: vec![0; sites * barriers],
            has_interval: vec![false; sites],
        }
    }

    fn lo(&self, s: usize) -> &[u64] {
        &self.lo[s * self.barriers..(s + 1) * self.barriers]
    }

    fn hi(&self, s: usize) -> &[u64] {
        &self.hi[s * self.barriers..(s + 1) * self.barriers]
    }

    /// Structural arrival walk for one thread: `cnt[b]` is the running
    /// arrival count; data-access sites snapshot it as `[lo, hi]` (and
    /// are pushed on `recorded`), and each enclosing multi-trip loop
    /// widens `hi` (and advances `cnt`) by `(trips - 1) * delta`. On
    /// return, `cnt` holds the thread's totals.
    fn walk(&mut self, stmts: &[Stmt], cnt: &mut [u64], recorded: &mut Vec<usize>) {
        let nb = self.barriers;
        for s in stmts {
            match s {
                Stmt::Op { site, op } => {
                    if let Op::Barrier(b) = op {
                        cnt[b.index()] += 1;
                    } else if op.is_data_access() {
                        let si = site.index();
                        self.lo[si * nb..(si + 1) * nb].copy_from_slice(cnt);
                        self.hi[si * nb..(si + 1) * nb].copy_from_slice(cnt);
                        self.has_interval[si] = true;
                        recorded.push(si);
                    }
                }
                Stmt::Loop { trips: 0, .. } => {}
                Stmt::Loop { trips, body, .. } => {
                    let save = cnt.to_vec();
                    let mark = recorded.len();
                    self.walk(body, cnt, recorded);
                    let extra = u64::from(*trips) - 1;
                    if extra > 0 {
                        for b in 0..nb {
                            let delta = cnt[b] - save[b];
                            if delta == 0 {
                                continue;
                            }
                            for &si in &recorded[mark..] {
                                self.hi[si * nb + b] += extra * delta;
                            }
                            cnt[b] += extra * delta;
                        }
                    }
                }
            }
        }
    }
}

/// Records the top-level statement index for every site in `s`.
fn index_top(s: &Stmt, t: ThreadId, i: usize, top_idx: &mut [Option<(ThreadId, usize)>]) {
    match s {
        Stmt::Op { site, .. } => top_idx[site.index()] = Some((t, i)),
        Stmt::Loop { body, .. } => {
            for inner in body {
                index_top(inner, t, i, top_idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::{summarize, ProgramBuilder};

    fn oracle_and_records(p: &Program) -> (MhpOracle, Vec<SiteAccess>) {
        (MhpOracle::build(p), summarize(p).accesses().to_vec())
    }

    fn rec<'a>(p: &Program, rs: &'a [SiteAccess], label: &str) -> &'a SiteAccess {
        let s = p.site(label).expect("label exists");
        rs.iter().find(|r| r.site == s).expect("record exists")
    }

    #[test]
    fn barrier_separates_write_phase_from_read_phase() {
        // Both threads touch the SAME address on opposite sides of the
        // barrier: unordered without MHP, ordered with it.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        b.thread(0).write_l(x, 1, "before").barrier(bar);
        b.thread(1).barrier(bar).read_l(x, "after");
        let p = b.build();
        let (o, rs) = oracle_and_records(&p);
        assert!(o.ordered(rec(&p, &rs, "before"), rec(&p, &rs, "after")));
    }

    #[test]
    fn same_side_of_barrier_stays_unordered() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        b.thread(0).write_l(x, 1, "w0").barrier(bar);
        b.thread(1).write_l(x, 2, "w1").barrier(bar);
        let p = b.build();
        let (o, rs) = oracle_and_records(&p);
        assert!(!o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "w1")));
    }

    #[test]
    fn loop_carried_barrier_intervals_widen() {
        // Each thread: 3 iterations of { write; barrier }. The writes'
        // intervals are [0,2] in both threads: overlapping, unordered.
        // A post-loop read in thread 1 has interval [3,3]: ordered
        // against thread 0's in-loop writes (hi 2 < lo 3).
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let bar = b.barrier_id("bar");
        b.thread(0).loop_n(3, |tb| {
            tb.write_l(x, 1, "w0").barrier(bar);
        });
        b.thread(1).loop_n(3, |tb| {
            tb.write_l(y, 2, "w1").barrier(bar);
        });
        b.thread(1).read_l(x, "post");
        let p = b.build();
        let (o, rs) = oracle_and_records(&p);
        assert!(!o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "w1")));
        assert!(o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "post")));
    }

    #[test]
    fn no_arrival_after_the_access_gives_no_credit() {
        // Thread 0's write is after its LAST arrival (total 3, hi 3):
        // nothing orders it before anything, and thread 1's write (after
        // arrival 1 of 1) likewise has no post-access arrival. Neither
        // direction holds; the pair stays unordered.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        b.thread(0).loop_n(3, |tb| {
            tb.barrier(bar);
        });
        b.thread(0).write_l(x, 1, "w0");
        b.thread(1).barrier(bar).write_l(x, 2, "w1");
        let p = b.build();
        let (o, rs) = oracle_and_records(&p);
        assert!(!o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "w1")));
    }

    #[test]
    fn non_member_threads_get_no_barrier_credit() {
        // Barrier between threads 0 and 1; thread 2 never arrives, so
        // nothing orders it against anyone.
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        b.thread(0).write_l(x, 1, "w0").barrier(bar);
        b.thread(1).barrier(bar).read_l(x, "r1");
        b.thread(2).write_l(x, 9, "w2");
        let p = b.build();
        let (o, rs) = oracle_and_records(&p);
        assert!(o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "r1")));
        assert!(!o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "w2")));
        assert!(!o.ordered(rec(&p, &rs, "r1"), rec(&p, &rs, "w2")));
    }

    #[test]
    fn staged_workers_are_ordered_by_join_before_spawn() {
        // Pipeline: spawn w1, join w1, then spawn w2 — w1 and w2 touch
        // the same cell but can never overlap. The whole-program phase
        // analysis calls the main thread's middle section Concurrent
        // (some worker is always live), so only fork-join spans prove
        // the w1/w2 and main/worker orderings.
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        b.thread(0)
            .spawn(ThreadId(1))
            .join(ThreadId(1))
            .write_l(x, 5, "mid")
            .spawn(ThreadId(2))
            .join(ThreadId(2));
        b.thread(1).write_l(x, 1, "w1");
        b.thread(2).write_l(x, 2, "w2");
        let p = b.build();
        let (o, rs) = oracle_and_records(&p);
        assert!(o.ordered(rec(&p, &rs, "w1"), rec(&p, &rs, "w2")));
        assert!(o.ordered(rec(&p, &rs, "mid"), rec(&p, &rs, "w1")));
        assert!(o.ordered(rec(&p, &rs, "mid"), rec(&p, &rs, "w2")));
    }

    #[test]
    fn concurrent_workers_stay_unordered() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        b.thread(0)
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .write_l(x, 5, "mid")
            .join(ThreadId(1))
            .join(ThreadId(2));
        b.thread(1).write_l(x, 1, "w1");
        b.thread(2).write_l(x, 2, "w2");
        let p = b.build();
        let (o, rs) = oracle_and_records(&p);
        assert!(!o.ordered(rec(&p, &rs, "w1"), rec(&p, &rs, "w2")));
        assert!(!o.ordered(rec(&p, &rs, "mid"), rec(&p, &rs, "w1")));
    }

    #[test]
    fn dead_threads_are_excluded_from_arrival_counting() {
        // Thread 2 is parked (its Spawn sits in a zero-trip loop) and
        // never runs: it gets no intervals and its sites stay unordered
        // against everyone, while the live pair still resolves. (Its
        // syntactic barrier membership makes generation 1 unreachable at
        // runtime, so the live ordering claim is vacuously sound.)
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        b.thread(0).loop_n(0, |tb| {
            tb.spawn(ThreadId(2));
        });
        b.thread(0).write_l(x, 1, "w0").barrier(bar);
        b.thread(1).barrier(bar).read_l(x, "r1");
        b.thread(2).barrier(bar).write_l(x, 9, "w2");
        let p = b.build();
        assert!(p.starts_parked(ThreadId(2)));
        let (o, rs) = oracle_and_records(&p);
        assert!(o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "r1")));
        assert!(!o.ordered(rec(&p, &rs, "w0"), rec(&p, &rs, "w2")));
        assert!(!o.ordered(rec(&p, &rs, "r1"), rec(&p, &rs, "w2")));
    }
}
