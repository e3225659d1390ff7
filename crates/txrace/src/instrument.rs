//! The transactionalization pass (paper §4.1, Figure 1).
//!
//! Walks the program IR exactly like the paper's LLVM pass walks LLVM IR:
//!
//! * inserts `TxBegin` at thread entry points and after synchronization
//!   operations; `TxEnd` at thread exits and before synchronization
//!   operations — so every synchronization-free region (including each
//!   critical section) becomes one transaction;
//! * cuts transactions around system calls (a privilege-level change
//!   always aborts an RTM transaction);
//! * marks regions with fewer than `K` memory operations as
//!   [`RegionKind::SlowOnly`] — for tiny regions the HTM management cost
//!   exceeds the software check cost (§4.3, `K = 5`);
//! * elides instrumentation entirely for the single-threaded prologue and
//!   epilogue of the main thread (§4.3): no concurrency, no races. Where
//!   they end is [`main_phase_split`]'s decision, the same one the static
//!   analysis's phases rest on;
//! * appends a [`Op::LoopCutProbe`] to every loop that stays inside a
//!   region, the hook for the loop-cut optimization (§4.3).
//!
//! Original site identities are preserved; marker instructions mint new
//! sites above the original range.

use txrace_sim::{main_phase_split, LoopId, Op, Program, RegionId, SiteId, Stmt, ThreadId};

use crate::sa::SiteClassTable;

/// Pass configuration: the `K` small-region threshold. Single-threaded
/// elision and loop-cut probes are always part of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentConfig {
    /// Regions with fewer dynamic memory ops than this go slow-path-only
    /// (the paper uses 5).
    pub k_min_ops: u64,
}

impl Default for InstrumentConfig {
    fn default() -> Self {
        InstrumentConfig { k_min_ops: 5 }
    }
}

impl InstrumentConfig {
    /// Derives the pass configuration from the unified control-plane
    /// knobs: the `K` small-region threshold is the only knob the pass
    /// consumes (sampling, loop-cut threshold, and pruning act at
    /// runtime). With default knobs this equals
    /// [`InstrumentConfig::default`].
    pub fn from_knobs(knobs: &crate::control::Knobs) -> Self {
        InstrumentConfig {
            k_min_ops: knobs.k_min_ops,
        }
    }
}

/// How the runtime should treat a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Run as a hardware transaction (the fast path).
    Fast,
    /// Too small to be worth a transaction: always software-checked.
    SlowOnly,
}

/// Static description of one transactional region.
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// Region identity (index into the region table).
    pub id: RegionId,
    /// Owning thread.
    pub thread: ThreadId,
    /// Fast or slow-only.
    pub kind: RegionKind,
    /// Dynamic shared-memory accesses in one execution of the region.
    pub mem_ops: u64,
    /// Dynamic accesses the slow path would actually check: `mem_ops`
    /// minus accesses at sites the static race-freedom analysis pruned.
    /// Equal to `mem_ops` when instrumenting without a prune table.
    pub checked_ops: u64,
    /// Loops contained in the region (loop-cut candidates), innermost
    /// loops included.
    pub loops: Vec<LoopId>,
}

/// The output of the pass: the instrumented program, its region table,
/// and the prune table the pass ran against.
#[derive(Debug, Clone)]
pub struct InstrumentedProgram {
    /// The program with `TxBegin`/`TxEnd`/`LoopCutProbe` markers inserted.
    pub program: Program,
    /// Region table indexed by [`RegionId`].
    pub regions: Vec<RegionInfo>,
    prune: Option<SiteClassTable>,
}

impl InstrumentedProgram {
    /// Looks up a region.
    pub fn region(&self, r: RegionId) -> &RegionInfo {
        &self.regions[r.index()]
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The prune table the pass ran against ([`instrument_pruned`]'s
    /// `prune`; `None` from [`instrument`]). The pass keeps every
    /// original site id and adds only marker sites, so the table also
    /// classifies `program`: analyzing `program` gives the same verdict
    /// and witness at every original site, and no marker is race-free.
    pub fn prune_table(&self) -> Option<&SiteClassTable> {
        self.prune.as_ref()
    }
}

/// Runs the transactionalization pass over `p`.
pub fn instrument(p: &Program, cfg: &InstrumentConfig) -> InstrumentedProgram {
    instrument_pruned(p, cfg, None)
}

/// Runs the transactionalization pass with an optional static prune
/// table ([`crate::StaticPruneMode::Full`]). Accesses at race-free sites
/// still execute, but no longer count toward region sizing: a region
/// whose checkable ops all prune away keeps no `TxBegin`/`TxEnd` markers
/// at all (the HTM never sees it), and the `K` small-region threshold is
/// applied to the *pruned* op count. With `prune = None` the output is
/// byte-identical to [`instrument`]. `prune` must classify `p`; the
/// output carries a copy ([`InstrumentedProgram::prune_table`]).
pub fn instrument_pruned(
    p: &Program,
    cfg: &InstrumentConfig,
    prune: Option<&SiteClassTable>,
) -> InstrumentedProgram {
    let mut pass = Pass {
        cfg,
        prune,
        next_site: p.site_count(),
        regions: Vec::new(),
    };
    let mut new_threads = Vec::with_capacity(p.thread_count());
    for t in 0..p.thread_count() {
        let tid = ThreadId(t as u32);
        new_threads.push(if t == 0 {
            pass.xform_main(p)
        } else {
            pass.xform_instrumented(tid, p.thread(tid))
        });
    }
    let program = p.with_transformed_threads(new_threads, pass.next_site);
    InstrumentedProgram {
        program,
        regions: pass.regions,
        prune: prune.cloned(),
    }
}

/// A region boundary: transactions end before and begin after these.
/// Channel send/recv is `is_sync()`, so message-passing ops cut
/// transactions exactly like syscalls do — a blocking channel op inside
/// a hardware transaction would either deadlock (the wakeup write is
/// isolated) or abort on the partner's conflicting queue access, so the
/// region is split instead and the op runs untracked like other sync.
fn is_boundary(op: &Op) -> bool {
    op.is_sync() || matches!(op, Op::Syscall(_))
}

/// Removes `LoopCutProbe` markers from a statement tree (used when a
/// buffered region turns out to be unmonitored).
fn strip_probes(s: Stmt) -> Option<Stmt> {
    match s {
        Stmt::Op {
            op: Op::LoopCutProbe(_),
            ..
        } => None,
        Stmt::Op { .. } => Some(s),
        Stmt::Loop { id, trips, body } => Some(Stmt::Loop {
            id,
            trips,
            body: body.into_iter().filter_map(strip_probes).collect(),
        }),
    }
}

#[derive(Default)]
struct RegionBuf {
    stmts: Vec<Stmt>,
    mem_ops: u64,
    checked_ops: u64,
    loops: Vec<LoopId>,
}

struct Pass<'c> {
    cfg: &'c InstrumentConfig,
    prune: Option<&'c SiteClassTable>,
    next_site: u32,
    regions: Vec<RegionInfo>,
}

impl Pass<'_> {
    fn fresh_site(&mut self) -> SiteId {
        let s = SiteId(self.next_site);
        self.next_site += 1;
        s
    }

    /// Whether the slow path would check an access at `site` (1) or the
    /// prune table proves it race-free (0).
    fn checked(&self, site: SiteId) -> u64 {
        match self.prune {
            Some(t) if t.is_race_free(site) => 0,
            _ => 1,
        }
    }

    /// Main thread: uninstrumented single-threaded prologue and epilogue
    /// (as [`main_phase_split`] decides them) around the instrumented
    /// concurrent middle.
    fn xform_main(&mut self, p: &Program) -> Vec<Stmt> {
        let stmts = p.thread(ThreadId(0));
        let Some((pre_end, post_start)) = main_phase_split(p) else {
            // Concurrency from the start: no single-threaded mode.
            return self.xform_instrumented(ThreadId(0), stmts);
        };
        let mut out = stmts[..pre_end].to_vec();
        out.extend(self.xform_instrumented(ThreadId(0), &stmts[pre_end..post_start]));
        out.extend_from_slice(&stmts[post_start..]);
        out
    }

    fn xform_instrumented(&mut self, t: ThreadId, stmts: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut buf: Option<RegionBuf> = None;
        self.seq(t, stmts, &mut out, &mut buf);
        self.close(t, &mut out, &mut buf);
        out
    }

    fn seq(
        &mut self,
        t: ThreadId,
        stmts: &[Stmt],
        out: &mut Vec<Stmt>,
        buf: &mut Option<RegionBuf>,
    ) {
        for s in stmts {
            match s {
                Stmt::Op { op, .. } if is_boundary(op) => {
                    self.close(t, out, buf);
                    out.push(s.clone());
                }
                Stmt::Op { site, op } => {
                    let checked = self.checked(*site);
                    let b = buf.get_or_insert_with(RegionBuf::default);
                    if op.is_data_access() {
                        b.mem_ops += 1;
                        b.checked_ops += checked;
                    }
                    b.stmts.push(s.clone());
                }
                Stmt::Loop { id, trips, body } => {
                    if body.iter().any(|s| s.any_op(&is_boundary)) {
                        // The loop body has its own region structure, one
                        // set of transactions per iteration.
                        self.close(t, out, buf);
                        let mut inner_out = Vec::new();
                        let mut inner_buf = None;
                        self.seq(t, body, &mut inner_out, &mut inner_buf);
                        self.close(t, &mut inner_out, &mut inner_buf);
                        out.push(Stmt::Loop {
                            id: *id,
                            trips: *trips,
                            body: inner_out,
                        });
                    } else {
                        let (new_loop, ops, checked, mut loops) = self.pure_loop(*id, *trips, body);
                        let b = buf.get_or_insert_with(RegionBuf::default);
                        b.mem_ops += ops;
                        b.checked_ops += checked;
                        b.loops.append(&mut loops);
                        b.stmts.push(new_loop);
                    }
                }
            }
        }
    }

    /// Instruments a boundary-free loop: adds probes (recursively) and
    /// returns `(loop, dynamic_mem_ops, dynamic_checked_ops,
    /// contained_loop_ids)`.
    fn pure_loop(
        &mut self,
        id: LoopId,
        trips: u32,
        body: &[Stmt],
    ) -> (Stmt, u64, u64, Vec<LoopId>) {
        let mut new_body = Vec::with_capacity(body.len() + 1);
        let mut ops_per_iter = 0u64;
        let mut checked_per_iter = 0u64;
        let mut loops = vec![id];
        for s in body {
            match s {
                Stmt::Op { site, op } => {
                    debug_assert!(!is_boundary(op), "pure loop contains a boundary");
                    if op.is_data_access() {
                        ops_per_iter += 1;
                        checked_per_iter += self.checked(*site);
                    }
                    new_body.push(s.clone());
                }
                Stmt::Loop {
                    id: nid,
                    trips: ntrips,
                    body: nbody,
                } => {
                    let (nl, nops, nchecked, mut nloops) = self.pure_loop(*nid, *ntrips, nbody);
                    ops_per_iter += nops;
                    checked_per_iter += nchecked;
                    loops.append(&mut nloops);
                    new_body.push(nl);
                }
            }
        }
        new_body.push(Stmt::Op {
            site: self.fresh_site(),
            op: Op::LoopCutProbe(id),
        });
        (
            Stmt::Loop {
                id,
                trips,
                body: new_body,
            },
            u64::from(trips) * ops_per_iter,
            u64::from(trips) * checked_per_iter,
            loops,
        )
    }

    fn close(&mut self, t: ThreadId, out: &mut Vec<Stmt>, buf: &mut Option<RegionBuf>) {
        let Some(b) = buf.take() else {
            return;
        };
        if b.stmts.is_empty() {
            return;
        }
        if b.checked_ops == 0 {
            // Nothing a race detector cares about (no accesses at all, or
            // every access proved race-free by the prune table): leave
            // unmonitored — after stripping any loop-cut probes, which are
            // meaningless (and would be orphaned) outside a region.
            out.extend(b.stmts.into_iter().filter_map(strip_probes));
            return;
        }
        // The K threshold compares against the ops the slow path would
        // actually check: a region of 20 accesses of which 18 prune away
        // is a tiny region, not a transaction candidate.
        let kind = if b.checked_ops < self.cfg.k_min_ops {
            RegionKind::SlowOnly
        } else {
            RegionKind::Fast
        };
        let rid = RegionId(self.regions.len() as u32);
        self.regions.push(RegionInfo {
            id: rid,
            thread: t,
            kind,
            mem_ops: b.mem_ops,
            checked_ops: b.checked_ops,
            loops: b.loops,
        });
        out.push(Stmt::Op {
            site: self.fresh_site(),
            op: Op::TxBegin(rid),
        });
        out.extend(b.stmts);
        out.push(Stmt::Op {
            site: self.fresh_site(),
            op: Op::TxEnd(rid),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::{DirectRuntime, Machine, ProgramBuilder, RoundRobin, RunStatus, SyscallKind};

    fn ops_of(stmts: &[Stmt]) -> Vec<Op> {
        let mut v = Vec::new();
        fn walk(stmts: &[Stmt], v: &mut Vec<Op>) {
            for s in stmts {
                match s {
                    Stmt::Op { op, .. } => v.push(*op),
                    Stmt::Loop { body, .. } => walk(body, v),
                }
            }
        }
        walk(stmts, &mut v);
        v
    }

    /// Checks marker balance: within each thread, TxBegin/TxEnd alternate
    /// properly and never nest, including across loop iterations.
    fn assert_balanced(ip: &InstrumentedProgram) {
        for t in 0..ip.program.thread_count() {
            let mut open: Option<RegionId> = None;
            fn walk(stmts: &[Stmt], open: &mut Option<RegionId>) {
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
                        Stmt::Op { op, .. } if super::is_boundary(op) => {
                            assert!(open.is_none(), "boundary inside a region");
                        }
                        Stmt::Loop { body, .. } => {
                            let outer = *open;
                            walk(body, open);
                            assert_eq!(
                                *open, outer,
                                "region opened in a loop body must close in it"
                            );
                        }
                        _ => {}
                    }
                }
            }
            walk(ip.program.thread(ThreadId(t as u32)), &mut open);
            assert!(open.is_none(), "unclosed region at thread exit");
        }
    }

    #[test]
    fn sync_free_thread_becomes_one_region() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).read(x).write(x, 1).read(x).write(x, 2).read(x);
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_balanced(&ip);
        assert_eq!(ip.region_count(), 2);
        assert_eq!(ip.regions[0].kind, RegionKind::Fast);
        assert_eq!(ip.regions[0].mem_ops, 5);
        let ops = ops_of(ip.program.thread(ThreadId(0)));
        assert!(matches!(ops.first(), Some(Op::TxBegin(_))));
        assert!(matches!(ops.last(), Some(Op::TxEnd(_))));
    }

    #[test]
    fn sync_ops_cut_regions() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        for t in 0..2 {
            b.thread(t)
                .read(x)
                .read(x)
                .read(x)
                .read(x)
                .read(x)
                .lock(l)
                .write(x, 1)
                .write(x, 2)
                .write(x, 3)
                .write(x, 4)
                .write(x, 5)
                .unlock(l)
                .read(x)
                .read(x)
                .read(x)
                .read(x)
                .read(x);
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_balanced(&ip);
        // Three regions per thread: before, critical section, after.
        assert_eq!(ip.region_count(), 6);
        assert!(ip.regions.iter().all(|r| r.kind == RegionKind::Fast));
    }

    #[test]
    fn syscalls_cut_regions() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t)
                .read(x)
                .read(x)
                .read(x)
                .read(x)
                .read(x)
                .syscall(SyscallKind::Io)
                .read(x)
                .read(x)
                .read(x)
                .read(x)
                .read(x);
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_balanced(&ip);
        assert_eq!(ip.region_count(), 4);
    }

    #[test]
    fn small_regions_are_slow_only() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        for t in 0..2 {
            b.thread(t).lock(l).write(x, 1).read(x).unlock(l); // 2 ops < 5
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_eq!(ip.region_count(), 2);
        assert!(ip.regions.iter().all(|r| r.kind == RegionKind::SlowOnly));
    }

    #[test]
    fn access_free_segments_are_unmonitored() {
        let mut b = ProgramBuilder::new(2);
        let l = b.lock_id("l");
        for t in 0..2 {
            b.thread(t).compute(100).lock(l).compute(5).unlock(l);
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_eq!(ip.region_count(), 0, "no accesses, no regions");
        let ops = ops_of(ip.program.thread(ThreadId(0)));
        assert!(ops
            .iter()
            .all(|o| !matches!(o, Op::TxBegin(_) | Op::TxEnd(_))));
    }

    #[test]
    fn pure_loops_stay_in_region_with_probe() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).loop_n(100, |tb| {
                tb.read(x).write(x, 1);
            });
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_balanced(&ip);
        assert_eq!(ip.region_count(), 2);
        assert_eq!(ip.regions[0].mem_ops, 200);
        assert_eq!(ip.regions[0].loops.len(), 1);
        let ops = ops_of(ip.program.thread(ThreadId(0)));
        assert!(ops.iter().any(|o| matches!(o, Op::LoopCutProbe(_))));
    }

    #[test]
    fn boundary_loops_get_per_iteration_regions() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).loop_n(10, |tb| {
                tb.read(x)
                    .read(x)
                    .read(x)
                    .read(x)
                    .read(x)
                    .syscall(SyscallKind::Io)
                    .write(x, 1)
                    .write(x, 2)
                    .write(x, 3)
                    .write(x, 4)
                    .write(x, 5);
            });
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_balanced(&ip);
        // Two regions per thread *statically*; each runs once per iteration.
        assert_eq!(ip.region_count(), 4);
        // Per-iteration sizing, not multiplied by trips.
        assert!(ip.regions.iter().all(|r| r.mem_ops == 5));
    }

    #[test]
    fn nested_pure_loops_all_get_probes() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).loop_n(4, |tb| {
                tb.loop_n(5, |tb| {
                    tb.read(x);
                });
            });
        }
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_balanced(&ip);
        assert_eq!(ip.regions[0].mem_ops, 20);
        assert_eq!(ip.regions[0].loops.len(), 2);
        let probes = ops_of(ip.program.thread(ThreadId(0)))
            .iter()
            .filter(|o| matches!(o, Op::LoopCutProbe(_)))
            .count();
        assert_eq!(probes, 2);
    }

    #[test]
    fn single_threaded_prologue_and_epilogue_elided() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0)
            .write(x, 1)
            .write(x, 2)
            .write(x, 3)
            .write(x, 4)
            .write(x, 5) // prologue
            .spawn(ThreadId(1))
            .read(x)
            .read(x)
            .read(x)
            .read(x)
            .read(x) // concurrent
            .join(ThreadId(1))
            .write(x, 9)
            .write(x, 9)
            .write(x, 9)
            .write(x, 9)
            .write(x, 9); // epilogue
        b.thread(1)
            .write(x, 7)
            .write(x, 7)
            .write(x, 7)
            .write(x, 7)
            .write(x, 7);
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_balanced(&ip);
        // Regions: main concurrent middle (1) + thread 1 (1).
        assert_eq!(ip.region_count(), 2);
        let main_ops = ops_of(ip.program.thread(ThreadId(0)));
        // The first five writes must not be preceded by a TxBegin.
        let first_marker = main_ops
            .iter()
            .position(|o| matches!(o, Op::TxBegin(_)))
            .expect("middle is instrumented");
        assert!(first_marker > 4, "prologue was instrumented");
    }

    #[test]
    fn no_elision_when_threads_start_concurrent() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0)
            .write(x, 1)
            .write(x, 2)
            .write(x, 3)
            .write(x, 4)
            .write(x, 5);
        b.thread(1).read(x).read(x).read(x).read(x).read(x);
        let ip = instrument(&b.build(), &InstrumentConfig::default());
        assert_eq!(ip.region_count(), 2, "both threads instrumented");
    }

    #[test]
    fn original_sites_preserved_markers_minted_above() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "the_write");
        b.thread(1).read(x).read(x).read(x).read(x).read(x);
        let p = b.build();
        let orig_sites = p.site_count();
        let ip = instrument(&p, &InstrumentConfig::default());
        assert_eq!(ip.program.site("the_write"), p.site("the_write"));
        assert!(ip.program.site_count() >= orig_sites);
        // All marker sites are >= orig_sites.
        fn walk(stmts: &[Stmt], orig: u32) {
            for s in stmts {
                match s {
                    Stmt::Op { site, op } => match op {
                        Op::TxBegin(_) | Op::TxEnd(_) | Op::LoopCutProbe(_) => {
                            assert!(site.0 >= orig, "marker reused an original site");
                        }
                        _ => assert!(site.0 < orig, "original op site was renumbered"),
                    },
                    Stmt::Loop { body, .. } => walk(body, orig),
                }
            }
        }
        for t in 0..2 {
            walk(ip.program.thread(ThreadId(t)), orig_sites);
        }
    }

    #[test]
    fn instrumented_program_runs_identically_under_direct_runtime() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0)
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .join(ThreadId(1))
            .join(ThreadId(2))
            .read(x);
        for t in 1..3 {
            b.thread(t).loop_n(20, |tb| {
                tb.lock(l).rmw(x, 1).unlock(l);
            });
        }
        let p = b.build();
        let ip = instrument(&p, &InstrumentConfig::default());
        let run = |prog: &Program| {
            let mut m = Machine::new(prog);
            let mut rt = DirectRuntime::default();
            let mut s = RoundRobin::new();
            let r = m.run(&mut rt, &mut s);
            assert_eq!(r.status, RunStatus::Done);
            m.memory().clone()
        };
        assert_eq!(run(&p).load(x), 40);
        assert_eq!(run(&ip.program).load(x), 40, "markers must be neutral");
    }

    #[test]
    fn k_zero_makes_everything_fast() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).read(x);
        }
        let cfg = InstrumentConfig { k_min_ops: 0 };
        let ip = instrument(&b.build(), &cfg);
        assert!(ip.regions.iter().all(|r| r.kind == RegionKind::Fast));
    }

    #[test]
    fn full_prune_strips_markers_for_race_free_regions() {
        use crate::sa::SiteClassTable;
        // Each thread only touches its own variable: the whole program is
        // race-free, so Full pruning leaves nothing instrumented.
        let mut b = ProgramBuilder::new(2);
        for t in 0..2 {
            let v = b.var(&format!("v{t}"));
            b.thread(t).loop_n(10, |tb| {
                tb.read(v).write(v, 1);
            });
        }
        let p = b.build();
        let table = SiteClassTable::analyze(&p);
        let plain = instrument(&p, &InstrumentConfig::default());
        assert_eq!(plain.region_count(), 2, "unpruned: everything wrapped");
        let pruned = instrument_pruned(&p, &InstrumentConfig::default(), Some(&table));
        assert_eq!(pruned.region_count(), 0, "pruned: no regions survive");
        for t in 0..2 {
            let ops = ops_of(pruned.program.thread(ThreadId(t)));
            assert!(
                ops.iter()
                    .all(|o| !matches!(o, Op::TxBegin(_) | Op::TxEnd(_) | Op::LoopCutProbe(_))),
                "markers must be stripped"
            );
        }
    }

    #[test]
    fn k_threshold_reapplies_to_pruned_counts() {
        use crate::sa::SiteClassTable;
        // Six accesses per region, but only the three on the shared
        // variable survive pruning: below K = 5, so the region demotes
        // from Fast to SlowOnly.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            let mine = b.var(&format!("mine{t}"));
            b.thread(t)
                .write(x, 1)
                .write(x, 2)
                .write(x, 3)
                .write(mine, 1)
                .write(mine, 2)
                .write(mine, 3);
        }
        let p = b.build();
        let table = SiteClassTable::analyze(&p);
        let plain = instrument(&p, &InstrumentConfig::default());
        assert!(plain.regions.iter().all(|r| r.kind == RegionKind::Fast));
        let pruned = instrument_pruned(&p, &InstrumentConfig::default(), Some(&table));
        assert_eq!(pruned.region_count(), 2);
        for r in &pruned.regions {
            assert_eq!(r.mem_ops, 6);
            assert_eq!(r.checked_ops, 3);
            assert_eq!(r.kind, RegionKind::SlowOnly, "K applies to pruned count");
        }
    }

    #[test]
    fn no_prune_table_is_identity() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).loop_n(8, |tb| {
                tb.read(x).write(x, 1);
            });
        }
        let p = b.build();
        let a = instrument(&p, &InstrumentConfig::default());
        let c = instrument_pruned(&p, &InstrumentConfig::default(), None);
        assert_eq!(a.region_count(), c.region_count());
        for (ra, rc) in a.regions.iter().zip(&c.regions) {
            assert_eq!(ra.mem_ops, rc.mem_ops);
            assert_eq!(ra.checked_ops, rc.checked_ops);
            assert_eq!(ra.mem_ops, ra.checked_ops);
            assert_eq!(ra.kind, rc.kind);
        }
    }
}
