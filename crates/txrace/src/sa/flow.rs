//! The dataflow framework: per-thread control-flow graphs over the
//! structured IR, a round-robin fixpoint engine, and the two
//! flow-sensitive analyses built on them.
//!
//! * **Must-lockset** ([`must_locksets`]): a forward dataflow through
//!   `Lock`/`Unlock` with *intersection* as the meet, run to fixpoint
//!   over loop back edges. Where the summary pass's single walk must
//!   strip every lock whose depth drifts across a loop body (it only
//!   sees the first iteration's state), the fixpoint computes the locks
//!   held on *every* path — so `loop { lock(l); write(x) }` correctly
//!   proves `l` held at the write.
//! * **Redundant-check elimination** ([`redundant_checks`]): a forward
//!   availability analysis that finds re-checks of an address already
//!   checked earlier in the same synchronization-free, loop-free span.
//!   Eliding the later check loses nothing: with no synchronization
//!   between witness and re-check, no happens-before edge can separate
//!   them, so any race detectable at the re-check is detectable at the
//!   witness (possibly reported with the witness's site id — the
//!   *witness mapping*, exposed via
//!   [`SiteClassTable::witness_of`](super::SiteClassTable::witness_of)).
//!
//! **Layout.** The IR is branch-free, so a thread's graph is a chain in
//! first-iteration order plus loop back edges; only the back edges are
//! stored, in compressed sparse row form. The must-lockset state is one
//! flat `nodes × locks` array of hold depths over the locks *that
//! thread* touches, with graph and state buffers reused from thread to
//! thread, and the result is one [`LockSet`] per site — no allocation
//! per node. One pass in node order costs
//! `O((nodes + back edges) × locks)`. A thread without loops needs one
//! pass; loops whose bodies never lower a depth (balanced, or
//! re-acquiring) settle after one more, and each further pass must lower
//! some depth (see below).
//!
//! **Termination.** The must-lockset state is a finite map from locks to
//! hold depths. After a node's first visit, its input only ever
//! *decreases* pointwise (the meet takes per-lock minima over more
//! predecessor states), the transfer function is monotone (increment and
//! saturating decrement both preserve `<=`), and depths are bounded
//! below by zero — so every node's state strictly decreases at most a
//! finite number of times and the passes stop. The availability
//! analysis is a single structural walk (facts never cross a loop edge)
//! and needs no fixpoint at all.

use std::collections::BTreeMap;

use txrace_sim::{LockId, LockSet, Op, Program, SiteId, Stmt, ThreadId};

/// The control-flow graph of one thread, derived from its structured
/// statement tree: one node per static op occurrence, straight-line ops
/// chain, a loop with `trips > 1` adds a back edge from its body's exit
/// to its body's entry, and zero-trip loops contribute no nodes at all
/// (dead code, matching the summary pass). Node order is execution order
/// of the first iteration.
///
/// The IR is branch-free, so control enters and leaves every statement
/// list through at most one node. Hence node 0 is the only node thread
/// entry reaches, every other node `i` has the chain predecessor `i - 1`,
/// and the only joins are loop headers, whose extra predecessors are
/// back edges. The graph stores just those, in compressed sparse row
/// form.
#[derive(Debug, Default)]
pub(super) struct ThreadGraph {
    /// Per node: its site and op.
    ops: Vec<(SiteId, Op)>,
    /// Back edges as `(from, to)`, in creation order.
    back: Vec<(u32, u32)>,
    /// Node `i`'s back-edge predecessors are
    /// `back_preds[back_start[i]..back_start[i + 1]]`.
    back_start: Vec<u32>,
    back_preds: Vec<u32>,
}

impl ThreadGraph {
    /// Rebuilds the graph for thread `t` of `p`, reusing the buffers.
    pub fn build(&mut self, p: &Program, t: ThreadId) {
        self.ops.clear();
        self.back.clear();
        self.append(p.thread(t));
        // Group the back edges by target: count into start[to + 2],
        // prefix-sum so start[to + 1] is the target's first slot, then
        // fill by advancing start[to + 1] to the target's end.
        let start = &mut self.back_start;
        start.clear();
        start.resize(self.ops.len() + 2, 0);
        for &(_, to) in &self.back {
            start[to as usize + 2] += 1;
        }
        for i in 2..start.len() {
            start[i] += start[i - 1];
        }
        self.back_preds.clear();
        self.back_preds.resize(self.back.len(), 0);
        for &(from, to) in &self.back {
            let slot = &mut start[to as usize + 1];
            self.back_preds[*slot as usize] = from;
            *slot += 1;
        }
        start.pop();
    }

    /// Appends `stmts`. Returns the first node created, if any; the list's
    /// exit is then the last node created.
    fn append(&mut self, stmts: &[Stmt]) -> Option<u32> {
        let mut first = None;
        for s in stmts {
            match s {
                Stmt::Op { site, op } => {
                    first.get_or_insert(self.ops.len() as u32);
                    self.ops.push((*site, *op));
                }
                Stmt::Loop { trips: 0, .. } => {}
                Stmt::Loop { trips, body, .. } => {
                    // An all-dead body creates no nodes: state flows through.
                    let Some(entry) = self.append(body) else {
                        continue;
                    };
                    if *trips > 1 {
                        // Back edge: the body exit feeds the body entry.
                        self.back.push((self.ops.len() as u32 - 1, entry));
                    }
                    first.get_or_insert(entry);
                }
            }
        }
        first
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Node `i`'s back-edge predecessors (beside the chain predecessor
    /// `i - 1`).
    pub fn back_preds(&self, i: usize) -> &[u32] {
        &self.back_preds[self.back_start[i] as usize..self.back_start[i + 1] as usize]
    }
}

/// The flow-sensitive must-lockset analysis: for every data-access site
/// of `p`, the set of locks provably held at *every* dynamic occurrence,
/// indexed by site. The sets of other sites, and of sites under zero-trip
/// loops (dead code), are empty.
pub(super) fn must_locksets(p: &Program) -> Vec<LockSet> {
    let mut out = vec![LockSet::new(); p.site_count() as usize];
    if p.lock_count() == 0 {
        return out; // no lock is ever held
    }
    let mut g = ThreadGraph::default();
    // Per-thread dense lock numbering: `local[l]` is lock l's column in
    // this thread's state (u32::MAX when the thread never touches it),
    // `global[c]` maps back.
    let mut local = vec![u32::MAX; p.lock_count() as usize];
    let mut global: Vec<LockId> = Vec::new();
    // Per node: `(column, +1 lock / -1 unlock)` of its op, if any.
    let mut effect: Vec<Option<(usize, i8)>> = Vec::new();
    // ins[i * w..(i + 1) * w]: hold depths on entry to node i.
    let mut ins: Vec<u32> = Vec::new();
    let mut acc: Vec<u32> = Vec::new();
    for t in 0..p.thread_count() {
        g.build(p, ThreadId(t as u32));
        let n = g.len();
        for &l in &global {
            local[l.index()] = u32::MAX;
        }
        global.clear();
        effect.clear();
        for &(_, op) in &g.ops {
            let (l, d) = match op {
                Op::Lock(l) => (l, 1),
                Op::Unlock(l) => (l, -1),
                // Everything else holds no lock. In particular channel
                // send/recv establishes a happens-before edge but confers
                // no mutual exclusion, so it must NOT enter the
                // must-lockset — two sites "protected" only by talking on
                // the same channel still race.
                _ => {
                    effect.push(None);
                    continue;
                }
            };
            if local[l.index()] == u32::MAX {
                local[l.index()] = global.len() as u32;
                global.push(l);
            }
            effect.push(Some((local[l.index()] as usize, d)));
        }
        let w = global.len();
        if w == 0 {
            continue; // no lock ever held: every row stays empty
        }
        // The depths on leaving node `pr`, met into `acc` (or copied when
        // `first`).
        let meet_out = |ins: &[u32], acc: &mut [u32], pr: usize, first: bool| {
            for (c, a) in acc.iter_mut().enumerate() {
                let d = ins[pr * w + c];
                let o = match effect[pr] {
                    Some((col, 1)) if col == c => d + 1,
                    // Unbalanced unlocks (flagged by the lint) saturate
                    // at zero.
                    Some((col, _)) if col == c => d.saturating_sub(1),
                    _ => d,
                };
                *a = if first { o } else { (*a).min(o) };
            }
        };
        ins.clear();
        ins.resize(n * w, 0);
        acc.resize(w, 0);
        // Round-robin passes in node order. The chain predecessor is
        // always already computed in the current pass. Back-edge
        // predecessors come later in node order, so the first pass
        // treats them as top (no constraint) and later passes re-meet
        // them until no state changes. Without back edges the first pass
        // is exact.
        let mut pass = 0;
        loop {
            let mut changed = false;
            for i in 0..n {
                if i == 0 {
                    acc.fill(0); // thread entry: nothing held
                } else {
                    meet_out(&ins, &mut acc, i - 1, true);
                }
                if pass > 0 {
                    for &pr in g.back_preds(i) {
                        meet_out(&ins, &mut acc, pr as usize, false);
                    }
                }
                let row = &mut ins[i * w..(i + 1) * w];
                if pass == 0 || row != acc.as_slice() {
                    row.copy_from_slice(&acc);
                    changed = true;
                }
            }
            pass += 1;
            if !changed || g.back.is_empty() {
                break;
            }
        }
        for (i, &(site, op)) in g.ops.iter().enumerate() {
            if !op.is_data_access() {
                continue;
            }
            for (c, &l) in global.iter().enumerate() {
                if ins[i * w + c] > 0 {
                    out[site.index()].insert(l);
                }
            }
        }
    }
    out
}

/// One available-check fact: `witness` already checked this address in
/// the current sync-free, loop-free span; `writes` is the witness's
/// access kind.
struct Fact {
    witness: SiteId,
    writes: bool,
}

/// Finds redundant checks: scalar, non-atomic sites whose address was
/// already checked by a *surviving* site (`checked(site)` true) earlier
/// in the same synchronization-free, loop-free straight-line span, with
/// a strong-enough witness (`witness.writes || !site.writes` — a read
/// can witness a later read, only a write can witness a later write).
///
/// Spans are cut at every sync op and syscall (region boundaries: new
/// happens-before edges can appear there) *and* at loop edges (the
/// loop-cut optimization may split a transaction at a back edge, so a
/// fact is only trusted within one iteration's straight-line body).
/// Returns `(redundant_site, witness_site)` pairs, in program order.
pub(super) fn redundant_checks(
    p: &Program,
    checked: &dyn Fn(SiteId) -> bool,
) -> Vec<(SiteId, SiteId)> {
    let mut out = Vec::new();
    for t in 0..p.thread_count() {
        let mut state: BTreeMap<txrace_sim::Addr, Fact> = BTreeMap::new();
        walk_avail(p.thread(ThreadId(t as u32)), &mut state, checked, &mut out);
    }
    out
}

fn walk_avail(
    stmts: &[Stmt],
    state: &mut BTreeMap<txrace_sim::Addr, Fact>,
    checked: &dyn Fn(SiteId) -> bool,
    out: &mut Vec<(SiteId, SiteId)>,
) {
    for s in stmts {
        match s {
            Stmt::Op { site, op } => match op {
                Op::Read(_) | Op::Write(_, _) => {
                    let a = op.access_addr().expect("scalar access has an address");
                    let w = op.is_write_access();
                    if !checked(*site) {
                        // Already pruned by another reason (or a marker):
                        // neither a redundancy candidate nor a witness.
                        continue;
                    }
                    if let Some(f) = state.get(&a) {
                        if f.writes || !w {
                            // Covered: elide, and keep the original
                            // witness (its coverage subsumes this one's).
                            out.push((*site, f.witness));
                            continue;
                        }
                    }
                    state.insert(
                        a,
                        Fact {
                            witness: *site,
                            writes: w,
                        },
                    );
                }
                // Atomics are never checked and create no happens-before
                // edges in the detectors: facts flow straight through.
                // Array accesses are multi-address and excluded from the
                // pass entirely; Compute is inert.
                Op::Rmw(_, _) | Op::ReadArr { .. } | Op::WriteArr { .. } | Op::Compute(_) => {}
                // Everything else — sync ops (including channel send and
                // receive, which acquire/publish happens-before edges),
                // syscalls, and (in already-instrumented programs)
                // transaction markers — starts a new span.
                _ => state.clear(),
            },
            Stmt::Loop { trips: 0, .. } => {}
            Stmt::Loop { body, .. } => {
                // Facts never cross a loop edge: the loop-cut pass may
                // split transactions at the back edge, so availability
                // holds only within one iteration's straight-line body.
                state.clear();
                let mut inner = BTreeMap::new();
                walk_avail(body, &mut inner, checked, out);
                state.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::ProgramBuilder;

    fn locks_at(p: &Program, label: &str) -> Vec<LockId> {
        must_locksets(p)[p.site(label).expect("label exists").index()]
            .iter()
            .collect()
    }

    #[test]
    fn graph_back_edges_only_for_multi_trip_loops() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(1, |tb| {
            tb.read(x).write(x, 1);
        });
        b.thread(0).loop_n(3, |tb| {
            tb.read(x).write(x, 2);
        });
        let mut g = ThreadGraph::default();
        g.build(&b.build(), ThreadId(0));
        assert_eq!(g.len(), 4);
        // trips=1 loop: pure chain. trips=3 loop: entry node (index 2)
        // has the body-exit back edge beside its chain pred.
        for (i, want) in [[].as_slice(), &[], &[3], &[]].into_iter().enumerate() {
            assert_eq!(g.back_preds(i), want, "node {i}");
        }
    }

    #[test]
    fn fixpoint_keeps_lock_through_reacquiring_loop() {
        // The summary pass must strip `l` here (its depth drifts across
        // iterations); the fixpoint proves it held at the write anyway:
        // every path to the write passes the Lock first.
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(3, |tb| {
            tb.lock(l).write_l(x, 1, "w");
        });
        let p = b.build();
        assert!(locks_at(&p, "w").contains(&l));
    }

    #[test]
    fn lock_released_mid_loop_gives_no_credit_after_unlock() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(3, |tb| {
            tb.lock(l)
                .write_l(x, 1, "inside")
                .unlock(l)
                .write_l(x, 2, "outside");
        });
        let p = b.build();
        assert!(locks_at(&p, "inside").contains(&l));
        assert!(locks_at(&p, "outside").is_empty());
    }

    #[test]
    fn meet_drops_lock_not_held_on_entry_path() {
        // Before the loop the write executes once with no lock: the meet
        // of {entry, back-edge} states must not claim `l`.
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(3, |tb| {
            tb.write_l(x, 1, "w").lock(l);
        });
        let p = b.build();
        assert!(locks_at(&p, "w").is_empty());
    }

    #[test]
    fn back_edges_meet_away_a_lock_the_body_releases() {
        // `l` is held twice on entry, and each outer trip releases it
        // once after the write: the write runs unlocked on the third
        // trip. Only the outer back edge carries that in, and the depth
        // falls one step per pass (2, 1, 0), so this needs several passes.
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l).lock(l);
        b.thread(0).loop_n(3, |tb| {
            tb.loop_n(2, |tb| {
                tb.write_l(x, 1, "w");
            });
            tb.unlock(l);
        });
        let p = b.build();
        assert!(locks_at(&p, "w").is_empty());
    }

    #[test]
    fn dead_loops_contribute_no_nodes_or_state() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l);
        b.thread(0).loop_n(0, |tb| {
            tb.unlock(l).write_l(x, 9, "dead");
        });
        b.thread(0).write_l(x, 1, "after").unlock(l);
        let p = b.build();
        let mut g = ThreadGraph::default();
        g.build(&p, ThreadId(0));
        assert_eq!(g.len(), 3, "only lock, write, unlock have nodes");
        assert!(locks_at(&p, "dead").is_empty());
        // The dead unlock must not leak into the live state.
        assert!(locks_at(&p, "after").contains(&l));
    }

    #[test]
    fn redundancy_within_a_straight_span() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let y = b.var("y");
        b.thread(0)
            .write_l(x, 1, "wx") // witness
            .read_l(y, "ry") // other address: no interference
            .read_l(x, "rx") // read after write: covered
            .write_l(x, 2, "wx2"); // write after write: covered
        let p = b.build();
        let red = redundant_checks(&p, &|_| true);
        let names: Vec<(&str, &str)> = red
            .iter()
            .map(|&(s, w)| (p.label_of(s).expect("label"), p.label_of(w).expect("label")))
            .collect();
        assert_eq!(names, vec![("rx", "wx"), ("wx2", "wx")]);
    }

    #[test]
    fn read_witness_cannot_cover_a_write() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).read_l(x, "r").write_l(x, 1, "w");
        let p = b.build();
        let red = redundant_checks(&p, &|_| true);
        assert!(red.is_empty(), "a read must not witness a later write");
        // But the write now witnesses later accesses.
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0)
            .read_l(x, "r")
            .write_l(x, 1, "w")
            .read_l(x, "r2");
        let p = b.build();
        let red = redundant_checks(&p, &|_| true);
        assert_eq!(red.len(), 1);
        assert_eq!(p.label_of(red[0].0), Some("r2"));
        assert_eq!(p.label_of(red[0].1), Some("w"));
    }

    #[test]
    fn sync_and_loops_cut_availability_spans() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0)
            .write_l(x, 1, "w")
            .lock(l)
            .read_l(x, "after_sync")
            .unlock(l);
        b.thread(0).loop_n(4, |tb| {
            tb.read_l(x, "in_loop");
        });
        b.thread(0).read_l(x, "after_loop");
        let p = b.build();
        let red = redundant_checks(&p, &|_| true);
        assert!(
            red.is_empty(),
            "facts must not cross sync ops or loop edges: {red:?}"
        );
        // Within one iteration's body, availability works as usual.
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(4, |tb| {
            tb.read_l(x, "first").read_l(x, "second");
        });
        let p = b.build();
        let red = redundant_checks(&p, &|_| true);
        assert_eq!(red.len(), 1);
        assert_eq!(p.label_of(red[0].0), Some("second"));
    }

    #[test]
    fn unchecked_sites_neither_witness_nor_elide() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0)
            .read_l(x, "pruned") // not checked: cannot witness
            .read_l(x, "live") // the real witness
            .read_l(x, "covered");
        let p = b.build();
        let pruned = p.site("pruned").unwrap();
        let red = redundant_checks(&p, &|s| s != pruned);
        assert_eq!(red.len(), 1);
        assert_eq!(p.label_of(red[0].0), Some("covered"));
        assert_eq!(p.label_of(red[0].1), Some("live"));
    }

    #[test]
    fn atomics_flow_through_without_killing_facts() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        let c = b.var("c");
        b.thread(0).read_l(x, "r1").rmw(c, 1).read_l(x, "r2");
        let p = b.build();
        let red = redundant_checks(&p, &|_| true);
        assert_eq!(red.len(), 1, "an RMW creates no HB edge: fact survives");
    }
}
