//! The FastTrack happens-before race detector (Flanagan & Freund,
//! PLDI '09) — the algorithm behind Google ThreadSanitizer, used by TxRace
//! both as its slow path and as the full-program baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txrace_sim::{
    Addr, AddrMap, BarrierId, ChanId, CondId, LockId, SiteId, ThreadId, TraceConsumer,
};

use crate::clock::{Epoch, VectorClock};
use crate::report::{AccessInfo, AccessKind, RaceReport, RaceSet};

/// Shadow-memory configuration.
///
/// TSan stores N shadow cells per application granule and randomly evicts
/// a cell when all are full, which "may affect soundness" (paper §5); the
/// paper configures enough cells to be sound. `Exact` is that sound
/// configuration; `Cells` models the bounded default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowMode {
    /// Unbounded reader tracking: sound.
    Exact,
    /// At most `per_granule` concurrent readers tracked per variable;
    /// adding one more randomly evicts an existing reader (seeded by
    /// `seed`), so races with the evicted reader can be missed.
    Cells {
        /// Reader cells per variable (TSan's default is 4).
        per_granule: usize,
        /// RNG seed for eviction.
        seed: u64,
    },
}

/// Concurrent readers: a read vector clock plus per-thread sites.
#[derive(Debug, Clone)]
struct SharedReaders {
    vc: Vec<u32>,
    sites: Vec<SiteId>,
}

#[derive(Debug, Clone)]
enum ReadState {
    /// No reads since the last write.
    Bottom,
    /// A single reader epoch (FastTrack's common case).
    Single(Epoch, SiteId),
    /// Concurrent readers, boxed so the common Bottom/Single states keep
    /// [`VarState`] at half a cache line instead of spilling past one.
    Shared(Box<SharedReaders>),
}

#[derive(Debug, Clone)]
struct VarState {
    w: Epoch,
    w_site: SiteId,
    r: ReadState,
}

impl VarState {
    fn fresh() -> Self {
        VarState {
            w: Epoch::BOTTOM,
            w_site: SiteId(0),
            r: ReadState::Bottom,
        }
    }
}

/// The happens-before half of FastTrack: one vector clock per thread and
/// per synchronization object (lock, semaphore, channel, barrier), and
/// the number of sync operations tracked.
///
/// It consumes only the sync events of a [`TraceConsumer`] stream. The
/// access half is a [`Shadow`], which checks each access against these
/// clocks; [`FastTrack`] is one of each. Because sync tracking never
/// depends on which accesses were checked, any number of shadows fed by
/// the same event stream can share one `SyncClocks` (the TSan sampling
/// sweep does).
#[derive(Debug, Clone)]
pub struct SyncClocks {
    n: usize,
    clocks: Vec<VectorClock>,
    locks: Vec<VectorClock>,
    conds: Vec<VectorClock>,
    chans: Vec<VectorClock>,
    barriers: Vec<VectorClock>,
    sync_ops: u64,
}

impl SyncClocks {
    /// The initial clocks of `threads` threads, with no sync object seen.
    pub fn new(threads: usize) -> Self {
        SyncClocks {
            n: threads,
            clocks: (0..threads)
                .map(|t| VectorClock::initial(ThreadId(t as u32), threads))
                .collect(),
            locks: Vec::new(),
            conds: Vec::new(),
            chans: Vec::new(),
            barriers: Vec::new(),
            sync_ops: 0,
        }
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.n
    }

    /// Number of synchronization operations tracked.
    pub fn sync_ops(&self) -> u64 {
        self.sync_ops
    }

    /// The current clock of thread `t`.
    pub fn clock(&self, t: ThreadId) -> &VectorClock {
        &self.clocks[t.index()]
    }

    /// Returns every clock to its initial state, keeping the count of
    /// sync operations.
    fn reset(&mut self) {
        for (t, c) in self.clocks.iter_mut().enumerate() {
            *c = VectorClock::initial(ThreadId(t as u32), self.n);
        }
        self.locks.clear();
        self.conds.clear();
        self.chans.clear();
        self.barriers.clear();
    }

    fn sync_vc(table: &mut Vec<VectorClock>, idx: usize, n: usize) -> &mut VectorClock {
        if table.len() <= idx {
            table.resize(idx + 1, VectorClock::zero(n));
        }
        &mut table[idx]
    }
}

/// The sync events: each updates the clocks. Accesses are ignored here;
/// a [`Shadow`] checks them.
impl TraceConsumer for SyncClocks {
    /// Tracks a mutex acquire: `C_t ⊔= L`.
    fn acquire(&mut self, t: ThreadId, _site: SiteId, l: LockId) {
        self.sync_ops += 1;
        let vc = Self::sync_vc(&mut self.locks, l.index(), self.n);
        self.clocks[t.index()].join(vc);
    }

    /// Tracks a mutex release: `L ⊔= C_t; C_t[t] += 1`.
    fn release(&mut self, t: ThreadId, _site: SiteId, l: LockId) {
        self.sync_ops += 1;
        Self::sync_vc(&mut self.locks, l.index(), self.n).join(&self.clocks[t.index()]);
        self.clocks[t.index()].inc(t);
    }

    /// Tracks a semaphore post (release semantics on the cond's clock).
    fn signal(&mut self, t: ThreadId, _site: SiteId, c: CondId) {
        self.sync_ops += 1;
        Self::sync_vc(&mut self.conds, c.index(), self.n).join(&self.clocks[t.index()]);
        self.clocks[t.index()].inc(t);
    }

    /// Tracks a satisfied semaphore wait (acquire semantics).
    fn wait(&mut self, t: ThreadId, _site: SiteId, c: CondId) {
        self.sync_ops += 1;
        let vc = Self::sync_vc(&mut self.conds, c.index(), self.n);
        self.clocks[t.index()].join(vc);
    }

    /// Tracks a channel send (release semantics on the channel's clock):
    /// `Ch ⊔= C_t; C_t[t] += 1`. The send→recv edge is unidirectional —
    /// a receive never orders later sends (no backpressure edge), exactly
    /// like `signal`.
    fn chan_send(&mut self, t: ThreadId, _site: SiteId, ch: ChanId) {
        self.sync_ops += 1;
        Self::sync_vc(&mut self.chans, ch.index(), self.n).join(&self.clocks[t.index()]);
        self.clocks[t.index()].inc(t);
    }

    /// Tracks a channel receive (acquire semantics): `C_t ⊔= Ch`, so
    /// everything before any send that fed the channel happens-before
    /// everything after this receive.
    fn chan_recv(&mut self, t: ThreadId, _site: SiteId, ch: ChanId) {
        self.sync_ops += 1;
        let vc = Self::sync_vc(&mut self.chans, ch.index(), self.n);
        self.clocks[t.index()].join(vc);
    }

    /// Tracks a thread spawn: the child inherits the parent's history.
    fn spawn(&mut self, parent: ThreadId, _site: SiteId, child: ThreadId) {
        self.sync_ops += 1;
        debug_assert_ne!(parent, child);
        let (a, b) = (parent.index(), child.index());
        // Split the slice to join without cloning the parent's clock.
        if a < b {
            let (left, right) = self.clocks.split_at_mut(b);
            right[0].join(&left[a]);
        } else {
            let (left, right) = self.clocks.split_at_mut(a);
            left[b].join(&right[0]);
        }
        self.clocks[a].inc(parent);
    }

    /// Tracks a thread join: the parent inherits the child's history.
    fn join(&mut self, parent: ThreadId, _site: SiteId, child: ThreadId) {
        self.sync_ops += 1;
        debug_assert_ne!(parent, child);
        let (a, b) = (parent.index(), child.index());
        if a < b {
            let (left, right) = self.clocks.split_at_mut(b);
            left[a].join(&right[0]);
        } else {
            let (left, right) = self.clocks.split_at_mut(a);
            right[0].join(&left[b]);
        }
    }

    /// Tracks a barrier release over its arrival list (`(thread, site)`
    /// pairs, as recorded): all participants' clocks join.
    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.sync_ops += 1;
        let n = self.n;
        if self.barriers.len() <= b.index() {
            self.barriers.resize(b.index() + 1, VectorClock::zero(n));
        }
        let mut joined = self.barriers[b.index()].clone();
        for &(t, _) in arrivals {
            joined.join(&self.clocks[t.index()]);
        }
        for &(t, _) in arrivals {
            self.clocks[t.index()].join(&joined);
            self.clocks[t.index()].inc(t);
        }
        self.barriers[b.index()] = joined;
    }
}

/// The access half of FastTrack: the shadow word (last write epoch and
/// read state) of every variable, the races found, and the number of
/// access checks.
///
/// Variables are named by a dense id that the owner assigns (an
/// [`AddrMap`] in first-touch order); the shadow grows to cover every id
/// it is asked about. [`Shadow::read`] and [`Shadow::write`] are the
/// FastTrack access checks, the only copy of them: [`FastTrack`] calls
/// them with its own [`SyncClocks`], and a consumer that runs several
/// shadows over one event stream calls them with one shared
/// `SyncClocks`.
#[derive(Debug, Clone)]
pub struct Shadow {
    mode: ShadowMode,
    /// Shadow words indexed by dense variable id — the data-oriented
    /// layout. A slot starts as `VarState::fresh()`, what the first
    /// access to a variable has always seen.
    cells: Vec<VarState>,
    races: RaceSet,
    cell_cap: Option<usize>,
    /// Eviction RNG of [`ShadowMode::Cells`], drawn only by this shadow.
    rng: StdRng,
    checks: u64,
}

impl Shadow {
    /// An empty shadow in `mode`.
    pub fn new(mode: ShadowMode) -> Self {
        let (cell_cap, seed) = match mode {
            ShadowMode::Exact => (None, 0),
            ShadowMode::Cells { per_granule, seed } => (Some(per_granule.max(1)), seed),
        };
        Shadow {
            mode,
            cells: Vec::new(),
            races: RaceSet::new(),
            cell_cap,
            rng: StdRng::seed_from_u64(seed),
            checks: 0,
        }
    }

    /// The shadow-memory configuration this shadow was built with.
    pub fn mode(&self) -> ShadowMode {
        self.mode
    }

    /// Races found so far.
    pub fn races(&self) -> &RaceSet {
        &self.races
    }

    /// The races found, moved out of the shadow.
    pub fn into_races(self) -> RaceSet {
        self.races
    }

    /// Number of access checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Forgets every shadow word, keeping the races, the check count and
    /// the eviction RNG stream.
    fn reset(&mut self) {
        for s in &mut self.cells {
            *s = VarState::fresh();
        }
    }

    #[inline]
    fn cell(cells: &mut Vec<VarState>, var: u32) -> &mut VarState {
        let i = var as usize;
        if i >= cells.len() {
            cells.resize_with(i + 1, VarState::fresh);
        }
        &mut cells[i]
    }

    /// Checks a read by `t` at `site` of variable `var` (at `addr`, which
    /// only the reports carry) against `sync`, the clocks of the same
    /// event stream.
    #[inline]
    pub fn read(&mut self, sync: &SyncClocks, var: u32, t: ThreadId, site: SiteId, addr: Addr) {
        self.checks += 1;
        let ct = &sync.clocks[t.index()];
        let my = ct.epoch(t);
        let state = Self::cell(&mut self.cells, var);

        // Same-epoch fast path.
        match &state.r {
            ReadState::Single(e, _) if *e == my => return,
            ReadState::Shared(s) if s.vc[t.index()] == my.clock => return,
            _ => {}
        }

        // Write-read race check.
        if !state.w.leq(ct) {
            let report = RaceReport {
                addr,
                prior: AccessInfo {
                    site: state.w_site,
                    thread: state.w.tid,
                    kind: AccessKind::Write,
                },
                current: AccessInfo {
                    site,
                    thread: t,
                    kind: AccessKind::Read,
                },
            };
            self.races.record(report);
        }

        // Update the read state.
        match &mut state.r {
            ReadState::Bottom => state.r = ReadState::Single(my, site),
            ReadState::Single(e, s) => {
                let (e, s) = (*e, *s);
                if e.leq(ct) {
                    state.r = ReadState::Single(my, site);
                } else if self.cell_cap == Some(1) {
                    // One shadow cell: the new reader evicts the old one
                    // (the unsound bounded-cell behaviour being modeled).
                    state.r = ReadState::Single(my, site);
                } else {
                    let mut vc = vec![0u32; sync.n];
                    let mut sites = vec![SiteId(0); sync.n];
                    vc[e.tid.index()] = e.clock;
                    sites[e.tid.index()] = s;
                    vc[t.index()] = my.clock;
                    sites[t.index()] = site;
                    state.r = ReadState::Shared(Box::new(SharedReaders { vc, sites }));
                }
            }
            ReadState::Shared(shared) => {
                let SharedReaders { vc, sites } = shared.as_mut();
                let is_new_reader = vc[t.index()] == 0;
                if is_new_reader {
                    if let Some(cap) = self.cell_cap {
                        let occupied: Vec<usize> = vc
                            .iter()
                            .enumerate()
                            .filter(|&(u, &c)| c > 0 && u != t.index())
                            .map(|(u, _)| u)
                            .collect();
                        if occupied.len() + 1 > cap {
                            // TSan-style random cell eviction: forget one
                            // reader, potentially missing a future race.
                            let victim = occupied[self.rng.gen_range(0..occupied.len())];
                            vc[victim] = 0;
                            sites[victim] = SiteId(0);
                        }
                    }
                }
                vc[t.index()] = my.clock;
                sites[t.index()] = site;
            }
        }
    }

    /// Checks a write by `t` at `site` of variable `var` (at `addr`)
    /// against `sync`, the clocks of the same event stream.
    #[inline]
    pub fn write(&mut self, sync: &SyncClocks, var: u32, t: ThreadId, site: SiteId, addr: Addr) {
        self.checks += 1;
        let ct = &sync.clocks[t.index()];
        let my = ct.epoch(t);
        let state = Self::cell(&mut self.cells, var);

        if state.w == my {
            return; // same-epoch fast path
        }

        // Write-write race.
        if !state.w.leq(ct) {
            let report = RaceReport {
                addr,
                prior: AccessInfo {
                    site: state.w_site,
                    thread: state.w.tid,
                    kind: AccessKind::Write,
                },
                current: AccessInfo {
                    site,
                    thread: t,
                    kind: AccessKind::Write,
                },
            };
            self.races.record(report);
        }

        // Read-write races.
        match &state.r {
            ReadState::Bottom => {}
            ReadState::Single(e, s) => {
                if !e.leq(ct) {
                    let report = RaceReport {
                        addr,
                        prior: AccessInfo {
                            site: *s,
                            thread: e.tid,
                            kind: AccessKind::Read,
                        },
                        current: AccessInfo {
                            site,
                            thread: t,
                            kind: AccessKind::Write,
                        },
                    };
                    self.races.record(report);
                }
            }
            ReadState::Shared(shared) => {
                let SharedReaders { vc, sites } = shared.as_ref();
                for u in 0..sync.n {
                    if u == t.index() || vc[u] == 0 {
                        continue;
                    }
                    if vc[u] > ct.get(ThreadId(u as u32)) {
                        let report = RaceReport {
                            addr,
                            prior: AccessInfo {
                                site: sites[u],
                                thread: ThreadId(u as u32),
                                kind: AccessKind::Read,
                            },
                            current: AccessInfo {
                                site,
                                thread: t,
                                kind: AccessKind::Write,
                            },
                        };
                        self.races.record(report);
                    }
                }
            }
        }

        state.w = my;
        state.w_site = site;
        state.r = ReadState::Bottom;
    }
}

/// The FastTrack detector over a fixed set of threads: one
/// [`SyncClocks`], one address map, one [`Shadow`].
///
/// Events arrive only through its [`TraceConsumer`] impl: `read`/`write`
/// check memory accesses; the sync events update the clocks. TxRace
/// delivers the sync events on *every* path (fast and slow — paper §5,
/// Figure 6) but the access checks only on the slow path.
#[derive(Debug)]
pub struct FastTrack {
    sync: SyncClocks,
    /// Paged map `Addr -> dense variable id`, assigned on first access
    /// (O(touched) space — address spans can be hundreds of times larger
    /// than the touched set).
    vars: AddrMap,
    shadow: Shadow,
}

impl FastTrack {
    /// Creates a detector for `threads` threads.
    pub fn new(threads: usize, mode: ShadowMode) -> Self {
        Self::from_parts(SyncClocks::new(threads), AddrMap::new(), Shadow::new(mode))
    }

    /// A detector from its parts: clocks, the address map that names the
    /// shadow's variables, and a shadow fed by the same event stream as
    /// the clocks.
    pub fn from_parts(sync: SyncClocks, vars: AddrMap, shadow: Shadow) -> Self {
        FastTrack { sync, vars, shadow }
    }

    /// The happens-before clocks.
    pub fn sync(&self) -> &SyncClocks {
        &self.sync
    }

    /// The shadow memory.
    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    /// Races found so far.
    pub fn races(&self) -> &RaceSet {
        self.shadow.races()
    }

    /// The races found, moved out of the detector.
    pub fn into_races(self) -> RaceSet {
        self.shadow.into_races()
    }

    /// Number of access checks performed (slow-path work metric).
    pub fn checks(&self) -> u64 {
        self.shadow.checks()
    }

    /// Number of synchronization operations tracked.
    pub fn sync_ops(&self) -> u64 {
        self.sync.sync_ops()
    }

    /// Forgets all happens-before state (thread clocks, lock/cond/
    /// channel/barrier vector clocks) and every shadow cell, while
    /// keeping the races found so far, the check/sync counters, and the
    /// eviction RNG stream.
    ///
    /// Duty-cycled monitoring uses this when re-arming after an idle
    /// gap: accesses from before the gap must not pair with accesses
    /// after it, because the synchronization between them was never
    /// observed. Resetting the shadow guarantees any reported pair has
    /// both endpoints inside one contiguous monitored stretch, so no
    /// false positives can cross the gap. The address interning table
    /// is retained so existing dense indices stay valid.
    pub fn reset_shadow(&mut self) {
        self.sync.reset();
        self.shadow.reset();
    }
}

/// FastTrack as a pure trace consumer: accesses are checked, sync events
/// update the clocks, and — matching TSan — atomic RMWs are *not*
/// checked (atomics are never data races under the C11 model). Driving a
/// `FastTrack` through [`txrace_sim::Live`] live or through
/// [`txrace_sim::EventLog::replay`] on a log of the same run produces the
/// identical race set.
impl TraceConsumer for FastTrack {
    /// Checks a read by `t` at `site` against the shadow word for `addr`.
    #[inline]
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        let var = self.vars.resolve(addr);
        self.shadow.read(&self.sync, var, t, site, addr);
    }

    /// Checks a write by `t` at `site` against the shadow word for `addr`.
    #[inline]
    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        let var = self.vars.resolve(addr);
        self.shadow.write(&self.sync, var, t, site, addr);
    }

    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.sync.acquire(t, site, l);
    }

    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.sync.release(t, site, l);
    }

    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.sync.signal(t, site, c);
    }

    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.sync.wait(t, site, c);
    }

    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.sync.chan_send(t, site, ch);
    }

    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.sync.chan_recv(t, site, ch);
    }

    fn spawn(&mut self, parent: ThreadId, site: SiteId, child: ThreadId) {
        self.sync.spawn(parent, site, child);
    }

    fn join(&mut self, parent: ThreadId, site: SiteId, child: ThreadId) {
        self.sync.join(parent, site, child);
    }

    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.sync.barrier_release(b, arrivals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const X: Addr = Addr(0x400);
    const S: SiteId = SiteId(0);

    fn ft(n: usize) -> FastTrack {
        FastTrack::new(n, ShadowMode::Exact)
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.write(T1, SiteId(2), X);
        assert_eq!(d.races().distinct_count(), 1);
        assert!(d.races().contains(SiteId(1), SiteId(2)));
    }

    #[test]
    fn unsynchronized_write_read_races() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.read(T1, SiteId(2), X);
        assert_eq!(d.races().distinct_count(), 1);
    }

    #[test]
    fn unsynchronized_read_write_races() {
        let mut d = ft(2);
        d.read(T0, SiteId(1), X);
        d.write(T1, SiteId(2), X);
        assert_eq!(d.races().distinct_count(), 1);
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let mut d = ft(3);
        d.read(T0, SiteId(1), X);
        d.read(T1, SiteId(2), X);
        d.read(T2, SiteId(3), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn lock_ordering_prevents_race() {
        let mut d = ft(2);
        let l = LockId(0);
        d.acquire(T0, S, l);
        d.write(T0, SiteId(1), X);
        d.release(T0, S, l);
        d.acquire(T1, S, l);
        d.write(T1, SiteId(2), X);
        d.release(T1, S, l);
        assert!(d.races().is_empty());
    }

    #[test]
    fn different_locks_do_not_order() {
        let mut d = ft(2);
        d.acquire(T0, S, LockId(0));
        d.write(T0, SiteId(1), X);
        d.release(T0, S, LockId(0));
        d.acquire(T1, S, LockId(1));
        d.write(T1, SiteId(2), X);
        d.release(T1, S, LockId(1));
        assert_eq!(d.races().distinct_count(), 1);
    }

    #[test]
    fn signal_wait_orders() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.signal(T0, S, CondId(0));
        d.wait(T1, S, CondId(0));
        d.write(T1, SiteId(2), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn chan_send_recv_orders() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.chan_send(T0, S, ChanId(0));
        d.chan_recv(T1, S, ChanId(0));
        d.write(T1, SiteId(2), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn chan_edge_is_unidirectional() {
        // A receive does NOT order the receiver's earlier work before the
        // sender's later work (no backpressure edge): T1's pre-recv write
        // races with T0's post-send write.
        let mut d = ft(2);
        d.write(T1, SiteId(2), X);
        d.chan_send(T0, S, ChanId(0));
        d.chan_recv(T1, S, ChanId(0));
        d.write(T0, SiteId(1), X);
        assert!(d.races().contains(SiteId(2), SiteId(1)));
    }

    #[test]
    fn different_channels_do_not_order() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.chan_send(T0, S, ChanId(0));
        d.chan_recv(T1, S, ChanId(1));
        d.write(T1, SiteId(2), X);
        assert_eq!(d.races().distinct_count(), 1);
    }

    #[test]
    fn spawn_orders_parent_before_child() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.spawn(T0, S, T1);
        d.read(T1, SiteId(2), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut d = ft(2);
        d.spawn(T0, S, T1);
        d.write(T1, SiteId(1), X);
        d.join(T0, S, T1);
        d.read(T0, SiteId(2), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn init_idiom_without_sync_is_a_race() {
        // The bodytrack/facesim pattern: init early, read much later, no
        // happens-before edge. Temporal distance is irrelevant to HB.
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        for i in 0..1000 {
            d.write(T0, SiteId(10), Addr(0x4000 + i * 8));
        }
        d.read(T1, SiteId(2), X);
        assert!(d.races().contains(SiteId(1), SiteId(2)));
    }

    #[test]
    fn barrier_orders_all_participants() {
        let mut d = ft(3);
        d.write(T0, SiteId(1), X);
        d.barrier_release(
            BarrierId(0),
            &[(T0, SiteId(5)), (T1, SiteId(5)), (T2, SiteId(5))],
        );
        d.write(T1, SiteId(2), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn concurrent_readers_all_race_with_later_write() {
        let mut d = ft(3);
        d.read(T0, SiteId(1), X);
        d.read(T1, SiteId(2), X);
        d.write(T2, SiteId(3), X);
        assert_eq!(d.races().distinct_count(), 2);
        assert!(d.races().contains(SiteId(1), SiteId(3)));
        assert!(d.races().contains(SiteId(2), SiteId(3)));
    }

    #[test]
    fn same_epoch_accesses_are_cheap_and_racefree() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.write(T0, SiteId(1), X);
        d.read(T0, SiteId(2), X);
        d.read(T0, SiteId(2), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn race_reported_once_per_static_pair() {
        let mut d = ft(2);
        for i in 0..10 {
            let a = Addr(0x1000 + i * 64);
            d.write(T0, SiteId(1), a);
            d.write(T1, SiteId(2), a);
        }
        assert_eq!(d.races().distinct_count(), 1);
    }

    #[test]
    fn word_granularity_filters_false_sharing() {
        // Two variables in one cache line: HTM would conflict; HB must not.
        let mut d = ft(2);
        d.write(T0, SiteId(1), Addr(0x400));
        d.write(T1, SiteId(2), Addr(0x408));
        assert!(d.races().is_empty());
    }

    #[test]
    fn cells_mode_can_miss_reader_races() {
        // With 1 reader cell and many readers, eviction loses readers, so
        // some read-write races with a later write can be missed; with
        // Exact mode all 8 are found.
        let readers = 8u32;
        let run = |mode: ShadowMode| {
            let mut d = FastTrack::new(readers as usize + 1, mode);
            for u in 0..readers {
                d.read(ThreadId(u), SiteId(u + 1), X);
            }
            d.write(ThreadId(readers), SiteId(100), X);
            d.races().distinct_count()
        };
        assert_eq!(run(ShadowMode::Exact), readers as usize);
        let cells = run(ShadowMode::Cells {
            per_granule: 1,
            seed: 42,
        });
        assert!(
            cells < readers as usize,
            "eviction should lose races, found {cells}"
        );
    }

    #[test]
    fn release_increments_own_clock() {
        let mut d = ft(2);
        let before = d.sync().clock(T0).get(T0);
        d.acquire(T0, S, LockId(0));
        d.release(T0, S, LockId(0));
        assert_eq!(d.sync().clock(T0).get(T0), before + 1);
        assert_eq!(d.sync_ops(), 2);
    }

    #[test]
    fn checks_counter_counts_accesses() {
        let mut d = ft(2);
        d.write(T0, SiteId(1), X);
        d.read(T0, SiteId(2), X);
        assert_eq!(d.checks(), 2);
    }
}
