//! A reference happens-before detector using full vector clocks for every
//! variable (the DJIT+ design FastTrack was proven equivalent to).
//!
//! It exists to property-check [`crate::FastTrack`]: both detectors must
//! flag the same set of *racy variables* on any trace (FastTrack's epoch
//! compression can merge which static pair is blamed first, but never
//! which variables race).

use txrace_sim::{Addr, AddrMap, BarrierId, ChanId, CondId, LockId, SiteId, ThreadId};

use crate::clock::VectorClock;
use crate::report::{AccessInfo, AccessKind, RaceReport, RaceSet};

/// One thread's slice of a variable's access history: the clock and site
/// of that thread's last write and last read (clock 0 = none). Packing
/// all four into 16 bytes keeps a whole variable's history on one or two
/// cache lines instead of four separate arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    w: u32,
    r: u32,
    w_site: SiteId,
    r_site: SiteId,
}

/// The full-vector-clock (DJIT+-style) reference detector. Same API shape
/// as [`crate::FastTrack`].
///
/// Shadow state is a flat table keyed by dense first-touch ids: variable
/// `v`'s per-thread `Cell`s live at `[v*n, (v+1)*n)`. An untouched
/// variable reads as all-zero clocks — exactly what the old
/// lazily-inserted per-variable record held, so every race decision and
/// report is unchanged.
#[derive(Debug)]
pub struct VectorClockDetector {
    n: usize,
    clocks: Vec<VectorClock>,
    locks: Vec<VectorClock>,
    conds: Vec<VectorClock>,
    chans: Vec<VectorClock>,
    barriers: Vec<VectorClock>,
    /// `Addr -> dense variable id`, assigned on first access.
    shadow_ids: AddrMap,
    cells: Vec<Cell>,
    races: RaceSet,
}

impl VectorClockDetector {
    /// Creates a detector for `threads` threads.
    pub fn new(threads: usize) -> Self {
        VectorClockDetector {
            n: threads,
            clocks: (0..threads)
                .map(|t| VectorClock::initial(ThreadId(t as u32), threads))
                .collect(),
            locks: Vec::new(),
            conds: Vec::new(),
            chans: Vec::new(),
            barriers: Vec::new(),
            shadow_ids: AddrMap::new(),
            cells: Vec::new(),
            races: RaceSet::new(),
        }
    }

    /// The base offset of `addr`'s per-thread cells, growing the flat
    /// table by one variable (n zeroed cells) on first touch.
    #[inline]
    fn shadow_base(&mut self, addr: Addr) -> usize {
        let i = self.shadow_ids.resolve(addr) as usize;
        let base = i * self.n;
        if base == self.cells.len() {
            self.cells.resize(base + self.n, Cell::default());
        }
        base
    }

    /// Races found so far.
    pub fn races(&self) -> &RaceSet {
        &self.races
    }

    fn sync_vc(table: &mut Vec<VectorClock>, idx: usize, n: usize) -> &mut VectorClock {
        if table.len() <= idx {
            table.resize(idx + 1, VectorClock::zero(n));
        }
        &mut table[idx]
    }

    /// Checks a read.
    pub fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        let n = self.n;
        let base = self.shadow_base(addr);
        let ct = self.clocks[t.index()].as_slice();
        let cells = &self.cells[base..base + n];
        for (u, (cell, &cu)) in cells.iter().zip(ct).enumerate() {
            if u == t.index() || cell.w == 0 {
                continue;
            }
            if cell.w > cu {
                self.races.record(RaceReport {
                    addr,
                    prior: AccessInfo {
                        site: cell.w_site,
                        thread: ThreadId(u as u32),
                        kind: AccessKind::Write,
                    },
                    current: AccessInfo {
                        site,
                        thread: t,
                        kind: AccessKind::Read,
                    },
                });
            }
        }
        // Keep the *first* site of each epoch (FastTrack's same-epoch
        // shortcut has the same blame behaviour).
        let me = ct[t.index()];
        let mine = &mut self.cells[base + t.index()];
        if mine.r != me {
            mine.r_site = site;
        }
        mine.r = me;
    }

    /// Checks a write.
    pub fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        let n = self.n;
        let base = self.shadow_base(addr);
        let ct = self.clocks[t.index()].as_slice();
        let cells = &self.cells[base..base + n];
        for (u, (cell, &cu)) in cells.iter().zip(ct).enumerate() {
            if u == t.index() {
                continue;
            }
            if cell.w > 0 && cell.w > cu {
                self.races.record(RaceReport {
                    addr,
                    prior: AccessInfo {
                        site: cell.w_site,
                        thread: ThreadId(u as u32),
                        kind: AccessKind::Write,
                    },
                    current: AccessInfo {
                        site,
                        thread: t,
                        kind: AccessKind::Write,
                    },
                });
            }
            if cell.r > 0 && cell.r > cu {
                self.races.record(RaceReport {
                    addr,
                    prior: AccessInfo {
                        site: cell.r_site,
                        thread: ThreadId(u as u32),
                        kind: AccessKind::Read,
                    },
                    current: AccessInfo {
                        site,
                        thread: t,
                        kind: AccessKind::Write,
                    },
                });
            }
        }
        // First-in-epoch blame, mirroring FastTrack's same-epoch shortcut.
        let me = ct[t.index()];
        let mine = &mut self.cells[base + t.index()];
        if mine.w != me {
            mine.w_site = site;
        }
        mine.w = me;
    }

    /// Tracks a mutex acquire.
    pub fn lock_acquire(&mut self, t: ThreadId, l: LockId) {
        let vc = Self::sync_vc(&mut self.locks, l.index(), self.n);
        self.clocks[t.index()].join(vc);
    }

    /// Tracks a mutex release.
    pub fn lock_release(&mut self, t: ThreadId, l: LockId) {
        let ct = self.clocks[t.index()].clone();
        Self::sync_vc(&mut self.locks, l.index(), self.n).join(&ct);
        self.clocks[t.index()].inc(t);
    }

    /// Tracks a semaphore post.
    pub fn signal(&mut self, t: ThreadId, c: CondId) {
        let ct = self.clocks[t.index()].clone();
        Self::sync_vc(&mut self.conds, c.index(), self.n).join(&ct);
        self.clocks[t.index()].inc(t);
    }

    /// Tracks a satisfied semaphore wait.
    pub fn wait(&mut self, t: ThreadId, c: CondId) {
        let vc = Self::sync_vc(&mut self.conds, c.index(), self.n);
        self.clocks[t.index()].join(vc);
    }

    /// Tracks a channel send (release semantics, like
    /// [`signal`](VectorClockDetector::signal); the send→recv edge is
    /// unidirectional — no backpressure edge).
    pub fn chan_send(&mut self, t: ThreadId, ch: ChanId) {
        let ct = self.clocks[t.index()].clone();
        Self::sync_vc(&mut self.chans, ch.index(), self.n).join(&ct);
        self.clocks[t.index()].inc(t);
    }

    /// Tracks a channel receive (acquire semantics).
    pub fn chan_recv(&mut self, t: ThreadId, ch: ChanId) {
        let vc = Self::sync_vc(&mut self.chans, ch.index(), self.n);
        self.clocks[t.index()].join(vc);
    }

    /// Tracks a spawn.
    pub fn spawn(&mut self, parent: ThreadId, child: ThreadId) {
        let cp = self.clocks[parent.index()].clone();
        self.clocks[child.index()].join(&cp);
        self.clocks[parent.index()].inc(parent);
    }

    /// Tracks a join.
    pub fn join(&mut self, parent: ThreadId, child: ThreadId) {
        let cc = self.clocks[child.index()].clone();
        self.clocks[parent.index()].join(&cc);
    }

    /// Tracks a barrier release over its recorded arrival list.
    pub fn barrier_arrivals(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
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

/// The reference detector as a pure trace consumer, mirroring the
/// [`FastTrack`](crate::FastTrack) mapping (atomic RMWs unchecked) so
/// the two implementations stay comparable event-for-event under both
/// live and replayed driving.
impl txrace_sim::TraceConsumer for VectorClockDetector {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        VectorClockDetector::read(self, t, site, addr);
    }

    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        VectorClockDetector::write(self, t, site, addr);
    }

    fn acquire(&mut self, t: ThreadId, _site: SiteId, l: LockId) {
        self.lock_acquire(t, l);
    }

    fn release(&mut self, t: ThreadId, _site: SiteId, l: LockId) {
        self.lock_release(t, l);
    }

    fn signal(&mut self, t: ThreadId, _site: SiteId, c: CondId) {
        VectorClockDetector::signal(self, t, c);
    }

    fn wait(&mut self, t: ThreadId, _site: SiteId, c: CondId) {
        VectorClockDetector::wait(self, t, c);
    }

    fn spawn(&mut self, t: ThreadId, _site: SiteId, child: ThreadId) {
        VectorClockDetector::spawn(self, t, child);
    }

    fn join(&mut self, t: ThreadId, _site: SiteId, child: ThreadId) {
        VectorClockDetector::join(self, t, child);
    }

    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.barrier_arrivals(b, arrivals);
    }

    fn chan_send(&mut self, t: ThreadId, _site: SiteId, ch: ChanId) {
        VectorClockDetector::chan_send(self, t, ch);
    }

    fn chan_recv(&mut self, t: ThreadId, _site: SiteId, ch: ChanId) {
        VectorClockDetector::chan_recv(self, t, ch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const X: Addr = Addr(0x800);

    #[test]
    fn detects_plain_write_write_race() {
        let mut d = VectorClockDetector::new(2);
        d.write(T0, SiteId(1), X);
        d.write(T1, SiteId(2), X);
        assert_eq!(d.races().distinct_count(), 1);
    }

    #[test]
    fn lock_discipline_is_race_free() {
        let mut d = VectorClockDetector::new(2);
        d.lock_acquire(T0, LockId(0));
        d.write(T0, SiteId(1), X);
        d.lock_release(T0, LockId(0));
        d.lock_acquire(T1, LockId(0));
        d.read(T1, SiteId(2), X);
        d.lock_release(T1, LockId(0));
        assert!(d.races().is_empty());
    }

    #[test]
    fn chan_send_recv_orders() {
        let mut d = VectorClockDetector::new(2);
        d.write(T0, SiteId(1), X);
        d.chan_send(T0, ChanId(0));
        d.chan_recv(T1, ChanId(0));
        d.write(T1, SiteId(2), X);
        assert!(d.races().is_empty());
    }

    #[test]
    fn remembers_older_writes_per_thread() {
        // Unlike FastTrack's single write epoch, DJIT+ keeps per-thread
        // writes; a third access ordered after only one of two racy writes
        // still races with the other.
        let mut d = VectorClockDetector::new(3);
        d.write(T0, SiteId(1), X);
        d.write(T1, SiteId(2), X); // races with site 1
        d.signal(T1, CondId(0));
        d.wait(ThreadId(2), CondId(0));
        d.read(ThreadId(2), SiteId(3), X); // ordered after site 2, races with site 1
        assert_eq!(d.races().distinct_count(), 2);
        assert!(d.races().contains(SiteId(1), SiteId(3)));
    }
}
