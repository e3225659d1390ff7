//! The simulated shared memory and the whole-transaction undo log
//! ([`WriteJournal`]) the HTM's eager stores are versioned with.

use std::fmt;
use std::sync::Arc;

use crate::addr::Addr;
use crate::paged::PagedTable;

/// A word-granular shared memory, paged so its footprint is proportional
/// to the addresses actually touched rather than to the program's address
/// span (arrays reserve footprints far larger than what short runs
/// touch). Unwritten addresses read as 0.
///
/// Values live in one `PagedTable` and the written bits (distinguishing
/// "never written" from "written 0") in another, keyed by `a / 64`. A
/// load is two array indexes, no hashing and no tree walk. Equality and
/// iteration consider only cells that were actually written, so two
/// memories with different page layouts but the same written cells
/// compare equal.
#[derive(Clone, Default)]
pub struct Memory {
    vals: PagedTable<u64>,
    /// Bit `a % 64` of word `a / 64` is set once `a` is written.
    written: PagedTable<u64>,
    /// Number of distinct written cells.
    count: usize,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the 8-byte word at `a` (0 if never written).
    #[inline]
    pub fn load(&self, a: Addr) -> u64 {
        self.vals.get(a.0 as usize)
    }

    #[inline]
    fn is_written(&self, i: usize) -> bool {
        self.written.get(i / 64) & (1 << (i % 64)) != 0
    }

    /// Stores `v` into the 8-byte word at `a`.
    #[inline]
    pub fn store(&mut self, a: Addr, v: u64) {
        self.replace(a.0 as usize, v);
    }

    /// Stores `v` at address `i`, returning the cell's previous value and
    /// whether it was written before.
    #[inline]
    fn replace(&mut self, i: usize, v: u64) -> (u64, bool) {
        let prev = std::mem::replace(self.vals.slot(i), v);
        let (word, bit) = (self.written.slot(i / 64), 1 << (i % 64));
        let was_written = *word & bit != 0;
        *word |= bit;
        self.count += usize::from(!was_written);
        (prev, was_written)
    }

    /// Iterates over every written cell in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        // Every written cell lies in an allocated value page, so only
        // those pages' words of written bits are read.
        let words = self.vals.allocated().flat_map(|r| r.start / 64..r.end / 64);
        words.flat_map(move |w| {
            // The set bits of one written word, lowest first.
            let mut bits = self.written.get(w);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    (Addr(i as u64), self.vals.get(i))
                })
            })
        })
    }

    /// Number of distinct written cells.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no cell was ever written.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Stores `v` at `a` while appending the cell's previous state to
    /// `journal`, so the store can later be undone by
    /// [`WriteJournal::rollback`]. This is the write primitive of the
    /// eager (undo-log) transactional versioning: the store lands in
    /// memory immediately and rollback costs O(stores journaled), never
    /// O(heap).
    #[inline]
    pub fn store_logged(&mut self, a: Addr, v: u64, journal: &mut WriteJournal) {
        let (prev, was_written) = self.replace(a.0 as usize, v);
        journal.entries.push(JournalEntry {
            addr: a,
            prev,
            was_written,
        });
    }

    /// Reverts a journaled cell to its previous state. A cell that
    /// was never written before the journaled store returns to pristine:
    /// value zeroed, written bit cleared, count decremented — required
    /// because [`Memory::load`], equality, and iteration must all agree
    /// with a memory that never saw the store.
    fn unstore(&mut self, e: JournalEntry) {
        let i = e.addr.0 as usize;
        if e.was_written {
            self.store(e.addr, e.prev);
        } else if self.is_written(i) {
            *self.vals.slot(i) = 0;
            *self.written.slot(i / 64) &= !(1 << (i % 64));
            self.count -= 1;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    addr: Addr,
    prev: u64,
    was_written: bool,
}

/// A whole-transaction undo log over [`Memory`]: every
/// [`Memory::store_logged`] appends the overwritten cell's previous
/// state, so a transaction's stores can be undone in O(stores) — the
/// snapshot that replaces O(heap) memory clones on the transactional
/// fast path.
///
/// A hardware transaction commits or aborts as a whole, so the log has
/// two operations: [`rollback`](WriteJournal::rollback) undoes every
/// store, [`clear`](WriteJournal::clear) keeps them all.
#[derive(Debug, Clone, Default)]
pub struct WriteJournal {
    entries: Vec<JournalEntry>,
}

impl WriteJournal {
    /// Undoes every journaled store, newest first (so overlapping stores
    /// of the same address unwind correctly), restoring `mem` to its exact
    /// state before the first one — including written-bit and cell-count
    /// bookkeeping for cells the log touched first — and leaves the log
    /// empty. O(stores).
    pub fn rollback(&mut self, mem: &mut Memory) {
        self.entries.drain(..).rev().for_each(|e| mem.unstore(e));
    }

    /// Drops all entries, keeping the stores in memory and the capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.iter().eq(other.iter())
    }
}

impl Eq for Memory {}

/// Compares with a shared memory, such as a run outcome's.
impl PartialEq<Arc<Memory>> for Memory {
    fn eq(&self, other: &Arc<Memory>) -> bool {
        self == &**other
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.load(Addr(0x40)), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn store_then_load() {
        let mut m = Memory::new();
        m.store(Addr(8), 7);
        m.store(Addr(8), 9);
        assert_eq!(m.load(Addr(8)), 9);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_address_ordered() {
        let mut m = Memory::new();
        m.store(Addr(128), 1);
        m.store(Addr(0), 2);
        m.store(Addr(64), 3);
        let order: Vec<u64> = m.iter().map(|(a, _)| a.0).collect();
        assert_eq!(order, vec![0, 64, 128]);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.store(Addr(0x400), 1); // forces a large table
        a.store(Addr(8), 5);
        b.store(Addr(8), 5);
        assert_ne!(a, b);
        b.store(Addr(0x400), 1);
        assert_eq!(a, b);
        // A written zero is distinct from an unwritten cell.
        a.store(Addr(16), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_prints_written_cells() {
        let mut m = Memory::new();
        m.store(Addr(8), 5);
        assert_eq!(format!("{m:?}"), "{Addr(8): 5}");
    }

    #[test]
    fn journal_rollback_restores_exact_state() {
        let mut m = Memory::new();
        let mut j = WriteJournal::default();
        m.store(Addr(8), 1);
        let before = m.clone();
        m.store_logged(Addr(8), 2, &mut j); // overwrite
        m.store_logged(Addr(64), 3, &mut j); // fresh cell
        m.store_logged(Addr(8), 4, &mut j); // overwrite again
        assert_eq!(m.load(Addr(8)), 4);
        assert_eq!(m.len(), 2);
        j.rollback(&mut m);
        assert_eq!(m, before, "rollback must be exact, incl. count/bits");
        assert_eq!(m.load(Addr(64)), 0);
        assert_eq!(m.len(), 1);
        // The log is empty: a second rollback leaves a later store alone.
        m.store(Addr(64), 5);
        j.rollback(&mut m);
        assert_eq!(m.load(Addr(64)), 5);
    }

    #[test]
    fn journal_rollback_unwrites_fresh_zero_stores() {
        let mut m = Memory::new();
        let mut j = WriteJournal::default();
        m.store_logged(Addr(16), 0, &mut j); // a written zero is a state change
        assert_eq!(m.len(), 1);
        j.rollback(&mut m);
        assert!(m.is_empty(), "written-zero must become unwritten again");
        assert_eq!(m, Memory::new());
    }
}
