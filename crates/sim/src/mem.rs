//! The simulated shared memory and the whole-transaction undo log
//! ([`WriteJournal`]) the HTM's eager stores are versioned with.

use std::fmt;
use std::sync::Arc;

use crate::addr::Addr;
use crate::paged::{PagedTable, PAGE_SIZE};

/// Entries per page of written bits: each covers one page of values.
const WRITTEN_PAGE: usize = PAGE_SIZE / 64;

/// A word-granular shared memory, paged so its footprint is proportional
/// to the words actually touched rather than to the program's address
/// span (arrays reserve footprints far larger than what short runs
/// touch). Unwritten words read as 0. Addresses must be 8-byte aligned
/// (see [`Addr::word`]).
///
/// Values live in one `PagedTable` keyed by word index `w`, and the
/// written bits (distinguishing "never written" from "written 0") in
/// another, keyed by `w / 64`, whose pages are 64 times smaller: one
/// 512-byte block of bits per 32 KiB page of values. A load is two array
/// indexes, no hashing and no tree walk. Equality and iteration consider only cells that
/// were actually written, so two memories with different page layouts
/// but the same written cells compare equal.
#[derive(Clone, Default)]
pub struct Memory {
    vals: PagedTable<u64>,
    /// Bit `w % 64` of entry `w / 64` is set once word `w` is written.
    written: PagedTable<u64, WRITTEN_PAGE>,
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
        self.vals.get(a.word())
    }

    #[inline]
    fn is_written(&self, w: usize) -> bool {
        self.written.get(w / 64) & (1 << (w % 64)) != 0
    }

    /// Stores `v` into the 8-byte word at `a`.
    #[inline]
    pub fn store(&mut self, a: Addr, v: u64) {
        self.replace(a.word(), v);
    }

    /// Stores `v` into word `w`, returning the cell's previous value and
    /// whether it was written before.
    #[inline]
    fn replace(&mut self, w: usize, v: u64) -> (u64, bool) {
        let prev = std::mem::replace(self.vals.slot(w), v);
        let (bits, bit) = (self.written.slot(w / 64), 1 << (w % 64));
        let was_written = *bits & bit != 0;
        *bits |= bit;
        self.count += usize::from(!was_written);
        (prev, was_written)
    }

    /// Iterates over every written cell in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        // Every written cell lies in an allocated value page, so only
        // those pages' entries of written bits are read.
        let entries = self.vals.allocated().flat_map(|r| r.start / 64..r.end / 64);
        entries.flat_map(move |e| {
            // The set bits of one entry, lowest first.
            let mut bits = self.written.get(e);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let w = e * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    (Addr((w as u64) << 3), self.vals.get(w))
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
        let (prev, was_written) = self.replace(a.word(), v);
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
        let w = e.addr.word();
        if e.was_written {
            self.store(e.addr, e.prev);
        } else if self.is_written(w) {
            *self.vals.slot(w) = 0;
            *self.written.slot(w / 64) &= !(1 << (w % 64));
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
    fn line_separated_scalars_share_one_page() {
        // 512 scalars one per 64-byte line, as `ProgramBuilder::var` lays
        // them out: one page of values and one of written bits. Keyed by
        // byte address, the same values would need 8 pages.
        let mut m = Memory::new();
        let mut by_byte = PagedTable::<u64>::default();
        for i in 0..512u64 {
            m.store(Addr(i * 64), i);
            *by_byte.slot((i * 64) as usize) = i;
        }
        assert_eq!(m.vals.allocated().count(), 1);
        assert_eq!(m.written.allocated().count(), 1);
        assert_eq!(by_byte.allocated().count(), 8);
        assert_eq!(m.len(), 512);
    }

    #[test]
    fn top_address_bounds_the_top_level() {
        // The highest loggable word lies in page 2^17 - 1, so the top
        // level holds 2^17 entries (1 MiB), not the 2^20 of byte keys.
        let mut m = Memory::new();
        m.store(Addr(crate::MAX_LOG_ADDR - 8), 1);
        assert_eq!(m.vals.top_level_len(), 1 << 17);
        assert_eq!(m.vals.allocated().count(), 1);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            [(Addr(crate::MAX_LOG_ADDR - 8), 1)]
        );
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
