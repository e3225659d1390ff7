//! A two-level page table over `usize` indexes: the one page geometry
//! behind [`crate::Memory`] and [`crate::AddrMap`], which both index it
//! by 8-byte word ([`crate::Addr::word`]), so one page spans 32 KiB of
//! address space (512 cache lines).
//!
//! Programs lay their variables out over a raw address space whose span
//! (one past the highest address) can be hundreds of times larger than
//! the set of addresses actually touched: arrays reserve their full
//! footprint, but a run may only graze them. A flat `Vec` indexed by
//! word would pay O(span) allocation per run. [`PagedTable`] instead
//! keeps a top level of 8 bytes per [`PAGE_SIZE`] indexes of span, grown
//! on first touch, and allocates a page of [`PAGE_SIZE`] slots only where
//! a slot is actually written. A lookup is two array indexes, no hashing.
//!
//! A fresh page is `vec![T::default(); SIZE]`; for integer `T` the
//! standard library allocates it zeroed, so it is not written at
//! allocation. The page size is a parameter, [`PAGE_SIZE`] slots by
//! default: a table whose slots each summarize 64 slots of another (the
//! written bits of `Memory`) uses pages 64 times smaller, so that each of
//! its pages covers exactly one page of the table it summarizes.

use std::ops::Range;

/// log2 of the slots per page.
const PAGE_BITS: usize = 12;
/// Slots covered by one page.
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_BITS;

// A page's index range covers whole 64-bit words of a bitset keyed by
// `i / 64`, which is how `Memory` walks its written bits page by page.
const _: () = assert!(PAGE_SIZE.is_multiple_of(64));

/// A sparse `usize`-indexed table whose unallocated slots read as
/// `T::default()`, in pages of `SIZE` slots (a power of two).
#[derive(Debug, Clone)]
pub(crate) struct PagedTable<T, const SIZE: usize = PAGE_SIZE> {
    /// `pages[i / SIZE][i % SIZE]` holds slot `i`; a page is allocated
    /// on its first [`slot`](PagedTable::slot).
    pages: Vec<Option<Box<[T; SIZE]>>>,
}

impl<T, const SIZE: usize> Default for PagedTable<T, SIZE> {
    fn default() -> Self {
        PagedTable { pages: Vec::new() }
    }
}

impl<T: Copy + Default, const SIZE: usize> PagedTable<T, SIZE> {
    const POWER_OF_TWO: () = assert!(SIZE.is_power_of_two());

    /// Slot `i`, or `T::default()` when its page was never allocated.
    /// Never allocates.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        match self.pages.get(i / SIZE) {
            Some(Some(page)) => page[i % SIZE],
            _ => T::default(),
        }
    }

    /// Slot `i` for writing, allocating its page (and growing the top
    /// level) on first touch.
    #[inline]
    pub(crate) fn slot(&mut self, i: usize) -> &mut T {
        let () = Self::POWER_OF_TWO;
        let p = i / SIZE;
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| {
            vec![T::default(); SIZE]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("a page is SIZE slots"))
        });
        &mut page[i % SIZE]
    }

    /// The index range of every allocated page, in index order. Every
    /// slot ever returned by [`slot`](PagedTable::slot) lies in one.
    pub(crate) fn allocated(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, page)| page.is_some())
            .map(|(p, _)| p * SIZE..(p + 1) * SIZE)
    }

    /// Entries in the top level (one past the highest touched page).
    #[cfg(test)]
    pub(crate) fn top_level_len(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::{AddrMap, Memory};

    #[test]
    fn unallocated_slots_read_default_without_allocating() {
        let t = PagedTable::<u32>::default();
        assert_eq!(t.get(1 << 30), 0);
        assert!(t.pages.is_empty());
    }

    #[test]
    fn first_touch_allocates_one_zeroed_page() {
        let mut t = PagedTable::<u64>::default();
        *t.slot(3 * PAGE_SIZE + 5) = 9;
        assert_eq!(t.pages.len(), 4, "the top level grows to the touched page");
        assert_eq!(t.pages.iter().filter(|p| p.is_some()).count(), 1);
        assert_eq!(t.get(3 * PAGE_SIZE + 5), 9);
        assert_eq!(t.get(3 * PAGE_SIZE + 4), 0);
    }

    #[test]
    fn allocated_pages_are_walked_in_index_order() {
        let mut t = PagedTable::<u64>::default();
        *t.slot(2 * PAGE_SIZE + 1) = 7;
        *t.slot(3) = 1;
        let pages: Vec<Range<usize>> = t.allocated().collect();
        assert_eq!(pages, vec![0..PAGE_SIZE, 2 * PAGE_SIZE..3 * PAGE_SIZE]);
    }

    #[test]
    fn iteration_crosses_pages_in_order() {
        let mut m = Memory::new();
        let hi = Addr((3 * PAGE_SIZE + 5) as u64 * 8);
        m.store(hi, 9);
        m.store(Addr(16), 1);
        let order: Vec<u64> = m.iter().map(|(a, _)| a.0).collect();
        assert_eq!(order, vec![16, hi.0]);
        assert_eq!(m.load(hi), 9);
    }

    #[test]
    fn spans_multiple_pages() {
        let mut m = AddrMap::new();
        let a = Addr((PAGE_SIZE - 1) as u64 * 8);
        let b = Addr(PAGE_SIZE as u64 * 8);
        assert_eq!(m.resolve(a), 0);
        assert_eq!(m.resolve(b), 1);
        assert_eq!(m.get(a), Some(0));
        assert_eq!(m.get(b), Some(1));
    }
}
