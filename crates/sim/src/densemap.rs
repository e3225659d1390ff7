//! A paged first-touch map from raw addresses to dense `u32` ids.
//!
//! Programs lay their variables out over a raw address space whose *span*
//! (one past the highest address) can be hundreds of times larger than the
//! set of addresses actually touched — arrays reserve their full footprint
//! but a run may only graze them. A flat `Vec` indexed by `Addr.0` would
//! pay O(span) allocation and zeroing per run, which dominates short
//! workloads. [`AddrMap`] instead keeps a two-level page table: the top
//! level costs 8 bytes per [`PAGE_SIZE`] addresses of span, and 16 KiB id
//! pages are allocated only where addresses are actually resolved.
//! Resolution is two array indexes — no hashing — and ids come out dense
//! and in first-touch order, so payload tables keyed by them stay
//! O(touched).

use crate::addr::Addr;

/// log2 of the page size.
const PAGE_BITS: usize = 12;
/// Addresses covered by one id page.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Maps raw addresses to dense ids (`0..len`) assigned in first-touch
/// order. Ids are stable once assigned and never reused.
#[derive(Debug, Clone, Default)]
pub struct AddrMap {
    /// `pages[a >> PAGE_BITS][a & (PAGE_SIZE-1)]` holds `id + 1`
    /// (0 marks "never resolved").
    pages: Vec<Option<Box<[u32; PAGE_SIZE]>>>,
    len: u32,
}

impl AddrMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `a`, or `None` if it was never resolved.
    #[inline]
    pub fn get(&self, a: Addr) -> Option<u32> {
        let i = a.0 as usize;
        match self.pages.get(i >> PAGE_BITS) {
            Some(Some(page)) => {
                let v = page[i & (PAGE_SIZE - 1)];
                (v != 0).then(|| v - 1)
            }
            _ => None,
        }
    }

    /// The id of `a`, assigning the next dense id on first touch.
    #[inline]
    pub fn resolve(&mut self, a: Addr) -> u32 {
        let i = a.0 as usize;
        let p = i >> PAGE_BITS;
        if p >= self.pages.len() {
            self.pages.resize(p + 1, None);
        }
        let page = self.pages[p].get_or_insert_with(|| Box::new([0; PAGE_SIZE]));
        let slot = &mut page[i & (PAGE_SIZE - 1)];
        if *slot == 0 {
            self.len += 1;
            *slot = self.len;
        }
        *slot - 1
    }

    /// Number of distinct addresses resolved so far.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if nothing was resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_touch_ordered() {
        let mut m = AddrMap::new();
        assert_eq!(m.resolve(Addr(0x9000)), 0);
        assert_eq!(m.resolve(Addr(8)), 1);
        assert_eq!(m.resolve(Addr(0x9000)), 0, "stable on re-resolve");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(Addr(8)), Some(1));
        assert_eq!(m.get(Addr(16)), None);
    }

    #[test]
    fn get_never_allocates_pages() {
        let m = AddrMap::new();
        assert_eq!(m.get(Addr(1 << 30)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn spans_multiple_pages() {
        let mut m = AddrMap::new();
        let a = Addr((PAGE_SIZE - 1) as u64);
        let b = Addr(PAGE_SIZE as u64);
        assert_eq!(m.resolve(a), 0);
        assert_eq!(m.resolve(b), 1);
        assert_eq!(m.get(a), Some(0));
        assert_eq!(m.get(b), Some(1));
    }
}
