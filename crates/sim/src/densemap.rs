//! A first-touch map from word-aligned addresses to dense `u32` ids.
//!
//! Programs lay their variables out over a raw address space whose span
//! can be hundreds of times larger than the set of addresses actually
//! touched, so [`AddrMap`] keeps its ids in a `PagedTable` keyed by
//! [`Addr::word`]: pages are allocated only where addresses are actually
//! resolved. Resolution is two array indexes, no hashing, and ids come
//! out dense and in first-touch order, so payload tables keyed by them
//! stay O(touched).

use crate::addr::Addr;
use crate::paged::PagedTable;

/// Maps word-aligned addresses to dense ids (`0..len`) assigned in
/// first-touch order. Ids are stable once assigned and never reused.
#[derive(Debug, Clone, Default)]
pub struct AddrMap {
    /// `id + 1` per word (0 marks "never resolved").
    ids: PagedTable<u32>,
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
        let v = self.ids.get(a.word());
        (v != 0).then(|| v - 1)
    }

    /// The id of `a`, assigning the next dense id on first touch.
    #[inline]
    pub fn resolve(&mut self, a: Addr) -> u32 {
        let slot = self.ids.slot(a.word());
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
    fn line_separated_scalars_share_one_page() {
        // One id page covers 512 scalars laid out one per 64-byte line;
        // byte keys would need 8 pages.
        let mut m = AddrMap::new();
        for i in 0..512u64 {
            assert_eq!(m.resolve(Addr(i * 64)), i as u32);
        }
        assert_eq!(m.ids.allocated().count(), 1);
    }

    #[test]
    fn get_never_allocates_pages() {
        let m = AddrMap::new();
        assert_eq!(m.get(Addr(1 << 30)), None);
        assert!(m.is_empty());
    }
}
