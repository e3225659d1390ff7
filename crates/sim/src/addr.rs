//! Byte addresses, 8-byte words and the cache-line model.
//!
//! Intel RTM detects conflicts at cache-line granularity (64 bytes on
//! Haswell). The HTM simulation therefore maps every address to a
//! [`CacheLine`]; software happens-before detection works on exact
//! words, which is how the slow path filters false sharing.
//!
//! Every variable is an aligned 8-byte word: the API speaks byte
//! addresses, but every address-keyed table (memory values, shadow
//! indexes) is keyed by [`Addr::word`]. `ProgramBuilder::build` and
//! `EventLog::from_bytes` refuse unaligned addresses, so two byte
//! addresses never share a word's cell.

use std::fmt;

/// Cache line size in bytes, matching the Intel Haswell L1D line size the
/// paper relies on.
pub const LINE_BYTES: u64 = 64;

/// Word size in bytes: every variable is one aligned word.
pub const WORD_BYTES: u64 = 8;

/// A byte address in the simulated shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> CacheLine {
        CacheLine(self.0 / LINE_BYTES)
    }

    /// The index of the 8-byte word at this address: the key of every
    /// address-keyed table. The address must be word-aligned.
    #[inline]
    pub fn word(self) -> usize {
        debug_assert!(self.is_aligned(), "unaligned address {self}");
        (self.0 >> 3) as usize
    }

    /// True if this address starts an 8-byte word.
    #[inline]
    pub fn is_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }

    /// Returns the address offset by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A 64-byte cache line index (address divided by [`LINE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheLine(pub u64);

impl CacheLine {
    /// First byte address of this line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }
}

impl fmt::Display for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An allocator for laying out named variables in the simulated address
/// space with control over cache-line placement.
///
/// Workloads use this to plant *false sharing*: distinct variables placed
/// in one cache line trigger HTM conflicts without being true races, which
/// the slow path must filter out.
///
/// ```
/// use txrace_sim::VarLayout;
/// let mut layout = VarLayout::new();
/// let a = layout.fresh_line();
/// let b = layout.same_line(a, 8);
/// let c = layout.fresh_line();
/// assert_eq!(a.line(), b.line());
/// assert_ne!(a.line(), c.line());
/// ```
#[derive(Debug, Clone)]
pub struct VarLayout {
    next_line: u64,
}

impl Default for VarLayout {
    fn default() -> Self {
        Self::new()
    }
}

impl VarLayout {
    /// Creates a layout starting above the reserved low address range
    /// (low lines are reserved for runtime-internal variables such as the
    /// `TxFail` flag).
    pub fn new() -> Self {
        VarLayout { next_line: 16 }
    }

    /// Allocates an 8-byte variable at the start of a previously unused
    /// cache line.
    pub fn fresh_line(&mut self) -> Addr {
        let a = CacheLine(self.next_line).base();
        self.next_line += 1;
        a
    }

    /// Allocates a variable in the same cache line as `base`, at the given
    /// byte offset within the line.
    ///
    /// # Panics
    ///
    /// Panics if `offset_in_line` does not stay within one line (must be
    /// `< 64`) or is not 8-byte aligned.
    pub fn same_line(&mut self, base: Addr, offset_in_line: u64) -> Addr {
        assert!(
            offset_in_line < LINE_BYTES,
            "offset {offset_in_line} escapes the cache line"
        );
        assert_eq!(offset_in_line % 8, 0, "variables are 8-byte aligned");
        base.line().base().offset(offset_in_line)
    }

    /// Allocates an array of `len` 8-byte elements spanning consecutive
    /// lines, returning the base address. Element `i` is at `base + 8*i`.
    pub fn array(&mut self, len: usize) -> Addr {
        let lines = (len as u64 * 8).div_ceil(LINE_BYTES).max(1);
        let a = CacheLine(self.next_line).base();
        self.next_line += lines;
        a
    }
}

/// Returns the address of element `i` of an 8-byte-element array at `base`.
#[inline]
pub fn elem(base: Addr, i: usize) -> Addr {
    base.offset(8 * i as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mapping() {
        assert_eq!(Addr(0).line(), CacheLine(0));
        assert_eq!(Addr(63).line(), CacheLine(0));
        assert_eq!(Addr(64).line(), CacheLine(1));
        assert_eq!(CacheLine(2).base(), Addr(128));
    }

    #[test]
    fn word_mapping() {
        assert_eq!(Addr(0).word(), 0);
        assert_eq!(Addr(8).word(), 1);
        assert_eq!(Addr(64).word(), 8);
        assert!(Addr(16).is_aligned());
        assert!(!Addr(12).is_aligned());
    }

    #[test]
    fn layout_fresh_lines_do_not_collide() {
        let mut l = VarLayout::new();
        let a = l.fresh_line();
        let b = l.fresh_line();
        assert_ne!(a.line(), b.line());
    }

    #[test]
    fn layout_same_line_shares_line() {
        let mut l = VarLayout::new();
        let a = l.fresh_line();
        let b = l.same_line(a, 16);
        assert_eq!(a.line(), b.line());
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "escapes the cache line")]
    fn layout_same_line_rejects_overflow() {
        let mut l = VarLayout::new();
        let a = l.fresh_line();
        let _ = l.same_line(a, 64);
    }

    #[test]
    fn array_spans_enough_lines() {
        let mut l = VarLayout::new();
        let a = l.array(16); // 128 bytes -> 2 lines
        let b = l.fresh_line();
        assert_eq!(elem(a, 15).line().0, a.line().0 + 1);
        assert!(b.line().0 >= a.line().0 + 2);
    }

    #[test]
    fn elem_addresses_are_8_byte_strided() {
        let base = Addr(1024);
        assert_eq!(elem(base, 0), Addr(1024));
        assert_eq!(elem(base, 3), Addr(1048));
    }
}
