//! Per-thread transaction bookkeeping.
//!
//! The tracked read/write sets are the hottest structures in the
//! simulator — every transactional access tests and updates them, and
//! every conflict scan probes them once per active transaction. They are
//! therefore kept data-oriented: line membership is a bitset indexed
//! directly by the raw cache-line index (`VarLayout` allocates lines
//! compactly, so the line space is dense), paired with an insertion-ordered
//! list of touched lines so clearing costs O(footprint) instead of
//! O(address space).

use txrace_sim::{CacheLine, WriteJournal};

use crate::status::AbortStatus;

/// A set of cache lines: one bit per raw line index plus the list of
/// members in insertion order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineSet {
    words: Vec<u64>,
    members: Vec<CacheLine>,
}

impl LineSet {
    /// O(1) membership test.
    #[inline]
    pub(crate) fn contains(&self, line: CacheLine) -> bool {
        match self.words.get(line.0 as usize / 64) {
            Some(w) => w & (1 << (line.0 % 64)) != 0,
            None => false,
        }
    }

    /// Adds `line`; returns true if it was new.
    #[inline]
    pub(crate) fn insert(&mut self, line: CacheLine) -> bool {
        let w = line.0 as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1 << (line.0 % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.members.push(line);
        true
    }

    /// Number of distinct lines.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Members in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.members.iter().copied()
    }

    /// Empties the set in O(members), keeping capacity.
    pub(crate) fn clear(&mut self) {
        for l in self.members.drain(..) {
            self.words[l.0 as usize / 64] &= !(1 << (l.0 % 64));
        }
    }
}

/// One in-flight transaction's tracked state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Txn {
    /// Lines read (tracked for conflict detection).
    pub read_lines: LineSet,
    /// Lines written.
    pub write_lines: LineSet,
    /// Undo log of this transaction's eager in-place stores: unwound at
    /// doom time, cleared by `reset` when the transaction retires.
    pub journal: WriteJournal,
    /// Doom status, if the hardware aborted this transaction.
    pub doom: Option<AbortStatus>,
    /// The first conflicting line (for the optional conflict-address
    /// reporting extension).
    pub conflict_line: Option<CacheLine>,
    /// Per-cache-set occupancy of the write set (lazily sized; avoids an
    /// O(write-set) scan on every new line).
    pub set_occupancy: Vec<u16>,
}

impl Txn {
    /// Returns the slot to its pristine state, keeping allocations so a
    /// recycled transaction does no work proportional to the address
    /// space.
    pub(crate) fn reset(&mut self) {
        self.read_lines.clear();
        self.write_lines.clear();
        self.journal.clear();
        self.doom = None;
        self.conflict_line = None;
        self.set_occupancy.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_set_insert_contains_clear() {
        let mut s = LineSet::default();
        assert!(s.insert(CacheLine(3)));
        assert!(s.insert(CacheLine(200)));
        assert!(!s.insert(CacheLine(3)), "duplicate insert");
        assert!(s.contains(CacheLine(3)));
        assert!(s.contains(CacheLine(200)));
        assert!(!s.contains(CacheLine(4)));
        assert!(!s.contains(CacheLine(100_000)), "beyond capacity");
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), [CacheLine(3), CacheLine(200)]);
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(!s.contains(CacheLine(3)));
        assert!(s.insert(CacheLine(3)), "reusable after clear");
    }

    #[test]
    fn reset_keeps_capacity_but_clears_state() {
        let mut t = Txn {
            set_occupancy: vec![2, 0, 1],
            ..Txn::default()
        };
        t.read_lines.insert(CacheLine(1));
        t.write_lines.insert(CacheLine(2));
        t.doom = Some(AbortStatus::CAPACITY);
        t.reset();
        assert_eq!(t.doom, None);
        assert_eq!(t.read_lines.len() + t.write_lines.len(), 0);
        assert!(t.set_occupancy.iter().all(|&o| o == 0));
    }
}
