//! Small typed identifiers used throughout the simulator.
//!
//! Each identifier is a newtype over a machine integer so that, per the
//! newtype guidelines, a [`LockId`] can never be confused with a
//! [`CondId`] or a raw index. [`LockSet`] is the one set-of-locks type:
//! the static summaries, the flow-sensitive must-lockset analysis, and
//! the Eraser baseline all hold their lock sets in it.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index backing this identifier.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A logical thread index. Thread 0 is the main thread.
    ThreadId,
    "t"
);
id_type!(
    /// A static program site: the identity of one instruction in the IR.
    ///
    /// Race reports are pairs of sites, mirroring the paper's "racy
    /// instruction pair" static counting.
    SiteId,
    "s"
);
id_type!(
    /// A mutex identifier.
    LockId,
    "l"
);
id_type!(
    /// A condition/semaphore identifier used by `Signal`/`Wait`.
    CondId,
    "c"
);
id_type!(
    /// A barrier identifier.
    BarrierId,
    "b"
);
id_type!(
    /// A bounded message channel identifier used by `ChanSend`/`ChanRecv`.
    ChanId,
    "ch"
);
id_type!(
    /// A static loop identity, used by the loop-cut optimization.
    LoopId,
    "loop"
);
id_type!(
    /// A static transactional-region identity assigned by the
    /// transactionalization pass.
    RegionId,
    "r"
);

/// A set of locks: a bitset over dense [`LockId`]s. Locks `0..64` live
/// inline, so the sets of programs with at most 64 locks never allocate.
/// The spill never ends in a zero word, so equal sets compare equal
/// however they were built.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSet {
    /// Word 0: locks `0..64`.
    low: u64,
    /// Words `1..`: locks `64..`, grown only when such a lock is added.
    high: Vec<u64>,
}

impl LockSet {
    /// The empty set.
    pub fn new() -> Self {
        LockSet::default()
    }

    /// Adds `l`.
    pub fn insert(&mut self, l: LockId) {
        let (k, bit) = (l.index() / 64, 1u64 << (l.index() % 64));
        if k == 0 {
            self.low |= bit;
        } else {
            if self.high.len() < k {
                self.high.resize(k, 0);
            }
            self.high[k - 1] |= bit;
        }
    }

    /// Removes `l` (a no-op when absent).
    pub fn remove(&mut self, l: LockId) {
        let (k, bit) = (l.index() / 64, 1u64 << (l.index() % 64));
        if k == 0 {
            self.low &= !bit;
        } else if let Some(w) = self.high.get_mut(k - 1) {
            *w &= !bit;
            self.trim();
        }
    }

    /// Whether `l` is in the set.
    pub fn contains(&self, l: LockId) -> bool {
        self.word(l.index() / 64) & (1u64 << (l.index() % 64)) != 0
    }

    /// True when no lock is in the set.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }

    /// Adds every lock of `o`.
    pub fn union_with(&mut self, o: &LockSet) {
        self.low |= o.low;
        if self.high.len() < o.high.len() {
            self.high.resize(o.high.len(), 0);
        }
        for (w, x) in self.high.iter_mut().zip(&o.high) {
            *w |= x;
        }
    }

    /// Keeps only the locks also in `o`.
    pub fn intersect_with(&mut self, o: &LockSet) {
        self.low &= o.low;
        self.high.truncate(o.high.len());
        for (w, x) in self.high.iter_mut().zip(&o.high) {
            *w &= x;
        }
        self.trim();
    }

    /// Whether the two sets share no lock.
    pub fn is_disjoint(&self, o: &LockSet) -> bool {
        self.low & o.low == 0 && self.high.iter().zip(&o.high).all(|(x, y)| x & y == 0)
    }

    /// The locks, ascending.
    pub fn iter(&self) -> impl Iterator<Item = LockId> + '_ {
        std::iter::once(self.low)
            .chain(self.high.iter().copied())
            .enumerate()
            .flat_map(|(k, mut w)| {
                std::iter::from_fn(move || {
                    (w != 0).then(|| {
                        let b = w.trailing_zeros();
                        w &= w - 1;
                        LockId((k * 64) as u32 + b)
                    })
                })
            })
    }

    /// Word `k` of the bitset (locks `64k..64k + 64`); zero past the end.
    fn word(&self, k: usize) -> u64 {
        match k {
            0 => self.low,
            _ => self.high.get(k - 1).copied().unwrap_or(0),
        }
    }

    /// Drops trailing zero words of the spill.
    fn trim(&mut self) {
        while self.high.last() == Some(&0) {
            self.high.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(ThreadId(3).to_string(), "t3");
        assert_eq!(SiteId(7).to_string(), "s7");
        assert_eq!(LoopId(1).to_string(), "loop1");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<LockId> = [LockId(2), LockId(0), LockId(1)].into_iter().collect();
        let v: Vec<u32> = set.into_iter().map(|l| l.0).collect();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn from_u32_roundtrips() {
        let s: SiteId = 9u32.into();
        assert_eq!(s.index(), 9);
    }

    #[test]
    fn lock_set_spans_words() {
        let mut s = LockSet::new();
        assert!(s.is_empty() && s.high.is_empty());
        for l in [0, 63, 64, 130] {
            s.insert(LockId(l));
        }
        assert_eq!(s.high.len(), 2);
        assert!(s.contains(LockId(64)) && !s.contains(LockId(65)));
        assert!(!s.contains(LockId(500)), "past the end is absent");
        assert_eq!(
            s.iter().map(|l| l.0).collect::<Vec<_>>(),
            vec![0, 63, 64, 130]
        );
        assert_eq!((s.word(1), s.word(7)), (1, 0));
        assert!(
            !s.contains(LockId(128)),
            "bit 0 of word 2 is not bit 2 of it"
        );
        for l in [0, 63, 64, 130] {
            s.remove(LockId(l));
        }
        assert!(s.is_empty(), "emptied spill words are dropped");
        assert_eq!(s, LockSet::new());
    }
}
