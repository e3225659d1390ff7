//! Vector clocks and epochs.

use std::fmt;

use txrace_sim::ThreadId;

/// A dense vector clock over a fixed thread universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock {
    clocks: Vec<u32>,
}

impl VectorClock {
    /// The all-zero clock over `n` threads.
    pub fn zero(n: usize) -> Self {
        VectorClock { clocks: vec![0; n] }
    }

    /// The initial clock of thread `t` in a universe of `n`: everything 0
    /// except the own component, which starts at 1 (the FastTrack
    /// convention, so the bottom epoch `0@0` happens-before everything).
    pub fn initial(t: ThreadId, n: usize) -> Self {
        let mut vc = Self::zero(n);
        vc.clocks[t.index()] = 1;
        vc
    }

    /// Number of threads in the universe.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// True if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// The component for thread `t`.
    #[inline]
    pub fn get(&self, t: ThreadId) -> u32 {
        self.clocks[t.index()]
    }

    /// Increments the component for thread `t`.
    #[inline]
    pub fn inc(&mut self, t: ThreadId) {
        self.clocks[t.index()] += 1;
    }

    /// Pointwise maximum: `self := self ⊔ other`.
    pub fn join(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.clocks.len(), other.clocks.len());
        for (a, b) in self.clocks.iter_mut().zip(&other.clocks) {
            *a = (*a).max(*b);
        }
    }

    /// Pointwise comparison: true if `self[u] <= other[u]` for all `u`.
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.clocks.iter().zip(&other.clocks).all(|(a, b)| a <= b)
    }

    /// The epoch of thread `t` under this clock.
    #[inline]
    pub fn epoch(&self, t: ThreadId) -> Epoch {
        Epoch {
            tid: t,
            clock: self.clocks[t.index()],
        }
    }

    /// The raw per-thread components (indexed by thread index), for hot
    /// loops that want one bounds check instead of one per component.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.clocks
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, c) in self.clocks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ">")
    }
}

/// A scalar clock value paired with its owning thread: `c@t`.
///
/// FastTrack's key optimization: most variables' access histories are
/// representable by a single epoch instead of a whole vector clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch {
    /// Owning thread.
    pub tid: ThreadId,
    /// Clock value.
    pub clock: u32,
}

impl Epoch {
    /// The bottom epoch `0@t0`, which happens-before everything (thread
    /// clocks start at 1).
    pub const BOTTOM: Epoch = Epoch {
        tid: ThreadId(0),
        clock: 0,
    };

    /// True if this epoch happens-before (or equals) the point described
    /// by `vc`: `clock <= vc[tid]`.
    #[inline]
    pub fn leq(self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.tid)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clock, self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_clock_starts_at_one() {
        let vc = VectorClock::initial(ThreadId(1), 3);
        assert_eq!(vc.get(ThreadId(0)), 0);
        assert_eq!(vc.get(ThreadId(1)), 1);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::zero(3);
        a.inc(ThreadId(0));
        a.inc(ThreadId(0));
        let mut b = VectorClock::zero(3);
        b.inc(ThreadId(1));
        a.join(&b);
        assert_eq!(a.get(ThreadId(0)), 2);
        assert_eq!(a.get(ThreadId(1)), 1);
        assert_eq!(a.get(ThreadId(2)), 0);
    }

    #[test]
    fn leq_is_pointwise() {
        let mut a = VectorClock::zero(2);
        let mut b = VectorClock::zero(2);
        assert!(a.leq(&b));
        a.inc(ThreadId(0));
        assert!(!a.leq(&b));
        b.join(&a);
        b.inc(ThreadId(1));
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn bottom_epoch_precedes_initial_clocks() {
        let vc = VectorClock::initial(ThreadId(2), 4);
        assert!(Epoch::BOTTOM.leq(&vc));
    }

    #[test]
    fn epoch_ordering_against_clock() {
        let mut vc = VectorClock::initial(ThreadId(0), 2);
        let e = vc.epoch(ThreadId(0)); // 1@t0
        vc.inc(ThreadId(0));
        assert!(e.leq(&vc));
        let later = vc.epoch(ThreadId(0)); // 2@t0
        let old = VectorClock::initial(ThreadId(0), 2);
        assert!(!later.leq(&old));
    }

    #[test]
    fn display_formats() {
        let vc = VectorClock::initial(ThreadId(1), 3);
        assert_eq!(vc.to_string(), "<0,1,0>");
        assert_eq!(vc.epoch(ThreadId(1)).to_string(), "1@t1");
    }
}
