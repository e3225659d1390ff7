//! The loop-cut optimization (paper §4.3).
//!
//! Long loops overflow the HTM write buffer and cause *capacity aborts*
//! every time their region executes; without mitigation every such region
//! pays a full slow-path re-execution. Loop-cut learns, per static loop, a
//! trip-count threshold that fits the hardware, and splits the transaction
//! at the loop probe whenever the running iteration count reaches it.
//!
//! * **Dyn** learns online: the threshold appears (initialized to 2) after
//!   the first capacity abort attributed to the loop, is incremented each
//!   time a cut transaction commits, and decremented on further capacity
//!   aborts — converging to the largest committing trip count. Updates to
//!   a plain counter would not survive the abort, which is why TxRace
//!   adjusts the estimate outside the transaction (commit/abort events).
//! * **Prof** starts from thresholds collected in a profiling run, so even
//!   the *first* capacity abort is avoided; mis-profiling is repaired by
//!   the same online adjustment.
//! * **NoOpt** disables cutting: every capacity abort falls back to the
//!   slow path (the paper's baseline scheme).
//!
//! Loop ids are dense (`LoopId(0..loop_count)`, assigned at program build
//! time), so all per-loop state lives in flat vectors indexed by the raw
//! id — the probe on the transactional fast path does no hashing.

use txrace_sim::{LoopId, ThreadId};

/// Which loop-cut scheme the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopcutMode {
    /// No cutting; capacity aborts always fall back to the slow path.
    NoOpt,
    /// Online threshold learning (`TxRace-DynLoopcut`).
    #[default]
    Dyn,
    /// Profile-seeded thresholds (`TxRace-ProfLoopcut`).
    Prof,
}

/// Thresholds collected by a profiling run, consumed by
/// [`LoopcutMode::Prof`].
#[derive(Debug, Clone, Default)]
pub struct LoopcutProfile {
    /// Largest committing trip count observed per loop, in `LoopId` order.
    pub thresholds: Vec<(LoopId, u32)>,
}

impl LoopcutProfile {
    /// The profiled threshold for `l`, if any.
    pub fn get(&self, l: LoopId) -> Option<u32> {
        self.thresholds
            .iter()
            .find(|&&(pl, _)| pl == l)
            .map(|&(_, t)| t)
    }

    /// Sets the threshold for `l`, replacing any existing entry.
    pub fn set(&mut self, l: LoopId, threshold: u32) {
        match self.thresholds.iter_mut().find(|(pl, _)| *pl == l) {
            Some(entry) => entry.1 = threshold,
            None => self.thresholds.push((l, threshold)),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Learn {
    threshold: u32,
    /// Smallest threshold that is known to overflow; growth stays below it
    /// (hysteresis, so the learner settles instead of oscillating at the
    /// capacity boundary).
    cap: Option<u32>,
}

/// Runtime loop-cut state: per-loop thresholds plus per-thread iteration
/// counters for the current transaction, all indexed by the raw dense
/// `LoopId`.
#[derive(Debug)]
pub struct LoopcutState {
    mode: LoopcutMode,
    /// `thresholds[l]` is `Some` once loop `l` became a cut candidate.
    thresholds: Vec<Option<Learn>>,
    /// `counters[thread][l]`: iterations of loop `l` inside the thread's
    /// current transaction.
    counters: Vec<Vec<u32>>,
    /// Threshold installed when a capacity abort first activates a loop
    /// ([`INITIAL_THRESHOLD`] by default; the adaptive controller raises
    /// it via [`LoopcutState::set_initial_threshold`]).
    initial_threshold: u32,
    cuts: u64,
}

/// Initial threshold after the first capacity abort (paper: "a small
/// initial estimate (two in our experiment)").
pub const INITIAL_THRESHOLD: u32 = 2;

impl LoopcutState {
    /// Creates loop-cut state for `threads` threads. `profile` seeds
    /// thresholds and is only meaningful in [`LoopcutMode::Prof`].
    pub fn new(mode: LoopcutMode, threads: usize, profile: Option<&LoopcutProfile>) -> Self {
        let mut state = LoopcutState {
            mode,
            thresholds: Vec::new(),
            counters: vec![Vec::new(); threads],
            initial_threshold: INITIAL_THRESHOLD,
            cuts: 0,
        };
        if let (LoopcutMode::Prof, Some(p)) = (mode, profile) {
            for &(l, t) in &p.thresholds {
                // A profiled threshold is trusted as the stable value: cap
                // growth right above it so the very first capacity abort
                // is avoided (mis-profiling still self-repairs through the
                // abort path).
                *state.slot(l) = Some(Learn {
                    threshold: t,
                    cap: Some(t + 1),
                });
            }
        }
        state
    }

    fn slot(&mut self, l: LoopId) -> &mut Option<Learn> {
        let i = l.index();
        if i >= self.thresholds.len() {
            self.thresholds.resize(i + 1, None);
        }
        &mut self.thresholds[i]
    }

    /// Number of transactions split so far.
    pub fn cuts(&self) -> u64 {
        self.cuts
    }

    /// Sets the threshold installed when a capacity abort first
    /// activates a loop. Already-active loops keep their learned values;
    /// only future activations start from the new estimate.
    pub fn set_initial_threshold(&mut self, t: u32) {
        self.initial_threshold = t.max(1);
    }

    /// Current per-loop thresholds in `LoopId` order (what a profiling
    /// run exports).
    pub fn thresholds(&self) -> Vec<(LoopId, u32)> {
        self.thresholds
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|learn| (LoopId(i as u32), learn.threshold)))
            .collect()
    }

    /// Exports the learned thresholds as a profile.
    pub fn to_profile(&self) -> LoopcutProfile {
        LoopcutProfile {
            thresholds: self.thresholds(),
        }
    }

    /// Resets thread `t`'s iteration counters; call at transaction start
    /// (counters track iterations *within the current transaction*).
    pub fn on_txn_start(&mut self, t: ThreadId) {
        self.counters[t.index()].fill(0);
    }

    /// Records one pass of thread `t` over loop `l`'s probe. Returns true
    /// if the transaction should be cut here (and resets the counters for
    /// the new transaction).
    pub fn probe(&mut self, t: ThreadId, l: LoopId) -> bool {
        if self.mode == LoopcutMode::NoOpt {
            return false;
        }
        let Some(Learn { threshold, .. }) = self.thresholds.get(l.index()).copied().flatten()
        else {
            return false; // not (yet) a loop-cut candidate
        };
        let counters = &mut self.counters[t.index()];
        if counters.len() <= l.index() {
            counters.resize(l.index() + 1, 0);
        }
        counters[l.index()] += 1;
        if counters[l.index()] >= threshold {
            counters.fill(0);
            self.cuts += 1;
            true
        } else {
            false
        }
    }

    /// A capacity abort was attributed to loop `l`: activate it (Dyn) or
    /// shrink its threshold.
    pub fn on_capacity_abort(&mut self, l: Option<LoopId>) {
        if self.mode == LoopcutMode::NoOpt {
            return;
        }
        let Some(l) = l else { return };
        let initial = self.initial_threshold;
        let slot = self.slot(l);
        match slot {
            Some(v) => {
                v.cap = Some(v.cap.map_or(v.threshold, |c| c.min(v.threshold)));
                v.threshold = (v.threshold - 1).max(1);
            }
            None => {
                *slot = Some(Learn {
                    threshold: initial,
                    cap: None,
                });
            }
        }
    }

    /// A transaction cut at loop `l` committed: grow the threshold, but
    /// never to a value known to overflow.
    pub fn on_cut_commit(&mut self, l: LoopId) {
        if let Some(Some(v)) = self.thresholds.get_mut(l.index()) {
            if v.cap.is_none_or(|c| v.threshold + 1 < c) {
                v.threshold += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const L: LoopId = LoopId(3);

    fn threshold_of(s: &LoopcutState, l: LoopId) -> u32 {
        s.to_profile().get(l).expect("loop has a threshold")
    }

    #[test]
    fn noopt_never_cuts() {
        let mut s = LoopcutState::new(LoopcutMode::NoOpt, 1, None);
        s.on_capacity_abort(Some(L));
        for _ in 0..100 {
            assert!(!s.probe(T0, L));
        }
        assert_eq!(s.cuts(), 0);
    }

    #[test]
    fn dyn_activates_after_first_capacity_abort() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 1, None);
        assert!(!s.probe(T0, L), "inactive before any capacity abort");
        s.on_capacity_abort(Some(L));
        assert_eq!(threshold_of(&s, L), INITIAL_THRESHOLD);
        assert!(!s.probe(T0, L)); // 1 < 2
        assert!(s.probe(T0, L)); // 2 >= 2: cut
        assert_eq!(s.cuts(), 1);
    }

    #[test]
    fn commit_grows_and_abort_shrinks_threshold() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 1, None);
        s.on_capacity_abort(Some(L));
        s.on_cut_commit(L);
        s.on_cut_commit(L);
        assert_eq!(threshold_of(&s, L), 4);
        s.on_capacity_abort(Some(L));
        assert_eq!(threshold_of(&s, L), 3);
    }

    #[test]
    fn threshold_floors_at_one() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 1, None);
        s.on_capacity_abort(Some(L));
        for _ in 0..10 {
            s.on_capacity_abort(Some(L));
        }
        assert_eq!(threshold_of(&s, L), 1);
        assert!(s.probe(T0, L), "threshold 1 cuts every iteration");
    }

    #[test]
    fn prof_seeds_thresholds() {
        let mut profile = LoopcutProfile::default();
        profile.set(L, 10);
        let mut s = LoopcutState::new(LoopcutMode::Prof, 1, Some(&profile));
        for _ in 0..9 {
            assert!(!s.probe(T0, L));
        }
        assert!(s.probe(T0, L));
    }

    #[test]
    fn dyn_ignores_profile() {
        let mut profile = LoopcutProfile::default();
        profile.set(L, 10);
        let s = LoopcutState::new(LoopcutMode::Dyn, 1, Some(&profile));
        assert!(s.thresholds().is_empty());
    }

    #[test]
    fn txn_start_resets_counters() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 1, None);
        s.on_capacity_abort(Some(L));
        assert!(!s.probe(T0, L));
        s.on_txn_start(T0);
        assert!(!s.probe(T0, L), "counter was reset");
        assert!(s.probe(T0, L));
    }

    #[test]
    fn counters_are_per_thread() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 2, None);
        s.on_capacity_abort(Some(L));
        assert!(!s.probe(T0, L));
        assert!(!s.probe(ThreadId(1), L), "thread 1 has its own counter");
    }

    #[test]
    fn unknown_loop_attribution_is_ignored() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 1, None);
        s.on_capacity_abort(None);
        assert!(s.thresholds().is_empty());
    }

    #[test]
    fn profile_roundtrip() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 1, None);
        s.on_capacity_abort(Some(L));
        s.on_cut_commit(L);
        let p = s.to_profile();
        assert_eq!(p.get(L), Some(3));
    }

    #[test]
    fn profile_set_replaces_existing_entry() {
        let mut p = LoopcutProfile::default();
        p.set(L, 4);
        p.set(L, 9);
        assert_eq!(p.thresholds.len(), 1);
        assert_eq!(p.get(L), Some(9));
    }

    #[test]
    fn initial_threshold_applies_to_future_activations_only() {
        let mut s = LoopcutState::new(LoopcutMode::Dyn, 1, None);
        s.on_capacity_abort(Some(L));
        assert_eq!(threshold_of(&s, L), INITIAL_THRESHOLD);
        s.set_initial_threshold(8);
        let l2 = LoopId(5);
        s.on_capacity_abort(Some(l2));
        assert_eq!(threshold_of(&s, l2), 8, "new activation uses the knob");
        assert_eq!(threshold_of(&s, L), INITIAL_THRESHOLD, "learned value kept");
        s.set_initial_threshold(0);
        let l3 = LoopId(7);
        s.on_capacity_abort(Some(l3));
        assert_eq!(threshold_of(&s, l3), 1, "floors at one");
    }
}
