//! The static race-pair candidate generator: every cross-thread pair of
//! sites the flow-sensitive analysis could not prove non-racing, as a
//! closed-form *may-race* set.
//!
//! The set is a sound over-approximation of the dynamic truth: any race
//! FastTrack can report on any schedule is between two sites forming a
//! candidate pair (the soundness suite checks exactly this inclusion,
//! and [`MayRacePairs::confirm_by_exploration`] checks it exhaustively
//! over every interleaving of small programs). The reverse is not true —
//! a candidate can be ordered by synchronization the static analyses do
//! not model (condition variables, say) and never manifest.
//!
//! Candidates are generated *before* redundant-check elimination, so a
//! pair whose endpoint's check was elided in favor of an earlier witness
//! still appears under its own site id.

use std::collections::BTreeSet;

use txrace_hb::{RacePair, RaceSet, ShadowMode};
use txrace_sim::explore::{explore_until, ExploreLimits};
use txrace_sim::{Addr, Live, Program, SiteId};

use crate::baselines::TsanConsumer;
use crate::cost::CostModel;

/// The statically generated may-race candidate pairs of one program.
#[derive(Debug, Clone, Default)]
pub struct MayRacePairs {
    /// The pairs, sorted and unique, each with one witness address (the
    /// smallest overlapping footprint address); searched by binary
    /// search.
    by_pair: Vec<(RacePair, Addr)>,
}

impl MayRacePairs {
    /// Runs the full flow-sensitive pipeline on `p` and returns its
    /// candidate set (equivalent to
    /// [`FlowAnalysis::run`](super::FlowAnalysis::run)`(p).pairs`).
    pub fn analyze(p: &Program) -> Self {
        super::FlowAnalysis::run(p).pairs
    }

    /// Builds the set from `(pair, witness address)` tuples; the
    /// smallest witness per pair is kept.
    pub(super) fn from_witnesses(mut by_pair: Vec<(RacePair, Addr)>) -> Self {
        // One packed key per tuple, ordered exactly as the tuple's
        // derived `Ord`: 32-bit site ids above a 64-bit address.
        by_pair.sort_unstable_by_key(|&(pr, addr)| {
            (u128::from(pr.a.0) << 96) | (u128::from(pr.b.0) << 64) | u128::from(addr.0)
        });
        by_pair.dedup_by_key(|&mut (pr, _)| pr);
        MayRacePairs { by_pair }
    }

    /// The candidate pairs, ascending.
    pub fn pairs(&self) -> impl Iterator<Item = RacePair> + '_ {
        self.by_pair.iter().map(|&(pr, _)| pr)
    }

    /// A statically chosen overlapping address for `pair`, if it is a
    /// candidate.
    pub fn witness_addr(&self, pair: RacePair) -> Option<Addr> {
        self.by_pair
            .binary_search_by_key(&pair, |&(pr, _)| pr)
            .ok()
            .map(|k| self.by_pair[k].1)
    }

    /// Whether `(x, y)` is a candidate (order-insensitive).
    pub fn contains(&self, x: SiteId, y: SiteId) -> bool {
        self.witness_addr(RacePair::new(x, y)).is_some()
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.by_pair.len()
    }

    /// True when no pair survived the static pruning.
    pub fn is_empty(&self) -> bool {
        self.by_pair.is_empty()
    }

    /// True iff every pair of `races` is a candidate — the soundness
    /// inclusion the generator promises for dynamically observed races.
    pub fn covers(&self, races: &RaceSet) -> bool {
        races.pairs().all(|pr| self.witness_addr(pr).is_some())
    }

    /// Exhaustively explores `p`'s interleavings with an exact FastTrack
    /// detector, classifying each candidate as dynamically *confirmed*
    /// or never witnessed, and flagging any detected race that escaped
    /// the candidate set (a soundness violation — always empty for
    /// programs within the analyses' model). Exploration stops early
    /// once every candidate is confirmed, or on the first escape.
    ///
    /// `p` must be the same (uninstrumented) program the set was built
    /// from, and small enough to explore — see [`ExploreLimits`].
    pub fn confirm_by_exploration(&self, p: &Program, limits: ExploreLimits) -> Confirmation {
        let threads = p.thread_count();
        let mut confirmed: BTreeSet<RacePair> = BTreeSet::new();
        let mut escaped: BTreeSet<RacePair> = BTreeSet::new();
        let stats = explore_until(
            p,
            || {
                Live::new(TsanConsumer::new(
                    threads,
                    CostModel::default(),
                    1.0,
                    ShadowMode::Exact,
                    None,
                    0,
                ))
            },
            |_, rt, _| {
                for pr in rt.consumer().races().pairs() {
                    if self.witness_addr(pr).is_some() {
                        confirmed.insert(pr);
                    } else {
                        escaped.insert(pr);
                    }
                }
                !escaped.is_empty() || confirmed.len() == self.by_pair.len()
            },
            limits,
        );
        let unwitnessed = self.pairs().filter(|pr| !confirmed.contains(pr)).collect();
        Confirmation {
            confirmed,
            unwitnessed,
            escaped,
            paths: stats.paths,
            complete: stats.complete,
        }
    }
}

/// Outcome of [`MayRacePairs::confirm_by_exploration`].
#[derive(Debug, Clone)]
pub struct Confirmation {
    /// Candidates witnessed as real FastTrack races on some schedule.
    pub confirmed: BTreeSet<RacePair>,
    /// Candidates never witnessed. Either the exploration was cut short
    /// (`complete == false` without an early stop) or the pair is
    /// ordered by synchronization the static analyses do not model.
    pub unwitnessed: BTreeSet<RacePair>,
    /// Dynamic races *not* in the candidate set. Non-empty means the
    /// static generator was unsound for this program.
    pub escaped: BTreeSet<RacePair>,
    /// Interleavings explored.
    pub paths: u64,
    /// Whether the whole schedule space was covered.
    pub complete: bool,
}

impl Confirmation {
    /// True when every candidate was witnessed and nothing escaped.
    pub fn exact(&self) -> bool {
        self.unwitnessed.is_empty() && self.escaped.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::ProgramBuilder;

    fn pair(p: &Program, a: &str, b: &str) -> RacePair {
        RacePair::new(p.site(a).unwrap(), p.site(b).unwrap())
    }

    #[test]
    fn racy_pair_is_generated_and_confirmed() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "w0");
        b.thread(1).write_l(x, 2, "w1");
        let p = b.build();
        let mrp = MayRacePairs::analyze(&p);
        assert_eq!(mrp.len(), 1);
        assert!(mrp.contains(p.site("w0").unwrap(), p.site("w1").unwrap()));
        assert_eq!(mrp.witness_addr(pair(&p, "w0", "w1")), Some(x));
        let c = mrp.confirm_by_exploration(&p, ExploreLimits::default());
        assert!(c.exact(), "{c:?}");
        assert_eq!(c.confirmed.len(), 1);
    }

    #[test]
    fn locked_program_generates_no_pairs() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        for t in 0..2 {
            b.thread(t).lock(l).write(x, t as u64).unlock(l);
        }
        let p = b.build();
        let mrp = MayRacePairs::analyze(&p);
        assert!(mrp.is_empty());
        let c = mrp.confirm_by_exploration(&p, ExploreLimits::default());
        assert!(c.escaped.is_empty());
        // With no candidates, the early-stop condition holds on the very
        // first path: confirmed (0) == candidates (0).
        assert_eq!(c.paths, 1);
    }

    #[test]
    fn signal_wait_ordering_leaves_an_unwitnessed_candidate() {
        // The static analyses do not model signal/wait edges: the pair
        // is generated (may-race) but never manifests — exploration
        // proves it unwitnessed without any escape.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let c = b.cond_id("c");
        b.thread(0).write_l(x, 1, "w0").signal(c);
        b.thread(1).wait(c).write_l(x, 2, "w1");
        let p = b.build();
        let mrp = MayRacePairs::analyze(&p);
        assert_eq!(mrp.len(), 1);
        let conf = mrp.confirm_by_exploration(&p, ExploreLimits::default());
        assert!(conf.complete);
        assert!(conf.escaped.is_empty());
        assert_eq!(conf.unwitnessed.len(), 1);
        assert_eq!(
            conf.unwitnessed.iter().next().copied(),
            Some(pair(&p, "w0", "w1"))
        );
    }

    #[test]
    fn covers_matches_dynamic_race_sets() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "w0");
        b.thread(1).read_l(x, "r1");
        let p = b.build();
        let mrp = MayRacePairs::analyze(&p);
        let mut races = RaceSet::new();
        assert!(mrp.covers(&races), "empty set is trivially covered");
        races.record(txrace_hb::RaceReport {
            addr: x,
            prior: txrace_hb::AccessInfo {
                site: p.site("w0").unwrap(),
                thread: txrace_sim::ThreadId(0),
                kind: txrace_hb::AccessKind::Write,
            },
            current: txrace_hb::AccessInfo {
                site: p.site("r1").unwrap(),
                thread: txrace_sim::ThreadId(1),
                kind: txrace_hb::AccessKind::Read,
            },
        });
        assert!(mrp.covers(&races));
    }
}
