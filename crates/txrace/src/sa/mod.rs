//! Static race-freedom analysis: prune provably race-free sites before
//! transactionalization.
//!
//! The paper's pass transactionalizes *every* synchronization-free region
//! and lets the HTM sort out which accesses actually conflict. A lot of
//! that work is provably unnecessary at compile time. Two analysis layers
//! establish race freedom, in increasing precision:
//!
//! The **flow-insensitive base layer** (`escape`, the original `sa`
//! analysis) classifies sites from the [`txrace_sim::summary`] records:
//!
//! * **thread-escape / phase**: an address touched by one thread, or an
//!   access in a single-threaded phase, cannot race
//!   ([`RaceFreeReason::ThreadLocal`], [`RaceFreeReason::SinglePhase`]);
//! * **read-only**: addresses never written concurrently cannot race
//!   ([`RaceFreeReason::ReadOnly`]);
//! * **static lockset**: if every concurrent access to an address holds a
//!   common lock, mutual exclusion orders them
//!   ([`RaceFreeReason::Lockset`]).
//!
//! The **flow-sensitive layer** ([`SiteClassTable::analyze_flow`],
//! [`StaticPruneMode::FullFlow`]) reasons about *pairs* of accesses with
//! dataflow over per-thread region graphs (`flow`) and a
//! may-happen-in-parallel oracle (`phase`):
//!
//! * **must-locksets**: a forward fixpoint through `Lock`/`Unlock`
//!   recovers locks the single-pass summary must conservatively drop
//!   (e.g. re-acquiring loops), and lock credit is taken per *pair*
//!   rather than per address ([`RaceFreeReason::MustLocked`]);
//! * **MHP**: barrier generations and fork-join spans prove cross-thread
//!   pairs can never overlap in time
//!   ([`RaceFreeReason::OrderedByPhase`]);
//! * **redundant checks**: a re-check of an address already checked
//!   earlier in the same sync-free, loop-free span detects nothing its
//!   witness would not ([`RaceFreeReason::RedundantCheck`]);
//! * **benign atomics**: an atomic RMW whose cache lines no surviving
//!   checked access touches keeps its semantics but loses its HTM
//!   conflict footprint — pruning it removes transactions (and their
//!   aborts) around atomic-only regions without affecting any reportable
//!   race ([`RaceFreeReason::BenignAtomic`]).
//!
//! The same pairwise machinery yields the [`MayRacePairs`] candidate
//! set: every cross-thread pair the analyses could not prove non-racing,
//! a static over-approximation of what FastTrack can ever report.
//!
//! The resulting [`SiteClassTable`] feeds four consumers: the
//! instrumentation pass (skip transactions around fully race-free
//! regions and re-apply the `K` threshold to the pruned op counts), the
//! slow-path engine and the TSan baselines (skip FastTrack checks at
//! race-free sites), the cost model (an `elided` breakdown category), and
//! the benchmark ablations.
//!
//! Soundness bar: a site the table calls race-free must never appear in a
//! race report of an unpruned run. Everything conservative lives in the
//! summary pass (footprints widen, locksets shrink, phases default to
//! concurrent); this module only combines the records. Under
//! [`SiteClassTable::analyze`] (the `Full` mode), atomic RMW sites are
//! deliberately classified [`SiteClass::PotentiallyRacy`] even though
//! detectors never check them: pruning them would also strip their HTM
//! conflict footprint (e.g. shared-counter lines), changing the paper's
//! Table 1 abort counts rather than just eliding redundant checks. The
//! `FullFlow` mode strips that footprint *only* where the line-disjointness
//! argument above shows no reportable race can be affected.

mod escape;
mod flow;
pub mod pairs;
mod phase;

pub use pairs::{Confirmation, MayRacePairs};

use std::fmt;

use txrace_hb::RacePair;
use txrace_sim::summary::Phase;
use txrace_sim::{dynamic_site_counts, summarize, Addr, Op, Program, SiteId};

/// How much of the pruning analysis a run applies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StaticPruneMode {
    /// No pruning (the paper's configuration).
    #[default]
    Off,
    /// Keep instrumentation identical, but skip the software
    /// happens-before check at race-free sites. Schedule-preserving, so
    /// the race set is *exactly* the unpruned one.
    ChecksOnly,
    /// Additionally re-run the transactionalization pass against the
    /// pruned op counts: regions whose checked ops all prune away lose
    /// their transaction markers, and the `K` small-region threshold is
    /// applied to the pruned counts. Uses the flow-insensitive layer
    /// only ([`SiteClassTable::analyze`]).
    Full,
    /// `Full` with the flow-sensitive layer
    /// ([`SiteClassTable::analyze_flow`]): must-lockset and MHP dataflow,
    /// redundant-check elimination, and benign-atomic footprint pruning.
    FullFlow,
}

/// Why a site is provably race-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceFreeReason {
    /// Executes in a single-threaded phase of the main thread (before the
    /// first spawn or after all threads are joined).
    SinglePhase,
    /// Every address it touches is touched by at most one thread.
    ThreadLocal,
    /// Every address it touches is never concurrently written.
    ReadOnly,
    /// Every address it touches has a common lock across all concurrent
    /// accesses.
    Lockset,
    /// The site sits in dead code (a zero-trip loop) and never executes.
    Dead,
    /// Flow-sensitive: every conflicting cross-thread access shares a
    /// must-held lock with this one (pairwise, after the must-lockset
    /// fixpoint recovered locks the summary dropped).
    MustLocked,
    /// Flow-sensitive: barrier generations or fork-join structure order
    /// this site against every conflicting cross-thread access.
    OrderedByPhase,
    /// Flow-sensitive: an earlier check in the same sync-free,
    /// loop-free span (the *witness*, see
    /// [`SiteClassTable::witness_of`]) already detects any race this
    /// check could.
    RedundantCheck,
    /// Flow-sensitive: an atomic RMW whose cache lines no surviving
    /// checked access touches; stripping its HTM footprint cannot
    /// affect any reportable race.
    BenignAtomic,
}

impl fmt::Display for RaceFreeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceFreeReason::SinglePhase => "single-phase",
            RaceFreeReason::ThreadLocal => "thread-local",
            RaceFreeReason::ReadOnly => "read-only",
            RaceFreeReason::Lockset => "lockset",
            RaceFreeReason::Dead => "dead",
            RaceFreeReason::MustLocked => "must-locked",
            RaceFreeReason::OrderedByPhase => "ordered-by-phase",
            RaceFreeReason::RedundantCheck => "redundant-check",
            RaceFreeReason::BenignAtomic => "benign-atomic",
        };
        f.write_str(s)
    }
}

/// The verdict for one static site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Provably not part of any data race; its check may be elided.
    RaceFree(RaceFreeReason),
    /// Not provably race-free (includes sync ops, markers, and atomics).
    PotentiallyRacy,
}

/// Aggregate classification counts (for reports and ablation tables).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruneStats {
    /// Data-access sites in the program.
    pub data_sites: u64,
    /// Data sites classified race-free, total.
    pub race_free: u64,
    /// Race-free via a single-threaded phase.
    pub single_phase: u64,
    /// Race-free via thread-locality.
    pub thread_local: u64,
    /// Race-free via read-only-ness.
    pub read_only: u64,
    /// Race-free via a common lock.
    pub lockset: u64,
    /// Race-free because the code is dead.
    pub dead: u64,
    /// Race-free via pairwise must-locksets (flow mode only).
    pub must_locked: u64,
    /// Race-free via MHP ordering (flow mode only).
    pub ordered_by_phase: u64,
    /// Elided as redundant re-checks (flow mode only).
    pub redundant_check: u64,
    /// Atomic footprints pruned as benign (flow mode only).
    pub benign_atomic: u64,
    /// Dynamic data accesses in one run (trip-weighted).
    pub dyn_data_ops: u64,
    /// Dynamic data accesses at race-free sites (trip-weighted).
    pub dyn_race_free: u64,
}

impl PruneStats {
    /// Fraction of *dynamic* data accesses pruned, in `[0, 1]` —
    /// trip-weighted, so a pruned site inside a hot loop counts for
    /// every access it elides, and a pruned one-shot init site does not
    /// masquerade as a big win.
    pub fn pruned_fraction(&self) -> f64 {
        if self.dyn_data_ops == 0 {
            return 0.0;
        }
        self.dyn_race_free as f64 / self.dyn_data_ops as f64
    }

    /// Fraction of *static* data sites pruned, in `[0, 1]` (the
    /// site-count ratio; use [`PruneStats::pruned_fraction`] for the
    /// performance-relevant dynamic weighting).
    pub fn static_pruned_fraction(&self) -> f64 {
        if self.data_sites == 0 {
            return 0.0;
        }
        self.race_free as f64 / self.data_sites as f64
    }
}

/// Which analysis built a [`SiteClassTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Analysis {
    /// [`SiteClassTable::analyze`], behind `ChecksOnly` and `Full`.
    Base,
    /// [`SiteClassTable::analyze_flow`], behind `FullFlow`.
    Flow,
}

/// Per-site classification for one program. Indexed by the *original*
/// program's sites; marker sites minted later by the instrumentation pass
/// are out of range and always report potentially-racy.
#[derive(Debug, Clone)]
pub struct SiteClassTable {
    classes: Vec<SiteClass>,
    /// For [`RaceFreeReason::RedundantCheck`] sites: the earlier site
    /// whose check covers this one.
    witnesses: Vec<Option<SiteId>>,
    analysis: Analysis,
}

impl SiteClassTable {
    /// Runs the flow-insensitive analysis over `p` (the uninstrumented
    /// program). This is the classification behind
    /// [`StaticPruneMode::Full`] and stays byte-identical to the
    /// original single-layer analysis.
    pub fn analyze(p: &Program) -> Self {
        let summary = summarize(p);
        let records = summary.accesses();
        let classes = escape::classify(p, records, &escape::AddrBuckets::build(records));
        let witnesses = vec![None; classes.len()];
        SiteClassTable {
            classes,
            witnesses,
            analysis: Analysis::Base,
        }
    }

    /// Runs the full flow-sensitive pipeline over `p` (the
    /// classification behind [`StaticPruneMode::FullFlow`]). Every site
    /// race-free under [`SiteClassTable::analyze`] is race-free here
    /// with the same reason; the flow passes only add verdicts.
    pub fn analyze_flow(p: &Program) -> Self {
        FlowAnalysis::run(p).table
    }

    /// True when `mode` asks for the analysis that built this table:
    /// [`SiteClassTable::analyze`] for `ChecksOnly` and `Full`,
    /// [`SiteClassTable::analyze_flow`] for `FullFlow`, none for `Off`.
    pub(crate) fn built_for(&self, mode: StaticPruneMode) -> bool {
        match mode {
            StaticPruneMode::Off => false,
            StaticPruneMode::ChecksOnly | StaticPruneMode::Full => self.analysis == Analysis::Base,
            StaticPruneMode::FullFlow => self.analysis == Analysis::Flow,
        }
    }

    /// The verdict for `site`. Sites outside the analyzed program (e.g.
    /// instrumentation markers) are potentially racy.
    pub fn class(&self, site: SiteId) -> SiteClass {
        self.classes
            .get(site.index())
            .copied()
            .unwrap_or(SiteClass::PotentiallyRacy)
    }

    /// True iff the site's check can be soundly elided.
    pub fn is_race_free(&self, site: SiteId) -> bool {
        matches!(self.class(site), SiteClass::RaceFree(_))
    }

    /// For a [`RaceFreeReason::RedundantCheck`] site, the earlier site
    /// whose surviving check covers it (races it would have detected
    /// are reported under the witness's id instead).
    pub fn witness_of(&self, site: SiteId) -> Option<SiteId> {
        self.witnesses.get(site.index()).copied().flatten()
    }

    /// Aggregate counts over `p`'s data sites (pass the same program the
    /// table was built from).
    pub fn stats(&self, p: &Program) -> PruneStats {
        let counts = dynamic_site_counts(p);
        let mut st = PruneStats::default();
        p.visit_static(&mut |_, site, op| {
            if !op.is_data_access() {
                return;
            }
            // visit_static walks each static site exactly once.
            st.data_sites += 1;
            st.dyn_data_ops += counts[site.index()];
            if let SiteClass::RaceFree(reason) = self.class(site) {
                st.race_free += 1;
                st.dyn_race_free += counts[site.index()];
                match reason {
                    RaceFreeReason::SinglePhase => st.single_phase += 1,
                    RaceFreeReason::ThreadLocal => st.thread_local += 1,
                    RaceFreeReason::ReadOnly => st.read_only += 1,
                    RaceFreeReason::Lockset => st.lockset += 1,
                    RaceFreeReason::Dead => st.dead += 1,
                    RaceFreeReason::MustLocked => st.must_locked += 1,
                    RaceFreeReason::OrderedByPhase => st.ordered_by_phase += 1,
                    RaceFreeReason::RedundantCheck => st.redundant_check += 1,
                    RaceFreeReason::BenignAtomic => st.benign_atomic += 1,
                }
            }
        });
        st
    }
}

/// The complete result of the flow-sensitive pipeline: the per-site
/// classification plus the static may-race candidate pairs (both derived
/// from the same pairwise pass, so they are always consistent).
#[derive(Debug, Clone)]
pub struct FlowAnalysis {
    /// Per-site verdicts (what [`SiteClassTable::analyze_flow`] returns).
    pub table: SiteClassTable,
    /// Cross-thread pairs not proven non-racing.
    pub pairs: MayRacePairs,
}

impl FlowAnalysis {
    /// Runs the pipeline: flow-insensitive base classification, then
    /// must-lockset + MHP pairwise reasoning, then redundant-check
    /// elimination, then benign-atomic footprint pruning.
    pub fn run(p: &Program) -> Self {
        let summary = summarize(p);
        let records = summary.accesses();
        let buckets = escape::AddrBuckets::build(records);
        let mut classes = escape::classify(p, records, &buckets);
        let mut witnesses: Vec<Option<SiteId>> = vec![None; classes.len()];

        // Effective must-locksets, per site: summary locks (sound) plus
        // whatever the dataflow fixpoint recovers (e.g. re-acquiring
        // loops).
        let mut locks = flow::must_locksets(p);
        for r in records {
            locks[r.site.index()].union_with(&r.locks);
        }

        let mhp = phase::MhpOracle::build(p);

        // Conflicting pairs: cross-thread, both non-atomic and
        // concurrent, overlapping footprints, at least one write. Each
        // is resolved by a shared must-lock, resolved by MHP ordering, or
        // *unsafe* (a may-race candidate). A pair whose footprints share
        // several addresses is met once per shared address: the flags
        // are idempotent, and the candidate set keeps the smallest
        // address as the pair's witness.
        let mut has_conflict = vec![false; records.len()];
        let mut needed_mhp = vec![false; records.len()];
        let mut has_unsafe = vec![false; records.len()];
        let mut candidates: Vec<(RacePair, Addr)> = Vec::new();
        let mut resolve = |i: usize, j: usize, a: Addr| {
            let (ri, rj) = (&records[i], &records[j]);
            has_conflict[i] = true;
            has_conflict[j] = true;
            if !locks[ri.site.index()].is_disjoint(&locks[rj.site.index()]) {
                return; // mutual exclusion orders the pair
            }
            if mhp.ordered(ri, rj) {
                needed_mhp[i] = true;
                needed_mhp[j] = true;
                return;
            }
            has_unsafe[i] = true;
            has_unsafe[j] = true;
            candidates.push((RacePair::new(ri.site, rj.site), a));
        };
        for (a, bucket) in buckets.iter() {
            // Records are in walk order, thread by thread, so a bucket is
            // a sequence of single-thread runs. A writer pairs with every
            // record of the runs before its own and every reader of the
            // runs after it: each conflicting pair is met once (a
            // writer-writer pair from the later writer), in
            // O(bucket + pairs).
            let mut run_start = 0;
            for run in
                bucket.chunk_by(|&x, &y| records[x as usize].thread == records[y as usize].thread)
            {
                let run_end = run_start + run.len();
                for &i in run.iter().filter(|&&i| records[i as usize].writes) {
                    let after = bucket[run_end..]
                        .iter()
                        .filter(|&&j| !records[j as usize].writes);
                    for &j in bucket[..run_start].iter().chain(after) {
                        resolve(i as usize, j as usize, a);
                    }
                }
                run_start = run_end;
            }
        }
        let pairs = MayRacePairs::from_witnesses(candidates);

        // Upgrade concurrent non-atomic sites with no unsafe pair. Sites
        // the base layer already proved keep their reasons (they can
        // never carry an unsafe pair: every base proof implies each of
        // their conflicting pairs is lock- or thread- or phase-resolved).
        for (i, r) in records.iter().enumerate() {
            if r.atomic || classes[r.site.index()] != SiteClass::PotentiallyRacy {
                continue;
            }
            if has_unsafe[i] {
                continue;
            }
            let reason = if needed_mhp[i] {
                RaceFreeReason::OrderedByPhase
            } else if has_conflict[i] {
                RaceFreeReason::MustLocked
            } else {
                // No conflicting pair at all: finer than the base
                // layer's per-address view (e.g. a read whose only
                // cross-thread company is other reads, beside a
                // same-thread write).
                RaceFreeReason::ReadOnly
            };
            classes[r.site.index()] = SiteClass::RaceFree(reason);
        }

        // Redundant-check elimination over the survivors.
        let surviving =
            |classes: &[SiteClass], s: SiteId| classes[s.index()] == SiteClass::PotentiallyRacy;
        let redundant = flow::redundant_checks(p, &|s| surviving(&classes, s));
        for &(site, witness) in &redundant {
            classes[site.index()] = SiteClass::RaceFree(RaceFreeReason::RedundantCheck);
            witnesses[site.index()] = Some(witness);
        }

        // Benign atomics: lines still touched by surviving checks.
        // (Redundant sites' addresses equal their witnesses', so the
        // hot-line set is unchanged by the elision above.)
        let mut hot_lines: Vec<_> = records
            .iter()
            .filter(|r| !r.atomic && surviving(&classes, r.site))
            .flat_map(|r| r.addrs.iter().map(|a| a.line()))
            .collect();
        hot_lines.sort_unstable();
        hot_lines.dedup();
        for r in records.iter().filter(|r| r.atomic) {
            let benign = r.phase != Phase::Concurrent
                || r.addrs
                    .iter()
                    .all(|a| hot_lines.binary_search(&a.line()).is_err());
            if benign && classes[r.site.index()] == SiteClass::PotentiallyRacy {
                classes[r.site.index()] = SiteClass::RaceFree(RaceFreeReason::BenignAtomic);
            }
        }

        FlowAnalysis {
            table: SiteClassTable {
                classes,
                witnesses,
                analysis: Analysis::Flow,
            },
            pairs,
        }
    }

    /// The duty-cycled production mode's watch set for this analysis
    /// (see [`watch_sites`]), derived without re-running it.
    pub fn watch_sites(&self) -> Vec<SiteId> {
        watch_set(&self.pairs, &self.table)
    }
}

/// Convenience: true when an op kind is subject to slow-path checking at
/// all (plain reads/writes; atomics are never checked).
pub fn op_is_checkable(op: &Op) -> bool {
    op.is_data_access() && !matches!(op, Op::Rmw(_, _))
}

/// The duty-cycled production mode's watch set: every site that appears
/// in a [`MayRacePairs`] candidate pair and is not already proved
/// race-free by `table`. These are the sites a budgeted monitor keeps
/// "debug registers" on while idle — an access to one is the only event
/// that can re-arm full checking, because only these sites can ever
/// appear in a FastTrack report. Sorted ascending, deduplicated.
pub fn watch_sites(p: &Program, table: &SiteClassTable) -> Vec<SiteId> {
    watch_set(&MayRacePairs::analyze(p), table)
}

/// The endpoints of `pairs` that `table` does not prove race-free,
/// sorted ascending and deduplicated.
fn watch_set(pairs: &MayRacePairs, table: &SiteClassTable) -> Vec<SiteId> {
    let mut sites: Vec<SiteId> = pairs
        .pairs()
        .flat_map(|pr| [pr.a, pr.b])
        .filter(|&s| !table.is_race_free(s))
        .collect();
    sites.sort_unstable();
    sites.dedup();
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::{ProgramBuilder, ThreadId};

    fn class_of(p: &Program, t: &SiteClassTable, label: &str) -> SiteClass {
        t.class(p.site(label).expect("label exists"))
    }

    #[test]
    fn unlocked_shared_write_is_racy() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "w0");
        b.thread(1).write_l(x, 2, "w1");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "w0"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "w1"), SiteClass::PotentiallyRacy);
        // The flow layer finds nothing to add: still racy.
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(class_of(&p, &t, "w0"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "w1"), SiteClass::PotentiallyRacy);
    }

    #[test]
    fn common_lock_proves_race_freedom() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        for t in 0..2 {
            b.thread(t)
                .lock(l)
                .write_l(x, 1, &format!("w{t}"))
                .unlock(l);
        }
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(
            class_of(&p, &t, "w0"),
            SiteClass::RaceFree(RaceFreeReason::Lockset)
        );
    }

    #[test]
    fn lock_held_in_only_one_thread_gives_no_credit() {
        // Adversarial: a lock protects nothing if the other thread skips it.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l).write_l(x, 1, "locked").unlock(l);
        b.thread(1).write_l(x, 2, "unlocked");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "locked"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "unlocked"), SiteClass::PotentiallyRacy);
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(class_of(&p, &t, "locked"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "unlocked"), SiteClass::PotentiallyRacy);
    }

    #[test]
    fn different_locks_give_no_credit() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        let m = b.lock_id("m");
        b.thread(0).lock(l).write_l(x, 1, "wl").unlock(l);
        b.thread(1).lock(m).write_l(x, 2, "wm").unlock(m);
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "wl"), SiteClass::PotentiallyRacy);
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(class_of(&p, &t, "wl"), SiteClass::PotentiallyRacy);
    }

    #[test]
    fn false_sharing_is_race_free_despite_shared_line() {
        // Two threads write distinct words of the same cache line: the
        // HTM aborts on this, but no data race exists and the analysis
        // proves it (the measurable win of Full pruning).
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let y = b.var_sharing_line(x, 8);
        assert_eq!(x.line(), y.line());
        b.thread(0).write_l(x, 1, "wx");
        b.thread(1).write_l(y, 2, "wy");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(
            class_of(&p, &t, "wx"),
            SiteClass::RaceFree(RaceFreeReason::ThreadLocal)
        );
        assert_eq!(
            class_of(&p, &t, "wy"),
            SiteClass::RaceFree(RaceFreeReason::ThreadLocal)
        );
    }

    #[test]
    fn read_only_sharing_is_race_free() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).read_l(x, "r0");
        b.thread(1).read_l(x, "r1");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(
            class_of(&p, &t, "r0"),
            SiteClass::RaceFree(RaceFreeReason::ReadOnly)
        );
    }

    #[test]
    fn prespawn_write_then_concurrent_reads() {
        // Adversarial ordering: the address is *written*, but only before
        // any other thread exists; the concurrent accesses are all reads.
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        b.thread(0)
            .write_l(x, 7, "init")
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .join(ThreadId(1))
            .join(ThreadId(2));
        b.thread(1).read_l(x, "r1");
        b.thread(2).read_l(x, "r2");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(
            class_of(&p, &t, "init"),
            SiteClass::RaceFree(RaceFreeReason::SinglePhase)
        );
        assert_eq!(
            class_of(&p, &t, "r1"),
            SiteClass::RaceFree(RaceFreeReason::ReadOnly)
        );
    }

    #[test]
    fn concurrent_write_poisons_concurrent_readers() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        b.thread(0)
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .join(ThreadId(1))
            .join(ThreadId(2));
        b.thread(1).write_l(x, 1, "w");
        b.thread(2).read_l(x, "r");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "w"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "r"), SiteClass::PotentiallyRacy);
    }

    #[test]
    fn rmw_is_never_race_free() {
        // Even a thread-local RMW stays unpruned: its HTM conflict
        // footprint must survive Full-mode re-instrumentation.
        let mut b = ProgramBuilder::new(2);
        let c = b.var("counter");
        b.thread(0).rmw_l(c, 1, "inc0");
        b.thread(1).rmw_l(c, 1, "inc1");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "inc0"), SiteClass::PotentiallyRacy);
        // But the RMWs do not poison plain accesses: detectors never
        // check or record atomics, so a read beside them is still safe.
        let mut b = ProgramBuilder::new(2);
        let c = b.var("counter");
        b.thread(0).rmw(c, 1).read_l(c, "peek0");
        b.thread(1).rmw(c, 1).read_l(c, "peek1");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(
            class_of(&p, &t, "peek0"),
            SiteClass::RaceFree(RaceFreeReason::ReadOnly)
        );
    }

    #[test]
    fn overlapping_array_footprints_are_racy_disjoint_are_not() {
        let mut b = ProgramBuilder::new(2);
        let arr = b.array("arr", 16);
        // Thread 0 writes elements 0..4, thread 1 writes elements 4..8:
        // element 4 overlaps.
        b.thread(0).loop_n(5, |tb| {
            tb.write_arr_l(arr, 8, 1, "lo");
        });
        b.thread(1).loop_n(4, |tb| {
            tb.write_arr_l(arr.offset(4 * 8), 8, 2, "hi");
        });
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "lo"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "hi"), SiteClass::PotentiallyRacy);

        // Truly disjoint halves: race-free.
        let mut b = ProgramBuilder::new(2);
        let arr = b.array("arr", 16);
        b.thread(0).loop_n(4, |tb| {
            tb.write_arr_l(arr, 8, 1, "lo");
        });
        b.thread(1).loop_n(4, |tb| {
            tb.write_arr_l(arr.offset(4 * 8), 8, 2, "hi");
        });
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(
            class_of(&p, &t, "lo"),
            SiteClass::RaceFree(RaceFreeReason::ThreadLocal)
        );
        assert_eq!(
            class_of(&p, &t, "hi"),
            SiteClass::RaceFree(RaceFreeReason::ThreadLocal)
        );
    }

    #[test]
    fn lock_drifting_loop_disables_lockset_credit() {
        // Adversarial: thread 0's lock depth drifts across iterations, so
        // the summary drops the lock and the classifier must not prune.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(3, |tb| {
            tb.lock(l).write_l(x, 1, "drift");
        });
        b.thread(1).lock(l).write_l(x, 2, "clean").unlock(l);
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "drift"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "clean"), SiteClass::PotentiallyRacy);
    }

    #[test]
    fn flow_lockset_fixpoint_recovers_the_drifting_loop() {
        // The same program under the flow-sensitive layer: the fixpoint
        // proves `l` held at the in-loop write, and pairwise lock credit
        // resolves both sites.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(3, |tb| {
            tb.lock(l).write_l(x, 1, "drift");
        });
        b.thread(1).lock(l).write_l(x, 2, "clean").unlock(l);
        let p = b.build();
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(
            class_of(&p, &t, "drift"),
            SiteClass::RaceFree(RaceFreeReason::MustLocked)
        );
        assert_eq!(
            class_of(&p, &t, "clean"),
            SiteClass::RaceFree(RaceFreeReason::MustLocked)
        );
        assert!(MayRacePairs::analyze(&p).is_empty());
    }

    #[test]
    fn barrier_phases_prove_cross_thread_ordering() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        b.thread(0).write_l(x, 1, "producer").barrier(bar);
        b.thread(1).barrier(bar).read_l(x, "consumer");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "producer"), SiteClass::PotentiallyRacy);
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(
            class_of(&p, &t, "producer"),
            SiteClass::RaceFree(RaceFreeReason::OrderedByPhase)
        );
        assert_eq!(
            class_of(&p, &t, "consumer"),
            SiteClass::RaceFree(RaceFreeReason::OrderedByPhase)
        );
    }

    #[test]
    fn redundant_recheck_is_elided_with_a_witness() {
        // Thread 0 writes then re-reads x in one sync-free span; thread 1
        // races on x. The write survives as the witness; the re-read's
        // check detects nothing the write's would not.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).write_l(x, 1, "w").read_l(x, "r");
        b.thread(1).write_l(x, 2, "other");
        let p = b.build();
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(class_of(&p, &t, "w"), SiteClass::PotentiallyRacy);
        assert_eq!(
            class_of(&p, &t, "r"),
            SiteClass::RaceFree(RaceFreeReason::RedundantCheck)
        );
        assert_eq!(t.witness_of(p.site("r").unwrap()), p.site("w"));
        assert_eq!(t.witness_of(p.site("w").unwrap()), None);
        // Both endpoints still appear in the candidate set: the pairs
        // are generated before the redundancy pass.
        let mrp = MayRacePairs::analyze(&p);
        assert!(mrp.contains(p.site("r").unwrap(), p.site("other").unwrap()));
        assert!(mrp.contains(p.site("w").unwrap(), p.site("other").unwrap()));
    }

    #[test]
    fn zero_conflict_read_beside_same_thread_write_is_read_only() {
        // r0's only cross-thread company on x is another read: the
        // pairwise view prunes it (ReadOnly) even though the per-address
        // view is poisoned by the same-thread write.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0)
            .write_l(x, 1, "w0")
            .syscall(txrace_sim::SyscallKind::Io);
        b.thread(0).read_l(x, "r0");
        b.thread(1).read_l(x, "r1");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "r0"), SiteClass::PotentiallyRacy);
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(
            class_of(&p, &t, "r0"),
            SiteClass::RaceFree(RaceFreeReason::ReadOnly)
        );
        // The write itself still races with nothing (r1 is a read? no —
        // w0 vs r1 IS conflicting and unresolved): it stays racy.
        assert_eq!(class_of(&p, &t, "w0"), SiteClass::PotentiallyRacy);
        assert_eq!(class_of(&p, &t, "r1"), SiteClass::PotentiallyRacy);
    }

    #[test]
    fn cold_line_atomic_is_benign_hot_line_atomic_is_not() {
        // Shared counter on its own line beside an unrelated racy pair:
        // the RMWs lose their HTM footprint under flow mode only.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let c = b.var("counter");
        assert_ne!(x.line(), c.line());
        b.thread(0).rmw_l(c, 1, "inc0").write_l(x, 1, "w0");
        b.thread(1).rmw_l(c, 1, "inc1").write_l(x, 2, "w1");
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(class_of(&p, &t, "inc0"), SiteClass::PotentiallyRacy);
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(
            class_of(&p, &t, "inc0"),
            SiteClass::RaceFree(RaceFreeReason::BenignAtomic)
        );
        assert_eq!(
            class_of(&p, &t, "inc1"),
            SiteClass::RaceFree(RaceFreeReason::BenignAtomic)
        );
        assert_eq!(class_of(&p, &t, "w0"), SiteClass::PotentiallyRacy);

        // Same program, but the counter shares the racy pair's line:
        // stripping the RMW would strip a line the surviving checks
        // still need aborts on — it must stay.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let c = b.var_sharing_line(x, 8);
        b.thread(0).rmw_l(c, 1, "inc0").write_l(x, 1, "w0");
        b.thread(1).rmw_l(c, 1, "inc1").write_l(x, 2, "w1");
        let p = b.build();
        let t = SiteClassTable::analyze_flow(&p);
        assert_eq!(class_of(&p, &t, "inc0"), SiteClass::PotentiallyRacy);
    }

    #[test]
    fn flow_layer_only_adds_verdicts() {
        // Every base-layer verdict survives identically under the flow
        // layer on a program exercising all base reasons.
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        let l = b.lock_id("l");
        b.thread(0)
            .write(z, 7)
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .join(ThreadId(1))
            .join(ThreadId(2));
        b.thread(1).read(x).lock(l).write(y, 1).unlock(l);
        b.thread(2).read(x).lock(l).write(y, 2).unlock(l);
        b.thread(2).loop_n(0, |tb| {
            tb.write(x, 9);
        });
        let p = b.build();
        let base = SiteClassTable::analyze(&p);
        let flow = SiteClassTable::analyze_flow(&p);
        for s in 0..p.site_count() {
            let site = SiteId(s);
            if let SiteClass::RaceFree(r) = base.class(site) {
                assert_eq!(flow.class(site), SiteClass::RaceFree(r), "site {s}");
            }
        }
    }

    #[test]
    fn dead_code_and_marker_sites() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).loop_n(0, |tb| {
            tb.write_l(x, 1, "dead");
        });
        b.thread(1).write(x, 2);
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        assert_eq!(
            class_of(&p, &t, "dead"),
            SiteClass::RaceFree(RaceFreeReason::Dead)
        );
        // Out-of-range (marker) sites are never pruned.
        assert!(!t.is_race_free(SiteId(p.site_count() + 3)));
    }

    #[test]
    fn stats_count_by_reason() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        let l = b.lock_id("l");
        b.thread(0).read_l(x, "rx").lock(l).write(y, 1).unlock(l);
        b.thread(1).read(x).lock(l).write(y, 2).unlock(l);
        let p = b.build();
        let t = SiteClassTable::analyze(&p);
        let st = t.stats(&p);
        assert_eq!(st.data_sites, 4);
        assert_eq!(st.race_free, 4);
        assert_eq!(st.read_only, 2);
        assert_eq!(st.lockset, 2);
        assert!((st.pruned_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pruned_fraction_is_trip_weighted() {
        // One pruned one-shot read, one racy write in a 9-trip loop:
        // half the sites are pruned but only 1 of 10 dynamic accesses.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let y = b.var("y");
        b.thread(0).read(y);
        b.thread(0).loop_n(9, |tb| {
            tb.write(x, 1);
        });
        b.thread(1).loop_n(9, |tb| {
            tb.write(x, 2);
        });
        let p = b.build();
        let st = SiteClassTable::analyze(&p).stats(&p);
        assert_eq!(st.data_sites, 3);
        assert_eq!(st.race_free, 1);
        assert_eq!(st.dyn_data_ops, 19);
        assert_eq!(st.dyn_race_free, 1);
        assert!((st.static_pruned_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((st.pruned_fraction() - 1.0 / 19.0).abs() < 1e-12);
    }

    /// Edge cases of the dense layout: bitsets past one word, loops that
    /// drift lock depths, memoized bucket safety, and empty arrays.
    mod dense_layout {
        use super::*;
        use txrace_sim::LockId;

        fn race_free(reason: RaceFreeReason) -> SiteClass {
            SiteClass::RaceFree(reason)
        }

        /// A builder with `n` locks allocated, so `LockId(n - 1)` is valid.
        fn with_locks(threads: usize, n: usize) -> (ProgramBuilder, Vec<LockId>) {
            let mut b = ProgramBuilder::new(threads);
            let locks = (0..n).map(|i| b.lock_id(&format!("l{i}"))).collect();
            (b, locks)
        }

        #[test]
        fn common_lock_past_the_first_word() {
            // 70 locks: the only common lock is l66, in the second word.
            let (mut b, l) = with_locks(2, 70);
            let x = b.var("x");
            b.thread(0)
                .lock(l[3])
                .lock(l[66])
                .write_l(x, 1, "w0")
                .unlock(l[66])
                .unlock(l[3]);
            b.thread(1).lock(l[66]).write_l(x, 2, "w1").unlock(l[66]);
            let p = b.build();
            let t = SiteClassTable::analyze(&p);
            assert_eq!(class_of(&p, &t, "w0"), race_free(RaceFreeReason::Lockset));
            assert_eq!(class_of(&p, &t, "w1"), race_free(RaceFreeReason::Lockset));
            assert!(MayRacePairs::analyze(&p).is_empty());
        }

        #[test]
        fn same_bit_in_different_words_is_no_common_lock() {
            // l0 and l64 share bit 0 of their words; they are different
            // locks and give no credit.
            let (mut b, l) = with_locks(2, 65);
            let x = b.var("x");
            b.thread(0).lock(l[0]).write_l(x, 1, "w0").unlock(l[0]);
            b.thread(1).lock(l[64]).write_l(x, 2, "w1").unlock(l[64]);
            let p = b.build();
            for t in [
                SiteClassTable::analyze(&p),
                SiteClassTable::analyze_flow(&p),
            ] {
                assert_eq!(class_of(&p, &t, "w0"), SiteClass::PotentiallyRacy);
                assert_eq!(class_of(&p, &t, "w1"), SiteClass::PotentiallyRacy);
            }
            let mrp = MayRacePairs::analyze(&p);
            assert!(mrp.contains(p.site("w0").unwrap(), p.site("w1").unwrap()));
        }

        #[test]
        fn must_lockset_meet_spans_words() {
            // Thread 0 re-acquires l67 every iteration (the summary drops
            // it) and takes l2 only at the end of each; the fixpoint keeps
            // l67 (second word) and meets l2 (first word) away, since the
            // first trip reaches the writes without it.
            let (mut b, l) = with_locks(2, 70);
            let x = b.var("x");
            let y = b.var("y");
            b.thread(0).loop_n(3, |tb| {
                tb.lock(l[67])
                    .write_l(x, 1, "wx")
                    .write_l(y, 1, "wy")
                    .lock(l[2]);
            });
            b.thread(1)
                .lock(l[67])
                .write_l(x, 2, "ox")
                .unlock(l[67])
                .lock(l[2])
                .write_l(y, 2, "oy")
                .unlock(l[2]);
            let p = b.build();
            let base = SiteClassTable::analyze(&p);
            assert_eq!(class_of(&p, &base, "wx"), SiteClass::PotentiallyRacy);
            let t = SiteClassTable::analyze_flow(&p);
            assert_eq!(
                class_of(&p, &t, "wx"),
                race_free(RaceFreeReason::MustLocked)
            );
            assert_eq!(
                class_of(&p, &t, "ox"),
                race_free(RaceFreeReason::MustLocked)
            );
            assert_eq!(class_of(&p, &t, "wy"), SiteClass::PotentiallyRacy);
            assert_eq!(class_of(&p, &t, "oy"), SiteClass::PotentiallyRacy);
            let mrp = MayRacePairs::analyze(&p);
            assert_eq!(mrp.len(), 1);
            assert!(mrp.contains(p.site("wy").unwrap(), p.site("oy").unwrap()));
        }

        #[test]
        fn nested_loops_with_lock_drift() {
            // Inner drift (thread 0): the write after `loop 3 { lock }`
            // sees depth >= 1 on every path, inside a 2-trip outer loop.
            // Outer drift (thread 2): the write before the outer body's
            // lock runs unlocked on the first trip. Only the flow layer
            // proves the first; nothing proves the second.
            let mut b = ProgramBuilder::new(3);
            let x = b.var("x");
            let y = b.var("y");
            let l = b.lock_id("l");
            b.thread(0).loop_n(2, |tb| {
                tb.loop_n(3, |tb| {
                    tb.lock(l);
                });
                tb.write_l(x, 1, "after_inner");
            });
            b.thread(2).loop_n(4, |tb| {
                tb.loop_n(2, |tb| {
                    tb.write_l(y, 1, "before_lock");
                });
                tb.lock(l);
            });
            b.thread(1)
                .lock(l)
                .write_l(x, 2, "ox")
                .write_l(y, 2, "oy")
                .unlock(l);
            let p = b.build();
            let base = SiteClassTable::analyze(&p);
            assert_eq!(
                class_of(&p, &base, "after_inner"),
                SiteClass::PotentiallyRacy
            );
            let t = SiteClassTable::analyze_flow(&p);
            assert_eq!(
                class_of(&p, &t, "after_inner"),
                race_free(RaceFreeReason::MustLocked)
            );
            assert_eq!(
                class_of(&p, &t, "ox"),
                race_free(RaceFreeReason::MustLocked)
            );
            assert_eq!(class_of(&p, &t, "before_lock"), SiteClass::PotentiallyRacy);
            assert_eq!(class_of(&p, &t, "oy"), SiteClass::PotentiallyRacy);
        }

        #[test]
        fn four_threads_share_one_locked_array() {
            // Every thread writes the same 8-element array under `l`:
            // each address's bucket holds all four records, and the
            // memoized bucket safety proves all of them.
            let mut b = ProgramBuilder::new(4);
            let arr = b.array("arr", 8);
            let l = b.lock_id("l");
            for t in 0..4 {
                b.thread(t).loop_n(8, |tb| {
                    tb.lock(l)
                        .write_arr_l(arr, 8, t as u64, &format!("w{t}"))
                        .unlock(l);
                });
            }
            let p = b.build();
            let base = SiteClassTable::analyze(&p);
            let flow = FlowAnalysis::run(&p);
            for t in 0..4 {
                let w = format!("w{t}");
                assert_eq!(class_of(&p, &base, &w), race_free(RaceFreeReason::Lockset));
                assert_eq!(
                    class_of(&p, &flow.table, &w),
                    race_free(RaceFreeReason::Lockset)
                );
            }
            assert!(flow.pairs.is_empty());

            // One thread skips the lock: every address is poisoned, and
            // the candidates are exactly the three pairs with the
            // unlocked thread, each witnessed at the array's first element.
            let mut b = ProgramBuilder::new(4);
            let arr = b.array("arr", 8);
            let l = b.lock_id("l");
            for t in 0..4 {
                b.thread(t).loop_n(8, |tb| {
                    if t == 3 {
                        tb.write_arr_l(arr, 8, 3, "w3");
                    } else {
                        tb.lock(l)
                            .write_arr_l(arr, 8, t as u64, &format!("w{t}"))
                            .unlock(l);
                    }
                });
            }
            let p = b.build();
            let base = SiteClassTable::analyze(&p);
            let flow = FlowAnalysis::run(&p);
            for t in 0..4 {
                let w = format!("w{t}");
                assert_eq!(class_of(&p, &base, &w), SiteClass::PotentiallyRacy);
                assert_eq!(class_of(&p, &flow.table, &w), SiteClass::PotentiallyRacy);
            }
            let w3 = p.site("w3").unwrap();
            let pairs: Vec<RacePair> = flow.pairs.pairs().collect();
            assert_eq!(pairs.len(), 3);
            for t in 0..3 {
                let pr = RacePair::new(p.site(&format!("w{t}")).unwrap(), w3);
                assert!(pairs.contains(&pr));
                assert_eq!(flow.pairs.witness_addr(pr), Some(arr));
            }
            assert_eq!(flow.watch_sites().len(), 4);
        }

        #[test]
        fn zero_trip_loops_are_dead_and_hold_nothing() {
            // A zero-trip loop's accesses are dead, its lock never
            // executes, and its barrier never counts.
            let mut b = ProgramBuilder::new(2);
            let x = b.var("x");
            let l = b.lock_id("l");
            let bar = b.barrier_id("bar");
            b.thread(0).loop_n(0, |tb| {
                tb.lock(l).write_l(x, 9, "dead").barrier(bar);
            });
            b.thread(0).write_l(x, 1, "w0");
            b.thread(1).write_l(x, 2, "w1").barrier(bar);
            let p = b.build();
            let flow = FlowAnalysis::run(&p);
            assert_eq!(
                class_of(&p, &flow.table, "dead"),
                race_free(RaceFreeReason::Dead)
            );
            assert_eq!(class_of(&p, &flow.table, "w0"), SiteClass::PotentiallyRacy);
            assert_eq!(class_of(&p, &flow.table, "w1"), SiteClass::PotentiallyRacy);
            assert_eq!(flow.pairs.len(), 1);
            // Everything in the program dead: no records, no pairs.
            let mut b = ProgramBuilder::new(2);
            let x = b.var("x");
            for t in 0..2 {
                b.thread(t).loop_n(0, |tb| {
                    tb.write_l(x, 1, &format!("d{t}"));
                });
            }
            let p = b.build();
            let flow = FlowAnalysis::run(&p);
            assert_eq!(
                class_of(&p, &flow.table, "d0"),
                race_free(RaceFreeReason::Dead)
            );
            assert!(flow.pairs.is_empty() && flow.watch_sites().is_empty());
        }

        #[test]
        fn programs_without_locks_or_barriers() {
            // No locks and no barriers: the lock rows and the interval
            // arrays are empty, and the verdicts come from thread
            // locality and the racy pair alone.
            let mut b = ProgramBuilder::new(2);
            let x = b.var("x");
            let y = b.var("y");
            b.thread(0).write_l(x, 1, "w0").write_l(y, 1, "local");
            b.thread(1).read_l(x, "r1");
            let p = b.build();
            assert_eq!((p.lock_count(), p.barrier_count()), (0, 0));
            let flow = FlowAnalysis::run(&p);
            assert_eq!(class_of(&p, &flow.table, "w0"), SiteClass::PotentiallyRacy);
            assert_eq!(class_of(&p, &flow.table, "r1"), SiteClass::PotentiallyRacy);
            assert_eq!(
                class_of(&p, &flow.table, "local"),
                race_free(RaceFreeReason::ThreadLocal)
            );
            let pr = RacePair::new(p.site("w0").unwrap(), p.site("r1").unwrap());
            assert_eq!(flow.pairs.witness_addr(pr), Some(x));

            // Barriers but no locks, and locks but no barriers.
            let mut b = ProgramBuilder::new(2);
            let x = b.var("x");
            let bar = b.barrier_id("bar");
            b.thread(0).write_l(x, 1, "w0").barrier(bar);
            b.thread(1).barrier(bar).write_l(x, 2, "w1");
            let p = b.build();
            let t = SiteClassTable::analyze_flow(&p);
            assert_eq!(
                class_of(&p, &t, "w0"),
                race_free(RaceFreeReason::OrderedByPhase)
            );
            let mut b = ProgramBuilder::new(2);
            let x = b.var("x");
            let l = b.lock_id("l");
            b.thread(0).lock(l).write_l(x, 1, "w0").unlock(l);
            b.thread(1).lock(l).write_l(x, 2, "w1").unlock(l);
            let p = b.build();
            let t = SiteClassTable::analyze_flow(&p);
            assert_eq!(class_of(&p, &t, "w1"), race_free(RaceFreeReason::Lockset));

            // No data accesses at all.
            let mut b = ProgramBuilder::new(2);
            let l = b.lock_id("l");
            b.thread(0).lock(l).unlock(l);
            b.thread(1).compute(5);
            let p = b.build();
            let flow = FlowAnalysis::run(&p);
            assert!(flow.pairs.is_empty());
            assert_eq!(flow.table.stats(&p).data_sites, 0);
            assert!(!flow.table.is_race_free(SiteId(0)));
        }
    }
}
