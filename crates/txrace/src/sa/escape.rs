//! The flow-insensitive base classification: thread-escape, phase,
//! read-only, and whole-program common-lockset reasoning over the
//! [`txrace_sim::summary`] records.
//!
//! This is the original `sa` analysis: [`classify`] is the sole
//! classification used by [`StaticPruneMode::Full`], and the first stage
//! of the flow-sensitive pipeline ([`SiteClassTable::analyze_flow`]),
//! which only ever *adds* race-free verdicts on top of these.
//!
//! Both stages read the same conflict sets, the [`AddrBuckets`]: the
//! concurrent, non-atomic footprint entries sorted by address. A site is
//! safe when every address it touches is safe, and an address's safety
//! depends only on its bucket, so [`classify`] computes it once per
//! bucket (lock intersection is a bitset AND over the bucket's records)
//! and folds it into each record in the bucket: `O(E log E + E·W)` for
//! `E` footprint entries and `W` lock words.
//!
//! [`StaticPruneMode::Full`]: crate::sa::StaticPruneMode::Full
//! [`SiteClassTable::analyze_flow`]: crate::sa::SiteClassTable::analyze_flow

use txrace_sim::summary::Phase;
use txrace_sim::{Addr, Program, SiteAccess};

use super::{RaceFreeReason, SiteClass};

/// The conflict sets of a program: for every address, the
/// concurrent-phase, non-atomic records whose footprint covers it.
/// Atomics are excluded because detectors neither check nor record them
/// — an RMW can never appear on either side of a race report.
///
/// A bucket whose records equal the previous (next-lower) address's is
/// left out: every consumer folds buckets idempotently and keeps the
/// smallest witness address, so it would only repeat the previous
/// bucket's result. This collapses an array swept by the same sites into
/// one bucket.
pub(super) struct AddrBuckets {
    /// Each kept bucket's address and start in `records`, by ascending
    /// address; a bucket ends where the next one starts.
    starts: Vec<(Addr, u32)>,
    /// Record indices, bucket after bucket, ascending within a bucket; a
    /// record whose footprint repeats an address appears once per
    /// repetition.
    records: Vec<u32>,
}

impl AddrBuckets {
    /// Collects and sorts the footprint entries of `records`.
    pub fn build(records: &[SiteAccess]) -> Self {
        let mut entries: Vec<(Addr, u32)> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if r.phase != Phase::Concurrent || r.atomic {
                continue;
            }
            entries.extend(r.addrs.iter().map(|&a| (a, i as u32)));
        }
        entries.sort_unstable();
        let mut b = AddrBuckets {
            starts: Vec::new(),
            records: Vec::with_capacity(entries.len()),
        };
        // The previous bucket, as a range of `b.records`.
        let mut prev = 0..0;
        for run in entries.chunk_by(|x, y| x.0 == y.0) {
            let start = b.records.len();
            b.records.extend(run.iter().map(|e| e.1));
            if b.records[start..] == b.records[prev.clone()] {
                b.records.truncate(start);
            } else {
                b.starts.push((run[0].0, start as u32));
                prev = start..b.records.len();
            }
        }
        b
    }

    /// Every kept bucket as `(address, records ascending)`, by ascending
    /// address.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &[u32])> + '_ {
        self.starts.iter().enumerate().map(|(b, &(a, start))| {
            let end = self
                .starts
                .get(b + 1)
                .map_or(self.records.len(), |&(_, e)| e as usize);
            (a, &self.records[start as usize..end])
        })
    }
}

/// Classifies every site of `p` with the flow-insensitive analyses.
/// `records` must be the access records of `txrace_sim::summarize(p)` and
/// `buckets` their [`AddrBuckets`].
pub(super) fn classify(
    p: &Program,
    records: &[SiteAccess],
    buckets: &AddrBuckets,
) -> Vec<SiteClass> {
    // Per record, the AND of the safety of every address it touches.
    let mut safety = vec![AddrSafety::ALL; records.len()];
    for (_, bucket) in buckets.iter() {
        let s = bucket_safety(records, bucket);
        for &i in bucket {
            safety[i as usize].and(s);
        }
    }

    // Which sites are data accesses at all (and their record, if any).
    let mut is_data = vec![false; p.site_count() as usize];
    p.visit_static(&mut |_, site, op| {
        // Sync ops, compute, and syscalls are never checked; their
        // class stays PotentiallyRacy, which is vacuously sound.
        if op.is_data_access() {
            is_data[site.index()] = true;
        }
    });
    let mut record_of: Vec<Option<usize>> = vec![None; p.site_count() as usize];
    for (i, r) in records.iter().enumerate() {
        record_of[r.site.index()] = Some(i);
    }

    (0..p.site_count() as usize)
        .map(|s| {
            if !is_data[s] {
                return SiteClass::PotentiallyRacy;
            }
            let Some(ri) = record_of[s] else {
                // A data site with no record sits under a zero-trip
                // loop: it never executes.
                return SiteClass::RaceFree(RaceFreeReason::Dead);
            };
            let r = &records[ri];
            if r.atomic {
                return SiteClass::PotentiallyRacy;
            }
            if r.phase != Phase::Concurrent {
                return SiteClass::RaceFree(RaceFreeReason::SinglePhase);
            }
            let s = safety[ri];
            if !s.safe {
                return SiteClass::PotentiallyRacy;
            }
            let reason = if s.single_thread {
                RaceFreeReason::ThreadLocal
            } else if s.write_free {
                RaceFreeReason::ReadOnly
            } else {
                RaceFreeReason::Lockset
            };
            SiteClass::RaceFree(reason)
        })
        .collect()
}

/// The safety of one address, from its bucket of records.
fn bucket_safety(records: &[SiteAccess], bucket: &[u32]) -> AddrSafety {
    let rec = |i: &u32| &records[*i as usize];
    let single_thread = bucket
        .windows(2)
        .all(|w| rec(&w[0]).thread == rec(&w[1]).thread);
    let write_free = bucket.iter().all(|i| !rec(i).writes);
    // A lock common to every record: the intersection of their lock
    // sets is non-empty.
    let mut common = rec(&bucket[0]).locks.clone();
    for i in &bucket[1..] {
        common.intersect_with(&rec(i).locks);
    }
    let common_lock = !common.is_empty();
    AddrSafety {
        safe: single_thread || write_free || common_lock,
        single_thread,
        write_free,
    }
}

#[derive(Debug, Clone, Copy)]
struct AddrSafety {
    safe: bool,
    single_thread: bool,
    write_free: bool,
}

impl AddrSafety {
    /// The identity of [`AddrSafety::and`] (a record touching no
    /// concurrent address is trivially thread-local).
    const ALL: AddrSafety = AddrSafety {
        safe: true,
        single_thread: true,
        write_free: true,
    };

    fn and(&mut self, o: AddrSafety) {
        self.safe &= o.safe;
        self.single_thread &= o.single_thread;
        self.write_free &= o.write_free;
    }
}
