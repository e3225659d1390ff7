//! Address-sharded replay detection: FastTrack shadow state partitioned
//! across W workers over one shared, pre-indexed view of an
//! [`EventLog`].
//!
//! Sharding is not a claimed speedup. Measured end to end (plan build
//! included) it runs at 0.46x the speed of one serial FastTrack pass on
//! a 2-core host, because building the plan costs more than the
//! detection it splits. It stays only as a timed, equivalence-checked
//! stage of the `replay` benchmark workload.
//!
//! The parallelization rule is the classic one for per-variable race
//! detectors:
//!
//! * **Data accesses route.** Each address is owned by exactly one shard
//!   ([`shard_of`]); a shard checks only the accesses it owns, so the
//!   shadow-state work — the dominant cost on access-heavy traces — is
//!   split W ways.
//! * **Sync events broadcast.** Every shard processes every
//!   lock/unlock/signal/wait/spawn/join/barrier/channel event, so each
//!   shard maintains the *full* vector-clock state. A variable's race
//!   verdict depends only on the sync history plus that variable's own
//!   accesses, both of which its owning shard sees completely — hence
//!   every per-access verdict is identical to the serial detector's.
//! * **Reports merge deterministically.** Each shard tags its reports
//!   with its own ordinal of the triggering access; the driver maps that
//!   ordinal to the access's global event index through the shard's
//!   [`ShardPlan`] slice, so shards agree without seeing each other.
//!   Concatenating the per-shard report lists in shard order and
//!   stable-sorting by event index reconstructs the serial discovery
//!   order exactly; feeding that sequence through a fresh [`RaceSet`]
//!   reproduces the serial first-report-per-pair dedup, because a
//!   pair's globally-first report is also first within its own shard
//!   (an address lives on one shard only).
//!
//! Shards do **not** replay the log: [`ShardPlan::build`] derives a
//! [`SyncIndex`] plus per-shard [`AccessPartition`] slices from the
//! decoded log, and each shard is a plain [`TraceConsumer`] fed (its
//! slice + the shared sync stream) through the two-cursor merge of
//! [`SyncIndex::replay_merged`].
//! Per-shard work is O(accesses/W + sync) instead of O(all events).
//! Shards run on [`par_map`], so never more at once than there are
//! cores.
//!
//! Sharding supports [`ShadowMode::Exact`] only: `Cells` mode draws
//! evictions from a single global RNG stream whose state depends on the
//! interleaved access order across *all* addresses, which no
//! partitioning can reproduce.

use txrace_sim::{
    par_map, AccessPartition, Addr, BarrierId, ChanId, CondId, EventLog, LockId, SiteId, SyncIndex,
    ThreadId, TraceConsumer,
};

use crate::fasttrack::{FastTrack, ShadowMode};
use crate::report::{RaceReport, RaceSet};

/// The shard owning `addr` among `shards` shards.
///
/// Routing hashes the 8-byte word index (Fibonacci multiplicative hash)
/// and maps the hash to `0..shards` through its *top* bits (128-bit
/// multiply-shift) rather than a plain modulo: scalar variables are
/// allocated one per 64-byte cache line, so `word_index % shards` would
/// alias every scalar onto one shard whenever `shards` divides 8, and
/// the low bits of a multiplicative hash step too slowly for strided
/// inputs. The top-bits mapping spreads both line-aligned scalars and
/// dense array strides evenly.
#[inline]
pub fn shard_of(addr: Addr, shards: usize) -> usize {
    let h = (addr.word() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h as u128 * shards as u128) >> 64) as usize
}

/// One log's pre-indexed sharding work plan: the shared sync stream plus
/// per-shard access slices, built once and consumed by every
/// [`ShardedFastTrack::run_with_plan`] over the same log.
///
/// The plan is always **derived** from a decoded [`EventLog`], never
/// deserialized from disk: the wire format carries only the flat event
/// stream, so an index can never disagree with the log it claims to
/// describe.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    sync: SyncIndex,
    partition: AccessPartition,
}

impl ShardPlan {
    /// Indexes `log` for `shards` shards: one pass to lift the sync
    /// stream, one to route accesses through [`shard_of`].
    pub fn build(log: &EventLog, shards: usize) -> Self {
        ShardPlan {
            sync: SyncIndex::of(log),
            partition: AccessPartition::of(log, shards, shard_of),
        }
    }

    /// Number of shards this plan routes to.
    pub fn shards(&self) -> usize {
        self.partition.shards()
    }

    /// The shared sync stream.
    pub fn sync(&self) -> &SyncIndex {
        &self.sync
    }

    /// The per-shard access slices.
    pub fn partition(&self) -> &AccessPartition {
        &self.partition
    }

    /// Events shard `shard` will dispatch: its access slice plus the
    /// shared sync stream.
    pub fn shard_events(&self, shard: usize) -> u64 {
        self.partition.slice(shard).len() as u64 + self.sync.len() as u64
    }
}

/// Per-shard work counters, for imbalance diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Events this shard dispatched: its routed access slice plus the
    /// shared sync stream.
    pub events: u64,
    /// Access checks this shard performed (its routed share).
    pub checks: u64,
}

/// One shard: a FastTrack with the full sync state and 1/W of the
/// per-variable state. The plan already routed its accesses, so there is
/// no ownership check on the hot path; reports are tagged with the
/// shard's own access ordinal `k`, which [`ShardedFastTrack::run_with_plan`]
/// maps to a global event index through `slice[k].0`.
struct Shard {
    det: FastTrack,
    /// Accesses seen so far (the next access's ordinal).
    accesses: usize,
    /// `(access ordinal, report)` in within-shard discovery order.
    tagged: Vec<(usize, RaceReport)>,
}

impl Shard {
    fn check(&mut self, access: impl FnOnce(&mut FastTrack)) {
        let before = self.det.races().reports().len();
        access(&mut self.det);
        let k = self.accesses;
        self.tagged
            .extend(self.det.races().reports()[before..].iter().map(|&r| (k, r)));
        self.accesses += 1;
    }
}

impl TraceConsumer for Shard {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.check(|d| d.read(t, site, addr));
    }
    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.check(|d| d.write(t, site, addr));
    }
    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.det.acquire(t, site, l);
    }
    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.det.release(t, site, l);
    }
    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.det.signal(t, site, c);
    }
    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.det.wait(t, site, c);
    }
    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.det.spawn(t, site, child);
    }
    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.det.join(t, site, child);
    }
    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.det.barrier_release(b, arrivals);
    }
    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.det.chan_send(t, site, ch);
    }
    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.det.chan_recv(t, site, ch);
    }
}

/// Result of a sharded FastTrack replay pass.
#[derive(Debug)]
pub struct ShardedFtOutcome {
    /// Merged races, byte-identical to a serial Exact-mode replay.
    pub races: RaceSet,
    /// Total access checks (sums to the serial count — each access is
    /// checked on exactly one shard).
    pub checks: u64,
    /// Sync operations tracked (per shard; identical on every shard
    /// because sync events broadcast).
    pub sync_ops: u64,
    /// Per-shard work breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}

/// FastTrack with shadow state partitioned across `workers` shards.
///
/// [`ShardedFastTrack::run_with_plan`] merges the per-shard verdicts;
/// the outcome is byte-identical to a serial
/// `FastTrack::new(threads, ShadowMode::Exact)` replay of the same log
/// (races, report order, check totals). See the module docs for the
/// equivalence argument and why `Cells` mode is excluded.
#[derive(Debug, Clone, Copy)]
pub struct ShardedFastTrack {
    threads: usize,
    workers: usize,
}

impl ShardedFastTrack {
    /// Creates a sharded detector over `workers >= 1` shards.
    pub fn new(threads: usize, workers: usize) -> Self {
        ShardedFastTrack {
            threads,
            workers: workers.max(1),
        }
    }

    /// Runs the shards over `plan` (built with [`ShardPlan::build`] for
    /// this worker count); one plan serves any number of detectors and
    /// repetitions.
    pub fn run_with_plan(&self, plan: &ShardPlan) -> ShardedFtOutcome {
        assert_eq!(plan.shards(), self.workers, "plan built for another width");
        let runs = par_map(plan.shards(), plan.partition().slices(), |shard, slice| {
            let mut s = Shard {
                det: FastTrack::new(self.threads, ShadowMode::Exact),
                accesses: 0,
                tagged: Vec::new(),
            };
            plan.sync().replay_merged(slice, &mut s);
            let stats = ShardStats {
                shard,
                events: plan.shard_events(shard),
                checks: s.accesses as u64,
            };
            let tagged: Vec<(u64, RaceReport)> =
                s.tagged.into_iter().map(|(k, r)| (slice[k].0, r)).collect();
            (s.det, stats, tagged)
        });
        // The shard detectors come back and drop on this thread, after
        // the merge: dropping their shadow state inside the pool threads
        // instead slowed the large allocations of the next trace's
        // encode, decode and plan by 20–90% (glibc heap behaviour).
        let mut tagged = Vec::new();
        let (dets, shards): (Vec<FastTrack>, Vec<ShardStats>) = runs
            .into_iter()
            .map(|(det, stats, t)| {
                tagged.extend(t);
                (det, stats)
            })
            .unzip();
        // Stable sort: same-event reports all come from one shard (an
        // address has one owner), so their within-shard order survives.
        tagged.sort_by_key(|&(idx, _)| idx);
        ShardedFtOutcome {
            races: tagged.into_iter().map(|(_, r)| r).collect(),
            checks: shards.iter().map(|s| s.checks).sum(),
            sync_ops: dets.last().map_or(0, FastTrack::sync_ops),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::{record_run, FairSched, ProgramBuilder, StepLimit};

    /// A 4-thread program with races on several addresses so reports
    /// span shards, plus locks/barriers so sync broadcast matters.
    fn racy_log(seed: u64) -> (EventLog, usize) {
        let n = 4;
        let mut b = ProgramBuilder::new(n);
        let vars: Vec<_> = (0..8).map(|i| b.var(&format!("v{i}"))).collect();
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", n as u64);
        for t in 0..n {
            let mut tb = b.thread(t);
            for (i, &v) in vars.iter().enumerate() {
                if i % 2 == 0 {
                    tb.write(v, t as u64 + 1);
                } else {
                    tb.read(v);
                }
            }
            // Every thread deposits before the barrier and drains after it, so
            // the channel traffic is balanced and deadlock-free while still
            // exercising the chan_send/chan_recv broadcast path in the shards.
            tb.send(ch)
                .lock(l)
                .rmw(vars[0], 1)
                .unlock(l)
                .barrier(bar)
                .recv(ch);
            for &v in &vars {
                tb.read(v);
            }
        }
        let p = b.build();
        let mut sched = FairSched::new(seed, 0.1);
        (record_run(&p, &mut sched, StepLimit::default()), n)
    }

    #[test]
    fn sharded_fasttrack_matches_serial_for_every_worker_count() {
        for seed in [1, 9, 77] {
            let (log, n) = racy_log(seed);
            let mut serial = FastTrack::new(n, ShadowMode::Exact);
            log.replay(&mut serial);
            for workers in [1, 2, 3, 4, 8] {
                let plan = ShardPlan::build(&log, workers);
                let out = ShardedFastTrack::new(n, workers).run_with_plan(&plan);
                assert_eq!(
                    out.races.reports(),
                    serial.races().reports(),
                    "seed={seed} workers={workers}"
                );
                assert_eq!(out.checks, serial.checks(), "seed={seed} workers={workers}");
                assert_eq!(out.sync_ops, serial.sync_ops());
                assert_eq!(out.shards.len(), workers);
                let routed: u64 = out.shards.iter().map(|s| s.checks).sum();
                assert_eq!(routed, serial.checks(), "routing must partition accesses");
            }
        }
    }

    #[test]
    fn one_plan_serves_both_detectors_and_all_reps() {
        let (log, n) = racy_log(5);
        let plan = ShardPlan::build(&log, 4);
        assert_eq!(plan.shards(), 4);
        let ft_a = ShardedFastTrack::new(n, 4).run_with_plan(&plan);
        let ft_b = ShardedFastTrack::new(n, 4).run_with_plan(&plan);
        assert_eq!(ft_a.races.reports(), ft_b.races.reports());
        assert_eq!(ft_a.shards, ft_b.shards);
        for workers in [1usize, 2, 8] {
            let p = ShardPlan::build(&log, workers);
            let out = ShardedFastTrack::new(n, workers).run_with_plan(&p);
            assert_eq!(out.races.reports(), ft_a.races.reports());
        }
    }

    #[test]
    fn shard_stats_expose_sliced_event_counts() {
        let (log, n) = racy_log(5);
        let plan = ShardPlan::build(&log, 4);
        let out = ShardedFastTrack::new(n, 4).run_with_plan(&plan);
        let sync_len = plan.sync().len() as u64;
        let mut sliced_total = 0;
        for s in &out.shards {
            assert_eq!(
                s.events,
                plan.partition().slice(s.shard).len() as u64 + sync_len,
                "each shard dispatches its slice plus the sync stream"
            );
            assert_eq!(s.events, plan.shard_events(s.shard));
            assert!(
                s.events < log.len() as u64,
                "an indexed shard never walks the whole log"
            );
            sliced_total += s.events - sync_len;
        }
        assert_eq!(
            sliced_total,
            plan.partition().total_accesses(),
            "slices partition the accesses"
        );
        assert!(out.shards.iter().filter(|s| s.checks > 0).count() > 1);
    }

    #[test]
    fn shard_of_is_total_and_stable() {
        for shards in 1..=8 {
            for a in 0..64u64 {
                let s = shard_of(Addr(a * 8), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(Addr(a * 8), shards));
            }
        }
    }
}
