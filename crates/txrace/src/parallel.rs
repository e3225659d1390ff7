//! Heterogeneous detector panels for parallel replay: one enum wrapping
//! every pure-observer detector in the workspace, so a mixed set
//! (FastTrack + vcref + lockset + the TSan/lockset baselines) can ride a
//! single [`txrace_sim::fan_out`] pass over one [`txrace_sim::EventLog`]
//! and still be recovered as concrete detectors afterwards.
//!
//! `Vec<Box<dyn TraceConsumer + Send>>` also works with `fan_out`, but
//! type erasure loses the results; [`PanelConsumer`] keeps them.
//!
//! [`ShardedPanel`] is the address-sharded counterpart: the detectors
//! that shard by address (FastTrack and lockset) run over **one shared
//! [`ShardPlan`]** — the log is decoded and partitioned once, and every
//! panel member consumes the same per-shard access slices and sync
//! stream. The stream-order detectors (TSan with cycle accounting,
//! vcref) stay on the fan-out path: they are not address-decomposable,
//! so a reduced per-shard stream would change what they measure.

use txrace_hb::{
    FastTrack, ShardPlan, ShardedFastTrack, ShardedFtOutcome, ShardedLockset, ShardedLsOutcome,
    VectorClockDetector,
};
use txrace_sim::{
    Addr, BarrierId, ChanId, CondId, LockId, SiteId, SyscallKind, ThreadId, TraceConsumer,
};

use crate::baselines::{LocksetConsumer, TsanConsumer};

/// One member of a heterogeneous detector panel.
///
/// Every variant is a pure observer, so replaying a panel over a log
/// produces exactly what each detector would have produced serially.
///
/// Variant sizes differ (the cost-accounting baselines carry more state
/// than raw FastTrack), but a panel holds a handful of members while
/// every event dispatches through the enum — boxing the large variants
/// would trade a few hundred stack bytes for a pointer chase on the
/// per-event hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PanelConsumer {
    /// The TSan baseline (full or sampling), with cycle accounting.
    Tsan(TsanConsumer),
    /// The Eraser lockset baseline, with cycle accounting.
    Lockset(LocksetConsumer),
    /// Raw FastTrack (no cost model).
    FastTrack(FastTrack),
    /// The vector-clock reference detector.
    VcRef(VectorClockDetector),
}

impl PanelConsumer {
    /// A TSan panel member configured from the unified knob surface:
    /// `knobs.sampling` selects between the full and sampling baselines
    /// exactly as it does for [`crate::Detector`] runs, so a panel
    /// sweep and a detector sweep driven by the same [`crate::Knobs`] measure
    /// the same configuration.
    pub fn tsan_from_knobs(
        threads: usize,
        cost: crate::cost::CostModel,
        shadow_factor: f64,
        shadow: txrace_hb::ShadowMode,
        knobs: &crate::control::Knobs,
        seed: u64,
    ) -> Self {
        PanelConsumer::Tsan(TsanConsumer::from_knobs(
            threads,
            cost,
            shadow_factor,
            shadow,
            knobs,
            seed,
        ))
    }

    /// Short stable name for JSON/report rows.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PanelConsumer::Tsan(_) => "tsan",
            PanelConsumer::Lockset(_) => "lockset",
            PanelConsumer::FastTrack(_) => "fasttrack",
            PanelConsumer::VcRef(_) => "vcref",
        }
    }

    /// Number of distinct findings (static race pairs, or lockset
    /// violations for the lockset variants).
    pub fn finding_count(&self) -> usize {
        match self {
            PanelConsumer::Tsan(c) => c.races().distinct_count(),
            PanelConsumer::Lockset(c) => c.reports().len(),
            PanelConsumer::FastTrack(c) => c.races().distinct_count(),
            PanelConsumer::VcRef(c) => c.races().distinct_count(),
        }
    }

    /// FNV-1a fingerprint of the full ordered report list — byte-level
    /// identity check between serial and parallel passes (two report
    /// lists fingerprint equal iff their debug serializations match,
    /// order included).
    pub fn fingerprint(&self) -> u64 {
        let dump = match self {
            PanelConsumer::Tsan(c) => format!("{:?}", c.races().reports()),
            PanelConsumer::Lockset(c) => format!("{:?}", c.reports()),
            PanelConsumer::FastTrack(c) => format!("{:?}", c.races().reports()),
            PanelConsumer::VcRef(c) => format!("{:?}", c.races().reports()),
        };
        fnv1a(dump.as_bytes())
    }

    /// The inner [`TsanConsumer`], if this is the TSan variant.
    pub fn into_tsan(self) -> Option<TsanConsumer> {
        match self {
            PanelConsumer::Tsan(c) => Some(c),
            _ => None,
        }
    }

    /// The inner [`LocksetConsumer`], if this is the lockset variant.
    pub fn into_lockset(self) -> Option<LocksetConsumer> {
        match self {
            PanelConsumer::Lockset(c) => Some(c),
            _ => None,
        }
    }

    /// The inner [`FastTrack`], if this is the raw FastTrack variant.
    pub fn into_fasttrack(self) -> Option<FastTrack> {
        match self {
            PanelConsumer::FastTrack(c) => Some(c),
            _ => None,
        }
    }

    /// The inner [`VectorClockDetector`], if this is the vcref variant.
    pub fn into_vcref(self) -> Option<VectorClockDetector> {
        match self {
            PanelConsumer::VcRef(c) => Some(c),
            _ => None,
        }
    }
}

/// The address-sharded detector panel: FastTrack and lockset over one
/// shared [`ShardPlan`].
///
/// This is the panel counterpart of the one-decode contract in
/// `txrace_hb::sharded` — a heterogeneous sweep pays for trace decode
/// and access partitioning **once**, then every sharded detector reuses
/// the same per-shard slices and broadcast sync stream.
#[derive(Debug, Clone, Copy)]
pub struct ShardedPanel {
    threads: usize,
    workers: usize,
}

/// What a [`ShardedPanel`] run produces: both sharded outcomes, plus
/// the shard count they shared.
#[derive(Debug)]
pub struct ShardedPanelOutcome {
    /// Sharded FastTrack verdict (byte-identical to serial Exact mode).
    pub fasttrack: ShardedFtOutcome,
    /// Sharded lockset verdict (byte-identical to the serial baseline).
    pub lockset: ShardedLsOutcome,
    /// Shard count of the plan both detectors consumed.
    pub workers: usize,
}

impl ShardedPanelOutcome {
    /// FNV-1a fingerprint of the FastTrack report list (comparable to
    /// [`PanelConsumer::fingerprint`] of a serial FastTrack member).
    pub fn fasttrack_fingerprint(&self) -> u64 {
        fnv1a(format!("{:?}", self.fasttrack.races.reports()).as_bytes())
    }

    /// FNV-1a fingerprint of the lockset report list.
    pub fn lockset_fingerprint(&self) -> u64 {
        fnv1a(format!("{:?}", self.lockset.reports).as_bytes())
    }
}

impl ShardedPanel {
    /// A panel for `threads`-thread logs, sharded `workers` ways.
    pub fn new(threads: usize, workers: usize) -> Self {
        ShardedPanel { threads, workers }
    }

    /// Runs both sharded detectors over a caller-built plan (which may
    /// itself share a [`txrace_sim::SyncIndex`] across shard counts).
    ///
    /// # Panics
    ///
    /// If `plan` was built for a different shard count.
    pub fn run_with_plan(&self, plan: &ShardPlan) -> ShardedPanelOutcome {
        let fasttrack = ShardedFastTrack::new(self.threads, self.workers).run_with_plan(plan);
        let lockset = ShardedLockset::new(self.threads, self.workers).run_with_plan(plan);
        ShardedPanelOutcome {
            fasttrack,
            lockset,
            workers: self.workers,
        }
    }
}

/// FNV-1a over `bytes` (matches the trace-cache key hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Explicit trait-path delegation: `FastTrack` has inherent methods
/// whose names shadow the trait's but take different arguments
/// (`signal(t, c)` vs `signal(t, site, c)`), so `c.method(...)` would
/// not resolve; `TraceConsumer::method(c, ...)` always does.
macro_rules! delegate_consumer {
    ($($method:ident ( $($arg:ident : $ty:ty),* )),* $(,)?) => {
        $(
            fn $method(&mut self, $($arg: $ty),*) {
                match self {
                    PanelConsumer::Tsan(c) => TraceConsumer::$method(c, $($arg),*),
                    PanelConsumer::Lockset(c) => TraceConsumer::$method(c, $($arg),*),
                    PanelConsumer::FastTrack(c) => TraceConsumer::$method(c, $($arg),*),
                    PanelConsumer::VcRef(c) => TraceConsumer::$method(c, $($arg),*),
                }
            }
        )*
    };
}

impl TraceConsumer for PanelConsumer {
    delegate_consumer! {
        read(t: ThreadId, site: SiteId, addr: Addr),
        write(t: ThreadId, site: SiteId, addr: Addr),
        rmw(t: ThreadId, site: SiteId, addr: Addr),
        acquire(t: ThreadId, site: SiteId, l: LockId),
        release(t: ThreadId, site: SiteId, l: LockId),
        signal(t: ThreadId, site: SiteId, c: CondId),
        wait(t: ThreadId, site: SiteId, c: CondId),
        spawn(t: ThreadId, site: SiteId, child: ThreadId),
        join(t: ThreadId, site: SiteId, child: ThreadId),
        barrier_arrive(t: ThreadId, site: SiteId, b: BarrierId),
        barrier_release(b: BarrierId, arrivals: &[(ThreadId, SiteId)]),
        compute(t: ThreadId, site: SiteId, units: u32),
        syscall(t: ThreadId, site: SiteId, kind: SyscallKind),
        chan_send(t: ThreadId, site: SiteId, ch: ChanId),
        chan_recv(t: ThreadId, site: SiteId, ch: ChanId),
        thread_done(t: ThreadId),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_hb::{Lockset, ShadowMode};
    use txrace_sim::{fan_out, record_run, FairSched, ProgramBuilder, StepLimit};

    fn racy_log() -> (txrace_sim::EventLog, usize) {
        let n = 3;
        let mut b = ProgramBuilder::new(n);
        let x = b.var("x");
        let y = b.var("y");
        let l = b.lock_id("l");
        for t in 0..n {
            b.thread(t)
                .write(x, t as u64 + 1)
                .lock(l)
                .rmw(y, 1)
                .unlock(l)
                .read(x);
        }
        let p = b.build();
        let mut sched = FairSched::new(3, 0.1);
        (record_run(&p, &mut sched, StepLimit::default()), n)
    }

    #[test]
    fn panel_fan_out_matches_serial_per_detector() {
        let (log, n) = racy_log();

        let mut serial_ft = FastTrack::new(n, ShadowMode::Exact);
        log.replay(&mut serial_ft);
        let mut serial_vc = VectorClockDetector::new(n);
        log.replay(&mut serial_vc);
        let mut serial_ls = Lockset::new(n);
        log.replay(&mut serial_ls);

        let panel = vec![
            PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact)),
            PanelConsumer::VcRef(VectorClockDetector::new(n)),
            PanelConsumer::Lockset(LocksetConsumer::new(n, crate::cost::CostModel::default())),
        ];
        let reports = fan_out(&log, panel, 3);
        let ft = match &reports[0].consumer {
            PanelConsumer::FastTrack(c) => c,
            other => panic!("order must be preserved, got {}", other.kind_name()),
        };
        assert_eq!(ft.races().reports(), serial_ft.races().reports());
        let vc = match &reports[1].consumer {
            PanelConsumer::VcRef(c) => c,
            other => panic!("order must be preserved, got {}", other.kind_name()),
        };
        assert_eq!(vc.races().reports(), serial_vc.races().reports());
        let ls = match &reports[2].consumer {
            PanelConsumer::Lockset(c) => c.reports(),
            other => panic!("order must be preserved, got {}", other.kind_name()),
        };
        assert_eq!(ls, serial_ls.reports());
    }

    #[test]
    fn sharded_panel_shares_one_plan_and_matches_serial() {
        let (log, n) = racy_log();

        let mut serial_ft = FastTrack::new(n, ShadowMode::Exact);
        log.replay(&mut serial_ft);
        let mut serial_ls = Lockset::new(n);
        log.replay(&mut serial_ls);
        let mut serial_panel = PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact));
        log.replay(&mut serial_panel);

        for workers in [1, 2, 3, 4, 8] {
            let plan = ShardPlan::build(&log, workers);
            let out = ShardedPanel::new(n, workers).run_with_plan(&plan);
            // Both detectors consumed the same partition and reproduce
            // their serial verdicts byte for byte.
            assert_eq!(out.fasttrack.races.reports(), serial_ft.races().reports());
            assert_eq!(out.lockset.reports, serial_ls.reports());
            assert_eq!(out.fasttrack.shards.len(), workers);
            assert_eq!(out.lockset.shards.len(), workers);
            // Shared-plan invariant: both detectors report identical
            // per-shard dispatched-event counts (slice + sync stream).
            for (f, l) in out.fasttrack.shards.iter().zip(&out.lockset.shards) {
                assert_eq!(f.events, l.events);
            }
            // Sharded fingerprints line up with the serial panel member.
            assert_eq!(out.fasttrack_fingerprint(), serial_panel.fingerprint());
            assert_eq!(out.workers, workers);
            assert_eq!(
                out.lockset_fingerprint(),
                fnv1a(format!("{:?}", serial_ls.reports()).as_bytes())
            );
        }
    }

    #[test]
    fn tsan_from_knobs_matches_direct_construction() {
        use crate::control::Knobs;
        use crate::cost::CostModel;

        let (log, n) = racy_log();
        // Full (sampling: None) and sampling (Some(rate)) knob configs
        // must reproduce the directly-constructed baselines replay for
        // replay.
        for knobs in [Knobs::default(), Knobs::default().with_sampling(0.5)] {
            let mut via_knobs = PanelConsumer::tsan_from_knobs(
                n,
                CostModel::default(),
                1.0,
                ShadowMode::Exact,
                &knobs,
                7,
            );
            let mut direct = PanelConsumer::Tsan(TsanConsumer::from_knobs(
                n,
                CostModel::default(),
                1.0,
                ShadowMode::Exact,
                &knobs,
                7,
            ));
            log.replay(&mut via_knobs);
            log.replay(&mut direct);
            assert_eq!(via_knobs.fingerprint(), direct.fingerprint());
        }
    }

    #[test]
    fn fingerprints_detect_report_differences() {
        let (log, n) = racy_log();
        let mut a = PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact));
        log.replay(&mut a);
        let mut b = PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact));
        log.replay(&mut b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.finding_count() > 0);
        let empty = PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact));
        assert_ne!(a.fingerprint(), empty.fingerprint());
        assert!(a.into_fasttrack().is_some());
    }
}
