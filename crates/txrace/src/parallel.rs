//! Heterogeneous detector panels for parallel replay: one enum wrapping
//! every pure-observer detector in the workspace, so a mixed set
//! (FastTrack + vcref + lockset + the TSan/lockset baselines) can ride a
//! single [`txrace_sim::fan_out`] pass over one [`txrace_sim::EventLog`]
//! and still be recovered as concrete detectors afterwards.
//!
//! `Vec<Box<dyn TraceConsumer + Send>>` also works with `fan_out`, but
//! type erasure loses the results; [`PanelConsumer`] keeps them.
//!
//! A panel also fuses: [`PanelConsumer`]'s [`TraceConsumer::fuse`] runs
//! the TSan sampling sweep and raw FastTrack members that can share a
//! sync pass as one [`TsanConsumer`]; `fan_out` alone decides where each
//! fused entry runs.

use txrace_hb::{FastTrack, VectorClockDetector};
use txrace_sim::{
    Addr, BarrierId, ChanId, CondId, Fused, LockId, SiteId, SyscallKind, ThreadId, TraceConsumer,
};

use crate::baselines::{sweep_slot, LocksetConsumer, SweepSlot, TsanConsumer};

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

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

macro_rules! delegate_consumer {
    ($($method:ident ( $($arg:ident : $ty:ty),* )),* $(,)?) => {
        $(
            fn $method(&mut self, $($arg: $ty),*) {
                match self {
                    PanelConsumer::Tsan(c) => c.$method($($arg),*),
                    PanelConsumer::Lockset(c) => c.$method($($arg),*),
                    PanelConsumer::FastTrack(c) => c.$method($($arg),*),
                    PanelConsumer::VcRef(c) => c.$method($($arg),*),
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

    /// Fuses the panel's fresh, unpruned TSan and raw FastTrack members
    /// into one [`TsanConsumer`] per sync pass they can share:
    ///
    /// - Members that provably see identical inputs share one shadow:
    ///   equal slots (thread count, rate, sampling seed and shadow mode;
    ///   full TSan, rate 1.0 and raw FastTrack, all exact, have one). A
    ///   shadow depends only on its slot and the event stream, so equal
    ///   slots evolve identically.
    /// - A shadow joins the first sweep, in input order, with its thread
    ///   count and, if it draws, its sampling seed.
    /// - Every other member rides alone.
    ///
    /// Lone members come first, so at width 2 the calling thread, which
    /// claims its job just after spawning the worker, usually takes them
    /// and the worker takes the sweep. The order matters only for memory:
    /// unsweeping clones one address map per member, and on the calling
    /// thread those clones land in the main allocator arena, where they
    /// raise the peak footprint.
    fn fuse(panel: Vec<Self>) -> Vec<Fused<Self>> {
        let mut out = Vec::new();
        let mut sweeps: Vec<Sweep> = Vec::new();
        for (i, member) in panel.into_iter().enumerate() {
            let Some(slot) = sweep_slot(&member) else {
                out.push(Fused {
                    consumer: member,
                    members: vec![i],
                });
                continue;
            };
            match sweeps.iter_mut().find(|s| s.accepts(&slot)) {
                Some(s) => s.push(slot, i, member),
                None => sweeps.push(Sweep {
                    threads: slot.threads,
                    seed: slot.seed,
                    shadows: vec![(slot, vec![(i, member)])],
                }),
            }
        }
        out.extend(sweeps.into_iter().map(Sweep::into_fused));
        out
    }

    fn unfuse(self) -> Vec<Self> {
        match self {
            PanelConsumer::Tsan(c) if c.is_sweep() => c.unsweep(),
            other => vec![other],
        }
    }
}

/// The members one fused [`TsanConsumer`] runs over one sync pass, one
/// list per shadow.
struct Sweep {
    threads: usize,
    seed: Option<u64>,
    shadows: Vec<(SweepSlot, Vec<(usize, PanelConsumer)>)>,
}

impl Sweep {
    /// True when `slot` can join this sweep's sync pass.
    fn accepts(&self, slot: &SweepSlot) -> bool {
        self.threads == slot.threads
            && (slot.seed.is_none() || self.seed.is_none() || self.seed == slot.seed)
    }

    /// Adds member `i`, to the shadow of an equal slot if there is one.
    fn push(&mut self, slot: SweepSlot, i: usize, member: PanelConsumer) {
        self.seed = self.seed.or(slot.seed);
        match self.shadows.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, members)) => members.push((i, member)),
            None => self.shadows.push((slot, vec![(i, member)])),
        }
    }

    /// The entry: the lone member as it was, or the fused sweep.
    fn into_fused(self) -> Fused<PanelConsumer> {
        let (members, mut shadows): (Vec<Vec<usize>>, Vec<Vec<PanelConsumer>>) = self
            .shadows
            .into_iter()
            .map(|(_, ms)| ms.into_iter().unzip())
            .unzip();
        let members = members.concat();
        let consumer = if members.len() == 1 {
            shadows.remove(0).remove(0)
        } else {
            PanelConsumer::Tsan(TsanConsumer::sweep(shadows))
        };
        Fused { consumer, members }
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
