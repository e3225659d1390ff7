//! Property tests relating the two detector families.
//!
//! Eraser's exclusive-phase blessing makes most cross-detector claims
//! false in general (a thread that took a lock during its *first* access
//! keeps that lock as a candidate through later unlocked writes, hiding
//! them). Two relationships do hold and are pinned here:
//!
//! 1. On **lock-free** traces, every FastTrack race whose later access is
//!    a write (the variable was demonstrably written while shared) is
//!    also a lockset violation — candidates are always empty, so
//!    Shared-Modified reports unconditionally.
//! 2. Fully lock-disciplined traces are never reported by either
//!    detector.

use std::collections::BTreeSet;

use proptest::prelude::*;
use txrace_hb::{FastTrack, Lockset, ShadowMode};
use txrace_sim::{Addr, LockId, SiteId, ThreadId, TraceConsumer};

#[derive(Debug, Clone)]
enum Ev {
    Read(u32, u64),
    Write(u32, u64),
    Locked(u32, u32, u64, bool),
}

fn ev_strategy(threads: u32, addrs: u64, locks: u32) -> impl Strategy<Value = Ev> {
    let t = 0..threads;
    if locks == 0 {
        prop_oneof![
            (t.clone(), 0..addrs).prop_map(|(t, a)| Ev::Read(t, a)),
            (t, 0..addrs).prop_map(|(t, a)| Ev::Write(t, a)),
        ]
        .boxed()
    } else {
        prop_oneof![
            (t.clone(), 0..addrs).prop_map(|(t, a)| Ev::Read(t, a)),
            (t.clone(), 0..addrs).prop_map(|(t, a)| Ev::Write(t, a)),
            (t, 0..locks, 0..addrs, any::<bool>()).prop_map(|(t, l, a, w)| Ev::Locked(t, l, a, w)),
        ]
        .boxed()
    }
}

fn addr_of(a: u64) -> Addr {
    Addr(0x4000 + a * 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn fasttrack_racy_vars_violate_lockset_discipline_lockfree(
        evs in proptest::collection::vec(ev_strategy(4, 5, 0), 1..150)
    ) {
        let mut ft = FastTrack::new(4, ShadowMode::Exact);
        let mut ls = Lockset::new(4);
        for (i, e) in evs.iter().enumerate() {
            let s = SiteId(i as u32 + 1);
            match *e {
                Ev::Read(t, a) => {
                    ft.read(ThreadId(t), s, addr_of(a));
                    ls.read(ThreadId(t), s, addr_of(a));
                }
                Ev::Write(t, a) => {
                    ft.write(ThreadId(t), s, addr_of(a));
                    ls.write(ThreadId(t), s, addr_of(a));
                }
                Ev::Locked(t, l, a, w) => {
                    ft.acquire(ThreadId(t), s, LockId(l));
                    ls.acquire(ThreadId(t), s, LockId(l));
                    if w {
                        ft.write(ThreadId(t), s, addr_of(a));
                        ls.write(ThreadId(t), s, addr_of(a));
                    } else {
                        ft.read(ThreadId(t), s, addr_of(a));
                        ls.read(ThreadId(t), s, addr_of(a));
                    }
                    ft.release(ThreadId(t), s, LockId(l));
                    ls.release(ThreadId(t), s, LockId(l));
                }
            }
        }
        // Only races whose current (later) access is a write: the write
        // happened while the variable was demonstrably shared, so Eraser's
        // state machine is in Shared-Modified with an empty candidate set
        // (a common lock would have ordered the pair and prevented the HB
        // race in the first place).
        let hb_write_addrs: BTreeSet<Addr> = ft
            .races()
            .reports()
            .iter()
            .filter(|r| r.current.kind == txrace_hb::AccessKind::Write)
            .map(|r| r.addr)
            .collect();
        let ls_addrs: BTreeSet<Addr> = ls.reports().iter().map(|r| r.addr).collect();
        prop_assert!(
            hb_write_addrs.is_subset(&ls_addrs),
            "write-while-shared HB races not flagged by lockset: {:?} vs {:?}",
            hb_write_addrs,
            ls_addrs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Fully lock-disciplined accesses: neither detector reports.
    #[test]
    fn disciplined_traces_are_clean_for_both(
        evs in proptest::collection::vec(
            (0u32..4, 0u32..2, 0u64..5, proptest::bool::ANY), 1..100)
    ) {
        let mut ft = FastTrack::new(4, ShadowMode::Exact);
        let mut ls = Lockset::new(4);
        for (i, &(t, l, a, w)) in evs.iter().enumerate() {
            // Every access to addr `a` goes under lock `a % 2` — a
            // consistent per-variable discipline.
            let lock = LockId(a as u32 % 2);
            let _ = l;
            let s = SiteId(i as u32 + 1);
            ft.acquire(ThreadId(t), s, lock);
            ls.acquire(ThreadId(t), s, lock);
            if w {
                ft.write(ThreadId(t), s, addr_of(a));
                ls.write(ThreadId(t), s, addr_of(a));
            } else {
                ft.read(ThreadId(t), s, addr_of(a));
                ls.read(ThreadId(t), s, addr_of(a));
            }
            ft.release(ThreadId(t), s, lock);
            ls.release(ThreadId(t), s, lock);
        }
        prop_assert!(ft.races().is_empty(), "HB: {:?}", ft.races().reports());
        prop_assert!(ls.reports().is_empty(), "lockset: {:?}", ls.reports());
    }
}
