//! Property test: FastTrack (epoch-optimized) and the full-vector-clock
//! reference detector flag exactly the same set of *racy variables* on any
//! trace (DESIGN.md invariant 6), and FastTrack never reports a race the
//! reference considers ordered (completeness of the epoch optimization).

use std::collections::BTreeSet;

use proptest::prelude::*;
use txrace_hb::{FastTrack, ShadowMode, VectorClockDetector};
use txrace_sim::{Addr, CondId, LockId, SiteId, ThreadId, TraceConsumer};

#[derive(Debug, Clone)]
enum Ev {
    Read(u32, u64),
    Write(u32, u64),
    Acq(u32, u32),
    Rel(u32, u32),
    Signal(u32, u32),
    Wait(u32, u32),
}

fn ev_strategy(threads: u32, addrs: u64, locks: u32, conds: u32) -> impl Strategy<Value = Ev> {
    let t = 0..threads;
    prop_oneof![
        4 => (t.clone(), 0..addrs).prop_map(|(t, a)| Ev::Read(t, a)),
        4 => (t.clone(), 0..addrs).prop_map(|(t, a)| Ev::Write(t, a)),
        2 => (t.clone(), 0..locks).prop_map(|(t, l)| Ev::Acq(t, l)),
        2 => (t.clone(), 0..locks).prop_map(|(t, l)| Ev::Rel(t, l)),
        1 => (t.clone(), 0..conds).prop_map(|(t, c)| Ev::Signal(t, c)),
        1 => (t, 0..conds).prop_map(|(t, c)| Ev::Wait(t, c)),
    ]
}

/// Keeps lock usage well-formed: acquire only free locks, release only held
/// ones, and allow a `Wait` only after a pending `Signal` (like the real
/// interpreter would).
fn sanitize(events: Vec<Ev>, threads: usize, locks: usize, conds: usize) -> Vec<Ev> {
    let mut holder = vec![None::<u32>; locks];
    let mut sem = vec![0u32; conds];
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        match e {
            Ev::Acq(t, l) => {
                if holder[l as usize].is_none() {
                    holder[l as usize] = Some(t);
                    out.push(Ev::Acq(t, l));
                }
            }
            Ev::Rel(t, l) => {
                if holder[l as usize] == Some(t) {
                    holder[l as usize] = None;
                    out.push(Ev::Rel(t, l));
                }
            }
            Ev::Signal(t, c) => {
                sem[c as usize] += 1;
                out.push(Ev::Signal(t, c));
            }
            Ev::Wait(t, c) => {
                if sem[c as usize] > 0 {
                    sem[c as usize] -= 1;
                    out.push(Ev::Wait(t, c));
                }
            }
            other => out.push(other),
        }
    }
    let _ = threads;
    out
}

fn site_of(i: usize) -> SiteId {
    SiteId(i as u32 + 1)
}

fn addr_of(a: u64) -> Addr {
    Addr(0x1000 + a * 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn fasttrack_and_reference_agree_on_racy_variables(
        raw in proptest::collection::vec(ev_strategy(4, 6, 3, 2), 1..200)
    ) {
        let threads = 4;
        let events = sanitize(raw, threads, 3, 2);
        let mut ft = FastTrack::new(threads, ShadowMode::Exact);
        let mut vc = VectorClockDetector::new(threads);
        for (i, e) in events.iter().enumerate() {
            let s = site_of(i);
            match *e {
                Ev::Read(t, a) => {
                    ft.read(ThreadId(t), s, addr_of(a));
                    vc.read(ThreadId(t), s, addr_of(a));
                }
                Ev::Write(t, a) => {
                    ft.write(ThreadId(t), s, addr_of(a));
                    vc.write(ThreadId(t), s, addr_of(a));
                }
                Ev::Acq(t, l) => {
                    ft.acquire(ThreadId(t), s, LockId(l));
                    vc.acquire(ThreadId(t), s, LockId(l));
                }
                Ev::Rel(t, l) => {
                    ft.release(ThreadId(t), s, LockId(l));
                    vc.release(ThreadId(t), s, LockId(l));
                }
                Ev::Signal(t, c) => {
                    ft.signal(ThreadId(t), s, CondId(c));
                    vc.signal(ThreadId(t), s, CondId(c));
                }
                Ev::Wait(t, c) => {
                    ft.wait(ThreadId(t), s, CondId(c));
                    vc.wait(ThreadId(t), s, CondId(c));
                }
            }
        }
        let ft_addrs: BTreeSet<Addr> = ft.races().reports().iter().map(|r| r.addr).collect();
        let vc_addrs: BTreeSet<Addr> = vc.races().reports().iter().map(|r| r.addr).collect();
        // The FastTrack paper's equivalence theorem is at the granularity
        // of racy *variables*: both algorithms must flag exactly the same
        // set. (Which static pair gets blamed first can differ when
        // same-epoch writers alternate, so pair sets are not compared.)
        prop_assert_eq!(&ft_addrs, &vc_addrs,
            "FastTrack racy vars {:?} != reference {:?}", ft_addrs, vc_addrs);
    }
}
