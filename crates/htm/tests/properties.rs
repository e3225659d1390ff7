//! Property-based tests of the HTM invariants from DESIGN.md §6:
//!
//! 1. Atomicity: a committed transaction's writes appear all at once; an
//!    aborted transaction's writes never appear.
//! 2. Isolation / strong isolation: no reader ever observes another
//!    in-flight transaction's uncommitted write; conflicting
//!    non-transactional accesses always doom the transaction (requester
//!    wins).
//! 3. Conflict soundness: overlapping conflicting accesses to one line
//!    always doom at least one party.
//!
//! The HTM versions speculative stores with an eager undo journal. The
//! reference model below is the other classic design, a lazy write
//! buffer; random scripts must not tell the two apart.

use std::collections::BTreeMap;

use proptest::prelude::*;
use txrace_htm::{AbortReason, AbortStatus, HtmConfig, HtmStats, HtmSystem};
use txrace_sim::{Addr, CacheLine, Memory, ThreadId};

/// The abstract script step applied to a random thread/address.
#[derive(Debug, Clone)]
enum Step {
    Begin(u32),
    Read(u32, u64),
    Write(u32, u64, u64),
    Rmw(u32, u64, u64),
    End(u32),
}

fn step_strategy(threads: u32, lines: u64) -> impl Strategy<Value = Step> {
    let t = 0..threads;
    let a = 0..lines * 2; // two 8-byte slots per line
    prop_oneof![
        t.clone().prop_map(Step::Begin),
        (t.clone(), a.clone()).prop_map(|(t, a)| Step::Read(t, a)),
        (t.clone(), a.clone(), 1u64..100).prop_map(|(t, a, v)| Step::Write(t, a, v)),
        (t.clone(), a, 1u64..5).prop_map(|(t, a, d)| Step::Rmw(t, a, d)),
        t.prop_map(Step::End),
    ]
}

fn addr_of(slot: u64) -> Addr {
    // Two 8-byte variables per line: slot 2k and 2k+1 share line k.
    CacheLine(slot / 2).base().offset(8 * (slot % 2))
}

/// The lazy write-buffer reference model of RTM versioning: committed
/// memory plus one store buffer per thread, applied to memory on a
/// successful `xend` and dropped on doom.
///
/// The model makes no conflict or capacity decisions of its own: after
/// every step, [`BufferModel::sync_dooms`] copies each newly doomed
/// transaction's status from the `HtmSystem` under test. Everything
/// else — the values accesses observe, commit/abort outcomes, abort
/// statistics and memory — the model derives independently.
struct BufferModel {
    mem: BTreeMap<Addr, u64>,
    txns: Vec<Option<ModelTxn>>,
    max_txns: usize,
    stats: HtmStats,
}

#[derive(Default)]
struct ModelTxn {
    buf: BTreeMap<Addr, u64>,
    doom: Option<AbortStatus>,
}

/// What one script step lets a program observe. Accesses inside a doomed
/// transaction (zombies) are excluded: the TxRace engine never lets one
/// execute (DESIGN.md §6, zombie freedom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obs {
    Nothing,
    Begun(bool),
    Value(u64),
    Ended(Result<(), AbortStatus>),
}

impl BufferModel {
    fn new(threads: usize, cfg: &HtmConfig) -> Self {
        BufferModel {
            mem: BTreeMap::new(),
            txns: (0..threads).map(|_| None).collect(),
            max_txns: cfg.max_concurrent_txns,
            stats: HtmStats::default(),
        }
    }

    /// `t`'s live (in-flight, not doomed) transaction, if any.
    fn live(&mut self, t: u32) -> Option<&mut ModelTxn> {
        self.txns[t as usize].as_mut().filter(|x| x.doom.is_none())
    }

    fn is_zombie(&self, t: u32) -> bool {
        self.txns[t as usize]
            .as_ref()
            .is_some_and(|x| x.doom.is_some())
    }

    /// The value `t` loads at `a`: its own buffered store, else memory.
    fn load(&self, t: u32, a: Addr) -> u64 {
        let own = self.txns[t as usize].as_ref().and_then(|x| x.buf.get(&a));
        own.or(self.mem.get(&a)).copied().unwrap_or(0)
    }

    /// The memory image an eager (in-place) implementation must hold:
    /// committed memory overlaid with every live transaction's buffer.
    fn in_place_image(&self) -> BTreeMap<Addr, u64> {
        let mut image = self.mem.clone();
        for x in self.txns.iter().flatten() {
            image.extend(x.buf.iter().map(|(&a, &v)| (a, v)));
        }
        image
    }

    fn store(&mut self, t: u32, a: Addr, v: u64) {
        match self.txns[t as usize].as_mut() {
            Some(x) => {
                x.buf.insert(a, v);
            }
            None => {
                self.mem.insert(a, v);
            }
        }
    }

    fn apply(&mut self, step: &Step) -> Obs {
        match *step {
            Step::Begin(t) => {
                let open = self.txns.iter().flatten().count();
                let ok = self.txns[t as usize].is_none() && open < self.max_txns;
                if ok {
                    self.txns[t as usize] = Some(ModelTxn::default());
                }
                Obs::Begun(ok)
            }
            Step::Read(t, slot) if !self.is_zombie(t) => Obs::Value(self.load(t, addr_of(slot))),
            Step::Write(t, slot, v) if !self.is_zombie(t) => {
                self.store(t, addr_of(slot), v);
                Obs::Nothing
            }
            Step::Rmw(t, slot, delta) if !self.is_zombie(t) => {
                let a = addr_of(slot);
                let old = self.load(t, a);
                self.store(t, a, old.wrapping_add(delta));
                Obs::Value(old)
            }
            Step::End(t) => match self.txns[t as usize].take() {
                None => Obs::Nothing,
                Some(ModelTxn { doom: Some(s), .. }) => Obs::Ended(Err(s)),
                Some(ModelTxn { buf, doom: None }) => {
                    self.mem.extend(buf);
                    self.stats.committed += 1;
                    Obs::Ended(Ok(()))
                }
            },
            Step::Read(..) | Step::Write(..) | Step::Rmw(..) => Obs::Nothing,
        }
    }

    /// Dooms every live model transaction the HTM has doomed: its
    /// buffer is dropped and the abort is counted once, by reason.
    fn sync_dooms(&mut self, htm: &HtmSystem) {
        for t in 0..self.txns.len() as u32 {
            let Some(status) = htm.is_doomed(ThreadId(t)) else {
                continue;
            };
            let Some(x) = self.live(t) else {
                continue;
            };
            x.doom = Some(status);
            x.buf.clear();
            let s = &mut self.stats;
            match status.reason() {
                AbortReason::Conflict => s.conflict_aborts += 1,
                AbortReason::Capacity => s.capacity_aborts += 1,
                AbortReason::Unknown => s.unknown_aborts += 1,
                AbortReason::Retry => s.retry_aborts += 1,
                AbortReason::Explicit => s.explicit_aborts += 1,
            }
        }
    }
}

/// Applies `step` to the system under test; observations mirror
/// [`BufferModel::apply`].
fn apply_htm(htm: &mut HtmSystem, mem: &mut Memory, step: &Step) -> Obs {
    let observe = |zombie: bool, v: u64| if zombie { Obs::Nothing } else { Obs::Value(v) };
    match *step {
        Step::Begin(t) => Obs::Begun(htm.xbegin(ThreadId(t)).is_ok()),
        Step::Read(t, slot) => {
            let zombie = htm.is_doomed(ThreadId(t)).is_some();
            observe(zombie, htm.read(ThreadId(t), mem, addr_of(slot)))
        }
        Step::Write(t, slot, v) => {
            htm.write(ThreadId(t), mem, addr_of(slot), v);
            Obs::Nothing
        }
        Step::Rmw(t, slot, delta) => {
            let zombie = htm.is_doomed(ThreadId(t)).is_some();
            observe(zombie, htm.rmw(ThreadId(t), mem, addr_of(slot), delta))
        }
        // `xend` without a transaction panics by contract.
        Step::End(t) if !htm.in_txn(ThreadId(t)) => Obs::Nothing,
        Step::End(t) => Obs::Ended(htm.xend(ThreadId(t))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lockstep against the write-buffer model: every step observes what
    /// the model predicts, and after every step memory holds exactly the
    /// committed state plus the live transactions' in-place stores — a
    /// doomed transaction's stores are gone before anyone can look.
    #[test]
    fn htm_matches_reference_model(script in proptest::collection::vec(step_strategy(3, 4), 1..120)) {
        let threads = 3usize;
        let cfg = HtmConfig::default();
        let mut htm = HtmSystem::new(cfg, threads);
        let mut mem = Memory::new();
        let mut model = BufferModel::new(threads, &cfg);
        for (i, step) in script.iter().enumerate() {
            let got = apply_htm(&mut htm, &mut mem, step);
            prop_assert_eq!(got, model.apply(step), "step {} {:?}", i, step);
            model.sync_dooms(&htm);
            let image: BTreeMap<Addr, u64> = mem.iter().collect();
            prop_assert_eq!(image, model.in_place_image(), "memory after step {} {:?}", i, step);
        }
    }

    /// Conflict soundness: two transactions that both touch the same line,
    /// at least one writing, while both are in flight — the earlier one is
    /// doomed with CONFLICT (requester wins).
    #[test]
    fn overlapping_conflicting_txns_always_abort_someone(
        off0 in 0u64..8,
        off1 in 0u64..8,
        first_writes in any::<bool>(),
        second_writes in any::<bool>(),
    ) {
        prop_assume!(first_writes || second_writes);
        let mut htm = HtmSystem::new(HtmConfig::default(), 2);
        let mut mem = Memory::new();
        let base = CacheLine(40).base();
        htm.xbegin(ThreadId(0)).unwrap();
        htm.xbegin(ThreadId(1)).unwrap();
        if first_writes {
            htm.write(ThreadId(0), &mut mem, base.offset(off0 * 8), 1);
        } else {
            let _ = htm.read(ThreadId(0), &mut mem, base.offset(off0 * 8));
        }
        if second_writes {
            htm.write(ThreadId(1), &mut mem, base.offset(off1 * 8), 2);
        } else {
            let _ = htm.read(ThreadId(1), &mut mem, base.offset(off1 * 8));
        }
        let d0 = htm.is_doomed(ThreadId(0));
        let d1 = htm.is_doomed(ThreadId(1));
        prop_assert!(d0.is_some() || d1.is_some(), "conflict missed");
        // Requester-wins: the second accessor (thread 1) must survive.
        prop_assert!(d1.is_none(), "requester was doomed");
        prop_assert_eq!(d0.expect("doomed").reason(), AbortReason::Conflict);
    }

    /// Observational equivalence of undo-journal versioning and the lazy
    /// write-buffer model: the same script yields identical values at
    /// every non-doomed access, identical begin and commit/abort
    /// outcomes, identical abort statistics, and an identical final
    /// memory (written cells included, so a rollback that leaves a ghost
    /// cell behind fails).
    #[test]
    fn undo_and_buffer_policies_are_observationally_equivalent(
        script in proptest::collection::vec(step_strategy(3, 4), 1..120)
    ) {
        let threads = 3usize;
        let cfg = HtmConfig::default();
        let mut htm = HtmSystem::new(cfg, threads);
        let mut mem = Memory::new();
        let mut model = BufferModel::new(threads, &cfg);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        // Close every still-open transaction at the end.
        let close = (0..threads as u32).map(Step::End);
        for step in script.iter().cloned().chain(close) {
            got.push(apply_htm(&mut htm, &mut mem, &step));
            want.push(model.apply(&step));
            model.sync_dooms(&htm);
        }
        prop_assert_eq!(got, want, "observations diverged");
        prop_assert_eq!(*htm.stats(), model.stats, "abort statistics diverged");
        let image: BTreeMap<Addr, u64> = mem.iter().collect();
        prop_assert_eq!(image, model.mem, "final memory diverged");
    }

    /// Capacity: a transaction writing more distinct lines than the write
    /// structure holds is always doomed with CAPACITY, never silently
    /// truncated.
    #[test]
    fn write_footprint_beyond_capacity_always_aborts(extra in 1u64..64) {
        let cfg = HtmConfig { write_sets: 8, write_ways: 4, ..HtmConfig::default() };
        let mut htm = HtmSystem::new(cfg, 1);
        let mut mem = Memory::new();
        htm.xbegin(ThreadId(0)).unwrap();
        let total_lines = (cfg.write_sets * cfg.write_ways) as u64 + extra;
        for l in 0..total_lines {
            htm.write(ThreadId(0), &mut mem, CacheLine(100 + l).base(), l);
        }
        prop_assert_eq!(
            htm.is_doomed(ThreadId(0)).expect("must overflow").reason(),
            AbortReason::Capacity
        );
        prop_assert!(htm.xend(ThreadId(0)).is_err());
        for l in 0..total_lines {
            prop_assert_eq!(mem.load(CacheLine(100 + l).base()), 0);
        }
    }
}
