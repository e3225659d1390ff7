//! The interpreter: executes a [`Program`] under a [`Scheduler`], driving a
//! pluggable [`Runtime`] that observes every operation and owns all shared
//! memory accesses.
//!
//! A [`Runtime`] is a [`TraceConsumer`] plus the hooks that let it steer
//! execution, mirroring how TxRace interposes on a real program:
//!
//! * [`Runtime::before_op`] fires before each operation and may *roll the
//!   thread back* to an earlier [`Snapshot`] — that is a transactional
//!   abort: the program counter and loop state rewind, and whatever the
//!   runtime buffered is discarded by the runtime itself.
//! * The instrumentation markers then fire their own typed hook —
//!   [`Runtime::tx_begin`], [`Runtime::tx_end`] or
//!   [`Runtime::loop_cut_probe`] — which may roll the thread back the
//!   same way. These are the only points where a runtime steers control.
//! * [`Runtime::load`]/[`store`](Runtime::store)/[`fetch_add`](Runtime::fetch_add)
//!   delegate the architectural memory effect to the runtime, which can
//!   buffer it (transactional fast path), check it (software slow path), or
//!   apply it directly.
//! * Every executed operation is also delivered as its typed
//!   [`TraceConsumer`] event, straight from the interpreter's `match` arm:
//!   an access event just before its memory hook, a sync event once the
//!   operation has architecturally completed (the lock is held, the wait
//!   is satisfied), a barrier release after the arrivals that triggered
//!   it, and a thread's termination. Instrumentation markers deliver no
//!   event. A live run and a replayed log therefore feed a consumer one
//!   identical stream.
//!
//! Blocking is handled by the interpreter: a thread that cannot acquire a
//! lock (or whose `Wait`/`Join`/`Barrier` is not satisfied) blocks *without*
//! any runtime hook firing, and re-attempts when woken.

use crate::addr::Addr;
use crate::flat::{FlatProgram, InstrKind, SYSCALL_CODES};
use crate::ids::{BarrierId, ChanId, CondId, LockId, LoopId, RegionId, SiteId, ThreadId};
use crate::ir::Program;
use crate::mem::Memory;
use crate::replay::TraceConsumer;
use crate::sched::{InterruptKind, Scheduler};

/// One entry of a thread's loop stack: which loop, and how many iterations
/// remain (including the current one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopFrame {
    /// The loop.
    pub id: LoopId,
    /// Total trip count of this loop instance.
    pub trips: u32,
    /// Iterations left, counting the one in progress.
    pub remaining: u32,
}

/// The zero-based iteration index of the *innermost* enclosing loop (0
/// outside any loop). Indexed accesses (`ReadArr`, `WriteArr`) use this, so a
/// buffer walk re-walks the same addresses on every execution of its loop
/// — re-wrapping a walk in an outer loop never escapes the array.
pub fn innermost_iteration_index(stack: &[LoopFrame]) -> u64 {
    stack.last().map_or(0, |f| u64::from(f.trips - f.remaining))
}

/// A restorable point in one thread's control flow: program counter plus
/// loop stack. This is what a transactional abort rolls back to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Program counter (index into the thread's flattened code).
    pub pc: usize,
    /// Loop stack at that point.
    pub loop_stack: Vec<LoopFrame>,
}

/// Where the operation about to execute sits: the context every
/// [`Runtime`] hook receives. The operation's operands arrive as the
/// typed arguments of the hook or event that carries them.
#[derive(Debug)]
pub struct OpEvent<'a> {
    /// Executing thread.
    pub thread: ThreadId,
    /// Static site of the operation.
    pub site: SiteId,
    /// Program counter of the operation.
    pub pc: usize,
    /// Current loop stack (innermost last).
    pub loop_stack: &'a [LoopFrame],
    /// Interrupt hitting this step, if any.
    pub interrupted: Option<InterruptKind>,
}

impl OpEvent<'_> {
    /// Captures a [`Snapshot`] of the state *before* this operation; rolling
    /// back to it re-executes this operation.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            pc: self.pc,
            loop_stack: self.loop_stack.to_vec(),
        }
    }

    /// Identity of the innermost enclosing loop, if any.
    pub fn innermost_loop(&self) -> Option<LoopId> {
        self.loop_stack.last().map(|f| f.id)
    }
}

/// What the runtime wants done with the pending operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// Execute the operation normally.
    Continue,
    /// Do not execute it; rewind the thread to `0`'s state (a transactional
    /// abort). The runtime is responsible for discarding any buffered
    /// memory effects itself.
    Rollback(Snapshot),
}

/// Observes and mediates a program execution. See the module docs for the
/// hook protocol.
///
/// The interpreter delivers every event of the run through the
/// [`TraceConsumer`] supertrait, so a runtime tracks accesses, sync and
/// thread termination with the same methods a replayed log drives. For a
/// runtime that rolls back, the events of rolled-back work are delivered
/// too: the accesses of an aborted transaction reach the consumer before
/// the rollback, and again when they re-execute. Sync operations and
/// system calls never run inside a transaction, so only access and
/// compute events repeat.
///
/// Every hook has a default: no redirection, and direct, unchecked
/// memory access. A pure observer overrides none of them.
pub trait Runtime: TraceConsumer {
    /// Fired before every operation, markers included; may redirect
    /// control.
    fn before_op(&mut self, mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
        let _ = (mem, ev);
        Directive::Continue
    }

    /// Fired at a region-begin marker (`xbegin`), after `before_op`.
    fn tx_begin(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, r: RegionId) -> Directive {
        let _ = (mem, ev, r);
        Directive::Continue
    }

    /// Fired at a region-end marker (`xend`), after `before_op`.
    fn tx_end(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, r: RegionId) -> Directive {
        let _ = (mem, ev, r);
        Directive::Continue
    }

    /// Fired at a loop-cut probe, after `before_op`.
    fn loop_cut_probe(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, l: LoopId) -> Directive {
        let _ = (mem, ev, l);
        Directive::Continue
    }

    /// Performs a shared read, returning the value observed.
    fn load(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr) -> u64 {
        let _ = ev;
        mem.load(addr)
    }

    /// Performs a shared write.
    fn store(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, val: u64) {
        let _ = ev;
        mem.store(addr, val);
    }

    /// Performs an atomic fetch-add, returning the previous value.
    fn fetch_add(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, delta: u64) -> u64 {
        let _ = ev;
        let old = mem.load(addr);
        mem.store(addr, old.wrapping_add(delta));
        old
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every thread ran to completion.
    Done,
    /// No thread is runnable but not all are done.
    Deadlock,
    /// The step limit was exhausted.
    StepLimit,
    /// The program performed an illegal operation (e.g., unlocking a mutex
    /// it does not hold).
    Fault(String),
}

/// Result of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run stopped.
    pub status: RunStatus,
    /// Total interpreter steps taken.
    pub steps: u64,
}

/// A bound on interpreter steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLimit(pub u64);

impl Default for StepLimit {
    fn default() -> Self {
        StepLimit(u64::MAX)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Parked,
    Runnable,
    BlockedLock(LockId),
    BlockedWait(CondId),
    BlockedChanSend(ChanId),
    BlockedChanRecv(ChanId),
    BlockedBarrier(BarrierId),
    BlockedJoin(ThreadId),
    Done,
}

#[derive(Debug, Default, Clone)]
struct BarrierState {
    arrived: Vec<(ThreadId, SiteId)>,
}

/// The interpreter for one execution of a [`Program`].
///
/// A machine is single-shot: construct, [`run`](Machine::run), then inspect
/// [`memory`](Machine::memory). Running again after completion is a no-op.
#[derive(Debug)]
pub struct Machine {
    flat: FlatProgram,
    pcs: Vec<usize>,
    loop_stacks: Vec<Vec<LoopFrame>>,
    states: Vec<TState>,
    memory: Memory,
    locks: Vec<Option<ThreadId>>,
    sems: Vec<u64>,
    /// Messages currently queued in each channel.
    chans: Vec<u64>,
    chan_caps: Vec<u64>,
    barriers: Vec<BarrierState>,
    barrier_widths: Vec<u32>,
    steps: u64,
    /// Set whenever any thread's [`TState`] changes, so the run loop
    /// rebuilds its cached runnable list only then (most steps leave every
    /// thread's state untouched).
    states_dirty: bool,
}

impl Machine {
    /// Builds a machine for one execution of `p`.
    pub fn new(p: &Program) -> Self {
        let flat = FlatProgram::from_program(p);
        let n = p.thread_count();
        let states = (0..n)
            .map(|t| {
                if p.starts_parked(ThreadId(t as u32)) {
                    TState::Parked
                } else {
                    TState::Runnable
                }
            })
            .collect();
        Machine {
            flat,
            pcs: vec![0; n],
            loop_stacks: vec![Vec::new(); n],
            states,
            memory: Memory::new(),
            locks: vec![None; p.lock_count() as usize],
            sems: vec![0; p.cond_count() as usize],
            chans: vec![0; p.chan_count() as usize],
            chan_caps: (0..p.chan_count())
                .map(|c| p.chan_capacity(ChanId(c)))
                .collect(),
            barriers: vec![BarrierState::default(); p.barrier_count() as usize],
            barrier_widths: (0..p.barrier_count())
                .map(|b| p.barrier_width(BarrierId(b)))
                .collect(),
            steps: 0,
            states_dirty: true,
        }
    }

    /// The shared memory (final state after a run).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Consumes the machine, returning its memory without a copy.
    pub fn into_memory(self) -> Memory {
        self.memory
    }

    /// Runs to completion with no step limit.
    ///
    /// Generic over the scheduler, so a concrete one (such as
    /// [`crate::AnySched`]) is called directly and inlined into the loop;
    /// `&mut dyn Scheduler` still works.
    pub fn run<R: Runtime, S: Scheduler + ?Sized>(
        &mut self,
        rt: &mut R,
        sched: &mut S,
    ) -> RunResult {
        self.run_with_limit(rt, sched, StepLimit::default())
    }

    /// Runs until completion, deadlock, fault, or the step limit.
    pub fn run_with_limit<R: Runtime, S: Scheduler + ?Sized>(
        &mut self,
        rt: &mut R,
        sched: &mut S,
        limit: StepLimit,
    ) -> RunResult {
        // Threads with empty programs finish immediately.
        for t in 0..self.pcs.len() {
            self.maybe_finish(ThreadId(t as u32), rt);
        }
        let mut runnable: Vec<ThreadId> = Vec::with_capacity(self.pcs.len());
        let mut all_done = true;
        self.states_dirty = true;
        loop {
            if self.states_dirty {
                self.states_dirty = false;
                runnable.clear();
                all_done = true;
                for (i, s) in self.states.iter().enumerate() {
                    match s {
                        TState::Runnable => {
                            all_done = false;
                            runnable.push(ThreadId(i as u32));
                        }
                        TState::Done => {}
                        // A parked thread whose spawn never executed is a
                        // thread that was never created — it does not block
                        // completion (joining it, however, still deadlocks).
                        TState::Parked => {}
                        _ => all_done = false,
                    }
                }
            }
            if runnable.is_empty() {
                let status = if all_done {
                    RunStatus::Done
                } else {
                    RunStatus::Deadlock
                };
                return RunResult {
                    status,
                    steps: self.steps,
                };
            }
            if self.steps >= limit.0 {
                return RunResult {
                    status: RunStatus::StepLimit,
                    steps: self.steps,
                };
            }
            let t = sched.next(&runnable);
            debug_assert!(runnable.contains(&t), "scheduler picked unrunnable thread");
            self.steps += 1;
            if let Err(msg) = self.step_thread(t, rt, sched) {
                return RunResult {
                    status: RunStatus::Fault(msg),
                    steps: self.steps,
                };
            }
        }
    }

    /// Executes thread `t`'s next instruction with one `match` on its
    /// packed kind. Each arm reads its operands straight from the
    /// instruction and the operand pool, decides blocking before any
    /// hook fires, and runs the op's effect after `before_op`, delivering
    /// the op's typed event (or, for a marker, firing its typed hook)
    /// from the arm itself; only the sync arms pay for waking, spawning,
    /// barrier release or faults. Every arm that neither blocks nor rolls
    /// back falls through to the shared `pc + 1` advance.
    fn step_thread<R: Runtime, S: Scheduler + ?Sized>(
        &mut self,
        t: ThreadId,
        rt: &mut R,
        sched: &mut S,
    ) -> Result<(), String> {
        let ti = t.index();
        let pc = self.pcs[ti];
        let th = &self.flat.threads[ti];
        let instr = th.code[pc];
        let len = th.code.len();
        let site = instr.site();

        // The hook protocol around one op: draw the step's interrupt,
        // fire `before_op` with the op's event, and, unless the runtime
        // rolls the thread back (which ends the step), evaluate `$effect`
        // with `$rt`, `$mem` and `$ev` bound. The event borrows the loop
        // stack in place while the hooks get `&mut Memory`. A marker's
        // effect is its typed hook, which may roll back the same way.
        macro_rules! hooked {
            (|$rt:ident, $mem:ident, $ev:ident| $effect:expr) => {{
                let interrupted = sched.interrupt(t);
                let ev = OpEvent {
                    thread: t,
                    site,
                    pc,
                    loop_stack: &self.loop_stacks[ti],
                    interrupted,
                };
                match rt.before_op(&mut self.memory, &ev) {
                    Directive::Continue => {
                        let ($rt, $mem, $ev) = (&mut *rt, &mut self.memory, &ev);
                        $effect
                    }
                    Directive::Rollback(snap) => {
                        self.rewind(ti, snap);
                        return Ok(());
                    }
                }
            }};
        }
        macro_rules! marker {
            (|$rt:ident, $mem:ident, $ev:ident| $hook:expr) => {
                if let Directive::Rollback(snap) = hooked!(|$rt, $mem, $ev| $hook) {
                    self.rewind(ti, snap);
                    return Ok(());
                }
            };
        }

        match instr.kind() {
            InstrKind::Read => {
                let [a] = th.words(&instr);
                let a = Addr(a);
                hooked!(|rt, mem, ev| {
                    rt.read(t, site, a);
                    rt.load(mem, ev, a);
                });
            }
            InstrKind::Write => {
                let [a, v] = th.words(&instr);
                let a = Addr(a);
                hooked!(|rt, mem, ev| {
                    rt.write(t, site, a);
                    rt.store(mem, ev, a, v);
                });
            }
            InstrKind::ReadArr => {
                let [base, stride] = th.words(&instr);
                let a =
                    Addr(base).offset(stride * innermost_iteration_index(&self.loop_stacks[ti]));
                hooked!(|rt, mem, ev| {
                    rt.read(t, site, a);
                    rt.load(mem, ev, a);
                });
            }
            InstrKind::WriteArr => {
                let [base, stride, val] = th.words(&instr);
                let a =
                    Addr(base).offset(stride * innermost_iteration_index(&self.loop_stacks[ti]));
                hooked!(|rt, mem, ev| {
                    rt.write(t, site, a);
                    rt.store(mem, ev, a, val);
                });
            }
            InstrKind::Rmw => {
                let [a, d] = th.words(&instr);
                let a = Addr(a);
                hooked!(|rt, mem, ev| {
                    rt.rmw(t, site, a);
                    rt.fetch_add(mem, ev, a, d);
                });
            }
            InstrKind::Compute => {
                let n = instr.arg();
                hooked!(|rt, _mem, _ev| rt.compute(t, site, n));
            }
            InstrKind::LoopBack => {
                let frame = self.loop_stacks[ti]
                    .last_mut()
                    .expect("LoopBack with empty loop stack");
                frame.remaining -= 1;
                if frame.remaining > 0 {
                    self.pcs[ti] = instr.start();
                    return Ok(());
                }
                self.loop_stacks[ti].pop();
            }
            InstrKind::LoopEnter => {
                let trips = instr.trips();
                if trips == 0 {
                    self.pcs[ti] = instr.end() + 1;
                    self.maybe_finish(t, rt);
                    return Ok(());
                }
                self.loop_stacks[ti].push(LoopFrame {
                    id: instr.loop_id(),
                    trips,
                    remaining: trips,
                });
            }
            InstrKind::Lock => {
                let l = LockId(instr.arg());
                if self.locks[l.index()].is_some() {
                    self.block(ti, TState::BlockedLock(l));
                    return Ok(());
                }
                hooked!(|rt, _mem, _ev| {
                    self.locks[l.index()] = Some(t);
                    rt.acquire(t, site, l);
                });
            }
            InstrKind::Unlock => {
                let l = LockId(instr.arg());
                let held = hooked!(|rt, _mem, _ev| {
                    let held = self.locks[l.index()] == Some(t);
                    if held {
                        self.locks[l.index()] = None;
                        rt.release(t, site, l);
                    }
                    held
                });
                if !held {
                    return Err(format!("{t} unlocked {l} it does not hold"));
                }
                self.wake(TState::BlockedLock(l));
            }
            InstrKind::Barrier => {
                let b = BarrierId(instr.arg());
                let full = hooked!(|rt, _mem, _ev| {
                    rt.barrier_arrive(t, site, b);
                    let arrived = &mut self.barriers[b.index()].arrived;
                    arrived.push((t, site));
                    arrived.len() as u32 == self.barrier_widths[b.index()]
                });
                if !full {
                    // Stays at the barrier op until the last arrival.
                    self.block(ti, TState::BlockedBarrier(b));
                    return Ok(());
                }
                let arrivals = std::mem::take(&mut self.barriers[b.index()].arrived);
                rt.barrier_release(b, &arrivals);
                for &(u, _) in &arrivals {
                    if u != t {
                        debug_assert_eq!(self.states[u.index()], TState::BlockedBarrier(b));
                        self.states[u.index()] = TState::Runnable;
                        self.states_dirty = true;
                        self.pcs[u.index()] += 1;
                        self.maybe_finish(u, rt);
                    }
                }
                // `t` (the last arriver) advances normally below.
            }
            InstrKind::ChanSend => {
                let ch = ChanId(instr.arg());
                if self.chans[ch.index()] >= self.chan_caps[ch.index()] {
                    self.block(ti, TState::BlockedChanSend(ch));
                    return Ok(());
                }
                hooked!(|rt, _mem, _ev| {
                    self.chans[ch.index()] += 1;
                    rt.chan_send(t, site, ch);
                });
                self.wake(TState::BlockedChanRecv(ch));
            }
            InstrKind::ChanRecv => {
                let ch = ChanId(instr.arg());
                if self.chans[ch.index()] == 0 {
                    self.block(ti, TState::BlockedChanRecv(ch));
                    return Ok(());
                }
                hooked!(|rt, _mem, _ev| {
                    self.chans[ch.index()] -= 1;
                    rt.chan_recv(t, site, ch);
                });
                self.wake(TState::BlockedChanSend(ch));
            }
            InstrKind::Signal => {
                let c = CondId(instr.arg());
                hooked!(|rt, _mem, _ev| {
                    self.sems[c.index()] += 1;
                    rt.signal(t, site, c);
                });
                self.wake(TState::BlockedWait(c));
            }
            InstrKind::Wait => {
                let c = CondId(instr.arg());
                if self.sems[c.index()] == 0 {
                    self.block(ti, TState::BlockedWait(c));
                    return Ok(());
                }
                hooked!(|rt, _mem, _ev| {
                    self.sems[c.index()] -= 1;
                    rt.wait(t, site, c);
                });
            }
            InstrKind::Spawn => {
                let u = ThreadId(instr.arg());
                let parked = hooked!(|rt, _mem, _ev| {
                    let parked = self.states[u.index()] == TState::Parked;
                    if parked {
                        rt.spawn(t, site, u);
                    }
                    parked
                });
                if !parked {
                    return Err(format!("{t} spawned non-parked thread {u}"));
                }
                self.states[u.index()] = TState::Runnable;
                self.states_dirty = true;
                self.maybe_finish(u, rt); // spawned thread may have an empty program
            }
            InstrKind::Join => {
                let u = ThreadId(instr.arg());
                if self.states[u.index()] != TState::Done {
                    self.block(ti, TState::BlockedJoin(u));
                    return Ok(());
                }
                hooked!(|rt, _mem, _ev| rt.join(t, site, u));
            }
            InstrKind::Syscall => {
                let kind = SYSCALL_CODES[instr.arg() as usize];
                hooked!(|rt, _mem, _ev| rt.syscall(t, site, kind));
            }
            InstrKind::TxBegin => {
                let r = RegionId(instr.arg());
                marker!(|rt, mem, ev| rt.tx_begin(mem, ev, r));
            }
            InstrKind::TxEnd => {
                let r = RegionId(instr.arg());
                marker!(|rt, mem, ev| rt.tx_end(mem, ev, r));
            }
            InstrKind::LoopCutProbe => {
                let l = LoopId(instr.arg());
                marker!(|rt, mem, ev| rt.loop_cut_probe(mem, ev, l));
            }
        }
        self.pcs[ti] = pc + 1;
        if pc + 1 >= len {
            self.maybe_finish(t, rt);
        }
        Ok(())
    }

    /// Rewinds thread `ti` to `snap` (a runtime's rollback).
    fn rewind(&mut self, ti: usize, snap: Snapshot) {
        self.pcs[ti] = snap.pc;
        self.loop_stacks[ti] = snap.loop_stack;
    }

    /// Blocks the running thread (index `ti`) in state `s`.
    fn block(&mut self, ti: usize, s: TState) {
        self.states[ti] = s;
        self.states_dirty = true;
    }

    /// Makes every thread blocked in state `blocked` runnable again.
    fn wake(&mut self, blocked: TState) {
        for s in self.states.iter_mut() {
            if *s == blocked {
                *s = TState::Runnable;
                self.states_dirty = true;
            }
        }
    }

    fn maybe_finish<R: Runtime>(&mut self, t: ThreadId, rt: &mut R) {
        let ti = t.index();
        if self.states[ti] != TState::Done
            && self.states[ti] != TState::Parked
            && self.pcs[ti] >= self.flat.threads[ti].code.len()
        {
            self.states[ti] = TState::Done;
            self.states_dirty = true;
            for s in self.states.iter_mut() {
                if *s == TState::BlockedJoin(t) {
                    *s = TState::Runnable;
                }
            }
            rt.thread_done(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, ProgramBuilder, SyscallKind};
    use crate::sched::{RandomSched, RoundRobin};
    use crate::DirectRuntime;

    fn run_direct(p: &Program) -> (RunResult, Memory) {
        let mut m = Machine::new(p);
        let mut rt = DirectRuntime::default();
        let mut s = RoundRobin::new();
        let r = m.run(&mut rt, &mut s);
        let mem = m.memory().clone();
        (r, mem)
    }

    #[test]
    fn straight_line_program_completes() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write(x, 5).read(x).compute(10);
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 5);
    }

    #[test]
    fn loops_iterate_their_trip_count() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(10, |t| {
            t.rmw(x, 1);
        });
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 10);
    }

    #[test]
    fn zero_trip_loops_are_skipped() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0)
            .loop_n(0, |t| {
                t.write(x, 99);
            })
            .write(x, 1);
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 1);
    }

    #[test]
    fn nested_loops_multiply() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(3, |t| {
            t.loop_n(4, |t| {
                t.rmw(x, 1);
            });
        });
        let p = b.build();
        let (_, mem) = run_direct(&p);
        assert_eq!(mem.load(x), 12);
    }

    #[test]
    fn locks_provide_mutual_exclusion_of_rmw() {
        // With round-robin and locks, both increments land.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        for t in 0..2 {
            b.thread(t).loop_n(50, |tb| {
                tb.lock(l).rmw(x, 1).unlock(l);
            });
        }
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 100);
    }

    #[test]
    fn unlock_of_unheld_lock_faults() {
        let mut b = ProgramBuilder::new(1);
        let l = b.lock_id("l");
        b.thread(0).unlock(l);
        let p = b.build();
        let (r, _) = run_direct(&p);
        assert!(matches!(r.status, RunStatus::Fault(_)));
    }

    #[test]
    fn wait_blocks_until_signal() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let c = b.cond_id("c");
        b.thread(0).write(x, 1).signal(c);
        b.thread(1).wait(c).read(x);
        let p = b.build();
        let (r, _) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
    }

    #[test]
    fn recv_blocks_until_send() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let ch = b.chan_id("ch", 4);
        b.thread(0).write(x, 1).send(ch);
        b.thread(1).recv(ch).read(x);
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 1);
    }

    #[test]
    fn send_blocks_at_capacity() {
        // Capacity-1 channel: the producer cannot run ahead of the consumer,
        // so under round-robin the two strictly alternate and every update
        // lands.
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let ch = b.chan_id("ch", 1);
        b.thread(0).loop_n(10, |t| {
            t.rmw(x, 1).send(ch);
        });
        b.thread(1).loop_n(10, |t| {
            t.recv(ch).rmw(x, 1);
        });
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 20);
    }

    #[test]
    fn recv_without_send_deadlocks() {
        let mut b = ProgramBuilder::new(1);
        let ch = b.chan_id("ch", 2);
        b.thread(0).recv(ch);
        let p = b.build();
        let (r, _) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Deadlock);
    }

    #[test]
    fn send_beyond_capacity_without_recv_deadlocks() {
        let mut b = ProgramBuilder::new(1);
        let ch = b.chan_id("ch", 2);
        b.thread(0).send(ch).send(ch).send(ch);
        let p = b.build();
        let (r, _) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Deadlock);
    }

    #[test]
    fn wait_without_signal_deadlocks() {
        let mut b = ProgramBuilder::new(1);
        let c = b.cond_id("c");
        b.thread(0).wait(c);
        let p = b.build();
        let (r, _) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Deadlock);
    }

    #[test]
    fn lock_cycle_deadlocks() {
        let mut b = ProgramBuilder::new(2);
        let l1 = b.lock_id("a");
        let l2 = b.lock_id("b");
        // Classic AB/BA deadlock with round-robin scheduling.
        b.thread(0).lock(l1).compute(1).lock(l2);
        b.thread(1).lock(l2).compute(1).lock(l1);
        let p = b.build();
        let (r, _) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Deadlock);
    }

    #[test]
    fn spawn_and_join() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        b.thread(0)
            .spawn(ThreadId(1))
            .spawn(ThreadId(2))
            .join(ThreadId(1))
            .join(ThreadId(2))
            .read(x);
        b.thread(1).rmw(x, 1);
        b.thread(2).rmw(x, 1);
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 2);
    }

    #[test]
    fn join_of_never_spawned_parked_thread_deadlocks() {
        // Thread 1 is spawned only after the join, which can never happen.
        let mut b = ProgramBuilder::new(2);
        b.thread(0).join(ThreadId(1)).spawn(ThreadId(1));
        b.thread(1).compute(1);
        let p = b.build();
        let (r, _) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Deadlock);
    }

    #[test]
    fn barrier_releases_all_participants() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        for t in 0..3 {
            b.thread(t).rmw(x, 1).barrier(bar).read(x);
        }
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 3);
    }

    #[test]
    fn barrier_in_loop_reuses() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let bar = b.barrier_id("bar");
        for t in 0..2 {
            b.thread(t).loop_n(5, |tb| {
                tb.rmw(x, 1).barrier(bar);
            });
        }
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 10);
    }

    #[test]
    fn step_limit_stops_run() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(1000, |t| {
            t.read(x);
        });
        let p = b.build();
        let mut m = Machine::new(&p);
        let mut rt = DirectRuntime::default();
        let mut s = RoundRobin::new();
        let r = m.run_with_limit(&mut rt, &mut s, StepLimit(10));
        assert_eq!(r.status, RunStatus::StepLimit);
        assert_eq!(r.steps, 10);
    }

    #[test]
    fn random_schedule_same_seed_same_final_memory() {
        let mut b = ProgramBuilder::new(4);
        let arr = b.array("a", 32);
        for t in 0..4u64 {
            b.thread(t as usize).loop_n(20, |tb| {
                tb.rmw(crate::addr::elem(arr, (t % 4) as usize), t + 1);
            });
        }
        let p = b.build();
        let run = |seed| {
            let mut m = Machine::new(&p);
            let mut rt = DirectRuntime::default();
            let mut s = RandomSched::new(seed);
            let r = m.run(&mut rt, &mut s);
            assert_eq!(r.status, RunStatus::Done);
            (m.memory().clone(), r.steps)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn syscalls_and_markers_are_noops_for_direct_runtime() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0)
            .syscall(SyscallKind::Io)
            .write(x, 2)
            .syscall(SyscallKind::Alloc);
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        assert_eq!(mem.load(x), 2);
    }

    /// A runtime that rolls a thread back once, exercising the abort path.
    struct RollOnce {
        done: bool,
        saved: Option<Snapshot>,
        calls: u64,
    }

    impl TraceConsumer for RollOnce {}
    impl Runtime for RollOnce {
        fn before_op(&mut self, _mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
            self.calls += 1;
            if self.saved.is_none() {
                self.saved = Some(ev.snapshot());
            } else if !self.done && self.calls > 3 {
                self.done = true;
                return Directive::Rollback(self.saved.clone().expect("saved above"));
            }
            Directive::Continue
        }
    }

    #[test]
    fn rollback_reexecutes_from_snapshot() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).rmw(x, 1).rmw(x, 1).rmw(x, 1).rmw(x, 1);
        let p = b.build();
        let mut m = Machine::new(&p);
        let mut rt = RollOnce {
            done: false,
            saved: None,
            calls: 0,
        };
        let mut s = RoundRobin::new();
        let r = m.run(&mut rt, &mut s);
        assert_eq!(r.status, RunStatus::Done);
        assert!(rt.done);
        // Rolled back to the beginning once: some increments re-applied
        // (DirectRuntime-style effects are not undone — the runtime under
        // test does not buffer), so the count exceeds 4.
        assert!(m.memory().load(x) > 4, "got {}", m.memory().load(x));
    }

    #[test]
    fn rollback_restores_loop_stack() {
        // Roll back from inside a loop to before the loop; the loop must
        // restart from scratch.
        struct RollFromLoop {
            rolled: bool,
            start: Option<Snapshot>,
            calls: u64,
        }
        impl TraceConsumer for RollFromLoop {}
        impl Runtime for RollFromLoop {
            fn before_op(&mut self, _mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
                self.calls += 1;
                if self.start.is_none() {
                    self.start = Some(ev.snapshot());
                }
                // The third loop iteration's op.
                if !self.rolled && !ev.loop_stack.is_empty() && self.calls > 3 {
                    self.rolled = true;
                    return Directive::Rollback(self.start.clone().expect("set above"));
                }
                Directive::Continue
            }
        }
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write(x, 0).loop_n(5, |t| {
            t.rmw(x, 1);
        });
        let p = b.build();
        let mut m = Machine::new(&p);
        let mut rt = RollFromLoop {
            rolled: false,
            start: None,
            calls: 0,
        };
        let mut s = RoundRobin::new();
        let r = m.run(&mut rt, &mut s);
        assert_eq!(r.status, RunStatus::Done);
        assert!(rt.rolled);
        // After rollback the initial write(x, 0) re-executes, then the loop
        // runs its full 5 iterations.
        assert_eq!(m.memory().load(x), 5);
    }

    #[test]
    fn indexed_accesses_use_innermost_loop_index() {
        let mut b = ProgramBuilder::new(1);
        let arr = b.array("arr", 16);
        b.thread(0).loop_n(4, |t| {
            t.loop_n(3, |t| {
                t.write_arr(arr, 8, 7);
            });
        });
        let p = b.build();
        let (r, mem) = run_direct(&p);
        assert_eq!(r.status, RunStatus::Done);
        // The inner loop walks elements 0..3; the outer loop re-walks the
        // same elements (no escape past the inner trip count).
        for i in 0..3 {
            assert_eq!(mem.load(arr.offset(8 * i)), 7, "element {i}");
        }
        assert_eq!(mem.load(arr.offset(8 * 3)), 0);
    }

    #[test]
    fn indexed_access_outside_loop_uses_index_zero() {
        let mut b = ProgramBuilder::new(1);
        let arr = b.array("arr", 4);
        b.thread(0).write_arr(arr, 8, 9);
        let p = b.build();
        let (_, mem) = run_direct(&p);
        assert_eq!(mem.load(arr), 9);
    }

    /// A two-thread program that runs every operation kind once or more
    /// (indexed accesses inside a loop), with thread 0 wrapped in the
    /// three instrumentation markers. Returns the program and the first
    /// marker site; the markers take that site and the next two.
    fn every_kind_program() -> (Program, u32) {
        use crate::ir::Stmt;

        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let arr = b.array("arr", 8);
        let l = b.lock_id("l");
        let c = b.cond_id("c");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", 2);
        b.thread(0)
            .spawn(ThreadId(1))
            .write(x, 77)
            .read(x)
            .rmw(x, 3)
            .loop_n(3, |t| {
                t.read_arr(arr, 8).write_arr(arr, 16, 5);
            })
            .lock(l)
            .unlock(l)
            .signal(c)
            .send(ch)
            .barrier(bar)
            .compute(9)
            .syscall(SyscallKind::Free)
            .join(ThreadId(1));
        b.thread(1).wait(c).recv(ch).barrier(bar);
        let plain = b.build();
        let mut threads: Vec<Vec<Stmt>> =
            (0..2).map(|t| plain.thread(ThreadId(t)).to_vec()).collect();
        let marker = |site: u32, op| Stmt::Op {
            site: SiteId(site),
            op,
        };
        let n = plain.site_count();
        threads[0].insert(0, marker(n, Op::TxBegin(RegionId(4))));
        threads[0].push(marker(n + 1, Op::LoopCutProbe(LoopId(0))));
        threads[0].push(marker(n + 2, Op::TxEnd(RegionId(4))));
        (plain.with_transformed_threads(threads, n + 3), n)
    }

    /// Operands a [`Probe`]'s non-event hooks received, tagged by hook.
    type Hooks = Vec<(&'static str, u64)>;

    /// One op as a [`Probe`] saw it: where it ran, the innermost
    /// iteration index, the first log event it delivered, and every
    /// operand its runtime hooks received, tagged by hook.
    struct ProbedOp {
        thread: ThreadId,
        pc: usize,
        site: SiteId,
        idx: u64,
        first_event: usize,
        hooks: Hooks,
    }

    /// A runtime that is not `Live`: it forwards its `TraceConsumer`
    /// events into an [`EventLogBuilder`](crate::trace::EventLogBuilder)
    /// and probes every other hook.
    #[derive(Default)]
    struct Probe {
        log: crate::trace::EventLogBuilder,
        ops: Vec<ProbedOp>,
    }

    impl Probe {
        fn got(&mut self, hook: &'static str, word: u64) -> Directive {
            let op = self.ops.last_mut().expect("a hook after before_op");
            op.hooks.push((hook, word));
            Directive::Continue
        }
    }

    impl Runtime for Probe {
        fn before_op(&mut self, _mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
            self.ops.push(ProbedOp {
                thread: ev.thread,
                pc: ev.pc,
                site: ev.site,
                idx: innermost_iteration_index(ev.loop_stack),
                first_event: self.log.events.len(),
                hooks: Vec::new(),
            });
            Directive::Continue
        }
        fn tx_begin(&mut self, _mem: &mut Memory, _ev: &OpEvent<'_>, r: RegionId) -> Directive {
            self.got("tx_begin", r.0.into())
        }
        fn tx_end(&mut self, _mem: &mut Memory, _ev: &OpEvent<'_>, r: RegionId) -> Directive {
            self.got("tx_end", r.0.into())
        }
        fn loop_cut_probe(&mut self, _mem: &mut Memory, _ev: &OpEvent<'_>, l: LoopId) -> Directive {
            self.got("loop_cut_probe", l.0.into())
        }
        fn load(&mut self, mem: &mut Memory, _ev: &OpEvent<'_>, a: Addr) -> u64 {
            self.got("load", a.0);
            mem.load(a)
        }
        fn store(&mut self, mem: &mut Memory, _ev: &OpEvent<'_>, a: Addr, v: u64) {
            self.got("store", a.0);
            self.got("value", v);
            mem.store(a, v);
        }
        fn fetch_add(&mut self, mem: &mut Memory, _ev: &OpEvent<'_>, a: Addr, d: u64) -> u64 {
            self.got("fetch_add", a.0);
            self.got("delta", d);
            let old = mem.load(a);
            mem.store(a, old.wrapping_add(d));
            old
        }
    }

    impl TraceConsumer for Probe {
        fn read(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            self.log.read(t, s, a);
        }
        fn write(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            self.log.write(t, s, a);
        }
        fn rmw(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            self.log.rmw(t, s, a);
        }
        fn acquire(&mut self, t: ThreadId, s: SiteId, l: LockId) {
            self.log.acquire(t, s, l);
        }
        fn release(&mut self, t: ThreadId, s: SiteId, l: LockId) {
            self.log.release(t, s, l);
        }
        fn signal(&mut self, t: ThreadId, s: SiteId, c: CondId) {
            self.log.signal(t, s, c);
        }
        fn wait(&mut self, t: ThreadId, s: SiteId, c: CondId) {
            self.log.wait(t, s, c);
        }
        fn spawn(&mut self, t: ThreadId, s: SiteId, u: ThreadId) {
            self.log.spawn(t, s, u);
        }
        fn join(&mut self, t: ThreadId, s: SiteId, u: ThreadId) {
            self.log.join(t, s, u);
        }
        fn barrier_arrive(&mut self, t: ThreadId, s: SiteId, b: BarrierId) {
            self.log.barrier_arrive(t, s, b);
        }
        fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
            self.log.barrier_release(b, arrivals);
        }
        fn compute(&mut self, t: ThreadId, s: SiteId, units: u32) {
            self.log.compute(t, s, units);
        }
        fn syscall(&mut self, t: ThreadId, s: SiteId, kind: SyscallKind) {
            self.log.syscall(t, s, kind);
        }
        fn chan_send(&mut self, t: ThreadId, s: SiteId, ch: ChanId) {
            self.log.chan_send(t, s, ch);
        }
        fn chan_recv(&mut self, t: ThreadId, s: SiteId, ch: ChanId) {
            self.log.chan_recv(t, s, ch);
        }
        fn thread_done(&mut self, t: ThreadId) {
            self.log.thread_done(t);
        }
    }

    fn is_per_op(e: &crate::trace::TraceEvent) -> bool {
        use crate::trace::TraceEventKind as K;
        !matches!(e.kind(), K::BarrierRelease | K::ThreadDone)
    }

    #[test]
    fn every_kind_arm_builds_the_op_the_flattener_encoded() {
        // Each arm decodes its operands from the packed instruction and
        // hands them to the hooks as typed arguments; the reference
        // decoder must agree with every operand of every kind, markers
        // and indexed accesses inside loops included.
        use crate::flat::{syscall_code, FlatProgram};
        use crate::trace::TraceEventKind as K;

        /// What `op` must deliver at iteration `idx`: its one event
        /// (kind and operand), then the operands of the other hooks.
        fn expected(op: Op, idx: u64) -> (Vec<(K, u64)>, Hooks) {
            let load = |a: Addr| (vec![(K::Read, a.0)], vec![("load", a.0)]);
            let store = |a: Addr, v| (vec![(K::Write, a.0)], vec![("store", a.0), ("value", v)]);
            let event = |k, arg: u32| (vec![(k, u64::from(arg))], vec![]);
            let marker = |hook, arg: u32| (vec![], vec![(hook, u64::from(arg))]);
            match op {
                Op::Read(a) => load(a),
                Op::ReadArr { base, stride } => load(base.offset(stride * idx)),
                Op::Write(a, v) => store(a, v),
                Op::WriteArr { base, stride, val } => store(base.offset(stride * idx), val),
                Op::Rmw(a, d) => (vec![(K::Rmw, a.0)], vec![("fetch_add", a.0), ("delta", d)]),
                Op::Compute(n) => event(K::Compute, n),
                Op::Syscall(k) => event(K::Syscall, syscall_code(k)),
                Op::Lock(l) => event(K::Acquire, l.0),
                Op::Unlock(l) => event(K::Release, l.0),
                Op::Signal(c) => event(K::Signal, c.0),
                Op::Wait(c) => event(K::Wait, c.0),
                Op::Spawn(u) => event(K::Spawn, u.0),
                Op::Join(u) => event(K::Join, u.0),
                Op::Barrier(b) => event(K::BarrierArrive, b.0),
                Op::ChanSend(ch) => event(K::ChanSend, ch.0),
                Op::ChanRecv(ch) => event(K::ChanRecv, ch.0),
                Op::TxBegin(r) => marker("tx_begin", r.0),
                Op::TxEnd(r) => marker("tx_end", r.0),
                Op::LoopCutProbe(l) => marker("loop_cut_probe", l.0),
            }
        }

        let (p, _) = every_kind_program();
        let mut rt = Probe::default();
        let r = Machine::new(&p).run(&mut rt, &mut RandomSched::new(3));
        assert_eq!(r.status, RunStatus::Done);
        let flat = FlatProgram::from_program(&p);
        let events = &rt.log.events;
        let mut kinds = std::collections::BTreeSet::new();
        for (i, op) in rt.ops.iter().enumerate() {
            let (t, pc) = (op.thread, op.pc);
            let th = &flat.threads[t.index()];
            let instr = &th.code[pc];
            let end = rt.ops.get(i + 1).map_or(events.len(), |o| o.first_event);
            let delivered: Vec<_> = events[op.first_event..end]
                .iter()
                .filter(|e| is_per_op(e))
                .inspect(|e| assert_eq!((e.thread(), e.site()), (t, op.site), "{t} pc {pc}"))
                .map(|e| (e.kind(), u64::from(e.arg())))
                .collect();
            assert_eq!(op.site, instr.site(), "{t} pc {pc}");
            let want = expected(th.decode_op(instr), op.idx);
            assert_eq!((delivered, op.hooks.clone()), want, "{t} pc {pc}");
            kinds.insert(instr.kind() as u8);
        }
        // Every operation kind ran (all but the two loop-control kinds).
        assert_eq!(kinds.len(), InstrKind::LoopCutProbe as usize + 1 - 2);
    }

    #[test]
    fn every_kind_arm_delivers_the_event_the_recorder_logs() {
        // A runtime that is not `Live` receives, through its own
        // `TraceConsumer` impl, exactly the stream `record_run` logs: one
        // event per executed operation, none for the markers, which fire
        // their own hooks instead.
        use crate::trace::{record_run, TraceEventKind};

        let (p, first_marker) = every_kind_program();
        let mut rt = Probe::default();
        let r = Machine::new(&p).run(&mut rt, &mut RandomSched::new(3));
        assert_eq!(r.status, RunStatus::Done);
        let log = record_run(&p, &mut RandomSched::new(3), StepLimit::default());
        assert_eq!(rt.log.events, log.events());
        assert_eq!(&rt.log.barriers, log.barriers());

        let events = &rt.log.events;
        let kinds: std::collections::BTreeSet<u8> = events.iter().map(|e| e.kind() as u8).collect();
        assert_eq!(
            kinds.len(),
            TraceEventKind::ChanRecv as usize + 1,
            "every kind"
        );
        assert!(
            events.iter().all(|e| e.site().0 < first_marker),
            "a marker delivered an event"
        );
        let markers: Vec<_> = rt.ops.iter().filter(|o| o.site.0 >= first_marker).collect();
        assert_eq!(markers.len(), 3);
        assert!(
            markers.iter().all(|o| o.hooks.len() == 1),
            "one hook per marker"
        );
        let per_op = events.iter().filter(|e| is_per_op(e)).count();
        assert_eq!(per_op, rt.ops.len() - 3, "one event per executed op");
    }

    #[test]
    fn machine_is_single_shot() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0).compute(1);
        let p = b.build();
        let mut m = Machine::new(&p);
        let mut rt = DirectRuntime::default();
        let mut s = RoundRobin::new();
        assert_eq!(m.run(&mut rt, &mut s).status, RunStatus::Done);
        let again = m.run(&mut rt, &mut s);
        assert_eq!(again.status, RunStatus::Done);
        assert_eq!(again.steps, 1); // no further work
    }
}
