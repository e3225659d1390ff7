//! The record/replay boundary: detectors consume a stream of
//! schedule-visible events through one trait, [`TraceConsumer`].
//!
//! A [`TraceConsumer`] sees resolved access addresses, architecturally
//! completed sync operations, barrier releases with their arrival lists,
//! and thread terminations. Every [`Runtime`] is a `TraceConsumer`: the
//! interpreter delivers each typed event straight from the operation
//! that produced it, so the same consumer can be driven live (wrapped in
//! [`Live`], or as the event half of a runtime that also mediates
//! memory, like the TxRace engine) *or* by
//! [`EventLog::replay`](crate::trace::EventLog::replay) over a recorded
//! log, and observes the identical call sequence either way. That is the
//! correctness contract of the pipeline: because a pure observer never
//! redirects control or alters memory, recording is invisible, and a log
//! recorded once can stand in for any number of re-executions.
//!
//! The TxRace engine tracks happens-before through these same events,
//! but it rolls threads back, so its run cannot be recorded once and
//! replayed: it stays on the live path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::addr::Addr;
use crate::exec::Runtime;
use crate::ids::{BarrierId, ChanId, CondId, LockId, SiteId, ThreadId};
use crate::ir::SyscallKind;
use crate::trace::EventLog;

/// A pure observer of one execution's schedule-visible event stream.
///
/// It is also the event half of every [`Runtime`]: the interpreter
/// delivers a live run's events through these methods, and
/// [`EventLog::replay`] delivers a recorded run's. Every method defaults to a no-op so consumers implement only what
/// they track. Methods are invoked in execution order; for one completed
/// operation exactly one method fires, plus
/// [`barrier_release`](TraceConsumer::barrier_release) once per barrier
/// release, after the arrivals that triggered it.
pub trait TraceConsumer {
    /// A shared read at `addr` (resolved effective address).
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        let _ = (t, site, addr);
    }

    /// A shared write at `addr`.
    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        let _ = (t, site, addr);
    }

    /// An atomic read-modify-write at `addr`. Atomics are never data
    /// races under the C11 model; most detectors ignore these.
    fn rmw(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        let _ = (t, site, addr);
    }

    /// Mutex `l` acquired.
    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        let _ = (t, site, l);
    }

    /// Mutex `l` released.
    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        let _ = (t, site, l);
    }

    /// Semaphore `c` posted.
    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        let _ = (t, site, c);
    }

    /// A wait on `c` satisfied.
    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        let _ = (t, site, c);
    }

    /// Thread `child` spawned by `t`.
    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        let _ = (t, site, child);
    }

    /// A join on `child` satisfied.
    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        let _ = (t, site, child);
    }

    /// Thread `t` arrived at barrier `b` (it may block here; the release
    /// is reported separately).
    fn barrier_arrive(&mut self, t: ThreadId, site: SiteId, b: BarrierId) {
        let _ = (t, site, b);
    }

    /// Barrier `b` released all `arrivals` (thread and arrival site, in
    /// arrival order).
    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        let _ = (b, arrivals);
    }

    /// `units` cycles of thread-local computation.
    fn compute(&mut self, t: ThreadId, site: SiteId, units: u32) {
        let _ = (t, site, units);
    }

    /// A system call.
    fn syscall(&mut self, t: ThreadId, site: SiteId, kind: SyscallKind) {
        let _ = (t, site, kind);
    }

    /// A send into channel `ch` completed (a happens-before release
    /// toward the receive that takes the message).
    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        let _ = (t, site, ch);
    }

    /// A receive from channel `ch` completed (a happens-before acquire
    /// from the sends that fed the channel).
    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        let _ = (t, site, ch);
    }

    /// Thread `t` finished its program.
    fn thread_done(&mut self, t: ThreadId) {
        let _ = t;
    }

    /// Fuses a [`fan_out`] panel into the consumers that ride its replay
    /// passes. Each [`Fused`] entry stands for the panel members at the
    /// input indices it lists; every index appears exactly once. Where an
    /// entry runs is [`fan_out`]'s choice alone.
    ///
    /// The default fuses nothing: one entry per member, in input order. A
    /// type that overrides this must make each fused consumer, once
    /// [`unfuse`](TraceConsumer::unfuse)d after a replay, equal to its
    /// members replayed one by one.
    fn fuse(panel: Vec<Self>) -> Vec<Fused<Self>>
    where
        Self: Sized,
    {
        panel
            .into_iter()
            .enumerate()
            .map(|(i, consumer)| Fused {
                consumer,
                members: vec![i],
            })
            .collect()
    }

    /// The panel members a fused consumer stands for, in the order of its
    /// [`Fused::members`]. The default is the consumer itself.
    fn unfuse(self) -> Vec<Self>
    where
        Self: Sized,
    {
        vec![self]
    }
}

/// One consumer of a [`fan_out`] pass: a panel member, or several members
/// fused by [`TraceConsumer::fuse`] into one consumer that
/// [`TraceConsumer::unfuse`] turns back into them.
#[derive(Debug)]
pub struct Fused<C> {
    /// The consumer that rides the group's replay pass.
    pub consumer: C,
    /// Input indices of the panel members it stands for.
    pub members: Vec<usize>,
}

/// The worker count of a pool over `items` jobs at `width`: at most one
/// per job and one per core, since a worker beyond either only adds
/// preemption. The core count is read once per process: the query reads
/// cgroup files and costs tens of microseconds.
fn pool_workers(width: usize, items: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let workers = width.min(items);
    if workers <= 1 {
        return workers;
    }
    workers.min(*CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |v| v.get())))
}

/// Runs `f(index, item)` over all `items` on
/// min(`width`, jobs, available parallelism) scoped threads and returns
/// the results **in input order**, whatever the completion order — so a
/// deterministic `f` gives byte-identical output at every width. The
/// calling thread is always one of the workers, so one worker spawns no
/// thread at all.
///
/// Workers claim items through one shared counter: jobs here (replay
/// groups, shards, benchmark cells) are coarse, so one fetch-add per job
/// costs nothing next to the work it hands out.
///
/// ```
/// use txrace_sim::par_map;
///
/// let squares = par_map(4, 0..10u64, |i, x| (i as u64) * x);
/// assert_eq!(squares, (0..10).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn par_map<T, R, F>(width: usize, items: impl IntoIterator<Item = T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let workers = pool_workers(width, jobs.len());
    let take = |m: Mutex<Option<T>>| {
        m.into_inner()
            .expect("job poisoned")
            .expect("job unclaimed")
    };
    if workers <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, m)| f(i, take(m)))
            .collect();
    }
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { break };
        let item = job
            .lock()
            .expect("job poisoned")
            .take()
            .expect("claimed once");
        let r = f(i, item);
        *slots[i].lock().expect("result slot poisoned") = Some(r);
    };
    // The calling thread is one of the workers.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// One consumer's slice of a [`fan_out`] pass.
#[derive(Debug)]
pub struct FanOutReport<C> {
    /// The consumer, after consuming the whole log.
    pub consumer: C,
}

/// Replays one shared [`EventLog`] into every consumer — the
/// multi-consumer fan-out of the parallel replay engine.
///
/// The consumer type fuses the panel into entries
/// ([`TraceConsumer::fuse`]: one per member, unless the type fuses
/// members that can share work), and the entries are dealt round-robin to
/// min(`width`, entries, available parallelism) groups, the pool's worker
/// count. Each group rides **one** broadcast pass over the log
/// ([`EventLog::replay_many`]: every event decoded once, dispatched to
/// the whole group), and groups run concurrently on [`par_map`]. The
/// group count is capped at the machine's available parallelism because
/// an extra group means an extra walk of the log, which costs memory
/// bandwidth without buying any concurrency once every core already has
/// a walk. Each group [`unfuse`](TraceConsumer::unfuse)s its consumers on
/// its own worker.
///
/// Each consumer observes the *identical* call sequence
/// [`EventLog::replay`] produces, so results are byte-identical to a
/// serial loop over the consumers regardless of `width`, the group
/// assignment, or the core count; the log is read-only and shared, so
/// nothing is re-read or re-decoded per consumer within a group.
/// Results come back in input order regardless of completion order.
///
/// ```
/// use txrace_sim::replay::{fan_out, TraceConsumer};
/// use txrace_sim::{record_run, ProgramBuilder, RoundRobin, StepLimit, ThreadId};
///
/// #[derive(Default)]
/// struct CountWrites(u64);
/// impl TraceConsumer for CountWrites {
///     fn write(&mut self, _: ThreadId, _: txrace_sim::SiteId, _: txrace_sim::Addr) {
///         self.0 += 1;
///     }
/// }
///
/// let mut b = ProgramBuilder::new(1);
/// let x = b.var("x");
/// b.thread(0).write(x, 1).write(x, 2);
/// let p = b.build();
/// let log = record_run(&p, &mut RoundRobin::new(), StepLimit::default());
/// let counters = vec![CountWrites::default(), CountWrites::default()];
/// for r in fan_out(&log, counters, 2) {
///     assert_eq!(r.consumer.0, 2);
/// }
/// ```
pub fn fan_out<C: TraceConsumer + Send>(
    log: &EventLog,
    consumers: Vec<C>,
    width: usize,
) -> Vec<FanOutReport<C>> {
    let n = consumers.len();
    // Each fused consumer keeps its members' input indices so results
    // scatter back to input order afterwards.
    let entries = C::fuse(consumers);
    let groups = pool_workers(width.max(1), entries.len());
    if groups == 0 {
        return Vec::new();
    }
    let mut plan: Vec<Vec<Fused<C>>> = (0..groups).map(|_| Vec::new()).collect();
    for (k, entry) in entries.into_iter().enumerate() {
        plan[k % groups].push(entry);
    }
    let finished = par_map(groups, plan, |_, group| {
        let (idxs, mut cs): (Vec<Vec<usize>>, Vec<C>) =
            group.into_iter().map(|f| (f.members, f.consumer)).unzip();
        log.replay_many(&mut cs);
        idxs.into_iter()
            .zip(cs)
            .flat_map(|(idxs, c)| {
                let members = c.unfuse();
                assert_eq!(
                    idxs.len(),
                    members.len(),
                    "a fused consumer unfuses into its members"
                );
                idxs.into_iter().zip(members)
            })
            .map(|(i, consumer)| (i, FanOutReport { consumer }))
            .collect::<Vec<_>>()
    });

    let mut out: Vec<Option<FanOutReport<C>>> = (0..n).map(|_| None).collect();
    for (i, r) in finished.into_iter().flatten() {
        assert!(
            out[i].replace(r).is_none(),
            "panel member {i} returned twice"
        );
    }
    out.into_iter()
        .map(|r| r.expect("every input index is carried by exactly one group"))
        .collect()
}

/// Runs a [`TraceConsumer`] live: a [`Runtime`] that forwards every event
/// to the consumer as it happens and keeps every runtime default, so
/// memory effects are applied directly (like [`crate::DirectRuntime`]).
///
/// `Live<C>` never rolls back and never alters state beyond the direct
/// memory effects the program itself demands, so wrapping a consumer in
/// it is schedule-invisible: the interpreter takes the same interleaving
/// it would with any other pure observer. This is what makes a log
/// recorded by `Live<EventLogBuilder>` byte-equivalent to what a live
/// `Live<SomeDetector>` run observes under the same seed.
///
/// ```
/// use txrace_sim::replay::{Live, TraceConsumer};
/// use txrace_sim::{Machine, ProgramBuilder, RoundRobin, ThreadId};
///
/// #[derive(Default)]
/// struct CountWrites(u64);
/// impl TraceConsumer for CountWrites {
///     fn write(&mut self, _: ThreadId, _: txrace_sim::SiteId, _: txrace_sim::Addr) {
///         self.0 += 1;
///     }
/// }
///
/// let mut b = ProgramBuilder::new(1);
/// let x = b.var("x");
/// b.thread(0).write(x, 1).read(x).write(x, 2);
/// let p = b.build();
/// let mut rt = Live::new(CountWrites::default());
/// Machine::new(&p).run(&mut rt, &mut RoundRobin::new());
/// assert_eq!(rt.consumer().0, 2);
/// ```
#[derive(Debug)]
pub struct Live<C> {
    consumer: C,
}

impl<C: TraceConsumer> Live<C> {
    /// Wraps `consumer` for a live run.
    pub fn new(consumer: C) -> Self {
        Live { consumer }
    }

    /// The wrapped consumer.
    pub fn consumer(&self) -> &C {
        &self.consumer
    }

    /// Unwraps the consumer after the run.
    pub fn into_inner(self) -> C {
        self.consumer
    }
}

impl<C: TraceConsumer> TraceConsumer for Live<C> {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.consumer.read(t, site, addr);
    }
    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.consumer.write(t, site, addr);
    }
    fn rmw(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.consumer.rmw(t, site, addr);
    }
    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.consumer.acquire(t, site, l);
    }
    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.consumer.release(t, site, l);
    }
    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.consumer.signal(t, site, c);
    }
    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.consumer.wait(t, site, c);
    }
    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.consumer.spawn(t, site, child);
    }
    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.consumer.join(t, site, child);
    }
    fn barrier_arrive(&mut self, t: ThreadId, site: SiteId, b: BarrierId) {
        self.consumer.barrier_arrive(t, site, b);
    }
    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.consumer.barrier_release(b, arrivals);
    }
    fn compute(&mut self, t: ThreadId, site: SiteId, units: u32) {
        self.consumer.compute(t, site, units);
    }
    fn syscall(&mut self, t: ThreadId, site: SiteId, kind: SyscallKind) {
        self.consumer.syscall(t, site, kind);
    }
    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.consumer.chan_send(t, site, ch);
    }
    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.consumer.chan_recv(t, site, ch);
    }
    fn thread_done(&mut self, t: ThreadId) {
        self.consumer.thread_done(t);
    }
}

impl<C: TraceConsumer> Runtime for Live<C> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use crate::sched::RoundRobin;
    use crate::{Machine, RunStatus};

    /// Records the method-call sequence as strings, for order assertions.
    #[derive(Default)]
    struct Script(Vec<String>);

    impl TraceConsumer for Script {
        fn read(&mut self, t: ThreadId, _s: SiteId, a: Addr) {
            self.0.push(format!("r {t} {a}"));
        }
        fn write(&mut self, t: ThreadId, _s: SiteId, a: Addr) {
            self.0.push(format!("w {t} {a}"));
        }
        fn rmw(&mut self, t: ThreadId, _s: SiteId, a: Addr) {
            self.0.push(format!("rmw {t} {a}"));
        }
        fn acquire(&mut self, t: ThreadId, _s: SiteId, l: LockId) {
            self.0.push(format!("acq {t} {l}"));
        }
        fn release(&mut self, t: ThreadId, _s: SiteId, l: LockId) {
            self.0.push(format!("rel {t} {l}"));
        }
        fn barrier_arrive(&mut self, t: ThreadId, _s: SiteId, b: BarrierId) {
            self.0.push(format!("arr {t} {b}"));
        }
        fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
            self.0.push(format!("relbar {b} x{}", arrivals.len()));
        }
        fn chan_send(&mut self, t: ThreadId, _s: SiteId, ch: ChanId) {
            self.0.push(format!("send {t} {ch}"));
        }
        fn chan_recv(&mut self, t: ThreadId, _s: SiteId, ch: ChanId) {
            self.0.push(format!("recv {t} {ch}"));
        }
        fn thread_done(&mut self, t: ThreadId) {
            self.0.push(format!("done {t}"));
        }
    }

    #[test]
    fn live_adapter_reports_events_in_execution_order() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        for t in 0..2 {
            b.thread(t).lock(l).rmw(x, 1).unlock(l).barrier(bar);
        }
        let p = b.build();
        let mut rt = Live::new(Script::default());
        let mut m = Machine::new(&p);
        let r = m.run(&mut rt, &mut RoundRobin::new());
        assert_eq!(r.status, RunStatus::Done);
        let script = rt.into_inner().0;
        // t0 runs its whole critical section while t1 blocks on the lock
        // (blocked attempts produce no events), then both arrive at the
        // barrier and one release fires.
        let arr: Vec<_> = script.iter().filter(|s| s.starts_with("arr")).collect();
        assert_eq!(arr.len(), 2);
        assert_eq!(script.iter().filter(|s| s.starts_with("relbar")).count(), 1);
        assert_eq!(script.iter().filter(|s| s.starts_with("acq")).count(), 2);
        assert_eq!(script.iter().filter(|s| s.starts_with("done")).count(), 2);
        // The release event follows both arrivals.
        let rel_pos = script.iter().position(|s| s.starts_with("relbar")).unwrap();
        let last_arr = script.iter().rposition(|s| s.starts_with("arr")).unwrap();
        assert!(rel_pos > last_arr);
    }

    #[test]
    fn fan_out_matches_serial_replay_for_every_width() {
        use crate::exec::StepLimit;
        use crate::trace::record_run;

        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        for t in 0..3 {
            b.thread(t).lock(l).rmw(x, 1).unlock(l).barrier(bar).read(x);
        }
        let p = b.build();
        let mut sched = crate::sched::RandomSched::new(11);
        let log = record_run(&p, &mut sched, StepLimit::default());

        let serial: Vec<Vec<String>> = (0..4)
            .map(|_| {
                let mut c = Script::default();
                log.replay(&mut c);
                c.0
            })
            .collect();
        for width in [1, 2, 4, 8] {
            let consumers: Vec<Script> = (0..4).map(|_| Script::default()).collect();
            let reports = fan_out(&log, consumers, width);
            assert_eq!(reports.len(), 4);
            for (r, want) in reports.iter().zip(&serial) {
                assert_eq!(&r.consumer.0, want, "width={width}");
            }
        }
    }

    #[test]
    fn replay_many_matches_replay_per_consumer() {
        use crate::exec::StepLimit;
        use crate::trace::record_run;

        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        for t in 0..3 {
            b.thread(t)
                .write(x, t as u64)
                .lock(l)
                .rmw(x, 1)
                .unlock(l)
                .barrier(bar)
                .read(x);
        }
        let p = b.build();
        let mut sched = crate::sched::RandomSched::new(5);
        let log = record_run(&p, &mut sched, StepLimit::default());

        let mut want = Script::default();
        log.replay(&mut want);
        let mut many: Vec<Script> = (0..3).map(|_| Script::default()).collect();
        log.replay_many(&mut many);
        for m in &many {
            assert_eq!(m.0, want.0, "broadcast must equal per-consumer replay");
        }
    }

    #[test]
    fn fan_out_of_nothing_is_empty() {
        use crate::exec::StepLimit;
        use crate::trace::record_run;

        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write(x, 1);
        let p = b.build();
        let log = record_run(&p, &mut RoundRobin::new(), StepLimit::default());
        let none: Vec<Script> = vec![];
        assert!(fan_out(&log, none, 4).is_empty());
    }

    /// A 3-thread log with locks, a barrier, channels, and enough
    /// distinct addresses that a partition spreads across shards.
    fn sharding_fixture() -> EventLog {
        use crate::exec::StepLimit;
        use crate::trace::record_run;

        let mut b = ProgramBuilder::new(3);
        let vars: Vec<_> = (0..6).map(|i| b.var(&format!("v{i}"))).collect();
        let l = b.lock_id("l");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", 3);
        for t in 0..3 {
            let mut tb = b.thread(t);
            for &v in &vars {
                tb.write(v, t as u64 + 1);
            }
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
        let mut sched = crate::sched::RandomSched::new(23);
        record_run(&p, &mut sched, StepLimit::default())
    }

    /// Forwards to a [`Script`] exactly what one shard acts on: its
    /// routed reads and writes plus every sync event.
    struct ShardView {
        script: Script,
        owns: Box<dyn Fn(Addr) -> bool>,
    }

    impl TraceConsumer for ShardView {
        fn read(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            if (self.owns)(a) {
                self.script.read(t, s, a);
            }
        }
        fn write(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            if (self.owns)(a) {
                self.script.write(t, s, a);
            }
        }
        fn acquire(&mut self, t: ThreadId, s: SiteId, l: LockId) {
            self.script.acquire(t, s, l);
        }
        fn release(&mut self, t: ThreadId, s: SiteId, l: LockId) {
            self.script.release(t, s, l);
        }
        fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
            self.script.barrier_release(b, arrivals);
        }
        fn chan_send(&mut self, t: ThreadId, s: SiteId, ch: ChanId) {
            self.script.chan_send(t, s, ch);
        }
        fn chan_recv(&mut self, t: ThreadId, s: SiteId, ch: ChanId) {
            self.script.chan_recv(t, s, ch);
        }
    }

    #[test]
    fn shard_merge_replays_slice_and_sync_in_log_order() {
        use crate::trace::{AccessPartition, SyncIndex};

        let log = sharding_fixture();
        let sync = SyncIndex::of(&log);
        let route = |a: Addr, n: usize| a.word() % n;
        for shards in [1usize, 2, 4] {
            let part = AccessPartition::of(&log, shards, route);
            for shard in 0..shards {
                let mut got = Script::default();
                sync.replay_merged(part.slice(shard), &mut got);
                // Expected: the log's own order, restricted to this
                // shard's accesses plus all sync events.
                let owns = Box::new(move |a: Addr| route(a, shards) == shard);
                let mut want = ShardView {
                    script: Script::default(),
                    owns,
                };
                log.replay(&mut want);
                assert!(got.0.iter().any(|s| s.starts_with("send")));
                assert_eq!(got.0, want.script.0, "shards={shards} shard={shard}");
            }
        }
    }

    #[test]
    fn par_map_keeps_input_order_under_contention() {
        let out = par_map(16, 0..200usize, |i, x| {
            // Vary per-job latency so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros((x % 7) as u64));
            i * 2
        });
        assert_eq!(out, (0..200).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn live_adapter_applies_direct_memory_effects() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write(x, 7).rmw(x, 3);
        let p = b.build();
        let mut rt = Live::new(Script::default());
        let mut m = Machine::new(&p);
        m.run(&mut rt, &mut RoundRobin::new());
        assert_eq!(m.memory().load(x), 10);
    }
}
