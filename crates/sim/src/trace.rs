//! Execution tracing: the replayable [`EventLog`] that the record/replay
//! pipeline is built on, plus the older [`Recording`] adapter that wraps
//! an inner runtime for debugging and test assertions.
//!
//! An [`EventLog`] is recorded in one interpreter pass (see
//! [`record_run`]) and can then be replayed into any number of
//! [`TraceConsumer`]s — each replay observes the *identical* method-call
//! sequence a live pure observer would have seen under the same seed, so
//! detection results are bit-identical between the two paths. Logs are
//! compact: one 24-byte [`TraceEvent`] per schedule-visible event, all
//! identities dense `u32` ids, barrier arrival lists stored once in a
//! side table.

use crate::addr::Addr;
use crate::exec::{Directive, OpEvent, RunResult, RunStatus, Runtime, StepLimit};
use crate::ids::{BarrierId, ChanId, CondId, LockId, SiteId, ThreadId};
use crate::ir::{Op, Program, SyscallKind};
use crate::mem::Memory;
use crate::replay::{Live, TraceConsumer};
use crate::sched::Scheduler;

/// One recorded execution event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A shared-memory access the runtime observed. Note: transactional
    /// runtimes may later roll an access back; the event is still
    /// recorded (it reflects what the runtime saw, not the final
    /// architectural history).
    Access {
        /// Global step at which it executed.
        step: u64,
        /// Executing thread.
        thread: ThreadId,
        /// Static site.
        site: SiteId,
        /// Resolved address.
        addr: Addr,
        /// True for writes and RMWs.
        is_write: bool,
    },
    /// A synchronization operation that architecturally completed.
    Sync {
        /// Global step.
        step: u64,
        /// Executing thread.
        thread: ThreadId,
        /// Static site.
        site: SiteId,
        /// The operation.
        op: Op,
    },
    /// A barrier released with the given participant count.
    BarrierRelease {
        /// The barrier.
        barrier: BarrierId,
        /// How many threads it released.
        participants: usize,
    },
    /// A thread finished.
    ThreadDone {
        /// The thread.
        thread: ThreadId,
    },
}

impl Event {
    /// The step of this event, if it carries one.
    pub fn step(&self) -> Option<u64> {
        match self {
            Event::Access { step, .. } | Event::Sync { step, .. } => Some(*step),
            _ => None,
        }
    }
}

/// Classifies one [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// Shared read; `arg` is the resolved address.
    Read,
    /// Shared write; `arg` is the resolved address.
    Write,
    /// Atomic read-modify-write; `arg` is the resolved address.
    Rmw,
    /// Mutex acquired; `arg` is the lock id.
    Acquire,
    /// Mutex released; `arg` is the lock id.
    Release,
    /// Semaphore posted; `arg` is the condition id.
    Signal,
    /// Wait satisfied; `arg` is the condition id.
    Wait,
    /// Thread spawned; `arg` is the child thread id.
    Spawn,
    /// Join satisfied; `arg` is the child thread id.
    Join,
    /// Barrier arrival; `arg` is the barrier id.
    BarrierArrive,
    /// Barrier release; `arg` indexes the log's arrival side table.
    BarrierRelease,
    /// Thread finished; `thread` is the finishing thread.
    ThreadDone,
    /// Thread-local computation; `arg` is the unit count.
    Compute,
    /// System call; `arg` encodes the [`SyscallKind`].
    Syscall,
    /// Channel send completed; `arg` is the channel id.
    ChanSend,
    /// Channel receive completed; `arg` is the channel id.
    ChanRecv,
}

/// One schedule-visible event in an [`EventLog`]: a compact (24-byte)
/// dense-id record whose `arg` field is interpreted per
/// [`TraceEventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// Executing thread (unused for [`TraceEventKind::BarrierRelease`]).
    pub thread: ThreadId,
    /// Static site (unused for [`TraceEventKind::BarrierRelease`] and
    /// [`TraceEventKind::ThreadDone`]).
    pub site: SiteId,
    /// Kind-specific payload — see [`TraceEventKind`].
    pub arg: u64,
}

const SYSCALL_CODES: [SyscallKind; 4] = [
    SyscallKind::Io,
    SyscallKind::Alloc,
    SyscallKind::Free,
    SyscallKind::Other,
];

fn syscall_code(k: SyscallKind) -> u64 {
    SYSCALL_CODES
        .iter()
        .position(|&s| s == k)
        .expect("every SyscallKind has a code") as u64
}

/// Loop-weighted static operation counts of a program, by base-cost
/// class. Because architectural costs are uniform within each class, a
/// census is all a cost model needs to compute a program's baseline
/// cycles — which is how a replay prices a run without the [`Program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// Dynamic shared-memory accesses (reads, writes, RMWs, indexed).
    pub mem_accesses: u64,
    /// Total `Compute` units (already multiplied out).
    pub compute_units: u64,
    /// Dynamic synchronization operations (incl. barrier arrivals).
    pub sync_ops: u64,
    /// Dynamic system calls.
    pub syscalls: u64,
}

impl OpCensus {
    /// Counts `p`'s dynamic operations by class (instrumentation markers
    /// are not counted; they have no architectural cost).
    pub fn of(p: &Program) -> Self {
        OpCensus {
            mem_accesses: p.fold_dynamic(|op| u64::from(op.is_data_access())),
            compute_units: p.fold_dynamic(|op| match op {
                Op::Compute(n) => u64::from(*n),
                _ => 0,
            }),
            sync_ops: p.fold_dynamic(|op| u64::from(op.is_sync())),
            syscalls: p.fold_dynamic(|op| u64::from(matches!(op, Op::Syscall(_)))),
        }
    }
}

/// The barrier side table of a trace: every release's arrival list,
/// stored once and addressed by the `arg` of its
/// [`TraceEventKind::BarrierRelease`] event. [`EventLogBuilder`] fills it,
/// and [`EventLog`] and [`SyncIndex`] replay through it.
#[derive(Debug, Clone, Default)]
pub struct BarrierTable {
    arrivals: Vec<(ThreadId, SiteId)>,
    /// `(barrier, start, len)` ranges into `arrivals`, in release order.
    releases: Vec<(BarrierId, u32, u32)>,
}

impl BarrierTable {
    /// Appends one release and returns the `arg` its event carries.
    fn push(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) -> u64 {
        let start = self.arrivals.len() as u32;
        self.arrivals.extend_from_slice(arrivals);
        self.releases.push((b, start, arrivals.len() as u32));
        self.releases.len() as u64 - 1
    }

    /// The barrier and arrival list (in arrival order) of a
    /// [`TraceEventKind::BarrierRelease`] event; pass the event's `arg`.
    pub fn release_arrivals(&self, release_idx: u64) -> (BarrierId, &[(ThreadId, SiteId)]) {
        let (b, start, len) = self.releases[release_idx as usize];
        (b, &self.arrivals[start as usize..(start + len) as usize])
    }

    /// Rejects a decoded table that [`release_arrivals`] would index out
    /// of bounds: a release event naming no release (`max_release` is the
    /// largest `arg` of any), or a release range that overflows or runs
    /// past the arrivals.
    ///
    /// [`release_arrivals`]: BarrierTable::release_arrivals
    fn check(&self, max_release: Option<u64>) -> Result<(), String> {
        if let Some(r) = max_release.filter(|&r| r >= self.releases.len() as u64) {
            return Err(format!("barrier release {r} out of range"));
        }
        for &(b, start, len) in &self.releases {
            match start.checked_add(len) {
                Some(end) if end as usize <= self.arrivals.len() => {}
                _ => return Err(format!("barrier {} arrivals out of range", b.0)),
            }
        }
        Ok(())
    }
}

/// A [`TraceConsumer`] that accumulates the event stream of one run;
/// [`record_run`] wraps it in [`Live`] and assembles the [`EventLog`].
#[derive(Debug, Default)]
pub struct EventLogBuilder {
    events: Vec<TraceEvent>,
    barriers: BarrierTable,
}

impl EventLogBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: TraceEventKind, thread: ThreadId, site: SiteId, arg: u64) {
        self.events.push(TraceEvent {
            kind,
            thread,
            site,
            arg,
        });
    }
}

impl TraceConsumer for EventLogBuilder {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.push(TraceEventKind::Read, t, site, addr.0);
    }

    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.push(TraceEventKind::Write, t, site, addr.0);
    }

    fn rmw(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.push(TraceEventKind::Rmw, t, site, addr.0);
    }

    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.push(TraceEventKind::Acquire, t, site, u64::from(l.0));
    }

    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.push(TraceEventKind::Release, t, site, u64::from(l.0));
    }

    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.push(TraceEventKind::Signal, t, site, u64::from(c.0));
    }

    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.push(TraceEventKind::Wait, t, site, u64::from(c.0));
    }

    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.push(TraceEventKind::Spawn, t, site, u64::from(child.0));
    }

    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.push(TraceEventKind::Join, t, site, u64::from(child.0));
    }

    fn barrier_arrive(&mut self, t: ThreadId, site: SiteId, b: BarrierId) {
        self.push(TraceEventKind::BarrierArrive, t, site, u64::from(b.0));
    }

    fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        let idx = self.barriers.push(b, arrivals);
        self.push(
            TraceEventKind::BarrierRelease,
            ThreadId::default(),
            SiteId::default(),
            idx,
        );
    }

    fn compute(&mut self, t: ThreadId, site: SiteId, units: u32) {
        self.push(TraceEventKind::Compute, t, site, u64::from(units));
    }

    fn syscall(&mut self, t: ThreadId, site: SiteId, kind: SyscallKind) {
        self.push(TraceEventKind::Syscall, t, site, syscall_code(kind));
    }

    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.push(TraceEventKind::ChanSend, t, site, u64::from(ch.0));
    }

    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.push(TraceEventKind::ChanRecv, t, site, u64::from(ch.0));
    }

    fn thread_done(&mut self, t: ThreadId) {
        self.push(TraceEventKind::ThreadDone, t, SiteId::default(), 0);
    }
}

/// One recorded execution, replayable into any number of
/// [`TraceConsumer`]s. Carries everything a replayed analysis needs that
/// a live run would otherwise pull from the machine or the program: the
/// final memory state, the interpreter result, and a static [`OpCensus`]
/// for cost accounting.
#[derive(Debug, Clone)]
pub struct EventLog {
    threads: usize,
    events: Vec<TraceEvent>,
    barriers: BarrierTable,
    census: OpCensus,
    result: RunResult,
    memory: Memory,
}

impl EventLog {
    /// Number of threads in the recorded program.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded program's static operation census.
    pub fn census(&self) -> OpCensus {
        self.census
    }

    /// The interpreter result of the recorded run.
    pub fn result(&self) -> &RunResult {
        &self.result
    }

    /// Final shared-memory state of the recorded run.
    pub fn final_memory(&self) -> &Memory {
        &self.memory
    }

    /// The barrier side table the log's release events index into.
    pub fn barriers(&self) -> &BarrierTable {
        &self.barriers
    }

    /// Serializes the log to a stable, self-describing byte format
    /// (little-endian, magic + version header) for the on-disk trace
    /// cache. [`from_bytes`](EventLog::from_bytes) round-trips exactly:
    /// replaying a deserialized log drives a consumer through the
    /// identical call sequence.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events.len() * 17 + self.memory.len() * 16);
        put_u64(&mut out, LOG_MAGIC);
        put_u64(&mut out, LOG_VERSION);
        put_u64(&mut out, self.threads as u64);
        put_u64(&mut out, self.census.mem_accesses);
        put_u64(&mut out, self.census.compute_units);
        put_u64(&mut out, self.census.sync_ops);
        put_u64(&mut out, self.census.syscalls);
        put_u64(&mut out, self.result.steps);
        match &self.result.status {
            RunStatus::Done => put_u64(&mut out, 0),
            RunStatus::Deadlock => put_u64(&mut out, 1),
            RunStatus::StepLimit => put_u64(&mut out, 2),
            RunStatus::Fault(msg) => {
                put_u64(&mut out, 3);
                put_u64(&mut out, msg.len() as u64);
                out.extend_from_slice(msg.as_bytes());
            }
        }
        put_u64(&mut out, self.events.len() as u64);
        for e in &self.events {
            out.push(e.kind as u8);
            out.extend_from_slice(&e.thread.0.to_le_bytes());
            out.extend_from_slice(&e.site.0.to_le_bytes());
            put_u64(&mut out, e.arg);
        }
        put_u64(&mut out, self.barriers.arrivals.len() as u64);
        for &(t, s) in &self.barriers.arrivals {
            out.extend_from_slice(&t.0.to_le_bytes());
            out.extend_from_slice(&s.0.to_le_bytes());
        }
        put_u64(&mut out, self.barriers.releases.len() as u64);
        for &(b, start, len) in &self.barriers.releases {
            out.extend_from_slice(&b.0.to_le_bytes());
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        put_u64(&mut out, self.memory.len() as u64);
        for (a, v) in self.memory.iter() {
            put_u64(&mut out, a.0);
            put_u64(&mut out, v);
        }
        out
    }

    /// Deserializes a log written by [`to_bytes`](EventLog::to_bytes).
    ///
    /// # Errors
    ///
    /// A description of the corruption (bad magic, unknown version,
    /// truncation, invalid event kind or syscall code, a barrier release
    /// that indexes past the side table). Every log this accepts replays
    /// without panicking. Cache readers treat any error as a miss and
    /// re-record.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, String> {
        let mut c = Cursor { b: bytes, pos: 0 };
        if c.u64()? != LOG_MAGIC {
            return Err("bad magic".into());
        }
        let version = c.u64()?;
        if version != LOG_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let threads = c.u64()? as usize;
        let census = OpCensus {
            mem_accesses: c.u64()?,
            compute_units: c.u64()?,
            sync_ops: c.u64()?,
            syscalls: c.u64()?,
        };
        let steps = c.u64()?;
        let status = match c.u64()? {
            0 => RunStatus::Done,
            1 => RunStatus::Deadlock,
            2 => RunStatus::StepLimit,
            3 => {
                let len = c.u64()? as usize;
                let raw = c.take(len)?;
                RunStatus::Fault(String::from_utf8(raw.to_vec()).map_err(|_| "bad fault string")?)
            }
            s => return Err(format!("unknown run status {s}")),
        };
        let n_events = c.u64()? as usize;
        let mut events = Vec::with_capacity(n_events.min(bytes.len() / 17));
        let mut max_release = None;
        for _ in 0..n_events {
            let code = c.u8()?;
            let kind = kind_from_code(code).ok_or_else(|| format!("bad event kind {code}"))?;
            let e = TraceEvent {
                kind,
                thread: ThreadId(c.u32()?),
                site: SiteId(c.u32()?),
                arg: c.u64()?,
            };
            match kind {
                TraceEventKind::Syscall if e.arg >= SYSCALL_CODES.len() as u64 => {
                    return Err(format!("bad syscall code {}", e.arg));
                }
                TraceEventKind::BarrierRelease => max_release = max_release.max(Some(e.arg)),
                _ => {}
            }
            events.push(e);
        }
        let n_arrivals = c.u64()? as usize;
        let mut arrivals = Vec::with_capacity(n_arrivals.min(bytes.len() / 8));
        for _ in 0..n_arrivals {
            arrivals.push((ThreadId(c.u32()?), SiteId(c.u32()?)));
        }
        let n_releases = c.u64()? as usize;
        let mut releases = Vec::with_capacity(n_releases.min(bytes.len() / 12));
        for _ in 0..n_releases {
            releases.push((BarrierId(c.u32()?), c.u32()?, c.u32()?));
        }
        let barriers = BarrierTable { arrivals, releases };
        barriers.check(max_release)?;
        let n_cells = c.u64()? as usize;
        let mut memory = Memory::new();
        for _ in 0..n_cells {
            let a = Addr(c.u64()?);
            let v = c.u64()?;
            memory.store(a, v);
        }
        if c.pos != bytes.len() {
            return Err("trailing bytes".into());
        }
        Ok(EventLog {
            threads,
            events,
            barriers,
            census,
            result: RunResult { status, steps },
            memory,
        })
    }

    /// Drives `consumer` through the recorded event stream. The call
    /// sequence is identical to what the consumer would have observed
    /// live inside [`Live`] during the recorded run.
    pub fn replay<C: TraceConsumer>(&self, consumer: &mut C) {
        self.replay_many(std::slice::from_mut(consumer));
    }

    /// Replays the log into *every* consumer in one pass over the event
    /// stream: each event is decoded once and dispatched to all
    /// consumers in slice order — the broadcast primitive under
    /// [`crate::replay::fan_out`].
    ///
    /// Byte-identical to calling [`EventLog::replay`] on each consumer
    /// separately (consumers are independent; each still observes the
    /// full call sequence in execution order), but the event stream is
    /// walked and decoded once instead of once per consumer — on a
    /// multi-megabyte log that is the difference between streaming the
    /// log through the cache N times and once.
    pub fn replay_many<C: TraceConsumer>(&self, consumers: &mut [C]) {
        for e in &self.events {
            deliver(e, &self.barriers, consumers);
        }
    }
}

/// Delivers one event to every consumer in `consumers`, decoding it once:
/// the one event dispatch under [`EventLog::replay`],
/// [`EventLog::replay_many`] and [`SyncIndex::replay_merged`]. The `match`
/// sits outside the per-consumer loop, and forced inlining lets a
/// one-consumer caller drop the loop entirely.
#[inline(always)]
fn deliver<C: TraceConsumer>(e: &TraceEvent, barriers: &BarrierTable, consumers: &mut [C]) {
    macro_rules! each {
        (|$c:ident| $call:expr) => {
            for $c in consumers.iter_mut() {
                $call;
            }
        };
    }
    let (t, site) = (e.thread, e.site);
    match e.kind {
        TraceEventKind::Read => each!(|c| c.read(t, site, Addr(e.arg))),
        TraceEventKind::Write => each!(|c| c.write(t, site, Addr(e.arg))),
        TraceEventKind::Rmw => each!(|c| c.rmw(t, site, Addr(e.arg))),
        TraceEventKind::Acquire => each!(|c| c.acquire(t, site, LockId(e.arg as u32))),
        TraceEventKind::Release => each!(|c| c.release(t, site, LockId(e.arg as u32))),
        TraceEventKind::Signal => each!(|c| c.signal(t, site, CondId(e.arg as u32))),
        TraceEventKind::Wait => each!(|c| c.wait(t, site, CondId(e.arg as u32))),
        TraceEventKind::Spawn => each!(|c| c.spawn(t, site, ThreadId(e.arg as u32))),
        TraceEventKind::Join => each!(|c| c.join(t, site, ThreadId(e.arg as u32))),
        TraceEventKind::BarrierArrive => {
            each!(|c| c.barrier_arrive(t, site, BarrierId(e.arg as u32)))
        }
        TraceEventKind::BarrierRelease => {
            let (b, arrivals) = barriers.release_arrivals(e.arg);
            each!(|c| c.barrier_release(b, arrivals))
        }
        TraceEventKind::ThreadDone => each!(|c| c.thread_done(t)),
        TraceEventKind::Compute => each!(|c| c.compute(t, site, e.arg as u32)),
        TraceEventKind::Syscall => {
            let kind = SYSCALL_CODES[e.arg as usize];
            each!(|c| c.syscall(t, site, kind))
        }
        TraceEventKind::ChanSend => each!(|c| c.chan_send(t, site, ChanId(e.arg as u32))),
        TraceEventKind::ChanRecv => each!(|c| c.chan_recv(t, site, ChanId(e.arg as u32))),
    }
}

/// True for the event kinds the indexed sharding path treats as
/// synchronization: the kinds that mutate a happens-before (or lockset)
/// detector's cross-variable state and therefore must reach *every*
/// shard. Barrier arrivals are excluded deliberately — detectors act on
/// the release (which carries the full arrival list), never on the
/// arrival itself — as are atomics (never checked under the C11 model)
/// and the pure bookkeeping kinds (compute, syscall, thread-done).
fn is_sync_kind(kind: TraceEventKind) -> bool {
    matches!(
        kind,
        TraceEventKind::Acquire
            | TraceEventKind::Release
            | TraceEventKind::Signal
            | TraceEventKind::Wait
            | TraceEventKind::Spawn
            | TraceEventKind::Join
            | TraceEventKind::BarrierRelease
            | TraceEventKind::ChanSend
            | TraceEventKind::ChanRecv
    )
}

/// The sync side-stream of one [`EventLog`]: every synchronization /
/// channel event paired with its global event index, plus a copy of the
/// barrier side table so the stream replays without the log in hand.
///
/// A `SyncIndex` is **derived at decode time** ([`SyncIndex::of`]) and
/// never serialized: the wire format stays the flat v2 event stream, and
/// a corrupted or adversarial index can never disagree with the log it
/// was built from. Shards consume this shared stream plus their own
/// [`AccessPartition`] slice through a two-cursor merge
/// ([`SyncIndex::replay_merged`]), so per-shard work is
/// O(accesses/shards + sync) instead of O(all events).
#[derive(Debug, Clone)]
pub struct SyncIndex {
    /// `(global event index, event)` in log order.
    events: Vec<(u64, TraceEvent)>,
    barriers: BarrierTable,
    total_events: u64,
}

impl SyncIndex {
    /// Builds the sync side-stream of `log` in one pass.
    pub fn of(log: &EventLog) -> SyncIndex {
        let events: Vec<(u64, TraceEvent)> = log
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| is_sync_kind(e.kind))
            .map(|(i, e)| (i as u64, *e))
            .collect();
        SyncIndex {
            events,
            barriers: log.barriers.clone(),
            total_events: log.len() as u64,
        }
    }

    /// The indexed sync events, in log order.
    pub fn events(&self) -> &[(u64, TraceEvent)] {
        &self.events
    }

    /// Number of sync events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the log had no sync events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Length of the log this index was derived from (all kinds).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// The barrier side table, a copy of the source log's.
    pub fn barriers(&self) -> &BarrierTable {
        &self.barriers
    }

    /// Drives `consumer` through one shard's view of the log: `accesses`
    /// (an [`AccessPartition`] slice) merged with this sync stream in
    /// global event-index order.
    ///
    /// Both streams are index-sorted by construction and an event is
    /// either an access or a sync event (indices are disjoint), so a
    /// strict `<` fully determines the merge. The delivered sequence is
    /// exactly the subsequence of the source log this shard acts on under
    /// a full [`EventLog::replay`], in the same order, which is why
    /// detectors fed this way produce byte-identical results while
    /// touching O(slice + sync) events instead of O(log).
    pub fn replay_merged<C: TraceConsumer>(
        &self,
        accesses: &[(u64, TraceEvent)],
        consumer: &mut C,
    ) {
        let c = std::slice::from_mut(consumer);
        let syncs = &self.events[..];
        let (mut ai, mut si) = (0, 0);
        while ai < accesses.len() && si < syncs.len() {
            let e = if accesses[ai].0 < syncs[si].0 {
                ai += 1;
                &accesses[ai - 1].1
            } else {
                si += 1;
                &syncs[si - 1].1
            };
            deliver(e, &self.barriers, c);
        }
        for (_, e) in accesses[ai..].iter().chain(&syncs[si..]) {
            deliver(e, &self.barriers, c);
        }
    }
}

/// The data accesses of one [`EventLog`], split into per-shard slices of
/// `(global event index, event)` in a single pass
/// ([`AccessPartition::of`]), the same entry type as
/// [`SyncIndex::events`].
///
/// Only plain reads and writes are partitioned: atomics never reach a
/// checking detector (C11), so routing them would cost slice space for
/// events every consumer ignores. Each access appears in exactly one
/// slice (the partition property tests pin this), and slices are sorted
/// by index by construction because the partitioner walks the log once
/// in order.
#[derive(Debug, Clone)]
pub struct AccessPartition {
    slices: Vec<Vec<(u64, TraceEvent)>>,
}

impl AccessPartition {
    /// Partitions `log`'s reads and writes into `shards` slices routed
    /// by `route(addr, shards)`. The route function is a parameter (not
    /// baked in) because the shard-owner hash lives with the sharded
    /// detectors, a layer above this crate.
    pub fn of(log: &EventLog, shards: usize, route: impl Fn(Addr, usize) -> usize) -> Self {
        let shards = shards.max(1);
        let mut slices: Vec<Vec<(u64, TraceEvent)>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, e) in log.events.iter().enumerate() {
            if matches!(e.kind, TraceEventKind::Read | TraceEventKind::Write) {
                slices[route(Addr(e.arg), shards)].push((i as u64, *e));
            }
        }
        AccessPartition { slices }
    }

    /// Number of shards (slices).
    pub fn shards(&self) -> usize {
        self.slices.len()
    }

    /// Every shard's slice, in shard order.
    pub fn slices(&self) -> &[Vec<(u64, TraceEvent)>] {
        &self.slices
    }

    /// Shard `shard`'s accesses, sorted by global event index.
    pub fn slice(&self, shard: usize) -> &[(u64, TraceEvent)] {
        &self.slices[shard]
    }

    /// Total partitioned accesses across all slices.
    pub fn total_accesses(&self) -> u64 {
        self.slices.iter().map(|s| s.len() as u64).sum()
    }
}

/// Records one execution of `p` under `sched` into an [`EventLog`]: the
/// single interpreter pass of the record-once/replay-many pipeline.
///
/// The run is a plain uninstrumented execution (direct memory effects,
/// no detection) observed by an [`EventLogBuilder`]; because observers
/// are schedule-invisible, any pure-observer detector replayed from the
/// returned log produces exactly what it would have produced live under
/// the same scheduler state.
pub fn record_run(p: &Program, sched: &mut dyn Scheduler, limit: StepLimit) -> EventLog {
    let mut rt = Live::new(EventLogBuilder::new());
    let mut machine = crate::exec::Machine::new(p);
    let result = machine.run_with_limit(&mut rt, sched, limit);
    let b = rt.into_inner();
    EventLog {
        threads: p.thread_count(),
        events: b.events,
        barriers: b.barriers,
        census: OpCensus::of(p),
        result,
        memory: machine.memory().clone(),
    }
}

/// Wraps an inner [`Runtime`] and records every event it observes.
///
/// ```
/// use txrace_sim::{trace::Recording, DirectRuntime, Machine, ProgramBuilder, RoundRobin};
///
/// let mut b = ProgramBuilder::new(1);
/// let x = b.var("x");
/// b.thread(0).write(x, 1).read(x);
/// let p = b.build();
///
/// let mut rt = Recording::new(DirectRuntime::default());
/// let mut m = Machine::new(&p);
/// m.run(&mut rt, &mut RoundRobin::new());
/// assert_eq!(rt.events().len(), 3); // write, read, thread-done
/// ```
#[derive(Debug)]
pub struct Recording<R> {
    inner: R,
    events: Vec<Event>,
    limit: usize,
}

impl<R: Runtime> Recording<R> {
    /// Records every event (up to a large default cap).
    pub fn new(inner: R) -> Self {
        Recording {
            inner,
            events: Vec::new(),
            limit: 1 << 22,
        }
    }

    /// Caps the number of recorded events (older events are kept; new ones
    /// beyond the cap are dropped).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The wrapped runtime.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Consumes the recorder, returning the inner runtime and the events.
    pub fn into_parts(self) -> (R, Vec<Event>) {
        (self.inner, self.events)
    }

    /// Steps at which `site` executed an access.
    pub fn access_steps(&self, site: SiteId) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Access { step, site: s, .. } if *s == site => Some(*step),
                _ => None,
            })
            .collect()
    }

    fn push(&mut self, e: Event) {
        if self.events.len() < self.limit {
            self.events.push(e);
        }
    }
}

impl<R: Runtime> Runtime for Recording<R> {
    fn before_op(&mut self, mem: &mut Memory, ev: &OpEvent<'_>) -> Directive {
        self.inner.before_op(mem, ev)
    }

    fn read(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr) -> u64 {
        self.push(Event::Access {
            step: ev.step,
            thread: ev.thread,
            site: ev.site,
            addr,
            is_write: false,
        });
        self.inner.read(mem, ev, addr)
    }

    fn write(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, val: u64) {
        self.push(Event::Access {
            step: ev.step,
            thread: ev.thread,
            site: ev.site,
            addr,
            is_write: true,
        });
        self.inner.write(mem, ev, addr, val);
    }

    fn rmw(&mut self, mem: &mut Memory, ev: &OpEvent<'_>, addr: Addr, delta: u64) -> u64 {
        self.push(Event::Access {
            step: ev.step,
            thread: ev.thread,
            site: ev.site,
            addr,
            is_write: true,
        });
        self.inner.rmw(mem, ev, addr, delta)
    }

    fn after_sync(&mut self, mem: &mut Memory, ev: &OpEvent<'_>) {
        self.push(Event::Sync {
            step: ev.step,
            thread: ev.thread,
            site: ev.site,
            op: ev.op,
        });
        self.inner.after_sync(mem, ev);
    }

    fn after_barrier(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
        self.push(Event::BarrierRelease {
            barrier: b,
            participants: arrivals.len(),
        });
        self.inner.after_barrier(b, arrivals);
    }

    fn on_thread_done(&mut self, t: ThreadId) {
        self.push(Event::ThreadDone { thread: t });
        self.inner.on_thread_done(t);
    }
}

/// `b"TXLOG\0\0\x01"` as a little-endian u64: identifies a serialized
/// [`EventLog`].
const LOG_MAGIC: u64 = u64::from_le_bytes(*b"TXLOG\0\0\x01");
/// Bump on any layout change; readers reject other versions. Version 2
/// added the channel event kinds ([`TraceEventKind::ChanSend`]/
/// [`TraceEventKind::ChanRecv`]) — version-1 logs from pre-channel
/// builds are rejected rather than mis-decoded.
pub const LOG_VERSION: u64 = 2;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a serialized log.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or("truncated log")?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Inverse of `kind as u8` over [`TraceEventKind`]'s `#[repr(u8)]`
/// declaration order.
fn kind_from_code(code: u8) -> Option<TraceEventKind> {
    use TraceEventKind::*;
    Some(match code {
        0 => Read,
        1 => Write,
        2 => Rmw,
        3 => Acquire,
        4 => Release,
        5 => Signal,
        6 => Wait,
        7 => Spawn,
        8 => Join,
        9 => BarrierArrive,
        10 => BarrierRelease,
        11 => ThreadDone,
        12 => Compute,
        13 => Syscall,
        14 => ChanSend,
        15 => ChanRecv,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use crate::sched::RoundRobin;
    use crate::{DirectRuntime, Machine, RunStatus};

    #[test]
    fn records_accesses_and_sync_in_order() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l).write_l(x, 1, "w").unlock(l);
        b.thread(1).read_l(x, "r");
        let p = b.build();
        let mut rt = Recording::new(DirectRuntime::default());
        let mut m = Machine::new(&p);
        let mut s = RoundRobin::new();
        assert_eq!(m.run(&mut rt, &mut s).status, RunStatus::Done);

        let w = p.site("w").unwrap();
        let r = p.site("r").unwrap();
        assert_eq!(rt.access_steps(w).len(), 1);
        assert_eq!(rt.access_steps(r).len(), 1);
        let syncs = rt
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Sync { .. }))
            .count();
        assert_eq!(syncs, 2, "lock and unlock");
        let dones = rt
            .events()
            .iter()
            .filter(|e| matches!(e, Event::ThreadDone { .. }))
            .count();
        assert_eq!(dones, 2);
        // Steps are nondecreasing.
        let steps: Vec<u64> = rt.events().iter().filter_map(Event::step).collect();
        assert!(steps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn limit_caps_recording() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(100, |t| {
            t.read(x);
        });
        let p = b.build();
        let mut rt = Recording::new(DirectRuntime::default()).with_limit(10);
        let mut m = Machine::new(&p);
        let mut s = RoundRobin::new();
        m.run(&mut rt, &mut s);
        assert_eq!(rt.events().len(), 10);
    }

    // A consumer that fingerprints every call, order-sensitively.
    #[derive(Default, PartialEq, Debug)]
    struct Fp(Vec<(u8, u32, u32, u64)>);
    impl TraceConsumer for Fp {
        fn read(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            self.0.push((0, t.0, s.0, a.0));
        }
        fn write(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            self.0.push((1, t.0, s.0, a.0));
        }
        fn rmw(&mut self, t: ThreadId, s: SiteId, a: Addr) {
            self.0.push((2, t.0, s.0, a.0));
        }
        fn acquire(&mut self, t: ThreadId, s: SiteId, l: LockId) {
            self.0.push((3, t.0, s.0, u64::from(l.0)));
        }
        fn release(&mut self, t: ThreadId, s: SiteId, l: LockId) {
            self.0.push((4, t.0, s.0, u64::from(l.0)));
        }
        fn signal(&mut self, t: ThreadId, s: SiteId, c: CondId) {
            self.0.push((5, t.0, s.0, u64::from(c.0)));
        }
        fn wait(&mut self, t: ThreadId, s: SiteId, c: CondId) {
            self.0.push((6, t.0, s.0, u64::from(c.0)));
        }
        fn spawn(&mut self, t: ThreadId, s: SiteId, u: ThreadId) {
            self.0.push((7, t.0, s.0, u64::from(u.0)));
        }
        fn join(&mut self, t: ThreadId, s: SiteId, u: ThreadId) {
            self.0.push((8, t.0, s.0, u64::from(u.0)));
        }
        fn barrier_arrive(&mut self, t: ThreadId, s: SiteId, b: BarrierId) {
            self.0.push((9, t.0, s.0, u64::from(b.0)));
        }
        fn barrier_release(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) {
            self.0.push((10, b.0, 0, arrivals.len() as u64));
            for &(t, s) in arrivals {
                self.0.push((11, t.0, s.0, 0));
            }
        }
        fn compute(&mut self, t: ThreadId, s: SiteId, n: u32) {
            self.0.push((12, t.0, s.0, u64::from(n)));
        }
        fn syscall(&mut self, t: ThreadId, s: SiteId, k: crate::ir::SyscallKind) {
            self.0.push((13, t.0, s.0, syscall_code(k)));
        }
        fn thread_done(&mut self, t: ThreadId) {
            self.0.push((14, t.0, 0, 0));
        }
        fn chan_send(&mut self, t: ThreadId, s: SiteId, ch: ChanId) {
            self.0.push((15, t.0, s.0, u64::from(ch.0)));
        }
        fn chan_recv(&mut self, t: ThreadId, s: SiteId, ch: ChanId) {
            self.0.push((16, t.0, s.0, u64::from(ch.0)));
        }
    }

    #[test]
    fn event_log_replay_reproduces_the_live_stream() {
        use crate::replay::Live;

        // Exercise every event kind: locks, signal/wait, spawn/join,
        // barriers, RMWs, indexed accesses, compute, syscalls.
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let arr = b.array("a", 8);
        let l = b.lock_id("l");
        let c = b.cond_id("c");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", 2);
        b.thread(0)
            .spawn(ThreadId(2))
            .write(x, 1)
            .signal(c)
            .lock(l)
            .rmw(x, 1)
            .unlock(l)
            .send(ch)
            .barrier(bar)
            .join(ThreadId(2))
            .syscall(crate::ir::SyscallKind::Io);
        b.thread(1)
            .wait(c)
            .loop_n(4, |t| {
                t.read_arr(arr, 8).compute(3);
            })
            .recv(ch)
            .barrier(bar);
        b.thread(2).read(x); // spawn target: starts parked
        let p = b.build();

        let run_live = |seed: u64| {
            let mut rt = Live::new(Fp::default());
            let mut m = Machine::new(&p);
            let mut s = crate::sched::RandomSched::new(seed);
            let r = m.run(&mut rt, &mut s);
            assert_eq!(r.status, RunStatus::Done);
            (rt.into_inner(), m.memory().clone(), r)
        };
        let (live, live_mem, live_run) = run_live(9);

        let mut sched = crate::sched::RandomSched::new(9);
        let log = record_run(&p, &mut sched, StepLimit::default());
        let mut replayed = Fp::default();
        log.replay(&mut replayed);

        assert_eq!(live, replayed, "replayed call sequence diverged");
        assert_eq!(log.final_memory(), &live_mem);
        assert_eq!(log.result(), &live_run);
        assert_eq!(log.thread_count(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.len(), log.events().len());
    }

    #[test]
    fn serialized_log_round_trips_exactly() {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let arr = b.array("arr", 16);
        let l = b.lock_id("l");
        let c = b.cond_id("c");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", 2);
        b.thread(0)
            .spawn(ThreadId(2))
            .write(x, 1)
            .signal(c)
            .lock(l)
            .rmw(x, 1)
            .unlock(l)
            .send(ch)
            .barrier(bar)
            .join(ThreadId(2))
            .syscall(crate::ir::SyscallKind::Io);
        b.thread(1)
            .wait(c)
            .loop_n(4, |t| {
                t.read_arr(arr, 8).compute(3);
            })
            .recv(ch)
            .barrier(bar);
        b.thread(2).read(x);
        let p = b.build();

        let mut sched = crate::sched::RandomSched::new(9);
        let log = record_run(&p, &mut sched, StepLimit::default());
        let bytes = log.to_bytes();
        let back = EventLog::from_bytes(&bytes).expect("round trip");

        assert_eq!(back.events(), log.events());
        assert_eq!(back.thread_count(), log.thread_count());
        assert_eq!(back.census(), log.census());
        assert_eq!(back.result(), log.result());
        assert_eq!(back.final_memory(), log.final_memory());
        let mut live = Fp::default();
        log.replay(&mut live);
        let mut reloaded = Fp::default();
        back.replay(&mut reloaded);
        assert_eq!(live, reloaded, "replay diverged after deserialization");

        // Corruption is a readable error, never a panic.
        assert!(EventLog::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(EventLog::from_bytes(&[0u8; 16]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(EventLog::from_bytes(&extra).is_err());
    }

    #[test]
    fn stale_wire_versions_are_rejected() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).write(x, 1);
        let p = b.build();
        let mut sched = RoundRobin::new();
        let log = record_run(&p, &mut sched, StepLimit::default());
        let mut bytes = log.to_bytes();
        // Rewrite the version field (second u64) to the pre-channel v1.
        bytes[8..16].copy_from_slice(&1u64.to_le_bytes());
        let err = EventLog::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("unsupported version 1"), "{err}");
    }

    #[test]
    fn census_matches_dynamic_op_classes() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).loop_n(5, |t| {
            t.lock(l).rmw(x, 1).unlock(l).compute(7);
        });
        b.thread(1)
            .read(x)
            .syscall(crate::ir::SyscallKind::Alloc)
            .write(x, 2);
        let p = b.build();
        let c = OpCensus::of(&p);
        assert_eq!(c.mem_accesses, 5 + 2);
        assert_eq!(c.compute_units, 5 * 7);
        assert_eq!(c.sync_ops, 5 * 2);
        assert_eq!(c.syscalls, 1);
    }

    /// A program exercising every event kind, for index/partition tests.
    fn all_kinds_log() -> EventLog {
        let mut b = ProgramBuilder::new(3);
        let x = b.var("x");
        let arr = b.array("a", 8);
        let l = b.lock_id("l");
        let c = b.cond_id("c");
        let bar = b.barrier_id("bar");
        let ch = b.chan_id("ch", 2);
        b.thread(0)
            .spawn(ThreadId(2))
            .write(x, 1)
            .signal(c)
            .lock(l)
            .rmw(x, 1)
            .unlock(l)
            .send(ch)
            .barrier(bar)
            .join(ThreadId(2))
            .syscall(crate::ir::SyscallKind::Io);
        b.thread(1)
            .wait(c)
            .loop_n(4, |t| {
                t.read_arr(arr, 8).compute(3);
            })
            .recv(ch)
            .barrier(bar);
        b.thread(2).read(x);
        let p = b.build();
        let mut sched = crate::sched::RandomSched::new(9);
        record_run(&p, &mut sched, StepLimit::default())
    }

    #[test]
    fn sync_index_carries_exactly_the_sync_events_with_log_positions() {
        let log = all_kinds_log();
        let sync = SyncIndex::of(&log);
        assert_eq!(sync.total_events(), log.len() as u64);
        assert_eq!(sync.len(), sync.events().len());
        assert!(!sync.is_empty());
        // Every entry points back at the identical log event, and the
        // stream is exactly the sync-kind subsequence in order.
        let want: Vec<(u64, TraceEvent)> = log
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| is_sync_kind(e.kind))
            .map(|(i, e)| (i as u64, *e))
            .collect();
        assert_eq!(sync.events(), &want[..]);
        assert!(want.iter().any(|(_, e)| e.kind == TraceEventKind::ChanSend));
        assert!(want
            .iter()
            .any(|(_, e)| e.kind == TraceEventKind::BarrierRelease));
        // Barrier side tables replay without the log in hand.
        for (idx, e) in sync.events() {
            if e.kind == TraceEventKind::BarrierRelease {
                assert_eq!(
                    sync.barriers().release_arrivals(e.arg),
                    log.barriers().release_arrivals(e.arg),
                    "idx={idx}"
                );
            }
        }
    }

    #[test]
    fn access_partition_splits_reads_and_writes_exactly_once() {
        let log = all_kinds_log();
        let route = |a: Addr, n: usize| (a.0 as usize / 8) % n;
        for shards in [1usize, 2, 4, 8] {
            let part = AccessPartition::of(&log, shards, route);
            assert_eq!(part.shards(), shards);
            let n_accesses = log
                .events()
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Read | TraceEventKind::Write))
                .count() as u64;
            assert_eq!(part.total_accesses(), n_accesses);
            let mut seen = std::collections::BTreeSet::new();
            for s in 0..shards {
                let slice = part.slice(s);
                assert!(
                    slice.windows(2).all(|w| w[0].0 < w[1].0),
                    "slices are index-sorted"
                );
                for &(idx, e) in slice {
                    assert_eq!(route(Addr(e.arg), shards), s, "routed to the owner");
                    assert!(seen.insert(idx), "each access on exactly one shard");
                    assert_eq!(log.events()[idx as usize], e);
                }
            }
        }
    }

    #[test]
    fn replay_panicking_corruptions_are_decode_errors() {
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        // Layout: a 9-word header (status `Done` is one word), the event
        // count, 17-byte events, then the arrival and release tables.
        let event_arg = |i: usize| 80 + 17 * i + 9;
        let first_release = 80 + 17 * log.len() + 8 + 8 * log.barriers.arrivals.len() + 8;
        let nth = |kind| log.events().iter().position(|e| e.kind == kind).unwrap();
        let corrupt = |at: usize, value: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + value.len()].copy_from_slice(value);
            EventLog::from_bytes(&b)
        };
        let releases = log.barriers.releases.len() as u64;
        let release_arg = event_arg(nth(TraceEventKind::BarrierRelease));
        assert!(corrupt(release_arg, &releases.to_le_bytes()).is_err());
        let (start, len) = (first_release + 4, first_release + 8);
        assert!(
            corrupt(len, &u32::MAX.to_le_bytes()).is_err(),
            "past the arrivals"
        );
        assert!(
            corrupt(start, &u32::MAX.to_le_bytes()).is_err(),
            "start + len overflows"
        );
        let syscall_arg = event_arg(nth(TraceEventKind::Syscall));
        assert!(corrupt(syscall_arg, &4u64.to_le_bytes()).is_err());
        // The offsets point at the intended fields.
        assert_eq!(bytes[release_arg - 9], TraceEventKind::BarrierRelease as u8);
        assert_eq!(bytes[syscall_arg - 9], TraceEventKind::Syscall as u8);
        let first = u64::from_le_bytes(bytes[start..start + 8].try_into().unwrap());
        assert_eq!(first, 2 << 32, "first release: start 0, two arrivals");
    }

    #[test]
    fn barrier_release_is_recorded() {
        let mut b = ProgramBuilder::new(2);
        let bar = b.barrier_id("bar");
        let x = b.var("x");
        for t in 0..2 {
            b.thread(t).read(x).barrier(bar);
        }
        let p = b.build();
        let mut rt = Recording::new(DirectRuntime::default());
        let mut m = Machine::new(&p);
        let mut s = RoundRobin::new();
        m.run(&mut rt, &mut s);
        assert!(rt.events().iter().any(|e| matches!(
            e,
            Event::BarrierRelease {
                participants: 2,
                ..
            }
        )));
        let (_inner, events) = rt.into_parts();
        assert!(!events.is_empty());
    }
}
