//! Execution tracing: the replayable [`EventLog`] that the record/replay
//! pipeline is built on, and its one recorder, [`EventLogBuilder`].
//!
//! An [`EventLog`] is recorded in one interpreter pass (see
//! [`record_run`], which runs an [`EventLogBuilder`] inside [`Live`]) and
//! can then be replayed into any number of
//! [`TraceConsumer`]s — each replay observes the *identical* method-call
//! sequence a live pure observer would have seen under the same seed, so
//! detection results are bit-identical between the two paths. Logs are
//! compact: one 12-byte [`TraceEvent`] per schedule-visible event, all
//! identities dense ids, barrier arrival lists stored once in a side
//! table, and the final memory shared (one [`Arc`]) by every outcome
//! assembled from the log.
//!
//! The encoded form ([`EventLog::to_bytes`], format version
//! [`LOG_VERSION`]) stores each event as the same 12-byte little-endian
//! record it is in memory, so encoding writes the records as they are and
//! decoding is one validating pass over them.

use std::sync::Arc;

use crate::addr::{Addr, WORD_BYTES};
use crate::exec::{RunResult, RunStatus, StepLimit};
use crate::flat::{syscall_code, SYSCALL_CODES};
use crate::ids::{BarrierId, ChanId, CondId, LockId, SiteId, ThreadId};
use crate::ir::{Op, Program, SyscallKind};
use crate::mem::Memory;
use crate::replay::{Live, TraceConsumer};
use crate::sched::Scheduler;

/// Classifies one [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// Shared read; `arg` is the resolved (8-byte aligned) address.
    Read,
    /// Shared write; `arg` is the resolved (8-byte aligned) address.
    Write,
    /// Atomic read-modify-write; `arg` is the resolved (8-byte aligned)
    /// address.
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

/// Every [`TraceEventKind`], indexed by its `#[repr(u8)]` code.
const KINDS: [TraceEventKind; 16] = {
    use TraceEventKind::*;
    [
        Read,
        Write,
        Rmw,
        Acquire,
        Release,
        Signal,
        Wait,
        Spawn,
        Join,
        BarrierArrive,
        BarrierRelease,
        ThreadDone,
        Compute,
        Syscall,
        ChanSend,
        ChanRecv,
    ]
};

/// One schedule-visible event in an [`EventLog`]: a 12-byte dense-id
/// record (kind `u8`, a zero pad byte, thread `u16`, site `u32`, arg
/// `u32`) whose `arg` is interpreted per [`TraceEventKind`].
///
/// The layout is also the wire format: [`EventLog::to_bytes`] writes each
/// field little-endian at its in-memory offset, so on a little-endian
/// host an encoded event is byte for byte the record itself. The widths
/// hold every event a log can carry: threads are capped at
/// [`MAX_LOG_THREADS`], addresses at [`MAX_LOG_ADDR`] (`2^32`), and every
/// other `arg` is a `u32` id or count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct TraceEvent {
    kind: TraceEventKind,
    /// Always zero; keeps `thread` at its natural offset.
    pad: u8,
    thread: u16,
    site: u32,
    arg: u32,
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == TraceEvent::BYTES);

impl TraceEvent {
    /// Size of one event, in memory and encoded.
    pub const BYTES: usize = 12;

    /// An event of `kind` on `thread` (which the recorder has already
    /// bounded by [`MAX_LOG_THREADS`]).
    fn new(kind: TraceEventKind, thread: ThreadId, site: SiteId, arg: u32) -> Self {
        TraceEvent {
            kind,
            pad: 0,
            thread: thread.0 as u16,
            site: site.0,
            arg,
        }
    }

    /// What happened.
    #[inline]
    pub fn kind(&self) -> TraceEventKind {
        self.kind
    }

    /// Executing thread (unused for [`TraceEventKind::BarrierRelease`]).
    #[inline]
    pub fn thread(&self) -> ThreadId {
        ThreadId(u32::from(self.thread))
    }

    /// Static site (unused for [`TraceEventKind::BarrierRelease`] and
    /// [`TraceEventKind::ThreadDone`]).
    #[inline]
    pub fn site(&self) -> SiteId {
        SiteId(self.site)
    }

    /// Kind-specific payload — see [`TraceEventKind`].
    #[inline]
    pub fn arg(&self) -> u32 {
        self.arg
    }

    /// The record's 12 wire bytes.
    #[inline]
    fn to_le_bytes(self) -> [u8; TraceEvent::BYTES] {
        let [t0, t1] = self.thread.to_le_bytes();
        let [s0, s1, s2, s3] = self.site.to_le_bytes();
        let [a0, a1, a2, a3] = self.arg.to_le_bytes();
        [self.kind as u8, 0, t0, t1, s0, s1, s2, s3, a0, a1, a2, a3]
    }

    /// Reads one 12-byte record, accepting it only if its kind code is
    /// known, its pad byte is zero, its thread is below `threads`, its
    /// `arg` is below `limits[kind]`, an access's address is 8-byte
    /// aligned, and a spawn or join does not name its own thread.
    /// [`bad_event`] says why a record was refused.
    #[inline]
    fn from_le_bytes(rec: &[u8], threads: u64, limits: &ArgLimits) -> Option<Self> {
        let &[code, pad, t0, t1, s0, s1, s2, s3, a0, a1, a2, a3] = rec else {
            return None;
        };
        let thread = u16::from_le_bytes([t0, t1]);
        let arg = u32::from_le_bytes([a0, a1, a2, a3]);
        let kind = *KINDS.get(usize::from(code))?;
        let valid = pad == 0
            && u64::from(thread) < threads
            && u64::from(arg) < limits[usize::from(code)]
            && arg & ARG_ALIGN[usize::from(code)] == 0
            && !(is_fork_or_join(kind) && arg == u32::from(thread));
        valid.then_some(TraceEvent {
            kind,
            pad,
            thread,
            site: u32::from_le_bytes([s0, s1, s2, s3]),
            arg,
        })
    }
}

/// Appends every event's 12-byte record to `out` (kept out of line so the
/// loop is optimized on its own).
#[inline(never)]
fn encode_events(events: &[TraceEvent], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + TraceEvent::BYTES * events.len(), 0);
    for (rec, e) in out[start..].chunks_exact_mut(TraceEvent::BYTES).zip(events) {
        rec.copy_from_slice(&e.to_le_bytes());
    }
}

/// Decodes `body`, a whole number of 12-byte records, in one validating
/// pass (kept out of line so the loop is optimized on its own).
#[inline(never)]
fn decode_events(body: &[u8], threads: u64, limits: &ArgLimits) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::with_capacity(body.len() / TraceEvent::BYTES);
    for rec in body.chunks_exact(TraceEvent::BYTES) {
        let Some(e) = TraceEvent::from_le_bytes(rec, threads, limits) else {
            return Err(bad_event(rec, threads, limits));
        };
        events.push(e);
    }
    Ok(events)
}

/// Per-kind mask of the `arg` bits that must be clear, indexed by kind
/// code: a read's, write's or read-modify-write's address is word-aligned.
/// A table lookup beside the limit's keeps the decode loop free of a
/// per-kind branch.
const ARG_ALIGN: [u32; KINDS.len()] = {
    use TraceEventKind::*;
    let mut masks = [0; KINDS.len()];
    let mut i = 0;
    while i < KINDS.len() {
        if matches!(KINDS[i], Read | Write | Rmw) {
            masks[i] = WORD_BYTES as u32 - 1;
        }
        i += 1;
    }
    masks
};

/// Spawns and joins name a child thread, never the executing one.
#[inline]
fn is_fork_or_join(kind: TraceEventKind) -> bool {
    matches!(kind, TraceEventKind::Spawn | TraceEventKind::Join)
}

/// Per-kind exclusive upper bounds on a decoded event's `arg`, indexed by
/// kind code.
type ArgLimits = [u64; KINDS.len()];

/// Describes why [`TraceEvent::from_le_bytes`] rejected the record `rec`.
#[cold]
fn bad_event(rec: &[u8], threads: u64, limits: &ArgLimits) -> String {
    use TraceEventKind::*;
    let &[code, pad, t0, t1, _, _, _, _, a0, a1, a2, a3] = rec else {
        return "truncated log".into();
    };
    let thread = u16::from_le_bytes([t0, t1]);
    let arg = u32::from_le_bytes([a0, a1, a2, a3]);
    let Some(&kind) = KINDS.get(usize::from(code)) else {
        return format!("bad event kind {code}");
    };
    if pad != 0 {
        return format!("{kind:?} event with nonzero pad byte {pad}");
    }
    if u64::from(thread) >= threads {
        return format!("event thread {thread} out of range for {threads} threads");
    }
    if is_fork_or_join(kind) && arg == u32::from(thread) {
        return format!("{kind:?} of thread {thread} by itself");
    }
    if arg & ARG_ALIGN[usize::from(code)] != 0 {
        return format!("{kind:?} address {arg:#x} not 8-byte aligned");
    }
    let what = match kind {
        Acquire | Release => "lock",
        Signal | Wait => "condition",
        Spawn | Join => "child thread",
        BarrierArrive => "barrier",
        BarrierRelease => "barrier release",
        Syscall => "syscall code",
        ChanSend | ChanRecv => "channel",
        Read | Write | Rmw | ThreadDone | Compute => "argument",
    };
    format!(
        "{kind:?} {what} {arg} out of range (limit {})",
        limits[usize::from(code)]
    )
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
        let mut c = OpCensus::default();
        p.visit_dynamic(&mut |_, op, n| match op {
            _ if op.is_data_access() => c.mem_accesses += n,
            Op::Compute(units) => c.compute_units += n.saturating_mul(u64::from(*units)),
            _ if op.is_sync() => c.sync_ops += n,
            Op::Syscall(_) => c.syscalls += n,
            _ => {}
        });
        c
    }
}

/// The barrier side table of a trace: every release's arrival list,
/// stored once and addressed by the `arg` of its
/// [`TraceEventKind::BarrierRelease`] event. [`EventLogBuilder`] fills it,
/// and [`EventLog`] and [`SyncIndex`] replay through it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BarrierTable {
    arrivals: Vec<(ThreadId, SiteId)>,
    /// `(barrier, start, len)` ranges into `arrivals`, in release order.
    releases: Vec<(BarrierId, u32, u32)>,
}

impl BarrierTable {
    /// Appends one release and returns the `arg` its event carries.
    fn push(&mut self, b: BarrierId, arrivals: &[(ThreadId, SiteId)]) -> u32 {
        let start = self.arrivals.len() as u32;
        self.arrivals.extend_from_slice(arrivals);
        self.releases.push((b, start, arrivals.len() as u32));
        self.releases.len() as u32 - 1
    }

    /// The barrier and arrival list (in arrival order) of a
    /// [`TraceEventKind::BarrierRelease`] event; pass the event's `arg`.
    pub fn release_arrivals(&self, release_idx: u32) -> (BarrierId, &[(ThreadId, SiteId)]) {
        let (b, start, len) = self.releases[release_idx as usize];
        (b, &self.arrivals[start as usize..(start + len) as usize])
    }

    /// Writes the arrival count and entries, then the release count and
    /// entries.
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.arrivals.len() as u64);
        for &(t, s) in &self.arrivals {
            out.extend_from_slice(&t.0.to_le_bytes());
            out.extend_from_slice(&s.0.to_le_bytes());
        }
        put_u64(out, self.releases.len() as u64);
        for &(b, start, len) in &self.releases {
            out.extend_from_slice(&b.0.to_le_bytes());
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
    }

    /// Reads a table written by `encode`, rejecting any entry that
    /// [`release_arrivals`](BarrierTable::release_arrivals) or a replayed
    /// detector would index out of bounds: an arrival thread at or above
    /// `threads`, a barrier id at or above `barriers`, or a release range
    /// that overflows or runs past the arrivals.
    fn decode(c: &mut Cursor<'_>, threads: u64, barriers: u32) -> Result<Self, String> {
        let n_arrivals = c.len(8)?;
        let mut arrivals = Vec::with_capacity(n_arrivals);
        for _ in 0..n_arrivals {
            let t = c.u32()?;
            if u64::from(t) >= threads {
                return Err(format!(
                    "barrier arrival thread {t} out of range for {threads} threads"
                ));
            }
            arrivals.push((ThreadId(t), SiteId(c.u32()?)));
        }
        let n_releases = c.len(12)?;
        let mut releases = Vec::with_capacity(n_releases);
        for _ in 0..n_releases {
            let (b, start, len) = (c.u32()?, c.u32()?, c.u32()?);
            if b >= barriers {
                return Err(format!(
                    "released barrier {b} out of range for {barriers} barriers"
                ));
            }
            match start.checked_add(len) {
                Some(end) if end as usize <= arrivals.len() => {}
                _ => return Err(format!("barrier {b} arrivals out of range")),
            }
            releases.push((BarrierId(b), start, len));
        }
        Ok(BarrierTable { arrivals, releases })
    }
}

/// A [`TraceConsumer`] that accumulates the event stream of one run;
/// [`record_run`] wraps it in [`Live`] and assembles the [`EventLog`].
#[derive(Debug, Default)]
pub struct EventLogBuilder {
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) barriers: BarrierTable,
}

impl EventLogBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: TraceEventKind, thread: ThreadId, site: SiteId, arg: u32) {
        self.events.push(TraceEvent::new(kind, thread, site, arg));
    }

    /// Records an access, whose address must fit the event's `arg`.
    fn access(&mut self, kind: TraceEventKind, t: ThreadId, site: SiteId, addr: Addr) {
        let Ok(arg) = u32::try_from(addr.0) else {
            panic!("access address {addr} at or above MAX_LOG_ADDR ({MAX_LOG_ADDR:#x})");
        };
        self.push(kind, t, site, arg);
    }
}

impl TraceConsumer for EventLogBuilder {
    fn read(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.access(TraceEventKind::Read, t, site, addr);
    }

    fn write(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.access(TraceEventKind::Write, t, site, addr);
    }

    fn rmw(&mut self, t: ThreadId, site: SiteId, addr: Addr) {
        self.access(TraceEventKind::Rmw, t, site, addr);
    }

    fn acquire(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.push(TraceEventKind::Acquire, t, site, l.0);
    }

    fn release(&mut self, t: ThreadId, site: SiteId, l: LockId) {
        self.push(TraceEventKind::Release, t, site, l.0);
    }

    fn signal(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.push(TraceEventKind::Signal, t, site, c.0);
    }

    fn wait(&mut self, t: ThreadId, site: SiteId, c: CondId) {
        self.push(TraceEventKind::Wait, t, site, c.0);
    }

    fn spawn(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.push(TraceEventKind::Spawn, t, site, child.0);
    }

    fn join(&mut self, t: ThreadId, site: SiteId, child: ThreadId) {
        self.push(TraceEventKind::Join, t, site, child.0);
    }

    fn barrier_arrive(&mut self, t: ThreadId, site: SiteId, b: BarrierId) {
        self.push(TraceEventKind::BarrierArrive, t, site, b.0);
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
        self.push(TraceEventKind::Compute, t, site, units);
    }

    fn syscall(&mut self, t: ThreadId, site: SiteId, kind: SyscallKind) {
        self.push(TraceEventKind::Syscall, t, site, syscall_code(kind));
    }

    fn chan_send(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.push(TraceEventKind::ChanSend, t, site, ch.0);
    }

    fn chan_recv(&mut self, t: ThreadId, site: SiteId, ch: ChanId) {
        self.push(TraceEventKind::ChanRecv, t, site, ch.0);
    }

    fn thread_done(&mut self, t: ThreadId) {
        self.push(TraceEventKind::ThreadDone, t, SiteId::default(), 0);
    }
}

/// The declared sizes of a log's synchronization id spaces: every lock,
/// condition, barrier and channel id in the log is below its count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdCounts {
    locks: u32,
    conds: u32,
    barriers: u32,
    chans: u32,
}

/// One recorded execution, replayable into any number of
/// [`TraceConsumer`]s. Carries everything a replayed analysis needs that
/// a live run would otherwise pull from the machine or the program: the
/// final memory state (shared, so outcomes assembled from the log hold it
/// without copying), the interpreter result, and a static [`OpCensus`]
/// for cost accounting.
#[derive(Debug, Clone)]
pub struct EventLog {
    threads: usize,
    ids: IdCounts,
    events: Vec<TraceEvent>,
    barriers: BarrierTable,
    census: OpCensus,
    result: RunResult,
    memory: Arc<Memory>,
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

    /// Final shared-memory state of the recorded run. Clone the [`Arc`]
    /// to share it.
    pub fn final_memory(&self) -> &Arc<Memory> {
        &self.memory
    }

    /// The barrier side table the log's release events index into.
    pub fn barriers(&self) -> &BarrierTable {
        &self.barriers
    }

    /// Serializes the log to a stable, self-describing byte format
    /// (little-endian, magic + version header; events as their 12-byte
    /// records). [`from_bytes`](EventLog::from_bytes) round-trips exactly:
    /// replaying a deserialized log drives a consumer through the
    /// identical call sequence.
    pub fn to_bytes(&self) -> Vec<u8> {
        let b = &self.barriers;
        let mut out = Vec::with_capacity(
            16 * 8
                + 8 * b.arrivals.len()
                + 12 * b.releases.len()
                + TraceEvent::BYTES * self.events.len()
                + 16 * self.memory.len(),
        );
        put_u64(&mut out, LOG_MAGIC);
        put_u64(&mut out, LOG_VERSION);
        put_u64(&mut out, self.threads as u64);
        for n in [
            self.ids.locks,
            self.ids.conds,
            self.ids.barriers,
            self.ids.chans,
        ] {
            put_u64(&mut out, u64::from(n));
        }
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
        b.encode(&mut out);
        put_u64(&mut out, self.events.len() as u64);
        encode_events(&self.events, &mut out);
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
    /// A description of the corruption: bad magic, unknown version,
    /// truncation or trailing bytes, a thread count of zero or above
    /// [`MAX_LOG_THREADS`], a lock, condition, barrier or channel count
    /// above [`MAX_LOG_LOCKS`], [`MAX_LOG_CONDS`], [`MAX_LOG_BARRIERS`] or
    /// [`MAX_LOG_CHANS`], an invalid event kind, a nonzero pad byte, a
    /// thread id (executing thread, spawned or joined child, barrier
    /// arrival) at or above the thread count, a lock, condition, barrier
    /// or channel id at or above its declared count, an access address
    /// that is not 8-byte aligned, a syscall code or barrier release out
    /// of range, a release range past the arrival table, or final-memory
    /// cells out of address order, not 8-byte aligned, or at or above
    /// [`MAX_LOG_ADDR`].
    /// Every log this accepts replays without panicking, and re-encodes to
    /// the bytes it was decoded from.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, String> {
        let mut c = Cursor { b: bytes, pos: 0 };
        if c.u64()? != LOG_MAGIC {
            return Err("bad magic".into());
        }
        let version = c.u64()?;
        if version != LOG_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let threads = c.u64()?;
        if threads == 0 || threads > MAX_LOG_THREADS {
            return Err(format!(
                "thread count {threads} outside 1..={MAX_LOG_THREADS}"
            ));
        }
        let ids = IdCounts {
            locks: c.count("lock", MAX_LOG_LOCKS)?,
            conds: c.count("condition", MAX_LOG_CONDS)?,
            barriers: c.count("barrier", MAX_LOG_BARRIERS)?,
            chans: c.count("channel", MAX_LOG_CHANS)?,
        };
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
                let len = c.len(1)?;
                let raw = c.take(len)?;
                RunStatus::Fault(String::from_utf8(raw.to_vec()).map_err(|_| "bad fault string")?)
            }
            s => return Err(format!("unknown run status {s}")),
        };
        let barriers = BarrierTable::decode(&mut c, threads, ids.barriers)?;
        let limits = KINDS.map(|kind| {
            use TraceEventKind::*;
            match kind {
                Read | Write | Rmw | ThreadDone | Compute => 1 << 32,
                Acquire | Release => u64::from(ids.locks),
                Signal | Wait => u64::from(ids.conds),
                Spawn | Join => threads,
                BarrierArrive => u64::from(ids.barriers),
                BarrierRelease => barriers.releases.len() as u64,
                Syscall => SYSCALL_CODES.len() as u64,
                ChanSend | ChanRecv => u64::from(ids.chans),
            }
        });
        let n_events = c.len(TraceEvent::BYTES)?;
        let events = decode_events(c.take(n_events * TraceEvent::BYTES)?, threads, &limits)?;
        let n_cells = c.len(16)?;
        let mut memory = Memory::new();
        let mut next = 0;
        for _ in 0..n_cells {
            let a = Addr(c.u64()?);
            let v = c.u64()?;
            if a.0 >= MAX_LOG_ADDR {
                return Err(format!(
                    "memory cell address {a} at or above {MAX_LOG_ADDR:#x}"
                ));
            }
            if !a.is_aligned() {
                return Err(format!("memory cell address {a} not 8-byte aligned"));
            }
            if a.0 < next {
                return Err(format!("memory cell address {a} out of order"));
            }
            next = a.0 + 1;
            memory.store(a, v);
        }
        if c.pos != bytes.len() {
            return Err("trailing bytes".into());
        }
        Ok(EventLog {
            threads: threads as usize,
            ids,
            events,
            barriers,
            census,
            result: RunResult { status, steps },
            memory: Arc::new(memory),
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
    let (t, site, arg) = (e.thread(), e.site(), e.arg);
    let addr = Addr(u64::from(arg));
    match e.kind {
        TraceEventKind::Read => each!(|c| c.read(t, site, addr)),
        TraceEventKind::Write => each!(|c| c.write(t, site, addr)),
        TraceEventKind::Rmw => each!(|c| c.rmw(t, site, addr)),
        TraceEventKind::Acquire => each!(|c| c.acquire(t, site, LockId(arg))),
        TraceEventKind::Release => each!(|c| c.release(t, site, LockId(arg))),
        TraceEventKind::Signal => each!(|c| c.signal(t, site, CondId(arg))),
        TraceEventKind::Wait => each!(|c| c.wait(t, site, CondId(arg))),
        TraceEventKind::Spawn => each!(|c| c.spawn(t, site, ThreadId(arg))),
        TraceEventKind::Join => each!(|c| c.join(t, site, ThreadId(arg))),
        TraceEventKind::BarrierArrive => each!(|c| c.barrier_arrive(t, site, BarrierId(arg))),
        TraceEventKind::BarrierRelease => {
            let (b, arrivals) = barriers.release_arrivals(arg);
            each!(|c| c.barrier_release(b, arrivals))
        }
        TraceEventKind::ThreadDone => each!(|c| c.thread_done(t)),
        TraceEventKind::Compute => each!(|c| c.compute(t, site, arg)),
        TraceEventKind::Syscall => {
            let kind = SYSCALL_CODES[arg as usize];
            each!(|c| c.syscall(t, site, kind))
        }
        TraceEventKind::ChanSend => each!(|c| c.chan_send(t, site, ChanId(arg))),
        TraceEventKind::ChanRecv => each!(|c| c.chan_recv(t, site, ChanId(arg))),
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
/// never serialized: the wire format stays the flat event stream, and
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
                slices[route(Addr(u64::from(e.arg)), shards)].push((i as u64, *e));
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
/// the same scheduler state. The machine's final memory moves into the
/// log.
///
/// # Panics
///
/// Panics if `p` is beyond what the log format can carry, which are the
/// limits [`EventLog::from_bytes`] enforces: more than
/// [`MAX_LOG_THREADS`] threads, more than [`MAX_LOG_LOCKS`] locks,
/// [`MAX_LOG_CONDS`] conditions, [`MAX_LOG_BARRIERS`] barriers or
/// [`MAX_LOG_CHANS`] channels, or (when the run reaches it) an access at
/// or above [`MAX_LOG_ADDR`].
pub fn record_run<S: Scheduler + ?Sized>(p: &Program, sched: &mut S, limit: StepLimit) -> EventLog {
    let threads = p.thread_count();
    assert!(
        threads as u64 <= MAX_LOG_THREADS,
        "{threads} threads exceed MAX_LOG_THREADS ({MAX_LOG_THREADS})"
    );
    let ids = IdCounts {
        locks: p.lock_count(),
        conds: p.cond_count(),
        barriers: p.barrier_count(),
        chans: p.chan_count(),
    };
    for (what, n, max) in [
        ("locks", ids.locks, MAX_LOG_LOCKS),
        ("conditions", ids.conds, MAX_LOG_CONDS),
        ("barriers", ids.barriers, MAX_LOG_BARRIERS),
        ("channels", ids.chans, MAX_LOG_CHANS),
    ] {
        assert!(
            u64::from(n) <= max,
            "{n} {what} exceed the log format's limit of {max}"
        );
    }
    let mut rt = Live::new(EventLogBuilder::new());
    let mut machine = crate::exec::Machine::new(p);
    let result = machine.run_with_limit(&mut rt, sched, limit);
    let b = rt.into_inner();
    EventLog {
        threads,
        ids,
        events: b.events,
        barriers: b.barriers,
        census: OpCensus::of(p),
        result,
        memory: Arc::new(machine.into_memory()),
    }
}

/// `b"TXLOG\0\0\x01"` as a little-endian u64: identifies a serialized
/// [`EventLog`].
const LOG_MAGIC: u64 = u64::from_le_bytes(*b"TXLOG\0\0\x01");
/// Bump on any layout change; readers reject other versions. Version 2
/// added the channel event kinds ([`TraceEventKind::ChanSend`]/
/// [`TraceEventKind::ChanRecv`]). Version 3 made each event its 12-byte
/// in-memory record (17 bytes before), added the declared lock,
/// condition, barrier and channel counts to the header, and moved the
/// barrier side table ahead of the events so every event is checked in
/// one pass.
pub const LOG_VERSION: u64 = 3;

/// The widest thread count a serialized log may declare. Detectors size
/// per-thread state from the header (FastTrack keeps one vector clock of
/// this width per thread, 4 MiB at the cap), so an unchecked header is
/// an allocation of attacker-chosen size. The bundled workloads run 9
/// threads at their widest evaluated setting (8 workers) and generated
/// programs 3; the cap leaves two orders of magnitude of headroom. It
/// also keeps every thread id within a [`TraceEvent`]'s `u16`.
pub const MAX_LOG_THREADS: u64 = 1024;

/// The most locks a serialized log may declare. Replayed detectors keep
/// one vector clock per lock id, grown to the largest id seen, so at the
/// cap and [`MAX_LOG_THREADS`] threads a table is at most 16 MiB. The
/// bundled workloads and generated programs declare a handful.
pub const MAX_LOG_LOCKS: u64 = 1 << 12;

/// The most condition semaphores a serialized log may declare (a
/// per-id vector-clock table, bounded as for [`MAX_LOG_LOCKS`]).
pub const MAX_LOG_CONDS: u64 = 1 << 12;

/// The most barriers a serialized log may declare (a per-id vector-clock
/// table, bounded as for [`MAX_LOG_LOCKS`]).
pub const MAX_LOG_BARRIERS: u64 = 1 << 12;

/// The most channels a serialized log may declare (a per-id vector-clock
/// table, bounded as for [`MAX_LOG_LOCKS`]).
pub const MAX_LOG_CHANS: u64 = 1 << 12;

/// One past the highest address a serialized log may name, in an access
/// event or a final-memory cell; an access event's `u32` `arg` holds any
/// address below it. [`Memory`] and the detectors' shadow tables keep a
/// page table with one 8-byte slot per 4096 words (32 KiB) of span, so
/// an unchecked address is an allocation of attacker-chosen size (a
/// single cell at `1 << 60` asks for 2^45 slots); at this bound a page
/// table's top level is at most 2^17 slots, 1 MiB. The bundled workloads
/// stay far below it (a test pins that).
pub const MAX_LOG_ADDR: u64 = 1 << 32;

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

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix of entries `entry_bytes` wide, which the rest of
    /// the input must be able to hold (so no caller reserves for entries
    /// that are not there).
    fn len(&mut self, entry_bytes: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let left = (self.b.len() - self.pos) / entry_bytes;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= left)
            .ok_or_else(|| "truncated log".into())
    }

    /// A declared id count, at most `max`.
    fn count(&mut self, what: &str, max: u64) -> Result<u32, String> {
        let n = self.u64()?;
        if n > max {
            return Err(format!("{what} count {n} above {max}"));
        }
        Ok(n as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use crate::sched::RoundRobin;
    use crate::{Machine, RunStatus};

    /// The recorded events of `p` under round-robin scheduling.
    fn round_robin_log(p: &Program) -> EventLog {
        let log = record_run(p, &mut RoundRobin::new(), StepLimit::default());
        assert_eq!(log.result().status, RunStatus::Done);
        log
    }

    fn count(log: &EventLog, keep: impl Fn(&TraceEvent) -> bool) -> usize {
        log.events().iter().filter(|e| keep(e)).count()
    }

    #[test]
    fn records_accesses_and_sync_in_order() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        let l = b.lock_id("l");
        b.thread(0).lock(l).write_l(x, 1, "w").unlock(l);
        b.thread(1).read_l(x, "r");
        let p = b.build();
        let log = round_robin_log(&p);

        let is_access = |e: &TraceEvent| {
            matches!(
                e.kind,
                TraceEventKind::Read | TraceEventKind::Write | TraceEventKind::Rmw
            )
        };
        for label in ["w", "r"] {
            let site = p.site(label).unwrap();
            assert_eq!(
                count(&log, |e| is_access(e) && e.site() == site),
                1,
                "{label}"
            );
        }
        let syncs: Vec<TraceEventKind> = log
            .events()
            .iter()
            .filter(|e| !is_access(e) && e.kind != TraceEventKind::ThreadDone)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            syncs,
            [TraceEventKind::Acquire, TraceEventKind::Release],
            "lock and unlock"
        );
        for t in 0..2 {
            let done = |e: &TraceEvent| e.kind == TraceEventKind::ThreadDone && e.thread().0 == t;
            assert_eq!(count(&log, done), 1, "thread {t}");
        }
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
            self.0.push((13, t.0, s.0, u64::from(syscall_code(k))));
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
        assert_eq!(live_mem, *log.final_memory());
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
        assert_eq!(back.to_bytes(), bytes, "re-encodes to the same bytes");
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
        // Rewrite the version field (second u64) to the pre-channel v1
        // and to the 17-byte-event v2.
        for old in [1u64, 2] {
            bytes[8..16].copy_from_slice(&old.to_le_bytes());
            let err = EventLog::from_bytes(&bytes).unwrap_err();
            assert!(err.contains(&format!("unsupported version {old}")), "{err}");
        }
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
        let route = |a: Addr, n: usize| a.word() % n;
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
                    assert_eq!(
                        route(Addr(u64::from(e.arg)), shards),
                        s,
                        "routed to the owner"
                    );
                    assert!(seen.insert(idx), "each access on exactly one shard");
                    assert_eq!(log.events()[idx as usize], e);
                }
            }
        }
    }

    /// Byte offsets into `log.to_bytes()` of a log whose status is
    /// `Done`: a 13-word header, the arrival table (count, then 8-byte
    /// entries), the release table (count, then 12-byte entries), the
    /// event count, then 12-byte events.
    const HEADER: usize = 13 * 8;

    fn first_arrival(_: &EventLog) -> usize {
        HEADER + 8
    }

    fn first_release(log: &EventLog) -> usize {
        first_arrival(log) + 8 * log.barriers.arrivals.len() + 8
    }

    /// Offset of event `i`: kind at +0, pad +1, thread +2, site +4,
    /// arg +8.
    fn event_at(log: &EventLog, i: usize) -> usize {
        first_release(log) + 12 * log.barriers.releases.len() + 8 + TraceEvent::BYTES * i
    }

    /// Offset of the arg of the first event of `kind`.
    fn first_arg_of(log: &EventLog, bytes: &[u8], kind: TraceEventKind) -> usize {
        let i = log.events().iter().position(|e| e.kind == kind).unwrap();
        let at = event_at(log, i);
        assert_eq!(bytes[at], kind as u8, "offset of {kind:?}");
        at + 8
    }

    #[test]
    fn events_are_encoded_as_their_12_byte_records() {
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        for (i, e) in log.events().iter().enumerate() {
            let at = event_at(&log, i);
            assert_eq!(
                bytes[at..at + TraceEvent::BYTES],
                e.to_le_bytes(),
                "event {i}"
            );
            assert_eq!(bytes[at + 1], 0, "pad byte");
        }
        let end = event_at(&log, log.len());
        assert_eq!(
            bytes.len() - end,
            8 + 16 * log.final_memory().len(),
            "the cells follow the last event"
        );
    }

    #[test]
    fn replay_panicking_corruptions_are_decode_errors() {
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        let corrupt = |at: usize, value: &[u8]| decode_patched(&bytes, at, value);
        let releases = log.barriers.releases.len() as u32;
        let release_arg = first_arg_of(&log, &bytes, TraceEventKind::BarrierRelease);
        assert!(corrupt(release_arg, &releases.to_le_bytes()).is_err());
        let first = first_release(&log);
        let (start, len) = (first + 4, first + 8);
        assert!(
            corrupt(len, &u32::MAX.to_le_bytes()).is_err(),
            "past the arrivals"
        );
        assert!(
            corrupt(start, &u32::MAX.to_le_bytes()).is_err(),
            "start + len overflows"
        );
        let syscall_arg = first_arg_of(&log, &bytes, TraceEventKind::Syscall);
        assert!(corrupt(syscall_arg, &4u32.to_le_bytes()).is_err());
        let err = corrupt(event_at(&log, 0), &[16]).unwrap_err();
        assert!(err.contains("bad event kind 16"), "{err}");
        let err = corrupt(event_at(&log, 0) + 1, &[1]).unwrap_err();
        assert!(err.contains("pad byte"), "{err}");
        // The offsets point at the intended fields.
        let first = u64::from_le_bytes(bytes[start..start + 8].try_into().unwrap());
        assert_eq!(first, 2 << 32, "first release: start 0, two arrivals");
    }

    /// Overwrites `value` at byte `at` of `bytes` and decodes the result.
    fn decode_patched(bytes: &[u8], at: usize, value: &[u8]) -> Result<EventLog, String> {
        let mut b = bytes.to_vec();
        b[at..at + value.len()].copy_from_slice(value);
        EventLog::from_bytes(&b)
    }

    #[test]
    fn out_of_range_thread_ids_are_decode_errors() {
        // Replayed detectors index per-thread state by these ids, so an
        // id at or above the header's thread count must not decode.
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        let threads = log.thread_count() as u16;
        // The first event that names no child thread (any thread may run
        // it).
        let i = log
            .events()
            .iter()
            .position(|e| !is_fork_or_join(e.kind))
            .unwrap();
        let event_thread = event_at(&log, i) + 2;
        for t in [threads, 200, u16::MAX] {
            let err = decode_patched(&bytes, event_thread, &t.to_le_bytes()).unwrap_err();
            assert!(err.contains("event thread"), "{err}");
            for kind in [TraceEventKind::Spawn, TraceEventKind::Join] {
                let at = first_arg_of(&log, &bytes, kind);
                let err = decode_patched(&bytes, at, &u32::from(t).to_le_bytes()).unwrap_err();
                assert!(err.contains("child thread"), "{kind:?}: {err}");
            }
            let arrival = u32::from(t).to_le_bytes();
            let err = decode_patched(&bytes, first_arrival(&log), &arrival).unwrap_err();
            assert!(err.contains("barrier arrival thread"), "{err}");
        }
        // The offsets point at the intended fields, and the last valid id
        // still decodes.
        assert_eq!(
            bytes[event_thread..event_thread + 2],
            (log.events()[i].thread().0 as u16).to_le_bytes()
        );
        let last = threads - 1;
        assert!(decode_patched(&bytes, event_thread, &last.to_le_bytes()).is_ok());
        let last = u32::from(last).to_le_bytes();
        assert!(decode_patched(&bytes, first_arrival(&log), &last).is_ok());
    }

    #[test]
    fn narrow_event_args_must_fit_u32() {
        // Every narrow arg is a 4-byte field, so a wider value cannot be
        // written at all; its widest value is a valid compute count and
        // is rejected as an id by the declared counts.
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        let widest = u32::MAX.to_le_bytes();
        let at = first_arg_of(&log, &bytes, TraceEventKind::Compute);
        let back = decode_patched(&bytes, at, &widest).unwrap();
        assert!(back.events().iter().any(|e| e.arg() == u32::MAX));
        for kind in [
            TraceEventKind::Acquire,
            TraceEventKind::Release,
            TraceEventKind::Signal,
            TraceEventKind::Wait,
            TraceEventKind::BarrierArrive,
            TraceEventKind::ChanSend,
            TraceEventKind::ChanRecv,
        ] {
            let at = first_arg_of(&log, &bytes, kind);
            let err = decode_patched(&bytes, at, &widest).unwrap_err();
            assert!(err.contains("out of range"), "{kind:?}: {err}");
        }
    }

    #[test]
    fn access_addresses_are_bounded() {
        // A 4-byte arg holds every word below MAX_LOG_ADDR, the top one
        // included; an unaligned address is refused, and the recorder
        // refuses a program that reaches past the top.
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        let top_word = (MAX_LOG_ADDR - 8) as u32;
        for kind in [
            TraceEventKind::Read,
            TraceEventKind::Write,
            TraceEventKind::Rmw,
        ] {
            let at = first_arg_of(&log, &bytes, kind);
            let top = decode_patched(&bytes, at, &top_word.to_le_bytes()).unwrap();
            let e = top.events().iter().find(|e| e.kind == kind).unwrap();
            assert_eq!(u64::from(e.arg()), MAX_LOG_ADDR - 8, "{kind:?}");
            for odd in [5u32, top_word + 4, u32::MAX] {
                let err = decode_patched(&bytes, at, &odd.to_le_bytes()).unwrap_err();
                assert!(
                    err.contains("not 8-byte aligned"),
                    "{kind:?} {odd:#x}: {err}"
                );
            }
        }
        let mut b = ProgramBuilder::new(1);
        b.thread(0).read(Addr(MAX_LOG_ADDR));
        let p = b.build();
        let recorded = std::panic::catch_unwind(|| {
            record_run(&p, &mut RoundRobin::new(), StepLimit::default())
        });
        let msg = recorded.unwrap_err();
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(msg.contains("MAX_LOG_ADDR"), "{msg}");
    }

    #[test]
    fn final_memory_addresses_are_bounded() {
        // One cell at 1 << 60 used to make `Memory::store` grow its page
        // table to 2^48 slots and abort the process.
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        // The last cell is the final 16 bytes: address, then value.
        let last_cell = bytes.len() - 16;
        let (a, _) = log.final_memory().iter().last().unwrap();
        assert_eq!(bytes[last_cell..last_cell + 8], a.0.to_le_bytes());
        for bad in [MAX_LOG_ADDR, 1 << 60] {
            let err = decode_patched(&bytes, last_cell, &bad.to_le_bytes()).unwrap_err();
            assert!(err.contains("memory cell address"), "{bad:#x}: {err}");
        }
        for odd in [a.0 + 3, MAX_LOG_ADDR - 1] {
            let err = decode_patched(&bytes, last_cell, &odd.to_le_bytes()).unwrap_err();
            assert!(err.contains("not 8-byte aligned"), "{odd:#x}: {err}");
        }
        let top = decode_patched(&bytes, last_cell, &(MAX_LOG_ADDR - 8).to_le_bytes()).unwrap();
        assert_eq!(top.final_memory().len(), log.final_memory().len());
    }

    #[test]
    fn thread_count_header_is_bounded() {
        // The header sizes every detector's per-thread state: zero threads
        // cannot carry an event, and an unbounded count is an allocation
        // of attacker-chosen size.
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        for bad in [0, MAX_LOG_THREADS + 1, 1 << 40] {
            let err = decode_patched(&bytes, 16, &bad.to_le_bytes()).unwrap_err();
            assert!(err.contains("thread count"), "{bad}: {err}");
        }
        let widest = decode_patched(&bytes, 16, &MAX_LOG_THREADS.to_le_bytes()).unwrap();
        assert_eq!(widest.thread_count() as u64, MAX_LOG_THREADS);
        assert_eq!(
            u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            log.thread_count() as u64,
            "the thread count is the third header word"
        );
    }

    const NO_IDS: IdCounts = IdCounts {
        locks: 0,
        conds: 0,
        barriers: 0,
        chans: 0,
    };

    /// A two-thread log with the given declared counts, events and
    /// barrier table, built without running anything.
    fn hand_built(ids: IdCounts, events: Vec<TraceEvent>, barriers: BarrierTable) -> EventLog {
        EventLog {
            threads: 2,
            ids,
            result: RunResult {
                status: RunStatus::Done,
                steps: events.len() as u64,
            },
            events,
            barriers,
            census: OpCensus::default(),
            memory: Arc::default(),
        }
    }

    /// Each of `kinds` naming id 2 decodes when `declare(3)` declares
    /// three ids, and is rejected, naming `what`, when `declare(2)`
    /// declares two. Either way the log itself encodes.
    fn ids_below_their_count(kinds: &[TraceEventKind], what: &str, declare: fn(u32) -> IdCounts) {
        for &kind in kinds {
            let event = TraceEvent::new(kind, ThreadId(1), SiteId(0), 2);
            let log = |n| hand_built(declare(n), vec![event], BarrierTable::default());
            let ok = EventLog::from_bytes(&log(3).to_bytes()).expect("id below its count");
            assert_eq!(ok.events(), [event]);
            let err = EventLog::from_bytes(&log(2).to_bytes()).unwrap_err();
            assert!(
                err.contains(&format!("{what} 2 out of range")),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn lock_ids_must_be_below_the_declared_count() {
        use TraceEventKind::*;
        ids_below_their_count(&[Acquire, Release], "lock", |locks| IdCounts {
            locks,
            ..NO_IDS
        });
    }

    #[test]
    fn condition_ids_must_be_below_the_declared_count() {
        use TraceEventKind::*;
        ids_below_their_count(&[Signal, Wait], "condition", |conds| IdCounts {
            conds,
            ..NO_IDS
        });
    }

    #[test]
    fn barrier_ids_must_be_below_the_declared_count() {
        ids_below_their_count(&[TraceEventKind::BarrierArrive], "barrier", |barriers| {
            IdCounts { barriers, ..NO_IDS }
        });
        // The release table names barriers too.
        let mut table = BarrierTable::default();
        let idx = table.push(
            BarrierId(2),
            &[(ThreadId(0), SiteId(0)), (ThreadId(1), SiteId(1))],
        );
        let release = TraceEvent::new(TraceEventKind::BarrierRelease, ThreadId(0), SiteId(0), idx);
        let log = |barriers| {
            let ids = IdCounts { barriers, ..NO_IDS };
            hand_built(ids, vec![release], table.clone())
        };
        assert!(EventLog::from_bytes(&log(3).to_bytes()).is_ok());
        let err = EventLog::from_bytes(&log(2).to_bytes()).unwrap_err();
        assert!(err.contains("released barrier 2 out of range"), "{err}");
    }

    #[test]
    fn channel_ids_must_be_below_the_declared_count() {
        use TraceEventKind::*;
        ids_below_their_count(&[ChanSend, ChanRecv], "channel", |chans| IdCounts {
            chans,
            ..NO_IDS
        });
    }

    #[test]
    fn spawns_and_joins_of_the_executing_thread_are_decode_errors() {
        // FastTrack splits its clock table at the two threads, which
        // indexes out of bounds when they are the same thread.
        for kind in [TraceEventKind::Spawn, TraceEventKind::Join] {
            let event = |child| TraceEvent::new(kind, ThreadId(1), SiteId(0), child);
            let log = |child| hand_built(NO_IDS, vec![event(child)], BarrierTable::default());
            assert!(EventLog::from_bytes(&log(0).to_bytes()).is_ok(), "{kind:?}");
            let err = EventLog::from_bytes(&log(1).to_bytes()).unwrap_err();
            assert!(err.contains("by itself"), "{kind:?}: {err}");
        }
    }

    #[test]
    fn declared_id_counts_are_bounded() {
        // The counts follow the thread count in the header. A count above
        // its cap is rejected before anything is sized from it.
        let log = all_kinds_log();
        let bytes = log.to_bytes();
        for (word, cap) in [
            (3, MAX_LOG_LOCKS),
            (4, MAX_LOG_CONDS),
            (5, MAX_LOG_BARRIERS),
            (6, MAX_LOG_CHANS),
        ] {
            for bad in [cap + 1, 1 << 40] {
                let err = decode_patched(&bytes, 8 * word, &bad.to_le_bytes()).unwrap_err();
                assert!(err.contains(&format!("count {bad} above {cap}")), "{err}");
            }
            assert!(decode_patched(&bytes, 8 * word, &cap.to_le_bytes()).is_ok());
        }
        assert_eq!(
            bytes[24..56],
            [
                log.ids.locks,
                log.ids.conds,
                log.ids.barriers,
                log.ids.chans
            ]
            .map(|n| u64::from(n).to_le_bytes())
            .concat()
        );
    }

    #[test]
    fn record_run_rejects_programs_beyond_the_format() {
        let panics = |p: &Program| {
            let recorded = std::panic::catch_unwind(|| {
                record_run(p, &mut RoundRobin::new(), StepLimit::default())
            });
            let msg = recorded.unwrap_err();
            msg.downcast_ref::<String>().unwrap().clone()
        };
        let mut b = ProgramBuilder::new(1);
        for i in 0..=MAX_LOG_LOCKS {
            b.lock_id(&format!("l{i}"));
        }
        let msg = panics(&b.build());
        assert!(msg.contains("locks exceed"), "{msg}");
        let msg = panics(&ProgramBuilder::new(MAX_LOG_THREADS as usize + 1).build());
        assert!(msg.contains("MAX_LOG_THREADS"), "{msg}");
    }

    #[test]
    fn final_memory_cells_must_ascend() {
        // Cells re-encode in address order, so only ascending, distinct
        // addresses round-trip byte for byte.
        let mut memory = Memory::new();
        memory.store(Addr(8), 1);
        memory.store(Addr(16), 2);
        let mut log = hand_built(NO_IDS, Vec::new(), BarrierTable::default());
        log.memory = Arc::new(memory);
        let bytes = log.to_bytes();
        let back = EventLog::from_bytes(&bytes).unwrap();
        assert_eq!(back.final_memory(), log.final_memory());
        let second = bytes.len() - 16;
        for addr in [8u64, 0] {
            let err = decode_patched(&bytes, second, &addr.to_le_bytes()).unwrap_err();
            assert!(err.contains("out of order"), "{addr}: {err}");
        }
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
        let log = round_robin_log(&p);
        let releases: Vec<&TraceEvent> = log
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::BarrierRelease)
            .collect();
        assert_eq!(releases.len(), 1);
        let (released, arrivals) = log.barriers().release_arrivals(releases[0].arg);
        assert_eq!(released, bar);
        assert_eq!(arrivals.len(), 2, "both threads arrive before the release");
    }
}
