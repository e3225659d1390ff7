//! The concurrent-program intermediate representation.
//!
//! A [`Program`] is a fixed set of threads, each a tree of [`Stmt`]s:
//! straight-line [`Op`]s and statically-bounded loops. The IR stands in
//! for the LLVM IR the original TxRace instruments — the
//! transactionalization pass in the `txrace` crate walks this tree and
//! inserts [`Op::TxBegin`]/[`Op::TxEnd`] markers exactly where the paper's
//! compile-time pass inserts `xbegin`/`xend`.
//!
//! Every op carries a [`SiteId`]: the static identity of that instruction.
//! Dynamic race reports are pairs of sites, matching the paper's static
//! counting of "racy instruction pairs".

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::addr::{Addr, VarLayout, WORD_BYTES};
use crate::ids::{BarrierId, ChanId, CondId, LockId, LoopId, RegionId, SiteId, ThreadId};

/// Flavor of a system call. The simulator gives syscalls no semantics
/// beyond their cost and the fact that transactions must be cut around
/// them (a privilege-level change always aborts an RTM transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    /// Standard I/O (`read`/`write` in the paper's library-boundary cut).
    Io,
    /// Dynamic memory management (`malloc`).
    Alloc,
    /// Dynamic memory management (`free`).
    Free,
    /// Any other system call.
    Other,
}

/// One dynamic operation.
///
/// `TxBegin`, `TxEnd`, and `LoopCutProbe` are *instrumentation markers*:
/// the plain interpreter treats them as no-ops; detector runtimes (the
/// TxRace engine) interpret them as transaction boundaries and loop-cut
/// probe points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Load from shared memory.
    Read(Addr),
    /// Store a constant to shared memory.
    Write(Addr, u64),
    /// Atomic fetch-add (models `lock xadd` style accesses).
    Rmw(Addr, u64),
    /// Indexed load: the effective address is
    /// `base + stride * i`, where `i` is the zero-based iteration index of
    /// the *innermost* enclosing loop (0 outside loops). This is how a
    /// loop walks a buffer (one static site, many addresses); re-entering
    /// the loop re-walks the same addresses.
    ReadArr {
        /// Array base address.
        base: Addr,
        /// Byte stride per flat iteration.
        stride: u64,
    },
    /// Indexed store (see [`Op::ReadArr`] for addressing).
    WriteArr {
        /// Array base address.
        base: Addr,
        /// Byte stride per flat iteration.
        stride: u64,
        /// Value stored.
        val: u64,
    },
    /// Acquire a mutex (blocking).
    Lock(LockId),
    /// Release a mutex.
    Unlock(LockId),
    /// Semaphore post; establishes a happens-before edge to a `Wait`.
    Signal(CondId),
    /// Semaphore wait (blocking until a `Signal`).
    Wait(CondId),
    /// Barrier arrival (blocking until all participants arrive).
    Barrier(BarrierId),
    /// Send one message into a bounded channel (blocking while the
    /// channel is at capacity). Establishes a happens-before edge to the
    /// `ChanRecv` that takes the message.
    ChanSend(ChanId),
    /// Receive one message from a bounded channel (blocking while the
    /// channel is empty).
    ChanRecv(ChanId),
    /// Start a parked thread; establishes a happens-before edge.
    Spawn(ThreadId),
    /// Wait for a thread to finish; establishes a happens-before edge.
    Join(ThreadId),
    /// A system call: transactions must be cut around it.
    Syscall(SyscallKind),
    /// Thread-local computation costing the given number of cycles.
    Compute(u32),
    /// Instrumentation marker: transactional region begins.
    TxBegin(RegionId),
    /// Instrumentation marker: transactional region ends.
    TxEnd(RegionId),
    /// Instrumentation marker: loop-cut probe at the end of a loop body.
    LoopCutProbe(LoopId),
}

impl Op {
    /// True for shared-memory data accesses (the ops a race detector
    /// instruments).
    pub fn is_data_access(&self) -> bool {
        matches!(
            self,
            Op::Read(_)
                | Op::Write(_, _)
                | Op::Rmw(_, _)
                | Op::ReadArr { .. }
                | Op::WriteArr { .. }
        )
    }

    /// True for synchronization operations (region boundaries in the
    /// transactionalization pass, happens-before sources/sinks in the
    /// detector).
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Op::Lock(_)
                | Op::Unlock(_)
                | Op::Signal(_)
                | Op::Wait(_)
                | Op::Barrier(_)
                | Op::ChanSend(_)
                | Op::ChanRecv(_)
                | Op::Spawn(_)
                | Op::Join(_)
        )
    }

    /// The statically-known address touched by a data access, if any.
    /// Indexed accesses ([`Op::ReadArr`]/[`Op::WriteArr`]) return `None`
    /// because their address depends on the loop iteration.
    pub fn access_addr(&self) -> Option<Addr> {
        match self {
            Op::Read(a) | Op::Write(a, _) | Op::Rmw(a, _) => Some(*a),
            _ => None,
        }
    }

    /// True if this data access writes.
    pub fn is_write_access(&self) -> bool {
        matches!(self, Op::Write(_, _) | Op::Rmw(_, _) | Op::WriteArr { .. })
    }
}

/// A statement: a single op or a statically-bounded loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// One operation at a static site.
    Op {
        /// Static identity of this instruction.
        site: SiteId,
        /// The operation.
        op: Op,
    },
    /// A counted loop. `trips` is the static trip count.
    Loop {
        /// Static identity of this loop (loop-cut bookkeeping key).
        id: LoopId,
        /// Number of iterations.
        trips: u32,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Whether `pred` holds for any op in this statement's subtree
    /// (loop bodies included, whatever their trip count).
    pub fn any_op(&self, pred: &impl Fn(&Op) -> bool) -> bool {
        match self {
            Stmt::Op { op, .. } => pred(op),
            Stmt::Loop { body, .. } => body.iter().any(|s| s.any_op(pred)),
        }
    }
}

/// A complete multithreaded program.
///
/// Construct with [`ProgramBuilder`]. Threads that are the target of a
/// [`Op::Spawn`] start parked; all others start runnable.
///
/// Storage is exact-size: every statement list, loop bodies included,
/// holds no spare capacity, and the per-object tables are boxed slices.
/// Site labels live in one sparse table of the labelled sites only,
/// sorted by site and shared by `Arc` with every copy
/// [`Program::with_transformed_threads`] makes.
#[derive(Debug, Clone)]
pub struct Program {
    threads: Box<[Box<[Stmt]>]>,
    n_sites: u32,
    n_locks: u32,
    n_conds: u32,
    n_barriers: u32,
    chan_caps: Box<[u64]>,
    parked: Box<[bool]>,
    barrier_widths: Box<[u32]>,
    labels: Arc<[(SiteId, Box<str>)]>,
}

impl Program {
    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The statement tree of one thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn thread(&self, t: ThreadId) -> &[Stmt] {
        &self.threads[t.index()]
    }

    /// Number of distinct static sites.
    pub fn site_count(&self) -> u32 {
        self.n_sites
    }

    /// Number of mutexes referenced.
    pub fn lock_count(&self) -> u32 {
        self.n_locks
    }

    /// Number of condition semaphores referenced.
    pub fn cond_count(&self) -> u32 {
        self.n_conds
    }

    /// Number of barriers referenced.
    pub fn barrier_count(&self) -> u32 {
        self.n_barriers
    }

    /// Number of bounded channels referenced.
    pub fn chan_count(&self) -> u32 {
        self.chan_caps.len() as u32
    }

    /// Capacity (message slots) of channel `ch`.
    pub fn chan_capacity(&self, ch: ChanId) -> u64 {
        self.chan_caps[ch.index()]
    }

    /// Whether thread `t` starts parked (it is the target of a `Spawn`).
    pub fn starts_parked(&self, t: ThreadId) -> bool {
        self.parked[t.index()]
    }

    /// Number of threads participating in barrier `b`.
    pub fn barrier_width(&self, b: BarrierId) -> u32 {
        self.barrier_widths[b.index()]
    }

    /// Looks up the site labeled `name` by the builder (a scan of the
    /// label table; no per-event path calls it).
    pub fn site(&self, name: &str) -> Option<SiteId> {
        self.labels
            .iter()
            .find(|(_, l)| **l == *name)
            .map(|&(s, _)| s)
    }

    /// The label attached to `site`, if any.
    pub fn label_of(&self, site: SiteId) -> Option<&str> {
        self.labels
            .binary_search_by_key(&site, |&(s, _)| s)
            .ok()
            .map(|i| &*self.labels[i].1)
    }

    /// The labelled sites with their labels, sorted by site. Copies made
    /// by [`Program::with_transformed_threads`] share this table.
    pub fn labels(&self) -> &[(SiteId, Box<str>)] {
        &self.labels
    }

    /// Visits every static op once (loop bodies visited once, not per
    /// trip), in program order per thread.
    pub fn visit_static(&self, f: &mut impl FnMut(ThreadId, SiteId, &Op)) {
        fn walk(t: ThreadId, stmts: &[Stmt], f: &mut impl FnMut(ThreadId, SiteId, &Op)) {
            for s in stmts {
                match s {
                    Stmt::Op { site, op } => f(t, *site, op),
                    Stmt::Loop { body, .. } => walk(t, body, f),
                }
            }
        }
        for (i, stmts) in self.threads.iter().enumerate() {
            walk(ThreadId(i as u32), stmts, f);
        }
    }

    /// Visits every static op once with its site and trip weight: the
    /// number of times it executes (nested loops multiply, saturating).
    pub(crate) fn visit_dynamic(&self, f: &mut impl FnMut(SiteId, &Op, u64)) {
        fn walk(stmts: &[Stmt], mult: u64, f: &mut impl FnMut(SiteId, &Op, u64)) {
            for s in stmts {
                match s {
                    Stmt::Op { site, op } => f(*site, op, mult),
                    Stmt::Loop { trips, body, .. } => {
                        walk(body, mult.saturating_mul(u64::from(*trips)), f)
                    }
                }
            }
        }
        for t in &self.threads {
            walk(t, 1, f);
        }
    }

    /// Folds over every *dynamic* op: loop bodies are weighted by their
    /// trip counts (nested loops multiply).
    pub fn fold_dynamic<F: FnMut(&Op) -> u64>(&self, mut f: F) -> u64 {
        let mut sum = 0u64;
        self.visit_dynamic(&mut |_, op, n| sum += n.saturating_mul(f(op)));
        sum
    }

    /// Total dynamic count of shared-memory data accesses.
    pub fn dynamic_access_count(&self) -> u64 {
        self.fold_dynamic(|op| u64::from(op.is_data_access()))
    }

    /// Rebuilds this program with transformed thread bodies — the hook an
    /// instrumentation pass uses. All metadata (sync-object counts, loop
    /// count) carries over and the label table is shared, not copied;
    /// `n_sites` must cover any new sites the transformation minted
    /// (marker instructions). The bodies are trimmed to exact size.
    ///
    /// # Panics
    ///
    /// Panics if the thread count changes, if `n_sites` shrinks, or if the
    /// transformed bodies violate the same spawn/join invariants
    /// [`ProgramBuilder::build`] enforces.
    pub fn with_transformed_threads(&self, threads: Vec<Vec<Stmt>>, n_sites: u32) -> Program {
        assert_eq!(
            threads.len(),
            self.threads.len(),
            "transformation must preserve the thread count"
        );
        assert!(n_sites >= self.n_sites, "site count cannot shrink");
        let (parked, barrier_widths) = analyze_threads(
            &threads,
            self.n_locks,
            self.n_conds,
            self.n_barriers,
            self.chan_count(),
        );
        Program {
            threads: exact_threads(threads),
            n_sites,
            n_locks: self.n_locks,
            n_conds: self.n_conds,
            n_barriers: self.n_barriers,
            chan_caps: self.chan_caps.clone(),
            parked,
            barrier_widths,
            labels: Arc::clone(&self.labels),
        }
    }
}

/// Trims every thread body, loop bodies included, to exact size.
fn exact_threads(threads: Vec<Vec<Stmt>>) -> Box<[Box<[Stmt]>]> {
    fn trim(stmts: &mut Vec<Stmt>) {
        stmts.shrink_to_fit();
        for s in stmts {
            if let Stmt::Loop { body, .. } = s {
                trim(body);
            }
        }
    }
    threads
        .into_iter()
        .map(|mut t| {
            trim(&mut t);
            t.into_boxed_slice()
        })
        .collect()
}

/// Validates spawn/join structure, that every lock, condition, barrier
/// and channel an op names is declared (the interpreter and the static
/// passes size their tables by the declared counts), and that every data
/// access is word-aligned (memory and shadow tables are keyed by
/// [`Addr::word`]: an array's base and stride must be multiples of 8),
/// and derives parked flags and barrier widths. Shared by
/// [`ProgramBuilder::build`] and [`Program::with_transformed_threads`].
fn analyze_threads(
    threads: &[Vec<Stmt>],
    n_locks: u32,
    n_conds: u32,
    n_barriers: u32,
    n_chans: u32,
) -> (Box<[bool]>, Box<[u32]>) {
    fn each_op(stmts: &[Stmt], f: &mut impl FnMut(&Op)) {
        for s in stmts {
            match s {
                Stmt::Op { op, .. } => f(op),
                Stmt::Loop { body, .. } => each_op(body, f),
            }
        }
    }
    #[cold]
    fn undeclared(what: &str, id: &dyn fmt::Display) -> ! {
        panic!("use of undeclared {what} {id}")
    }
    #[cold]
    fn unaligned(what: &str, value: &dyn fmt::Display) -> ! {
        panic!("unaligned {what} {value}: accesses must be 8-byte aligned")
    }
    let n = threads.len();
    let mut parked = vec![false; n].into_boxed_slice();
    let mut members: Vec<std::collections::BTreeSet<u32>> =
        vec![Default::default(); n_barriers as usize];
    for (t, stmts) in threads.iter().enumerate() {
        each_op(stmts, &mut |op| match op {
            Op::Spawn(u) => {
                assert!(u.index() < n, "spawn of nonexistent thread {u}");
                assert_ne!(u.index(), t, "thread {t} spawns itself");
                assert_ne!(u.index(), 0, "the main thread cannot be spawned");
                assert!(!parked[u.index()], "thread {u} spawned twice");
                parked[u.index()] = true;
            }
            Op::Join(u) => {
                assert!(u.index() < n, "join of nonexistent thread {u}");
                assert_ne!(u.index(), t, "thread {t} joins itself");
            }
            Op::Lock(l) | Op::Unlock(l) if l.0 >= n_locks => undeclared("lock", l),
            Op::Signal(c) | Op::Wait(c) if c.0 >= n_conds => undeclared("condition", c),
            Op::ChanSend(ch) | Op::ChanRecv(ch) if ch.0 >= n_chans => undeclared("channel", ch),
            Op::Barrier(b) if b.0 >= n_barriers => undeclared("barrier", b),
            Op::Barrier(b) => {
                members[b.index()].insert(t as u32);
            }
            Op::Read(a) | Op::Write(a, _) | Op::Rmw(a, _) if !a.is_aligned() => {
                unaligned("address", a)
            }
            Op::ReadArr { base, .. } | Op::WriteArr { base, .. } if !base.is_aligned() => {
                unaligned("array base", base)
            }
            Op::ReadArr { stride, .. } | Op::WriteArr { stride, .. }
                if !stride.is_multiple_of(WORD_BYTES) =>
            {
                unaligned("stride", stride)
            }
            _ => {}
        });
    }
    let widths = members.iter().map(|m| m.len() as u32).collect();
    (parked, widths)
}

/// Incrementally builds a [`Program`].
///
/// The builder owns the variable layout (see [`VarLayout`]) and assigns
/// static sites, so workloads can label interesting accesses and later
/// resolve them for ground-truth race manifests.
#[derive(Debug)]
pub struct ProgramBuilder {
    threads: Vec<Vec<Stmt>>,
    next_site: u32,
    next_loop: u32,
    next_lock: u32,
    next_cond: u32,
    next_barrier: u32,
    layout: VarLayout,
    labels: HashMap<String, SiteId>,
    lock_names: HashMap<String, LockId>,
    cond_names: HashMap<String, CondId>,
    barrier_names: HashMap<String, BarrierId>,
    chan_names: HashMap<String, ChanId>,
    chan_caps: Vec<u64>,
}

impl ProgramBuilder {
    /// Creates a builder for a program with `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a program needs at least one thread");
        ProgramBuilder {
            threads: vec![Vec::new(); threads],
            next_site: 0,
            next_loop: 0,
            next_lock: 0,
            next_cond: 0,
            next_barrier: 0,
            layout: VarLayout::new(),
            labels: HashMap::new(),
            lock_names: HashMap::new(),
            cond_names: HashMap::new(),
            barrier_names: HashMap::new(),
            chan_names: HashMap::new(),
            chan_caps: Vec::new(),
        }
    }

    /// Allocates a fresh 8-byte variable on its own cache line.
    /// The `name` is only for readability; names need not be unique.
    pub fn var(&mut self, name: &str) -> Addr {
        let _ = name;
        self.layout.fresh_line()
    }

    /// Allocates a variable sharing the cache line of `base` at the given
    /// offset — the false-sharing primitive.
    pub fn var_sharing_line(&mut self, base: Addr, offset_in_line: u64) -> Addr {
        self.layout.same_line(base, offset_in_line)
    }

    /// Allocates an array of `len` 8-byte elements.
    pub fn array(&mut self, name: &str, len: usize) -> Addr {
        let _ = name;
        self.layout.array(len)
    }

    /// Returns the mutex with the given name, allocating it on first use.
    pub fn lock_id(&mut self, name: &str) -> LockId {
        if let Some(&l) = self.lock_names.get(name) {
            return l;
        }
        let l = LockId(self.next_lock);
        self.next_lock += 1;
        self.lock_names.insert(name.to_owned(), l);
        l
    }

    /// Returns the condition semaphore with the given name, allocating it
    /// on first use.
    pub fn cond_id(&mut self, name: &str) -> CondId {
        if let Some(&c) = self.cond_names.get(name) {
            return c;
        }
        let c = CondId(self.next_cond);
        self.next_cond += 1;
        self.cond_names.insert(name.to_owned(), c);
        c
    }

    /// Returns the barrier with the given name, allocating it on first use.
    pub fn barrier_id(&mut self, name: &str) -> BarrierId {
        if let Some(&b) = self.barrier_names.get(name) {
            return b;
        }
        let b = BarrierId(self.next_barrier);
        self.next_barrier += 1;
        self.barrier_names.insert(name.to_owned(), b);
        b
    }

    /// Returns the bounded channel with the given name, allocating it
    /// with `cap` message slots on first use.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`, or if the channel was already declared with
    /// a different capacity.
    pub fn chan_id(&mut self, name: &str, cap: u64) -> ChanId {
        assert!(cap >= 1, "channel {name:?} needs at least one slot");
        if let Some(&ch) = self.chan_names.get(name) {
            assert_eq!(
                self.chan_caps[ch.index()],
                cap,
                "channel {name:?} redeclared with a different capacity"
            );
            return ch;
        }
        let ch = ChanId(self.chan_caps.len() as u32);
        self.chan_caps.push(cap);
        self.chan_names.insert(name.to_owned(), ch);
        ch
    }

    /// Opens a [`ThreadBuilder`] appending to thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn thread(&mut self, t: usize) -> ThreadBuilder<'_> {
        assert!(t < self.threads.len(), "thread {t} out of range");
        ThreadBuilder {
            pb: self,
            t,
            frames: Vec::new(),
        }
    }

    fn fresh_site(&mut self, label: Option<&str>) -> SiteId {
        let s = SiteId(self.next_site);
        self.next_site += 1;
        if let Some(l) = label {
            let prev = self.labels.insert(l.to_owned(), s);
            assert!(prev.is_none(), "duplicate site label {l:?}");
        }
        s
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics on malformed programs: a `Spawn` targeting the main thread or
    /// a nonexistent thread, a thread spawned more than once, a
    /// `Join`/`Spawn` self-target, an op naming a lock, condition,
    /// barrier or channel the builder did not declare, or a data access
    /// that is not 8-byte aligned (an address, an array base, or an array
    /// stride that is not a multiple of 8).
    pub fn build(self) -> Program {
        let (parked, barrier_widths) = analyze_threads(
            &self.threads,
            self.next_lock,
            self.next_cond,
            self.next_barrier,
            self.chan_caps.len() as u32,
        );
        let mut labels: Vec<(SiteId, Box<str>)> = self
            .labels
            .into_iter()
            .map(|(l, s)| (s, l.into_boxed_str()))
            .collect();
        labels.sort_unstable_by_key(|&(s, _)| s);
        Program {
            threads: exact_threads(self.threads),
            n_sites: self.next_site,
            n_locks: self.next_lock,
            n_conds: self.next_cond,
            n_barriers: self.next_barrier,
            chan_caps: self.chan_caps.into_boxed_slice(),
            parked,
            barrier_widths,
            labels: labels.into(),
        }
    }
}

/// Appends statements to one thread of a [`ProgramBuilder`].
///
/// All methods return `&mut Self` for chaining. Use [`ThreadBuilder::loop_n`]
/// for counted loops.
#[derive(Debug)]
pub struct ThreadBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    t: usize,
    /// Open loop-body frames; empty means appending at top level.
    frames: Vec<Vec<Stmt>>,
}

impl ThreadBuilder<'_> {
    fn push(&mut self, stmt: Stmt) {
        match self.frames.last_mut() {
            Some(f) => f.push(stmt),
            None => self.pb.threads[self.t].push(stmt),
        }
    }

    fn push_op(&mut self, op: Op, label: Option<&str>) -> &mut Self {
        let site = self.pb.fresh_site(label);
        self.push(Stmt::Op { site, op });
        self
    }

    /// Appends a shared read.
    pub fn read(&mut self, a: Addr) -> &mut Self {
        self.push_op(Op::Read(a), None)
    }

    /// Appends a labeled shared read; the label can later be resolved with
    /// [`Program::site`].
    pub fn read_l(&mut self, a: Addr, label: &str) -> &mut Self {
        self.push_op(Op::Read(a), Some(label))
    }

    /// Appends a shared write of a constant.
    pub fn write(&mut self, a: Addr, v: u64) -> &mut Self {
        self.push_op(Op::Write(a, v), None)
    }

    /// Appends a labeled shared write.
    pub fn write_l(&mut self, a: Addr, v: u64, label: &str) -> &mut Self {
        self.push_op(Op::Write(a, v), Some(label))
    }

    /// Appends an atomic fetch-add.
    pub fn rmw(&mut self, a: Addr, delta: u64) -> &mut Self {
        self.push_op(Op::Rmw(a, delta), None)
    }

    /// Appends a labeled atomic fetch-add.
    pub fn rmw_l(&mut self, a: Addr, delta: u64, label: &str) -> &mut Self {
        self.push_op(Op::Rmw(a, delta), Some(label))
    }

    /// Appends an indexed load walking an array with the enclosing loops
    /// (address = `base + stride * flat_iteration`).
    pub fn read_arr(&mut self, base: Addr, stride: u64) -> &mut Self {
        self.push_op(Op::ReadArr { base, stride }, None)
    }

    /// Appends a labeled indexed load.
    pub fn read_arr_l(&mut self, base: Addr, stride: u64, label: &str) -> &mut Self {
        self.push_op(Op::ReadArr { base, stride }, Some(label))
    }

    /// Appends an indexed store walking an array with the enclosing loops.
    pub fn write_arr(&mut self, base: Addr, stride: u64, val: u64) -> &mut Self {
        self.push_op(Op::WriteArr { base, stride, val }, None)
    }

    /// Appends a labeled indexed store.
    pub fn write_arr_l(&mut self, base: Addr, stride: u64, val: u64, label: &str) -> &mut Self {
        self.push_op(Op::WriteArr { base, stride, val }, Some(label))
    }

    /// Appends a mutex acquire.
    pub fn lock(&mut self, l: LockId) -> &mut Self {
        self.push_op(Op::Lock(l), None)
    }

    /// Appends a mutex release.
    pub fn unlock(&mut self, l: LockId) -> &mut Self {
        self.push_op(Op::Unlock(l), None)
    }

    /// Appends a semaphore post.
    pub fn signal(&mut self, c: CondId) -> &mut Self {
        self.push_op(Op::Signal(c), None)
    }

    /// Appends a semaphore wait.
    pub fn wait(&mut self, c: CondId) -> &mut Self {
        self.push_op(Op::Wait(c), None)
    }

    /// Appends a barrier arrival.
    pub fn barrier(&mut self, b: BarrierId) -> &mut Self {
        self.push_op(Op::Barrier(b), None)
    }

    /// Appends a bounded-channel send.
    pub fn send(&mut self, ch: ChanId) -> &mut Self {
        self.push_op(Op::ChanSend(ch), None)
    }

    /// Appends a bounded-channel receive.
    pub fn recv(&mut self, ch: ChanId) -> &mut Self {
        self.push_op(Op::ChanRecv(ch), None)
    }

    /// Appends a thread spawn.
    pub fn spawn(&mut self, t: ThreadId) -> &mut Self {
        self.push_op(Op::Spawn(t), None)
    }

    /// Appends a thread join.
    pub fn join(&mut self, t: ThreadId) -> &mut Self {
        self.push_op(Op::Join(t), None)
    }

    /// Appends a system call.
    pub fn syscall(&mut self, kind: SyscallKind) -> &mut Self {
        self.push_op(Op::Syscall(kind), None)
    }

    /// Appends `cycles` of thread-local computation.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.push_op(Op::Compute(cycles), None)
    }

    /// Appends a counted loop; `body` populates the loop body through the
    /// same builder.
    ///
    /// ```
    /// # use txrace_sim::ProgramBuilder;
    /// let mut b = ProgramBuilder::new(1);
    /// let x = b.var("x");
    /// b.thread(0).loop_n(10, |t| {
    ///     t.read(x).compute(5);
    /// });
    /// let p = b.build();
    /// assert_eq!(p.dynamic_access_count(), 10);
    /// ```
    pub fn loop_n(&mut self, trips: u32, body: impl FnOnce(&mut Self)) -> &mut Self {
        let id = LoopId(self.pb.next_loop);
        self.pb.next_loop += 1;
        self.frames.push(Vec::new());
        body(self);
        let body_stmts = self.frames.pop().expect("frame pushed above");
        self.push(Stmt::Loop {
            id,
            trips,
            body: body_stmts,
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_sites() {
        let mut b = ProgramBuilder::new(2);
        let x = b.var("x");
        b.thread(0).read(x).write(x, 1);
        b.thread(1).read_l(x, "r1");
        let p = b.build();
        assert_eq!(p.site_count(), 3);
        assert_eq!(p.site("r1"), Some(SiteId(2)));
        assert_eq!(p.label_of(SiteId(2)), Some("r1"));
        assert_eq!(p.label_of(SiteId(0)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate site label")]
    fn duplicate_labels_rejected() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).read_l(x, "a").read_l(x, "a");
    }

    #[test]
    fn fold_dynamic_multiplies_loops() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(4, |t| {
            t.write(x, 1);
            t.loop_n(3, |t| {
                t.read(x);
            });
        });
        let p = b.build();
        assert_eq!(p.dynamic_access_count(), 4 + 4 * 3);
    }

    #[test]
    fn spawned_threads_start_parked() {
        let mut b = ProgramBuilder::new(3);
        b.thread(0).spawn(ThreadId(1)).join(ThreadId(1));
        let p = b.build();
        assert!(p.starts_parked(ThreadId(1)));
        assert!(!p.starts_parked(ThreadId(2)));
        assert!(!p.starts_parked(ThreadId(0)));
    }

    #[test]
    #[should_panic(expected = "spawned twice")]
    fn double_spawn_rejected() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0).spawn(ThreadId(1)).spawn(ThreadId(1));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "cannot be spawned")]
    fn spawn_main_rejected() {
        let mut b = ProgramBuilder::new(2);
        b.thread(1).spawn(ThreadId(0));
        let _ = b.build();
    }

    #[test]
    fn barrier_width_counts_participants() {
        let mut b = ProgramBuilder::new(3);
        let bar = b.barrier_id("bar");
        b.thread(0).barrier(bar);
        b.thread(1).barrier(bar);
        let p = b.build();
        assert_eq!(p.barrier_width(bar), 2);
    }

    #[test]
    fn named_sync_objects_are_interned() {
        let mut b = ProgramBuilder::new(1);
        let l1 = b.lock_id("l");
        let l2 = b.lock_id("l");
        let l3 = b.lock_id("other");
        assert_eq!(l1, l2);
        assert_ne!(l1, l3);
        assert_eq!(b.build().lock_count(), 2);
    }

    #[test]
    fn visit_static_sees_each_loop_body_once() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(100, |t| {
            t.read(x);
        });
        let p = b.build();
        let mut n = 0;
        p.visit_static(&mut |_, _, _| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn op_classification() {
        let a = Addr(64);
        assert!(Op::Read(a).is_data_access());
        assert!(!Op::Read(a).is_write_access());
        assert!(Op::Rmw(a, 1).is_write_access());
        assert!(Op::Lock(LockId(0)).is_sync());
        assert_eq!(Op::Write(a, 3).access_addr(), Some(a));
        assert_eq!(Op::Compute(5).access_addr(), None);
        assert!(!Op::Syscall(SyscallKind::Io).is_sync());
        assert!(Op::ChanSend(ChanId(0)).is_sync());
        assert!(Op::ChanRecv(ChanId(0)).is_sync());
        assert!(!Op::ChanSend(ChanId(0)).is_data_access());
    }

    #[test]
    fn named_channels_are_interned_with_capacity() {
        let mut b = ProgramBuilder::new(2);
        let c1 = b.chan_id("work", 4);
        let c2 = b.chan_id("work", 4);
        let c3 = b.chan_id("done", 1);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        b.thread(0).send(c1);
        b.thread(1).recv(c1);
        let p = b.build();
        assert_eq!(p.chan_count(), 2);
        assert_eq!(p.chan_capacity(c1), 4);
        assert_eq!(p.chan_capacity(c3), 1);
    }

    #[test]
    #[should_panic(expected = "different capacity")]
    fn channel_capacity_mismatch_rejected() {
        let mut b = ProgramBuilder::new(1);
        b.chan_id("work", 4);
        b.chan_id("work", 8);
    }

    #[test]
    #[should_panic(expected = "undeclared channel")]
    fn undeclared_channel_rejected() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0).send(ChanId(3));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "undeclared lock")]
    fn undeclared_lock_rejected() {
        let mut b = ProgramBuilder::new(1);
        let l = b.lock_id("l");
        b.thread(0).lock(l).lock(LockId(9));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "unaligned address 0xc")]
    fn unaligned_write_rejected() {
        let mut b = ProgramBuilder::new(1);
        b.thread(0).write(Addr(8), 1).write(Addr(12), 2);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "unaligned stride 4")]
    fn unaligned_array_stride_rejected() {
        let mut b = ProgramBuilder::new(1);
        let arr = b.array("a", 8);
        b.thread(0).loop_n(4, |t| {
            t.write_arr(arr, 4, 1);
        });
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "undeclared condition")]
    fn undeclared_condition_rejected() {
        let mut b = ProgramBuilder::new(1);
        let c = b.cond_id("c");
        b.thread(0).signal(c).wait(CondId(9));
        let _ = b.build();
    }
}
