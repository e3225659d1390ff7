//! Flattening of the structured IR into linear per-thread instruction
//! streams with explicit loop control, so thread state is a plain program
//! counter plus a loop stack — cheap to snapshot and restore, which is
//! exactly what transactional rollback needs.
//!
//! Instructions are packed to 16 bytes ([`Instr`]): a one-byte
//! [`InstrKind`] tag, the site (or loop) id, and two 32-bit operand
//! slots. Wide operands (addresses, immediate values, array strides)
//! live in a per-thread `u64` operand pool ([`FlatThread::pool`])
//! addressed by the `a` slot; jump targets are 32-bit. The packed form
//! fits four instructions per 64-byte cache line where the old
//! enum-of-[`Op`] layout fit one and a half.
//!
//! The interpreter executes this form directly. One interpreter step
//! is one `match` on the [`InstrKind`] tag, and that arm does all of
//! the step's work: it reads the operands (the `a` slot, or the pool
//! words it points at), decides whether the op blocks, and runs the
//! op's effect between the runtime hooks. Data and compute arms skip
//! the wake, spawn, barrier and fault bookkeeping that only sync ops
//! need. The hooks receive the decoded operands as typed arguments,
//! bit-identical to the [`Op`] the flattener consumed, so RNG draws and
//! detection outputs do not depend on the packed layout.

use crate::ids::{LoopId, SiteId, ThreadId};
use crate::ir::{Op, Program, Stmt, SyscallKind};

/// Discriminates [`Instr`], ordered hot-first: the data accesses and
/// compute ops that dominate every workload's dynamic stream take the
/// low discriminants, loop control (hot in loopy threads) comes next,
/// and the rare instrumentation markers sit at the end — the ordering a
/// computed-goto dispatcher would want.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum InstrKind {
    /// [`Op::Read`]; pool\[a\] = address.
    Read,
    /// [`Op::Write`]; pool\[a\] = address, pool\[a+1\] = value.
    Write,
    /// [`Op::ReadArr`]; pool\[a\] = base, pool\[a+1\] = stride.
    ReadArr,
    /// [`Op::WriteArr`]; pool\[a..a+3\] = base, stride, value.
    WriteArr,
    /// [`Op::Rmw`]; pool\[a\] = address, pool\[a+1\] = delta.
    Rmw,
    /// [`Op::Compute`]; `a` = units.
    Compute,
    /// Loop latch: `a` = body start; the id rides the site slot.
    LoopBack,
    /// Loop header: `a` = trips, `b` = index of the matching
    /// [`InstrKind::LoopBack`]; the id rides the site slot.
    LoopEnter,
    /// [`Op::Lock`]; `a` = lock id.
    Lock,
    /// [`Op::Unlock`]; `a` = lock id.
    Unlock,
    /// [`Op::Barrier`]; `a` = barrier id.
    Barrier,
    /// [`Op::ChanSend`]; `a` = channel id.
    ChanSend,
    /// [`Op::ChanRecv`]; `a` = channel id.
    ChanRecv,
    /// [`Op::Signal`]; `a` = condition id.
    Signal,
    /// [`Op::Wait`]; `a` = condition id.
    Wait,
    /// [`Op::Spawn`]; `a` = child thread id.
    Spawn,
    /// [`Op::Join`]; `a` = child thread id.
    Join,
    /// [`Op::Syscall`]; `a` = syscall code.
    Syscall,
    /// [`Op::TxBegin`]; `a` = region id.
    TxBegin,
    /// [`Op::TxEnd`]; `a` = region id.
    TxEnd,
    /// [`Op::LoopCutProbe`]; `a` = loop id.
    LoopCutProbe,
}

/// One flattened instruction, packed to 16 bytes (pinned by a size
/// test): kind tag, site-or-loop id, and two operand slots interpreted
/// per [`InstrKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    kind: InstrKind,
    /// Site id; loop id for [`InstrKind::LoopEnter`]/
    /// [`InstrKind::LoopBack`] (loop control has no site).
    sx: u32,
    a: u32,
    b: u32,
}

impl Instr {
    /// The instruction's kind tag.
    #[inline]
    pub fn kind(&self) -> InstrKind {
        self.kind
    }

    /// Static site of an operation instruction.
    #[inline]
    pub fn site(&self) -> SiteId {
        SiteId(self.sx)
    }

    /// Loop identity of a loop-control instruction.
    #[inline]
    pub fn loop_id(&self) -> LoopId {
        LoopId(self.sx)
    }

    /// Trip count of a [`InstrKind::LoopEnter`].
    #[inline]
    pub fn trips(&self) -> u32 {
        self.a
    }

    /// Index of the matching [`InstrKind::LoopBack`], for a
    /// [`InstrKind::LoopEnter`].
    #[inline]
    pub fn end(&self) -> usize {
        self.b as usize
    }

    /// Index of the first body instruction, for a
    /// [`InstrKind::LoopBack`].
    #[inline]
    pub fn start(&self) -> usize {
        self.a as usize
    }

    /// The `a` slot of a narrow-operand instruction: its lock, condition,
    /// barrier, channel, thread, region or loop id, its compute units, or
    /// its syscall code (see [`InstrKind`]).
    #[inline]
    pub(crate) fn arg(&self) -> u32 {
        self.a
    }
}

/// Syscall kinds by wire code, shared by the flat and trace encodings.
pub(crate) const SYSCALL_CODES: [SyscallKind; 4] = [
    SyscallKind::Io,
    SyscallKind::Alloc,
    SyscallKind::Free,
    SyscallKind::Other,
];

pub(crate) fn syscall_code(k: SyscallKind) -> u32 {
    SYSCALL_CODES
        .iter()
        .position(|&s| s == k)
        .expect("every SyscallKind has a code") as u32
}

/// The flattened code of one thread.
#[derive(Debug, Clone)]
pub struct FlatThread {
    /// Instruction stream.
    pub code: Vec<Instr>,
    /// Wide-operand pool: addresses, immediates, and strides referenced
    /// by the instructions' `a` slots.
    pub pool: Vec<u64>,
}

impl FlatThread {
    /// The `N` pool words of a wide-operand instruction, in the order
    /// its [`InstrKind`] lists them (address or base first).
    #[inline]
    pub(crate) fn words<const N: usize>(&self, i: &Instr) -> [u64; N] {
        let at = i.a as usize;
        self.pool[at..at + N]
            .try_into()
            .expect("a slice of length N")
    }

    /// Reconstructs the structured [`Op`] an operation instruction
    /// encodes: the reference decoder the interpreter's per-kind arms
    /// are tested against.
    ///
    /// # Panics
    ///
    /// On loop-control instructions, which encode no [`Op`].
    #[cfg(test)]
    pub(crate) fn decode_op(&self, i: &Instr) -> Op {
        use crate::addr::Addr;
        use crate::ids::{BarrierId, ChanId, CondId, LockId, RegionId};

        let p = &self.pool;
        let ai = i.a as usize;
        match i.kind {
            InstrKind::Read => Op::Read(Addr(p[ai])),
            InstrKind::Write => Op::Write(Addr(p[ai]), p[ai + 1]),
            InstrKind::ReadArr => Op::ReadArr {
                base: Addr(p[ai]),
                stride: p[ai + 1],
            },
            InstrKind::WriteArr => Op::WriteArr {
                base: Addr(p[ai]),
                stride: p[ai + 1],
                val: p[ai + 2],
            },
            InstrKind::Rmw => Op::Rmw(Addr(p[ai]), p[ai + 1]),
            InstrKind::Compute => Op::Compute(i.a),
            InstrKind::Lock => Op::Lock(LockId(i.a)),
            InstrKind::Unlock => Op::Unlock(LockId(i.a)),
            InstrKind::Barrier => Op::Barrier(BarrierId(i.a)),
            InstrKind::ChanSend => Op::ChanSend(ChanId(i.a)),
            InstrKind::ChanRecv => Op::ChanRecv(ChanId(i.a)),
            InstrKind::Signal => Op::Signal(CondId(i.a)),
            InstrKind::Wait => Op::Wait(CondId(i.a)),
            InstrKind::Spawn => Op::Spawn(ThreadId(i.a)),
            InstrKind::Join => Op::Join(ThreadId(i.a)),
            InstrKind::Syscall => Op::Syscall(SYSCALL_CODES[i.a as usize]),
            InstrKind::TxBegin => Op::TxBegin(RegionId(i.a)),
            InstrKind::TxEnd => Op::TxEnd(RegionId(i.a)),
            InstrKind::LoopCutProbe => Op::LoopCutProbe(LoopId(i.a)),
            InstrKind::LoopEnter | InstrKind::LoopBack => {
                unreachable!("loop control encodes no Op")
            }
        }
    }

    /// Encodes `op` at `site`, spilling wide operands into the pool.
    fn push_op(&mut self, site: SiteId, op: Op) {
        let (kind, a, b) = match op {
            Op::Read(addr) => (InstrKind::Read, self.spill(&[addr.0]), 0),
            Op::Write(addr, val) => (InstrKind::Write, self.spill(&[addr.0, val]), 0),
            Op::ReadArr { base, stride } => (InstrKind::ReadArr, self.spill(&[base.0, stride]), 0),
            Op::WriteArr { base, stride, val } => {
                (InstrKind::WriteArr, self.spill(&[base.0, stride, val]), 0)
            }
            Op::Rmw(addr, delta) => (InstrKind::Rmw, self.spill(&[addr.0, delta]), 0),
            Op::Compute(units) => (InstrKind::Compute, units, 0),
            Op::Lock(l) => (InstrKind::Lock, l.0, 0),
            Op::Unlock(l) => (InstrKind::Unlock, l.0, 0),
            Op::Barrier(bar) => (InstrKind::Barrier, bar.0, 0),
            Op::ChanSend(ch) => (InstrKind::ChanSend, ch.0, 0),
            Op::ChanRecv(ch) => (InstrKind::ChanRecv, ch.0, 0),
            Op::Signal(c) => (InstrKind::Signal, c.0, 0),
            Op::Wait(c) => (InstrKind::Wait, c.0, 0),
            Op::Spawn(u) => (InstrKind::Spawn, u.0, 0),
            Op::Join(u) => (InstrKind::Join, u.0, 0),
            Op::Syscall(k) => (InstrKind::Syscall, syscall_code(k), 0),
            Op::TxBegin(r) => (InstrKind::TxBegin, r.0, 0),
            Op::TxEnd(r) => (InstrKind::TxEnd, r.0, 0),
            Op::LoopCutProbe(id) => (InstrKind::LoopCutProbe, id.0, 0),
        };
        self.code.push(Instr {
            kind,
            sx: site.0,
            a,
            b,
        });
    }

    fn spill(&mut self, words: &[u64]) -> u32 {
        let at = u32::try_from(self.pool.len()).expect("operand pool fits u32 indices");
        self.pool.extend_from_slice(words);
        at
    }
}

/// A fully flattened program, ready for interpretation.
#[derive(Debug, Clone)]
pub struct FlatProgram {
    /// Per-thread instruction streams.
    pub threads: Vec<FlatThread>,
}

impl FlatProgram {
    /// Flattens every thread of `p`.
    pub fn from_program(p: &Program) -> Self {
        let threads = (0..p.thread_count())
            .map(|t| flatten(p.thread(ThreadId(t as u32))))
            .collect();
        FlatProgram { threads }
    }
}

fn flatten(stmts: &[Stmt]) -> FlatThread {
    let mut th = FlatThread {
        code: Vec::new(),
        pool: Vec::new(),
    };
    emit(stmts, &mut th);
    th
}

fn emit(stmts: &[Stmt], th: &mut FlatThread) {
    for s in stmts {
        match s {
            Stmt::Op { site, op } => th.push_op(*site, *op),
            Stmt::Loop { id, trips, body } => {
                let header = th.code.len();
                // Placeholder target; patched once the body length is known.
                th.code.push(Instr {
                    kind: InstrKind::LoopEnter,
                    sx: id.0,
                    a: *trips,
                    b: u32::MAX,
                });
                emit(body, th);
                let back = u32::try_from(th.code.len()).expect("flat code fits u32 targets");
                th.code.push(Instr {
                    kind: InstrKind::LoopBack,
                    sx: id.0,
                    a: header as u32 + 1,
                    b: 0,
                });
                th.code[header].b = back;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;

    /// The whole point of the packed layout: four instructions per
    /// 64-byte cache line. A growth past 16 bytes is a hot-path
    /// regression, not a refactor detail.
    #[test]
    fn instr_is_packed_to_16_bytes() {
        assert_eq!(std::mem::size_of::<Instr>(), 16);
        assert_eq!(std::mem::size_of::<InstrKind>(), 1);
    }

    /// The trace event is its own 12-byte wire record; a growth would
    /// break that identity as well as double every replay walk's bytes.
    #[test]
    fn trace_event_is_packed_to_12_bytes() {
        assert_eq!(std::mem::size_of::<crate::TraceEvent>(), 12);
        assert_eq!(std::mem::size_of::<crate::TraceEventKind>(), 1);
    }

    #[test]
    fn flattening_patches_loop_targets() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).read(x).loop_n(3, |t| {
            t.write(x, 1).write(x, 2);
        });
        let p = b.build();
        let f = FlatProgram::from_program(&p);
        let code = &f.threads[0].code;
        // read, LoopEnter, write, write, LoopBack
        assert_eq!(code.len(), 5);
        assert_eq!(code[1].kind(), InstrKind::LoopEnter);
        assert_eq!(code[1].end(), 4);
        assert_eq!(code[1].trips(), 3);
        assert_eq!(code[4].kind(), InstrKind::LoopBack);
        assert_eq!(code[4].start(), 2);
        assert_eq!(code[1].loop_id(), code[4].loop_id());
    }

    #[test]
    fn nested_loops_flatten() {
        let mut b = ProgramBuilder::new(1);
        let x = b.var("x");
        b.thread(0).loop_n(2, |t| {
            t.loop_n(2, |t| {
                t.read(x);
            });
        });
        let p = b.build();
        let f = FlatProgram::from_program(&p);
        // LoopEnter, LoopEnter, read, LoopBack, LoopBack
        assert_eq!(f.threads[0].code.len(), 5);
    }

    #[test]
    fn decode_round_trips_every_op_kind() {
        use crate::ir::SyscallKind;

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
            .read_arr(arr, 8)
            .write_arr(arr, 8, 5)
            .lock(l)
            .unlock(l)
            .signal(c)
            .send(ch)
            .barrier(bar)
            .compute(9)
            .syscall(SyscallKind::Free)
            .join(ThreadId(1));
        b.thread(1).wait(c).recv(ch).barrier(bar);
        let p = b.build();
        let f = FlatProgram::from_program(&p);

        // Every emitted instruction decodes back to the exact Op the
        // structured IR holds, in order.
        for (flat_t, t) in f.threads.iter().zip(0..) {
            let want: Vec<(SiteId, Op)> = p
                .thread(ThreadId(t))
                .iter()
                .filter_map(|s| match s {
                    Stmt::Op { site, op } => Some((*site, *op)),
                    _ => None,
                })
                .collect();
            let got: Vec<(SiteId, Op)> = flat_t
                .code
                .iter()
                .filter(|i| !matches!(i.kind(), InstrKind::LoopEnter | InstrKind::LoopBack))
                .map(|i| (i.site(), flat_t.decode_op(i)))
                .collect();
            assert_eq!(got, want, "thread {t}");
        }
    }
}
