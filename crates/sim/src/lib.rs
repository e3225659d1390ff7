//! # txrace-sim
//!
//! Execution substrate for the TxRace reproduction: a small structured
//! concurrent-program IR, a byte-addressed shared memory with a cache-line
//! model, a deterministic (seedable) scheduler, and an interpreter that
//! drives pluggable detector runtimes.
//!
//! The original TxRace system instruments LLVM IR compiled from C/C++ and
//! runs it on real OS threads. This crate plays both roles in simulation:
//! the IR stands in for LLVM IR (the `txrace` crate's instrumentation pass
//! walks it exactly like the paper's compile-time pass walks LLVM IR), and
//! the interpreter + scheduler stand in for the OS threads (with seedable
//! interleavings, so races manifest — or not — reproducibly).
//!
//! ## Quick tour
//!
//! ```
//! use txrace_sim::{ProgramBuilder, Machine, DirectRuntime, RandomSched, RunStatus};
//!
//! # fn main() {
//! let mut b = ProgramBuilder::new(2);
//! let x = b.var("x");
//! let l = b.lock_id("l");
//! for t in 0..2 {
//!     b.thread(t).lock(l).write(x, t as u64 + 1).unlock(l);
//! }
//! let program = b.build();
//!
//! let mut machine = Machine::new(&program);
//! let mut runtime = DirectRuntime::default();
//! let mut sched = RandomSched::new(42);
//! let result = machine.run(&mut runtime, &mut sched);
//! assert_eq!(result.status, RunStatus::Done);
//! assert!(machine.memory().load(x) == 1 || machine.memory().load(x) == 2);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod densemap;
pub mod exec;
pub mod explore;
pub mod flat;
pub mod ids;
pub mod intern;
pub mod ir;
pub mod lint;
pub mod mem;
pub mod replay;
pub mod sched;
pub mod summary;
pub mod trace;

pub use addr::{elem, Addr, CacheLine, VarLayout, LINE_BYTES};
pub use densemap::AddrMap;
pub use exec::{
    flat_iteration_index, innermost_iteration_index, Directive, LoopFrame, Machine, OpEvent,
    RunResult, RunStatus, Runtime, Snapshot, StepLimit,
};
pub use flat::{FlatProgram, FlatThread, Instr, InstrKind};
pub use ids::{BarrierId, ChanId, CondId, LockId, LoopId, RegionId, SiteId, ThreadId};
pub use intern::{Interner, RESERVED_LINES};
pub use ir::{Op, Program, ProgramBuilder, Stmt, SyscallKind, ThreadBuilder};
pub use lint::{lint, LintIssue};
pub use mem::{JournalMark, Memory, WriteJournal};
pub use replay::{fan_out, par_map, FanOutReport, Live, TraceConsumer};
pub use sched::{FairSched, InterruptKind, InterruptModel, RandomSched, RoundRobin, Scheduler};
pub use summary::{dynamic_site_counts, summarize, ChanSiteUse, Phase, ProgramSummary, SiteAccess};
pub use trace::{
    record_run, AccessPartition, BarrierTable, EventLog, EventLogBuilder, OpCensus, SyncIndex,
    TraceEvent, TraceEventKind, LOG_VERSION,
};

/// A runtime that executes memory operations directly against memory with
/// no detection or transactional machinery. Used to establish uninstrumented
/// baselines and as the simplest [`Runtime`] implementation.
#[derive(Debug, Default, Clone)]
pub struct DirectRuntime {
    /// Number of operations executed.
    pub ops: u64,
}

impl Runtime for DirectRuntime {
    fn before_op(&mut self, _mem: &mut Memory, _ev: &OpEvent<'_>) -> Directive {
        self.ops += 1;
        Directive::Continue
    }

    fn read(&mut self, mem: &mut Memory, _ev: &OpEvent<'_>, addr: Addr) -> u64 {
        mem.load(addr)
    }

    fn write(&mut self, mem: &mut Memory, _ev: &OpEvent<'_>, addr: Addr, val: u64) {
        mem.store(addr, val);
    }

    fn rmw(&mut self, mem: &mut Memory, _ev: &OpEvent<'_>, addr: Addr, delta: u64) -> u64 {
        let old = mem.load(addr);
        mem.store(addr, old.wrapping_add(delta));
        old
    }
}
