//! # txrace-htm
//!
//! A software simulation of a best-effort hardware transactional memory
//! with the semantics TxRace depends on, modeled after Intel's Restricted
//! Transactional Memory (RTM) as shipped in Haswell:
//!
//! * **Cache-line granularity conflict detection** (64-byte lines): two
//!   variables that merely share a line conflict, which is exactly the
//!   false-sharing false-positive source the paper's slow path filters.
//! * **Requester-wins conflict resolution**: on a conflicting access the
//!   requester proceeds and every conflicting *other* transaction is
//!   doomed with `CONFLICT | RETRY`.
//! * **Strong isolation**: non-transactional accesses participate in
//!   conflict detection, so a plain store to a line every transaction has
//!   read (the `TxFail` flag trick) aborts them all.
//! * **Bounded capacity**: the write set is tracked in an L1-shaped
//!   structure (64 sets x 8 ways of 64-byte lines ~ 32 KiB); overflowing a
//!   set — or the bounded read set — dooms the transaction with `CAPACITY`.
//! * **Best-effort aborts**: simulated context switches doom a transaction
//!   with an empty status word (an *unknown* abort), and transient events
//!   with `RETRY` only.
//! * **Isolated speculative stores**: a transaction's stores are never
//!   observed by another thread and vanish on abort. Stores go to memory
//!   eagerly under a per-transaction undo journal
//!   ([`txrace_sim::WriteJournal`]) that is unwound as a whole the
//!   instant the transaction is doomed — before the conflicting access
//!   proceeds — so isolation is preserved with O(1) begin/commit and
//!   O(stores) rollback. Like RTM, transactions never nest, so the
//!   journal needs no watermarks: a doom undoes all of it, and retiring
//!   the transaction (commit or abort) clears it. The crate's property
//!   tests hold this against a lazy write-buffer reference model (stores
//!   buffered per thread, applied at commit, dropped on abort) on random
//!   scripts.
//!
//! Like the real hardware, the system reports *that* a transaction aborted
//! and a status word — never which instruction, address, or other
//! transaction was involved. (The optional
//! [`HtmConfig::report_conflict_address`] extension reports the conflicting
//! cache line; it is off on the commodity configuration.)
//!
//! ```
//! use txrace_htm::{HtmConfig, HtmSystem};
//! use txrace_sim::{Addr, Memory, ThreadId};
//!
//! let mut htm = HtmSystem::new(HtmConfig::default(), 2);
//! let mut mem = Memory::new();
//! let (t0, t1) = (ThreadId(0), ThreadId(1));
//!
//! htm.xbegin(t0).unwrap();
//! htm.write(t0, &mut mem, Addr(0x1000), 7); // journaled, in place
//!
//! // t1's non-transactional read of the same line dooms t0 (requester
//! // wins + strong isolation) and unwinds t0's journal first.
//! let _ = htm.read(t1, &mut mem, Addr(0x1008));
//! assert!(htm.is_doomed(t0).is_some());
//! assert!(htm.xend(t0).is_err());
//! assert_eq!(mem.load(Addr(0x1000)), 0); // rolled back
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod status;
mod system;
mod txn;

pub use status::{AbortReason, AbortStatus};
pub use system::{HtmConfig, HtmStats, HtmSystem, XbeginError};
