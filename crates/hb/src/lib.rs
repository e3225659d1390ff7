//! # txrace-hb
//!
//! Software happens-before data-race detection: the *slow path* of TxRace
//! and the full-program TSan baseline it is compared against.
//!
//! The core is [`FastTrack`], an implementation of the FastTrack algorithm
//! (Flanagan & Freund, PLDI '09) — the same epoch/vector-clock design
//! Google ThreadSanitizer implements, which the paper uses both as its
//! baseline and as TxRace's on-demand precise detector. It is *sound* (no
//! missed races on the analyzed trace) and *complete* (no false reports),
//! and works at word granularity, which is how the slow path filters out
//! the cache-line false sharing the HTM fast path cannot distinguish.
//!
//! TSan bounds its shadow memory to N cells per granule and randomly
//! evicts when full, sacrificing soundness; [`ShadowMode::Cells`] models
//! that, and [`ShadowMode::Exact`] models the paper's configuration of
//! "enough shadow cells to be sound" (§5).
//!
//! [`VectorClockDetector`] is a reference implementation using full vector
//! clocks everywhere (no epoch optimization); property tests check that
//! FastTrack reports exactly the same races. [`Lockset`] is an
//! Eraser-style detector kept as an incomplete-but-cheap baseline.
//!
//! Events reach every detector only through
//! [`txrace_sim::TraceConsumer`], whether a live run or a replayed log
//! drives it.
//!
//! ```
//! use txrace_hb::{FastTrack, ShadowMode};
//! use txrace_sim::{Addr, SiteId, ThreadId, TraceConsumer};
//!
//! let mut ft = FastTrack::new(2, ShadowMode::Exact);
//! let x = Addr(0x400);
//! ft.write(ThreadId(0), SiteId(1), x);
//! ft.read(ThreadId(1), SiteId(2), x); // unordered: a race
//! assert_eq!(ft.races().distinct_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod fasttrack;
pub mod lockset;
pub mod report;
pub mod sharded;
pub mod vcref;

pub use clock::{Epoch, VectorClock};
pub use fasttrack::{FastTrack, Shadow, ShadowMode, SyncClocks};
pub use lockset::{Lockset, LocksetReport};
pub use report::{AccessInfo, AccessKind, RacePair, RaceReport, RaceSet};
pub use sharded::{shard_of, ShardPlan, ShardStats, ShardedFastTrack, ShardedFtOutcome};
pub use vcref::VectorClockDetector;
