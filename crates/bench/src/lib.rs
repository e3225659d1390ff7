//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each binary under `src/bin/` reproduces one table or figure; this
//! library holds the per-app evaluation driver, the paper's reference
//! numbers (for side-by-side printing), and small formatting helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod paper;
pub mod pool;
pub mod report;
pub mod runner;

pub use cache::{
    args_after_cache_flag, cache_stats, clear_trace_cache, disable_trace_cache, CacheStats,
};
pub use pool::pool_width;
pub use report::{fmt_x, geomean, json_rows, JsonValue, Table};
pub use runner::{
    evaluate_app, record_workload, record_workload_uncached, replay_scheme, replay_schemes_fanout,
    run_scheme, AppResult, EvalOptions, FanoutOutcome,
};
