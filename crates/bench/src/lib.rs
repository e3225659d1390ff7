//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each binary under `src/bin/` reproduces one table or figure; this
//! library holds the per-app evaluation driver, the paper's reference
//! numbers (for side-by-side printing), small formatting helpers, and
//! the command-line reader the binaries share ([`Args`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod paper;
pub mod pool;
pub mod report;
pub mod runner;

pub use args::Args;
pub use pool::pool_width;
pub use report::{fmt_x, geomean, json_rows, JsonValue, Table};
pub use runner::{
    cost_effectiveness, evaluate_app, normalized_overhead, rate_sweep, record_workload,
    replay_schemes_fanout, run_scheme, AppResult, RACY_APPS,
};
