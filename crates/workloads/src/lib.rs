//! # txrace-workloads
//!
//! Synthetic analogues of the paper's evaluation workloads: the 13 PARSEC
//! applications (simlarge) plus the Apache web server, and three
//! message-passing families (a producer/consumer pipeline, an actor-style
//! web service, and a work-stealing executor) that exercise the bounded
//! channel primitives end-to-end.
//!
//! The real benchmarks cannot run on the simulator, so each app here is a
//! *parameterized concurrent program* matched to what the paper's Table 1
//! measures about the original: transaction counts (scaled down, see each
//! app's `scale` note), the rough mix of conflict/capacity/unknown aborts,
//! the number and character of its true data races (hot overlapping races,
//! bodytrack/facesim's init-idiom races TxRace misses, vips's large
//! scheduler-sensitive race population), syscall density, and the TSan
//! overhead level (via the shadow-cost factor, auto-calibrated so the TSan
//! baseline lands on the paper's per-app overhead).
//!
//! ```
//! use txrace_workloads::{all_workloads, by_name};
//! let w = by_name("streamcluster", 4).expect("known app");
//! assert_eq!(w.name, "streamcluster");
//! assert!(!w.planted.is_empty());
//! assert_eq!(all_workloads(4).len(), 17);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod genprog;
pub mod patterns;
pub mod spec;

pub use genprog::{random_program, GenConfig};
pub use spec::{calibrate_shadow_factor, PlantedRace, RaceKind, Workload};

/// A workload's builder, from its worker-thread count.
type Build = fn(usize) -> Workload;

/// Every workload's name and builder, in [`all_workloads`] order.
const REGISTRY: [(&str, Build); 17] = [
    ("blackscholes", apps::blackscholes::build),
    ("fluidanimate", apps::fluidanimate::build),
    ("swaptions", apps::swaptions::build),
    ("freqmine", apps::freqmine::build),
    ("vips", apps::vips::build),
    ("raytrace", apps::raytrace::build),
    ("ferret", apps::ferret::build),
    ("x264", apps::x264::build),
    ("bodytrack", apps::bodytrack::build),
    ("facesim", apps::facesim::build),
    ("streamcluster", apps::streamcluster::build),
    ("dedup", apps::dedup::build),
    ("canneal", apps::canneal::build),
    ("apache", apps::apache::build),
    ("pipeline", apps::pipeline::build),
    ("actors", apps::actors::build),
    ("worksteal", apps::worksteal::build),
];

/// Builds every workload at the given worker-thread count: the paper's
/// Table 1 apps in paper order, then the message-passing families.
pub fn all_workloads(workers: usize) -> Vec<Workload> {
    REGISTRY.iter().map(|(_, build)| build(workers)).collect()
}

/// Builds one workload by its paper name.
pub fn by_name(name: &str, workers: usize) -> Option<Workload> {
    REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build(workers))
}
