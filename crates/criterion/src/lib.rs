//! Vendored stand-in for the slice of the `criterion` API this
//! workspace's benches use, so `cargo bench` works with no registry
//! access.
//!
//! Methodology is deliberately simple: a short warm-up, then repeated
//! timed batches with the batch size grown until one batch takes long
//! enough to measure (≥ ~5 ms), reporting the minimum per-iteration
//! time over the batches. No statistics, plots, or baselines — just a
//! stable wall-clock number per benchmark on stdout.
//!
//! Every bench of a binary runs in one process, after the benches
//! registered before it, and shares one heap with them. A bench that
//! allocates and frees large blocks starts from whatever allocator state
//! the earlier benches left: its blocks come either from the allocator's
//! free lists or as fresh pages from the kernel (page faults and
//! zeroing), so its time in the suite can differ severalfold from its
//! time alone, in either direction. Two benches of `txrace-bench`'s
//! `micro` suite are heap-sensitive (shared 2-vCPU x86-64 host, five
//! runs each, best-of-20 batches):
//!
//! - `trace/decode_dedup`: 65–68 µs in the suite, 264–308 µs alone;
//! - `mem/store_load_fresh_pages`: 614–641 µs in the suite, 127–138 µs
//!   alone.
//!
//! Compare such a bench only between runs of the same suite, built from
//! the same bench list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Entry point handed to each registered benchmark function.
pub struct Criterion {
    /// Target number of timed batches per benchmark.
    sample_count: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_count: 20 }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            criterion: self,
            group: name.to_string(),
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) {
        run_benchmark(id, self.sample_count, f);
    }
}

/// A named collection of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    group: String,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed batches for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_count = n.max(2);
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.group, id);
        run_benchmark(&full, self.criterion.sample_count, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.group, id.0);
        run_benchmark(&full, self.criterion.sample_count, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// A benchmark name of the form `function/parameter`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Joins a function name and a parameter value.
    pub fn new(function: impl core::fmt::Display, parameter: impl core::fmt::Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }
}

/// Times the routine under measurement.
pub struct Bencher {
    batch: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `batch` invocations of `routine` as one measurement.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.batch {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark(id: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
    // Grow the batch until a single measurement is long enough to trust.
    let mut batch = 1u64;
    let mut b = Bencher {
        batch,
        elapsed: Duration::ZERO,
    };
    loop {
        b.batch = batch;
        f(&mut b);
        if b.elapsed >= Duration::from_millis(5) || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    let mut best = Duration::MAX;
    for _ in 0..samples {
        b.batch = batch;
        f(&mut b);
        if b.elapsed < best {
            best = b.elapsed;
        }
    }
    let per_iter = best.as_nanos() as f64 / batch as f64;
    println!("bench {id:60} {per_iter:>12.1} ns/iter  (batch {batch}, {samples} samples)");
}

/// Declares a group of benchmark functions, mirroring the real macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring the real macro.
/// Command-line arguments from `cargo bench` are accepted and ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        let mut calls = 0u64;
        g.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        g.finish();
        assert!(calls > 0);
    }
}
