//! Host time, and host speed from a fixed reference kernel.
//!
//! A shared host takes the CPU away from a process in bursts, and its
//! speed drifts by tens of percent over minutes; every host-time metric
//! moves with both. Work that runs on the calling thread alone is timed in
//! that thread's CPU time, which leaves out the time the thread was not
//! running. The kernel below belongs to the benchmark, not to the program
//! under test, so its running time tracks the host alone. It runs after
//! every `EVERY_NS` of measured host time, and every host time of a run is
//! scaled by `NOMINAL_NS` over the run's median kernel time (in the same
//! clock), which reports it at the kernel's nominal speed. Like the
//! detectors, the kernel branches on what it loads from a table and probes
//! and updates a hash map.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's running time on the reference host (2 vCPUs of a shared
/// x86-64 server); host times are reported at this speed.
pub const NOMINAL_NS: f64 = 1.0e6;

/// Measured host time between two kernel samples (at least one job).
pub const EVERY_NS: f64 = 25.0e6;

const TABLE_BITS: u32 = 14;
const KEYS: u32 = 1 << 16;
const STEPS: usize = 20_000;

struct Kernel {
    table: Vec<u32>,
    /// Fixed hash keys, so every process does the same work.
    map: HashMap<u32, u32, BuildHasherDefault<DefaultHasher>>,
    x: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut k = Kernel {
            table: (0..1u32 << TABLE_BITS)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            map: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
            x: 0x9e37_79b9_7f4a_7c15,
        };
        // Fill the map first, so every later run does the same work.
        for _ in 0..16 {
            k.run();
        }
        k
    }

    fn run(&mut self) -> u64 {
        let mask = (1 << TABLE_BITS) - 1;
        let mut acc = 0u64;
        let mut x = self.x;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x >> 20) as usize & mask;
            let v = self.table[i];
            match v & 3 {
                0 => self.table[i] = v.wrapping_add(x as u32),
                1 => {
                    self.map.insert(v % KEYS, x as u32);
                }
                2 => acc += u64::from(self.map.get(&(v % KEYS)).copied().unwrap_or(1)),
                _ => acc ^= u64::from(v.rotate_left(5)),
            }
        }
        self.x = x;
        black_box(acc)
    }
}

/// Which clock times a piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    /// CPU time of the calling thread: for work that runs on it alone.
    ThreadCpu,
}

/// How long one piece of work took on both clocks, in ns.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub wall: f64,
    pub cpu: f64,
}

impl Took {
    pub fn on(self, clock: Clock) -> f64 {
        match clock {
            Clock::Wall => self.wall,
            Clock::ThreadCpu => self.cpu,
        }
    }
}

/// Runs `f`; returns its result and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Took) {
    let (c0, t0) = (thread_cpu_ns(), Instant::now());
    let out = f();
    let wall = t0.elapsed().as_nanos() as f64;
    let cpu = thread_cpu_ns() - c0;
    (out, Took { wall, cpu })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in ns.
fn thread_cpu_ns() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// The kernel and its samples so far.
pub struct HostSpeed {
    kernel: Kernel,
    /// Every kernel run's time.
    pub samples: Vec<Took>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            kernel: Kernel::new(),
            samples: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let kernel = &mut self.kernel;
        let (_, took) = timed(|| kernel.run());
        self.samples.push(took);
    }

    /// The factor that takes this run's times on `clock` to nominal speed.
    pub fn scale(&self, clock: Clock) -> f64 {
        let ns: Vec<f64> = self.samples.iter().map(|t| t.on(clock)).collect();
        NOMINAL_NS / median(&ns)
    }
}
