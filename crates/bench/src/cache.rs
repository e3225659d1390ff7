//! On-disk recording cache: serialized [`EventLog`]s under
//! `target/trace-cache/`, keyed by (workload, seed, program hash), so
//! the figure and benchmark binaries share recordings across
//! *invocations* — fig11/12/13, baselines, txdump and the replay harness
//! `bench_replay` all record each (workload, seed) pair once per checkout
//! instead of once per run.
//!
//! Opt out with `--no-trace-cache` (every recording binary forwards the
//! flag here via [`args_after_cache_flag`]) or by setting the
//! `TXRACE_NO_TRACE_CACHE` environment variable. Entries are validated
//! on load (magic, version, bounds, thread ids); any decode failure is treated as a
//! miss and the workload is re-recorded. The key hashes the program IR,
//! scheduler policy, and interrupt model, so editing a workload simply
//! misses the old entry rather than replaying a stale schedule.
//!
//! The cache is bounded: set `TXRACE_TRACE_CACHE_MAX_BYTES` to cap its
//! on-disk footprint — after every store the oldest entries (by
//! modification time) are evicted until the total fits. Inspect the
//! footprint with `txdump --stats` ([`cache_stats`]) and wipe it with
//! `txdump --cache-clear` ([`clear_trace_cache`]).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use txrace_sim::EventLog;
use txrace_workloads::Workload;

static DISABLED: AtomicBool = AtomicBool::new(false);

/// Disables the trace cache for the rest of this process (both lookups
/// and writes) — the `--no-trace-cache` CLI flag lands here.
pub fn disable_trace_cache() {
    DISABLED.store(true, Ordering::Relaxed);
}

/// Collects the process CLI arguments (after the program name),
/// consuming any `--no-trace-cache` flag — which disables the cache —
/// and returning the remaining arguments in order.
pub fn args_after_cache_flag() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--no-trace-cache" {
                disable_trace_cache();
                false
            } else {
                true
            }
        })
        .collect()
}

fn enabled() -> bool {
    !DISABLED.load(Ordering::Relaxed) && std::env::var_os("TXRACE_NO_TRACE_CACHE").is_none()
}

/// `$CARGO_TARGET_DIR/trace-cache` (or `target/trace-cache`).
fn cache_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("trace-cache")
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Cache file name for one (workload, seed) recording. The hash covers
/// everything the recorded schedule depends on — the program IR, the
/// scheduler policy, the interrupt model, and the seed — plus the wire
/// format version, so a format bump (e.g. the channel events in v2)
/// misses every pre-bump entry instead of relying on decode rejection.
fn cache_file(w: &Workload, seed: u64) -> String {
    let mut h = fnv1a(
        0xcbf2_9ce4_8422_2325,
        &txrace_sim::LOG_VERSION.to_le_bytes(),
    );
    h = fnv1a(h, format!("{:?}", w.program).as_bytes());
    h = fnv1a(h, format!("{:?}/{:?}", w.sched, w.interrupts).as_bytes());
    h = fnv1a(h, &seed.to_le_bytes());
    format!(
        "{}-s{seed}-v{}-{h:016x}.txlog",
        w.name,
        txrace_sim::LOG_VERSION
    )
}

/// Returns the cached recording for `(w, seed)` if present and valid;
/// otherwise calls `record`, stores the result (best-effort — a
/// read-only target dir silently skips the store), and returns it.
/// Stores respect the `TXRACE_TRACE_CACHE_MAX_BYTES` cap (oldest
/// entries evicted first).
pub fn load_or_record(w: &Workload, seed: u64, record: impl FnOnce() -> EventLog) -> EventLog {
    if !enabled() {
        return record();
    }
    let path = cache_dir().join(cache_file(w, seed));
    if let Ok(bytes) = fs::read(&path) {
        if let Ok(log) = EventLog::from_bytes(&bytes) {
            return log;
        }
    }
    let log = record();
    if fs::create_dir_all(cache_dir()).is_ok() {
        // Write-then-rename so a concurrent reader never sees a torn
        // file; the pid suffix keeps concurrent writers off each other.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if fs::write(&tmp, log.to_bytes()).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
        if let Some(cap) = byte_cap() {
            enforce_byte_cap(&cache_dir(), cap);
        }
    }
    log
}

/// On-disk footprint of the trace cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of cached recordings (`.txlog` files).
    pub entries: usize,
    /// Total bytes those entries occupy.
    pub bytes: u64,
}

/// Every cache entry in `dir` as `(path, len, mtime)`, unsorted. Stray
/// `.tmp.*` leftovers from killed writers are included so stats and
/// eviction cover the real footprint.
fn entries_in(dir: &std::path::Path) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
    let Ok(dir) = fs::read_dir(dir) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if !(name.ends_with(".txlog") || name.contains(".tmp.")) {
                return None;
            }
            let md = e.metadata().ok()?;
            let mtime = md.modified().unwrap_or(std::time::UNIX_EPOCH);
            Some((e.path(), md.len(), mtime))
        })
        .collect()
}

/// Current entry/byte counts for the trace cache directory.
pub fn cache_stats() -> CacheStats {
    stats_of(&cache_dir())
}

fn stats_of(dir: &std::path::Path) -> CacheStats {
    let es = entries_in(dir);
    CacheStats {
        entries: es.len(),
        bytes: es.iter().map(|&(_, len, _)| len).sum(),
    }
}

/// Deletes every cached recording, returning what was removed.
pub fn clear_trace_cache() -> CacheStats {
    let mut removed = CacheStats::default();
    for (path, len, _) in entries_in(&cache_dir()) {
        if fs::remove_file(&path).is_ok() {
            removed.entries += 1;
            removed.bytes += len;
        }
    }
    removed
}

/// The `TXRACE_TRACE_CACHE_MAX_BYTES` cap, if set to a parseable u64.
fn byte_cap() -> Option<u64> {
    std::env::var("TXRACE_TRACE_CACHE_MAX_BYTES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

/// Evicts oldest-first (by mtime, path as tiebreak for determinism)
/// until the cache in `dir` fits in `cap` bytes.
fn enforce_byte_cap(dir: &std::path::Path, cap: u64) {
    let mut es = entries_in(dir);
    let mut total: u64 = es.iter().map(|&(_, len, _)| len).sum();
    if total <= cap {
        return;
    }
    es.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
    for (path, len, _) in es {
        if total <= cap {
            break;
        }
        if fs::remove_file(&path).is_ok() {
            total -= len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_workloads::by_name;

    #[test]
    fn key_distinguishes_workload_seed_and_shape() {
        let a = by_name("blackscholes", 2).unwrap();
        let b = by_name("blackscholes", 4).unwrap();
        let c = by_name("swaptions", 2).unwrap();
        assert_ne!(cache_file(&a, 1), cache_file(&a, 2));
        assert_ne!(cache_file(&a, 1), cache_file(&b, 1));
        assert_ne!(cache_file(&a, 1), cache_file(&c, 1));
        // The wire-format version is part of the name, so bumping
        // LOG_VERSION orphans (rather than decodes-and-rejects) old
        // entries.
        assert!(
            cache_file(&a, 1).contains(&format!("-v{}-", txrace_sim::LOG_VERSION)),
            "cache key must embed the wire format version"
        );
    }

    #[test]
    fn stats_count_entries_and_eviction_is_oldest_first() {
        // A scratch dir of our own, so the test neither touches nor is
        // touched by real recordings from concurrently running tests.
        let dir = cache_dir().with_file_name(format!("trace-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let old = dir.join("hygiene-old.txlog");
        let new = dir.join("hygiene-new.txlog");
        let skip = dir.join("not-a-cache-entry.json");
        fs::write(&old, vec![0u8; 64]).unwrap();
        // Distinct mtimes: backdate the old entry instead of sleeping.
        let past = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        filetime_set(&old, past).unwrap();
        fs::write(&new, vec![0u8; 64]).unwrap();
        fs::write(&skip, b"ignored").unwrap();

        let stats = stats_of(&dir);
        assert_eq!(
            stats,
            CacheStats {
                entries: 2,
                bytes: 128
            },
            "non-.txlog files don't count"
        );

        // A cap the cache already fits evicts nothing.
        enforce_byte_cap(&dir, 128);
        assert!(old.exists() && new.exists());

        // Evicting down to 64 bytes must take `old` (oldest mtime).
        enforce_byte_cap(&dir, 64);
        assert!(!old.exists(), "oldest entry evicted first");
        assert!(new.exists(), "newer entry survives");
        assert_eq!(
            stats_of(&dir),
            CacheStats {
                entries: 1,
                bytes: 64
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Sets `path`'s mtime (std-only: open + `File::set_times`).
    fn filetime_set(path: &std::path::Path, t: std::time::SystemTime) -> std::io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_times(fs::FileTimes::new().set_modified(t))
    }

    #[test]
    fn cache_round_trips_a_recording() {
        let w = by_name("blackscholes", 2).unwrap();
        // Unusual seed so this test owns its cache entry.
        let seed = 0xC0FFEE;
        let path = cache_dir().join(cache_file(&w, seed));
        let _ = fs::remove_file(&path);
        let mut recorded = 0;
        let first = load_or_record(&w, seed, || {
            recorded += 1;
            crate::runner::record_workload_uncached(&w, seed)
        });
        let second = load_or_record(&w, seed, || {
            recorded += 1;
            crate::runner::record_workload_uncached(&w, seed)
        });
        if path.exists() {
            assert_eq!(recorded, 1, "second call should hit the cache");
            let _ = fs::remove_file(&path);
        }
        assert_eq!(first.events(), second.events());
        assert_eq!(first.final_memory(), second.final_memory());
        assert_eq!(first.result(), second.result());
        assert_eq!(first.census(), second.census());
    }
}
