//! The per-app evaluation driver shared by all table/figure binaries.

use txrace::{recall, Detector, LoopcutMode, RunOutcome, Scheme, TxRaceOpts};
use txrace_sim::EventLog;
use txrace_workloads::Workload;

/// Options for one app evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Scheduling seed.
    pub seed: u64,
    /// Loop-cut mode for the TxRace run.
    pub loopcut: LoopcutMode,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            seed: 42,
            loopcut: LoopcutMode::Dyn,
        }
    }
}

/// Everything Table 1/2 needs about one app: both detectors on the same
/// workload and seed.
#[derive(Debug)]
pub struct AppResult {
    /// Application name.
    pub name: &'static str,
    /// Full TSan run.
    pub tsan: RunOutcome,
    /// TxRace run.
    pub txrace: RunOutcome,
    /// Recall of TxRace against TSan's reports.
    pub recall: f64,
    /// Cost-effectiveness vs TSan (Table 2): recall / normalized overhead.
    pub cost_effectiveness: f64,
}

impl AppResult {
    /// TxRace overhead normalized to TSan's (Table 2 "overhead" column).
    pub fn normalized_overhead(&self) -> f64 {
        let tsan_extra = (self.tsan.overhead - 1.0).max(1e-9);
        let tx_extra = (self.txrace.overhead - 1.0).max(0.0);
        tx_extra / tsan_extra
    }
}

/// Runs TSan and TxRace on `w` and scores them.
pub fn evaluate_app(w: &Workload, opts: EvalOptions) -> AppResult {
    let tsan = Detector::new(w.config(Scheme::Tsan, opts.seed)).run(&w.program);
    let txopts = TxRaceOpts {
        loopcut: opts.loopcut,
        ..TxRaceOpts::default()
    };
    let txrace = Detector::new(w.config(Scheme::TxRace(txopts), opts.seed)).run(&w.program);
    assert!(tsan.completed(), "{}: TSan run did not complete", w.name);
    assert!(
        txrace.completed(),
        "{}: TxRace run did not complete",
        w.name
    );
    let rec = recall(&txrace.races, &tsan.races);
    let mut result = AppResult {
        name: w.name,
        tsan,
        txrace,
        recall: rec,
        cost_effectiveness: 0.0,
    };
    let norm = result.normalized_overhead();
    result.cost_effectiveness = if norm > 0.0 { rec / norm } else { rec / 1e-9 };
    result
}

/// Runs one scheme on a workload.
pub fn run_scheme(w: &Workload, scheme: Scheme, seed: u64) -> RunOutcome {
    let out = Detector::new(w.config(scheme, seed)).run(&w.program);
    assert!(out.completed(), "{}: run did not complete", w.name);
    out
}

/// Records `w` once at `seed` into a replayable trace. Scheduling depends
/// only on the workload's scheduler policy and the seed — never on the
/// detection scheme — so one recording serves every pure-observer scheme
/// (TSan, all sampling rates, lockset) via [`replay_scheme`].
///
/// Recordings are memoized on disk under `target/trace-cache/` (see
/// [`crate::cache`]); pass `--no-trace-cache` to a recording binary or
/// set `TXRACE_NO_TRACE_CACHE` to always record fresh.
pub fn record_workload(w: &Workload, seed: u64) -> EventLog {
    crate::cache::load_or_record(w, seed, || record_workload_uncached(w, seed))
}

/// [`record_workload`] without the on-disk cache: always re-interprets
/// the program.
pub fn record_workload_uncached(w: &Workload, seed: u64) -> EventLog {
    Detector::new(w.config(Scheme::Tsan, seed)).record(&w.program)
}

/// Replays a recorded trace of `w` under `scheme`, producing the exact
/// outcome a live [`run_scheme`] call with the same seed would.
///
/// # Panics
///
/// Panics if `scheme` is TxRace (an active engine cannot run from a fixed
/// trace — use [`run_scheme`]) or if the recorded run did not complete.
pub fn replay_scheme(w: &Workload, log: &EventLog, scheme: Scheme, seed: u64) -> RunOutcome {
    let d = Detector::new(w.config(scheme, seed));
    let consumer = d.consumer(&w.program);
    let out = d.replay(log, consumer);
    assert!(out.completed(), "{}: recorded run did not complete", w.name);
    out
}

/// One scheme's result from a fan-out replay pass, with the observed
/// per-consumer timing (the observability the JSON rows expose).
#[derive(Debug)]
pub struct FanoutOutcome {
    /// The outcome, byte-identical to a serial [`replay_scheme`] call.
    pub outcome: RunOutcome,
    /// Wall time of this consumer's replay, in nanoseconds.
    pub wall_ns: u64,
    /// Events the consumer observed (the log length).
    pub events: u64,
}

/// Replays one recorded trace of `w` under every scheme in `schemes`
/// concurrently — a single [`txrace_sim::fan_out`] pass over the shared
/// log on up to `width` pool workers — and returns the outcomes in scheme
/// order. Each outcome is byte-identical to the serial
/// [`replay_scheme`] result for that scheme: consumers are pure
/// observers with private state, so concurrency cannot change what any
/// of them sees.
///
/// # Panics
///
/// Panics like [`replay_scheme`] (TxRace schemes, incomplete runs).
pub fn replay_schemes_fanout(
    w: &Workload,
    log: &EventLog,
    schemes: &[Scheme],
    seed: u64,
    width: usize,
) -> Vec<FanoutOutcome> {
    let detectors: Vec<Detector> = schemes
        .iter()
        .map(|s| Detector::new(w.config(s.clone(), seed)))
        .collect();
    let consumers = detectors.iter().map(|d| d.consumer(&w.program)).collect();
    txrace_sim::fan_out(log, consumers, width)
        .into_iter()
        .zip(&detectors)
        .map(|(r, d)| {
            let outcome = d.outcome_of_replayed(r.consumer, log);
            assert!(
                outcome.completed(),
                "{}: recorded run did not complete",
                w.name
            );
            FanoutOutcome {
                outcome,
                wall_ns: r.wall_ns,
                events: r.events,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_workloads::by_name;

    #[test]
    fn evaluate_runs_both_detectors() {
        let w = by_name("blackscholes", 2).unwrap();
        let r = evaluate_app(&w, EvalOptions::default());
        assert!(r.tsan.completed() && r.txrace.completed());
        assert!(r.recall >= 0.0 && r.recall <= 1.0);
        assert!(r.txrace.htm.is_some());
        assert!(r.tsan.htm.is_none());
    }

    #[test]
    fn fanout_replay_matches_serial_per_scheme() {
        let w = by_name("bodytrack", 2).unwrap();
        let log = record_workload_uncached(&w, 7);
        let schemes = [
            Scheme::Tsan,
            Scheme::TsanSampling { rate: 0.1 },
            Scheme::TsanSampling { rate: 0.5 },
        ];
        let fanned = replay_schemes_fanout(&w, &log, &schemes, 7, 3);
        assert_eq!(fanned.len(), schemes.len());
        for (f, scheme) in fanned.iter().zip(&schemes) {
            let serial = replay_scheme(&w, &log, scheme.clone(), 7);
            assert_eq!(f.outcome.races.reports(), serial.races.reports());
            assert_eq!(f.outcome.breakdown, serial.breakdown);
            assert_eq!(f.outcome.checks, serial.checks);
            assert_eq!(f.events, log.len() as u64);
        }
    }

    #[test]
    fn replayed_scheme_matches_live_run() {
        let w = by_name("bodytrack", 2).unwrap();
        let log = record_workload(&w, 7);
        for scheme in [Scheme::Tsan, Scheme::TsanSampling { rate: 0.4 }] {
            let live = run_scheme(&w, scheme.clone(), 7);
            let replayed = replay_scheme(&w, &log, scheme, 7);
            assert_eq!(live.races.reports(), replayed.races.reports());
            assert_eq!(live.breakdown, replayed.breakdown);
            assert_eq!(live.baseline_cycles, replayed.baseline_cycles);
            assert_eq!(live.checks, replayed.checks);
            assert_eq!(live.memory, replayed.memory);
            assert_eq!(live.run, replayed.run);
        }
    }
}
