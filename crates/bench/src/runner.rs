//! The per-app evaluation driver shared by all table/figure binaries:
//! live runs ([`run_scheme`], [`evaluate_app`]), the one in-process
//! recorder ([`record_workload`]), and replay of a recording under one
//! scheme or many ([`replay_schemes_fanout`]). A
//! recording lives only as long as the process that made it; nothing is
//! read from or written to disk.
//!
//! Also the two sweeps the sampling figures share: the racy-app list of
//! Figure 11 ([`RACY_APPS`]) and the twelve TSan configurations of
//! Figures 12 and 13 ([`rate_sweep`]).

use txrace::{recall, Detector, PanelConsumer, RunOutcome, Scheme};
use txrace_sim::EventLog;
use txrace_workloads::Workload;

/// The nine applications where the paper reports at least one race: the
/// rows of Figure 11, and the apps `bench_replay` sweeps.
pub const RACY_APPS: &[&str] = &[
    "fluidanimate",
    "vips",
    "raytrace",
    "ferret",
    "x264",
    "bodytrack",
    "facesim",
    "streamcluster",
    "canneal",
];

/// Full TSan plus sampling TSan at rates 0.0, 0.1, ..., 1.0: the twelve
/// configurations of Figures 12 and 13. The full-TSan reference comes
/// first; the sampling rates follow in ascending order.
pub fn rate_sweep() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Tsan];
    schemes.extend((0..=10).map(|tenths| Scheme::TsanSampling {
        rate: f64::from(tenths) / 10.0,
    }));
    schemes
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
}

/// Runs TSan and default TxRace on `w` at `seed` and scores them.
pub fn evaluate_app(w: &Workload, seed: u64) -> AppResult {
    let tsan = Detector::new(w.config(Scheme::Tsan, seed)).run(&w.program);
    let txrace = Detector::new(w.config(Scheme::txrace(), seed)).run(&w.program);
    assert!(tsan.completed(), "{}: TSan run did not complete", w.name);
    assert!(
        txrace.completed(),
        "{}: TxRace run did not complete",
        w.name
    );
    AppResult {
        name: w.name,
        recall: recall(&txrace.races, &tsan.races),
        tsan,
        txrace,
    }
}

/// The paper's normalized overhead (Table 2, Figures 11 and 12): a
/// detector's overhead as a fraction of full TSan's, `overhead / tsan`
/// (both relative to the uninstrumented run). Every cost-effectiveness
/// the paper prints is `recall / (txrace / tsan)` of its own Table 1
/// overheads.
pub fn normalized_overhead(overhead: f64, tsan: f64) -> f64 {
    overhead / tsan
}

/// The paper's cost-effectiveness (Table 2, Figure 11): recall per unit
/// of normalized overhead, which is floored at 1e-3 so that a detector
/// with no extra cost scores 1000 times its recall, not infinity.
pub fn cost_effectiveness(recall: f64, normalized_overhead: f64) -> f64 {
    recall / normalized_overhead.max(1e-3)
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
/// (TSan, all sampling rates, lockset) via [`replay_schemes_fanout`].
pub fn record_workload(w: &Workload, seed: u64) -> EventLog {
    Detector::new(w.config(Scheme::Tsan, seed)).record(&w.program)
}

/// Replays one recorded trace of `w` under every scheme in `schemes`
/// concurrently — a single [`txrace_sim::fan_out`] pass over the shared
/// log on up to `width` pool workers — and returns the outcomes in scheme
/// order. Each outcome is the exact outcome a live [`run_scheme`] call
/// with the same seed would produce, and equals the outcome of replaying
/// that scheme alone (one scheme at width 1): consumers are pure
/// observers, and the panel fuses only members whose fused replay
/// unfuses into exactly their serial results.
///
/// # Panics
///
/// Panics if a scheme is TxRace (an active engine cannot run from a fixed
/// trace — use [`run_scheme`]) or if the recorded run did not complete.
pub fn replay_schemes_fanout(
    w: &Workload,
    log: &EventLog,
    schemes: &[Scheme],
    seed: u64,
    width: usize,
) -> Vec<RunOutcome> {
    let detectors: Vec<Detector> = schemes
        .iter()
        .map(|s| Detector::new(w.config(s.clone(), seed)))
        .collect();
    let consumers = detectors
        .iter()
        .map(|d| PanelConsumer::Tsan(d.consumer(&w.program)))
        .collect();
    txrace_sim::fan_out(log, consumers, width)
        .into_iter()
        .zip(&detectors)
        .map(|(r, d)| {
            let tsan = r
                .consumer
                .into_tsan()
                .expect("fan_out preserves panel order");
            let outcome = d.outcome_of_replayed(tsan, log);
            assert!(
                outcome.completed(),
                "{}: recorded run did not complete",
                w.name
            );
            outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_workloads::by_name;

    #[test]
    fn rate_sweep_is_full_tsan_then_eleven_rates() {
        let schemes = rate_sweep();
        assert_eq!(schemes.len(), 12);
        assert!(matches!(schemes[0], Scheme::Tsan));
        // The figures label each rate `pct%`; it must be `pct / 100` exactly.
        for (pct, s) in (0..=100u32).step_by(10).zip(&schemes[1..]) {
            match s {
                Scheme::TsanSampling { rate } => assert_eq!(*rate, f64::from(pct) / 100.0),
                other => panic!("{pct}%: {other:?}"),
            }
        }
    }

    #[test]
    fn cost_effectiveness_floors() {
        assert_eq!(normalized_overhead(3.0, 5.0), 0.6);
        assert_eq!(normalized_overhead(5.0, 5.0), 1.0);
        assert_eq!(normalized_overhead(2.0, 1.0), 2.0);
        assert_eq!(cost_effectiveness(0.5, 0.25), 2.0);
        assert_eq!(cost_effectiveness(0.5, 0.0), 500.0);
    }

    #[test]
    fn normalization_reproduces_every_paper_cost_effectiveness() {
        // Table 2 prints `recall / (txrace / tsan)` of Table 1's
        // overheads: blackscholes 1.00 / (1.82 / 1.85) = 1.02.
        for p in crate::paper::TABLE1 {
            let norm = normalized_overhead(p.txrace_overhead, p.tsan_overhead);
            let ce = cost_effectiveness(p.recall, norm);
            let err = (ce - p.cost_effectiveness).abs() / p.cost_effectiveness;
            assert!(
                err < 0.01,
                "{}: {ce:.3} vs paper {}",
                p.name,
                p.cost_effectiveness
            );
        }
    }

    #[test]
    fn evaluate_runs_both_detectors() {
        let w = by_name("blackscholes", 2).unwrap();
        let r = evaluate_app(&w, 42);
        assert!(r.tsan.completed() && r.txrace.completed());
        assert!(r.recall >= 0.0 && r.recall <= 1.0);
        assert!(r.txrace.htm.is_some());
        assert!(r.tsan.htm.is_none());
    }

    /// `scheme` alone over `log` at seed 7: a serial replay.
    fn replay_one(w: &Workload, log: &EventLog, scheme: Scheme) -> RunOutcome {
        let mut outs = replay_schemes_fanout(w, log, &[scheme], 7, 1);
        outs.pop().expect("one scheme, one outcome")
    }

    #[test]
    fn fanout_replay_matches_serial_per_scheme() {
        let w = by_name("bodytrack", 2).unwrap();
        let log = record_workload(&w, 7);
        let schemes = [
            Scheme::Tsan,
            Scheme::TsanSampling { rate: 0.1 },
            Scheme::TsanSampling { rate: 0.5 },
        ];
        let fanned = replay_schemes_fanout(&w, &log, &schemes, 7, 3);
        assert_eq!(fanned.len(), schemes.len());
        for (f, scheme) in fanned.iter().zip(&schemes) {
            let serial = replay_one(&w, &log, scheme.clone());
            assert_eq!(f.races.reports(), serial.races.reports());
            assert_eq!(f.breakdown, serial.breakdown);
            assert_eq!(f.checks, serial.checks);
        }
    }

    #[test]
    fn replayed_scheme_matches_live_run() {
        let w = by_name("bodytrack", 2).unwrap();
        let log = record_workload(&w, 7);
        for scheme in [Scheme::Tsan, Scheme::TsanSampling { rate: 0.4 }] {
            let live = run_scheme(&w, scheme.clone(), 7);
            let replayed = replay_one(&w, &log, scheme);
            assert_eq!(live.races.reports(), replayed.races.reports());
            assert_eq!(live.breakdown, replayed.breakdown);
            assert_eq!(live.baseline_cycles, replayed.baseline_cycles);
            assert_eq!(live.checks, replayed.checks);
            assert_eq!(live.memory, replayed.memory);
            assert_eq!(live.run, replayed.run);
        }
    }
}
