//! Integration tests for the unified control plane: the adaptive
//! `ProductionMode` controller must be deterministic (a pure function of
//! the telemetry prefix), respect its overhead budget, trade recall
//! monotonically against that budget, and re-tune the knobs it owns.

use txrace::{recall, Detector, Knobs, RunOutcome, Scheme, StaticPruneMode};
use txrace_workloads::by_name;

fn production(app: &str, budget: f64, seed: u64) -> RunOutcome {
    let w = by_name(app, 4).expect("known app");
    let out = Detector::new(w.config(Scheme::production(budget), seed)).run(&w.program);
    assert!(out.completed(), "{app}: production run did not complete");
    out
}

fn truth(app: &str, seed: u64) -> RunOutcome {
    let w = by_name(app, 4).expect("known app");
    Detector::new(
        w.config(Scheme::txrace(), seed)
            .with_prune(StaticPruneMode::FullFlow),
    )
    .run(&w.program)
}

/// Same workload, seed, and budget → the exact same epoch-by-epoch knob
/// schedule and the exact same race set. The controller consumes only
/// the telemetry prefix, so nothing nondeterministic can leak in.
#[test]
fn controller_is_deterministic() {
    for app in ["streamcluster", "facesim", "vips"] {
        let a = production(app, 1.2, 42);
        let b = production(app, 1.2, 42);
        let (ta, tb) = (a.telemetry.unwrap(), b.telemetry.unwrap());
        assert_eq!(
            ta.knob_schedule(),
            tb.knob_schedule(),
            "{app}: knob schedule diverged between identical runs"
        );
        assert!(
            a.races.pairs().eq(b.races.pairs()),
            "{app}: race set diverged between identical runs"
        );
        assert_eq!(a.overhead, b.overhead, "{app}: overhead diverged");
    }
}

/// Loosening the budget never loses races: mean recall over a subset of
/// throttled apps is non-decreasing across the budget grid.
#[test]
fn recall_is_monotone_in_budget() {
    let apps = ["streamcluster", "facesim", "bodytrack", "x264"];
    let truths: Vec<RunOutcome> = apps.iter().map(|a| truth(a, 42)).collect();
    let mut prev = 0.0f64;
    for budget in [1.05, 1.2, 1.5, 2.0] {
        let mean: f64 = apps
            .iter()
            .zip(&truths)
            .map(|(app, t)| recall(&production(app, budget, 42).races, &t.races))
            .sum::<f64>()
            / apps.len() as f64;
        assert!(
            mean + 1e-9 >= prev,
            "mean recall regressed at budget {budget}: {mean:.3} < {prev:.3}"
        );
        prev = mean;
    }
}

/// The controller's hard cap holds: modeled overhead stays within the
/// budget plus the demotion-granularity slack (one epoch of spending).
#[test]
fn overhead_respects_budget() {
    for app in ["streamcluster", "vips", "ferret", "facesim", "pipeline"] {
        for budget in [1.2, 1.5] {
            let out = production(app, budget, 42);
            assert!(
                out.overhead <= budget * 1.05,
                "{app}: overhead {:.3} exceeds budget {budget} (+5% slack)",
                out.overhead
            );
        }
    }
}

/// Demotion escalates K (tiny regions stop paying transaction
/// management); apps that never overspend keep the default knobs all
/// the way through.
#[test]
fn knobs_escalate_only_on_demotion() {
    let throttled = production("streamcluster", 1.2, 42).telemetry.unwrap();
    assert!(
        throttled.epochs.iter().any(|e| e.k_min_ops > 5),
        "a demoted run must escalate K past the default"
    );
    assert!(
        throttled.active_epochs() < throttled.epochs.len(),
        "a demoted run must have idle epochs"
    );

    let easy = production("blackscholes", 1.2, 42).telemetry.unwrap();
    assert!(
        easy.epochs.iter().all(|e| e.k_min_ops == 5 && e.active),
        "an always-on run must keep default knobs and stay active"
    );
}

/// Telemetry is internally consistent: epochs partition the event
/// stream, cumulative overhead is non-decreasing, and the final epoch's
/// cumulative overhead matches the run's reported overhead.
#[test]
fn telemetry_is_consistent() {
    for app in ["streamcluster", "raytrace", "canneal"] {
        let out = production(app, 1.2, 42);
        let tm = out.telemetry.as_ref().unwrap();
        assert!(!tm.epochs.is_empty(), "{app}: no epochs recorded");
        assert!(tm.total_events() > 0, "{app}: no events recorded");
        assert_eq!(
            tm.total_events(),
            tm.epochs.iter().map(|e| e.events).sum::<u64>()
        );
        let mut prev = 0.0;
        for e in &tm.epochs {
            assert!(
                e.cum_overhead + 1e-9 >= prev,
                "{app}: cumulative overhead decreased at epoch {}",
                e.index
            );
            prev = e.cum_overhead;
        }
        let last = tm.epochs.last().unwrap();
        assert!(
            (last.cum_overhead - out.overhead).abs() < 1e-6,
            "{app}: final cum overhead {:.4} != run overhead {:.4}",
            last.cum_overhead,
            out.overhead
        );
    }
}

/// A configured sampling rate holds in every monitored epoch, including
/// the windows a watch hit reopens after the run went idle: the
/// controller re-arms monitoring, not a different rate.
#[test]
fn sampling_rate_survives_watch_window_reopen() {
    let w = by_name("streamcluster", 4).expect("known app");
    let cfg = w
        .config(Scheme::production(1.2), 42)
        .with_knobs(Knobs::default().with_sampling(0.5));
    let out = Detector::new(cfg).run(&w.program);
    assert!(out.completed());
    let epochs = out.telemetry.expect("production emits telemetry").epochs;
    assert!(
        epochs.windows(2).any(|p| !p[0].active && p[1].active),
        "the run must reopen a watch window after an idle epoch"
    );
    for e in epochs.iter().filter(|e| e.active) {
        assert_eq!(e.sampling, 0.5, "active epoch {} lost the rate", e.index);
    }
}
