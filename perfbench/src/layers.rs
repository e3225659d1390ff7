//! Per-layer metrics of a traced run, derived from its spans and counts.
//!
//! Every workload reports the full set. A layer the workload's jobs do
//! not call reads 0: no calls, no time, no events.

use crate::harness::Metric;
use crate::stats::median;
use crate::tracer::Tracer;

/// Span-time metrics: (metric, span). Each is the mean self time of one
/// call of the span.
const MEAN_SELF_NS: [(&str, &str); 10] = [
    ("sim.lint.ns", "sim.lint"),
    ("sim.flat.compile_ns", "sim.flat.compile"),
    ("sim.trace.record_ns", "sim.trace.record"),
    ("sim.trace.encode_ns", "sim.trace.encode"),
    ("sim.trace.decode_ns", "sim.trace.decode"),
    ("sim.replay.fanout_ns", "sim.replay.fanout"),
    ("txrace.sa.analyze_ns", "txrace.sa.analyze"),
    ("txrace.instrument.ns", "txrace.instrument"),
    ("hb.sharded.plan_ns", "hb.sharded.plan"),
    ("hb.sharded.run_ns", "hb.sharded.run"),
];

/// Per-event metrics: (metric, span, event counter).
const NS_PER_EVENT: [(&str, &str, &str); 4] = [
    ("sim.exec.ns_per_step", "sim.exec.floor", "sim.exec.steps"),
    (
        "txrace.baselines.tsan_ns_per_event",
        "txrace.baselines.tsan",
        "txrace.baselines.tsan_events",
    ),
    (
        "hb.fasttrack.ns_per_event",
        "hb.fasttrack.replay",
        "hb.fasttrack.events",
    ),
    (
        "hb.lockset.ns_per_event",
        "hb.lockset.replay",
        "hb.lockset.events",
    ),
];

/// Counts per round of jobs, taken from the traced rounds.
const TRACED_COUNTS: [(&str, &str); 3] = [
    ("sim.exec.steps", "count"),
    ("sim.trace.bytes", "bytes"),
    ("txrace.instrument.regions", "count"),
];

/// Counts per round of jobs, taken from the check round.
const CHECKED_COUNTS: [(&str, &str); 20] = [
    ("txrace.sa.pruned_fraction", "ratio"),
    ("txrace.engine.slow_entries", "count"),
    ("txrace.engine.loop_cuts", "count"),
    ("txrace.engine.elided_checks", "count"),
    ("txrace.control.epochs", "count"),
    ("txrace.control.active_epochs", "count"),
    ("txrace.cost.txn_mgmt", "cycles"),
    ("txrace.cost.conflict", "cycles"),
    ("txrace.cost.capacity", "cycles"),
    ("txrace.cost.unknown", "cycles"),
    ("txrace.cost.checks", "cycles"),
    ("txrace.cost.elided", "cycles"),
    ("htm.committed", "count"),
    ("htm.aborts.conflict", "count"),
    ("htm.aborts.capacity", "count"),
    ("htm.aborts.unknown", "count"),
    ("htm.aborts.retry", "count"),
    ("htm.aborts.explicit", "count"),
    ("htm.commit_ratio", "ratio"),
    ("hb.sharded.imbalance", "ratio"),
];

/// Every per-layer metric of a traced run. `untraced_job_ns` is the
/// median job time of the same run's untraced rounds.
pub fn per_layer(
    tr: &Tracer,
    checked: &[(&'static str, f64)],
    traced_rounds: usize,
    untraced_job_ns: f64,
) -> Vec<Metric> {
    let totals = tr.totals();
    let mean_self = |span: &str| {
        totals
            .get(span)
            .map_or(0.0, |t| t.self_ns as f64 / t.calls as f64)
    };
    let mean_wall = |span: &str| {
        totals
            .get(span)
            .map_or(0.0, |t| t.wall_ns as f64 / t.calls as f64)
    };
    let self_total = |span: &str| totals.get(span).map_or(0.0, |t| t.self_ns as f64);
    let per_event = |span: &str, counter: &str| {
        let events = tr.counter(counter);
        if events > 0.0 {
            self_total(span) / events
        } else {
            0.0
        }
    };
    let rounds = traced_rounds.max(1) as f64;

    let mut out = vec![Metric::exact(
        "workloads.build_ns",
        "ns",
        mean_wall("workloads.build"),
    )];
    out.extend(
        MEAN_SELF_NS
            .iter()
            .map(|&(name, span)| Metric::exact(name, "ns", mean_self(span))),
    );
    out.extend(
        NS_PER_EVENT
            .iter()
            .map(|&(name, span, counter)| Metric::exact(name, "ns", per_event(span, counter))),
    );
    out.extend(
        TRACED_COUNTS
            .iter()
            .map(|&(name, unit)| Metric::exact(name, unit, tr.counter(name) / rounds)),
    );
    out.extend(CHECKED_COUNTS.iter().map(|&(name, unit)| {
        let v = checked
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |c| c.1);
        Metric::exact(name, unit, v)
    }));

    // Replay: one fan-out pass against the sum of serial replays of the
    // same consumers.
    let serial = mean_wall("sim.replay.serial");
    let fanout = mean_self("sim.replay.fanout");
    out.push(Metric::exact("sim.replay.serial_ns", "ns", serial));
    out.push(Metric::exact(
        "sim.replay.fanout_speedup",
        "x",
        if fanout > 0.0 { serial / fanout } else { 0.0 },
    ));

    // Engine self time: the engine-driven run minus the interpreter floor
    // on the same instrumented program.
    let engine = totals.get("txrace.engine.run");
    let engine_calls = engine.map_or(0, |t| t.calls) as f64;
    let engine_self = if engine_calls > 0.0 {
        (self_total("txrace.engine.run") - tr.counter("txrace.engine.floor_ns")) / engine_calls
    } else {
        0.0
    };
    out.push(Metric::exact(
        "txrace.engine.run_ns",
        "ns",
        mean_self("txrace.engine.run"),
    ));
    out.push(Metric::exact("txrace.engine.self_ns", "ns", engine_self));

    // Sharded FastTrack, plan included, against one serial FastTrack pass
    // over the same log.
    let sharded = mean_self("hb.sharded.plan") + mean_self("hb.sharded.run");
    let serial_ft = mean_self("hb.fasttrack.replay");
    out.push(Metric::exact(
        "hb.sharded.speedup",
        "x",
        if sharded > 0.0 {
            serial_ft / sharded
        } else {
            0.0
        },
    ));

    // Tracing overhead and the part of each job no layer span covers.
    let jobs: Vec<(usize, f64)> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "job")
        .map(|(i, s)| (i, (s.end_ns - s.start_ns) as f64))
        .collect();
    let self_times = tr.self_times();
    let job_wall: Vec<f64> = jobs.iter().map(|j| j.1).collect();
    let uncovered: f64 = jobs.iter().map(|&(i, _)| self_times[i] as f64).sum();
    let traced_median = median(&job_wall);
    out.push(Metric::exact(
        "trace.overhead_ratio",
        "x",
        if untraced_job_ns > 0.0 && !jobs.is_empty() {
            traced_median / untraced_job_ns
        } else {
            0.0
        },
    ));
    out.push(Metric::exact(
        "trace.uncovered_fraction",
        "ratio",
        uncovered / job_wall.iter().sum::<f64>().max(1.0),
    ));
    out
}
