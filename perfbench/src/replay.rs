//! `replay`: record once, replay many, over the nine racy apps. One job
//! is one app's whole pipeline: record, an in-memory encode/decode round
//! trip, the twelve-configuration TSan sampling sweep plus FastTrack and
//! lockset in one `fan_out` pass, and sharded FastTrack over a
//! `ShardPlan`, both at the host's width.

use txrace::{Detector, LocksetConsumer, PanelConsumer, RunConfig, RunOutcome, Scheme};
use txrace_hb::{FastTrack, ShadowMode, ShardPlan, ShardedFastTrack, ShardedFtOutcome};
use txrace_sim::{fan_out, record_run, EventLog, StepLimit};
use txrace_workloads::{by_name, Workload as App};

use crate::golden::Golden;
use crate::harness::{
    fingerprint, guarded, make_sched, Checked, Ctx, Fingerprint, Metric, Workload,
};
use crate::live::WORKERS;
use crate::pipeline::{fp_outcome, probe_floor, run_detector, traced_lint};
use crate::speed::Clock;
use crate::stats::geomean;
use crate::tracer::Tracer;

/// The apps with planted races (Figure 11's set).
const RACY_APPS: [&str; 9] = [
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

/// Full TSan, then sampling rates 0.0, 0.1, ..., 1.0 (Figures 12/13).
fn sweep() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Tsan];
    schemes.extend((0..=10).map(|i| Scheme::TsanSampling {
        rate: i as f64 / 10.0,
    }));
    schemes
}

pub struct Replay {
    apps: Vec<App>,
    ops: Vec<u64>,
}

/// Everything one job produced.
struct Pipeline {
    log: EventLog,
    /// The sweep's outcomes, in [`sweep`] order.
    tsan: Vec<RunOutcome>,
    /// The panel's other members: raw FastTrack, then lockset.
    others: Vec<PanelConsumer>,
    sharded: ShardedFtOutcome,
}

impl Pipeline {
    fn fingerprint(&self) -> u64 {
        let tsan: Vec<u64> = self.tsan.iter().map(fp_outcome).collect();
        let others: Vec<u64> = self.others.iter().map(PanelConsumer::fingerprint).collect();
        fingerprint(&[
            &tsan,
            &others,
            &self.sharded.races.reports(),
            &self.log.len(),
        ])
    }
}

impl Replay {
    fn config(&self, cx: &Ctx, j: usize, scheme: Scheme) -> RunConfig {
        self.apps[j].config(scheme, cx.seed)
    }

    fn detectors(&self, cx: &Ctx, j: usize) -> Vec<Detector> {
        sweep()
            .into_iter()
            .map(|s| Detector::new(self.config(cx, j, s)))
            .collect()
    }

    /// The panel: one TSan consumer per sweep configuration, then raw
    /// FastTrack and the lockset baseline.
    fn panel(
        &self,
        cx: &Ctx,
        j: usize,
        detectors: &[Detector],
        threads: usize,
    ) -> Vec<PanelConsumer> {
        let p = &self.apps[j].program;
        let mut panel: Vec<PanelConsumer> = detectors
            .iter()
            .map(|d| PanelConsumer::Tsan(d.consumer(p)))
            .collect();
        panel.push(PanelConsumer::FastTrack(FastTrack::new(
            threads,
            ShadowMode::Exact,
        )));
        panel.push(PanelConsumer::Lockset(LocksetConsumer::new(
            threads,
            self.config(cx, j, Scheme::Tsan).cost,
        )));
        panel
    }

    fn pipeline(&self, cx: &Ctx, j: usize) -> Result<Pipeline, String> {
        let mut off = Tracer::new(false);
        let p = &self.apps[j].program;
        let recorded = Detector::new(self.config(cx, j, Scheme::Tsan)).record(p);
        let log = EventLog::from_bytes(&recorded.to_bytes())?;
        let detectors = self.detectors(cx, j);
        let panel = self.panel(cx, j, &detectors, log.thread_count());
        let (tsan, others) = detect(cx, &log, &detectors, panel, &mut off);
        let plan = ShardPlan::build(&log, cx.width);
        let sharded = ShardedFastTrack::new(log.thread_count(), cx.width).run_with_plan(&plan);
        completed(&tsan)?;
        Ok(Pipeline {
            log,
            tsan,
            others,
            sharded,
        })
    }
}

/// Fans the panel over `log`, then assembles the sweep's outcomes.
fn detect(
    cx: &Ctx,
    log: &EventLog,
    detectors: &[Detector],
    panel: Vec<PanelConsumer>,
    tr: &mut Tracer,
) -> (Vec<RunOutcome>, Vec<PanelConsumer>) {
    let reports = tr.span("sim.replay.fanout", |_| fan_out(log, panel, cx.width));
    tr.span("txrace.baselines.outcome", |_| {
        let mut tsan = Vec::new();
        let mut others = Vec::new();
        for (i, r) in reports.into_iter().enumerate() {
            match r.consumer {
                PanelConsumer::Tsan(c) => tsan.push(detectors[i].outcome_of_replayed(c, log)),
                other => others.push(other),
            }
        }
        (tsan, others)
    })
}

fn completed(outs: &[RunOutcome]) -> Result<(), String> {
    match outs.iter().find(|o| !o.completed()) {
        Some(o) => Err(format!("recorded run did not complete: {:?}", o.run.status)),
        None => Ok(()),
    }
}

impl Workload for Replay {
    const CLOCK: Clock = Clock::Wall;

    fn setup(_cx: &Ctx) -> Self {
        let apps: Vec<App> = RACY_APPS
            .iter()
            .map(|n| by_name(n, WORKERS).expect("racy app exists"))
            .collect();
        let ops = apps.iter().map(|a| a.program.fold_dynamic(|_| 1)).collect();
        Replay { apps, ops }
    }

    fn jobs(&self) -> usize {
        self.apps.len()
    }

    fn job_ops(&self, j: usize) -> u64 {
        self.ops[j]
    }

    fn run_job(&self, cx: &Ctx, j: usize) -> Result<Fingerprint, String> {
        let run = self.pipeline(cx, j)?;
        Ok(Box::new(move || run.fingerprint()))
    }

    fn run_traced(&self, cx: &Ctx, j: usize, tr: &mut Tracer) -> Result<Fingerprint, String> {
        let p = &self.apps[j].program;
        let cfg = self.config(cx, j, Scheme::Tsan);
        let run = tr.span("job", |tr| -> Result<Pipeline, String> {
            traced_lint(tr, p)?;
            let mut sched = make_sched(&cfg);
            let recorded = tr.span("sim.trace.record", |_| {
                record_run(p, sched.as_mut(), StepLimit::default())
            });
            let bytes = tr.span("sim.trace.encode", |_| recorded.to_bytes());
            tr.count("sim.trace.bytes", bytes.len() as f64);
            let log = tr.span("sim.trace.decode", |_| EventLog::from_bytes(&bytes))?;
            let (detectors, panel) = tr.span("txrace.baselines.consumer", |_| {
                let detectors = self.detectors(cx, j);
                let panel = self.panel(cx, j, &detectors, log.thread_count());
                (detectors, panel)
            });
            let (tsan, others) = detect(cx, &log, &detectors, panel, tr);
            let plan = tr.span("hb.sharded.plan", |_| ShardPlan::build(&log, cx.width));
            let sharded = tr.span("hb.sharded.run", |_| {
                ShardedFastTrack::new(log.thread_count(), cx.width).run_with_plan(&plan)
            });
            completed(&tsan)?;
            Ok(Pipeline {
                log,
                tsan,
                others,
                sharded,
            })
        })?;
        tr.span("probe", |tr| {
            probe_floor(tr, &cfg, p);
            self.probe_serial(cx, j, &run.log, tr);
        });
        Ok(Box::new(move || run.fingerprint()))
    }

    fn check_round(&self, cx: &Ctx) -> Checked {
        let mut checked = Checked {
            fingerprints: vec![None; self.jobs()],
            ..Checked::default()
        };
        let golden = Golden::load(cx);
        let mut overheads = Vec::new();
        let mut imbalance = Vec::new();
        // One app at a time, so only one pipeline's outputs are ever held.
        for (j, app) in self.apps.iter().enumerate() {
            let run = match guarded(|| self.pipeline(cx, j)) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("job {j}: {e}");
                    continue;
                }
            };
            checked.fingerprints[j] = Some(run.fingerprint());
            if let Err(e) = guarded(|| self.check(cx, j, &run, golden.as_ref())) {
                checked.fail(j, format!("{}: {e}", app.name));
            }
            overheads.push(run.tsan[0].overhead);
            let events: Vec<f64> = run.sharded.shards.iter().map(|s| s.events as f64).collect();
            let mean = events.iter().sum::<f64>() / events.len().max(1) as f64;
            imbalance.push(events.iter().copied().fold(0.0, f64::max) / mean.max(1.0));
        }
        checked.modeled = vec![Metric::exact("overhead_tsan", "x", geomean(&overheads))];
        checked.counts.push((
            "hb.sharded.imbalance",
            imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64,
        ));
        checked
    }
}

impl Replay {
    /// The output checks of one job's pipeline.
    fn check(
        &self,
        cx: &Ctx,
        j: usize,
        run: &Pipeline,
        golden: Option<&Golden>,
    ) -> Result<(), String> {
        let app = &self.apps[j];
        // The replayed TSan outcome equals a live TSan run.
        let live = run_detector(self.config(cx, j, Scheme::Tsan), &app.program)?;
        let replayed = &run.tsan[0];
        if live.races.reports() != replayed.races.reports()
            || live.breakdown != replayed.breakdown
            || live.checks != replayed.checks
            || live.memory != replayed.memory
            || live.run != replayed.run
        {
            return Err("replayed TSan outcome differs from the live run".into());
        }
        // The fan-out pass equals serial replay, consumer by consumer.
        let detectors = self.detectors(cx, j);
        let serial = self.panel(cx, j, &detectors, run.log.thread_count());
        let mut others = run.others.iter();
        for (i, mut c) in serial.into_iter().enumerate() {
            run.log.replay(&mut c);
            let same = match &c {
                PanelConsumer::Tsan(t) => {
                    t.races().reports() == run.tsan[i].races.reports()
                        && t.breakdown() == run.tsan[i].breakdown
                }
                _ => others.next().map(PanelConsumer::fingerprint) == Some(c.fingerprint()),
            };
            if !same {
                return Err(format!(
                    "fan_out consumer {i} ({}) differs from serial replay",
                    c.kind_name()
                ));
            }
            // Sharded races are byte-identical to serial FastTrack.
            if let PanelConsumer::FastTrack(ft) = &c {
                if run.sharded.races.reports() != ft.races().reports()
                    || run.sharded.checks != ft.checks()
                {
                    return Err("sharded FastTrack differs from serial FastTrack".into());
                }
            }
        }
        if let Some(g) = golden {
            g.check_workload(app.name, replayed, None)?;
        }
        Ok(())
    }

    /// Serial replays of a fresh panel, one span per consumer kind.
    fn probe_serial(&self, cx: &Ctx, j: usize, log: &EventLog, tr: &mut Tracer) {
        let detectors = self.detectors(cx, j);
        let panel = self.panel(cx, j, &detectors, log.thread_count());
        let events = log.len() as f64;
        tr.span("sim.replay.serial", |tr| {
            for (i, mut c) in panel.into_iter().enumerate() {
                let (span, counter) = match (&c, i) {
                    (PanelConsumer::Tsan(_), 0) => (
                        "txrace.baselines.tsan",
                        Some("txrace.baselines.tsan_events"),
                    ),
                    (PanelConsumer::Tsan(_), _) => ("txrace.baselines.tsan_sampling", None),
                    (PanelConsumer::FastTrack(_), _) => {
                        ("hb.fasttrack.replay", Some("hb.fasttrack.events"))
                    }
                    _ => ("hb.lockset.replay", Some("hb.lockset.events")),
                };
                tr.span(span, |_| log.replay(&mut c));
                if let Some(counter) = counter {
                    tr.count(counter, events);
                }
            }
        });
    }
}
