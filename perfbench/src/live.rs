//! `live`: the Table 1 grid. Every app at four simulated workers under
//! TSan, TxRace, TxRace+SA-flow and ProductionMode(1.2), one
//! `Detector::run` per job.

use txrace::{recall, RunOutcome, SiteClassTable};
use txrace_workloads::{all_workloads, Workload as App};

use crate::golden::Golden;
use crate::harness::{guarded, Checked, Ctx, Fingerprint, Metric, Workload};
use crate::pipeline::{
    commit_ratio, engine_counts, fp_outcome, probe_engine_floor, probe_floor, run_detector,
    traced_engine, traced_tsan, Kind,
};
use crate::speed::Clock;
use crate::stats::geomean;
use crate::tracer::Tracer;

/// Simulated worker threads per app, as in Table 1.
pub const WORKERS: usize = 4;

/// The message-passing families have no paper row; the headline geomeans
/// cover the paper's apps only, as `table1` and `frontier` do.
pub fn is_paper_app(name: &str) -> bool {
    !matches!(name, "pipeline" | "actors" | "worksteal")
}

pub struct Live {
    apps: Vec<App>,
    ops: Vec<u64>,
}

impl Live {
    fn job(&self, j: usize) -> (&App, Kind) {
        (
            &self.apps[j / Kind::ALL.len()],
            Kind::ALL[j % Kind::ALL.len()],
        )
    }

    fn config(&self, cx: &Ctx, j: usize) -> txrace::RunConfig {
        let (app, kind) = self.job(j);
        kind.config(|s| app.config(s, cx.seed))
    }
}

impl Workload for Live {
    const CLOCK: Clock = Clock::ThreadCpu;

    fn setup(_cx: &Ctx) -> Self {
        let apps = all_workloads(WORKERS);
        let ops = apps.iter().map(|a| a.program.fold_dynamic(|_| 1)).collect();
        Live { apps, ops }
    }

    fn jobs(&self) -> usize {
        self.apps.len() * Kind::ALL.len()
    }

    fn job_ops(&self, j: usize) -> u64 {
        self.ops[j / Kind::ALL.len()]
    }

    fn run_job(&self, cx: &Ctx, j: usize) -> Result<Fingerprint, String> {
        let out = run_detector(self.config(cx, j), &self.job(j).0.program)?;
        Ok(Box::new(move || fp_outcome(&out)))
    }

    fn run_traced(&self, cx: &Ctx, j: usize, tr: &mut Tracer) -> Result<Fingerprint, String> {
        let (app, kind) = self.job(j);
        let cfg = self.config(cx, j);
        let p = &app.program;
        if kind == Kind::Tsan {
            let fp = tr.span("job", |tr| traced_tsan(tr, &cfg, p))?;
            tr.span("probe", |tr| probe_floor(tr, &cfg, p));
            return Ok(fp);
        }
        let (fp, ip) = tr.span("job", |tr| traced_engine(tr, &cfg, p, kind))?;
        tr.span("probe", |tr| probe_engine_floor(tr, &cfg, &ip));
        Ok(fp)
    }

    fn check_round(&self, cx: &Ctx) -> Checked {
        let n = Kind::ALL.len();
        let mut checked = Checked {
            fingerprints: vec![None; self.jobs()],
            ..Checked::default()
        };
        let golden = Golden::load(cx);
        let (mut tsan_ovh, mut tx_ovh, mut sa_ovh, mut prod_ovh) = (vec![], vec![], vec![], vec![]);
        let (mut tx_recall, mut prod_recall) = (vec![], vec![]);
        let mut pruned = Vec::new();
        // One app at a time, so only one app's outcomes are ever held.
        for (a, app) in self.apps.iter().enumerate() {
            let outs: Vec<Option<RunOutcome>> = (a * n..(a + 1) * n)
                .map(|j| {
                    guarded(|| run_detector(self.config(cx, j), &app.program))
                        .map_err(|e| eprintln!("job {j}: {e}"))
                        .ok()
                })
                .collect();
            for (k, o) in outs.iter().enumerate() {
                checked.fingerprints[a * n + k] = o.as_ref().map(fp_outcome);
            }
            let at = |k: usize| outs[k].as_ref();
            let (tsan, tx, sa, prod) = (at(0), at(1), at(2), at(3));
            // Invariant 4: every TxRace-family race is a TSan race.
            if let Some(tsan) = tsan {
                for k in 1..n {
                    if let Some(o) = at(k) {
                        if let Some(p) = o.races.pairs().find(|p| !tsan.races.contains(p.a, p.b)) {
                            checked.fail(
                                a * n + k,
                                format!("{}: race {p:?} not in TSan's set", app.name),
                            );
                        }
                    }
                }
            }
            if let Some(g) = &golden {
                if let (Some(tsan), Some(tx)) = (tsan, tx) {
                    if let Err(e) = g.check_workload(app.name, tsan, Some(tx)) {
                        checked.fail(a * n, &e);
                        checked.fail(a * n + 1, &e);
                    }
                }
                if let (Some(sa), Some(prod)) = (sa, prod) {
                    if let Err(e) = g.check_frontier(app.name, prod, sa) {
                        checked.fail(a * n + 3, e);
                    }
                }
            }
            for o in [tx, sa, prod].into_iter().flatten() {
                engine_counts(o, &mut checked.counts);
            }
            pruned.push(
                SiteClassTable::analyze_flow(&app.program)
                    .stats(&app.program)
                    .pruned_fraction(),
            );
            if !is_paper_app(app.name) {
                continue;
            }
            if let (Some(tsan), Some(tx), Some(sa), Some(prod)) = (tsan, tx, sa, prod) {
                tsan_ovh.push(tsan.overhead);
                tx_ovh.push(tx.overhead);
                sa_ovh.push(sa.overhead);
                prod_ovh.push(prod.overhead);
                tx_recall.push(recall(&tx.races, &tsan.races));
                prod_recall.push(recall(&prod.races, &sa.races));
            }
        }
        commit_ratio(&mut checked.counts);
        checked.counts.push((
            "txrace.sa.pruned_fraction",
            pruned.iter().sum::<f64>() / pruned.len().max(1) as f64,
        ));
        checked.modeled = vec![
            Metric::exact("overhead_tsan", "x", geomean(&tsan_ovh)),
            Metric::exact("overhead_txrace", "x", geomean(&tx_ovh)),
            Metric::exact("overhead_txrace_sa", "x", geomean(&sa_ovh)),
            Metric::exact("overhead_prod", "x", geomean(&prod_ovh)),
            Metric::exact(
                "recall_txrace",
                "ratio",
                tx_recall.iter().sum::<f64>() / tx_recall.len().max(1) as f64,
            ),
            Metric::exact(
                "recall_prod_min",
                "ratio",
                prod_recall
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
                    .min(1.0),
            ),
        ];
        checked
    }
}
