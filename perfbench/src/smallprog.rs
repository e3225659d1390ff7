//! `smallprog`: many small generated programs (channels enabled), each
//! one job through lint, flow-sensitive analysis, pruned instrumentation,
//! TSan, TxRace, TxRace+SA-flow, and record + FastTrack replay. The
//! programs are tiny, so per-program fixed costs dominate.

use txrace::{
    instrument_pruned, recall, Detector, InstrumentConfig, InstrumentedProgram, Knobs,
    MayRacePairs, RunConfig, RunOutcome, SiteClassTable, StaticPruneMode,
};
use txrace_hb::{FastTrack, ShadowMode};
use txrace_sim::{record_run, DirectRuntime, EventLog, Machine, Program, StepLimit};
use txrace_workloads::{random_program, GenConfig};

use crate::harness::{
    fingerprint, guarded, make_sched, Checked, Ctx, Fingerprint, Metric, Workload,
};
use crate::pipeline::{
    commit_ratio, engine_counts, fp_outcome, probe_engine_floor, run_detector, traced_engine,
    traced_lint, traced_run_instrumented, traced_tsan, Kind,
};
use crate::speed::Clock;
use crate::stats::geomean;
use crate::tracer::Tracer;

/// Programs per round.
pub const PROGRAMS: usize = 1000;

/// SplitMix64: the per-program seed stream derived from the run's seed.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Program `i`'s shape and seed.
fn shape(seed: u64, i: usize) -> (GenConfig, u64) {
    let s = splitmix(seed ^ splitmix(i as u64));
    let pick = |shift: u32, n: u64| ((s >> shift) % n) as usize;
    let cfg = GenConfig {
        threads: 3,
        ops_per_thread: 40 + pick(0, 41),
        shared_vars: 4 + pick(8, 4),
        locks: 2,
        conds: 1 + pick(16, 2),
        chans: 2,
    };
    (cfg, s)
}

pub struct SmallProg {
    programs: Vec<(Program, u64)>,
    ops: Vec<u64>,
}

/// Everything one job produced.
struct Outputs {
    table: SiteClassTable,
    tsan: RunOutcome,
    tx: RunOutcome,
    sa: RunOutcome,
    log: EventLog,
    ft: FastTrack,
}

impl Outputs {
    fn fingerprint(&self) -> u64 {
        fp_all(
            fp_outcome(&self.tsan),
            fp_outcome(&self.tx),
            fp_outcome(&self.sa),
            &self.ft,
            self.log.len(),
        )
    }
}

fn fp_all(tsan: u64, tx: u64, sa: u64, ft: &FastTrack, events: usize) -> u64 {
    fingerprint(&[&tsan, &tx, &sa, &ft.races().reports(), &events])
}

fn flow_knobs() -> Knobs {
    Knobs {
        prune: StaticPruneMode::FullFlow,
        ..Knobs::default()
    }
}

fn config(kind: Kind, seed: u64) -> RunConfig {
    kind.config(|s| RunConfig::new(s, seed))
}

impl SmallProg {
    fn outputs(&self, j: usize) -> Result<Outputs, String> {
        let (p, seed) = &self.programs[j];
        traced_lint(&mut Tracer::new(false), p)?;
        let table = SiteClassTable::analyze_flow(p);
        let ip = instrument_pruned(
            p,
            &InstrumentConfig::from_knobs(&flow_knobs()),
            Some(&table),
        );
        let tsan = run_detector(config(Kind::Tsan, *seed), p)?;
        let tx = run_detector(config(Kind::TxRace, *seed), p)?;
        let sa = Detector::new(config(Kind::SaFlow, *seed)).run_instrumented(&ip);
        if !sa.completed() {
            return Err(format!("SA-flow run did not complete: {:?}", sa.run.status));
        }
        let d = Detector::new(config(Kind::Tsan, *seed));
        let log = d.record(p);
        let ft = d.replay_into(&log, FastTrack::new(log.thread_count(), ShadowMode::Exact));
        Ok(Outputs {
            table,
            tsan,
            tx,
            sa,
            log,
            ft,
        })
    }

    /// The output checks of one job.
    fn check(&self, j: usize, o: &Outputs) -> Result<(), String> {
        let (p, seed) = &self.programs[j];
        // TxRace and TSan see different interleavings of a synchronizing
        // program, so their race sets are compared through the static
        // may-race over-approximation, which covers every true race on
        // any schedule; the flow layer never reports a pruned site.
        let candidates = MayRacePairs::analyze(p);
        for (name, out) in [
            ("TSan", &o.tsan),
            ("TxRace", &o.tx),
            ("TxRace+SA-flow", &o.sa),
        ] {
            if let Some(r) = out.races.pairs().find(|r| !candidates.contains(r.a, r.b)) {
                return Err(format!("{name} race {r:?} is not a may-race pair"));
            }
        }
        if let Some(r) =
            o.sa.races.reports().iter().find(|r| {
                o.table.is_race_free(r.prior.site) || o.table.is_race_free(r.current.site)
            })
        {
            return Err(format!("TxRace+SA-flow reported a pruned site: {r:?}"));
        }
        let d = Detector::new(config(Kind::Tsan, *seed));
        let replayed = d.replay(&o.log, d.consumer(p));
        if replayed.races.reports() != o.tsan.races.reports()
            || replayed.breakdown != o.tsan.breakdown
            || replayed.memory != o.tsan.memory
        {
            return Err("replayed TSan outcome differs from the live run".into());
        }
        // A pure observer leaves memory exactly as the uninstrumented run.
        let mut m = Machine::new(p);
        let mut sched = make_sched(&config(Kind::Tsan, *seed));
        m.run_with_limit(
            &mut DirectRuntime::default(),
            sched.as_mut(),
            StepLimit::default(),
        );
        if *m.memory() != o.tsan.memory {
            return Err("TSan final memory differs from the uninstrumented run".into());
        }
        Ok(())
    }
}

impl Workload for SmallProg {
    const CLOCK: Clock = Clock::ThreadCpu;

    fn setup(cx: &Ctx) -> Self {
        let programs: Vec<(Program, u64)> = (0..PROGRAMS)
            .map(|i| {
                let (cfg, seed) = shape(cx.seed, i);
                (random_program(&cfg, seed), seed)
            })
            .collect();
        let ops = programs
            .iter()
            .map(|(p, _)| p.fold_dynamic(|_| 1))
            .collect();
        SmallProg { programs, ops }
    }

    fn jobs(&self) -> usize {
        self.programs.len()
    }

    fn job_ops(&self, j: usize) -> u64 {
        self.ops[j]
    }

    fn run_job(&self, _cx: &Ctx, j: usize) -> Result<Fingerprint, String> {
        let o = self.outputs(j)?;
        Ok(Box::new(move || o.fingerprint()))
    }

    fn run_traced(&self, _cx: &Ctx, j: usize, tr: &mut Tracer) -> Result<Fingerprint, String> {
        let (p, seed) = &self.programs[j];
        let tsan_cfg = config(Kind::Tsan, *seed);
        let tx_cfg = config(Kind::TxRace, *seed);
        let sa_cfg = config(Kind::SaFlow, *seed);
        type Traced = (
            Fingerprint,
            InstrumentedProgram,
            InstrumentedProgram,
            EventLog,
        );
        let (fp, tx_ip, sa_ip, log) = tr.span("job", |tr| -> Result<Traced, String> {
            traced_lint(tr, p)?;
            let table = tr.span("txrace.sa.analyze", |_| SiteClassTable::analyze_flow(p));
            let icfg = InstrumentConfig::from_knobs(&flow_knobs());
            let ip = tr.span("txrace.instrument", |_| {
                instrument_pruned(p, &icfg, Some(&table))
            });
            tr.count("txrace.instrument.regions", ip.region_count() as f64);
            let tsan = traced_tsan(tr, &tsan_cfg, p)?;
            let (tx, tx_ip) = traced_engine(tr, &tx_cfg, p, Kind::TxRace)?;
            let sa = traced_run_instrumented(tr, &sa_cfg, &ip)?;
            traced_lint(tr, p)?;
            let mut sched = make_sched(&tsan_cfg);
            let log = tr.span("sim.trace.record", |_| {
                record_run(p, sched.as_mut(), StepLimit::default())
            });
            let mut ft = FastTrack::new(log.thread_count(), ShadowMode::Exact);
            tr.span("hb.fasttrack.replay", |_| log.replay(&mut ft));
            tr.count("hb.fasttrack.events", log.len() as f64);
            let events = log.len();
            let fp: Fingerprint = Box::new(move || fp_all(tsan(), tx(), sa(), &ft, events));
            Ok((fp, tx_ip, ip, log))
        })?;
        tr.span("probe", |tr| {
            probe_engine_floor(tr, &tx_cfg, &tx_ip);
            probe_engine_floor(tr, &sa_cfg, &sa_ip);
            let d = Detector::new(tsan_cfg.clone());
            let mut c = d.consumer(p);
            tr.span("txrace.baselines.tsan", |_| log.replay(&mut c));
            tr.count("txrace.baselines.tsan_events", log.len() as f64);
        });
        Ok(fp)
    }

    fn check_round(&self, _cx: &Ctx) -> Checked {
        let mut checked = Checked {
            fingerprints: vec![None; self.jobs()],
            ..Checked::default()
        };
        let (mut tsan_ovh, mut tx_ovh, mut sa_ovh, mut rec, mut pruned) =
            (vec![], vec![], vec![], vec![], vec![]);
        for j in 0..self.jobs() {
            let o = match guarded(|| self.outputs(j)) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("job {j}: {e}");
                    continue;
                }
            };
            checked.fingerprints[j] = Some(o.fingerprint());
            if let Err(e) = guarded(|| self.check(j, &o)) {
                checked.fail(j, e);
            }
            tsan_ovh.push(o.tsan.overhead);
            tx_ovh.push(o.tx.overhead);
            sa_ovh.push(o.sa.overhead);
            rec.push(recall(&o.tx.races, &o.tsan.races));
            pruned.push(o.table.stats(&self.programs[j].0).pruned_fraction());
            engine_counts(&o.tx, &mut checked.counts);
            engine_counts(&o.sa, &mut checked.counts);
        }
        commit_ratio(&mut checked.counts);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        checked
            .counts
            .push(("txrace.sa.pruned_fraction", mean(&pruned)));
        checked.modeled = vec![
            Metric::exact("overhead_tsan", "x", geomean(&tsan_ovh)),
            Metric::exact("overhead_txrace", "x", geomean(&tx_ovh)),
            Metric::exact("overhead_txrace_sa", "x", geomean(&sa_ovh)),
            Metric::exact("recall_txrace", "ratio", mean(&rec)),
        ];
        checked
    }
}
