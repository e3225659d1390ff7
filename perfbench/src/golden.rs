//! Seed-42 output checks against the repository's golden fixtures
//! (`tests/fixtures/golden_workloads.json`: TSan and TxRace race sets,
//! HTM counters and cycles; `tests/fixtures/golden_frontier.json`:
//! ProductionMode at each budget). The fixtures are only read.

use txrace::{recall, RunOutcome};

use crate::harness::Ctx;
use crate::json::Json;
use crate::pipeline::PROD_BUDGET;

/// The seed the fixtures were captured at.
pub const GOLDEN_SEED: u64 = 42;

pub struct Golden {
    workloads: Result<Json, String>,
    frontier: Result<Json, String>,
}

fn load(cx: &Ctx, file: &str) -> Result<Json, String> {
    let path = cx.root.join("tests/fixtures").join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn pairs(out: &RunOutcome) -> Json {
    Json::Arr(
        out.races
            .pairs()
            .map(|p| Json::Arr(vec![Json::Num(p.a.0 as f64), Json::Num(p.b.0 as f64)]))
            .collect(),
    )
}

fn expect(app: &str, field: &str, want: Option<&Json>, got: Json) -> Result<(), String> {
    match want {
        Some(w) if *w == got => Ok(()),
        _ => Err(format!("{app}: {field} is {got:?}, golden has {want:?}")),
    }
}

impl Golden {
    /// The fixtures, when the run's seed is the one they pin.
    pub fn load(cx: &Ctx) -> Option<Golden> {
        (cx.seed == GOLDEN_SEED).then(|| Golden {
            workloads: load(cx, "golden_workloads.json"),
            frontier: load(cx, "golden_frontier.json"),
        })
    }

    fn row<'a>(
        rows: &'a Result<Json, String>,
        app: &str,
        budget: Option<f64>,
    ) -> Result<&'a Json, String> {
        let rows = rows.as_ref().map_err(Clone::clone)?;
        rows.items()
            .iter()
            .find(|r| {
                r.str("app") == Some(app) && budget.is_none_or(|b| r.num("budget") == Some(b))
            })
            .ok_or_else(|| format!("{app}: no golden row"))
    }

    /// TSan (and, when given, TxRace) against `golden_workloads.json`.
    pub fn check_workload(
        &self,
        app: &str,
        tsan: &RunOutcome,
        tx: Option<&RunOutcome>,
    ) -> Result<(), String> {
        let row = Self::row(&self.workloads, app, None)?;
        let num = |v: u64| Json::Num(v as f64);
        expect(app, "tsan_races", row.get("tsan_races"), pairs(tsan))?;
        expect(
            app,
            "tsan_cycles",
            row.get("tsan_cycles"),
            num(tsan.breakdown.total()),
        )?;
        let Some(tx) = tx else { return Ok(()) };
        let h = tx.htm.as_ref().ok_or("TxRace run has no HTM stats")?;
        let e = tx.engine.as_ref().ok_or("TxRace run has no engine stats")?;
        for (field, got) in [
            ("committed", h.committed),
            ("conflict_aborts", h.conflict_aborts),
            ("capacity_aborts", h.capacity_aborts),
            ("unknown_aborts", h.unknown_aborts),
            ("retry_aborts", h.retry_aborts),
            ("explicit_aborts", h.explicit_aborts),
            ("txfail_writes", e.txfail_writes),
            ("loop_cuts", e.loop_cuts),
            ("txrace_cycles", tx.breakdown.total()),
        ] {
            expect(app, field, row.get(field), num(got))?;
        }
        expect(app, "txrace_races", row.get("txrace_races"), pairs(tx))
    }

    /// ProductionMode at the benchmark's budget against
    /// `golden_frontier.json`, whose truth is TxRace+SA-flow.
    pub fn check_frontier(
        &self,
        app: &str,
        prod: &RunOutcome,
        truth: &RunOutcome,
    ) -> Result<(), String> {
        let row = Self::row(&self.frontier, app, Some(PROD_BUDGET))?;
        let tm = prod
            .telemetry
            .as_ref()
            .ok_or("production run has no telemetry")?;
        for (field, got) in [
            ("overhead", prod.overhead),
            ("races", prod.races.distinct_count() as f64),
            ("truth_races", truth.races.distinct_count() as f64),
            ("recall", recall(&prod.races, &truth.races)),
            ("epochs", tm.epochs.len() as f64),
            ("active_epochs", tm.active_epochs() as f64),
        ] {
            expect(app, field, row.get(field), Json::Num(got))?;
        }
        Ok(())
    }
}
