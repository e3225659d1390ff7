//! Golden equivalence suite: the detectors' *results* are pinned to
//! fixtures captured from the pre-refactor (hash-map-based) shadow-state
//! implementation. Any storage-layout change — dense tables, bitsets,
//! interned indices — must reproduce exactly these race sets and abort
//! counts on all 17 workloads.
//!
//! Regenerate (only when results are *supposed* to change, e.g. a new
//! workload) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden_equivalence
//! ```

use std::fmt::Write as _;

use txrace::{Detector, RunOutcome, Scheme};
use txrace_workloads::all_workloads;

const WORKERS: usize = 4;
const SEED: u64 = 42;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden_workloads.json"
);

fn race_pairs(out: &RunOutcome) -> String {
    let mut s = String::from("[");
    for (i, p) in out.races.pairs().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "[{}, {}]", p.a.0, p.b.0);
    }
    s.push(']');
    s
}

/// One canonical line per workload: every field a storage refactor could
/// plausibly disturb, in a stable order, ending with TxRace's Figure 7
/// buckets (a cost moved between buckets keeps the total but not these).
fn golden_line(name: &str, tsan: &RunOutcome, tx: &RunOutcome) -> String {
    let h = tx.htm.as_ref().expect("txrace run has HTM stats");
    let e = tx.engine.as_ref().expect("txrace run has engine stats");
    let bd = &tx.breakdown;
    format!(
        "  {{\"app\": \"{name}\", \
         \"tsan_races\": {}, \"txrace_races\": {}, \
         \"committed\": {}, \"conflict_aborts\": {}, \"capacity_aborts\": {}, \
         \"unknown_aborts\": {}, \"retry_aborts\": {}, \"explicit_aborts\": {}, \
         \"txfail_writes\": {}, \"loop_cuts\": {}, \
         \"tsan_cycles\": {}, \"txrace_cycles\": {}, \
         \"bd_baseline\": {}, \"bd_txn_mgmt\": {}, \"bd_conflict\": {}, \
         \"bd_capacity\": {}, \"bd_unknown\": {}, \"bd_checks\": {}, \
         \"bd_elided\": {}}}",
        race_pairs(tsan),
        race_pairs(tx),
        h.committed,
        h.conflict_aborts,
        h.capacity_aborts,
        h.unknown_aborts,
        h.retry_aborts,
        h.explicit_aborts,
        e.txfail_writes,
        e.loop_cuts,
        tsan.breakdown.total(),
        tx.breakdown.total(),
        bd.baseline,
        bd.txn_mgmt,
        bd.conflict,
        bd.capacity,
        bd.unknown,
        bd.checks,
        bd.elided,
    )
}

fn current_golden() -> String {
    let mut lines = Vec::new();
    for w in all_workloads(WORKERS) {
        let tsan = Detector::new(w.config(Scheme::Tsan, SEED)).run(&w.program);
        let tx = Detector::new(w.config(Scheme::txrace(), SEED)).run(&w.program);
        assert!(tsan.completed() && tx.completed(), "{}", w.name);
        lines.push(golden_line(w.name, &tsan, &tx));
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn dense_tables_match_prerefactor_goldens() {
    let got = current_golden();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write golden fixture");
        eprintln!("golden fixture updated: {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; run with UPDATE_GOLDEN=1 to create it");
    if got != want {
        // Find the first differing app line for a readable failure.
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(
                g, w,
                "detection results diverged from the pre-refactor golden"
            );
        }
        assert_eq!(
            got, want,
            "detection results diverged from the pre-refactor golden"
        );
    }
}
