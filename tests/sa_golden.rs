//! Per-site golden for the static analysis: every verdict, witness,
//! may-race pair and watch site the `txrace::sa` pipeline produces is
//! pinned, program by program, so a change to the analysis's data layout
//! must reproduce its output exactly.
//!
//! Covered: the 17 workloads at 4 workers, and 200 generated programs of
//! the `smallprog` benchmark shape (channels on), both at seed 42. Per
//! program the fixture holds
//!
//! * `full`: the flow-insensitive class of every site, one letter each
//!   (see [`class_code`]);
//! * `flow`: the flow-sensitive class of every site, same letters;
//! * `witnesses`: `[site, witness]` for every redundant-check site;
//! * `pairs`: `[a, b, witness address]` for every may-race pair;
//! * `watch`: the production watch set;
//! * `stats_full` / `stats_flow`: the [`PruneStats`] of both tables, as
//!   `[data_sites, race_free, single_phase, thread_local, read_only,
//!   lockset, dead, must_locked, ordered_by_phase, redundant_check,
//!   benign_atomic, dyn_data_ops, dyn_race_free]`.
//!
//! Regenerate (only when the analysis is *supposed* to change) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p txrace --test sa_golden
//! ```

use std::fmt::Write as _;

use txrace::{watch_sites, FlowAnalysis, PruneStats, RaceFreeReason, SiteClass, SiteClassTable};
use txrace_sim::{Program, SiteId};
use txrace_workloads::{all_workloads, random_program, GenConfig};

const WORKERS: usize = 4;
const SEED: u64 = 42;
const GENERATED: usize = 200;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden_sa.json"
);

/// SplitMix64, the per-program seed stream of the `smallprog` benchmark.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generated program `i`: the `smallprog` shape and seed.
fn generated(i: usize) -> Program {
    let s = splitmix(SEED ^ splitmix(i as u64));
    let pick = |shift: u32, n: u64| ((s >> shift) % n) as usize;
    let cfg = GenConfig {
        threads: 3,
        ops_per_thread: 40 + pick(0, 41),
        shared_vars: 4 + pick(8, 4),
        locks: 2,
        conds: 1 + pick(16, 2),
        chans: 2,
    };
    random_program(&cfg, s)
}

/// One letter per verdict: `.` potentially racy, else the reason.
fn class_code(c: SiteClass) -> char {
    match c {
        SiteClass::PotentiallyRacy => '.',
        SiteClass::RaceFree(r) => match r {
            RaceFreeReason::SinglePhase => 's',
            RaceFreeReason::ThreadLocal => 't',
            RaceFreeReason::ReadOnly => 'r',
            RaceFreeReason::Lockset => 'l',
            RaceFreeReason::Dead => 'd',
            RaceFreeReason::MustLocked => 'm',
            RaceFreeReason::OrderedByPhase => 'o',
            RaceFreeReason::RedundantCheck => 'c',
            RaceFreeReason::BenignAtomic => 'a',
        },
    }
}

fn classes(p: &Program, t: &SiteClassTable) -> String {
    (0..p.site_count())
        .map(|s| class_code(t.class(SiteId(s))))
        .collect()
}

fn stats_json(s: &PruneStats) -> String {
    let fields = [
        s.data_sites,
        s.race_free,
        s.single_phase,
        s.thread_local,
        s.read_only,
        s.lockset,
        s.dead,
        s.must_locked,
        s.ordered_by_phase,
        s.redundant_check,
        s.benign_atomic,
        s.dyn_data_ops,
        s.dyn_race_free,
    ];
    list(fields.into_iter(), |o, v| {
        let _ = write!(o, "{v}");
    })
}

fn list<T>(items: impl Iterator<Item = T>, f: impl Fn(&mut String, T)) -> String {
    let mut s = String::from("[");
    for (i, x) in items.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        f(&mut s, x);
    }
    s.push(']');
    s
}

/// One canonical line per program.
fn golden_line(name: &str, p: &Program) -> String {
    let full = SiteClassTable::analyze(p);
    let fa = FlowAnalysis::run(p);
    let witnesses = list(
        (0..p.site_count()).filter_map(|s| fa.table.witness_of(SiteId(s)).map(|w| (s, w))),
        |o, (s, w)| {
            let _ = write!(o, "[{s}, {}]", w.0);
        },
    );
    let pairs = list(fa.pairs.pairs(), |o, pr| {
        let a = fa.pairs.witness_addr(pr).expect("pair has a witness");
        let _ = write!(o, "[{}, {}, {}]", pr.a.0, pr.b.0, a.0);
    });
    let watch = list(watch_sites(p, &fa.table).into_iter(), |o, s| {
        let _ = write!(o, "{}", s.0);
    });
    format!(
        "  {{\"program\": \"{name}\", \"full\": \"{}\", \"flow\": \"{}\", \
         \"witnesses\": {witnesses}, \"pairs\": {pairs}, \"watch\": {watch}, \
         \"stats_full\": {}, \"stats_flow\": {}}}",
        classes(p, &full),
        classes(p, &fa.table),
        stats_json(&full.stats(p)),
        stats_json(&fa.table.stats(p)),
    )
}

fn current_golden() -> String {
    let mut lines = Vec::new();
    for w in all_workloads(WORKERS) {
        lines.push(golden_line(w.name, &w.program));
    }
    for i in 0..GENERATED {
        lines.push(golden_line(&format!("genprog-{i}"), &generated(i)));
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn static_analysis_matches_per_site_golden() {
    let got = current_golden();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write golden fixture");
        eprintln!("golden fixture updated: {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; run with UPDATE_GOLDEN=1 to create it");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "static analysis output diverged from the golden");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "program count differs from the golden"
    );
}
