//! The IR storage invariant: a `Program` holds its statements at exact
//! size and its site labels in one sparse table that every instrumented
//! copy shares. Covers every bundled workload, generated programs with
//! channels, and the instrumentation pass's output for each (plain and
//! pruned by the flow-sensitive analysis).

use txrace::{
    instrument, instrument_pruned, InstrumentConfig, Knobs, SiteClassTable, StaticPruneMode,
};
use txrace_sim::{Program, SiteId, Stmt, ThreadId};
use txrace_workloads::{all_workloads, random_program, GenConfig};

/// Every loop body, at any depth, has no spare capacity. Thread bodies
/// are boxed slices, exact by type.
fn assert_exact(what: &str, stmts: &[Stmt]) {
    for s in stmts {
        if let Stmt::Loop { id, body, .. } = s {
            assert_eq!(
                body.len(),
                body.capacity(),
                "{what}: loop {id} body keeps spare capacity"
            );
            assert_exact(what, body);
        }
    }
}

fn assert_program_exact(what: &str, p: &Program) {
    for t in 0..p.thread_count() {
        assert_exact(what, p.thread(ThreadId(t as u32)));
    }
}

/// Every label resolves to its site and back, and the table holds only
/// labelled sites in site order.
fn assert_labels_round_trip(what: &str, p: &Program) {
    let table = p.labels();
    assert!(
        table.windows(2).all(|w| w[0].0 < w[1].0),
        "{what}: label table not sorted by site"
    );
    for (site, label) in table {
        assert_eq!(p.site(label), Some(*site), "{what}: site({label:?})");
        assert_eq!(
            p.label_of(*site),
            Some(&**label),
            "{what}: label_of({site})"
        );
    }
}

/// An instrumented copy answers every label query as its original does
/// (marker sites carry no label) and shares the original's table.
fn assert_copy_shares_labels(what: &str, p: &Program, copy: &Program) {
    assert!(
        std::ptr::eq(p.labels(), copy.labels()),
        "{what}: instrumented copy does not share the label table"
    );
    for s in 0..copy.site_count() {
        let site = SiteId(s);
        let expect = if s < p.site_count() {
            p.label_of(site)
        } else {
            None
        };
        assert_eq!(copy.label_of(site), expect, "{what}: label_of({site})");
    }
    for (_, label) in p.labels() {
        assert_eq!(copy.site(label), p.site(label), "{what}: site({label:?})");
    }
}

fn check(what: &str, p: &Program) {
    assert_program_exact(what, p);
    assert_labels_round_trip(what, p);
    let flow = InstrumentConfig::from_knobs(&Knobs {
        prune: StaticPruneMode::FullFlow,
        ..Knobs::default()
    });
    let table = SiteClassTable::analyze_flow(p);
    for ip in [
        instrument(p, &InstrumentConfig::default()),
        instrument_pruned(p, &flow, Some(&table)),
    ] {
        assert_program_exact(what, &ip.program);
        assert_copy_shares_labels(what, p, &ip.program);
    }
}

#[test]
fn bundled_workloads_are_exact_and_share_labels() {
    let mut labelled = 0;
    for w in all_workloads(4) {
        labelled += w.program.labels().len();
        check(w.name, &w.program);
    }
    assert!(labelled > 0, "no bundled workload labels a site");
}

#[test]
fn generated_programs_are_exact_and_share_labels() {
    let cfg = GenConfig::default();
    assert!(cfg.chans > 0, "generated programs exercise channels");
    for seed in 0..200 {
        check(&format!("genprog seed {seed}"), &random_program(&cfg, seed));
    }
}

/// Any growth of the statement type is a deliberate change: it scales
/// the memory of every program and every instrumented copy.
#[test]
fn stmt_is_40_bytes() {
    assert_eq!(std::mem::size_of::<Stmt>(), 40);
}
