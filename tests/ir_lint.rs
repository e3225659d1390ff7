//! Regression tests for the IR lint: every program this repo ships or
//! generates must be lint-clean, because `Detector::run` refuses to
//! instrument a program that fails the lint.

use proptest::prelude::*;
use txrace_sim::{lint, ProgramBuilder, ThreadId};
use txrace_workloads::{all_workloads, random_program, GenConfig};

/// All 17 workloads, at every worker count the benchmarks use, are
/// lint-clean. This is what lets `Detector::run` keep its hard gate.
#[test]
fn all_workloads_are_lint_clean() {
    for workers in [2, 4, 8] {
        for w in all_workloads(workers) {
            let issues = lint(&w.program);
            assert!(
                issues.is_empty(),
                "{} ({workers} workers) failed the lint: {issues:?}",
                w.name
            );
        }
    }
}

// The random-program generator only produces lint-clean programs; the
// soundness property tests (and anyone fuzzing the detector) rely on
// this.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_programs_are_lint_clean(gen_seed in 0u64..2000) {
        let p = random_program(&GenConfig::default(), gen_seed);
        prop_assert!(lint(&p).is_empty());
    }

    #[test]
    fn lock_free_generated_programs_are_lint_clean(gen_seed in 0u64..500) {
        let cfg = GenConfig {
            locks: 0,
            conds: 0,
            ..GenConfig::default()
        };
        let p = random_program(&cfg, gen_seed);
        prop_assert!(lint(&p).is_empty());
    }
}

/// Sanity in the other direction: a deliberately broken program is
/// caught, so the gate in `Detector::run` is not vacuous.
#[test]
fn broken_program_is_rejected() {
    let mut b = ProgramBuilder::new(2);
    let l = b.lock_id("l");
    let m = b.lock_id("m");
    b.thread(0)
        .unlock(l)
        .lock(m)
        .spawn(ThreadId(1))
        .join(ThreadId(1));
    b.thread(1).compute(1);
    let issues = lint(&b.build());
    assert!(
        !issues.is_empty(),
        "unlock-without-lock and lock-held-at-exit went unnoticed"
    );
}
