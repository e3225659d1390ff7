//! Model check of `LockSet` against a `BTreeSet<LockId>`. Two sets take
//! random inserts and removes over locks `0..200`, so their spill words
//! (locks `64..`) grow and shrink to different lengths, and the binary
//! operations meet operands of unequal spill length in both orders.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use txrace_sim::{LockId, LockSet};

/// Lock ids biased toward the word edges 63/64 and 127/128.
fn lock() -> BoxedStrategy<u32> {
    prop_oneof![
        3 => 0u32..200,
        1 => (0u32..4).prop_map(|d| 62 + d),
        1 => (0u32..4).prop_map(|d| 126 + d),
    ]
    .boxed()
}

/// One step: `(kind, which set, lock)`.
fn steps() -> impl Strategy<Value = Vec<(u8, bool, u32)>> {
    proptest::collection::vec((0u8..8, any::<bool>(), lock()), 1..60)
}

/// Asserts that `s` holds exactly `model`, through every read-side view,
/// and equals a set built fresh from the model.
fn check(s: &LockSet, model: &BTreeSet<LockId>) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        s.iter().collect::<Vec<_>>(),
        model.iter().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(s.is_empty(), model.is_empty());
    for l in (0..200).map(LockId) {
        prop_assert_eq!(s.contains(l), model.contains(&l));
    }
    let mut fresh = LockSet::new();
    for &l in model.iter().rev() {
        fresh.insert(l);
    }
    prop_assert!(*s == fresh, "layout-blind equality");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lock_set_matches_a_btreeset(steps in steps()) {
        let mut sets = [LockSet::new(), LockSet::new()];
        let mut models = [BTreeSet::new(), BTreeSet::new()];
        for (kind, which, l) in steps {
            let (i, j) = if which { (0, 1) } else { (1, 0) };
            let l = LockId(l);
            match kind {
                0..=2 => {
                    sets[i].insert(l);
                    models[i].insert(l);
                }
                3..=4 => {
                    sets[i].remove(l);
                    models[i].remove(&l);
                }
                5 => {
                    let o = sets[j].clone();
                    sets[i].union_with(&o);
                    let o = models[j].clone();
                    models[i].extend(o);
                }
                6 => {
                    let o = sets[j].clone();
                    sets[i].intersect_with(&o);
                    let o = models[j].clone();
                    models[i].retain(|l| o.contains(l));
                }
                _ => {
                    prop_assert_eq!(
                        sets[i].is_disjoint(&sets[j]),
                        models[i].is_disjoint(&models[j])
                    );
                }
            }
            check(&sets[i], &models[i])?;
            prop_assert_eq!(sets[0].is_disjoint(&sets[1]), models[0].is_disjoint(&models[1]));
        }
        check(&sets[0], &models[0])?;
        check(&sets[1], &models[1])?;
    }
}
