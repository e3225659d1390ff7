//! Model checks of the two paged address tables: `Memory` (with its
//! undo journal) against a `BTreeMap` of written cells, and `AddrMap`
//! against a first-touch list. Both tables are keyed by 8-byte word, so
//! addresses are word-aligned; they cluster around the multiples of 4096
//! words (one value or id page) and of 262,144 words (one page of written
//! bits), and reach up to `MAX_LOG_ADDR`, so every op crosses page and
//! top-level boundaries.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use txrace_sim::{Addr, AddrMap, Memory, WriteJournal, MAX_LOG_ADDR};

/// Word-aligned addresses near page boundaries, small ones, and the top
/// of the loggable address space.
fn addr() -> BoxedStrategy<u64> {
    prop_oneof![
        3 => (0u64..24, 0u64..8).prop_map(|(k, d)| (k * 4096 + d).saturating_sub(4) * 8),
        3 => (0u64..5, 0u64..8).prop_map(|(k, d)| (k * 262_144 + d).saturating_sub(4) * 8),
        3 => (0u64..75).prop_map(|w| w * 8),
        1 => (1u64..=8).prop_map(|d| MAX_LOG_ADDR - 8 * d),
    ]
    .boxed()
}

/// One step: `(kind, address, value)`.
fn steps() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..10, addr(), 0u64..4), 1..80)
}

/// Asserts that `m` holds exactly the cells of `model`, through every
/// read-side view: `load`, `len`, `iter` order, `Debug`, and equality
/// with a memory built fresh from the model in reverse address order.
fn check_memory(m: &Memory, model: &BTreeMap<u64, u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.len(), model.len());
    prop_assert_eq!(m.is_empty(), model.is_empty());
    let cells: Vec<(Addr, u64)> = model.iter().map(|(&a, &v)| (Addr(a), v)).collect();
    prop_assert_eq!(m.iter().collect::<Vec<_>>(), cells.clone());
    for &(a, v) in &cells {
        prop_assert_eq!(m.load(a), v);
    }
    let fresh = {
        let mut f = Memory::new();
        for &(a, v) in cells.iter().rev() {
            f.store(a, v);
        }
        f
    };
    prop_assert!(*m == fresh, "layout-blind equality");
    let want: BTreeMap<Addr, u64> = cells.into_iter().collect();
    prop_assert_eq!(format!("{m:?}"), format!("{want:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memory_matches_a_map_model(steps in steps()) {
        let mut m = Memory::new();
        let mut j = WriteJournal::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // The model journal: each logged store's address and previous
        // cell, newest last.
        let mut undo: Vec<(u64, Option<u64>)> = Vec::new();
        let unwind = |model: &mut BTreeMap<u64, u64>, undo: &mut Vec<(u64, Option<u64>)>| {
            for (a, prev) in undo.drain(..).rev() {
                match prev {
                    Some(prev) => model.insert(a, prev),
                    None => model.remove(&a),
                };
            }
        };
        for (kind, a, v) in steps {
            match kind {
                0..=2 => {
                    m.store(Addr(a), v);
                    model.insert(a, v);
                }
                3..=5 => {
                    m.store_logged(Addr(a), v, &mut j);
                    undo.push((a, model.insert(a, v)));
                }
                6 | 7 => {
                    j.rollback(&mut m);
                    unwind(&mut model, &mut undo);
                }
                8 | 9 => {
                    j.clear();
                    undo.clear();
                }
                _ => unreachable!(),
            }
            prop_assert_eq!(m.load(Addr(a)), model.get(&a).copied().unwrap_or(0));
            prop_assert_eq!(m.len(), model.len());
        }
        check_memory(&m, &model)?;
        // Unwinding everything still journaled restores the memory of the
        // unlogged stores and the cleared ones alone.
        j.rollback(&mut m);
        unwind(&mut model, &mut undo);
        check_memory(&m, &model)?;
    }

    #[test]
    fn addr_map_matches_a_first_touch_model(steps in steps()) {
        let mut m = AddrMap::new();
        let mut order: Vec<u64> = Vec::new();
        for (kind, a, _) in steps {
            let known = order.iter().position(|&b| b == a).map(|i| i as u32);
            if kind < 6 {
                let id = m.resolve(Addr(a));
                prop_assert_eq!(Some(id), known.or(Some(order.len() as u32)));
                if known.is_none() {
                    order.push(a);
                }
            } else {
                prop_assert_eq!(m.get(Addr(a)), known);
            }
            prop_assert_eq!(m.len(), order.len());
            prop_assert_eq!(m.is_empty(), order.is_empty());
        }
        for (id, &a) in order.iter().enumerate() {
            prop_assert_eq!(m.get(Addr(a)), Some(id as u32));
        }
    }
}
