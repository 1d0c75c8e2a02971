//! The derived quadrant partition against the general union–find merge.
//!
//! A quadrant diagram has exactly one polyomino per distinct result
//! (ALGORITHMS.md §11), so `merge::quadrant_partition` numbers polyomino `k`
//! as the region of result `k` instead of searching components. On every
//! quadrant engine, over tiny domains where ties, duplicate points and
//! `n = 1` are frequent, the derived partition must be `merge()`'s
//! partition as a set of `(result, cells)`, hold one polyomino per interned
//! result, and keep every polyomino connected; the index and a decoded
//! container must carry exactly that partition.

use std::collections::BTreeSet;

use proptest::prelude::*;
use skyline_core::container::{decode_index, encode_index};
use skyline_core::diagram::merge::{merge, quadrant_partition};
use skyline_core::diagram::MergedDiagram;
use skyline_core::geometry::{CellIndex, Dataset};
use skyline_core::index::SkylineIndex;
use skyline_core::quadrant::QuadrantEngine;

/// A partition as a set of `(result id, member cells)`, whatever the
/// polyomino numbering.
fn as_set(partition: &MergedDiagram) -> BTreeSet<(u32, Vec<CellIndex>)> {
    partition
        .iter()
        .map(|p| (p.result.0, p.cells.to_vec()))
        .collect()
}

fn check(ds: &Dataset) -> Result<(), TestCaseError> {
    for engine in QuadrantEngine::ALL {
        let name = engine.name();
        let d = engine.build(ds);
        let derived = quadrant_partition(&d)
            .ok_or_else(|| TestCaseError::fail(format!("{name}: a result labels no cell")))?;
        prop_assert_eq!(derived.len(), d.results().len(), "{}", name);
        prop_assert_eq!(as_set(&derived), as_set(&merge(&d)), "{}", name);
        for p in derived.iter() {
            prop_assert!(p.is_connected(), "{}: polyomino {:?}", name, p.result);
        }
        let index = SkylineIndex::builder().engine(engine).build(ds);
        prop_assert_eq!(index.polyominoes(), &derived, "{}: index", name);
        let loaded = decode_index(&encode_index(&index, &[]))
            .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        prop_assert_eq!(loaded.index.polyominoes(), &derived, "{}: decoded", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn derived_partition_is_the_merged_partition(
        domain in 1i64..6,
        raw in prop::collection::vec((0i64..64, 0i64..64), 1..=12),
    ) {
        let ds = Dataset::from_coords(raw.iter().map(|&(x, y)| (x % domain, y % domain)))
            .expect("tiny non-empty coordinates are valid");
        check(&ds)?;
    }
}

#[test]
fn single_points_duplicates_and_lines() {
    for coords in [
        vec![(3, 3)],
        vec![(3, 3); 5],
        vec![(0, 4), (1, 4), (2, 4), (3, 4)],
        vec![(4, 0), (4, 1), (4, 2), (4, 3)],
        vec![(0, 3), (1, 2), (2, 1), (3, 0), (1, 2)],
    ] {
        let ds = Dataset::from_coords(coords).expect("small coordinates are valid");
        check(&ds).unwrap_or_else(|e| panic!("{e}"));
    }
}
