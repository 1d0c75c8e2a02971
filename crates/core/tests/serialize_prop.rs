//! Property-based round-trip and corruption suite for serialized
//! standalone diagrams (the standalone group of `skyline_core::container`).
//!
//! Two families of properties:
//!
//! * **Round-trip identity** — for random datasets and engines, decoding an
//!   encoding reproduces the diagram exactly (same dataset, same grid
//!   lines, same interned results, same answers at random probes).
//! * **Corruption totality** — *every* single-bit flip, truncation, and
//!   trailing-junk mutation of a valid encoding over a random dataset
//!   yields `Err(_)`. `container_corruption.rs` runs the exhaustive
//!   batteries on one fixed file of each kind; these properties vary the
//!   dataset, so the section sizes and offsets vary with it.

use proptest::prelude::*;
use skyline_core::container::{
    decode_cell_diagram, decode_subcell_diagram, encode_cell_diagram, encode_subcell_diagram,
};
use skyline_core::dynamic::DynamicEngine;
use skyline_core::geometry::{Dataset, Point};
use skyline_core::quadrant::QuadrantEngine;

/// Distinct-pair dataset from raw proptest coordinates (`None` when every
/// pair was a duplicate of an earlier one — impossible here since inputs
/// are non-empty, but kept total).
fn dataset_from(pairs: Vec<(i64, i64)>) -> Option<Dataset> {
    let mut seen = std::collections::HashSet::new();
    let coords: Vec<(i64, i64)> = pairs.into_iter().filter(|p| seen.insert(*p)).collect();
    if coords.is_empty() {
        None
    } else {
        Dataset::from_coords(coords).ok()
    }
}

fn pick_quadrant_engine(pick: usize) -> QuadrantEngine {
    QuadrantEngine::ALL[pick % QuadrantEngine::ALL.len()]
}

fn cell_bytes(ds: &Dataset, engine: QuadrantEngine) -> Vec<u8> {
    encode_cell_diagram(ds, &engine.build(ds))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cell_roundtrip_is_identity(
        pairs in prop::collection::vec((0i64..500, 0i64..500), 1..40),
        engine_pick in 0usize..8,
        probes in prop::collection::vec((-10i64..520, -10i64..520), 8),
    ) {
        let Some(ds) = dataset_from(pairs) else { return Ok(()) };
        let diagram = pick_quadrant_engine(engine_pick).build(&ds);
        let (dataset, decoded) = decode_cell_diagram(&encode_cell_diagram(&ds, &diagram))
            .map_err(|e| TestCaseError::fail(format!("fresh bytes failed: {e}")))?;
        prop_assert_eq!(dataset.points(), ds.points());
        prop_assert_eq!(decoded.grid().x_lines(), diagram.grid().x_lines());
        prop_assert_eq!(decoded.grid().y_lines(), diagram.grid().y_lines());
        prop_assert!(decoded.same_results(&diagram), "results diverged");
        for (x, y) in probes {
            let q = Point::new(x, y);
            prop_assert_eq!(decoded.query(q), diagram.query(q), "query at {}", q);
        }
    }

    #[test]
    fn subcell_roundtrip_is_identity(
        pairs in prop::collection::vec((0i64..120, 0i64..120), 1..10),
        scanning in 0usize..2,
        probes in prop::collection::vec((-4i64..130, -4i64..130), 6),
    ) {
        let Some(ds) = dataset_from(pairs) else { return Ok(()) };
        let engine = if scanning == 0 { DynamicEngine::Scanning } else { DynamicEngine::Subset };
        let diagram = engine.build(&ds);
        let (dataset, decoded) = decode_subcell_diagram(&encode_subcell_diagram(&ds, &diagram))
            .map_err(|e| TestCaseError::fail(format!("fresh bytes failed: {e}")))?;
        prop_assert_eq!(dataset.points(), ds.points());
        prop_assert_eq!(decoded.grid().x_lines(), diagram.grid().x_lines());
        prop_assert_eq!(decoded.grid().y_lines(), diagram.grid().y_lines());
        prop_assert!(decoded.same_results(&diagram), "results diverged");
        for (x, y) in probes {
            let q = Point::new(x, y);
            prop_assert_eq!(decoded.query(q), diagram.query(q), "query at {}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_single_bit_flip_is_rejected(
        pairs in prop::collection::vec((0i64..200, 0i64..200), 1..16),
        pos in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let Some(ds) = dataset_from(pairs) else { return Ok(()) };
        let bytes = cell_bytes(&ds, QuadrantEngine::Sweeping);
        let mut bad = bytes.clone();
        let i = pos.index(bad.len());
        bad[i] ^= 1 << bit;
        prop_assert!(
            decode_cell_diagram(&bad).is_err(),
            "bit {} of byte {}/{} flipped silently", bit, i, bytes.len()
        );
    }

    #[test]
    fn every_truncation_is_rejected(
        pairs in prop::collection::vec((0i64..200, 0i64..200), 1..16),
        pos in any::<prop::sample::Index>(),
    ) {
        let Some(ds) = dataset_from(pairs) else { return Ok(()) };
        let bytes = cell_bytes(&ds, QuadrantEngine::Scanning);
        // index(len) < len, so every cut is a *proper* prefix.
        let cut = pos.index(bytes.len());
        prop_assert!(
            decode_cell_diagram(&bytes[..cut]).is_err(),
            "prefix of {}/{} bytes decoded", cut, bytes.len()
        );
    }

    #[test]
    fn trailing_junk_is_rejected(
        pairs in prop::collection::vec((0i64..200, 0i64..200), 1..16),
        junk in prop::collection::vec(0u8..=255, 1..9),
    ) {
        let Some(ds) = dataset_from(pairs) else { return Ok(()) };
        let mut bytes = cell_bytes(&ds, QuadrantEngine::Sweeping);
        bytes.extend_from_slice(&junk);
        prop_assert!(
            decode_cell_diagram(&bytes).is_err(),
            "{} junk bytes accepted", junk.len()
        );
    }

    #[test]
    fn subcell_bit_flips_are_rejected(
        pairs in prop::collection::vec((0i64..60, 0i64..60), 1..7),
        pos in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let Some(ds) = dataset_from(pairs) else { return Ok(()) };
        let bytes = encode_subcell_diagram(&ds, &DynamicEngine::Scanning.build(&ds));
        let mut bad = bytes.clone();
        let i = pos.index(bad.len());
        bad[i] ^= 1 << bit;
        prop_assert!(
            decode_subcell_diagram(&bad).is_err(),
            "bit {} of byte {}/{} flipped silently", bit, i, bytes.len()
        );
    }
}
