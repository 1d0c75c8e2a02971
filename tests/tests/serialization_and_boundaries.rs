//! Integration + property tests for standalone diagrams in the snapshot
//! container, the boundary tracer, and the index facade — the
//! production-surface features layered on top of the paper's algorithms.

use proptest::prelude::*;
use skyline_core::container::{
    decode_cell_diagram, decode_subcell_diagram, encode_cell_diagram, encode_subcell_diagram,
};
use skyline_core::diagram::boundary::{boundary_loops, signed_area_doubled, ClipBox};
use skyline_core::diagram::merge::merge;
use skyline_core::dynamic::DynamicEngine;
use skyline_core::geometry::{Dataset, Point};
use skyline_core::index::SkylineIndex;
use skyline_core::quadrant::QuadrantEngine;
use skyline_data::{DatasetSpec, Distribution};

#[test]
fn serialization_roundtrips_across_distributions() {
    for spec in skyline_integration_tests::standard_specs(50) {
        let ds = spec.build_2d();
        let d = QuadrantEngine::Sweeping.build(&ds);
        let (_, decoded) = decode_cell_diagram(&encode_cell_diagram(&ds, &d)).unwrap();
        assert!(decoded.same_results(&d), "{spec:?}");
    }
}

#[test]
fn dynamic_serialization_roundtrips() {
    let spec = DatasetSpec {
        n: 12,
        dims: 2,
        domain: 50,
        distribution: Distribution::Anticorrelated,
        seed: 4,
    };
    let ds = spec.build_2d();
    let d = DynamicEngine::Scanning.build(&ds);
    let (dataset, decoded) = decode_subcell_diagram(&encode_subcell_diagram(&ds, &d)).unwrap();
    assert_eq!(dataset.points(), ds.points());
    assert!(decoded.same_results(&d));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn serialized_diagrams_survive_roundtrip(
        coords in prop::collection::vec((0i64..40, 0i64..40), 1..25),
    ) {
        let ds = Dataset::from_coords(coords).unwrap();
        let d = QuadrantEngine::Scanning.build(&ds);
        let bytes = encode_cell_diagram(&ds, &d);
        let (_, decoded) = decode_cell_diagram(&bytes).unwrap();
        prop_assert!(decoded.same_results(&d));
    }

    #[test]
    fn subcell_bit_flips_never_decode_silently(
        coords in prop::collection::vec((0i64..15, 0i64..15), 1..7),
        flip in any::<prop::sample::Index>(),
    ) {
        let ds = Dataset::from_coords(coords).unwrap();
        let d = DynamicEngine::Scanning.build(&ds);
        let mut bytes = encode_subcell_diagram(&ds, &d);
        let idx = flip.index(bytes.len());
        bytes[idx] ^= 0x01;
        if let Ok((_, decoded)) = decode_subcell_diagram(&bytes) {
            prop_assert!(decoded.same_results(&d), "silent corruption at byte {idx}");
        }
    }

    #[test]
    fn single_bit_flips_never_decode(
        coords in prop::collection::vec((0i64..20, 0i64..20), 1..10),
        flip in any::<prop::sample::Index>(),
    ) {
        let ds = Dataset::from_coords(coords).unwrap();
        let d = QuadrantEngine::Sweeping.build(&ds);
        let mut bytes = encode_cell_diagram(&ds, &d);
        let idx = flip.index(bytes.len());
        bytes[idx] ^= 0x01;
        // Either a checksum or a structural validation must reject it;
        // decoding silently to a *different* diagram would be a bug.
        if let Ok((_, decoded)) = decode_cell_diagram(&bytes) {
            prop_assert!(decoded.same_results(&d), "silent corruption at byte {idx}");
        }
    }

    #[test]
    fn polyomino_boundary_areas_sum_to_the_clip_box(
        coords in prop::collection::vec((0i64..15, 0i64..15), 1..12),
    ) {
        let ds = Dataset::from_coords(coords).unwrap();
        let d = QuadrantEngine::Baseline.build(&ds);
        let merged = merge(&d);
        let grid = d.grid();
        let clip = ClipBox::around(grid);
        let mut total = 0i64;
        for poly in merged.iter() {
            for walk in boundary_loops(grid, poly.cells, clip) {
                total += signed_area_doubled(&walk);
            }
        }
        // The polyominoes tile the clip box exactly.
        let expected = 2 * (clip.x_max - clip.x_min) * (clip.y_max - clip.y_min);
        prop_assert_eq!(total, expected);
    }

    #[test]
    fn index_facade_agrees_with_direct_queries(
        coords in prop::collection::vec((0i64..30, 0i64..30), 1..20),
        queries in prop::collection::vec((-5i64..35, -5i64..35), 8),
    ) {
        let ds = Dataset::from_coords(coords).unwrap();
        let index = SkylineIndex::new(&ds);
        for (qx, qy) in queries {
            let q = Point::new(qx, qy);
            let expected = skyline_core::query::quadrant_skyline(&ds, q);
            prop_assert_eq!(index.quadrant(q), expected.as_slice());
            let zone = index.safe_zone(q);
            prop_assert!(zone.is_connected());
        }
    }
}

#[test]
fn boundary_loops_of_all_hotel_polyominoes_are_closed_staircases() {
    let ds = skyline_data::hotel::dataset();
    let d = QuadrantEngine::Sweeping.build(&ds);
    let merged = merge(&d);
    let grid = d.grid();
    let clip = ClipBox::around(grid);
    for poly in merged.iter() {
        let loops = boundary_loops(grid, poly.cells, clip);
        assert!(!loops.is_empty());
        for walk in &loops {
            assert!(walk.len() >= 4, "a rectilinear loop needs >= 4 vertices");
            assert_eq!(walk.len() % 2, 0, "rectilinear loops alternate directions");
            // Consecutive vertices share exactly one coordinate.
            for k in 0..walk.len() {
                let a = walk[k];
                let b = walk[(k + 1) % walk.len()];
                assert!((a.x == b.x) ^ (a.y == b.y), "{a} -> {b} not axis-aligned");
            }
        }
    }
}

#[test]
fn highd_sweeping_agrees_on_standard_specs() {
    use skyline_core::highd::HighDEngine;
    for distribution in Distribution::ALL {
        let spec = DatasetSpec {
            n: 12,
            dims: 3,
            domain: 40,
            distribution,
            seed: 8,
        };
        let ds = spec.build_d();
        let reference = HighDEngine::Baseline.build(&ds);
        assert!(
            HighDEngine::Sweeping.build(&ds).same_results(&reference),
            "{}",
            distribution.name()
        );
    }
}
