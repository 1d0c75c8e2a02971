//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use skyline_core::diagram::merge::merge;
use skyline_core::dominance::{dominates, dominates_dynamic};
use skyline_core::geometry::{Dataset, Point, PointId};
use skyline_core::quadrant::QuadrantEngine;
use skyline_core::query;
use skyline_core::skyline::layers::{layer_numbers, layers_2d};
use skyline_core::skyline::sort_sweep::{skyline_2d, skyline_2d_naive};

fn arb_points(max_n: usize, domain: i64) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..domain, 0..domain), 1..=max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominance_is_a_strict_partial_order(
        a in (0i64..100, 0i64..100),
        b in (0i64..100, 0i64..100),
        c in (0i64..100, 0i64..100),
    ) {
        let (a, b, c) = (Point::new(a.0, a.1), Point::new(b.0, b.1), Point::new(c.0, c.1));
        // Irreflexive.
        prop_assert!(!dominates(a, a));
        // Asymmetric.
        prop_assert!(!(dominates(a, b) && dominates(b, a)));
        // Transitive.
        if dominates(a, b) && dominates(b, c) {
            prop_assert!(dominates(a, c));
        }
    }

    #[test]
    fn dynamic_dominance_is_a_strict_partial_order_for_fixed_q(
        pts in prop::collection::vec((0i64..60, 0i64..60), 3),
        q in (0i64..60, 0i64..60),
    ) {
        let q = Point::new(q.0, q.1);
        let p: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        prop_assert!(!dominates_dynamic(p[0], p[0], q));
        prop_assert!(!(dominates_dynamic(p[0], p[1], q) && dominates_dynamic(p[1], p[0], q)));
        if dominates_dynamic(p[0], p[1], q) && dominates_dynamic(p[1], p[2], q) {
            prop_assert!(dominates_dynamic(p[0], p[2], q));
        }
    }

    #[test]
    fn skyline_is_sound_and_complete(coords in arb_points(60, 40)) {
        let ds = Dataset::from_coords(coords.clone()).unwrap();
        let sky = skyline_2d(&ds);
        let labelled: Vec<(Point, PointId)> =
            ds.iter().map(|(id, p)| (p, id)).collect();
        prop_assert_eq!(sky.clone(), skyline_2d_naive(&labelled));
        // Sound: no skyline point is dominated.
        for &s in &sky {
            prop_assert!(!ds.iter().any(|(_, p)| dominates(p, ds.point(s))));
        }
        // Complete: every non-skyline point is dominated by a skyline point.
        for (id, p) in ds.iter() {
            if sky.binary_search(&id).is_err() {
                prop_assert!(sky.iter().any(|&s| dominates(ds.point(s), p)));
            }
        }
    }

    #[test]
    fn layers_partition_and_respect_dominance(coords in arb_points(50, 30)) {
        let ds = Dataset::from_coords(coords).unwrap();
        let layers = layers_2d(&ds);
        let total: usize = layers.iter().map(Vec::len).sum();
        prop_assert_eq!(total, ds.len());
        let nums = layer_numbers(&layers, ds.len());
        for (a, pa) in ds.iter() {
            for (b, pb) in ds.iter() {
                if dominates(pa, pb) {
                    prop_assert!(nums[a.index()] < nums[b.index()]);
                }
            }
        }
    }

    #[test]
    fn scanning_recurrence_matches_baseline(coords in arb_points(25, 12)) {
        // The clamped Theorem-1 recurrence (including the corner case and
        // the D-range configuration) against the per-cell baseline, on
        // tie-heavy random inputs.
        let ds = Dataset::from_coords(coords).unwrap();
        let scanning = QuadrantEngine::Scanning.build(&ds);
        let baseline = QuadrantEngine::Baseline.build(&ds);
        prop_assert!(scanning.same_results(&baseline));
    }

    #[test]
    fn sweeping_matches_baseline(coords in arb_points(25, 12)) {
        let ds = Dataset::from_coords(coords).unwrap();
        let sweeping = QuadrantEngine::Sweeping.build(&ds);
        let baseline = QuadrantEngine::Baseline.build(&ds);
        prop_assert!(sweeping.same_results(&baseline));
    }

    #[test]
    fn merge_partitions_into_connected_equal_result_regions(coords in arb_points(20, 10)) {
        let ds = Dataset::from_coords(coords).unwrap();
        let d = QuadrantEngine::Baseline.build(&ds);
        let merged = merge(&d);
        // Partition.
        let total: usize = merged.iter().map(|p| p.area()).sum();
        prop_assert_eq!(total, d.grid().cell_count());
        for poly in merged.iter() {
            // Connected, and every member cell shares the result.
            prop_assert!(poly.is_connected());
            for &cell in poly.cells {
                prop_assert_eq!(d.result_id(cell), poly.result);
            }
        }
        // Maximal: two adjacent cells in different polyominoes must differ.
        let width = d.grid().nx() as usize + 1;
        let height = d.grid().ny() as usize + 1;
        for j in 0..height {
            for i in 0..width {
                let idx = j * width + i;
                if i + 1 < width
                    && merged.cell_to_polyomino()[idx] != merged.cell_to_polyomino()[idx + 1]
                {
                    prop_assert_ne!(d.cell_results()[idx], d.cell_results()[idx + 1]);
                }
                if j + 1 < height
                    && merged.cell_to_polyomino()[idx] != merged.cell_to_polyomino()[idx + width]
                {
                    prop_assert_ne!(d.cell_results()[idx], d.cell_results()[idx + width]);
                }
            }
        }
    }

    #[test]
    fn queries_are_translation_invariant(
        coords in arb_points(25, 20),
        q in (0i64..25, 0i64..25),
        shift in (-50i64..50, -50i64..50),
    ) {
        // Skyline semantics only depend on relative positions: shifting the
        // dataset and the query together must preserve result ids.
        let ds = Dataset::from_coords(coords.clone()).unwrap();
        let shifted = Dataset::from_coords(
            coords.iter().map(|&(x, y)| (x + shift.0, y + shift.1)),
        )
        .unwrap();
        let q0 = Point::new(q.0, q.1);
        let q1 = Point::new(q.0 + shift.0, q.1 + shift.1);
        prop_assert_eq!(
            query::quadrant_skyline(&ds, q0),
            query::quadrant_skyline(&shifted, q1)
        );
        prop_assert_eq!(
            query::global_skyline(&ds, q0),
            query::global_skyline(&shifted, q1)
        );
        prop_assert_eq!(
            query::dynamic_skyline(&ds, q0),
            query::dynamic_skyline(&shifted, q1)
        );
    }

    #[test]
    fn dynamic_scanning_matches_baseline(coords in arb_points(9, 8)) {
        // The V-C candidate-set argument, exercised on tie-heavy inputs.
        let ds = Dataset::from_coords(coords).unwrap();
        let scanning = skyline_core::dynamic::DynamicEngine::Scanning.build(&ds);
        let baseline = skyline_core::dynamic::DynamicEngine::Baseline.build(&ds);
        prop_assert!(scanning.same_results(&baseline));
    }

    #[test]
    fn skyband_engines_agree_and_nest(coords in arb_points(20, 15), k in 1u32..5) {
        let ds = Dataset::from_coords(coords).unwrap();
        let baseline = skyline_core::skyband::build_baseline(&ds, k);
        let incremental = skyline_core::skyband::build_incremental(&ds, k);
        prop_assert!(incremental.same_results(&baseline));
        // k-band contains (k-1)-band everywhere; 1-band is the skyline.
        if k > 1 {
            let smaller = skyline_core::skyband::build_baseline(&ds, k - 1);
            for cell in baseline.grid().cells() {
                let big = baseline.result(cell);
                for id in smaller.result(cell) {
                    prop_assert!(big.contains(id));
                }
            }
        } else {
            prop_assert!(baseline.same_results(&QuadrantEngine::Baseline.build(&ds)));
        }
    }

    #[test]
    fn algorithm4_walks_are_valid_rectilinear_loops(
        perm_seed in 0u64..1000,
        n in 2usize..10,
    ) {
        // General-position input: x strictly increasing, y a permutation.
        let mut ys: Vec<i64> = (0..n as i64).collect();
        let mut state = perm_seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            ys.swap(i, j);
        }
        let ds = Dataset::from_coords(
            (0..n).map(|i| (7 * i as i64, 3 * ys[i] + 1)),
        )
        .unwrap();
        let walks = skyline_core::quadrant::algorithm4::build(&ds).unwrap();
        // One walk per (u, p) pair with u.x <= p.x, u.y >= p.y.
        let expected: usize = ds
            .points()
            .iter()
            .map(|p| {
                ds.points().iter().filter(|u| u.x <= p.x && u.y >= p.y).count()
            })
            .sum();
        prop_assert_eq!(walks.len(), expected);
        for w in &walks {
            prop_assert!(w.vertices.len() >= 4);
            prop_assert_eq!(w.vertices[0], w.corner);
            prop_assert!(
                skyline_core::diagram::boundary::signed_area_doubled(&w.vertices) > 0
            );
            for k in 0..w.vertices.len() {
                let a = w.vertices[k];
                let b = w.vertices[(k + 1) % w.vertices.len()];
                prop_assert!((a.x == b.x) ^ (a.y == b.y));
            }
        }
    }

    #[test]
    fn polyomino_count_equals_intersection_count_in_general_position(
        perm_seed in 0u64..1000,
        n in 1usize..12,
    ) {
        // Theorem-2 corollary: in general position the nonempty-result
        // polyominoes are in bijection with the intersection points of the
        // half-open segments — the pairs (u, p) with u.x <= p.x, u.y >= p.y.
        let mut ys: Vec<i64> = (0..n as i64).collect();
        let mut state = perm_seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            ys.swap(i, j);
        }
        let ds = Dataset::from_coords((0..n).map(|i| (2 * i as i64, 2 * ys[i]))).unwrap();
        let swept = skyline_core::quadrant::sweeping::build(&ds);
        let merged = skyline_core::diagram::merge::merge(&swept);
        let nonempty = merged
            .iter()
            .filter(|p| !swept.results().get(p.result).is_empty())
            .count();
        let intersections: usize = ds
            .points()
            .iter()
            .map(|p| ds.points().iter().filter(|u| u.x <= p.x && u.y >= p.y).count())
            .sum();
        prop_assert_eq!(nonempty, intersections);
        // Exactly one empty region (beyond everything), always connected.
        let empties = merged
            .iter()
            .filter(|p| swept.results().get(p.result).is_empty())
            .count();
        prop_assert_eq!(empties, 1);
    }

    #[test]
    fn maintained_index_matches_from_scratch(
        inserts in prop::collection::vec((0i64..30, 0i64..30), 1..20),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        queries in prop::collection::vec((-3i64..33, -3i64..33), 4),
    ) {
        use skyline_core::maintained::MaintainedIndex;
        let mut index = MaintainedIndex::new(QuadrantEngine::Sweeping);
        index.rebuild_threshold = 4;
        let mut live: Vec<(skyline_core::maintained::Handle, Point)> = inserts
            .iter()
            .map(|&(x, y)| {
                let p = Point::new(x, y);
                (index.insert(p), p)
            })
            .collect();
        for r in removals {
            if live.is_empty() {
                break;
            }
            let (h, _) = live.swap_remove(r.index(live.len()));
            prop_assert!(index.remove(h));
        }
        for (qx, qy) in queries {
            let q = Point::new(qx, qy);
            let got = index.query(q);
            // Oracle over the live set.
            let mut expected: Vec<_> = if live.is_empty() {
                Vec::new()
            } else {
                let mut sorted = live.clone();
                sorted.sort_unstable();
                let ds = Dataset::from_coords(
                    sorted.iter().map(|&(_, p)| (p.x, p.y)),
                )
                .unwrap();
                skyline_core::query::quadrant_skyline(&ds, q)
                    .into_iter()
                    .map(|id| sorted[id.index()].0)
                    .collect()
            };
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "query {}", q);
        }
    }

    #[test]
    fn highd_engines_agree_on_random_3d_inputs(
        rows in prop::collection::vec([0i64..10, 0i64..10, 0i64..10], 1..10),
    ) {
        use skyline_core::geometry::DatasetD;
        use skyline_core::highd::HighDEngine;
        let ds = DatasetD::from_rows(rows).unwrap();
        let reference = HighDEngine::Baseline.build(&ds);
        for engine in HighDEngine::ALL {
            prop_assert!(
                engine.build(&ds).same_results(&reference),
                "{} disagrees",
                engine.name()
            );
        }
    }

    #[test]
    fn highd_diagram_matches_orthant_queries(
        rows in prop::collection::vec([0i64..8, 0i64..8, 0i64..8], 1..7),
    ) {
        use skyline_core::geometry::{DatasetD, PointD};
        use skyline_core::highd::HighDEngine;
        let ds = DatasetD::from_rows(rows).unwrap();
        let d = HighDEngine::Sweeping.build(&ds);
        let doubled = DatasetD::new(
            ds.points()
                .iter()
                .map(|p| PointD::new(p.coords().iter().map(|&c| 2 * c).collect()))
                .collect(),
        )
        .unwrap();
        for idx in 0..d.grid().cell_count() {
            let cell = d.grid().cell_from_linear(idx);
            let rep = d.grid().representative_doubled(&cell);
            prop_assert_eq!(
                d.result(&cell),
                skyline_core::query::orthant_skyline_d(&doubled, &rep).as_slice(),
                "cell {:?}",
                cell
            );
        }
    }

    #[test]
    fn interner_roundtrips_arbitrary_id_sets(ids in prop::collection::vec(0u32..500, 0..40)) {
        let mut interner = skyline_core::result_set::ResultInterner::new();
        let pids: Vec<PointId> = ids.iter().copied().map(PointId).collect();
        let rid = interner.intern_unsorted(pids.clone());
        let mut expected: Vec<PointId> = pids;
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(interner.get(rid), expected.as_slice());
        // Interning again yields the same id.
        prop_assert_eq!(interner.intern_sorted(expected), rid);
    }
}
