//! The central reproduction guarantee: every engine family produces
//! identical diagrams, across distributions, domain sizes (general position
//! and heavy ties), and dimensionalities.

use skyline_core::dynamic::DynamicEngine;
use skyline_core::global;
use skyline_core::highd::HighDEngine;
use skyline_core::quadrant::QuadrantEngine;
use skyline_data::{DatasetSpec, Distribution};
use skyline_integration_tests::standard_specs;

#[test]
fn quadrant_engines_agree_everywhere() {
    for spec in standard_specs(60) {
        let ds = spec.build_2d();
        let reference = QuadrantEngine::Baseline.build(&ds);
        for engine in QuadrantEngine::ALL {
            assert!(
                engine.build(&ds).same_results(&reference),
                "{} disagrees on {spec:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn global_diagram_is_engine_independent() {
    for spec in standard_specs(40) {
        let ds = spec.build_2d();
        let reference = global::build(&ds, QuadrantEngine::Baseline);
        for engine in QuadrantEngine::ALL {
            assert!(
                global::build(&ds, engine).same_results(&reference),
                "{} disagrees on {spec:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn dynamic_engines_agree_everywhere() {
    for spec in standard_specs(14) {
        let ds = spec.build_2d();
        let reference = DynamicEngine::Baseline.build(&ds);
        for engine in DynamicEngine::ALL {
            assert!(
                engine.build(&ds).same_results(&reference),
                "{} disagrees on {spec:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn highd_engines_agree_3d_and_4d() {
    for (dims, n) in [(3usize, 14usize), (4, 9)] {
        for distribution in Distribution::ALL {
            for domain in [1000i64, 6] {
                let spec = DatasetSpec {
                    n,
                    dims,
                    domain,
                    distribution,
                    seed: 5,
                };
                let ds = spec.build_d();
                let reference = HighDEngine::Baseline.build(&ds);
                for engine in HighDEngine::ALL {
                    assert!(
                        engine.build(&ds).same_results(&reference),
                        "{} disagrees on {spec:?}",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn highd_at_d2_matches_planar() {
    for spec in standard_specs(30) {
        let ds = spec.build_2d();
        let planar = QuadrantEngine::Scanning.build(&ds);
        let lifted = HighDEngine::Scanning.build(&ds.to_dataset_d());
        for cell in planar.grid().cells() {
            assert_eq!(
                lifted.result(&[cell.0, cell.1]),
                planar.result(cell),
                "cell {cell:?} of {spec:?}"
            );
        }
    }
}

#[test]
fn sweeping_polyominoes_equal_merged_cell_diagrams() {
    use skyline_core::diagram::merge::merge;
    for spec in standard_specs(50) {
        let ds = spec.build_2d();
        let swept = merge(&skyline_core::quadrant::sweeping::build(&ds));
        let merged = merge(&QuadrantEngine::Baseline.build(&ds));
        let mut a: Vec<_> = swept.iter().map(|p| p.cells.to_vec()).collect();
        let mut b: Vec<_> = merged.iter().map(|p| p.cells.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "polyomino partitions differ on {spec:?}");
    }
}

#[test]
fn highd_diagram_matches_from_scratch_orthant_queries() {
    use skyline_core::geometry::{DatasetD, PointD};
    let spec = DatasetSpec {
        n: 12,
        dims: 3,
        domain: 30,
        distribution: Distribution::Independent,
        seed: 17,
    };
    let ds = spec.build_d();
    let d = HighDEngine::Sweeping.build(&ds);
    // Doubled representatives land strictly inside every cell; compare
    // against the from-scratch orthant query on a doubled dataset.
    let doubled = DatasetD::new(
        ds.points()
            .iter()
            .map(|p| PointD::new(p.coords().iter().map(|&c| 2 * c).collect()))
            .collect(),
    )
    .unwrap();
    for idx in (0..d.grid().cell_count()).step_by(7) {
        let cell = d.grid().cell_from_linear(idx);
        let rep = d.grid().representative_doubled(&cell);
        assert_eq!(
            d.result(&cell),
            skyline_core::query::orthant_skyline_d(&doubled, &rep).as_slice(),
            "cell {cell:?}"
        );
    }
}

#[test]
fn highd_dynamic_subset_matches_baseline() {
    use skyline_core::dynamic::highd;
    let spec = DatasetSpec {
        n: 5,
        dims: 3,
        domain: 20,
        distribution: Distribution::Anticorrelated,
        seed: 23,
    };
    let ds = spec.build_d();
    assert!(highd::build_subset(&ds).same_results(&highd::build_baseline(&ds)));
}

#[test]
fn nba_standin_is_consistent_across_engines() {
    let ds = skyline_data::nba::players_2d(150, 3);
    let reference = QuadrantEngine::Baseline.build(&ds);
    for engine in QuadrantEngine::ALL {
        assert!(
            engine.build(&ds).same_results(&reference),
            "{}",
            engine.name()
        );
    }
    let small = skyline_data::nba::players_2d(14, 4);
    let dyn_ref = DynamicEngine::Baseline.build(&small);
    for engine in DynamicEngine::ALL {
        assert!(
            engine.build(&small).same_results(&dyn_ref),
            "{}",
            engine.name()
        );
    }
}
