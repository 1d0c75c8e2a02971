//! The baseline dynamic-diagram algorithm (paper Algorithm 5).
//!
//! For each of the `O(n⁴)` skyline subcells: map every point by its absolute
//! coordinate distance to an interior sample of the subcell and compute the
//! skyline of the mapped points. `O(n⁵)` worst case (`O(n log n)` per
//! subcell here; the paper's `O(n)` variant presorts, but the mapped x-order
//! changes per subcell column anyway, and the sort is not the bottleneck).

use crate::dynamic::{dynamic_minima_at_sample, SubcellDiagram, SubcellGrid};
use crate::geometry::{Dataset, PointId};
use crate::parallel::{self, ParallelConfig};
use crate::result_set::{words_for, BitRuns, BitsetInterner};

/// Builds the dynamic skyline diagram with the baseline per-subcell scan,
/// using the process-wide parallel configuration (`SKYLINE_THREADS`).
pub fn build(dataset: &Dataset) -> SubcellDiagram {
    build_with(dataset, &ParallelConfig::from_env())
}

/// Builds the baseline dynamic diagram with an explicit parallel
/// configuration. Subcell rows are independent (every subcell is solved
/// from scratch); workers return run-collapsed raw results and the caller
/// interns them in row-major order, so every thread count produces an
/// identical diagram.
pub fn build_with(dataset: &Dataset, cfg: &ParallelConfig) -> SubcellDiagram {
    let grid = SubcellGrid::new_with(dataset, cfg);
    let width = grid.mx() as usize + 1;
    let height = grid.my() as usize + 1;
    let words = words_for(dataset.len());
    let all: Vec<PointId> = dataset.ids().collect();

    let _bands = crate::span!("dynamic.baseline.bands", height as u64);
    crate::counter!("dynamic.subcell_rows").add(height as u64);
    let rows: Vec<BitRuns> = parallel::map_indexed(cfg, height, |j| {
        let mut scratch = Vec::with_capacity(dataset.len());
        let mut block = vec![0u64; words];
        let mut runs = BitRuns::new(words);
        for i in 0..width as u32 {
            let sample = grid.sample_x4((i, j as u32));
            dynamic_minima_at_sample(
                dataset,
                all.iter().copied(),
                sample,
                &mut scratch,
                &mut block,
            );
            runs.push_words(&block);
        }
        runs
    });

    let mut bits = BitsetInterner::new(words);
    let mut cells = Vec::with_capacity(width * height);
    for row in rows {
        row.intern_into(&mut bits, &mut cells);
    }
    SubcellDiagram::from_parts(grid, bits.finish(), cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::dynamic_skyline_naive;

    #[test]
    fn every_subcell_matches_the_naive_oracle() {
        let ds = crate::test_data::lcg_dataset(8, 40, 1);
        let d = build(&ds);
        // Oracle in quadrupled coordinates at each subcell sample.
        let scaled = Dataset::from_coords(ds.points().iter().map(|p| (4 * p.x, 4 * p.y))).unwrap();
        for sc in d.grid().subcells() {
            let sample = d.grid().sample_x4(sc);
            assert_eq!(
                d.result(sc),
                dynamic_skyline_naive(&scaled, sample).as_slice(),
                "subcell {sc:?}"
            );
        }
    }

    #[test]
    fn far_away_subcells_have_singleton_extremes() {
        // Far beyond all points in both axes, the dynamic skyline is the
        // skyline toward that corner; for the top-right it is the maxima.
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let d = build(&ds);
        let top_right = (d.grid().mx(), d.grid().my());
        assert_eq!(d.result(top_right), &[PointId(1)]);
        assert_eq!(d.result((0, 0)), &[PointId(0)]);
    }

    #[test]
    fn duplicate_points_always_tie() {
        let ds = Dataset::from_coords([(5, 5), (5, 5)]).unwrap();
        let d = build(&ds);
        for sc in d.grid().subcells() {
            assert_eq!(d.result(sc), &[PointId(0), PointId(1)], "subcell {sc:?}");
        }
    }

    #[test]
    fn midpoint_region_sees_both_of_two_points() {
        // Between two points (inside the bisector band in both axes), each
        // is closer in one dimension: both are dynamic skyline.
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let d = build(&ds);
        // Query (4, 6): |0-4| = 4 < 6, |10-4| = 6; y mirrored.
        assert_eq!(
            d.query(crate::geometry::Point::new(4, 6)),
            &[PointId(0), PointId(1)]
        );
    }
}
