//! The subset dynamic-diagram algorithm (paper Algorithm 6).
//!
//! The dynamic skyline of any query is a subset of its global skyline
//! (mapped points can only gain dominators across quadrants). Every subcell
//! lies inside exactly one skyline cell — the cell grid's lines are a subset
//! of the subcell grid's — so the global diagram's per-cell result is a
//! sound candidate set: instead of scanning all `n` points per subcell,
//! only the `O(log n)`-on-average global skyline is scanned. Worst case
//! stays `O(n⁵)`, practice improves by one to two orders of magnitude
//! (experiment E3).

use crate::dynamic::{dynamic_minima_at_sample, SubcellDiagram, SubcellGrid};
use crate::geometry::{CellGrid, Dataset};
use crate::parallel::{self, ParallelConfig};
use crate::quadrant::QuadrantEngine;
use crate::result_set::{words_for, BitRuns, BitsetInterner};

/// Builds the dynamic skyline diagram from global-skyline candidate sets.
/// `engine` selects the quadrant engine used for the global diagram. Uses
/// the process-wide parallel configuration (`SKYLINE_THREADS`).
pub fn build(dataset: &Dataset, engine: QuadrantEngine) -> SubcellDiagram {
    build_with(dataset, engine, &ParallelConfig::from_env())
}

/// Builds the subset dynamic diagram with an explicit parallel
/// configuration: the global diagram build, the subcell grid's bisector
/// loop, and the per-subcell candidate scans all parallelize; output is
/// identical at every thread count.
pub fn build_with(
    dataset: &Dataset,
    engine: QuadrantEngine,
    cfg: &ParallelConfig,
) -> SubcellDiagram {
    let global = crate::global::build_with(dataset, engine, cfg);
    build_with_global_cfg(dataset, &global, cfg)
}

/// Variant taking a prebuilt global diagram (used by the E8c ablation to
/// separate the global-diagram cost from the per-subcell cost).
pub fn build_with_global(
    dataset: &Dataset,
    global: &crate::diagram::CellDiagram,
) -> SubcellDiagram {
    build_with_global_cfg(dataset, global, &ParallelConfig::from_env())
}

/// The per-subcell candidate scans, row-banded: every subcell row is
/// independent, so workers return run-collapsed raw results and the caller
/// interns them in row-major order.
pub fn build_with_global_cfg(
    dataset: &Dataset,
    global: &crate::diagram::CellDiagram,
    cfg: &ParallelConfig,
) -> SubcellDiagram {
    let grid = SubcellGrid::new_with(dataset, cfg);
    let cell_grid: &CellGrid = global.grid();
    let width = grid.mx() as usize + 1;
    let height = grid.my() as usize + 1;
    let words = words_for(dataset.len());

    // Map each subcell slab to its containing cell slab once per axis:
    // subcell sample coordinates are in quadrupled space, cell lines in raw.
    let cell_x_of: Vec<u32> = (0..=grid.mx())
        .map(|i| {
            let s = grid.sample_x4((i, 0)).x;
            cell_grid.x_lines().partition_point(|&x| 4 * x < s) as u32
        })
        .collect();
    let cell_y_of: Vec<u32> = (0..=grid.my())
        .map(|j| {
            let s = grid.sample_x4((0, j)).y;
            cell_grid.y_lines().partition_point(|&y| 4 * y < s) as u32
        })
        .collect();

    let _bands = crate::span!("dynamic.subset.bands", height as u64);
    crate::counter!("dynamic.subcell_rows").add(height as u64);
    let rows: Vec<BitRuns> = parallel::map_indexed(cfg, height, |j| {
        let mut scratch = Vec::with_capacity(dataset.len());
        let mut block = vec![0u64; words];
        let mut runs = BitRuns::new(words);
        for i in 0..width as u32 {
            let sample = grid.sample_x4((i, j as u32));
            let candidates = global.result((cell_x_of[i as usize], cell_y_of[j]));
            dynamic_minima_at_sample(
                dataset,
                candidates.iter().copied(),
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
    use crate::dynamic::baseline;

    #[test]
    fn matches_baseline_on_random_data() {
        for seed in 0..4 {
            let ds = crate::test_data::lcg_dataset(10, 60, seed);
            assert!(
                build(&ds, QuadrantEngine::Baseline).same_results(&baseline::build(&ds)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_baseline_under_heavy_ties() {
        for seed in 0..4 {
            let ds = crate::test_data::lcg_dataset(10, 5, 50 + seed);
            assert!(
                build(&ds, QuadrantEngine::Baseline).same_results(&baseline::build(&ds)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_baseline_on_hotel_example() {
        let ds = crate::test_data::hotel_dataset();
        assert!(build(&ds, QuadrantEngine::Sweeping).same_results(&baseline::build(&ds)));
    }

    #[test]
    fn quadrant_engine_choice_does_not_matter() {
        let ds = crate::test_data::lcg_dataset(9, 25, 77);
        let reference = build(&ds, QuadrantEngine::Baseline);
        for engine in QuadrantEngine::ALL {
            assert!(
                build(&ds, engine).same_results(&reference),
                "{}",
                engine.name()
            );
        }
    }
}
