//! The sweeping quadrant-diagram algorithm (paper Section IV-D, Theorem 2,
//! Algorithm 4) — `O(n²)`: finds the skyline polyominoes *directly*, without
//! computing a skyline per cell and merging.
//!
//! Two half-open grid-line segments per point (one downward, one leftward)
//! partition the plane; by Theorem 2 every region they bound is a skyline
//! polyomino. Each bounded region has a unique upper-right corner — an
//! intersection of one downward segment with one leftward segment — and that
//! corner determines the region's result.
//!
//! # Implementation notes
//!
//! The corner of the region containing a query `q` is
//! `g₀ = (min_x(Q), min_y(Q))` where `Q` is `q`'s first-quadrant point set:
//! walking right from `q`, the first downward segment hit belongs to the
//! leftmost quadrant point; walking up, the first leftward segment belongs
//! to the lowest one. Two rank-adjacent cells are separated by a segment iff
//! the crossed grid line carries a quadrant point, which is also exactly
//! when their corners (and their skylines) differ — so the swept polyominoes
//! are the connected components of cells sharing a corner, and they coincide
//! with the merge of any per-cell diagram (asserted by tests). The corner
//! field is computed for all cells by a single `O(n²)` dynamic program, and
//! results are attached per distinct corner with one leftward staircase
//! sweep per horizontal line: `O(n²)` plus the size of the output, versus
//! the `O(n³)` of the per-cell engines.

use crate::diagram::CellDiagram;
use crate::geometry::{CellGrid, Coord, Dataset, PointId};
use crate::parallel::{self, ParallelConfig};
use crate::result_set::{ResultId, ResultInterner};

/// Builds the quadrant skyline diagram by sweeping, with the process-wide
/// parallel configuration (`SKYLINE_THREADS`).
pub fn build(dataset: &Dataset) -> CellDiagram {
    build_with(dataset, &ParallelConfig::from_env())
}

/// Builds the quadrant skyline diagram by sweeping with an explicit parallel
/// configuration. After the shared corner DP and the one descending-x sort,
/// the horizontal lines are independent row bands: workers sweep lines and
/// return raw per-anchor staircases, and the caller numbers them in a fixed
/// line order — so every thread count (including the sequential reference)
/// produces an identical diagram. The diagram's interner is read-only (see
/// [`ResultInterner::to_readonly`]); the polyominoes are the merge of the
/// returned diagram ([`crate::diagram::merge::merge`]).
pub fn build_with(dataset: &Dataset, cfg: &ParallelConfig) -> CellDiagram {
    let grid = CellGrid::new(dataset);
    let corner_dp_span = crate::span!(
        "sweeping.corner_dp",
        ((grid.nx() as usize + 1) * (grid.ny() as usize + 1)) as u64
    );
    let corners = Corners::new(dataset, &grid);

    // Points sorted by descending x (then descending y) once, reused by
    // every per-line sweep.
    let mut by_x_desc: Vec<PointId> = dataset.ids().collect();
    by_x_desc.sort_unstable_by_key(|&id| {
        let p = dataset.point(id);
        (std::cmp::Reverse(p.x), std::cmp::Reverse(p.y))
    });

    drop(corner_dp_span);
    crate::counter!("sweeping.lines").add(corners.lines() as u64);

    // Row-band parallelism: each line sweep is independent given the shared
    // sort; staircases come back per line and are numbered in line order.
    let swept: Vec<SweptLine> = {
        let _sweep = crate::span!("sweeping.sweep", corners.lines() as u64);
        parallel::map_indexed(cfg, corners.lines(), |l| {
            let (ry, anchors) = corners.line(l);
            sweep_line(dataset, &grid, &by_x_desc, ry, anchors)
        })
    };

    // A corner is its result's (min x-rank, min y-rank): among the quadrant
    // points, the lowest of the leftmost ones and the leftmost of the lowest
    // ones are both skyline. So distinct corners have distinct, non-empty
    // results, and the staircases go straight into the CSR arena in line
    // order after the empty result (id 0) — the ids interning would assign,
    // without a lookup.
    let _intern = crate::span!("sweeping.intern");
    let mut flat: Vec<PointId> = Vec::with_capacity(swept.iter().map(|line| line.ids.len()).sum());
    let mut ends: Vec<u32> = Vec::with_capacity(corners.len() + 1);
    ends.push(0);
    for line in &swept {
        // A line's staircases run from its rightmost anchor leftwards: the
        // corners' numbering order.
        let base = flat.len() as u32;
        flat.extend_from_slice(&line.ids);
        ends.extend(line.ends.iter().map(|&end| base + end));
    }
    let results = ResultInterner::from_valid_runs(flat, ends);
    let cells = corners.into_cells();
    CellDiagram::from_parts(grid, results, cells)
}

/// Marks a cell whose quadrant is empty in the corner field.
const RANK_INF: u32 = u32::MAX;

/// The corner field of a grid and its distinct corners in numbering order.
///
/// Every cell's result is fixed by its corner `(min x-rank, min y-rank)`
/// over its first-quadrant points, so the diagram numbers results by
/// corner: lines in ascending y rank, and on each line the anchors from
/// the rightmost leftwards, after the empty result (id 0). Both the engine
/// and the local repair ([`crate::repair`]) number through this one type,
/// which is what keeps a repaired diagram id-for-id equal to a build.
pub(crate) struct Corners {
    /// Cells per grid row.
    width: usize,
    /// Per cell, row-major: the corner's x rank, or `RANK_INF` when the
    /// quadrant is empty.
    corner_x: Vec<u32>,
    /// Per cell, row-major: the corner's y rank, or `RANK_INF`.
    corner_y: Vec<u32>,
    /// The y rank of every line holding a corner, ascending.
    line_ry: Vec<u32>,
    /// Per line: exclusive end of its anchors in `anchors`.
    line_ends: Vec<usize>,
    /// Per line, ascending: the x ranks of its corners.
    anchors: Vec<u32>,
}

impl Corners {
    /// Runs the corner DP over `grid`, the grid of `dataset`: each point
    /// seeds its own grid intersection, and every cell takes the minima of
    /// its right and upper neighbours.
    pub(crate) fn new(dataset: &Dataset, grid: &CellGrid) -> Corners {
        let width = grid.nx() as usize + 1;
        let height = grid.ny() as usize + 1;
        let mut corner_x = vec![RANK_INF; width * height];
        let mut corner_y = vec![RANK_INF; width * height];
        for id in dataset.ids() {
            let (rx, ry) = (grid.xrank(id), grid.yrank(id));
            let idx = ry as usize * width + rx as usize;
            corner_x[idx] = rx;
            corner_y[idx] = ry;
        }
        // Row by row from the top: the minimum with the row above, then a
        // suffix minimum along the row. The last column and the top row
        // hold no seeds and stay empty.
        for field in [&mut corner_x, &mut corner_y] {
            for j in (0..height - 1).rev() {
                let (row, above) = field[j * width..(j + 2) * width].split_at_mut(width);
                for (cell, &up) in row.iter_mut().zip(above.iter()) {
                    *cell = (*cell).min(up);
                }
                for i in (0..width - 1).rev() {
                    row[i] = row[i].min(row[i + 1]);
                }
            }
        }

        // A dense (y-rank, x-rank) table marks the corners, so reading it
        // row by row lists the lines in ascending y rank with ascending
        // anchors.
        let mut is_corner = vec![false; width * height];
        for (&cx, &cy) in corner_x.iter().zip(&corner_y) {
            if cx != RANK_INF {
                is_corner[cy as usize * width + cx as usize] = true;
            }
        }
        let mut line_ry: Vec<u32> = Vec::new();
        let mut line_ends: Vec<usize> = Vec::new();
        let mut anchors: Vec<u32> = Vec::new();
        for (ry, row) in is_corner.chunks_exact(width).enumerate() {
            let before = anchors.len();
            anchors.extend((0..width as u32).filter(|&rx| row[rx as usize]));
            if anchors.len() > before {
                line_ry.push(ry as u32);
                line_ends.push(anchors.len());
            }
        }
        Corners {
            width,
            corner_x,
            corner_y,
            line_ry,
            line_ends,
            anchors,
        }
    }

    /// Number of lines holding a corner.
    pub(crate) fn lines(&self) -> usize {
        self.line_ry.len()
    }

    /// Number of distinct corners: the non-empty results.
    pub(crate) fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Line `l`: its y rank and its anchors, ascending. Result ids run over
    /// the lines in order, and within a line over the anchors reversed.
    pub(crate) fn line(&self, l: usize) -> (u32, &[u32]) {
        let start = if l == 0 { 0 } else { self.line_ends[l - 1] };
        (self.line_ry[l], &self.anchors[start..self.line_ends[l]])
    }

    /// The corners as `(x rank, y rank)` in numbering order: the `k`-th
    /// is the corner of result id `k + 1`.
    pub(crate) fn in_order(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.lines()).flat_map(move |l| {
            let (ry, anchors) = self.line(l);
            anchors.iter().rev().map(move |&rx| (rx, ry))
        })
    }

    /// The per-cell result ids: the id of each cell's corner, or 0 (the
    /// empty result) for an empty quadrant. Reuses the x half of the field
    /// as the output.
    pub(crate) fn into_cells(self) -> Vec<ResultId> {
        let width = self.width;
        let mut corner_result = vec![0u32; self.corner_x.len()];
        for (k, (rx, ry)) in self.in_order().enumerate() {
            corner_result[ry as usize * width + rx as usize] = k as u32 + 1;
        }
        let mut cells = self.corner_x;
        for (cell, &cy) in cells.iter_mut().zip(&self.corner_y) {
            *cell = if *cell == RANK_INF {
                0
            } else {
                corner_result[cy as usize * width + *cell as usize]
            };
        }
        cells.into_iter().map(ResultId).collect()
    }
}

/// One line's staircases, one per anchor in descending anchor order:
/// staircase `k` is `ids[ends[k-1]..ends[k]]`, sorted by id.
struct SweptLine {
    ids: Vec<PointId>,
    ends: Vec<u32>,
}

/// One horizontal line's sweep: for every anchor x-rank on line `ry`
/// (ascending), the result is the staircase of points with
/// `yrank >= ry` and `xrank >= anchor`. Sweeps anchors in descending order
/// while inserting points right-to-left, recording each anchor's staircase
/// for the caller to intern.
fn sweep_line(
    dataset: &Dataset,
    grid: &CellGrid,
    by_x_desc: &[PointId],
    ry: u32,
    anchors: &[u32],
) -> SweptLine {
    // Staircase stack: x descending insertion order; invariant x ascending /
    // y strictly descending from bottom to top... inserted points have the
    // smallest x so far, so the live stack is ordered by insertion time with
    // later entries dominating earlier ones evicted on the fly. Entries are
    // (y, id); eviction compares y only. Ties: an equal-y later point with
    // strictly smaller x dominates, so `>=` evicts; exact duplicates are
    // handled by keeping same-(x, y) runs together.
    let mut stack: Vec<(Coord, PointId)> = Vec::new();
    let mut out = SweptLine {
        ids: Vec::new(),
        ends: Vec::with_capacity(anchors.len()),
    };
    let mut pt = 0usize;
    for &anchor in anchors.iter().rev() {
        // Insert all points with xrank >= anchor (and yrank >= ry).
        while pt < by_x_desc.len() {
            let id = by_x_desc[pt];
            if grid.xrank(id) < anchor {
                break;
            }
            pt += 1;
            if grid.yrank(id) < ry {
                continue;
            }
            let p = dataset.point(id);
            // Evict dominated staircase entries: same or larger y, unless it
            // is an exact duplicate (same x and y), which must survive.
            while let Some(&(ty, tid)) = stack.last() {
                let tp = dataset.point(tid);
                if ty > p.y || (ty == p.y && tp.x > p.x) {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push((p.y, id));
        }
        let start = out.ids.len();
        out.ids.extend(stack.iter().map(|&(_, id)| id));
        out.ids[start..].sort_unstable();
        out.ends.push(out.ids.len() as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::merge::merge;
    use crate::quadrant::baseline;

    #[test]
    fn matches_baseline_on_hotel_example() {
        let ds = crate::test_data::hotel_dataset();
        assert!(build(&ds).same_results(&baseline::build(&ds)));
    }

    #[test]
    fn matches_baseline_on_random_data() {
        for seed in 0..5 {
            let ds = crate::test_data::lcg_dataset(40, 1000, seed);
            assert!(
                build(&ds).same_results(&baseline::build(&ds)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_baseline_under_heavy_ties() {
        for seed in 0..5 {
            let ds = crate::test_data::lcg_dataset(40, 6, 300 + seed);
            assert!(
                build(&ds).same_results(&baseline::build(&ds)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn polyominoes_match_merged_baseline() {
        let ds = crate::test_data::hotel_dataset();
        let swept = merge(&build(&ds));
        let merged_baseline = merge(&baseline::build(&ds));
        assert_eq!(swept.len(), merged_baseline.len());
        // Same cell partition: components must contain identical cell sets.
        let mut a: Vec<_> = swept.iter().map(|p| p.cells.to_vec()).collect();
        let mut b: Vec<_> = merged_baseline.iter().map(|p| p.cells.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn exact_duplicates_stay_in_results() {
        let ds = Dataset::from_coords([(5, 5), (5, 5), (2, 8)]).unwrap();
        let swept = build(&ds);
        assert!(swept.same_results(&baseline::build(&ds)));
        assert_eq!(swept.result((0, 0)), &[PointId(0), PointId(1), PointId(2)]);
    }

    #[test]
    fn thread_counts_agree_with_sequential_reference() {
        for seed in 0..3 {
            let ds = crate::test_data::lcg_dataset(35, 50, 100 + seed);
            let reference = build_with(&ds, &ParallelConfig::sequential());
            for threads in [1, 2, 3, 8] {
                let swept = build_with(&ds, &ParallelConfig::with_threads(threads));
                assert_eq!(
                    swept.cell_results(),
                    reference.cell_results(),
                    "threads = {threads}, seed = {seed}"
                );
                assert_eq!(swept.results().ends(), reference.results().ends());
                assert_eq!(swept.results().flat_ids(), reference.results().flat_ids());
            }
        }
    }

    #[test]
    fn polyomino_count_is_at_most_cell_count() {
        let ds = crate::test_data::lcg_dataset(60, 100, 9);
        let swept = build(&ds);
        let merged = merge(&swept);
        assert!(merged.len() <= swept.grid().cell_count());
        // ... and strictly smaller here: merging must achieve something.
        assert!(merged.len() < swept.grid().cell_count());
    }
}
