//! The scanning dynamic-diagram algorithm (paper Algorithm 7).
//!
//! # Why one step only touches the line's contributors
//!
//! Inside a subcell, the x-comparison of two points `a`, `b` relative to the
//! sample `s` is the sign of `|4·a.x − s.x| − |4·b.x − s.x|`. As `s.x` moves,
//! that sign can change only where `s.x = 2·(a.x + b.x)`, i.e. on the pair's
//! bisector line `a.x + b.x` (doubled coordinates); if `a.x = b.x` the
//! comparison is a tie everywhere. Crossing one vertical subcell line `L`
//! therefore flips exactly the x-comparisons of pairs whose bisector is
//! `L`, and no y-comparison at all. [`SubcellGrid`] records every member of
//! such a pair as a *contributor* of `L` (plus every point whose own line
//! `2·p.x` is `L`, the pair `(p, p)`), so:
//!
//! - **A non-contributor keeps its membership.** If `p` is not a
//!   contributor of `L`, no pair `(p, q)` has its bisector on `L`, so every
//!   comparison between `p` and any other point — contributors included —
//!   is the same on both sides. `p`'s dominator set is unchanged: it is in
//!   the new skyline iff it was in the old one, and it needs no check.
//! - **A contributor is decided against `old ∪ contributors`.** Dominance at
//!   one sample is a strict partial order, so a dominated point is dominated
//!   by some skyline point of the new subcell. That point is either a
//!   non-contributor (then, by the previous bullet, in the old skyline) or a
//!   contributor; both lie in the candidate set `cand = old ∪ C`. A
//!   contributor survives iff no member of `cand` dominates it at the new
//!   sample.
//!
//! Ties need no special case. Equal coordinates give equal distances at
//! every sample, and dominance needs one strict axis, so duplicates never
//! evict each other. A point's own line flips none of its comparisons; it
//! only makes the point a contributor, which costs one redundant check.
//! Coincident bisectors (several pairs on one line, more than two
//! contributors) simply put every member of every such pair into `C`.
//! Samples are interior, never on a line, so no comparison is evaluated
//! at its flip point.
//!
//! # The step on bitsets
//!
//! Each result is a [`words_for`]`(n)`-word bitset block and each line's
//! contributors one mask of the same width, built once from the grid. A
//! step computes `cand = old | C`, keeps `old & !C`, and sets each
//! contributor that no member of `cand` dominates: `O(|C|·|cand|)`
//! distance comparisons plus `O(n/64)` word operations, with no sort and no
//! allocation. Distances are `|4·p − s|` at full width (`u64` from
//! `unsigned_abs`): coordinates reach [`MAX_COORD`](crate::geometry::MAX_COORD),
//! so narrowing them would compare wrong. Column distances are computed
//! once per column and shared by every row; row distances once per row.
//!
//! The first subcell is the same step from the empty set with every point
//! a contributor. The column-0 chain then steps upward across each
//! horizontal line, and every row is swept left to right from its seed.

use crate::dynamic::{SubcellDiagram, SubcellGrid};
use crate::geometry::{Dataset, PointId};
use crate::parallel::{self, ParallelConfig};
use crate::result_set::{words_for, BitRuns, BitsetInterner};

/// Builds the dynamic skyline diagram with the incremental scan, using the
/// process-wide parallel configuration (`SKYLINE_THREADS`).
pub fn build(dataset: &Dataset) -> SubcellDiagram {
    build_with(dataset, &ParallelConfig::from_env())
}

/// Builds the scanning dynamic diagram with an explicit parallel
/// configuration.
///
/// The incremental chain only couples rows through their column-0 seeds,
/// so the parallel decomposition advances the cheap column-0 chain upward
/// sequentially and then sweeps each row rightward independently. Workers
/// return run-collapsed bitset rows; the caller interns them in row-major
/// order, so every thread count produces an identical diagram.
pub fn build_with(dataset: &Dataset, cfg: &ParallelConfig) -> SubcellDiagram {
    let grid = SubcellGrid::new_with(dataset, cfg);
    let n = dataset.len();
    let words = words_for(n);
    let width = grid.mx() as usize + 1;
    let height = grid.my() as usize + 1;

    let x_masks = contributor_masks(words, grid.mx(), |i| grid.x_contributors(i));
    let y_masks = contributor_masks(words, grid.my(), |j| grid.y_contributors(j));
    // Column distances |4·p.x − s.x|, one n-slice per column.
    let mut col_dist = Vec::with_capacity(width * n);
    for i in 0..width as u32 {
        let s = grid.sample_x4((i, 0)).x;
        col_dist.extend(
            dataset
                .points()
                .iter()
                .map(|p| (4 * p.x - s).unsigned_abs()),
        );
    }
    let column = |i: usize| &col_dist[i * n..(i + 1) * n];
    let row_distances = |j: usize, out: &mut Vec<u64>| {
        let s = grid.sample_x4((0, j as u32)).y;
        out.clear();
        out.extend(
            dataset
                .points()
                .iter()
                .map(|p| (4 * p.y - s).unsigned_abs()),
        );
    };

    // Column-0 chain: seed subcell (0, 0) from the empty set with every
    // point a contributor, then step upward across each horizontal line.
    let seed_span = crate::span!("dynamic.scanning.seeds", height as u64);
    let mut seeds = vec![0u64; height * words];
    let mut all = vec![0u64; words];
    for id in 0..n {
        all[id / 64] |= 1u64 << (id % 64);
    }
    let mut dy = Vec::with_capacity(n);
    let mut cand = vec![0u64; words];
    let empty = vec![0u64; words];
    row_distances(0, &mut dy);
    step(&empty, &all, column(0), &dy, &mut cand, &mut seeds[..words]);
    for j in 1..height {
        row_distances(j, &mut dy);
        let (done, rest) = seeds.split_at_mut(j * words);
        step(
            &done[(j - 1) * words..],
            &y_masks[(j - 1) * words..j * words],
            column(0),
            &dy,
            &mut cand,
            &mut rest[..words],
        );
    }
    drop(seed_span);

    // Sweep every row rightward across each vertical line, independently.
    let _bands = crate::span!("dynamic.scanning.bands", height as u64);
    crate::counter!("dynamic.subcell_rows").add(height as u64);
    let rows: Vec<BitRuns> = parallel::map_indexed(cfg, height, |j| {
        let mut dy = Vec::with_capacity(n);
        row_distances(j, &mut dy);
        sweep_row(
            &seeds[j * words..(j + 1) * words],
            &x_masks,
            &col_dist,
            &dy,
            width,
        )
    });

    let mut bits = BitsetInterner::new(words);
    let mut cells = Vec::with_capacity(width * height);
    for row in rows {
        row.intern_into(&mut bits, &mut cells);
    }
    SubcellDiagram::from_parts(grid, bits.finish(), cells)
}

/// Sweeps one row rightward from its column-0 skyline `seed` across each
/// vertical line (contributor masks `x_masks`, one `seed.len()`-word mask
/// per line), with the row's distances `dy` and the column distances
/// `col_dist` (one `dy.len()`-slice per column); returns the row's
/// run-collapsed skylines.
///
/// Kept out of line: inlined into [`build_with`], the loop's code
/// generation shifts with unrelated changes elsewhere in the crate, and
/// the build time with it.
#[inline(never)]
fn sweep_row(seed: &[u64], x_masks: &[u64], col_dist: &[u64], dy: &[u64], width: usize) -> BitRuns {
    let (words, n) = (seed.len(), dy.len());
    let mut cand = vec![0u64; words];
    let mut row = seed.to_vec();
    let mut next = vec![0u64; words];
    let mut runs = BitRuns::new(words);
    runs.push_words(&row);
    for i in 1..width {
        let mask = &x_masks[(i - 1) * words..i * words];
        step(
            &row,
            mask,
            &col_dist[i * n..(i + 1) * n],
            dy,
            &mut cand,
            &mut next,
        );
        runs.push_words(&next);
        std::mem::swap(&mut row, &mut next);
    }
    runs
}

/// One `words`-wide mask per line, bit `p` set iff `p` contributes to it.
fn contributor_masks<'g>(
    words: usize,
    lines: u32,
    contributors: impl Fn(u32) -> &'g [PointId],
) -> Vec<u64> {
    let mut masks = vec![0u64; lines as usize * words];
    for line in 0..lines {
        let mask = &mut masks[line as usize * words..(line as usize + 1) * words];
        for id in contributors(line) {
            let bit = id.0 as usize;
            mask[bit / 64] |= 1u64 << (bit % 64);
        }
    }
    masks
}

/// One scanning step across a line whose contributor mask is `crossing`:
/// from the skyline `prev` of the subcell before the line, writes the
/// skyline of the subcell after it into `next`. `dx`/`dy` are every
/// point's distances to the new subcell's sample; `cand` is scratch.
fn step(
    prev: &[u64],
    crossing: &[u64],
    dx: &[u64],
    dy: &[u64],
    cand: &mut [u64],
    next: &mut [u64],
) {
    for k in 0..prev.len() {
        cand[k] = prev[k] | crossing[k];
        next[k] = prev[k] & !crossing[k];
    }
    for (k, &word) in crossing.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let c = k * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            if !dominated(c, cand, dx, dy) {
                next[k] |= 1u64 << (c % 64);
            }
        }
    }
}

/// Whether some member of `cand` dominates point `c` under the distances
/// `(dx, dy)`: `<=` on both axes and `<` on at least one. A point never
/// dominates itself or an exact tie.
fn dominated(c: usize, cand: &[u64], dx: &[u64], dy: &[u64]) -> bool {
    let (cx, cy) = (dx[c], dy[c]);
    for (k, &word) in cand.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let d = k * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            let (x, y) = (dx[d], dy[d]);
            if x <= cx && y <= cy && (x < cx || y < cy) {
                return true;
            }
        }
    }
    false
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
                build(&ds).same_results(&baseline::build(&ds)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_baseline_under_heavy_ties() {
        for seed in 0..4 {
            let ds = crate::test_data::lcg_dataset(10, 5, 90 + seed);
            assert!(
                build(&ds).same_results(&baseline::build(&ds)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_baseline_on_hotel_example() {
        let ds = crate::test_data::hotel_dataset();
        assert!(build(&ds).same_results(&baseline::build(&ds)));
    }

    #[test]
    fn duplicates_and_collinear_points() {
        let ds = Dataset::from_coords([(2, 2), (2, 2), (2, 8), (6, 2)]).unwrap();
        assert!(build(&ds).same_results(&baseline::build(&ds)));
    }

    #[test]
    fn single_point_has_one_region() {
        let ds = Dataset::from_coords([(7, 7)]).unwrap();
        let d = build(&ds);
        // One point: every subcell's dynamic skyline is that point.
        for sc in d.grid().subcells() {
            assert_eq!(d.result(sc), &[PointId(0)]);
        }
    }

    #[test]
    fn non_contributors_never_change_membership() {
        // The step's premise, checked directly: across every vertical line,
        // the skylines on both sides agree outside the line's contributors.
        let ds = crate::test_data::lcg_dataset(9, 12, 7);
        let d = baseline::build(&ds);
        let g = d.grid();
        for j in 0..=g.my() {
            for i in 1..=g.mx() {
                let contributors = g.x_contributors(i - 1);
                let outside = |ids: &[PointId]| -> Vec<PointId> {
                    ids.iter()
                        .copied()
                        .filter(|id| !contributors.contains(id))
                        .collect()
                };
                assert_eq!(
                    outside(d.result((i - 1, j))),
                    outside(d.result((i, j))),
                    "line {} row {j}",
                    i - 1
                );
            }
        }
    }
}
