//! The scanning quadrant-diagram algorithm (paper Section IV-C, Theorem 1,
//! Algorithm 3).
//!
//! Scans cells from the top-right corner leftward/downward and computes each
//! cell's skyline from its three already-computed neighbors with the
//! multiset identity
//!
//! ```text
//! Sky(C_{i,j}) = Sky(C_{i+1,j}) ⊎ Sky(C_{i,j+1}) ∖ Sky(C_{i+1,j+1})
//! ```
//!
//! except for cells with a data point at their upper-right corner, whose
//! skyline is exactly the point(s) at that corner (such a point dominates
//! the whole quadrant).
//!
//! Results are carried as u64-block bitsets, so one recurrence step is
//! three bitwise operations per 64 points ([`scanning_combine_words`]) plus
//! one block hash in the [`BitsetInterner`], independent of the skyline
//! sizes. The recurrence reads its three neighbours from a rolling buffer
//! of two rows of blocks; the interner keeps each distinct result only as
//! sorted ids.
//!
//! # Correctness beyond the paper's statement
//!
//! Writing `K` for the points exactly at the corner `(xs[i], ys[j])`, `R`
//! for the points on the corner's vertical line strictly above it, `U` for
//! the points on its horizontal line strictly right of it, and `I` for the
//! strict interior `Q(i+1, j+1)`, one gets (for `K = ∅`):
//!
//! - `Sky(C_{i,j})   = r* ⊎ u* ⊎ {p ∈ Sky(I) : p.x < min_x(U), p.y < min_y(R)}`
//! - `Sky(C_{i+1,j}) = u* ⊎ {p ∈ Sky(I) : p.x < min_x(U)}`
//! - `Sky(C_{i,j+1}) = r* ⊎ {p ∈ Sky(I) : p.y < min_y(R)}`
//! - `Sky(C_{i+1,j+1}) = Sky(I)`
//!
//! where `r*`/`u*` are the minimal elements of `R`/`U` (nonempty only if the
//! line carries points in the quadrant). A `Sky(I)` point failing *both*
//! guards appears in neither neighbor but once in the diagonal, so a literal
//! multiset difference would assign it multiplicity `-1`. The published
//! identity implicitly assumes this configuration away (its proof notes the
//! upper-right range `D` must be empty when range `A` is nonempty, but `D`
//! can be nonempty when `A`, `B`, `C` are all empty). Clamping multiplicity
//! at zero — `scanning_combine` keeps
//! an id iff `[right] + [up] - [diag] >= 1` — drops exactly those points and
//! makes the recurrence exact for every input, ties included. The
//! `counterexample_to_unclamped_identity` test below pins the 3-point input
//! that breaks the unclamped form.

use crate::diagram::CellDiagram;
use crate::geometry::{CellGrid, Coord, Dataset, PointId};
use crate::parallel::{self, ParallelConfig};
use crate::result_set::{scanning_combine_words, words_for, BitsetInterner, ResultId};

/// Builds the quadrant skyline diagram with the scanning recurrence, using
/// the process-wide parallel configuration (`SKYLINE_THREADS`).
pub fn build(dataset: &Dataset) -> CellDiagram {
    build_with(dataset, &ParallelConfig::from_env())
}

/// Builds the quadrant skyline diagram with an explicit parallel
/// configuration.
///
/// The scanning recurrence chains every cell to its upper-right neighbors,
/// so the parallel path replaces it with an equivalent independent-row
/// formulation: `Sky(C_{i,j})` is the staircase of minima over the points
/// with `xrank >= i` and `yrank >= j`, so each row band sweeps the shared
/// descending-x point order once, maintaining the staircase as a bitset and
/// snapshotting its block at each x-rank that contributed (the result only
/// changes across such boundaries). Workers return raw boundary blocks;
/// interning happens on the caller in row-major order, keeping the output
/// identical to the sequential recurrence.
pub fn build_with(dataset: &Dataset, cfg: &ParallelConfig) -> CellDiagram {
    if cfg.is_sequential() {
        build_sequential(dataset)
    } else {
        build_parallel(dataset, cfg)
    }
}

/// The deterministic sequential reference: the paper's clamped recurrence,
/// word-parallel over two rows of bitset blocks.
fn build_sequential(dataset: &Dataset) -> CellDiagram {
    let _scan = crate::span!("scanning.recurrence", dataset.len() as u64);
    let grid = CellGrid::new(dataset);
    let words = words_for(dataset.len());
    let mut bits = BitsetInterner::new(words);
    let width = grid.nx() as usize + 1;
    let height = grid.ny() as usize + 1;
    let mut cells = vec![ResultId(0); width * height];
    // The blocks of row `j` and of the row above it, in two halves that
    // swap roles every row. Both start empty, which is what the top row
    // (j = ny) and the right column (i = nx) hold: their first quadrants
    // contain no points, so no step writes them.
    let stride = width * words;
    let mut blocks = vec![0u64; 2 * stride];

    // Scan the other rows top-down, each right to left.
    for j in (0..height - 1).rev() {
        let (low, high) = blocks.split_at_mut(stride);
        let (row, above) = if j % 2 == 0 { (low, high) } else { (high, low) };
        for i in (0..width - 1).rev() {
            let (row, right) = row.split_at_mut((i + 1) * words);
            let block = &mut row[i * words..];
            let corner = grid.points_at_corner(i as u32, j as u32);
            if !corner.is_empty() {
                // A corner point dominates its entire open quadrant; only
                // exact duplicates at the corner survive alongside it.
                block.fill(0);
                for id in corner {
                    let bit = id.0 as usize;
                    block[bit / 64] |= 1u64 << (bit % 64);
                }
            } else {
                scanning_combine_words(
                    &right[..words],
                    &above[i * words..(i + 1) * words],
                    &above[(i + 1) * words..(i + 2) * words],
                    block,
                );
            }
            cells[j * width + i] = bits.intern(block);
        }
    }

    CellDiagram::from_parts(grid, bits.finish(), cells)
}

/// One row band's boundary snapshots, struct-of-arrays: `xranks[k]` pairs
/// with the `k`-th `words`-stride block of `blocks`.
struct RowSnapshots {
    xranks: Vec<u32>,
    blocks: Vec<u64>,
}

/// The parallel engine: independent row bands over a shared descending-x
/// sort, stitched in row-major order.
fn build_parallel(dataset: &Dataset, cfg: &ParallelConfig) -> CellDiagram {
    let grid = CellGrid::new(dataset);
    let words = words_for(dataset.len());
    let width = grid.nx() as usize + 1;
    let height = grid.ny() as usize + 1;

    // Shared precomputation: points by descending x, then descending y, so
    // equal-x groups arrive highest-first and the staircase eviction rule
    // (same as the sweeping engine's) resolves ties identically.
    let mut by_x_desc: Vec<PointId> = dataset.ids().collect();
    by_x_desc.sort_unstable_by_key(|&id| {
        let p = dataset.point(id);
        (std::cmp::Reverse(p.x), std::cmp::Reverse(p.y))
    });

    // The top row (j = ny) has an empty first quadrant; every other row is
    // an independent band. Rows with a low `j` admit more points into the
    // staircase, which is the cost model for the band split.
    crate::counter!("scanning.rows").add((height - 1) as u64);
    let rows: Vec<RowSnapshots> = {
        let _scan = crate::span!("scanning.rows", (height - 1) as u64);
        parallel::map_indexed_weighted(
            cfg,
            height - 1,
            |j| (height - j) as u64,
            |j| scan_row(dataset, &grid, &by_x_desc, j as u32, words),
        )
    };

    let _stitch = crate::span!("scanning.stitch");
    let mut bits = BitsetInterner::new(words);
    let mut cells = vec![ResultId(0); width * height];
    for (j, row) in rows.iter().enumerate() {
        // Boundaries come back in descending x-rank order; replay them
        // ascending. Cells up to the first boundary share its snapshot,
        // cells past the last boundary have empty quadrants.
        let mut next = 0usize;
        for (k, &v) in row.xranks.iter().enumerate().rev() {
            let block = &row.blocks[k * words..(k + 1) * words];
            let id = bits.intern(block);
            for cell in &mut cells[j * width + next..=j * width + v as usize] {
                *cell = id;
            }
            next = v as usize + 1;
        }
    }
    CellDiagram::from_parts(grid, bits.finish(), cells)
}

/// One row band: sweep the shared descending-x order, keep the staircase of
/// minima over points with `yrank >= j` (mirrored as a bitset block), and
/// snapshot the block after each x-rank group that inserted at least one
/// point. Cell `(i, j)` takes the snapshot of the smallest recorded x-rank
/// `>= i`.
fn scan_row(
    dataset: &Dataset,
    grid: &CellGrid,
    by_x_desc: &[PointId],
    j: u32,
    words: usize,
) -> RowSnapshots {
    let mut stack: Vec<(Coord, PointId)> = Vec::new();
    let mut live = vec![0u64; words];
    let mut out = RowSnapshots {
        xranks: Vec::new(),
        blocks: Vec::new(),
    };
    let set_bit = |block: &mut [u64], id: PointId, on: bool| {
        let bit = id.0 as usize;
        if on {
            block[bit / 64] |= 1u64 << (bit % 64);
        } else {
            block[bit / 64] &= !(1u64 << (bit % 64));
        }
    };
    let mut pt = 0usize;
    while pt < by_x_desc.len() {
        let v = grid.xrank(by_x_desc[pt]);
        let mut changed = false;
        while pt < by_x_desc.len() && grid.xrank(by_x_desc[pt]) == v {
            let id = by_x_desc[pt];
            pt += 1;
            if grid.yrank(id) < j {
                continue;
            }
            let p = dataset.point(id);
            // Evict dominated entries; exact duplicates survive. Mirrors the
            // sweeping engine's staircase so tie semantics stay identical.
            while let Some(&(ty, tid)) = stack.last() {
                let tp = dataset.point(tid);
                if ty > p.y || (ty == p.y && tp.x > p.x) {
                    stack.pop();
                    set_bit(&mut live, tid, false);
                } else {
                    break;
                }
            }
            stack.push((p.y, id));
            set_bit(&mut live, id, true);
            changed = true;
        }
        if changed {
            out.xranks.push(v);
            out.blocks.extend_from_slice(&live);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::baseline;

    /// The paper's recurrence and the row-band formulation, whatever the
    /// host's width (`build` picks one from `SKYLINE_THREADS`).
    fn both_paths(ds: &Dataset) -> [CellDiagram; 2] {
        [
            build_with(ds, &ParallelConfig::sequential()),
            build_with(ds, &ParallelConfig::with_threads(2)),
        ]
    }

    #[test]
    fn matches_baseline_on_hotel_example() {
        let ds = crate::test_data::hotel_dataset();
        for d in both_paths(&ds) {
            assert!(d.same_results(&baseline::build(&ds)));
        }
    }

    #[test]
    fn matches_baseline_on_random_data() {
        for seed in 0..5 {
            let ds = crate::test_data::lcg_dataset(40, 1000, seed);
            let reference = baseline::build(&ds);
            for d in both_paths(&ds) {
                assert!(d.same_results(&reference), "seed {seed}");
            }
        }
    }

    #[test]
    fn matches_baseline_under_heavy_ties() {
        for seed in 0..5 {
            let ds = crate::test_data::lcg_dataset(40, 6, 200 + seed);
            let reference = baseline::build(&ds);
            for d in both_paths(&ds) {
                assert!(d.same_results(&reference), "seed {seed}");
            }
        }
    }

    #[test]
    fn counterexample_to_unclamped_identity() {
        // a = (10, 0), b = (0, 10), d = (20, 20): for C_{0,0} the three
        // upper ranges of Theorem 1's proof are empty while its range D
        // holds d, so the unclamped multiset expression would compute
        // {a} ⊎ {b} ∖ {d} with d at multiplicity -1. The clamped recurrence
        // must produce exactly {a, b}.
        let ds = Dataset::from_coords([(10, 0), (0, 10), (20, 20)]).unwrap();
        for d in both_paths(&ds) {
            assert_eq!(d.result((0, 0)), &[PointId(0), PointId(1)]);
            assert_eq!(d.result((1, 0)), &[PointId(0)]);
            assert_eq!(d.result((0, 1)), &[PointId(1)]);
            assert_eq!(d.result((1, 1)), &[PointId(2)]);
            assert!(d.same_results(&baseline::build(&ds)));
        }
    }

    #[test]
    fn thread_counts_agree_with_sequential_recurrence() {
        for seed in 0..3 {
            let ds = crate::test_data::lcg_dataset(35, 50, 400 + seed);
            let reference = build_with(&ds, &ParallelConfig::sequential());
            for threads in [1, 2, 3, 8] {
                assert!(
                    build_with(&ds, &ParallelConfig::with_threads(threads))
                        .same_results(&reference),
                    "threads = {threads}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn parallel_row_formulation_handles_ties() {
        for seed in 0..3 {
            let ds = crate::test_data::lcg_dataset(40, 6, 500 + seed);
            let reference = baseline::build(&ds);
            assert!(
                build_with(&ds, &ParallelConfig::with_threads(3)).same_results(&reference),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn word_boundary_sizes_match_baseline() {
        // 63/64/65 points straddle the one-word/two-word block boundary.
        for n in [63, 64, 65] {
            let ds = crate::test_data::lcg_dataset(n, 500, 77);
            let reference = baseline::build(&ds);
            assert!(
                build_with(&ds, &ParallelConfig::sequential()).same_results(&reference),
                "n = {n}"
            );
            assert!(
                build_with(&ds, &ParallelConfig::with_threads(4)).same_results(&reference),
                "n = {n} parallel"
            );
        }
    }

    #[test]
    fn corner_cells_hold_their_point() {
        let ds = crate::test_data::hotel_dataset();
        for d in both_paths(&ds) {
            let grid = d.grid();
            for (id, _) in ds.iter() {
                let (rx, ry) = (grid.xrank(id), grid.yrank(id));
                assert_eq!(d.result((rx, ry)), &[id], "cell cornered by {id}");
            }
        }
    }

    #[test]
    fn duplicate_corner_points_survive_together() {
        let ds = Dataset::from_coords([(5, 5), (5, 5), (9, 9)]).unwrap();
        for d in both_paths(&ds) {
            assert_eq!(d.result((0, 0)), &[PointId(0), PointId(1)]);
            assert!(d.same_results(&baseline::build(&ds)));
        }
    }
}
