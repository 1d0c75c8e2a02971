//! Skyline diagram for **global** skyline queries.
//!
//! "Global skyline can be simply computed by taking a union of all quadrant
//! skylines" (paper, Section IV): the global diagram shares the quadrant
//! diagram's cell grid, and each cell's result is the union of the four
//! per-quadrant results. This module runs a chosen quadrant engine on the
//! axis reflections of the dataset and unions the per-cell results, so
//! every quadrant engine doubles as a global engine. The first quadrant is
//! the identity reflection: [`build_around`] takes an already-built
//! quadrant diagram (the one [`crate::index`] keeps anyway) and builds only
//! the three reflected orthants.
//!
//! The union phase re-encodes each per-quadrant interner as a flat bitset
//! arena once (`global.encode` span) and then takes every cell union
//! word-parallel — `union4_words` is one `OR` pass
//! per 64 points, independent of the skyline sizes. The unions are
//! interned straight into the output's sorted-id arena (a
//! [`BitsetInterner`]: looked up by block, stored as ids), which numbers
//! results by first row-major occurrence with the empty set as id 0, so
//! no bitset copy of the output is kept. A reflected orthant is reduced to
//! its arena and cell ids as soon as it is built.
//!
//! # Parallel engine
//!
//! The reflected quadrant builds are independent (the per-orthant
//! fan-out of Definition 2) and run through [`crate::parallel`]; the union
//! phase is then row-banded: each row worker unions every cell of its row
//! and hands back [`BitRuns`] that collapse consecutive equal unions. (No
//! two neighbouring cells share all four per-quadrant ids: the grid line
//! between them carries a point, which enters or leaves one orthant.) The
//! sequential stitch interns the runs in row-major order, one band of rows
//! at a time, which both dedups storage and keeps the output identical for
//! every thread count; `threads = 0` runs the same rows inline, in shorter
//! bands.

use crate::diagram::CellDiagram;
use crate::geometry::Dataset;
use crate::parallel::{self, ParallelConfig};
use crate::quadrant::QuadrantEngine;
use crate::result_set::{
    encode_results, union4_words, words_for, BitRuns, BitsetInterner, ResultId,
};

/// Reflections: `(flip_x, flip_y)` selects the quadrant being reduced to
/// the first: Q1 = (false, false), Q2 = (true, false), Q3 = (true, true),
/// Q4 = (false, true).
const REFLECTIONS: [(bool, bool); 4] = [(false, false), (true, false), (true, true), (false, true)];

/// Builds the global skyline diagram using the given quadrant engine for
/// each of the four reflections, with the process-wide parallel
/// configuration (`SKYLINE_THREADS`).
pub fn build(dataset: &Dataset, engine: QuadrantEngine) -> CellDiagram {
    build_with(dataset, engine, &ParallelConfig::from_env())
}

/// Builds the global skyline diagram with an explicit parallel
/// configuration: the first-quadrant diagram, then [`build_around`] it.
/// All configurations produce identical diagrams (differentially tested).
pub fn build_with(dataset: &Dataset, engine: QuadrantEngine, cfg: &ParallelConfig) -> CellDiagram {
    build_around(dataset, &engine.build_with(dataset, cfg), engine, cfg)
}

/// Builds the global skyline diagram around `q1`, a quadrant diagram of
/// `dataset`: only the three reflected orthants are built (with `engine`),
/// then unioned with `q1` cell by cell. The output does not depend on how
/// `q1` numbers its results, so any engine's (or a loaded) quadrant
/// diagram gives the same diagram as [`build_with`].
pub fn build_around(
    dataset: &Dataset,
    q1: &CellDiagram,
    engine: QuadrantEngine,
    cfg: &ParallelConfig,
) -> CellDiagram {
    debug_assert!(
        {
            let grid = crate::geometry::CellGrid::new(dataset);
            grid.x_lines() == q1.grid().x_lines() && grid.y_lines() == q1.grid().y_lines()
        },
        "build_around() requires a quadrant diagram built over the same dataset"
    );
    let _build = crate::span!("global.build", dataset.len() as u64);
    let _mem = crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::GlobalBuild);
    crate::counter!("global.builds").add(1);
    let diagram = union_orthants(dataset, q1, engine, cfg);
    // Debug builds spot-check the output against the from-scratch oracle and
    // the Definition 2 union (see `crate::invariants`); release builds pay
    // nothing.
    #[cfg(debug_assertions)]
    if let Err(violation) = crate::invariants::validate_cell_diagram(
        dataset,
        &diagram,
        crate::invariants::CellSemantics::Global,
        crate::invariants::DEBUG_SAMPLE_BUDGET,
    ) {
        debug_assert!(
            false,
            "global diagram ({} engine): {violation}",
            engine.name()
        );
    }
    diagram
}

/// The dataset reflected through the selected axes; reflection stays within
/// the coordinate bound, so construction cannot fail.
fn reflect(dataset: &Dataset, flip_x: bool, flip_y: bool) -> Dataset {
    Dataset::from_coords(dataset.points().iter().map(|p| {
        (
            if flip_x { -p.x } else { p.x },
            if flip_y { -p.y } else { p.y },
        )
    }))
    .expect("reflection preserves dataset validity and coordinate bounds")
}

/// Rows per band of a sequential union: few enough that the row buffers
/// (about 25 KB a row at n = 400) stay a small part of the build's memory.
const UNION_BAND: usize = 16;

/// Rows per band of a parallel union. Each band is one parallel region,
/// so a band must be long enough for its workers to amortize their
/// start-up.
const PARALLEL_UNION_BAND: usize = 64;

/// The four orthants as the union reads them: per orthant, its results
/// re-encoded as a bitset arena (block `k` holds result `k`) and its cell
/// ids in its own reflected grid.
struct Orthants<'a> {
    arenas: [&'a [u64]; 4],
    cells: [&'a [ResultId]; 4],
    words: usize,
    width: usize,
    height: usize,
}

impl Orthants<'_> {
    /// The four orthants' union over row `j` of the original grid, cell by
    /// cell left to right. Row `j` is row `j` (or its mirror) of each
    /// reflected grid, read left to right (or right to left).
    fn union_row(&self, j: usize) -> BitRuns {
        let (width, height, words) = (self.width, self.height, self.words);
        let rows: [&[ResultId]; 4] = std::array::from_fn(|q| {
            let rj = if REFLECTIONS[q].1 { height - 1 - j } else { j };
            &self.cells[q][rj * width..(rj + 1) * width]
        });
        // A row has at most `width` runs, and nearly always that many:
        // neighbouring cells never share all four orthant ids.
        let mut runs = BitRuns::with_capacity(words, width);
        let mut out = vec![0u64; words];
        for i in 0..width {
            let block = |q: usize| {
                let id = rows[q][if REFLECTIONS[q].0 { width - 1 - i } else { i }];
                let start = id.0 as usize * words;
                &self.arenas[q][start..start + words]
            };
            union4_words(block(0), block(1), block(2), block(3), &mut out);
            runs.push_words(&out);
        }
        runs
    }
}

/// Per-orthant fan-out of the three reflections, then row-banded
/// word-parallel 4-way unions interned straight into the output's
/// sorted-id arena.
fn union_orthants(
    dataset: &Dataset,
    q1: &CellDiagram,
    engine: QuadrantEngine,
    cfg: &ParallelConfig,
) -> CellDiagram {
    let grid = q1.grid().clone();
    let words = words_for(dataset.len());
    let width = grid.nx() as usize + 1;
    let height = grid.ny() as usize + 1;

    let q1_arena = {
        let _encode = crate::span!("global.encode", 1);
        encode_results(q1.results(), words)
    };
    // Each orthant build keeps the caller's parallel configuration so the
    // engines' row-band formulations apply inside the workers too. A worker
    // keeps only its orthant's arena and cell ids; the sorted-id interner
    // is freed as soon as it is encoded.
    let reflected: Vec<(Vec<u64>, Vec<ResultId>)> = {
        let _fanout = crate::span!("global.fanout", 3);
        parallel::map(cfg, &REFLECTIONS[1..], |&(flip_x, flip_y)| {
            let _orthant = crate::span!("global.orthant");
            let diagram = engine.build_with(&reflect(dataset, flip_x, flip_y), cfg);
            let arena = {
                let _encode = crate::span!("global.encode", 1);
                encode_results(diagram.results(), words)
            };
            (arena, diagram.into_cells())
        })
    };
    let orthants = Orthants {
        arenas: std::array::from_fn(|q| match q {
            0 => q1_arena.as_slice(),
            _ => reflected[q - 1].0.as_slice(),
        }),
        cells: std::array::from_fn(|q| match q {
            0 => q1.cell_results(),
            _ => reflected[q - 1].1.as_slice(),
        }),
        words,
        width,
        height,
    };

    // Workers union a band of rows at a time and the stitch interns the
    // band, in row-major order, before the next one starts, so only one
    // band of runs is held at once.
    let band_rows = if cfg.is_sequential() {
        UNION_BAND
    } else {
        PARALLEL_UNION_BAND
    };
    let mut results = BitsetInterner::new(words);
    let mut cells = Vec::with_capacity(width * height);
    for band in (0..height).step_by(band_rows) {
        let len = band_rows.min(height - band);
        let rows: Vec<BitRuns> = {
            let _union = crate::span!("global.union", len as u64);
            parallel::map_indexed(cfg, len, |k| orthants.union_row(band + k))
        };
        let _intern = crate::span!("global.intern", len as u64);
        for row in rows {
            row.intern_into(&mut results, &mut cells);
        }
    }
    CellDiagram::from_parts(grid, results.finish(), cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{global_skyline, global_skyline_naive};

    #[test]
    fn matches_from_scratch_queries_on_hotel_example() {
        let ds = crate::test_data::hotel_dataset();
        let d = build(&ds, QuadrantEngine::Baseline);
        for cell in d.grid().cells() {
            // Compare in doubled coordinates so every cell has an exact
            // interior representative.
            let doubled =
                Dataset::from_coords(ds.points().iter().map(|p| (2 * p.x, 2 * p.y))).unwrap();
            let q = d.grid().representative_doubled(cell);
            assert_eq!(
                d.result(cell),
                global_skyline(&doubled, q).as_slice(),
                "cell {cell:?}"
            );
        }
    }

    #[test]
    fn paper_global_result() {
        // For q = (10, 80): {p1, p3, p6, p8, p9, p10, p11}.
        let ds = crate::test_data::hotel_dataset();
        let d = build(&ds, QuadrantEngine::Sweeping);
        assert_eq!(
            d.query(crate::geometry::Point::new(10, 80)),
            global_skyline_naive(&ds, crate::geometry::Point::new(10, 80)).as_slice()
        );
    }

    #[test]
    fn all_engines_agree_on_global() {
        let ds = crate::test_data::lcg_dataset(30, 40, 11);
        let reference = build(&ds, QuadrantEngine::Baseline);
        for engine in QuadrantEngine::ALL {
            assert!(
                build(&ds, engine).same_results(&reference),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn global_contains_quadrant_everywhere() {
        let ds = crate::test_data::lcg_dataset(25, 100, 3);
        let global = build(&ds, QuadrantEngine::Baseline);
        let quadrant = QuadrantEngine::Baseline.build(&ds);
        for cell in global.grid().cells() {
            let g = global.result(cell);
            for id in quadrant.result(cell) {
                assert!(g.contains(id), "quadrant point {id} missing at {cell:?}");
            }
        }
    }

    #[test]
    fn parallel_engine_matches_sequential_reference() {
        for seed in 0..3 {
            let ds = crate::test_data::lcg_dataset(24, 30, seed);
            let reference =
                build_with(&ds, QuadrantEngine::Sweeping, &ParallelConfig::sequential());
            for threads in [1, 2, 3, 8] {
                let parallel_diag = build_with(
                    &ds,
                    QuadrantEngine::Sweeping,
                    &ParallelConfig::with_threads(threads),
                );
                assert!(
                    parallel_diag.same_results(&reference),
                    "threads = {threads}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn banded_parallel_union_matches_sequential_reference() {
        // Enough distinct y-coordinates for several parallel bands, the
        // last one partial.
        let ds = crate::test_data::lcg_dataset(150, 4000, 5);
        let reference = build_with(&ds, QuadrantEngine::Sweeping, &ParallelConfig::sequential());
        let height = reference.grid().ny() as usize + 1;
        assert!(height > 2 * PARALLEL_UNION_BAND && height % PARALLEL_UNION_BAND != 0);
        for threads in [2, 3] {
            let banded = build_with(
                &ds,
                QuadrantEngine::Sweeping,
                &ParallelConfig::with_threads(threads),
            );
            assert_eq!(banded.cell_results(), reference.cell_results());
            assert!(banded.same_results(&reference), "threads = {threads}");
        }
    }

    #[test]
    fn word_boundary_sizes_agree_across_engines() {
        // 63/64/65 points straddle the bitset block boundary; the global
        // union must agree with the baseline on both sides of it.
        for n in [63, 64, 65] {
            let ds = crate::test_data::lcg_dataset(n, 300, 21);
            let reference = build(&ds, QuadrantEngine::Baseline);
            assert!(
                build_with(
                    &ds,
                    QuadrantEngine::Scanning,
                    &ParallelConfig::with_threads(4)
                )
                .same_results(&reference),
                "n = {n}"
            );
        }
    }
}
