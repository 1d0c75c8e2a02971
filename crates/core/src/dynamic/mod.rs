//! Skyline-diagram construction for **dynamic** skyline queries
//! (Section V of the paper): three engines with identical output, over the
//! skyline-subcell grid of [`SubcellGrid`].
//!
//! | Engine | Paper § | Complexity | Notes |
//! |---|---|---|---|
//! | [`baseline`] | V-A | `O(n⁵)` | per-subcell map + skyline |
//! | [`subset`] | V-B | `O(n⁵)` worst, ~`O(n⁴ log n)` | candidates from the global diagram |
//! | [`scanning`] | V-C | `O(n⁴·(c·(k + c) + n/64))` | one bitset step per subcell: only the line's `c` contributors are re-checked |
//!
//! `k` is the size of a subcell's dynamic skyline and `c` the number of
//! contributors of the line crossed (2 for a bisector, 1 for a point's own
//! line, more only where lines coincide). All three engines write
//! run-collapsed bitset rows ([`BitRuns`](crate::result_set::BitRuns)) that
//! one [`BitsetInterner`](crate::result_set::BitsetInterner) interns in
//! row-major order, straight into the diagram's sorted-id arena, so their
//! results and ids are identical. The stitch consumes the rows as it goes,
//! so each row's runs are freed as soon as they are interned.

pub mod baseline;
pub mod highd;
pub mod scanning;
mod subcell;
pub mod subset;

pub use subcell::{SubcellGrid, SubcellIndex};

use crate::geometry::{Coord, Dataset, Point, PointId};
use crate::quadrant::QuadrantEngine;
use crate::result_set::{ResultId, ResultInterner};
use crate::skyline::sort_sweep::minima_xy;

/// A dynamic skyline diagram at subcell granularity.
#[derive(Clone, Debug)]
#[must_use]
pub struct SubcellDiagram {
    grid: SubcellGrid,
    results: ResultInterner,
    /// Row-major, `grid.subcell_count()` entries.
    cells: Vec<ResultId>,
}

impl SubcellDiagram {
    /// Heap bytes owned by the diagram: subcell grid, result arena, and
    /// the per-subcell result-id table.
    pub fn heap_bytes(&self) -> usize {
        self.grid.heap_bytes()
            + self.results.heap_bytes()
            + crate::telemetry::mem::vec_heap_bytes(&self.cells)
    }

    /// Reassembles a diagram from raw parts (deserialization path).
    pub(crate) fn from_lines(
        xlines: Vec<Coord>,
        ylines: Vec<Coord>,
        results: ResultInterner,
        cells: Vec<ResultId>,
    ) -> Self {
        SubcellDiagram::from_parts(SubcellGrid::from_lines(xlines, ylines), results, cells)
    }

    pub(crate) fn from_parts(
        grid: SubcellGrid,
        results: ResultInterner,
        cells: Vec<ResultId>,
    ) -> Self {
        debug_assert_eq!(cells.len(), grid.subcell_count());
        SubcellDiagram {
            grid,
            results,
            cells,
        }
    }

    /// Drops the interner's lookup table in place (see
    /// [`ResultInterner::into_readonly`]).
    pub fn into_readonly(self) -> Self {
        SubcellDiagram {
            results: self.results.into_readonly(),
            ..self
        }
    }

    /// The underlying subcell grid.
    #[inline]
    pub fn grid(&self) -> &SubcellGrid {
        &self.grid
    }

    /// The interned result of a subcell.
    #[inline]
    pub fn result_id(&self, sc: SubcellIndex) -> ResultId {
        self.cells[self.grid.linear_index(sc)]
    }

    /// The dynamic skyline of a subcell, as sorted point ids.
    #[inline]
    pub fn result(&self, sc: SubcellIndex) -> &[PointId] {
        self.results.get(self.result_id(sc))
    }

    /// The dynamic skyline for an arbitrary query point (`O(log n)` point
    /// location). Exact for queries strictly inside a subcell; queries
    /// exactly on a subcell line receive the greater-side subcell's result,
    /// which may differ from the on-line answer where bisector comparisons
    /// tie (use [`crate::query::dynamic_skyline`] when that matters).
    pub fn query(&self, q: Point) -> &[PointId] {
        self.result(self.grid.subcell_of(q))
    }

    /// The subcell key of a query point: the linear (row-major) index of
    /// the subcell containing `q`. Every query point with the same key
    /// receives the identical diagram lookup. Keys are dense in
    /// `0..grid().subcell_count()`.
    #[inline]
    pub fn subcell_key(&self, q: Point) -> usize {
        self.grid.linear_index(self.grid.subcell_of(q))
    }

    /// The interner holding the distinct results.
    #[inline]
    pub fn results(&self) -> &ResultInterner {
        &self.results
    }

    /// Row-major result ids of all subcells.
    #[inline]
    pub fn cell_results(&self) -> &[ResultId] {
        &self.cells
    }

    /// True iff two diagrams assign the same result to every subcell.
    pub fn same_results(&self, other: &SubcellDiagram) -> bool {
        self.grid.x_lines() == other.grid.x_lines()
            && self.grid.y_lines() == other.grid.y_lines()
            && self
                .cells
                .iter()
                .zip(&other.cells)
                .all(|(&a, &b)| self.results.get(a) == other.results.get(b))
    }

    /// Number of distinct results across subcells.
    pub fn distinct_results(&self) -> usize {
        let set: std::collections::HashSet<ResultId> = self.cells.iter().copied().collect();
        set.len()
    }
}

/// Selector for the dynamic-diagram engines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DynamicEngine {
    /// Per-subcell map + skyline (paper Algorithm 5).
    Baseline,
    /// Global-skyline candidate subset (paper Algorithm 6).
    Subset,
    /// Incremental bisector scanning (paper Algorithm 7). The default.
    #[default]
    Scanning,
}

impl DynamicEngine {
    /// All engines, for exhaustive cross-validation and benches.
    pub const ALL: [DynamicEngine; 3] = [
        DynamicEngine::Baseline,
        DynamicEngine::Subset,
        DynamicEngine::Scanning,
    ];

    /// Short stable name, used in bench ids and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            DynamicEngine::Baseline => "baseline",
            DynamicEngine::Subset => "subset",
            DynamicEngine::Scanning => "scanning",
        }
    }

    /// Builds the dynamic skyline diagram with this engine. The subset
    /// engine internally builds a global diagram with
    /// [`QuadrantEngine::Sweeping`].
    ///
    /// ```
    /// use skyline_core::dynamic::DynamicEngine;
    /// use skyline_core::geometry::{Dataset, Point, PointId};
    ///
    /// let ds = Dataset::from_coords([(0, 0), (10, 10)])?;
    /// let diagram = DynamicEngine::Scanning.build(&ds);
    /// // Next to the first point, only it is in the dynamic skyline.
    /// assert_eq!(diagram.query(Point::new(1, 1)), &[PointId(0)]);
    /// // Between the two (closer in one axis each), both are.
    /// assert_eq!(diagram.query(Point::new(4, 6)).len(), 2);
    /// # Ok::<(), skyline_core::Error>(())
    /// ```
    pub fn build(self, dataset: &Dataset) -> SubcellDiagram {
        self.build_with(dataset, &crate::parallel::ParallelConfig::from_env())
    }

    /// Builds the dynamic skyline diagram with this engine and an explicit
    /// parallel configuration: subcell rows are independent in all three
    /// engines and run as row bands.
    pub fn build_with(
        self,
        dataset: &Dataset,
        cfg: &crate::parallel::ParallelConfig,
    ) -> SubcellDiagram {
        // Per-engine span names; literal counter key (see `counter!` docs on
        // per-site caching).
        let span_name = match self {
            DynamicEngine::Baseline => "dynamic.build.baseline",
            DynamicEngine::Subset => "dynamic.build.subset",
            DynamicEngine::Scanning => "dynamic.build.scanning",
        };
        let _build = crate::span!(span_name, dataset.len() as u64);
        let _mem = crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::DynamicBuild);
        crate::counter!("dynamic.builds").add(1);
        let diagram = match self {
            DynamicEngine::Baseline => baseline::build_with(dataset, cfg),
            DynamicEngine::Subset => subset::build_with(dataset, QuadrantEngine::Sweeping, cfg),
            DynamicEngine::Scanning => scanning::build_with(dataset, cfg),
        };
        // Debug builds spot-check the output against the from-scratch oracle
        // (see `crate::invariants`); release builds pay nothing.
        #[cfg(debug_assertions)]
        if let Err(violation) = crate::invariants::validate_subcell_diagram(
            dataset,
            &diagram,
            crate::invariants::DEBUG_SAMPLE_BUDGET,
        ) {
            debug_assert!(false, "{} engine: {violation}", self.name());
        }
        diagram
    }
}

/// Dynamic skyline of `candidates` relative to a subcell sample in
/// quadrupled coordinates: minima of `(|4·p.x − s.x|, |4·p.y − s.y|)`,
/// written into the bitset `block` (cleared first). The per-subcell kernel
/// of the baseline and subset engines.
pub(crate) fn dynamic_minima_at_sample(
    dataset: &Dataset,
    candidates: impl IntoIterator<Item = PointId>,
    sample_x4: Point,
    scratch: &mut Vec<(Coord, Coord, PointId)>,
    block: &mut [u64],
) {
    scratch.clear();
    scratch.extend(candidates.into_iter().map(|id| {
        let p = dataset.point(id);
        (
            (4 * p.x - sample_x4.x).abs(),
            (4 * p.y - sample_x4.y).abs(),
            id,
        )
    }));
    block.fill(0);
    for id in minima_xy(scratch) {
        let bit = id.0 as usize;
        block[bit / 64] |= 1u64 << (bit % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            DynamicEngine::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), DynamicEngine::ALL.len());
    }

    #[test]
    fn default_engine_is_scanning() {
        assert_eq!(DynamicEngine::default(), DynamicEngine::Scanning);
    }

    #[test]
    fn all_engines_agree_on_small_data() {
        let ds = crate::test_data::lcg_dataset(12, 30, 5);
        let reference = DynamicEngine::Baseline.build(&ds);
        for engine in DynamicEngine::ALL {
            assert!(
                engine.build(&ds).same_results(&reference),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn paper_dynamic_query_boundary_convention() {
        // q = (10, 80) lies exactly on bisector lines of the hotel
        // reconstruction (e.g. the x-bisector of p4 and p5 and the
        // y-bisector of p6 and p10), so the diagram resolves it to the
        // greater-side subcell: the lookup must equal the from-scratch
        // dynamic skyline of a query nudged by +ε in both axes, computed
        // exactly in quadrupled coordinates (4q + 1).
        let ds = crate::test_data::hotel_dataset();
        let d = DynamicEngine::Scanning.build(&ds);
        let scaled = Dataset::from_coords(ds.points().iter().map(|p| (4 * p.x, 4 * p.y))).unwrap();
        let nudged = crate::query::dynamic_skyline(&scaled, Point::new(41, 321));
        assert_eq!(d.query(Point::new(10, 80)), nudged.as_slice());
        // The exact on-boundary answer is the paper's {p6, p11}, available
        // through the from-scratch query.
        assert_eq!(
            crate::query::dynamic_skyline(&ds, Point::new(10, 80)),
            vec![PointId(5), PointId(10)]
        );
    }
}
