//! The cell-level skyline diagram: one interned result per skyline cell.
//!
//! This is the common output format of the baseline, DSG, and scanning
//! engines for quadrant/global skylines; polyominoes are obtained from it by
//! [`crate::diagram::merge`]. Results are interned (see
//! [`crate::result_set`]) so the dense per-cell array holds one `u32` each.

use crate::geometry::{CellGrid, CellIndex, Point, PointId};
use crate::result_set::{ResultId, ResultInterner};

/// A skyline diagram at cell granularity.
#[derive(Clone, Debug)]
#[must_use]
pub struct CellDiagram {
    grid: CellGrid,
    results: ResultInterner,
    /// Row-major, `grid.cell_count()` entries.
    cells: Vec<ResultId>,
}

impl CellDiagram {
    /// Heap bytes owned by the diagram: grid, result arena, and the
    /// per-cell result-id table.
    pub fn heap_bytes(&self) -> usize {
        self.grid.heap_bytes()
            + self.results.heap_bytes()
            + crate::telemetry::mem::vec_heap_bytes(&self.cells)
    }

    /// Assembles a diagram from its parts. Internal to the crate: engines
    /// construct diagrams, users query them.
    pub(crate) fn from_parts(
        grid: CellGrid,
        results: ResultInterner,
        cells: Vec<ResultId>,
    ) -> Self {
        debug_assert_eq!(cells.len(), grid.cell_count());
        CellDiagram {
            grid,
            results,
            cells,
        }
    }

    /// A copy whose result interner is read-only (no intern lookup table;
    /// see [`ResultInterner::to_readonly`]): what a published snapshot
    /// holds, at a fraction of a full clone's bytes.
    pub fn to_readonly(&self) -> Self {
        CellDiagram {
            grid: self.grid.clone(),
            results: self.results.to_readonly(),
            cells: self.cells.clone(),
        }
    }

    /// Drops the interner's lookup table in place (see
    /// [`Self::to_readonly`]).
    pub fn into_readonly(self) -> Self {
        CellDiagram {
            results: self.results.into_readonly(),
            ..self
        }
    }

    /// The underlying cell grid.
    #[inline]
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// The interned result of a cell.
    #[inline]
    pub fn result_id(&self, cell: CellIndex) -> ResultId {
        self.cells[self.grid.linear_index(cell)]
    }

    /// The skyline result of a cell, as sorted point ids.
    #[inline]
    pub fn result(&self, cell: CellIndex) -> &[PointId] {
        self.results.get(self.result_id(cell))
    }

    /// The skyline result for an arbitrary query point (`O(log n)` point
    /// location). Queries exactly on a grid line get the greater-side cell's
    /// result, consistently with the strict quadrant convention in
    /// [`crate::query`].
    pub fn query(&self, q: Point) -> &[PointId] {
        self.result(self.grid.cell_of(q))
    }

    /// The cell key of a query point: the linear (row-major) index of the
    /// cell containing `q`.
    ///
    /// By the diagram invariant, every query point with the same key has the
    /// identical skyline result, so anything memoized per key is exact. Keys
    /// are dense in `0..grid().cell_count()`.
    #[inline]
    pub fn cell_key(&self, q: Point) -> usize {
        self.grid.linear_index(self.grid.cell_of(q))
    }

    /// The interner holding the distinct results.
    #[inline]
    pub fn results(&self) -> &ResultInterner {
        &self.results
    }

    /// Row-major result ids for all cells.
    #[inline]
    pub fn cell_results(&self) -> &[ResultId] {
        &self.cells
    }

    /// True iff two diagrams assign the same result to every cell (the
    /// cross-validation predicate for the four construction algorithms;
    /// interner ids may differ, contents may not).
    pub fn same_results(&self, other: &CellDiagram) -> bool {
        if self.grid.nx() != other.grid.nx()
            || self.grid.ny() != other.grid.ny()
            || self.grid.x_lines() != other.grid.x_lines()
            || self.grid.y_lines() != other.grid.y_lines()
        {
            return false;
        }
        self.cells
            .iter()
            .zip(&other.cells)
            .all(|(&a, &b)| self.results.get(a) == other.results.get(b))
    }

    /// Summary statistics for the E5 experiment table.
    ///
    /// The computation lives in [`crate::analysis`]: it averages in floating
    /// point, and the diagram layer stays integer-exact (`cargo xtask lint`
    /// rule `no-float`).
    pub fn stats(&self) -> crate::analysis::DiagramStats {
        crate::analysis::diagram_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dataset;

    fn tiny_diagram() -> CellDiagram {
        // Two points -> 3x3 cells; fill with hand-made results.
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let grid = CellGrid::new(&ds);
        let mut results = ResultInterner::new();
        let both = results.intern_sorted(vec![PointId(0), PointId(1)]);
        let one = results.intern_sorted(vec![PointId(1)]);
        let empty = results.empty();
        // Row-major from (0,0): bottom row sees both, middle sees p1, rest empty.
        let cells = vec![both, one, empty, one, one, empty, empty, empty, empty];
        CellDiagram::from_parts(grid, results, cells)
    }

    #[test]
    fn lookup_by_cell_and_query() {
        let d = tiny_diagram();
        assert_eq!(d.result((0, 0)), &[PointId(0), PointId(1)]);
        assert_eq!(d.result((1, 1)), &[PointId(1)]);
        assert_eq!(d.query(Point::new(-5, -5)), &[PointId(0), PointId(1)]);
        assert_eq!(d.query(Point::new(3, 4)), &[PointId(1)]);
        assert!(d.query(Point::new(11, 11)).is_empty());
        assert_eq!(d.cell_results().len(), d.grid().cell_count());
    }

    #[test]
    fn same_results_ignores_interner_ids() {
        let a = tiny_diagram();
        // Rebuild with a different interning order.
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let grid = CellGrid::new(&ds);
        let mut results = ResultInterner::new();
        let one = results.intern_sorted(vec![PointId(1)]);
        let both = results.intern_sorted(vec![PointId(0), PointId(1)]);
        let empty = results.empty();
        let cells = vec![both, one, empty, one, one, empty, empty, empty, empty];
        let b = CellDiagram::from_parts(grid, results, cells);
        assert!(a.same_results(&b));
    }

    #[test]
    fn same_results_detects_differences() {
        let a = tiny_diagram();
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let grid = CellGrid::new(&ds);
        let mut results = ResultInterner::new();
        let both = results.intern_sorted(vec![PointId(0), PointId(1)]);
        let empty = results.empty();
        let cells = vec![both, empty, empty, empty, empty, empty, empty, empty, empty];
        let b = CellDiagram::from_parts(grid, results, cells);
        assert!(!a.same_results(&b));

        // Different grids are never equal.
        let ds2 = Dataset::from_coords([(0, 0), (11, 10)]).unwrap();
        let grid2 = CellGrid::new(&ds2);
        let r2 = ResultInterner::new();
        let e2 = r2.empty();
        let c = CellDiagram::from_parts(grid2, r2.clone(), vec![e2; 9]);
        assert!(!a.same_results(&c));
    }

    #[test]
    fn stats() {
        let d = tiny_diagram();
        let s = d.stats();
        assert_eq!(s.cell_count, 9);
        assert_eq!(s.distinct_results, 3);
        assert_eq!(s.interned_ids, 3); // {p0,p1} + {p1}
        assert_eq!(s.max_result_len, 2);
        assert!((s.avg_result_len - 5.0 / 9.0).abs() < 1e-12);
    }
}
