//! Merging skyline cells into skyline polyominoes.
//!
//! The paper merges neighboring cells that share a skyline result
//! ("for each skyline cell, we search its upper and right cells and combine
//! those cells if they share the same skyline", `O(n²)` total). With interned
//! results the comparison is a `u32` equality; [`merge`] extracts connected
//! components with a union–find over the grid's 4-adjacency. It is the
//! general merge, for global, subcell and hand-built diagrams.
//!
//! A **quadrant** diagram needs no merge: the region of each distinct result
//! is one polyomino (ALGORITHMS.md §11), so [`quadrant_partition`] numbers
//! polyomino `k` as the region of result `k` and derives the partition in one
//! counting pass and one scatter pass over the cells.
//!
//! [`merge`]'s component collection is a two-pass counting build: one
//! labelling pass assigns dense polyomino ids and per-polyomino cell
//! counts, then a scatter pass places every cell directly into the
//! [`MergedDiagram`] CSR arena — no per-polyomino `Vec` ever exists.

use crate::diagram::cell_diagram::CellDiagram;
use crate::diagram::polyomino::MergedDiagram;
use crate::geometry::conv::{narrow, widen};
use crate::result_set::ResultId;

/// Union–find over linear cell indices.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..narrow(n)).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[widen(x)] != x {
            // Path halving.
            let grand = self.parent[widen(self.parent[widen(x)])];
            self.parent[widen(x)] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[widen(rb)] = ra;
        }
    }
}

/// Merges a cell diagram into its polyomino partition using union–find.
pub fn merge(diagram: &CellDiagram) -> MergedDiagram {
    let grid = diagram.grid();
    let width = widen(grid.nx()) + 1;
    merge_grid(width, diagram.cell_results(), |idx| {
        (narrow(idx % width), narrow(idx / width))
    })
}

/// The polyomino partition of a **quadrant** diagram, derived without a
/// merge: polyomino `k` is the region of result `k`.
///
/// Every result's region of a quadrant diagram is 4-connected (each of its
/// cells reaches the region's corner cell by a monotone path inside the
/// region; ALGORITHMS.md §11), so the partition needs no component search.
/// One counting pass sizes each result's region, and one row-major scatter
/// pass places every cell, so each polyomino's cells come out row-major.
/// Both passes step over each row's runs of equal ids, one cursor update
/// per run. The cell → polyomino map is a copy of the result ids.
///
/// Returns `None` when some interned result labels no cell: such a
/// diagram is not a quadrant diagram as every engine interns it. Only the
/// result ids are read; a diagram whose regions are not connected (a global
/// or hand-built one) must go through [`merge`].
pub fn quadrant_partition(diagram: &CellDiagram) -> Option<MergedDiagram> {
    let cells = diagram.cell_results();
    let width = widen(diagram.grid().nx()) + 1;
    // Pass 1: cells per result, then each result's first slot.
    let mut cursor = vec![0u32; diagram.results().len()];
    for row in cells.chunks_exact(width) {
        for (_, len, rid) in row_runs(row) {
            cursor[widen(rid.0)] += len;
        }
    }
    if cursor.contains(&0) {
        return None;
    }
    let mut start = 0u32;
    for slot in &mut cursor {
        let count = *slot;
        *slot = start;
        start += count;
    }
    // Pass 2: row-major scatter. Each cursor ends at its polyomino's end
    // offset, so it becomes the `ends` table.
    let mut cells_flat = vec![(0u32, 0u32); cells.len()];
    for (row, j) in cells.chunks_exact(width).zip(0u32..) {
        for (first, len, rid) in row_runs(row) {
            let slot = &mut cursor[widen(rid.0)];
            let run = widen(*slot)..widen(*slot + len);
            for (cell, i) in cells_flat[run].iter_mut().zip(first..) {
                *cell = (i, j);
            }
            *slot += len;
        }
    }
    let results = (0..narrow(cursor.len())).map(ResultId).collect();
    let cell_to_polyomino = cells.iter().map(|rid| rid.0).collect();
    Some(MergedDiagram::from_csr(
        results,
        cursor,
        cells_flat,
        cell_to_polyomino,
    ))
}

/// The runs of equal ids in one row, left to right: `(first column,
/// length, id)`.
fn row_runs(row: &[ResultId]) -> impl Iterator<Item = (u32, u32, ResultId)> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let &rid = row.get(start)?;
        let len = row[start..].iter().take_while(|&&r| r == rid).count();
        let run = (narrow(start), narrow(len), rid);
        start += len;
        Some(run)
    })
}

/// Merges a dynamic subcell diagram into its polyomino partition (the
/// paper's Section-V merging step). Subcell indices play the role of cell
/// indices in the output.
pub fn merge_subcells(diagram: &crate::dynamic::SubcellDiagram) -> MergedDiagram {
    let width = widen(diagram.grid().mx()) + 1;
    merge_grid(width, diagram.cell_results(), |idx| {
        (narrow(idx % width), narrow(idx / width))
    })
}

/// Shared union–find merge over any row-major result grid.
fn merge_grid(
    width: usize,
    cells: &[ResultId],
    index_of: impl Fn(usize) -> (u32, u32),
) -> MergedDiagram {
    let height = cells.len() / width;
    debug_assert_eq!(width * height, cells.len());

    let mut uf = UnionFind::new(cells.len());
    for j in 0..height {
        for i in 0..width {
            let idx = j * width + i;
            // Union with the right and upper neighbor when results match —
            // exactly the paper's merging rule.
            if i + 1 < width && cells[idx] == cells[idx + 1] {
                uf.union(narrow(idx), narrow(idx + 1));
            }
            if j + 1 < height && cells[idx] == cells[idx + width] {
                uf.union(narrow(idx), narrow(idx + width));
            }
        }
    }

    collect_components_grid(cells, index_of, |idx| uf.find(narrow(idx)))
}

/// Marks a component representative without a polyomino id yet.
const UNLABELLED: u32 = u32::MAX;

/// Two-pass counting build of the polyomino CSR arena.
///
/// Pass 1 walks cells row-major, assigning each new component the next dense
/// polyomino id and counting its cells. The counts then prefix-sum into the
/// `ends` table, and pass 2 scatters every cell index into its polyomino's
/// slot of the flat cell array via a per-polyomino write cursor. Row-major
/// visit order makes both the polyomino order and the within-polyomino cell
/// order row-major, matching the old per-`Vec` push order exactly.
fn collect_components_grid(
    cells: &[ResultId],
    index_of: impl Fn(usize) -> (u32, u32),
    mut component_of: impl FnMut(usize) -> u32,
) -> MergedDiagram {
    // Representatives are cell indices, so a dense table maps them to
    // polyomino ids.
    let mut poly_index = vec![UNLABELLED; cells.len()];
    let mut results: Vec<ResultId> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut cell_to_polyomino = vec![0u32; cells.len()];

    for (idx, &result) in cells.iter().enumerate() {
        let slot = &mut poly_index[widen(component_of(idx))];
        if *slot == UNLABELLED {
            *slot = narrow(results.len());
            results.push(result);
            counts.push(0);
        }
        let poly = *slot;
        counts[widen(poly)] += 1;
        cell_to_polyomino[idx] = poly;
    }

    // counts -> exclusive end offsets, in place.
    let mut ends = counts;
    let mut running = 0u32;
    for e in ends.iter_mut() {
        running += *e;
        *e = running;
    }

    // Scatter cells into the arena; `cursor[p]` is polyomino p's next slot.
    let mut cursor: Vec<u32> = Vec::with_capacity(ends.len());
    let mut start = 0u32;
    for &e in &ends {
        cursor.push(start);
        start = e;
    }
    let mut cells_flat = vec![(0u32, 0u32); cells.len()];
    for (idx, &poly) in cell_to_polyomino.iter().enumerate() {
        let slot = widen(cursor[widen(poly)]);
        cells_flat[slot] = index_of(idx);
        cursor[widen(poly)] += 1;
    }

    MergedDiagram::from_csr(results, ends, cells_flat, cell_to_polyomino)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{CellGrid, Dataset, PointId};
    use crate::result_set::ResultInterner;

    /// 3x3 cell diagram with an L-shaped region, a separate singleton with
    /// the same result (must NOT merge: not adjacent), and empties.
    fn fixture() -> CellDiagram {
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let grid = CellGrid::new(&ds);
        let mut results = ResultInterner::new();
        let a = results.intern_sorted(vec![PointId(0)]);
        let b = results.intern_sorted(vec![PointId(1)]);
        let e = results.empty();
        // Layout (rows bottom to top):
        //   a a e
        //   a b e
        //   b e e
        let cells = vec![a, a, e, a, b, e, b, e, e];
        CellDiagram::from_parts(grid, results, cells)
    }

    #[test]
    fn union_find_merging() {
        let d = fixture();
        let merged = merge(&d);
        // Components: L-shaped a (3 cells), center b, top-left b, and the
        // e-region (right column + top row, connected around the corner).
        assert_eq!(merged.len(), 4);
        let l_shape = merged
            .iter()
            .find(|p| p.area() == 3 && d.results().get(p.result) == [PointId(0)])
            .expect("L-shaped polyomino");
        assert!(l_shape.is_connected());
        assert_eq!(l_shape.cells, [(0, 0), (1, 0), (0, 1)]);
        // The two b-cells are diagonal, hence distinct polyominoes.
        let b_polys: Vec<_> = merged
            .iter()
            .filter(|p| d.results().get(p.result) == [PointId(1)])
            .collect();
        assert_eq!(b_polys.len(), 2);
        assert!(!merged.is_empty());
    }

    #[test]
    fn quadrant_partition_numbers_polyominoes_by_result() {
        let ds = crate::test_data::hotel_dataset();
        let d = crate::quadrant::QuadrantEngine::Sweeping.build(&ds);
        let derived = quadrant_partition(&d).expect("every quadrant result labels a cell");
        assert_eq!(derived.len(), d.results().len());
        for (k, poly) in derived.iter().enumerate() {
            assert_eq!(poly.result, ResultId(narrow(k)));
        }
        assert_eq!(derived.cell_to_polyomino().len(), d.cell_results().len());
        crate::invariants::validate_merged_cells(&d, &derived).unwrap_or_else(|v| panic!("{v}"));
        // The same regions as the union–find merge, in another order.
        let merged = merge(&d);
        let mut by_result: Vec<_> = merged.iter().collect();
        by_result.sort_by_key(|p| p.result);
        assert_eq!(by_result, derived.iter().collect::<Vec<_>>());
    }

    #[test]
    fn quadrant_partition_refuses_a_result_no_cell_uses() {
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let grid = CellGrid::new(&ds);
        let mut results = ResultInterner::new();
        let a = results.intern_sorted(vec![PointId(0)]);
        let _unused = results.intern_sorted(vec![PointId(1)]);
        let e = results.empty();
        let cells = vec![a, a, e, a, a, e, e, e, e];
        assert!(quadrant_partition(&CellDiagram::from_parts(grid, results, cells)).is_none());
    }

    #[test]
    fn cell_to_polyomino_is_consistent() {
        let d = fixture();
        let merged = merge(&d);
        for (idx, &p) in merged.cell_to_polyomino().iter().enumerate() {
            let poly = merged.polyomino(widen(p));
            assert!(poly.cells.contains(&d.grid().cell_from_linear(idx)));
            assert_eq!(poly.result, d.cell_results()[idx]);
            assert_eq!(merged.polyomino_of_cell(idx).result, d.cell_results()[idx]);
        }
    }

    #[test]
    fn subcell_merging_produces_connected_equal_result_regions() {
        let ds = Dataset::from_coords([(0, 0), (6, 10), (12, 4)]).unwrap();
        let d = crate::dynamic::DynamicEngine::Scanning.build(&ds);
        let merged = merge_subcells(&d);
        let total: usize = merged.iter().map(|p| p.area()).sum();
        assert_eq!(total, d.grid().subcell_count());
        assert!(merged.len() > 1);
        assert!(merged.len() <= d.grid().subcell_count());
        for poly in merged.iter() {
            assert!(poly.is_connected());
            for &sc in poly.cells {
                assert_eq!(d.result_id(sc), poly.result);
            }
        }
        // Maximality across subcell boundaries.
        let width = d.grid().mx() as usize + 1;
        for (idx, &p) in merged.cell_to_polyomino().iter().enumerate() {
            if idx % width + 1 < width {
                let right = merged.cell_to_polyomino()[idx + 1];
                if p != right {
                    assert_ne!(d.cell_results()[idx], d.cell_results()[idx + 1]);
                }
            }
        }
    }

    #[test]
    fn every_polyomino_is_connected_and_cells_partition() {
        let d = fixture();
        let merged = merge(&d);
        let total: usize = merged.iter().map(|p| p.area()).sum();
        assert_eq!(total, d.grid().cell_count());
        for p in merged.iter() {
            assert!(p.is_connected());
        }
    }

    #[test]
    fn single_point_dataset_merges_to_two_polyominoes() {
        // One point -> a 2x2 cell grid: the lower-left cell sees the point,
        // the three remaining cells are empty and form one connected L.
        let ds = Dataset::from_coords([(7, 3)]).unwrap();
        let d = crate::quadrant::QuadrantEngine::Sweeping.build(&ds);
        let merged = merge(&d);
        assert_eq!(merged.len(), 2);
        let occupied = merged
            .iter()
            .find(|p| d.results().get(p.result) == [PointId(0)])
            .expect("the point's own region exists");
        assert_eq!(occupied.cells, [(0, 0)]);
        crate::invariants::validate_merged_cells(&d, &merged).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(quadrant_partition(&d).map(|p| p.len()), Some(2));

        // The dynamic diagram of a single point is everywhere {p0}: one
        // polyomino covering all four subcells.
        let sd = crate::dynamic::DynamicEngine::Scanning.build(&ds);
        let smerged = merge_subcells(&sd);
        assert_eq!(smerged.len(), 1);
        assert_eq!(smerged.polyomino(0).area(), sd.grid().subcell_count());
        crate::invariants::validate_merged_subcells(&sd, &smerged)
            .unwrap_or_else(|v| panic!("{v}"));
    }

    #[test]
    fn fully_tied_coordinates_collapse_to_one_line_per_axis() {
        // Four copies of the same point: the grid degenerates to a single
        // line per axis, ties everywhere. No point dominates an identical
        // copy, so the lower-left cell's skyline is all four ids.
        let ds = Dataset::from_coords([(5, 5); 4]).unwrap();
        let d = crate::quadrant::QuadrantEngine::Sweeping.build(&ds);
        assert_eq!(d.grid().cell_count(), 4);
        let all: Vec<PointId> = (0..4).map(PointId).collect();
        assert_eq!(d.result((0, 0)), all.as_slice());
        let merged = merge(&d);
        // {all four} in the lower-left cell, empty in the other three.
        assert_eq!(merged.len(), 2);
        crate::invariants::validate_merged_cells(&d, &merged).unwrap_or_else(|v| panic!("{v}"));

        // Dynamically all four points are always equidistant, hence always
        // all in the skyline: the merge is a single polyomino.
        let sd = crate::dynamic::DynamicEngine::Baseline.build(&ds);
        let smerged = merge_subcells(&sd);
        assert_eq!(smerged.len(), 1);
        assert_eq!(
            sd.results().get(smerged.polyomino(0).result),
            all.as_slice()
        );
        crate::invariants::validate_merged_subcells(&sd, &smerged)
            .unwrap_or_else(|v| panic!("{v}"));
    }

    #[test]
    fn on_line_queries_locate_the_greater_side_polyomino() {
        // Queries exactly on a grid line (here: exactly at p8 = (13, 83) of
        // the hotel data) resolve to the greater-side cell; the polyomino
        // point-location must agree with both the cell lookup and the
        // open-quadrant from-scratch oracle, which excludes p8 itself.
        let ds = crate::test_data::hotel_dataset();
        let d = crate::quadrant::QuadrantEngine::Sweeping.build(&ds);
        let merged = merge(&d);
        let q = crate::geometry::Point::new(13, 83);
        let cell = d.grid().cell_of(q);
        let poly = merged.polyomino_of_cell(d.grid().linear_index(cell));
        assert_eq!(d.results().get(poly.result), d.query(q));
        assert_eq!(
            d.query(q),
            crate::query::quadrant_skyline(&ds, q).as_slice()
        );
        assert!(
            !d.query(q).contains(&PointId(7)),
            "open quadrant: a point on the query's axis is not in the skyline"
        );
    }
}
