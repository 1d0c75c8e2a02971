//! The skyline-subcell grid for dynamic skylines (Definition 7).
//!
//! For dynamic skylines the grid lines through each point are not enough:
//! the dominance between two points `a`, `b` relative to a query `q` flips
//! when `q` crosses the perpendicular bisector of `a` and `b` in either
//! dimension. Drawing the per-point grid lines *and* the per-pair bisector
//! lines yields `O(n²)` lines per dimension and `O(n⁴)` *skyline subcells*
//! with constant dynamic skyline — `O(min(s², n⁴))` under a bounded domain,
//! because coincident bisectors collapse.
//!
//! # Exact arithmetic
//!
//! All line positions are stored in **doubled** coordinates so the midpoint
//! `(a.x + b.x) / 2` is the exact integer `a.x + b.x`; a point's own line is
//! `2·p.x`. Interior sample points are taken in **quadrupled** coordinates
//! (`2·line ± 1` or `line_left + line_right`), which is why dataset
//! construction bounds raw coordinates at [`MAX_COORD`](crate::geometry::MAX_COORD).

use crate::geometry::{slab_sample_doubled, Coord, Dataset, Point, PointId};
use crate::parallel::{self, ParallelConfig};

/// Index of a skyline subcell: `(x-slab, y-slab)`.
pub type SubcellIndex = (u32, u32);

/// The grid of skyline subcells induced by a dataset.
#[derive(Clone, Debug)]
pub struct SubcellGrid {
    /// Sorted distinct vertical line positions, in doubled coordinates:
    /// `{2·p.x} ∪ {a.x + b.x}`.
    xlines: Vec<Coord>,
    /// Sorted distinct horizontal line positions, in doubled coordinates.
    ylines: Vec<Coord>,
    /// Per vertical line: the points whose pairwise x-relation can flip
    /// there (both members of every pair whose bisector is the line, plus
    /// any point whose own doubled coordinate is the line).
    x_contributors: Contributors,
    /// Per horizontal line: same, for y.
    y_contributors: Contributors,
}

/// The contributor lists of one axis as a CSR arena: line `i`'s sorted ids
/// are `ids[ends[i - 1]..ends[i]]` (`ends[-1]` being 0).
#[derive(Clone, Debug, Default)]
struct Contributors {
    ids: Vec<PointId>,
    ends: Vec<u32>,
}

impl Contributors {
    /// Empty lists for `lines` lines.
    fn empty(lines: usize) -> Self {
        Contributors {
            ids: Vec::new(),
            ends: vec![0; lines],
        }
    }

    fn get(&self, i: u32) -> &[PointId] {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.ids[start..self.ends[i] as usize]
    }

    fn heap_bytes(&self) -> usize {
        use crate::telemetry::mem::vec_heap_bytes;
        vec_heap_bytes(&self.ids) + vec_heap_bytes(&self.ends)
    }
}

/// One axis of the grid: every unordered pair `(a, b)` (including `a = b`,
/// the point's own line `2·a`) yields the line `a + b` with both members as
/// contributors. Sorting the `(line, id)` pairs groups them by line with ids
/// ascending, and deduplication leaves each line's distinct contributors.
fn build_axis(pts: &[(Coord, PointId)]) -> (Vec<Coord>, Contributors) {
    let mut pairs: Vec<(Coord, PointId)> = Vec::with_capacity(pts.len() * (pts.len() + 1));
    for (k, &(a, ida)) in pts.iter().enumerate() {
        for &(b, idb) in &pts[k..] {
            pairs.push((a + b, ida));
            pairs.push((a + b, idb));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut positions: Vec<Coord> = Vec::new();
    let mut contributors = Contributors {
        ids: Vec::with_capacity(pairs.len()),
        ends: Vec::new(),
    };
    for (k, &(pos, id)) in pairs.iter().enumerate() {
        if positions.last() != Some(&pos) {
            positions.push(pos);
        }
        contributors.ids.push(id);
        if !matches!(pairs.get(k + 1), Some(&(next, _)) if next == pos) {
            contributors.ends.push(contributors.ids.len() as u32);
        }
    }
    positions.shrink_to_fit();
    contributors.ends.shrink_to_fit();
    (positions, contributors)
}

impl SubcellGrid {
    /// Heap bytes owned by the grid: the line tables plus both contributor
    /// arenas.
    pub fn heap_bytes(&self) -> usize {
        use crate::telemetry::mem::vec_heap_bytes;
        vec_heap_bytes(&self.xlines)
            + vec_heap_bytes(&self.ylines)
            + self.x_contributors.heap_bytes()
            + self.y_contributors.heap_bytes()
    }

    /// Reassembles a grid from raw line positions (deserialization path).
    /// Contributor lists are left empty: a decoded grid supports point
    /// location and queries, but cannot seed the incremental scanning
    /// engine (which is a construction-time concern only).
    pub(crate) fn from_lines(xlines: Vec<Coord>, ylines: Vec<Coord>) -> Self {
        let x_contributors = Contributors::empty(xlines.len());
        let y_contributors = Contributors::empty(ylines.len());
        SubcellGrid {
            xlines,
            ylines,
            x_contributors,
            y_contributors,
        }
    }

    /// Builds the subcell grid for a dataset: `O(n²)` line positions per
    /// dimension, `O(n² log n)` construction, using the process-wide
    /// parallel configuration (`SKYLINE_THREADS`).
    pub fn new(dataset: &Dataset) -> Self {
        SubcellGrid::new_with(dataset, &ParallelConfig::from_env())
    }

    /// Builds the subcell grid with an explicit parallel configuration: the
    /// two axes are built side by side, with identical output at every
    /// thread count.
    pub fn new_with(dataset: &Dataset, cfg: &ParallelConfig) -> Self {
        let _grid = crate::span!("dynamic.subcell_grid", dataset.len() as u64);
        let xs: Vec<(Coord, PointId)> = dataset.iter().map(|(id, p)| (p.x, id)).collect();
        let ys: Vec<(Coord, PointId)> = dataset.iter().map(|(id, p)| (p.y, id)).collect();
        let ((xlines, x_contributors), (ylines, y_contributors)) =
            parallel::join(cfg, || build_axis(&xs), || build_axis(&ys));
        SubcellGrid {
            xlines,
            ylines,
            x_contributors,
            y_contributors,
        }
    }

    /// Number of distinct vertical lines.
    #[inline]
    pub fn mx(&self) -> u32 {
        self.xlines.len() as u32
    }

    /// Number of distinct horizontal lines.
    #[inline]
    pub fn my(&self) -> u32 {
        self.ylines.len() as u32
    }

    /// Number of subcells: `(mx + 1) * (my + 1)`.
    #[inline]
    pub fn subcell_count(&self) -> usize {
        (self.xlines.len() + 1) * (self.ylines.len() + 1)
    }

    /// The vertical line positions (doubled coordinates).
    #[inline]
    pub fn x_lines(&self) -> &[Coord] {
        &self.xlines
    }

    /// The horizontal line positions (doubled coordinates).
    #[inline]
    pub fn y_lines(&self) -> &[Coord] {
        &self.ylines
    }

    /// Contributors of vertical line `i` (see struct docs).
    #[inline]
    pub fn x_contributors(&self, i: u32) -> &[PointId] {
        self.x_contributors.get(i)
    }

    /// Contributors of horizontal line `j`.
    #[inline]
    pub fn y_contributors(&self, j: u32) -> &[PointId] {
        self.y_contributors.get(j)
    }

    /// The subcell containing a query point (original coordinates). Queries
    /// exactly on a line are assigned to the greater side, mirroring
    /// [`CellGrid::cell_of`](crate::geometry::CellGrid::cell_of).
    pub fn subcell_of(&self, q: Point) -> SubcellIndex {
        let i = self.xlines.partition_point(|&x| x <= 2 * q.x) as u32;
        let j = self.ylines.partition_point(|&y| y <= 2 * q.y) as u32;
        (i, j)
    }

    /// An interior sample of a subcell, in **quadrupled** coordinates.
    /// Comparisons against data points must quadruple them too.
    pub fn sample_x4(&self, (i, j): SubcellIndex) -> Point {
        Point::new(
            slab_sample_doubled(&self.xlines, i),
            slab_sample_doubled(&self.ylines, j),
        )
    }

    /// Row-major linear index of a subcell.
    #[inline]
    pub fn linear_index(&self, (i, j): SubcellIndex) -> usize {
        j as usize * (self.xlines.len() + 1) + i as usize
    }

    /// Inverse of [`SubcellGrid::linear_index`].
    #[inline]
    pub fn subcell_from_linear(&self, idx: usize) -> SubcellIndex {
        let width = self.xlines.len() + 1;
        ((idx % width) as u32, (idx / width) as u32)
    }

    /// Iterates over all subcell indices in row-major order.
    pub fn subcells(&self) -> impl Iterator<Item = SubcellIndex> + '_ {
        let width = self.xlines.len() as u32 + 1;
        let height = self.ylines.len() as u32 + 1;
        (0..height).flat_map(move |j| (0..width).map(move |i| (i, j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_line_counts() {
        // Two points in general position: lines at 2a, a+b, 2b per axis.
        let ds = Dataset::from_coords([(0, 0), (4, 10)]).unwrap();
        let g = SubcellGrid::new(&ds);
        assert_eq!(g.x_lines(), &[0, 4, 8]);
        assert_eq!(g.y_lines(), &[0, 10, 20]);
        assert_eq!(g.subcell_count(), 16);
        assert_eq!(g.mx(), 3);
        assert_eq!(g.my(), 3);
    }

    #[test]
    fn coincident_bisectors_collapse() {
        // Points at x = 0, 2, 4: bisector of (0, 4) coincides with the grid
        // line of 2 (doubled value 4): contributors merge.
        let ds = Dataset::from_coords([(0, 0), (2, 5), (4, 9)]).unwrap();
        let g = SubcellGrid::new(&ds);
        assert_eq!(g.x_lines(), &[0, 2, 4, 6, 8]);
        // Line at doubled 4: own line of p1 (2*2) and bisector of (p0, p2).
        let idx = g.x_lines().iter().position(|&v| v == 4).unwrap() as u32;
        assert_eq!(g.x_contributors(idx), &[PointId(0), PointId(1), PointId(2)]);
    }

    #[test]
    fn contributor_lines_cover_all_pairs() {
        let ds = Dataset::from_coords([(1, 7), (5, 3), (9, 11)]).unwrap();
        let g = SubcellGrid::new(&ds);
        // Every unordered pair's bisector must appear with both members.
        for (a, pa) in ds.iter() {
            for (b, pb) in ds.iter() {
                let pos = pa.x + pb.x;
                let i = g.x_lines().binary_search(&pos).expect("line exists") as u32;
                assert!(g.x_contributors(i).contains(&a));
                assert!(g.x_contributors(i).contains(&b));
            }
        }
    }

    #[test]
    fn subcell_of_boundary_convention() {
        let ds = Dataset::from_coords([(0, 0), (4, 4)]).unwrap();
        let g = SubcellGrid::new(&ds);
        // Lines at doubled {0, 4, 8} = original {0, 2, 4}.
        assert_eq!(g.subcell_of(Point::new(-1, -1)), (0, 0));
        assert_eq!(g.subcell_of(Point::new(0, 0)), (1, 1));
        assert_eq!(g.subcell_of(Point::new(1, 3)), (1, 2));
        assert_eq!(g.subcell_of(Point::new(2, 2)), (2, 2));
        assert_eq!(g.subcell_of(Point::new(5, 5)), (3, 3));
    }

    #[test]
    fn samples_are_strictly_interior() {
        let ds = Dataset::from_coords([(0, 3), (7, 5), (2, 9)]).unwrap();
        let g = SubcellGrid::new(&ds);
        for sc in g.subcells() {
            let s = g.sample_x4(sc);
            let i = g.x_lines().partition_point(|&x| 2 * x < s.x) as u32;
            let j = g.y_lines().partition_point(|&y| 2 * y < s.y) as u32;
            assert_eq!((i, j), sc, "sample {s} of subcell {sc:?}");
            // Never exactly on a line.
            assert!(g.x_lines().iter().all(|&x| 2 * x != s.x));
            assert!(g.y_lines().iter().all(|&y| 2 * y != s.y));
        }
    }

    #[test]
    fn thread_counts_build_identical_grids() {
        let ds = crate::test_data::lcg_dataset(14, 20, 31);
        let reference = SubcellGrid::new_with(&ds, &ParallelConfig::sequential());
        for threads in [1, 2, 3, 8] {
            let g = SubcellGrid::new_with(&ds, &ParallelConfig::with_threads(threads));
            assert_eq!(g.x_lines(), reference.x_lines(), "threads = {threads}");
            assert_eq!(g.y_lines(), reference.y_lines(), "threads = {threads}");
            for i in 0..g.mx() {
                assert_eq!(g.x_contributors(i), reference.x_contributors(i));
            }
            for j in 0..g.my() {
                assert_eq!(g.y_contributors(j), reference.y_contributors(j));
            }
        }
    }

    #[test]
    fn linear_roundtrip() {
        let ds = Dataset::from_coords([(0, 0), (3, 8)]).unwrap();
        let g = SubcellGrid::new(&ds);
        for (k, sc) in g.subcells().enumerate() {
            assert_eq!(g.linear_index(sc), k);
            assert_eq!(g.subcell_from_linear(k), sc);
        }
    }
}
