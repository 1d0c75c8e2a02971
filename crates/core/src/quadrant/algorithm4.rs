//! The paper's Algorithm 4, implemented *literally*: compute the
//! intersection points of the half-open grid-line segments, link each to
//! its left/right and lower/upper neighbors, and walk each polyomino's
//! vertex sequence (Example 5's `g1, g2, g3, g4, g5, g6`).
//!
//! The production sweeping engine ([`crate::quadrant::sweeping`]) uses the
//! equivalent corner-key formulation, which also handles coordinate ties
//! and attaches skyline results. This module exists for fidelity and as a
//! differential check: the `walks_match_boundary_tracer` test asserts that
//! every literal vertex walk equals the boundary loop of the corresponding
//! corner-key polyomino, vertex for vertex.
//!
//! Scope: as in the paper, general position is assumed (pairwise distinct
//! x and pairwise distinct y); [`build`] returns
//! [`Error::RequiresGeneralPosition`] otherwise. Walls replace the paper's
//! `0` boundary: one unit below the minimum coordinate per axis, so
//! negative coordinates work.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::geometry::{Coord, Dataset, Point};

/// One skyline polyomino as a closed vertex walk (counterclockwise; the
/// first vertex is the polyomino's upper-right corner `g₀`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexPolyomino {
    /// The upper-right corner — the intersection point owning the region.
    pub corner: Point,
    /// The boundary vertices, starting at `corner`, not repeating it.
    pub vertices: Vec<Point>,
}

/// Builds every polyomino's vertex walk. `O(n²)` intersection points, each
/// walked once; total work linear in the output size.
pub fn build(dataset: &Dataset) -> Result<Vec<VertexPolyomino>> {
    let points = dataset.points();
    let n = points.len();
    {
        let mut xs: Vec<Coord> = points.iter().map(|p| p.x).collect();
        let mut ys: Vec<Coord> = points.iter().map(|p| p.y).collect();
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        if xs.len() != n || ys.len() != n {
            return Err(Error::RequiresGeneralPosition);
        }
    }

    let wall_x = points
        .iter()
        .map(|p| p.x)
        .min()
        .expect("datasets are never empty")
        - 1;
    let wall_y = points
        .iter()
        .map(|p| p.y)
        .min()
        .expect("datasets are never empty")
        - 1;

    // Intersection lists per line. A point p's horizontal segment spans
    // x ∈ [wall_x, p.x]; a point u's vertical segment spans
    // y ∈ [wall_y, u.y]. They cross iff u.x ≤ p.x and u.y ≥ p.y.
    let mut horizontal: HashMap<Coord, Vec<Coord>> = HashMap::new(); // y -> xs
    let mut vertical: HashMap<Coord, Vec<Coord>> = HashMap::new(); // x -> ys

    for p in points {
        let mut xs: Vec<Coord> = points
            .iter()
            .filter(|u| u.y > p.y && u.x < p.x)
            .map(|u| u.x)
            .collect();
        xs.push(wall_x);
        xs.push(p.x);
        xs.sort_unstable();
        horizontal.insert(p.y, xs);

        let mut ys: Vec<Coord> = points
            .iter()
            .filter(|w| w.y < p.y && w.x > p.x)
            .map(|w| w.y)
            .collect();
        ys.push(wall_y);
        ys.push(p.y);
        ys.sort_unstable();
        vertical.insert(p.x, ys);
    }
    // Wall lines: the horizontal wall crosses every vertical segment, and
    // vice versa.
    {
        let mut xs: Vec<Coord> = points.iter().map(|p| p.x).collect();
        xs.push(wall_x);
        xs.sort_unstable();
        horizontal.insert(wall_y, xs);
        let mut ys: Vec<Coord> = points.iter().map(|p| p.y).collect();
        ys.push(wall_y);
        ys.sort_unstable();
        vertical.insert(wall_x, ys);
    }

    let left_of = |g: Point| -> Point {
        let xs = &horizontal[&g.y];
        let i = xs.binary_search(&g.x).expect("vertex lies on its line");
        Point::new(xs[i - 1], g.y)
    };
    let right_of = |g: Point| -> Point {
        let xs = &horizontal[&g.y];
        let i = xs.binary_search(&g.x).expect("vertex lies on its line");
        Point::new(xs[i + 1], g.y)
    };
    let lower_of = |g: Point| -> Point {
        let ys = &vertical[&g.x];
        let i = ys.binary_search(&g.y).expect("vertex lies on its line");
        Point::new(g.x, ys[i - 1])
    };

    // Every pair (u, p) with u.x ≤ p.x and u.y ≥ p.y (including u = p)
    // produces the intersection (u.x, p.y) — the upper-right corner of
    // exactly one polyomino.
    let mut out = Vec::new();
    for p in points {
        for u in points {
            if u.x > p.x || u.y < p.y {
                continue;
            }
            let g0 = Point::new(u.x, p.y);
            let mut vertices = vec![g0];
            // The paper's walk: left once, then (lower, right) pairs until
            // the right neighbor returns to g0's vertical line.
            let mut g = left_of(g0);
            vertices.push(g);
            loop {
                g = lower_of(g);
                vertices.push(g);
                g = right_of(g);
                if g.x == g0.x {
                    vertices.push(g);
                    break;
                }
                vertices.push(g);
                debug_assert!(g.x < g0.x, "walk must not overshoot its corner");
                debug_assert!(vertices.len() <= 4 * n + 8, "walk must terminate");
            }
            // Degenerate final edge: if the last vertex equals g0 the
            // region is a rectangle whose bottom edge sits on g0's line
            // (cannot happen in general position, but keep the walk
            // well-formed).
            if vertices.last() == Some(&g0) {
                vertices.pop();
            }
            out.push(VertexPolyomino {
                corner: g0,
                vertices,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::boundary::{boundary_loops, signed_area_doubled, ClipBox};
    use crate::diagram::merge::merge;

    fn general_position_dataset(n: usize, seed: u64) -> Dataset {
        // Distinct coordinates per axis: shuffle 0..n for y by a seeded
        // permutation, x = index scaled.
        let mut ys: Vec<i64> = (0..n as i64).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            ys.swap(i, j);
        }
        Dataset::from_coords((0..n).map(|i| (3 * i as i64 + 1, 5 * ys[i] + 2))).unwrap()
    }

    #[test]
    fn rejects_ties() {
        let ds = Dataset::from_coords([(1, 1), (1, 2)]).unwrap();
        assert_eq!(build(&ds), Err(Error::RequiresGeneralPosition));
        let ds = Dataset::from_coords([(1, 2), (3, 2)]).unwrap();
        assert_eq!(build(&ds), Err(Error::RequiresGeneralPosition));
    }

    #[test]
    fn polyomino_count_matches_sweeping() {
        for seed in [1u64, 9, 42] {
            let ds = general_position_dataset(12, seed);
            let literal = build(&ds).unwrap();
            let swept = crate::quadrant::sweeping::build(&ds);
            // Swept polyominoes include exactly one empty-result region
            // (beyond all points); the literal walks cover the rest.
            let nonempty = merge(&swept)
                .iter()
                .filter(|p| !swept.results().get(p.result).is_empty())
                .count();
            assert_eq!(literal.len(), nonempty, "seed {seed}");
        }
    }

    #[test]
    fn walks_match_boundary_tracer() {
        for seed in [3u64, 7] {
            let ds = general_position_dataset(10, seed);
            let literal = build(&ds).unwrap();
            let swept = crate::quadrant::sweeping::build(&ds);
            let merged = merge(&swept);
            let grid = swept.grid();
            let wall_x = ds.points().iter().map(|p| p.x).min().unwrap() - 1;
            let wall_y = ds.points().iter().map(|p| p.y).min().unwrap() - 1;
            let clip = ClipBox {
                x_min: wall_x,
                x_max: grid.x_lines()[grid.nx() as usize - 1] + 1,
                y_min: wall_y,
                y_max: grid.y_lines()[grid.ny() as usize - 1] + 1,
            };
            // Match literal polyominoes to swept ones by upper-right
            // corner: the swept polyomino whose cells' maximal corner is
            // the literal corner.
            for vp in &literal {
                let poly = merged
                    .iter()
                    .find(|poly| {
                        let (_, _, max_i, max_j) = poly.bounding_box();
                        max_i < grid.nx()
                            && max_j < grid.ny()
                            && grid.x_lines()[max_i as usize] == vp.corner.x
                            && grid.y_lines()[max_j as usize] == vp.corner.y
                    })
                    .unwrap_or_else(|| panic!("no swept polyomino for {}", vp.corner));
                let loops = boundary_loops(grid, poly.cells, clip);
                assert_eq!(loops.len(), 1, "polyominoes have no holes");
                let mut a = vp.vertices.clone();
                let mut b = loops[0].clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "corner {} (seed {seed})", vp.corner);
            }
        }
    }

    #[test]
    fn paper_example5_shape() {
        // Example 5's shape: the polyomino with upper-right corner at the
        // intersection of u = (20, 40)'s vertical line and p = (40, 20)'s
        // horizontal line is interrupted by w = (10, 10)'s half-open
        // segments, producing the six-vertex staircase
        // g1..g6 = (20,20), (9,20), (9,10), (10,10), (10,9), (20,9).
        let ds = Dataset::from_coords([(20, 40), (40, 20), (10, 10)]).unwrap();
        let walks = build(&ds).unwrap();
        let stair = walks
            .iter()
            .find(|w| w.corner == Point::new(20, 20))
            .unwrap();
        assert_eq!(
            stair.vertices,
            vec![
                Point::new(20, 20),
                Point::new(9, 20),
                Point::new(9, 10),
                Point::new(10, 10),
                Point::new(10, 9),
                Point::new(20, 9),
            ]
        );
        assert!(signed_area_doubled(&stair.vertices) > 0, "walks are CCW");
        // An uninterrupted corner stays a rectangle.
        let rect = walks
            .iter()
            .find(|w| w.corner == Point::new(10, 10))
            .unwrap();
        assert_eq!(rect.vertices.len(), 4);
    }

    #[test]
    fn total_area_covers_everything_below_the_staircase() {
        // The literal polyominoes tile the region below/left of the
        // half-open segments; together with the outer empty region they
        // tile the clip box, so their total area equals the clip box area
        // minus the outer region's.
        let ds = general_position_dataset(8, 5);
        let walks = build(&ds).unwrap();
        let total: i64 = walks.iter().map(|w| signed_area_doubled(&w.vertices)).sum();
        assert!(total > 0);
        // Cross-check against the swept diagram's nonempty-cell area in
        // the same wall-based clip.
        let swept = crate::quadrant::sweeping::build(&ds);
        let merged = merge(&swept);
        let grid = swept.grid();
        let wall_x = ds.points().iter().map(|p| p.x).min().unwrap() - 1;
        let wall_y = ds.points().iter().map(|p| p.y).min().unwrap() - 1;
        let clip = ClipBox {
            x_min: wall_x,
            x_max: grid.x_lines()[grid.nx() as usize - 1] + 1,
            y_min: wall_y,
            y_max: grid.y_lines()[grid.ny() as usize - 1] + 1,
        };
        let mut swept_total = 0i64;
        for poly in merged.iter() {
            if swept.results().get(poly.result).is_empty() {
                continue;
            }
            for walk in boundary_loops(grid, poly.cells, clip) {
                swept_total += signed_area_doubled(&walk);
            }
        }
        assert_eq!(total, swept_total);
    }
}
