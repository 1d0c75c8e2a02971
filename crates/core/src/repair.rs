//! Local repair: the diagrams of a dataset after one update, computed from
//! the diagrams before it, touching only the cells the update changes.
//!
//! A build costs `O(n²)` cells (`O(n²)` per orthant for the global
//! diagram), but one insert or remove changes a few percent of them. This
//! module applies an [`Update`] to a quadrant diagram and, optionally, a
//! global diagram, and returns diagrams **id-for-id equal** to a fresh
//! build over the updated dataset (sweeping engine, same point order).
//! [`crate::index::SkylineIndexBuilder::repair`] wraps it for whole
//! indexes; the serving layer publishes small update batches through it.
//!
//! # Ids
//!
//! An insert appends the point as id `n`. A remove is order-preserving:
//! ids above the removed one shift down by one. Both maps are monotone, so
//! a sorted result stays sorted under them.
//!
//! # The grid
//!
//! The new grid is built with [`CellGrid::new`]. It gains or loses at most
//! one line per axis: a line that another point shares neither appears nor
//! vanishes. New slab `i'` maps to the old slab `i` holding it,
//! `i = #{old lines < xs'[i']}` (the last slab maps to the last). For every
//! old point `q`, `q.x ≥ xs'[i']` iff `q.x ≥ xs[i]`, because `xs[i]` is the
//! smallest old line at or right of `xs'[i']`. So in every orthant the new
//! cell's point set is the mapped old cell's, plus `p` (insert) or minus
//! `p` (remove). When a removal makes a line vanish, the mapped old cell is
//! the one on the greater side, and `p`'s orthant is taken relative to it.
//!
//! # The two rules
//!
//! Write `a ≺ b` for "`a` dominates `b`": `≤` in both coordinates and `<`
//! in at least one, so exact duplicates never dominate each other. In
//! orthant `k` the coordinates are reflected onto the first quadrant first
//! (`≺ₖ`). Let `O` be a cell's point set in the orthant holding `p`, and
//! `R = minima(O)` its result there.
//!
//! **Insert `p`.** `minima(O ∪ {p}) = {r ∈ R : ¬(p ≺ r)} ∪ {p}` when no
//! `r ∈ R` dominates `p`, and `R` otherwise. A point of `O` that dominates
//! `p` is in `R` or dominated by a member of `R`, which then dominates `p`
//! too, so testing `R` suffices; and when a member of `R` dominates `p`,
//! `p` dominates no member of `R` (two members would be comparable). Every
//! point `p` dominates lies in the orthant too (it is farther from the
//! cell than `p`), so the filter may run over the whole global result.
//!
//! **Remove `p`.** Only cells whose result holds `p` change. Let
//! `M = minima{r : p ≺ r}`, one set per orthant for the whole update. Then
//! `minima(O ∖ {p}) = S ∪ {m ∈ M : no s ∈ S has s ≺ m}` with `S = R ∖ {p}`.
//! (⊇) `S` stays undominated. Suppose `q ∈ O ∖ {p}` dominates a kept `m`.
//! If `p ≺ q`, `m` was not minimal in `{r : p ≺ r}`. Otherwise some member
//! of `R` is or dominates `q`, it is not `p`, so it is in `S` and dominates
//! `m`: excluded. (⊆) A minimum `x` of `O ∖ {p}` outside `R` is dominated
//! in `O` by members of `R`, and only by `p`; so `p ≺ x`, and `x` is
//! minimal in `{r : p ≺ r} ⊆ O ∖ {p}`, so `x ∈ M`. Ties: a duplicate of `p`
//! is in `S` whenever `p` is in `R`, and it dominates all of `M`, so the
//! result is just `S`. For the global diagram, `S` is the part of the
//! cell's result in `p`'s orthant: a result point of another orthant may
//! dominate `m` in reflected coordinates without being in `O`.
//!
//! The test against `S` is one pass. Every `s ∈ S` is incomparable to `p`
//! (or a duplicate), so `s.x ≤ p.x` forces `s.y ≥ p.y`, and `s.x > p.x`
//! forces `s.y < p.y`. Every `m ∈ M` has `m.x ≥ p.x` and `m.y ≥ p.y`, and
//! no `s` shares `m`'s coordinates (`p ≺ s` would follow). So an `s` left
//! of or at `p` dominates `m` iff `s.y ≤ m.y`, and one right of `p` iff
//! `s.x ≤ m.x`: `m` is kept iff `m.y` is below the lowest `y` on the left
//! and `m.x` below the leftmost `x` on the right.
//!
//! # Which cells change
//!
//! In orthant `k`, a cell changes iff `p` is in its orthant and no point of
//! that orthant dominates `p` (for a removal: iff its result holds `p`).
//! A dominator `r ≺ₖ p` covers every cell that has `r` in the same orthant,
//! a rectangle reaching out from `p`'s lines. So per grid row the changed
//! cells are one interval on each side of `p`'s column, bounded by the
//! nearest dominator's column: a staircase per orthant, computed from the
//! points that dominate `p`. Only the staircase is scanned; every other
//! cell keeps its result and only its id is renumbered.
//!
//! # Numbering
//!
//! The quadrant diagram numbers results by corner key, as the sweeping
//! engine does ([`crate::quadrant::sweeping`]): the corner DP runs on the
//! new grid, and each id's content is read at its corner cell. The global
//! diagram numbers by first occurrence in row-major order, with the empty
//! set as id 0. After a remove, a repaired global result no longer holds
//! `p` and can equal an untouched one; an untouched result is compared by
//! content when a cheap signature (length, first, middle and last id) hits
//! a bit filter of the repaired ones. Inserted results hold `p`, so they
//! cannot collide.

use std::ops::Range;

use crate::diagram::CellDiagram;
use crate::geometry::{CellGrid, Coord, Dataset, Point, PointId};
use crate::quadrant::sweeping::Corners;
use crate::result_set::{ResultId, ResultInterner};
use crate::skyline::sort_sweep::minima_xy;

/// One change to a dataset's point list, applied in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Appends a point; it takes the next id.
    Insert(Point),
    /// Removes the point with this id; higher ids shift down by one.
    Remove(PointId),
}

/// A dataset with its repaired diagrams.
pub(crate) struct Repaired {
    /// The dataset after the update.
    pub(crate) dataset: Dataset,
    /// Its quadrant diagram, numbered as the sweeping engine numbers it.
    pub(crate) quadrant: CellDiagram,
    /// Its global diagram, when one was repaired.
    pub(crate) global: Option<CellDiagram>,
}

/// Applies `update` to `dataset` and repairs its diagrams: `quadrant` and
/// `global` (if given) must be its quadrant and global diagrams, numbered
/// any way with the empty result as id 0. Returns `None` when the update
/// would leave the dataset empty or holds an invalid point.
///
/// # Panics
/// If a removed id is out of range.
pub(crate) fn apply(
    dataset: &Dataset,
    quadrant: &CellDiagram,
    global: Option<&CellDiagram>,
    update: Update,
) -> Option<Repaired> {
    let mut points = dataset.points().to_vec();
    match update {
        Update::Insert(p) => points.push(p),
        Update::Remove(id) => {
            points.remove(id.index());
        }
    }
    let next = Dataset::new(points).ok()?;
    let grid_span = crate::span!("repair.grid");
    let grid = CellGrid::new(&next);
    let map = SlabMap::new(quadrant.grid(), &grid);
    let change = match update {
        Update::Insert(_) => Change::insert(&next, &grid),
        Update::Remove(id) => Change::remove(dataset, quadrant.grid(), id),
    };
    drop(grid_span);
    let repaired_global = global.map(|old| {
        let _global = crate::span!("repair.global");
        repair_global(&change, old, grid.clone(), &map)
    });
    let repaired_quadrant = {
        let _quadrant = crate::span!("repair.quadrant");
        repair_quadrant(&change, quadrant, &next, grid.clone(), &map)
    };
    #[cfg(debug_assertions)]
    for (diagram, semantics) in [
        (
            Some(&repaired_quadrant),
            crate::invariants::CellSemantics::Quadrant,
        ),
        (
            repaired_global.as_ref(),
            crate::invariants::CellSemantics::Global,
        ),
    ] {
        if let Some(diagram) = diagram {
            if let Err(violation) = crate::invariants::validate_cell_diagram(
                &next,
                diagram,
                semantics,
                crate::invariants::DEBUG_SAMPLE_BUDGET,
            ) {
                debug_assert!(false, "repaired diagram: {violation}");
            }
        }
    }
    Some(Repaired {
        dataset: next,
        quadrant: repaired_quadrant,
        global: repaired_global,
    })
}

/// The orthants as `(flip_x, flip_y)` reflections onto the first, in the
/// global engine's order: Q1, Q2, Q3, Q4.
const ORTHANTS: [(bool, bool); 4] = [(false, false), (true, false), (true, true), (false, true)];

/// `p` reflected onto the first quadrant from orthant `k`.
fn reflect(p: Point, k: usize) -> (Coord, Coord) {
    let (flip_x, flip_y) = ORTHANTS[k];
    (
        if flip_x { -p.x } else { p.x },
        if flip_y { -p.y } else { p.y },
    )
}

/// `a ≺ₖ b`: dominance in orthant `k`'s reflected coordinates.
fn dominates_in(k: usize, a: Point, b: Point) -> bool {
    let ((ax, ay), (bx, by)) = (reflect(a, k), reflect(b, k));
    ax <= bx && ay <= by && (ax < bx || ay < by)
}

/// The orthant of a point with ranks `(rx, ry)` seen from cell `(i, j)`.
fn orthant_of(rx: u32, ry: u32, (i, j): (u32, u32)) -> usize {
    match (rx >= i, ry >= j) {
        (true, true) => 0,
        (false, true) => 1,
        (false, false) => 2,
        (true, false) => 3,
    }
}

/// New slab → old slab, per axis (see the module docs).
struct SlabMap {
    x: Vec<u32>,
    y: Vec<u32>,
}

impl SlabMap {
    fn new(old: &CellGrid, new: &CellGrid) -> SlabMap {
        let axis = |old: &[Coord], new: &[Coord]| -> Vec<u32> {
            new.iter()
                .map(|&line| old.partition_point(|&o| o < line) as u32)
                .chain(std::iter::once(old.len() as u32))
                .collect()
        };
        SlabMap {
            x: axis(old.x_lines(), new.x_lines()),
            y: axis(old.y_lines(), new.y_lines()),
        }
    }
}

/// One update, seen from its *frame*: the grid and dataset that hold `p`
/// (the new ones for an insert, the old ones for a remove). The staircase
/// of changed cells is drawn in frame cells.
struct Change<'a> {
    insert: bool,
    /// The dataset that holds `p`, in frame ids.
    frame: &'a Dataset,
    /// The frame grid.
    grid: &'a CellGrid,
    p: Point,
    /// `p`'s frame id: `n` for an insert, the removed id for a remove.
    pid: PointId,
    px: u32,
    py: u32,
    /// Per frame row: the first changed column left of and at `px`
    /// (`px + 1` when none).
    lo: Vec<u32>,
    /// Per frame row: the last changed column right of `px` (`px` when
    /// none).
    hi: Vec<u32>,
    /// Per frame point: bit `k` is set iff `p` dominates it in orthant `k`.
    dominated: Vec<u8>,
    /// Removals: `M` per orthant (old ids, sorted) as CSR over `exposed`.
    exposed: Vec<PointId>,
    exposed_ends: [usize; 4],
}

impl<'a> Change<'a> {
    /// An insert of the last point of `next`, framed in `grid`, its grid.
    fn insert(next: &'a Dataset, grid: &'a CellGrid) -> Change<'a> {
        let pid = PointId(next.len() as u32 - 1);
        Change::framed(true, next, grid, pid)
    }

    /// A removal of `pid` from `old`, framed in `grid`, its grid. Computes
    /// `M` per orthant.
    fn remove(old: &'a Dataset, grid: &'a CellGrid, pid: PointId) -> Change<'a> {
        let mut change = Change::framed(false, old, grid, pid);
        let mut scratch: Vec<(Coord, Coord, PointId)> = Vec::new();
        for k in 0..4 {
            scratch.clear();
            scratch.extend(
                old.iter()
                    .filter(|(id, _)| change.dominated[id.index()] & (1 << k) != 0)
                    .map(|(id, r)| {
                        let (x, y) = reflect(r, k);
                        (x, y, id)
                    }),
            );
            change.exposed.extend(minima_xy(&mut scratch));
            change.exposed_ends[k] = change.exposed.len();
        }
        change
    }

    /// The staircase of `pid` in `grid`: every other point that dominates
    /// `pid` in some orthant bounds the changed columns of the rows that
    /// see it in that orthant.
    fn framed(insert: bool, frame: &'a Dataset, grid: &'a CellGrid, pid: PointId) -> Change<'a> {
        let p = frame.point(pid);
        let (px, py) = (grid.xrank(pid), grid.yrank(pid));
        let nx = grid.nx();
        let rows = grid.ny() as usize + 1;
        // Per y rank of a dominator: the bound it puts on the rows above
        // `p` that see it (rows `j ≤ ry`), and on the rows below (`j > ry`).
        let mut up_lo = vec![0u32; rows];
        let mut up_hi = vec![nx; rows];
        let mut down_lo = vec![0u32; rows];
        let mut down_hi = vec![nx; rows];
        let mut dominated = vec![0u8; frame.len()];
        for (id, r) in frame.iter() {
            if id == pid {
                continue;
            }
            dominated[id.index()] =
                (0..4).fold(0, |bits, k| bits | u8::from(dominates_in(k, p, r)) << k);
            let (rx, ry) = (grid.xrank(id), grid.yrank(id) as usize);
            if dominates_in(0, r, p) {
                up_lo[ry] = up_lo[ry].max(rx + 1);
            }
            if dominates_in(1, r, p) {
                up_hi[ry] = up_hi[ry].min(rx);
            }
            if dominates_in(2, r, p) {
                down_hi[ry] = down_hi[ry].min(rx);
            }
            if dominates_in(3, r, p) {
                down_lo[ry] = down_lo[ry].max(rx + 1);
            }
        }
        let mut lo = vec![0u32; rows];
        let mut hi = vec![nx; rows];
        let (mut left, mut right) = (0u32, nx);
        for j in (0..=py as usize).rev() {
            left = left.max(up_lo[j]);
            right = right.min(up_hi[j]);
            lo[j] = left;
            hi[j] = right;
        }
        let (mut left, mut right) = (0u32, nx);
        for j in py as usize + 1..rows {
            left = left.max(down_lo[j - 1]);
            right = right.min(down_hi[j - 1]);
            lo[j] = left;
            hi[j] = right;
        }
        Change {
            insert,
            frame,
            grid,
            p,
            pid,
            px,
            py,
            lo,
            hi,
            dominated,
            exposed: Vec::new(),
            exposed_ends: [0; 4],
        }
    }

    /// The frame cell of new cell `(i, j)`.
    fn frame_cell(&self, map: &SlabMap, i: usize, j: usize) -> (u32, u32) {
        if self.insert {
            (i as u32, j as u32)
        } else {
            (map.x[i], map.y[j])
        }
    }

    /// Whether frame cell `(i, j)` changes in orthant 0, the quadrant
    /// diagram's.
    fn changes_quadrant(&self, (i, j): (u32, u32)) -> bool {
        j <= self.py && (self.lo[j as usize]..=self.px).contains(&i)
    }

    /// The new-grid columns of row `j` that change: one range per side of
    /// `p`'s column, with its orthant.
    fn row_spans(&self, map: &SlabMap, j: usize) -> [(Range<usize>, usize); 2] {
        let fj = if self.insert { j as u32 } else { map.y[j] };
        let row = fj as usize;
        let above = fj <= self.py;
        let (left, right) = ((self.lo[row], self.px), (self.px + 1, self.hi[row]));
        // New columns whose frame column lies in `first..=last`.
        let span = |(first, last): (u32, u32)| -> Range<usize> {
            if first > last {
                0..0
            } else if self.insert {
                first as usize..last as usize + 1
            } else {
                map.x.partition_point(|&x| x < first)..map.x.partition_point(|&x| x <= last)
            }
        };
        [
            (span(left), if above { 0 } else { 3 }),
            (span(right), if above { 1 } else { 2 }),
        ]
    }

    /// A new id for an old one (monotone).
    fn remap(&self, id: PointId) -> PointId {
        if !self.insert && id > self.pid {
            PointId(id.0 - 1)
        } else {
            id
        }
    }

    /// Appends the repaired result of one changed cell, in new ids, to
    /// `out`. `old` is the cell's old result and `k` the orthant holding
    /// `p`. A removal needs the members of `old` in that orthant: all of
    /// them when `cell` is `None` (a quadrant result), else those in
    /// orthant `k` of frame cell `cell`.
    fn repair_into(
        &self,
        old: &[PointId],
        k: usize,
        cell: Option<(u32, u32)>,
        out: &mut Vec<PointId>,
    ) {
        let bit = 1u8 << k;
        if self.insert {
            out.extend(
                old.iter()
                    .copied()
                    .filter(|r| self.dominated[r.index()] & bit == 0),
            );
            out.push(self.pid);
            return;
        }
        debug_assert!(
            old.binary_search(&self.pid).is_ok(),
            "a changed cell holds p"
        );
        // Only two members of `S` can dominate a point of `M`: the lowest
        // of those at or left of `p` and the leftmost of those right of it
        // (module docs).
        let (px, _) = reflect(self.p, k);
        let (mut left_y, mut right_x) = (Coord::MAX, Coord::MAX);
        for &s in old {
            let outside = cell
                .is_some_and(|cell| orthant_of(self.grid.xrank(s), self.grid.yrank(s), cell) != k);
            if s == self.pid || outside {
                continue;
            }
            let (sx, sy) = reflect(self.frame.point(s), k);
            if sx <= px {
                left_y = left_y.min(sy);
            } else {
                right_x = right_x.min(sx);
            }
        }
        // Merge `old ∖ {p}` with the kept points of `M`; both are sorted by
        // id and never share one.
        let first = if k == 0 { 0 } else { self.exposed_ends[k - 1] };
        let mut exposed = self.exposed[first..self.exposed_ends[k]]
            .iter()
            .copied()
            .filter(|&m| {
                let (mx, my) = reflect(self.frame.point(m), k);
                my < left_y && mx < right_x
            })
            .peekable();
        for &s in old {
            if s == self.pid {
                continue;
            }
            while let Some(m) = exposed.next_if(|&m| m < s) {
                out.push(self.remap(m));
            }
            out.push(self.remap(s));
        }
        out.extend(exposed.map(|m| self.remap(m)));
    }
}

/// Appends old results to a new arena, coalescing consecutive old ids into
/// one copy and remapping the copied ids.
struct RunCopier<'a> {
    change: &'a Change<'a>,
    old: &'a ResultInterner,
    /// Old arena range queued for the next copy.
    pending: Range<usize>,
}

impl<'a> RunCopier<'a> {
    fn new(change: &'a Change<'a>, old: &'a ResultInterner) -> Self {
        RunCopier {
            change,
            old,
            pending: 0..0,
        }
    }

    /// The old arena range of result `id`.
    fn range(&self, id: ResultId) -> Range<usize> {
        let k = id.0 as usize;
        let ends = self.old.ends();
        let start = if k == 0 { 0 } else { ends[k - 1] as usize };
        start..ends[k] as usize
    }

    /// Queues old result `id`; returns the arena length once it is copied.
    fn push(&mut self, id: ResultId, flat: &mut Vec<PointId>) -> u32 {
        let range = self.range(id);
        if range.start != self.pending.end {
            self.flush(flat);
            self.pending = range.start..range.start;
        }
        self.pending.end = range.end;
        (flat.len() + self.pending.len()) as u32
    }

    /// Copies the queued range.
    fn flush(&mut self, flat: &mut Vec<PointId>) {
        let ids = &self.old.flat_ids()[self.pending.clone()];
        if self.change.insert {
            flat.extend_from_slice(ids);
        } else {
            let removed = self.change.pid.0;
            flat.extend(
                ids.iter()
                    .map(|id| PointId(id.0 - u32::from(id.0 > removed))),
            );
        }
        self.pending = 0..0;
    }
}

/// The repaired quadrant diagram, numbered by corner key.
fn repair_quadrant(
    change: &Change<'_>,
    old: &CellDiagram,
    next: &Dataset,
    grid: CellGrid,
    map: &SlabMap,
) -> CellDiagram {
    let corners = Corners::new(next, &grid);
    let old_width = old.grid().nx() as usize + 1;
    let (old_cells, old_results) = (old.cell_results(), old.results());
    // Changed contents, memoized per old id as their range in the new
    // arena: the quadrant result is all of orthant 0, so the rule does not
    // depend on the cell.
    let mut memo: Vec<(u32, u32)> = vec![(0, 0); old_results.len()];
    let mut flat: Vec<PointId> = Vec::with_capacity(old_results.total_ids() + old_results.len());
    let mut ends: Vec<u32> = Vec::with_capacity(corners.len() + 1);
    ends.push(0);
    let mut copier = RunCopier::new(change, old_results);
    for (rx, ry) in corners.in_order() {
        let (i, j) = (rx as usize, ry as usize);
        let id = old_cells[map.y[j] as usize * old_width + map.x[i] as usize];
        let end = if change.changes_quadrant(change.frame_cell(map, i, j)) {
            copier.flush(&mut flat);
            let (start, end) = memo[id.0 as usize];
            if start < end {
                flat.extend_from_within(start as usize..end as usize);
            } else {
                let start = flat.len() as u32;
                change.repair_into(old_results.get(id), 0, None, &mut flat);
                memo[id.0 as usize] = (start, flat.len() as u32);
            }
            flat.len() as u32
        } else {
            copier.push(id, &mut flat)
        };
        ends.push(end);
    }
    copier.flush(&mut flat);
    // The cells that changed: orthant 0's side of the staircase.
    let changed: usize = (0..grid.ny() as usize + 1)
        .map(|j| match change.row_spans(map, j) {
            [(span, 0), _] => span.len(),
            _ => 0,
        })
        .sum();
    crate::counter!("repair.cells_changed").add(changed as u64);
    let results = ResultInterner::from_valid_runs(flat, ends);
    let cells = corners.into_cells();
    CellDiagram::from_parts(grid, results, cells)
}

/// A bit filter over cheap signatures of the repaired results — length and
/// the first, middle and last ids — so that an untouched result is compared
/// with them in full only when its signature's bit is set.
struct SignatureFilter {
    bits: Vec<u64>,
    /// `log2` of the number of bits.
    shift: u32,
}

impl SignatureFilter {
    /// A filter sized for `count` signatures, about 16 bits each.
    fn new(count: usize) -> Self {
        let len = (count * 16).next_power_of_two().max(1024);
        SignatureFilter {
            bits: vec![0; len / 64],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The bit of `ids`' signature, read through the id map `map`.
    fn bit(&self, ids: &[PointId], map: impl Fn(PointId) -> PointId) -> usize {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = (ids.len() as u64).wrapping_mul(K);
        if let (Some(&first), Some(&last)) = (ids.first(), ids.last()) {
            for id in [first, ids[ids.len() / 2], last] {
                h = (h ^ u64::from(map(id).0)).wrapping_mul(K);
            }
        }
        (h >> self.shift) as usize
    }

    fn insert(&mut self, ids: &[PointId], map: impl Fn(PointId) -> PointId) {
        let bit = self.bit(ids, map);
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    fn contains(&self, ids: &[PointId], map: impl Fn(PointId) -> PointId) -> bool {
        let bit = self.bit(ids, map);
        self.bits[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// Marks a repaired (not old) source in the global numbering.
const REPAIRED: u32 = 1 << 31;

/// The repaired global diagram, numbered by first row-major occurrence.
fn repair_global(
    change: &Change<'_>,
    old: &CellDiagram,
    grid: CellGrid,
    map: &SlabMap,
) -> CellDiagram {
    let width = grid.nx() as usize + 1;
    let height = grid.ny() as usize + 1;
    let old_width = old.grid().nx() as usize + 1;
    let (old_cells, old_results) = (old.cell_results(), old.results());

    // Pass 1: repair the staircase cells, row-major, into a deduplicating
    // scratch interner. Inserted contents depend only on (old id, orthant);
    // removals also on which result points share `p`'s orthant, so they are
    // repaired per cell.
    let mut scratch = ResultInterner::new();
    let mut staircase: Vec<u32> = Vec::new();
    let mut memo = if change.insert {
        vec![u32::MAX; 4 * old_results.len()]
    } else {
        Vec::new()
    };
    let mut buffer: Vec<PointId> = Vec::new();
    for j in 0..height {
        let old_row = &old_cells[map.y[j] as usize * old_width..][..old_width];
        for (span, k) in change.row_spans(map, j) {
            for i in span {
                let id = old_row[map.x[i] as usize];
                let scratch_id = if change.insert {
                    let slot = &mut memo[4 * id.0 as usize + k];
                    if *slot == u32::MAX {
                        buffer.clear();
                        change.repair_into(old_results.get(id), k, None, &mut buffer);
                        *slot = scratch.intern_slice(&buffer).0;
                    }
                    *slot
                } else {
                    buffer.clear();
                    let frame = change.frame_cell(map, i, j);
                    change.repair_into(old_results.get(id), k, Some(frame), &mut buffer);
                    scratch.intern_slice(&buffer).0
                };
                staircase.push(scratch_id);
            }
        }
    }
    crate::counter!("repair.cells_changed").add(staircase.len() as u64);

    // Repaired contents by signature, for the removal collision check.
    let mut twins = SignatureFilter::new(if change.insert { 0 } else { scratch.len() });
    if !change.insert {
        for (_, ids) in scratch.iter() {
            twins.insert(ids, |id| id);
        }
    }

    // Pass 2: number every cell by first row-major occurrence. `sources`
    // lists each new id's content: an old id, or a scratch id | REPAIRED.
    let mut old_to_new = vec![u32::MAX; old_results.len()];
    let mut scratch_to_new = vec![u32::MAX; scratch.len()];
    old_to_new[0] = 0;
    scratch_to_new[0] = 0;
    let mut sources: Vec<u32> = vec![0];
    let mut cells: Vec<ResultId> = Vec::with_capacity(width * height);
    let mut staircase = staircase.into_iter();
    let mut remapped: Vec<PointId> = Vec::new();
    for j in 0..height {
        let old_row = &old_cells[map.y[j] as usize * old_width..][..old_width];
        let spans = change.row_spans(map, j);
        for i in 0..width {
            let repaired = spans.iter().any(|(span, _)| span.contains(&i));
            let new_id = if repaired {
                let s = staircase
                    .next()
                    .expect("pass 1 repaired every staircase cell")
                    as usize;
                if scratch_to_new[s] == u32::MAX {
                    scratch_to_new[s] = sources.len() as u32;
                    sources.push(s as u32 | REPAIRED);
                }
                scratch_to_new[s]
            } else {
                let id = old_row[map.x[i] as usize];
                let slot = old_to_new[id.0 as usize];
                if slot != u32::MAX {
                    slot
                } else {
                    let ids = old_results.get(id);
                    // A removal's repaired result may equal this one.
                    let twin = if !change.insert && twins.contains(ids, |r| change.remap(r)) {
                        remapped.clear();
                        remapped.extend(ids.iter().map(|&r| change.remap(r)));
                        scratch.find(&remapped)
                    } else {
                        None
                    };
                    let new_id = match twin {
                        Some(s) if scratch_to_new[s.0 as usize] != u32::MAX => {
                            scratch_to_new[s.0 as usize]
                        }
                        Some(s) => {
                            let new_id = sources.len() as u32;
                            scratch_to_new[s.0 as usize] = new_id;
                            sources.push(s.0 | REPAIRED);
                            new_id
                        }
                        None => {
                            sources.push(id.0);
                            sources.len() as u32 - 1
                        }
                    };
                    old_to_new[id.0 as usize] = new_id;
                    new_id
                }
            };
            cells.push(ResultId(new_id));
        }
    }

    // The arena in new-id order.
    let mut flat: Vec<PointId> = Vec::with_capacity(old_results.total_ids() + scratch.total_ids());
    let mut ends: Vec<u32> = Vec::with_capacity(sources.len());
    let mut copier = RunCopier::new(change, old_results);
    for &source in &sources {
        let end = if source & REPAIRED != 0 {
            copier.flush(&mut flat);
            flat.extend_from_slice(scratch.get(ResultId(source & !REPAIRED)));
            flat.len() as u32
        } else {
            copier.push(ResultId(source), &mut flat)
        };
        ends.push(end);
    }
    copier.flush(&mut flat);
    let results = ResultInterner::from_valid_runs(flat, ends);
    CellDiagram::from_parts(grid, results, cells)
}
