//! A semi-dynamic wrapper: accept point insertions and removals, keep
//! answering queries, and rebuild the diagram **lazily** — updates are
//! `O(1)` queue pushes, and the first query after a batch of updates that
//! needs it pays one rebuild. Between rebuilds, pending updates are
//! applied *exactly* on the query path, so answers are always correct,
//! never stale.
//!
//! Mid-epoch query semantics: pending **insertions** are merged exactly by
//! a minima pass over `lookup ∪ pending` (a stale skyline point can only
//! be evicted by a pending point, and a pending point only enters if
//! undominated by the survivors — one minima computation checks both).
//! Pending **removals** are not patched here: deleting a skyline point
//! exposes dominated points the stale lookup never recorded, so the first
//! query after a removal triggers the rebuild. The
//! `removal_exposes_dominated_points` test pins exactly this case. A patch
//! that consults the point set does exist — the exposed points are the
//! minima of what the removed point dominated — and [`crate::repair`]
//! applies it (and the insertion rule) to whole diagrams, cell by cell;
//! the serving layer publishes through that repair rather than through
//! this index.

use crate::diagram::CellDiagram;
use crate::geometry::{Coord, Dataset, Point, PointId};
use crate::quadrant::QuadrantEngine;
use crate::skyline::sort_sweep::minima_xy;

/// Handle for a point inside a [`MaintainedIndex`] — stable across
/// rebuilds (unlike raw [`PointId`]s, which are positional).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Handle(pub u64);

/// A quadrant-skyline index over a mutable point set.
#[derive(Clone, Debug)]
pub struct MaintainedIndex {
    engine: QuadrantEngine,
    /// Live points by handle, insertion-ordered.
    points: Vec<(Handle, Point)>,
    next_handle: u64,
    /// The diagram over the points as of the last rebuild, paired with the
    /// handle list it was built from (ids index into it).
    built: Option<(CellDiagram, Vec<Handle>)>,
    /// Handles inserted since the last rebuild (not yet in `built`).
    pending_inserts: Vec<(Handle, Point)>,
    /// Handles removed since the last rebuild.
    pending_removes: std::collections::HashSet<Handle>,
    /// Updates since last rebuild; rebuild eagerly once this passes the
    /// threshold (the per-query filtering cost grows with it).
    dirt: usize,
    /// Rebuild after this many buffered updates (default 32).
    pub rebuild_threshold: usize,
}

impl MaintainedIndex {
    /// Creates an empty index using the given engine for rebuilds.
    pub fn new(engine: QuadrantEngine) -> Self {
        MaintainedIndex {
            engine,
            points: Vec::new(),
            next_handle: 0,
            built: None,
            pending_inserts: Vec::new(),
            pending_removes: std::collections::HashSet::new(),
            dirt: 0,
            rebuild_threshold: 32,
        }
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff no live points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Inserts a point; `O(1)` now, cost deferred to the next rebuild.
    pub fn insert(&mut self, p: Point) -> Handle {
        let handle = Handle(self.next_handle);
        self.next_handle += 1;
        self.points.push((handle, p));
        self.pending_inserts.push((handle, p));
        self.dirt += 1;
        handle
    }

    /// Removes a point by handle; returns false if unknown.
    pub fn remove(&mut self, handle: Handle) -> bool {
        let Some(idx) = self.points.iter().position(|&(h, _)| h == handle) else {
            return false;
        };
        self.points.swap_remove(idx);
        // An unbuilt pending insert can be dropped entirely.
        if let Some(k) = self.pending_inserts.iter().position(|&(h, _)| h == handle) {
            self.pending_inserts.swap_remove(k);
        } else {
            self.pending_removes.insert(handle);
        }
        self.dirt += 1;
        true
    }

    /// The coordinates of a live point.
    pub fn get(&self, handle: Handle) -> Option<Point> {
        self.points
            .iter()
            .find(|&&(h, _)| h == handle)
            .map(|&(_, p)| p)
    }

    /// Quadrant skyline of `q` over the *current* point set, as handles
    /// sorted ascending. Rebuilds first when the update buffer is large.
    pub fn query(&mut self, q: Point) -> Vec<Handle> {
        if self.points.is_empty() {
            return Vec::new();
        }
        // Removals force a rebuild: the stale lookup cannot know which
        // dominated points a deleted skyline member was hiding.
        if self.built.is_none()
            || !self.pending_removes.is_empty()
            || self.dirt >= self.rebuild_threshold
        {
            self.rebuild();
        }
        let (diagram, handles) = self
            .built
            .as_ref()
            .expect("rebuild() just ran whenever built was None");

        // Candidates: the stale lookup minus removals, plus pending
        // insertions in the quadrant; one minima pass resolves both
        // directions of interference.
        let mut scratch: Vec<(Coord, Coord, PointId)> = Vec::new();
        let mut candidate_handles: Vec<Handle> = Vec::new();
        for &id in diagram.query(q) {
            let handle = handles[id.index()];
            let p = self.get(handle).expect("no removals are pending here");
            scratch.push((p.x, p.y, PointId(candidate_handles.len() as u32)));
            candidate_handles.push(handle);
        }
        for &(handle, p) in &self.pending_inserts {
            if p.x > q.x && p.y > q.y {
                scratch.push((p.x, p.y, PointId(candidate_handles.len() as u32)));
                candidate_handles.push(handle);
            }
        }
        let mut out: Vec<Handle> = minima_xy(&mut scratch)
            .into_iter()
            .map(|id| candidate_handles[id.index()])
            .collect();
        out.sort_unstable();
        out
    }

    /// Forces a rebuild now; afterwards queries are pure lookups again.
    pub fn rebuild(&mut self) {
        self.rebuild_with(&crate::parallel::ParallelConfig::from_env());
    }

    /// Forces a rebuild on an explicit parallel configuration (the serving
    /// layer rebuilds snapshots on the scoped pool this way); afterwards
    /// queries are pure lookups again.
    pub fn rebuild_with(&mut self, cfg: &crate::parallel::ParallelConfig) {
        let _rebuild = crate::span!("maintained.rebuild", self.points.len() as u64);
        crate::counter!("maintained.rebuilds").add(1);
        if self.points.is_empty() {
            self.built = None;
        } else {
            let dataset = Dataset::from_coords(self.points.iter().map(|&(_, p)| (p.x, p.y)))
                .expect("live points are valid");
            let handles = self.points.iter().map(|&(h, _)| h).collect();
            self.built = Some((self.engine.build_with(&dataset, cfg), handles));
        }
        self.pending_inserts.clear();
        self.pending_removes.clear();
        self.dirt = 0;
    }

    /// Number of buffered updates since the last rebuild.
    pub fn pending_updates(&self) -> usize {
        self.dirt
    }

    /// The live points with their handles, in the internal (rebuild) order:
    /// after a rebuild with no pending updates, the point at iterator
    /// position `i` is exactly the diagram's `PointId(i)`, so the paired
    /// handle list from [`MaintainedIndex::built`] maps ids back to handles.
    pub fn live_points(&self) -> impl Iterator<Item = (Handle, Point)> + '_ {
        self.points.iter().copied()
    }

    /// The diagram and handle table from the last rebuild, if any. Entry
    /// `i` of the handle slice is the handle of the diagram's `PointId(i)`.
    /// `None` when the index has never been rebuilt or was empty at the
    /// last rebuild. Ignores pending updates — callers that need a current
    /// view rebuild first.
    pub fn built(&self) -> Option<(&CellDiagram, &[Handle])> {
        self.built
            .as_ref()
            .map(|(diagram, handles)| (diagram, handles.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::quadrant_skyline_naive;

    /// Oracle: from-scratch query over the current live points, mapped to
    /// handles.
    fn oracle(index: &MaintainedIndex, q: Point) -> Vec<Handle> {
        let mut live: Vec<(Handle, Point)> = index.points.clone();
        live.sort_unstable();
        if live.is_empty() {
            return Vec::new();
        }
        let ds = Dataset::from_coords(live.iter().map(|&(_, p)| (p.x, p.y))).unwrap();
        let mut out: Vec<Handle> = quadrant_skyline_naive(&ds, q)
            .into_iter()
            .map(|id| live[id.index()].0)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn interleaved_updates_and_queries_match_the_oracle() {
        let mut index = MaintainedIndex::new(QuadrantEngine::Sweeping);
        index.rebuild_threshold = 5;
        let mut state: u64 = 77;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 50
        };
        let mut handles: Vec<Handle> = Vec::new();
        for step in 0..300 {
            match next() % 4 {
                0 | 1 => {
                    let p = Point::new(next() as i64, next() as i64);
                    handles.push(index.insert(p));
                }
                2 if !handles.is_empty() => {
                    let victim = handles.swap_remove(next() as usize % handles.len());
                    assert!(index.remove(victim));
                }
                _ => {
                    let q = Point::new(next() as i64 - 2, next() as i64 - 2);
                    assert_eq!(index.query(q), oracle(&index, q), "step {step}");
                }
            }
        }
        assert_eq!(index.len(), handles.len());
    }

    #[test]
    fn handles_are_stable_across_rebuilds() {
        let mut index = MaintainedIndex::new(QuadrantEngine::Scanning);
        let a = index.insert(Point::new(5, 5));
        let b = index.insert(Point::new(10, 10));
        index.rebuild();
        let c = index.insert(Point::new(1, 1));
        // c dominates everything: it is the sole skyline from the origin.
        assert_eq!(index.query(Point::new(0, 0)), vec![c]);
        index.rebuild();
        assert_eq!(index.query(Point::new(0, 0)), vec![c]);
        assert_eq!(index.get(a), Some(Point::new(5, 5)));
        assert!(index.remove(b));
        assert!(!index.remove(b), "double remove is refused");
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn removal_exposes_dominated_points() {
        // The case that makes lazy removal-filtering unsound: deleting the
        // skyline point must expose the point it dominated. The index
        // handles it by rebuilding on the first query after a removal.
        let mut index = MaintainedIndex::new(QuadrantEngine::Baseline);
        let front = index.insert(Point::new(2, 2));
        let behind = index.insert(Point::new(3, 3));
        index.rebuild();
        assert_eq!(index.query(Point::new(0, 0)), vec![front]);
        assert!(index.remove(front));
        assert!(index.pending_updates() > 0);
        assert_eq!(index.query(Point::new(0, 0)), vec![behind]);
        // The query consumed the pending removal via rebuild.
        assert_eq!(index.pending_updates(), 0);
    }

    #[test]
    fn insertions_are_merged_without_rebuild() {
        let mut index = MaintainedIndex::new(QuadrantEngine::Baseline);
        let a = index.insert(Point::new(5, 5));
        index.rebuild();
        let b = index.insert(Point::new(2, 8));
        let c = index.insert(Point::new(3, 3)); // dominates a
                                                // Still below threshold: no rebuild, yet answers are exact.
        assert!(index.pending_updates() > 0);
        let got = index.query(Point::new(0, 0));
        assert_eq!(got, vec![b, c]);
        assert!(index.pending_updates() > 0, "insert-only epoch persists");
        let _ = a;
    }

    #[test]
    fn empty_index_behaves() {
        let mut index = MaintainedIndex::new(QuadrantEngine::Sweeping);
        assert!(index.is_empty());
        assert!(index.query(Point::new(0, 0)).is_empty());
        assert!(!index.remove(Handle(99)));
        let h = index.insert(Point::new(1, 1));
        assert!(index.remove(h));
        assert!(index.query(Point::new(0, 0)).is_empty());
        index.rebuild();
        assert!(index.is_empty());
    }
}
