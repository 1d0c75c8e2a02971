//! One published epoch: an immutable, self-contained view of the diagrams
//! plus one handle arena per built diagram.
//!
//! A [`Snapshot`] is never mutated after publication — readers share it via
//! `Arc`, so every answer derived from one snapshot is from one consistent
//! epoch by construction. All lookups take `&self` and are lock-free; the
//! `no-lock-read-path` lint keeps `Mutex`/`RwLock` out of this file.
//!
//! # Answer space
//!
//! Results are returned as sorted [`Handle`] lists, not raw
//! [`PointId`]s: point ids are positional within one epoch's dataset and
//! would be meaningless across epochs, while handles are stable across the
//! server's rebuilds (see [`skyline_core::maintained`]).
//!
//! # Borrowed answers
//!
//! A diagram answer is point location, then the located cell's interned
//! [`ResultId`](skyline_core::result_set::ResultId), then that id's slot in
//! the diagram's [`HandleArena`]: `Cow::Borrowed` from the arena, with no
//! allocation once the slot is filled. When the global or dynamic diagram
//! was *not* built, answers fall back to a from-scratch computation at the
//! exact query point and come back `Cow::Owned`; those answers are not
//! constant per cell on grid lines, so they never enter an arena (and are
//! not counted by [`Snapshot::cache_stats`]).

use std::borrow::Cow;

use skyline_apps::continuous::{self, TraversalStep};
use skyline_core::diagram::PolyominoRef;
use skyline_core::geometry::{Dataset, Point, PointId};
use skyline_core::index::SkylineIndex;
use skyline_core::maintained::Handle;
use skyline_core::query;

use crate::arena::{CacheStats, HandleArena};

/// Maps a from-scratch id-space answer to the snapshot's handle space,
/// sorted (the fallback path; diagram answers come from the arenas).
fn to_handles(handles: &[Handle], ids: Vec<PointId>) -> Cow<'static, [Handle]> {
    let mut out: Vec<Handle> = ids.into_iter().map(|id| handles[id.index()]).collect();
    out.sort_unstable();
    Cow::Owned(out)
}

/// The populated part of a snapshot (absent while the server is empty).
#[derive(Debug)]
struct Body {
    index: SkylineIndex,
    /// Entry `i` is the stable handle of the dataset's `PointId(i)`.
    handles: Vec<Handle>,
    quadrant: HandleArena,
    /// Present iff the index holds the global diagram.
    global: Option<HandleArena>,
    /// Present iff the index holds the dynamic diagram.
    dynamic: Option<HandleArena>,
}

/// An immutable published epoch of the server's diagrams. See the module
/// docs.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    body: Option<Body>,
}

impl Snapshot {
    /// A snapshot of the empty dataset (every answer is empty).
    pub(crate) fn empty(epoch: u64) -> Self {
        Snapshot { epoch, body: None }
    }

    /// Wraps a built index, publishing it read-only (every interner's
    /// lookup table is dropped) with one empty handle arena per diagram.
    /// `handles[i]` must be the handle of `PointId(i)` in the index's
    /// dataset.
    pub(crate) fn new(epoch: u64, index: SkylineIndex, handles: Vec<Handle>) -> Self {
        debug_assert_eq!(index.dataset().len(), handles.len());
        let index = index.into_readonly();
        let quadrant = HandleArena::new(index.quadrant_diagram().results().len());
        let global = index
            .global_diagram()
            .map(|d| HandleArena::new(d.results().len()));
        let dynamic = index
            .dynamic_diagram()
            .map(|d| HandleArena::new(d.results().len()));
        Snapshot {
            epoch,
            body: Some(Body {
                index,
                handles,
                quadrant,
                global,
                dynamic,
            }),
        }
    }

    /// The epoch this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Estimated heap bytes owned by this snapshot: the index arenas, the
    /// handle table, and the handle arenas (slot tables plus filled
    /// slices). The empty snapshot owns nothing. This is the per-snapshot
    /// footprint `experiments e15` reports for retention budgeting.
    pub fn heap_bytes(&self) -> usize {
        self.body.as_ref().map_or(0, |b| {
            b.index.heap_bytes()
                + skyline_core::telemetry::mem::vec_heap_bytes(&b.handles)
                + b.arenas().map(HandleArena::heap_bytes).sum::<usize>()
        })
    }

    /// The epoch's dataset, or `None` for the empty snapshot. Differential
    /// checkers recompute answers from exactly this dataset.
    pub fn dataset(&self) -> Option<&Dataset> {
        self.body.as_ref().map(|b| b.index.dataset())
    }

    /// The handle of each dataset point: entry `i` is the stable handle of
    /// `PointId(i)`. Empty for the empty snapshot.
    pub fn handles(&self) -> &[Handle] {
        self.body.as_ref().map_or(&[], |b| b.handles.as_slice())
    }

    /// The underlying index, or `None` for the empty snapshot.
    pub fn index(&self) -> Option<&SkylineIndex> {
        self.body.as_ref().map(|b| &b.index)
    }

    /// Number of points in this epoch.
    pub fn len(&self) -> usize {
        self.body.as_ref().map_or(0, |b| b.handles.len())
    }

    /// True iff this epoch holds no points.
    pub fn is_empty(&self) -> bool {
        self.body.is_none()
    }

    /// Quadrant skyline of `q`, as sorted handles borrowed from the
    /// quadrant diagram's arena.
    pub fn quadrant(&self, q: Point) -> Cow<'_, [Handle]> {
        let Some(body) = &self.body else {
            return Cow::Borrowed(&[]);
        };
        let d = body.index.quadrant_diagram();
        let id = d.result_id(d.grid().cell_of(q));
        Cow::Borrowed(body.quadrant.answer(id, d.results(), &body.handles))
    }

    /// Global skyline of `q`, as sorted handles: borrowed from the global
    /// diagram's arena when that diagram was built, otherwise computed from
    /// scratch on this epoch's dataset (owned — see the module docs).
    pub fn global(&self, q: Point) -> Cow<'_, [Handle]> {
        let Some(body) = &self.body else {
            return Cow::Borrowed(&[]);
        };
        match (body.index.global_diagram(), &body.global) {
            (Some(d), Some(arena)) => {
                let id = d.result_id(d.grid().cell_of(q));
                Cow::Borrowed(arena.answer(id, d.results(), &body.handles))
            }
            _ => to_handles(
                &body.handles,
                query::global_skyline(body.index.dataset(), q),
            ),
        }
    }

    /// Dynamic skyline of `q`, as sorted handles: borrowed from the dynamic
    /// diagram's arena when that diagram was built, otherwise computed from
    /// scratch on this epoch's dataset (owned).
    pub fn dynamic(&self, q: Point) -> Cow<'_, [Handle]> {
        let Some(body) = &self.body else {
            return Cow::Borrowed(&[]);
        };
        match (body.index.dynamic_diagram(), &body.dynamic) {
            (Some(d), Some(arena)) => {
                let id = d.result_id(d.grid().subcell_of(q));
                Cow::Borrowed(arena.answer(id, d.results(), &body.handles))
            }
            _ => to_handles(
                &body.handles,
                query::dynamic_skyline(body.index.dataset(), q),
            ),
        }
    }

    /// The skyline polyomino containing `q` — the region where `q` can move
    /// without its quadrant result changing. `None` for the empty snapshot.
    pub fn safe_zone(&self, q: Point) -> Option<PolyominoRef<'_>> {
        self.body.as_ref().map(|b| b.index.safe_zone(q))
    }

    /// Itinerary of a query moving from `a` to `b` over this epoch's
    /// quadrant diagram (see [`skyline_apps::continuous`]); results are in
    /// the epoch's `PointId` space, mapped to handles via
    /// [`Snapshot::handles`]. Empty for the empty snapshot.
    pub fn trace(&self, a: Point, b: Point) -> Vec<TraversalStep> {
        self.body.as_ref().map_or_else(Vec::new, |body| {
            continuous::trace_segment(body.index.quadrant_diagram(), a, b)
        })
    }

    /// Serializes this epoch into a snapshot container
    /// ([`skyline_core::container`]): the bytes cold-start a server via
    /// [`SkylineServer::from_container`](crate::SkylineServer::from_container)
    /// without rebuilding any diagram, and round-trip the handle table so
    /// answers stay in the same stable handle space. `None` for the empty
    /// snapshot (there is nothing to persist).
    pub fn to_container(&self) -> Option<Vec<u8>> {
        self.body
            .as_ref()
            .map(|b| skyline_core::container::encode_index(&b.index, &b.handles))
    }

    /// Aggregated counters over this snapshot's handle arenas: `hits` are
    /// answers borrowed from a filled slot, `misses` are slot fills (one
    /// per result id asked for). Fallback-path answers bypass the arenas
    /// and are not counted.
    pub fn cache_stats(&self) -> CacheStats {
        self.body.as_ref().map_or_else(CacheStats::default, |b| {
            b.arenas()
                .fold(CacheStats::default(), |acc, a| acc.merged(a.stats()))
        })
    }
}

impl Body {
    /// The arenas of the diagrams this index holds.
    fn arenas(&self) -> impl Iterator<Item = &HandleArena> {
        std::iter::once(&self.quadrant)
            .chain(&self.global)
            .chain(&self.dynamic)
    }
}
