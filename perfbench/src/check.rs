//! Answer digests, the oracle check and per-path failure counts.
//!
//! Every timed answer is reduced to a digest and folded into a per-pass
//! checksum, which must equal the reference pass's. The reference pass
//! runs once in set-up, on the first published epoch, and a fixed sample
//! of its answers is checked exactly against the `skyline_core::query`
//! oracles run on that snapshot's own dataset.

use skyline_core::diagram::PolyominoRef;
use skyline_core::geometry::PointId;
use skyline_core::maintained::Handle;
use skyline_core::query;
use skyline_serve::Snapshot;

use crate::gen::{splitmix, Kind, Query};

/// Digest of a sorted handle answer. The per-handle terms are independent,
/// so the sum pipelines instead of forming a dependency chain.
#[inline]
pub fn handles_digest(answer: &[Handle]) -> u64 {
    answer.iter().fold(answer.len() as u64, |acc, h| {
        let m = h.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        acc.wrapping_add(m ^ (m >> 29))
    })
}

/// Digest of a safe zone: its interned result id and its area. Both are
/// fixed by the dataset, so every build and every cold start of one dataset
/// gives the same digest.
#[inline]
fn zone_digest(zone: Option<PolyominoRef<'_>>) -> u64 {
    zone.map_or(0, |z| (u64::from(z.result.0) << 32) ^ z.area() as u64)
}

/// Answers `q` through the served path and returns the answer's digest.
#[inline]
pub fn answer(snap: &Snapshot, q: &Query) -> u64 {
    match q.kind {
        Kind::Quadrant => handles_digest(&snap.quadrant(q.p)),
        Kind::Global => handles_digest(&snap.global(q.p)),
        Kind::Dynamic => handles_digest(&snap.dynamic(q.p)),
        Kind::SafeZone => zone_digest(snap.safe_zone(q.p)),
    }
}

/// Folds one answer digest into a pass checksum (order-independent, so a
/// pass may start anywhere in the list).
#[inline]
pub fn fold(acc: u64, digest: u64) -> u64 {
    acc.wrapping_add(splitmix(digest))
}

/// One pass over `queries` through the served path: the folded checksum.
pub fn pass(snap: &Snapshot, queries: &[Query]) -> u64 {
    queries.iter().fold(0, |acc, q| fold(acc, answer(snap, q)))
}

fn as_handles(snap: &Snapshot, ids: Vec<PointId>) -> Vec<Handle> {
    let handles = snap.handles();
    let mut out: Vec<Handle> = ids.into_iter().map(|id| handles[id.index()]).collect();
    out.sort_unstable();
    out
}

/// Checks one served answer exactly against the from-scratch oracle on the
/// snapshot's own dataset. Safe zones are checked through their result
/// (the quadrant skyline) and membership of the query's cell.
pub fn oracle_agrees(snap: &Snapshot, q: &Query) -> bool {
    let (Some(ds), Some(index)) = (snap.dataset(), snap.index()) else {
        return false;
    };
    let p = q.p;
    match q.kind {
        Kind::Quadrant => *snap.quadrant(p) == *as_handles(snap, query::quadrant_skyline(ds, p)),
        Kind::Global => *snap.global(p) == *as_handles(snap, query::global_skyline(ds, p)),
        Kind::Dynamic => *snap.dynamic(p) == *as_handles(snap, query::dynamic_skyline(ds, p)),
        Kind::SafeZone => snap.safe_zone(p).is_some_and(|zone| {
            let results = index.quadrant_diagram().results().get(zone.result);
            let cell = index.quadrant_diagram().grid().cell_of(p);
            results == query::quadrant_skyline(ds, p).as_slice() && zone.cells.contains(&cell)
        }),
    }
}

/// Number of list positions in the oracle-checked sample.
const SAMPLE: usize = 512;

/// The reference answers of the first published epoch.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Answer digest at every list position.
    pub digests: Vec<u64>,
    /// Checksum of one full pass.
    pub fold: u64,
    /// The oracle-checked list positions, evenly spaced.
    pub sample: Vec<usize>,
}

impl Reference {
    /// Answers the whole list on `snap` and checks the sample against the
    /// oracles. `Err` names the first disagreeing position.
    pub fn new(snap: &Snapshot, queries: &[Query]) -> Result<Reference, String> {
        let digests: Vec<u64> = queries.iter().map(|q| answer(snap, q)).collect();
        let fold = digests.iter().fold(0, |acc, &d| self::fold(acc, d));
        let step = (queries.len() / SAMPLE).max(1);
        let sample: Vec<usize> = (0..queries.len()).step_by(step).take(SAMPLE).collect();
        if let Some(&i) = sample.iter().find(|&&i| !oracle_agrees(snap, &queries[i])) {
            return Err(format!(
                "epoch {}: {:?} query at {} disagrees with the oracle",
                snap.epoch(),
                queries[i].kind,
                queries[i].p
            ));
        }
        Ok(Reference {
            digests,
            fold,
            sample,
        })
    }

    /// True iff `snap` (another build or a cold start of the reference
    /// dataset) gives the reference answer at every sampled position.
    pub fn sample_agrees(&self, snap: &Snapshot, queries: &[Query]) -> bool {
        self.sample
            .iter()
            .all(|&i| answer(snap, &queries[i]) == self.digests[i])
    }
}

/// Attempted and failed operations on one path. A wrong answer, a refused
/// container, an epoch that never becomes visible and a panic all count as
/// failures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records `ops` operations of which `failed` failed.
    pub fn record(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }

    /// Records `ops` operations that all succeeded or all failed.
    pub fn record_all(&mut self, ops: u64, ok: bool) {
        self.record(ops, if ok { 0 } else { ops });
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.record(other.attempted, other.failed);
    }
}

/// Per-path tallies of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tallies {
    /// `SkylineServer::with_dataset` calls, set-up included.
    pub build: Tally,
    /// `SkylineServer::from_container` plus first query.
    pub cold_start: Tally,
    /// Answered queries.
    pub read: Tally,
    /// Updates made visible.
    pub publish: Tally,
}

impl Tallies {
    /// All paths summed.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for path in [self.build, self.cold_start, self.read, self.publish] {
            t.merge(path);
        }
        t
    }

    /// `(path name, tally)` rows for printing.
    pub fn rows(&self) -> [(&'static str, Tally); 4] {
        [
            ("build", self.build),
            ("cold_start", self.cold_start),
            ("read", self.read),
            ("publish", self.publish),
        ]
    }
}
