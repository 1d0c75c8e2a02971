//! The writer side: [`SkylineServer`] accepts updates, builds or repairs
//! snapshots on the scoped pool, and publishes them through an epoch chain.
//!
//! # Concurrency protocol
//!
//! All mutable state — the live point list, the pending updates and the
//! [`EpochPublisher`] tail — lives behind **one** writer mutex. Writers
//! (insert/remove/refresh) serialize on it; publication itself is the
//! single `Arc` swap inside [`EpochPublisher::publish`]. Readers never
//! touch the mutex after construction: a [`SnapshotReader`] chases the
//! epoch chain lock-free, and every query runs against one immutable
//! [`Snapshot`]. The only reader/writer interaction is reader *creation*
//! (one brief lock to clone the current chain tail).
//!
//! # Update visibility
//!
//! Updates buffer in the writer and become visible to readers only at
//! publication: automatically once `rebuild_threshold` updates have
//! buffered, or on an explicit [`SkylineServer::refresh`] barrier. Until
//! then, readers keep answering from the previous epoch — always
//! consistent, possibly behind.
//!
//! The writer keeps its live points in `PointId` order: an insert appends,
//! and a remove is order-preserving, so the pending updates replay exactly
//! onto the published dataset. A publication of at most [`REPAIR_BATCH`]
//! updates *repairs* the latest snapshot's index update by update
//! ([`SkylineIndexBuilder::repair`]): each update recomputes only the cells
//! it changes. A larger batch, a change from the empty set, or an engine
//! other than sweeping takes the full build. Both paths give the same
//! index, id for id, so which one ran is invisible to readers.

// The write-side `Mutex` stays `std`: it guards the single-writer half
// (never the read path — see `no-lock-read-path`), so it is outside the
// interleaving checker's scope.
use skyline_core::sync::Arc;
use std::sync::Mutex;

use skyline_core::dynamic::DynamicEngine;
use skyline_core::epoch::{EpochPublisher, EpochReader};
use skyline_core::geometry::{Dataset, Point, PointId};
use skyline_core::index::SkylineIndexBuilder;
use skyline_core::maintained::Handle;
use skyline_core::parallel::ParallelConfig;
use skyline_core::quadrant::QuadrantEngine;
use skyline_core::repair::Update;

use crate::snapshot::Snapshot;

/// Construction and policy knobs for [`SkylineServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Quadrant/global construction engine (default: sweeping).
    pub engine: QuadrantEngine,
    /// Dynamic construction engine (default: scanning).
    pub dynamic_engine: DynamicEngine,
    /// Also build the global diagram in every snapshot.
    pub with_global: bool,
    /// Also build the dynamic subcell diagram in every snapshot (expensive;
    /// intended for small datasets).
    pub with_dynamic: bool,
    /// Publish automatically once this many updates have buffered.
    pub rebuild_threshold: usize,
    /// Pool configuration for snapshot builds (default: from the
    /// environment, see [`ParallelConfig::from_env`]).
    pub parallel: ParallelConfig,
    /// Deterministic stall injection on the refresh barrier, as
    /// `(nth, stall_ms)`: the `nth` call to [`SkylineServer::refresh`]
    /// (1-based) busy-waits `stall_ms` milliseconds on the telemetry clock
    /// before publishing, inside a `serve.refresh.injected_stall` span.
    /// `(0, _)` — the default — disables the hook. This exists for the
    /// coordinated-omission differential test and the CI anomaly-trigger
    /// job: the stall delays publication without touching buffered
    /// updates, so query digests are unaffected.
    pub injected_stall: (u64, u64),
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            engine: QuadrantEngine::Sweeping,
            dynamic_engine: DynamicEngine::Scanning,
            with_global: false,
            with_dynamic: false,
            rebuild_threshold: 32,
            parallel: ParallelConfig::from_env(),
            injected_stall: (0, 0),
        }
    }
}

/// The largest batch a publication repairs instead of building. A batch of
/// `k` updates costs about `k` repairs; a build costs the same whatever
/// `k` is. Measured at n = 400 on one thread, four repairs cost 0.44 of a
/// build with a global diagram and 0.96 of one without: four is where the
/// quadrant-only case breaks even (DESIGN.md §7).
pub const REPAIR_BATCH: usize = 4;

/// Everything the writer mutates, behind one mutex.
#[derive(Debug)]
struct Writer {
    /// The live points in `PointId` order of the next epoch's dataset:
    /// entry `i` is `PointId(i)` and its handle.
    points: Vec<(Handle, Point)>,
    /// The handle the next insert gets.
    next_handle: u64,
    /// Updates since the last publication, in order. Replayed onto the
    /// published dataset they give `points`.
    pending: Vec<Update>,
    publisher: EpochPublisher<Snapshot>,
    /// Total [`SkylineServer::refresh`] calls, for the injected-stall hook.
    refresh_calls: u64,
}

impl Writer {
    fn new(points: Vec<(Handle, Point)>, next_handle: u64) -> Self {
        Writer {
            points,
            next_handle,
            pending: Vec::new(),
            publisher: EpochPublisher::new(Snapshot::empty(0)),
            refresh_calls: 0,
        }
    }

    fn insert(&mut self, p: Point) -> Handle {
        let handle = Handle(self.next_handle);
        self.next_handle += 1;
        self.points.push((handle, p));
        self.pending.push(Update::Insert(p));
        handle
    }

    fn remove(&mut self, handle: Handle) -> bool {
        let Some(idx) = self.points.iter().position(|&(h, _)| h == handle) else {
            return false;
        };
        self.points.remove(idx);
        self.pending.push(Update::Remove(PointId(idx as u32)));
        true
    }
}

/// A concurrently readable, epoch-snapshotted skyline index. See the
/// module docs for the protocol.
#[derive(Debug)]
pub struct SkylineServer {
    options: ServerOptions,
    writer: Mutex<Writer>,
}

impl SkylineServer {
    /// An empty server at epoch 0 (every answer is empty until points are
    /// inserted and published).
    pub fn new(options: ServerOptions) -> Self {
        SkylineServer {
            options,
            writer: Mutex::new(Writer::new(Vec::new(), 0)),
        }
    }

    /// A server pre-loaded with `dataset`, published once as epoch 1. The
    /// returned handles are in dataset order.
    pub fn with_dataset(dataset: &Dataset, options: ServerOptions) -> (Self, Vec<Handle>) {
        let server = Self::new(options);
        let handles = {
            let mut w = server.lock_writer();
            let handles: Vec<Handle> = dataset.points().iter().map(|p| w.insert(*p)).collect();
            server.publish(&mut w);
            handles
        };
        (server, handles)
    }

    /// Cold-starts a server from a snapshot container
    /// ([`skyline_core::container`]), published once as epoch 1 **without
    /// rebuilding any diagram** — the decoded index is published as-is, so
    /// start-up cost is the container's validated copy instead of the
    /// `O(n²)` construction (experiment E14 measures the gap). The writer
    /// adopts the container's handle table (or dataset-ordered handles
    /// `0..n` when the container carries none) in dataset order, so later
    /// inserts/removes repair or rebuild exactly as on a warm server. The
    /// returned handles are in dataset order.
    pub fn from_container(
        bytes: &[u8],
        options: ServerOptions,
    ) -> Result<(Self, Vec<Handle>), skyline_core::container::Error> {
        let _cold = skyline_core::span!("serve.cold_start", bytes.len() as u64);
        let loaded = skyline_core::container::decode_index(bytes)?;
        let handles = if loaded.handles.is_empty() {
            (0..loaded.index.dataset().len() as u64)
                .map(Handle)
                .collect()
        } else {
            loaded.handles
        };
        let mut sorted = handles.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(skyline_core::container::Error::Invalid(
                "restored handles must be unique",
            ));
        }
        let next_handle = match sorted.last() {
            Some(h) => {
                h.0.checked_add(1)
                    .ok_or(skyline_core::container::Error::Invalid(
                        "restored handle space is exhausted",
                    ))?
            }
            None => 0,
        };
        let points: Vec<(Handle, Point)> = handles
            .iter()
            .copied()
            .zip(loaded.index.dataset().points().iter().copied())
            .collect();
        let server = SkylineServer {
            options,
            writer: Mutex::new(Writer::new(points, next_handle)),
        };
        {
            let mut w = server.lock_writer();
            let snapshot = Snapshot::new(1, loaded.index, handles.clone());
            let published = w.publisher.publish(snapshot);
            debug_assert_eq!(published, 1);
        }
        Ok((server, handles))
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, Writer> {
        self.writer
            .lock()
            .expect("a writer panicked mid-update; the server state is unrecoverable")
    }

    /// The index builder for this server's options.
    fn builder(&self) -> SkylineIndexBuilder {
        SkylineIndexBuilder::default()
            .engine(self.options.engine)
            .dynamic_engine(self.options.dynamic_engine)
            .with_global(self.options.with_global)
            .with_dynamic(self.options.with_dynamic)
    }

    /// Publishes the next epoch from the writer's current point set:
    /// repaired from the latest snapshot when the pending batch is small
    /// enough, built otherwise. Caller holds the writer lock.
    fn publish(&self, w: &mut Writer) -> u64 {
        let rebuild_start = skyline_core::telemetry::now_ns();
        let _rebuild = skyline_core::span!("serve.rebuild", w.points.len() as u64);
        let _mem = skyline_core::telemetry::mem::phase(
            skyline_core::telemetry::mem::MemPhase::ServeRebuild,
        );
        let next_epoch = w.publisher.epoch() + 1;
        let snapshot = if w.points.is_empty() {
            Snapshot::empty(next_epoch)
        } else {
            let cfg = &self.options.parallel;
            let latest = w.publisher.latest();
            let repaired = match latest.index() {
                Some(old) if w.pending.len() <= REPAIR_BATCH => {
                    let _repair = skyline_core::span!("serve.repair", w.pending.len() as u64);
                    self.builder().repair(old, &w.pending, cfg)
                }
                _ => None,
            };
            let index = match repaired {
                Some(index) => {
                    skyline_core::counter!("serve.repairs").add(1);
                    index
                }
                None => {
                    skyline_core::counter!("serve.full_builds").add(1);
                    let dataset = Dataset::from_coords(w.points.iter().map(|&(_, p)| (p.x, p.y)))
                        .expect("live points were valid when inserted");
                    self.builder().build_with(&dataset, cfg)
                }
            };
            Snapshot::new(
                next_epoch,
                index,
                w.points.iter().map(|&(h, _)| h).collect(),
            )
        };
        let published = {
            let _publish = skyline_core::span!("serve.publish", next_epoch);
            w.publisher.publish(snapshot)
        };
        // Microsecond buckets: rebuild latencies span ~1e2..1e7 ns, and the
        // log2 histogram resolves that range well in µs.
        skyline_core::histogram!("serve.rebuild_us")
            .record(skyline_core::telemetry::now_ns().saturating_sub(rebuild_start) / 1_000);
        debug_assert_eq!(published, next_epoch);
        w.pending.clear();
        published
    }

    /// Publishes if updates are buffered. Caller holds the writer lock.
    fn publish_if_dirty(&self, w: &mut Writer) -> u64 {
        if w.pending.is_empty() {
            w.publisher.epoch()
        } else {
            self.publish(w)
        }
    }

    /// Inserts a point. Invisible to readers until the next publication
    /// (automatic at `rebuild_threshold` buffered updates, or via
    /// [`SkylineServer::refresh`]).
    pub fn insert(&self, p: Point) -> Handle {
        let mut w = self.lock_writer();
        let handle = w.insert(p);
        if w.pending.len() >= self.options.rebuild_threshold {
            self.publish(&mut w);
        }
        handle
    }

    /// Removes a point by handle; returns false if unknown. Same visibility
    /// rules as [`SkylineServer::insert`].
    pub fn remove(&self, handle: Handle) -> bool {
        let mut w = self.lock_writer();
        if !w.remove(handle) {
            return false;
        }
        if w.pending.len() >= self.options.rebuild_threshold {
            self.publish(&mut w);
        }
        true
    }

    /// Publication barrier: after this returns, every update accepted
    /// before the call is visible to any reader that refreshes. Returns the
    /// current epoch (unchanged if nothing was buffered).
    pub fn refresh(&self) -> u64 {
        // The lock acquisition is the refresh barrier's wait: a span around
        // it shows writer contention directly in a trace.
        let mut w = {
            let _wait = skyline_core::span!("serve.refresh.wait");
            self.lock_writer()
        };
        w.refresh_calls += 1;
        let (nth, stall_ms) = self.options.injected_stall;
        if nth != 0 && w.refresh_calls == nth {
            // Spin on the telemetry clock (raw `thread::sleep` is banned
            // workspace-wide) so the stall is a real span with real
            // duration — the latency trigger and the open-loop driver both
            // observe it exactly like an organic slow rebuild.
            let _stall = skyline_core::span!("serve.refresh.injected_stall", stall_ms);
            let begin = skyline_core::telemetry::now_ns();
            skyline_core::telemetry::spin_until(begin.saturating_add(stall_ms * 1_000_000));
        }
        self.publish_if_dirty(&mut w)
    }

    /// A lock-free reader positioned at the latest published epoch. Takes
    /// the writer lock once, here; [`SnapshotReader::snapshot`] never locks.
    pub fn reader(&self) -> SnapshotReader {
        let w = self.lock_writer();
        SnapshotReader {
            inner: w.publisher.reader(),
        }
    }

    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<Snapshot> {
        self.lock_writer().publisher.latest()
    }

    /// The latest published epoch number.
    pub fn epoch(&self) -> u64 {
        self.lock_writer().publisher.epoch()
    }

    /// Updates buffered since the last publication.
    pub fn pending_updates(&self) -> usize {
        self.lock_writer().pending.len()
    }

    /// Number of live points, including buffered (not yet published)
    /// updates.
    pub fn len(&self) -> usize {
        self.lock_writer().points.len()
    }

    /// True iff no live points (buffered updates included).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The options the server was built with.
    pub fn options(&self) -> &ServerOptions {
        &self.options
    }
}

/// A reader's cursor into the epoch chain. Cheap to clone (each clone
/// advances independently); every method is lock-free.
#[derive(Debug)]
pub struct SnapshotReader {
    inner: EpochReader<Snapshot>,
}

impl SnapshotReader {
    /// Advances to the latest published epoch and returns its snapshot.
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.inner.refresh()
    }

    /// The snapshot at the reader's current (pinned) epoch, without
    /// advancing — later publications do not affect it.
    pub fn current(&self) -> Arc<Snapshot> {
        self.inner.current()
    }

    /// The reader's current epoch number.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// True iff a newer epoch has been published past this reader.
    pub fn is_stale(&self) -> bool {
        self.inner.is_stale()
    }
}

impl Clone for SnapshotReader {
    fn clone(&self) -> Self {
        SnapshotReader {
            inner: self.inner.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> Dataset {
        Dataset::from_coords([(4, 36), (12, 20), (28, 8), (16, 28), (32, 4)]).expect("valid coords")
    }

    #[test]
    fn empty_server_answers_empty() {
        let server = SkylineServer::new(ServerOptions::default());
        assert_eq!(server.epoch(), 0);
        assert!(server.is_empty());
        let snap = server.latest();
        assert!(snap.is_empty());
        assert!(snap.quadrant(Point::new(1, 1)).is_empty());
        assert!(snap.global(Point::new(1, 1)).is_empty());
        assert!(snap.dynamic(Point::new(1, 1)).is_empty());
        assert!(snap.safe_zone(Point::new(1, 1)).is_none());
        assert!(snap.trace(Point::new(1, 1), Point::new(3, 3)).is_empty());
    }

    #[test]
    fn with_dataset_publishes_epoch_one() {
        let (server, handles) =
            SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.len(), 5);
        assert_eq!(handles.len(), 5);
        let snap = server.latest();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.len(), 5);
        // Query at the origin: the full quadrant skyline.
        let answer = snap.quadrant(Point::new(1, 1));
        assert!(!answer.is_empty());
        assert!(answer.windows(2).all(|w| w[0] < w[1]), "sorted handles");
    }

    #[test]
    fn updates_are_invisible_until_refresh() {
        let (server, _) = SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        let mut reader = server.reader();
        let before = reader.snapshot();
        let q = Point::new(1, 1);
        let old_answer = before.quadrant(q);

        // (2, 2) dominates everything from the origin's perspective.
        let h = server.insert(Point::new(2, 2));
        assert_eq!(server.pending_updates(), 1);
        assert!(!reader.is_stale(), "no publication yet");
        assert_eq!(reader.snapshot().quadrant(q), old_answer);

        let epoch = server.refresh();
        assert_eq!(epoch, 2);
        assert_eq!(server.pending_updates(), 0);
        assert!(reader.is_stale());
        let after = reader.snapshot();
        assert_eq!(after.epoch(), 2);
        assert_eq!(after.quadrant(q).as_ref(), &[h]);
        // The pinned pre-update snapshot still answers from its own epoch.
        assert_eq!(before.quadrant(q), old_answer);
    }

    #[test]
    fn threshold_triggers_automatic_publication() {
        let options = ServerOptions {
            rebuild_threshold: 3,
            ..ServerOptions::default()
        };
        let (server, _) = SkylineServer::with_dataset(&small_dataset(), options);
        assert_eq!(server.epoch(), 1);
        server.insert(Point::new(40, 40));
        server.insert(Point::new(44, 44));
        assert_eq!(server.epoch(), 1, "below threshold: still buffered");
        server.insert(Point::new(48, 48));
        assert_eq!(server.epoch(), 2, "threshold reached: auto-published");
        assert_eq!(server.pending_updates(), 0);
    }

    #[test]
    fn remove_unknown_handle_is_refused() {
        let (server, handles) =
            SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        assert!(!server.remove(Handle(999)));
        assert!(server.remove(handles[0]));
        assert!(!server.remove(handles[0]), "double remove refused");
        assert_eq!(server.len(), 4);
    }

    #[test]
    fn refresh_without_updates_keeps_the_epoch() {
        let (server, _) = SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        assert_eq!(server.refresh(), 1);
        assert_eq!(server.refresh(), 1, "no spurious epochs");
    }

    #[test]
    fn injected_stall_fires_on_the_nth_refresh_only() {
        use skyline_core::telemetry::now_ns;
        let options = ServerOptions {
            injected_stall: (2, 20),
            ..ServerOptions::default()
        };
        let (server, _) = SkylineServer::with_dataset(&small_dataset(), options);
        assert_eq!(server.refresh(), 1, "first refresh: no stall, no epoch");
        let begin = now_ns();
        assert_eq!(server.refresh(), 1, "second refresh: stalls, no epoch");
        let stalled_ns = now_ns().saturating_sub(begin);
        assert!(
            stalled_ns >= 20_000_000,
            "second refresh must stall >= 20ms, took {stalled_ns}ns"
        );
        assert_eq!(server.refresh(), 1, "third refresh: hook spent");
        // The stall never touches data: answers are those of epoch 1.
        assert!(!server.latest().quadrant(Point::new(1, 1)).is_empty());
    }

    #[test]
    fn cold_start_from_container_matches_the_warm_server() {
        let (warm, handles) =
            SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        let bytes = warm
            .latest()
            .to_container()
            .expect("a populated snapshot serializes");
        let (cold, cold_handles) =
            SkylineServer::from_container(&bytes, ServerOptions::default()).unwrap();
        assert_eq!(cold.epoch(), 1);
        assert_eq!(cold_handles, handles);
        let q = Point::new(1, 1);
        assert_eq!(cold.latest().quadrant(q), warm.latest().quadrant(q));
        // Mutations after a cold start behave exactly like a warm server:
        // fresh handles continue past the restored ones, and the next
        // publication (a repair of the decoded index) sees the restored
        // points.
        let h = cold.insert(Point::new(2, 2));
        assert!(h > *cold_handles.last().unwrap());
        cold.refresh();
        assert_eq!(cold.latest().quadrant(q).as_ref(), &[h]);
        assert!(cold.remove(h));
        cold.refresh();
        assert_eq!(cold.latest().quadrant(q), warm.latest().quadrant(q));
    }

    #[test]
    fn cold_start_rejects_corrupt_bytes() {
        let (warm, _) = SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        let mut bytes = warm.latest().to_container().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(SkylineServer::from_container(&bytes, ServerOptions::default()).is_err());
    }

    #[test]
    fn repaired_and_built_epochs_are_the_same_index() {
        // One server publishes every update on its own (by repair), the
        // other the whole run as one batch past REPAIR_BATCH (a build);
        // removals take middle ids. Both must serve the same bytes.
        let updates = REPAIR_BATCH + 3;
        let (repairing, handles) =
            SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        let (building, _) = SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        for k in 0..updates {
            for server in [&repairing, &building] {
                if k % 3 == 1 {
                    assert!(server.remove(handles[k / 3 + 1]));
                } else {
                    server.insert(Point::new(4 * k as i64 + 2, 30 - 3 * k as i64));
                }
            }
            repairing.refresh();
        }
        building.refresh();
        assert_eq!(repairing.epoch(), 1 + updates as u64);
        assert_eq!(building.epoch(), 2);
        assert_eq!(
            repairing.latest().to_container(),
            building.latest().to_container()
        );
    }

    #[test]
    fn removing_everything_publishes_an_empty_snapshot() {
        let (server, handles) =
            SkylineServer::with_dataset(&small_dataset(), ServerOptions::default());
        for h in handles {
            server.remove(h);
        }
        server.refresh();
        let snap = server.latest();
        assert!(snap.is_empty());
        assert!(snap.quadrant(Point::new(1, 1)).is_empty());
    }
}
