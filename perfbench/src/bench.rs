//! One benchmark run: set-up, then rounds over the four serving paths
//! until the time is up.
//!
//! Each round makes one build, one cold start, one publish (four beside a
//! reader thread on `write-dynamic`) and a fixed number of closed- and
//! open-loop reads, so every timed metric is sampled across the whole run
//! and a slow host period spreads over all of them instead of landing on
//! one. Metrics are medians over the round samples.
//!
//! A traced run (`trace = true`) makes the same rounds and, beside each
//! served operation, replays the path one layer at a time by calling the
//! layer's public function from here; the program itself gains no tracing.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_core::container;
use skyline_core::diagram::merge::merge;
use skyline_core::geometry::{CellGrid, Dataset, Point};
use skyline_core::global;
use skyline_core::index::SkylineIndexBuilder;
use skyline_core::maintained::{Handle, MaintainedIndex};
use skyline_core::parallel::ParallelConfig;
use skyline_core::telemetry::mem;
use skyline_serve::{ServerOptions, SkylineServer, Snapshot, SnapshotReader};

use crate::check::{self, answer, fold, oracle_agrees, Reference, Tallies, Tally};
use crate::gen::{self, splitmix, Inputs, Kind, Query, Workload};
use crate::report::{Metric, Series};
use crate::stats::percentile;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop queries per round (whole passes over the list).
const CLOSED_QUERIES: usize = 65_536;
/// Open-loop arrivals per round (whole passes over the list).
const OPEN_ARRIVALS: usize = 32_768;
/// Publishes per round on `write-dynamic`, made beside the reader thread.
const WRITER_PUBLISHES: usize = 4;
/// Queries per reader-thread batch on `write-dynamic`; the reader takes a
/// fresh snapshot every [`CHUNK`] queries.
const READER_BATCH: usize = 2_048;
const CHUNK: usize = 64;
/// Sample positions checked against the oracle on an epoch that holds an
/// inserted point (other epochs are compared with the reference answers).
const EPOCH_SAMPLE: usize = 16;

/// Builds are sequential: on a host with one or two cores sequential layer
/// times are what transfer, and the environment is never consulted.
fn sequential() -> ParallelConfig {
    ParallelConfig::with_threads(0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Runs `f`, turning a panic into `None` (counted as a failure).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// A call timed together with the allocator traffic it caused. Only
/// meaningful while no other thread allocates.
struct Measured<T> {
    value: T,
    time: Duration,
    allocs: u64,
    alloc_bytes: u64,
    /// High-water mark above the live bytes before the call.
    peak_bytes: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> Measured<T> {
    mem::reset();
    let live = mem::stats().live_bytes;
    let start = Instant::now();
    let value = black_box(f());
    let time = start.elapsed();
    let after = mem::stats();
    Measured {
        value,
        time,
        allocs: after.allocs,
        alloc_bytes: after.alloc_bytes,
        peak_bytes: after.peak_bytes.saturating_sub(live),
    }
}

/// The program's flight recorder grows a per-thread ring of recent spans
/// until it holds `FLIGHT_CAPACITY` of them. Closing that many spans up
/// front finishes the one-time growth before anything is measured, so it
/// never lands inside a measured layer's allocation counts.
fn fill_flight_ring() {
    for _ in 0..skyline_core::telemetry::FLIGHT_CAPACITY {
        drop(skyline_core::span!("perfbench.warm_up"));
    }
}

/// A fixed loop that touches nothing of the program: its time tracks the
/// host's speed, never used to scale any metric.
fn host_calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = splitmix(x ^ black_box(i));
            }
            black_box(x);
            ms(start.elapsed())
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// What set-up leaves for the rounds.
struct Setup {
    inputs: Inputs,
    /// Epoch 1 of the set-up server, pinned: the read target. Its caches
    /// were filled by the reference pass.
    snap: Arc<Snapshot>,
    reference: Reference,
    container: Vec<u8>,
    snapshot_bytes: usize,
}

fn setup_once(w: Workload, seed: u64) -> Result<Setup, String> {
    let inputs = gen::generate(w, seed);
    let (server, _) = SkylineServer::with_dataset(&inputs.dataset, w.options());
    let snap = server.latest();
    if snap.epoch() != 1 || snap.len() != w.n() {
        return Err(format!("set-up published epoch {}", snap.epoch()));
    }
    // Measured before any query, while the result caches are still empty.
    let snapshot_bytes = snap.heap_bytes();
    let reference = Reference::new(&snap, &inputs.queries)?;
    let container = snap
        .to_container()
        .ok_or_else(|| "a populated snapshot has no container".to_string())?;
    Ok(Setup {
        inputs,
        snap,
        reference,
        container,
        snapshot_bytes,
    })
}

/// One update made visible, with the time of each call.
struct Step {
    update: Update,
    /// `insert` / `remove` call.
    buffer: Duration,
    /// From the update to the new epoch seen by a `SnapshotReader`.
    total: Duration,
    /// When `refresh()` returned.
    refreshed_at: Instant,
    /// The epoch this update should have published.
    epoch: u64,
    ok: bool,
}

#[derive(Clone, Copy)]
enum Update {
    Insert(Point),
    Remove,
}

/// The publish target: a server cold-started from the set-up container, so
/// the pinned read snapshot never holds the epoch chain it grows.
struct Publisher {
    server: SkylineServer,
    reader: SnapshotReader,
    base_len: usize,
    epoch: u64,
    cursor: usize,
    inserted: Option<Handle>,
}

impl Publisher {
    fn new(bytes: &[u8], options: ServerOptions, base_len: usize) -> Result<Publisher, String> {
        let (server, _) =
            SkylineServer::from_container(bytes, options).map_err(|e| e.to_string())?;
        let reader = server.reader();
        Ok(Publisher {
            server,
            reader,
            base_len,
            epoch: 1,
            cursor: 0,
            inserted: None,
        })
    }

    /// Inserts the next update point, or removes the one inserted last, then
    /// `refresh()`es and reads the new epoch back.
    fn step(&mut self, updates: &[Point]) -> (Step, Arc<Snapshot>) {
        let start = Instant::now();
        let (update, accepted, expected_len) = match self.inserted.take() {
            None => {
                let p = updates[self.cursor % updates.len()];
                self.cursor += 1;
                self.inserted = Some(self.server.insert(p));
                (Update::Insert(p), true, self.base_len + 1)
            }
            Some(h) => (Update::Remove, self.server.remove(h), self.base_len),
        };
        let buffered = Instant::now();
        let epoch = self.server.refresh();
        let refreshed_at = Instant::now();
        let snap = self.reader.snapshot();
        let total = start.elapsed();
        self.epoch += 1;
        let ok = accepted
            && epoch == self.epoch
            && snap.epoch() == self.epoch
            && snap.len() == expected_len;
        let step = Step {
            update,
            buffer: buffered - start,
            total,
            refreshed_at,
            epoch: self.epoch,
            ok,
        };
        (step, snap)
    }
}

/// Checks a published epoch: the base dataset must give the reference
/// answers; an epoch holding an inserted point is checked on a sample
/// against the oracle.
fn epoch_agrees(snap: &Snapshot, setup: &Setup) -> bool {
    let queries = &setup.inputs.queries;
    if snap.len() == setup.inputs.dataset.len() {
        setup.reference.sample_agrees(snap, queries)
    } else {
        let stride = setup.reference.sample.len() / EPOCH_SAMPLE;
        setup
            .reference
            .sample
            .iter()
            .step_by(stride.max(1))
            .all(|&i| oracle_agrees(snap, &queries[i]))
    }
}

/// One closed-loop pass: elapsed time and checksum.
fn closed_pass(snap: &Snapshot, queries: &[Query]) -> (Duration, u64) {
    let start = Instant::now();
    let sum = check::pass(snap, queries);
    (start.elapsed(), sum)
}

/// Open-loop driver: one thread issues arrivals on a fixed schedule and
/// times each from its scheduled arrival to its answer, so a stall is
/// charged to every arrival it delays.
struct OpenLoop {
    interval_ns: f64,
    /// Latency of every arrival, in ns.
    samples: Vec<u32>,
    /// Arrivals whose service began more than one interval after their
    /// scheduled time: how far the generator fell behind.
    late: u64,
}

impl OpenLoop {
    fn new(rate: u64) -> Self {
        OpenLoop {
            interval_ns: 1e9 / rate as f64,
            samples: Vec::new(),
            late: 0,
        }
    }

    /// Issues `count` arrivals, answering arrival `k` with `serve(k)`, and
    /// returns the checksum.
    fn run(&mut self, count: usize, mut serve: impl FnMut(usize) -> u64) -> u64 {
        let base = Instant::now();
        let mut sum = 0;
        for k in 0..count {
            let due = (k as f64 * self.interval_ns) as u64;
            let mut now = base.elapsed().as_nanos() as u64;
            while now < due {
                std::hint::spin_loop();
                now = base.elapsed().as_nanos() as u64;
            }
            if (now - due) as f64 > self.interval_ns {
                self.late += 1;
            }
            sum = fold(sum, serve(k));
            let done = base.elapsed().as_nanos() as u64;
            self.samples
                .push(u32::try_from(done - due).unwrap_or(u32::MAX));
        }
        sum
    }

    /// Exact median latency, in µs, of the arrivals since sample `from`.
    fn p50_since(&self, from: usize) -> Option<f64> {
        let mut recent = self.samples[from..].to_vec();
        percentile(&mut recent, 50.0).map(|ns| f64::from(ns) / 1e3)
    }
}

/// The `write-dynamic` reader thread: its own `SnapshotReader`, a fresh
/// snapshot every [`CHUNK`] queries.
struct Reader<'a> {
    setup: &'a Setup,
    reader: SnapshotReader,
    snap: Arc<Snapshot>,
    epoch: u64,
    cursor: usize,
    /// Answers on the base dataset that differ from the reference.
    bad: u64,
    /// `(epoch, time of the first answer on it)`.
    first_answers: Vec<(u64, Instant)>,
    /// Epochs holding an inserted point, checked after the batch.
    to_check: Vec<Arc<Snapshot>>,
}

impl Reader<'_> {
    fn answer(&mut self, k: usize) -> u64 {
        if k.is_multiple_of(CHUNK) {
            self.snap = self.reader.snapshot();
        }
        let queries = &self.setup.inputs.queries;
        let i = (self.cursor + k) % queries.len();
        let d = answer(&self.snap, &queries[i]);
        let base = self.snap.len() == self.setup.inputs.dataset.len();
        if self.snap.epoch() != self.epoch {
            self.epoch = self.snap.epoch();
            self.first_answers.push((self.epoch, Instant::now()));
            if !base {
                self.to_check.push(Arc::clone(&self.snap));
            }
        }
        if base && d != self.setup.reference.digests[i] {
            self.bad += 1;
        }
        d
    }
}

/// What the reader thread reports when the writer stops it.
struct ReaderOut {
    qps: Vec<f64>,
    /// Median latency of each open-loop batch, in µs.
    p50: Vec<f64>,
    open: OpenLoop,
    tally: Tally,
    first_answers: Vec<(u64, Instant)>,
}

/// Alternates closed-loop and open-loop batches while the writer publishes.
fn reader_thread(reader: SnapshotReader, setup: &Setup, rate: u64, stop: &AtomicBool) -> ReaderOut {
    let snap = setup.snap.clone();
    let mut r = Reader {
        setup,
        epoch: 0,
        reader,
        snap,
        cursor: 0,
        bad: 0,
        first_answers: Vec::new(),
        to_check: Vec::new(),
    };
    let mut out = ReaderOut {
        qps: Vec::new(),
        p50: Vec::new(),
        open: OpenLoop::new(rate),
        tally: Tally::default(),
        first_answers: Vec::new(),
    };
    while !stop.load(Ordering::SeqCst) {
        r.bad = 0;
        let ok = guarded(|| {
            let start = Instant::now();
            let mut sum = 0;
            for k in 0..READER_BATCH {
                sum = fold(sum, r.answer(k));
            }
            out.qps
                .push(READER_BATCH as f64 / start.elapsed().as_secs_f64());
            black_box(sum);
            r.cursor += READER_BATCH;
            let mark = out.open.samples.len();
            out.open.run(READER_BATCH, |k| r.answer(k));
            out.p50.extend(out.open.p50_since(mark));
            r.cursor += READER_BATCH;
        })
        .is_some();
        let wrong_epochs = r.to_check.drain(..).filter(|s| !epoch_agrees(s, setup));
        let bad = r.bad + wrong_epochs.count() as u64;
        let ops = 2 * READER_BATCH as u64;
        out.tally.record(ops, if ok { bad.min(ops) } else { ops });
    }
    out.first_answers = r.first_answers;
    out
}

/// The traced run's copy of the publish target's point set, rebuilt layer
/// by layer through `MaintainedIndex` and `SkylineIndexBuilder`.
struct Mirror {
    index: MaintainedIndex,
    inserted: Option<Handle>,
}

impl Mirror {
    fn new(w: Workload, dataset: &Dataset) -> Mirror {
        let mut index = MaintainedIndex::new(w.options().engine);
        for p in dataset.points() {
            index.insert(*p);
        }
        index.rebuild_with(&sequential());
        Mirror {
            index,
            inserted: None,
        }
    }

    fn apply(&mut self, update: Update) {
        match update {
            Update::Insert(p) => self.inserted = Some(self.index.insert(p)),
            Update::Remove => {
                if let Some(h) = self.inserted.take() {
                    self.index.remove(h);
                }
            }
        }
    }
}

/// Container sections and their per-layer metric names.
pub const SECTIONS: [(&str, &str); 11] = [
    ("dataset", "container.section.dataset_kb"),
    ("quadrant-results", "container.section.quadrant-results_kb"),
    ("quadrant-cells", "container.section.quadrant-cells_kb"),
    ("polyominoes", "container.section.polyominoes_kb"),
    ("global-results", "container.section.global-results_kb"),
    ("global-cells", "container.section.global-cells_kb"),
    ("dynamic-xlines", "container.section.dynamic-xlines_kb"),
    ("dynamic-ylines", "container.section.dynamic-ylines_kb"),
    ("dynamic-results", "container.section.dynamic-results_kb"),
    ("dynamic-cells", "container.section.dynamic-cells_kb"),
    ("handles", "container.section.handles_kb"),
];

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("build_ms", "ms"),
    ("build_peak_mb", "MB"),
    ("snapshot_mb", "MB"),
    ("container_mb", "MB"),
    ("cold_start_ms", "ms"),
    ("read_qps", "1/s"),
    ("read_p50_us", "us"),
    ("publish_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run; the container
/// section sizes follow them.
pub const LAYERS: [(&str, &str); 41] = [
    ("grid.new_ms", "ms"),
    ("quadrant.build_ms", "ms"),
    ("quadrant.allocs", "count"),
    ("quadrant.alloc_mb", "MB"),
    ("quadrant.heap_mb", "MB"),
    ("merge.ms", "ms"),
    ("merge.allocs", "count"),
    ("merge.heap_mb", "MB"),
    ("global.build_ms", "ms"),
    ("global.peak_mb", "MB"),
    ("global.allocs", "count"),
    ("global.alloc_mb", "MB"),
    ("global.heap_mb", "MB"),
    ("dynamic.build_ms", "ms"),
    ("dynamic.peak_mb", "MB"),
    ("dynamic.allocs", "count"),
    ("dynamic.heap_mb", "MB"),
    ("server.build_residue_ms", "ms"),
    ("build.layer_share", "ratio"),
    ("container.encode_ms", "ms"),
    ("container.decode_ms", "ms"),
    ("container.decode_allocs", "count"),
    ("server.cold_start_residue_ms", "ms"),
    ("cold_start.layer_share", "ratio"),
    ("read.locate_ns", "ns"),
    ("read.lookup_ns", "ns"),
    ("read.answer_ns", "ns"),
    ("read.map_ns", "ns"),
    ("read.cache_hit_ratio", "ratio"),
    ("read.allocs_per_query", "count"),
    ("read.alloc_bytes_per_query", "B"),
    ("read.answer_len_mean", "count"),
    ("maintained.rebuild_ms", "ms"),
    ("index.assemble_ms", "ms"),
    ("write.buffer_us", "us"),
    ("write.publish_residue_ms", "ms"),
    ("write.reader_catchup_us", "us"),
    ("publish.layer_share", "ratio"),
    ("host.calib_start_ms", "ms"),
    ("host.calib_mid_ms", "ms"),
    ("host.calib_end_ms", "ms"),
];

/// Every per-layer metric `(name, unit)`: [`LAYERS`], then the container
/// section sizes.
pub fn layer_metrics() -> Vec<(&'static str, &'static str)> {
    let sections = SECTIONS.iter().map(|&(_, metric)| (metric, "KB"));
    LAYERS.iter().copied().chain(sections).collect()
}

/// A finished run.
pub struct Outcome {
    /// The metrics for the result line: end-to-end when untraced, per-layer
    /// when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Attempted and failed operations per path.
    pub tallies: Tallies,
}

/// Everything one run accumulates.
struct Run<'a> {
    w: Workload,
    setup: &'a Setup,
    trace: bool,
    first: bool,
    tallies: Tallies,
    e2e: Series,
    layer: Series,
    latency: Vec<u32>,
    late: u64,
    notes: Vec<String>,
}

impl Run<'_> {
    fn queries(&self) -> &[Query] {
        &self.setup.inputs.queries
    }

    fn fail(&mut self, what: String) {
        if self.notes.len() < 32 {
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    /// `SkylineServer::with_dataset`, then (traced) each build layer.
    fn build(&mut self) {
        let ds = &self.setup.inputs.dataset;
        let built = measure(|| guarded(|| SkylineServer::with_dataset(ds, self.w.options())));
        let ok = built.value.as_ref().is_some_and(|(server, _)| {
            guarded(|| {
                let snap = server.latest();
                snap.epoch() == 1 && self.setup.reference.sample_agrees(&snap, self.queries())
            })
            .unwrap_or(false)
        });
        self.tallies.build.record_all(1, ok);
        if !ok {
            self.fail("a build disagreed with the reference answers".into());
        }
        let build_ms = ms(built.time);
        self.e2e.add("build_ms", build_ms);
        self.e2e.add("build_peak_mb", mb(built.peak_bytes));
        drop(built);
        if self.trace {
            self.replay_build(build_ms);
        }
    }

    fn replay_build(&mut self, build_ms: f64) {
        let ds = &self.setup.inputs.dataset;
        let opts = self.w.options();
        let cfg = sequential();
        let grid = measure(|| CellGrid::new(ds));
        let quad = measure(|| opts.engine.build_with(ds, &cfg));
        let merged = measure(|| merge(&quad.value));
        let glob = opts
            .with_global
            .then(|| measure(|| global::build_with(ds, opts.engine, &cfg)));
        let dynamic = opts
            .with_dynamic
            .then(|| measure(|| opts.dynamic_engine.build_with(ds, &cfg)));
        let l = &mut self.layer;
        l.add("grid.new_ms", ms(grid.time));
        l.add("quadrant.build_ms", ms(quad.time));
        l.add("quadrant.allocs", quad.allocs as f64);
        l.add("quadrant.alloc_mb", mb(quad.alloc_bytes));
        l.add("quadrant.heap_mb", mb(quad.value.heap_bytes() as u64));
        l.add("merge.ms", ms(merged.time));
        l.add("merge.allocs", merged.allocs as f64);
        l.add("merge.heap_mb", mb(merged.value.heap_bytes() as u64));
        let g = glob.as_ref();
        l.add("global.build_ms", g.map_or(0.0, |g| ms(g.time)));
        l.add("global.peak_mb", g.map_or(0.0, |g| mb(g.peak_bytes)));
        l.add("global.allocs", g.map_or(0.0, |g| g.allocs as f64));
        l.add("global.alloc_mb", g.map_or(0.0, |g| mb(g.alloc_bytes)));
        l.add(
            "global.heap_mb",
            g.map_or(0.0, |g| mb(g.value.heap_bytes() as u64)),
        );
        let d = dynamic.as_ref();
        l.add("dynamic.build_ms", d.map_or(0.0, |d| ms(d.time)));
        l.add("dynamic.peak_mb", d.map_or(0.0, |d| mb(d.peak_bytes)));
        l.add("dynamic.allocs", d.map_or(0.0, |d| d.allocs as f64));
        l.add(
            "dynamic.heap_mb",
            d.map_or(0.0, |d| mb(d.value.heap_bytes() as u64)),
        );
        let covered = ms(quad.time)
            + ms(merged.time)
            + g.map_or(0.0, |g| ms(g.time))
            + d.map_or(0.0, |d| ms(d.time));
        l.add("server.build_residue_ms", build_ms - covered);
        l.add("build.layer_share", covered / build_ms);
        if self.first {
            // The replayed layers must do the served path's work: same
            // answers on the oracle-checked sample.
            let snap = &self.setup.snap;
            let handles = snap.handles();
            let mapped = |ids: &[skyline_core::geometry::PointId]| {
                let mut h: Vec<Handle> = ids.iter().map(|id| handles[id.index()]).collect();
                h.sort_unstable();
                h
            };
            let same = self.setup.reference.sample.iter().all(|&i| {
                let q = &self.setup.inputs.queries[i];
                match q.kind {
                    Kind::Quadrant => *snap.quadrant(q.p) == *mapped(quad.value.query(q.p)),
                    Kind::SafeZone => {
                        let id = merged.value.polyomino_id_of_cell(quad.value.cell_key(q.p));
                        snap.safe_zone(q.p) == Some(merged.value.polyomino(id))
                    }
                    Kind::Global => {
                        g.is_some_and(|g| *snap.global(q.p) == *mapped(g.value.query(q.p)))
                    }
                    Kind::Dynamic => {
                        d.is_some_and(|d| *snap.dynamic(q.p) == *mapped(d.value.query(q.p)))
                    }
                }
            });
            self.tallies.build.record_all(1, same);
            if !same {
                self.fail("replayed build layers answer differently from the served index".into());
            }
        }
    }

    /// `SkylineServer::from_container` plus the first answered query, then
    /// (traced) encode and decode. Returns the cold-started epoch: the
    /// round reads from it, so each round reads freshly allocated memory
    /// and a run does not hang on the page placement of one snapshot.
    fn cold_start(&mut self) -> Arc<Snapshot> {
        let bytes = &self.setup.container;
        let first = self.queries()[0];
        let start = Instant::now();
        let started = guarded(|| {
            let (server, _) = SkylineServer::from_container(bytes, self.w.options()).ok()?;
            let snap = server.reader().snapshot();
            let d = answer(&snap, &first);
            Some((server, snap, d))
        })
        .flatten();
        let cold_ms = ms(start.elapsed());
        let ok = started.as_ref().is_some_and(|(_, snap, d)| {
            *d == self.setup.reference.digests[0]
                && snap.epoch() == 1
                && guarded(|| self.setup.reference.sample_agrees(snap, self.queries()))
                    .unwrap_or(false)
        });
        self.tallies.cold_start.record_all(1, ok);
        if !ok {
            self.fail("a cold start was refused or answered wrongly".into());
        }
        self.e2e.add("cold_start_ms", cold_ms);
        if self.trace {
            self.replay_cold_start(cold_ms);
        }
        match started {
            Some((_, snap, _)) if ok => snap,
            _ => Arc::clone(&self.setup.snap),
        }
    }

    fn replay_cold_start(&mut self, cold_ms: f64) {
        let snap = &self.setup.snap;
        let index = snap.index().expect("the set-up snapshot is populated");
        let encoded = measure(|| container::encode_index(index, snap.handles()));
        let decoded = measure(|| container::decode_index(&self.setup.container));
        let ok = decoded.value.is_ok() && (!self.first || encoded.value == self.setup.container);
        self.tallies.cold_start.record_all(1, ok);
        if !ok {
            self.fail("replayed encode/decode differs from the served container".into());
        }
        let l = &mut self.layer;
        l.add("container.encode_ms", ms(encoded.time));
        l.add("container.decode_ms", ms(decoded.time));
        l.add("container.decode_allocs", decoded.allocs as f64);
        l.add("server.cold_start_residue_ms", cold_ms - ms(decoded.time));
        l.add("cold_start.layer_share", ms(decoded.time) / cold_ms);
        if self.first {
            let sections = container::sections(&self.setup.container).unwrap_or_default();
            for (name, metric) in SECTIONS {
                let len = sections
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(0, |s| s.length);
                self.layer.add(metric, len as f64 / 1e3);
            }
        }
    }

    /// Records a publish step's outcome; returns it for the write replays.
    fn publish_step(&mut self, step: Option<(Step, Arc<Snapshot>)>) -> Option<Step> {
        let Some((step, snap)) = step else {
            self.tallies.publish.record(1, 1);
            self.fail("a publish panicked".into());
            return None;
        };
        let ok = step.ok && guarded(|| epoch_agrees(&snap, self.setup)).unwrap_or(false);
        self.tallies.publish.record_all(1, ok);
        if !ok {
            self.fail(format!(
                "epoch {} was not visible or answered wrongly",
                step.epoch
            ));
        }
        self.e2e.add("publish_ms", ms(step.total));
        Some(step)
    }

    /// One publish (`write-dynamic`: several, beside the reader thread),
    /// then (traced) the maintained rebuild and index assembly.
    fn publish(&mut self, publisher: &mut Publisher, mirror: Option<&mut Mirror>) {
        let updates = &self.setup.inputs.updates;
        let mut steps = Vec::new();
        let mut catchup = Vec::new();
        if self.w == Workload::WriteDynamic {
            let stop = AtomicBool::new(false);
            let reader = publisher.server.reader();
            let setup = self.setup;
            let rate = self.w.open_loop_rate();
            let (raw, out) = std::thread::scope(|s| {
                let handle = s.spawn(|| reader_thread(reader, setup, rate, &stop));
                let raw: Vec<_> = (0..WRITER_PUBLISHES)
                    .map(|_| guarded(|| publisher.step(updates)))
                    .collect();
                stop.store(true, Ordering::SeqCst);
                (raw, handle.join())
            });
            for r in raw {
                steps.extend(self.publish_step(r));
            }
            match out {
                Ok(mut out) => {
                    for qps in out.qps {
                        self.e2e.add("read_qps", qps);
                    }
                    for p50 in out.p50 {
                        self.e2e.add("read_p50_us", p50);
                    }
                    self.latency.append(&mut out.open.samples);
                    self.late += out.open.late;
                    self.tallies.read.merge(out.tally);
                    if out.tally.failed > 0 {
                        self.fail("the reader beside the writer saw wrong answers".into());
                    }
                    for (epoch, seen) in out.first_answers {
                        if let Some(step) = steps.iter().find(|s| s.epoch == epoch) {
                            let lag = seen.saturating_duration_since(step.refreshed_at);
                            catchup.push(lag.as_secs_f64() * 1e6);
                        }
                    }
                }
                Err(_) => {
                    self.tallies.read.record(1, 1);
                    self.fail("the reader thread panicked".into());
                }
            }
        } else {
            let r = guarded(|| publisher.step(updates));
            steps.extend(self.publish_step(r));
        }
        if let Some(mirror) = mirror {
            self.replay_publish(mirror, &steps, &catchup);
        }
    }

    fn replay_publish(&mut self, mirror: &mut Mirror, steps: &[Step], catchup: &[f64]) {
        let opts = self.w.options();
        let cfg = sequential();
        let builder = SkylineIndexBuilder::default()
            .engine(opts.engine)
            .dynamic_engine(opts.dynamic_engine)
            .with_global(opts.with_global)
            .with_dynamic(opts.with_dynamic);
        for step in steps {
            mirror.apply(step.update);
            let rebuild = measure(|| mirror.index.rebuild_with(&cfg));
            let Some((diagram, _)) = mirror.index.built() else {
                continue;
            };
            let quadrant = diagram.clone();
            let dataset = Dataset::from_coords(mirror.index.live_points().map(|(_, p)| (p.x, p.y)))
                .expect("live points are valid");
            let assembled = measure(|| builder.assemble(&dataset, quadrant, &cfg));
            let total = ms(step.total);
            let covered = ms(rebuild.time) + ms(assembled.time);
            let l = &mut self.layer;
            l.add("maintained.rebuild_ms", ms(rebuild.time));
            l.add("index.assemble_ms", ms(assembled.time));
            l.add("write.buffer_us", step.buffer.as_secs_f64() * 1e6);
            l.add("write.publish_residue_ms", total - covered);
            l.add("publish.layer_share", covered / total);
        }
        if self.w == Workload::WriteDynamic {
            for &lag in catchup {
                self.layer.add("write.reader_catchup_us", lag);
            }
        } else {
            // No reader runs beside the writer on the read workloads.
            self.layer.add("write.reader_catchup_us", 0.0);
        }
    }

    /// Closed- and open-loop passes over the query list on the round's
    /// cold-started snapshot (`write-dynamic` reads beside the writer
    /// instead), then (traced) the read path one layer at a time.
    fn read(&mut self, open: &mut OpenLoop, snap: Arc<Snapshot>) {
        let expected = self.setup.reference.fold;
        let len = self.queries().len();
        // An untimed pass fills the fresh snapshot's result caches.
        let warm = guarded(|| check::pass(&snap, self.queries()));
        self.read_pass(len, warm == Some(expected));
        if self.w != Workload::WriteDynamic {
            for _ in 0..CLOSED_QUERIES / len {
                let pass = guarded(|| closed_pass(&snap, self.queries()));
                if let Some((time, _)) = pass {
                    self.e2e.add("read_qps", len as f64 / time.as_secs_f64());
                }
                self.read_pass(len, pass.map(|(_, sum)| sum) == Some(expected));
            }
            let mark = open.samples.len();
            for _ in 0..OPEN_ARRIVALS / len {
                let queries = &self.setup.inputs.queries;
                let sum = guarded(|| open.run(len, |k| answer(&snap, &queries[k])));
                self.read_pass(len, sum == Some(expected));
            }
            if let Some(p50) = open.p50_since(mark) {
                self.e2e.add("read_p50_us", p50);
            }
        }
        if self.trace {
            self.replay_read(&snap);
        }
    }

    fn read_pass(&mut self, len: usize, ok: bool) {
        self.tallies.read.record_all(len as u64, ok);
        if !ok {
            self.fail("a read pass disagreed with the reference checksum".into());
        }
    }

    fn replay_read(&mut self, snap: &Snapshot) {
        let index = snap.index().expect("the set-up snapshot is populated");
        let (qd, polys) = (index.quadrant_diagram(), index.polyominoes());
        let (gd, dd) = (index.global_diagram(), index.dynamic_diagram());
        let queries = &self.setup.inputs.queries;
        let per_query = |d: Duration| d.as_secs_f64() * 1e9 / queries.len() as f64;
        let locate = measure(|| {
            queries.iter().fold(0usize, |acc, q| {
                acc ^ match q.kind {
                    Kind::Quadrant | Kind::SafeZone => polys.polyomino_id_of_cell(qd.cell_key(q.p)),
                    Kind::Global => gd.map_or(0, |g| g.cell_key(q.p)),
                    Kind::Dynamic => dd.map_or(0, |d| d.subcell_key(q.p)),
                }
            })
        });
        let lookup = measure(|| {
            queries.iter().fold(0usize, |acc, q| {
                acc + match q.kind {
                    Kind::Quadrant => qd.query(q.p).len(),
                    Kind::Global => gd.map_or(0, |g| g.query(q.p).len()),
                    Kind::Dynamic => dd.map_or(0, |d| d.query(q.p).len()),
                    Kind::SafeZone => index.safe_zone(q.p).area(),
                }
            })
        });
        let before = snap.cache_stats();
        let served = measure(|| {
            queries.iter().fold(0usize, |acc, q| {
                acc + match q.kind {
                    Kind::Quadrant => snap.quadrant(q.p).len(),
                    Kind::Global => snap.global(q.p).len(),
                    Kind::Dynamic => snap.dynamic(q.p).len(),
                    Kind::SafeZone => snap.safe_zone(q.p).map_or(0, |z| z.area()),
                }
            })
        });
        let after = snap.cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let n = queries.len() as f64;
        let l = &mut self.layer;
        l.add("read.locate_ns", per_query(locate.time));
        l.add("read.lookup_ns", per_query(lookup.time));
        l.add("read.answer_ns", per_query(served.time));
        l.add(
            "read.map_ns",
            per_query(served.time) - per_query(lookup.time),
        );
        l.add(
            "read.cache_hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        );
        l.add("read.allocs_per_query", served.allocs as f64 / n);
        l.add("read.alloc_bytes_per_query", served.alloc_bytes as f64 / n);
        if self.first {
            // Answer length: handles for the three skyline families, the
            // skyline of the zone's result for a safe zone.
            let total: usize = queries
                .iter()
                .map(|q| match q.kind {
                    Kind::SafeZone => qd.results().get(index.safe_zone(q.p).result).len(),
                    _ => served_len(snap, q),
                })
                .sum();
            self.layer.add("read.answer_len_mean", total as f64 / n);
        }
    }
}

/// Length of the served answer to `q` (skyline families only).
fn served_len(snap: &Snapshot, q: &Query) -> usize {
    match q.kind {
        Kind::Quadrant => snap.quadrant(q.p).len(),
        Kind::Global => snap.global(q.p).len(),
        Kind::Dynamic => snap.dynamic(q.p).len(),
        Kind::SafeZone => 0,
    }
}

/// Runs one workload: set-up, then rounds until `seconds` have passed.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    fill_flight_ring();
    let calib_start = host_calibration_ms();
    let mut tallies = Tallies::default();
    let mut e2e = Series::default();
    let mut notes = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is dropped first, so set-ups do not overlap
        // in memory.
        setup = None;
        let start = Instant::now();
        let made = guarded(|| setup_once(w, seed));
        let secs = start.elapsed().as_secs_f64();
        match made {
            Some(Ok(s)) => {
                tallies.build.record(1, 0);
                e2e.add("setup_s", secs);
                setup = Some(s);
            }
            Some(Err(e)) => {
                tallies.build.record(1, 1);
                notes.push(format!("FAILED: set-up: {e}"));
            }
            None => {
                tallies.build.record(1, 1);
                notes.push("FAILED: set-up panicked".into());
            }
        }
    }
    let Some(setup) = setup else {
        return Outcome {
            metrics: Vec::new(),
            notes,
            tallies,
        };
    };
    let publisher = Publisher::new(&setup.container, w.options(), setup.inputs.dataset.len());
    let mut publisher = match publisher {
        Ok(p) => p,
        Err(e) => {
            tallies.cold_start.record(1, 1);
            notes.push(format!("FAILED: publish target refused the container: {e}"));
            return Outcome {
                metrics: Vec::new(),
                notes,
                tallies,
            };
        }
    };
    let mut mirror = trace.then(|| Mirror::new(w, &setup.inputs.dataset));
    let mut run = Run {
        w,
        setup: &setup,
        trace,
        first: true,
        tallies,
        e2e,
        layer: Series::default(),
        latency: Vec::new(),
        late: 0,
        notes,
    };
    let mut open = OpenLoop::new(w.open_loop_rate());
    let start = Instant::now();
    let (deadline, mid) = (
        Duration::from_secs(seconds),
        Duration::from_secs(seconds) / 2,
    );
    let mut calib_mid = None;
    let mut rounds = 0;
    while run.first || start.elapsed() < deadline {
        run.build();
        let snap = run.cold_start();
        run.publish(&mut publisher, mirror.as_mut());
        run.read(&mut open, snap);
        if calib_mid.is_none() && start.elapsed() >= mid {
            calib_mid = Some(host_calibration_ms());
        }
        run.first = false;
        rounds += 1;
    }
    let calib_end = host_calibration_ms();
    let calib_mid = calib_mid.unwrap_or(calib_end);
    run.latency.append(&mut open.samples);
    run.late += open.late;
    finish(run, rounds, [calib_start, calib_mid, calib_end])
}

/// Reduces the series to the printed metrics and notes.
fn finish(mut run: Run<'_>, rounds: usize, calib: [f64; 3]) -> Outcome {
    let setup = run.setup;
    let arrivals = run.latency.len();
    let pct = |samples: &mut Vec<u32>, p: f64| {
        percentile(samples, p).map_or(f64::NAN, |ns| f64::from(ns) / 1e3)
    };
    let p50 = pct(&mut run.latency, 50.0);
    let p99 = pct(&mut run.latency, 99.0);
    let p999 = pct(&mut run.latency, 99.9);
    let e2e_value = |name: &str| -> f64 {
        match name {
            "snapshot_mb" => mb(setup.snapshot_bytes as u64),
            "container_mb" => mb(setup.container.len() as u64),
            _ => run.e2e.median(name).unwrap_or(f64::NAN),
        }
    };
    let e2e: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            unit,
            value: e2e_value(name),
        })
        .collect();
    for (name, value) in [
        ("host.calib_start_ms", calib[0]),
        ("host.calib_mid_ms", calib[1]),
        ("host.calib_end_ms", calib[2]),
    ] {
        run.layer.add(name, value);
    }
    let mut notes = std::mem::take(&mut run.notes);
    notes.push(format!(
        "workload {} n={} queries={} rounds={} dataset_digest={:016x} query_digest={:016x} checksum={:016x}",
        run.w.name(),
        setup.inputs.dataset.len(),
        setup.inputs.queries.len(),
        rounds,
        setup.inputs.dataset_digest(),
        setup.inputs.query_digest(),
        setup.reference.fold,
    ));
    let label = if run.trace { "traced " } else { "" };
    for m in &e2e {
        let samples = match m.name.as_str() {
            "snapshot_mb" | "container_mb" => 1,
            name => run.e2e.count(name),
        };
        notes.push(format!(
            "{label}{} {} {} (samples {samples})",
            m.name, m.value, m.unit
        ));
    }
    notes.push(format!(
        "diagnostic read.p50_us {p50} us, read.p99_us {p99} us, read.p999_us {p999} us over {arrivals} open-loop arrivals \
         at {}/s ({} beyond p99, {} beyond p999; {} arrivals started more than one interval late)",
        run.w.open_loop_rate(),
        arrivals / 100,
        arrivals / 1000,
        run.late
    ));
    notes.push(format!(
        "host.calib_ms start {} mid {} end {} (a fixed loop outside the program; never used to scale)",
        calib[0], calib[1], calib[2]
    ));
    for (path, t) in run.tallies.rows() {
        notes.push(format!(
            "ops {path}: attempted {} failed {}",
            t.attempted, t.failed
        ));
    }
    let metrics = if run.trace {
        let layers: Vec<Metric> = layer_metrics()
            .into_iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                unit,
                value: run.layer.median(name).unwrap_or(f64::NAN),
            })
            .collect();
        for m in &layers {
            notes.push(format!(
                "{} {} {} (samples {})",
                m.name,
                m.value,
                m.unit,
                run.layer.count(&m.name)
            ));
        }
        layers
    } else {
        e2e
    };
    Outcome {
        metrics,
        notes,
        tallies: run.tallies,
    }
}
