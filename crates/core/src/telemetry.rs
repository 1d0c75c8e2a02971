//! Dependency-free observability: an atomic metrics registry, RAII phase
//! spans, and the monotonic clock the rest of the workspace is required to
//! use (the `no-ad-hoc-timing` lint in `cargo xtask lint` bans raw
//! [`std::time::Instant`] from library code outside this module).
//!
//! Everything here follows the same hand-rolled, lock-free discipline as
//! [`crate::epoch`] and the serve handle arenas: registration is an
//! append-only linked list of leaked nodes chained through
//! [`std::sync::OnceLock`] next-pointers (wait-free for readers), updates
//! are relaxed atomics, and span events buffer in a per-thread `Vec` so the
//! hot path never takes a lock — the single `Mutex` guards the *drain*
//! side only (`stop_recording`, thread exit).
//!
//! # The three layers
//!
//! * **Metrics registry** — named [`Counter`]s and fixed-bucket log2
//!   [`Histogram`]s, interned by `&'static str` key. Call sites use the
//!   [`counter!`](crate::counter) / [`histogram!`](crate::histogram) macros,
//!   which cache the registry lookup in a per-site static so steady-state
//!   cost is one atomic add. [`metrics_snapshot`] returns everything,
//!   sorted by name; [`reset_metrics`] zeroes the values (the nodes stay
//!   registered forever).
//! * **Phase spans** — [`span!`](crate::span) opens an RAII scope timer
//!   carrying a name, the compact per-process thread id, the nesting depth
//!   on that thread, and an optional `u64` payload (points processed, cells
//!   emitted). Nothing is recorded unless a trace session is active
//!   ([`start_recording`] / [`stop_recording`]): inactive spans cost one
//!   relaxed atomic load.
//! * **Clock** — [`now_ns`] / [`ms_since`], nanoseconds on a process-wide
//!   monotonic epoch. Always available, feature or not, because product
//!   data (e.g. workload reports) depends on it.
//! * **Flight recorder** — every closed span is additionally written into a
//!   bounded per-thread ring ([`FLIGHT_CAPACITY`] events, overwrite-oldest),
//!   whether or not a trace session is active. A *trigger* —
//!   latency-over-threshold ([`set_latency_trigger`]), invariant violation
//!   ([`trigger_anomaly`]), or panic ([`install_panic_trigger`]) — freezes
//!   the recorder: each thread contributes the tail of its ring (events
//!   ending within the freeze window) to a shared dump, drained by
//!   [`take_anomaly_dump`]. The anomalous build or query is captured
//!   *after the fact*, with no `start_recording` pre-arming. The hot path
//!   stays lock-free: the ring is thread-local and trigger checks are two
//!   relaxed atomic loads per closed span; the dump mutex is only touched
//!   once per thread per anomaly.
//!
//! # Feature gate and determinism
//!
//! With the `telemetry` cargo feature off (`default-features = false` from
//! a dependent), every macro still expands and type-checks but resolves to
//! zero-sized no-ops: no registry, no buffers, no atomics. Probes never
//! influence diagram outputs either way — `fuzz_diff`/`stress_diff`
//! digests are byte-identical with the feature on or off, and a
//! differential test pins query results across recording on/off at thread
//! counts {0, 1, 4}.

use crate::sync::OnceLock;
use std::time::Instant;

pub mod mem;

/// Number of histogram buckets: bucket `i` counts values whose bit length
/// is `i` (bucket 0 is exactly zero, bucket `i >= 1` covers
/// `[2^(i-1), 2^i)`), so the top bucket index for `u64::MAX` is 64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log2 bucket index of a value: 0 for 0, otherwise its bit length
/// (`bucket_index(1) == 1`, `bucket_index(2) == bucket_index(3) == 2`, …).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    64 - value.leading_zeros() as usize
}

/// Inclusive lower bound of histogram bucket `index` (0 for buckets 0/1).
pub fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 | 1 => 0,
        i if i >= 65 => u64::MAX,
        i => 1u64 << (i - 1),
    }
}

/// Capacity of each thread's flight-recorder ring, in closed span events.
/// Oldest events are overwritten once the ring is full, so the ring always
/// holds the most recent `FLIGHT_CAPACITY` spans closed on that thread.
pub const FLIGHT_CAPACITY: usize = 2048;

/// Default freeze window: how far back (in time before the trigger) ring
/// events are considered part of the anomaly, unless overridden with
/// [`set_flight_window_ms`].
pub const DEFAULT_FLIGHT_WINDOW_MS: u64 = 250;

/// Nanoseconds since the first telemetry clock use in this process. The
/// epoch is process-wide, so timestamps from different threads share one
/// monotonic axis — exactly what the Chrome-trace exporter needs.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let nanos = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// Milliseconds elapsed since a [`now_ns`] timestamp.
pub fn ms_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 / 1_000_000.0
}

/// Busy-waits until the telemetry clock reaches `target_ns` (returns
/// immediately if it already has). This is the workspace's one
/// scheduled-wait primitive: raw `thread::sleep` is banned by the
/// `no-raw-spawn` lint, and its wake-up jitter would poison open-loop
/// latency accounting anyway — a spin wakes within nanoseconds of the
/// scheduled arrival, at the cost of burning the waiting core.
pub fn spin_until(target_ns: u64) {
    while now_ns() < target_ns {
        std::hint::spin_loop();
    }
}

/// One closed span, as drained by [`stop_recording`]. `start_ns`/`dur_ns`
/// are on the [`now_ns`] axis; `depth` is the number of enclosing spans on
/// the same thread when this one opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"pool.worker"`.
    pub name: &'static str,
    /// Compact per-process thread index (assigned on first span).
    pub thread: u64,
    /// Nesting depth on `thread` when the span opened (0 = top level).
    pub depth: u32,
    /// Open timestamp on the [`now_ns`] axis.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (never negative by construction).
    pub dur_ns: u64,
    /// Optional work measure (points processed, cells emitted, …).
    pub payload: Option<u64>,
}

/// One counter's value in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registry key.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram's state in a [`MetricsSnapshot`]. Only populated buckets
/// are listed, as `(bucket_index, count)` pairs in ascending index order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry key.
    pub name: &'static str,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Non-empty `(bucket_index, count)` pairs; see [`bucket_index`].
    pub buckets: Vec<(usize, u64)>,
}

/// Everything in the metrics registry at one instant, sorted by name so
/// snapshots are deterministic regardless of registration order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

/// A drained flight-recorder dump: the recent span events every thread
/// contributed after an anomaly trigger fired. Produced by
/// [`take_anomaly_dump`]; feed `events` straight to the Chrome-trace
/// exporter (`skyline_bench::json::render_chrome_trace`) for a
/// structurally valid trace of the anomaly's immediate past.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnomalyDump {
    /// Which trigger fired first: `"latency-over-threshold"`, `"panic"`,
    /// or the reason passed to [`trigger_anomaly`].
    pub reason: &'static str,
    /// [`now_ns`] timestamp at which the trigger fired.
    pub trigger_ns: u64,
    /// Contributed ring events, ordered like `stop_recording` output
    /// (`(thread, start_ns)`; ties broken longest-span-first).
    pub events: Vec<SpanEvent>,
}

/// An unregistered, always-compiled atomic counter for *per-instance*
/// statistics (the serve handle arenas hold these). Unlike the registry's
/// [`Counter`]s it has no name and never no-ops: per-snapshot arena stats
/// are product data, not telemetry.
#[derive(Debug, Default)]
pub struct CounterCell(crate::sync::AtomicU64);

impl CounterCell {
    /// A zeroed cell.
    pub const fn new() -> Self {
        CounterCell(crate::sync::AtomicU64::new(0))
    }

    /// Adds `delta` (relaxed; totals are exact once writers quiesce).
    #[inline]
    pub fn add(&self, delta: u64) {
        // relaxed-ok: pure statistic; nothing is published through it.
        self.0.fetch_add(delta, crate::sync::Ordering::Relaxed);
    }

    /// Current value (relaxed read).
    #[inline]
    pub fn get(&self) -> u64 {
        // relaxed-ok: monitoring read; exact only once writers quiesce.
        self.0.load(crate::sync::Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        // relaxed-ok: caller quiesces writers before resetting stats.
        self.0.store(0, crate::sync::Ordering::Relaxed);
    }
}

/// Bumps a registry counter by `delta`. The registry lookup happens once
/// per call site (cached in a hidden static); with the `telemetry` feature
/// off the whole statement is a no-op (the delta expression is still
/// type-checked but feeds a zero-sized sink).
///
/// ```
/// skyline_core::counter!("doc.example.events").add(3);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SKYLINE_COUNTER_SITE: $crate::telemetry::CounterSite =
            $crate::telemetry::CounterSite::new();
        __SKYLINE_COUNTER_SITE.resolve($name)
    }};
}

/// Resolves a registry histogram for recording, mirroring
/// [`counter!`](crate::counter)'s per-site caching and feature gating.
///
/// ```
/// skyline_core::histogram!("doc.example.sizes").record(17);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SKYLINE_HISTOGRAM_SITE: $crate::telemetry::HistogramSite =
            $crate::telemetry::HistogramSite::new();
        __SKYLINE_HISTOGRAM_SITE.resolve($name)
    }};
}

/// Opens an RAII phase span that closes (and records, if a trace session
/// is active) when the returned guard drops. The optional second argument
/// is the span's `u64` payload.
///
/// ```
/// {
///     let _span = skyline_core::span!("doc.example.phase", 42);
///     // ... timed work ...
/// } // span closes here
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::telemetry::Span::enter($name, ::core::option::Option::None)
    };
    ($name:expr, $payload:expr) => {
        $crate::telemetry::Span::enter($name, ::core::option::Option::Some($payload))
    };
}

#[cfg(feature = "telemetry")]
mod active {
    use super::{
        bucket_index, now_ns, AnomalyDump, CounterCell, CounterSnapshot, HistogramSnapshot,
        MetricsSnapshot, SpanEvent, DEFAULT_FLIGHT_WINDOW_MS, FLIGHT_CAPACITY, HISTOGRAM_BUCKETS,
    };
    use crate::sync::{AtomicU64, Mutex, OnceLock, Ordering};
    use std::cell::RefCell;

    /// A named, registered counter. Obtained via
    /// [`counter!`](crate::counter); lives forever (registry nodes are
    /// leaked once, like any `static`).
    #[derive(Debug)]
    pub struct Counter {
        name: &'static str,
        cell: CounterCell,
        next: OnceLock<&'static Counter>,
    }

    impl Counter {
        /// The registry key.
        pub fn name(&self) -> &'static str {
            self.name
        }

        /// Adds `delta` (relaxed).
        #[inline]
        pub fn add(&self, delta: u64) {
            self.cell.add(delta);
        }

        /// Current value.
        pub fn get(&self) -> u64 {
            self.cell.get()
        }
    }

    /// A named, registered log2 histogram (see [`bucket_index`]).
    #[derive(Debug)]
    pub struct Histogram {
        name: &'static str,
        sum: CounterCell,
        buckets: [CounterCell; HISTOGRAM_BUCKETS],
        next: OnceLock<&'static Histogram>,
    }

    impl Histogram {
        /// The registry key.
        pub fn name(&self) -> &'static str {
            self.name
        }

        /// Records one value into its log2 bucket.
        #[inline]
        pub fn record(&self, value: u64) {
            self.buckets[bucket_index(value)].add(1);
            self.sum.add(value);
        }

        /// Total recorded values (sum over buckets).
        pub fn count(&self) -> u64 {
            self.buckets.iter().map(CounterCell::get).sum()
        }

        /// Sum of recorded values (wrapping).
        pub fn sum(&self) -> u64 {
            self.sum.get()
        }

        /// Count in bucket `index` (0 beyond the last bucket).
        pub fn bucket_count(&self, index: usize) -> u64 {
            self.buckets.get(index).map_or(0, CounterCell::get)
        }
    }

    static COUNTER_HEAD: OnceLock<&'static Counter> = OnceLock::new();
    static HISTOGRAM_HEAD: OnceLock<&'static Histogram> = OnceLock::new();

    /// Interns `name` in the counter registry: an append-only `OnceLock`
    /// chain, wait-free for re-lookups. Losing a registration race wastes
    /// one small leaked node and retries — registration happens once per
    /// call site, so the waste is bounded by the source code itself.
    pub fn register_counter(name: &'static str) -> &'static Counter {
        let mut slot = &COUNTER_HEAD;
        loop {
            match slot.get() {
                Some(node) if node.name == name => return node,
                Some(node) => slot = &node.next,
                None => {
                    let fresh: &'static Counter = Box::leak(Box::new(Counter {
                        name,
                        cell: CounterCell::new(),
                        next: OnceLock::new(),
                    }));
                    if slot.set(fresh).is_ok() {
                        return fresh;
                    }
                    // Raced: re-inspect this slot (the winner may be us by
                    // name); the loop continues from the same position.
                }
            }
        }
    }

    /// Interns `name` in the histogram registry; see [`register_counter`].
    pub fn register_histogram(name: &'static str) -> &'static Histogram {
        let mut slot = &HISTOGRAM_HEAD;
        loop {
            match slot.get() {
                Some(node) if node.name == name => return node,
                Some(node) => slot = &node.next,
                None => {
                    let fresh: &'static Histogram = Box::leak(Box::new(Histogram {
                        name,
                        sum: CounterCell::new(),
                        buckets: std::array::from_fn(|_| CounterCell::new()),
                        next: OnceLock::new(),
                    }));
                    if slot.set(fresh).is_ok() {
                        return fresh;
                    }
                }
            }
        }
    }

    fn counters() -> impl Iterator<Item = &'static Counter> {
        let mut cursor = COUNTER_HEAD.get().copied();
        std::iter::from_fn(move || {
            let node = cursor?;
            cursor = node.next.get().copied();
            Some(node)
        })
    }

    fn histograms() -> impl Iterator<Item = &'static Histogram> {
        let mut cursor = HISTOGRAM_HEAD.get().copied();
        std::iter::from_fn(move || {
            let node = cursor?;
            cursor = node.next.get().copied();
            Some(node)
        })
    }

    /// Everything in the registry right now, sorted by name.
    pub fn metrics_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: counters()
                .map(|c| CounterSnapshot {
                    name: c.name,
                    value: c.get(),
                })
                .collect(),
            histograms: histograms()
                .map(|h| HistogramSnapshot {
                    name: h.name,
                    count: h.count(),
                    sum: h.sum(),
                    buckets: (0..HISTOGRAM_BUCKETS)
                        .filter_map(|i| {
                            let count = h.bucket_count(i);
                            (count > 0).then_some((i, count))
                        })
                        .collect(),
                })
                .collect(),
        };
        snap.counters.sort_by_key(|c| c.name);
        snap.histograms.sort_by_key(|h| h.name);
        snap
    }

    /// Zeroes every registered counter and histogram (nodes stay
    /// registered). Benches call this between configurations so snapshots
    /// attribute work to the right run.
    pub fn reset_metrics() {
        for c in counters() {
            c.cell.reset();
        }
        for h in histograms() {
            h.sum.reset();
            for b in &h.buckets {
                b.reset();
            }
        }
    }

    /// Per-call-site cache behind [`counter!`](crate::counter).
    #[derive(Debug)]
    pub struct CounterSite(OnceLock<&'static Counter>);

    impl Default for CounterSite {
        fn default() -> Self {
            Self::new()
        }
    }

    impl CounterSite {
        /// An empty site (resolved on first use).
        pub const fn new() -> Self {
            CounterSite(OnceLock::new())
        }

        /// The counter for `name`, registering it on first use.
        #[inline]
        pub fn resolve(&self, name: &'static str) -> &'static Counter {
            self.0.get_or_init(|| register_counter(name))
        }
    }

    /// Per-call-site cache behind [`histogram!`](crate::histogram).
    #[derive(Debug)]
    pub struct HistogramSite(OnceLock<&'static Histogram>);

    impl Default for HistogramSite {
        fn default() -> Self {
            Self::new()
        }
    }

    impl HistogramSite {
        /// An empty site (resolved on first use).
        pub const fn new() -> Self {
            HistogramSite(OnceLock::new())
        }

        /// The histogram for `name`, registering it on first use.
        #[inline]
        pub fn resolve(&self, name: &'static str) -> &'static Histogram {
            self.0.get_or_init(|| register_histogram(name))
        }
    }

    /// Trace-session generation: odd = a session is active (spans record),
    /// even = idle. Incrementing on both start and stop gives every session
    /// a unique odd id, so spans and thread buffers left over from an
    /// earlier session can never leak events into a later one.
    static GENERATION: AtomicU64 = AtomicU64::new(0);

    /// The active session's generation, or 0 when idle. `Acquire` pairs
    /// with the `Release` in [`start_recording`]/[`stop_recording`] so a
    /// thread that observes the new generation also observes the drained
    /// sink.
    #[inline]
    fn current_generation() -> u64 {
        let g = GENERATION.load(Ordering::Acquire);
        if g % 2 == 1 {
            g
        } else {
            0
        }
    }

    fn sink() -> &'static Mutex<Vec<SpanEvent>> {
        static SINK: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
        SINK.get_or_init(|| Mutex::new(Vec::new()))
    }

    static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

    /// The pending anomaly's trigger timestamp, or 0 when no anomaly is
    /// frozen. Set once per anomaly by a compare-exchange from 0 (first
    /// trigger wins); cleared by [`take_anomaly_dump`].
    static FREEZE_NS: AtomicU64 = AtomicU64::new(0);

    /// Latency-trigger threshold in nanoseconds; 0 = disarmed. Any closed
    /// span whose duration reaches the threshold fires the anomaly trigger.
    static LATENCY_TRIGGER_NS: AtomicU64 = AtomicU64::new(0);

    /// Freeze window in nanoseconds: ring events ending earlier than
    /// `trigger - window` are not part of the anomaly's immediate past.
    static FLIGHT_WINDOW_NS: AtomicU64 = AtomicU64::new(DEFAULT_FLIGHT_WINDOW_MS * 1_000_000);

    /// The frozen dump under construction: trigger metadata plus every
    /// contributed ring tail. Guarded by a mutex, but only touched when a
    /// trigger fires or a thread contributes — never on the span hot path.
    #[derive(Debug, Default)]
    struct DumpState {
        reason: &'static str,
        trigger_ns: u64,
        events: Vec<SpanEvent>,
    }

    fn dump_state() -> &'static Mutex<DumpState> {
        static DUMP: OnceLock<Mutex<DumpState>> = OnceLock::new();
        DUMP.get_or_init(|| Mutex::new(DumpState::default()))
    }

    /// Fires the anomaly trigger at `ts` (clamped to nonzero so 0 keeps
    /// meaning "no anomaly"). Only the first trigger per freeze records its
    /// reason; later triggers are absorbed until the dump is taken.
    fn fire_trigger(reason: &'static str, ts: u64) {
        let ts = ts.max(1);
        // relaxed-ok: failure ordering — a losing trigger reads nothing
        // through the freeze timestamp, it just backs off.
        let won = FREEZE_NS.compare_exchange(0, ts, Ordering::AcqRel, Ordering::Relaxed);
        if won.is_ok() {
            if let Ok(mut dump) = dump_state().lock() {
                dump.reason = reason;
                dump.trigger_ns = ts;
            }
        }
    }

    /// Per-thread span buffer: session events accumulate in `events`
    /// without any lock and flush to the global sink at thread exit or
    /// [`stop_recording`]; `ring` is the always-on flight recorder
    /// (bounded, overwrite-oldest) that triggers drain from.
    #[derive(Debug)]
    struct ThreadBuf {
        id: u64,
        generation: u64,
        depth: u32,
        events: Vec<SpanEvent>,
        ring: Vec<SpanEvent>,
        ring_next: usize,
        contributed_freeze: u64,
    }

    impl ThreadBuf {
        fn new() -> Self {
            ThreadBuf {
                // relaxed-ok: unique-id counter; only atomicity matters.
                id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
                generation: 0,
                depth: 0,
                events: Vec::new(),
                ring: Vec::new(),
                ring_next: 0,
                contributed_freeze: 0,
            }
        }

        /// Moves this buffer's events into the global sink if they belong
        /// to the session `expected_generation` (stale buffers are cleared,
        /// not flushed).
        fn flush(&mut self, expected_generation: u64) {
            if self.events.is_empty() {
                return;
            }
            if self.generation == expected_generation {
                if let Ok(mut sink) = sink().lock() {
                    sink.append(&mut self.events);
                }
            }
            self.events.clear();
        }

        /// Appends a closed span to the flight ring, overwriting the oldest
        /// entry once [`FLIGHT_CAPACITY`] is reached.
        fn ring_push(&mut self, event: SpanEvent) {
            if self.ring.len() < FLIGHT_CAPACITY {
                self.ring.push(event);
            } else if let Some(slot) = self.ring.get_mut(self.ring_next) {
                *slot = event;
            }
            self.ring_next = (self.ring_next + 1) % FLIGHT_CAPACITY;
        }

        /// If an anomaly is frozen and this thread has not yet contributed
        /// to it, copies the tail of the ring (events ending inside the
        /// freeze window) into the shared dump. At most once per thread per
        /// freeze, so the dump mutex is off the steady-state hot path.
        fn contribute_if_frozen(&mut self) {
            let freeze = FREEZE_NS.load(Ordering::Acquire);
            if freeze == 0 || self.contributed_freeze == freeze {
                return;
            }
            self.contributed_freeze = freeze;
            // relaxed-ok: tuning knob; any recent window value is valid.
            let cutoff = freeze.saturating_sub(FLIGHT_WINDOW_NS.load(Ordering::Relaxed));
            if let Ok(mut dump) = dump_state().lock() {
                for event in &self.ring {
                    if event.start_ns.saturating_add(event.dur_ns) >= cutoff {
                        dump.events.push(event.clone());
                    }
                }
            }
        }
    }

    impl Drop for ThreadBuf {
        fn drop(&mut self) {
            // A worker exiting mid-session hands its events over; a thread
            // outliving its session drops them (flush checks the match). An
            // exiting worker also contributes its ring to any frozen
            // anomaly it has not yet served — scoped pool workers are
            // joined before the driver takes the dump, so nothing is lost.
            self.flush(current_generation());
            self.contribute_if_frozen();
        }
    }

    thread_local! {
        static THREAD_BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
    }

    /// Runs `f` on the thread's buffer; silently skipped during thread
    /// teardown or pathological re-entrancy (telemetry must never panic).
    fn with_thread_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> Option<R> {
        THREAD_BUF
            .try_with(|cell| cell.try_borrow_mut().ok().map(|mut buf| f(&mut buf)))
            .ok()
            .flatten()
    }

    /// Starts a trace session: clears the sink and makes spans record.
    /// Idempotent while a session is already active.
    pub fn start_recording() {
        if let Ok(mut sink) = sink().lock() {
            sink.clear();
        }
        // relaxed-ok: session start/stop is single-driver; the Release
        // store below is what readers synchronise with.
        let g = GENERATION.load(Ordering::Relaxed);
        if g % 2 == 0 {
            GENERATION.store(g + 1, Ordering::Release);
        }
    }

    /// Ends the trace session and drains every recorded span, ordered by
    /// `(thread, start_ns)`. Spans still open on *other* threads when this
    /// is called are discarded (their generation no longer matches) — in
    /// this workspace all pool workers are scoped and joined before the
    /// driver stops recording, so nothing is lost in practice.
    pub fn stop_recording() -> Vec<SpanEvent> {
        // relaxed-ok: session start/stop is single-driver; the Release
        // store below is what readers synchronise with.
        let g = GENERATION.load(Ordering::Relaxed);
        let active = if g % 2 == 1 { g } else { g.saturating_sub(1) };
        with_thread_buf(|buf| buf.flush(active));
        if g % 2 == 1 {
            GENERATION.store(g + 1, Ordering::Release);
        }
        let mut events = match sink().lock() {
            Ok(mut sink) => std::mem::take(&mut *sink),
            Err(_) => Vec::new(),
        };
        events.sort_by_key(|e| (e.thread, e.start_ns, std::cmp::Reverse(e.dur_ns)));
        events
    }

    /// True iff a trace session is active (spans are recording).
    pub fn recording() -> bool {
        current_generation() != 0
    }

    /// Arms the latency trigger: any span closing with a duration of at
    /// least `threshold_ns` freezes the flight recorder. `0` disarms. The
    /// threshold applies to *every* span name — aim it at the workload's
    /// tail by picking a threshold well above benign span durations.
    pub fn set_latency_trigger(threshold_ns: u64) {
        // relaxed-ok: arming knob; nothing is published through it.
        LATENCY_TRIGGER_NS.store(threshold_ns, Ordering::Relaxed);
    }

    /// Overrides the freeze window: how far before the trigger instant
    /// ring events still count as the anomaly's past (default
    /// [`DEFAULT_FLIGHT_WINDOW_MS`]).
    pub fn set_flight_window_ms(window_ms: u64) {
        // relaxed-ok: tuning knob; any recent window value is valid.
        FLIGHT_WINDOW_NS.store(window_ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Fires the anomaly trigger by hand — the invariant-violation entry
    /// point. Freezes the recorder (first trigger wins until the dump is
    /// taken) and immediately contributes the calling thread's ring.
    pub fn trigger_anomaly(reason: &'static str) {
        fire_trigger(reason, now_ns());
        with_thread_buf(ThreadBuf::contribute_if_frozen);
    }

    /// Installs a process-wide panic hook (once) that fires the anomaly
    /// trigger with reason `"panic"` before delegating to the previous
    /// hook. The hook runs on the panicking thread, so that thread's ring
    /// — the spans leading up to the panic — is contributed immediately.
    pub fn install_panic_trigger() {
        static INSTALLED: OnceLock<()> = OnceLock::new();
        INSTALLED.get_or_init(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                trigger_anomaly("panic");
                previous(info);
            }));
        });
    }

    /// Takes the frozen anomaly dump, if a trigger has fired: contributes
    /// the calling thread's ring first, then drains the shared dump and
    /// re-arms the recorder (FREEZE clears, so the next trigger starts a
    /// fresh dump). Returns `None` when no trigger has fired. Threads that
    /// never closed another span after the freeze contribute at exit
    /// (scoped workers) or not at all — take the dump after joining.
    pub fn take_anomaly_dump() -> Option<AnomalyDump> {
        with_thread_buf(ThreadBuf::contribute_if_frozen);
        if FREEZE_NS.load(Ordering::Acquire) == 0 {
            return None;
        }
        let (reason, trigger_ns, mut events) = {
            let mut dump = dump_state().lock().ok()?;
            (
                dump.reason,
                dump.trigger_ns,
                std::mem::take(&mut dump.events),
            )
        };
        FREEZE_NS.store(0, Ordering::Release);
        events.sort_by_key(|e| (e.thread, e.start_ns, std::cmp::Reverse(e.dur_ns)));
        Some(AnomalyDump {
            reason,
            trigger_ns,
            events,
        })
    }

    /// True iff an anomaly trigger has fired and its dump is still frozen.
    pub fn anomaly_pending() -> bool {
        FREEZE_NS.load(Ordering::Acquire) != 0
    }

    /// An open phase span; always feeds the flight ring on drop, and
    /// records a [`SpanEvent`] into the trace session if one is active.
    /// Created by [`span!`](crate::span).
    #[derive(Debug)]
    pub struct Span {
        name: &'static str,
        payload: Option<u64>,
        start_ns: u64,
        generation: u64,
    }

    impl Span {
        /// Opens a span. Timing is always live (the flight recorder needs
        /// it); the session generation is captured so the close event lands
        /// in the right trace, or none.
        #[inline]
        pub fn enter(name: &'static str, payload: Option<u64>) -> Span {
            let generation = current_generation();
            with_thread_buf(|buf| {
                if generation != 0 && buf.generation != generation {
                    buf.events.clear();
                    buf.generation = generation;
                }
                buf.depth += 1;
            });
            Span {
                name,
                payload,
                start_ns: now_ns(),
                generation,
            }
        }

        /// Sets (or replaces) the span's payload before it closes.
        pub fn set_payload(&mut self, payload: u64) {
            self.payload = Some(payload);
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let end_ns = now_ns();
            let dur_ns = end_ns.saturating_sub(self.start_ns);
            let still_active = self.generation != 0 && current_generation() == self.generation;
            with_thread_buf(|buf| {
                buf.depth = buf.depth.saturating_sub(1);
                let event = SpanEvent {
                    name: self.name,
                    thread: buf.id,
                    depth: buf.depth,
                    start_ns: self.start_ns,
                    dur_ns,
                    payload: self.payload,
                };
                if still_active && buf.generation == self.generation {
                    buf.events.push(event.clone());
                }
                buf.ring_push(event);
                // relaxed-ok: hot-path arming check; a stale threshold at
                // worst delays or duplicates a trigger by one span.
                let threshold = LATENCY_TRIGGER_NS.load(Ordering::Relaxed);
                if threshold != 0 && dur_ns >= threshold {
                    fire_trigger("latency-over-threshold", end_ns);
                }
                buf.contribute_if_frozen();
            });
        }
    }
}

#[cfg(feature = "telemetry")]
pub use active::{
    anomaly_pending, install_panic_trigger, recording, register_counter, register_histogram,
    set_flight_window_ms, set_latency_trigger, start_recording, stop_recording, take_anomaly_dump,
    trigger_anomaly, Counter, CounterSite, Histogram, HistogramSite, Span,
};

#[cfg(not(feature = "telemetry"))]
mod noop {
    use super::{AnomalyDump, SpanEvent};

    /// Zero-sized stand-in for both registry metric kinds when the
    /// `telemetry` feature is off; every method compiles to nothing.
    #[derive(Clone, Copy, Debug)]
    pub struct NoopMetric;

    impl NoopMetric {
        /// No-op.
        #[inline(always)]
        pub fn add(&self, _delta: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn record(&self, _value: u64) {}

        /// Always zero.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// Feature-off twin of the active `CounterSite` (zero-sized).
    #[derive(Debug)]
    pub struct CounterSite;

    impl CounterSite {
        /// A site that resolves to the no-op metric.
        pub const fn new() -> Self {
            CounterSite
        }

        /// Always the no-op metric.
        #[inline(always)]
        pub fn resolve(&self, _name: &'static str) -> NoopMetric {
            NoopMetric
        }
    }

    /// Feature-off twin of the active `HistogramSite` (zero-sized).
    #[derive(Debug)]
    pub struct HistogramSite;

    impl HistogramSite {
        /// A site that resolves to the no-op metric.
        pub const fn new() -> Self {
            HistogramSite
        }

        /// Always the no-op metric.
        #[inline(always)]
        pub fn resolve(&self, _name: &'static str) -> NoopMetric {
            NoopMetric
        }
    }

    /// Feature-off span guard: zero-sized, no `Drop`, fully free.
    #[derive(Debug)]
    pub struct Span;

    impl Span {
        /// No-op.
        #[inline(always)]
        pub fn enter(_name: &'static str, _payload: Option<u64>) -> Span {
            Span
        }

        /// No-op.
        #[inline(always)]
        pub fn set_payload(&mut self, _payload: u64) {}
    }

    /// No-op.
    pub fn start_recording() {}

    /// Always empty.
    pub fn stop_recording() -> Vec<SpanEvent> {
        Vec::new()
    }

    /// Always false.
    pub fn recording() -> bool {
        false
    }

    /// No-op: the flight recorder does not exist with the feature off.
    pub fn set_latency_trigger(_threshold_ns: u64) {}

    /// No-op.
    pub fn set_flight_window_ms(_window_ms: u64) {}

    /// No-op.
    pub fn trigger_anomaly(_reason: &'static str) {}

    /// No-op: no hook is installed, panics propagate untouched.
    pub fn install_panic_trigger() {}

    /// Always `None`.
    pub fn take_anomaly_dump() -> Option<AnomalyDump> {
        None
    }

    /// Always false.
    pub fn anomaly_pending() -> bool {
        false
    }
}

#[cfg(not(feature = "telemetry"))]
pub use noop::{
    anomaly_pending, install_panic_trigger, recording, set_flight_window_ms, set_latency_trigger,
    start_recording, stop_recording, take_anomaly_dump, trigger_anomaly, CounterSite,
    HistogramSite, Span,
};

/// Everything in the metrics registry plus the memory-observatory counters
/// ([`mem`]'s `mem.*` keys and the `mem.alloc_size` histogram), sorted by
/// name. The allocator hook never touches the registry — its counters live
/// in static storage inside [`mem`] — so the merge happens here, on the
/// snapshot path, where allocating is safe.
pub fn metrics_snapshot() -> MetricsSnapshot {
    #[cfg(feature = "telemetry")]
    let mut snap = active::metrics_snapshot();
    #[cfg(not(feature = "telemetry"))]
    let mut snap = MetricsSnapshot::default();
    mem::append_metrics(&mut snap);
    snap.counters.sort_by_key(|c| c.name);
    snap.histograms.sort_by_key(|h| h.name);
    snap
}

/// Zeroes every registered counter and histogram and the memory
/// observatory's interval counters ([`mem::reset`]: totals, phase table,
/// size histogram; peak re-seated at live). Benches call this between
/// configurations so snapshots attribute work to the right run.
pub fn reset_metrics() {
    #[cfg(feature = "telemetry")]
    active::reset_metrics();
    mem::reset();
}

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_by_name_and_accumulate() {
        let a = register_counter("test.telemetry.alpha");
        let b = register_counter("test.telemetry.alpha");
        assert!(std::ptr::eq(a, b), "same key must intern to one node");
        let before = a.get();
        counter!("test.telemetry.alpha").add(2);
        counter!("test.telemetry.alpha").add(3);
        assert_eq!(a.get(), before + 5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(2), 2);
        assert_eq!(bucket_lower_bound(4), 8);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_zeroes() {
        counter!("test.telemetry.zz").add(1);
        counter!("test.telemetry.aa").add(1);
        histogram!("test.telemetry.hist").record(5);
        let snap = metrics_snapshot();
        let names: Vec<_> = snap.counters.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counter snapshot must be name-sorted");
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "test.telemetry.hist" && h.count >= 1));

        // Reset is registry-global, so only assert on our own keys (other
        // tests in this binary race on theirs).
        reset_metrics();
        assert_eq!(register_counter("test.telemetry.zz").get(), 0);
        assert_eq!(register_histogram("test.telemetry.hist").count(), 0);
    }

    #[test]
    fn spans_record_only_inside_a_session() {
        {
            let _outside = span!("test.telemetry.outside");
        }
        start_recording();
        {
            let _outer = span!("test.telemetry.outer", 7);
            let _inner = span!("test.telemetry.inner");
        }
        let events = stop_recording();
        assert!(events.iter().all(|e| e.name != "test.telemetry.outside"));
        let outer = events
            .iter()
            .find(|e| e.name == "test.telemetry.outer")
            .expect("outer span recorded during the session must be drained");
        let inner = events
            .iter()
            .find(|e| e.name == "test.telemetry.inner")
            .expect("inner span recorded during the session must be drained");
        assert_eq!(outer.payload, Some(7));
        assert_eq!(inner.depth, outer.depth + 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        // A second session starts clean.
        start_recording();
        assert!(recording());
        let empty = stop_recording();
        assert!(empty.is_empty());
        assert!(!recording());
    }

    /// The whole flight-recorder lifecycle in one test so the process-wide
    /// freeze/trigger state is exercised sequentially, not raced by the
    /// test harness's parallelism.
    #[test]
    fn flight_recorder_triggers_freeze_and_dump() {
        // 1. Manual (invariant-violation) trigger: spans closed *before*
        //    the trigger, with no session armed, land in the dump.
        {
            let _before = span!("test.flight.before", 11);
        }
        trigger_anomaly("test-invariant");
        assert!(anomaly_pending());
        let dump = take_anomaly_dump().expect("manual trigger must freeze a dump");
        assert_eq!(dump.reason, "test-invariant");
        assert!(dump.trigger_ns > 0);
        assert!(dump
            .events
            .iter()
            .any(|e| e.name == "test.flight.before" && e.payload == Some(11)));
        assert!(!anomaly_pending());
        assert!(
            take_anomaly_dump().is_none(),
            "taking the dump must re-arm the recorder"
        );

        // Dump ordering matches stop_recording's contract.
        let keys: Vec<_> = dump.events.iter().map(|e| (e.thread, e.start_ns)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);

        // 2. Latency trigger: a span over threshold fires on close with no
        //    pre-arming; the slow span itself is part of the dump.
        set_latency_trigger(2_000_000); // 2 ms
        {
            let _slow = span!("test.flight.slow");
            let begin = now_ns();
            while now_ns().saturating_sub(begin) < 3_000_000 {
                std::hint::spin_loop();
            }
        }
        set_latency_trigger(0);
        let dump = take_anomaly_dump().expect("slow span must fire the latency trigger");
        assert!(dump
            .events
            .iter()
            .any(|e| e.name == "test.flight.slow" && e.dur_ns >= 2_000_000));

        // 3. The ring is bounded: closing far more spans than the capacity
        //    leaves at most FLIGHT_CAPACITY of them for this thread.
        for _ in 0..(FLIGHT_CAPACITY + 500) {
            let _tiny = span!("test.flight.wrap");
        }
        trigger_anomaly("test-wrap");
        let dump = take_anomaly_dump().expect("wrap trigger must freeze a dump");
        let wraps = dump
            .events
            .iter()
            .filter(|e| e.name == "test.flight.wrap")
            .count();
        assert!(wraps <= FLIGHT_CAPACITY, "ring must be bounded: {wraps}");
        assert!(
            wraps >= FLIGHT_CAPACITY / 2,
            "ring kept too little: {wraps}"
        );

        // 4. Panic trigger: the hook fires on the panicking thread and the
        //    spans leading up to the panic are captured.
        install_panic_trigger();
        let unwound = std::panic::catch_unwind(|| {
            {
                let _doomed = span!("test.flight.prepanic");
            }
            panic!("synthetic panic for the flight recorder");
        });
        assert!(unwound.is_err());
        let dump = take_anomaly_dump().expect("panic hook must fire the anomaly trigger");
        assert_eq!(dump.reason, "panic");
        assert!(dump.events.iter().any(|e| e.name == "test.flight.prepanic"));

        // 5. Depth is tracked even with no session active: the always-on
        //    ring records true nesting.
        {
            let _outer = span!("test.flight.depth_outer");
            let _inner = span!("test.flight.depth_inner");
        }
        trigger_anomaly("test-depth");
        let dump = take_anomaly_dump().expect("depth trigger must freeze a dump");
        let outer = dump
            .events
            .iter()
            .find(|e| e.name == "test.flight.depth_outer")
            .expect("outer span must be in the flight ring");
        let inner = dump
            .events
            .iter()
            .find(|e| e.name == "test.flight.depth_inner")
            .expect("inner span must be in the flight ring");
        assert_eq!(inner.depth, outer.depth + 1);
        assert!(inner.start_ns >= outer.start_ns);
    }
}
