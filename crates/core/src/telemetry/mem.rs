//! Memory observatory: a counting [`std::alloc::GlobalAlloc`] wrapper over
//! the system allocator, with per-phase allocation attribution.
//!
//! This is the memory counterpart of the time-side telemetry in the parent
//! module. Installing the wrapper (done here, under the `mem-telemetry`
//! cargo feature) makes every allocation in the process pass through four
//! kinds of lock-free bookkeeping:
//!
//! * **Live / peak bytes** — two process-global atomics. `live` is
//!   `fetch_add`/`fetch_sub` on every alloc/dealloc; `peak` is a relaxed
//!   `fetch_max` high-water mark that [`reset`] re-seats at the current
//!   live value (so each bench configuration measures its own peak).
//! * **Striped totals** — alloc/dealloc byte and event counts, striped
//!   across [`STRIPE_COUNT`] cache-line-aligned slots indexed by a
//!   per-thread stripe id, so concurrent workers do not serialize on one
//!   cache line. Totals are exact once writers quiesce (relaxed adds).
//! * **Allocation-size histogram** — a fixed array of
//!   [`HISTOGRAM_BUCKETS`](crate::telemetry::HISTOGRAM_BUCKETS) atomics
//!   using the registry's log2 `bucket_index` scheme. Surfaced as the `mem.alloc_size` histogram
//!   in [`metrics_snapshot`](crate::telemetry::metrics_snapshot).
//! * **Phase attribution** — a thread-local current-phase cell, set by the
//!   RAII guard from [`phase`]. Every alloc/dealloc charges the active
//!   [`MemPhase`] on its thread, so `skydiag mem` and `skydiag report` can
//!   say which build phase owns the bytes. Phases nest by save/restore:
//!   a `PoolWorker` span opened inside a `QuadrantBuild` span charges the
//!   worker, and restores the build phase when it drops.
//!
//! # Why raw `std::sync::atomic` and not `crate::sync`
//!
//! The sync facade's `--cfg skyline_sched` twins are *scheduled*: every
//! atomic op is an interleaving-checker yield point, and the checker
//! itself allocates. An allocator hook that yields to a scheduler which
//! allocates would recurse into the hook. The counters here therefore use
//! raw `std::sync::atomic` (exempted by name in the `no-raw-atomic` lint)
//! and never allocate, lock, or call registry code on the hot path — the
//! registry's `Box::leak` registration would likewise recurse. The
//! registry only sees this module from the *snapshot* side:
//! `append_metrics` merges the counters into a [`MetricsSnapshot`]
//! after the fact.
//!
//! # Feature gate
//!
//! With `mem-telemetry` off, no `#[global_allocator]` is installed (the
//! process uses the unhooked system allocator), [`phase`] returns a
//! zero-sized guard with no `Drop`, and every query function returns
//! zeros. Diagram bytes and workload checksums are differentially tested
//! on/off, exactly like the `telemetry` feature.

use super::{HistogramSnapshot, MetricsSnapshot};

/// Number of attribution phases, including [`MemPhase::Unattributed`].
pub const PHASE_COUNT: usize = 10;

/// The build/serve phases that allocations can be charged to. Phase 0
/// ([`MemPhase::Unattributed`]) is the default for threads with no open
/// phase guard; the remaining variants mirror the time-side span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MemPhase {
    /// No phase guard open on the allocating thread.
    Unattributed = 0,
    /// Quadrant skyline diagram construction (`quadrant.build`).
    QuadrantBuild = 1,
    /// Global skyline diagram construction (`global.build`).
    GlobalBuild = 2,
    /// Dynamic skyline subcell diagram construction (`dynamic.build`).
    DynamicBuild = 3,
    /// A parallel pool worker executing band chunks (`pool.worker`).
    PoolWorker = 4,
    /// The stitch pass joining worker band outputs (`pool.stitch`).
    PoolStitch = 5,
    /// Snapshot container encoding (`container.encode`).
    ContainerEncode = 6,
    /// Snapshot container decoding (`container.decode`).
    ContainerDecode = 7,
    /// A serve-side writer rebuild + publish (`serve.rebuild`).
    ServeRebuild = 8,
    /// A serve-side handle-arena slot fill (`serve.cache.fill`).
    CacheFill = 9,
}

impl MemPhase {
    /// Every phase, in slot order (`ALL[i] as usize == i`).
    pub const ALL: [MemPhase; PHASE_COUNT] = [
        MemPhase::Unattributed,
        MemPhase::QuadrantBuild,
        MemPhase::GlobalBuild,
        MemPhase::DynamicBuild,
        MemPhase::PoolWorker,
        MemPhase::PoolStitch,
        MemPhase::ContainerEncode,
        MemPhase::ContainerDecode,
        MemPhase::ServeRebuild,
        MemPhase::CacheFill,
    ];

    /// The phase's snake_case name, used in metric keys
    /// (`mem.phase.<name>.alloc_bytes`) and `skydiag mem` tables.
    pub fn name(self) -> &'static str {
        match self {
            MemPhase::Unattributed => "unattributed",
            MemPhase::QuadrantBuild => "quadrant_build",
            MemPhase::GlobalBuild => "global_build",
            MemPhase::DynamicBuild => "dynamic_build",
            MemPhase::PoolWorker => "pool_worker",
            MemPhase::PoolStitch => "pool_stitch",
            MemPhase::ContainerEncode => "container_encode",
            MemPhase::ContainerDecode => "container_decode",
            MemPhase::ServeRebuild => "serve_rebuild",
            MemPhase::CacheFill => "cache_fill",
        }
    }
}

/// Process-wide allocator statistics at one instant. All fields are
/// relaxed-atomic reads: exact once allocating threads quiesce, monitoring
/// approximations while they run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start or [`reset`].
    pub peak_bytes: u64,
    /// Total bytes passed to `alloc`/`alloc_zeroed`/`realloc` since
    /// [`reset`] (realloc counts the new size).
    pub alloc_bytes: u64,
    /// Total bytes freed since [`reset`] (realloc counts the old size).
    pub dealloc_bytes: u64,
    /// Number of allocation events since [`reset`].
    pub allocs: u64,
    /// Number of deallocation events since [`reset`].
    pub deallocs: u64,
}

/// One phase's attributed allocation traffic since the last [`reset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStats {
    /// The phase this row describes.
    pub phase: MemPhase,
    /// Bytes allocated while this phase was active on the allocating thread.
    pub alloc_bytes: u64,
    /// Bytes freed while this phase was active on the freeing thread.
    pub dealloc_bytes: u64,
    /// Allocation events charged to this phase.
    pub allocs: u64,
    /// Deallocation events charged to this phase.
    pub deallocs: u64,
}

/// Whether the counting allocator is compiled in (the `mem-telemetry`
/// cargo feature). With it off, every query function here returns zeros.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "mem-telemetry")
}

/// Heap bytes owned by a `Vec`'s buffer: capacity (not length) times
/// element size — exactly what the allocator was asked for. Shared by the
/// arena `heap_bytes()` accessors so their arithmetic cannot drift from
/// the definition the cross-check tests assume. Always compiled; byte
/// accounting is plain arithmetic, not an allocator hook.
#[inline]
pub fn vec_heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Estimated heap bytes of a `HashMap`'s table. The std hashmap
/// (hashbrown) allocates one power-of-two bucket array sized so the load
/// factor stays under 7/8, at one `(K, V)` slot plus one control byte per
/// bucket. This reconstructs that layout from `capacity()`; it is an
/// estimate (the constant tail covers allocator rounding), which is why
/// the allocator cross-check tests compare with slack.
pub fn map_heap_bytes<K, V, S>(m: &std::collections::HashMap<K, V, S>) -> usize {
    let cap = m.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = (cap * 8 / 7).max(4).next_power_of_two();
    buckets * (std::mem::size_of::<(K, V)>() + 1) + std::mem::size_of::<usize>() * 4
}

/// Metric name for the per-phase counters, in [`MemPhase::ALL`] slot
/// order: `(alloc_bytes, dealloc_bytes, allocs, deallocs)` per phase.
/// Shared by `append_metrics` and its consumers (`skydiag`, benches) so
/// key spelling cannot drift.
pub const PHASE_METRIC_NAMES: [(&str, &str, &str, &str); PHASE_COUNT] = [
    (
        "mem.phase.unattributed.alloc_bytes",
        "mem.phase.unattributed.dealloc_bytes",
        "mem.phase.unattributed.allocs",
        "mem.phase.unattributed.deallocs",
    ),
    (
        "mem.phase.quadrant_build.alloc_bytes",
        "mem.phase.quadrant_build.dealloc_bytes",
        "mem.phase.quadrant_build.allocs",
        "mem.phase.quadrant_build.deallocs",
    ),
    (
        "mem.phase.global_build.alloc_bytes",
        "mem.phase.global_build.dealloc_bytes",
        "mem.phase.global_build.allocs",
        "mem.phase.global_build.deallocs",
    ),
    (
        "mem.phase.dynamic_build.alloc_bytes",
        "mem.phase.dynamic_build.dealloc_bytes",
        "mem.phase.dynamic_build.allocs",
        "mem.phase.dynamic_build.deallocs",
    ),
    (
        "mem.phase.pool_worker.alloc_bytes",
        "mem.phase.pool_worker.dealloc_bytes",
        "mem.phase.pool_worker.allocs",
        "mem.phase.pool_worker.deallocs",
    ),
    (
        "mem.phase.pool_stitch.alloc_bytes",
        "mem.phase.pool_stitch.dealloc_bytes",
        "mem.phase.pool_stitch.allocs",
        "mem.phase.pool_stitch.deallocs",
    ),
    (
        "mem.phase.container_encode.alloc_bytes",
        "mem.phase.container_encode.dealloc_bytes",
        "mem.phase.container_encode.allocs",
        "mem.phase.container_encode.deallocs",
    ),
    (
        "mem.phase.container_decode.alloc_bytes",
        "mem.phase.container_decode.dealloc_bytes",
        "mem.phase.container_decode.allocs",
        "mem.phase.container_decode.deallocs",
    ),
    (
        "mem.phase.serve_rebuild.alloc_bytes",
        "mem.phase.serve_rebuild.dealloc_bytes",
        "mem.phase.serve_rebuild.allocs",
        "mem.phase.serve_rebuild.deallocs",
    ),
    (
        "mem.phase.cache_fill.alloc_bytes",
        "mem.phase.cache_fill.dealloc_bytes",
        "mem.phase.cache_fill.allocs",
        "mem.phase.cache_fill.deallocs",
    ),
];

#[cfg(feature = "mem-telemetry")]
mod active {
    use super::super::{bucket_index, CounterSnapshot, HISTOGRAM_BUCKETS};
    use super::{
        HistogramSnapshot, MemPhase, MemStats, MetricsSnapshot, PhaseStats, PHASE_COUNT,
        PHASE_METRIC_NAMES,
    };
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    // The one sanctioned raw-atomic import in lib code: the sync facade's
    // scheduled twins allocate inside the interleaving checker, which
    // would recurse into the allocator hook below. `no-raw-atomic`
    // exempts exactly this file.
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Number of counter stripes. Threads hash onto stripes round-robin;
    /// more stripes than typical worker counts keeps the common case
    /// contention-free without burning memory (each stripe is one table
    /// of `PHASE_COUNT` slots, cache-line aligned).
    pub const STRIPE_COUNT: usize = 16;

    /// Bytes currently live (allocated minus freed) across the process.
    static LIVE: AtomicU64 = AtomicU64::new(0);
    /// High-water mark of [`LIVE`]; re-seated to `LIVE` by [`reset`].
    static PEAK: AtomicU64 = AtomicU64::new(0);
    /// Round-robin source for thread stripe ids.
    static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

    /// One phase's counters within one stripe.
    struct PhaseSlot {
        alloc_bytes: AtomicU64,
        dealloc_bytes: AtomicU64,
        allocs: AtomicU64,
        deallocs: AtomicU64,
    }

    impl PhaseSlot {
        const fn new() -> Self {
            PhaseSlot {
                alloc_bytes: AtomicU64::new(0),
                dealloc_bytes: AtomicU64::new(0),
                allocs: AtomicU64::new(0),
                deallocs: AtomicU64::new(0),
            }
        }
    }

    /// One stripe: a full per-phase table, aligned so stripes never share
    /// a cache line with each other.
    #[repr(align(64))]
    struct Stripe {
        phases: [PhaseSlot; PHASE_COUNT],
    }

    // MSRV 1.75: const-item repetition (inline `const` blocks in array
    // repeats landed later). The consts exist only as array-repeat
    // initializers for the statics below — each array element is its own
    // atomic; nobody mutates "the const".
    #[allow(clippy::declare_interior_mutable_const)]
    const PHASE_SLOT_INIT: PhaseSlot = PhaseSlot::new();
    #[allow(clippy::declare_interior_mutable_const)]
    const STRIPE_INIT: Stripe = Stripe {
        phases: [PHASE_SLOT_INIT; PHASE_COUNT],
    };
    static STRIPES: [Stripe; STRIPE_COUNT] = [STRIPE_INIT; STRIPE_COUNT];

    #[allow(clippy::declare_interior_mutable_const)]
    const BUCKET_INIT: AtomicU64 = AtomicU64::new(0);
    /// Allocation-size histogram, log2 buckets per the registry scheme.
    static SIZE_HIST: [AtomicU64; HISTOGRAM_BUCKETS] = [BUCKET_INIT; HISTOGRAM_BUCKETS];

    thread_local! {
        // Const-initialized `Cell`s: no `Drop`, so first access registers
        // no TLS destructor and never allocates — both cells are safe to
        // touch from inside the allocator hook.
        static CURRENT_PHASE: Cell<usize> = const { Cell::new(0) };
        static STRIPE_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// This thread's stripe index, assigned round-robin on first use.
    /// Falls back to stripe 0 if TLS is unavailable (thread teardown).
    #[inline]
    fn stripe_id() -> usize {
        STRIPE_ID
            .try_with(|cell| {
                let id = cell.get();
                if id != usize::MAX {
                    id
                } else {
                    // relaxed-ok: any distribution of threads over stripes
                    // is correct; totals are summed over all stripes.
                    let id = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPE_COUNT;
                    cell.set(id);
                    id
                }
            })
            .unwrap_or(0)
    }

    /// The phase index active on this thread (0 during TLS teardown).
    #[inline]
    fn current_phase_index() -> usize {
        CURRENT_PHASE.try_with(Cell::get).unwrap_or(0)
    }

    /// Relaxed load shorthand for the snapshot paths.
    #[inline]
    fn read(a: &AtomicU64) -> u64 {
        // relaxed-ok: monitoring read; exact once writers quiesce.
        a.load(Ordering::Relaxed)
    }

    /// Relaxed zeroing store for [`reset`].
    #[inline]
    fn zero(a: &AtomicU64) {
        // relaxed-ok: caller quiesces workers before resetting stats.
        a.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn record_alloc(size: u64) {
        // relaxed-ok: statistics; nothing is published through these.
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        // relaxed-ok: high-water mark, monotone under fetch_max.
        PEAK.fetch_max(live, Ordering::Relaxed);
        // relaxed-ok: per-bucket event count.
        SIZE_HIST[bucket_index(size)].fetch_add(1, Ordering::Relaxed);
        let slot = &STRIPES[stripe_id()].phases[current_phase_index()];
        // relaxed-ok: per-stripe totals, summed at snapshot time.
        slot.alloc_bytes.fetch_add(size, Ordering::Relaxed);
        // relaxed-ok: per-stripe totals, summed at snapshot time.
        slot.allocs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn record_dealloc(size: u64) {
        // relaxed-ok: statistics; nothing is published through these.
        LIVE.fetch_sub(size, Ordering::Relaxed);
        let slot = &STRIPES[stripe_id()].phases[current_phase_index()];
        // relaxed-ok: per-stripe totals, summed at snapshot time.
        slot.dealloc_bytes.fetch_add(size, Ordering::Relaxed);
        // relaxed-ok: per-stripe totals, summed at snapshot time.
        slot.deallocs.fetch_add(1, Ordering::Relaxed);
    }

    /// The counting allocator: delegates every operation to [`System`]
    /// and records the byte delta. Never allocates, locks, or panics on
    /// its own — the recording paths are plain atomic adds plus two
    /// const-initialized TLS reads.
    pub struct CountingAlloc;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[allow(unsafe_code)] // the one GlobalAlloc impl in the workspace
    unsafe impl GlobalAlloc for CountingAlloc {
        #[inline]
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                record_alloc(layout.size() as u64);
            }
            ptr
        }

        #[inline]
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                record_alloc(layout.size() as u64);
            }
            ptr
        }

        #[inline]
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            record_dealloc(layout.size() as u64);
        }

        #[inline]
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = System.realloc(ptr, layout, new_size);
            if !new_ptr.is_null() {
                record_dealloc(layout.size() as u64);
                record_alloc(new_size as u64);
            }
            new_ptr
        }
    }

    /// RAII guard from [`phase`]: restores the thread's previous phase on
    /// drop, so phases nest by save/restore.
    #[derive(Debug)]
    pub struct PhaseGuard {
        prev: usize,
    }

    impl Drop for PhaseGuard {
        fn drop(&mut self) {
            let _ = CURRENT_PHASE.try_with(|cell| cell.set(self.prev));
        }
    }

    /// Makes `p` the active attribution phase on the current thread until
    /// the returned guard drops. Allocations (and frees) performed by this
    /// thread meanwhile are charged to `p` in [`phase_stats`].
    #[must_use = "attribution stops when the guard drops"]
    pub fn phase(p: MemPhase) -> PhaseGuard {
        let prev = CURRENT_PHASE
            .try_with(|cell| {
                let prev = cell.get();
                cell.set(p as usize);
                prev
            })
            .unwrap_or(0);
        PhaseGuard { prev }
    }

    /// Process-wide totals right now (see [`MemStats`] for semantics).
    pub fn stats() -> MemStats {
        let mut stats = MemStats {
            live_bytes: read(&LIVE),
            peak_bytes: read(&PEAK),
            ..MemStats::default()
        };
        for stripe in &STRIPES {
            for slot in &stripe.phases {
                stats.alloc_bytes += read(&slot.alloc_bytes);
                stats.dealloc_bytes += read(&slot.dealloc_bytes);
                stats.allocs += read(&slot.allocs);
                stats.deallocs += read(&slot.deallocs);
            }
        }
        stats
    }

    /// Per-phase attributed traffic, in [`MemPhase::ALL`] order (stripes
    /// summed per phase).
    pub fn phase_stats() -> Vec<PhaseStats> {
        MemPhase::ALL
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut row = PhaseStats {
                    phase: p,
                    alloc_bytes: 0,
                    dealloc_bytes: 0,
                    allocs: 0,
                    deallocs: 0,
                };
                for stripe in &STRIPES {
                    let slot = &stripe.phases[i];
                    row.alloc_bytes += read(&slot.alloc_bytes);
                    row.dealloc_bytes += read(&slot.dealloc_bytes);
                    row.allocs += read(&slot.allocs);
                    row.deallocs += read(&slot.deallocs);
                }
                row
            })
            .collect()
    }

    /// The allocation-size histogram as a registry-shaped snapshot named
    /// `mem.alloc_size` (`sum` is total allocated bytes, so `sum / count`
    /// is the mean allocation size).
    pub fn size_histogram() -> HistogramSnapshot {
        let totals = stats();
        HistogramSnapshot {
            name: "mem.alloc_size",
            count: totals.allocs,
            sum: totals.alloc_bytes,
            buckets: (0..HISTOGRAM_BUCKETS)
                .filter_map(|i| {
                    let count = read(&SIZE_HIST[i]);
                    (count > 0).then_some((i, count))
                })
                .collect(),
        }
    }

    /// Merges the allocator counters into a registry snapshot: `mem.*`
    /// counters (live/peak/totals plus per-phase attribution, skipping
    /// all-zero phases) and the `mem.alloc_size` histogram. The caller
    /// re-sorts; see [`crate::telemetry::metrics_snapshot`].
    pub fn append_metrics(snap: &mut MetricsSnapshot) {
        let totals = stats();
        let push = |counters: &mut Vec<CounterSnapshot>, name: &'static str, value: u64| {
            counters.push(CounterSnapshot { name, value });
        };
        push(&mut snap.counters, "mem.live_bytes", totals.live_bytes);
        push(&mut snap.counters, "mem.peak_bytes", totals.peak_bytes);
        push(&mut snap.counters, "mem.alloc_bytes", totals.alloc_bytes);
        push(
            &mut snap.counters,
            "mem.dealloc_bytes",
            totals.dealloc_bytes,
        );
        push(&mut snap.counters, "mem.allocs", totals.allocs);
        push(&mut snap.counters, "mem.deallocs", totals.deallocs);
        for (i, row) in phase_stats().into_iter().enumerate() {
            if row.alloc_bytes == 0
                && row.dealloc_bytes == 0
                && row.allocs == 0
                && row.deallocs == 0
            {
                continue;
            }
            let (alloc_bytes, dealloc_bytes, allocs, deallocs) = PHASE_METRIC_NAMES[i];
            push(&mut snap.counters, alloc_bytes, row.alloc_bytes);
            push(&mut snap.counters, dealloc_bytes, row.dealloc_bytes);
            push(&mut snap.counters, allocs, row.allocs);
            push(&mut snap.counters, deallocs, row.deallocs);
        }
        snap.histograms.push(size_histogram());
    }

    /// Zeroes the interval counters (totals, phase table, histogram) and
    /// re-seats the peak at the current live value. `live_bytes` itself is
    /// untouched — it tracks real outstanding memory, not an interval.
    /// Benches call this between configurations, mirroring
    /// [`crate::telemetry::reset_metrics`].
    pub fn reset() {
        for stripe in &STRIPES {
            for slot in &stripe.phases {
                zero(&slot.alloc_bytes);
                zero(&slot.dealloc_bytes);
                zero(&slot.allocs);
                zero(&slot.deallocs);
            }
        }
        for bucket in &SIZE_HIST {
            zero(bucket);
        }
        // relaxed-ok: high-water re-seat; the next fetch_max re-establishes
        // the peak >= live invariant.
        PEAK.store(read(&LIVE), Ordering::Relaxed);
    }
}

#[cfg(feature = "mem-telemetry")]
pub use active::{phase, phase_stats, reset, size_histogram, stats, PhaseGuard, STRIPE_COUNT};

#[cfg(feature = "mem-telemetry")]
pub(crate) use active::append_metrics;

#[cfg(not(feature = "mem-telemetry"))]
mod noop {
    use super::{HistogramSnapshot, MemPhase, MemStats, MetricsSnapshot, PhaseStats, PHASE_COUNT};

    /// Feature-off stripe count (kept so docs and tests can reference it).
    pub const STRIPE_COUNT: usize = 0;

    /// Feature-off phase guard: zero-sized, no `Drop`, fully free.
    #[derive(Debug)]
    pub struct PhaseGuard;

    /// No-op: returns a zero-sized guard; nothing is attributed.
    #[inline(always)]
    #[must_use = "attribution stops when the guard drops"]
    pub fn phase(_p: MemPhase) -> PhaseGuard {
        PhaseGuard
    }

    /// Always zeros.
    pub fn stats() -> MemStats {
        MemStats::default()
    }

    /// All-zero rows, in [`MemPhase::ALL`] order.
    pub fn phase_stats() -> Vec<PhaseStats> {
        let _ = PHASE_COUNT;
        MemPhase::ALL
            .iter()
            .map(|&p| PhaseStats {
                phase: p,
                alloc_bytes: 0,
                dealloc_bytes: 0,
                allocs: 0,
                deallocs: 0,
            })
            .collect()
    }

    /// An empty `mem.alloc_size` histogram.
    pub fn size_histogram() -> HistogramSnapshot {
        HistogramSnapshot {
            name: "mem.alloc_size",
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        }
    }

    /// No-op.
    pub(crate) fn append_metrics(_snap: &mut MetricsSnapshot) {}

    /// No-op.
    pub fn reset() {}
}

#[cfg(not(feature = "mem-telemetry"))]
pub use noop::{phase, phase_stats, reset, size_histogram, stats, PhaseGuard, STRIPE_COUNT};

#[cfg(not(feature = "mem-telemetry"))]
pub(crate) use noop::append_metrics;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_all_matches_discriminants() {
        for (i, p) in MemPhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL[{i}] has the wrong discriminant");
        }
        assert_eq!(MemPhase::ALL.len(), PHASE_COUNT);
        assert_eq!(PHASE_METRIC_NAMES.len(), PHASE_COUNT);
        for (i, p) in MemPhase::ALL.iter().enumerate() {
            let (a, d, na, nd) = PHASE_METRIC_NAMES[i];
            for key in [a, d, na, nd] {
                assert!(
                    key.starts_with("mem.phase.") && key.contains(p.name()),
                    "{key} must embed phase name {}",
                    p.name()
                );
            }
        }
    }

    #[cfg(feature = "mem-telemetry")]
    #[test]
    fn alloc_moves_live_and_peak() {
        let before = stats();
        let buf = vec![0u8; 1 << 16];
        let during = stats();
        assert!(
            during.live_bytes >= before.live_bytes + (1 << 16),
            "live must grow by at least the allocation: {} -> {}",
            before.live_bytes,
            during.live_bytes
        );
        assert!(during.peak_bytes >= during.live_bytes.saturating_sub(relaxed_slack()));
        assert!(during.allocs > before.allocs);
        drop(buf);
        let after = stats();
        assert!(
            after.live_bytes < during.live_bytes,
            "dealloc must shrink live"
        );
        assert!(after.dealloc_bytes >= during.dealloc_bytes + (1 << 16));
    }

    /// Peak/live are separate relaxed atomics, so cross-thread interleaving
    /// can make an instantaneous comparison off by in-flight deltas.
    #[cfg(feature = "mem-telemetry")]
    fn relaxed_slack() -> u64 {
        1 << 20
    }

    #[cfg(feature = "mem-telemetry")]
    #[test]
    fn phase_guard_attributes_and_restores() {
        let base: Vec<_> = phase_stats();
        let outer = phase(MemPhase::ContainerEncode);
        let buf = {
            let _inner = phase(MemPhase::ContainerDecode);
            vec![0u8; 4096]
        };
        // Inner guard dropped: we are back on ContainerEncode.
        let buf2 = vec![0u8; 8192];
        drop(outer);
        let now: Vec<_> = phase_stats();
        let delta = |p: MemPhase| {
            now[p as usize]
                .alloc_bytes
                .saturating_sub(base[p as usize].alloc_bytes)
        };
        assert!(
            delta(MemPhase::ContainerDecode) >= 4096,
            "inner phase must be charged for the inner allocation"
        );
        assert!(
            delta(MemPhase::ContainerEncode) >= 8192,
            "outer phase must resume after the inner guard drops"
        );
        drop((buf, buf2));
    }

    #[cfg(feature = "mem-telemetry")]
    #[test]
    fn size_histogram_tracks_allocations() {
        let before = size_histogram();
        let bucket = super::super::bucket_index(3000);
        let buf = vec![0u8; 3000];
        let after = size_histogram();
        let count_at = |h: &HistogramSnapshot| {
            h.buckets
                .iter()
                .find(|(i, _)| *i == bucket)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert!(count_at(&after) > count_at(&before));
        assert!(after.count > before.count);
        assert!(after.sum >= before.sum + 3000);
        drop(buf);
    }

    #[cfg(not(feature = "mem-telemetry"))]
    #[test]
    fn feature_off_is_all_zeros() {
        let buf = vec![0u8; 4096];
        assert_eq!(stats(), MemStats::default());
        assert!(size_histogram().buckets.is_empty());
        assert_eq!(std::mem::size_of::<PhaseGuard>(), 0);
        let guard = phase(MemPhase::QuadrantBuild);
        drop(guard);
        drop(buf);
        assert_eq!(stats().allocs, 0);
    }
}
