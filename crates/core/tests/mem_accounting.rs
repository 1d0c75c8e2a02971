//! Integration tests for the memory observatory (`telemetry::mem`).
//!
//! Three guarantees are pinned here, over the real construction engines:
//!
//! * **Arena accounting is honest** — for random datasets, the explicit
//!   `heap_bytes()` estimate of a built diagram agrees with the counting
//!   allocator's live-bytes delta across the build, within a generous
//!   slack (the allocator also sees registry nodes, map-capacity rounding,
//!   and harness noise; the estimate must still account for the bulk).
//! * **Attribution follows the thread** — a parallel build charges its
//!   worker-thread allocations to the `pool_worker` phase, not to the
//!   `pool_stitch` phase of the sequential merge, and not to the build
//!   phase active on the calling thread.
//! * **Observation does not perturb** — diagrams built with the counting
//!   allocator active are identical across builds and across thread
//!   counts (the cross-feature differential lives in CI's `fuzz_diff`
//!   matrix; this file pins determinism within one configuration).
//!
//! The allocator counters are process-global, so every test serializes on
//! [`session_lock`] and asserts with slack rather than exact equality:
//! the test harness and proptest allocate on their own schedule.

use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use skyline_core::dynamic::DynamicEngine;
use skyline_core::geometry::Dataset;
use skyline_core::parallel::ParallelConfig;
use skyline_core::quadrant::QuadrantEngine;
use skyline_core::telemetry::{self, mem};

/// The live/peak counters are process-global: a concurrently running test
/// would fold its allocations into this test's deltas. Every test holds
/// this lock across its measured region.
fn session_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Deterministic distinct-point dataset (same LCG family as the unit
/// tests' `test_data`, which integration tests cannot reach).
fn lcg_dataset(n: usize, domain: u64, seed: u64) -> Dataset {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % domain
    };
    let mut seen = std::collections::HashSet::new();
    let mut coords: Vec<(i64, i64)> = Vec::new();
    while coords.len() < n {
        let p = (next() as i64, next() as i64);
        if seen.insert(p) {
            coords.push(p);
        }
    }
    Dataset::from_coords(coords).expect("LCG coordinates are within bounds")
}

/// Slack for comparisons between `heap_bytes()` and allocator deltas:
/// covers leaked registry nodes, hashbrown capacity rounding, and
/// allocations the harness makes on other threads while we measure.
const SLACK: u64 = 1 << 19;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn heap_bytes_tracks_the_allocator_live_delta(
        n in 120usize..260,
        seed in 1u64..1_000,
    ) {
        if !mem::enabled() {
            return Ok(());
        }
        let _guard = session_lock();
        let ds = lcg_dataset(n, 4 * n as u64, seed);
        let before = mem::stats();
        let diagram = QuadrantEngine::Sweeping.build(&ds);
        let after = mem::stats();
        let live_delta = after.live_bytes.saturating_sub(before.live_bytes);
        let heap = diagram.heap_bytes() as u64;
        // The estimate must not claim more than the allocator retained...
        prop_assert!(
            heap <= live_delta + SLACK,
            "heap_bytes {heap} exceeds live delta {live_delta} + slack"
        );
        // ...and must account for the bulk of what was retained.
        prop_assert!(
            live_delta <= 2 * heap + SLACK,
            "live delta {live_delta} dwarfs heap_bytes {heap}: the estimate is missing arenas"
        );
        drop(diagram);
        // Dropping the diagram returns live bytes to (near) the baseline:
        // nothing retained escaped the accounting.
        let settled = mem::stats();
        prop_assert!(
            settled.live_bytes.saturating_sub(before.live_bytes) <= SLACK,
            "after drop, {} bytes over baseline remain live",
            settled.live_bytes.saturating_sub(before.live_bytes)
        );
    }
}

#[test]
fn parallel_build_charges_workers_not_stitch() {
    if !mem::enabled() {
        return;
    }
    let _guard = session_lock();
    let ds = lcg_dataset(220, 900, 7);
    // Exact thread semantics (no hardware cap): real worker threads spawn
    // even on a 1-core host, which is the point — attribution must follow
    // the thread, not the host width.
    let cfg = ParallelConfig::with_threads(4);
    let before = telemetry::metrics_snapshot();
    let _diagram = QuadrantEngine::Sweeping.build_with(&ds, &cfg);
    let moved = telemetry::delta(&before, &telemetry::metrics_snapshot());
    let alloc_bytes = |p: mem::MemPhase| moved.counter(mem::PHASE_METRIC_NAMES[p as usize].0);
    let worker = alloc_bytes(mem::MemPhase::PoolWorker);
    let stitch = alloc_bytes(mem::MemPhase::PoolStitch);
    let build = alloc_bytes(mem::MemPhase::QuadrantBuild);
    // The row-band compute happens on worker threads under the worker
    // span: it must carry allocations, and more than the sequential merge.
    assert!(worker > 0, "workers allocated nothing: {moved:?}");
    assert!(
        worker > stitch,
        "stitch ({stitch} B) outweighs workers ({worker} B): worker allocations are \
         landing in the wrong phase"
    );
    // The calling thread keeps its own build phase for the non-pool parts.
    assert!(
        build > 0,
        "the calling thread's build phase recorded nothing: {moved:?}"
    );
}

#[test]
fn counting_allocator_does_not_perturb_results() {
    let _guard = session_lock();
    let ds = lcg_dataset(80, 320, 11);
    let sequential = ParallelConfig::with_threads(0);
    let parallel = ParallelConfig::with_threads(4);
    let reference = QuadrantEngine::Sweeping.build_with(&ds, &sequential);
    for cfg in [&sequential, &parallel] {
        assert!(
            QuadrantEngine::Sweeping
                .build_with(&ds, cfg)
                .same_results(&reference),
            "results diverged at {} threads with the counting allocator installed",
            cfg.threads()
        );
    }
    let dyn_ds = lcg_dataset(14, 60, 3);
    let dyn_reference = DynamicEngine::Scanning.build_with(&dyn_ds, &sequential);
    assert!(
        DynamicEngine::Scanning
            .build_with(&dyn_ds, &parallel)
            .same_results(&dyn_reference),
        "dynamic results diverged under the counting allocator"
    );
}

#[test]
fn metrics_snapshot_carries_the_mem_rows_and_reset_reseats_peak() {
    if !mem::enabled() {
        // With the feature off the registry must stay free of mem rows.
        let snap = telemetry::metrics_snapshot();
        assert!(
            !snap.counters.iter().any(|c| c.name.starts_with("mem.")),
            "mem rows present without mem-telemetry"
        );
        return;
    }
    let _guard = session_lock();
    let before = telemetry::metrics_snapshot();
    let ds = lcg_dataset(60, 240, 5);
    let _diagram = QuadrantEngine::Sweeping.build(&ds);
    let snap = telemetry::metrics_snapshot();
    for key in [
        "mem.live_bytes",
        "mem.peak_bytes",
        "mem.alloc_bytes",
        "mem.allocs",
    ] {
        assert!(
            snap.counters.iter().any(|c| c.name == key),
            "missing {key} in snapshot"
        );
    }
    let moved = telemetry::delta(&before, &snap);
    assert!(
        moved.counter("mem.phase.quadrant_build.alloc_bytes") > 0,
        "the build's phase attribution is missing from the snapshot delta"
    );
    assert!(
        moved
            .histograms
            .iter()
            .any(|h| h.name == "mem.alloc_size" && h.count > 0),
        "allocation-size histogram missing from the snapshot delta"
    );
    // `mem::reset`, as perfbench's `measure` runs it: the churn counters
    // read zero and the peak is re-seated at the current live level.
    mem::reset();
    let stats = mem::stats();
    assert_eq!(stats.alloc_bytes, 0);
    assert_eq!(stats.allocs, 0);
    assert!(stats.peak_bytes <= stats.live_bytes + SLACK);
}
