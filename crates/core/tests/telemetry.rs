//! Integration tests for the telemetry layer.
//!
//! Three guarantees are pinned here, over the real construction engines
//! rather than hand-made spans:
//!
//! * **Well-parenthesized spans** — for random datasets, engines, and
//!   thread counts, the events drained from a recording session form a
//!   proper forest per thread: sorted pre-order, every child interval
//!   contained in its parent, and every recorded `depth` equal to the
//!   nesting depth reconstructed from the intervals alone.
//! * **Observation does not perturb** — diagrams built with a recording
//!   session active are identical (`same_results`) to diagrams built with
//!   telemetry idle, at sequential and parallel thread counts.
//! * **Metrics are session-independent** — counters accumulate with no
//!   recording session active, and an interval is read as the `delta` of
//!   two snapshots; nothing zeroes them.
//!
//! Recording sessions and the metrics registry are process-global, so every
//! test that touches them serializes on [`session_lock`].

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use skyline_core::dynamic::DynamicEngine;
use skyline_core::geometry::Dataset;
use skyline_core::parallel::ParallelConfig;
use skyline_core::quadrant::QuadrantEngine;
use skyline_core::telemetry::{self, SpanEvent};

/// Recording sessions are process-global: a concurrently running test that
/// called `stop_recording` would end this test's session mid-build. Every
/// session-opening test holds this lock for its whole session.
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

/// Distinct-pair dataset from raw proptest coordinates.
fn dataset_from(pairs: Vec<(i64, i64)>) -> Option<Dataset> {
    let mut seen = std::collections::HashSet::new();
    let coords: Vec<(i64, i64)> = pairs.into_iter().filter(|p| seen.insert(*p)).collect();
    if coords.is_empty() {
        None
    } else {
        Dataset::from_coords(coords).ok()
    }
}

/// Checks that one thread's events (already in the sink's
/// `(start, Reverse(dur))` pre-order) form a properly nested forest and
/// that each event's recorded depth matches the reconstructed nesting.
fn assert_well_parenthesized(thread: u64, events: &[&SpanEvent]) -> Result<(), TestCaseError> {
    let mut stack: Vec<&SpanEvent> = Vec::new();
    for e in events {
        let end = e.start_ns.checked_add(e.dur_ns);
        prop_assert!(end.is_some(), "span `{}` end overflows u64", e.name);
        let end = end.expect("checked just above");
        while let Some(top) = stack.last() {
            if e.start_ns >= top.start_ns + top.dur_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(top) = stack.last() {
            prop_assert!(
                end <= top.start_ns + top.dur_ns,
                "span `{}` [{}, {}) leaks out of parent `{}` [{}, {}) on thread {}",
                e.name,
                e.start_ns,
                end,
                top.name,
                top.start_ns,
                top.start_ns + top.dur_ns,
                thread
            );
        }
        prop_assert_eq!(
            e.depth as usize,
            stack.len(),
            "span `{}` recorded depth {} but nests {} deep on thread {}",
            e.name,
            e.depth,
            stack.len(),
            thread
        );
        stack.push(e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random builds at random thread counts always drain a per-thread
    /// well-parenthesized span forest.
    #[test]
    fn recorded_spans_nest_well_parenthesized(
        pairs in prop::collection::vec((0i64..400, 0i64..400), 1..50),
        engine_pick in 0usize..8,
        threads in 0usize..5,
    ) {
        let Some(ds) = dataset_from(pairs) else { return Ok(()) };
        let engine = QuadrantEngine::ALL[engine_pick % QuadrantEngine::ALL.len()];
        let _guard = session_lock();
        telemetry::start_recording();
        let _ = skyline_core::global::build_with(&ds, engine, &ParallelConfig::with_threads(threads));
        let events = telemetry::stop_recording();

        if cfg!(feature = "telemetry") {
            prop_assert!(!events.is_empty(), "a recorded build must emit spans");
            prop_assert!(
                events.iter().any(|e| e.name == "global.build"),
                "the root build span is missing"
            );
        } else {
            prop_assert!(events.is_empty(), "feature-off probes must be no-ops");
        }

        let mut by_thread: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
        for e in &events {
            by_thread.entry(e.thread).or_default().push(e);
        }
        for (thread, evs) in by_thread {
            assert_well_parenthesized(thread, &evs)?;
        }
    }
}

/// Recording on produces the same diagrams as recording off, sequentially
/// and in parallel — observation must not perturb the computation.
#[test]
fn diagrams_are_identical_with_recording_on_and_off() {
    let _guard = session_lock();
    for seed in [3u64, 11] {
        let ds = lcg_dataset(36, 120, seed);
        for threads in [0usize, 1, 4] {
            let cfg = ParallelConfig::with_threads(threads);
            assert!(!telemetry::recording(), "no session should be active yet");
            let quadrant_off = QuadrantEngine::Sweeping.build_with(&ds, &cfg);
            let global_off = skyline_core::global::build_with(&ds, QuadrantEngine::Sweeping, &cfg);
            let dynamic_off = DynamicEngine::Scanning.build_with(&ds, &cfg);

            telemetry::start_recording();
            let quadrant_on = QuadrantEngine::Sweeping.build_with(&ds, &cfg);
            let global_on = skyline_core::global::build_with(&ds, QuadrantEngine::Sweeping, &cfg);
            let dynamic_on = DynamicEngine::Scanning.build_with(&ds, &cfg);
            let events = telemetry::stop_recording();

            assert!(
                quadrant_on.same_results(&quadrant_off),
                "quadrant diverged under recording (seed {seed}, threads {threads})"
            );
            assert!(
                global_on.same_results(&global_off),
                "global diverged under recording (seed {seed}, threads {threads})"
            );
            assert!(
                dynamic_on.same_results(&dynamic_off),
                "dynamic diverged under recording (seed {seed}, threads {threads})"
            );
            if cfg!(feature = "telemetry") {
                assert!(!events.is_empty(), "the recorded half must emit spans");
            }
        }
    }
}

/// Counters accumulate without any recording session, and each build's
/// interval is the delta of two snapshots; with the feature off the
/// registry stays empty.
#[test]
fn metrics_accumulate_independently_of_recording_sessions() {
    let _guard = session_lock();
    let ds = lcg_dataset(30, 100, 5);
    assert!(!telemetry::recording());
    let first = telemetry::metrics_snapshot();
    let _ = QuadrantEngine::Sweeping.build_with(&ds, &ParallelConfig::sequential());
    let snapshot = telemetry::metrics_snapshot();
    if cfg!(feature = "telemetry") {
        assert!(
            snapshot.counter("quadrant.builds") >= 1,
            "the sweeping build must bump its engine counter"
        );
        // Snapshots are name-sorted so exporters emit stable output.
        let names: Vec<&str> = snapshot.counters.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // A second build's delta holds its own quadrant build, on top of a
        // registry that still carries the first one: nothing was zeroed.
        let _ = QuadrantEngine::Sweeping.build_with(&ds, &ParallelConfig::sequential());
        let after = telemetry::metrics_snapshot();
        let second = telemetry::delta(&snapshot, &after);
        assert_eq!(second.counter("quadrant.builds"), 1);
        assert_eq!(
            telemetry::delta(&first, &after).counter("quadrant.builds"),
            2
        );
        assert!(after.counter("quadrant.builds") >= 2);
        let names: Vec<&str> = second.counters.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            after.counters.iter().map(|c| c.name).collect::<Vec<_>>()
        );
    } else {
        // With `telemetry` off the registry is empty; the independent
        // `mem-telemetry` feature may still contribute its mem.* rows
        // and the allocation-size histogram.
        assert!(snapshot.counters.iter().all(|c| c.name.starts_with("mem.")));
        assert!(snapshot
            .histograms
            .iter()
            .all(|h| h.name.starts_with("mem.")));
    }
}
