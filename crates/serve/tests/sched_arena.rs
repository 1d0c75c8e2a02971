//! Model-checked handle-arena suite: the first-write-wins fill race of
//! `skyline_serve`'s `HandleArena` explored over every interleaving within
//! the preemption bound.
//!
//! Compiled only under `RUSTFLAGS="--cfg skyline_sched"`.
#![cfg(skyline_sched)]

use skyline_core::geometry::PointId;
use skyline_core::maintained::Handle;
use skyline_core::result_set::{ResultId, ResultInterner};
use skyline_core::sync::{sched, Arc};
use skyline_serve::arena::{CacheStats, HandleArena};

/// One non-empty result, {p0, p1}, whose handles are out of id order.
fn fixture() -> (ResultInterner, Vec<Handle>) {
    let mut results = ResultInterner::new();
    let id = results.intern_sorted(vec![PointId(0), PointId(1)]);
    assert_eq!(id, ResultId(1));
    (results, vec![Handle(8), Handle(3)])
}

/// Resolve the `serve.cache.fill` counter site and registry node before
/// entering the model (replay determinism): one fill on a throwaway arena
/// touches it.
fn prewarm(results: &ResultInterner, handles: &[Handle]) {
    HandleArena::new(results.len()).answer(ResultId(1), results, handles);
}

/// Two readers fill the same result id concurrently: both come back with
/// equal slices, exactly one publication wins the slot, and a third lookup
/// is a hit that borrows the published slice — in every interleaving.
#[test]
fn concurrent_fill_same_result_id() {
    let (results, handles) = fixture();
    prewarm(&results, &handles);
    let shared = Arc::new((results, handles));
    sched::model(move || {
        let arena = Arc::new(HandleArena::new(shared.0.len()));
        let (a, s) = (Arc::clone(&arena), Arc::clone(&shared));
        let t = sched::spawn(move || a.answer(ResultId(1), &s.0, &s.1).to_vec());
        let mine = arena.answer(ResultId(1), &shared.0, &shared.1).to_vec();
        let theirs = t.join();
        assert_eq!(mine, theirs, "racing fills must agree on the answer");
        assert_eq!(mine, [Handle(3), Handle(8)], "mapped and sorted");
        let stats = arena.stats();
        assert_eq!(stats.misses, 1, "exactly one publication wins the slot");
        assert_eq!(stats.lookups(), 2);
        // Whoever won, the slot is filled: a third lookup is a hit that
        // borrows the published slice.
        let again = arena.answer(ResultId(1), &shared.0, &shared.1);
        assert_eq!(again, mine.as_slice());
        assert!(std::ptr::eq(
            again,
            arena.answer(ResultId(1), &shared.0, &shared.1)
        ));
        assert_eq!(arena.stats(), CacheStats { hits: 3, misses: 1 });
    });
}

/// Readers filling *different* result ids never disturb each other's
/// slots: each gets its own answer and each id publishes exactly once.
#[test]
fn distinct_result_ids_fill_independently() {
    let (results, handles) = fixture();
    prewarm(&results, &handles);
    let shared = Arc::new((results, handles));
    sched::model(move || {
        let arena = Arc::new(HandleArena::new(shared.0.len()));
        let (a, s) = (Arc::clone(&arena), Arc::clone(&shared));
        let t = sched::spawn(move || a.answer(ResultId(0), &s.0, &s.1).to_vec());
        let full = arena.answer(ResultId(1), &shared.0, &shared.1).to_vec();
        let empty = t.join();
        assert!(empty.is_empty());
        assert_eq!(full, [Handle(3), Handle(8)]);
        assert_eq!(arena.stats(), CacheStats { hits: 0, misses: 2 });
    });
}
