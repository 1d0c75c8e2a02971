//! The per-diagram handle arena: every interned result, mapped to sorted
//! stable handles once, then served by reference.
//!
//! A skyline diagram already deduplicates its answers: each cell holds a
//! [`ResultId`] into the diagram's interner, and every query point in the
//! cell gets that one result. The serving layer answers in handle space
//! (see [`crate::snapshot`]), so the only per-answer work left after point
//! location is mapping the result's point ids to handles and sorting them.
//! A [`HandleArena`] does that work once per *result*, not per query: it
//! holds one write-once [`skyline_core::sync::OnceLock`] slot per interned
//! result id, filled the first time the result is asked for (the slot
//! table itself is allocated by the arena's first read). Every later
//! answer is a borrow of the slot — no allocation, no lock, no reference
//! count.
//!
//! The arena is exact by construction: a slot only ever holds the mapping
//! of its own result id (there is no key to collide), it lives inside one
//! snapshot (a new epoch is a new arena), and a racing fill computes the
//! identical slice, so losing the publication race only drops a duplicate.
//!
//! Per-arena hit/fill counters are [`telemetry::CounterCell`]s (always-on
//! relaxed atomics; `serve-bench` prints them). Fills also feed the
//! process-wide registry as `serve.cache.fill` and are attributed to the
//! `cache_fill` memory phase; hits touch no global state.
//!
//! This file is read-path code: the `no-lock-read-path` lint keeps
//! `Mutex`/`RwLock` out of it.

use skyline_core::maintained::Handle;
use skyline_core::result_set::{ResultId, ResultInterner};
use skyline_core::sync::OnceLock;
use skyline_core::telemetry;

/// Hit/fill counters of one arena (or the sum over several).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a filled slot (including a lookup that lost
    /// a fill race and returned the winner's slice).
    pub hits: u64,
    /// Lookups that filled their slot: exactly one per result id ever
    /// asked for.
    pub misses: u64,
}

impl CacheStats {
    /// Component-wise sum, for aggregating per-diagram arenas.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }

    /// Total lookups that went through the arena.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One result's sorted handles, filled at most once.
type Slot = OnceLock<Box<[Handle]>>;

/// One diagram's lazily filled result-id → sorted-handles table. See the
/// module docs.
#[derive(Debug)]
pub struct HandleArena {
    /// Number of interned results, hence of slots.
    results: usize,
    /// Slot `k` holds the sorted handles of `ResultId(k)` once filled. The
    /// table itself is allocated by the first answer, so publishing (or
    /// cold-starting) an epoch allocates nothing for diagrams it never
    /// reads.
    slots: OnceLock<Box<[Slot]>>,
    hits: telemetry::CounterCell,
    fills: telemetry::CounterCell,
}

impl HandleArena {
    /// An empty arena for an interner of `results` distinct results.
    pub fn new(results: usize) -> Self {
        HandleArena {
            results,
            slots: OnceLock::new(),
            hits: telemetry::CounterCell::new(),
            fills: telemetry::CounterCell::new(),
        }
    }

    /// The sorted handles of result `id`, where `results` is the interner
    /// the arena was sized for and `handles[i]` is the handle of
    /// `PointId(i)`. A filled slot is one acquire load; an empty one is
    /// filled on the caller and then published write-once.
    ///
    /// # Panics
    /// If `id` is outside the interner the arena was sized for.
    #[inline]
    pub fn answer(&self, id: ResultId, results: &ResultInterner, handles: &[Handle]) -> &[Handle] {
        let slots = self
            .slots
            .get_or_init(|| (0..self.results).map(|_| OnceLock::new()).collect());
        let slot = &slots[id.0 as usize];
        match slot.get() {
            Some(answer) => {
                self.hits.add(1);
                answer
            }
            None => self.fill(slot, id, results, handles),
        }
    }

    #[cold]
    fn fill<'a>(
        &self,
        slot: &'a Slot,
        id: ResultId,
        results: &ResultInterner,
        handles: &[Handle],
    ) -> &'a [Handle] {
        let mapped = {
            let _mem = telemetry::mem::phase(telemetry::mem::MemPhase::CacheFill);
            let mut mapped: Vec<Handle> =
                results.get(id).iter().map(|p| handles[p.index()]).collect();
            // Handles need not follow id order (a cold-started container
            // carries whatever table it was written with).
            mapped.sort_unstable();
            mapped.into_boxed_slice()
        };
        // First write wins; a racing filler mapped the identical result, so
        // dropping the loser's copy changes nothing. The mapping ran above,
        // outside the slot, so a racer only ever waits for the store.
        let mut won = false;
        let answer = slot.get_or_init(|| {
            won = true;
            mapped
        });
        if won {
            self.fills.add(1);
            skyline_core::counter!("serve.cache.fill").add(1);
        } else {
            self.hits.add(1);
        }
        answer
    }

    /// Counters so far. Relaxed reads: exact once readers quiesce,
    /// monotone under concurrency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.fills.get(),
        }
    }

    /// Estimated heap bytes: the slot table (once allocated) plus every
    /// filled slice.
    pub fn heap_bytes(&self) -> usize {
        self.slots.get().map_or(0, |slots| {
            std::mem::size_of_val::<[Slot]>(slots)
                + slots
                    .iter()
                    .filter_map(OnceLock::get)
                    .map(|answer| std::mem::size_of_val::<[Handle]>(answer))
                    .sum::<usize>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::geometry::PointId;

    /// Results {}, {0, 2}, {1}; handles deliberately not in id order.
    fn fixture() -> (ResultInterner, Vec<Handle>) {
        let mut results = ResultInterner::new();
        results.intern_sorted(vec![PointId(0), PointId(2)]);
        results.intern_sorted(vec![PointId(1)]);
        (results, vec![Handle(9), Handle(4), Handle(1)])
    }

    #[test]
    fn fills_once_then_borrows_the_same_slice() {
        let (results, handles) = fixture();
        let arena = HandleArena::new(results.len());
        let first = arena.answer(ResultId(1), &results, &handles);
        assert_eq!(first, &[Handle(1), Handle(9)], "mapped and sorted");
        let second = arena.answer(ResultId(1), &results, &handles);
        assert!(std::ptr::eq(first, second), "hits borrow the stored slice");
        assert_eq!(arena.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn every_result_id_has_its_own_slot() {
        let (results, handles) = fixture();
        let arena = HandleArena::new(results.len());
        assert!(arena.answer(ResultId(0), &results, &handles).is_empty());
        assert_eq!(arena.answer(ResultId(2), &results, &handles), &[Handle(4)]);
        assert_eq!(
            arena.answer(ResultId(1), &results, &handles),
            &[Handle(1), Handle(9)]
        );
        assert_eq!(arena.stats(), CacheStats { hits: 0, misses: 3 });
    }

    #[test]
    fn heap_bytes_grow_with_filled_slots() {
        let (results, handles) = fixture();
        let arena = HandleArena::new(results.len());
        assert_eq!(arena.heap_bytes(), 0, "the slot table waits for a read");
        arena.answer(ResultId(0), &results, &handles);
        let table = arena.heap_bytes();
        assert_eq!(table, 3 * std::mem::size_of::<Slot>());
        arena.answer(ResultId(1), &results, &handles);
        assert_eq!(
            arena.heap_bytes(),
            table + 2 * std::mem::size_of::<Handle>()
        );
    }

    #[test]
    fn stats_merge() {
        let a = CacheStats { hits: 2, misses: 3 };
        let b = CacheStats { hits: 5, misses: 7 };
        let m = a.merged(b);
        assert_eq!(
            m,
            CacheStats {
                hits: 7,
                misses: 10
            }
        );
        assert_eq!(m.lookups(), 17);
    }

    #[test]
    fn concurrent_fills_agree_and_publish_once_per_result() {
        use skyline_core::parallel::{self, ParallelConfig};
        let (results, handles) = fixture();
        let arena = HandleArena::new(results.len());
        let answers = parallel::map_indexed(&ParallelConfig::with_threads(4), 64, |i| {
            arena.answer(ResultId((i % 3) as u32), &results, &handles)
        });
        for (i, got) in answers.iter().enumerate() {
            let mut want: Vec<Handle> = results
                .get(ResultId((i % 3) as u32))
                .iter()
                .map(|p| handles[p.index()])
                .collect();
            want.sort_unstable();
            assert_eq!(*got, want.as_slice());
        }
        let stats = arena.stats();
        assert_eq!(stats.lookups(), 64);
        assert_eq!(stats.misses, 3, "exactly one fill per result id");
    }
}
