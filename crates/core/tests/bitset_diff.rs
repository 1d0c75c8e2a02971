//! Differential property tests: the u64-block bitset representation vs the
//! sorted-id representation, and bitset-backed diagram builds vs the
//! sequential reference through the guided band split.
//!
//! Sizes concentrate on the word boundary (63/64/65 points — one block vs
//! two, with the boundary bit in each position), plus the degenerate empty,
//! full, and duplicate-coordinate datasets the arena code must round-trip.

use proptest::prelude::*;
use skyline_core::geometry::{Dataset, PointId};
use skyline_core::parallel::ParallelConfig;
use skyline_core::quadrant::QuadrantEngine;
use skyline_core::result_set::{
    decode_words, encode_results, scanning_combine, scanning_combine_words, words_for,
    BitsetInterner, ResultInterner,
};

/// Encodes a sorted id list as a bitset block of the given stride.
fn to_block(ids: &[PointId], words: usize) -> Vec<u64> {
    let mut block = vec![0u64; words];
    for id in ids {
        block[id.0 as usize / 64] |= 1u64 << (id.0 % 64);
    }
    block
}

/// Decodes a block back to sorted ids.
fn to_ids(block: &[u64]) -> Vec<PointId> {
    let mut out = Vec::new();
    decode_words(block, &mut out);
    out
}

/// A strictly sorted, deduplicated id list drawn from `0..n`.
fn arb_ids(n: u32) -> impl Strategy<Value = Vec<PointId>> {
    prop::collection::vec(0..n, 0..=(n as usize)).prop_map(|mut raw| {
        raw.sort_unstable();
        raw.dedup();
        raw.into_iter().map(PointId).collect()
    })
}

/// Word-boundary universe sizes: one word, exactly full, one bit into the
/// second word — where stride and masking bugs live.
fn boundary_n() -> impl Strategy<Value = u32> {
    const SIZES: [u32; 6] = [1, 63, 64, 65, 128, 129];
    (0usize..SIZES.len()).prop_map(|i| SIZES[i])
}

proptest! {
    #[test]
    fn scanning_combine_words_matches_run_collapsed_recurrence(
        (n, right, up, diag) in boundary_n()
            .prop_flat_map(|n| (Just(n), arb_ids(n), arb_ids(n), arb_ids(n)))
    ) {
        let words = words_for(n as usize);
        let mut out = vec![0u64; words];
        scanning_combine_words(
            &to_block(&right, words),
            &to_block(&up, words),
            &to_block(&diag, words),
            &mut out,
        );
        let mut expected = Vec::new();
        scanning_combine(&right, &up, &diag, &mut expected);
        prop_assert_eq!(to_ids(&out), expected);
    }

    #[test]
    fn bitset_interner_round_trips_id_for_id(
        (n, sets, order) in boundary_n().prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(arb_ids(n), 1..6),
                proptest::collection::vec(0usize..6, 0..16),
            )
        })
    ) {
        // Interning a sequence of sets as blocks must number them exactly as
        // the sorted-id interner does, with every repeat collapsing to its
        // first id, and finish into the same CSR arrays.
        let words = words_for(n as usize);
        let mut bits = BitsetInterner::new(words);
        let mut sorted = ResultInterner::new();
        for k in order {
            let ids = &sets[k % sets.len()];
            let rid = sorted.intern_slice(ids);
            prop_assert_eq!(bits.intern(&to_block(ids, words)), rid);
        }
        let finished = bits.finish();
        prop_assert_eq!(finished.ends(), sorted.ends());
        prop_assert_eq!(finished.flat_ids(), sorted.flat_ids());
        // encode_results is the inverse of the interning.
        let arena = encode_results(&finished, words);
        prop_assert_eq!(arena.len(), finished.len() * words);
        for (rid, ids) in finished.iter() {
            let block = &arena[rid.0 as usize * words..(rid.0 as usize + 1) * words];
            prop_assert_eq!(block, to_block(ids, words).as_slice());
        }
    }

    #[test]
    fn full_and_empty_blocks_survive_every_operator(n in boundary_n()) {
        let words = words_for(n as usize);
        let full: Vec<PointId> = (0..n).map(PointId).collect();
        let full_block = to_block(&full, words);
        let empty_block = vec![0u64; words];
        let mut out = vec![0u64; words];
        scanning_combine_words(&full_block, &full_block, &full_block, &mut out);
        prop_assert_eq!(to_ids(&out), full);
        scanning_combine_words(&empty_block, &empty_block, &empty_block, &mut out);
        prop_assert_eq!(to_ids(&out), Vec::<PointId>::new());
    }
}

/// Bit-identical diagrams across thread counts at the word-boundary sizes:
/// sequential reference (threads = 0) vs 1 and 4 exact workers through the
/// guided band split, for both bitset-backed engines and the global union.
#[test]
fn diagrams_bit_identical_across_threads_at_word_boundaries() {
    for n in [63usize, 64, 65] {
        let coords: Vec<(i64, i64)> = (0..n)
            .map(|i| {
                let x = (i as i64 * 37) % (3 * n as i64);
                let y = (i as i64 * 61 + 11) % (3 * n as i64);
                (x, y)
            })
            .collect();
        let ds = Dataset::from_coords(coords).expect("generated coords are in range");
        for engine in [QuadrantEngine::Scanning, QuadrantEngine::Sweeping] {
            let reference = engine.build_with(&ds, &ParallelConfig::sequential());
            for threads in [1usize, 4] {
                let built = engine.build_with(&ds, &ParallelConfig::with_threads(threads));
                assert!(
                    built.same_results(&reference),
                    "{} n={n} threads={threads}",
                    engine.name()
                );
            }
        }
        let global_ref = skyline_core::global::build_with(
            &ds,
            QuadrantEngine::Scanning,
            &ParallelConfig::sequential(),
        );
        for threads in [1usize, 4] {
            let built = skyline_core::global::build_with(
                &ds,
                QuadrantEngine::Scanning,
                &ParallelConfig::with_threads(threads),
            );
            assert!(
                built.same_results(&global_ref),
                "global n={n} threads={threads}"
            );
        }
    }
}

/// Duplicate-coordinate degeneracy: many points sharing coordinates collapse
/// the grid; the bitset recurrences must agree with the baseline engine.
#[test]
fn duplicate_coordinate_datasets_agree_with_baseline() {
    // 64 points on 4 distinct locations — ties on every grid line.
    let coords: Vec<(i64, i64)> = (0..64)
        .map(|i| ((i % 2) * 10, ((i / 2) % 2) * 10))
        .collect();
    let ds = Dataset::from_coords(coords).expect("tied coords are in range");
    let reference = QuadrantEngine::Baseline.build(&ds);
    for engine in [QuadrantEngine::Scanning, QuadrantEngine::Sweeping] {
        for threads in [0usize, 1, 4] {
            let built = engine.build_with(&ds, &ParallelConfig::with_threads(threads));
            assert!(
                built.same_results(&reference),
                "{} threads={threads}",
                engine.name()
            );
        }
    }
    let global_ref = skyline_core::global::build(&ds, QuadrantEngine::Baseline);
    for threads in [0usize, 1, 4] {
        let built = skyline_core::global::build_with(
            &ds,
            QuadrantEngine::Scanning,
            &ParallelConfig::with_threads(threads),
        );
        assert!(built.same_results(&global_ref), "global threads={threads}");
    }
}
