//! Interned skyline result sets: sorted-id arenas and u64-block bitsets.
//!
//! A diagram assigns a skyline result (a set of point ids) to each of up to
//! `O(n²)` cells — or `O(n⁴)` subcells for the dynamic diagram — but the
//! number of *distinct* results is bounded by the number of skyline
//! polyominoes, which is far smaller in practice. Storing one `u32` result id
//! per cell and interning the distinct sets keeps the output structure within
//! the paper's `O(min(s², n²)·n)` space bound without a per-cell `Vec`
//! allocation, and makes polyomino merging a cheap group-by on ids.
//!
//! # Storage layout
//!
//! Results are stored in one struct-of-arrays arena: the distinct sets live
//! in one flat buffer of strictly sorted `PointId` runs with a parallel
//! end-offset array, so result `k` is a slice of the arena rather than its
//! own heap allocation (see DESIGN.md §10). [`ResultInterner`] is that
//! arena — the query-facing representation (`get` hands out slices, the
//! container streams the arena).
//!
//! The builders compute results as fixed-stride blocks of `u64` words, one
//! bit per point id, so the diagram recurrences are word-parallel: unions
//! are `OR` over blocks and the scanning recurrence of Theorem 1 is three
//! bitwise operations per word (see [`scanning_combine_words`]).
//! [`BitsetInterner`] interns such blocks straight into a
//! [`ResultInterner`] arena: it looks a block up by its words, and decodes
//! it into sorted ids only when it is new. No bitset copy of the results is
//! kept.
//!
//! [`BitRuns`] is the one run-collapsed per-worker buffer, replayed into a
//! [`BitsetInterner`] by the deterministic single-threaded stitch; the
//! quadrant, global and dynamic builders all use it.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::geometry::PointId;

/// Identifier of an interned skyline result inside a [`ResultInterner`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ResultId(pub u32);

/// FNV-1a over the id sequence; cheap and good enough for a `HashMap` key
/// that is verified by full comparison on collision.
fn fnv1a(ids: &[PointId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for b in id.0.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a folded one `u64` word at a time — the bitset blocks have fixed
/// stride, so per-word folding keeps the hash loop at `words` iterations.
fn fnv1a_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The hasher of [`HashChains::heads`]. Its keys are already FNV-1a digests
/// of whole result sets, so one multiply-xorshift round is enough to spread
/// them over the table; a keyed hash would buy nothing, because inputs that
/// collide under FNV-1a land in one chain whatever the table hashes with.
#[derive(Clone, Copy, Debug, Default)]
struct DigestHasher(u64);

impl std::hash::Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

/// Ends a hash chain in [`HashChains::next`].
const CHAIN_END: u32 = u32::MAX;

/// The intern lookup of an append-only arena, without a per-hash
/// allocation: `heads` maps a hash to the newest id interned under it, and
/// `next[id]` links each id to the previous one with the same hash. Equal
/// hashes are resolved by the caller's full comparison, so collisions only
/// lengthen a chain.
#[derive(Clone, Debug, Default)]
struct HashChains {
    heads: HashMap<u64, u32, BuildHasherDefault<DigestHasher>>,
    /// Per interned id: the previous id with the same hash, or `CHAIN_END`.
    next: Vec<u32>,
}

impl HashChains {
    /// The first id interned under `hash` (newest first) for which `equal`
    /// holds.
    fn find(&self, hash: u64, mut equal: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut id = *self.heads.get(&hash)?;
        loop {
            if equal(id) {
                return Some(id);
            }
            id = self.next[id as usize];
            if id == CHAIN_END {
                return None;
            }
        }
    }

    /// Records `id`, the arena's newest entry, under `hash`. Entries adopted
    /// without a lookup (a read-only arena) get no chain of their own.
    fn push(&mut self, hash: u64, id: u32) {
        self.next.resize(id as usize, CHAIN_END);
        let prev = self.heads.insert(hash, id).unwrap_or(CHAIN_END);
        self.next.push(prev);
    }

    /// Heap bytes of the head table (estimated; see
    /// [`crate::telemetry::mem::map_heap_bytes`]) and the chain links.
    fn heap_bytes(&self) -> usize {
        use crate::telemetry::mem::{map_heap_bytes, vec_heap_bytes};
        map_heap_bytes(&self.heads) + vec_heap_bytes(&self.next)
    }
}

/// Deduplicating store of skyline results, laid out as a flat arena.
///
/// Every result is a strictly increasing sequence of [`PointId`]s. The empty
/// result is always interned with id 0 so that boundary cells can be filled
/// without a lookup. Result `k` occupies `flat[ends[k-1]..ends[k]]`; there is
/// no per-result allocation.
#[derive(Clone, Debug, Default)]
pub struct ResultInterner {
    /// Concatenated ids of every distinct result, in interning order.
    flat: Vec<PointId>,
    /// Per result: exclusive end offset into `flat`.
    ends: Vec<u32>,
    /// Empty in a read-only interner.
    lookup: HashChains,
}

impl ResultInterner {
    /// Creates an interner with the empty result pre-interned as id 0.
    pub fn new() -> Self {
        let mut interner = ResultInterner {
            flat: Vec::new(),
            ends: Vec::new(),
            lookup: HashChains::default(),
        };
        let empty = interner.intern_slice(&[]);
        debug_assert_eq!(empty, ResultId(0));
        interner
    }

    /// The id of the empty result.
    #[inline]
    pub fn empty(&self) -> ResultId {
        ResultId(0)
    }

    /// Interns a result that is already sorted and duplicate-free.
    ///
    /// # Panics
    /// Debug builds assert the sortedness precondition.
    pub fn intern_sorted(&mut self, ids: Vec<PointId>) -> ResultId {
        self.intern_slice(&ids)
    }

    /// Interns a result given in arbitrary order (sorts and dedups first).
    pub fn intern_unsorted(&mut self, mut ids: Vec<PointId>) -> ResultId {
        ids.sort_unstable();
        ids.dedup();
        self.intern_slice(&ids)
    }

    /// Interns a borrowed, strictly sorted result, copying into the arena
    /// only when the set was not seen before. The workhorse of the parallel
    /// stitchers in [`crate::parallel`]-enabled engines: workers hand back
    /// flat borrowed result runs and the single-threaded stitch interns them
    /// without a per-cell allocation.
    ///
    /// # Panics
    /// Debug builds assert the sortedness precondition.
    pub fn intern_slice(&mut self, ids: &[PointId]) -> ResultId {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "result must be strictly sorted"
        );
        let h = fnv1a(ids);
        if let Some(k) = self.lookup.find(h, |k| self.get(ResultId(k)) == ids) {
            return ResultId(k);
        }
        let k = self.ends.len() as u32;
        self.flat.extend_from_slice(ids);
        self.ends.push(self.flat.len() as u32);
        self.lookup.push(h, k);
        ResultId(k)
    }

    /// The id of an interned result equal to `ids`, if any, without
    /// interning it. Always `None` on a read-only interner.
    pub(crate) fn find(&self, ids: &[PointId]) -> Option<ResultId> {
        self.lookup
            .find(fnv1a(ids), |k| self.get(ResultId(k)) == ids)
            .map(ResultId)
    }

    /// The point ids of an interned result, in increasing order.
    #[inline]
    pub fn get(&self, id: ResultId) -> &[PointId] {
        let k = id.0 as usize;
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        &self.flat[start..self.ends[k] as usize]
    }

    /// Number of distinct interned results (including the empty one).
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether only the empty result has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.len() <= 1
    }

    /// Heap bytes owned by the arena: the flat id and offset buffers plus
    /// the lookup's head table (estimated; see
    /// [`crate::telemetry::mem::map_heap_bytes`]) and chain links.
    pub fn heap_bytes(&self) -> usize {
        use crate::telemetry::mem::vec_heap_bytes;
        vec_heap_bytes(&self.flat) + vec_heap_bytes(&self.ends) + self.lookup.heap_bytes()
    }

    /// Iterates over `(id, result)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResultId, &[PointId])> + '_ {
        (0..self.ends.len()).map(|k| {
            let id = ResultId(k as u32);
            (id, self.get(id))
        })
    }

    /// Total number of point ids stored across all distinct results — the
    /// diagram's intrinsic output size, reported by the E5 statistics.
    pub fn total_ids(&self) -> usize {
        self.flat.len()
    }

    /// The CSR end-offset array: result `k` occupies
    /// `flat_ids()[ends()[k-1]..ends()[k]]` (with `ends[-1] = 0`). Written
    /// verbatim into snapshot containers (`crate::container`).
    #[inline]
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The flat arena of concatenated result ids, in interning order.
    #[inline]
    pub fn flat_ids(&self) -> &[PointId] {
        &self.flat
    }

    /// Reassembles an interner directly from its CSR arrays — the zero-copy
    /// load path of `crate::container`: the arrays are *moved* into place
    /// after one validation scan, with no per-result re-interning.
    ///
    /// Validates everything [`intern_slice`](Self::intern_slice) guarantees
    /// by construction: the empty result first (id 0), non-decreasing end
    /// offsets covering `flat` exactly, every run strictly sorted, and no
    /// two runs equal. The lookup table is rebuilt so subsequent interning
    /// against the loaded arena stays deduplicating.
    pub fn from_csr(flat: Vec<PointId>, ends: Vec<u32>) -> Result<Self, &'static str> {
        Self::validate_csr(&flat, &ends)?;
        let mut interner = ResultInterner {
            flat,
            ends,
            lookup: HashChains::default(),
        };
        interner.lookup.heads.reserve(interner.ends.len());
        interner.lookup.next.reserve_exact(interner.ends.len());
        for k in 0..interner.ends.len() as u32 {
            let run = interner.get(ResultId(k));
            let h = fnv1a(run);
            if interner
                .lookup
                .find(h, |prev| interner.get(ResultId(prev)) == run)
                .is_some()
            {
                return Err("duplicate result set in arena");
            }
            interner.lookup.push(h, k);
        }
        Ok(interner)
    }

    /// A read-only copy: the CSR arrays without the intern lookup table —
    /// the state a decoded snapshot container holds. A published index
    /// never interns again, so serving layers copy a writer's diagram this
    /// way instead of cloning a table nobody will consult.
    pub fn to_readonly(&self) -> Self {
        ResultInterner {
            flat: self.flat.clone(),
            ends: self.ends.clone(),
            lookup: HashChains::default(),
        }
    }

    /// Drops the intern lookup table in place (see [`Self::to_readonly`]).
    /// Interning into the result afterwards would no longer deduplicate.
    pub fn into_readonly(mut self) -> Self {
        self.lookup = HashChains::default();
        self
    }

    /// Adopts CSR arrays *without* building the intern lookup table, from
    /// an id arena still in its little-endian container encoding (four
    /// bytes per id): the same structural validation as [`Self::from_csr`]
    /// (CSR laws, strict per-run sortedness) but no duplicate-set scan and
    /// an empty lookup, for arenas whose sets are distinct by construction.
    /// A loaded interner is read-only (server mutations build or repair
    /// diagrams into fresh arenas), so the lookup is never consulted, and
    /// skipping its reconstruction is most of what makes a cold start an
    /// order of magnitude faster than a rebuild (experiment E14). The ids
    /// are decoded a cache-sized block at a time and each block's order is
    /// checked while it is still in cache, so the arena is streamed from
    /// memory once.
    pub(crate) fn from_le_csr_readonly(
        flat_le: &[u8],
        ends: Vec<u32>,
    ) -> Result<Self, &'static str> {
        /// Ids decoded per block: 16 KiB of output, well inside L1/L2.
        const BLOCK: usize = 4096;
        debug_assert_eq!(flat_le.len() % 4, 0, "four bytes per id");
        let mut flat: Vec<PointId> = Vec::with_capacity(flat_le.len() / 4);
        let mut descents = 0usize;
        for block in flat_le.chunks(4 * BLOCK) {
            let start = flat.len();
            flat.extend(block.chunks_exact(4).map(|b| {
                PointId(u32::from_le_bytes(
                    b.try_into().expect("chunks_exact(4) yields 4-byte slices"),
                ))
            }));
            // Include the pair that straddles the previous block.
            descents += count_descents(&flat[start.saturating_sub(1)..]);
        }
        Self::check_csr(&flat, &ends, descents)?;
        Ok(ResultInterner {
            flat,
            ends,
            lookup: HashChains::default(),
        })
    }

    /// Adopts CSR arrays that a builder produced valid by construction:
    /// distinct, strictly sorted runs with the empty result first. The
    /// sweeping engine and the local repair ([`crate::repair`]) assemble
    /// their arenas this way; debug builds check the laws
    /// [`Self::from_le_csr_readonly`] checks, release builds skip the scan.
    /// The interner is read-only.
    pub(crate) fn from_valid_runs(flat: Vec<PointId>, ends: Vec<u32>) -> Self {
        debug_assert_eq!(Self::validate_csr(&flat, &ends), Ok(()));
        ResultInterner {
            flat,
            ends,
            lookup: HashChains::default(),
        }
    }

    /// The structural CSR laws shared by [`Self::from_csr`] and
    /// [`Self::from_valid_runs`]; duplicate detection is separate because
    /// only the deduplicating constructor needs the hash buckets.
    fn validate_csr(flat: &[PointId], ends: &[u32]) -> Result<(), &'static str> {
        Self::check_csr(flat, ends, count_descents(flat))
    }

    /// [`Self::validate_csr`] given `descents`, the number of adjacent
    /// pairs of `flat` that do not strictly increase.
    fn check_csr(flat: &[PointId], ends: &[u32], descents: usize) -> Result<(), &'static str> {
        if ends.first() != Some(&0) {
            return Err("the empty result must be interned first (ends[0] == 0)");
        }
        if u32::try_from(flat.len()).is_err() {
            return Err("id arena exceeds the u32 offset range");
        }
        if ends.windows(2).any(|w| w[0] > w[1]) {
            return Err("end offsets must be non-decreasing");
        }
        if ends.last().map(|&e| e as usize) != Some(flat.len()) {
            return Err("end offsets must cover the id arena exactly");
        }
        // Every run is strictly sorted exactly when each descent of the
        // arena sits on a run boundary (each boundary counted once).
        let mut boundary_descents = 0usize;
        let mut prev_end = 0usize;
        for &end in ends {
            let end = end as usize;
            if end != prev_end && end < flat.len() && flat[end - 1] >= flat[end] {
                boundary_descents += 1;
            }
            prev_end = end;
        }
        if descents != boundary_descents {
            return Err("each result run must be strictly sorted");
        }
        Ok(())
    }
}

/// The number of adjacent pairs of `ids` that do not strictly increase:
/// one branch-free pass, so it vectorizes. The per-block counters are
/// `u32` (twice as many vector lanes as `usize`); a block of 2^16 pairs
/// cannot overflow one.
fn count_descents(ids: &[PointId]) -> usize {
    let pairs = ids.len().saturating_sub(1);
    let (left, right) = (&ids[..pairs], &ids[ids.len() - pairs..]);
    left.chunks(1 << 16)
        .zip(right.chunks(1 << 16))
        .map(|(left, right)| {
            let mut count = 0u32;
            for (a, b) in left.iter().zip(right) {
                count += u32::from(a.0 >= b.0);
            }
            count as usize
        })
        .sum()
}

/// The clamped multiset expression of the paper's Theorem 1:
/// `Sky(C_{i,j}) = Sky(C_{i+1,j}) ⊎ Sky(C_{i,j+1}) ∖ Sky(C_{i+1,j+1})`.
///
/// Each input is a strictly sorted set, so per-id multiplicities are
/// `{0, 1}`; an id belongs to the output iff
/// `[right] + [up] - [diag] >= 1`. Clamping at zero (instead of letting the
/// `diag` term go negative) extends the published identity to the corner
/// configuration where the three upper ranges of the theorem's proof are
/// empty while its upper-right range `D` is not — there `Sky(C_{i+1,j+1})`
/// contains points that appear in neither neighbor and must simply be
/// dropped. See `quadrant::scanning` for the full derivation and the
/// regression test pinning this configuration, and
/// [`scanning_combine_words`] for the word-parallel form.
pub fn scanning_combine(
    right: &[PointId],
    up: &[PointId],
    diag: &[PointId],
    out: &mut Vec<PointId>,
) {
    out.clear();
    let (mut a, mut b, mut c) = (0usize, 0usize, 0usize);
    loop {
        let next = [
            right.get(a).copied(),
            up.get(b).copied(),
            diag.get(c).copied(),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(id) = next else { break };
        let mut count = 0i32;
        if right.get(a) == Some(&id) {
            count += 1;
            a += 1;
        }
        if up.get(b) == Some(&id) {
            count += 1;
            b += 1;
        }
        if diag.get(c) == Some(&id) {
            count -= 1;
            c += 1;
        }
        if count >= 1 {
            out.push(id);
        }
    }
}

/// Sorted-set union of two strictly sorted id slices.
pub fn union_sorted(a: &[PointId], b: &[PointId], out: &mut Vec<PointId>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                out.push(x);
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                out.push(x);
                i += 1;
            }
            (Some(_), Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// Number of `u64` words per bitset block for an `n`-point dataset: one bit
/// per point id, at least one word so the empty dataset stays well-formed.
#[inline]
pub const fn words_for(n: usize) -> usize {
    let w = n.div_ceil(64);
    if w == 0 {
        1
    } else {
        w
    }
}

/// Word-parallel 4-way union: `out = a | b | c | d` — the global diagram's
/// Definition 2 union of the four per-quadrant results in one pass.
#[inline]
pub fn union4_words(a: &[u64], b: &[u64], c: &[u64], d: &[u64], out: &mut [u64]) {
    debug_assert!(
        a.len() == out.len()
            && b.len() == out.len()
            && c.len() == out.len()
            && d.len() == out.len()
    );
    for k in 0..out.len() {
        out[k] = a[k] | b[k] | c[k] | d[k];
    }
}

/// Word-parallel form of [`scanning_combine`], the clamped Theorem 1
/// recurrence. Over `{0,1}` multiplicities, `[right] + [up] - [diag] >= 1`
/// holds exactly when the id is in `right ∪ up` and not in
/// `diag ∖ (right ∩ up)`:
///
/// * id in `right ∩ up`: count is `2 - [diag] >= 1` — always kept;
/// * id in exactly one neighbor: count is `1 - [diag]` — kept iff not in
///   `diag`;
/// * id in neither neighbor: count is `-[diag]`, clamped — never kept.
///
/// Hence `out = (right | up) & !(diag & !(right & up))`, three bitwise
/// operations per 64 ids.
#[inline]
pub fn scanning_combine_words(right: &[u64], up: &[u64], diag: &[u64], out: &mut [u64]) {
    debug_assert!(right.len() == out.len() && up.len() == out.len() && diag.len() == out.len());
    for k in 0..out.len() {
        let (r, u) = (right[k], up[k]);
        out[k] = (r | u) & !(diag[k] & !(r & u));
    }
}

/// Deduplicating store of skyline results, looked up by bitset block and
/// stored as sorted ids.
///
/// The builders' interner: each cell's result arrives as a fixed-stride
/// block of `u64` words (bit `i` set ⇔ `PointId(i)` in the result), so a
/// lookup hashes a fixed-size block (FNV-1a over its words) instead of a
/// variable-length id list. A candidate with an equal hash is compared in
/// its sorted-id form: equal length (the block's popcount) and every id's
/// bit set. Only a new result is decoded, straight into the CSR arena, so
/// no bitset copy of the results is kept. Ids are dense in first-occurrence
/// order with the empty set as id 0, the [`ResultInterner`] contract, and
/// [`BitsetInterner::finish`] hands the arena over without a copy.
#[derive(Debug)]
pub struct BitsetInterner {
    flat: Vec<PointId>,
    ends: Vec<u32>,
    lookup: HashChains,
}

impl BitsetInterner {
    /// An interner for blocks of `words` words (at least one), with the
    /// empty set pre-interned as id 0.
    pub fn new(words: usize) -> Self {
        let mut interner = BitsetInterner {
            flat: Vec::new(),
            ends: Vec::new(),
            lookup: HashChains::default(),
        };
        let empty = interner.intern(&vec![0u64; words.max(1)]);
        debug_assert_eq!(empty, ResultId(0));
        interner
    }

    /// The id of the set whose bits are `block`, interning it if new.
    pub fn intern(&mut self, block: &[u64]) -> ResultId {
        let h = fnv1a_words(block);
        let len: u32 = block.iter().map(|w| w.count_ones()).sum();
        let (flat, ends) = (&self.flat, &self.ends);
        let same = |k: u32| {
            let k = k as usize;
            let start = if k == 0 { 0 } else { ends[k - 1] as usize };
            let ids = &flat[start..ends[k] as usize];
            ids.len() == len as usize
                && ids.iter().all(|id| {
                    let bit = id.0 as usize;
                    block[bit / 64] >> (bit % 64) & 1 == 1
                })
        };
        if let Some(k) = self.lookup.find(h, same) {
            return ResultId(k);
        }
        let k = self.ends.len() as u32;
        decode_words(block, &mut self.flat);
        self.ends.push(self.flat.len() as u32);
        self.lookup.push(h, k);
        ResultId(k)
    }

    /// The arena as a read-only [`ResultInterner`], trimmed to its length:
    /// id `k` of this interner is [`ResultId`]`(k)` there.
    pub fn finish(self) -> ResultInterner {
        let (mut flat, mut ends) = (self.flat, self.ends);
        flat.shrink_to_fit();
        ends.shrink_to_fit();
        ResultInterner {
            flat,
            ends,
            lookup: HashChains::default(),
        }
    }
}

/// Decodes a bitset block into strictly increasing point ids. Public so
/// differential tests can cross-check the word-parallel operators against
/// the sorted-id representation.
pub fn decode_words(block: &[u64], out: &mut Vec<PointId>) {
    for (k, &word) in block.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros();
            out.push(PointId((k * 64) as u32 + bit));
            w &= w - 1;
        }
    }
}

/// Re-encodes a sorted-id interner as a flat bitset arena with the given
/// stride, id-for-id: block `rid` holds the bits of `results.get(rid)`.
/// The global engine encodes each per-quadrant interner once and then runs
/// every cell union word-parallel against the four arenas.
pub fn encode_results(results: &ResultInterner, words: usize) -> Vec<u64> {
    let words = words.max(1);
    let mut flat = vec![0u64; results.len() * words];
    for (rid, ids) in results.iter() {
        let block = &mut flat[rid.0 as usize * words..(rid.0 as usize + 1) * words];
        for id in ids {
            let bit = id.0 as usize;
            debug_assert!(bit / 64 < words, "point id out of bitset range");
            block[bit / 64] |= 1u64 << (bit % 64);
        }
    }
    flat
}

/// A row's worth of per-cell results produced by one parallel worker, as
/// fixed-stride bitset blocks: consecutive equal results collapse into
/// *runs* over one shared flat word buffer, so a band of cells costs one
/// allocation instead of one per cell.
///
/// Workers fill a `BitRuns` each (no shared state, no locks); the
/// single-threaded stitch then replays the runs into the shared
/// [`BitsetInterner`] in deterministic row-major order, which is what keeps
/// parallel builds bit-identical for every thread count.
#[derive(Clone, Debug)]
pub struct BitRuns {
    /// Block stride in words.
    words: usize,
    /// Concatenated blocks of the distinct runs, in emission order.
    flat: Vec<u64>,
    /// Per run: `(cells covered, end word offset into flat)`.
    runs: Vec<(u32, u32)>,
}

impl BitRuns {
    /// An empty run buffer with the given block stride.
    pub fn new(words: usize) -> Self {
        BitRuns {
            words: words.max(1),
            flat: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// An empty run buffer with room for `cells` distinct runs, so a row of
    /// that many cells fills it without regrowing.
    pub fn with_capacity(words: usize, cells: usize) -> Self {
        let words = words.max(1);
        BitRuns {
            words,
            flat: Vec::with_capacity(words * cells),
            runs: Vec::with_capacity(cells),
        }
    }

    /// The block stride in words.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of cells covered so far.
    pub fn cells(&self) -> usize {
        self.runs.iter().map(|&(count, _)| count as usize).sum()
    }

    /// True iff no cell has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The block of the most recent run, if any.
    fn last_run(&self) -> Option<&[u64]> {
        let &(_, end) = self.runs.last()?;
        Some(&self.flat[end as usize - self.words..end as usize])
    }

    /// Appends one cell whose result is the bitset `block`; collapses into
    /// the previous run when the result repeats.
    ///
    /// # Panics
    /// Debug builds assert the stride precondition.
    pub fn push_words(&mut self, block: &[u64]) {
        debug_assert_eq!(block.len(), self.words, "block stride mismatch");
        if self.last_run() == Some(block) {
            self.push_repeat(1);
            return;
        }
        self.flat.extend_from_slice(block);
        self.runs.push((1, self.flat.len() as u32));
    }

    /// Extends the current run by `count` more cells without re-checking the
    /// block — for callers that already know the result did not change.
    ///
    /// # Panics
    /// Debug builds assert that a run exists.
    pub fn push_repeat(&mut self, count: u32) {
        debug_assert!(!self.runs.is_empty(), "push_repeat needs a current run");
        if let Some(last) = self.runs.last_mut() {
            last.0 += count;
        }
    }

    /// The runs in emission order, each as its block and the number of
    /// cells it covers.
    pub fn runs(&self) -> impl Iterator<Item = (&[u64], u32)> + '_ {
        let mut start = 0usize;
        self.runs.iter().map(move |&(count, end)| {
            let block = &self.flat[start..end as usize];
            start = end as usize;
            (block, count)
        })
    }

    /// Replays the runs into `bits`, appending one [`ResultId`] per cell to
    /// `cells` in emission order. The ids are valid against the
    /// [`ResultInterner`] that [`BitsetInterner::finish`] returns.
    pub fn intern_into(&self, bits: &mut BitsetInterner, cells: &mut Vec<ResultId>) {
        for (block, count) in self.runs() {
            let id = bits.intern(block);
            cells.extend(std::iter::repeat(id).take(count as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<PointId> {
        v.iter().copied().map(PointId).collect()
    }

    /// The `words`-word bitset block of the given point ids.
    fn block(words: usize, v: &[u32]) -> Vec<u64> {
        let mut block = vec![0u64; words];
        for &bit in v {
            block[bit as usize / 64] |= 1u64 << (bit % 64);
        }
        block
    }

    #[test]
    fn empty_is_id_zero() {
        let interner = ResultInterner::new();
        assert_eq!(interner.empty(), ResultId(0));
        assert!(interner.get(ResultId(0)).is_empty());
        assert!(interner.is_empty());
    }

    #[test]
    fn interning_dedups() {
        let mut interner = ResultInterner::new();
        let a = interner.intern_sorted(ids(&[1, 2, 5]));
        let b = interner.intern_sorted(ids(&[1, 2, 5]));
        let c = interner.intern_sorted(ids(&[1, 2, 6]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.len(), 3); // empty + two distinct
        assert_eq!(interner.get(a), ids(&[1, 2, 5]).as_slice());
        assert_eq!(interner.total_ids(), 6);
        assert!(!interner.is_empty());
        assert_eq!(interner.iter().count(), 3);
    }

    #[test]
    fn intern_unsorted_normalizes() {
        let mut interner = ResultInterner::new();
        let a = interner.intern_unsorted(ids(&[5, 1, 2, 2, 5]));
        assert_eq!(interner.get(a), ids(&[1, 2, 5]).as_slice());
    }

    #[test]
    fn scanning_combine_basic() {
        let mut out = Vec::new();
        // right = {1,3}, up = {2,3}, diag = {3}: 1 and 2 kept, 3 has 1+1-1=1.
        scanning_combine(&ids(&[1, 3]), &ids(&[2, 3]), &ids(&[3]), &mut out);
        assert_eq!(out, ids(&[1, 2, 3]));
    }

    #[test]
    fn scanning_combine_clamps_negative() {
        let mut out = Vec::new();
        // diag contains an id absent from both neighbors: dropped, not -1.
        scanning_combine(&ids(&[1]), &ids(&[2]), &ids(&[9]), &mut out);
        assert_eq!(out, ids(&[1, 2]));
    }

    #[test]
    fn scanning_combine_cancellation() {
        let mut out = Vec::new();
        // id 4 in up and diag only: 1 - 1 = 0, dropped.
        scanning_combine(&ids(&[]), &ids(&[4]), &ids(&[4]), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intern_slice_matches_intern_sorted() {
        let mut interner = ResultInterner::new();
        let a = interner.intern_sorted(ids(&[1, 2, 5]));
        assert_eq!(interner.intern_slice(&ids(&[1, 2, 5])), a);
        let b = interner.intern_slice(&ids(&[7]));
        assert_eq!(interner.intern_sorted(ids(&[7])), b);
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn union_sorted_merges() {
        let mut out = Vec::new();
        union_sorted(&ids(&[1, 3, 5]), &ids(&[2, 3, 6]), &mut out);
        assert_eq!(out, ids(&[1, 2, 3, 5, 6]));
        union_sorted(&ids(&[]), &ids(&[7]), &mut out);
        assert_eq!(out, ids(&[7]));
        union_sorted(&ids(&[7]), &ids(&[]), &mut out);
        assert_eq!(out, ids(&[7]));
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 1);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(63), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn bitset_interner_dedups_and_decodes() {
        let words = words_for(70);
        assert_eq!(words, 2);
        let mut bits = BitsetInterner::new(words);
        assert_eq!(bits.intern(&[0, 0]), ResultId(0));
        let a = bits.intern(&block(words, &[1, 64, 69]));
        let b = bits.intern(&block(words, &[69, 1, 64, 1])); // order/dup-insensitive
        let c = bits.intern(&block(words, &[2]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let results = bits.finish();
        assert_eq!(results.len(), 3);
        assert_eq!(results.get(a), ids(&[1, 64, 69]).as_slice());
        assert_eq!(results.get(c), ids(&[2]).as_slice());
        assert!(results.get(ResultId(0)).is_empty());
    }

    #[test]
    fn bitset_interner_resolves_hash_collisions() {
        // FNV-1a over two words: h1 = (h0 ^ w0)·P, h2 = (h1 ^ w1)·P. Any
        // second block with w1' = w1 ^ h1 ^ h1' reaches the same h2.
        const H0: u64 = 0xcbf2_9ce4_8422_2325;
        const P: u64 = 0x0000_0100_0000_01b3;
        let (w0, w1) = (0b1011u64, 1u64 << 40);
        let w0b = 0b0110u64;
        let w1b = w1 ^ (H0 ^ w0).wrapping_mul(P) ^ (H0 ^ w0b).wrapping_mul(P);
        let (a, b) = ([w0, w1], [w0b, w1b]);
        assert_ne!(a, b);
        assert_eq!(fnv1a_words(&a), fnv1a_words(&b));

        let mut bits = BitsetInterner::new(2);
        let ia = bits.intern(&a);
        let ib = bits.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(bits.intern(&a), ia);
        assert_eq!(bits.intern(&b), ib);
        assert_eq!(bits.intern(&[0, 0]), ResultId(0));
        let results = bits.finish();
        assert_eq!(results.len(), 3);
        let mut want = Vec::new();
        for (id, block) in [(ia, a), (ib, b)] {
            want.clear();
            decode_words(&block, &mut want);
            assert_eq!(results.get(id), want.as_slice());
        }
    }

    #[test]
    fn read_only_interner_keeps_interning() {
        let mut full = ResultInterner::new();
        let a = full.intern_slice(&ids(&[1, 2]));
        let mut readonly = full.to_readonly();
        assert!(readonly.heap_bytes() < full.heap_bytes());
        // Results adopted without a lookup are not found again, but new
        // results deduplicate among themselves.
        let b = readonly.intern_slice(&ids(&[3]));
        assert_eq!(readonly.intern_slice(&ids(&[3])), b);
        assert_eq!(readonly.get(a), ids(&[1, 2]).as_slice());
        assert_eq!(readonly.get(b), ids(&[3]).as_slice());
        assert_eq!(readonly.len(), 3);
    }

    #[test]
    fn csr_validation_rejects_unsorted_runs_behind_empty_ones() {
        let csr = |flat: &[u32], ends: &[u32]| {
            let le: Vec<u8> = flat.iter().flat_map(|id| id.to_le_bytes()).collect();
            ResultInterner::from_le_csr_readonly(&le, ends.to_vec()).map(|r| r.len())
        };
        // Descents on run boundaries are fine, empty runs included.
        assert_eq!(csr(&[1, 5, 3, 4], &[0, 2, 2, 4]), Ok(4));
        // A descent inside a run is not, even where an empty run repeats
        // the boundary just before it.
        assert!(csr(&[1, 5, 3, 2], &[0, 2, 2, 4]).is_err());
        assert!(csr(&[1, 5, 3, 3], &[0, 2, 4]).is_err());
        assert!(csr(&[4, 1], &[0, 2]).is_err());
        assert!(ResultInterner::from_csr(ids(&[1, 5, 3, 2]), vec![0, 2, 2, 4]).is_err());
    }

    #[test]
    fn bitset_interner_finishes_id_for_id() {
        let words = words_for(100);
        let sets: [&[u32]; 4] = [&[0, 63, 64, 99], &[5], &[0, 63, 64, 99], &[]];
        let mut bits = BitsetInterner::new(words);
        let mut sorted = ResultInterner::new();
        for set in sets {
            assert_eq!(
                bits.intern(&block(words, set)),
                sorted.intern_slice(&ids(set))
            );
        }
        let results = bits.finish();
        assert_eq!(results.ends(), sorted.ends());
        assert_eq!(results.flat_ids(), sorted.flat_ids());
        assert_eq!(results.empty(), ResultId(0));
    }

    #[test]
    fn encode_results_roundtrips() {
        let mut results = ResultInterner::new();
        let a = results.intern_sorted(ids(&[0, 63, 64]));
        let b = results.intern_sorted(ids(&[127]));
        let words = words_for(128);
        let flat = encode_results(&results, words);
        assert_eq!(flat.len(), results.len() * words);
        let block = |rid: ResultId| &flat[rid.0 as usize * words..(rid.0 as usize + 1) * words];
        let mut out = Vec::new();
        decode_words(block(a), &mut out);
        assert_eq!(out, ids(&[0, 63, 64]));
        out.clear();
        decode_words(block(b), &mut out);
        assert_eq!(out, ids(&[127]));
        assert!(block(ResultId(0)).iter().all(|&w| w == 0));
    }

    #[test]
    fn word_ops_match_sorted_ops() {
        let words = words_for(130);
        let r = block(words, &[1, 63, 64, 129]);
        let u = block(words, &[2, 63, 129]);
        let d = block(words, &[63, 100, 129]);

        let mut out = vec![0u64; words];
        scanning_combine_words(&r, &u, &d, &mut out);
        let mut got = Vec::new();
        decode_words(&out, &mut got);
        let mut want = Vec::new();
        scanning_combine(
            &ids(&[1, 63, 64, 129]),
            &ids(&[2, 63, 129]),
            &ids(&[63, 100, 129]),
            &mut want,
        );
        assert_eq!(got, want);

        union4_words(&r, &u, &d, &vec![0u64; words], &mut out);
        got.clear();
        decode_words(&out, &mut got);
        assert_eq!(got, ids(&[1, 2, 63, 64, 100, 129]));
    }

    #[test]
    fn bit_runs_collapse_and_replay() {
        let words = words_for(10);
        let (a, b) = (block(words, &[1, 2]), block(words, &[3]));

        let mut runs = BitRuns::new(words);
        assert!(runs.is_empty());
        assert_eq!(runs.words(), words);
        runs.push_words(&a);
        runs.push_words(&a); // collapses
        runs.push_words(&b);
        runs.push_repeat(2);
        runs.push_words(&block(words, &[]));
        assert_eq!(runs.cells(), 6);
        assert_eq!(runs.runs().count(), 3);

        let mut bits = BitsetInterner::new(words);
        let mut cells = Vec::new();
        runs.intern_into(&mut bits, &mut cells);
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], cells[1]);
        assert_ne!(cells[0], cells[2]);
        assert_eq!(cells[2], cells[4]);
        assert_eq!(cells[5], ResultId(0));
        let results = bits.finish();
        assert_eq!(results.get(cells[0]), ids(&[1, 2]).as_slice());
        assert_eq!(results.get(cells[2]), ids(&[3]).as_slice());
        assert_eq!(results.get(cells[5]), ids(&[]).as_slice());
    }

    #[test]
    fn bit_runs_replay_matches_per_cell_interning() {
        // Two rows of cells over a few sets near the word boundary, with
        // repeats inside a row, across rows, and at a row's start; runs
        // collapse only within a row, as each worker writes its own.
        let words = words_for(65);
        let sets: [&[u32]; 4] = [&[0, 64], &[63], &[], &[1, 63, 64]];
        let rows: [&[usize]; 2] = [&[0, 0, 1, 1, 1, 2, 0, 3, 3], &[3, 3, 2, 2, 0, 1]];

        let mut per_cell = BitsetInterner::new(words);
        let mut want = Vec::new();
        let mut replayed = BitsetInterner::new(words);
        let mut got = Vec::new();
        for row in rows {
            let mut runs = BitRuns::new(words);
            for &k in row {
                let set = block(words, sets[k]);
                want.push(per_cell.intern(&set));
                runs.push_words(&set);
            }
            assert!(runs.runs().count() < row.len());
            runs.intern_into(&mut replayed, &mut got);
        }
        assert_eq!(got, want);
        let (want, got) = (per_cell.finish(), replayed.finish());
        assert_eq!(got.ends(), want.ends());
        assert_eq!(got.flat_ids(), want.flat_ids());
    }
}
