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
//! Both interners are struct-of-arrays arenas: the distinct sets live in one
//! flat buffer with a parallel end-offset array, so result `k` is a slice of
//! the arena rather than its own heap allocation (see DESIGN.md §10).
//!
//! * [`ResultInterner`] stores each distinct result as a strictly sorted
//!   `PointId` run inside one flat arena — the query-facing representation
//!   (`get` hands out slices, serialization streams the arena).
//! * [`BitsetInterner`] stores each distinct result as a fixed-stride block
//!   of `u64` words, one bit per point id. The diagram recurrences become
//!   word-parallel: unions are `OR` over blocks and the scanning recurrence
//!   of Theorem 1 is three bitwise operations per word (see
//!   [`scanning_combine_words`]). Builders accumulate cells against the
//!   bitset arena and convert once, id-for-id, via
//!   [`BitsetInterner::to_result_interner`], so callers and the
//!   serialize/snapshot layers see the sorted-id representation unchanged.
//!
//! [`ResultRuns`] and [`BitRuns`] are the matching run-collapsed per-worker
//! buffers replayed by the deterministic single-threaded stitch.

use std::collections::HashMap;

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
    lookup: HashMap<u64, Vec<ResultId>>,
}

impl ResultInterner {
    /// Creates an interner with the empty result pre-interned as id 0.
    pub fn new() -> Self {
        let mut interner = ResultInterner {
            flat: Vec::new(),
            ends: Vec::new(),
            lookup: HashMap::new(),
        };
        let empty = interner.intern_slice(&[]);
        debug_assert_eq!(empty, ResultId(0));
        interner
    }

    /// Creates an interner with arena capacity reserved for `sets` distinct
    /// results totalling `total_ids` point ids — the deserializer knows both
    /// up front.
    pub fn with_capacity(sets: usize, total_ids: usize) -> Self {
        let mut interner = ResultInterner::new();
        interner.ends.reserve(sets);
        interner.flat.reserve(total_ids);
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
        if let Some(bucket) = self.lookup.get(&h) {
            for &rid in bucket {
                if self.get(rid) == ids {
                    return rid;
                }
            }
        }
        let rid = ResultId(self.ends.len() as u32);
        self.flat.extend_from_slice(ids);
        self.ends.push(self.flat.len() as u32);
        self.lookup.entry(h).or_default().push(rid);
        rid
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
    /// the lookup table (estimated; see
    /// [`crate::telemetry::mem::map_heap_bytes`]) and its per-hash
    /// collision vectors.
    pub fn heap_bytes(&self) -> usize {
        use crate::telemetry::mem::{map_heap_bytes, vec_heap_bytes};
        vec_heap_bytes(&self.flat)
            + vec_heap_bytes(&self.ends)
            + map_heap_bytes(&self.lookup)
            + self.lookup.values().map(vec_heap_bytes).sum::<usize>()
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
        let mut lookup: HashMap<u64, Vec<ResultId>> = HashMap::with_capacity(ends.len());
        let mut start = 0usize;
        for (k, &end) in ends.iter().enumerate() {
            let run = &flat[start..end as usize];
            let rid = ResultId(k as u32);
            let bucket = lookup.entry(fnv1a(run)).or_default();
            for &prev in bucket.iter() {
                let pk = prev.0 as usize;
                let ps = if pk == 0 { 0 } else { ends[pk - 1] as usize };
                if &flat[ps..ends[pk] as usize] == run {
                    return Err("duplicate result set in arena");
                }
            }
            bucket.push(rid);
            start = end as usize;
        }
        Ok(ResultInterner { flat, ends, lookup })
    }

    /// Adopts checksum-validated CSR arrays *without* rebuilding the intern
    /// lookup table: the same structural validation as [`Self::from_csr`]
    /// (CSR laws, strict per-run sortedness) but no duplicate-set scan and
    /// an empty lookup. The snapshot-container decoder is the only caller —
    /// a loaded interner is read-only (server mutations rebuild diagrams
    /// into fresh interners via [`Self::intern_slice`]), so the lookup is
    /// never consulted, and skipping its reconstruction is most of what
    /// makes a cold start an order of magnitude faster than a rebuild
    /// (experiment E14).
    pub(crate) fn from_csr_readonly(
        flat: Vec<PointId>,
        ends: Vec<u32>,
    ) -> Result<Self, &'static str> {
        Self::validate_csr(&flat, &ends)?;
        Ok(ResultInterner {
            flat,
            ends,
            lookup: HashMap::new(),
        })
    }

    /// A read-only copy: the CSR arrays without the intern lookup table —
    /// the state [`Self::from_csr_readonly`] produces. A published index
    /// never interns again, so serving layers copy a writer's diagram this
    /// way instead of cloning a table nobody will consult.
    pub fn to_readonly(&self) -> Self {
        ResultInterner {
            flat: self.flat.clone(),
            ends: self.ends.clone(),
            lookup: HashMap::new(),
        }
    }

    /// Drops the intern lookup table in place (see [`Self::to_readonly`]).
    /// Interning into the result afterwards would no longer deduplicate.
    pub fn into_readonly(mut self) -> Self {
        self.lookup = HashMap::new();
        self
    }

    /// The structural CSR laws shared by [`Self::from_csr`] and
    /// [`Self::from_csr_readonly`]; duplicate detection is separate because
    /// only the deduplicating constructor needs the hash buckets.
    fn validate_csr(flat: &[PointId], ends: &[u32]) -> Result<(), &'static str> {
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
        let mut start = 0usize;
        for &end in ends {
            if flat[start..end as usize].windows(2).any(|w| w[0] >= w[1]) {
                return Err("each result run must be strictly sorted");
            }
            start = end as usize;
        }
        Ok(())
    }
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

/// Word-parallel set union: `out = a | b`, one `OR` per word.
#[inline]
pub fn union_words(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(a.len() == b.len() && b.len() == out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x | y;
    }
}

/// Word-parallel set subtraction: `out = a & !b`, one `ANDNOT` per word —
/// the multiset-subtract leg of the memoized recurrences.
#[inline]
pub fn subtract_words(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(a.len() == b.len() && b.len() == out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & !y;
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

/// Deduplicating store of skyline results as fixed-stride bitset blocks.
///
/// The builders' working representation: each distinct result is `words`
/// consecutive `u64`s in one flat arena (bit `i` set ⇔ `PointId(i)` in the
/// result), so the diagram recurrences run word-parallel and interning hashes
/// a fixed-size block instead of a variable-length id list. Ids are dense and
/// assigned in first-occurrence order, with the empty set pre-interned as
/// id 0 — exactly the [`ResultInterner`] contract, which is what makes the
/// final [`BitsetInterner::to_result_interner`] conversion id-for-id.
#[derive(Clone, Debug)]
pub struct BitsetInterner {
    /// Block stride in words.
    words: usize,
    /// Concatenated blocks of every distinct result, in interning order.
    flat: Vec<u64>,
    lookup: HashMap<u64, Vec<u32>>,
    /// Reusable block for `intern_ids`.
    scratch: Vec<u64>,
}

impl BitsetInterner {
    /// Creates a bitset interner with the given block stride and the empty
    /// set pre-interned as id 0.
    pub fn new(words: usize) -> Self {
        let words = words.max(1);
        let mut interner = BitsetInterner {
            words,
            flat: Vec::new(),
            lookup: HashMap::new(),
            scratch: vec![0u64; words],
        };
        let zeros = vec![0u64; words];
        let empty = interner.intern_words(&zeros);
        debug_assert_eq!(empty, 0);
        interner
    }

    /// The block stride in words.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The id of the empty result.
    #[inline]
    pub fn empty(&self) -> u32 {
        0
    }

    /// Number of distinct interned results (including the empty one).
    #[inline]
    pub fn len(&self) -> usize {
        self.flat.len() / self.words
    }

    /// Whether only the empty result has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Heap bytes owned by the arena: the flat block buffer, the scratch
    /// block, and the lookup table (estimated) with its collision vectors.
    pub fn heap_bytes(&self) -> usize {
        use crate::telemetry::mem::{map_heap_bytes, vec_heap_bytes};
        vec_heap_bytes(&self.flat)
            + vec_heap_bytes(&self.scratch)
            + map_heap_bytes(&self.lookup)
            + self.lookup.values().map(vec_heap_bytes).sum::<usize>()
    }

    /// The bitset block of an interned result.
    #[inline]
    pub fn get_words(&self, id: u32) -> &[u64] {
        let start = id as usize * self.words;
        &self.flat[start..start + self.words]
    }

    /// Interns a bitset block, copying into the arena only when the set was
    /// not seen before.
    ///
    /// # Panics
    /// Debug builds assert the stride precondition.
    pub fn intern_words(&mut self, block: &[u64]) -> u32 {
        debug_assert_eq!(block.len(), self.words, "block stride mismatch");
        let h = fnv1a_words(block);
        if let Some(bucket) = self.lookup.get(&h) {
            for &id in bucket {
                if self.get_words(id) == block {
                    return id;
                }
            }
        }
        let id = (self.flat.len() / self.words) as u32;
        self.flat.extend_from_slice(block);
        self.lookup.entry(h).or_default().push(id);
        id
    }

    /// Interns the set of the given point ids (any order, duplicates
    /// collapse) by setting their bits in an internal scratch block.
    pub fn intern_ids<I: IntoIterator<Item = PointId>>(&mut self, ids: I) -> u32 {
        let mut block = std::mem::take(&mut self.scratch);
        block.iter_mut().for_each(|w| *w = 0);
        for id in ids {
            let bit = id.0 as usize;
            debug_assert!(bit / 64 < block.len(), "point id out of bitset range");
            block[bit / 64] |= 1u64 << (bit % 64);
        }
        let interned = self.intern_words(&block);
        self.scratch = block;
        interned
    }

    /// Decodes an interned block back to its strictly sorted id list.
    pub fn decode_into(&self, id: u32, out: &mut Vec<PointId>) {
        out.clear();
        decode_words(self.get_words(id), out);
    }

    /// Converts the whole arena to the sorted-id representation, id-for-id:
    /// bitset id `k` becomes [`ResultId`]`(k)`. Builders accumulate their
    /// per-cell ids against this interner and hand the converted interner
    /// plus the unmodified cell vector to the diagram, so the query,
    /// serialize, and snapshot layers keep seeing sorted-id slices.
    pub fn to_result_interner(&self) -> ResultInterner {
        let _decode = crate::span!("intern.decode", self.len() as u64);
        let mut results = ResultInterner::with_capacity(self.len(), 0);
        let mut ids: Vec<PointId> = Vec::new();
        for k in 0..self.len() as u32 {
            self.decode_into(k, &mut ids);
            let rid = results.intern_slice(&ids);
            debug_assert_eq!(rid.0, k, "bitset ids must convert id-for-id");
        }
        results
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

/// A row's worth of per-cell results produced by one parallel worker:
/// consecutive equal results collapse into *runs* over one shared flat id
/// buffer, so a band of cells costs one allocation instead of one per cell.
///
/// Workers fill a `ResultRuns` each (no shared state, no locks); the
/// single-threaded stitch then replays the runs into the shared
/// [`ResultInterner`] in deterministic row-major order, which is what keeps
/// parallel builds bit-identical for every thread count.
#[derive(Clone, Debug, Default)]
pub struct ResultRuns {
    /// Concatenated ids of the distinct runs, in emission order.
    flat: Vec<PointId>,
    /// Per run: `(cells covered, end offset into flat)`.
    runs: Vec<(u32, u32)>,
}

impl ResultRuns {
    /// An empty run buffer.
    pub fn new() -> Self {
        ResultRuns::default()
    }

    /// Number of cells covered so far.
    pub fn cells(&self) -> usize {
        self.runs.iter().map(|&(count, _)| count as usize).sum()
    }

    /// True iff no cell has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The ids of the most recent run, if any.
    fn last_run(&self) -> Option<&[PointId]> {
        let &(_, end) = self.runs.last()?;
        let start = match self.runs.len().checked_sub(2) {
            Some(i) => self.runs[i].1 as usize,
            None => 0,
        };
        Some(&self.flat[start..end as usize])
    }

    /// Appends one cell whose result is `ids` (strictly sorted); collapses
    /// into the previous run when the result repeats.
    pub fn push(&mut self, ids: &[PointId]) {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "result must be strictly sorted"
        );
        if self.last_run() == Some(ids) {
            self.push_repeat(1);
            return;
        }
        self.flat.extend_from_slice(ids);
        self.runs.push((1, self.flat.len() as u32));
    }

    /// Appends `count` cells sharing the result `ids`.
    pub fn push_n(&mut self, ids: &[PointId], count: u32) {
        if count == 0 {
            return;
        }
        self.push(ids);
        self.push_repeat(count - 1);
    }

    /// Extends the current run by `count` more cells without re-checking the
    /// ids — for callers that already know the result did not change.
    ///
    /// # Panics
    /// Debug builds assert that a run exists.
    pub fn push_repeat(&mut self, count: u32) {
        debug_assert!(!self.runs.is_empty(), "push_repeat needs a current run");
        if let Some(last) = self.runs.last_mut() {
            last.0 += count;
        }
    }

    /// Replays the runs into `results`, appending one [`ResultId`] per cell
    /// to `cells` in emission order.
    pub fn intern_into(&self, results: &mut ResultInterner, cells: &mut Vec<ResultId>) {
        let mut start = 0usize;
        for &(count, end) in &self.runs {
            let rid = results.intern_slice(&self.flat[start..end as usize]);
            cells.extend(std::iter::repeat(rid).take(count as usize));
            start = end as usize;
        }
    }
}

/// The bitset counterpart of [`ResultRuns`]: a run-collapsed per-worker
/// buffer of fixed-stride bitset blocks. Same API shape, same stitch
/// contract — workers push word blocks, the single-threaded stitch replays
/// them into the shared [`BitsetInterner`] in deterministic row-major order.
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

    /// Replays the runs into `bits`, appending one [`ResultId`] per cell to
    /// `cells` in emission order. The ids are bitset ids, valid against the
    /// [`ResultInterner`] produced by
    /// [`BitsetInterner::to_result_interner`].
    pub fn intern_into(&self, bits: &mut BitsetInterner, cells: &mut Vec<ResultId>) {
        let mut start = 0usize;
        for &(count, end) in &self.runs {
            let id = bits.intern_words(&self.flat[start..end as usize]);
            cells.extend(std::iter::repeat(ResultId(id)).take(count as usize));
            start = end as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<PointId> {
        v.iter().copied().map(PointId).collect()
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
    fn with_capacity_matches_new() {
        let mut a = ResultInterner::with_capacity(10, 100);
        let mut b = ResultInterner::new();
        assert_eq!(a.intern_sorted(ids(&[3, 4])), b.intern_sorted(ids(&[3, 4])));
        assert_eq!(a.empty(), b.empty());
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
    fn result_runs_collapse_and_replay() {
        let mut runs = ResultRuns::new();
        assert!(runs.is_empty());
        runs.push(&ids(&[1, 2]));
        runs.push(&ids(&[1, 2])); // collapses
        runs.push(&ids(&[3]));
        runs.push_repeat(2);
        runs.push_n(&ids(&[]), 2);
        runs.push_n(&ids(&[3]), 0); // no-op
        assert_eq!(runs.cells(), 7);

        let mut interner = ResultInterner::new();
        let mut cells = Vec::new();
        runs.intern_into(&mut interner, &mut cells);
        assert_eq!(cells.len(), 7);
        assert_eq!(interner.get(cells[0]), ids(&[1, 2]).as_slice());
        assert_eq!(cells[0], cells[1]);
        assert_eq!(interner.get(cells[2]), ids(&[3]).as_slice());
        assert_eq!(cells[2], cells[3]);
        assert_eq!(cells[3], cells[4]);
        assert_eq!(cells[5], interner.empty());
        assert_eq!(cells[6], interner.empty());
        // Distinct sets stored once each: empty + {1,2} + {3}.
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
        let mut bits = BitsetInterner::new(words_for(70));
        assert_eq!(bits.words(), 2);
        assert_eq!(bits.empty(), 0);
        assert!(bits.is_empty());
        let a = bits.intern_ids(ids(&[1, 64, 69]));
        let b = bits.intern_ids(ids(&[69, 1, 64, 1])); // order/dup-insensitive
        let c = bits.intern_ids(ids(&[2]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(bits.len(), 3);
        assert!(!bits.is_empty());
        let mut out = Vec::new();
        bits.decode_into(a, &mut out);
        assert_eq!(out, ids(&[1, 64, 69]));
        bits.decode_into(bits.empty(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn bitset_converts_to_result_interner_id_for_id() {
        let mut bits = BitsetInterner::new(words_for(100));
        let a = bits.intern_ids(ids(&[0, 63, 64, 99]));
        let b = bits.intern_ids(ids(&[5]));
        let results = bits.to_result_interner();
        assert_eq!(results.len(), bits.len());
        assert_eq!(results.get(ResultId(a)), ids(&[0, 63, 64, 99]).as_slice());
        assert_eq!(results.get(ResultId(b)), ids(&[5]).as_slice());
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
        let mut bits = BitsetInterner::new(words);
        let r = bits.intern_ids(ids(&[1, 63, 64, 129]));
        let u = bits.intern_ids(ids(&[2, 63, 129]));
        let d = bits.intern_ids(ids(&[63, 100, 129]));

        let mut out = vec![0u64; words];
        union_words(bits.get_words(r), bits.get_words(u), &mut out);
        let mut got = Vec::new();
        decode_words(&out, &mut got);
        let mut want = Vec::new();
        union_sorted(&ids(&[1, 63, 64, 129]), &ids(&[2, 63, 129]), &mut want);
        assert_eq!(got, want);

        scanning_combine_words(
            bits.get_words(r),
            bits.get_words(u),
            bits.get_words(d),
            &mut out,
        );
        got.clear();
        decode_words(&out, &mut got);
        scanning_combine(
            &ids(&[1, 63, 64, 129]),
            &ids(&[2, 63, 129]),
            &ids(&[63, 100, 129]),
            &mut want,
        );
        assert_eq!(got, want);

        union4_words(
            bits.get_words(r),
            bits.get_words(u),
            bits.get_words(d),
            bits.get_words(bits.empty()),
            &mut out,
        );
        got.clear();
        decode_words(&out, &mut got);
        assert_eq!(got, ids(&[1, 2, 63, 64, 100, 129]));
    }

    #[test]
    fn bit_runs_collapse_and_replay() {
        let words = words_for(10);
        let mut bits = BitsetInterner::new(words);
        let a = bits.intern_ids(ids(&[1, 2]));
        let b = bits.intern_ids(ids(&[3]));

        let mut runs = BitRuns::new(words);
        assert!(runs.is_empty());
        assert_eq!(runs.words(), words);
        runs.push_words(bits.get_words(a).to_vec().as_slice());
        runs.push_words(bits.get_words(a).to_vec().as_slice()); // collapses
        runs.push_words(bits.get_words(b).to_vec().as_slice());
        runs.push_repeat(2);
        runs.push_words(bits.get_words(0).to_vec().as_slice());
        assert_eq!(runs.cells(), 6);

        let mut cells = Vec::new();
        runs.intern_into(&mut bits, &mut cells);
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], ResultId(a));
        assert_eq!(cells[0], cells[1]);
        assert_eq!(cells[2], ResultId(b));
        assert_eq!(cells[2], cells[4]);
        assert_eq!(cells[5], ResultId(0));
        let results = bits.to_result_interner();
        assert_eq!(results.get(cells[0]), ids(&[1, 2]).as_slice());
        assert_eq!(results.get(cells[5]), ids(&[]).as_slice());
    }
}
