//! Dependency-free parallel execution layer: a scoped worker pool with
//! self-scheduled chunked work distribution, built on [`std::thread::scope`]
//! so the workspace stays hermetic (no registry crates) and within the 1.75
//! MSRV.
//!
//! The paper's structures are embarrassingly parallel — the global diagram
//! is the independent union of the `2^d` quadrant diagrams (Definition 2),
//! the dynamic diagram decomposes into independent subcell rows (Section V),
//! and the sweeping/scanning engines process horizontal bands from shared
//! precomputed inputs. Every parallel engine in this crate funnels through
//! this module; the `no-raw-spawn` lint (`cargo xtask lint`) keeps any other
//! `std::thread` use out of the workspace.
//!
//! # Determinism contract
//!
//! Work is identified by item *index*, workers pull contiguous chunks off a
//! shared atomic cursor, and results are stitched back **in index order** on
//! the calling thread. Shared mutable state (notably the
//! [`ResultInterner`](crate::result_set::ResultInterner)) is only touched
//! during the stitch, so a build's output is bit-identical for every thread
//! count, including the sequential reference path. `threads = 0` bypasses
//! the pool entirely and runs inline on the caller — that path is the
//! deterministic reference the differential tests compare against.
//!
//! # Band split
//!
//! Chunk boundaries are precomputed per region (deterministically — they
//! never depend on claim timing) and workers *steal* whole chunks off the
//! cursor with one `fetch_add` each:
//!
//! * [`map_indexed`] uses a **guided** table: each successive chunk covers
//!   `~remaining / (workers · CHUNKS_PER_WORKER)` items, so early chunks are
//!   large (low bookkeeping) and the tail degrades to single items (a
//!   straggler can be out-stolen down to one item of slack). This replaced a
//!   fixed-size split whose coarse tail chunks serialized the end of every
//!   band (`skydiag report`'s `band-imbalance` verdict).
//! * [`map_indexed_weighted`] is the **cost-modeled** variant: callers
//!   supply a per-item cost estimate and boundaries cut the prefix-sum into
//!   equal-cost chunks (same guided tail decay, measured in cost units), so
//!   bands with skewed per-row work — e.g. sweeping rows weighted by anchor
//!   count — still balance.
//!
//! [`join`] is the two-task form for work that is not a list of like
//! items: it runs one closure on the caller and the other on one scoped
//! worker (the snapshot container decodes its checksums beside its
//! payloads this way).
//!
//! # Configuration
//!
//! [`ParallelConfig::from_env`] reads `SKYLINE_THREADS` once per process:
//! `0` forces the sequential reference path, any other integer fixes the
//! worker count, and an unset (or unparsable) value falls back to
//! [`std::thread::available_parallelism`]. Environment-derived counts are
//! capped at the hardware width (no accidental oversubscription in
//! production); configs built with [`ParallelConfig::with_threads`] are
//! **exact** — tests and benches get the worker count they asked for even on
//! narrow hosts, so cross-thread-count differential suites exercise real
//! concurrent claiming everywhere.
//!
//! # Memory ordering
//!
//! The pool's only shared atomic is the chunk cursor, and it is read with
//! `fetch_add(1, Relaxed)`. Relaxed is sufficient because the cursor is
//! used purely for *claim uniqueness*: `fetch_add` is a single atomic
//! read-modify-write, so every worker observes a distinct chunk index, and
//! no data is published through the cursor itself. All actual data flow —
//! the closure's captured inputs on the way in, each worker's `local`
//! result vector on the way out — is ordered by [`std::thread::scope`]'s
//! spawn and join edges, which are full happens-before synchronisation
//! points. The stitch therefore reads every worker's results strictly
//! after that worker finished writing them, with no additional fences.
//!
//! # Observability
//!
//! When the `telemetry` feature is on (the default), each pool region
//! records phase spans (`pool.region`, `pool.worker`, `pool.chunk`,
//! `pool.stitch`) and registry metrics (`pool.regions`,
//! `pool.region_items`, `pool.region_chunks`, `pool.worker_chunks` — the
//! latter's spread across workers is the stitch-imbalance signal). Probes
//! never alter scheduling or output: the differential tests pin
//! bit-identical results with telemetry on, off, and recording mid-flight.
//! A [`join`] records a `pool.join` span and counts `pool.joins`.

use crate::sync::{AtomicUsize, OnceLock, Ordering};
use std::num::NonZeroUsize;

/// Guided-schedule granularity: each claimed chunk targets
/// `remaining / (workers * CHUNKS_PER_WORKER)` items, so every worker sees
/// several chunks on average and the tail shrinks geometrically.
const CHUNKS_PER_WORKER: usize = 4;

/// Thread-count knob for the parallel engines.
///
/// `threads == 0` selects the sequential reference path (work runs inline on
/// the calling thread, no pool involved); `threads >= 1` spawns up to that
/// many scoped workers per parallel region. Environment-derived
/// configurations ([`ParallelConfig::from_env`]) additionally cap the
/// effective worker count at [`std::thread::available_parallelism`];
/// explicitly constructed counts ([`ParallelConfig::with_threads`]) are
/// exact, so differential tests drive real multi-worker claiming even on
/// narrow hosts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParallelConfig {
    threads: usize,
    /// True when `threads` came from the environment/hardware probe and must
    /// be re-capped at the hardware width per region.
    hardware_capped: bool,
}

impl ParallelConfig {
    /// The sequential reference configuration (`threads = 0`).
    pub const fn sequential() -> Self {
        ParallelConfig {
            threads: 0,
            hardware_capped: false,
        }
    }

    /// An exact fixed worker count; `0` is the sequential reference path.
    pub const fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            hardware_capped: false,
        }
    }

    /// Re-caps this configuration's effective worker count at the hardware
    /// width, like [`ParallelConfig::from_env`] does. Benchmarks sweeping
    /// fixed thread counts use this so a `t=4` row on a narrower host
    /// measures the capped configuration rather than oversubscription
    /// thrash; differential tests stay on the exact [`with_threads`]
    /// semantics, where spawning more workers than cores is the point.
    ///
    /// [`with_threads`]: ParallelConfig::with_threads
    pub const fn cap_to_hardware(self) -> Self {
        ParallelConfig {
            threads: self.threads,
            hardware_capped: true,
        }
    }

    /// The process-wide configuration: `SKYLINE_THREADS` if set to an
    /// integer (`0` = sequential), otherwise the machine's available
    /// parallelism. The environment is read once and cached for the life of
    /// the process.
    pub fn from_env() -> Self {
        static CACHE: OnceLock<usize> = OnceLock::new();
        let threads = *CACHE.get_or_init(|| {
            match std::env::var("SKYLINE_THREADS") {
                Ok(v) => v.trim().parse().ok(),
                Err(_) => None,
            }
            .unwrap_or_else(available_threads)
        });
        ParallelConfig {
            threads,
            hardware_capped: true,
        }
    }

    /// The configured worker count (`0` = sequential reference path).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True iff work runs inline on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 0
    }

    /// The effective worker bound for a region of `len` items.
    fn workers_for(&self, len: usize) -> usize {
        let cap = if self.hardware_capped {
            available_threads()
        } else {
            usize::MAX
        };
        self.threads.min(len).min(cap)
    }
}

impl Default for ParallelConfig {
    /// Defaults to the process-wide environment configuration.
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

/// The machine's available parallelism, defaulting to 1 when unknown.
/// Public so hardware-aware bench gates can grade speedup expectations by
/// the width of the host they ran on.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Guided chunk table over `len` uniform items: exclusive end offsets, each
/// chunk covering `~remaining / (workers * CHUNKS_PER_WORKER)` items. Purely
/// a function of `(len, workers)` — never of claim timing — so the split is
/// deterministic even though claiming is racy.
fn guided_ends(len: usize, workers: usize) -> Vec<usize> {
    let grain = workers * CHUNKS_PER_WORKER;
    let mut ends = Vec::new();
    let mut done = 0usize;
    while done < len {
        let take = ((len - done) / grain).max(1);
        done += take;
        ends.push(done);
    }
    ends
}

/// Cost-modeled chunk table: cuts the per-item cost prefix sum into chunks of
/// `~remaining_cost / (workers * CHUNKS_PER_WORKER)` each, so equal-*cost*
/// (not equal-count) bands go to the workers. Zero-cost items ride along
/// with their preceding chunk.
fn weighted_ends(costs: &[u64], workers: usize) -> Vec<usize> {
    let total: u64 = costs.iter().sum();
    let grain = (workers * CHUNKS_PER_WORKER) as u64;
    let mut ends = Vec::new();
    let mut spent = 0u64;
    let mut chunk_cost = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        chunk_cost += c;
        let target = ((total - spent) / grain).max(1);
        if chunk_cost >= target {
            spent += chunk_cost;
            chunk_cost = 0;
            ends.push(i + 1);
        }
    }
    if ends.last() != Some(&costs.len()) && !costs.is_empty() {
        ends.push(costs.len());
    }
    ends
}

/// Maps `0..len` through `f`, in parallel when `cfg` allows, and returns the
/// results **in index order**. The closure runs at most once per index.
///
/// Sequential configurations (and trivially small inputs) run inline; the
/// pool otherwise lets scoped workers steal contiguous index chunks off an
/// atomic cursor over the guided chunk table, so both uneven per-item cost
/// and worker stalls load-balance down to single-item granularity at the
/// tail. A panic in `f` propagates to the caller after the scope unwinds.
pub fn map_indexed<R, F>(cfg: &ParallelConfig, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if cfg.is_sequential() || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = cfg.workers_for(len);
    if workers <= 1 {
        // A single effective worker runs inline — same work order, no scope
        // or spawn overhead.
        return (0..len).map(f).collect();
    }
    run_region(workers, len, &guided_ends(len, workers), &f)
}

/// The cost-modeled variant of [`map_indexed`]: `cost(i)` estimates the
/// relative cost of item `i` (any monotone-in-work unit is fine; only ratios
/// matter) and chunk boundaries cut the cost prefix sum evenly, so bands
/// with skewed per-item work still balance. Same determinism contract:
/// results come back in index order, bit-identical at every thread count.
pub fn map_indexed_weighted<R, F, W>(cfg: &ParallelConfig, len: usize, cost: W, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    W: Fn(usize) -> u64,
{
    if cfg.is_sequential() || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = cfg.workers_for(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let costs: Vec<u64> = (0..len).map(cost).collect();
    run_region(workers, len, &weighted_ends(&costs, workers), &f)
}

/// One parallel region: `workers` scoped threads steal chunks (delimited by
/// the precomputed `ends` table) off a shared atomic cursor and the caller
/// stitches the per-chunk results back in index order.
fn run_region<R, F>(workers: usize, len: usize, ends: &[usize], f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let _region = crate::span!("pool.region", len as u64);
    crate::counter!("pool.regions").add(1);
    crate::histogram!("pool.region_items").record(len as u64);
    crate::histogram!("pool.region_chunks").record(ends.len() as u64);
    let cursor = AtomicUsize::new(0);

    let mut parts: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(ends.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut worker_span = crate::span!("pool.worker");
                    let _mem =
                        crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::PoolWorker);
                    let mut claimed: u64 = 0;
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        // relaxed-ok: pure chunk ticket; workers read the
                        // shared input through the scope, not the cursor.
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= ends.len() {
                            break;
                        }
                        let start = if c == 0 { 0 } else { ends[c - 1] };
                        let end = ends[c];
                        let _chunk_span = crate::span!("pool.chunk", (end - start) as u64);
                        claimed += 1;
                        local.push((start, (start..end).map(f).collect()));
                    }
                    // Chunks claimed per worker: the spread of this
                    // histogram across one region is the load-imbalance
                    // signal the stitch inherits.
                    worker_span.set_payload(claimed);
                    crate::histogram!("pool.worker_chunks").record(claimed);
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    let _stitch = crate::span!("pool.stitch", parts.len() as u64);
    let _mem = crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::PoolStitch);
    parts.sort_unstable_by_key(|&(start, _)| start);
    debug_assert_eq!(parts.iter().map(|(_, v)| v.len()).sum::<usize>(), len);
    let mut out = Vec::with_capacity(len);
    for (_, mut part) in parts.drain(..) {
        out.append(&mut part);
    }
    out
}

/// Runs `a` and `b`, `b` on a scoped worker when `cfg` allows two, and
/// returns both results. Sequential configurations run `a` then `b` inline
/// on the caller. A panic in either closure propagates to the caller after
/// both finish.
pub fn join<A, B, RA, RB>(cfg: &ParallelConfig, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if cfg.is_sequential() || cfg.workers_for(2) <= 1 {
        return (a(), b());
    }
    let _region = crate::span!("pool.join");
    crate::counter!("pool.joins").add(1);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let _worker = crate::span!("pool.worker");
            let _mem = crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::PoolWorker);
            b()
        });
        let ra = a();
        match worker.join() {
            Ok(rb) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Maps a slice through `f` with the same ordering and distribution
/// guarantees as [`map_indexed`].
pub fn map<T, R, F>(cfg: &ParallelConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(cfg, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_config_is_inline() {
        let cfg = ParallelConfig::sequential();
        assert!(cfg.is_sequential());
        assert_eq!(cfg.threads(), 0);
        assert_eq!(map_indexed(&cfg, 5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for threads in [1, 2, 3, 8, 33] {
            let cfg = ParallelConfig::with_threads(threads);
            let expected: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
            assert_eq!(
                map_indexed(&cfg, 257, |i| i * 3 + 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn weighted_map_matches_sequential_for_any_cost_model() {
        let expected: Vec<usize> = (0..300).map(|i| i ^ 0x5a).collect();
        for threads in [1, 2, 3, 8] {
            let cfg = ParallelConfig::with_threads(threads);
            // Skewed, uniform, zero, and adversarial (single hot item) costs
            // must never change the output, only the chunk boundaries.
            for cost in [
                |i: usize| (i as u64) * (i as u64),
                |_| 1u64,
                |_| 0u64,
                |i: usize| if i == 150 { 1_000_000 } else { 1 },
            ] {
                assert_eq!(
                    map_indexed_weighted(&cfg, 300, cost, |i| i ^ 0x5a),
                    expected,
                    "threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn guided_ends_cover_exactly_once_with_decaying_tail() {
        for (len, workers) in [(1, 2), (7, 2), (100, 3), (641, 4), (640_000, 4)] {
            let ends = guided_ends(len, workers);
            assert_eq!(*ends.last().unwrap(), len, "len={len} workers={workers}");
            assert!(ends.windows(2).all(|w| w[0] < w[1]));
            // Tail chunks degrade to single items: a straggler can be
            // out-stolen down to one item of slack.
            let prev = if ends.len() >= 2 {
                ends[ends.len() - 2]
            } else {
                0
            };
            assert_eq!(
                ends[ends.len() - 1] - prev,
                1,
                "len={len} workers={workers}"
            );
        }
        // First chunk is the coarse guided grain, not the whole range.
        let ends = guided_ends(640_000, 4);
        assert_eq!(ends[0], 640_000 / (4 * CHUNKS_PER_WORKER));
    }

    #[test]
    fn weighted_ends_cut_equal_cost_not_equal_count() {
        // One huge item: it must get its own chunk; the cheap tail must not
        // ride in it.
        let mut costs = vec![1u64; 100];
        costs[0] = 1_000_000;
        let ends = weighted_ends(&costs, 4);
        assert_eq!(ends[0], 1);
        assert_eq!(*ends.last().unwrap(), 100);
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        // All-zero costs still cover every item exactly once.
        let ends = weighted_ends(&[0u64; 10], 2);
        assert_eq!(*ends.last().unwrap(), 10);
    }

    #[test]
    fn join_returns_both_results_at_every_thread_count() {
        for threads in [0, 1, 2, 4] {
            let cfg = ParallelConfig::with_threads(threads);
            let (a, b) = join(&cfg, || (0..100u64).sum::<u64>(), || vec![threads; 3]);
            assert_eq!(a, 4950);
            assert_eq!(b, vec![threads; 3]);
        }
    }

    #[test]
    fn map_over_slice_matches_sequential() {
        let items: Vec<i64> = (0..100).map(|i| i * 7 % 13).collect();
        let seq = map(&ParallelConfig::sequential(), &items, |&x| x * x);
        for threads in [1, 2, 4] {
            assert_eq!(
                map(&ParallelConfig::with_threads(threads), &items, |&x| x * x),
                seq
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let cfg = ParallelConfig::with_threads(4);
        assert_eq!(map_indexed(&cfg, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(&cfg, 1, |i| i + 41), vec![41]);
        assert_eq!(
            map_indexed_weighted(&cfg, 0, |_| 1, |i| i),
            Vec::<usize>::new()
        );
        assert_eq!(map_indexed_weighted(&cfg, 1, |_| 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        map_indexed(&ParallelConfig::with_threads(7), 100, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed)
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        map_indexed_weighted(
            &ParallelConfig::with_threads(7),
            100,
            |i| i as u64,
            |i| counts[i].fetch_add(1, Ordering::Relaxed),
        );
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(&ParallelConfig::with_threads(2), 8, |i| {
                assert!(i != 5, "boom at index 5");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn with_threads_is_exact_and_roundtrips() {
        assert_eq!(ParallelConfig::with_threads(3).threads(), 3);
        assert!(!ParallelConfig::with_threads(1).is_sequential());
        // Explicit counts are exact even beyond the hardware width, so
        // differential tests drive real multi-worker claiming on any host;
        // environment-derived counts stay hardware-capped.
        assert_eq!(ParallelConfig::with_threads(64).workers_for(1000), 64);
        assert!(ParallelConfig::from_env().workers_for(1000) <= available_threads().max(64));
        // The bench sweep's capped variant folds back to the hardware width.
        let capped = ParallelConfig::with_threads(64).cap_to_hardware();
        assert_eq!(capped.threads(), 64);
        assert!(capped.workers_for(1000) <= available_threads());
    }
}
