//! A deterministic closed-loop workload driver for [`SkylineServer`]:
//! rounds of writer updates followed by a barrier, then a batch of reader
//! queries fanned out over the scoped pool.
//!
//! # Determinism contract
//!
//! The driver is built so that its [`WorkloadReport::checksum`] is
//! **bit-identical** across reader thread counts and across cold and
//! warm handle arenas — that equality is an acceptance test, not a hope:
//!
//! * every query is generated from a counter-based RNG keyed by
//!   `(seed, round, reader, i)` — no shared RNG state, no ordering
//!   sensitivity;
//! * updates apply between rounds on the caller thread and are fenced by a
//!   [`SkylineServer::refresh`] barrier, so every reader batch in a round
//!   observes the same epoch's content;
//! * per-query digests are folded with XOR, which is order-independent.
//!
//! A divergent checksum therefore means a real answer changed — the
//! differential stress harness and the arena-warmth test both rely on
//! this.

use skyline_core::sync::Arc;

use skyline_core::geometry::Point;
use skyline_core::maintained::Handle;
use skyline_core::parallel::{self, ParallelConfig};

use crate::arena::CacheStats;
use crate::server::SkylineServer;
use crate::snapshot::Snapshot;

/// Relative weights of the five request kinds in the query mix.
#[derive(Clone, Copy, Debug)]
pub struct QueryMix {
    /// Weight of quadrant skyline lookups.
    pub quadrant: u32,
    /// Weight of global skyline lookups.
    pub global: u32,
    /// Weight of dynamic skyline lookups.
    pub dynamic: u32,
    /// Weight of safe-zone (polyomino) lookups.
    pub safe_zone: u32,
    /// Weight of continuous segment traces.
    pub trace: u32,
}

impl QueryMix {
    /// Quadrant lookups only — the cheapest, most cache-friendly mix.
    pub const fn quadrant_only() -> Self {
        QueryMix {
            quadrant: 1,
            global: 0,
            dynamic: 0,
            safe_zone: 0,
            trace: 0,
        }
    }

    /// Sum of the weights (0 is rejected by the driver).
    pub fn total(&self) -> u32 {
        self.quadrant + self.global + self.dynamic + self.safe_zone + self.trace
    }
}

impl Default for QueryMix {
    /// A read-mostly serving mix: mostly quadrant lookups, some global,
    /// occasional safe zones and traces, no dynamic (it requires the
    /// expensive dynamic diagram).
    fn default() -> Self {
        QueryMix {
            quadrant: 6,
            global: 2,
            dynamic: 0,
            safe_zone: 1,
            trace: 1,
        }
    }
}

/// Shape of one closed-loop run. See the module docs for the determinism
/// contract.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Reader fan-out per round: `0` runs one reader inline on the caller
    /// (the sequential reference), `k >= 1` fans `k` readers out on the
    /// scoped pool.
    pub readers: usize,
    /// Number of update→barrier→query rounds.
    pub rounds: usize,
    /// Queries issued by each reader in each round.
    pub queries_per_reader: usize,
    /// Writer updates applied (then fenced) before each round's queries.
    pub updates_per_round: usize,
    /// Query coordinates are drawn from `[0, domain)`.
    pub domain: i64,
    /// Master seed; every random choice derives from it by counter.
    pub seed: u64,
    /// Request-kind weights.
    pub mix: QueryMix,
}

impl WorkloadSpec {
    /// Total queries the spec will issue.
    pub fn total_queries(&self) -> u64 {
        (self.readers.max(1) as u64) * (self.rounds as u64) * (self.queries_per_reader as u64)
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            readers: 4,
            rounds: 8,
            queries_per_reader: 250,
            updates_per_round: 0,
            domain: 1 << 16,
            seed: 0x5eed_0001,
            mix: QueryMix::default(),
        }
    }
}

/// What one closed-loop run did and observed.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadReport {
    /// Queries answered.
    pub queries: u64,
    /// Updates applied (inserts + removes).
    pub updates: u64,
    /// Epochs published during the run.
    pub epochs_published: u64,
    /// Wall-clock time of the whole run.
    pub elapsed_ms: f64,
    /// Order-independent digest of every answer; identical across thread
    /// counts and arena warmth for the same spec and server content.
    pub checksum: u64,
    /// Handle-arena counters of the final epoch's snapshot (a whole-run
    /// total when the run publishes no epochs; the last epoch's share
    /// otherwise).
    pub cache: CacheStats,
}

impl WorkloadReport {
    /// Queries per second over the whole run.
    pub fn queries_per_sec(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            0.0
        } else {
            self.queries as f64 * 1000.0 / self.elapsed_ms
        }
    }
}

/// SplitMix64: the counter-keyed generator behind every random choice
/// (shared with the open-loop driver in [`crate::openloop`]).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny counter-based stream: `n`th draw of stream `key`.
fn draw(key: u64, n: u64) -> u64 {
    splitmix(key ^ splitmix(n.wrapping_mul(0xa076_1d64_78bd_642f)))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(acc: u64, word: u64) -> u64 {
    let mut acc = acc;
    for shift in [0u32, 32] {
        acc = (acc ^ ((word >> shift) & 0xffff_ffff)).wrapping_mul(FNV_PRIME);
    }
    acc
}

fn fnv_handles(mut acc: u64, handles: &[Handle]) -> u64 {
    acc = fnv(acc, handles.len() as u64);
    for h in handles {
        acc = fnv(acc, h.0);
    }
    acc
}

/// Digest of one answered query: kind, query point, and the full answer.
/// Exact integers only — no floats enter the checksum. Shared by the
/// closed-loop and open-loop drivers so their answers fold identically.
pub(crate) fn digest_query(kind: u64, q: Point, snap: &Snapshot, domain: i64, rng: u64) -> u64 {
    let mut acc = fnv(
        fnv(FNV_OFFSET, kind),
        (q.x as u64) << 32 | (q.y as u64 & 0xffff_ffff),
    );
    match kind {
        0 => acc = fnv_handles(acc, &snap.quadrant(q)),
        1 => acc = fnv_handles(acc, &snap.global(q)),
        2 => acc = fnv_handles(acc, &snap.dynamic(q)),
        3 => {
            if let Some(zone) = snap.safe_zone(q) {
                acc = fnv(acc, zone.area() as u64);
                acc = fnv(acc, zone.cells.len() as u64);
            }
        }
        _ => {
            let b = point_in_domain(domain, splitmix(rng ^ 0x7ace));
            acc = fnv(acc, (b.x as u64) << 32 | (b.y as u64 & 0xffff_ffff));
            // Steps hold positional ids: fold their handles, sorted as the
            // other answers are, so the digest does not depend on the
            // server's internal point order.
            let handles = snap.handles();
            let mut step_handles = Vec::new();
            for step in snap.trace(q, b) {
                step_handles.clear();
                step_handles.extend(step.result.iter().map(|id| handles[id.index()]));
                step_handles.sort_unstable();
                acc = fnv_handles(acc, &step_handles);
            }
        }
    }
    acc
}

pub(crate) fn point_in_domain(domain: i64, rng: u64) -> Point {
    let domain = domain.max(1) as u64;
    Point::new(
        (draw(rng, 1) % domain) as i64,
        (draw(rng, 2) % domain) as i64,
    )
}

pub(crate) fn pick_kind(mix: &QueryMix, rng: u64) -> u64 {
    let total = mix.total().max(1) as u64;
    let mut roll = draw(rng, 0) % total;
    for (kind, weight) in [
        (0u64, mix.quadrant),
        (1, mix.global),
        (2, mix.dynamic),
        (3, mix.safe_zone),
        (4, mix.trace),
    ] {
        let weight = weight as u64;
        if roll < weight {
            return kind;
        }
        roll -= weight;
    }
    0
}

/// One reader's batch for one round: returns its XOR-folded digest.
fn reader_batch(server: &SkylineServer, spec: &WorkloadSpec, round: usize, reader: usize) -> u64 {
    let _batch = skyline_core::span!("workload.reader_batch", spec.queries_per_reader as u64);
    skyline_core::counter!("workload.queries").add(spec.queries_per_reader as u64);
    let snap = server.reader().snapshot();
    let mut acc = 0u64;
    for i in 0..spec.queries_per_reader {
        let key = splitmix(spec.seed)
            ^ splitmix(round as u64)
            ^ splitmix((reader as u64) << 20)
            ^ splitmix((i as u64) << 40);
        let kind = pick_kind(&spec.mix, key);
        let q = point_in_domain(spec.domain, splitmix(key ^ 0xbeef));
        acc ^= digest_query(kind, q, &snap, spec.domain, key);
    }
    acc
}

/// Applies one round of writer updates: inserts fresh points and removes
/// random live handles, keeping the point count roughly stable.
fn apply_updates(
    server: &SkylineServer,
    spec: &WorkloadSpec,
    round: usize,
    pool: &mut Vec<Handle>,
) -> u64 {
    let mut applied = 0u64;
    for u in 0..spec.updates_per_round {
        let key =
            splitmix(spec.seed ^ 0xdead) ^ splitmix(round as u64) ^ splitmix((u as u64) << 32);
        // Remove (~2 in 5) only while a healthy pool remains.
        if draw(key, 9) % 5 < 2 && pool.len() > 4 {
            let victim = pool.swap_remove((draw(key, 10) as usize) % pool.len());
            if server.remove(victim) {
                applied += 1;
            }
        } else {
            pool.push(server.insert(point_in_domain(spec.domain, key)));
            applied += 1;
        }
    }
    applied
}

/// Runs the closed loop: for each round, apply the writer updates, fence
/// them with a [`SkylineServer::refresh`] barrier, then fan
/// `spec.readers` reader batches out on the scoped pool. `handles` seeds
/// the removable-handle pool (pass the handles from
/// [`SkylineServer::with_dataset`]; ignored when `updates_per_round` is 0).
pub fn run(server: &SkylineServer, spec: &WorkloadSpec, handles: &[Handle]) -> WorkloadReport {
    assert!(spec.mix.total() > 0, "query mix must have positive weight");
    let reader_count = spec.readers.max(1);
    let cfg = ParallelConfig::with_threads(spec.readers);
    let mut pool: Vec<Handle> = handles.to_vec();
    let epoch_before = server.epoch();
    // The telemetry clock is the workspace's one timing source (the
    // `no-ad-hoc-timing` lint bans raw `Instant` here); it is available —
    // and `elapsed_ms` stays exact — with the telemetry feature off.
    let start_ns = skyline_core::telemetry::now_ns();
    let mut checksum = 0u64;
    let mut updates = 0u64;
    for round in 0..spec.rounds {
        let _round = skyline_core::span!("workload.round", round as u64);
        if spec.updates_per_round > 0 {
            updates += apply_updates(server, spec, round, &mut pool);
            server.refresh();
        }
        for digest in
            parallel::map_indexed(&cfg, reader_count, |r| reader_batch(server, spec, round, r))
        {
            checksum ^= digest;
        }
    }
    let elapsed_ms = skyline_core::telemetry::ms_since(start_ns);
    let final_snapshot: Arc<Snapshot> = server.latest();
    WorkloadReport {
        queries: spec.total_queries(),
        updates,
        epochs_published: server.epoch() - epoch_before,
        elapsed_ms,
        checksum,
        cache: final_snapshot.cache_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerOptions, SkylineServer};
    use skyline_core::geometry::Dataset;

    fn server_with(n: i64, options: ServerOptions) -> (SkylineServer, Vec<Handle>) {
        let coords: Vec<(i64, i64)> = (0..n)
            .map(|i| {
                let r = splitmix(0xa11ce ^ (i as u64));
                ((r % 997) as i64 * 4, ((r >> 32) % 997) as i64 * 4)
            })
            .collect();
        let ds = Dataset::from_coords(coords).expect("generated coords are valid");
        SkylineServer::with_dataset(&ds, options)
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            readers: 4,
            rounds: 3,
            queries_per_reader: 40,
            updates_per_round: 6,
            domain: 4000,
            seed: 99,
            mix: QueryMix {
                quadrant: 4,
                global: 2,
                dynamic: 0,
                safe_zone: 1,
                trace: 1,
            },
        }
    }

    #[test]
    fn checksum_is_deterministic_across_runs() {
        // The digest streams are keyed by (seed, round, reader, i) and
        // folded with XOR, so the checksum depends only on the spec and the
        // server content — not on how many pool workers `map_indexed`
        // actually got (the SKYLINE_THREADS stress matrix exercises the
        // worker-count axis on this same property).
        let spec4 = spec();
        let (a, ha) = server_with(60, ServerOptions::default());
        let (b, hb) = server_with(60, ServerOptions::default());
        let ra = run(&a, &spec4, &ha);
        let rb = run(&b, &spec4, &hb);
        assert_eq!(ra.checksum, rb.checksum, "same spec, same content");
        assert_eq!(ra.queries, spec4.total_queries());
        assert!(ra.updates > 0);
        assert!(ra.epochs_published >= spec4.rounds as u64);
    }

    #[test]
    fn checksum_is_independent_of_arena_warmth() {
        // Read-only, so one epoch serves every round and server `a`'s
        // arenas stay warm from the first run into the second.
        let read_only = WorkloadSpec {
            updates_per_round: 0,
            ..spec()
        };
        let (a, ha) = server_with(60, ServerOptions::default());
        let (b, hb) = server_with(60, ServerOptions::default());
        let first = run(&a, &read_only, &ha);
        let warm = run(&a, &read_only, &ha);
        let cold = run(&b, &read_only, &hb);
        assert_eq!(warm.checksum, cold.checksum, "warm/cold agree bit-for-bit");
        assert_eq!(first.checksum, cold.checksum);
        assert!(cold.cache.misses > 0, "a cold arena fills");
        assert_eq!(
            warm.cache.misses, first.cache.misses,
            "a warm arena fills nothing more"
        );
        assert_eq!(warm.cache.misses, cold.cache.misses, "one fill per result");
    }

    #[test]
    fn read_only_run_publishes_nothing_and_hits_the_cache() {
        let read_only = WorkloadSpec {
            updates_per_round: 0,
            rounds: 2,
            ..spec()
        };
        let (server, handles) = server_with(60, ServerOptions::default());
        let report = run(&server, &read_only, &handles);
        assert_eq!(report.epochs_published, 0);
        assert_eq!(report.updates, 0);
        assert!(report.cache.hits > 0, "repeated results must hit");
        assert!(report.queries_per_sec() > 0.0);
    }

    #[test]
    fn checksum_is_independent_of_point_order() {
        // The same points under the same handles, stored in reverse order:
        // every answer, trace steps included, must fold identically.
        let read_only = WorkloadSpec {
            updates_per_round: 0,
            mix: QueryMix {
                trace: 4,
                ..spec().mix
            },
            ..spec()
        };
        let (a, handles) = server_with(60, ServerOptions::default());
        let snap = a.latest();
        let index = snap.index().expect("a populated server has an index");
        let reversed = Dataset::new(index.dataset().points().iter().rev().copied().collect())
            .expect("the same points are valid");
        let rev_handles: Vec<Handle> = snap.handles().iter().rev().copied().collect();
        let rebuilt = skyline_core::index::SkylineIndex::new(&reversed);
        let bytes = skyline_core::container::encode_index(&rebuilt, &rev_handles);
        let (b, b_handles) = SkylineServer::from_container(&bytes, ServerOptions::default())
            .expect("a fresh container cold-starts");
        assert_ne!(
            b.latest().handles(),
            snap.handles(),
            "the point orders differ"
        );
        let ra = run(&a, &read_only, &handles);
        let rb = run(&b, &read_only, &b_handles);
        assert_eq!(ra.checksum, rb.checksum);
    }

    #[test]
    fn total_queries_counts_inline_reader() {
        let s = WorkloadSpec {
            readers: 0,
            rounds: 2,
            queries_per_reader: 10,
            ..WorkloadSpec::default()
        };
        assert_eq!(s.total_queries(), 20);
    }
}
