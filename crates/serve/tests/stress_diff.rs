//! Differential stress harness: every answer a concurrent reader gets from
//! the server must equal a fresh single-threaded recompute over **that
//! snapshot's** dataset.
//!
//! The harness runs under the CI `SKYLINE_THREADS ∈ {0, 1, 4}` matrix: at
//! `0` the role fan-out degenerates to a deterministic sequential
//! interleaving (writer role first, then each reader), at `4` the roles
//! genuinely race on multi-core hosts. Correctness is checked the same way
//! in both regimes — against the epoch-consistent oracle — so a data race,
//! a torn publication, or an arena serving across epochs fails the same
//! assertions everywhere.
//!
//! # Boundary discipline
//!
//! Diagram lookups are exact *off* grid lines (global) and *off* subcell
//! boundaries (dynamic). The harness sidesteps boundary ambiguity by
//! construction: every dataset coordinate is a multiple of 4, every query
//! coordinate is odd. Grid lines sit on multiples of 4 and perpendicular
//! bisectors on even integers, so odd queries never touch either, and all
//! three semantics must agree exactly with the from-scratch oracles.

use std::sync::atomic::{AtomicU64, Ordering};

use skyline_core::container::encode_index;
use skyline_core::geometry::{Dataset, Point, PointId};
use skyline_core::index::SkylineIndex;
use skyline_core::maintained::Handle;
use skyline_core::parallel::{self, ParallelConfig};
use skyline_core::query;
use skyline_serve::workload::{self, QueryMix, WorkloadSpec};
use skyline_serve::{ServerOptions, SkylineServer, Snapshot};

/// SplitMix64 step for deterministic per-role streams.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(splitmix(seed))
    }
    fn next(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }
}

/// Coordinate span of the test domain; dataset coordinates are multiples
/// of 4 in `[0, 4 * SPAN]`, query coordinates odd in the same range.
const SPAN: u64 = 160;

fn grid_point(rng: &mut Rng) -> Point {
    Point::new(
        4 * (rng.next() % (SPAN + 1)) as i64,
        4 * (rng.next() % (SPAN + 1)) as i64,
    )
}

fn odd_point(rng: &mut Rng) -> Point {
    Point::new(
        2 * (rng.next() % (2 * SPAN)) as i64 + 1,
        2 * (rng.next() % (2 * SPAN)) as i64 + 1,
    )
}

fn seed_server(n: usize, seed: u64, options: ServerOptions) -> (SkylineServer, Vec<Handle>) {
    let mut rng = Rng::new(seed);
    let mut coords: Vec<(i64, i64)> = Vec::new();
    while coords.len() < n {
        let p = grid_point(&mut rng);
        if !coords.contains(&(p.x, p.y)) {
            coords.push((p.x, p.y));
        }
    }
    let ds = Dataset::from_coords(coords).expect("generated grid coords are valid");
    SkylineServer::with_dataset(&ds, options)
}

/// Maps an id-space oracle answer into the snapshot's handle space, sorted.
fn as_handles(snap: &Snapshot, ids: Vec<PointId>) -> Vec<Handle> {
    let handles = snap.handles();
    let mut out: Vec<Handle> = ids.into_iter().map(|id| handles[id.index()]).collect();
    out.sort_unstable();
    out
}

/// The differential core: recompute each semantics from scratch on the
/// snapshot's own dataset and demand equality.
fn check_against_oracle(snap: &Snapshot, q: Point, check_global: bool, check_dynamic: bool) {
    let Some(ds) = snap.dataset() else {
        assert!(snap.quadrant(q).is_empty());
        assert!(snap.global(q).is_empty());
        return;
    };
    let epoch = snap.epoch();
    assert_eq!(
        snap.quadrant(q).as_ref(),
        as_handles(snap, query::quadrant_skyline(ds, q)).as_slice(),
        "quadrant mismatch at {q}, epoch {epoch}"
    );
    if check_global {
        assert_eq!(
            snap.global(q).as_ref(),
            as_handles(snap, query::global_skyline(ds, q)).as_slice(),
            "global mismatch at {q}, epoch {epoch}"
        );
    }
    if check_dynamic {
        assert_eq!(
            snap.dynamic(q).as_ref(),
            as_handles(snap, query::dynamic_skyline(ds, q)).as_slice(),
            "dynamic mismatch at {q}, epoch {epoch}"
        );
    }
}

/// Structural safe-zone check: the zone contains the query's cell, every
/// zone cell carries the query's exact result, and the zone equals what
/// the snapshot's quadrant answer implies.
fn check_safe_zone(snap: &Snapshot, q: Point) {
    let Some(zone) = snap.safe_zone(q) else {
        return;
    };
    let index = snap
        .index()
        .expect("safe zone implies a non-empty snapshot");
    let diagram = index.quadrant_diagram();
    let cell = diagram.grid().cell_of(q);
    assert!(
        zone.cells.contains(&cell),
        "safe zone must contain the query's own cell"
    );
    let expected = diagram.query(q);
    for &c in zone.cells {
        assert_eq!(
            diagram.result(c),
            expected,
            "zone cell {c:?} disagrees with the query result at {q}"
        );
    }
}

/// Trace well-formedness: the itinerary tiles `[0, 1]` exactly with
/// non-empty, contiguous, monotone steps.
fn check_trace(snap: &Snapshot, a: Point, b: Point) {
    let steps = snap.trace(a, b);
    if snap.is_empty() {
        assert!(steps.is_empty());
        return;
    }
    assert!(!steps.is_empty(), "non-empty snapshot yields an itinerary");
    assert_eq!(steps[0].t_start, 0.0, "itinerary starts at t = 0");
    let last = steps.len() - 1;
    assert_eq!(steps[last].t_end, 1.0, "itinerary ends at t = 1");
    for w in steps.windows(2) {
        assert_eq!(w[0].t_end, w[1].t_start, "steps tile without gaps");
    }
    for s in &steps {
        assert!(s.t_start < s.t_end, "no empty steps after coalescing");
    }
}

/// The latest snapshot, repaired or built, must encode to the same bytes as
/// a fresh build of its live points, in the same order, with the same
/// handles.
fn assert_latest_is_a_fresh_build(server: &SkylineServer) {
    let snap = server.latest();
    let (Some(dataset), Some(index)) = (snap.dataset(), snap.index()) else {
        return;
    };
    let fresh = SkylineIndex::builder()
        .with_global(index.global_diagram().is_some())
        .with_dynamic(index.dynamic_diagram().is_some())
        .build_with(dataset, &ParallelConfig::sequential());
    assert!(
        encode_index(index, snap.handles()) == encode_index(&fresh, snap.handles()),
        "epoch {}: the served index differs from a fresh build",
        snap.epoch()
    );
}

/// Writer role: a deterministic churn of inserts/removes over its own
/// handle pool, publishing via threshold and explicit refresh barriers.
fn writer_role(
    server: &SkylineServer,
    mut pool: Vec<Handle>,
    ops: usize,
    refresh_every: usize,
    seed: u64,
) -> u64 {
    let mut rng = Rng::new(seed);
    let mut applied = 0u64;
    for op in 0..ops {
        if rng.next() % 5 < 2 && pool.len() > 8 {
            let victim = pool.swap_remove((rng.next() as usize) % pool.len());
            assert!(server.remove(victim), "writer owns every handle it removes");
        } else {
            pool.push(server.insert(grid_point(&mut rng)));
        }
        applied += 1;
        if refresh_every > 0 && (op + 1) % refresh_every == 0 {
            server.refresh();
        }
    }
    server.refresh();
    applied
}

/// Reader role: chase fresh snapshots and differentially verify a batch of
/// queries; sprinkles safe-zone and trace checks on top of the skyline
/// semantics.
fn reader_role(
    server: &SkylineServer,
    queries: usize,
    refresh_every: usize,
    seed: u64,
    check_global: bool,
    check_dynamic: bool,
) -> u64 {
    let mut rng = Rng::new(seed);
    let mut reader = server.reader();
    let mut snap = reader.snapshot();
    for i in 0..queries {
        if i % refresh_every == 0 {
            snap = reader.snapshot();
        }
        let q = odd_point(&mut rng);
        check_against_oracle(&snap, q, check_global, check_dynamic);
        if i % 16 == 0 {
            check_safe_zone(&snap, q);
        }
        if i % 64 == 0 {
            let b = odd_point(&mut rng);
            if b != q {
                check_trace(&snap, q, b);
            }
        }
    }
    queries as u64
}

/// ≥ 10k differentially verified queries against a server under live
/// mutation, quadrant + global semantics. Two phases: deterministic
/// interleaved rounds (meaningful at every thread count), then a
/// free-running writer racing four readers.
#[test]
fn stress_quadrant_global_under_churn() {
    let options = ServerOptions {
        with_global: true,
        rebuild_threshold: 24,
        ..ServerOptions::default()
    };
    let (server, handles) = seed_server(80, 0xA11CE, options);
    let cfg = ParallelConfig::from_env();
    let queries = AtomicU64::new(0);

    // Phase A: 25 rounds of (writer burst → barrier → 4 verified reader
    // batches). The barrier pins each round's content, so this phase is a
    // deterministic interleaving across epochs even on one thread.
    let mut phase_a_pool = handles.clone();
    for round in 0..25u64 {
        let mut rng = Rng::new(0xBEEF ^ round);
        for _ in 0..4 {
            if rng.next() % 5 < 2 && phase_a_pool.len() > 8 {
                let victim = phase_a_pool.swap_remove((rng.next() as usize) % phase_a_pool.len());
                assert!(server.remove(victim));
            } else {
                phase_a_pool.push(server.insert(grid_point(&mut rng)));
            }
        }
        server.refresh();
        let done = parallel::map_indexed(&cfg, 4, |r| {
            reader_role(&server, 24, 8, splitmix(round) ^ (r as u64), true, false)
        });
        queries.fetch_add(done.iter().sum::<u64>(), Ordering::Relaxed);
    }

    // Phase A published batches of four, by repair.
    assert_latest_is_a_fresh_build(&server);

    // Phase B: free-running roles — role 0 churns and publishes while
    // roles 1–4 verify continuously against whatever epoch they pinned.
    let writer_pool = phase_a_pool;
    let done = parallel::map_indexed(&cfg, 5, |role| {
        if role == 0 {
            writer_role(&server, writer_pool.clone(), 120, 6, 0xD00D);
            0
        } else {
            reader_role(&server, 2000, 10, 0xF00 ^ (role as u64), true, false)
        }
    });
    queries.fetch_add(done.iter().sum::<u64>(), Ordering::Relaxed);

    // Phase B's batches of six took full builds; single updates repair,
    // including the removal of a middle id.
    assert_latest_is_a_fresh_build(&server);
    let mut rng = Rng::new(0x5EED);
    for step in 0..6 {
        if step % 2 == 0 {
            server.insert(grid_point(&mut rng));
        } else {
            let live = server.latest();
            assert!(server.remove(live.handles()[live.handles().len() / 2]));
        }
        server.refresh();
        assert_latest_is_a_fresh_build(&server);
    }

    let total = queries.load(Ordering::Relaxed);
    assert!(
        total >= 10_000,
        "harness must verify at least 10k queries, got {total}"
    );
    assert!(server.epoch() > 25, "the run published many epochs");
}

/// Dynamic semantics under churn: small dataset (the dynamic diagram is
/// O(n⁴) cells), all three semantics verified per query.
#[test]
fn stress_dynamic_semantics_under_churn() {
    let options = ServerOptions {
        with_global: true,
        with_dynamic: true,
        rebuild_threshold: 6,
        ..ServerOptions::default()
    };
    let (server, handles) = seed_server(18, 0xD14, options);
    let cfg = ParallelConfig::from_env();
    let done = parallel::map_indexed(&cfg, 5, |role| {
        if role == 0 {
            writer_role(&server, handles.clone(), 40, 4, 0xCAFE);
            0
        } else {
            reader_role(&server, 300, 12, 0x9 ^ (role as u64), true, true)
        }
    });
    assert_eq!(done[1..].iter().sum::<u64>(), 1200);
    // The last batch of four was repaired, and the dynamic diagram rebuilt.
    assert_latest_is_a_fresh_build(&server);
}

/// A built server and a server cold-started from its container answer the
/// same workloads with bit-for-bit identical checksums — across two seeds.
/// The read-only phase races four readers' arena fills on the built and on
/// the restored epoch (one fill per result id either way); the mutating
/// phase then republishes both from their maintained indexes.
#[test]
fn built_and_cold_started_checksums_agree() {
    for seed in [7u64, 0x5eed] {
        let mutating = WorkloadSpec {
            readers: 4,
            rounds: 4,
            queries_per_reader: 120,
            updates_per_round: 10,
            domain: 4 * SPAN as i64,
            seed,
            mix: QueryMix {
                quadrant: 5,
                global: 2,
                dynamic: 0,
                safe_zone: 2,
                trace: 1,
            },
        };
        let read_only = WorkloadSpec {
            updates_per_round: 0,
            ..mutating
        };
        let options = ServerOptions {
            with_global: true,
            ..ServerOptions::default()
        };
        let (a, ha) = seed_server(64, seed, options);
        let bytes = a.latest().to_container().expect("populated");
        let (b, hb) = SkylineServer::from_container(&bytes, options).expect("valid container");
        assert_eq!(ha, hb);
        let (ra, rb) = (
            workload::run(&a, &read_only, &ha),
            workload::run(&b, &read_only, &hb),
        );
        assert_eq!(ra.checksum, rb.checksum, "read-only diverged, seed {seed}");
        assert_eq!(ra.cache, rb.cache, "one fill per result id, hits the rest");
        let (ra, rb) = (
            workload::run(&a, &mutating, &ha),
            workload::run(&b, &mutating, &hb),
        );
        assert_eq!(ra.checksum, rb.checksum, "mutating diverged, seed {seed}");
        assert_eq!(ra.queries, rb.queries);
    }
}

/// A reader pinned to an old epoch keeps answering from it, bit-for-bit,
/// while the writer publishes far past it.
#[test]
fn pinned_epoch_is_immutable_under_publication() {
    let (server, _) = seed_server(
        40,
        0x1DEA,
        ServerOptions {
            rebuild_threshold: 4,
            ..ServerOptions::default()
        },
    );
    let mut reader = server.reader();
    let pinned = reader.snapshot();
    let pinned_epoch = pinned.epoch();
    let mut rng = Rng::new(0x777);
    let probes: Vec<Point> = (0..32).map(|_| odd_point(&mut rng)).collect();
    let before: Vec<Vec<Handle>> = probes
        .iter()
        .map(|&q| pinned.quadrant(q).to_vec())
        .collect();

    for _ in 0..40 {
        server.insert(grid_point(&mut rng));
    }
    server.refresh();
    assert!(server.epoch() > pinned_epoch);

    for (q, old) in probes.iter().zip(&before) {
        assert_eq!(
            pinned.quadrant(*q).as_ref(),
            old.as_slice(),
            "pinned epoch changed under publication"
        );
        check_against_oracle(&pinned, *q, true, false);
    }
    // After refreshing, the reader sees the new epoch's content exactly.
    let fresh = reader.snapshot();
    assert!(fresh.epoch() > pinned_epoch);
    for &q in &probes {
        check_against_oracle(&fresh, q, true, false);
    }
}

/// The refresh barrier makes every prior update visible: nothing before,
/// everything after.
#[test]
fn refresh_is_a_visibility_barrier() {
    let (server, _) = seed_server(30, 0xBA2, ServerOptions::default());
    let len_before = server.latest().len();
    let mut rng = Rng::new(0x42);
    for _ in 0..8 {
        server.insert(grid_point(&mut rng));
    }
    assert_eq!(
        server.latest().len(),
        len_before,
        "below threshold, updates stay invisible"
    );
    server.refresh();
    assert_eq!(server.latest().len(), len_before + 8);
    let snap = server.latest();
    for _ in 0..64 {
        check_against_oracle(&snap, odd_point(&mut rng), true, false);
    }
}
