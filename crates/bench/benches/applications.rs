//! E9 (Criterion form): application-layer throughput — moving-query
//! traversal, authenticated queries, PIR retrieval, reverse-skyline
//! queries, and the standalone diagram container's encode and decode.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skyline_apps::auth::{verify, AuthenticatedDiagram};
use skyline_apps::continuous::trace_segment;
use skyline_apps::pir::{private_skyline_query, PirServer};
use skyline_apps::reverse::ReverseSkylineIndex;
use skyline_bench::sweep_dataset;
use skyline_core::container;
use skyline_core::geometry::Point;
use skyline_core::quadrant::QuadrantEngine;
use skyline_data::Distribution;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("applications");
    group.sample_size(20);

    let ds = sweep_dataset(200, Distribution::Independent);
    let diagram = QuadrantEngine::Sweeping.build(&ds);
    let mut rng = StdRng::seed_from_u64(5);
    let lim = 2000i64;

    let segments: Vec<(Point, Point)> = (0..64)
        .map(|_| {
            (
                Point::new(rng.gen_range(0..lim), rng.gen_range(0..lim)),
                Point::new(rng.gen_range(0..lim), rng.gen_range(0..lim)),
            )
        })
        .collect();
    group.bench_function("trace_segment_64", |b| {
        b.iter(|| {
            segments
                .iter()
                .map(|&(a, bb)| trace_segment(&diagram, a, bb).len())
                .sum::<usize>()
        })
    });

    let auth = AuthenticatedDiagram::new(&ds, diagram.clone());
    let root = auth.root();
    let queries: Vec<Point> = (0..64)
        .map(|_| Point::new(rng.gen_range(0..lim), rng.gen_range(0..lim)))
        .collect();
    group.bench_function("auth_query_verify_64", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|&&q| verify(&auth.query(&ds, q), &root))
                .count()
        })
    });

    let server = PirServer::new(&diagram);
    let params = server.client_params(&diagram);
    group.bench_function("pir_query_8", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            queries
                .iter()
                .take(8)
                .map(|&q| private_skyline_query(&server, &server, &params, q, &mut rng).len())
                .sum::<usize>()
        })
    });

    group.bench_function("reverse_index_build", |b| {
        b.iter(|| ReverseSkylineIndex::new(&ds))
    });
    let index = ReverseSkylineIndex::new(&ds);
    group.bench_function("reverse_query_64", |b| {
        b.iter(|| queries.iter().map(|&q| index.query(q).len()).sum::<usize>())
    });

    group.bench_function("maintained_index_churn", |b| {
        // 32 inserts + 32 queries against a 200-point base: the lazy
        // rebuild amortization in action.
        b.iter(|| {
            let mut index =
                skyline_core::maintained::MaintainedIndex::new(QuadrantEngine::Sweeping);
            for p in ds.points() {
                index.insert(*p);
            }
            let mut total = 0usize;
            for (k, &q) in queries.iter().take(32).enumerate() {
                index.insert(Point::new(q.x / 2 + k as i64, q.y / 2));
                total += index.query(q).len();
            }
            total
        })
    });

    group.bench_function("container_encode", |b| {
        b.iter(|| container::encode_cell_diagram(&ds, &diagram))
    });
    let bytes = container::encode_cell_diagram(&ds, &diagram);
    group.bench_function("container_decode", |b| {
        b.iter(|| container::decode_cell_diagram(&bytes).expect("valid"))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
