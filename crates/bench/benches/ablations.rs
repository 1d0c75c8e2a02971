//! E8 (Criterion form): design-choice ablations — DSG graph vs sweep,
//! high-d scanning union vs inclusion–exclusion, the union–find merge vs
//! the quadrant partition derived by result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyline_bench::{highd_dataset, sweep_dataset};
use skyline_core::diagram::merge::{merge, quadrant_partition};
use skyline_core::dsg::DirectedSkylineGraph;
use skyline_core::geometry::CellGrid;
use skyline_core::highd::HighDEngine;
use skyline_core::quadrant::{dsg_algorithm, QuadrantEngine};
use skyline_data::Distribution;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    let ds = sweep_dataset(200, Distribution::Independent);
    group.bench_function("dsg/graph_build", |b| {
        b.iter(|| DirectedSkylineGraph::new_2d(&ds))
    });
    let dsg = DirectedSkylineGraph::new_2d(&ds);
    group.bench_function("dsg/sweep_only", |b| {
        b.iter(|| dsg_algorithm::build_with_dsg(CellGrid::new(&ds), &dsg))
    });

    let ds3 = highd_dataset(15, 3, Distribution::Independent);
    group.bench_with_input(
        BenchmarkId::new("highd_scanning", "union"),
        &ds3,
        |b, ds| b.iter(|| HighDEngine::Scanning.build(ds)),
    );
    group.bench_with_input(
        BenchmarkId::new("highd_scanning", "inclusion_exclusion"),
        &ds3,
        |b, ds| b.iter(|| HighDEngine::ScanningInclusionExclusion.build(ds)),
    );

    let diagram = QuadrantEngine::Sweeping.build(&ds);
    group.bench_function("merge/union_find", |b| b.iter(|| merge(&diagram)));
    group.bench_function("merge/by_result", |b| {
        b.iter(|| quadrant_partition(&diagram))
    });

    // k-skyband engines (k = 3) and the literal Algorithm 4.
    group.bench_function("skyband/baseline_k3", |b| {
        b.iter(|| skyline_core::skyband::build_baseline(&ds, 3))
    });
    group.bench_function("skyband/incremental_k3", |b| {
        b.iter(|| skyline_core::skyband::build_incremental(&ds, 3))
    });
    let gp = skyline_data::DatasetSpec {
        n: 200,
        dims: 2,
        domain: 1_000_000,
        distribution: Distribution::Independent,
        seed: 424242,
    }
    .build_2d();
    if skyline_core::quadrant::algorithm4::build(&gp).is_ok() {
        group.bench_function("sweeping/algorithm4_walks", |b| {
            b.iter(|| skyline_core::quadrant::algorithm4::build(&gp).unwrap())
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
