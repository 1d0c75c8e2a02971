//! The allocator-derived metrics of a seed repeat exactly across two
//! in-process runs of each workload. This is the only test in its binary:
//! the counting allocator is process-wide, and another test allocating
//! concurrently would disturb the counts.

use perfbench::bench::run;
use perfbench::gen::Workload;
use perfbench::report::Metric;

fn values(metrics: &[Metric], names: &[&str]) -> Vec<(String, f64)> {
    metrics
        .iter()
        .filter(|m| {
            names
                .iter()
                .any(|n| m.name == *n || m.name.starts_with("container.section."))
        })
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn allocator_metrics_repeat_exactly_for_a_seed() {
    let e2e = ["build_peak_mb", "snapshot_mb", "container_mb"];
    let layers = [
        "quadrant.allocs",
        "quadrant.alloc_mb",
        "quadrant.heap_mb",
        "merge.allocs",
        "merge.heap_mb",
        "global.peak_mb",
        "global.allocs",
        "global.alloc_mb",
        "global.heap_mb",
        "dynamic.peak_mb",
        "dynamic.allocs",
        "dynamic.heap_mb",
        "container.decode_allocs",
        "read.allocs_per_query",
        "read.alloc_bytes_per_query",
    ];
    for w in Workload::ALL {
        for (trace, names) in [(false, &e2e[..]), (true, &layers[..])] {
            let a = run(w, 42, 1, trace);
            let b = run(w, 42, 1, trace);
            assert_eq!(
                a.tallies.total().failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                a.notes
            );
            let (va, vb) = (values(&a.metrics, names), values(&b.metrics, names));
            assert!(
                va.len() >= names.len(),
                "{} trace={trace}: {va:?}",
                w.name()
            );
            assert_eq!(va, vb, "{} trace={trace}", w.name());
        }
    }
}
