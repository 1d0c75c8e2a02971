//! Telemetry differential for the serving layer: driving the same
//! deterministic workload with a trace-recording session active must
//! produce bit-for-bit the same checksum as running it with telemetry
//! idle. Spans observe the serving pipeline; they must never steer it.
//!
//! Runs under the CI `SKYLINE_THREADS ∈ {0, 1, 4}` matrix like the stress
//! harness; the reader fan-out inside each workload is varied here too so
//! the sequential degeneration and the genuinely concurrent schedule are
//! both covered at every matrix point.

use skyline_core::geometry::Dataset;
use skyline_core::telemetry;
use skyline_serve::workload::{self, QueryMix, WorkloadSpec};
use skyline_serve::{ServerOptions, SkylineServer};

/// SplitMix64 step for deterministic dataset generation.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seed_server(n: usize, seed: u64) -> (SkylineServer, Vec<skyline_core::maintained::Handle>) {
    let mut state = seed;
    let mut next = move || {
        state = splitmix(state);
        state
    };
    let mut coords: Vec<(i64, i64)> = Vec::new();
    while coords.len() < n {
        let p = (4 * (next() % 161) as i64, 4 * (next() % 161) as i64);
        if !coords.contains(&p) {
            coords.push(p);
        }
    }
    let ds = Dataset::from_coords(coords).expect("generated grid coords are valid");
    let options = ServerOptions {
        with_global: true,
        rebuild_threshold: 8,
        ..ServerOptions::default()
    };
    SkylineServer::with_dataset(&ds, options)
}

/// One full workload run on a freshly seeded server; `record` wraps the
/// run in a telemetry session and returns the span count alongside the
/// checksum.
fn run_workload(seed: u64, readers: usize, record: bool) -> (u64, usize) {
    let (server, handles) = seed_server(48, seed);
    let spec = WorkloadSpec {
        readers,
        rounds: 3,
        queries_per_reader: 60,
        updates_per_round: 6,
        domain: 4 * 160,
        seed,
        mix: QueryMix::default(),
    };
    if record {
        telemetry::start_recording();
    }
    let report = workload::run(&server, &spec, &handles);
    let spans = if record {
        telemetry::stop_recording().len()
    } else {
        0
    };
    (report.checksum, spans)
}

/// The workload checksum is identical with a recording session active and
/// with telemetry idle, across reader fan-outs and seeds.
#[test]
fn workload_checksums_agree_with_recording_on_and_off() {
    for seed in [7u64, 0x5eed] {
        for readers in [1usize, 4] {
            let (plain, _) = run_workload(seed, readers, false);
            let (recorded, spans) = run_workload(seed, readers, true);
            assert_eq!(
                plain, recorded,
                "recording changed the workload checksum (seed {seed}, readers {readers})"
            );
            if cfg!(feature = "telemetry") {
                assert!(
                    spans > 0,
                    "a recorded serving run must emit spans (seed {seed}, readers {readers})"
                );
            } else {
                assert_eq!(spans, 0, "feature-off probes must be no-ops");
            }
        }
    }
}

/// The serving pipeline feeds the metrics registry: after a workload with
/// queries and publications, the serve-side counters are populated.
#[test]
fn serving_metrics_are_populated_by_a_workload() {
    if !cfg!(feature = "telemetry") {
        return;
    }
    // Do not reset the registry here: the sibling test runs concurrently in
    // this binary and its counts may interleave. Counters only grow, so a
    // lower-bound check is race-free.
    let (server, handles) = seed_server(32, 0xFACE);
    let spec = WorkloadSpec {
        readers: 2,
        rounds: 2,
        queries_per_reader: 40,
        updates_per_round: 5,
        domain: 4 * 160,
        seed: 0xFACE,
        mix: QueryMix::default(),
    };
    let report = workload::run(&server, &spec, &handles);
    assert!(report.queries > 0);
    // The workload publishes batches of five, past `REPAIR_BATCH`: full
    // builds. One more single update publishes by repair.
    server.insert(skyline_core::geometry::Point::new(3, 5));
    server.refresh();

    let snapshot = telemetry::metrics_snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert!(
        counter("workload.queries") >= report.queries,
        "workload.queries counter below this run's own query count"
    );
    assert!(counter("epoch.publish") >= 1, "publications went uncounted");
    assert!(counter("serve.repairs") >= 1, "repairs went uncounted");
    assert!(
        counter("serve.full_builds") >= 1,
        "full builds went uncounted"
    );
    let rebuild_us = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "serve.rebuild_us")
        .expect("rebuild latency histogram must exist after a publication");
    assert!(rebuild_us.count >= 1);
}
