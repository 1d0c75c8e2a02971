//! Regenerates every table/figure of the reconstructed evaluation (DESIGN.md
//! experiments E1–E15) and prints them as Markdown. Run with:
//!
//! ```text
//! cargo run -p skyline-bench --release --bin experiments             # all
//! cargo run -p skyline-bench --release --bin experiments -- e1 e3   # subset
//! cargo run -p skyline-bench --release --bin experiments -- \
//!     e11 --profile smoke --json BENCH_PR3.json --gate              # CI gate
//! cargo run -p skyline-bench --release --bin experiments -- \
//!     e13 --profile smoke --json BENCH_PR6.json --gate              # SLO gate
//! cargo run -p skyline-bench --release --bin experiments -- \
//!     e14 --profile smoke --json BENCH_PR9.json --gate              # cold start
//! cargo run -p skyline-bench --release --bin experiments -- \
//!     e15 --profile smoke --json BENCH_PR10.json --gate             # memory
//! ```
//!
//! `--gate` checks the rows of [`skyline_bench::gate::TABLE`] that the
//! selected experiments arm, with one evaluator, and reports every
//! violation before exiting 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skyline_bench::gate;
use skyline_bench::json::{render_records, BenchRecord};
use skyline_bench::quantile::{percentile, PERCENTILE_LABELS};
use skyline_bench::{
    domain_dataset, fmt_ms, highd_dataset, sweep_dataset, time_interleaved, time_ms, time_stats,
};
use skyline_core::diagram::merge::{merge, quadrant_partition};
use skyline_core::dsg::DirectedSkylineGraph;
use skyline_core::dynamic::{self, DynamicEngine};
use skyline_core::geometry::{CellGrid, Dataset, Point};
use skyline_core::global;
use skyline_core::highd::HighDEngine;
use skyline_core::parallel::ParallelConfig;
use skyline_core::quadrant::{self, QuadrantEngine};
use skyline_core::query;
use skyline_core::telemetry::{self, MetricsSnapshot};
use skyline_data::Distribution;
use std::collections::BTreeMap;

const USAGE: &str = "\
Usage: experiments [EXPERIMENT...] [--profile smoke|full] [--json PATH] [--gate]

  EXPERIMENT       any of e1..e15 (default: run all experiments)
  --profile NAME   dataset sizes for e11/e12/e13/e14: 'full' (default) or
                   'smoke' (CI-sized)
  --json PATH      write the machine-readable bench records collected this run
                   (the BENCH_PR3.json schema) to PATH
  --gate           check every bound the selected experiments arm and report
                   ALL violations before exiting 1: the 1.25x parallel
                   regression ratio and, on e11, the t4/t1 efficiency
                   grades (pairs with both legs under 5 ms are exempt), the
                   E13 open-loop SLOs on lanes = 0 rows, the E14 cold-start
                   floor (container load >= 10x faster than rebuild at
                   n >= 400), and the E15 memory bounds (t=4 peak bytes
                   within 1.25x of t=0, retained bytes per cell <= 128)
  --telemetry      capture the telemetry metrics registry around every
                   e11/e12/e13 configuration and embed the counter readings in
                   the JSON records, and time each e11 configuration with
                   span recording off and on, alternately; with --gate, a
                   recording-on run may cost at most 5% (+0.5 ms) over
                   its recording-off run";

/// Dataset sizes for the E11 sweep: `Full` reproduces the committed
/// `BENCH_PR3.json`; `Smoke` is small enough for a per-push CI job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Profile {
    Smoke,
    Full,
}

/// Parsed command line; parsing is exhaustive — anything unrecognized is an
/// error, not silently ignored.
struct Options {
    experiments: Vec<String>,
    profile: Profile,
    json_path: Option<String>,
    gate: bool,
    telemetry: bool,
}

const EXPERIMENT_NAMES: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options {
            experiments: Vec::new(),
            profile: Profile::Full,
            json_path: None,
            gate: false,
            telemetry: false,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let lower = arg.to_lowercase();
            match lower.as_str() {
                "--profile" => {
                    let value = args.next().ok_or("--profile needs a value")?;
                    opts.profile = match value.to_lowercase().as_str() {
                        "smoke" => Profile::Smoke,
                        "full" => Profile::Full,
                        other => return Err(format!("unknown profile '{other}'")),
                    };
                }
                "--json" => {
                    opts.json_path = Some(args.next().ok_or("--json needs a path")?);
                }
                "--gate" => opts.gate = true,
                "--telemetry" => opts.telemetry = true,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                name if EXPERIMENT_NAMES.contains(&name) => {
                    opts.experiments.push(name.to_string());
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(opts)
    }
}

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let want =
        |name: &str| opts.experiments.is_empty() || opts.experiments.iter().any(|a| a == name);

    println!("# Experiment run (skyline-diagram reconstruction of ICDE'18)\n");
    if want("e1") {
        e1_quadrant_construction();
    }
    if want("e2") {
        e2_domain_size();
    }
    if want("e3") {
        e3_dynamic_construction();
    }
    if want("e4") {
        e4_highd_construction();
    }
    if want("e5") {
        e5_diagram_statistics();
    }
    if want("e6") {
        e6_query_time();
    }
    if want("e7") {
        e7_global_construction();
    }
    if want("e8") {
        e8_ablations();
    }
    if want("e9") {
        e9_applications();
    }
    if want("e10") {
        e10_extensions();
    }
    let mut records = Vec::new();
    if want("e11") {
        records.extend(e11_parallel_scalability(opts.profile, opts.telemetry));
    }
    if want("e12") {
        records.extend(e12_serving_throughput(opts.profile, opts.telemetry));
    }
    if want("e13") {
        records.extend(e13_open_loop(opts.profile, opts.telemetry));
    }
    if want("e14") {
        records.extend(e14_cold_start(opts.profile));
    }
    if want("e15") {
        records.extend(e15_memory(opts.profile));
    }
    // The passes that produced records, which arm the gate rows.
    let mut ran: Vec<&str> = EXPERIMENT_NAMES.into_iter().filter(|e| want(e)).collect();
    if opts.telemetry && (want("e11") || want("e12") || want("e13")) {
        records.extend(telemetry_overhead(opts.profile));
        ran.push("telemetry");
    }

    // The artifact write and the gate append to one failure list, so a
    // single run reports every failure rather than just the first.
    let mut failures: Vec<String> = Vec::new();
    if let Some(path) = &opts.json_path {
        match std::fs::write(path, render_records(&records)) {
            Ok(()) => eprintln!("wrote {} records to {path}", records.len()),
            Err(err) => failures.push(format!("cannot write bench records to {path}: {err}")),
        }
    }
    if opts.gate {
        let mut rows = Vec::new();
        for row in gate::TABLE {
            if !row.armed_by.iter().any(|e| ran.contains(e)) {
                continue;
            }
            if row.needs_allocator && !telemetry::mem::enabled() {
                eprintln!("gate: {} skipped (mem-telemetry compiled out)", row.name);
                continue;
            }
            rows.push(*row);
        }
        let host_width = skyline_core::parallel::available_threads();
        match gate::evaluate(&rows, &records, host_width) {
            Ok(checked) => {
                let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
                eprintln!(
                    "gate: {checked} checks honored by {} on a {host_width}-thread host",
                    names.join(", ")
                );
            }
            Err(violations) => failures.extend(violations),
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("gate violation: {f}");
        }
        eprintln!("{} gate violation(s)", failures.len());
        std::process::exit(1);
    }
}

/// Opens an observed interval: re-seats the allocator peak so the
/// interval's `mem.peak_bytes` is its own, and snapshots the metrics.
fn observe() -> MetricsSnapshot {
    telemetry::mem::reseat_peak();
    telemetry::metrics_snapshot()
}

/// The metrics that moved since `before` (an [`observe`] snapshot) as
/// sorted `(name, value)` pairs for embedding in bench records: every
/// counter, plus per-histogram `.count`/`.sum` keys.
fn metric_pairs(before: &MetricsSnapshot) -> Vec<(String, u64)> {
    let snap = telemetry::delta(before, &telemetry::metrics_snapshot());
    let mut pairs: Vec<(String, u64)> = snap
        .counters
        .iter()
        .map(|c| (c.name.to_string(), c.value))
        .collect();
    for h in &snap.histograms {
        pairs.push((format!("{}.count", h.name), h.count));
        pairs.push((format!("{}.sum", h.name), h.sum));
    }
    pairs.sort();
    pairs
}

/// Folds one repetition's [`metric_pairs`] into its record's total: totals
/// add up, as over one interval spanning every repetition, and the two
/// allocator levels keep their highest reading.
fn accumulate(total: &mut BTreeMap<String, u64>, rep: Vec<(String, u64)>) {
    for (name, value) in rep {
        let level = matches!(name.as_str(), "mem.live_bytes" | "mem.peak_bytes");
        let slot = total.entry(name).or_insert(0);
        *slot = if level {
            value.max(*slot)
        } else {
            value + *slot
        };
    }
}

/// The recording on/off legs behind the `--telemetry --gate` overhead
/// bound: each E11 configuration built sequentially with span recording
/// off and on, the two legs alternating rep by rep. Each on-leg rep is a
/// whole recording session, its start and drain included. Records come
/// in `telemetry` experiment rows named `<algorithm>/off` and
/// `<algorithm>/on`.
fn telemetry_overhead(profile: Profile) -> Vec<BenchRecord> {
    println!("## Telemetry overhead (recording on vs off, sequential)\n");
    println!("| algorithm | n | off | on | spans |");
    println!("|---|---|---|---|---|");
    let threads = 2;
    let cfg = ParallelConfig::with_threads(threads).cap_to_hardware();
    let mut records = Vec::new();
    for config in scalability_configs(profile) {
        let ds = sweep_dataset(config.n, config.distribution);
        let mut spans = 0;
        let (off, on) = time_interleaved(
            config.reps,
            || (config.build)(&ds, &cfg),
            || {
                telemetry::start_recording();
                (config.build)(&ds, &cfg);
                spans = telemetry::stop_recording().len();
            },
        );
        println!(
            "| {} | {} | {} | {} | {spans} |",
            config.algorithm,
            config.n,
            fmt_ms(off.min_ms),
            fmt_ms(on.min_ms),
        );
        for (leg, stats) in [("off", off), ("on", on)] {
            records.push(BenchRecord {
                experiment: "telemetry".to_string(),
                algorithm: format!("{}/{leg}", config.algorithm),
                n: config.n,
                s: 10 * config.n as i64,
                d: 2,
                distribution: config.distribution.name().to_string(),
                threads,
                reps: config.reps,
                min_ms: stats.min_ms,
                median_ms: stats.median_ms,
                metrics: Vec::new(),
            });
        }
    }
    println!();
    records
}

/// E14 — cold-start latency: building the full index from raw points versus
/// loading the snapshot container ([`skyline_core::container`]) written by
/// that same build. Both paths end in an identical, query-ready
/// [`skyline_core::index::SkylineIndex`]; the container rows measure the
/// bounds-checked, checksum-validated decode that `skydiag load` and
/// [`skyline_serve::SkylineServer::from_container`] run on startup. All
/// rows are sequential (`threads = 0`): the decode path is single-threaded
/// by design. The rebuild and load legs alternate rep by rep, so a change
/// in the host's speed lands on both sides of the gated ratio. The
/// `mem.container.bytes` metric records the file size per configuration
/// (deterministic, so committed artifacts stay byte-stable).
fn e14_cold_start(profile: Profile) -> Vec<BenchRecord> {
    use skyline_core::container;
    use skyline_core::index::SkylineIndex;
    use skyline_core::maintained::Handle;

    // Quadrant+global sweep sizes, the small dynamic-diagram size (the
    // O(n^4) subcell grid keeps it tiny), and repetitions per measurement.
    let (sizes, dynamic_n, reps): (Vec<usize>, usize, usize) = match profile {
        Profile::Smoke => (vec![200, 400], 30, 2),
        Profile::Full => (vec![400, 800], 60, 3),
    };
    println!(
        "## E14 — cold start: rebuild from points vs container load ({} profile)\n",
        match profile {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    );
    println!("| configuration | n | rebuild | load | speedup | container size |");
    println!("|---|---|---|---|---|---|");

    let mut records = Vec::new();
    let mut run_case = |family: &str, n: usize, with_dynamic: bool| {
        let ds = sweep_dataset(n, Distribution::Independent);
        let build = || {
            SkylineIndex::builder()
                .with_global(true)
                .with_dynamic(with_dynamic)
                .build(&ds)
        };
        let index = build();
        let handles: Vec<Handle> = (0..ds.len() as u64).map(Handle).collect();
        let bytes = container::encode_index(&index, &handles);
        let (rebuild, load) = time_interleaved(reps, build, || {
            container::decode_index(&bytes).expect("fresh container bytes must decode")
        });
        println!(
            "| {family} | {n} | {} | {} | {:.1}x | {} B |",
            fmt_ms(rebuild.min_ms),
            fmt_ms(load.min_ms),
            rebuild.min_ms / load.min_ms,
            bytes.len(),
        );
        for (leg, stats) in [("rebuild", &rebuild), ("load", &load)] {
            records.push(BenchRecord {
                experiment: "e14".to_string(),
                algorithm: format!("{family}/{leg}"),
                n,
                s: 10 * n as i64,
                d: 2,
                distribution: Distribution::Independent.name().to_string(),
                threads: 0,
                reps,
                min_ms: stats.min_ms,
                median_ms: stats.median_ms,
                metrics: vec![("mem.container.bytes".to_string(), bytes.len() as u64)],
            });
        }
    };
    for &n in &sizes {
        run_case("coldstart", n, false);
    }
    run_case("coldstart-dynamic", dynamic_n, true);
    println!();
    records
}

/// E15 — memory scaling: peak working set, allocation churn, and retained
/// arena bytes per cell across the three diagram families at threads
/// {0, 4}, plus the per-snapshot serve footprint under the E12-style
/// workload. Byte metrics come from the `mem-telemetry` counting
/// allocator (all zeros when it is compiled out — the table says so) and
/// the `heap_bytes()` arena accessors; they ride in the same bench-record
/// JSON schema as the timing experiments (committed as `BENCH_PR10.json`).
///
/// Metric keys per build row: `mem.peak_bytes` (peak-minus-baseline delta
/// across the build, the peak-RSS proxy), `mem.alloc_bytes`/`mem.allocs`
/// (allocation churn), `mem.heap_bytes` (retained arena estimate),
/// `mem.cells`, `mem.bytes_per_cell`, and the non-zero per-phase
/// `mem.phase.*.alloc_bytes` attribution. Snapshot rows add
/// `mem.snapshot_bytes`.
fn e15_memory(profile: Profile) -> Vec<BenchRecord> {
    use skyline_core::telemetry::mem;
    use skyline_serve::{QueryMix, ServerOptions, SkylineServer, WorkloadSpec};

    let (sizes, dynamic_n): (Vec<usize>, usize) = match profile {
        Profile::Smoke => (vec![100, 200], 10),
        Profile::Full => (vec![400, 800], 40),
    };
    println!(
        "## E15 — memory scaling ({} profile, counting allocator {})\n",
        match profile {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        },
        if mem::enabled() {
            "on"
        } else {
            "off (all byte columns read zero)"
        },
    );
    println!("| family | n | threads | peak bytes | alloc churn | retained | cells | B/cell |");
    println!("|---|---|---|---|---|---|---|---|");

    let mut records = Vec::new();

    // One timed build per configuration: bytes are the measurand here, and
    // repeating the build would fold the first run's freed scratch into
    // the next run's peak baseline. `observe` re-seats the peak at the
    // current live level, so `peak - live_before` is the build's own
    // high-water contribution (the peak-RSS proxy).
    let mut run_build =
        |family: &str,
         n: usize,
         threads: usize,
         build: &dyn Fn(&Dataset, &ParallelConfig) -> (usize, usize)| {
            let ds = sweep_dataset(n, Distribution::Independent);
            let cfg = ParallelConfig::with_threads(threads).cap_to_hardware();
            let before = observe();
            let start_ns = telemetry::now_ns();
            let (heap_bytes, cells) = build(&ds, &cfg);
            let elapsed_ms = telemetry::ms_since(start_ns);
            let moved = telemetry::delta(&before, &telemetry::metrics_snapshot());
            let peak_delta = moved
                .counter("mem.peak_bytes")
                .saturating_sub(before.counter("mem.live_bytes"));
            let alloc_bytes = moved.counter("mem.alloc_bytes");
            let bytes_per_cell = heap_bytes as u64 / cells.max(1) as u64;
            println!(
            "| {family} | {n} | {threads} | {peak_delta} | {alloc_bytes} | {heap_bytes} | {cells} | {bytes_per_cell} |",
        );
            let mut metrics = vec![
                ("mem.peak_bytes".to_string(), peak_delta),
                ("mem.alloc_bytes".to_string(), alloc_bytes),
                ("mem.allocs".to_string(), moved.counter("mem.allocs")),
                ("mem.heap_bytes".to_string(), heap_bytes as u64),
                ("mem.cells".to_string(), cells as u64),
                ("mem.bytes_per_cell".to_string(), bytes_per_cell),
            ];
            metrics.extend(phase_alloc_bytes(&moved));
            records.push(BenchRecord {
                experiment: "e15".to_string(),
                algorithm: family.to_string(),
                n,
                s: 10 * n as i64,
                d: 2,
                distribution: Distribution::Independent.name().to_string(),
                threads,
                reps: 1,
                min_ms: elapsed_ms,
                median_ms: elapsed_ms,
                metrics,
            });
        };

    for &threads in &[0usize, 4] {
        for &n in &sizes {
            run_build("quadrant/sweeping", n, threads, &|ds, cfg| {
                let d = QuadrantEngine::Sweeping.build_with(ds, cfg);
                (d.heap_bytes(), d.grid().cell_count())
            });
            // The default sweeping engine on both quadrant legs: the
            // scanning engine's band-parallel variant snapshots its row
            // frontier per band, which inflates t>0 peaks by ~1.3x on
            // purpose (band independence) and would trip a guard meant
            // for *regressions* (see EXPERIMENTS.md E15).
            run_build("global/sweeping", n, threads, &|ds, cfg| {
                let d = global::build_with(ds, QuadrantEngine::Sweeping, cfg);
                (d.heap_bytes(), d.grid().cell_count())
            });
        }
        run_build("dynamic/scanning", dynamic_n, threads, &|ds, cfg| {
            let d = DynamicEngine::Scanning.build_with(ds, cfg);
            (d.heap_bytes(), d.grid().subcell_count())
        });
    }

    // Per-snapshot footprint under the E12 workload shape: one sequential
    // server, the standard query/update mix, then the published snapshot's
    // retained bytes (index arenas + handle table + handle arenas) — the
    // number serve-side retention budgeting multiplies by snapshot count.
    let (serve_n, queries_total, rounds, updates) = match profile {
        Profile::Smoke => (200usize, 2_000usize, 4usize, 4usize),
        Profile::Full => (400, 8_000, 8, 8),
    };
    let ds = sweep_dataset(serve_n, Distribution::Independent);
    let family = "serve/snapshot";
    let before = observe();
    let start_ns = telemetry::now_ns();
    let options = ServerOptions {
        with_global: true,
        parallel: ParallelConfig::sequential(),
        ..ServerOptions::default()
    };
    let (server, handles) = SkylineServer::with_dataset(&ds, options);
    let spec = WorkloadSpec {
        readers: 0,
        rounds,
        queries_per_reader: queries_total / rounds,
        updates_per_round: updates,
        domain: 10 * serve_n as i64,
        seed: skyline_bench::BASE_SEED,
        mix: QueryMix::default(),
    };
    let report = skyline_serve::workload::run(&server, &spec, &handles);
    let elapsed_ms = telemetry::ms_since(start_ns);
    let moved = telemetry::delta(&before, &telemetry::metrics_snapshot());
    let snapshot_bytes = server.reader().snapshot().heap_bytes();
    let peak_delta = moved
        .counter("mem.peak_bytes")
        .saturating_sub(before.counter("mem.live_bytes"));
    let alloc_bytes = moved.counter("mem.alloc_bytes");
    println!(
        "| {family} | {serve_n} | 0 | {peak_delta} | {alloc_bytes} | {snapshot_bytes} | - | - |"
    );
    let mut metrics = vec![
        ("mem.peak_bytes".to_string(), peak_delta),
        ("mem.alloc_bytes".to_string(), alloc_bytes),
        ("mem.allocs".to_string(), moved.counter("mem.allocs")),
        ("mem.snapshot_bytes".to_string(), snapshot_bytes as u64),
        ("workload.checksum".to_string(), report.checksum),
    ];
    metrics.extend(phase_alloc_bytes(&moved));
    records.push(BenchRecord {
        experiment: "e15".to_string(),
        algorithm: family.to_string(),
        n: serve_n,
        s: 10 * serve_n as i64,
        d: 2,
        distribution: Distribution::Independent.name().to_string(),
        threads: 0,
        reps: 1,
        min_ms: elapsed_ms,
        median_ms: elapsed_ms,
        metrics,
    });
    println!();
    records
}

/// The `mem.phase.*.alloc_bytes` rows of an E15 delta, for the phases
/// that allocated.
fn phase_alloc_bytes(moved: &MetricsSnapshot) -> Vec<(String, u64)> {
    telemetry::mem::PHASE_METRIC_NAMES
        .iter()
        .map(|&(alloc_bytes, ..)| (alloc_bytes.to_string(), moved.counter(alloc_bytes)))
        .filter(|&(_, bytes)| bytes > 0)
        .collect()
}

/// E13: open-loop tail latency. Arrivals follow a fixed-rate schedule and
/// latency is measured from the *scheduled* arrival, so queueing delay is
/// charged to the server (coordinated-omission-safe) — see
/// `skyline_serve::openloop`. Sweeps arrival rate × lane count; the
/// `lanes = 0` rows are the queue-free SLO reference, and the digest column
/// is bit-identical across lane counts by construction. Records use
/// `threads` for the lane count and embed interpolated per-family
/// percentiles (µs) as metrics, which the `slo-*` gate rows check.
fn e13_open_loop(profile: Profile, capture_telemetry: bool) -> Vec<BenchRecord> {
    use skyline_serve::{run_open_loop, OpenLoopSpec, ServerOptions, SkylineServer};

    // (rate q/s, arrivals): the schedule length arrivals/rate stays around
    // a quarter second so the smoke profile fits a per-push CI job.
    let (n, points, lanes_sweep, reps): (usize, Vec<(u64, u64)>, Vec<usize>, usize) = match profile
    {
        Profile::Smoke => (200, vec![(2_000, 500), (8_000, 1_000)], vec![0, 4], 2),
        Profile::Full => (400, vec![(2_000, 2_000), (8_000, 4_000)], vec![0, 1, 4], 3),
    };
    println!(
        "## E13 — open-loop tail latency ({} profile, n = {n})\n",
        match profile {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    );
    println!("| rate (q/s) | lanes | achieved | p50 | p95 | p99 | p999 | max | checksum |");
    println!("|---|---|---|---|---|---|---|---|---|");

    let ds = sweep_dataset(n, Distribution::Independent);
    let mut records = Vec::new();
    for &(rate, arrivals) in &points {
        for &lanes in &lanes_sweep {
            let spec = OpenLoopSpec {
                lanes,
                rate,
                arrivals,
                domain: 10 * n as i64,
                seed: skyline_bench::BASE_SEED,
                ..OpenLoopSpec::default()
            };
            let before = capture_telemetry.then(observe);
            let mut elapsed: Vec<f64> = Vec::with_capacity(reps);
            let mut best: Option<skyline_serve::OpenLoopReport> = None;
            for _ in 0..reps {
                let options = ServerOptions {
                    with_global: true,
                    parallel: ParallelConfig::sequential(),
                    ..ServerOptions::default()
                };
                let (server, _handles) = SkylineServer::with_dataset(&ds, options);
                let report = run_open_loop(&server, &spec);
                elapsed.push(report.elapsed_ms);
                match &best {
                    Some(b) if b.elapsed_ms <= report.elapsed_ms => {}
                    _ => best = Some(report),
                }
            }
            let report = best.expect("at least one repetition ran");
            elapsed.sort_by(|a, b| a.total_cmp(b));
            let mut metrics = before.as_ref().map_or_else(Vec::new, metric_pairs);
            let mut tails = |name: &str, hist: &skyline_serve::LatencyHistogram| {
                for (label, p) in PERCENTILE_LABELS {
                    metrics.push((
                        format!("{name}.{label}_us"),
                        percentile(&hist.buckets, p) / 1_000,
                    ));
                }
            };
            for (name, hist) in &report.families {
                tails(name, hist);
            }
            tails("overall", &report.overall);
            metrics.push(("checksum".to_string(), report.checksum));
            metrics.sort();
            let pct = |p: f64| -> f64 { percentile(&report.overall.buckets, p) as f64 / 1_000.0 };
            println!(
                "| {rate} | {lanes} | {:.0}/s | {:.1}us | {:.1}us | {:.1}us | {:.1}us | {:.1}us | {:016x} |",
                report.achieved_rate(),
                pct(50.0),
                pct(95.0),
                pct(99.0),
                pct(99.9),
                report.overall.max_ns as f64 / 1_000.0,
                report.checksum,
            );
            records.push(BenchRecord {
                experiment: "e13".to_string(),
                algorithm: format!("openloop/r{rate}"),
                n,
                s: 10 * n as i64,
                d: 2,
                distribution: Distribution::Independent.name().to_string(),
                threads: lanes,
                reps,
                min_ms: elapsed[0],
                median_ms: elapsed[elapsed.len() / 2],
                metrics,
            });
        }
    }
    println!();
    records
}

/// A diagram build parameterized only by the parallel configuration, over a
/// fixed sweep dataset.
type Build = Box<dyn Fn(&Dataset, &ParallelConfig)>;

/// One E11 configuration.
struct ScalabilityConfig {
    algorithm: &'static str,
    n: usize,
    distribution: Distribution,
    reps: usize,
    build: Build,
}

fn scalability_configs(profile: Profile) -> Vec<ScalabilityConfig> {
    let quadrant = |engine: QuadrantEngine| -> Build {
        Box::new(move |ds, cfg| {
            let _ = std::hint::black_box(engine.build_with(ds, cfg));
        })
    };
    let global_with = |engine: QuadrantEngine| -> Build {
        Box::new(move |ds, cfg| {
            let _ = std::hint::black_box(global::build_with(ds, engine, cfg));
        })
    };
    let dynamic_with = |engine: DynamicEngine| -> Build {
        Box::new(move |ds, cfg| {
            let _ = std::hint::black_box(engine.build_with(ds, cfg));
        })
    };
    let cfg = |algorithm, n, distribution, reps, build| ScalabilityConfig {
        algorithm,
        n,
        distribution,
        reps,
        build,
    };

    use Distribution::{Anticorrelated, Independent};
    match profile {
        Profile::Full => vec![
            cfg(
                "global/scanning",
                400,
                Independent,
                2,
                global_with(QuadrantEngine::Scanning),
            ),
            cfg(
                "global/scanning",
                800,
                Independent,
                3,
                global_with(QuadrantEngine::Scanning),
            ),
            cfg(
                "global/scanning",
                800,
                Anticorrelated,
                2,
                global_with(QuadrantEngine::Scanning),
            ),
            cfg(
                "global/sweeping",
                800,
                Independent,
                2,
                global_with(QuadrantEngine::Sweeping),
            ),
            cfg(
                "quadrant/scanning",
                800,
                Independent,
                3,
                quadrant(QuadrantEngine::Scanning),
            ),
            cfg(
                "quadrant/sweeping",
                800,
                Independent,
                3,
                quadrant(QuadrantEngine::Sweeping),
            ),
            cfg(
                "dynamic/scanning",
                40,
                Independent,
                2,
                dynamic_with(DynamicEngine::Scanning),
            ),
            cfg(
                "dynamic/subset",
                30,
                Independent,
                2,
                dynamic_with(DynamicEngine::Subset),
            ),
        ],
        Profile::Smoke => vec![
            cfg(
                "global/scanning",
                100,
                Independent,
                5,
                global_with(QuadrantEngine::Scanning),
            ),
            cfg(
                "global/sweeping",
                100,
                Independent,
                5,
                global_with(QuadrantEngine::Sweeping),
            ),
            cfg(
                "quadrant/scanning",
                200,
                Independent,
                5,
                quadrant(QuadrantEngine::Scanning),
            ),
            cfg(
                "quadrant/sweeping",
                200,
                Independent,
                5,
                quadrant(QuadrantEngine::Sweeping),
            ),
            cfg(
                "dynamic/scanning",
                10,
                Independent,
                3,
                dynamic_with(DynamicEngine::Scanning),
            ),
            cfg(
                "dynamic/subset",
                10,
                Independent,
                3,
                dynamic_with(DynamicEngine::Subset),
            ),
        ],
    }
}

/// E11: construction-time scalability over the `SKYLINE_THREADS` sweep.
/// `threads = 0` is the historical sequential reference path; `threads >= 1`
/// selects the restructured parallel engines (worker count capped at the
/// hardware width, see `skyline_core::parallel`). Returns the machine-
/// readable records backing `BENCH_PR3.json`.
fn e11_parallel_scalability(profile: Profile, capture_telemetry: bool) -> Vec<BenchRecord> {
    let threads = [0usize, 1, 2, 4];
    println!(
        "## E11 — parallel scalability ({} profile)\n",
        match profile {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    );
    println!("| algorithm | dist | n | t=0 (seq) | t=1 | t=2 | t=4 | speedup (t=4) |");
    println!("|---|---|---|---|---|---|---|---|");

    let mut records = Vec::new();
    for config in scalability_configs(profile) {
        let ds = sweep_dataset(config.n, config.distribution);
        let mut row = format!(
            "| {} | {} | {} |",
            config.algorithm,
            config.distribution.name(),
            config.n
        );
        let mut seq_min = f64::NAN;
        let mut t4_min = f64::NAN;
        for t in threads {
            // Capped, not exact: a t=4 row on a 2-core runner measures the
            // 2-worker configuration, not oversubscription thrash. The
            // efficiency gate grades the resulting ratios by the same
            // hardware width (`available_threads`).
            let cfg = ParallelConfig::with_threads(t).cap_to_hardware();
            let before = capture_telemetry.then(observe);
            let stats = time_stats(config.reps, || (config.build)(&ds, &cfg));
            let metrics = before.as_ref().map_or_else(Vec::new, metric_pairs);
            if t == 0 {
                seq_min = stats.min_ms;
            }
            if t == 4 {
                t4_min = stats.min_ms;
            }
            row.push_str(&format!(" {} |", fmt_ms(stats.min_ms)));
            records.push(BenchRecord {
                experiment: "e11".to_string(),
                algorithm: config.algorithm.to_string(),
                n: config.n,
                s: 10 * config.n as i64,
                d: 2,
                distribution: config.distribution.name().to_string(),
                threads: t,
                reps: config.reps,
                min_ms: stats.min_ms,
                median_ms: stats.median_ms,
                metrics,
            });
        }
        row.push_str(&format!(" {:.2}x |", seq_min / t4_min));
        println!("{row}");
    }
    println!();
    records
}

/// E12: concurrent serving throughput over the reader sweep. The *total*
/// query work is held fixed while the reader count grows, so `threads = 0`
/// (readers inline on the caller) is the sequential baseline the `--gate`
/// compares against, exactly like E11. Each repetition serves a fresh
/// [`skyline_serve::SkylineServer`] (construction excluded from timing);
/// every round applies writer updates behind a `refresh()` barrier before
/// the readers fan out, so the measured loop includes epoch publication.
/// The reader counts are timed round-robin within each repetition, and a
/// record's `--telemetry` metrics sum the deltas of its repetitions.
/// Records use `threads` for the reader count.
fn e12_serving_throughput(profile: Profile, capture_telemetry: bool) -> Vec<BenchRecord> {
    use skyline_serve::{QueryMix, ServerOptions, SkylineServer, WorkloadSpec};

    // (n, total queries, rounds, updates/round, reps); the totals divide
    // evenly by rounds × readers for every reader count in the sweep.
    let (n, queries_total, rounds, updates, reps) = match profile {
        Profile::Smoke => (200usize, 2_000usize, 4usize, 4usize, 3usize),
        Profile::Full => (400, 8_000, 8, 8, 3),
    };
    let readers_sweep = [0usize, 1, 2, 4];
    println!(
        "## E12 — serving throughput, fixed total work ({} profile, n = {n}, \
         {queries_total} queries, {updates} updates/round)\n",
        match profile {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    );
    println!("| algorithm | r=0 (inline) | r=1 | r=2 | r=4 | q/s (r=4) | arena hit rate (r=4) |");
    println!("|---|---|---|---|---|---|---|");

    let ds = sweep_dataset(n, Distribution::Independent);
    let algorithm = "serve";
    let counts = readers_sweep.len();
    let mut elapsed: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); counts];
    let mut totals: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); counts];
    let mut last_qps = 0.0;
    let mut last_hit_rate = None;
    // Reader counts round-robin inside each rep, starting one count later
    // every rep, so host drift over the sweep lands on every count alike.
    for rep in 0..reps {
        for k in 0..counts {
            let i = (rep + k) % counts;
            let readers = readers_sweep[i];
            let spec = WorkloadSpec {
                readers,
                rounds,
                queries_per_reader: queries_total / (rounds * readers.max(1)),
                updates_per_round: updates,
                domain: 10 * n as i64,
                seed: skyline_bench::BASE_SEED,
                mix: QueryMix::default(),
            };
            let before = capture_telemetry.then(observe);
            let options = ServerOptions {
                with_global: true,
                parallel: ParallelConfig::sequential(),
                ..ServerOptions::default()
            };
            // The server drops inside the observed interval, as it did
            // when the reps of one count ran back to back.
            let report = {
                let (server, handles) = SkylineServer::with_dataset(&ds, options);
                skyline_serve::workload::run(&server, &spec, &handles)
            };
            elapsed[i].push(report.elapsed_ms);
            if let Some(before) = &before {
                accumulate(&mut totals[i], metric_pairs(before));
            }
            if readers == 4 {
                last_qps = report.queries_per_sec();
                let arena = report.cache;
                last_hit_rate =
                    (arena.lookups() > 0).then(|| arena.hits as f64 / arena.lookups() as f64);
            }
        }
    }
    let mut row = format!("| {algorithm} |");
    let mut records = Vec::new();
    for ((readers, mut elapsed), metrics) in readers_sweep.into_iter().zip(elapsed).zip(totals) {
        elapsed.sort_by(|a, b| a.total_cmp(b));
        let min_ms = elapsed[0];
        let median_ms = elapsed[elapsed.len() / 2];
        row.push_str(&format!(" {} |", fmt_ms(min_ms)));
        records.push(BenchRecord {
            experiment: "e12".to_string(),
            algorithm: algorithm.to_string(),
            n,
            s: 10 * n as i64,
            d: 2,
            distribution: Distribution::Independent.name().to_string(),
            threads: readers,
            reps,
            min_ms,
            median_ms,
            metrics: metrics.into_iter().collect(),
        });
    }
    row.push_str(&match last_hit_rate {
        Some(rate) => format!(" {last_qps:.0} | {:.1}% |", 100.0 * rate),
        None => format!(" {last_qps:.0} | — |"),
    });
    println!("{row}");
    println!();
    records
}

/// E10: the extensions beyond the paper's text (DESIGN.md §2).
fn e10_extensions() {
    use skyline_core::skyband;

    println!("## E10 — extensions (independent data)\n");

    println!("### k-skyband diagram construction (n = 200)\n");
    println!("| k | baseline | incremental | avg band size (cell (0,0)) |");
    println!("|---|---|---|---|");
    let ds = sweep_dataset(200, Distribution::Independent);
    for k in [1u32, 2, 4, 8] {
        let b = time_ms(2, || skyband::build_baseline(&ds, k));
        let i = time_ms(2, || skyband::build_incremental(&ds, k));
        let d = skyband::build_incremental(&ds, k);
        println!(
            "| {k} | {} | {} | {} |",
            fmt_ms(b),
            fmt_ms(i),
            d.result((0, 0)).len()
        );
    }

    println!("\n### literal Algorithm 4 vs corner-key sweeping (general position)\n");
    println!("| n | algorithm4 (vertex walks) | sweeping (full diagram) |");
    println!("|---|---|---|");
    for n in [100usize, 200, 400] {
        // General position: the sweep datasets use domain 10n, which keeps
        // ties rare but not impossible; retry seeds until tie-free.
        let mut seed_offset = 0;
        let ds = loop {
            let candidate = skyline_data::DatasetSpec {
                n,
                dims: 2,
                domain: 1000 * n as i64,
                distribution: Distribution::Independent,
                seed: skyline_bench::BASE_SEED + seed_offset,
            }
            .build_2d();
            if skyline_core::quadrant::algorithm4::build(&candidate).is_ok() {
                break candidate;
            }
            seed_offset += 1;
        };
        let a4 = time_ms(2, || {
            skyline_core::quadrant::algorithm4::build(&ds).unwrap()
        });
        let sw = time_ms(2, || QuadrantEngine::Sweeping.build(&ds));
        println!("| {n} | {} | {} |", fmt_ms(a4), fmt_ms(sw));
    }

    println!("\n### d-dimensional global diagram (n = 12)\n");
    println!("| d | build (DSG reflections) |");
    println!("|---|---|");
    for d in [2usize, 3, 4] {
        let ds = highd_dataset(12, d, Distribution::Independent);
        let t = time_ms(2, || {
            skyline_core::highd::global::build(&ds, HighDEngine::DirectedSkylineGraph)
        });
        println!("| {d} | {} |", fmt_ms(t));
    }
    println!();
}

/// E9: the application layer — the paper's motivating use cases, measured.
fn e9_applications() {
    use skyline_apps::auth::{verify, AuthenticatedDiagram};
    use skyline_apps::continuous::trace_segment;
    use skyline_apps::pir::{private_skyline_query, PirServer};
    use skyline_apps::reverse::ReverseSkylineIndex;
    use skyline_apps::reverse_diagram::ReverseSkylineDiagram;
    use skyline_core::container;

    println!("## E9 — applications (independent data)\n");
    let ds = sweep_dataset(200, Distribution::Independent);
    let diagram = QuadrantEngine::Sweeping.build(&ds);
    let mut rng = StdRng::seed_from_u64(5);
    let lim = 2000i64;
    let queries: Vec<Point> = (0..1000)
        .map(|_| Point::new(rng.gen_range(0..lim), rng.gen_range(0..lim)))
        .collect();

    println!("| operation | configuration | time |");
    println!("|---|---|---|");

    let t = time_ms(3, || {
        queries
            .iter()
            .take(100)
            .map(|&q| {
                let b = Point::new((q.x + 977) % lim, (q.y + 463) % lim);
                trace_segment(&diagram, q, b).len()
            })
            .sum::<usize>()
    });
    println!(
        "| moving-query itinerary | 100 random segments, n = 200 | {} |",
        fmt_ms(t)
    );

    let auth = AuthenticatedDiagram::new(&ds, diagram.clone());
    let root = auth.root();
    let t = time_ms(3, || {
        queries
            .iter()
            .filter(|&&q| verify(&auth.query(&ds, q), &root))
            .count()
    });
    println!(
        "| authenticated query + verify | 1000 queries, n = 200 | {} |",
        fmt_ms(t)
    );
    let t = time_ms(2, || AuthenticatedDiagram::new(&ds, diagram.clone()));
    println!(
        "| Merkle tree construction | n = 200 diagram | {} |",
        fmt_ms(t)
    );

    let server = PirServer::new(&diagram);
    let params = server.client_params(&diagram);
    let t = time_ms(2, || {
        let mut rng = StdRng::seed_from_u64(11);
        queries
            .iter()
            .take(20)
            .map(|&q| private_skyline_query(&server, &server, &params, q, &mut rng).len())
            .sum::<usize>()
    });
    println!(
        "| 2-server XOR-PIR retrieval | 20 queries over {} records | {} |",
        params.n_records,
        fmt_ms(t)
    );

    let t = time_ms(2, || ReverseSkylineIndex::new(&ds));
    println!("| reverse-skyline index build | n = 200 | {} |", fmt_ms(t));
    let index = ReverseSkylineIndex::new(&ds);
    let t = time_ms(3, || {
        queries.iter().map(|&q| index.query(q).len()).sum::<usize>()
    });
    println!("| reverse-skyline queries | 1000 queries | {} |", fmt_ms(t));

    let small = sweep_dataset(12, Distribution::Independent);
    let t = time_ms(2, || ReverseSkylineDiagram::build(&small));
    let rd = ReverseSkylineDiagram::build(&small);
    println!(
        "| reverse-skyline *diagram* build | n = 12, {} cells, {} distinct | {} |",
        rd.cell_count(),
        rd.distinct_results(),
        fmt_ms(t)
    );

    let bytes = container::encode_cell_diagram(&ds, &diagram);
    let t = time_ms(3, || container::encode_cell_diagram(&ds, &diagram));
    println!(
        "| diagram container encode | n = 200 -> {:.1} KiB | {} |",
        bytes.len() as f64 / 1024.0,
        fmt_ms(t)
    );
    let t = time_ms(3, || container::decode_cell_diagram(&bytes).expect("valid"));
    println!(
        "| diagram container decode (validated) | same | {} |",
        fmt_ms(t)
    );
    println!();
}

/// E1: quadrant diagram construction time vs n, per distribution & engine.
fn e1_quadrant_construction() {
    println!("## E1 — quadrant diagram construction time vs n\n");
    let ns = [100usize, 200, 400, 800, 1600];
    for dist in Distribution::ALL {
        println!("### {} data\n", dist.name());
        println!("| n | baseline | dsg | scanning | sweeping |");
        println!("|---|---|---|---|---|");
        for &n in &ns {
            let ds = sweep_dataset(n, dist);
            let mut row = format!("| {n} |");
            for engine in QuadrantEngine::ALL {
                // The O(n³) engines get one repetition at the largest sizes.
                let reps = if n >= 800 { 1 } else { 2 };
                let skip_slow = n > 800 && engine == QuadrantEngine::Baseline;
                let cell = if skip_slow {
                    "—".to_string()
                } else {
                    fmt_ms(time_ms(reps, || engine.build(&ds)))
                };
                row.push_str(&format!(" {cell} |"));
            }
            println!("{row}");
        }
        println!();
    }
}

/// E2: effect of the per-dimension domain size s at fixed n.
fn e2_domain_size() {
    println!("## E2 — effect of domain size s (n = 400, independent data)\n");
    println!("| s | cells | baseline | dsg | scanning | sweeping |");
    println!("|---|---|---|---|---|---|");
    for s in [16i64, 64, 256, 1024, 4096] {
        let ds = domain_dataset(400, s, Distribution::Independent);
        let cells = CellGrid::new(&ds).cell_count();
        let mut row = format!("| {s} | {cells} |");
        for engine in QuadrantEngine::ALL {
            row.push_str(&format!(" {} |", fmt_ms(time_ms(2, || engine.build(&ds)))));
        }
        println!("{row}");
    }
    println!();
}

/// E3: dynamic diagram construction time vs n.
fn e3_dynamic_construction() {
    println!("## E3 — dynamic diagram construction time vs n (independent data)\n");
    println!("| n | subcells | baseline | subset | scanning |");
    println!("|---|---|---|---|---|");
    for n in [10usize, 20, 40, 60] {
        let ds = sweep_dataset(n, Distribution::Independent);
        let subcells = dynamic::SubcellGrid::new(&ds).subcell_count();
        let mut row = format!("| {n} | {subcells} |");
        for engine in DynamicEngine::ALL {
            let skip_slow = n > 40 && engine == DynamicEngine::Baseline;
            let cell = if skip_slow {
                "—".to_string()
            } else {
                fmt_ms(time_ms(1, || engine.build(&ds)))
            };
            row.push_str(&format!(" {cell} |"));
        }
        println!("{row}");
    }
    println!();
}

/// E4: high-dimensional construction vs d and vs n at d = 3.
fn e4_highd_construction() {
    println!("## E4 — high-dimensional construction (independent data)\n");
    println!("| d | n | cells | baseline | dsg | scanning | scanning-ie | sweeping |");
    println!("|---|---|---|---|---|---|---|---|");
    let configs = [(2usize, 20usize), (3, 20), (4, 20), (3, 10), (3, 40)];
    for (d, n) in configs {
        let ds = highd_dataset(n, d, Distribution::Independent);
        let grid = skyline_core::highd::OrthantGrid::new(&ds);
        let mut row = format!("| {d} | {n} | {} |", grid.cell_count());
        for engine in HighDEngine::ALL {
            row.push_str(&format!(" {} |", fmt_ms(time_ms(2, || engine.build(&ds)))));
        }
        println!("{row}");
    }
    println!();
}

/// E5: diagram size statistics — the polyomino/cell compression story.
fn e5_diagram_statistics() {
    println!("## E5 — diagram size statistics (sweeping engine)\n");
    println!("| dist | n | cells | polyominoes | poly/cell | distinct results | avg sky | max sky | interned ids |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for dist in Distribution::ALL {
        for n in [100usize, 400, 1600] {
            let ds = sweep_dataset(n, dist);
            let swept = quadrant::sweeping::build(&ds);
            let merged = merge(&swept);
            let stats = swept.stats();
            println!(
                "| {} | {} | {} | {} | {:.3} | {} | {:.2} | {} | {} |",
                dist.name(),
                n,
                stats.cell_count,
                merged.len(),
                merged.len() as f64 / stats.cell_count as f64,
                stats.distinct_results,
                stats.avg_result_len,
                stats.max_result_len,
                stats.interned_ids,
            );
        }
    }
    println!();
}

/// E6: query latency — precomputed diagram lookup vs from-scratch.
fn e6_query_time() {
    println!(
        "## E6 — query time: diagram lookup vs from-scratch (independent data, 10k queries)\n"
    );
    println!("| n | lookup (quadrant) | scratch (quadrant) | lookup (global) | scratch (global) | quadrant speedup |");
    println!("|---|---|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [100usize, 400, 1600] {
        let ds = sweep_dataset(n, Distribution::Independent);
        let lim = 10 * n as i64;
        let queries: Vec<Point> = (0..10_000)
            .map(|_| Point::new(rng.gen_range(0..lim), rng.gen_range(0..lim)))
            .collect();
        let quadrant_diag = QuadrantEngine::Sweeping.build(&ds);
        let global_diag = global::build(&ds, QuadrantEngine::Sweeping);

        let lookup_q = time_ms(3, || {
            queries
                .iter()
                .map(|&q| quadrant_diag.query(q).len())
                .sum::<usize>()
        });
        let scratch_q = time_ms(3, || {
            queries
                .iter()
                .map(|&q| query::quadrant_skyline(&ds, q).len())
                .sum::<usize>()
        });
        let lookup_g = time_ms(3, || {
            queries
                .iter()
                .map(|&q| global_diag.query(q).len())
                .sum::<usize>()
        });
        let scratch_g = time_ms(3, || {
            queries
                .iter()
                .map(|&q| query::global_skyline(&ds, q).len())
                .sum::<usize>()
        });
        println!(
            "| {n} | {} | {} | {} | {} | {:.0}x |",
            fmt_ms(lookup_q),
            fmt_ms(scratch_q),
            fmt_ms(lookup_g),
            fmt_ms(scratch_g),
            scratch_q / lookup_q,
        );
    }

    println!("\n(dynamic skyline, n = 60, 10k queries)\n");
    println!("| lookup (dynamic) | scratch (dynamic) | speedup |");
    println!("|---|---|---|");
    let ds = sweep_dataset(60, Distribution::Independent);
    let dyn_diag = DynamicEngine::Scanning.build(&ds);
    let queries: Vec<Point> = (0..10_000)
        .map(|_| Point::new(rng.gen_range(0..600), rng.gen_range(0..600)))
        .collect();
    let lookup = time_ms(3, || {
        queries
            .iter()
            .map(|&q| dyn_diag.query(q).len())
            .sum::<usize>()
    });
    let scratch = time_ms(3, || {
        queries
            .iter()
            .map(|&q| query::dynamic_skyline(&ds, q).len())
            .sum::<usize>()
    });
    println!(
        "| {} | {} | {:.0}x |",
        fmt_ms(lookup),
        fmt_ms(scratch),
        scratch / lookup
    );
    println!();
}

/// E7: global diagram construction (4 reflected runs + union) vs quadrant.
fn e7_global_construction() {
    println!("## E7 — global vs quadrant construction (sweeping engine)\n");
    println!("| dist | n | quadrant | global | ratio |");
    println!("|---|---|---|---|---|");
    for dist in Distribution::ALL {
        for n in [100usize, 400, 800] {
            let ds = sweep_dataset(n, dist);
            let q = time_ms(2, || QuadrantEngine::Sweeping.build(&ds));
            let g = time_ms(2, || global::build(&ds, QuadrantEngine::Sweeping));
            println!(
                "| {} | {} | {} | {} | {:.1}x |",
                dist.name(),
                n,
                fmt_ms(q),
                fmt_ms(g),
                g / q
            );
        }
    }
    println!();
}

/// E8: ablations of the design choices called out in DESIGN.md.
fn e8_ablations() {
    println!("## E8 — ablations\n");

    // (a) DSG engine: graph construction vs sweep.
    println!("### E8a — DSG engine: graph construction vs deletion sweep (independent)\n");
    println!("| n | build DSG | sweep only | total |");
    println!("|---|---|---|---|");
    for n in [200usize, 400, 800] {
        let ds = sweep_dataset(n, Distribution::Independent);
        let graph = time_ms(2, || DirectedSkylineGraph::new_2d(&ds));
        let dsg = DirectedSkylineGraph::new_2d(&ds);
        let sweep = time_ms(2, || {
            quadrant::dsg_algorithm::build_with_dsg(CellGrid::new(&ds), &dsg)
        });
        let total = time_ms(2, || QuadrantEngine::DirectedSkylineGraph.build(&ds));
        println!(
            "| {n} | {} | {} | {} |",
            fmt_ms(graph),
            fmt_ms(sweep),
            fmt_ms(total)
        );
    }

    // (b) High-d scanning: union form vs the paper's inclusion–exclusion.
    println!("\n### E8b — high-d scanning: union vs inclusion–exclusion (d = 3, independent)\n");
    println!("| n | union | inclusion–exclusion |");
    println!("|---|---|---|");
    for n in [10usize, 20, 40] {
        let ds = highd_dataset(n, 3, Distribution::Independent);
        let u = time_ms(2, || HighDEngine::Scanning.build(&ds));
        let ie = time_ms(2, || HighDEngine::ScanningInclusionExclusion.build(&ds));
        println!("| {n} | {} | {} |", fmt_ms(u), fmt_ms(ie));
    }

    // (c) Subset engine: global-diagram cost vs per-subcell cost.
    println!("\n### E8c — dynamic subset engine: global-diagram share (independent)\n");
    println!("| n | build global | subcells given global | total subset | baseline |");
    println!("|---|---|---|---|---|");
    for n in [10usize, 20, 40] {
        let ds = sweep_dataset(n, Distribution::Independent);
        let g = time_ms(2, || global::build(&ds, QuadrantEngine::Sweeping));
        let global_diag = global::build(&ds, QuadrantEngine::Sweeping);
        let rest = time_ms(1, || dynamic::subset::build_with_global(&ds, &global_diag));
        let total = time_ms(1, || DynamicEngine::Subset.build(&ds));
        let base = time_ms(1, || DynamicEngine::Baseline.build(&ds));
        println!(
            "| {n} | {} | {} | {} | {} |",
            fmt_ms(g),
            fmt_ms(rest),
            fmt_ms(total),
            fmt_ms(base)
        );
    }

    // (d) Polyominoes: the union–find merge vs the partition derived by
    // result, which is what an index holds.
    println!(
        "\n### E8d — quadrant polyominoes: union–find merge vs derived by result (independent)\n"
    );
    println!("| n | union–find | by result |");
    println!("|---|---|---|");
    for n in [200usize, 400, 800] {
        let ds = sweep_dataset(n, Distribution::Independent);
        let d = QuadrantEngine::Sweeping.build(&ds);
        let uf = time_ms(3, || merge(&d));
        let derived = time_ms(3, || quadrant_partition(&d));
        println!("| {n} | {} | {} |", fmt_ms(uf), fmt_ms(derived));
    }
    println!();
}
