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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skyline_bench::json::{render_records, BenchRecord};
use skyline_bench::quantile::{percentile, slo_violations, SloSpec, PERCENTILE_LABELS};
use skyline_bench::{domain_dataset, fmt_ms, highd_dataset, sweep_dataset, time_ms, time_stats};
use skyline_core::diagram::merge::{merge, merge_flood_fill};
use skyline_core::dsg::DirectedSkylineGraph;
use skyline_core::dynamic::{self, DynamicEngine};
use skyline_core::geometry::{CellGrid, Dataset, Point};
use skyline_core::global;
use skyline_core::highd::HighDEngine;
use skyline_core::parallel::ParallelConfig;
use skyline_core::quadrant::{self, QuadrantEngine};
use skyline_core::query;
use skyline_core::telemetry;
use skyline_data::Distribution;

const USAGE: &str = "\
Usage: experiments [EXPERIMENT...] [--profile smoke|full] [--json PATH] [--gate]

  EXPERIMENT       any of e1..e15 (default: run all experiments)
  --profile NAME   dataset sizes for e11/e12/e13/e14: 'full' (default) or
                   'smoke' (CI-sized)
  --json PATH      write the machine-readable bench records collected this run
                   (the BENCH_PR3.json schema) to PATH
  --gate           check every guard armed by the selected experiments and
                   report ALL violations before exiting 1: the 1.25x parallel
                   regression guard (e11/e12/e13), the telemetry overhead
                   guard (--telemetry), and the E13 open-loop SLO bounds
                   (lanes = 0 rows vs the committed per-family p99/p999
                   budgets), the E14 cold-start floor (container load
                   must beat rebuild-from-points by 10x at n >= 400), and the
                   E15 memory guards (t=4 peak bytes within 1.25x of t=0,
                   retained bytes-per-cell under the absolute budget)
  --gate-ratio X   override the parallel regression ratio (default 1.25);
                   mainly a testing aid for the gate pipeline itself
  --gate-floor-ms X  absolute-time floor for the regression and efficiency
                   guards (default 5): a comparison where both sides ran
                   under X ms is exempt, because sub-floor records measure
                   scheduler noise on shared CI hosts, not the code
  --efficiency-ratio X  override every per-record t4/t1 efficiency threshold
                   (see the E11 efficiency guard); mainly a testing aid
  --slo-scale X    scale every E13 SLO bound by X (default 1.0); X = 0 makes
                   every bound fail, which the CLI tests use
  --telemetry      capture the telemetry metrics registry around every
                   e11/e12/e13 configuration and embed the counter readings in
                   the JSON records; with --gate, additionally fail if a
                   recording-on run regresses more than 5% (+0.5 ms slack)
                   over a recording-off run of the same configuration on this
                   host";

/// Allowed gated slowdown of any parallel configuration relative to its own
/// sequential run (same host, same invocation).
const GATE_RATIO: f64 = 1.25;

/// Absolute-time floor for the regression and efficiency guards: when both
/// sides of a comparison ran under this many milliseconds, the comparison is
/// skipped. Sub-floor records (e.g. dynamic/subset n=10 at ~1 ms) measure
/// scheduler noise on shared 1-core CI hosts, not the code — the PR 7 smoke
/// flake came from exactly such a record.
const GATE_FLOOR_MS: f64 = 5.0;

/// Required t=4 over t=1 speedup on wide hosts (>= 4 hardware threads) for
/// the large global configurations — the scaling cliff this PR removes must
/// never silently return.
const EFFICIENCY_WIDE_GLOBAL: f64 = 2.0;

/// Baseline t4/t1 threshold on wide hosts for every other record: t=4 must
/// at least not lose to t=1.
const EFFICIENCY_WIDE_DEFAULT: f64 = 1.0;

/// t4/t1 threshold on narrow hosts (< 4 hardware threads), where physical
/// speedup is impossible and 4 workers time-slice one core: t=4 may pay a
/// bounded oversubscription tax but must not collapse.
const EFFICIENCY_NARROW: f64 = 0.8;

/// Allowed slowdown of a recording-on run over a recording-off run of the
/// same configuration (`--telemetry --gate`), plus an absolute slack so
/// sub-millisecond configurations don't gate on scheduler noise.
const TELEMETRY_OVERHEAD_RATIO: f64 = 1.05;
const TELEMETRY_OVERHEAD_SLACK_MS: f64 = 0.5;

/// Required speedup of a container load over a rebuild-from-points of the
/// same index at `n >= 400` (`e14 --gate`): the zero-copy load path's whole
/// reason to exist is to skip diagram construction, so it must beat the
/// construction it skips by an order of magnitude.
const COLD_START_RATIO: f64 = 10.0;

/// Allowed growth of a t=4 build's peak-bytes delta over the t=0 build of
/// the same E15 configuration (same host, same invocation): parallel
/// workers hold per-band scratch, but the arena outputs dominate, so the
/// working-set peak must stay near sequential.
const MEM_PEAK_RATIO: f64 = 1.25;

/// The global family's own peak bound: its *parallel formulation* is a
/// different algorithm, not the sequential one fanned out — every row's
/// 4-way union materializes as run-length `BitRuns` before the
/// sequential interning pass, an inherent `O(cells)` staging buffer the
/// streaming sequential path never holds. Measured 1.28x at n = 800
/// (1.15x at n = 400); the bound leaves regression headroom above that
/// without letting a second staging copy slip in.
const MEM_PEAK_RATIO_GLOBAL: f64 = 1.6;

/// Peak-comparison floor for the E15 guard: pairs whose peak deltas are
/// both under this many bytes measure allocator noise (thread-spawn
/// scratch, registry nodes), not the diagram working set.
const MEM_PEAK_FLOOR_BYTES: u64 = 1 << 20;

/// Absolute E15 budget on retained arena bytes per diagram cell
/// (`heap_bytes() / cells`). The measured worst case is the global
/// diagram at ~90 B/cell (n = 800; the global interner rides on top of
/// the shared cell table); quadrant sits near 33 and dynamic subcells
/// under 12. The
/// budget sits well above so real regressions (a nested `Vec` per cell,
/// an un-shrunk scratch buffer) trip it while allocator rounding does
/// not.
const MEM_BYTES_PER_CELL_BUDGET: f64 = 128.0;

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
    gate_ratio: f64,
    gate_floor_ms: f64,
    efficiency_ratio: Option<f64>,
    slo_scale: f64,
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
            gate_ratio: GATE_RATIO,
            gate_floor_ms: GATE_FLOOR_MS,
            efficiency_ratio: None,
            slo_scale: 1.0,
            telemetry: false,
        };
        let float_arg = |name: &str, value: Option<String>| -> Result<f64, String> {
            let value = value.ok_or(format!("{name} needs a value"))?;
            let parsed: f64 = value
                .parse()
                .map_err(|_| format!("{name} needs a number, got '{value}'"))?;
            if parsed.is_finite() && parsed >= 0.0 {
                Ok(parsed)
            } else {
                Err(format!("{name} must be a finite non-negative number"))
            }
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
                "--gate-ratio" => opts.gate_ratio = float_arg("--gate-ratio", args.next())?,
                "--gate-floor-ms" => {
                    opts.gate_floor_ms = float_arg("--gate-floor-ms", args.next())?;
                }
                "--efficiency-ratio" => {
                    opts.efficiency_ratio = Some(float_arg("--efficiency-ratio", args.next())?);
                }
                "--slo-scale" => opts.slo_scale = float_arg("--slo-scale", args.next())?,
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
    let overhead_violations = if opts.telemetry && (want("e11") || want("e12") || want("e13")) {
        telemetry_overhead(opts.profile)
    } else {
        Vec::new()
    };

    // Every guard below APPENDS to one failure list instead of exiting, so a
    // single run reports every broken gate (JSON artifact, regression ratio,
    // telemetry overhead, SLO bounds) rather than just the first.
    let mut failures: Vec<String> = Vec::new();
    if let Some(path) = &opts.json_path {
        match std::fs::write(path, render_records(&records)) {
            Ok(()) => eprintln!("wrote {} records to {path}", records.len()),
            Err(err) => failures.push(format!("cannot write bench records to {path}: {err}")),
        }
    }
    if opts.gate {
        // The parallel-regression guard only makes sense when an experiment
        // that produces threads > 0 records ran: an e14-only invocation
        // collects exclusively sequential cold-start rows.
        if want("e11") || want("e12") || want("e13") {
            match gate_regressions(&records, opts.gate_ratio, opts.gate_floor_ms) {
                Ok(checked) => {
                    eprintln!(
                        "gate: {checked} parallel configurations within {}x of sequential (floor {} ms)",
                        opts.gate_ratio, opts.gate_floor_ms
                    );
                }
                Err(violations) => failures.extend(violations),
            }
        }
        if want("e11") {
            match gate_efficiency(&records, opts.efficiency_ratio, opts.gate_floor_ms) {
                Ok(checked) => {
                    eprintln!("gate: {checked} t4/t1 efficiency thresholds met");
                }
                Err(violations) => failures.extend(violations),
            }
        }
        if opts.telemetry && overhead_violations.is_empty() {
            eprintln!(
                "gate: telemetry overhead within {TELEMETRY_OVERHEAD_RATIO}x                  (+{TELEMETRY_OVERHEAD_SLACK_MS} ms) of recording-off"
            );
        }
        failures.extend(overhead_violations);
        if want("e13") {
            match gate_slos(&records, opts.slo_scale) {
                Ok(checked) => {
                    eprintln!("gate: {checked} open-loop SLO bounds honored on lanes = 0 rows");
                }
                Err(violations) => failures.extend(violations),
            }
        }
        if want("e15") {
            match gate_memory(&records) {
                Ok(checked) => {
                    eprintln!(
                        "gate: {checked} memory bounds honored (peak within {MEM_PEAK_RATIO}x, \
                         {MEM_PEAK_RATIO_GLOBAL}x global; <= {MEM_BYTES_PER_CELL_BUDGET} B/cell)"
                    );
                }
                Err(violations) => failures.extend(violations),
            }
        }
        if want("e14") {
            match gate_cold_start(&records, opts.gate_floor_ms) {
                Ok(checked) => {
                    eprintln!(
                        "gate: {checked} cold-start configurations load >= {COLD_START_RATIO}x faster than rebuild"
                    );
                }
                Err(violations) => failures.extend(violations),
            }
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

/// The telemetry registry as sorted `(name, value)` pairs for embedding in
/// bench records: every counter, plus per-histogram `.count`/`.sum` keys.
fn metric_pairs() -> Vec<(String, u64)> {
    let snap = telemetry::metrics_snapshot();
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

/// The `--telemetry --gate` overhead guard: re-measures each E11
/// configuration sequentially with span recording off and then on, and
/// reports every configuration where the recording-on minimum exceeds
/// [`TELEMETRY_OVERHEAD_RATIO`] times the recording-off minimum plus
/// [`TELEMETRY_OVERHEAD_SLACK_MS`]. Same-host, same-invocation comparison,
/// like [`gate_regressions`].
fn telemetry_overhead(profile: Profile) -> Vec<String> {
    println!(
        "## Telemetry overhead (recording on vs off, sequential)
"
    );
    println!("| algorithm | n | off | on | spans |");
    println!("|---|---|---|---|---|");
    let cfg = ParallelConfig::with_threads(2).cap_to_hardware();
    let mut violations = Vec::new();
    for config in scalability_configs(profile) {
        let ds = sweep_dataset(config.n, config.distribution);
        let plain = time_stats(config.reps, || (config.build)(&ds, &cfg));
        telemetry::start_recording();
        let instrumented = time_stats(config.reps, || (config.build)(&ds, &cfg));
        let spans = telemetry::stop_recording().len();
        println!(
            "| {} | {} | {} | {} | {} |",
            config.algorithm,
            config.n,
            fmt_ms(plain.min_ms),
            fmt_ms(instrumented.min_ms),
            spans,
        );
        let budget = TELEMETRY_OVERHEAD_RATIO * plain.min_ms + TELEMETRY_OVERHEAD_SLACK_MS;
        if instrumented.min_ms > budget {
            violations.push(format!(
                "telemetry overhead: {} n={}: recording-on {} vs recording-off {}                  (budget {})",
                config.algorithm,
                config.n,
                fmt_ms(instrumented.min_ms),
                fmt_ms(plain.min_ms),
                fmt_ms(budget),
            ));
        }
    }
    println!();
    violations
}

/// The regression gate (CI `bench-smoke` job): every parallel record must be
/// no more than `ratio` (default [`GATE_RATIO`]) times slower (by minimum
/// wall time) than the sequential (`threads = 0`) record of the same
/// configuration from the same invocation — same-host comparison, so
/// absolute machine speed cancels out. Comparisons where both sides ran
/// under `floor_ms` are exempt (see [`GATE_FLOOR_MS`]). Returns the number
/// of parallel records checked, or the violation list.
fn gate_regressions(
    records: &[BenchRecord],
    ratio: f64,
    floor_ms: f64,
) -> Result<usize, Vec<String>> {
    let key = |r: &BenchRecord| {
        (
            r.experiment.clone(),
            r.algorithm.clone(),
            r.n,
            r.s,
            r.d,
            r.distribution.clone(),
        )
    };
    let sequential: std::collections::HashMap<_, f64> = records
        .iter()
        .filter(|r| r.threads == 0)
        .map(|r| (key(r), r.min_ms))
        .collect();

    let mut violations = Vec::new();
    let mut checked = 0usize;
    // E15 rows carry a threads column too, but they time exactly one build
    // per configuration (bytes are the measurand); their t=4 vs t=0
    // comparison belongs to `gate_memory`, not the timing guard.
    for r in records
        .iter()
        .filter(|r| r.threads > 0 && r.experiment != "e15")
    {
        let Some(&seq_ms) = sequential.get(&key(r)) else {
            violations.push(format!(
                "{} {} n={} threads={} has no sequential baseline record",
                r.experiment, r.algorithm, r.n, r.threads
            ));
            continue;
        };
        checked += 1;
        if r.min_ms < floor_ms && seq_ms < floor_ms {
            continue;
        }
        if r.min_ms > ratio * seq_ms {
            violations.push(format!(
                "{} {} n={} dist={} threads={}: {} vs sequential {} ({:.2}x > {ratio}x)",
                r.experiment,
                r.algorithm,
                r.n,
                r.distribution,
                r.threads,
                fmt_ms(r.min_ms),
                fmt_ms(seq_ms),
                r.min_ms / seq_ms
            ));
        }
    }
    if checked == 0 && violations.is_empty() {
        violations.push("no parallel records collected — run e11/e12/e13 with --gate".to_string());
    }
    if violations.is_empty() {
        Ok(checked)
    } else {
        Err(violations)
    }
}

/// The per-record t4/t1 efficiency threshold, graded by host width: wide
/// hosts (>= 4 hardware threads, e.g. standard CI runners) demand real
/// speedup on the large global configurations and parity elsewhere; narrow
/// hosts can only check that 4 workers time-slicing fewer cores don't
/// collapse. The E11 smoke profile runs at n <= 200, so the wide-global
/// threshold arms on the full profile (n >= 400) where the PR 3 scaling
/// cliff lived.
fn efficiency_threshold(algorithm: &str, n: usize, hardware_threads: usize) -> f64 {
    if hardware_threads < 4 {
        return EFFICIENCY_NARROW;
    }
    if algorithm.starts_with("global/") && n >= 400 {
        EFFICIENCY_WIDE_GLOBAL
    } else {
        EFFICIENCY_WIDE_DEFAULT
    }
}

/// The E11 t4/t1 efficiency guard: for every E11 configuration with both a
/// `threads = 1` and a `threads = 4` record, `t1_min / t4_min` must reach
/// the per-record threshold ([`efficiency_threshold`], or `override_ratio`
/// for every record when given). Pairs where both records ran under
/// `floor_ms` are exempt, like the regression guard. Returns the number of
/// pairs checked, or the violation list.
fn gate_efficiency(
    records: &[BenchRecord],
    override_ratio: Option<f64>,
    floor_ms: f64,
) -> Result<usize, Vec<String>> {
    let hardware_threads = skyline_core::parallel::available_threads();
    let key = |r: &BenchRecord| (r.algorithm.clone(), r.n, r.distribution.clone());
    let mut pairs: std::collections::HashMap<_, (Option<f64>, Option<f64>)> =
        std::collections::HashMap::new();
    for r in records.iter().filter(|r| r.experiment == "e11") {
        let entry = pairs.entry(key(r)).or_default();
        match r.threads {
            1 => entry.0 = Some(r.min_ms),
            4 => entry.1 = Some(r.min_ms),
            _ => {}
        }
    }

    let mut violations = Vec::new();
    let mut checked = 0usize;
    let mut keys: Vec<_> = pairs.keys().cloned().collect();
    keys.sort();
    for k in keys {
        let (algorithm, n, distribution) = &k;
        let (Some(t1), Some(t4)) = pairs[&k] else {
            continue;
        };
        checked += 1;
        if t1 < floor_ms && t4 < floor_ms {
            continue;
        }
        let threshold =
            override_ratio.unwrap_or_else(|| efficiency_threshold(algorithm, *n, hardware_threads));
        if t1 / t4 < threshold {
            violations.push(format!(
                "efficiency: {algorithm} n={n} dist={distribution}: t4/t1 speedup {:.2}x < required {threshold:.2}x (t1 {} vs t4 {}, host width {hardware_threads})",
                t1 / t4,
                fmt_ms(t1),
                fmt_ms(t4),
            ));
        }
    }
    if checked == 0 {
        violations.push("no t1/t4 record pairs collected — run e11 with --gate".to_string());
    }
    if violations.is_empty() {
        Ok(checked)
    } else {
        Err(violations)
    }
}

/// The committed E13 SLO table: per-family open-loop latency budgets for
/// the `lanes = 0` (inline, queue-free) rows. The bounds are deliberately
/// generous — on the smoke profile the measured p99 sits orders of
/// magnitude below them — because their job is to catch pathological tail
/// regressions (a stall, a lock convoy, an accidental O(n) rescan) on
/// shared CI hardware, not to pin microsecond-level performance.
fn slo_specs(scale: f64) -> Vec<SloSpec> {
    let p99 = |family| SloSpec {
        family,
        label: "p99",
        percentile: 99.0,
        bound_us: (100_000.0 * scale) as u64,
    };
    let mut specs = vec![
        p99("quadrant"),
        p99("global"),
        p99("safe_zone"),
        p99("trace"),
        p99("overall"),
    ];
    specs.push(SloSpec {
        family: "overall",
        label: "p999",
        percentile: 99.9,
        bound_us: (250_000.0 * scale) as u64,
    });
    specs
}

/// The E13 SLO gate: applies [`slo_specs`] to the interpolated percentile
/// metrics embedded in every `lanes = 0` open-loop record. Multi-lane rows
/// are excluded on purpose — on a 1-core host trailing lanes run after the
/// schedule, so their tails measure the schedule length, not the server
/// (EXPERIMENTS.md E13 discusses this). Returns the number of bounds
/// checked, or the violation list.
fn gate_slos(records: &[BenchRecord], scale: f64) -> Result<usize, Vec<String>> {
    let specs = slo_specs(scale);
    let mut checked = 0usize;
    let mut violations = Vec::new();
    for r in records
        .iter()
        .filter(|r| r.experiment == "e13" && r.threads == 0)
    {
        let measured: Vec<(String, String, u64)> = r
            .metrics
            .iter()
            .filter_map(|(key, value)| {
                let (family, label) = key.strip_suffix("_us")?.rsplit_once('.')?;
                Some((family.to_string(), label.to_string(), *value))
            })
            .collect();
        checked += specs.len();
        violations.extend(
            slo_violations(&specs, &measured)
                .into_iter()
                .map(|msg| format!("{} n={}: {msg}", r.algorithm, r.n)),
        );
    }
    if checked == 0 {
        violations.push("no lanes = 0 open-loop records collected — run e13 --gate".to_string());
    }
    if violations.is_empty() {
        Ok(checked)
    } else {
        Err(violations)
    }
}

/// E13: open-loop tail latency. Arrivals follow a fixed-rate schedule and
/// latency is measured from the *scheduled* arrival, so queueing delay is
/// charged to the server (coordinated-omission-safe) — see
/// `skyline_serve::openloop`. Sweeps arrival rate × lane count; the
/// `lanes = 0` rows are the queue-free SLO reference, and the digest column
/// is bit-identical across lane counts by construction. Records use
/// `threads` for the lane count and embed interpolated per-family
/// percentiles (µs) as metrics, which [`gate_slos`] checks.
/// E14 — cold-start latency: building the full index from raw points versus
/// loading the snapshot container ([`skyline_core::container`]) written by
/// that same build. Both paths end in an identical, query-ready
/// [`skyline_core::index::SkylineIndex`]; the container rows measure the
/// bounds-checked, checksum-validated decode that `skydiag load` and
/// [`skyline_serve::SkylineServer::from_container`] run on startup. All
/// rows are sequential (`threads = 0`): the decode path is single-threaded
/// by design. The `mem.container.bytes` metric records the file size per
/// configuration (deterministic, so committed artifacts stay byte-stable;
/// the pre-PR10 `container.bytes` spelling rides along as a compat alias).
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
        let rebuild = time_stats(reps, build);
        let load = time_stats(reps, || {
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
                metrics: vec![
                    // Canonical key on the memory-observatory naming
                    // scheme, plus the pre-PR10 spelling as a compat
                    // alias so existing gate configs keep resolving.
                    ("mem.container.bytes".to_string(), bytes.len() as u64),
                    ("container.bytes".to_string(), bytes.len() as u64),
                ],
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

/// The E14 cold-start guard: for every `n >= 400` configuration with both
/// legs recorded, the container load must be at least [`COLD_START_RATIO`]
/// times faster than the rebuild. Pairs whose rebuild ran under `floor_ms`
/// are exempt (a sub-floor rebuild means the ratio measures scheduler noise,
/// not the decode path — see [`GATE_FLOOR_MS`]). Returns the number of
/// pairs checked, or the violation list.
fn gate_cold_start(records: &[BenchRecord], floor_ms: f64) -> Result<usize, Vec<String>> {
    let mut pairs: std::collections::HashMap<(String, usize), (Option<f64>, Option<f64>)> =
        std::collections::HashMap::new();
    for r in records.iter().filter(|r| r.experiment == "e14") {
        if let Some(family) = r.algorithm.strip_suffix("/rebuild") {
            pairs.entry((family.to_string(), r.n)).or_default().0 = Some(r.min_ms);
        } else if let Some(family) = r.algorithm.strip_suffix("/load") {
            pairs.entry((family.to_string(), r.n)).or_default().1 = Some(r.min_ms);
        }
    }

    let mut violations = Vec::new();
    let mut checked = 0usize;
    let mut keys: Vec<_> = pairs.keys().cloned().collect();
    keys.sort();
    for k in keys {
        let (family, n) = &k;
        if *n < 400 {
            continue;
        }
        let (Some(rebuild), Some(load)) = pairs[&k] else {
            violations.push(format!(
                "cold start: {family} n={n} is missing a rebuild or load record"
            ));
            continue;
        };
        if rebuild < floor_ms {
            continue;
        }
        checked += 1;
        if rebuild / load < COLD_START_RATIO {
            violations.push(format!(
                "cold start: {family} n={n}: load {} vs rebuild {} ({:.1}x < required {COLD_START_RATIO}x)",
                fmt_ms(load),
                fmt_ms(rebuild),
                rebuild / load,
            ));
        }
    }
    if checked == 0 && violations.is_empty() {
        violations
            .push("no cold-start pairs at n >= 400 collected — run e14 with --gate".to_string());
    }
    if violations.is_empty() {
        Ok(checked)
    } else {
        Err(violations)
    }
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
    // the next run's peak baseline. `reset_metrics` re-seats the peak at
    // the current live level, so `peak - live_before` is the build's own
    // high-water contribution (the peak-RSS proxy).
    let mut run_build =
        |family: &str,
         n: usize,
         threads: usize,
         build: &dyn Fn(&Dataset, &ParallelConfig) -> (usize, usize)| {
            let ds = sweep_dataset(n, Distribution::Independent);
            let cfg = ParallelConfig::with_threads(threads).cap_to_hardware();
            telemetry::reset_metrics();
            let before = mem::stats();
            let start_ns = telemetry::now_ns();
            let (heap_bytes, cells) = build(&ds, &cfg);
            let elapsed_ms = telemetry::ms_since(start_ns);
            let after = mem::stats();
            let peak_delta = after.peak_bytes.saturating_sub(before.live_bytes);
            let bytes_per_cell = heap_bytes as u64 / cells.max(1) as u64;
            println!(
            "| {family} | {n} | {threads} | {peak_delta} | {} | {heap_bytes} | {cells} | {bytes_per_cell} |",
            after.alloc_bytes,
        );
            let mut metrics = vec![
                ("mem.peak_bytes".to_string(), peak_delta),
                ("mem.alloc_bytes".to_string(), after.alloc_bytes),
                ("mem.allocs".to_string(), after.allocs),
                ("mem.heap_bytes".to_string(), heap_bytes as u64),
                ("mem.cells".to_string(), cells as u64),
                ("mem.bytes_per_cell".to_string(), bytes_per_cell),
            ];
            for (i, row) in mem::phase_stats().into_iter().enumerate() {
                if row.alloc_bytes > 0 {
                    metrics.push((mem::PHASE_METRIC_NAMES[i].0.to_string(), row.alloc_bytes));
                }
            }
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
    telemetry::reset_metrics();
    let before = mem::stats();
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
    let after = mem::stats();
    let snapshot_bytes = server.reader().snapshot().heap_bytes();
    let peak_delta = after.peak_bytes.saturating_sub(before.live_bytes);
    println!(
        "| {family} | {serve_n} | 0 | {peak_delta} | {} | {snapshot_bytes} | - | - |",
        after.alloc_bytes,
    );
    let mut metrics = vec![
        ("mem.peak_bytes".to_string(), peak_delta),
        ("mem.alloc_bytes".to_string(), after.alloc_bytes),
        ("mem.allocs".to_string(), after.allocs),
        ("mem.snapshot_bytes".to_string(), snapshot_bytes as u64),
        ("workload.checksum".to_string(), report.checksum),
    ];
    for (i, row) in mem::phase_stats().into_iter().enumerate() {
        if row.alloc_bytes > 0 {
            metrics.push((mem::PHASE_METRIC_NAMES[i].0.to_string(), row.alloc_bytes));
        }
    }
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

/// The E15 memory guard, armed only when the counting allocator is
/// compiled in (a `--no-default-features` run reports zero bytes — gating
/// on that would always pass vacuously, so it skips loudly instead):
///
/// * **Peak regression** — every t=4 build row's `mem.peak_bytes` delta
///   stays within [`MEM_PEAK_RATIO`] of the t=0 row of the same
///   configuration ([`MEM_PEAK_RATIO_GLOBAL`] for the global family,
///   whose parallel formulation stages per-row unions by design),
///   same-host/same-invocation like the timing guard. Pairs with both
///   peaks under [`MEM_PEAK_FLOOR_BYTES`] are exempt.
/// * **Absolute budget** — every build row's retained
///   `mem.heap_bytes / mem.cells` stays under
///   [`MEM_BYTES_PER_CELL_BUDGET`].
fn gate_memory(records: &[BenchRecord]) -> Result<usize, Vec<String>> {
    use skyline_core::telemetry::mem;
    if !mem::enabled() {
        eprintln!("gate: memory guards skipped (mem-telemetry compiled out)");
        return Ok(0);
    }
    let metric = |r: &BenchRecord, key: &str| {
        r.metrics
            .iter()
            .find(|(name, _)| name == key)
            .map(|&(_, value)| value)
    };
    let build_rows: Vec<&BenchRecord> = records
        .iter()
        .filter(|r| r.experiment == "e15" && !r.algorithm.starts_with("serve/"))
        .collect();

    let mut violations = Vec::new();
    let mut checked = 0usize;

    let sequential: std::collections::HashMap<(String, usize), u64> = build_rows
        .iter()
        .filter(|r| r.threads == 0)
        .filter_map(|r| metric(r, "mem.peak_bytes").map(|p| ((r.algorithm.clone(), r.n), p)))
        .collect();
    for r in build_rows.iter().filter(|r| r.threads > 0) {
        let Some(par_peak) = metric(r, "mem.peak_bytes") else {
            continue;
        };
        let Some(&seq_peak) = sequential.get(&(r.algorithm.clone(), r.n)) else {
            violations.push(format!(
                "e15 {} n={} threads={} has no sequential peak baseline",
                r.algorithm, r.n, r.threads
            ));
            continue;
        };
        if par_peak < MEM_PEAK_FLOOR_BYTES && seq_peak < MEM_PEAK_FLOOR_BYTES {
            continue;
        }
        checked += 1;
        let bound = if r.algorithm.starts_with("global/") {
            MEM_PEAK_RATIO_GLOBAL
        } else {
            MEM_PEAK_RATIO
        };
        if par_peak as f64 > bound * seq_peak as f64 {
            violations.push(format!(
                "e15 {} n={} threads={}: peak {par_peak} B vs sequential {seq_peak} B \
                 ({:.2}x > {bound}x)",
                r.algorithm,
                r.n,
                r.threads,
                par_peak as f64 / seq_peak as f64
            ));
        }
    }

    for r in &build_rows {
        let (Some(heap), Some(cells)) = (metric(r, "mem.heap_bytes"), metric(r, "mem.cells"))
        else {
            continue;
        };
        if cells == 0 {
            continue;
        }
        checked += 1;
        let per_cell = heap as f64 / cells as f64;
        if per_cell > MEM_BYTES_PER_CELL_BUDGET {
            violations.push(format!(
                "e15 {} n={} threads={}: {per_cell:.1} B/cell > budget {MEM_BYTES_PER_CELL_BUDGET}",
                r.algorithm, r.n, r.threads
            ));
        }
    }

    if checked == 0 && violations.is_empty() {
        violations.push("no e15 memory records collected — run e15 with --gate".to_string());
    }
    if violations.is_empty() {
        Ok(checked)
    } else {
        Err(violations)
    }
}

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
            if capture_telemetry {
                telemetry::reset_metrics();
            }
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
            let mut metrics = if capture_telemetry {
                metric_pairs()
            } else {
                Vec::new()
            };
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
            if capture_telemetry {
                telemetry::reset_metrics();
            }
            let stats = time_stats(config.reps, || (config.build)(&ds, &cfg));
            let metrics = if capture_telemetry {
                metric_pairs()
            } else {
                Vec::new()
            };
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
    let mut records = Vec::new();
    let algorithm = "serve";
    let mut row = format!("| {algorithm} |");
    let mut last_qps = 0.0;
    let mut last_hit_rate = None;
    for readers in readers_sweep {
        let spec = WorkloadSpec {
            readers,
            rounds,
            queries_per_reader: queries_total / (rounds * readers.max(1)),
            updates_per_round: updates,
            domain: 10 * n as i64,
            seed: skyline_bench::BASE_SEED,
            mix: QueryMix::default(),
        };
        if capture_telemetry {
            telemetry::reset_metrics();
        }
        let mut elapsed: Vec<f64> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let options = ServerOptions {
                with_global: true,
                parallel: ParallelConfig::sequential(),
                ..ServerOptions::default()
            };
            let (server, handles) = SkylineServer::with_dataset(&ds, options);
            let report = skyline_serve::workload::run(&server, &spec, &handles);
            elapsed.push(report.elapsed_ms);
            if readers == 4 {
                last_qps = report.queries_per_sec();
                let arena = report.cache;
                last_hit_rate =
                    (arena.lookups() > 0).then(|| arena.hits as f64 / arena.lookups() as f64);
            }
        }
        elapsed.sort_by(|a, b| a.total_cmp(b));
        let min_ms = elapsed[0];
        let median_ms = elapsed[elapsed.len() / 2];
        let metrics = if capture_telemetry {
            metric_pairs()
        } else {
            Vec::new()
        };
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
            metrics,
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
    use skyline_core::serialize;

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

    let bytes = serialize::encode_cell_diagram(&diagram);
    let t = time_ms(3, || serialize::encode_cell_diagram(&diagram));
    println!(
        "| diagram serialization | n = 200 -> {:.1} KiB | {} |",
        bytes.len() as f64 / 1024.0,
        fmt_ms(t)
    );
    let t = time_ms(3, || serialize::decode_cell_diagram(&bytes).expect("valid"));
    println!(
        "| diagram deserialization (validated) | same | {} |",
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
            let stats = swept.cell_diagram.stats();
            println!(
                "| {} | {} | {} | {} | {:.3} | {} | {:.2} | {} | {} |",
                dist.name(),
                n,
                stats.cell_count,
                swept.merged.len(),
                swept.merged.len() as f64 / stats.cell_count as f64,
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

    // (d) Merging: union–find vs flood fill.
    println!("\n### E8d — polyomino merging: union–find vs flood fill (independent)\n");
    println!("| n | union–find | flood fill |");
    println!("|---|---|---|");
    for n in [200usize, 400, 800] {
        let ds = sweep_dataset(n, Distribution::Independent);
        let d = QuadrantEngine::Sweeping.build(&ds);
        let uf = time_ms(3, || merge(&d));
        let ff = time_ms(3, || merge_flood_fill(&d));
        println!("| {n} | {} | {} |", fmt_ms(uf), fmt_ms(ff));
    }
    println!();
}
