//! The `experiments --gate` table, row by row, on synthetic bench
//! records: each bound holds at its value and breaks just past it, each
//! floor or slack exempts what it should, and missing baselines, legs,
//! metrics and records are violations of their own.

use skyline_bench::gate::{evaluate, Bound, Gate, TABLE};
use skyline_bench::json::BenchRecord;

const MIB: u64 = 1 << 20;

fn row(name: &str) -> Gate {
    *TABLE
        .iter()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("no gate row {name}"))
}

fn rec(experiment: &str, algorithm: &str, n: usize, threads: usize, min_ms: f64) -> BenchRecord {
    BenchRecord {
        experiment: experiment.to_string(),
        algorithm: algorithm.to_string(),
        n,
        s: 10 * n as i64,
        d: 2,
        distribution: "inde".to_string(),
        threads,
        reps: 3,
        min_ms,
        median_ms: min_ms,
        metrics: Vec::new(),
    }
}

fn with(mut r: BenchRecord, metrics: &[(&str, u64)]) -> BenchRecord {
    r.metrics = metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    r
}

/// Evaluates one row on a 2-thread host.
fn check(name: &str, records: &[BenchRecord]) -> Result<usize, Vec<String>> {
    evaluate(&[row(name)], records, 2)
}

/// The single violation of a failed check.
fn violation(result: Result<usize, Vec<String>>) -> String {
    let mut violations = result.expect_err("the bound must break");
    assert_eq!(violations.len(), 1, "{violations:?}");
    violations.remove(0)
}

#[test]
fn parallel_regression_allows_1_25x_of_the_sequential_run() {
    let seq = rec("e11", "global/scanning", 100, 0, 8.0);
    let at_bound = rec("e11", "global/scanning", 100, 4, 10.0);
    assert_eq!(
        check("parallel-regression", &[seq.clone(), at_bound]),
        Ok(1)
    );

    let over = rec("e11", "global/scanning", 100, 4, 10.01);
    let msg = violation(check("parallel-regression", &[seq, over]));
    for part in [
        "parallel-regression: e11 global/scanning n=100 dist=inde threads=4",
        "min_ms 10.0ms vs baseline 8.0ms is 1.25x",
        "bound 1.25x",
    ] {
        assert!(msg.contains(part), "{part:?} missing from {msg}");
    }
}

#[test]
fn parallel_regression_exempts_pairs_with_both_legs_under_5ms() {
    // 4.9x slower, but both legs are under the floor.
    let seq = rec("e12", "serve", 200, 0, 1.0);
    let fast = rec("e12", "serve", 200, 2, 4.9);
    assert_eq!(check("parallel-regression", &[seq.clone(), fast]), Ok(1));
    // One leg at the floor: the pair counts.
    let slow = rec("e12", "serve", 200, 2, 5.0);
    assert!(check("parallel-regression", &[seq, slow]).is_err());
}

#[test]
fn parallel_regression_reports_missing_baselines_and_legs() {
    let orphan_leg = rec("e13", "openloop/r2000", 200, 4, 50.0);
    let msg = violation(check("parallel-regression", &[orphan_leg]));
    assert!(
        msg.contains("openloop/r2000 n=200 dist=inde threads=4: no baseline record"),
        "{msg}"
    );

    let orphan_baseline = rec("e11", "dynamic/subset", 10, 0, 50.0);
    let msg = violation(check("parallel-regression", &[orphan_baseline]));
    assert!(
        msg.contains("threads=0: baseline has no record to compare"),
        "{msg}"
    );
}

#[test]
fn parallel_regression_leaves_memory_and_overhead_rows_alone() {
    // E15 and telemetry rows carry thread counts but no sequential
    // timing reference, so the row matches nothing.
    let records = [
        rec("e15", "quadrant/sweeping", 100, 4, 50.0),
        rec("telemetry", "global/scanning/on", 100, 2, 50.0),
    ];
    assert_eq!(
        check("parallel-regression", &records),
        Err(vec![
            "parallel-regression: nothing checked: no record matched \
             (run e11 or e12 or e13 with --gate)"
                .to_string()
        ])
    );
}

#[test]
fn efficiency_is_graded_by_host_width() {
    let pair = |algorithm: &str, n, t1, t4| {
        [
            rec("e11", algorithm, n, 1, t1),
            rec("e11", algorithm, n, 4, t4),
        ]
    };
    let at = |records: &[BenchRecord], width| evaluate(&[row("t4/t1-efficiency")], records, width);

    // Wide host: 2x for the large global builds.
    assert_eq!(at(&pair("global/scanning", 400, 20.0, 10.0), 4), Ok(1));
    let msg = violation(at(&pair("global/scanning", 400, 20.0, 10.01), 4));
    assert!(
        msg.contains("t4/t1-efficiency: e11 global/scanning n=400 dist=inde threads=4"),
        "{msg}"
    );
    assert!(
        msg.contains("speedup 2.00x over baseline global/scanning"),
        "{msg}"
    );
    assert!(
        msg.contains("under the bound 2.00x on a 4-thread host"),
        "{msg}"
    );
    // Parity for every other record, small global builds included.
    assert_eq!(at(&pair("global/scanning", 200, 10.0, 10.0), 4), Ok(1));
    assert_eq!(at(&pair("quadrant/sweeping", 800, 10.0, 10.0), 4), Ok(1));
    let msg = violation(at(&pair("quadrant/sweeping", 800, 10.0, 10.01), 4));
    assert!(
        msg.contains("under the bound 1.00x on a 4-thread host"),
        "{msg}"
    );

    // Narrow host: 0.8x for every record, large global builds too.
    assert_eq!(at(&pair("global/scanning", 400, 8.0, 10.0), 2), Ok(1));
    assert_eq!(at(&pair("quadrant/sweeping", 200, 8.0, 10.0), 2), Ok(1));
    let msg = violation(at(&pair("global/scanning", 400, 8.0, 10.01), 2));
    assert!(
        msg.contains("under the bound 0.80x on a 2-thread host"),
        "{msg}"
    );

    // Both legs under the 5 ms floor: exempt at any ratio.
    assert_eq!(at(&pair("dynamic/subset", 10, 1.0, 4.9), 4), Ok(1));
}

#[test]
fn telemetry_overhead_allows_5_percent_plus_half_a_millisecond() {
    let legs = |off, on| {
        [
            rec("telemetry", "global/scanning/off", 100, 2, off),
            rec("telemetry", "global/scanning/on", 100, 2, on),
        ]
    };
    assert_eq!(check("telemetry-overhead", &legs(20.0, 21.5)), Ok(1));
    let msg = violation(check("telemetry-overhead", &legs(20.0, 21.51)));
    assert!(
        msg.contains("telemetry-overhead: telemetry global/scanning/on n=100"),
        "{msg}"
    );
    assert!(
        msg.contains("over the bound 1.05x + 500µs = 21.5ms"),
        "{msg}"
    );
    // The slack lets a sub-millisecond build cost 50% more.
    assert_eq!(check("telemetry-overhead", &legs(1.0, 1.55)), Ok(1));
    // A configuration with one leg only.
    let msg = violation(check("telemetry-overhead", &legs(1.0, 1.0)[..1]));
    assert!(msg.contains("global/scanning/off"), "{msg}");
    assert!(msg.contains("baseline has no record to compare"), "{msg}");
}

fn open_loop(lanes: usize, p99: u64, p999: u64) -> BenchRecord {
    with(
        rec("e13", "openloop/r2000", 200, lanes, 250.0),
        &[
            ("global.p99_us", p99),
            ("overall.p99_us", p99),
            ("overall.p999_us", p999),
            ("quadrant.p99_us", p99),
            ("safe_zone.p99_us", p99),
            ("trace.p99_us", p99),
        ],
    )
}

#[test]
fn slos_bound_p99_at_100ms_and_p999_at_250ms_on_lanes_0_rows() {
    let at_bounds = [open_loop(0, 100_000, 250_000)];
    assert_eq!(check("slo-p99", &at_bounds), Ok(5));
    assert_eq!(check("slo-p999", &at_bounds), Ok(1));

    let violations = check("slo-p99", &[open_loop(0, 100_001, 0)]).unwrap_err();
    assert_eq!(violations.len(), 5, "one per family: {violations:?}");
    assert!(
        violations[0].contains(
            "slo-p99: e13 openloop/r2000 n=200 dist=inde threads=0: \
             quadrant.p99_us = 100001 exceeds the bound 100000"
        ),
        "{violations:?}"
    );
    let msg = violation(check("slo-p999", &[open_loop(0, 0, 250_001)]));
    assert!(
        msg.contains("overall.p999_us = 250001 exceeds the bound 250000"),
        "{msg}"
    );

    // Multi-lane rows measure the schedule on narrow hosts: not gated.
    let lanes = [open_loop(0, 1, 1), open_loop(4, u64::MAX, u64::MAX)];
    assert_eq!(check("slo-p99", &lanes), Ok(5));
}

#[test]
fn an_slo_without_a_measurement_is_a_violation() {
    let mut r = open_loop(0, 1, 1);
    r.metrics.retain(|(k, _)| k != "trace.p99_us");
    let msg = violation(check("slo-p99", &[r]));
    assert!(
        msg.contains("openloop/r2000 n=200 dist=inde threads=0: no measurement of trace.p99_us"),
        "{msg}"
    );
}

#[test]
fn cold_start_load_must_beat_rebuild_10x_at_n_400() {
    let legs = |n, rebuild, load| {
        [
            rec("e14", "coldstart/rebuild", n, 0, rebuild),
            rec("e14", "coldstart/load", n, 0, load),
        ]
    };
    assert_eq!(check("cold-start", &legs(400, 50.0, 5.0)), Ok(1));
    let msg = violation(check("cold-start", &legs(400, 50.0, 5.01)));
    assert!(
        msg.contains("cold-start: e14 coldstart/load n=400 dist=inde threads=0"),
        "{msg}"
    );
    assert!(
        msg.contains("speedup 9.98x over baseline coldstart/rebuild (50.0ms vs 5.0ms)"),
        "{msg}"
    );
    assert!(msg.contains("under the bound 10.00x"), "{msg}");

    // A rebuild under 5 ms is exempt, whatever the load took.
    assert_eq!(check("cold-start", &legs(800, 4.9, 4.0)), Ok(1));
    // Below n = 400 nothing is gated.
    assert!(check("cold-start", &legs(200, 50.0, 50.0)).unwrap_err()[0]
        .contains("cold-start: nothing checked"));
    // A rebuild without its load leg.
    let msg = violation(check("cold-start", &legs(400, 50.0, 1.0)[..1]));
    assert!(msg.contains("coldstart/rebuild n=400"), "{msg}");
    assert!(msg.contains("baseline has no record to compare"), "{msg}");
}

fn build(family: &str, threads: usize, peak: u64, heap: u64, cells: u64) -> BenchRecord {
    with(
        rec("e15", family, 100, threads, 10.0),
        &[
            ("mem.cells", cells),
            ("mem.heap_bytes", heap),
            ("mem.peak_bytes", peak),
        ],
    )
}

#[test]
fn e15_peak_stays_within_1_25x_of_sequential_above_1mib() {
    let pair = |t0, t4| {
        [
            build("global/sweeping", 0, t0, 1, 1),
            build("global/sweeping", 4, t4, 1, 1),
        ]
    };
    assert_eq!(check("e15-peak", &pair(4 * MIB, 5 * MIB)), Ok(1));
    let msg = violation(check("e15-peak", &pair(4 * MIB, 5 * MIB + 1)));
    assert!(
        msg.contains("e15-peak: e15 global/sweeping n=100 dist=inde threads=4"),
        "{msg}"
    );
    assert!(
        msg.contains("mem.peak_bytes 5242881 vs baseline 4194304 is 1.25x, over the bound 1.25x"),
        "{msg}"
    );
    // Both peaks under 1 MiB: allocator noise, exempt.
    assert_eq!(check("e15-peak", &pair(100_000, MIB - 1)), Ok(1));
    assert!(check("e15-peak", &pair(100_000, MIB)).is_err());
}

#[test]
fn bytes_per_cell_budget_is_128() {
    let at_bound = build("quadrant/sweeping", 0, 0, 128 * 1000, 1000);
    // The serve snapshot row is no diagram build.
    let snapshot = with(rec("e15", "serve/snapshot", 200, 0, 10.0), &[]);
    assert_eq!(check("bytes-per-cell", &[at_bound, snapshot]), Ok(1));
    let msg = violation(check(
        "bytes-per-cell",
        &[build("dynamic/scanning", 4, 0, 128 * 1000 + 1, 1000)],
    ));
    assert!(
        msg.contains(
            "bytes-per-cell: e15 dynamic/scanning n=100 dist=inde threads=4: \
             bytes_per_cell = 128.0 exceeds the bound 128.0"
        ),
        "{msg}"
    );
}

#[test]
fn one_pass_reports_every_broken_row() {
    let records = [
        // Two parallel regressions.
        rec("e11", "quadrant/scanning", 200, 0, 10.0),
        rec("e11", "quadrant/scanning", 200, 1, 10.0),
        rec("e11", "quadrant/scanning", 200, 4, 20.0),
        // The lanes = 0 row carries no percentiles.
        rec("e13", "openloop/r8000", 200, 0, 125.0),
        rec("e13", "openloop/r8000", 200, 4, 200.0),
        // SLO breaches, and a cold-start pair far below its floor.
        open_loop(0, 200_000, 1),
        rec("e14", "coldstart/rebuild", 400, 0, 50.0),
        rec("e14", "coldstart/load", 400, 0, 25.0),
    ];
    let violations = evaluate(TABLE, &records, 2).unwrap_err();
    let count = |prefix: &str| violations.iter().filter(|v| v.starts_with(prefix)).count();
    // quadrant/scanning t=4 against t=0, and openloop/r8000 lanes 4;
    // open_loop's lanes = 0 record has no multi-lane partner.
    assert_eq!(count("parallel-regression: "), 3, "{violations:#?}");
    assert_eq!(count("t4/t1-efficiency: "), 1, "{violations:#?}");
    // Five breached families at r2000, five unmeasured at r8000.
    assert_eq!(count("slo-p99: "), 10, "{violations:#?}");
    assert_eq!(count("slo-p999: "), 1, "{violations:#?}");
    assert_eq!(count("cold-start: "), 1, "{violations:#?}");
    // The rows no record arms say so instead of passing vacuously.
    for idle in ["telemetry-overhead", "e15-peak", "bytes-per-cell"] {
        assert_eq!(
            count(&format!("{idle}: nothing checked")),
            1,
            "{violations:#?}"
        );
    }
}

#[test]
fn every_ratio_bound_names_its_baseline() {
    for gate in TABLE {
        let ratio = !matches!(gate.bound, Bound::AtMost(_));
        assert_eq!(ratio, gate.pair.is_some(), "{}", gate.name);
        assert_eq!(
            TABLE.iter().filter(|g| g.name == gate.name).count(),
            1,
            "{} is not unique",
            gate.name
        );
    }
}
