//! Differential fuzzing harness: generates random datasets across all
//! distributions, domain regimes (general position through heavy ties),
//! and sizes, and checks that every engine family agrees — forever, or for
//! `--seconds N` (default 10).
//!
//! ```text
//! cargo run -p skyline-bench --release --bin fuzz_diff -- --seconds 30
//! ```
//!
//! Beyond cross-engine agreement, every reference diagram is run through
//! the full invariant suite in [`skyline_core::invariants`]
//! **unconditionally** (the engines' own `debug_assert!` hooks are compiled
//! out in release builds, which is how this harness normally runs): brute
//! force semantic recompute of every cell, Definition 2 union check for
//! global diagrams, and the polyomino partition checks for the swept
//! diagram's merge. Each round also churns a few inserts and removals
//! through the local repair ([`skyline_core::repair`]) and checks every
//! repaired index against a fresh build, byte for byte, and round-trips
//! the index and the standalone quadrant, skyband, global and dynamic
//! diagrams through the snapshot container ([`skyline_core::container`]).
//!
//! On a mismatch or invariant violation it prints the offending spec plus
//! a copy-pasteable one-round repro command, and exits nonzero:
//!
//! ```text
//! MISMATCH in scanning for DatasetSpec { n: 17, ... seed: 12345 }
//! reproduce with: cargo run -p skyline-bench --release --bin fuzz_diff -- --seed 12345
//! ```
//!
//! `--seed N` replays exactly that round (the spec is derived from the
//! seed alone, so the seed is the minimal repro). This is the long-running
//! companion to the bounded proptest suites.

use std::time::{Duration, Instant};

use skyline_core::container;
use skyline_core::diagram::CellDiagram;
use skyline_core::dynamic::DynamicEngine;
use skyline_core::geometry::Dataset;
use skyline_core::global;
use skyline_core::highd::HighDEngine;
use skyline_core::invariants::{self, CellSemantics, FULL_SAMPLE};
use skyline_core::parallel::ParallelConfig;
use skyline_core::quadrant::QuadrantEngine;
use skyline_data::{DatasetSpec, Distribution};

const USAGE: &str = "\
Usage: fuzz_diff [--seconds N] [--seed SEED] [--help]

  --seconds N   fuzz for N wall-clock seconds (default 10)
  --seed SEED   replay exactly one round with this seed and exit
  --help, -h    print this message

Exit status: 0 all rounds agreed, 1 mismatch/invariant violation, 2 bad usage.";

/// Thread counts for the per-round parallel-vs-sequential differential
/// checks (in addition to whatever `SKYLINE_THREADS` selects for the
/// reference builds). Includes 1 (a single worker through the full guided
/// band-split machinery) and 4 (the CI gate's wide configuration) so the
/// threads {0, 1, 4} triple of the efficiency gate is exactly the set
/// proven bit-identical here; `with_threads` spawns exactly that many
/// workers even beyond the hardware width.
const FUZZ_THREADS: [usize; 4] = [1, 2, 3, 4];

/// Parsed command line for the harness.
#[derive(Debug, PartialEq, Eq)]
struct Options {
    seconds: u64,
    repro_seed: Option<u64>,
    help: bool,
}

/// Exhaustive argument parsing: every token is either a recognized flag, a
/// recognized flag's value, or an error — unknown arguments are never
/// silently ignored, wherever they appear on the line.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        seconds: 10,
        repro_seed: None,
        help: false,
    };
    let mut args = args;
    let int_value = |args: &mut dyn Iterator<Item = String>, name: &str| {
        let value = args
            .next()
            .ok_or_else(|| format!("{name} needs an integer value"))?;
        value
            .parse::<u64>()
            .map_err(|_| format!("{name} needs an integer value, got '{value}'"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seconds" => opts.seconds = int_value(&mut args, "--seconds")?,
            "--seed" => opts.repro_seed = Some(int_value(&mut args, "--seed")?),
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return;
    }

    if let Some(seed) = opts.repro_seed {
        round(seed, true);
        println!("seed {seed}: all engine families agreed and all invariants held");
        return;
    }

    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut rounds = 0u64;
    let mut seed = 0xF00D_u64;

    while Instant::now() < deadline {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        round(seed, rounds % 4 == 0);
        rounds += 1;
    }
    println!("fuzz_diff: {rounds} rounds, all engine families agreed and all invariants held");
}

/// One fully seed-determined fuzzing round: dataset generation, every
/// cross-engine check, and the unconditional invariant validation.
fn round(seed: u64, with_highd: bool) {
    let pick = |m: u64, options: &[i64]| options[(seed >> (m * 7)) as usize % options.len()];

    let distribution = Distribution::ALL[(seed >> 3) as usize % 3];
    let n = pick(1, &[3, 8, 17, 33, 50]) as usize;
    let domain = pick(2, &[3, 7, 30, 1000]);
    let spec = DatasetSpec {
        n,
        dims: 2,
        domain,
        distribution,
        seed,
    };

    let ds = spec.build_2d();
    check_quadrant(&spec, &ds);
    check_global(&spec, &ds);
    check_repair(&spec, &ds);
    if n <= 12 {
        check_dynamic(&spec, &ds);
    }
    if with_highd {
        let dims = 3 + (seed >> 11) as usize % 2;
        let spec3 = DatasetSpec {
            n: n.min(11),
            dims,
            domain,
            distribution,
            seed,
        };
        check_highd(&spec3);
    }
}

/// Semantic recompute budget: exhaustive for small grids, a deterministic
/// 512-cell sample for the largest rounds so throughput stays useful.
fn budget(n: usize) -> usize {
    if n <= 20 {
        FULL_SAMPLE
    } else {
        512
    }
}

fn fail(what: &str, spec: &DatasetSpec) -> ! {
    eprintln!("MISMATCH in {what} for {spec:?}");
    eprintln!(
        "reproduce with: cargo run -p skyline-bench --release --bin fuzz_diff -- --seed {}",
        spec.seed
    );
    std::process::exit(1);
}

fn check_quadrant(spec: &DatasetSpec, ds: &Dataset) {
    let reference = QuadrantEngine::Baseline.build(ds);
    if let Err(v) =
        invariants::validate_cell_diagram(ds, &reference, CellSemantics::Quadrant, budget(spec.n))
    {
        fail(&format!("quadrant invariants: {v}"), spec);
    }
    for engine in QuadrantEngine::ALL {
        if !engine.build(ds).same_results(&reference) {
            fail(engine.name(), spec);
        }
    }
    // Parallel engines must be bit-identical to the sequential reference at
    // fixed thread counts, independent of SKYLINE_THREADS.
    for engine in [QuadrantEngine::Scanning, QuadrantEngine::Sweeping] {
        for threads in FUZZ_THREADS {
            if !engine
                .build_with(ds, &ParallelConfig::with_threads(threads))
                .same_results(&reference)
            {
                fail(&format!("{}-threads-{threads}", engine.name()), spec);
            }
        }
    }
    // k-skyband engines, k = 2.
    let band_ref = skyline_core::skyband::build_baseline(ds, 2);
    if !skyline_core::skyband::build_incremental(ds, 2).same_results(&band_ref) {
        fail("skyband-incremental", spec);
    }
    check_cell_roundtrip("quadrant", spec, ds, &reference);
    check_cell_roundtrip("skyband", spec, ds, &band_ref);
    // Snapshot-container roundtrip: save → load must reproduce the quadrant
    // diagram and handle table exactly before the invariant checks below.
    let index = skyline_core::index::SkylineIndex::new(ds);
    let handles: Vec<skyline_core::maintained::Handle> = (0..ds.len() as u64)
        .map(skyline_core::maintained::Handle)
        .collect();
    let bytes = container::encode_index(&index, &handles);
    match container::decode_index(&bytes) {
        Ok(loaded)
            if loaded.handles == handles
                && loaded.index.quadrant_diagram().same_results(&reference)
                && loaded.index.polyominoes() == index.polyominoes() => {}
        _ => fail("container-roundtrip", spec),
    }
    // The swept diagram's polyomino merge must be a valid maximal partition,
    // and the index's partition (derived by result) the same one.
    let swept = skyline_core::quadrant::sweeping::build(ds);
    let swept_merged = skyline_core::diagram::merge::merge(&swept);
    if let Err(v) = invariants::validate_merged_cells(&swept, &swept_merged) {
        fail(&format!("swept merge invariants: {v}"), spec);
    }
    if !same_partition(index.polyominoes(), &swept_merged)
        || index.polyominoes().len() != swept.results().len()
    {
        fail("derived partition vs merge", spec);
    }
    // Literal Algorithm 4 vs corner-key polyomino count (general position
    // only; bounded-domain rounds are skipped by the tie check inside).
    if let Ok(walks) = skyline_core::quadrant::algorithm4::build(ds) {
        let nonempty = swept_merged
            .iter()
            .filter(|p| !swept.results().get(p.result).is_empty())
            .count();
        if walks.len() != nonempty {
            fail("algorithm4-count", spec);
        }
    }
}

/// A standalone-container round trip must give back the dataset and a
/// diagram with the same results.
fn check_cell_roundtrip(what: &str, spec: &DatasetSpec, ds: &Dataset, diagram: &CellDiagram) {
    match container::decode_cell_diagram(&container::encode_cell_diagram(ds, diagram)) {
        Ok((dataset, decoded))
            if dataset.points() == ds.points() && decoded.same_results(diagram) => {}
        _ => fail(&format!("{what}-container-roundtrip"), spec),
    }
}

fn check_global(spec: &DatasetSpec, ds: &Dataset) {
    let reference = global::build(ds, QuadrantEngine::Baseline);
    if let Err(v) =
        invariants::validate_cell_diagram(ds, &reference, CellSemantics::Global, budget(spec.n))
    {
        fail(&format!("global invariants: {v}"), spec);
    }
    check_cell_roundtrip("global", spec, ds, &reference);
    if !global::build(ds, QuadrantEngine::Sweeping).same_results(&reference) {
        fail("global-sweeping", spec);
    }
    for threads in FUZZ_THREADS {
        if !global::build_with(
            ds,
            QuadrantEngine::Sweeping,
            &ParallelConfig::with_threads(threads),
        )
        .same_results(&reference)
        {
            fail(&format!("global-sweeping-threads-{threads}"), spec);
        }
    }
}

/// Local repair: a seed-derived run of inserts (new points and
/// duplicates) and removals (any id) must give, after every update, the
/// index a fresh build gives — byte for byte in the container — and
/// diagrams that pass the invariant suite.
fn check_repair(spec: &DatasetSpec, ds: &Dataset) {
    use skyline_core::container::encode_index;
    use skyline_core::geometry::{Point, PointId};
    use skyline_core::index::SkylineIndex;
    use skyline_core::maintained::Handle;
    use skyline_core::repair::Update;

    let cfg = ParallelConfig::sequential();
    let builder = SkylineIndex::builder().with_global(true);
    let mut index = builder.build_with(ds, &cfg);
    let mut state = spec.seed ^ 0x5e1f_4e9a_1c0d_e5ed;
    let mut draw = |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let domain = spec.domain as u64;
    for step in 0..6 {
        let len = index.dataset().len() as u64;
        let points = index.dataset().points();
        let mut next = |len: u64| match draw(3) {
            0 if len > 1 => Update::Remove(PointId(draw(len) as u32)),
            1 => Update::Insert(points[draw(points.len() as u64) as usize]),
            _ => Update::Insert(Point::new(draw(domain) as i64, draw(domain) as i64)),
        };
        // Every third step repairs a batch of two.
        let first = next(len);
        let mut updates = vec![first];
        if step % 3 == 2 {
            let len = if matches!(first, Update::Remove(_)) {
                len - 1
            } else {
                len + 1
            };
            updates.push(next(len));
        }
        let Some(repaired) = builder.repair(&index, &updates, &cfg) else {
            fail(&format!("repair refused {updates:?}"), spec);
        };
        let built = builder.build_with(repaired.dataset(), &cfg);
        let handles: Vec<Handle> = (0..built.dataset().len() as u64).map(Handle).collect();
        if encode_index(&repaired, &handles) != encode_index(&built, &handles) {
            fail(&format!("repair {updates:?} (step {step})"), spec);
        }
        let merged = skyline_core::diagram::merge::merge(repaired.quadrant_diagram());
        if repaired.polyominoes() != built.polyominoes()
            || !same_partition(repaired.polyominoes(), &merged)
        {
            fail(&format!("repaired partition (step {step})"), spec);
        }
        let budget = budget(repaired.dataset().len());
        for (diagram, semantics) in [
            (repaired.quadrant_diagram(), CellSemantics::Quadrant),
            (
                repaired.global_diagram().expect("repaired with global"),
                CellSemantics::Global,
            ),
        ] {
            if let Err(v) =
                invariants::validate_cell_diagram(repaired.dataset(), diagram, semantics, budget)
            {
                fail(&format!("repair invariants (step {step}): {v}"), spec);
            }
        }
        index = repaired;
    }
}

/// Whether two partitions hold the same `(result, cells)` polyominoes,
/// whatever their numbering.
fn same_partition(
    a: &skyline_core::diagram::MergedDiagram,
    b: &skyline_core::diagram::MergedDiagram,
) -> bool {
    fn sorted(m: &skyline_core::diagram::MergedDiagram) -> Vec<(u32, &[(u32, u32)])> {
        let mut polys: Vec<_> = m.iter().map(|p| (p.result.0, p.cells)).collect();
        polys.sort_unstable();
        polys
    }
    sorted(a) == sorted(b)
}

fn check_dynamic(spec: &DatasetSpec, ds: &Dataset) {
    let reference = DynamicEngine::Baseline.build(ds);
    if let Err(v) = invariants::validate_subcell_diagram(ds, &reference, budget(spec.n)) {
        fail(&format!("dynamic invariants: {v}"), spec);
    }
    for engine in DynamicEngine::ALL {
        if !engine.build(ds).same_results(&reference) {
            fail(engine.name(), spec);
        }
        for threads in FUZZ_THREADS {
            if !engine
                .build_with(ds, &ParallelConfig::with_threads(threads))
                .same_results(&reference)
            {
                fail(&format!("{}-threads-{threads}", engine.name()), spec);
            }
        }
    }
    let merged = skyline_core::diagram::merge::merge_subcells(&reference);
    if let Err(v) = invariants::validate_merged_subcells(&reference, &merged) {
        fail(&format!("dynamic merge invariants: {v}"), spec);
    }
    match container::decode_subcell_diagram(&container::encode_subcell_diagram(ds, &reference)) {
        Ok((dataset, decoded))
            if dataset.points() == ds.points() && decoded.same_results(&reference) => {}
        _ => fail("dynamic-container-roundtrip", spec),
    }
}

fn check_highd(spec: &DatasetSpec) {
    let ds = spec.build_d();
    let reference = HighDEngine::Baseline.build(&ds);
    for engine in HighDEngine::ALL {
        if !engine.build(&ds).same_results(&reference) {
            fail(engine.name(), spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.seconds, 10);
        assert_eq!(opts.repro_seed, None);
        assert!(!opts.help);
    }

    #[test]
    fn recognized_flags() {
        let opts = parse(&["--seconds", "30", "--seed", "42"]).unwrap();
        assert_eq!(opts.seconds, 30);
        assert_eq!(opts.repro_seed, Some(42));
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }

    #[test]
    fn unknown_arguments_are_errors_anywhere() {
        assert!(parse(&["--bogus"]).is_err());
        // A trailing unknown argument after a valid flag pair must also fail
        // — nothing on the line may be silently ignored.
        assert!(parse(&["--seconds", "5", "--bogus"]).is_err());
        assert!(parse(&["--seed", "1", "extra"]).is_err());
    }

    #[test]
    fn missing_or_malformed_values_are_errors() {
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "soon"]).is_err());
        assert!(parse(&["--seed", "-3"]).is_err());
    }
}
