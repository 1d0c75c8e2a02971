//! Differential suite for the planar dynamic engines: the incremental
//! scanning engine must produce the baseline's diagram id for id — equal
//! `cell_results()`, and an equal result arena (`flat_ids()`, `ends()`) —
//! across the bitset word boundaries (n = 63, 64, 65, 128, 129) and at
//! threads {0, 1, 4}. Tiny coordinate domains keep the subcell grids small
//! while forcing duplicate points and coincident bisectors with more than
//! two contributors per line; a dataset near `MAX_COORD` catches any
//! narrowing of the `|4·p − s|` distances.

use skyline_core::dynamic::{DynamicEngine, SubcellDiagram};
use skyline_core::geometry::{Dataset, MAX_COORD};
use skyline_core::parallel::ParallelConfig;

const THREADS: [usize; 3] = [0, 1, 4];

fn config(threads: usize) -> ParallelConfig {
    if threads == 0 {
        ParallelConfig::sequential()
    } else {
        ParallelConfig::with_threads(threads)
    }
}

/// `n` points with coordinates in `0..domain`, from a fixed LCG.
fn lcg_points(n: usize, domain: u64, seed: u64) -> Vec<(i64, i64)> {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        i64::try_from((state >> 33) % domain).expect("domain fits in i64")
    };
    (0..n).map(|_| (next(), next())).collect()
}

fn assert_identical(a: &SubcellDiagram, b: &SubcellDiagram, what: &str) {
    assert_eq!(a.grid().x_lines(), b.grid().x_lines(), "{what}: x lines");
    assert_eq!(a.grid().y_lines(), b.grid().y_lines(), "{what}: y lines");
    assert_eq!(a.cell_results(), b.cell_results(), "{what}: cell ids");
    assert_eq!(
        a.results().flat_ids(),
        b.results().flat_ids(),
        "{what}: ids"
    );
    assert_eq!(a.results().ends(), b.results().ends(), "{what}: ends");
}

fn check_against_baseline(ds: &Dataset, what: &str) {
    let reference = DynamicEngine::Baseline.build_with(ds, &ParallelConfig::sequential());
    for threads in THREADS {
        let scanning = DynamicEngine::Scanning.build_with(ds, &config(threads));
        assert_identical(&scanning, &reference, &format!("{what}, threads {threads}"));
    }
}

#[test]
fn scanning_matches_baseline_across_word_boundaries() {
    for n in [63, 64, 65, 128, 129] {
        for seed in 0..2 {
            let ds = Dataset::from_coords(lcg_points(n, 6, seed)).expect("small coordinates");
            check_against_baseline(&ds, &format!("n {n}, domain 6, seed {seed}"));
        }
    }
}

#[test]
fn scanning_matches_baseline_on_wider_domains_past_one_word() {
    for (n, domain) in [(65, 24), (129, 16)] {
        let ds = Dataset::from_coords(lcg_points(n, domain, 3)).expect("small coordinates");
        check_against_baseline(&ds, &format!("n {n}, domain {domain}"));
    }
}

#[test]
fn tiny_domains_force_multi_contributor_lines() {
    // The premise of the suite above: lines with more than two contributors
    // (coincident bisectors, duplicate points) are common at domain 6.
    let ds = Dataset::from_coords(lcg_points(64, 6, 0)).expect("small coordinates");
    let d = DynamicEngine::Scanning.build_with(&ds, &ParallelConfig::sequential());
    let widest = (0..d.grid().mx())
        .map(|i| d.grid().x_contributors(i).len())
        .max()
        .expect("a non-empty dataset has lines");
    assert!(widest > 2, "widest line has {widest} contributors");
}

#[test]
fn scanning_is_exact_near_max_coord() {
    let m = MAX_COORD;
    // Distances reach 8·MAX_COORD; values that differ only above bit 32
    // collide if the distances are ever narrowed.
    let coords = [
        (m, -m),
        (-m, m),
        (m - 1, m - (1 << 33)),
        (m - (1 << 33), m - 1),
        (0, 0),
        (-m + (1 << 32), 3),
        (5, -m + (1 << 34)),
        (m, m),
        (-m, -m),
        (m - (1 << 40), -(1 << 35)),
    ];
    let ds = Dataset::from_coords(coords).expect("coordinates within MAX_COORD");
    check_against_baseline(&ds, "near MAX_COORD");
}

#[test]
fn all_three_engines_produce_identical_diagrams() {
    for (n, domain, seed) in [(12, 30, 5), (40, 6, 1), (70, 10, 2)] {
        let ds = Dataset::from_coords(lcg_points(n, domain, seed)).expect("small coordinates");
        let reference = DynamicEngine::Baseline.build_with(&ds, &ParallelConfig::sequential());
        for engine in DynamicEngine::ALL {
            let d = engine.build_with(&ds, &ParallelConfig::sequential());
            assert_identical(
                &d,
                &reference,
                &format!("{} on n {n}, domain {domain}", engine.name()),
            );
        }
    }
}
