//! Local repair against the build it replaces: after every update of a
//! seeded churn, the repaired index must equal a fresh build over the same
//! points in the same order id for id — quadrant and global cell ids,
//! result arenas, the polyomino partition (the one derived from the fresh
//! build's quadrant cells), and the container bytes.
//!
//! Coordinates come from a small domain, so grid lines are shared, points
//! are duplicated, and lines appear and vanish as the churn goes on.

use skyline_core::container::encode_index;
use skyline_core::diagram::merge::quadrant_partition;
use skyline_core::diagram::CellDiagram;
use skyline_core::geometry::{Dataset, Point, PointId};
use skyline_core::index::{SkylineIndex, SkylineIndexBuilder};
use skyline_core::maintained::Handle;
use skyline_core::parallel::ParallelConfig;
use skyline_core::repair::Update;

/// SplitMix64 step.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix(self.0);
        self.0 % n
    }

    fn point(&mut self, domain: u64) -> Point {
        Point::new(self.below(domain) as i64, self.below(domain) as i64)
    }
}

fn builder(global: bool) -> SkylineIndexBuilder {
    SkylineIndex::builder().with_global(global)
}

fn assert_same_diagram(what: &str, repaired: &CellDiagram, built: &CellDiagram) {
    assert_eq!(
        repaired.grid().x_lines(),
        built.grid().x_lines(),
        "{what}: x lines"
    );
    assert_eq!(
        repaired.grid().y_lines(),
        built.grid().y_lines(),
        "{what}: y lines"
    );
    assert_eq!(
        repaired.results().ends(),
        built.results().ends(),
        "{what}: ends"
    );
    assert_eq!(
        repaired.results().flat_ids(),
        built.results().flat_ids(),
        "{what}: flat ids"
    );
    assert_eq!(
        repaired.cell_results(),
        built.cell_results(),
        "{what}: cell ids"
    );
}

/// Asserts that `repaired` equals a fresh build of its own dataset.
fn assert_matches_build(repaired: &SkylineIndex, global: bool, context: &str) {
    let built = builder(global).build_with(repaired.dataset(), &ParallelConfig::sequential());
    assert_eq!(repaired.dataset(), built.dataset(), "{context}: dataset");
    assert_same_diagram(
        &format!("{context}: quadrant"),
        repaired.quadrant_diagram(),
        built.quadrant_diagram(),
    );
    if global {
        assert_same_diagram(
            &format!("{context}: global"),
            repaired.global_diagram().expect("repaired global"),
            built.global_diagram().expect("built global"),
        );
    }
    // The repaired partition is the one derived from the fresh build's
    // quadrant cells: polyomino k is the region of result k.
    let derived = quadrant_partition(built.quadrant_diagram())
        .expect("every quadrant result labels at least one cell");
    assert_eq!(repaired.polyominoes(), &derived, "{context}: polyominoes");
    assert_eq!(built.polyominoes(), &derived, "{context}: polyominoes");
    let handles: Vec<Handle> = (0..repaired.dataset().len() as u64).map(Handle).collect();
    assert!(
        encode_index(repaired, &handles) == encode_index(&built, &handles),
        "{context}: container bytes"
    );
}

/// One repair step that must succeed.
fn repaired(index: &SkylineIndex, global: bool, updates: &[Update]) -> SkylineIndex {
    builder(global)
        .repair(index, updates, &ParallelConfig::sequential())
        .expect("a non-empty dataset repairs")
}

/// A churn of single updates on a small domain; removals pick any id.
fn churn(seed: u64, n: usize, domain: u64, steps: usize, global: bool) {
    let mut rng = Rng(seed);
    let ds = Dataset::from_coords((0..n).map(|_| {
        let p = rng.point(domain);
        (p.x, p.y)
    }))
    .expect("valid coordinates");
    let mut index = builder(global).build_with(&ds, &ParallelConfig::sequential());
    for step in 0..steps {
        let len = index.dataset().len();
        let update = if len > 1 && (rng.below(2) == 0 || len > 2 * n) {
            Update::Remove(PointId(rng.below(len as u64) as u32))
        } else if rng.below(4) == 0 {
            // A duplicate of a live point.
            let id = PointId(rng.below(len as u64) as u32);
            Update::Insert(index.dataset().point(id))
        } else {
            Update::Insert(rng.point(domain))
        };
        index = repaired(&index, global, &[update]);
        assert_matches_build(
            &index,
            global,
            &format!("seed {seed} step {step}: {update:?}"),
        );
    }
}

#[test]
fn quadrant_churn_matches_build_on_tied_coordinates() {
    for seed in 0..6 {
        churn(seed, 14, 9, 60, false);
    }
}

#[test]
fn global_churn_matches_build_on_tied_coordinates() {
    for seed in 0..6 {
        churn(100 + seed, 14, 9, 60, true);
    }
}

#[test]
fn churn_on_a_wider_domain_matches_build() {
    for seed in 0..3 {
        churn(200 + seed, 40, 60, 30, true);
    }
}

#[test]
fn middle_removals_and_vanishing_lines_match_build() {
    // (3, 3) alone on both its lines: removing it deletes a row and a
    // column. (5, 1) shares x with (5, 7): its x line persists.
    let ds = Dataset::from_coords([(1, 6), (3, 3), (5, 1), (5, 7), (7, 5), (2, 9)]).unwrap();
    let index = builder(true).build_with(&ds, &ParallelConfig::sequential());
    for id in 0..ds.len() as u32 {
        let next = repaired(&index, true, &[Update::Remove(PointId(id))]);
        assert_eq!(next.dataset().len(), ds.len() - 1);
        assert_matches_build(&next, true, &format!("remove {id}"));
    }
}

#[test]
fn duplicates_of_the_updated_point_match_build() {
    let ds = Dataset::from_coords([(4, 4), (4, 4), (2, 6), (6, 2), (4, 8)]).unwrap();
    let index = builder(true).build_with(&ds, &ParallelConfig::sequential());
    let with_third = repaired(&index, true, &[Update::Insert(Point::new(4, 4))]);
    assert_matches_build(&with_third, true, "insert a third copy");
    for id in [0, 1, 5] {
        let next = repaired(&with_third, true, &[Update::Remove(PointId(id))]);
        assert_matches_build(&next, true, &format!("remove copy {id}"));
    }
}

#[test]
fn one_point_and_empty_transitions() {
    let ds = Dataset::from_coords([(3, 3)]).unwrap();
    let one = builder(true).build_with(&ds, &ParallelConfig::sequential());
    // 1 → 0 cannot be repaired: there is no empty index.
    assert!(builder(true)
        .repair(
            &one,
            &[Update::Remove(PointId(0))],
            &ParallelConfig::sequential()
        )
        .is_none());
    // 1 → 2 → 1, in both orders, and a batch through two points.
    let two = repaired(&one, true, &[Update::Insert(Point::new(1, 5))]);
    assert_matches_build(&two, true, "1 -> 2");
    for id in [0, 1] {
        let back = repaired(&two, true, &[Update::Remove(PointId(id))]);
        assert_matches_build(&back, true, &format!("2 -> 1, remove {id}"));
    }
    let batch = repaired(
        &one,
        true,
        &[Update::Insert(Point::new(1, 5)), Update::Remove(PointId(0))],
    );
    assert_matches_build(&batch, true, "batch 1 -> 2 -> 1");
    // A batch that passes through the empty set is refused as a whole.
    assert!(builder(true)
        .repair(
            &one,
            &[Update::Remove(PointId(0)), Update::Insert(Point::new(2, 2))],
            &ParallelConfig::sequential()
        )
        .is_none());
}

#[test]
fn batches_match_build() {
    let mut rng = Rng(77);
    let ds = Dataset::from_coords((0..30).map(|_| {
        let p = rng.point(12);
        (p.x, p.y)
    }))
    .unwrap();
    let mut index = builder(true).build_with(&ds, &ParallelConfig::sequential());
    for round in 0..10 {
        let mut len = index.dataset().len();
        let updates: Vec<Update> = (0..4)
            .map(|_| {
                if rng.below(2) == 0 {
                    len -= 1;
                    Update::Remove(PointId(rng.below(len as u64 + 1) as u32))
                } else {
                    len += 1;
                    Update::Insert(rng.point(12))
                }
            })
            .collect();
        index = repaired(&index, true, &updates);
        assert_matches_build(&index, true, &format!("round {round}"));
    }
}

#[test]
fn other_engines_and_missing_global_are_not_repaired() {
    use skyline_core::quadrant::QuadrantEngine;
    let ds = Dataset::from_coords([(1, 2), (2, 1)]).unwrap();
    let cfg = ParallelConfig::sequential();
    let index = SkylineIndex::builder().build_with(&ds, &cfg);
    let insert = [Update::Insert(Point::new(0, 0))];
    assert!(SkylineIndex::builder()
        .engine(QuadrantEngine::Scanning)
        .repair(&index, &insert, &cfg)
        .is_none());
    assert!(builder(true).repair(&index, &insert, &cfg).is_none());
    assert!(builder(false).repair(&index, &[], &cfg).is_none());
}
