//! Differential suite for the handle-arena read path: every diagram answer
//! a snapshot borrows from its arenas equals the `skyline_core::query`
//! oracle mapped through the snapshot's handle table — on built and on
//! cold-started snapshots, with queries exactly on grid lines and
//! bisectors, degenerate datasets, and a restored handle table that is not
//! in id order.
//!
//! # Boundary discipline
//!
//! Every dataset coordinate is a multiple of 4 and every query coordinate
//! is even, so queries hit grid lines (multiples of 4) and bisector lines
//! (even) on purpose. Quadrant lookups are exact on grid lines. Global and
//! dynamic lookups on a line answer for the greater-side cell (see the
//! `skyline_core::query` module docs), so they are checked against the
//! oracle at `q + (1, 1)`: odd, hence on no line, and still inside the
//! cell or subcell the lookup chose.

use skyline_core::geometry::{Dataset, Point, PointId};
use skyline_core::maintained::Handle;
use skyline_core::query;
use skyline_serve::{CacheStats, ServerOptions, SkylineServer, Snapshot};

fn options() -> ServerOptions {
    ServerOptions {
        with_global: true,
        with_dynamic: true,
        ..ServerOptions::default()
    }
}

/// `ids` mapped through the snapshot's handle table, sorted.
fn as_handles(snap: &Snapshot, ids: Vec<PointId>) -> Vec<Handle> {
    let handles = snap.handles();
    let mut out: Vec<Handle> = ids.into_iter().map(|id| handles[id.index()]).collect();
    out.sort_unstable();
    out
}

/// Every even query point over the data's bounding box, widened by one
/// grid step on each side.
fn even_queries(ds: &Dataset) -> Vec<Point> {
    let xs = ds.points().iter().map(|p| p.x);
    let ys = ds.points().iter().map(|p| p.y);
    let (x0, x1) = (xs.clone().min().unwrap() - 4, xs.max().unwrap() + 4);
    let (y0, y1) = (ys.clone().min().unwrap() - 4, ys.max().unwrap() + 4);
    (x0..=x1)
        .step_by(2)
        .flat_map(|x| (y0..=y1).step_by(2).map(move |y| Point::new(x, y)))
        .collect()
}

/// Checks all three families at every even query, twice (the second pass
/// reads filled slots), and that the answers were arena-served.
fn check_snapshot(snap: &Snapshot, label: &str) {
    let ds = snap.dataset().expect("populated snapshot");
    let queries = even_queries(ds);
    for pass in 0..2 {
        for &q in &queries {
            let beyond = Point::new(q.x + 1, q.y + 1);
            let quadrant = snap.quadrant(q);
            assert!(quadrant.windows(2).all(|w| w[0] < w[1]), "{label}: sorted");
            assert_eq!(
                *quadrant,
                *as_handles(snap, query::quadrant_skyline(ds, q)),
                "{label}: quadrant at {q}, pass {pass}"
            );
            assert_eq!(
                *snap.global(q),
                *as_handles(snap, query::global_skyline(ds, beyond)),
                "{label}: global at {q}, pass {pass}"
            );
            assert_eq!(
                *snap.dynamic(q),
                *as_handles(snap, query::dynamic_skyline(ds, beyond)),
                "{label}: dynamic at {q}, pass {pass}"
            );
        }
    }
    let stats = snap.cache_stats();
    assert_eq!(
        stats.lookups(),
        6 * queries.len() as u64,
        "{label}: every answer went through an arena"
    );
    let index = snap.index().expect("populated snapshot");
    let distinct = index.quadrant_diagram().results().len()
        + index.global_diagram().map_or(0, |d| d.results().len())
        + index.dynamic_diagram().map_or(0, |d| d.results().len());
    assert!(
        stats.misses as usize <= distinct,
        "{label}: at most one fill per interned result"
    );
}

/// Checks a built server's epoch and a server cold-started from its
/// container.
fn check_built_and_cold(coords: &[(i64, i64)], label: &str) {
    let ds = Dataset::from_coords(coords.iter().copied()).expect("valid coords");
    let (built, _) = SkylineServer::with_dataset(&ds, options());
    let snap = built.latest();
    check_snapshot(&snap, &format!("{label} (built)"));
    let bytes = snap.to_container().expect("populated");
    let (cold, _) = SkylineServer::from_container(&bytes, options()).expect("valid container");
    check_snapshot(&cold.latest(), &format!("{label} (cold start)"));
}

#[test]
fn single_point() {
    check_built_and_cold(&[(8, 12)], "n=1");
}

#[test]
fn duplicate_x_and_y_coordinates() {
    check_built_and_cold(
        &[
            (4, 8),
            (4, 20),
            (12, 8),
            (12, 20),
            (20, 4),
            (8, 16),
            (20, 16),
        ],
        "shared coordinates",
    );
}

#[test]
fn small_lcg_datasets() {
    let mut state = 0x5eed_u64;
    for round in 0..4 {
        let mut coords: Vec<(i64, i64)> = Vec::new();
        while coords.len() < 10 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A 9x9 lattice of multiples of 4 forces many shared x and y.
            let p = (
                4 * ((state >> 33) % 9) as i64,
                4 * ((state >> 45) % 9) as i64,
            );
            if !coords.contains(&p) {
                coords.push(p);
            }
        }
        check_built_and_cold(&coords, &format!("lcg round {round}"));
    }
}

#[test]
fn empty_snapshot_borrows_empty_answers() {
    let server = SkylineServer::new(options());
    let snap = server.latest();
    let q = Point::new(4, 4);
    for answer in [snap.quadrant(q), snap.global(q), snap.dynamic(q)] {
        assert!(answer.is_empty());
        assert!(matches!(answer, std::borrow::Cow::Borrowed(_)));
    }
    assert_eq!(snap.cache_stats(), CacheStats::default());
    assert_eq!(snap.heap_bytes(), 0);
}

#[test]
fn restored_handle_table_out_of_id_order_still_answers_sorted() {
    let coords = [(4, 28), (8, 16), (16, 12), (24, 4), (12, 24), (20, 20)];
    let ds = Dataset::from_coords(coords).expect("valid coords");
    let (built, _) = SkylineServer::with_dataset(&ds, options());
    let index = built.latest().index().expect("populated").clone();
    // Handles descending in id order: every mapped multi-point answer
    // comes out reversed until the arena sorts it.
    let reversed: Vec<Handle> = (0..coords.len() as u64).rev().map(Handle).collect();
    let bytes = skyline_core::container::encode_index(&index, &reversed);
    let (cold, handles) = SkylineServer::from_container(&bytes, options()).expect("valid");
    assert_eq!(handles, reversed);
    let snap = cold.latest();
    assert_eq!(snap.handles(), reversed.as_slice());
    check_snapshot(&snap, "reversed handles");
    // The origin sees the whole quadrant skyline: several handles, sorted.
    let origin = snap.quadrant(Point::new(0, 0));
    assert!(origin.len() > 1);
    assert!(origin.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn fallbacks_are_owned_and_bypass_the_arenas() {
    let ds = Dataset::from_coords([(4, 12), (12, 4), (8, 8)]).expect("valid coords");
    let (server, _) = SkylineServer::with_dataset(&ds, ServerOptions::default());
    let snap = server.latest();
    let q = Point::new(2, 2);
    assert!(matches!(snap.quadrant(q), std::borrow::Cow::Borrowed(_)));
    let global = snap.global(q);
    assert!(matches!(global, std::borrow::Cow::Owned(_)));
    assert_eq!(*global, *as_handles(&snap, query::global_skyline(&ds, q)));
    let dynamic = snap.dynamic(q);
    assert!(matches!(dynamic, std::borrow::Cow::Owned(_)));
    assert_eq!(*dynamic, *as_handles(&snap, query::dynamic_skyline(&ds, q)));
    assert_eq!(snap.cache_stats().lookups(), 1, "only the quadrant answer");
}
