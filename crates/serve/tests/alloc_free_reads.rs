//! Diagram answers allocate nothing once their arena slots are filled.
//!
//! This is the only test in its binary: the counting allocator is
//! process-wide, and a concurrently running test would fold its own
//! allocations into the measured pass.

use skyline_core::geometry::{Dataset, Point};
use skyline_core::telemetry::mem;
use skyline_serve::{ServerOptions, SkylineServer, Snapshot};

/// Sum of answer lengths over one pass of all three families.
fn pass(snap: &Snapshot, queries: &[Point]) -> usize {
    queries
        .iter()
        .map(|&q| snap.quadrant(q).len() + snap.global(q).len() + snap.dynamic(q).len())
        .sum()
}

#[test]
fn second_pass_of_diagram_answers_allocates_nothing() {
    if !mem::enabled() {
        eprintln!("skipped: the counting allocator is compiled out (mem-telemetry off)");
        return;
    }
    let coords: Vec<(i64, i64)> = (0..24_i64)
        .map(|i| ((i * 37) % 97, (i * 61) % 89))
        .collect();
    let ds = Dataset::from_coords(coords).expect("valid coords");
    let options = ServerOptions {
        with_global: true,
        with_dynamic: true,
        ..ServerOptions::default()
    };
    let (server, _) = SkylineServer::with_dataset(&ds, options);
    let snap = server.latest();
    // Grid lines, bisectors and interiors alike.
    let queries: Vec<Point> = (-2..100)
        .step_by(3)
        .flat_map(|x| (-2..100).step_by(5).map(move |y| Point::new(x, y)))
        .collect();

    let warm = pass(&snap, &queries);
    let filled = snap.cache_stats();
    assert!(filled.misses > 0, "the warm pass fills slots");

    let before = mem::stats();
    let again = pass(&snap, &queries);
    let after = mem::stats();

    assert_eq!(again, warm);
    assert_eq!(after.allocs - before.allocs, 0, "allocation events");
    assert_eq!(after.alloc_bytes - before.alloc_bytes, 0, "allocated bytes");
    let stats = snap.cache_stats();
    assert_eq!(stats.misses, filled.misses, "no slot filled twice");
    assert_eq!(
        stats.hits - filled.hits,
        3 * queries.len() as u64,
        "every answer borrowed a filled slot"
    );
}
