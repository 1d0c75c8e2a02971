//! Serving: share one skyline index between writers and lock-free readers.
//!
//! ```text
//! cargo run -p skyline-examples --bin serving
//! ```
//!
//! The serving layer keeps a [`skyline_core::index::SkylineIndex`] in an
//! epoch-swapped snapshot chain: readers pin an immutable snapshot and
//! answer every query without taking a lock, while writers batch updates
//! and publish a new epoch — repaired from the last one when the batch is
//! small ([`skyline_core::repair`]) — with a single pointer swap. A reader
//! keeps seeing its pinned epoch until it asks for a newer one — queries
//! are repeatable by construction.

use skyline_core::geometry::{Dataset, Point};
use skyline_core::parallel::{self, ParallelConfig};
use skyline_serve::{QueryMix, ServerOptions, SkylineServer, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load a dataset and stand up a server that also builds the global
    //    diagram.
    let dataset = Dataset::from_coords([(2, 14), (4, 9), (7, 7), (9, 3), (13, 2), (6, 12)])?;
    let options = ServerOptions {
        with_global: true,
        ..ServerOptions::default()
    };
    let (server, handles) = SkylineServer::with_dataset(&dataset, options);
    println!(
        "serving {} points at epoch {}",
        server.len(),
        server.epoch()
    );

    // 2. A reader pins the current snapshot. Every answer below comes from
    //    this immutable epoch — no locks, no torn reads.
    let mut reader = server.reader();
    let snapshot = reader.snapshot();
    let q = Point::new(2, 2);
    println!(
        "epoch {}: quadrant skyline at {q} = {:?}",
        snapshot.epoch(),
        snapshot.quadrant(q)
    );

    // 3. Writers mutate through the server. Updates stay invisible until a
    //    refresh publishes the next epoch.
    let added = server.insert(Point::new(3, 3));
    server.remove(handles[0]);
    assert_eq!(snapshot.quadrant(q), server.latest().quadrant(q));
    let epoch = server.refresh();
    println!("published epoch {epoch} (inserted {added:?}, removed one)");

    // 4. The pinned snapshot still answers from its epoch; hopping to the
    //    new one shows the dominating point (3, 3) take over the answer.
    let before = snapshot.quadrant(q);
    // Answers borrow from their snapshot, so keep the new one bound.
    let latest = reader.snapshot();
    let after = latest.quadrant(q);
    println!("before: {before:?}  after: {after:?}");
    assert_ne!(before, after);

    // 5. Readers fan out on the deterministic scoped pool; each answer
    //    borrows the diagram's handle arena, which maps each
    //    distinct result to handles once (a "fill") and serves every
    //    repeat without allocating (a "hit").
    let snap = server.latest();
    let answers = parallel::map_indexed(&ParallelConfig::with_threads(4), 64, |i| {
        let p = Point::new((i % 8) as i64 * 2 + 1, (i / 8) as i64 * 2 + 1);
        snap.quadrant(p).len()
    });
    let stats = snap.cache_stats();
    println!(
        "64 parallel queries -> {} results, arena {} hits / {} fills",
        answers.len(),
        stats.hits,
        stats.misses
    );

    // 6. The bundled workload driver measures serving throughput the same
    //    way `skydiag serve-bench` and experiment E12 do.
    let spec = WorkloadSpec {
        readers: 2,
        rounds: 2,
        queries_per_reader: 200,
        updates_per_round: 2,
        domain: 16,
        seed: 7,
        mix: QueryMix::default(),
    };
    let report = skyline_serve::workload::run(&server, &spec, &handles[1..]);
    println!(
        "workload: {} queries in {:.1} ms ({:.0} q/s), {} epochs, checksum {:#018x}",
        report.queries,
        report.elapsed_ms,
        report.queries_per_sec(),
        report.epochs_published,
        report.checksum
    );

    Ok(())
}
