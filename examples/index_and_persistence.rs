//! The facade + persistence workflow: build a [`SkylineIndex`], answer all
//! three query semantics, save the index to a snapshot container, and load
//! it back with full validation — the data-owner side of the outsourcing
//! story.
//!
//! ```text
//! cargo run -p skyline-examples --bin index_and_persistence
//! ```

use skyline_core::container::{decode_index, encode_index};
use skyline_core::geometry::Point;
use skyline_core::index::SkylineIndex;
use skyline_data::{DatasetSpec, Distribution};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DatasetSpec {
        n: 80,
        dims: 2,
        domain: 500,
        distribution: Distribution::Anticorrelated,
        seed: 2024,
    }
    .build_2d();

    // One call builds quadrant + global + dynamic diagrams and the
    // polyomino partition.
    let index = SkylineIndex::builder()
        .with_global(true)
        .with_dynamic(true)
        .build(&dataset);

    let q = Point::new(137, 222);
    println!("quadrant skyline at {q}: {:?}", index.quadrant(q));
    println!("global skyline at {q}:   {:?}", index.global(q));
    println!("dynamic skyline at {q}:  {:?}", index.dynamic(q));
    let zone = index.safe_zone(q);
    println!(
        "safe zone: {} cells, bbox {:?} — move anywhere inside without the result changing",
        zone.area(),
        zone.bounding_box()
    );

    // Persist the index. The container is versioned and checksummed: any
    // corruption fails decoding instead of producing wrong answers.
    let dir = std::path::Path::new("target/persistence-demo");
    std::fs::create_dir_all(dir)?;
    let bytes = encode_index(&index, &[]);
    std::fs::write(dir.join("index.skd"), &bytes)?;
    println!("\npersisted the index: {} B", bytes.len());

    // Reload: no diagram is rebuilt, and every answer survives.
    let reloaded = decode_index(&std::fs::read(dir.join("index.skd"))?)?.index;
    assert_eq!(reloaded.quadrant(q), index.quadrant(q));
    assert_eq!(reloaded.global(q), index.global(q));
    assert_eq!(reloaded.dynamic(q), index.dynamic(q));
    println!("reloaded index answers identically ✓");

    // Corruption demo: flip one byte, watch decoding refuse.
    let mut bad = bytes.clone();
    bad[bytes.len() / 2] ^= 0xFF;
    match decode_index(&bad) {
        Err(e) => println!("corrupted copy rejected: {e}"),
        Ok(_) => unreachable!("corruption must be detected"),
    }

    Ok(())
}
