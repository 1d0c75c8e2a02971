//! Golden-fixture test for the snapshot container: a small canonical
//! `.skd` file is committed under `tests/fixtures/` and must load
//! byte-exactly forever — any change to the on-disk encoding without a
//! version bump fails here (and CI additionally fails if the fixture file
//! itself is regenerated or a new one added in a commit that does not bump
//! the version).
//!
//! `hotel_v2.skd` is the current major. `hotel_v1.skd` is the same index
//! under major 1, which stored the polyomino partition as section 4; it
//! stays committed as the fixture every reader must refuse with
//! `Error::BadVersion(1)`.
//!
//! To regenerate after an *intentional* format change (major bump):
//!
//! ```text
//! SKYLINE_REGEN_FIXTURE=1 cargo test -p skyline-core --test container_golden -- --ignored
//! ```

use std::path::PathBuf;

use skyline_core::container::{
    decode_index, encode_index, sections, Error, MAJOR_VERSION, MINOR_VERSION,
};
use skyline_core::geometry::Dataset;
use skyline_core::index::SkylineIndex;
use skyline_core::maintained::Handle;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hotel_v2.skd")
}

fn v1_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hotel_v1.skd")
}

/// The paper's running example (hotels: price vs distance), full flags.
/// Everything here is deterministic, so re-encoding must reproduce the
/// committed fixture bit for bit.
fn golden_bytes() -> Vec<u8> {
    let ds = Dataset::from_coords([(2, 9), (3, 4), (5, 6), (6, 2), (8, 5), (9, 1)])
        .expect("hotel coordinates are valid");
    let index = SkylineIndex::builder()
        .with_global(true)
        .with_dynamic(true)
        .build(&ds);
    let handles: Vec<Handle> = (0..ds.len() as u64).map(|i| Handle(100 + i)).collect();
    encode_index(&index, &handles)
}

#[test]
fn fixture_is_byte_exact() {
    let committed = std::fs::read(fixture_path())
        .expect("tests/fixtures/hotel_v2.skd must be committed alongside this test");
    assert_eq!(
        golden_bytes(),
        committed,
        "the container encoding changed: either revert the format change or \
         bump MAJOR_VERSION and regenerate the fixture (see module docs)"
    );
}

#[test]
fn fixture_loads_and_answers() {
    let committed = std::fs::read(fixture_path()).expect("fixture file readable");
    assert_eq!(sections(&committed).unwrap().len(), 10);
    let loaded = decode_index(&committed).expect("committed fixture must decode");
    assert_eq!(loaded.index.dataset().len(), 6);
    assert_eq!(loaded.handles.first(), Some(&Handle(100)));
    assert!(loaded.index.global_diagram().is_some());
    assert!(loaded.index.dynamic_diagram().is_some());
    let quadrant = loaded.index.quadrant_diagram();
    assert_eq!(loaded.index.polyominoes().len(), quadrant.results().len());
}

/// Major 1 stored the polyomino partition, which this reader derives
/// instead: the committed v1 file is refused by version, before any
/// checksum is read, whatever its payloads hold.
#[test]
fn v1_fixture_is_refused_with_a_version_error() {
    let v1 = std::fs::read(v1_fixture_path()).expect("tests/fixtures/hotel_v1.skd is committed");
    assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), 1);
    assert_eq!(decode_index(&v1).unwrap_err(), Error::BadVersion(1));
    assert_eq!(sections(&v1).unwrap_err(), Error::BadVersion(1));
    let mut corrupt = v1.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    corrupt[20] ^= 1;
    assert_eq!(decode_index(&corrupt).unwrap_err(), Error::BadVersion(1));
}

#[test]
fn fixture_records_the_current_version() {
    let committed = std::fs::read(fixture_path()).expect("fixture file readable");
    let major = u16::from_le_bytes(committed[4..6].try_into().unwrap());
    let minor = u16::from_le_bytes(committed[6..8].try_into().unwrap());
    assert_eq!((major, minor), (MAJOR_VERSION, MINOR_VERSION));
}

/// The forward-compat contract from the header rustdoc: a reader presented
/// with a *newer major* version reports a version error (not corruption),
/// because the major is validated before any checksum.
#[test]
fn bumped_major_version_is_a_version_error() {
    let mut committed = std::fs::read(fixture_path()).expect("fixture file readable");
    let next = MAJOR_VERSION + 1;
    committed[4..6].copy_from_slice(&next.to_le_bytes());
    assert_eq!(
        decode_index(&committed).unwrap_err(),
        Error::BadVersion(next)
    );
}

/// Regenerates the committed fixture. Ignored by default; only meaningful
/// together with an intentional `MAJOR_VERSION` bump.
#[test]
#[ignore = "writes tests/fixtures/hotel_v2.skd; run only on an intentional format change"]
fn regenerate_fixture() {
    if std::env::var_os("SKYLINE_REGEN_FIXTURE").is_none() {
        eprintln!("set SKYLINE_REGEN_FIXTURE=1 to actually rewrite the fixture");
        return;
    }
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures directory creatable");
    std::fs::write(&path, golden_bytes()).expect("fixture file writable");
}
