//! Corruption suite for the snapshot container (`skyline_core::container`),
//! over all three kinds of file it holds — an index, a standalone cell
//! diagram and a standalone subcell diagram: **every** single-bit flip,
//! truncation at every section boundary, trailing junk, section-directory
//! offset/length and flag tampering (with the checksums *recomputed*, so
//! only structural validation can catch it), kind confusion, and plain
//! checksum mismatches must all be rejected with a typed [`Error`] — never
//! a panic, never an out-of-bounds access.

use proptest::prelude::*;

use skyline_core::container::{
    decode_cell_diagram, decode_index, decode_subcell_diagram, encode_cell_diagram, encode_index,
    encode_subcell_diagram, kind, sections, Error, Kind,
};
use skyline_core::dynamic::DynamicEngine;
use skyline_core::geometry::Dataset;
use skyline_core::global;
use skyline_core::index::SkylineIndex;
use skyline_core::maintained::Handle;
use skyline_core::quadrant::QuadrantEngine;

const HEADER_LEN: usize = 16;
const DIR_ENTRY_LEN: usize = 32;

fn mixed_dataset() -> Dataset {
    Dataset::from_coords([(1, 9), (4, 4), (9, 1), (6, 7), (2, 2)])
        .expect("coordinates are tiny and valid")
}

/// A canonical full container: all ten sections present (dataset,
/// quadrant, global, dynamic, handles) over a small mixed dataset.
fn canonical_bytes() -> Vec<u8> {
    let ds = mixed_dataset();
    let index = SkylineIndex::builder()
        .with_global(true)
        .with_dynamic(true)
        .build(&ds);
    let handles: Vec<Handle> = (0..ds.len() as u64).map(Handle).collect();
    encode_index(&index, &handles)
}

/// A standalone cell container (dataset, diagram results, diagram cells):
/// the global diagram of the same dataset.
fn cell_bytes() -> Vec<u8> {
    let ds = mixed_dataset();
    encode_cell_diagram(&ds, &global::build(&ds, QuadrantEngine::Sweeping))
}

/// A standalone subcell container: the dataset plus the dynamic group.
fn subcell_bytes() -> Vec<u8> {
    let ds = mixed_dataset();
    encode_subcell_diagram(&ds, &DynamicEngine::Scanning.build(&ds))
}

type Decode = fn(&[u8]) -> Result<(), Error>;

fn index_decode(bytes: &[u8]) -> Result<(), Error> {
    decode_index(bytes).map(|_| ())
}

fn cell_decode(bytes: &[u8]) -> Result<(), Error> {
    decode_cell_diagram(bytes).map(|_| ())
}

fn subcell_decode(bytes: &[u8]) -> Result<(), Error> {
    decode_subcell_diagram(bytes).map(|_| ())
}

/// Every kind of container: its name, canonical bytes, section count and
/// decoder.
fn kinds() -> [(&'static str, Vec<u8>, usize, Decode); 3] {
    [
        ("index", canonical_bytes(), 10, index_decode),
        ("cell diagram", cell_bytes(), 3, cell_decode),
        ("subcell diagram", subcell_bytes(), 5, subcell_decode),
    ]
}

/// The container's word-wise FNV-1a 64 (8-byte little-endian words,
/// zero-padded tail), reimplemented here so the tamper-then-fix cases can
/// forge valid checksums over corrupted content.
fn fnv64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn section_count(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize
}

fn dir_end(bytes: &[u8]) -> usize {
    HEADER_LEN + DIR_ENTRY_LEN * section_count(bytes)
}

/// Recomputes the header checksum after tampering with header/directory
/// bytes, so structural validation (not the checksum) must do the reject.
fn fix_header_checksum(bytes: &mut [u8]) {
    let end = dir_end(bytes);
    let sum = fnv64(&bytes[..end]);
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Recomputes directory entry `k`'s payload checksum from the bytes its
/// (possibly tampered) extent currently covers, then re-fixes the header
/// checksum that covers the directory.
fn fix_section_checksum(bytes: &mut [u8], k: usize) {
    let entry = HEADER_LEN + k * DIR_ENTRY_LEN;
    let offset = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    let length = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
    let sum = fnv64(&bytes[offset..offset + length]);
    bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    fix_header_checksum(bytes);
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for (kind, bytes, _, decode) in kinds() {
        assert!(decode(&bytes).is_ok(), "the canonical {kind} decodes");
        let mut rejected = 0usize;
        let mut bad = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bad[i] ^= 1 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "{kind}: flip of byte {i} bit {bit} was accepted"
                );
                rejected += 1;
                bad[i] ^= 1 << bit;
            }
        }
        // 100% of injected mutations rejected (the acceptance criterion).
        assert_eq!(rejected, bytes.len() * 8, "{kind}");
    }
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    for (kind, bytes, count, decode) in kinds() {
        let dir = sections(&bytes).unwrap();
        assert_eq!(
            dir.len(),
            count,
            "the canonical {kind} has all its sections"
        );
        let payload_start = dir[0].offset as usize;
        let mut cuts = vec![0, 4, 8, 12, HEADER_LEN, payload_start - 8, payload_start];
        cuts.extend(dir.iter().map(|s| (s.offset + s.length) as usize));
        let full = cuts.pop().unwrap();
        assert_eq!(full, bytes.len(), "the last boundary is the full file");
        for cut in cuts {
            let got = decode(&bytes[..cut]);
            assert!(
                matches!(
                    got,
                    Err(Error::Truncated) | Err(Error::HeaderChecksumMismatch)
                ),
                "{kind}: truncation at {cut} gave {got:?}"
            );
        }
    }
}

#[test]
fn payload_corruption_names_the_corrupted_section() {
    let bytes = canonical_bytes();
    for s in sections(&bytes).unwrap() {
        let mut bad = bytes.clone();
        let mid = (s.offset + s.length / 2) as usize;
        bad[mid] ^= 0x40;
        assert_eq!(
            decode_index(&bad).unwrap_err(),
            Error::SectionChecksumMismatch(s.id),
            "corruption in section {} misattributed",
            s.name
        );
    }
}

#[test]
fn version_and_magic_are_checked_before_any_checksum() {
    let bytes = canonical_bytes();
    // A bumped major version is a version error, not corruption — even
    // though the header checksum no longer matches either.
    let mut bumped = bytes.clone();
    bumped[4] = 9;
    assert_eq!(decode_index(&bumped).unwrap_err(), Error::BadVersion(9));
    // ...and stays a version error when the checksum is forged to match.
    fix_header_checksum(&mut bumped);
    assert_eq!(decode_index(&bumped).unwrap_err(), Error::BadVersion(9));
    let mut magic = bytes;
    magic[0] = b'Z';
    assert_eq!(decode_index(&magic).unwrap_err(), Error::BadMagic);
}

#[test]
fn directory_offset_overlap_is_rejected_with_fixed_checksums() {
    let bytes = canonical_bytes();
    // Pull section 1's payload 4 bytes back into section 0's extent and
    // forge both checksum layers: only the contiguity validation is left
    // to refuse the overlap.
    let mut bad = bytes;
    let entry = HEADER_LEN + DIR_ENTRY_LEN;
    let offset = u64::from_le_bytes(bad[entry + 8..entry + 16].try_into().unwrap());
    bad[entry + 8..entry + 16].copy_from_slice(&(offset - 4).to_le_bytes());
    fix_section_checksum(&mut bad, 1);
    assert!(matches!(decode_index(&bad).unwrap_err(), Error::Invalid(_)));
}

#[test]
fn directory_length_tampering_is_rejected_with_fixed_checksums() {
    let bytes = canonical_bytes();
    let n = section_count(&bytes);
    // Growing the last section past the buffer: Truncated.
    let mut grown = bytes.clone();
    let entry = HEADER_LEN + (n - 1) * DIR_ENTRY_LEN;
    let length = u64::from_le_bytes(grown[entry + 16..entry + 24].try_into().unwrap());
    grown[entry + 16..entry + 24].copy_from_slice(&(length + 1).to_le_bytes());
    fix_header_checksum(&mut grown);
    assert_eq!(decode_index(&grown).unwrap_err(), Error::Truncated);
    // Shrinking it: the file now has unclaimed trailing bytes.
    let mut shrunk = bytes.clone();
    shrunk[entry + 16..entry + 24].copy_from_slice(&(length - 1).to_le_bytes());
    fix_section_checksum(&mut shrunk, n - 1);
    assert_eq!(decode_index(&shrunk).unwrap_err(), Error::TrailingBytes(1));
    // Shrinking an *interior* section breaks contiguity.
    let mut interior = bytes;
    let entry0 = HEADER_LEN;
    let len0 = u64::from_le_bytes(interior[entry0 + 16..entry0 + 24].try_into().unwrap());
    interior[entry0 + 16..entry0 + 24].copy_from_slice(&(len0 - 2).to_le_bytes());
    fix_section_checksum(&mut interior, 0);
    assert!(matches!(
        decode_index(&interior).unwrap_err(),
        Error::Invalid(_)
    ));
}

#[test]
fn reserved_words_and_id_order_are_enforced() {
    let bytes = canonical_bytes();
    let mut reserved = bytes.clone();
    reserved[HEADER_LEN + 4] = 1;
    fix_header_checksum(&mut reserved);
    assert!(matches!(
        decode_index(&reserved).unwrap_err(),
        Error::Invalid(_)
    ));
    // Swapping two directory ids (keeping extents) breaks the ordering.
    let mut swapped = bytes;
    let (a, b) = (HEADER_LEN, HEADER_LEN + DIR_ENTRY_LEN);
    let id_a: [u8; 4] = swapped[a..a + 4].try_into().unwrap();
    let id_b: [u8; 4] = swapped[b..b + 4].try_into().unwrap();
    swapped[a..a + 4].copy_from_slice(&id_b);
    swapped[b..b + 4].copy_from_slice(&id_a);
    fix_header_checksum(&mut swapped);
    assert!(matches!(
        decode_index(&swapped).unwrap_err(),
        Error::Invalid(_)
    ));
}

/// `bytes` with flags byte 8 XORed by `mask`, the header checksum forged.
fn with_flags_toggled(bytes: &[u8], mask: u8) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    bad[8] ^= mask;
    fix_header_checksum(&mut bad);
    bad
}

#[test]
fn flag_tampering_with_fixed_checksums_is_rejected() {
    const GLOBAL: u8 = 1;
    const DYNAMIC: u8 = 1 << 1;
    const HANDLES: u8 = 1 << 2;
    const STANDALONE: u8 = 1 << 3;
    let mismatch = Error::Invalid("section list does not match the header flags");
    for (kind, bytes, _, decode) in kinds() {
        // An unknown flag bit: rejected even though both checksums pass.
        let mut unknown = bytes.clone();
        unknown[9] |= 0x80;
        fix_header_checksum(&mut unknown);
        assert_eq!(
            decode(&unknown).unwrap_err(),
            Error::Invalid("unknown flag bits set"),
            "{kind}"
        );
        // Toggling any one known flag promises a section list the file
        // does not have: the index loses its handles, global or dynamic
        // group, or turns standalone; a standalone diagram turns index,
        // changes between cell and subcell, or claims an index-only group.
        for mask in [GLOBAL, DYNAMIC, HANDLES, STANDALONE] {
            assert_eq!(
                decode(&with_flags_toggled(&bytes, mask)).unwrap_err(),
                mismatch,
                "{kind}: flags ^ {mask:#x}"
            );
        }
    }
}

#[test]
fn kind_confusion_is_a_typed_error() {
    let index = canonical_bytes();
    let cell = cell_bytes();
    let subcell = subcell_bytes();
    let holds_index = Error::Invalid("the container holds an index, not a standalone diagram");
    let holds_cell = Error::Invalid("the container holds a standalone cell diagram");
    let holds_subcell = Error::Invalid("the container holds a standalone subcell diagram");
    assert_eq!(kind(&index), Ok(Kind::Index));
    assert_eq!(kind(&cell), Ok(Kind::CellDiagram));
    assert_eq!(kind(&subcell), Ok(Kind::SubcellDiagram));
    // The index decoder on standalone files.
    assert_eq!(index_decode(&cell).unwrap_err(), holds_cell);
    assert_eq!(index_decode(&subcell).unwrap_err(), holds_subcell);
    // The standalone decoders on an index file.
    assert_eq!(cell_decode(&index).unwrap_err(), holds_index);
    assert_eq!(subcell_decode(&index).unwrap_err(), holds_index);
    // The cell decoder on a subcell file, and back.
    assert_eq!(cell_decode(&subcell).unwrap_err(), holds_subcell);
    assert_eq!(subcell_decode(&cell).unwrap_err(), holds_cell);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any proper-prefix truncation (not just section boundaries) of any
    /// kind of container fails with a typed error.
    #[test]
    fn random_truncations_are_rejected(cut in any::<prop::sample::Index>()) {
        for (kind, bytes, _, decode) in kinds() {
            let cut = cut.index(bytes.len());
            prop_assert!(decode(&bytes[..cut]).is_err(), "{}: prefix of {} bytes", kind, cut);
        }
    }

    /// Trailing junk of any size and content is reported exactly.
    #[test]
    fn trailing_junk_is_rejected(junk in proptest::collection::vec(any::<u8>(), 1..9)) {
        for (kind, mut bytes, _, decode) in kinds() {
            bytes.extend_from_slice(&junk);
            prop_assert_eq!(decode(&bytes).unwrap_err(), Error::TrailingBytes(junk.len()), "{}", kind);
        }
    }

    /// Adversarial payloads: a random byte change *with forged checksums*
    /// must either decode (the mutation landed on a value that stays
    /// semantically valid) or fail with a typed error — never panic and
    /// never read out of bounds.
    #[test]
    fn forged_checksums_never_panic(
        pos in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = canonical_bytes();
        let dir = sections(&bytes).unwrap();
        let payload_start = dir[0].offset as usize;
        let at = payload_start + pos.index(bytes.len() - payload_start);
        bytes[at] ^= mask;
        let k = dir
            .iter()
            .position(|s| (at as u64) < s.offset + s.length)
            .expect("every payload byte belongs to a section");
        fix_section_checksum(&mut bytes, k);
        let _ = decode_index(&bytes); // must return, Ok or Err
    }

    /// Random multi-bit corruption anywhere in the file is rejected.
    #[test]
    fn random_byte_corruption_is_rejected(
        pos in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = canonical_bytes();
        let at = pos.index(bytes.len());
        bytes[at] ^= mask;
        prop_assert!(decode_index(&bytes).is_err());
    }
}
