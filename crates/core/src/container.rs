//! Versioned binary snapshot container: the one on-disk form of this
//! crate's diagrams. A container holds either a [`SkylineIndex`] (with an
//! optional serve handle table) or one *standalone* diagram — a quadrant,
//! global or skyband [`CellDiagram`], or a dynamic [`SubcellDiagram`] —
//! together with the dataset it was built over. The standalone form is
//! what a data owner builds once and ships to outsourcing servers.
//!
//! The payloads are the arena layouts verbatim — the CSR flat-ids/ends
//! interner arrays, the row-major cell→result arrays, and the bisector
//! line metadata — so a load is a bounds-checked, checksum-validated copy
//! of flat `u64`/`u32` arrays straight into [`ResultInterner`] (via
//! [`ResultInterner::from_csr`]) with no per-element re-interning. The
//! polyomino partition is not stored: the
//! quadrant diagram's regions are one polyomino per result, so the decode
//! derives it from the quadrant cells in two linear passes
//! ([`quadrant_partition`]). Bitset word blocks exist only while a
//! diagram is built: `result_set::BitsetInterner` interns them straight
//! into the sorted-id CSR representation, which is what the container
//! stores; loaded interners can be re-expanded to word blocks with
//! `result_set::encode_results` when a word-parallel pass needs them.
//!
//! # Layout
//!
//! All integers are little-endian. The file is one fixed header, one
//! section directory, one header checksum, then the section payloads
//! back-to-back:
//!
//! ```text
//! offset 0   magic               b"SKDC"                      4 bytes
//!        4   major version       u16                          2 bytes
//!        6   minor version       u16                          2 bytes
//!        8   flags               u32 (bit0 global, bit1       4 bytes
//!                                     dynamic, bit2 handles,
//!                                     bit3 standalone)
//!       12   section count  c    u32                          4 bytes
//!       16   directory           c × 32-byte entries:
//!                                  id       u32
//!                                  reserved u32 (must be 0)
//!                                  offset   u64 (absolute)
//!                                  length   u64
//!                                  checksum u64 (word-wise FNV-1a 64
//!                                               of the payload)
//! 16 + 32c   header checksum     u64 (word-wise FNV-1a 64 of bytes
//!                                     [0, 16 + 32c))
//! 24 + 32c   payloads            contiguous, in directory order
//! ```
//!
//! Sections, in required id order (id 4, the major-1 polyomino section,
//! is retired and never reused):
//!
//! | id | present | content |
//! |----|---------|---------|
//! | 1  | always | dataset: `u64 n`, then `n × (i64 x, i64 y)` |
//! | 2  | index | quadrant interner: `u64 sets`, `u64 total_ids`, `sets × u32` ends, `total_ids × u32` flat ids |
//! | 3  | index | quadrant cells: `u64 count`, `count × u32` result ids (row-major) |
//! | 5  | index, bit 0 | global interner (layout of 2) |
//! | 6  | index, bit 0 | global cells (layout of 3) |
//! | 7  | bit 1 | dynamic x bisector lines: `u64 count`, `count × i64` doubled coords |
//! | 8  | bit 1 | dynamic y bisector lines (layout of 7) |
//! | 9  | bit 1 | dynamic interner (layout of 2) |
//! | 10 | bit 1 | dynamic cells (layout of 3, over subcells) |
//! | 11 | index, bit 2 | handles: `u64 count`, `count × u64` |
//! | 12 | standalone, not bit 1 | diagram interner (layout of 2) |
//! | 13 | standalone, not bit 1 | diagram cells (layout of 3) |
//!
//! # Index and standalone containers
//!
//! Flag bit 3 splits the files in two groups. Without it the file is an
//! index: sections 1–3, plus the groups bits 0–2 select. With it the file
//! is one diagram over the dataset in section 1: a cell diagram is
//! sections 12–13 ([`encode_cell_diagram`]), a subcell diagram sets bit 1
//! too and is the dynamic group 7–10 ([`encode_subcell_diagram`]). A
//! standalone file sets neither bit 0 nor bit 2. Every decoder checks the
//! section list against the flags, then that the file holds the kind it
//! decodes: [`decode_index`], [`decode_cell_diagram`] and
//! [`decode_subcell_diagram`] each refuse the other two kinds with
//! [`Error::Invalid`], and [`kind`] reports which of the three a file
//! holds.
//!
//! The cell grid is *not* stored: [`CellGrid::new`] rebuilds it from the
//! decoded dataset in `O(n log n)`, which also cross-validates the stored
//! cell arrays against an independently derived cell count.
//!
//! # Validation order
//!
//! Every decoder validates strictly outside-in; every failure is a typed
//! [`Error`], never a panic or an out-of-bounds access:
//!
//! 1. length ≥ header, magic ([`Error::BadMagic`]), major version
//!    ([`Error::BadVersion`] — checked *before* any checksum so an old
//!    reader reports a new major as a version error, not corruption);
//! 2. header checksum over header + directory
//!    ([`Error::HeaderChecksumMismatch`]) — this covers the minor version,
//!    the flags, the section count, and every directory entry *including
//!    the per-section checksums*, so any single-bit flip anywhere in the
//!    file is caught by exactly one of the two checksum layers;
//! 3. directory shape: reserved words zero, ids strictly increasing,
//!    offsets exactly contiguous from the payload start (overlapping or
//!    gapped extents are structurally impossible to accept), extents
//!    overflow-checked, total length exact ([`Error::Truncated`] /
//!    [`Error::TrailingBytes`]);
//! 4. per-section payload checksums ([`Error::SectionChecksumMismatch`]);
//! 5. flags known, the section id list exactly the one the flags
//!    promise, and the file of the kind the decoder reads;
//! 6. semantic validation while copying out: dataset bounds
//!    ([`crate::geometry::MAX_COORD`]), interner CSR laws
//!    ([`ResultInterner::from_csr`]), result ids within the interner, cell
//!    counts against the rebuilt grid, every quadrant result labelling at
//!    least one cell (the derived partition has no empty polyomino),
//!    bisector lines strictly increasing and bounded, handle uniqueness —
//!    all reported as [`Error::Invalid`].
//!
//! # Forward compatibility
//!
//! The **major** version gates structure: a reader rejects any file whose
//! major differs from [`MAJOR_VERSION`] with [`Error::BadVersion`] before
//! reading anything else. The **minor** version is informational — minors
//! may only add flag bits and section ids, and since this reader rejects
//! unknown flags and unexpected section lists, a file *using* such an
//! addition is still rejected (as [`Error::Invalid`]) rather than
//! mis-read. The golden-fixture tests pin both: today's bytes must load
//! forever under major 2, a major-3 header must fail with a version error,
//! and the committed major-1 fixture is refused with
//! `Error::BadVersion(1)`: major 1 stored the polyomino partition as
//! section 4, which this reader no longer reads, so v1 files must be
//! re-saved from their dataset.

use crate::diagram::merge::quadrant_partition;
use crate::diagram::CellDiagram;
use crate::dynamic::SubcellDiagram;
use crate::geometry::{CellGrid, Coord, Dataset, Point, MAX_COORD};
use crate::index::SkylineIndex;
use crate::maintained::Handle;
use crate::parallel::{self, ParallelConfig};
use crate::result_set::{ResultId, ResultInterner};

/// FNV-1a 64 folded a *word* at a time: the input is split into 8-byte
/// little-endian words (the trailing partial word zero-padded) and each
/// word is XOR-folded then multiplied, exactly like byte-wise FNV-1a with
/// an eighth of the steps. XOR and odd multiplication are both bijections
/// on `u64`, so any single-bit flip in the input still changes the digest
/// — the property the corruption suite enforces exhaustively — while the
/// whole-file validation pass runs at memory speed instead of a byte per
/// step. Zero-padding the tail is safe because every checksummed region's
/// length is fixed independently (the header length by the section count,
/// each payload length by the directory), so two regions of different
/// lengths are never compared through this digest alone.
fn fnv64(data: &[u8]) -> u64 {
    fnv64_words(data).fold(FNV64_BASIS, fnv64_step)
}

const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 step over a whole word.
#[inline]
fn fnv64_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The words [`fnv64`] folds: 8-byte little-endian words, the trailing
/// partial word zero-padded.
fn fnv64_words(data: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let words = data.chunks_exact(8);
    let rem = words.remainder();
    let tail = (!rem.is_empty()).then(|| {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        u64::from_le_bytes(tail)
    });
    words.map(le_u64).chain(tail)
}

/// The little-endian `u64` in the first eight bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("the slice holds eight bytes"))
}

/// Container magic bytes ("SKyline Diagram Container").
pub const MAGIC: [u8; 4] = *b"SKDC";
/// Major format version; readers reject any other major outright.
pub const MAJOR_VERSION: u16 = 2;
/// Minor format version; informational (see the module docs).
pub const MINOR_VERSION: u16 = 0;

const HEADER_LEN: usize = 16;
const DIR_ENTRY_LEN: usize = 32;

const FLAG_GLOBAL: u32 = 1;
const FLAG_DYNAMIC: u32 = 1 << 1;
const FLAG_HANDLES: u32 = 1 << 2;
const FLAG_STANDALONE: u32 = 1 << 3;
const KNOWN_FLAGS: u32 = FLAG_GLOBAL | FLAG_DYNAMIC | FLAG_HANDLES | FLAG_STANDALONE;

const SEC_DATASET: u32 = 1;
const SEC_QUAD_RESULTS: u32 = 2;
const SEC_QUAD_CELLS: u32 = 3;
// Id 4 held the polyomino partition in major 1. It is retired: the
// partition is derived from section 3 on decode, and no section reuses 4.
const SEC_GLOBAL_RESULTS: u32 = 5;
const SEC_GLOBAL_CELLS: u32 = 6;
const SEC_DYN_XLINES: u32 = 7;
const SEC_DYN_YLINES: u32 = 8;
const SEC_DYN_RESULTS: u32 = 9;
const SEC_DYN_CELLS: u32 = 10;
const SEC_HANDLES: u32 = 11;
const SEC_DIAGRAM_RESULTS: u32 = 12;
const SEC_DIAGRAM_CELLS: u32 = 13;

/// The section groups the flags select, in directory order.
const INDEX_SECTIONS: &[u32] = &[SEC_DATASET, SEC_QUAD_RESULTS, SEC_QUAD_CELLS];
const GLOBAL_SECTIONS: &[u32] = &[SEC_GLOBAL_RESULTS, SEC_GLOBAL_CELLS];
const DYNAMIC_SECTIONS: &[u32] = &[
    SEC_DYN_XLINES,
    SEC_DYN_YLINES,
    SEC_DYN_RESULTS,
    SEC_DYN_CELLS,
];
const HANDLES_SECTIONS: &[u32] = &[SEC_HANDLES];
const DIAGRAM_SECTIONS: &[u32] = &[SEC_DIAGRAM_RESULTS, SEC_DIAGRAM_CELLS];

/// Typed decoding failures. Corrupt or adversarial input maps to exactly
/// one of these; the decoder never panics and never reads out of bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Wrong magic bytes: not a skyline snapshot container.
    BadMagic,
    /// Unsupported major format version.
    BadVersion(u16),
    /// The checksum over header + directory did not match.
    HeaderChecksumMismatch,
    /// A section payload's checksum did not match (carries the section id).
    SectionChecksumMismatch(u32),
    /// The buffer ended before the declared structure was complete.
    Truncated,
    /// Bytes remain after the last declared section.
    TrailingBytes(usize),
    /// A structural or semantic invariant failed (message describes which).
    Invalid(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadMagic => write!(f, "not a skyline snapshot container"),
            Error::BadVersion(v) => write!(f, "unsupported container major version {v}"),
            Error::HeaderChecksumMismatch => write!(f, "header/directory checksum mismatch"),
            Error::SectionChecksumMismatch(id) => {
                write!(f, "checksum mismatch in section {id}")
            }
            Error::Truncated => write!(f, "truncated container"),
            Error::TrailingBytes(n) => write!(f, "{n} trailing bytes after the last section"),
            Error::Invalid(what) => write!(f, "invalid container: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// What a container holds, as its flags declare (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A [`SkylineIndex`], written by [`encode_index`].
    Index,
    /// A standalone cell diagram, written by [`encode_cell_diagram`].
    CellDiagram,
    /// A standalone subcell diagram, written by [`encode_subcell_diagram`].
    SubcellDiagram,
}

/// A decoded container: the index plus the serve-layer handle table (empty
/// when the container was written without one).
#[derive(Debug, Clone)]
pub struct LoadedSnapshot {
    /// The reassembled index, answering queries immediately.
    pub index: SkylineIndex,
    /// Per-point serve handles, parallel to the dataset (or empty).
    pub handles: Vec<Handle>,
}

/// One directory row, as reported by [`sections`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id (see the module-level table).
    pub id: u32,
    /// Human-readable section name.
    pub name: &'static str,
    /// Absolute payload offset in the container.
    pub offset: u64,
    /// Payload length in bytes.
    pub length: u64,
}

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_DATASET => "dataset",
        SEC_QUAD_RESULTS => "quadrant-results",
        SEC_QUAD_CELLS => "quadrant-cells",
        SEC_GLOBAL_RESULTS => "global-results",
        SEC_GLOBAL_CELLS => "global-cells",
        SEC_DYN_XLINES => "dynamic-xlines",
        SEC_DYN_YLINES => "dynamic-ylines",
        SEC_DYN_RESULTS => "dynamic-results",
        SEC_DYN_CELLS => "dynamic-cells",
        SEC_HANDLES => "handles",
        SEC_DIAGRAM_RESULTS => "diagram-results",
        SEC_DIAGRAM_CELLS => "diagram-cells",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------- encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// One section payload to encode, borrowed from the index.
enum Section<'a> {
    Dataset(&'a Dataset),
    Interner(&'a ResultInterner),
    Cells(&'a [ResultId]),
    Lines(&'a [Coord]),
    Handles(&'a [Handle]),
}

impl Section<'_> {
    /// The payload's encoded length in bytes.
    fn len(&self) -> usize {
        match self {
            Section::Dataset(ds) => 8 + 16 * ds.len(),
            Section::Interner(r) => 16 + 4 * (r.ends().len() + r.flat_ids().len()),
            Section::Cells(cells) => 8 + 4 * cells.len(),
            Section::Lines(lines) => 8 + 8 * lines.len(),
            Section::Handles(handles) => 8 + 8 * handles.len(),
        }
    }

    /// Appends the payload to `out`.
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Section::Dataset(ds) => {
                put_u64(out, ds.len() as u64);
                for p in ds.points() {
                    put_i64(out, p.x);
                    put_i64(out, p.y);
                }
            }
            Section::Interner(r) => {
                put_u64(out, r.ends().len() as u64);
                put_u64(out, r.flat_ids().len() as u64);
                for &e in r.ends() {
                    put_u32(out, e);
                }
                for &id in r.flat_ids() {
                    put_u32(out, id.0);
                }
            }
            Section::Cells(cells) => {
                put_u64(out, cells.len() as u64);
                for &rid in *cells {
                    put_u32(out, rid.0);
                }
            }
            Section::Lines(lines) => {
                put_u64(out, lines.len() as u64);
                for &v in *lines {
                    put_i64(out, v);
                }
            }
            Section::Handles(handles) => {
                put_u64(out, handles.len() as u64);
                for &h in *handles {
                    put_u64(out, h.0);
                }
            }
        }
    }
}

/// The flags and the section list that encode `index` (and `handles`, if
/// non-empty), in directory order.
fn sections_of<'a>(
    index: &'a SkylineIndex,
    handles: &'a [Handle],
) -> (u32, Vec<(u32, Section<'a>)>) {
    let quadrant = index.quadrant_diagram();
    let mut flags = 0u32;
    let mut sections = vec![
        (SEC_DATASET, Section::Dataset(index.dataset())),
        (SEC_QUAD_RESULTS, Section::Interner(quadrant.results())),
        (SEC_QUAD_CELLS, Section::Cells(quadrant.cell_results())),
    ];
    if let Some(global) = index.global_diagram() {
        flags |= FLAG_GLOBAL;
        sections.push((SEC_GLOBAL_RESULTS, Section::Interner(global.results())));
        sections.push((SEC_GLOBAL_CELLS, Section::Cells(global.cell_results())));
    }
    if let Some(dynamic) = index.dynamic_diagram() {
        flags |= FLAG_DYNAMIC;
        sections.push((SEC_DYN_XLINES, Section::Lines(dynamic.grid().x_lines())));
        sections.push((SEC_DYN_YLINES, Section::Lines(dynamic.grid().y_lines())));
        sections.push((SEC_DYN_RESULTS, Section::Interner(dynamic.results())));
        sections.push((SEC_DYN_CELLS, Section::Cells(dynamic.cell_results())));
    }
    if !handles.is_empty() {
        flags |= FLAG_HANDLES;
        sections.push((SEC_HANDLES, Section::Handles(handles)));
    }
    (flags, sections)
}

/// Writes the header, a directory of zeroed entries, and a zeroed header
/// checksum for `count` sections; returns the payload start.
fn put_header(out: &mut Vec<u8>, flags: u32, count: usize) -> usize {
    out.extend_from_slice(&MAGIC);
    put_u16(out, MAJOR_VERSION);
    put_u16(out, MINOR_VERSION);
    put_u32(out, flags);
    put_u32(out, count as u32);
    let payload_start = HEADER_LEN + DIR_ENTRY_LEN * count + 8;
    out.resize(payload_start, 0);
    payload_start
}

/// Serializes an index (and, optionally, its serve handle table) into a
/// container. Pass an empty `handles` slice to omit the handles section;
/// a non-empty slice must pair one handle per dataset point, in `PointId`
/// order.
///
/// The container is written into one buffer of its exact size: the
/// header and a zeroed directory first, each payload appended straight
/// after, then the directory entries and the header checksum patched in.
pub fn encode_index(index: &SkylineIndex, handles: &[Handle]) -> Vec<u8> {
    let _span = crate::span!("container.encode", index.dataset().len() as u64);
    let _mem = crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::ContainerEncode);
    crate::counter!("container.encodes").add(1);
    debug_assert!(
        handles.is_empty() || handles.len() == index.dataset().len(),
        "a non-empty handle table pairs one handle per point"
    );
    let (flags, sections) = sections_of(index, handles);
    let out = write_container(flags, &sections);
    crate::counter!("mem.container.bytes").add(out.len() as u64);
    out
}

/// Serializes a standalone cell diagram — quadrant, global or skyband —
/// with the dataset it was built over. The decode rebuilds the grid from
/// that dataset, so `diagram` must be built on `CellGrid::new(dataset)`,
/// as every engine's diagram is.
pub fn encode_cell_diagram(dataset: &Dataset, diagram: &CellDiagram) -> Vec<u8> {
    debug_assert!(
        {
            let grid = CellGrid::new(dataset);
            grid.x_lines() == diagram.grid().x_lines() && grid.y_lines() == diagram.grid().y_lines()
        },
        "a standalone diagram is built over its dataset"
    );
    write_container(
        FLAG_STANDALONE,
        &[
            (SEC_DATASET, Section::Dataset(dataset)),
            (SEC_DIAGRAM_RESULTS, Section::Interner(diagram.results())),
            (SEC_DIAGRAM_CELLS, Section::Cells(diagram.cell_results())),
        ],
    )
}

/// Serializes a standalone dynamic (subcell) diagram with the dataset it
/// was built over.
pub fn encode_subcell_diagram(dataset: &Dataset, diagram: &SubcellDiagram) -> Vec<u8> {
    write_container(
        FLAG_STANDALONE | FLAG_DYNAMIC,
        &[
            (SEC_DATASET, Section::Dataset(dataset)),
            (SEC_DYN_XLINES, Section::Lines(diagram.grid().x_lines())),
            (SEC_DYN_YLINES, Section::Lines(diagram.grid().y_lines())),
            (SEC_DYN_RESULTS, Section::Interner(diagram.results())),
            (SEC_DYN_CELLS, Section::Cells(diagram.cell_results())),
        ],
    )
}

/// Writes a container of `sections` (in directory order) under `flags`.
fn write_container(flags: u32, sections: &[(u32, Section<'_>)]) -> Vec<u8> {
    let payload_total: usize = sections.iter().map(|(_, s)| s.len()).sum();
    let dir_end = HEADER_LEN + DIR_ENTRY_LEN * sections.len();
    let mut out = Vec::with_capacity(dir_end + 8 + payload_total);
    let mut offset = put_header(&mut out, flags, sections.len());
    for (k, (id, section)) in sections.iter().enumerate() {
        section.write(&mut out);
        debug_assert_eq!(out.len() - offset, section.len(), "section {id} length");
        let length = out.len() - offset;
        let checksum = fnv64(&out[offset..]);
        let at = HEADER_LEN + k * DIR_ENTRY_LEN;
        let entry = &mut out[at..at + DIR_ENTRY_LEN];
        entry[..4].copy_from_slice(&id.to_le_bytes());
        entry[8..16].copy_from_slice(&(offset as u64).to_le_bytes());
        entry[16..24].copy_from_slice(&(length as u64).to_le_bytes());
        entry[24..].copy_from_slice(&checksum.to_le_bytes());
        offset = out.len();
    }
    let header_sum = fnv64(&out[..dir_end]);
    out[dir_end..dir_end + 8].copy_from_slice(&header_sum.to_le_bytes());
    out
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked little-endian reader over one section payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(Error::Invalid("section extent overflows the address space"))?;
        if end > self.buf.len() {
            return Err(Error::Invalid(
                "section payload shorter than its encoded counts",
            ));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, Error> {
        let bytes: [u8; 4] = self
            .take(4)?
            .try_into()
            .expect("take(4) returns exactly four bytes");
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .expect("take(8) returns exactly eight bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    fn i64(&mut self) -> Result<i64, Error> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .expect("take(8) returns exactly eight bytes");
        Ok(i64::from_le_bytes(bytes))
    }

    /// Reads `count` little-endian `u32`s in one bounds check, so the
    /// array sections decode as one pass over their bytes.
    fn u32s(&mut self, count: usize) -> Result<impl Iterator<Item = u32> + 'a, Error> {
        Ok(self.array(count, 4)?.chunks_exact(4).map(le_u32))
    }

    /// Takes the bytes of `count` elements of `elem_size` bytes each.
    fn array(&mut self, count: usize, elem_size: usize) -> Result<&'a [u8], Error> {
        let len = count
            .checked_mul(elem_size)
            .ok_or(Error::Invalid("section extent overflows the address space"))?;
        self.take(len)
    }

    /// Reads a `u64` element count and rejects it unless `count *
    /// elem_size` fits in the bytes that remain — so corrupt counts can
    /// never drive an oversized allocation or an overflowing extent.
    fn count(&mut self, elem_size: usize) -> Result<usize, Error> {
        let raw = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if elem_size == 0 || raw > remaining / elem_size as u64 {
            return Err(Error::Invalid("element count exceeds section length"));
        }
        Ok(raw as usize)
    }

    fn finish(self) -> Result<(), Error> {
        if self.pos != self.buf.len() {
            return Err(Error::Invalid(
                "section payload longer than its encoded counts",
            ));
        }
        Ok(())
    }
}

/// The little-endian `u32` in the first four bytes of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("the slice holds four bytes"))
}

struct DirEntry {
    id: u32,
    offset: u64,
    length: u64,
}

/// Validates steps 1–4 of the decode order (see the module docs) and
/// returns the flags plus the directory with per-section payload ranges.
fn validate_envelope(bytes: &[u8]) -> Result<(u32, Vec<DirEntry>), Error> {
    let (flags, dir) = validate_directory(bytes)?;
    verify_sections(bytes, &dir)?;
    Ok((flags, dir))
}

/// Validates steps 1–3 of the decode order: everything up to, not
/// including, the per-section checksums.
fn validate_directory(bytes: &[u8]) -> Result<(u32, Vec<DirEntry>), Error> {
    if bytes.len() < HEADER_LEN {
        return Err(Error::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(Error::BadMagic);
    }
    let word = |at: usize| -> u32 {
        let b: [u8; 4] = bytes[at..at + 4]
            .try_into()
            .expect("header offsets are in bounds after the length check");
        u32::from_le_bytes(b)
    };
    let major = u16::from_le_bytes([bytes[4], bytes[5]]);
    if major != MAJOR_VERSION {
        return Err(Error::BadVersion(major));
    }
    let flags = word(8);
    let count = word(12) as usize;
    let dir_end = count
        .checked_mul(DIR_ENTRY_LEN)
        .and_then(|n| n.checked_add(HEADER_LEN))
        .ok_or(Error::Truncated)?;
    let payload_start = dir_end.checked_add(8).ok_or(Error::Truncated)?;
    if bytes.len() < payload_start {
        return Err(Error::Truncated);
    }
    let stored_sum = u64::from_le_bytes(
        bytes[dir_end..payload_start]
            .try_into()
            .expect("the header checksum word is in bounds after the length check"),
    );
    if fnv64(&bytes[..dir_end]) != stored_sum {
        return Err(Error::HeaderChecksumMismatch);
    }
    let mut dir = Vec::with_capacity(count);
    let mut expected_offset = payload_start as u64;
    for k in 0..count {
        let at = HEADER_LEN + k * DIR_ENTRY_LEN;
        let mut c = Cursor::new(&bytes[at..at + DIR_ENTRY_LEN]);
        let id = c.u32().expect("directory entries are 32 bytes");
        let reserved = c.u32().expect("directory entries are 32 bytes");
        let offset = c.u64().expect("directory entries are 32 bytes");
        let length = c.u64().expect("directory entries are 32 bytes");
        if reserved != 0 {
            return Err(Error::Invalid("reserved directory bytes must be zero"));
        }
        if let Some(&DirEntry { id: prev, .. }) = dir.last() {
            if id <= prev {
                return Err(Error::Invalid("section ids must be strictly increasing"));
            }
        }
        if offset != expected_offset {
            return Err(Error::Invalid(
                "section offsets must be contiguous (no gaps or overlaps)",
            ));
        }
        expected_offset = offset
            .checked_add(length)
            .ok_or(Error::Invalid("section extent overflows the address space"))?;
        dir.push(DirEntry { id, offset, length });
    }
    let total = expected_offset;
    if (bytes.len() as u64) < total {
        return Err(Error::Truncated);
    }
    if (bytes.len() as u64) > total {
        return Err(Error::TrailingBytes(bytes.len() - total as usize));
    }
    Ok((flags, dir))
}

/// Step 4 of the decode order: every section payload against the checksum
/// its directory entry stores.
fn verify_sections(bytes: &[u8], dir: &[DirEntry]) -> Result<(), Error> {
    let body = |e: &DirEntry| &bytes[e.offset as usize..(e.offset + e.length) as usize];
    // A digest is a chain of dependent multiplies, which leaves the
    // multiplier idle most cycles; so the largest section's digest advances
    // in lockstep with each of the others', a whole word of each per step.
    let Some(largest) = (0..dir.len()).max_by_key(|&k| dir[k].length) else {
        return Ok(());
    };
    let mut largest_rest = body(&dir[largest]);
    let mut largest_digest = FNV64_BASIS;
    let mut digests = vec![FNV64_BASIS; dir.len()];
    for (k, entry) in dir.iter().enumerate().filter(|&(k, _)| k != largest) {
        let data = body(entry);
        let paired = 8 * (data.len() / 8).min(largest_rest.len() / 8);
        let mut digest = FNV64_BASIS;
        for (ours, theirs) in data[..paired]
            .chunks_exact(8)
            .zip(largest_rest[..paired].chunks_exact(8))
        {
            digest = fnv64_step(digest, le_u64(ours));
            largest_digest = fnv64_step(largest_digest, le_u64(theirs));
        }
        digests[k] = fnv64_words(&data[paired..]).fold(digest, fnv64_step);
        largest_rest = &largest_rest[paired..];
    }
    digests[largest] = fnv64_words(largest_rest).fold(largest_digest, fnv64_step);
    for (k, (entry, digest)) in dir.iter().zip(digests).enumerate() {
        let at = HEADER_LEN + k * DIR_ENTRY_LEN + 24;
        let stored = u64::from_le_bytes(
            bytes[at..at + 8]
                .try_into()
                .expect("directory checksum words are in bounds"),
        );
        if digest != stored {
            return Err(Error::SectionChecksumMismatch(entry.id));
        }
    }
    Ok(())
}

/// Lists the sections of a container after envelope validation (header,
/// version, both checksum layers, directory shape) — the `skydiag`
/// inspection path. Does **not** perform the semantic validation of
/// [`decode_index`].
pub fn sections(bytes: &[u8]) -> Result<Vec<SectionInfo>, Error> {
    let (_, dir) = validate_envelope(bytes)?;
    Ok(dir
        .iter()
        .map(|e| SectionInfo {
            id: e.id,
            name: section_name(e.id),
            offset: e.offset,
            length: e.length,
        })
        .collect())
}

fn decode_dataset(buf: &[u8]) -> Result<Dataset, Error> {
    let mut c = Cursor::new(buf);
    let n = c.count(16)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let x = c.i64()?;
        let y = c.i64()?;
        points.push(Point::new(x, y));
    }
    c.finish()?;
    Dataset::new(points)
        .map_err(|_| Error::Invalid("dataset rejected: empty or coordinate overflow"))
}

fn decode_interner(buf: &[u8], n_points: usize) -> Result<ResultInterner, Error> {
    let mut c = Cursor::new(buf);
    let sets = c.count(4)?;
    let total = c.u64()?;
    let ends: Vec<u32> = c.u32s(sets)?.collect();
    let remaining = (buf.len() - c.pos) as u64;
    if total > remaining / 4 {
        return Err(Error::Invalid("element count exceeds section length"));
    }
    let flat_le = c.array(total as usize, 4)?;
    c.finish()?;
    // The read-only constructor: full structural validation, but no intern
    // lookup table — a loaded interner is never interned into, and skipping
    // the table rebuild keeps the cold-start E14 gate an order of magnitude
    // ahead of a rebuild.
    let results = ResultInterner::from_le_csr_readonly(flat_le, ends).map_err(Error::Invalid)?;
    // Every run is strictly sorted now, so the ids ending the runs bound
    // all the others.
    let flat = results.flat_ids();
    if results
        .ends()
        .iter()
        .any(|&end| end > 0 && flat[end as usize - 1].index() >= n_points)
    {
        return Err(Error::Invalid("result id exceeds the dataset size"));
    }
    Ok(results)
}

fn decode_cells(buf: &[u8], expected: usize, interner_len: usize) -> Result<Vec<ResultId>, Error> {
    let mut c = Cursor::new(buf);
    let count = c.count(4)?;
    if count != expected {
        return Err(Error::Invalid(
            "cell count does not match the rebuilt grid shape",
        ));
    }
    let cells: Vec<ResultId> = c.u32s(count)?.map(ResultId).collect();
    if cells
        .iter()
        .map(|rid| rid.0)
        .max()
        .is_some_and(|rid| rid as usize >= interner_len)
    {
        return Err(Error::Invalid("cell references an uninterned result id"));
    }
    c.finish()?;
    Ok(cells)
}

fn decode_lines(buf: &[u8]) -> Result<Vec<Coord>, Error> {
    let mut c = Cursor::new(buf);
    let count = c.count(8)?;
    let mut lines = Vec::with_capacity(count);
    for _ in 0..count {
        let v = c.i64()?;
        if v.abs() > 2 * MAX_COORD {
            return Err(Error::Invalid("bisector line outside the doubled domain"));
        }
        if lines.last().is_some_and(|&prev| v <= prev) {
            return Err(Error::Invalid("bisector lines must be strictly increasing"));
        }
        lines.push(v);
    }
    c.finish()?;
    Ok(lines)
}

fn decode_handles(buf: &[u8], n_points: usize) -> Result<Vec<Handle>, Error> {
    let mut c = Cursor::new(buf);
    let count = c.count(8)?;
    if count != n_points {
        return Err(Error::Invalid("handle count must match the dataset size"));
    }
    let mut handles = Vec::with_capacity(count);
    for _ in 0..count {
        handles.push(Handle(c.u64()?));
    }
    c.finish()?;
    let mut sorted = handles.clone();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err(Error::Invalid("handles must be unique"));
    }
    Ok(handles)
}

/// Containers at least this large decode with the section checksums and
/// the two biggest payload groups on separate workers. Below it, the
/// spawns (0.1–0.3 ms each on a 2-core VM) and the workers' cold
/// allocator arenas cost more than the overlap saves: a 1.9 MB container
/// cold-started a third slower with the split than without.
const PARALLEL_DECODE_MIN_BYTES: usize = 4 << 20;

/// Decodes a container produced by [`encode_index`], revalidating every
/// layer (see the module docs for the exact order). On success the
/// returned index answers queries immediately — no diagram is rebuilt,
/// only the `O(n log n)` cell grid is re-derived from the dataset.
///
/// Steps 4–6 only read `bytes`, so on a large container with the
/// process-wide parallel configuration (`SKYLINE_THREADS`) allowing it, the
/// section checksums run beside the payload decode, and the global
/// diagram's payloads beside the quadrant's. Errors are still reported in
/// the documented order: a checksum mismatch wins over anything the decode
/// found, and a quadrant-side error over a global-side one.
pub fn decode_index(bytes: &[u8]) -> Result<LoadedSnapshot, Error> {
    let cfg = if bytes.len() >= PARALLEL_DECODE_MIN_BYTES {
        ParallelConfig::from_env()
    } else {
        ParallelConfig::sequential()
    };
    decode_with(bytes, &cfg)
}

/// [`decode_index`] with an explicit parallel configuration.
fn decode_with(bytes: &[u8], cfg: &ParallelConfig) -> Result<LoadedSnapshot, Error> {
    let _span = crate::span!("container.decode", bytes.len() as u64);
    let _mem = crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::ContainerDecode);
    crate::counter!("container.decodes").add(1);
    let (flags, dir) = validate_directory(bytes)?;
    let (checksums, decoded) = parallel::join(
        cfg,
        || verify_sections(bytes, &dir),
        || decode_payloads(bytes, flags, &dir, cfg),
    );
    checksums?;
    decoded
}

/// Steps 5 and 6 of the decode order: the flags against the section list,
/// then every payload.
fn decode_payloads(
    bytes: &[u8],
    flags: u32,
    dir: &[DirEntry],
    cfg: &ParallelConfig,
) -> Result<LoadedSnapshot, Error> {
    expect_kind(check_flags(flags, dir)?, Kind::Index)?;
    let section = |id: u32| payload(bytes, dir, id);

    let dataset = decode_dataset(section(SEC_DATASET))?;
    let n = dataset.len();
    let grid = CellGrid::new(&dataset);

    // Without a global diagram there is nothing to decode beside the
    // quadrant's payloads.
    let split = if flags & FLAG_GLOBAL != 0 {
        *cfg
    } else {
        ParallelConfig::sequential()
    };
    let (quadrant, global) = parallel::join(
        &split,
        || -> Result<_, Error> {
            let results = decode_interner(section(SEC_QUAD_RESULTS), n)?;
            let cells = decode_cells(section(SEC_QUAD_CELLS), grid.cell_count(), results.len())?;
            let quadrant = CellDiagram::from_parts(grid.clone(), results, cells);
            let merged = quadrant_partition(&quadrant).ok_or(Error::Invalid(
                "quadrant interner holds a result that no cell uses",
            ))?;
            Ok((quadrant, merged))
        },
        || -> Result<_, Error> {
            if flags & FLAG_GLOBAL == 0 {
                return Ok(None);
            }
            let results = decode_interner(section(SEC_GLOBAL_RESULTS), n)?;
            let cells = decode_cells(section(SEC_GLOBAL_CELLS), grid.cell_count(), results.len())?;
            Ok(Some((results, cells)))
        },
    );
    let (quadrant, merged) = quadrant?;
    let global = global?.map(|(results, cells)| CellDiagram::from_parts(grid, results, cells));

    let dynamic = if flags & FLAG_DYNAMIC != 0 {
        Some(decode_dynamic(section, n)?)
    } else {
        None
    };

    let handles = if flags & FLAG_HANDLES != 0 {
        decode_handles(section(SEC_HANDLES), n)?
    } else {
        Vec::new()
    };

    let index = SkylineIndex::from_loaded_parts(dataset, quadrant, merged, global, dynamic);
    Ok(LoadedSnapshot { index, handles })
}

/// The dynamic group (sections 7–10) over a dataset of `n` points.
fn decode_dynamic<'a>(
    section: impl Fn(u32) -> &'a [u8],
    n: usize,
) -> Result<SubcellDiagram, Error> {
    let xlines = decode_lines(section(SEC_DYN_XLINES))?;
    let ylines = decode_lines(section(SEC_DYN_YLINES))?;
    let results = decode_interner(section(SEC_DYN_RESULTS), n)?;
    let subcells = (xlines.len() + 1)
        .checked_mul(ylines.len() + 1)
        .ok_or(Error::Invalid("subcell count overflows the address space"))?;
    let cells = decode_cells(section(SEC_DYN_CELLS), subcells, results.len())?;
    Ok(SubcellDiagram::from_lines(xlines, ylines, results, cells))
}

/// Decodes a standalone cell diagram written by [`encode_cell_diagram`],
/// with the dataset it was built over. The grid is rebuilt from the
/// dataset and cross-validates the stored cells, as for an index.
pub fn decode_cell_diagram(bytes: &[u8]) -> Result<(Dataset, CellDiagram), Error> {
    let (dataset, section) = open_standalone(bytes, Kind::CellDiagram)?;
    let grid = CellGrid::new(&dataset);
    let results = decode_interner(section(SEC_DIAGRAM_RESULTS), dataset.len())?;
    let cells = decode_cells(section(SEC_DIAGRAM_CELLS), grid.cell_count(), results.len())?;
    Ok((dataset, CellDiagram::from_parts(grid, results, cells)))
}

/// Decodes a standalone subcell diagram written by
/// [`encode_subcell_diagram`], with the dataset it was built over.
pub fn decode_subcell_diagram(bytes: &[u8]) -> Result<(Dataset, SubcellDiagram), Error> {
    let (dataset, section) = open_standalone(bytes, Kind::SubcellDiagram)?;
    let diagram = decode_dynamic(&section, dataset.len())?;
    Ok((dataset, diagram))
}

/// Steps 1–5 of the decode order for a standalone container of kind
/// `want`; returns its dataset and a lookup of its section payloads.
fn open_standalone<'a>(
    bytes: &'a [u8],
    want: Kind,
) -> Result<(Dataset, impl Fn(u32) -> &'a [u8]), Error> {
    let (flags, dir) = validate_envelope(bytes)?;
    expect_kind(check_flags(flags, &dir)?, want)?;
    let dataset = decode_dataset(payload(bytes, &dir, SEC_DATASET))?;
    Ok((dataset, move |id| payload(bytes, &dir, id)))
}

/// What a container holds. Validates the header, its checksum, the
/// directory and the section list against the flags — not the payloads,
/// which the matching decoder checks.
pub fn kind(bytes: &[u8]) -> Result<Kind, Error> {
    let (flags, dir) = validate_directory(bytes)?;
    check_flags(flags, &dir)
}

/// Step 5's first half: the flags known and the section list exactly the
/// one they promise. Returns what the container holds.
fn check_flags(flags: u32, dir: &[DirEntry]) -> Result<Kind, Error> {
    if flags & !KNOWN_FLAGS != 0 {
        return Err(Error::Invalid("unknown flag bits set"));
    }
    let with = |flag: u32, group: &'static [u32]| if flags & flag != 0 { group } else { &[] };
    let (kind, groups): (Kind, [&[u32]; 4]) = if flags & FLAG_STANDALONE == 0 {
        let groups = [
            INDEX_SECTIONS,
            with(FLAG_GLOBAL, GLOBAL_SECTIONS),
            with(FLAG_DYNAMIC, DYNAMIC_SECTIONS),
            with(FLAG_HANDLES, HANDLES_SECTIONS),
        ];
        (Kind::Index, groups)
    } else if flags & (FLAG_GLOBAL | FLAG_HANDLES) != 0 {
        // No section list carries a standalone diagram with either group.
        return Err(Error::Invalid(
            "section list does not match the header flags",
        ));
    } else if flags & FLAG_DYNAMIC != 0 {
        (
            Kind::SubcellDiagram,
            [&[SEC_DATASET], DYNAMIC_SECTIONS, &[], &[]],
        )
    } else {
        (
            Kind::CellDiagram,
            [&[SEC_DATASET], DIAGRAM_SECTIONS, &[], &[]],
        )
    };
    let expected: Vec<u32> = groups.into_iter().flatten().copied().collect();
    let actual: Vec<u32> = dir.iter().map(|e| e.id).collect();
    if actual != expected {
        return Err(Error::Invalid(
            "section list does not match the header flags",
        ));
    }
    Ok(kind)
}

/// Step 5's second half: the container holds the kind the decoder reads.
fn expect_kind(found: Kind, want: Kind) -> Result<(), Error> {
    if found == want {
        return Ok(());
    }
    Err(Error::Invalid(match found {
        Kind::Index => "the container holds an index, not a standalone diagram",
        Kind::CellDiagram => "the container holds a standalone cell diagram",
        Kind::SubcellDiagram => "the container holds a standalone subcell diagram",
    }))
}

/// The payload of section `id`, whose presence the flags check vouched for.
fn payload<'a>(bytes: &'a [u8], dir: &[DirEntry], id: u32) -> &'a [u8] {
    dir.iter()
        .find(|e| e.id == id)
        .map(|e| &bytes[e.offset as usize..(e.offset + e.length) as usize])
        .expect("section presence was validated against the flags")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hotel_index(global: bool, dynamic: bool) -> SkylineIndex {
        let ds = crate::test_data::hotel_dataset();
        SkylineIndex::builder()
            .with_global(global)
            .with_dynamic(dynamic)
            .build(&ds)
    }

    fn handles_for(index: &SkylineIndex) -> Vec<Handle> {
        (0..index.dataset().len() as u64).map(Handle).collect()
    }

    #[test]
    fn roundtrip_quadrant_only() {
        let index = hotel_index(false, false);
        let bytes = encode_index(&index, &[]);
        let loaded = decode_index(&bytes).unwrap();
        assert!(loaded
            .index
            .quadrant_diagram()
            .same_results(index.quadrant_diagram()));
        assert_eq!(loaded.index.polyominoes().len(), index.polyominoes().len());
        assert!(loaded.index.global_diagram().is_none());
        assert!(loaded.index.dynamic_diagram().is_none());
        assert!(loaded.handles.is_empty());
    }

    #[test]
    fn roundtrip_full() {
        let index = hotel_index(true, true);
        let handles = handles_for(&index);
        let bytes = encode_index(&index, &handles);
        let loaded = decode_index(&bytes).unwrap();
        assert!(loaded
            .index
            .quadrant_diagram()
            .same_results(index.quadrant_diagram()));
        assert!(loaded
            .index
            .global_diagram()
            .unwrap()
            .same_results(index.global_diagram().unwrap()));
        assert!(loaded
            .index
            .dynamic_diagram()
            .unwrap()
            .same_results(index.dynamic_diagram().unwrap()));
        assert_eq!(loaded.handles, handles);
        // Loaded safe zones answer identically too.
        let q = crate::geometry::Point::new(14, 81);
        assert_eq!(loaded.index.safe_zone(q).cells, index.safe_zone(q).cells);
    }

    /// Recomputes every section checksum and the header checksum, so a
    /// tampered payload reaches semantic validation.
    fn reseal(bytes: &mut [u8]) {
        let (_, dir) = validate_directory(bytes).unwrap();
        for (k, entry) in dir.iter().enumerate() {
            let body = &bytes[entry.offset as usize..(entry.offset + entry.length) as usize];
            let at = HEADER_LEN + k * DIR_ENTRY_LEN + 24;
            let digest = fnv64(body);
            bytes[at..at + 8].copy_from_slice(&digest.to_le_bytes());
        }
        let dir_end = HEADER_LEN + dir.len() * DIR_ENTRY_LEN;
        let digest = fnv64(&bytes[..dir_end]);
        bytes[dir_end..dir_end + 8].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn parallel_decode_reports_what_sequential_decode_reports() {
        let index = hotel_index(true, true);
        let bytes = encode_index(&index, &handles_for(&index));
        let sequential = ParallelConfig::sequential();
        let parallel = ParallelConfig::with_threads(2);
        let loaded = decode_with(&bytes, &parallel).unwrap();
        assert_eq!(encode_index(&loaded.index, &loaded.handles), bytes);

        let (_, dir) = validate_directory(&bytes).unwrap();
        let outcome = |b: &[u8], cfg| decode_with(b, cfg).map(|_| ()).unwrap_err();
        for entry in &dir {
            // A flipped payload bit: a checksum error, whatever the decode
            // running beside the checksums makes of the payload.
            let mut flipped = bytes.clone();
            flipped[entry.offset as usize] ^= 1;
            assert_eq!(
                outcome(&flipped, &parallel),
                Error::SectionChecksumMismatch(entry.id)
            );
            // The same flip with checksums forged: the semantic error the
            // sequential order finds first, if the flip breaks anything.
            reseal(&mut flipped);
            assert_eq!(
                decode_with(&flipped, &parallel).map(|_| ()),
                decode_with(&flipped, &sequential).map(|_| ()),
                "section {}",
                entry.id
            );
        }
        // Broken quadrant and global payloads at once: the quadrant side,
        // decoded first in sequence, wins on both paths.
        let offset = |id: u32| dir.iter().find(|e| e.id == id).unwrap().offset as usize;
        let mut both = bytes.clone();
        let quad_cell = offset(SEC_QUAD_CELLS) + 8;
        both[quad_cell..quad_cell + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let global_count = offset(SEC_GLOBAL_CELLS);
        both[global_count] ^= 1;
        reseal(&mut both);
        let want = Error::Invalid("cell references an uninterned result id");
        assert_eq!(outcome(&both, &sequential), want);
        assert_eq!(outcome(&both, &parallel), want);
    }

    /// The major-1 encoder's shape: every section in its own buffer, then
    /// the header, the directory and the payloads copied into the output.
    fn per_section_encode(index: &SkylineIndex, handles: &[Handle]) -> Vec<u8> {
        let (flags, sections) = sections_of(index, handles);
        let bodies: Vec<(u32, Vec<u8>)> = sections
            .iter()
            .map(|(id, section)| {
                let mut body = Vec::new();
                section.write(&mut body);
                assert_eq!(body.len(), section.len(), "section {id} length");
                (*id, body)
            })
            .collect();
        let dir_end = HEADER_LEN + DIR_ENTRY_LEN * bodies.len();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, MAJOR_VERSION);
        put_u16(&mut out, MINOR_VERSION);
        put_u32(&mut out, flags);
        put_u32(&mut out, bodies.len() as u32);
        let mut offset = (dir_end + 8) as u64;
        for (id, body) in &bodies {
            put_u32(&mut out, *id);
            put_u32(&mut out, 0);
            put_u64(&mut out, offset);
            put_u64(&mut out, body.len() as u64);
            put_u64(&mut out, fnv64(body));
            offset += body.len() as u64;
        }
        let header_sum = fnv64(&out[..dir_end]);
        put_u64(&mut out, header_sum);
        for (_, body) in &bodies {
            out.extend_from_slice(body);
        }
        out
    }

    #[test]
    fn single_buffer_encode_matches_a_per_section_reference() {
        for (global, dynamic) in [(false, false), (true, false), (false, true), (true, true)] {
            let index = hotel_index(global, dynamic);
            for handles in [Vec::new(), handles_for(&index)] {
                let bytes = encode_index(&index, &handles);
                assert_eq!(bytes, per_section_encode(&index, &handles));
                assert_eq!(bytes.capacity(), bytes.len(), "one exact-size buffer");
            }
        }
    }

    #[test]
    fn decoded_partition_is_the_region_of_each_result() {
        let index = hotel_index(true, false);
        let loaded = decode_index(&encode_index(&index, &[])).unwrap().index;
        let quadrant = loaded.quadrant_diagram();
        let partition = loaded.polyominoes();
        assert_eq!(partition, index.polyominoes());
        assert_eq!(partition.len(), quadrant.results().len());
        crate::invariants::validate_merged_cells(quadrant, partition)
            .unwrap_or_else(|v| panic!("{v}"));
    }

    #[test]
    fn a_result_no_cell_uses_is_refused() {
        let index = hotel_index(false, false);
        let mut bytes = encode_index(&index, &[]);
        let (_, dir) = validate_directory(&bytes).unwrap();
        let cells = dir.iter().find(|e| e.id == SEC_QUAD_CELLS).unwrap();
        // Every cell to the empty result: each other interned result then
        // labels no cell, though every cell id stays valid.
        let ids = cells.offset as usize + 8..(cells.offset + cells.length) as usize;
        bytes[ids].fill(0);
        reseal(&mut bytes);
        assert_eq!(
            decode_index(&bytes).map(|_| ()),
            Err(Error::Invalid(
                "quadrant interner holds a result that no cell uses"
            ))
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let index = hotel_index(true, true);
        let handles = handles_for(&index);
        assert_eq!(
            encode_index(&index, &handles),
            encode_index(&index, &handles)
        );
    }

    #[test]
    fn sections_lists_the_directory() {
        let index = hotel_index(true, false);
        let bytes = encode_index(&index, &handles_for(&index));
        let dir = sections(&bytes).unwrap();
        let ids: Vec<u32> = dir.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 5, 6, 11]);
        assert_eq!(dir[0].name, "dataset");
        let total: u64 = dir.iter().map(|s| s.length).sum();
        assert_eq!(dir[0].offset, (HEADER_LEN + 6 * DIR_ENTRY_LEN + 8) as u64);
        assert_eq!(dir[0].offset + total, bytes.len() as u64);
    }

    #[test]
    fn typed_rejections() {
        let index = hotel_index(false, false);
        let bytes = encode_index(&index, &[]);

        assert!(matches!(decode_index(&bytes[..8]), Err(Error::Truncated)));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_index(&bad), Err(Error::BadMagic)));

        let mut bumped = bytes.clone();
        bumped[4] = 3; // major = 3
        assert!(matches!(decode_index(&bumped), Err(Error::BadVersion(3))));
        let mut v1 = bytes.clone();
        v1[4] = 1; // major 1 stored the polyomino section
        assert!(matches!(decode_index(&v1), Err(Error::BadVersion(1))));

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            decode_index(&flipped),
            Err(Error::SectionChecksumMismatch(_))
        ));

        let mut header_flip = bytes.clone();
        header_flip[9] ^= 0x80; // flags byte: covered by the header checksum
        assert!(matches!(
            decode_index(&header_flip),
            Err(Error::HeaderChecksumMismatch)
        ));

        let mut junk = bytes.clone();
        junk.extend_from_slice(&[0xAB; 3]);
        assert!(matches!(decode_index(&junk), Err(Error::TrailingBytes(3))));

        assert!(decode_index(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(
            Error::BadMagic.to_string(),
            "not a skyline snapshot container"
        );
        assert_eq!(
            Error::BadVersion(7).to_string(),
            "unsupported container major version 7"
        );
        assert_eq!(
            Error::SectionChecksumMismatch(3).to_string(),
            "checksum mismatch in section 3"
        );
        assert_eq!(
            Error::TrailingBytes(2).to_string(),
            "2 trailing bytes after the last section"
        );
        assert!(Error::Invalid("x")
            .to_string()
            .contains("invalid container"));
        // The error type integrates with std error handling.
        let boxed: Box<dyn std::error::Error> = Box::new(Error::Truncated);
        assert!(!boxed.to_string().is_empty());
    }

    #[test]
    fn degenerate_datasets_roundtrip() {
        for coords in [
            vec![(5, 5)],                         // n = 1
            vec![(3, 3), (3, 3), (3, 3)],         // duplicates
            vec![(1, 7), (2, 7), (3, 7), (4, 7)], // collinear
        ] {
            let ds = Dataset::from_coords(coords).unwrap();
            let index = SkylineIndex::builder()
                .with_global(true)
                .with_dynamic(true)
                .build(&ds);
            let loaded = decode_index(&encode_index(&index, &[])).unwrap();
            assert!(loaded
                .index
                .quadrant_diagram()
                .same_results(index.quadrant_diagram()));
            assert!(loaded
                .index
                .dynamic_diagram()
                .unwrap()
                .same_results(index.dynamic_diagram().unwrap()));
        }
    }
}
