//! Shipping a diagram: serialization of standalone diagrams.
//!
//! The outsourcing applications (authentication, PIR) need diagrams to
//! travel: a data owner builds once and ships the structure to servers.
//! The format is the snapshot container ([`crate::container`]); a
//! standalone file carries one cell or subcell diagram together with the
//! dataset it was built over, so the decode rebuilds the grid from that
//! dataset and cross-validates the stored cells. This module holds the
//! worked example and the unit tests that pin the standalone group on the
//! hotel fixture; the container's own tests cover the index group.
//!
//! ```
//! use skyline_core::container::{decode_cell_diagram, encode_cell_diagram};
//! use skyline_core::geometry::{Dataset, Point};
//! use skyline_core::quadrant::QuadrantEngine;
//!
//! let ds = Dataset::from_coords([(1, 4), (3, 2)])?;
//! let diagram = QuadrantEngine::Scanning.build(&ds);
//! let bytes = encode_cell_diagram(&ds, &diagram);
//! let (dataset, restored) = decode_cell_diagram(&bytes).expect("fresh bytes decode");
//! assert_eq!(dataset.points(), ds.points());
//! assert_eq!(restored.query(Point::new(0, 0)), diagram.query(Point::new(0, 0)));
//!
//! let mut corrupted = bytes.clone();
//! corrupted[10] ^= 1;
//! assert!(decode_cell_diagram(&corrupted).is_err());
//! # Ok::<(), skyline_core::Error>(())
//! ```

#[cfg(test)]
mod tests {
    use crate::container::{
        decode_cell_diagram, decode_index, decode_subcell_diagram, encode_cell_diagram,
        encode_index, encode_subcell_diagram, Error,
    };
    use crate::diagram::CellDiagram;
    use crate::dynamic::DynamicEngine;
    use crate::geometry::{Dataset, Point};
    use crate::index::SkylineIndex;
    use crate::quadrant::QuadrantEngine;
    use crate::test_data::hotel_dataset;

    fn diagram() -> (Dataset, CellDiagram) {
        let ds = hotel_dataset();
        let d = QuadrantEngine::Sweeping.build(&ds);
        (ds, d)
    }

    fn subcell_bytes() -> Vec<u8> {
        let ds = Dataset::from_coords([(0, 0), (6, 10)]).unwrap();
        encode_subcell_diagram(&ds, &DynamicEngine::Scanning.build(&ds))
    }

    #[test]
    fn cell_roundtrip_preserves_everything() {
        let (ds, d) = diagram();
        let (dataset, decoded) = decode_cell_diagram(&encode_cell_diagram(&ds, &d)).unwrap();
        assert_eq!(dataset.points(), ds.points());
        assert_eq!(decoded.grid().x_lines(), d.grid().x_lines());
        assert_eq!(decoded.grid().y_lines(), d.grid().y_lines());
        assert!(decoded.same_results(&d));
        for q in [(0, 0), (10, 80), (14, 81), (25, 100)] {
            let q = Point::new(q.0, q.1);
            assert_eq!(decoded.query(q), d.query(q), "query at {q}");
        }
    }

    #[test]
    fn subcell_roundtrip_preserves_everything() {
        let ds = Dataset::from_coords([(0, 0), (6, 10), (12, 4)]).unwrap();
        let d = DynamicEngine::Scanning.build(&ds);
        let (dataset, decoded) = decode_subcell_diagram(&encode_subcell_diagram(&ds, &d)).unwrap();
        assert_eq!(dataset.points(), ds.points());
        assert_eq!(decoded.grid().x_lines(), d.grid().x_lines());
        assert_eq!(decoded.grid().y_lines(), d.grid().y_lines());
        assert!(decoded.same_results(&d));
        assert_eq!(decoded.query(Point::new(5, 5)), d.query(Point::new(5, 5)));
    }

    #[test]
    fn corruption_is_detected() {
        let (ds, d) = diagram();
        let bytes = encode_cell_diagram(&ds, &d);
        for idx in [0usize, 5, 6, 20, bytes.len() - 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x55;
            assert!(
                decode_cell_diagram(&bad).is_err(),
                "flip at byte {idx} must be detected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let (ds, d) = diagram();
        let bytes = encode_cell_diagram(&ds, &d);
        for cut in [0usize, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_cell_diagram(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn kind_confusion_is_detected() {
        assert_eq!(
            decode_cell_diagram(&subcell_bytes()).err(),
            Some(Error::Invalid(
                "the container holds a standalone subcell diagram"
            ))
        );
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let (ds, d) = diagram();
        let mut bytes = encode_cell_diagram(&ds, &d);
        // Both checksums still pass: only the length check can catch it.
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            decode_cell_diagram(&bytes).err(),
            Some(Error::TrailingBytes(4))
        );
    }

    #[test]
    fn error_display() {
        // Kind confusion names what the file holds, so a caller that
        // reports the error tells the user which decoder to use instead.
        let index = encode_index(&SkylineIndex::new(&hotel_dataset()), &[]);
        let on_index = decode_cell_diagram(&index).unwrap_err().to_string();
        assert!(on_index.contains("holds an index"), "{on_index}");
        let on_subcell = decode_cell_diagram(&subcell_bytes())
            .unwrap_err()
            .to_string();
        assert!(on_subcell.contains("subcell diagram"), "{on_subcell}");
        let (ds, d) = diagram();
        let on_cell = decode_index(&encode_cell_diagram(&ds, &d))
            .unwrap_err()
            .to_string();
        assert!(on_cell.contains("cell diagram"), "{on_cell}");
    }
}
