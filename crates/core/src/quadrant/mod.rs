//! Skyline-diagram construction for **quadrant** skyline queries
//! (Section IV of the paper): four engines with identical output.
//!
//! | Engine | Paper § | Complexity | Notes |
//! |---|---|---|---|
//! | [`baseline`] | IV-A | `O(n³)` | per-cell sorted scan |
//! | [`dsg_algorithm`] | IV-B | `O(n³)` | incremental link deletion |
//! | [`scanning`] | IV-C | `O(n³)` | Theorem-1 multiset recurrence |
//! | [`sweeping`] | IV-D | `O(n²)` | finds polyominoes directly (corner keys) |
//! | [`algorithm4`] | IV-D | `O(n²)` | the paper's literal vertex walks; geometry only, kept as a differential check |

pub mod algorithm4;
pub mod baseline;
pub mod dsg_algorithm;
pub mod scanning;
pub mod sweeping;

use crate::diagram::CellDiagram;
use crate::geometry::Dataset;

/// Selector for the quadrant-diagram engines, used by benches and the
/// experiments harness to sweep all algorithms uniformly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QuadrantEngine {
    /// Per-cell sorted scan (paper Algorithm 1).
    Baseline,
    /// Directed-skyline-graph incremental (paper Algorithm 2).
    DirectedSkylineGraph,
    /// Multiset-recurrence scanning (paper Algorithm 3).
    Scanning,
    /// Half-open grid-line sweeping (paper Algorithm 4). The default: it is
    /// the asymptotically best engine.
    #[default]
    Sweeping,
}

impl QuadrantEngine {
    /// All engines, for exhaustive cross-validation and benches.
    pub const ALL: [QuadrantEngine; 4] = [
        QuadrantEngine::Baseline,
        QuadrantEngine::DirectedSkylineGraph,
        QuadrantEngine::Scanning,
        QuadrantEngine::Sweeping,
    ];

    /// Short stable name, used in bench ids and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            QuadrantEngine::Baseline => "baseline",
            QuadrantEngine::DirectedSkylineGraph => "dsg",
            QuadrantEngine::Scanning => "scanning",
            QuadrantEngine::Sweeping => "sweeping",
        }
    }

    /// Builds the quadrant skyline diagram with this engine.
    ///
    /// ```
    /// use skyline_core::geometry::{Dataset, Point};
    /// use skyline_core::quadrant::QuadrantEngine;
    ///
    /// let ds = Dataset::from_coords([(2, 8), (5, 5), (8, 2)])?;
    /// let diagram = QuadrantEngine::Sweeping.build(&ds);
    /// // Below-left of everything, all three points are quadrant skyline.
    /// assert_eq!(diagram.query(Point::new(0, 0)).len(), 3);
    /// // Beyond all points, the quadrant is empty.
    /// assert!(diagram.query(Point::new(9, 9)).is_empty());
    /// # Ok::<(), skyline_core::Error>(())
    /// ```
    pub fn build(self, dataset: &Dataset) -> CellDiagram {
        self.build_with(dataset, &crate::parallel::ParallelConfig::from_env())
    }

    /// Builds the quadrant skyline diagram with this engine and an explicit
    /// parallel configuration. The scanning and sweeping engines have
    /// row-band parallel paths; the per-cell baseline and DSG engines are
    /// reference implementations and always run sequentially.
    pub fn build_with(
        self,
        dataset: &Dataset,
        cfg: &crate::parallel::ParallelConfig,
    ) -> CellDiagram {
        // Span names are per-engine so a trace separates the four engines;
        // the counter key is a literal because `counter!` caches its
        // registry lookup per call site.
        let span_name = match self {
            QuadrantEngine::Baseline => "quadrant.build.baseline",
            QuadrantEngine::DirectedSkylineGraph => "quadrant.build.dsg",
            QuadrantEngine::Scanning => "quadrant.build.scanning",
            QuadrantEngine::Sweeping => "quadrant.build.sweeping",
        };
        let _build = crate::span!(span_name, dataset.len() as u64);
        let _mem = crate::telemetry::mem::phase(crate::telemetry::mem::MemPhase::QuadrantBuild);
        crate::counter!("quadrant.builds").add(1);
        let diagram = match self {
            QuadrantEngine::Baseline => baseline::build(dataset),
            QuadrantEngine::DirectedSkylineGraph => dsg_algorithm::build(dataset),
            QuadrantEngine::Scanning => scanning::build_with(dataset, cfg),
            QuadrantEngine::Sweeping => sweeping::build_with(dataset, cfg),
        };
        // Debug builds spot-check the output against the from-scratch oracle
        // (see `crate::invariants`); release builds pay nothing.
        #[cfg(debug_assertions)]
        if let Err(violation) = crate::invariants::validate_cell_diagram(
            dataset,
            &diagram,
            crate::invariants::CellSemantics::Quadrant,
            crate::invariants::DEBUG_SAMPLE_BUDGET,
        ) {
            debug_assert!(false, "{} engine: {violation}", self.name());
        }
        diagram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_agree() {
        let ds = crate::test_data::lcg_dataset(35, 50, 7);
        let reference = QuadrantEngine::Baseline.build(&ds);
        for engine in QuadrantEngine::ALL {
            assert!(
                engine.build(&ds).same_results(&reference),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            QuadrantEngine::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), QuadrantEngine::ALL.len());
    }

    #[test]
    fn default_engine_is_sweeping() {
        assert_eq!(QuadrantEngine::default(), QuadrantEngine::Sweeping);
    }
}
