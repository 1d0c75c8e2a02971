//! [`SkylineIndex`]: the batteries-included facade.
//!
//! Most users want "build the structure once, then ask skyline questions":
//! this module bundles the dataset, the quadrant/global cell diagrams, the
//! dynamic subcell diagram, and the polyomino partition behind one
//! type, with a builder to opt out of the expensive parts (the dynamic
//! diagram is `O(n⁴)` cells and only worth building for small `n`).
//!
//! ```
//! use skyline_core::index::SkylineIndex;
//! use skyline_core::geometry::{Dataset, Point};
//!
//! let ds = Dataset::from_coords([(2, 9), (5, 4), (9, 1), (4, 6)])?;
//! let index = SkylineIndex::builder().with_global(true).build(&ds);
//!
//! let q = Point::new(3, 3);
//! assert!(!index.quadrant(q).is_empty());
//! assert!(index.global(q).len() >= index.quadrant(q).len());
//! assert!(index.safe_zone(q).area() >= 1);
//! # Ok::<(), skyline_core::Error>(())
//! ```

use crate::diagram::merge::quadrant_partition;
use crate::diagram::{CellDiagram, MergedDiagram, PolyominoRef};
use crate::dynamic::{DynamicEngine, SubcellDiagram};
use crate::geometry::{Dataset, Point, PointId};
use crate::parallel::ParallelConfig;
use crate::quadrant::QuadrantEngine;
use crate::repair::Update;

/// Builder for [`SkylineIndex`]; see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct SkylineIndexBuilder {
    engine: QuadrantEngine,
    dynamic_engine: DynamicEngine,
    with_global: bool,
    with_dynamic: bool,
}

impl Default for SkylineIndexBuilder {
    fn default() -> Self {
        SkylineIndexBuilder {
            engine: QuadrantEngine::Sweeping,
            dynamic_engine: DynamicEngine::Scanning,
            with_global: false,
            with_dynamic: false,
        }
    }
}

impl SkylineIndexBuilder {
    /// Quadrant/global construction engine (default: sweeping).
    pub fn engine(mut self, engine: QuadrantEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Dynamic construction engine (default: scanning).
    pub fn dynamic_engine(mut self, engine: DynamicEngine) -> Self {
        self.dynamic_engine = engine;
        self
    }

    /// Also build the global diagram (3 more reflected quadrant runs around
    /// the quadrant diagram, then a per-cell union).
    pub fn with_global(mut self, yes: bool) -> Self {
        self.with_global = yes;
        self
    }

    /// Also build the dynamic subcell diagram (`O(n⁴)` subcells — intended
    /// for n up to roughly a hundred).
    pub fn with_dynamic(mut self, yes: bool) -> Self {
        self.with_dynamic = yes;
        self
    }

    /// Builds the index.
    pub fn build(self, dataset: &Dataset) -> SkylineIndex {
        let quadrant = self.engine.build(dataset);
        self.assemble(dataset, quadrant, &ParallelConfig::from_env())
    }

    /// Builds the index with an explicit parallel configuration for every
    /// constituent diagram build (the serving layer rebuilds snapshots on
    /// the scoped pool this way).
    pub fn build_with(self, dataset: &Dataset, cfg: &ParallelConfig) -> SkylineIndex {
        let quadrant = self.engine.build_with(dataset, cfg);
        self.assemble(dataset, quadrant, cfg)
    }

    /// Assembles an index around an already-built quadrant diagram,
    /// constructing only the remaining parts (the polyomino partition,
    /// derived by result, and the optional global/dynamic diagrams). The
    /// global diagram reuses `quadrant` as its first orthant
    /// ([`crate::global::build_around`]).
    ///
    /// `quadrant` must be a quadrant diagram of `dataset` — callers that
    /// already hold one, such as a `MaintainedIndex` after its rebuild,
    /// reuse it instead of building it twice.
    ///
    /// # Panics
    ///
    /// If `quadrant` interns a result that labels no cell; no quadrant
    /// engine builds such a diagram.
    pub fn assemble(
        self,
        dataset: &Dataset,
        quadrant: CellDiagram,
        cfg: &ParallelConfig,
    ) -> SkylineIndex {
        debug_assert_eq!(
            quadrant.grid().cell_count(),
            crate::geometry::CellGrid::new(dataset).cell_count(),
            "assemble() requires a quadrant diagram built over the same dataset"
        );
        let _assemble = crate::span!("index.assemble", dataset.len() as u64);
        crate::counter!("index.assembles").add(1);
        let merged = partition(&quadrant);
        let global = self
            .with_global
            .then(|| crate::global::build_around(dataset, &quadrant, self.engine, cfg));
        let dynamic = self
            .with_dynamic
            .then(|| self.dynamic_engine.build_with(dataset, cfg));
        SkylineIndex {
            dataset: dataset.clone(),
            quadrant,
            merged,
            global,
            dynamic,
        }
    }

    /// The index of `old`'s dataset after `updates`, applied in order, by
    /// local repair ([`crate::repair`]) instead of a build: only the cells
    /// each update changes are recomputed, then the polyomino partition is
    /// derived once and the dynamic diagram, if asked for, is built. The result is
    /// id-for-id equal to [`Self::build_with`] over the updated points in
    /// the same order, so containers encode to the same bytes.
    ///
    /// Returns `None` when the batch cannot be repaired: no updates, an
    /// engine other than sweeping (a repair numbers results as the sweeping
    /// engine does), a global diagram asked for but absent from `old`, or a
    /// dataset that would become empty.
    pub fn repair(
        self,
        old: &SkylineIndex,
        updates: &[Update],
        cfg: &ParallelConfig,
    ) -> Option<SkylineIndex> {
        let (&first, rest) = updates.split_first()?;
        if self.engine != QuadrantEngine::Sweeping || (self.with_global && old.global.is_none()) {
            return None;
        }
        let global = old.global.as_ref().filter(|_| self.with_global);
        let mut state = crate::repair::apply(&old.dataset, &old.quadrant, global, first)?;
        for &update in rest {
            state = crate::repair::apply(
                &state.dataset,
                &state.quadrant,
                state.global.as_ref(),
                update,
            )?;
        }
        let merged = partition(&state.quadrant);
        let dynamic = self
            .with_dynamic
            .then(|| self.dynamic_engine.build_with(&state.dataset, cfg));
        Some(SkylineIndex {
            dataset: state.dataset,
            quadrant: state.quadrant,
            merged,
            global: state.global,
            dynamic,
        })
    }
}

/// The polyomino partition of an index's quadrant diagram, numbered by
/// result ([`quadrant_partition`]).
///
/// # Panics
///
/// If an interned result labels no cell. Every quadrant engine and every
/// repair interns only results that some cell uses, so this is a bug in
/// the diagram, and failing here keeps it out of a published index (and
/// out of a container that `decode_index` would refuse).
fn partition(quadrant: &CellDiagram) -> MergedDiagram {
    let _merge = crate::span!("index.merge");
    quadrant_partition(quadrant)
        .expect("a quadrant diagram labels a cell with every interned result")
}

/// Precomputed skyline diagrams over one dataset, answering all three query
/// semantics by point location.
#[derive(Clone, Debug)]
pub struct SkylineIndex {
    dataset: Dataset,
    quadrant: CellDiagram,
    merged: MergedDiagram,
    global: Option<CellDiagram>,
    dynamic: Option<SubcellDiagram>,
}

impl SkylineIndex {
    /// Estimated heap bytes owned by the index: dataset, quadrant diagram,
    /// polyomino partition, and the optional global/dynamic diagrams.
    /// Cross-checked against allocator-measured build deltas in the
    /// `mem_accounting` tests.
    pub fn heap_bytes(&self) -> usize {
        self.dataset.heap_bytes()
            + self.quadrant.heap_bytes()
            + self.merged.heap_bytes()
            + self.global.as_ref().map_or(0, CellDiagram::heap_bytes)
            + self.dynamic.as_ref().map_or(0, SubcellDiagram::heap_bytes)
    }

    /// Starts a builder with default settings.
    pub fn builder() -> SkylineIndexBuilder {
        SkylineIndexBuilder::default()
    }

    /// Reassembles an index from parts decoded out of a snapshot container
    /// (`crate::container`). No diagram construction happens here — the
    /// container decoder has already bounds-checked and cross-validated
    /// every part against `dataset`.
    pub(crate) fn from_loaded_parts(
        dataset: Dataset,
        quadrant: CellDiagram,
        merged: MergedDiagram,
        global: Option<CellDiagram>,
        dynamic: Option<SubcellDiagram>,
    ) -> Self {
        SkylineIndex {
            dataset,
            quadrant,
            merged,
            global,
            dynamic,
        }
    }

    /// Drops every diagram interner's lookup table: the read-only state a
    /// published index needs (and the state `crate::container` decodes
    /// to). Answers are unchanged; only interning would stop deduplicating.
    pub fn into_readonly(self) -> Self {
        SkylineIndex {
            quadrant: self.quadrant.into_readonly(),
            global: self.global.map(CellDiagram::into_readonly),
            dynamic: self.dynamic.map(SubcellDiagram::into_readonly),
            ..self
        }
    }

    /// Builds with defaults: quadrant diagram + polyominoes only.
    pub fn new(dataset: &Dataset) -> Self {
        SkylineIndexBuilder::default().build(dataset)
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// First-quadrant skyline of `q` — an `O(log n)` lookup.
    pub fn quadrant(&self, q: Point) -> &[PointId] {
        self.quadrant.query(q)
    }

    /// Global skyline of `q`. Falls back to a from-scratch computation when
    /// the global diagram was not built (allocates in that case).
    #[must_use]
    pub fn global(&self, q: Point) -> Vec<PointId> {
        match &self.global {
            Some(d) => d.query(q).to_vec(),
            None => crate::query::global_skyline(&self.dataset, q),
        }
    }

    /// Dynamic skyline of `q`. Falls back to a from-scratch computation
    /// when the dynamic diagram was not built.
    #[must_use]
    pub fn dynamic(&self, q: Point) -> Vec<PointId> {
        match &self.dynamic {
            Some(d) => d.query(q).to_vec(),
            None => crate::query::dynamic_skyline(&self.dataset, q),
        }
    }

    /// The skyline polyomino containing `q`: the region where `q` can move
    /// without its quadrant result changing.
    pub fn safe_zone(&self, q: Point) -> PolyominoRef<'_> {
        let cell = self.quadrant.grid().cell_of(q);
        self.merged
            .polyomino_of_cell(self.quadrant.grid().linear_index(cell))
    }

    /// The quadrant cell diagram.
    pub fn quadrant_diagram(&self) -> &CellDiagram {
        &self.quadrant
    }

    /// The polyomino partition of the quadrant diagram.
    pub fn polyominoes(&self) -> &MergedDiagram {
        &self.merged
    }

    /// The global diagram, if built.
    pub fn global_diagram(&self) -> Option<&CellDiagram> {
        self.global.as_ref()
    }

    /// The dynamic diagram, if built.
    pub fn dynamic_diagram(&self) -> Option<&SubcellDiagram> {
        self.dynamic.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;

    fn hotel() -> Dataset {
        crate::test_data::hotel_dataset()
    }

    #[test]
    fn default_index_answers_quadrant_queries() {
        let ds = hotel();
        let index = SkylineIndex::new(&ds);
        for q in [(0, 0), (10, 50), (14, 81)] {
            let q = Point::new(q.0, q.1);
            assert_eq!(
                index.quadrant(q),
                query::quadrant_skyline(&ds, q).as_slice()
            );
        }
        assert!(index.global_diagram().is_none());
        assert!(index.dynamic_diagram().is_none());
        assert_eq!(index.dataset().len(), 11);
    }

    #[test]
    fn fallbacks_match_diagram_lookups_off_boundaries() {
        let ds = hotel();
        let with = SkylineIndex::builder()
            .with_global(true)
            .with_dynamic(true)
            .build(&ds);
        let without = SkylineIndex::new(&ds);
        // Odd coordinates in a 4x-scaled copy avoid all boundary lines, so
        // diagram lookups and fallbacks must agree exactly.
        let scaled = Dataset::from_coords(ds.points().iter().map(|p| (4 * p.x, 4 * p.y))).unwrap();
        let with_scaled = SkylineIndex::builder()
            .with_global(true)
            .with_dynamic(true)
            .build(&scaled);
        let without_scaled = SkylineIndex::new(&scaled);
        for (qx, qy) in [(41, 321), (3, 5), (61, 333), (85, 9)] {
            let q = Point::new(qx, qy);
            assert_eq!(with_scaled.dynamic(q), without_scaled.dynamic(q), "{q}");
            assert_eq!(with_scaled.global(q), without_scaled.global(q), "{q}");
        }
        let _ = (with, without);
    }

    #[test]
    fn read_only_index_answers_identically_in_fewer_bytes() {
        let ds = hotel();
        let full = SkylineIndex::builder()
            .with_global(true)
            .with_dynamic(true)
            .build(&ds);
        let readonly = full.clone().into_readonly();
        assert!(readonly.heap_bytes() < full.heap_bytes());
        let copied = full.quadrant_diagram().to_readonly();
        assert!(copied.same_results(full.quadrant_diagram()));
        assert!(copied.heap_bytes() < full.quadrant_diagram().heap_bytes());
        for (qx, qy) in [(0, 0), (10, 50), (14, 81), (3, 5)] {
            let q = Point::new(qx, qy);
            assert_eq!(readonly.quadrant(q), full.quadrant(q), "{q}");
            assert_eq!(readonly.global(q), full.global(q), "{q}");
            assert_eq!(readonly.dynamic(q), full.dynamic(q), "{q}");
        }
    }

    #[test]
    fn safe_zone_is_consistent() {
        let ds = hotel();
        let index = SkylineIndex::new(&ds);
        let q = Point::new(14, 81);
        let zone = index.safe_zone(q);
        for &cell in zone.cells {
            assert_eq!(index.quadrant_diagram().result(cell), index.quadrant(q));
        }
        assert!(index.polyominoes().len() > 1);
    }

    #[test]
    fn builder_engine_choices_are_equivalent() {
        let ds = hotel();
        let a = SkylineIndex::builder()
            .engine(QuadrantEngine::Baseline)
            .build(&ds);
        let b = SkylineIndex::builder()
            .engine(QuadrantEngine::Scanning)
            .build(&ds);
        assert!(a.quadrant_diagram().same_results(b.quadrant_diagram()));
        let c = SkylineIndex::builder()
            .with_dynamic(true)
            .dynamic_engine(DynamicEngine::Subset)
            .build(&ds);
        let d = SkylineIndex::builder()
            .with_dynamic(true)
            .dynamic_engine(DynamicEngine::Scanning)
            .build(&ds);
        assert!(c
            .dynamic_diagram()
            .unwrap()
            .same_results(d.dynamic_diagram().unwrap()));
        // The assembled global diagram is built around the index's quadrant
        // diagram; it must equal a from-scratch global build id for id.
        for ds in [
            hotel(),
            crate::test_data::lcg_dataset(40, 1000, 5),
            crate::test_data::lcg_dataset(40, 6, 301),
        ] {
            for engine in [QuadrantEngine::Sweeping, QuadrantEngine::Scanning] {
                let index = SkylineIndex::builder()
                    .engine(engine)
                    .with_global(true)
                    .build(&ds);
                let assembled = index.global_diagram().unwrap();
                let fresh = crate::global::build_with(&ds, engine, &ParallelConfig::sequential());
                assert!(assembled.same_results(&fresh), "{}", engine.name());
                assert_eq!(assembled.cell_results(), fresh.cell_results());
                assert_eq!(assembled.results().ends(), fresh.results().ends());
                assert_eq!(assembled.results().flat_ids(), fresh.results().flat_ids());
            }
        }
    }

    #[test]
    #[should_panic(expected = "labels a cell with every interned result")]
    fn assemble_refuses_a_result_no_cell_uses() {
        use crate::geometry::CellGrid;
        use crate::result_set::ResultInterner;
        let ds = Dataset::from_coords([(0, 0), (10, 10)]).unwrap();
        let mut results = ResultInterner::new();
        let a = results.intern_sorted(vec![PointId(0)]);
        let _unused = results.intern_sorted(vec![PointId(1)]);
        let e = results.empty();
        let cells = vec![a, a, e, a, a, e, e, e, e];
        let quadrant = CellDiagram::from_parts(CellGrid::new(&ds), results, cells);
        SkylineIndex::builder().assemble(&ds, quadrant, &ParallelConfig::sequential());
    }
}
