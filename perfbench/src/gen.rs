//! Workload definitions and seeded input generation.
//!
//! Every coordinate the program sees comes from here. Dataset coordinates
//! are multiples of 4 and query coordinates are odd, so no query ever lies
//! on a grid line (multiples of 4) or a perpendicular bisector (even
//! integers): every served answer must equal the `skyline_core::query`
//! oracles exactly. Base points sit on multiples of 8 with one distinct
//! coordinate per point and axis, so the grid has exactly `(n + 1)²` cells
//! for every seed; the points the publish path inserts sit on odd multiples
//! of 4 and never collide with a base point.

use skyline_core::geometry::{Dataset, Point};
use skyline_core::parallel::ParallelConfig;
use skyline_serve::ServerOptions;

/// SplitMix64 finaliser: the mixing step of every seeded stream and digest.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic SplitMix64 stream.
struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a per-purpose `stream` tag, so the
    /// dataset, query list and update list never share draws.
    fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix(seed ^ splitmix(stream)))
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The query families the benchmark issues. Segment traces and fallback
/// (no-diagram) global/dynamic queries are left out on purpose: each costs
/// tens of microseconds and would bury the read-path layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Snapshot::quadrant`.
    Quadrant,
    /// `Snapshot::global` (only on workloads that build the global diagram).
    Global,
    /// `Snapshot::dynamic` (only on workloads that build the dynamic diagram).
    Dynamic,
    /// `Snapshot::safe_zone`.
    SafeZone,
}

/// One entry of a workload's fixed query list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Which serving call answers it.
    pub kind: Kind,
    /// The query point (both coordinates odd).
    pub p: Point,
}

/// How base points are distributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Distribution {
    /// x and y ranks drawn independently.
    Independent,
    /// x + y nearly constant: large skylines, long answers.
    Anticorrelated,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Global diagram, uniform queries: the result cache mostly misses.
    ReadUniform,
    /// Quadrant diagram only, 256 hot queries: the result cache's best case.
    ReadHot,
    /// Dynamic subcell diagram under a writer alternating insert/remove.
    WriteDynamic,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ReadUniform,
        Workload::ReadHot,
        Workload::WriteDynamic,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadUniform => "read-uniform",
            Workload::ReadHot => "read-hot",
            Workload::WriteDynamic => "write-dynamic",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of base points.
    pub fn n(self) -> usize {
        match self {
            Workload::ReadUniform | Workload::ReadHot => 400,
            Workload::WriteDynamic => 36,
        }
    }

    /// Base coordinates are `8 * v` for `v` in `0..slots`. The read
    /// workloads pack their `n` distinct values densely; `write-dynamic`
    /// spreads them so that almost no two perpendicular bisectors coincide
    /// and the subcell grid has its full `O(n⁴)` size.
    fn slots(self) -> u64 {
        match self {
            Workload::ReadUniform | Workload::ReadHot => self.n() as u64,
            Workload::WriteDynamic => 1 << 16,
        }
    }

    fn distribution(self) -> Distribution {
        match self {
            Workload::ReadHot => Distribution::Anticorrelated,
            Workload::ReadUniform | Workload::WriteDynamic => Distribution::Independent,
        }
    }

    /// Length of the fixed query list (one closed-loop pass).
    pub fn list_len(self) -> usize {
        match self {
            Workload::ReadUniform => 16_384,
            Workload::ReadHot | Workload::WriteDynamic => 4_096,
        }
    }

    /// Open-loop arrival rate, queries per second.
    pub fn open_loop_rate(self) -> u64 {
        match self {
            Workload::ReadUniform => 500_000,
            Workload::ReadHot => 1_000_000,
            Workload::WriteDynamic => 250_000,
        }
    }

    /// Server options: sequential builds (`threads = 0`, never the
    /// environment), the default cache and engines, and the diagrams the
    /// workload's query mix needs.
    pub fn options(self) -> ServerOptions {
        ServerOptions {
            with_global: self == Workload::ReadUniform,
            with_dynamic: self == Workload::WriteDynamic,
            parallel: ParallelConfig::with_threads(0),
            ..ServerOptions::default()
        }
    }

    /// The query-mix weights, as `(kind, weight)`.
    fn mix(self) -> &'static [(Kind, u64)] {
        match self {
            Workload::ReadUniform => &[(Kind::Quadrant, 6), (Kind::Global, 3), (Kind::SafeZone, 1)],
            Workload::ReadHot => &[(Kind::Quadrant, 9), (Kind::SafeZone, 1)],
            Workload::WriteDynamic => &[(Kind::Quadrant, 1), (Kind::Dynamic, 1)],
        }
    }
}

/// Everything a run feeds the program, generated from the seed alone.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The base dataset published as epoch 1.
    pub dataset: Dataset,
    /// The fixed query list.
    pub queries: Vec<Query>,
    /// Points the publish path inserts (and then removes again), in order.
    pub updates: Vec<Point>,
}

/// Number of distinct update points; the publish path cycles over them.
const UPDATES: usize = 64;

/// Number of distinct hot queries in `read-hot`.
const HOT_KEYS: usize = 256;

/// `n` distinct values from `0..slots`, sorted.
fn distinct(rng: &mut Rng, n: usize, slots: u64) -> Vec<i64> {
    if slots == n as u64 {
        return (0..n as i64).collect();
    }
    let mut values = std::collections::BTreeSet::new();
    while values.len() < n {
        values.insert(rng.below(slots) as i64);
    }
    values.into_iter().collect()
}

/// Replaces each key by the `values` entry of its rank among `keys` (ties
/// broken by index), so the coordinates keep the keys' order.
fn by_rank(keys: &[f64], values: &[i64]) -> Vec<i64> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
    let mut out = vec![0i64; keys.len()];
    for (r, &i) in order.iter().enumerate() {
        out[i] = values[r];
    }
    out
}

fn dataset(w: Workload, rng: &mut Rng) -> Dataset {
    let n = w.n();
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let u = rng.unit();
        let v = match w.distribution() {
            Distribution::Independent => rng.unit(),
            // Roughly normal noise (sum of three uniforms) around x + y = 1.
            Distribution::Anticorrelated => {
                1.0 - u + 0.1 * (rng.unit() + rng.unit() + rng.unit() - 1.5)
            }
        };
        xs.push(u);
        ys.push(v);
    }
    let vx = distinct(rng, n, w.slots());
    let vy = distinct(rng, n, w.slots());
    let (cx, cy) = (by_rank(&xs, &vx), by_rank(&ys, &vy));
    Dataset::from_coords(cx.into_iter().zip(cy).map(|(x, y)| (8 * x, 8 * y)))
        .expect("rank coordinates are small and the dataset is non-empty")
}

/// An odd coordinate uniform in `[0, limit)`.
fn odd(rng: &mut Rng, limit: u64) -> i64 {
    (2 * rng.below(limit / 2) + 1) as i64
}

fn pick_kind(w: Workload, rng: &mut Rng) -> Kind {
    let mix = w.mix();
    let total: u64 = mix.iter().map(|&(_, weight)| weight).sum();
    let mut draw = rng.below(total);
    for &(kind, weight) in mix {
        if draw < weight {
            return kind;
        }
        draw -= weight;
    }
    unreachable!("draw < total weight")
}

fn queries(w: Workload, rng: &mut Rng) -> Vec<Query> {
    // The domain spans the base points plus one empty band beyond them.
    let span = 8 * w.slots() + 8;
    match w {
        Workload::ReadHot => {
            // Hot keys sit below the anti-diagonal, where anticorrelated
            // data leaves many points in the query's quadrant.
            let hot: Vec<Query> = (0..HOT_KEYS)
                .map(|_| Query {
                    kind: pick_kind(w, rng),
                    p: Point::new(odd(rng, span / 2), odd(rng, span / 2)),
                })
                .collect();
            hot.iter().copied().cycle().take(w.list_len()).collect()
        }
        Workload::ReadUniform | Workload::WriteDynamic => (0..w.list_len())
            .map(|_| Query {
                kind: pick_kind(w, rng),
                p: Point::new(odd(rng, span), odd(rng, span)),
            })
            .collect(),
    }
}

fn updates(w: Workload, rng: &mut Rng) -> Vec<Point> {
    let slots = w.slots();
    (0..UPDATES)
        .map(|_| {
            Point::new(
                (8 * rng.below(slots) + 4) as i64,
                (8 * rng.below(slots) + 4) as i64,
            )
        })
        .collect()
}

/// Generates a workload's inputs from its seed.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    Inputs {
        dataset: dataset(w, &mut Rng::new(seed, 1)),
        queries: queries(w, &mut Rng::new(seed, 2)),
        updates: updates(w, &mut Rng::new(seed, 3)),
    }
}

/// FNV-style digest of a point sequence.
fn digest_points(points: impl IntoIterator<Item = Point>) -> u64 {
    points.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        splitmix(h ^ splitmix(p.x as u64) ^ (p.y as u64).rotate_left(32))
    })
}

impl Inputs {
    /// Digest of the base dataset, in point order.
    pub fn dataset_digest(&self) -> u64 {
        digest_points(self.dataset.points().iter().copied())
    }

    /// Digest of the query list (points and kinds) and the update list.
    pub fn query_digest(&self) -> u64 {
        let kinds = self.queries.iter().map(|q| q.kind as u64);
        let points = self.queries.iter().map(|q| q.p);
        splitmix(digest_points(points) ^ kinds.fold(0, |h, k| splitmix(h ^ k)))
            ^ digest_points(self.updates.iter().copied()).rotate_left(17)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_reproduces_its_inputs_and_another_changes_them() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            let b = generate(w, 7);
            let c = generate(w, 8);
            assert_eq!(a.dataset_digest(), b.dataset_digest(), "{}", w.name());
            assert_eq!(a.query_digest(), b.query_digest(), "{}", w.name());
            assert_ne!(a.dataset_digest(), c.dataset_digest(), "{}", w.name());
            assert_ne!(a.query_digest(), c.query_digest(), "{}", w.name());
        }
    }

    #[test]
    fn coordinates_keep_queries_off_every_boundary() {
        for w in Workload::ALL {
            let inputs = generate(w, 3);
            assert_eq!(inputs.dataset.len(), w.n());
            assert!(inputs
                .dataset
                .points()
                .iter()
                .all(|p| p.x % 8 == 0 && p.y % 8 == 0));
            assert!(inputs.updates.iter().all(|p| p.x % 8 == 4 && p.y % 8 == 4));
            assert!(inputs
                .queries
                .iter()
                .all(|q| q.p.x % 2 == 1 && q.p.y % 2 == 1));
            assert_eq!(inputs.queries.len(), w.list_len());
        }
    }

    #[test]
    fn base_coordinates_are_distinct_per_axis() {
        let inputs = generate(Workload::ReadUniform, 11);
        let mut xs: Vec<i64> = inputs.dataset.points().iter().map(|p| p.x).collect();
        xs.sort_unstable();
        assert_eq!(xs, (0..400).map(|r| 8 * r).collect::<Vec<_>>());
        let inputs = generate(Workload::WriteDynamic, 11);
        for axis in [|p: &Point| p.x, |p: &Point| p.y] {
            let mut v: Vec<i64> = inputs.dataset.points().iter().map(axis).collect();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), Workload::WriteDynamic.n());
        }
    }

    #[test]
    fn the_mix_only_asks_for_diagrams_the_workload_builds() {
        for w in Workload::ALL {
            let opts = w.options();
            for q in generate(w, 5).queries {
                match q.kind {
                    Kind::Global => assert!(opts.with_global, "{}", w.name()),
                    Kind::Dynamic => assert!(opts.with_dynamic, "{}", w.name()),
                    Kind::Quadrant | Kind::SafeZone => {}
                }
            }
        }
    }
}
