//! Shared infrastructure for the benchmark suite and the `experiments`
//! binary: dataset construction for every sweep in DESIGN.md's experiment
//! index, plus a small wall-clock measurement helper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use skyline_core::geometry::{Dataset, DatasetD};
use skyline_data::{DatasetSpec, Distribution};

pub mod diag;
pub mod gate;
pub mod json;
pub mod quantile;

/// Fixed base seed: every experiment is reproducible bit-for-bit.
pub const BASE_SEED: u64 = 20180417; // ICDE 2018 main-conference week

/// Planar dataset for an (n, distribution) sweep point. The domain scales
/// with `n` (10 values per point) so general position dominates, matching
/// the unbounded-domain analyses; E2 varies the domain explicitly.
pub fn sweep_dataset(n: usize, distribution: Distribution) -> Dataset {
    DatasetSpec {
        n,
        dims: 2,
        domain: 10 * n as i64,
        distribution,
        seed: BASE_SEED,
    }
    .build_2d()
}

/// Planar dataset with an explicit domain size (experiment E2).
pub fn domain_dataset(n: usize, domain: i64, distribution: Distribution) -> Dataset {
    DatasetSpec {
        n,
        dims: 2,
        domain,
        distribution,
        seed: BASE_SEED,
    }
    .build_2d()
}

/// d-dimensional dataset for the high-dimensional sweeps (experiment E4).
pub fn highd_dataset(n: usize, dims: usize, distribution: Distribution) -> DatasetD {
    DatasetSpec {
        n,
        dims,
        domain: 10 * n as i64,
        distribution,
        seed: BASE_SEED,
    }
    .build_d()
}

/// Milliseconds for one run of `f`, minimized over `reps` runs (reduces
/// scheduler noise without criterion's sampling overhead — the experiments
/// binary sweeps configurations too large to criterion-sample).
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps > 0);
    (0..reps)
        .map(|_| time_once(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Wall-time summary over a set of repetitions, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeStats {
    /// Fastest repetition — the low-noise figure the tables report.
    pub min_ms: f64,
    /// Median repetition — a robustness check against one lucky run.
    pub median_ms: f64,
}

/// Times `reps` runs of `f` and returns the minimum and median wall times.
/// The machine-readable bench records carry both so a regression gate can
/// compare minima while the median exposes scheduling noise.
pub fn time_stats<T>(reps: usize, mut f: impl FnMut() -> T) -> TimeStats {
    assert!(reps > 0);
    summarize((0..reps).map(|_| time_once(&mut f)).collect())
}

/// Times the two legs of one comparison rep by rep, `reps` runs each, in
/// the order `a b`, `b a`, `a b`, … A change in the host's speed during
/// the run then lands on both legs alike instead of on whichever ran
/// second. The order flips every rep because a leg is slower right after
/// the other one: a container load that follows a rebuild pays minor
/// faults for pages the rebuild's frees gave back, where a load after a
/// load reuses them.
pub fn time_interleaved<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (TimeStats, TimeStats) {
    assert!(reps > 0);
    let (mut a_ms, mut b_ms) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..reps {
        if rep % 2 == 0 {
            a_ms.push(time_once(&mut a));
            b_ms.push(time_once(&mut b));
        } else {
            b_ms.push(time_once(&mut b));
            a_ms.push(time_once(&mut a));
        }
    }
    (summarize(a_ms), summarize(b_ms))
}

/// Milliseconds for one run of `f`; the result is dropped after the clock
/// stops.
fn time_once<T>(f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(out);
    elapsed
}

/// Minimum and median of a non-empty sample set.
fn summarize(mut samples: Vec<f64>) -> TimeStats {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    let reps = samples.len();
    let median_ms = if reps % 2 == 1 {
        samples[reps / 2]
    } else {
        (samples[reps / 2 - 1] + samples[reps / 2]) / 2.0
    };
    TimeStats {
        min_ms: samples[0],
        median_ms,
    }
}

/// Formats a milliseconds figure compactly for the experiment tables.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1e3)
    } else if ms >= 1.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{:.0}µs", ms * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_reproducible() {
        assert_eq!(
            sweep_dataset(50, Distribution::Independent),
            sweep_dataset(50, Distribution::Independent)
        );
        assert_eq!(highd_dataset(20, 3, Distribution::Correlated).dims(), 3);
        assert_eq!(
            domain_dataset(50, 16, Distribution::Anticorrelated).len(),
            50
        );
    }

    #[test]
    fn timing_returns_positive_values() {
        let ms = time_ms(3, || (0..1000).sum::<u64>());
        assert!(ms >= 0.0);
    }

    #[test]
    fn time_stats_orders_min_and_median() {
        let stats = time_stats(5, || (0..1000).sum::<u64>());
        assert!(stats.min_ms >= 0.0);
        assert!(stats.median_ms >= stats.min_ms);
    }

    #[test]
    fn interleaved_legs_alternate_their_order_every_rep() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = time_interleaved(
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), ['a', 'b', 'b', 'a', 'a', 'b']);
        assert!(a.median_ms >= a.min_ms && b.median_ms >= b.min_ms);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(2500.0), "2.50s");
        assert_eq!(fmt_ms(12.34), "12.3ms");
        assert_eq!(fmt_ms(0.5), "500µs");
    }
}
