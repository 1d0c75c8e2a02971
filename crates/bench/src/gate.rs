//! The bounds `experiments --gate` holds, as one table.
//!
//! Every guard the evaluation keeps beyond the paper is one [`Gate`] row
//! of [`TABLE`]: the parallel regression ratio, the t4/t1 efficiency
//! grades, the telemetry-overhead budget, the E13 open-loop SLOs, the E14
//! cold-start floor and the E15 memory bounds. A row names the records it
//! checks, the baseline record each is compared with (for ratio bounds),
//! the metric, the bound and its floor or slack. [`evaluate`] checks any
//! set of rows against one run's records and reports every violation at
//! once, each naming the gate, the record, the metric, the measured value
//! and the bound.
//!
//! Ratio bounds compare records of the same invocation on the same host,
//! so the machine's absolute speed cancels out.

use std::collections::BTreeMap;

use crate::fmt_ms;
use crate::json::BenchRecord;

/// One bound on a run's bench records.
#[derive(Clone, Copy)]
pub struct Gate {
    /// Names the gate in its messages.
    pub name: &'static str,
    /// The record-producing passes that arm the row: experiment ids
    /// (`"e11"`), or `"telemetry"` for the recording on/off legs.
    pub armed_by: &'static [&'static str],
    /// The metric comes from the counting allocator, so the row cannot be
    /// checked when `mem-telemetry` is compiled out (every byte reads 0).
    pub needs_allocator: bool,
    /// Selects the records the bound applies to.
    pub select: fn(&BenchRecord) -> bool,
    /// The baseline each selected record is compared with. Required by
    /// the ratio bounds [`Bound::Slowdown`] and [`Bound::Speedup`].
    pub pair: Option<Pair>,
    /// What is measured on each record.
    pub metric: Metric,
    /// The bound the measured value must keep.
    pub bound: Bound,
    /// Which pairs are exempt, or how much absolute slack a slowdown gets.
    pub leeway: Leeway,
}

/// How a selected record finds its baseline.
#[derive(Clone, Copy)]
pub struct Pair {
    /// Selects the baseline records.
    pub baseline: fn(&BenchRecord) -> bool,
    /// A selected record and a baseline pair when their keys are equal.
    pub key: fn(&BenchRecord) -> String,
}

/// The measured quantity of a record.
#[derive(Clone, Copy)]
pub enum Metric {
    /// The fastest repetition's wall time, in milliseconds.
    MinMs,
    /// Each named entry of [`BenchRecord::metrics`], bounded on its own.
    Keys(&'static [&'static str]),
    /// Retained arena bytes per diagram cell: `mem.heap_bytes / mem.cells`.
    BytesPerCell,
}

/// The bound a measured value must keep.
#[derive(Clone, Copy)]
pub enum Bound {
    /// The value is at most this.
    AtMost(f64),
    /// The value is at most this multiple of its baseline's (plus any
    /// [`Leeway::Slack`]).
    Slowdown(f64),
    /// The baseline's value over this one is at least the ratio graded
    /// for the record on a host with the given number of hardware threads.
    Speedup(fn(&BenchRecord, usize) -> f64),
}

/// Exemptions and allowances of a ratio bound.
#[derive(Clone, Copy)]
pub enum Leeway {
    /// Every comparison counts.
    None,
    /// A pair whose two values are both below this is exempt.
    FloorBoth(f64),
    /// A pair whose baseline value is below this is exempt.
    FloorBaseline(f64),
    /// Added to a [`Bound::Slowdown`] limit.
    Slack(f64),
}

/// Timings under this many milliseconds measure scheduler jitter on
/// shared hosts, not the code (a dynamic/subset n = 10 record at ~1 ms
/// once flaked the regression guard), so ratios between them are exempt.
const JITTER_FLOOR_MS: f64 = 5.0;

/// The E11–E13 timing sweeps, whose `threads = 0` rows are the sequential
/// reference of the same configuration. E15 rows carry a threads column
/// too, but time one build each: bytes are their measurand.
fn timing_sweep(r: &BenchRecord) -> bool {
    matches!(r.experiment.as_str(), "e11" | "e12" | "e13")
}

/// The E15 diagram-build rows (not the serve snapshot row).
fn e15_build(r: &BenchRecord) -> bool {
    r.experiment == "e15" && !r.algorithm.starts_with("serve/")
}

/// The legs of a comparison run under a leg suffix, `<family>/<leg>`.
fn leg(r: &BenchRecord, experiment: &str, leg: &str) -> bool {
    r.experiment == experiment && r.algorithm.rsplit_once('/').is_some_and(|(_, l)| l == leg)
}

/// One configuration of a sweep, across thread counts.
fn config_key(r: &BenchRecord) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}",
        r.experiment, r.algorithm, r.n, r.s, r.d, r.distribution
    )
}

/// One configuration whose legs are named `<family>/<leg>`.
fn family_key(r: &BenchRecord) -> String {
    let family = r.algorithm.rsplit_once('/').map_or("", |(f, _)| f);
    format!(
        "{}|{family}|{}|{}|{}|{}",
        r.experiment, r.n, r.s, r.d, r.distribution
    )
}

/// The t4/t1 speedup an E11 configuration must reach. Hosts with at least
/// 4 hardware threads must show real speedup on the large global builds
/// (where a scaling cliff once lived; the smoke profile stays below
/// n = 400, so this grade arms on the full profile) and parity elsewhere.
/// On narrower hosts 4 workers time-slice fewer cores: t = 4 may pay a
/// bounded oversubscription tax but must not collapse.
fn efficiency(r: &BenchRecord, host_width: usize) -> f64 {
    if host_width < 4 {
        0.8
    } else if r.algorithm.starts_with("global/") && r.n >= 400 {
        2.0
    } else {
        1.0
    }
}

/// Every gate `experiments --gate` can arm.
pub const TABLE: &[Gate] = &[
    // No parallel configuration may be more than 1.25x slower than its own
    // sequential run.
    Gate {
        name: "parallel-regression",
        armed_by: &["e11", "e12", "e13"],
        needs_allocator: false,
        select: |r| timing_sweep(r) && r.threads > 0,
        pair: Some(Pair {
            baseline: |r| timing_sweep(r) && r.threads == 0,
            key: config_key,
        }),
        metric: Metric::MinMs,
        bound: Bound::Slowdown(1.25),
        leeway: Leeway::FloorBoth(JITTER_FLOOR_MS),
    },
    // t=1 over t=4 on every E11 configuration, graded by host width.
    Gate {
        name: "t4/t1-efficiency",
        armed_by: &["e11"],
        needs_allocator: false,
        select: |r| r.experiment == "e11" && r.threads == 4,
        pair: Some(Pair {
            baseline: |r| r.experiment == "e11" && r.threads == 1,
            key: config_key,
        }),
        metric: Metric::MinMs,
        bound: Bound::Speedup(efficiency),
        leeway: Leeway::FloorBoth(JITTER_FLOOR_MS),
    },
    // Recording spans may cost 5%, plus 0.5 ms so sub-millisecond builds
    // do not gate on scheduler noise.
    Gate {
        name: "telemetry-overhead",
        armed_by: &["telemetry"],
        needs_allocator: false,
        select: |r| leg(r, "telemetry", "on"),
        pair: Some(Pair {
            baseline: |r| leg(r, "telemetry", "off"),
            key: family_key,
        }),
        metric: Metric::MinMs,
        bound: Bound::Slowdown(1.05),
        leeway: Leeway::Slack(0.5),
    },
    // Open-loop SLOs on the queue-free `lanes = 0` rows, in µs. Multi-lane
    // rows are left out on purpose: on a 1-core host trailing lanes start
    // after the schedule, so their tails measure its length, not the
    // server. The bounds are generous: they catch a stall, a lock convoy
    // or an O(n) rescan on shared CI hardware, not µs-level drift.
    Gate {
        name: "slo-p99",
        armed_by: &["e13"],
        needs_allocator: false,
        select: |r| r.experiment == "e13" && r.threads == 0,
        pair: None,
        metric: Metric::Keys(&[
            "quadrant.p99_us",
            "global.p99_us",
            "safe_zone.p99_us",
            "trace.p99_us",
            "overall.p99_us",
        ]),
        bound: Bound::AtMost(100_000.0),
        leeway: Leeway::None,
    },
    Gate {
        name: "slo-p999",
        armed_by: &["e13"],
        needs_allocator: false,
        select: |r| r.experiment == "e13" && r.threads == 0,
        pair: None,
        metric: Metric::Keys(&["overall.p999_us"]),
        bound: Bound::AtMost(250_000.0),
        leeway: Leeway::None,
    },
    // A container load must beat the rebuild it skips by an order of
    // magnitude at n >= 400: skipping construction is its whole point.
    Gate {
        name: "cold-start",
        armed_by: &["e14"],
        needs_allocator: false,
        select: |r| leg(r, "e14", "load") && r.n >= 400,
        pair: Some(Pair {
            baseline: |r| leg(r, "e14", "rebuild") && r.n >= 400,
            key: family_key,
        }),
        metric: Metric::MinMs,
        bound: Bound::Speedup(|_, _| 10.0),
        leeway: Leeway::FloorBaseline(JITTER_FLOOR_MS),
    },
    // Parallel workers hold per-band scratch, but the arena outputs
    // dominate, so a t=4 build's peak stays near the t=0 build's. Pairs
    // under 1 MiB measure allocator noise (thread spawns, registry nodes).
    Gate {
        name: "e15-peak",
        armed_by: &["e15"],
        needs_allocator: true,
        select: |r| e15_build(r) && r.threads > 0,
        pair: Some(Pair {
            baseline: |r| e15_build(r) && r.threads == 0,
            key: config_key,
        }),
        metric: Metric::Keys(&["mem.peak_bytes"]),
        bound: Bound::Slowdown(1.25),
        leeway: Leeway::FloorBoth((1u64 << 20) as f64),
    },
    // The worst measured build is global at ~90 B/cell; the budget sits
    // well above, so a nested `Vec` per cell or an un-shrunk scratch
    // buffer trips it while allocator rounding does not.
    Gate {
        name: "bytes-per-cell",
        armed_by: &["e15"],
        needs_allocator: false,
        select: e15_build,
        pair: None,
        metric: Metric::BytesPerCell,
        bound: Bound::AtMost(128.0),
        leeway: Leeway::None,
    },
];

/// Checks every row against `records`; `host_width` is the number of
/// hardware threads, which grades [`Bound::Speedup`] ratios. Returns the
/// number of comparisons made (exempt ones included), or every violation:
/// a broken bound, a selected record without a baseline or a baseline
/// without a selected record, a missing metric, and a row that matched no
/// record at all, which would otherwise pass vacuously.
pub fn evaluate(
    rows: &[Gate],
    records: &[BenchRecord],
    host_width: usize,
) -> Result<usize, Vec<String>> {
    let mut checked = 0;
    let mut violations = Vec::new();
    for gate in rows {
        let found = violations.len();
        let n = gate.check(records, host_width, &mut violations);
        if n == 0 && violations.len() == found {
            violations.push(format!(
                "{}: nothing checked: no record matched (run {} with --gate)",
                gate.name,
                gate.armed_by.join(" or ")
            ));
        }
        checked += n;
    }
    if violations.is_empty() {
        Ok(checked)
    } else {
        Err(violations)
    }
}

/// `experiment algorithm n=.. dist=.. threads=..`: names a record in a
/// message.
fn label(r: &BenchRecord) -> String {
    format!(
        "{} {} n={} dist={} threads={}",
        r.experiment, r.algorithm, r.n, r.distribution, r.threads
    )
}

impl Metric {
    /// The record's `(metric name, value)` readings; `None` when the
    /// record does not carry the metric.
    fn read(&self, r: &BenchRecord) -> Vec<(&'static str, Option<f64>)> {
        let key = |name: &str| {
            r.metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v as f64)
        };
        match *self {
            Metric::MinMs => vec![("min_ms", Some(r.min_ms))],
            Metric::Keys(names) => names.iter().map(|&name| (name, key(name))).collect(),
            Metric::BytesPerCell => {
                let per_cell = match (key("mem.heap_bytes"), key("mem.cells")) {
                    (Some(heap), Some(cells)) if cells > 0.0 => Some(heap / cells),
                    _ => None,
                };
                vec![("bytes_per_cell", per_cell)]
            }
        }
    }

    /// A value in the metric's unit, for messages.
    fn show(&self, v: f64) -> String {
        match self {
            Metric::MinMs => fmt_ms(v),
            Metric::Keys(_) => format!("{v:.0}"),
            Metric::BytesPerCell => format!("{v:.1}"),
        }
    }
}

impl Gate {
    /// Appends this row's violations to `out`; returns the number of
    /// comparisons made.
    fn check(&self, records: &[BenchRecord], host_width: usize, out: &mut Vec<String>) -> usize {
        let mut checked = 0;
        let missing = |r: &BenchRecord, metric: &str| {
            format!("{}: {}: no measurement of {metric}", self.name, label(r))
        };
        // Baselines by key, each with whether a selected record used it.
        let mut baselines: BTreeMap<String, (&BenchRecord, bool)> = BTreeMap::new();
        if let Some(pair) = self.pair {
            for r in records.iter().filter(|r| (pair.baseline)(r)) {
                baselines.insert((pair.key)(r), (r, false));
            }
        }
        for r in records.iter().filter(|r| (self.select)(r)) {
            let base = match self.pair {
                None => None,
                Some(pair) => match baselines.get_mut(&(pair.key)(r)) {
                    Some((base, used)) => {
                        *used = true;
                        Some(*base)
                    }
                    None => {
                        out.push(format!("{}: {}: no baseline record", self.name, label(r)));
                        continue;
                    }
                },
            };
            for (i, (metric, value)) in self.metric.read(r).into_iter().enumerate() {
                let Some(value) = value else {
                    out.push(missing(r, metric));
                    continue;
                };
                let base = match base {
                    None => None,
                    Some(b) => match self.metric.read(b)[i].1 {
                        Some(base_value) => Some((b, base_value)),
                        None => {
                            out.push(missing(b, metric));
                            continue;
                        }
                    },
                };
                checked += 1;
                if let Some(why) = self.verdict(r, metric, value, base, host_width) {
                    out.push(format!("{}: {}: {why}", self.name, label(r)));
                }
            }
        }
        for (base, used) in baselines.values() {
            if !used {
                out.push(format!(
                    "{}: {}: baseline has no record to compare",
                    self.name,
                    label(base)
                ));
            }
        }
        checked
    }

    /// Why `value` breaks the bound, or `None` when it holds or its pair
    /// is exempt.
    fn verdict(
        &self,
        r: &BenchRecord,
        metric: &str,
        value: f64,
        base: Option<(&BenchRecord, f64)>,
        host_width: usize,
    ) -> Option<String> {
        let show = |v| self.metric.show(v);
        let baseline = || base.expect("the table pairs every ratio bound with a baseline");
        match self.bound {
            Bound::AtMost(limit) => (value > limit).then(|| {
                format!(
                    "{metric} = {} exceeds the bound {}",
                    show(value),
                    show(limit)
                )
            }),
            Bound::Slowdown(ratio) => {
                let (_, b) = baseline();
                let slack = match self.leeway {
                    Leeway::Slack(slack) => slack,
                    _ => 0.0,
                };
                let limit = ratio * b + slack;
                let bound = if slack > 0.0 {
                    format!("{ratio}x + {} = {}", show(slack), show(limit))
                } else {
                    format!("{ratio}x")
                };
                (value > limit && !self.exempt(value, b)).then(|| {
                    format!(
                        "{metric} {} vs baseline {} is {:.2}x, over the bound {bound}",
                        show(value),
                        show(b),
                        value / b
                    )
                })
            }
            Bound::Speedup(grade) => {
                let (base_record, b) = baseline();
                let ratio = grade(r, host_width);
                (b / value < ratio && !self.exempt(value, b)).then(|| {
                    format!(
                        "{metric} speedup {:.2}x over baseline {} ({} vs {}) is under the \
                         bound {ratio:.2}x on a {host_width}-thread host",
                        b / value,
                        base_record.algorithm,
                        show(b),
                        show(value)
                    )
                })
            }
        }
    }

    /// Whether the floor exempts a pair with these values.
    fn exempt(&self, value: f64, base: f64) -> bool {
        match self.leeway {
            Leeway::FloorBoth(floor) => value < floor && base < floor,
            Leeway::FloorBaseline(floor) => base < floor,
            Leeway::None | Leeway::Slack(_) => false,
        }
    }
}
