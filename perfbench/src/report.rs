//! Named sample series and the printed result.

use std::collections::BTreeMap;

use crate::check::Tallies;
use crate::stats::median;

/// Samples per metric name, reduced to medians at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct Series {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Series {
    /// Appends one measured value.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of a series, or `None` if it has no samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| median(v))
    }

    /// Number of samples in a series.
    pub fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Formats a value with every digit it has; non-finite values (which no
/// metric should produce) print as JSON `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(tallies: &Tallies, metrics: &[Metric]) -> String {
    let total = tallies.total();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        total.attempted,
        total.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;

    #[test]
    fn json_line_has_the_contract_keys() {
        let tallies = Tallies {
            read: Tally {
                attempted: 10,
                failed: 0,
            },
            ..Tallies::default()
        };
        let line = json_line(
            &tallies,
            &[Metric {
                name: "read_qps".into(),
                unit: "1/s",
                value: 1234.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"read_qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn a_failure_or_a_missing_value_is_not_correct() {
        let mut tallies = Tallies::default();
        tallies.publish.record(4, 1);
        assert!(json_line(&tallies, &[]).starts_with("{\"correct\": false"));
        let nan = Metric {
            name: "x".into(),
            unit: "ms",
            value: f64::NAN,
        };
        assert!(json_line(&Tallies::default(), &[nan]).contains("\"value\": null"));
    }
}
