//! Named metrics and the result line.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    /// Metrics that could not be measured, in words.
    pub missing: Vec<String>,
}

impl Metrics {
    /// Adds a metric, or records it as missing when `value` is `None` or
    /// not finite (too few samples, an empty window).
    pub fn push(
        &mut self,
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) {
        match value.filter(|v| v.is_finite()) {
            Some(value) => self.list.push(Metric {
                name,
                value,
                unit,
                samples,
            }),
            None => self
                .missing
                .push(format!("{name}: not measurable from {samples} samples")),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One human-readable line per metric.
    pub fn print_table(&self) {
        for m in &self.list {
            println!(
                "  {:<40} {:>14.4} {:<7} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, m) in metrics.list.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.push("latency_ms", Some(1.25), "ms", 10);
        metrics.push("gone", None, "ms", 3);
        metrics.push("nan", Some(f64::NAN), "ms", 3);
        assert_eq!(metrics.missing.len(), 2);
        assert_eq!(
            result_line(true, 5, 0, &metrics),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
