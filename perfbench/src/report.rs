//! Metrics, correctness tallies and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// Checked operations and their failures.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one checked operation with its verdict.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = verdict {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(note);
            }
        }
    }

    /// Failed ÷ attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether at least one operation was checked and none failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
///
/// # Panics
///
/// Panics on a non-finite value or an invalid name (a benchmark bug).
#[must_use]
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        assert!(valid_name(&m.name), "metric name {:?}", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut t = Tally::default();
        t.check(Ok(()));
        t.check(Err("boom".into()));
        let line = result_line(&t, &[Metric::new("a.b", "ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"a.b\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(t.error_rate(), 0.5);
    }

    #[test]
    fn names() {
        assert!(valid_name("sim.run_ns_per_cycle.vliw62.ops"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }
}
