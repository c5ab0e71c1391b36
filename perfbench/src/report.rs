//! Metrics, the human-readable report and the final JSON result line.

use crate::stats::{summarize, Summary};
use std::fmt::Write as _;

/// One reported metric: its value plus, when it came from several samples
/// in the run, their summary.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (the median when there are samples).
    pub value: f64,
    /// Samples behind the value, if more than one was taken.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A single measured value.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            summary: None,
        }
    }

    /// The median of `samples`, with their summary. Empty samples give 0.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let summary = summarize(samples);
        Self {
            name: name.into(),
            unit,
            value: summary.as_ref().map_or(0.0, |s| s.median),
            summary,
        }
    }

    /// The tail percentile of `samples` by the tail rule (0 without one).
    pub fn tail(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let summary = summarize(samples);
        Self {
            name: name.into(),
            unit,
            value: summary
                .as_ref()
                .and_then(|s| s.tail)
                .map_or(0.0, |(_, v)| v),
            summary,
        }
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// Operations attempted: jobs, sessions and passes, plus output checks.
    pub attempted: u64,
    /// Failed operations and failed output checks.
    pub failed: u64,
    /// Metrics reported in the result line.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report only.
    pub notes: Vec<Metric>,
}

/// Renders the human-readable report: one line per metric with its
/// median, quartiles, sample count and tail where it has samples.
pub fn render_text(outcome: &Outcome) -> String {
    let mut out = String::new();
    for (section, metrics) in [("metric", &outcome.metrics), ("note", &outcome.notes)] {
        for m in metrics {
            let _ = write!(
                out,
                "# {section} {:<44} {:>16.6} {:<6}",
                m.name, m.value, m.unit
            );
            if let Some(s) = &m.summary {
                let _ = write!(
                    out,
                    " median {:.6} q1 {:.6} q3 {:.6} n {}",
                    s.median, s.q1, s.q3, s.n
                );
                if let Some((p, v)) = s.tail {
                    let _ = write!(out, " p{p} {v:.6}");
                }
            }
            out.push('\n');
        }
    }
    let frac = if outcome.attempted == 0 {
        0.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    let _ = writeln!(
        out,
        "# metric {:<44} {:>16.6} {:<6} failed {} of {} attempted",
        "failed_frac", frac, "ratio", outcome.failed, outcome.attempted
    );
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value a finite number with all its digits.
pub fn render_json(outcome: &Outcome) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // names and units are plain ASCII identifiers: no escaping needed
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 4,
            failed: 0,
            metrics: vec![
                Metric::median("wall_s", "s", &[1.5, 1.25, 2.0]),
                Metric::value("setup_s", "s", 0.125),
            ],
            notes: Vec::new(),
        };
        let line = render_json(&outcome).expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        let bad = Outcome {
            metrics: vec![Metric::value("x", "s", f64::NAN)],
            ..outcome
        };
        assert!(render_json(&bad).is_err());
    }
}
