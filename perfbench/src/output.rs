//! The benchmark's result line and the naming rules its metrics follow.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters,
/// each of them an ASCII letter, a digit, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters, each an ASCII letter, a digit, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Render the one-line JSON result. Every name and unit must be valid,
/// names unique, and values finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut seen = BTreeSet::new();
    let mut body = String::new();
    for m in metrics {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if !body.is_empty() {
            body.push_str(", ");
        }
        // `{:?}` prints the shortest text that reads back as the same f64.
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_alphabet() {
        for ok in [
            "wall_s",
            "uarch.roi_run_s",
            "mem.l1d.hits",
            "0-x",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok:?} should be valid");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "colon:no",
            "ünï",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn units_follow_the_unit_alphabet() {
        for ok in ["ms", "s", "1/s", "count", "%", "kinst/s"] {
            assert!(valid_unit(ok), "{ok:?}");
        }
        for bad in ["", "has space", "seventeen-chars-x", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_renders_every_metric() {
        let line = result_line(
            true,
            162,
            0,
            &[
                Metric::new("wall_s", 4.5, "s"),
                Metric::new("cell_p50_ms", 0.1 + 0.2, "ms"),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 162, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 4.5, \"unit\": \"s\"}, \
             \"cell_p50_ms\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let bad = |m: Metric| result_line(true, 1, 0, &[m]).unwrap_err();
        assert!(bad(Metric::new("bad name", 1.0, "s")).contains("name"));
        assert!(bad(Metric::new("x", 1.0, "µs")).contains("unit"));
        assert!(bad(Metric::new("x", f64::NAN, "s")).contains("finite"));
        let twice = [Metric::new("x", 1.0, "s"), Metric::new("x", 2.0, "s")];
        assert!(result_line(true, 1, 0, &twice)
            .unwrap_err()
            .contains("twice"));
    }
}
