//! Percentiles, metric names and the result line.
//!
//! Every timing the benchmark reports is a nearest-rank percentile over the
//! samples of one run. A high percentile is only reported when the run
//! leaves at least [`MIN_BEYOND`] samples above it, so a p99 needs 1000
//! samples and a p90 needs 100.

use std::fmt::Write as _;

/// Samples a reported percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the sample at rank
/// `ceil(q * n)` (1-based). `None` when the slice is empty or when fewer
/// than `min_beyond` samples lie beyond that rank.
///
/// # Panics
/// Panics when `q` is outside `(0, 1]`.
#[must_use]
pub fn percentile<T: Copy>(sorted: &[T], q: f64, min_beyond: usize) -> Option<T> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // `q * n` is exact enough for the sizes a run produces; the clamp keeps
    // rounding at q = 1 inside the slice.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Median of an unsorted set of values (the lower middle for even sizes,
/// which is the nearest-rank p50). `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5, 0)
}

/// Whether `name` is a valid metric name: non-empty, at most 64 bytes, made
/// of ASCII letters, digits, `_`, `.` and `-`, starting with a letter or a
/// digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics, in the order given.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite `f64` in JSON form, with every digit Rust's shortest
/// round-trip formatting gives; non-finite values (which no metric may
/// take) become `null` so the line stays parseable.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_ceil_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5, 0), Some(50));
        assert_eq!(percentile(&v, 0.9, 0), Some(90));
        assert_eq!(percentile(&v, 0.99, 0), Some(99));
        assert_eq!(percentile(&v, 1.0, 0), Some(100));
        // rank = ceil(0.5 * 5) = 3
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5, 0), Some(30));
        assert_eq!(percentile(&[7], 0.99, 0), Some(7));
        assert_eq!(percentile::<u32>(&[], 0.5, 0), None);
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly 10 beyond, allowed.
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.9, MIN_BEYOND), Some(90));
        // 99 samples: rank ceil(89.1) = 90, 9 beyond, refused.
        assert_eq!(percentile(&v[..99], 0.9, MIN_BEYOND), None);
        // p99 needs 1000 samples.
        let w: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&w, 0.99, MIN_BEYOND), Some(990));
        assert_eq!(percentile(&w[..999], 0.99, MIN_BEYOND), None);
        // The median of a small run is fine.
        assert_eq!(
            percentile(
                &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21],
                0.5,
                MIN_BEYOND
            ),
            Some(11)
        );
    }

    #[test]
    fn median_is_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "graph.apply_ms", "fresh-p90", "0x", "a.b_c-d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "semi;colon",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "us", "1/s", "%", "count/update", "B"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-chars-x", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric {
                    name: "a_ms",
                    unit: "ms",
                    value: 1.25,
                },
                Metric {
                    name: "b",
                    unit: "count",
                    value: 3.0,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
