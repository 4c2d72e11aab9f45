//! Sample statistics and metric bookkeeping shared by every workload.

use std::fmt::Write as _;

/// Samples beyond a reported tail percentile: a percentile is only
/// reported when at least this many samples lie above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `0..=100`) of a sample. The rank is
/// `ceil(q/100 * n)`, so `percentile(s, 50.0)` of an even-sized sample
/// is its lower middle value. Returns `None` for an empty sample.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Median (mean of the two middle values for an even-sized sample).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// The highest whole-number percentile, capped at `cap`, that still has
/// at least [`TAIL_MIN_BEYOND`] samples strictly above its nearest rank;
/// `None` when the sample is too small for any.
#[must_use]
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    (1..=cap.min(99)).rev().find(|&q| {
        let rank = nearest_rank(n, f64::from(q));
        n > TAIL_MIN_BEYOND && n - rank >= TAIL_MIN_BEYOND
    })
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: at most 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (validated by [`Metrics::push`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value is computed from, printed beside it (sample count,
    /// base of a ratio).
    pub base: String,
}

/// An ordered, name-unique collection of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// On an invalid or duplicate name, an invalid unit or a non-finite
    /// value — each is a bug in the benchmark itself.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, base: impl Into<String>) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(valid_unit(unit), "invalid unit `{unit}` for `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(self.items.iter().all(|m| m.name != name), "duplicate metric `{name}`");
        self.items.push(Metric { name: name.to_string(), value, unit, base: base.into() });
    }

    /// Moves every metric of `other` into `self`.
    pub fn extend(&mut self, other: Metrics) {
        for m in other.items {
            self.push(&m.name, m.value, m.unit, m.base);
        }
    }

    /// One human-readable line per metric.
    #[must_use]
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.items {
            let _ = writeln!(out, "  {:<44} {:>14.6} {:<6} [{}]", m.name, m.value, m.unit, m.base);
        }
        out
    }

    /// The `"metrics"` JSON object of the result line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints an f64 with every digit needed to round-trip.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        out
    }
}

/// The result line the benchmark prints last.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak resident set size to the current one, so a later
/// [`peak_rss_mb`] covers only what ran in between. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / CLOCK_TICKS_PER_S)
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly ten beyond, p91 only nine.
        assert_eq!(tail_percentile(100, 99), Some(90));
        assert_eq!(tail_percentile(100, 50), Some(50));
        // 1000 samples support p99.
        assert_eq!(tail_percentile(1000, 99), Some(99));
        // 60 samples: rank ceil(0.83*60)=50 leaves 10; p84 -> rank 51.
        assert_eq!(tail_percentile(60, 99), Some(83));
        // Ten or fewer samples support no percentile at all.
        assert_eq!(tail_percentile(10, 99), None);
        assert_eq!(tail_percentile(11, 99), Some(9));
        for n in 11..500 {
            let q = tail_percentile(n, 99).unwrap();
            let rank = nearest_rank(n, f64::from(q));
            assert!(n - rank >= TAIL_MIN_BEYOND, "n={n} q={q}");
            if q < 99 {
                assert!(n - nearest_rank(n, f64::from(q + 1)) < TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn metric_names_and_units() {
        for good in ["setup_s", "campaign.behavioral.busy_s", "io.bytes.unit_state", "p-50", "9x"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MiB", "B/job"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn metrics_render_as_json_with_full_precision() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.203_456_789_012_3, "ms", "n=3");
        m.push("count", 3.0, "count", "");
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
        assert_eq!(
            result_line(true, 5, 0, &m),
            format!(
                "{{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {}}}",
                m.to_json()
            )
        );
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_names_are_rejected() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s", "");
        m.push("a", 2.0, "s", "");
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(peak_rss_mb().is_some_and(|v| v > 0.0));
        if reset_peak_rss() {
            let big = vec![1u8; 64 << 20];
            let peak = peak_rss_mb().unwrap();
            assert!(peak >= 64.0, "peak {peak} MiB after touching 64 MiB");
            drop(std::hint::black_box(big));
            assert!(reset_peak_rss());
            assert!(peak_rss_mb().unwrap() < peak);
        }
        assert!(process_cpu_s().is_some_and(|v| v >= 0.0));
    }
}
