//! Measurement helpers and the result line: percentiles, process CPU
//! time and peak memory, and the one-line JSON result.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux target the workspace builds for).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time (user + system, all threads) this process has used, in
/// seconds, from `/proc/self/stat`; `0.0` where it cannot be read.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `0.0` where it cannot be read.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Operation counts and the run-level verdict of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// False when a run-level check (not tied to one operation) failed.
    pub broken: bool,
}

impl Outcome {
    /// Folds another outcome into this one.
    pub fn add(&mut self, o: Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.broken |= o.broken;
    }
}

/// Renders the result line. A value that is not finite is reported as
/// `0` and marks the run as not correct.
pub fn result_line(outcome: Outcome, metrics: &Metrics) -> String {
    let mut correct = !outcome.broken && outcome.attempted > 0;
    let mut body = String::new();
    for (i, m) in metrics.0.iter().enumerate() {
        let v = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("metric {} is not finite ({})", m.name, m.value);
            correct = false;
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips,
        // always with a decimal point or exponent.
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("qps", 12.5, "1/s");
        m.put("setup_s", 1e-3, "s");
        let line = result_line(
            Outcome {
                attempted: 10,
                failed: 0,
                broken: false,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.001, \"unit\": \"s\"}}}"
        );
    }
}
