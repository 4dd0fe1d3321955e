//! Small numeric and process helpers shared by the workloads.

use std::time::Duration;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted copy;
/// `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99, p95 and p90 that leaves at least ten samples
/// above it, with its label; the median when the sample is too small
/// for any of them.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")] {
        if (values.len() as f64) * (1.0 - q) >= 10.0 {
            return (quantile(values, q), label);
        }
    }
    (median(values), "p50")
}

/// Peak resident set size (`VmHWM`) of a process in MiB, from procfs.
/// `None` when the process is gone or the field is missing.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sum of `values`.
pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}
