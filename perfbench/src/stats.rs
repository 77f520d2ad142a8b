//! Order statistics, the process's memory high-water mark, and the
//! result line.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples beyond it. The ladder stops at p99: beyond it, repeated runs
/// on a small shared machine disagree by far more than any usable
/// regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
}

pub fn tail(sorted: &[f64]) -> Tail {
    const LADDER: [f64; 4] = [0.5, 0.9, 0.95, 0.99];
    let n = sorted.len();
    let p = LADDER
        .into_iter()
        .rev()
        .find(|p| (n as f64 * (1.0 - p)).round() >= 10.0)
        .unwrap_or(0.5);
    Tail {
        percentile: p * 100.0,
        value: percentile(sorted, p),
        n,
    }
}

/// `VmHWM` of this process, in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (which JSON cannot carry) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 90.0);
    }
}
