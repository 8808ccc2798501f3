//! Order statistics and the one-line JSON result.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Lower median of exact counts, so the figure stays an observed integer.
pub fn lower_median(v: &mut [u64]) -> u64 {
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// Mean of `v` without its lowest and highest quarters (all of `v` below
/// four values); 0 when empty.
pub fn interquartile_mean(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    let cut = if v.len() < 4 { 0 } else { v.len() / 4 };
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().map(|&x| x as f64).sum::<f64>() / mid.len() as f64
}

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it among `guaranteed` samples, and its value in `v` (nearest
/// rank; `v` holds at least `guaranteed` samples). Choosing the percentile
/// from the count every run is sure to reach, not from the count this run
/// reached, keeps it the same from run to run. Below `2 * TAIL_BEYOND`
/// samples no percentile qualifies and the median is reported as
/// percentile 50.
pub fn tail(v: &mut [f64], guaranteed: usize) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = guaranteed.min(n);
    for p in TAIL_LADDER {
        let beyond = m - ((p / 100.0) * m as f64).ceil() as usize;
        if beyond >= TAIL_BEYOND {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            return (p, v[rank.max(1) - 1]);
        }
    }
    (50.0, median(v))
}

/// A metric value: exact counts print as integers, measurements with every
/// digit `f64` formatting keeps.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    Count(u64),
    Real(f64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Value::Count(c) => write!(f, "{c}"),
            // JSON has no NaN or infinity; a non-finite figure is a bug
            // upstream, so it reads as 0 rather than breaking the line.
            Value::Real(x) if !x.is_finite() => write!(f, "0"),
            Value::Real(x) if x == x.trunc() && x.abs() < 1e15 => write!(f, "{x:.1}"),
            Value::Real(x) => write!(f, "{x}"),
        }
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Value,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_lower_median() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(lower_median(&mut [4, 1, 2, 3]), 2);
        assert_eq!(lower_median(&mut []), 0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&mut [100, 1, 2, 3, 4, 5, 6, 0]), 3.5);
        assert_eq!(interquartile_mean(&mut [4, 2, 6]), 4.0);
        assert_eq!(interquartile_mean(&mut []), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 has exactly 10 samples beyond it; p95 only 5.
        assert_eq!(tail(&mut v, 100), (90.0, 90.0));
        // Only 40 samples are sure: p75 is the highest with 10 beyond.
        assert_eq!(tail(&mut v, 40), (75.0, 75.0));
        let mut few: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(tail(&mut few, 7), (50.0, 4.0));
    }

    #[test]
    fn json_shape() {
        let m = [
            Metric { name: "a", unit: "s", value: Value::Real(1.25) },
            Metric { name: "b", unit: "count", value: Value::Count(7) },
        ];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }
}
