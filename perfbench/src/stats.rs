//! Small statistics helpers and the simulated-totals record every run
//! path is compared by.

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty. Sorts
/// `samples` in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    samples[rank - 1]
}

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Additive simulated totals of one pass over a workload. Every run path
/// (the engine's own, the traced driver, the session replay, the
/// multi-session engine at any width) must produce identical values for
/// the same inputs: the simulated cost model has no wall-clock input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Queries executed.
    pub queries: u64,
    /// Result pages requested.
    pub pages_total: u64,
    /// Result pages served from the prefetch cache.
    pub pages_hit: u64,
    /// Σ residual response, µs: per-client sums in query order, then
    /// summed over clients in id order (the engine's own order).
    pub response_us: f64,
    /// Queries whose serve phase failed.
    pub failed: u64,
}

impl SimTotals {
    /// Adds another group's totals.
    pub fn add(&mut self, o: &SimTotals) {
        self.queries += o.queries;
        self.pages_total += o.pages_total;
        self.pages_hit += o.pages_hit;
        self.response_us += o.response_us;
        self.failed += o.failed;
    }

    /// Result pages served from the cache ÷ result pages.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.pages_hit as f64, self.pages_total as f64)
    }
}

/// A pass's totals plus its per-query residual percentiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    /// Additive totals.
    pub totals: SimTotals,
    /// Median per-query residual response, µs.
    pub p50_us: f64,
    /// 99th-percentile per-query residual response, µs.
    pub p99_us: f64,
}

impl Sim {
    /// Totals plus percentiles of `residuals` (reordered in place).
    pub fn new(totals: SimTotals, residuals: &mut [f64]) -> Sim {
        let p50_us = percentile(residuals, 50.0);
        let p99_us = percentile(residuals, 99.0);
        Sim { totals, p50_us, p99_us }
    }
}

/// Peak resident set (VmHWM) of this process, MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
