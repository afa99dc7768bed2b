//! Exact order statistics over every sample (no histogram buckets).

/// A sorted sample of durations in nanoseconds.
pub struct Sample(Vec<u64>);

impl Sample {
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Self(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `p` in `(0, 1]`, and how many samples lie
    /// beyond it. `None` on an empty sample.
    pub fn percentile(&self, p: f64) -> Option<(u64, usize)> {
        let n = self.0.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        self.0.get(rank - 1).map(|&v| (v, n - rank))
    }

    /// Median in microseconds (0 on an empty sample).
    pub fn median_us(&self) -> f64 {
        self.percentile(0.5).map_or(0.0, |(v, _)| us(v))
    }
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median of plain numbers, the mean of the middle two for an even count
/// (0 on an empty slice).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` in `(0, 1]` of plain numbers (0 on an empty
/// slice).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    values[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}
