//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Log-bucketed sample store of fixed size: bucket `i` holds values in
/// `[MIN·G^i, MIN·G^(i+1))` with `G = 1.001`, so a quantile is exact to
/// 0.1 % while the memory it takes does not grow with the sample count
/// (serve-native times tens of thousands of jobs per run, and
/// `peak_rss_mb` must not move with the run's speed).
pub struct LogHist {
    counts: Vec<u32>,
    n: u64,
}

const HIST_MIN: f64 = 1e-6;
const HIST_GROWTH: f64 = 1.001;
/// Values up to `HIST_MIN · G^28000 ≈ 1.4e6` (ms).
const HIST_BUCKETS: usize = 28_000;

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    pub fn push(&mut self, v: f64) {
        let i = ((v.max(HIST_MIN) / HIST_MIN).ln() / HIST_GROWTH.ln()) as usize;
        self.counts[i.min(HIST_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Quantile `q` at rank `q·(n−1)`, as the geometric centre of the
    /// bucket holding that rank; 0 for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.n - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen > rank {
                return HIST_MIN * HIST_GROWTH.powf(i as f64 + 0.5);
            }
        }
        unreachable!("rank < n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 4.8);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hist_quantiles_within_a_bucket() {
        let mut h = LogHist::default();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.push(v);
        }
        assert_eq!(h.len(), 5);
        assert!((h.quantile(0.5) / 3.0 - 1.0).abs() < 1e-3);
        assert!((h.quantile(1.0) / 100.0 - 1.0).abs() < 1e-3);
        assert_eq!(LogHist::default().quantile(0.5), 0.0);
    }
}
