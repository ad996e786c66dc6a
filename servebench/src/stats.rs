//! Percentiles and means over latency samples.

/// Nearest-rank quantile of an ascending sample (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns `(p50, p90)`.
pub fn p50_p90(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    (quantile(xs, 0.5), quantile(xs, 0.9))
}

pub fn p50(xs: &mut [f64]) -> f64 {
    p50_p90(xs).0
}

pub fn geo_mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    assert!(n > 0, "geometric mean of nothing");
    (sum / n as f64).exp()
}

/// Percentiles of requests of different sizes are taken within each
/// template and combined by geometric mean, so no percentile mixes request
/// sizes. Returns `(p50, p90, samples, fewest samples of any template)`.
pub fn per_template(by_template: &mut [Vec<f64>]) -> (f64, f64, usize, usize) {
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut total = 0;
    let mut fewest = usize::MAX;
    for xs in by_template.iter_mut().filter(|xs| !xs.is_empty()) {
        let (a, b) = p50_p90(xs);
        p50s.push(a);
        p90s.push(b);
        total += xs.len();
        fewest = fewest.min(xs.len());
    }
    (geo_mean(p50s), geo_mean(p90s), total, fewest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn templates_are_not_pooled() {
        // Pooled, the median would sit on the boundary between the two
        // sizes; per template it is the geometric mean of 10 and 1000.
        let mut by = vec![vec![10.0; 50], vec![1000.0; 50], Vec::new()];
        let (p50, p90, n, fewest) = per_template(&mut by);
        assert!((p50 - 100.0).abs() < 1e-9 && (p90 - 100.0).abs() < 1e-9);
        assert_eq!((n, fewest), (100, 50));
    }
}
