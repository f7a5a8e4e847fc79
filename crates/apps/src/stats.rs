//! Statistics used by the overhead experiment (paper Fig 4): sample means,
//! 95% confidence intervals, and Welch's unpaired unequal-variance t
//! machinery.

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance.
pub fn variance(xs: &[f64]) -> f64 {
    assert!(xs.len() >= 2, "variance needs at least two samples");
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Median (of a copy; does not reorder the input).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Two-sided 95% critical value of Student's t for `df` degrees of freedom
/// (table for small df, normal approximation past 120).
pub fn t_critical_95(df: f64) -> f64 {
    const TABLE: [(f64, f64); 16] = [
        (1.0, 12.706),
        (2.0, 4.303),
        (3.0, 3.182),
        (4.0, 2.776),
        (5.0, 2.571),
        (6.0, 2.447),
        (8.0, 2.306),
        (10.0, 2.228),
        (15.0, 2.131),
        (20.0, 2.086),
        (30.0, 2.042),
        (40.0, 2.021),
        (60.0, 2.000),
        (80.0, 1.990),
        (100.0, 1.984),
        (120.0, 1.980),
    ];
    assert!(df >= 1.0, "degrees of freedom must be >= 1");
    if df >= 120.0 {
        return 1.96;
    }
    // Linear interpolation over the table.
    let mut prev = TABLE[0];
    for &entry in &TABLE[1..] {
        if df <= entry.0 {
            let t = (df - prev.0) / (entry.0 - prev.0);
            return prev.1 + t * (entry.1 - prev.1);
        }
        prev = entry;
    }
    1.96
}

/// Welch's unpaired comparison of two samples: difference of means and the
/// half-width of its 95% confidence interval (unequal variances,
/// Welch–Satterthwaite degrees of freedom) — exactly the error bars of the
/// paper's Fig 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchDiff {
    /// `mean(a) - mean(b)`.
    pub diff: f64,
    /// Half-width of the 95% CI around `diff`.
    pub ci95: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
}

impl WelchDiff {
    /// True when 0 lies outside the confidence interval.
    pub fn significant(&self) -> bool {
        self.diff.abs() > self.ci95
    }
}

/// Compare two samples with Welch's method.
pub fn welch_diff(a: &[f64], b: &[f64]) -> WelchDiff {
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (va, vb) = (variance(a), variance(b));
    let sa = va / na;
    let sb = vb / nb;
    let se = (sa + sb).sqrt();
    let df = if sa + sb == 0.0 {
        na + nb - 2.0
    } else {
        (sa + sb).powi(2) / (sa * sa / (na - 1.0) + sb * sb / (nb - 1.0))
    };
    WelchDiff { diff: mean(a) - mean(b), ci95: t_critical_95(df.max(1.0)) * se, df }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn t_table_monotone_and_bounded() {
        let mut prev = f64::INFINITY;
        for df in [1.0, 2.0, 3.0, 7.0, 12.0, 25.0, 50.0, 90.0, 119.0, 500.0] {
            let t = t_critical_95(df);
            assert!(t <= prev + 1e-9, "t must not increase with df");
            assert!((1.9..=12.8).contains(&t));
            prev = t;
        }
        assert_eq!(t_critical_95(1000.0), 1.96);
    }

    #[test]
    fn welch_detects_separation() {
        let a: Vec<f64> = (0..30).map(|i| 100.0 + (i % 3) as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| 90.0 + (i % 3) as f64).collect();
        let w = welch_diff(&a, &b);
        assert!((w.diff - 10.0).abs() < 1e-9);
        assert!(w.significant());
    }

    #[test]
    fn welch_accepts_identical() {
        let a: Vec<f64> = (0..50).map(|i| 10.0 + (i % 7) as f64).collect();
        let w = welch_diff(&a, &a);
        assert_eq!(w.diff, 0.0);
        assert!(!w.significant());
    }

    #[test]
    fn welch_zero_variance() {
        let a = [5.0, 5.0, 5.0];
        let b = [5.0, 5.0, 5.0];
        let w = welch_diff(&a, &b);
        assert_eq!(w.diff, 0.0);
        assert_eq!(w.ci95, 0.0);
    }
}
