//! Exact order statistics over raw samples.

/// Median, interpolating between the two middle samples of an even count.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample (the largest one when there are fewer than
/// eleven).
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Computes the [`Tail`] of `samples`.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let beyond = if n > 10 { 10 } else { 0 };
    let idx = n.saturating_sub(beyond + 1);
    Tail {
        value: s.get(idx).copied().unwrap_or(f64::NAN),
        percentile: 100.0 * (idx + 1) as f64 / n.max(1) as f64,
        beyond,
        n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_sample_or_the_mean_of_the_two() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.value, t.beyond, t.n), (30.0, 10, 40));
        assert_eq!(t.percentile, 75.0);
        let few = tail(&[2.0, 9.0, 4.0]);
        assert_eq!((few.value, few.beyond), (9.0, 0));
    }
}
