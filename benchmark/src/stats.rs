//! Order statistics over a run's samples.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// The q1–q3 distance as a share of the median (0 for a zero median).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so numbers printed here match a
/// reader's own check. One sample is its own median and quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut d = values.to_vec();
    d.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = d.len();
    if n == 1 {
        return Quartiles {
            q1: d[0],
            median: d[0],
            q3: d[0],
        };
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn odd_count_matches_python() {
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(close(q.q1, 1.5) && close(q.median, 3.0) && close(q.q3, 4.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert!(close(q.q1, 1.0) && close(q.median, 2.0) && close(q.q3, 3.0));
    }

    #[test]
    fn even_count_matches_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!(close(q.q1, 2.75) && close(q.median, 5.5) && close(q.q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let q = quartiles(&[4.0, 3.0, 2.0, 1.0]);
        assert!(close(q.q1, 1.25) && close(q.median, 2.5) && close(q.q3, 3.75));
    }

    #[test]
    fn two_samples_extrapolate_like_python() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]);
        assert!(close(q.q1, 0.75) && close(q.median, 1.5) && close(q.q3, 2.25));
    }

    #[test]
    fn single_sample_and_spread() {
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(q.spread(), 0.0);
        let q = quartiles(&[9.0, 10.0, 10.0, 11.0]);
        assert!(close(q.spread(), (10.75 - 9.25) / 10.0));
    }
}
