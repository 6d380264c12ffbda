//! Dense least squares via the normal equations (the paper's
//! "least-square-error solver" for the power-model scale factors).

/// Solves `min ‖A·x − b‖²` for a dense `A` (rows ≥ cols) by forming the
/// normal equations `AᵀA·x = Aᵀb` and Gaussian-eliminating with partial
/// pivoting.
///
/// # Panics
///
/// Panics if the rows have inconsistent lengths, there are fewer rows
/// than columns, or the normal matrix is numerically singular.
#[must_use]
pub(crate) fn least_squares(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "row count mismatch");
    let rows = a.len();
    let cols = a.first().map_or(0, Vec::len);
    assert!(
        rows >= cols,
        "under-determined system ({rows} rows, {cols} cols)"
    );
    assert!(a.iter().all(|r| r.len() == cols), "ragged matrix");

    // Column equilibration: power columns span orders of magnitude (mW
    // register files next to tens-of-watts DRAM), and the normal
    // equations square the condition number — scale each column to unit
    // norm first, un-scale the solution at the end.
    let mut col_scale = vec![0.0f64; cols];
    for row in a {
        for (s, v) in col_scale.iter_mut().zip(row) {
            *s += v * v;
        }
    }
    for s in &mut col_scale {
        *s = s.sqrt();
        if *s == 0.0 {
            *s = 1.0;
        }
    }

    // Normal matrix and right-hand side (on the scaled columns).
    let mut n = vec![vec![0.0f64; cols + 1]; cols];
    for (row, &bi) in a.iter().zip(b) {
        for i in 0..cols {
            let ri = row[i] / col_scale[i];
            for j in 0..cols {
                n[i][j] += ri * row[j] / col_scale[j];
            }
            n[i][cols] += ri * bi;
        }
    }

    // Gaussian elimination with partial pivoting on the augmented matrix.
    for col in 0..cols {
        let pivot = (col..cols)
            .max_by(|&i, &j| {
                n[i][col]
                    .abs()
                    .partial_cmp(&n[j][col].abs())
                    .expect("non-NaN pivots")
            })
            .expect("non-empty range");
        n.swap(col, pivot);
        let p = n[col][col];
        assert!(
            p.abs() > 1e-12,
            "singular normal matrix at column {col} (pivot {p:e})"
        );
        for v in &mut n[col][col..=cols] {
            *v /= p;
        }
        for i in 0..cols {
            if i != col {
                let f = n[i][col];
                if f != 0.0 {
                    let pivot_row = n[col].clone();
                    for (v, pv) in n[i][col..=cols].iter_mut().zip(&pivot_row[col..=cols]) {
                        *v -= f * pv;
                    }
                }
            }
        }
    }
    (0..cols).map(|i| n[i][cols] / col_scale[i]).collect()
}

/// Mean absolute relative error of predictions vs measurements.
///
/// # Panics
///
/// Panics on length mismatch or empty input.
#[must_use]
pub(crate) fn mean_absolute_relative_error(predicted: &[f64], measured: &[f64]) -> f64 {
    assert_eq!(predicted.len(), measured.len());
    assert!(!predicted.is_empty());
    predicted
        .iter()
        .zip(measured)
        .map(|(p, m)| ((p - m) / m).abs())
        .sum::<f64>()
        / predicted.len() as f64
}

/// Pearson correlation coefficient.
///
/// # Panics
///
/// Panics on length mismatch or fewer than two samples.
#[must_use]
pub(crate) fn pearson_r(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    assert!(x.len() >= 2, "need at least two samples");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_solution() {
        // b = 2·x0 + 3·x1 over a few rows.
        let a = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 5.0],
        ];
        let b: Vec<f64> = a.iter().map(|r| 2.0 * r[0] + 3.0 * r[1]).collect();
        let x = least_squares(&a, &b);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tolerates_noise() {
        let mut state = 1234u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.01
        };
        let a: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![1.0, f64::from(i), f64::from(i * i)])
            .collect();
        let b: Vec<f64> = a
            .iter()
            .map(|r| 5.0 + 0.5 * r[1] - 0.01 * r[2] + noise())
            .collect();
        let x = least_squares(&a, &b);
        assert!((x[0] - 5.0).abs() < 0.1);
        assert!((x[1] - 0.5).abs() < 0.01);
        assert!((x[2] + 0.01).abs() < 0.001);
    }

    #[test]
    fn error_metrics() {
        let p = [11.0, 9.0];
        let m = [10.0, 10.0];
        assert!((mean_absolute_relative_error(&p, &m) - 0.1).abs() < 1e-12);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_r(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_r(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "under-determined")]
    fn rejects_underdetermined() {
        let _ = least_squares(&[vec![1.0, 2.0]], &[1.0]);
    }
}
