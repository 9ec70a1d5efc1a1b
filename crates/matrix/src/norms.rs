//! Matrix and vector norms, the paper's accuracy metric, and its O(n²)
//! certificate.

use std::hash::{BuildHasher, RandomState};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dense::Matrix;
use crate::error::Result;
use crate::kernel::{self, notrans};

impl Matrix {
    /// Maximum absolute element (`max_{ij} |a_ij|`).
    pub fn max_norm(&self) -> f64 {
        self.as_slice().iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

/// Euclidean norm of a vector.
pub fn vec_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The paper's Section 7.2 accuracy metric: the maximum absolute element of
/// `I_n - M·M_inv`. The paper verifies this is below `1e-5` for its suite.
///
/// Holds one `n x n` matrix, `P = M·M_inv`, and folds `|δᵢⱼ - pᵢⱼ|` over
/// it in row-major order: the value of [`Matrix::max_norm`] on `I - P`, bit
/// for bit, without `I` or `I - P` — except that a NaN anywhere in `P` is
/// `+∞`, a failed check, where `f64::max` would skip it.
pub fn inversion_residual(m: &Matrix, m_inv: &Matrix) -> Result<f64> {
    m.order()?;
    m_inv.order()?;
    let prod = kernel::mul(notrans(m), notrans(m_inv))?;
    let mut max = 0.0_f64;
    for (i, row) in prod.row_iter().enumerate() {
        for (j, &p) in row.iter().enumerate() {
            if p.is_nan() {
                return Ok(f64::INFINITY);
            }
            let delta = if i == j { 1.0 } else { 0.0 };
            max = max.max((delta - p).abs());
        }
    }
    Ok(max)
}

/// The number of ±1 probe columns [`inverse_certificate`] draws: one
/// microkernel panel of `B` (`NR` = 16 columns).
pub const CERTIFICATE_PROBES: usize = 16;

/// A certificate for `x` as the inverse of `a`: `max |(A·X − I)·V|` over
/// [`CERTIFICATE_PROBES`] columns `V` of independent random ±1 entries, at
/// O(n²) cost — two [`kernel::gemm`] calls, `W = X·V` and then
/// `V := A·W − V` — where [`inversion_residual`] forms `A·X`, 2n³ flops.
/// A NaN anywhere in the result is `+∞`, a failed check, as there.
///
/// Two properties hold (in exact arithmetic):
/// * **No false alarm.** Each entry of `(A·X − I)·V` is a ±1-weighted sum
///   of one row of `A·X − I`, so whatever the probes, the certificate is
///   at most the largest row sum of `|A·X − I|`, which is at most `n`
///   times the paper's metric. An inverse that meets the paper's
///   threshold by a factor of `n` never fails this check by bad luck.
/// * **A miss is rare.** Flipping the sign of the probe entry that meets
///   a row's largest residual element moves that row's sum by twice the
///   element, so at most one of the two signs lands below it: with
///   independent probes, the certificate reads below the paper's metric
///   with probability at most 2⁻¹⁶.
///
/// The probes are drawn on every call, seeded from the process's
/// [`RandomState`] keys, so whoever produced `x` cannot fit it to them.
///
/// # Errors
/// If either operand is not square, or their orders differ.
pub fn inverse_certificate(a: &Matrix, x: &Matrix) -> Result<f64> {
    let n = a.order()?;
    x.order()?;
    let mut rng = StdRng::seed_from_u64(RandomState::new().hash_one(n));
    let mut v = Matrix::zeros(n, CERTIFICATE_PROBES);
    for i in 0..n {
        let signs = rng.next_u64();
        for (j, p) in v.row_mut(i).iter_mut().enumerate() {
            *p = if signs >> j & 1 == 1 { 1.0 } else { -1.0 };
        }
    }
    let w = kernel::mul(notrans(x), notrans(&v))?;
    kernel::gemm(1.0, notrans(a), notrans(&w), -1.0, &mut v)?;
    let mut max = 0.0_f64;
    for &r in v.as_slice() {
        if r.is_nan() {
            return Ok(f64::INFINITY);
        }
        max = max.max(r.abs());
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_decompose;
    use crate::random::{random_matrix, random_well_conditioned};
    use crate::triangular::{invert_lower, invert_upper};
    use proptest::prelude::*;

    #[test]
    fn norms_on_known_matrix() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]).unwrap();
        assert_eq!(m.max_norm(), 4.0);
    }

    #[test]
    fn norms_on_empty_and_zero() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(z.max_norm(), 0.0);
        assert_eq!(Matrix::zeros(0, 0).max_norm(), 0.0);
    }

    #[test]
    fn vec_norm_matches_manual() {
        assert_eq!(vec_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(vec_norm(&[]), 0.0);
    }

    #[test]
    fn residual_of_true_inverse_is_tiny() {
        let a = random_well_conditioned(32, 17);
        let f = lu_decompose(&a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        // A^-1 = U^-1 L^-1 P (Section 4.3).
        let a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
        let res = inversion_residual(&a, &a_inv).unwrap();
        assert!(res < crate::PAPER_ACCURACY, "residual {res} too large");
    }

    #[test]
    fn residual_detects_a_wrong_inverse() {
        let a = random_well_conditioned(8, 3);
        let wrong = Matrix::identity(8);
        let res = inversion_residual(&a, &wrong).unwrap();
        assert!(res > 1.0);
    }

    #[test]
    fn residual_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(inversion_residual(&a, &a).is_err());
        // A square matrix against a non-square "inverse" of matching inner
        // dimension, and against a square one of another order.
        let sq = Matrix::identity(2);
        assert!(inversion_residual(&sq, &a).is_err());
        assert!(inversion_residual(&sq, &Matrix::identity(3)).is_err());
    }

    /// The three-matrix formula the one-buffer fold replaced, reading a
    /// NaN anywhere in `I - P` as `+∞`: the oracle.
    fn three_matrix_residual(m: &Matrix, m_inv: &Matrix) -> f64 {
        let prod = kernel::mul(notrans(m), notrans(m_inv)).unwrap();
        let residual = &Matrix::identity(m.rows()) - &prod;
        if residual.as_slice().iter().any(|v| v.is_nan()) {
            return f64::INFINITY;
        }
        residual.max_norm()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Bit-equal to the oracle on random inputs, and on inputs whose
        /// entries are replaced by NaN, ±Inf, -0.0 or 0.0 at random (an
        /// Inf can make NaN products too).
        #[test]
        fn residual_is_bit_equal_to_the_three_matrix_formula(
            (n, seed, specials) in (
                0usize..12,
                any::<u64>(),
                prop::collection::vec((any::<usize>(), 0usize..5), 0..6),
            )
        ) {
            let mut m = random_matrix(n, n, seed);
            let mut m_inv = random_matrix(n, n, seed ^ 0x9e37_79b9);
            if n > 0 {
                for (at, which) in specials {
                    let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0][which];
                    let target = if at % 2 == 0 { &mut m } else { &mut m_inv };
                    target.as_mut_slice()[at / 2 % (n * n)] = value;
                }
            }
            let got = inversion_residual(&m, &m_inv).unwrap();
            prop_assert_eq!(got.to_bits(), three_matrix_residual(&m, &m_inv).to_bits());
        }
    }

    #[test]
    fn residual_of_special_values() {
        let identity = Matrix::identity(3);
        let mut one_inf = Matrix::identity(3);
        one_inf[(1, 2)] = f64::INFINITY;
        let residual = |m: &Matrix| inversion_residual(m, &identity).unwrap();
        assert_eq!(residual(&identity), 0.0);
        assert_eq!(residual(&Matrix::from_fn(3, 3, |_, _| -0.0)), 1.0);
        assert_eq!(residual(&one_inf), f64::INFINITY);
        // `f64::max` skips NaN; the residual must not read a NaN as clean.
        assert_eq!(
            residual(&Matrix::from_fn(3, 3, |_, _| f64::NAN)),
            f64::INFINITY
        );
    }

    #[test]
    fn one_nan_in_a_correct_inverse_fails_the_check() {
        let a = random_well_conditioned(16, 5);
        let f = lu_decompose(&a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        let mut a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
        assert!(inversion_residual(&a, &a_inv).unwrap() < crate::PAPER_ACCURACY);
        a_inv[(3, 11)] = f64::NAN;
        assert_eq!(inversion_residual(&a, &a_inv).unwrap(), f64::INFINITY);
    }

    /// `A⁻¹ = U⁻¹·L⁻¹·P` of `a`, through the unblocked factors.
    fn true_inverse(a: &Matrix) -> Matrix {
        let f = lu_decompose(a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        f.perm.apply_cols(&(&u_inv * &l_inv))
    }

    #[test]
    fn certificate_of_a_true_inverse_is_tiny() {
        for (n, seed) in [(1, 1), (16, 5), (33, 17), (100, 3)] {
            let a = random_well_conditioned(n, seed);
            let cert = inverse_certificate(&a, &true_inverse(&a)).unwrap();
            assert!(cert < crate::PAPER_ACCURACY, "n {n}: certificate {cert}");
        }
        assert_eq!(
            inverse_certificate(&Matrix::zeros(0, 0), &Matrix::zeros(0, 0)).unwrap(),
            0.0
        );
        let identity = Matrix::identity(5);
        assert_eq!(inverse_certificate(&identity, &identity).unwrap(), 0.0);
    }

    #[test]
    fn certificate_requires_square_operands_of_one_order() {
        let wide = Matrix::zeros(2, 3);
        let sq = Matrix::identity(2);
        assert!(inverse_certificate(&wide, &wide).is_err());
        assert!(inverse_certificate(&sq, &wide).is_err());
        assert!(inverse_certificate(&wide, &sq).is_err());
        assert!(inverse_certificate(&sq, &Matrix::identity(3)).is_err());
        assert!(inverse_certificate(&Matrix::identity(3), &sq).is_err());
    }

    /// A NaN or an infinity in either operand makes every product through
    /// it non-finite, and the certificate reads `+∞`, whichever probes
    /// were drawn: `f64::max` would skip a NaN.
    #[test]
    fn certificate_of_special_values() {
        let a = random_well_conditioned(12, 9);
        let a_inv = true_inverse(&a);
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(0, 0), (4, 7), (11, 2)] {
                let mut bad_a = a.clone();
                bad_a[(i, j)] = special;
                assert_eq!(inverse_certificate(&bad_a, &a_inv).unwrap(), f64::INFINITY);
                let mut bad_inv = a_inv.clone();
                bad_inv[(i, j)] = special;
                assert_eq!(inverse_certificate(&a, &bad_inv).unwrap(), f64::INFINITY);
            }
        }
        let nan = Matrix::from_fn(3, 3, |_, _| f64::NAN);
        assert_eq!(inverse_certificate(&nan, &nan).unwrap(), f64::INFINITY);
    }

    /// One wrong entry `e` at `(i, j)` of a true inverse adds `A·E·V` to
    /// the residual's probes, whose row `r` is `A_ri·e` times row `j` of
    /// the ±1 probes: each entry of it is `|A_ri·e|` in magnitude, so every
    /// draw sees the largest of them.
    #[test]
    fn certificate_catches_one_wrong_entry_whatever_the_probes() {
        let a = random_well_conditioned(48, 21);
        let a_inv = true_inverse(&a);
        for (i, j, e) in [(0, 0, 1e-3), (17, 40, -2e-4), (47, 5, 1.0)] {
            let mut wrong = a_inv.clone();
            wrong[(i, j)] += e;
            let hit = (0..48).map(|r| (a[(r, i)] * e).abs()).fold(0.0, f64::max);
            for _ in 0..8 {
                let cert = inverse_certificate(&a, &wrong).unwrap();
                assert!(cert > crate::PAPER_ACCURACY, "({i}, {j}): {cert}");
                assert!((cert - hit).abs() <= 1e-9 * hit.max(1.0), "{cert} vs {hit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The certificate is at most the largest row sum of `|A·X − I|`,
        /// up to rounding, on random inputs with NaN, ±Inf, -0.0 or 0.0
        /// at random entries; the residual's own product is the oracle,
        /// and a non-finite element in it makes the bound `+∞`.
        #[test]
        fn certificate_is_at_most_the_largest_residual_row_sum(
            (n, seed, specials) in (
                0usize..12,
                any::<u64>(),
                prop::collection::vec((any::<usize>(), 0usize..5), 0..6),
            )
        ) {
            let mut m = random_matrix(n, n, seed);
            let mut m_inv = random_matrix(n, n, seed ^ 0x9e37_79b9);
            if n > 0 {
                for (at, which) in specials {
                    let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0][which];
                    let target = if at % 2 == 0 { &mut m } else { &mut m_inv };
                    target.as_mut_slice()[at / 2 % (n * n)] = value;
                }
            }
            let prod = kernel::mul(notrans(&m), notrans(&m_inv)).unwrap();
            let mut bound = 0.0_f64;
            for (i, row) in prod.row_iter().enumerate() {
                let sum: f64 = (row.iter().enumerate())
                    .map(|(j, &p)| (if i == j { 1.0 } else { 0.0 } - p).abs())
                    .sum();
                bound = if sum.is_finite() { bound.max(sum) } else { f64::INFINITY };
            }
            // Entries below 1 in magnitude: each computed dot product of
            // order n is within n·ε·n² of its exact value, on both sides.
            let slack = 4.0 * (n * n * n) as f64 * f64::EPSILON;
            let cert = inverse_certificate(&m, &m_inv).unwrap();
            prop_assert!(cert <= bound + slack, "n {}: {} > {}", n, cert, bound);
            prop_assert_eq!(cert == f64::INFINITY, bound == f64::INFINITY);
        }
    }
}
