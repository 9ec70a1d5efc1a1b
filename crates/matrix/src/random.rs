//! Seeded random test-matrix generation.
//!
//! The paper generates its evaluation matrices with Java's `Random`
//! (Section 7.1) and notes that performance depends only on matrix order,
//! not values. We use a seeded [`rand::rngs::StdRng`] so every experiment is
//! reproducible bit-for-bit across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dense::Matrix;

/// Uniform random matrix with entries in `[-1, 1)`.
pub fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Uniform random square matrix made strictly diagonally dominant (hence
/// well conditioned and invertible without pivoting).
///
/// Each diagonal entry is set to the row's absolute sum plus one, keeping
/// the inverse's entries well scaled for accuracy assertions.
pub fn random_well_conditioned(n: usize, seed: u64) -> Matrix {
    let mut m = random_matrix(n, n, seed);
    for i in 0..n {
        let row_sum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
        m[(i, i)] = row_sum + 1.0;
    }
    m
}

/// Random *invertible* general matrix: uniform entries, rejecting (by
/// reseeding) draws whose LU decomposition fails.
///
/// Random dense matrices are almost surely invertible, so the loop nearly
/// always succeeds on the first draw; the retry guards pathological seeds.
pub fn random_invertible(n: usize, seed: u64) -> Matrix {
    for attempt in 0..16 {
        let m = random_matrix(n, n, seed.wrapping_add(attempt * 0x9E37_79B9));
        if crate::lu::lu_decompose(&m).is_ok() {
            return m;
        }
    }
    // Fall back to a matrix that is invertible by construction.
    random_well_conditioned(n, seed)
}

/// Random unit lower-triangular matrix (implicit 1.0 diagonal stored
/// explicitly) with off-diagonal entries in `[-1, 1)`.
pub fn random_unit_lower(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, n, |i, j| {
        use std::cmp::Ordering;
        match j.cmp(&i) {
            Ordering::Less => rng.gen_range(-1.0..1.0),
            Ordering::Equal => 1.0,
            Ordering::Greater => 0.0,
        }
    })
}

/// Random upper-triangular matrix with diagonal entries bounded away from
/// zero (magnitude in `[1, 2)`, random sign).
pub fn random_upper(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, n, |i, j| {
        use std::cmp::Ordering;
        match j.cmp(&i) {
            Ordering::Greater => rng.gen_range(-1.0..1.0),
            Ordering::Equal => {
                let mag = rng.gen_range(1.0..2.0);
                if rng.gen_bool(0.5) {
                    mag
                } else {
                    -mag
                }
            }
            Ordering::Less => 0.0,
        }
    })
}

/// Random symmetric positive-definite matrix (`B·Bᵀ + n·I`), used by
/// application examples (e.g. covariance-style systems).
///
/// `B·Bᵀ` is summed by a private four-way dot product, not the kernel
/// engine: seeded generators feed committed results and pinned hashes, so
/// their bits must not move with a kernel change.
pub fn random_spd(n: usize, seed: u64) -> Matrix {
    let b = random_matrix(n, n, seed);
    let mut m = Matrix::from_fn(n, n, |i, j| dot(b.row(i), b.row(j)));
    for i in 0..n {
        m[(i, i)] += n as f64;
    }
    m
}

/// Four-way unrolled dot product, summed `(s0 + s1) + (s2 + s3) + tail`:
/// the split [`random_spd`]'s bits are pinned to.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let chunks = a.len() / 4 * 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (x, y) in a[..chunks].chunks_exact(4).zip(b[..chunks].chunks_exact(4)) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let tail: f64 = a[chunks..]
        .iter()
        .zip(&b[chunks..])
        .fold(0.0, |t, (x, y)| t + x * y);
    (s0 + s1) + (s2 + s3) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the f64 bit patterns of `random_spd(24, 6)`, taken
    /// while the kernel engine's reference backend still computed `B·Bᵀ`.
    #[test]
    fn random_spd_bits_are_pinned() {
        let mut h: u64 = 0xcbf29ce484222325;
        for v in random_spd(24, 6).as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        assert_eq!(h, 0xdebd305ba0894995);
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        assert_eq!(random_matrix(5, 7, 42), random_matrix(5, 7, 42));
        assert_ne!(random_matrix(5, 7, 42), random_matrix(5, 7, 43));
    }

    #[test]
    fn entries_are_bounded() {
        let m = random_matrix(20, 20, 1);
        assert!(m.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn well_conditioned_is_diagonally_dominant() {
        let m = random_well_conditioned(15, 2);
        for i in 0..15 {
            let off: f64 = m
                .row(i)
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(m[(i, i)].abs() > off);
        }
    }

    #[test]
    fn invertible_matrices_decompose() {
        for seed in 0..4 {
            let m = random_invertible(12, seed);
            assert!(crate::lu::lu_decompose(&m).is_ok());
        }
    }

    #[test]
    fn triangular_generators_have_right_shape() {
        let l = random_unit_lower(8, 3);
        let u = random_upper(8, 4);
        for i in 0..8 {
            assert_eq!(l[(i, i)], 1.0);
            assert!(u[(i, i)].abs() >= 1.0);
            for j in (i + 1)..8 {
                assert_eq!(l[(i, j)], 0.0);
                assert_eq!(u[(j, i)], 0.0);
            }
        }
    }

    #[test]
    fn spd_is_symmetric_and_decomposable() {
        let m = random_spd(10, 5);
        for i in 0..10 {
            for j in 0..10 {
                assert!((m[(i, j)] - m[(j, i)]).abs() < 1e-12);
            }
        }
        assert!(crate::lu::lu_decompose(&m).is_ok());
    }
}
