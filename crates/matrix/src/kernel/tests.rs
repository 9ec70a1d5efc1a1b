use super::lu::lu_blocked_in_place;
use super::packed::{Arm, Stairs, Steps};
use super::trsm::trsm_window;
use super::*;
use crate::block::BlockRange;
use crate::lu::LuFactors;
use crate::random::{random_matrix, random_unit_lower, random_upper};
use crate::triangular;
use proptest::prelude::*;
use std::ops::Range;

#[path = "../../tests/support/naive.rs"]
mod naive;
use naive::naive_gemm;

/// [`lu_blocked_in_place`] on a copy of `a`, packed as [`LuFactors`].
fn lu_blocked(a: &Matrix, nb: usize, arm: Arm) -> Result<LuFactors> {
    let mut lu = a.clone();
    let perm = lu_blocked_in_place(&mut lu, nb, arm)?;
    Ok(LuFactors { lu, perm })
}

const TOL: f64 = 1e-9;

/// Runs `f` with the pool's effective width capped at `cap`. The cap is
/// process-global and tests run on parallel threads, so the tests that
/// set it take turns: otherwise one could run under the other's cap
/// and restore a stale value.
fn with_thread_cap(cap: usize, f: impl FnOnce()) {
    static CAP: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = CAP.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let prev = rayon::set_thread_cap(cap);
    f();
    rayon::set_thread_cap(prev);
}

#[test]
fn all_backends_agree_all_ops() {
    // Ragged shapes straddling the MR/NR/MC/KC edges.
    let (m, k, n) = (67, 35, 41);
    let a = random_matrix(m, k, 1);
    let a_t = a.transpose();
    let b = random_matrix(k, n, 2);
    let b_t = b.transpose();
    let c0 = random_matrix(m, n, 3);

    let mut reference = c0.clone();
    naive_gemm(0.5, notrans(&a), notrans(&b), -2.0, &mut reference);

    for (label, aref, bref) in [
        ("nn", notrans(&a), notrans(&b)),
        ("nt", notrans(&a), trans(&b_t)),
        ("tn", trans(&a_t), notrans(&b)),
        ("tt", trans(&a_t), trans(&b_t)),
    ] {
        let mut naive = c0.clone();
        naive_gemm(0.5, aref, bref, -2.0, &mut naive);
        let mut packed = c0.clone();
        gemm(0.5, aref, bref, -2.0, &mut packed).unwrap();
        for (name, c) in [("naive", &naive), ("packed", &packed)] {
            assert!(
                c.approx_eq(&reference, TOL),
                "{name}/{label} disagrees with reference"
            );
        }
    }
}

#[test]
fn packed_parallel_nest_is_bitwise_identical_to_serial() {
    // The re-grained parallel path distributes (row-tile × column-range)
    // work items but accumulates every C element's pc-partial sums in the
    // serial nest's order with the same microkernel — so results must be
    // bit-for-bit equal at any thread cap, including ragged and
    // wide-but-short shapes the old `m > MC` gate used to exclude.
    for (m, k, n, seed) in [
        (3usize, 5usize, 9usize, 30u64), // m ≤ MR
        (32, 300, 512, 31),              // wide-short: one row tile
        (513, 64, 33, 32),               // tall-skinny
        (130, 257, 129, 33),             // ragged across MC/KC edges
    ] {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 100);
        let c0 = random_matrix(m, n, seed + 200);

        let mut serial = c0.clone();
        scale_by_beta(&mut (&mut serial).into(), 0.5);
        packed::run_packed(
            packed::Arm::detect(),
            false,
            1.5,
            notrans(&a),
            notrans(&b),
            Stairs::DENSE,
            (&mut serial).into(),
        );

        for cap in [1usize, 2, usize::MAX] {
            let mut par = c0.clone();
            scale_by_beta(&mut (&mut par).into(), 0.5);
            with_thread_cap(cap, || {
                packed::run_packed(
                    packed::Arm::detect(),
                    true,
                    1.5,
                    notrans(&a),
                    notrans(&b),
                    Stairs::DENSE,
                    (&mut par).into(),
                );
            });
            assert_eq!(
                par, serial,
                "parallel nest must be bitwise serial at cap={cap} ({m}x{k}x{n})"
            );
        }

        // Transposed operands flow through the same packing; spot-check.
        let a_t = a.transpose();
        let b_t = b.transpose();
        let mut serial_tt = c0.clone();
        packed::run_packed(
            packed::Arm::detect(),
            false,
            -1.0,
            trans(&a_t),
            trans(&b_t),
            Stairs::DENSE,
            (&mut serial_tt).into(),
        );
        let mut par_tt = c0.clone();
        packed::run_packed(
            packed::Arm::detect(),
            true,
            -1.0,
            trans(&a_t),
            trans(&b_t),
            Stairs::DENSE,
            (&mut par_tt).into(),
        );
        assert_eq!(par_tt, serial_tt, "tt parallel nest must be bitwise serial");
    }
}

/// The arms besides the portable one that this host has. Prints each arm
/// by name: compared, or skipped because the host lacks it.
fn wide_arms() -> Vec<packed::Arm> {
    let (have, lack): (Vec<_>, Vec<_>) = [packed::Arm::Avx2Fma, packed::Arm::Avx512]
        .into_iter()
        .partition(|arm| arm.available());
    for arm in &have {
        println!("{arm:?}: compared with Portable");
    }
    for arm in &lack {
        println!("{arm:?}: skipped, this host lacks it");
    }
    have
}

#[test]
fn every_microkernel_arm_matches_the_portable_arm_bitwise() {
    let arms = wide_arms();
    // Ragged m and n pad both the MR-tall A panels and the NR-wide B
    // panels (last panels of 3 and 9, 2 and 5, 2 and 2, 1 and 7 live
    // rows / columns); k = 300 and 258 span two K panels, and every kc
    // but 256 and 300's 44 leaves terms past the packer's 4 x 4
    // transposes (k = 3: none at all).
    for (m, k, n, seed) in [
        (67usize, 35usize, 41usize, 40u64),
        (70, 300, 37, 41),
        (66, 258, 18, 42),
        (5, 3, 7, 43),
    ] {
        let a = random_matrix(m, k, seed);
        let a_t = a.transpose();
        let b = random_matrix(k, n, seed + 100);
        let b_t = b.transpose();
        let c0 = random_matrix(m, n, seed + 200);
        for (label, aref, bref) in [
            ("nn", notrans(&a), notrans(&b)),
            ("nt", notrans(&a), trans(&b_t)),
            ("tn", trans(&a_t), notrans(&b)),
            ("tt", trans(&a_t), trans(&b_t)),
        ] {
            let mut want = c0.clone();
            engine(
                Arm::Portable,
                -1.5,
                aref,
                bref,
                0.75,
                Stairs::DENSE,
                (&mut want).into(),
            )
            .unwrap();
            for &arm in &arms {
                let mut got = c0.clone();
                engine(
                    arm,
                    -1.5,
                    aref,
                    bref,
                    0.75,
                    Stairs::DENSE,
                    (&mut got).into(),
                )
                .unwrap();
                assert_eq!(bits(&got), bits(&want), "{arm:?} {label} {m}x{k}x{n}");
            }
        }
    }

    // A staircase product windowed from a K-panel origin whose later rows
    // and columns start a whole panel in: their leading panels are exact
    // zeros, neither packed nor multiplied.
    let (m, n, k, origin) = (300, 290, 2 * K_PANEL + 40, K_PANEL);
    // Row i of `upper` and of `lower_t` is zero before k = K_PANEL + i.
    let step = |i: usize| K_PANEL + i;
    let upper = staircase(m, origin + k, step, 42);
    let lower_t = staircase(n, origin + k, step, 43);
    let a_op = notrans(&upper).window(0..m, origin..origin + k);
    let b_op = trans(&lower_t).window(origin..origin + k, 0..n);
    let stairs = |arm: packed::Arm| {
        let mut c = Matrix::from_fn(m, n, |_, _| f64::NAN);
        let steps = Stairs {
            a: Steps::From(K_PANEL),
            b: Steps::From(K_PANEL),
            origin,
        };
        engine(arm, 1.0, a_op, b_op, 0.0, steps, (&mut c).into()).unwrap();
        bits(&c)
    };
    let want = stairs(packed::Arm::Portable);
    for &arm in &arms {
        assert_eq!(stairs(arm), want, "{arm:?} staircase");
    }
}

/// `[-1, 1 + 2⁻³⁰] · [1, 1 - 2⁻³⁰]ᵀ` is `-1 + (1 - 2⁻⁶⁰)`: `-2⁻⁶⁰` when the
/// second step is one fused multiply-add, `0` when its product is rounded
/// to `1` first. Every arm must fuse, in every lane of its tile (each row
/// of `A` and column of `B` is the witness pair); the naive oracle must
/// not.
#[test]
fn microkernel_steps_are_fused() {
    let e = 2f64.powi(-30);
    let a = Matrix::from_fn(packed::MR, 2, |_, p| [-1.0, 1.0 + e][p]);
    let b = Matrix::from_fn(2, packed::NR, |p, _| [1.0, 1.0 - e][p]);
    let (a, b) = (notrans(&a), notrans(&b));
    let mut c = Matrix::zeros(packed::MR, packed::NR);
    let fused = vec![(-(2f64.powi(-60))).to_bits(); packed::MR * packed::NR];
    let mut arms = wide_arms();
    arms.push(Arm::Portable);
    for arm in arms {
        engine(arm, 1.0, a, b, 0.0, Stairs::DENSE, (&mut c).into()).unwrap();
        assert_eq!(bits(&c), fused, "{arm:?}");
    }
    gemm(1.0, a, b, 0.0, &mut c).unwrap();
    assert_eq!(bits(&c), fused, "detected arm");
    naive_gemm(1.0, a, b, 0.0, &mut c);
    assert_eq!(bits(&c), vec![0; packed::MR * packed::NR], "naive");
}

/// An `n × w` right-hand side whose column `v` is held at exact `+0.0` on
/// its first `v * 7 % n` entries, so the leaf's tiles mix columns that
/// come alive at different rows (masked).
fn staggered_rhs(n: usize, w: usize, seed: u64) -> Matrix {
    let noise = random_matrix(n, w, seed);
    Matrix::from_fn(n, w, |i, v| if i < v * 7 % n { 0.0 } else { noise[(i, v)] })
}

/// Unit and non-unit: each arm's leaf (and its coupling updates past one
/// leaf) against the portable arm's, word for word. 29 vectors take tiles
/// 16, 8, 4 and 1 wide; leaf orders 39, 63 and 150's last 22 end in a
/// part-block of rows.
#[test]
fn every_trsm_leaf_arm_matches_the_portable_arm_bitwise() {
    let arms = wide_arms();
    let solve = |arm: Arm, diag, t: &Matrix, b: &Matrix| {
        let mut x = b.clone();
        trsm_window(arm, diag, true, t.into(), (&mut x).into()).unwrap();
        bits(&x)
    };
    for n in [39, 40, 63, 150] {
        let t = tame_triangle(n, 60 + n as u64);
        let b = staggered_rhs(n, 29, 61);
        for diag in [Diag::Unit, Diag::NonUnit] {
            let want = solve(Arm::Portable, diag, &t, &b);
            for &arm in &arms {
                let got = solve(arm, diag, &t, &b);
                assert!(got == want, "{arm:?} n={n} {diag:?}");
            }
        }
    }
}

/// The LU leaf below 128 (one panel) and the blocked LU above it, on each
/// arm against the portable arm: the same pivots and the same bits.
#[test]
fn every_lu_leaf_arm_matches_the_portable_arm_bitwise() {
    let arms = wide_arms();
    for (n, panel) in [(100, 100), (150, 64)] {
        let a = random_matrix(n, n, 70 + n as u64);
        let lu = |arm: Arm| lu_blocked(&a, panel, arm).unwrap();
        let want = lu(Arm::Portable);
        for &arm in &arms {
            let got = lu(arm);
            assert_eq!(got.perm, want.perm, "{arm:?} n={n}");
            assert!(bits(&got.lu) == bits(&want.lu), "{arm:?} n={n}");
        }
    }
}

/// The witness of [`microkernel_steps_are_fused`] through each leaf, on
/// every arm: the solved entry is `0 − 1·1 + (1 + 2⁻³⁰)·(1 − 2⁻³⁰)`, in
/// the order the leaf takes its products (ascending `k`) — `−2⁻⁶⁰` fused,
/// `0` unfused — in every lane of every tile width; and in the LU leaf,
/// `a₁₂ = −1 − (−(1 − 2⁻³⁰))·(1 + 2⁻³⁰)`.
#[test]
fn leaf_steps_are_fused() {
    let e = 2f64.powi(-30);
    let (p, q) = (1.0 + e, 1.0 - e);
    let fused = (-(2f64.powi(-60))).to_bits();
    let tri = |rows: [[f64; 3]; 3]| Matrix::from_fn(3, 3, |i, j| rows[i][j]);
    let t = tri([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, -p, 1.0]]);
    let vector = [1.0, q, 0.0];
    let mut arms = wide_arms();
    arms.push(Arm::Portable);
    for &arm in &arms {
        for w in [16, 8, 4, 1] {
            let mut x = Matrix::from_fn(3, w, |i, _| vector[i]);
            trsm_window(arm, Diag::Unit, true, (&t).into(), (&mut x).into()).unwrap();
            for v in 0..w {
                assert_eq!(x[(2, v)].to_bits(), fused, "{arm:?} w={w}");
            }
        }
        let a = tri([[1.0, 0.0, p], [-q, 1.0, -1.0], [0.0, 0.0, 1.0]]);
        let f = lu_blocked(&a, 3, arm).unwrap();
        assert_eq!(f.lu[(1, 2)].to_bits(), fused, "{arm:?} LU leaf");
    }
}

/// Shape families: m ≤ MR slivers, wide-but-short, tall-and-skinny, and
/// generally ragged — all straddling the MR/NR/MC/KC tile edges.
fn arb_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..4, any::<u64>()).prop_map(|(family, s)| {
        let pick = |lo: usize, hi: usize, rot: u32| lo + (s.rotate_right(rot) as usize) % (hi - lo);
        match family {
            0 => (pick(1, 5, 0), pick(1, 96, 8), pick(1, 96, 16)), // m ≤ MR
            1 => (pick(1, 24, 0), pick(1, 64, 8), pick(120, 280, 16)), // wide-short
            2 => (pick(120, 280, 0), pick(1, 64, 8), pick(1, 24, 16)), // tall-skinny
            _ => (pick(1, 80, 0), pick(1, 80, 8), pick(1, 80, 16)), // ragged general
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel nest is forced on for every product, however small,
    /// by calling the engine below the crossover gate — these shapes all
    /// fall under `PAR_MIN_MADDS`, so `gemm` would never take it.
    #[test]
    fn forced_parallel_nest_matches_serial_across_caps_and_ragged_shapes(
        ((m, k, n), s1, s2, s3, ta, tb, alpha, beta) in (
            arb_shape(),
            any::<u64>(), any::<u64>(), any::<u64>(),
            any::<bool>(), any::<bool>(),
            -2.0f64..2.0, -2.0f64..2.0,
        )
    ) {
        let a = random_matrix(if ta { k } else { m }, if ta { m } else { k }, s1);
        let b = random_matrix(if tb { n } else { k }, if tb { k } else { n }, s2);
        let c0 = random_matrix(m, n, s3);
        let op = |t: bool| if t { Op::Trans } else { Op::NoTrans };

        let mut naive = c0.clone();
        naive_gemm(alpha, op(ta).of(&a), op(tb).of(&b), beta, &mut naive);
        let mut serial = c0.clone();
        scale_by_beta(&mut (&mut serial).into(), beta);
        packed::run_packed(packed::Arm::detect(), false, alpha, op(ta).of(&a), op(tb).of(&b), Stairs::DENSE, (&mut serial).into());

        // The same k-linear forward-error bound the backend-agreement
        // proptest uses against the naive reference.
        let tol = 32.0 * f64::EPSILON * (k as f64 + 2.0)
            * (alpha.abs() * k as f64 + beta.abs() + 1.0);

        for cap in [1usize, 2, usize::MAX] {
            let mut par = c0.clone();
            scale_by_beta(&mut (&mut par).into(), beta);
            with_thread_cap(cap, || {
                packed::run_packed(packed::Arm::detect(), true, alpha, op(ta).of(&a), op(tb).of(&b), Stairs::DENSE, (&mut par).into());
            });

            // Design contract: the parallel nest is bitwise serial.
            prop_assert!(
                par == serial,
                "parallel differs from serial bitwise at cap={} (m={} k={} n={})",
                cap, m, k, n
            );
            // And both sit within the forward-error bound of naive.
            for (got, want) in par.as_slice().iter().zip(naive.as_slice()) {
                prop_assert!(
                    (got - want).abs() <= tol,
                    "parallel packed deviates from naive: {} vs {} (tol {}, cap={}, \
                     m={} k={} n={} ta={} tb={})",
                    got, want, tol, cap, m, k, n, ta, tb
                );
            }
        }
    }
}

#[test]
fn beta_zero_overwrites_nan() {
    let a = random_matrix(9, 9, 10);
    let b = random_matrix(9, 9, 11);
    let nan = || Matrix::from_fn(9, 9, |_, _| f64::NAN);
    let mut naive = nan();
    naive_gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut naive);
    let mut packed = nan();
    gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut packed).unwrap();
    for (name, c) in [("naive", naive), ("packed", packed)] {
        assert!(c.as_slice().iter().all(|v| v.is_finite()), "{name}");
    }
}

#[test]
fn shape_mismatches_rejected() {
    let a = Matrix::zeros(2, 3);
    let b = Matrix::zeros(4, 2);
    let mut c = Matrix::zeros(2, 2);
    assert!(gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut c).is_err());
    let b = Matrix::zeros(3, 5);
    assert!(gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut c).is_err());
    // Transposed logical shapes are what must line up: Aᵀ·Aᵀ of a 2x3 is
    // 3x2 · 3x2 — invalid — while Aᵀ·A is fine.
    let mut c = Matrix::zeros(3, 3);
    assert!(gemm(1.0, trans(&a), trans(&a.clone()), 0.0, &mut c).is_err());
    assert!(gemm(1.0, trans(&a), notrans(&a.clone()), 0.0, &mut c).is_ok());
}

#[test]
fn empty_and_degenerate_products() {
    let a = Matrix::zeros(0, 0);
    let mut c = Matrix::zeros(0, 0);
    naive_gemm(1.0, notrans(&a), notrans(&a), 0.0, &mut c);
    gemm(1.0, notrans(&a), notrans(&a), 0.0, &mut c).unwrap();
    let a = Matrix::zeros(3, 0);
    let b = Matrix::zeros(0, 2);
    let sevens = || Matrix::from_fn(3, 2, |_, _| 7.0);
    let mut naive = sevens();
    naive_gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut naive);
    let mut packed = sevens();
    gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut packed).unwrap();
    for (name, c) in [("naive", naive), ("packed", packed)] {
        assert!(c.as_slice().iter().all(|&v| v == 0.0), "{name}");
    }
}

// Per-vector triangular kernels, one fused multiply-add per step: `trsm`'s
// leaves do their arithmetic operation for operation, many vectors abreast,
// so they are the leaves' bit-identity oracles.

/// Column `j` of `L^-1` by Equation 4 (any nonzero diagonal; entries above
/// the diagonal are zero).
fn invert_lower_column(l: &Matrix, j: usize) -> Vec<f64> {
    let n = l.rows();
    let mut col = vec![0.0; n];
    col[j] = 1.0 / l[(j, j)];
    for i in (j + 1)..n {
        // [L^-1]_ij = -1/[L]_ii * sum_{k=j}^{i-1} [L]_ik [L^-1]_kj
        let row = l.row(i);
        let mut acc = 0.0;
        for (k, &ck) in col.iter().enumerate().take(i).skip(j) {
            acc = row[k].mul_add(ck, acc);
        }
        col[i] = -acc / row[i];
    }
    col
}

/// One column of `U2` in Equation 6: `L1·x = a2_col` for unit-lower `L1`.
fn solve_unit_lower_column(l1: &Matrix, a2_col: &[f64]) -> Vec<f64> {
    let mut x = a2_col.to_vec();
    for i in 0..l1.rows() {
        let row = l1.row(i);
        let mut acc = x[i];
        for (k, &xk) in x.iter().enumerate().take(i) {
            acc = (-row[k]).mul_add(xk, acc);
        }
        x[i] = acc; // unit diagonal: no division
    }
    x
}

/// One row of `L2'` in Equation 6, `x·U1 = a3_row`, with `U1` supplied in
/// transposed storage (`u1_t = U1ᵀ`, lower triangular): every access is
/// row-major, unlike [`triangular::solve_row_times_upper`].
fn solve_row_times_upper_transposed(u1_t: &Matrix, a3_row: &[f64]) -> Vec<f64> {
    let n = u1_t.rows();
    let mut x = vec![0.0_f64; n];
    for j in 0..n {
        let row = u1_t.row(j);
        let mut acc = a3_row[j];
        for (k, &xk) in x.iter().enumerate().take(j) {
            acc = (-xk).mul_add(row[k], acc);
        }
        x[j] = acc / row[j];
    }
    x
}

#[test]
fn column_kernel_matches_full_inverse() {
    let l = random_unit_lower(9, 3);
    let inv = triangular::invert_lower(&l).unwrap();
    for j in 0..9 {
        let col = invert_lower_column(&l, j);
        for i in 0..9 {
            assert!((col[i] - inv[(i, j)]).abs() < 1e-12);
        }
    }
}

#[test]
fn strided_row_kernel_matches_transposed_storage_oracle() {
    let u1 = random_upper(10, 8);
    let u1_t = u1.transpose();
    let a3 = random_matrix(6, 10, 9);
    for i in 0..6 {
        let a = triangular::solve_row_times_upper(&u1, a3.row(i)).unwrap();
        let b = solve_row_times_upper_transposed(&u1_t, a3.row(i));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}

#[test]
fn trsm_left_lower_matches_legacy_per_column_kernels() {
    // Widths that take full 16-column leaf tiles and every remainder tile
    // (8, 4 and 1 wide; masked too, under the identity's staggered
    // columns): each must reproduce the per-vector oracles bit for bit.
    // Every order is at most the leaf's, so one leaf solves each system.
    for (n, w) in [(40, 21), (44, 15), (44, 31)] {
        let l = random_unit_lower(n, 13);
        // Unit solve against a general RHS: the old column-at-a-time
        // solve_unit_lower_column loop (the U2 mappers').
        let rhs = random_matrix(n, w, 14);
        let mut x = rhs.clone();
        trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, &l, &mut x).unwrap();
        for j in 0..w {
            let col = solve_unit_lower_column(&l, &rhs.col(j));
            assert_eq!(bits_of(&x.col(j)), bits_of(&col), "U2 column {j}");
        }

        // Non-unit solve of the identity: column-wise invert_lower_column
        // (including exact +0.0 above each diagonal, under negative diagonals).
        let mut lnu = l.clone();
        for i in 0..n {
            lnu[(i, i)] = (1.5 + i as f64 * 0.25) * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let mut x = Matrix::identity(n);
        trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 1.0, &lnu, &mut x).unwrap();
        for j in 0..n {
            let col = invert_lower_column(&lnu, j);
            assert_eq!(bits_of(&x.col(j)), bits_of(&col), "inverse column {j}");
        }
        assert_eq!(bits(&x), bits(&triangular::invert_lower(&lnu).unwrap()));

        // The L2' mappers' form: X·U1 = A3 solved as U1ᵀ·Xᵀ = A3ᵀ, against the
        // old row-at-a-time solve_row_times_upper_transposed loop.
        let u1_t = lnu;
        let a3 = random_matrix(w, n, 24);
        let mut x_t = a3.transpose();
        trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 1.0, &u1_t, &mut x_t).unwrap();
        for i in 0..w {
            let row = solve_row_times_upper_transposed(&u1_t, a3.row(i));
            assert_eq!(bits_of(&x_t.col(i)), bits_of(&row), "L2' row {i}");
        }
    }
}

/// Every combination `trsm` accepts, unit and non-unit diagonal, against
/// a full square: `T·X` over the triangle it read gives `B` back.
#[test]
fn trsm_all_combinations_solve_their_equation() {
    let n = 37;
    let t = tame_triangle(n, 17);
    let b = random_matrix(n, 9, 18);
    for diag in [Diag::Unit, Diag::NonUnit] {
        let mut x = b.clone();
        trsm(Side::Left, Uplo::Lower, diag, 1.0, &t, &mut x).unwrap();
        // Rebuild B from X and the triangle trsm actually read.
        let teff = Matrix::from_fn(n, n, |i, j| {
            if i == j && diag == Diag::Unit {
                1.0
            } else if j <= i {
                t[(i, j)]
            } else {
                0.0
            }
        });
        let recovered = mul(notrans(&teff), notrans(&x)).unwrap();
        assert!(recovered.approx_eq(&b, 1e-7), "{diag:?} failed");
    }
}

/// `rows x cols` of `m`, copied out.
fn block_of(m: &Matrix, rows: &Range<usize>, cols: &Range<usize>) -> Matrix {
    m.block(BlockRange::new(
        (rows.start, rows.end),
        (cols.start, cols.end),
    ))
    .unwrap()
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|v| v.to_bits()).collect()
}

fn bits(m: &Matrix) -> Vec<u64> {
    bits_of(m.as_slice())
}

/// A full square (both triangles populated, so a solve that read the wrong
/// one would show) with a mixed-sign diagonal bounded away from zero and
/// off-diagonals small enough that solutions stay O(1) at any order.
fn tame_triangle(n: usize, seed: u64) -> Matrix {
    let mut t = random_matrix(n, n, seed);
    let shrink = (4.0 / n as f64).min(1.0);
    for i in 0..n {
        for j in 0..n {
            t[(i, j)] *= shrink;
        }
        let mag = 1.5 + (i % 5) as f64 * 0.5;
        t[(i, i)] = if i % 3 == 0 { -mag } else { mag };
    }
    t
}

#[test]
fn gemm_on_windows_matches_copied_out_blocks_bitwise() {
    // Ragged extents straddling the MR/NR/MC edges, inside parents wider
    // than the operands: every window has an offset and a row stride
    // larger than its extent.
    let (m, k, n) = (67, 35, 41);
    let big_a = random_matrix(90, 80, 40);
    let big_b = random_matrix(85, 75, 41);
    let big_c = random_matrix(100, 60, 42);
    let op = |t: bool| if t { Op::Trans } else { Op::NoTrans };
    let (c_rows, c_cols) = (9..9 + m, 13..13 + n);

    for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
        // Stored extents of the operand windows, then their logical
        // (post-op) coordinates, which is what `OpRef::window` takes.
        let (a_rows, a_cols) = if ta {
            (7..7 + k, 3..3 + m)
        } else {
            (7..7 + m, 3..3 + k)
        };
        let (b_rows, b_cols) = if tb {
            (2..2 + n, 11..11 + k)
        } else {
            (2..2 + k, 11..11 + n)
        };
        let logical = |t: bool, rows: &Range<usize>, cols: &Range<usize>| {
            if t {
                (cols.clone(), rows.clone())
            } else {
                (rows.clone(), cols.clone())
            }
        };
        let (alr, alc) = logical(ta, &a_rows, &a_cols);
        let (blr, blc) = logical(tb, &b_rows, &b_cols);

        let mut in_place = big_c.clone();
        engine(
            Arm::detect(),
            0.5,
            op(ta).of(&big_a).window(alr, alc),
            op(tb).of(&big_b).window(blr, blc),
            -2.0,
            Stairs::DENSE,
            MatMut::from(&mut in_place).window(c_rows.clone(), c_cols.clone()),
        )
        .unwrap();

        let a_blk = block_of(&big_a, &a_rows, &a_cols);
        let b_blk = block_of(&big_b, &b_rows, &b_cols);
        let mut c_blk = block_of(&big_c, &c_rows, &c_cols);
        gemm(0.5, op(ta).of(&a_blk), op(tb).of(&b_blk), -2.0, &mut c_blk).unwrap();
        let mut expect = big_c.clone();
        expect
            .set_block(c_rows.start, c_cols.start, &c_blk)
            .unwrap();
        assert_eq!(
            bits(&in_place),
            bits(&expect),
            "ta={ta} tb={tb}: window gemm differs from block gemm, or wrote outside its window"
        );
    }

    // The tile-parallel nest carves its work items out of the C window.
    let mut serial = big_c.clone();
    let mut par = big_c.clone();
    for (parallel, c) in [(false, &mut serial), (true, &mut par)] {
        packed::run_packed(
            packed::Arm::detect(),
            parallel,
            1.5,
            notrans(&big_a).window(7..7 + m, 3..3 + k),
            notrans(&big_b).window(2..2 + k, 11..11 + n),
            Stairs::DENSE,
            MatMut::from(c).window(c_rows.clone(), c_cols.clone()),
        );
    }
    assert_eq!(bits(&par), bits(&serial));
}

#[test]
fn trsm_on_windows_matches_copied_out_blocks_bitwise() {
    // n > 2 leaves (recursion, ragged last leaf); w covers two full
    // left-leaf tiles plus scalar remainder columns.
    let (n, w) = (150, 37);
    let big_t = tame_triangle(n + 20, 50);
    let t_span = 5..5 + n;
    let (b_rows, b_cols) = (3..3 + n, 6..6 + w);
    let big_b = random_matrix(b_rows.end + 4, b_cols.end + 9, 51);
    for diag in [Diag::Unit, Diag::NonUnit] {
        let mut in_place = big_b.clone();
        trsm_window(
            Arm::detect(),
            diag,
            true,
            MatRef::from(&big_t).window(t_span.clone(), t_span.clone()),
            MatMut::from(&mut in_place).window(b_rows.clone(), b_cols.clone()),
        )
        .unwrap();

        let t_blk = block_of(&big_t, &t_span, &t_span);
        let mut b_blk = block_of(&big_b, &b_rows, &b_cols);
        trsm(Side::Left, Uplo::Lower, diag, 1.0, &t_blk, &mut b_blk).unwrap();
        let mut expect = big_b.clone();
        expect
            .set_block(b_rows.start, b_cols.start, &b_blk)
            .unwrap();
        assert_eq!(
            bits(&in_place),
            bits(&expect),
            "{diag:?}: window trsm differs from block trsm, or wrote outside its window"
        );
        assert!(b_blk.as_slice().iter().all(|v| v.is_finite()));
    }
}

/// The unit-basis vectors `e_j`, `j` in `picks`, as the columns of a
/// right-hand side.
fn unit_basis_batch(n: usize, picks: &[usize]) -> Matrix {
    let mut b = Matrix::zeros(n, picks.len());
    for (slot, &j) in picks.iter().enumerate() {
        b[(j, slot)] = 1.0;
    }
    b
}

#[test]
fn observed_zero_restriction_is_bit_neutral_on_unit_basis_batches() {
    let solve = |t: &Matrix, b: &Matrix, observe_zeros| {
        let mut x = b.clone();
        trsm_window(
            Arm::detect(),
            Diag::NonUnit,
            observe_zeros,
            t.into(),
            (&mut x).into(),
        )
        .unwrap();
        x
    };

    // The pipeline's shape: interleaved columns of a lower inverse.
    for n in [65usize, 96, 384, 770] {
        let t = tame_triangle(n, n as u64);
        for m in [1usize, 2, 3, 5] {
            let picks: Vec<usize> = (m - 1..n).step_by(m).collect();
            let b = unit_basis_batch(n, &picks);
            let on = solve(&t, &b, true);
            let off = solve(&t, &b, false);
            assert_eq!(bits(&on), bits(&off), "n={n} m={m}");
            // Nothing above a column's diagonal entry was touched: exact
            // +0.0 even where the diagonal is negative.
            for (slot, &j) in picks.iter().enumerate() {
                assert!(
                    (0..j).all(|i| on[(i, slot)].to_bits() == 0),
                    "n={n} m={m}: column {j} is not +0.0 above its diagonal"
                );
                assert!(on[(j, slot)] != 0.0);
            }
        }
    }

    // Vectors that come alive in index order and out of it: unit-basis
    // batches sorted and shuffled (slot `s` takes the `7s mod 173`-th
    // pick), whose entries before each vector's one stay +0.0, and
    // staggered vectors. Both loop nests: a pool capped at one thread, and
    // one of two, where the top coupling updates cross the parallel nest's
    // threshold.
    let n = 520;
    let t = tame_triangle(n, 7);
    let sorted: Vec<usize> = (1..n).step_by(3).collect();
    let shuffled: Vec<usize> = (0..sorted.len())
        .map(|s| sorted[s * 7 % sorted.len()])
        .collect();
    let cases = [
        ("sorted", &sorted[..], unit_basis_batch(n, &sorted)),
        ("shuffled", &shuffled[..], unit_basis_batch(n, &shuffled)),
        ("staggered", &[][..], staggered_rhs(n, 133, 8)),
    ];
    for (label, picks, b) in &cases {
        let off = solve(&t, b, false);
        for cap in [1, 2] {
            let mut on = Matrix::zeros(0, 0);
            with_thread_cap(cap, || on = solve(&t, b, true));
            assert!(bits(&on) == bits(&off), "{label} at cap {cap}");
            for (slot, &j) in picks.iter().enumerate() {
                for i in 0..j {
                    assert_eq!(on[(i, slot)].to_bits(), 0, "{label} e_{j} entry {i}");
                }
            }
        }
    }
}

/// A `rows x cols` matrix, random from column `first(i)` of row `i` on and
/// exactly `+0.0` before it.
fn staircase(rows: usize, cols: usize, first: impl Fn(usize) -> usize, seed: u64) -> Matrix {
    let noise = random_matrix(rows, cols, seed);
    Matrix::from_fn(
        rows,
        cols,
        |i, p| {
            if p >= first(i) {
                noise[(i, p)]
            } else {
                0.0
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The staircase product is the dense product, bit for bit: on both
    /// loop nests (the parallel one forced on, at two pool widths), into
    /// a window of a larger `C` (rows and columns cut at both edges of the
    /// engine's tiles, `K` of one to three panels, microtiles whose first
    /// term falls inside a panel, steps that start before the window's
    /// origin).
    #[test]
    fn staircase_product_is_the_dense_product_bitwise(
        ((m, n, k), origin, (a_row0, b_col0), (ta, tb), seed) in (
            (1usize..300, 1usize..300, 1usize..=3 * K_PANEL),
            0usize..2 * K_PANEL,
            (any::<usize>(), any::<usize>()),
            (any::<bool>(), any::<bool>()),
            any::<u64>(),
        )
    ) {
        // Steps anywhere from index 0 to past the window's end.
        let (a_row0, b_col0) = (a_row0 % (origin + k), b_col0 % (origin + k));
        let step = |row0: usize| move |i: usize| (row0 + i).saturating_sub(origin);
        // Logical op(A) is m x k, op(B) is k x n; store each as the test
        // asks, so both `Op`s are exercised on either side.
        let a = staircase(m, k, step(a_row0), seed);
        let b_t = staircase(n, k, step(b_col0), seed ^ 1);
        let a_stored = if ta { a.transpose() } else { a };
        let b_stored = if tb { b_t } else { b_t.transpose() };
        let op = |t: bool| if t { Op::Trans } else { Op::NoTrans };
        let (a_op, b_op) = (op(ta).of(&a_stored), op(tb).of(&b_stored));

        // The expected parent: NaN around the dense product.
        let (rows, cols) = (3..3 + m, 5..5 + n);
        let nan_parent = || Matrix::from_fn(m + 7, n + 6, |_, _| f64::NAN);
        let mut dense = Matrix::zeros(m, n);
        gemm(1.0, a_op, b_op, 0.0, &mut dense).unwrap();
        let mut want = nan_parent();
        want.set_block(rows.start, cols.start, &dense).unwrap();

        let stairs = Stairs { a: Steps::From(a_row0), b: Steps::From(b_col0), origin };
        let mut serial = nan_parent();
        let window = MatMut::from(&mut serial).window(rows.clone(), cols.clone());
        with_thread_cap(1, || {
            engine(Arm::detect(), 1.0, a_op, b_op, 0.0, stairs, window).unwrap();
        });
        prop_assert!(
            bits(&serial) == bits(&want),
            "serial: m={} n={} k={} origin={} a_row0={} b_col0={}",
            m, n, k, origin, a_row0, b_col0
        );
        for cap in [2, usize::MAX] {
            let mut par = nan_parent();
            let mut window = MatMut::from(&mut par).window(rows.clone(), cols.clone());
            scale_by_beta(&mut window, 0.0);
            with_thread_cap(cap, || {
                packed::run_packed(Arm::detect(), true, 1.0, a_op, b_op, stairs, window);
            });
            prop_assert!(
                bits(&par) == bits(&want),
                "parallel at cap {}: m={} n={} k={} origin={} a_row0={} b_col0={}",
                cap, m, n, k, origin, a_row0, b_col0
            );
        }
    }
}

#[test]
fn trsm_rejects_singular_and_misshapen() {
    let mut l = random_unit_lower(5, 20);
    l[(2, 2)] = 0.0;
    let mut b = Matrix::zeros(5, 2);
    assert!(matches!(
        trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 1.0, &l, &mut b),
        Err(MatrixError::Singular { step: 2 })
    ));
    // Unit diag never reads the diagonal, so the same matrix is fine.
    assert!(trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, &l, &mut b).is_ok());
    let mut b = Matrix::zeros(4, 2);
    assert!(trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, &l, &mut b).is_err());
    assert!(trsm(Side::Right, Uplo::Lower, Diag::Unit, 1.0, &l, &mut b).is_err());

    // Only the forward solve is run: any other side, triangle or scale is
    // refused on operands every case would accept, `B` untouched.
    let t = tame_triangle(5, 21);
    let b = random_matrix(5, 5, 22);
    for (side, uplo, alpha) in [
        (Side::Right, Uplo::Upper, 1.0),
        (Side::Right, Uplo::Lower, 1.0),
        (Side::Left, Uplo::Upper, 1.0),
        (Side::Left, Uplo::Lower, 2.0),
    ] {
        let mut x = b.clone();
        assert!(
            matches!(
                trsm(side, uplo, Diag::NonUnit, alpha, &t, &mut x),
                Err(MatrixError::InvalidParameter { op: "trsm", .. })
            ),
            "{side:?}/{uplo:?} alpha={alpha}"
        );
        assert_eq!(bits(&x), bits(&b), "{side:?}/{uplo:?} alpha={alpha}");
    }
}

#[test]
fn blocked_lu_matches_unblocked_permutation_and_reconstructs() {
    use crate::lu::lu_decompose;
    for n in [10, 64, 97] {
        let a = random_matrix(n, n, 21 + n as u64);
        let unblocked = lu_decompose(&a).unwrap();
        let f = lu_blocked(&a, 16, Arm::detect()).unwrap();
        assert_eq!(f.perm, unblocked.perm, "pivot choices must agree at n={n}");
        let pa = f.perm.apply_rows(&a);
        assert!(f.reconstruct().approx_eq(&pa, 1e-8), "PA != LU at n={n}");
        assert!(f.lu.approx_eq(&unblocked.lu, 1e-8));
    }
}

#[test]
fn one_full_width_panel_is_the_unblocked_decomposition_bitwise() {
    use crate::lu::lu_decompose;
    // Below 128 `lu_decompose` is a single panel; no trailing GEMM runs.
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for n in [1, 2, 7, 33, 64, 127] {
        let a = random_matrix(n, n, 40 + n as u64);
        let one_panel = lu_blocked(&a, n, Arm::detect()).unwrap();
        let unblocked = lu_decompose(&a).unwrap();
        assert_eq!(one_panel.perm, unblocked.perm, "n={n}");
        assert_eq!(bits(&one_panel.lu), bits(&unblocked.lu), "n={n}");
    }
}

#[test]
fn blocked_lu_detects_singularity_and_bad_nb() {
    let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
    assert!(matches!(
        lu_blocked(&a, 2, Arm::detect()),
        Err(MatrixError::Singular { .. })
    ));
    let b = random_matrix(4, 4, 22);
    assert!(matches!(
        lu_blocked(&b, 0, Arm::detect()),
        Err(MatrixError::InvalidParameter { .. })
    ));
}

#[test]
fn opref_logical_shapes() {
    let a = Matrix::zeros(3, 5);
    assert_eq!((notrans(&a).rows(), notrans(&a).cols()), (3, 5));
    assert_eq!((trans(&a).rows(), trans(&a).cols()), (5, 3));
}

#[test]
fn gemm_flops_counts_two_per_madd() {
    assert_eq!(gemm_flops(2, 3, 4), 48);
    assert_eq!(gemm_flops(0, 3, 4), 0);
}

/// The closed form against a term-by-term count, on blocks above, below
/// and across the diagonal; the whole product is `Σ k²` terms.
#[test]
fn tri_product_flops_counts_the_nonzero_terms() {
    let n = 13;
    let brute = |rows: Range<usize>, cols: Range<usize>| -> u64 {
        let pairs = rows.flat_map(|i| cols.clone().map(move |j| (i, j)));
        pairs.map(|(i, j)| 2 * (n - i.max(j)) as u64).sum()
    };
    for (rows, cols) in [
        (0..n, 0..n),
        (0..4, 9..13),
        (9..13, 0..4),
        (3..8, 5..11),
        (6..6, 0..n),
    ] {
        assert_eq!(
            tri_product_flops(n, rows.clone(), cols.clone()),
            brute(rows.clone(), cols.clone()),
            "{rows:?} x {cols:?}"
        );
    }
    let k = n as u64;
    assert_eq!(
        tri_product_flops(n, 0..n, 0..n),
        2 * k * (k + 1) * (2 * k + 1) / 6
    );
}
