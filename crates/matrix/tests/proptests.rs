//! Property-based tests on the linear-algebra substrate.

use mrinv_matrix::block::{even_ranges, BlockRange};
use mrinv_matrix::io::{
    decode_binary, decode_text, encode_binary, encode_binary_vec, encode_text, write_text,
};
use mrinv_matrix::kernel::{gemm, trsm, Diag, Op, Side, Uplo};
use mrinv_matrix::lu::lu_decompose;
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::triangular::{invert_lower, invert_upper};
use mrinv_matrix::{Matrix, MatrixError, Permutation};
use proptest::prelude::*;

#[path = "support/naive.rs"]
mod naive;
use naive::naive_gemm;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| random_matrix(r, c, seed))
}

/// Matrices (empty ones included) whose elements are drawn from every
/// class of bit pattern: arbitrary bits, ±0, subnormals, NaNs with
/// payloads, ±infinity.
fn arb_bits_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    const MANTISSA: u64 = (1 << 52) - 1;
    const SIGN: u64 = 1 << 63;
    const EXP_ALL_ONES: u64 = 0x7ff << 52;
    let element = |bits: u64| {
        let (sign, mantissa) = (bits & SIGN, (bits >> 8) & MANTISSA);
        f64::from_bits(match bits % 6 {
            0 => sign,
            1 => sign | mantissa.max(1),
            2 => sign | EXP_ALL_ONES | mantissa.max(1),
            3 => sign | EXP_ALL_ONES,
            _ => bits,
        })
    };
    (
        0..=max_dim,
        0..=max_dim,
        prop::collection::vec(any::<u64>(), max_dim * max_dim),
    )
        .prop_map(move |(r, c, bits)| {
            let vals = bits[..r * c].iter().map(|&b| element(b)).collect();
            Matrix::from_vec(r, c, vals).unwrap()
        })
}

fn bits_of(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Takes at most 1000 bytes a call and `budget` in all, then fails; keeps
/// what it took and the longest buffer it was offered.
struct ShortWriter {
    budget: usize,
    taken: Vec<u8>,
    longest_offer: usize,
}

impl ShortWriter {
    fn with_budget(budget: usize) -> Self {
        ShortWriter {
            budget,
            taken: Vec::new(),
            longest_offer: 0,
        }
    }
}

impl std::io::Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.longest_offer = self.longest_offer.max(buf.len());
        let n = buf.len().min(1000).min(self.budget - self.taken.len());
        if n == 0 {
            return Err(std::io::Error::other("disk full"));
        }
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn text_writer_streams_in_chunks_and_surfaces_io_errors() {
    let m = random_matrix(70, 60, 9);
    let text = encode_text(&m);
    assert!(text.len() > 80_000, "more than one chunk");
    let mut all = ShortWriter::with_budget(usize::MAX);
    write_text(&mut all, &m).unwrap();
    assert_eq!(all.taken, text.as_bytes());
    assert!(all.longest_offer <= 64 << 10, "the whole text was buffered");
    for budget in [0, 10, 64 << 10, 70_000, text.len() - 1] {
        let mut full = ShortWriter::with_budget(budget);
        let err = write_text(&mut full, &m).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(full.taken, &text.as_bytes()[..budget]);
    }
}

fn arb_perm(max_n: usize) -> impl Strategy<Value = Permutation> {
    (1..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s: Vec<usize> = (0..n).collect();
        s.shuffle(&mut rng);
        Permutation::from_vec(s).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in arb_matrix(24)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn binary_codec_round_trips(m in arb_matrix(24)) {
        prop_assert_eq!(decode_binary(&encode_binary(&m)).unwrap(), m);
    }

    #[test]
    fn binary_codec_is_bit_identical_both_ways(m in arb_bits_matrix(6)) {
        let x = encode_binary(&m);
        prop_assert_eq!(x.as_ref(), encode_binary_vec(&m).as_slice());
        let back = decode_binary(&x).unwrap();
        prop_assert_eq!((back.rows(), back.cols()), (m.rows(), m.cols()));
        // `==` on matrices would equate ±0 and reject every NaN.
        prop_assert_eq!(bits_of(&back), bits_of(&m));
        prop_assert_eq!(encode_binary(&back), x);
    }

    #[test]
    fn binary_codec_rejects_every_malformed_input(m in arb_bits_matrix(5)) {
        let x = encode_binary_vec(&m);
        let is_codec_error = |data: &[u8]| matches!(decode_binary(data), Err(MatrixError::Codec(_)));
        for cut in 0..x.len() {
            prop_assert!(is_codec_error(&x[..cut]), "truncated to {cut} of {}", x.len());
        }
        for extra in 1..=9 {
            let mut long = x.clone();
            long.resize(x.len() + extra, 0);
            prop_assert!(is_codec_error(&long), "{extra} bytes too long");
        }
        for i in 0..4 {
            let mut bad = x.clone();
            bad[i] ^= 0x20;
            prop_assert!(is_codec_error(&bad), "magic byte {i} flipped");
        }
        // Dimensions whose product, or product times 8, overflows; and ones
        // that are merely wrong for the payload.
        let with_dims = |rows: u64, cols: u64| {
            let mut bad = x.clone();
            bad[4..12].copy_from_slice(&rows.to_le_bytes());
            bad[12..20].copy_from_slice(&cols.to_le_bytes());
            bad
        };
        for (rows, cols) in [
            (u64::MAX, 2),
            (u64::MAX, u64::MAX),
            (1 << 32, 1 << 32),
            (1 << 61, 1),
            (1, 1 << 61),
            (m.rows() as u64 + 1, m.cols() as u64 + 1),
        ] {
            prop_assert!(is_codec_error(&with_dims(rows, cols)), "dimensions {rows}x{cols}");
        }
    }

    #[test]
    fn text_codec_round_trips(
        (m, any_bits, budget) in (arb_matrix(12), arb_bits_matrix(6), any::<usize>())
    ) {
        prop_assert_eq!(decode_text(&encode_text(&m)).unwrap(), m);

        // Every class of bit pattern and the empty shapes. Text has one
        // spelling of NaN, so those come back as a class; all else exactly.
        let text = encode_text(&any_bits);
        let back = decode_text(&text).unwrap();
        prop_assert_eq!((back.rows(), back.cols()), (any_bits.rows(), any_bits.cols()));
        for (got, want) in back.as_slice().iter().zip(any_bits.as_slice()) {
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{:#018x} came back as {:#018x}", want.to_bits(), got.to_bits()
            );
        }

        let mut streamed = ShortWriter::with_budget(usize::MAX);
        write_text(&mut streamed, &any_bits).unwrap();
        prop_assert_eq!(&streamed.taken, text.as_bytes());
        let mut full = ShortWriter::with_budget(budget % text.len());
        prop_assert!(write_text(&mut full, &any_bits).is_err());
    }

    #[test]
    fn gemm_backends_agree_differentially(
        (m, k, n, s1, s2, s3, ta, tb, alpha, beta) in (
            1usize..48, 1usize..48, 1usize..48,
            any::<u64>(), any::<u64>(), any::<u64>(),
            any::<bool>(), any::<bool>(),
            -2.0f64..2.0, -2.0f64..2.0,
        )
    ) {
        // Storage shape depends on the requested op; logical product is
        // always (m x k) · (k x n).
        let a = random_matrix(if ta { k } else { m }, if ta { m } else { k }, s1);
        let b = random_matrix(if tb { n } else { k }, if tb { k } else { n }, s2);
        let c0 = random_matrix(m, n, s3);
        let op = |t: bool| if t { Op::Trans } else { Op::NoTrans };

        let mut reference = c0.clone();
        naive_gemm(alpha, op(ta).of(&a), op(tb).of(&b), beta, &mut reference);

        // Forward-error bound: each element is a length-k dot (error
        // ~ k·eps per unit of summed magnitude) plus the scaled original.
        // Entries are O(1), so the summed magnitude is O(|alpha|·k + |beta|).
        let tol = 32.0 * f64::EPSILON * (k as f64 + 2.0)
            * (alpha.abs() * k as f64 + beta.abs() + 1.0);

        let mut c = c0.clone();
        gemm(alpha, op(ta).of(&a), op(tb).of(&b), beta, &mut c).unwrap();
        for (got, want) in c.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!(
                (got - want).abs() <= tol,
                "packed deviates from naive: {got} vs {want} (tol {tol}, m={m} k={k} n={n} \
                 ta={ta} tb={tb} alpha={alpha} beta={beta})"
            );
        }
    }

    #[test]
    fn trsm_backends_agree_differentially(
        (n, w, seed, unit) in (1usize..200, 1usize..40, any::<u64>(), any::<bool>())
    ) {
        // Orders up to three levels of the packed engine's recursion (its
        // leaf is 64) and widths past the leaf's 16-vector tile. The
        // off-diagonals shrink with the order so the triangle stays about
        // as well conditioned as an order-8 one, and the residual stays
        // within a tight bound.
        let mut t = random_matrix(n, n, seed);
        let shrink = (8.0 / n as f64).min(1.0);
        for i in 0..n {
            for j in 0..n {
                t[(i, j)] = if j <= i { t[(i, j)] * shrink } else { 0.0 };
            }
            t[(i, i)] = 3.0 + t[(i, i)].abs();
        }
        let b = random_matrix(n, w, seed ^ 1);
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };

        let mut x = b.clone();
        trsm(Side::Left, Uplo::Lower, diag, 1.0, &t, &mut x).unwrap();

        // The residual `B − T·X`, formed by the reference GEMM:
        // independent of the leaf and the recursion it checks.
        let mut t_eff = t.clone();
        if unit {
            for i in 0..n {
                t_eff[(i, i)] = 1.0;
            }
        }
        let mut residual = b.clone();
        naive_gemm(-1.0, Op::NoTrans.of(&t_eff), Op::NoTrans.of(&x), 1.0, &mut residual);
        let tol = 2e-11 * n as f64;
        let worst = residual.as_slice().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        prop_assert!(worst <= tol, "trsm residual {worst:e}: n={n} w={w} unit={unit}");
    }

    #[test]
    fn matmul_is_associative(
        (n, s1, s2, s3) in (1usize..12, any::<u64>(), any::<u64>(), any::<u64>())
    ) {
        let a = random_matrix(n, n, s1);
        let b = random_matrix(n, n, s2);
        let c = random_matrix(n, n, s3);
        let ab_c = &(&a * &b) * &c;
        let a_bc = &a * &(&b * &c);
        prop_assert!(ab_c.approx_eq(&a_bc, 1e-8));
    }

    #[test]
    fn pa_equals_lu((n, seed) in (1usize..40, any::<u64>())) {
        let a = random_well_conditioned(n, seed);
        let f = lu_decompose(&a).unwrap();
        let pa = f.perm.apply_rows(&a);
        prop_assert!(f.reconstruct().approx_eq(&pa, 1e-7 * n as f64));
    }

    #[test]
    fn full_inverse_via_lu_has_small_residual((n, seed) in (1usize..32, any::<u64>())) {
        let a = random_well_conditioned(n, seed);
        let f = lu_decompose(&a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        let a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
        prop_assert!(inversion_residual(&a, &a_inv).unwrap() < 1e-6);
    }

    #[test]
    fn permutation_inverse_composes_to_identity((p, seed) in (arb_perm(40), any::<u64>())) {
        let a = random_matrix(p.len(), 3, seed);
        prop_assert_eq!(p.inverse().apply_rows(&p.apply_rows(&a)), a.clone());
        prop_assert_eq!(p.apply_rows(&p.inverse().apply_rows(&a)), a);
    }

    #[test]
    fn permutation_array_matches_dense((p, seed) in (arb_perm(16), any::<u64>())) {
        let a = random_matrix(p.len(), p.len(), seed);
        prop_assert_eq!(p.apply_rows(&a), &p.to_matrix() * &a);
        prop_assert_eq!(p.apply_cols(&a), &a * &p.to_matrix());
    }

    #[test]
    fn quadrant_split_round_trips((n, split_frac, seed) in (2usize..24, 0.0f64..1.0, any::<u64>())) {
        let a = random_matrix(n, n, seed);
        let split = ((n as f64 * split_frac) as usize).min(n);
        let q = a.split_quadrants(split).unwrap();
        let corners = [(&q.a1, 0, 0), (&q.a2, 0, split), (&q.a3, split, 0), (&q.a4, split, split)];
        let mut back = Matrix::zeros(n, n);
        for (block, r0, c0) in corners {
            let range = BlockRange::new((r0, r0 + block.rows()), (c0, c0 + block.cols()));
            prop_assert_eq!(block, &a.block(range).unwrap());
            back.set_block(r0, c0, block).unwrap();
        }
        prop_assert_eq!(back, a);
    }

    #[test]
    fn block_then_set_block_round_trips(
        (n, r0, r1, c0, c1, seed) in
            (4usize..20, 0usize..20, 0usize..20, 0usize..20, 0usize..20, any::<u64>())
    ) {
        let a = random_matrix(n, n, seed);
        let (r0, r1) = (r0.min(n), r1.min(n));
        let (c0, c1) = (c0.min(n), c1.min(n));
        prop_assume!(r0 <= r1 && c0 <= c1);
        let b = a.block(BlockRange::new((r0, r1), (c0, c1))).unwrap();
        let mut copy = a.clone();
        copy.set_block(r0, c0, &b).unwrap();
        prop_assert_eq!(copy, a);
    }

    #[test]
    fn even_ranges_partition_exactly((n, parts) in (0usize..500, 1usize..40)) {
        let ranges = even_ranges(n, parts);
        prop_assert_eq!(ranges.len(), parts);
        let mut expect_start = 0;
        for &(a, b) in &ranges {
            prop_assert_eq!(a, expect_start);
            prop_assert!(b >= a);
            // Sizes differ by at most one.
            prop_assert!(b - a <= n / parts + 1);
            expect_start = b;
        }
        prop_assert_eq!(expect_start, n);
    }

    #[test]
    fn vstack_of_stripes_rebuilds((n, cut, seed) in (2usize..20, 1usize..19, any::<u64>())) {
        let a = random_matrix(n, n, seed);
        let cut = cut.min(n - 1);
        let mut back = Matrix::zeros(n, n);
        for (r1, r2) in [(0, cut), (cut, n)] {
            let stripe = a.row_stripe(r1, r2).unwrap();
            prop_assert_eq!(&stripe, &a.block(BlockRange::new((r1, r2), (0, n))).unwrap());
            back.set_block(r1, 0, &stripe).unwrap();
        }
        prop_assert_eq!(back, a);
    }
}
