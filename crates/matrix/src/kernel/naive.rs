//! Reference backend: the seed pipeline's exact loop orders ([`Naive`]).
//!
//! [`Naive`] is the differential-testing oracle: its summation orders are
//! bit-identical to the pre-engine `mul_naive`/`mul_transposed`/`sub_mul*`
//! kernels for the `(alpha, beta)` pairs the pipeline uses (`(1, 0)` for a
//! fresh product, `(-1, 1)` for the fused subtract-update). That identity
//! relies only on IEEE-754 guarantees: `1.0 * x == x`, `-1.0 * x == -x`,
//! and `c + (-x) == c - x`, all bitwise.

use super::{scale_by_beta, GemmBackend, MatMut, Op, OpRef, Result};

/// Four-way unrolled dot product — the Section 6.3 inner kernel.
///
/// Lets LLVM vectorize without reassociation flags and reduces rounding
/// drift vs a single chain. The exact split (`(s0+s1)+(s2+s3)+tail`) is
/// part of the [`Naive`](super::Naive) backend's bit-identity contract.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4 * 4;
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    let mut i = 0;
    while i < chunks {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut tail = 0.0;
    while i < a.len() {
        tail += a[i] * b[i];
        i += 1;
    }
    (s0 + s1) + (s2 + s3) + tail
}

impl GemmBackend for super::Naive {
    fn gemm_checked(
        &self,
        alpha: f64,
        a: OpRef<'_>,
        b: OpRef<'_>,
        beta: f64,
        mut c: MatMut<'_>,
    ) -> Result<()> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        scale_by_beta(&mut c, beta);
        match (a.op(), b.op()) {
            (Op::NoTrans, Op::NoTrans) => {
                // i-k-j, inner loop streaming one row of B: the old
                // `mul_naive` (alpha = 1) / `sub_mul` (alpha = -1) order.
                for i in 0..m {
                    let arow = a.stored_row(i);
                    let crow = c.row_mut(i);
                    for (p, &apv) in arow.iter().enumerate().take(k) {
                        let s = alpha * apv;
                        let brow = b.stored_row(p);
                        for j in 0..n {
                            crow[j] += s * brow[j];
                        }
                    }
                }
            }
            (Op::NoTrans, Op::Trans) => {
                // Unrolled dot products over rows of A and rows of the
                // stored Bᵀ: the old `mul_transposed` / `sub_mul_transposed`
                // order (Section 6.3 layout).
                let assign = alpha == 1.0 && beta == 0.0;
                for i in 0..m {
                    let arow = a.stored_row(i);
                    let crow = c.row_mut(i);
                    for j in 0..n {
                        let d = dot(arow, b.stored_row(j));
                        if assign {
                            // Plain store, so a -0.0 dot survives (0.0 + -0.0
                            // would round it to +0.0).
                            crow[j] = d;
                        } else {
                            crow[j] += alpha * d;
                        }
                    }
                }
            }
            _ => {
                // Transposed-A shapes have no legacy counterpart; plain
                // i-k-j over logical elements.
                for i in 0..m {
                    let crow = c.row_mut(i);
                    for p in 0..k {
                        let s = alpha * a.at(i, p);
                        for j in 0..n {
                            crow[j] += s * b.at(p, j);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}
