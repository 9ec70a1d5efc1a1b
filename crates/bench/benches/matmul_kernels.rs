//! Kernel-level ablation for the Section 6.3 claim: transposed-B storage
//! speeds multiplication 2-3x over the naive row-major x row-major layout.
//!
//! All variants run through the unified `gemm` surface with an explicit
//! backend/op combination, so the comparison isolates loop order and
//! layout rather than API overhead. The engine itself (packing + register
//! blocking) is measured by the benchmark's `kernel.gemm_gflops_*`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrinv_matrix::kernel::{gemm_with, notrans, trans, GemmBackend, Naive, Strided};
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::Matrix;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_kernels");
    group.sample_size(10);
    for &n in &[128usize, 384] {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let b_t = b.transpose();
        let mut out = Matrix::zeros(n, n);
        group.bench_with_input(BenchmarkId::new("eq7_column_stride", n), &n, |bench, _| {
            bench.iter(|| {
                gemm_with(
                    &Strided,
                    1.0,
                    notrans(black_box(&a)),
                    notrans(black_box(&b)),
                    0.0,
                    &mut out,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("ikj_row_major", n), &n, |bench, _| {
            bench.iter(|| {
                gemm_with(
                    &Naive,
                    1.0,
                    notrans(black_box(&a)),
                    notrans(black_box(&b)),
                    0.0,
                    &mut out,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("transposed_sec63", n), &n, |bench, _| {
            bench.iter(|| {
                gemm_with(
                    &Naive,
                    1.0,
                    notrans(black_box(&a)),
                    trans(black_box(&b_t)),
                    0.0,
                    &mut out,
                )
                .unwrap()
            })
        });
        let packed: &dyn GemmBackend = &mrinv_matrix::kernel::Packed { parallel: true };
        group.bench_with_input(
            BenchmarkId::new("parallel_transposed", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    gemm_with(
                        packed,
                        1.0,
                        notrans(black_box(&a)),
                        trans(black_box(&b_t)),
                        0.0,
                        &mut out,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_matmul);
criterion_main!(benches);
