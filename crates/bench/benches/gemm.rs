//! GEMM engine bench: the kernel ladder, naive → strided (Eq. 7) →
//! packed (register-blocked microkernel + packed panels), serial and
//! rayon-parallel, at orders 64 / 128 / 256 / 512 / 1024.
//!
//! Besides the criterion groups, the bench takes wall-clock samples
//! (best of 3, via `mrinv_bench::micro`) of every backend at every order
//! and writes a `mrinv-bench/v1` baseline to `BENCH_pr8.json` at the
//! repository root. The sample records, per rung, which loop nest the
//! packed-parallel engine *actually* executed (perf path counters, not
//! assumptions), and a thread-scaling table at caps 1 / 2 / 4 / max.
//! `repro bench-check` regression-gates the tracked metrics against the
//! committed file; `repro gemm-par-check` asserts the parallel-vs-serial
//! ordering on multi-core machines.
//!
//! Parallelism: the rayon pool size is resolved once, at first use. So
//! that a sample taken on a small box still exercises the parallel nest
//! (oversubscribed, but the bitwise-identity contract makes that safe),
//! the bench sets `RAYON_NUM_THREADS = max(4, detected cores)` before
//! the pool spins up — unless the caller already set it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrinv_bench::micro::{
    gemm_ladder, gemm_packed_gflops, gemm_packed_serial_speedup, gemm_parallel_gflops_capped,
    gemm_parallel_vs_serial, measure_gemm_order, GEMM_REFERENCE_MAX_ORDER,
};
use mrinv_bench::schema::{baseline_path, BenchFile};
use mrinv_matrix::kernel::{gemm_with, notrans, GemmBackend};
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::Matrix;
use std::hint::black_box;

const ORDERS: [usize; 5] = [64, 128, 256, 512, 1024];

/// Orders at which the thread-scaling table is sampled.
const SCALING_ORDERS: [usize; 3] = [256, 512, 1024];

/// Thread caps probed for the scaling table (`usize::MAX` = whole pool).
const SCALING_CAPS: [usize; 4] = [1, 2, 4, usize::MAX];

fn force_min_pool() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("RAYON_NUM_THREADS", cores.max(4).to_string());
    }
}

fn run(backend: &dyn GemmBackend, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    gemm_with(backend, 1.0, notrans(a), notrans(b), 0.0, c).unwrap();
}

fn bench_gemm(c: &mut Criterion) {
    force_min_pool();
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    for &n in &ORDERS {
        // Criterion's repeated sampling is too slow for the 1024 rung;
        // the JSON sample below covers it with best-of-3 wall clock.
        if n > 512 {
            continue;
        }
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let mut out = Matrix::zeros(n, n);
        for (name, backend) in gemm_ladder() {
            // The O(n^3) reference kernels dominate bench time past 256;
            // cap them (the JSON sample applies the same cutoff).
            if n > GEMM_REFERENCE_MAX_ORDER && matches!(name, "naive" | "strided_eq7") {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
                bench.iter(|| run(backend.as_ref(), black_box(&a), black_box(&b), &mut out))
            });
        }
    }
    group.finish();

    write_sample();
}

#[derive(serde::Serialize)]
struct KernelDetail {
    kernel: String,
    secs: f64,
    gflops: f64,
    speedup_vs_naive: f64,
    /// Loop nest the call actually took, from the kernel perf path
    /// counters: `parallel`, `serial-fallback`, or `serial`.
    path: String,
}

#[derive(serde::Serialize)]
struct OrderDetail {
    n: usize,
    kernels: Vec<KernelDetail>,
}

#[derive(serde::Serialize)]
struct ScalingPoint {
    n: usize,
    /// Requested thread cap (0 encodes "uncapped / whole pool").
    cap: usize,
    /// Effective thread count the run actually saw under that cap.
    threads: usize,
    gflops: f64,
}

#[derive(serde::Serialize)]
struct GemmDetail {
    orders: Vec<OrderDetail>,
    thread_scaling: Vec<ScalingPoint>,
}

/// Wall-clock sample of the full ladder plus the thread-scaling table,
/// saved as a `mrinv-bench/v1` file to `BENCH_pr8.json`.
fn write_sample() {
    let mut file = BenchFile::new("gemm");
    let mut orders = Vec::new();
    for &n in &ORDERS {
        let points = measure_gemm_order(n);
        for p in &points {
            file.push_metric(
                &format!("{}_gflops_at_{n}", p.kernel),
                p.gflops,
                "gflops",
                false,
            );
        }
        orders.push(OrderDetail {
            n,
            kernels: points
                .iter()
                .map(|p| KernelDetail {
                    kernel: p.kernel.to_string(),
                    secs: p.secs,
                    gflops: p.gflops,
                    speedup_vs_naive: p.speedup_vs_naive,
                    path: p.path.to_string(),
                })
                .collect(),
        });
    }

    let mut thread_scaling = Vec::new();
    for &n in &SCALING_ORDERS {
        for &cap in &SCALING_CAPS {
            let (threads, gflops) = gemm_parallel_gflops_capped(n, cap);
            thread_scaling.push(ScalingPoint {
                n,
                cap: if cap == usize::MAX { 0 } else { cap },
                threads,
                gflops,
            });
        }
    }

    // Tracked metrics are re-measured through the very same functions
    // `repro bench-check` calls, so baseline and gate price identical
    // code. The GFLOP/s metrics are machine-absolute by design (the
    // point of this PR is raw packed throughput, serial and parallel);
    // the ratios survive hardware changes.
    for &n in &[256usize, 512] {
        file.push_metric(
            &format!("packed_serial_gflops_at_{n}"),
            gemm_packed_gflops(n, false),
            "gflops",
            true,
        );
        file.push_metric(
            &format!("packed_parallel_gflops_at_{n}"),
            gemm_packed_gflops(n, true),
            "gflops",
            true,
        );
    }
    let par_vs_serial_512 = gemm_parallel_vs_serial(512);
    file.push_metric(
        "packed_parallel_vs_serial_at_512",
        par_vs_serial_512,
        "ratio",
        true,
    );
    let speedup_512 = gemm_packed_serial_speedup(512);
    file.push_metric(
        "packed_serial_speedup_vs_naive_at_512",
        speedup_512,
        "ratio",
        true,
    );
    file.detail = serde_json::to_value(&GemmDetail {
        orders,
        thread_scaling,
    });

    let path = baseline_path("BENCH_pr8.json");
    if let Err(e) = file.save(&path) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!(
            "gemm sample on {} cores / {} threads: packed-serial {speedup_512:.2}x vs naive, \
             parallel/serial {par_vs_serial_512:.2}x at 512 -> BENCH_pr8.json",
            file.cores,
            file.threads.unwrap_or(1),
        );
    }
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
