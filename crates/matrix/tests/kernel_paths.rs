//! The packed engine's perf path counters must label which loop nest
//! actually executed, so a serial fallback can never masquerade as a
//! parallel result (the `packed_parallel_gflops_at_64` bug).
//!
//! Runs as its own test binary with a single test: the counters and the
//! rayon pool are process-global, and this is the only way to control
//! the environment they are initialized from.

use mrinv_matrix::kernel::{gemm, notrans, perf};
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::{gemm_flops, Matrix};

#[test]
fn packed_path_counters_label_fallback_vs_parallel() {
    // Pin (absent an explicit override) a 2-thread pool before anything
    // touches the kernel: its width is resolved once per process on first
    // use.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "2");
    }
    let threads = rayon::current_num_threads();

    perf::reset();
    perf::set_enabled(true);
    let run = |n: usize| {
        let a = random_matrix(n, n, 40);
        let b = random_matrix(n, n, 41);
        let mut c = Matrix::zeros(n, n);
        gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut c).unwrap();
    };
    // 64³ = 262144 multiply-adds: below the default crossover → fallback.
    run(64);
    // 160³ ≈ 4.1M: above the crossover → parallel iff the pool has >1 thread.
    run(160);
    perf::set_enabled(false);

    let packed = perf::snapshot().unwrap();
    assert_eq!(packed.calls, 2, "one recorded call per product");
    assert_eq!(
        packed.flops,
        gemm_flops(64, 64, 64) + gemm_flops(160, 160, 160),
        "the engine credits two flops per multiply-add it runs"
    );
    assert_eq!(
        packed.par_calls + packed.fallback_calls,
        2,
        "every parallel-capable call must be labeled"
    );
    if threads > 1 {
        assert_eq!(packed.fallback_calls, 1, "n=64 must be labeled fallback");
        assert_eq!(packed.par_calls, 1, "n=160 must be labeled parallel");
    } else {
        assert_eq!(
            packed.fallback_calls, 2,
            "a single-thread pool must label every call fallback"
        );
    }
    perf::reset();
}
