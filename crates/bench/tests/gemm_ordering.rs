//! Multi-threaded ordering gate: with at least two cores and two
//! effective pool threads, the packed engine on a pool of 2 (its parallel
//! nest) must not be slower than on a pool capped at 1 (its serial nest)
//! at n >= 256 (5% noise allowance). On a single-core machine or a capped
//! pool the ordering is undefined (oversubscription prices the same work
//! on one core), so the test passes without measuring there. A timing,
//! hence ignored by default; run it on a multi-core machine with
//! `RAYON_NUM_THREADS=2 cargo test --release -p mrinv-bench --test gemm_ordering -- --ignored`.

use mrinv_matrix::kernel::{gemm, notrans};
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Serial / parallel wall-clock ratio of the packed engine for one
/// `n x n x n` product (best of 9 each, same buffers), pool capped at 1
/// against a pool of 2: > 1 means the parallel nest wins. Best-of-9 rides
/// out the lost scheduling quanta a shared runner sees; one 512³ product
/// is ~10 ms.
fn gemm_parallel_vs_serial(n: usize) -> f64 {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    let mut best_secs = |threads: usize| {
        let previous = rayon::set_thread_cap(threads);
        let best = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                gemm(
                    1.0,
                    notrans(black_box(&a)),
                    notrans(black_box(&b)),
                    0.0,
                    &mut out,
                )
                .expect("square operands");
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        rayon::set_thread_cap(previous);
        best
    };
    let serial = best_secs(1);
    serial / best_secs(2)
}

#[test]
#[ignore = "a wall-clock timing; needs >= 2 cores and RAYON_NUM_THREADS >= 2"]
fn parallel_packed_gemm_is_not_slower_than_serial() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = rayon::current_num_threads();
    if cores < 2 || threads < 2 {
        eprintln!(
            "SKIPPED: {cores} core(s), {threads} effective pool thread(s); needs >= 2 of \
             each (set RAYON_NUM_THREADS >= 2 on a multi-core machine)"
        );
        return;
    }
    let ratios: Vec<(usize, f64)> = [256usize, 512]
        .into_iter()
        .map(|n| (n, gemm_parallel_vs_serial(n)))
        .collect();
    eprintln!("serial/parallel time by n: {ratios:?}");
    assert!(
        ratios.iter().all(|&(_, ratio)| ratio >= 0.95),
        "parallel packed nest slower than serial on a multi-threaded pool \
         (serial/parallel by n: {ratios:?}; see DESIGN.md section 4b)"
    );
}
