//! Kernel performance counters: calls, FLOPs, wall time, and the
//! packing-vs-microkernel time split.
//!
//! Off by default with the tracelog contract: every recording site is
//! gated on one relaxed [`AtomicBool`] load (`is_enabled`), and nothing
//! else runs when disabled — no `Instant::now`, no atomics. When enabled,
//! the packed engine's one entry point times each call and credits the
//! FLOPs it ran (`2·m·k·n` for a dense product), and the engine separately
//! accumulates the nanoseconds its workers spend packing operands — so
//! a [`snapshot`] exposes effective GFLOP/s and how much of the kernel's
//! time went to data movement rather than the microkernel.
//!
//! Counters are process-wide (the kernel engine has no per-cluster state)
//! and use only `std` atomics, keeping this crate dependency-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static FLOPS: AtomicU64 = AtomicU64::new(0);
static NANOS: AtomicU64 = AtomicU64::new(0);
static PACK_NANOS: AtomicU64 = AtomicU64::new(0);
static PACKED: AtomicU64 = AtomicU64::new(0);
static PAR_CALLS: AtomicU64 = AtomicU64::new(0);
static FALLBACK_CALLS: AtomicU64 = AtomicU64::new(0);

/// Turns recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether kernel perf counters are recording. One relaxed load — this is
/// the whole disabled-path cost, and recording sites must check it before
/// reading any clock.
#[inline]
pub(crate) fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Credits one GEMM call of `flops` floating-point operations taking
/// `elapsed`. No-op when disabled.
pub(crate) fn record_gemm(flops: u64, elapsed: Duration) {
    if !is_enabled() {
        return;
    }
    CALLS.fetch_add(1, Ordering::Relaxed);
    FLOPS.fetch_add(flops, Ordering::Relaxed);
    NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// Accumulates one packing pass, `elements` written in `elapsed` (summed
/// across rayon workers, so the time can exceed the call's wall time on
/// the parallel nest). No-op when disabled.
pub(crate) fn record_pack(elapsed: Duration, elements: usize) {
    if !is_enabled() {
        return;
    }
    PACK_NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    PACKED.fetch_add(elements as u64, Ordering::Relaxed);
}

/// Records which loop nest the engine actually took for one call:
/// `parallel = false` means it *fell back* to its serial nest (size gate,
/// single-thread pool). Benches use this to refuse to label a
/// serial-fallback run as a parallel result. No-op when disabled.
pub(crate) fn record_packed_path(parallel: bool) {
    if !is_enabled() {
        return;
    }
    let path = if parallel {
        &PAR_CALLS
    } else {
        &FALLBACK_CALLS
    };
    path.fetch_add(1, Ordering::Relaxed);
}

/// The accumulated counters, as read by [`snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPerf {
    /// GEMM calls recorded.
    pub calls: u64,
    /// Floating-point operations credited: two per multiply-add the
    /// engine ran (`2·m·k·n` for a dense product).
    pub flops: u64,
    /// Wall-clock seconds inside the engine.
    pub secs: f64,
    /// Worker seconds spent packing operand panels.
    pub pack_secs: f64,
    /// Operand elements written into packed panels, zero padding included.
    pub packed: u64,
    /// Calls that executed the multi-threaded loop nest.
    pub par_calls: u64,
    /// Calls that fell back to the serial loop nest (size below the
    /// crossover, or a single-thread pool).
    pub fallback_calls: u64,
}

impl KernelPerf {
    /// Effective throughput in GFLOP/s (0 when no time was recorded).
    pub fn gflops(&self) -> f64 {
        if self.secs > 0.0 {
            self.flops as f64 / self.secs / 1e9
        } else {
            0.0
        }
    }
}

/// The counters, or `None` while no call has been recorded since the
/// last [`reset`].
pub fn snapshot() -> Option<KernelPerf> {
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let calls = load(&CALLS);
    (calls > 0).then(|| KernelPerf {
        calls,
        flops: load(&FLOPS),
        secs: load(&NANOS) as f64 / 1e9,
        pack_secs: load(&PACK_NANOS) as f64 / 1e9,
        packed: load(&PACKED),
        par_calls: load(&PAR_CALLS),
        fallback_calls: load(&FALLBACK_CALLS),
    })
}

/// Zeroes every counter (the enabled flag is untouched).
pub fn reset() {
    for counter in [
        &CALLS,
        &FLOPS,
        &NANOS,
        &PACK_NANOS,
        &PACKED,
        &PAR_CALLS,
        &FALLBACK_CALLS,
    ] {
        counter.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::packed::{Arm, Stairs, Steps};
    use crate::kernel::{engine, gemm_flops, notrans, trans};
    use crate::Matrix;

    /// Serialized via the global flag: these checks mutate process-wide
    /// state, so they run in one test to avoid interleaving.
    #[test]
    fn disabled_records_nothing_and_enabled_accumulates() {
        reset();
        assert!(!is_enabled());
        record_gemm(1000, Duration::from_millis(1));
        assert_eq!(snapshot(), None, "disabled recording must be a no-op");

        record_packed_path(true);
        assert_eq!(snapshot(), None, "disabled path recording must be a no-op");

        set_enabled(true);
        record_gemm(2_000_000_000, Duration::from_secs(1));
        record_gemm(2_000_000_000, Duration::from_secs(1));
        record_pack(Duration::from_millis(250), 64);
        record_packed_path(true);
        record_packed_path(true);
        record_packed_path(false);
        set_enabled(false);

        let packed = snapshot().unwrap();
        assert_eq!(packed.calls, 2);
        assert_eq!(packed.flops, 4_000_000_000);
        assert!((packed.secs - 2.0).abs() < 1e-9);
        assert!((packed.pack_secs - 0.25).abs() < 1e-9);
        assert_eq!(packed.packed, 64);
        assert!((packed.gflops() - 2.0).abs() < 1e-9);
        assert_eq!(packed.par_calls, 2);
        assert_eq!(packed.fallback_calls, 1);

        reset();
        assert_eq!(snapshot(), None);
    }

    /// The count behind the pipeline's triangular-inversion saving: on the
    /// n = 768 batch of 384 interleaved unit-basis columns, the coupling
    /// GEMMs over the terms where each vector can be nonzero do at most
    /// 0.345 of the multiply-adds of the same solve run dense (0.339: each
    /// vector tile starts at its first live term; 0.361 while runs of
    /// vectors started at a leaf boundary).
    #[test]
    fn trsm_zero_observation_cuts_the_gemm_count() {
        use crate::kernel::trsm::trsm_window;
        use crate::kernel::Diag;

        let n = 768;
        let t = Matrix::from_fn(n, n, |i, j| if i == j { 2.0 } else { 1.0 / n as f64 });
        let madds = |observe_zeros: bool| {
            let mut x = Matrix::zeros(n, n / 2);
            for slot in 0..n / 2 {
                x[(2 * slot + 1, slot)] = 1.0;
            }
            trsm_window(
                Arm::detect(),
                Diag::NonUnit,
                observe_zeros,
                (&t).into(),
                (&mut x).into(),
            )
            .unwrap()
        };
        let (dense, observed) = (madds(false), madds(true));
        println!(
            "observed / dense multiply-adds: {}",
            observed as f64 / dense as f64
        );
        assert!(
            observed as f64 <= 0.345 * dense as f64,
            "observed-zero batch does {observed} GEMM multiply-adds, dense {dense}"
        );
    }

    /// The count behind the final product's saving: `U⁻¹·L⁻¹` at n = 768
    /// as a staircase product runs at most 0.345 of the dense flops (0.340:
    /// each microtile starts at the first term of its first row and
    /// column; two whole triangles floor it at 1/3).
    #[test]
    fn staircase_product_cuts_the_flop_count() {
        let n = 768;
        // U times L = Uᵀ, with L stored transposed as the reducer has it.
        let u = Matrix::from_fn(n, n, |i, j| if j >= i { 1.0 } else { 0.0 });
        let mut c = Matrix::zeros(n, n);
        let (a, b) = (notrans(&u), trans(&u));
        let stairs = Stairs {
            a: Steps::From(0),
            b: Steps::From(0),
            origin: 0,
        };
        let madds = engine(Arm::detect(), 1.0, a, b, 0.0, stairs, (&mut c).into()).unwrap();
        let (stairs, dense) = (2 * madds, gemm_flops(n, n, n));
        println!("staircase / dense flops: {}", stairs as f64 / dense as f64);
        assert!(
            stairs as f64 <= 0.345 * dense as f64,
            "staircase product runs {stairs} flops, dense {dense}"
        );
    }
}
