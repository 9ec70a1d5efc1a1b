//! Per-backend kernel performance counters: calls, FLOPs, wall time, and
//! the packing-vs-microkernel time split.
//!
//! Off by default with the tracelog contract: every recording site is
//! gated on one relaxed [`AtomicBool`] load (`is_enabled`), and nothing
//! else runs when disabled — no `Instant::now`, no atomics. When enabled,
//! [`super::gemm_with`] times each call and credits `2·m·k·n` FLOPs to the
//! executing backend's slot, and the packed engine separately accumulates
//! the nanoseconds its workers spend in `pack_a`/`pack_b` — so a
//! [`snapshot`] exposes effective GFLOP/s per backend and how much of the
//! kernel's time went to data movement rather than the microkernel.
//!
//! Counters are process-wide (the kernel engine has no per-cluster state)
//! and use only `std` atomics, keeping this crate dependency-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Slot order for [`slot_index`]: the packed engine's two
/// [`super::GemmBackend::name`] values plus a catch-all for every other
/// backend (a test's oracle, say).
const BACKEND_NAMES: [&str; 3] = ["packed", "packed-serial", "other"];

struct Slot {
    calls: AtomicU64,
    flops: AtomicU64,
    nanos: AtomicU64,
    pack_nanos: AtomicU64,
    par_calls: AtomicU64,
    fallback_calls: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            calls: AtomicU64::new(0),
            flops: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            pack_nanos: AtomicU64::new(0),
            par_calls: AtomicU64::new(0),
            fallback_calls: AtomicU64::new(0),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SLOTS: [Slot; BACKEND_NAMES.len()] = [const { Slot::new() }; BACKEND_NAMES.len()];

fn slot_index(backend: &str) -> usize {
    BACKEND_NAMES
        .iter()
        .position(|&n| n == backend)
        .unwrap_or(BACKEND_NAMES.len() - 1)
}

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
/// `elapsed` to `backend`'s slot. No-op when disabled.
pub(crate) fn record_gemm(backend: &str, flops: u64, elapsed: Duration) {
    if !is_enabled() {
        return;
    }
    let slot = &SLOTS[slot_index(backend)];
    slot.calls.fetch_add(1, Ordering::Relaxed);
    slot.flops.fetch_add(flops, Ordering::Relaxed);
    slot.nanos
        .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// Accumulates packing time onto `backend`'s slot (summed across rayon
/// workers, so it can exceed the call's wall time on parallel backends).
/// No-op when disabled.
pub(crate) fn record_pack(backend: &str, elapsed: Duration) {
    if !is_enabled() {
        return;
    }
    SLOTS[slot_index(backend)]
        .pack_nanos
        .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// Records which path a parallel-capable engine actually took for one
/// call: `parallel = false` means the engine *fell back* to its serial
/// loop (size gate, single-thread pool). Benches use this to refuse to
/// label a serial-fallback run as a parallel result. No-op when disabled.
pub(crate) fn record_packed_path(backend: &str, parallel: bool) {
    if !is_enabled() {
        return;
    }
    let slot = &SLOTS[slot_index(backend)];
    if parallel {
        slot.par_calls.fetch_add(1, Ordering::Relaxed);
    } else {
        slot.fallback_calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// One backend's accumulated counters, as read by [`snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct BackendPerf {
    /// Backend name ([`super::GemmBackend::name`], or `"other"`).
    pub backend: &'static str,
    /// GEMM calls recorded.
    pub calls: u64,
    /// Floating-point operations credited (`2·m·k·n` per call).
    pub flops: u64,
    /// Wall-clock seconds inside [`super::gemm_with`].
    pub secs: f64,
    /// Worker seconds spent packing operand panels (0 for backends that
    /// do not pack).
    pub pack_secs: f64,
    /// Calls that executed the multi-threaded loop nest (only recorded by
    /// parallel-capable engines).
    pub par_calls: u64,
    /// Calls where a parallel-capable engine fell back to its serial loop
    /// (size below the crossover, or a single-thread pool).
    pub fallback_calls: u64,
}

impl BackendPerf {
    /// Effective throughput in GFLOP/s (0 when no time was recorded).
    pub fn gflops(&self) -> f64 {
        if self.secs > 0.0 {
            self.flops as f64 / self.secs / 1e9
        } else {
            0.0
        }
    }
}

/// Counters of every backend that recorded at least one call, in the
/// fixed backend-name order (packed, packed-serial, other).
pub fn snapshot() -> Vec<BackendPerf> {
    BACKEND_NAMES
        .iter()
        .zip(SLOTS.iter())
        .filter_map(|(&backend, slot)| {
            let calls = slot.calls.load(Ordering::Relaxed);
            if calls == 0 {
                return None;
            }
            Some(BackendPerf {
                backend,
                calls,
                flops: slot.flops.load(Ordering::Relaxed),
                secs: slot.nanos.load(Ordering::Relaxed) as f64 / 1e9,
                pack_secs: slot.pack_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                par_calls: slot.par_calls.load(Ordering::Relaxed),
                fallback_calls: slot.fallback_calls.load(Ordering::Relaxed),
            })
        })
        .collect()
}

/// Zeroes every slot (the enabled flag is untouched).
pub fn reset() {
    for slot in &SLOTS {
        slot.calls.store(0, Ordering::Relaxed);
        slot.flops.store(0, Ordering::Relaxed);
        slot.nanos.store(0, Ordering::Relaxed);
        slot.pack_nanos.store(0, Ordering::Relaxed);
        slot.par_calls.store(0, Ordering::Relaxed);
        slot.fallback_calls.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{GemmBackend, MatMut, OpRef, Packed};
    use crate::Matrix;

    /// Serialized via the global flag: these tests mutate process-wide
    /// state, so they run in one test to avoid interleaving.
    #[test]
    fn disabled_records_nothing_and_enabled_accumulates() {
        reset();
        assert!(!is_enabled());
        record_gemm("packed", 1000, Duration::from_millis(1));
        assert!(snapshot().is_empty(), "disabled recording must be a no-op");

        record_packed_path("packed", true);
        assert!(
            snapshot().is_empty(),
            "disabled path recording must be a no-op"
        );

        set_enabled(true);
        record_gemm("packed", 2_000_000_000, Duration::from_secs(1));
        record_gemm("packed", 2_000_000_000, Duration::from_secs(1));
        record_pack("packed", Duration::from_millis(250));
        record_packed_path("packed", true);
        record_packed_path("packed", true);
        record_packed_path("packed", false);
        record_gemm("made-up-backend", 10, Duration::from_millis(1));
        set_enabled(false);

        let snap = snapshot();
        let packed = snap.iter().find(|p| p.backend == "packed").unwrap();
        assert_eq!(packed.calls, 2);
        assert_eq!(packed.flops, 4_000_000_000);
        assert!((packed.secs - 2.0).abs() < 1e-9);
        assert!((packed.pack_secs - 0.25).abs() < 1e-9);
        assert!((packed.gflops() - 2.0).abs() < 1e-9);
        assert_eq!(packed.par_calls, 2);
        assert_eq!(packed.fallback_calls, 1);
        let other = snap.iter().find(|p| p.backend == "other").unwrap();
        assert_eq!(other.calls, 1);

        reset();
        assert!(snapshot().is_empty());

        trsm_zero_observation_cuts_the_gemm_count();
        staircase_product_cuts_the_gemm_count();
        reset();
    }

    /// The packed engine under a backend name no concurrently running test
    /// uses: its calls land in the `"other"` slot.
    struct CountProbe;
    const ENGINE: Packed = Packed { parallel: false };
    impl GemmBackend for CountProbe {
        fn gemm_checked(
            &self,
            alpha: f64,
            a: OpRef<'_>,
            b: OpRef<'_>,
            beta: f64,
            c: MatMut<'_>,
        ) -> crate::Result<()> {
            ENGINE.gemm_checked(alpha, a, b, beta, c)
        }
        fn name(&self) -> &'static str {
            "count-probe"
        }
    }

    /// GEMM flops [`CountProbe`] records while `run` runs.
    fn probe_flops(run: impl FnOnce()) -> u64 {
        reset();
        set_enabled(true);
        run();
        set_enabled(false);
        let snap = snapshot();
        snap.iter().find(|p| p.backend == "other").unwrap().flops
    }

    /// The count behind the pipeline's triangular-inversion saving: on the
    /// n = 768 batch of 384 interleaved unit-basis columns, the coupling
    /// GEMMs restricted to observed-live vectors do at most 0.4 of the
    /// flops of the same solve run dense. Part of the one test above
    /// because it, too, flips the process-wide flag.
    fn trsm_zero_observation_cuts_the_gemm_count() {
        use crate::kernel::packed::Arm;
        use crate::kernel::trsm::trsm_window;
        use crate::kernel::{Diag, Side, Uplo};

        let n = 768;
        let t = Matrix::from_fn(n, n, |i, j| if i == j { 2.0 } else { 1.0 / n as f64 });
        let flops = |observe_zeros: bool| {
            let mut x = Matrix::zeros(n, n / 2);
            for slot in 0..n / 2 {
                x[(2 * slot + 1, slot)] = 1.0;
            }
            probe_flops(|| {
                trsm_window(
                    &CountProbe,
                    Arm::detect(),
                    Side::Left,
                    Uplo::Lower,
                    Diag::NonUnit,
                    observe_zeros,
                    (&t).into(),
                    (&mut x).into(),
                )
                .unwrap()
            })
        };
        let (dense, observed) = (flops(false), flops(true));
        assert!(
            observed as f64 <= 0.4 * dense as f64,
            "observed-zero batch does {observed} GEMM flops, dense {dense}"
        );
    }

    /// The count behind the final product's saving: `U⁻¹·L⁻¹` at n = 768
    /// as a staircase product does at most 0.43 of the dense flops (0.421
    /// with 128-wide tiles; two whole triangles floor it at 1/3).
    fn staircase_product_cuts_the_gemm_count() {
        use crate::kernel::staircase::staircase_with;
        use crate::kernel::{gemm_window, notrans, trans};

        let n = 768;
        // U times L = Uᵀ, with L stored transposed as the reducer has it.
        let u = Matrix::from_fn(n, n, |i, j| if j >= i { 1.0 } else { 0.0 });
        let mut c = Matrix::zeros(n, n);
        let (a, b) = (notrans(&u), trans(&u));
        let dense =
            probe_flops(|| gemm_window(&CountProbe, 1.0, a, b, 0.0, (&mut c).into()).unwrap());
        let stairs =
            probe_flops(|| staircase_with(&CountProbe, a, 0, b, 0, 0, (&mut c).into()).unwrap());
        assert!(
            stairs as f64 <= 0.43 * dense as f64,
            "staircase product does {stairs} GEMM flops, dense {dense}"
        );
    }
}
