//! Shared wall-clock microbench measurements.
//!
//! The Criterion benches (`benches/gemm.rs`, `benches/shuffle.rs`) and
//! the `repro bench-check` regression gate must price *exactly* the same
//! code paths, or the committed baselines and the check would drift
//! apart. Both call into this module: the workload builders, the
//! old-vs-new data paths, and the best-of-3 sampler live here once.

use mrinv_mapreduce::job::hash_partitioner;
use mrinv_mapreduce::shuffle::{parallel_shuffle, partition_pairs, reference_shuffle};
use mrinv_matrix::kernel::{gemm_flops, gemm_with, notrans, GemmBackend, Naive, Packed, Strided};
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall-clock of `f`, in seconds.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-3 wall-clock of `f`, in seconds.
pub fn best3(f: impl FnMut()) -> f64 {
    best_of(3, f)
}

/// Sample count for the regression-gated GEMM metrics. A single 512^3
/// product costs ~10ms, so taking the best of 9 is cheap and rides out
/// scheduling noise that best-of-3 cannot (a shared box can lose three
/// consecutive quanta, which is exactly what a tracked metric must not
/// be sensitive to).
pub const TRACKED_GEMM_REPS: usize = 9;

// ---------------------------------------------------------------------
// GEMM ladder
// ---------------------------------------------------------------------

/// The kernel ladder benched by `benches/gemm.rs`, worst to best.
pub fn gemm_ladder() -> Vec<(&'static str, Box<dyn GemmBackend>)> {
    vec![
        ("naive", Box::new(Naive)),
        ("strided_eq7", Box::new(Strided)),
        ("packed_serial", Box::new(Packed { parallel: false })),
        ("packed_parallel", Box::new(Packed { parallel: true })),
    ]
}

/// One kernel's sample at one order.
#[derive(Debug, Clone)]
pub struct GemmPoint {
    /// Ladder rung name.
    pub kernel: &'static str,
    /// Best-of-3 seconds for one `n x n x n` GEMM.
    pub secs: f64,
    /// Effective GFLOP/s.
    pub gflops: f64,
    /// Speedup over the `naive` rung at the same order (0.0 when the
    /// naive reference was skipped at this order).
    pub speedup_vs_naive: f64,
    /// Which loop nest actually executed: `"serial"` for the inherently
    /// serial rungs, and — asserted via the `kernel::perf` path counters,
    /// never assumed — `"parallel"` or `"serial-fallback"` for the
    /// parallel-capable rung. A fallback can no longer masquerade as a
    /// parallel win.
    pub path: &'static str,
}

/// The largest order the O(n³)-reference rungs (`naive`, `strided_eq7`)
/// are sampled at; above it they would dominate bench wall-clock.
pub const GEMM_REFERENCE_MAX_ORDER: usize = 256;

/// The full ladder sampled at one order (best of 3 per rung). Above
/// [`GEMM_REFERENCE_MAX_ORDER`] the reference rungs are skipped and
/// `speedup_vs_naive` reads 0.0.
pub fn measure_gemm_order(n: usize) -> Vec<GemmPoint> {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    let flops = gemm_flops(n, n, n) as f64;
    let mut naive_secs = f64::NAN;
    let mut points = Vec::new();
    for (name, backend) in gemm_ladder() {
        if n > GEMM_REFERENCE_MAX_ORDER && matches!(name, "naive" | "strided_eq7") {
            continue;
        }
        let secs = best3(|| {
            gemm_with(
                backend.as_ref(),
                1.0,
                notrans(black_box(&a)),
                notrans(black_box(&b)),
                0.0,
                &mut out,
            )
            .unwrap()
        });
        if name == "naive" {
            naive_secs = secs;
        }
        points.push(GemmPoint {
            kernel: name,
            secs,
            gflops: flops / secs / 1e9,
            speedup_vs_naive: if naive_secs.is_finite() {
                naive_secs / secs
            } else {
                0.0
            },
            path: if name == "packed_parallel" {
                packed_parallel_path_label(n)
            } else {
                "serial"
            },
        });
    }
    points
}

fn packed_path_counters() -> (u64, u64) {
    mrinv_matrix::kernel::perf::snapshot()
        .iter()
        .find(|p| p.backend == "packed")
        .map_or((0, 0), |p| (p.par_calls, p.fallback_calls))
}

/// Which loop nest `Packed { parallel: true }` actually executes for an
/// `n x n x n` product, asserted via the kernel perf path counters (one
/// instrumented call): `"parallel"` or `"serial-fallback"`.
///
/// The counters are process-global, so probes are serialized and a read
/// only counts when exactly this probe's one call landed between the two
/// snapshots — concurrent instrumented gemm calls (parallel test
/// harnesses) just trigger a retry.
pub fn packed_parallel_path_label(n: usize) -> &'static str {
    use mrinv_matrix::kernel::perf;
    use std::sync::Mutex;
    static PROBE: Mutex<()> = Mutex::new(());
    let _serialize = PROBE.lock().unwrap();

    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    for _ in 0..32 {
        let was = perf::is_enabled();
        perf::set_enabled(true);
        let (par0, fb0) = packed_path_counters();
        gemm_with(
            &Packed { parallel: true },
            1.0,
            notrans(&a),
            notrans(&b),
            0.0,
            &mut out,
        )
        .unwrap();
        let (par1, fb1) = packed_path_counters();
        perf::set_enabled(was);
        match (par1 - par0, fb1 - fb0) {
            (1, 0) => return "parallel",
            (0, 1) => return "serial-fallback",
            _ => continue,
        }
    }
    "unknown"
}

/// GFLOP/s of the packed engine (serial or parallel-capable) for an
/// `n x n x n` product, best of [`TRACKED_GEMM_REPS`] — the tracked
/// absolute-throughput metrics.
pub fn gemm_packed_gflops(n: usize, parallel: bool) -> f64 {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    let secs = best_of(TRACKED_GEMM_REPS, || {
        gemm_with(
            &Packed { parallel },
            1.0,
            notrans(black_box(&a)),
            notrans(black_box(&b)),
            0.0,
            &mut out,
        )
        .unwrap()
    });
    gemm_flops(n, n, n) as f64 / secs / 1e9
}

/// The tracked parallel/serial ratio at order `n`: > 1 means the parallel
/// nest wins (machine-relative, so it survives hardware changes better
/// than absolute GFLOP/s).
pub fn gemm_parallel_vs_serial(n: usize) -> f64 {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    let mut time = |parallel: bool| {
        best_of(TRACKED_GEMM_REPS, || {
            gemm_with(
                &Packed { parallel },
                1.0,
                notrans(black_box(&a)),
                notrans(black_box(&b)),
                0.0,
                &mut out,
            )
            .unwrap()
        })
    };
    let serial = time(false);
    let parallel = time(true);
    serial / parallel
}

/// GFLOP/s of the parallel packed engine at order `n` with the effective
/// thread count capped at `cap` (the pool itself is untouched). Returns
/// `(effective_threads, gflops)` — the thread-scaling ladder rows.
pub fn gemm_parallel_gflops_capped(n: usize, cap: usize) -> (usize, f64) {
    let prev = rayon::set_thread_cap(cap);
    let effective = rayon::current_num_threads();
    let gflops = gemm_packed_gflops(n, true);
    rayon::set_thread_cap(prev);
    (effective, gflops)
}

/// The tracked GEMM metric: packed-serial speedup over naive at order
/// `n` (best of [`TRACKED_GEMM_REPS`] each, same buffers).
pub fn gemm_packed_serial_speedup(n: usize) -> f64 {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    let mut time = |backend: &dyn GemmBackend| {
        best_of(TRACKED_GEMM_REPS, || {
            gemm_with(
                backend,
                1.0,
                notrans(black_box(&a)),
                notrans(black_box(&b)),
                0.0,
                &mut out,
            )
            .unwrap()
        })
    };
    let naive = time(&Naive);
    let packed = time(&Packed { parallel: false });
    naive / packed
}

// ---------------------------------------------------------------------
// Shuffle data paths
// ---------------------------------------------------------------------

/// Map-task count of the shuffle workloads.
pub const SHUFFLE_TASKS: usize = 32;
/// Reducer count of the shuffle workloads.
pub const SHUFFLE_REDUCERS: usize = 16;
/// Pairs per task in the `control` workload.
pub const CONTROL_PAIRS: usize = 20_000;
/// Pairs per task in the `blocks` workload.
pub const BLOCK_PAIRS: usize = 2_000;
/// Payload length in the `blocks` workload.
pub const BLOCK_LEN: usize = 32;

/// Scatters keys across the space so the per-reducer sorts see unordered
/// input.
fn scatter(t: u64, i: u64) -> u64 {
    (t + i).wrapping_mul(2654435761) % 4096
}

/// The `control` workload: tiny `u64` pairs, isolating the shuffle's
/// sort parallelism.
pub fn control_outputs() -> Vec<Vec<(u64, u64)>> {
    (0..SHUFFLE_TASKS as u64)
        .map(|t| {
            (0..CONTROL_PAIRS as u64)
                .map(|i| (scatter(t, i), t * 1_000_000 + i))
                .collect()
        })
        .collect()
}

/// The `blocks` workload: `Vec<u64>` payloads, where per-group value
/// cloning costs real wall-clock on any core count.
pub fn block_outputs() -> Vec<Vec<(u64, Vec<u64>)>> {
    (0..SHUFFLE_TASKS as u64)
        .map(|t| {
            (0..BLOCK_PAIRS as u64)
                .map(|i| (scatter(t, i), vec![t * 1_000_000 + i; BLOCK_LEN]))
                .collect()
        })
        .collect()
}

/// The pre-PR-3 data path: one thread routes every pair and sorts every
/// partition, then each group's values are cloned into a fresh `Vec`
/// before being consumed — exactly the old runner's reduce loop.
pub fn shuffle_old_path<V: Clone>(tasks: &[Vec<(u64, V)>], consume: impl Fn(&[V]) -> u64) -> u64 {
    let sorted = reference_shuffle(tasks.to_vec(), hash_partitioner::<u64>, SHUFFLE_REDUCERS);
    let mut acc = 0u64;
    for part in &sorted {
        let keys = part.keys();
        let vals = part.values();
        let mut i = 0;
        while i < keys.len() {
            let mut j = i + 1;
            while j < keys.len() && keys[j] == keys[i] {
                j += 1;
            }
            let group: Vec<V> = vals[i..j].to_vec();
            acc = acc.wrapping_add(consume(&group));
            i = j;
        }
    }
    acc
}

/// The current data path: pairs are pre-bucketed per reducer (as the map
/// tasks now do), merged and sorted one rayon work item per reducer, and
/// each group is consumed as a borrowed slice — no value is cloned.
pub fn shuffle_new_path<V: Clone + Send>(
    tasks: &[Vec<(u64, V)>],
    consume: impl Fn(&[V]) -> u64,
) -> u64 {
    let buckets = tasks
        .iter()
        .cloned()
        .map(|pairs| partition_pairs(pairs, hash_partitioner::<u64>, SHUFFLE_REDUCERS))
        .collect();
    let sorted = parallel_shuffle(buckets, SHUFFLE_REDUCERS);
    let mut acc = 0u64;
    for part in &sorted {
        for (_key, group) in part.groups() {
            acc = acc.wrapping_add(consume(group));
        }
    }
    acc
}

/// Group consumer for the `control` workload.
pub fn consume_u64(vs: &[u64]) -> u64 {
    vs.iter().fold(0u64, |a, &v| a.wrapping_add(v))
}

/// Group consumer for the `blocks` workload.
pub fn consume_blocks(vs: &[Vec<u64>]) -> u64 {
    vs.iter()
        .map(|b| b.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
        .fold(0u64, |a, v| a.wrapping_add(v))
}

/// Best-of-3 seconds for old and new paths on both shuffle workloads.
#[derive(Debug, Clone)]
pub struct ShuffleSample {
    /// `control`, old single-thread path.
    pub control_old: f64,
    /// `control`, new parallel path.
    pub control_new: f64,
    /// `blocks`, old clone-groups path.
    pub blocks_old: f64,
    /// `blocks`, new borrowed-groups path.
    pub blocks_new: f64,
}

impl ShuffleSample {
    /// Speedup of the new path on the `control` workload (core-count
    /// dependent — not regression-tracked).
    pub fn control_speedup(&self) -> f64 {
        self.control_old / self.control_new
    }

    /// Speedup of the new path on the `blocks` workload (clone
    /// avoidance — holds on any core count, regression-tracked).
    pub fn blocks_speedup(&self) -> f64 {
        self.blocks_old / self.blocks_new
    }
}

/// Samples both shuffle paths on both workloads (best of 3 each).
pub fn measure_shuffle() -> ShuffleSample {
    let control = control_outputs();
    let blocks = block_outputs();
    ShuffleSample {
        control_old: best3(|| {
            black_box(shuffle_old_path(&control, consume_u64));
        }),
        control_new: best3(|| {
            black_box(shuffle_new_path(&control, consume_u64));
        }),
        blocks_old: best3(|| {
            black_box(shuffle_old_path(&blocks, consume_blocks));
        }),
        blocks_new: best3(|| {
            black_box(shuffle_new_path(&blocks, consume_blocks));
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_shuffle_paths_agree() {
        let control = control_outputs();
        let blocks = block_outputs();
        assert_eq!(
            shuffle_old_path(&control, consume_u64),
            shuffle_new_path(&control, consume_u64)
        );
        assert_eq!(
            shuffle_old_path(&blocks, consume_blocks),
            shuffle_new_path(&blocks, consume_blocks)
        );
    }

    #[test]
    fn gemm_ladder_measures_every_rung() {
        let points = measure_gemm_order(32);
        assert_eq!(points.len(), gemm_ladder().len());
        assert!((points[0].speedup_vs_naive - 1.0).abs() < 1e-12);
        for p in &points {
            assert!(p.secs > 0.0 && p.gflops > 0.0, "{p:?}");
        }
        // n=32 is far below the crossover: the parallel-capable rung must
        // be labeled as the fallback it is, not as a parallel win.
        let par = points
            .iter()
            .find(|p| p.kernel == "packed_parallel")
            .unwrap();
        assert_eq!(par.path, "serial-fallback");
        assert!(points
            .iter()
            .filter(|p| p.kernel != "packed_parallel")
            .all(|p| p.path == "serial"));
    }

    #[test]
    fn gemm_ladder_skips_reference_rungs_above_cap() {
        let points = measure_gemm_order(GEMM_REFERENCE_MAX_ORDER + 64);
        assert!(points.iter().all(|p| p.kernel != "naive"));
        assert!(points.iter().all(|p| p.speedup_vs_naive == 0.0));
        assert_eq!(points.len(), gemm_ladder().len() - 2);
    }

    #[test]
    fn capped_parallel_sample_reports_effective_threads() {
        let (threads, gflops) = gemm_parallel_gflops_capped(48, 1);
        assert_eq!(threads, 1);
        assert!(gflops > 0.0);
    }
}
