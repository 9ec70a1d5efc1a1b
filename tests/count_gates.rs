//! Count gates: what one cold run does, by count. Jobs, task attempts,
//! DFS files and bytes, GEMM flops and packed operand elements repeat
//! exactly from run to run (the input's values move none of them), so
//! they gate a change without a timing's noise. Each of the first two
//! tests is one of the benchmark's traced cold inverts on 4 medium nodes;
//! the third checks that a cache hit runs no engine call at all.
//!
//! `kernel::perf`'s counters are process-wide, so the tests of this binary
//! take turns on one lock and nothing else may run beside them.

use std::sync::Mutex;

use mrinv::{CacheStatus, FactorCache, Request};
use mrinv_mapreduce::{Cluster, ClusterConfig, RunReport};
use mrinv_matrix::kernel::perf;
use mrinv_matrix::random::random_well_conditioned;
use mrinv_matrix::PAPER_ACCURACY;

/// Held for the whole of each test: one cold invert counts at a time.
static PERF: Mutex<()> = Mutex::new(());

/// What one traced cold invert of order `n`, block bound `nb` did.
struct Counts {
    report: RunReport,
    /// Task attempts, as the registry counted them.
    tasks: u64,
    /// DFS files written.
    files: u64,
    /// Calls into the GEMM engine.
    calls: u64,
    /// Floating-point operations the GEMM engine ran.
    flops: u64,
    /// Operand elements the GEMM engine packed.
    packed: u64,
}

/// The [`Counts`] of one traced cold invert of order `n`, block bound
/// `nb`. It runs at pool width 1: the parallel nest's column splits
/// repack `A` once per split, so the packed count would follow the host.
fn cold_invert_counts(n: usize, nb: usize) -> Counts {
    let _turn = PERF.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let previous = rayon::set_thread_cap(1);
    let mut config = ClusterConfig::medium(4);
    config.observability = true;
    config.tracing = true;
    let cluster = Cluster::new(config);
    let a = random_well_conditioned(n, 7);
    perf::set_enabled(true);
    perf::reset();
    let out = Request::invert(&a).nb(nb).submit(&cluster).unwrap();
    let kernel = perf::snapshot();
    perf::set_enabled(false);
    rayon::set_thread_cap(previous);
    let calls = kernel.iter().map(|p| p.calls).sum::<u64>();
    let flops = kernel.iter().map(|p| p.flops).sum::<u64>();
    let packed = kernel.iter().map(|p| p.packed).sum::<u64>();

    // Task attempts as the registry counts them: one per executed body,
    // recorded by `finish_job`'s one walk per wave.
    let snap = cluster.obs_snapshot();
    let tasks: u64 = (snap.counters.iter())
        .filter(|c| c.name == "mrinv_backend_tasks_total")
        .map(|c| c.value)
        .sum();
    let files = cluster.dfs.counters().files_written;
    let r = out.report;
    println!(
        "n {n} nb {nb}: jobs {}, tasks {tasks}, files {files}, read {} B, written {} B, \
         {calls} GEMM calls, {flops} flops, {packed} elements packed",
        r.jobs, r.dfs_bytes_read, r.dfs_bytes_written
    );
    Counts {
        report: r,
        tasks,
        files,
        calls,
        flops,
        packed,
    }
}

/// `lib-deep`'s shape (n = 384, nb = 8) is where the framework does most
/// per unit of arithmetic: a wave the runner's walk skips or counts twice
/// moves the task count, a descriptor that reads one file too many or too
/// few moves the DFS counts, and an edit that re-densifies the triangular
/// stage moves the flops.
#[test]
fn lib_deep_cold_invert_counts() {
    let c = cold_invert_counts(384, 8);
    assert_eq!(c.report.jobs, 65);
    assert_eq!(c.tasks, 516);
    assert_eq!(c.files, 699);
    assert_eq!(c.report.dfs_bytes_read, 16_895_784);
    assert_eq!(c.report.dfs_bytes_written, 5_346_892);
    // One call per trsm recursion level, plus the certificate's two
    // (`W = X·V`, `A·W − V`): 308 + 2 while each level called the engine
    // once per run of vectors that came alive in one leaf.
    assert_eq!(c.calls, 292 + 2);
    // 0.101744128 GFLOP as the engine runs the final product, each
    // microtile from its first possibly nonzero term, and each trsm vector
    // tile from its first live one (0.105799168 while runs of vectors
    // started at a leaf boundary, 0.1206 with 128-wide tiles of the final
    // product, 0.1798 with whole K panels), plus the certificate's 64n²:
    // 111,181,312 in all.
    assert_eq!(c.flops, 101_744_128 + 64 * 384 * 384);
    // Each operand panel packed only over its own possibly nonzero terms:
    // 1,433,600 while every panel of a K panel was packed from the first
    // term any of them could be nonzero, 1,622,016 while the final product
    // repacked its operands per tile. The certificate packs each of its
    // two products' `A` (n²) and its one 16-wide probe panel (16n):
    // 1,468,864 in all.
    assert_eq!(c.packed, 1_161_664 + 2 * (384 * 384 + 16 * 384));
}

/// `lib-wide`'s shape (n = 768, nb = 96) is the triangular stage's: its
/// GEMM flops are 0.85495808 GFLOP while the triangular solves observe
/// their right-hand sides' zeros, vector tile by vector tile, and the
/// engine runs the final product's microtiles from their first possibly
/// nonzero terms only (0.872800256 while runs of vectors started at a
/// leaf boundary, 0.9466 with 128-wide tiles, 1.2444 while it skipped
/// whole K panels only, 1.8851 with both dense). Its DFS counts check the
/// final job's file shape: `INV/` holds `L⁻¹` and `U⁻¹` as triangles
/// (64,481,976 / 26,274,060 bytes read / written while every vector was
/// filed at full length).
#[test]
fn lib_wide_cold_invert_counts() {
    let c = cold_invert_counts(768, 96);
    assert_eq!(c.report.jobs, 9);
    assert_eq!(c.tasks, 68);
    assert_eq!(c.files, 115);
    assert_eq!(c.report.dfs_bytes_read, 55_056_888);
    assert_eq!(c.report.dfs_bytes_written, 21_561_516);
    // One call per trsm recursion level (164 with one per run of vectors
    // that came alive in one leaf), plus the certificate's two.
    assert_eq!(c.calls, 128 + 2);
    // 892,706,816 with the certificate's 64n².
    assert_eq!(c.flops, 854_958_080 + 64 * 768 * 768);
    // The engine packs each panel of the final product's and the trsm
    // coupling updates' operands only over its possibly nonzero terms:
    // 6,545,408 while every panel of a K panel was packed from the first
    // term any of them could be nonzero and trsm packed its coupling
    // block once per run of vectors, 8,249,344 while each 128-wide tile of
    // the final product repacked its own panels. The certificate adds
    // 2(n² + 16n): 6,193,792 in all.
    assert_eq!(c.packed, 4_989_568 + 2 * (768 * 768 + 16 * 768));
}

/// A cache hit computes nothing: it hands back the cold run's inverse and
/// the certificate the cold run took, bit for bit, with zero calls into
/// the engine (a certificate taken again would cost two).
#[test]
fn a_hit_runs_no_engine_call_and_keeps_the_certificate() {
    let _turn = PERF.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let cluster = Cluster::new(ClusterConfig::medium(4));
    let cache = FactorCache::new();
    let a = random_well_conditioned(64, 7);
    let invert = || Request::invert(&a).nb(16).cache(&cache).submit(&cluster);
    let calls = || perf::snapshot().map_or(0, |p| p.calls);
    perf::set_enabled(true);
    perf::reset();
    let cold = invert().unwrap();
    let cold_calls = calls();
    perf::reset();
    let hit = invert().unwrap();
    let hit_calls = calls();
    perf::set_enabled(false);
    assert_eq!(hit.cache, CacheStatus::Hit);
    assert!(cold_calls > 2, "{cold_calls}");
    assert_eq!(hit_calls, 0);
    let certificate = cold.certificate().unwrap();
    assert!(certificate < PAPER_ACCURACY, "{certificate}");
    assert_eq!(
        hit.certificate().map(f64::to_bits),
        Some(certificate.to_bits())
    );
    assert_eq!(hit.inverse(), cold.inverse());
}
