//! Count gates: what one cold run does, by count. Jobs, task attempts,
//! DFS files and bytes, GEMM flops and packed operand elements repeat
//! exactly from run to run (the input's values move none of them), so
//! they gate a change without a timing's noise. Each test is one of the benchmark's traced cold
//! inverts on 4 medium nodes.
//!
//! `kernel::perf`'s counters are process-wide, so the tests of this binary
//! take turns on one lock and nothing else may run beside them.

use std::sync::Mutex;

use mrinv::Request;
use mrinv_mapreduce::{Cluster, ClusterConfig, RunReport};
use mrinv_matrix::kernel::perf;
use mrinv_matrix::random::random_well_conditioned;

/// Held for the whole of each test: one cold invert counts at a time.
static PERF: Mutex<()> = Mutex::new(());

/// What one traced cold invert of order `n`, block bound `nb` did: its
/// report, the task attempts the registry counted, the DFS files written,
/// the GEMM flops in GFLOP and the operand elements the GEMM engine
/// packed. It runs at pool width 1: the parallel nest's column splits
/// repack `A` once per split, so the packed count would follow the host.
fn cold_invert_counts(n: usize, nb: usize) -> (RunReport, u64, u64, f64, u64) {
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
    let gflop = kernel.iter().map(|p| p.flops).sum::<u64>() as f64 / 1e9;
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
         {gflop} GFLOP, {packed} elements packed",
        r.jobs, r.dfs_bytes_read, r.dfs_bytes_written
    );
    (r, tasks, files, gflop, packed)
}

/// `lib-deep`'s shape (n = 384, nb = 8) is where the framework does most
/// per unit of arithmetic: a wave the runner's walk skips or counts twice
/// moves the task count, a descriptor that reads one file too many or too
/// few moves the DFS counts, and an edit that re-densifies the triangular
/// stage moves the flops.
#[test]
fn lib_deep_cold_invert_counts() {
    let (r, tasks, files, gflop, packed) = cold_invert_counts(384, 8);
    assert_eq!(r.jobs, 65);
    assert_eq!(tasks, 516);
    assert_eq!(files, 699);
    assert_eq!(r.dfs_bytes_read, 16_895_784);
    assert_eq!(r.dfs_bytes_written, 5_346_892);
    // 0.105799168 GFLOP as the engine runs the final product, each
    // microtile from its first possibly nonzero term (0.1206 with 128-wide
    // tiles, 0.1798 with whole K panels), + 2 %.
    assert!(gflop <= 0.1079, "{gflop} GFLOP");
    // 1,622,016 while the final product repacked its operands per tile.
    assert_eq!(packed, 1_433_600);
}

/// `lib-wide`'s shape (n = 768, nb = 96) is the triangular stage's: its
/// GEMM flops are 0.872800256 GFLOP while the triangular solves observe
/// their right-hand sides' zeros and the engine runs the final product's
/// microtiles from their first possibly nonzero terms only (0.9466 with
/// 128-wide tiles, 1.2444 while it skipped whole K panels only, 1.8851
/// with both dense). Its DFS counts check the final job's file shape:
/// `INV/` holds `L⁻¹` and `U⁻¹` as triangles (64,481,976 / 26,274,060
/// bytes read / written while every vector was filed at full length).
#[test]
fn lib_wide_cold_invert_counts() {
    let (r, tasks, files, gflop, packed) = cold_invert_counts(768, 96);
    assert_eq!(r.jobs, 9);
    assert_eq!(tasks, 68);
    assert_eq!(files, 115);
    assert_eq!(r.dfs_bytes_read, 55_056_888);
    assert_eq!(r.dfs_bytes_written, 21_561_516);
    // + 2 %, for deliberate small reshuffles.
    assert!(gflop <= 0.8903, "{gflop} GFLOP");
    // The engine packs only the final product's possibly nonzero rows,
    // columns and terms per K panel: 8,249,344 while each 128-wide tile
    // of it repacked its own panels.
    assert_eq!(packed, 6_545_408);
}
