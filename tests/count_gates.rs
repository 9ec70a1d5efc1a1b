//! Count gates: what one cold run does, by count. Jobs, task attempts,
//! DFS files and bytes, and GEMM flops repeat exactly from run to run (the
//! input's values move none of them), so they gate a framework change
//! without a timing's noise. `lib-deep`'s shape (n = 384, nb = 8, 4
//! medium nodes, traced) is where the framework does most per unit of
//! arithmetic: a wave the runner's walk skips or counts twice moves the
//! task count, a descriptor that reads one file too many or too few moves
//! the DFS counts, and an edit that re-densifies the triangular stage
//! moves the flops.
//!
//! This binary holds one test: `kernel::perf`'s counters are process-wide,
//! so nothing may run beside it.

use mrinv::Request;
use mrinv_mapreduce::{Cluster, ClusterConfig};
use mrinv_matrix::kernel::perf;
use mrinv_matrix::random::random_well_conditioned;

#[test]
fn lib_deep_cold_invert_counts() {
    let mut config = ClusterConfig::medium(4);
    config.observability = true;
    config.tracing = true;
    let cluster = Cluster::new(config);
    let a = random_well_conditioned(384, 7);
    perf::set_enabled(true);
    perf::reset();
    let out = Request::invert(&a).nb(8).submit(&cluster).unwrap();
    let gflop = perf::snapshot().iter().map(|p| p.flops).sum::<u64>() as f64 / 1e9;
    perf::set_enabled(false);

    // Task attempts as the registry counts them: one per executed body,
    // recorded by `finish_job`'s one walk per wave.
    let snap = cluster.obs_snapshot();
    let tasks: u64 = (snap.counters.iter())
        .filter(|c| c.name == "mrinv_backend_tasks_total")
        .map(|c| c.value)
        .sum();
    let r = &out.report;
    println!(
        "jobs {}, tasks {tasks}, files {}, read {} B, written {} B, {gflop} GFLOP",
        r.jobs,
        cluster.dfs.counters().files_written,
        r.dfs_bytes_read,
        r.dfs_bytes_written
    );
    assert_eq!(r.jobs, 65);
    assert_eq!(tasks, 516);
    assert_eq!(cluster.dfs.counters().files_written, 699);
    assert_eq!(r.dfs_bytes_read, 16_895_784);
    assert_eq!(r.dfs_bytes_written, 5_346_892);
    // 0.120581632 GFLOP with the tile-by-tile final product (0.1798 with
    // whole K panels), + 2 %.
    assert!(gflop <= 0.1230, "{gflop} GFLOP");
}
