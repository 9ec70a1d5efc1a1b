//! Fault tolerance — the Section 7.4 story, reproduced deterministically:
//! during one run "one mapper computing the inverse of a triangular matrix
//! failed and did not restart until one of the other mappers finished",
//! stretching the run from 5 to 8 hours, yet the job completed correctly.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```
//!
//! Runs the same inversion twice — clean, and with injected task failures
//! in both the LU pipeline and the final job — and shows the failed
//! attempts, the schedule stretch, and the bit-identical result.

use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, Phase};
use mrinv_matrix::random::random_well_conditioned;

/// A 4-node cluster whose cost model emphasizes task compute (as at the
/// paper's matrix sizes, where task work — not job launches — dominates):
/// its cores run 1e5 times slower than an EC2 medium core, so a lost
/// attempt visibly stretches the schedule.
fn compute_bound_cluster() -> Cluster {
    let mut cfg = ClusterConfig::medium(4);
    let medium = CostModel::ec2_medium();
    cfg.cost = CostModel {
        flops_per_sec: medium.flops_per_sec / 1e5,
        ..medium
    };
    Cluster::new(cfg)
}

fn main() {
    let n = 192;
    let cfg = InversionConfig::with_nb(48);
    let a = random_well_conditioned(n, 99);

    // Clean run.
    let clean_cluster = compute_bound_cluster();
    let clean = Request::invert(&a)
        .config(&cfg)
        .submit(&clean_cluster)
        .expect("clean inversion");
    println!(
        "clean run : {} jobs, {} failed attempts, {:.1} simulated s",
        clean.report.jobs, clean.report.task_failures, clean.report.sim_secs
    );

    // Faulty run: kill the first attempt of a triangular-inversion mapper
    // (the paper's exact scenario) and of an LU-pipeline reducer.
    let faulty_cluster = compute_bound_cluster();
    faulty_cluster
        .faults
        .fail_task("final-inverse", Phase::Map, 0, 1);
    faulty_cluster
        .faults
        .fail_task("lu-level", Phase::Reduce, 1, 1);
    let faulty = Request::invert(&a)
        .config(&cfg)
        .submit(&faulty_cluster)
        .expect("faulty inversion");
    println!(
        "faulty run: {} jobs, {} failed attempts, {:.1} simulated s",
        faulty.report.jobs, faulty.report.task_failures, faulty.report.sim_secs
    );

    assert_eq!(
        faulty.report.task_failures, 2,
        "both injected failures fired"
    );
    assert!(
        faulty.report.sim_secs > clean.report.sim_secs,
        "lost attempts must stretch the schedule"
    );
    assert!(
        faulty
            .inverse()
            .unwrap()
            .approx_eq(clean.inverse().unwrap(), 0.0),
        "retried tasks are deterministic: results must be bit-identical"
    );
    println!(
        "ok: failures stretched the run by {:.1}% and the result is bit-identical",
        (faulty.report.sim_secs / clean.report.sim_secs - 1.0) * 100.0
    );
}
