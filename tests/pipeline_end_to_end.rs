//! End-to-end integration: the full MapReduce inversion pipeline against
//! the paper's correctness and structure claims.

use mrinv::{FactorCache, InversionConfig, Optimizations, Request};
use mrinv_mapreduce::scheduler::{plan_wave, PlannedTask, WaveFaults};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, RunReport, TaskStats};
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::{random_invertible, random_well_conditioned};
use mrinv_matrix::PAPER_ACCURACY;

fn unit_cluster(m0: usize) -> Cluster {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    Cluster::new(cfg)
}

#[test]
fn inversion_accuracy_across_shapes() {
    // n x nb x m0 grid, including odd orders and degenerate clusters.
    for &(n, nb, m0) in &[
        (64usize, 16usize, 4usize),
        (64, 16, 1),
        (64, 16, 16),
        (96, 24, 6),
        (100, 30, 5),
        (33, 8, 3),
        (128, 16, 8),
    ] {
        let cluster = unit_cluster(m0);
        let a = random_well_conditioned(n, (n * m0) as u64);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(nb))
            .submit(&cluster)
            .unwrap();
        let res = inversion_residual(&a, out.inverse().unwrap()).unwrap();
        assert!(
            res < PAPER_ACCURACY,
            "n={n} nb={nb} m0={m0}: residual {res}"
        );
    }
}

#[test]
fn pivoting_matrices_require_and_survive_row_swaps() {
    // General random matrices force real pivoting through the pipeline.
    for seed in 0..3 {
        let cluster = unit_cluster(4);
        let a = random_invertible(48, 1000 + seed);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(12))
            .submit(&cluster)
            .unwrap();
        let res = inversion_residual(&a, out.inverse().unwrap()).unwrap();
        assert!(res < 1e-6, "seed {seed}: residual {res}");
    }
}

#[test]
fn job_pipeline_length_matches_table3_structure() {
    // Job count = 2^ceil(log2(n/nb)) + 1 on even splits (Table 3).
    for &(n, nb, expect) in &[(64usize, 16usize, 5u64), (128, 16, 9), (256, 16, 17)] {
        let cluster = unit_cluster(4);
        let a = random_well_conditioned(n, n as u64);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(nb))
            .submit(&cluster)
            .unwrap();
        assert_eq!(out.report.jobs, expect, "n={n} nb={nb}");
        assert_eq!(out.report.jobs, mrinv::schedule::total_jobs(n, nb));
    }
}

#[test]
fn lu_stage_factors_reconstruct_pa() {
    let cluster = unit_cluster(4);
    let a = random_invertible(96, 13);
    let out = Request::lu(&a)
        .config(&InversionConfig::with_nb(24))
        .submit(&cluster)
        .unwrap()
        .into_factors();
    let pa = out.perm.apply_rows(&a);
    let lu_prod = &out.l * &out.u;
    assert!(lu_prod.approx_eq(&pa, 1e-7));
    // Factor shapes.
    for i in 0..96 {
        assert_eq!(out.l[(i, i)], 1.0);
        for j in (i + 1)..96 {
            assert_eq!(out.l[(i, j)], 0.0);
            assert_eq!(out.u[(j, i)], 0.0);
        }
    }
}

/// Every toggle keeps the computation, so all eight combinations give the
/// same bits. The Section 6.1 and 6.2 toggles change the files and the
/// price; the Section 6.3 toggle changes the price only: two runs that
/// differ in `transpose_u` alone move the same bytes in the same jobs and
/// charge different flops. (520, 65) puts product cells past one K panel.
#[test]
fn optimization_toggles_preserve_numerics_exactly() {
    for &(n, nb, m0) in &[(48usize, 12usize, 4usize), (520, 65, 4)] {
        let a = random_invertible(n, 21);
        let mut results: Vec<Vec<u64>> = Vec::new();
        for sep in [true, false] {
            for wrap in [true, false] {
                let mut reports = Vec::new();
                for tr in [true, false] {
                    let cluster = unit_cluster(m0);
                    let mut cfg = InversionConfig::with_nb(nb);
                    cfg.opts = Optimizations {
                        separate_intermediate_files: sep,
                        block_wrap: wrap,
                        transpose_u: tr,
                    };
                    let out = Request::invert(&a).config(&cfg).submit(&cluster).unwrap();
                    reports.push(out.report.clone());
                    let inverse = out.into_inverse();
                    results.push(inverse.as_slice().iter().map(|x| x.to_bits()).collect());
                }
                let [on, off] = &reports[..] else {
                    unreachable!("two runs per pair")
                };
                let what = format!("n={n} nb={nb} sep={sep} wrap={wrap}");
                assert_eq!(on.jobs, off.jobs, "{what}: job count");
                assert_eq!(on.job_reports.len(), off.job_reports.len(), "{what}");
                for (x, y) in on.job_reports.iter().zip(&off.job_reports) {
                    let bytes = |s: &TaskStats| (s.read_bytes, s.write_bytes, s.shuffle_bytes);
                    assert_eq!(bytes(&x.stats), bytes(&y.stats), "{what}: job {}", x.name);
                }
                let totals = |r: &RunReport| (r.dfs_bytes_read, r.dfs_bytes_written);
                assert_eq!(totals(on), totals(off), "{what}: run bytes");
                let flops =
                    |r: &RunReport| r.job_reports.iter().map(|j| j.stats.flops).sum::<u64>();
                assert!(
                    flops(off) > flops(on),
                    "{what}: the strided price charges {} flops, the ordered one {}",
                    flops(off),
                    flops(on)
                );
            }
        }
        for (i, r) in results.iter().enumerate().skip(1) {
            assert!(
                *r == results[0],
                "n={n} nb={nb}: toggle combination {i} changed the inverse's bits"
            );
        }
    }
}

#[test]
fn a_plain_invert_keeps_its_factors_and_releases_result() {
    // A plain run gives every file it wrote back: `RESULT/` once the master
    // has assembled the inverse, and the factor forest, which nothing reads
    // again, once the run is done. What it keeps is in the outcome.
    let a = random_well_conditioned(32, 3);
    let cfg = InversionConfig::with_nb(8);
    let cluster = unit_cluster(4);
    let out = Request::invert(&a).config(&cfg).submit(&cluster).unwrap();
    assert!(out.inverse().is_some());
    assert_eq!(cluster.dfs.list(""), Vec::<String>::new());
    assert_eq!(cluster.dfs.live_bytes(), 0);
}

/// Eight cold n=256 / nb=32 inverts of distinct matrices on one cluster,
/// with a factor cache and without: each leaves the DFS empty, so a
/// long-lived cluster holds no file per request it served.
#[test]
fn eight_cold_inverts_leave_the_dfs_empty() {
    let cfg = InversionConfig::with_nb(32);
    for cached in [true, false] {
        let cluster = Cluster::new(ClusterConfig::medium(4));
        let cache = FactorCache::new();
        for seed in 0..8 {
            let a = random_well_conditioned(256, 500 + seed);
            let request = Request::invert(&a).config(&cfg);
            let request = if cached {
                request.cache(&cache)
            } else {
                request
            };
            assert!(request.submit(&cluster).unwrap().inverse().is_some());
            let dfs = &cluster.dfs;
            let held = (dfs.live_bytes(), dfs.file_count());
            assert_eq!(held, (0, 0), "cached {cached}, invert {seed}");
            assert!(dfs.live_bytes_peak() > 0);
        }
        assert_eq!(cache.stats().entries, if cached { 8 } else { 0 });
    }
}

#[test]
fn io_accounting_tracks_table1_scaling() {
    // Measured LU-stage writes should scale like the Table 1 closed form
    // (3/2 n^2 elements): roughly quadrupling when n doubles.
    let run_writes = |n: usize| {
        let cluster = unit_cluster(4);
        let a = random_well_conditioned(n, n as u64);
        let out = Request::lu(&a)
            .config(&InversionConfig::with_nb(n / 4))
            .submit(&cluster)
            .unwrap();
        out.report.dfs_bytes_written as f64
    };
    let w64 = run_writes(64);
    let w128 = run_writes(128);
    let ratio = w128 / w64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "writes should scale ~quadratically with n, got ratio {ratio}"
    );
}

#[test]
fn simulated_time_decreases_with_more_nodes() {
    // Strong scaling on compute-bound work (Figure 6's premise), priced
    // rather than executed: the `sim_secs` of two separate executions
    // carry each run's measured CPU, so one hand-built wave is planned on
    // 1 node and on 8.
    let tasks: Vec<PlannedTask> = (0..16)
        .map(|i| PlannedTask {
            success_secs: 10.0 + (i % 4) as f64,
            ..Default::default()
        })
        .collect();
    let faults = WaveFaults {
        max_attempts: 1,
        ..Default::default()
    };
    let t1 = plan_wave(&tasks, &[1.0], 1, &faults).makespan_secs;
    let t8 = plan_wave(&tasks, &[1.0; 8], 1, &faults).makespan_secs;
    assert_eq!(t1, 184.0, "one node serializes the wave");
    assert!(
        t8 < t1 / 2.0,
        "8 nodes should be at least 2x faster than 1 on compute-bound work: {t1} vs {t8}"
    );
}
