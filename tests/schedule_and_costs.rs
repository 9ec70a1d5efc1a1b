//! The precomputed schedule and the Table 1/2 cost model against the
//! executed pipeline: the paper's "the number of jobs in the pipeline and
//! the data movement between the jobs can be precisely determined before
//! the start of the computation" (Section 1).

use mrinv::schedule::{job_plan, recursion_depth, total_jobs, PlannedJob};
use mrinv::theory;
use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::cluster::factor_pair;
use mrinv_mapreduce::tracelog::TaskEvent;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, TracePhase};
use mrinv_matrix::random::random_well_conditioned;
use proptest::prelude::*;

fn unit_cluster(m0: usize) -> Cluster {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    Cluster::new(cfg)
}

#[test]
fn executed_jobs_match_plan_for_the_scaled_suite() {
    // The Table 3 suite at 1/64 scale (fast), exact job counts.
    for &(n, nb, expect) in &[
        (320usize, 50usize, 9u64), // M1
        (512, 50, 17),             // M2
        (640, 50, 17),             // M3
        (256, 50, 9),              // M5
    ] {
        let cluster = unit_cluster(4);
        let a = random_well_conditioned(n, n as u64);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(nb))
            .submit(&cluster)
            .unwrap();
        assert_eq!(out.report.jobs, expect, "n={n}");
        assert_eq!(job_plan(n, nb).len() as u64, expect);
    }
}

#[test]
fn plan_brackets_partition_and_final() {
    let plan = job_plan(256, 32);
    assert_eq!(plan.first(), Some(&PlannedJob::Partition));
    assert_eq!(plan.last(), Some(&PlannedJob::FinalInverse));
    let lu_jobs = plan
        .iter()
        .filter(|j| matches!(j, PlannedJob::LuLevel { .. }))
        .count();
    assert_eq!(lu_jobs as u64, total_jobs(256, 32) - 2);
}

#[test]
fn measured_lu_writes_track_table1() {
    // Table 1 says the LU stage writes 3/2 n^2 elements. A full
    // implementation necessarily writes more: the partitioned input (n^2),
    // the B update files (~n^2/2 summed over levels), the L2'/U2 factor
    // stripes (~n^2), and the leaf factors — the paper's closed form
    // appears to exclude the factor stripes. We assert the measured value
    // sits between the paper's bound and the full inventory (~2.6 n^2),
    // and that it is O(n^2), not O(n^3).
    let n = 128;
    let cluster = unit_cluster(4);
    let a = random_well_conditioned(n, 2);
    let out = Request::lu(&a)
        .config(&InversionConfig::with_nb(16))
        .submit(&cluster)
        .unwrap();
    let measured_elements = out.report.dfs_bytes_written as f64 / 8.0;
    let theory = theory::table1_ours(n, 4).writes;
    let ratio = measured_elements / theory;
    assert!(
        (1.0..2.2).contains(&ratio),
        "measured {measured_elements} vs theory {theory} (ratio {ratio})"
    );
}

#[test]
fn measured_inversion_writes_track_table2() {
    // Table 2: the final stage writes ~2 n^2 elements (the two triangular
    // inverses plus the final product).
    let n = 128;
    let cluster = unit_cluster(4);
    let a = random_well_conditioned(n, 3);
    let lu_out = Request::lu(&a)
        .config(&InversionConfig::with_nb(16))
        .submit(&cluster)
        .unwrap();
    let before = cluster.dfs.counters().bytes_written;
    let out = Request::invert(&a)
        .config(&InversionConfig::with_nb(16))
        .submit(&cluster)
        .unwrap();
    let _ = (lu_out, before);
    // Total (LU + final) writes: LU stage ~2.6 n^2 plus the final stage's
    // L^-1 and U^-1 triangles and result blocks (~2 n^2) — all O(n^2),
    // never O(n^3).
    let total_elements = out.report.dfs_bytes_written as f64 / 8.0;
    let n2 = (n * n) as f64;
    assert!(
        total_elements > 3.0 * n2 && total_elements < 8.0 * n2,
        "total elements written {total_elements} vs n^2 {n2}"
    );
}

#[test]
fn measured_transfer_matches_tables_1_and_2_closed_forms() {
    // The paper's central claim is stated in bytes moved over the network:
    // Table 1 transfer = (l+3)n^2 elements for the LU stage, and Table 2
    // prices the inversion stage at reads l'n^2 and writes 2n^2, where
    // every DFS read a task performs crosses the network (theory.rs). With
    // deep `ShuffleSize` accounting, the measured per-task transfer (DFS
    // reads + shuffled bytes, summed from the trace) of the LU stage of an
    // end-to-end n=64, nb=4 inversion on m0=4 must land within 10% of its
    // closed form, and the inversion stage's reads and writes within 10% of
    // Table 2's Read and Write columns: the reducers read their share of
    // the triangles L^-1 and U^-1, the mappers write them, the reducers
    // write the product. The partition preprocessing job and the master's
    // local reads sit outside the tables and are excluded.
    let n = 64;
    let nb = 4;
    let m0 = 4;
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    cfg.tracing = true;
    let cluster = Cluster::new(cfg);
    let a = random_well_conditioned(n, 7);
    let out = Request::invert(&a)
        .config(&InversionConfig::with_nb(nb))
        .submit(&cluster)
        .unwrap();

    let events = cluster.trace.events();
    let stage = |prefix: &str, bytes: fn(&TaskEvent) -> u64| -> f64 {
        events
            .iter()
            .filter(|e| {
                matches!(e.phase, TracePhase::Map | TracePhase::Reduce)
                    && e.job.starts_with(prefix)
                    && e.failure.is_none()
            })
            .map(|e| bytes(e) as f64)
            .sum()
    };
    let lu_theory = theory::table1_ours(n, m0).transfer_bytes();
    let inv_theory = theory::table2_ours(n, m0);
    for (what, measured, theory_bytes) in [
        (
            "lu transfer",
            stage("lu-level:", |e| e.read_bytes + e.shuffle_bytes),
            lu_theory,
        ),
        (
            "inversion reads",
            stage("final-inverse:", |e| e.read_bytes),
            inv_theory.read_bytes(),
        ),
        (
            "inversion writes",
            stage("final-inverse:", |e| e.write_bytes),
            inv_theory.write_bytes(),
        ),
    ] {
        let ratio = measured / theory_bytes;
        assert!(
            (0.9..1.1).contains(&ratio),
            "{what}: measured {measured} vs theory {theory_bytes} (ratio {ratio})"
        );
    }

    // Before per-pair byte accounting, the only "bytes moved" counter was
    // the shuffle total — the control pairs' few hundred bytes, more than
    // 10x under the real transfer volume the tables describe.
    let moved = lu_theory + inv_theory.read_bytes();
    assert!(
        (out.report.shuffle_bytes as f64) * 10.0 < moved,
        "shuffle-only counter {} should undercount theory {moved} by >10x",
        out.report.shuffle_bytes,
    );
}

#[test]
fn crossover_prediction_is_inside_the_papers_cluster_range() {
    let cross = theory::lu_transfer_crossover_m0();
    assert!((5..=64).contains(&cross), "crossover at {cross}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn job_plan_length_always_matches_total_jobs((n, nb) in (1usize..5000, 1usize..600)) {
        prop_assert_eq!(job_plan(n, nb).len() as u64, total_jobs(n, nb));
    }

    #[test]
    fn recursion_depth_bounds_plan((n, nb) in (1usize..5000, 1usize..600)) {
        let d = recursion_depth(n, nb);
        let lu_jobs = total_jobs(n, nb) - 2;
        // The plan never exceeds the full binary tree of depth d.
        prop_assert!(lu_jobs < (1u64 << d) || d == 0);
    }

    #[test]
    fn factor_pair_is_most_square(m0 in 1usize..1000) {
        let (f1, f2) = factor_pair(m0);
        prop_assert_eq!(f1 * f2, m0);
        prop_assert!(f2 <= f1);
        for g in (f2 + 1)..=((m0 as f64).sqrt() as usize) {
            prop_assert!(m0 % g != 0);
        }
    }

    #[test]
    fn theory_rows_are_monotone_in_m0((n, m0) in (2usize..2000, 1usize..128)) {
        // More nodes => more total reads for us, more transfer for
        // ScaLAPACK (the divergence behind Figure 8).
        let ours_small = theory::table1_ours(n, m0);
        let ours_big = theory::table1_ours(n, m0 * 2);
        prop_assert!(ours_big.reads >= ours_small.reads);
        let scal_small = theory::table1_scalapack(n, m0);
        let scal_big = theory::table1_scalapack(n, m0 * 2);
        prop_assert!(scal_big.transfer >= scal_small.transfer * 1.9);
    }
}
