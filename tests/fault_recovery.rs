//! Failure injection across every pipeline stage: the Section 7.4 fault
//! tolerance claim — failed tasks are re-executed and the job still
//! produces the correct result, at the cost of schedule time.

use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::obs::Labels;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, MrError, Phase};
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::random_well_conditioned;
use mrinv_matrix::PAPER_ACCURACY;

fn cluster_with(cost: CostModel) -> Cluster {
    let mut cfg = ClusterConfig::medium(4);
    cfg.cost = cost;
    Cluster::new(cfg)
}

fn unit_cluster() -> Cluster {
    cluster_with(CostModel::unit_for_tests())
}

fn run(cluster: &Cluster) -> (mrinv::Outcome, f64) {
    let a = random_well_conditioned(64, 42);
    let out = Request::invert(&a)
        .config(&InversionConfig::with_nb(16))
        .submit(cluster)
        .unwrap();
    let res = inversion_residual(&a, out.inverse().unwrap()).unwrap();
    (out, res)
}

#[test]
fn every_stage_survives_a_single_failure() {
    let stages: &[(&str, Phase)] = &[
        ("partition", Phase::Map),
        ("lu-level", Phase::Map),
        ("lu-level", Phase::Reduce),
        ("final-inverse", Phase::Map),
        ("final-inverse", Phase::Reduce),
    ];
    for &(job, phase) in stages {
        let cluster = unit_cluster();
        cluster.faults.fail_task(job, phase, 0, 1);
        let (out, res) = run(&cluster);
        assert!(res < PAPER_ACCURACY, "{job}/{phase:?}: residual {res}");
        assert_eq!(
            out.report.task_failures, 1,
            "{job}/{phase:?}: failure must fire"
        );
        assert_eq!(cluster.faults.injected_count(), 1);
    }
}

#[test]
fn multiple_concurrent_failures_recover() {
    let cluster = unit_cluster();
    cluster.faults.fail_task("lu-level", Phase::Map, 0, 2); // two attempts die
    cluster.faults.fail_task("lu-level", Phase::Map, 1, 1);
    cluster
        .faults
        .fail_task("final-inverse", Phase::Reduce, 2, 1);
    let (out, res) = run(&cluster);
    assert!(res < PAPER_ACCURACY, "residual {res}");
    assert!(
        out.report.task_failures >= 4,
        "got {}",
        out.report.task_failures
    );
}

#[test]
fn failures_stretch_the_simulated_schedule() {
    // Flops priced as heavily as bytes, so lost work is visible (Section
    // 7.4: the 5-hour run became 8 hours). Counted work repeats exactly.
    let priced = || {
        cluster_with(CostModel {
            flops_per_sec: 1.0,
            ..CostModel::unit_for_tests()
        })
    };
    let clean = run(&priced()).0.report.sim_secs;
    assert_eq!(run(&priced()).0.report.sim_secs, clean);
    let faulty = {
        let cluster = priced();
        cluster.faults.fail_task("final-inverse", Phase::Map, 0, 1);
        run(&cluster).0.report.sim_secs
    };
    assert!(
        faulty > clean,
        "lost attempt must lengthen the run: {clean} -> {faulty}"
    );
}

#[test]
fn retried_results_are_bit_identical() {
    let a = random_well_conditioned(48, 7);
    let cfg = InversionConfig::with_nb(12);
    let clean = {
        let cluster = unit_cluster();
        Request::invert(&a)
            .config(&cfg)
            .submit(&cluster)
            .unwrap()
            .into_inverse()
    };
    let faulty = {
        let cluster = unit_cluster();
        cluster.faults.fail_task("", Phase::Map, 1, 1); // any job, map task 1
        cluster.faults.fail_task("", Phase::Reduce, 0, 1);
        Request::invert(&a)
            .config(&cfg)
            .submit(&cluster)
            .unwrap()
            .into_inverse()
    };
    assert!(
        clean.approx_eq(&faulty, 0.0),
        "deterministic retry must reproduce bits"
    );
}

#[test]
fn exhausted_retry_budget_fails_the_whole_inversion() {
    let cluster = unit_cluster();
    // More failures than max_task_attempts (4).
    cluster.faults.fail_task("lu-level", Phase::Map, 0, 100);
    let a = random_well_conditioned(64, 42);
    let err = Request::invert(&a)
        .config(&InversionConfig::with_nb(16))
        .submit(&cluster)
        .unwrap_err();
    match err {
        mrinv::CoreError::MapReduce(MrError::TaskFailed {
            phase, attempts, ..
        }) => {
            assert_eq!(phase, Phase::Map);
            assert_eq!(attempts, 4, "Hadoop-style retry budget");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

/// A job whose task always fails burns its whole retry budget, fails the
/// pipeline cleanly with [`MrError::TaskFailed`], leaves every doomed
/// attempt in the trace log — and once the fault clears, a plain
/// resubmission reruns the pipeline to the correct inverse.
#[test]
fn permanent_fault_fails_cleanly_and_reruns_once_cleared() {
    let mut cfg_cluster = ClusterConfig::medium(4);
    cfg_cluster.cost = CostModel::unit_for_tests();
    cfg_cluster.tracing = true;
    let cluster = Cluster::new(cfg_cluster);
    cluster.faults.fail_task("lu-level", Phase::Map, 0, 100);

    let a = random_well_conditioned(64, 42);
    let cfg = InversionConfig::with_nb(16);
    let err = Request::invert(&a)
        .config(&cfg)
        .submit(&cluster)
        .unwrap_err();
    match err {
        mrinv::CoreError::MapReduce(MrError::TaskFailed {
            phase,
            task,
            attempts,
            ..
        }) => {
            assert_eq!(phase, Phase::Map);
            assert_eq!(task, 0);
            assert_eq!(attempts, 4);
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    // Every doomed attempt is in the trace log, attributed to the fault.
    let injected = cluster
        .trace
        .events()
        .iter()
        .filter(|e| e.failure.as_deref() == Some("injected-fault"))
        .count();
    assert_eq!(injected, 4, "all four burned attempts are traced");

    // Clear the fault: the rerun converges to the same bits as an
    // undisturbed inversion.
    cluster.faults.clear();
    let out = Request::invert(&a).config(&cfg).submit(&cluster).unwrap();
    let baseline = Request::invert(&a)
        .config(&cfg)
        .submit(&unit_cluster())
        .unwrap();
    assert_eq!(
        out.inverse()
            .unwrap()
            .max_abs_diff(baseline.inverse().unwrap())
            .unwrap(),
        0.0
    );
}

#[test]
fn failure_accounting_reaches_cluster_metrics() {
    let cluster = unit_cluster();
    cluster.obs().set_enabled(true);
    cluster.faults.fail_task("lu-level", Phase::Map, 0, 1);
    let (out, _) = run(&cluster);
    assert_eq!(out.report.task_failures, 1);
    assert!(out.report.jobs >= 5);
    // The run's failure is the one its job reports carry, and the one the
    // cluster's registry totals.
    let failures: u32 = out.report.job_reports.iter().map(|j| j.failures).sum();
    assert_eq!(failures, 1);
    let snap = cluster.obs().snapshot();
    let total = snap
        .counters
        .iter()
        .find(|c| c.name == "mrinv_task_failures_total" && c.labels == Labels::new())
        .map(|c| c.value);
    assert_eq!(total, Some(1));
}
