//! Differential acceptance for the `tcp-workers` execution backend: the
//! full 17-job acceptance pipeline (n = 64, nb = 4) run through real
//! worker processes must be bit-identical — inverse bytes, job
//! fingerprints, and every job's DFS and shuffle byte accounting — to the
//! in-process backend, and a worker process
//! killed mid-wave must be replaced with the attempt retried to the same
//! answer.

use std::sync::Arc;

use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::job::JobSpec;
use mrinv_mapreduce::runner::run_map_only;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, JobReport, TcpWorkers, TcpWorkersConfig};
use mrinv_matrix::io::encode_binary;
use mrinv_matrix::random::random_well_conditioned;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_mrinv-worker");

fn unit_config(m0: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    cfg
}

/// A cluster whose task attempts run in `workers` real `mrinv-worker`
/// processes over TCP.
fn tcp_cluster(cfg: ClusterConfig, workers: usize) -> Cluster {
    let mut cluster = Cluster::new(cfg);
    let backend =
        TcpWorkers::spawn(TcpWorkersConfig::new(workers, WORKER_BIN)).expect("spawn workers");
    backend.attach_dfs(cluster.dfs.clone());
    cluster.set_backend(Arc::new(backend));
    cluster.set_registry(Arc::new(mrinv::exec_registry()));
    cluster
}

#[test]
fn tcp_backend_matches_in_process_bit_for_bit() {
    let (n, nb) = (64, 4);
    let a = random_well_conditioned(n, 17);
    let cfg = InversionConfig::with_nb(nb);

    // Each cluster has its own in-memory DFS, so both unpinned runs land
    // in `mrinv/run-0` and their job specs — and hence the fingerprints —
    // can agree.
    let local = Cluster::new(unit_config(4));
    let baseline = Request::invert(&a).config(&cfg).submit(&local).unwrap();
    assert_eq!(baseline.report.jobs, 17);
    assert_eq!(baseline.report.backend, "in-process");

    let remote = tcp_cluster(unit_config(4), 2);
    let out = Request::invert(&a).config(&cfg).submit(&remote).unwrap();
    assert_eq!(out.report.jobs, 17);
    assert_eq!(out.report.backend, "tcp-workers");

    // The inverse must match to the byte, not just to a tolerance.
    assert_eq!(
        encode_binary(out.inverse().unwrap()),
        encode_binary(baseline.inverse().unwrap()),
        "tcp-workers inverse bytes differ from in-process"
    );

    // Same jobs, same specs, same order: every job fingerprint (which
    // mixes run config, job spec, and sequence) must agree.
    let (local_jobs, remote_jobs) = (&baseline.report.job_reports, &out.report.job_reports);
    let fingerprints = |jobs: &[JobReport]| -> Vec<(String, u64)> {
        jobs.iter()
            .map(|r| (r.name.clone(), r.fingerprint))
            .collect()
    };
    assert_eq!(local_jobs.len(), 17);
    assert_eq!(fingerprints(local_jobs), fingerprints(remote_jobs));

    // A worker charges reads, writes and shuffled pairs exactly as the
    // driver does, job by job and in total.
    let bytes = |jobs: &[JobReport]| -> Vec<(String, [u64; 3])> {
        let io = |r: &JobReport| {
            let s = &r.stats;
            [s.read_bytes, s.write_bytes, s.shuffle_bytes]
        };
        jobs.iter().map(|r| (r.name.clone(), io(r))).collect()
    };
    assert_eq!(bytes(local_jobs), bytes(remote_jobs));
    let totals = |r: &mrinv::RunReport| [r.dfs_bytes_read, r.dfs_bytes_written, r.shuffle_bytes];
    assert_eq!(totals(&out.report), totals(&baseline.report));

    // A worker charges the driver's flops, and the clock prices only
    // counted work: both backends land on the same simulated seconds, job
    // by job and in total.
    let priced = |jobs: &[JobReport]| -> Vec<(String, u64, f64)> {
        let job = |r: &JobReport| (r.name.clone(), r.stats.flops, r.sim_secs);
        jobs.iter().map(job).collect()
    };
    assert_eq!(priced(local_jobs), priced(remote_jobs));
    assert_eq!(out.report.sim_secs, baseline.report.sim_secs);
}

#[test]
fn killed_worker_is_replaced_and_the_attempt_retried() {
    // The die-once probe writes a marker through the live DFS connection
    // and then exits its worker process; the retried attempt (and every
    // other task) sees the marker and succeeds.
    let cluster = tcp_cluster(unit_config(4), 2);

    let mapper = mrinv::remote::DieOnceMapper {
        marker: "probe/died-once".to_string(),
    };
    let spec: JobSpec<usize> = JobSpec::new("die-once-probe").remote("die-once");
    let report = run_map_only(&cluster, &spec, &mapper, &[(), (), ()]).unwrap();

    assert_eq!(report.map_tasks, 3);
    assert_eq!(
        report.failures, 1,
        "exactly the one crashed attempt is recorded as a failure"
    );
    assert!(cluster.dfs.exists("probe/died-once"));

    // The pool replaced the dead process: a follow-up job still runs.
    let again = run_map_only(&cluster, &spec, &mapper, &[(), ()]).unwrap();
    assert_eq!(again.failures, 0, "marker exists, nobody dies twice");
}
