//! End-to-end tests of the per-task trace log: event completeness,
//! Chrome export structure, fault-injection visibility, and the
//! zero-cost-when-disabled guarantee.

use bytes::Bytes;
use mrinv_mapreduce::job::{JobSpec, MapContext, Mapper, ReduceContext, Reducer};
use mrinv_mapreduce::runner::{run_job, run_map_only};
use mrinv_mapreduce::tracelog::{analyze, chrome_trace_json, TracePhase};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, MrError, Phase, PipelineDriver, RunId};

struct WriteMapper;
impl Mapper for WriteMapper {
    type Input = usize;
    type Key = usize;
    type Value = usize;
    fn map(&self, input: &usize, ctx: &mut MapContext<usize, usize>) -> Result<(), MrError> {
        ctx.write(&format!("out/{input}"), Bytes::from(vec![1u8; 100]));
        ctx.emit(*input % 2, *input);
        Ok(())
    }
}
struct CountReducer;
impl Reducer for CountReducer {
    type Key = usize;
    type Value = usize;
    type Output = usize;
    fn reduce(
        &self,
        _k: &usize,
        values: &[usize],
        _ctx: &mut ReduceContext,
    ) -> Result<usize, MrError> {
        Ok(values.len())
    }
}

fn traced_cluster(nodes: usize) -> Cluster {
    let mut cfg = ClusterConfig::medium(nodes);
    cfg.cost = CostModel {
        job_launch_secs: 2.0,
        ..CostModel::unit_for_tests()
    };
    cfg.tracing = true;
    Cluster::new(cfg)
}

#[test]
fn clean_job_emits_one_event_per_attempt_plus_job_spans() {
    let cluster = traced_cluster(4);
    let spec = JobSpec::new("trace-me").reducers(2);
    let inputs: Vec<usize> = (0..6).collect();
    let (_, report) = run_job(&cluster, &spec, &WriteMapper, &CountReducer, &inputs).unwrap();

    let events = cluster.trace.events();
    let count = |phase: TracePhase| events.iter().filter(|e| e.phase == phase).count();
    assert_eq!(count(TracePhase::Launch), 1);
    assert_eq!(count(TracePhase::Map), 6, "one event per map attempt");
    assert_eq!(count(TracePhase::Shuffle), 1);
    assert_eq!(count(TracePhase::Reduce), 2);
    assert!(events.iter().all(|e| e.failure.is_none()));
    assert!(events.iter().all(|e| e.job_seq == Some(report.job_seq)));

    // Map events carry real placements and measured bytes.
    for e in events.iter().filter(|e| e.phase == TracePhase::Map) {
        assert!(e.node.unwrap() < 4);
        assert_eq!(e.write_bytes, 100);
        assert!(e.sim_end_secs > e.sim_start_secs);
    }
    // The simulated timeline tiles the job: launch, then map, then
    // shuffle, then reduce; the last event ends at the job's sim time.
    let launch = events
        .iter()
        .find(|e| e.phase == TracePhase::Launch)
        .unwrap();
    assert_eq!(launch.sim_start_secs, 0.0);
    assert_eq!(launch.sim_end_secs, 2.0);
    let last_end = events.iter().map(|e| e.sim_end_secs).fold(0.0f64, f64::max);
    assert!((last_end - report.sim_secs).abs() < 1e-9);
}

#[test]
fn consecutive_jobs_get_distinct_sequence_numbers_and_offsets() {
    let cluster = traced_cluster(2);
    let spec: JobSpec<usize> = JobSpec::new("first");
    let r1 = run_map_only(&cluster, &spec, &WriteMapper, &[0, 1]).unwrap();
    let spec2: JobSpec<usize> = JobSpec::new("second");
    let r2 = run_map_only(&cluster, &spec2, &WriteMapper, &[2, 3]).unwrap();
    assert_eq!(r1.job_seq + 1, r2.job_seq);

    let events = cluster.trace.events();
    let first_end = events
        .iter()
        .filter(|e| e.job_seq == Some(r1.job_seq))
        .map(|e| e.sim_end_secs)
        .fold(0.0f64, f64::max);
    let second_start = events
        .iter()
        .filter(|e| e.job_seq == Some(r2.job_seq))
        .map(|e| e.sim_start_secs)
        .fold(f64::INFINITY, f64::min);
    assert!(
        second_start >= first_end - 1e-9,
        "job 2 starts after job 1 on the simulated clock"
    );
}

#[test]
fn injected_fault_shows_as_distinct_failed_attempt_with_lost_work() {
    let run = |with_fault: bool| {
        let cluster = traced_cluster(2);
        if with_fault {
            cluster.faults.fail_task("faulty", Phase::Map, 1, 1);
        }
        let spec = JobSpec::new("faulty").reducers(2);
        let (_, report) = run_job(&cluster, &spec, &WriteMapper, &CountReducer, &[0, 1]).unwrap();
        (cluster, report)
    };

    let (clean_cluster, clean_report) = run(false);
    let (faulty_cluster, faulty_report) = run(true);

    let faulty_events = faulty_cluster.trace.events();
    let failed: Vec<_> = faulty_events
        .iter()
        .filter(|e| e.failure.is_some())
        .collect();
    assert_eq!(failed.len(), 1, "exactly the injected failure is recorded");
    assert_eq!(failed[0].failure.as_deref(), Some("injected-fault"));
    assert_eq!(failed[0].phase, TracePhase::Map);
    assert_eq!(failed[0].task, 1);
    assert_eq!(failed[0].attempt, 0);
    // The retry is a separate event with attempt 1.
    let retry = faulty_events
        .iter()
        .find(|e| e.phase == TracePhase::Map && e.task == 1 && e.attempt == 1)
        .expect("retried attempt traced");
    assert!(retry.failure.is_none());
    assert!(
        retry.sim_start_secs >= failed[0].sim_end_secs - 1e-9,
        "retry schedules after"
    );

    // Analytics see the lost work, and the map wave is longer than clean.
    let analytics = analyze(&faulty_events, None);
    assert_eq!(analytics.retried_attempts, 1);
    assert!(analytics.lost_task_secs > 0.0, "nonzero lost work");
    assert!(
        faulty_report.map_wave_secs > clean_report.map_wave_secs,
        "retry stretches the wave"
    );
    assert_eq!(
        clean_cluster
            .trace
            .events()
            .iter()
            .filter(|e| e.failure.is_some())
            .count(),
        0
    );
}

#[test]
fn pipeline_analytics_are_scoped_to_its_jobs() {
    let cluster = traced_cluster(2);
    let mut driver = PipelineDriver::new(&cluster, RunId::new("mine-run"));

    let spec: JobSpec<usize> = JobSpec::new("mine");
    driver
        .step(spec.fingerprint(), |c| {
            run_map_only(c, &spec, &WriteMapper, &[0, 1, 2])
        })
        .unwrap();

    // An unrelated job on the same cluster must not leak in.
    let other: JobSpec<usize> = JobSpec::new("other");
    run_map_only(&cluster, &other, &WriteMapper, &[7]).unwrap();

    let analytics = driver.analytics(&cluster.trace);
    assert_eq!(analytics.waves.len(), 1);
    assert_eq!(analytics.waves[0].job, "mine");
    assert_eq!(analytics.waves[0].tasks, 3);
    assert_eq!(analytics.retried_attempts, 0);
    assert!(analytics.waves[0].p50_secs > 0.0);
    assert!(analytics.waves[0].straggler_ratio >= 1.0);
    // All-I/O tasks (writes only, negligible CPU): attribution leans I/O.
    assert!(analytics.waves[0].cpu_fraction < 0.5);
}

#[test]
fn chrome_export_of_a_real_run_parses_and_spans_match() {
    let cluster = traced_cluster(3);
    let spec = JobSpec::new("export-job").reducers(2);
    run_job(&cluster, &spec, &WriteMapper, &CountReducer, &[0, 1, 2, 3]).unwrap();
    let mut driver = PipelineDriver::new(&cluster, RunId::new("export"));
    driver.run_on_master(|_| (1 + 1, Default::default()));

    let events = cluster.trace.events();
    let master: Vec<&str> = events
        .iter()
        .filter(|e| e.phase == TracePhase::Master)
        .map(|e| e.job.as_str())
        .collect();
    assert_eq!(master, ["master"], "master: master");
    let json = chrome_trace_json(&events);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let spans = doc.get("traceEvents").unwrap().as_array().unwrap();
    let complete = spans
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert_eq!(
        complete,
        events.len(),
        "one complete span per recorded event"
    );
    // The master span rides on pid 0; the job is its own process.
    let pids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()))
        .collect();
    assert!(pids.contains(&0), "cluster/master process present");
    assert_eq!(pids.len(), 2, "one job process + the cluster process");
}

#[test]
fn tracing_disabled_records_nothing_and_reports_are_identical() {
    let run = |tracing: bool| {
        let mut cfg = ClusterConfig::medium(2);
        cfg.cost = CostModel::unit_for_tests();
        cfg.tracing = tracing;
        let cluster = Cluster::new(cfg);
        let spec = JobSpec::new("job").reducers(2);
        let (out, report) =
            run_job(&cluster, &spec, &WriteMapper, &CountReducer, &[0, 1, 2]).unwrap();
        (cluster, out, report)
    };
    let (off_cluster, off_out, off_report) = run(false);
    let (on_cluster, on_out, on_report) = run(true);

    assert!(
        off_cluster.trace.is_empty(),
        "disabled tracing records nothing"
    );
    assert!(!on_cluster.trace.is_empty());
    assert_eq!(off_out, on_out);
    // Simulated time prices counted work, so tracing changes nothing.
    assert!(off_report.sim_secs > 0.0);
    assert_eq!(off_report.sim_secs, on_report.sim_secs);
    assert_eq!(off_report.failures, on_report.failures);
    assert_eq!(off_report.map_tasks, on_report.map_tasks);
    assert_eq!(off_report.reduce_tasks, on_report.reduce_tasks);
}

#[test]
fn user_errors_are_traced_with_their_message() {
    struct FailOnce;
    impl Mapper for FailOnce {
        type Input = usize;
        type Key = usize;
        type Value = usize;
        fn map(&self, input: &usize, ctx: &mut MapContext<usize, usize>) -> Result<(), MrError> {
            let marker = format!("marker/{input}");
            if !ctx.exists(&marker) {
                ctx.write(&marker, Bytes::from_static(b"x"));
                return Err(MrError::Other("disk hiccup".into()));
            }
            Ok(())
        }
    }
    let cluster = traced_cluster(1);
    let spec: JobSpec<usize> = JobSpec::new("flaky");
    run_map_only(&cluster, &spec, &FailOnce, &[5]).unwrap();
    let events = cluster.trace.events();
    let failed: Vec<_> = events.iter().filter(|e| e.failure.is_some()).collect();
    assert_eq!(failed.len(), 1);
    let cause = failed[0].failure.as_deref().unwrap();
    assert!(cause.starts_with("user-error:"), "cause {cause:?}");
    assert!(cause.contains("disk hiccup"));
}
