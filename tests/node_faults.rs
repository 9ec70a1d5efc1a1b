//! Node-level failure domains at the pipeline level: whole-node deaths,
//! replica loss, locality accounting, and task timeouts — the cluster
//! conditions behind the paper's Section 7.4 fault experiment, where
//! killing workers mid-run stretched a 5-hour inversion to 8 hours but
//! still produced the correct inverse.

use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::tracelog::TracePhase;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel};
use mrinv_matrix::random::random_well_conditioned;

/// Unit-priced cluster with 2-way replication (so one node death never
/// destroys the only copy of a block) and tracing on.
fn cluster(nodes: usize) -> Cluster {
    let mut cfg = ClusterConfig::medium(nodes);
    cfg.cost = CostModel {
        replication: 2,
        ..CostModel::unit_for_tests()
    };
    cfg.tracing = true;
    Cluster::new(cfg)
}

fn attempt_dur(e: &mrinv_mapreduce::tracelog::TaskEvent) -> f64 {
    e.sim_end_secs - e.sim_start_secs
}

#[test]
fn locality_is_accounted_for_every_map_task() {
    let cluster = cluster(4);
    let a = random_well_conditioned(64, 5);
    let out = Request::invert(&a)
        .config(&InversionConfig::with_nb(8))
        .submit(&cluster)
        .unwrap();
    assert!(
        (0.0..=1.0).contains(&out.report.data_local_fraction),
        "fraction {} out of range",
        out.report.data_local_fraction
    );
    let jobs = &out.report.job_reports;
    let map_tasks: usize = jobs.iter().map(|j| j.map_tasks).sum();
    let local: usize = jobs.iter().map(|j| j.data_local_tasks).sum();
    assert!(local <= map_tasks);
    assert_eq!(
        out.report.data_local_fraction,
        local as f64 / map_tasks as f64,
        "every successful map task is classified local or remote"
    );
    let remote_bytes: u64 = jobs.iter().map(|j| j.remote_read_bytes).sum();
    assert_eq!(out.report.remote_read_bytes, remote_bytes);
    if out.report.data_local_fraction == 1.0 {
        assert_eq!(out.report.remote_read_bytes, 0);
    }
}

#[test]
fn a_node_dead_from_the_start_is_survivable_with_replication() {
    let a = random_well_conditioned(64, 17);
    let cfg = InversionConfig::with_nb(8);
    let clean = Request::invert(&a)
        .config(&cfg)
        .submit(&cluster(4))
        .unwrap();

    let c = cluster(4);
    c.faults.kill_node(3, 0.0);
    let out = Request::invert(&a).config(&cfg).submit(&c).unwrap();
    assert_eq!(
        out.inverse()
            .unwrap()
            .max_abs_diff(clean.inverse().unwrap())
            .unwrap(),
        0.0,
        "losing one of two replicas must not change the answer"
    );
    assert!(
        out.report.sim_secs > clean.report.sim_secs,
        "three survivors are slower than four nodes: {} vs {}",
        out.report.sim_secs,
        clean.report.sim_secs
    );
    let events = c.trace.events();
    assert!(
        events
            .iter()
            .any(|e| e.phase == TracePhase::NodeDeath && e.task == 3),
        "the death is an explicit trace marker"
    );
    assert!(
        events
            .iter()
            .filter(|e| matches!(e.phase, TracePhase::Map | TracePhase::Reduce))
            .all(|e| e.node != Some(3)),
        "no attempt is ever placed on the dead node"
    );
}

#[test]
fn a_mid_run_death_loses_in_flight_work_and_still_converges() {
    let a = random_well_conditioned(64, 17);
    let cfg = InversionConfig::with_nb(8);

    // Calibrate on a clean run: find the longest map attempt. Its node
    // runs that same task at the same simulated time in a rerun (the
    // schedule is deterministic up to measured-CPU noise, and the byte
    // costs dominate under the unit model), so a death at its midpoint is
    // guaranteed to catch the node mid-attempt.
    let cc = cluster(4);
    let clean = Request::invert(&a).config(&cfg).submit(&cc).unwrap();
    let victim = cc
        .trace
        .events()
        .into_iter()
        .filter(|e| e.phase == TracePhase::Map)
        .max_by(|x, y| attempt_dur(x).total_cmp(&attempt_dur(y)))
        .expect("the pipeline ran map tasks");
    let t_kill = 0.5 * (victim.sim_start_secs + victim.sim_end_secs);
    let node = victim.node.expect("map attempts carry a node");

    let c = cluster(4);
    c.faults.kill_node(node, t_kill);
    let out = Request::invert(&a).config(&cfg).submit(&c).unwrap();
    assert_eq!(
        out.inverse()
            .unwrap()
            .max_abs_diff(clean.inverse().unwrap())
            .unwrap(),
        0.0,
        "re-executed work must be bit-identical"
    );
    assert!(
        out.report.task_failures >= 1,
        "the in-flight attempt on node {node} at {t_kill} must be lost"
    );
    assert!(
        out.report.sim_secs > clean.report.sim_secs,
        "lost work stretches the run: {} vs {}",
        out.report.sim_secs,
        clean.report.sim_secs
    );
    let events = c.trace.events();
    assert!(
        events.iter().any(|e| {
            e.failure
                .as_deref()
                .is_some_and(|f| f.starts_with("node-lost") || f.starts_with("map-output-lost"))
        }),
        "the lost attempts are visible in the trace"
    );
    assert!(events
        .iter()
        .any(|e| e.phase == TracePhase::NodeDeath && e.task == node));
}

#[test]
fn timeouts_evict_tasks_from_a_degraded_node() {
    let a = random_well_conditioned(64, 17);
    let cfg = InversionConfig::with_nb(8);

    // Calibrate on a clean run: the timeout must exceed every healthy
    // attempt duration, and node 3 must blow through it once degraded.
    let cc = cluster(4);
    let clean = Request::invert(&a).config(&cfg).submit(&cc).unwrap();
    let events = cc.trace.events();
    let longest = events
        .iter()
        .filter(|e| matches!(e.phase, TracePhase::Map | TracePhase::Reduce))
        .map(attempt_dur)
        .fold(0.0f64, f64::max);
    let first_map_job = events
        .iter()
        .filter(|e| e.phase == TracePhase::Map)
        .filter_map(|e| e.job_seq)
        .min()
        .expect("a first map wave exists");
    // Nominal duration of the task the first wave's round 1 puts on node
    // 3 (round-1 placement ignores node speed, so the degraded run
    // schedules the same task there).
    let node3_nominal = events
        .iter()
        .filter(|e| e.phase == TracePhase::Map && e.job_seq == Some(first_map_job))
        .filter(|e| e.node == Some(3))
        .map(attempt_dur)
        .fold(0.0f64, f64::max);
    assert!(node3_nominal > 0.0, "round 1 uses all four nodes");
    let timeout = 1.5 * longest;
    // Slow enough that node 3 needs 2x the timeout for that task.
    let slow = node3_nominal / (2.0 * timeout);

    let mut cfg_cluster = ClusterConfig::medium(4);
    cfg_cluster.cost = CostModel {
        replication: 2,
        ..CostModel::unit_for_tests()
    };
    cfg_cluster.tracing = true;
    cfg_cluster.node_speeds = vec![1.0, 1.0, 1.0, slow];
    cfg_cluster.task_timeout_secs = Some(timeout);
    let c = Cluster::new(cfg_cluster);
    let out = Request::invert(&a).config(&cfg).submit(&c).unwrap();
    assert_eq!(
        out.inverse()
            .unwrap()
            .max_abs_diff(clean.inverse().unwrap())
            .unwrap(),
        0.0,
        "timed-out tasks re-run to the same bits"
    );
    let events = c.trace.events();
    let timed_out: Vec<_> = events
        .iter()
        .filter(|e| {
            e.failure
                .as_deref()
                .is_some_and(|f| f.starts_with("timeout"))
        })
        .collect();
    assert!(
        !timed_out.is_empty(),
        "the degraded node must trip the timeout at least once"
    );
    assert!(
        timed_out.iter().all(|e| e.node == Some(3)),
        "only the degraded node times out"
    );
    assert!(
        out.report.task_failures >= timed_out.len() as u64,
        "timeouts are charged as task failures"
    );
}
