//! Priced computation on the MapReduce master node.
//!
//! The paper decomposes blocks of order at most `nb` *on the master node*
//! (Section 4.2): "we decompose such small matrices in the MapReduce master
//! node using Algorithm 1". While one node computes, the rest of the
//! cluster waits — which is why combining intermediate files on the master
//! hurts (Section 6.1) and why `nb` is tuned so a master-side LU costs
//! about one job launch (Section 5).
//!
//! [`run_on_master`] executes a closure that returns its result and the
//! work it counted, charges that work at the master's rates to the
//! cluster's simulated clock, records a `master` span on the cluster's
//! driver track, and returns the result. It also times the closure: the
//! span's `cpu_secs` is measured wall time, which observability reads and
//! pricing never does.

use std::time::Instant;

use crate::cluster::Cluster;
use crate::job::TaskStats;
use crate::tracelog::{TaskEvent, TracePhase};

/// Runs `f` on the master node. `f` returns its result and its counted
/// work (flops, and the bytes it coded), which is charged to the cluster's
/// simulated clock as serial master-side work
/// (`crate::CostModel::master_work_secs`). The call appears in exported
/// traces as a `master` span on the cluster's driver track, between job
/// processes, and in `mrinv_master_call_seconds`.
pub fn run_on_master<T>(cluster: &Cluster, f: impl FnOnce() -> (T, TaskStats)) -> T {
    const LABEL: &str = "master";
    let sim_start = cluster.sim_secs();
    let start = Instant::now();
    let (out, work) = f();
    let elapsed = start.elapsed();
    let secs = cluster.config.cost.master_work_secs(&work);
    cluster.metrics.add_master_time(secs);
    let obs = cluster.metrics.obs();
    if obs.is_enabled() {
        obs.histogram(
            "mrinv_master_call_seconds",
            &crate::obs::Labels::new().task_kind(LABEL),
        )
        .observe(secs);
    }
    if cluster.trace.is_enabled() {
        cluster.trace.record(TaskEvent {
            cpu_secs: elapsed.as_secs_f64(),
            flops: work.flops,
            cpu_sim_secs: secs,
            ..TaskEvent::span(LABEL, None, TracePhase::Master, sim_start, sim_start + secs)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::simtime::{CostModel, MASTER_SPEEDUP};

    #[test]
    fn master_work_advances_the_clock() {
        let mut cfg = ClusterConfig::medium(4);
        cfg.tracing = true;
        cfg.cost = CostModel {
            flops_per_sec: 1.0,
            codec_bytes_per_sec: 2.0,
            ..CostModel::unit_for_tests()
        };
        let cluster = Cluster::new(cfg);
        let work = TaskStats {
            flops: 640,
            read_bytes: 64,
            write_bytes: 64,
            ..TaskStats::default()
        };
        let result = run_on_master(&cluster, || (42, work));
        assert_eq!(result, 42);
        let snap = cluster.metrics.snapshot();
        assert_eq!(snap.master_secs, (640.0 + 128.0 / 2.0) / MASTER_SPEEDUP);
        assert_eq!(snap.sim_secs, snap.master_secs);
        let events = cluster.trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].flops, 640);
        assert_eq!(events[0].cpu_sim_secs, 11.0);
        assert_eq!(events[0].sim_end_secs, 11.0);
    }

    #[test]
    fn master_result_is_returned() {
        let cluster = Cluster::medium(1);
        let v = run_on_master(&cluster, || (vec![1, 2, 3], TaskStats::default()));
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(cluster.metrics.snapshot().master_secs, 0.0);
    }
}
