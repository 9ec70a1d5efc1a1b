//! Timed computation on the MapReduce master node.
//!
//! The paper decomposes blocks of order at most `nb` *on the master node*
//! (Section 4.2): "we decompose such small matrices in the MapReduce master
//! node using Algorithm 1". While one node computes, the rest of the
//! cluster waits — which is why combining intermediate files on the master
//! hurts (Section 6.1) and why `nb` is tuned so a master-side LU costs
//! about one job launch (Section 5).
//!
//! [`run_on_master`] executes a closure, measures it, charges the scaled
//! time to the cluster's simulated clock, records a `master` span on the
//! cluster's driver track, and returns the result.

use std::time::Instant;

use crate::cluster::Cluster;
use crate::tracelog::{TaskEvent, TracePhase};

/// Runs `f` on the master node, charging its measured (scaled) time to the
/// cluster's simulated clock as serial master-side work. The call appears
/// in exported traces as a `master` span on the cluster's driver track,
/// between job processes, and in `mrinv_master_call_seconds`.
pub fn run_on_master<T>(cluster: &Cluster, f: impl FnOnce() -> T) -> T {
    const LABEL: &str = "master";
    let sim_start = cluster.sim_secs();
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    let secs = cluster.config.cost.master_secs(elapsed);
    cluster.metrics.add_master_secs(secs);
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
    use crate::simtime::CostModel;

    #[test]
    fn master_work_advances_the_clock() {
        let mut cfg = ClusterConfig::medium(4);
        cfg.cost = CostModel {
            master_compute_scale: 1000.0,
            ..CostModel::unit_for_tests()
        };
        let cluster = Cluster::new(cfg);
        let result = run_on_master(&cluster, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(result, 42);
        let snap = cluster.metrics.snapshot();
        assert!(snap.master_secs >= 5.0, "5 ms at scale 1000 is >= 5 s");
        assert!((snap.sim_secs - snap.master_secs).abs() < 1e-12);
    }

    #[test]
    fn master_result_is_returned() {
        let cluster = Cluster::medium(1);
        let v = run_on_master(&cluster, || vec![1, 2, 3]);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
