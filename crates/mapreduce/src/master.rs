//! Priced computation on the MapReduce master node.
//!
//! The paper decomposes blocks of order at most `nb` *on the master node*
//! (Section 4.2): "we decompose such small matrices in the MapReduce master
//! node using Algorithm 1". While one node computes, the rest of the
//! cluster waits — which is why combining intermediate files on the master
//! hurts (Section 6.1) and why `nb` is tuned so a master-side LU costs
//! about one job launch (Section 5).
//!
//! A run enters the master through
//! [`crate::driver::PipelineDriver::run_on_master`], which hands
//! [`run_on_master`] a fresh accounted DFS handle and adds what the call
//! charged, and the handle's bytes, to the run's ledger. The call executes
//! a closure that returns its result and the work it counted, charges that
//! work at the master's rates to the cluster's simulated clock, records a
//! `master` span on the cluster's driver track, and then charges the
//! handle's disk traffic. It also times the closure: the span's `cpu_secs`
//! is measured wall time, which observability reads and pricing never
//! does.

use std::time::Instant;

use crate::cluster::Cluster;
use crate::job::{TaskIo, TaskStats};
use crate::obs::Labels;
use crate::tracelog::{TaskEvent, TracePhase};

/// Runs `f` on the master node over `io`. `f` returns its result and its
/// counted work (flops, and the bytes it coded), charged to the cluster's
/// simulated clock as serial master-side work
/// (`crate::CostModel::master_work_secs`); then the bytes `io` moved are
/// charged at disk rates. The work appears in exported traces as a
/// `master` span on the cluster's driver track, between job processes,
/// and in `mrinv_master_call_seconds`; both charges in
/// `mrinv_master_seconds`. Returns the result and the two charges, in the
/// order they reached the clock.
pub(crate) fn run_on_master<T>(
    cluster: &Cluster,
    io: &mut TaskIo,
    f: impl FnOnce(&mut TaskIo) -> (T, TaskStats),
) -> (T, [f64; 2]) {
    const LABEL: &str = "master";
    let cost = &cluster.config.cost;
    let sim_start = cluster.sim_secs();
    let start = Instant::now();
    let (out, work) = f(io);
    let elapsed = start.elapsed();
    let secs = cost.master_work_secs(&work);
    cluster.advance_clock(secs);
    let disk_secs = cost.disk_secs(io.stats());
    cluster.advance_clock(disk_secs);
    let obs = cluster.obs();
    if obs.is_enabled() {
        obs.histogram("mrinv_master_call_seconds", &Labels::new().task_kind(LABEL))
            .observe(secs);
        let total = obs.gauge("mrinv_master_seconds", &Labels::new());
        total.add(secs);
        total.add(disk_secs);
    }
    if cluster.trace.is_enabled() {
        cluster.trace.record(TaskEvent {
            cpu_secs: elapsed.as_secs_f64(),
            flops: work.flops,
            cpu_sim_secs: secs,
            ..TaskEvent::span(LABEL, None, TracePhase::Master, sim_start, sim_start + secs)
        });
    }
    (out, [secs, disk_secs])
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::driver::{PipelineDriver, RunId};
    use crate::job::TaskStats;
    use crate::simtime::{CostModel, MASTER_SPEEDUP};
    use bytes::Bytes;

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
        let mut driver = PipelineDriver::new(&cluster, RunId::new("m"));
        let result = driver.run_on_master(|io| {
            io.write("m/out", Bytes::from_static(b"12345678"));
            (42, work)
        });
        assert_eq!(result, 42);
        let report = driver.finish(0, 0);
        // The work at the master's rates, then the handle's 8 bytes at
        // unit disk rates.
        let work_secs = (640.0 + 128.0 / 2.0) / MASTER_SPEEDUP;
        assert_eq!(report.master_secs, work_secs + 8.0);
        assert_eq!(report.sim_secs, report.master_secs);
        assert_eq!(cluster.sim_secs(), report.sim_secs);
        assert_eq!(report.dfs_bytes_written, 8);
        let events = cluster.trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].flops, 640);
        assert_eq!(events[0].cpu_sim_secs, 11.0);
        assert_eq!(events[0].sim_end_secs, 11.0, "the span is the work alone");
    }

    #[test]
    fn master_result_is_returned() {
        let cluster = Cluster::medium(1);
        let mut driver = PipelineDriver::new(&cluster, RunId::new("m"));
        let v = driver.run_on_master(|_| (vec![1, 2, 3], TaskStats::default()));
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(driver.finish(0, 0).master_secs, 0.0);
    }
}
