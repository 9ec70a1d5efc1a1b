//! Cluster-wide execution metrics: the always-on run ledger.
//!
//! [`ClusterMetrics`] keeps the ten cluster-global totals every run is
//! accounted in — jobs, map/reduce tasks, failures, shuffle bytes, map
//! locality, simulated and master seconds — and [`MetricsSnapshot`] is a
//! point-in-time copy of them. They are exactly what
//! [`crate::driver::PipelineDriver::finish`] subtracts (snapshot at driver
//! start, snapshot at finish) to produce a run's report, which is why
//! they count whether or not observability is enabled. Each total is an
//! unlabeled series of the labeled [`Registry`] held through a cached
//! `Arc` handle, so the hot path is handle atomics only — no map lookup,
//! no lock — and the same numbers appear in the registry's exports. The
//! simulated-time accumulators are [`Gauge`]s over `AtomicU64` f64 bit
//! patterns, making the whole metrics path lock-free.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::obs::{Counter, Gauge, Labels, Registry};

/// Live counters accumulated across jobs on one cluster, plus the labeled
/// observability registry the rich per-job/per-node series live in.
#[derive(Debug)]
pub struct ClusterMetrics {
    obs: Registry,
    jobs: Arc<Counter>,
    map_tasks: Arc<Counter>,
    reduce_tasks: Arc<Counter>,
    task_failures: Arc<Counter>,
    shuffle_bytes: Arc<Counter>,
    data_local_map_tasks: Arc<Counter>,
    remote_map_tasks: Arc<Counter>,
    remote_read_bytes: Arc<Counter>,
    sim_secs: Arc<Gauge>,
    master_secs: Arc<Gauge>,
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        let obs = Registry::default();
        let counter = |name| obs.counter(name, &Labels::new());
        let gauge = |name| obs.gauge(name, &Labels::new());
        ClusterMetrics {
            jobs: counter("mrinv_jobs_total"),
            map_tasks: counter("mrinv_map_tasks_total"),
            reduce_tasks: counter("mrinv_reduce_tasks_total"),
            task_failures: counter("mrinv_task_failures_total"),
            shuffle_bytes: counter("mrinv_shuffle_bytes_total"),
            data_local_map_tasks: counter("mrinv_data_local_map_tasks_total"),
            remote_map_tasks: counter("mrinv_remote_map_tasks_total"),
            remote_read_bytes: counter("mrinv_remote_read_bytes_total"),
            sim_secs: gauge("mrinv_sim_seconds"),
            master_secs: gauge("mrinv_master_seconds"),
            obs,
        }
    }
}

/// A point-in-time copy of [`ClusterMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// MapReduce jobs launched.
    pub jobs: u64,
    /// Map task attempts that succeeded.
    pub map_tasks: u64,
    /// Reduce task attempts that succeeded.
    pub reduce_tasks: u64,
    /// Task attempts that failed (injected or user errors retried).
    pub task_failures: u64,
    /// Bytes moved through the shuffle.
    pub shuffle_bytes: u64,
    /// Map tasks whose successful attempt read all input from replicas on
    /// its own node (tasks that read nothing count as local).
    pub data_local_map_tasks: u64,
    /// Map tasks whose successful attempt pulled input over the network.
    pub remote_map_tasks: u64,
    /// Input bytes map tasks pulled from replicas on other nodes.
    pub remote_read_bytes: u64,
    /// Total simulated wall-clock seconds (jobs + master work).
    pub sim_secs: f64,
    /// Simulated seconds spent computing on the master node.
    pub master_secs: f64,
}

impl ClusterMetrics {
    /// The labeled observability registry behind these counters. Labeled
    /// recording sites must check [`Registry::is_enabled`] first; the
    /// always-on counters below bypass the gate by construction.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Records a launched job, returning its cluster-wide 0-based
    /// sequence number (used as the job's trace identity).
    pub(crate) fn record_job(&self) -> u64 {
        self.jobs.fetch_add(1)
    }

    /// Records completed map tasks.
    pub(crate) fn record_map_tasks(&self, n: u64) {
        self.map_tasks.add(n);
    }

    /// Records completed reduce tasks.
    pub(crate) fn record_reduce_tasks(&self, n: u64) {
        self.reduce_tasks.add(n);
    }

    /// Records failed task attempts.
    pub(crate) fn record_failures(&self, n: u64) {
        self.task_failures.add(n);
    }

    /// Records shuffle volume.
    pub(crate) fn record_shuffle_bytes(&self, n: u64) {
        self.shuffle_bytes.add(n);
    }

    /// Records one map wave's placement quality: how many tasks ran
    /// data-local vs remote, and the bytes the remote ones pulled across
    /// the network.
    pub(crate) fn record_map_locality(&self, local: u64, remote: u64, remote_bytes: u64) {
        self.data_local_map_tasks.add(local);
        self.remote_map_tasks.add(remote);
        self.remote_read_bytes.add(remote_bytes);
    }

    /// Adds simulated seconds to the cluster clock (lock-free: a CAS loop
    /// over the f64 bit pattern).
    pub(crate) fn add_sim_secs(&self, secs: f64) {
        self.sim_secs.add(secs);
    }

    /// Adds simulated master-node compute seconds (also advances the
    /// cluster clock).
    pub fn add_master_time(&self, secs: f64) {
        self.master_secs.add(secs);
        self.add_sim_secs(secs);
    }

    /// Total simulated seconds so far.
    pub(crate) fn sim_secs(&self) -> f64 {
        self.sim_secs.get()
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs: self.jobs.get(),
            map_tasks: self.map_tasks.get(),
            reduce_tasks: self.reduce_tasks.get(),
            task_failures: self.task_failures.get(),
            shuffle_bytes: self.shuffle_bytes.get(),
            data_local_map_tasks: self.data_local_map_tasks.get(),
            remote_map_tasks: self.remote_map_tasks.get(),
            remote_read_bytes: self.remote_read_bytes.get(),
            sim_secs: self.sim_secs.get(),
            master_secs: self.master_secs.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = ClusterMetrics::default();
        m.record_job();
        m.record_job();
        m.record_map_tasks(5);
        m.record_reduce_tasks(3);
        m.record_failures(1);
        m.record_shuffle_bytes(100);
        m.record_map_locality(4, 1, 64);
        m.add_sim_secs(2.5);
        m.add_master_time(1.5);
        let s = m.snapshot();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.map_tasks, 5);
        assert_eq!(s.reduce_tasks, 3);
        assert_eq!(s.task_failures, 1);
        assert_eq!(s.shuffle_bytes, 100);
        assert_eq!(s.data_local_map_tasks, 4);
        assert_eq!(s.remote_map_tasks, 1);
        assert_eq!(s.remote_read_bytes, 64);
        assert!(
            (s.sim_secs - 4.0).abs() < 1e-12,
            "master time advances the clock"
        );
        assert!((s.master_secs - 1.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = ClusterMetrics::default();
        m.record_job();
        m.record_map_tasks(7);
        m.record_shuffle_bytes(4096);
        m.add_sim_secs(12.25);
        m.add_master_time(0.75);
        let s = m.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"jobs\":1"), "json {json}");
        assert!(json.contains("\"shuffle_bytes\":4096"));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn core_counters_appear_in_the_registry_snapshot() {
        let m = ClusterMetrics::default();
        m.record_job();
        m.add_master_time(2.0);
        let obs = m.obs().snapshot();
        let jobs = obs
            .counters
            .iter()
            .find(|c| c.name == "mrinv_jobs_total")
            .expect("core counter registered");
        assert_eq!(jobs.value, 1);
        let sim = obs
            .gauges
            .iter()
            .find(|g| g.name == "mrinv_sim_seconds")
            .expect("sim clock registered");
        assert!((sim.value - 2.0).abs() < 1e-12);
        // Labeled recording stays off until somebody opts in.
        assert!(!m.obs().is_enabled());
    }
}
