//! The simulated cluster: DFS + configuration + fault plan, plus the two
//! values every job reads back (the simulated clock and the job sequence)
//! and the labeled observability registry.

use std::sync::Arc;

use crate::dfs::Dfs;
use crate::exec::{ExecBackend, InProcess, TaskRegistry};
use crate::fault::FaultPlan;
use crate::obs::{Counter, Gauge, Labels, Registry};
use crate::simtime::CostModel;
use crate::tracelog::TraceLog;

/// Maximum attempts per task before the job fails (Hadoop's
/// `mapred.map.max.attempts` default).
pub(crate) const MAX_TASK_ATTEMPTS: u32 = 4;

/// First retry-after-timeout backoff delay, *simulated* seconds (doubles
/// per consecutive timeout of the same task). Priced by the wave planner
/// only: no real retry waits on it.
pub(crate) const RETRY_BACKOFF_BASE_SECS: f64 = 1.0;

/// Upper bound on the timeout-retry backoff delay, simulated seconds.
pub(crate) const RETRY_BACKOFF_CAP_SECS: f64 = 60.0;

/// Static cluster shape and pricing.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of compute nodes, the paper's `m0`.
    pub nodes: usize,
    /// Concurrent task slots per node (Hadoop 1.x map slots).
    pub slots_per_node: usize,
    /// Per-node speed factors (1.0 = nominal). Empty means homogeneous.
    /// The paper observes high variance between supposedly identical EC2
    /// instances (Section 7.4); populate this to model it.
    pub node_speeds: Vec<f64>,
    /// Hadoop-style speculative execution: back up each wave's
    /// makespan-defining straggler on the slot that would finish it first
    /// (`crate::scheduler::speculate`; on by default, as in Hadoop).
    pub speculative_execution: bool,
    /// Record one [`crate::tracelog::TaskEvent`] per task attempt (off by
    /// default: tracing costs one atomic load per event site when
    /// disabled, and nothing else).
    pub tracing: bool,
    /// Record labeled metrics (per-job/wave/node latency histograms,
    /// utilization, failure classes) in the cluster's
    /// [`crate::obs::Registry`]. Off by default with the same contract as
    /// [`ClusterConfig::tracing`]: one relaxed atomic load per disabled
    /// recording site.
    pub observability: bool,
    /// Print a live progress line to stderr as the pipeline driver steps
    /// through jobs (jobs done, simulated seconds, model-predicted ETA).
    /// Off by default.
    pub progress: bool,
    /// Declare a task attempt dead once its simulated duration exceeds
    /// this many seconds (Hadoop's `mapred.task.timeout`). `None` (the
    /// default) disables timeouts. Timed-out attempts are retried on
    /// another node with capped exponential backoff (1 simulated second
    /// doubling, up to 60).
    pub task_timeout_secs: Option<f64>,
    /// Pricing of compute, disk, network, and job launches.
    pub cost: CostModel,
}

impl ClusterConfig {
    /// A cluster of `nodes` EC2-medium-like nodes (Section 7.1).
    pub fn medium(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            slots_per_node: 1,
            node_speeds: Vec::new(),
            speculative_execution: true,
            tracing: false,
            observability: false,
            progress: false,
            task_timeout_secs: None,
            cost: CostModel::ec2_medium(),
        }
    }

    /// A cluster of `nodes` EC2-large-like nodes (two cores each,
    /// Section 7.4).
    pub fn large(nodes: usize) -> Self {
        ClusterConfig {
            slots_per_node: 2,
            cost: CostModel::ec2_large(),
            ..ClusterConfig::medium(nodes)
        }
    }

    /// The paper's block-wrap factorization of `m0 = f1 × f2` (Section
    /// 6.2): `f2 ≤ f1`, both factors of `m0`, with no other factor of `m0`
    /// between them (i.e. the most-square factorization).
    pub fn block_wrap_factors(&self) -> (usize, usize) {
        factor_pair(self.nodes)
    }

    /// Per-node speed factors expanded to the cluster size (1.0 where
    /// unspecified).
    pub(crate) fn speeds(&self) -> Vec<f64> {
        let mut v = self.node_speeds.clone();
        v.resize(self.nodes.max(1), 1.0);
        v
    }
}

/// Most-square factorization `m0 = f1 × f2` with `f2 ≤ f1`.
pub fn factor_pair(m0: usize) -> (usize, usize) {
    let m0 = m0.max(1);
    let mut f2 = (m0 as f64).sqrt() as usize;
    while f2 > 1 && !m0.is_multiple_of(f2) {
        f2 -= 1;
    }
    let f2 = f2.max(1);
    (m0 / f2, f2)
}

/// A running cluster instance, shared across jobs via `Arc`.
#[derive(Debug)]
pub struct Cluster {
    /// The distributed file system.
    pub dfs: Arc<Dfs>,
    /// Static configuration.
    pub config: ClusterConfig,
    /// The labeled observability registry.
    obs: Registry,
    /// The simulated clock, seconds: the registry's always-on
    /// `mrinv_sim_seconds` series. Jobs and master calls advance it; a run
    /// keeps its own sum ([`crate::driver::PipelineDriver`]).
    clock: Arc<Gauge>,
    /// The cluster-wide job sequence: the registry's always-on
    /// `mrinv_jobs_total` series.
    jobs: Arc<Counter>,
    /// Failure-injection plan.
    pub faults: FaultPlan,
    /// Per-task-attempt event log (recording only when enabled — via
    /// [`ClusterConfig::tracing`] or `crate::tracelog::TraceLog::enable`).
    pub trace: TraceLog,
    /// How task attempts execute ([`InProcess`] by default).
    backend: Arc<dyn ExecBackend>,
    /// Named map/reduce families a remote backend can ship to workers.
    registry: Arc<TaskRegistry>,
}

impl Cluster {
    /// Creates a cluster with a fresh DFS.
    pub fn new(config: ClusterConfig) -> Self {
        let trace = TraceLog::disabled();
        if config.tracing {
            trace.enable();
        }
        let obs = Registry::default();
        obs.set_enabled(config.observability);
        Cluster {
            // Blocks are placed across the cluster's own nodes, so a node
            // death can take DFS replicas down with it.
            dfs: Arc::new(Dfs::with_nodes(config.cost.replication, config.nodes)),
            config,
            clock: obs.gauge("mrinv_sim_seconds", &Labels::new()),
            jobs: obs.counter("mrinv_jobs_total", &Labels::new()),
            obs,
            faults: FaultPlan::none(),
            trace,
            backend: Arc::new(InProcess),
            registry: Arc::new(TaskRegistry::new()),
        }
    }

    /// The execution backend task attempts dispatch through.
    pub(crate) fn backend(&self) -> &Arc<dyn ExecBackend> {
        &self.backend
    }

    /// Replaces the execution backend (default: `InProcess`).
    pub fn set_backend(&mut self, backend: Arc<dyn ExecBackend>) {
        self.backend = backend;
    }

    /// The registry of named task families available for remote execution.
    pub(crate) fn registry(&self) -> &Arc<TaskRegistry> {
        &self.registry
    }

    /// Installs the task registry a remote backend resolves
    /// [`crate::job::JobSpec::remote`] families against.
    pub fn set_registry(&mut self, registry: Arc<TaskRegistry>) {
        self.registry = registry;
    }

    /// Convenience: a medium cluster of `nodes` nodes.
    pub fn medium(nodes: usize) -> Self {
        Cluster::new(ClusterConfig::medium(nodes))
    }

    /// Number of nodes (`m0`).
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// The labeled observability registry. Recording sites check
    /// `Registry::is_enabled` first; only the clock and the job sequence
    /// are recorded whether or not it is on.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// The simulated clock, seconds.
    pub(crate) fn sim_secs(&self) -> f64 {
        self.clock.get()
    }

    /// Advances the simulated clock (lock-free: a CAS loop over the f64
    /// bit pattern).
    pub(crate) fn advance_clock(&self, secs: f64) {
        self.clock.add(secs);
    }

    /// The next job's cluster-wide 0-based sequence number (its trace
    /// identity).
    pub(crate) fn next_job_seq(&self) -> u64 {
        self.jobs.fetch_add(1)
    }

    /// Full observability snapshot: every registry series plus the DFS
    /// byte counters and the replica-hit (data-local read) ratio bridged
    /// in as series, ready for Prometheus/JSON export. The ratio reads the
    /// registry's map-locality totals (1.0 when none were recorded).
    pub fn obs_snapshot(&self) -> crate::obs::ObsSnapshot {
        let mut snap = self.obs.snapshot();
        self.dfs.obs_series(&mut snap);
        let total = |name: &str| {
            let mut series = snap.counters.iter();
            let total = series.find(|c| c.name == name && c.labels == Labels::new());
            total.map_or(0, |c| c.value)
        };
        let local = total("mrinv_data_local_map_tasks_total");
        let tasks = local + total("mrinv_remote_map_tasks_total");
        let ratio = if tasks == 0 {
            1.0
        } else {
            local as f64 / tasks as f64
        };
        snap.push_gauge("mrinv_dfs_replica_hit_ratio", Labels::new(), ratio);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_pair_most_square() {
        assert_eq!(factor_pair(64), (8, 8));
        assert_eq!(factor_pair(32), (8, 4));
        assert_eq!(factor_pair(12), (4, 3));
        assert_eq!(factor_pair(7), (7, 1));
        assert_eq!(factor_pair(1), (1, 1));
        assert_eq!(factor_pair(0), (1, 1));
        assert_eq!(factor_pair(2), (2, 1));
        assert_eq!(factor_pair(36), (6, 6));
    }

    #[test]
    fn factor_pair_invariants() {
        for m0 in 1..200 {
            let (f1, f2) = factor_pair(m0);
            assert_eq!(f1 * f2, m0);
            assert!(f2 <= f1);
            // No factor of m0 strictly between f2 and f1 closer to sqrt.
            for g in (f2 + 1)..=((m0 as f64).sqrt() as usize) {
                assert!(m0 % g != 0, "better factor {g} exists for {m0}");
            }
        }
    }

    #[test]
    fn cluster_profiles() {
        let c = Cluster::medium(16);
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.config.slots_per_node, 1);
        assert_eq!(c.config.block_wrap_factors(), (4, 4));
        let names: Vec<String> = (0..64).map(|i| format!("f{i}")).collect();
        for name in &names {
            c.dfs.write(name, bytes::Bytes::new());
        }
        let homes = |name: &str| c.dfs.read(name).unwrap().1.to_vec();
        assert_eq!(homes("f0").len(), 3, "3 replicas per file");
        let homes: std::collections::BTreeSet<usize> =
            names.iter().flat_map(|name| homes(name)).collect();
        assert_eq!(homes.len(), 16, "DFS places blocks across m0 nodes");
        assert_eq!(c.config.task_timeout_secs, None, "timeouts off by default");
        assert_eq!(c.sim_secs(), 0.0);

        let l = Cluster::new(ClusterConfig::large(128));
        assert_eq!(l.config.slots_per_node, 2);
        assert_eq!(l.config.cost.cores_per_node, 2);
    }
}
