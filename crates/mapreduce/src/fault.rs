//! Deterministic task-failure injection.
//!
//! Section 7.4 of the paper reports a run in which one mapper computing a
//! triangular inverse failed and was re-executed after another mapper's
//! slot freed up, stretching the run from 5 to 8 hours — a demonstration of
//! MapReduce fault tolerance. [`FaultPlan`] reproduces such scenarios
//! deterministically: rules select (job, phase, task) coordinates and a
//! number of attempts to kill; the runner consults the plan before
//! accepting each attempt's output and retries failed attempts on another
//! virtual node, charging the lost work to the schedule.

use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Which half of a job a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Map phase.
    Map,
    /// Reduce phase.
    Reduce,
}

/// Why a task attempt was treated as failed — recorded into the trace
/// log's [`crate::tracelog::TaskEvent::failure`] field so injected faults,
/// retried user errors, node deaths, and timeouts stay distinguishable in
/// exported traces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FailureCause {
    /// The fault plan killed the attempt (its node "died").
    Injected,
    /// The task body returned a user-visible error and was retried.
    UserError(String),
    /// The attempt was running on a node when [`FaultPlan::kill_node`]
    /// killed it mid-wave.
    NodeLost(usize),
    /// The attempt had *completed* on the node that died, but its map
    /// output lived only on that node's local disk (Hadoop semantics: map
    /// output is not in the DFS) and the task had to re-execute.
    OutputLost(usize),
    /// The attempt exceeded the cluster's task timeout
    /// ([`crate::cluster::ClusterConfig::task_timeout_secs`]) and was
    /// declared dead.
    TimedOut {
        /// The timeout that was exceeded, seconds.
        limit_secs: f64,
    },
    /// The real worker process running the attempt died (or stopped
    /// responding) under a multi-process backend
    /// ([`crate::exec::tcp::TcpWorkers`]); the attempt was retried on a
    /// surviving worker.
    WorkerLost(usize),
}

impl FailureCause {
    /// Stable string label stored in trace events.
    pub(crate) fn label(&self) -> String {
        match self {
            FailureCause::Injected => "injected-fault".to_string(),
            FailureCause::UserError(msg) => format!("user-error: {msg}"),
            FailureCause::NodeLost(node) => format!("node-lost: node {node}"),
            FailureCause::OutputLost(node) => format!("map-output-lost: node {node}"),
            FailureCause::TimedOut { limit_secs } => {
                format!("timeout: exceeded {limit_secs}s")
            }
            FailureCause::WorkerLost(worker) => format!("worker-lost: worker {worker}"),
        }
    }

    /// Bounded-cardinality failure class, used as the `task_kind` label
    /// on failure-counter series (no node index or message payload, so
    /// the label set stays small).
    pub(crate) fn kind_label(&self) -> &'static str {
        match self {
            FailureCause::Injected => "injected",
            FailureCause::UserError(_) => "user-error",
            FailureCause::NodeLost(_) => "node-lost",
            FailureCause::OutputLost(_) => "output-lost",
            FailureCause::TimedOut { .. } => "timeout",
            FailureCause::WorkerLost(_) => "worker-lost",
        }
    }
}

/// A scheduled node death: node `node` dies `after_secs` onto the
/// simulated clock. `fired` flips once the runner has applied it.
#[derive(Debug, Clone)]
struct NodeDeath {
    node: usize,
    after_secs: f64,
    fired: bool,
}

/// One injection rule: fail the first `attempts_to_fail` attempts of the
/// matching task.
#[derive(Debug)]
struct FaultRule {
    /// Substring matched against the job name (`""` matches every job).
    job_contains: String,
    phase: Phase,
    task_index: usize,
    remaining: AtomicU32,
}

/// A set of failure-injection rules shared by a cluster.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Mutex<Vec<FaultRule>>,
    injected: AtomicU32,
    /// Scheduled whole-node deaths ([`FaultPlan::kill_node`]).
    node_deaths: Mutex<Vec<NodeDeath>>,
}

impl FaultPlan {
    /// An empty plan (no failures).
    pub(crate) fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a rule: the first `attempts` attempts of task `task_index` in
    /// phase `phase` of any job whose name contains `job_contains` will
    /// fail.
    pub fn fail_task(&self, job_contains: &str, phase: Phase, task_index: usize, attempts: u32) {
        self.rules.lock().push(FaultRule {
            job_contains: job_contains.to_string(),
            phase,
            task_index,
            remaining: AtomicU32::new(attempts),
        });
    }

    /// Consulted by the runner for each task attempt; returns true when the
    /// attempt must be treated as failed (and consumes one failure budget).
    pub(crate) fn should_fail(&self, job: &str, phase: Phase, task_index: usize) -> bool {
        let rules = self.rules.lock();
        for rule in rules.iter() {
            if rule.phase == phase
                && rule.task_index == task_index
                && (rule.job_contains.is_empty() || job.contains(&rule.job_contains))
            {
                // Atomically decrement if positive.
                let mut cur = rule.remaining.load(Ordering::Relaxed);
                while cur > 0 {
                    match rule.remaining.compare_exchange_weak(
                        cur,
                        cur - 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            self.injected.fetch_add(1, Ordering::Relaxed);
                            return true;
                        }
                        Err(now) => cur = now,
                    }
                }
            }
        }
        false
    }

    /// Total failures injected so far.
    pub fn injected_count(&self) -> u32 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Schedules the death of virtual node `node` at `after_secs` on the
    /// simulated clock. When the runner's clock passes that instant the
    /// node is removed from service: its in-flight attempts fail
    /// ([`FailureCause::NodeLost`]), map outputs it hosted are lost and
    /// re-executed ([`FailureCause::OutputLost`]), and its DFS replicas
    /// are invalidated ([`crate::dfs::Dfs::kill_node`]).
    pub fn kill_node(&self, node: usize, after_secs: f64) {
        self.node_deaths.lock().push(NodeDeath {
            node,
            after_secs,
            fired: false,
        });
    }

    /// Deaths scheduled at or before `now_secs` that have not fired yet;
    /// marks them fired. The runner applies each exactly once.
    pub(crate) fn deaths_due(&self, now_secs: f64) -> Vec<(usize, f64)> {
        let mut deaths = self.node_deaths.lock();
        let mut due = Vec::new();
        for d in deaths.iter_mut() {
            if !d.fired && d.after_secs <= now_secs {
                d.fired = true;
                due.push((d.node, d.after_secs));
            }
        }
        due
    }

    /// The earliest death that has not fired yet, as `(node, after_secs)`.
    pub(crate) fn pending_death(&self) -> Option<(usize, f64)> {
        self.node_deaths
            .lock()
            .iter()
            .filter(|d| !d.fired)
            .min_by(|a, b| a.after_secs.total_cmp(&b.after_secs))
            .map(|d| (d.node, d.after_secs))
    }

    /// Nodes whose scheduled death has already fired.
    pub(crate) fn dead_nodes(&self) -> std::collections::BTreeSet<usize> {
        self.node_deaths
            .lock()
            .iter()
            .filter(|d| d.fired)
            .map(|d| d.node)
            .collect()
    }

    /// Removes all rules and unfired node deaths.
    /// Fired deaths are history — the node stays dead.
    pub fn clear(&self) {
        self.rules.lock().clear();
        self.node_deaths.lock().retain(|d| d.fired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let p = FaultPlan::none();
        assert!(!p.should_fail("job", Phase::Map, 0));
        assert_eq!(p.injected_count(), 0);
    }

    #[test]
    fn rule_fails_exactly_n_attempts() {
        let p = FaultPlan::none();
        p.fail_task("lu", Phase::Map, 2, 2);
        assert!(p.should_fail("lu-job-3", Phase::Map, 2));
        assert!(p.should_fail("lu-job-3", Phase::Map, 2));
        assert!(
            !p.should_fail("lu-job-3", Phase::Map, 2),
            "budget exhausted"
        );
        assert_eq!(p.injected_count(), 2);
    }

    #[test]
    fn rule_matches_job_phase_and_task() {
        let p = FaultPlan::none();
        p.fail_task("inv", Phase::Reduce, 1, 10);
        assert!(!p.should_fail("inv", Phase::Map, 1), "wrong phase");
        assert!(!p.should_fail("inv", Phase::Reduce, 0), "wrong task");
        assert!(!p.should_fail("partition", Phase::Reduce, 1), "wrong job");
        assert!(p.should_fail("final-inv", Phase::Reduce, 1));
    }

    #[test]
    fn empty_job_pattern_matches_all_jobs() {
        let p = FaultPlan::none();
        p.fail_task("", Phase::Map, 0, 1);
        assert!(p.should_fail("anything", Phase::Map, 0));
    }

    #[test]
    fn clear_removes_rules() {
        let p = FaultPlan::none();
        p.fail_task("", Phase::Map, 0, 5);
        p.clear();
        assert!(!p.should_fail("x", Phase::Map, 0));
    }

    #[test]
    fn node_deaths_fire_once_and_survive_clear() {
        let p = FaultPlan::none();
        p.kill_node(3, 100.0);
        p.kill_node(1, 50.0);
        assert_eq!(p.pending_death(), Some((1, 50.0)), "earliest unfired");
        assert!(p.dead_nodes().is_empty());
        assert!(p.deaths_due(49.9).is_empty());
        assert_eq!(p.deaths_due(60.0), vec![(1, 50.0)]);
        assert!(p.deaths_due(60.0).is_empty(), "fired deaths do not repeat");
        assert_eq!(p.dead_nodes().into_iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(p.pending_death(), Some((3, 100.0)));
        // clear drops the unfired death but keeps node 1 dead.
        p.clear();
        assert_eq!(p.pending_death(), None);
        assert_eq!(p.dead_nodes().into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn failure_cause_labels_are_stable() {
        assert_eq!(FailureCause::NodeLost(5).label(), "node-lost: node 5");
        assert_eq!(
            FailureCause::OutputLost(2).label(),
            "map-output-lost: node 2"
        );
        assert_eq!(
            FailureCause::TimedOut { limit_secs: 30.0 }.label(),
            "timeout: exceeded 30s"
        );
    }

    #[test]
    fn concurrent_consumption_respects_budget() {
        use std::sync::Arc;
        let p = Arc::new(FaultPlan::none());
        p.fail_task("", Phase::Map, 0, 100);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    (0..50)
                        .filter(|_| p.should_fail("j", Phase::Map, 0))
                        .count()
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100, "exactly the budgeted failures fire");
    }
}
