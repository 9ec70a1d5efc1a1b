//! The pipeline driver: job sequencing and run-level accounting.
//!
//! Every job of a pipeline runs through [`PipelineDriver::step`], which
//! owns the sequencing, stamps each [`JobReport`] with the job's
//! fingerprint (the run configuration, the job spec and its position
//! mixed together), and collects the reports that
//! [`PipelineDriver::finish`] hands back in [`RunReport::job_reports`].
//!
//! Fault tolerance is the paper's (Sections 6.6, 7.4): task-level
//! re-execution inside a job. The DFS lives in the driver's process, so
//! nothing written to it outlives a dead driver; a failed run is
//! resubmitted whole.
//!
//! A run gives intermediate files back as it goes:
//! [`PipelineDriver::release`] deletes a file set once its last reader has
//! committed.

use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::dfs::{normalize_path, DfsCountersSnapshot};
use crate::error::Result;
use crate::metrics::MetricsSnapshot;
use crate::runner::JobReport;
use crate::tracelog::{self, PipelineAnalytics, TraceLog};

/// Incremental [FNV-1a] hasher producing fingerprints that are stable
/// across processes and runs (unlike `DefaultHasher`, whose keys are
/// randomized per process), so a job's [`JobReport::fingerprint`] names
/// the same job definition in every run.
///
/// [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fingerprint at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes into the fingerprint.
    pub fn push_bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Mixes one integer (little-endian) into the fingerprint.
    pub fn push_u64(self, v: u64) -> Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// The accumulated 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// A deterministic, caller-visible run directory in the DFS.
///
/// Every file a pipeline produces lives under this directory, so a caller
/// that pins a `RunId` knows where a failed run's files are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunId {
    dir: String,
}

impl RunId {
    /// A run rooted at the given DFS directory (normalized).
    pub fn new(dir: impl Into<String>) -> Self {
        let dir = normalize_path(&dir.into());
        assert!(!dir.is_empty(), "a run directory cannot be the DFS root");
        RunId { dir }
    }

    /// The run's root directory.
    pub fn dir(&self) -> &str {
        &self.dir
    }
}

/// Everything one pipeline run measured, as deltas over the cluster's
/// state when the driver was created.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Matrix order (or problem size).
    pub n: usize,
    /// Cluster size `m0`.
    pub nodes: usize,
    /// Bound value used.
    pub nb: usize,
    /// MapReduce jobs executed (partition + LU pipeline + final).
    pub jobs: u64,
    /// Total simulated seconds (job waves + shuffles + launches + master
    /// work).
    pub sim_secs: f64,
    /// Simulated seconds of serial master-node work.
    pub master_secs: f64,
    /// Failed task attempts (all injected or transient).
    pub task_failures: u64,
    /// Logical DFS bytes written during the run.
    pub dfs_bytes_written: u64,
    /// Logical DFS bytes read during the run.
    pub dfs_bytes_read: u64,
    /// Bytes moved through shuffles.
    pub shuffle_bytes: u64,
    /// Simulated running time in hours (convenience for paper-style
    /// reporting).
    pub hours: f64,
    /// The run's DFS directory ([`RunId::dir`]).
    pub workdir: String,
    /// The execution backend task attempts ran under
    /// ([`crate::exec::ExecBackend::name`]), stamped by
    /// [`PipelineDriver::finish`].
    pub backend: String,
    /// Every job's report, in pipeline order, each stamped with its
    /// fingerprint ([`JobReport::fingerprint`]).
    pub job_reports: Vec<JobReport>,
    /// Fraction of map tasks whose successful attempt ran on a node
    /// holding a replica of all its input (1.0 when the run scheduled no
    /// map tasks, or none of them read DFS input).
    pub data_local_fraction: f64,
    /// Input bytes map tasks pulled from replicas on other nodes.
    pub remote_read_bytes: u64,
    /// Per-wave straggler/lost-work analytics, present when the cluster
    /// ran with tracing enabled ([`crate::cluster::ClusterConfig::tracing`]).
    pub analytics: Option<PipelineAnalytics>,
    /// Cost-model audit: planned vs executed jobs and the closed-form
    /// stage byte checks, read from the job reports (see
    /// [`crate::obs::CostAudit`]). Attached by pipelines that run with
    /// tracing enabled; `None` otherwise.
    pub audit: Option<crate::obs::CostAudit>,
}

impl RunReport {
    /// Builds a report from before/after snapshots.
    fn from_deltas(
        n: usize,
        nodes: usize,
        nb: usize,
        metrics_before: &MetricsSnapshot,
        metrics_after: &MetricsSnapshot,
        dfs_before: &DfsCountersSnapshot,
        dfs_after: &DfsCountersSnapshot,
    ) -> Self {
        let sim_secs = metrics_after.sim_secs - metrics_before.sim_secs;
        let local = metrics_after.data_local_map_tasks - metrics_before.data_local_map_tasks;
        let remote = metrics_after.remote_map_tasks - metrics_before.remote_map_tasks;
        RunReport {
            n,
            nodes,
            nb,
            jobs: metrics_after.jobs - metrics_before.jobs,
            sim_secs,
            master_secs: metrics_after.master_secs - metrics_before.master_secs,
            task_failures: metrics_after.task_failures - metrics_before.task_failures,
            dfs_bytes_written: dfs_after.bytes_written - dfs_before.bytes_written,
            dfs_bytes_read: dfs_after.bytes_read - dfs_before.bytes_read,
            shuffle_bytes: metrics_after.shuffle_bytes - metrics_before.shuffle_bytes,
            hours: sim_secs / 3600.0,
            workdir: String::new(),
            backend: String::new(),
            job_reports: Vec::new(),
            data_local_fraction: if local + remote == 0 {
                1.0
            } else {
                local as f64 / (local + remote) as f64
            },
            remote_read_bytes: metrics_after.remote_read_bytes - metrics_before.remote_read_bytes,
            analytics: None,
            audit: None,
        }
    }
}

/// Owns the sequencing and accounting of one pipeline run.
///
/// Create one with [`PipelineDriver::new`], funnel every job through
/// [`PipelineDriver::step`] and close the run with
/// [`PipelineDriver::finish`].
#[derive(Debug)]
pub struct PipelineDriver<'c> {
    cluster: &'c Cluster,
    run: RunId,
    /// Configuration fingerprint mixed into every job's fingerprint.
    config_fingerprint: u64,
    reports: Vec<JobReport>,
    metrics_start: MetricsSnapshot,
    dfs_start: DfsCountersSnapshot,
    /// Expected total jobs when the live stderr progress line is on
    /// (see [`PipelineDriver::enable_progress`]).
    progress_total: Option<u64>,
}

impl<'c> PipelineDriver<'c> {
    /// A driver for the run rooted at `run`; its accounting starts now.
    pub fn new(cluster: &'c Cluster, run: RunId) -> Self {
        PipelineDriver {
            metrics_start: cluster.metrics.snapshot(),
            dfs_start: cluster.dfs.counters(),
            cluster,
            run,
            config_fingerprint: 0,
            reports: Vec::new(),
            progress_total: None,
        }
    }

    /// Turns on the live stderr progress line: after each sequenced job
    /// the driver prints jobs done out of `total_jobs`, the simulated
    /// clock, and a model-predicted ETA extrapolated from the mean
    /// simulated job time so far. Pipelines enable this when
    /// [`crate::cluster::ClusterConfig::progress`] is set.
    pub fn enable_progress(&mut self, total_jobs: u64) {
        self.progress_total = Some(total_jobs.max(1));
    }

    /// Prints one progress line (carriage-return refreshed; newline on the
    /// final job).
    fn print_progress(&self) {
        let Some(total) = self.progress_total else {
            return;
        };
        let done = self.reports.len() as u64;
        let sim = self.total_sim_secs() + self.cluster.metrics.snapshot().master_secs;
        let name = self.reports.last().map(|r| r.name.as_str()).unwrap_or("");
        let eta = if done == 0 {
            f64::NAN
        } else {
            sim / done as f64 * total.saturating_sub(done) as f64
        };
        let total = total.max(done);
        if done >= total {
            eprintln!("\r[mrinv] jobs {done}/{total} ({name}) sim {sim:.2}s done        ");
        } else {
            eprint!("\r[mrinv] jobs {done}/{total} ({name}) sim {sim:.2}s eta {eta:.2}s    ");
        }
    }

    /// Mixes a fingerprint of the run's configuration (partition plan,
    /// optimization toggles, ...) into every job's fingerprint.
    pub fn set_config_fingerprint(&mut self, fingerprint: u64) {
        self.config_fingerprint = fingerprint;
    }

    /// The cluster this driver runs on. The returned reference carries
    /// the cluster's own lifetime, not the driver borrow, so callers can
    /// hold it across further `&mut self` calls.
    pub fn cluster(&self) -> &'c Cluster {
        self.cluster
    }

    /// Runs the pipeline's next job.
    ///
    /// `spec_fingerprint` identifies the job definition (see
    /// [`crate::job::JobSpec::fingerprint`]); `job` executes it and
    /// returns its report, which comes back stamped with the job's
    /// fingerprint: the run configuration, the spec and the job's
    /// position in the pipeline, mixed.
    pub fn step(
        &mut self,
        spec_fingerprint: u64,
        job: impl FnOnce(&'c Cluster) -> Result<JobReport>,
    ) -> Result<JobReport> {
        let seq = self.reports.len() as u64;
        let mut report = job(self.cluster)?;
        report.fingerprint = Fingerprint::new()
            .push_u64(self.config_fingerprint)
            .push_u64(spec_fingerprint)
            .push_u64(seq)
            .finish();
        self.reports.push(report.clone());
        self.print_progress();
        Ok(report)
    }

    /// Deletes `paths`, files whose last reader has just committed: the
    /// one place a pipeline gives DFS memory back. Only the module that
    /// named a whole file set releases it, once the last job reading it
    /// has returned through [`PipelineDriver::step`].
    pub fn release<P: AsRef<str>>(&self, paths: impl IntoIterator<Item = P>) {
        for path in paths {
            self.cluster.dfs.delete(path.as_ref());
        }
    }

    /// Closes the run: a [`RunReport`] of the deltas since the driver was
    /// created, stamped with the run directory and carrying every job's
    /// report, with per-wave analytics attached when the cluster traces.
    pub fn finish(&self, n: usize, nb: usize) -> RunReport {
        let mut report = RunReport::from_deltas(
            n,
            self.cluster.nodes(),
            nb,
            &self.metrics_start,
            &self.cluster.metrics.snapshot(),
            &self.dfs_start,
            &self.cluster.dfs.counters(),
        );
        report.workdir = self.run.dir().to_string();
        report.backend = self.cluster.backend().name().to_string();
        report.job_reports = self.reports.clone();
        if self.cluster.trace.is_enabled() {
            report.analytics = Some(self.analytics(&self.cluster.trace));
        }
        report
    }

    /// All job reports, in pipeline order.
    pub fn reports(&self) -> &[JobReport] {
        &self.reports
    }

    /// Total simulated seconds across jobs (excludes master-node work,
    /// which the cluster clock tracks separately).
    fn total_sim_secs(&self) -> f64 {
        self.reports.iter().map(|r| r.sim_secs).sum()
    }

    /// Total failed task attempts.
    pub fn total_failures(&self) -> u32 {
        self.reports.iter().map(|r| r.failures).sum()
    }

    /// Straggler/lost-work analytics for *this run's* jobs, computed from
    /// the cluster's trace log (events of unrelated jobs on the same
    /// cluster are excluded via each report's `job_seq`). Empty when
    /// tracing was disabled during the run.
    pub fn analytics(&self, trace: &TraceLog) -> PipelineAnalytics {
        let jobs: std::collections::BTreeSet<u64> =
            self.reports.iter().map(|r| r.job_seq).collect();
        tracelog::analyze(&trace.events(), Some(&jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn report(name: &str, secs: f64, failures: u32) -> JobReport {
        JobReport {
            name: name.into(),
            map_tasks: 2,
            reduce_tasks: 1,
            failures,
            sim_secs: secs,
            ..JobReport::default()
        }
    }

    #[test]
    fn totals_accumulate() {
        let cluster = Cluster::medium(1);
        let mut d = PipelineDriver::new(&cluster, RunId::new("t"));
        assert!(d.reports().is_empty());
        assert_eq!(d.total_sim_secs(), 0.0);
        d.step(0, |_| Ok(report("a", 1.5, 0))).unwrap();
        d.step(0, |_| Ok(report("b", 2.5, 2))).unwrap();
        assert_eq!(d.reports().len(), 2);
        assert!((d.total_sim_secs() - 4.0).abs() < 1e-12);
        assert_eq!(d.total_failures(), 2);
        assert_eq!(d.reports()[0].name, "a");
    }

    #[test]
    fn finish_carries_every_report_stamped_with_its_fingerprint() {
        let cluster = Cluster::medium(1);
        let mut d = PipelineDriver::new(&cluster, RunId::new("stamped"));
        d.set_config_fingerprint(42);
        let first = d.step(11, |_| Ok(report("a", 1.0, 0))).unwrap();
        d.step(12, |_| Ok(report("b", 2.0, 0))).unwrap();
        let expected = |spec: u64, seq: u64| {
            Fingerprint::new()
                .push_u64(42)
                .push_u64(spec)
                .push_u64(seq)
                .finish()
        };
        assert_eq!(first.fingerprint, expected(11, 0), "step returns the stamp");
        let r = d.finish(8, 2);
        let stamped: Vec<(&str, u64)> = r
            .job_reports
            .iter()
            .map(|j| (j.name.as_str(), j.fingerprint))
            .collect();
        assert_eq!(stamped, [("a", expected(11, 0)), ("b", expected(12, 1))]);
        let json = |reports: &[JobReport]| serde_json::to_string(reports).unwrap();
        assert_eq!(json(&r.job_reports), json(d.reports()));
        assert_eq!(r.workdir, "stamped");
    }

    #[test]
    fn run_ids_normalize() {
        let run = RunId::new("/bench//run-1/");
        assert_eq!(run.dir(), "bench/run-1");
    }

    #[test]
    #[should_panic(expected = "run directory")]
    fn empty_run_id_rejected() {
        let _ = RunId::new("//");
    }

    #[test]
    fn fingerprints_are_stable_and_order_sensitive() {
        let a = Fingerprint::new().push_u64(1).push_u64(2).finish();
        let b = Fingerprint::new().push_u64(1).push_u64(2).finish();
        let c = Fingerprint::new().push_u64(2).push_u64(1).finish();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            Fingerprint::new().push_bytes(b"ab").finish(),
            Fingerprint::new().push_bytes(b"ba").finish()
        );
    }

    #[test]
    fn runs_release_their_files() {
        let cluster = Cluster::medium(1);
        let write = |c: &Cluster, dir: &str| -> Result<JobReport> {
            c.dfs.write(&format!("{dir}/a"), Bytes::from_static(b"aa"));
            c.dfs.write(&format!("{dir}/b"), Bytes::from_static(b"b"));
            Ok(report("w", 1.0, 0))
        };
        let mut plain = PipelineDriver::new(&cluster, RunId::new("plain"));
        plain.step(0, |c| write(c, "plain")).unwrap();
        plain.release(["plain/a", "plain/missing"]);
        assert_eq!(cluster.dfs.list("plain"), ["plain/b"]);
        assert_eq!(cluster.dfs.live_bytes(), 1);
        plain.release(vec!["plain/b".to_string()]);
        assert!(cluster.dfs.list("").is_empty());
    }

    #[test]
    fn deltas_subtract() {
        let before = MetricsSnapshot {
            jobs: 2,
            sim_secs: 10.0,
            ..Default::default()
        };
        let after = MetricsSnapshot {
            jobs: 5,
            sim_secs: 7210.0,
            master_secs: 100.0,
            task_failures: 1,
            shuffle_bytes: 64,
            ..Default::default()
        };
        let db = DfsCountersSnapshot {
            bytes_written: 100,
            bytes_read: 50,
            ..Default::default()
        };
        let da = DfsCountersSnapshot {
            bytes_written: 1100,
            bytes_read: 2050,
            ..Default::default()
        };
        let r = RunReport::from_deltas(64, 4, 8, &before, &after, &db, &da);
        assert_eq!(r.jobs, 3);
        assert!((r.sim_secs - 7200.0).abs() < 1e-9);
        assert!((r.hours - 2.0).abs() < 1e-9);
        assert_eq!(r.dfs_bytes_written, 1000);
        assert_eq!(r.dfs_bytes_read, 2000);
        assert_eq!(r.task_failures, 1);
        assert_eq!(r.shuffle_bytes, 64);
        assert!(r.analytics.is_none(), "no analytics without tracing");
        assert_eq!(
            r.data_local_fraction, 1.0,
            "no map tasks means vacuously local"
        );
        assert_eq!(r.remote_read_bytes, 0);
        assert!(
            r.job_reports.is_empty(),
            "reports are stamped by the driver"
        );
        assert_eq!(r.workdir, "", "workdir is stamped by the driver");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = RunReport {
            n: 64,
            nodes: 4,
            nb: 8,
            jobs: 9,
            sim_secs: 123.5,
            master_secs: 10.25,
            task_failures: 2,
            dfs_bytes_written: 1 << 20,
            dfs_bytes_read: 1 << 21,
            shuffle_bytes: 4096,
            hours: 123.5 / 3600.0,
            workdir: "mrinv/run-0".to_string(),
            backend: "in-process".to_string(),
            job_reports: vec![JobReport {
                fingerprint: 7,
                ..report("a", 1.0, 0)
            }],
            data_local_fraction: 0.75,
            remote_read_bytes: 2048,
            analytics: None,
            audit: None,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"jobs\": 9"), "json {json}");
        assert!(json.contains("\"analytics\": null"));
        assert!(json.contains("\"data_local_fraction\": 0.75"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n, report.n);
        assert_eq!(back.jobs, report.jobs);
        assert_eq!(back.sim_secs, report.sim_secs);
        assert_eq!(back.workdir, "mrinv/run-0");
        assert_eq!(back.job_reports[0].fingerprint, 7);
        assert!(back.analytics.is_none());
    }
}
