//! The pipeline driver: job sequencing and run-level accounting.
//!
//! Every job of a pipeline runs through [`PipelineDriver::step`], which
//! owns the sequencing, stamps each [`JobReport`] with the job's
//! fingerprint (the run configuration, the job spec and its position
//! mixed together), and collects the reports that
//! [`PipelineDriver::finish`] hands back in [`RunReport::job_reports`].
//! Master-side work enters the run through
//! [`PipelineDriver::run_on_master`] (priced) or
//! [`PipelineDriver::assemble`] (counted, unpriced), each over a DFS
//! handle the driver opens.
//!
//! The driver is the run's only ledger: [`PipelineDriver::finish`] folds
//! the run's own job reports and master calls into its [`RunReport`], so
//! whatever else the cluster does meanwhile never reaches it, and the
//! same work reports the same bits on a fresh cluster or a busy one.
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
use crate::dfs::normalize_path;
use crate::error::Result;
use crate::job::{TaskIo, TaskStats};
use crate::master;
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
/// Every file a pipeline produces lives under this directory, and every
/// job name and fingerprint of the run names it.
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

/// Everything one pipeline run measured: a fold of its own job reports and
/// master calls ([`PipelineDriver::finish`]).
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
    /// Logical DFS bytes the run wrote: its jobs' attempts, failed ones
    /// included, and its master calls.
    pub dfs_bytes_written: u64,
    /// Logical DFS bytes the run read, counted like the writes.
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
    /// Simulated seconds of the run: each job's and each master charge,
    /// summed from 0.0 in the order they reached the cluster clock.
    sim_secs: f64,
    /// The master charges alone, summed the same way.
    master_secs: f64,
    /// DFS bytes the run's master-side handles moved.
    master_io: TaskStats,
    /// Expected total jobs when the live stderr progress line is on
    /// (see [`PipelineDriver::enable_progress`]).
    progress_total: Option<u64>,
}

impl<'c> PipelineDriver<'c> {
    /// A driver for the run rooted at `run`, with an empty ledger.
    pub fn new(cluster: &'c Cluster, run: RunId) -> Self {
        PipelineDriver {
            cluster,
            run,
            config_fingerprint: 0,
            reports: Vec::new(),
            sim_secs: 0.0,
            master_secs: 0.0,
            master_io: TaskStats::default(),
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
        let sim = self.sim_secs;
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
        self.sim_secs += report.sim_secs;
        self.reports.push(report.clone());
        self.print_progress();
        Ok(report)
    }

    /// Runs `f` on the master node — the one way priced master-side work
    /// enters a run — over a DFS handle the driver opens. `f` returns its
    /// result and its counted work: the cluster clock and the run are
    /// charged that work at the master's rates, then the handle's bytes at
    /// disk rates, and the run counts the handle's bytes.
    pub fn run_on_master<T>(&mut self, f: impl FnOnce(&mut TaskIo) -> (T, TaskStats)) -> T {
        let cluster = self.cluster;
        let (out, charges) = self.assemble(|io| master::run_on_master(cluster, io, f));
        for secs in charges {
            self.sim_secs += secs;
            self.master_secs += secs;
        }
        out
    }

    /// Runs `f` on the master over a DFS handle the driver opens, unpriced:
    /// the handle's bytes count in the run's DFS totals and nothing reaches
    /// the clock. The final job's products are read back this way, after
    /// the last job the cost model prices.
    pub fn assemble<T>(&mut self, f: impl FnOnce(&mut TaskIo) -> T) -> T {
        let mut io = TaskIo::new(self.cluster.dfs.clone());
        let out = f(&mut io);
        self.master_io = self.master_io.merge(io.stats());
        out
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

    /// Closes the run: a [`RunReport`] folded from the run's own job
    /// reports and master calls, stamped with the run directory and
    /// carrying every job's report, with per-wave analytics attached when
    /// the cluster traces.
    pub fn finish(&self, n: usize, nb: usize) -> RunReport {
        let jobs = &self.reports;
        let sum = |f: fn(&JobReport) -> u64| jobs.iter().map(f).sum::<u64>();
        let map_tasks = sum(|r| r.map_tasks as u64);
        let local = sum(|r| r.data_local_tasks as u64);
        RunReport {
            n,
            nodes: self.cluster.nodes(),
            nb,
            jobs: jobs.len() as u64,
            sim_secs: self.sim_secs,
            master_secs: self.master_secs,
            task_failures: sum(|r| u64::from(r.failures)),
            dfs_bytes_written: self.master_io.write_bytes
                + sum(|r| r.stats.write_bytes + r.failed_stats.write_bytes),
            dfs_bytes_read: self.master_io.read_bytes
                + sum(|r| r.stats.read_bytes + r.failed_stats.read_bytes),
            shuffle_bytes: sum(|r| r.stats.shuffle_bytes),
            hours: self.sim_secs / 3600.0,
            workdir: self.run.dir().to_string(),
            backend: self.cluster.backend().name().to_string(),
            job_reports: jobs.clone(),
            data_local_fraction: if map_tasks == 0 {
                1.0
            } else {
                local as f64 / map_tasks as f64
            },
            remote_read_bytes: sum(|r| r.remote_read_bytes),
            analytics: (self.cluster.trace.is_enabled())
                .then(|| self.analytics(&self.cluster.trace)),
            audit: None,
        }
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
        assert!(d.finish(0, 0).job_reports.is_empty());
        assert_eq!(d.finish(0, 0).sim_secs, 0.0);
        d.step(0, |_| Ok(report("a", 1.5, 0))).unwrap();
        d.step(0, |_| Ok(report("b", 2.5, 2))).unwrap();
        let r = d.finish(0, 0);
        assert_eq!(r.job_reports.len(), 2);
        assert_eq!(r.jobs, 2);
        assert_eq!(r.sim_secs, 4.0);
        assert_eq!(r.task_failures, 2);
        assert_eq!(r.job_reports[0].name, "a");
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
        assert_eq!(json(&r.job_reports[..1]), json(&[first]));
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

    /// Mapper `j` writes `w/j` and emits `(j, j)`; reducer `j` reads it.
    struct Writer;
    impl crate::job::Mapper for Writer {
        type Input = usize;
        type Key = usize;
        type Value = usize;
        fn map(&self, j: &usize, ctx: &mut crate::job::MapContext<usize, usize>) -> Result<()> {
            ctx.write(&format!("w/{j}"), Bytes::from(vec![1u8; 100 + j]));
            ctx.emit(*j, *j);
            Ok(())
        }
    }
    struct Reader;
    impl crate::job::Reducer for Reader {
        type Key = usize;
        type Value = usize;
        type Output = usize;
        fn reduce(
            &self,
            j: &usize,
            _: &[usize],
            ctx: &mut crate::job::ReduceContext,
        ) -> Result<usize> {
            Ok(ctx.read(&format!("w/{j}"))?.len())
        }
    }

    /// Steps two jobs (the second map-only) through a driver for `run`.
    fn two_jobs(cluster: &Cluster) -> RunReport {
        let mut d = PipelineDriver::new(cluster, RunId::new("run"));
        let spec = crate::job::JobSpec::new("rw").reducers(3);
        let inputs = [0, 1, 2];
        d.step(1, |c| {
            crate::runner::run_job(c, &spec, &Writer, &Reader, &inputs).map(|o| o.1)
        })
        .unwrap();
        d.step(2, |c| {
            crate::runner::run_map_only(c, &spec, &Writer, &inputs)
        })
        .unwrap();
        d.finish(16, 4)
    }

    /// A report is its own run's ledger: a driver that steps nothing while
    /// another run completes on its cluster reports nothing, and the other
    /// run reports exactly what it reports alone on a fresh cluster — bits
    /// of the simulated seconds included, after the cluster clock has moved.
    #[test]
    fn a_report_counts_only_its_own_run() {
        let cluster = Cluster::medium(2);
        let spec = crate::job::JobSpec::new("before");
        crate::runner::run_map_only(&cluster, &spec, &Writer, &[7]).unwrap();
        let idle = PipelineDriver::new(&cluster, RunId::new("idle"));
        let busy = two_jobs(&cluster);
        let idle = idle.finish(16, 4);
        assert_eq!(idle.jobs, 0);
        assert_eq!((idle.dfs_bytes_read, idle.dfs_bytes_written), (0, 0));
        assert_eq!(idle.sim_secs, 0.0);
        assert_eq!(idle.master_secs, 0.0);

        let alone = two_jobs(&Cluster::medium(2));
        assert!(busy.sim_secs > 0.0 && busy.dfs_bytes_read > 0 && busy.shuffle_bytes > 0);
        // The map-only job's mappers emitted pairs, but it shuffles none.
        let map_only = &busy.job_reports[1];
        assert_eq!(
            (map_only.reduce_tasks, map_only.stats.shuffle_bytes),
            (0, 0)
        );
        assert_eq!(busy.shuffle_bytes, busy.job_reports[0].stats.shuffle_bytes);
        // Only the cluster-wide job sequence and the measured CPU time tell
        // the two apart.
        let counted = |mut r: RunReport| {
            for j in &mut r.job_reports {
                (j.job_seq, j.stats.cpu) = (0, std::time::Duration::ZERO);
            }
            serde_json::to_string(&r).unwrap()
        };
        assert_eq!(counted(busy), counted(alone));
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
