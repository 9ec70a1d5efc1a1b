//! The pipeline driver: job sequencing, run-level accounting, and
//! checkpoint/resume.
//!
//! The paper's fault-tolerance story (Sections 6.6, 7.4) stops at
//! task-level re-execution: Hadoop retries a killed task, but if the
//! *driver* dies between jobs the whole `2^⌈log2(n/nb)⌉ + 1`-job pipeline
//! restarts from scratch. [`PipelineDriver`] closes that gap the way the
//! paper's Spark-based successors do with lineage/checkpoint recovery:
//!
//! * every job runs through [`PipelineDriver::step`], which owns the
//!   sequencing and collects the per-job [`JobReport`]s (replacing the
//!   hand-threaded `Pipeline::push` accounting);
//! * with checkpointing enabled, the driver appends a [`ManifestRecord`]
//!   — job name, sequence number, fingerprint, output paths, and the full
//!   report — to a `_manifest` file in the run directory after each
//!   completed job;
//! * [`PipelineDriver::resume`] replays the manifest: each recorded job
//!   whose fingerprint matches and whose outputs all still exist in the
//!   DFS is *restored* (its report re-enters the accounting, nothing
//!   re-executes); the first mismatch truncates the stale manifest tail
//!   and execution resumes from there.
//!
//! A plain run gives intermediate files back as it goes:
//! [`PipelineDriver::release`] deletes a file set once its last reader has
//! committed. A checkpointed run releases nothing, since a resume must find
//! every recorded output.
//!
//! Restored jobs do not advance the cluster clock — the resumed run's
//! [`RunReport::sim_secs`] prices only what actually re-ran, while
//! [`RunReport::restored_sim_secs`] reports what the checkpoint saved.
//! The manifest itself is written through `Dfs::write_uncounted` and
//! verified through uncharged metadata operations, so a
//! checkpoint-enabled run reports byte-for-byte the same I/O as a plain
//! one.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::dfs::{normalize_path, DfsCountersSnapshot};
use crate::error::{MrError, Result};
use crate::metrics::MetricsSnapshot;
use crate::runner::JobReport;
use crate::tracelog::{self, PipelineAnalytics, TraceLog};

/// Incremental [FNV-1a] hasher producing fingerprints that are stable
/// across processes and runs (unlike `DefaultHasher`, whose keys are
/// randomized per process) — the property the checkpoint manifest needs
/// to recognize its own records after a driver restart.
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
/// Every file a pipeline produces lives under this directory, and the
/// checkpoint manifest sits beside them at `<dir>/_manifest` — so the
/// *same* `RunId` passed to a fresh run and to a resume addresses the
/// same state (the property the old `fresh_workdir()` global counter
/// could not provide).
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

    /// Where this run's checkpoint manifest lives.
    pub fn manifest_path(&self) -> String {
        format!("{}/_manifest", self.dir)
    }
}

/// One completed job as recorded in the checkpoint manifest (one JSON
/// object per line of the `_manifest` file).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestRecord {
    /// Job name (from its report; informational).
    pub name: String,
    /// Position of the job within the pipeline (0-based).
    pub seq: u64,
    /// Mixed fingerprint of the run configuration, the job spec, and
    /// `seq`; a resume only restores a record whose fingerprint matches
    /// what the driver is about to run.
    pub fingerprint: u64,
    /// DFS paths this job created, verified to still exist on resume.
    pub outputs: Vec<String>,
    /// The job's full report, restored into the resumed accounting.
    pub report: JobReport,
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
    /// MapReduce jobs executed (partition + LU pipeline + final). On a
    /// resumed run this counts only the jobs that actually re-ran; see
    /// [`RunReport::restored_jobs`].
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
    /// Jobs restored from the checkpoint manifest instead of re-executed
    /// (0 for a run that was not resumed).
    pub restored_jobs: u64,
    /// Simulated seconds the restored jobs originally cost — the work the
    /// checkpoint saved (not included in [`RunReport::sim_secs`]).
    pub restored_sim_secs: f64,
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
            restored_jobs: 0,
            restored_sim_secs: 0.0,
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
/// Create one with [`PipelineDriver::new`] (plain run),
/// [`PipelineDriver::checkpointed`] (record a manifest), or
/// [`PipelineDriver::resume`] (replay an existing manifest), then funnel
/// every job through [`PipelineDriver::step`] and close the run with
/// [`PipelineDriver::finish`].
#[derive(Debug)]
pub struct PipelineDriver<'c> {
    cluster: &'c Cluster,
    run: RunId,
    /// Append a manifest record after each completed job.
    checkpoint: bool,
    /// Loaded (resume) or accumulated (checkpoint) manifest records.
    manifest: Vec<ManifestRecord>,
    /// Next manifest record eligible for replay.
    replay_pos: usize,
    /// Still replaying the loaded manifest prefix.
    replaying: bool,
    /// Configuration fingerprint mixed into every record.
    config_fingerprint: u64,
    reports: Vec<JobReport>,
    restored_jobs: u64,
    restored_sim_secs: f64,
    metrics_start: MetricsSnapshot,
    dfs_start: DfsCountersSnapshot,
    /// Expected total jobs when the live stderr progress line is on
    /// (see [`PipelineDriver::enable_progress`]).
    progress_total: Option<u64>,
}

impl<'c> PipelineDriver<'c> {
    /// A plain driver: sequencing and accounting, no manifest.
    pub fn new(cluster: &'c Cluster, run: RunId) -> Self {
        Self::build(cluster, run, false, Vec::new())
    }

    /// A checkpointing driver: each completed job appends a record to the
    /// run's `_manifest`. Any stale manifest at this `RunId` is discarded
    /// first (this constructor *starts over*; use
    /// [`PipelineDriver::resume`] to continue).
    pub fn checkpointed(cluster: &'c Cluster, run: RunId) -> Self {
        cluster.dfs.delete(&run.manifest_path());
        Self::build(cluster, run, true, Vec::new())
    }

    /// Resumes a checkpointed run: loads the manifest at
    /// [`RunId::manifest_path`] and replays it — each subsequent
    /// [`PipelineDriver::step`] whose fingerprint matches the next record
    /// and whose recorded outputs all still exist is restored without
    /// re-executing. Checkpointing stays enabled for the jobs that do run.
    ///
    /// Errors with a diagnosable [`MrError::FileNotFound`] when no
    /// manifest exists at this `RunId`. A torn final line (the driver
    /// died mid-append) is ignored; everything before it replays.
    pub fn resume(cluster: &'c Cluster, run: RunId) -> Result<Self> {
        let data = cluster.dfs.read(&run.manifest_path())?;
        let text = std::str::from_utf8(&data)
            .map_err(|e| MrError::Other(format!("manifest is not UTF-8: {e}")))?;
        let mut manifest = Vec::new();
        for line in text.lines() {
            match serde_json::from_str::<ManifestRecord>(line) {
                Ok(record) => manifest.push(record),
                Err(_) => break,
            }
        }
        Ok(Self::build(cluster, run, true, manifest))
    }

    fn build(
        cluster: &'c Cluster,
        run: RunId,
        checkpoint: bool,
        manifest: Vec<ManifestRecord>,
    ) -> Self {
        PipelineDriver {
            // Snapshots are taken *after* the manifest read so replay
            // bookkeeping never leaks into the run's I/O deltas.
            metrics_start: cluster.metrics.snapshot(),
            dfs_start: cluster.dfs.counters(),
            replaying: !manifest.is_empty(),
            cluster,
            run,
            checkpoint,
            manifest,
            replay_pos: 0,
            config_fingerprint: 0,
            reports: Vec::new(),
            restored_jobs: 0,
            restored_sim_secs: 0.0,
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
    /// optimization toggles, ...) into every manifest record, so a resume
    /// against a changed configuration re-runs instead of restoring.
    pub fn set_config_fingerprint(&mut self, fingerprint: u64) {
        self.config_fingerprint = fingerprint;
    }

    /// The cluster this driver runs on. The returned reference carries
    /// the cluster's own lifetime, not the driver borrow, so callers can
    /// hold it across further `&mut self` calls.
    pub fn cluster(&self) -> &'c Cluster {
        self.cluster
    }

    /// Runs (or restores) the pipeline's next job.
    ///
    /// `spec_fingerprint` identifies the job definition (see
    /// [`crate::job::JobSpec::fingerprint`]); `job` executes it and
    /// returns its report. During a resume replay, a matching manifest
    /// record whose outputs all exist short-circuits `job` entirely and
    /// restores the recorded report (without advancing the cluster
    /// clock). Otherwise the job runs; with checkpointing enabled its
    /// record — including the set of DFS paths it created — is appended
    /// to the manifest *before* the armed driver-kill knob (if any) can
    /// fire, mirroring a driver that dies between jobs.
    pub fn step(
        &mut self,
        spec_fingerprint: u64,
        job: impl FnOnce(&'c Cluster) -> Result<JobReport>,
    ) -> Result<JobReport> {
        // An armed kill-after-0 means the driver dies before *any* job
        // completes — checked on entry so not even a manifest replay (let
        // alone a real job) happens first.
        if self.cluster.faults.driver_kill_now() {
            return Err(MrError::DriverKilled {
                after_jobs: self.reports.len() as u64,
            });
        }
        let seq = self.reports.len() as u64;
        let fingerprint = Fingerprint::new()
            .push_u64(self.config_fingerprint)
            .push_u64(spec_fingerprint)
            .push_u64(seq)
            .finish();

        if self.replaying {
            if let Some(record) = self.manifest.get(self.replay_pos) {
                let intact = record.fingerprint == fingerprint
                    && record.outputs.iter().all(|p| self.cluster.dfs.exists(p));
                if intact {
                    let report = record.report.clone();
                    self.replay_pos += 1;
                    self.restored_jobs += 1;
                    self.restored_sim_secs += report.sim_secs;
                    self.reports.push(report.clone());
                    self.print_progress();
                    return Ok(report);
                }
            }
            // First mismatch (or manifest exhausted): drop the stale tail
            // and fall through to real execution from here on.
            self.replaying = false;
            self.manifest.truncate(self.replay_pos);
            if self.checkpoint {
                self.rewrite_manifest();
            }
        }

        let before: Option<std::collections::BTreeSet<String>> = self
            .checkpoint
            .then(|| self.cluster.dfs.list("").into_iter().collect());
        let report = job(self.cluster)?;
        if let Some(before) = before {
            let outputs: Vec<String> = self
                .cluster
                .dfs
                .list("")
                .into_iter()
                .filter(|p| !before.contains(p))
                .collect();
            self.manifest.push(ManifestRecord {
                name: report.name.clone(),
                seq,
                fingerprint,
                outputs,
                report: report.clone(),
            });
            self.rewrite_manifest();
        }
        self.reports.push(report.clone());
        self.print_progress();

        if self.cluster.faults.driver_job_completed() {
            return Err(MrError::DriverKilled {
                after_jobs: self.reports.len() as u64,
            });
        }
        Ok(report)
    }

    /// Deletes `paths`, files whose last reader has just committed: the
    /// one place a pipeline gives DFS memory back. Only the module that
    /// named a whole file set releases it, once the last job reading it
    /// has returned through [`PipelineDriver::step`]. A checkpointed run
    /// keeps every file, because its manifest promises each job's outputs
    /// to a resume.
    pub fn release<P: AsRef<str>>(&self, paths: impl IntoIterator<Item = P>) {
        if self.checkpoint {
            return;
        }
        for path in paths {
            self.cluster.dfs.delete(path.as_ref());
        }
    }

    fn rewrite_manifest(&self) {
        let mut buf = String::new();
        for record in &self.manifest {
            buf.push_str(&serde_json::to_string(record).expect("manifest record serializes"));
            buf.push('\n');
        }
        self.cluster
            .dfs
            .write_uncounted(&self.run.manifest_path(), Bytes::from(buf));
    }

    /// Closes the run: a [`RunReport`] of the deltas since the driver was
    /// created, stamped with the run directory and restore accounting,
    /// with per-wave analytics attached when the cluster traces.
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
        report.restored_jobs = self.restored_jobs;
        report.restored_sim_secs = self.restored_sim_secs;
        if self.cluster.trace.is_enabled() {
            report.analytics = Some(self.analytics(&self.cluster.trace));
        }
        report
    }

    /// All job reports, in pipeline order (restored ones included).
    pub fn reports(&self) -> &[JobReport] {
        &self.reports
    }

    /// Total simulated seconds across jobs (excludes master-node work,
    /// which the cluster clock tracks separately; includes restored
    /// jobs' recorded times).
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
        assert_eq!(d.restored_jobs, 0);
    }

    #[test]
    fn run_ids_normalize_and_locate_the_manifest() {
        let run = RunId::new("/bench//run-1/");
        assert_eq!(run.dir(), "bench/run-1");
        assert_eq!(run.manifest_path(), "bench/run-1/_manifest");
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

    /// A synthetic two-job pipeline: each job writes one DFS file. Kills
    /// the driver after job 1, resumes, and checks job 1 is restored
    /// while job 2 runs.
    #[test]
    fn checkpoint_kill_resume_restores_the_prefix() {
        let cluster = Cluster::medium(1);
        let run = RunId::new("ckpt");
        let step1 = |c: &Cluster| {
            c.dfs.write("ckpt/one.bin", Bytes::from_static(b"one"));
            Ok(report("one", 5.0, 0))
        };
        let step2 = |c: &Cluster| {
            c.dfs.write("ckpt/two.bin", Bytes::from_static(b"two"));
            Ok(report("two", 7.0, 0))
        };

        cluster.faults.kill_driver_after(1);
        let mut d = PipelineDriver::checkpointed(&cluster, run.clone());
        d.set_config_fingerprint(42);
        let err = d.step(11, step1).unwrap_err();
        assert_eq!(err, MrError::DriverKilled { after_jobs: 1 });
        assert!(cluster.dfs.exists(&run.manifest_path()));

        let mut d = PipelineDriver::resume(&cluster, run.clone()).unwrap();
        d.set_config_fingerprint(42);
        let restored = d.step(11, |_| panic!("must not re-run")).unwrap();
        assert_eq!(restored.name, "one");
        assert_eq!(d.restored_jobs, 1);
        assert_eq!(d.restored_sim_secs, 5.0);
        d.step(12, step2).unwrap();
        assert_eq!(d.reports().len(), 2);

        let r = d.finish(8, 2);
        assert_eq!(r.restored_jobs, 1);
        assert_eq!(r.restored_sim_secs, 5.0);
        assert_eq!(r.workdir, "ckpt");
    }

    #[test]
    fn resume_reruns_on_fingerprint_mismatch_or_missing_output() {
        let cluster = Cluster::medium(1);
        let run = RunId::new("mismatch");
        let mut d = PipelineDriver::checkpointed(&cluster, run.clone());
        d.step(1, |c| {
            c.dfs.write("mismatch/a", Bytes::from_static(b"a"));
            Ok(report("a", 1.0, 0))
        })
        .unwrap();

        // Different spec fingerprint: the record must not be restored.
        let mut d2 = PipelineDriver::resume(&cluster, run.clone()).unwrap();
        let mut reran = false;
        d2.step(2, |_| {
            reran = true;
            Ok(report("a'", 1.0, 0))
        })
        .unwrap();
        assert!(reran, "changed spec must re-run");
        assert_eq!(d2.restored_jobs, 0);

        // Matching fingerprint but a deleted output: re-run too. Fresh run
        // directory so the recorded output diff actually contains the file.
        let run2 = RunId::new("missing-out");
        let mut d3 = PipelineDriver::checkpointed(&cluster, run2.clone());
        d3.step(1, |c| {
            c.dfs.write("missing-out/a", Bytes::from_static(b"a"));
            Ok(report("a", 1.0, 0))
        })
        .unwrap();
        cluster.dfs.delete("missing-out/a");
        let mut d4 = PipelineDriver::resume(&cluster, run2).unwrap();
        let mut reran = false;
        d4.step(1, |c| {
            reran = true;
            c.dfs.write("missing-out/a", Bytes::from_static(b"a"));
            Ok(report("a", 1.0, 0))
        })
        .unwrap();
        assert!(reran, "missing output must re-run");
    }

    /// Regression: `kill_driver_after(0)` used to be a silent no-op (the
    /// post-job decrement never saw the already-zero counter); it must
    /// kill the driver before any job completes.
    #[test]
    fn kill_driver_after_zero_fires_before_the_first_job() {
        let cluster = Cluster::medium(1);
        cluster.faults.kill_driver_after(0);
        let mut d = PipelineDriver::new(&cluster, RunId::new("kill0"));
        let err = d.step(0, |_| panic!("no job may run")).unwrap_err();
        assert_eq!(err, MrError::DriverKilled { after_jobs: 0 });
        // The knob is consumed: after clearing, the pipeline proceeds.
        d.step(0, |_| Ok(report("a", 1.0, 0))).unwrap();
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn resume_without_a_manifest_is_a_not_found_error() {
        let cluster = Cluster::medium(1);
        match PipelineDriver::resume(&cluster, RunId::new("never-ran")) {
            Err(MrError::FileNotFound { path, .. }) => {
                assert_eq!(path, "never-ran/_manifest");
            }
            other => panic!("expected FileNotFound, got {other:?}"),
        }
    }

    #[test]
    fn manifest_stays_out_of_io_accounting() {
        let cluster = Cluster::medium(1);
        let before = cluster.dfs.counters();
        let mut d = PipelineDriver::checkpointed(&cluster, RunId::new("quiet"));
        d.step(0, |_| Ok(report("a", 1.0, 0))).unwrap();
        assert!(cluster.dfs.exists("quiet/_manifest"));
        assert_eq!(
            cluster.dfs.counters(),
            before,
            "checkpointing must not perturb byte accounting"
        );
    }

    #[test]
    fn plain_runs_release_and_checkpointed_runs_keep() {
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

        let run = RunId::new("kept");
        let kept = ["kept/_manifest", "kept/a", "kept/b"];
        let mut d = PipelineDriver::checkpointed(&cluster, run.clone());
        d.step(1, |c| write(c, "kept")).unwrap();
        d.release(["kept/a", "kept/b"]);
        assert_eq!(cluster.dfs.list("kept"), kept);
        // A resume replays the record only because the outputs survived.
        let mut d = PipelineDriver::resume(&cluster, run).unwrap();
        d.step(1, |_| panic!("outputs were kept")).unwrap();
        d.release(vec!["kept/a".to_string()]);
        assert_eq!(cluster.dfs.list("kept"), kept);
    }

    #[test]
    fn torn_manifest_tail_is_ignored() {
        let cluster = Cluster::medium(1);
        let run = RunId::new("torn");
        let mut d = PipelineDriver::checkpointed(&cluster, run.clone());
        d.step(9, |_| Ok(report("a", 2.0, 0))).unwrap();
        // Simulate a crash mid-append: garbage after the valid record.
        let mut data = cluster.dfs.read(&run.manifest_path()).unwrap().to_vec();
        data.extend_from_slice(b"{\"name\":\"tr");
        cluster
            .dfs
            .write_uncounted(&run.manifest_path(), Bytes::from(data));
        let mut d2 = PipelineDriver::resume(&cluster, run).unwrap();
        let r = d2.step(9, |_| panic!("valid prefix must restore")).unwrap();
        assert_eq!(r.name, "a");
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
        assert_eq!(r.restored_jobs, 0, "deltas alone restore nothing");
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
            restored_jobs: 3,
            restored_sim_secs: 41.25,
            data_local_fraction: 0.75,
            remote_read_bytes: 2048,
            analytics: None,
            audit: None,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"jobs\": 9"), "json {json}");
        assert!(json.contains("\"analytics\": null"));
        assert!(json.contains("\"restored_jobs\": 3"));
        assert!(json.contains("\"data_local_fraction\": 0.75"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n, report.n);
        assert_eq!(back.jobs, report.jobs);
        assert_eq!(back.sim_secs, report.sim_secs);
        assert_eq!(back.workdir, "mrinv/run-0");
        assert_eq!(back.restored_jobs, 3);
        assert_eq!(back.restored_sim_secs, 41.25);
        assert!(back.analytics.is_none());
    }
}
