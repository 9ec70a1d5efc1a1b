//! The experiment implementations behind the `repro` subcommands.
//!
//! # Extrapolated pricing
//!
//! Experiments run the suite at a power-of-two `scale` divisor (orders and
//! `nb` divided by `scale`), which preserves the pipeline structure
//! exactly. To report times comparable to the paper's full-scale EC2 runs,
//! the cost model is *extrapolated*: the flop rate is divided by `scale³`
//! (arithmetic is cubic in the order) and the codec rate and bandwidths
//! by `scale²` (bytes are quadratic), on top of the 2007-era EC2 rates.
//! Job-launch overhead is scale-free, as in reality. The same model
//! prices both systems, so every ratio and crossover is apples-to-apples.
//! Tasks count their work and nothing measured is priced, so every
//! figure repeats byte for byte: each one is a single run.

use mrinv::config::InversionConfig;
use mrinv::schedule;
use mrinv::theory::{self, CostRow};
use mrinv::{Outcome, Request, RunReport};
use mrinv_mapreduce::tracelog;
use mrinv_mapreduce::{
    chrome_trace_json, Cluster, ClusterConfig, CostModel, Phase, PipelineAnalytics,
};
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::Matrix;
use mrinv_scalapack::{ScalapackConfig, ScalapackRun};

use crate::suite::{SuiteMatrix, SUITE};

/// The `base` profile (EC2 medium or large) extrapolated from
/// `scale`-reduced matrices to paper-scale behavior.
pub(crate) fn extrapolated_cost(base: CostModel, scale: usize) -> CostModel {
    let s = scale as f64;
    CostModel {
        flops_per_sec: base.flops_per_sec / (s * s * s),
        codec_bytes_per_sec: base.codec_bytes_per_sec / (s * s),
        disk_read_bw: base.disk_read_bw / (s * s),
        disk_write_bw: base.disk_write_bw / (s * s),
        net_bw: base.net_bw / (s * s),
        ..base
    }
}

/// Builds a medium cluster of `m0` nodes with extrapolated pricing.
pub(crate) fn medium_cluster(m0: usize, scale: usize) -> Cluster {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = extrapolated_cost(CostModel::ec2_medium(), scale);
    Cluster::new(cfg)
}

/// Builds a large-instance cluster (2 cores, 2 slots per node).
pub(crate) fn large_cluster(m0: usize, scale: usize) -> Cluster {
    let mut cfg = ClusterConfig::large(m0);
    cfg.cost = extrapolated_cost(CostModel::ec2_large(), scale);
    Cluster::new(cfg)
}

/// One cold inversion through the front door, on a cluster the experiment
/// built (fault plan, node speeds and tracing included).
fn invert(cluster: &Cluster, a: &Matrix, cfg: &InversionConfig) -> Outcome {
    Request::invert(a)
        .config(cfg)
        .submit(cluster)
        .expect("inversion")
}

/// Full optimized inversion of a suite matrix on a fresh medium cluster.
fn run_suite_matrix(m: &SuiteMatrix, scale: usize, m0: usize) -> Outcome {
    let cfg = InversionConfig::with_nb(m.nb(scale));
    invert(&medium_cluster(m0, scale), &m.generate(scale), &cfg)
}

/// The report of partition + LU pipeline alone for a suite matrix, on a
/// cluster built exactly as [`run_suite_matrix`] builds its own: an
/// `lu` request stops before the final job, so its report is the Table 1
/// stage, and an inversion's report minus it is the Table 2 stage (DFS
/// byte counts repeat exactly across identically built clusters).
fn lu_stage_report(m: &SuiteMatrix, scale: usize, m0: usize) -> RunReport {
    Request::lu(&m.generate(scale))
        .config(&InversionConfig::with_nb(m.nb(scale)))
        .submit(&medium_cluster(m0, scale))
        .expect("lu pipeline")
        .report
}

/// One Table 1 / Table 2 comparison row.
#[derive(Debug, Clone)]
pub struct CostComparisonRow {
    /// Cluster size.
    pub m0: usize,
    /// Theoretical element count (ours).
    pub theory_writes: f64,
    /// Measured elements written.
    pub measured_writes: f64,
    /// Theoretical element reads (ours).
    pub theory_reads: f64,
    /// Measured elements read.
    pub measured_reads: f64,
    /// ScaLAPACK transfer per the paper's model (elements).
    pub scalapack_transfer: f64,
}

impl CostComparisonRow {
    fn new(m0: usize, ours: CostRow, scalapack: CostRow, written: u64, read: u64) -> Self {
        CostComparisonRow {
            m0,
            theory_writes: ours.writes,
            measured_writes: written as f64 / 8.0,
            theory_reads: ours.reads,
            measured_reads: read as f64 / 8.0,
            scalapack_transfer: scalapack.transfer,
        }
    }
}

/// Table 1: LU-stage I/O, theory vs measured, vs the ScaLAPACK model.
pub fn table1(n_matrix: &SuiteMatrix, scale: usize, m0s: &[usize]) -> Vec<CostComparisonRow> {
    m0s.iter()
        .map(|&m0| {
            let lu = lu_stage_report(n_matrix, scale, m0);
            CostComparisonRow::new(
                m0,
                theory::table1_ours(lu.n, m0),
                theory::table1_scalapack(lu.n, m0),
                lu.dfs_bytes_written,
                lu.dfs_bytes_read,
            )
        })
        .collect()
}

/// Table 2: final-stage I/O, theory vs measured, vs the ScaLAPACK model.
pub fn table2(n_matrix: &SuiteMatrix, scale: usize, m0s: &[usize]) -> Vec<CostComparisonRow> {
    m0s.iter()
        .map(|&m0| {
            let lu = lu_stage_report(n_matrix, scale, m0);
            let all = run_suite_matrix(n_matrix, scale, m0).report;
            CostComparisonRow::new(
                m0,
                theory::table2_ours(all.n, m0),
                theory::table2_scalapack(all.n, m0),
                all.dfs_bytes_written - lu.dfs_bytes_written,
                all.dfs_bytes_read - lu.dfs_bytes_read,
            )
        })
        .collect()
}

/// One Figure 6 data point.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Matrix name.
    pub name: &'static str,
    /// Node count.
    pub m0: usize,
    /// Simulated running time, minutes (the paper's Figure 6 axis).
    pub minutes: f64,
}

/// Figure 6: strong scalability of M1–M3 across node counts.
pub fn fig6(scale: usize, node_counts: &[usize]) -> Vec<ScalingPoint> {
    let mut out = Vec::new();
    for m in SUITE
        .iter()
        .filter(|m| matches!(m.name, "M1" | "M2" | "M3"))
    {
        for &m0 in node_counts {
            let secs = run_suite_matrix(m, scale, m0).report.sim_secs;
            out.push(ScalingPoint {
                name: m.name,
                m0,
                minutes: secs / 60.0,
            });
        }
    }
    out
}

/// One Figure 7 ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Node count.
    pub m0: usize,
    /// `T_unopt / T_opt` with intermediate-file combining re-enabled
    /// (Section 6.1 off).
    pub separate_files_ratio: f64,
    /// `T_unopt / T_opt` with block wrap disabled (Section 6.2 off).
    pub block_wrap_ratio: f64,
    /// `T_unopt / T_opt` with transposed-U storage disabled
    /// (Section 6.3 off).
    pub transpose_ratio: f64,
}

/// Figure 7: per-optimization ablations on M5.
pub fn fig7(scale: usize, node_counts: &[usize]) -> Vec<AblationRow> {
    let m5 = SuiteMatrix::by_name("M5").unwrap();
    node_counts
        .iter()
        .map(|&m0| {
            let base = run_suite_matrix(&m5, scale, m0).report.sim_secs;
            let time_with = |mutate: fn(&mut mrinv::Optimizations)| {
                let cluster = medium_cluster(m0, scale);
                let a = m5.generate(scale);
                let mut cfg = InversionConfig::with_nb(m5.nb(scale));
                mutate(&mut cfg.opts);
                invert(&cluster, &a, &cfg).report.sim_secs
            };
            AblationRow {
                m0,
                separate_files_ratio: time_with(|o| o.separate_intermediate_files = false) / base,
                block_wrap_ratio: time_with(|o| o.block_wrap = false) / base,
                transpose_ratio: time_with(|o| o.transpose_u = false) / base,
            }
        })
        .collect()
}

/// One Figure 8 data point.
#[derive(Debug, Clone)]
pub struct VersusPoint {
    /// Matrix name.
    pub name: &'static str,
    /// Node count.
    pub m0: usize,
    /// `T_scalapack / T_ours` (above 1.0 = we win).
    pub ratio: f64,
    /// Our simulated minutes.
    pub ours_minutes: f64,
    /// ScaLAPACK's simulated minutes.
    pub scalapack_minutes: f64,
}

/// Runs the ScaLAPACK baseline on a suite matrix with extrapolated
/// pricing.
pub(crate) fn run_scalapack(m: &SuiteMatrix, scale: usize, m0: usize, large: bool) -> ScalapackRun {
    let a = m.generate(scale);
    let base = if large {
        CostModel::ec2_large()
    } else {
        CostModel::ec2_medium()
    };
    let cost = extrapolated_cost(base, scale);
    let block = (128 / scale).max(4);
    mrinv_scalapack::invert(&a, m0, &cost, &ScalapackConfig { block_size: block })
        .expect("scalapack inversion")
}

/// Figure 8: ratio of ScaLAPACK to our running time for M1–M3.
pub fn fig8(scale: usize, node_counts: &[usize]) -> Vec<VersusPoint> {
    let mut out = Vec::new();
    for m in SUITE
        .iter()
        .filter(|m| matches!(m.name, "M1" | "M2" | "M3"))
    {
        for &m0 in node_counts {
            let ours = run_suite_matrix(m, scale, m0).report.sim_secs;
            let scal = run_scalapack(m, scale, m0, false).report.sim_secs;
            out.push(VersusPoint {
                name: m.name,
                m0,
                ratio: scal / ours,
                ours_minutes: ours / 60.0,
                scalapack_minutes: scal / 60.0,
            });
        }
    }
    out
}

/// Section 7.4 / 7.5 outcome for the very large matrix.
#[derive(Debug, Clone)]
pub struct LargeMatrixOutcome {
    /// Label of the run.
    pub label: String,
    /// Simulated hours.
    pub hours: f64,
    /// Jobs executed.
    pub jobs: u64,
    /// Failed task attempts.
    pub failures: u64,
}

impl LargeMatrixOutcome {
    fn of(label: &str, run: &Outcome) -> Self {
        LargeMatrixOutcome {
            label: label.into(),
            hours: run.report.hours,
            jobs: run.report.jobs,
            failures: run.report.task_failures,
        }
    }
}

/// Everything the Section 7.4 / 7.5 experiment produces: the outcome
/// table plus the captured trace of the paper's headline failure scenario.
#[derive(Debug, Clone)]
pub struct Sec74Output {
    /// One row per run (ours × shapes × clean/failure, plus ScaLAPACK).
    pub outcomes: Vec<LargeMatrixOutcome>,
    /// Chrome/Perfetto `trace_events` JSON of the 64-medium
    /// mapper-failure run — the failed attempt, its retry, and the
    /// stretched final map wave are all visible on the timeline.
    pub failure_trace_json: String,
    /// Straggler/lost-work analytics of that same run.
    pub failure_analytics: PipelineAnalytics,
}

/// Section 7.4: the very large matrix M4 on both cluster shapes, with and
/// without an injected mapper failure, plus the Section 7.5 ScaLAPACK
/// comparison. The 64-medium failure run executes with per-task tracing
/// on and its timeline is returned alongside the outcome table.
pub fn sec74(scale: usize) -> Sec74Output {
    let m4 = SuiteMatrix::by_name("M4").unwrap();
    let cfg = InversionConfig::with_nb(m4.nb(scale));
    let a = m4.generate(scale);
    let mut out = Vec::new();

    // 128 large instances, clean run (paper: ~5 hours).
    let cluster = large_cluster(128, scale);
    let run = invert(&cluster, &a, &cfg);
    out.push(LargeMatrixOutcome::of("ours/128-large/clean", &run));

    // 128 large instances with one failed triangular-inversion mapper
    // (paper: ~8 hours). Large instances have two task slots per node, so
    // with as many tasks as nodes the retry lands on a *free* slot and the
    // schedule barely stretches — the contrast case.
    let cluster = large_cluster(128, scale);
    cluster.faults.fail_task("final-inverse", Phase::Map, 0, 1);
    let run = invert(&cluster, &a, &cfg);
    out.push(LargeMatrixOutcome::of(
        "ours/128-large/mapper-failure",
        &run,
    ));

    // 64 medium instances (paper: ~15 hours).
    let cluster = medium_cluster(64, scale);
    let run = invert(&cluster, &a, &cfg);
    out.push(LargeMatrixOutcome::of("ours/64-medium/clean", &run));

    // 64 medium instances with the same mapper failure. Medium instances
    // have one slot per node and the final job has exactly one task per
    // slot, so the retried mapper "does not restart until one of the other
    // mappers finishes" — the paper's Section 7.4 scenario, and the run
    // visibly stretches. This is the run worth looking at on a timeline,
    // so it executes with per-task tracing enabled.
    let mut ccfg = ClusterConfig::medium(64);
    ccfg.cost = extrapolated_cost(CostModel::ec2_medium(), scale);
    ccfg.tracing = true;
    let cluster = Cluster::new(ccfg);
    cluster.faults.fail_task("final-inverse", Phase::Map, 0, 1);
    let run = invert(&cluster, &a, &cfg);
    out.push(LargeMatrixOutcome::of(
        "ours/64-medium/mapper-failure",
        &run,
    ));
    let events = cluster.trace.events();
    let failure_trace_json = chrome_trace_json(&events);
    let failure_analytics = tracelog::analyze(&events, None);

    // Section 7.5: ScaLAPACK on the same two shapes (paper: 8 h on large,
    // >48 h on medium).
    let large = run_scalapack(&m4, scale, 128, true);
    out.push(LargeMatrixOutcome {
        label: "scalapack/128-large".into(),
        hours: large.report.hours,
        jobs: 0,
        failures: 0,
    });
    let medium = run_scalapack(&m4, scale, 64, false);
    out.push(LargeMatrixOutcome {
        label: "scalapack/64-medium".into(),
        hours: medium.report.hours,
        jobs: 0,
        failures: 0,
    });
    Sec74Output {
        outcomes: out,
        failure_trace_json,
        failure_analytics,
    }
}

/// Everything the Section 7.4 node-death experiment produces.
#[derive(Debug, Clone)]
pub struct Sec74NodeOutput {
    /// clean / degraded / node-death outcome rows.
    pub outcomes: Vec<LargeMatrixOutcome>,
    /// Node killed mid-run in the third run.
    pub victim: usize,
    /// Simulated second the victim died.
    pub t_kill_secs: f64,
    /// In-flight attempts the death killed (death-run trace).
    pub node_lost: usize,
    /// *Completed* map outputs the death destroyed, forcing re-execution
    /// (Hadoop keeps map output on the mapper's local disk).
    pub output_lost: usize,
    /// Attempts the task timeout evicted from the degraded node.
    pub timeouts: usize,
    /// NodeDeath markers on the death-run timeline.
    pub death_markers: usize,
    /// Fraction of the death run's map tasks that ran data-local.
    pub data_local_fraction: f64,
    /// max |clean − death| over the inverse (0.0 ⇒ bit-identical).
    pub max_abs_diff: f64,
    /// Chrome/Perfetto timeline of the death run: the timeout eviction,
    /// the node-death marker, and the re-executed map outputs.
    pub death_trace_json: String,
    /// Straggler/lost-work analytics of the death run.
    pub death_analytics: PipelineAnalytics,
}

/// Section 7.4, node-granularity variant: the paper kills *worker
/// daemons* mid-run and reports the 5 h inversion stretching to 8 h while
/// still finishing correctly. This experiment reproduces that at the node
/// level on M4 / 64 medium instances: a whole node dies mid-wave, its
/// in-flight attempts and its *completed* map outputs are lost and
/// re-executed, and a degraded (slow) node is evicted by the task
/// timeout along the way.
pub fn sec74_node(scale: usize) -> Sec74NodeOutput {
    let m4 = SuiteMatrix::by_name("M4").unwrap();
    node_death_experiment(&m4, scale, 64)
}

/// The [`sec74_node`] machinery, parameterized so tests can run it on a
/// small matrix and cluster.
///
/// The timeout calibration and the bit-identity comparison need the three
/// schedules to be exactly reproducible; counted work is. Three runs:
///
/// 1. **clean** — calibrates the task timeout (comfortably above the
///    longest healthy attempt, including a worst-case fully-remote read)
///    and pins the reference inverse;
/// 2. **degraded** — the last node runs slow enough that the final map
///    wave's task on it blows the timeout and is re-executed elsewhere;
///    its timeline picks the death's victim and instant: a healthy node
///    that finished a map task in a shuffling job's wave that keeps
///    running long after (so the death provably destroys a *finished*
///    map output, not just an in-flight attempt);
/// 3. **node-death** — the degraded run plus `kill_node(victim, t_kill)`.
pub fn node_death_experiment(m: &SuiteMatrix, scale: usize, m0: usize) -> Sec74NodeOutput {
    use mrinv_mapreduce::tracelog::TracePhase;
    use std::collections::{BTreeMap, BTreeSet};

    let cfg = InversionConfig::with_nb(m.nb(scale));
    let a = m.generate(scale);
    let cost = extrapolated_cost(CostModel::ec2_medium(), scale);
    let cluster_with = |speeds: Vec<f64>, timeout: Option<f64>| {
        let mut ccfg = ClusterConfig::medium(m0);
        ccfg.cost = cost.clone();
        ccfg.tracing = true;
        ccfg.node_speeds = speeds;
        ccfg.task_timeout_secs = timeout;
        Cluster::new(ccfg)
    };
    let dur = |e: &mrinv_mapreduce::TaskEvent| e.sim_end_secs - e.sim_start_secs;

    // Run 1: clean.
    let cluster = cluster_with(vec![], None);
    let clean = invert(&cluster, &a, &cfg);
    let clean_events = cluster.trace.events();
    let d_max = clean_events
        .iter()
        .filter(|e| matches!(e.phase, TracePhase::Map | TracePhase::Reduce))
        .map(&dur)
        .fold(0.0f64, f64::max);
    // No healthy attempt may ever trip the timeout, in any of the three
    // runs. Placement shifts between runs, so an attempt that was
    // data-local in the clean run may read its whole input over the
    // network elsewhere — charging at most read_bytes/net_bw on top, and
    // read_bytes/disk_read_bw is already inside the nominal duration.
    // Scale the clean maximum by that worst case, plus 50% headroom.
    let timeout = 1.5 * d_max * (1.0 + cost.disk_read_bw / cost.net_bw);
    // Slow factor tuned against the *final* job's map tasks (one per
    // node, so round 1 provably hands the slow node one): at nominal
    // speed they fit the timeout, on the slow node they take twice it.
    let last_map_job = clean_events
        .iter()
        .filter(|e| e.phase == TracePhase::Map)
        .filter_map(|e| e.job_seq)
        .max()
        .expect("the pipeline ran map tasks");
    let final_map_nominal = clean_events
        .iter()
        .filter(|e| e.phase == TracePhase::Map && e.job_seq == Some(last_map_job))
        .map(dur)
        .fold(0.0f64, f64::max);
    let slow = (final_map_nominal / (2.0 * timeout)).min(0.5);
    let mut speeds = vec![1.0; m0];
    speeds[m0 - 1] = slow;

    // Run 2: degraded — timeout evictions, no death.
    let cluster = cluster_with(speeds.clone(), Some(timeout));
    let degraded = invert(&cluster, &a, &cfg);
    let base_events = cluster.trace.events();

    // Victim: among map waves of shuffling jobs (map-only side files are
    // replicated DFS writes and survive a death), the healthy node whose
    // last completed map attempt leaves the biggest gap to the wave's
    // end. Killing it mid-gap destroys a finished map output.
    let shuffling_jobs: BTreeSet<u64> = base_events
        .iter()
        .filter(|e| e.phase == TracePhase::Reduce)
        .filter_map(|e| e.job_seq)
        .collect();
    let mut best: Option<(f64, usize, f64)> = None; // (gap, victim, t_kill)
    for &job in &shuffling_jobs {
        let wave: Vec<_> = base_events
            .iter()
            .filter(|e| e.phase == TracePhase::Map && e.job_seq == Some(job))
            .collect();
        let wave_end = wave.iter().map(|e| e.sim_end_secs).fold(0.0f64, f64::max);
        let mut last_ok: BTreeMap<usize, f64> = BTreeMap::new();
        for e in &wave {
            if let (None, Some(n)) = (&e.failure, e.node) {
                let v = last_ok.entry(n).or_insert(0.0);
                *v = v.max(e.sim_end_secs);
            }
        }
        for (&node, &end) in &last_ok {
            // Keep the slow node alive — it is why the wave drags on.
            if node == m0 - 1 {
                continue;
            }
            let gap = wave_end - end;
            if best.as_ref().is_none_or(|b| gap > b.0) {
                best = Some((gap, node, end + 0.5 * gap));
            }
        }
    }
    let (_, victim, t_kill) = best.expect("a shuffling job's map wave has an early finisher");

    // Run 3: the same degraded cluster, with the victim dying mid-wave.
    let cluster = cluster_with(speeds, Some(timeout));
    cluster.faults.kill_node(victim, t_kill);
    let death = invert(&cluster, &a, &cfg);
    let events = cluster.trace.events();
    let failures_starting = |prefix: &str| {
        events
            .iter()
            .filter(|e| e.failure.as_deref().is_some_and(|f| f.starts_with(prefix)))
            .count()
    };
    let row = |label: &str, run: &Outcome| {
        LargeMatrixOutcome::of(&format!("ours/{m0}-medium/{label}"), run)
    };
    let clean_inverse = clean.inverse().expect("invert outcome");
    let death_inverse = death.inverse().expect("invert outcome");
    Sec74NodeOutput {
        outcomes: vec![
            row("clean", &clean),
            row("slow-node+timeout", &degraded),
            row("node-death", &death),
        ],
        victim,
        t_kill_secs: t_kill,
        node_lost: failures_starting("node-lost"),
        output_lost: failures_starting("map-output-lost"),
        timeouts: failures_starting("timeout"),
        death_markers: events
            .iter()
            .filter(|e| e.phase == TracePhase::NodeDeath)
            .count(),
        data_local_fraction: death.report.data_local_fraction,
        max_abs_diff: death_inverse
            .max_abs_diff(clean_inverse)
            .expect("same shape"),
        death_trace_json: chrome_trace_json(&events),
        death_analytics: tracelog::analyze(&events, None),
    }
}

/// Section 7.2 accuracy check: max |(I − M·M^-1)_ij| for the suite.
pub fn accuracy(scale: usize, m0: usize) -> Vec<(String, f64)> {
    SUITE
        .iter()
        .filter(|m| matches!(m.name, "M1" | "M2" | "M3" | "M5"))
        .map(|m| {
            let a = m.generate(scale);
            let inverse = run_suite_matrix(m, scale, m0).into_inverse();
            let res = inversion_residual(&a, &inverse).expect("square");
            (m.name.to_string(), res)
        })
        .collect()
}

/// Table 3 static row (sizes extrapolate to the paper's scale; the job
/// count is exact at every scale).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Matrix name.
    pub name: &'static str,
    /// Paper-scale order.
    pub full_order: usize,
    /// Elements in billions at paper scale.
    pub elements_billion: f64,
    /// Text size in GB at paper scale.
    pub text_gb: f64,
    /// Binary size in GB at paper scale.
    pub binary_gb: f64,
    /// Number of MapReduce jobs.
    pub jobs: u64,
    /// Order actually run at the chosen scale.
    pub scaled_order: usize,
}

/// Table 3: the evaluation suite.
pub fn table3(scale: usize) -> Vec<Table3Row> {
    SUITE
        .iter()
        .map(|m| {
            let n = m.full_order;
            Table3Row {
                name: m.name,
                full_order: n,
                elements_billion: m.full_elements_billion(),
                text_gb: mrinv_matrix::io::text_size_estimate(n, n) as f64 / 1e9 * 0.8,
                binary_gb: mrinv_matrix::io::binary_size(n, n) as f64 / 1e9,
                jobs: schedule::total_jobs(m.order(scale), m.nb(scale)),
                scaled_order: m.order(scale),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolated_cost_scales() {
        let c1 = extrapolated_cost(CostModel::ec2_medium(), 1);
        let c32 = extrapolated_cost(CostModel::ec2_medium(), 32);
        assert_eq!(c1, CostModel::ec2_medium());
        assert_eq!(c32.flops_per_sec, c1.flops_per_sec / 32.0f64.powi(3));
        assert_eq!(c32.codec_bytes_per_sec, c1.codec_bytes_per_sec / 1024.0);
        assert_eq!(c32.disk_read_bw, c1.disk_read_bw / 1024.0);
        let large = extrapolated_cost(CostModel::ec2_large(), 32);
        assert_eq!((large.cores_per_node, large.net_bw), (2, 45e6 / 1024.0));
        assert_eq!(
            c32.job_launch_secs, c1.job_launch_secs,
            "launch is scale-free"
        );
    }

    #[test]
    fn tables_reproduce_the_pinned_stage_bytes() {
        // M5 at scale 64 -> n = 256, nb = 50 on 4 medium nodes, 9 jobs.
        // DFS byte counts repeat exactly; the LU pair was read off the
        // hand-sequenced stage split before it was deleted. The inversion
        // pair fell by 522336 / 1044672 B when the `INV/` files became
        // triangles: the n(n-1) zero elements of the two inverses and 12
        // header bytes on each of the 8 files, written once and read by 2
        // reducers each.
        let m5 = SuiteMatrix::by_name("M5").unwrap();
        let lu = &table1(&m5, 64, &[4])[0];
        let inv = &table2(&m5, 64, &[4])[0];
        assert_eq!(lu.measured_writes * 8.0, 1_345_468.0);
        assert_eq!(lu.measured_reads * 8.0, 3_363_240.0);
        assert_eq!(inv.measured_writes * 8.0, 1_059_056.0);
        assert_eq!(inv.measured_reads * 8.0, 2_771_024.0);
        // The two stages are the whole inversion, nothing more or less.
        let all = run_suite_matrix(&m5, 64, 4).report;
        assert_eq!(all.n, 256);
        assert_eq!(all.jobs, 9, "M5 runs 9 jobs at any scale");
        assert_eq!(all.dfs_bytes_written, 1_345_468 + 1_059_056);
        assert_eq!(all.dfs_bytes_read, 3_363_240 + 2_771_024);
    }

    #[test]
    fn node_death_experiment_loses_completed_maps_and_recovers() {
        let m5 = SuiteMatrix::by_name("M5").unwrap();
        // Tiny but multi-round: scale 64 -> n = 256, nb = 50 on 4 nodes.
        let out = node_death_experiment(&m5, 64, 4);
        assert_eq!(
            out.max_abs_diff, 0.0,
            "the death run must reproduce the clean bits"
        );
        assert!(
            out.output_lost >= 1,
            "the death must destroy a completed map output: {out:?}"
        );
        assert!(out.death_markers >= 1, "the death is a trace marker");
        assert!(
            out.timeouts >= 1,
            "the slow node must trip the task timeout: {out:?}"
        );
        let hours = |needle: &str| {
            out.outcomes
                .iter()
                .find(|o| o.label.contains(needle))
                .unwrap()
                .hours
        };
        assert!(
            hours("node-death") > hours("clean"),
            "lost work stretches the makespan"
        );
        assert!((0.0..=1.0).contains(&out.data_local_fraction));
        assert!(out.death_trace_json.contains("traceEvents"));
    }

    #[test]
    fn table3_is_static_and_exact() {
        let rows = table3(32);
        assert_eq!(rows.len(), 5);
        let jobs: Vec<u64> = rows.iter().map(|r| r.jobs).collect();
        assert_eq!(jobs, vec![9, 17, 17, 33, 9]);
        let m4 = &rows[3];
        assert!((m4.binary_gb - 83.9).abs() < 1.0, "M4 ~80 GB binary");
    }

    #[test]
    fn accuracy_below_paper_threshold_small() {
        // Small smoke version of `repro accuracy`.
        let m5 = SuiteMatrix::by_name("M5").unwrap();
        let a = m5.generate(64);
        let inverse = run_suite_matrix(&m5, 64, 4).into_inverse();
        let res = inversion_residual(&a, &inverse).unwrap();
        assert!(res < 1e-5, "residual {res}");
    }
}

/// One bound-value sweep point (the Section 5 `nb` tuning discussion:
/// too small => too many job launches; too large => the serial master-node
/// LU becomes the bottleneck).
#[derive(Debug, Clone)]
pub struct NbSweepPoint {
    /// Bound value tried.
    pub nb: usize,
    /// Jobs the pipeline needed.
    pub jobs: u64,
    /// Simulated minutes.
    pub minutes: f64,
}

/// Ablation: sweep the bound value `nb` for M5 on a fixed cluster.
pub fn nb_sweep(scale: usize, m0: usize, nbs: &[usize]) -> Vec<NbSweepPoint> {
    let m5 = SuiteMatrix::by_name("M5").unwrap();
    let a = m5.generate(scale);
    nbs.iter()
        .map(|&nb| {
            let cluster = medium_cluster(m0, scale);
            let run = invert(&cluster, &a, &InversionConfig::with_nb(nb)).report;
            NbSweepPoint {
                nb,
                jobs: run.jobs,
                minutes: run.sim_secs / 60.0,
            }
        })
        .collect()
}

/// One Section 8 (future work) projection point: the same pipeline priced
/// as a Spark-style in-memory dataflow.
#[derive(Debug, Clone)]
pub struct SparkPoint {
    /// Matrix name.
    pub name: &'static str,
    /// Node count.
    pub m0: usize,
    /// Hadoop-priced simulated minutes (DFS between every job).
    pub hadoop_minutes: f64,
    /// Spark-priced simulated minutes (intermediates in memory).
    pub spark_minutes: f64,
}

/// Section 8's future-work projection: "implementing our algorithm in
/// Spark would improve performance by reducing read I/O". The identical
/// pipeline runs twice; the Spark pricing keeps intermediates in memory
/// (memory-speed "disk", no replication, cheap job launch), exactly the
/// deltas the paper attributes to Spark's RDDs.
pub fn sec8_spark(scale: usize, node_counts: &[usize]) -> Vec<SparkPoint> {
    let mut out = Vec::new();
    for m in SUITE.iter().filter(|m| matches!(m.name, "M2" | "M5")) {
        let a = m.generate(scale);
        let cfg = InversionConfig::with_nb(m.nb(scale));
        for &m0 in node_counts {
            let hadoop = invert(&medium_cluster(m0, scale), &a, &cfg).report.sim_secs;
            let mut ccfg = ClusterConfig::medium(m0);
            let base = extrapolated_cost(CostModel::ec2_medium(), scale);
            ccfg.cost = CostModel {
                // Intermediates live in memory: ~2 GB/s effective
                // (scale-adjusted), no replication, 1 s task launch.
                disk_read_bw: base.disk_read_bw * 33.0,
                disk_write_bw: base.disk_write_bw * 33.0,
                replication: 1,
                job_launch_secs: 1.0,
                ..base
            };
            let spark = invert(&Cluster::new(ccfg), &a, &cfg).report.sim_secs;
            out.push(SparkPoint {
                name: m.name,
                m0,
                hadoop_minutes: hadoop / 60.0,
                spark_minutes: spark / 60.0,
            });
        }
    }
    out
}

/// One Section 2 method-comparison row: the executable version of the
/// paper's "choice of inversion method" discussion.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method name.
    pub method: &'static str,
    /// Accuracy: max |I − A·X|.
    pub residual: f64,
    /// MapReduce jobs a pipeline port would need (the paper's Section 2
    /// argument: sequential steps translate to sequential jobs).
    pub mr_jobs: u64,
    /// Scope restriction, if any.
    pub scope: &'static str,
}

/// Section 2: compare the inversion methods the paper weighs —
/// Gauss-Jordan, (block) LU, QR via Gram-Schmidt — plus the related-work
/// Cholesky fast path on an SPD input.
pub fn section2_methods(n: usize, nb: usize) -> Vec<MethodRow> {
    let a = mrinv_matrix::random::random_well_conditioned(n, 2014);
    let spd = mrinv_matrix::random::random_spd(n, 2014);
    let row = |method, target: &Matrix, inv: Matrix, mr_jobs, scope| MethodRow {
        method,
        residual: inversion_residual(target, &inv).unwrap(),
        mr_jobs,
        scope,
    };
    vec![
        row(
            "gauss-jordan",
            &a,
            crate::gauss_jordan::invert_gauss_jordan(&a).unwrap(),
            2 * n as u64,
            "general",
        ),
        row(
            "block-lu (paper)",
            &a,
            mrinv::inmem::invert_block(&a, nb).unwrap(),
            schedule::total_jobs(n, nb),
            "general",
        ),
        row(
            "qr (gram-schmidt)",
            &a,
            crate::qr::invert_qr(&a).unwrap(),
            n as u64,
            "general",
        ),
        row(
            "cholesky",
            &spd,
            crate::cholesky::invert_spd(&spd).unwrap(),
            n as u64,
            "SPD only",
        ),
    ]
}

/// One straggler-mitigation row.
#[derive(Debug, Clone)]
pub struct StragglerRow {
    /// Slow-node speed factor (1.0 = homogeneous).
    pub slow_factor: f64,
    /// Simulated minutes with speculative execution off.
    pub no_speculation_minutes: f64,
    /// Simulated minutes with speculative execution on.
    pub speculation_minutes: f64,
}

/// Heterogeneity ablation: the paper observes high variance between
/// supposedly identical EC2 instances (Section 7.4) and credits MapReduce
/// scheduling with keeping workers busy (Section 7.5). This experiment
/// slows one node of a 16-node cluster by increasing factors and measures
/// the run with and without Hadoop-style speculative execution.
pub fn stragglers(scale: usize, slow_factors: &[f64]) -> Vec<StragglerRow> {
    let m5 = SuiteMatrix::by_name("M5").unwrap();
    let a = m5.generate(scale);
    let cfg = InversionConfig::with_nb(m5.nb(scale));
    slow_factors
        .iter()
        .map(|&slow| {
            let time_with = |speculative: bool| {
                let mut ccfg = ClusterConfig::medium(16);
                ccfg.cost = extrapolated_cost(CostModel::ec2_medium(), scale);
                let mut speeds = vec![1.0; 16];
                speeds[7] = slow;
                ccfg.node_speeds = speeds;
                ccfg.speculative_execution = speculative;
                let cluster = Cluster::new(ccfg);
                invert(&cluster, &a, &cfg).report.sim_secs
            };
            StragglerRow {
                slow_factor: slow,
                no_speculation_minutes: time_with(false) / 60.0,
                speculation_minutes: time_with(true) / 60.0,
            }
        })
        .collect()
}
