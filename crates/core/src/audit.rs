//! The cost-model audit: every priced task attempt checked against the
//! cost model's own closed forms.
//!
//! The paper's Section 1 claim — "the number of jobs in the pipeline and
//! the data movement between the jobs can be precisely determined before
//! the start of the computation" — is a *prediction*, and this module
//! measures how good it is on a finished run. Three layers:
//!
//! 1. **Structure** — the executed job count against the precomputed plan
//!    (the [`crate::schedule`] closed forms).
//! 2. **Stages** — measured bytes (from the trace) against the Table 1/2
//!    closed forms of [`crate::theory`], with calibrated tolerance bands:
//!    the LU stage's transfer lands within 10% of `(l+3)n²` and the final
//!    stage's reads within 10% of Table 2's Read column `l'n²`; writes sit
//!    between the paper's bound and the full file inventory (the forms
//!    exclude factor stripes — see `tests/schedule_and_costs.rs`).
//! 3. **Tasks** — for every successful priced attempt, the *predicted*
//!    cost re-derived from its measured stats through
//!    [`mrinv_mapreduce::CostModel`] (CPU + I/O + remote-read terms)
//!    against the *priced* simulated duration the wave planner charged.
//!    On a homogeneous cluster the two must agree to within
//!    [`MODEL_ERROR_THRESHOLD`]; heterogeneous node speeds, backoff
//!    delays, or a planner/pricer divergence show up as flagged residuals.
//!
//! The audit needs a traced run ([`mrinv_mapreduce::cluster::ClusterConfig::tracing`]);
//! [`crate::Request::submit`] attaches it to
//! [`mrinv_mapreduce::RunReport::audit`] automatically when the trace is on.

use mrinv_mapreduce::obs::{CostAudit, JobResiduals, StageAudit, TaskFlag, MODEL_ERROR_THRESHOLD};
use mrinv_mapreduce::runner::JobReport;
use mrinv_mapreduce::tracelog::{TaskEvent, TracePhase};
use mrinv_mapreduce::Cluster;

use crate::theory;

/// Relative half-width of the stage bands: the measured LU transfer and
/// final-stage reads must land within 10% of the Table 1/2 closed forms.
///
/// Calibrated on 4 nodes. Measured final-inverse-reads ratios: 1.085
/// (n=64, nb=4), 1.042 / 1.050 (n=128, nb=4 / 8); on 16 nodes 1.152 /
/// 1.075 / 1.080 at the same three shapes, on 64 nodes 1.114 / 1.120
/// (n=128, nb=4 / 8). Every `INV/` file adds a header and every mapper
/// reads whole leaves, so small orders on many nodes sit just above the
/// band. On 16+ nodes the audit of these small orders fails anyway: the
/// lu-transfer ratio is 1.13–1.26 and per-task residuals reach 0.38.
const STAGE_BAND: (f64, f64) = (0.9, 1.1);

/// Minimum LU recursion depth ([`crate::schedule::recursion_depth`]) the
/// lu-transfer and final-inverse-reads bands are calibrated for. The
/// Table 1/2 forms are asymptotic in the recursion depth; on shallow runs
/// (e.g. n=64/nb=16, depth 2) the lower-order terms they drop dominate
/// the measurement (lu-transfer ratio 0.71 at depth 2, 0.90 at depth 3,
/// 1.09 at depth 4), so asserting the 10% band there would report model
/// drift where the model was never claimed to apply. Out-of-domain runs
/// simply omit both stages.
const TRANSFER_CALIBRATED_MIN_DEPTH: u32 = 4;

/// Write-volume band: at least the paper's closed form, at most the full
/// file inventory (factor stripes and update files included) — the
/// calibration established by `measured_lu_writes_track_table1`.
const WRITES_BAND: (f64, f64) = (1.0, 2.2);

fn stage(name: &str, measured: f64, predicted: f64, band: (f64, f64)) -> StageAudit {
    let ratio = if predicted > 0.0 {
        measured / predicted
    } else {
        f64::NAN
    };
    StageAudit {
        stage: name.to_string(),
        measured,
        predicted,
        ratio,
        band_lo: band.0,
        band_hi: band.1,
        within_band: ratio >= band.0 && ratio <= band.1,
    }
}

fn phase_name(phase: TracePhase) -> &'static str {
    match phase {
        TracePhase::Map => "map",
        TracePhase::Reduce => "reduce",
        _ => "other",
    }
}

/// Exact (nearest-rank) p-th percentile of unsorted values; 0 when empty.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Audits one finished run: `reports` are the run's job reports (they
/// select this run's events out of the cluster trace by `job_seq`),
/// `planned_jobs` the precomputed pipeline length
/// ([`crate::schedule::total_jobs`], or one less for an LU-only run), and
/// `n`/`nb` the matrix order and block size the Table 1/2 closed forms
/// are evaluated at (`nb` fixes the recursion depth, which decides
/// whether the transfer bands are in their calibrated domain).
/// `dfs_bytes_written` is the run's write delta
/// ([`mrinv_mapreduce::RunReport::dfs_bytes_written`]) for the
/// write-volume stage check.
///
/// Works only on a traced cluster — with tracing off there are no events
/// and the audit degenerates to the structure check (0 tasks, trivially
/// within threshold), so callers gate on
/// [`mrinv_mapreduce::tracelog::TraceLog::is_enabled`].
pub fn cost_audit(
    cluster: &Cluster,
    reports: &[JobReport],
    planned_jobs: u64,
    n: usize,
    nb: usize,
    dfs_bytes_written: u64,
) -> CostAudit {
    let m0 = cluster.nodes();
    let cost = &cluster.config.cost;
    let seqs: std::collections::BTreeSet<u64> = reports.iter().map(|r| r.job_seq).collect();
    let events = cluster.trace.events();
    let run_events: Vec<&TaskEvent> = events
        .iter()
        .filter(|e| {
            e.job_seq.is_some_and(|s| seqs.contains(&s))
                && matches!(e.phase, TracePhase::Map | TracePhase::Reduce)
        })
        .collect();

    // ---- Stage audits: measured bytes vs the Tables 1/2 closed forms ----
    let stage_bytes = |prefix: &str, bytes: fn(&TaskEvent) -> u64| -> f64 {
        run_events
            .iter()
            .filter(|e| e.job.starts_with(prefix) && e.failure.is_none())
            .map(|e| bytes(e) as f64)
            .sum()
    };
    let mut stages = Vec::new();
    let in_transfer_domain =
        crate::schedule::recursion_depth(n, nb) >= TRANSFER_CALIBRATED_MIN_DEPTH;
    let lu_row = theory::table1_ours(n, m0);
    let has_lu = run_events.iter().any(|e| e.job.starts_with("lu-level:"));
    if has_lu && in_transfer_domain {
        stages.push(stage(
            "lu-transfer",
            stage_bytes("lu-level:", |e| e.read_bytes + e.shuffle_bytes),
            lu_row.transfer_bytes(),
            STAGE_BAND,
        ));
    }
    let has_final = run_events
        .iter()
        .any(|e| e.job.starts_with("final-inverse:"));
    let inv_row = theory::table2_ours(n, m0);
    if has_final && in_transfer_domain {
        // Table 2's Read column, `l'·n²`: the factors the mappers read and
        // the triangles the reducers read.
        stages.push(stage(
            "final-inverse-reads",
            stage_bytes("final-inverse:", |e| e.read_bytes),
            inv_row.read_bytes(),
            STAGE_BAND,
        ));
    }
    if has_lu {
        // The run's whole write volume against the closed forms of the
        // stages it executed (Table 1 alone for LU-only runs).
        let predicted_writes = lu_row.write_bytes()
            + if has_final {
                inv_row.write_bytes()
            } else {
                0.0
            };
        stages.push(stage(
            "total-writes",
            dfs_bytes_written as f64,
            predicted_writes,
            WRITES_BAND,
        ));
    }

    // ---- Per-task pricing residuals -------------------------------------
    // Successful attempts only: failed attempts are priced by their
    // truncation point (timeout limit, death instant), not the model.
    let mut flagged = Vec::new();
    let mut by_job: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut total = 0usize;
    let mut sum_abs = 0.0;
    let mut max_abs = 0.0f64;
    for e in run_events.iter().filter(|e| e.failure.is_none()) {
        let predicted = e.cpu_sim_secs + e.io_sim_secs + cost.remote_read_secs(e.remote_read_bytes);
        let priced = e.sim_end_secs - e.sim_start_secs;
        let residual = (priced - predicted) / predicted.max(1e-9);
        total += 1;
        sum_abs += residual.abs();
        max_abs = max_abs.max(residual.abs());
        by_job.entry(e.job.as_str()).or_default().push(residual);
        if residual.abs() > MODEL_ERROR_THRESHOLD {
            flagged.push(TaskFlag {
                job: e.job.clone(),
                phase: phase_name(e.phase).to_string(),
                task: e.task,
                attempt: e.attempt,
                predicted_secs: predicted,
                priced_secs: priced,
                residual,
            });
        }
    }
    let per_job = by_job
        .into_iter()
        .map(|(job, residuals)| {
            let mut abs: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
            let mean = abs.iter().sum::<f64>() / abs.len() as f64;
            let max = abs.iter().cloned().fold(0.0f64, f64::max);
            let p95 = percentile(&mut abs, 0.95);
            JobResiduals {
                job: job.to_string(),
                tasks: residuals.len(),
                max_abs: max,
                mean_abs: mean,
                p95_abs: p95,
            }
        })
        .collect();

    let stages_ok = stages.iter().all(|s: &StageAudit| s.within_band);
    CostAudit {
        threshold: MODEL_ERROR_THRESHOLD,
        planned_jobs: planned_jobs as usize,
        executed_jobs: reports.len(),
        structure_ok: reports.len() as u64 == planned_jobs,
        stages,
        per_job,
        tasks: total,
        max_abs_residual: max_abs,
        mean_abs_residual: if total == 0 {
            0.0
        } else {
            sum_abs / total as f64
        },
        flagged,
        within_threshold: max_abs <= MODEL_ERROR_THRESHOLD && stages_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InversionConfig;
    use crate::request::Request;
    use mrinv_mapreduce::{ClusterConfig, CostModel};
    use mrinv_matrix::random::random_well_conditioned;

    fn traced_cluster(m0: usize) -> Cluster {
        let mut cfg = ClusterConfig::medium(m0);
        cfg.cost = CostModel::unit_for_tests();
        cfg.tracing = true;
        Cluster::new(cfg)
    }

    #[test]
    fn homogeneous_run_audits_clean() {
        let cluster = traced_cluster(4);
        let a = random_well_conditioned(64, 17);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(4))
            .submit(&cluster)
            .unwrap();
        let audit = out.report.audit.expect("traced run attaches the audit");
        assert!(
            audit.structure_ok,
            "planned {} executed {}",
            audit.planned_jobs, audit.executed_jobs
        );
        assert!(audit.tasks > 0);
        assert!(
            audit.max_abs_residual <= audit.threshold,
            "max residual {} over threshold {}",
            audit.max_abs_residual,
            audit.threshold
        );
        assert!(audit.flagged.is_empty());
        assert!(audit.within_threshold);
        for name in ["lu-transfer", "final-inverse-reads"] {
            assert!(
                audit.stages.iter().any(|s| s.stage == name),
                "{name} missing from the stage checks: {:?}",
                audit.stages
            );
        }
        for s in &audit.stages {
            assert!(
                s.within_band,
                "{}: ratio {} outside [{}, {}]",
                s.stage, s.ratio, s.band_lo, s.band_hi
            );
        }
    }

    #[test]
    fn final_reads_band_holds_at_sixteen_nodes() {
        // More nodes mean more `INV/` files (more headers) and more
        // whole-leaf over-reads per mapper; at n=128/nb=8 (depth 4) the
        // reads still land inside the band (ratio 1.080).
        let cluster = traced_cluster(16);
        let a = random_well_conditioned(128, 17);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(8))
            .submit(&cluster)
            .unwrap();
        let audit = out.report.audit.expect("traced run attaches the audit");
        let reads = audit
            .stages
            .iter()
            .find(|s| s.stage == "final-inverse-reads")
            .expect("depth 4 asserts the reads band");
        assert!(
            reads.within_band,
            "ratio {} outside [{}, {}]",
            reads.ratio, reads.band_lo, reads.band_hi
        );
    }

    #[test]
    fn shallow_runs_skip_out_of_domain_transfer_bands() {
        // n=64/nb=16 is recursion depth 2 — below the depth the transfer
        // bands were calibrated at. The audit must stay clean (residuals
        // are still exact) and simply omit the transfer stages instead of
        // reporting drift the closed forms never promised to model.
        let cluster = traced_cluster(4);
        let a = random_well_conditioned(64, 29);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(16))
            .submit(&cluster)
            .unwrap();
        let audit = out.report.audit.expect("traced run attaches the audit");
        assert_eq!(
            audit
                .stages
                .iter()
                .map(|s| s.stage.as_str())
                .collect::<Vec<_>>(),
            ["total-writes"],
            "only the depth-independent write band is asserted"
        );
        assert!(audit.within_threshold, "clean residuals, clean audit");
    }

    #[test]
    fn heterogeneous_speeds_flag_residuals() {
        // A 3x-slow node breaks the speed-blind pricing assumption: priced
        // durations on that node exceed the nominal-speed prediction, so
        // the audit must flag tasks instead of reporting a clean model.
        let mut cfg = ClusterConfig::medium(4);
        cfg.cost = CostModel::unit_for_tests();
        cfg.tracing = true;
        cfg.node_speeds = vec![1.0, 1.0, 1.0, 1.0 / 3.0];
        let cluster = Cluster::new(cfg);
        let a = random_well_conditioned(64, 19);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(4))
            .submit(&cluster)
            .unwrap();
        let audit = out.report.audit.expect("traced run attaches the audit");
        assert!(
            audit.max_abs_residual > audit.threshold,
            "slow node must show up as model error (max {})",
            audit.max_abs_residual
        );
        assert!(!audit.flagged.is_empty());
        assert!(!audit.within_threshold);
    }

    #[test]
    fn untraced_cluster_yields_no_audit() {
        let mut cfg = ClusterConfig::medium(4);
        cfg.cost = CostModel::unit_for_tests();
        let cluster = Cluster::new(cfg);
        let a = random_well_conditioned(32, 23);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(8))
            .submit(&cluster)
            .unwrap();
        assert!(out.report.audit.is_none());
    }
}
