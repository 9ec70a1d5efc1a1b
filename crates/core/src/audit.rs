//! The cost-model audit: a finished run checked against the closed forms
//! that predicted it.
//!
//! The paper's Section 1 claim — "the number of jobs in the pipeline and
//! the data movement between the jobs can be precisely determined before
//! the start of the computation" — is a *prediction*, and this module
//! measures how good it is on a finished run. Two layers:
//!
//! 1. **Structure** — the executed job count against the precomputed plan
//!    (the [`crate::schedule`] closed forms).
//! 2. **Stages** — the bytes the run's job reports counted against the
//!    Table 1/2 closed forms of [`crate::theory`], with calibrated
//!    tolerance bands: the LU stage's transfer lands within 10% of
//!    `(l+3)n²` and the final stage's reads within 10% of Table 2's Read
//!    column `l'n²`; writes sit between the paper's bound and the full
//!    file inventory (the forms exclude factor stripes — see
//!    `tests/schedule_and_costs.rs`).
//!
//! Both layers read the run's job reports
//! ([`mrinv_mapreduce::RunReport::job_reports`]), whose `stats` sum each
//! job's successful attempts.
//!
//! [`crate::Request::submit`] attaches the audit to
//! [`mrinv_mapreduce::RunReport::audit`] when the cluster traces
//! ([`mrinv_mapreduce::cluster::ClusterConfig::tracing`]), so an untraced
//! run's report is unchanged.

use mrinv_mapreduce::obs::{CostAudit, StageAudit};
use mrinv_mapreduce::{RunReport, TaskStats};

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
/// lu-transfer ratio is 1.13–1.26.
const STAGE_BAND: (f64, f64) = (0.9, 1.1);

/// Minimum LU recursion depth ([`crate::schedule::recursion_depth`]) the
/// lu-transfer and final-inverse-reads bands are asserted at. Below it
/// the lower-order terms the Table 1/2 forms drop dominate the
/// measurement (lu-transfer ratio 0.71 at depth 2, 0.90 at depth 3), so
/// out-of-domain runs simply omit both stages.
///
/// The forms are not asymptotic in the depth, though: on 4 nodes the
/// lu-transfer ratio climbs about 0.14 per level — 1.087 / 1.045 at
/// depth 4 (n=64/nb=4, n=128/nb=8), 1.221 / 1.196 at depth 5
/// (n=128/nb=4, n=256/nb=8), 1.365 / 1.355 at depth 6 (n=256/nb=4,
/// n=384/nb=8) — which looks like a per-level `n²` term Table 1 omits.
/// So the band holds only at depth 4; ROADMAP item 18 explains or
/// removes the excess.
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

/// Audits one finished run: `run` is the run's report (its job reports
/// in pipeline order carry the measured bytes; order, block size and
/// cluster size evaluate the closed forms; `nb` fixes the recursion
/// depth, which decides whether the transfer bands are in their
/// calibrated domain), and `planned_jobs` the precomputed pipeline length
/// ([`crate::schedule::total_jobs`], or one less for an LU-only run).
pub(crate) fn cost_audit(run: &RunReport, planned_jobs: u64) -> CostAudit {
    let reports = &run.job_reports;
    let family_bytes = |prefix: &str, bytes: fn(&TaskStats) -> u64| -> Option<f64> {
        let mut family = reports
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .peekable();
        family.peek()?;
        Some(family.map(|r| bytes(&r.stats)).sum::<u64>() as f64)
    };
    let lu_transfer = family_bytes("lu-level:", |s| s.read_bytes + s.shuffle_bytes);
    let final_reads = family_bytes("final-inverse:", |s| s.read_bytes);

    let mut stages = Vec::new();
    let in_transfer_domain =
        crate::schedule::recursion_depth(run.n, run.nb) >= TRANSFER_CALIBRATED_MIN_DEPTH;
    let lu_row = theory::table1_ours(run.n, run.nodes);
    let inv_row = theory::table2_ours(run.n, run.nodes);
    if in_transfer_domain {
        if let Some(measured) = lu_transfer {
            stages.push(stage(
                "lu-transfer",
                measured,
                lu_row.transfer_bytes(),
                STAGE_BAND,
            ));
        }
        // Table 2's Read column, `l'·n²`: the factors the mappers read and
        // the triangles the reducers read.
        if let Some(measured) = final_reads {
            stages.push(stage(
                "final-inverse-reads",
                measured,
                inv_row.read_bytes(),
                STAGE_BAND,
            ));
        }
    }
    if lu_transfer.is_some() {
        // The whole pipeline's write volume against the closed forms of
        // the stages it executed (Table 1 alone for LU-only runs).
        let predicted = lu_row.write_bytes() + final_reads.map_or(0.0, |_| inv_row.write_bytes());
        stages.push(stage(
            "total-writes",
            run.dfs_bytes_written as f64,
            predicted,
            WRITES_BAND,
        ));
    }

    let structure_ok = reports.len() as u64 == planned_jobs;
    CostAudit {
        planned_jobs: planned_jobs as usize,
        executed_jobs: reports.len(),
        structure_ok,
        within_bands: structure_ok && stages.iter().all(|s| s.within_band),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InversionConfig;
    use crate::request::Request;
    use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, Phase};
    use mrinv_matrix::random::random_well_conditioned;

    fn traced_cluster(m0: usize) -> Cluster {
        let mut cfg = ClusterConfig::medium(m0);
        cfg.cost = CostModel::unit_for_tests();
        cfg.tracing = true;
        Cluster::new(cfg)
    }

    fn audit_of(cluster: &Cluster, n: usize, nb: usize, seed: u64) -> CostAudit {
        let a = random_well_conditioned(n, seed);
        let out = Request::invert(&a)
            .config(&InversionConfig::with_nb(nb))
            .submit(cluster)
            .unwrap();
        out.report.audit.expect("traced run attaches the audit")
    }

    fn find<'a>(audit: &'a CostAudit, name: &str) -> &'a StageAudit {
        let stages = &audit.stages;
        (stages.iter().find(|s| s.stage == name))
            .unwrap_or_else(|| panic!("{name} missing from the stage checks: {stages:?}"))
    }

    #[test]
    fn homogeneous_run_audits_clean() {
        let audit = audit_of(&traced_cluster(4), 64, 4, 17);
        assert!(
            audit.structure_ok,
            "planned {} executed {}",
            audit.planned_jobs, audit.executed_jobs
        );
        assert!(audit.within_bands);
        for name in ["lu-transfer", "final-inverse-reads"] {
            find(&audit, name);
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
        // bands were calibrated at. The audit must stay clean and simply
        // omit the transfer stages instead of reporting drift the closed
        // forms never promised to model.
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
        assert!(audit.within_bands, "clean structure, clean audit");
    }

    #[test]
    fn depth_five_reads_lu_transfer_outside_the_band() {
        // n=128/nb=4 is depth 5: the lu-transfer ratio reads 1.221, about
        // 0.14 over depth 4's, so Table 1's `(l+3)n²` misses a per-level
        // term. The band is not widened to hide it.
        let audit = audit_of(&traced_cluster(4), 128, 4, 17);
        let transfer = find(&audit, "lu-transfer");
        assert!(
            !transfer.within_band && transfer.ratio > transfer.band_hi,
            "lu-transfer reads {} inside [{}, {}] at depth 5: ROADMAP item 18 \
             explains or removes the per-level excess; update this test and \
             TRANSFER_CALIBRATED_MIN_DEPTH's doc with it",
            transfer.ratio,
            transfer.band_lo,
            transfer.band_hi
        );
        assert!(!audit.within_bands);
    }

    #[test]
    fn stage_bytes_equal_the_traces_successful_attempts() {
        // One injected lu-level map failure: the failed attempt's bytes
        // are in the trace but not in the job's report, and the stages
        // must count only the successful attempts either way.
        let cluster = traced_cluster(4);
        cluster.faults.fail_task("lu-level", Phase::Map, 0, 1);
        let audit = audit_of(&cluster, 64, 4, 17);
        assert_eq!(cluster.faults.injected_count(), 1);
        let log = &cluster.trace;
        let attempts = log.events();
        assert!(attempts.iter().any(|e| e.failure.is_some()));
        let traced = |prefix: &str, bytes: fn(u64, u64) -> u64| -> f64 {
            (attempts.iter())
                .filter(|e| e.job.starts_with(prefix) && e.failure.is_none())
                .filter(|e| matches!(e.phase.label(), "map" | "reduce"))
                .map(|e| bytes(e.read_bytes, e.shuffle_bytes))
                .sum::<u64>() as f64
        };
        assert_eq!(
            find(&audit, "lu-transfer").measured,
            traced("lu-level:", |read, shuffle| read + shuffle)
        );
        assert_eq!(
            find(&audit, "final-inverse-reads").measured,
            traced("final-inverse:", |read, _| read)
        );
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
