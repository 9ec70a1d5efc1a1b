//! Run plumbing shared by every [`crate::Request`]: checkpoint modes,
//! the manifest configuration fingerprint, and driver construction.
//!
//! The public entry point for inversion, LU decomposition, and solves is
//! the [`crate::Request`] builder in [`crate::request`] (the historical
//! `invert`/`invert_run`/`lu`/`lu_run`/`solve` free functions collapsed
//! into it). Every run still executes through a [`PipelineDriver`]
//! addressed by a deterministic [`RunId`] — the DFS directory all of the
//! run's files live under — and the [`Checkpoint`] mode decides how the
//! run interacts with the manifest at that directory.

use mrinv_mapreduce::{Cluster, Fingerprint, PipelineDriver, RunId};

use crate::config::Optimizations;
use crate::error::Result;
use crate::partition::PartitionPlan;

/// How a run interacts with the checkpoint manifest at its [`RunId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Checkpoint {
    /// No manifest: run every job (the paper's baseline behaviour).
    Disabled,
    /// Record a manifest entry after each completed job; any stale
    /// manifest at the run directory is discarded first.
    Enabled,
    /// Replay the existing manifest: restore every recorded job whose
    /// configuration still matches and whose outputs survive, re-run the
    /// rest (checkpointing stays on for them). Errors if no manifest
    /// exists.
    Resume,
}

/// Fingerprint of everything that determines the pipeline's job sequence
/// and where its files live: the partition geometry, the run directory and
/// the optimization toggles. Mixed into every manifest record so a resume
/// against a changed configuration re-runs instead of restoring stale
/// outputs. (The answer's bits depend on `nb` alone, which is why the
/// factor cache keys by less; a resume restores files, whose names and
/// layout do depend on the rest.)
pub(crate) fn run_fingerprint(plan: &PartitionPlan, opts: &Optimizations) -> u64 {
    Fingerprint::new()
        .push_u64(plan.n as u64)
        .push_u64(plan.nb as u64)
        .push_u64(plan.m0 as u64)
        .push_u64(plan.m_l as u64)
        .push_u64(plan.m_u as u64)
        .push_u64(plan.grid.0 as u64)
        .push_u64(plan.grid.1 as u64)
        .push_bytes(plan.root.as_bytes())
        .push_u64(opts.separate_intermediate_files as u64)
        .push_u64(opts.block_wrap as u64)
        .push_u64(opts.transpose_u as u64)
        .finish()
}

/// A per-cluster run directory for unpinned requests, deterministic given
/// the cluster state: `mrinv/run-<k>` for the first `k` from the count of
/// DFS files written (which grows with every run) up whose directory holds
/// no file. A counter reset can bring the count back to a live directory's
/// name, so a name is only taken once it is known to be empty; a failed
/// run's cleanup then deletes nothing but its own files.
pub(crate) fn fresh_run_id(cluster: &Cluster) -> RunId {
    (cluster.dfs.counters().files_written..)
        .map(|k| RunId::new(format!("mrinv/run-{k}")))
        .find(|run| cluster.dfs.list(run.dir()).is_empty())
        .expect("an unbounded range has a free directory")
}

pub(crate) fn make_driver<'c>(
    cluster: &'c Cluster,
    run: &RunId,
    mode: Checkpoint,
) -> Result<PipelineDriver<'c>> {
    Ok(match mode {
        Checkpoint::Disabled => PipelineDriver::new(cluster, run.clone()),
        Checkpoint::Enabled => PipelineDriver::checkpointed(cluster, run.clone()),
        Checkpoint::Resume => PipelineDriver::resume(cluster, run.clone())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InversionConfig;

    #[test]
    fn run_fingerprint_tracks_configuration() {
        let cluster = Cluster::medium(4);
        let cfg = InversionConfig::with_nb(8);
        let plan = PartitionPlan::new(32, &cluster, &cfg, "Root");
        let fp = run_fingerprint(&plan, &cfg.opts);
        assert_eq!(fp, run_fingerprint(&plan, &cfg.opts), "deterministic");
        let mut other_opts = cfg.opts;
        other_opts.transpose_u = !other_opts.transpose_u;
        assert_ne!(fp, run_fingerprint(&plan, &other_opts));
        let other_plan = PartitionPlan::new(32, &cluster, &InversionConfig::with_nb(16), "Root");
        assert_ne!(fp, run_fingerprint(&other_plan, &cfg.opts));
    }
}
