//! Run plumbing shared by every [`crate::Request`]: the run's
//! configuration fingerprint and its run directory.
//!
//! The public entry point for inversion, LU decomposition, and solves is
//! the [`crate::Request`] builder in [`crate::request`] (the historical
//! `invert`/`invert_run`/`lu`/`lu_run`/`solve` free functions collapsed
//! into it). Every run executes through a
//! [`mrinv_mapreduce::PipelineDriver`] addressed by a [`RunId`] — the DFS
//! directory all of the run's files live under.

use mrinv_mapreduce::{Cluster, Fingerprint, RunId};

use crate::config::Optimizations;
use crate::partition::PartitionPlan;

/// Fingerprint of everything that determines the pipeline's job sequence
/// and where its files live: the partition geometry, the run directory and
/// the optimization toggles. Mixed into every job's fingerprint
/// ([`mrinv_mapreduce::JobReport::fingerprint`]), which therefore names
/// the files a job wrote as well as its definition. (The answer's bits
/// depend on `nb` alone, which is why the factor cache keys by less.)
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

/// An unpinned request's run directory: `mrinv/run-<k>` for the lowest `k`
/// whose directory holds no file. Every cold run leaves its directory
/// empty, so this is `mrinv/run-0` unless a caller wrote files there, and
/// a run's job names, fingerprints and placement follow from its request.
pub(crate) fn fresh_run_id(cluster: &Cluster) -> RunId {
    (0..)
        .map(|k| RunId::new(format!("mrinv/run-{k}")))
        .find(|run| cluster.dfs.list(run.dir()).is_empty())
        .expect("an unbounded range has a free directory")
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
