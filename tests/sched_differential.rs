//! Differential acceptance for pipelined, work-stealing scheduling:
//! whatever the simulated timeline does — barrier or pipelined, slow
//! nodes, mid-job node deaths, timeouts — the *data* must be bitwise
//! identical between the two modes. The reducer below folds its values
//! through an order-sensitive hash, so any deviation in reduce-input
//! order or in group content shows up as a different output value, not a
//! tolerance miss.
//!
//! Timelines are *not* compared across the two executions here: simulated
//! seconds include each run's measured CPU, so two separately executed
//! jobs differ by microseconds of noise. "Pipelined never prices slower"
//! is asserted deterministically, on identical inputs, by the runner's
//! `pipelined_pricing_never_exceeds_barrier` unit test.

use mrinv::{InversionConfig, Request, RunId};
use mrinv_mapreduce::job::{JobSpec, MapContext, Mapper, ReduceContext, Reducer};
use mrinv_mapreduce::runner::run_job;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, ManifestRecord, SchedulingMode};
use mrinv_matrix::io::encode_binary;
use mrinv_matrix::random::random_well_conditioned;
use proptest::prelude::*;

/// Emits `pairs_per_task` pairs with overlapping keys across tasks, so
/// reducers see multi-task runs whose stable cross-task order matters.
struct SprayMapper {
    keys: usize,
    pairs_per_task: usize,
}

impl Mapper for SprayMapper {
    type Input = usize;
    type Key = usize;
    type Value = u64;

    fn map(&self, task: &usize, ctx: &mut MapContext<usize, u64>) -> mrinv_mapreduce::Result<()> {
        for i in 0..self.pairs_per_task {
            let key = (task * 7 + i) % self.keys.max(1);
            // Distinct per (task, i): a swap anywhere changes some fold.
            ctx.emit(key, (*task as u64) << 32 | i as u64);
        }
        Ok(())
    }
}

/// Folds values through a non-commutative hash: sensitive to the exact
/// order the shuffle delivered them in.
struct OrderHashReducer;

impl Reducer for OrderHashReducer {
    type Key = usize;
    type Value = u64;
    type Output = u64;

    fn reduce(
        &self,
        key: &usize,
        values: &[u64],
        _ctx: &mut ReduceContext,
    ) -> mrinv_mapreduce::Result<u64> {
        let mut h = *key as u64 ^ 0x9e37_79b9_7f4a_7c15;
        for v in values {
            h = h.wrapping_mul(31).wrapping_add(*v);
        }
        Ok(h)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_spray(
    mode: SchedulingMode,
    map_tasks: usize,
    reducers: usize,
    m0: usize,
    speeds: &[f64],
    death: Option<(usize, f64)>,
    timeout: Option<f64>,
) -> Vec<(usize, u64)> {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    cfg.scheduling = mode;
    cfg.node_speeds = speeds.to_vec();
    cfg.task_timeout_secs = timeout;
    let cluster = Cluster::new(cfg);
    if let Some((node, at)) = death {
        cluster.faults.kill_node(node % m0.max(1), at);
    }
    let spec: JobSpec<usize> = JobSpec::new("spray").reducers(reducers);
    let mapper = SprayMapper {
        keys: 11,
        pairs_per_task: 13,
    };
    let inputs: Vec<usize> = (0..map_tasks).collect();
    let (outputs, _) =
        run_job(&cluster, &spec, &mapper, &OrderHashReducer, &inputs).expect("job completes");
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ragged task counts, heterogeneous speeds, mid-job node deaths, and
    /// timeout settings: pipelined outputs are bitwise identical to
    /// barrier outputs.
    /// (Optional dimensions are range-encoded: the upper half of each
    /// range means "absent" — the vendored proptest has no option
    /// strategy.)
    #[test]
    fn pipelined_outputs_match_barrier_bitwise(
        (map_tasks, reducers, m0, slow_raw, death_node, death_at, timeout_raw) in
            (1usize..24, 1usize..7, 1usize..6, 0.0f64..2.0, 0usize..6, 0.0f64..40.0,
             0.0f64..1000.0)
    ) {
        let slow = (slow_raw < 1.0).then_some(slow_raw.max(0.25));
        // Killing the only node leaves nothing to retry on and the job
        // (correctly) fails in both modes; deaths need survivors.
        let death = (death_at < 20.0 && m0 >= 2).then_some((death_node, death_at));
        let timeout = (timeout_raw >= 500.0).then_some(timeout_raw);
        let speeds: Vec<f64> = match slow {
            // One straggler node, the rest nominal.
            Some(s) => (0..m0).map(|n| if n == m0 - 1 { s } else { 1.0 }).collect(),
            None => Vec::new(),
        };
        let barrier =
            run_spray(SchedulingMode::Barrier, map_tasks, reducers, m0, &speeds, death, timeout);
        let pipelined =
            run_spray(SchedulingMode::Pipelined, map_tasks, reducers, m0, &speeds, death, timeout);
        prop_assert_eq!(barrier, pipelined);
    }
}

fn manifest_fingerprints(cluster: &Cluster, run: &RunId) -> Vec<(String, u64)> {
    let manifest = cluster.dfs.read(&run.manifest_path()).unwrap();
    std::str::from_utf8(&manifest)
        .unwrap()
        .lines()
        .map(|l| {
            let r: ManifestRecord = serde_json::from_str(l).unwrap();
            (r.name, r.fingerprint)
        })
        .collect()
}

/// The acceptance pipeline (n = 64, nb = 4, 17 jobs): the inverse bytes
/// and every manifest fingerprint agree between scheduling modes, and the
/// pipelined timeline is no slower end to end.
#[test]
fn acceptance_pipeline_is_bit_identical_across_scheduling_modes() {
    let (n, nb) = (64, 4);
    let a = random_well_conditioned(n, 17);
    let inv_cfg = InversionConfig::with_nb(nb);
    let run = RunId::new("accept/sched-diff");

    let mut results = Vec::new();
    for mode in [SchedulingMode::Barrier, SchedulingMode::Pipelined] {
        let mut cfg = ClusterConfig::medium(4);
        cfg.cost = CostModel::unit_for_tests();
        cfg.scheduling = mode;
        let cluster = Cluster::new(cfg);
        let out = Request::invert(&a)
            .config(&inv_cfg)
            .checkpoint(&run)
            .submit(&cluster)
            .unwrap();
        assert_eq!(out.report.jobs, 17);
        let fingerprints = manifest_fingerprints(&cluster, &run);
        assert_eq!(fingerprints.len(), 17);
        results.push((
            encode_binary(out.inverse().unwrap()),
            fingerprints,
            cluster.sim_secs(),
        ));
    }

    let (barrier_inv, barrier_fp, barrier_secs) = &results[0];
    let (pipelined_inv, pipelined_fp, pipelined_secs) = &results[1];
    assert_eq!(
        barrier_inv, pipelined_inv,
        "inverse bytes differ between scheduling modes"
    );
    assert_eq!(
        barrier_fp, pipelined_fp,
        "manifest fingerprints differ between scheduling modes"
    );
    // Two separate executions, so measured-CPU noise (~1e-3 s here) enters
    // both sides — but streaming hides ~168 simulated seconds of shuffle
    // across these 17 jobs, five orders of magnitude above that noise.
    assert!(
        pipelined_secs <= &(barrier_secs + 1e-9),
        "pipelined pipeline ({pipelined_secs} s) prices slower than barrier ({barrier_secs} s)"
    );
}
