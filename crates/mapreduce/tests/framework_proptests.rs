//! Property-based tests on the MapReduce framework itself.

use bytes::Bytes;
use mrinv_mapreduce::job::{
    hash_partitioner, identity_partitioner, JobSpec, MapContext, Mapper, ReduceContext, Reducer,
};
use mrinv_mapreduce::runner::{run_job, run_map_only};
use mrinv_mapreduce::scheduler::{plan_wave, PlannedTask, WaveFaults};
use mrinv_mapreduce::shuffle::{parallel_shuffle, partition_pairs};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, MrError, Phase};
use proptest::prelude::*;
use std::collections::HashMap;

fn unit_cluster(m0: usize) -> Cluster {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    Cluster::new(cfg)
}

/// The pre-parallel shuffle, kept as the executable specification of
/// `parallel_shuffle`: push every map task's pairs (task order, then
/// emission order) into its partition, then stable-sort each partition
/// by key, all on one thread. Returns each partition's sorted pairs.
fn reference_shuffle<K: Ord, V>(
    task_outputs: Vec<Vec<(K, V)>>,
    partitioner: fn(&K, usize) -> usize,
    num_reducers: usize,
) -> Vec<Vec<(K, V)>> {
    let mut partitions: Vec<Vec<(K, V)>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for pairs in task_outputs {
        for (k, v) in pairs {
            let p = partitioner(&k, num_reducers);
            partitions[p].push((k, v));
        }
    }
    for partition in &mut partitions {
        partition.sort_by(|a, b| a.0.cmp(&b.0));
    }
    partitions
}

/// Word count, the canonical MapReduce program.
struct WcMapper;
impl Mapper for WcMapper {
    type Input = String;
    type Key = String;
    type Value = u64;
    fn map(&self, input: &String, ctx: &mut MapContext<String, u64>) -> Result<(), MrError> {
        let data = ctx.read(input)?;
        for w in String::from_utf8_lossy(&data).split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
        Ok(())
    }
}
struct WcReducer;
impl Reducer for WcReducer {
    type Key = String;
    type Value = u64;
    type Output = u64;
    fn reduce(
        &self,
        _k: &String,
        values: &[u64],
        _ctx: &mut ReduceContext,
    ) -> Result<u64, MrError> {
        Ok(values.iter().sum())
    }
}

fn arb_docs() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::collection::vec("[a-e]{1,3}", 0..20).prop_map(|ws| ws.join(" ")),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wordcount_matches_sequential((docs, reducers, m0) in (arb_docs(), 1usize..7, 1usize..9)) {
        let cluster = unit_cluster(m0);
        let mut inputs = Vec::new();
        for (i, d) in docs.iter().enumerate() {
            let path = format!("in/{i}");
            cluster.dfs.write(&path, Bytes::from(d.clone()));
            inputs.push(path);
        }
        let spec = JobSpec::new("wc").reducers(reducers);
        let (out, report) = run_job(&cluster, &spec, &WcMapper, &WcReducer, &inputs).unwrap();

        let mut expect: HashMap<String, u64> = HashMap::new();
        for d in &docs {
            for w in d.split_whitespace() {
                *expect.entry(w.to_string()).or_default() += 1;
            }
        }
        let got: HashMap<String, u64> = out.into_iter().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(report.map_tasks, docs.len());
        prop_assert_eq!(report.reduce_tasks, reducers);
    }

    #[test]
    fn wordcount_is_identical_under_injected_failures(
        (docs, fail_map, fail_red) in (arb_docs(), 0usize..4, 0usize..3)
    ) {
        let run_with = |faults: bool| {
            let cluster = unit_cluster(2);
            if faults {
                cluster.faults.fail_task("wc", Phase::Map, fail_map, 1);
                cluster.faults.fail_task("wc", Phase::Reduce, fail_red, 1);
            }
            let mut inputs = Vec::new();
            for (i, d) in docs.iter().enumerate() {
                let path = format!("in/{i}");
                cluster.dfs.write(&path, Bytes::from(d.clone()));
                inputs.push(path);
            }
            let spec = JobSpec::new("wc").reducers(3);
            let (mut out, _) = run_job(&cluster, &spec, &WcMapper, &WcReducer, &inputs).unwrap();
            out.sort();
            out
        };
        prop_assert_eq!(run_with(false), run_with(true));
    }

    #[test]
    fn scheduler_makespan_bounds(
        (tasks, nodes, slots) in (prop::collection::vec(0.0f64..100.0, 0..40), 1usize..10, 1usize..4)
    ) {
        // A fault-free wave: single-attempt budget, no locality inputs.
        let planned: Vec<PlannedTask> = tasks
            .iter()
            .map(|&success_secs| PlannedTask { success_secs, ..Default::default() })
            .collect();
        let faults = WaveFaults { max_attempts: 1, ..Default::default() };
        let s = plan_wave(&planned, &vec![1.0; nodes], slots, &faults);
        let total: f64 = tasks.iter().sum();
        let longest = tasks.iter().fold(0.0f64, |m, &v| m.max(v));
        let capacity = (nodes * slots) as f64;
        // Classic list-scheduling bounds.
        prop_assert!(s.makespan_secs >= longest - 1e-9);
        prop_assert!(s.makespan_secs >= total / capacity - 1e-9);
        prop_assert!(s.makespan_secs <= total / capacity + longest + 1e-9);
        // Every placement is a valid node index.
        prop_assert!(s.attempts.iter().all(|a| a.len() == 1 && a[0].node < nodes));
        prop_assert_eq!(s.attempts.len(), tasks.len());
    }

    #[test]
    fn dfs_read_returns_last_write(
        ops in prop::collection::vec(("([a-c]/){0,2}[a-z]{1,4}", prop::collection::vec(any::<u8>(), 0..64)), 1..40)
    ) {
        let cluster = unit_cluster(1);
        let mut expect: HashMap<String, Vec<u8>> = HashMap::new();
        for (path, data) in &ops {
            cluster.dfs.write(path, Bytes::from(data.clone()));
            expect.insert(mrinv_mapreduce::dfs::normalize_path(path), data.clone());
        }
        for (path, data) in &expect {
            let (got, _) = cluster.dfs.read(path).unwrap();
            prop_assert_eq!(got.as_ref(), &data[..]);
        }
        prop_assert_eq!(cluster.dfs.file_count(), expect.len());
    }

    /// The parallel shuffle must be bit-identical to the single-threaded
    /// reference: same partition for every key, and for equal keys the
    /// exact value order the old push-then-stable-sort loop produced
    /// (map-task order, then emission order). Values carry their
    /// (task, emission) provenance so any reordering is visible.
    #[test]
    fn parallel_shuffle_matches_reference(
        (task_keys, reducers, hashed) in (
            prop::collection::vec(prop::collection::vec(0usize..12, 0..40), 1..10),
            1usize..8,
            any::<bool>(),
        )
    ) {
        let partitioner = if hashed { hash_partitioner::<usize> } else { identity_partitioner };
        let tasks: Vec<Vec<(usize, (usize, usize))>> = task_keys
            .iter()
            .enumerate()
            .map(|(t, keys)| keys.iter().enumerate().map(|(i, &k)| (k, (t, i))).collect())
            .collect();
        let expect = reference_shuffle(tasks.clone(), partitioner, reducers);
        let buckets = tasks
            .into_iter()
            .map(|pairs| partition_pairs(pairs, partitioner, reducers))
            .collect();
        let got = parallel_shuffle(buckets, reducers);
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(expect) {
            let (keys, values): (Vec<_>, Vec<_>) = e.into_iter().unzip();
            prop_assert_eq!(g.keys(), &keys[..]);
            prop_assert_eq!(g.values(), &values[..]);
        }
    }

    #[test]
    fn map_only_jobs_touch_every_input((n_inputs, m0) in (1usize..30, 1usize..9)) {
        struct Touch;
        impl Mapper for Touch {
            type Input = usize;
            type Key = usize;
            type Value = usize;
            fn map(
                &self,
                input: &usize,
                ctx: &mut MapContext<usize, usize>,
            ) -> Result<(), MrError> {
                ctx.write(&format!("touched/{input}"), Bytes::from_static(b"1"));
                Ok(())
            }
        }
        let cluster = unit_cluster(m0);
        let inputs: Vec<usize> = (0..n_inputs).collect();
        let spec: JobSpec<usize> = JobSpec::new("touch");
        let report = run_map_only(&cluster, &spec, &Touch, &inputs).unwrap();
        prop_assert_eq!(report.map_tasks, n_inputs);
        for i in 0..n_inputs {
            let path = format!("touched/{i}");
            prop_assert!(cluster.dfs.exists(&path));
        }
    }
}
