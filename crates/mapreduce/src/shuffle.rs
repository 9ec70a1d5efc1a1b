//! The shuffle: map-side partitioning, reducer-parallel merge-and-sort,
//! and grouped value views.
//!
//! Each map task pre-partitions its emitted pairs into one bucket per
//! reduce partition *inside its own (already parallel) task body*
//! ([`partition_pairs`]). After the map wave, [`parallel_shuffle`] merges
//! the buckets per reducer across all map tasks and sorts each reducer's
//! run — one independent unit of work per reducer, executed through
//! rayon. The old framework shuffled every emitted pair through one
//! single-threaded loop and then cloned every group's values before each
//! `Reducer::reduce` call; the sorted [`ReducerInput`] instead stores keys
//! and values in parallel arrays so each key group is a contiguous
//! borrowed `&[V]` slice (`ReducerInput::groups`) — no value is ever
//! copied between `emit` and `reduce`.
//!
//! # Determinism
//!
//! The shuffle is bit-for-bit identical to the reference single-threaded
//! path (`reference_shuffle` in the framework proptests, kept as the
//! executable specification):
//!
//! * a key's partition comes from the job's partitioner alone — same key,
//!   same reducer, regardless of bucketing;
//! * within a reducer, pairs are concatenated in map-task order (then
//!   emission order) and sorted with a *stable* sort by key, so equal keys
//!   keep their cross-task arrival order exactly as the old
//!   push-then-stable-sort loop produced it.
//!
//! The pinned inverse bits rely on this equivalence. Every job shuffles through [`parallel_shuffle`]; the
//! transfer's *time* is priced separately, after the map wave's barrier
//! (`CostModel::shuffle_secs`), and never sees the data.

use rayon::prelude::*;

/// One reduce partition's shuffled input: keys and values in parallel
/// arrays, stably sorted by key, so each key's values form one contiguous
/// slice of `values`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducerInput<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K: Ord, V> ReducerInput<K, V> {
    /// Builds the input from one reduce partition's pairs (any order);
    /// sorts them stably by key.
    pub(crate) fn from_pairs(mut pairs: Vec<(K, V)>) -> Self {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let (keys, values) = pairs.into_iter().unzip();
        ReducerInput { keys, values }
    }

    /// Rebuilds an input from already-sorted parallel arrays *without*
    /// re-sorting — used when a remote worker receives a partition the
    /// driver already shuffled. The caller guarantees `keys` is sorted and
    /// `values[i]` belongs to `keys[i]` (a re-sort here could not restore
    /// the stable cross-task order anyway, since ties carry no task ids).
    pub(crate) fn from_sorted_parts(keys: Vec<K>, values: Vec<V>) -> Self {
        debug_assert_eq!(keys.len(), values.len());
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        ReducerInput { keys, values }
    }

    /// The sorted keys (one entry per pair, duplicates adjacent).
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The values, in key-sorted (stable) order.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Iterates the key groups: one `(key, values)` item per distinct key,
    /// in ascending key order, where `values` borrows the contiguous run
    /// of that key's values.
    pub(crate) fn groups(&self) -> Groups<'_, K, V> {
        Groups { input: self, at: 0 }
    }
}

/// Iterator over a [`ReducerInput`]'s key groups.
pub(crate) struct Groups<'a, K, V> {
    input: &'a ReducerInput<K, V>,
    at: usize,
}

impl<'a, K: Ord, V> Iterator for Groups<'a, K, V> {
    type Item = (&'a K, &'a [V]);

    fn next(&mut self) -> Option<(&'a K, &'a [V])> {
        let keys = &self.input.keys;
        let i = self.at;
        if i >= keys.len() {
            return None;
        }
        let mut j = i + 1;
        while j < keys.len() && keys[j] == keys[i] {
            j += 1;
        }
        self.at = j;
        Some((&keys[i], &self.input.values[i..j]))
    }
}

/// Splits one map task's emitted pairs into one bucket per reduce
/// partition, preserving emission order within each bucket. Runs inside
/// the map task's rayon closure, so the per-pair partitioner work is
/// already parallel across map tasks.
pub fn partition_pairs<K, V>(
    pairs: Vec<(K, V)>,
    partitioner: fn(&K, usize) -> usize,
    num_reducers: usize,
) -> Vec<Vec<(K, V)>> {
    let mut buckets: Vec<Vec<(K, V)>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for (k, v) in pairs {
        let p = partitioner(&k, num_reducers);
        buckets[p].push((k, v));
    }
    buckets
}

/// Merges per-map-task buckets into per-reducer sorted runs, one rayon
/// work item per reducer.
///
/// `task_buckets[t][p]` holds map task `t`'s pairs for partition `p`
/// (each inner list of length `num_reducers`, as produced by
/// [`partition_pairs`]). Within each partition, tasks' buckets are
/// concatenated in task order before the stable sort — the exact pair
/// order of pushing every task's pairs into its partition on one thread,
/// then stable-sorting each partition by key (the framework proptests
/// hold it to that specification).
pub fn parallel_shuffle<K, V>(
    task_buckets: Vec<Vec<Vec<(K, V)>>>,
    num_reducers: usize,
) -> Vec<ReducerInput<K, V>>
where
    K: Ord + Send,
    V: Send,
{
    // Transpose: per-reducer lists of per-task buckets, still in task
    // order (cheap — moves the bucket Vecs, not the pairs).
    let mut per_reducer: Vec<Vec<Vec<(K, V)>>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for buckets in task_buckets {
        debug_assert_eq!(buckets.len(), num_reducers);
        for (p, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                per_reducer[p].push(bucket);
            }
        }
    }
    per_reducer
        .into_par_iter()
        .map(|chunks| {
            let total = chunks.iter().map(Vec::len).sum();
            let mut pairs = Vec::with_capacity(total);
            for chunk in chunks {
                pairs.extend(chunk);
            }
            ReducerInput::from_pairs(pairs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{hash_partitioner, identity_partitioner};

    #[test]
    fn groups_are_contiguous_and_ordered() {
        let input = ReducerInput::from_pairs(vec![(2, "c"), (1, "a"), (2, "d"), (1, "b")]);
        let groups: Vec<(i32, Vec<&str>)> =
            input.groups().map(|(k, vs)| (*k, vs.to_vec())).collect();
        assert_eq!(groups, vec![(1, vec!["a", "b"]), (2, vec!["c", "d"])]);
        assert_eq!(input.keys().len(), 4);
    }

    #[test]
    fn empty_input_has_no_groups() {
        let input: ReducerInput<u32, u32> = ReducerInput::from_pairs(Vec::new());
        assert!(input.keys().is_empty());
        assert_eq!(input.groups().count(), 0);
    }

    #[test]
    fn stable_sort_preserves_emission_order_for_equal_keys() {
        // Values arrive 3,1,2 for the same key; the stable sort must not
        // reorder them.
        let input = ReducerInput::from_pairs(vec![(0usize, 3), (1, 9), (0, 1), (0, 2)]);
        assert_eq!(input.values(), &[3, 1, 2, 9]);
    }

    #[test]
    fn partition_pairs_routes_like_the_partitioner() {
        let pairs: Vec<(usize, usize)> = (0..50).map(|i| (i, i * 10)).collect();
        let buckets = partition_pairs(pairs, identity_partitioner, 4);
        assert_eq!(buckets.len(), 4);
        for (p, bucket) in buckets.iter().enumerate() {
            assert!(bucket.iter().all(|(k, _)| k % 4 == p));
        }
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn parallel_matches_reference_on_interleaved_tasks() {
        // Several tasks emitting overlapping keys with distinct values so
        // any order violation is visible. The reference: each partition
        // holds its keys' pairs in task, then emission order, stable-sorted
        // by key.
        let tasks: Vec<Vec<(usize, (usize, usize))>> = (0..6)
            .map(|t| (0..40).map(|i| (i % 7, (t, i))).collect())
            .collect();
        let buckets = tasks
            .iter()
            .map(|pairs| partition_pairs(pairs.clone(), hash_partitioner::<usize>, 3))
            .collect();
        let got = parallel_shuffle(buckets, 3);
        for (p, input) in got.iter().enumerate() {
            let mut expect: Vec<(usize, (usize, usize))> = tasks
                .iter()
                .flatten()
                .filter(|(k, _)| hash_partitioner(k, 3) == p)
                .copied()
                .collect();
            expect.sort_by_key(|&(k, _)| k);
            let pairs: Vec<_> = input
                .keys()
                .iter()
                .copied()
                .zip(input.values().iter().copied())
                .collect();
            assert_eq!(pairs, expect);
        }
    }

    #[test]
    fn single_reducer_collects_everything() {
        let tasks = vec![vec![(5u64, 1u8), (1, 2)], vec![(3, 3)]];
        let buckets = tasks
            .into_iter()
            .map(|p| partition_pairs(p, hash_partitioner::<u64>, 1))
            .collect();
        let out = parallel_shuffle(buckets, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].keys(), &[1, 3, 5]);
        assert_eq!(out[0].values(), &[2, 3, 1]);
    }
}
