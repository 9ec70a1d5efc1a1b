//! The MapReduce programming model: mappers, reducers, task contexts.
//!
//! The contract matches Hadoop's: a mapper consumes one input split and
//! emits `(key, value)` pairs; the shuffle routes each key to a reduce
//! partition (by a partitioner), sorts, and groups; a reducer consumes one
//! key with all its values. There is no combiner, and one size rule: keys
//! and values carry [`ShuffleSize`], and [`MapContext::emit`] charges each
//! pair's deep size, in the driver and in a worker process alike. Tasks
//! may also perform side I/O against the DFS through their context — the
//! paper's jobs lean on this heavily (Section 5.1: mapper inputs are
//! small *control files*, and the real inputs/outputs are DFS files the
//! tasks read and write directly).
//!
//! Both contexts deref to one [`TaskIo`], the accounted handle every DFS
//! access in the tree goes through (the master and the factor cache open
//! their own): every byte it moves is accounted into [`TaskStats`], beside
//! the flops the task charges for its arithmetic, and the scheduler prices
//! those counts into simulated time. A map task's handle also tallies, per
//! node, the bytes whose replicas its reads found there (each read returns
//! its block's surviving homes): that tally is the task's placement input,
//! resolved when the task reads.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::dfs::DfsAccess;
use crate::error::Result;

/// Work of one task attempt: the counts [`crate::simtime::CostModel`]
/// prices, and the wall time the body took, which it does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskStats {
    /// Measured wall time of the task body (observability only).
    pub cpu: Duration,
    /// Flops of the task's arithmetic kernels, as charged by the task via
    /// [`TaskIo::charge_flops`].
    pub flops: u64,
    /// Bytes read from the DFS.
    pub read_bytes: u64,
    /// Bytes written to the DFS.
    pub write_bytes: u64,
    /// Bytes emitted into the shuffle: the deep [`ShuffleSize`] of every
    /// pair.
    pub shuffle_bytes: u64,
}

impl TaskStats {
    /// Component-wise sum, saturating: a worker's reply is input, and an
    /// in-range but huge figure (`cpu: Duration::MAX`) must not panic the
    /// driver that adds it up.
    pub fn merge(&self, other: &TaskStats) -> TaskStats {
        TaskStats {
            cpu: self.cpu.saturating_add(other.cpu),
            flops: self.flops.saturating_add(other.flops),
            read_bytes: self.read_bytes.saturating_add(other.read_bytes),
            write_bytes: self.write_bytes.saturating_add(other.write_bytes),
            shuffle_bytes: self.shuffle_bytes.saturating_add(other.shuffle_bytes),
        }
    }

    /// Total bytes crossing the network under the theory module's model:
    /// every DFS read plus everything pushed through the shuffle
    /// (`theory.rs` Tables 1–2 count all DFS reads as network transfer).
    pub fn transfer_bytes(&self) -> u64 {
        self.read_bytes.saturating_add(self.shuffle_bytes)
    }
}

/// The one accounted handle between code and the DFS: every byte moved
/// through it lands in its [`TaskStats`]. Task contexts deref to it, and
/// the master opens one over `cluster.dfs`.
pub struct TaskIo {
    dfs: Arc<dyn DfsAccess>,
    stats: TaskStats,
    /// `Some` on the map side only: `local[node]` is how many of the bytes
    /// read have a surviving replica on `node` (the read returned its
    /// homes), from which the scheduler places the task and prices its
    /// non-local reads. Nodes past the end hold none of them.
    local: Option<Vec<u64>>,
}

impl TaskIo {
    /// A handle over `dfs` that accounts bytes and records nothing else
    /// (the reduce side, the master, tests).
    pub fn new(dfs: Arc<dyn DfsAccess>) -> Self {
        TaskIo {
            dfs,
            stats: TaskStats::default(),
            local: None,
        }
    }

    /// Reads a DFS file, charging the bytes to this handle.
    pub fn read(&mut self, path: &str) -> Result<Bytes> {
        let (data, homes) = self.dfs.read(path)?;
        let bytes = data.len() as u64;
        self.stats.read_bytes += bytes;
        if let Some(local) = &mut self.local {
            for &node in homes.iter() {
                if node >= local.len() {
                    local.resize(node + 1, 0);
                }
                local[node] += bytes;
            }
        }
        Ok(data)
    }

    /// Writes a DFS file, charging the bytes to this handle.
    pub fn write(&mut self, path: &str, data: Bytes) {
        self.stats.write_bytes += data.len() as u64;
        self.dfs.write(path, data);
    }

    /// Charges `flops` of arithmetic, a closed form of the kernel's shapes.
    /// The cost model prices them at its flop rate; everything else a task
    /// does is priced by the bytes it reads and writes.
    pub fn charge_flops(&mut self, flops: u64) {
        self.stats.flops += flops;
    }

    /// What has been charged so far.
    pub fn stats(&self) -> &TaskStats {
        &self.stats
    }

    /// Closes the handle: the stats with the body's `measured` CPU added,
    /// and the per-node tally of local bytes (empty unless map-side).
    pub(crate) fn finish(self, measured: Duration) -> (TaskStats, Vec<u64>) {
        let mut stats = self.stats;
        stats.cpu += measured;
        (stats, self.local.unwrap_or_default())
    }
}

/// Context handed to each map task: a [`TaskIo`] that tallies where its
/// reads' replicas live, the task's identity, and the emit channel.
pub struct MapContext<K, V> {
    pub(crate) io: TaskIo,
    task_index: usize,
    num_tasks: usize,
    pub(crate) emitted: Vec<(K, V)>,
}

impl<K: ShuffleSize, V: ShuffleSize> MapContext<K, V> {
    pub(crate) fn new(dfs: Arc<dyn DfsAccess>, task_index: usize, num_tasks: usize) -> Self {
        MapContext {
            io: TaskIo {
                local: Some(Vec::new()),
                ..TaskIo::new(dfs)
            },
            task_index,
            num_tasks,
            emitted: Vec::new(),
        }
    }

    /// This task's index within the map wave (the paper's worker id `j`).
    pub fn task_index(&self) -> usize {
        self.task_index
    }

    /// Number of map tasks in this job.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Emits a `(key, value)` pair into the shuffle, charging its deep
    /// [`ShuffleSize`].
    pub fn emit(&mut self, key: K, value: V) {
        self.io.stats.shuffle_bytes += key.shuffle_size() + value.shuffle_size();
        self.emitted.push((key, value));
    }
}

impl<K, V> Deref for MapContext<K, V> {
    type Target = TaskIo;
    fn deref(&self) -> &TaskIo {
        &self.io
    }
}

impl<K, V> DerefMut for MapContext<K, V> {
    fn deref_mut(&mut self) -> &mut TaskIo {
        &mut self.io
    }
}

/// Context handed to each reduce task: a [`TaskIo`].
pub struct ReduceContext {
    pub(crate) io: TaskIo,
}

impl ReduceContext {
    pub(crate) fn new(dfs: Arc<dyn DfsAccess>) -> Self {
        ReduceContext {
            io: TaskIo::new(dfs),
        }
    }
}

impl Deref for ReduceContext {
    type Target = TaskIo;
    fn deref(&self) -> &TaskIo {
        &self.io
    }
}

impl DerefMut for ReduceContext {
    fn deref_mut(&mut self) -> &mut TaskIo {
        &mut self.io
    }
}

/// A map function: one instance processes every split, one split per task.
///
/// Implementations must be stateless across calls (Hadoop may run the same
/// mapper object in any order, on any node, more than once under retry).
pub trait Mapper: Send + Sync + 'static {
    /// One input split (the paper's jobs use a small control integer).
    type Input: Clone + Send + Sync + 'static;
    /// Shuffle key, priced by its [`ShuffleSize`].
    type Key: Ord + Clone + ShuffleSize + Send + Sync + 'static;
    /// Shuffle value, priced by its [`ShuffleSize`].
    type Value: Clone + ShuffleSize + Send + Sync + 'static;

    /// Processes one split, emitting pairs and doing side DFS I/O.
    fn map(&self, input: &Self::Input, ctx: &mut MapContext<Self::Key, Self::Value>) -> Result<()>;
}

/// A reduce function: called once per key with all the key's values.
pub trait Reducer: Send + Sync + 'static {
    /// Shuffle key (must match the mapper's).
    type Key: Ord + Clone + Send + Sync + 'static;
    /// Shuffle value (must match the mapper's).
    type Value: Clone + Send + Sync + 'static;
    /// Per-key output collected into the job report.
    type Output: Send + 'static;

    /// Processes one `(key, values)` group.
    fn reduce(
        &self,
        key: &Self::Key,
        values: &[Self::Value],
        ctx: &mut ReduceContext,
    ) -> Result<Self::Output>;
}

/// Job-level configuration, built fluently:
///
/// ```
/// use mrinv_mapreduce::job::{identity_partitioner, JobSpec};
///
/// let spec: JobSpec<usize> = JobSpec::new("control")
///     .reducers(4)
///     .partitioner(identity_partitioner);
/// assert_eq!(spec.name(), "control");
/// assert_eq!(spec.num_reducers(), 4);
/// ```
pub struct JobSpec<K> {
    pub(crate) name: String,
    pub(crate) num_reducers: usize,
    pub(crate) partitioner: fn(&K, usize) -> usize,
    pub(crate) remote: Option<String>,
}

impl<K: std::hash::Hash> JobSpec<K> {
    /// A map-only job (no reducers) with the default hash partitioner;
    /// extend with the builder methods.
    pub fn new(name: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            num_reducers: 0,
            partitioner: hash_partitioner::<K>,
            remote: None,
        }
    }

    /// Sets the number of reduce partitions (0 = map-only job).
    pub fn reducers(mut self, num_reducers: usize) -> Self {
        self.num_reducers = num_reducers;
        self
    }

    /// Routes a key to a reduce partition. Defaults to a modulo hash; the
    /// paper's jobs use the identity (`key j → reducer j`, Figure 5).
    pub fn partitioner(mut self, f: fn(&K, usize) -> usize) -> Self {
        self.partitioner = f;
        self
    }
}

impl<K> JobSpec<K> {
    /// Human-readable job name (appears in fault rules and errors).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of reduce partitions (0 = map-only job).
    pub fn num_reducers(&self) -> usize {
        self.num_reducers
    }

    /// Names the registered task family this job's map/reduce functions
    /// belong to, making the job eligible for remote execution: a backend
    /// that ships tasks to worker processes looks the family up in the
    /// driver's [`crate::exec::TaskRegistry`] and the worker resolves the
    /// same name in its own registry. Jobs without a family (or whose
    /// family is absent from the registry) always run in-process.
    ///
    /// The family is execution plumbing, not job identity: it does not
    /// enter [`JobSpec::fingerprint`], so job fingerprints stay
    /// bit-identical across backends.
    pub fn remote(mut self, family: impl Into<String>) -> Self {
        self.remote = Some(family.into());
        self
    }

    /// The registered task family for remote execution, if any.
    pub fn remote_family(&self) -> Option<&str> {
        self.remote.as_deref()
    }

    /// Stable fingerprint of this spec, identical across processes and
    /// runs (unlike `DefaultHasher`).
    /// [`crate::driver::PipelineDriver::step`] mixes it into the job's
    /// [`crate::runner::JobReport::fingerprint`]. The partitioner is a
    /// function pointer and cannot be hashed portably; the fingerprint
    /// covers the name and the reducer count.
    pub fn fingerprint(&self) -> u64 {
        crate::driver::Fingerprint::new()
            .push_bytes(self.name.as_bytes())
            .push_u64(self.num_reducers as u64)
            // The slot a since-deleted combiner flag held: a constant 0
            // keeps every pinned job fingerprint unchanged.
            .push_u64(0)
            .finish()
    }
}

/// Default partitioner: `hash(key) mod partitions`.
pub fn hash_partitioner<K: std::hash::Hash>(key: &K, partitions: usize) -> usize {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions.max(1) as u64) as usize
}

/// The paper's control-flow partitioner: mapper `j` emits `(j, j)` and
/// reducer `j` handles it (Figure 5).
pub fn identity_partitioner(key: &usize, partitions: usize) -> usize {
    key % partitions.max(1)
}

/// Deep serialized size of a shuffled key or value, in bytes: the one
/// rule [`MapContext::emit`] prices every pair by, on the driver and on a
/// worker alike.
///
/// The contract is the wire size Hadoop would move for the payload:
/// fixed-width scalars count their width, variable-length containers
/// count a u64 length prefix plus their elements. This is what the
/// shuffle-byte counters must charge for Tables 1–2 to be checkable
/// against `theory.rs`.
pub trait ShuffleSize {
    /// Serialized size of `self` in bytes.
    fn shuffle_size(&self) -> u64;
}

macro_rules! shuffle_size_fixed {
    ($($t:ty),* $(,)?) => {
        $(impl ShuffleSize for $t {
            fn shuffle_size(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        })*
    };
}

shuffle_size_fixed!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl ShuffleSize for () {
    fn shuffle_size(&self) -> u64 {
        0
    }
}

impl ShuffleSize for String {
    fn shuffle_size(&self) -> u64 {
        8 + self.len() as u64
    }
}

impl ShuffleSize for &str {
    fn shuffle_size(&self) -> u64 {
        8 + self.len() as u64
    }
}

impl<T: ShuffleSize> ShuffleSize for Vec<T> {
    fn shuffle_size(&self) -> u64 {
        8 + self.iter().map(ShuffleSize::shuffle_size).sum::<u64>()
    }
}

impl<T: ShuffleSize> ShuffleSize for Option<T> {
    fn shuffle_size(&self) -> u64 {
        1 + self.as_ref().map_or(0, ShuffleSize::shuffle_size)
    }
}

impl<A: ShuffleSize, B: ShuffleSize> ShuffleSize for (A, B) {
    fn shuffle_size(&self) -> u64 {
        self.0.shuffle_size() + self.1.shuffle_size()
    }
}

impl<A: ShuffleSize, B: ShuffleSize, C: ShuffleSize> ShuffleSize for (A, B, C) {
    fn shuffle_size(&self) -> u64 {
        self.0.shuffle_size() + self.1.shuffle_size() + self.2.shuffle_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::Dfs;

    #[test]
    fn map_context_accounts_io_and_emits() {
        let dfs = Arc::new(Dfs::default());
        dfs.write("in", Bytes::from(vec![1u8; 64]));
        let mut ctx: MapContext<usize, usize> = MapContext::new(dfs.clone(), 2, 4);
        assert_eq!(ctx.task_index(), 2);
        assert_eq!(ctx.num_tasks(), 4);
        let data = ctx.read("in").unwrap();
        assert_eq!(data.len(), 64);
        ctx.write("out", Bytes::from(vec![0u8; 32]));
        ctx.emit(1, 7);
        ctx.emit(2, 8);
        assert!(dfs.exists("out"));
        let (stats, local) = ctx.io.finish(Duration::from_millis(5));
        assert_eq!(ctx.emitted, vec![(1, 7), (2, 8)]);
        // The default store places every file on all three of its nodes.
        assert_eq!(local, vec![64; 3]);
        assert_eq!(stats.read_bytes, 64);
        assert_eq!(stats.write_bytes, 32);
        assert_eq!(stats.shuffle_bytes, 32); // 2 pairs * 16 bytes
        assert_eq!(stats.cpu, Duration::from_millis(5));
    }

    #[test]
    fn reduce_context_accounts_io() {
        let dfs = Arc::new(Dfs::default());
        dfs.write("x", Bytes::from(vec![0u8; 10]));
        let mut ctx = ReduceContext::new(dfs.clone());
        let _ = ctx.read("x").unwrap();
        ctx.write("y", Bytes::from(vec![0u8; 20]));
        let (stats, local) = ctx.io.finish(Duration::ZERO);
        assert_eq!(stats.read_bytes, 10);
        assert_eq!(stats.write_bytes, 20);
        assert!(local.is_empty(), "only the map side tallies its reads");
    }

    /// The three flavours of the one handle: identical traffic charges
    /// identical stats; only the map side tallies where its reads' replicas
    /// live.
    #[test]
    fn task_io_flavours_account_alike() {
        let dfs = Arc::new(Dfs::default());
        dfs.write("d/in", Bytes::from(vec![1u8; 30]));
        let traffic = |io: &mut TaskIo| {
            assert_eq!(io.read("/d//in").unwrap().len(), 30);
            io.write("d/out", Bytes::from(vec![0u8; 12]));
            io.charge_flops(3);
            assert!(io.read("d/missing").is_err());
        };
        let mut map: MapContext<usize, usize> = MapContext::new(dfs.clone(), 0, 1);
        let mut reduce = ReduceContext::new(dfs.clone());
        let mut master = TaskIo::new(dfs.clone());
        traffic(&mut map);
        traffic(&mut reduce);
        traffic(&mut master);
        assert_eq!(master.stats().read_bytes, 30);
        assert_eq!(master.stats().write_bytes, 12);
        let (map_stats, map_local) = map.io.finish(Duration::ZERO);
        let (reduce_stats, reduce_local) = reduce.io.finish(Duration::ZERO);
        let (master_stats, master_local) = master.finish(Duration::ZERO);
        assert_eq!(map_stats, reduce_stats);
        assert_eq!(map_stats, master_stats);
        assert_eq!(map_local, vec![30; 3], "the failed read tallies nothing");
        assert!(reduce_local.is_empty() && master_local.is_empty());
        let counted = dfs.counters();
        assert_eq!((counted.reads, counted.files_written), (3, 4));
    }

    #[test]
    fn partitioners_route_in_range() {
        for k in 0..100usize {
            assert!(hash_partitioner(&k, 7) < 7);
            assert_eq!(identity_partitioner(&k, 8), k % 8);
        }
        // Zero partitions clamps instead of dividing by zero.
        assert_eq!(hash_partitioner(&1usize, 0), 0);
        assert_eq!(identity_partitioner(&5, 0), 0);
    }

    #[test]
    fn task_stats_merge() {
        let a = TaskStats {
            cpu: Duration::from_secs(1),
            flops: 500,
            read_bytes: 10,
            write_bytes: 20,
            shuffle_bytes: 5,
        };
        let b = TaskStats {
            cpu: Duration::from_secs(2),
            flops: 1500,
            read_bytes: 1,
            write_bytes: 2,
            shuffle_bytes: 3,
        };
        let m = a.merge(&b);
        assert_eq!(m.cpu, Duration::from_secs(3));
        assert_eq!(m.flops, 2000);
        assert_eq!(m.read_bytes, 11);
        assert_eq!(m.write_bytes, 22);
        assert_eq!(m.shuffle_bytes, 8);
        assert_eq!(m.transfer_bytes(), 11 + 8);
    }

    #[test]
    fn shuffle_size_counts_heap_payloads() {
        // A block of n*n doubles charges its elements, not its 24-byte
        // `Vec` header.
        let n = 16usize;
        let block: Vec<f64> = vec![1.0; n * n];
        assert_eq!(block.shuffle_size(), 8 + (8 * n * n) as u64);

        assert_eq!(7u64.shuffle_size(), 8);
        assert_eq!(true.shuffle_size(), 1);
        assert_eq!(().shuffle_size(), 0);
        assert_eq!("abc".to_string().shuffle_size(), 11);
        assert_eq!("abc".shuffle_size(), 11);
        assert_eq!((1u32, 2u64).shuffle_size(), 12);
        assert_eq!((1u8, 2u8, 3u8).shuffle_size(), 3);
        assert_eq!(Some(1.0f64).shuffle_size(), 9);
        assert_eq!(None::<f64>.shuffle_size(), 1);
        let nested: Vec<Vec<u8>> = vec![vec![0; 3], vec![0; 5]];
        assert_eq!(nested.shuffle_size(), 8 + (8 + 3) + (8 + 5));
    }

    /// `emit` prices a heap payload by its deep size, the same rule a
    /// worker applies: key 8 + length prefix 8 + 9 doubles.
    #[test]
    fn emit_prices_pairs_by_deep_shuffle_size() {
        let dfs = Arc::new(Dfs::default());
        let mut ctx: MapContext<usize, Vec<f64>> = MapContext::new(dfs, 0, 1);
        ctx.emit(3, vec![0.0; 9]);
        let (stats, _) = ctx.io.finish(Duration::ZERO);
        assert_eq!(stats.shuffle_bytes, 8 + 8 + 72);
    }

    #[test]
    fn spec_fingerprints_are_stable_and_discriminating() {
        let a: JobSpec<usize> = JobSpec::new("wc").reducers(2);
        let b: JobSpec<usize> = JobSpec::new("wc").reducers(2);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same spec, same print");
        let more_reducers: JobSpec<usize> = JobSpec::new("wc").reducers(3);
        assert_ne!(a.fingerprint(), more_reducers.fingerprint());
        let other_name: JobSpec<usize> = JobSpec::new("wc2").reducers(2);
        assert_ne!(a.fingerprint(), other_name.fingerprint());
        // Execution plumbing is not identity: the partitioner and the
        // remote family leave the print alone.
        let plumbed: JobSpec<usize> = JobSpec::new("wc")
            .reducers(2)
            .partitioner(identity_partitioner)
            .remote("family");
        assert_eq!(a.fingerprint(), plumbed.fingerprint());
    }

    #[test]
    fn missing_file_read_errors() {
        let dfs = Arc::new(Dfs::default());
        let mut ctx: MapContext<usize, usize> = MapContext::new(dfs, 0, 1);
        assert!(ctx.read("missing").is_err());
    }
}
