//! An HDFS-like distributed file system, in memory, with byte accounting.
//!
//! The paper's pipeline communicates between MapReduce jobs exclusively
//! through HDFS files laid out in the Figure 4 directory tree. This module
//! provides that store: a flat hash index from normalized `/`-separated
//! paths to immutable byte blobs, plus the counters the evaluation needs —
//! logical bytes written and read, which Tables 1 and 2 compare against
//! closed forms. A read or an `exists` is one index lookup; `list` and
//! `delete_dir`, which no task calls, scan the index.
//!
//! Files are immutable once written (HDFS 1.x semantics: write-once,
//! read-many); overwriting is permitted and counts as a fresh write.
//! Replication is tracked as metadata: the store keeps one copy, but the
//! cost model charges `replication` disk writes per logical write, like a
//! real HDFS pipeline would.
//!
//! # File lifetime
//!
//! A file lives until someone deletes it, and the store holds its bytes in
//! memory until then. The pipeline deletes a file once the last job that
//! reads it has committed: the partition tree, each level's `B` cells and
//! the final job's triangular inverses are released by the module that
//! named them (`PipelineDriver::release`), and the final job's
//! `RESULT/` once the master has assembled the inverse from it, and last
//! the factor forest, once the master has packed what the request needs
//! from it: a plain request leaves nothing behind. The live-bytes gauge
//! ([`Dfs::live_bytes`], [`Dfs::live_bytes_peak`]) tracks what is held:
//! every write adds its length and subtracts the length of the file it
//! overwrites, every delete subtracts. It is not an I/O counter, so it
//! stays out of [`DfsCountersSnapshot`].
//!
//! # Block placement and failure domains
//!
//! Each file is assigned `replication` *home nodes* at write time, chosen
//! deterministically from a stable hash of its normalized path (so reruns
//! place blocks identically). `Dfs::kill_node` marks a virtual node dead:
//! its replicas stop counting, and a read whose replicas are all on dead
//! nodes fails with [`MrError::AllReplicasLost`] — the HDFS behavior
//! behind the paper's Section 7.4 node-failure experiment. Every
//! successful read returns the block's surviving [`Homes`] beside its
//! bytes, so a map task's placement is resolved by the reads it makes
//! ([`crate::job::TaskIo`] tallies them per node), not by a second lookup
//! after its wave. Namenode metadata (`exists`, `len`, `list`) survives
//! node deaths; only block *data* is lost.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::driver::Fingerprint;
use crate::error::{MrError, Result};

/// Default HDFS replication factor (the paper uses the Hadoop default of 3,
/// Section 7.1).
const DEFAULT_REPLICATION: u32 = 3;

/// The nodes holding a surviving replica of one file, as a read found them
/// (a block's homes are distinct nodes).
pub type Homes = Arc<[usize]>;

/// Aggregate I/O counters, all in logical (unreplicated) bytes.
#[derive(Debug, Default)]
struct DfsCounters {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    files_written: AtomicU64,
    reads: AtomicU64,
}

/// A point-in-time copy of the DFS counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DfsCountersSnapshot {
    /// Logical bytes written (excluding replication).
    pub bytes_written: u64,
    /// Logical bytes read.
    pub bytes_read: u64,
    /// Number of file writes.
    pub files_written: u64,
    /// Number of file reads.
    pub reads: u64,
}

/// One stored file: its bytes plus the home nodes holding its replicas.
#[derive(Debug, Clone)]
struct Block {
    data: Bytes,
    homes: Homes,
}

/// What the store's one lock guards: the file index and the dead nodes,
/// so a read resolves its block and its surviving replicas together.
#[derive(Debug, Default)]
struct Store {
    files: HashMap<String, Block>,
    dead: BTreeSet<usize>,
}

/// The in-memory distributed file system.
///
/// ```
/// use mrinv_mapreduce::Dfs;
/// use bytes::Bytes;
///
/// let dfs = Dfs::default();
/// dfs.write("Root/A1/block.bin", Bytes::from_static(b"data"));
/// let (data, homes) = dfs.read("Root/A1/block.bin").unwrap();
/// assert_eq!(data.as_ref(), b"data");
/// assert_eq!(homes.len(), 3, "one home per replica");
/// assert_eq!(dfs.list("Root"), vec!["Root/A1/block.bin".to_string()]);
/// assert_eq!(dfs.counters().bytes_written, 4);
/// ```
#[derive(Debug)]
pub struct Dfs {
    store: RwLock<Store>,
    counters: DfsCounters,
    /// Bytes held by the stored files, and their high-water mark. Moved
    /// only with the store's write lock held.
    live_bytes: AtomicU64,
    live_bytes_peak: AtomicU64,
    replication: u32,
    nodes: usize,
}

impl Default for Dfs {
    fn default() -> Self {
        Self::new(DEFAULT_REPLICATION)
    }
}

/// Normalizes a path: strips leading/trailing `/`, collapses repeated
/// separators, resolves `.` segments, and folds `..` onto the previous
/// segment (clamped at the root), so `"/Root//A1/"`, `"Root/./A1"` and
/// `"Root/x/../A1"` all address the same file.
pub fn normalize_path(path: &str) -> String {
    normalized(path).into_owned()
}

/// [`normalize_path`], borrowing a path that is already normal — one with
/// no empty, `.` or `..` segment, which is every path the pipeline names
/// — so a lookup of it allocates nothing.
fn normalized(path: &str) -> Cow<'_, str> {
    if path.split('/').all(|seg| !matches!(seg, "" | "." | "..")) {
        return Cow::Borrowed(path);
    }
    let mut segs: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                // Above the root there is nothing to pop: `..` clamps.
                segs.pop();
            }
            s => segs.push(s),
        }
    }
    Cow::Owned(segs.join("/"))
}

impl Dfs {
    /// Creates an empty DFS with the given replication factor, with as many
    /// placement nodes as replicas (every file lives everywhere).
    pub(crate) fn new(replication: u32) -> Self {
        Self::with_nodes(replication, replication as usize)
    }

    /// Creates an empty DFS with `replication` replicas per file placed
    /// across `nodes` virtual nodes.
    pub fn with_nodes(replication: u32, nodes: usize) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        Dfs {
            store: RwLock::new(Store::default()),
            counters: DfsCounters::default(),
            live_bytes: AtomicU64::new(0),
            live_bytes_peak: AtomicU64::new(0),
            replication,
            nodes: nodes.max(1),
        }
    }

    /// Picks the home nodes for `path`: walk the node ring from a stable
    /// hash of the path, taking the first `replication` live nodes (like
    /// HDFS, new writes avoid nodes already known dead). Returns an empty
    /// set when every node is dead.
    fn place(&self, path: &str, dead: &BTreeSet<usize>) -> Homes {
        // A stable FNV-1a: reruns place blocks on the same home nodes.
        let hash = Fingerprint::new().push_bytes(path.as_bytes()).finish();
        let start = (hash % self.nodes as u64) as usize;
        let mut ring = (0..self.nodes)
            .map(|i| (start + i) % self.nodes)
            .filter(|node| !dead.contains(node));
        let live = self.nodes - dead.range(..self.nodes).count();
        // Counted up front, so the collect allocates the shared slice once.
        let homes = live.min(self.replication as usize);
        (0..homes)
            .map(|_| ring.next().expect("a live node"))
            .collect()
    }

    /// Marks a virtual node dead: its replicas stop counting toward
    /// availability and future writes avoid it.
    pub(crate) fn kill_node(&self, node: usize) {
        self.store.write().dead.insert(node);
    }

    /// Writes (or overwrites) a file.
    pub fn write(&self, path: &str, data: Bytes) {
        self.counters
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counters.files_written.fetch_add(1, Ordering::Relaxed);
        let path = normalized(path).into_owned();
        let added = data.len() as u64;
        let mut store = self.store.write();
        let homes = self.place(&path, &store.dead);
        let old = store.files.insert(path, Block { data, homes });
        self.move_live_bytes(added, old.map_or(0, |b| b.data.len() as u64));
    }

    /// Applies one mutation to the live-bytes gauge and its peak. Callers
    /// hold the store's write lock, so the load and the store cannot
    /// interleave with another mutation.
    fn move_live_bytes(&self, added: u64, removed: u64) {
        let live = self.live_bytes.load(Ordering::Relaxed) + added - removed;
        self.live_bytes.store(live, Ordering::Relaxed);
        self.live_bytes_peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Reads a file: its bytes (cheap, `Bytes` is reference-counted) and
    /// the nodes holding a surviving replica of it — one index lookup.
    ///
    /// Fails with [`MrError::AllReplicasLost`] when every home node of the
    /// block is dead — the data existed but no replica survives.
    pub fn read(&self, path: &str) -> Result<(Bytes, Homes)> {
        let path = normalized(path);
        let store = self.store.read();
        let Some(block) = store.files.get(&*path) else {
            return Err(not_found(&store.files, path.into_owned()));
        };
        let alive = |n: &usize| !store.dead.contains(n);
        let homes = if block.homes.iter().all(alive) {
            block.homes.clone()
        } else {
            block.homes.iter().copied().filter(alive).collect()
        };
        if homes.is_empty() {
            return Err(MrError::AllReplicasLost {
                path: path.into_owned(),
                homes: block.homes.to_vec(),
            });
        }
        let data = block.data.clone();
        self.counters
            .bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok((data, homes))
    }

    /// True when `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.store.read().files.contains_key(&*normalized(path))
    }

    /// Size in bytes of `path`.
    ///
    /// Like `exists`, this is namenode metadata: it stays readable even
    /// when every replica of the block is lost.
    pub fn len(&self, path: &str) -> Result<u64> {
        let path = normalized(path);
        let store = self.store.read();
        match store.files.get(&*path) {
            Some(b) => Ok(b.data.len() as u64),
            None => Err(not_found(&store.files, path.into_owned())),
        }
    }

    /// Number of files stored.
    pub fn file_count(&self) -> usize {
        self.store.read().files.len()
    }

    /// Deletes a file; returns whether it existed.
    pub fn delete(&self, path: &str) -> bool {
        let mut store = self.store.write();
        let Some(block) = store.files.remove(&*normalized(path)) else {
            return false;
        };
        self.move_live_bytes(0, block.data.len() as u64);
        true
    }

    /// Deletes every file under the directory `dir`; returns how many were
    /// removed. Like `list`, `""` addresses the root: it
    /// clears the whole store.
    pub fn delete_dir(&self, dir: &str) -> usize {
        let under = under(dir);
        let mut store = self.store.write();
        let (mut removed, mut bytes) = (0, 0);
        store.files.retain(|path, block| {
            let doomed = under(path);
            if doomed {
                removed += 1;
                bytes += block.data.len() as u64;
            }
            !doomed
        });
        self.move_live_bytes(0, bytes);
        removed
    }

    /// Bytes held by the files stored now.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// The most bytes the store has held at once since it was created.
    pub fn live_bytes_peak(&self) -> u64 {
        self.live_bytes_peak.load(Ordering::Relaxed)
    }

    /// Lists all files under directory `dir` (recursively), sorted.
    pub fn list(&self, dir: &str) -> Vec<String> {
        let under = under(dir);
        let mut paths: Vec<String> = (self.store.read().files.keys())
            .filter(|path| under(path))
            .cloned()
            .collect();
        paths.sort_unstable();
        paths
    }

    /// Snapshot of the I/O counters.
    pub fn counters(&self) -> DfsCountersSnapshot {
        DfsCountersSnapshot {
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            files_written: self.counters.files_written.load(Ordering::Relaxed),
            reads: self.counters.reads.load(Ordering::Relaxed),
        }
    }

    /// Bridges the DFS counters and the live-bytes gauge into an
    /// observability snapshot as cluster-global series (the DFS hot path
    /// itself stays registry-free: these atomics are always on and cost
    /// what they always did).
    pub(crate) fn obs_series(&self, snap: &mut crate::obs::ObsSnapshot) {
        let c = self.counters();
        let none = crate::obs::Labels::new();
        snap.push_counter("mrinv_dfs_write_bytes_total", none.clone(), c.bytes_written);
        snap.push_counter("mrinv_dfs_read_bytes_total", none.clone(), c.bytes_read);
        snap.push_counter(
            "mrinv_dfs_files_written_total",
            none.clone(),
            c.files_written,
        );
        snap.push_counter("mrinv_dfs_reads_total", none.clone(), c.reads);
        snap.push_gauge(
            "mrinv_dfs_live_bytes",
            none.clone(),
            self.live_bytes() as f64,
        );
        snap.push_gauge(
            "mrinv_dfs_live_bytes_peak",
            none,
            self.live_bytes_peak() as f64,
        );
    }

    /// Resets the I/O counters (e.g. between experiments on a shared DFS).
    pub fn reset_counters(&self) {
        self.counters.bytes_written.store(0, Ordering::Relaxed);
        self.counters.bytes_read.store(0, Ordering::Relaxed);
        self.counters.files_written.store(0, Ordering::Relaxed);
        self.counters.reads.store(0, Ordering::Relaxed);
    }
}

/// A test for "`path` lies under the directory `dir`" (normalized; `""` is
/// the root, under which every path lies). Respects path boundaries:
/// `Root/A10/x` is not under `Root/A1`.
fn under(dir: &str) -> impl Fn(&str) -> bool {
    let prefix = match normalized(dir) {
        norm if norm.is_empty() => String::new(),
        norm => format!("{norm}/"),
    };
    move |path| path.starts_with(&prefix)
}

/// Builds the diagnosable not-found error: walks the path's ancestors
/// (deepest first) and reports the first one that exists as a directory,
/// or `/` when no component of the path exists. A scan of the index per
/// ancestor, paid only on the error path.
fn not_found(files: &HashMap<String, Block>, path: String) -> MrError {
    let mut nearest_parent = "/".to_string();
    let mut ancestor = path.as_str();
    while let Some(idx) = ancestor.rfind('/') {
        ancestor = &ancestor[..idx];
        let in_dir = under(ancestor);
        if files.keys().any(|k| in_dir(k)) {
            nearest_parent = ancestor.to_string();
            break;
        }
    }
    MrError::FileNotFound {
        path,
        nearest_parent,
    }
}

/// The DFS operations a *task body* may perform — read, write, exists; no
/// task lists a directory — abstracted so a task can run either in the
/// driver process (directly against [`Dfs`]) or inside a remote worker
/// process, where each call becomes an RPC back to the driver's namenode.
/// Tasks never see which one they got: the contexts in [`crate::job`]
/// hold an `Arc<dyn DfsAccess>`.
pub trait DfsAccess: Send + Sync {
    /// Reads a file and the homes of its surviving replicas (see
    /// [`Dfs::read`]).
    fn read(&self, path: &str) -> Result<(Bytes, Homes)>;
    /// Writes a file (see [`Dfs::write`]).
    fn write(&self, path: &str, data: Bytes);
    /// True when `path` exists (see [`Dfs::exists`]).
    fn exists(&self, path: &str) -> bool;
}

impl DfsAccess for Dfs {
    fn read(&self, path: &str) -> Result<(Bytes, Homes)> {
        Dfs::read(self, path)
    }
    fn write(&self, path: &str, data: Bytes) {
        Dfs::write(self, path, data)
    }
    fn exists(&self, path: &str) -> bool {
        Dfs::exists(self, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let dfs = Dfs::default();
        dfs.write("Root/a.txt", Bytes::from_static(b"hello"));
        assert_eq!(
            dfs.read("Root/a.txt").unwrap().0,
            Bytes::from_static(b"hello")
        );
        assert_eq!(dfs.len("Root/a.txt").unwrap(), 5);
        assert!(dfs.exists("Root/a.txt"));
        assert!(!dfs.exists("Root/b.txt"));
    }

    #[test]
    fn paths_are_normalized() {
        let dfs = Dfs::default();
        dfs.write("/Root//A1/x", Bytes::from_static(b"1"));
        assert!(dfs.exists("Root/A1/x"));
        assert_eq!(dfs.read("Root/A1//x/").unwrap().0, Bytes::from_static(b"1"));
        assert_eq!(normalize_path("//a///b/"), "a/b");
        assert_eq!(normalize_path(""), "");
        // `.` segments resolve: "run/./x" and "run/x" are the same file.
        assert_eq!(normalize_path("run/./x"), "run/x");
        assert_eq!(normalize_path("./run/x/."), "run/x");
        assert!(dfs.exists("Root/./A1/x"));
        // `..` pops the previous segment, clamped at the root.
        assert_eq!(normalize_path("run/sub/../x"), "run/x");
        assert_eq!(normalize_path("../x"), "x");
        assert_eq!(normalize_path("a/../../x"), "x");
        assert_eq!(normalize_path("a/b/.."), "a");
        assert!(dfs.exists("Root/other/../A1/x"));
    }

    /// A path that is already normal is borrowed, not rebuilt; any empty,
    /// `.` or `..` segment sends it through the rebuild, and either way
    /// the result is its own normal form.
    #[test]
    fn normal_paths_are_borrowed() {
        for path in ["a", "run-1/L2/L.0.3", "x.y/..z/...", "a.b/c.d"] {
            assert!(
                matches!(normalized(path), Cow::Borrowed(p) if p == path),
                "{path}"
            );
        }
        for path in ["", "/a", "a/", "a//b", "./a", "a/.", "a/../b", ".."] {
            let rebuilt = normalized(path);
            assert!(matches!(rebuilt, Cow::Owned(_)), "{path}");
            assert!(matches!(normalized(&rebuilt), Cow::Borrowed(_)) || rebuilt.is_empty());
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let dfs = Dfs::default();
        assert!(matches!(
            dfs.read("nope"),
            Err(MrError::FileNotFound { .. })
        ));
        assert!(dfs.len("nope").is_err());
    }

    #[test]
    fn not_found_reports_nearest_existing_parent() {
        let dfs = Dfs::default();
        dfs.write("run/L2/L.0", Bytes::from_static(b"1"));
        // Missing file in an existing directory: parent is that directory.
        match dfs.read("run/L2/L.7") {
            Err(MrError::FileNotFound {
                path,
                nearest_parent,
            }) => {
                assert_eq!(path, "run/L2/L.7");
                assert_eq!(nearest_parent, "run/L2");
            }
            other => panic!("expected FileNotFound, got {other:?}"),
        }
        // Missing subtree: the deepest ancestor that exists wins.
        match dfs.len("run/U2/U.0") {
            Err(MrError::FileNotFound { nearest_parent, .. }) => {
                assert_eq!(nearest_parent, "run");
            }
            other => panic!("expected FileNotFound, got {other:?}"),
        }
        // Nothing on the path exists at all.
        match dfs.read("other/x/y") {
            Err(MrError::FileNotFound { nearest_parent, .. }) => {
                assert_eq!(nearest_parent, "/");
            }
            other => panic!("expected FileNotFound, got {other:?}"),
        }
    }

    #[test]
    fn list_is_recursive_and_scoped() {
        let dfs = Dfs::default();
        dfs.write("Root/A1/x", Bytes::new());
        dfs.write("Root/A1/sub/y", Bytes::new());
        dfs.write("Root/A2/z", Bytes::new());
        dfs.write("Other/w", Bytes::new());
        let l = dfs.list("Root/A1");
        assert_eq!(
            l,
            vec!["Root/A1/sub/y".to_string(), "Root/A1/x".to_string()]
        );
        assert_eq!(dfs.list("Root").len(), 3);
        assert_eq!(dfs.list("").len(), 4);
        // Prefix must respect path boundaries: "Root/A1" must not match "Root/A10".
        dfs.write("Root/A10/q", Bytes::new());
        assert_eq!(dfs.list("Root/A1").len(), 2);
    }

    #[test]
    fn delete_and_delete_dir() {
        let dfs = Dfs::default();
        dfs.write("d/a", Bytes::from_static(b"1"));
        dfs.write("d/b", Bytes::from_static(b"2"));
        dfs.write("e/c", Bytes::from_static(b"3"));
        assert!(dfs.delete("d/a"));
        assert!(!dfs.delete("d/a"));
        assert_eq!(dfs.delete_dir("d"), 1);
        assert_eq!(dfs.file_count(), 1);
    }

    #[test]
    fn delete_dir_of_root_clears_the_store() {
        // `""` means the root for list; delete_dir must agree
        // (it used to build the prefix "/" and silently delete nothing).
        let dfs = Dfs::default();
        dfs.write("d/a", Bytes::from_static(b"1"));
        dfs.write("e/c", Bytes::from_static(b"3"));
        dfs.write("top", Bytes::from_static(b"4"));
        assert_eq!(dfs.list("").len(), 3);
        assert_eq!(dfs.delete_dir(""), 3);
        assert_eq!(dfs.file_count(), 0);
        assert_eq!(dfs.delete_dir("/"), 0, "idempotent on the empty store");
    }

    /// The homes a read returns: placement metadata, read with the bytes.
    fn homes(dfs: &Dfs, path: &str) -> Vec<usize> {
        dfs.read(path).unwrap().1.to_vec()
    }

    #[test]
    fn placement_is_deterministic_and_spreads_replicas() {
        let dfs = Dfs::with_nodes(3, 8);
        dfs.write("Root/A1/x", Bytes::from_static(b"1"));
        let placed = homes(&dfs, "Root/A1/x");
        assert_eq!(placed.len(), 3, "replication-many distinct homes");
        assert!(placed.iter().all(|&n| n < 8));
        let mut dedup = placed.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "homes are distinct nodes");
        // Same path in a fresh store: identical placement.
        let other = Dfs::with_nodes(3, 8);
        other.write("/Root/A1//x", Bytes::from_static(b"2"));
        assert_eq!(homes(&other, "Root/A1/x"), placed);
    }

    #[test]
    fn node_death_invalidates_replicas() {
        let dfs = Dfs::with_nodes(2, 4);
        dfs.write("f", Bytes::from_static(b"data"));
        let first = homes(&dfs, "f");
        assert_eq!(first.len(), 2);
        dfs.kill_node(first[0]);
        let (data, survivors) = dfs.read("f").unwrap();
        assert_eq!(data, Bytes::from_static(b"data"));
        assert_eq!(survivors.to_vec(), vec![first[1]]);
        dfs.kill_node(first[1]);
        match dfs.read("f") {
            Err(MrError::AllReplicasLost { path, homes: h }) => {
                assert_eq!(path, "f");
                assert_eq!(h, first);
            }
            other => panic!("expected AllReplicasLost, got {other:?}"),
        }
        // Metadata survives: the namenode still knows the file.
        assert!(dfs.exists("f"));
        assert_eq!(dfs.len("f").unwrap(), 4);
        // New writes avoid dead nodes and are readable again.
        dfs.write("f", Bytes::from_static(b"fresh"));
        let (data, fresh) = dfs.read("f").unwrap();
        assert!(fresh.iter().all(|n| !first.contains(n)));
        assert_eq!(data, Bytes::from_static(b"fresh"));
    }

    #[test]
    fn all_nodes_dead_means_new_writes_are_lost_too() {
        let dfs = Dfs::with_nodes(1, 1);
        dfs.kill_node(0);
        dfs.write("f", Bytes::from_static(b"x"));
        assert!(matches!(
            dfs.read("f"),
            Err(MrError::AllReplicasLost { .. })
        ));
    }

    /// The index is a hash table: `list` sorts what it scans, and a lookup
    /// finds every one of many similar paths.
    #[test]
    fn hashed_index_finds_every_path_and_lists_sorted() {
        let dfs = Dfs::with_nodes(3, 4);
        let paths: Vec<String> = (0..300)
            .rev()
            .map(|i| format!("run/L2/L.{}.{}", i % 7, i))
            .collect();
        for (i, p) in paths.iter().enumerate() {
            dfs.write(p, Bytes::from(vec![i as u8; i % 5]));
        }
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(dfs.read(p).unwrap().0.len(), i % 5, "{p}");
        }
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(dfs.list("run"), sorted);
        assert_eq!(dfs.list("run/L2"), sorted);
        assert!(
            dfs.list("run/L").is_empty(),
            "path boundaries, not prefixes"
        );
        assert!(!dfs.exists("run/L2/L.0.1000"));
    }

    #[test]
    fn counters_track_logical_bytes() {
        let dfs = Dfs::default();
        dfs.write("a", Bytes::from(vec![0u8; 100]));
        dfs.write("b", Bytes::from(vec![0u8; 50]));
        let _ = dfs.read("a").unwrap();
        let _ = dfs.read("a").unwrap();
        let c = dfs.counters();
        assert_eq!(c.bytes_written, 150);
        assert_eq!(c.bytes_read, 200);
        assert_eq!(c.files_written, 2);
        assert_eq!(c.reads, 2);
        dfs.reset_counters();
        assert_eq!(dfs.counters(), DfsCountersSnapshot::default());
    }

    #[test]
    fn overwrite_replaces_and_counts() {
        let dfs = Dfs::default();
        dfs.write("a", Bytes::from_static(b"xx"));
        dfs.write("a", Bytes::from_static(b"yyy"));
        assert_eq!(dfs.read("a").unwrap().0, Bytes::from_static(b"yyy"));
        assert_eq!(dfs.counters().bytes_written, 5);
        assert_eq!(dfs.file_count(), 1);
    }

    #[test]
    fn live_bytes_follow_writes_overwrites_and_deletes() {
        let dfs = Dfs::default();
        let live = |dfs: &Dfs| (dfs.live_bytes(), dfs.live_bytes_peak());
        dfs.write("d/a", Bytes::from(vec![0u8; 100]));
        dfs.write("d/b", Bytes::from(vec![0u8; 50]));
        assert_eq!(live(&dfs), (150, 150));
        // An overwrite replaces the old length; it never holds both.
        dfs.write("d/a", Bytes::from(vec![0u8; 30]));
        assert_eq!(live(&dfs), (80, 150));
        dfs.write("d/a", Bytes::from(vec![0u8; 160]));
        assert_eq!(live(&dfs), (210, 210));
        dfs.write("d/c", Bytes::from(vec![0u8; 7]));
        assert_eq!(live(&dfs), (217, 217));
        dfs.write("d/c", Bytes::from(vec![0u8; 5]));
        assert_eq!(live(&dfs), (215, 217));
        assert!(dfs.delete("d/b"));
        assert!(!dfs.delete("d/b"), "a second delete frees nothing");
        assert_eq!(live(&dfs), (165, 217));
        dfs.write("e/c", Bytes::from(vec![0u8; 9]));
        assert_eq!(dfs.delete_dir("d"), 2);
        assert_eq!(live(&dfs), (9, 217));
        dfs.write("top", Bytes::from(vec![0u8; 4]));
        assert_eq!(dfs.delete_dir(""), 2);
        assert_eq!(live(&dfs), (0, 217), "the peak is a high-water mark");
        // The gauge is no I/O counter: neither reset nor snapshot sees it.
        dfs.reset_counters();
        assert_eq!(dfs.live_bytes_peak(), 217);
    }

    #[test]
    fn concurrent_writers_do_not_lose_files() {
        use std::sync::Arc;
        let dfs = Arc::new(Dfs::default());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let dfs = Arc::clone(&dfs);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        dfs.write(&format!("dir/{t}/{i}"), Bytes::from(vec![t as u8; 10]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dfs.file_count(), 400);
        assert_eq!(dfs.counters().bytes_written, 4000);
        assert_eq!(dfs.live_bytes(), 4000);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_rejected() {
        let _ = Dfs::new(0);
    }
}
