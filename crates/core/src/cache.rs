//! The keyed LU-factor cache: factor once, serve many solves.
//!
//! The paper's motivating applications (Section 1) factor a matrix once
//! and then amortize it over many cheap downstream uses. [`FactorCache`]
//! makes that pattern first-class: a successful pipeline run primes the
//! cache with its `FactorRef` file forest (plus the inverse, for invert
//! runs), and any later [`crate::Request`] for the *same* matrix under
//! the *same* configuration is served straight from those files — zero
//! MapReduce jobs, zero simulated seconds.
//!
//! # Key semantics
//!
//! The key ([`cache_key`]) fingerprints everything that determines the
//! factor bytes: the full matrix contents (bit-exact, via the binary
//! codec), the block bound `nb`, the optimization toggles, and the
//! cluster partition geometry (`m0`, `m_l`, `m_u`, block-wrap grid). It
//! deliberately **excludes** the run directory — unlike the checkpoint
//! manifest's `run_fingerprint`, which includes `plan.root` so a
//! resume can't restore another run's files, the cache exists precisely
//! to share factors *across* runs. Determinism makes that sound: a
//! pipeline run is a pure function of (matrix, config, geometry), so two
//! runs with equal keys would have produced bit-identical factor files.
//!
//! # Invalidation
//!
//! Entries reference DFS files; they do not own them. Every lookup
//! re-validates that each referenced file still exists
//! (`FactorRef::paths`) and drops the entry — a miss, counted as an
//! invalidation — the moment any factor file was deleted.
//!
//! # Sharing
//!
//! An entry is one `Arc`'d `Factorization`: the factor file forest, the
//! inverse (if an invert run produced one) and the dense factors once
//! something assembled them. The cold run that primes an entry, the
//! entry, and every [`crate::Outcome`] later served from it hold the
//! same `Arc<Matrix>` / `Arc<LuFactors>` — a hit clones pointers under
//! the map lock, never matrices.
//!
//! # Accounting
//!
//! Cache hits assemble factors through *uncounted* DFS reads
//! ([`mrinv_mapreduce::UncountedDfs`]): a hit served concurrently
//! with an in-flight pipeline run must not perturb that run's delta-based
//! [`crate::RunReport`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mrinv_mapreduce::{Cluster, Dfs, Fingerprint, TaskIo};
use mrinv_matrix::io::encode_binary;
use mrinv_matrix::Matrix;
use parking_lot::Mutex;

use crate::config::InversionConfig;
use crate::error::Result;
use crate::factors::FactorRef;
use crate::inverse::push_run_config;
use crate::partition::PartitionPlan;
use crate::request::LuFactors;

/// Cache key for a (matrix, config, cluster-geometry) triple.
///
/// Reuses the manifest [`Fingerprint`] machinery but replaces the
/// run-directory component with the full matrix bytes: the key must be
/// identical across run directories and processes, and must change when
/// any matrix entry, `nb`, optimization toggle, or partition-geometry
/// parameter changes.
pub fn cache_key(a: &Matrix, cfg: &InversionConfig, cluster: &Cluster) -> u64 {
    // The plan root does not affect geometry; an empty root keeps the key
    // workdir-independent.
    let plan = PartitionPlan::new(a.rows(), cluster, cfg, "");
    let matrix = Fingerprint::new().push_bytes(&encode_binary(a));
    push_run_config(matrix, &plan, &cfg.opts).finish()
}

/// One finished factorization: what a cold pipeline run leaves behind and
/// what a cache hit finds (see "Sharing" in the module docs).
#[derive(Debug)]
pub(crate) struct Factorization {
    pub(crate) nb: usize,
    pub(crate) factors: FactorRef,
    pub(crate) inverse: Option<Arc<Matrix>>,
    /// The factors assembled into dense matrices, memoized so a million
    /// `solve(b)` calls pay the file-forest assembly once.
    assembled: OnceLock<Arc<LuFactors>>,
    pub(crate) workdir: String,
}

impl Factorization {
    pub(crate) fn new(
        nb: usize,
        factors: FactorRef,
        inverse: Option<Arc<Matrix>>,
        workdir: String,
    ) -> Self {
        Factorization {
            nb,
            factors,
            inverse,
            assembled: OnceLock::new(),
            workdir,
        }
    }

    /// Assembled `L`/`U`/`P`, read through `io` on first use. Assembly
    /// runs outside any lock, so concurrent first uses may assemble
    /// twice; the first stored result wins.
    pub(crate) fn assembled(&self, io: &mut TaskIo) -> Result<Arc<LuFactors>> {
        if let Some(f) = self.assembled.get() {
            return Ok(f.clone());
        }
        let f = Arc::new(LuFactors::assemble(&self.factors, io)?);
        Ok(self.assembled.get_or_init(|| f).clone())
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the pipeline.
    pub misses: u64,
    /// Entries dropped because a referenced DFS file disappeared.
    pub invalidations: u64,
}

/// Keyed, thread-safe LU-factor cache (see the module docs).
#[derive(Debug, Default)]
pub struct FactorCache {
    entries: Mutex<BTreeMap<u64, Arc<Factorization>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl FactorCache {
    /// An empty cache.
    pub fn new() -> Self {
        FactorCache::default()
    }

    /// Current counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.lock().len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Validated lookup. `need_inverse` is set for invert requests: an
    /// entry primed by an `lu`/`solve` run holds factors but no inverse,
    /// and serving an invert from it would require master-side triangular
    /// inversion — a different numerical path than the pipeline, so it
    /// counts as a miss and the full pipeline runs (and upgrades the
    /// entry).
    ///
    /// `count_miss` is false for the service's handler threads, which
    /// probe the cache before queueing a cold request for the executor —
    /// the executor's own lookup counts that verdict.
    pub(crate) fn lookup(
        &self,
        key: u64,
        need_inverse: bool,
        dfs: &Dfs,
        count_miss: bool,
    ) -> Option<Arc<Factorization>> {
        let mut entries = self.entries.lock();
        let stale = entries
            .get(&key)
            .is_some_and(|e| e.factors.paths().iter().any(|p| !dfs.exists(p)));
        if stale {
            // A factor file is gone: drop the entry.
            entries.remove(&key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        let hit = entries
            .get(&key)
            .filter(|e| !need_inverse || e.inverse.is_some())
            .cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else if count_miss {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Primes (or upgrades) the entry for `key` after a cold run. An
    /// existing entry keeps whatever the new run did not produce: an
    /// invert run adds the inverse to an entry primed by `lu`, and vice
    /// versa.
    pub(crate) fn insert(&self, key: u64, mut done: Factorization) {
        let mut entries = self.entries.lock();
        if let Some(old) = entries.get(&key) {
            if done.inverse.is_none() {
                done.inverse = old.inverse.clone();
            }
            if let (None, Some(f)) = (done.assembled.get(), old.assembled.get()) {
                done.assembled = OnceLock::from(f.clone());
            }
        }
        entries.insert(key, Arc::new(done));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::random::{random_unit_lower, random_upper};
    use mrinv_matrix::Permutation;

    fn leaf_entry(dfs: &Dfs, n: usize, seed: u64) -> FactorRef {
        let l = random_unit_lower(n, seed);
        let u = random_upper(n, seed + 1);
        dfs.write(&format!("cache-test/{seed}/l"), encode_binary(&l));
        dfs.write(&format!("cache-test/{seed}/u"), encode_binary(&u));
        FactorRef::Leaf {
            n,
            l_path: format!("cache-test/{seed}/l"),
            u_path: format!("cache-test/{seed}/u"),
            perm: Permutation::identity(n),
            transposed_u: false,
        }
    }

    #[test]
    fn lookup_hits_validates_and_invalidates() {
        let dfs = Dfs::default();
        let cache = FactorCache::new();
        let f = leaf_entry(&dfs, 6, 1);
        cache.insert(
            7,
            Factorization::new(2, f.clone(), None, "run-a".to_string()),
        );

        assert!(cache.lookup(8, false, &dfs, true).is_none(), "unknown key");
        let view = cache.lookup(7, false, &dfs, true).expect("hit");
        assert_eq!(view.nb, 2);
        assert_eq!(view.workdir, "run-a");
        assert!(view.inverse.is_none());
        // Factors but no inverse: an invert request misses.
        assert!(cache.lookup(7, true, &dfs, true).is_none());

        // Deleting any factor file invalidates the entry on next lookup.
        assert!(dfs.delete("cache-test/1/u"));
        assert!(cache.lookup(7, false, &dfs, true).is_none());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn assembly_is_memoized_and_uncounted() {
        let dfs = Arc::new(Dfs::default());
        let cache = FactorCache::new();
        let f = leaf_entry(&dfs, 5, 9);
        cache.insert(1, Factorization::new(5, f.clone(), None, "w".to_string()));
        let before = dfs.counters();
        let mut io = TaskIo::new(Arc::new(mrinv_mapreduce::UncountedDfs(dfs.clone())));
        let hit = || cache.lookup(1, false, &dfs, true).expect("hit");
        let a1 = hit().assembled(&mut io).unwrap();
        let a2 = hit().assembled(&mut io).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "memoized");
        assert_eq!(dfs.counters(), before, "assembly reads are uncounted");
        assert_eq!(a1.perm, f.perm());
    }

    #[test]
    fn insert_upgrades_in_place() {
        let dfs = Dfs::default();
        let cache = FactorCache::new();
        let f = leaf_entry(&dfs, 4, 20);
        cache.insert(3, Factorization::new(4, f.clone(), None, "w1".to_string()));
        let inv = Arc::new(Matrix::identity(4));
        cache.insert(3, Factorization::new(4, f, Some(inv), "w2".to_string()));
        let view = cache
            .lookup(3, true, &dfs, true)
            .expect("inverse now present");
        assert!(view.inverse.is_some());
        assert_eq!(view.workdir, "w2");
        assert_eq!(cache.stats().entries, 1);
    }
}
