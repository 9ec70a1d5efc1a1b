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
//! The key ([`CacheKey`], from [`cache_key`]) covers everything that
//! determines the factor bytes: the matrix order and a 128-bit digest of
//! its contents, and a fingerprint of the block bound `nb`, the
//! optimization toggles and the cluster partition geometry (`m0`, `m_l`,
//! `m_u`, block-wrap grid). The entries are keyed by the whole value, so
//! a hit has compared all of it. It deliberately **excludes** the run
//! directory — unlike the checkpoint manifest's `run_fingerprint`, which
//! includes `plan.root` so a resume can't restore another run's files,
//! the cache exists precisely to share factors *across* runs.
//! Determinism makes that sound: a pipeline run is a pure function of
//! (matrix, config, geometry), so two runs with equal keys would have
//! produced bit-identical factor files.
//!
//! The digest hashes the matrix's `f64` words as their bits, in one pass
//! and with no intermediate buffer, so `+0.0` / `-0.0` and distinct NaN
//! payloads are distinct matrices. Its two 64-bit halves come from two
//! streams with different mixing functions (an xxHash64-style
//! multiply–rotate round and a folded 64×64→128-bit multiply), each over
//! four independent lanes so a core overlaps their multiplies. Two
//! different matrices of one order share a key only if both halves
//! collide. The digest is **not a MAC**: it keeps accidental collisions
//! out, but a tenant who can search for matrices that collide with
//! another tenant's is not stopped by it. The defence against a hostile
//! tenant is a residual certificate on every answer, which makes a wrong
//! entry visible rather than merely improbable.
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
use mrinv_matrix::Matrix;
use parking_lot::Mutex;

use crate::config::InversionConfig;
use crate::error::Result;
use crate::factors::FactorRef;
use crate::inverse::push_run_config;
use crate::partition::PartitionPlan;
use crate::request::LuFactors;

/// The [`FactorCache`] key of one (matrix, config, cluster geometry)
/// triple; see "Key semantics" in the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Matrix order.
    pub(crate) order: usize,
    /// The two halves of the matrix words' digest.
    pub(crate) digest: [u64; 2],
    /// The manifest fingerprint of the geometry and toggles.
    pub(crate) config: u64,
}

/// Cache key for a (matrix, config, cluster-geometry) triple.
///
/// The matrix part is its order and a 128-bit digest of its words; the
/// rest is the manifest [`Fingerprint`] of the run configuration without
/// the run directory. The key is identical across run directories and
/// processes, and changes when any matrix entry, `nb`, optimization
/// toggle, or partition-geometry parameter changes.
pub fn cache_key(a: &Matrix, cfg: &InversionConfig, cluster: &Cluster) -> CacheKey {
    // The plan root does not affect geometry; an empty root keeps the key
    // workdir-independent.
    let plan = PartitionPlan::new(a.rows(), cluster, cfg, "");
    CacheKey {
        order: a.rows(),
        digest: digest(a.as_slice()),
        config: push_run_config(Fingerprint::new(), &plan, &cfg.opts).finish(),
    }
}

/// xxHash64's primes: the multipliers of the first stream.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
/// The second stream's multiplier (PCG's) and lane seeds (digits of π).
const M: u64 = 0x5851_F42D_4C95_7F2D;
const PI_WORDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The first stream's round: xxHash64's multiply–rotate–multiply.
#[inline(always)]
fn round_a(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The second stream's mixer: both halves of a 64×64→128-bit product.
#[inline(always)]
fn fold_mul(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Digest of `words` by their bits: word `i` enters lane `i % 4` of both
/// streams, and each stream folds its lanes and the word count into one
/// half (see "Key semantics").
fn digest(words: &[f64]) -> [u64; 2] {
    let mut a = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut b = PI_WORDS;
    let mut absorb = |words: &[f64]| {
        for ((a, b), w) in a.iter_mut().zip(&mut b).zip(words) {
            let w = w.to_bits();
            *a = round_a(*a, w);
            *b = fold_mul(*b ^ w, M);
        }
    };
    let mut chunks = words.chunks_exact(4);
    chunks.by_ref().for_each(&mut absorb);
    absorb(chunks.remainder());
    let len = words.len() as u64;

    // xxHash64's lane merge and avalanche.
    let mut h = a[0]
        .rotate_left(1)
        .wrapping_add(a[1].rotate_left(7))
        .wrapping_add(a[2].rotate_left(12))
        .wrapping_add(a[3].rotate_left(18));
    for lane in a {
        h = (h ^ round_a(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    h = h.wrapping_add(len);
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^= h >> 32;

    // The second stream chains its lanes through the same mixer.
    let g = b
        .iter()
        .fold(len ^ PI_WORDS[0], |g, &lane| fold_mul(g ^ lane, M));
    [h, fold_mul(g, PI_WORDS[1])]
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
    entries: Mutex<BTreeMap<CacheKey, Arc<Factorization>>>,
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
        key: CacheKey,
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
    pub(crate) fn insert(&self, key: CacheKey, mut done: Factorization) {
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
    use crate::config::Optimizations;
    use mrinv_matrix::io::encode_binary;
    use mrinv_matrix::random::{random_matrix, random_unit_lower, random_upper};
    use mrinv_matrix::Permutation;
    use std::collections::BTreeSet;

    /// A key standing for the `k`-th distinct matrix.
    fn key(k: u64) -> CacheKey {
        CacheKey {
            order: 6,
            digest: [k, 0],
            config: 0,
        }
    }

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
            key(7),
            Factorization::new(2, f.clone(), None, "run-a".to_string()),
        );

        assert!(
            cache.lookup(key(8), false, &dfs, true).is_none(),
            "unknown key"
        );
        let view = cache.lookup(key(7), false, &dfs, true).expect("hit");
        assert_eq!(view.nb, 2);
        assert_eq!(view.workdir, "run-a");
        assert!(view.inverse.is_none());
        // Factors but no inverse: an invert request misses.
        assert!(cache.lookup(key(7), true, &dfs, true).is_none());

        // Deleting any factor file invalidates the entry on next lookup.
        assert!(dfs.delete("cache-test/1/u"));
        assert!(cache.lookup(key(7), false, &dfs, true).is_none());
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
        cache.insert(
            key(1),
            Factorization::new(5, f.clone(), None, "w".to_string()),
        );
        let before = dfs.counters();
        let mut io = TaskIo::new(Arc::new(mrinv_mapreduce::UncountedDfs(dfs.clone())));
        let hit = || cache.lookup(key(1), false, &dfs, true).expect("hit");
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
        cache.insert(
            key(3),
            Factorization::new(4, f.clone(), None, "w1".to_string()),
        );
        let inv = Arc::new(Matrix::identity(4));
        cache.insert(
            key(3),
            Factorization::new(4, f, Some(inv), "w2".to_string()),
        );
        let view = cache
            .lookup(key(3), true, &dfs, true)
            .expect("inverse now present");
        assert!(view.inverse.is_some());
        assert_eq!(view.workdir, "w2");
        assert_eq!(cache.stats().entries, 1);
    }

    /// Every single-bit change of every element is a different key: among
    /// them `+0.0` → `-0.0` and one NaN payload → another, which compare
    /// equal (or unordered) as floats but are different matrices. 25
    /// words also sends one through the lanes' remainder path.
    #[test]
    fn every_single_bit_flip_changes_the_key() {
        let cluster = Cluster::medium(4);
        let cfg = InversionConfig::with_nb(2);
        let mut a = random_matrix(5, 5, 3);
        a[(0, 0)] = 0.0;
        a[(2, 3)] = f64::from_bits(0x7FF8_0000_0000_0001);
        a[(4, 4)] = -0.0;
        let mut keys = BTreeSet::from([cache_key(&a, &cfg, &cluster)]);
        for i in 0..5 {
            for j in 0..5 {
                for bit in 0..64 {
                    let mut flipped = a.clone();
                    flipped[(i, j)] = f64::from_bits(a[(i, j)].to_bits() ^ (1 << bit));
                    keys.insert(cache_key(&flipped, &cfg, &cluster));
                }
            }
        }
        assert_eq!(keys.len(), 1 + 25 * 64);

        let zeros = Matrix::zeros(3, 3);
        let mut negative = zeros.clone();
        negative[(1, 1)] = -0.0;
        assert_eq!(zeros, negative, "equal as floats");
        assert_ne!(
            cache_key(&zeros, &cfg, &cluster),
            cache_key(&negative, &cfg, &cluster)
        );
    }

    /// The order, `nb`, each optimization toggle and the node count (which
    /// sets `m0`, `m_l`, `m_u` and the block-wrap grid) each change the key.
    #[test]
    fn key_covers_order_nb_toggles_and_geometry() {
        let four = Cluster::medium(4);
        let words = random_matrix(4, 4, 11).into_vec();
        let a = Matrix::from_vec(4, 4, words.clone()).unwrap();
        let base = InversionConfig::with_nb(2);
        let toggled = |flip: fn(&mut Optimizations)| {
            let mut cfg = base.clone();
            flip(&mut cfg.opts);
            cfg
        };
        let keys = [
            cache_key(&a, &base, &four),
            // The same words as a different order.
            cache_key(&Matrix::from_vec(2, 8, words).unwrap(), &base, &four),
            cache_key(&a, &InversionConfig::with_nb(3), &four),
            cache_key(
                &a,
                &toggled(|o| o.separate_intermediate_files ^= true),
                &four,
            ),
            cache_key(&a, &toggled(|o| o.block_wrap ^= true), &four),
            cache_key(&a, &toggled(|o| o.transpose_u ^= true), &four),
            cache_key(&a, &base, &Cluster::medium(2)),
        ];
        assert_eq!(BTreeSet::from(keys).len(), keys.len(), "{keys:#?}");
    }

    /// What does not shape the factors does not enter the key: a cluster
    /// of the same geometry that differs otherwise, and the run directory.
    #[test]
    fn equal_inputs_share_a_key_across_clusters_and_workdirs() {
        use crate::request::{CacheStatus, Request};
        use crate::RunId;

        let a = mrinv_matrix::random::random_well_conditioned(16, 5);
        let cfg = InversionConfig::with_nb(4);
        let cluster = Cluster::medium(4);
        let mut other = mrinv_mapreduce::ClusterConfig::medium(4);
        other.node_speeds = vec![1.0, 0.5, 2.0, 1.0];
        other.tracing = true;
        assert_eq!(
            cache_key(&a, &cfg, &cluster),
            cache_key(&a, &cfg, &Cluster::new(other))
        );

        let cache = FactorCache::new();
        let run = |dir: &str| {
            Request::lu(&a)
                .config(&cfg)
                .cache(&cache)
                .workdir(&RunId::new(dir))
                .submit(&cluster)
                .unwrap()
        };
        assert_eq!(run("run-a").cache, CacheStatus::Miss);
        let hit = run("run-b");
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert_eq!(hit.report.workdir, "run-a");
    }

    /// The map compares whole keys: two entries that agree on the order,
    /// the configuration and the first digest half are still two entries.
    #[test]
    fn keys_differing_in_the_second_digest_half_stay_apart() {
        let dfs = Dfs::default();
        let cache = FactorCache::new();
        let f = leaf_entry(&dfs, 6, 40);
        let first = CacheKey {
            order: 6,
            digest: [99, 1],
            config: 5,
        };
        let second = CacheKey {
            digest: [99, 2],
            ..first
        };
        cache.insert(first, Factorization::new(2, f.clone(), None, "a".into()));
        assert!(cache.lookup(second, false, &dfs, true).is_none());
        cache.insert(second, Factorization::new(3, f, None, "b".into()));
        assert_eq!(cache.lookup(first, false, &dfs, true).unwrap().workdir, "a");
        assert_eq!(
            cache.lookup(second, false, &dfs, true).unwrap().workdir,
            "b"
        );
        assert_eq!(cache.stats().entries, 2);
    }
}
