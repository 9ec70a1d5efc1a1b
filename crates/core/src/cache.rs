//! The keyed LU-factor cache: factor once, serve many solves.
//!
//! The paper's motivating applications (Section 1) factor a matrix once
//! and then amortize it over many cheap downstream uses. [`FactorCache`]
//! makes that pattern first-class: a successful pipeline run primes the
//! cache with its factors, packed into one matrix (plus the inverse, for
//! invert runs), and any later [`crate::Request`] for the *same* matrix
//! under the *same* block bound `nb` is served straight from them — zero
//! MapReduce jobs, zero simulated seconds, zero DFS reads.
//!
//! # Key semantics
//!
//! The key ([`CacheKey`], from [`cache_key`]) is the matrix order, a
//! 128-bit digest of its contents, and the block bound `nb`: for the
//! process's kernel backend a run is a pure function of (matrix, `nb`).
//! The geometry, cost profile, §6 toggles and execution backend only
//! place and store the pieces; `tests/reference_bits.rs` pins the
//! pipeline to `inmem::invert_block`'s and `block_lu`'s bits across all
//! of them. So a hit serves any geometry or toggles, and the map compares
//! the whole key. The run directory is left out too: an entry holds
//! answers, not a run's files. (`run_fingerprint`, which every job's
//! fingerprint mixes in, does cover the directory, the geometry and the
//! toggles, because they name the files a run writes.)
//!
//! The digest hashes the matrix's `f64` words as their bits, in one pass
//! and with no intermediate buffer, so `+0.0` / `-0.0` and distinct NaN
//! payloads are distinct matrices. It is XXH3's long-input structure over
//! 64-bit words: eight accumulator lanes take a stripe of eight words at
//! a time, each word adding itself to its neighbour lane and the product
//! of its two 32-bit halves, keyed by a fixed secret, to its own — one
//! multiply per word, which a core runs four lanes to a vector
//! instruction. The secret rolls by one word per stripe and the lanes are
//! scrambled every 16 stripes, so position matters; a zero-padded last
//! stripe and the word count close the input. Two merges of the lanes
//! under different secrets give the two 64-bit halves. The digest is one
//! function of the words' bits: its AVX2 instantiation is the portable
//! body compiled a second time, with wider registers, and integer
//! arithmetic gives the same value either way. At n = 256 (65,536 words)
//! it takes ~13 µs with AVX2 (~20–25 µs without), where the two-stream
//! digest it replaced (an xxHash64 round and a folded 128-bit multiply per
//! word, three multiplies in all) took ~100 µs, and the FNV before that,
//! which re-encoded the matrix and hashed it a byte at a time, 0.77 ms.
//!
//! The two halves are **not independent**: both are merges of one
//! eight-lane state, and between two scrambles each lane is a plain sum
//! of its words' terms. The digest keeps accidental collisions out, but
//! colliding matrices can be written down directly, with no search:
//! change a few words of one stripe so that the two lane sums they feed
//! come back unchanged (a keyed word whose low half is zero contributes
//! no product, and any 64-bit sum is reachable as `(2³² − 1)·q + r`).
//! It is **not a MAC**, and in a cache shared across tenants, a tenant
//! who knows another tenant's matrix can plant a different factorization
//! under its key. Every inverse an entry holds carries its certificate
//! ([`crate::Outcome::certificate`]), but that certificate was computed
//! once, against the matrix whose run filed the entry, and a hit hands it
//! back unchanged: a planted entry carries its planter's clean value. A
//! check of a hit against the requester's own matrix (ROADMAP item 14)
//! would make a wrong entry visible; until one exists, a shared service
//! trusts its tenants.
//!
//! The service names a matrix by the matrix half of its key — order and
//! digest, a `Name` — once a connection has sent it in full. A name binds
//! per tenant and `nb`, and a named request is answered from the one entry
//! the name was admitted against (see [`crate::service`]).
//!
//! # Ownership
//!
//! An entry owns its answers: the factors packed into one matrix — `L`
//! strictly below the diagonal, `U` on and above it, n² words with `P`
//! beside them — and the inverse with its certificate, if an invert run
//! produced one. The cold run that primes an entry packs the factors
//! through its own counted master handle, outside its report's window,
//! and then releases its factor forest as every plain run does, so a
//! finished request leaves nothing in the DFS.
//! Nothing an entry answers from can vanish under it: a lookup checks the
//! key and nothing else, and an entry is never invalidated, only replaced
//! when a run adds the inverse to an entry an `lu` or `solve` primed. The
//! cache does not evict.
//!
//! # Sharing
//!
//! An entry is one `Arc`'d `Factorization`. The cold run that primes an
//! entry, the entry, and every [`crate::Outcome`] later served from it
//! hold the same `Arc<Matrix>` inverse — a hit clones pointers under the
//! map lock, never matrices. Solves substitute through the shared packed
//! factors in place; an LU outcome unpacks its own dense `L` and `U` from
//! them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mrinv_mapreduce::Cluster;
use mrinv_matrix::{lu, Matrix};
use parking_lot::Mutex;

use crate::config::InversionConfig;

/// The [`FactorCache`] key of one (matrix, `nb`) pair; see "Key
/// semantics" in the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Matrix order.
    pub(crate) order: usize,
    /// The two halves of the matrix words' digest.
    pub(crate) digest: [u64; 2],
    /// The block bound.
    pub(crate) nb: usize,
}

/// Cache key for matrix `a` under `cfg`: its order, a 128-bit digest of
/// its words, and `cfg.nb`, the same across run directories, processes
/// and clusters (see "Key semantics"). `cluster` is unread; the parameter
/// stays so existing callers, the `e2e` harness among them, keep theirs.
pub fn cache_key(a: &Matrix, cfg: &InversionConfig, _cluster: &Cluster) -> CacheKey {
    CacheKey {
        order: a.rows(),
        digest: digest(a.as_slice()),
        nb: cfg.nb,
    }
}

/// A matrix's name on the service wire: its order and the two halves of
/// its digest, the matrix half of a [`CacheKey`].
pub(crate) type Name = [u64; 3];

impl CacheKey {
    /// The matrix half of the key.
    pub(crate) fn name(&self) -> Name {
        [self.order as u64, self.digest[0], self.digest[1]]
    }
}

/// The [`Name`] every key of `a` has, whatever its `nb`.
pub(crate) fn name_of(a: &Matrix) -> Name {
    let [d0, d1] = digest(a.as_slice());
    [a.rows() as u64, d0, d1]
}

/// Words per stripe: one per accumulator lane.
const LANES: usize = 8;
/// Stripes absorbed between two scrambles of the lanes.
const BLOCK_STRIPES: usize = 16;
/// Where the scramble's and the two merges' keys start in [`SECRET`];
/// stripe `s` of a block keys lane `i` with `SECRET[s + i]`, below them.
const SCRAMBLE: usize = 24;
const MERGE_LO: usize = 32;
const MERGE_HI: usize = 40;

/// The digest's key material: 48 words of splitmix64 seeded with the
/// first word of π's fraction, computed at compile time.
const SECRET: [u64; 48] = {
    let mut secret = [0; 48];
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let mut i = 0;
    while i < secret.len() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        secret[i] = z ^ (z >> 31);
        i += 1;
    }
    secret
};

/// xxHash's primes: the lanes' starting values (XXH3's), the scramble's
/// multiplier and the word count's.
const P32_1: u64 = 0x9E37_79B1;
const P32_2: u64 = 0x85EB_CA77;
const P32_3: u64 = 0xC2B2_AE3D;
const P64_1: u64 = 0x9E37_79B1_85EB_CA87;
const P64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P64_3: u64 = 0x1656_67B1_9E37_79F9;
const P64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const P64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One stripe into the lanes: lane `i` adds its neighbour's word (so no
/// word is lost to a zero product) and the product of the 32-bit halves
/// of its own word keyed by `key[i]`. Fixed-size arrays let LLVM see the
/// stripe as one operation on the eight lanes.
#[inline(always)]
fn stripe(acc: &mut [u64; LANES], words: &[f64; LANES], key: &[u64; LANES]) {
    for i in 0..LANES {
        let k = words[i].to_bits() ^ key[i];
        acc[i] = acc[i]
            .wrapping_add(words[i ^ 1].to_bits())
            .wrapping_add((k & 0xFFFF_FFFF).wrapping_mul(k >> 32));
    }
}

/// Whole stripes into the lanes, the first keyed at `SECRET[first]` and
/// each next one a word further on. The stripes stay within one block.
#[inline(always)]
fn stripes(acc: &mut [u64; LANES], words: &[f64], first: usize) {
    for (s, words) in words.chunks_exact(LANES).enumerate() {
        let key = SECRET[first + s..].first_chunk().expect("a block's keys");
        stripe(acc, words.try_into().expect("a whole stripe"), key);
    }
}

/// XXH3's scramble: folds each lane's high bits down and multiplies.
#[inline(always)]
fn scramble(acc: &mut [u64; LANES]) {
    for (lane, key) in acc.iter_mut().zip(&SECRET[SCRAMBLE..]) {
        *lane = (*lane ^ (*lane >> 47) ^ key).wrapping_mul(P32_1);
    }
}

/// Both halves of a 64×64→128-bit product, folded.
#[inline(always)]
fn fold_mul(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The lanes merged pairwise under `key`, from `start`, and avalanched.
fn merge(acc: &[u64; LANES], key: &[u64], start: u64) -> u64 {
    let mut h = start;
    for i in (0..LANES).step_by(2) {
        h = h.wrapping_add(fold_mul(acc[i] ^ key[i], acc[i + 1] ^ key[i + 1]));
    }
    h ^= h >> 37;
    h = h.wrapping_mul(P64_3);
    h ^ (h >> 32)
}

/// The digest of `words`, absorbing whole stripes with `stripes`: whole
/// blocks, then whole stripes, then the zero-padded tail, then the merges.
#[inline(always)]
fn digest_with(words: &[f64], stripes: impl Fn(&mut [u64; LANES], &[f64], usize)) -> [u64; 2] {
    let mut acc = [P32_3, P64_1, P64_2, P64_3, P64_4, P32_2, P64_5, P32_1];
    let mut blocks = words.chunks_exact(LANES * BLOCK_STRIPES);
    for block in &mut blocks {
        stripes(&mut acc, block, 0);
        scramble(&mut acc);
    }
    let rest = blocks.remainder();
    let (whole, tail) = rest.split_at(rest.len() / LANES * LANES);
    stripes(&mut acc, whole, 0);
    if !tail.is_empty() {
        let mut padded = [0.0; LANES];
        padded[..tail.len()].copy_from_slice(tail);
        stripes(&mut acc, &padded, whole.len() / LANES);
    }
    let len = words.len() as u64;
    [
        merge(&acc, &SECRET[MERGE_LO..], len.wrapping_mul(P64_1)),
        merge(&acc, &SECRET[MERGE_HI..], !len.wrapping_mul(P64_2)),
    ]
}

/// Portable instantiation (baseline target features, SSE2 on x86-64).
fn digest_portable(words: &[f64]) -> [u64; 2] {
    digest_with(words, stripes)
}

/// AVX2 instantiation: the same body, compiled with 256-bit registers, in
/// which LLVM runs a stripe four lanes to a register (the 32×32-bit
/// products as `vpmuludq`). Integer arithmetic, so the digest is the
/// portable one's on every input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::redundant_closure)]
fn digest_avx2(words: &[f64]) -> [u64; 2] {
    // A closure inherits this function's target feature; the function
    // item itself would be called through a shim compiled without it.
    // Kept a call of its own, the stripe loop vectorizes within a stripe
    // (~13 µs at n = 256) rather than across stripes (~16 µs).
    digest_with(words, |acc, words, first| stripes(acc, words, first))
}

/// Digest of `words` by their bits (see "Key semantics").
fn digest(words: &[f64]) -> [u64; 2] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the probe just confirmed the CPU supports AVX2, the one
        // feature `digest_avx2` was compiled for.
        return unsafe { digest_avx2(words) };
    }
    digest_portable(words)
}

/// An inverse and its certificate
/// ([`mrinv_matrix::norms::inverse_certificate`] against the matrix it
/// inverts), computed once, where the inverse was made, and handed out
/// together from then on.
#[derive(Debug, Clone)]
pub(crate) struct CertifiedInverse {
    pub(crate) matrix: Arc<Matrix>,
    pub(crate) certificate: f64,
}

/// One finished factorization: what a cold pipeline run files and what a
/// cache hit answers from (see "Ownership" in the module docs).
#[derive(Debug)]
pub(crate) struct Factorization {
    pub(crate) nb: usize,
    /// `L` strictly below the diagonal, `U` on and above it, and `P`.
    pub(crate) lu: Arc<lu::LuFactors>,
    pub(crate) inverse: Option<CertifiedInverse>,
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
}

/// Keyed, thread-safe LU-factor cache (see the module docs).
#[derive(Debug, Default)]
pub struct FactorCache {
    entries: Mutex<BTreeMap<CacheKey, Arc<Factorization>>>,
    hits: AtomicU64,
    misses: AtomicU64,
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
        }
    }

    /// The entry filed under `key`, if `usable` accepts it. Requests pass
    /// whether the entry holds what the operation needs — an entry primed
    /// by an `lu`/`solve` run holds factors but no inverse, and serving an
    /// invert from it would require master-side triangular inversion, a
    /// different numerical path than the pipeline, so it counts as a miss
    /// and the full pipeline runs (and upgrades the entry) — and, for a
    /// named request, whether it is the entry the name was admitted
    /// against.
    ///
    /// `count_miss` is false for the service's handler threads, which
    /// probe the cache before queueing a cold request for the executor —
    /// the executor's own lookup counts that verdict.
    pub(crate) fn lookup_if(
        &self,
        key: CacheKey,
        count_miss: bool,
        usable: impl FnOnce(&Factorization) -> bool,
    ) -> Option<Arc<Factorization>> {
        let hit = self.entries.lock().get(&key).filter(|e| usable(e)).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else if count_miss {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`FactorCache::lookup_if`] for a request that needs an inverse
    /// (`need_inverse`) or only factors.
    #[cfg(test)]
    pub(crate) fn lookup(
        &self,
        key: CacheKey,
        need_inverse: bool,
        count_miss: bool,
    ) -> Option<Arc<Factorization>> {
        self.lookup_if(key, count_miss, |e| !need_inverse || e.inverse.is_some())
    }

    /// Primes (or upgrades) the entry for `key` after a cold run: an
    /// invert run adds the inverse to an entry an `lu` or `solve` primed.
    /// An inverse the new run did not produce is kept (two cold runs of
    /// one key race when several threads submit). Returns the entry now
    /// filed under `key`.
    pub(crate) fn insert(&self, key: CacheKey, mut done: Factorization) -> Arc<Factorization> {
        let mut entries = self.entries.lock();
        if let Some(old) = entries.get(&key) {
            if done.inverse.is_none() {
                done.inverse = old.inverse.clone();
            }
        }
        let entry = Arc::new(done);
        entries.insert(key, entry.clone());
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use mrinv_mapreduce::ClusterConfig;
    use mrinv_matrix::io::encode_binary;
    use mrinv_matrix::random::random_matrix;
    use mrinv_matrix::Permutation;
    use std::collections::BTreeSet;

    /// A key standing for the `k`-th distinct matrix.
    fn key(k: u64) -> CacheKey {
        CacheKey {
            order: 6,
            digest: [k, 0],
            nb: 2,
        }
    }

    /// An entry of order `n` under block bound `nb`, with an inverse if
    /// `inverse`.
    fn entry(nb: usize, n: usize, inverse: bool) -> Factorization {
        Factorization {
            nb,
            lu: Arc::new(lu::LuFactors {
                lu: random_matrix(n, n, nb as u64),
                perm: Permutation::identity(n),
            }),
            inverse: inverse.then(|| CertifiedInverse {
                matrix: Arc::new(Matrix::identity(n)),
                certificate: 0.0,
            }),
        }
    }

    /// A lookup finds an entry by its whole key and what the request
    /// needs, and reads nothing else: the entry owns its factors, so a
    /// hit still serves the cold run's bits after the priming run
    /// released its files and the DFS is emptied again.
    #[test]
    fn lookup_hits_validates_and_invalidates() {
        use crate::request::{CacheStatus, Request};

        let cluster = Cluster::medium(2);
        let cache = FactorCache::new();
        let a = mrinv_matrix::random::random_well_conditioned(12, 1);
        let cfg = InversionConfig::with_nb(4);
        let lu = || Request::lu(&a).config(&cfg).cache(&cache);
        let cold = lu().submit(&cluster).unwrap().into_factors();
        let key = cache_key(&a, &cfg, &cluster);

        let other_nb = CacheKey { nb: 5, ..key };
        assert!(cache.lookup(other_nb, false, true).is_none(), "unknown key");
        let view = cache.lookup(key, false, true).expect("hit");
        assert_eq!(view.nb, 4);
        assert!(view.inverse.is_none());
        // Factors but no inverse: an invert request misses.
        assert!(cache.lookup(key, true, true).is_none());

        assert_eq!(
            cluster.dfs.delete_dir(""),
            0,
            "the plain run released its files"
        );
        let after = cache.lookup(key, false, true).expect("still a hit");
        assert!(Arc::ptr_eq(&view, &after));
        let hit = lu().submit(&cluster).unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert_eq!(hit.report.jobs, 0);
        let hit = hit.into_factors();
        assert_eq!(hit.perm, cold.perm);
        assert_eq!(encode_binary(&hit.l), encode_binary(&cold.l));
        assert_eq!(encode_binary(&hit.u), encode_binary(&cold.u));
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 3, 3));
    }

    #[test]
    fn insert_upgrades_in_place() {
        let cache = FactorCache::new();
        cache.insert(key(3), entry(4, 4, false));
        cache.insert(key(3), entry(4, 4, true));
        let view = cache
            .lookup(key(3), true, true)
            .expect("inverse now present");
        assert!(view.inverse.is_some());
        // A run that produced no inverse keeps the entry's.
        cache.insert(key(3), entry(4, 4, false));
        let kept = cache.lookup(key(3), true, true).expect("inverse kept");
        assert!(Arc::ptr_eq(
            &view.inverse.as_ref().unwrap().matrix,
            &kept.inverse.as_ref().unwrap().matrix
        ));
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

    /// The order, `nb` and every word change the key; the optimization
    /// toggles and the node count (which sets `m0`, `m_l`, `m_u` and the
    /// block-wrap grid) do not, since no bit of the answer moves with them
    /// (`tests/reference_bits.rs`).
    #[test]
    fn key_covers_order_nb_and_words_only() {
        let four = Cluster::medium(4);
        let words = random_matrix(4, 4, 11).into_vec();
        let a = Matrix::from_vec(4, 4, words.clone()).unwrap();
        let base = InversionConfig::with_nb(2);
        let mut flipped = a.clone();
        flipped[(3, 1)] = f64::from_bits(a[(3, 1)].to_bits() ^ 1);
        let keys = [
            cache_key(&a, &base, &four),
            // The same words as a different order.
            cache_key(&Matrix::from_vec(2, 8, words).unwrap(), &base, &four),
            cache_key(&a, &InversionConfig::with_nb(3), &four),
            cache_key(&flipped, &base, &four),
        ];
        assert_eq!(BTreeSet::from(keys).len(), keys.len(), "{keys:#?}");

        let toggled = |flip: fn(&mut Optimizations)| {
            let mut cfg = base.clone();
            flip(&mut cfg.opts);
            cfg
        };
        let same = [
            cache_key(
                &a,
                &toggled(|o| o.separate_intermediate_files ^= true),
                &four,
            ),
            cache_key(&a, &toggled(|o| o.block_wrap ^= true), &four),
            cache_key(&a, &toggled(|o| o.transpose_u ^= true), &four),
            cache_key(&a, &toggled(|o| *o = Optimizations::none()), &four),
            cache_key(&a, &base, &Cluster::medium(2)),
            cache_key(&a, &base, &Cluster::new(ClusterConfig::large(8))),
        ];
        assert!(same.iter().all(|k| *k == keys[0]), "{same:#?}");
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
        assert_eq!(hit.report.jobs, 0);
    }

    /// The map compares whole keys: two entries that agree on the order,
    /// the configuration and the first digest half are still two entries.
    #[test]
    fn keys_differing_in_the_second_digest_half_stay_apart() {
        let cache = FactorCache::new();
        let first = CacheKey {
            order: 6,
            digest: [99, 1],
            nb: 5,
        };
        let second = CacheKey {
            digest: [99, 2],
            ..first
        };
        cache.insert(first, entry(2, 6, false));
        assert!(cache.lookup(second, false, true).is_none());
        cache.insert(second, entry(3, 6, false));
        assert_eq!(cache.lookup(first, false, true).unwrap().nb, 2);
        assert_eq!(cache.lookup(second, false, true).unwrap().nb, 3);
        assert_eq!(cache.stats().entries, 2);
    }

    /// The words of an order-`n` random matrix with a zero, a negative
    /// zero and a NaN among them.
    fn words_with_specials(n: usize, seed: u64) -> Vec<f64> {
        let mut words = random_matrix(n, n, seed).into_vec();
        words[1] = 0.0;
        words[n + 2] = -0.0;
        words[2 * n + 3] = f64::from_bits(0x7FF8_0000_0000_0001);
        words
    }

    /// Every single-bit change at every word position of an order-64
    /// matrix (512 full stripes, four scrambles) is a different digest,
    /// and so is every one of a zero matrix, whose words are all alike.
    #[test]
    fn every_single_bit_flip_of_an_order_64_matrix_changes_the_digest() {
        for mut words in [words_with_specials(64, 5), vec![0.0; 64 * 64]] {
            let mut digests = BTreeSet::from([digest(&words)]);
            for i in 0..words.len() {
                let original = words[i];
                for bit in 0..64 {
                    words[i] = f64::from_bits(original.to_bits() ^ (1 << bit));
                    digests.insert(digest(&words));
                }
                words[i] = original;
            }
            assert_eq!(digests.len(), 1 + 64 * 64 * 64);
        }
    }

    /// `+0.0` / `-0.0` and NaNs that differ only in their payload compare
    /// equal (or unordered) as floats and are different matrices.
    #[test]
    fn signed_zeros_and_nan_payloads_are_distinct() {
        let nans = [
            0x7FF8_0000_0000_0000,
            0x7FF8_0000_0000_0001,
            0xFFF8_0000_0000_0000,
        ];
        let mut values = vec![0.0, -0.0];
        values.extend(nans.map(f64::from_bits));
        for len in [1, 7, 8, 9, 130] {
            let digests: BTreeSet<_> = values
                .iter()
                .map(|&x| {
                    let mut words = vec![1.5; len];
                    words[len / 2] = x;
                    digest(&words)
                })
                .collect();
            assert_eq!(digests.len(), values.len(), "length {len}");
        }
    }

    /// Lengths that fill no whole stripe, or end in a partial one or a
    /// partial block: each prefix of one word sequence is its own digest,
    /// a zero-padded tail differs from explicit zeros, and a word moved
    /// within the tail moves the digest.
    #[test]
    fn lengths_off_the_stripe_are_covered() {
        let words = words_with_specials(16, 8);
        let prefixes: BTreeSet<_> = (0..=words.len()).map(|k| digest(&words[..k])).collect();
        assert_eq!(prefixes.len(), words.len() + 1);
        for len in [1usize, 3, 7, 9, 131, 133] {
            let mut padded = words[..len].to_vec();
            padded.resize(len.next_multiple_of(8), 0.0);
            assert_ne!(digest(&words[..len]), digest(&padded), "length {len}");
            let mut swapped = words[..len].to_vec();
            swapped.swap(len - 1, (len - 1) / 8 * 8);
            if swapped != words[..len] {
                assert_ne!(digest(&words[..len]), digest(&swapped), "length {len}");
            }
        }
    }

    /// The AVX2 instantiation computes the portable one's digest, on every
    /// length up to a few blocks and at n = 256.
    #[test]
    fn simd_and_portable_digests_agree() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let words = words_with_specials(64, 13);
            for len in (0..=400).chain([64 * 64]) {
                let words = &words[..len];
                // SAFETY: the probe above confirmed the CPU supports AVX2.
                let simd = unsafe { digest_avx2(words) };
                assert_eq!(simd, digest_portable(words), "length {len}");
            }
            let big = random_matrix(256, 256, 2).into_vec();
            // SAFETY: as above.
            assert_eq!(unsafe { digest_avx2(&big) }, digest_portable(&big));
            return;
        }
        eprintln!("no AVX2 on this host: only the portable digest runs");
    }

    /// A matrix's name is the matrix half of each of its keys.
    #[test]
    fn a_name_is_the_matrix_half_of_every_key() {
        let a = Matrix::from_vec(9, 9, words_with_specials(9, 21)).unwrap();
        let cluster = Cluster::medium(4);
        for nb in [2, 3] {
            let key = cache_key(&a, &InversionConfig::with_nb(nb), &cluster);
            assert_eq!(key.name(), name_of(&a));
        }
    }
}
