//! Quantiles, hashes and seed derivation.

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it (`sorted[ceil(q·n) − 1]`). `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a over bytes: the identity of an output, compared across rounds.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv64`] over the bit patterns of `values`, so `-0.0` and `0.0` (or
/// two NaNs) that print alike still differ.
pub fn hash_f64s(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Seed of input `index` of `workload` under the run's `--seed`
/// (splitmix64 over the three, so neighbouring seeds share nothing).
pub fn derive_seed(seed: u64, workload: &str, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(fnv64(workload.as_bytes()))
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
