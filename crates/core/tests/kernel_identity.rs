//! Pins the end-to-end pipeline's numerics and job identities across the
//! kernel-engine refactor.
//!
//! * Under the `Naive` reference backend the full distributed inverse must
//!   be **bit-identical** to the pre-engine implementation — pinned here as
//!   an FNV-1a hash of the result's f64 bit patterns, captured from the
//!   seed code before any call site moved onto `kernel::gemm`/`trsm`. The
//!   `Optimizations::none()` run agrees with it within the engine
//!   tolerance below.
//! * Under the default `Packed` engine the same inverse must agree within a
//!   documented forward-error tolerance (the engine reassociates sums and
//!   fuses each microkernel step into one multiply-add; for this n=64 /
//!   nb=4 problem the observed deviation is ~1e-13, bounded here at
//!   1e-10). Its bits are pinned as well, at two orders large enough for
//!   the final product to start past a K panel. They are the same on
//!   every host: each microkernel arm rounds each step once, as IEEE 754's
//!   `fusedMultiplyAdd` does, so no arm's choice moves a bit.
//! * Every job's fingerprint (`JobReport::fingerprint`) must not move: the
//!   17 values pin the pipeline's job structure — which jobs run, in what
//!   order, with how many reducers, under which run configuration.
//!   Fingerprints cover job name, reducer count, a constant slot, config
//!   fingerprint, and sequence number.

use mrinv::config::{InversionConfig, Optimizations};
use mrinv::Request;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, RunId};
use mrinv_matrix::kernel::{set_global_backend, BackendKind};
use mrinv_matrix::random::{random_invertible, random_well_conditioned};
use mrinv_matrix::Matrix;

fn test_cluster() -> Cluster {
    let mut ccfg = ClusterConfig::medium(4);
    ccfg.cost = CostModel::unit_for_tests();
    Cluster::new(ccfg)
}

fn hash_matrix(m: &Matrix) -> u64 {
    // FNV-1a over the f64 bit patterns, row-major.
    let mut h: u64 = 0xcbf29ce484222325;
    for &v in m.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Seed hash of the n=64 / nb=4 inverse with default optimizations.
const SEED_HASH_DEFAULT: u64 = 0x083f29d7de9d9bc8;

/// Both backend-sensitive checks live in one test because the backend is
/// process-global; parallel test threads must not flip it mid-run.
#[test]
fn e2e_inverse_is_pinned_per_backend() {
    let a = random_invertible(64, 42);
    let cfg = InversionConfig::with_nb(4);
    let mut cfg_ablation = InversionConfig::with_nb(4);
    cfg_ablation.opts = Optimizations::none();

    // Reference backend: bit-identical to the seed implementation.
    let prev = set_global_backend(BackendKind::Naive);
    let cluster = test_cluster();
    let naive = Request::invert(&a)
        .config(&cfg)
        .submit(&cluster)
        .unwrap()
        .into_inverse();
    assert_eq!(
        hash_matrix(&naive),
        SEED_HASH_DEFAULT,
        "Naive-backend pipeline no longer reproduces the seed bits"
    );
    let ablation = Request::invert(&a)
        .config(&cfg_ablation)
        .submit(&cluster)
        .unwrap()
        .into_inverse();
    // The ablation computes with the same kernels (only `U`'s storage
    // and the price change), so under `Naive` it differs from the default
    // only where an operand's orientation picks another loop order.
    let diff = ablation.max_abs_diff(&naive).unwrap();
    assert!(
        diff <= 1e-10,
        "Optimizations::none() deviates from the default by {diff:e}"
    );

    // Engine backend: same result within the documented tolerance.
    set_global_backend(BackendKind::Packed);
    let cluster = test_cluster();
    let packed = Request::invert(&a)
        .config(&cfg)
        .submit(&cluster)
        .unwrap()
        .into_inverse();
    let diff = packed.max_abs_diff(&naive).unwrap();
    assert!(
        diff <= 1e-10,
        "packed engine deviates from reference by {diff:e}"
    );

    for &(n, nb, pinned) in PACKED_HASHES {
        let a = random_well_conditioned(n, n as u64);
        let inverse = Request::invert(&a)
            .config(&InversionConfig::with_nb(nb))
            .submit(&test_cluster())
            .unwrap()
            .into_inverse();
        assert_eq!(
            hash_matrix(&inverse),
            pinned,
            "packed inverse at n={n} nb={nb} moved"
        );
    }

    set_global_backend(prev);
}

/// `(n, nb, hash)` of the `Packed`-backend inverse of
/// `random_well_conditioned(n, n)` on 4 nodes: orders past two K panels,
/// where the final product's cells start beyond the first panel and its
/// 128-wide tiles straddle a panel boundary. Skipping zero terms tile by
/// tile must reproduce them. Taken with the fused 4×16 microkernel; every
/// arm of it (AVX-512F, AVX2 + FMA, portable `f64::mul_add`) gives these
/// bits, so they hold on every host.
const PACKED_HASHES: &[(usize, usize, u64)] =
    &[(520, 65, 0x907aa1a87f72d8d4), (600, 75, 0x8a835c8e5631cac7)];

/// `(job name, job fingerprint)` for every job of the pinned run, in
/// pipeline order. Captured before the kernel refactor; a change here
/// means the pipeline's job structure moved.
const SEED_MANIFEST: &[(&str, u64)] = &[
    ("partition:pinned-run", 0x9bc452f09fe22368),
    ("lu-level:pinned-run/A1/A1/A1", 0xb591558bbaea81dd),
    ("lu-level:pinned-run/A1/A1", 0x75af17ecc531f2ab),
    ("lu-level:pinned-run/A1/A1/OUT", 0x14109f0c9dfb8929),
    ("lu-level:pinned-run/A1", 0x0f035968fac91d1f),
    ("lu-level:pinned-run/A1/OUT/A1", 0xadd3fce053aa2707),
    ("lu-level:pinned-run/A1/OUT", 0x5109cec5f1e6bacb),
    ("lu-level:pinned-run/A1/OUT/OUT", 0x8f9feb5d39dea870),
    ("lu-level:pinned-run", 0xb9b6010ebba336ff),
    ("lu-level:pinned-run/OUT/A1/A1", 0x918561deadd0a316),
    ("lu-level:pinned-run/OUT/A1", 0x1bf376089df80a2d),
    ("lu-level:pinned-run/OUT/A1/OUT", 0x82b1979b677f76b9),
    ("lu-level:pinned-run/OUT", 0x6d08f9b0014145f2),
    ("lu-level:pinned-run/OUT/OUT/A1", 0xe23788bdf7a79be2),
    ("lu-level:pinned-run/OUT/OUT", 0x027186ed5ffe1018),
    ("lu-level:pinned-run/OUT/OUT/OUT", 0x54488ecd01fb1eb0),
    ("final-inverse:pinned-run", 0x0889afe6b1b8f4d8),
];

#[test]
fn job_spec_fingerprints_are_unchanged() {
    let cluster = test_cluster();
    let a = random_invertible(64, 42);
    let cfg = InversionConfig::with_nb(4);
    let run = RunId::new("pinned-run");
    let out = Request::invert(&a)
        .config(&cfg)
        .workdir(&run)
        .submit(&cluster)
        .unwrap();

    let got: Vec<(&str, u64)> = (out.report.job_reports.iter())
        .map(|r| (r.name.as_str(), r.fingerprint))
        .collect();
    for (name, fp) in &got {
        println!("(\"{name}\", {fp:#018x}),");
    }
    assert_eq!(
        got, SEED_MANIFEST,
        "job fingerprints moved: the pipeline's job structure changed"
    );
}
