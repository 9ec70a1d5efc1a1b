//! Pins the end-to-end pipeline's numerics and job identities.
//!
//! * The distributed inverse agrees with the single-node inverse
//!   (`inmem::invert_single_node`) within a documented forward-error
//!   tolerance: for the n=64 / nb=4 seed problem the two differ by ~1e-13,
//!   bounded here at 1e-10. The `Optimizations::none()` ablation, which
//!   computes with the same kernels, agrees with the default within the
//!   same bound.
//! * Its bits are pinned (`PACKED_HASHES`): at the seed run's own input
//!   and shape (recursion depth 4), and at two orders large enough for the
//!   final product to start past a K panel. They are the same on every
//!   host: the GEMM microkernel, the trsm leaves and the LU leaf round each
//!   step once, as IEEE 754's `fusedMultiplyAdd` does, so no arm's choice
//!   moves a bit.
//! * Every job's fingerprint (`JobReport::fingerprint`) must not move: the
//!   17 values pin the pipeline's job structure — which jobs run, in what
//!   order, with how many reducers, under which run configuration.
//!   Fingerprints cover job name, reducer count, a constant slot, config
//!   fingerprint, and sequence number.

use mrinv::config::{InversionConfig, Optimizations};
use mrinv::inmem::invert_single_node;
use mrinv::Request;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, RunId};
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

fn invert(a: &Matrix, nb: usize, opts: Optimizations) -> Matrix {
    let mut cfg = InversionConfig::with_nb(nb);
    cfg.opts = opts;
    Request::invert(a)
        .config(&cfg)
        .submit(&test_cluster())
        .unwrap()
        .into_inverse()
}

#[test]
fn e2e_inverse_is_pinned() {
    let a = random_invertible(64, 42);
    let inverse = invert(&a, 4, Optimizations::default());
    let diff = inverse
        .max_abs_diff(&invert_single_node(&a).unwrap())
        .unwrap();
    assert!(
        diff <= 1e-10,
        "pipeline deviates from the single-node inverse by {diff:e}"
    );
    // The ablation computes with the same kernels (only `U`'s storage and
    // the price change); it differs from the default only where an
    // operand's orientation picks another summation order.
    let diff = invert(&a, 4, Optimizations::none())
        .max_abs_diff(&inverse)
        .unwrap();
    assert!(
        diff <= 1e-10,
        "Optimizations::none() deviates from the default by {diff:e}"
    );

    for &(input, nb, pinned) in PACKED_HASHES {
        let got = hash_matrix(&invert(&input(), nb, Optimizations::default()));
        assert!(got == pinned, "inverse at nb={nb} moved: {got:#018x}");
    }
}

/// Builds an input matrix of [`PACKED_HASHES`].
type Input = fn() -> Matrix;

/// `(input, nb, hash)` of the inverse on 4 nodes. The seed run's own input
/// and shape (`random_invertible(64, 42)`, nb = 4, recursion depth 4: the
/// deepest pin), then `random_well_conditioned(n, n)` at orders past two K
/// panels, where the final product's cells start beyond the first panel
/// and its microtiles start inside a panel (depth 3); skipping zero terms
/// microtile by microtile must reproduce them. Taken with every kernel
/// step one fused multiply-add; every arm (AVX-512F, AVX2 + FMA, portable
/// `f64::mul_add`) gives these bits, so they hold on every host.
const PACKED_HASHES: &[(Input, usize, u64)] = &[
    (|| random_invertible(64, 42), 4, 0xcedd8c320c32b421),
    (|| random_well_conditioned(520, 520), 65, 0xf038888ba3cbeb89),
    (|| random_well_conditioned(600, 600), 75, 0x90445a8b217dbe16),
];

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
