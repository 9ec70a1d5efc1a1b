//! Cross-implementation agreement: four independent implementations of
//! matrix inversion — the MapReduce pipeline, the in-memory block method,
//! the single-node classical method, and the ScaLAPACK-style baseline —
//! must agree on the same inputs.

use mrinv::inmem::{block_lu, invert_block, invert_single_node};
use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel};
use mrinv_matrix::lu::lu_decompose;
use mrinv_matrix::random::{random_invertible, random_well_conditioned};
use mrinv_matrix::Matrix;
use mrinv_scalapack::{ScalapackConfig, ScalapackRun};

fn unit_cluster(m0: usize) -> Cluster {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    Cluster::new(cfg)
}

/// A matrix's words as their bits: the pipeline and the in-memory block
/// method compute the same ones (`tests/reference_bits.rs`).
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn scalapack(a: &Matrix) -> ScalapackRun {
    mrinv_scalapack::invert(
        a,
        4,
        &CostModel::ec2_medium(),
        &ScalapackConfig { block_size: 8 },
    )
    .unwrap()
}

#[test]
fn four_implementations_agree() {
    for seed in [5u64, 6, 7] {
        let a = random_invertible(56, seed);
        let mr = {
            let cluster = unit_cluster(4);
            Request::invert(&a)
                .config(&InversionConfig::with_nb(14))
                .submit(&cluster)
                .unwrap()
                .into_inverse()
        };
        let blocked = invert_block(&a, 14).unwrap();
        let single = invert_single_node(&a).unwrap();
        let scal = scalapack(&a).inverse;

        assert!(bits(&mr) == bits(&blocked), "MR vs block, seed {seed}");
        assert!(
            mr.approx_eq(&single, 1e-7),
            "MR vs single-node, seed {seed}"
        );
        assert!(mr.approx_eq(&scal, 1e-7), "MR vs ScaLAPACK, seed {seed}");
    }
}

#[test]
fn mr_factors_match_in_memory_block_factors() {
    // Same split points (nb), same pivot decisions => identical factors,
    // bit for bit.
    let a = random_invertible(64, 9);
    let cluster = unit_cluster(4);
    let out = mrinv::Request::lu(&a)
        .config(&InversionConfig::with_nb(16))
        .submit(&cluster)
        .unwrap()
        .into_factors();
    let reference = block_lu(&a, 16).unwrap();
    assert_eq!(out.perm, reference.perm, "identical pivot choices");
    assert!(bits(&out.l) == bits(&reference.l), "L differs");
    assert!(bits(&out.u) == bits(&reference.u), "U differs");
}

#[test]
fn blocked_scalapack_factors_match_classical_lu() {
    let a = random_invertible(48, 11);
    let grid = mrinv_scalapack::ProcessGrid::new(4, 8);
    let blocked = mrinv_scalapack::pdgetrf::pdgetrf(&a, &grid).unwrap();
    let classical = lu_decompose(&a).unwrap();
    assert_eq!(blocked.perm, classical.perm);
    assert!(blocked.l.approx_eq(&classical.unit_lower(), 1e-9));
    assert!(blocked.u.approx_eq(&classical.upper(), 1e-9));
}

#[test]
fn agreement_holds_on_ill_conditioned_but_invertible_inputs() {
    // A matrix with widely spread diagonal scales.
    let n = 40;
    let mut a = random_well_conditioned(n, 13);
    for i in 0..n {
        let s = 10f64.powi((i % 7) as i32 - 3);
        for j in 0..n {
            a[(i, j)] *= s;
        }
    }
    let cluster = unit_cluster(4);
    let mr = Request::invert(&a)
        .config(&InversionConfig::with_nb(10))
        .submit(&cluster)
        .unwrap()
        .into_inverse();
    let single = invert_single_node(&a).unwrap();
    // Looser tolerance: conditioning amplifies rounding differently across
    // algorithms.
    let diff = mr.max_abs_diff(&single).unwrap();
    let scale = single.max_norm();
    assert!(diff / scale < 1e-6, "relative diff {}", diff / scale);
}

#[test]
fn identity_inverts_to_identity_everywhere() {
    let a = Matrix::identity(32);
    let cluster = unit_cluster(4);
    let mr = Request::invert(&a)
        .config(&InversionConfig::with_nb(8))
        .submit(&cluster)
        .unwrap()
        .into_inverse();
    assert!(mr.approx_eq(&a, 1e-12));
    assert!(invert_block(&a, 8).unwrap().approx_eq(&a, 1e-12));
    assert!(scalapack(&a).inverse.approx_eq(&a, 1e-12));
}

#[test]
fn all_reject_singular_inputs() {
    let mut a = random_well_conditioned(24, 17);
    let row = a.row(1).to_vec();
    a.row_mut(20).copy_from_slice(&row); // duplicate row => singular
    let cluster = unit_cluster(2);
    assert!(Request::invert(&a)
        .config(&InversionConfig::with_nb(6))
        .submit(&cluster)
        .is_err());
    assert!(invert_block(&a, 6).is_err());
    assert!(invert_single_node(&a).is_err());
    assert!(mrinv_scalapack::invert(
        &a,
        4,
        &CostModel::ec2_medium(),
        &ScalapackConfig { block_size: 8 }
    )
    .is_err());
}
