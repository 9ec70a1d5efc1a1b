//! The pipeline computes the in-memory reference's bits: for one matrix
//! and one block bound `nb`, `Request::invert` returns exactly
//! `inmem::invert_block`'s inverse, `Request::lu` exactly
//! `inmem::block_lu`'s `L`, `U` and permutation, and `Request::solve`
//! exactly `back_substitution(U, forward_substitution(L, P·b))` over
//! those factors — cold, and again from the factor cache — word for
//! word, whatever
//! the cluster's node count and cost profile, the §6 optimization toggles
//! and the execution backend. The recursion is fixed by `nb`; the rest
//! only decides where the pieces run and how they are stored.
//!
//! This is what lets the factor cache key an entry by (matrix, `nb`)
//! alone. Both sides share the process's kernel backend, so the statement
//! holds per backend. A change that moves one rounding in the pipeline,
//! the reference or the kernels they share (a reordered accumulation, a
//! pool width that splits a product differently) fails here with the
//! first word that differs; a change meant to move the bits has to say by
//! how much.

use std::sync::Arc;

use mrinv::inmem::{block_lu, invert_block};
use mrinv::{CacheStatus, FactorCache, InversionConfig, LuFactors, Optimizations, Request};
use mrinv_mapreduce::{Cluster, ClusterConfig, TcpWorkers, TcpWorkersConfig};
use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::triangular::{back_substitution, forward_substitution};
use mrinv_matrix::Matrix;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_mrinv-worker");

/// (n, nb): nb dividing n down to the leaves, nb not dividing n (odd
/// splits), nb ≥ n (one leaf), and a depth-4 recursion.
const SHAPES: [(usize, usize); 5] = [(64, 4), (50, 7), (37, 64), (130, 16), (96, 8)];

/// Node counts: one node, fewer nodes than leaves, and more.
const NODES: [usize; 4] = [1, 3, 4, 8];

/// All 8 combinations of the §6 toggles.
fn every_toggle() -> Vec<Optimizations> {
    (0..8)
        .map(|bits: u8| Optimizations {
            separate_intermediate_files: bits & 1 != 0,
            block_wrap: bits & 2 != 0,
            transpose_u: bits & 4 != 0,
        })
        .collect()
}

/// The first word at which two matrices differ, as its (row, col) and the
/// two values (`{:e}` prints the shortest text that parses back to each),
/// or a shape mismatch.
fn first_difference(x: &Matrix, y: &Matrix) -> Option<String> {
    if (x.rows(), x.cols()) != (y.rows(), y.cols()) {
        return Some(format!(
            "shape {}x{} vs {}x{}",
            x.rows(),
            x.cols(),
            y.rows(),
            y.cols()
        ));
    }
    let cols = x.cols().max(1);
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .position(|(a, b)| a.to_bits() != b.to_bits())
        .map(|k| {
            let (a, b) = (x.as_slice()[k], y.as_slice()[k]);
            format!("({}, {}): {a:e} vs {b:e}", k / cols, k % cols)
        })
}

/// Panics naming `what` and the first differing word unless `got` is
/// `want` bit for bit.
fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
    if let Some(diff) = first_difference(got, want) {
        panic!("{what}: differs at {diff}");
    }
}

/// `invert` and `lu` of `a` under `cfg` on `cluster`, against the
/// reference inverse and factors.
fn assert_matches_reference(
    cluster: &Cluster,
    a: &Matrix,
    cfg: &InversionConfig,
    inverse: &Matrix,
    factors: &LuFactors,
    what: &str,
) {
    let out = Request::invert(a).config(cfg).submit(cluster).unwrap();
    assert_bits(out.inverse().unwrap(), inverse, &format!("{what}: inverse"));
    let lu = Request::lu(a)
        .config(cfg)
        .submit(cluster)
        .unwrap()
        .into_factors();
    assert_eq!(lu.perm, factors.perm, "{what}: permutation");
    assert_bits(&lu.l, &factors.l, &format!("{what}: L"));
    assert_bits(&lu.u, &factors.u, &format!("{what}: U"));
}

/// The reference solution of `A·x = b` from `factors`: `P·b`, forward,
/// back.
fn reference_solve(factors: &LuFactors, b: &[f64]) -> Vec<f64> {
    let pb: Vec<f64> = (0..b.len()).map(|i| b[factors.perm.source_of(i)]).collect();
    back_substitution(&factors.u, &forward_substitution(&factors.l, &pb).unwrap()).unwrap()
}

/// Panics naming `what` and the first differing entry unless `got` is
/// `want` bit for bit.
fn assert_vec_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(k) = (0..got.len()).find(|&k| got[k].to_bits() != want[k].to_bits()) {
        panic!("{what}: differs at {k}: {:e} vs {:e}", got[k], want[k]);
    }
}

/// `solve` of `a` under `cfg` on `cluster` against the reference
/// solutions: a cold solve that primes a cache, a hit on it, and a hit
/// on a cache an invert primed (so the hit is the one that reads the
/// factors back).
fn assert_solves_match_reference(
    cluster: &Cluster,
    a: &Matrix,
    cfg: &InversionConfig,
    factors: &LuFactors,
    what: &str,
) {
    let n = a.rows();
    let mut unit = vec![0.0; n];
    unit[n - 1] = 1.0;
    let rhs = [random_matrix(n, 1, n as u64 + 17).into_vec(), unit];
    let want: Vec<Vec<f64>> = rhs.iter().map(|b| reference_solve(factors, b)).collect();
    let solve = |cache: &FactorCache, status: CacheStatus| {
        let out = Request::solve(a)
            .rhs_all(rhs.iter().cloned())
            .config(cfg)
            .cache(cache)
            .submit(cluster)
            .unwrap();
        assert_eq!(out.cache, status, "{what}");
        for (k, (got, want)) in out.solutions().iter().zip(&want).enumerate() {
            assert_vec_bits(got, want, &format!("{what}: {status:?} solve {k}"));
        }
    };
    let solved = FactorCache::new();
    solve(&solved, CacheStatus::Miss);
    solve(&solved, CacheStatus::Hit);
    let inverted = FactorCache::new();
    Request::invert(a)
        .config(cfg)
        .cache(&inverted)
        .submit(cluster)
        .unwrap();
    solve(&inverted, CacheStatus::Hit);
}

/// Every shape, on 1, 3, 4 and 8 nodes of both cost profiles, under all 8
/// toggle combinations: 320 configurations, each an invert and an LU.
#[test]
fn the_pipeline_computes_the_in_memory_references_bits() {
    let toggles = every_toggle();
    for (n, nb) in SHAPES {
        let a = random_well_conditioned(n, (n * 1000 + nb) as u64);
        let inverse = invert_block(&a, nb).unwrap();
        let factors = block_lu(&a, nb).unwrap();
        for m0 in NODES {
            for (profile, config) in [
                (
                    "medium",
                    ClusterConfig::medium as fn(usize) -> ClusterConfig,
                ),
                ("large", ClusterConfig::large),
            ] {
                for opts in &toggles {
                    let cluster = Cluster::new(config(m0));
                    let cfg = InversionConfig { nb, opts: *opts };
                    let what = format!("n={n} nb={nb} m0={m0} {profile} {opts:?}");
                    assert_matches_reference(&cluster, &a, &cfg, &inverse, &factors, &what);
                }
            }
        }
    }
}

/// Every shape under all 8 toggles, on one medium node and on four large
/// ones: 80 configurations, each a cold solve and two cache-hit solves of
/// two right-hand sides (a random one and the last unit vector).
#[test]
fn solves_compute_the_in_memory_factors_substitution_bits() {
    let toggles = every_toggle();
    for (n, nb) in SHAPES {
        let a = random_well_conditioned(n, (n * 1000 + nb) as u64);
        let factors = block_lu(&a, nb).unwrap();
        for (m0, profile, config) in [
            (
                1,
                "medium",
                ClusterConfig::medium as fn(usize) -> ClusterConfig,
            ),
            (4, "large", ClusterConfig::large),
        ] {
            for opts in &toggles {
                let cluster = Cluster::new(config(m0));
                let cfg = InversionConfig { nb, opts: *opts };
                let what = format!("n={n} nb={nb} m0={m0} {profile} {opts:?}");
                assert_solves_match_reference(&cluster, &a, &cfg, &factors, &what);
            }
        }
    }
}

/// The same bits when every task attempt runs in one of two real worker
/// processes over TCP.
#[test]
fn two_tcp_workers_compute_the_in_memory_references_bits() {
    let mut cluster = Cluster::new(ClusterConfig::medium(4));
    let backend = TcpWorkers::spawn(TcpWorkersConfig::new(2, WORKER_BIN)).expect("spawn workers");
    backend.attach_dfs(cluster.dfs.clone());
    cluster.set_backend(Arc::new(backend));
    cluster.set_registry(Arc::new(mrinv::exec_registry()));
    for (n, nb) in [(64, 4), (50, 7)] {
        let a = random_well_conditioned(n, (n * 1000 + nb) as u64);
        let inverse = invert_block(&a, nb).unwrap();
        let factors = block_lu(&a, nb).unwrap();
        let cfg = InversionConfig::with_nb(nb);
        let what = format!("n={n} nb={nb} tcp:2");
        assert_matches_reference(&cluster, &a, &cfg, &inverse, &factors, &what);
        assert_solves_match_reference(&cluster, &a, &cfg, &factors, &what);
    }
}
