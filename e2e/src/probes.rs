//! Layer probes of a traced run: short timed calls into one layer's
//! public functions, on fixed sizes (kernels, DFS, shuffle) or on an
//! input of the workload's order (the codecs). They answer "did this
//! layer get faster" when a workload's end-to-end number moves.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use mrinv_mapreduce::job::hash_partitioner;
use mrinv_mapreduce::shuffle::{parallel_shuffle, partition_pairs};
use mrinv_mapreduce::Dfs;
use mrinv_matrix::io::{binary_size, decode_binary, decode_text, encode_binary, encode_text};
use mrinv_matrix::kernel::{Diag, Side, Uplo};
use mrinv_matrix::lu::{lu_decompose, lu_flops};
use mrinv_matrix::random::{
    random_matrix, random_unit_lower, random_upper, random_well_conditioned,
};
use mrinv_matrix::triangular::{invert_lower, solve_row_times_upper, tri_inv_flops};
use mrinv_matrix::{gemm, gemm_flops, notrans, trsm, Matrix};

use crate::span::Recorder;
use crate::stats::median;

/// Times `reps` calls of `f`, each doing `inner` repetitions of the
/// work, and returns the median seconds per repetition. One span per
/// call.
pub fn secs_per_rep(
    rec: &mut Recorder,
    name: &str,
    cat: &'static str,
    reps: usize,
    inner: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        let d = t.elapsed();
        rec.leaf(name, cat, t, d);
        secs.push(d.as_secs_f64() / inner as f64);
    }
    median(&secs)
}

/// Runs every probe; `n` is the workload's matrix order. Returns metric
/// name → value.
pub fn run(n: usize, rec: &mut Recorder) -> BTreeMap<String, f64> {
    let span = rec.enter("layer probes", "harness");
    let mut out = BTreeMap::new();
    kernels(rec, &mut out);
    codecs(n, rec, &mut out);
    dfs(rec, &mut out);
    shuffle(rec, &mut out);
    rec.exit(span);
    out
}

fn kernels(rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    for (order, inner, name) in [
        (384usize, 1usize, "kernel.gemm_gflops_384"),
        (32, 400, "kernel.gemm_gflops_32"),
    ] {
        let a = random_matrix(order, order, 11);
        let b = random_matrix(order, order, 12);
        let mut c = Matrix::zeros(order, order);
        let s = secs_per_rep(rec, "gemm", "matrix.kernel", 5, inner, || {
            gemm(1.0, notrans(black_box(&a)), notrans(&b), 0.0, &mut c).expect("shapes agree");
        });
        black_box(&c);
        put(name, gemm_flops(order, order, order) as f64 / s / 1e9);
    }

    let order = 384;
    let lower = random_unit_lower(order, 13);
    let rhs = random_matrix(order, order, 14);
    let s = secs_per_rep(rec, "trsm", "matrix.kernel", 5, 1, || {
        let mut x = rhs.clone();
        trsm(
            Side::Left,
            Uplo::Lower,
            Diag::Unit,
            1.0,
            black_box(&lower),
            &mut x,
        )
        .expect("unit-lower solve");
        black_box(x);
    });
    // n²·m multiply-adds for m right-hand sides.
    put(
        "kernel.trsm_gflops_384",
        (order * order * order) as f64 / s / 1e9,
    );

    let s = secs_per_rep(rec, "invert_lower", "matrix.triangular", 5, 1, || {
        black_box(invert_lower(black_box(&lower)).expect("unit-lower inverts"));
    });
    put(
        "triangular.invert_lower_mflops_384",
        tri_inv_flops(order) as f64 / s / 1e6,
    );

    let upper = random_upper(order, 15);
    let row = random_matrix(1, order, 16).into_vec();
    let s = secs_per_rep(
        rec,
        "solve_row_times_upper",
        "matrix.triangular",
        5,
        40,
        || {
            black_box(solve_row_times_upper(black_box(&upper), &row).expect("upper solve"));
        },
    );
    // One multiply-add per entry of the triangle.
    put(
        "triangular.row_solve_mflops_384",
        (order * order) as f64 / s / 1e6,
    );

    let leaf = random_well_conditioned(96, 17);
    let s = secs_per_rep(rec, "lu_decompose", "matrix.lu", 5, 20, || {
        black_box(lu_decompose(black_box(&leaf)).expect("leaf factors"));
    });
    put("lu.leaf_mflops_96", lu_flops(96) as f64 / s / 1e6);
}

fn codecs(n: usize, rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    let m = random_well_conditioned(n, 21);
    let bin = encode_binary(&m);
    let text = encode_text(&m);
    let bin_mb = binary_size(n, n) as f64 / 1e6;
    let text_mb = text.len() as f64 / 1e6;
    let mut rate = |name: &str, label: &str, mb: f64, f: &mut dyn FnMut()| {
        let s = secs_per_rep(rec, label, "matrix.io", 5, 1, f);
        out.insert(name.to_string(), mb / s);
    };
    rate("io.bin_encode_mbps", "encode_binary", bin_mb, &mut || {
        black_box(encode_binary(black_box(&m)));
    });
    rate("io.bin_decode_mbps", "decode_binary", bin_mb, &mut || {
        black_box(decode_binary(black_box(&bin)).expect("own encoding decodes"));
    });
    rate("io.text_encode_mbps", "encode_text", text_mb, &mut || {
        black_box(encode_text(black_box(&m)));
    });
    rate("io.text_decode_mbps", "decode_text", text_mb, &mut || {
        black_box(decode_text(black_box(&text)).expect("own encoding decodes"));
    });
}

fn dfs(rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    const BIG: usize = 1 << 20;
    const SMALL: usize = 2 << 10;
    const FILES: usize = 64;
    let store = Dfs::with_nodes(3, crate::spec::NODES);
    let big = Bytes::from(vec![7u8; BIG]);
    let s = secs_per_rep(rec, "Dfs::write 1 MB", "mapreduce.dfs", 5, FILES, {
        let mut i = 0;
        let store = &store;
        let big = &big;
        move || {
            store.write(&format!("probe/big.{}", i % FILES), big.clone());
            i += 1;
        }
    });
    out.insert("dfs.write_gbps".to_string(), BIG as f64 / s / 1e9);
    let s = secs_per_rep(rec, "Dfs::read 1 MB", "mapreduce.dfs", 5, FILES, {
        let mut i = 0;
        let store = &store;
        move || {
            black_box(
                store
                    .read(&format!("probe/big.{}", i % FILES))
                    .expect("written above"),
            );
            i += 1;
        }
    });
    out.insert("dfs.read_gbps".to_string(), BIG as f64 / s / 1e9);
    for i in 0..FILES {
        store.write(&format!("probe/small.{i}"), Bytes::from(vec![3u8; SMALL]));
    }
    let s = secs_per_rep(rec, "Dfs::read 2 KB", "mapreduce.dfs", 5, 20 * FILES, {
        let mut i = 0;
        let store = &store;
        move || {
            black_box(
                store
                    .read(&format!("probe/small.{}", i % FILES))
                    .expect("written above"),
            );
            i += 1;
        }
    });
    out.insert("dfs.small_read_kops".to_string(), 1.0 / s / 1e3);
}

fn shuffle(rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    const TASKS: u64 = 8;
    const PAIRS: u64 = 25_000;
    const REDUCERS: usize = 4;
    let s = secs_per_rep(
        rec,
        "partition + shuffle",
        "mapreduce.shuffle",
        5,
        1,
        || {
            let buckets: Vec<_> = (0..TASKS)
                .map(|t| {
                    let pairs: Vec<(u64, u64)> = (0..PAIRS)
                        .map(|i| ((i * 2_654_435_761 + t) % 4096, i))
                        .collect();
                    partition_pairs(pairs, hash_partitioner::<u64>, REDUCERS)
                })
                .collect();
            black_box(parallel_shuffle(buckets, REDUCERS));
        },
    );
    out.insert(
        "shuffle.mpairs_s".to_string(),
        (TASKS * PAIRS) as f64 / s / 1e6,
    );
}
