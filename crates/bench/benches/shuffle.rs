//! Shuffle microbench: the new shuffle/reduce data path (map-side
//! per-reducer buckets, reducer-parallel merge-and-sort, borrowed group
//! slices) against the pre-PR path (single-threaded loop over every
//! emitted pair, then a `v.clone()` of every group's values before each
//! reduce call).
//!
//! Two workloads (see `mrinv_bench::micro`):
//! * `control` — tiny `u64` pairs, isolating the shuffle's sort
//!   parallelism (wins only with >1 core);
//! * `blocks` — `Vec<u64>` payloads, where the old path's per-group value
//!   cloning costs real wall-clock on any core count.
//!
//! Besides the criterion groups, the bench samples each path (best of 3)
//! and writes a `mrinv-bench/v1` baseline to `BENCH_pr3.json` at the
//! repository root. Neither ratio is tracked by `repro bench-check`.

use criterion::{criterion_group, criterion_main, Criterion};
use mrinv_bench::micro::{
    block_outputs, consume_blocks, consume_u64, control_outputs, measure_shuffle, shuffle_new_path,
    shuffle_old_path, BLOCK_LEN, BLOCK_PAIRS, CONTROL_PAIRS, SHUFFLE_REDUCERS, SHUFFLE_TASKS,
};
use mrinv_bench::schema::{baseline_path, BenchFile};
use std::hint::black_box;

fn bench_shuffle(c: &mut Criterion) {
    let control = control_outputs();
    let blocks = block_outputs();
    let mut group = c.benchmark_group("shuffle");
    group.sample_size(10);
    group.bench_function("control/old_single_thread", |b| {
        b.iter(|| shuffle_old_path(black_box(&control), consume_u64))
    });
    group.bench_function("control/new_parallel", |b| {
        b.iter(|| shuffle_new_path(black_box(&control), consume_u64))
    });
    group.bench_function("blocks/old_clone_groups", |b| {
        b.iter(|| shuffle_old_path(black_box(&blocks), consume_blocks))
    });
    group.bench_function("blocks/new_borrowed_groups", |b| {
        b.iter(|| shuffle_new_path(black_box(&blocks), consume_blocks))
    });
    group.finish();

    write_sample();
}

#[derive(serde::Serialize)]
struct ControlDetail {
    pairs_per_task: usize,
    old_single_thread_secs: f64,
    new_parallel_secs: f64,
}

#[derive(serde::Serialize)]
struct BlocksDetail {
    pairs_per_task: usize,
    block_len: usize,
    old_clone_groups_secs: f64,
    new_borrowed_groups_secs: f64,
}

#[derive(serde::Serialize)]
struct ShuffleDetail {
    tasks: usize,
    reducers: usize,
    control: ControlDetail,
    blocks: BlocksDetail,
}

/// One wall-clock sample per path and workload (best of 3), saved as a
/// `mrinv-bench/v1` file to `BENCH_pr3.json`.
fn write_sample() {
    let s = measure_shuffle();
    let mut file = BenchFile::new("shuffle");
    // Recorded, not regression-tracked: both are ratios of two 10-20 ms
    // timings against `shuffle_old_path`, a frozen copy of code the
    // library no longer has, and the ratio alone moves more than
    // `bench-check`'s tolerance between runs of unchanged code. The live
    // shuffle number is `e2e`'s `shuffle.mpairs_s`.
    file.push_metric("control_speedup", s.control_speedup(), "ratio", false);
    file.push_metric("blocks_speedup", s.blocks_speedup(), "ratio", false);
    file.detail = serde_json::to_value(&ShuffleDetail {
        tasks: SHUFFLE_TASKS,
        reducers: SHUFFLE_REDUCERS,
        control: ControlDetail {
            pairs_per_task: CONTROL_PAIRS,
            old_single_thread_secs: s.control_old,
            new_parallel_secs: s.control_new,
        },
        blocks: BlocksDetail {
            pairs_per_task: BLOCK_PAIRS,
            block_len: BLOCK_LEN,
            old_clone_groups_secs: s.blocks_old,
            new_borrowed_groups_secs: s.blocks_new,
        },
    });

    let path = baseline_path("BENCH_pr3.json");
    if let Err(e) = file.save(&path) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!(
            "shuffle sample on {} cores: control {:.2}x, blocks {:.2}x -> BENCH_pr3.json",
            file.cores,
            s.control_speedup(),
            s.blocks_speedup()
        );
    }
}

criterion_group!(benches, bench_shuffle);
criterion_main!(benches);
