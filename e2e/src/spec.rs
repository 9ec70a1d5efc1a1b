//! What the benchmark runs and what it reports: the four workloads with
//! their frozen round counts, and every metric name with its unit.
//!
//! `BENCHMARK.json` at the repository root declares the same names;
//! `tests/smoke.rs` keeps the two equal.

/// Length of one measured run in seconds on the commit that defined the
/// benchmark; `BENCHMARK.json`'s `run_seconds`. The frozen round counts
/// below were calibrated against it.
pub const RUN_SECONDS: u64 = 15;

/// A run that takes longer than this multiple of its share of
/// `--seconds` stops early and counts the rounds it skipped as failed.
pub const HARD_CAP: f64 = 2.0;

/// Rounds a section of the traced run gets when it is not the
/// workload's own (it only fills in that layer's metrics).
pub const PROBE_ROUNDS: usize = 3;

/// Simulated cluster size of every workload (`--nodes 4`).
pub const NODES: usize = 4;

/// Which driver runs a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `Request::invert` / `Request::solve` on a fresh cluster.
    Lib,
    /// `mrinv` subprocesses on text files.
    Cli,
    /// One `ServiceClient` against an in-process `ServerHandle`.
    Serve,
}

/// One workload. A round is a fixed list of operations; `rounds` of them
/// make one run of [`RUN_SECONDS`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Permanent name.
    pub name: &'static str,
    /// Driver.
    pub kind: Kind,
    /// Matrix order.
    pub n: usize,
    /// Block bound.
    pub nb: usize,
    /// Measured rounds in a full run, both passes together (even).
    pub rounds: usize,
    /// Unmeasured rounds at the end of set-up; sized so set-up takes at
    /// least a second and start-up jitter stays a small share of it.
    pub warmup: usize,
    /// Operations in one round.
    pub ops_per_round: usize,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
}

/// The four workloads. Round counts are frozen: a faster build finishes
/// sooner, it is not handed more rounds (the server's cache and DFS grow
/// with every cold invert, so a time-boxed loop would not compare like
/// with like).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lib-wide",
        kind: Kind::Lib,
        n: 768,
        nb: 96,
        rounds: 40,
        warmup: 2,
        ops_per_round: 2,
        why: "cold invert+solve n=768 nb=96: 9 jobs, task bodies (GEMM, triangular, LU) are ~94% of wall, so a kernel gain shows and a framework change does not",
    },
    Workload {
        name: "lib-deep",
        kind: Kind::Lib,
        n: 384,
        nb: 8,
        rounds: 198,
        warmup: 12,
        ops_per_round: 2,
        why: "cold invert+solve n=384 nb=8: 65 jobs, 516 tasks, 16x DFS read amplification; per-job/per-task runner, scheduler, driver and codec cost dominate",
    },
    Workload {
        name: "cli-text",
        kind: Kind::Cli,
        n: 512,
        nb: 64,
        rounds: 34,
        warmup: 2,
        ops_per_round: 3,
        why: "mrinv invert / solve / invert --backend tcp:2 subprocesses on text files n=512: process start and text decode/encode are ~45% of what a batch user waits for",
    },
    Workload {
        name: "serve-mixed",
        kind: Kind::Serve,
        n: 256,
        nb: 32,
        rounds: 22,
        warmup: 2,
        ops_per_round: 10,
        why: "one ServiceClient, n=256: 1 cold invert + 5 warm inverts + 4 warm solves per round; wire framing, bincode, cache_key and the FactorCache hit path do the work",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rounds of a full run of `seconds`: the frozen count scaled linearly,
/// kept even so the two passes split it exactly.
pub fn rounds_for(w: &Workload, seconds: u64) -> usize {
    let scaled = (w.rounds as f64 * seconds as f64 / RUN_SECONDS as f64).round() as usize;
    scaled.max(2).div_ceil(2) * 2
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: 0.0,
    }
}

/// The five end-to-end metrics; every workload reports all of them from
/// an untraced run.
///
/// The latency bounds are 0.25, not the 0.10 the issue hoped for. On the
/// defining box the host switches between speed levels about 1.17x apart
/// every second or two, which spreads ten full runs by 3-7 % of their
/// median (`results/aa-seed.json`), and it drifts by up to 18 % over
/// tens of minutes (`lib-wide` invert p25 read 224 ms and 265 ms half an
/// hour apart on one build). A bound has to be wider than both before it
/// tells a change from the box's mood. Memory repeats within 0.3 %.
pub const END_TO_END: [Metric; 5] = [
    gated("setup_s", "s", 0.25),
    gated("invert_ms_p25", "ms", 0.25),
    gated("solve_ms_p25", "ms", 0.25),
    gated("round_ms_p25", "ms", 0.25),
    gated("peak_rss_mb", "MB", 0.05),
];

/// The 54 per-layer metrics of a traced run, grouped by the layer
/// (module) they measure. Ungated.
pub const PER_LAYER: [Metric; 54] = [
    // core.request, mapreduce.runner / scheduler / driver
    lower("request.jobs", "count"),
    lower("request.tasks", "count"),
    lower("request.task_body_ms", "ms"),
    lower("request.master_ms", "ms"),
    lower("runner.self_ms", "ms"),
    lower("runner.self_per_job_us", "us"),
    lower("runner.self_share", "ratio"),
    lower("stage.partition_ms", "ms"),
    lower("stage.lu_ms", "ms"),
    lower("stage.tri_inv_ms", "ms"),
    lower("inmem.single_node_ms", "ms"),
    lower("request.overhead_x", "ratio"),
    lower("obs.trace_overhead_frac", "ratio"),
    // matrix.kernel, matrix.triangular, matrix.lu
    lower("kernel.gemm_ms", "ms"),
    lower("kernel.gemm_calls", "count"),
    lower("kernel.gflop", "GFLOP"),
    lower("kernel.gemm_share", "ratio"),
    higher("kernel.gemm_gflops_384", "GFLOP/s"),
    higher("kernel.gemm_gflops_32", "GFLOP/s"),
    higher("kernel.trsm_gflops_384", "GFLOP/s"),
    higher("triangular.invert_lower_mflops_384", "MFLOP/s"),
    higher("triangular.row_solve_mflops_384", "MFLOP/s"),
    higher("lu.leaf_mflops_96", "MFLOP/s"),
    // matrix.io
    higher("io.bin_encode_mbps", "MB/s"),
    higher("io.bin_decode_mbps", "MB/s"),
    higher("io.text_encode_mbps", "MB/s"),
    higher("io.text_decode_mbps", "MB/s"),
    // mapreduce.dfs
    lower("dfs.read_mb", "MB"),
    lower("dfs.write_mb", "MB"),
    lower("dfs.files", "count"),
    lower("dfs.read_amplification", "ratio"),
    higher("dfs.read_gbps", "GB/s"),
    higher("dfs.write_gbps", "GB/s"),
    higher("dfs.small_read_kops", "kop/s"),
    // mapreduce.shuffle
    lower("shuffle.bytes", "B"),
    higher("shuffle.mpairs_s", "Mpair/s"),
    // core.cache
    lower("cache.key_ms_256", "ms"),
    lower("cache.hit_invert_ms_256", "ms"),
    lower("cache.hit_solve_ms_256", "ms"),
    higher("cache.hit_ratio", "ratio"),
    // core.service, core.client
    lower("wire.connect_ms", "ms"),
    lower("wire.cold_invert_ms", "ms"),
    lower("wire.warm_overhead_ms", "ms"),
    lower("wire.bytes_per_payload_byte", "ratio"),
    higher("wire.bincode_ser_mbps", "MB/s"),
    higher("wire.bincode_de_mbps", "MB/s"),
    lower("serve.rss_per_cold_kb", "KB"),
    // mapreduce.exec.tcp
    lower("exec_tcp.spawn_ms", "ms"),
    lower("exec_tcp.task_overhead_us", "us"),
    lower("cli.tcp_invert_ms", "ms"),
    // core.cli
    lower("cli.startup_ms", "ms"),
    lower("cli.gen_ms", "ms"),
    lower("cli.text_share", "ratio"),
    higher("cli.invert_speedup_2t", "ratio"),
];
