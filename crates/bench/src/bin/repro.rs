//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--scale S] [--nodes a,b,c] [--no-scalapack]
//!
//! experiments:
//!   table1     LU-stage I/O: theory vs measured vs ScaLAPACK model
//!   table2     inversion-stage I/O: theory vs measured vs ScaLAPACK model
//!   table3     the matrix suite: sizes and exact pipeline job counts
//!   fig6       strong scalability of M1-M3 vs ideal
//!   fig7       optimization ablations (separate files / block wrap /
//!              transposed U)
//!   fig8       T_ScaLAPACK / T_ours for M1-M3
//!   sec74      the very large matrix M4: both cluster shapes, failure
//!              injection, and the Section 7.5 ScaLAPACK comparison
//!   sec74-node the node-granularity fault run: a whole node dies
//!              mid-wave (completed map outputs lost and re-executed), a
//!              degraded node is evicted by the task timeout, and the
//!              inverse still matches the clean run bit for bit
//!   accuracy   max |I - M*M^-1| over the suite (paper threshold 1e-5)
//!   nb-sweep   ablation: the Section 5 bound-value (nb) tuning curve
//!   spark      Section 8 projection: Spark-style in-memory pricing
//!   section2   the Section 2 method comparison, executable
//!   stragglers heterogeneous nodes vs speculative execution (7.4's EC2
//!              variance observation)
//!   resume     driver-crash recovery: kill a checkpointed pipeline after
//!              every job prefix, resume from the manifest, report saved
//!              vs redone simulated time
//!   obs-check  quick observability gate: a traced n=64/nb=4 inversion
//!              must export valid Prometheus text and a cost-model audit
//!              whose residuals stay under the pinned threshold, and leave
//!              only its factor forest and RESULT/ live in the DFS
//!   gemm-par-check ordering gate: on >= 2 cores with >= 2 effective pool
//!              threads, packed-parallel GEMM must not be slower than
//!              packed-serial at n >= 256 (skips on single-core boxes)
//!   all        everything above except the check gates
//! ```
//!
//! Results print as aligned tables and also land in `results/<exp>.csv`.
//! `--scale` divides every matrix order and `nb` by a power of two
//! (default 32); the pipeline structure and job counts are identical at
//! every scale, and times are extrapolated back to paper scale (see
//! `crates/bench/src/experiments.rs`). Simulated time prices each task's
//! counted flops and bytes, never the host's clock, so every experiment
//! but `section2` (wall time by definition) prints the same bytes and
//! writes the same CSV on every run, on any machine; each figure is one
//! run.

use mrinv_bench::experiments::{
    accuracy, fig6, fig7, fig8, nb_sweep, resume_recovery, sec74, sec74_node, sec8_spark,
    section2_methods, stragglers, table1, table2, table3,
};
use mrinv_bench::suite::SuiteMatrix;
use mrinv_bench::{write_csv, write_results_file};
use mrinv_matrix::kernel::{gemm_with, notrans, Packed};
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::Matrix;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug)]
struct Args {
    experiment: String,
    scale: usize,
    nodes: Vec<usize>,
    with_scalapack: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        scale: 32,
        nodes: vec![],
        with_scalapack: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a power-of-two integer"));
            }
            "--nodes" => {
                let list = it
                    .next()
                    .unwrap_or_else(|| die("--nodes needs a list like 4,16,64"));
                args.nodes = list
                    .split(',')
                    .map(|v| v.parse().unwrap_or_else(|_| die("bad --nodes entry")))
                    .collect();
            }
            "--no-scalapack" => args.with_scalapack = false,
            other if args.experiment.is_empty() && !other.starts_with('-') => {
                args.experiment = other.to_string();
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if args.experiment.is_empty() {
        die(&usage());
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

type Runner = fn(&Args);

/// Every experiment: its name, its runner and whether `all` includes it.
/// The usage line, the dispatch and `all` (in this order) all read this
/// one table.
const EXPERIMENTS: &[(&str, Runner, bool)] = &[
    ("table3", run_table3, true),
    ("accuracy", run_accuracy, true),
    ("section2", run_section2, true),
    ("table1", run_table1, true),
    ("table2", run_table2, true),
    ("fig6", run_fig6, true),
    ("fig7", run_fig7, true),
    ("fig8", run_fig8, true),
    ("sec74", run_sec74, true),
    ("sec74-node", run_sec74_node, true),
    ("nb-sweep", run_nb_sweep, true),
    ("spark", run_spark, true),
    ("stragglers", run_stragglers, true),
    ("resume", run_resume, true),
    ("obs-check", run_obs_check, false),
    ("gemm-par-check", run_gemm_par_check, false),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _, _)| name).collect();
    format!(
        "usage: repro <{}|all> [--scale S] [--nodes a,b,c] [--no-scalapack]",
        names.join("|")
    )
}

fn main() {
    let args = parse_args();
    if args.experiment == "all" {
        for &(_, run, in_all) in EXPERIMENTS {
            if in_all {
                run(&args);
            }
        }
        return;
    }
    match EXPERIMENTS
        .iter()
        .find(|&&(name, _, _)| name == args.experiment)
    {
        Some(&(_, run, _)) => run(&args),
        None => die(&format!(
            "unknown experiment {:?}\n{}",
            args.experiment,
            usage()
        )),
    }
}

fn nodes_or(args: &Args, default: &[usize]) -> Vec<usize> {
    if args.nodes.is_empty() {
        default.to_vec()
    } else {
        args.nodes.clone()
    }
}

fn run_table1(args: &Args) {
    let m = SuiteMatrix::by_name("M5").unwrap();
    let m0s = nodes_or(args, &[4, 16, 64]);
    println!(
        "\n== Table 1: LU decomposition cost in elements (n = {}, scale 1/{}) ==",
        m.order(args.scale),
        args.scale
    );
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "m0", "write(theory)", "write(meas)", "read(theory)", "read(meas)", "scal transfer"
    );
    let rows = table1(&m, args.scale, &m0s);
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:>5} {:>14.3e} {:>14.3e} {:>14.3e} {:>14.3e} {:>16.3e}",
            r.m0,
            r.theory_writes,
            r.measured_writes,
            r.theory_reads,
            r.measured_reads,
            r.scalapack_transfer
        );
        csv.push(format!(
            "{},{},{},{},{},{}",
            r.m0,
            r.theory_writes,
            r.measured_writes,
            r.theory_reads,
            r.measured_reads,
            r.scalapack_transfer
        ));
    }
    let path = write_csv(
        "table1",
        "m0,write_theory,write_measured,read_theory,read_measured,scalapack_transfer",
        &csv,
    )
    .unwrap();
    println!("-> {path}");
}

fn run_table2(args: &Args) {
    let m = SuiteMatrix::by_name("M5").unwrap();
    let m0s = nodes_or(args, &[4, 16, 64]);
    println!(
        "\n== Table 2: triangular inversion + product cost in elements (n = {}, scale 1/{}) ==",
        m.order(args.scale),
        args.scale
    );
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "m0", "write(theory)", "write(meas)", "read(theory)", "read(meas)", "scal transfer"
    );
    let rows = table2(&m, args.scale, &m0s);
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:>5} {:>14.3e} {:>14.3e} {:>14.3e} {:>14.3e} {:>16.3e}",
            r.m0,
            r.theory_writes,
            r.measured_writes,
            r.theory_reads,
            r.measured_reads,
            r.scalapack_transfer
        );
        csv.push(format!(
            "{},{},{},{},{},{}",
            r.m0,
            r.theory_writes,
            r.measured_writes,
            r.theory_reads,
            r.measured_reads,
            r.scalapack_transfer
        ));
    }
    let path = write_csv(
        "table2",
        "m0,write_theory,write_measured,read_theory,read_measured,scalapack_transfer",
        &csv,
    )
    .unwrap();
    println!("-> {path}");
}

fn run_table3(args: &Args) {
    println!(
        "\n== Table 3: evaluation suite (sizes at paper scale; runs at 1/{}) ==",
        args.scale
    );
    println!(
        "{:>4} {:>8} {:>10} {:>9} {:>11} {:>6} {:>10}",
        "name", "order", "elems(B)", "text(GB)", "binary(GB)", "jobs", "run order"
    );
    let mut csv = Vec::new();
    for r in table3(args.scale) {
        println!(
            "{:>4} {:>8} {:>10.2} {:>9.0} {:>11.0} {:>6} {:>10}",
            r.name,
            r.full_order,
            r.elements_billion,
            r.text_gb,
            r.binary_gb,
            r.jobs,
            r.scaled_order
        );
        csv.push(format!(
            "{},{},{},{:.0},{:.0},{},{}",
            r.name,
            r.full_order,
            r.elements_billion,
            r.text_gb,
            r.binary_gb,
            r.jobs,
            r.scaled_order
        ));
    }
    let path = write_csv(
        "table3",
        "name,order,elements_billion,text_gb,binary_gb,jobs,run_order",
        &csv,
    )
    .unwrap();
    println!("(paper: jobs = 9 / 17 / 17 / 33 / 9)\n-> {path}");
}

fn run_fig6(args: &Args) {
    let nodes = nodes_or(args, &[1, 2, 4, 8, 16, 32, 64]);
    println!(
        "\n== Figure 6: strong scalability (extrapolated minutes, scale 1/{}) ==",
        args.scale
    );
    let points = fig6(args.scale, &nodes);
    let mut csv = Vec::new();
    for name in ["M1", "M2", "M3"] {
        let series: Vec<_> = points.iter().filter(|p| p.name == name).collect();
        let base = series
            .first()
            .map(|p| p.minutes * p.m0 as f64)
            .unwrap_or(0.0);
        println!("  {name}:");
        println!(
            "    {:>6} {:>12} {:>12} {:>9}",
            "nodes", "minutes", "ideal", "t/ideal"
        );
        for p in &series {
            let ideal = base / p.m0 as f64;
            println!(
                "    {:>6} {:>12.1} {:>12.1} {:>9.2}",
                p.m0,
                p.minutes,
                ideal,
                p.minutes / ideal
            );
            csv.push(format!("{},{},{},{}", p.name, p.m0, p.minutes, ideal));
        }
    }
    let path = write_csv("fig6", "matrix,nodes,minutes,ideal_minutes", &csv).unwrap();
    println!("-> {path}");
}

fn run_fig7(args: &Args) {
    let nodes = nodes_or(args, &[4, 8, 16, 32, 64]);
    println!(
        "\n== Figure 7: optimization ablations on M5 (T_unopt / T_opt, scale 1/{}) ==",
        args.scale
    );
    println!(
        "{:>6} {:>17} {:>12} {:>13}",
        "nodes", "separate-files", "block-wrap", "transposed-U"
    );
    let mut csv = Vec::new();
    for r in fig7(args.scale, &nodes) {
        println!(
            "{:>6} {:>17.2} {:>12.2} {:>13.2}",
            r.m0, r.separate_files_ratio, r.block_wrap_ratio, r.transpose_ratio
        );
        csv.push(format!(
            "{},{},{},{}",
            r.m0, r.separate_files_ratio, r.block_wrap_ratio, r.transpose_ratio
        ));
    }
    let path = write_csv(
        "fig7",
        "nodes,separate_files_ratio,block_wrap_ratio,transpose_ratio",
        &csv,
    )
    .unwrap();
    println!("(paper: separate-files and block-wrap up to ~1.3x; transposed U 2-3x)\n-> {path}");
}

fn run_fig8(args: &Args) {
    let nodes = nodes_or(args, &[4, 8, 16, 32, 64]);
    println!(
        "\n== Figure 8: T_ScaLAPACK / T_ours (scale 1/{}) ==",
        args.scale
    );
    println!(
        "{:>4} {:>6} {:>9} {:>14} {:>16}",
        "mat", "nodes", "ratio", "ours (min)", "scalapack (min)"
    );
    let mut csv = Vec::new();
    for p in fig8(args.scale, &nodes) {
        println!(
            "{:>4} {:>6} {:>9.2} {:>14.1} {:>16.1}",
            p.name, p.m0, p.ratio, p.ours_minutes, p.scalapack_minutes
        );
        csv.push(format!(
            "{},{},{},{},{}",
            p.name, p.m0, p.ratio, p.ours_minutes, p.scalapack_minutes
        ));
    }
    let path = write_csv(
        "fig8",
        "matrix,nodes,ratio,ours_minutes,scalapack_minutes",
        &csv,
    )
    .unwrap();
    println!("(paper: <1 at small scale, approaches/exceeds 1 at larger n and m0)\n-> {path}");
}

fn run_sec74(args: &Args) {
    println!(
        "\n== Section 7.4/7.5: very large matrix M4 (scale 1/{}) ==",
        args.scale
    );
    println!(
        "{:>32} {:>9} {:>6} {:>9}",
        "run", "hours", "jobs", "failures"
    );
    let result = sec74(args.scale, args.with_scalapack);
    let mut csv = Vec::new();
    for o in &result.outcomes {
        println!(
            "{:>32} {:>9.1} {:>6} {:>9}",
            o.label, o.hours, o.jobs, o.failures
        );
        csv.push(format!("{},{},{},{}", o.label, o.hours, o.jobs, o.failures));
    }
    let path = write_csv("sec74", "run,hours,jobs,failures", &csv).unwrap();
    let a = &result.failure_analytics;
    println!(
        "failure run (64-medium): {} retried attempt(s), {:.1} h of lost work, worst straggler ratio {:.2}",
        a.retried_attempts,
        a.lost_task_secs / 3600.0,
        a.worst_straggler_ratio()
    );
    let trace_path = write_results_file("sec74_trace.json", &result.failure_trace_json).unwrap();
    println!("failure-run timeline -> {trace_path} (open at ui.perfetto.dev or chrome://tracing)");
    println!("(paper: ours 5 h clean / 8 h with failure on 128-large, 15 h on 64-medium;");
    println!("        ScaLAPACK 8 h on 128-large, >48 h on 64-medium)\n-> {path}");
}

fn run_sec74_node(args: &Args) {
    println!(
        "\n== Section 7.4, node granularity: M4 on 64 medium (scale 1/{}) ==",
        args.scale
    );
    println!(
        "{:>36} {:>9} {:>6} {:>9}",
        "run", "hours", "jobs", "failures"
    );
    let result = sec74_node(args.scale);
    let mut csv = Vec::new();
    for o in &result.outcomes {
        println!(
            "{:>36} {:>9.1} {:>6} {:>9}",
            o.label, o.hours, o.jobs, o.failures
        );
        csv.push(format!("{},{},{},{}", o.label, o.hours, o.jobs, o.failures));
    }
    let path = write_csv("sec74_node", "run,hours,jobs,failures", &csv).unwrap();
    println!(
        "node {} died at t={:.0}s: {} in-flight attempt(s) lost, {} completed map output(s) lost and re-executed",
        result.victim, result.t_kill_secs, result.node_lost, result.output_lost
    );
    println!(
        "task timeout evicted {} attempt(s) from the degraded node; {} node-death marker(s) on the timeline",
        result.timeouts, result.death_markers
    );
    println!(
        "data-local map fraction {:.2}; max |clean - death| = {:e} (0 = bit-identical)",
        result.data_local_fraction, result.max_abs_diff
    );
    let a = &result.death_analytics;
    println!(
        "death run: {} retried attempt(s), {:.1} h of lost work, worst straggler ratio {:.2}",
        a.retried_attempts,
        a.lost_task_secs / 3600.0,
        a.worst_straggler_ratio()
    );
    let trace_path = write_results_file("sec74_node_trace.json", &result.death_trace_json).unwrap();
    println!("death-run timeline -> {trace_path} (open at ui.perfetto.dev or chrome://tracing)");
    println!("(paper: workers killed mid-run; the job re-executes lost tasks and still");
    println!("        finishes correctly, stretching 5 h to 8 h)\n-> {path}");
}

fn run_section2(args: &Args) {
    let n = (512 / (args.scale / 32).max(1)).max(64);
    let nb = (n / 8).max(4);
    println!("\n== Section 2: inversion method comparison (single node, n = {n}) ==");
    println!(
        "{:>18} {:>10} {:>12} {:>14} {:>10}",
        "method", "wall (ms)", "residual", "MR jobs @n", "scope"
    );
    let mut csv = Vec::new();
    for r in section2_methods(n, nb) {
        println!(
            "{:>18} {:>10.1} {:>12.2e} {:>14} {:>10}",
            r.method, r.wall_ms, r.residual, r.mr_jobs, r.scope
        );
        csv.push(format!(
            "{},{},{},{},{}",
            r.method, r.wall_ms, r.residual, r.mr_jobs, r.scope
        ));
    }
    let path = write_csv("section2", "method,wall_ms,residual,mr_jobs,scope", &csv).unwrap();
    println!("(the paper's argument: GJ/QR need ~n sequential jobs; block LU needs 2^ceil(log2(n/nb)))\n-> {path}");
}

fn run_stragglers(args: &Args) {
    println!(
        "\n== Stragglers: one slow node in 16, speculation off/on (M5, scale 1/{}) ==",
        args.scale
    );
    println!(
        "{:>12} {:>18} {:>18} {:>9}",
        "slow factor", "no-spec (min)", "speculation (min)", "saved"
    );
    let mut csv = Vec::new();
    for r in stragglers(args.scale, &[1.0, 0.5, 0.25, 0.1]) {
        let saved = 1.0 - r.speculation_minutes / r.no_speculation_minutes;
        println!(
            "{:>12.2} {:>18.1} {:>18.1} {:>8.0}%",
            r.slow_factor,
            r.no_speculation_minutes,
            r.speculation_minutes,
            saved * 100.0
        );
        csv.push(format!(
            "{},{},{}",
            r.slow_factor, r.no_speculation_minutes, r.speculation_minutes
        ));
    }
    let path = write_csv(
        "stragglers",
        "slow_factor,no_spec_minutes,spec_minutes",
        &csv,
    )
    .unwrap();
    println!(
        "(the paper notes high EC2 instance variance; speculation is Hadoop's answer)\n-> {path}"
    );
}

fn run_nb_sweep(args: &Args) {
    println!(
        "\n== Ablation: bound value nb sweep on M5, 64 nodes (Section 5 tuning, scale 1/{}) ==",
        args.scale
    );
    println!("{:>6} {:>6} {:>12}", "nb", "jobs", "minutes");
    let m5_order = 16384 / args.scale;
    let nbs: Vec<usize> = [16usize, 32, 64, 100, 128, 256, 512, 1024]
        .iter()
        .copied()
        .filter(|&nb| nb <= m5_order)
        .collect();
    let mut csv = Vec::new();
    for p in nb_sweep(args.scale, 64, &nbs) {
        println!("{:>6} {:>6} {:>12.1}", p.nb, p.jobs, p.minutes);
        csv.push(format!("{},{},{}", p.nb, p.jobs, p.minutes));
    }
    let path = write_csv("nb_sweep", "nb,jobs,minutes", &csv).unwrap();
    println!("(expected: U-shape — small nb pays job launches, large nb serializes on the master)\n-> {path}");
}

fn run_spark(args: &Args) {
    let nodes = nodes_or(args, &[4, 16, 64]);
    println!(
        "\n== Section 8 projection: Hadoop vs Spark-style in-memory pricing (scale 1/{}) ==",
        args.scale
    );
    println!(
        "{:>4} {:>6} {:>14} {:>14} {:>9}",
        "mat", "nodes", "hadoop (min)", "spark (min)", "speedup"
    );
    let mut csv = Vec::new();
    for p in sec8_spark(args.scale, &nodes) {
        println!(
            "{:>4} {:>6} {:>14.1} {:>14.1} {:>9.2}",
            p.name,
            p.m0,
            p.hadoop_minutes,
            p.spark_minutes,
            p.hadoop_minutes / p.spark_minutes
        );
        csv.push(format!(
            "{},{},{},{}",
            p.name, p.m0, p.hadoop_minutes, p.spark_minutes
        ));
    }
    let path = write_csv("spark", "matrix,nodes,hadoop_minutes,spark_minutes", &csv).unwrap();
    println!("(the paper expects Spark to win by keeping intermediates in memory)\n-> {path}");
}

fn run_resume(args: &Args) {
    println!(
        "\n== Driver-crash recovery: checkpoint + resume after every job prefix (scale 1/{}) ==",
        args.scale
    );
    println!(
        "{:>6} {:>6} {:>9} {:>9} {:>12} {:>12} {:>11} {:>10}",
        "kill@", "total", "restored", "re-run", "saved (s)", "redone (s)", "full (s)", "max diff"
    );
    let mut csv = Vec::new();
    let points = resume_recovery(args.scale);
    for p in &points {
        println!(
            "{:>6} {:>6} {:>9} {:>9} {:>12.1} {:>12.1} {:>11.1} {:>10.1e}",
            p.kill_after,
            p.total_jobs,
            p.restored_jobs,
            p.resumed_jobs,
            p.saved_sim_secs,
            p.redone_sim_secs,
            p.full_run_sim_secs,
            p.max_abs_diff
        );
        csv.push(format!(
            "{},{},{},{},{},{},{},{}",
            p.kill_after,
            p.total_jobs,
            p.restored_jobs,
            p.resumed_jobs,
            p.saved_sim_secs,
            p.redone_sim_secs,
            p.full_run_sim_secs,
            p.max_abs_diff
        ));
    }
    let path = write_csv(
        "resume",
        "kill_after,total_jobs,restored_jobs,resumed_jobs,saved_sim_secs,redone_sim_secs,full_run_sim_secs,max_abs_diff",
        &csv,
    )
    .unwrap();
    let identical = points.iter().all(|p| p.max_abs_diff == 0.0);
    println!(
        "(every resumed inverse bit-identical to the uninterrupted run: {})\n-> {path}",
        if identical { "yes" } else { "NO" }
    );
}

/// Quick observability gate (the CI fixture): a traced n=64/nb=4
/// inversion on 4 medium nodes must produce parseable Prometheus text
/// containing the task-latency histograms and kernel series, a
/// cost-model audit whose residuals stay under the pinned threshold, and
/// a DFS live-bytes gauge that holds only the run's products.
fn run_obs_check(_args: &Args) {
    use mrinv_mapreduce::{Cluster, ClusterConfig};

    println!("\n== Observability gate: n=64 nb=4 inversion, Prometheus + cost-model audit ==");
    let mut cfg = ClusterConfig::medium(4);
    cfg.tracing = true;
    cfg.observability = true;
    let cluster = Cluster::new(cfg);
    mrinv_matrix::kernel::perf::reset();
    mrinv_matrix::kernel::perf::set_enabled(true);
    let a = mrinv_matrix::random::random_well_conditioned(64, 42);
    let out = mrinv::Request::invert(&a)
        .config(&mrinv::InversionConfig::with_nb(4))
        .submit(&cluster)
        .unwrap_or_else(|e| die(&format!("obs-check inversion failed: {e}")));
    mrinv_matrix::kernel::perf::set_enabled(false);

    let mut failed = false;
    let snap = mrinv::obs::full_snapshot(&cluster);
    let text = snap.prometheus_text();
    match mrinv_mapreduce::obs::validate_prometheus_text(&text) {
        Ok(()) => println!("prometheus text: {} lines, valid", text.lines().count()),
        Err(e) => {
            println!("prometheus text INVALID: {e}");
            failed = true;
        }
    }
    for needle in [
        "mrinv_task_run_seconds_bucket{",
        "mrinv_kernel_gflops{backend=",
        "mrinv_job_seconds_count{",
        // Present (at 0) even when no backup won: the runner resolves the
        // steal counter unconditionally so dashboards never miss it.
        "mrinv_sched_steals_total{",
    ] {
        if !text.contains(needle) {
            println!("prometheus text MISSING expected series {needle:?}");
            failed = true;
        }
    }
    let path = write_results_file("obs_check.prom", &text).unwrap();
    println!("-> {path}");

    // What a finished invert holds in the DFS: its factor forest (leaf
    // `l.bin` / `u.bin`, each level's `L2/` and `U2/` stripes) and
    // `RESULT/`. Every intermediate file was released; the peak was not
    // every byte ever written. Both are counts: they repeat exactly.
    let dfs = &cluster.dfs;
    let product = |p: &String| {
        p.ends_with("/l.bin")
            || p.ends_with("/u.bin")
            || ["/L2/", "/U2/", "/RESULT/"].iter().any(|d| p.contains(d))
    };
    let products: u64 = (dfs.list(&out.report.workdir).iter())
        .filter(|p| product(p))
        .map(|p| dfs.len(p).unwrap_or(0))
        .sum();
    let gauge = |name: &str| snap.gauges.iter().find(|g| g.name == name).map(|g| g.value);
    let written = (snap.counters.iter())
        .find(|c| c.name == "mrinv_dfs_write_bytes_total")
        .map(|c| c.value as f64);
    match (
        gauge("mrinv_dfs_live_bytes"),
        gauge("mrinv_dfs_live_bytes_peak"),
        written,
    ) {
        (Some(live), Some(peak), Some(written)) => {
            println!(
                "dfs live bytes: {live} (factor forest + RESULT/: {products}), peak {peak} of {written} written"
            );
            if live != products as f64 || peak >= written {
                println!("dfs live bytes WRONG: an intermediate file outlived its last reader");
                failed = true;
            }
        }
        _ => {
            println!("prometheus text MISSING the dfs live-bytes series");
            failed = true;
        }
    }

    match &out.report.audit {
        Some(audit) => {
            println!(
                "cost audit: {} task(s), max |residual| {:.4} (threshold {:.2}), {} flagged, structure {}",
                audit.tasks,
                audit.max_abs_residual,
                audit.threshold,
                audit.flagged.len(),
                if audit.structure_ok { "ok" } else { "BROKEN" }
            );
            if !audit.within_threshold || !audit.structure_ok || audit.tasks == 0 {
                for s in &audit.stages {
                    println!(
                        "  stage {}: ratio {:.3} (band [{}, {}]) {}",
                        s.stage,
                        s.ratio,
                        s.band_lo,
                        s.band_hi,
                        if s.within_band { "ok" } else { "OFF" }
                    );
                }
                failed = true;
            }
        }
        None => {
            println!("cost audit MISSING (tracing was on, audit should attach)");
            failed = true;
        }
    }
    if failed {
        eprintln!("repro: obs-check FAILED");
        std::process::exit(1);
    }
    println!("obs-check passed");
}

/// Serial / parallel wall-clock ratio of the packed engine for one
/// `n x n x n` product (best of 9 each, same buffers): > 1 means the
/// parallel nest wins. Best-of-9 rides out the lost scheduling quanta a
/// shared runner sees; one 512³ product is ~10 ms.
fn gemm_parallel_vs_serial(n: usize) -> f64 {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    let mut best_secs = |parallel: bool| {
        (0..9)
            .map(|_| {
                let t0 = Instant::now();
                gemm_with(
                    &Packed { parallel },
                    1.0,
                    notrans(black_box(&a)),
                    notrans(black_box(&b)),
                    0.0,
                    &mut out,
                )
                .expect("square operands");
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let serial = best_secs(false);
    serial / best_secs(true)
}

/// Multi-threaded ordering gate: with at least two cores and two
/// effective pool threads, the packed engine's parallel nest must not be
/// slower than its serial nest at n >= 256 (5% noise allowance). On a
/// single-core machine or a capped pool the ordering is undefined
/// (oversubscription prices the same work on one core), so the gate
/// skips with exit 0 — CI runs it on multi-core runners.
fn run_gemm_par_check(_args: &Args) {
    println!("\n== GEMM parallel-vs-serial ordering gate (n = 256, 512) ==");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = rayon::current_num_threads();
    println!("detected cores: {cores}, effective pool threads: {threads}");
    if cores < 2 || threads < 2 {
        println!(
            "gemm-par-check SKIPPED: needs >= 2 cores and >= 2 effective threads \
             (set RAYON_NUM_THREADS >= 2 on a multi-core machine)"
        );
        return;
    }
    let mut failed = false;
    for n in [256usize, 512] {
        let ratio = gemm_parallel_vs_serial(n);
        let ok = ratio >= 0.95;
        println!(
            "  n={n}: parallel/serial {ratio:.3}x  [{}]",
            if ok { "ok" } else { "SLOWER" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "repro: gemm-par-check FAILED (parallel packed nest slower than serial \
             on a multi-threaded pool; see DESIGN.md section 4b)"
        );
        std::process::exit(1);
    }
    println!("gemm-par-check passed");
}

fn run_accuracy(args: &Args) {
    println!(
        "\n== Section 7.2: accuracy, max |I - M*M^-1| (threshold 1e-5, scale 1/{}) ==",
        args.scale
    );
    let mut csv = Vec::new();
    for (name, res) in accuracy(args.scale, 4) {
        let verdict = if res < 1e-5 { "ok" } else { "FAIL" };
        println!("  {name}: {res:.2e}  [{verdict}]");
        csv.push(format!("{name},{res}"));
    }
    let path = write_csv("accuracy", "matrix,residual", &csv).unwrap();
    println!("-> {path}");
}
