//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--scale S]
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
//!   all        everything above
//! ```
//!
//! Results print as aligned tables and also land in `results/<exp>.csv`;
//! `sec74` and `sec74-node` also write a Chrome trace of their fault run
//! to `results/<exp>_trace.json`. `--scale` divides every matrix order
//! and `nb` by a power of two (default 32; a scale that does not divide
//! every suite order and the paper's `nb` is a usage error); the pipeline
//! structure and job counts are identical at every scale, and times are
//! extrapolated back to paper scale (see
//! `crates/bench/src/experiments.rs`). Simulated time prices each task's
//! counted flops and bytes, never the host's clock, so every experiment
//! prints the same bytes and writes the same CSV on every run, on any
//! machine; each figure is one run, and its node counts are written once,
//! here. `crates/bench/tests/results.rs` holds `repro all` to the
//! committed `results/`.

use mrinv_bench::experiments::{
    accuracy, fig6, fig7, fig8, nb_sweep, sec74, sec74_node, sec8_spark, section2_methods,
    stragglers, table1, table2, table3,
};
use mrinv_bench::suite::{valid_scales, SuiteMatrix};
use mrinv_bench::{write_csv, write_results_file};

/// The experiment to run and the scale divisor.
fn parse_args() -> (String, usize) {
    let mut experiment = None;
    let mut scale = 32;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let valid = valid_scales();
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s| valid.contains(s))
                    .unwrap_or_else(|| {
                        die(&format!(
                            "--scale must divide every suite order and the paper's nb: one of {valid:?}"
                        ))
                    });
            }
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string());
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    (experiment.unwrap_or_else(|| die(&usage())), scale)
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

type Runner = fn(usize);

/// Every experiment and its runner. The usage line, the dispatch and `all`
/// (in this order) all read this one table.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table3", run_table3),
    ("accuracy", run_accuracy),
    ("section2", run_section2),
    ("table1", run_table1),
    ("table2", run_table2),
    ("fig6", run_fig6),
    ("fig7", run_fig7),
    ("fig8", run_fig8),
    ("sec74", run_sec74),
    ("sec74-node", run_sec74_node),
    ("nb-sweep", run_nb_sweep),
    ("spark", run_spark),
    ("stragglers", run_stragglers),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!("usage: repro <{}|all> [--scale S]", names.join("|"))
}

fn main() {
    let (experiment, scale) = parse_args();
    if experiment == "all" {
        for &(_, run) in EXPERIMENTS {
            run(scale);
        }
        return;
    }
    match EXPERIMENTS.iter().find(|&&(name, _)| name == experiment) {
        Some(&(_, run)) => run(scale),
        None => die(&format!("unknown experiment {experiment:?}\n{}", usage())),
    }
}

fn run_table1(scale: usize) {
    let m = SuiteMatrix::by_name("M5").unwrap();
    println!(
        "\n== Table 1: LU decomposition cost in elements (n = {}, scale 1/{}) ==",
        m.order(scale),
        scale
    );
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "m0", "write(theory)", "write(meas)", "read(theory)", "read(meas)", "scal transfer"
    );
    let rows = table1(&m, scale, &[4, 16, 64]);
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

fn run_table2(scale: usize) {
    let m = SuiteMatrix::by_name("M5").unwrap();
    println!(
        "\n== Table 2: triangular inversion + product cost in elements (n = {}, scale 1/{}) ==",
        m.order(scale),
        scale
    );
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "m0", "write(theory)", "write(meas)", "read(theory)", "read(meas)", "scal transfer"
    );
    let rows = table2(&m, scale, &[4, 16, 64]);
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

fn run_table3(scale: usize) {
    println!(
        "\n== Table 3: evaluation suite (sizes at paper scale; runs at 1/{}) ==",
        scale
    );
    println!(
        "{:>4} {:>8} {:>10} {:>9} {:>11} {:>6} {:>10}",
        "name", "order", "elems(B)", "text(GB)", "binary(GB)", "jobs", "run order"
    );
    let mut csv = Vec::new();
    for r in table3(scale) {
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

fn run_fig6(scale: usize) {
    println!(
        "\n== Figure 6: strong scalability (extrapolated minutes, scale 1/{}) ==",
        scale
    );
    let points = fig6(scale, &[1, 2, 4, 8, 16, 32, 64]);
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

fn run_fig7(scale: usize) {
    println!(
        "\n== Figure 7: optimization ablations on M5 (T_unopt / T_opt, scale 1/{}) ==",
        scale
    );
    println!(
        "{:>6} {:>17} {:>12} {:>13}",
        "nodes", "separate-files", "block-wrap", "transposed-U"
    );
    let mut csv = Vec::new();
    for r in fig7(scale, &[4, 8, 16, 32, 64]) {
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

fn run_fig8(scale: usize) {
    println!("\n== Figure 8: T_ScaLAPACK / T_ours (scale 1/{}) ==", scale);
    println!(
        "{:>4} {:>6} {:>9} {:>14} {:>16}",
        "mat", "nodes", "ratio", "ours (min)", "scalapack (min)"
    );
    let mut csv = Vec::new();
    for p in fig8(scale, &[4, 8, 16, 32, 64]) {
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

fn run_sec74(scale: usize) {
    println!(
        "\n== Section 7.4/7.5: very large matrix M4 (scale 1/{}) ==",
        scale
    );
    println!(
        "{:>32} {:>9} {:>6} {:>9}",
        "run", "hours", "jobs", "failures"
    );
    let result = sec74(scale);
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

fn run_sec74_node(scale: usize) {
    println!(
        "\n== Section 7.4, node granularity: M4 on 64 medium (scale 1/{}) ==",
        scale
    );
    println!(
        "{:>36} {:>9} {:>6} {:>9}",
        "run", "hours", "jobs", "failures"
    );
    let result = sec74_node(scale);
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

fn run_section2(scale: usize) {
    let n = (512 / (scale / 32).max(1)).max(64);
    let nb = (n / 8).max(4);
    println!("\n== Section 2: inversion method comparison (single node, n = {n}) ==");
    println!(
        "{:>18} {:>12} {:>14} {:>10}",
        "method", "residual", "MR jobs @n", "scope"
    );
    let mut csv = Vec::new();
    for r in section2_methods(n, nb) {
        println!(
            "{:>18} {:>12.2e} {:>14} {:>10}",
            r.method, r.residual, r.mr_jobs, r.scope
        );
        csv.push(format!(
            "{},{},{},{}",
            r.method, r.residual, r.mr_jobs, r.scope
        ));
    }
    let path = write_csv("section2", "method,residual,mr_jobs,scope", &csv).unwrap();
    println!("(the paper's argument: GJ/QR need ~n sequential jobs; block LU needs 2^ceil(log2(n/nb)))\n-> {path}");
}

fn run_stragglers(scale: usize) {
    println!(
        "\n== Stragglers: one slow node in 16, speculation off/on (M5, scale 1/{}) ==",
        scale
    );
    println!(
        "{:>12} {:>18} {:>18} {:>9}",
        "slow factor", "no-spec (min)", "speculation (min)", "saved"
    );
    let mut csv = Vec::new();
    for r in stragglers(scale, &[1.0, 0.5, 0.25, 0.1]) {
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

fn run_nb_sweep(scale: usize) {
    println!(
        "\n== Ablation: bound value nb sweep on M5, 64 nodes (Section 5 tuning, scale 1/{}) ==",
        scale
    );
    println!("{:>6} {:>6} {:>12}", "nb", "jobs", "minutes");
    let m5_order = 16384 / scale;
    let nbs: Vec<usize> = [16usize, 32, 64, 100, 128, 256, 512, 1024]
        .iter()
        .copied()
        .filter(|&nb| nb <= m5_order)
        .collect();
    let mut csv = Vec::new();
    for p in nb_sweep(scale, 64, &nbs) {
        println!("{:>6} {:>6} {:>12.1}", p.nb, p.jobs, p.minutes);
        csv.push(format!("{},{},{}", p.nb, p.jobs, p.minutes));
    }
    let path = write_csv("nb_sweep", "nb,jobs,minutes", &csv).unwrap();
    println!("(expected: U-shape — small nb pays job launches, large nb serializes on the master)\n-> {path}");
}

fn run_spark(scale: usize) {
    println!(
        "\n== Section 8 projection: Hadoop vs Spark-style in-memory pricing (scale 1/{}) ==",
        scale
    );
    println!(
        "{:>4} {:>6} {:>14} {:>14} {:>9}",
        "mat", "nodes", "hadoop (min)", "spark (min)", "speedup"
    );
    let mut csv = Vec::new();
    for p in sec8_spark(scale, &[4, 16, 64]) {
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

fn run_accuracy(scale: usize) {
    println!(
        "\n== Section 7.2: accuracy, max |I - M*M^-1| (threshold 1e-5, scale 1/{}) ==",
        scale
    );
    let mut csv = Vec::new();
    for (name, res) in accuracy(scale, 4) {
        let verdict = if res < 1e-5 { "ok" } else { "FAIL" };
        println!("  {name}: {res:.2e}  [{verdict}]");
        csv.push(format!("{name},{res}"));
    }
    let path = write_csv("accuracy", "matrix,residual", &csv).unwrap();
    println!("-> {path}");
}
