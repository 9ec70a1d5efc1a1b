//! Turns the raw samples the passes wrote into named metrics: pools the
//! passes of a workload, takes the quantiles, prints every metric with
//! its unit, and ends with the one-line JSON result.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::env::Env;
use crate::pass::PassData;
use crate::spec::{Kind, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};

/// What a pass process writes: one driver run of the workload itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassFile {
    /// Measurement environment.
    pub env: Env,
    /// The run.
    pub data: PassData,
}

/// What the traced pass writes: one driver run per layer group (the
/// workload's own with a quarter of its rounds, the others with a few)
/// and the probe readings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TracedFile {
    /// Measurement environment.
    pub env: Env,
    /// `lib-plain`, `lib`, `cli`, `serve`.
    pub sections: BTreeMap<String, PassData>,
    /// Probe metric name → value.
    pub probes: BTreeMap<String, f64>,
    /// Spans in the Chrome trace written beside this file.
    pub trace_spans: u64,
}

/// A metric as printed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    /// The measurement, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result of one workload, as written to `e2e/out/` and committed
/// under `e2e/results/`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Workload name.
    pub workload: String,
    /// Measurement environment.
    pub env: Env,
    /// Every output passed its check.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Rounds asked for, all passes.
    pub rounds_planned: u64,
    /// Rounds completed.
    pub rounds_completed: u64,
    /// The declared metrics.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Ungated companions: p50, p90, sample counts, throughput, per-pass
    /// set-up and measured time.
    pub detail: BTreeMap<String, f64>,
    /// Input hashes (same seed, same hashes).
    pub input_hashes: Vec<u64>,
    /// Failure descriptions.
    pub notes: Vec<String>,
}

fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `value` as pretty JSON.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(
    metrics: &mut BTreeMap<String, MetricValue>,
    declared: &[crate::spec::Metric],
    name: &str,
    value: f64,
) {
    let unit = declared
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
        .unit;
    metrics.insert(
        name.to_string(),
        MetricValue {
            value,
            unit: unit.to_string(),
        },
    );
}

/// Pools the untraced passes of `w` found in `out` into the five
/// end-to-end metrics.
pub fn end_to_end(w: &Workload, labels: &[String], out: &Path) -> Result<Summary, String> {
    let passes: Vec<PassFile> = labels
        .iter()
        .map(|l| read_json(&out.join(format!("pass-{}-{l}.json", w.name))))
        .collect::<Result<_, _>>()?;
    let first = passes.first().ok_or("no passes to report")?;
    let pooled = |name: &str| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.data.get(name).iter().copied())
            .collect()
    };
    let sum = |f: fn(&PassData) -> u64| passes.iter().map(|p| f(&p.data)).sum::<u64>();
    let fold = |f: fn(&PassData) -> f64, pick: fn(f64, f64) -> f64, from: f64| {
        passes.iter().map(|p| f(&p.data)).fold(from, pick)
    };

    let mut metrics = BTreeMap::new();
    let mut detail = BTreeMap::new();
    // Set-up: the quieter of the passes. Memory: the larger peak.
    metric(
        &mut metrics,
        &END_TO_END,
        "setup_s",
        fold(|d| d.setup_s, f64::min, f64::INFINITY),
    );
    metric(
        &mut metrics,
        &END_TO_END,
        "peak_rss_mb",
        fold(|d| d.peak_rss_mb, f64::max, 0.0),
    );
    for op in ["invert", "solve", "round"] {
        let samples = pooled(&format!("{op}_ms"));
        // Interference only adds time, so the lower quartile is the
        // steady reading; the median and p90 ride along ungated.
        metric(
            &mut metrics,
            &END_TO_END,
            &format!("{op}_ms_p25"),
            quantile(&samples, 0.25),
        );
        detail.insert(format!("{op}_ms_p50"), quantile(&samples, 0.50));
        detail.insert(format!("{op}_ms_p90"), quantile(&samples, 0.90));
        detail.insert(format!("{op}_ms_samples"), samples.len() as f64);
    }
    detail.insert(
        "ops_per_s".to_string(),
        1e3 * w.ops_per_round as f64 / metrics["round_ms_p25"].value,
    );
    for (i, p) in passes.iter().enumerate() {
        detail.insert(format!("pass{}_setup_s", i + 1), p.data.setup_s);
        detail.insert(format!("pass{}_measure_s", i + 1), p.data.measure_s);
        detail.insert(format!("pass{}_peak_rss_mb", i + 1), p.data.peak_rss_mb);
    }
    detail.insert(
        "measure_s".to_string(),
        passes.iter().map(|p| p.data.measure_s).sum(),
    );
    Ok(Summary {
        workload: w.name.to_string(),
        env: first.env.clone(),
        correct: sum(|d| d.incorrect) == 0,
        attempted: sum(|d| d.attempted),
        failed: sum(|d| d.failed),
        rounds_planned: sum(|d| d.rounds_planned),
        rounds_completed: sum(|d| d.rounds_completed),
        metrics,
        detail,
        input_hashes: first.data.input_hashes.clone(),
        notes: passes.iter().flat_map(|p| p.data.notes.clone()).collect(),
    })
}

/// Turns the traced pass of `w` (and the untraced quarter beside it)
/// into the 54 per-layer metrics.
pub fn per_layer(w: &Workload, out: &Path) -> Result<Summary, String> {
    let traced: TracedFile = read_json(&out.join(format!("traced-{}.json", w.name)))?;
    let quarter: PassFile = read_json(&out.join(format!("pass-{}-q.json", w.name)))?;
    let section = |name: &str| -> Result<&PassData, String> {
        traced
            .sections
            .get(name)
            .ok_or_else(|| format!("traced run has no {name} section"))
    };
    let (plain, lib, cli, serve) = (
        section("lib-plain")?,
        section("lib")?,
        section("cli")?,
        section("serve")?,
    );
    let own = match w.kind {
        Kind::Lib => lib,
        Kind::Cli => cli,
        Kind::Serve => serve,
    };
    let p25 = |d: &PassData, name: &str| quantile(d.get(name), 0.25);

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| metric(&mut metrics, &PER_LAYER, name, value);
    // Read straight from a section's samples (medians).
    for (data, names) in [
        (
            lib,
            &[
                "request.jobs",
                "request.tasks",
                "request.task_body_ms",
                "request.master_ms",
                "runner.self_ms",
                "runner.self_per_job_us",
                "runner.self_share",
                "stage.partition_ms",
                "stage.lu_ms",
                "stage.tri_inv_ms",
                "inmem.single_node_ms",
                "kernel.gemm_ms",
                "kernel.gemm_calls",
                "kernel.gflop",
                "kernel.gemm_share",
                "dfs.read_mb",
                "dfs.write_mb",
                "dfs.files",
                "dfs.read_amplification",
                "shuffle.bytes",
            ][..],
        ),
        (
            serve,
            &[
                "cache.key_ms_256",
                "cache.hit_invert_ms_256",
                "cache.hit_solve_ms_256",
                "cache.hit_ratio",
                "wire.connect_ms",
                "wire.cold_invert_ms",
                "wire.bytes_per_payload_byte",
                "wire.bincode_ser_mbps",
                "wire.bincode_de_mbps",
                "serve.rss_per_cold_kb",
            ][..],
        ),
        (
            cli,
            &[
                "exec_tcp.spawn_ms",
                "exec_tcp.task_overhead_us",
                "cli.startup_ms",
                "cli.gen_ms",
            ][..],
        ),
    ] {
        for name in names {
            put(name, median(data.get(name)));
        }
    }
    for (name, value) in &traced.probes {
        put(name, *value);
    }
    // Derived across sections; each names the end-to-end quantile it uses.
    put(
        "request.overhead_x",
        p25(plain, "invert_ms") / median(plain.get("inmem.single_node_ms")),
    );
    put(
        "obs.trace_overhead_frac",
        p25(own, "invert_ms") / p25(&quarter.data, "invert_ms") - 1.0,
    );
    put(
        "wire.warm_overhead_ms",
        p25(serve, "invert_ms") - median(serve.get("cache.hit_invert_ms_256")),
    );
    put("cli.tcp_invert_ms", p25(cli, "tcp_invert_ms"));
    put(
        "cli.text_share",
        median(cli.get("cli.text_ms")) / p25(cli, "invert_ms"),
    );
    put(
        "cli.invert_speedup_2t",
        p25(cli, "invert_ms") / p25(cli, "cli.invert_2t_ms"),
    );

    let all: Vec<&PassData> = traced
        .sections
        .values()
        .chain(std::iter::once(&quarter.data))
        .collect();
    let sum = |f: fn(&PassData) -> u64| all.iter().map(|d| f(d)).sum::<u64>();
    let mut detail = BTreeMap::new();
    detail.insert("trace_spans".to_string(), traced.trace_spans as f64);
    detail.insert("traced_invert_ms_p25".to_string(), p25(own, "invert_ms"));
    detail.insert(
        "untraced_invert_ms_p25".to_string(),
        p25(&quarter.data, "invert_ms"),
    );
    Ok(Summary {
        workload: w.name.to_string(),
        env: traced.env.clone(),
        correct: sum(|d| d.incorrect) == 0,
        attempted: sum(|d| d.attempted),
        failed: sum(|d| d.failed),
        rounds_planned: own.rounds_planned,
        rounds_completed: own.rounds_completed,
        metrics,
        detail,
        input_hashes: own.input_hashes.clone(),
        notes: all.iter().flat_map(|d| d.notes.clone()).collect(),
    })
}

/// Prints `r` for people: every declared metric by name with its unit,
/// then the ungated detail.
pub fn print_human(r: &Summary, declared: &[crate::spec::Metric]) {
    let e = &r.env;
    println!(
        "== {}  seed {}  nproc {}  pinned {}  pool width {}  commit {}  {}",
        r.workload,
        e.seed,
        e.nproc,
        e.pinned_cpu
            .map_or("false".to_string(), |c| format!("cpu {c}")),
        e.pool_width,
        e.git_commit,
        e.rustc
    );
    println!(
        "   attempted {}  failed {}  correct {}  rounds {}/{}",
        r.attempted, r.failed, r.correct, r.rounds_completed, r.rounds_planned
    );
    for m in declared {
        match r.metrics.get(m.name) {
            Some(v) => println!("   {:<36} {:>14.4} {}", m.name, v.value, v.unit),
            None => println!("   {:<36} {:>14} {}", m.name, "missing", m.unit),
        }
    }
    for (name, value) in &r.detail {
        println!("   ({name} {value:.4})");
    }
    for note in &r.notes {
        println!("   ! {note}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(r: &Summary) -> String {
    use serde_json::{to_value, Value};
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.correct)),
        ("attempted".to_string(), to_value(&r.attempted)),
        ("failed".to_string(), to_value(&r.failed)),
        ("metrics".to_string(), to_value(&r.metrics)),
    ]);
    serde_json::to_string(&line).expect("a result serializes")
}
