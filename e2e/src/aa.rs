//! A/A report for `aa.sh`: two sets of runs of one build, labelled A
//! and B, must agree within the benchmark's own bounds — otherwise a
//! bound could never tell a change from the box's mood.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Serialize;

use crate::report::{write_json, Summary};
use crate::spec::{END_TO_END, WORKLOADS};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let len = x.len();
    if len < 2 {
        let v = x.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// One side's runs of one metric.
#[derive(Debug, Clone, Serialize)]
pub struct Side {
    /// The values, in run order.
    pub values: Vec<f64>,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 − q1) / median`.
    pub spread: f64,
}

fn side(values: Vec<f64>) -> Side {
    let [q1, median, q3] = quartiles(&values);
    Side {
        values,
        q1,
        median,
        q3,
        spread: (q3 - q1) / median,
    }
}

/// One workload × metric row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// The metric's bound.
    pub bound: f64,
    /// Runs labelled A.
    pub a: Side,
    /// Runs labelled B.
    pub b: Side,
    /// All runs together: the spread the driver checks against `bound`.
    pub all: Side,
    /// `(median B − median A) / median A`; positive is worse.
    pub gap: f64,
    /// `gap` is within `bound` both ways.
    pub within_bound: bool,
}

/// The whole report.
#[derive(Debug, Clone, Serialize)]
pub struct AaReport {
    /// Runs per side.
    pub runs_per_side: u64,
    /// Measurement environment of the first run.
    pub env: crate::env::Env,
    /// One row per workload × end-to-end metric.
    pub rows: Vec<Row>,
    /// Every row within its bound.
    pub pass: bool,
}

/// Reads `<dir>/<A|B>-<k>-<workload>.json`, prints the table, writes
/// `<dir>/aa.json` (and `layers.json` from any `layers-<workload>.json`);
/// `Ok(false)` when a gap exceeds its bound.
pub fn report(dir: &Path) -> Result<bool, String> {
    let mut runs: BTreeMap<(String, char), Vec<Summary>> = BTreeMap::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let label = match name.as_bytes() {
            [b'A', b'-', ..] => 'A',
            [b'B', b'-', ..] => 'B',
            _ => continue,
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let s: Summary = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
        runs.entry((s.workload.clone(), label)).or_default().push(s);
    }
    let mut rows = Vec::new();
    let mut env = None;
    let mut runs_per_side = 0;
    for w in &WORKLOADS {
        let (Some(a), Some(b)) = (
            runs.get(&(w.name.to_string(), 'A')),
            runs.get(&(w.name.to_string(), 'B')),
        ) else {
            continue;
        };
        env.get_or_insert_with(|| a[0].env.clone());
        runs_per_side = a.len().min(b.len()) as u64;
        for m in &END_TO_END {
            let values = |side: &[Summary]| -> Vec<f64> {
                side.iter()
                    .filter_map(|s| s.metrics.get(m.name).map(|v| v.value))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            let all = side(va.iter().chain(&vb).copied().collect());
            let (a, b) = (side(va), side(vb));
            let gap = (b.median - a.median) / a.median;
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name.to_string(),
                unit: m.unit.to_string(),
                bound: m.bound,
                within_bound: gap.abs() <= m.bound,
                a,
                b,
                all,
                gap,
            });
        }
    }
    let env = env.ok_or_else(|| format!("{}: no A-*/B-* result files", dir.display()))?;
    println!(
        "{:<12} {:<14} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "iqr all", "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<14} {:>10.3} {:>10.3} {:>+8.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}{}",
            r.workload,
            r.metric,
            r.a.median,
            r.b.median,
            r.gap,
            r.a.spread,
            r.b.spread,
            r.all.spread,
            r.bound,
            if r.within_bound {
                ""
            } else {
                "  GAP EXCEEDS BOUND"
            }
        );
    }
    let pass = rows.iter().all(|r| r.within_bound);
    let report = AaReport {
        runs_per_side,
        env,
        rows,
        pass,
    };
    write_json(&dir.join("aa.json"), &report)?;

    // The traced summaries `aa.sh --trace` left, as one file.
    let layers: Vec<Summary> = WORKLOADS
        .iter()
        .filter_map(|w| std::fs::read_to_string(dir.join(format!("layers-{}.json", w.name))).ok())
        .map(|text| serde_json::from_str(&text).map_err(|e| format!("layers: {e}")))
        .collect::<Result<_, _>>()?;
    if !layers.is_empty() {
        write_json(&dir.join("layers.json"), &layers)?;
    }
    Ok(pass)
}
