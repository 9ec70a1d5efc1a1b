//! Smoke tests of the harness itself: the quantile, the declaration in
//! `BENCHMARK.json` against what the harness emits, seed determinism,
//! the trace check, and a `--quick` run of all four workloads.
//!
//! `cargo test --release --manifest-path e2e/Cargo.toml`

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use e2e::aa::quartiles;
use e2e::span::{validate, Recorder};
use e2e::spec::{rounds_for, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use e2e::stats::{derive_seed, median, quantile};
use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("e2e/ sits in the repository")
        .to_path_buf()
}

#[test]
fn nearest_rank_quantile_on_known_vectors() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(quantile(&v, 0.25), 2.0, "ceil(1.25) = 2nd of 5");
    assert_eq!(quantile(&v, 0.50), 3.0);
    assert_eq!(quantile(&v, 0.90), 5.0);
    assert_eq!(quantile(&v, 1.0), 5.0);
    assert_eq!(quantile(&v, 0.0), 1.0, "rank clamps to the first sample");
    assert_eq!(
        median(&[1.0, 2.0, 3.0, 4.0]),
        2.0,
        "lower of the middle pair"
    );
    assert_eq!(quantile(&[7.0], 0.25), 7.0);
    assert_eq!(
        quantile(&[3.0, 9.0, 6.0], 0.25),
        3.0,
        "p25 of three is the minimum"
    );
    assert!(quantile(&[], 0.5).is_nan());
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&hundred, 0.25), 25.0);
    assert_eq!(quantile(&hundred, 0.99), 99.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
    assert_eq!(
        quartiles(&[160.0, 10.0, 40.0, 80.0, 20.0]),
        [15.0, 40.0, 120.0]
    );
}

#[test]
fn benchmark_json_declares_what_the_harness_emits() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let keys: BTreeSet<&str> = match &doc {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("BENCHMARK.json is {other:?}"),
    };
    let want: BTreeSet<&str> = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into();
    assert_eq!(keys, want);
    assert_eq!(doc.get("run_seconds").unwrap().as_u64(), Some(RUN_SECONDS));

    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    };
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let mut all = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for name in names(key) {
            assert!(well_formed(&name), "{name:?} is not [A-Za-z0-9_.-]+");
            assert!(all.insert(name.clone()), "{name} is used twice");
        }
    }
    let spec_names =
        |m: &[e2e::spec::Metric]| -> Vec<String> { m.iter().map(|m| m.name.to_string()).collect() };
    assert_eq!(names("end_to_end"), spec_names(&END_TO_END));
    assert_eq!(names("per_layer"), spec_names(&PER_LAYER));
    assert_eq!(
        names("workloads"),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    assert!(names("end_to_end").contains(&"setup_s".to_string()));
    for m in doc.get("end_to_end").unwrap().as_array().unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    // And the file is exactly what `e2e declare` prints.
    let declared = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .arg("declare")
        .output()
        .unwrap();
    assert_eq!(String::from_utf8(declared.stdout).unwrap(), text);
}

#[test]
fn round_counts_scale_with_seconds_and_stay_even() {
    for w in &WORKLOADS {
        assert_eq!(rounds_for(w, RUN_SECONDS), w.rounds, "{}", w.name);
        assert_eq!(w.rounds % 2, 0, "{} splits into two passes", w.name);
        assert_eq!(rounds_for(w, 2 * RUN_SECONDS), 2 * w.rounds);
        assert!(rounds_for(w, 1) >= 2);
    }
}

#[test]
fn seeds_derive_distinct_inputs() {
    assert_eq!(derive_seed(1, "lib-wide", 0), derive_seed(1, "lib-wide", 0));
    let mut seen = BTreeSet::new();
    for seed in 0..20 {
        for w in &WORKLOADS {
            for index in 0..4 {
                assert!(seen.insert(derive_seed(seed, w.name, index)));
            }
        }
    }
}

#[test]
fn trace_check_accepts_nesting_and_rejects_escapes() {
    let mut rec = Recorder::new(true);
    let root = rec.enter("round", "harness");
    let t = Instant::now();
    std::thread::sleep(Duration::from_millis(2));
    let op = rec.leaf("op", "core.request", t, t.elapsed());
    let _ = op;
    rec.exit(root);
    let json = rec.chrome_json();
    let summary = validate(&json).expect("a recorded trace is valid");
    assert_eq!((summary.spans, summary.roots), (2, 1));

    // Hand-written traces in the writer's layout.
    let header = json.lines().next().unwrap();
    let event = |id: u32, parent: &str, ts: f64, dur: f64| {
        format!(
            "{{\"name\":\"s\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"request\":0,\"placement\":\"measured\"}}}}"
        )
    };
    let doc = |events: &[String]| format!("{header}\n{}\n]}}\n", events.join(",\n"));
    let root = event(0, "null", 0.0, 100.0);
    let ok = doc(&[
        root.clone(),
        event(1, "0", 10.0, 40.0),
        event(2, "0", 50.0, 50.0),
    ]);
    assert_eq!(validate(&ok).unwrap().spans, 3);
    // A child that outlasts its parent.
    let escaped = doc(&[root.clone(), event(1, "0", 10.0, 95.0)]);
    assert!(validate(&escaped)
        .unwrap_err()
        .contains("outside its parent"));
    // Children that overlap, so together they take longer than the span.
    let crowded = doc(&[
        root.clone(),
        event(1, "0", 0.0, 60.0),
        event(2, "0", 30.0, 60.0),
    ]);
    assert!(validate(&crowded).unwrap_err().contains("children take"));
    // A parent that does not exist.
    let orphan = doc(&[root.clone(), event(1, "7", 10.0, 40.0)]);
    assert!(validate(&orphan).unwrap_err().contains("does not exist"));
    // Not JSON, not closed, not a trace.
    assert!(validate(&ok.replace("\"ph\":\"X\"", "\"ph\":X")).is_err());
    assert!(validate(ok.trim_end().trim_end_matches("]}")).is_err());
    assert!(validate("{}").is_err());

    // A disabled recorder keeps nothing.
    let mut off = Recorder::new(false);
    let s = off.enter("round", "harness");
    off.exit(s);
    assert!(off.is_empty());
}

/// `bash e2e/run.sh --quick ...`; stdout, or a panic with stderr.
fn run_sh(args: &[&str]) -> String {
    let out = Command::new("bash")
        .arg(repo_root().join("e2e/run.sh"))
        .args(args)
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "run.sh {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn result_lines(stdout: &str) -> Vec<Value> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| serde_json::parse_value(l).expect("a result line parses"))
        .collect()
}

fn input_hashes(workload: &str) -> Vec<u64> {
    let path = repo_root().join(format!("e2e/out/result-{workload}.json"));
    let doc = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get("input_hashes")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|h| h.as_u64().unwrap())
        .collect()
}

/// One test, because the runs share `e2e/out/` and the pinned vCPU.
#[test]
fn quick_run_emits_every_metric_and_seeds_decide_inputs() {
    // Build first so that the timed run below measures running only.
    run_sh(&["--quick", "--workload", "lib-deep", "--seed", "11"]);
    let first = input_hashes("lib-deep");

    let start = Instant::now();
    let stdout = run_sh(&["--quick", "--seed", "11"]);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "--quick took {elapsed:?}"
    );
    let lines = result_lines(&stdout);
    assert_eq!(lines.len(), WORKLOADS.len(), "one result line per workload");
    for (line, w) in lines.iter().zip(&WORKLOADS) {
        assert_eq!(
            line.get("correct").unwrap().as_bool(),
            Some(true),
            "{}",
            w.name
        );
        assert_eq!(line.get("failed").unwrap().as_u64(), Some(0), "{}", w.name);
        assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("{}: no metrics object", w.name);
        };
        let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted, declared, "{}", w.name);
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(value > 0.0, "{} {name} = {value}", w.name);
            let unit = END_TO_END.iter().find(|d| d.name == name).unwrap().unit;
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
        for m in &END_TO_END {
            assert!(stdout.contains(m.name), "{} is printed by name", m.name);
        }
    }
    assert_eq!(input_hashes("lib-deep"), first, "same seed, same inputs");

    run_sh(&["--quick", "--workload", "lib-deep", "--seed", "12"]);
    let other = input_hashes("lib-deep");
    assert_eq!(other.len(), first.len());
    assert!(
        other.iter().zip(&first).all(|(a, b)| a != b),
        "another seed, other inputs"
    );

    // A traced run emits exactly the declared per-layer names and leaves
    // a trace that passes the check.
    let stdout = run_sh(&[
        "--quick",
        "--workload",
        "serve-mixed",
        "--seed",
        "11",
        "--trace",
        "1",
    ]);
    let lines = result_lines(&stdout);
    let Some(Value::Object(metrics)) = lines[0].get("metrics") else {
        panic!("no metrics object");
    };
    let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(emitted, declared);
    let trace =
        std::fs::read_to_string(repo_root().join("e2e/out/trace-serve-mixed.json")).unwrap();
    assert!(validate(&trace).unwrap().spans > 100);
}
