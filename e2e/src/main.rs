//! `e2e` — the benchmark harness binary. `run.sh` builds it, pins it and
//! calls `e2e run`; `run` starts one `e2e pass` process per (workload,
//! pass) and reports from the files they leave in `e2e/out/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use e2e::env::Env;
use e2e::pass::{PassData, RunCtx};
use e2e::report::{self, PassFile, Summary, TracedFile};
use e2e::span::{self, Recorder};
use e2e::spec::{self, Kind, Workload, END_TO_END, HARD_CAP, PER_LAYER, PROBE_ROUNDS, WORKLOADS};
use e2e::{aa, cli_run, lib_run, probes, serve_run};

const USAGE: &str = "usage:
  e2e run [--workload W] [--seed S] [--seconds N] [--quick] [--trace [0|1]] [--out DIR]
  e2e aa --dir DIR
  e2e declare";

/// Options of `run` and `pass`.
#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    quick: bool,
    trace: bool,
    out: PathBuf,
    // `pass` only.
    rounds: usize,
    full_rounds: usize,
    label: String,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        quick: false,
        trace: false,
        out: PathBuf::from("e2e/out"),
        rounds: 0,
        full_rounds: 0,
        label: String::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: {v:?} is not a number"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => o.seed = number(value("a number")?)?,
            "--seconds" => o.seconds = number(value("a number")?)?.max(1),
            "--quick" => o.quick = true,
            "--out" | "--dir" => o.out = PathBuf::from(value("a directory")?),
            "--rounds" => o.rounds = number(value("a number")?)? as usize,
            "--full-rounds" => o.full_rounds = number(value("a number")?)? as usize,
            "--label" => o.label = value("a label")?,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &o.workload {
        if spec::workload(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; one of {names:?}"));
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "declare" => {
            print!("{}", declare());
            Ok(true)
        }
        "run" => parse(rest).and_then(|o| run(&o)),
        "pass" => parse(rest).and_then(|o| pass(&o).map(|()| true)),
        "aa" => parse(rest).and_then(|o| aa::report(&o.out)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, generated from [`spec`] so the names the harness
/// emits and the names it declares cannot drift.
fn declare() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"e2e/run.sh\"],\n");
    s.push_str("  \"paths\": [\"e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {},\n", spec::RUN_SECONDS));
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let text = |t: &str| serde_json::to_string(t).expect("strings serialize");
    s.push_str(&format!(
        "  \"workloads\": {},\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", text(w.name), text(w.why)))
                .collect()
        )
    ));
    s.push_str(&format!(
        "  \"end_to_end\": {},\n",
        list(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    text(m.name),
                    text(m.unit),
                    text(m.better),
                    m.bound
                ))
                .collect()
        )
    ));
    s.push_str(&format!(
        "  \"per_layer\": {}\n",
        list(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    text(m.name),
                    text(m.unit),
                    text(m.better)
                ))
                .collect()
        )
    ));
    s.push_str("}\n");
    s
}

/// Starts `e2e pass` for one (workload, pass) and waits for it.
fn spawn_pass(
    o: &Opts,
    w: &Workload,
    rounds: usize,
    full: usize,
    label: &str,
    trace: bool,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("pass")
        .args(["--workload", w.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--rounds", &rounds.to_string()])
        .args(["--full-rounds", &full.to_string()])
        .args(["--label", label])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .args(o.quick.then_some("--quick"))
        .status()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("pass {label} of {} ended with {status}", w.name))
    }
}

/// `e2e run`: every pass of every chosen workload, then the report.
/// `Ok(false)` when an output was incorrect.
fn run(o: &Opts) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let workloads: Vec<&Workload> = match &o.workload {
        Some(name) => vec![spec::workload(name).expect("checked by parse")],
        None => WORKLOADS.iter().collect(),
    };
    let rounds = |w: &Workload| {
        let full = spec::rounds_for(w, o.seconds);
        if o.quick {
            (full / 10).max(1)
        } else {
            full
        }
    };
    let mut summaries: Vec<Summary> = Vec::new();
    if o.trace {
        for w in &workloads {
            // A quarter of the rounds untraced, the same quarter traced:
            // their ratio is the tracing overhead.
            let full = rounds(w);
            let quarter = (full / 4).max(1);
            spawn_pass(o, w, quarter, full, "q", false)?;
            spawn_pass(o, w, quarter, full, "traced", true)?;
            let s = report::per_layer(w, &o.out)?;
            report::write_json(&o.out.join(format!("layers-{}.json", w.name)), &s)?;
            summaries.push(s);
        }
    } else {
        // Two interleaved passes (W1 W2 W3 W4 W1 W2 W3 W4), half the
        // rounds each: a slow phase of the host, which lasts minutes,
        // then spoils part of every workload, not all of one.
        let labels: Vec<String> = if o.quick {
            vec!["p1".to_string()]
        } else {
            vec!["p1".to_string(), "p2".to_string()]
        };
        for label in &labels {
            for w in &workloads {
                let full = rounds(w);
                spawn_pass(o, w, full / labels.len(), full, label, false)?;
            }
        }
        for w in &workloads {
            let s = report::end_to_end(w, &labels, &o.out)?;
            report::write_json(&o.out.join(format!("result-{}.json", w.name)), &s)?;
            summaries.push(s);
        }
    }
    let declared: &[spec::Metric] = if o.trace { &PER_LAYER } else { &END_TO_END };
    for s in &summaries {
        report::print_human(s, declared);
    }
    // Last: one result line per workload, the driver reads the final one.
    for s in &summaries {
        println!("{}", report::result_line(s));
    }
    Ok(summaries.iter().all(|s| s.correct))
}

/// `e2e pass`: one driver run in this process; leaves its samples in
/// `--out` and prints nothing to stdout.
fn pass(o: &Opts) -> Result<(), String> {
    let name = o.workload.as_deref().ok_or("pass needs --workload")?;
    let w = spec::workload(name).expect("checked by parse");
    let env = Env::capture(o.seed, o.seconds, o.quick);
    let scratch = o.out.join(format!("scratch-{}-{}", w.name, o.label));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let share = o.rounds as f64 / o.full_rounds.max(1) as f64;
    let cap = Duration::from_secs_f64(HARD_CAP * o.seconds as f64 * share.max(0.05));

    let result = if o.trace {
        traced_pass(o, w, env, &scratch, cap)
    } else {
        let mut rec = Recorder::new(false);
        let mut ctx = RunCtx {
            seed: o.seed,
            rounds: o.rounds,
            warmup: w.warmup,
            cap,
            rec: &mut rec,
            scratch: &scratch,
        };
        let data = drive(w.kind, w.name, w.n, w.nb, &mut ctx);
        eprintln!(
            "e2e: {} {}: set-up {:.2} s, {} rounds in {:.2} s, {} failed, {} incorrect",
            w.name,
            o.label,
            data.setup_s,
            data.rounds_completed,
            data.measure_s,
            data.failed,
            data.incorrect
        );
        report::write_json(
            &o.out.join(format!("pass-{}-{}.json", w.name, o.label)),
            &PassFile { env, data },
        )
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn drive(kind: Kind, name: &str, n: usize, nb: usize, ctx: &mut RunCtx<'_>) -> PassData {
    match kind {
        Kind::Lib => lib_run::run(name, n, nb, ctx),
        Kind::Cli => cli_run::run(name, n, nb, ctx),
        Kind::Serve => serve_run::run(name, n, nb, ctx),
    }
}

/// The traced pass: every driver once with the recorder, the program's
/// registry, task log and kernel counters on — the workload's own with
/// `o.rounds`, the others with a few rounds to fill in their layers'
/// metrics — then the layer probes. Writes the samples and the Chrome
/// trace, and fails if the trace is not well formed.
fn traced_pass(
    o: &Opts,
    w: &Workload,
    env: Env,
    scratch: &Path,
    cap: Duration,
) -> Result<(), String> {
    let cli = spec::workload("cli-text").expect("declared");
    let serve = spec::workload("serve-mixed").expect("declared");
    let mut rec = Recorder::new(true);
    let mut sections = BTreeMap::new();
    let mut section = |label: &str,
                       kind: Kind,
                       name: &str,
                       n: usize,
                       nb: usize,
                       warmup: usize,
                       rec: &mut Recorder| {
        let own = kind == w.kind && rec.is_enabled();
        let span = rec.enter(label, "harness");
        let mut ctx = RunCtx {
            seed: o.seed,
            rounds: if own { o.rounds } else { PROBE_ROUNDS },
            warmup: if own { warmup } else { 1 },
            cap,
            rec,
            scratch,
        };
        let data = drive(kind, name, n, nb, &mut ctx);
        rec.exit(span);
        eprintln!(
            "e2e: {} traced, section {label}: {} rounds in {:.2} s, {} failed, {} incorrect",
            w.name, data.rounds_completed, data.measure_s, data.failed, data.incorrect
        );
        sections.insert(label.to_string(), data);
    };
    // In-process pipeline at the workload's own order and block bound:
    // a few plain rounds for the overhead ratio, then traced.
    let mut plain = Recorder::new(false);
    section("lib-plain", Kind::Lib, w.name, w.n, w.nb, 1, &mut plain);
    mrinv_matrix::kernel::perf::set_enabled(true);
    section("lib", Kind::Lib, w.name, w.n, w.nb, w.warmup, &mut rec);
    mrinv_matrix::kernel::perf::set_enabled(false);
    section(
        "cli",
        Kind::Cli,
        cli.name,
        cli.n,
        cli.nb,
        cli.warmup,
        &mut rec,
    );
    section(
        "serve",
        Kind::Serve,
        serve.name,
        serve.n,
        serve.nb,
        serve.warmup,
        &mut rec,
    );
    let probes = probes::run(w.n, &mut rec);

    let json = rec.chrome_json();
    let trace_path = o.out.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, &json).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let summary = span::validate(&json).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!(
        "e2e: {} traced: {} spans ({} roots) -> {}",
        w.name,
        summary.spans,
        summary.roots,
        trace_path.display()
    );
    report::write_json(
        &o.out.join(format!("traced-{}.json", w.name)),
        &TracedFile {
            env,
            sections,
            probes,
            trace_spans: summary.spans as u64,
        },
    )
}
