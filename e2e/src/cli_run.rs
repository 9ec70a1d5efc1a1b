//! `cli-text` driver: what a batch user waits for. Three `mrinv`
//! subprocesses per round on text files — `invert`, `solve --rhs`, and
//! `invert --backend tcp:2` on the same input.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrinv::inmem::invert_single_node;
use mrinv::Request;
use mrinv_mapreduce::{Cluster, ClusterConfig, TcpWorkers, TcpWorkersConfig};
use mrinv_matrix::io::{decode_text, encode_text};
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::Matrix;

use crate::lib_run::backend_task_totals;
use crate::pass::{measure, solve_residual, warm_up, within_accuracy, Checker, PassData, RunCtx};
use crate::spec::NODES;
use crate::stats::{derive_seed, fnv64, hash_f64s};

/// A binary built next to the harness (`mrinv`, `mrinv-worker`).
pub fn sibling_bin(name: &str) -> PathBuf {
    std::env::current_exe()
        .expect("the harness knows its own path")
        .with_file_name(name)
}

/// Peak resident memory over every child waited for so far, MB.
fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        ru_utime: [i64; 2],
        ru_stime: [i64; 2],
        ru_maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of `struct rusage` on 64-bit Linux
    // (two `timeval`s of two longs, then fourteen longs), `usage` is a
    // valid, exclusive pointer to one, and `getrusage` only writes that
    // struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports kilobytes.
    usage.ru_maxrss as f64 / 1024.0
}

/// The files and binaries of one run.
struct Files {
    mrinv: PathBuf,
    dir: PathBuf,
    nb: usize,
}

impl Files {
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `mrinv <sub> ...` with the workload's cluster flags.
    fn compute(&self, sub: &str, output: &str, extra: &[&str]) -> Command {
        let mut cmd = Command::new(&self.mrinv);
        cmd.arg(sub)
            .arg("--input")
            .arg(self.path("a.txt"))
            .arg("--output")
            .arg(self.path(output))
            .args(["--nodes", &NODES.to_string(), "--nb", &self.nb.to_string()])
            .args(extra);
        cmd
    }
}

/// Runs `cmd` to completion with its output discarded; the wall time
/// from spawn to exit, or what went wrong.
fn timed(cmd: &mut Command, stderr_log: &Path) -> (Instant, Duration, Result<(), String>) {
    let stderr = File::create(stderr_log).map_or_else(|_| Stdio::null(), Stdio::from);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
    let t = Instant::now();
    let status = cmd.status();
    let d = t.elapsed();
    let verdict = match status {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => {
            let log = std::fs::read_to_string(stderr_log).unwrap_or_default();
            let tail = log.lines().last().unwrap_or("").to_string();
            Err(format!("{s}: {tail}"))
        }
        Err(e) => Err(format!("cannot spawn: {e}")),
    };
    (t, d, verdict)
}

/// Runs `ctx.rounds` rounds of the three subprocesses at order `n`.
pub fn run(name: &str, n: usize, nb: usize, ctx: &mut RunCtx<'_>) -> PassData {
    let mut data = PassData {
        workload: name.to_string(),
        rounds_planned: ctx.rounds as u64,
        ..PassData::default()
    };
    let mut checker = Checker::default();
    let files = Files {
        mrinv: sibling_bin("mrinv"),
        dir: ctx.scratch.to_path_buf(),
        nb,
    };

    let setup_start = Instant::now();
    let setup_span = ctx.rec.enter("setup", "harness");
    let t = Instant::now();
    let a = random_well_conditioned(n, derive_seed(ctx.seed, name, 0));
    let b = random_matrix(n, 1, derive_seed(ctx.seed, name, 1));
    data.input_hashes = vec![hash_f64s(a.as_slice()), hash_f64s(b.as_slice())];
    std::fs::write(files.path("a.txt"), encode_text(&a)).expect("scratch directory is writable");
    std::fs::write(files.path("b.txt"), encode_text(&b)).expect("scratch directory is writable");
    ctx.rec.leaf("generate inputs", "harness", t, t.elapsed());

    let t = Instant::now();
    let reference = invert_single_node(&a).expect("well-conditioned input inverts");
    ctx.rec
        .leaf("invert_single_node", "core.inmem", t, t.elapsed());

    let inputs = Inputs {
        a: &a,
        b: b.as_slice(),
        reference: &reference,
    };
    let mut round = |_id: u64, ctx: &mut RunCtx<'_>, data: &mut PassData| {
        round(&files, &inputs, ctx, &mut checker, data)
    };
    warm_up(ctx, &mut data, &mut round);
    ctx.rec.exit(setup_span);
    data.setup_s = setup_start.elapsed().as_secs_f64();

    measure(ctx, &mut data, 3, &mut round);
    data.peak_rss_mb = children_peak_rss_mb();

    if ctx.rec.is_enabled() {
        ctx.rec.set_request(u64::MAX);
        let span = ctx.rec.enter("cli and exec.tcp probes", "harness");
        probes(&files, &a, ctx, &mut data);
        ctx.rec.exit(span);
    }
    data
}

struct Inputs<'a> {
    a: &'a Matrix,
    b: &'a [f64],
    reference: &'a Matrix,
}

/// One round. Each subprocess is timed from spawn to exit; reading the
/// output files back and checking them is not.
fn round(
    files: &Files,
    inputs: &Inputs<'_>,
    ctx: &mut RunCtx<'_>,
    checker: &mut Checker,
    data: &mut PassData,
) {
    let round_span = ctx.rec.enter("round", "harness");
    let log = files.path("stderr.log");
    for out in ["inv.txt", "x.txt", "inv_tcp.txt"] {
        let _ = std::fs::remove_file(files.path(out));
    }
    let failed_before = data.failed;
    let mut round_ms = 0.0;
    let ops: [(&str, &str, &str, Command); 3] = [
        (
            "mrinv invert",
            "invert_ms",
            "inv.txt",
            files.compute("invert", "inv.txt", &[]),
        ),
        ("mrinv solve", "solve_ms", "x.txt", {
            let mut c = files.compute("solve", "x.txt", &[]);
            c.arg("--rhs").arg(files.path("b.txt"));
            c
        }),
        (
            "mrinv invert --backend tcp:2",
            "tcp_invert_ms",
            "inv_tcp.txt",
            files.compute("invert", "inv_tcp.txt", &["--backend", "tcp:2"]),
        ),
    ];
    for (label, sample, output, mut cmd) in ops {
        data.attempted += 1;
        let (t, d, verdict) = timed(&mut cmd, &log);
        ctx.rec.leaf(label, "core.cli", t, d);
        let ms = d.as_secs_f64() * 1e3;
        round_ms += ms;
        if let Err(e) = verdict {
            data.fail(format!("{label}: {e}"));
            continue;
        }
        data.push(sample, ms);
        let t = Instant::now();
        if let Err(e) = check_output(files, inputs, checker, output) {
            data.wrong(e);
        }
        ctx.rec.leaf("check output file", "harness", t, t.elapsed());
    }
    if data.failed == failed_before {
        data.push("round_ms", round_ms);
    }
    ctx.rec.exit(round_span);
}

/// The first `inv.txt` must decode to an inverse within the paper's
/// accuracy (and of the single-node reference), the first `x.txt` to a
/// solution; later files must be byte-identical to the first, and
/// `inv_tcp.txt` byte-identical to `inv.txt`.
fn check_output(
    files: &Files,
    inputs: &Inputs<'_>,
    checker: &mut Checker,
    output: &str,
) -> Result<(), String> {
    let bytes = std::fs::read(files.path(output)).map_err(|e| format!("{output}: {e}"))?;
    let hash = fnv64(&bytes);
    let decode = || {
        let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
        decode_text(text).map_err(|e| e.to_string())
    };
    match output {
        "inv_tcp.txt" => match checker.hash_of("inv.txt") {
            Some(want) if want == hash => Ok(()),
            Some(_) => Err("inv_tcp.txt differs from the in-process inv.txt".to_string()),
            None => Err("inv_tcp.txt has no in-process output to compare with".to_string()),
        },
        "inv.txt" => checker.output(output, hash, || {
            let inv = decode()?;
            within_accuracy(inversion_residual(inputs.a, &inv).map_err(|e| e.to_string())?)?;
            let gap = inv
                .max_abs_diff(inputs.reference)
                .map_err(|e| e.to_string())?;
            within_accuracy(gap).map_err(|e| format!("against invert_single_node: {e}"))
        }),
        _ => checker.output(output, hash, || {
            let x = decode()?;
            within_accuracy(solve_residual(inputs.a, x.as_slice(), inputs.b)?)
        }),
    }
}

/// Readings for `core.cli` and `mapreduce.exec.tcp` that the rounds do
/// not give: bare process start, `mrinv gen`, the text codec's share,
/// the (ungated) two-thread speed-up, worker spawn, per-task wire cost.
fn probes(files: &Files, a: &Matrix, ctx: &mut RunCtx<'_>, data: &mut PassData) {
    let log = files.path("stderr.log");
    let mut sample = |data: &mut PassData, name: &str, label: &str, cmd: &mut Command| {
        data.attempted += 1;
        let (t, d, verdict) = timed(cmd, &log);
        ctx.rec.leaf(label, "core.cli", t, d);
        match verdict {
            Ok(()) => data.push(name, d.as_secs_f64() * 1e3),
            Err(e) => data.fail(format!("{label}: {e}")),
        }
    };
    let gen = |order: usize, output: &str| {
        let mut c = Command::new(&files.mrinv);
        c.args(["gen", "--order", &order.to_string(), "--output"])
            .arg(files.path(output));
        c
    };
    for _ in 0..5 {
        sample(
            data,
            "cli.startup_ms",
            "mrinv gen --order 2",
            &mut gen(2, "tiny.txt"),
        );
    }
    for _ in 0..3 {
        let order = a.rows();
        sample(data, "cli.gen_ms", "mrinv gen", &mut gen(order, "gen.txt"));
    }

    // Two pool threads on every vCPU, against the pinned width-1 rounds.
    // Informational: the gated metrics cannot show thread scaling here.
    let nproc = crate::env::nproc();
    for _ in 0..5 {
        let invert = files.compute("invert", "inv_2t.txt", &[]);
        let mut cmd = if std::env::var("E2E_PINNED_CPU").is_ok_and(|v| !v.is_empty()) {
            let mut c = Command::new("taskset");
            c.arg("-c")
                .arg(format!("0-{}", nproc - 1))
                .arg(invert.get_program())
                .args(invert.get_args());
            c
        } else {
            invert
        };
        cmd.env("RAYON_NUM_THREADS", "2");
        sample(
            data,
            "cli.invert_2t_ms",
            "mrinv invert, 2 threads",
            &mut cmd,
        );
    }

    // Text decode + encode of the input-sized matrix, in process.
    let text = encode_text(a);
    for _ in 0..3 {
        let t = Instant::now();
        let decoded = decode_text(std::hint::black_box(&text)).expect("own encoding decodes");
        let encoded = encode_text(std::hint::black_box(&decoded));
        let d = t.elapsed();
        std::hint::black_box(encoded);
        ctx.rec.leaf("text decode+encode", "matrix.io", t, d);
        data.push("cli.text_ms", d.as_secs_f64() * 1e3);
    }

    // Worker processes: spawn cost, then the same cold invert through
    // them and in process; the difference per task is the wire's cost.
    let worker_bin = sibling_bin("mrinv-worker");
    let spawn = |data: &mut PassData, rec: &mut crate::span::Recorder| {
        data.attempted += 1;
        let t = Instant::now();
        let backend = TcpWorkers::spawn(TcpWorkersConfig::new(2, &worker_bin));
        let d = t.elapsed();
        rec.leaf("TcpWorkers::spawn", "mapreduce.exec.tcp", t, d);
        match backend {
            Ok(b) => {
                data.push("exec_tcp.spawn_ms", d.as_secs_f64() * 1e3);
                Some(b)
            }
            Err(e) => {
                data.fail(format!("TcpWorkers::spawn: {e}"));
                None
            }
        }
    };
    for _ in 0..2 {
        drop(spawn(data, ctx.rec));
    }
    let task_wall = |cluster: &Cluster| -> Option<(f64, u64)> {
        Request::invert(a).nb(files.nb).submit(cluster).ok()?;
        Some(backend_task_totals(cluster))
    };
    let mut cfg = ClusterConfig::medium(NODES);
    cfg.observability = true;
    let local = task_wall(&Cluster::new(cfg.clone()));
    let remote = spawn(data, ctx.rec).and_then(|backend| {
        let mut cluster = Cluster::new(cfg);
        backend.attach_dfs(cluster.dfs.clone());
        cluster.set_backend(Arc::new(backend));
        cluster.set_registry(Arc::new(mrinv::exec_registry()));
        let t = Instant::now();
        let wall = task_wall(&cluster);
        ctx.rec.leaf(
            "Request::invert via tcp:2",
            "mapreduce.exec.tcp",
            t,
            t.elapsed(),
        );
        wall
    });
    match (local, remote) {
        (Some((local_s, tasks)), Some((remote_s, _))) => {
            data.push(
                "exec_tcp.task_overhead_us",
                (remote_s - local_s) * 1e6 / tasks.max(1) as f64,
            );
        }
        _ => data.fail("exec.tcp probe: invert failed"),
    }
}
