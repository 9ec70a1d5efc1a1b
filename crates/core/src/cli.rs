//! The `mrinv` command-line front end, shared by every binary.
//!
//! ```text
//! mrinv invert --input a.txt --output inv.txt [--nodes 4] [--nb 200]
//!              [--backend in-process|tcp:<n>] [--trace-out trace.json] [--metrics-json metrics.json]
//!              [--metrics-prom metrics.prom] [--progress]
//!              [--connect ADDR [--tenant NAME]]
//! mrinv lu     --input a.txt --l l.txt --u u.txt [same flags as invert]
//! mrinv solve  --input a.txt --rhs b.txt --output x.txt [same flags]
//! mrinv gen    --order 512 --output a.txt [--seed 42]
//! mrinv serve  [--listen 127.0.0.1:7171] [--nodes 4] [--max-queue 64]
//! mrinv worker --connect <addr> --worker-id <n>
//! ```
//!
//! All three compute subcommands are projections of the one
//! [`Request`] API: `invert`/`lu`/`solve` build a request against a
//! local simulated cluster, or — with `--connect ADDR` — ship the same
//! request to a running `mrinv serve` instance as tenant `--tenant`
//! (default `cli`), sharing its factor cache with every other client.
//! The two runs differ only in where the answer comes from: their flags
//! are checked together before any file is read or any socket opened,
//! one writer writes the files, and every inverse written — computed here
//! or served — is checked against `A` on this machine (O(n³)). A flag
//! only a local run reads (`--trace-out`, `--metrics-json`,
//! `--metrics-prom`, `--progress`, `--backend tcp:<n>`) is a usage error
//! beside `--connect`, and `--tenant` is one without it.
//!
//! Exit codes: 2 for a usage error (a missing path, a count flag such as
//! `--nodes` or `--nb` given 0, an unknown flag, a flag the subcommand does
//! not read, such as `serve --backend tcp:<n>`), 1 for an I/O or
//! computation error, 3 when an inverse's residual `max |I - A·A⁻¹|`
//! exceeds 1e-5 (its file is still written).
//!
//! `--backend tcp:<n>` runs every task attempt in one of `n` real
//! `mrinv worker` processes (spawned next to this binary as
//! `mrinv-worker`) instead of in-process threads; task descriptors and
//! DFS traffic travel over loopback TCP, and a worker that dies
//! mid-attempt is replaced and the attempt retried. Results are
//! bit-identical across backends.
//!
//! Matrices use the text format of the paper's `a.txt` (a `rows cols`
//! header line, then whitespace-separated values; see
//! `mrinv_matrix::io`). The `solve` right-hand sides ride the same
//! format: each **column** of `--rhs` is one right-hand side, and the
//! solution columns land in `--output` in the same order.
//!
//! The human-readable run summary goes to **stderr**; machine-readable
//! output is opt-in: `--metrics-json` writes the [`crate::RunReport`]
//! (including per-wave straggler analytics and the cost-model audit) as
//! JSON, `--metrics-prom` writes the labeled metric registry (task
//! latency histograms, per-node utilization, kernel GFLOP/s) in
//! Prometheus text exposition format, and `--trace-out` writes a
//! Chrome/Perfetto `trace_events` file of the whole pipeline on the
//! simulated clock — open it at `ui.perfetto.dev` or `chrome://tracing`.
//! Any of these flags may be `-` for stdout. Passing any of them enables
//! per-task tracing and the labeled registry for the run (off otherwise,
//! at zero cost); `--metrics-prom` and `--metrics-json` also turn on the
//! kernel engine's per-backend perf counters. `--progress` prints a live
//! one-line jobs/ETA meter to stderr while the pipeline runs.
//!
//! The DFS is in-memory and dies with the process, so the CLI has no
//! checkpoint or resume flags: nothing a run could record would outlive
//! it. [`Request::checkpoint`] and [`Request::resume`] are the library's,
//! and `repro resume` demonstrates them.
//!
//! `serve` starts the multi-tenant inversion service
//! ([`crate::service`]) on `--listen` and blocks; `worker` is the TCP
//! backend's worker-process entry point (the standalone `mrinv-worker`
//! binary is a shim over it, kept because the backend spawns workers by
//! that file name).

use std::process::exit;
use std::sync::Arc;

use mrinv_mapreduce::{chrome_trace_json, Cluster, ClusterConfig, TcpWorkers, TcpWorkersConfig};
use mrinv_matrix::io::{decode_text, write_text};
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::random_well_conditioned;
use mrinv_matrix::Matrix;

use crate::client::{ServiceClient, ServiceReply};
use crate::error::CoreError;
use crate::request::{LuFactors, Outcome, Request};
use crate::service::{ServerHandle, ServiceConfig};
use crate::{InversionConfig, RunId, RunReport};

struct Opts {
    command: String,
    input: Option<String>,
    output: Option<String>,
    rhs: Option<String>,
    l_out: Option<String>,
    u_out: Option<String>,
    trace_out: Option<String>,
    metrics_json: Option<String>,
    metrics_prom: Option<String>,
    progress: bool,
    nodes: usize,
    nb: usize,
    order: usize,
    seed: u64,
    backend: Backend,
    connect: Option<String>,
    tenant: Option<String>,
    listen: String,
    max_queue: usize,
    worker_id: Option<usize>,
}

/// Execution backend selection (`--backend`).
enum Backend {
    /// Task attempts run on threads inside this process (default).
    InProcess,
    /// Task attempts ship to `n` spawned `mrinv-worker` processes over
    /// TCP (`--backend tcp:<n>`).
    Tcp(usize),
}

impl Opts {
    /// The inversion configuration for `a`: `--nb` (at least 1, checked
    /// in [`parse`]) capped at the matrix order.
    fn config_for(&self, a: &Matrix) -> InversionConfig {
        InversionConfig {
            nb: self.nb.min(a.rows().max(1)),
            ..InversionConfig::default()
        }
    }

    /// The first flag given that only a local run reads, if any.
    fn local_only_flag(&self) -> Option<&'static str> {
        [
            ("--trace-out", self.trace_out.is_some()),
            ("--metrics-json", self.metrics_json.is_some()),
            ("--metrics-prom", self.metrics_prom.is_some()),
            ("--progress", self.progress),
            ("--backend tcp:<n>", matches!(self.backend, Backend::Tcp(_))),
        ]
        .into_iter()
        .find_map(|(flag, given)| given.then_some(flag))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  mrinv invert --input a.txt --output inv.txt [--nodes N] [--nb NB] [--backend in-process|tcp:W] [--trace-out T.json] [--metrics-json M.json] [--metrics-prom M.prom] [--progress] [--connect ADDR [--tenant NAME]]\n  mrinv lu --input a.txt --l l.txt --u u.txt [same flags as invert]\n  mrinv solve --input a.txt --rhs b.txt --output x.txt [same flags as invert]\n  mrinv gen --order N --output a.txt [--seed S]\n  mrinv serve [--listen ADDR] [--nodes N] [--max-queue Q]\n  mrinv worker --connect <addr> --worker-id <n>"
    );
    exit(2)
}

/// A count flag's value: a usage error unless it is a number, and exit 2
/// with a reason when it is 0.
fn at_least_one(flag: &str, value: &str) -> usize {
    let n = value.parse().unwrap_or_else(|_| usage());
    if n == 0 {
        eprintln!("mrinv: {flag} must be at least 1");
        exit(2);
    }
    n
}

/// The flags every compute subcommand (`invert`, `lu`, `solve`) reads.
const COMPUTE_FLAGS: [&str; 10] = [
    "--input",
    "--nodes",
    "--nb",
    "--backend",
    "--trace-out",
    "--metrics-json",
    "--metrics-prom",
    "--progress",
    "--connect",
    "--tenant",
];

/// The flags `command` reads; a usage error for an unknown subcommand.
/// `serve` reads no `--backend`: its cluster runs tasks in-process.
fn flags_read_by(command: &str) -> Vec<&'static str> {
    let compute = |own: &[&'static str]| [&COMPUTE_FLAGS[..], own].concat();
    match command {
        "invert" => compute(&["--output"]),
        "lu" => compute(&["--l", "--u"]),
        "solve" => compute(&["--rhs", "--output"]),
        "gen" => vec!["--order", "--output", "--seed"],
        "serve" => vec!["--listen", "--nodes", "--max-queue"],
        "worker" => vec!["--connect", "--worker-id"],
        _ => usage(),
    }
}

/// Parses the command line. A flag the subcommand does not read is a
/// usage error (exit 2), refused before any file is read or any port
/// bound, so a mistyped run never silently drops what was asked of it.
fn parse(args: Vec<String>) -> Opts {
    let mut opts = Opts {
        command: String::new(),
        input: None,
        output: None,
        rhs: None,
        l_out: None,
        u_out: None,
        trace_out: None,
        metrics_json: None,
        metrics_prom: None,
        progress: false,
        nodes: 4,
        nb: 200,
        order: 0,
        seed: 42,
        backend: Backend::InProcess,
        connect: None,
        tenant: None,
        listen: "127.0.0.1:0".to_string(),
        max_queue: 64,
        worker_id: None,
    };
    let mut it = args.into_iter();
    opts.command = it.next().unwrap_or_else(|| usage());
    let reads = flags_read_by(&opts.command);
    while let Some(arg) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--input" => opts.input = Some(val()),
            "--output" => opts.output = Some(val()),
            "--rhs" => opts.rhs = Some(val()),
            "--l" => opts.l_out = Some(val()),
            "--u" => opts.u_out = Some(val()),
            "--trace-out" => opts.trace_out = Some(val()),
            "--metrics-json" => opts.metrics_json = Some(val()),
            "--metrics-prom" => opts.metrics_prom = Some(val()),
            "--progress" => opts.progress = true,
            "--nodes" => opts.nodes = at_least_one("--nodes", &val()),
            "--nb" => opts.nb = at_least_one("--nb", &val()),
            "--order" => opts.order = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = val().parse().unwrap_or_else(|_| usage()),
            "--connect" => opts.connect = Some(val()),
            "--tenant" => opts.tenant = Some(val()),
            "--listen" => opts.listen = val(),
            "--max-queue" => opts.max_queue = val().parse().unwrap_or_else(|_| usage()),
            "--worker-id" => opts.worker_id = Some(val().parse().unwrap_or_else(|_| usage())),
            "--backend" => {
                let v = val();
                opts.backend = match v.as_str() {
                    "in-process" => Backend::InProcess,
                    tcp if tcp.starts_with("tcp:") => {
                        Backend::Tcp(at_least_one("--backend tcp:<n>", &tcp[4..]))
                    }
                    _ => usage(),
                };
            }
            _ => {
                eprintln!("mrinv: unknown flag {arg}");
                usage()
            }
        }
        if !reads.contains(&arg.as_str()) {
            eprintln!("mrinv: {arg} does not apply to {}", opts.command);
            exit(2);
        }
    }
    opts
}

fn read_matrix(path: &str) -> Matrix {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("mrinv: cannot read {path}: {e}");
        exit(1)
    });
    decode_text(&text).unwrap_or_else(|e| {
        eprintln!("mrinv: cannot parse {path}: {e}");
        exit(1)
    })
}

fn write_matrix(path: &str, m: &Matrix) {
    let written = std::fs::File::create(path).and_then(|mut file| write_text(&mut file, m));
    written.unwrap_or_else(|e| {
        eprintln!("mrinv: cannot write {path}: {e}");
        exit(1)
    });
}

/// Splits a text matrix into its columns (one right-hand side each).
fn rhs_columns(b: &Matrix) -> Vec<Vec<f64>> {
    (0..b.cols())
        .map(|j| (0..b.rows()).map(|i| b[(i, j)]).collect())
        .collect()
}

/// Packs solution vectors back into a matrix of columns.
fn solutions_matrix(solutions: &[Vec<f64>]) -> Matrix {
    let n = solutions.first().map_or(0, Vec::len);
    let mut m = Matrix::zeros(n, solutions.len());
    for (j, x) in solutions.iter().enumerate() {
        for (i, &v) in x.iter().enumerate() {
            m[(i, j)] = v;
        }
    }
    m
}

/// Writes `content` to `path`, or to stdout when `path` is `-`.
fn write_output(path: &str, content: &str, what: &str) {
    if path == "-" {
        println!("{content}");
    } else {
        std::fs::write(path, content).unwrap_or_else(|e| {
            eprintln!("mrinv: cannot write {what} to {path}: {e}");
            exit(1)
        });
        eprintln!("mrinv: {what} -> {path}");
    }
}

/// Builds the cluster, with per-task tracing and the labeled metric
/// registry on when any observability output was requested. Metrics
/// output also enables the kernel engine's per-backend perf counters
/// (process-wide, so the exported GFLOP/s covers the real GEMM work).
fn build_cluster(opts: &Opts) -> Cluster {
    let wants_metrics = opts.metrics_json.is_some() || opts.metrics_prom.is_some();
    let mut cfg = ClusterConfig::medium(opts.nodes);
    cfg.tracing = opts.trace_out.is_some() || wants_metrics;
    cfg.observability = wants_metrics;
    cfg.progress = opts.progress;
    if wants_metrics {
        mrinv_matrix::kernel::perf::set_enabled(true);
    }
    let mut cluster = Cluster::new(cfg);
    if let Backend::Tcp(workers) = opts.backend {
        // The worker binary ships alongside this one.
        let worker_bin = std::env::current_exe()
            .map(|p| p.with_file_name("mrinv-worker"))
            .unwrap_or_else(|e| {
                eprintln!("mrinv: cannot locate mrinv-worker: {e}");
                exit(1)
            });
        let backend =
            TcpWorkers::spawn(TcpWorkersConfig::new(workers, worker_bin)).unwrap_or_else(|e| {
                eprintln!("mrinv: cannot start tcp workers: {e}");
                exit(1)
            });
        backend.attach_dfs(cluster.dfs.clone());
        cluster.set_backend(Arc::new(backend));
        cluster.set_registry(Arc::new(crate::exec_registry()));
        eprintln!("mrinv: tcp backend up with {workers} worker process(es)");
    }
    cluster
}

/// Prints a finished local run's cost-model and straggler lines, and
/// emits its opt-in machine-readable outputs.
fn emit_observability(opts: &Opts, cluster: &Cluster, report: &RunReport) {
    if let Some(path) = &opts.trace_out {
        let json = chrome_trace_json(&cluster.trace.events());
        write_output(path, &json, "chrome trace");
    }
    if let Some(path) = &opts.metrics_json {
        let json = serde_json::to_string_pretty(report).unwrap_or_else(|e| {
            eprintln!("mrinv: cannot serialize metrics: {e}");
            exit(1)
        });
        write_output(path, &json, "metrics");
    }
    if let Some(path) = &opts.metrics_prom {
        let text = crate::obs::full_snapshot(cluster).prometheus_text();
        write_output(path, &text, "prometheus metrics");
    }
    if let Some(audit) = &report.audit {
        let drift = if audit.within_bands {
            ""
        } else {
            " [MODEL DRIFT]"
        };
        eprintln!("  cost model: {audit}{drift}");
    }
    if let Some(analytics) = &report.analytics {
        let ratio = analytics.worst_straggler_ratio();
        if ratio > 1.0 {
            eprintln!(
                "  straggler ratio (max/median, worst wave): {ratio:.2}; \
                 lost work from retries: {:.1} simulated s over {} retried attempts",
                analytics.lost_task_secs, analytics.retried_attempts
            );
        }
    }
}

/// `mrinv serve`: starts the multi-tenant service and blocks forever.
/// The bound address (useful with `--listen 127.0.0.1:0`) is printed to
/// stdout as `listening on <addr>` so scripts can scrape it.
fn run_serve(opts: &Opts) {
    let mut cfg = ClusterConfig::medium(opts.nodes);
    // Tenant/request metrics are the service's flight recorder; always on.
    cfg.observability = true;
    let cluster = Arc::new(Cluster::new(cfg));
    let service = ServiceConfig {
        addr: opts.listen.clone(),
        max_queue_per_tenant: opts.max_queue,
    };
    let handle = ServerHandle::start(cluster, service).unwrap_or_else(|e| {
        eprintln!("mrinv: cannot start service: {e}");
        exit(1)
    });
    println!("listening on {}", handle.addr());
    eprintln!(
        "mrinv: serving {} simulated node(s), per-tenant queue limit {}",
        opts.nodes, opts.max_queue
    );
    loop {
        std::thread::park();
    }
}

/// What differs between the compute subcommands: the request they
/// build, the files they write, and one line of the summary.
#[derive(Clone, Copy)]
enum ComputeOp<'a> {
    Invert { output: &'a str },
    Lu { l_out: &'a str, u_out: &'a str },
    Solve { rhs: &'a str, output: &'a str },
}

/// Where a compute subcommand's answer came from.
enum Answer {
    /// [`Request::submit`] on a local cluster, whose trace and metrics the
    /// observability flags write.
    Local(Box<(Cluster, Outcome)>),
    /// A `mrinv serve` instance.
    Remote(ServiceReply),
}

impl Answer {
    /// The answer's inverse, factors and solutions (each op fills one),
    /// and the pipeline jobs and simulated seconds it cost.
    fn parts(&self) -> (Option<&Matrix>, Option<&LuFactors>, &[Vec<f64>], u64, f64) {
        match self {
            Answer::Local(local) => {
                let (out, report) = (&local.1, &local.1.report);
                (
                    out.inverse(),
                    out.factors(),
                    out.solutions(),
                    report.jobs,
                    report.sim_secs,
                )
            }
            Answer::Remote(r) => (
                r.inverse.as_ref(),
                r.factors.as_ref(),
                &r.solutions,
                r.jobs,
                r.sim_secs,
            ),
        }
    }
}

/// The compute subcommand the flags ask for, and its input: every path it
/// needs, checked before any file is read or any socket opened.
fn compute_op(opts: &Opts) -> (ComputeOp<'_>, &str) {
    let flags = (&opts.output, &opts.l_out, &opts.u_out, &opts.rhs);
    let op = match (opts.command.as_str(), flags) {
        ("invert", (Some(output), ..)) => ComputeOp::Invert { output },
        ("lu", (_, Some(l_out), Some(u_out), _)) => ComputeOp::Lu { l_out, u_out },
        ("solve", (Some(output), _, _, Some(rhs))) => ComputeOp::Solve { rhs, output },
        _ => usage(),
    };
    if let (Some(_), Some(flag)) = (&opts.connect, opts.local_only_flag()) {
        eprintln!("mrinv: {flag} applies to a local run; it cannot be combined with --connect");
        exit(2);
    }
    if opts.connect.is_none() && opts.tenant.is_some() {
        eprintln!("mrinv: --tenant applies to a --connect run");
        exit(2);
    }
    (op, opts.input.as_deref().unwrap_or_else(|| usage()))
}

/// Runs a compute subcommand on a local simulated cluster, or on the
/// `mrinv serve` instance at `--connect`, then writes its answer and, for
/// an inverse, checks the residual.
fn run_compute(opts: &Opts) {
    let (op, input) = compute_op(opts);
    let failed = match op {
        ComputeOp::Invert { .. } => "inversion",
        ComputeOp::Lu { .. } => "decomposition",
        ComputeOp::Solve { .. } => "solve",
    };
    let a = read_matrix(input);
    let rhs = match op {
        ComputeOp::Solve { rhs, .. } => rhs_columns(&read_matrix(rhs)),
        _ => Vec::new(),
    };
    let cfg = opts.config_for(&a);
    let fail = |e: CoreError| -> ! {
        eprintln!("mrinv: {failed} failed: {e}");
        exit(1)
    };
    let (answer, origin) = match &opts.connect {
        None => {
            let cluster = build_cluster(opts);
            let request = match op {
                ComputeOp::Invert { .. } => Request::invert(&a),
                ComputeOp::Lu { .. } => Request::lu(&a),
                ComputeOp::Solve { .. } => Request::solve(&a).rhs_all(rhs.iter().cloned()),
            };
            // One fixed directory: job names (`final-inverse:mrinv/cli`) in
            // traces and metrics read the same from run to run.
            let run = RunId::new("mrinv/cli");
            let out = request.config(&cfg).workdir(&run).submit(&cluster);
            let out = out.unwrap_or_else(|e| fail(e));
            let origin = format!("on {} simulated nodes", opts.nodes);
            (Answer::Local(Box::new((cluster, out))), origin)
        }
        Some(addr) => {
            let tenant = opts.tenant.as_deref().unwrap_or("cli");
            let mut client = ServiceClient::connect(addr, tenant).unwrap_or_else(|e| {
                eprintln!("mrinv: {e}");
                exit(1)
            });
            let reply = match op {
                ComputeOp::Invert { .. } => client.invert(&a, &cfg),
                ComputeOp::Lu { .. } => client.lu(&a, &cfg),
                ComputeOp::Solve { .. } => client.solve(&a, &rhs, &cfg),
            };
            let reply = reply.unwrap_or_else(|e| fail(e));
            let hit = reply.cache_hit.then_some(" (factor-cache hit)");
            let origin = format!("by {addr} as tenant {tenant}{}", hit.unwrap_or(""));
            (Answer::Remote(reply), origin)
        }
    };
    let missing = |what: &str| -> ! {
        eprintln!("mrinv: the answer holds no {what}");
        exit(1)
    };
    let (rows, cols) = (a.rows(), a.cols());
    let (inverse, factors, solutions, jobs, sim_secs) = answer.parts();
    let mut residual = None;
    match op {
        ComputeOp::Invert { output } => {
            let inverse = inverse.unwrap_or_else(|| missing("inverse"));
            // Checked here for every inverse written, wherever it came from.
            residual = Some(inversion_residual(&a, inverse).unwrap_or(f64::NAN));
            write_matrix(output, inverse);
            eprintln!("inverted {rows}x{cols} {origin}: {jobs} jobs, {sim_secs:.1} simulated s");
        }
        ComputeOp::Lu { l_out, u_out } => {
            let f = factors.unwrap_or_else(|| missing("factors"));
            write_matrix(l_out, &f.l);
            write_matrix(u_out, &f.u);
            eprintln!(
                "decomposed {rows}x{cols} {origin}: {jobs} jobs; P stored implicitly (PA = LU), S = {:?}...",
                &f.perm.as_slice()[..f.perm.len().min(8)]
            );
        }
        ComputeOp::Solve { output, .. } => {
            write_matrix(output, &solutions_matrix(solutions));
            eprintln!(
                "solved {} right-hand side(s) against {rows}x{cols} {origin}: {jobs} jobs, {sim_secs:.1} simulated s",
                solutions.len()
            );
        }
    }
    if let Some(res) = residual {
        eprintln!("max |I - A*A^-1| = {res:.3e} (paper threshold 1e-5)");
    }
    if let Answer::Local(local) = &answer {
        emit_observability(opts, &local.0, &local.1.report);
    }
    if residual.is_some_and(|res| res.is_nan() || res >= 1e-5) {
        eprintln!("mrinv: WARNING: residual exceeds the accuracy threshold");
        exit(3);
    }
}

/// Entry point of the `mrinv-worker` shim binary, which takes only the
/// two worker flags (anything else is a usage error). Returns the process
/// exit code.
pub fn worker_main(args: Vec<String>) -> i32 {
    let (mut addr, mut worker_id) = (None, None);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => addr = it.next(),
            "--worker-id" => worker_id = it.next().and_then(|v| v.parse().ok()),
            _ => return serve_worker(None, None),
        }
    }
    serve_worker(addr, worker_id)
}

/// Worker-process body shared by `mrinv worker` and the `mrinv-worker`
/// shim binary: connect back to the driver and serve task descriptors
/// until shutdown. Returns the process exit code.
fn serve_worker(addr: Option<String>, worker_id: Option<usize>) -> i32 {
    let (Some(addr), Some(worker_id)) = (addr, worker_id) else {
        eprintln!("usage: mrinv worker --connect <addr> --worker-id <n>");
        return 2;
    };

    // Lets in-crate task code (the die-once fault probe) detect that it
    // is running inside a disposable worker process.
    std::env::set_var(crate::remote::WORKER_ENV, "1");

    let registry = crate::remote::exec_registry();
    if let Err(e) = mrinv_mapreduce::worker_serve(&addr, worker_id, &registry) {
        eprintln!("mrinv-worker {worker_id}: {e}");
        return 1;
    }
    0
}

/// Full subcommand dispatch; `args` excludes the program name. Returns
/// the process exit code (compute subcommands exit directly on error).
pub fn run(args: Vec<String>) -> i32 {
    let opts = parse(args);
    match opts.command.as_str() {
        "gen" => {
            let (Some(output), order) = (&opts.output, opts.order) else {
                usage()
            };
            if order == 0 {
                usage()
            }
            let a = random_well_conditioned(order, opts.seed);
            write_matrix(output, &a);
            eprintln!("wrote a well-conditioned {order}x{order} matrix to {output}");
        }
        "invert" | "lu" | "solve" => run_compute(&opts),
        "serve" => run_serve(&opts),
        "worker" => return serve_worker(opts.connect, opts.worker_id),
        _ => usage(),
    }
    0
}
