//! `lib-*` driver: cold `Request::invert` then cold `Request::solve`, in
//! process, each on a fresh `Cluster::medium(4)` built outside the timed
//! span.

use std::time::Instant;

use mrinv::inmem::invert_single_node;
use mrinv::{Outcome, Request};
use mrinv_mapreduce::{Cluster, ClusterConfig, TaskEvent, TracePhase};
use mrinv_matrix::kernel::perf;
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::Matrix;

use crate::pass::{
    measure, proc_status_mb, solve_residual, warm_up, within_accuracy, Checker, PassData, RunCtx,
};
use crate::spec::NODES;
use crate::stats::{derive_seed, hash_f64s};

/// A fresh cluster; a traced run turns on the program's registry and
/// task log (`kernel::perf` is process-wide and switched by the caller).
pub fn new_cluster(traced: bool) -> Cluster {
    let mut cfg = ClusterConfig::medium(NODES);
    cfg.observability = traced;
    cfg.tracing = traced;
    Cluster::new(cfg)
}

/// Seconds inside task bodies and the number of task attempts, summed
/// over the registry's `mrinv_backend_task_wall_seconds` and
/// `mrinv_backend_tasks_total` series (the cluster needs
/// `observability` on).
pub fn backend_task_totals(cluster: &Cluster) -> (f64, u64) {
    let snap = cluster.obs_snapshot();
    let secs = snap
        .histograms
        .iter()
        .filter(|h| h.name == "mrinv_backend_task_wall_seconds")
        .map(|h| h.hist.sum)
        .sum();
    let tasks = snap
        .counters
        .iter()
        .filter(|c| c.name == "mrinv_backend_tasks_total")
        .map(|c| c.value)
        .sum();
    (secs, tasks)
}

/// What the program's own counters say about one cold invert, read from
/// `RunReport`, the cluster's registry, its task log and `kernel::perf`.
pub fn layer_readings(
    data: &mut PassData,
    n: usize,
    invert_ms: f64,
    out: &Outcome,
    cluster: &Cluster,
    events: &[TaskEvent],
) {
    let r = &out.report;
    let (task_body_secs, tasks) = backend_task_totals(cluster);
    let task_body_ms = task_body_secs * 1e3;
    let cpu_ms = |keep: &dyn Fn(&TaskEvent) -> bool| -> f64 {
        events
            .iter()
            .filter(|e| keep(e))
            .map(|e| e.cpu_secs)
            .sum::<f64>()
            * 1e3
    };
    let master_ms = cpu_ms(&|e| e.phase == TracePhase::Master);
    let stage = |prefix: &'static str| {
        cpu_ms(&move |e| {
            matches!(e.phase, TracePhase::Map | TracePhase::Reduce) && e.job.starts_with(prefix)
        })
    };
    let self_ms = invert_ms - task_body_ms - master_ms;
    data.push("request.jobs", r.jobs as f64);
    data.push("request.tasks", tasks as f64);
    data.push("request.task_body_ms", task_body_ms);
    data.push("request.master_ms", master_ms);
    data.push("runner.self_ms", self_ms);
    data.push(
        "runner.self_per_job_us",
        self_ms * 1e3 / r.jobs.max(1) as f64,
    );
    data.push("runner.self_share", self_ms / invert_ms);
    data.push("stage.partition_ms", stage("partition:"));
    data.push("stage.lu_ms", stage("lu-level:"));
    data.push("stage.tri_inv_ms", stage("final-inverse:"));

    let kernel = perf::snapshot();
    let gemm_ms = kernel.iter().map(|p| p.secs).sum::<f64>() * 1e3;
    data.push("kernel.gemm_ms", gemm_ms);
    data.push(
        "kernel.gemm_calls",
        kernel.iter().map(|p| p.calls).sum::<u64>() as f64,
    );
    data.push(
        "kernel.gflop",
        kernel.iter().map(|p| p.flops).sum::<u64>() as f64 / 1e9,
    );
    data.push("kernel.gemm_share", gemm_ms / invert_ms);

    data.push("dfs.read_mb", r.dfs_bytes_read as f64 / 1e6);
    data.push("dfs.write_mb", r.dfs_bytes_written as f64 / 1e6);
    data.push("dfs.files", cluster.dfs.counters().files_written as f64);
    data.push(
        "dfs.read_amplification",
        r.dfs_bytes_read as f64 / mrinv_matrix::io::binary_size(n, n) as f64,
    );
    data.push("shuffle.bytes", r.shuffle_bytes as f64);
}

/// Runs `ctx.rounds` rounds of cold invert + cold solve at order `n`,
/// block bound `nb`.
pub fn run(name: &str, n: usize, nb: usize, ctx: &mut RunCtx<'_>) -> PassData {
    let mut data = PassData {
        workload: name.to_string(),
        rounds_planned: ctx.rounds as u64,
        ..PassData::default()
    };
    let mut checker = Checker::default();

    let setup_start = Instant::now();
    let setup_span = ctx.rec.enter("setup", "harness");
    let t = Instant::now();
    let a = random_well_conditioned(n, derive_seed(ctx.seed, name, 0));
    let b = random_matrix(n, 1, derive_seed(ctx.seed, name, 1)).into_vec();
    data.input_hashes = vec![hash_f64s(a.as_slice()), hash_f64s(&b)];
    ctx.rec.leaf("generate inputs", "harness", t, t.elapsed());

    let t = Instant::now();
    let reference = invert_single_node(&a).expect("well-conditioned input inverts");
    let single = t.elapsed();
    ctx.rec.leaf("invert_single_node", "core.inmem", t, single);
    data.push("inmem.single_node_ms", single.as_secs_f64() * 1e3);

    let mut round = |_id: u64, ctx: &mut RunCtx<'_>, data: &mut PassData| {
        round(&a, &b, &reference, n, nb, ctx, &mut checker, data)
    };
    warm_up(ctx, &mut data, &mut round);
    ctx.rec.exit(setup_span);
    data.setup_s = setup_start.elapsed().as_secs_f64();

    measure(ctx, &mut data, 2, &mut round);
    data.peak_rss_mb = proc_status_mb("VmHWM");
    data
}

/// One round: invert, check, solve, check. Only the two `submit` calls
/// are timed.
#[allow(clippy::too_many_arguments)]
fn round(
    a: &Matrix,
    b: &[f64],
    reference: &Matrix,
    n: usize,
    nb: usize,
    ctx: &mut RunCtx<'_>,
    checker: &mut Checker,
    data: &mut PassData,
) {
    let traced = ctx.rec.is_enabled();
    let round_span = ctx.rec.enter("round", "harness");
    let failed_before = data.failed;
    let mut round_ms = 0.0;

    // Cold invert.
    let cluster = new_cluster(traced);
    if traced {
        perf::reset();
    }
    data.attempted += 1;
    let t = Instant::now();
    let result = Request::invert(a).nb(nb).submit(&cluster);
    let d = t.elapsed();
    let op = ctx.rec.leaf("Request::invert", "core.request", t, d);
    let invert_ms = d.as_secs_f64() * 1e3;
    round_ms += invert_ms;
    match result {
        Err(e) => data.fail(format!("invert: {e}")),
        Ok(out) => {
            data.push("invert_ms", invert_ms);
            if traced {
                let events = cluster.trace.events();
                layer_readings(data, n, invert_ms, &out, &cluster, &events);
                ctx.rec.import(op, &events);
            }
            let t = Instant::now();
            let inv = out.inverse().expect("invert outcome has an inverse");
            let verdict = checker.output("invert", hash_f64s(inv.as_slice()), || {
                within_accuracy(inversion_residual(a, inv).map_err(|e| e.to_string())?)?;
                let gap = inv.max_abs_diff(reference).map_err(|e| e.to_string())?;
                within_accuracy(gap).map_err(|e| format!("against invert_single_node: {e}"))
            });
            if let Err(e) = verdict {
                data.wrong(e);
            }
            ctx.rec.leaf("check invert", "harness", t, t.elapsed());
        }
    }
    drop(cluster);

    // Cold solve, one right-hand side.
    let cluster = new_cluster(traced);
    data.attempted += 1;
    let t = Instant::now();
    let result = Request::solve(a).rhs(b.to_vec()).nb(nb).submit(&cluster);
    let d = t.elapsed();
    let op = ctx.rec.leaf("Request::solve", "core.request", t, d);
    let solve_ms = d.as_secs_f64() * 1e3;
    round_ms += solve_ms;
    match result {
        Err(e) => data.fail(format!("solve: {e}")),
        Ok(out) => {
            data.push("solve_ms", solve_ms);
            if traced {
                ctx.rec.import(op, &cluster.trace.events());
            }
            let t = Instant::now();
            let x = &out.solutions()[0];
            let verdict = checker.output("solve", hash_f64s(x), || {
                within_accuracy(solve_residual(a, x, b)?)
            });
            if let Err(e) = verdict {
                data.wrong(e);
            }
            ctx.rec.leaf("check solve", "harness", t, t.elapsed());
        }
    }
    drop(cluster);

    if data.failed == failed_before {
        data.push("round_ms", round_ms);
    }
    ctx.rec.exit(round_span);
}
