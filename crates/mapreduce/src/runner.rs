//! Job execution: launch → map wave → shuffle → reduce wave.
//!
//! Every job is one round through one private engine ([`run_job`] and
//! [`run_map_only`] are its two entry points); a map-only job is the
//! zero-reducer case of the same round — no partitioning, no shuffle, no
//! reduce wave. Each wave ends at a barrier: the shuffle is charged after
//! the last mapper commits, and the reduce wave starts after the shuffle.
//!
//! Tasks execute for real, in parallel, through rayon; the *simulated*
//! duration of each wave comes from replaying the counted per-task work
//! through the fault- and locality-aware wave planner (see
//! [`crate::scheduler::plan_wave`]). The planner places each map task
//! preferentially on a node holding a DFS replica of its input (charging
//! one network crossing otherwise) — from the per-node tally of local bytes
//! the task's reads left in its `TaskIo`, so settling a wave makes no DFS
//! call — re-executes attempts lost to injected
//! faults, node deaths, and task timeouts, and charges every lost attempt
//! to the schedule — so failures lengthen the simulated run exactly as the
//! paper's Section 7.4 failed-mapper experiment describes.
//!
//! Mid-run whole-node deaths (`crate::fault::FaultPlan::kill_node`)
//! follow Hadoop 1.x semantics: a map task's output lives on its node's
//! local disk (not in the DFS), so completed map tasks on a node that dies
//! before the shuffle lose their output and re-execute; reduce outputs and
//! map-only side files are replicated DFS writes and survive. When the
//! cluster clock passes a scheduled death the node's DFS replicas are
//! invalidated too — subsequent reads of files whose every replica lived
//! there fail the job with [`MrError::AllReplicasLost`].
//!
//! A job is observed in exactly one place, its exit (`finish_job`). Task
//! bodies only fill their body chain — stats, failure cause, backend wall
//! time per executed attempt; once the waves are planned, one walk per wave
//! on the driver thread turns `(WavePlan, chain)` into the attempt
//! [`TaskEvent`]s and every labeled series, with each gate read once.
//!
//! Tasks must be deterministic and idempotent: a retried attempt re-runs
//! the same body, and side writes to the DFS overwrite those of the failed
//! attempt (the paper's tasks write worker-unique files, Section 5.2).

use rayon::prelude::*;
use serde::{Deserialize, Serialize, Value};

use crate::cluster::{Cluster, MAX_TASK_ATTEMPTS, RETRY_BACKOFF_BASE_SECS, RETRY_BACKOFF_CAP_SECS};
use crate::error::{MrError, Result};
use crate::exec::{
    decode_as, map_body, reduce_body, ErasedPayload, JobCodec, RawMapPayload, RawReducePayload,
    TaskDescriptor,
};
use crate::fault::{FailureCause, Phase};
use crate::job::{JobSpec, Mapper, Reducer, TaskStats};
use crate::obs::{Labels, Registry};
use crate::scheduler::{plan_wave, speculate, AttemptOutcome, PlannedTask, WaveFaults, WavePlan};
use crate::shuffle::{parallel_shuffle, partition_pairs, ReducerInput};
use crate::tracelog::{TaskEvent, TracePhase};

/// Accounting for one executed job.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Cluster-wide 0-based job sequence number (ties this report to its
    /// trace events).
    pub job_seq: u64,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Failed task attempts (map + reduce), counting both body-level
    /// failures (injected faults, user errors) and simulation-level ones
    /// (node losses, lost map outputs, timeouts).
    pub failures: u32,
    /// Simulated seconds: launch + map wave + shuffle + reduce wave.
    pub sim_secs: f64,
    /// Simulated seconds of the map wave alone.
    pub map_wave_secs: f64,
    /// Simulated seconds of the shuffle alone.
    pub shuffle_secs: f64,
    /// Simulated seconds of the reduce wave alone.
    pub reduce_wave_secs: f64,
    /// Aggregate measured work across all successful attempts.
    pub stats: TaskStats,
    /// Aggregate measured work of the failed body attempts (zero in a
    /// clean run). Their DFS bytes were really moved, so a run's totals
    /// count them beside `stats`.
    pub failed_stats: TaskStats,
    /// Map tasks whose successful attempt read all its input from replicas
    /// on its own node (tasks that read nothing count as local).
    pub data_local_tasks: usize,
    /// Input bytes the map wave pulled from replicas on other nodes.
    pub remote_read_bytes: u64,
    /// The job's identity within its pipeline: the run configuration, the
    /// job spec ([`crate::job::JobSpec::fingerprint`]) and the job's
    /// position, mixed. Stamped by [`crate::driver::PipelineDriver::step`];
    /// 0 for a job run outside a pipeline.
    pub fingerprint: u64,
}

/// One executed body attempt of a task: its measured work, why it failed
/// (`None` marks the successful one), and the wall-clock seconds the
/// backend took to execute it.
struct BodyAttempt {
    stats: TaskStats,
    failure: Option<FailureCause>,
    wall_secs: f64,
}

/// Per-task execution result: the *body chain* — every executed attempt,
/// in order — plus the successful attempt's payload. `payload: None` means
/// the task exhausted its attempt budget; the wave is still planned and
/// observed before the job fails.
struct TaskRun<T> {
    chain: Vec<BodyAttempt>,
    payload: Option<T>,
}

/// Runs one task with the retry policy, returning the body chain. An
/// attempt is `execute` — timed, as real elapsed time: under a remote
/// backend it includes serialization, the network round trip, and the
/// worker's execution — then `post`, the driver-side tail (partitioning).
///
/// Exhausting the attempt budget is NOT an error here — the failed chain
/// comes back with `payload: None` so the wave planner can still place,
/// price, and trace the doomed attempts before the job fails. Replica loss
/// is: a retry would re-read the same dead replicas.
fn run_with_retries<R, T>(
    cluster: &Cluster,
    job: &str,
    phase: Phase,
    task_index: usize,
    execute: impl Fn() -> Result<(R, TaskStats)>,
    post: impl Fn(R) -> T,
) -> Result<TaskRun<T>> {
    let mut chain = Vec::new();
    for _attempt in 0..MAX_TASK_ATTEMPTS {
        let wall = std::time::Instant::now();
        let executed = execute();
        let wall_secs = wall.elapsed().as_secs_f64();
        let (stats, payload, failure) = match executed {
            Ok((raw, stats)) => {
                let payload = post(raw);
                if cluster.faults.should_fail(job, phase, task_index) {
                    // The attempt ran to completion but its node "died": the
                    // work is lost and charged, and the task is rescheduled.
                    (stats, None, Some(FailureCause::Injected))
                } else {
                    (stats, Some(payload), None)
                }
            }
            Err(fatal @ MrError::AllReplicasLost { .. }) => return Err(fatal),
            Err(MrError::WorkerLost { worker, .. }) => {
                // A real worker process died mid-attempt. It has already
                // left its backend's pool, which blocks or respawns on
                // checkout, so the retry goes out at once; the attempt
                // budget bounds a worker that dies every time.
                let cause = FailureCause::WorkerLost(worker);
                (TaskStats::default(), None, Some(cause))
            }
            Err(e) => {
                // User-visible task error: charge nothing measurable (the
                // body already failed) and retry like Hadoop would.
                let e = MrError::UserTask {
                    job: job.to_string(),
                    phase,
                    task: task_index,
                    message: e.to_string(),
                };
                let cause = FailureCause::UserError(e.to_string());
                (TaskStats::default(), None, Some(cause))
            }
        };
        chain.push(BodyAttempt {
            stats,
            failure,
            wall_secs,
        });
        if payload.is_some() {
            return Ok(TaskRun { chain, payload });
        }
    }
    let payload = None;
    Ok(TaskRun { chain, payload })
}

/// Applies every scheduled node death whose instant the cluster clock has
/// passed: the node's DFS replicas are invalidated and (when tracing) an
/// instantaneous [`TracePhase::NodeDeath`] marker is recorded at the death
/// time. Called on job entry — so a prior job's death is visible to this
/// job's reads and placement — and after the clock advances on job exit.
fn fire_due_deaths(cluster: &Cluster) {
    let now = cluster.sim_secs();
    for (node, at) in cluster.faults.deaths_due(now) {
        cluster.dfs.kill_node(node);
        if cluster.trace.is_enabled() {
            cluster.trace.record(TaskEvent {
                task: node,
                node: Some(node),
                ..TaskEvent::span("cluster", None, TracePhase::NodeDeath, at, at)
            });
        }
    }
}

/// Settles one executed wave into its plan: each executed attempt priced
/// at nominal speed and, on a wave that keeps locality (`local` extracts
/// the per-node tally from a map payload), the successful attempt's reads
/// placed by the replica homes they found — no DFS call — planned against
/// the fault state. Nodes die only between jobs (`fire_due_deaths`), and
/// no task rewrites a file another task of its wave reads, so the homes a
/// read found are the homes at settle time.
/// `lose_completed_outputs` is true only for a map wave feeding a shuffle
/// — its outputs are node-local (Hadoop), so a node dying before the
/// shuffle takes its completed tasks' outputs with it; reduce outputs and
/// map-only side files are replicated DFS writes.
fn settle_wave<T>(
    cluster: &Cluster,
    runs: &[TaskRun<T>],
    local: Option<fn(&T) -> &[u64]>,
    wave_start_secs: f64,
    lose_completed_outputs: bool,
) -> WavePlan {
    let cost = &cluster.config.cost;
    let tasks: Vec<PlannedTask> = runs
        .iter()
        .map(|run| {
            let secs = |body: &BodyAttempt| cost.task_secs(&body.stats);
            let split = run.chain.len() - usize::from(run.payload.is_some());
            let mut task = PlannedTask {
                failed_secs: run.chain[..split].iter().map(secs).collect(),
                success_secs: run.chain.get(split).map_or(0.0, secs),
                ..PlannedTask::default()
            };
            if let (Some(local), Some(payload)) = (local, &run.payload) {
                task.read_bytes = run.chain[split].stats.read_bytes;
                task.local = local(payload);
            }
            task
        })
        .collect();
    plan_with_faults(cluster, &tasks, wave_start_secs, lose_completed_outputs)
}

/// Plans one wave against the cluster's current fault state: greedy
/// placement ([`plan_wave`]) followed, with `speculative_execution` on, by
/// the backup of the wave's makespan-defining straggler ([`speculate`]).
///
/// Two-pass death handling: the wave is planned and backed up fault-free
/// first, and only if the next scheduled death lands inside *that*
/// makespan is it re-planned with the death injected mid-wave — a death
/// after the backed-up wave really ended belongs to the next wave. The
/// re-planned wave gets no backup (`speculate` suspends itself during
/// failure recovery).
fn plan_with_faults(
    cluster: &Cluster,
    tasks: &[PlannedTask],
    wave_start_secs: f64,
    lose_completed_outputs: bool,
) -> WavePlan {
    let cfg = &cluster.config;
    let speeds = cfg.speeds();
    let mut faults = WaveFaults {
        dead_nodes: cluster.faults.dead_nodes(),
        node_death: None,
        lose_completed_outputs,
        timeout_secs: cfg.task_timeout_secs,
        backoff_base_secs: RETRY_BACKOFF_BASE_SECS,
        backoff_cap_secs: RETRY_BACKOFF_CAP_SECS,
        max_attempts: MAX_TASK_ATTEMPTS,
        net_bw: cfg.cost.net_bw,
    };
    let plan_once = |faults: &WaveFaults| {
        let mut plan = plan_wave(tasks, &speeds, cfg.slots_per_node, faults);
        if cfg.speculative_execution {
            speculate(&mut plan, tasks, &speeds, cfg.slots_per_node, faults);
        }
        plan
    };
    let mut plan = plan_once(&faults);
    if let Some((node, at)) = cluster.faults.pending_death() {
        let rel = (at - wave_start_secs).max(0.0);
        if rel < plan.makespan_secs {
            faults.node_death = Some((node, rel));
            plan = plan_once(&faults);
        }
    }
    plan
}

/// The simulation-level failure a planned attempt ended in, if any: a node
/// death, a lost map output, or a timeout (body-level failures are in the
/// task's body chain).
fn sim_failure(outcome: &AttemptOutcome) -> Option<FailureCause> {
    match *outcome {
        AttemptOutcome::Success | AttemptOutcome::BodyFailed => None,
        AttemptOutcome::NodeLost(n) => Some(FailureCause::NodeLost(n)),
        AttemptOutcome::OutputLost(n) => Some(FailureCause::OutputLost(n)),
        AttemptOutcome::TimedOut { limit_secs } => Some(FailureCause::TimedOut { limit_secs }),
    }
}

/// The first task a planned wave could not complete (attempt budget
/// exhausted at either the body or the simulation level).
fn first_failed_task(plan: &WavePlan) -> Option<usize> {
    plan.failed_tasks.iter().map(|&(t, _)| t).min()
}

/// The one walk over a settled wave — its body chains (what executed) and
/// its plan (where and when the scheduler put it) — that settles all its
/// accounts. Behind the gates [`finish_job`] read — `events` and `obs` are
/// `Some` exactly when theirs was on — one [`TaskEvent`] per planned attempt,
/// offset to `base_secs` on the cluster clock, and every labeled series of
/// the wave, its handles resolved once, here, on the driver thread. Returns
/// the wave's failed attempts.
///
/// Failure classes come from two disjoint sets, so no failure is counted
/// twice: body-level causes (injected faults, user errors, lost workers)
/// sit in the chain, simulation-level ones (node losses, lost outputs,
/// timeouts) in the plan's outcomes.
fn observe_wave<T>(
    cluster: &Cluster,
    (job, job_seq): (&str, u64),
    phase: Phase,
    (runs, plan): (&[TaskRun<T>], &WavePlan),
    base_secs: f64,
    obs: Option<&Registry>,
    mut events: Option<&mut Vec<TaskEvent>>,
) -> u64 {
    let (wave, trace_phase) = match phase {
        Phase::Map => ("map", TracePhase::Map),
        Phase::Reduce => ("reduce", TracePhase::Reduce),
    };
    let cost = &cluster.config.cost;
    let nodes = cluster.config.nodes.max(1);
    let labeled = obs.map(|obs| (obs, Labels::new().job(job).wave(wave)));
    let series = labeled.as_ref().map(|(obs, job_wave)| {
        let backend = job_wave.clone().backend(cluster.backend().name());
        (
            obs.histogram("mrinv_backend_task_wall_seconds", &backend),
            obs.counter("mrinv_backend_tasks_total", &backend),
            obs.histogram("mrinv_task_run_seconds", job_wave),
            obs.histogram("mrinv_task_wait_seconds", job_wave),
            obs.counter("mrinv_task_attempts_total", job_wave),
        )
    });
    let count_failure = |cause: &FailureCause| {
        if let Some((obs, job_wave)) = &labeled {
            let labels = job_wave.clone().task_kind(cause.kind_label());
            obs.counter("mrinv_task_failures_total", &labels).add(1);
        }
    };
    let mut node_attempts = vec![0u64; nodes];
    let mut failures = 0;
    for (task, (run, attempts)) in runs.iter().zip(&plan.attempts).enumerate() {
        for body in &run.chain {
            if let Some((wall_h, tasks_c, ..)) = &series {
                wall_h.observe(body.wall_secs);
                tasks_c.add(1);
            }
            if let Some(cause) = &body.failure {
                failures += 1;
                count_failure(cause);
            }
        }
        for (attempt_no, a) in attempts.iter().enumerate() {
            let body = run.chain.get(a.chain);
            let sim_cause = sim_failure(&a.outcome);
            if let Some(cause) = &sim_cause {
                failures += 1;
                count_failure(cause);
            }
            if let Some((.., run_h, wait_h, attempts_c)) = &series {
                attempts_c.add(1);
                run_h.observe(a.end - a.start);
                if attempt_no == 0 {
                    // Wait = time from wave start until the task's first
                    // attempt is placed on a slot.
                    wait_h.observe(a.start);
                }
            }
            if let Some(n) = node_attempts.get_mut(a.node) {
                *n += 1;
            }
            let Some(events) = events.as_deref_mut() else {
                continue;
            };
            let stats = body.map(|b| b.stats).unwrap_or_default();
            let cause = match a.outcome {
                AttemptOutcome::BodyFailed => body.and_then(|b| b.failure.as_ref()),
                _ => sim_cause.as_ref(),
            };
            let (cpu_sim, io_sim) = cost.task_secs_split(&stats);
            events.push(TaskEvent {
                job: job.to_string(),
                job_seq: Some(job_seq),
                phase: trace_phase,
                task,
                attempt: attempt_no as u32,
                node: Some(a.node),
                sim_start_secs: base_secs + a.start,
                sim_end_secs: base_secs + a.end,
                cpu_secs: stats.cpu.as_secs_f64(),
                flops: stats.flops,
                cpu_sim_secs: cpu_sim,
                io_sim_secs: io_sim,
                read_bytes: stats.read_bytes,
                write_bytes: stats.write_bytes,
                shuffle_bytes: stats.shuffle_bytes,
                remote_read_bytes: a.remote_bytes,
                failure: cause.map(FailureCause::label),
            });
        }
    }
    let Some((obs, job_wave)) = &labeled else {
        return failures;
    };
    let retries = plan.extra_attempts();
    if retries > 0 {
        obs.counter("mrinv_task_retries_total", job_wave)
            .add(retries as u64);
    }
    // Resolved unconditionally so the series exists (at 0) even when no
    // backup won — `traced_run_exports_prometheus_and_clean_audit`
    // (`tests/observability.rs`) requires it in the export.
    obs.counter("mrinv_sched_steals_total", job_wave)
        .add(plan.steals);
    if plan.remote_read_bytes > 0 {
        obs.counter("mrinv_wave_remote_read_bytes_total", job_wave)
            .add(plan.remote_read_bytes);
    }
    // Utilization inputs: per-node busy time and attempts.
    let busy = plan.node_busy_secs(nodes);
    for (node, (busy, attempts)) in busy.into_iter().zip(node_attempts).enumerate() {
        if attempts == 0 {
            continue;
        }
        let node_labels = Labels::new().node(node);
        obs.gauge("mrinv_node_busy_seconds", &node_labels).add(busy);
        obs.counter("mrinv_node_attempts_total", &node_labels)
            .add(attempts);
    }
    failures
}

/// Remote-execution hooks for one wave, present only when the cluster's
/// backend asked for descriptors ([`crate::exec::ExecBackend::wants_descriptors`])
/// and the job's [`JobSpec::remote`] family is registered.
struct RemoteWave<'a> {
    family: &'a str,
    /// Builds task `idx`'s family-specific descriptor payload.
    encode: &'a (dyn Fn(usize) -> Result<Value> + Sync),
    /// Decodes a remote result payload into the wave's erased payload.
    decode: fn(&Value) -> Result<ErasedPayload>,
}

/// Resolves the remote codec for a job: `Some` exactly when the backend
/// wants descriptors and the spec names a registered family.
fn remote_codec<'c, K>(cluster: &'c Cluster, spec: &JobSpec<K>) -> Option<&'c JobCodec> {
    if !cluster.backend().wants_descriptors() {
        return None;
    }
    let family = spec.remote_family()?;
    cluster.registry().get(family)
}

/// Runs one wave of tasks — the single dispatch shared by the map, reduce,
/// and map-only waves, and the single [`crate::exec::ExecBackend::execute`]
/// call site.
///
/// Per task: the (attempt-invariant) descriptor is encoded once, lazily,
/// only when a remote codec is present; each attempt inside
/// [`run_with_retries`] then either ships it to a worker and decodes the
/// result, or runs `local` (the typed task body) right here. Both arms
/// yield the same raw payload `R`; `post` is the driver-side tail
/// (partitioning). Nothing is observed here: the chain carries
/// what [`finish_job`] will record.
fn run_wave<R, T, L, P>(
    cluster: &Cluster,
    job: &str,
    phase: Phase,
    num_tasks: usize,
    remote: Option<RemoteWave<'_>>,
    local: L,
    post: P,
) -> Result<Vec<TaskRun<T>>>
where
    R: 'static,
    T: Send,
    L: Fn(usize) -> Result<(R, TaskStats)> + Sync,
    P: Fn(R) -> T + Sync,
{
    let backend = cluster.backend();
    (0..num_tasks)
        .collect::<Vec<usize>>()
        .into_par_iter()
        .map(|idx| {
            let shipped = match &remote {
                Some(r) => Some((
                    TaskDescriptor {
                        job: job.to_string(),
                        family: r.family.to_string(),
                        phase,
                        task_index: idx,
                        num_tasks,
                        payload: (r.encode)(idx)?,
                    },
                    r.decode,
                )),
                None => None,
            };
            let execute = || match &shipped {
                Some((descriptor, decode)) => backend
                    .execute(descriptor)
                    .and_then(|done| Ok((decode_as::<R>(*decode, &done.payload)?, done.stats))),
                None => local(idx),
            };
            run_with_retries(cluster, job, phase, idx, execute, &post)
        })
        .collect()
}

/// The single exit of every job that got past its map wave's execution,
/// failed or not, and the only place a job is observed: charges the clock
/// for the phases that ran, walks each wave once ([`observe_wave`]), adds
/// the job-level spans and series — with the registry on, the
/// cluster-wide task, failure, shuffle and locality totals too — and fires
/// the deaths the advanced clock has passed. `reduce` carries
/// `(shuffle_secs, shuffle_bytes, runs, plan)` when the job has reducers
/// and its map wave completed. Returns the job's simulated seconds.
fn finish_job<A, B>(
    cluster: &Cluster,
    job: &str,
    job_seq: u64,
    job_t0: f64,
    map: (&[TaskRun<A>], &WavePlan),
    reduce: Option<(f64, u64, &[TaskRun<B>], &WavePlan)>,
) -> f64 {
    let launch_secs = cluster.config.cost.job_launch_secs;
    let mut sim_secs = launch_secs + map.1.makespan_secs;
    if let Some((shuffle_secs, _, _, plan)) = reduce {
        sim_secs = sim_secs + shuffle_secs + plan.makespan_secs;
    }
    cluster.advance_clock(sim_secs);
    let obs = Some(cluster.obs()).filter(|obs| obs.is_enabled());
    let mut events = cluster.trace.is_enabled().then(Vec::new);
    // Jobs run one after another: `job_t0`, the cluster clock at entry, is
    // the offset of every event of this job.
    let id = (job, job_seq);
    let span = |phase, start, end| TaskEvent::span(job, Some(job_seq), phase, start, end);
    let launch_end = job_t0 + launch_secs;
    if let Some(events) = &mut events {
        events.push(span(TracePhase::Launch, job_t0, launch_end));
    }
    let traced = events.as_mut();
    let mut failures = observe_wave(cluster, id, Phase::Map, map, launch_end, obs, traced);
    if let Some((shuffle_secs, shuffle_bytes, runs, plan)) = reduce {
        let map_end = launch_end + map.1.makespan_secs;
        let shuffle_end = map_end + shuffle_secs;
        if let Some(events) = &mut events {
            events.push(TaskEvent {
                shuffle_bytes,
                ..span(TracePhase::Shuffle, map_end, shuffle_end)
            });
        }
        let (wave, traced) = ((runs, plan), events.as_mut());
        failures += observe_wave(cluster, id, Phase::Reduce, wave, shuffle_end, obs, traced);
    }
    if let Some(obs) = obs {
        let labels = Labels::new().job(job);
        obs.histogram("mrinv_job_seconds", &labels)
            .observe(sim_secs);
        let shuffle_bytes = reduce.map_or(0, |r| r.1);
        if shuffle_bytes > 0 {
            obs.counter("mrinv_job_shuffle_bytes_total", &labels)
                .add(shuffle_bytes);
        }
        // The cluster-wide totals, each created at its first job even at
        // 0; a wave's tasks count once it completed.
        let total = |name: &str, n: u64| obs.counter(name, &Labels::new()).add(n);
        let (map_runs, map_plan) = map;
        let (maps, local, remote_bytes) = match first_failed_task(map_plan) {
            None => (
                map_runs.len() as u64,
                map_plan.data_local_tasks as u64,
                map_plan.remote_read_bytes,
            ),
            Some(_) => (0, 0, 0),
        };
        let reduced = reduce.filter(|r| first_failed_task(r.3).is_none());
        total("mrinv_task_failures_total", failures);
        total("mrinv_map_tasks_total", maps);
        total("mrinv_data_local_map_tasks_total", local);
        total("mrinv_remote_map_tasks_total", maps - local);
        total("mrinv_remote_read_bytes_total", remote_bytes);
        total("mrinv_shuffle_bytes_total", shuffle_bytes);
        total(
            "mrinv_reduce_tasks_total",
            reduced.map_or(0, |r| r.2.len() as u64),
        );
    }
    cluster.trace.record_batch(events.unwrap_or_default());
    fire_due_deaths(cluster);
    sim_secs
}

/// Merged work of a wave's failed body attempts.
fn failed_work<T>(runs: &[TaskRun<T>]) -> TaskStats {
    let bodies = runs.iter().flat_map(|run| &run.chain);
    let failed = bodies.filter(|body| body.failure.is_some());
    failed.fold(TaskStats::default(), |all, body| all.merge(&body.stats))
}

/// The one job engine. Runs the map wave; with `reducers > 0` also
/// partitions each task's pairs, shuffles, and hands the sorted
/// partitions to `reduce_wave` (which runs the reduce bodies through
/// [`run_wave`]). With zero reducers emitted pairs are discarded and
/// `reduce_wave` is never called.
#[allow(clippy::type_complexity)]
fn run_engine<M, O, F>(
    cluster: &Cluster,
    spec: &JobSpec<M::Key>,
    mapper: &M,
    inputs: &[M::Input],
    reducers: usize,
    reduce_wave: F,
) -> Result<(Vec<(M::Key, O)>, JobReport)>
where
    M: Mapper,
    F: FnOnce(
        Option<&JobCodec>,
        &[ReducerInput<M::Key, M::Value>],
    ) -> Result<Vec<TaskRun<RawReducePayload<M::Key, O>>>>,
{
    // Deaths scheduled before this job's start take effect now, so the map
    // wave sees the dead node's replicas as lost.
    fire_due_deaths(cluster);
    let job_seq = cluster.next_job_seq();
    let job_t0 = cluster.sim_secs();
    let num_tasks = inputs.len();
    let cfg = &cluster.config;
    let task_failed = |phase: Phase, task: usize| MrError::TaskFailed {
        job: spec.name.clone(),
        phase,
        task,
        attempts: MAX_TASK_ATTEMPTS,
    };

    // ---- Map wave -------------------------------------------------------
    // Each map task returns its output already split into one bucket per
    // reduce partition, so the post-wave shuffle merges buckets instead of
    // routing individual pairs.
    let codec = remote_codec(cluster, spec);
    let map_encode = |idx: usize| -> Result<Value> {
        let c = codec.expect("encode runs only when a codec is present");
        (c.encode_map)(mapper, &inputs[idx])
    };
    let map_remote = codec.map(|c| RemoteWave {
        family: spec.remote_family().unwrap_or_default(),
        encode: &map_encode,
        decode: c.decode_map,
    });
    let map_local = |idx: usize| {
        let dfs = cluster.dfs.clone();
        map_body(mapper, &inputs[idx], dfs, idx, num_tasks)
    };
    // A successful map attempt's payload: one bucket of pairs per reduce
    // partition and its per-node read tally (locality input for the
    // planner). Without reducers the mappers did all the work through DFS
    // side files, and their pairs are dropped.
    let map_post = |(pairs, local): RawMapPayload<M::Key, M::Value>| {
        let buckets = if reducers == 0 {
            Vec::new()
        } else {
            partition_pairs(pairs, spec.partitioner, reducers)
        };
        (buckets, local)
    };
    let mut map_runs = run_wave(
        cluster,
        &spec.name,
        Phase::Map,
        num_tasks,
        map_remote,
        map_local,
        map_post,
    )?;
    let launch_end = job_t0 + cfg.cost.job_launch_secs;
    let map_plan = settle_wave(
        cluster,
        &map_runs,
        Some(|payload| payload.1.as_slice()),
        launch_end,
        reducers > 0,
    );
    let mut report = JobReport {
        name: spec.name.clone(),
        job_seq,
        map_tasks: num_tasks,
        reduce_tasks: reducers,
        failures: map_plan.extra_attempts(),
        map_wave_secs: map_plan.makespan_secs,
        ..JobReport::default()
    };
    let map_failed = first_failed_task(&map_plan);
    if map_failed.is_some() || reducers == 0 {
        // No shuffle or reduce wave will run: the job ends here. A failed
        // map wave still charges and traces what ran before the job fails
        // with the Hadoop diagnostics.
        let reduce = None::<(f64, u64, &[TaskRun<RawReducePayload<M::Key, O>>], &WavePlan)>;
        let map = (&map_runs[..], &map_plan);
        report.sim_secs = finish_job(cluster, &spec.name, job_seq, job_t0, map, reduce);
    }
    if let Some(task) = map_failed {
        return Err(task_failed(Phase::Map, task));
    }
    report.data_local_tasks = map_plan.data_local_tasks;
    report.remote_read_bytes = map_plan.remote_read_bytes;
    report.failed_stats = failed_work(&map_runs);
    let mut stats = TaskStats::default();
    let mut task_buckets = Vec::with_capacity(num_tasks);
    for run in &mut map_runs {
        let ok_stats = &run
            .chain
            .last()
            .expect("successful task has at least one attempt")
            .stats;
        stats = stats.merge(ok_stats);
        let (buckets, _) = run.payload.take().expect("map wave succeeded");
        task_buckets.push(buckets);
    }
    if reducers == 0 {
        // A map-only job drops its mappers' pairs: nothing is shuffled.
        stats.shuffle_bytes = 0;
    }

    let mut outputs = Vec::new();
    if reducers > 0 {
        // ---- Shuffle + reduce wave --------------------------------------
        let shuffle_bytes = stats.shuffle_bytes;
        // Merge + sort each partition's buckets, one rayon work item per
        // reducer (see crate::shuffle).
        let reducer_inputs = parallel_shuffle(task_buckets, reducers);
        let reduce_runs = reduce_wave(codec, &reducer_inputs)?;
        let shuffle_secs = cfg.cost.shuffle_secs(shuffle_bytes, cfg.nodes);
        let shuffle_end = launch_end + map_plan.makespan_secs + shuffle_secs;
        // The shuffle already moved the map outputs off their nodes.
        let reduce_plan = settle_wave(cluster, &reduce_runs, None, shuffle_end, false);
        let map = (&map_runs[..], &map_plan);
        let reduce = Some((shuffle_secs, shuffle_bytes, &reduce_runs[..], &reduce_plan));
        report.sim_secs = finish_job(cluster, &spec.name, job_seq, job_t0, map, reduce);
        if let Some(task) = first_failed_task(&reduce_plan) {
            return Err(task_failed(Phase::Reduce, task));
        }
        report.failures += reduce_plan.extra_attempts();
        report.failed_stats = report.failed_stats.merge(&failed_work(&reduce_runs));
        report.shuffle_secs = shuffle_secs;
        report.reduce_wave_secs = reduce_plan.makespan_secs;
        let mut reduce_stats = TaskStats::default();
        for run in reduce_runs {
            reduce_stats = reduce_stats.merge(
                &run.chain
                    .last()
                    .expect("successful task has at least one attempt")
                    .stats,
            );
            outputs.extend(run.payload.expect("reduce wave succeeded"));
        }
        stats = stats.merge(&reduce_stats);
    }
    report.stats = stats;
    Ok((outputs, report))
}

/// Executes a full map+shuffle+reduce job on the cluster.
///
/// Returns the reduce outputs (sorted by partition, then key) and the
/// job report. Metrics and simulated time accumulate on the cluster.
#[allow(clippy::type_complexity)]
pub fn run_job<M, R>(
    cluster: &Cluster,
    spec: &JobSpec<M::Key>,
    mapper: &M,
    reducer: &R,
    inputs: &[M::Input],
) -> Result<(Vec<(M::Key, R::Output)>, JobReport)>
where
    M: Mapper,
    R: Reducer<Key = M::Key, Value = M::Value>,
{
    if spec.num_reducers == 0 {
        return Err(MrError::InvalidJob(format!(
            "job {:?} has 0 reducers; use run_map_only",
            spec.name
        )));
    }
    let reducers = spec.num_reducers;
    run_engine(
        cluster,
        spec,
        mapper,
        inputs,
        reducers,
        |codec, partitions| {
            let reduce_codec = codec.filter(|c| c.encode_reduce.is_some());
            let reduce_encode = |p: usize| -> Result<Value> {
                let c = reduce_codec.expect("encode runs only when a codec is present");
                (c.encode_reduce.expect("filtered on encode_reduce"))(reducer, &partitions[p])
            };
            let reduce_remote = reduce_codec.map(|c| RemoteWave {
                family: spec.remote_family().unwrap_or_default(),
                encode: &reduce_encode,
                decode: c
                    .decode_reduce
                    .expect("map+reduce family has a reduce decoder"),
            });
            let reduce_local = |p: usize| reduce_body(reducer, &partitions[p], cluster.dfs.clone());
            let reduce_post = |raw: RawReducePayload<M::Key, R::Output>| raw;
            run_wave(
                cluster,
                &spec.name,
                Phase::Reduce,
                reducers,
                reduce_remote,
                reduce_local,
                reduce_post,
            )
        },
    )
}

/// Executes a map-only job (the paper's partitioning job, Section 5.2:
/// "the mappers do all the work and the reduce function does nothing") —
/// the zero-reducer case of the job engine (`spec`'s reducer count is
/// ignored).
pub fn run_map_only<M>(
    cluster: &Cluster,
    spec: &JobSpec<M::Key>,
    mapper: &M,
    inputs: &[M::Input],
) -> Result<JobReport>
where
    M: Mapper,
{
    let no_reduce = |_: Option<&JobCodec>, _: &[ReducerInput<M::Key, M::Value>]| {
        Ok(Vec::<TaskRun<RawReducePayload<M::Key, ()>>>::new())
    };
    run_engine(cluster, spec, mapper, inputs, 0, no_reduce).map(|(_, report)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::job::{identity_partitioner, MapContext, ReduceContext};
    use crate::simtime::CostModel;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Classic word count over in-DFS text files: exercises the whole
    /// map/shuffle/reduce path with a non-trivial key space.
    struct WcMapper;
    impl Mapper for WcMapper {
        type Input = String; // DFS path
        type Key = String;
        type Value = u64;
        fn map(&self, input: &String, ctx: &mut MapContext<String, u64>) -> Result<()> {
            let data = ctx.read(input)?;
            let text = String::from_utf8_lossy(&data).to_string();
            for word in text.split_whitespace() {
                ctx.emit(word.to_string(), 1);
            }
            Ok(())
        }
    }
    struct WcReducer;
    impl Reducer for WcReducer {
        type Key = String;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, _key: &String, values: &[u64], _ctx: &mut ReduceContext) -> Result<u64> {
            Ok(values.iter().sum())
        }
    }

    fn test_cluster(nodes: usize) -> Cluster {
        let mut cfg = ClusterConfig::medium(nodes);
        cfg.cost = CostModel::unit_for_tests();
        Cluster::new(cfg)
    }

    #[test]
    fn word_count_end_to_end() {
        let cluster = test_cluster(4);
        cluster.dfs.write("in/0", Bytes::from_static(b"a b a"));
        cluster.dfs.write("in/1", Bytes::from_static(b"b c b a"));
        let spec = JobSpec::new("wordcount").reducers(3);
        let inputs = vec!["in/0".to_string(), "in/1".to_string()];
        let (out, report) = run_job(&cluster, &spec, &WcMapper, &WcReducer, &inputs).unwrap();
        let mut counts: Vec<(String, u64)> = out;
        counts.sort();
        assert_eq!(
            counts,
            vec![("a".into(), 3), ("b".into(), 3), ("c".into(), 1)]
        );
        assert_eq!(report.map_tasks, 2);
        assert_eq!(report.reduce_tasks, 3);
        assert_eq!(report.failures, 0);
        assert!(report.sim_secs > 0.0);
        assert_eq!(report.job_seq, 0, "the cluster's first job");
        assert!(
            report.data_local_tasks <= report.map_tasks,
            "every map task is classified for locality"
        );
        assert_eq!(report.failed_stats, TaskStats::default());
    }

    /// Control-file style job (the paper's pattern): mapper j writes file
    /// OUT/j and emits (j, j); reducer j checks the file exists.
    struct ControlMapper;
    impl Mapper for ControlMapper {
        type Input = usize;
        type Key = usize;
        type Value = usize;
        fn map(&self, input: &usize, ctx: &mut MapContext<usize, usize>) -> Result<()> {
            ctx.write(&format!("OUT/{input}"), Bytes::from(vec![0u8; 100]));
            ctx.emit(*input, *input);
            Ok(())
        }
    }
    struct ControlReducer;
    impl Reducer for ControlReducer {
        type Key = usize;
        type Value = usize;
        type Output = usize;
        fn reduce(&self, key: &usize, values: &[usize], ctx: &mut ReduceContext) -> Result<usize> {
            assert_eq!(values, &[*key]);
            let data = ctx.read(&format!("OUT/{key}"))?;
            Ok(data.len())
        }
    }

    #[test]
    fn control_file_pattern_with_identity_partitioner() {
        let cluster = test_cluster(4);
        let spec = JobSpec::new("control")
            .reducers(4)
            .partitioner(identity_partitioner);
        let inputs: Vec<usize> = (0..4).collect();
        let (out, report) =
            run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &inputs).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|&(_, len)| len == 100));
        // Unit cost model: each map task writes 100 bytes => 100 s/task, 4
        // tasks on 4 nodes => 100 s map wave. Each reduce reads 100 bytes.
        assert!((report.map_wave_secs - 100.0).abs() < 1.0);
        assert!((report.reduce_wave_secs - 100.0).abs() < 1.0);
        assert_eq!(report.stats.read_bytes, 400);
        assert_eq!(report.stats.write_bytes, 400);
    }

    #[test]
    fn map_only_job_runs_and_prices() {
        let cluster = test_cluster(2);
        let spec: JobSpec<usize> = JobSpec::new("partition");
        let inputs: Vec<usize> = (0..4).collect();
        let report = run_map_only(&cluster, &spec, &ControlMapper, &inputs).unwrap();
        assert_eq!(report.map_tasks, 4);
        assert_eq!(report.reduce_tasks, 0);
        // 4 tasks x 100 write-seconds on 2 nodes => 200 s makespan.
        assert!((report.map_wave_secs - 200.0).abs() < 1.0);
        assert!(cluster.dfs.exists("OUT/3"));
    }

    #[test]
    fn zero_reducers_rejected_by_run_job() {
        let cluster = test_cluster(1);
        let spec = JobSpec::new("bad");
        let err = run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &[0]).unwrap_err();
        assert!(matches!(err, MrError::InvalidJob(_)));
    }

    #[test]
    fn injected_map_failure_retries_and_charges() {
        let cluster = test_cluster(2);
        cluster.faults.fail_task("control", Phase::Map, 1, 1);
        let spec = JobSpec::new("control")
            .reducers(2)
            .partitioner(identity_partitioner);
        let inputs: Vec<usize> = vec![0, 1];
        let (out, report) =
            run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &inputs).unwrap();
        assert_eq!(out.len(), 2, "job still completes correctly");
        assert_eq!(report.failures, 1);
        assert_eq!(cluster.faults.injected_count(), 1);
        // Lost work is charged: the failed attempt's 100 written bytes
        // price 100 s, so the retry lengthens the map wave — 2 tasks fit
        // 2 nodes in 100 s, the retry adds another 100 s on one node.
        assert!((report.map_wave_secs - 200.0).abs() < 1.0);
        // ... and reported beside the committed attempts' work.
        assert_eq!(report.failed_stats.write_bytes, 100);
        assert_eq!(report.stats.write_bytes, 200);
    }

    #[test]
    fn exhausted_retries_fail_the_job() {
        let cluster = test_cluster(1);
        cluster.faults.fail_task("control", Phase::Map, 0, 99);
        let spec = JobSpec::new("control").reducers(1);
        let err = run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &[0]).unwrap_err();
        match err {
            MrError::TaskFailed {
                phase,
                task,
                attempts,
                ..
            } => {
                assert_eq!(phase, Phase::Map);
                assert_eq!(task, 0);
                assert_eq!(attempts, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// A mapper whose first attempt errors (a transient user error that a
    /// retry fixes).
    struct FlakyMapper {
        failed: AtomicBool,
    }
    impl Mapper for FlakyMapper {
        type Input = usize;
        type Key = usize;
        type Value = usize;
        fn map(&self, input: &usize, ctx: &mut MapContext<usize, usize>) -> Result<()> {
            if !self.failed.swap(true, Ordering::Relaxed) {
                return Err(MrError::Other("transient".into()));
            }
            ctx.emit(*input, 1);
            Ok(())
        }
    }

    #[test]
    fn user_error_is_retried() {
        let cluster = test_cluster(1);
        let spec: JobSpec<usize> = JobSpec::new("flaky");
        // The first attempt errors; the runner wraps the task body's error
        // into UserTask and retries, and the retry succeeds.
        let flaky = FlakyMapper {
            failed: AtomicBool::new(false),
        };
        let report = run_map_only(&cluster, &spec, &flaky, &[7]).unwrap();
        assert_eq!(report.failures, 1);
    }

    #[test]
    fn reduce_failure_injection() {
        let cluster = test_cluster(2);
        cluster.faults.fail_task("control", Phase::Reduce, 0, 1);
        let spec = JobSpec::new("control")
            .reducers(2)
            .partitioner(identity_partitioner);
        let (out, report) =
            run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &[0, 1]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(report.failures, 1);
        assert!(report.reduce_wave_secs > report.map_wave_secs / 2.0);
    }

    #[test]
    fn empty_input_job() {
        let cluster = priced_cluster(&[1.0; 2], 1);
        let spec = JobSpec::new("empty").reducers(1);
        let (out, report) = run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.map_tasks, 0);
        // Unit model has no launch cost and free compute; nothing moved.
        assert_eq!(report.sim_secs, 0.0);
    }

    #[test]
    fn launch_overhead_is_charged_per_job() {
        let mut cfg = ClusterConfig::medium(2);
        cfg.cost = CostModel {
            job_launch_secs: 5.0,
            ..CostModel::unit_for_tests()
        };
        let cluster = Cluster::new(cfg);
        let spec: JobSpec<usize> = JobSpec::new("a");
        let r1 = run_map_only(&cluster, &spec, &ControlMapper, &[0]).unwrap();
        assert!(r1.sim_secs >= 5.0);
        let before = cluster.sim_secs();
        let _ = run_map_only(&cluster, &spec, &ControlMapper, &[1]).unwrap();
        assert!(cluster.sim_secs() - before >= 5.0);
    }

    // ---- Wave pricing -----------------------------------------------------

    fn priced_cluster(speeds: &[f64], slots: usize) -> Cluster {
        let mut cfg = ClusterConfig::medium(speeds.len());
        cfg.cost = CostModel::unit_for_tests();
        cfg.node_speeds = speeds.to_vec();
        cfg.slots_per_node = slots;
        cfg.tracing = true;
        cfg.observability = true;
        Cluster::new(cfg)
    }

    fn planned(secs: &[f64]) -> Vec<PlannedTask<'static>> {
        let task = |&success_secs| PlannedTask {
            success_secs,
            ..Default::default()
        };
        secs.iter().map(task).collect()
    }

    #[test]
    fn a_mid_job_death_lands_in_the_wave_it_falls_in() {
        // Node 1 dies at `death_at`; plans one wave of `secs` tasks starting
        // at `wave_start`.
        let plan = |death_at: f64, secs: &[f64], wave_start: f64, map_wave: bool| {
            let cluster = priced_cluster(&[1.0; 2], 1);
            cluster.faults.kill_node(1, death_at);
            plan_with_faults(&cluster, &planned(secs), wave_start, map_wave)
        };
        let lost = |plan: &WavePlan| {
            let attempts = plan.attempts.iter().flatten();
            let lost = attempts.filter(|a| a.outcome == AttemptOutcome::NodeLost(1));
            lost.count()
        };
        // In the map wave: the task on node 1 re-executes, and speculation
        // is suspended during recovery.
        let map = plan(40.0, &[100.0; 2], 0.0, true);
        assert_eq!(map.attempts[1][0].outcome, AttemptOutcome::NodeLost(1));
        assert_eq!(map.steals, 0);
        // In the reduce wave (which starts at t=2): the map wave does not
        // see it, the reduce task on node 1 re-runs elsewhere.
        assert_eq!(lost(&plan(50.0, &[1.0; 2], 0.0, true)), 0);
        assert_eq!(lost(&plan(50.0, &[100.0; 2], 2.0, false)), 1);
        // Far past the job: neither wave sees it.
        assert_eq!(lost(&plan(1e6, &[100.0; 2], 0.0, true)), 0);
        assert_eq!(lost(&plan(1e6, &[100.0; 2], 200.0, false)), 0);
        // The death window is the backed-up wave: slow node 1 would hold
        // its task until t=16, but node 0's backup commits at t=8 and ends
        // the wave, so a death at t=10 is the next wave's.
        let cluster = priced_cluster(&[1.0, 0.25], 1);
        cluster.faults.kill_node(1, 10.0);
        let p = plan_with_faults(&cluster, &planned(&[4.0; 2]), 0.0, true);
        assert_eq!((p.makespan_secs, p.steals, lost(&p)), (8.0, 1, 0));
    }

    /// The single epilogue: a map-only job and a map+reduce job running the
    /// same mapper (one injected retry) emit the same launch/map trace
    /// events and the same map-wave series.
    #[test]
    fn map_only_and_map_reduce_jobs_share_launch_and_map_observations() {
        let observe = |map_only: bool| {
            let cluster = priced_cluster(&[1.0; 2], 1);
            cluster.faults.fail_task("job", Phase::Map, 1, 1);
            let spec = JobSpec::new("job")
                .reducers(2)
                .partitioner(identity_partitioner);
            let inputs: Vec<usize> = (0..3).collect();
            if map_only {
                run_map_only(&cluster, &spec, &ControlMapper, &inputs).unwrap();
            } else {
                run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &inputs).unwrap();
            }
            let events: Vec<_> = cluster
                .trace
                .events()
                .into_iter()
                .filter(|e| matches!(e.phase, TracePhase::Launch | TracePhase::Map))
                .map(|e| (e.phase, e.task, e.attempt, e.node, e.failure, e.write_bytes))
                .collect();
            let snap = cluster.obs().snapshot();
            let is_map = |l: &Labels| l.wave.as_deref() == Some("map");
            let counters = snap.counters.into_iter().filter(|c| is_map(&c.labels));
            let hists = snap.histograms.into_iter().filter(|h| is_map(&h.labels));
            (
                events,
                counters
                    .map(|c| (c.name, c.labels, c.value))
                    .collect::<Vec<_>>(),
                hists.map(|h| (h.name, h.hist.count)).collect::<Vec<_>>(),
            )
        };
        let (events, counters, hists) = observe(true);
        assert_eq!(events.len(), 1 + 4, "launch span + 3 tasks + 1 retry");
        assert!(!counters.is_empty() && !hists.is_empty());
        assert_eq!((events, counters, hists), observe(false));
    }
}

#[cfg(test)]
mod fault_domain_tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::job::{identity_partitioner, MapContext, ReduceContext};
    use crate::simtime::CostModel;
    use bytes::Bytes;

    struct ControlMapper;
    impl Mapper for ControlMapper {
        type Input = usize;
        type Key = usize;
        type Value = usize;
        fn map(&self, input: &usize, ctx: &mut MapContext<usize, usize>) -> Result<()> {
            ctx.write(&format!("OUT/{input}"), Bytes::from(vec![0u8; 100]));
            ctx.emit(*input, *input);
            Ok(())
        }
    }
    struct ControlReducer;
    impl Reducer for ControlReducer {
        type Key = usize;
        type Value = usize;
        type Output = usize;
        fn reduce(&self, key: &usize, _values: &[usize], ctx: &mut ReduceContext) -> Result<usize> {
            Ok(ctx.read(&format!("OUT/{key}"))?.len())
        }
    }
    /// Reads one input file per task (drives locality + replica-loss
    /// paths), counting its attempts.
    #[derive(Default)]
    struct ReadMapper {
        attempts: std::sync::atomic::AtomicUsize,
    }
    impl Mapper for ReadMapper {
        type Input = String;
        type Key = usize;
        type Value = usize;
        fn map(&self, input: &String, ctx: &mut MapContext<usize, usize>) -> Result<()> {
            (self.attempts).fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let data = ctx.read(input)?;
            ctx.emit(ctx.task_index(), data.len());
            Ok(())
        }
    }

    fn test_cluster(nodes: usize) -> Cluster {
        let mut cfg = ClusterConfig::medium(nodes);
        cfg.cost = CostModel::unit_for_tests();
        cfg.tracing = true;
        Cluster::new(cfg)
    }

    #[test]
    fn mid_wave_node_death_reexecutes_and_stretches_the_wave() {
        let cluster = test_cluster(2);
        // 4 tasks of 100 s on 2 nodes: fault-free makespan 200. Node 1
        // dies at t=150 (mid second round): its in-flight attempt is lost
        // and re-runs on node 0, stretching the wave to 300.
        cluster.faults.kill_node(1, 150.0);
        let spec: JobSpec<usize> = JobSpec::new("partition");
        let report =
            run_map_only(&cluster, &spec, &ControlMapper, &(0..4).collect::<Vec<_>>()).unwrap();
        assert_eq!(report.failures, 1, "one attempt lost to the death");
        assert!(
            (report.map_wave_secs - 300.0).abs() < 1.0,
            "lost work stretches the wave: {}",
            report.map_wave_secs
        );
        assert_eq!(
            report.failed_stats,
            TaskStats::default(),
            "a simulation-level retry executes no body"
        );
        let events = cluster.trace.events();
        let lost: Vec<_> = events
            .iter()
            .filter(|e| {
                e.failure
                    .as_deref()
                    .is_some_and(|f| f.starts_with("node-lost"))
            })
            .collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].node, Some(1));
        assert!(
            events
                .iter()
                .any(|e| e.phase == TracePhase::NodeDeath && e.task == 1),
            "the death itself is a trace marker"
        );
        // The death fired when the clock passed it: node 1's replicas are
        // gone, and files homed exclusively there are unreadable (one
        // replica each here); the rest read from node 0.
        assert!(cluster.faults.dead_nodes().contains(&1));
        for j in 0..4 {
            match cluster.dfs.read(&format!("OUT/{j}")) {
                Ok((_, homes)) => assert_eq!(homes.to_vec(), vec![0], "OUT/{j}"),
                Err(MrError::AllReplicasLost { homes, .. }) => assert_eq!(homes, vec![1]),
                Err(other) => panic!("OUT/{j}: {other:?}"),
            }
        }
    }

    #[test]
    fn map_outputs_on_a_dead_node_are_lost_and_reexecuted() {
        let cluster = test_cluster(2);
        // Full map+reduce job, 4 map tasks of 100 s on 2 nodes. Node 1
        // dies at t=150: its completed round-1 map task loses its
        // node-local output (OutputLost) AND its in-flight round-2 attempt
        // dies (NodeLost) — both re-execute on node 0: 200 + 200 = 400.
        cluster.faults.kill_node(1, 150.0);
        let spec = JobSpec::new("control")
            .reducers(1)
            .partitioner(identity_partitioner);
        let inputs: Vec<usize> = (0..4).collect();
        let (out, report) =
            run_job(&cluster, &spec, &ControlMapper, &ControlReducer, &inputs).unwrap();
        assert_eq!(out.len(), 4, "job completes despite the death");
        assert_eq!(report.failures, 2, "one NodeLost + one OutputLost");
        assert!(
            (report.map_wave_secs - 400.0).abs() < 1.0,
            "both re-executions serialize on the survivor: {}",
            report.map_wave_secs
        );
        let events = cluster.trace.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e
                    .failure
                    .as_deref()
                    .is_some_and(|f| f.starts_with("map-output-lost")))
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e
                    .failure
                    .as_deref()
                    .is_some_and(|f| f.starts_with("node-lost")))
                .count(),
            1
        );
    }

    #[test]
    fn timeouts_kill_slow_attempts_and_retry_elsewhere() {
        let mut cfg = ClusterConfig::medium(2);
        cfg.cost = CostModel::unit_for_tests();
        cfg.tracing = true;
        // Node 1 is 10x slow: a 100 s task takes 1000 s there, tripping
        // the 150 s timeout; node 0 at full speed stays under it.
        cfg.node_speeds = vec![1.0, 0.1];
        cfg.task_timeout_secs = Some(150.0);
        let cluster = Cluster::new(cfg);
        let spec: JobSpec<usize> = JobSpec::new("partition");
        let report = run_map_only(&cluster, &spec, &ControlMapper, &[0, 1]).unwrap();
        assert_eq!(report.failures, 1, "one timed-out attempt");
        // Node 0: task 0 (0-100); node 1: task 1 cut at 150; retry (with
        // 1 s backoff, avoiding node 1) on node 0: 151-251.
        assert!(
            (report.map_wave_secs - 251.0).abs() < 1.0,
            "timeout + backoff + re-run: {}",
            report.map_wave_secs
        );
        let events = cluster.trace.events();
        let timed_out: Vec<_> = events
            .iter()
            .filter(|e| {
                e.failure
                    .as_deref()
                    .is_some_and(|f| f.starts_with("timeout"))
            })
            .collect();
        assert_eq!(timed_out.len(), 1);
        assert_eq!(timed_out[0].node, Some(1));
        let retry = events
            .iter()
            .find(|e| e.phase == TracePhase::Map && e.task == timed_out[0].task && e.attempt == 1)
            .expect("retry traced");
        assert_eq!(retry.node, Some(0), "retry avoids the timed-out node");
        assert!(retry.failure.is_none());
    }

    /// A backend whose worker dies under every attempt it is handed.
    #[derive(Debug)]
    struct DyingWorkers;
    impl crate::exec::ExecBackend for DyingWorkers {
        fn name(&self) -> &str {
            "dying-workers"
        }
        fn wants_descriptors(&self) -> bool {
            true
        }
        fn execute(&self, _: &TaskDescriptor) -> Result<crate::exec::WireTaskResult> {
            Err(MrError::WorkerLost {
                worker: 0,
                message: "exited mid-attempt".into(),
            })
        }
    }

    // Braced: the vendored serde derive only handles braced bodies.
    #[derive(Serialize, Deserialize)]
    struct ShippedMapper {}
    impl Mapper for ShippedMapper {
        type Input = usize;
        type Key = usize;
        type Value = usize;
        fn map(&self, _: &usize, _: &mut MapContext<usize, usize>) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_worker_that_always_dies_spends_the_attempt_budget_without_waiting() {
        // The default simulated timeout-retry backoff is 1 s doubling: a
        // retry that slept it in wall time would take 15 s here.
        let mut cluster = test_cluster(1);
        let mut registry = crate::exec::TaskRegistry::new();
        registry.register_map_only::<ShippedMapper>("doomed");
        cluster.set_registry(std::sync::Arc::new(registry));
        cluster.set_backend(std::sync::Arc::new(DyingWorkers));
        let spec: JobSpec<usize> = JobSpec::new("doomed").remote("doomed");
        let started = std::time::Instant::now();
        let err = run_map_only(&cluster, &spec, &ShippedMapper {}, &[0]).unwrap_err();
        assert!(
            matches!(err, MrError::TaskFailed { attempts: 4, .. }),
            "max_task_attempts bounds the crash loop: {err:?}"
        );
        let traced = cluster.trace.events();
        let failed = traced.iter().filter(|e| e.failure.is_some()).count();
        assert_eq!(failed, 4, "every burned attempt is traced as failed");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "retries go out at once, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn reads_from_a_dead_nodes_replicas_fail_the_job_fatally() {
        let cluster = test_cluster(2);
        cluster.dfs.write("in/solo", Bytes::from_static(b"payload"));
        let (_, homes) = cluster.dfs.read("in/solo").unwrap();
        // Kill every node holding a replica *before* the job runs.
        for &n in homes.iter() {
            cluster.faults.kill_node(n, 0.0);
        }
        // Force the deaths to fire on job entry (clock is already at 0).
        let spec: JobSpec<usize> = JobSpec::new("reader");
        let mapper = ReadMapper::default();
        let err = run_map_only(&cluster, &spec, &mapper, &["in/solo".to_string()]).unwrap_err();
        assert!(
            matches!(err, MrError::AllReplicasLost { .. }),
            "replica loss is fatal, not retried: {err:?}"
        );
        assert_eq!(
            mapper.attempts.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "no retry budget burned on a deterministic loss"
        );
    }

    /// Errors once, then reads its input (a retry, then the real read).
    struct FlakyReadMapper(std::sync::atomic::AtomicBool);
    impl Mapper for FlakyReadMapper {
        type Input = String;
        type Key = usize;
        type Value = usize;
        fn map(&self, input: &String, ctx: &mut MapContext<usize, usize>) -> Result<()> {
            if !self.0.swap(true, std::sync::atomic::Ordering::Relaxed) {
                return Err(MrError::Other("transient".into()));
            }
            ctx.read(input).map(|_| ())
        }
    }

    /// A wave that dies before it is planned is counted in the cluster's
    /// job sequence, but observed nowhere: no labeled series, no totals,
    /// no attempt events.
    #[test]
    fn a_wave_lost_to_dead_replicas_is_counted_but_not_observed() {
        let mut cfg = ClusterConfig::medium(2);
        cfg.cost = CostModel::unit_for_tests();
        cfg.tracing = true;
        cfg.observability = true;
        let cluster = Cluster::new(cfg);
        cluster.dfs.write("in/solo", Bytes::from_static(b"payload"));
        let (_, homes) = cluster.dfs.read("in/solo").unwrap();
        for &n in homes.iter() {
            cluster.faults.kill_node(n, 0.0);
        }
        let spec: JobSpec<usize> = JobSpec::new("reader");
        let mapper = FlakyReadMapper(Default::default());
        let err = run_map_only(&cluster, &spec, &mapper, &["in/solo".to_string()]).unwrap_err();
        assert!(matches!(err, MrError::AllReplicasLost { .. }), "{err:?}");
        let events = cluster.trace.events();
        assert!(!events.is_empty(), "the deaths themselves are markers");
        assert!(events.iter().all(|e| e.phase == TracePhase::NodeDeath));
        let snap = cluster.obs().snapshot();
        let counters: Vec<(&str, u64)> = (snap.counters.iter())
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        assert_eq!(
            counters,
            [("mrinv_jobs_total", 1)],
            "the job's sequence number"
        );
        assert!(snap.histograms.is_empty());
        assert!(snap.counters.iter().all(|c| c.labels == Labels::new()));
        assert!(snap.gauges.iter().all(|g| g.labels == Labels::new()));
    }

    #[test]
    fn map_locality_is_recorded_in_metrics() {
        let mut cfg = ClusterConfig::medium(4);
        cfg.cost = CostModel::unit_for_tests();
        cfg.observability = true;
        let cluster = Cluster::new(cfg);
        let inputs: Vec<String> = (0..4)
            .map(|i| {
                let path = format!("in/{i}");
                cluster.dfs.write(&path, Bytes::from(vec![7u8; 50]));
                path
            })
            .collect();
        let spec: JobSpec<usize> = JobSpec::new("reader");
        let report = run_map_only(&cluster, &spec, &ReadMapper::default(), &inputs).unwrap();
        assert_eq!(report.map_tasks, 4);
        let local = report.data_local_tasks;
        assert!(local <= 4, "every task classified");
        assert!(
            local >= 1,
            "free slots everywhere: at least the first task runs on its replica"
        );
        // Remote bytes are consistent with the classification: each remote
        // task pulled its 50-byte input across the network.
        assert_eq!(report.remote_read_bytes, (4 - local as u64) * 50);
        // The registry's cluster-wide totals say the same.
        let snap = cluster.obs_snapshot();
        let total = |name: &str| {
            let series = snap.counters.iter().find(|c| c.name == name);
            series
                .map(|c| c.value)
                .unwrap_or_else(|| panic!("{name} recorded"))
        };
        assert_eq!(total("mrinv_map_tasks_total"), 4);
        assert_eq!(total("mrinv_data_local_map_tasks_total"), local as u64);
        assert_eq!(total("mrinv_remote_map_tasks_total"), 4 - local as u64);
        assert_eq!(
            total("mrinv_remote_read_bytes_total"),
            report.remote_read_bytes
        );
        let ratio = snap
            .gauges
            .iter()
            .find(|g| g.name == "mrinv_dfs_replica_hit_ratio");
        assert_eq!(ratio.map(|g| g.value), Some(local as f64 / 4.0));
    }

    /// Placement rides the reads, by hand: 4 one-slot nodes, 2 replicas,
    /// and `in/1` homed on nodes 2 and 3. Two tasks read it. With every
    /// node alive each runs on a home (2, then 3). Once node 2 died before
    /// the job, its replica is no home: the first task takes node 3, and
    /// the second, rather than wait for it, starts at once on node 0 and
    /// pulls its 50 bytes across the network.
    #[test]
    fn a_map_wave_is_placed_by_the_homes_its_reads_found() {
        let wave = |dead: Option<usize>| {
            let mut cfg = ClusterConfig::medium(4);
            cfg.cost = CostModel {
                replication: 2,
                ..CostModel::unit_for_tests()
            };
            let cluster = Cluster::new(cfg);
            cluster.dfs.write("in/1", Bytes::from(vec![7u8; 50]));
            assert_eq!(cluster.dfs.read("in/1").unwrap().1.to_vec(), vec![2, 3]);
            if let Some(node) = dead {
                cluster.faults.kill_node(node, 0.0);
            }
            let spec: JobSpec<usize> = JobSpec::new("reader");
            let inputs = ["in/1".to_string(), "in/1".to_string()];
            let report = run_map_only(&cluster, &spec, &ReadMapper::default(), &inputs).unwrap();
            (report.data_local_tasks, report.remote_read_bytes)
        };
        assert_eq!(wave(None), (2, 0));
        assert_eq!(wave(Some(2)), (1, 50));
    }
}
