//! Cluster-wide tracing: one typed event per task attempt.
//!
//! Every task attempt the runner executes — map, reduce, the job-launch
//! overhead, the shuffle, and master-node computations — can be recorded
//! as a [`TaskEvent`] carrying its work (counted flops and DFS/shuffle
//! bytes, and the real CPU seconds it took) and its *simulated* placement
//! (virtual node plus start/end on the cluster's simulated clock, from the
//! list scheduler).
//! Three consumers are built on the log:
//!
//! * [`chrome_trace_json`] renders the events in the Chrome/Perfetto
//!   `trace_events` format — one process per job, one track per virtual
//!   node — making the paper's `2^⌈log2(n/nb)⌉ + 1`-job pipeline
//!   structure (Figure 2) directly visible in a trace viewer;
//! * [`analyze`] computes per-wave straggler analytics: p50/p95/max task
//!   durations, the max/median straggler ratio, CPU-vs-I/O attribution,
//!   and lost work from retried attempts (the Section 7.4 quantities);
//! * the `mrinv` CLI's `--trace-out` flag and the bench harness's
//!   failure-recovery experiment both dump the log for offline study.
//!
//! Tracing is off by default and costs one relaxed atomic load per
//! (potential) event when disabled: the runner checks
//! [`TraceLog::is_enabled`] before building any event. When enabled,
//! events land in one mutex-protected ring — a job is observed once, on
//! the driver thread, so its events arrive as one batch under one lock —
//! that keeps the newest `capacity` events.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Which part of a job's lifecycle an event covers.
///
/// [`crate::fault::Phase`] distinguishes only map/reduce (the coordinates
/// failure injection understands); tracing also covers the phases that
/// exist purely in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TracePhase {
    /// The constant job-launch overhead charged per job.
    Launch,
    /// A map task attempt.
    Map,
    /// The all-to-all shuffle between the waves.
    Shuffle,
    /// A reduce task attempt.
    Reduce,
    /// A computation on the master node (between jobs).
    Master,
    /// A virtual node dying (`crate::fault::FaultPlan::kill_node`): an
    /// instantaneous cluster-level marker whose `task` field is the node
    /// index.
    NodeDeath,
}

impl TracePhase {
    /// Short lower-case label used in trace names and categories.
    pub fn label(self) -> &'static str {
        match self {
            TracePhase::Launch => "launch",
            TracePhase::Map => "map",
            TracePhase::Shuffle => "shuffle",
            TracePhase::Reduce => "reduce",
            TracePhase::Master => "master",
            TracePhase::NodeDeath => "node-death",
        }
    }
}

/// One recorded task attempt (or job-level span).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskEvent {
    /// Job name (or the label passed to the master-work wrapper).
    pub job: String,
    /// Cluster-wide 0-based job sequence number; `None` for master-node
    /// work, which happens between jobs.
    pub job_seq: Option<u64>,
    /// Lifecycle phase this event covers.
    pub phase: TracePhase,
    /// Task index within its wave (0 for job-level spans).
    pub task: usize,
    /// Attempt number, 0-based; retries of the same task increment it.
    pub attempt: u32,
    /// Virtual node the list scheduler placed this attempt on; `None` for
    /// job-level spans (launch, shuffle, master), which occupy the
    /// driver track.
    pub node: Option<usize>,
    /// Simulated start time on the cluster clock, seconds.
    pub sim_start_secs: f64,
    /// Simulated end time on the cluster clock, seconds.
    pub sim_end_secs: f64,
    /// Real (measured) CPU seconds of the attempt body; the cost model
    /// never reads it.
    pub cpu_secs: f64,
    /// Flops the attempt (or master call) charged for its arithmetic.
    pub flops: u64,
    /// Simulated seconds attributed to compute by the cost model.
    pub cpu_sim_secs: f64,
    /// Simulated seconds attributed to DFS I/O by the cost model.
    pub io_sim_secs: f64,
    /// Bytes read from the DFS by this attempt.
    pub read_bytes: u64,
    /// Bytes written to the DFS by this attempt.
    pub write_bytes: u64,
    /// Bytes emitted into the shuffle by this attempt.
    pub shuffle_bytes: u64,
    /// Input bytes this attempt pulled from DFS replicas on *other* nodes
    /// (0 for data-local attempts; priced as one network crossing).
    pub remote_read_bytes: u64,
    /// Why the attempt failed (`None` for successful attempts). Injected
    /// faults and retried user errors carry distinct labels — see
    /// `crate::fault::FailureCause`.
    pub failure: Option<String>,
}

impl TaskEvent {
    /// A job-level span — launch, shuffle, master work, a node death — on
    /// the driver track: no task, no node, no measured work. Callers set
    /// what their span does carry with struct-update syntax.
    pub(crate) fn span(
        job: &str,
        job_seq: Option<u64>,
        phase: TracePhase,
        sim_start_secs: f64,
        sim_end_secs: f64,
    ) -> TaskEvent {
        TaskEvent {
            job: job.to_string(),
            job_seq,
            phase,
            task: 0,
            attempt: 0,
            node: None,
            sim_start_secs,
            sim_end_secs,
            cpu_secs: 0.0,
            flops: 0,
            cpu_sim_secs: 0.0,
            io_sim_secs: 0.0,
            read_bytes: 0,
            write_bytes: 0,
            shuffle_bytes: 0,
            remote_read_bytes: 0,
            failure: None,
        }
    }

    /// Simulated duration of the event, seconds.
    fn sim_duration_secs(&self) -> f64 {
        (self.sim_end_secs - self.sim_start_secs).max(0.0)
    }
}

/// Ring-buffer event log attached to a [`crate::Cluster`].
#[derive(Debug)]
pub struct TraceLog {
    enabled: AtomicBool,
    ring: Mutex<VecDeque<TaskEvent>>,
    capacity: usize,
}

/// Default ring capacity (half a million events).
const DEFAULT_CAPACITY: usize = 1 << 19;

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::disabled()
    }
}

impl TraceLog {
    /// A log that records nothing until [`TraceLog::enable`] is called.
    pub(crate) fn disabled() -> Self {
        TraceLog::with_capacity(DEFAULT_CAPACITY)
    }

    /// A log with an explicit ring capacity (events beyond it evict the
    /// oldest recorded).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            enabled: AtomicBool::new(false),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Starts recording.
    pub(crate) fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether events are currently recorded. The runner checks this
    /// before building events, so a disabled log costs one atomic load
    /// per call site.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event (dropped silently when disabled).
    pub(crate) fn record(&self, event: TaskEvent) {
        self.record_batch([event]);
    }

    /// Records a batch of events under one lock acquisition, evicting the
    /// oldest recorded events once the ring is full.
    pub(crate) fn record_batch(&self, events: impl IntoIterator<Item = TaskEvent>) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock();
        for event in events {
            if ring.len() >= self.capacity {
                ring.pop_front();
            }
            ring.push_back(event);
        }
    }

    /// Snapshot of all recorded events, ordered by simulated start time
    /// (ties broken by job sequence, then phase order, then task).
    pub fn events(&self) -> Vec<TaskEvent> {
        let mut out: Vec<TaskEvent> = self.ring.lock().iter().cloned().collect();
        out.sort_by(|a, b| {
            a.sim_start_secs
                .partial_cmp(&b.sim_start_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.job_seq.cmp(&b.job_seq))
                .then(a.task.cmp(&b.task))
                .then(a.attempt.cmp(&b.attempt))
        });
        out
    }

    /// Number of recorded events currently held.
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all recorded events (the enable flag is unchanged).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

// ---- Chrome/Perfetto export ---------------------------------------------

/// Renders events as Chrome `trace_events` JSON (the format Perfetto and
/// `chrome://tracing` load).
///
/// Layout: one *process* per job (`pid = job_seq + 1`, named after the
/// job), with master-node and driver-level spans on `pid 0`
/// (`"cluster"`). Within a process, `tid 0` is the driver track (launch
/// and shuffle spans) and `tid n+1` is virtual node `n`. Every task
/// attempt becomes one complete (`"ph": "X"`) event; timestamps are the
/// simulated clock in microseconds. Failed attempts are prefixed
/// `FAILED` and carry the failure cause in `args`.
pub fn chrome_trace_json(events: &[TaskEvent]) -> String {
    use serde_json::{Number, Value};

    let mut trace_events: Vec<Value> = Vec::new();
    let mut seen_processes: std::collections::BTreeMap<u64, String> = Default::default();
    let mut seen_threads: std::collections::BTreeSet<(u64, u64)> = Default::default();

    let f = |x: f64| Value::Number(Number::F(x));
    let u = |x: u64| Value::Number(Number::U(x));
    let s = |x: &str| Value::String(x.to_string());

    for event in events {
        let pid = event.job_seq.map(|seq| seq + 1).unwrap_or(0);
        let tid = event.node.map(|n| n as u64 + 1).unwrap_or(0);
        seen_processes
            .entry(pid)
            .or_insert_with(|| match event.job_seq {
                Some(seq) => format!("job {seq}: {}", event.job),
                None => "cluster".to_string(),
            });
        seen_threads.insert((pid, tid));

        let name = match (&event.failure, event.phase) {
            (Some(_), _) => format!(
                "FAILED {}-{} #{}",
                event.phase.label(),
                event.task,
                event.attempt
            ),
            (None, TracePhase::Launch) => "launch".to_string(),
            (None, TracePhase::Shuffle) => "shuffle".to_string(),
            (None, TracePhase::Master) => format!("master: {}", event.job),
            (None, TracePhase::NodeDeath) => format!("node-{} death", event.task),
            (None, phase) if event.attempt > 0 => {
                format!("{}-{} #{}", phase.label(), event.task, event.attempt)
            }
            (None, phase) => format!("{}-{}", phase.label(), event.task),
        };

        let mut args: Vec<(String, Value)> = vec![
            ("cpu_secs".into(), f(event.cpu_secs)),
            ("flops".into(), u(event.flops)),
            ("cpu_sim_secs".into(), f(event.cpu_sim_secs)),
            ("io_sim_secs".into(), f(event.io_sim_secs)),
            ("read_bytes".into(), u(event.read_bytes)),
            ("write_bytes".into(), u(event.write_bytes)),
            ("shuffle_bytes".into(), u(event.shuffle_bytes)),
            ("remote_read_bytes".into(), u(event.remote_read_bytes)),
            ("attempt".into(), u(event.attempt as u64)),
        ];
        if let Some(cause) = &event.failure {
            args.push(("failure".into(), s(cause)));
        }

        trace_events.push(Value::Object(vec![
            ("name".into(), Value::String(name)),
            ("cat".into(), s(event.phase.label())),
            ("ph".into(), s("X")),
            ("ts".into(), f(event.sim_start_secs * 1e6)),
            ("dur".into(), f(event.sim_duration_secs() * 1e6)),
            ("pid".into(), u(pid)),
            ("tid".into(), u(tid)),
            ("args".into(), Value::Object(args)),
        ]));
    }

    // Metadata events so viewers label the tracks.
    for (pid, name) in &seen_processes {
        trace_events.push(Value::Object(vec![
            ("name".into(), s("process_name")),
            ("ph".into(), s("M")),
            ("pid".into(), u(*pid)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::String(name.clone()))]),
            ),
        ]));
        trace_events.push(Value::Object(vec![
            ("name".into(), s("process_sort_index")),
            ("ph".into(), s("M")),
            ("pid".into(), u(*pid)),
            (
                "args".into(),
                Value::Object(vec![("sort_index".into(), u(*pid))]),
            ),
        ]));
    }
    for (pid, tid) in &seen_threads {
        let label = if *tid == 0 {
            "driver".to_string()
        } else {
            format!("node-{}", tid - 1)
        };
        trace_events.push(Value::Object(vec![
            ("name".into(), s("thread_name")),
            ("ph".into(), s("M")),
            ("pid".into(), u(*pid)),
            ("tid".into(), u(*tid)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::String(label))]),
            ),
        ]));
    }

    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(trace_events)),
        ("displayTimeUnit".into(), s("ms")),
    ]);
    serde_json::to_string_pretty(&doc).expect("trace serialization cannot fail")
}

// ---- Wave analytics ------------------------------------------------------

/// Straggler statistics for one scheduled wave (the map or reduce tasks
/// of one job).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaveAnalytics {
    /// Job name.
    pub job: String,
    /// Cluster-wide job sequence number.
    pub job_seq: u64,
    /// Map or reduce.
    pub phase: TracePhase,
    /// Distinct tasks in the wave.
    pub tasks: usize,
    /// Task attempts, including retries.
    pub attempts: usize,
    /// Median simulated attempt duration, seconds.
    pub p50_secs: f64,
    /// 95th-percentile simulated attempt duration, seconds.
    pub p95_secs: f64,
    /// Longest simulated attempt duration, seconds.
    pub max_secs: f64,
    /// Straggler ratio: `max_secs / p50_secs` (1.0 for a perfectly even
    /// wave; the paper's Section 7.4 run shows how one slow or retried
    /// task stretches this).
    pub straggler_ratio: f64,
    /// Fraction of the wave's simulated task-seconds the cost model
    /// attributes to compute (the rest is DFS I/O) — distinguishes
    /// CPU-bound skew from I/O-bound skew.
    pub cpu_fraction: f64,
    /// Simulated seconds of failed attempts in this wave (lost work).
    pub lost_secs: f64,
}

/// Pipeline-wide totals derived from the event log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineAnalytics {
    /// Per-wave statistics, in execution order.
    pub waves: Vec<WaveAnalytics>,
    /// Task attempts that failed and were retried.
    pub retried_attempts: u64,
    /// Simulated task-seconds spent on failed attempts (work lost to
    /// faults — nonzero exactly when the fault plan or user errors fired).
    pub lost_task_secs: f64,
    /// Real CPU seconds spent on failed attempts.
    pub lost_cpu_secs: f64,
    /// Simulated task-seconds across all attempts (lost + useful).
    pub total_task_secs: f64,
}

impl PipelineAnalytics {
    /// Largest straggler ratio across waves (1.0 when there are none).
    pub fn worst_straggler_ratio(&self) -> f64 {
        self.waves
            .iter()
            .map(|w| w.straggler_ratio)
            .fold(1.0, f64::max)
    }
}

/// Value at quantile `q` (0..=1) of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Computes per-wave straggler analytics over `events`, optionally
/// restricted to the job sequence numbers in `jobs` (a pipeline's own
/// jobs). Only map/reduce attempts form waves; launch, shuffle, and
/// master spans are excluded.
pub fn analyze(
    events: &[TaskEvent],
    jobs: Option<&std::collections::BTreeSet<u64>>,
) -> PipelineAnalytics {
    use std::collections::BTreeMap;

    // (job_seq, phase-order) → attempt events.
    let mut waves: BTreeMap<(u64, u8), Vec<&TaskEvent>> = BTreeMap::new();
    let mut out = PipelineAnalytics::default();

    for event in events {
        let Some(seq) = event.job_seq else { continue };
        if let Some(filter) = jobs {
            if !filter.contains(&seq) {
                continue;
            }
        }
        let phase_order = match event.phase {
            TracePhase::Map => 0,
            TracePhase::Reduce => 1,
            _ => continue,
        };
        waves.entry((seq, phase_order)).or_default().push(event);
    }

    for ((seq, _), attempts) in waves {
        let mut durations: Vec<f64> = attempts.iter().map(|e| e.sim_duration_secs()).collect();
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p50 = percentile(&durations, 0.5);
        let p95 = percentile(&durations, 0.95);
        let max = durations.last().copied().unwrap_or(0.0);
        let cpu_sim: f64 = attempts.iter().map(|e| e.cpu_sim_secs).sum();
        let io_sim: f64 = attempts.iter().map(|e| e.io_sim_secs).sum();
        let lost: f64 = attempts
            .iter()
            .filter(|e| e.failure.is_some())
            .map(|e| e.sim_duration_secs())
            .sum();
        let tasks = attempts
            .iter()
            .map(|e| e.task)
            .collect::<std::collections::BTreeSet<_>>()
            .len();

        out.retried_attempts += attempts.iter().filter(|e| e.failure.is_some()).count() as u64;
        out.lost_task_secs += lost;
        out.lost_cpu_secs += attempts
            .iter()
            .filter(|e| e.failure.is_some())
            .map(|e| e.cpu_secs)
            .sum::<f64>();
        out.total_task_secs += durations.iter().sum::<f64>();

        out.waves.push(WaveAnalytics {
            job: attempts[0].job.clone(),
            job_seq: seq,
            phase: attempts[0].phase,
            tasks,
            attempts: attempts.len(),
            p50_secs: p50,
            p95_secs: p95,
            max_secs: max,
            straggler_ratio: if p50 > 0.0 { max / p50 } else { 1.0 },
            cpu_fraction: if cpu_sim + io_sim > 0.0 {
                cpu_sim / (cpu_sim + io_sim)
            } else {
                0.0
            },
            lost_secs: lost,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, phase: TracePhase, task: usize, start: f64, end: f64) -> TaskEvent {
        TaskEvent {
            job: format!("job-{seq}"),
            job_seq: Some(seq),
            phase,
            task,
            attempt: 0,
            node: Some(task % 4),
            sim_start_secs: start,
            sim_end_secs: end,
            cpu_secs: 0.1,
            flops: 5,
            cpu_sim_secs: (end - start) * 0.5,
            io_sim_secs: (end - start) * 0.5,
            read_bytes: 100,
            write_bytes: 50,
            shuffle_bytes: 10,
            remote_read_bytes: 0,
            failure: None,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::disabled();
        log.record(event(0, TracePhase::Map, 0, 0.0, 1.0));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn enabled_log_records_and_sorts() {
        let log = TraceLog::disabled();
        log.enable();
        log.record(event(1, TracePhase::Map, 0, 5.0, 6.0));
        log.record(event(0, TracePhase::Map, 0, 1.0, 2.0));
        log.record(event(0, TracePhase::Map, 1, 1.0, 3.0));
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].sim_start_secs, 1.0);
        assert_eq!(events[0].task, 0);
        assert_eq!(events[2].job_seq, Some(1));
    }

    /// Uneven batches totalling three capacities, recorded in sim-time
    /// order: the survivors are exactly the newest `capacity` events.
    #[test]
    fn ring_buffer_evicts_oldest() {
        let capacity = 17;
        let log = TraceLog::with_capacity(capacity);
        log.enable();
        let mut next = 0;
        for size in [1, 5, 2, 9].into_iter().cycle() {
            let size = size.min(3 * capacity - next);
            log.record_batch((next..next + size).map(|i| {
                let t = i as f64;
                event(0, TracePhase::Map, i, t, t + 1.0)
            }));
            next += size;
            if next == 3 * capacity {
                break;
            }
        }
        let kept: Vec<usize> = log.events().iter().map(|e| e.task).collect();
        assert_eq!(kept, (2 * capacity..3 * capacity).collect::<Vec<_>>());
        log.clear();
        assert!(log.is_empty());
    }

    /// The single lock serializes concurrent recorders without losing an
    /// event.
    #[test]
    fn concurrent_records_below_capacity_lose_nothing() {
        let log = TraceLog::disabled();
        log.enable();
        std::thread::scope(|scope| {
            for thread in 0..8 {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..2000 {
                        log.record(event(thread, TracePhase::Map, i, i as f64, i as f64 + 1.0));
                    }
                });
            }
        });
        assert_eq!(log.len(), 8 * 2000);
        let events = log.events();
        for thread in 0..8 {
            let of_thread = events.iter().filter(|e| e.job_seq == Some(thread));
            assert_eq!(of_thread.count(), 2000);
        }
    }

    #[test]
    fn batch_recording_respects_enable_flag() {
        let log = TraceLog::disabled();
        log.record_batch(vec![event(0, TracePhase::Map, 0, 0.0, 1.0)]);
        assert!(log.is_empty());
        log.enable();
        log.record_batch(vec![
            event(0, TracePhase::Map, 0, 0.0, 1.0),
            event(0, TracePhase::Map, 1, 0.0, 2.0),
        ]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_span_per_attempt() {
        let mut events = vec![
            event(0, TracePhase::Map, 0, 0.0, 1.0),
            event(0, TracePhase::Map, 1, 0.0, 2.0),
            event(0, TracePhase::Reduce, 0, 2.0, 3.0),
            event(1, TracePhase::Map, 0, 3.0, 4.0),
        ];
        events[1].failure = Some("injected-fault".into());
        let json = chrome_trace_json(&events);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let spans = doc.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<_> = spans
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(
            complete.len(),
            events.len(),
            "one complete event per attempt"
        );
        // Distinct pids = distinct jobs.
        let pids: std::collections::BTreeSet<u64> = complete
            .iter()
            .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()))
            .collect();
        assert_eq!(pids.len(), 2);
        // The failed attempt is visibly marked and carries its cause.
        let failed: Vec<_> = complete
            .iter()
            .filter(|e| {
                e.get("name")
                    .and_then(|n| n.as_str())
                    .unwrap()
                    .starts_with("FAILED")
            })
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0]
                .get("args")
                .unwrap()
                .get("failure")
                .unwrap()
                .as_str(),
            Some("injected-fault")
        );
        // Metadata names every process.
        let meta_names: Vec<&str> = spans
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(meta_names.len(), 2);
        assert!(meta_names[0].contains("job-0"));
    }

    #[test]
    fn master_events_land_on_cluster_process() {
        let mut master = event(0, TracePhase::Master, 0, 0.0, 1.0);
        master.job_seq = None;
        master.node = None;
        let json = chrome_trace_json(&[master]);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let spans = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = spans
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("pid").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(span.get("tid").and_then(|t| t.as_u64()), Some(0));
    }

    #[test]
    fn analytics_compute_stragglers_and_lost_work() {
        let mut events = vec![
            event(0, TracePhase::Map, 0, 0.0, 1.0),
            event(0, TracePhase::Map, 1, 0.0, 1.0),
            event(0, TracePhase::Map, 2, 0.0, 4.0), // straggler
            event(0, TracePhase::Reduce, 0, 4.0, 5.0),
        ];
        // A failed attempt of task 1 plus its retry.
        let mut failed = event(0, TracePhase::Map, 1, 0.0, 1.0);
        failed.failure = Some("injected-fault".into());
        failed.attempt = 0;
        events.push(failed);
        // Launch/shuffle spans must not form waves.
        events.push(event(0, TracePhase::Launch, 0, 0.0, 0.5));

        let a = analyze(&events, None);
        assert_eq!(a.waves.len(), 2, "map wave + reduce wave");
        let map_wave = &a.waves[0];
        assert_eq!(map_wave.phase, TracePhase::Map);
        assert_eq!(map_wave.tasks, 3);
        assert_eq!(map_wave.attempts, 4);
        assert_eq!(map_wave.max_secs, 4.0);
        assert!((map_wave.straggler_ratio - 4.0).abs() < 1e-12);
        assert!((map_wave.cpu_fraction - 0.5).abs() < 1e-12);
        assert_eq!(a.retried_attempts, 1);
        assert!((a.lost_task_secs - 1.0).abs() < 1e-12);
        assert!((a.worst_straggler_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn analytics_filter_by_job_set() {
        let events = vec![
            event(0, TracePhase::Map, 0, 0.0, 1.0),
            event(7, TracePhase::Map, 0, 1.0, 2.0),
        ];
        let only_seven: std::collections::BTreeSet<u64> = [7].into_iter().collect();
        let a = analyze(&events, Some(&only_seven));
        assert_eq!(a.waves.len(), 1);
        assert_eq!(a.waves[0].job_seq, 7);
    }

    #[test]
    fn events_round_trip_through_json() {
        let mut e = event(3, TracePhase::Reduce, 2, 1.5, 2.5);
        e.failure = Some("user-error: boom".into());
        e.attempt = 1;
        let text = serde_json::to_string(&e).unwrap();
        let back: TaskEvent = serde_json::from_str(&text).unwrap();
        assert_eq!(back.job, e.job);
        assert_eq!(back.job_seq, Some(3));
        assert_eq!(back.phase, TracePhase::Reduce);
        assert_eq!(back.attempt, 1);
        assert_eq!(back.failure, e.failure);
        assert!((back.sim_end_secs - 2.5).abs() < 1e-12);
    }

    #[test]
    fn analytics_round_trip_through_json() {
        let a = analyze(&[event(0, TracePhase::Map, 0, 0.0, 2.0)], None);
        let text = serde_json::to_string_pretty(&a).unwrap();
        let back: PipelineAnalytics = serde_json::from_str(&text).unwrap();
        assert_eq!(back.waves.len(), 1);
        assert_eq!(back.waves[0].job, "job-0");
        assert!((back.total_task_secs - 2.0).abs() < 1e-12);
    }

    // ---- empty / degenerate duration sets (regression pins) -------------

    #[test]
    fn analyze_of_no_events_is_empty_and_finite() {
        let a = analyze(&[], None);
        assert!(a.waves.is_empty());
        assert_eq!(a.retried_attempts, 0);
        assert_eq!(a.lost_task_secs, 0.0);
        // The fold over zero waves must not produce NaN.
        assert_eq!(a.worst_straggler_ratio(), 1.0);
        assert_eq!(a.total_task_secs, 0.0);
    }

    #[test]
    fn analyze_of_spans_only_forms_no_waves() {
        // Launch/shuffle driver spans and master events carry no wave
        // identity; a trace holding only those must analyze to nothing.
        let mut master = event(0, TracePhase::Master, 0, 0.0, 1.0);
        master.job_seq = None;
        let events = vec![
            event(0, TracePhase::Launch, 0, 0.0, 0.5),
            event(0, TracePhase::Shuffle, 0, 0.5, 1.0),
            master,
        ];
        let a = analyze(&events, None);
        assert!(a.waves.is_empty());
        assert_eq!(a.worst_straggler_ratio(), 1.0);
    }

    #[test]
    fn zero_duration_wave_has_no_nan_analytics() {
        // Every attempt instant (p50 = max = 0): straggler ratio falls
        // back to 1.0 and cpu_fraction to 0.0 instead of 0/0 NaN.
        let events = vec![
            event(0, TracePhase::Map, 0, 1.0, 1.0),
            event(0, TracePhase::Map, 1, 1.0, 1.0),
        ];
        let a = analyze(&events, None);
        assert_eq!(a.waves.len(), 1);
        let w = &a.waves[0];
        assert_eq!(w.p50_secs, 0.0);
        assert_eq!(w.max_secs, 0.0);
        assert!(w.straggler_ratio.is_finite());
        assert_eq!(w.straggler_ratio, 1.0);
        assert!(w.cpu_fraction.is_finite());
        assert_eq!(w.cpu_fraction, 0.0);
        assert_eq!(a.worst_straggler_ratio(), 1.0);
    }

    #[test]
    fn percentile_of_empty_set_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
        let one = [3.0];
        assert_eq!(percentile(&one, 0.0), 3.0);
        assert_eq!(percentile(&one, 1.0), 3.0);
    }
}
