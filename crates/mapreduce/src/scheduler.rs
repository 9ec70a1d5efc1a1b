//! Virtual-node wave scheduling.
//!
//! A wave (all map tasks of a job, or all reduce tasks) is scheduled onto
//! `m0` virtual nodes, each with a fixed number of task slots, using the
//! greedy list scheduler Hadoop's JobTracker approximates: each task, in
//! submission order, goes to the slot that frees earliest. The wave's
//! simulated duration is the makespan.
//!
//! Failed attempts are charged too: a retry appears as an extra entry in
//! the task list (scheduled after its failed attempt), so an injected
//! failure stretches the makespan exactly the way the paper's Section 7.4
//! failed-mapper run stretched from 5 to 8 hours.
//!
//! [`plan_wave`] is the full model: on top of the same greedy list
//! scheduling it adds data locality (tasks prefer slots on nodes holding a
//! replica of their input; remote reads pay a network crossing),
//! mid-wave node death (in-flight attempts are lost; completed map
//! outputs hosted on the dead node are lost too and re-executed), and
//! task timeouts with capped exponential backoff. It is the only planner:
//! a fault-free wave is the same call with an empty [`WaveFaults`].
//!
//! Clusters may be *heterogeneous* — `node_speeds[i]` scales node `i`'s
//! execution rate (the paper observes "the performance variance between
//! different large EC2 instances is high", Section 7.4). Placement is
//! *speed-blind*, like Hadoop's JobTracker: the scheduler cannot know a
//! node is slow in advance. A backup copy mitigates exactly this blindness
//! ([`speculate`], Hadoop's speculative execution): the wave's
//! makespan-defining straggler is re-run on the slot that would finish it
//! first, and the first copy to commit wins.

use std::collections::BTreeSet;

/// One task's priced attempt chain and input locality for [`plan_wave`].
///
/// The *body chain* is what actually executed: `failed_secs` holds the
/// nominal-speed durations of body-level failures (injected faults, user
/// errors) in order, and `success_secs` the successful body. The planner
/// replays this chain, possibly inserting extra simulation-level attempts
/// (node losses, timeouts) that re-run the current chain entry.
#[derive(Debug, Clone, Default)]
pub struct PlannedTask {
    /// Nominal-speed durations of body-failed attempts, in order.
    pub failed_secs: Vec<f64>,
    /// Nominal-speed duration of the successful body. For a task whose
    /// body exhausted every attempt this is unused (the chain never
    /// reaches success).
    pub success_secs: f64,
    /// Input blocks read by the successful body: `(bytes, nodes holding a
    /// surviving replica)`. An empty replica list means every copy is
    /// remote (or lost — the body-level read error handles that case).
    pub reads: Vec<(u64, Vec<usize>)>,
}

/// Fault environment and retry policy for one wave of [`plan_wave`].
#[derive(Debug, Clone, Default)]
pub struct WaveFaults {
    /// Nodes already dead when the wave starts: no attempt is placed there.
    pub dead_nodes: BTreeSet<usize>,
    /// A node dying mid-wave: `(node, seconds after wave start)`. Attempts
    /// in flight on it at that instant fail with
    /// [`AttemptOutcome::NodeLost`]; nothing starts there afterward.
    pub node_death: Option<(usize, f64)>,
    /// Map outputs are node-local (Hadoop: not in the DFS), so a mid-wave
    /// death also voids *completed* tasks on the dying node
    /// ([`AttemptOutcome::OutputLost`]) and re-executes them. False for
    /// reduce waves and map-only jobs, whose outputs are replicated DFS
    /// writes.
    pub lose_completed_outputs: bool,
    /// Kill attempts whose duration exceeds this bound, seconds.
    pub timeout_secs: Option<f64>,
    /// First timeout-retry backoff delay, seconds.
    pub backoff_base_secs: f64,
    /// Upper bound on the backoff delay, seconds.
    pub backoff_cap_secs: f64,
    /// Attempt budget per task (counting simulation-level retries).
    pub max_attempts: u32,
    /// Network bandwidth charged on remote reads, bytes/second.
    pub net_bw: f64,
}

/// Why a planned attempt ended the way it did.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// Ran to completion and its output was used.
    Success,
    /// The body itself failed (injected fault or user error) and the chain
    /// advanced to its next measured attempt.
    BodyFailed,
    /// The node died while the attempt was running.
    NodeLost(usize),
    /// The attempt completed, but the node died later in the wave and its
    /// node-local map output went with it.
    OutputLost(usize),
    /// The attempt overran the task timeout and was declared dead.
    TimedOut {
        /// The timeout it exceeded, seconds.
        limit_secs: f64,
    },
}

/// One scheduled attempt of one task in a [`WavePlan`].
#[derive(Debug, Clone)]
pub struct PlannedAttempt {
    /// Node the attempt ran on.
    pub node: usize,
    /// Slot (global index, `node * slots_per_node + local`).
    pub slot: usize,
    /// Start, seconds from wave start.
    pub start: f64,
    /// End (completion, death, or timeout cut), seconds from wave start.
    pub end: f64,
    /// Index into the task's body chain this attempt executed
    /// (`failed_secs` first, then the successful body).
    pub chain: usize,
    /// Input bytes this attempt pulled from other nodes' replicas.
    pub remote_bytes: u64,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// Result of [`plan_wave`]: the schedule plus per-attempt provenance.
#[derive(Debug, Clone, Default)]
pub struct WavePlan {
    /// Simulated seconds from wave start to last completion.
    pub makespan_secs: f64,
    /// Per-slot busy time, for utilization diagnostics.
    pub slot_busy_secs: Vec<f64>,
    /// Every attempt of every task, `attempts[task]` in execution order.
    pub attempts: Vec<Vec<PlannedAttempt>>,
    /// Tasks whose successful attempt read all its input locally (tasks
    /// that read nothing count as local).
    pub data_local_tasks: usize,
    /// Input bytes pulled across the network by all attempts.
    pub remote_read_bytes: u64,
    /// Tasks that ran out of attempt budget: `(task, attempts started)`.
    pub failed_tasks: Vec<(usize, u32)>,
    /// Straggler tasks whose backup copy on an idle slot committed first
    /// ([`speculate`]); 0 from [`plan_wave`] itself.
    pub steals: u64,
}

impl WavePlan {
    /// Attempts beyond each task's first — the retry count the job report
    /// surfaces.
    pub fn extra_attempts(&self) -> u32 {
        self.attempts
            .iter()
            .map(|a| a.len().saturating_sub(1) as u32)
            .sum()
    }

    /// Busy simulated seconds per node: every attempt's occupancy summed
    /// onto the node it ran on — the per-node utilization series the
    /// observability registry records.
    pub fn node_busy_secs(&self, nodes: usize) -> Vec<f64> {
        let mut busy = vec![0.0; nodes.max(1)];
        for attempts in &self.attempts {
            for a in attempts {
                if a.node < busy.len() {
                    busy[a.node] += a.end - a.start;
                }
            }
        }
        busy
    }
}

/// Execution rate of `node` (unlisted or non-positive speeds are nominal).
fn node_speed(node_speeds: &[f64], node: usize) -> f64 {
    match node_speeds.get(node) {
        Some(&s) if s > 0.0 => s,
        _ => 1.0,
    }
}

/// Bytes `task` would pull over the network when run on `node`.
fn remote_bytes_on(task: &PlannedTask, node: usize) -> u64 {
    task.reads
        .iter()
        .filter(|(_, homes)| !homes.contains(&node))
        .map(|(b, _)| *b)
        .sum()
}

/// Seconds entry `chain` of `task` takes on `node`, and the remote bytes
/// it pulls there. Remote input crosses the network at full bandwidth — a
/// slow *CPU* does not slow the wire down.
fn attempt_secs(
    task: &PlannedTask,
    chain: usize,
    node: usize,
    node_speeds: &[f64],
    net_bw: f64,
) -> (f64, u64) {
    let rb = remote_bytes_on(task, node);
    let nominal = task.failed_secs.get(chain).unwrap_or(&task.success_secs);
    let mut dur = nominal / node_speed(node_speeds, node);
    if rb > 0 && net_bw > 0.0 {
        dur += rb as f64 / net_bw;
    }
    (dur, rb)
}

/// Where a backup copy of `task`'s chain entry, currently on `slot`,
/// would commit earliest: each other live slot drains (`free_at`), then
/// re-runs the same body — paying its own network crossing if the task's
/// input is not local there. Returns `(backup slot, commit time)`.
fn best_backup(
    task: &PlannedTask,
    chain: usize,
    slot: usize,
    free_at: &[f64],
    node_speeds: &[f64],
    slots_per_node: usize,
    faults: &WaveFaults,
) -> Option<(usize, f64)> {
    (0..free_at.len())
        .filter(|&s| s != slot && !faults.dead_nodes.contains(&(s / slots_per_node)))
        .map(|s| {
            let (dur, _) =
                attempt_secs(task, chain, s / slots_per_node, node_speeds, faults.net_bw);
            (s, free_at[s] + dur)
        })
        .min_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)))
}

/// Full wave planning: greedy list scheduling with data locality, node
/// death, and task timeouts.
///
/// Tasks are scheduled in index order, retries as soon as their failed
/// attempt releases them (node losses re-queue at the death instant;
/// timeouts re-queue after a capped exponential backoff that also avoids
/// the node that timed out). Slot choice is by earliest start, with
/// node-local slots preferred among equals — Hadoop's locality tier —
/// and remote placements charged one network crossing for the non-local
/// bytes. The backup copy is a separate pass over the returned plan
/// ([`speculate`]).
pub fn plan_wave(
    tasks: &[PlannedTask],
    node_speeds: &[f64],
    slots_per_node: usize,
    faults: &WaveFaults,
) -> WavePlan {
    let nodes = node_speeds.len().max(1);
    let slots_per_node = slots_per_node.max(1);
    let slot_count = nodes * slots_per_node;
    let max_attempts = faults.max_attempts.max(1);
    let death = faults.node_death;

    /// A task waiting to run (first attempt or retry).
    struct Pending {
        ready: f64,
        seq: u64,
        task: usize,
        attempt_no: u32,
        chain: usize,
        timeout_retries: u32,
        avoid: Vec<usize>,
    }

    let mut pending: Vec<Pending> = tasks
        .iter()
        .enumerate()
        .map(|(i, _)| Pending {
            ready: 0.0,
            seq: i as u64,
            task: i,
            attempt_no: 0,
            chain: 0,
            timeout_retries: 0,
            avoid: Vec::new(),
        })
        .collect();
    let mut next_seq = tasks.len() as u64;
    let mut free_at = vec![0.0_f64; slot_count];
    let mut attempts: Vec<Vec<PlannedAttempt>> = vec![Vec::new(); tasks.len()];
    let mut failed_tasks: Vec<(usize, u32)> = Vec::new();
    let mut remote_read_bytes = 0u64;

    loop {
        while !pending.is_empty() {
            // Dispatch in (ready, submission) order — the same task order
            // as the simple scheduler when nothing is delayed.
            let idx = pending
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.ready.total_cmp(&b.1.ready).then(a.1.seq.cmp(&b.1.seq)))
                .map(|(i, _)| i)
                .expect("pending non-empty");
            let e = pending.swap_remove(idx);
            if e.attempt_no >= max_attempts {
                failed_tasks.push((e.task, e.attempt_no));
                continue;
            }
            let t = &tasks[e.task];

            // A slot is usable when its node is alive at the attempt's
            // start; returns the start time.
            let usable = |slot: usize, avoid: &[usize]| -> Option<f64> {
                let node = slot / slots_per_node;
                if faults.dead_nodes.contains(&node) || avoid.contains(&node) {
                    return None;
                }
                let start = free_at[slot].max(e.ready);
                if let Some((dn, tk)) = death {
                    if node == dn && start >= tk {
                        return None;
                    }
                }
                Some(start)
            };
            // Earliest start wins; among equal starts, a node holding a
            // replica of the task's input (no remote bytes) beats a remote
            // one, then the lowest slot index — Hadoop's locality tier.
            let choose = |avoid: &[usize]| -> Option<(usize, f64)> {
                (0..slot_count)
                    .filter_map(|s| usable(s, avoid).map(|start| (s, start)))
                    .min_by(|a, b| {
                        let tier = |&(s, _): &(usize, f64)| -> u8 {
                            u8::from(remote_bytes_on(t, s / slots_per_node) > 0)
                        };
                        a.1.total_cmp(&b.1)
                            .then(tier(a).cmp(&tier(b)))
                            .then(a.0.cmp(&b.0))
                    })
            };
            // Prefer honoring the avoid set; a cluster with no alternative
            // reuses the avoided node rather than deadlocking.
            let picked = choose(&e.avoid).or_else(|| choose(&[]));
            let Some((slot, start)) = picked else {
                // Every live node is gone — the task cannot run at all.
                failed_tasks.push((e.task, e.attempt_no));
                continue;
            };
            let node = slot / slots_per_node;
            let (dur, rb) = attempt_secs(t, e.chain, node, node_speeds, faults.net_bw);
            remote_read_bytes += rb;
            let natural_end = start + dur;

            // The attempt is cut short by whichever comes first: the task
            // timeout or the node's death.
            let timeout_cut = faults
                .timeout_secs
                .filter(|&lim| dur > lim)
                .map(|lim| start + lim);
            let death_cut = death
                .filter(|&(dn, tk)| node == dn && natural_end > tk)
                .map(|(_, tk)| tk);
            let (end, outcome) = match (timeout_cut, death_cut) {
                (Some(tc), Some(dc)) if dc <= tc => (dc, AttemptOutcome::NodeLost(node)),
                (Some(tc), _) => (
                    tc,
                    AttemptOutcome::TimedOut {
                        limit_secs: faults.timeout_secs.unwrap_or(0.0),
                    },
                ),
                (None, Some(dc)) => (dc, AttemptOutcome::NodeLost(node)),
                (None, None) => {
                    if e.chain < t.failed_secs.len() {
                        (natural_end, AttemptOutcome::BodyFailed)
                    } else {
                        (natural_end, AttemptOutcome::Success)
                    }
                }
            };

            free_at[slot] = end;
            attempts[e.task].push(PlannedAttempt {
                node,
                slot,
                start,
                end,
                chain: e.chain,
                remote_bytes: rb,
                outcome: outcome.clone(),
            });

            match outcome {
                AttemptOutcome::Success => {}
                AttemptOutcome::BodyFailed => pending.push(Pending {
                    ready: end,
                    seq: next_seq,
                    task: e.task,
                    attempt_no: e.attempt_no + 1,
                    chain: e.chain + 1,
                    timeout_retries: e.timeout_retries,
                    avoid: e.avoid,
                }),
                AttemptOutcome::NodeLost(_) | AttemptOutcome::OutputLost(_) => {
                    pending.push(Pending {
                        ready: end,
                        seq: next_seq,
                        task: e.task,
                        attempt_no: e.attempt_no + 1,
                        chain: e.chain,
                        timeout_retries: e.timeout_retries,
                        avoid: e.avoid,
                    })
                }
                AttemptOutcome::TimedOut { .. } => {
                    let backoff = (faults.backoff_base_secs
                        * 2f64.powi(e.timeout_retries.min(30) as i32))
                    .min(faults.backoff_cap_secs)
                    .max(0.0);
                    let mut avoid = e.avoid;
                    if !avoid.contains(&node) {
                        avoid.push(node);
                    }
                    pending.push(Pending {
                        ready: end + backoff,
                        seq: next_seq,
                        task: e.task,
                        attempt_no: e.attempt_no + 1,
                        chain: e.chain,
                        timeout_retries: e.timeout_retries + 1,
                        avoid,
                    });
                }
            }
            next_seq += 1;
        }

        // Hadoop semantics for a mid-wave death: map output lives on the
        // mapper's local disk, so tasks that *completed* on the dying node
        // before it died lose their output and re-execute. One extra round
        // suffices — nothing can start on the dead node after the death
        // instant, so the second pass creates no new losses.
        let Some((dn, tk)) = death else { break };
        if !faults.lose_completed_outputs {
            break;
        }
        let mut converted = 0;
        for (task, list) in attempts.iter_mut().enumerate() {
            let attempt_no = list.len() as u32;
            let Some(last) = list.last_mut() else {
                continue;
            };
            if last.outcome == AttemptOutcome::Success && last.node == dn && last.end <= tk {
                last.outcome = AttemptOutcome::OutputLost(dn);
                pending.push(Pending {
                    ready: tk,
                    seq: next_seq,
                    task,
                    attempt_no,
                    chain: last.chain,
                    timeout_retries: 0,
                    avoid: Vec::new(),
                });
                next_seq += 1;
                converted += 1;
            }
        }
        if converted == 0 {
            break;
        }
    }

    let makespan = free_at.iter().fold(0.0_f64, |m, &v| m.max(v));

    let data_local_tasks = attempts
        .iter()
        .filter(|list| {
            list.last()
                .is_some_and(|a| a.outcome == AttemptOutcome::Success && a.remote_bytes == 0)
        })
        .count();

    WavePlan {
        makespan_secs: makespan,
        slot_busy_secs: free_at,
        attempts,
        data_local_tasks,
        remote_read_bytes,
        failed_tasks,
        steals: 0,
    }
}

// ---- Speculative execution -------------------------------------------------

/// Hadoop's speculative execution over a completed wave plan: one backup
/// copy of the wave's makespan-defining straggler. The plan's
/// latest-finishing successful task (the last such task on ties) is the
/// candidate; if another live slot could re-run it to an earlier finish,
/// that slot launches the copy, and when the copy commits the original
/// attempt is killed (its recorded end and its slot's busy time are
/// truncated to the backup's completion, exactly when the task's output
/// becomes available; the copy's remote input bytes are charged to the
/// plan). A won backup is counted in [`WavePlan::steals`].
///
/// Like Hadoop suspending speculation during failure recovery, the pass
/// is a no-op on waves with a mid-wave death, a timeout, or an exhausted
/// task.
pub fn speculate(
    plan: &mut WavePlan,
    tasks: &[PlannedTask],
    node_speeds: &[f64],
    slots_per_node: usize,
    faults: &WaveFaults,
) {
    let nodes = node_speeds.len().max(1);
    let slots_per_node = slots_per_node.max(1);
    let slot_count = nodes * slots_per_node;
    if faults.node_death.is_some() || !plan.failed_tasks.is_empty() {
        return;
    }
    let timed_out = plan
        .attempts
        .iter()
        .flatten()
        .any(|a| matches!(a.outcome, AttemptOutcome::TimedOut { .. }));
    if timed_out || plan.slot_busy_secs.len() != slot_count {
        return;
    }
    let Some((task, end)) = plan
        .attempts
        .iter()
        .enumerate()
        .filter_map(|(t, list)| list.last().map(|a| (t, a)))
        .filter(|(_, a)| a.outcome == AttemptOutcome::Success)
        .map(|(t, a)| (t, a.end))
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return;
    };
    let last = plan.attempts[task].len() - 1;
    let (slot, chain) = {
        let a = &plan.attempts[task][last];
        (a.slot, a.chain)
    };
    let backup = best_backup(
        &tasks[task],
        chain,
        slot,
        &plan.slot_busy_secs,
        node_speeds,
        slots_per_node,
        faults,
    );
    let Some((backup, alt)) = backup.filter(|&(_, alt)| alt < end) else {
        return;
    };
    // The backup slot runs the copy to `alt`; the original copy is killed
    // at that instant (both slots are occupied until then).
    plan.remote_read_bytes += remote_bytes_on(&tasks[task], backup / slots_per_node);
    plan.slot_busy_secs[slot] = alt;
    plan.slot_busy_secs[backup] = alt;
    plan.attempts[task][last].end = alt;
    plan.makespan_secs = plan.slot_busy_secs.iter().fold(0.0_f64, |m, &v| m.max(v));
    plan.steals += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_tasks(secs: &[f64]) -> Vec<PlannedTask> {
        secs.iter()
            .map(|&s| PlannedTask {
                success_secs: s,
                ..Default::default()
            })
            .collect()
    }

    /// Plans `secs` (submission order) as a fault-free wave: single-attempt
    /// budget, no deaths, no timeouts, no locality inputs, with or without
    /// the speculative backup of its worst straggler.
    fn wave(secs: &[f64], speeds: &[f64], slots: usize, speculative: bool) -> WavePlan {
        let faults = WaveFaults {
            max_attempts: 1,
            ..WaveFaults::default()
        };
        let tasks = simple_tasks(secs);
        if speculative {
            backed_up(&tasks, speeds, slots, &faults)
        } else {
            plan_wave(&tasks, speeds, slots, &faults)
        }
    }

    /// [`plan_wave`] followed by [`speculate`], as the runner prices a
    /// wave with speculative execution on.
    fn backed_up(
        tasks: &[PlannedTask],
        speeds: &[f64],
        slots: usize,
        faults: &WaveFaults,
    ) -> WavePlan {
        let mut plan = plan_wave(tasks, speeds, slots, faults);
        speculate(&mut plan, tasks, speeds, slots, faults);
        plan
    }

    /// No attempt outlives its wave and no node is busier than the wave
    /// is long: a cancelled straggler copy stops at its backup's commit.
    fn assert_attempts_inside_wave(p: &WavePlan, nodes: usize, slots: usize) {
        for a in p.attempts.iter().flatten() {
            assert!(a.end <= p.makespan_secs + 1e-12, "attempt ends past wave");
        }
        for busy in p.node_busy_secs(nodes) {
            assert!(busy <= p.makespan_secs * slots as f64 + 1e-12);
        }
    }

    /// Node each task's first attempt ran on.
    fn placements(p: &WavePlan) -> Vec<usize> {
        p.attempts.iter().map(|a| a[0].node).collect()
    }

    /// `(start, end)` of each task's first attempt.
    fn intervals(p: &WavePlan) -> Vec<(f64, f64)> {
        p.attempts.iter().map(|a| (a[0].start, a[0].end)).collect()
    }

    /// Fraction of slot-seconds actually used (1.0 = perfectly balanced).
    fn utilization(p: &WavePlan) -> f64 {
        if p.makespan_secs == 0.0 || p.slot_busy_secs.is_empty() {
            return 1.0;
        }
        let busy: f64 = p.slot_busy_secs.iter().sum();
        busy / (p.makespan_secs * p.slot_busy_secs.len() as f64)
    }

    #[test]
    fn equal_tasks_divide_evenly() {
        let tasks = vec![1.0; 8];
        let s = wave(&tasks, &[1.0; 4], 1, false);
        assert!((s.makespan_secs - 2.0).abs() < 1e-12);
        assert!((utilization(&s) - 1.0).abs() < 1e-12);
        // Round-robin placement across the 4 nodes.
        assert_eq!(&placements(&s)[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn single_node_serializes() {
        let tasks = vec![1.0, 2.0, 3.0];
        let s = wave(&tasks, &[1.0; 1], 1, false);
        assert!((s.makespan_secs - 6.0).abs() < 1e-12);
        assert!(placements(&s).iter().all(|&p| p == 0));
    }

    #[test]
    fn more_nodes_than_tasks() {
        let tasks = vec![5.0, 1.0];
        let s = wave(&tasks, &[1.0; 10], 1, false);
        assert!((s.makespan_secs - 5.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_dominates_makespan() {
        // 7 short tasks + 1 long submitted last: in submission order the
        // long task lands on the node that freed earliest (busy 1s), so the
        // makespan is 1 + 10.
        let mut tasks = vec![1.0; 7];
        tasks.push(10.0);
        let s = wave(&tasks, &[1.0; 4], 1, false);
        assert!((s.makespan_secs - 11.0).abs() < 1e-12);
        assert!(utilization(&s) < 0.5);
        // Submitted first, the long task fully overlaps the short ones.
        let mut tasks = vec![10.0];
        tasks.extend(vec![1.0; 7]);
        let s = wave(&tasks, &[1.0; 4], 1, false);
        assert!((s.makespan_secs - 10.0).abs() < 1e-12);
    }

    #[test]
    fn retry_extends_one_node() {
        // A failed attempt + retry shows up as two 4.0 entries: on 2 nodes
        // with 2 other 4.0 tasks, makespan doubles vs the clean run.
        let clean = wave(&[4.0, 4.0], &[1.0; 2], 1, false);
        let faulty = wave(&[4.0, 4.0, 4.0, 4.0], &[1.0; 2], 1, false);
        assert!((clean.makespan_secs - 4.0).abs() < 1e-12);
        assert!((faulty.makespan_secs - 8.0).abs() < 1e-12);
    }

    #[test]
    fn slots_multiply_capacity() {
        let tasks = vec![1.0; 8];
        let s = wave(&tasks, &[1.0; 2], 4, false);
        assert!((s.makespan_secs - 1.0).abs() < 1e-12);
        assert_eq!(s.slot_busy_secs.len(), 8);
    }

    #[test]
    fn empty_wave_is_zero() {
        let s = wave(&[], &[1.0; 4], 1, false);
        assert_eq!(s.makespan_secs, 0.0);
        assert!((utilization(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_nodes_clamps_to_one() {
        let s = wave(&[2.0], &[], 0, false);
        assert!((s.makespan_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slow_node_stretches_the_wave() {
        // 4 equal tasks, node 3 at half speed: its task takes 2x.
        let tasks = vec![4.0; 4];
        let even = wave(&tasks, &[1.0; 4], 1, false);
        assert!((even.makespan_secs - 4.0).abs() < 1e-12);
        let skew = wave(&tasks, &[1.0, 1.0, 1.0, 0.5], 1, false);
        assert!((skew.makespan_secs - 8.0).abs() < 1e-12);
    }

    #[test]
    fn speculation_rescues_the_straggler() {
        // Node 3 runs at 1/4 speed; without speculation the 4th task takes
        // 16 s there. With speculation a backup lands on a fast node after
        // it drains (4 s) and finishes at 8 s.
        let tasks = vec![4.0; 4];
        let speeds = [1.0, 1.0, 1.0, 0.25];
        let off = wave(&tasks, &speeds, 1, false);
        assert!((off.makespan_secs - 16.0).abs() < 1e-12);
        let on = wave(&tasks, &speeds, 1, true);
        assert!(
            (on.makespan_secs - 8.0).abs() < 1e-12,
            "got {}",
            on.makespan_secs
        );
        assert_eq!(on.steals, 1);
        assert_attempts_inside_wave(&on, 4, 1);
    }

    #[test]
    fn speculation_is_noop_on_homogeneous_balanced_waves() {
        let tasks = vec![1.0; 8];
        let off = wave(&tasks, &[1.0; 4], 1, false);
        let on = wave(&tasks, &[1.0; 4], 1, true);
        assert_eq!(off.makespan_secs, on.makespan_secs);
        assert_eq!(on.steals, 0);
        assert_attempts_inside_wave(&on, 4, 1);
    }

    #[test]
    fn speculation_keeps_utilization_physical() {
        // Busy slot-seconds can never exceed makespan x slots: the
        // cancelled straggler copy stops being charged past the backup's
        // completion, and the backup slot is charged for the copy it ran.
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![3.0], vec![0.5, 2.0, 1.0]),
            (vec![4.0; 4], vec![1.0, 1.0, 1.0, 0.25]),
            (vec![2.0, 5.0, 1.0, 7.0, 3.0], vec![0.25, 1.0, 4.0]),
            (vec![1.0; 8], vec![1.0; 4]),
        ];
        for (tasks, speeds) in cases {
            let s = wave(&tasks, &speeds, 1, true);
            assert!(
                utilization(&s) <= 1.0 + 1e-12,
                "utilization {} > 1 for tasks {tasks:?} on speeds {speeds:?}",
                utilization(&s)
            );
            for &busy in &s.slot_busy_secs {
                assert!(busy <= s.makespan_secs + 1e-12, "slot busy past makespan");
            }
            assert_attempts_inside_wave(&s, speeds.len(), 1);
        }
        // The speed-blind single-task case: the straggler's slot and the
        // backup's slot are each busy exactly until the backup completes.
        let s = wave(&[3.0], &[0.5, 2.0, 1.0], 1, true);
        assert!((s.makespan_secs - 1.5).abs() < 1e-12);
        assert!((s.slot_busy_secs[0] - 1.5).abs() < 1e-12, "cancelled copy");
        assert!((s.slot_busy_secs[1] - 1.5).abs() < 1e-12, "backup charged");
        assert_eq!(s.slot_busy_secs[2], 0.0);
    }

    #[test]
    fn placement_is_speed_blind() {
        // Hadoop cannot know node 0 is slow: the single task lands on the
        // first free slot and eats the slowdown.
        let s = wave(&[3.0], &[0.5, 2.0, 1.0], 1, false);
        assert_eq!(placements(&s), vec![0]);
        assert!((s.makespan_secs - 6.0).abs() < 1e-12);
        // ...and speculation rescues it on the fast node.
        let s = wave(&[3.0], &[0.5, 2.0, 1.0], 1, true);
        assert!((s.makespan_secs - 1.5).abs() < 1e-12);
    }

    #[test]
    fn intervals_match_placements_and_makespan() {
        let tasks = vec![3.0, 1.0, 2.0, 4.0, 1.0];
        let s = wave(&tasks, &[1.0; 2], 1, false);
        assert_eq!(intervals(&s).len(), tasks.len());
        for (i, &(start, end)) in intervals(&s).iter().enumerate() {
            assert!(start >= 0.0 && end >= start);
            assert!(end <= s.makespan_secs + 1e-12);
            // Duration equals the task's cost at nominal speed.
            assert!((end - start - tasks[i]).abs() < 1e-12);
        }
        // Tasks on the same node never overlap.
        for i in 0..tasks.len() {
            for j in (i + 1)..tasks.len() {
                if placements(&s)[i] == placements(&s)[j] {
                    let (a0, a1) = intervals(&s)[i];
                    let (b0, b1) = intervals(&s)[j];
                    assert!(a1 <= b0 + 1e-12 || b1 <= a0 + 1e-12, "overlap on node");
                }
            }
        }
    }

    #[test]
    fn intervals_scale_with_node_speed() {
        let s = wave(&[4.0], &[0.5], 1, false);
        assert_eq!(intervals(&s), vec![(0.0, 8.0)]);
    }

    #[test]
    fn zero_speed_treated_as_nominal() {
        let s = wave(&[1.0], &[0.0], 1, false);
        assert!((s.makespan_secs - 1.0).abs() < 1e-12);
    }

    // ---- plan_wave ------------------------------------------------------

    fn no_faults(max_attempts: u32) -> WaveFaults {
        WaveFaults {
            max_attempts,
            net_bw: 1.0,
            backoff_base_secs: 1.0,
            backoff_cap_secs: 60.0,
            ..Default::default()
        }
    }

    #[test]
    fn plan_replays_body_failures_like_the_flat_list() {
        // 2 tasks on 2 nodes, task 1 fails once: 100 + retry 100 = 200,
        // matching the runner's pinned injected-fault test.
        let mut tasks = simple_tasks(&[100.0, 100.0]);
        tasks[1].failed_secs = vec![100.0];
        let p = backed_up(&tasks, &[1.0; 2], 1, &no_faults(4));
        assert!(
            (p.makespan_secs - 200.0).abs() < 1e-9,
            "{}",
            p.makespan_secs
        );
        assert_eq!(p.attempts[1].len(), 2);
        assert_eq!(p.attempts[1][0].outcome, AttemptOutcome::BodyFailed);
        assert_eq!(p.attempts[1][1].outcome, AttemptOutcome::Success);
        assert!(p.attempts[1][1].start >= p.attempts[1][0].end - 1e-12);
        assert_eq!(p.extra_attempts(), 1);
    }

    #[test]
    fn locality_prefers_replica_holding_nodes() {
        // Two equal tasks, two nodes. Task 0's input lives on node 1 only:
        // with free slots everywhere it must pick node 1, not node 0.
        let mut tasks = simple_tasks(&[10.0, 10.0]);
        tasks[0].reads = vec![(100, vec![1])];
        tasks[1].reads = vec![(100, vec![0])];
        let p = plan_wave(&tasks, &[1.0; 2], 1, &no_faults(4));
        assert_eq!(p.attempts[0][0].node, 1);
        assert_eq!(p.attempts[1][0].node, 0);
        assert_eq!(p.data_local_tasks, 2);
        assert_eq!(p.remote_read_bytes, 0);
        assert!((p.makespan_secs - 10.0).abs() < 1e-12, "no network charge");
    }

    #[test]
    fn remote_reads_charge_the_network() {
        // One task whose 50-byte input lives on node 1, but node 1 is dead
        // from the start: it runs remote on node 0 and pays 50/net_bw.
        let mut tasks = simple_tasks(&[10.0]);
        tasks[0].reads = vec![(50, vec![1])];
        let mut faults = no_faults(4);
        faults.net_bw = 10.0;
        faults.dead_nodes.insert(1);
        let p = plan_wave(&tasks, &[1.0; 2], 1, &faults);
        assert_eq!(p.attempts[0][0].node, 0);
        assert_eq!(p.remote_read_bytes, 50);
        assert_eq!(p.data_local_tasks, 0);
        assert!((p.makespan_secs - 15.0).abs() < 1e-12, "10 + 50/10");
    }

    #[test]
    fn mid_wave_death_kills_in_flight_attempts() {
        // 2 nodes, 2 tasks of 100 s; node 1 dies at t=40. Task 1's attempt
        // is lost at 40 and re-runs on node 0 from 100 to 200.
        let tasks = simple_tasks(&[100.0, 100.0]);
        let mut faults = no_faults(4);
        faults.node_death = Some((1, 40.0));
        let p = plan_wave(&tasks, &[1.0; 2], 1, &faults);
        assert_eq!(p.attempts[1][0].outcome, AttemptOutcome::NodeLost(1));
        assert!((p.attempts[1][0].end - 40.0).abs() < 1e-12, "cut at death");
        let retry = &p.attempts[1][1];
        assert_eq!(retry.outcome, AttemptOutcome::Success);
        assert_eq!(retry.node, 0, "retry lands on the surviving node");
        assert!((p.makespan_secs - 200.0).abs() < 1e-12);
    }

    #[test]
    fn mid_wave_death_loses_completed_map_outputs() {
        // 2 nodes, 4 tasks of 10 s => two rounds. Node 1 finishes task 1
        // at 10, then dies at 15 while running task 3: task 3 is NodeLost
        // *and* task 1's completed map output dies with the node
        // (OutputLost) — both re-execute on node 0.
        let tasks = simple_tasks(&[10.0; 4]);
        let mut faults = no_faults(4);
        faults.node_death = Some((1, 15.0));
        faults.lose_completed_outputs = true;
        let p = plan_wave(&tasks, &[1.0; 2], 1, &faults);
        assert_eq!(p.attempts[1][0].outcome, AttemptOutcome::OutputLost(1));
        assert_eq!(p.attempts[1][1].outcome, AttemptOutcome::Success);
        assert_eq!(p.attempts[1][1].node, 0);
        assert_eq!(p.attempts[3][0].outcome, AttemptOutcome::NodeLost(1));
        assert_eq!(p.attempts[3][1].outcome, AttemptOutcome::Success);
        // Node 0 serializes tasks 0, 2, then the two re-executions.
        assert!(
            (p.makespan_secs - 40.0).abs() < 1e-12,
            "{}",
            p.makespan_secs
        );
        // Without the Hadoop map-output rule the completed task survives.
        faults.lose_completed_outputs = false;
        let p = plan_wave(&tasks, &[1.0; 2], 1, &faults);
        assert_eq!(p.attempts[1].len(), 1);
        assert!((p.makespan_secs - 30.0).abs() < 1e-12);
    }

    #[test]
    fn timeouts_retry_elsewhere_with_backoff() {
        // Node 1 runs at 1/10 speed: a 10 s task becomes 100 s there,
        // tripping the 50 s timeout. The retry avoids node 1 and runs on
        // node 0 after the backoff.
        let tasks = simple_tasks(&[10.0, 10.0]);
        let mut faults = no_faults(4);
        faults.timeout_secs = Some(50.0);
        faults.backoff_base_secs = 2.0;
        let p = plan_wave(&tasks, &[1.0, 0.1], 1, &faults);
        let slow = &p.attempts[1][0];
        assert_eq!(slow.node, 1);
        assert_eq!(slow.outcome, AttemptOutcome::TimedOut { limit_secs: 50.0 });
        assert!((slow.end - 50.0).abs() < 1e-12, "cut at the timeout");
        let retry = &p.attempts[1][1];
        assert_eq!(retry.node, 0, "retry avoids the timed-out node");
        assert!(
            retry.start >= 52.0 - 1e-12,
            "backoff delays the retry: {}",
            retry.start
        );
        assert_eq!(retry.outcome, AttemptOutcome::Success);
    }

    #[test]
    fn timeout_exhaustion_fails_the_task() {
        // One single slow node: every attempt times out; with the avoid
        // set unsatisfiable the scheduler reuses the node, and the attempt
        // budget runs out.
        let tasks = simple_tasks(&[10.0]);
        let mut faults = no_faults(3);
        faults.timeout_secs = Some(5.0);
        let p = plan_wave(&tasks, &[0.1], 1, &faults);
        assert_eq!(p.failed_tasks, vec![(0, 3)]);
        assert_eq!(p.attempts[0].len(), 3);
        assert!(p.attempts[0]
            .iter()
            .all(|a| matches!(a.outcome, AttemptOutcome::TimedOut { .. })));
    }

    #[test]
    fn dead_from_start_nodes_are_never_used() {
        let tasks = simple_tasks(&[1.0; 4]);
        let mut faults = no_faults(4);
        faults.dead_nodes.insert(0);
        faults.dead_nodes.insert(2);
        let p = plan_wave(&tasks, &[1.0; 4], 1, &faults);
        for list in &p.attempts {
            for a in list {
                assert!(a.node == 1 || a.node == 3);
            }
        }
        assert!((p.makespan_secs - 2.0).abs() < 1e-12, "two live nodes");
    }

    #[test]
    fn all_nodes_dead_fails_every_task() {
        let tasks = simple_tasks(&[1.0; 2]);
        let mut faults = no_faults(4);
        faults.dead_nodes.insert(0);
        let p = plan_wave(&tasks, &[1.0], 1, &faults);
        assert_eq!(p.failed_tasks.len(), 2);
        assert!(p.attempts.iter().all(Vec::is_empty));
    }

    // ---- speculate ------------------------------------------------------

    #[test]
    fn speculation_backs_up_one_straggler_per_wave() {
        // 6 tasks of 4 s on 4 nodes, nodes 2 and 3 at 1/4 speed. Both
        // slow copies run 16 s; the fast slots drain by t=8. Speculation
        // backs up only the makespan-defining straggler (task 3, the last
        // on ties): its copy commits at 12, and task 2's 16 s copy
        // survives and still ends the wave.
        let tasks = simple_tasks(&[4.0; 6]);
        let speeds = [1.0, 1.0, 0.25, 0.25];
        let spec = backed_up(&tasks, &speeds, 1, &no_faults(4));
        assert_eq!(spec.steals, 1);
        assert!((spec.attempts[3][0].end - 12.0).abs() < 1e-12);
        assert!((spec.attempts[2][0].end - 16.0).abs() < 1e-12);
        assert!((spec.makespan_secs - 16.0).abs() < 1e-12);
    }

    #[test]
    fn backup_without_the_replica_pays_its_remote_read() {
        // One 8 s task whose 40-byte input lives on node 0 only, and node 0
        // runs at 1/4 speed: the local copy takes 32 s. The speculative
        // backup runs on node 1 — no replica there, so it pulls the 40
        // bytes over the wire (4 s at bw 10) and commits at 8 + 4 = 12.
        let mut tasks = simple_tasks(&[8.0]);
        tasks[0].reads = vec![(40, vec![0])];
        let mut faults = no_faults(4);
        faults.net_bw = 10.0;
        let p = backed_up(&tasks, &[0.25, 1.0], 1, &faults);
        assert_eq!(p.attempts[0][0].node, 0, "placed with its replica");
        assert!((p.makespan_secs - 12.0).abs() < 1e-12);
        assert_eq!(p.steals, 1);
        assert_eq!(p.remote_read_bytes, 40, "the backup's crossing is charged");
        assert!(
            (p.attempts[0][0].end - 12.0).abs() < 1e-12,
            "copy cancelled"
        );
    }

    #[test]
    fn stealing_is_noop_on_balanced_waves() {
        let tasks = simple_tasks(&[1.0; 8]);
        let before = plan_wave(&tasks, &[1.0; 4], 1, &no_faults(4)).makespan_secs;
        let p = backed_up(&tasks, &[1.0; 4], 1, &no_faults(4));
        assert_eq!(p.steals, 0);
        assert_eq!(p.makespan_secs, before);
    }

    #[test]
    fn stealing_is_suspended_during_failure_recovery() {
        // Mid-wave death: no backups (Hadoop suspends speculation while
        // re-execution is in progress).
        let tasks = simple_tasks(&[100.0, 100.0]);
        let mut faults = no_faults(4);
        faults.node_death = Some((1, 40.0));
        let p = backed_up(&tasks, &[1.0; 2], 1, &faults);
        assert_eq!(p.steals, 0);
        // Timeouts in the plan: same suspension.
        let tasks = simple_tasks(&[10.0, 10.0]);
        let mut faults = no_faults(4);
        faults.timeout_secs = Some(50.0);
        let speeds = [1.0, 0.1];
        let p = backed_up(&tasks, &speeds, 1, &faults);
        assert!(p
            .attempts
            .iter()
            .flatten()
            .any(|a| matches!(a.outcome, AttemptOutcome::TimedOut { .. })));
        assert_eq!(p.steals, 0);
    }

    // ---- zero-task / zero-node edge cases (regression pins) -------------

    #[test]
    fn empty_wave_with_faults_does_not_panic() {
        // Empty task list + mid-wave death + lose_completed_outputs used
        // to be an untested path through the OutputLost conversion loop.
        let mut faults = no_faults(4);
        faults.node_death = Some((0, 0.0));
        faults.lose_completed_outputs = true;
        let p = backed_up(&[], &[1.0; 2], 1, &faults);
        assert_eq!(p.makespan_secs, 0.0);
        assert!(p.attempts.is_empty());
        assert!(p.failed_tasks.is_empty());
    }

    #[test]
    fn zero_node_steal_clamps_like_plan_wave() {
        let tasks = simple_tasks(&[2.0]);
        let p = backed_up(&tasks, &[], 0, &no_faults(4));
        assert!((p.makespan_secs - 2.0).abs() < 1e-12);
        assert_eq!(p.steals, 0);
    }

    #[test]
    fn stealing_keeps_utilization_physical() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![3.0], vec![0.5, 2.0, 1.0]),
            (vec![4.0; 8], vec![1.0, 1.0, 1.0, 0.25]),
            (vec![2.0, 5.0, 1.0, 7.0, 3.0], vec![0.25, 1.0, 4.0]),
        ];
        for (secs, speeds) in cases {
            let tasks = simple_tasks(&secs);
            let p = backed_up(&tasks, &speeds, 1, &no_faults(4));
            assert!(
                utilization(&p) <= 1.0 + 1e-12,
                "utilization {} > 1 for {secs:?} on {speeds:?}",
                utilization(&p)
            );
        }
    }
}
