//! What one driver run produces, and the bookkeeping every driver
//! shares: failure accounting, output checks, process memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::span::Recorder;

/// Raw results of one driver run (one pass of a workload, or one
/// section of a traced run): samples, not summaries, so that `report`
/// can pool passes before taking quantiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PassData {
    /// Workload (or section) name.
    pub workload: String,
    /// Set-up time: inputs, reference answers, server start and priming,
    /// warm-up rounds.
    pub setup_s: f64,
    /// Wall time of the measured rounds, checks included.
    pub measure_s: f64,
    /// Rounds this run was asked for.
    pub rounds_planned: u64,
    /// Rounds it finished before the hard cap.
    pub rounds_completed: u64,
    /// Operations attempted (skipped rounds count as attempted).
    pub attempted: u64,
    /// Operations that errored, were refused, disagreed with the plan,
    /// or were skipped by the hard cap.
    pub failed: u64,
    /// Outputs that failed their check.
    pub incorrect: u64,
    /// Peak resident memory, MB.
    pub peak_rss_mb: f64,
    /// Hashes of the generated inputs, in generation order.
    pub input_hashes: Vec<u64>,
    /// Named sample vectors: `invert_ms`, `solve_ms`, `round_ms`, and
    /// the per-layer readings of a traced run.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// First few failure descriptions.
    pub notes: Vec<String>,
}

impl PassData {
    /// Appends one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// The samples recorded under `name` (empty if none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Counts an operation that failed.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.note(what);
    }

    /// Counts an output that failed its check.
    pub fn wrong(&mut self, what: impl Into<String>) {
        self.incorrect += 1;
        self.note(what);
    }

    /// Keeps the failures and wrong outputs of unmeasured work (priming,
    /// warm-up) and drops its samples.
    pub fn absorb_failures(&mut self, mut unmeasured: PassData) {
        self.failed += unmeasured.failed;
        self.incorrect += unmeasured.incorrect;
        self.notes.append(&mut unmeasured.notes);
    }

    fn note(&mut self, what: impl Into<String>) {
        if self.notes.len() < 16 {
            self.notes.push(what.into());
        }
    }
}

/// What a driver needs besides its workload.
pub struct RunCtx<'a> {
    /// The run's `--seed`.
    pub seed: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Unmeasured rounds at the end of set-up.
    pub warmup: usize,
    /// Stop the measured phase after this long.
    pub cap: Duration,
    /// Span recorder; enabled means the whole run is traced.
    pub rec: &'a mut Recorder,
    /// Scratch directory inside `e2e/out/`.
    pub scratch: &'a std::path::Path,
}

/// One round of a driver: its number, the run's context, where its
/// samples go.
pub type Round<'r> = &'r mut dyn FnMut(u64, &mut RunCtx<'_>, &mut PassData);

/// The `ctx.warmup` unmeasured rounds that end set-up: their failures
/// count, their samples do not.
pub fn warm_up(ctx: &mut RunCtx<'_>, data: &mut PassData, round: Round<'_>) {
    for w in 0..ctx.warmup as u64 {
        ctx.rec.set_request(w);
        let mut unmeasured = PassData::default();
        round(w, ctx, &mut unmeasured);
        data.absorb_failures(unmeasured);
    }
}

/// The measured phase: `ctx.rounds` rounds, stopped once `ctx.cap` has
/// passed. The operations of rounds a capped run skipped count as
/// attempted and failed.
pub fn measure(ctx: &mut RunCtx<'_>, data: &mut PassData, ops_per_round: usize, round: Round<'_>) {
    let start = Instant::now();
    for r in 0..ctx.rounds {
        if start.elapsed() > ctx.cap {
            break;
        }
        let id = (ctx.warmup + r) as u64;
        ctx.rec.set_request(id);
        round(id, ctx, data);
        data.rounds_completed += 1;
    }
    data.measure_s = start.elapsed().as_secs_f64();
    let skipped = data.rounds_planned - data.rounds_completed;
    if skipped > 0 {
        let ops = skipped * ops_per_round as u64;
        data.attempted += ops;
        data.failed += ops;
        data.notes.push(format!(
            "hard cap: {skipped} of {} rounds skipped",
            data.rounds_planned
        ));
    }
}

/// Output identity across rounds: the first output under a key passes a
/// real check (a residual), every later one must hash identical to it.
#[derive(Debug, Default)]
pub struct Checker {
    first: BTreeMap<String, u64>,
}

impl Checker {
    /// Checks one output. `first_check` runs only for the first output
    /// seen under `key`.
    pub fn output(
        &mut self,
        key: &str,
        hash: u64,
        first_check: impl FnOnce() -> Result<(), String>,
    ) -> Result<(), String> {
        match self.first.get(key) {
            Some(&want) if want == hash => Ok(()),
            Some(&want) => Err(format!(
                "{key}: output hash {hash:016x} differs from the first output {want:016x}"
            )),
            None => {
                first_check().map_err(|e| format!("{key}: {e}"))?;
                self.first.insert(key.to_string(), hash);
                Ok(())
            }
        }
    }

    /// Hash recorded for `key`, if its first output passed.
    pub fn hash_of(&self, key: &str) -> Option<u64> {
        self.first.get(key).copied()
    }
}

/// `max |A·x − b|` — the solve check.
pub fn solve_residual(a: &mrinv_matrix::Matrix, x: &[f64], b: &[f64]) -> Result<f64, String> {
    let ax = a.mul_vec(x).map_err(|e| e.to_string())?;
    Ok(ax
        .iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max))
}

/// Passes when `residual` is below the paper's accuracy threshold.
pub fn within_accuracy(residual: f64) -> Result<(), String> {
    if residual < mrinv_matrix::PAPER_ACCURACY {
        Ok(())
    } else {
        Err(format!(
            "residual {residual:e} is not below {:e}",
            mrinv_matrix::PAPER_ACCURACY
        ))
    }
}

/// A field of `/proc/self/status` in MB (`VmHWM`, `VmRSS`); 0 where the
/// file is missing.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
