//! The `env` block stamped on every output: what the numbers were
//! measured on and under which of the measurement rules.

use serde::{Deserialize, Serialize};

/// Where and how a run was measured. `run.sh` exports what the harness
/// cannot see from inside (`E2E_PINNED_CPU`, `E2E_GIT_COMMIT`,
/// `E2E_RUSTC`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Env {
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--seconds`.
    pub seconds: u64,
    /// `--quick`: a tenth of the rounds, one pass.
    pub quick: bool,
    /// vCPUs the machine offers.
    pub nproc: u64,
    /// Whether `taskset` pinned harness and children to one vCPU.
    pub pinned: bool,
    /// The vCPU, when pinned.
    pub pinned_cpu: Option<u64>,
    /// Effective rayon pool width (the rules ask for 1).
    pub pool_width: u64,
    /// Commit the checkout was at, or `unknown` outside a git repository.
    pub git_commit: String,
    /// `rustc --version`.
    pub rustc: String,
}

impl Env {
    /// Reads the environment of this process.
    pub fn capture(seed: u64, seconds: u64, quick: bool) -> Env {
        let var = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
        let pinned_cpu = var("E2E_PINNED_CPU").and_then(|v| v.parse().ok());
        Env {
            seed,
            seconds,
            quick,
            nproc: nproc() as u64,
            pinned: pinned_cpu.is_some(),
            pinned_cpu,
            pool_width: rayon::current_num_threads() as u64,
            git_commit: var("E2E_GIT_COMMIT").unwrap_or_else(|| "unknown".to_string()),
            rustc: var("E2E_RUSTC").unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// vCPUs of the machine: `E2E_NPROC` as `run.sh` counted them before it
/// pinned the harness (a pinned process sees only its own vCPU).
pub fn nproc() -> usize {
    std::env::var("E2E_NPROC")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
