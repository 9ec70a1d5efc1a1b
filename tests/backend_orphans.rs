//! Regression: a panicking job body must not leak `mrinv-worker`
//! processes. `TcpWorkers` used to reap only the *idle* pool on drop, so
//! any worker checked out while the driver unwound stayed alive as an
//! orphan; the backend now keeps a kill-on-drop registry of every child
//! it ever spawned and sweeps it in `Drop`.

use std::sync::Arc;

use mrinv_mapreduce::job::{JobSpec, MapContext, Mapper};
use mrinv_mapreduce::runner::run_map_only;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, TcpWorkers, TcpWorkersConfig};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_mrinv-worker");

/// Live processes whose cmdline names our worker binary. Zombies left
/// unreaped would show an empty cmdline and escape this count, so the
/// test also relies on `Drop` waiting on every child it kills.
fn worker_count() -> usize {
    let mut n = 0;
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .filter(|s| s.bytes().all(|b| b.is_ascii_digit()))
        else {
            continue;
        };
        if let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) {
            let cmdline = String::from_utf8_lossy(&cmdline);
            if cmdline.contains(WORKER_BIN) {
                n += 1;
            }
        }
    }
    n
}

/// A map body that panics in the driver process (the job names no remote
/// family, so even under the TCP backend the body runs inline) while the
/// backend's workers sit checked in.
struct PanickingMapper;

impl Mapper for PanickingMapper {
    type Input = ();
    type Key = usize;
    type Value = usize;

    fn map(&self, _input: &(), _ctx: &mut MapContext<usize, usize>) -> mrinv_mapreduce::Result<()> {
        panic!("injected job-body panic");
    }
}

#[test]
fn panicking_job_body_leaves_no_orphan_workers() {
    let before = worker_count();

    let result = std::panic::catch_unwind(|| {
        let mut cluster = Cluster::new({
            let mut cfg = ClusterConfig::medium(4);
            cfg.cost = CostModel::unit_for_tests();
            cfg
        });
        let backend =
            TcpWorkers::spawn(TcpWorkersConfig::new(2, WORKER_BIN)).expect("spawn workers");
        backend.attach_dfs(cluster.dfs.clone());
        cluster.set_backend(Arc::new(backend));
        assert_eq!(worker_count(), before + 2, "both workers are up");

        // Unwinds out of rayon, through run_map_only, and drops the
        // cluster (and its backend) on the way.
        let spec: JobSpec<usize> = JobSpec::new("panic-probe");
        let _ = run_map_only(&cluster, &spec, &PanickingMapper, &[(), (), ()]);
        unreachable!("the map body always panics");
    });
    assert!(result.is_err(), "the injected panic must propagate");

    // Drop ran during the unwind: the kill-on-drop sweep reaped every
    // spawned child, so the process table is back to where it started.
    assert_eq!(worker_count(), before, "no orphan mrinv-worker remains");
}
