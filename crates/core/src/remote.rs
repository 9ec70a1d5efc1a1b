//! Remote-execution wiring: the task-family registry that lets worker
//! processes (the [`TcpWorkers`](mrinv_mapreduce::TcpWorkers) backend)
//! decode and run this crate's mappers and reducers.
//!
//! Every job family the inversion pipeline submits is registered here
//! under a stable name (the same name each `JobSpec` declares via
//! `.remote(..)`); the `mrinv-worker` binary calls [`exec_registry`] at
//! startup so driver and worker agree on the codec for each family.

use mrinv_mapreduce::job::{MapContext, Mapper};
use mrinv_mapreduce::{MrError, TaskRegistry};
use serde::{Deserialize, Serialize};

/// Environment variable set by the `mrinv-worker` binary. The
/// [`DieOnceMapper`] probe only terminates the process when it is set,
/// so running the probe in-process (e.g. from a unit test) cannot kill
/// the test harness.
pub(crate) const WORKER_ENV: &str = "MRINV_WORKER";

/// Fault-injection probe used by the backend tests: the first time task
/// 0 runs it writes a marker file and kills its own process (simulating a
/// worker crash mid-wave); the retried attempt sees the marker and
/// succeeds. Only task 0 may die — two concurrent tasks could both miss
/// the marker before either wrote it. Outside a worker process it writes
/// the marker and returns normally.
#[derive(Serialize, Deserialize)]
pub struct DieOnceMapper {
    /// DFS path of the "already died once" marker file.
    pub marker: String,
}

impl Mapper for DieOnceMapper {
    type Input = ();
    type Key = usize;
    type Value = usize;

    fn map(
        &self,
        _input: &(),
        ctx: &mut MapContext<usize, usize>,
    ) -> std::result::Result<(), MrError> {
        if ctx.task_index() != 0 || ctx.exists(&self.marker) {
            return Ok(());
        }
        ctx.write(&self.marker, bytes::Bytes::from_static(b"died"));
        if std::env::var_os(WORKER_ENV).is_some() {
            // Flush happened through the live DFS connection above; now
            // die the way a crashed worker process does.
            std::process::exit(17);
        }
        Ok(())
    }
}

/// Builds the [`TaskRegistry`] covering every remote-capable job family
/// in this crate. Both the driver (to encode task descriptors) and the
/// `mrinv-worker` binary (to decode and run them) must use this exact
/// registry.
pub fn exec_registry() -> TaskRegistry {
    let mut r = TaskRegistry::new();
    crate::partition::register(&mut r);
    crate::lu_mr::register(&mut r);
    crate::tri_inv_mr::register(&mut r);
    r.register_map_only::<DieOnceMapper>("die-once");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_exactly_the_pipeline_families() {
        let registry = exec_registry();
        let families = registry.families();
        assert_eq!(
            families,
            ["die-once", "final-inverse", "lu-level", "partition"]
        );
        for spec in [
            crate::partition::job_spec("d"),
            crate::lu_mr::job_spec("d", 1),
            crate::tri_inv_mr::job_spec("d", 1),
        ] {
            let family = spec.remote_family().expect("pipeline jobs run remotely");
            assert!(families.contains(&family), "{family} is not registered");
        }
    }
}
