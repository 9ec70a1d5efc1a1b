//! Remote-execution wiring: the task-family registry that lets worker
//! processes (the [`TcpWorkers`](mrinv_mapreduce::TcpWorkers) backend)
//! decode and run this crate's mappers and reducers.
//!
//! Every job family the inversion pipeline submits is registered here
//! under a stable name (the same name each `JobSpec` declares via
//! `.remote(..)`); the `mrinv-worker` binary calls [`exec_registry`] at
//! startup so driver and worker agree on the codec for each family.

use mrinv_mapreduce::TaskRegistry;

/// Builds the [`TaskRegistry`] covering every remote-capable job family
/// in this crate. Both the driver (to encode task descriptors) and the
/// `mrinv-worker` binary (to decode and run them) must use this exact
/// registry.
pub fn exec_registry() -> TaskRegistry {
    let mut r = TaskRegistry::new();
    crate::partition::register(&mut r);
    crate::lu_mr::register(&mut r);
    crate::tri_inv_mr::register(&mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_exactly_the_pipeline_families() {
        let registry = exec_registry();
        let families = registry.families();
        assert_eq!(families, ["final-inverse", "lu-level", "partition"]);
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
