//! Observability glue: the cluster's labeled metric registry joined with
//! the kernel engine's process-wide perf counters into one exportable
//! snapshot.
//!
//! The registry ([`mrinv_mapreduce::obs::Registry`]) lives on the cluster
//! and the GEMM perf counters ([`mrinv_matrix::kernel::perf`]) are
//! process-wide statics — this module is the seam that presents both as a
//! single [`ObsSnapshot`] for Prometheus/JSON export (the `mrinv`
//! binary's `--metrics-prom`/`--metrics-json` flags).

pub(crate) use mrinv_mapreduce::obs::ObsSnapshot;

use mrinv_mapreduce::obs::Labels;
use mrinv_mapreduce::Cluster;

/// Appends the packed engine's series group once it has recorded a call:
/// cumulative calls/FLOPs counters plus wall-time, packing-time, and
/// effective-GFLOP/s gauges, all labeled `{backend="packed"}`.
fn kernel_perf_series(snap: &mut ObsSnapshot) {
    if let Some(p) = mrinv_matrix::kernel::perf::snapshot() {
        let labels = Labels::new().backend("packed");
        snap.push_counter("mrinv_kernel_calls_total", labels.clone(), p.calls);
        snap.push_counter("mrinv_kernel_flops_total", labels.clone(), p.flops);
        snap.push_gauge("mrinv_kernel_seconds", labels.clone(), p.secs);
        snap.push_gauge("mrinv_kernel_pack_seconds", labels.clone(), p.pack_secs);
        snap.push_gauge("mrinv_kernel_gflops", labels.clone(), p.gflops());
        snap.push_counter(
            "mrinv_kernel_parallel_calls_total",
            labels.clone(),
            p.par_calls,
        );
        snap.push_counter(
            "mrinv_kernel_serial_fallback_calls_total",
            labels,
            p.fallback_calls,
        );
    }
}

/// The full observability snapshot of a cluster: every registry series,
/// the DFS byte/replica-hit bridge ([`Cluster::obs_snapshot`]), and the
/// kernel perf counters.
pub fn full_snapshot(cluster: &Cluster) -> ObsSnapshot {
    let mut snap = cluster.obs_snapshot();
    kernel_perf_series(&mut snap);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::kernel::{self, notrans};
    use mrinv_matrix::Matrix;

    #[test]
    fn kernel_series_appear_when_perf_is_enabled() {
        kernel::perf::reset();
        kernel::perf::set_enabled(true);
        let a = Matrix::zeros(8, 8);
        let b = Matrix::zeros(8, 8);
        let mut c = Matrix::zeros(8, 8);
        kernel::gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut c).unwrap();
        kernel::perf::set_enabled(false);

        let mut snap = ObsSnapshot::default();
        kernel_perf_series(&mut snap);
        assert!(snap
            .counters
            .iter()
            .any(|s| s.name == "mrinv_kernel_calls_total" && s.value >= 1));
        assert!(snap
            .gauges
            .iter()
            .any(|s| s.name == "mrinv_kernel_gflops" && s.labels.backend.is_some()));
        let text = snap.prometheus_text();
        mrinv_mapreduce::obs::validate_prometheus_text(&text).unwrap();
        kernel::perf::reset();
    }
}
