//! Pricing the baseline's tallies into simulated time.
//!
//! Uses the same [`CostModel`] as the MapReduce system: the busiest
//! process's counted flops at the worker flop rate times
//! [`BLAS_ADVANTAGE`]. MPI differences honored here: no per-job launch overhead, intermediates stay in memory
//! (the matrix is read once and the result written once — the paper's
//! Table 1/2 "Read n², Write n²" rows), and every transferred byte crosses
//! the network at the cluster's aggregate bandwidth.

use mrinv_mapreduce::simtime::BLAS_ADVANTAGE;
use mrinv_mapreduce::CostModel;

use crate::grid::{ProcessGrid, WorkTally};

/// Time and movement accounting for one baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalapackReport {
    /// Matrix order.
    pub n: usize,
    /// Process count.
    pub m0: usize,
    /// Simulated seconds for the whole inversion.
    pub sim_secs: f64,
    /// Simulated hours (paper-style reporting).
    pub hours: f64,
    /// Elements transferred per the paper's Table 1/2 model (used by the
    /// Figure 8 reproduction).
    pub transfer_elements_paper_model: u64,
    /// Elements transferred per a realistic grid-broadcast model.
    pub transfer_elements_grid: u64,
    /// Total flops across processes.
    pub total_flops: f64,
    /// Load balance (avg/max per-process flops; 1.0 = perfect).
    pub balance: f64,
}

/// Converts the LU + inversion tallies into a simulated running time.
pub fn price(
    n: usize,
    grid: &ProcessGrid,
    lu: &WorkTally,
    inv: &WorkTally,
    cost: &CostModel,
) -> ScalapackReport {
    let m0 = grid.size();
    let total = lu.merge(inv);

    // The busiest process's counted flops, at the worker rate sped up by
    // tuned BLAS.
    let total_flops = total.total_flops();
    let compute_secs = total.max_proc_flops()
        / (cost.flops_per_sec * BLAS_ADVANTAGE)
        / f64::from(cost.cores_per_node);

    // Disk: read the input once, write the result once, spread across m0.
    let n2_bytes = (n * n * 8) as f64;
    let disk_secs =
        n2_bytes / (cost.disk_read_bw * m0 as f64) + n2_bytes / (cost.disk_write_bw * m0 as f64);

    // Network: the paper-model volume at *single-link* bandwidth. The
    // right-looking factorization's panel broadcasts sit on the critical
    // path and (in the paper-era ScaLAPACK) do not overlap compute, so the
    // Table 1/2 volume drains serially — this is the term that makes the
    // network "a bottleneck at high scale" (Section 7.5) and produces the
    // Figure 8 crossover.
    let net_secs = total.transfer_paper * 8.0 / cost.net_bw;

    let sim_secs = compute_secs + disk_secs + net_secs;
    ScalapackReport {
        n,
        m0,
        sim_secs,
        hours: sim_secs / 3600.0,
        transfer_elements_paper_model: total.transfer_paper as u64,
        transfer_elements_grid: total.transfer_grid as u64,
        total_flops,
        balance: total.balance(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(m0: usize, flops: f64, paper: f64) -> WorkTally {
        let mut t = WorkTally::new(m0);
        let all: Vec<usize> = (0..m0).collect();
        t.charge_even(&all, flops);
        t.transfer_paper = paper;
        t
    }

    #[test]
    fn pricing_adds_components() {
        let grid = ProcessGrid::new(4, 8);
        let cost = CostModel {
            flops_per_sec: 400.0,
            ..CostModel::unit_for_tests()
        };
        let lu = tally(4, 400.0, 100.0);
        let inv = tally(4, 0.0, 0.0);
        let r = price(10, &grid, &lu, &inv, &cost);
        // compute: max_proc = 100 flops / (400 per sec * 1.5 BLAS) = 1/6 s
        // disk: 800 bytes read + 800 write over 4 nodes at 1 B/s = 400 s
        // net: 100 elements * 8 bytes at single-link 1 B/s = 800 s
        let expect = 100.0 / (400.0 * BLAS_ADVANTAGE) + 400.0 + 800.0;
        assert_eq!(r.sim_secs, expect);
        assert_eq!(r.transfer_elements_paper_model, 100);
        assert!((r.balance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_nodes_reduce_time_until_network_dominates() {
        let cost = CostModel::ec2_medium();
        let n = 10_000;
        let flops = (n as f64).powi(3);
        let secs = |m0: usize| {
            let grid = ProcessGrid::new(m0, 128);
            // Paper model transfer grows linearly with m0.
            let lu = tally(m0, flops, 2.0 / 3.0 * m0 as f64 * (n * n) as f64);
            let inv = tally(m0, 0.0, 0.0);
            price(n, &grid, &lu, &inv, &cost).sim_secs
        };
        // Compute shrinks with m0 but the critical-path network volume
        // *grows* with m0, so scaling first helps and eventually hurts —
        // the paper's scalability ceiling for ScaLAPACK (Section 7.5).
        let t4 = secs(4);
        let t64 = secs(64);
        assert!(t64 < t4, "early scaling helps: {t4} -> {t64}");
        let t4096 = secs(4096);
        assert!(
            t4096 > t64,
            "network eventually dominates: {t64} -> {t4096}"
        );
        let speedup = t4 / t64;
        assert!(
            speedup < 16.0,
            "16x nodes must yield sub-ideal {speedup:.1}x speedup"
        );
    }
}
