//! The `f1 × f2` process grid with block-cyclic data distribution.
//!
//! Section 7.5 of the paper configures ScaLAPACK with the process grid
//! `f1 × f2` where `m0 = f1 × f2` and the factors are as close as
//! possible, and distributes the matrix in 128 × 128 blocks assigned
//! cyclically — block `(m1·f1 + i, m2·f2 + j)` to process `f2·j + i` in
//! the paper's indexing. This module provides the processes of each
//! block row and column, and a per-process work tally.

use mrinv_mapreduce::cluster::factor_pair;

/// A block-cyclic process grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessGrid {
    /// Grid rows.
    pub f1: usize,
    /// Grid columns.
    pub f2: usize,
    /// Square block size of the cyclic distribution.
    pub block: usize,
}

impl ProcessGrid {
    /// Builds the most-square grid for `m0` processes (the paper's choice:
    /// no other factor of `m0` between `f1` and `f2`).
    pub fn new(m0: usize, block: usize) -> Self {
        assert!(block >= 1, "block size must be positive");
        let (f1, f2) = factor_pair(m0);
        ProcessGrid { f1, f2, block }
    }

    /// Number of processes.
    pub(crate) fn size(&self) -> usize {
        self.f1 * self.f2
    }

    /// Block row/column index of a matrix index.
    pub(crate) fn block_of(&self, i: usize) -> usize {
        i / self.block
    }

    /// The processes of the grid column owning block-column `bj`.
    pub(crate) fn column_procs(&self, bj: usize) -> Vec<usize> {
        let j = bj % self.f2;
        (0..self.f1).map(|i| self.f2 * i + j).collect()
    }

    /// The processes of the grid row owning block-row `bi`.
    pub(crate) fn row_procs(&self, bi: usize) -> Vec<usize> {
        let i = bi % self.f1;
        (0..self.f2).map(|j| self.f2 * i + j).collect()
    }
}

/// Per-process flop counters plus communication volumes, filled by the
/// baseline routines.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkTally {
    /// Floating-point operations charged to each process.
    pub proc_flops: Vec<f64>,
    /// Elements transferred per the *paper's* Table 1/2 model.
    pub transfer_paper: f64,
    /// Elements transferred per a realistic grid-broadcast model.
    pub transfer_grid: f64,
}

impl WorkTally {
    /// A zero tally for `m0` processes.
    pub(crate) fn new(m0: usize) -> Self {
        WorkTally {
            proc_flops: vec![0.0; m0.max(1)],
            transfer_paper: 0.0,
            transfer_grid: 0.0,
        }
    }

    /// Charges `flops` evenly across the given processes.
    pub(crate) fn charge_even(&mut self, procs: &[usize], flops: f64) {
        if procs.is_empty() {
            return;
        }
        let share = flops / procs.len() as f64;
        for &p in procs {
            self.proc_flops[p] += share;
        }
    }

    /// Charges `flops` to one process.
    pub(crate) fn charge(&mut self, proc: usize, flops: f64) {
        self.proc_flops[proc] += flops;
    }

    /// The busiest process's flops — the quantity that bounds the
    /// parallel compute time.
    pub(crate) fn max_proc_flops(&self) -> f64 {
        self.proc_flops.iter().fold(0.0, |m, &v| m.max(v))
    }

    /// Total flops across processes.
    pub(crate) fn total_flops(&self) -> f64 {
        self.proc_flops.iter().sum()
    }

    /// Load balance: average/maximum per-process flops (1.0 = perfect).
    pub(crate) fn balance(&self) -> f64 {
        let max = self.max_proc_flops();
        if max == 0.0 {
            return 1.0;
        }
        self.total_flops() / (max * self.proc_flops.len() as f64)
    }

    /// Component-wise sum with another tally.
    pub(crate) fn merge(&self, other: &WorkTally) -> WorkTally {
        WorkTally {
            proc_flops: self
                .proc_flops
                .iter()
                .zip(&other.proc_flops)
                .map(|(a, b)| a + b)
                .collect(),
            transfer_paper: self.transfer_paper + other.transfer_paper,
            transfer_grid: self.transfer_grid + other.transfer_grid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owning process of block `(bi, bj)`: the one process both block-row
    /// `bi`'s grid row and block-column `bj`'s grid column hold.
    fn owner(g: &ProcessGrid, bi: usize, bj: usize) -> usize {
        let column = g.column_procs(bj);
        let mut shared = g.row_procs(bi).into_iter().filter(|p| column.contains(p));
        let o = shared.next().expect("a grid row and column meet");
        assert_eq!(shared.next(), None, "in one process");
        o
    }

    #[test]
    fn grid_factors_are_most_square() {
        let g = ProcessGrid::new(64, 128);
        assert_eq!((g.f1, g.f2), (8, 8));
        assert_eq!(g.size(), 64);
        let g = ProcessGrid::new(32, 16);
        assert_eq!((g.f1, g.f2), (8, 4));
    }

    #[test]
    fn ownership_is_cyclic_and_in_range() {
        let g = ProcessGrid::new(6, 4); // 3 x 2
        for bi in 0..10 {
            for bj in 0..10 {
                let o = owner(&g, bi, bj);
                assert!(o < 6);
                assert_eq!(o, owner(&g, bi + 3, bj)); // cycles in f1
                assert_eq!(o, owner(&g, bi, bj + 2)); // cycles in f2
            }
        }
        assert_eq!((g.block_of(3), g.block_of(4)), (0, 1));
    }

    #[test]
    fn blocks_spread_evenly() {
        // Over a full cycle every process owns the same number of blocks.
        let g = ProcessGrid::new(12, 8);
        let mut counts = [0; 12];
        for bi in 0..g.f1 * 4 {
            for bj in 0..g.f2 * 4 {
                counts[owner(&g, bi, bj)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == counts[0]));
    }

    #[test]
    fn row_and_column_procs() {
        let g = ProcessGrid::new(6, 4); // f1=3, f2=2
        assert_eq!(g.column_procs(0), vec![0, 2, 4]);
        assert_eq!(g.column_procs(1), vec![1, 3, 5]);
        assert_eq!(g.column_procs(2), g.column_procs(0));
        assert_eq!(g.row_procs(0), vec![0, 1]);
        assert_eq!(g.row_procs(1), vec![2, 3]);
    }

    #[test]
    fn tally_charges_and_balances() {
        let mut t = WorkTally::new(4);
        t.charge_even(&[0, 1], 10.0);
        t.charge(2, 5.0);
        assert_eq!(t.proc_flops, vec![5.0, 5.0, 5.0, 0.0]);
        assert_eq!(t.max_proc_flops(), 5.0);
        assert_eq!(t.total_flops(), 15.0);
        assert!((t.balance() - 0.75).abs() < 1e-12);
        let zero = WorkTally::new(4);
        assert_eq!(zero.balance(), 1.0);
        let m = t.merge(&t);
        assert_eq!(m.total_flops(), 30.0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_rejected() {
        let _ = ProcessGrid::new(4, 0);
    }
}
