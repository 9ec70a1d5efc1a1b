//! Closed-form cost model of Tables 1 and 2.
//!
//! The paper summarizes the algorithm's I/O, data transfer, and arithmetic
//! in two tables (for an `n × n` matrix on `m0 = f1 × f2` nodes):
//!
//! | Phase | Write | Read | Transfer | Mults | Adds |
//! |---|---|---|---|---|---|
//! | Our LU (Table 1) | 3/2·n² | (l+3)·n² | (l+3)·n² | n³/3 | n³/3 |
//! | ScaLAPACK LU | n² | n² | 2/3·m0·n² | n³/3 | n³/3 |
//! | Our inversion (Table 2) | 2·n² | l'·n² | (l'+2)·n² | 2/3·n³ | 2/3·n³ |
//! | ScaLAPACK inversion | n² | m0·n² | m0·n² | 2/3·n³ | 2/3·n³ |
//!
//! with `l = (m0 + 2·f1 + 2·f2)/4` in Table 1 and `l' = (m0 + f1 + f2)/2`
//! in Table 2. All I/O quantities are in *elements* (multiply by 8 for
//! bytes); the benchmark harness compares the measured DFS counters
//! against these forms.

use mrinv_mapreduce::cluster::factor_pair;

/// One row of Table 1 or Table 2, in elements and flops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRow {
    /// Elements written to the DFS (or local disk for ScaLAPACK).
    pub writes: f64,
    /// Elements read.
    pub reads: f64,
    /// Elements transferred over the network.
    pub transfer: f64,
    /// Multiplications.
    pub mults: f64,
    /// Additions.
    pub adds: f64,
}

impl CostRow {
    /// Writes in bytes (8 bytes per element).
    pub fn write_bytes(&self) -> f64 {
        self.writes * 8.0
    }

    /// Reads in bytes.
    pub fn read_bytes(&self) -> f64 {
        self.reads * 8.0
    }

    /// Transfer in bytes.
    pub fn transfer_bytes(&self) -> f64 {
        self.transfer * 8.0
    }
}

/// Table 1's `l = (m0 + 2·f1 + 2·f2) / 4`.
fn table1_l(m0: usize) -> f64 {
    let (f1, f2) = factor_pair(m0);
    (m0 as f64 + 2.0 * f1 as f64 + 2.0 * f2 as f64) / 4.0
}

/// Table 2's `l = (m0 + f1 + f2) / 2`.
fn table2_l(m0: usize) -> f64 {
    let (f1, f2) = factor_pair(m0);
    (m0 as f64 + f1 as f64 + f2 as f64) / 2.0
}

/// Table 1, row "Our Algorithm": the MapReduce LU decomposition.
pub fn table1_ours(n: usize, m0: usize) -> CostRow {
    let n2 = (n as f64) * (n as f64);
    let n3 = n2 * n as f64;
    let l = table1_l(m0);
    CostRow {
        writes: 1.5 * n2,
        reads: (l + 3.0) * n2,
        transfer: (l + 3.0) * n2,
        mults: n3 / 3.0,
        adds: n3 / 3.0,
    }
}

/// Table 1, row "ScaLAPACK": MPI LU decomposition.
pub fn table1_scalapack(n: usize, m0: usize) -> CostRow {
    let n2 = (n as f64) * (n as f64);
    let n3 = n2 * n as f64;
    CostRow {
        writes: n2,
        reads: n2,
        transfer: 2.0 / 3.0 * m0 as f64 * n2,
        mults: n3 / 3.0,
        adds: n3 / 3.0,
    }
}

/// Table 2, row "Our Algorithm": triangular inversion plus the final
/// product.
pub fn table2_ours(n: usize, m0: usize) -> CostRow {
    let n2 = (n as f64) * (n as f64);
    let n3 = n2 * n as f64;
    let l = table2_l(m0);
    CostRow {
        writes: 2.0 * n2,
        reads: l * n2,
        transfer: (l + 2.0) * n2,
        mults: 2.0 / 3.0 * n3,
        adds: 2.0 / 3.0 * n3,
    }
}

/// Table 2, row "ScaLAPACK": MPI triangular inversion and product.
pub fn table2_scalapack(n: usize, m0: usize) -> CostRow {
    let n2 = (n as f64) * (n as f64);
    let n3 = n2 * n as f64;
    CostRow {
        writes: n2,
        reads: m0 as f64 * n2,
        transfer: m0 as f64 * n2,
        mults: 2.0 / 3.0 * n3,
        adds: 2.0 / 3.0 * n3,
    }
}

/// The node count above which the paper's model predicts our algorithm
/// transfers *less* than ScaLAPACK for LU: `(l+3) < (2/3)·m0`.
///
/// This is the analytic heart of the Figure 8 crossover: ScaLAPACK's
/// transfer grows linearly in `m0` with a 2/3 slope while ours grows with a
/// ~1/4 slope.
pub fn lu_transfer_crossover_m0() -> usize {
    (4..=4096)
        .find(|&m0| {
            let ours = table1_l(m0) + 3.0;
            let theirs = 2.0 / 3.0 * m0 as f64;
            ours < theirs
        })
        .unwrap_or(4096)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_values_for_square_grids() {
        // m0 = 64 → f1 = f2 = 8: l1 = (64+32)/4 = 24, l2 = (64+16)/2 = 40.
        assert_eq!(table1_l(64), 24.0);
        assert_eq!(table2_l(64), 40.0);
        // m0 = 4 → f1 = f2 = 2.
        assert_eq!(table1_l(4), 3.0);
        assert_eq!(table2_l(4), 4.0);
    }

    #[test]
    fn table1_rows() {
        let ours = table1_ours(100, 4);
        assert_eq!(ours.writes, 1.5 * 1e4);
        assert_eq!(ours.reads, 6.0 * 1e4);
        assert_eq!(ours.transfer, ours.reads, "all DFS reads cross the network");
        assert_eq!(ours.mults, 1e6 / 3.0);
        let scal = table1_scalapack(100, 4);
        assert_eq!(scal.writes, 1e4);
        assert!((scal.transfer - 2.0 / 3.0 * 4.0 * 1e4).abs() < 1e-9);
        assert_eq!(
            scal.mults, ours.mults,
            "same arithmetic, different movement"
        );
    }

    #[test]
    fn table2_rows() {
        let ours = table2_ours(10, 16);
        let l = table2_l(16); // (16+4+4)/2 = 12
        assert_eq!(l, 12.0);
        assert_eq!(ours.writes, 200.0);
        assert_eq!(ours.reads, 1200.0);
        assert_eq!(ours.transfer, 1400.0);
        let scal = table2_scalapack(10, 16);
        assert_eq!(scal.reads, 1600.0);
        assert!(scal.transfer > ours.transfer);
    }

    #[test]
    fn byte_conversions() {
        let r = table1_ours(10, 1);
        assert_eq!(r.write_bytes(), r.writes * 8.0);
        assert_eq!(r.read_bytes(), r.reads * 8.0);
        assert_eq!(r.transfer_bytes(), r.transfer * 8.0);
    }

    #[test]
    fn scalapack_transfer_overtakes_ours_at_scale() {
        // At small m0 ScaLAPACK moves less data; past the crossover it
        // moves more — the paper's Section 7.5 scalability argument.
        let cross = lu_transfer_crossover_m0();
        assert!(cross > 4, "ScaLAPACK should win at very small clusters");
        assert!(cross <= 64, "and lose within the paper's cluster sizes");
        let below = cross / 2;
        assert!(table1_ours(1000, below).transfer > table1_scalapack(1000, below).transfer);
        let above = cross * 2;
        assert!(table1_ours(1000, above).transfer < table1_scalapack(1000, above).transfer);
    }

    #[test]
    fn arithmetic_totals_are_n_cubed() {
        // LU + inversion together: n³/3 + 2n³/3 = n³ multiplications,
        // matching Section 2's operation count for a full inversion.
        let n = 50;
        let total = table1_ours(n, 8).mults + table2_ours(n, 8).mults;
        assert!((total - (n as f64).powi(3)).abs() < 1e-6);
    }
}
