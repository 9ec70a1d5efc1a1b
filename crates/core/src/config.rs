//! Inversion configuration: the bound value `nb` and the Section 6
//! optimization toggles.

use mrinv_mapreduce::simtime::STRIDED_SLOWDOWN;
use serde::{Deserialize, Serialize};

/// The three implementation optimizations of Section 6, individually
/// toggleable so the Figure 7 ablations can disable each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Optimizations {
    /// Section 6.1: keep intermediate `L`/`U` results in separate files.
    /// When disabled, the master node serially combines each level's
    /// factors into single files — the serial combine step Figure 7 shows
    /// costing up to ~30%.
    pub separate_intermediate_files: bool,
    /// Section 6.2: block-wrap matrix multiplication. When disabled,
    /// reducers compute row stripes of products and every reducer reads the
    /// entire right-hand operand (`(1 + 1/m0)n²` per node instead of
    /// `(1/f1 + 1/f2)n²`).
    pub block_wrap: bool,
    /// Section 6.3: store upper-triangular matrices transposed so multiply
    /// and solve kernels walk both operands row-major. `U` is always
    /// stored transposed; disabling this only prices the four Equation 6/7
    /// sites as the paper's strided loops (`simtime::STRIDED_SLOWDOWN`
    /// times their dense flops). The files, the kernels and the inverse's
    /// bits are the same either way.
    pub transpose_u: bool,
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations {
            separate_intermediate_files: true,
            block_wrap: true,
            transpose_u: true,
        }
    }
}

impl Optimizations {
    /// All optimizations enabled (the paper's tuned configuration).
    pub fn all() -> Self {
        Optimizations::default()
    }

    /// All optimizations disabled (the unoptimized baseline).
    pub fn none() -> Self {
        Optimizations {
            separate_intermediate_files: false,
            block_wrap: false,
            transpose_u: false,
        }
    }

    /// What an Equation 6/7 site charges: its `ordered` flops with the
    /// Section 6.3 layout on, else `STRIDED_SLOWDOWN` times the `dense`
    /// flops of the paper's loops striding through a row-major `U`.
    pub(crate) fn eq7_flops(&self, ordered: u64, dense: u64) -> u64 {
        if self.transpose_u {
            ordered
        } else {
            STRIDED_SLOWDOWN * dense
        }
    }
}

/// Configuration for one distributed inversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InversionConfig {
    /// The bound value `nb`: the largest matrix order LU-decomposed
    /// directly on the master node (Section 5 tunes this so a master-side
    /// LU costs about one MapReduce job launch; the paper uses 3200 at full
    /// scale, 200 at this repository's default 1/16 scale).
    pub nb: usize,
    /// Optimization toggles.
    pub opts: Optimizations,
}

impl Default for InversionConfig {
    fn default() -> Self {
        InversionConfig {
            nb: 200,
            opts: Optimizations::default(),
        }
    }
}

impl InversionConfig {
    /// Configuration with the given bound value and all optimizations on.
    pub fn with_nb(nb: usize) -> Self {
        assert!(nb >= 1, "bound value nb must be at least 1");
        InversionConfig {
            nb,
            opts: Optimizations::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let c = InversionConfig::default();
        assert_eq!(c.nb, 200);
        assert!(c.opts.separate_intermediate_files);
        assert!(c.opts.block_wrap);
        assert!(c.opts.transpose_u);
        assert_eq!(Optimizations::all(), Optimizations::default());
    }

    #[test]
    fn none_disables_everything() {
        let o = Optimizations::none();
        assert!(!o.separate_intermediate_files);
        assert!(!o.block_wrap);
        assert!(!o.transpose_u);
    }

    #[test]
    #[should_panic(expected = "bound value")]
    fn zero_nb_rejected() {
        let _ = InversionConfig::with_nb(0);
    }
}
