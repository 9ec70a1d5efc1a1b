//! The paper's evaluation matrix suite (Table 3), scalable.
//!
//! The paper's matrices M1–M5 have orders 20480, 32768, 40960, 102400,
//! and 16384 with bound value `nb = 3200`. Dividing every order and `nb`
//! by a power-of-two scale preserves all `n/nb` ratios, so the recursion
//! depth, pipeline length, and Table 3 job counts (9/17/17/33/9) are
//! *identical* at any scale; only the absolute arithmetic shrinks.

use mrinv_matrix::random::random_well_conditioned;
use mrinv_matrix::Matrix;

/// The paper's bound value at full scale.
pub(crate) const PAPER_NB: usize = 3200;

/// One evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteMatrix {
    /// Paper name (M1–M5).
    pub(crate) name: &'static str,
    /// Order at the paper's scale.
    pub(crate) full_order: usize,
    /// RNG seed for reproducibility.
    pub(crate) seed: u64,
}

/// Table 3's five matrices.
pub(crate) const SUITE: [SuiteMatrix; 5] = [
    SuiteMatrix {
        name: "M1",
        full_order: 20480,
        seed: 101,
    },
    SuiteMatrix {
        name: "M2",
        full_order: 32768,
        seed: 102,
    },
    SuiteMatrix {
        name: "M3",
        full_order: 40960,
        seed: 103,
    },
    SuiteMatrix {
        name: "M4",
        full_order: 102_400,
        seed: 104,
    },
    SuiteMatrix {
        name: "M5",
        full_order: 16384,
        seed: 105,
    },
];

/// Every scale divisor that divides each suite order and the paper's `nb`,
/// ascending: the scales `repro --scale` accepts.
pub fn valid_scales() -> Vec<usize> {
    (1..=PAPER_NB)
        .filter(|&s| PAPER_NB.is_multiple_of(s) && SUITE.iter().all(|m| m.full_order % s == 0))
        .collect()
}

impl SuiteMatrix {
    /// Looks a suite matrix up by name.
    pub fn by_name(name: &str) -> Option<SuiteMatrix> {
        SUITE
            .iter()
            .copied()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Order at the given scale divisor.
    pub fn order(&self, scale: usize) -> usize {
        assert!(
            scale >= 1 && self.full_order.is_multiple_of(scale),
            "scale must divide the order"
        );
        self.full_order / scale
    }

    /// Bound value at the given scale divisor.
    pub(crate) fn nb(&self, scale: usize) -> usize {
        assert!(
            PAPER_NB.is_multiple_of(scale),
            "scale must divide nb = {PAPER_NB}"
        );
        PAPER_NB / scale
    }

    /// Generates the matrix at the given scale (diagonally dominant, hence
    /// invertible; the paper notes performance depends only on the order).
    pub(crate) fn generate(&self, scale: usize) -> Matrix {
        random_well_conditioned(self.order(scale), self.seed)
    }

    /// Element count at the paper's scale, in billions (Table 3 column).
    pub(crate) fn full_elements_billion(&self) -> f64 {
        (self.full_order as f64).powi(2) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv::schedule::total_jobs;

    #[test]
    fn suite_matches_table3_job_counts_at_any_scale() {
        let expected = [9u64, 17, 17, 33, 9];
        for scale in [1usize, 16, 32] {
            for (m, &jobs) in SUITE.iter().zip(&expected) {
                assert_eq!(
                    total_jobs(m.order(scale), m.nb(scale)),
                    jobs,
                    "{} at scale {scale}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn element_counts_match_table3() {
        // Table 3: 0.42 / 1.07 / 1.68 / 10.49 / 0.26 billion elements.
        let expected = [0.42, 1.07, 1.68, 10.49, 0.26];
        for (m, &e) in SUITE.iter().zip(&expected) {
            assert!((m.full_elements_billion() - e).abs() < 0.01, "{}", m.name);
        }
    }

    #[test]
    fn lookup_and_generation() {
        let m5 = SuiteMatrix::by_name("m5").unwrap();
        assert_eq!(m5.order(32), 512);
        assert_eq!(m5.nb(32), 100);
        let a = m5.generate(64);
        assert_eq!(a.shape(), (256, 256));
        assert!(SuiteMatrix::by_name("M9").is_none());
    }

    #[test]
    #[should_panic(expected = "scale must divide")]
    fn bad_scale_panics() {
        let _ = SUITE[0].order(3);
    }
}
