//! The precomputed pipeline schedule.
//!
//! A defining property of the paper's method (Section 4.2) is that the
//! whole MapReduce pipeline is known *before* the computation starts: the
//! recursion depth follows from `n` and `nb`, and with it the number of
//! jobs, the data movement, and the intermediate file counts. This module
//! computes those closed forms; the driver in the private `lu_mr` module executes
//! exactly this schedule, and tests assert the two agree.

/// Recursion depth `d = ⌈log2(n / nb)⌉` (0 when the matrix already fits the
/// master node).
pub fn recursion_depth(n: usize, nb: usize) -> u32 {
    assert!(nb >= 1, "nb must be positive");
    if n <= nb {
        return 0;
    }
    // Halving n until it fits nb: the driver splits at floor(n/2) and the
    // deeper (ceil) side dominates, so count by repeated ceil-halving.
    let mut d = 0;
    let mut m = n;
    while m > nb {
        m = m.div_ceil(2);
        d += 1;
    }
    d
}

/// Number of MapReduce jobs in the LU-decomposition pipeline: one per
/// internal node of the recursion tree.
///
/// When `n` divides down evenly (every block order at most doubles `nb`
/// before reaching it, as in the paper's suite) this equals the closed form
/// `2^d − 1` with `d = ⌈log2(n/nb)⌉`; Section 5 counts `2^⌈log2(n/nb)⌉`
/// jobs including the final inversion job. For awkward odd orders the two
/// sides of a split can bottom out at different depths and the exact count
/// comes from the recursion itself ("modulo rounding", Section 4.2).
fn lu_pipeline_jobs(n: usize, nb: usize) -> u64 {
    assert!(nb >= 1, "nb must be positive");
    if n <= nb {
        return 0;
    }
    let half = n / 2;
    lu_pipeline_jobs(half, nb) + 1 + lu_pipeline_jobs(n - half, nb)
}

/// Total MapReduce jobs to invert an order-`n` matrix: the partitioning
/// job, the LU pipeline, and the final inversion job. Reproduces Table 3's
/// "Number of Jobs" column (9 / 17 / 17 / 33 / 9 for the paper's suite).
///
/// ```
/// // The paper's M4: a 102400-order matrix with nb = 3200 needs 33 jobs.
/// assert_eq!(mrinv::schedule::total_jobs(102_400, 3200), 33);
/// ```
pub fn total_jobs(n: usize, nb: usize) -> u64 {
    lu_pipeline_jobs(n, nb) + 2
}

/// Number of files storing the final `L` (or `U`) factor with the separate
/// intermediate files optimization on (Section 6.1):
/// `N(d) = 2^d + (m0/2)(2^d − 1)`: the tests' oracle for executed forests.
#[cfg(test)]
pub(crate) fn factor_file_count(d: u32, m0: usize) -> u64 {
    let two_d = 1u64 << d;
    two_d + (m0 as u64 / 2) * (two_d - 1)
}

/// One step of the pipeline plan, for display and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedJob {
    /// The map-only partitioning job (Section 5.2).
    Partition,
    /// One block-LU job at the given recursion depth, decomposing a block
    /// of the given order (Section 5.3).
    LuLevel {
        /// Depth in the recursion tree (0 = outermost).
        depth: u32,
        /// Order of the block this job's level operates on.
        order: usize,
    },
    /// The final triangular-inversion + product job (Section 5.4).
    FinalInverse,
}

/// Produces the full ordered job plan for inverting an order-`n` matrix.
///
/// The LU jobs appear in execution order: the recursion first descends the
/// `A1` side to the leaf, then interleaves sibling jobs bottom-up (a
/// post-order walk where each internal node contributes the job that
/// computes `L2'`, `U2`, and `B` for that node).
pub fn job_plan(n: usize, nb: usize) -> Vec<PlannedJob> {
    let mut plan = vec![PlannedJob::Partition];
    plan_lu(n, nb, 0, &mut plan);
    plan.push(PlannedJob::FinalInverse);
    plan
}

fn plan_lu(n: usize, nb: usize, depth: u32, plan: &mut Vec<PlannedJob>) {
    if n <= nb {
        return; // leaf: master-node LU, no MapReduce job
    }
    let half = n / 2;
    plan_lu(half, nb, depth + 1, plan); // decompose A1
    plan.push(PlannedJob::LuLevel { depth, order: n }); // L2', U2, B job
    plan_lu(n - half, nb, depth + 1, plan); // decompose B
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_matches_paper_examples() {
        // nb = 3200 (paper scale).
        assert_eq!(recursion_depth(20480, 3200), 3); // M1
        assert_eq!(recursion_depth(32768, 3200), 4); // M2
        assert_eq!(recursion_depth(40960, 3200), 4); // M3
        assert_eq!(recursion_depth(102_400, 3200), 5); // M4
        assert_eq!(recursion_depth(16384, 3200), 3); // M5
                                                     // Scale 1/16 (this repo's default) preserves every depth.
        assert_eq!(recursion_depth(1280, 200), 3);
        assert_eq!(recursion_depth(2048, 200), 4);
        assert_eq!(recursion_depth(2560, 200), 4);
        assert_eq!(recursion_depth(6400, 200), 5);
        assert_eq!(recursion_depth(1024, 200), 3);
    }

    #[test]
    fn job_counts_reproduce_table3() {
        // Table 3's "Number of Jobs" column.
        assert_eq!(total_jobs(20480, 3200), 9);
        assert_eq!(total_jobs(32768, 3200), 17);
        assert_eq!(total_jobs(40960, 3200), 17);
        assert_eq!(total_jobs(102_400, 3200), 33);
        assert_eq!(total_jobs(16384, 3200), 9);
    }

    #[test]
    fn small_matrix_needs_no_lu_jobs() {
        assert_eq!(recursion_depth(100, 200), 0);
        assert_eq!(recursion_depth(200, 200), 0);
        assert_eq!(lu_pipeline_jobs(200, 200), 0);
        assert_eq!(total_jobs(64, 200), 2);
    }

    #[test]
    fn paper_section42_example() {
        // Section 4.2: n = 1e5, nb = 3200 → "around n/nb iterations";
        // 2^⌈log2(n/nb)⌉ = 32 including the final job, i.e. 31 LU jobs.
        // 100000 halves to 3125 ≤ 3200 after 5 even splits.
        assert_eq!(lu_pipeline_jobs(100_000, 3200), 31);
        // Closed form agrees with the recursion on even suites.
        for &(n, nb) in &[
            (20480usize, 3200usize),
            (32768, 3200),
            (102_400, 3200),
            (1280, 200),
        ] {
            assert_eq!(
                lu_pipeline_jobs(n, nb),
                (1u64 << recursion_depth(n, nb)) - 1
            );
        }
    }

    #[test]
    fn file_count_formula_section61() {
        // Section 6.1's worked example: n = 2^15, nb = 2048, m0 = 64 →
        // d = 4, N(d) = 496.
        let d = recursion_depth(1 << 15, 2048);
        assert_eq!(d, 4);
        assert_eq!(factor_file_count(d, 64), 496);
        assert_eq!(factor_file_count(0, 64), 1);
        assert_eq!(factor_file_count(3, 4), 8 + 2 * 7);
    }

    #[test]
    fn plan_structure() {
        let plan = job_plan(800, 200);
        // d = 2: partition + 3 LU jobs + final = 5 entries.
        assert_eq!(plan.len(), 5);
        assert_eq!(plan[0], PlannedJob::Partition);
        assert_eq!(*plan.last().unwrap(), PlannedJob::FinalInverse);
        let lu: Vec<_> = plan
            .iter()
            .filter_map(|j| match j {
                PlannedJob::LuLevel { depth, order } => Some((*depth, *order)),
                _ => None,
            })
            .collect();
        // Post-order: A1's job (depth 1, order 400), root job (depth 0,
        // order 800), B's job (depth 1, order 400).
        assert_eq!(lu, vec![(1, 400), (0, 800), (1, 400)]);
    }

    #[test]
    fn plan_length_matches_total_jobs() {
        for &(n, nb) in &[
            (1280usize, 200usize),
            (2048, 200),
            (6400, 200),
            (100, 50),
            (64, 200),
        ] {
            assert_eq!(job_plan(n, nb).len() as u64, total_jobs(n, nb));
        }
    }

    #[test]
    fn odd_orders_schedule_consistently() {
        // Odd/non-power-of-two orders still produce a well-formed plan.
        for n in [3usize, 5, 7, 129, 333, 1001] {
            let plan = job_plan(n, 4);
            assert_eq!(plan.len() as u64, total_jobs(n, 4));
        }
    }

    #[test]
    #[should_panic(expected = "nb must be positive")]
    fn zero_nb_panics() {
        let _ = recursion_depth(10, 0);
    }
}
