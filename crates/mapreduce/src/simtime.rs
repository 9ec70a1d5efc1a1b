//! The cost model that converts counted task work into simulated cluster
//! time.
//!
//! The paper's experiments run on Amazon EC2 *medium* instances (1 virtual
//! core of 2007-era performance, Section 7.1) and, for the largest matrix,
//! *large* instances (2 such cores, Section 7.4). Neither the hardware nor
//! the cluster is available here, so tasks execute locally, *count* their
//! work — the flops of their arithmetic kernels and the DFS bytes they code
//! — and the model prices those counts at the rates of those machines:
//!
//! ```text
//! task_time  = (flops / flops_per_sec + (read + write) / codec_bytes_per_sec) / cores
//!            + read_bytes  / disk_read_bw
//!            + write_bytes · replication / disk_write_bw
//! wave_time  = makespan of list-scheduling task_times onto m0 nodes
//! job_time   = job_launch + map_wave + shuffle_bytes/(net_bw·m0) + reduce_wave
//! ```
//!
//! Nothing measured on the host enters the clock, so a run's simulated
//! time is a pure function of its inputs. The rates, and the speed ratios
//! below, are derived once in DESIGN.md §7.
//!
//! The `job_launch` constant is the overhead the paper's bound value `nb`
//! is tuned against (Section 5: `nb` is chosen so a master-node LU costs
//! about one job launch).

use crate::job::TaskStats;

/// How much faster the master node runs counted work than a worker: the
/// paper's master runs optimized native code and its workers naive Java,
/// and `nb` is tuned so a master-side LU costs about one job launch
/// (Section 5).
pub const MASTER_SPEEDUP: f64 = 64.0;

/// Compute advantage of the ScaLAPACK baseline's tuned BLAS over the
/// workers' naive loops (the paper's workers run Java; ScaLAPACK runs
/// tuned Fortran).
pub const BLAS_ADVANTAGE: f64 = 1.5;

/// How many times slower per flop Equation 7's column-striding loops run
/// than the row-major loops the workers run: the Section 6.3 transpose-off
/// ablation charges its flops this many times over.
pub const STRIDED_SLOWDOWN: u64 = 3;

/// Prices counted task work in simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Constant overhead to launch one MapReduce job, seconds.
    pub job_launch_secs: f64,
    /// Per-node disk read bandwidth, bytes/second.
    pub disk_read_bw: f64,
    /// Per-node disk write bandwidth, bytes/second.
    pub disk_write_bw: f64,
    /// Per-node network bandwidth, bytes/second (shuffle and replication
    /// traffic).
    pub net_bw: f64,
    /// One worker core's arithmetic rate, flops/second: the naive-loop
    /// kernels of the paper's Java workers on a 2007-era EC2 core.
    pub flops_per_sec: f64,
    /// One worker core's rate for everything else a task does per DFS byte
    /// it reads or writes (decoding, encoding, block assembly, copies),
    /// bytes/second.
    pub codec_bytes_per_sec: f64,
    /// Physical cores per node sharing a task's compute.
    pub cores_per_node: u32,
    /// HDFS replication factor charged on writes.
    pub replication: u32,
}

impl CostModel {
    /// EC2 *medium* instance profile (Section 7.1): 1 virtual core with 2
    /// EC2 compute units, ~60 MB/s disk and inter-node copy bandwidth
    /// (Section 7.4 measures 60 MB/s between medium instances).
    pub fn ec2_medium() -> Self {
        CostModel {
            job_launch_secs: 6.5,
            disk_read_bw: 60e6,
            disk_write_bw: 60e6,
            net_bw: 60e6,
            flops_per_sec: 200e6,
            codec_bytes_per_sec: 80e6,
            cores_per_node: 1,
            replication: 3,
        }
    }

    /// EC2 *large* instance profile (Section 7.4): two medium cores per
    /// node, but slower observed copy bandwidth (30–60 MB/s; we take the
    /// 45 MB/s midpoint, matching the paper's observation that large
    /// instances copied data *slower* than medium ones).
    pub fn ec2_large() -> Self {
        CostModel {
            disk_read_bw: 45e6,
            disk_write_bw: 45e6,
            net_bw: 45e6,
            cores_per_node: 2,
            ..CostModel::ec2_medium()
        }
    }

    /// A unit-speed model for tests: 1 byte/second bandwidths and free
    /// compute make costs exactly the bytes moved.
    pub fn unit_for_tests() -> Self {
        CostModel {
            job_launch_secs: 0.0,
            disk_read_bw: 1.0,
            disk_write_bw: 1.0,
            net_bw: 1.0,
            flops_per_sec: f64::INFINITY,
            codec_bytes_per_sec: f64::INFINITY,
            cores_per_node: 1,
            replication: 1,
        }
    }

    /// Simulated seconds one core spends on `stats`' counted work: its
    /// flops, and the bytes it read and wrote, each at its rate.
    fn work_secs(&self, stats: &TaskStats) -> f64 {
        let bytes = stats.read_bytes as f64 + stats.write_bytes as f64;
        stats.flops as f64 / self.flops_per_sec + bytes / self.codec_bytes_per_sec
    }

    /// Simulated seconds to execute one task on one node.
    pub(crate) fn task_secs(&self, stats: &TaskStats) -> f64 {
        let (cpu, io) = self.task_secs_split(stats);
        cpu + io
    }

    /// Simulated `(compute, io)` seconds for one task — the attribution
    /// the trace log's CPU-vs-I/O skew analytics are built on.
    pub(crate) fn task_secs_split(&self, stats: &TaskStats) -> (f64, f64) {
        let cpu = self.work_secs(stats) / f64::from(self.cores_per_node);
        (cpu, self.disk_secs(stats))
    }

    /// Simulated seconds of `stats`' DFS traffic at disk rates: its reads,
    /// and its writes once per replica.
    pub(crate) fn disk_secs(&self, stats: &TaskStats) -> f64 {
        let read = stats.read_bytes as f64 / self.disk_read_bw;
        let write = stats.write_bytes as f64 * f64::from(self.replication) / self.disk_write_bw;
        read + write
    }

    /// Simulated seconds of counted work on the master node, which runs it
    /// [`MASTER_SPEEDUP`] times faster than a worker core.
    pub(crate) fn master_work_secs(&self, work: &TaskStats) -> f64 {
        self.work_secs(work) / MASTER_SPEEDUP
    }

    /// Simulated seconds for the shuffle of `bytes` across `m0` nodes:
    /// every byte crosses the network once, and the cluster moves data at
    /// `m0 · net_bw` in aggregate.
    pub(crate) fn shuffle_secs(&self, bytes: u64, m0: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / (self.net_bw * m0.max(1) as f64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ec2_medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(flops: u64, read: u64, write: u64) -> TaskStats {
        TaskStats {
            flops,
            read_bytes: read,
            write_bytes: write,
            ..TaskStats::default()
        }
    }

    /// Unit bandwidths and unit rates.
    fn unit_rates() -> CostModel {
        CostModel {
            flops_per_sec: 1.0,
            codec_bytes_per_sec: 1.0,
            ..CostModel::unit_for_tests()
        }
    }

    /// The test model prices exactly the bytes moved: compute is free.
    #[test]
    fn unit_model_prices_exactly() {
        let m = CostModel::unit_for_tests();
        assert_eq!(m.task_secs_split(&stats(1 << 40, 3, 5)), (0.0, 8.0));
        assert_eq!(m.master_work_secs(&stats(1 << 40, 3, 5)), 0.0);
    }

    #[test]
    fn unit_rates_price_counted_work_exactly() {
        let m = unit_rates();
        assert_eq!(m.task_secs_split(&stats(2, 3, 5)), (10.0, 8.0));
        assert_eq!(m.task_secs(&stats(2, 3, 5)), 18.0);
    }

    #[test]
    fn replication_multiplies_write_cost() {
        let mut m = CostModel::unit_for_tests();
        m.replication = 3;
        assert_eq!(m.task_secs(&stats(0, 0, 10)), 30.0);
    }

    #[test]
    fn cores_divide_compute() {
        let mut m = unit_rates();
        m.cores_per_node = 4;
        assert_eq!(m.task_secs_split(&stats(8, 0, 0)).0, 2.0);
    }

    #[test]
    fn shuffle_scales_with_cluster_size() {
        let m = CostModel::unit_for_tests();
        assert!((m.shuffle_secs(100, 4) - 25.0).abs() < 1e-12);
        assert_eq!(m.shuffle_secs(0, 4), 0.0);
        assert!((m.shuffle_secs(10, 0) - 10.0).abs() < 1e-12); // clamps to 1 node
    }

    #[test]
    fn ec2_profiles_are_sane() {
        let med = CostModel::ec2_medium();
        let large = CostModel::ec2_large();
        assert_eq!(med.cores_per_node, 1);
        assert_eq!(large.cores_per_node, 2);
        assert!(
            large.net_bw < med.net_bw,
            "paper observed slower copies on large instances"
        );
        assert_eq!(large.flops_per_sec, med.flops_per_sec, "same cores");
        assert!(med.job_launch_secs > 0.0);
        assert_eq!(CostModel::default(), med);
    }

    #[test]
    fn master_runs_counted_work_faster() {
        let m = unit_rates();
        let work = stats(96, 16, 16);
        assert_eq!(m.master_work_secs(&work), 128.0 / MASTER_SPEEDUP);
        assert_eq!(m.master_work_secs(&work), m.task_secs_split(&work).0 / 64.0);
    }
}
