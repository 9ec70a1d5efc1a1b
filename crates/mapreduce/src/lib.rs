//! A from-scratch MapReduce framework modeled on Hadoop 1.x, built to host
//! the HPDC 2014 matrix-inversion pipeline without any Hadoop ecosystem.
//!
//! The framework reproduces the pieces of Hadoop the paper's algorithm and
//! evaluation depend on:
//!
//! * [`dfs::Dfs`] — an HDFS-like hierarchical file store with a replication
//!   factor and atomic byte accounting (the quantities in the paper's
//!   Tables 1–2);
//! * [`job`] — the programming model: [`job::Mapper`] / [`job::Reducer`]
//!   traits whose tasks communicate *only* through the DFS and the shuffle,
//!   exactly the constraint that drives the paper's algorithm design;
//! * [`runner`] — executes a job: map wave → shuffle → reduce wave, one
//!   engine for every job (map-only is its zero-reducer case). Tasks
//!   run for real (in parallel via rayon), are assigned to *virtual
//!   cluster nodes*, and the per-wave makespan is computed by a
//!   list scheduler;
//! * [`shuffle`] — the data path between the waves: map-side per-reducer
//!   buckets, a reducer-parallel merge-and-sort, and zero-copy grouped
//!   value slices for the reducers;
//! * [`simtime::CostModel`] — converts counted per-task work (flops, DFS
//!   bytes, shuffle bytes) into simulated cluster time, including the
//!   constant MapReduce job-launch overhead that the paper's `nb` bound
//!   value is tuned against (Section 5);
//! * [`exec`] — the pluggable execution backend seam: task attempts
//!   dispatch through an [`exec::ExecBackend`] owned by the cluster. The
//!   default `exec::InProcess` runs closures on rayon exactly as before;
//!   [`exec::tcp::TcpWorkers`] ships bincode task descriptors to real
//!   worker *processes* over TCP and serves their DFS traffic from the
//!   driver;
//! * [`wire`] — the one length-prefixed frame codec every socket speaks
//!   (worker backend, service, client);
//! * `fault::FaultPlan` — deterministic task-failure injection plus the
//!   Hadoop retry policy, reproducing the Section 7.4 failure-recovery
//!   experiment;
//! * [`driver::PipelineDriver`] — owns job sequencing and accounting for a
//!   chain of jobs (the paper's Figure 2 pipeline), stamping each job's
//!   report with its fingerprint; it is the run's only ledger, and the one
//!   door to priced computation on the master node (the paper runs
//!   `nb`-sized LU decompositions there);
//! * [`tracelog`] — one typed event per task attempt, with
//!   Chrome/Perfetto trace export and per-wave straggler analytics
//!   (off by default; see [`cluster::ClusterConfig::tracing`]);
//! * [`obs`] — the labeled metric registry (counters, gauges, log-bucketed
//!   histograms keyed by `{job, wave, node, task-kind, gemm-backend}`),
//!   Prometheus/JSON export (off by default; see
//!   [`cluster::ClusterConfig::observability`]), and the cost-model audit
//!   report [`obs::CostAudit`]: planned vs executed jobs, and stage bytes
//!   vs the paper's Tables 1–2.
//!
//! # Simulated time
//!
//! Everything numeric is computed for real; only the *reported running
//! time* is simulated. Each task returns a [`job::TaskStats`] of counted
//! work; the scheduler assigns tasks to `m0` virtual nodes and the cost
//! model prices each node's work, so the clock repeats exactly run to run. This is what lets a laptop regenerate the shape of the
//! paper's EC2 scaling results (Figures 6–8). See `DESIGN.md` for the
//! substitution argument.

#![warn(missing_docs)]

pub mod cluster;
pub mod dfs;
pub mod driver;
mod error;
pub mod exec;
mod fault;
pub mod job;
mod master;
pub mod obs;
pub mod runner;
pub mod scheduler;
pub mod shuffle;
pub mod simtime;
pub mod tracelog;
pub mod wire;

pub use cluster::{Cluster, ClusterConfig};
pub use dfs::Dfs;
pub use driver::{Fingerprint, PipelineDriver, RunId, RunReport};
pub use error::{MrError, Result};
pub use exec::tcp::{decode_read_reply, worker_serve, TcpWorkers, TcpWorkersConfig};
pub use exec::{TaskDescriptor, TaskRegistry};
pub use fault::Phase;
pub use job::{TaskIo, TaskStats};
pub use runner::JobReport;
pub use simtime::CostModel;
pub use tracelog::{chrome_trace_json, PipelineAnalytics, TaskEvent, TracePhase};
