//! **mrinv** — scalable matrix inversion using MapReduce.
//!
//! A from-scratch Rust reproduction of *"Scalable Matrix Inversion Using
//! MapReduce"* (Xiang, Meng, Aboulnaga — HPDC 2014): matrix inversion via
//! recursive **block LU decomposition** executed as a **pipeline of
//! MapReduce jobs** over an HDFS-like distributed file system.
//!
//! # Quick start
//!
//! ```
//! use mrinv::{InversionConfig, Request};
//! use mrinv_mapreduce::Cluster;
//! use mrinv_matrix::random::random_well_conditioned;
//! use mrinv_matrix::norms::inversion_residual;
//!
//! // A simulated 4-node cluster (EC2-medium cost profile).
//! let cluster = Cluster::medium(4);
//! let a = random_well_conditioned(64, 42);
//!
//! let out = Request::invert(&a)
//!     .config(&InversionConfig::with_nb(16))
//!     .submit(&cluster)
//!     .unwrap();
//! // The pipeline ran partition + 3 LU jobs + final inversion.
//! assert_eq!(out.report.jobs, mrinv::schedule::total_jobs(64, 16));
//! assert!(inversion_residual(&a, out.inverse().unwrap()).unwrap() < 1e-5);
//! ```
//!
//! # Architecture
//!
//! | Stage | Jobs | Module |
//! |---|---|---|
//! | Partition input (Algorithm 3) | 1 map-only | [`partition`] |
//! | Block LU (Algorithm 2, Eq. 6) | `2^⌈log2(n/nb)⌉ − 1` | [`lu_mr`] |
//! | Triangular inverses + product (Eq. 4) | 1 | [`tri_inv_mr`] |
//!
//! Every consumer enters through the [`Request`] builder in [`request`]
//! (inversion, LU decomposition, and linear solves behind one fluent
//! API), optionally backed by the keyed [`cache::FactorCache`] so a
//! repeated request for the same (matrix, configuration) serves from the
//! already-computed factor forest with zero pipeline jobs. The
//! [`service`] module projects the same API over TCP as the
//! multi-tenant `mrinv serve` daemon, with [`client`] as its blocking
//! counterpart.
//!
//! Supporting pieces: [`schedule`] (the precomputed pipeline shape),
//! [`audit`] (the cost-model audit: predicted-vs-priced task residuals),
//! [`obs`] (the exportable metrics snapshot, registry + kernel perf),
//! [`source`] (the one descriptor of a matrix stored in the DFS, Section
//! 5.2: the partition job returns it, every quadrant is a window of it),
//! [`factors`] (the separate-files factor forest, Section 6.1),
//! [`theory`] (the closed forms of Tables 1–2), [`inmem`] (the same
//! algorithm without MapReduce, for verification and as the Section 8
//! "Spark-style" dataflow), and [`config`] (the Section 6 optimization
//! toggles).

#![warn(missing_docs)]

pub mod audit;
pub mod cache;
pub mod cli;
pub mod client;
pub mod config;
pub mod error;
pub mod factors;
pub mod inmem;
pub mod inverse;
pub mod lu_mr;
pub mod obs;
pub mod partition;
pub mod remote;
pub mod request;
pub mod schedule;
pub mod service;
pub mod source;
pub mod theory;
pub mod tri_inv_mr;

pub use cache::{cache_key, CacheStats, FactorCache};
pub use config::{InversionConfig, Optimizations};
pub use error::{CoreError, Result};
pub use inverse::{run_fingerprint, Checkpoint};
pub use mrinv_mapreduce::{PipelineDriver, RunId, RunReport};
pub use remote::exec_registry;
pub use request::{CacheStatus, LuFactors, Op, Outcome, Request};
