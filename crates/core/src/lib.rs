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
//! // The O(n²) certificate the inverse carries, taken where it was made.
//! assert!(out.certificate().unwrap() < 1e-5);
//! ```
//!
//! # Architecture
//!
//! | Stage | Jobs | Private module |
//! |---|---|---|
//! | Partition input (Algorithm 3) | 1 map-only | `partition` |
//! | Block LU (Algorithm 2, Eq. 6) | `2^⌈log2(n/nb)⌉ − 1` | `lu_mr` |
//! | Triangular inverses + product (Eq. 4) | 1 | `tri_inv_mr` |
//!
//! Every consumer enters through the [`Request`] builder in `request`
//! (inversion, LU decomposition, and linear solves behind one fluent
//! API), which is the one place that sequence of jobs is written down;
//! the stage modules above and their supports (`source`, the one
//! descriptor of a matrix stored in the DFS; `factors`, the
//! separate-files factor forest of Section 6.1; `inverse`, the run
//! fingerprint and the run directory; `audit`, the job-count and stage-byte
//! checks a traced run attaches to its [`RunReport`]) are private, so the compiler's
//! `dead_code` lint is their census. A request is optionally backed by
//! the keyed [`cache::FactorCache`] so a repeated request for the same
//! (matrix, nb) serves from the already-computed factor forest
//! with zero pipeline jobs. The [`service`] module projects the same API
//! over TCP as the multi-tenant `mrinv serve` daemon, with [`client`] as
//! its blocking counterpart.
//!
//! | Exported module | What it holds |
//! |---|---|
//! | `request` | [`Request`], [`Outcome`], `Op`, [`LuFactors`], [`CacheStatus`] |
//! | [`config`] | `nb` and the Section 6 optimization toggles |
//! | `cache` | the keyed factor cache and [`cache_key`] |
//! | [`service`], [`client`] | `mrinv serve` and its blocking client |
//! | [`cli`] | the `mrinv` command line and the `mrinv-worker` entry point |
//! | [`remote`] | the worker task-family registry ([`exec_registry`]) |
//! | [`schedule`] | the precomputed pipeline shape |
//! | [`theory`] | the closed forms of Tables 1–2 |
//! | [`inmem`] | the same algorithm without MapReduce: the verification reference and the Section 8 "Spark-style" dataflow |
//! | [`obs`] | the exportable metrics snapshot (registry + kernel perf) |
//! | `error` | [`CoreError`] |

#![warn(missing_docs)]

mod audit;
mod cache;
pub mod cli;
pub mod client;
pub mod config;
mod error;
mod factors;
pub mod inmem;
mod inverse;
mod lu_mr;
pub mod obs;
mod partition;
pub mod remote;
mod request;
pub mod schedule;
pub mod service;
mod source;
pub mod theory;
mod tri_inv_mr;

pub use cache::{cache_key, FactorCache};
pub use config::{InversionConfig, Optimizations};
pub use error::CoreError;
pub use mrinv_mapreduce::{RunId, RunReport};
pub use remote::exec_registry;
pub use request::{CacheStatus, LuFactors, Outcome, Request};
