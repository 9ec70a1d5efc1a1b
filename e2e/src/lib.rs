//! Wall-clock benchmark harness for `mrinv`: four workloads timed from
//! outside through the program's public functions and binaries, five
//! gated end-to-end metrics, and a traced run that splits the time by
//! layer. See `README.md` beside this package for the measurement rules.

#![warn(missing_docs)]

pub mod aa;
pub mod cli_run;
pub mod env;
pub mod lib_run;
pub mod pass;
pub mod probes;
pub mod report;
pub mod serve_run;
pub mod span;
pub mod spec;
pub mod stats;
