//! Worker process of the `tcp` execution backend:
//! [`mrinv_mapreduce::TcpWorkers`] spawns workers by this file name
//! (found next to whichever binary is driving), and the body is
//! [`mrinv::cli::worker_main`].
//!
//! ```text
//! mrinv-worker --connect 127.0.0.1:<port> --worker-id <n>
//! ```

fn main() {
    std::process::exit(mrinv::cli::worker_main(std::env::args().skip(1).collect()));
}
