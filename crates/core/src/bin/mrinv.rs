//! `mrinv` — the command-line front end. All subcommand parsing and
//! dispatch lives in [`mrinv::cli`], shared with the `mrinv-worker` shim
//! binary.

fn main() {
    std::process::exit(mrinv::cli::run(std::env::args().skip(1).collect()));
}
