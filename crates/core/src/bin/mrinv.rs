//! `mrinv` — the command-line front end. All subcommand parsing and
//! dispatch lives in [`mrinv::cli`], which also holds the `mrinv-worker`
//! binary's entry point.

fn main() {
    mrinv::cli::run(std::env::args().skip(1).collect());
}
