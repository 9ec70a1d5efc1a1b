//! Shared harness for regenerating the paper's evaluation (Section 7).
//!
//! The `repro` binary exposes one subcommand per table/figure. The
//! inversion methods the paper weighs and rejects in Section 2
//! (Gauss-Jordan, QR, Cholesky) live here beside
//! [`experiments::section2_methods`], their one caller. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

#![warn(missing_docs)]

mod cholesky;
pub mod experiments;
mod gauss_jordan;
mod qr;
pub mod suite;

use std::io::Write as _;
use std::path::Path;

/// Writes rows as a CSV file under `results/`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<String> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    Ok(path.display().to_string())
}

/// Writes an arbitrary text artifact (e.g. an exported trace) under
/// `results/` and returns its path.
pub fn write_results_file(name: &str, content: &str) -> std::io::Result<String> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writes_to_results() {
        let p = write_csv("selftest", "a,b", &["1,2".into(), "3,4".into()]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_file(p);
    }
}
