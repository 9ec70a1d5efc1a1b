//! `repro all` reproduces the committed `results/` byte for byte: its
//! stdout is `results/repro_all.log`, and the CSVs it writes are the
//! committed CSVs, file for file. Simulated time prices counted work and
//! never the host's clock, so every experiment is a pure function of
//! `--scale`; a charge site that reads a timer, or a change that moves a
//! figure without regenerating `results/`, fails here. It runs every
//! experiment (about a minute in release), hence ignored by default:
//! `cargo test --release -p mrinv-bench --test results -- --ignored`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

/// Rewrites the log and every CSV, run from the repository root.
const REGENERATE: &str =
    "cargo run --release -p mrinv-bench --bin repro -- all > results/repro_all.log";

/// Every `*.csv` in `dir`, by file name.
fn csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// The first line on which `now` and `committed` differ.
fn first_difference(now: &[u8], committed: &[u8]) -> String {
    let (now, committed) = (
        String::from_utf8_lossy(now),
        String::from_utf8_lossy(committed),
    );
    match now.lines().zip(committed.lines()).position(|(a, b)| a != b) {
        Some(i) => format!(
            "line {}: now {:?}, committed {:?}",
            i + 1,
            now.lines().nth(i).unwrap(),
            committed.lines().nth(i).unwrap()
        ),
        None => format!(
            "{} lines now, {} committed",
            now.lines().count(),
            committed.lines().count()
        ),
    }
}

#[test]
#[ignore = "runs every experiment, about a minute in release"]
fn repro_all_reproduces_the_committed_results() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = std::env::temp_dir().join(format!("mrinv-repro-all-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .current_dir(&dir)
        .output()
        .unwrap();
    let fresh = csvs(&dir.join("results"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        run.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let mut stale = Vec::new();
    let log = std::fs::read(committed.join("repro_all.log")).unwrap();
    if run.stdout != log {
        stale.push(format!(
            "results/repro_all.log differs, {}",
            first_difference(&run.stdout, &log)
        ));
    }
    let pinned = csvs(&committed);
    let names: BTreeSet<&String> = fresh.keys().chain(pinned.keys()).collect();
    for name in names {
        match (fresh.get(name), pinned.get(name)) {
            (Some(now), Some(then)) if now == then => {}
            (Some(now), Some(then)) => stale.push(format!(
                "results/{name} differs, {}",
                first_difference(now, then)
            )),
            (Some(_), None) => stale.push(format!("results/{name} is written but not committed")),
            (None, _) => stale.push(format!(
                "results/{name} is committed but repro all does not write it"
            )),
        }
    }
    assert!(
        stale.is_empty(),
        "{}\nif the change is meant, regenerate from the repository root with\n    {REGENERATE}",
        stale.join("\n")
    );
}
