//! Census of process-wide knobs: the environment variables the library
//! crates read and the `MRINV_*` names README.md documents must both be
//! exactly the set below, so a new global switch cannot land unlisted
//! and a removed one cannot linger in the docs; likewise `ClusterConfig`'s
//! public fields must be exactly `CLUSTER_KNOBS`, each with the non-test
//! caller that sets it. A second census keeps
//! the library crates' public surface to what some other file calls, and
//! a third keeps `crates/core`'s block codec calls and DFS file names to
//! the one place each belongs.
//!
//! The second census is a text scan, so an item another file's *test*
//! spells passes it. The compiler's census is stricter, by definition
//! rather than by name: every workspace member keeps `pub` only what
//! another crate, an example, an integration test, a doctest or `e2e/`
//! reaches, and the workspace denies rustc's `dead_code`, so a
//! crate-private item that nothing outside `cfg(test)` calls fails the
//! build.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The documented set. Extending it is a deliberate, reviewed act.
const DOCUMENTED: [&str; 0] = [];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The value of `const <ident>: &str = "<value>"` in any of `sources`.
fn const_str(sources: &[String], ident: &str) -> Option<String> {
    let decl = format!("const {ident}: &str = \"");
    sources.iter().find_map(|src| {
        let rest = &src[src.find(&decl)? + decl.len()..];
        Some(rest[..rest.find('"')?].to_string())
    })
}

#[test]
fn library_crates_read_only_documented_env_vars() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(files.len() > 20, "scanned only {} files", files.len());
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect();

    let mut read = BTreeSet::new();
    for (file, src) in files.iter().zip(&sources) {
        for call in ["env::var(", "env::var_os("] {
            for (at, _) in src.match_indices(call) {
                let arg = &src[at + call.len()..];
                let arg = arg[..arg.find(')').unwrap()].trim();
                // A literal names the variable; anything else must be a
                // `&str` constant this scan can resolve.
                let name = match arg.strip_prefix('"') {
                    Some(lit) => lit.trim_end_matches('"').to_string(),
                    None => {
                        let ident = arg.rsplit("::").next().unwrap();
                        const_str(&sources, ident).unwrap_or_else(|| {
                            panic!("{}: cannot resolve env name `{arg}`", file.display())
                        })
                    }
                };
                read.insert(name);
            }
        }
    }
    let documented: BTreeSet<String> = DOCUMENTED.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        read, documented,
        "environment variables read by crates/*/src"
    );

    let readme = std::fs::read_to_string(crates.join("../README.md")).unwrap();
    let named: BTreeSet<String> = readme
        .match_indices("MRINV_")
        .map(|(at, _)| {
            let name = &readme[at..];
            let end = name
                .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                .unwrap_or(name.len());
            name[..end].to_string()
        })
        .collect();
    assert_eq!(named, documented, "MRINV_* names in README.md");
}

/// `ClusterConfig`'s public fields, as `field: the non-test caller that
/// sets it`. A knob nothing outside a test sets is a constant; adding one
/// is the same reviewed act as extending `DOCUMENTED`.
const CLUSTER_KNOBS: [&str; 9] = [
    "nodes: ClusterConfig::medium",
    "slots_per_node: ClusterConfig::large",
    "node_speeds: bench node_death_experiment",
    "speculative_execution: bench stragglers",
    "tracing: cli build_cluster",
    "observability: cli build_cluster",
    "progress: cli build_cluster",
    "task_timeout_secs: bench node_death_experiment",
    "cost: bench medium_cluster",
];

#[test]
fn cluster_config_fields_are_the_listed_knobs() {
    let cluster = Path::new(env!("CARGO_MANIFEST_DIR")).join("../mapreduce/src/cluster.rs");
    let src = std::fs::read_to_string(cluster).unwrap();
    let body = &src[src.find("pub struct ClusterConfig {").unwrap()..];
    let body = &body[..body.find("\n}").unwrap()];
    let fields: BTreeSet<&str> = body
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub "))
        .filter_map(|decl| Some(decl.split_once(':')?.0))
        .collect();
    let listed: BTreeSet<&str> = CLUSTER_KNOBS
        .iter()
        .map(|entry| match entry.split_once(": ") {
            Some((field, _caller)) => field,
            None => panic!("{entry} is listed without the caller that sets it"),
        })
        .collect();
    assert_eq!(fields, listed, "ClusterConfig's public fields");
}

/// Public items of the library crates that no other file names, as
/// `item: the reason it stays public`. "A test calls it" is not a reason.
const NO_OUTSIDE_CALLER: [&str; 9] = [
    "mapreduce::job::ShuffleSize: bound of the public Mapper::Key and Mapper::Value, implemented in job.rs",
    "mapreduce::obs::CounterSeries: element type of the public field ObsSnapshot::counters",
    "mapreduce::obs::GaugeSeries: element type of the public field ObsSnapshot::gauges",
    "mapreduce::obs::HistogramSeries: element type of the public field ObsSnapshot::histograms",
    "mapreduce::obs::HistogramSnapshot: return type of Histogram::snapshot",
    "mapreduce::scheduler::PlannedAttempt: element type of the public field WavePlan::attempts",
    "mapreduce::tracelog::WaveAnalytics: element type of the public field PipelineAnalytics::waves",
    "matrix::block::Quadrants: return type of Matrix::split_quadrants",
    "matrix::kernel::perf::KernelPerf: the type perf::snapshot returns, in an Option",
];

/// `crates/core/src/lu_mr.rs` -> `core::lu_mr`, `.../kernel/mod.rs` ->
/// `matrix::kernel`, `.../lib.rs` -> the crate directory's name.
fn module_path(crates: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(crates).unwrap().with_extension("");
    rel.iter()
        .map(|part| part.to_str().unwrap())
        .filter(|part| !matches!(*part, "src" | "lib" | "mod"))
        .collect::<Vec<_>>()
        .join("::")
}

/// Every identifier-shaped word of `src` outside its comment lines: a
/// mention in a doc comment is not a caller.
fn identifiers(src: &str) -> BTreeSet<&str> {
    src.lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
        .filter(|word| !word.is_empty())
        .collect()
}

#[test]
fn public_items_have_a_caller_outside_their_file() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let root = crates.join("..");
    let mut library = Vec::new();
    for name in ["matrix", "mapreduce", "core"] {
        rust_sources(&crates.join(name).join("src"), &mut library);
    }
    let mut everywhere = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let krate = entry.unwrap().path();
        for sub in ["src", "tests"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                rust_sources(&dir, &mut everywhere);
            }
        }
    }
    for dir in ["tests", "examples", "e2e/src"] {
        rust_sources(&root.join(dir), &mut everywhere);
    }
    // The allow-list above names its items; that is not a call either.
    everywhere.retain(|f| !f.ends_with("tests/env_census.rs"));
    let sources: Vec<String> = everywhere
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect();
    let named: Vec<BTreeSet<&str>> = sources.iter().map(|src| identifiers(src)).collect();

    let mut orphans = BTreeSet::new();
    for file in &library {
        let at = everywhere.iter().position(|f| f == file).unwrap();
        // A file's `#[cfg(test)]` module closes it, so everything before
        // the attribute is what the crate ships.
        let shipped = sources[at].split("#[cfg(test)]").next().unwrap();
        for line in shipped.lines() {
            let Some(decl) = line.trim_start().strip_prefix("pub ") else {
                continue;
            };
            let mut words = decl.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            let kind = words.next().unwrap();
            if !["fn", "struct", "enum", "trait", "const", "type", "mod"].contains(&kind) {
                continue;
            }
            let name = words.next().unwrap();
            let elsewhere = named
                .iter()
                .enumerate()
                .any(|(i, idents)| i != at && idents.contains(name));
            if !elsewhere {
                orphans.insert(format!("{}::{name}", module_path(&crates, file)));
            }
        }
    }
    assert!(library.len() > 50, "scanned only {} files", library.len());

    let allowed: BTreeSet<&str> = NO_OUTSIDE_CALLER
        .iter()
        .map(|entry| match entry.split_once(": ") {
            Some((item, _reason)) => item,
            None => panic!("{entry} is allow-listed without a reason"),
        })
        .collect();
    let unlisted: Vec<&String> = orphans
        .iter()
        .filter(|item| !allowed.contains(item.as_str()))
        .collect();
    let stale: Vec<&&str> = allowed
        .iter()
        .filter(|item| !orphans.contains(**item))
        .collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "public items no other file names (delete them, make them private, or \
         allow-list them with a reason): {unlisted:#?}\n\
         allow-listed items that have a caller outside their file, or are gone: {stale:#?}"
    );
}

/// `(file name, 1-based line, line)` of every non-comment line under
/// `crates/core/src`; `shipped_only` stops each file at its
/// `#[cfg(test)]` module.
fn core_code_lines(shipped_only: bool) -> Vec<(String, usize, String)> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    assert!(files.len() >= 20, "scanned only {} files", files.len());
    let mut out = Vec::new();
    for file in files {
        let name = file.strip_prefix(&src).unwrap().display().to_string();
        let text = std::fs::read_to_string(&file).unwrap();
        let lines = text
            .lines()
            .take_while(|line| !(shipped_only && line.starts_with("#[cfg(test)]")));
        for (at, line) in lines.enumerate() {
            if !line.trim_start().starts_with("//") {
                out.push((name.clone(), at + 1, line.to_string()));
            }
        }
    }
    out
}

/// A stored block becomes a `Matrix` (and back) in `source.rs`'s
/// `read_block` / `write_block` and nowhere else, and each DFS file family
/// is named by one function: a reader that formats its own path can drift
/// from the writer, one that is handed the path cannot.
#[test]
fn core_decodes_blocks_and_names_dfs_files_in_one_place() {
    // Tests included: they go through the typed pair too.
    const CODEC_FILES: [&str; 5] = [
        "source.rs",     // block I/O: read_block / write_block
        "tri_inv_mr.rs", // the IndexedBlock container
        "cache.rs",      // its tests store leaf factor files
        "service.rs",    // the wire
        "client.rs",     // the wire
    ];
    let bypasses: Vec<String> = core_code_lines(false)
        .into_iter()
        .filter(|(file, _, line)| {
            (line.contains("decode_binary") || line.contains("encode_binary"))
                && !CODEC_FILES.contains(&file.as_str())
        })
        .map(|(file, at, line)| format!("{file}:{at}: {}", line.trim()))
        .collect();
    assert!(
        bypasses.is_empty(),
        "block codec called outside source::{{read_block, write_block}}: {bypasses:#?}"
    );

    let shipped = core_code_lines(true);
    for family in ["/L2/L.", "/U2/U.", "/OUT/A.", "/INV/", "/RESULT/A."] {
        let sites: Vec<String> = shipped
            .iter()
            .filter(|(_, _, line)| line.contains(family))
            .map(|(file, at, _)| format!("{file}:{at}"))
            .collect();
        assert_eq!(
            sites.len(),
            1,
            "`{family}` must be spelled by exactly one shipped function, found {sites:?}"
        );
    }
}
