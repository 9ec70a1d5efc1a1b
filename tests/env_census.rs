//! Census of process-wide knobs: the environment variables the library
//! crates read and the `MRINV_*` names README.md documents must both be
//! exactly the set below, so a new global switch cannot land unlisted
//! and a removed one cannot linger in the docs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The documented set. Extending it is a deliberate, reviewed act.
const DOCUMENTED: [&str; 1] = ["MRINV_WORKER"];

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
