//! Public-API surface snapshot: a grep-shaped listing of every `pub`
//! declaration line across the workspace's library crates, committed as
//! `tests/public_api.txt` and diffed here, so changes to the public surface
//! show up as an explicit diff in review instead of drifting silently.
//!
//! Regenerate after an intentional API change:
//!
//! ```text
//! UPDATE_PUBLIC_API=1 cargo test -p mfa_integration --test public_api
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Library source roots covered by the snapshot, relative to `crates/`.
const CRATES: [&str; 12] = [
    "cnn", "core", "dispatch", "explore", "gp", "linalg", "linprog", "minlp", "platform", "serve",
    "sim", "storenet",
];

/// The declaration keywords worth snapshotting. `pub use` re-exports are
/// included: they are how the facade surfaces types.
const KEYWORDS: [&str; 9] = [
    "pub fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub mod ",
    "pub use ",
];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|err| panic!("read {}: {err}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// One normalized snapshot line per `pub` declaration: the crate-relative
/// file, then the declaration's first line with whitespace collapsed and any
/// trailing body/brace cut at the first `{`. `pub(crate)` and test modules'
/// items are not public API and are excluded (the latter by the convention —
/// holding across this workspace — that `#[cfg(test)]` modules declare no
/// `pub` items reachable from outside).
fn surface_lines() -> Vec<String> {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut lines = Vec::new();
    for krate in CRATES {
        let src = workspace.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files);
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(&workspace)
                .expect("file under workspace")
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&file)
                .unwrap_or_else(|err| panic!("read {}: {err}", file.display()));
            for raw in text.lines() {
                let trimmed = raw.trim_start();
                if !KEYWORDS.iter().any(|k| trimmed.starts_with(k)) {
                    continue;
                }
                let cut = trimmed.split('{').next().unwrap_or(trimmed).trim_end();
                let normalized = cut.split_whitespace().collect::<Vec<_>>().join(" ");
                lines.push(format!("{rel}: {normalized}"));
            }
        }
    }
    lines.sort();
    lines
}

#[test]
fn public_api_matches_the_committed_snapshot() {
    let snapshot_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/public_api.txt");
    let mut current = String::new();
    for line in surface_lines() {
        writeln!(current, "{line}").expect("writing to a String cannot fail");
    }
    if std::env::var_os("UPDATE_PUBLIC_API").is_some() {
        fs::write(&snapshot_path, &current).expect("write the public-API snapshot");
        return;
    }
    let committed = fs::read_to_string(&snapshot_path).unwrap_or_else(|err| {
        panic!(
            "missing public-API snapshot {} ({err}); generate it with \
             UPDATE_PUBLIC_API=1 cargo test -p mfa_integration --test public_api",
            snapshot_path.display()
        )
    });
    if committed != current {
        let committed_set: std::collections::BTreeSet<&str> = committed.lines().collect();
        let current_set: std::collections::BTreeSet<&str> = current.lines().collect();
        let mut diff = String::new();
        for gone in committed_set.difference(&current_set) {
            writeln!(diff, "- {gone}").unwrap();
        }
        for added in current_set.difference(&committed_set) {
            writeln!(diff, "+ {added}").unwrap();
        }
        panic!(
            "the public API surface changed; review the diff below and, if \
             intentional, regenerate tests/public_api.txt with \
             UPDATE_PUBLIC_API=1 cargo test -p mfa_integration --test public_api\n{diff}"
        );
    }
}

#[test]
fn deleted_solver_variants_stay_deleted() {
    // The API-redesign invariant: no `_with_hint`/`_seeded`/`_warm_start`
    // free-function variants may reappear in the public surface — warm
    // starts are a `SolveRequest` field now.
    for line in surface_lines() {
        let is_fn = line.contains("pub fn ");
        assert!(
            !(is_fn
                && (line.contains("_with_hint")
                    || line.contains("_seeded(")
                    || line.contains("_with_warm_start")
                    || line.contains("_warm_start("))),
            "a warm-start function variant leaked back into the public API: {line}"
        );
    }
}
