//! Public-API surface snapshot: a grep-shaped listing of every `pub`
//! declaration line across the workspace's library crates, committed as
//! `tests/public_api.txt` and diffed here, so changes to the public surface
//! show up as an explicit diff in review instead of drifting silently.
//!
//! A second listing, `tests/option_fields.txt`, names every `pub` field of
//! every `pub struct *Options`/`*Config`, so a new knob shows up as its own
//! diff line.
//!
//! Regenerate both after an intentional API change:
//!
//! ```text
//! UPDATE_PUBLIC_API=1 cargo test -p mfa_integration --test public_api
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Library source roots covered by the snapshot, relative to `crates/`.
const CRATES: [&str; 11] = [
    "core", "dispatch", "explore", "gp", "linalg", "linprog", "minlp", "platform", "serve", "sim",
    "storenet",
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

/// Every library source file, as (workspace-relative path, contents), in
/// crate order and then path order.
fn library_sources() -> Vec<(String, String)> {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = Vec::new();
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
            sources.push((rel, text));
        }
    }
    sources
}

/// One normalized snapshot line per `pub` declaration: the crate-relative
/// file, then the declaration's first line with whitespace collapsed and any
/// trailing body/brace cut at the first `{`. `pub(crate)` and test modules'
/// items are not public API and are excluded (the latter by the convention —
/// holding across this workspace — that `#[cfg(test)]` modules declare no
/// `pub` items reachable from outside).
fn surface_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (rel, text) in library_sources() {
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
    lines.sort();
    lines
}

/// One line per `pub` field of a `pub struct` whose name ends in `Options`
/// or `Config`: the crate-relative file, then `Struct::field: Type`. A
/// struct's body runs to the first line that is a lone `}`.
fn option_field_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (rel, text) in library_sources() {
        let mut open: Option<String> = None;
        for raw in text.lines() {
            let trimmed = raw.trim();
            if let Some(name) = &open {
                if trimmed == "}" {
                    open = None;
                } else if let Some(field) = trimmed.strip_prefix("pub ") {
                    let field = field.trim_end_matches(',');
                    let normalized = field.split_whitespace().collect::<Vec<_>>().join(" ");
                    lines.push(format!("{rel}: {name}::{normalized}"));
                }
                continue;
            }
            let Some(name) = trimmed
                .strip_prefix("pub struct ")
                .and_then(|rest| rest.strip_suffix(" {"))
            else {
                continue;
            };
            if name.ends_with("Options") || name.ends_with("Config") {
                open = Some(name.to_owned());
            }
        }
    }
    lines.sort();
    lines
}

/// Diffs `lines` against the committed `tests/{file}`, or rewrites the file
/// when `UPDATE_PUBLIC_API` is set.
fn check_snapshot(file: &str, lines: Vec<String>) {
    let snapshot_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(file);
    let mut current = String::new();
    for line in lines {
        writeln!(current, "{line}").expect("writing to a String cannot fail");
    }
    if std::env::var_os("UPDATE_PUBLIC_API").is_some() {
        fs::write(&snapshot_path, &current).expect("write the snapshot");
        return;
    }
    let committed = fs::read_to_string(&snapshot_path).unwrap_or_else(|err| {
        panic!(
            "missing snapshot {} ({err}); generate it with \
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
            "tests/{file} is out of date; review the diff below and, if \
             intentional, regenerate it with \
             UPDATE_PUBLIC_API=1 cargo test -p mfa_integration --test public_api\n{diff}"
        );
    }
}

#[test]
fn public_api_matches_the_committed_snapshot() {
    check_snapshot("public_api.txt", surface_lines());
}

#[test]
fn option_fields_match_the_committed_list() {
    check_snapshot("option_fields.txt", option_field_lines());
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
