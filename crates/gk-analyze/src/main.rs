//! `gk-analyze` — the workspace invariant analyzer.
//!
//! ```text
//! cargo run -p gk-analyze -- check            # analyze the workspace (cwd)
//! cargo run -p gk-analyze -- check --root X   # analyze another tree (fixtures)
//! ```
//!
//! Walks every `.rs` file under the root and enforces the project invariants
//! described in [`checks`] as hard failures (exit code 1). Suppressions live
//! in `gk-analyze.allow` at the root — one `<rule> <path> <reason>` line per
//! file, reason mandatory, stale entries rejected. See the README section
//! "Static analysis & concurrency audit" for the invariant list and the
//! workflow for adding an allowlist entry.

mod allowlist;
mod checks;
mod lexer;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use allowlist::Allowlist;
use checks::{Scope, SourceFile, Violation};

/// Directories never walked: build output, VCS state, and the analyzer's own
/// seeded-violation fixtures (which must keep failing, not fail CI).
const SKIP_DIRS: [&str; 3] = ["target", ".git", "crates/gk-analyze/fixtures"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut command = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" => command = Some("check"),
            "--root" => match iter.next() {
                Some(path) => root = PathBuf::from(path),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if command != Some("check") {
        return usage("expected the `check` subcommand");
    }
    if !root.join("Cargo.toml").exists() {
        eprintln!(
            "gk-analyze: `{}` does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }
    match run_check(&root) {
        Ok(violations) if violations.is_empty() => ExitCode::SUCCESS,
        Ok(violations) => {
            for violation in &violations {
                println!("{violation}");
            }
            println!("gk-analyze: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("gk-analyze: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("gk-analyze: {error}");
    }
    eprintln!("usage: gk-analyze check [--root <workspace-root>]");
    eprintln!();
    eprintln!("rules: {}", checks::RULES.join(", "));
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Runs every check over the tree under `root`; returns the surviving
/// (non-allowlisted) violations, sorted for stable output.
fn run_check(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();

    let mut raw = Vec::new();
    let mut filter_fns = Vec::new();
    let mut pub_fns = Vec::new();
    let mut files_naming = HashMap::new();
    let mut property_suite = None;
    let mut file_count = 0usize;
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("reading {}: {e}", rel.display()))?;
        let rel_str = rel
            .to_str()
            .ok_or_else(|| format!("non-UTF-8 path {}", rel.display()))?
            .replace('\\', "/");
        let file = SourceFile::parse(&rel_str, &text);
        file_count += 1;

        checks::check_unsafe_safety(&file, &mut raw);
        checks::check_host_clock(&file, &mut raw);
        checks::count_idents(&file, &mut files_naming);
        if checks::scope_of(&rel_str) == Scope::Library {
            checks::check_unwrap(&file, &mut raw);
            checks::check_relaxed(&file, &mut raw);
            checks::collect_pub_fns(&file, &mut pub_fns);
        }
        if rel_str.starts_with("crates/gk-filters/src/") {
            checks::collect_fns(&file, &mut filter_fns);
        }
        if rel_str == "crates/gk-filters/tests/properties.rs" {
            // Match references on the code view so a name inside a comment
            // cannot satisfy the twin rule.
            property_suite = Some(file.view.code.join("\n"));
        }
    }
    checks::check_kernel_twins(&filter_fns, property_suite.as_deref(), &mut raw);
    checks::check_orphan_pub(&pub_fns, &files_naming, &mut raw);

    let mut violations = Vec::new();
    let allow = Allowlist::load(root, &mut violations);
    for violation in raw {
        if !allow.permits(violation.rule, &violation.path) {
            violations.push(violation);
        }
    }
    allow.report_stale(&mut violations);
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    println!(
        "gk-analyze: checked {file_count} files, {} violation(s)",
        violations.len()
    );
    Ok(violations)
}

/// Depth-first walk collecting `.rs` files as root-relative paths.
fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            let name = entry.file_name();
            let skip = SKIP_DIRS
                .iter()
                .any(|s| rel_str == *s || name.to_string_lossy() == "target");
            if !skip {
                walk(root, &path, out)?;
            }
        } else if rel_str.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}
