//! `docs/MODEL.md` is the ledger of the simulated device model: one row per
//! model constant, with its value, its unit and the paper datum it was set
//! against. This test keeps the ledger complete. Every `const` in
//! `crates/gk-gpusim/src` and every cost constant in `crates/gk-core/src/gpu.rs`
//! needs a row in its "Named constants" table, and every row there must name a
//! constant that still exists.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn is_constant_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The `const` items of `file` before its `mod tests` block. Clippy's
/// `items_after_test_module` lint keeps every other item above that block.
fn declared_constants(file: &Path) -> Vec<String> {
    let source = fs::read_to_string(file).unwrap();
    source
        .lines()
        .map(str::trim_start)
        .take_while(|line| !line.starts_with("mod tests"))
        .filter_map(|line| {
            let line = line
                .strip_prefix("pub(crate) ")
                .or_else(|| line.strip_prefix("pub "))
                .unwrap_or(line);
            let name = line.strip_prefix("const ")?.split(':').next()?.trim();
            is_constant_name(name).then(|| name.to_string())
        })
        .collect()
}

/// Every model constant of the simulated device, with the file declaring it.
fn model_constants() -> Vec<(String, PathBuf)> {
    let mut files: Vec<PathBuf> = fs::read_dir(repo().join("crates/gk-gpusim/src"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    files.sort();
    files.push(repo().join("crates/gk-core/src/gpu.rs"));
    files
        .into_iter()
        .flat_map(|file| {
            declared_constants(&file)
                .into_iter()
                .map(move |name| (name, file.clone()))
        })
        .collect()
}

/// The constants named in the first cell of the ledger's "Named constants"
/// table.
fn ledger_rows() -> BTreeSet<String> {
    let ledger = fs::read_to_string(repo().join("docs/MODEL.md")).unwrap();
    ledger
        .split("## ")
        .find(|section| section.starts_with("Named constants"))
        .expect("docs/MODEL.md has a \"Named constants\" section")
        .lines()
        .filter_map(|line| {
            let first_cell = line.strip_prefix('|')?.split('|').next()?.trim();
            let name = first_cell.strip_prefix('`')?.strip_suffix('`')?;
            is_constant_name(name).then(|| name.to_string())
        })
        .collect()
}

#[test]
fn every_model_constant_has_a_ledger_row() {
    let rows = ledger_rows();
    let constants = model_constants();
    assert!(constants.len() >= 14, "found only {constants:?}");
    let missing: Vec<String> = constants
        .iter()
        .filter(|(name, _)| !rows.contains(name))
        .map(|(name, file)| format!("{name} ({})", file.display()))
        .collect();
    assert!(
        missing.is_empty(),
        "constants without a row in docs/MODEL.md: {missing:?}"
    );
}

#[test]
fn every_ledger_row_names_a_constant() {
    let declared: BTreeSet<String> = model_constants()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let stale: Vec<String> = ledger_rows().difference(&declared).cloned().collect();
    assert!(
        stale.is_empty(),
        "docs/MODEL.md rows naming no constant: {stale:?}"
    );
}
