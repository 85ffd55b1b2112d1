//! End-to-end tests for the `gk-analyze` binary: the seeded fixture tree must
//! fail with every rule represented, and the real workspace must pass — which
//! makes plain `cargo test` enforce the invariants even before CI's dedicated
//! `analyze` job runs.

use std::path::Path;
use std::process::{Command, Output};

fn run_on(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gk-analyze"))
        .args(["check", "--root"])
        .arg(root)
        .output()
        .expect("failed to launch gk-analyze")
}

#[test]
fn seeded_fixture_tree_fails_with_every_rule() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/violations");
    let output = run_on(&fixtures);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(1),
        "fixture tree must fail the analyzer; stdout:\n{stdout}"
    );
    for needle in [
        "[unsafe-safety]",
        "[unwrap]",
        "[relaxed]",
        "[host-clock]",
        "[kernel-twin]",
        "[orphan-pub]",
        "[allowlist]",
        "crates/demo/src/lib.rs",
        "crates/gk-gpusim/src/sim.rs",
        "demo_kernel_x4",
        "`pub fn orphaned_helper`",
        "stale entry",
    ] {
        assert!(
            stdout.contains(needle),
            "expected `{needle}` in analyzer output:\n{stdout}"
        );
    }
    // Test-region code must never be flagged: the fixture's #[cfg(test)]
    // unwrap is the canary.
    assert!(
        !stdout.contains("unwrap_is_fine_in_tests"),
        "analyzer flagged test-region code:\n{stdout}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let output = run_on(&workspace);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(0),
        "workspace must satisfy every invariant.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

#[test]
fn usage_errors_exit_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_gk-analyze"))
        .arg("frobnicate")
        .output()
        .expect("failed to launch gk-analyze");
    assert_eq!(output.status.code(), Some(2));
}
