//! Command-line checks of the `serve_bench` binary.

use std::process::Command;

/// Each malformed command line is a usage error: exit status 2, an error on
/// stderr that names the offending flag or value, and nothing on stdout, so
/// no payload, server or client was built.
#[test]
fn malformed_arguments_are_usage_errors() {
    let cases: [(&[&str], &[&str]); 6] = [
        (&["--bogus"], &["--bogus"]),
        (&["--clients", "abc"], &["--clients", "abc"]),
        (&["--clients"], &["--clients"]),
        (&["--req-pairs", "300"], &["--req-pairs", "300"]),
        (&["--req-pairs", "0"], &["--req-pairs", "0"]),
        (&["--backend", "fpga"], &["--backend", "fpga"]),
    ];
    for (args, named) in cases {
        // A binary that ignored the error would run the whole benchmark and
        // write its result file into the working directory.
        let output = Command::new(env!("CARGO_BIN_EXE_serve_bench"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("spawn serve_bench");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}; stderr:\n{stderr}");
        for needle in named {
            assert!(
                stderr.contains(needle),
                "{args:?}: stderr does not name {needle}:\n{stderr}"
            );
        }
        assert!(
            stderr.contains("usage: serve_bench"),
            "{args:?}: no usage:\n{stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{args:?} started the benchmark:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}
