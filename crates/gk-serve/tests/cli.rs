//! Command-line checks of the `gk-serve` binary.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What a finished `gk-serve` run left: its exit code, stdout and stderr.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Runs `gk-serve` with `args` and waits for it to exit; fails the test if it
/// is still running after 30 s (a daemon that started serving).
fn run(args: &[&str]) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gk-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gk-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll gk-serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("gk-serve {args:?} kept running instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    let mut out = child.stdout.take().expect("piped stdout");
    out.read_to_string(&mut stdout).expect("read stdout");
    let mut err = child.stderr.take().expect("piped stderr");
    err.read_to_string(&mut stderr).expect("read stderr");
    Run {
        code: status.code(),
        stdout,
        stderr,
    }
}

/// `--devices 0` is a usage error (exit status 2), not a silent one-device
/// server.
#[test]
fn zero_devices_is_a_usage_error() {
    let run = run(&["--addr", "127.0.0.1:0", "--devices", "0"]);
    assert_eq!(run.code, Some(2));
    assert!(run.stderr.contains("usage: gk-serve"), "{:?}", run.stderr);
}

/// `--help` and `-h` print the usage to stdout and exit 0: asking for the
/// flags is not a usage error.
#[test]
fn help_prints_the_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let run = run(&[flag, "--addr", "127.0.0.1:0"]);
        assert_eq!(run.code, Some(0), "{flag}: {:?}", run.stderr);
        assert!(run.stdout.starts_with("usage: gk-serve"), "{flag}");
        assert!(run.stderr.is_empty(), "{flag}: {:?}", run.stderr);
    }
}
