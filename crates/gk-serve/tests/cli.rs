//! Command-line checks of the `gk-serve` binary.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `--devices 0` is a usage error (exit status 2), not a silent one-device
/// server.
#[test]
fn zero_devices_is_a_usage_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gk-serve"))
        .args(["--addr", "127.0.0.1:0", "--devices", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
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
            panic!("gk-serve --devices 0 kept running instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2));
}
