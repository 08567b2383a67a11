//! Argument checks of the `sling-serve` binary that must fail before
//! anything binds or builds.

use std::process::Command;

#[test]
fn snapshot_secs_without_cache_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_sling-serve"))
        .args([
            "--corpus",
            "CliNode",
            "--addr",
            "127.0.0.1:0",
            "--snapshot-secs",
            "5",
        ])
        .output()
        .expect("sling-serve runs");
    assert!(!out.status.success(), "must not boot: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("--snapshot-secs needs --cache"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: sling-serve"), "{stderr}");
}
