//! The `rpq-server` binary's command line: a flag it does not know — the
//! removed `--no-telemetry` among them — stops it with the usage line and
//! exit status 2 before it binds anything, so a deployment still passing an
//! old flag fails loudly instead of starting.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_with_usage() {
    for flag in ["--no-telemetry", "--made-up-flag"] {
        let output = Command::new(env!("CARGO_BIN_EXE_rpq-server"))
            .arg(flag)
            .output()
            .expect("run rpq-server");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: rpq-server"), "{flag}: {stderr}");
    }
}
