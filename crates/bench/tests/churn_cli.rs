//! The `churn` binary's command line, run as a process: `--help` exits 0,
//! and an unknown flag exits 2 with a named diagnostic and the usage.

use std::process::Command;

#[test]
fn help_exits_0_and_an_unknown_flag_exits_2() {
    let churn = env!("CARGO_BIN_EXE_churn");
    let help = Command::new(churn).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).contains("--policies <LIST>"));

    let bad = Command::new(churn).args(["--frobnicate", "1"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("unknown flag --frobnicate") && stderr.contains("USAGE"), "{stderr}");
}
