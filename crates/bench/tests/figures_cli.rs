//! The `figures` binary's exit status: CI runs single experiments by id
//! (`figures abl-faults`, `figures abl-dedup`), so a misspelt id or an
//! unwritable `--csv` directory must fail the step, not pass it silently.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn unknown_experiment_exits_non_zero() {
    let out = figures(&["no-such-experiment"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn a_known_experiment_exits_zero() {
    let out = figures(&["abl-sync"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("abl-sync"));
}

#[test]
fn failed_csv_write_exits_non_zero() {
    // A regular file where the CSV directory should be: creating the
    // directory fails.
    let blocker = std::env::temp_dir().join(format!("figures_cli_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out = figures(&["abl-sync", "--csv", blocker.to_str().unwrap()]);
    std::fs::remove_file(&blocker).unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to write"));
}
