//! Bakes the compiler version and the source commit into the binary, so
//! every result the benchmark prints says what built it.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=H2PERF_RUSTC={version}");
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("../.git");
    println!("cargo:rustc-env=H2PERF_COMMIT={}", commit(&git));
}

/// The checked-out commit, read from the repository's `.git` directory
/// (without running git, which could walk out of the source tree);
/// "unknown" in a plain source export.
fn commit(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let loose = git.join(reference);
    if let Ok(id) = std::fs::read_to_string(&loose) {
        println!("cargo:rerun-if-changed={}", loose.display());
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
