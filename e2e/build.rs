//! Records the compiler and, where the checkout is a git repository, the
//! commit, so every run can print what it measured.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    String::from_utf8(output.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = first_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=E2E_RUSTC={version}");
    println!("cargo:rustc-env=E2E_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
