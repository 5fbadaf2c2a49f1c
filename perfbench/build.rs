//! Records the compiler and the compile-time target features in the binary,
//! so every run can print the build it measured.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_FEATURES={features}");
    // Without this, any file change in the package (the README) would
    // re-run the script and rebuild the binary.
    println!("cargo:rerun-if-changed=build.rs");
}
