//! Stamps the binary with the compiler version, the build profile and,
//! when the sources sit in a git work tree, the commit they were built from.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = stdout_of(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let root = Path::new(&manifest).parent().unwrap_or(Path::new("."));
    let mut git = Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "--short=12", "HEAD"]);
    // Never report the commit of an unrelated repository further up.
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    let commit = stdout_of(&mut git).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");

    println!("cargo:rerun-if-changed=build.rs");
    for tracked in [".git/HEAD", ".git/refs/heads"] {
        let path = root.join(tracked);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
