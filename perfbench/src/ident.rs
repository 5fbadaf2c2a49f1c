//! Build identity printed with every run: which source, compiler, codegen
//! features and host produced the numbers. A change of build settings (say,
//! `-C target-cpu=native`) then reads as a build change, not a code change.

use std::path::{Path, PathBuf};

/// One `key=value` line describing the build and the host.
pub fn build_identity() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let parts = [
        ("git_sha", git_sha(&root)),
        ("src_hash", format!("{:016x}", source_hash(&root))),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("target_features", compile_features()),
        ("runtime_features", runtime_features()),
        ("cpu", cpu_model()),
        ("nproc", nproc().to_string()),
    ];
    parts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// `std::thread::available_parallelism`, or 1.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_sha(root: &Path) -> String {
    // Without a `.git` here, git would search the parent directories and
    // could name some other repository's commit.
    if !root.join(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// FNV-1a over the paths and contents of the library sources and
/// manifests, so a checkout without git history still names its code.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        let name = e.file_name();
        if p.is_dir() {
            if name != "target" {
                collect(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") || name == "Cargo.toml" {
            out.push(p);
        }
    }
}

fn compile_features() -> String {
    // The full list cargo saw; the few that decide kernel codegen first.
    let all = env!("PERFBENCH_TARGET_FEATURES");
    let key: Vec<&str> = ["avx", "avx2", "fma", "avx512f"]
        .into_iter()
        .filter(|f| all.split(',').any(|x| x == *f))
        .collect();
    format!("[{}] all={all}", key.join(","))
}

fn runtime_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut v = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    v.push($f);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512dq", "avx512vl");
        v.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("n/a")
    }
}

/// The CPU brand string from `cpuid` (no file outside the checkout is read).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x80000000 reports the highest extended leaf; the brand
        // string needs leaves 0x80000002..=0x80000004.
        let max_ext = __cpuid(0x8000_0000).eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
        "unknown".to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".to_string()
    }
}
