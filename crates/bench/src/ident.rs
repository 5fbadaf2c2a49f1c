//! Build and host identity for baseline manifests: which compiler and
//! codegen features built the binary, and which CPU ran it. A change of
//! build settings (say, `-C target-cpu=native`) then reads as a build
//! change, not a code change.

/// A field that could not be determined, or that a baseline predates.
pub const UNKNOWN: &str = "unknown";

/// `rustc --version` of the compiler that built this binary.
pub fn rustc() -> String {
    env!("BENCH_RUSTC").to_string()
}

/// The target features the binary was compiled for, comma-separated as
/// cargo reports them.
pub fn target_features() -> String {
    env!("BENCH_TARGET_FEATURES").to_string()
}

/// The vector and bit-manipulation features the kernels can use, as
/// detected on this CPU at run time (`n/a` off x86-64).
pub fn runtime_features() -> String {
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

/// The CPU brand string from `cpuid`, or [`UNKNOWN`].
pub fn cpu() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x80000000 reports the highest extended leaf; the brand
        // string needs leaves 0x80000002..=0x80000004.
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
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
    }
    UNKNOWN.to_string()
}

/// `available_parallelism`, or 1.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
