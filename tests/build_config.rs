//! The committed `.cargo/config.toml` builds for the host CPU, so the
//! kernels' `mul_add`s compile to FMA instructions instead of libm calls.
//! This fails when that config is lost or overridden (say by `RUSTFLAGS`)
//! on a CPU that has FMA.

#[cfg(target_arch = "x86_64")]
#[test]
fn build_targets_the_host_fma_unit() {
    let host_has_fma = std::arch::is_x86_feature_detected!("fma");
    assert!(
        !host_has_fma || cfg!(target_feature = "fma"),
        "the CPU has FMA but this build does not use it: is .cargo/config.toml \
         (-C target-cpu=native) in effect?"
    );
}
