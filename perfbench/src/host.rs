//! The host a result was measured on.

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The path `rwc_util::simd::fill_normal_pairs` dispatches to on this
/// host: AVX2 when the CPU has it, else SSE2 (always present on x86_64),
/// else the scalar fallback.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// One line naming the host: core count, SIMD path, and the toolchain and
/// source revision the launcher passes in `PERFBENCH_RUSTC` and
/// `PERFBENCH_COMMIT`.
pub fn describe() -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    format!(
        "host: nproc={} simd={} rustc=\"{}\" commit={}",
        nproc(),
        simd_path(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT")
    )
}
