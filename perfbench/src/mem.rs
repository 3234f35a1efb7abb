//! This process's memory: its peak resident set size, and the freed
//! heap it hands back to the OS between scans.

/// Reset this process's peak resident set size (VmHWM) to its current
/// size, so the next workload's `peak_rss_mb` is its own.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Return freed heap pages to the OS. Each harness-scale driver
/// allocates about 1 GB; without this, glibc keeps the freed pages
/// resident in fragments, and a stream's peak RSS grew from 1.4 GB to
/// 2.1 GB over two passes, by an amount that differed from run to run.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointer and only releases
        // free heap memory; it is safe to call at any time from any
        // thread.
        unsafe {
            malloc_trim(0);
        }
    }
}
