//! CPU time of this process, summed over all its threads.
//!
//! The benchmark's host-side end-to-end metrics are CPU seconds, not
//! wall seconds. The reference host is a 2-vCPU virtual machine whose
//! hypervisor steals 10-40% of the time while neighbours are busy: over
//! two sets of ten runs of identical code the median wall seconds per
//! recon scan moved by 33%, which no bound can absorb. Stolen time is
//! not charged to the process, so its CPU time moved by a few percent.

/// CPU seconds this process has used so far, over all threads,
/// including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    }
    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec (two C longs, as on every
    // 64-bit Linux target) for the duration of the call, and the clock id
    // is valid on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > t0, "{x}");
    }
}
