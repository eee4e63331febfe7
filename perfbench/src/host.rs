//! Process-level measurements the engine does not export: CPU time,
//! peak resident memory and the host's visible cores.

/// Seconds of CPU time (user + system, all threads) this process has
/// used so far, from `getrusage(RUSAGE_SELF)`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen
    /// `long` counters this benchmark does not read.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the kernel's
    // `struct rusage` on this target, and `getrusage` writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// CPU time is only read through the Linux `getrusage` layout; other
/// targets report NaN rather than a wrong number.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    f64::NAN
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or NaN where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn visible_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Returns the allocator's free memory to the kernel, so that a timed
/// setup starts from the same heap state whatever ran before it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // heap memory; glibc allows it at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep their own state; nothing to trim.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}
