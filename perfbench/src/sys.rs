//! Process probes read from the operating system (Linux): CPU time of
//! every thread, the current thread count and peak resident memory.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by all threads of this process, with
/// nanosecond resolution (the tick-based `/proc` counters are too coarse
/// for per-pass figures).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout, and the clock id is one the kernel always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below one second"),
    )
}

/// A numeric field of `/proc/self/status` (`Threads:`, `VmHWM:` in kB).
fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(name))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Threads in this process, if the OS reports them.
pub fn threads() -> Option<u64> {
    status_field("Threads:")
}

/// Peak resident set size so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb as f64 / 1024.0)
}
