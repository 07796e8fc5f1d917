//! Process CPU and memory probes without a new dependency: `getrusage`
//! through an `extern "C"` declaration (std already links the C library)
//! and `/proc/self` for the resident-set high-water mark. Linux, 64-bit.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Process user and system CPU time, summed over every thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user: Duration,
    pub sys: Duration,
}

impl Cpu {
    pub fn now() -> Self {
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `usage` is a writable, correctly laid-out `struct rusage`
        // that outlives the call; `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
        );
        let tv = |t: &Timeval| Duration::new(t.sec as u64, (t.usec * 1_000) as u32);
        Self {
            user: tv(&usage.utime),
            sys: tv(&usage.stime),
        }
    }

    /// CPU consumed since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }

    pub fn total(self) -> Duration {
        self.user + self.sys
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Returns freed heap pages to the kernel, then resets `VmHWM` to the
/// current RSS, so the next [`peak_rss_mb`] covers only what runs after this
/// call on top of live memory. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` only releases free memory of the C allocator,
    // which Rust's default global allocator uses; it has no preconditions.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
