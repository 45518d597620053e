//! Process-level probes: per-thread CPU time, peak resident memory and the
//! machine stamp every result carries.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    const RUSAGE_SELF: i32 = 0;

    pub fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec for the duration of the
        // call, and CLOCK_THREAD_CPUTIME_ID is supported by every Linux.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }

    pub fn peak_rss_kib() -> u64 {
        let mut ru = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `ru` matches the kernel's 64-bit `struct rusage` layout and
        // is writable for the duration of the call.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        ru.maxrss as u64
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub fn thread_cpu_ns() -> u64 {
        0
    }

    pub fn peak_rss_kib() -> u64 {
        0
    }
}

/// Fix glibc's allocator thresholds for the whole run. By default glibc
/// moves its mmap threshold whenever a large block is freed and trims the
/// heap back to the kernel, so the same allocation is sometimes served from
/// fresh, faulting pages and sometimes not, depending on what ran before.
/// Pinning both makes repeated set-ups and windows cost the same. A no-op
/// off glibc.
pub fn steady_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only adjusts allocator tunables; it is called
        // before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// CPU time the calling thread has consumed (0 where unsupported).
pub fn thread_cpu() -> Duration {
    Duration::from_nanos(sys::thread_cpu_ns())
}

/// The process's resident-memory high-water mark, in MiB.
pub fn peak_rss_mb() -> f64 {
    sys::peak_rss_kib() as f64 / 1024.0
}

/// Seed reserved for confirming a performance claim: tune on any other
/// seed, then check the claim holds on this one.
pub const HELD_OUT_SEED: u64 = 7_777_777;

/// What built and ran a result. Two results are comparable only when their
/// machine shapes (`nproc`, `arch`) match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    pub nproc: usize,
    pub arch: String,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
}

impl Stamp {
    pub fn current(seed: u64) -> Stamp {
        Stamp {
            nproc: nproc(),
            arch: std::env::consts::ARCH.to_string(),
            rustc: env!("H2PERF_RUSTC").to_string(),
            commit: env!("H2PERF_COMMIT").to_string(),
            seed,
        }
    }

    /// `(key, value)` pairs, in a fixed order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("arch", self.arch.clone()),
            ("rustc", self.rustc.clone()),
            ("commit", self.commit.clone()),
            ("seed", self.seed.to_string()),
            ("held_out_seed", HELD_OUT_SEED.to_string()),
        ]
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
