//! Host clocks and memory: process CPU time and the resident-set peak.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process (all threads), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes only the timespec it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The process's resident-set high-water mark (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .expect("VmHWM line in /proc/self/status")
}

/// Wall and CPU time of one interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    /// Host wall time, ns.
    pub wall_ns: u64,
    /// Process CPU time summed over threads, ns.
    pub cpu_ns: u64,
}

/// A started interval; see [`Stopwatch::stop`].
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_ns(),
        }
    }

    /// Wall and CPU time since [`Stopwatch::start`].
    pub fn stop(&self) -> Elapsed {
        Elapsed {
            wall_ns: self.wall.elapsed().as_nanos() as u64,
            cpu_ns: process_cpu_ns().saturating_sub(self.cpu),
        }
    }
}
