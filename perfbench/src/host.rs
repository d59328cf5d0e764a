//! Host clocks and placement: process CPU split into user and system time,
//! the calling thread's CPU clock, peak resident memory, and pinning to
//! one CPU.
//!
//! `std` exposes none of these, so they go through the C library that
//! `std` already links (`getrusage`, `clock_gettime`, `sched_*affinity`)
//! or `/proc/self/status`. All are Linux-only.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and needs a 64-bit Linux target");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// The fourteen `long` counters that follow; unused here.
    rest: [i64; 14],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// A `cpu_set_t`: 1,024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU.
///
/// The sim kernel runs one simulated thread at a time, handing off between
/// OS threads. Left to the OS scheduler, each handoff may wake a thread on
/// another CPU, and that wake-up latency depends on what else the machine
/// runs; on one CPU the woken thread runs as soon as the waker parks.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t` of the size passed, and
    // `sched_getaffinity` writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the CPU affinity mask is empty")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of the size passed; the call
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Process CPU seconds, as the kernel accounts them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds: OS thread spawn, park and unpark.
    pub sys: f64,
}

impl Cpu {
    /// User plus system seconds.
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }
}

/// CPU used so far by every thread of this process, live or exited.
pub fn process_cpu() -> Cpu {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a writable, properly aligned `struct rusage` (two
    // `timeval`s followed by fourteen `long`s on 64-bit Linux, checked by
    // the `compile_error!` above), and `getrusage` writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Cpu {
        user: secs(&ru.utime),
        sys: secs(&ru.stime),
    }
}

/// CPU nanoseconds used so far by the calling OS thread. Time the thread
/// spends parked (a simulated thread waiting in virtual time) is excluded.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable, properly aligned `struct timespec` and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux kernel");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host wall and CPU time of one timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpan {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU over the interval.
    pub cpu: Cpu,
}

/// Start of a host-timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: Cpu,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    /// Wall and CPU time since [`Stopwatch::start`].
    pub fn stop(&self) -> HostSpan {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = process_cpu();
        HostSpan {
            wall,
            cpu: Cpu {
                user: cpu.user - self.cpu.user,
                sys: cpu.sys - self.cpu.sys,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let watch = Stopwatch::start();
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        let span = watch.stop();
        assert!(span.wall > 0.0 && span.cpu.total() > 0.0);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
