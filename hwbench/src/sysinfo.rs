//! Readers for the kernel's accounting: process CPU, peak RSS, hypervisor
//! steal, TIME_WAIT sockets, and the machine fingerprint that every
//! result file carries so a disturbed run is visible afterwards.

use std::fs;
use std::process::Command;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/*/stat` times. Fixed at 100
/// on every Linux architecture Rust supports (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// The C library's `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPU_CLOCK: i32 = 2;

/// Process user+system CPU so far, in milliseconds, summed over every
/// thread alive or reaped: the process CPU clock, which is the total of
/// `/proc/self/stat` fields 14 and 15 to the nanosecond where that file
/// counts in 10 ms ticks — a slice of measured work is 200 ms.
pub fn process_cpu_ms() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut now) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    now.tv_sec as f64 * 1e3 + now.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hypervisor steal time summed over all CPUs, in milliseconds
/// (`/proc/stat`, first line, eighth value).
pub fn steal_ms() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse::<f64>().ok())
        .map_or(0.0, |t| t * 1000.0 / TICKS_PER_S)
}

/// Sockets in TIME_WAIT (state `06`) in this network namespace.
pub fn time_wait_sockets() -> u64 {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| fs::read_to_string(p).ok())
        .map(|t| {
            t.lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count() as u64
        })
        .sum()
}

/// Spins one core for `d`, so that timing starts on a core already at
/// speed and not on its wake-up ramp.
pub fn busy_spin(d: Duration) {
    let t0 = Instant::now();
    let mut x = 0u64;
    while t0.elapsed() < d {
        for i in 0..1000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
    }
    std::hint::black_box(x);
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_owned()))
        .unwrap_or_default()
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` of the first CPU.
    pub cpu_model: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl Fingerprint {
    /// Collects the fingerprint; every field degrades to a placeholder
    /// rather than failing the run.
    pub fn collect() -> Fingerprint {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_owned(), |(_, v)| v.trim().to_owned());
        let or_unknown = |s: String| {
            if s.is_empty() {
                "unknown".to_owned()
            } else {
                s
            }
        };
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: or_unknown(
                fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim()
                    .to_owned(),
            ),
            rustc: or_unknown(first_line_of("rustc", &["--version"])),
            // Only ask git inside a git checkout: elsewhere it would walk
            // up into directories that are not ours to read.
            git_commit: or_unknown(if std::path::Path::new(".git").exists() {
                first_line_of("git", &["rev-parse", "HEAD"])
            } else {
                String::new()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_ms();
        busy_spin(Duration::from_millis(60));
        let after = process_cpu_ms();
        assert!(after - before >= 30.0, "spun 60 ms, saw {}", after - before);
    }

    #[test]
    fn rss_and_fingerprint_are_populated() {
        assert!(peak_rss_mb() > 0.5);
        let fp = Fingerprint::collect();
        assert!(fp.nproc >= 1);
        assert!(!fp.kernel.is_empty());
    }
}
