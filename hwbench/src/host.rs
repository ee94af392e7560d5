//! The host's speed, measured beside the work, so that a reported time is
//! a property of the code and not of whatever else the machine was doing.
//!
//! On the shared box this benchmark is written for, a virtual CPU runs in
//! one of two states that alternate every few seconds and, some hours,
//! stay put for minutes: undisturbed, or next to a busy hyperthread. The
//! second makes everything but a bare register loop slower by a steady
//! factor — thread spawns by 1.45, loopback TCP by 1.6, allocation and
//! hashing by 1.6, bare syscalls by 1.35 — and the whole latency
//! distribution of a query shifts with it. No rank statistic over rounds
//! removes a state that can last longer than an invocation.
//!
//! So the benchmark runs a fixed piece of work of its own, the *probe*,
//! before and after every slice of measured work (a few hundred
//! milliseconds), and divides the slice's times by how much slower than
//! undisturbed the probe ran: the [`Probe::slowdown`]. The probe is a mix
//! of the four kinds of work the system under test does — allocation and
//! hashing, system calls, loopback connections, thread spawns — in equal
//! parts, and it calls nothing of the system under test, so a change to
//! the system moves the measured times and not the yardstick.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

use crate::stats::{median, percentile_sorted, sort};

/// What a reading of the probe is on an undisturbed virtual CPU of the
/// reference box (2 vCPUs of an Intel Xeon at 2.1 GHz under Firecracker,
/// kernel 6.18, rustc 1.95): the quietest seconds of `hwbench probe` read
/// 496–510 there. Every time the benchmark reports is scaled to this
/// speed. On another machine the constant is wrong by
/// a fixed factor, which shifts every reported time alike and leaves
/// comparisons on that machine intact; `hwbench probe` prints the value
/// to put here.
pub const UNDISTURBED_PROBE_US: f64 = 500.0;

/// Passes per reading; the reading is the fastest. A pass takes half a
/// millisecond and the host's states last seconds, so the fastest of
/// three is the state's own speed without the odd timer interrupt.
const PASSES: usize = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to one of the CPUs it may run on (the last one). The probe can only
/// speak for the CPU it runs on, and two virtual CPUs change state
/// independently, so the work and the probe share one. Returns the CPU,
/// or `None` where the call is unavailable and the run stays unpinned.
pub fn pin_to_one_cpu() -> Option<u32> {
    let mut allowed = 0u64;
    // SAFETY: both calls read or write exactly the 8 bytes of the `u64`
    // passed, as the size argument says; pid 0 is the calling thread.
    let got = unsafe { sched_getaffinity(0, 8, &mut allowed) };
    if got != 0 || allowed == 0 {
        return None;
    }
    let cpu = 63 - allowed.leading_zeros();
    let one = 1u64 << cpu;
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, 8, &one) } == 0).then_some(cpu)
}

/// The benchmark's own yardstick work, and the listener it connects to.
pub struct Probe {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Probe {
    /// Binds the probe's loopback listener.
    pub fn new() -> Result<Probe, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("probe listener: {e}"))?;
        Ok(Probe { listener, addr })
    }

    /// One pass: the four kinds of work, each about a quarter of the time.
    fn pass(&self) -> std::io::Result<()> {
        // Allocation, formatting and hashing in user space.
        for k in 0..18 {
            let words: Vec<String> = (0..50).map(|j| format!("w{k}x{j}")).collect();
            let mut index = HashMap::new();
            for (j, w) in words.iter().enumerate() {
                index.insert(w.as_str(), j);
            }
            std::hint::black_box(index.len());
        }
        // Bare system calls.
        for _ in 0..550 {
            std::thread::yield_now();
        }
        // Loopback connections: connect, write, accept, read to the end.
        for _ in 0..6 {
            let mut out = TcpStream::connect(self.addr)?;
            out.write_all(b"hwbench probe frame 0123456789")?;
            let (mut conn, _) = self.listener.accept()?;
            drop(out);
            let mut frame = Vec::new();
            conn.read_to_end(&mut frame)?;
            std::hint::black_box(frame.len());
        }
        // Thread spawn and join.
        for _ in 0..8 {
            std::thread::Builder::new()
                .spawn(|| {})?
                .join()
                .expect("empty thread does not panic");
        }
        Ok(())
    }

    /// The fastest of [`PASSES`] passes, µs.
    pub fn reading_us(&self) -> f64 {
        (0..PASSES)
            .map(|_| {
                let t0 = Instant::now();
                self.pass().expect("loopback probe");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// How many times slower than undisturbed the host is right now.
    pub fn slowdown(&self) -> f64 {
        self.reading_us() / UNDISTURBED_PROBE_US
    }
}

/// `hwbench probe <seconds>`: takes readings back to back and prints the
/// median of every second and, at the end, the lowest of those medians —
/// the value of [`UNDISTURBED_PROBE_US`] for the machine it ran on,
/// provided the machine was left alone for one second of the run.
pub fn main(args: &[String]) -> Result<(), String> {
    let seconds: u64 = args
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|s| *s >= 1)
        .ok_or("usage: hwbench probe <seconds>")?;
    let cpu = pin_to_one_cpu();
    let probe = Probe::new()?;
    let start = Instant::now();
    let mut medians = Vec::new();
    for second in 0..seconds {
        let mut readings = Vec::new();
        while start.elapsed().as_secs() <= second {
            readings.push(probe.reading_us());
        }
        let m = median(&readings);
        println!("{second:4} s  {m:7.1} us");
        medians.push(m);
    }
    sort(&mut medians);
    println!(
        "cpu {cpu:?}: quietest second {:.1} us, median second {:.1} us (UNDISTURBED_PROBE_US = {UNDISTURBED_PROBE_US})",
        medians[0],
        percentile_sorted(&medians, 0.50),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_a_plausible_time_and_pinning_holds() {
        let cpu = pin_to_one_cpu();
        let probe = Probe::new().unwrap();
        let us = probe.reading_us();
        assert!(us > 20.0 && us < 1e6, "{us} us");
        if let Some(cpu) = cpu {
            let mut now = 0u64;
            // SAFETY: reads the 8 bytes of `now`.
            assert_eq!(unsafe { sched_getaffinity(0, 8, &mut now) }, 0);
            assert_eq!(now, 1 << cpu);
        }
    }
}
