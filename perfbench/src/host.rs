//! Host diagnostics with no repository code on their path: a fixed
//! reference loop, the hypervisor's steal counter, a plain triad, and
//! process peak memory. They record the host's regime beside each run's
//! metrics; nothing rescales a metric by them.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Threads of every threaded call: the daemon's default width on a 2-CPU
/// host, and the width solve-large's library caller runs at.
pub const WIDTH: usize = 2;

/// Median milliseconds of five runs of a fixed loop of dependent integer
/// and floating-point arithmetic on an L1-resident array. CPU-bound and
/// benchmark-owned, so it moves only with the host's CPU speed.
pub fn ref_loop_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = [0.0f64; 256];
            let mut z: u64 = 0x2545_f491_4f6c_dd1d;
            for i in 0..4_000_000usize {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                let k = (z as usize) & 255;
                acc[k] = acc[k] * 0.999_999 + (i & 1023) as f64;
            }
            black_box(&acc);
            1e3 * t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Cumulative CPU time per class (user, nice, system, idle, iowait, irq,
/// softirq, steal, …) from the first line of `/proc/stat`; empty if the
/// file cannot be read.
pub fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace()
                .skip(1)
                .map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Share of all CPU time between two [`cpu_times`] samples that the
/// hypervisor stole; `NaN` when `/proc/stat` is unreadable.
pub fn steal_frac(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().take(8).sum();
    if delta.len() >= 8 && total > 0 {
        delta[7] as f64 / total as f64
    } else {
        f64::NAN
    }
}

/// Plain triad `a = b + s·c` on `WIDTH` scoped threads over three arrays
/// of `len` doubles; GB/s counting 24 bytes per element (two loads, one
/// store). The bandwidth base for `linalg.matvec_bw_frac`.
pub fn triad_gbps(len: usize, reps: usize) -> f64 {
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let chunk = len.div_ceil(WIDTH);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for ((ac, bc), cc) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                            *x = y + 3.0 * z;
                        }
                    });
                }
            });
            black_box(&mut a);
            t.elapsed().as_secs_f64()
        })
        .collect();
    24.0 * len as f64 / median(&times) / 1e9
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `pid` is a number
/// or `"self"`.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// The host's regime over a measurement window: the reference loop before
/// and after it, and steal during it.
pub struct Regime {
    ref_before_ms: f64,
    cpu_before: Vec<u64>,
}

impl Regime {
    pub fn start() -> Self {
        Regime {
            ref_before_ms: ref_loop_ms(),
            cpu_before: cpu_times(),
        }
    }

    /// `host.ref_loop_ms` (mean of before and after) and `host.steal_frac`.
    pub fn finish(self) -> Vec<crate::Metric> {
        let steal = steal_frac(&self.cpu_before, &cpu_times());
        let after = ref_loop_ms();
        vec![
            crate::Metric::new(
                "host.ref_loop_ms",
                0.5 * (self.ref_before_ms + after),
                "ms",
                format!(
                    "(fixed loop: {:.3} ms before the window, {after:.3} ms after)",
                    self.ref_before_ms
                ),
            ),
            crate::Metric::new(
                "host.steal_frac",
                steal,
                "1",
                "(/proc/stat steal ÷ all CPU time over the window)",
            ),
        ]
    }
}
