//! Host and process readings from `/proc`: CPU time, peak memory,
//! steal time, and a fixed reference loop that shows host drift.
//!
//! These are printed beside the metrics. They never filter or rescale
//! a run.

use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100
/// on every Linux ABI the workspace targets).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time (user + system) of process `pid`, in milliseconds.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1e3 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-wide CPU steal time so far, in jiffies (`/proc/stat`).
pub fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Runs a fixed deterministic integer loop and returns its time in ms.
/// The same work on every run, so its time tracks host speed.
pub fn reference_loop_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc: u64 = 0;
    for _ in 0..40_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// What the run records about its host.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// Cores available to the process.
    pub nproc: usize,
    /// The solver's active columnar kernel path.
    pub kernel_path: &'static str,
    /// Reference loop time just before the workload (ms).
    pub reference_ms: f64,
    /// Steal jiffies at the start of the workload.
    steal_start: Option<u64>,
}

impl HostRecord {
    /// Takes the pre-workload readings.
    pub fn start() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            kernel_path: lpvs_core::kernels::active_path().name(),
            reference_ms: reference_loop_ms(),
            steal_start: steal_jiffies(),
        }
    }

    /// One printable line, with the steal time accrued since `start`.
    pub fn line(&self) -> String {
        let steal = match (self.steal_start, steal_jiffies()) {
            (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
            _ => "unavailable".to_owned(),
        };
        format!(
            "host: nproc={} kernel_path={} reference_loop_ms={:.3} steal_jiffies={}",
            self.nproc, self.kernel_path, self.reference_ms, steal
        )
    }
}
