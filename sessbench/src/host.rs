//! Host-side plumbing: CPU placement, process counters, and the
//! diagnostics printed beside each run (steal share, calibration loop).
//!
//! Everything here reads Linux interfaces (`sched_*affinity`,
//! `clock_gettime`, `/proc`) directly; nothing in the measured program
//! is touched.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet {
    bits: [u64; 16],
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: `set` is a writable, correctly sized `cpu_set_t`; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024).filter(|&cpu| set.bits[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts the calling thread (and every thread it spawns later) to
/// `cpus`.
///
/// # Errors
///
/// Returns the OS error when the mask is rejected.
pub fn pin_current_thread(cpus: &[usize]) -> std::io::Result<()> {
    let mut set = CpuSet { bits: [0; 16] };
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        set.bits[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a fully initialised `cpu_set_t` of the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Where the daemons and the load generator run.
#[derive(Clone, Debug)]
pub struct Placement {
    pub daemon: Vec<usize>,
    pub generator: Vec<usize>,
}

impl Placement {
    /// Splits the allowed CPUs: the highest one for the single generator
    /// thread, the rest for the daemons. With one CPU both share it.
    pub fn split(allowed: &[usize]) -> Self {
        match allowed.split_last() {
            Some((&last, rest)) if !rest.is_empty() => {
                Self { daemon: rest.to_vec(), generator: vec![last] }
            }
            _ => Self { daemon: allowed.to_vec(), generator: allowed.to_vec() },
        }
    }

    /// Runs `f` on a short-lived thread pinned to the daemon CPUs, so the
    /// threads `f` spawns (accept loops, compute pools, connection
    /// threads) inherit that placement.
    pub fn on_daemon_cpus<T: Send>(&self, f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| {
            s.spawn(|| {
                pin_current_thread(&self.daemon).expect("daemon CPUs come from the allowed set");
                f()
            })
            .join()
            .expect("daemon boot thread panicked")
        })
    }
}

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`; the clock id is a
    // constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM:`); 0 if absent.
fn status_kb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// The process's peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// The process's current resident set (`VmRSS`), in KiB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Bytes this process has caused to be sent to the storage layer
/// (`write_bytes` in `/proc/self/io`): log appends and snapshots,
/// counted in whole pages as the kernel writes them back.
pub fn io_write_bytes() -> u64 {
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Aggregate CPU tick counters from `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn read() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted inside user/nice.
        let total = fields.iter().take(8).sum();
        Self { total, steal: fields.get(7).copied().unwrap_or(0) }
    }

    /// Share of all CPU time stolen by the hypervisor since `earlier`, in
    /// percent.
    pub fn steal_pct_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Rate of a fixed multiply loop on the calling thread, in millions of
/// 64×64→128-bit products per second: a yardstick for how fast this
/// host ran while the benchmark did. Four independent lanes keep the
/// multiplier busy the way the big-integer kernels do, so the rate drops
/// when a co-scheduled thread competes for the same core.
pub fn calibration_mops() -> f64 {
    const ROUNDS: u64 = 4_000_000;
    const K: u128 = 0x9e37_79b9_7f4a_7c15;
    let start = Instant::now();
    let mut lanes = black_box([1u64, 2, 3, 4]);
    for _ in 0..black_box(ROUNDS) {
        for lane in &mut lanes {
            let p = u128::from(*lane) * K;
            *lane = (p as u64) ^ ((p >> 64) as u64);
        }
    }
    black_box(lanes);
    (4 * ROUNDS) as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
