//! Facts about the host and this process: core count, resident memory.

use std::time::Duration;

/// Cores this process may run on (`nproc`); at least 1.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resident-set size of this process in bytes; 0 where procfs is
/// missing. Read from the `VmRSS` line of `/proc/self/status`, which is
/// the same counter as the `resident` field of `/proc/self/statm` but in
/// kB, so no page-size lookup is needed.
pub fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Microseconds as `f64`.
pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Cumulative CPU time, in clock ticks, that the hypervisor gave to other
/// guests while this machine's vCPUs were runnable (the `steal` column of
/// `/proc/stat`), and the total of all columns; `(0, 0)` where procfs is
/// missing.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(cpu) = stat.lines().find_map(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}
