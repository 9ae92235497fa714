//! Process measurements read from `/proc` and small helpers shared by
//! the workloads: CPU time, peak resident memory, the thread pool, the
//! git revision and a stable content hash.

use std::fs;
use std::time::Instant;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, 100 on every Linux architecture the benchmark targets).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, including
/// threads that have already exited. 0 where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The monotonic clock every benchmark timing starts from.
pub fn now() -> Instant {
    // lint:allow(D2): benchmark timings are reported as measurements and never reach an output fingerprint
    Instant::now()
}

/// Hardware threads (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// The worker pool an automatic (`threads = 0`) campaign gets.
pub fn auto_pool() -> usize {
    eyeorg_stats::effective_pool(eyeorg_stats::resolve_threads(0))
}

/// The checked-out revision, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// 64-bit FNV-1a of `bytes`, rendered as 16 hex digits: the form every
/// output fingerprint of the benchmark is pinned in.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Median of `v` (mean of the middle two for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    eyeorg_stats::percentile(v, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read() {
        let t = now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv_hex(b""), "cbf29ce484222325");
        assert_ne!(fnv_hex(b"a"), fnv_hex(b"b"));
    }
}
