//! Process and host facts: peak memory and CPU time from `/proc`, the
//! run's environment record, and the output digest.

use std::process::Command;

/// FNV-1a 64 of `bytes`, as 16 hex digits: the digest every output is
/// checked by.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn status_field(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_field(pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// User + system CPU time of process `pid`, in seconds (all threads).
#[must_use]
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Keep git from searching above the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit under test, or `unknown` outside a git checkout.
#[must_use]
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// `rustc -V` of the toolchain that built the benchmark.
#[must_use]
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn own_process_reports_memory_and_cpu() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(cpu_seconds("self").unwrap() >= 0.0);
    }
}
