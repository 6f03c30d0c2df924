//! What the host tells us: CPU time, peak memory, load, and the
//! environment header every result file starts with.

use crate::json::Value;
use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second. `/proc/self/stat` counts in
/// `sysconf(_SC_CLK_TCK)` units, which is 100 on every Linux this runs
/// on; the standard library has no `sysconf`, so it is a constant.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime, in clock ticks, from the text of `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself
/// hold spaces and parentheses, so fields are counted from the *last*
/// `)`: utime and stime are the 12th and 13th fields after it.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// User + system CPU seconds this process (all threads) has used, where
/// `/proc` exposes them.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_S)
}

/// Wall and CPU time of one measured region.
pub struct Clock {
    wall: Instant,
    cpu: Option<f64>,
}

impl Clock {
    /// Start timing.
    pub fn start() -> Self {
        Self {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since [`Clock::start`]. Where `/proc` is absent
    /// CPU time falls back to wall time, as `engine_bench` does.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_since(self.cpu, cpu_seconds(), wall))
    }
}

/// CPU seconds between two readings, or `wall` when either is missing.
pub fn cpu_since(start: Option<f64>, end: Option<f64>, wall: f64) -> f64 {
    match (start, end) {
        (Some(a), Some(b)) => b - a,
        _ => wall,
    }
}

/// Peak resident set (`VmHWM`) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MB (0 where `/proc` is
/// absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a pass ran in. Every result file starts with it.
pub struct Env {
    /// Hardware threads.
    pub nproc: usize,
    /// `/proc/loadavg` when the pass started.
    pub loadavg: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
}

impl Env {
    /// Read the environment now.
    pub fn capture(seed: u64) -> Self {
        Self {
            nproc: nproc(),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: first_line_of(Command::new("rustc").arg("--version")),
            commit: first_line_of(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(env!("CARGO_MANIFEST_DIR")),
            ),
            seed,
        }
    }

    /// The 1-minute load average, when it parses.
    pub fn load1(&self) -> Option<f64> {
        self.loadavg.split_ascii_whitespace().next()?.parse().ok()
    }

    /// A warning when other work is likely to disturb the timings: the
    /// 1-minute load average exceeds half the hardware threads.
    pub fn load_warning(&self) -> Option<String> {
        let load = self.load1()?;
        (load > self.nproc as f64 / 2.0).then(|| {
            format!(
                "warning: 1-minute load average {load} exceeds nproc/2 = {}; timings will be noisy",
                self.nproc as f64 / 2.0
            )
        })
    }

    /// The header object of a result file.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("nproc", Value::from(self.nproc as u64)),
            ("loadavg", Value::from(self.loadavg.as_str())),
            ("rustc", Value::from(self.rustc.as_str())),
            ("commit", Value::from(self.commit.as_str())),
            ("seed", Value::from(self.seed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_comm() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "4242 (ofar perf) (x) R 1 2 3 4 5 6 7 8 9 10 1234 56 0 0 20 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1290));
        let plain = "1 (init) S 0 1 1 0 -1 4194560 100 200 3 4 17 5 0 0";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(22));
    }

    #[test]
    fn stat_parser_rejects_short_or_garbled_text() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        let bad = "1 (x) R 1 2 3 4 5 6 7 8 9 10 abc 5";
        assert_eq!(parse_stat_cpu_ticks(bad), None);
    }

    #[test]
    fn cpu_time_falls_back_to_wall_without_proc() {
        assert_eq!(cpu_since(None, None, 1.5), 1.5);
        assert_eq!(cpu_since(Some(1.0), None, 1.5), 1.5);
        assert_eq!(cpu_since(Some(1.0), Some(3.25), 1.5), 2.25);
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn load_warning_fires_above_half_the_cores() {
        let mut env = Env {
            nproc: 2,
            loadavg: "0.34 0.54 0.45 2/85 6099".to_string(),
            rustc: String::new(),
            commit: String::new(),
            seed: 1,
        };
        assert_eq!(env.load1(), Some(0.34));
        assert!(env.load_warning().is_none());
        env.loadavg = "1.50 0.54 0.45 2/85 6099".to_string();
        assert!(env.load_warning().unwrap().contains("1.5"));
        env.loadavg = "unknown".to_string();
        assert!(env.load_warning().is_none());
    }
}
