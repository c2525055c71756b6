//! Host fingerprint and process memory, read from `/proc`.
//!
//! A number without its host cannot be a baseline, so every result carries
//! the fingerprint. Memory is read from outside the program (`VmRSS`,
//! `VmHWM`): the workspace forbids `unsafe`, so there is no counting
//! allocator.

use std::fmt::Write as _;
use std::process::Command;

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `MemTotal`, MiB.
    pub mem_total_mib: u64,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown` outside
    /// a git checkout.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// `Par` worker threads.
    pub threads: usize,
}

impl Fingerprint {
    /// Reads the fingerprint of this host.
    pub fn read(seed: u64, threads: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: nproc(),
            mem_total_mib: proc_kib("/proc/meminfo", "MemTotal:").unwrap_or(0) / 1024,
            cpu,
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
            threads,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"nproc\": {}, \"mem_total_mib\": {}, \"cpu\": {}, \"rustc\": {}, \
             \"commit\": {}, \"seed\": {}, \"threads\": {}",
            self.nproc,
            self.mem_total_mib,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit),
            self.seed,
            self.threads
        );
        s.push('}');
        s
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Current resident set, MiB.
pub fn rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmRSS:").unwrap_or(0) as f64 / 1024.0
}

/// Peak resident set so far, MiB.
pub fn hwm_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// A `key:   N kB` field of a `/proc` file.
fn proc_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// First line of a command's standard output, or `unknown`. Waits for the
/// command to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
