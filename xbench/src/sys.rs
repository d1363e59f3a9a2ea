//! What the benchmark reads from the machine it runs on: memory counters,
//! core count, tool versions and a scratch directory inside the build tree.

use std::path::PathBuf;
use std::process::Command;

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in megabytes.
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First line of a tool's output, or `"unknown"` when it cannot run (the
/// benchmark also runs in checkouts that are not git repositories).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The scratch directory next to the running executable, so every file the
/// benchmark writes stays inside the (git-ignored) build tree.
pub fn work_root() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let dir = base.join("xbench-work");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A scratch directory of this process alone; its user removes it.
pub fn work_dir() -> std::io::Result<PathBuf> {
    let dir = work_root()?.join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
