//! Process CPU time and peak memory, read from Linux `/proc/self`, and
//! pinning the process to one CPU.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included
/// (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// User plus system CPU seconds of the calling thread (10 ms resolution).
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// The `/proc` stat file of the calling thread under a name that stays
/// valid in other threads, for [`stat_cpu_seconds`].
pub fn thread_stat_path() -> PathBuf {
    let task = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self is a link");
    Path::new("/proc").join(task).join("stat")
}

/// User plus system CPU seconds of the process or thread whose `/proc` stat
/// file `path` is (10 ms resolution).
pub fn stat_cpu_seconds(path: impl AsRef<Path>) -> f64 {
    // Fields 14 and 15 of stat(5) are utime and stime.
    let ticks = |field: usize| -> f64 { stat_field(path.as_ref(), field) as f64 };
    (ticks(14) + ticks(15)) / TICKS_PER_SECOND
}

/// Numeric field `field` (numbered as in stat(5), from 3) of a `/proc` stat
/// file.
fn stat_field(path: &Path, field: usize) -> u64 {
    let stat =
        std::fs::read_to_string(path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
    // The command name may hold spaces; the fields after it are plain.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    after_name
        .split_whitespace()
        .nth(field - 3)
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("{}: no numeric field {field}", path.display()))
}

/// Pins every thread of this process, and every thread it starts later, to
/// the CPU the calling thread last ran on, through `taskset`; returns that
/// CPU.
pub fn pin_to_current_cpu() -> Result<u64, String> {
    // Field 39 of stat(5) is the CPU the thread last ran on.
    let cpu = stat_field(Path::new("/proc/thread-self/stat"), 39);
    let status = Command::new("taskset")
        .args([
            "-a",
            "-c",
            "-p",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|err| format!("taskset: {err}"))?;
    if status.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset: {status}"))
    }
}

/// The CPUs the calling thread may run on, from `/proc/thread-self/status`.
#[cfg(test)]
fn allowed_cpus() -> String {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .expect("status lists the allowed CPUs")
        .trim()
        .to_owned()
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before, "{x}");
        let in_thread = std::thread::spawn(|| {
            let (before, start) = (thread_cpu_seconds(), std::time::Instant::now());
            let mut y = 0u64;
            while start.elapsed().as_millis() < 60 {
                y = std::hint::black_box(y.wrapping_mul(31).wrapping_add(7));
            }
            thread_cpu_seconds() - before
        });
        assert!(in_thread.join().unwrap() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pinning_holds_for_threads_started_later() {
        // In a thread of its own, so the test harness's other threads keep
        // their CPUs; `taskset -a` pins them all, so restore them after.
        let before = allowed_cpus();
        let pinned = std::thread::spawn(|| {
            let cpu = pin_to_current_cpu().expect("taskset pins");
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            (cpu, child)
        })
        .join()
        .unwrap();
        assert_eq!(pinned.1, pinned.0.to_string());
        let _ = Command::new("taskset")
            .args(["-a", "-c", "-p", &before, &std::process::id().to_string()])
            .stdout(Stdio::null())
            .status();
    }
}
