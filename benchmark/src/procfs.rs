//! What the harness reads from `/proc` and the file system instead of
//! linking `libc`: peak RSS, CPU time, disk usage, and the facts about the
//! box that go into the result file.

use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI; reading it properly needs `sysconf`.
const CLK_TCK: f64 = 100.0;

/// CPUs this process may use (1 if that cannot be told).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` (peak resident set) of `pid` in KiB, if the process still has
/// an address space.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB.
pub fn own_peak_rss_mib() -> f64 {
    vm_hwm_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (`0-1`, `0,2-3`).
pub fn cpus_allowed_list() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split_ascii_whitespace().nth(1)?.to_string())
}

/// User and system CPU seconds from a `/proc/<pid>/stat` line: fields
/// `first` and `first + 1`, counted from 1 as in proc(5).
fn stat_seconds(pid: &str, first: usize) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(first - 3);
    let a: f64 = fields.next()?.parse().ok()?;
    let b: f64 = fields.next()?.parse().ok()?;
    Some((a / CLK_TCK, b / CLK_TCK))
}

/// `(user, system)` CPU seconds consumed so far by the live process `pid`.
pub fn cpu_seconds(pid: u32) -> Option<(f64, f64)> {
    stat_seconds(&pid.to_string(), 14)
}

/// `(user, system)` CPU seconds of all children this process has waited
/// for so far (`cutime`, `cstime`).
pub fn waited_children_cpu_seconds() -> (f64, f64) {
    stat_seconds("self", 16).unwrap_or((0.0, 0.0))
}

/// CPU seconds the hypervisor has given to other guests so far, over all
/// CPUs: `steal`, the eighth number of the `cpu` line of `/proc/stat`
/// (0 where the kernel does not report it).
pub fn stolen_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat.lines().next().and_then(|cpu| cpu.split_ascii_whitespace().nth(8));
    steal.and_then(|ticks| ticks.parse::<f64>().ok()).unwrap_or(0.0) / CLK_TCK
}

/// What the file system charges for a directory tree.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskUsage {
    /// Σ `st_blocks × 512` over every file and directory.
    pub bytes: u64,
    /// Inodes (files and directories) in the tree.
    pub inodes: u64,
}

/// Walks `root` without following links.
pub fn disk_usage(root: &Path) -> std::io::Result<DiskUsage> {
    let meta = std::fs::symlink_metadata(root)?;
    let mut usage = DiskUsage { bytes: meta.blocks() * 512, inodes: 1 };
    if meta.is_dir() {
        for entry in std::fs::read_dir(root)? {
            let sub = disk_usage(&entry?.path())?;
            usage.bytes += sub.bytes;
            usage.inodes += sub.inodes;
        }
    }
    Ok(usage)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, point, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

/// Kernel release string.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// Samples the `VmHWM` of short-lived children every millisecond from a
/// side thread. `VmHWM` is itself a high-water mark, so only growth in the
/// child's last millisecond can be missed. Sampling is not free — it cost
/// `cli-backup` 8 % of its throughput on two cores — so it runs on a pass
/// whose timings are not reported.
pub struct RssSampler {
    pid: Arc<AtomicU32>,
    peak_kib: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    /// Starts the sampling thread (idle until [`watch`](Self::watch)).
    pub fn start() -> RssSampler {
        let pid = Arc::new(AtomicU32::new(0));
        let peak_kib = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (p, k, s) = (pid.clone(), peak_kib.clone(), stop.clone());
        let thread = std::thread::spawn(move || {
            // Relaxed throughout: each value stands alone, nothing else is
            // published through it.
            while !s.load(Ordering::Relaxed) {
                let pid = p.load(Ordering::Relaxed);
                if pid != 0 {
                    if let Some(kib) = vm_hwm_kib(pid) {
                        k.fetch_max(kib, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        RssSampler { pid, peak_kib, stop, thread: Some(thread) }
    }

    /// Samples `pid` from now on (`0` pauses sampling).
    pub fn watch(&self, pid: u32) {
        self.pid.store(pid, Ordering::Relaxed);
    }

    /// Stops the thread and returns the largest `VmHWM` seen, in MiB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("rss sampler thread panicked");
        }
        self.peak_kib.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        assert!(own_peak_rss_mib() > 0.0);
        assert!(cpus_allowed_list().is_some_and(|l| l.starts_with(|c: char| c.is_ascii_digit())));
        let (user, sys) = cpu_seconds(std::process::id()).unwrap();
        assert!(user >= 0.0 && sys >= 0.0);
    }

    #[test]
    fn disk_usage_counts_blocks_and_inodes() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-du-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("sub/a"), vec![1u8; 10_000]).unwrap();
        std::fs::write(dir.join("b"), b"x").unwrap();
        let usage = disk_usage(&dir).unwrap();
        assert_eq!(usage.inodes, 4);
        assert!(usage.bytes >= 10_000, "blocks must cover the payload: {usage:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
