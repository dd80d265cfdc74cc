//! Plumbing shared by the workloads: the scratch directory, running the
//! shipped `mhd` binary, and the `mhd serve` subprocess.
//!
//! Every path is relative to the current directory, which `run.sh` makes
//! the root of the checkout: the scratch directory stays inside the
//! checkout, and the daemon's socket path stays well under the 108 bytes
//! a Unix socket address can hold however deep the checkout sits.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use mhd_daemon::Client;

use crate::procfs;

/// Harness error: anything that stops a run from producing a result.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
/// Harness result.
pub type Result<T> = std::result::Result<T, Error>;

/// Directory that holds everything the benchmark writes.
pub const OUT_DIR: &str = "benchmark/out";

/// What a run needs to reach the program under test.
pub struct Env {
    /// The shipped `mhd` binary, built from this checkout.
    pub mhd: PathBuf,
    /// Scratch directory of this run; removed when the run ends.
    pub work: WorkDir,
}

/// A scratch directory under [`OUT_DIR`], removed on drop.
pub struct WorkDir(PathBuf, std::sync::atomic::AtomicU32);

impl WorkDir {
    /// Creates `benchmark/out/w<pid>` afresh, in a part of the file system
    /// no earlier run has used.
    ///
    /// A run deletes its scratch directory — tens of thousands of inodes —
    /// when it ends, and the next run starts within a second. ext4 does not
    /// hand a freed inode out again for 60 s (360 s while its inode-table
    /// block is dirty; `recently_deleted()` in `fs/ext4/ialloc.c`), and
    /// every file creation in that block group scans past each such inode:
    /// measured here, 6000 creations next to 12000 inodes deleted six
    /// seconds earlier take 1.5 s instead of 0.15 s, and `daemon-serial`
    /// ran at 38 MiB/s after a few back-to-back runs against 55 after ten
    /// idle minutes. New directories land in their parent's block group —
    /// unless the parent carries the `T` attribute ("top of a directory
    /// hierarchy"), which makes ext4 place each one in a group of its own
    /// choosing, away from the last run's remains. Where `chattr` or the
    /// attribute is missing, results depend on what was deleted in the
    /// minutes before.
    pub fn create() -> Result<WorkDir> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let spread = Command::new("chattr").args(["+T", OUT_DIR]).stdin(Stdio::null()).output();
        if !spread.is_ok_and(|out| out.status.success()) {
            eprintln!("note: chattr +T {OUT_DIR} failed; timings may depend on earlier runs");
        }
        let dir = Path::new(OUT_DIR).join(format!("w{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // The last run's scratch directory went a moment ago: have its
        // deletion committed (and, on a `discard` mount, its blocks
        // trimmed) before this run's first set-up is timed.
        quiesce();
        Ok(WorkDir(dir, std::sync::atomic::AtomicU32::new(0)))
    }

    /// A path inside the scratch directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// A path inside the scratch directory that nothing has used yet:
    /// `<name>-<n>`. Nothing is deleted before the run ends: deleting a
    /// pass's store would slow the next pass's file creation down, for the
    /// reason given at [`WorkDir::create`].
    pub fn unused(&self, name: &str) -> PathBuf {
        // Relaxed: the counter only has to hand out distinct numbers.
        let n = self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.0.join(format!("{name}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes out what earlier passes left dirty (`sync -f` on [`OUT_DIR`]'s
/// file system). Called, untimed, before every pass that writes a store.
///
/// Stores are written without `fsync` (`--durability rename`), so a pass
/// leaves some 40 MiB of dirty pages and a journal transaction behind. The
/// kernel writes them out when it sees fit — the flusher every 5 s, pages
/// older than 30 s, the journal every 5 s — on a core the next passes need:
/// `cli-backup` passes of one run took 1.36 to 1.93 s, slow ones in step
/// with the flusher, and ten runs spread 20 %. With each pass starting from
/// a clean file system they took 1.25 to 1.50 s (the sync itself 20 ms),
/// and ten runs spread 6 %. A pass is charged for what it does, not for
/// what the passes before it left behind.
pub fn quiesce() {
    let synced = Command::new("sync").args(["-f", OUT_DIR]).stdin(Stdio::null()).status();
    if !synced.is_ok_and(|status| status.success()) {
        eprintln!("note: sync -f {OUT_DIR} failed; passes compete with earlier passes' writeback");
    }
}

impl Env {
    /// `mhd <args>` with stdout discarded and stderr appended to the
    /// run's log, ready to spawn.
    pub fn mhd_command(&self, args: &[&str]) -> Result<Command> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.work.join("mhd.log"))
            .map_err(|e| format!("open mhd.log: {e}"))?;
        let mut cmd = Command::new(&self.mhd);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::from(log));
        Ok(cmd)
    }

    /// Runs `mhd <args>` to completion and returns its captured output.
    pub fn mhd_output(&self, args: &[&str]) -> Result<Output> {
        Command::new(&self.mhd)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("run {} {args:?}: {e}", self.mhd.display()).into())
    }
}

/// While it lives, this process and the daemon it was given run on one CPU.
///
/// A `RESTORE` round trip is a ping-pong between a client thread and a
/// daemon thread, a quarter of a millisecond per 256 KiB file. When the two
/// sit on different vCPUs every hand-over wakes a halted vCPU, which on
/// this VM costs a trip through the hypervisor, and the kernel moves the
/// threads together and apart as it pleases: one connection restored at
/// 1440 MiB/s for sixteen passes and at 900 for the next thirty, and ten
/// runs of `restore` spread 24 %. On one CPU the same passes stay within
/// ±4 %. Only the restore phases are pinned — backups need both CPUs.
pub struct OneCpu {
    /// `Cpus_allowed_list` to give back to this process, if pinning worked.
    was: Option<String>,
}

/// `taskset -a -p -c <cpus> <pid>`: every thread of `pid` onto `cpus`.
fn set_affinity(pid: u32, cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &pid.to_string()])
        .stdin(Stdio::null())
        .output()
        .is_ok_and(|out| out.status.success())
}

impl OneCpu {
    /// Pins this process and `daemon` to the first CPU this process may
    /// use. Without `taskset` the run goes on unpinned, and says so.
    pub fn pin(daemon: &DaemonProc) -> OneCpu {
        let was = procfs::cpus_allowed_list();
        let list = was.as_deref().unwrap_or_default();
        let first: String = list.chars().take_while(char::is_ascii_digit).collect();
        let pinned = !first.is_empty()
            && set_affinity(std::process::id(), &first)
            && daemon.child.as_ref().is_some_and(|child| set_affinity(child.id(), &first));
        if !pinned {
            eprintln!("note: taskset failed; restores run unpinned and will be noisier");
        }
        OneCpu { was: was.filter(|_| pinned) }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(was) = &self.was {
            set_affinity(std::process::id(), was);
        }
    }
}

/// What a finished subprocess used.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcUsage {
    /// Peak resident set (`VmHWM`), MiB.
    pub peak_rss_mib: f64,
    /// User CPU seconds.
    pub cpu_user_s: f64,
    /// System CPU seconds.
    pub cpu_sys_s: f64,
}

/// A running `mhd serve` subprocess. Dropping it without
/// [`stop`](DaemonProc::stop) kills and reaps the process.
pub struct DaemonProc {
    child: Option<Child>,
    socket: PathBuf,
    /// Seconds from spawn to the first answered `PING`: store open,
    /// recovery, state import and index preload.
    pub open_s: f64,
}

impl DaemonProc {
    /// Starts `mhd serve` at shipped defaults on `store` and waits until it
    /// answers.
    pub fn spawn(env: &Env, store: &Path) -> Result<DaemonProc> {
        let socket = env.work.join("s");
        let _ = std::fs::remove_file(&socket);
        let start = Instant::now();
        let child = env
            .mhd_command(&[
                "serve",
                "--store",
                &store.to_string_lossy(),
                "--socket",
                &socket.to_string_lossy(),
            ])?
            .spawn()
            .map_err(|e| format!("spawn mhd serve: {e}"))?;
        let mut daemon = DaemonProc { child: Some(child), socket, open_s: 0.0 };
        loop {
            if let Ok(mut client) = Client::connect(&daemon.socket) {
                if client.ping().is_ok() {
                    break;
                }
            }
            let child = daemon.child.as_mut().expect("child is present until stop");
            if let Some(status) = child.try_wait()? {
                daemon.child = None;
                return Err(format!("mhd serve exited early: {status}").into());
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err("mhd serve did not answer within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.open_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// A new connection to the daemon.
    pub fn client(&self) -> Result<Client> {
        Ok(Client::connect(&self.socket)?)
    }

    /// Reads the daemon's peak RSS and CPU time, sends `SHUTDOWN` and waits
    /// for a clean exit.
    pub fn stop(mut self) -> Result<ProcUsage> {
        let mut child = self.child.take().expect("child is present until stop");
        let pid = child.id();
        let (cpu_user_s, cpu_sys_s) = procfs::cpu_seconds(pid).unwrap_or_default();
        let peak_rss_mib = procfs::vm_hwm_kib(pid).unwrap_or(0) as f64 / 1024.0;
        let asked = self.client().and_then(|mut c| Ok(c.shutdown()?));
        if asked.is_err() {
            let _ = child.kill();
        }
        let status = child.wait()?;
        asked?;
        if !status.success() {
            return Err(format!("mhd serve exited with {status}").into());
        }
        Ok(ProcUsage { peak_rss_mib, cpu_user_s, cpu_sys_s })
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
