//! The shipped `mhd` binary as a shell uses it: output into a pipe its
//! reader closes early, and one writer per store — a second `mhd backup`,
//! or an `mhd backup` beside `mhd serve`, is refused naming the holder.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

use mhd_chunking::ChunkerKind;
use mhd_core::statefile::{self, StoreMeta};
use mhd_store::IoConfig;
use mhd_workload::Rng;

fn mhd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mhd"))
}

fn run(args: &[&str]) -> Output {
    mhd().args(args).output().expect("run mhd")
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhd-cli-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A source directory of one `len`-byte file of seeded bytes.
fn source(root: &Path, name: &str, len: usize, seed: u64) -> PathBuf {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("disk.img"), Rng::new(seed).bytes(len)).unwrap();
    dir
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn backup(src: &Path, store: &Path, label: &str) -> Output {
    run(&["backup", src.to_str().unwrap(), "--store", store.to_str().unwrap(), "--label", label])
}

fn assert_ok(out: &Output, what: &str) {
    assert!(out.status.success(), "{what}: {}\n{}", text(&out.stdout), text(&out.stderr));
}

/// The refusal a second writer gets: the store and the holder's pid.
fn assert_refused(out: &Output, store: &Path, holder: u32) {
    let want = format!("store {} is open for writes by pid {holder}", store.display());
    assert!(!out.status.success() && text(&out.stderr).contains(&want), "{}", text(&out.stderr));
}

/// `stream` restores byte-exactly from `store`.
fn assert_restores(store: &Path, stream: &str, src: &Path, scratch: &Path) {
    let out = scratch.join("restored.img");
    let name = format!("{stream}/disk.img");
    let args = ["restore", &name, "--store", store.to_str().unwrap(), "-o", out.to_str().unwrap()];
    assert_ok(&run(&args), &name);
    assert!(std::fs::read(&out).unwrap() == std::fs::read(src.join("disk.img")).unwrap());
}

/// Every verb prints through one helper that ends quietly when its
/// reader has gone: with the read end closed before the first byte is
/// written, the verb still exits 0, without a panic.
#[test]
fn output_into_a_closed_pipe_ends_quietly() {
    let root = temp_root("pipe");
    let src = source(&root, "src", 200_000, 1);
    let store = root.join("store");
    assert_ok(&backup(&src, &store, "s"), "backup");
    let store = store.to_str().unwrap();
    for args in [
        &["stats", "--store", store, "--internals"][..],
        &["stats", "--store", store, "--internals", "--pretty"],
        &["stats", "--store", store],
        &["ls", "--store", store],
        &["fsck", "--store", store],
    ] {
        let mut child = mhd().args(args).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn();
        let child = child.as_mut().expect("spawn mhd");
        drop(child.stdout.take());
        let status = child.wait().unwrap();
        let mut stderr = String::new();
        std::io::Read::read_to_string(child.stderr.as_mut().unwrap(), &mut stderr).unwrap();
        assert!(status.success(), "{args:?}: {status}: {stderr}");
        assert!(!stderr.contains("panicked") && stderr.is_empty(), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A store one writer holds refuses `mhd backup` at once, naming the
/// store and the holder's pid; the holder then commits, and the store is
/// sound.
#[test]
fn a_second_writer_is_refused_by_name() {
    let root = temp_root("held");
    let (src, store) = (source(&root, "src", 100_000, 2), root.join("store"));
    let meta = StoreMeta { ecs: 4096, sd: 16, streams: 0, chunker: ChunkerKind::default() };
    let mut held = statefile::open_write(&store, meta, IoConfig::default(), |b| b).unwrap();

    assert_refused(&backup(&src, &store, "s"), &store, std::process::id());
    held.commit().unwrap();
    drop(held);
    assert_ok(&backup(&src, &store, "s"), "backup once the lock is free");
    assert_ok(&run(&["fsck", "--store", store.to_str().unwrap(), "--deep"]), "fsck");
    assert_restores(&store, "s-0", &src, &root);
    std::fs::remove_dir_all(&root).unwrap();
}

/// `--io-threads` and `--durability` are input from outside the program:
/// a thread count above the limit and a level other than `rename|fsync`
/// are refused by name, the first before any thread is started. A backup
/// the flags allow writes no `intent/` directory.
#[test]
fn out_of_range_io_flags_are_refused() {
    let root = temp_root("io-flags");
    let (src, store) = (source(&root, "src", 100_000, 5), root.join("store"));
    let (src_arg, store_arg) = (src.to_str().unwrap(), store.to_str().unwrap());
    let with = |flag: &str, value: &str| {
        run(&["backup", src_arg, "--store", store_arg, "--label", "s", flag, value])
    };

    // Refused before any thread is spawned, and before anything is made:
    // no store skeleton that `fsck` and `ls` would then call "not an mhd
    // store".
    for threads in ["65", "100000"] {
        let out = with("--io-threads", threads);
        let want = format!("{threads} I/O threads asked for; the limit is 64");
        assert!(
            !out.status.success() && text(&out.stderr).contains(&want),
            "{}",
            text(&out.stderr)
        );
        assert!(!store.exists(), "a refused thread count left {}", store.display());
    }

    let out = with("--durability", "none");
    let want = "unknown durability level \"none\" (rename|fsync)";
    assert!(!out.status.success() && text(&out.stderr).contains(want), "{}", text(&out.stderr));

    for level in ["rename", "fsync"] {
        assert_ok(&with("--durability", level), level);
    }
    assert!(!store.join("intent").exists(), "a backup writes no intent/");
    assert_ok(&run(&["fsck", "--store", store_arg, "--deep"]), "fsck");
    assert_restores(&store, "s-0", &src, &root);
    assert_restores(&store, "s-1", &src, &root);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Two `mhd backup` processes started together on one store: each either
/// commits or is refused by name, never both at once, and the store that
/// results is sound and restores what was committed.
#[test]
fn two_backups_at_once_leave_a_sound_store() {
    let root = temp_root("pair");
    let store = root.join("store");
    let sources = [source(&root, "a", 4 << 20, 3), source(&root, "b", 4 << 20, 4)];
    let spawn = |src: &Path, label: &str| -> Child {
        let store = store.to_str().unwrap();
        mhd()
            .args(["backup", src.to_str().unwrap(), "--store", store, "--label", label])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let children = [spawn(&sources[0], "a"), spawn(&sources[1], "b")];
    let pids = children.each_ref().map(Child::id);
    let outputs = children.map(|c| c.wait_with_output().unwrap());
    // A refused one names the other's pid, unless it read the lock file
    // in the moment between the other taking the lock and writing it.
    let mut committed = Vec::new();
    for (i, out) in outputs.iter().enumerate() {
        if out.status.success() {
            committed.push(i);
            continue;
        }
        let by = format!("store {} is open for writes by ", store.display());
        let stderr = text(&out.stderr);
        let holder = ["pid ".to_string() + &pids[1 - i].to_string(), "another process".into()];
        assert!(holder.iter().any(|h| stderr.contains(&(by.clone() + h))), "{stderr}");
    }
    assert!(!committed.is_empty(), "neither backup committed");
    assert_ok(&run(&["fsck", "--store", store.to_str().unwrap(), "--deep"]), "fsck");
    let streams = text(&run(&["ls", "--store", store.to_str().unwrap()]).stdout);
    for &i in &committed {
        let label = ["a", "b"][i];
        let stream =
            streams.lines().find(|l| l.starts_with(label)).unwrap().replace("_disk.img", "");
        assert_restores(&store, &stream, &sources[i], &root);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// `mhd serve` holds its store until `SHUTDOWN`: an `mhd backup` against
/// it is refused naming the daemon's pid, and goes through afterwards.
#[test]
fn backup_beside_serve_is_refused_until_shutdown() {
    let root = temp_root("serve");
    let (src, store, socket) =
        (source(&root, "src", 100_000, 5), root.join("store"), root.join("s"));
    let (store_arg, socket_arg) = (store.to_str().unwrap(), socket.to_str().unwrap());
    let mut serve = mhd()
        .args(["serve", "--store", store_arg, "--socket", socket_arg])
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    for _ in 0..500 {
        if run(&["client", "ping", "--socket", socket_arg]).status.success() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_refused(&backup(&src, &store, "s"), &store, serve.id());
    assert_ok(&run(&["client", "shutdown", "--socket", socket_arg]), "shutdown");
    assert!(serve.wait().unwrap().success());
    assert_ok(&backup(&src, &store, "s"), "backup after shutdown");
    assert_ok(&run(&["fsck", "--store", store_arg, "--deep"]), "fsck");
    assert_restores(&store, "s-0", &src, &root);
    std::fs::remove_dir_all(&root).unwrap();
}
