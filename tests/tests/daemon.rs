//! Daemon integration: concurrent client sessions over the Unix-socket
//! protocol against one shared store — per-tenant isolation, cross-tenant
//! dedup, abort hygiene, and GC safety under in-progress sessions.

use std::path::{Path, PathBuf};
use std::thread;

use mhd_daemon::{Client, Daemon, DaemonConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhd-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Deterministic pseudo-random payload; same (len, seed) → same bytes.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// Spawns a daemon on a fresh store; returns (store root, socket path).
fn spawn_daemon(tag: &str) -> (PathBuf, PathBuf, mhd_daemon::ServeHandle) {
    let root = temp_dir(tag);
    let store = root.join("store");
    let socket = root.join("mhd.sock");
    let daemon = Daemon::open(&store, DaemonConfig::default()).expect("open daemon");
    let handle = daemon.spawn(&socket).expect("spawn daemon");
    (store, socket, handle)
}

fn shutdown(socket: &Path, handle: mhd_daemon::ServeHandle) {
    let mut admin = Client::connect(socket).expect("connect for shutdown");
    admin.shutdown().expect("shutdown");
    handle.join().expect("serve thread");
}

#[test]
fn three_concurrent_tenants_restore_byte_identical() {
    let (_store, socket, handle) = spawn_daemon("three-tenants");

    // Three clients back up distinct corpora concurrently, each under its
    // own tenant namespace.
    let workers: Vec<_> = (0..3u64)
        .map(|i| {
            let socket = socket.clone();
            thread::spawn(move || {
                let tenant = format!("tenant{i}");
                let mut c = Client::connect(&socket).expect("connect");
                c.open(&tenant).expect("open tenant");
                c.begin("day0").expect("begin");
                for f in 0..4u64 {
                    let data = payload(20_000 + (f as usize) * 3_000, i * 100 + f);
                    c.send_file(&format!("disk{f}.img"), &data).expect("send");
                }
                let summary = c.commit().expect("commit");
                assert_eq!(summary.files, 4);
                tenant
            })
        })
        .collect();
    let tenants: Vec<String> = workers.into_iter().map(|w| w.join().expect("worker")).collect();

    // Every tenant sees exactly its own four files and restores them
    // byte-identically; no listing leaks across namespaces.
    for (i, tenant) in tenants.iter().enumerate() {
        let mut c = Client::connect(&socket).expect("connect");
        c.open(tenant).expect("open tenant");
        let names = c.ls().expect("ls");
        assert_eq!(names.len(), 4, "tenant {tenant} sees {names:?}");
        for name in &names {
            assert!(name.starts_with("day0_"), "foreign or unscoped name {name} in {tenant}");
        }
        for f in 0..4u64 {
            let expected = payload(20_000 + (f as usize) * 3_000, i as u64 * 100 + f);
            let got = c.restore(&format!("day0_disk{f}.img")).expect("restore");
            assert_eq!(got, expected, "tenant {tenant} file {f} corrupted");
        }
        assert!(c.fsck().expect("fsck").contains("healthy"));
    }

    shutdown(&socket, handle);
}

#[test]
fn identical_corpora_dedup_across_tenants_with_isolated_listings() {
    let (_store, socket, handle) = spawn_daemon("cross-dedup");
    let files: Vec<(String, Vec<u8>)> =
        (0..3u64).map(|f| (format!("img{f}.bin"), payload(40_000, 7_000 + f))).collect();

    let mut grown = Vec::new();
    for tenant in ["alpha", "beta"] {
        let mut c = Client::connect(&socket).expect("connect");
        c.open(tenant).expect("open");
        c.begin("base").expect("begin");
        for (name, data) in &files {
            c.send_file(name, data).expect("send");
        }
        grown.push(c.commit().expect("commit").grown_bytes);
    }

    // Identical bytes under a second tenant cost almost nothing: the
    // shared index serves cross-tenant dedup, only metadata grows.
    assert!(
        grown[1] * 5 < grown[0],
        "second tenant grew {} vs first {}; cross-tenant dedup failed",
        grown[1],
        grown[0]
    );

    // Listings stay per-tenant even though the chunks are shared.
    for tenant in ["alpha", "beta"] {
        let mut c = Client::connect(&socket).expect("connect");
        c.open(tenant).expect("open");
        let names = c.ls().expect("ls");
        assert_eq!(names.len(), files.len());
        for (name, data) in &files {
            let restored = c.restore(&format!("base_{name}")).expect("restore");
            assert_eq!(&restored, data, "{tenant}/{name}");
        }
    }

    shutdown(&socket, handle);
}

#[test]
fn abort_mid_write_leaves_no_orphans() {
    let (_store, socket, handle) = spawn_daemon("abort");

    let mut c = Client::connect(&socket).expect("connect");
    c.open("acme").expect("open");
    c.begin("nightly").expect("begin");
    c.send_file("half.img", &payload(30_000, 99)).expect("send");
    c.abort().expect("abort");

    // Nothing of the aborted session is visible, the store is healthy,
    // and the stream label is free for immediate reuse.
    assert!(c.ls().expect("ls").is_empty());
    assert!(c.fsck().expect("fsck").contains("healthy"));
    c.begin("nightly").expect("label released after abort");
    c.send_file("full.img", &payload(30_000, 100)).expect("send");
    let summary = c.commit().expect("commit");
    assert_eq!(summary.files, 1);
    assert_eq!(c.ls().expect("ls"), vec!["nightly_full.img".to_string()]);

    // A client that disconnects mid-session (no ABORT verb) is cleaned up
    // server-side the same way.
    let mut dropped = Client::connect(&socket).expect("connect");
    dropped.open("acme").expect("open");
    dropped.begin("torn").expect("begin");
    dropped.send_file("lost.img", &payload(10_000, 101)).expect("send");
    drop(dropped);

    // Poll until the server reaps the dropped connection and releases the
    // label (read timeout is 200ms, so this converges quickly).
    let mut reclaimed = false;
    for _ in 0..50 {
        if c.begin("torn").is_ok() {
            reclaimed = true;
            break;
        }
        thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(reclaimed, "disconnect did not release the session label");
    c.abort().expect("abort probe session");
    assert!(c.fsck().expect("fsck").contains("healthy"));

    shutdown(&socket, handle);
}

/// Two paths that sanitise to one recipe name (`sub/b.bin`, `sub_b.bin`)
/// used to commit as one recipe holding the second file's bytes.
#[test]
fn colliding_paths_fail_the_backup_and_leave_the_label_reusable() {
    let (store, socket, handle) = spawn_daemon("colliding");
    let src = store.with_file_name("src");
    std::fs::create_dir_all(src.join("sub")).expect("create tree");
    std::fs::write(src.join("sub/b.bin"), payload(30_000, 7)).expect("write");
    std::fs::write(src.join("sub_b.bin"), payload(20_000, 8)).expect("write");

    let mut c = Client::connect(&socket).expect("connect");
    c.open("acme").expect("open");
    let err = c.backup_dir(&src, "nightly").expect_err("colliding backup committed").to_string();
    assert!(err.contains("sub/b.bin") && err.contains("sub_b.bin"), "{err}");
    assert!(c.ls().expect("ls").is_empty(), "a recipe was stored");
    assert!(c.fsck().expect("fsck").contains("healthy"));

    std::fs::remove_file(src.join("sub_b.bin")).expect("remove");
    let summary = c.backup_dir(&src, "nightly").expect("label released by the failed backup");
    assert_eq!(summary.files, 1);
    assert_eq!(c.ls().expect("ls"), vec!["nightly_sub_b.bin".to_string()]);
    assert_eq!(c.restore("nightly_sub_b.bin").expect("restore"), payload(30_000, 7));

    shutdown(&socket, handle);
}

#[test]
fn gc_during_active_session_keeps_its_chunks_reachable() {
    let (_store, socket, handle) = spawn_daemon("gc-live");

    // Session A registers (capturing a GC watermark) but has not yet
    // committed when tenant B writes and an admin runs GC.
    let mut a = Client::connect(&socket).expect("connect a");
    a.open("slow").expect("open");
    a.begin("big").expect("begin");
    a.send_file("a0.img", &payload(25_000, 500)).expect("send");

    let mut b = Client::connect(&socket).expect("connect b");
    b.open("fast").expect("open");
    b.begin("quick").expect("begin");
    b.send_file("b0.img", &payload(25_000, 600)).expect("send");
    b.commit().expect("commit b");

    // GC with A's session registered: everything at or above A's
    // watermark — including B's freshly committed chunks — is protected.
    let mut admin = Client::connect(&socket).expect("connect admin");
    let gc = admin.gc().expect("gc");
    let swept: u64 = gc.split_whitespace().next().and_then(|w| w.parse().ok()).expect("gc reply");
    assert_eq!(swept, 0, "GC swept {swept} chunks under an active session: {gc}");

    // A finishes afterwards; both tenants restore byte-identically.
    a.send_file("a1.img", &payload(25_000, 501)).expect("send");
    a.commit().expect("commit a");
    assert_eq!(a.restore("big_a0.img").expect("restore"), payload(25_000, 500));
    assert_eq!(a.restore("big_a1.img").expect("restore"), payload(25_000, 501));
    b.restore("quick_b0.img").expect("restore b");
    assert_eq!(b.restore("quick_b0.img").expect("restore"), payload(25_000, 600));
    assert!(admin.fsck().expect("fsck").contains("healthy"));

    shutdown(&socket, handle);
}

#[test]
fn daemon_survives_restart_and_resumes_dedup() {
    let (store, socket, handle) = spawn_daemon("restart");

    let files: Vec<(String, Vec<u8>)> =
        (0..2u64).map(|f| (format!("f{f}.img"), payload(30_000, 900 + f))).collect();
    let first = {
        let mut c = Client::connect(&socket).expect("connect");
        c.open("durable").expect("open");
        c.begin("day0").expect("begin");
        for (name, data) in &files {
            c.send_file(name, data).expect("send");
        }
        c.commit().expect("commit").grown_bytes
    };
    shutdown(&socket, handle);

    // Reopen the same store: the rebuilt index must dedup the same bytes
    // and the old stream must still restore.
    let daemon = Daemon::open(&store, DaemonConfig::default()).expect("reopen");
    assert!(daemon.store().recovery().is_clean(), "clean shutdown left recovery work");
    let handle = daemon.spawn(&socket).expect("respawn");
    let mut c = Client::connect(&socket).expect("connect");
    c.open("durable").expect("open");
    c.begin("day1").expect("begin");
    for (name, data) in &files {
        c.send_file(name, data).expect("send");
    }
    let second = c.commit().expect("commit").grown_bytes;
    assert!(second * 5 < first, "restart lost dedup state: day1 grew {second} vs day0 {first}");
    for (name, data) in &files {
        assert_eq!(&c.restore(&format!("day0_{name}")).expect("restore old"), data);
        assert_eq!(&c.restore(&format!("day1_{name}")).expect("restore new"), data);
    }

    shutdown(&socket, handle);
}

/// Pulls an unsigned field out of a shim `serde_json::Value` object.
fn stat_u64(doc: &serde_json::Value, name: &str) -> u64 {
    let serde_json::Value::Object(fields) = doc else { panic!("stats must be an object") };
    let value = fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let Some(serde_json::Value::Number(serde_json::Number::U64(n))) = value else {
        panic!("stats field {name} missing or not a u64 in {doc}")
    };
    *n
}

#[test]
fn stats_track_sessions_and_shared_index() {
    let (_store, socket, handle) = spawn_daemon("stats");

    let mut c = Client::connect(&socket).expect("connect");
    c.open("ops").expect("open");
    c.begin("s1").expect("begin");
    c.send_file("x.img", &payload(20_000, 42)).expect("send");

    let mut admin = Client::connect(&socket).expect("connect admin");
    let live: serde_json::Value =
        serde_json::from_str(&admin.stats().expect("stats")).expect("stats json");
    assert_eq!(stat_u64(&live, "active_sessions"), 1);

    c.commit().expect("commit");
    let settled: serde_json::Value =
        serde_json::from_str(&admin.stats().expect("stats")).expect("stats json");
    assert_eq!(stat_u64(&settled, "active_sessions"), 0);
    assert_eq!(stat_u64(&settled, "streams"), 1);
    let entries = stat_u64(&settled, "index_entries");
    assert!(entries > 0);
    let serde_json::Value::Object(fields) = &settled else { panic!("stats must be an object") };
    let occupancy = fields.iter().find(|(k, _)| k == "index_occupancy").map(|(_, v)| v);
    let Some(serde_json::Value::Array(occupancy)) = occupancy else {
        panic!("index_occupancy missing")
    };
    assert_eq!(occupancy.len(), mhd_daemon::INDEX_SHARDS);
    let total: u64 = occupancy
        .iter()
        .map(|v| match v {
            serde_json::Value::Number(serde_json::Number::U64(n)) => *n,
            other => panic!("occupancy entry not a u64: {other}"),
        })
        .sum();
    assert_eq!(total, entries);

    shutdown(&socket, handle);
}

/// A `RESTORE` the store cannot serve — no such recipe, or a recipe whose
/// container is gone — answers `ERR` before any payload, so the same
/// connection goes on to restore a good file byte-exactly.
#[test]
fn failed_restores_answer_err_and_leave_the_connection_usable() {
    let (store, socket, handle) = spawn_daemon("restore-err");
    let (good, doomed) = (payload(300_000, 61), payload(50_000, 62));
    let mut c = Client::connect(&socket).expect("connect");
    c.open("acme").expect("open");
    for (label, data) in [("day0", &good), ("day1", &doomed)] {
        c.begin(label).expect("begin");
        c.send_file("disk.img", data).expect("send");
        c.commit().expect("commit");
    }

    let mut view = mhd_core::statefile::read_view(&store).expect("view");
    let containers = |view: &mut mhd_store::Substrate<mhd_store::DirBackend>, name: &str| {
        let recipe = view.load_file_manifest(name).expect("recipe");
        recipe.extents().iter().map(|e| e.container).collect::<Vec<_>>()
    };
    let victim = containers(&mut view, "acme/day1/disk.img")[0];
    assert!(!containers(&mut view, "acme/day0/disk.img").contains(&victim));
    std::fs::remove_file(store.join("chunks").join(victim.name())).expect("delete container");

    match c.restore("day9_nothing.img") {
        Err(mhd_daemon::DaemonError::Remote(msg)) => assert!(msg.contains("not found"), "{msg}"),
        other => panic!("unknown name: {other:?}"),
    }
    match c.restore("day1_disk.img") {
        Err(mhd_daemon::DaemonError::Remote(msg)) => {
            assert!(msg.contains(&victim.name()), "ERR does not name the container: {msg}")
        }
        other => panic!("lost container: {other:?}"),
    }
    assert_eq!(c.restore("day0_disk.img").expect("restore after two ERRs"), good);
    drop(c);
    shutdown(&socket, handle);
}

/// Entries of every Manifest in the store.
fn manifest_entries(
    view: &mut mhd_store::Substrate<mhd_store::DirBackend>,
) -> Vec<mhd_store::ManifestEntry> {
    use mhd_store::{Backend, FileKind, Manifest, ManifestId};
    let backend = view.backend_mut();
    let mut entries = Vec::new();
    for name in backend.list(FileKind::Manifest) {
        let id = ManifestId(u64::from_str_radix(&name, 16).expect("hex manifest name"));
        let data = backend.get(FileKind::Manifest, &name).expect("read manifest");
        entries.extend(Manifest::decode(id, &data).expect("decode manifest").entries);
    }
    entries
}

/// The deep scrub of a store the daemon wrote — chunks spliced in under
/// remapped ids, a shared Manifest rewritten by HHR — reopened from disk
/// names the container and entry range of every damaged byte.
#[test]
fn deep_scrub_names_damage_in_a_daemon_written_store_reopened_from_disk() {
    let root = temp_dir("scrub");
    let (store, socket) = (root.join("store"), root.join("mhd.sock"));
    let config = DaemonConfig { ecs: 512, sd: 8, ..DaemonConfig::default() };
    let handle = Daemon::open(&store, config).expect("open").spawn(&socket).expect("spawn");
    let original = payload(64 << 10, 41);
    let mut edited = original.clone();
    edited[30_000..31_024].copy_from_slice(&payload(1024, 42));

    let mut c = Client::connect(&socket).expect("connect");
    c.open("acme").expect("open");
    let mut before = Vec::new();
    for (label, data) in [("day0", &original), ("day1", &edited)] {
        c.begin(label).expect("begin");
        c.send_file("disk.img", data).expect("send");
        c.commit().expect("commit");
        if before.is_empty() {
            before = manifest_entries(&mut mhd_core::statefile::read_view(&store).expect("view"));
        }
    }
    shutdown(&socket, handle);

    let mut view = mhd_core::statefile::read_view(&store).expect("reopen");
    let clean = mhd_core::fsck::scrub(&mut view);
    assert!(clean.is_healthy(), "{:?}", clean.problems);
    let after = manifest_entries(&mut view);
    let hook = *after.iter().find(|e| e.is_hook).expect("a hook entry");
    let merged = *after.iter().find(|e| !e.is_hook && before.contains(e)).expect("a merged entry");
    let split = *after.iter().find(|e| !before.contains(e)).expect("an HHR part");

    for entry in [hook, merged, split] {
        let path = store.join("chunks").join(entry.container.name());
        let good = std::fs::read(&path).expect("read container");
        let mut bad = good.clone();
        bad[(entry.offset + entry.size / 2) as usize] ^= 0x01;
        std::fs::write(&path, &bad).expect("damage container");
        let report = mhd_core::fsck::scrub(&mut mhd_core::statefile::read_view(&store).unwrap());
        let range = format!("({}+{})", entry.offset, entry.size);
        assert!(
            report.problems.iter().any(|p| p.contains(&entry.container.name())
                && p.contains(&range)
                && p.contains("content hash mismatch")),
            "{entry:?}: {:?}",
            report.problems
        );
        std::fs::write(&path, &good).expect("repair container");
    }
    let _ = std::fs::remove_dir_all(&root);
}
