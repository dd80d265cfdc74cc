//! `mhd backup` of a tree in which two paths sanitise to one recipe name
//! (`sub/b.bin`, `sub_b.bin`): the backup fails naming both, stores no
//! recipe, and leaves the stream name free for the next backup.

use std::path::Path;
use std::process::{Command, Output};

fn mhd(args: &[&str], store: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mhd"))
        .args(args)
        .arg("--store")
        .arg(store)
        .output()
        .expect("run mhd")
}

#[test]
fn colliding_backup_fails_stores_nothing_and_frees_the_stream_name() {
    let root = std::env::temp_dir().join(format!("mhd-cli-collide-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (src, store) = (root.join("src"), root.join("store"));
    std::fs::create_dir_all(src.join("sub")).unwrap();
    let nested: Vec<u8> = (0..30_000u32).map(|i| (i * 31 % 251) as u8).collect();
    std::fs::write(src.join("sub/b.bin"), &nested).unwrap();
    std::fs::write(src.join("sub_b.bin"), b"the file that used to win").unwrap();
    let src_arg = src.to_str().unwrap();

    let out = mhd(&["backup", src_arg, "--label", "t"], &store);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "colliding backup exited 0");
    assert!(stderr.contains("sub/b.bin") && stderr.contains("sub_b.bin"), "{stderr}");
    assert!(stderr.contains("t-0_sub_b.bin"), "{stderr}");
    let listed = mhd(&["ls"], &store);
    assert!(!String::from_utf8_lossy(&listed.stdout).contains("b.bin"), "a recipe was stored");

    // Without the collision the same label backs up as the same stream
    // and restores byte-exactly.
    std::fs::remove_file(src.join("sub_b.bin")).unwrap();
    let out = mhd(&["backup", src_arg, "--label", "t"], &store);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let listed = mhd(&["ls"], &store);
    assert_eq!(String::from_utf8_lossy(&listed.stdout).trim(), "t-0_sub_b.bin");
    let restored = root.join("restored");
    let out = mhd(&["restore", "t-0/sub/b.bin", "-o", restored.to_str().unwrap()], &store);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read(&restored).unwrap(), nested);
    std::fs::remove_dir_all(&root).unwrap();
}
