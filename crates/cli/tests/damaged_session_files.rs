//! A session file that is present but damaged is an error naming the
//! file, not "nothing recorded yet": `mhd trace` on a `trace.jsonl` with
//! one garbage line, and `mhd stats --internals` on a garbage
//! `internals.json`, both exit 1 without telling the operator to run the
//! command that already ran.

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
fn damaged_trace_and_internals_are_errors_naming_the_file() {
    let root = std::env::temp_dir().join(format!("mhd-cli-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (src, store) = (root.join("src"), root.join("store"));
    std::fs::create_dir_all(&src).unwrap();
    let data: Vec<u8> = (0..60_000u32).map(|i| (i * 131 % 251) as u8).collect();
    std::fs::write(src.join("a.bin"), &data).unwrap();

    let out = mhd(&["backup", src.to_str().unwrap(), "--trace"], &store);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(mhd(&["trace"], &store).status.success(), "an intact trace exports");
    assert!(mhd(&["stats", "--internals"], &store).status.success());

    // Overwrite the second line of the trace with garbage.
    let trace = store.join("session/trace.jsonl");
    let text = std::fs::read_to_string(&trace).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "the backup recorded a trace");
    lines[1] = "not a trace record";
    std::fs::write(&trace, lines.join("\n")).unwrap();
    let out = mhd(&["trace"], &store);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("session/trace.jsonl line 2"), "{stderr}");
    assert!(!stderr.contains("--trace"), "{stderr}");

    std::fs::write(store.join("session/internals.json"), "{ garbage").unwrap();
    let out = mhd(&["stats", "--internals"], &store);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("session/internals.json"), "{stderr}");
    assert!(!stderr.contains("run a mutating command"), "{stderr}");

    // A stray positional argument is refused, not exported past.
    let out = mhd(&["trace", "analyze"], &store);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&root).unwrap();
}
