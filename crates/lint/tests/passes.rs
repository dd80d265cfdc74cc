//! End-to-end tests of the static passes over fixture workspaces: a
//! deliberately broken mini-workspace (`ws_bad`) must produce exactly the
//! expected findings per pass, and its clean twin (`ws_good`) none.

use std::path::PathBuf;

use mhd_lint::mck::check;
use mhd_lint::models::{FlushModel, RingModel};
use mhd_lint::{lock_graph, run_passes, Finding, Workspace};

fn fixture(name: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let ws = Workspace::load(&root).expect("fixture loads");
    run_passes(&ws)
}

fn count(findings: &[Finding], pass: &str) -> usize {
    findings.iter().filter(|f| f.pass == pass).count()
}

fn has(findings: &[Finding], pass: &str, file: &str, line: u32) -> bool {
    findings.iter().any(|f| f.pass == pass && f.file == file && f.line == line)
}

#[test]
fn ws_bad_produces_every_expected_finding() {
    let findings = fixture("ws_bad");

    // L2a: one raw fs::write outside backend.rs, which the directive
    // trailing it does not exempt.
    assert_eq!(count(&findings, "L2-commit-path"), 1);
    assert!(has(&findings, "L2-commit-path", "crates/store/src/lib.rs", 11));

    // L2b: ALL not a permutation, the Manifest→DiskChunk edge inverted,
    // and batched.rs never referencing FLUSH_ORDER.
    assert_eq!(count(&findings, "L2-flush-order"), 3, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.pass == "L2-flush-order" && f.message.contains("not a permutation")));
    assert!(findings
        .iter()
        .any(|f| f.pass == "L2-flush-order" && f.message.contains("Manifest before DiskChunk")));
    assert!(findings
        .iter()
        .any(|f| f.pass == "L2-flush-order" && f.file == "crates/store/src/batched.rs"));

    // L3: the engine rewrote a DiskChunk and deleted a Hook.
    assert_eq!(count(&findings, "L3-immutability"), 2);
    assert!(has(&findings, "L3-immutability", "crates/core/src/mhd.rs", 9));
    assert!(has(&findings, "L3-immutability", "crates/core/src/mhd.rs", 13));

    // L5: the one manifest neither inherits the workspace lints nor may
    // force the obs feature.
    assert_eq!(count(&findings, "L5-workspace-lints"), 1, "{findings:#?}");
    assert!(has(&findings, "L5-workspace-lints", "crates/app/Cargo.toml", 1));
    assert_eq!(count(&findings, "L5-obs-gating"), 1);
    assert!(has(&findings, "L5-obs-gating", "crates/app/Cargo.toml", 7));

    // L7: the engine lock taken under the registry lock, plus a
    // self-deadlocking re-acquisition.
    assert_eq!(count(&findings, "L7-lock-order"), 2, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.pass == "L7-lock-order" && f.message.contains("engine lock")));
    assert!(findings
        .iter()
        .any(|f| f.pass == "L7-lock-order" && f.message.contains("self-deadlock")));

    // L8: one splice loop that skips the remap helper, one raw `1 << 48`.
    assert_eq!(count(&findings, "L8-id-range"), 2, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.pass == "L8-id-range" && f.message.contains("FileKind::Hook")));
    assert!(findings.iter().any(|f| f.pass == "L8-id-range"
        && f.file == "crates/daemon/src/staging.rs"
        && f.message.contains("re-derives")));

    // Directive hygiene: one trailing code, one reasonless, one typoed
    // name, and one well-formed lock-order exemption that suppresses
    // nothing.
    assert_eq!(count(&findings, "allow-directive"), 3, "{findings:#?}");
    assert!(has(&findings, "allow-directive", "crates/store/src/lib.rs", 11));
    assert!(findings
        .iter()
        .any(|f| f.pass == "allow-directive" && f.message.contains("needs a reason")));
    assert!(findings
        .iter()
        .any(|f| f.pass == "allow-directive" && f.message.contains("unknown allow name")));
    assert_eq!(count(&findings, "stale-directive"), 1, "{findings:#?}");
    assert!(has(&findings, "stale-directive", "crates/daemon/src/shared.rs", 43));
}

#[test]
fn ws_bad_skips_test_code() {
    let findings = fixture("ws_bad");
    // The #[cfg(test)] module in the store lib writes files directly
    // (line 28).
    assert!(
        !findings.iter().any(|f| f.file == "crates/store/src/lib.rs" && f.line > 23),
        "test-module code must not be linted: {findings:#?}"
    );
}

#[test]
fn ws_good_is_clean() {
    let findings = fixture("ws_good");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn real_workspace_is_clean_and_l7_actually_sees_the_daemon() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace loads");
    let findings = run_passes(&ws);
    assert!(findings.is_empty(), "workspace regressed: {findings:#?}");

    // Guard the guard: a clean L7 run proves nothing if the extractor went
    // blind. The daemon's real nesting — stats/begin_session take registry
    // and shard locks inside the engine lock, in that order everywhere —
    // must show up as edges, and the engine lock must never be the target.
    let graph = lock_graph(&ws);
    assert!(
        graph.has_edge("SharedStore.inner", "SessionRegistry.inner"),
        "engine→registry nesting not extracted: {:?}",
        graph.edges
    );
    assert!(
        graph.has_edge("SharedStore.inner", "SharedHookIndex.shards"),
        "engine→shard nesting not extracted: {:?}",
        graph.edges
    );
    assert!(
        !graph.edges.iter().any(|e| e.to == "SharedStore.inner"),
        "an edge into the engine lock should have been a finding: {:?}",
        graph.edges
    );

    // The front end's locks are leaves: declared, and never held across
    // another acquisition (a job runs with neither its state lock nor the
    // pool queue held).
    for lock in ["Job.state", "Pool.queue"] {
        assert!(graph.locks.iter().any(|l| l.id == lock), "{lock} not extracted");
        assert!(
            !graph.edges.iter().any(|e| e.from == lock),
            "{lock} held across another acquisition: {:?}",
            graph.edges
        );
    }
}

#[test]
fn seeded_concurrency_bugs_are_caught() {
    // The mutants replicate historical bugs; the checker finding them is
    // what CI relies on to trust the green shipped-model runs.
    let flush = check(&FlushModel::mutant_flush_order(), 1_000_000);
    assert!(flush.violation.is_some(), "reversed FLUSH_ORDER not caught");
    let ring = check(&RingModel::mutant_ring_prune(), 1_000_000);
    assert!(ring.violation.is_some(), "eager ring prune not caught");

    let flush = check(&FlushModel::shipped(), 1_000_000);
    assert!(flush.passed(), "shipped flush protocol flagged: {:?}", flush.violation);
    let ring = check(&RingModel::shipped(), 1_000_000);
    assert!(ring.passed(), "shipped ring protocol flagged: {:?}", ring.violation);
}
