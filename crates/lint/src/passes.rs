//! The static invariant passes (L2, L3, L5) and the workspace loader.
//!
//! Each pass is a token-pattern scan over [`SourceFile`] streams (or, for
//! L5, over the crate manifests) — no type information, which is exactly
//! the point: these invariants are *layout* and *discipline* rules the
//! compiler cannot see (raw filesystem calls bypassing the commit
//! helpers, mutations of immutable object kinds, a crate opted out of the
//! workspace lints), and a token-level scan keeps them checkable in
//! milliseconds on every CI run with zero external dependencies.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::idrange::pass_l8_id_range;
use crate::locks::pass_l7_lock_order;
use crate::source::{matching_close, SourceFile};
use crate::Finding;

/// A loaded workspace: every lintable source file plus crate manifests.
#[derive(Debug)]
pub struct Workspace {
    /// Root the relative paths hang off.
    pub root: PathBuf,
    /// Parsed `.rs` files.
    pub files: Vec<SourceFile>,
    /// `(relative path, text)` of each crate-level `Cargo.toml`.
    pub manifests: Vec<(String, String)>,
}

/// Directory names never descended into. `fixtures` holds the linter's
/// own deliberately-broken test workspaces; `shims` are vendored stand-in
/// facades that follow upstream idiom, not workspace rules.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "shims", "node_modules"];

impl Workspace {
    /// Recursively loads every `.rs` file and `Cargo.toml` under `root`,
    /// skipping `target`, `.git`, `fixtures`, `shims`, `node_modules`
    /// and dot-directories. Files are sorted by path so every run reports
    /// in the same order.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let mut manifests = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        let mut rs_paths = Vec::new();
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if path.is_dir() {
                    if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                        stack.push(path);
                    }
                } else if name == "Cargo.toml" {
                    manifests.push((rel_of(root, &path), fs::read_to_string(&path)?));
                } else if name.ends_with(".rs") {
                    rs_paths.push(path);
                }
            }
        }
        rs_paths.sort();
        manifests.sort_by(|a, b| a.0.cmp(&b.0));
        for path in rs_paths {
            let rel = rel_of(root, &path);
            files.push(SourceFile::parse(&rel, &fs::read_to_string(&path)?));
        }
        Ok(Workspace { root: root.to_path_buf(), files, manifests })
    }

    fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Which allow-directive name suppresses findings of each pass; these
/// are the only names a directive may use. Passes absent here have no
/// per-line escape hatch — the workspace-shape rules (L2b, L5) are
/// properties of registries and manifests, not of an individual line a
/// reviewer could sanction.
const SUPPRESSIBLE: &[(&str, &str)] = &[
    ("L2-commit-path", "raw-fs"),
    ("L3-immutability", "immutability"),
    ("L7-lock-order", "lock-order"),
    ("L8-id-range", "id-range"),
];

fn is_allow_name(name: &str) -> bool {
    SUPPRESSIBLE.iter().any(|(_, n)| *n == name)
}

/// Runs every pass over the workspace and returns findings in a stable
/// order (pass, then file, then line).
///
/// Passes emit unconditionally; suppression happens *here*, centrally, so
/// the linter knows which directives earned their keep. A well-formed
/// directive that suppressed nothing is stale — the code it excused has
/// moved or been fixed — and is itself reported (`stale-directive`):
/// otherwise dead exemptions accumulate and silently blanket future
/// regressions on those lines.
pub fn run_passes(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    pass_allow_directives(ws, &mut findings);
    pass_l2_commit_path(ws, &mut findings);
    pass_l2_flush_order(ws, &mut findings);
    pass_l3_immutability(ws, &mut findings);
    pass_l5_manifests(ws, &mut findings);
    pass_l7_lock_order(ws, &mut findings);
    pass_l8_id_range(ws, &mut findings);
    let mut findings = apply_suppressions(ws, findings);
    findings.sort_by(|a, b| (a.pass, &a.file, a.line).cmp(&(b.pass, &b.file, b.line)));
    findings
}

/// Drops findings covered by a matching allow directive
/// ([`SourceFile::directive_for`]), then reports every well-formed
/// directive that covered nothing as stale.
fn apply_suppressions(ws: &Workspace, findings: Vec<Finding>) -> Vec<Finding> {
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut kept = Vec::new();
    for f in findings {
        let Some((_, name)) = SUPPRESSIBLE.iter().find(|(pass, _)| *pass == f.pass) else {
            kept.push(f);
            continue;
        };
        match ws.file(&f.file).and_then(|sf| sf.directive_for(f.line, name)) {
            Some(d) => {
                used.insert((f.file.clone(), d.line));
            }
            None => kept.push(f),
        }
    }
    for sf in &ws.files {
        for a in &sf.allows {
            let well_formed = is_allow_name(&a.name) && a.has_reason;
            if well_formed && !used.contains(&(sf.rel.clone(), a.line)) {
                kept.push(Finding {
                    pass: "stale-directive",
                    file: sf.rel.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) suppresses no finding — the code it excused has moved \
                         or been fixed; delete the directive before it blankets a future \
                         regression",
                        a.name
                    ),
                });
            }
        }
    }
    kept
}

// ---------------------------------------------------------------------
// Directive hygiene
// ---------------------------------------------------------------------

/// Every allow directive must sit on its own line, name a known pass and
/// carry a reason — the reason is what a reviewer audits instead of the
/// exempted code.
fn pass_allow_directives(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let mut push = |line: u32, message: String| {
            out.push(Finding { pass: "allow-directive", file: file.rel.clone(), line, message })
        };
        for &line in &file.trailing_allows {
            push(
                line,
                "an allow directive after code exempts nothing; put it on its own line".into(),
            );
        }
        for a in &file.allows {
            if !is_allow_name(&a.name) {
                let known: Vec<&str> = SUPPRESSIBLE.iter().map(|(_, n)| *n).collect();
                push(
                    a.line,
                    format!("unknown allow name `{}` (known: {})", a.name, known.join(", ")),
                );
            } else if !a.has_reason {
                push(
                    a.line,
                    format!(
                        "allow({}) needs a reason: `// lint: allow({}): why this is safe`",
                        a.name, a.name
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// L2a: raw filesystem mutation must go through the commit helpers
// ---------------------------------------------------------------------

const RAW_FS_OPS: &[&str] =
    &["write", "rename", "remove_file", "remove_dir_all", "create", "create_dir_all", "set_len"];

/// In the store crate, only `backend.rs` owns the tmp+rename+intent commit
/// sequence; raw `std::fs` mutation anywhere else bypasses crash safety.
fn pass_l2_commit_path(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in ws.files.iter().filter(|f| {
        f.rel.starts_with("crates/store/src/") && f.rel != "crates/store/src/backend.rs"
    }) {
        for (i, tok) in file.toks.iter().enumerate() {
            if file.test_mask[i] {
                continue;
            }
            let qualified_by = |name: &str| {
                i >= 3
                    && file.toks[i - 1].is_punct(':')
                    && file.toks[i - 2].is_punct(':')
                    && file.toks[i - 3].is_ident(name)
            };
            if tok.kind == crate::lexer::TokKind::Ident
                && RAW_FS_OPS.contains(&tok.text.as_str())
                && (qualified_by("fs") || qualified_by("File"))
            {
                out.push(Finding {
                    pass: "L2-commit-path",
                    file: file.rel.clone(),
                    line: tok.line,
                    message: format!(
                        "raw fs::{} bypasses the tmp+rename commit helpers in backend.rs",
                        tok.text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// L2b: FLUSH_ORDER cross-file consistency
// ---------------------------------------------------------------------

/// Reference edges between object kinds: `(referrer, referee)` — the
/// referee must flush strictly before the referrer so a crash between any
/// two writes leaves no dangling reference.
pub const REF_EDGES: &[(&str, &str)] =
    &[("Manifest", "DiskChunk"), ("Hook", "Manifest"), ("FileManifest", "DiskChunk")];

fn pass_l2_flush_order(ws: &Workspace, out: &mut Vec<Finding>) {
    let rel = "crates/store/src/backend.rs";
    let Some(backend) = ws.file(rel) else { return };
    let push = |out: &mut Vec<Finding>, line: u32, message: String| {
        out.push(Finding { pass: "L2-flush-order", file: rel.to_string(), line, message });
    };

    let variants = enum_variants(backend, "FileKind");
    if variants.is_empty() {
        push(out, 0, "could not parse `enum FileKind` variants".into());
        return;
    }
    let flush_order = const_kind_list(backend, "FLUSH_ORDER");
    let all = const_kind_list(backend, "ALL");
    for (name, list) in [("FLUSH_ORDER", &flush_order), ("ALL", &all)] {
        match list {
            None => push(out, 0, format!("const {name} not found or not a FileKind array")),
            Some((line, kinds)) => {
                let got: BTreeSet<&str> = kinds.iter().map(String::as_str).collect();
                let want: BTreeSet<&str> = variants.iter().map(String::as_str).collect();
                if got != want {
                    push(
                        out,
                        *line,
                        format!("{name} {kinds:?} is not a permutation of FileKind {variants:?}"),
                    );
                }
            }
        }
    }
    if let Some((line, order)) = &flush_order {
        let pos = |k: &str| order.iter().position(|v| v == k);
        for (referrer, referee) in REF_EDGES {
            if let (Some(a), Some(b)) = (pos(referrer), pos(referee)) {
                if b >= a {
                    push(
                        out,
                        *line,
                        format!(
                            "FLUSH_ORDER writes {referrer} before {referee}, but {referrer} \
                             references {referee}: a crash between them dangles"
                        ),
                    );
                }
            }
        }
    }
    // The batched backend must drain pending writes in the canonical
    // order, not a locally spelled-out kind list.
    if let Some(batched) = ws.file("crates/store/src/batched.rs") {
        if !batched.toks.iter().any(|t| t.is_ident("FLUSH_ORDER")) {
            out.push(Finding {
                pass: "L2-flush-order",
                file: batched.rel.clone(),
                line: 0,
                message: "batched.rs never references FileKind::FLUSH_ORDER; \
                          its flush loop can drift from the canonical order"
                    .into(),
            });
        }
    }
}

/// Variant names of `enum <name> { … }` (unit variants only, which is all
/// `FileKind` has; tokens inside `[...]` attributes are skipped).
fn enum_variants(file: &SourceFile, name: &str) -> Vec<String> {
    let toks = &file.toks;
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].is_ident("enum") && toks[i + 1].is_ident(name) && toks[i + 2].is_punct('{') {
            let Some(close) = matching_close(toks, i + 2, '{', '}') else { return Vec::new() };
            let mut variants = Vec::new();
            let mut j = i + 3;
            while j < close {
                if toks[j].is_punct('[') {
                    j = matching_close(toks, j, '[', ']').map(|e| e + 1).unwrap_or(close);
                    continue;
                }
                if toks[j].kind == crate::lexer::TokKind::Ident {
                    let next = &toks[j + 1];
                    if next.is_punct(',') || next.is_punct('}') {
                        variants.push(toks[j].text.clone());
                    }
                }
                j += 1;
            }
            return variants;
        }
    }
    Vec::new()
}

/// The `FileKind::X` names inside `const <name>: … = [ … ];`, with the
/// line of the array literal.
fn const_kind_list(file: &SourceFile, name: &str) -> Option<(u32, Vec<String>)> {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("const") && toks.get(i + 1).map(|t| t.is_ident(name)) == Some(true)) {
            continue;
        }
        // Find the `=` then the `[` of the value; the type annotation also
        // contains `[FileKind; 4]`, which the `=` skips past.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('=') {
            j += 1;
        }
        while j < toks.len() && !toks[j].is_punct('[') {
            j += 1;
        }
        let close = matching_close(toks, j, '[', ']')?;
        let mut kinds = Vec::new();
        let mut k = j + 1;
        while k < close {
            if (toks[k].is_ident("FileKind") || toks[k].is_ident("Self"))
                && toks[k + 1].is_punct(':')
                && toks[k + 2].is_punct(':')
            {
                kinds.push(toks[k + 3].text.clone());
                k += 4;
            } else {
                k += 1;
            }
        }
        return Some((toks[j].line, kinds));
    }
    None
}

// ---------------------------------------------------------------------
// L3: DiskChunks and Hooks are immutable outside GC/compaction
// ---------------------------------------------------------------------

/// The paper's core invariant: HHR rewrites only Manifests; DiskChunks
/// and Hooks are write-once. Only garbage collection and compaction may
/// delete them — those live in `gc.rs` / `compact.rs`.
fn pass_l3_immutability(ws: &Workspace, out: &mut Vec<Finding>) {
    let exempt = ["crates/core/src/gc.rs", "crates/core/src/compact.rs"];
    for file in ws.files.iter().filter(|f| {
        (f.rel.starts_with("crates/store/src/")
            || f.rel.starts_with("crates/core/src/")
            || f.rel.starts_with("crates/cli/src/")
            || f.rel.starts_with("crates/daemon/src/"))
            && !exempt.contains(&f.rel.as_str())
    }) {
        let toks = &file.toks;
        for i in 0..toks.len().saturating_sub(5) {
            if file.test_mask[i] {
                continue;
            }
            let is_mutation = (toks[i].is_ident("update") || toks[i].is_ident("delete"))
                && i > 0
                && toks[i - 1].is_punct('.');
            if is_mutation
                && toks[i + 1].is_punct('(')
                && toks[i + 2].is_ident("FileKind")
                && toks[i + 3].is_punct(':')
                && toks[i + 4].is_punct(':')
                && (toks[i + 5].is_ident("DiskChunk") || toks[i + 5].is_ident("Hook"))
            {
                out.push(Finding {
                    pass: "L3-immutability",
                    file: file.rel.clone(),
                    line: toks[i].line,
                    message: format!(
                        "{}s are immutable; .{}() outside gc/compact breaks dedup \
                         (`// lint: allow(immutability): reason` for sanctioned paths)",
                        toks[i + 5].text,
                        toks[i].text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// L5: crate manifests (workspace lints, obs feature gating)
// ---------------------------------------------------------------------

/// True when the manifest's `[lints]` table says `workspace = true`.
fn inherits_workspace_lints(text: &str) -> bool {
    let mut table = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
        } else if table == "[lints]" && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Every crate inherits the root's `[workspace.lints]` table, which is
/// what makes rustc warn on missing docs and deny `unsafe` in it; only a
/// manifest rooting a workspace of its own is exempt. And only binary and
/// integration-test crates may force the `obs` feature: a library forcing
/// it would switch every downstream build into the instrumented
/// configuration and defeat the zero-cost-when-off design.
fn pass_l5_manifests(ws: &Workspace, out: &mut Vec<Finding>) {
    for (rel, text) in &ws.manifests {
        let roots_a_workspace = text.lines().any(|l| l.trim() == "[workspace]");
        if !roots_a_workspace && !inherits_workspace_lints(text) {
            out.push(Finding {
                pass: "L5-workspace-lints",
                file: rel.clone(),
                line: 1,
                message: "manifest lacks `[lints] workspace = true`: rustc checks neither \
                          missing docs nor `unsafe` in this crate"
                    .into(),
            });
        }
        let forces_obs = text.lines().any(|l| {
            let l = l.trim();
            !l.starts_with('#')
                && l.starts_with("mhd-obs")
                && l.contains("features")
                && l.contains("\"obs\"")
        });
        if !forces_obs {
            continue;
        }
        let dir = ws.root.join(rel.trim_end_matches("Cargo.toml"));
        let is_binary_like = text.contains("[[bin]]")
            || dir.join("src/main.rs").exists()
            || dir.join("src/bin").exists()
            || dir.join("tests").exists();
        if !is_binary_like {
            let line = text
                .lines()
                .position(|l| l.trim_start().starts_with("mhd-obs"))
                .map(|i| i as u32 + 1)
                .unwrap_or(0);
            out.push(Finding {
                pass: "L5-obs-gating",
                file: rel.clone(),
                line,
                message: "library crate forces mhd-obs feature \"obs\"; only binaries and \
                          integration-test crates may opt the build into instrumentation"
                    .into(),
            });
        }
    }
}
