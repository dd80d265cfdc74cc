//! L8 — staging id-range discipline over the daemon crate.
//!
//! The two-phase commit's whole correctness story rests on one numeric
//! contract: staging engines allocate ids at or above `LOCAL_ID_BASE`,
//! and the publish splice remaps every such id below the floor before it
//! touches the shared store. A staged id leaking through is silent store
//! corruption (it collides with nothing today and shadows a real object
//! tomorrow), which is why the discipline is linted rather than hoped:
//!
//! * **one floor** — exactly one `const LOCAL_ID_BASE` definition in
//!   `crates/daemon/src/`, and its value is the documented `1 << 48`;
//! * **no re-derivation** — the `1 << 48` literal appears nowhere else in
//!   the daemon (an ad-hoc copy can drift from the canonical floor);
//! * **floor is armed** — some code calls `ensure_id_floor(LOCAL_ID_BASE,
//!   …)`, i.e. staging engines actually allocate above the floor;
//! * **splice remaps** — the splice function (identified as the function
//!   calling `take_staged`) defines remap helpers (closures whose body
//!   references `LOCAL_ID_BASE`) and every `fresh_of`/`updated_of` loop
//!   over staged objects routes ids through one of them.
//!
//! The model-checker side of the same contract is `PublishModel`, whose
//! `no_remap`/`overlapping_reserve` mutants show what each rule prevents.

use crate::lexer::{TokKind, Token};
use crate::passes::Workspace;
use crate::source::{matching_close, SourceFile};
use crate::Finding;

fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/daemon/src/")
}

/// True when `toks[i..]` starts the literal `1 << 48` (the lexer splits
/// `<<` into two `<` puncts).
fn is_floor_literal(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokKind::Num
        && toks[i].text == "1"
        && toks.get(i + 1).map(|t| t.is_punct('<')) == Some(true)
        && toks.get(i + 2).map(|t| t.is_punct('<')) == Some(true)
        && toks.get(i + 3).map(|t| t.kind == TokKind::Num && t.text == "48") == Some(true)
}

/// Token range of the function body containing `idx`, if any.
fn enclosing_fn_body(toks: &[Token], idx: usize) -> Option<(usize, usize)> {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                if let Some(close) = matching_close(toks, j, '{', '}') {
                    if j < idx && idx < close {
                        return Some((j, close));
                    }
                    if close < idx {
                        i = close + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    None
}

/// Names of let-bound closures in `toks[body]` whose body references
/// `LOCAL_ID_BASE` — the remap helpers.
fn remap_helpers(toks: &[Token], body: (usize, usize)) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = body.0;
    while i + 3 < body.1 {
        // `let NAME = [move] | … | { … }`
        if !(toks[i].is_ident("let") && toks[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i + 1].line;
        let mut j = i + 2;
        if !toks.get(j).map(|t| t.is_punct('=')).unwrap_or(false) {
            i += 1;
            continue;
        }
        j += 1;
        if toks.get(j).map(|t| t.is_ident("move")) == Some(true) {
            j += 1;
        }
        if !toks.get(j).map(|t| t.is_punct('|')).unwrap_or(false) {
            i += 1;
            continue;
        }
        // Skip the parameter list to the closing `|`.
        j += 1;
        while j < body.1 && !toks[j].is_punct('|') {
            j += 1;
        }
        j += 1;
        // Braced closure body, or a single expression up to `;`.
        let end = if toks.get(j).map(|t| t.is_punct('{')) == Some(true) {
            matching_close(toks, j, '{', '}').unwrap_or(body.1)
        } else {
            let mut k = j;
            while k < body.1 && !toks[k].is_punct(';') {
                k += 1;
            }
            k
        };
        if toks[j..=end.min(body.1)].iter().any(|t| t.is_ident("LOCAL_ID_BASE")) {
            out.push((name, line));
        }
        i = end + 1;
    }
    out
}

/// Runs the L8 pass.
pub fn pass_l8_id_range(ws: &Workspace, out: &mut Vec<Finding>) {
    let files: Vec<&SourceFile> = ws.files.iter().filter(|f| in_scope(&f.rel)).collect();
    if files.is_empty() {
        return; // nothing to police (e.g. fixture workspaces without a daemon)
    }

    // Rule 1+2: exactly one canonical floor definition, no stray literals.
    let mut defs: Vec<(&SourceFile, usize)> = Vec::new();
    for file in &files {
        for (i, t) in file.toks.iter().enumerate() {
            if !file.test_mask[i]
                && t.is_ident("const")
                && file.toks.get(i + 1).map(|t| t.is_ident("LOCAL_ID_BASE")) == Some(true)
            {
                defs.push((*file, i));
            }
        }
    }
    match defs.as_slice() {
        [] => out.push(Finding {
            pass: "L8-id-range",
            file: "crates/daemon/src".into(),
            line: 0,
            message: "no `const LOCAL_ID_BASE` found in the daemon: the staging id floor \
                      has no canonical definition"
                .into(),
        }),
        [(file, i)] => {
            // The definition's value must be the documented `1 << 48`.
            let toks = &file.toks;
            let mut j = *i + 2;
            while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                j += 1;
            }
            let ok = j + 1 < toks.len() && toks[j].is_punct('=') && is_floor_literal(toks, j + 1);
            if !ok {
                out.push(Finding {
                    pass: "L8-id-range",
                    file: file.rel.clone(),
                    line: toks[*i].line,
                    message: "LOCAL_ID_BASE is not the documented `1 << 48`".into(),
                });
            }
        }
        many => {
            for (file, i) in &many[1..] {
                out.push(Finding {
                    pass: "L8-id-range",
                    file: file.rel.clone(),
                    line: file.toks[*i].line,
                    message: format!(
                        "duplicate `const LOCAL_ID_BASE` (canonical definition is in {}): \
                         two floors can drift apart",
                        many[0].0.rel
                    ),
                });
            }
        }
    }
    for file in &files {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if file.test_mask[i] || !is_floor_literal(toks, i) {
                continue;
            }
            // The canonical const's own value is the one allowed site.
            let is_def_value = defs.iter().any(|(f, d)| {
                f.rel == file.rel && *d < i && i < *d + 12 // within the const item
            });
            if !is_def_value {
                out.push(Finding {
                    pass: "L8-id-range",
                    file: file.rel.clone(),
                    line: toks[i].line,
                    message: "re-derives the staging id floor as a raw `1 << 48`; \
                              use LOCAL_ID_BASE"
                        .into(),
                });
            }
        }
    }

    // Rule 3: the floor is actually installed on the shared allocator.
    let floor_armed = files.iter().any(|f| {
        f.toks.windows(3).any(|w| {
            w[0].is_ident("ensure_id_floor") && w[1].is_punct('(') && w[2].is_ident("LOCAL_ID_BASE")
        })
    });
    if !floor_armed && !defs.is_empty() {
        out.push(Finding {
            pass: "L8-id-range",
            file: defs[0].0.rel.clone(),
            line: defs[0].0.toks[defs[0].1].line,
            message: "no `ensure_id_floor(LOCAL_ID_BASE, …)` call: staging engines are \
                      never lifted above the id floor, so staged ids can collide with \
                      real ones"
                .into(),
        });
    }

    // Rule 4: the splice (the function calling `take_staged`) remaps.
    for file in &files {
        let toks = &file.toks;
        let Some(call) = toks.iter().position(|t| t.is_ident("take_staged")) else {
            continue;
        };
        let Some(body) = enclosing_fn_body(toks, call) else { continue };
        let helpers = remap_helpers(toks, body);
        if helpers.is_empty() {
            out.push(Finding {
                pass: "L8-id-range",
                file: file.rel.clone(),
                line: toks[call].line,
                message: "the splice takes staged objects but defines no remap helper \
                          (a closure referencing LOCAL_ID_BASE): staged ids reach the \
                          store unmapped"
                    .into(),
            });
            continue;
        }
        // Every loop over staged objects must route through a helper.
        let mut i = body.0;
        while i < body.1 {
            let t = &toks[i];
            let is_staged_iter = (t.is_ident("fresh_of") || t.is_ident("updated_of"))
                && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true);
            if !is_staged_iter {
                i += 1;
                continue;
            }
            // The staged kind, for the message (`FileKind::K`).
            let kind = toks[i + 2..]
                .iter()
                .take(4)
                .rev()
                .find(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| "?".into());
            // Loop body: the next `{` after the iterator call.
            let mut j = matching_close(toks, i + 1, '(', ')').map(|e| e + 1).unwrap_or(i + 2);
            while j < body.1 && !toks[j].is_punct('{') {
                j += 1;
            }
            let Some(close) = matching_close(toks, j, '{', '}') else { break };
            let routed = toks[j..close].iter().any(|t| helpers.iter().any(|(h, _)| t.is_ident(h)));
            if !routed {
                out.push(Finding {
                    pass: "L8-id-range",
                    file: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "splice loop over staged FileKind::{kind} objects never routes \
                         ids through a remap helper ({}): a staged id ≥ LOCAL_ID_BASE \
                         can reach the published store",
                        helpers.iter().map(|(h, _)| h.as_str()).collect::<Vec<_>>().join(", ")
                    ),
                });
            }
            i = close + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::from("/nonexistent"),
            files: files.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect(),
            manifests: Vec::new(),
        }
    }

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = ws_of(files);
        let mut out = Vec::new();
        pass_l8_id_range(&ws, &mut out);
        out
    }

    const GOOD_SPLICE: &str = "
        pub const LOCAL_ID_BASE: u64 = 1 << 48;
        fn open(sub: &mut Substrate) { sub.ensure_id_floor(LOCAL_ID_BASE, LOCAL_ID_BASE); }
        fn splice(overlay: Overlay, base: u64) {
            let staged = overlay.take_staged();
            let map_chunk = move |id: u64| if id >= LOCAL_ID_BASE { id - LOCAL_ID_BASE + base } else { id };
            for (name, data) in staged.fresh_of(FileKind::DiskChunk) {
                write(map_chunk(parse(name)), data);
            }
            for (name, data) in staged.fresh_of(FileKind::Hook) {
                write_hook(name, map_chunk(parse(name)));
            }
        }";

    #[test]
    fn disciplined_daemon_is_clean() {
        let out = findings(&[("crates/daemon/src/shared.rs", GOOD_SPLICE)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_floor_definition_is_flagged() {
        let out = findings(&[("crates/daemon/src/shared.rs", "fn f() {}")]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no `const LOCAL_ID_BASE`"), "{}", out[0].message);
    }

    #[test]
    fn duplicate_floor_and_stray_literal_are_flagged() {
        let src = "
            pub const LOCAL_ID_BASE: u64 = 1 << 48;
            fn open(sub: &mut Substrate) { sub.ensure_id_floor(LOCAL_ID_BASE, LOCAL_ID_BASE); }";
        let dup = "const LOCAL_ID_BASE: u64 = 1 << 48;";
        let stray = "fn floor() -> u64 { 1 << 48 }";
        let out = findings(&[
            ("crates/daemon/src/shared.rs", src),
            ("crates/daemon/src/staging.rs", dup),
            ("crates/daemon/src/server.rs", stray),
        ]);
        assert!(
            out.iter().any(|f| f.message.contains("duplicate `const LOCAL_ID_BASE`")),
            "{out:?}"
        );
        assert!(out.iter().any(|f| f.message.contains("re-derives")), "{out:?}");
    }

    #[test]
    fn wrong_floor_value_is_flagged() {
        let src = "
            pub const LOCAL_ID_BASE: u64 = 1 << 40;
            fn open(sub: &mut Substrate) { sub.ensure_id_floor(LOCAL_ID_BASE, LOCAL_ID_BASE); }";
        let out = findings(&[("crates/daemon/src/shared.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("not the documented"), "{}", out[0].message);
    }

    #[test]
    fn unarmed_floor_is_flagged() {
        let src = "pub const LOCAL_ID_BASE: u64 = 1 << 48;";
        let out = findings(&[("crates/daemon/src/shared.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("ensure_id_floor"), "{}", out[0].message);
    }

    #[test]
    fn splice_loop_without_remap_is_flagged() {
        let src = "
            pub const LOCAL_ID_BASE: u64 = 1 << 48;
            fn open(sub: &mut Substrate) { sub.ensure_id_floor(LOCAL_ID_BASE, LOCAL_ID_BASE); }
            fn splice(overlay: Overlay, base: u64) {
                let staged = overlay.take_staged();
                let map_chunk = move |id: u64| if id >= LOCAL_ID_BASE { id - LOCAL_ID_BASE + base } else { id };
                for (name, data) in staged.fresh_of(FileKind::DiskChunk) {
                    write(map_chunk(parse(name)), data);
                }
                for (name, data) in staged.fresh_of(FileKind::Hook) {
                    write_hook(name, parse(name));
                }
            }";
        let out = findings(&[("crates/daemon/src/shared.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("FileKind::Hook"), "{}", out[0].message);
        assert!(out[0].message.contains("map_chunk"), "{}", out[0].message);
    }

    #[test]
    fn splice_without_any_helper_is_flagged() {
        let src = "
            pub const LOCAL_ID_BASE: u64 = 1 << 48;
            fn open(sub: &mut Substrate) { sub.ensure_id_floor(LOCAL_ID_BASE, LOCAL_ID_BASE); }
            fn splice(overlay: Overlay) {
                let staged = overlay.take_staged();
                for (name, data) in staged.fresh_of(FileKind::DiskChunk) { write(name, data); }
            }";
        let out = findings(&[("crates/daemon/src/shared.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no remap helper"), "{}", out[0].message);
    }

    #[test]
    fn non_daemon_workspaces_are_out_of_scope() {
        assert!(findings(&[("crates/core/src/gc.rs", "fn f() -> u64 { 1 << 48 }")]).is_empty());
    }
}
