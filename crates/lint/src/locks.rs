//! L7 — lock-order discipline over the daemon and core crates.
//!
//! The daemon's concurrency contract is a strict lock hierarchy: the
//! engine lock (`SharedStore.inner`) is the top of the order, and while
//! holding it code may take the session-registry lock or a hook-index
//! shard lock — never the reverse, and never a cycle anywhere. A single
//! violation is a potential deadlock that no test schedule may ever hit,
//! which is exactly why it belongs to the linter and not the test suite.
//!
//! The pass extracts the acquisition graph statically from the token
//! streams:
//!
//! 1. **Lock declarations** — struct fields whose type mentions `Mutex`
//!    or `RwLock` in `crates/daemon/src/` and `crates/core/src/`. Each
//!    becomes a node `Struct.field`.
//! 2. **Acquisition sites** — `….lock()` / `….read()` / `….write()` with
//!    *empty* argument lists (so `io::Write::write(buf)` never matches),
//!    resolved to a declared lock through the receiver chain
//!    (`self.field`, `self.other.field` via field types) with a
//!    statement-scoped fallback for closure forms like
//!    `shards.iter().map(|s| s.read().len())`.
//! 3. **Guard scopes** — a `let guard = ….lock();` holds until
//!    `drop(guard)` or the end of the enclosing block; a bare temporary
//!    holds to the end of its statement. This is what lets the daemon's
//!    commit loop re-acquire after an explicit `drop(inner)` without a
//!    false self-edge.
//! 4. **Call edges** — calls to functions declared in the scanned files
//!    (resolved by unique name, minus a deny-list of ubiquitous method
//!    names like `len`/`insert` that would mis-resolve standard-library
//!    calls) propagate the callee's transitively-acquired lock set to
//!    the caller's held-set, to a fixpoint.
//!
//! Findings: any edge that closes a cycle (including a re-acquisition
//! self-edge), and any acquisition of the engine lock while *any* other
//! lock is held — the engine lock is the hierarchy root, so it must
//! always be taken first.

use crate::lexer::{TokKind, Token};
use crate::passes::Workspace;
use crate::source::{matching_close, SourceFile};
use crate::Finding;

/// Method names that are never resolved to in-workspace functions: they
/// shadow ubiquitous standard-library methods, so a call through them is
/// far more likely `Vec::len` than `SharedHookIndex::len`. Lock-relevant
/// facts behind these names must also be reachable through a uniquely
/// named function (e.g. the hook index's `occupancy`) to be seen.
const CALL_DENY: &[&str] = &[
    "clear",
    "clone",
    "contains",
    "contains_key",
    "default",
    "delete",
    "drop",
    "finish",
    "flush",
    "fmt",
    "get",
    "get_range",
    "insert",
    "is_empty",
    "iter",
    "len",
    "lock",
    "new",
    "next",
    "pop",
    "push",
    "put",
    "read",
    "remove",
    "take",
    "update",
    "write",
];

/// A declared lock: a struct field of `Mutex`/`RwLock` type.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Graph node id, `Struct.field`.
    pub id: String,
    /// Owning struct name.
    pub strukt: String,
    /// Field name.
    pub field: String,
    /// Declaring file (workspace-relative).
    pub file: String,
    /// Declaration line.
    pub line: u32,
}

/// One "acquires `to` while holding `from`" edge, anchored at the
/// acquisition (or call) site that creates it.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock held at the site.
    pub from: String,
    /// Lock acquired at the site (directly or via a resolved call).
    pub to: String,
    /// Site file.
    pub file: String,
    /// Site line.
    pub line: u32,
}

/// The extracted acquisition graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every declared lock in scope.
    pub locks: Vec<LockDecl>,
    /// Every held→acquired edge found.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// True when the graph contains an edge `from → to`.
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }
}

fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/daemon/src/") || rel.starts_with("crates/core/src/")
}

/// The engine lock is the hierarchy root: `SharedStore`'s mutex in the
/// daemon crate.
fn is_engine(decl: &LockDecl) -> bool {
    decl.file.starts_with("crates/daemon/") && decl.strukt == "SharedStore"
}

// ---------------------------------------------------------------------
// Declaration scan
// ---------------------------------------------------------------------

/// A struct field with the identifiers appearing in its type, used both
/// for lock detection and for resolving `self.other.field` chains.
#[derive(Debug)]
struct FieldDecl {
    strukt: String,
    field: String,
    type_idents: Vec<String>,
    file: String,
    line: u32,
}

/// Skips a generic argument list starting at `<`, returning the index
/// just past the matching `>`.
fn skip_generics(toks: &[Token], mut i: usize) -> usize {
    if !toks.get(i).map(|t| t.is_punct('<')).unwrap_or(false) {
        return i;
    }
    let mut depth = 0isize;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

fn scan_fields(file: &SourceFile, out: &mut Vec<FieldDecl>) {
    let toks = &file.toks;
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if !(toks[i].is_ident("struct") && toks[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let mut j = skip_generics(toks, i + 2);
        // Only brace structs have fields; tuple/unit structs end at `(`/`;`.
        if !toks.get(j).map(|t| t.is_punct('{')).unwrap_or(false) {
            i += 1;
            continue;
        }
        let Some(close) = matching_close(toks, j, '{', '}') else {
            return;
        };
        j += 1;
        while j < close {
            // Skip field attributes and visibility.
            if toks[j].is_punct('#') && toks.get(j + 1).map(|t| t.is_punct('[')) == Some(true) {
                j = matching_close(toks, j + 1, '[', ']').map(|e| e + 1).unwrap_or(close);
                continue;
            }
            if toks[j].is_ident("pub") {
                j += 1;
                if toks.get(j).map(|t| t.is_punct('(')) == Some(true) {
                    j = matching_close(toks, j, '(', ')').map(|e| e + 1).unwrap_or(close);
                }
                continue;
            }
            // `field: Type,` — collect type idents up to the comma at
            // field depth (commas inside <>/() belong to the type).
            if toks[j].kind == TokKind::Ident
                && toks.get(j + 1).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(j + 2).map(|t| !t.is_punct(':')).unwrap_or(false)
            {
                let field = toks[j].text.clone();
                let line = toks[j].line;
                let mut k = j + 2;
                let mut type_idents = Vec::new();
                let mut angle = 0isize;
                let mut paren = 0isize;
                while k < close {
                    let t = &toks[k];
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        angle -= 1;
                    } else if t.is_punct('(') || t.is_punct('[') {
                        paren += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        paren -= 1;
                    } else if t.is_punct(',') && angle <= 0 && paren <= 0 {
                        break;
                    } else if t.kind == TokKind::Ident {
                        type_idents.push(t.text.clone());
                    }
                    k += 1;
                }
                out.push(FieldDecl {
                    strukt: name.clone(),
                    field,
                    type_idents,
                    file: file.rel.clone(),
                    line,
                });
                j = k + 1;
                continue;
            }
            j += 1;
        }
        i = close + 1;
    }
}

// ---------------------------------------------------------------------
// Function scan
// ---------------------------------------------------------------------

/// One function in the scanned files, with its body token range and the
/// impl type it hangs off (None for free functions).
struct FnDecl {
    name: String,
    file_idx: usize,
    impl_type: Option<String>,
    body: (usize, usize),
}

/// `impl` blocks as `(type name, token range)`.
fn scan_impls(file: &SourceFile) -> Vec<(String, (usize, usize))> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = skip_generics(toks, i + 1);
        // Header runs to the opening brace; the implemented type is the
        // first path ident after `for` when present (trait impls), else
        // the first ident of the header (inherent impls).
        let mut first: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            let t = &toks[j];
            if t.is_ident("for") {
                saw_for = true;
            } else if t.kind == TokKind::Ident && !t.is_ident("where") && !t.is_ident("dyn") {
                if saw_for && after_for.is_none() {
                    after_for = Some(t.text.clone());
                }
                if first.is_none() {
                    first = Some(t.text.clone());
                }
                // Path types: keep the *last* segment after `for`.
                if saw_for
                    && toks.get(j + 1).map(|t| t.is_punct(':')) == Some(true)
                    && toks.get(j + 2).map(|t| t.is_punct(':')) == Some(true)
                {
                    after_for = None; // a later segment will overwrite
                }
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            i = j + 1;
            continue;
        }
        let Some(close) = matching_close(toks, j, '{', '}') else {
            break;
        };
        if let Some(name) = after_for.or(first) {
            out.push((name, (j, close)));
        }
        i = j + 1; // descend: nested impls don't exist, but fns do
    }
    out
}

fn scan_fns(files: &[&SourceFile]) -> Vec<FnDecl> {
    let mut out = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        let impls = scan_impls(file);
        let toks = &file.toks;
        let mut i = 0usize;
        while i + 1 < toks.len() {
            if !(toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident) {
                i += 1;
                continue;
            }
            // Find the body `{` (or `;` for trait-method declarations).
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j >= toks.len() || toks[j].is_punct(';') {
                i = j + 1;
                continue;
            }
            let Some(close) = matching_close(toks, j, '{', '}') else {
                break;
            };
            let impl_type =
                impls.iter().find(|(_, (a, b))| *a < i && i < *b).map(|(name, _)| name.clone());
            out.push(FnDecl {
                name: toks[i + 1].text.clone(),
                file_idx,
                impl_type,
                body: (j, close),
            });
            // Continue *inside* the body too: nested fns are rare but
            // scanning them twice only duplicates edges, never loses one.
            i = j + 1;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Acquisition + call extraction
// ---------------------------------------------------------------------

/// Backward scan for the start of the statement containing `k`: the token
/// after the closest preceding `;`, `{` or `}`.
fn stmt_start(toks: &[Token], k: usize, lo: usize) -> usize {
    let mut i = k;
    while i > lo {
        let t = &toks[i - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return i;
        }
        i -= 1;
    }
    lo
}

/// Walks the receiver chain backwards from the `.` before a lock method,
/// collecting the member idents (`self.index.shards[x]` → `[self, index,
/// shards]`), skipping over index/call argument lists.
fn receiver_chain(toks: &[Token], dot: usize, lo: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut i = dot; // points at the '.'
    loop {
        if i == lo {
            break;
        }
        let mut p = i - 1;
        // Skip a trailing `[...]` or `(...)` group backwards.
        loop {
            let t = &toks[p];
            let (close, open) = if t.is_punct(']') {
                (']', '[')
            } else if t.is_punct(')') {
                (')', '(')
            } else {
                break;
            };
            let mut depth = 0isize;
            while p > lo {
                if toks[p].is_punct(close) {
                    depth += 1;
                } else if toks[p].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                p -= 1;
            }
            if p == lo {
                return chain;
            }
            p -= 1;
        }
        if toks[p].kind != TokKind::Ident {
            break;
        }
        chain.push(toks[p].text.clone());
        if p == lo || !toks[p - 1].is_punct('.') {
            break;
        }
        i = p - 1;
    }
    chain.reverse();
    chain
}

/// Builds the full acquisition graph for the workspace.
pub fn lock_graph(ws: &Workspace) -> LockGraph {
    let files: Vec<&SourceFile> = ws.files.iter().filter(|f| in_scope(&f.rel)).collect();

    let mut fields = Vec::new();
    for f in &files {
        scan_fields(f, &mut fields);
    }
    let struct_names: Vec<&str> = {
        let mut v: Vec<&str> = fields.iter().map(|f| f.strukt.as_str()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    // Lock decls: fields whose type mentions Mutex/RwLock.
    let locks: Vec<LockDecl> = fields
        .iter()
        .filter(|f| f.type_idents.iter().any(|t| t == "Mutex" || t == "RwLock"))
        .map(|f| LockDecl {
            id: format!("{}.{}", f.strukt, f.field),
            strukt: f.strukt.clone(),
            field: f.field.clone(),
            file: f.file.clone(),
            line: f.line,
        })
        .collect();
    // `self.other.field` resolution: a field's type resolves to the last
    // type ident naming a scanned struct (`Arc<SessionRegistry>` →
    // `SessionRegistry`).
    let field_type = |strukt: &str, field: &str| -> Option<String> {
        fields.iter().find(|f| f.strukt == strukt && f.field == field).and_then(|f| {
            f.type_idents.iter().rev().find(|t| struct_names.contains(&t.as_str())).cloned()
        })
    };
    let lock_of = |strukt: &str, field: &str| -> Option<usize> {
        locks.iter().position(|l| l.strukt == strukt && l.field == field)
    };
    let unique_lock_field = |field: &str| -> Option<usize> {
        let hits: Vec<usize> =
            locks.iter().enumerate().filter(|(_, l)| l.field == field).map(|(i, _)| i).collect();
        if hits.len() == 1 {
            Some(hits[0])
        } else {
            None
        }
    };

    let fns = scan_fns(&files);
    // Unique-name resolution: a call `foo(...)` resolves only when exactly
    // one scanned function is named `foo`.
    let fn_by_name = |name: &str| -> Option<usize> {
        let hits: Vec<usize> =
            fns.iter().enumerate().filter(|(_, f)| f.name == name).map(|(i, _)| i).collect();
        if hits.len() == 1 {
            Some(hits[0])
        } else {
            None
        }
    };

    struct Held {
        lock: usize,
        guard: Option<String>,
        depth: usize,
        temp: bool,
    }
    struct CallSite {
        callee: usize,
        held: Vec<usize>,
        file: String,
        line: u32,
    }

    let mut edges: Vec<LockEdge> = Vec::new();
    let mut calls: Vec<CallSite> = Vec::new();
    // Direct lock sets per fn, then closed over calls to a fixpoint.
    let mut fn_locks: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    let mut fn_calls: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];

    for (fi, fun) in fns.iter().enumerate() {
        let file = files[fun.file_idx];
        let toks = &file.toks;
        let (body_open, body_close) = fun.body;
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        let mut k = body_open;
        while k <= body_close {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
                k += 1;
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                held.retain(|h| depth >= h.depth);
                k += 1;
                continue;
            }
            if t.is_punct(';') {
                held.retain(|h| !h.temp);
                k += 1;
                continue;
            }
            if file.test_mask[k] {
                k += 1;
                continue;
            }
            // Explicit guard release: `drop(guard)`.
            if t.is_ident("drop")
                && toks.get(k + 1).map(|t| t.is_punct('(')) == Some(true)
                && toks.get(k + 2).map(|t| t.kind == TokKind::Ident) == Some(true)
                && toks.get(k + 3).map(|t| t.is_punct(')')) == Some(true)
            {
                let name = &toks[k + 2].text;
                held.retain(|h| h.guard.as_deref() != Some(name.as_str()));
                k += 4;
                continue;
            }
            // Acquisition: `.lock()` / `.read()` / `.write()` with no args.
            let is_acquire = t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "lock" | "read" | "write")
                && k > body_open
                && toks[k - 1].is_punct('.')
                && toks.get(k + 1).map(|t| t.is_punct('(')) == Some(true)
                && toks.get(k + 2).map(|t| t.is_punct(')')) == Some(true);
            if is_acquire {
                let start = stmt_start(toks, k, body_open);
                let chain = receiver_chain(toks, k - 1, start.saturating_sub(1));
                let mut resolved: Option<usize> = None;
                // Rightmost chain ident that is a lock field, qualified by
                // the ident before it.
                for (ci, name) in chain.iter().enumerate().rev() {
                    let qualifier = if ci > 0 { Some(chain[ci - 1].as_str()) } else { None };
                    let candidate = match qualifier {
                        Some("self") | None => fun
                            .impl_type
                            .as_deref()
                            .and_then(|t| lock_of(t, name))
                            .or_else(|| unique_lock_field(name)),
                        Some(q) => fun
                            .impl_type
                            .as_deref()
                            .and_then(|t| field_type(t, q))
                            .and_then(|qt| lock_of(&qt, name))
                            .or_else(|| unique_lock_field(name)),
                    };
                    if candidate.is_some() {
                        resolved = candidate;
                        break;
                    }
                }
                // Closure fallback: `shards.iter().map(|s| s.read()…)` —
                // the receiver is a closure binding, but the statement
                // names the lock field it iterates.
                if resolved.is_none() {
                    if let Some(t) = fun.impl_type.as_deref() {
                        resolved = toks[start..k]
                            .iter()
                            .filter(|t| t.kind == TokKind::Ident)
                            .find_map(|tok| lock_of(t, &tok.text));
                    }
                }
                if let Some(lock) = resolved {
                    for h in &held {
                        edges.push(LockEdge {
                            from: locks[h.lock].id.clone(),
                            to: locks[lock].id.clone(),
                            file: file.rel.clone(),
                            line: t.line,
                        });
                    }
                    if !fn_locks[fi].contains(&lock) {
                        fn_locks[fi].push(lock);
                    }
                    // Guard binding: the statement is `let [mut] NAME = …`.
                    let mut s = start;
                    let guard = if toks.get(s).map(|t| t.is_ident("let")) == Some(true) {
                        s += 1;
                        if toks.get(s).map(|t| t.is_ident("mut")) == Some(true) {
                            s += 1;
                        }
                        match (toks.get(s), toks.get(s + 1)) {
                            (Some(n), Some(eq)) if n.kind == TokKind::Ident && eq.is_punct('=') => {
                                Some(n.text.clone())
                            }
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let temp = guard.is_none();
                    held.push(Held { lock, guard, depth, temp });
                }
                k += 3;
                continue;
            }
            // Call into a scanned function (by unique name, deny-listed
            // ubiquitous method names excluded).
            let is_call = t.kind == TokKind::Ident
                && toks.get(k + 1).map(|t| t.is_punct('(')) == Some(true)
                && !(k > 0 && toks[k - 1].is_ident("fn"))
                && !CALL_DENY.contains(&t.text.as_str());
            if is_call {
                if let Some(callee) = fn_by_name(&t.text) {
                    if callee != fi {
                        if !fn_calls[fi].contains(&callee) {
                            fn_calls[fi].push(callee);
                        }
                        if !held.is_empty() {
                            calls.push(CallSite {
                                callee,
                                held: held.iter().map(|h| h.lock).collect(),
                                file: file.rel.clone(),
                                line: t.line,
                            });
                        }
                    }
                }
            }
            k += 1;
        }
    }

    // Fixpoint: a function's lock set includes every callee's.
    let mut changed = true;
    while changed {
        changed = false;
        for fi in 0..fns.len() {
            let callees = fn_calls[fi].clone();
            for callee in callees {
                let callee_locks = fn_locks[callee].clone();
                for l in callee_locks {
                    if !fn_locks[fi].contains(&l) {
                        fn_locks[fi].push(l);
                        changed = true;
                    }
                }
            }
        }
    }
    for site in &calls {
        for &h in &site.held {
            for &l in &fn_locks[site.callee] {
                edges.push(LockEdge {
                    from: locks[h].id.clone(),
                    to: locks[l].id.clone(),
                    file: site.file.clone(),
                    line: site.line,
                });
            }
        }
    }

    LockGraph { locks, edges }
}

/// True when `to` can reach `from` through the edge set — i.e. adding
/// `from → to` closes a cycle.
fn reaches(edges: &[LockEdge], from: &str, to: &str) -> bool {
    let mut stack: Vec<&str> = vec![to];
    let mut seen: Vec<&str> = vec![to];
    while let Some(node) = stack.pop() {
        if node == from {
            return true;
        }
        for e in edges {
            if e.from == node && !seen.contains(&e.to.as_str()) {
                seen.push(&e.to);
                stack.push(&e.to);
            }
        }
    }
    false
}

/// Runs the L7 pass: extracts the graph and reports cycles and edges
/// into the engine lock.
pub fn pass_l7_lock_order(ws: &Workspace, out: &mut Vec<Finding>) {
    let graph = lock_graph(ws);
    let mut reported: Vec<(String, String)> = Vec::new();
    for edge in &graph.edges {
        let key = (edge.from.clone(), edge.to.clone());
        if reported.contains(&key) {
            continue;
        }
        let cyclic = edge.from == edge.to || reaches(&graph.edges, &edge.from, &edge.to);
        let into_engine =
            graph.locks.iter().any(|l| l.id == edge.to && is_engine(l) && edge.from != edge.to);
        if cyclic {
            reported.push(key);
            out.push(Finding {
                pass: "L7-lock-order",
                file: edge.file.clone(),
                line: edge.line,
                message: if edge.from == edge.to {
                    format!(
                        "re-acquires `{}` while already holding it: self-deadlock \
                         (drop the guard first)",
                        edge.to
                    )
                } else {
                    format!(
                        "acquiring `{}` while holding `{}` closes a lock-order cycle: \
                         `{}` is (transitively) acquired while `{}` is held elsewhere",
                        edge.to, edge.from, edge.from, edge.to
                    )
                },
            });
        } else if into_engine {
            reported.push(key);
            out.push(Finding {
                pass: "L7-lock-order",
                file: edge.file.clone(),
                line: edge.line,
                message: format!(
                    "acquires the engine lock `{}` while holding `{}`: the engine lock \
                     is the hierarchy root and must be taken first",
                    edge.to, edge.from
                ),
            });
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

    const REGISTRY: &str = "
        pub struct SessionRegistry { inner: Mutex<Map<u64, u64>> }
        impl SessionRegistry {
            pub fn register(&self, sid: u64) { let mut inner = self.inner.lock(); inner.insert(sid, 0); }
            pub fn deregister(&self, sid: u64) { self.inner.lock().remove(&sid); }
            pub fn min_watermark(&self) -> Option<u64> { self.inner.lock().values().min() }
        }";

    const INDEX: &str = "
        pub struct SharedHookIndex { shards: Vec<RwLock<Map<u64, u64>>> }
        impl SharedHookIndex {
            pub fn occupancy(&self) -> usize { self.shards.iter().map(|s| s.read().len()).sum() }
            pub fn add(&self, k: u64) { self.shards[0].write().insert(k, k); }
        }";

    fn shared(body: &str) -> String {
        format!(
            "pub struct SharedStore {{ inner: Mutex<StoreInner>, registry: SessionRegistry, \
             index: SharedHookIndex }}\nimpl SharedStore {{ {body} }}"
        )
    }

    #[test]
    fn extracts_the_daemon_shaped_graph() {
        let shared_src = shared(
            "pub fn begin(&self) { let mut inner = self.inner.lock(); register(0); }
             pub fn stats(&self) -> usize { let inner = self.inner.lock(); occupancy(self) }",
        );
        // Call resolution is name-based; spell the calls unqualified so
        // the test exercises exactly that mechanism.
        let ws = ws_of(&[
            ("crates/daemon/src/registry.rs", REGISTRY),
            ("crates/daemon/src/index.rs", INDEX),
            ("crates/daemon/src/shared.rs", &shared_src),
        ]);
        let g = lock_graph(&ws);
        assert_eq!(g.locks.len(), 3, "{:?}", g.locks);
        assert!(g.has_edge("SharedStore.inner", "SessionRegistry.inner"), "{:?}", g.edges);
        assert!(g.has_edge("SharedStore.inner", "SharedHookIndex.shards"), "{:?}", g.edges);
        let mut out = Vec::new();
        pass_l7_lock_order(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn method_call_chain_resolves_through_field_types() {
        let shared_src = shared(
            "pub fn begin(&self) { let mut inner = self.inner.lock(); \
             self.registry.register(0); }",
        );
        let ws = ws_of(&[
            ("crates/daemon/src/registry.rs", REGISTRY),
            ("crates/daemon/src/shared.rs", &shared_src),
        ]);
        let g = lock_graph(&ws);
        assert!(g.has_edge("SharedStore.inner", "SessionRegistry.inner"), "{:?}", g.edges);
    }

    #[test]
    fn qualified_foreign_lock_resolves_via_field_type_not_self() {
        // `self.registry.inner.lock()` must resolve to the *registry's*
        // lock even though the enclosing type also has an `inner` field.
        let shared_src = shared(
            "pub fn leak(&self) { let g = self.registry.inner.lock(); \
             let mut inner = self.inner.lock(); }",
        );
        let ws = ws_of(&[
            ("crates/daemon/src/registry.rs", REGISTRY),
            ("crates/daemon/src/shared.rs", &shared_src),
        ]);
        let g = lock_graph(&ws);
        assert!(g.has_edge("SessionRegistry.inner", "SharedStore.inner"), "{:?}", g.edges);
        let mut out = Vec::new();
        pass_l7_lock_order(&ws, &mut out);
        assert!(
            out.iter().any(|f| f.message.contains("engine lock")),
            "holding registry while taking engine must be flagged: {out:?}"
        );
    }

    #[test]
    fn drop_releases_the_guard_before_reacquisition() {
        let shared_src = shared(
            "pub fn retry(&self) { loop { let mut inner = self.inner.lock(); drop(inner); \
             let mut inner = self.inner.lock(); drop(inner); } }",
        );
        let ws = ws_of(&[("crates/daemon/src/shared.rs", &shared_src)]);
        let mut out = Vec::new();
        pass_l7_lock_order(&ws, &mut out);
        assert!(out.is_empty(), "drop() must release the guard: {out:?}");
    }

    #[test]
    fn reacquisition_without_drop_is_a_self_deadlock() {
        let shared_src =
            shared("pub fn stuck(&self) { let a = self.inner.lock(); let b = self.inner.lock(); }");
        let ws = ws_of(&[("crates/daemon/src/shared.rs", &shared_src)]);
        let mut out = Vec::new();
        pass_l7_lock_order(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("self-deadlock"), "{}", out[0].message);
    }

    #[test]
    fn block_scope_ends_a_guard() {
        let shared_src = shared(
            "pub fn scoped(&self) { { let g = self.inner.lock(); } \
             let h = self.inner.lock(); }",
        );
        let ws = ws_of(&[("crates/daemon/src/shared.rs", &shared_src)]);
        let mut out = Vec::new();
        pass_l7_lock_order(&ws, &mut out);
        assert!(out.is_empty(), "block end must release the guard: {out:?}");
    }

    #[test]
    fn cycles_across_functions_are_found() {
        let registry = "
            pub struct SessionRegistry { inner: Mutex<u32> }
            impl SessionRegistry {
                pub fn cross(&self, s: &SharedStore) { let g = self.inner.lock(); poke(s); }
            }";
        let shared_src = shared(
            "pub fn begin(&self) { let mut inner = self.inner.lock(); \
             self.registry.register_watermark(0); }
             pub fn register_watermark(&self, w: u64) { let g = self.registry.inner.lock(); }
             pub fn poke(&self) { let mut inner = self.inner.lock(); }",
        );
        // engine → registry (begin → register_watermark) and
        // registry → engine (cross → poke): a cycle.
        let ws = ws_of(&[
            ("crates/daemon/src/registry.rs", registry),
            ("crates/daemon/src/shared.rs", &shared_src),
        ]);
        let g = lock_graph(&ws);
        assert!(g.has_edge("SharedStore.inner", "SessionRegistry.inner"), "{:?}", g.edges);
        assert!(g.has_edge("SessionRegistry.inner", "SharedStore.inner"), "{:?}", g.edges);
        let mut out = Vec::new();
        pass_l7_lock_order(&ws, &mut out);
        assert!(out.iter().any(|f| f.message.contains("cycle")), "{out:?}");
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let src = "
            pub struct Writer { file: File }
            impl Writer {
                pub fn save(&mut self, buf: &[u8]) { self.file.write(buf); self.file.read(); }
            }";
        let ws = ws_of(&[("crates/core/src/io.rs", src)]);
        let g = lock_graph(&ws);
        assert!(g.locks.is_empty());
        assert!(g.edges.is_empty());
    }

    #[test]
    fn deny_listed_names_do_not_resolve() {
        // `v.len()` while holding the engine lock must NOT resolve to the
        // index's lock-taking `len`-alike; only the uniquely named
        // `occupancy` may.
        let index = "
            pub struct SharedHookIndex { shards: Vec<RwLock<u32>> }
            impl SharedHookIndex {
                pub fn len(&self) -> usize { self.shards.iter().map(|s| s.read().len()).sum() }
            }";
        let shared_src = shared(
            "pub fn stats(&self, v: &Vec<u32>) -> usize { \
             let inner = self.inner.lock(); v.len() }",
        );
        let ws = ws_of(&[
            ("crates/daemon/src/index.rs", index),
            ("crates/daemon/src/shared.rs", &shared_src),
        ]);
        let g = lock_graph(&ws);
        assert!(
            !g.has_edge("SharedStore.inner", "SharedHookIndex.shards"),
            "deny-listed `len` must not create an edge: {:?}",
            g.edges
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "
            pub struct T { m: Mutex<u32> }
            #[cfg(test)]
            mod tests {
                fn nested(t: &super::T) { let a = t.m.lock(); let b = t.m.lock(); }
            }";
        let ws = ws_of(&[("crates/daemon/src/t.rs", src)]);
        let mut out = Vec::new();
        pass_l7_lock_order(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
