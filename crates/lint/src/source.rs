//! Per-file lint model: the token stream plus two derived overlays.
//!
//! * a **test mask** marking tokens inside `#[cfg(test)]` / `#[test]`
//!   items (and whole files that exist only as test modules), so passes
//!   that police production code skip tests for free;
//! * the **allow directives** — `// lint: allow(NAME): reason` comments
//!   on a line of their own — that exempt the line they sit on *and the
//!   next line* from the named pass. A directive without a reason, or one
//!   trailing code, is itself reported: the reason is the reviewable
//!   artifact, not the exemption.

use crate::lexer::{lex, LineComment, Token};

/// One `// lint: allow(NAME): reason` comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The NAME inside the parentheses.
    pub name: String,
    /// Whether a non-empty reason follows the closing parenthesis.
    pub has_reason: bool,
}

/// A lexed source file with its lint overlays.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Token stream from [`lex`].
    pub toks: Vec<Token>,
    /// `test_mask[i]` is true when token `i` belongs to test-only code.
    pub test_mask: Vec<bool>,
    /// The allow directives on lines of their own, in file order.
    pub allows: Vec<AllowDirective>,
    /// Lines where a `// lint: allow(` comment follows code: it exempts
    /// nothing.
    pub trailing_allows: Vec<u32>,
}

impl SourceFile {
    /// Lexes `text` and computes the overlays.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let (toks, comments) = lex(text);
        let test_mask = compute_test_mask(rel, &toks);
        let (allows, trailing_allows) = scan_allow_directives(&comments);
        SourceFile { rel: rel.to_string(), toks, test_mask, allows, trailing_allows }
    }

    /// The `allow(name)` directive covering `line`: one on that line, or
    /// on the line directly above.
    pub fn directive_for(&self, line: u32, name: &str) -> Option<&AllowDirective> {
        self.allows.iter().find(|a| a.name == name && (a.line == line || a.line + 1 == line))
    }
}

/// Whole files that are test-only by construction: integration-test trees
/// (`tests/` directories inside a crate) and `*_tests.rs` modules that a
/// lib root includes under `#[cfg(test)]`.
fn path_is_test_only(rel: &str) -> bool {
    let in_tests_dir = rel.split('/').rev().skip(1).any(|comp| comp == "tests");
    in_tests_dir || rel.ends_with("_tests.rs")
}

fn compute_test_mask(rel: &str, toks: &[Token]) -> Vec<bool> {
    if path_is_test_only(rel) {
        return vec![true; toks.len()];
    }
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Outer attribute `#[...]` (inner `#![...]` never marks tests).
        let j = i + 1;
        if j < toks.len() && toks[j].is_punct('!') {
            i = j + 1;
            continue;
        }
        if j >= toks.len() || !toks[j].is_punct('[') {
            i += 1;
            continue;
        }
        let attr_end = match matching_close(toks, j, '[', ']') {
            Some(e) => e,
            None => break,
        };
        if attr_is_test(&toks[j + 1..attr_end]) {
            // Skip any further attributes on the same item, then mark the
            // item's body (first `{`..matching `}`) or through the `;` of
            // a bodiless item.
            let mut k = attr_end + 1;
            while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                match matching_close(toks, k + 1, '[', ']') {
                    Some(e) => k = e + 1,
                    None => break,
                }
            }
            let mut body_end = toks.len() - 1;
            let mut m = k;
            while m < toks.len() {
                if toks[m].is_punct('{') {
                    body_end = matching_close(toks, m, '{', '}').unwrap_or(toks.len() - 1);
                    break;
                }
                if toks[m].is_punct(';') {
                    body_end = m;
                    break;
                }
                m += 1;
            }
            for slot in mask.iter_mut().take(body_end + 1).skip(i) {
                *slot = true;
            }
            i = body_end + 1;
            continue;
        }
        i = attr_end + 1;
    }
    mask
}

/// True for `#[test]`, `#[cfg(test)]`, and any `cfg` attribute whose
/// predicate mentions `test` (e.g. `cfg(all(test, feature = "x"))`).
fn attr_is_test(attr: &[Token]) -> bool {
    if attr.len() == 1 && attr[0].is_ident("test") {
        return true;
    }
    attr.first().map(|t| t.is_ident("cfg")).unwrap_or(false)
        && attr.iter().any(|t| t.is_ident("test"))
}

/// Index of the token closing the bracket opened at `open_idx`, handling
/// nesting of the same bracket pair.
pub fn matching_close(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Own-line directives and the lines of trailing ones. Only a plain `//`
/// comment counts (doc comments start `///` or `//!`); the lexer has
/// already kept string literals that merely *mention* the syntax — e.g.
/// this linter's own messages — out of the comments.
fn scan_allow_directives(comments: &[LineComment]) -> (Vec<AllowDirective>, Vec<u32>) {
    let mut allows = Vec::new();
    let mut trailing = Vec::new();
    for c in comments {
        let Some(after) = c.text.strip_prefix(" lint: allow(") else { continue };
        if c.trailing {
            trailing.push(c.line);
            continue;
        }
        let Some(close) = after.find(')') else { continue };
        let name = after[..close].trim().to_string();
        let rest = after[close + 1..].trim_start();
        let has_reason = rest.starts_with(':') && !rest.trim_start_matches(':').trim().is_empty();
        allows.push(AllowDirective { line: c.line, name, has_reason });
    }
    (allows, trailing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_masked() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn prod2() {}";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let masked: Vec<_> = sf
            .toks
            .iter()
            .zip(&sf.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(masked, vec![false, true]);
        // Code after the test module is unmasked again.
        let prod2 = sf.toks.iter().position(|t| t.is_ident("prod2")).unwrap();
        assert!(!sf.test_mask[prod2]);
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn p() { b.unwrap(); }";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let flags: Vec<_> = sf
            .toks
            .iter()
            .zip(&sf.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn tests_dir_and_suffix_are_whole_file_tests() {
        let sf = SourceFile::parse("tests/tests/integration.rs", "fn f() { x.unwrap(); }");
        assert!(sf.test_mask.iter().all(|&m| m));
        let sf = SourceFile::parse("crates/core/src/engine_tests.rs", "fn f() {}");
        assert!(sf.test_mask.iter().all(|&m| m));
    }

    #[test]
    fn allow_directive_parsing_and_reach() {
        let src = "// lint: allow(raw-fs): checked above\nfs::write(p, b)?;\n\
                   // lint: allow(lock-order)\nlet z = 1;\n\
                   f(); // lint: allow(id-range): trails code\n\
                   /// lint: allow(raw-fs): a doc comment\n\
                   let s = \"// lint: allow(raw-fs): a string\";";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(sf.directive_for(2, "raw-fs").is_some());
        assert!(sf.directive_for(2, "lock-order").is_none());
        assert!(sf.directive_for(4, "lock-order").is_some());
        assert!(sf.directive_for(3, "raw-fs").is_none());
        let no_reason: Vec<_> = sf.allows.iter().filter(|a| !a.has_reason).collect();
        assert_eq!(no_reason.len(), 1);
        assert_eq!(no_reason[0].name, "lock-order");
        // The trailing one binds nothing; doc and string text is no directive.
        assert_eq!(sf.allows.len(), 2);
        assert_eq!(sf.trailing_allows, [5]);
        assert!(sf.directive_for(5, "id-range").is_none());
    }
}
