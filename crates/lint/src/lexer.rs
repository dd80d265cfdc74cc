//! A minimal Rust lexer: just enough token structure for pattern-matching
//! lint passes, with line numbers for findings.
//!
//! The goal is *not* a faithful Rust grammar — it is to never confuse the
//! constructs that would make a text-level `grep` lie:
//!
//! * comments (line, doc, and **nested** block comments) produce no tokens
//!   — line comments are returned on the side, for the allow directives;
//! * string/char literals produce single tokens, so `"panic!("` inside a
//!   string never looks like a macro call — including raw strings
//!   (`r#"…"#`), byte strings, and escapes;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`), so an
//!   apostrophe never swallows the rest of the file.
//!
//! Everything else (numbers, multi-char operators) is kept deliberately
//! dumb: operators come out as single-character [`TokKind::Punct`] tokens
//! and passes match e.g. `::` as two consecutive `:` tokens.

/// Coarse token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `fn`, `FileKind`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — kept distinct so it never parses as an
    /// unterminated char literal.
    Lifetime,
    /// String literal (normal, raw, or byte). `text` holds the contents
    /// between the delimiters, escapes unprocessed.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Any other single character (`.`, `(`, `::` as two tokens, …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's text (for [`TokKind::Str`], the unquoted contents).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// True when this token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True when this token is the single punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// One `//` comment (doc comments included), which yields no token.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based line of the comment.
    pub line: u32,
    /// The text after the `//`.
    pub text: String,
    /// True when code precedes the comment on its line.
    pub trailing: bool,
}

/// Lexes `src` into a token stream and its line comments. Never fails:
/// malformed input (e.g. an unterminated string) simply ends the current
/// token at end-of-file, which is good enough for linting — the compiler
/// rejects such files before the linter ever matters.
pub fn lex(src: &str) -> (Vec<Token>, Vec<LineComment>) {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments (incl. /// and //!): set aside to end of line.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let trailing =
                chars[..i].iter().rev().take_while(|&&c| c != '\n').any(|c| !c.is_whitespace());
            let start = i + 2;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            comments.push(LineComment { line, text: chars[start..i].iter().collect(), trailing });
            continue;
        }
        // Block comments, which nest in Rust.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings and byte strings: r"…", r#"…"#, b"…", br#"…"#, b'…'.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            let mut raw = c == 'r';
            if c == 'b' && chars.get(j) == Some(&'r') {
                raw = true;
                j += 1;
            }
            if raw && matches!(chars.get(j), Some(&'"') | Some(&'#')) {
                // Raw (byte) string: count hashes, then scan for the
                // closing quote followed by the same number of hashes.
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    j += 1;
                    let start = j;
                    'scan: while j < chars.len() {
                        if chars[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                break 'scan;
                            }
                        }
                        j += 1;
                    }
                    let text: String = chars[start..j.min(chars.len())].iter().collect();
                    toks.push(Token { kind: TokKind::Str, text, line });
                    line += count_lines(&chars[start..j.min(chars.len())]);
                    i = (j + 1 + hashes).min(chars.len());
                    continue;
                }
            } else if c == 'b' && chars.get(j) == Some(&'"') {
                // Byte string: same as a normal string, shifted by one.
                i += 1;
                // Fall through to the normal-string arm below via goto-less
                // duplication: handled by not continuing here.
            } else if c == 'b' && chars.get(j) == Some(&'\'') {
                // Byte char literal.
                i += 1;
                // Falls through to the char-literal arm below.
            }
        }
        let c = chars[i];
        if c == '"' {
            let mut j = i + 1;
            let start = j;
            while j < chars.len() && chars[j] != '"' {
                if chars[j] == '\\' {
                    j += 1; // skip the escaped character
                }
                j += 1;
            }
            let text: String = chars[start..j.min(chars.len())].iter().collect();
            toks.push(Token { kind: TokKind::Str, text, line });
            line += count_lines(&chars[start..j.min(chars.len())]);
            i = (j + 1).min(chars.len());
            continue;
        }
        if c == '\'' {
            // Lifetime iff a label-like ident follows without a closing
            // quote right after one character ('a' is a char, 'a is a
            // lifetime, '\n' is a char).
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            if next.map(is_ident_start).unwrap_or(false) && after != Some('\'') {
                let mut j = i + 1;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let text: String = chars[i..j].iter().collect();
                toks.push(Token { kind: TokKind::Lifetime, text, line });
                i = j;
                continue;
            }
            let mut j = i + 1;
            if chars.get(j) == Some(&'\\') {
                j += 1;
                if chars.get(j) == Some(&'u') {
                    while j < chars.len() && chars[j] != '}' {
                        j += 1;
                    }
                }
                j += 1;
            } else {
                j += 1;
            }
            // Now expect the closing quote.
            if chars.get(j) == Some(&'\'') {
                j += 1;
            }
            let text: String = chars[i..j.min(chars.len())].iter().collect();
            toks.push(Token { kind: TokKind::Char, text, line });
            i = j.min(chars.len());
            continue;
        }
        if is_ident_start(c) {
            let mut j = i;
            while j < chars.len() && is_ident_continue(chars[j]) {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            toks.push(Token { kind: TokKind::Ident, text, line });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            // Dumb numeric scan: suffixes and hex digits fold in; `1.5`
            // lexes as Num(1) Punct(.) Num(5), which no pass cares about.
            let mut j = i;
            while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            toks.push(Token { kind: TokKind::Num, text, line });
            i = j;
            continue;
        }
        toks.push(Token { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    (toks, comments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).0.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_produce_no_tokens() {
        assert!(kinds("// panic!(\"x\")\n/* unwrap /* nested */ still */").is_empty());
        let toks = kinds("a /* c */ b");
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn strings_are_single_tokens() {
        let toks = kinds(r#"f("panic!(", r"unwrap()", b"x\"y")"#);
        let strs: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::Str).map(|(_, t)| t.clone()).collect();
        assert_eq!(strs, vec!["panic!(", "unwrap()", "x\\\"y"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds("r#\"has \"quotes\" inside\"# after");
        assert_eq!(toks[0].0, TokKind::Str);
        assert_eq!(toks[0].1, "has \"quotes\" inside");
        assert!(toks[1].1 == "after");
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("&'a str; 'x'; '\\n'; 'static");
        assert_eq!(toks[1].0, TokKind::Lifetime);
        let chars = toks.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(chars, 2);
        assert_eq!(toks.last().map(|t| t.0), Some(TokKind::Lifetime));
    }

    #[test]
    fn lines_are_tracked_across_multiline_constructs() {
        let (toks, _) = lex("a\n/* x\ny */\nb\n\"s1\ns2\"\nc");
        let find = |name: &str| toks.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(4));
        assert_eq!(find("c"), Some(7));
    }
}
