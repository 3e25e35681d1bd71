//! A hand-rolled lexical scanner for Rust sources, in the same spirit as
//! [`sam_util::json`]: a small, total, dependency-free pass that turns a
//! source file into the token stream the rules engine needs — never a full
//! parser.
//!
//! The scanner produces two things per file:
//!
//! - a flat [`Token`] stream (identifiers, single-character punctuation,
//!   and string-literal *contents*) with 1-based line numbers; comments,
//!   numbers, lifetimes, and char literals are consumed but emit nothing;
//! - a per-token region mark: whether a token sits inside test code
//!   (`#[test]` / `#[cfg(test)]`-attributed items).
//!
//! The scanner is total: any byte soup yields *some* token stream without
//! panicking (a property test pins this down). Malformed constructs
//! degrade to best-effort tokens rather than errors — a linter must never
//! be the thing that crashes on the code it judges.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// A string literal; [`Token::text`] holds the (raw, unescaped)
    /// contents without the surrounding quotes.
    Str,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Identifier text, punctuation character, or string contents.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// A scanned source file: tokens plus test-region marks.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Per-token: inside a `#[test]`/`#[cfg(test)]`-attributed item.
    pub in_test: Vec<bool>,
}

/// Scans `src` (as found at `path`) into a [`SourceFile`].
pub fn scan(path: &str, src: &str) -> SourceFile {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    let n = chars.len();
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            // Block comment; Rust block comments nest.
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            let (tok, next, lines) = scan_string(&chars, i, line);
            tokens.push(tok);
            line += lines;
            i = next;
        } else if c == '\'' {
            i = scan_quote(&chars, i, &mut line);
        } else if c.is_ascii_digit() {
            // Numbers (including suffixes like 0u64 and floats) lex to
            // nothing; `0..10` must leave the dots alone.
            i += 1;
            while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // String-literal prefixes: r"...", r#"..."#, b"...", br"...".
            let raw_ok = matches!(text.as_str(), "r" | "b" | "br");
            if raw_ok && i < n && (chars[i] == '"' || chars[i] == '#') {
                let mut hashes = 0;
                let mut j = i;
                while j < n && chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && chars[j] == '"' {
                    let raw = text != "b";
                    let (tok, next, lines) = if raw {
                        scan_raw_string(&chars, j, hashes, line)
                    } else {
                        scan_string(&chars, j, line)
                    };
                    tokens.push(tok);
                    line += lines;
                    i = next;
                    continue;
                }
                // A lone `r#ident` (raw identifier): fall through, the `#`
                // lexes as punctuation and the ident follows.
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
            });
        } else {
            tokens.push(Token {
                kind: TokenKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    let in_test = mark_test_regions(&tokens);
    SourceFile {
        path: path.to_string(),
        tokens,
        in_test,
    }
}

/// Scans a `"..."` literal starting at the opening quote; returns the
/// token, the index after the closing quote, and how many newlines the
/// literal spanned.
fn scan_string(chars: &[char], open: usize, line: u32) -> (Token, usize, u32) {
    let n = chars.len();
    let mut i = open + 1;
    let mut text = String::new();
    let mut newlines = 0;
    while i < n {
        match chars[i] {
            '\\' if i + 1 < n => {
                if chars[i + 1] == '\n' {
                    newlines += 1;
                }
                text.push(chars[i + 1]);
                i += 2;
            }
            '"' => {
                i += 1;
                break;
            }
            ch => {
                if ch == '\n' {
                    newlines += 1;
                }
                text.push(ch);
                i += 1;
            }
        }
    }
    (
        Token {
            kind: TokenKind::Str,
            text,
            line,
        },
        i,
        newlines,
    )
}

/// Scans a raw string `r#"..."#` whose opening quote sits at `open` with
/// `hashes` leading `#`s already consumed.
fn scan_raw_string(chars: &[char], open: usize, hashes: usize, line: u32) -> (Token, usize, u32) {
    let n = chars.len();
    let mut i = open + 1;
    let mut text = String::new();
    let mut newlines = 0;
    'outer: while i < n {
        if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && j < n && chars[j] == '#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                i = j;
                break 'outer;
            }
        }
        if chars[i] == '\n' {
            newlines += 1;
        }
        text.push(chars[i]);
        i += 1;
    }
    (
        Token {
            kind: TokenKind::Str,
            text,
            line,
        },
        i,
        newlines,
    )
}

/// Disambiguates `'` at `i`: lifetime (`'static`), char literal (`'a'`,
/// `'\n'`), or stray quote. Emits no token; returns the next index.
fn scan_quote(chars: &[char], i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    if i + 1 >= n {
        return i + 1;
    }
    if chars[i + 1] == '\\' {
        // Escaped char literal: consume to the closing quote.
        let mut j = i + 2;
        if j < n {
            j += 1; // the escaped character itself
        }
        while j < n && chars[j] != '\'' {
            if chars[j] == '\n' {
                *line += 1;
            }
            j += 1;
        }
        return (j + 1).min(n);
    }
    if (chars[i + 1].is_alphanumeric() || chars[i + 1] == '_') && i + 2 < n && chars[i + 2] == '\''
    {
        return i + 3; // 'a'
    }
    if chars[i + 1].is_alphabetic() || chars[i + 1] == '_' {
        // Lifetime: consume the ident, emit nothing.
        let mut j = i + 1;
        while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return j;
    }
    if i + 2 < n && chars[i + 2] == '\'' {
        return i + 3; // char literal like '(' or '0'
    }
    i + 1
}

/// Marks, per token, membership in test-attributed items.
///
/// An attribute `#[...]` containing the identifier `test` marks the
/// attributed item as test code (covers `#[test]` and `#[cfg(test)]`).
/// The attributed item's extent runs to its matching closing brace, or to
/// the first top-level `;` for brace-less items.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let n = tokens.len();
    let mut in_test = vec![false; n];
    let mut i = 0;
    while i < n {
        if !(is_punct(&tokens[i], "#") && i + 1 < n && is_punct(&tokens[i + 1], "[")) {
            i += 1;
            continue;
        }
        // Find the matching `]` of this attribute.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < n {
            if is_punct(&tokens[j], "[") {
                depth += 1;
            } else if is_punct(&tokens[j], "]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if j >= n {
            break; // unterminated attribute: nothing left to mark
        }
        let is_test_attr = tokens[i..=j]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "test");
        if is_test_attr {
            let end = item_extent(tokens, j + 1);
            in_test[i..=end.min(n - 1)].fill(true);
        }
        i = j + 1;
    }
    in_test
}

/// The index of the last token of the item starting at `start` (skipping
/// any stacked attributes): its matching closing brace, or the first `;`
/// outside all nesting for brace-less items.
fn item_extent(tokens: &[Token], start: usize) -> usize {
    let n = tokens.len();
    let mut k = start;
    // Skip stacked attributes (`#[a] #[b] fn ...`).
    while k + 1 < n && is_punct(&tokens[k], "#") && is_punct(&tokens[k + 1], "[") {
        let mut depth = 0usize;
        let mut j = k + 1;
        while j < n {
            if is_punct(&tokens[j], "[") {
                depth += 1;
            } else if is_punct(&tokens[j], "]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        k = (j + 1).min(n);
    }
    let mut brace_depth = 0usize;
    let mut other_depth = 0usize;
    let mut saw_brace = false;
    while k < n {
        let t = &tokens[k];
        if is_punct(t, "{") {
            brace_depth += 1;
            saw_brace = true;
        } else if is_punct(t, "}") {
            brace_depth = brace_depth.saturating_sub(1);
            if saw_brace && brace_depth == 0 {
                return k;
            }
        } else if is_punct(t, "(") || is_punct(t, "[") {
            other_depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            other_depth = other_depth.saturating_sub(1);
        } else if is_punct(t, ";") && !saw_brace && brace_depth == 0 && other_depth == 0 {
            return k;
        }
        k += 1;
    }
    n.saturating_sub(1)
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(f: &SourceFile) -> Vec<&str> {
        f.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_idents() {
        let f = scan(
            "x.rs",
            "// HashMap in a comment\nlet x = \"HashMap in a string\";\n/* block HashMap */ fn f() {}\n",
        );
        assert!(!idents(&f).contains(&"HashMap"));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text.contains("HashMap")));
    }

    #[test]
    fn lines_are_tracked_through_comments_and_strings() {
        let f = scan("x.rs", "/* a\nb */\nfn two() {}\n\"s1\ns2\"\nfn six() {}\n");
        let two = f.tokens.iter().find(|t| t.text == "two").unwrap();
        assert_eq!(two.line, 3);
        let six = f.tokens.iter().find(|t| t.text == "six").unwrap();
        assert_eq!(six.line, 6);
    }

    #[test]
    fn lifetimes_and_char_literals_are_skipped() {
        let f = scan(
            "x.rs",
            "fn f<'a>(x: &'a str) -> char { 'x' }\nlet c = '\\n';",
        );
        assert!(!idents(&f).contains(&"x'"));
        assert!(idents(&f).contains(&"str"));
    }

    #[test]
    fn raw_strings_scan_to_one_token() {
        let f = scan("x.rs", "let s = r#\"a \" b\"#; let t = r\"plain\";");
        let strs: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["a \" b", "plain"]);
    }

    #[test]
    fn cfg_test_mod_marks_tokens() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\nfn after() {}\n";
        let f = scan("x.rs", src);
        let at = |name: &str| f.tokens.iter().position(|t| t.text == name).unwrap();
        assert!(!f.in_test[at("live")]);
        assert!(f.in_test[at("inner")]);
        assert!(!f.in_test[at("after")]);
    }

    #[test]
    fn test_attribute_marks_item_extent() {
        let src = "#[test]\nfn case() { body(); }\nfn open() {}\n";
        let f = scan("x.rs", src);
        let at = |name: &str| f.tokens.iter().position(|t| t.text == name).unwrap();
        assert!(f.in_test[at("body")]);
        assert!(!f.in_test[at("open")]);
    }

    #[test]
    fn braceless_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn after() { z(); }\n";
        let f = scan("x.rs", src);
        let at = |name: &str| f.tokens.iter().position(|t| t.text == name).unwrap();
        assert!(f.in_test[at("bar")]);
        assert!(!f.in_test[at("z")]);
    }
}
