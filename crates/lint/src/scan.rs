//! Line-level Rust source scanner.
//!
//! The lint deliberately avoids a full parser (`syn` is not vendored and the
//! offline ethos of the workspace forbids adding it). Instead this module
//! does the minimum lexical work needed for reliable *token* matching:
//!
//! * strips `//` line comments, nested `/* */` block comments, ordinary and
//!   raw string literals, and char literals (while not being fooled by
//!   lifetimes such as `&'static str`), so rule tokens are only matched
//!   against real code;
//! * tracks brace depth per line, which lets later passes delimit regions:
//!   `#[cfg(test)]` items (excluded from all rules) and designated hot-path
//!   functions (subject to the hard panic ban);
//! * extracts `// lint:allow(rule): reason` pragmas from the comment text,
//!   attaching a standalone pragma comment to the next code-bearing line and
//!   a trailing pragma to its own line.
//!
//! The output is a [`FileAnalysis`]: one [`LineInfo`] per source line with
//! the stripped code, region flags, and any attached pragma. Rule matching
//! itself lives in `rules.rs`.

/// A `// lint:allow(rule): reason` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// Rule id inside the parentheses (not yet validated against the rule
    /// table; `rules.rs` reports unknown ids).
    pub rule: String,
    /// Free-text justification after the colon. Grammar requires non-empty.
    pub reason: String,
    /// 1-based line the pragma comment itself sits on.
    pub line: usize,
}

/// A pragma comment that did not parse: reported as a `pragma-grammar` error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedPragma {
    pub line: usize,
    pub detail: String,
}

/// Per-line scan result.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// 1-based line number.
    pub number: usize,
    /// Source text with comments, string contents, and char literals blanked.
    pub code: String,
    /// Comment text of the line (line-comment body; used for pragma parsing).
    pub comment: String,
    /// Inside a `#[cfg(test)]` item (module, fn, or impl).
    pub in_test: bool,
    /// Inside a designated hot-path region (whole file or matched fn body).
    pub hot: bool,
    /// Pragma governing this line (own trailing pragma, or a standalone
    /// pragma comment directly above). Index into `FileAnalysis::pragmas`.
    pub pragma: Option<usize>,
}

/// Which part of a file the hard panic ban covers.
#[derive(Debug, Clone, Copy)]
pub enum HotScope {
    /// Every non-test line of the file.
    File,
    /// Only bodies of functions whose name starts with one of the prefixes.
    FnPrefixes(&'static [&'static str]),
}

/// Full scan of one source file.
#[derive(Debug)]
pub struct FileAnalysis {
    pub lines: Vec<LineInfo>,
    pub pragmas: Vec<Pragma>,
    pub malformed: Vec<MalformedPragma>,
}

/// Lexer state carried across lines (strings and block comments span lines).
enum Mode {
    Code,
    /// Nested block comment depth (Rust block comments nest).
    Block(usize),
    /// Inside a `"..."` string literal.
    Str,
    /// Inside a raw string literal closed by `"` + this many `#`.
    RawStr(usize),
}

/// Strips comments/strings from `text`, producing per-line (code, comment)
/// pairs. Comment text keeps only line-comment bodies — pragmas are required
/// to be `//` comments, so block-comment text is discarded.
fn strip(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw_line in text.lines() {
        let bytes: Vec<char> = raw_line.chars().collect();
        let mut code = String::with_capacity(bytes.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < bytes.len() {
            match mode {
                Mode::Block(depth) => {
                    if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        mode = if depth == 1 { Mode::Code } else { Mode::Block(depth - 1) };
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Mode::Str => {
                    if bytes[i] == '\\' {
                        i += 2; // skip the escaped char (works for \" and \\)
                    } else if bytes[i] == '"' {
                        mode = Mode::Code;
                        code.push('"');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if bytes[i] == '"'
                        && i + 1 + hashes <= bytes.len()
                        && bytes[i + 1..i + 1 + hashes].iter().all(|c| *c == '#')
                    {
                        mode = Mode::Code;
                        code.push('"');
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                Mode::Code => {
                    let c = bytes[i];
                    if c == '/' && bytes.get(i + 1) == Some(&'/') {
                        // Line comment: keep body (minus the slashes and any
                        // doc-comment marker) for pragma parsing, then stop.
                        let mut body: String = bytes[i + 2..].iter().collect();
                        if body.starts_with('/') || body.starts_with('!') {
                            body.remove(0);
                        }
                        comment = body;
                        break;
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(1);
                        i += 2;
                    } else if c == '"' {
                        mode = Mode::Str;
                        code.push('"');
                        i += 1;
                    } else if c == 'r'
                        && !prev_is_ident(&code)
                        && matches!(bytes.get(i + 1), Some('"') | Some('#'))
                    {
                        // r"..." or r#"..."# raw string.
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            mode = Mode::RawStr(hashes);
                            code.push('"');
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == 'b' && !prev_is_ident(&code) && bytes.get(i + 1) == Some(&'"') {
                        mode = Mode::Str;
                        code.push('"');
                        i += 2;
                    } else if c == '\'' {
                        // Char literal vs lifetime. A char literal is 'x' or
                        // an escape like '\n' / '\u{..}'; a lifetime is a '
                        // followed by an identifier with no closing quote.
                        if let Some(skip) = char_literal_len(&bytes[i..]) {
                            code.push('\'');
                            i += skip;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push((code, comment));
    }
    out
}

fn prev_is_ident(code: &str) -> bool {
    code.chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `chars` (starting at a `'`) begins a char literal, returns its total
/// length in chars; `None` means it is a lifetime.
fn char_literal_len(chars: &[char]) -> Option<usize> {
    debug_assert!(chars[0] == '\'');
    match chars.get(1)? {
        '\\' => {
            // Escape: scan to the closing quote (bounded — escapes are short).
            for (j, c) in chars.iter().enumerate().skip(2).take(10) {
                if *c == '\'' {
                    return Some(j + 1);
                }
            }
            None
        }
        _ => {
            if chars.get(2) == Some(&'\'') {
                Some(3)
            } else {
                None
            }
        }
    }
}

/// Parses a pragma out of a line comment body, if present. The comment must
/// *be* the pragma (start with `lint:allow` after whitespace) — prose that
/// merely mentions the pragma syntax, e.g. in doc comments, is not one.
fn parse_pragma(comment: &str, line: usize) -> Option<Result<Pragma, MalformedPragma>> {
    let trimmed = comment.trim_start();
    if !trimmed.starts_with("lint:allow") {
        return None;
    }
    let rest = &trimmed["lint:allow".len()..];
    let malformed = |detail: &str| {
        Some(Err(MalformedPragma { line, detail: detail.to_string() }))
    };
    let Some(rest) = rest.strip_prefix('(') else {
        return malformed("expected `(` after `lint:allow`");
    };
    let Some(close) = rest.find(')') else {
        return malformed("unclosed `(` in `lint:allow(...)`");
    };
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() {
        return malformed("empty rule id in `lint:allow(...)`");
    }
    let after = &rest[close + 1..];
    let Some(reason) = after.trim_start().strip_prefix(':') else {
        return malformed("expected `: <reason>` after `lint:allow(rule)`");
    };
    let reason = reason.trim().to_string();
    if reason.is_empty() {
        return malformed("empty reason after `lint:allow(rule):`");
    }
    Some(Ok(Pragma { rule, reason, line }))
}

/// Region tracker state: a region entered at `close_depth` ends once brace
/// depth returns to that value.
struct Region {
    test: bool,
    hot: bool,
    close_depth: i64,
}

/// Scans one file's text. `hot` is the hard panic-ban scope for the file,
/// if any.
pub fn analyze(text: &str, hot: Option<HotScope>) -> FileAnalysis {
    let stripped = strip(text);
    let mut lines = Vec::with_capacity(stripped.len());
    let mut pragmas: Vec<Pragma> = Vec::new();
    let mut malformed: Vec<MalformedPragma> = Vec::new();
    // Standalone pragma waiting for the next code-bearing line.
    let mut pending_pragma: Option<usize> = None;
    // `#[cfg(test)]` / hot-fn marker seen; waiting for the opening `{`.
    let mut pending_test = false;
    let mut pending_hot = false;
    let mut regions: Vec<Region> = Vec::new();
    let mut depth: i64 = 0;
    let whole_file_hot = matches!(hot, Some(HotScope::File));

    for (idx, (code, comment)) in stripped.iter().enumerate() {
        let number = idx + 1;
        let depth_start = depth;
        let opens = code.chars().filter(|c| *c == '{').count() as i64;
        let closes = code.chars().filter(|c| *c == '}').count() as i64;
        depth += opens - closes;

        // Pragma extraction.
        let own_pragma = match parse_pragma(comment, number) {
            Some(Ok(p)) => {
                pragmas.push(p);
                Some(pragmas.len() - 1)
            }
            Some(Err(m)) => {
                malformed.push(m);
                None
            }
            None => None,
        };
        let has_code = !code.trim().is_empty();
        let pragma = if own_pragma.is_some() && has_code {
            own_pragma // trailing pragma governs its own line
        } else if has_code {
            pending_pragma.take()
        } else {
            None
        };
        if own_pragma.is_some() && !has_code {
            pending_pragma = own_pragma; // standalone: governs next code line
        }

        // Region markers (detected on stripped code so strings can't fake
        // them). The cfg(test) form also covers `#[cfg(all(test, ...))]`.
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            pending_test = true;
        }
        if let Some(HotScope::FnPrefixes(prefixes)) = hot {
            if let Some(name) = fn_name(code) {
                if prefixes.iter().any(|p| name == *p || name.starts_with(p)) {
                    pending_hot = true;
                }
            }
        }
        // Region entry: the first `{` after a marker opens the region; a `;`
        // before any `{` cancels it (e.g. `#[cfg(test)] use ..;` or a
        // bodiless trait fn). A body opened AND closed on one line (e.g.
        // `mod tests { fn t() {} }`) covers just that line and pushes no
        // region.
        let mut line_test = false;
        let mut line_hot = false;
        if (pending_test || pending_hot) && opens > 0 {
            line_test = pending_test;
            line_hot = pending_hot;
            if depth > depth_start {
                regions.push(Region {
                    test: pending_test,
                    hot: pending_hot,
                    close_depth: depth_start,
                });
            }
            pending_test = false;
            pending_hot = false;
        } else if (pending_test || pending_hot) && code.contains(';') {
            pending_test = false;
            pending_hot = false;
        }

        let in_test = line_test || regions.iter().any(|r| r.test);
        let in_hot = whole_file_hot || line_hot || regions.iter().any(|r| r.hot);

        lines.push(LineInfo {
            number,
            code: code.clone(),
            comment: comment.clone(),
            in_test,
            hot: in_hot && !in_test,
            pragma,
        });

        // Region exit (after the closing line is attributed to the region).
        while regions.last().is_some_and(|r| depth <= r.close_depth) {
            regions.pop();
        }
    }

    FileAnalysis { lines, pragmas, malformed }
}

/// Extracts the name of a `fn` declared on this (stripped) line, if any.
pub(crate) fn fn_name(code: &str) -> Option<&str> {
    let mut search_from = 0;
    loop {
        let rel = code[search_from..].find("fn ")?;
        let at = search_from + rel;
        // Word boundary on the left (don't match `often `).
        let left_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok {
            let rest = code[at + 3..].trim_start();
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            if end > 0 {
                return Some(&rest[..end]);
            }
        }
        search_from = at + 3;
    }
}

/// Word-boundary token search on stripped code. `token` may end with `(` or
/// `!` to pin call/macro syntax (e.g. `unwrap(` does not match `unwrap_or(`).
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(token) {
        let at = from + rel;
        let left_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + token.len();
        let right_needs_boundary =
            token.ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let right_ok = !right_needs_boundary
            || !code[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok && right_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let fa = analyze("let x = 1; // HashMap here\n/* HashMap */ let y = 2;\n", None);
        assert!(!fa.lines[0].code.contains("HashMap"));
        assert!(fa.lines[0].comment.contains("HashMap"));
        assert!(!fa.lines[1].code.contains("HashMap"));
        assert!(fa.lines[1].code.contains("let y"));
    }

    #[test]
    fn strips_strings_and_raw_strings() {
        let fa = analyze(
            "let s = \"unwrap( inside\"; let r = r#\"panic! inside\"#; s.len();\n",
            None,
        );
        assert!(find_token(&fa.lines[0].code, "unwrap(").is_none());
        assert!(find_token(&fa.lines[0].code, "panic!").is_none());
        assert!(fa.lines[0].code.contains("len()"));
    }

    #[test]
    fn multiline_string_masks_tokens() {
        let fa = analyze("let s = \"line one\nunwrap() here\nstill\"; done();\n", None);
        assert!(find_token(&fa.lines[1].code, "unwrap(").is_none());
        assert!(fa.lines[2].code.contains("done()"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let fa = analyze("fn f<'a>(x: &'a str) -> &'static str { x.unwrap() }\n", None);
        assert!(find_token(&fa.lines[0].code, "unwrap(").is_some());
    }

    #[test]
    fn cfg_test_region_is_flagged() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let fa = analyze(src, None);
        assert!(!fa.lines[0].in_test);
        assert!(fa.lines[3].in_test);
        assert!(!fa.lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_use_item_does_not_swallow_rest_of_file() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn live() { x.unwrap(); }\n";
        let fa = analyze(src, None);
        assert!(!fa.lines[2].in_test);
    }

    #[test]
    fn fn_prefix_hot_scope() {
        let src = "fn simulate_lean(a: u32) {\n    x.unwrap();\n}\nfn other() {\n    y.unwrap();\n}\n";
        let fa = analyze(src, Some(HotScope::FnPrefixes(&["simulate_lean"])));
        assert!(fa.lines[1].hot);
        assert!(!fa.lines[4].hot);
    }

    #[test]
    fn trailing_and_standalone_pragmas_attach() {
        let src = "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new(); // lint:allow(det-hash-iter): keyed lookups only\n// lint:allow(det-hash-iter): next line justified\nlet n: HashMap<u32, u32> = HashMap::new();\nlet o: HashMap<u32, u32> = HashMap::new();\n";
        let fa = analyze(src, None);
        assert!(fa.lines[1].pragma.is_some());
        assert!(fa.lines[2].pragma.is_none());
        assert!(fa.lines[3].pragma.is_some());
        assert!(fa.lines[4].pragma.is_none());
        assert_eq!(fa.pragmas.len(), 2);
    }

    #[test]
    fn malformed_pragma_reported() {
        let fa = analyze("// lint:allow(det-hash-iter) missing colon\nlet x = 1;\n", None);
        assert_eq!(fa.malformed.len(), 1);
        let fa2 = analyze("// lint:allow(det-hash-iter):\nlet x = 1;\n", None);
        assert_eq!(fa2.malformed.len(), 1, "empty reason must be malformed");
    }

    #[test]
    fn token_boundaries() {
        assert!(find_token("x.unwrap_or(0)", "unwrap(").is_none());
        assert!(find_token("x.unwrap()", "unwrap(").is_some());
        assert!(find_token("should_panic(expected)", "panic!").is_none());
        assert!(find_token("MyHashMapLike::new()", "HashMap").is_none());
        assert!(find_token("HashMap::new()", "HashMap").is_some());
    }
}
