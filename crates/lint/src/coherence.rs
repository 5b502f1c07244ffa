//! Registry / doc / CI coherence checks.
//!
//! Ground truth for the scheme-key universe is the *running code*: the
//! ordered name list of `SchemeRegistry::with_defaults()` (this crate links
//! the real registry rather than re-listing the keys, so the lint cannot
//! itself drift). Against that the rule checks:
//!
//! * the harness `SCHEME_METAS` rows cover the registry in order (the
//!   experiments look rows up by key, so drift must fail in CI before any
//!   binary runs);
//! * the scheme table in `src/registry.rs`'s module docs lists exactly the
//!   registered keys in order;
//! * every "full key list" in README.md and docs/ARCHITECTURE.md matches —
//!   a *full list* being any run of backticked identifiers (or one
//!   comma-separated backticked span) containing at least five registry
//!   keys, which skips intentional subsets like `--schemes` defaults;
//! * `.github/workflows/ci.yml` actually runs this lint with
//!   `--deny-warnings` (the lint's registry check replaced the old
//!   registry-key grep there, so CI must keep invoking it).

use crate::rules::{Finding, REGISTRY_COHERENCE, Severity};

fn error(file: &str, line: usize, message: String) -> Finding {
    Finding {
        rule: REGISTRY_COHERENCE,
        krate: "workspace".to_string(),
        file: file.to_string(),
        line,
        severity: Severity::Error,
        message,
        reason: None,
    }
}

/// The registry keys as the running code reports them, in registration order.
pub fn runtime_keys() -> Vec<String> {
    compact_routing::registry::SchemeRegistry::with_defaults()
        .names()
        .into_iter()
        .map(|s| s.to_string())
        .collect()
}

/// Checks SCHEME_METAS against the registry keys (ordered).
pub fn check_metas(keys: &[String], findings: &mut Vec<Finding>) {
    let meta_keys: Vec<&str> = routing_bench::SCHEME_METAS.iter().map(|m| m.key).collect();
    if meta_keys != keys.iter().map(String::as_str).collect::<Vec<_>>() {
        findings.push(error(
            "crates/bench/src/lib.rs",
            0,
            format!(
                "SCHEME_METAS keys {meta_keys:?} disagree with registry keys {keys:?} (order matters)"
            ),
        ));
    }
}

/// Checks the module-doc scheme table in `src/registry.rs`: rows of the form
/// ``//! | `key` | ... |`` must list exactly the registry keys, in order.
pub fn check_registry_doc_table(text: &str, keys: &[String], findings: &mut Vec<Finding>) {
    let mut table_keys: Vec<(usize, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        let Some(rest) = trimmed.strip_prefix("//! | `") else { continue };
        let Some(end) = rest.find('`') else { continue };
        table_keys.push((i + 1, rest[..end].to_string()));
    }
    let listed: Vec<&str> = table_keys.iter().map(|(_, k)| k.as_str()).collect();
    if listed != keys.iter().map(String::as_str).collect::<Vec<_>>() {
        let line = table_keys.first().map(|(l, _)| *l).unwrap_or(0);
        findings.push(error(
            "src/registry.rs",
            line,
            format!(
                "module-doc scheme table lists {listed:?} but the registry registers {keys:?}"
            ),
        ));
    }
}

/// Extracts candidate key lists from markdown-ish text: runs of consecutive
/// backticked single identifiers separated only by commas/whitespace, plus
/// single backticked spans containing a comma-separated list. Returns
/// `(line, tokens)` per candidate.
pub fn extract_key_lists(text: &str) -> Vec<(usize, Vec<String>)> {
    // Locate backtick spans with their line numbers.
    let mut spans: Vec<(usize, usize, String)> = Vec::new(); // (byte_start, line, content)
    let mut line = 1usize;
    let mut open: Option<(usize, usize)> = None; // (byte index after `, line)
    for (i, c) in text.char_indices() {
        if c == '\n' {
            line += 1;
        }
        if c == '`' {
            match open.take() {
                None => open = Some((i + 1, line)),
                Some((start, start_line)) => {
                    spans.push((start, start_line, text[start..i].to_string()));
                }
            }
        }
    }

    let ident_ok = |s: &str| {
        !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '-')
    };
    let mut out: Vec<(usize, Vec<String>)> = Vec::new();
    let mut run: Vec<String> = Vec::new();
    let mut run_line = 0usize;
    let mut prev_end: Option<usize> = None;
    let flush = |run: &mut Vec<String>, run_line: usize, out: &mut Vec<(usize, Vec<String>)>| {
        if run.len() >= 2 {
            out.push((run_line, std::mem::take(run)));
        } else {
            run.clear();
        }
    };
    for (start, span_line, content) in &spans {
        // A single span holding a comma list is its own candidate.
        if content.contains(',') {
            flush(&mut run, run_line, &mut out);
            let tokens: Vec<String> =
                content.split(',').map(|t| t.trim().to_string()).collect();
            if tokens.iter().all(|t| ident_ok(t)) {
                out.push((*span_line, tokens));
            }
            prev_end = Some(start + content.len() + 1);
            continue;
        }
        if !ident_ok(content) {
            flush(&mut run, run_line, &mut out);
            prev_end = Some(start + content.len() + 1);
            continue;
        }
        let gap_ok = match prev_end {
            Some(end) if !run.is_empty() => text[end..start - 1]
                .chars()
                .all(|c| c == ',' || c.is_whitespace()),
            _ => false,
        };
        if !gap_ok {
            flush(&mut run, run_line, &mut out);
            run_line = *span_line;
        }
        run.push(content.clone());
        prev_end = Some(start + content.len() + 1);
    }
    flush(&mut run, run_line, &mut out);
    out
}

/// Checks one doc file: every candidate list containing ≥ 5 registry keys
/// must equal the registry key list exactly (same order, nothing extra).
pub fn check_doc_key_lists(
    file: &str,
    text: &str,
    keys: &[String],
    findings: &mut Vec<Finding>,
) {
    let key_set: Vec<&str> = keys.iter().map(String::as_str).collect();
    let mut full_lists = 0usize;
    for (line, tokens) in extract_key_lists(text) {
        let hits = tokens.iter().filter(|t| key_set.contains(&t.as_str())).count();
        if hits < 5 {
            continue; // intentional subset (e.g. a --schemes default)
        }
        full_lists += 1;
        if tokens != keys {
            findings.push(error(
                file,
                line,
                format!(
                    "scheme key list {tokens:?} disagrees with the registry {keys:?} (order matters)"
                ),
            ));
        }
    }
    if full_lists == 0 {
        findings.push(error(
            file,
            0,
            "no full scheme-key list found; the doc must enumerate every registered scheme"
                .to_string(),
        ));
    }
}

/// Checks that CI still runs the lint in deny mode.
pub fn check_ci_runs_lint(ci_text: &str, findings: &mut Vec<Finding>) {
    let runs = ci_text.contains("-p routing-lint") && ci_text.contains("--deny-warnings");
    if !runs {
        findings.push(error(
            ".github/workflows/ci.yml",
            0,
            "CI does not run `cargo run -p routing-lint -- --deny-warnings`; the registry \
             coherence check (which replaced the old key grep) would never execute"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<String> {
        ["warmup", "thm10", "thm11", "tz2", "tz3"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn doc_table_positive_and_negative() {
        let good = "//! | `warmup` | x |\n//! | `thm10` | x |\n//! | `thm11` | x |\n//! | `tz2` | x |\n//! | `tz3` | x |\n";
        let mut f = Vec::new();
        check_registry_doc_table(good, &keys(), &mut f);
        assert!(f.is_empty());

        let stale = "//! | `warmup` | x |\n//! | `thm10` | x |\n";
        let mut f = Vec::new();
        check_registry_doc_table(stale, &keys(), &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, REGISTRY_COHERENCE);
    }

    #[test]
    fn backtick_run_extraction() {
        let text = "registers `warmup`, `thm10`, `thm11`, `tz2`,\n`tz3` — exactly those.\nDefault is `tz2,warmup` here.";
        let lists = extract_key_lists(text);
        assert!(lists.iter().any(|(_, t)| t.len() == 5 && t[0] == "warmup" && t[4] == "tz3"));
        assert!(lists.iter().any(|(_, t)| t == &["tz2", "warmup"]));
    }

    #[test]
    fn doc_key_lists_positive_and_negative() {
        let good = "All schemes: `warmup`, `thm10`, `thm11`, `tz2`, `tz3`.\nDefault: `tz2,warmup`.";
        let mut f = Vec::new();
        check_doc_key_lists("README.md", good, &keys(), &mut f);
        assert!(f.is_empty(), "{f:?}");

        // A full list that dropped a key (≥5 registry keys still matched
        // would be <5 here, so drop only reordering case): reorder instead.
        let reordered = "All schemes: `thm10`, `warmup`, `thm11`, `tz2`, `tz3`.";
        let mut f = Vec::new();
        check_doc_key_lists("README.md", reordered, &keys(), &mut f);
        assert_eq!(f.len(), 1);

        // Extra key appended to the full list.
        let extra = "All: `warmup`, `thm10`, `thm11`, `tz2`, `tz3`, `thm99`.";
        let mut f = Vec::new();
        check_doc_key_lists("README.md", extra, &keys(), &mut f);
        assert_eq!(f.len(), 1);

        // No full list at all.
        let missing = "Only `tz2` and `warmup` are mentioned.";
        let mut f = Vec::new();
        check_doc_key_lists("README.md", missing, &keys(), &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn ci_check_positive_and_negative() {
        let mut f = Vec::new();
        check_ci_runs_lint("run: cargo run --release -p routing-lint -- --deny-warnings", &mut f);
        assert!(f.is_empty());
        let mut f = Vec::new();
        check_ci_runs_lint("run: cargo test", &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn metas_match_runtime_registry() {
        // The real invariant on the real workspace: metas cover the registry.
        let keys = runtime_keys();
        let mut f = Vec::new();
        check_metas(&keys, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }
}
