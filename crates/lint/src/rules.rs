//! Rule catalog and per-file rule matching.
//!
//! Three rule *kinds* with different enforcement semantics:
//!
//! * **Pragma-gated** (the `det-*` determinism family): every match in a
//!   build-path crate is an error unless the line carries a
//!   `// lint:allow(rule): reason` pragma; pragma'd matches are counted in
//!   the committed budget file so the justified population is ratcheted too.
//! * **Budgeted** (`panic-budget`): matches outside hot paths are not
//!   individually erroneous, but the per-(crate, rule) count is compared to
//!   the committed budget — above ⇒ error, below ⇒ suggestion to tighten.
//! * **Hard** (`panic-hot-path`, `forbid-unsafe`, `pragma-grammar`,
//!   `registry-coherence`): always an error; pragmas are *not* honored —
//!   there is deliberately no annotation that lets a panic back into a
//!   hot-path module.

use crate::scan::{FileAnalysis, HotScope, find_token};

/// Rule identifiers (stable strings: used in pragmas and the budget file).
pub const DET_HASH_ITER: &str = "det-hash-iter";
pub const DET_WALL_CLOCK: &str = "det-wall-clock";
pub const DET_UNSEEDED_RNG: &str = "det-unseeded-rng";
pub const PANIC_HOT_PATH: &str = "panic-hot-path";
pub const PANIC_BUDGET: &str = "panic-budget";
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
pub const PRAGMA_GRAMMAR: &str = "pragma-grammar";
pub const REGISTRY_COHERENCE: &str = "registry-coherence";

/// All rule ids, for pragma validation and documentation.
pub const ALL_RULES: &[&str] = &[
    DET_HASH_ITER,
    DET_WALL_CLOCK,
    DET_UNSEEDED_RNG,
    PANIC_HOT_PATH,
    PANIC_BUDGET,
    FORBID_UNSAFE,
    PRAGMA_GRAMMAR,
    REGISTRY_COHERENCE,
];

/// Rules a `lint:allow` pragma may name (the pragma-gated family plus
/// `panic-budget`, where a pragma documents a site without excusing it from
/// the count).
pub const PRAGMA_RULES: &[&str] =
    &[DET_HASH_ITER, DET_WALL_CLOCK, DET_UNSEEDED_RNG, PANIC_BUDGET];

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run unconditionally.
    Error,
    /// Fails the run only under `--deny-warnings`.
    Warning,
    /// Informational: a pragma-justified or budgeted match. Never fails the
    /// run by itself, but feeds the budget counts.
    Allowed,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub krate: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line; 0 for file- or workspace-level findings.
    pub line: usize,
    pub severity: Severity,
    pub message: String,
    /// Pragma reason, for `Allowed` findings justified by annotation.
    pub reason: Option<String>,
}

/// A workspace crate the lint walks.
pub struct CrateSpec {
    /// Package name as findings and the budget file report it.
    pub name: &'static str,
    /// Source directory, workspace-relative (`src` for the facade crate).
    pub src_dir: &'static str,
    /// Crate-root file, workspace-relative (checked for `#![forbid(unsafe_code)]`).
    pub root: &'static str,
    /// Determinism rules apply (preprocessing/build-path crates only: these
    /// feed the bit-identical twin-build invariant).
    pub build_path: bool,
}

/// Every crate the pass covers. `vendor/` stand-ins are external code and the
/// `target/` tree is generated; neither is scanned.
pub const WORKSPACE_CRATES: &[CrateSpec] = &[
    CrateSpec { name: "compact-routing", src_dir: "src", root: "src/lib.rs", build_path: false },
    CrateSpec { name: "routing-par", src_dir: "crates/par/src", root: "crates/par/src/lib.rs", build_path: true },
    CrateSpec { name: "routing-obs", src_dir: "crates/obs/src", root: "crates/obs/src/lib.rs", build_path: false },
    CrateSpec { name: "routing-graph", src_dir: "crates/graph/src", root: "crates/graph/src/lib.rs", build_path: true },
    CrateSpec { name: "routing-model", src_dir: "crates/model/src", root: "crates/model/src/lib.rs", build_path: false },
    CrateSpec { name: "routing-tree", src_dir: "crates/tree/src", root: "crates/tree/src/lib.rs", build_path: true },
    CrateSpec { name: "routing-vicinity", src_dir: "crates/vicinity/src", root: "crates/vicinity/src/lib.rs", build_path: true },
    CrateSpec { name: "routing-core", src_dir: "crates/core/src", root: "crates/core/src/lib.rs", build_path: true },
    CrateSpec { name: "routing-baselines", src_dir: "crates/baselines/src", root: "crates/baselines/src/lib.rs", build_path: true },
    CrateSpec { name: "routing-churn", src_dir: "crates/churn/src", root: "crates/churn/src/lib.rs", build_path: false },
    CrateSpec { name: "routing-serve", src_dir: "crates/serve/src", root: "crates/serve/src/lib.rs", build_path: false },
    CrateSpec { name: "routing-bench", src_dir: "crates/bench/src", root: "crates/bench/src/lib.rs", build_path: false },
    CrateSpec { name: "routing-lint", src_dir: "crates/lint/src", root: "crates/lint/src/lib.rs", build_path: false },
];

/// Hard panic-ban scopes, keyed by workspace-relative file path. These are
/// the routed-query hot paths: `graph::scratch` (query scratchpad),
/// `model::simulate_lean*`, `walk` (the one hop loop every simulator entry
/// point runs) + `record_delivery`,
/// `serve::engine`/`snapshot` (the serving data plane), the `obs`
/// disabled paths (span/metric fast-outs that run even when telemetry is
/// off), the `vicinity::balls` slot probe every scheme runs per hop, and
/// the query arms every `routing-core` scheme shares (`stages`' vicinity and
/// cluster arms, `seq`'s keyed-store and sequence-arena lookups and the
/// decode a header's sequence goes through).
pub const HOT_PATHS: &[(&str, HotScope)] = &[
    ("crates/graph/src/scratch.rs", HotScope::File),
    (
        "crates/vicinity/src/balls.rs",
        HotScope::FnPrefixes(&[
            "find",
            "contains",
            "first_port",
            "dist",
            "rank",
            "csr_range",
            "member_range",
        ]),
    ),
    ("crates/core/src/stages.rs", HotScope::FnPrefixes(&["sees", "toward", "rep", "label_in"])),
    ("crates/core/src/seq.rs", HotScope::FnPrefixes(&["get", "decode"])),
    (
        "crates/model/src/simulator.rs",
        HotScope::FnPrefixes(&["simulate_lean", "walk", "record_delivery"]),
    ),
    ("crates/serve/src/engine.rs", HotScope::File),
    ("crates/serve/src/snapshot.rs", HotScope::File),
    ("crates/obs/src/profile.rs", HotScope::FnPrefixes(&["span", "profiling_enabled"])),
    ("crates/obs/src/metrics.rs", HotScope::FnPrefixes(&["metrics_enabled", "inc", "add"])),
];

/// Returns the hot scope for a workspace-relative path, if designated.
pub fn hot_scope(rel_path: &str) -> Option<HotScope> {
    HOT_PATHS.iter().find(|(p, _)| *p == rel_path).map(|(_, s)| *s)
}

/// Panic-family tokens. `(`/`!` suffixes pin call/macro syntax so
/// `unwrap_or`, `expect_err`, and `#[should_panic(..)]` do not match.
/// `assert!`/`debug_assert!` are deliberately NOT forbidden: they document
/// invariants and compile out (debug) or fail loudly on logic errors, which
/// is the desired behavior even on hot paths.
const PANIC_TOKENS: &[&str] =
    &["unwrap(", "expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Wall-clock tokens (nondeterministic inputs to a build path).
const WALL_CLOCK_TOKENS: &[&str] = &["Instant::now", "SystemTime"];

/// Unseeded-RNG constructors. The vendored `rand` stand-in only exposes
/// `seed_from_u64`, so matches can only appear if someone reintroduces an
/// entropy-seeded constructor — exactly the regression this rule pins.
const UNSEEDED_RNG_TOKENS: &[&str] =
    &["from_entropy", "thread_rng", "OsRng", "from_os_rng"];

/// Runs the per-line rules over one analyzed file. Pushes findings and
/// records which pragmas were consumed (index into `fa.pragmas`).
pub fn scan_file(
    spec: &CrateSpec,
    rel_path: &str,
    fa: &FileAnalysis,
    findings: &mut Vec<Finding>,
    consumed: &mut [bool],
) {
    for line in &fa.lines {
        if line.in_test {
            continue;
        }
        let trimmed = line.code.trim_start();
        let is_import = trimmed.starts_with("use ") || trimmed.starts_with("pub use ");

        // Panic family: hard error in hot regions, budgeted elsewhere.
        for token in PANIC_TOKENS {
            if find_token(&line.code, token).is_some() {
                let display = token.trim_end_matches('(');
                if line.hot {
                    findings.push(Finding {
                        rule: PANIC_HOT_PATH,
                        krate: spec.name.to_string(),
                        file: rel_path.to_string(),
                        line: line.number,
                        severity: Severity::Error,
                        message: format!(
                            "`{display}` in a designated hot-path region (pragmas are not honored here)"
                        ),
                        reason: None,
                    });
                } else {
                    let reason = pragma_reason(fa, line.pragma, PANIC_BUDGET, consumed);
                    findings.push(Finding {
                        rule: PANIC_BUDGET,
                        krate: spec.name.to_string(),
                        file: rel_path.to_string(),
                        line: line.number,
                        severity: Severity::Allowed,
                        message: format!("`{display}` outside hot paths (counted against the budget)"),
                        reason,
                    });
                }
            }
        }

        if !spec.build_path {
            continue;
        }

        // det-hash-iter: any non-import HashMap/HashSet mention. A line
        // scanner cannot see the `for (k, v) in &map` iteration itself (no
        // type name on that line), so the rule anchors on the declaration /
        // construction / type-mention sites and the pragma reason must argue
        // the map's *whole usage* never leaks iteration order.
        if !is_import {
            for token in ["HashMap", "HashSet"] {
                if find_token(&line.code, token).is_some() {
                    push_gated(
                        findings, fa, line, spec, rel_path, DET_HASH_ITER, consumed,
                        format!("`{token}` in a build-path crate: iteration order is nondeterministic"),
                    );
                    break; // one finding per line even if both tokens appear
                }
            }
        }

        for token in WALL_CLOCK_TOKENS {
            if find_token(&line.code, token).is_some() {
                push_gated(
                    findings, fa, line, spec, rel_path, DET_WALL_CLOCK, consumed,
                    format!("`{token}` in a build-path crate: wall-clock is nondeterministic input"),
                );
            }
        }
        for token in UNSEEDED_RNG_TOKENS {
            if find_token(&line.code, token).is_some() {
                push_gated(
                    findings, fa, line, spec, rel_path, DET_UNSEEDED_RNG, consumed,
                    format!("`{token}` in a build-path crate: entropy-seeded RNG breaks twin-build identity"),
                );
            }
        }
    }

    // Pragma hygiene for this file: malformed pragmas are hard errors;
    // pragmas naming unknown/non-pragma rules are hard errors; pragmas that
    // matched no finding are warnings (stale annotations rot).
    for m in &fa.malformed {
        findings.push(Finding {
            rule: PRAGMA_GRAMMAR,
            krate: spec.name.to_string(),
            file: rel_path.to_string(),
            line: m.line,
            severity: Severity::Error,
            message: format!("malformed lint:allow pragma: {}", m.detail),
            reason: None,
        });
    }
    for (i, p) in fa.pragmas.iter().enumerate() {
        if !PRAGMA_RULES.contains(&p.rule.as_str()) {
            let hint = if ALL_RULES.contains(&p.rule.as_str()) {
                "this rule does not honor pragmas"
            } else {
                "unknown rule id"
            };
            findings.push(Finding {
                rule: PRAGMA_GRAMMAR,
                krate: spec.name.to_string(),
                file: rel_path.to_string(),
                line: p.line,
                severity: Severity::Error,
                message: format!("lint:allow({}): {hint}", p.rule),
                reason: None,
            });
        } else if !consumed[i] {
            findings.push(Finding {
                rule: PRAGMA_GRAMMAR,
                krate: spec.name.to_string(),
                file: rel_path.to_string(),
                line: p.line,
                severity: Severity::Warning,
                message: format!(
                    "unused lint:allow({}) pragma: no matching finding on the governed line",
                    p.rule
                ),
                reason: None,
            });
        }
    }
}

/// Looks up (and consumes) a pragma for `rule` on the line, returning its
/// reason.
fn pragma_reason(
    fa: &FileAnalysis,
    pragma: Option<usize>,
    rule: &str,
    consumed: &mut [bool],
) -> Option<String> {
    let idx = pragma?;
    if fa.pragmas[idx].rule == rule {
        consumed[idx] = true;
        Some(fa.pragmas[idx].reason.clone())
    } else {
        None
    }
}

/// Pushes a pragma-gated determinism finding: `Allowed` when justified,
/// `Error` otherwise.
#[allow(clippy::too_many_arguments)]
fn push_gated(
    findings: &mut Vec<Finding>,
    fa: &FileAnalysis,
    line: &crate::scan::LineInfo,
    spec: &CrateSpec,
    rel_path: &str,
    rule: &'static str,
    consumed: &mut [bool],
    message: String,
) {
    let reason = pragma_reason(fa, line.pragma, rule, consumed);
    let severity = if reason.is_some() { Severity::Allowed } else { Severity::Error };
    let message = if reason.is_some() {
        message
    } else {
        format!("{message}; annotate `// lint:allow({rule}): <reason>` or restructure")
    };
    findings.push(Finding {
        rule,
        krate: spec.name.to_string(),
        file: rel_path.to_string(),
        line: line.number,
        severity,
        message,
        reason,
    });
}

/// Checks the crate root for `#![forbid(unsafe_code)]`.
pub fn check_forbid_unsafe(
    spec: &CrateSpec,
    root_analysis: &FileAnalysis,
    findings: &mut Vec<Finding>,
) {
    let has = root_analysis
        .lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has {
        findings.push(Finding {
            rule: FORBID_UNSAFE,
            krate: spec.name.to_string(),
            file: spec.root.to_string(),
            line: 0,
            severity: Severity::Error,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            reason: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::analyze;

    fn run(src: &str, build_path: bool, hot: Option<HotScope>) -> Vec<Finding> {
        let spec = CrateSpec {
            name: "fixture",
            src_dir: "fixture/src",
            root: "fixture/src/lib.rs",
            build_path,
        };
        let fa = analyze(src, hot);
        let mut findings = Vec::new();
        let mut consumed = vec![false; fa.pragmas.len()];
        scan_file(&spec, "fixture/src/lib.rs", &fa, &mut findings, &mut consumed);
        findings
    }

    fn errors<'a>(f: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
        f.iter().filter(|x| x.rule == rule && x.severity == Severity::Error).collect()
    }

    // ---- det-hash-iter ----

    #[test]
    fn det_hash_positive() {
        let f = run("fn build() { let m = std::collections::HashMap::new(); }\n", true, None);
        let e = errors(&f, DET_HASH_ITER);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].line, 1);
    }

    #[test]
    fn det_hash_negative_pragma_and_imports_and_non_build_path() {
        let pragma =
            "fn b() { let m = HashMap::new(); } // lint:allow(det-hash-iter): keyed lookups only\n";
        assert!(errors(&run(pragma, true, None), DET_HASH_ITER).is_empty());
        let import = "use std::collections::HashMap;\n";
        assert!(errors(&run(import, true, None), DET_HASH_ITER).is_empty());
        let non_build = "fn b() { let m = HashMap::new(); }\n";
        assert!(errors(&run(non_build, false, None), DET_HASH_ITER).is_empty());
    }

    // ---- det-wall-clock ----

    #[test]
    fn det_wall_clock_positive() {
        let f = run("fn b() { let t = Instant::now(); }\n", true, None);
        assert_eq!(errors(&f, DET_WALL_CLOCK).len(), 1);
    }

    #[test]
    fn det_wall_clock_negative() {
        let f = run(
            "fn b() { let t = Instant::now(); } // lint:allow(det-wall-clock): diag only, not in output\n",
            true,
            None,
        );
        assert!(errors(&f, DET_WALL_CLOCK).is_empty());
        assert!(f.iter().any(|x| x.severity == Severity::Allowed && x.rule == DET_WALL_CLOCK));
    }

    // ---- det-unseeded-rng ----

    #[test]
    fn det_unseeded_rng_positive() {
        let f = run("fn b() { let r = SmallRng::from_entropy(); }\n", true, None);
        assert_eq!(errors(&f, DET_UNSEEDED_RNG).len(), 1);
    }

    #[test]
    fn det_unseeded_rng_negative_seeded_ok() {
        let f = run("fn b() { let r = SmallRng::seed_from_u64(42); }\n", true, None);
        assert!(errors(&f, DET_UNSEEDED_RNG).is_empty());
    }

    // ---- panic-hot-path / panic-budget ----

    #[test]
    fn panic_hot_path_positive_even_with_pragma() {
        let src = "fn f() { x.unwrap(); } // lint:allow(panic-budget): pragmas don't excuse hot paths\n";
        let f = run(src, false, Some(HotScope::File));
        assert_eq!(errors(&f, PANIC_HOT_PATH).len(), 1);
    }

    #[test]
    fn panic_hot_path_negative_unwrap_or_and_tests_ok() {
        let src = "fn f() { x.unwrap_or(0); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let f = run(src, false, Some(HotScope::File));
        assert!(errors(&f, PANIC_HOT_PATH).is_empty());
    }

    #[test]
    fn panic_budget_counts_outside_hot_paths() {
        let f = run("fn f() { x.unwrap(); y.expect(\"m\"); }\n", false, None);
        let budgeted: Vec<_> = f.iter().filter(|x| x.rule == PANIC_BUDGET).collect();
        assert_eq!(budgeted.len(), 2);
        assert!(budgeted.iter().all(|x| x.severity == Severity::Allowed));
    }

    // ---- forbid-unsafe ----

    #[test]
    fn forbid_unsafe_positive_and_negative() {
        let spec = CrateSpec {
            name: "fixture",
            src_dir: "fixture/src",
            root: "fixture/src/lib.rs",
            build_path: false,
        };
        let mut f = Vec::new();
        check_forbid_unsafe(&spec, &analyze("pub fn x() {}\n", None), &mut f);
        assert_eq!(errors(&f, FORBID_UNSAFE).len(), 1);
        let mut f2 = Vec::new();
        check_forbid_unsafe(&spec, &analyze("#![forbid(unsafe_code)]\npub fn x() {}\n", None), &mut f2);
        assert!(f2.is_empty());
    }

    // ---- pragma-grammar ----

    #[test]
    fn pragma_grammar_positive_malformed_unknown_unused() {
        let malformed = run("let x = 1; // lint:allow(det-hash-iter) no colon\n", true, None);
        assert_eq!(errors(&malformed, PRAGMA_GRAMMAR).len(), 1);

        let unknown = run("let m = HashMap::new(); // lint:allow(not-a-rule): whatever\n", true, None);
        assert!(!errors(&unknown, PRAGMA_GRAMMAR).is_empty());

        let unused = run("let x = 1; // lint:allow(det-hash-iter): nothing here matches\n", true, None);
        assert!(unused
            .iter()
            .any(|x| x.rule == PRAGMA_GRAMMAR && x.severity == Severity::Warning));
    }

    #[test]
    fn pragma_grammar_negative_consumed_pragma_is_clean() {
        let f = run(
            "let m = HashMap::new(); // lint:allow(det-hash-iter): lookup-only table\n",
            true,
            None,
        );
        assert!(errors(&f, PRAGMA_GRAMMAR).is_empty());
        assert!(!f.iter().any(|x| x.rule == PRAGMA_GRAMMAR));
    }
}
