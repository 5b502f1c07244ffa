//! # routing-lint — std-only workspace static analysis
//!
//! A lightweight tokenizer/line analyzer (no `syn`, no external parser —
//! consistent with the offline `vendor/` ethos) that walks every workspace
//! crate and enforces the invariants the rest of the workspace only checks
//! at runtime:
//!
//! | rule | kind | what it pins |
//! |------|------|--------------|
//! | `det-hash-iter` | pragma-gated | no `HashMap`/`HashSet` in build-path crates without a reasoned pragma (iteration order would break bit-identical twin builds) |
//! | `det-wall-clock` | pragma-gated | no `Instant::now`/`SystemTime` in build-path crates |
//! | `det-unseeded-rng` | pragma-gated | no entropy-seeded RNG construction in build-path crates |
//! | `panic-hot-path` | hard | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in designated hot-path modules; pragmas are **not** honored |
//! | `panic-budget` | budgeted | remaining panic sites per (crate, rule) ratcheted through `lint-budget.txt` — may shrink, never grow |
//! | `forbid-unsafe` | hard | every crate root keeps `#![forbid(unsafe_code)]` |
//! | `pragma-grammar` | hard/warn | every `lint:allow` carries a rule id and non-empty reason; unused pragmas warn |
//! | `registry-coherence` | hard | registry keys == `src/registry.rs` doc table == README/ARCHITECTURE key lists; CI runs the lint |
//!
//! Build-path crates (`routing-par`, `routing-graph`, `routing-tree`,
//! `routing-vicinity`, `routing-core`, `routing-baselines`) are the ones
//! whose output feeds the bit-identical build invariant; serving/bench/obs
//! crates may use wall-clock and hashing freely.
//!
//! Pragma grammar: `// lint:allow(<rule-id>): <reason>` — either trailing on
//! the offending line or a standalone comment directly above it. The reason
//! is mandatory and should say why the construct cannot leak nondeterminism
//! (e.g. "keyed lookups only, never iterated").
//!
//! `#[cfg(test)]` items, `tests/`, and doc comments are exempt from all
//! per-line rules; `vendor/` and `target/` are not scanned at all.

#![forbid(unsafe_code)]

pub mod budget;
pub mod coherence;
pub mod report;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

use rules::{Finding, Severity};

/// Options for a full workspace pass.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Promote warnings to run failures (CI mode).
    pub deny_warnings: bool,
    /// Rewrite `lint-budget.txt` to the current counts instead of comparing.
    pub update_budget: bool,
}

/// Result of a full workspace pass.
pub struct Outcome {
    pub findings: Vec<Finding>,
    pub current_budget: budget::BudgetMap,
    pub committed_budget: budget::BudgetMap,
    /// Process exit code the run should produce under `options`.
    pub exit_code: i32,
}

/// Collects the `.rs` files under `dir`, sorted for deterministic output.
fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn workspace_error(message: String) -> Finding {
    Finding {
        rule: rules::REGISTRY_COHERENCE,
        krate: "workspace".to_string(),
        file: String::new(),
        line: 0,
        severity: Severity::Error,
        message,
        reason: None,
    }
}

/// Runs every rule over the workspace rooted at `root`. Pure with respect to
/// the tree except for `--update-budget`, which rewrites `lint-budget.txt`.
pub fn run_workspace(root: &Path, options: &Options) -> Outcome {
    let mut findings: Vec<Finding> = Vec::new();

    // ---- per-file rules over every crate ----
    for spec in rules::WORKSPACE_CRATES {
        let src_dir = root.join(spec.src_dir);
        let files = match rust_files(&src_dir) {
            Ok(f) => f,
            Err(e) => {
                findings.push(workspace_error(format!(
                    "cannot walk {}: {e}",
                    src_dir.display()
                )));
                continue;
            }
        };
        let mut root_seen = false;
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    findings.push(workspace_error(format!("cannot read {rel}: {e}")));
                    continue;
                }
            };
            let fa = scan::analyze(&text, rules::hot_scope(&rel));
            let mut consumed = vec![false; fa.pragmas.len()];
            rules::scan_file(spec, &rel, &fa, &mut findings, &mut consumed);
            if rel == spec.root {
                root_seen = true;
                rules::check_forbid_unsafe(spec, &fa, &mut findings);
            }
        }
        if !root_seen {
            findings.push(workspace_error(format!(
                "crate root {} not found while scanning {}",
                spec.root, spec.name
            )));
        }
    }

    // ---- every hot-path ban names code that exists ----
    let read = |rel: &str| fs::read_to_string(root.join(rel)).ok();
    rules::check_hot_paths(rules::HOT_PATHS, read, &mut findings);

    // ---- registry / doc / CI coherence ----
    let keys = coherence::runtime_keys();
    match fs::read_to_string(root.join("src/registry.rs")) {
        Ok(text) => coherence::check_registry_doc_table(&text, &keys, &mut findings),
        Err(e) => findings.push(workspace_error(format!("cannot read src/registry.rs: {e}"))),
    }
    for file in ["README.md", "docs/ARCHITECTURE.md"] {
        match fs::read_to_string(root.join(file)) {
            Ok(text) => coherence::check_doc_key_lists(file, &text, &keys, &mut findings),
            Err(e) => findings.push(workspace_error(format!("cannot read {file}: {e}"))),
        }
    }
    match fs::read_to_string(root.join(".github/workflows/ci.yml")) {
        Ok(text) => coherence::check_ci_runs_lint(&text, &mut findings),
        Err(e) => findings.push(workspace_error(format!("cannot read ci.yml: {e}"))),
    }

    // ---- budget ratchet ----
    let current = budget::current_counts(&findings);
    let budget_path = root.join("lint-budget.txt");
    let committed = if options.update_budget {
        if let Err(e) = fs::write(&budget_path, budget::render(&current)) {
            findings.push(workspace_error(format!("cannot write lint-budget.txt: {e}")));
        }
        current.clone()
    } else {
        match fs::read_to_string(&budget_path) {
            Ok(text) => match budget::parse(&text) {
                Ok(map) => map,
                Err(e) => {
                    findings.push(workspace_error(format!("lint-budget.txt: {e}")));
                    budget::BudgetMap::new()
                }
            },
            Err(_) => {
                findings.push(workspace_error(
                    "lint-budget.txt is missing; run `cargo run -p routing-lint -- --update-budget` and commit it"
                        .to_string(),
                ));
                budget::BudgetMap::new()
            }
        }
    };
    if !options.update_budget {
        budget::compare(&current, &committed, &mut findings);
    }

    let (errors, warnings, _) = report::tally(&findings);
    let exit_code =
        if errors > 0 || (options.deny_warnings && warnings > 0) { 1 } else { 0 };
    Outcome { findings, current_budget: current, committed_budget: committed, exit_code }
}

/// Locates the workspace root: `dir` itself if it holds the workspace
/// manifest, else walking up. The heuristic is the `[workspace]` manifest
/// plus `crates/` — good enough for both `cargo run` at the root and the
/// in-process test (whose CWD is the crate dir).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() && d.join("crates").is_dir() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
