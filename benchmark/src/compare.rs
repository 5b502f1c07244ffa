//! The repeatability checker behind `check.sh`: two `--json` files, one
//! row per workload and end-to-end metric, judged by the benchmark's own
//! bounds. The tool for run-vs-run on one commit and for parent-vs-change.

use serde_json::Value;

use crate::spec::{end_to_end_defs, MetricDef, WORKLOADS};
use crate::stats::median;

/// Metrics that are counts or deterministic at `threads = 1`: for one pair
/// of seeds they must repeat exactly.
const EXACT: [&str; 4] = ["table_words_max", "label_words_max", "header_words_max", "stretch_mean"];

/// One end-to-end run of a `--json` file.
struct Run {
    workload: String,
    /// `(seed, graph_seed)`.
    seeds: (u64, u64),
    metrics: Vec<(String, f64)>,
}

fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |key: &str| v.get(key).ok_or_else(|| format!("line {}: no {key:?}", i + 1));
        if field("trace")?.as_bool() != Some(false) {
            continue;
        }
        let Value::Map(metrics) = field("metrics")? else {
            return Err(format!("line {}: metrics is not an object", i + 1));
        };
        runs.push(Run {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seeds: (
                field("seed")?.as_u64().unwrap_or_default(),
                field("graph_seed")?.as_u64().unwrap_or_default(),
            ),
            metrics: metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect(),
        });
    }
    Ok(runs)
}

/// The verdict on one metric of one workload.
fn judge(def: &MetricDef, a: f64, b: f64, same_seed: bool) -> (f64, bool) {
    let relative = if a == 0.0 { f64::from(u8::from(b != 0.0)) } else { (b - a) / a };
    let ok = if same_seed && EXACT.contains(&def.name.as_str()) {
        a.to_bits() == b.to_bits()
    } else {
        relative.abs() <= def.bound.unwrap_or(0.0)
    };
    (relative, ok)
}

/// One side of a row: the median of `metric` over the side's runs of the
/// workload, the run count, and whether every run read the same value.
fn side(runs: &[&Run], metric: &str) -> Option<(f64, bool)> {
    let values: Vec<f64> = runs
        .iter()
        .map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect::<Option<_>>()?;
    let first = *values.first()?;
    Some((median(&values), values.iter().all(|v| v.to_bits() == first.to_bits())))
}

fn runs_of<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

/// Prints the comparison, workload by workload, of the medians over each
/// file's runs; the exit code is non-zero when any row is `UNRESOLVED`.
fn compare(a: &[Run], b: &[Run]) -> u8 {
    let defs = end_to_end_defs();
    let mut unresolved = 0;
    let mut rows = 0;
    println!(
        "{:<16} {:<17} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in &WORKLOADS {
        let (ra, rb) = (runs_of(a, w.name), runs_of(b, w.name));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        // Exact repetition is owed only when every run used one pair of seeds.
        let same_seeds = ra.iter().chain(&rb).all(|r| r.seeds == ra[0].seeds);
        println!("{:<16} medians of {} and {} runs", w.name, ra.len(), rb.len());
        for def in &defs {
            let (Some((va, flat_a)), Some((vb, flat_b))) =
                (side(&ra, &def.name), side(&rb, &def.name))
            else {
                println!("{:<16} {:<17} missing from a run  UNRESOLVED", w.name, def.name);
                unresolved += 1;
                continue;
            };
            let (relative, mut ok) = judge(def, va, vb, same_seeds);
            if same_seeds && EXACT.contains(&def.name.as_str()) {
                ok &= flat_a && flat_b;
            }
            rows += 1;
            unresolved += u32::from(!ok);
            println!(
                "{:<16} {:<17} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}%  {}",
                w.name,
                def.name,
                va,
                vb,
                relative * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                if ok { "ok" } else { "UNRESOLVED" }
            );
        }
    }
    if rows == 0 {
        println!("no workload has an end-to-end run in both files");
        return 1;
    }
    println!("{rows} rows, {unresolved} UNRESOLVED");
    u8::from(unresolved > 0)
}

pub fn compare_files(a: &str, b: &str) -> Result<u8, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare(&read(a)?, &read(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, seed: u64, qps: f64, words: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"graph_seed\":13,\"trace\":false,\
             \"metrics\":{{\"route_qps\":{qps:?},\"table_words_max\":{words:?}}}}}\n"
        )
    }

    #[test]
    fn bounds_and_exact_counts_are_enforced() {
        let defs = end_to_end_defs();
        let qps = defs.iter().find(|d| d.name == "route_qps").unwrap();
        let words = defs.iter().find(|d| d.name == "table_words_max").unwrap();
        let bound = qps.bound.unwrap();
        assert!(judge(qps, 100.0, 100.0 * (1.0 + bound) - 1.0, true).1);
        assert!(!judge(qps, 100.0, 100.0 * (1.0 + bound) + 1.0, true).1);
        assert!(!judge(qps, 100.0, 100.0 * (1.0 - bound) - 1.0, true).1);
        // A count must repeat exactly for one seed, and stay in its bound across seeds.
        assert!(judge(words, 500.0, 500.0, true).1);
        assert!(!judge(words, 500.0, 501.0, true).1);
        assert!(judge(words, 500.0, 501.0, false).1);
    }

    #[test]
    fn sides_are_medians_over_runs_and_counts_must_not_move_within_a_side() {
        let text = line("t1-er-direct", 13, 100.0, 500.0)
            + &line("t1-er-direct", 13, 300.0, 500.0)
            + &line("t1-er-direct", 13, 200.0, 501.0);
        let runs = parse_runs(&text).unwrap();
        let refs: Vec<&Run> = runs.iter().collect();
        assert_eq!(side(&refs, "route_qps"), Some((200.0, false)));
        assert_eq!(side(&refs, "table_words_max"), Some((500.0, false)));
        assert_eq!(side(&refs[..2], "table_words_max"), Some((500.0, true)));
        assert_eq!(side(&refs, "setup_s"), None);
    }

    #[test]
    fn files_are_read_by_line_and_traced_runs_skipped() {
        let traced = line("t1-er-direct", 13, 1.0, 1.0).replace("false", "true");
        let runs = parse_runs(&(line("t1-er-direct", 13, 100.0, 500.0) + "\n" + &traced)).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!((runs[0].workload.as_str(), runs[0].seeds), ("t1-er-direct", (13, 13)));
        assert_eq!(
            runs[0].metrics,
            vec![("route_qps".to_string(), 100.0), ("table_words_max".to_string(), 500.0)]
        );
        assert!(parse_runs("{not json").is_err());
        // The other eight metrics of the table are missing: every row is unresolved.
        assert_eq!(compare(&runs, &runs), 1);
        // No workload in common is a failure too.
        assert_eq!(compare(&runs, &parse_runs(&line("serve-uniform", 13, 1.0, 1.0)).unwrap()), 1);
    }
}
