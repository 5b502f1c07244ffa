//! The repository's benchmark. See `README.md` beside this package for the
//! workloads, the metrics, the measurement protocol and the list of public
//! items this binary measures from outside.
//!
//! One run is one workload:
//! `routing-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric as `name value unit`, verifies every answer, ends
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`) and
//! exits non-zero when a check failed.

mod alloc;
mod anchor;
mod compare;
mod layers;
mod run;
mod spec;
mod stats;

use std::io::Write;
use std::process::ExitCode;

use serde_json::Value;

use run::{Config, Report};
use spec::{map, Json, MetricDef, DEFAULT_SEED, ENVELOPES, RUN_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
routing-benchmark --workload <name> [--seed <S>] [--graph-seed <S>] [--seconds <F>]
                  [--trace <0|1>] [--traced] [--smoke] [--json <path>]
routing-benchmark --list | --contract | --compare <a.jsonl> <b.jsonl>

  --workload <name>  one of --list
  --seed <S>         seed of the traffic: query and check pairs [default: 13]
  --graph-seed <S>   seed of the graph and the scheme builds   [default: 13]
  --seconds <F>      length of the query measurement           [default: 8; 1 with --smoke]
  --trace <0|1>      0: end-to-end metrics, telemetry off; 1: per-layer metrics
  --traced           same as --trace 1
  --smoke            n / 10, short slices, 1 + 1 set-ups: every check and name, fast
  --json <path>      append the run's full report to <path> as one JSON line
  --list             print the workload names
  --contract         print BENCHMARK.json
  --compare A B      compare two --json files metric by metric against the bounds";

struct Cli {
    cfg: Config,
    json: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut graph_seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut json = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--graph-seed" => {
                graph_seed = value()?.parse().map_err(|_| "--graph-seed takes an integer")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => trace = true,
            "--smoke" => smoke = true,
            "--json" => json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { RUN_SECONDS as f64 });
    Ok(Cli { cfg: Config { workload, seed, graph_seed, seconds, trace, smoke }, json })
}

/// Process exit code of a finished run: 0 only when every check passed.
pub fn exit_code(report: &Report) -> u8 {
    u8::from(!report.correct())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The mode's metric table joined with the run's values. A metric whose
/// layer the workload does not run reads 0.
fn tabulate<'a>(
    defs: &'a [MetricDef],
    report: &Report,
) -> Result<Vec<(&'a MetricDef, f64)>, String> {
    if let Some((stray, _)) = report.metrics.iter().find(|(n, _)| defs.iter().all(|d| d.name != *n))
    {
        return Err(format!("metric {stray:?} is not in the metric table"));
    }
    Ok(defs
        .iter()
        .map(|d| {
            let value = report.metrics.iter().find(|(n, _)| *n == d.name).map_or(0.0, |&(_, v)| v);
            (d, value)
        })
        .collect())
}

fn print_report(cfg: &Config, report: &Report, rows: &[(&MetricDef, f64)]) {
    let w = cfg.workload;
    println!(
        "workload {} seed {} graph-seed {} seconds {} trace {} smoke {} nproc {}",
        w.name,
        cfg.seed,
        cfg.graph_seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        nproc()
    );
    let f = report.fingerprint;
    println!("input n {} m {} fnv {:#018x}", f.n, f.m, f.fnv);
    if !report.fingerprint_ok {
        let e = w.fingerprint;
        println!(
            "FAILED input fingerprint: expected n {} m {} fnv {:#018x} at the default graph seed",
            e.n, e.m, e.fnv
        );
    }
    for (d, value) in rows {
        match report.spreads.iter().find(|(n, _)| *n == d.name) {
            Some((_, s)) => println!(
                "{} {} {}   [min {} q1 {} q3 {} max {}, {} samples]",
                d.name, value, d.unit, s.min, s.q1, s.q3, s.max, s.count
            ),
            None => println!("{} {} {}", d.name, value, d.unit),
        }
    }
    for (name, s) in report.spreads.iter().filter(|(n, _)| rows.iter().all(|(d, _)| d.name != *n)) {
        println!(
            "# {name} {}   [min {} q1 {} q3 {} max {}, {} samples]",
            s.median, s.min, s.q1, s.q3, s.max, s.count
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("attempted {} failed {}", report.tally.attempted, report.tally.failed);
}

/// The contract's last line.
fn result_line(report: &Report, rows: &[(&MetricDef, f64)]) -> Value {
    let metrics = rows
        .iter()
        .map(|(d, v)| {
            (
                d.name.clone(),
                map(vec![("value", Value::Float(*v)), ("unit", Value::Str(d.unit.into()))]),
            )
        })
        .collect();
    map(vec![
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::UInt(report.tally.attempted)),
        ("failed", Value::UInt(report.tally.failed)),
        ("metrics", Value::Map(metrics)),
    ])
}

/// The full report of a run, one line of a `--json` file.
fn json_line(cfg: &Config, report: &Report, rows: &[(&MetricDef, f64)]) -> Value {
    let f = report.fingerprint;
    let spreads = report
        .spreads
        .iter()
        .map(|(name, s)| {
            let summary = map(vec![
                ("count", Value::UInt(s.count as u64)),
                ("min", Value::Float(s.min)),
                ("q1", Value::Float(s.q1)),
                ("median", Value::Float(s.median)),
                ("q3", Value::Float(s.q3)),
                ("max", Value::Float(s.max)),
            ]);
            (name.clone(), summary)
        })
        .collect();
    map(vec![
        ("workload", Value::Str(cfg.workload.name.into())),
        ("seed", Value::UInt(cfg.seed)),
        ("graph_seed", Value::UInt(cfg.graph_seed)),
        ("seconds", Value::Float(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("nproc", Value::UInt(nproc() as u64)),
        (
            "fingerprint",
            map(vec![
                ("n", Value::UInt(f.n as u64)),
                ("m", Value::UInt(f.m as u64)),
                ("fnv", Value::Str(format!("{:#018x}", f.fnv))),
            ]),
        ),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::UInt(report.tally.attempted)),
        ("failed", Value::UInt(report.tally.failed)),
        (
            "metrics",
            Value::Map(rows.iter().map(|(d, v)| (d.name.clone(), Value::Float(*v))).collect()),
        ),
        ("spreads", Value::Map(spreads)),
        (
            "series",
            Value::Map(
                report
                    .series
                    .iter()
                    .map(|(name, v)| {
                        (name.clone(), Value::Seq(v.iter().map(|&x| Value::Float(x)).collect()))
                    })
                    .collect(),
            ),
        ),
    ])
}

fn to_json(value: Value) -> String {
    serde_json::to_string(&Json(value)).expect("the stand-in serializer never fails")
}

fn run_one(cli: &Cli) -> Result<u8, String> {
    let cfg = &cli.cfg;
    let report = run::run(cfg, &ENVELOPES)?;
    let defs = if cfg.trace { spec::per_layer_defs() } else { spec::end_to_end_defs() };
    let rows = tabulate(&defs, &report)?;
    print_report(cfg, &report, &rows);
    if let Some(path) = &cli.json {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", to_json(json_line(cfg, &report, &rows)))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", to_json(result_line(&report, &rows)));
    Ok(exit_code(&report))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(if args.is_empty() { 2 } else { 0 })
        }
        Some("--list") => {
            WORKLOADS.iter().for_each(|w| println!("{}", w.name));
            Ok(0)
        }
        Some("--contract") => {
            println!("{}", serde_json::to_string_pretty(&spec::contract()).expect("never fails"));
            Ok(0)
        }
        Some("--compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("--compare takes two files".to_string()),
        },
        Some(_) => parse(&args).and_then(|cli| run_one(&cli)),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse(&args(&[
            "--workload",
            "serve-uniform",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.cfg.workload.name, "serve-uniform");
        assert_eq!(
            (cli.cfg.seed, cli.cfg.seconds, cli.cfg.trace, cli.cfg.smoke),
            (7, 3.0, true, false)
        );
        assert_eq!(cli.cfg.graph_seed, DEFAULT_SEED, "the traffic seed leaves the graph alone");
        let cli =
            parse(&args(&["--workload", "t1-er-direct", "--smoke", "--graph-seed", "14"])).unwrap();
        assert_eq!((cli.cfg.seed, cli.cfg.seconds, cli.cfg.trace), (DEFAULT_SEED, 1.0, false));
        assert_eq!(cli.cfg.graph_seed, 14);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            &["--seed", "3"][..],
            &["--workload", "nope"],
            &["--workload", "t1-er-direct", "--trace", "2"],
            &["--workload", "t1-er-direct", "--seconds", "0"],
            &["--workload", "t1-er-direct", "--seed"],
            &["--workload", "t1-er-direct", "--frobnicate"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
