//! Experiment CH: churn resilience — what does dynamic node/edge churn do
//! to each routing scheme's deliverability, and what does each rebuild
//! policy buy back at what preprocessing cost?
//!
//! For every (scheme × removal mode × rebuild policy) combination the
//! harness runs the seeded churn schedule, routes sampled pairs through the
//! **stale** tables on the **mutated** graph, and prints a per-round table
//! plus a final summary (the DRFE-style resilience table):
//! `strategy × removal-mode → reachability / stretch / rebuild-ms`.
//!
//! Schemes are selected by registry name and built through
//! `compact_routing::SchemeRegistry` — `run_churn` receives a closure over
//! `registry.build(name, g, ctx)`, so this binary contains no per-scheme
//! construction code and any newly registered scheme is immediately
//! churn-testable.
//!
//! Run with: `cargo run -p routing-bench --release --bin churn -- [OPTIONS]`
//!
//! # Options
//!
//! `churn --help` prints the flag table with every default (the README
//! carries the same table with longer explanations). [`FLAGS`] is the one
//! declaration the defaults, the help text and the parsing come from.
//!
//! # Output schema (`--json`)
//!
//! The JSON artefact is an array of `routing_churn::ChurnRunResult`
//! objects: `{scheme, mode, policy, base_n, base_m, build_ms, rounds: [
//! {round, alive, edges, port_preservation, stale: {pairs,
//! disconnected_pairs, delivered, failures: {invalid_port, wrong_delivery,
//! hop_budget, unknown_vertex, scheme_error}, stretch}, rebuilt,
//! rebuild_ms, component_fraction, post: {n, m, reachability,
//! mean_stretch}?}, ...]}`.

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_bench::cli::{self, Args, CliError};
use routing_churn::{
    run_churn, ChurnExperimentConfig, ChurnPlanConfig, ChurnRunResult, RebuildPolicy, RemovalMode,
};
use routing_core::{BuildContext, Params};
use routing_graph::generators::{Family, WeightModel};

/// The parsed command line. `Default` is only the blank [`parse`] writes
/// every flag's declared default over.
#[derive(Debug, Default, PartialEq)]
struct Options {
    n: usize,
    family: Family,
    rounds: usize,
    remove_frac: f64,
    add_frac: f64,
    edge_remove_frac: f64,
    edge_add_frac: f64,
    pairs: usize,
    sources: usize,
    threads: usize,
    epsilon: f64,
    seed: u64,
    schemes: Vec<String>,
    modes: Vec<RemovalMode>,
    policies: Vec<RebuildPolicy>,
    json: Option<String>,
    metrics: Option<String>,
}

/// One flag: its usage (`--name <VALUE>`), its default as typed on a command
/// line (`""` leaves the option unset), its help text, and where its value
/// goes.
struct Flag(&'static str, &'static str, &'static str, fn(&mut Options, &Value) -> Result<(), CliError>);

impl Flag {
    fn name(&self) -> &'static str {
        self.0.split_once(' ').map_or(self.0, |(name, _)| name)
    }
}

/// A flag's value as typed, with the registry names `--schemes` accepts.
struct Value<'a> {
    flag: &'static str,
    text: &'a str,
    schemes: &'a [&'a str],
}

impl Value<'_> {
    /// Parses the value into `slot`; `what` is what a bad value should have been.
    fn parse_into<T: std::str::FromStr>(&self, slot: &mut T, what: &str) -> Result<(), CliError> {
        *slot = cli::parse_value(self.flag, self.text, what)?;
        Ok(())
    }

    /// Parses every comma-separated item into `slot`; `what` names a bad one.
    fn list_into<T>(&self, slot: &mut Vec<T>, item: fn(&str) -> Option<T>, what: &str) -> Result<(), CliError> {
        let invalid = || CliError::Invalid { flag: self.flag.into(), value: self.text.into(), what: what.into() };
        *slot = self.text.split(',').map(|s| item(s).ok_or_else(invalid)).collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Stores the value as a path.
    fn path_into(&self, slot: &mut Option<String>) -> Result<(), CliError> {
        *slot = Some(self.text.into());
        Ok(())
    }
}

const INT: &str = "expected an integer";
const FLOAT: &str = "expected a float";

/// Every flag `churn` takes, in `--help` order.
const FLAGS: &[Flag] = &[
    Flag("--n <N>", "1000", "vertices of the base graph", |o, v| v.parse_into(&mut o.n, INT)),
    Flag("--family <F>", "erdos-renyi", "erdos-renyi|geometric|grid|scale-free", |o, v| {
        cli::parse_family(v.flag, v.text).map(|family| o.family = family)
    }),
    Flag("--rounds <R>", "6", "churn rounds", |o, v| v.parse_into(&mut o.rounds, INT)),
    Flag("--remove-frac <F>", "0.05", "alive vertices removed per round", |o, v| v.parse_into(&mut o.remove_frac, FLOAT)),
    Flag("--add-frac <F>", "0.5", "rejoining vertices per removal", |o, v| v.parse_into(&mut o.add_frac, FLOAT)),
    Flag("--edge-remove-frac <F>", "0.02", "surviving edges failed per round", |o, v| v.parse_into(&mut o.edge_remove_frac, FLOAT)),
    Flag("--edge-add-frac <F>", "0.02", "new edges per round", |o, v| v.parse_into(&mut o.edge_add_frac, FLOAT)),
    Flag("--pairs <P>", "2000", "routed pairs sampled per round", |o, v| v.parse_into(&mut o.pairs, INT)),
    Flag("--sources <K>", "0", "distinct pair sources per round (0 = uniform pairs)", |o, v| v.parse_into(&mut o.sources, INT)),
    Flag("--threads <T>", "0", "worker threads (0 = all hardware)", |o, v| v.parse_into(&mut o.threads, INT)),
    Flag("--epsilon <E>", "0.5", "epsilon of the paper's schemes", |o, v| v.parse_into(&mut o.epsilon, FLOAT)),
    Flag("--seed <S>", "7", "master seed", |o, v| v.parse_into(&mut o.seed, INT)),
    Flag("--schemes <LIST>", "tz2,warmup,thm11", "registered scheme names, or 'all'", |o, v| {
        cli::parse_schemes(v.flag, v.text, v.schemes).map(|schemes| o.schemes = schemes)
    }),
    Flag("--modes <LIST>", "random,targeted", "random,targeted,degree-weighted", |o, v| {
        v.list_into(&mut o.modes, RemovalMode::parse, "unknown mode")
    }),
    Flag("--policies <LIST>", "never,every-2,threshold-0.9", "never,every-round,every-<k>,threshold-<x>", |o, v| {
        v.list_into(&mut o.policies, RebuildPolicy::parse, "unknown policy")
    }),
    Flag("--json <PATH>", "", "write all runs as a JSON array", |o, v| v.path_into(&mut o.json)),
    Flag("--metrics <PATH>", "", "enable telemetry counters; write a JSON metric export (failure classes, timings)", |o, v| {
        v.path_into(&mut o.metrics)
    }),
];

fn usage() -> ! {
    eprint!("{}", usage_text());
    std::process::exit(2)
}

fn usage_text() -> String {
    let mut text = String::from(
        "churn — churn-resilience experiment for compact routing schemes\n\n\
         USAGE: churn [OPTIONS]\n\nOPTIONS:\n",
    );
    for Flag(usage, default, help, _) in FLAGS {
        let default = if default.is_empty() { String::new() } else { format!("  [default: {default}]") };
        text += format!("  {usage:<23} {help:<51}{default}").trim_end();
        text += "\n";
    }
    text + "  --help                  show this help\n"
}

/// The options a command line asks for: every flag's default, then the
/// flags given, in order. `None` is `--help`.
fn parse(mut args: Args, schemes: &[&str]) -> Result<Option<Options>, CliError> {
    let mut opts = Options::default();
    let mut set = |flag: &Flag, text: &str| (flag.3)(&mut opts, &Value { flag: flag.name(), text, schemes });
    for flag in FLAGS.iter().filter(|f| !f.1.is_empty()) {
        set(flag, flag.1)?;
    }
    while let Some(name) = args.next_flag() {
        if name == "--help" || name == "-h" {
            return Ok(None);
        }
        let flag = FLAGS.iter().find(|f| f.name() == name);
        set(flag.ok_or_else(|| CliError::UnknownFlag { flag: name.clone() })?, &args.value(&name)?)?;
    }
    Ok(Some(opts))
}

fn print_rounds(result: &ChurnRunResult) {
    println!(
        "\n--- {} | mode={} | policy={} | build {:.0} ms ---",
        result.scheme, result.mode, result.policy, result.build_ms
    );
    println!(
        "{:>5} {:>6} {:>7} {:>10} {:>7} {:>8} {:>8} {:>24} {:>8} {:>11} {:>10}",
        "round",
        "alive",
        "edges",
        "ports-kept",
        "reach",
        "stretch",
        "max-str",
        "failures(ip/wd/hb/uv/se)",
        "rebuilt",
        "rebuild-ms",
        "post-reach"
    );
    for r in &result.rounds {
        let f = &r.stale.failures;
        println!(
            "{:>5} {:>6} {:>7} {:>9.1}% {:>6.1}% {:>8.3} {:>8.3} {:>24} {:>8} {:>11.1} {:>10}",
            r.round,
            r.alive,
            r.edges,
            100.0 * r.port_preservation,
            100.0 * r.stale.reachability(),
            r.stale.stretch.mean_multiplicative().unwrap_or(1.0),
            r.stale.stretch.max_multiplicative().unwrap_or(1.0),
            format!(
                "{}/{}/{}/{}/{}",
                f.invalid_port, f.wrong_delivery, f.hop_budget, f.unknown_vertex, f.scheme_error
            ),
            if r.rebuilt { "yes" } else { "-" },
            r.rebuild_ms,
            r.post
                .as_ref()
                .map_or("-".to_string(), |p| format!("{:.1}%", 100.0 * p.reachability)),
        );
    }
}

fn print_summary(results: &[ChurnRunResult]) {
    println!("\n=== churn-resilience summary (final round) ===");
    println!(
        "{:<30} {:<16} {:<15} {:>11} {:>11} {:>9} {:>9} {:>12}",
        "scheme", "mode", "policy", "final-reach", "worst-reach", "stretch", "rebuilds", "rebuild-ms"
    );
    println!("{}", "-".repeat(120));
    for r in results {
        let final_stretch = r
            .rounds
            .last()
            .and_then(|x| x.stale.stretch.mean_multiplicative())
            .unwrap_or(1.0);
        println!(
            "{:<30} {:<16} {:<15} {:>10.1}% {:>10.1}% {:>9.3} {:>9} {:>12.1}",
            r.scheme,
            r.mode,
            r.policy,
            100.0 * r.final_reachability(),
            100.0 * r.worst_reachability(),
            final_stretch,
            r.rebuild_count(),
            r.total_rebuild_ms(),
        );
    }
}

fn main() {
    let registry = SchemeRegistry::with_defaults();
    let Some(opts) = cli::ok_or_usage(parse(Args::from_env(), &registry.names()), usage) else {
        eprint!("{}", usage_text());
        return;
    };
    if opts.metrics.is_some() {
        // The stale-routing simulator mirrors every failure class into the
        // churn_fail_* counters; the flag turns those mirrors on.
        routing_obs::set_metrics(true);
    }
    let threads =
        if opts.threads == 0 { routing_par::available_threads() } else { opts.threads };
    routing_par::set_threads(threads);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let base = opts.family.generate(opts.n, WeightModel::Unit, &mut rng);
    println!(
        "base instance: family={} n={} m={} | rounds={} remove={:.0}% add={:.0}% pairs={} seed={} threads={}",
        opts.family.name(),
        base.n(),
        base.m(),
        opts.rounds,
        100.0 * opts.remove_frac,
        100.0 * opts.add_frac,
        opts.pairs,
        opts.seed,
        threads,
    );

    let build_ctx = BuildContext {
        params: Params::with_epsilon(opts.epsilon),
        seed: opts.seed ^ 0xb111d,
        threads,
    };
    let mut results: Vec<ChurnRunResult> = Vec::new();
    for (mode_idx, &mode) in opts.modes.iter().enumerate() {
        let plan_cfg = ChurnPlanConfig {
            rounds: opts.rounds,
            remove_frac: opts.remove_frac,
            add_frac: opts.add_frac,
            edge_remove_frac: opts.edge_remove_frac,
            edge_add_frac: opts.edge_add_frac,
            mode,
            // One trajectory per mode, shared by every scheme and policy so
            // their rows are comparable.
            seed: opts.seed ^ (0x5eed << mode_idx),
        };
        for scheme in &opts.schemes {
            for &policy in &opts.policies {
                let cfg = ChurnExperimentConfig {
                    pairs_per_round: opts.pairs,
                    sources_per_round: opts.sources,
                    policy,
                    seed: opts.seed ^ 0xa11ce,
                };
                // Registry dispatch: the same closure serves the initial
                // build and every policy-triggered rebuild.
                match run_churn(&base, &plan_cfg, &cfg, |g| {
                    registry.build(scheme, g, &build_ctx)
                }) {
                    Ok(result) => {
                        print_rounds(&result);
                        results.push(result);
                    }
                    Err(e) => eprintln!(
                        "run failed: scheme={scheme} mode={} policy={policy}: {e}",
                        mode.name()
                    ),
                }
            }
        }
    }

    print_summary(&results);

    if let Some(path) = &opts.json {
        match serde_json::to_string_pretty(&results) {
            Ok(json) => match std::fs::write(path, json) {
                Ok(()) => println!("\n(wrote {path})"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            },
            Err(e) => eprintln!("could not serialize results: {e}"),
        }
    }

    if let Some(path) = &opts.metrics {
        write_metrics(path, &results);
    }
}

/// Exports the run's telemetry as a JSON metric object: the well-known
/// counters (the `churn_fail_*` failure classes fired by the stale-routing
/// simulator), run-level aggregates, and a histogram of per-event rebuild
/// wall-clock so the cost of each policy's repair work is visible as a
/// distribution, not just a sum.
fn write_metrics(path: &str, results: &[ChurnRunResult]) {
    let mut set = routing_obs::MetricSet::gather();
    let mut rebuild_us = routing_obs::latency::LatencyHistogram::new();
    let mut build_ms_total = 0.0;
    let mut rebuild_ms_total = 0.0;
    let (mut rounds, mut rebuilds, mut pairs, mut delivered) = (0u64, 0u64, 0u64, 0u64);
    for r in results {
        build_ms_total += r.build_ms;
        for round in &r.rounds {
            rounds += 1;
            pairs += round.stale.pairs as u64;
            delivered += round.stale.delivered as u64;
            if round.rebuilt {
                rebuilds += 1;
                rebuild_ms_total += round.rebuild_ms;
                rebuild_us.record((round.rebuild_ms * 1e3) as u64);
            }
        }
    }
    set.counter("churn_runs_total", "scheme x mode x policy runs completed", results.len() as u64);
    set.counter("churn_rounds_total", "churn rounds simulated across all runs", rounds);
    set.counter("churn_rebuilds_total", "policy-triggered rebuilds across all runs", rebuilds);
    set.counter("churn_stale_pairs_total", "pairs routed through stale tables", pairs);
    set.counter("churn_stale_delivered_total", "stale-routed pairs delivered correctly", delivered);
    set.gauge("churn_build_ms_total", "initial preprocessing wall-clock summed over runs", build_ms_total);
    set.gauge("churn_rebuild_ms_total", "rebuild wall-clock summed over all triggered rebuilds", rebuild_ms_total);
    set.histogram("churn_rebuild_us", "per-rebuild wall-clock, microseconds", &rebuild_us);
    match std::fs::write(path, routing_obs::export::json(&set)) {
        Ok(()) => eprintln!("wrote {} metric series to {path}", set.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(tokens: &[&str]) -> Result<Option<Options>, CliError> {
        let registry = SchemeRegistry::with_defaults();
        parse(Args::from_tokens(tokens.iter().copied()), &registry.names())
    }

    #[test]
    fn help_lists_every_flag_once_with_its_default() {
        let text = usage_text();
        for Flag(usage, default, _, _) in FLAGS {
            let lines: Vec<&str> = text.lines().filter(|l| l.starts_with(&format!("  {usage} "))).collect();
            assert_eq!(lines.len(), 1, "{usage}:\n{text}");
            assert_eq!(lines[0].ends_with(&format!("[default: {default}]")), !default.is_empty(), "{usage}");
        }
        assert_eq!(parsed(&["--help"]), Ok(None));
    }

    /// The defaults the hand-written `Options::default` held before the flag
    /// table, verbatim.
    #[test]
    fn an_empty_command_line_gives_the_documented_defaults() {
        let reference = Options {
            n: 1000,
            family: Family::ErdosRenyi,
            rounds: 6,
            remove_frac: 0.05,
            add_frac: 0.5,
            edge_remove_frac: 0.02,
            edge_add_frac: 0.02,
            pairs: 2000,
            sources: 0,
            threads: 0,
            epsilon: 0.5,
            seed: 7,
            schemes: vec!["tz2".into(), "warmup".into(), "thm11".into()],
            modes: vec![RemovalMode::Random, RemovalMode::Targeted],
            policies: vec![
                RebuildPolicy::Never,
                RebuildPolicy::EveryK(2),
                RebuildPolicy::ReachabilityBelow(0.9),
            ],
            json: None,
            metrics: None,
        };
        assert_eq!(parsed(&[]), Ok(Some(reference)));
    }

    #[test]
    fn flags_override_defaults_and_malformed_lines_are_named_errors() {
        let opts = parsed(&["--n", "300", "--modes", "degree-weighted", "--json", "x.json"]);
        let opts = opts.unwrap().unwrap();
        assert_eq!((opts.n, opts.rounds, opts.json.as_deref()), (300, 6, Some("x.json")));
        assert_eq!(opts.modes, vec![RemovalMode::DegreeWeighted]);
        let err = |tokens: &[&str]| parsed(tokens).unwrap_err().to_string();
        assert_eq!(err(&["--frobnicate", "1"]), "unknown flag --frobnicate");
        assert_eq!(err(&["--rounds"]), "missing value for --rounds");
        assert_eq!(err(&["--n", "12x"]), "invalid value \"12x\" for --n: expected an integer");
        let policies = "invalid value \"never,sometimes\" for --policies: unknown policy";
        assert_eq!(err(&["--policies", "never,sometimes"]), policies);
        assert!(err(&["--schemes", "thm12"]).contains("unknown scheme \"thm12\""));
    }
}
