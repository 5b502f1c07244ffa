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
//! carries the same table with longer explanations).
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

impl Default for Options {
    fn default() -> Self {
        Options {
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
        }
    }
}

fn usage() -> ! {
    print_usage();
    std::process::exit(2)
}

fn print_usage() {
    // Keep this text in sync with the flag table in README.md.
    eprintln!(
        "churn — churn-resilience experiment for compact routing schemes

USAGE: churn [OPTIONS]

OPTIONS:
  --n <N>                 vertices of the base graph            [default: 1000]
  --family <F>            erdos-renyi|geometric|grid|scale-free [default: erdos-renyi]
  --rounds <R>            churn rounds                          [default: 6]
  --remove-frac <F>       alive vertices removed per round      [default: 0.05]
  --add-frac <F>          rejoining vertices per removal        [default: 0.5]
  --edge-remove-frac <F>  surviving edges failed per round      [default: 0.02]
  --edge-add-frac <F>     new edges per round                   [default: 0.02]
  --pairs <P>             routed pairs sampled per round        [default: 2000]
  --sources <K>           distinct pair sources per round
                          (0 = uniform pairs)                   [default: 0]
  --threads <T>           worker threads (0 = all hardware)     [default: 0]
  --epsilon <E>           epsilon of the paper's schemes        [default: 0.5]
  --seed <S>              master seed                           [default: 7]
  --schemes <LIST>        registered scheme names, or 'all'     [default: tz2,warmup,thm11]
  --modes <LIST>          random,targeted,degree-weighted       [default: random,targeted]
  --policies <LIST>       never,every-round,every-<k>,threshold-<x>
                                                                [default: never,every-2,threshold-0.9]
  --json <PATH>           write all runs as a JSON array
  --metrics <PATH>        enable telemetry counters; write a JSON
                          metric export (failure classes, timings)
  --help                  show this help"
    );
}

fn parse_options(registry: &SchemeRegistry) -> Options {
    let mut opts = Options::default();
    let mut args = Args::from_env();
    while let Some(flag) = args.next_flag() {
        if flag == "--help" || flag == "-h" {
            print_usage();
            std::process::exit(0);
        }
        let value = cli::ok_or_usage(args.value(&flag), usage);
        let invalid = |what: &str| -> CliError {
            CliError::Invalid { flag: flag.clone(), value: value.clone(), what: what.to_string() }
        };
        match flag.as_str() {
            "--n" => opts.n = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage),
            "--family" => opts.family = cli::ok_or_usage(cli::parse_family(&flag, &value), usage),
            "--rounds" => {
                opts.rounds = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--remove-frac" => {
                opts.remove_frac = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected a float"), usage)
            }
            "--add-frac" => {
                opts.add_frac = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected a float"), usage)
            }
            "--edge-remove-frac" => {
                opts.edge_remove_frac =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected a float"), usage)
            }
            "--edge-add-frac" => {
                opts.edge_add_frac =
                    cli::ok_or_usage(cli::parse_value(&flag, &value, "expected a float"), usage)
            }
            "--pairs" => {
                opts.pairs = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--sources" => {
                opts.sources = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--threads" => {
                opts.threads = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--epsilon" => {
                opts.epsilon = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected a float"), usage)
            }
            "--seed" => {
                opts.seed = cli::ok_or_usage(cli::parse_value(&flag, &value, "expected an integer"), usage)
            }
            "--schemes" => {
                opts.schemes =
                    cli::ok_or_usage(cli::parse_schemes(&flag, &value, &registry.names()), usage)
            }
            "--modes" => {
                opts.modes = cli::ok_or_usage(
                    value
                        .split(',')
                        .map(|m| RemovalMode::parse(m).ok_or_else(|| invalid("unknown mode")))
                        .collect::<Result<Vec<_>, _>>(),
                    usage,
                )
            }
            "--policies" => {
                opts.policies = cli::ok_or_usage(
                    value
                        .split(',')
                        .map(|p| RebuildPolicy::parse(p).ok_or_else(|| invalid("unknown policy")))
                        .collect::<Result<Vec<_>, _>>(),
                    usage,
                )
            }
            "--json" => opts.json = Some(value),
            "--metrics" => opts.metrics = Some(value),
            _ => cli::die(CliError::UnknownFlag { flag }, usage),
        }
    }
    opts
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
    let opts = parse_options(&registry);
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
