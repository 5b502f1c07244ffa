//! The paper's static evaluation artefacts, one subcommand per experiment:
//! Table 1, the per-theorem series, the two techniques in isolation, the
//! design ablations and the `ε` sweep ([`EXPERIMENTS`] is the one
//! declaration the dispatch and the usage text are generated from) — and
//! `peak`, each key's build heap: the most bytes live while it builds
//! beside those its scheme keeps, counted by the binary's allocator.
//!
//! Every experiment is seeded. A malformed command line exits 2 with a
//! named diagnostic and the usage; a failed build, route or artefact write
//! exits 1.
//!
//! Run with: `cargo run -p routing-bench --release --bin experiments -- <experiment> [n] [epsilon]`

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_bench::alloc::{kept_bytes_in, peak_bytes_in};
use routing_bench::cli::{self, Args, CliError};
use routing_bench::{
    evaluate_scheme, make_graph, print_table, run_table1, to_json, ExperimentConfig, HarnessError,
    Instances,
};
use routing_core::{BuildContext, BuildError, Params, Technique1Scheme, Technique2Scheme};
use routing_graph::apsp::DistanceMatrix;
use routing_graph::generators::{self, Family, WeightModel};
use routing_graph::VertexId;
use routing_model::eval::{evaluate_pairs, EvalReport};
use routing_vicinity::{BallDists, BallTable, Coloring};

routing_bench::counting_allocator!(CountingAlloc);

/// Counts every allocation, so `peak` can read a build's heap.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What an experiment takes after its name.
#[derive(Clone, Copy)]
enum Run {
    /// `[n]` only: the experiment fixes or sweeps `ε` itself.
    N(fn(usize) -> Result<(), HarnessError>),
    /// `[n] [epsilon]`, with the default `ε`.
    NEps(fn(usize, f64) -> Result<(), HarnessError>, f64),
    /// `<keys> <family> [n]`: registry keys, comma-separated or `all`, and
    /// a graph family.
    KeysFamilyN(fn(&[String], Family, usize) -> Result<(), HarnessError>),
}

struct Experiment {
    name: &'static str,
    default_n: usize,
    run: Run,
    about: &'static str,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        default_n: 400,
        run: Run::NEps(table1, 0.25),
        about: "Table 1: stretch and table size of every registered scheme",
    },
    Experiment {
        name: "theorems",
        default_n: 300,
        run: Run::NEps(theorems, 0.25),
        about: "Theorems 10, 11 and the warm-up on every graph family",
    },
    Experiment {
        name: "techniques",
        default_n: 250,
        run: Run::N(techniques),
        about: "Lemma 7 and Lemma 8 in isolation over a sweep of epsilon",
    },
    Experiment {
        name: "ablations",
        default_n: 300,
        run: Run::N(ablations),
        about: "ball scale on the warm-up scheme",
    },
    Experiment {
        name: "epsilon-sweep",
        default_n: 300,
        run: Run::N(epsilon_sweep),
        about: "stretch and table size of the paper's schemes against epsilon",
    },
    Experiment {
        name: "peak",
        default_n: 600,
        run: Run::KeysFamilyN(peak),
        about: "peak build heap beside the heap each key's scheme keeps (1 thread)",
    },
];

/// The `ε` values `techniques` and `epsilon-sweep` step through.
const EPSILON_SWEEP: [f64; 5] = [2.0, 1.0, 0.5, 0.25, 0.125];

fn usage() -> ! {
    print_usage();
    std::process::exit(2)
}

fn print_usage() {
    eprintln!(
        "experiments — regenerate the paper's evaluation artefacts\n\n\
         USAGE: experiments <EXPERIMENT> [args]\n\n\
         EXPERIMENTS:"
    );
    for e in EXPERIMENTS {
        let (args, defaults) = match e.run {
            Run::N(_) => ("[n]", e.default_n.to_string()),
            Run::NEps(_, epsilon) => ("[n] [epsilon]", format!("{} {epsilon}", e.default_n)),
            Run::KeysFamilyN(_) => ("<keys> <family> [n]", e.default_n.to_string()),
        };
        eprintln!("  {:<14} {args:<20} {}  [default: {defaults}]", e.name, e.about);
    }
    eprintln!("  --help                              show this help");
    eprintln!(
        "\n<keys> is a comma-separated list of registry keys or `all`; <family> is \
         erdos-renyi (or er), geometric, grid or scale-free."
    );
}

/// A parsed command line: the experiment with its `n`, its `ε` where it
/// takes one, and its keys and family where it takes them. `None` is
/// `--help`.
type Invocation = Option<(&'static Experiment, usize, Option<f64>, Option<(Vec<String>, Family)>)>;

fn parse(mut args: Args) -> Result<Invocation, CliError> {
    let name = args.value("<EXPERIMENT>")?;
    if name == "--help" || name == "-h" {
        return Ok(None);
    }
    let experiment =
        EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| CliError::Invalid {
            flag: "<EXPERIMENT>".to_string(),
            value: name,
            what: format!(
                "unknown experiment (known: {})",
                EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
            ),
        })?;
    let selection = match experiment.run {
        Run::KeysFamilyN(_) => {
            let known = SchemeRegistry::with_defaults().names();
            let keys = cli::parse_schemes("<keys>", &args.value("<keys>")?, &known)?;
            Some((keys, cli::parse_family("<family>", &args.value("<family>")?)?))
        }
        Run::N(_) | Run::NEps(..) => None,
    };
    let n = match args.next_flag() {
        Some(a) => cli::parse_value("[n]", &a, "expected an integer")?,
        None => experiment.default_n,
    };
    let epsilon = match (experiment.run, args.next_flag()) {
        (Run::NEps(..), Some(a)) => Some(cli::parse_value("[epsilon]", &a, "expected a float")?),
        (Run::N(_) | Run::KeysFamilyN(_), Some(arg)) => {
            return Err(CliError::UnexpectedArgument { arg })
        }
        (_, None) => None,
    };
    match args.next_flag() {
        Some(arg) => Err(CliError::UnexpectedArgument { arg }),
        None => Ok(Some((experiment, n, epsilon, selection))),
    }
}

fn main() {
    let Some((experiment, n, epsilon, selection)) =
        cli::ok_or_usage(parse(Args::from_env()), usage)
    else {
        print_usage();
        return;
    };
    let result = match (experiment.run, selection) {
        (Run::N(run), _) => run(n),
        (Run::NEps(run, default), _) => run(n, epsilon.unwrap_or(default)),
        (Run::KeysFamilyN(run), Some((keys, family))) => run(&keys, family, n),
        // `parse` reads the keys and family of every experiment that takes them.
        (Run::KeysFamilyN(_), None) => usage(),
    };
    if let Err(e) = result {
        eprintln!("experiments {}: {e}", experiment.name);
        std::process::exit(1);
    }
}

/// Experiment T1: regenerate the paper's Table 1 — stretch and per-vertex
/// table size of every measured scheme the registry knows (ours and the
/// baselines) side by side with the cited theoretical rows, on one
/// Erdős–Rényi and one geometric instance pair. Writes each family's rows
/// to `table1_<family>.json` in the working directory.
///
/// A new registry row adds a measured row with no edits here.
fn table1(n: usize, epsilon: f64) -> Result<(), HarnessError> {
    let cfg = ExperimentConfig { n, epsilon, seed: 7, pairs: Some(4000) };
    let registry = SchemeRegistry::with_defaults();

    for family in [Family::ErdosRenyi, Family::Geometric] {
        let instances = Instances::generate(family, &cfg);
        println!(
            "\ninstance family={} n={} m(unweighted)={} m(weighted)={} eps={}",
            family.name(),
            instances.unweighted.n(),
            instances.unweighted.m(),
            instances.weighted.m(),
            cfg.epsilon
        );
        let rows = run_table1(&registry, &instances, &cfg)?;
        print_table(&format!("Table 1 on {} graphs", family.name()), &rows);
        let path = format!("table1_{}.json", family.name());
        let failed = |what: String| HarnessError::Artefact { path: path.clone(), what };
        let json = to_json(&rows).map_err(|e| failed(e.to_string()))?;
        std::fs::write(&path, json).map_err(|e| failed(e.to_string()))?;
        println!("(wrote {path})");
    }
    Ok(())
}

/// Experiments E-T10, E-T11, E-W3: per-theorem stretch and table-size
/// measurements across graph families, printed as one series per theorem
/// (the paper's per-theorem "figures"), with the claimed-bound annotation
/// derived from each registry row's `SchemeMeta` and the configured `ε`.
fn theorems(n: usize, epsilon: f64) -> Result<(), HarnessError> {
    let cfg = ExperimentConfig { n, epsilon, seed: 11, pairs: Some(3000) };
    let registry = SchemeRegistry::with_defaults();
    let ctx = BuildContext { params: cfg.params(), seed: cfg.seed, threads: routing_par::threads() };
    // The per-theorem series, in the order the paper presents them.
    let series = [("thm10", "Thm 10"), ("thm11", "Thm 11"), ("warmup", "warm-up")];

    println!("theorem experiments: n={n} eps={epsilon}");
    println!(
        "{:<14} {:<26} {:>9} {:>9} {:>10} {:>12} {:>8}",
        "family", "scheme", "max str", "mean str", "bound", "table max", "label"
    );
    for family in Family::ALL {
        let instances = Instances::generate(family, &cfg);
        for (key, name) in series {
            let (meta, g, exact) = instances.for_key(key)?;
            let scheme = registry.build(key, g, &ctx)?;
            let r = evaluate_scheme(g, scheme.as_ref(), exact, &cfg)?;
            println!(
                "{:<14} {:<26} {:>9.3} {:>9.3} {:>10} {:>12} {:>8}",
                family.name(),
                name,
                r.stretch.max_multiplicative().unwrap_or(1.0),
                r.stretch.mean_multiplicative().unwrap_or(1.0),
                meta.stretch_bound.label_at(meta.claimed_stretch, epsilon),
                r.table.max(),
                r.max_label_words
            );
        }
    }
    Ok(())
}

/// Experiments E-L7 and E-L8: the two routing techniques in isolation.
/// For a sweep of `ε`, measure the observed intra-set (Lemma 7) and
/// source-to-landmark (Lemma 8) stretch together with table and header
/// sizes, confirming the `(1+ε)` guarantee and the `1/ε` space dependence.
///
/// The Lemma 7/8 techniques are deliberately **not** `SchemeRegistry`
/// entries: they are partial-domain building blocks (Lemma 7 routes only
/// within a color class, Lemma 8 only towards its predefined destination
/// partition), so they cannot honour the registry's build-anything
/// `(graph, context)` contract. They are constructed here with their
/// per-set inputs and still evaluated through the same erased simulator
/// every registered scheme uses.
fn techniques(n: usize) -> Result<(), HarnessError> {
    let mut rng = StdRng::seed_from_u64(3);
    let g = generators::erdos_renyi(
        n,
        8.0 / n as f64,
        WeightModel::Uniform { lo: 1, hi: 16 },
        &mut rng,
    );
    let exact = DistanceMatrix::new(&g);
    let q = (n as f64).sqrt().ceil() as u32;
    let print_row = |lemma: &str, epsilon: f64, r: &EvalReport| {
        println!(
            "{:<8} {:<10} {:>10.4} {:>10.4} {:>12} {:>12}",
            lemma,
            epsilon,
            r.stretch.max_multiplicative().unwrap_or(1.0),
            r.stretch.mean_multiplicative().unwrap_or(1.0),
            r.table.max(),
            r.max_header_words
        );
    };

    println!("technique experiments on weighted Erdos-Renyi, n={n}, q={q}");
    println!(
        "{:<8} {:<10} {:>10} {:>10} {:>12} {:>12}",
        "lemma", "epsilon", "max str", "mean str", "table max", "header max"
    );
    for epsilon in EPSILON_SWEEP {
        let params = Params::with_epsilon(epsilon);

        // Lemma 7: partition by a Lemma 6 coloring of the vicinities.
        let ell = params.scaled(q as usize, n);
        let balls = BallTable::build_with_dists(&g, ell, BallDists::Skip);
        let sets = balls.id_prefixes(ell);
        let coloring =
            Coloring::build_for_sets(n, q, &sets, 8, &mut rng).map_err(BuildError::from)?;
        let color_of: Vec<u32> = g.vertices().map(|v| coloring.color(v)).collect();

        let t1 = Technique1Scheme::build(&g, color_of.clone(), &params)?;
        let mut same_color = Vec::new();
        for u in g.vertices() {
            let peers = g.vertices().filter(|&v| v != u && coloring.color(v) == coloring.color(u));
            same_color.extend(peers.map(|v| (u, v)));
        }
        print_row("L7", epsilon, &evaluate_pairs(&g, &t1, &exact, &same_color)?);

        // Lemma 8: destinations are a landmark-like sample partitioned to
        // match the coloring.
        let dests: Vec<VertexId> = g.vertices().filter(|v| v.0 % 5 == 0).collect();
        let mut dest_partition = vec![Vec::new(); q as usize];
        for (i, w) in dests.iter().enumerate() {
            dest_partition[i % q as usize].push(*w);
        }
        let mut to_dests = Vec::new();
        for (j, ws) in dest_partition.iter().enumerate() {
            for &w in ws {
                let sources = g.vertices().filter(|&u| u != w && coloring.color(u) == j as u32);
                to_dests.extend(sources.map(|u| (u, w)));
            }
        }
        let t2 = Technique2Scheme::build(&g, color_of, dest_partition, &params)?;
        print_row("L8", epsilon, &evaluate_pairs(&g, &t2, &exact, &to_dests)?);
    }
    Ok(())
}

/// Experiment E-ABL: ablation over the ball scaling constant `α` in
/// `q̃ = α·q·log n`.
///
/// Every variant is one `BuildContext` (different `Params`) against the same
/// registry entry (`warmup`), so the ablation sweep is pure data: no
/// per-variant construction code.
fn ablations(n: usize) -> Result<(), HarnessError> {
    let mut rng = StdRng::seed_from_u64(23);
    let g = Family::ErdosRenyi.generate(n, WeightModel::Uniform { lo: 1, hi: 16 }, &mut rng);
    let exact = DistanceMatrix::new(&g);
    let cfg = ExperimentConfig { n, epsilon: 0.25, seed: 23, pairs: Some(2000) };
    let registry = SchemeRegistry::with_defaults();

    println!("ablations on the warm-up (3+eps) scheme, n={n}");
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>10}",
        "variant", "max str", "mean str", "table max", "table mean"
    );
    let variants = [
        ("ball scale 0.5", Params { ball_scale: 0.5, ..cfg.params() }),
        ("ball scale 1.0 (paper)", cfg.params()),
        ("ball scale 2.0", Params { ball_scale: 2.0, ..cfg.params() }),
    ];
    for (name, params) in variants {
        let ctx = BuildContext { params, seed: 23, threads: routing_par::threads() };
        // A variant that cannot be built is a finding of the ablation, not a
        // failure of the run: at the default `n`, ball scale 0.5 leaves the
        // vicinities too small for the Lemma 6 coloring.
        let scheme = match registry.build("warmup", &g, &ctx) {
            Ok(scheme) => scheme,
            Err(e) => {
                println!("{:<28} build failed: {e}", name);
                continue;
            }
        };
        let r = evaluate_scheme(&g, scheme.as_ref(), &exact, &cfg)?;
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>12} {:>10.1}",
            name,
            r.stretch.max_multiplicative().unwrap_or(1.0),
            r.stretch.mean_multiplicative().unwrap_or(1.0),
            r.table.max(),
            r.table.mean()
        );
    }
    Ok(())
}

/// Experiment E-EPS: how the `1/ε` factor in the table-size bounds and the
/// `+ε` in the stretch bounds materialize. Fixes `n`, sweeps `ε`, and prints
/// measured stretch and table sizes for the paper's three ε-parameterized
/// schemes of Table 1.
fn epsilon_sweep(n: usize) -> Result<(), HarnessError> {
    let mut rng = StdRng::seed_from_u64(17);
    let unweighted = Family::ErdosRenyi.generate(n, WeightModel::Unit, &mut rng);
    let weighted = Family::ErdosRenyi.generate(n, WeightModel::Uniform { lo: 1, hi: 32 }, &mut rng);
    let instances = Instances::new(unweighted, weighted);
    let registry = SchemeRegistry::with_defaults();

    println!("epsilon sweep, n={n} (erdos-renyi)");
    println!(
        "{:>8} {:<10} {:>10} {:>10} {:>12} {:>10}",
        "epsilon", "scheme", "max str", "mean str", "table max", "header"
    );
    for epsilon in EPSILON_SWEEP {
        let cfg = ExperimentConfig { n, epsilon, seed: 17, pairs: Some(2000) };
        let ctx = BuildContext {
            params: Params::with_epsilon(epsilon),
            seed: 17,
            threads: routing_par::threads(),
        };
        for key in ["thm10", "thm11", "warmup"] {
            let (_, g, exact) = instances.for_key(key)?;
            let scheme = registry.build(key, g, &ctx)?;
            let r = evaluate_scheme(g, scheme.as_ref(), exact, &cfg)?;
            println!(
                "{:>8} {:<10} {:>10.3} {:>10.3} {:>12} {:>10}",
                epsilon,
                key,
                r.stretch.max_multiplicative().unwrap_or(1.0),
                r.stretch.mean_multiplicative().unwrap_or(1.0),
                r.table.max(),
                r.max_header_words
            );
        }
    }
    Ok(())
}

/// Experiment PEAK: the heap each key's build needs beside the heap its
/// scheme keeps, on the `family` instance of `n` vertices its registry row
/// evaluates on (generated from seed 7, as `table1`'s are). The builds run
/// on one thread, so the binary's counting allocator sees theirs alone and
/// every count repeats exactly: one line a key, the most bytes live during
/// the build beyond those live before it, the bytes the built scheme keeps
/// live, and their ratio.
fn peak(keys: &[String], family: Family, n: usize) -> Result<(), HarnessError> {
    let cfg = ExperimentConfig { n, ..ExperimentConfig::default() };
    let registry = SchemeRegistry::with_defaults();
    let ctx = BuildContext { params: cfg.params(), seed: cfg.seed, threads: 1 };
    println!("build heap: family={} n={n} threads=1", family.name());
    println!("{:<10} {:>14} {:>14} {:>10}", "scheme", "peak bytes", "kept bytes", "peak/kept");
    for key in keys {
        let meta = registry.meta(key)?;
        let weights =
            if meta.weighted { WeightModel::Uniform { lo: 1, hi: 32 } } else { WeightModel::Unit };
        let g = make_graph(family, weights, &cfg);
        let (peak, (kept, scheme)) =
            peak_bytes_in(|| kept_bytes_in(|| registry.build(key, &g, &ctx)));
        drop(scheme?);
        println!("{key:<10} {peak:>14} {kept:>14} {:>10.3}", peak as f64 / kept.max(1) as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(tokens: &[&str]) -> Result<(&'static str, usize, Option<f64>), String> {
        parsed_with_keys(tokens).map(|(name, n, epsilon, _)| (name, n, epsilon))
    }

    type Parsed = (&'static str, usize, Option<f64>, Option<(Vec<String>, Family)>);

    fn parsed_with_keys(tokens: &[&str]) -> Result<Parsed, String> {
        match parse(Args::from_tokens(tokens.iter().copied())) {
            Ok(Some((e, n, epsilon, selection))) => Ok((e.name, n, epsilon, selection)),
            Ok(None) => Ok(("--help", 0, None, None)),
            Err(e) => Err(e.to_string()),
        }
    }

    /// The crate map in `docs/ARCHITECTURE.md` lists the experiments as
    /// `experiments <a\|b\|…>`, and the README's command block runs each
    /// one as `--bin experiments -- <name>`: both name every experiment,
    /// and no other.
    #[test]
    fn the_docs_name_every_experiment() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let architecture = include_str!("../../../../docs/ARCHITECTURE.md");
        let map = architecture.split_once("`experiments <").and_then(|(_, rest)| rest.split_once(">`"));
        let listed: Vec<&str> = map.expect("the crate map lists the experiments").0.split("\\|").collect();
        assert_eq!(listed, names, "docs/ARCHITECTURE.md crate map");
        let readme = include_str!("../../../../README.md");
        let run: Vec<&str> = readme
            .lines()
            .filter_map(|line| line.split_once("--bin experiments -- "))
            .filter_map(|(_, rest)| rest.split_whitespace().next())
            .collect();
        assert_eq!(run, names, "README.md command block");
    }

    #[test]
    fn peak_takes_keys_a_family_and_n() {
        let keys = |ks: &[&str]| ks.iter().map(|k| k.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parsed_with_keys(&["peak", "thm11,tz3", "er", "600"]),
            Ok(("peak", 600, None, Some((keys(&["thm11", "tz3"]), Family::ErdosRenyi))))
        );
        let all = SchemeRegistry::with_defaults().names();
        assert_eq!(
            parsed_with_keys(&["peak", "all", "geometric"]),
            Ok(("peak", 600, None, Some((keys(&all), Family::Geometric))))
        );
        assert_eq!(parsed(&["peak"]), Err("missing value for <keys>".into()));
        assert_eq!(parsed(&["peak", "thm11"]), Err("missing value for <family>".into()));
        let surplus = parsed(&["peak", "thm11", "er", "600", "0.5"]);
        assert_eq!(surplus, Err("unexpected argument \"0.5\"".into()));
        assert!(parsed(&["peak", "thm12", "er"]).unwrap_err().contains("unknown scheme"));
        assert!(parsed(&["peak", "thm11", "hypercube"]).unwrap_err().contains("unknown family"));
    }

    #[test]
    fn positionals_default_and_parse() {
        assert_eq!(parsed(&["table1"]), Ok(("table1", 400, None)));
        assert_eq!(parsed(&["theorems", "120", "0.5"]), Ok(("theorems", 120, Some(0.5))));
        assert_eq!(parsed(&["epsilon-sweep", "120"]), Ok(("epsilon-sweep", 120, None)));
        assert_eq!(parsed(&["--help"]), Ok(("--help", 0, None)));
    }

    #[test]
    fn malformed_command_lines_are_named_errors() {
        assert_eq!(parsed(&[]), Err("missing value for <EXPERIMENT>".into()));
        assert_eq!(
            parsed(&["table1", "12x"]),
            Err("invalid value \"12x\" for [n]: expected an integer".into())
        );
        assert_eq!(
            parsed(&["table1", "60", "half"]),
            Err("invalid value \"half\" for [epsilon]: expected a float".into())
        );
        assert_eq!(
            parsed(&["table1", "60", "0.5", "7"]),
            Err("unexpected argument \"7\"".into())
        );
        // `techniques` sweeps epsilon itself: a second positional is surplus.
        assert_eq!(parsed(&["techniques", "120", "0.5"]), Err("unexpected argument \"0.5\"".into()));
        let unknown = parsed(&["scaling"]).unwrap_err();
        assert!(unknown.contains("unknown experiment") && unknown.contains("epsilon-sweep"));
    }
}
