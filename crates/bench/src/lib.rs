//! Experiment harness regenerating the paper's evaluation artefacts.
//!
//! The paper is a theory paper: its "evaluation" is Table 1 (stretch vs.
//! per-vertex table size of the new schemes against prior routing schemes)
//! plus the per-theorem guarantees. The harness therefore measures, for every
//! scheme implemented in this workspace,
//!
//! * observed multiplicative/affine stretch over sampled (or all) pairs,
//! * per-vertex routing-table size in `O(log n)`-bit words (max and mean),
//! * label and header sizes,
//!
//! and prints them side by side with the theoretical bounds, so "who wins, by
//! roughly what factor, and where the crossovers fall" can be read off.
//!
//! # Registry-driven dispatch
//!
//! Both binaries under `src/bin/` select schemes by **name** through the
//! facade's [`compact_routing::registry::SchemeRegistry`] — neither
//! carries per-scheme construction code. Each registry row also carries
//! the scheme's [`SchemeMeta`]: the paper's claimed bounds, the claimed
//! `Õ(n^x)` space exponent, and whether the scheme evaluates on the
//! weighted or the unweighted instance. Adding a scheme to the workspace
//! therefore costs one registry row; every experiment discovers it with no
//! further edits.
//!
//! # The `experiments` binary
//!
//! `experiments <table1|theorems|techniques|ablations|epsilon-sweep> [n]
//! [epsilon]` regenerates the paper's static artefacts, one subcommand per
//! experiment; `--help` lists them with their defaults. Timing is not
//! measured here: the repository's one yardstick is the `benchmark/`
//! package.
//!
//! # The `churn` binary
//!
//! Beyond the static Table 1 artefacts, the `churn` binary runs the
//! dynamic-churn resilience experiment of the `routing-churn` crate: it
//! subjects every selected scheme to seeded multi-round node/edge churn
//! (uniform random, targeted-on-hubs, or degree-weighted removals), routes
//! sampled pairs through the **stale** tables on the **mutated** graph, and
//! reports per round: reachability, stretch of the delivered pairs, a
//! failure breakdown (invalid port / wrong delivery / hop-budget loop /
//! unknown vertex / scheme error), and the wall-clock cost of rebuilds
//! triggered by the selected `routing_churn::RebuildPolicy`. Run
//! `cargo run -p routing-bench --release --bin churn -- --help` for the
//! full flag table (also in the top-level README); `--json <path>` writes
//! the runs as a JSON array of `routing_churn::ChurnRunResult`, whose
//! schema the binary's module docs (`src/bin/churn.rs`) spell out. The
//! shared flag handling lives in [`cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

use compact_routing::registry::{SchemeMeta, SchemeRegistry, StretchBound};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use routing_core::{BuildContext, BuildError, Params};
use routing_graph::apsp::DistanceMatrix;
use routing_graph::generators::{Family, WeightModel};
use routing_graph::Graph;
use routing_graph::VertexId;
use routing_model::eval::{evaluate, EvalReport, PairSelection};
use routing_model::{simulate, DynScheme, RouteError};

/// Configuration of one experiment run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of vertices of the generated instance.
    pub n: usize,
    /// RNG seed (generation and preprocessing are deterministic given it).
    pub seed: u64,
    /// Stretch slack `ε` used by the paper's schemes.
    pub epsilon: f64,
    /// Number of sampled source–destination pairs (`None` = all pairs).
    pub pairs: Option<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig { n: 400, seed: 7, epsilon: 0.25, pairs: Some(4000) }
    }
}

impl ExperimentConfig {
    /// The pair-selection policy implied by the configuration.
    pub fn selection(&self) -> PairSelection {
        match self.pairs {
            Some(k) => PairSelection::Sampled(k),
            None => PairSelection::AllPairs,
        }
    }

    /// Scheme parameters implied by the configuration: its `ε`, defaults
    /// elsewhere.
    pub fn params(&self) -> Params {
        Params::with_epsilon(self.epsilon)
    }
}

/// The unweighted and the weighted instance of one experiment, each with
/// its exact distance matrix. A scheme evaluates on the flavour its
/// registry row's [`SchemeMeta`] declares ([`Instances::for_key`]).
#[derive(Debug)]
pub struct Instances {
    /// The unit-weight instance (Theorem 10 and the exact anchor).
    pub unweighted: Graph,
    /// The weighted instance (every other scheme).
    pub weighted: Graph,
    exact_u: DistanceMatrix,
    exact_w: DistanceMatrix,
}

impl Instances {
    /// Computes both ground-truth matrices.
    pub fn new(unweighted: Graph, weighted: Graph) -> Self {
        let exact_u = DistanceMatrix::new(&unweighted);
        let exact_w = DistanceMatrix::new(&weighted);
        Instances { unweighted, weighted, exact_u, exact_w }
    }

    /// The instance pair `table1` and `theorems` evaluate on: `family` at
    /// `cfg.n` vertices from `cfg.seed`, once with unit weights and once with
    /// uniform weights in `1..=32`.
    pub fn generate(family: Family, cfg: &ExperimentConfig) -> Self {
        Instances::new(
            make_graph(family, WeightModel::Unit, cfg),
            make_graph(family, WeightModel::Uniform { lo: 1, hi: 32 }, cfg),
        )
    }

    /// The registry row's claims for `key` with the instance and ground
    /// truth they declare.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScheme`] when the default registry has no row
    /// for `key`.
    pub fn for_key(
        &self,
        key: &str,
    ) -> Result<(&'static SchemeMeta, &Graph, &DistanceMatrix), BuildError> {
        let meta = SchemeRegistry::with_defaults().meta(key)?;
        Ok(if meta.weighted {
            (meta, &self.weighted, &self.exact_w)
        } else {
            (meta, &self.unweighted, &self.exact_u)
        })
    }
}

/// Routes every pair in `pairs` through `scheme` and checks the routed
/// weight against the declared envelope `(base + eps_coeff·ε)·d + additive`
/// — the executable form of each registry row's [`SchemeMeta::stretch_bound`].
///
/// Returns the number of checked (non-self) pairs on success.
///
/// # Errors
///
/// Returns a description of the first violating pair: source, destination,
/// routed weight, true distance and the allowed maximum. Routing failures
/// and unreachable pairs are reported the same way — a conformance run is
/// on a connected graph, where every pair must route.
pub fn check_stretch_conformance(
    g: &Graph,
    scheme: &dyn DynScheme,
    exact: &DistanceMatrix,
    bound: &StretchBound,
    epsilon: f64,
    pairs: &[(VertexId, VertexId)],
) -> Result<usize, String> {
    let name = scheme.name();
    let factor = bound.factor_at(epsilon);
    let mut checked = 0usize;
    for &(u, v) in pairs {
        if u == v {
            continue;
        }
        let out = simulate(g, scheme, u, v)
            .map_err(|e| format!("{name}: routing {u}->{v} failed: {e}"))?;
        let d = exact
            .dist(u, v)
            .ok_or_else(|| format!("{name}: no finite distance for {u}->{v}"))?;
        let allowed = factor * d as f64 + bound.additive;
        if out.weight as f64 > allowed + 1e-9 {
            return Err(format!(
                "{name}: stretch bound violated for {u}->{v}: routed {} > \
                 ({factor:.3})*{d} + {} = {allowed:.3}",
                out.weight, bound.additive
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// One row of the measured Table 1: what the paper claims next to what we
/// measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Scheme name.
    pub scheme: String,
    /// The paper's stretch claim (e.g. `"(2+eps, 1)"`).
    pub claimed_stretch: String,
    /// The paper's table-size claim (e.g. `"O~(n^2/3 / eps)"`).
    pub claimed_space: String,
    /// The exponent `x` such that the claimed space is `Õ(n^x)` (used for
    /// the normalized column); `None` for rows that are not measured.
    pub space_exponent: Option<f64>,
    /// Measured results, `None` for theory-only comparison rows
    /// (Abraham–Gavoille and Chechik, which the paper cites but does not
    /// describe in implementable detail).
    pub measured: Option<EvalReport>,
}

impl Table1Row {
    /// Formats the row for the harness' plain-text table.
    pub fn format(&self) -> String {
        match &self.measured {
            Some(r) => format!(
                "{:<34} {:<12} {:<18} | stretch max={:>6.3} mean={:>6.3} | table max={:>8} mean={:>10.1} {} | label={:>3} header={:>3}",
                self.scheme,
                self.claimed_stretch,
                self.claimed_space,
                r.stretch.max_multiplicative().unwrap_or(1.0),
                r.stretch.mean_multiplicative().unwrap_or(1.0),
                r.table.max(),
                r.table.mean(),
                match self.space_exponent {
                    Some(e) => format!("(max/n^{:.2}={:>6.1})", e, r.table.normalized_max(e)),
                    None => String::new(),
                },
                r.max_label_words,
                r.max_header_words,
            ),
            None => format!(
                "{:<34} {:<12} {:<18} | (theoretical comparison row, not measured)",
                self.scheme, self.claimed_stretch, self.claimed_space
            ),
        }
    }
}

/// Errors surfaced by the harness.
#[derive(Debug)]
pub enum HarnessError {
    /// A scheme failed to preprocess.
    Build(routing_core::BuildError),
    /// Routing failed (always a bug in a scheme).
    Route(RouteError),
    /// An artefact could not be serialized or written.
    Artefact {
        /// The file that was being written.
        path: String,
        /// The serializer's or the file system's message.
        what: String,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Build(e) => write!(f, "preprocessing failed: {e}"),
            HarnessError::Route(e) => write!(f, "routing failed: {e}"),
            HarnessError::Artefact { path, what } => write!(f, "could not write {path}: {what}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<routing_core::BuildError> for HarnessError {
    fn from(e: routing_core::BuildError) -> Self {
        HarnessError::Build(e)
    }
}

impl From<RouteError> for HarnessError {
    fn from(e: RouteError) -> Self {
        HarnessError::Route(e)
    }
}

/// Generates the instance a configuration describes for a given family and
/// weight model.
pub fn make_graph(family: Family, weights: WeightModel, cfg: &ExperimentConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    family.generate(cfg.n, weights, &mut rng)
}

/// Evaluates one scheme on one graph through the erased surface.
///
/// # Errors
///
/// Propagates routing failures (which indicate scheme bugs).
pub fn evaluate_scheme(
    g: &Graph,
    scheme: &dyn DynScheme,
    exact: &DistanceMatrix,
    cfg: &ExperimentConfig,
) -> Result<EvalReport, HarnessError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    Ok(evaluate(g, scheme, exact, cfg.selection(), &mut rng)?)
}

/// Runs the full Table 1 experiment on one pair of instances: every
/// measured scheme the registry knows, plus the theory-only comparison rows.
///
/// Measured rows are built through `registry` — this function contains no
/// per-scheme construction code; each registry row's [`SchemeMeta`]
/// supplies its claimed bounds and instance flavour.
///
/// # Errors
///
/// Propagates preprocessing and routing failures.
pub fn run_table1(
    registry: &SchemeRegistry,
    instances: &Instances,
    cfg: &ExperimentConfig,
) -> Result<Vec<Table1Row>, HarnessError> {
    // The traditional Table 1 row order: the exact anchor first, then prior
    // art, then the theory-only citations, then the paper's schemes. Any
    // scheme registered beyond these seven is appended after them, so a new
    // registration gains a measured row with no edits here.
    const ROW_ORDER: [&str; 7] = ["exact", "tz2", "tz3", "spanner", "warmup", "thm10", "thm11"];
    let mut row_keys: Vec<&str> = ROW_ORDER.to_vec();
    for key in registry.names() {
        if !row_keys.contains(&key) {
            row_keys.push(key);
        }
    }

    let ctx = BuildContext {
        params: cfg.params(),
        seed: cfg.seed ^ 0xc0ffee,
        threads: routing_par::threads(),
    };

    let mut rows = Vec::new();
    for key in row_keys {
        if key == "warmup" {
            // The theory-only rows sit between the baselines and the
            // paper's schemes, as in the paper.
            rows.push(Table1Row {
                scheme: "Abraham-Gavoille [1]".into(),
                claimed_stretch: "(2, 1)".into(),
                claimed_space: "O~(n^3/4)".into(),
                space_exponent: None,
                measured: None,
            });
            rows.push(Table1Row {
                scheme: "Chechik [10]".into(),
                claimed_stretch: "~10.52".into(),
                claimed_space: "O~(n^1/4 logD)".into(),
                space_exponent: None,
                measured: None,
            });
        }
        let (meta, g, exact) = instances.for_key(key)?;
        let scheme = registry.build(key, g, &ctx)?;
        // ε-parameterized schemes (the paper's) get the concrete ε in their
        // row label; fixed-bound baselines do not.
        let label = if meta.stretch_bound.eps_coeff > 0.0 {
            format!("{} (eps={})", meta.table1_label, cfg.epsilon)
        } else {
            meta.table1_label.to_string()
        };
        rows.push(Table1Row {
            scheme: label,
            claimed_stretch: meta.claimed_stretch.into(),
            claimed_space: meta.claimed_space.into(),
            space_exponent: meta.space_exponent,
            measured: Some(evaluate_scheme(g, scheme.as_ref(), exact, cfg)?),
        });
    }

    Ok(rows)
}

/// Prints rows as a plain-text table with a header.
pub fn print_table(title: &str, rows: &[Table1Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:<34} {:<12} {:<18} | measured",
        "scheme", "stretch", "claimed space"
    );
    println!("{}", "-".repeat(140));
    for row in rows {
        println!("{}", row.format());
    }
}

/// Serializes rows as JSON (one experiment artefact per harness run).
///
/// # Errors
///
/// Returns a `serde_json` error if serialization fails (it cannot for these
/// types).
pub fn to_json(rows: &[Table1Row]) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_graph::generators;

    #[test]
    fn config_defaults_and_selection() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.params().epsilon, 0.25);
        assert!(matches!(cfg.selection(), PairSelection::Sampled(_)));
        let all = ExperimentConfig { pairs: None, ..cfg };
        assert!(matches!(all.selection(), PairSelection::AllPairs));
    }

    #[test]
    fn conformance_checker_accepts_exact_and_rejects_impossible_bounds() {
        let cfg = ExperimentConfig { n: 40, seed: 11, epsilon: 0.5, pairs: None };
        let g = make_graph(Family::ErdosRenyi, WeightModel::Uniform { lo: 1, hi: 9 }, &cfg);
        let exact = DistanceMatrix::new(&g);
        let registry = SchemeRegistry::with_defaults();
        let ctx = BuildContext { params: cfg.params(), seed: 3, threads: 1 };
        let scheme = registry.build("exact", &g, &ctx).unwrap();
        let pairs: Vec<(VertexId, VertexId)> =
            (0..40).map(|i| (VertexId(i), VertexId((i + 7) % 40))).collect();

        let ok_bound = StretchBound { base: 1.0, eps_coeff: 0.0, additive: 0.0 };
        let checked =
            check_stretch_conformance(&g, scheme.as_ref(), &exact, &ok_bound, 0.5, &pairs)
                .unwrap();
        assert_eq!(checked, 40);

        // Deliberate violation: no scheme routes below the true distance, so
        // a sub-1 bound must be reported — the checker can fail.
        let impossible = StretchBound { base: 0.5, eps_coeff: 0.0, additive: 0.0 };
        let err = check_stretch_conformance(&g, scheme.as_ref(), &exact, &impossible, 0.5, &pairs)
            .unwrap_err();
        assert!(err.contains("stretch bound violated"), "unexpected error: {err}");
    }

    #[test]
    fn table1_runs_on_small_instances() {
        let cfg = ExperimentConfig { n: 60, seed: 3, epsilon: 0.5, pairs: Some(200) };
        let instances = Instances::new(
            make_graph(Family::ErdosRenyi, WeightModel::Unit, &cfg),
            make_graph(Family::ErdosRenyi, WeightModel::Uniform { lo: 1, hi: 8 }, &cfg),
        );
        // Each key evaluates on the flavour its metadata row declares.
        let (thm10, g, _) = instances.for_key("thm10").unwrap();
        assert!(!thm10.weighted && g.is_unweighted());
        assert!(!instances.for_key("tz2").unwrap().1.is_unweighted());
        assert!(matches!(instances.for_key("thm12"), Err(BuildError::UnknownScheme { .. })));
        let registry = SchemeRegistry::with_defaults();
        let rows = run_table1(&registry, &instances, &cfg).unwrap();
        assert!(rows.len() >= 8);
        // Exact routing row must have stretch exactly 1.
        let exact_row = rows.iter().find(|r| r.scheme.contains("exact")).unwrap();
        assert_eq!(
            exact_row.measured.as_ref().unwrap().stretch.max_multiplicative(),
            Some(1.0)
        );
        // Theory-only rows are present but unmeasured.
        assert!(rows.iter().any(|r| r.measured.is_none()));
        // Every measured paper scheme respects its claimed stretch bound
        // loosely (the affine +1 of Thm 10 absorbed by +1.0).
        for row in &rows {
            if let Some(m) = &row.measured {
                assert!(m.stretch.max_multiplicative().unwrap_or(1.0) < 8.0);
                assert!(!row.format().is_empty());
            }
        }
        let json = to_json(&rows).unwrap();
        assert!(json.contains("claimed_stretch"));
    }

    #[test]
    fn make_graph_is_deterministic() {
        let cfg = ExperimentConfig { n: 80, ..ExperimentConfig::default() };
        let a = make_graph(Family::Geometric, WeightModel::Unit, &cfg);
        let b = make_graph(Family::Geometric, WeightModel::Unit, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn harness_error_display() {
        let e: HarnessError = routing_core::BuildError::Disconnected.into();
        assert!(e.to_string().contains("preprocessing failed"));
        let e: HarnessError =
            RouteError::BadLabel { what: "x".into() }.into();
        assert!(e.to_string().contains("routing failed"));
        let e = HarnessError::Artefact { path: "t.json".into(), what: "disk full".into() };
        assert_eq!(e.to_string(), "could not write t.json: disk full");
        let _ = generators::path(2);
    }
}
