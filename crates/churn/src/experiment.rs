//! The churn experiment driver: churn → measure through stale tables →
//! maybe rebuild → account for it.
//!
//! One [`run_churn`] call fixes a scheme (via its builder closure), a churn
//! trajectory (seeded [`ChurnProcess`]), and a [`RebuildPolicy`], and
//! produces a [`ChurnRunResult`] with one [`RoundRecord`] per round — the
//! row material for the DRFE-style resilience table the `churn` binary in
//! `routing-bench` prints.
//!
//! Measurement protocol per round:
//!
//! 1. apply the round's churn events to the current graph;
//! 2. sample source/destination pairs among vertices that are alive **and
//!    known to the deployed scheme** (vertices that joined after the last
//!    build have no label and cannot be addressed — they are unreachable by
//!    definition, not by measurement);
//! 3. route every pair through the *stale* tables on the *mutated* graph,
//!    classifying failures (`routing_model::stale`), with stretch measured
//!    against the mutated graph's exact distances;
//! 4. ask the policy whether to rebuild; a rebuild re-runs preprocessing on
//!    the **largest alive component** (the paper's schemes require a
//!    connected instance), measures its wall-clock cost, routes a fresh
//!    pair sample through the new tables, and the process continues on the
//!    compacted graph.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use routing_core::BuildError;
use routing_graph::mutate::{induced_subgraph, largest_component};
use routing_graph::{Graph, SampledDistances, VertexId};
use routing_model::stale::{route_pairs_lossy, sample_alive_pairs, ResilienceReport};
use routing_model::DynScheme;

use crate::plan::{ChurnPlanConfig, ChurnProcess};
use crate::policy::RebuildPolicy;

/// Parameters of one churn experiment run (everything except the churn
/// schedule itself, which [`ChurnPlanConfig`] describes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnExperimentConfig {
    /// Routed pairs sampled per round (both for the stale measurement and
    /// for the post-rebuild measurement).
    pub pairs_per_round: usize,
    /// Cap on the number of distinct pair **sources** per round. `0` means
    /// unlimited: pairs are sampled uniformly, exactly as before the sampled
    /// ground truth existed. A positive value anchors every pair's source in
    /// a random set of at most this many alive vertices, bounding the
    /// per-round ground-truth cost at that many (parallel) Dijkstra runs —
    /// set this (e.g. to 64–256) for `n ≥ 10,000` runs.
    pub sources_per_round: usize,
    /// The rebuild discipline under test.
    pub policy: RebuildPolicy,
    /// Seed for pair sampling (independent of the churn schedule's seed so
    /// the same trajectory can be measured with different pair samples).
    pub seed: u64,
}

impl Default for ChurnExperimentConfig {
    fn default() -> Self {
        ChurnExperimentConfig {
            pairs_per_round: 1000,
            sources_per_round: 0,
            policy: RebuildPolicy::Never,
            seed: 99,
        }
    }
}

/// Measurement of the freshly rebuilt scheme, taken in the round that
/// rebuilt it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PostRebuild {
    /// Vertices of the compacted graph the scheme was rebuilt on.
    pub n: usize,
    /// Edges of the compacted graph.
    pub m: usize,
    /// Reachability through the new tables (should be 1.0 — the new tables
    /// match the graph).
    pub reachability: f64,
    /// Mean multiplicative stretch through the new tables.
    pub mean_stretch: f64,
}

/// Everything measured in one churn round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Alive vertices after this round's churn.
    pub alive: usize,
    /// Edges after this round's churn.
    pub edges: usize,
    /// Fraction of comparable base ports that kept their number across this
    /// round's mutation (see `routing_graph::mutate::MutationStats`).
    pub port_preservation: f64,
    /// The stale-table measurement of this round.
    pub stale: ResilienceReport,
    /// Whether the policy triggered a rebuild this round.
    pub rebuilt: bool,
    /// Wall-clock preprocessing cost of the rebuild, in milliseconds
    /// (0.0 when `rebuilt` is false).
    pub rebuild_ms: f64,
    /// Fraction of alive vertices inside the component the scheme was
    /// rebuilt on (1.0 means the alive graph stayed connected).
    pub component_fraction: f64,
    /// Measurement of the rebuilt scheme (present iff `rebuilt`).
    pub post: Option<PostRebuild>,
}

/// The full outcome of one (scheme × churn schedule × policy) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnRunResult {
    /// Scheme name (as reported by the scheme itself).
    pub scheme: String,
    /// Removal-mode name of the churn schedule.
    pub mode: String,
    /// Policy name.
    pub policy: String,
    /// Vertices of the base graph.
    pub base_n: usize,
    /// Edges of the base graph.
    pub base_m: usize,
    /// Wall-clock cost of the initial build, in milliseconds.
    pub build_ms: f64,
    /// Per-round measurements.
    pub rounds: Vec<RoundRecord>,
}

impl ChurnRunResult {
    /// Number of rebuilds across all rounds.
    pub fn rebuild_count(&self) -> usize {
        self.rounds.iter().filter(|r| r.rebuilt).count()
    }

    /// Total wall-clock rebuild cost across all rounds, in milliseconds.
    pub fn total_rebuild_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.rebuild_ms).sum()
    }

    /// Stale reachability of the final round (the headline number of the
    /// resilience table).
    pub fn final_reachability(&self) -> f64 {
        self.rounds.last().map_or(1.0, |r| r.stale.reachability())
    }

    /// Worst stale reachability over all rounds.
    pub fn worst_reachability(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.stale.reachability())
            .fold(1.0, f64::min)
    }
}

/// Runs one churn experiment: builds the scheme on `base` via `build`,
/// subjects it to the churn schedule of `plan_cfg`, measures each round
/// through the stale tables, and applies `cfg.policy`.
///
/// `build` is called once up front and once per rebuild; rebuilds receive
/// the largest alive component as a compact, connected graph. The builder
/// returns a type-erased [`DynScheme`] — pass a closure over a registry
/// builder (`|g| registry.build("tz2", g, &ctx)`) or box a typed build —
/// so one monomorphization of this driver serves every scheme.
///
/// # Errors
///
/// Propagates builder failures as the workspace-wide
/// [`routing_core::BuildError`].
pub fn run_churn<F>(
    base: &Graph,
    plan_cfg: &ChurnPlanConfig,
    cfg: &ChurnExperimentConfig,
    mut build: F,
) -> Result<ChurnRunResult, BuildError>
where
    F: FnMut(&Graph) -> Result<Box<dyn DynScheme>, BuildError>,
{
    let t0 = Instant::now();
    let mut scheme = build(base)?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut result = ChurnRunResult {
        scheme: scheme.name().to_string(),
        mode: plan_cfg.mode.name().to_string(),
        policy: cfg.policy.to_string(),
        base_n: base.n(),
        base_m: base.m(),
        build_ms,
        rounds: Vec::with_capacity(plan_cfg.rounds),
    };

    let mut process = ChurnProcess::new(base.clone(), *plan_cfg);
    let mut pair_rng = StdRng::seed_from_u64(cfg.seed);
    let mut rounds_since_rebuild = 0usize;

    for round in 1..=plan_cfg.rounds {
        let (_events, stats) = process.next_round();
        rounds_since_rebuild += 1;

        // Pairs must be alive *and* known to the deployed scheme: vertices
        // that joined after the last (re)build have no label.
        let known: Vec<bool> = process
            .alive()
            .iter()
            .enumerate()
            .map(|(i, &a)| a && i < scheme.n())
            .collect();
        let graph = process.graph();
        let pairs =
            sample_round_pairs(&known, cfg.sources_per_round, cfg.pairs_per_round, &mut pair_rng);
        // Ground truth only needs rows for the pairs' distinct sources —
        // `O(sources·(m + n log n))` parallel work instead of the dense
        // matrix's `O(n^2)` memory and `n` searches.
        let exact = SampledDistances::from_sources(graph, pair_sources(&pairs));
        let stale = route_pairs_lossy(graph, scheme.as_ref(), &exact, &pairs);
        let stale_reachability = stale.reachability();

        let mut record = RoundRecord {
            round,
            alive: process.alive_count(),
            edges: graph.m(),
            port_preservation: stats.port_preservation(),
            stale,
            rebuilt: false,
            rebuild_ms: 0.0,
            component_fraction: 1.0,
            post: None,
        };

        if cfg.policy.should_rebuild(rounds_since_rebuild, stale_reachability) {
            let component = largest_component(graph, process.alive());
            record.component_fraction = if process.alive_count() == 0 {
                0.0
            } else {
                component.len() as f64 / process.alive_count() as f64
            };
            let (compact, _to_original, _to_compact) = induced_subgraph(graph, &component);

            let t = Instant::now();
            scheme = build(&compact)?;
            record.rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
            record.rebuilt = true;
            rounds_since_rebuild = 0;

            let all_alive = vec![true; compact.n()];
            let post_pairs = sample_round_pairs(
                &all_alive,
                cfg.sources_per_round,
                cfg.pairs_per_round,
                &mut pair_rng,
            );
            let compact_exact = SampledDistances::from_sources(&compact, pair_sources(&post_pairs));
            let post = route_pairs_lossy(&compact, scheme.as_ref(), &compact_exact, &post_pairs);
            record.post = Some(PostRebuild {
                n: compact.n(),
                m: compact.m(),
                reachability: post.reachability(),
                mean_stretch: post.stretch.mean_multiplicative().unwrap_or(1.0),
            });

            process.reset_graph(compact);
        }

        result.rounds.push(record);
    }

    Ok(result)
}

/// Per-round pair sampling. With `sources_cap == 0` this is exactly
/// [`sample_alive_pairs`] (uniform sources, unchanged measurement protocol);
/// a positive cap first draws that many alive source vertices and anchors
/// every pair at one of them, bounding the ground-truth cost per round.
fn sample_round_pairs(
    alive: &[bool],
    sources_cap: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<(VertexId, VertexId)> {
    use rand::seq::SliceRandom;
    if sources_cap == 0 {
        return sample_alive_pairs(alive, count, rng);
    }
    let ids: Vec<VertexId> = alive
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| VertexId(i as u32))
        .collect();
    if ids.len() < 2 {
        return Vec::new();
    }
    let mut sources = ids.clone();
    sources.shuffle(rng);
    sources.truncate(sources_cap.min(ids.len()));
    routing_model::sample_pairs_from(&sources, &ids, count, rng)
}

/// The distinct sources of a pair population (deduplication happens inside
/// [`SampledDistances::from_sources`]).
fn pair_sources(pairs: &[(VertexId, VertexId)]) -> Vec<VertexId> {
    pairs.iter().map(|&(u, _)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RemovalMode;
    use routing_baselines::{ExactScheme, TzRoutingScheme};
    use routing_core::{Params, SchemeMultilevel};
    use routing_graph::generators::{Family, WeightModel};

    fn base(n: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(5);
        Family::ErdosRenyi.generate(n, WeightModel::Unit, &mut rng)
    }

    fn tz_builder(
        seed: u64,
    ) -> impl FnMut(&Graph) -> Result<Box<dyn DynScheme>, BuildError> {
        move |g: &Graph| {
            let mut rng = StdRng::seed_from_u64(seed);
            Ok(Box::new(TzRoutingScheme::build(g, 2, &mut rng)?))
        }
    }

    #[test]
    fn zero_churn_preserves_full_reachability() {
        let g = base(100);
        let plan_cfg = ChurnPlanConfig {
            rounds: 2,
            remove_frac: 0.0,
            add_frac: 0.0,
            edge_remove_frac: 0.0,
            edge_add_frac: 0.0,
            ..ChurnPlanConfig::default()
        };
        let cfg = ChurnExperimentConfig {
            pairs_per_round: 200,
            sources_per_round: 0,
            policy: RebuildPolicy::Never,
            seed: 1,
        };
        let result = run_churn(&g, &plan_cfg, &cfg, tz_builder(2)).unwrap();
        assert_eq!(result.rounds.len(), 2);
        for r in &result.rounds {
            assert_eq!(r.stale.reachability(), 1.0, "no churn, no decay");
            assert_eq!(r.port_preservation, 1.0);
            assert!(!r.rebuilt);
        }
        assert_eq!(result.rebuild_count(), 0);
        assert_eq!(result.total_rebuild_ms(), 0.0);
        assert_eq!(result.final_reachability(), 1.0);
    }

    #[test]
    fn never_policy_decays_under_targeted_churn() {
        let g = base(150);
        let plan_cfg = ChurnPlanConfig {
            rounds: 4,
            remove_frac: 0.12,
            add_frac: 0.0,
            mode: RemovalMode::Targeted,
            ..ChurnPlanConfig::default()
        };
        let cfg = ChurnExperimentConfig {
            pairs_per_round: 400,
            sources_per_round: 0,
            policy: RebuildPolicy::Never,
            seed: 2,
        };
        let result = run_churn(&g, &plan_cfg, &cfg, tz_builder(3)).unwrap();
        assert!(
            result.worst_reachability() < 1.0,
            "removing ~40% of hubs must break some routes"
        );
        assert_eq!(result.rebuild_count(), 0);
        // Alive count decreases monotonically with add_frac = 0.
        let alive: Vec<usize> = result.rounds.iter().map(|r| r.alive).collect();
        assert!(alive.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn every_round_policy_restores_reachability() {
        let g = base(120);
        let plan_cfg = ChurnPlanConfig {
            rounds: 3,
            remove_frac: 0.1,
            mode: RemovalMode::Random,
            ..ChurnPlanConfig::default()
        };
        let cfg = ChurnExperimentConfig {
            pairs_per_round: 300,
            sources_per_round: 0,
            policy: RebuildPolicy::EveryRound,
            seed: 3,
        };
        let result = run_churn(&g, &plan_cfg, &cfg, tz_builder(4)).unwrap();
        assert_eq!(result.rebuild_count(), 3);
        assert!(result.total_rebuild_ms() > 0.0);
        for r in &result.rounds {
            assert!(r.rebuilt);
            let post = r.post.as_ref().unwrap();
            assert_eq!(post.reachability, 1.0, "fresh tables route everything");
            assert!(post.mean_stretch >= 1.0);
            assert!(r.component_fraction > 0.5);
        }
    }

    #[test]
    fn threshold_policy_only_fires_when_needed() {
        let g = base(120);
        let plan_cfg = ChurnPlanConfig {
            rounds: 4,
            remove_frac: 0.15,
            add_frac: 0.0,
            mode: RemovalMode::Targeted,
            ..ChurnPlanConfig::default()
        };
        let lenient = ChurnExperimentConfig {
            pairs_per_round: 300,
            sources_per_round: 0,
            policy: RebuildPolicy::ReachabilityBelow(0.05),
            seed: 4,
        };
        let strict = ChurnExperimentConfig {
            policy: RebuildPolicy::ReachabilityBelow(0.999),
            ..lenient
        };
        let lenient_result = run_churn(&g, &plan_cfg, &lenient, tz_builder(5)).unwrap();
        let strict_result = run_churn(&g, &plan_cfg, &strict, tz_builder(5)).unwrap();
        assert!(
            strict_result.rebuild_count() >= lenient_result.rebuild_count(),
            "a stricter threshold can only rebuild more often"
        );
        assert!(strict_result.rebuild_count() > 0);
    }

    #[test]
    fn works_with_the_papers_schemes() {
        let g = base(100);
        let plan_cfg = ChurnPlanConfig {
            rounds: 2,
            remove_frac: 0.08,
            ..ChurnPlanConfig::default()
        };
        let cfg = ChurnExperimentConfig {
            pairs_per_round: 150,
            sources_per_round: 0,
            policy: RebuildPolicy::EveryK(2),
            seed: 6,
        };
        let result = run_churn(&g, &plan_cfg, &cfg, |g: &Graph| {
            let mut rng = StdRng::seed_from_u64(8);
            let params = Params::with_epsilon(0.5);
            Ok(Box::new(SchemeMultilevel::build(g, 1, "warmup", &params, &mut rng)?))
        })
        .unwrap();
        assert_eq!(result.rounds.len(), 2);
        assert!(!result.rounds[0].rebuilt, "every-2 must not fire on round 1");
        assert!(result.rounds[1].rebuilt, "every-2 must fire on round 2");
        assert_eq!(result.scheme, "warmup");
    }

    #[test]
    fn thm16_classifies_stale_failures_and_rebuilds_to_full_reachability() {
        // The Theorem 16 scheme under churn at n=500: stale-table routing
        // after node removals must classify failures lossily (never panic),
        // and a threshold rebuild must restore 100% reachability on the
        // surviving component.
        let g = base(500);
        let plan_cfg = ChurnPlanConfig {
            rounds: 3,
            remove_frac: 0.1,
            add_frac: 0.0,
            mode: RemovalMode::Random,
            ..ChurnPlanConfig::default()
        };
        let cfg = ChurnExperimentConfig {
            pairs_per_round: 400,
            sources_per_round: 0,
            policy: RebuildPolicy::ReachabilityBelow(0.999),
            seed: 7,
        };
        let result = run_churn(&g, &plan_cfg, &cfg, |g: &Graph| {
            let mut rng = StdRng::seed_from_u64(9);
            Ok(Box::new(routing_baselines::Thm16Scheme::build(
                g,
                3,
                &Params::with_epsilon(0.5),
                &mut rng,
            )?))
        })
        .unwrap();
        assert_eq!(result.scheme, "thm16k3");
        assert_eq!(result.rounds.len(), 3);
        // Removing 10% of vertices per round must break at least one stale
        // route somewhere, so the strict threshold fires...
        assert!(result.rebuild_count() >= 1, "stale tables must decay under 10% removals");
        for r in &result.rounds {
            // ...and every stale round accounts for all attempted pairs:
            // delivered, classified failure, or graph-disconnected — no
            // panics on dead vertices.
            assert_eq!(
                r.stale.delivered + r.stale.failures.total() + r.stale.disconnected_pairs,
                r.stale.pairs,
                "every attempted pair is delivered or classified"
            );
            if let Some(post) = &r.post {
                assert_eq!(post.reachability, 1.0, "fresh thm16 tables route everything");
                assert!(post.mean_stretch >= 1.0);
            }
        }
    }

    #[test]
    fn exact_scheme_round_trips_and_serializes() {
        let g = base(80);
        let plan_cfg = ChurnPlanConfig { rounds: 1, ..ChurnPlanConfig::default() };
        let cfg = ChurnExperimentConfig::default();
        let result = run_churn(&g, &plan_cfg, &cfg, |g: &Graph| {
            Ok(Box::new(ExactScheme::build(g)?))
        })
        .unwrap();
        let json = serde_json::to_string_pretty(&result).unwrap();
        assert!(json.contains("\"scheme\""));
        assert!(json.contains("\"rounds\""));
        assert!(json.contains("\"reachability\"") || json.contains("\"delivered\""));
    }
}
