//! The primary contribution of Roditty & Tov, *New routing techniques and
//! their applications* (PODC 2015): two `(1+ε)`-stretch routing techniques
//! for predefined vertex sets (Lemmas 7 and 8) and the compact routing
//! schemes built from them (the `(3+ε)` warm-up, the `(2+ε, 1)` scheme of
//! Theorem 10, the `(5+ε)` scheme of Theorem 11, the `(3±2/ℓ+ε, 2)` schemes
//! of Theorems 13/15 and the `(4k−7+ε)` scheme of Theorem 16).
//!
//! Every scheme implements [`routing_model::RoutingScheme`], so it can be
//! driven by the shared simulator, measured by the shared evaluation
//! harness, and compared against the baselines in `routing-baselines`.
//!
//! # Quick start
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use routing_graph::generators::{self, WeightModel};
//! use routing_core::{Params, SchemeMultilevel};
//! use routing_model::simulate;
//! use routing_graph::VertexId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = generators::erdos_renyi(120, 0.06, WeightModel::Unit, &mut rng);
//! let scheme = SchemeMultilevel::build(&g, 1, "warmup", &Params::default(), &mut rng)?;
//! let out = simulate(&g, &scheme, VertexId(0), VertexId(97))?;
//! assert_eq!(out.destination(), VertexId(97));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod error;
mod params;
pub mod scheme_2eps1;
pub mod scheme_5eps;
pub mod scheme_multilevel;
pub mod seq;
mod stages;
pub mod technique1;
pub mod technique2;

pub use builder::BuildContext;
pub use error::BuildError;
pub use params::Params;
pub use scheme_2eps1::SchemeTwoPlusEps;
pub use scheme_5eps::SchemeFivePlusEps;
pub use scheme_multilevel::SchemeMultilevel;
pub use stages::{ClusterFamily, ClusterMembers};
pub use technique1::{Technique1Router, Technique1Scheme};
pub use technique2::{Technique2Router, Technique2Scheme};

#[cfg(test)]
pub(crate) mod test_support {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_graph::Graph;
    use routing_model::{simulate, DynScheme};

    /// The instances the flat keyed stores are held against their `HashMap`
    /// references on: unit and tie-heavy Erdős–Rényi, geometric, grid.
    pub(crate) fn equivalence_graphs() -> Vec<(&'static str, Graph)> {
        let mut rng = StdRng::seed_from_u64(61);
        let (ties, spread) =
            (WeightModel::Uniform { lo: 1, hi: 2 }, WeightModel::Uniform { lo: 1, hi: 8 });
        vec![
            ("er-unit", generators::erdos_renyi(90, 0.06, WeightModel::Unit, &mut rng)),
            ("er-ties", generators::erdos_renyi(90, 0.06, ties, &mut rng)),
            ("geometric", generators::random_geometric(80, 0.2, spread, &mut rng)),
            ("grid", generators::grid(8, 8)),
        ]
    }

    /// Routes every ordered pair of distinct vertices, holds each routed
    /// weight to `bound(d(u, v))`, and returns the worst multiplicative
    /// stretch seen.
    pub(crate) fn check_all_pairs(
        g: &Graph,
        scheme: &dyn DynScheme,
        bound: impl Fn(f64) -> f64,
    ) -> f64 {
        let exact = DistanceMatrix::new(g);
        let mut worst: f64 = 1.0;
        for u in g.vertices() {
            for v in g.vertices().filter(|&v| v != u) {
                let out = simulate(g, scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap() as f64;
                worst = worst.max(out.weight as f64 / d);
                assert!(
                    out.weight as f64 <= bound(d) + 1e-9,
                    "{} bound violated for {u}->{v}: routed {} vs d={d}",
                    scheme.name(),
                    out.weight
                );
            }
        }
        worst
    }
}

/// Section 4's `(3+ε)` warm-up: [`SchemeMultilevel`] at ℓ = 1 under the
/// registry key `warmup`, held to its own bound `(3+2ε)·d` rather than to the
/// Theorem 13/15 envelope.
#[cfg(test)]
mod scheme_3eps {
    mod tests {
        use crate::{BuildError, Params, SchemeMultilevel};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use routing_graph::generators::{self, WeightModel};
        use routing_graph::Graph;
        use routing_model::RoutingScheme;

        fn build(g: &Graph, params: &Params, seed: u64) -> Result<SchemeMultilevel, BuildError> {
            let mut rng = StdRng::seed_from_u64(seed);
            SchemeMultilevel::build(g, 1, "warmup", params, &mut rng)
        }

        fn check_all_pairs(g: &Graph, epsilon: f64, seed: u64) -> f64 {
            let scheme = build(g, &Params::with_epsilon(epsilon), seed).unwrap();
            crate::test_support::check_all_pairs(g, &scheme, |d| (3.0 + 2.0 * epsilon) * d)
        }

        #[test]
        fn warmup_meets_bound_on_unweighted_graph() {
            let mut rng = StdRng::seed_from_u64(31);
            let g = generators::erdos_renyi(80, 0.06, WeightModel::Unit, &mut rng);
            let worst = check_all_pairs(&g, 0.5, 1);
            assert!(worst >= 1.0);
        }

        #[test]
        fn warmup_meets_bound_on_weighted_graph() {
            let mut rng = StdRng::seed_from_u64(32);
            let weights = WeightModel::Uniform { lo: 1, hi: 20 };
            let g = generators::erdos_renyi(60, 0.08, weights, &mut rng);
            check_all_pairs(&g, 0.25, 2);
        }

        #[test]
        fn warmup_on_grid() {
            let g = generators::grid(7, 7);
            check_all_pairs(&g, 1.0, 3);
        }

        #[test]
        fn warmup_reports_metadata() {
            let g = generators::cycle(36);
            let scheme = build(&g, &Params::default(), 33).unwrap();
            assert_eq!(scheme.q(), 6);
            assert_eq!(scheme.levels(), 1);
            assert_eq!(RoutingScheme::n(&scheme), 36);
            assert_eq!(scheme.name(), "warmup");
            for v in g.vertices() {
                assert!(scheme.table_words(v) > 0);
                assert_eq!(scheme.label_words(v), 2);
                assert!(scheme.color(v) < 6);
                assert_eq!(scheme.label_of(v).color, scheme.color(v));
            }
        }

        #[test]
        fn warmup_rejects_disconnected_graphs() {
            let mut b = routing_graph::GraphBuilder::new(4);
            b.add_unit_edge(0, 1).unwrap();
            b.add_unit_edge(2, 3).unwrap();
            let g = b.build();
            let err = build(&g, &Params::default(), 1).unwrap_err();
            assert_eq!(err, BuildError::Disconnected);
        }
    }
}
