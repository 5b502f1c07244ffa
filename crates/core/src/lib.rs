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
//! use routing_core::{Params, SchemeThreePlusEps};
//! use routing_model::simulate;
//! use routing_graph::VertexId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = generators::erdos_renyi(120, 0.06, WeightModel::Unit, &mut rng);
//! let scheme = SchemeThreePlusEps::build(&g, &Params::default(), &mut rng)?;
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
pub mod scheme_3eps;
pub mod scheme_5eps;
pub mod scheme_multilevel;
pub mod seq;
mod stages;
pub mod technique1;
pub mod technique2;

pub use builder::{BuildContext, SchemeBuilder, Thm10Builder, Thm11Builder, WarmupBuilder};
pub use error::BuildError;
pub use params::Params;
pub use scheme_2eps1::SchemeTwoPlusEps;
pub use scheme_3eps::SchemeThreePlusEps;
pub use scheme_5eps::SchemeFivePlusEps;
pub use scheme_multilevel::{SchemeMultilevel, Thm13Builder, Thm15Builder};
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
