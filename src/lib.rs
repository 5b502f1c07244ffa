//! # compact-routing
//!
//! A reproduction of Roditty & Tov, *New routing techniques and their
//! applications* (PODC 2015), as a Rust workspace. This facade crate
//! re-exports the public API of the member crates so applications can depend
//! on a single crate:
//!
//! * [`par`] — the std-only scoped-thread executor every preprocessing
//!   phase fans out over (`set_threads` / `par_map`); results are
//!   bit-identical for every thread count.
//! * [`graph`] — graph substrate (CSR graphs with fixed ports, shortest
//!   paths, synthetic generators, exact APSP behind the
//!   [`graph::DistanceOracle`] trait, and the scalable
//!   [`graph::SampledDistances`] ground truth).
//! * [`model`] — the labeled fixed-port routing model: the
//!   [`model::RoutingScheme`] trait, the message simulator, and
//!   stretch/space statistics.
//! * [`tree`] — Lemma 3 tree routing.
//! * [`vicinity`] — vicinities `B(u, ℓ)`, hitting sets, colorings and
//!   Thorup–Zwick centers.
//! * [`core`] — the paper's techniques (Lemmas 7/8) and routing schemes
//!   (Theorems 10, 11, 13, 15, 16 plus the `(3+ε)` warm-up).
//! * [`baselines`] — Thorup–Zwick compact routing and distance oracles,
//!   exact routing, and greedy spanners, used as comparison points.
//! * [`churn`] — dynamic-churn workloads: seeded churn schedules, stale-table
//!   degradation measurement, and rebuild policies with cost accounting.
//! * [`registry`] — the string-keyed [`registry::SchemeRegistry`]: one
//!   table with a row per scheme (key, build, the paper's claims), and one
//!   `build(name, graph, ctx) -> Box<dyn DynScheme>` surface over every
//!   scheme above, the dispatch point of every harness binary.
//!
//! # Example
//!
//! ```
//! use compact_routing::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = generators::erdos_renyi(150, 0.05, generators::WeightModel::Unit, &mut rng);
//! let scheme = SchemeMultilevel::build(&g, 1, "warmup", &Params::default(), &mut rng)?;
//! let out = simulate(&g, &scheme, VertexId(0), VertexId(149))?;
//! println!("routed over {} hops with weight {}", out.hops, out.weight);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod registry;

pub use routing_baselines as baselines;
pub use routing_churn as churn;
pub use routing_core as core;
pub use routing_graph as graph;
pub use routing_model as model;
pub use routing_par as par;
pub use routing_tree as tree;
pub use routing_vicinity as vicinity;

/// Convenient re-exports of the items most applications need.
pub mod prelude {
    pub use crate::registry::SchemeRegistry;
    pub use routing_churn::{
        run_churn, ChurnExperimentConfig, ChurnPlanConfig, RebuildPolicy, RemovalMode,
    };
    pub use routing_core::{BuildContext, BuildError, Params, SchemeMultilevel};
    pub use routing_graph::generators;
    pub use routing_graph::{
        DistanceOracle, Graph, GraphBuilder, SampledDistances, VertexId, Weight,
    };
    // `DynScheme` is deliberately *not* in the prelude: every scheme
    // implements both it and `RoutingScheme`, so importing both traits
    // makes plain method calls (`scheme.table_words(v)`) ambiguous. Method
    // calls on `Box<dyn DynScheme>` resolve without the trait in scope;
    // import `routing_model::DynScheme` explicitly where the trait itself
    // is named.
    pub use routing_model::{simulate, Decision, RouteError, RoutingScheme};
}
