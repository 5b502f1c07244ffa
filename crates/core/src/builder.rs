//! [`BuildContext`]: everything a scheme's preprocessing may consume
//! besides the graph.
//!
//! Every scheme keeps its own typed `build` (`build(g, &Params, &mut R)`,
//! `build(g, k, &mut R)`, `build(g)`, …). The facade crate's
//! `SchemeRegistry` is one table with a row per scheme whose build function
//! reads the parameters, the RNG seed and the worker-thread count from a
//! [`BuildContext`], so every harness binary builds any scheme by key.
//!
//! Builds are deterministic in `(g, ctx)`: the context's seed derives a
//! fresh `StdRng` per build ([`BuildContext::rng`]), and the thread count is
//! applied through [`routing_par::set_threads`] — which never changes *what*
//! is built, only how fast (see `routing-par`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::params::Params;

/// Everything a scheme's build may consume besides the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildContext {
    /// Scheme parameters (`ε`, ball/landmark scaling, colouring retries).
    /// Schemes that take no parameters (the baselines) ignore it.
    pub params: Params,
    /// Seed from which the build derives a fresh RNG, so a build is
    /// reproducible given `(graph, context)`.
    pub seed: u64,
    /// Worker threads for the preprocessing fan-out, applied via
    /// [`routing_par::set_threads`] at the registry's dispatch point. `0`
    /// means "leave the process-wide configuration untouched" (which
    /// `routing-par` itself resolves to all hardware threads when nothing
    /// was ever set) — so a default context never clobbers a thread count
    /// the caller configured explicitly. Thread count never changes what
    /// gets built — only wall-clock time.
    pub threads: usize,
}

impl Default for BuildContext {
    fn default() -> Self {
        BuildContext { params: Params::default(), seed: 7, threads: 0 }
    }
}

impl BuildContext {
    /// A context with the given seed and defaults elsewhere.
    pub fn with_seed(seed: u64) -> Self {
        BuildContext { seed, ..BuildContext::default() }
    }

    /// The fresh RNG this context prescribes for one build.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Applies the context's thread count to the global `routing-par`
    /// executor. `threads == 0` is a no-op: the process-wide setting
    /// (explicitly configured, or `routing-par`'s all-hardware default)
    /// stays in force.
    pub fn apply_threads(&self) {
        if self.threads != 0 {
            routing_par::set_threads(self.threads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildError, SchemeFivePlusEps, SchemeMultilevel, SchemeTwoPlusEps};
    use routing_graph::generators::{self, WeightModel};
    use routing_graph::{Graph, VertexId};
    use routing_model::{simulate, DynScheme};

    fn graph() -> Graph {
        let mut rng = StdRng::seed_from_u64(3);
        generators::erdos_renyi(80, 0.08, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng)
    }

    #[test]
    fn builders_build_schemes_named_after_their_key() {
        let weighted = graph();
        let unweighted = {
            let mut rng = StdRng::seed_from_u64(3);
            generators::erdos_renyi(80, 0.08, WeightModel::Unit, &mut rng)
        };
        let ctx = BuildContext::with_seed(11);
        let p = &ctx.params;
        // Theorem 10 is stated for unweighted graphs; the other two take any.
        let warmup = SchemeMultilevel::build(&weighted, 1, "warmup", p, &mut ctx.rng()).unwrap();
        let thm10 = SchemeTwoPlusEps::build(&unweighted, p, &mut ctx.rng()).unwrap();
        let thm11 = SchemeFivePlusEps::build(&weighted, p, &mut ctx.rng()).unwrap();
        let built: [(&str, &dyn DynScheme, &Graph); 3] = [
            ("warmup", &warmup, &weighted),
            ("thm10", &thm10, &unweighted),
            ("thm11", &thm11, &weighted),
        ];
        for (key, scheme, g) in built {
            assert_eq!(scheme.name(), key, "scheme name must equal its registry key");
            assert_eq!(scheme.n(), 80);
            let out = simulate(g, scheme, VertexId(0), VertexId(79)).unwrap();
            assert_eq!(out.destination(), VertexId(79));
        }
    }

    #[test]
    fn builds_are_deterministic_in_the_context() {
        let g = graph();
        let ctx = BuildContext { seed: 5, threads: 1, ..BuildContext::default() };
        let build = || SchemeMultilevel::build(&g, 1, "warmup", &ctx.params, &mut ctx.rng());
        let (a, b) = (build().unwrap(), build().unwrap());
        for v in g.vertices() {
            assert_eq!(a.table_words(v), b.table_words(v));
            assert_eq!(a.label_words(v), b.label_words(v));
        }
        for (u, v) in [(0u32, 40u32), (7, 63), (12, 9)] {
            let ra = simulate(&g, &a, VertexId(u), VertexId(v)).unwrap();
            let rb = simulate(&g, &b, VertexId(u), VertexId(v)).unwrap();
            assert_eq!(ra.path, rb.path);
        }
    }

    #[test]
    fn bad_parameters_surface_as_build_errors() {
        let g = graph();
        let ctx = BuildContext {
            params: Params::with_epsilon(-1.0),
            ..BuildContext::default()
        };
        let err = SchemeMultilevel::build(&g, 1, "warmup", &ctx.params, &mut ctx.rng()).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter { .. }));
    }
}
