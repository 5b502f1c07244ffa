//! The uniform build surface: [`SchemeBuilder`] + [`BuildContext`].
//!
//! Preprocessing a routing scheme used to have as many signatures as there
//! were schemes (`build(g, &Params, &mut R)`, `build(g, k, &mut R)`,
//! `build(g)`, …), which forced every harness binary to carry a per-scheme
//! `match` just to construct things. [`SchemeBuilder`] erases that
//! variation the same way [`routing_model::DynScheme`] erases the routing
//! surface: one object-safe `build(&self, g, &BuildContext)` producing a
//! `Box<dyn DynScheme>` or a [`BuildError`], with everything a build may
//! consume — parameters, the RNG seed, the worker-thread count — carried by
//! the [`BuildContext`].
//!
//! Builders are deterministic in `(g, ctx)`: the context's seed derives a
//! fresh `StdRng` per build (exactly what the harness binaries did by hand
//! before), and the thread count is applied through
//! [`routing_par::set_threads`] — which never changes *what* is built, only
//! how fast (see `routing-par`). The facade crate's `SchemeRegistry` maps
//! CLI names to boxed builders; this module provides the builders for the
//! paper's schemes (`warmup`, `thm10`, `thm11`, `thm13`, `thm15`), and
//! `routing-baselines` provides the rest (`tz2`/`tz3`, `exact`, `spanner`,
//! `thm16k3`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use routing_graph::Graph;
use routing_model::DynScheme;

use crate::error::BuildError;
use crate::params::Params;
use crate::{SchemeFivePlusEps, SchemeMultilevel, SchemeTwoPlusEps};

/// Everything a [`SchemeBuilder`] may consume besides the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildContext {
    /// Scheme parameters (`ε`, ball/landmark scaling, colouring retries).
    /// Builders that take no parameters (the baselines) ignore it.
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

/// An object-safe scheme factory: the preprocessing-phase twin of
/// [`DynScheme`].
///
/// Implementations must be deterministic in `(g, ctx)` and must build a
/// scheme whose [`DynScheme::name`] equals the key the builder is
/// registered under (the facade's `SchemeRegistry::build` enforces this).
///
/// Builders do **not** apply `ctx.threads` themselves — the registry's
/// `build` applies it once at the dispatch point ([`BuildContext::
/// apply_threads`]), so the convention cannot be forgotten per scheme.
/// Thread count never changes what gets built; callers invoking a builder
/// directly (bypassing the registry) apply it themselves if they care
/// about build wall-clock.
pub trait SchemeBuilder {
    /// The registry key this builder is known by (`"warmup"`, `"tz2"`, …);
    /// equals the built scheme's [`DynScheme::name`].
    fn key(&self) -> &str;

    /// Preprocesses a scheme for `g`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the graph or the context's parameters
    /// do not admit the scheme (disconnected input, `ε ≤ 0`, graph too
    /// small, …).
    fn build(&self, g: &Graph, ctx: &BuildContext) -> Result<Box<dyn DynScheme>, BuildError>;
}

/// Builds a [`SchemeMultilevel`] with `ℓ` levels under its registry key:
/// the `(3+ε)` warm-up is `("warmup", 1)`, Theorem 13 `("thm13", 2)` and
/// Theorem 15 `("thm15", 4)`.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelBuilder {
    key: &'static str,
    levels: usize,
}

impl MultilevelBuilder {
    /// A builder of the `levels`-level scheme, registered under `key`.
    pub fn new(key: &'static str, levels: usize) -> Self {
        MultilevelBuilder { key, levels }
    }
}

impl SchemeBuilder for MultilevelBuilder {
    fn key(&self) -> &str {
        self.key
    }

    fn build(&self, g: &Graph, ctx: &BuildContext) -> Result<Box<dyn DynScheme>, BuildError> {
        let scheme =
            SchemeMultilevel::build(g, self.levels, self.key, &ctx.params, &mut ctx.rng())?;
        Ok(Box::new(scheme))
    }
}

/// Builds the Theorem 10 `(2+ε, 1)` scheme (registry key `thm10`).
///
/// Theorem 10 is stated for unweighted graphs; the builder, like the typed
/// `build`, accepts whatever graph it is given — harness metadata decides
/// which flavour each experiment feeds it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Thm10Builder;

impl SchemeBuilder for Thm10Builder {
    fn key(&self) -> &str {
        "thm10"
    }

    fn build(&self, g: &Graph, ctx: &BuildContext) -> Result<Box<dyn DynScheme>, BuildError> {
        let scheme = SchemeTwoPlusEps::build(g, &ctx.params, &mut ctx.rng())?;
        Ok(Box::new(scheme))
    }
}

/// Builds the Theorem 11 `(5+ε)` scheme (registry key `thm11`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Thm11Builder;

impl SchemeBuilder for Thm11Builder {
    fn key(&self) -> &str {
        "thm11"
    }

    fn build(&self, g: &Graph, ctx: &BuildContext) -> Result<Box<dyn DynScheme>, BuildError> {
        let scheme = SchemeFivePlusEps::build(g, &ctx.params, &mut ctx.rng())?;
        Ok(Box::new(scheme))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_graph::generators::{self, WeightModel};
    use routing_model::simulate;
    use routing_graph::VertexId;

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
        // Theorem 10 is stated for unweighted graphs; the other two take any.
        let builders: [(&dyn SchemeBuilder, &Graph); 3] = [
            (&MultilevelBuilder::new("warmup", 1), &weighted),
            (&Thm10Builder, &unweighted),
            (&Thm11Builder, &weighted),
        ];
        for (b, g) in builders {
            let scheme = b.build(g, &ctx).unwrap();
            assert_eq!(scheme.name(), b.key(), "scheme name must equal its builder key");
            assert_eq!(scheme.n(), 80);
            let out = simulate(g, scheme.as_ref(), VertexId(0), VertexId(79)).unwrap();
            assert_eq!(out.destination(), VertexId(79));
        }
    }

    #[test]
    fn builds_are_deterministic_in_the_context() {
        let g = graph();
        let ctx = BuildContext { seed: 5, threads: 1, ..BuildContext::default() };
        let warmup = MultilevelBuilder::new("warmup", 1);
        let a = warmup.build(&g, &ctx).unwrap();
        let b = warmup.build(&g, &ctx).unwrap();
        for v in g.vertices() {
            assert_eq!(a.table_words(v), b.table_words(v));
            assert_eq!(a.label_words(v), b.label_words(v));
        }
        for (u, v) in [(0u32, 40u32), (7, 63), (12, 9)] {
            let ra = simulate(&g, a.as_ref(), VertexId(u), VertexId(v)).unwrap();
            let rb = simulate(&g, b.as_ref(), VertexId(u), VertexId(v)).unwrap();
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
        let err = MultilevelBuilder::new("warmup", 1).build(&g, &ctx).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter { .. }));
    }
}
