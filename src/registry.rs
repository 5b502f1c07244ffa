//! The string-keyed scheme registry: one place that knows how to build
//! every routing scheme in the workspace.
//!
//! A [`SchemeRegistry`] maps CLI names to boxed
//! [`SchemeBuilder`]s. [`SchemeRegistry::with_defaults`] registers every
//! scheme the workspace implements end to end, under exactly the names the
//! harness binaries accept in their `--schemes` flags:
//!
//! | key | scheme | source |
//! |-----|--------|--------|
//! | `warmup` | the `(3+ε)` warm-up scheme, multilevel at `ℓ = 1` | `routing-core` |
//! | `thm10` | Theorem 10, `(2+ε, 1)` (unweighted graphs) | `routing-core` |
//! | `thm11` | Theorem 11, `(5+ε)` | `routing-core` |
//! | `tz2` | Thorup–Zwick `(4k−5)`, `k = 2` (stretch 3) | `routing-baselines` |
//! | `tz3` | Thorup–Zwick `(4k−5)`, `k = 3` (stretch 7) | `routing-baselines` |
//! | `exact` | full-table shortest-path routing (stretch 1) | `routing-baselines` |
//! | `spanner` | full tables on a greedy 3-spanner | `routing-baselines` |
//! | `thm13` | Theorem 13, multilevel `(3+2/ℓ+ε, 2)` at `ℓ = 2` | `routing-core` |
//! | `thm15` | Theorem 15, multilevel `(3+2/ℓ+ε, 2)` at `ℓ = 4` | `routing-core` |
//! | `thm16k3` | Theorem 16, `(4k−7+ε)` at `k = 3` | `routing-baselines` |
//!
//! Registering a new scheme costs one [`SchemeBuilder`] implementation and
//! one [`SchemeRegistry::register`] call; every registry-driven binary
//! (`experiments`, `churn`) then discovers it with no further edits. The
//! registry enforces the naming invariant the whole workspace leans on — a
//! built scheme's [`DynScheme::name`] equals its registry key — at build
//! time, so `--schemes` flags, harness output and registry keys cannot
//! drift apart.
//!
//! # Example
//!
//! ```
//! use compact_routing::registry::SchemeRegistry;
//! use compact_routing::core::BuildContext;
//! use compact_routing::graph::generators::{Family, WeightModel};
//! use compact_routing::model::simulate;
//! use compact_routing::graph::VertexId;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = Family::ErdosRenyi.generate(150, WeightModel::Unit, &mut rng);
//! let registry = SchemeRegistry::with_defaults();
//!
//! // Build by name; the result is a type-erased Box<dyn DynScheme>.
//! let ctx = BuildContext { seed: 13, threads: 1, ..BuildContext::default() };
//! let scheme = registry.build("warmup", &g, &ctx)?;
//! assert_eq!(scheme.name(), "warmup");
//!
//! // The erased scheme routes through the same simulator as typed ones.
//! let out = simulate(&g, scheme.as_ref(), VertexId(0), VertexId(149))?;
//! assert_eq!(out.destination(), VertexId(149));
//!
//! // Unknown names surface as BuildError::UnknownScheme, listing nothing.
//! assert!(registry.build("thm12", &g, &ctx).is_err());
//! # Ok(())
//! # }
//! ```

use routing_baselines::{ExactBuilder, SpannerBuilder, Thm16Builder, TzBuilder};
use routing_core::{
    BuildContext, BuildError, MultilevelBuilder, SchemeBuilder, Thm10Builder, Thm11Builder,
};
use routing_graph::Graph;
use routing_model::DynScheme;

/// An ordered, string-keyed collection of [`SchemeBuilder`]s.
///
/// Iteration order is registration order, so `--schemes all` sweeps and
/// table rows come out in a stable, documented order.
#[derive(Default)]
pub struct SchemeRegistry {
    entries: Vec<Box<dyn SchemeBuilder>>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchemeRegistry { entries: Vec::new() }
    }

    /// The default registry: every end-to-end scheme in the workspace,
    /// registered under its CLI name (see the module docs for the table).
    pub fn with_defaults() -> Self {
        let mut r = SchemeRegistry::new();
        r.register(Box::new(MultilevelBuilder::new("warmup", 1)));
        r.register(Box::new(Thm10Builder));
        r.register(Box::new(Thm11Builder));
        r.register(Box::new(TzBuilder::new(2)));
        r.register(Box::new(TzBuilder::new(3)));
        r.register(Box::new(ExactBuilder));
        r.register(Box::new(SpannerBuilder::default()));
        // The Theorem 13/15/16 schemes are appended after the seed seven so
        // artifact rows produced by older registries keep their positions.
        r.register(Box::new(MultilevelBuilder::new("thm13", 2)));
        r.register(Box::new(MultilevelBuilder::new("thm15", 4)));
        r.register(Box::new(Thm16Builder::new(3)));
        r
    }

    /// Registers a builder under its [`SchemeBuilder::key`], replacing any
    /// previous builder with the same key (so applications can override a
    /// default registration).
    pub fn register(&mut self, builder: Box<dyn SchemeBuilder>) {
        if let Some(slot) = self.entries.iter_mut().find(|b| b.key() == builder.key()) {
            *slot = builder;
        } else {
            self.entries.push(builder);
        }
    }

    /// The builder registered under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&dyn SchemeBuilder> {
        self.entries.iter().find(|b| b.key() == key).map(Box::as_ref)
    }

    /// Whether a builder is registered under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The registered keys, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|b| b.key()).collect()
    }

    /// Builds the scheme registered under `key` and verifies the naming
    /// invariant (built name == registry key).
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScheme`] when no builder is registered under
    /// `key`; otherwise whatever the builder reports. A name/key mismatch
    /// is reported as [`BuildError::BadParameter`] — it means a registered
    /// builder violates the [`SchemeBuilder`] contract.
    pub fn build(
        &self,
        key: &str,
        g: &Graph,
        ctx: &BuildContext,
    ) -> Result<Box<dyn DynScheme>, BuildError> {
        let builder = self
            .get(key)
            .ok_or_else(|| BuildError::UnknownScheme { name: key.to_string() })?;
        // Applied here, once, for every builder — the worker-thread count is
        // dispatch policy, not per-scheme knowledge (and it never changes
        // what gets built, only wall-clock).
        ctx.apply_threads();
        let scheme = builder.build(g, ctx)?;
        if scheme.name() != key {
            return Err(BuildError::BadParameter {
                what: format!(
                    "registry invariant violated: builder {key:?} built a scheme named {:?}",
                    scheme.name()
                ),
            });
        }
        Ok(scheme)
    }
}

impl std::fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeRegistry").field("names", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::generators::{Family, WeightModel};

    #[test]
    fn default_registry_has_the_documented_names_in_order() {
        let r = SchemeRegistry::with_defaults();
        assert_eq!(
            r.names(),
            vec![
                "warmup", "thm10", "thm11", "tz2", "tz3", "exact", "spanner", "thm13", "thm15",
                "thm16k3"
            ]
        );
        assert!(r.contains("tz2"));
        assert!(r.contains("thm13"));
        assert!(!r.contains("thm14"));
        assert!(format!("{r:?}").contains("warmup"));
    }

    #[test]
    fn every_default_scheme_builds_and_is_named_after_its_key() {
        // Small unweighted instance: valid input for every registered
        // scheme, including thm10 (which rejects weighted graphs).
        let mut rng = StdRng::seed_from_u64(5);
        let g = Family::ErdosRenyi.generate(60, WeightModel::Unit, &mut rng);
        let r = SchemeRegistry::with_defaults();
        let ctx = BuildContext { seed: 9, threads: 1, ..BuildContext::default() };
        for key in r.names() {
            let scheme = r.build(key, &g, &ctx).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_eq!(scheme.name(), key);
            assert_eq!(scheme.n(), 60);
        }
    }

    #[test]
    fn every_cluster_and_vicinity_key_rejects_a_disconnected_graph() {
        // Two 30-cycles: unit weights, so thm10 reaches its connectivity
        // check rather than its unweighted-only one.
        let mut b = routing_graph::GraphBuilder::new(60);
        for i in 0..60 {
            b.add_unit_edge(i, if i % 30 == 29 { i - 29 } else { i + 1 }).unwrap();
        }
        let g = b.build();
        let r = SchemeRegistry::with_defaults();
        let ctx = BuildContext { seed: 9, threads: 1, ..BuildContext::default() };
        let keys = ["warmup", "thm10", "thm11", "thm13", "thm15", "tz2", "tz3", "thm16k3"];
        for key in keys {
            let err = r.build(key, &g, &ctx).err();
            assert_eq!(err, Some(BuildError::Disconnected), "{key}");
        }
    }

    #[test]
    fn unknown_keys_are_reported_as_unknown_scheme() {
        let r = SchemeRegistry::with_defaults();
        let g = routing_graph::generators::path(4);
        let err = r.build("thm12", &g, &BuildContext::default()).unwrap_err();
        assert!(matches!(err, BuildError::UnknownScheme { .. }));
        assert!(err.to_string().contains("thm12"));
    }

    #[test]
    fn re_registration_replaces_in_place() {
        let mut r = SchemeRegistry::with_defaults();
        let before: Vec<String> = r.names().iter().map(|s| s.to_string()).collect();
        // Override the spanner registration with a k=3 builder.
        r.register(Box::new(SpannerBuilder { k: 3 }));
        assert_eq!(r.names(), before, "overriding must not reorder or duplicate");
    }
}
