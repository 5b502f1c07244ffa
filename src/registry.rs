//! The string-keyed scheme registry: one table that knows how to build
//! every routing scheme in the workspace and what the paper claims for it.
//!
//! Each row of the table is one scheme, as in the paper's Table 1: the key
//! the harness binaries accept in their `--schemes` flags, a plain build
//! function over the typed `build` of the scheme, and the scheme's
//! [`SchemeMeta`] claims (stretch, space, instance flavour).
//! [`SchemeRegistry::with_defaults`] serves the table, in this order:
//!
//! | key | scheme | source |
//! |-----|--------|--------|
//! | `warmup` | the `(3+ε)` warm-up scheme, multilevel at `ℓ = 1` | `routing-core` |
//! | `thm10` | Theorem 10, `(2+ε, 1)` (unweighted graphs) | `routing-core` |
//! | `thm11` | Theorem 11, `(5+ε)` | `routing-core` |
//! | `tz2` | Thorup–Zwick `(4k−5)`, `k = 2` (stretch 3) | `routing-baselines` |
//! | `tz3` | Thorup–Zwick `(4k−5)`, `k = 3` (stretch 7) | `routing-baselines` |
//! | `exact` | full-table shortest-path routing (stretch 1) | `routing-baselines` |
//! | `thm13` | Theorem 13, multilevel `(3+2/ℓ+ε, 2)` at `ℓ = 2` | `routing-core` |
//! | `thm15` | Theorem 15, multilevel `(3+2/ℓ+ε, 2)` at `ℓ = 4` | `routing-core` |
//! | `thm16k3` | Theorem 16, `(4k−7+ε)` at `k = 3` | `routing-baselines` |
//!
//! Adding a scheme costs one row; every registry-driven binary
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
//! // The row's claims sit beside its build.
//! assert_eq!(registry.meta("warmup")?.claimed_stretch, "3+eps");
//!
//! // Unknown names surface as BuildError::UnknownScheme, listing nothing.
//! assert!(registry.build("thm12", &g, &ctx).is_err());
//! # Ok(())
//! # }
//! ```

use routing_baselines::{ExactScheme, Thm16Scheme, TzRoutingScheme};
use routing_core::{
    BuildContext, BuildError, SchemeFivePlusEps, SchemeMultilevel, SchemeTwoPlusEps,
};
use routing_graph::Graph;
use routing_model::DynScheme;

/// A claimed stretch bound in machine-checkable form:
/// `(base + eps_coeff·ε)·d + additive`, covering both the fixed bounds of
/// the baselines (`eps_coeff = 0`) and the paper's ε-parameterized schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchBound {
    /// The multiplicative constant (3 for the warm-up, 5 for Thm 11, …).
    pub base: f64,
    /// The coefficient of `ε` in the multiplicative part (0 for baselines).
    pub eps_coeff: f64,
    /// The additive term (1 for Thm 10's `(2+ε, 1)`; 0 otherwise).
    pub additive: f64,
}

impl StretchBound {
    /// The multiplicative factor at a concrete `ε`.
    pub fn factor_at(&self, epsilon: f64) -> f64 {
        self.base + self.eps_coeff * epsilon
    }

    /// Human-readable annotation at a concrete `ε`, e.g. `"5+eps = 5.50"`
    /// or `"(2+eps, 1) = 2.50d+1"` (claim text supplied by the caller).
    pub fn label_at(&self, claim: &str, epsilon: f64) -> String {
        if self.additive > 0.0 {
            format!("{claim} = {:.2}d+{}", self.factor_at(epsilon), self.additive)
        } else if self.eps_coeff > 0.0 {
            format!("{claim} = {:.2}", self.factor_at(epsilon))
        } else {
            claim.to_string()
        }
    }
}

/// The paper's claims for one registered scheme, next to the key it is
/// registered (and built) under.
#[derive(Debug, Clone, Copy)]
pub struct SchemeMeta {
    /// The registry key (== `DynScheme::name` of the built scheme).
    pub key: &'static str,
    /// Display name for the Table 1 row.
    pub table1_label: &'static str,
    /// The paper's stretch claim (e.g. `"(2+eps, 1)"`).
    pub claimed_stretch: &'static str,
    /// The stretch claim in machine-checkable form (see [`StretchBound`]).
    pub stretch_bound: StretchBound,
    /// The paper's table-size claim (e.g. `"O~(n^2/3 / eps)"`).
    pub claimed_space: &'static str,
    /// The exponent `x` such that the claimed space is `Õ(n^x)` (used for
    /// normalized columns).
    pub space_exponent: Option<f64>,
    /// Whether the scheme evaluates on the weighted instance (`false`:
    /// unweighted — Theorem 10 is stated for unweighted graphs, and the
    /// exact row anchors the unweighted comparison).
    pub weighted: bool,
}

/// Preprocesses one scheme for a graph. A row's function calls the typed
/// `build`, deriving its RNG from the context's seed; the thread count is
/// applied once by [`SchemeRegistry::build`].
type BuildFn = fn(&Graph, &BuildContext) -> Result<Box<dyn DynScheme>, BuildError>;

/// One scheme: its claims (and key) and its build.
struct Row {
    meta: SchemeMeta,
    build: BuildFn,
}

/// Every scheme, in registration order. The Theorem 13/15/16 rows come
/// after the seed seven so artefact rows produced by older registries keep
/// their positions.
const ROWS: &[Row] = &[
    Row {
        meta: SchemeMeta {
            key: "warmup",
            table1_label: "this paper: warm-up 3+eps",
            claimed_stretch: "3+eps",
            stretch_bound: StretchBound { base: 3.0, eps_coeff: 1.0, additive: 0.0 },
            claimed_space: "O~(n^1/2 / eps)",
            space_exponent: Some(0.5),
            weighted: true,
        },
        build: |g, ctx| {
            Ok(Box::new(SchemeMultilevel::build(g, 1, "warmup", &ctx.params, &mut ctx.rng())?))
        },
    },
    Row {
        meta: SchemeMeta {
            key: "thm10",
            table1_label: "this paper: Thm 10 (2+eps,1)",
            claimed_stretch: "(2+eps, 1)",
            stretch_bound: StretchBound { base: 2.0, eps_coeff: 1.0, additive: 1.0 },
            claimed_space: "O~(n^2/3 / eps)",
            space_exponent: Some(2.0 / 3.0),
            weighted: false,
        },
        build: |g, ctx| Ok(Box::new(SchemeTwoPlusEps::build(g, &ctx.params, &mut ctx.rng())?)),
    },
    Row {
        meta: SchemeMeta {
            key: "thm11",
            table1_label: "this paper: Thm 11 5+eps",
            claimed_stretch: "5+eps",
            stretch_bound: StretchBound { base: 5.0, eps_coeff: 1.0, additive: 0.0 },
            claimed_space: "O~(n^1/3 logD / eps)",
            space_exponent: Some(1.0 / 3.0),
            weighted: true,
        },
        build: |g, ctx| Ok(Box::new(SchemeFivePlusEps::build(g, &ctx.params, &mut ctx.rng())?)),
    },
    Row {
        meta: SchemeMeta {
            key: "tz2",
            table1_label: "Thorup-Zwick / Abraham et al. (k=2)",
            claimed_stretch: "3",
            stretch_bound: StretchBound { base: 3.0, eps_coeff: 0.0, additive: 0.0 },
            claimed_space: "O~(n^1/2)",
            space_exponent: Some(0.5),
            weighted: true,
        },
        build: |g, ctx| Ok(Box::new(TzRoutingScheme::build(g, 2, &mut ctx.rng())?)),
    },
    Row {
        meta: SchemeMeta {
            key: "tz3",
            table1_label: "Thorup-Zwick (k=3)",
            claimed_stretch: "7",
            stretch_bound: StretchBound { base: 7.0, eps_coeff: 0.0, additive: 0.0 },
            claimed_space: "O~(n^1/3)",
            space_exponent: Some(1.0 / 3.0),
            weighted: true,
        },
        build: |g, ctx| Ok(Box::new(TzRoutingScheme::build(g, 3, &mut ctx.rng())?)),
    },
    Row {
        meta: SchemeMeta {
            key: "exact",
            table1_label: "exact shortest paths",
            claimed_stretch: "1",
            stretch_bound: StretchBound { base: 1.0, eps_coeff: 0.0, additive: 0.0 },
            claimed_space: "Theta(n)",
            space_exponent: Some(1.0),
            weighted: false,
        },
        build: |g, _| Ok(Box::new(ExactScheme::build(g)?)),
    },
    Row {
        meta: SchemeMeta {
            key: "thm13",
            table1_label: "this paper: Thm 13 multilevel (l=2)",
            claimed_stretch: "(3+2/l+eps, 2)",
            stretch_bound: StretchBound { base: 4.0, eps_coeff: 1.0, additive: 2.0 },
            claimed_space: "O~(l n^1/2 / eps)",
            space_exponent: Some(0.5),
            weighted: true,
        },
        build: |g, ctx| {
            Ok(Box::new(SchemeMultilevel::build(g, 2, "thm13", &ctx.params, &mut ctx.rng())?))
        },
    },
    Row {
        meta: SchemeMeta {
            key: "thm15",
            table1_label: "this paper: Thm 15 multilevel (l=4)",
            claimed_stretch: "(3+2/l+eps, 2)",
            stretch_bound: StretchBound { base: 3.5, eps_coeff: 1.0, additive: 2.0 },
            claimed_space: "O~(l n^1/2 / eps)",
            space_exponent: Some(0.5),
            weighted: true,
        },
        build: |g, ctx| {
            Ok(Box::new(SchemeMultilevel::build(g, 4, "thm15", &ctx.params, &mut ctx.rng())?))
        },
    },
    Row {
        meta: SchemeMeta {
            key: "thm16k3",
            table1_label: "this paper: Thm 16 (k=3)",
            claimed_stretch: "4k-7+eps",
            stretch_bound: StretchBound { base: 5.0, eps_coeff: 1.0, additive: 0.0 },
            claimed_space: "O~(n^1/3 / eps)",
            space_exponent: Some(1.0 / 3.0),
            weighted: true,
        },
        build: |g, ctx| Ok(Box::new(Thm16Scheme::build(g, 3, &ctx.params, &mut ctx.rng())?)),
    },
];

/// The ordered, string-keyed scheme table (see the module docs).
///
/// Iteration order is row order, so `--schemes all` sweeps and table rows
/// come out in a stable, documented order.
pub struct SchemeRegistry {
    rows: &'static [Row],
}

impl SchemeRegistry {
    /// The default registry: every end-to-end scheme in the workspace,
    /// under its CLI name (see the module docs for the table).
    pub fn with_defaults() -> Self {
        SchemeRegistry { rows: ROWS }
    }

    /// The registered keys, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.rows.iter().map(|r| r.meta.key).collect()
    }

    fn row(&self, key: &str) -> Result<&'static Row, BuildError> {
        self.rows
            .iter()
            .find(|r| r.meta.key == key)
            .ok_or_else(|| BuildError::UnknownScheme { name: key.to_string() })
    }

    /// The paper's claims for the scheme registered under `key`.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScheme`] when no row has `key`.
    pub fn meta(&self, key: &str) -> Result<&'static SchemeMeta, BuildError> {
        self.row(key).map(|r| &r.meta)
    }

    /// Builds the scheme registered under `key` and verifies the naming
    /// invariant (built name == registry key).
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScheme`] when no row has `key`; otherwise
    /// whatever the scheme's build reports. A name/key mismatch is reported
    /// as [`BuildError::BadParameter`] — it means a row builds a scheme
    /// under another name.
    pub fn build(
        &self,
        key: &str,
        g: &Graph,
        ctx: &BuildContext,
    ) -> Result<Box<dyn DynScheme>, BuildError> {
        let row = self.row(key)?;
        // Applied here, once, for every row — the worker-thread count is
        // dispatch policy, not per-scheme knowledge (and it never changes
        // what gets built, only wall-clock).
        ctx.apply_threads();
        let scheme = (row.build)(g, ctx)?;
        if scheme.name() != key {
            return Err(BuildError::BadParameter {
                what: format!(
                    "registry invariant violated: row {key:?} built a scheme named {:?}",
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
            vec!["warmup", "thm10", "thm11", "tz2", "tz3", "exact", "thm13", "thm15", "thm16k3"]
        );
        assert_eq!(r.meta("tz2").map(|m| m.key), Ok("tz2"));
        assert_eq!(r.meta("thm13").map(|m| m.claimed_stretch), Ok("(3+2/l+eps, 2)"));
        assert!(r.meta("thm14").is_err());
        assert!(format!("{r:?}").contains("warmup"));
    }

    #[test]
    fn row_keys_are_unique() {
        // A lookup finds the first row with a key, so a duplicate would
        // silently shadow the later row.
        for (i, row) in ROWS.iter().enumerate() {
            let key = row.meta.key;
            assert!(ROWS[..i].iter().all(|r| r.meta.key != key), "{key:?} is listed twice");
        }
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

        // A row that builds under another name is refused, not returned.
        const MISNAMED: &[Row] = &[Row {
            meta: SchemeMeta { key: "misnamed", ..ROWS[5].meta },
            build: |g, _| Ok(Box::new(ExactScheme::build(g)?)),
        }];
        let err = SchemeRegistry { rows: MISNAMED }.build("misnamed", &g, &ctx).err();
        assert!(matches!(err, Some(BuildError::BadParameter { .. })), "{err:?}");
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

    /// Every key that validates its `Params` refuses an `ε` that is not
    /// finite and positive — infinite, NaN, zero or negative — with
    /// `BuildError::BadParameter`, before it builds anything.
    #[test]
    fn every_validating_key_refuses_a_non_finite_or_non_positive_epsilon() {
        let g = routing_graph::generators::grid(6, 6);
        let r = SchemeRegistry::with_defaults();
        let ctx = |epsilon| BuildContext {
            params: routing_core::Params::with_epsilon(epsilon),
            seed: 9,
            threads: 1,
        };
        let refuses = |key: &str, epsilon: f64| {
            matches!(r.build(key, &g, &ctx(epsilon)), Err(BuildError::BadParameter { .. }))
        };
        let validating: Vec<&str> = r.names().into_iter().filter(|key| refuses(key, 0.0)).collect();
        assert_eq!(validating, ["warmup", "thm10", "thm11", "thm13", "thm15", "thm16k3"]);
        for key in validating {
            for epsilon in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
                assert!(refuses(key, epsilon), "{key} built with epsilon {epsilon}");
            }
        }
    }

    /// The empty graph is refused by every key with an error, not a panic:
    /// there is no vertex to build a table at.
    #[test]
    fn every_key_refuses_the_empty_graph() {
        let g = routing_graph::GraphBuilder::new(0).build();
        let r = SchemeRegistry::with_defaults();
        let ctx = BuildContext { seed: 9, threads: 1, ..BuildContext::default() };
        for key in r.names() {
            let built = std::panic::catch_unwind(|| r.build(key, &g, &ctx).err());
            let err = built.unwrap_or_else(|_| panic!("{key} panicked on the empty graph"));
            assert!(matches!(err, Some(BuildError::TooSmall { .. })), "{key}: {err:?}");
        }
    }

    #[test]
    fn unknown_keys_are_reported_as_unknown_scheme() {
        let r = SchemeRegistry::with_defaults();
        let g = routing_graph::generators::path(4);
        let err = r.build("thm12", &g, &BuildContext::default()).unwrap_err();
        assert!(matches!(err, BuildError::UnknownScheme { .. }));
        assert!(err.to_string().contains("thm12"));
        assert!(matches!(r.meta("thm12"), Err(BuildError::UnknownScheme { .. })));
    }
}
