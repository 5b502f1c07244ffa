//! The vicinity schemes: the `(3+ε)` warm-up of Section 4 (`ℓ = 1`) and
//! the multilevel `(3 ± 2/ℓ + ε, 2)` schemes of Theorems 13 and 15.
//!
//! Let `q = ⌈√n⌉` and `b = q̃`. A Lemma 6 coloring with `q` colors of the
//! vicinities `B(u, b)` induces a partition `U` of `V` into `q` classes of
//! `Õ(√n)` vertices, over which Lemma 7 routes with stretch `(1+ε)`. Every
//! vertex also remembers, for each color, the closest vertex of that color
//! in its own stored ball.
//!
//! Section 5 refines this with a hierarchy of `ℓ` nested vicinities per
//! vertex. The crucial observation is Lemma 2's settle order: because a
//! vicinity of size `t·b` contains the vicinity of size `b` as a prefix of
//! its member list, **one** stored ball of size `ℓ·b` holds every level —
//! `v` is in the level-`t` vicinity of `u` iff its position in
//! [`routing_vicinity::BallView::ids`] is below `t·b`. The levels are a
//! build-time notion: the Lemma 6 colouring reads the level-1 id prefixes
//! of the build-time [`routing_vicinity::BallTable`] in place, and routing
//! reads only the ports of the top-level ball, the one
//! [`routing_vicinity::BallPorts`] each vertex keeps in place of `ℓ` tables.
//!
//! Routing from `u` to `v`: exact Lemma 2 forwarding when `v` is in `u`'s
//! stored ball; otherwise walk (exactly) towards the remembered
//! representative `w` of `c(v)` — which satisfies `d(u, w) ≤ d(u, v)` — and
//! from `w` route to `v` with Lemma 7.
//!
//! At `ℓ = 1` this is the Section 4 scheme and its analysis: the walk always
//! reaches `w`, Lemma 7 runs at `ε`, and the total is at most
//! `(3+2ε)·d(u, v)`. Section 5's refinement adds two rules, both applied
//! iff `ℓ > 1`:
//! - **The slack split.** Lemma 7 runs at `ε/2`, so the worst case is
//!   `d + (1 + ε/2)·2d = (3+ε)·d`.
//! - **The shortcut.** The walk towards `w` switches to exact forwarding at
//!   the first vertex whose stored ball already contains `v`. The larger
//!   the top-level ball, the more often the direct and shortcut cases fire,
//!   trading table space `Õ(ℓ√n/ε)` for stretch `(3 + 2/ℓ + ε)·d + 2`:
//!   Theorem 13 instantiates `ℓ = 2`, Theorem 15 `ℓ = 4`.
//!
//! The bound the registry row's `SchemeMeta` *declares* for `ℓ ≥ 2` is the
//! `+` branch of Theorem 13/15 with additive 2; the implemented worst case
//! `(3+ε)·d` sits strictly inside it, so the machine-checked conformance
//! bound holds with margin on every input.

use rand::Rng;

use routing_graph::{Graph, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_vicinity::BallDists;

use crate::stages::{self, Vicinities};
use crate::technique1::{Technique1Header, Technique1Router};
use crate::{BuildError, Params};

/// Routing phase carried in the message header.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// The destination is in the current vertex's stored ball: pure
    /// Lemma 2 forwarding (exact by Property 1).
    Direct,
    /// Walking towards the color representative `w` of the destination's
    /// color; for `ℓ > 1`, with the shortcut: switch to [`Phase::Direct`]
    /// at the first vertex whose stored ball contains the destination.
    ToRep(VertexId),
    /// Lemma 7 routing from the representative to the destination.
    Intra(Technique1Header),
}

/// Header of the vicinity schemes.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelHeader {
    phase: Phase,
}

impl HeaderSize for MultilevelHeader {
    fn words(&self) -> usize {
        match &self.phase {
            Phase::Direct => 1,
            Phase::ToRep(_) => 2,
            Phase::Intra(h) => 1 + h.words(),
        }
    }
}

/// Label of the vicinity schemes: the destination and its color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultilevelLabel {
    /// The destination vertex.
    pub vertex: VertexId,
    /// The destination's color `c(v)` under the level-1 coloring.
    pub color: u32,
}

/// The vicinity scheme with `Õ(ℓ√n/ε)`-word tables: the `(3+ε)` warm-up at
/// `ℓ = 1`, the `(3 ± 2/ℓ + ε, 2)` scheme of Theorems 13 and 15 at `ℓ > 1`.
#[derive(Debug, Clone)]
pub struct SchemeMultilevel {
    name: &'static str,
    n: usize,
    epsilon: f64,
    levels: usize,
    /// Members per level: level `t` (1-based) is the first `t·level_base`
    /// entries of the stored ball.
    level_base: usize,
    /// The one stored (top-level) ball per vertex, colored by its level-1
    /// prefix; representatives are the closest of each color in the whole
    /// ball.
    pub(crate) vic: Vicinities,
    router: Technique1Router,
}

impl SchemeMultilevel {
    /// Preprocesses the scheme for `g` with `levels = ℓ` nested vicinity
    /// levels, registered under `name`.
    ///
    /// # Errors
    ///
    /// Fails on disconnected graphs, invalid parameters, `levels == 0`, or
    /// if the Lemma 6 coloring cannot be constructed.
    pub fn build<R: Rng>(
        g: &Graph,
        levels: usize,
        name: &'static str,
        params: &Params,
        rng: &mut R,
    ) -> Result<Self, BuildError> {
        if levels == 0 {
            return Err(BuildError::BadParameter { what: "levels must be >= 1".to_string() });
        }
        stages::check(g, params)?;
        let n = g.n();
        let q = (n as f64).sqrt().ceil().max(1.0) as u32;
        // One stored ball of ℓ·b members; level t is its t·b-prefix. The
        // Lemma 6 coloring partitions by the *level-1* vicinities, so
        // Lemma 7's per-class guarantee matches the warm-up analysis; the
        // larger stored ball only adds direct-routing reach on top.
        let level_base = params.scaled(q as usize, n);
        let ell = level_base.saturating_mul(levels).clamp(1, n);
        let vic = Vicinities::balls(g, ell, BallDists::Skip).colour(level_base, q, params, rng)?;

        // Section 5's slack split (see the module doc): ε/2 for ℓ > 1.
        let split = if levels > 1 { 2.0 } else { 1.0 };
        let inner = Params { epsilon: params.epsilon / split, ..*params };
        let router = Technique1Router::build(g, &vic.balls, |v| vic.color(v), &inner)?;

        let vic = vic.retain();
        Ok(SchemeMultilevel { name, n, epsilon: params.epsilon, levels, level_base, vic, router })
    }

    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The number of vicinity levels `ℓ`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Members per level: level `t` (1-based) of a vertex's vicinity
    /// hierarchy is the first `t · level_base()` entries of its stored
    /// ball.
    pub fn level_base(&self) -> usize {
        self.level_base
    }

    /// The number of colors `q = ⌈√n⌉`.
    pub fn q(&self) -> u32 {
        self.vic.q
    }

    /// The Lemma 7 router, whose sequences every vertex stores.
    pub fn router(&self) -> &Technique1Router {
        &self.router
    }

    /// Bytes of heap the vicinities hold, by capacity: the Lemma 2 ports,
    /// the colours and the colour representatives.
    pub fn vicinity_heap_bytes(&self) -> usize {
        self.vic.heap_bytes()
    }

    /// The color of vertex `v`.
    pub fn color(&self, v: VertexId) -> u32 {
        self.vic.color(v)
    }
}

impl RoutingScheme for SchemeMultilevel {
    type Label = MultilevelLabel;
    type Header = MultilevelHeader;

    fn name(&self) -> &str {
        self.name
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> MultilevelLabel {
        MultilevelLabel { vertex: v, color: self.vic.color(v) }
    }

    fn init_header(
        &self,
        source: VertexId,
        dest: &MultilevelLabel,
    ) -> Result<MultilevelHeader, RouteError> {
        if source == dest.vertex || self.vic.sees(source, dest.vertex) {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(MultilevelHeader { phase: Phase::Direct });
        }
        let rep = self.vic.rep(source, dest.color)?;
        if rep == source {
            let h = self.router.start(source, dest.vertex)?;
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(MultilevelHeader { phase: Phase::Intra(h) });
        }
        routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc();
        Ok(MultilevelHeader { phase: Phase::ToRep(rep) })
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut MultilevelHeader,
        dest: &MultilevelLabel,
    ) -> Result<Decision, RouteError> {
        if at == dest.vertex {
            return Ok(Decision::Deliver);
        }
        loop {
            match &mut header.phase {
                Phase::Direct => return self.vic.toward(at, dest.vertex, "destination"),
                Phase::ToRep(rep) => {
                    // Section 5's shortcut (ℓ > 1): a vertex whose stored
                    // ball holds the destination finishes exactly
                    // (Property 1) instead of detouring through the
                    // representative.
                    if self.levels > 1 && self.vic.sees(at, dest.vertex) {
                        header.phase = Phase::Direct;
                        continue;
                    }
                    if at == *rep {
                        let h = self.router.start(at, dest.vertex)?;
                        header.phase = Phase::Intra(h);
                        continue;
                    }
                    return self.vic.toward(at, *rep, "representative");
                }
                Phase::Intra(h) => return self.router.step(at, h, dest.vertex, &self.vic.balls),
            }
        }
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.vic.words_at(v) + self.router.table_words(v)
    }

    fn label_words(&self, _v: VertexId) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::generators::{self, WeightModel};
    use routing_model::simulate;

    /// The registry key of the `levels`-level scheme.
    fn key(levels: usize) -> &'static str {
        match levels {
            1 => "warmup",
            2 => "thm13",
            _ => "thm15",
        }
    }

    fn check_all_pairs(g: &Graph, levels: usize, epsilon: f64, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = Params::with_epsilon(epsilon);
        let scheme = SchemeMultilevel::build(g, levels, key(levels), &params, &mut rng).unwrap();
        // The declared Theorem 13/15 envelope: (3 + 2/ℓ + ε)·d + 2.
        let factor = 3.0 + 2.0 / levels as f64 + epsilon;
        crate::test_support::check_all_pairs(g, &scheme, |d| factor * d + 2.0)
    }

    #[test]
    fn multilevel_l2_meets_bound_on_unweighted_graph() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::erdos_renyi(80, 0.06, WeightModel::Unit, &mut rng);
        let worst = check_all_pairs(&g, 2, 0.5, 1);
        assert!(worst >= 1.0);
    }

    #[test]
    fn multilevel_l4_meets_bound_on_weighted_graph() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = generators::erdos_renyi(60, 0.08, WeightModel::Uniform { lo: 1, hi: 20 }, &mut rng);
        check_all_pairs(&g, 4, 0.25, 2);
    }

    #[test]
    fn multilevel_on_grid() {
        let g = generators::grid(7, 7);
        check_all_pairs(&g, 4, 1.0, 3);
    }

    /// The ℓ = 1 rule: the warm-up walks every route whose destination lies
    /// outside the source's ball through the representative `rep(u, c(v))`.
    /// At ℓ = 4, on the same graph, the shortcut fires: some such route
    /// never reaches its representative.
    #[test]
    fn the_warmup_visits_every_representative_and_thm15_shortcuts_past_one() {
        let mut rng = StdRng::seed_from_u64(46);
        let g = generators::erdos_renyi(1000, 0.008, WeightModel::Unit, &mut rng);
        let params = Params::with_epsilon(0.5);
        let mut skipped = Vec::new();
        for levels in [1, 4] {
            let mut rng = StdRng::seed_from_u64(7);
            let scheme =
                SchemeMultilevel::build(&g, levels, key(levels), &params, &mut rng).unwrap();
            let (mut far, mut skips) = (0, 0);
            for u in g.vertices().step_by(5) {
                for v in g.vertices().filter(|&v| !scheme.vic.sees(u, v)) {
                    let rep = scheme.vic.rep(u, scheme.color(v)).unwrap();
                    let out = simulate(&g, &scheme, u, v).unwrap();
                    far += 1;
                    skips += usize::from(!out.path.contains(&rep));
                }
            }
            assert!(far > 0, "ℓ = {levels}: every destination is in the source's ball");
            skipped.push(skips);
        }
        assert_eq!(skipped[0], 0, "the warm-up skipped a representative");
        assert!(skipped[1] > 0, "the ℓ = 4 shortcut never fired");
    }

    #[test]
    fn one_stored_ball_answers_membership_at_every_level() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::erdos_renyi(70, 0.08, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
        let scheme =
            SchemeMultilevel::build(&g, 4, "thm15", &Params::with_epsilon(0.5), &mut rng).unwrap();
        let (b, levels) = (scheme.level_base(), scheme.levels());
        // The scheme keeps the ports only; the member ids come from the
        // build-time table of the same size.
        let balls = routing_vicinity::BallTable::build(&g, scheme.vic.balls.ell());
        assert_eq!(scheme.vic.balls, *balls);
        // The smallest level t ∈ 1..=levels whose vicinity of u holds v:
        // v is at level t iff its position in the ids is below t·b.
        let member_level = |u, v: VertexId| {
            let t = balls.ball(u).ids().position(v)? / b + 1;
            (t <= levels).then_some(t)
        };
        for u in g.vertices() {
            let view = balls.ball(u);
            // Level 1 membership: exactly the b-prefix of the stored ball.
            assert_eq!(member_level(u, u), Some(1), "center is level-1");
            for (rank, v) in view.ids().iter().enumerate() {
                assert!(view.contains(v), "{v} listed in B({u}) but not in its slots");
                let level = member_level(u, v);
                assert_eq!(level, Some(rank / b + 1), "rank {rank} of {u}");
                // Monotonicity: levels are nested, so membership at level t
                // implies membership at every t' >= t.
                if let Some(t) = level {
                    assert!(t <= levels);
                    assert!(rank < t * b && (t == 1 || rank >= (t - 1) * b));
                }
            }
            // A vertex outside the stored ball is at no level.
            for v in g.vertices() {
                if !view.contains(v) {
                    assert_eq!(member_level(u, v), None);
                }
            }
        }
    }

    #[test]
    fn multilevel_reports_metadata() {
        let mut rng = StdRng::seed_from_u64(44);
        let g = generators::cycle(36);
        let scheme =
            SchemeMultilevel::build(&g, 2, "thm13", &Params::default(), &mut rng).unwrap();
        assert_eq!(scheme.q(), 6);
        assert_eq!(scheme.levels(), 2);
        assert_eq!(RoutingScheme::n(&scheme), 36);
        assert_eq!(scheme.name(), "thm13");
        for v in g.vertices() {
            assert!(scheme.table_words(v) > 0);
            assert_eq!(scheme.label_words(v), 2);
            assert!(scheme.color(v) < 6);
            assert_eq!(scheme.label_of(v).color, scheme.color(v));
        }
    }

    #[test]
    fn multilevel_rejects_bad_inputs() {
        let mut b = routing_graph::GraphBuilder::new(4);
        b.add_unit_edge(0, 1).unwrap();
        b.add_unit_edge(2, 3).unwrap();
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(1);
        let params = Params::default();
        let err = SchemeMultilevel::build(&g, 2, "thm13", &params, &mut rng).unwrap_err();
        assert_eq!(err, BuildError::Disconnected);

        let g = generators::cycle(12);
        let err = SchemeMultilevel::build(&g, 0, "thm13", &params, &mut rng).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter { .. }));

        // ℓ·b saturates: a huge ℓ stores the whole graph in every ball, or
        // is refused, and never overflows.
        for levels in [usize::MAX, 1 << 63, 1 << 62] {
            let Ok(scheme) = SchemeMultilevel::build(&g, levels, "thm15", &params, &mut rng) else {
                continue;
            };
            assert_eq!(scheme.vic.balls.ell(), 12, "ℓ = {levels}");
            let out = simulate(&g, &scheme, VertexId(0), VertexId(6)).unwrap();
            assert_eq!(out.weight, 6, "ℓ = {levels}: a whole-graph ball routes exactly");
        }
    }

    #[test]
    fn builders_build_schemes_named_after_their_key() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = generators::erdos_renyi(70, 0.08, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
        let ctx = crate::BuildContext::with_seed(11);
        for levels in [1, 2, 4] {
            let scheme =
                SchemeMultilevel::build(&g, levels, key(levels), &ctx.params, &mut ctx.rng())
                    .unwrap();
            assert_eq!(scheme.name(), key(levels));
            let out = simulate(&g, &scheme, VertexId(0), VertexId(69)).unwrap();
            assert_eq!(out.destination(), VertexId(69));
        }
    }
}
