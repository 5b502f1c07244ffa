//! The warm-up `(3+ε)`-stretch scheme of Section 4.
//!
//! Let `q = ⌈√n⌉`. A Lemma 6 coloring with `q` colors of the vicinities
//! `B(u, q̃)` induces a partition `U` of `V` into `q` classes of `Õ(√n)`
//! vertices, over which Lemma 7 routes with stretch `(1+ε)`. Every vertex
//! additionally remembers, for each color, one vertex of that color inside
//! its own vicinity.
//!
//! Routing from `u` to `v`: if `v ∈ B(u, q̃)` route exactly with Lemma 2;
//! otherwise walk (exactly) to the remembered vertex `w` of color `c(v)` —
//! which satisfies `d(u, w) ≤ d(u, v)` — and from `w` use Lemma 7 to reach
//! `v` with stretch `(1+ε)`. The total is at most `(3+2ε)·d(u, v)`.

use rand::Rng;

use routing_graph::{Graph, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};

use crate::stages::{self, Vicinities};
use crate::technique1::{Technique1Header, Technique1Router};
use crate::{BuildError, Params};

/// Routing phase carried in the message header.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// The destination is in the source's vicinity: pure Lemma 2 forwarding.
    Direct,
    /// Walking towards the color representative `w` of the destination's
    /// color.
    ToRep(VertexId),
    /// Lemma 7 routing from the representative to the destination.
    Intra(Technique1Header),
}

/// Header of the warm-up scheme.
#[derive(Debug, Clone, Copy)]
pub struct Scheme3Header {
    phase: Phase,
}

impl HeaderSize for Scheme3Header {
    fn words(&self) -> usize {
        match &self.phase {
            Phase::Direct => 1,
            Phase::ToRep(_) => 2,
            Phase::Intra(h) => 1 + h.words(),
        }
    }
}

/// Label of the warm-up scheme: the destination and its color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme3Label {
    /// The destination vertex.
    pub vertex: VertexId,
    /// The destination's color `c(v)`.
    pub color: u32,
}

/// The `(3+ε)`-stretch scheme with `Õ((1/ε)√n)`-word tables.
#[derive(Debug, Clone)]
pub struct SchemeThreePlusEps {
    n: usize,
    epsilon: f64,
    pub(crate) vic: Vicinities,
    router: Technique1Router,
}

impl SchemeThreePlusEps {
    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Preprocesses the scheme for `g`.
    ///
    /// # Errors
    ///
    /// Fails on disconnected graphs, invalid parameters, or if the Lemma 6
    /// coloring cannot be constructed (graph too small for `q` colors).
    pub fn build<R: Rng>(g: &Graph, params: &Params, rng: &mut R) -> Result<Self, BuildError> {
        stages::check(g, params)?;
        let n = g.n();
        let q = (n as f64).sqrt().ceil().max(1.0) as u32;
        let ell = params.scaled(q as usize, n);
        let vic = Vicinities::balls(g, ell).colour(ell, q, params, rng)?;
        let router = Technique1Router::build(g, &vic.balls, vic.color_of.clone(), params)?;
        Ok(SchemeThreePlusEps { n, epsilon: params.epsilon, vic: vic.retain(), router })
    }

    /// The number of colors `q = ⌈√n⌉`.
    pub fn q(&self) -> u32 {
        self.vic.q
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

impl RoutingScheme for SchemeThreePlusEps {
    type Label = Scheme3Label;
    type Header = Scheme3Header;

    fn name(&self) -> &str {
        "warmup"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> Scheme3Label {
        Scheme3Label { vertex: v, color: self.vic.color(v) }
    }

    fn init_header(&self, source: VertexId, dest: &Scheme3Label) -> Result<Scheme3Header, RouteError> {
        if source == dest.vertex || self.vic.sees(source, dest.vertex) {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(Scheme3Header { phase: Phase::Direct });
        }
        let rep = self.vic.rep(source, dest.color)?;
        if rep == source {
            let h = self.router.start(source, dest.vertex)?;
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(Scheme3Header { phase: Phase::Intra(h) });
        }
        routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc();
        Ok(Scheme3Header { phase: Phase::ToRep(rep) })
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut Scheme3Header,
        dest: &Scheme3Label,
    ) -> Result<Decision, RouteError> {
        if at == dest.vertex {
            return Ok(Decision::Deliver);
        }
        loop {
            match &mut header.phase {
                Phase::Direct => return self.vic.toward(at, dest.vertex, "destination"),
                Phase::ToRep(rep) => {
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

    fn check_all_pairs(g: &Graph, epsilon: f64, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme =
            SchemeThreePlusEps::build(g, &Params::with_epsilon(epsilon), &mut rng).unwrap();
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
        let g = generators::erdos_renyi(60, 0.08, WeightModel::Uniform { lo: 1, hi: 20 }, &mut rng);
        check_all_pairs(&g, 0.25, 2);
    }

    #[test]
    fn warmup_on_grid() {
        let g = generators::grid(7, 7);
        check_all_pairs(&g, 1.0, 3);
    }

    #[test]
    fn warmup_reports_metadata() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::cycle(36);
        let scheme = SchemeThreePlusEps::build(&g, &Params::default(), &mut rng).unwrap();
        assert_eq!(scheme.q(), 6);
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
        let mut rng = StdRng::seed_from_u64(1);
        let err = SchemeThreePlusEps::build(&g, &Params::default(), &mut rng).unwrap_err();
        assert_eq!(err, BuildError::Disconnected);
    }
}
