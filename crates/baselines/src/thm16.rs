//! The `(4k−7+ε)`-stretch scheme of Theorem 16: Thorup–Zwick's hierarchy
//! augmented with an `ε`-vicinity per vertex.
//!
//! Section 6 of Roditty & Tov observes that the two expensive hops of the
//! TZ `(4k−5)` analysis — reaching the first pivot of the ladder and the
//! detour it costs — can be shaved when every vertex additionally stores a
//! vicinity (Lemma 2 ball) of `Õ((k/ε)·n^{1/k})` vertices on top of its
//! bunch. Routing from `u` to `v`:
//!
//! 1. **Direct** — `v` in `u`'s vicinity: exact Lemma 2 forwarding
//!    (Property 1 keeps the destination visible along the way).
//! 2. **Source cluster** — `v ∈ C(u)`: route on `u`'s own cluster tree,
//!    exact since `T(u)` is a shortest-path tree from `u`.
//! 3. **Cheapest pivot** — otherwise, cost every pivot `w = p_i(v)` whose
//!    tree label is present in `v`'s label: `d(u, w)` comes from `u`'s
//!    bunch (then `u ∈ C(w)` by duality and the cluster tree covers `u`
//!    already) or from `u`'s vicinity (then walk to `w` exactly first);
//!    `d(w, v)` is the pivot distance shipped in the label. Route via the
//!    candidate minimizing `d(u, w) + d(w, v)`. The top pivot
//!    `p_{k−1}(v) ∈ A_{k−1}` is in every bunch, so a candidate always
//!    exists; the routed weight never exceeds the cost of the plain TZ
//!    ladder choice, so `4k−5` still holds unconditionally while the
//!    vicinity buys the paper's `4k−7+ε` at the declared parameters.
//!
//! The tables grow by one vicinity (`3` words per member) over the TZ
//! scheme — `Õ((k/ε)·n^{1/k})` words total, matching the theorem. Bunches,
//! cluster trees, the pivot ladder and the TZ share of the table are read
//! from the [`TzHierarchy`] and its [`routing_core::ClusterFamily`]; the
//! scheme itself keeps only the vicinities: the Lemma 2 ports
//! ([`BallPorts`]) and, per vertex `u`, one id-sorted list of
//! `(w, d(u, w))` for the members `w ∈ B(u, ℓ) ∩ A_1`. Step 3 reads a
//! vicinity distance only after `v ∉ B(u, ℓ)`, and only for a pivot
//! `w = p_i(v)`: `p_0(v) = v` is then no member, and every `p_i(v)` with
//! `i ≥ 1` lies in `A_i ⊆ A_1`, so the list answers every lookup the
//! routing makes. The build samples the hierarchy's levels first (its only
//! RNG draws), then builds the [`BallTable`], keeps its ports and the `A_1`
//! distances, drops it, and only then finishes the hierarchy, so the two
//! builds' transients never overlap. As in the TZ scheme, a label is a
//! `Copy` handle on that ladder and a header carries a tree-label view.

use rand::Rng;

use routing_core::{BuildError, Params};
use routing_graph::{Graph, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::TreeLabelView;
use routing_vicinity::{BallPorts, BallTable};

use crate::tz::{TzHierarchy, TzLevels};

/// Routing phase carried in the message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The destination is in the current vertex's vicinity: pure Lemma 2
    /// forwarding.
    Direct,
    /// Walking (exactly, through the vicinity) towards pivot `w`, then
    /// finishing on `w`'s cluster tree with the carried label.
    ToPivot { w: VertexId, label: TreeLabelView },
    /// Routing on the cluster tree `T(root)` towards the destination.
    Tree { root: VertexId, label: TreeLabelView },
}

/// Header of the Theorem 16 scheme.
#[derive(Debug, Clone, Copy)]
pub struct Thm16Header {
    phase: Phase,
}

impl HeaderSize for Thm16Header {
    fn words(&self) -> usize {
        match &self.phase {
            Phase::Direct => 1,
            Phase::ToPivot { label, .. } => 2 + label.words(),
            Phase::Tree { label, .. } => 1 + label.words(),
        }
    }
}

/// Label of a destination `v` in the Theorem 16 scheme: a handle on `v`
/// that stands for `v`, its TZ pivot ladder with distances (the distances
/// are what lets the source cost its candidates) and its labels in
/// `T(p_i(v))`, all read from the hierarchy ([`TzHierarchy::ladder`]).
/// [`RoutingScheme::label_words`] charges all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thm16Label {
    /// The destination vertex.
    pub vertex: VertexId,
}

/// The Theorem 16 `(4k−7+ε)`-stretch scheme with `Õ((k/ε)·n^{1/k})`-word
/// tables.
#[derive(Debug, Clone)]
pub struct Thm16Scheme {
    /// Cached scheme name: the registry key `thm16k<k>`.
    name: String,
    epsilon: f64,
    hierarchy: TzHierarchy,
    /// The `ε`-vicinities of Lemma 2, `Õ((k/ε)·n^{1/k})` members each.
    balls: BallPorts,
    /// `d(u, w)` for every vicinity member `w` of `u` in `A_1`.
    landmark_dists: LandmarkDists,
}

/// Per vertex `u`, the id-sorted `(w, d(u, w))` of every `w ∈ B(u, ℓ) ∩ A_1`,
/// in one CSR table: 4 bytes a vertex and 16 an entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LandmarkDists {
    /// `offsets[u]..offsets[u + 1]` indexes `entries` for vertex `u`.
    offsets: Vec<u32>,
    entries: Vec<(VertexId, Weight)>,
}

impl LandmarkDists {
    /// The lists of the id-sorted set `level` over the vicinities of `balls`:
    /// one pass counts, one fills the exact arrays. Fails on a table built
    /// without distances.
    fn new(balls: &BallTable, level: &[VertexId]) -> Result<Self, BuildError> {
        let n = balls.len();
        let mut member = vec![false; n];
        for &w in level {
            member[w.index()] = true;
        }
        let kept = |u: usize| {
            let ball = balls.ball(VertexId(u as u32));
            let dists = ball.dists().ok_or_else(|| BuildError::Inconsistent {
                what: "the landmark lists read ball distances the table was built without".into(),
            })?;
            let members = ball.ids().iter().copied().zip(dists.iter().copied());
            Ok::<_, BuildError>(members.filter(|&(w, _)| member[w.index()]))
        };
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for u in 0..n {
            let end = offsets[u] as usize + kept(u)?.count();
            offsets.push(u32::try_from(end).map_err(|_| BuildError::TooSmall {
                what: "vicinity landmark lists exceed the u32 offset range".into(),
            })?);
        }
        let mut entries = Vec::with_capacity(offsets[n] as usize);
        for u in 0..n {
            let row = entries.len();
            entries.extend(kept(u)?);
            entries[row..].sort_unstable_by_key(|&(w, _)| w);
        }
        Ok(LandmarkDists { offsets, entries })
    }

    /// `d(u, w)` if `w` is on `u`'s list: one binary search.
    #[inline]
    fn landmark_dist(&self, u: VertexId, w: VertexId) -> Option<Weight> {
        let (lo, hi) = (*self.offsets.get(u.index())?, *self.offsets.get(u.index() + 1)?);
        let row = self.entries.get(lo as usize..hi as usize)?;
        row.binary_search_by_key(&w, |&(x, _)| x).ok().map(|i| row[i].1)
    }

    /// Bytes of heap the arrays hold, by capacity.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * self.offsets.capacity()
            + std::mem::size_of::<(VertexId, Weight)>() * self.entries.capacity()
    }
}

/// The vicinity size Theorem 16 prescribes: `α·(k/ε)·n^{1/k}` members,
/// clamped to `[1, n]`. Deliberately without the `log n` factor of
/// [`Params::scaled`] — the theorem's vicinity is sized against the bunch
/// (`Õ(k·n^{1/k})`), not against `√n`, and the log factor would swallow
/// whole graphs at experiment scales.
fn vicinity_size(k: usize, n: usize, params: &Params) -> usize {
    let v = (params.ball_scale * (k as f64 / params.epsilon) * (n as f64).powf(1.0 / k as f64))
        .ceil() as usize;
    v.clamp(1, n.max(1))
}

impl Thm16Scheme {
    /// Preprocesses the scheme for `g` with hierarchy parameter `k ≥ 2`.
    ///
    /// # Errors
    ///
    /// As [`TzHierarchy::build`], plus parameter validation (`ε > 0`).
    pub fn build<R: Rng>(
        g: &Graph,
        k: usize,
        params: &Params,
        rng: &mut R,
    ) -> Result<Self, BuildError> {
        params.validate().map_err(|what| BuildError::BadParameter { what })?;
        // The levels are the hierarchy's only RNG draws, and the ball build
        // draws nothing, so sampling them first leaves the hierarchy as it
        // was. The landmark lists need `A_1`; the member lists are gone
        // before the hierarchy's transients arrive.
        let levels = TzLevels::sample(g, k, rng)?;
        let table = BallTable::build(g, vicinity_size(k, g.n(), params));
        let landmark_dists = LandmarkDists::new(&table, levels.level(1))?;
        let balls = table.into_ports();
        let hierarchy = TzHierarchy::from_levels(g, levels)?;
        let name = format!("thm16k{k}");
        Ok(Thm16Scheme { name, epsilon: params.epsilon, hierarchy, balls, landmark_dists })
    }

    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &TzHierarchy {
        &self.hierarchy
    }

    /// The number of members in each stored `ε`-vicinity.
    pub fn vicinity_ell(&self) -> usize {
        self.balls.ell()
    }

    /// Bytes of heap the vicinities hold, by capacity: the Lemma 2 ports
    /// and the landmark distance lists.
    pub fn vicinity_heap_bytes(&self) -> usize {
        self.balls.heap_bytes() + self.landmark_dists.heap_bytes()
    }
}

impl RoutingScheme for Thm16Scheme {
    type Label = Thm16Label;
    type Header = Thm16Header;

    fn name(&self) -> &str {
        &self.name
    }

    fn n(&self) -> usize {
        self.hierarchy.n()
    }

    fn label_of(&self, v: VertexId) -> Thm16Label {
        Thm16Label { vertex: v }
    }

    fn init_header(&self, source: VertexId, dest: &Thm16Label) -> Result<Thm16Header, RouteError> {
        let v = dest.vertex;
        if v.index() >= self.hierarchy.n() {
            return Err(RouteError::BadLabel { what: format!("{v} is not a vertex") });
        }
        if source == v || self.balls.contains(source, v) {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(Thm16Header { phase: Phase::Direct });
        }
        // v in the source's own cluster: T(source) is a shortest-path tree
        // from the source, so this hop is exact.
        let clusters = self.hierarchy.clusters();
        if let Some(label) = clusters.label_in(source, v) {
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(Thm16Header { phase: Phase::Tree { root: source, label } });
        }
        // Cost every reachable pivot of v and take the cheapest; ties go to
        // the lower ladder level, reproducing plain TZ as the fallback.
        let mut best: Option<(Weight, Phase)> = None;
        for &((w, dwv), label) in self.hierarchy.ladder(v) {
            if label == TreeLabelView::ABSENT {
                continue;
            }
            let (duw, phase) = if w == source {
                (0, Phase::Tree { root: w, label })
            } else if let Some(d) = clusters.bunch_dist(source, w) {
                // u ∈ C(w) by bunch/cluster duality: T(w) already covers u.
                (d, Phase::Tree { root: w, label })
            } else if let Some(d) = self.landmark_dists.landmark_dist(source, w) {
                (d, Phase::ToPivot { w, label })
            } else {
                continue;
            };
            let cost = duw.saturating_add(dwv);
            if best.as_ref().map_or(true, |&(c, _)| cost < c) {
                best = Some((cost, phase));
            }
        }
        // p_{k−1}(v) ∈ A_{k−1} lies in every bunch, so a candidate exists.
        best.map(|(_, phase)| {
            match phase {
                Phase::ToPivot { .. } => routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc(),
                _ => routing_obs::counters::ROUTING_PHASE_TREE.inc(),
            }
            Thm16Header { phase }
        })
        .ok_or_else(|| RouteError::MissingInformation {
            at: source,
            what: format!("no pivot of {v} is reachable from {source}"),
        })
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut Thm16Header,
        dest: &Thm16Label,
    ) -> Result<Decision, RouteError> {
        if at == dest.vertex {
            return Ok(Decision::Deliver);
        }
        loop {
            match &mut header.phase {
                Phase::Direct => {
                    return self
                        .balls
                        .first_port(at, dest.vertex)
                        .map(Decision::Forward)
                        .ok_or_else(|| RouteError::MissingInformation {
                            at,
                            what: format!(
                                "{} left the vicinity during direct routing",
                                dest.vertex
                            ),
                        });
                }
                Phase::ToPivot { w, label } => {
                    // Vicinity shortcut: an intermediate vertex that already
                    // sees the destination finishes exactly instead of
                    // detouring through the pivot.
                    if self.balls.contains(at, dest.vertex) {
                        header.phase = Phase::Direct;
                        continue;
                    }
                    if at == *w {
                        header.phase = Phase::Tree { root: *w, label: *label };
                        continue;
                    }
                    let w = *w;
                    return self
                        .balls
                        .first_port(at, w)
                        .map(Decision::Forward)
                        .ok_or_else(|| RouteError::MissingInformation {
                            at,
                            what: format!("pivot {w} left the vicinity"),
                        });
                }
                Phase::Tree { root, label } => {
                    return self.hierarchy.clusters().step(*root, at, *label);
                }
            }
        }
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.balls.words_at(v) + self.hierarchy.table_words(v)
    }

    /// `v`, its `k` pivots with distances and its `k` tree labels.
    fn label_words(&self, v: VertexId) -> usize {
        1 + self.hierarchy.ladder(v).iter().map(|(_, label)| 2 + label.words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_model::simulate;
    use routing_vicinity::BallDists;

    fn weighted_graph(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(n, 0.07, WeightModel::Uniform { lo: 1, hi: 10 }, &mut rng)
    }

    fn check_all_pairs(g: &Graph, k: usize, params: &Params, seed: u64, factor: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = Thm16Scheme::build(g, k, params, &mut rng).unwrap();
        let exact = DistanceMatrix::new(g);
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                let out = simulate(g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap() as f64;
                assert!(
                    out.weight as f64 <= factor * d + 1e-9,
                    "stretch bound violated for k={k} {u}->{v}: {} vs {d}",
                    out.weight
                );
            }
        }
    }

    #[test]
    fn thm16_meets_declared_bound_at_default_parameters() {
        // The declared conformance envelope: (4k−7+ε)·d with k = 3.
        let params = Params::with_epsilon(0.5);
        for seed in [1u64, 2, 3] {
            let g = weighted_graph(70, 20 + seed);
            check_all_pairs(&g, 3, &params, seed, 4.0 * 3.0 - 7.0 + params.epsilon);
        }
    }

    #[test]
    fn thm16_never_exceeds_the_tz_fallback_bound() {
        // With a vicinity too small to help, the candidate choice still
        // includes the plain TZ ladder pivot, so 4k−5 holds unconditionally.
        let params = Params { ball_scale: 1e-9, ..Params::with_epsilon(0.5) };
        let g = weighted_graph(60, 31);
        let scheme = Thm16Scheme::build(&g, 3, &params, &mut StdRng::seed_from_u64(4)).unwrap();
        assert_eq!(scheme.vicinity_ell(), 1, "tiny ball_scale must shrink the vicinity to 1");
        check_all_pairs(&g, 3, &params, 4, 4.0 * 3.0 - 5.0);
    }

    #[test]
    fn thm16_on_unweighted_and_grid_graphs() {
        let params = Params::with_epsilon(0.25);
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::erdos_renyi(80, 0.06, WeightModel::Unit, &mut rng);
        check_all_pairs(&g, 3, &params, 5, 5.0 + params.epsilon);
        let g = generators::grid(6, 6);
        check_all_pairs(&g, 2, &params, 6, 4.0 * 2.0 - 5.0);
    }

    #[test]
    fn thm16_reports_metadata() {
        let g = weighted_graph(60, 35);
        let mut rng = StdRng::seed_from_u64(7);
        let scheme = Thm16Scheme::build(&g, 3, &Params::default(), &mut rng).unwrap();
        assert_eq!(scheme.name(), "thm16k3");
        assert_eq!(RoutingScheme::n(&scheme), 60);
        assert_eq!(scheme.hierarchy().k(), 3);
        assert!(scheme.vicinity_ell() >= 1);
        assert!((scheme.epsilon() - 0.25).abs() < 1e-12);
        for v in g.vertices() {
            assert!(scheme.table_words(v) > 0);
            assert_eq!(scheme.label_of(v).vertex, v);
            // v, three pivots with distances and three tree labels.
            let trees: usize = scheme.hierarchy().ladder(v).iter().map(|(_, l)| l.words()).sum();
            assert_eq!(scheme.label_words(v), 1 + 2 * 3 + trees);
        }
    }

    /// Erdős–Rényi, geometric and grid graphs, unit and weighted, around a
    /// power of two, each with the scheme built on it and the ball table of
    /// its vicinity size.
    fn schemes_beside_their_tables() -> Vec<(String, Graph, Thm16Scheme, BallTable)> {
        use generators::Family;
        let params = Params::with_epsilon(0.5);
        let mut out = Vec::new();
        for n in [63, 64, 65, 130] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            for family in [Family::ErdosRenyi, Family::Geometric, Family::Grid] {
                for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                    let g = family.generate(n, weights, &mut rng);
                    let scheme = Thm16Scheme::build(&g, 3, &params, &mut rng).unwrap();
                    let table = BallTable::build(&g, scheme.vicinity_ell());
                    out.push((format!("{family:?} {weights:?} n = {n}"), g, scheme, table));
                }
            }
        }
        out
    }

    /// `d(u, w)` for a member `w` of `B(u, ℓ)`, read from the table at `w`'s
    /// position in the settle-order ids; `None` for a non-member.
    fn table_dist(table: &BallTable, u: VertexId, w: VertexId) -> Option<Weight> {
        let ball = table.ball(u);
        ball.ids().iter().position(|&x| x == w).map(|i| ball.dists().unwrap()[i])
    }

    /// The landmark lists answer the table's `d(u, w)` for every `u` and
    /// every `w ∈ A_1`, and nothing for any other `w`; they hold 16 bytes an
    /// entry and 4 a vertex, with no growth slack.
    #[test]
    fn landmark_lists_answer_as_the_table_did() {
        for (key, g, scheme, table) in schemes_beside_their_tables() {
            let a1 = &scheme.hierarchy().levels()[1];
            let lists = &scheme.landmark_dists;
            let mut entries = 0;
            for u in g.vertices() {
                for w in g.vertices() {
                    let in_a1 = a1.binary_search(&w).is_ok();
                    let want = if in_a1 { table_dist(&table, u, w) } else { None };
                    assert_eq!(lists.landmark_dist(u, w), want, "{key}: d({u}, {w})");
                    entries += usize::from(want.is_some());
                }
            }
            assert_eq!(lists.landmark_dist(VertexId(g.n() as u32), a1[0]), None, "{key}");
            assert!(entries > 0, "{key}: no vicinity holds a landmark");
            assert_eq!(lists.entries.capacity(), entries, "{key}: entries");
            assert_eq!(lists.offsets.capacity(), g.n() + 1, "{key}: offsets");
            assert_eq!(lists.heap_bytes(), 16 * entries + 4 * (g.n() + 1), "{key}: bytes");
            assert!(scheme.balls == table.clone().into_ports(), "{key}: ports");
            let bare = BallTable::build_with_dists(&g, table.ell(), BallDists::Skip);
            let refused = LandmarkDists::new(&bare, a1);
            assert!(matches!(refused, Err(BuildError::Inconsistent { .. })), "{key}: no dists");
        }
    }

    /// `init_header` as it read the vicinity distances from the full ball
    /// table, with `table` standing in for the scheme's vicinities.
    fn reference_init_header(
        scheme: &Thm16Scheme,
        table: &BallTable,
        source: VertexId,
        v: VertexId,
    ) -> Result<Phase, RouteError> {
        if source == v || table.contains(source, v) {
            return Ok(Phase::Direct);
        }
        let clusters = scheme.hierarchy.clusters();
        if let Some(label) = clusters.label_in(source, v) {
            return Ok(Phase::Tree { root: source, label });
        }
        let mut best: Option<(Weight, Phase)> = None;
        for &((w, dwv), label) in scheme.hierarchy.ladder(v) {
            if label == TreeLabelView::ABSENT {
                continue;
            }
            let (duw, phase) = if w == source {
                (0, Phase::Tree { root: w, label })
            } else if let Some(d) = clusters.bunch_dist(source, w) {
                (d, Phase::Tree { root: w, label })
            } else if let Some(d) = table_dist(table, source, w) {
                (d, Phase::ToPivot { w, label })
            } else {
                continue;
            };
            let cost = duw.saturating_add(dwv);
            if best.as_ref().map_or(true, |&(c, _)| cost < c) {
                best = Some((cost, phase));
            }
        }
        best.map(|(_, phase)| phase).ok_or(RouteError::MissingInformation {
            at: source,
            what: format!("no pivot of {v} is reachable from {source}"),
        })
    }

    /// Every header `init_header` starts with equals the one the reference
    /// reading the ball table starts with, for every ordered pair, and some
    /// of them walk to a pivot through the vicinity.
    #[test]
    fn every_header_equals_the_one_the_ball_table_gave() {
        let mut to_pivot = 0;
        for (key, g, scheme, table) in schemes_beside_their_tables() {
            for u in g.vertices() {
                for v in g.vertices() {
                    let header = scheme.init_header(u, &scheme.label_of(v)).map(|h| h.phase);
                    let want = reference_init_header(&scheme, &table, u, v);
                    assert_eq!(header, want, "{key}: {u} -> {v}");
                    to_pivot += usize::from(matches!(header, Ok(Phase::ToPivot { .. })));
                }
            }
        }
        assert!(to_pivot > 0, "no route walks to a pivot");
    }

    #[test]
    fn thm16_rejects_bad_parameters() {
        let g = generators::cycle(12);
        let mut rng = StdRng::seed_from_u64(1);
        let err = Thm16Scheme::build(&g, 1, &Params::default(), &mut rng).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter { .. }));
        let err = Thm16Scheme::build(&g, 3, &Params::with_epsilon(0.0), &mut rng).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter { .. }));
    }

    #[test]
    fn builder_builds_scheme_named_after_its_key() {
        let g = weighted_graph(60, 36);
        let mut rng = StdRng::seed_from_u64(11);
        let scheme = Thm16Scheme::build(&g, 3, &Params::default(), &mut rng).unwrap();
        assert_eq!(scheme.name(), "thm16k3");
        let out = simulate(&g, &scheme, VertexId(0), VertexId(59)).unwrap();
        assert_eq!(out.destination(), VertexId(59));
    }
}
