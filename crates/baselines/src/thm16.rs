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
//! 2. **Source cluster** — `u` of level 0 and `v ∈ C(u)`: route on `u`'s
//!    own cluster tree, exact since `T(u)` is a shortest-path tree from
//!    `u`.
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
//! `(w, d(u, w))` for the members `w ∈ B(u, ℓ) ∩ A_1`, packed like the
//! bunches ([`vicinities`], a [`DistLists`]). Step 3 reads a
//! vicinity distance only after `v ∉ B(u, ℓ)`, and only for a pivot
//! `w = p_i(v)`: `p_0(v) = v` is then no member, and every `p_i(v)` with
//! `i ≥ 1` lies in `A_i ⊆ A_1`, so the list answers every lookup the
//! routing makes. The build samples the hierarchy's levels first (its only
//! RNG draws), then builds the ports and takes the `A_1` distances from
//! each block of balls as it is built — no ball table, with its member ids
//! and distances, ever exists — and only then finishes the hierarchy, so
//! the two builds' transients never overlap. As in the TZ scheme, a label
//! is a `Copy` handle on that ladder and a header carries a tree-label view.
//!
//! # Storage and the shortcut
//!
//! The hierarchy keeps a member's label in `T(w)` only where the `(4k−5)`
//! scheme reads it (see [`crate::tz`]): every member's at a level-0 root,
//! whose cluster Lemma 4 bounds by `4n^{1/k}`, and elsewhere only the
//! labels of the `v` with `p_i(v) = w`, which step 3 reads. Step 2 is
//! therefore taken from a level-0 source only. Nothing is lost: all any
//! analysis takes from step 2 is that, when it is not taken,
//! `d(v, A_1) ≤ d(u, v)` — for a level-0 source because `v ∉ C(u)` means
//! `d(u, v) ≥ d(v, A_1)`, and for a source `u ∈ A_1` with no shortcut,
//! since `d(u, A_1) = 0` gives `d(v, A_1) ≤ d(v, u) + d(u, A_1) = d(u, v)`.
//! Step 3's candidates include the plain TZ ladder choice, so the routed
//! weight stays within the `4k−5` of the TZ argument from that bound.

use rand::Rng;

use routing_core::{BuildError, DistLists, Params};
use routing_graph::codec::{bytes_for, Field};
use routing_graph::{Graph, PackedRows, PackedView, SlotCodec, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_vicinity::BallPorts;

use crate::tz::{ClusterLabel, TzHierarchy, TzLevels};

/// Routing phase carried in the message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The destination is in the current vertex's vicinity: pure Lemma 2
    /// forwarding.
    Direct,
    /// Walking (exactly, through the vicinity) towards pivot `w`, then
    /// finishing on `w`'s cluster tree with the carried label.
    ToPivot { w: VertexId, label: ClusterLabel },
    /// Routing on the cluster tree `T(root)` towards the destination.
    Tree { root: VertexId, label: ClusterLabel },
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
    landmark_dists: DistLists,
}

/// The vicinities Theorem 16 keeps: the Lemma 2 ports of `B(u, ℓ)` for
/// every `u`, and per vertex `u` the id-sorted `(w, d(u, w))` of every
/// `w ∈ B(u, ℓ)` in the id-sorted set `level`, a [`DistLists`]. The
/// distances are read while the balls are built
/// ([`BallPorts::build_visiting`]), a block of balls at a time, so neither
/// the member ids nor the distances of the whole table ever exist: beside
/// the ports, the build holds one block of balls, a flag and a row end a
/// vertex, and the listed pairs, a `[w, d(u, w)]` record at the id and
/// distance widths each.
///
/// # Errors
///
/// [`BuildError::TooSmall`] if the listed pairs outnumber a `u32` row end.
pub fn vicinities(
    g: &Graph,
    ell: usize,
    level: &[VertexId],
) -> Result<(BallPorts, DistLists), BuildError> {
    let n = g.n();
    let mut marked = vec![false; n];
    for &w in level {
        marked[w.index()] = true;
    }
    // Row `u` holds the pairs of `u`, in settle order.
    let codec = SlotCodec::new([bytes_for(n as u64), bytes_for(g.distance_bound().saturating_add(1))]);
    let (mut pairs, mut closed) = (PackedRows::with_capacity(codec, n, 0), Ok(()));
    let ports = BallPorts::build_visiting(g, ell, |ids, dists| {
        for (w, d) in ids.iter().zip(dists.iter()).filter(|&(w, _)| marked[w.index()]) {
            pairs.push([u64::from(w.0), d]);
        }
        closed = closed.and_then(|()| pairs.close_row());
    });
    drop(marked);
    closed?;
    let lists = DistLists::from_rows(n, |u| {
        let row = pairs.row(u.index()).into_iter().flat_map(PackedView::records::<u64>);
        Ok(row.map(|[w, d]| (VertexId(<u32 as Field>::narrow(w)), d)))
    })?;
    Ok((ports, lists))
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
        // was. The landmark lists need `A_1`; the vicinity build's
        // transients are gone before the hierarchy's arrive.
        let levels = TzLevels::sample(g, k, rng)?;
        let (balls, landmark_dists) = vicinities(g, vicinity_size(k, g.n(), params), levels.level(1))?;
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
        // v in a level-0 source's own cluster: T(source) is a shortest-path
        // tree from the source, so this hop is exact. A source in A_1 needs
        // no shortcut (see the module docs).
        let clusters = self.hierarchy.clusters();
        if self.hierarchy.keeps_every_label(source) {
            if let Some(view) = clusters.label_in(source, v) {
                routing_obs::counters::ROUTING_PHASE_TREE.inc();
                let phase = Phase::Tree { root: source, label: ClusterLabel::in_tree(view) };
                return Ok(Thm16Header { phase });
            }
        }
        // Cost every reachable pivot of v and take the cheapest; ties go to
        // the lower ladder level, reproducing plain TZ as the fallback.
        let mut best: Option<(Weight, Phase)> = None;
        for ((w, dwv), label) in self.hierarchy.ladder(v) {
            if label.is_absent() {
                continue;
            }
            let (duw, phase) = if w == source {
                (0, Phase::Tree { root: w, label })
            } else if let Some(d) = clusters.bunch_dist(source, w) {
                // u ∈ C(w) by bunch/cluster duality: T(w) already covers u.
                (d, Phase::Tree { root: w, label })
            } else if let Some(d) = self.landmark_dists.dist(source, w) {
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
                    return self.hierarchy.step(*root, at, *label);
                }
            }
        }
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.balls.words_at(v) + self.hierarchy.table_words(v)
    }

    /// `v`, its `k` pivots with distances and its `k` tree labels.
    fn label_words(&self, v: VertexId) -> usize {
        1 + self.hierarchy.ladder(v).map(|(_, label)| 2 + label.words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::codec::bytes_for;
    use routing_graph::generators::{self, WeightModel};
    use routing_graph::SLOT_PAD;
    use routing_model::simulate;
    use routing_vicinity::BallTable;

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
            let trees: usize = scheme.hierarchy().ladder(v).map(|(_, l)| l.words()).sum();
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
        ball.ids().position(w).map(|i| ball.dists().unwrap().get(i).unwrap())
    }

    /// The landmark lists read from a whole ball table with distances, as
    /// the build made them before it read the distances during the ball
    /// build: per `u`, `(w, d(u, w))` for every `w ∈ B(u, ℓ)` in `level`.
    fn landmark_lists(table: &BallTable, level: &[VertexId]) -> DistLists {
        let lists = DistLists::from_rows(table.len(), |u| {
            let ball = table.ball(u);
            let members = ball.ids().iter().zip(ball.dists().unwrap().iter());
            Ok(members.filter(|(w, _)| level.binary_search(w).is_ok()))
        });
        lists.unwrap()
    }

    /// The vicinities built with the balls, a block at a time, are
    /// byte-identical to the ports of `BallTable::build` and the landmark
    /// lists read from that table: on every family, unit and weighted, with
    /// 2-byte ids (n = 300) and 3-byte ids (n = 65,600), at 1, 2 and 4
    /// threads, for a level that holds some ball centres and not others.
    #[test]
    fn vicinities_equal_the_ball_table_and_its_landmark_lists() {
        use generators::Family;
        let mut graphs = Vec::new();
        for family in Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                let g = family.generate(300, weights, &mut StdRng::seed_from_u64(3));
                graphs.push((format!("{} {weights:?}", family.name()), g, 23, 2));
            }
        }
        let weighted = WeightModel::Uniform { lo: 1, hi: 9 };
        let wide = Family::Grid.generate(65_600, weighted, &mut StdRng::seed_from_u64(5));
        graphs.push(("grid, 3-byte ids".into(), wide, 9, 3));
        graphs.push(("path, 3-byte ids".into(), generators::path(65_600), 9, 3));
        for (key, g, ell, id_bytes) in graphs {
            let level: Vec<VertexId> = g.vertices().filter(|v| v.0 % 7 == 3).collect();
            let table = BallTable::build(&g, ell);
            let want_lists = landmark_lists(&table, &level);
            let want_ports = table.into_ports();
            assert_eq!(bytes_for(g.n() as u64), id_bytes, "{key}: n = {}", g.n());
            assert!(!want_lists.is_empty(), "{key}: no vicinity holds a level member");
            for threads in [1, 2, 4] {
                routing_par::set_threads(threads);
                let (ports, lists) = vicinities(&g, ell, &level).unwrap();
                assert!(ports == want_ports, "{key}, {threads} threads: ports");
                assert_eq!(ports.heap_bytes(), want_ports.heap_bytes(), "{key}, {threads} threads");
                assert!(lists == want_lists, "{key}, {threads} threads: lists");
                assert_eq!(lists.heap_bytes(), want_lists.heap_bytes(), "{key}, {threads} threads");
            }
        }
        routing_par::set_threads(routing_par::available_threads());
    }

    /// The landmark lists answer the table's `d(u, w)` for every `u` and
    /// every `w ∈ A_1`, and nothing for any other `w`; they hold an entry at
    /// the id width plus the bytes the largest listed distance needs, and 4
    /// bytes a vertex, with no growth slack.
    #[test]
    fn landmark_lists_answer_as_the_table_did() {
        for (key, g, scheme, table) in schemes_beside_their_tables() {
            let h = scheme.hierarchy();
            let a1: Vec<VertexId> = g.vertices().filter(|&v| h.level_of(v) >= 1).collect();
            let lists = &scheme.landmark_dists;
            let (mut entries, mut far) = (0, 0);
            for u in g.vertices() {
                for w in g.vertices() {
                    let in_a1 = a1.binary_search(&w).is_ok();
                    let want = if in_a1 { table_dist(&table, u, w) } else { None };
                    assert_eq!(lists.dist(u, w), want, "{key}: d({u}, {w})");
                    entries += usize::from(want.is_some());
                    far = far.max(want.unwrap_or(0));
                }
                let row: Vec<_> = lists.row(u).collect();
                assert!(row.windows(2).all(|p| p[0].0 < p[1].0), "{key}: row of {u} is id-sorted");
            }
            assert_eq!(lists.dist(VertexId(g.n() as u32), a1[0]), None, "{key}");
            assert!(entries > 0, "{key}: no vicinity holds a landmark");
            assert_eq!(lists.len(), entries, "{key}: entries");
            let entry = usize::from(bytes_for(g.n() as u64) + bytes_for(far + 1));
            assert_eq!(lists.entry_bytes(), entry, "{key}: entry bytes");
            assert_eq!(lists.heap_bytes(), entry * entries + SLOT_PAD + 4 * g.n(), "{key}: bytes");
            assert!(scheme.balls == table.clone().into_ports(), "{key}: ports");
            assert!(*lists == landmark_lists(&table, &a1), "{key}: the lists the table gives");
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
        if scheme.hierarchy.level_of(source) == 0 {
            if let Some(view) = clusters.label_in(source, v) {
                return Ok(Phase::Tree { root: source, label: ClusterLabel::in_tree(view) });
            }
        }
        let mut best: Option<(Weight, Phase)> = None;
        for ((w, dwv), label) in scheme.hierarchy.ladder(v) {
            if label.is_absent() {
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
