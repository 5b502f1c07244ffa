//! Seeded synthetic graph generators used by the experiment harness.
//!
//! The paper proves worst-case bounds over *all* undirected graphs; it has no
//! dataset. The harness therefore evaluates the schemes on standard synthetic
//! families (sparse random graphs, geometric graphs, grids, scale-free
//! graphs) that exercise different distance structure: expander-like
//! distances, strong locality, large diameter, and skewed degrees.
//!
//! Every generator is deterministic given the `rng` passed in, and returns a
//! connected graph (the random families add a uniform spanning backbone if
//! sampling left the graph disconnected).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphBuilder, Weight};

/// How edge weights are assigned by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightModel {
    /// Every edge has weight 1 (the paper's "unweighted" setting).
    Unit,
    /// Weights drawn uniformly from `lo..=hi` (both at least 1). The ratio
    /// `hi / lo` controls the normalized diameter `D` of the instance.
    Uniform {
        /// Smallest possible weight (>= 1).
        lo: Weight,
        /// Largest possible weight (>= lo).
        hi: Weight,
    },
}

impl WeightModel {
    fn sample<R: Rng>(self, rng: &mut R) -> Weight {
        match self {
            WeightModel::Unit => 1,
            WeightModel::Uniform { lo, hi } => {
                let lo = lo.max(1);
                let hi = hi.max(lo);
                rng.gen_range(lo..=hi)
            }
        }
    }
}

/// Adds the edge `(u, v)` of weight `w` to `b`: the one panic of the
/// generators, which add only edges between distinct vertices of the graph
/// at a positive weight.
fn add(b: &mut GraphBuilder, u: usize, v: usize, w: Weight) {
    b.add_edge(u, v, w).expect("a generator adds only valid edges");
}

/// The undirected pair `{u, v}` as one sortable key.
fn pair_key(u: u32, v: u32) -> u64 {
    (u64::from(u.min(v)) << 32) | u64::from(u.max(v))
}

/// `b`'s graph, made connected: a random spanning path over a shuffled
/// order is added, each of its edges unless the sampled edges hold it. A
/// path over a permutation never repeats one of its own pairs, so the
/// sampled pairs, sorted once and binary-searched, are all it is checked
/// against: linear in the edges up to a log factor.
fn with_backbone<R: Rng>(mut b: GraphBuilder, weights: WeightModel, rng: &mut R) -> Graph {
    let n = b.n();
    if n < 2 {
        return b.build();
    }
    let mut sampled: Vec<u64> = b.added().iter().map(|&(u, v, _)| pair_key(u, v)).collect();
    sampled.sort_unstable();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for w in order.windows(2) {
        if sampled.binary_search(&pair_key(w[0] as u32, w[1] as u32)).is_err() {
            let weight = weights.sample(rng);
            add(&mut b, w[0], w[1], weight);
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` graph, made connected with a random backbone.
pub fn erdos_renyi<R: Rng>(n: usize, p: f64, weights: WeightModel, rng: &mut R) -> Graph {
    with_backbone(erdos_renyi_edges(n, p, weights, rng), weights, rng)
}

/// The sampled edges of [`erdos_renyi`]: every pair with probability `p`.
fn erdos_renyi_edges<R: Rng>(n: usize, p: f64, weights: WeightModel, rng: &mut R) -> GraphBuilder {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                add(&mut b, u, v, weights.sample(rng));
            }
        }
    }
    b
}

/// Sparse Erdős–Rényi graph with expected average degree `avg_degree`.
pub fn erdos_renyi_avg_degree<R: Rng>(
    n: usize,
    avg_degree: f64,
    weights: WeightModel,
    rng: &mut R,
) -> Graph {
    let p = if n > 1 { (avg_degree / (n as f64 - 1.0)).min(1.0) } else { 0.0 };
    erdos_renyi(n, p, weights, rng)
}

/// Random geometric graph: `n` points in the unit square, edge iff Euclidean
/// distance is below `radius`. Made connected with a random backbone.
pub fn random_geometric<R: Rng>(n: usize, radius: f64, weights: WeightModel, rng: &mut R) -> Graph {
    with_backbone(geometric_edges(n, radius, weights, rng), weights, rng)
}

/// The sampled edges of [`random_geometric`]: every pair of points within
/// `radius`.
fn geometric_edges<R: Rng>(n: usize, radius: f64, weights: WeightModel, rng: &mut R) -> GraphBuilder {
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                add(&mut b, u, v, weights.sample(rng));
            }
        }
    }
    b
}

/// Barabási–Albert preferential-attachment graph with `attach` edges per new
/// vertex. Produces skewed degree distributions (hub-and-spoke structure).
pub fn barabasi_albert<R: Rng>(n: usize, attach: usize, weights: WeightModel, rng: &mut R) -> Graph {
    with_backbone(barabasi_albert_edges(n, attach, weights, rng), weights, rng)
}

/// The sampled edges of [`barabasi_albert`]: a clique of `attach + 1`,
/// then `attach` degree-proportional targets a vertex.
fn barabasi_albert_edges<R: Rng>(n: usize, attach: usize, weights: WeightModel, rng: &mut R) -> GraphBuilder {
    let attach = attach.max(1);
    let mut b = GraphBuilder::new(n);
    if n <= 1 {
        return b;
    }
    let seed = (attach + 1).min(n);
    // Start from a small clique.
    for u in 0..seed {
        for v in (u + 1)..seed {
            add(&mut b, u, v, weights.sample(rng));
        }
    }
    // Degree-proportional attachment via a repeated-endpoint pool.
    let mut pool: Vec<usize> = Vec::new();
    for u in 0..seed {
        for v in (u + 1)..seed {
            pool.push(u);
            pool.push(v);
        }
    }
    // Targets stay in sampling order: the weight draws and pool pushes below
    // follow it, so the graph is a function of the seed alone.
    let mut targets: Vec<usize> = Vec::with_capacity(attach);
    for v in seed..n {
        targets.clear();
        let mut guard = 0;
        while targets.len() < attach.min(v) && guard < 50 * attach {
            let t = pool[rng.gen_range(0..pool.len())];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
        }
        for &t in &targets {
            add(&mut b, v, t, weights.sample(rng));
            pool.push(v);
            pool.push(t);
        }
    }
    b
}

/// Two-dimensional grid graph with `rows * cols` vertices and unit weights.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                add(&mut b, id(r, c), id(r, c + 1), 1);
            }
            if r + 1 < rows {
                add(&mut b, id(r, c), id(r + 1, c), 1);
            }
        }
    }
    b.build()
}

/// Two-dimensional torus (grid with wraparound) with unit weights.
pub fn torus(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if cols > 1 {
                add(&mut b, id(r, c), id(r, (c + 1) % cols), 1);
            }
            if rows > 1 {
                add(&mut b, id(r, c), id((r + 1) % rows, c), 1);
            }
        }
    }
    b.build()
}

/// Path graph `0 - 1 - ... - (n-1)` with unit weights.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        add(&mut b, i - 1, i, 1);
    }
    b.build()
}

/// Cycle graph with unit weights.
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        add(&mut b, i - 1, i, 1);
    }
    if n > 2 {
        add(&mut b, n - 1, 0, 1);
    }
    b.build()
}

/// Complete graph with unit weights.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            add(&mut b, u, v, 1);
        }
    }
    b.build()
}

/// Star graph: vertex 0 connected to all others, unit weights.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        add(&mut b, 0, v, 1);
    }
    b.build()
}

/// Complete binary tree on `n` vertices (vertex `i` has children `2i+1`,
/// `2i+2`), unit weights.
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        add(&mut b, v, (v - 1) / 2, 1);
    }
    b.build()
}

/// Uniform random spanning tree over a shuffled vertex order (each new vertex
/// attaches to a uniformly random earlier vertex).
pub fn random_tree<R: Rng>(n: usize, weights: WeightModel, rng: &mut R) -> Graph {
    let mut b = GraphBuilder::new(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        add(&mut b, order[i], parent, weights.sample(rng));
    }
    b.build()
}

/// Caterpillar: a spine path of length `spine` with `legs` pendant leaves per
/// spine vertex, unit weights. Stresses tree routing with high degrees.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n.max(1));
    for i in 1..spine {
        add(&mut b, i - 1, i, 1);
    }
    for s in 0..spine {
        for l in 0..legs {
            add(&mut b, s, spine + s * legs + l, 1);
        }
    }
    b.build()
}

/// The named graph families the experiment harness sweeps over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Family {
    /// Sparse Erdős–Rényi with average degree ~8.
    #[default]
    ErdosRenyi,
    /// Random geometric graph (strong distance locality).
    Geometric,
    /// 2D grid (large diameter).
    Grid,
    /// Barabási–Albert scale-free graph (skewed degrees).
    ScaleFree,
}

impl Family {
    /// All families, in the order the harness reports them.
    pub const ALL: [Family; 4] = [Family::ErdosRenyi, Family::Geometric, Family::Grid, Family::ScaleFree];

    /// Short name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            Family::ErdosRenyi => "erdos-renyi",
            Family::Geometric => "geometric",
            Family::Grid => "grid",
            Family::ScaleFree => "scale-free",
        }
    }

    /// Generates an `n`-vertex instance of this family.
    pub fn generate<R: Rng>(self, n: usize, weights: WeightModel, rng: &mut R) -> Graph {
        match self {
            Family::ErdosRenyi => erdos_renyi_avg_degree(n, 8.0, weights, rng),
            Family::Geometric => {
                // Radius chosen to give expected degree around 8.
                let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
                random_geometric(n, r, weights, rng)
            }
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(1.0) as usize;
                grid(side, side)
            }
            Family::ScaleFree => barabasi_albert(n, 4, weights, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn erdos_renyi_is_connected_and_seeded() {
        let g1 = erdos_renyi(60, 0.05, WeightModel::Unit, &mut rng());
        let g2 = erdos_renyi(60, 0.05, WeightModel::Unit, &mut rng());
        assert!(g1.is_connected());
        assert_eq!(g1, g2, "same seed must give the same graph");
    }

    #[test]
    fn weighted_model_respects_range() {
        let g = erdos_renyi(40, 0.1, WeightModel::Uniform { lo: 5, hi: 9 }, &mut rng());
        let (lo, hi) = g.weight_range().unwrap();
        assert!(lo >= 5 && hi <= 9);
        assert!(!g.is_unweighted());
    }

    #[test]
    fn geometric_is_connected() {
        let g = random_geometric(80, 0.15, WeightModel::Unit, &mut rng());
        assert!(g.is_connected());
        assert_eq!(g.n(), 80);
    }

    #[test]
    fn barabasi_albert_has_hubs() {
        let g = barabasi_albert(200, 3, WeightModel::Unit, &mut rng());
        assert!(g.is_connected());
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        let avg_deg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(max_deg as f64 > 2.0 * avg_deg, "scale-free graph should have hubs");
    }

    #[test]
    fn barabasi_albert_is_seeded() {
        // Weighted, so the per-edge weight draws follow the target order too.
        let weights = WeightModel::Uniform { lo: 1, hi: 9 };
        let g1 = barabasi_albert(300, 4, weights, &mut rng());
        let g2 = barabasi_albert(300, 4, weights, &mut rng());
        assert_eq!(g1, g2, "same seed must give the same graph");
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 3 * 5);
        assert!(g.is_connected());
        let t = torus(4, 5);
        assert_eq!(t.n(), 20);
        assert_eq!(t.m(), 2 * 20);
        assert!(t.is_connected());
    }

    #[test]
    fn classic_families() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(cycle(2).m(), 1);
        assert_eq!(complete(6).m(), 15);
        assert_eq!(star(7).m(), 6);
        let bt = binary_tree(7);
        assert_eq!(bt.m(), 6);
        assert!(bt.is_connected());
    }

    #[test]
    fn random_tree_is_spanning_tree() {
        let g = random_tree(50, WeightModel::Unit, &mut rng());
        assert_eq!(g.m(), 49);
        assert!(g.is_connected());
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 + 15);
        assert!(g.is_connected());
        assert_eq!(g.degree(crate::VertexId(0)), 4);
    }

    #[test]
    fn family_generators_produce_connected_graphs() {
        for family in Family::ALL {
            let g = family.generate(120, WeightModel::Unit, &mut rng());
            assert!(g.is_connected(), "{} not connected", family.name());
            assert!(g.n() >= 100, "{} too small", family.name());
            assert!(!family.name().is_empty());
        }
    }

    /// The backbone as it was added before the sorted pair list: each edge
    /// of the shuffled path unless a scan of every edge added so far finds
    /// it.
    fn scanned_backbone<R: Rng>(mut b: GraphBuilder, weights: WeightModel, rng: &mut R) -> Graph {
        let n = b.n();
        if n >= 2 {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            for w in order.windows(2) {
                let (a, c) = (w[0] as u32, w[1] as u32);
                if !b.added().iter().any(|&(x, y, _)| (x == a && y == c) || (x == c && y == a)) {
                    let weight = weights.sample(rng);
                    b.add_edge(w[0], w[1], weight).unwrap();
                }
            }
        }
        b.build()
    }

    /// Every family draws the graph the edge scan drew from the same seed,
    /// unit and weighted, at the smallest sizes and past a few thousand
    /// vertices: the same sampled edges, then the same backbone — the grid
    /// has none.
    #[test]
    fn backbones_equal_the_ones_the_edge_scan_added() {
        for n in [2, 3, 500, 3000] {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 32 }] {
                for family in Family::ALL {
                    let seed = StdRng::seed_from_u64(n as u64);
                    let (mut new, mut old) = (seed.clone(), seed);
                    let scanned = match family {
                        Family::ErdosRenyi => {
                            let p = (8.0 / (n as f64 - 1.0)).min(1.0);
                            scanned_backbone(erdos_renyi_edges(n, p, weights, &mut old), weights, &mut old)
                        }
                        Family::Geometric => {
                            let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
                            scanned_backbone(geometric_edges(n, r, weights, &mut old), weights, &mut old)
                        }
                        Family::ScaleFree => {
                            scanned_backbone(barabasi_albert_edges(n, 4, weights, &mut old), weights, &mut old)
                        }
                        Family::Grid => family.generate(n, weights, &mut old),
                    };
                    let g = family.generate(n, weights, &mut new);
                    assert_eq!(g, scanned, "{} {weights:?} n = {n}", family.name());
                    assert!(g.is_connected(), "{} {weights:?} n = {n}", family.name());
                }
            }
        }
    }
}
