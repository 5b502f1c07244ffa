//! The benchmark's own copy of the graph and a textbook binary-heap
//! Dijkstra over it. No library code runs here, so no later change to the
//! repository can move it: its timing is the same-run machine-speed anchor
//! (`bench.anchor_ms`), and its distances are the ground truth the routed
//! answers are checked against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use routing_graph::Graph;

pub const UNREACHED: u64 = u64::MAX;

/// `(n, m, FNV-1a of the sorted edge list)`: identifies a generated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub n: usize,
    pub m: usize,
    pub fnv: u64,
}

/// Plain adjacency lists: `adj[u]` holds `(neighbour, weight)`.
pub struct Adjacency {
    adj: Vec<Vec<(u32, u64)>>,
}

impl Adjacency {
    pub fn from_graph(g: &Graph) -> Self {
        let adj = g.vertices().map(|u| g.edges(u).map(|e| (e.to.0, e.weight)).collect()).collect();
        Adjacency { adj }
    }

    /// Single-source distances into `dist` (lazy-deletion binary heap).
    pub fn dijkstra(&self, source: u32, dist: &mut Vec<u64>) {
        dist.clear();
        dist.resize(self.adj.len(), UNREACHED);
        let mut heap = BinaryHeap::new();
        dist[source as usize] = 0;
        heap.push(Reverse((0u64, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }

    /// Full searches per anchor unit: 8 on the large graphs, more on small
    /// ones so that a unit is long enough to time (a few milliseconds).
    pub fn anchor_sources(&self) -> usize {
        (64_000 / self.adj.len().max(1)).max(8)
    }

    /// One anchor unit: full searches from evenly spaced sources, timed,
    /// in milliseconds. The unit runs on as many threads at once as the
    /// code it is compared with keeps busy, and reads the slowest: a
    /// serving workload's time is set by its slowest shard, so a neighbour
    /// slowing one core of the host must slow its anchor too.
    pub fn anchor_ms(&self, width: usize) -> f64 {
        if width <= 1 {
            return self.searches_ms();
        }
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..width).map(|_| scope.spawn(|| self.searches_ms())).collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("the anchor does not panic"))
                .fold(0.0, f64::max)
        })
    }

    fn searches_ms(&self) -> f64 {
        let n = self.adj.len();
        let sources = self.anchor_sources();
        let mut dist = Vec::new();
        let t = Instant::now();
        let mut sum = 0u64;
        for i in 0..sources {
            self.dijkstra((i * n / sources % n) as u32, &mut dist);
            sum = sum.wrapping_add(dist[i % n]);
        }
        black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }

    pub fn fingerprint(&self) -> Fingerprint {
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for (u, list) in self.adj.iter().enumerate() {
            edges.extend(
                list.iter().filter(|&&(v, _)| (u as u32) < v).map(|&(v, w)| (u as u32, v, w)),
            );
        }
        edges.sort_unstable();
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &(u, v, w) in &edges {
            eat(&u.to_le_bytes());
            eat(&v.to_le_bytes());
            eat(&w.to_le_bytes());
        }
        Fingerprint { n: self.adj.len(), m: edges.len(), fnv }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::generators::{Family, WeightModel};
    use routing_graph::{SampledDistances, VertexId};

    fn graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        Family::ErdosRenyi.generate(200, WeightModel::Uniform { lo: 1, hi: 32 }, &mut rng)
    }

    #[test]
    fn anchor_dijkstra_agrees_with_the_library_ground_truth() {
        let g = graph(5);
        let adj = Adjacency::from_graph(&g);
        let sources = vec![VertexId(0), VertexId(57), VertexId(199)];
        let truth = SampledDistances::from_sources(&g, sources.clone());
        let mut dist = Vec::new();
        for s in sources {
            adj.dijkstra(s.0, &mut dist);
            for v in g.vertices() {
                assert_eq!(Some(dist[v.index()]), truth.dist(s, v), "{s:?}->{v:?}");
            }
        }
        assert_eq!(adj.anchor_sources(), 320);
        assert!(adj.anchor_ms(1) > 0.0 && adj.anchor_ms(2) > 0.0);
    }

    #[test]
    fn fingerprint_tracks_the_edge_list() {
        let a = Adjacency::from_graph(&graph(5)).fingerprint();
        assert_eq!(a, Adjacency::from_graph(&graph(5)).fingerprint());
        assert_eq!(a.n, 200);
        let b = Adjacency::from_graph(&graph(6)).fingerprint();
        assert_ne!(a.fnv, b.fnv);
    }
}
