//! Pre-refactor search implementations, kept as equivalence baselines.
//!
//! The allocation-free kernel ([`crate::scratch::SearchScratch`]) replaced
//! the per-call `HashMap`/`Vec` searches this crate originally shipped. The
//! originals live on here, verbatim, for one purpose: the equivalence
//! property tests (`tests/properties.rs`) assert the new kernel is
//! **bit-identical** to them — same distances, parents, first hops and
//! member order — on random graphs.
//!
//! Nothing else should call these: they allocate three `HashMap`s per ball
//! or cluster search and four `O(n)` vectors per Dijkstra run.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::{Graph, VertexId, Weight, INFINITY};

/// The original per-call-allocating Dijkstra (four `O(n)` vectors and a
/// fresh heap per run). Returns the rows `(dist, parent, first_hop)` by
/// vertex, `INFINITY` / `None` where `v` is unreached; bit-equal to
/// [`SearchScratch::dijkstra_into`](crate::SearchScratch::dijkstra_into).
pub fn dijkstra_alloc(
    g: &Graph,
    source: VertexId,
) -> (Vec<Weight>, Vec<Option<VertexId>>, Vec<Option<VertexId>>) {
    let n = g.n();
    let mut dist = vec![INFINITY; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    let mut first_hop: Vec<Option<VertexId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(Weight, VertexId)>> = BinaryHeap::new();

    dist[source.index()] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        settled[u.index()] = true;
        for e in g.edges(u) {
            let nd = d + e.weight;
            if nd < dist[e.to.index()] {
                dist[e.to.index()] = nd;
                parent[e.to.index()] = Some(u);
                first_hop[e.to.index()] =
                    if u == source { Some(e.to) } else { first_hop[u.index()] };
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    (dist, parent, first_hop)
}

/// The original `HashMap`-backed ball search. Returns the members
/// `(v, d(u, v))` in `(distance, id)` order and each member's first hop
/// (`None` for the center); bit-equal to
/// [`SearchScratch::ball_into`](crate::SearchScratch::ball_into).
pub fn ball_hashmap(g: &Graph, u: VertexId, ell: usize) -> (Vec<(VertexId, Weight)>, Vec<Option<VertexId>>) {
    let ell = ell.max(1);
    let n = g.n();
    // lint:allow(det-hash-iter): reference impl kept for kernel identity tests; keyed lookups only, members emitted in heap settle order
    let mut dist: HashMap<VertexId, Weight> = HashMap::new();
    // lint:allow(det-hash-iter): keyed lookups only, never iterated
    let mut first_hop: HashMap<VertexId, Option<VertexId>> = HashMap::new();
    // lint:allow(det-hash-iter): keyed lookups only, never iterated
    let mut settled: HashMap<VertexId, bool> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(Weight, VertexId)>> = BinaryHeap::new();

    dist.insert(u, 0);
    first_hop.insert(u, None);
    heap.push(Reverse((0, u)));

    let mut members: Vec<(VertexId, Weight)> = Vec::with_capacity(ell.min(n));
    let mut first_hops: Vec<Option<VertexId>> = Vec::with_capacity(ell.min(n));

    while members.len() < ell {
        let Some(Reverse((d, v))) = heap.pop() else { break };
        if *settled.get(&v).unwrap_or(&false) {
            continue;
        }
        settled.insert(v, true);
        members.push((v, d));
        first_hops.push(first_hop[&v]);
        for e in g.edges(v) {
            let nd = d + e.weight;
            let better = match dist.get(&e.to) {
                Some(&old) => nd < old,
                None => true,
            };
            if better {
                dist.insert(e.to, nd);
                let fh = if v == u { Some(e.to) } else { first_hop[&v] };
                first_hop.insert(e.to, fh);
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    (members, first_hops)
}

/// The original multi-source Dijkstra. Returns the rows `(d(v, A), p_A(v))`
/// by vertex, `INFINITY` / `None` where `v` is unreached; bit-equal to
/// [`SearchScratch::multi_source_into`](crate::SearchScratch::multi_source_into)
/// on the sorted, deduplicated sources.
pub fn multi_source_alloc(g: &Graph, sources: &[VertexId]) -> (Vec<Weight>, Vec<Option<VertexId>>) {
    let n = g.n();
    let mut dist = vec![INFINITY; n];
    let mut nearest: Vec<Option<VertexId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(Weight, VertexId, VertexId)>> = BinaryHeap::new();

    let mut sorted_sources: Vec<VertexId> = sources.to_vec();
    sorted_sources.sort_unstable();
    sorted_sources.dedup();
    for &s in &sorted_sources {
        dist[s.index()] = 0;
        nearest[s.index()] = Some(s);
        heap.push(Reverse((0, s, s)));
    }
    while let Some(Reverse((d, src, u))) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        if nearest[u.index()] != Some(src) || dist[u.index()] != d {
            continue;
        }
        settled[u.index()] = true;
        for e in g.edges(u) {
            let nd = d + e.weight;
            let better = nd < dist[e.to.index()]
                || (nd == dist[e.to.index()] && Some(src) < nearest[e.to.index()]);
            if !settled[e.to.index()] && better {
                dist[e.to.index()] = nd;
                nearest[e.to.index()] = Some(src);
                heap.push(Reverse((nd, src, e.to)));
            }
        }
    }
    (dist, nearest)
}

/// The original `HashMap`-backed restricted (cluster) search: from `w`,
/// keep a vertex `v` only when `d(w, v) < bound[v]`. Returns the members
/// `(v, d(w, v))` in settle order, root first, and each member's parent
/// (`None` for the root); bit-equal to
/// [`SearchScratch::cluster_into`](crate::SearchScratch::cluster_into).
pub fn cluster_dijkstra_hashmap(
    g: &Graph,
    w: VertexId,
    bound: &[Weight],
) -> (Vec<(VertexId, Weight)>, Vec<Option<VertexId>>) {
    assert_eq!(bound.len(), g.n(), "bound slice must have one entry per vertex");
    // lint:allow(det-hash-iter): reference impl kept for kernel identity tests; keyed lookups only, members emitted in heap settle order
    let mut dist: HashMap<VertexId, Weight> = HashMap::new();
    // lint:allow(det-hash-iter): keyed lookups only, read per member, never iterated
    let mut parent: HashMap<VertexId, Option<VertexId>> = HashMap::new();
    // lint:allow(det-hash-iter): keyed lookups only, never iterated
    let mut settled: HashMap<VertexId, bool> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(Weight, VertexId)>> = BinaryHeap::new();
    let mut members = Vec::new();

    dist.insert(w, 0);
    parent.insert(w, None);
    heap.push(Reverse((0, w)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if *settled.get(&u).unwrap_or(&false) {
            continue;
        }
        settled.insert(u, true);
        members.push((u, d));
        for e in g.edges(u) {
            let nd = d + e.weight;
            if e.to != w && nd >= bound[e.to.index()] {
                continue;
            }
            let better = match dist.get(&e.to) {
                Some(&old) => nd < old,
                None => true,
            };
            if better {
                dist.insert(e.to, nd);
                parent.insert(e.to, Some(u));
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    let parents = members.iter().map(|(v, _)| parent[v]).collect();
    (members, parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, SearchScratch};

    // The real equivalence coverage lives in tests/properties.rs; this is a
    // smoke check that the reference entry points stay callable and aligned.
    #[test]
    fn reference_implementations_agree_with_the_kernel() {
        let g = generators::grid(6, 6);
        let n = g.n();
        let mut s = SearchScratch::for_graph(&g);

        s.dijkstra_into(&g, VertexId(0));
        let (dist, parent, _) = dijkstra_alloc(&g, VertexId(0));
        assert_eq!(s.dist_row(n), dist);
        assert_eq!(g.vertices().map(|v| s.parent(v)).collect::<Vec<_>>(), parent);

        s.ball_into(&g, VertexId(14), 7);
        let (members, _) = ball_hashmap(&g, VertexId(14), 7);
        assert_eq!(s.order(), members);

        let sources = [VertexId(0), VertexId(35)];
        s.multi_source_into(&g, &sources);
        let (bound, nearest) = multi_source_alloc(&g, &sources);
        assert_eq!(s.dist_row(n), bound);
        assert_eq!(g.vertices().map(|v| s.nearest(v)).collect::<Vec<_>>(), nearest);

        s.cluster_into(&g, VertexId(3), &bound);
        let (members, parents) = cluster_dijkstra_hashmap(&g, VertexId(3), &bound);
        assert_eq!(s.order(), members);
        assert_eq!(members.iter().map(|&(v, _)| s.parent(v)).collect::<Vec<_>>(), parents);
    }
}
