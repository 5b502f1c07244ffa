//! The flat [`TreeScheme`] kernel held against the construction it
//! replaced.
//!
//! `RefTree::from_parents` below is the pre-flat-layout build, verbatim
//! (seven `HashMap`s, one root walk per label); only its return value
//! changed, to the two maps it used to store. Every member's
//! [`TreeNodeInfo`] and [`TreeLabel`] must be equal, on spanning
//! shortest-path trees and restricted cluster trees alike.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_graph::generators::{self, WeightModel};
use routing_graph::{Graph, Port, SearchScratch, VertexId, Weight, INFINITY};
use routing_model::{simulate, RouteError, RoutingScheme};
use routing_tree::{TreeBuildError, TreeLabel, TreeNodeInfo, TreeScheme};

/// A node as the HashMap construction stored it, before the node record
/// traded its `Option`s for sentinel ports.
#[derive(Debug, PartialEq)]
struct RefNode {
    tin: u32,
    tout: u32,
    parent_port: Option<Port>,
    heavy: Option<(u32, u32, Port)>,
}

impl RefNode {
    /// What a flat tree's record reads back as, through its accessors.
    fn of(node: &TreeNodeInfo) -> Self {
        RefNode {
            tin: node.tin(),
            tout: node.tout(),
            parent_port: node.parent_port(),
            heavy: node.heavy(),
        }
    }

    fn words(&self) -> usize {
        2 + usize::from(self.parent_port.is_some()) + if self.heavy.is_some() { 3 } else { 0 }
    }
}

/// What the HashMap construction stored per tree.
struct RefTree {
    nodes: HashMap<VertexId, RefNode>,
    labels: HashMap<VertexId, TreeLabel>,
}

impl RefTree {
    pub fn from_parents(
        g: &Graph,
        root: VertexId,
        // lint:allow(det-hash-iter): iterated only to populate per-child entries of `children`, whose lists are sorted before any order-sensitive use
        parents: &HashMap<VertexId, VertexId>,
    ) -> Result<Self, TreeBuildError> {
        if parents.contains_key(&root) {
            return Err(TreeBuildError::NotATree { what: format!("root {root} has a parent") });
        }
        // children lists
        // lint:allow(det-hash-iter): every kids list is sort_unstable()d below, and per-key work in later iterations is order-independent
        let mut children: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        children.entry(root).or_default();
        for (&c, &p) in parents {
            if g.port_to(p, c).is_none() {
                return Err(TreeBuildError::MissingEdge { child: c, parent: p });
            }
            children.entry(p).or_default();
            children.entry(c).or_default();
            children.get_mut(&p).expect("just inserted").push(c);
        }
        for kids in children.values_mut() {
            kids.sort_unstable();
        }
        let tree_size = parents.len() + 1;
        if children.len() != tree_size {
            return Err(TreeBuildError::NotATree {
                what: format!("{} vertices reachable but {} declared", children.len(), tree_size),
            });
        }

        // Iterative DFS computing tin/tout and subtree sizes.
        // lint:allow(det-hash-iter): keyed lookups only; DFS visit order is fixed by the sorted children lists, so every tin value is deterministic
        let mut tin: HashMap<VertexId, u32> = HashMap::new();
        // lint:allow(det-hash-iter): keyed lookups only, deterministic values (see tin)
        let mut tout: HashMap<VertexId, u32> = HashMap::new();
        // lint:allow(det-hash-iter): keyed lookups only, deterministic values (see tin)
        let mut size: HashMap<VertexId, u32> = HashMap::new();
        let mut clock = 0u32;
        let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
        tin.insert(root, clock);
        clock += 1;
        loop {
            let (v, idx) = match stack.last() {
                Some(&top) => top,
                None => break,
            };
            let kids = &children[&v];
            if idx < kids.len() {
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let c = kids[idx];
                if tin.contains_key(&c) {
                    return Err(TreeBuildError::NotATree {
                        what: format!("vertex {c} visited twice (cycle)"),
                    });
                }
                tin.insert(c, clock);
                clock += 1;
                stack.push((c, 0));
            } else {
                tout.insert(v, clock);
                let s = 1 + kids.iter().map(|c| size.get(c).copied().unwrap_or(0)).sum::<u32>();
                size.insert(v, s);
                stack.pop();
            }
        }
        if tin.len() != tree_size {
            return Err(TreeBuildError::NotATree {
                what: "some declared vertices are not reachable from the root".into(),
            });
        }

        // Node info: parent port + heavy child.
        // lint:allow(det-hash-iter): filled per key from deterministic inputs; visit order of the fill loop cannot affect any entry
        let mut nodes: HashMap<VertexId, RefNode> = HashMap::new();
        for (&v, kids) in &children {
            let parent_port = parents
                .get(&v)
                .map(|&p| g.port_to(v, p).expect("parent edge checked above"));
            let heavy = kids
                .iter()
                .max_by_key(|&&c| (size[&c], std::cmp::Reverse(c)))
                .map(|&c| {
                    let port = g.port_to(v, c).expect("child edge checked above");
                    (tin[&c], tout[&c], port)
                });
            nodes.insert(v, RefNode { tin: tin[&v], tout: tout[&v], parent_port, heavy });
        }

        // Labels: walk from each vertex up to the root collecting light edges.
        // lint:allow(det-hash-iter): filled per key from deterministic inputs; visit order of the fill loop cannot affect any entry
        let mut labels: HashMap<VertexId, TreeLabel> = HashMap::new();
        for &v in children.keys() {
            let mut light_rev: Vec<(u32, Port)> = Vec::new();
            let mut cur = v;
            while let Some(&p) = parents.get(&cur) {
                let heavy_child_tin = nodes[&p].heavy.map(|(h_tin, _, _)| h_tin);
                if heavy_child_tin != Some(tin[&cur]) {
                    let port = g.port_to(p, cur).expect("parent edge checked above");
                    light_rev.push((tin[&p], port));
                }
                cur = p;
            }
            light_rev.reverse();
            labels.insert(v, TreeLabel { tin: tin[&v], light_ports: light_rev });
        }

        Ok(RefTree { nodes, labels })
    }

    /// The settled vertices of the last search on `scratch`, as the old
    /// `from_scratch` collected them.
    fn from_scratch(g: &Graph, scratch: &SearchScratch) -> Result<Self, TreeBuildError> {
        let mut parents = HashMap::with_capacity(scratch.order().len());
        for &(v, _) in scratch.order() {
            if let Some(p) = scratch.parent(v) {
                parents.insert(v, p);
            }
        }
        Self::from_parents(g, scratch.source().expect("a single-origin search"), &parents)
    }
}

/// Every observable of `flat` equals the reference: member set, node infos,
/// labels, word counts; non-members answer `None` / zero words.
fn assert_same_tree(g: &Graph, flat: &TreeScheme, reference: &RefTree) {
    assert_eq!(flat.len(), reference.nodes.len());
    let mut members: Vec<VertexId> = reference.nodes.keys().copied().collect();
    members.sort_unstable();
    assert_eq!(flat.vertices().collect::<Vec<_>>(), members, "vertices() is id-ascending");
    let mut labels_words = 0;
    for v in g.vertices() {
        assert_eq!(flat.node_info(v).map(RefNode::of).as_ref(), reference.nodes.get(&v), "node info of {v}");
        assert_eq!(flat.label(v).as_ref(), reference.labels.get(&v), "label of {v}");
        assert_eq!(flat.contains(v), reference.nodes.contains_key(&v));
        assert_eq!(flat.table_words(v), reference.nodes.get(&v).map_or(0, RefNode::words));
        if let Some(node) = flat.node_info(v) {
            assert_eq!(node.words(), RefNode::of(node).words(), "words of {v}");
        }
        assert_eq!(flat.label_words(v), reference.labels.get(&v).map_or(0, TreeLabel::words));
        labels_words += flat.label_words(v);
    }
    assert_eq!(flat.labels_words(), labels_words);
}

/// Spanning trees from every `stride`-th root and restricted cluster trees
/// under the distance-to-sample bound.
fn check_graph(g: &Graph, stride: usize) {
    let mut scratch = SearchScratch::for_graph(g);
    let sample: Vec<VertexId> = g.vertices().step_by(stride.max(2)).collect();
    scratch.multi_source_into(g, &sample);
    let bound: Vec<Weight> = scratch.dist_row(g.n());

    for root in g.vertices().step_by(stride) {
        scratch.dijkstra_into(g, root);
        let reference = RefTree::from_scratch(g, &scratch).unwrap();
        assert_same_tree(g, &TreeScheme::from_scratch(g, &scratch).unwrap(), &reference);

        scratch.cluster_into(g, root, &bound);
        let reference = RefTree::from_scratch(g, &scratch).unwrap();
        assert_same_tree(g, &TreeScheme::from_scratch(g, &scratch).unwrap(), &reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Erdős–Rényi: unweighted, weighted, and narrow weight ranges that make
    /// equal-length paths (and equal subtree sizes) common.
    #[test]
    fn flat_kernel_matches_reference_on_er(n in 2usize..90, seed in 1u64..1_000, hi in 1u64..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = if hi == 1 { WeightModel::Unit } else { WeightModel::Uniform { lo: 1, hi } };
        let g = generators::erdos_renyi(n, 6.0 / n as f64, weights, &mut rng);
        check_graph(&g, 1 + n / 8);
    }

    /// Random geometric graphs: long, thin shortest-path trees.
    #[test]
    fn flat_kernel_matches_reference_on_geometric(n in 20usize..90, seed in 1u64..1_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = WeightModel::Uniform { lo: 1, hi: 32 };
        let g = generators::random_geometric(n, 0.2, weights, &mut rng);
        check_graph(&g, 1 + n / 8);
    }
}

#[test]
fn flat_kernel_matches_reference_on_fixed_shapes() {
    let mut rng = StdRng::seed_from_u64(3);
    for g in [
        generators::path(1),
        generators::path(2),
        generators::path(17),
        generators::star(9),
        generators::caterpillar(7, 5),
        generators::binary_tree(31),
        generators::grid(5, 6),
        generators::complete(6),
        generators::random_tree(40, WeightModel::Unit, &mut rng),
    ] {
        check_graph(&g, 1);
    }
}

/// Where a packed field's width flips: the hub's ports on `star(256)` (one
/// byte) and `star(257)` (two), times on paths of 254 vertices (one byte)
/// and 255 and 256 (two, the root's exit time being `n`).
#[test]
fn flat_kernel_matches_reference_where_a_width_flips() {
    for n in [256, 257] {
        check_graph(&generators::star(n), 64);
    }
    for n in [254, 255, 256] {
        check_graph(&generators::path(n), 64);
    }
}

#[test]
fn single_vertex_tree_of_a_larger_graph() {
    let g = generators::path(5);
    let t = TreeScheme::from_parents(&g, VertexId(3), []).unwrap();
    assert_same_tree(&g, &t, &RefTree::from_parents(&g, VertexId(3), &HashMap::new()).unwrap());
    assert!(t.is_empty());
    assert_eq!(t.label(VertexId(3)), Some(TreeLabel { tin: 0, light_ports: Vec::new() }));
    assert_eq!(simulate(&g, &t, VertexId(3), VertexId(3)).unwrap().hops, 0);
}

/// The three build errors surface from the flat kernel wherever the
/// reference raised them.
#[test]
fn build_errors_match_the_reference() {
    let g = generators::cycle(6);
    let v = VertexId;
    let cases: [(&str, Vec<(VertexId, VertexId)>); 5] = [
        ("missing edge", vec![(v(1), v(0)), (v(3), v(0))]),
        ("root has a parent", vec![(v(0), v(1))]),
        ("cycle beside the root", vec![(v(1), v(0)), (v(3), v(4)), (v(4), v(3))]),
        ("parent is not a member", vec![(v(1), v(0)), (v(3), v(2))]),
        (
            "spanning count, but a cycle",
            vec![(v(1), v(2)), (v(2), v(3)), (v(3), v(4)), (v(4), v(5)), (v(5), v(4))],
        ),
    ];
    for (what, pairs) in cases {
        let flat = TreeScheme::from_parents(&g, v(0), pairs.iter().copied()).unwrap_err();
        let map: HashMap<VertexId, VertexId> = pairs.iter().copied().collect();
        let reference = RefTree::from_parents(&g, v(0), &map).err().expect(what);
        assert_eq!(
            std::mem::discriminant(&flat),
            std::mem::discriminant(&reference),
            "{what}: {flat} vs {reference}"
        );
        if let TreeBuildError::MissingEdge { .. } = reference {
            assert_eq!(flat, reference, "{what}");
        }
    }
    // Only a pair list can say this; a map cannot hold two parents.
    let twice = [(v(1), v(0)), (v(1), v(2)), (v(2), v(3))];
    assert!(matches!(
        TreeScheme::from_parents(&g, v(0), twice),
        Err(TreeBuildError::NotATree { .. })
    ));
    // Ids outside the host graph are a missing edge, not a panic.
    assert!(matches!(
        TreeScheme::from_parents(&g, v(0), [(v(9), v(0))]),
        Err(TreeBuildError::MissingEdge { .. })
    ));
}

#[test]
fn non_members_have_no_info_and_cannot_be_routed() {
    let g = generators::grid(4, 4);
    let bound: Vec<Weight> =
        g.vertices().map(|x| if x.index() < 8 { INFINITY } else { 0 }).collect();
    let mut scratch = SearchScratch::for_graph(&g);
    scratch.cluster_into(&g, VertexId(0), &bound);
    let t = TreeScheme::from_scratch(&g, &scratch).unwrap();
    assert_eq!(t.len(), 8);
    let outside = VertexId(12);
    assert!(!t.contains(outside));
    assert_eq!(t.node_info(outside), None);
    assert_eq!(t.label(outside), None);
    assert_eq!((t.table_words(outside), t.label_words(outside)), (0, 0));
    let inside = t.label(VertexId(5)).unwrap();
    assert!(matches!(
        t.step(outside, &inside),
        Err(RouteError::MissingInformation { at, .. }) if at == outside
    ));
    assert!(matches!(simulate(&g, &t, VertexId(0), outside), Err(RouteError::BadLabel { .. })));
    assert!(matches!(
        simulate(&g, &t, outside, VertexId(0)),
        Err(RouteError::MissingInformation { .. })
    ));
    // A label from another tree points outside this one: the root has no
    // parent port to send it to, and the error names the root, not the
    // sentinel `tree_route_step` reports.
    let foreign = TreeLabel { tin: 1000, light_ports: vec![(99, Port(0))] };
    assert!(matches!(
        t.step(t.root(), &foreign),
        Err(RouteError::MissingInformation { at, .. }) if at == t.root()
    ));
}
