//! Hitting sets (Lemma 5): given sets `S_1, ..., S_k ⊆ V` each of size at
//! least `s`, find a set `H` of size `Õ(n/s)` intersecting every `S_i`.
//!
//! [`hitting_set_greedy`] is the deterministic greedy set-cover argument
//! (Aingworth–Chekuri–Indyk–Motwani, Dor–Halperin–Zwick): repeatedly pick
//! the vertex contained in the largest number of not-yet-hit sets. Each pick
//! is in at least the average share `s/n` of the unhit sets, so at most
//! `⌈(n/s)·ln k⌉` picks hit all `k`. It draws no randomness: the hitting
//! set is a function of the input sets alone.
//!
//! The greedy keeps one count a vertex and one flag a set, and nothing a
//! set member: after a pick it finds the unhit sets that contain it by a
//! membership probe of each. [`hitting_set_of_vicinities`] probes a ball
//! table's hashed slots, one probe of about two slots a set, so hitting
//! the vicinities allocates nothing beside the table it reads.

use routing_graph::VertexId;

use crate::{BallTable, VertexSet};

/// Deterministic greedy hitting set.
///
/// `n` is the size of the universe `V = {0, ..., n-1}`; every element of the
/// given sets must be a valid vertex id. Empty input sets are ignored (they
/// cannot be hit). The sets are read in place — owned lists, or a ball
/// table's packed member ids — and a pick is looked up in each unhit set
/// by a scan of it.
pub fn hitting_set_greedy<S: VertexSet>(n: usize, sets: &[S]) -> Vec<VertexId> {
    greedy(n, sets, |i, v| sets[i].vertices().any(|x| x == v))
}

/// [`hitting_set_greedy`] over the whole vicinity `B(u, ℓ)` of every vertex
/// `u` of `balls`, the same picks: the sets are the member ids in place, and
/// a pick is looked up in `B(u, ℓ)` by one probe of `u`'s hashed slots.
pub fn hitting_set_of_vicinities(balls: &BallTable) -> Vec<VertexId> {
    let sets = balls.id_prefixes(balls.ell());
    greedy(balls.len(), &sets, |u, v| balls.contains(VertexId(u as u32), v))
}

/// The greedy: `contains(i, v)` answers whether `v` is in `sets[i]`.
fn greedy<S: VertexSet>(
    n: usize,
    sets: &[S],
    contains: impl Fn(usize, VertexId) -> bool,
) -> Vec<VertexId> {
    let mut hit: Vec<bool> = sets.iter().map(|s| s.vertices().next().is_none()).collect();
    // Count of unhit sets containing each vertex.
    let mut gain = vec![0usize; n];
    for set in sets {
        for v in set.vertices() {
            gain[v.index()] += 1;
        }
    }
    let mut remaining = hit.iter().filter(|&&h| !h).count();
    let mut result = Vec::new();
    while remaining > 0 {
        // No vertex, or none in an unhit set: cannot happen when every unhit
        // set is non-empty.
        let Some(best) = (0..n).max_by_key(|&v| (gain[v], std::cmp::Reverse(v))) else {
            break;
        };
        if gain[best] == 0 {
            break;
        }
        let best = VertexId(best as u32);
        result.push(best);
        for (set_idx, set) in sets.iter().enumerate() {
            if !hit[set_idx] && contains(set_idx, best) {
                hit[set_idx] = true;
                remaining -= 1;
                for w in set.vertices() {
                    gain[w.index()] = gain[w.index()].saturating_sub(1);
                }
            }
        }
    }
    result.sort_unstable();
    result
}

/// Returns true if `candidate` intersects every non-empty set.
///
/// The candidate is sorted once and every membership probe is a binary
/// search over that slice — no per-check hash set is materialized.
pub fn hits_all<S: VertexSet>(candidate: &[VertexId], sets: &[S]) -> bool {
    let mut lookup: Vec<VertexId> = candidate.to_vec();
    lookup.sort_unstable();
    sets.iter()
        .filter(|s| s.vertices().next().is_some())
        .all(|s| s.vertices().any(|v| lookup.binary_search(&v).is_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets_of_balls(n: usize, s: usize) -> Vec<Vec<VertexId>> {
        // Set i = {i, i+1, ..., i+s-1} mod n — every set has size s.
        (0..n)
            .map(|i| (0..s).map(|j| VertexId(((i + j) % n) as u32)).collect())
            .collect()
    }

    #[test]
    fn greedy_hits_everything_and_is_small() {
        let n = 100;
        let s = 10;
        let sets = sets_of_balls(n, s);
        let h = hitting_set_greedy(n, &sets);
        assert!(hits_all(&h, &sets));
        // Greedy is within a log factor of n/s = 10.
        assert!(h.len() <= 3 * (n / s) * ((n as f64).ln().ceil() as usize).max(1));
        // Sorted and unique.
        assert!(h.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn greedy_ignores_empty_sets() {
        let sets = vec![vec![], vec![VertexId(3)], vec![]];
        let h = hitting_set_greedy(5, &sets);
        assert_eq!(h, vec![VertexId(3)]);
    }

    #[test]
    fn greedy_with_no_sets_is_empty() {
        let h = hitting_set_greedy::<Vec<VertexId>>(10, &[]);
        assert!(h.is_empty());
    }

    #[test]
    fn hits_all_detects_misses() {
        let sets = vec![vec![VertexId(1)], vec![VertexId(2)]];
        assert!(!hits_all(&[VertexId(1)], &sets));
        assert!(hits_all(&[VertexId(1), VertexId(2)], &sets));
    }
}
