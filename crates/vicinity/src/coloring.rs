//! The coloring of Lemma 6 (Abraham–Gavoille–Malkhi–Nisan–Thorup): a
//! `q`-coloring of `V` such that
//!
//! 1. every given set `S_i` (of size at least `α·q·log n`) contains a vertex
//!    of every color, and
//! 2. every color class has `O(n/q)` vertices.
//!
//! The paper argues that a uniformly random coloring satisfies both
//! requirements with high probability. At the small `n` of the experiments
//! the constants matter, so the construction here validates the random
//! coloring and, if some set misses some color, runs a bounded repair loop
//! (recolor a vertex whose color is over-represented inside the deficient
//! set) before giving up. The harness's ablation experiment compares repair
//! on/off.

use std::error::Error;
use std::fmt;

use rand::Rng;

use routing_graph::VertexId;

use crate::VertexSet;

/// Failure to build a Lemma 6 coloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringError {
    /// Index of a set that misses at least one color after all retries.
    pub set_index: usize,
    /// A color that the set misses.
    pub missing_color: u32,
}

impl fmt::Display for ColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coloring failed: set {} contains no vertex of color {} (sets may be smaller than q log n)",
            self.set_index, self.missing_color
        )
    }
}

impl Error for ColoringError {}

/// A `q`-coloring of the vertex set.
#[derive(Debug, Clone)]
pub struct Coloring {
    q: u32,
    colors: Vec<u32>,
}

impl Coloring {
    /// Builds a uniformly random `q`-coloring (no validation).
    pub fn random<R: Rng>(n: usize, q: u32, rng: &mut R) -> Self {
        let q = q.max(1);
        let colors = (0..n).map(|_| rng.gen_range(0..q)).collect();
        Coloring { q, colors }
    }

    /// Builds a coloring satisfying Lemma 6 with respect to `sets`:
    /// every set must end up containing every color. The sets are read in
    /// place — owned lists, or a ball table's packed member ids.
    ///
    /// Strategy: sample a random coloring; if validation fails, retry up to
    /// `retries` times; on the last attempt run a repair pass that recolors
    /// over-represented vertices inside deficient sets.
    ///
    /// # Errors
    ///
    /// Returns [`ColoringError`] if even the repaired coloring leaves some
    /// set without some color — which can only happen when some set has
    /// fewer than `q` vertices.
    pub fn build_for_sets<S: VertexSet, R: Rng>(
        n: usize,
        q: u32,
        sets: &[S],
        retries: usize,
        rng: &mut R,
    ) -> Result<Self, ColoringError> {
        let q = q.max(1);
        let mut last = None;
        for _ in 0..retries.max(1) {
            let c = Coloring::random(n, q, rng);
            if c.first_violation(sets).is_none() {
                return Ok(c);
            }
            last = Some(c);
        }
        let mut c = last.unwrap_or_else(|| Coloring::random(n, q, rng));
        c.repair(sets, 4 * sets.len().max(1));
        match c.first_violation(sets) {
            None => Ok(c),
            Some((set_index, missing_color)) => Err(ColoringError { set_index, missing_color }),
        }
    }

    /// The number of colors `q`.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Number of colored vertices.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// True if no vertices are colored.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of `v`.
    pub fn color(&self, v: VertexId) -> u32 {
        self.colors[v.index()]
    }

    /// The vertices of color `j` (the partition class `U_{j}`).
    pub fn class(&self, j: u32) -> Vec<VertexId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == j)
            .map(|(v, _)| VertexId(v as u32))
            .collect()
    }

    /// All color classes, indexed by color.
    pub fn classes(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.q as usize];
        for (v, &c) in self.colors.iter().enumerate() {
            out[c as usize].push(VertexId(v as u32));
        }
        out
    }

    /// The size of the largest color class.
    pub fn max_class_size(&self) -> usize {
        self.classes().iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns the first `(set index, missing color)` violation of
    /// requirement 1, or `None` if every set contains every color. One
    /// buffer of `q` flags serves every set.
    pub fn first_violation<S: VertexSet>(&self, sets: &[S]) -> Option<(usize, u32)> {
        let mut present = vec![false; self.q as usize];
        for (i, set) in sets.iter().enumerate() {
            present.fill(false);
            for v in set.vertices() {
                present[self.color(v) as usize] = true;
            }
            if let Some(c) = present.iter().position(|&p| !p) {
                return Some((i, c as u32));
            }
        }
        None
    }

    /// In-place repair pass: for up to `max_steps` iterations, find a set
    /// missing a color and recolor one of its vertices whose current color
    /// appears at least twice in that set.
    fn repair<S: VertexSet>(&mut self, sets: &[S], max_steps: usize) {
        for _ in 0..max_steps {
            let Some((set_idx, missing)) = self.first_violation(sets) else {
                return;
            };
            let set = &sets[set_idx];
            let mut count = vec![0usize; self.q as usize];
            for v in set.vertices() {
                count[self.color(v) as usize] += 1;
            }
            // Recolor a vertex whose color is the most over-represented in
            // this set, so we do not create a new violation inside the set.
            let candidate = set
                .vertices()
                .filter(|&v| count[self.color(v) as usize] >= 2)
                .max_by_key(|&v| count[self.color(v) as usize]);
            match candidate {
                Some(v) => self.colors[v.index()] = missing,
                None => return, // set smaller than q: unrepairable
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn interval_sets(n: usize, size: usize) -> Vec<Vec<VertexId>> {
        (0..n)
            .map(|i| (0..size).map(|j| VertexId(((i + j) % n) as u32)).collect())
            .collect()
    }

    #[test]
    fn random_coloring_uses_q_colors_and_balances() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = Coloring::random(1000, 10, &mut rng);
        assert_eq!(c.q(), 10);
        assert_eq!(c.len(), 1000);
        assert!(!c.is_empty());
        assert!(c.colors.iter().all(|&x| x < 10));
        // Requirement 2 (balance): with n/q = 100 expected, the largest class
        // should stay within a small constant factor.
        assert!(c.max_class_size() < 200, "max class {}", c.max_class_size());
        let classes = c.classes();
        assert_eq!(classes.iter().map(Vec::len).sum::<usize>(), 1000);
    }

    #[test]
    fn build_for_sets_covers_every_color() {
        let n = 400;
        let q = 8;
        let sets = interval_sets(n, 80); // comfortably larger than q log n would demand at this scale
        let mut rng = StdRng::seed_from_u64(7);
        let c = Coloring::build_for_sets(n, q, &sets, 4, &mut rng).unwrap();
        assert!(c.first_violation(&sets).is_none());
        for set in &sets {
            for color in 0..q {
                assert!(set.iter().any(|&v| c.color(v) == color));
            }
        }
    }

    #[test]
    fn repair_kicks_in_for_tight_sets() {
        // Sets of size exactly q: random coloring almost surely misses some
        // color, so the repair loop has to fix them.
        let n = 64;
        let q = 4;
        let sets = interval_sets(n, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let c = Coloring::build_for_sets(n, q, &sets, 2, &mut rng).unwrap();
        assert!(c.first_violation(&sets).is_none());
    }

    #[test]
    fn impossible_sets_error() {
        // A set smaller than q can never contain all q colors.
        let sets = vec![vec![VertexId(0), VertexId(1)]];
        let mut rng = StdRng::seed_from_u64(3);
        let err = Coloring::build_for_sets(10, 5, &sets, 2, &mut rng).unwrap_err();
        assert_eq!(err.set_index, 0);
        assert!(err.to_string().contains("set 0"));
    }

    #[test]
    fn class_lookup_matches_color() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = Coloring::random(50, 5, &mut rng);
        for j in 0..5 {
            for v in c.class(j) {
                assert_eq!(c.color(v), j);
            }
        }
    }

    #[test]
    fn coloring_with_one_color() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = Coloring::random(10, 1, &mut rng);
        assert!(c.colors.iter().all(|&x| x == 0));
        assert_eq!(c.max_class_size(), 10);
    }
}
