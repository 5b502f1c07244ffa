//! Vertex vicinities, hitting sets, colorings, and Thorup–Zwick centers —
//! the combinatorial substrates of Section 2 of Roditty & Tov (PODC 2015).
//!
//! Each module implements one numbered lemma of the paper:
//!
//! * [`balls`] — **Property 1 / Lemma 2** (ball routing). The vicinity
//!   `B(u, ℓ)` is the set of the `ℓ` vertices closest to `u` (ties broken
//!   by vertex id, the paper's lexicographic rule). Property 1: if
//!   `v ∈ B(u, ℓ)` then `v ∈ B(w, ℓ)` for every `w` on a shortest `u–v`
//!   path — so storing, at every vertex, the first-hop port of a shortest
//!   path to each of its `ℓ` closest vertices (`3ℓ` words) suffices to
//!   forward hop-by-hop inside a vicinity on exact shortest paths
//!   ([`BallTable`], whose [`BallPorts`] every scheme keeps).
//! * [`hitting`] — **Lemma 5** (hitting sets). For any collection of sets
//!   each of size ≥ `s`, a set of size `Õ(n/s)` hitting all of them exists;
//!   the deterministic greedy set-cover construction builds one
//!   ([`hitting_set_greedy`]). The schemes hit the vicinities `B(u, q̃)` to
//!   obtain their temporary-target sets.
//! * [`coloring`] — **Lemma 6** (colorings). A `q`-coloring of `V` such
//!   that every given (large enough) set contains every color and the color
//!   classes stay balanced ([`Coloring`]); Theorem 10's scheme uses it to
//!   split `V` into `q` color classes that every big vicinity intersects.
//! * [`centers`] — **Lemma 4** (Thorup–Zwick centers, from STOC'01). A
//!   landmark set `A` of expected size `Õ(n/s)` such that every cluster
//!   `C_A(w) = {v : d(w, v) < d(v, A)}` has at most `4n/s` vertices
//!   ([`sample_centers_bounded`]), plus the derived bunches
//!   `B(v) = {w : d(v, w) < d(v, A)}`, clusters, and what one
//!   nearest-landmark search finds ([`Landmarks`]): `d(v, A)` and, packed
//!   at the id width, `p_A(v)` with the first hop out of it towards `v`.
//!   These drive the schemes of Theorems 10 and 11 and the Thorup–Zwick
//!   baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balls;
pub mod centers;
pub mod coloring;
pub mod hitting;

pub use balls::{
    BallDists, BallEncoding, BallPorts, BallTable, BallView, MemberDists, MemberIds, RankBitmap, VertexSet,
};
pub use centers::{all_clusters, bunches, sample_centers_bounded, Landmarks};
pub use coloring::{Coloring, ColoringError};
pub use hitting::{hitting_set_greedy, hitting_set_of_vicinities};
