//! Baseline schemes the paper compares against (Table 1) and ground-truth
//! comparators used by the experiment harness:
//!
//! * [`exact`] — shortest-path routing with full `Θ(n)`-word tables
//!   (stretch 1), the space/stretch extreme point.
//! * [`tz`] — the Thorup–Zwick hierarchy (levels, bunches, clusters), the
//!   `(4k−5)`-stretch compact routing scheme \[21\] (stretch 3 at `k=2`,
//!   stretch 7 at `k=3` — the two prior rows of Table 1), and the
//!   `(2k−1)`-stretch distance oracle \[22\].
//! * [`spanner`] — the greedy `(2k−1)`-spanner, included for the
//!   spanner/oracle/routing storyline of the introduction.
//!
//! The crate also hosts the paper's [`thm16`] scheme — the `(4k−7+ε)`
//! refinement of Theorem 16 — because it is built directly on top of the
//! [`tz`] hierarchy rather than on the `routing-core` vicinity machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod spanner;
pub mod thm16;
pub mod tz;

pub use exact::ExactScheme;
pub use spanner::{greedy_spanner, SpannerScheme};
pub use thm16::Thm16Scheme;
pub use tz::{TzHierarchy, TzLevels, TzOracle, TzRoutingScheme};
