//! Tunable parameters shared by every scheme.
//!
//! The paper writes `x̃ = α·x·log n` for a "large enough constant" `α` and
//! hides all logarithmic factors inside `Õ(·)`. At the laptop scales of the
//! experiments the constants dominate the asymptotics, so they are exposed
//! here; the defaults are calibrated so the schemes' behaviour (who wins on
//! space at which stretch) is visible at `n` in the hundreds to thousands.

use serde::{Deserialize, Serialize};

/// Parameters controlling preprocessing of every scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// The stretch slack `ε > 0` of Lemmas 7/8 and all theorems.
    pub epsilon: f64,
    /// The constant `α` in the paper's `x̃ = α·x·log n` scaling of ball
    /// sizes. `1.0` follows the paper literally; smaller values shrink
    /// preprocessing at the cost of more frequent fallback routing.
    pub ball_scale: f64,
    /// How many random colorings to try before running the repair pass.
    pub coloring_retries: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            epsilon: 0.25,
            ball_scale: 1.0,
            coloring_retries: 8,
        }
    }
}

impl Params {
    /// Creates parameters with the given `ε` and defaults elsewhere.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Params { epsilon, ..Params::default() }
    }

    /// The paper's `x̃ = α·x·log n`, clamped to `[1, n]`.
    pub fn scaled(&self, x: usize, n: usize) -> usize {
        let ln = (n.max(2) as f64).ln();
        let v = (self.ball_scale * x as f64 * ln).ceil() as usize;
        v.clamp(1, n.max(1))
    }

    /// Lemma 7's round budget `b = ⌈2/ε⌉`.
    pub fn b_lemma7(&self) -> usize {
        (2.0 / self.epsilon).ceil() as usize
    }

    /// Lemma 8's round budget `b = ⌈2/ε⌉ + 1`, saturating at `usize::MAX`
    /// for an `ε` so small that `⌈2/ε⌉` already does.
    pub fn b_lemma8(&self) -> usize {
        ((2.0 / self.epsilon).ceil() as usize).saturating_add(1)
    }

    /// Validates the parameters: `ε` and `ball_scale` are finite and
    /// positive. An infinite `ε` would give Lemma 7
    /// `⌈2/∞⌉ = 0` rounds and the bound `5 + ε = ∞`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [("epsilon", self.epsilon), ("ball_scale", self.ball_scale)];
        match fields.into_iter().find(|&(_, x)| !(x.is_finite() && x > 0.0)) {
            Some((name, x)) => Err(format!("{name} must be finite and positive, got {x}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let p = Params::default();
        assert!(p.validate().is_ok());
        assert_eq!(p.b_lemma7(), 8);
        assert_eq!(p.b_lemma8(), 9);
    }

    #[test]
    fn scaled_is_clamped() {
        let p = Params::default();
        assert_eq!(p.scaled(1000, 50), 50);
        assert!(p.scaled(2, 100) >= 2);
        assert_eq!(p.scaled(0, 100), 1);
        let tiny = Params { ball_scale: 0.1, ..Params::default() };
        assert!(tiny.scaled(10, 1000) < p.scaled(10, 1000));
    }

    #[test]
    fn with_epsilon_and_b() {
        let p = Params::with_epsilon(1.0);
        assert_eq!(p.b_lemma7(), 2);
        assert_eq!(p.b_lemma8(), 3);
        let p = Params::with_epsilon(0.5);
        assert_eq!(p.b_lemma7(), 4);
        // ⌈2/ε⌉ saturates below ε ≈ 1.1e-19; the `+ 1` must not wrap to 0.
        let p = Params::with_epsilon(1e-20);
        assert_eq!((p.b_lemma7(), p.b_lemma8()), (usize::MAX, usize::MAX));
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(Params::with_epsilon(0.0).validate().is_err());
        assert!(Params::with_epsilon(-1.0).validate().is_err());
        assert!(Params { ball_scale: 0.0, ..Params::default() }.validate().is_err());
        assert!(Params { ball_scale: -2.0, ..Params::default() }.validate().is_err());
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let d = Params::default();
            assert!(Params::with_epsilon(x).validate().is_err(), "epsilon {x}");
            assert!(Params { ball_scale: x, ..d }.validate().is_err(), "ball_scale {x}");
        }
    }
}
