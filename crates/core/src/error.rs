use std::error::Error;
use std::fmt;

use routing_vicinity::ColoringError;

/// Errors produced while preprocessing (building) a routing scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The input graph is not connected; every scheme in the paper assumes a
    /// connected graph (route between any pair of vertices).
    Disconnected,
    /// The graph is too small for the requested parameters (for example a
    /// multilevel scheme with more levels than meaningful ball sizes).
    TooSmall {
        /// Human-readable description.
        what: String,
    },
    /// A parameter was out of range (for example `epsilon <= 0`).
    BadParameter {
        /// Human-readable description.
        what: String,
    },
    /// The Lemma 6 coloring could not be constructed for the derived sets.
    Coloring(ColoringError),
    /// A scheme name was looked up in a registry that has no row for it
    /// (see the facade crate's `SchemeRegistry`).
    UnknownScheme {
        /// The unrecognized scheme name.
        name: String,
    },
    /// A construction step found its own intermediate results inconsistent
    /// (for example a shortest path whose consecutive vertices are not
    /// adjacent): a preprocessing bug, reported instead of a panic.
    Inconsistent {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Disconnected => write!(f, "input graph is not connected"),
            BuildError::TooSmall { what } => write!(f, "graph too small for parameters: {what}"),
            BuildError::BadParameter { what } => write!(f, "bad parameter: {what}"),
            BuildError::Coloring(e) => write!(f, "coloring failed: {e}"),
            BuildError::UnknownScheme { name } => {
                write!(f, "no registered scheme is named {name:?}")
            }
            BuildError::Inconsistent { what } => write!(f, "inconsistent preprocessing: {what}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Coloring(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ColoringError> for BuildError {
    fn from(e: ColoringError) -> Self {
        BuildError::Coloring(e)
    }
}

// Build errors cross thread boundaries when a background rebuild worker
// reports a failed preprocessing to the serving layer, so
// `Send + Sync + 'static` is part of the contract — checked at compile
// time, not merely by a test.
const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
const _: () = assert_send_sync_static::<BuildError>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert_eq!(BuildError::Disconnected.to_string(), "input graph is not connected");
        let e = BuildError::BadParameter { what: "epsilon must be positive".into() };
        assert!(e.to_string().contains("epsilon"));
        let c = ColoringError { set_index: 1, missing_color: 2 };
        let e: BuildError = c.into();
        assert!(e.to_string().contains("coloring failed"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&BuildError::Disconnected).is_none());
        let e = BuildError::UnknownScheme { name: "thm12".into() };
        assert!(e.to_string().contains("thm12"));
    }
}
