//! Shared command-line handling for the harness binaries: `churn`'s
//! `--flag value` pairs and `experiments`' positionals fail with the same
//! diagnostics.
//!
//! * [`Args`] — a cursor over the tokens with uniform missing-value
//!   diagnostics;
//! * typed value parsers ([`parse_value`], [`parse_family`],
//!   [`parse_schemes`]) that return [`CliError`] with the
//!   `invalid value "…" for --flag: …` wording;
//! * [`CliError`] — the diagnostic type, `Display`-formatted for stderr.
//!
//! Each binary keeps its own table of flag or experiment *names* (`churn`'s
//! `FLAGS`, `experiments`' `EXPERIMENTS`); what is shared is everything
//! after the name is recognized. [`parse_schemes`]
//! validates scheme lists against the registry's names and expands the
//! special value `all` to every registered scheme, so a new registry entry
//! is reachable with no flag-parsing edits.

use routing_graph::generators::Family;

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag was given without its value.
    MissingValue {
        /// The flag missing its value.
        flag: String,
    },
    /// A value failed to parse or validate.
    Invalid {
        /// The flag whose value is bad.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        what: String,
    },
    /// A flag no binary defines.
    UnknownFlag {
        /// The unrecognized token.
        flag: String,
    },
    /// A positional argument beyond those the command takes.
    UnexpectedArgument {
        /// The surplus token.
        arg: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue { flag } => write!(f, "missing value for {flag}"),
            CliError::Invalid { flag, value, what } => {
                write!(f, "invalid value {value:?} for {flag}: {what}")
            }
            CliError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
            CliError::UnexpectedArgument { arg } => write!(f, "unexpected argument {arg:?}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Cursor over `--flag value` pairs.
pub struct Args {
    tokens: std::vec::IntoIter<String>,
}

impl Args {
    /// A cursor over the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        Args { tokens: std::env::args().skip(1).collect::<Vec<_>>().into_iter() }
    }

    /// A cursor over explicit tokens (tests).
    pub fn from_tokens<I: IntoIterator<Item = S>, S: Into<String>>(tokens: I) -> Self {
        Args { tokens: tokens.into_iter().map(Into::into).collect::<Vec<_>>().into_iter() }
    }

    /// The next flag token, or `None` when the command line is exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        self.tokens.next()
    }

    /// The value of `flag` (the next token).
    ///
    /// # Errors
    ///
    /// [`CliError::MissingValue`] when the command line ends after `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.tokens.next().ok_or_else(|| CliError::MissingValue { flag: flag.to_string() })
    }
}

/// Parses one typed value, mapping parse failures to the standard
/// diagnostic.
///
/// # Errors
///
/// [`CliError::Invalid`] with `what` when parsing fails.
pub fn parse_value<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    what: &str,
) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::Invalid {
        flag: flag.to_string(),
        value: value.to_string(),
        what: what.to_string(),
    })
}

/// Parses a graph family name, or `er` for Erdős–Rényi, the short name the
/// benchmark's workloads use.
///
/// # Errors
///
/// [`CliError::Invalid`] on an unknown family.
pub fn parse_family(flag: &str, value: &str) -> Result<Family, CliError> {
    match value {
        "erdos-renyi" | "er" => Ok(Family::ErdosRenyi),
        "geometric" => Ok(Family::Geometric),
        "grid" => Ok(Family::Grid),
        "scale-free" => Ok(Family::ScaleFree),
        _ => Err(CliError::Invalid {
            flag: flag.to_string(),
            value: value.to_string(),
            what: "unknown family".to_string(),
        }),
    }
}

/// Parses a comma-separated scheme list against the registered names,
/// expanding the special value `all` to every name in `known` (in order).
///
/// # Errors
///
/// [`CliError::Invalid`] naming the first unknown scheme.
pub fn parse_schemes(flag: &str, value: &str, known: &[&str]) -> Result<Vec<String>, CliError> {
    if value == "all" {
        return Ok(known.iter().map(|s| s.to_string()).collect());
    }
    let schemes: Vec<String> = value.split(',').map(str::to_string).collect();
    for s in &schemes {
        if !known.contains(&s.as_str()) {
            return Err(CliError::Invalid {
                flag: flag.to_string(),
                value: value.to_string(),
                what: format!("unknown scheme {s:?} (known: {})", known.join(", ")),
            });
        }
    }
    Ok(schemes)
}

/// Prints the diagnostic and invokes the binary's usage printer (which is
/// expected to exit the process).
pub fn die(e: CliError, usage: fn() -> !) -> ! {
    eprintln!("{e}");
    usage()
}

/// Unwraps a parse result, delegating to [`die`] (diagnostic + usage +
/// exit) on error. The shared flag loop of every registry-driven binary.
pub fn ok_or_usage<T>(r: Result<T, CliError>, usage: fn() -> !) -> T {
    r.unwrap_or_else(|e| die(e, usage))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_cursor_walks_flag_value_pairs() {
        let mut args = Args::from_tokens(["--n", "100", "--seed", "7"]);
        assert_eq!(args.next_flag().as_deref(), Some("--n"));
        assert_eq!(args.value("--n").unwrap(), "100");
        assert_eq!(args.next_flag().as_deref(), Some("--seed"));
        assert_eq!(args.value("--seed").unwrap(), "7");
        assert_eq!(args.next_flag(), None);
    }

    #[test]
    fn missing_value_diagnostic_names_the_flag() {
        let mut args = Args::from_tokens(["--json"]);
        assert_eq!(args.next_flag().as_deref(), Some("--json"));
        let err = args.value("--json").unwrap_err();
        assert_eq!(err.to_string(), "missing value for --json");
    }

    #[test]
    fn malformed_numbers_produce_the_standard_diagnostic() {
        let err = parse_value::<usize>("--n", "12x", "expected an integer").unwrap_err();
        assert_eq!(err.to_string(), "invalid value \"12x\" for --n: expected an integer");
        let err = parse_value::<f64>("--epsilon", "much", "expected a float").unwrap_err();
        assert!(err.to_string().contains("--epsilon"));
        assert!(err.to_string().contains("expected a float"));
    }

    #[test]
    fn family_parsing_matches_the_documented_names() {
        assert_eq!(parse_family("--family", "erdos-renyi").unwrap(), Family::ErdosRenyi);
        assert_eq!(parse_family("--family", "scale-free").unwrap(), Family::ScaleFree);
        assert_eq!(parse_family("--family", "er").unwrap(), Family::ErdosRenyi);
        let err = parse_family("--family", "hypercube").unwrap_err();
        assert_eq!(err.to_string(), "invalid value \"hypercube\" for --family: unknown family");
    }

    #[test]
    fn scheme_lists_validate_against_known_names_and_expand_all() {
        let known = ["warmup", "tz2", "exact"];
        assert_eq!(parse_schemes("--schemes", "tz2,warmup", &known).unwrap(), vec!["tz2", "warmup"]);
        assert_eq!(
            parse_schemes("--schemes", "all", &known).unwrap(),
            vec!["warmup", "tz2", "exact"]
        );
        let err = parse_schemes("--schemes", "tz2,thm12", &known).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--schemes") && msg.contains("thm12") && msg.contains("known:"), "{msg}");
    }

    #[test]
    fn unknown_flag_display() {
        let err = CliError::UnknownFlag { flag: "--frobnicate".into() };
        assert_eq!(err.to_string(), "unknown flag --frobnicate");
        let err = CliError::UnexpectedArgument { arg: "0.5".into() };
        assert_eq!(err.to_string(), "unexpected argument \"0.5\"");
    }
}
