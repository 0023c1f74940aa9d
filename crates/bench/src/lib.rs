//! # mogul-bench
//!
//! Runners reproducing every table and figure of the paper's evaluation
//! section, and two operator tools for the network front door.
//!
//! * **`run_all`** (`src/bin/run_all.rs`): executes the experiments defined
//!   in `mogul-eval` and prints the same rows/series the paper reports —
//!   every section, or one with `--only <name>` (see [`SECTIONS`]). Run it
//!   with `cargo run -p mogul-bench --release --bin run_all -- [scale]
//!   [--only <name>]`, where `scale` is one of `tiny`, `small`, `medium`,
//!   `large` (default `MOGUL_SCALE`, then `small`). The scale and `--only`
//!   are its only settings: every experiment runs at the paper's constants.
//! * **`serve_net` / `load_gen`** (`src/bin/`): a standalone `MGW1` server
//!   and a socket-level load generator that prints its table and keeps its
//!   gates in the exit code. Neither is a benchmark of record: performance
//!   claims rest on `BENCHMARK.json` (the `benchmark/` package).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mogul_data::suite::SuiteScale;

/// The sections `run_all` prints, in order; `--only` takes one of them.
pub const SECTIONS: [&str; 12] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "fig8",
    "fig9",
    "ablation_parameters",
    "ablation_scaling",
];

/// What `run_all` was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerArgs {
    /// Dataset scale.
    pub scale: SuiteScale,
    /// The one section to print; `None` prints them all.
    pub only: Option<String>,
}

/// Parse `[scale] [--only <name>]` (in either order) from the arguments after
/// the program name. The scale falls back to `env_scale` (`MOGUL_SCALE`),
/// then to `small`; a scale name other than `tiny`, `small`, `medium` or
/// `large` and a `--only` name outside [`SECTIONS`] are errors.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    env_scale: Option<String>,
) -> Result<RunnerArgs, String> {
    let mut scale = None;
    let mut only = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--only" {
            let name = args.next().ok_or("--only needs a section name")?;
            if !SECTIONS.contains(&name.as_str()) {
                return Err(format!(
                    "unknown section `{name}`; one of: {}",
                    SECTIONS.join(", ")
                ));
            }
            only = Some(name);
        } else if scale.is_none() {
            scale = Some(arg);
        }
    }
    Ok(RunnerArgs {
        scale: parse_scale(scale.or(env_scale).as_deref())?,
        only,
    })
}

/// Parse a scale name (any case); `None` is `Small`, an unknown name an
/// error.
pub fn parse_scale(name: Option<&str>) -> Result<SuiteScale, String> {
    let Some(name) = name else {
        return Ok(SuiteScale::Small);
    };
    match name.to_ascii_lowercase().as_str() {
        "tiny" => Ok(SuiteScale::Tiny),
        "small" => Ok(SuiteScale::Small),
        "medium" => Ok(SuiteScale::Medium),
        "large" => Ok(SuiteScale::Large),
        _ => Err(format!(
            "unknown scale `{name}`; one of: tiny, small, medium, large"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale(Some("tiny")), Ok(SuiteScale::Tiny));
        assert_eq!(parse_scale(Some("small")), Ok(SuiteScale::Small));
        assert_eq!(parse_scale(Some("MEDIUM")), Ok(SuiteScale::Medium));
        assert_eq!(parse_scale(Some("large")), Ok(SuiteScale::Large));
        assert_eq!(parse_scale(None), Ok(SuiteScale::Small));
        let err = parse_scale(Some("bogus")).unwrap_err();
        assert!(err.contains("`bogus`") && err.contains("tiny"), "{err}");
    }

    #[test]
    fn argument_parsing() {
        let parse = |args: &[&str], env: Option<&str>| {
            parse_args(args.iter().map(|s| s.to_string()), env.map(String::from))
        };
        let all = parse(&["tiny"], None).unwrap();
        assert_eq!((all.scale, all.only), (SuiteScale::Tiny, None));
        // Either order; the argument beats the environment.
        for args in [
            ["medium", "--only", "table2"],
            ["--only", "table2", "medium"],
        ] {
            let one = parse(&args, Some("large")).unwrap();
            assert_eq!(one.scale, SuiteScale::Medium);
            assert_eq!(one.only.as_deref(), Some("table2"));
        }
        let env = parse(&["--only", "fig1"], Some("tiny")).unwrap();
        assert_eq!(env.scale, SuiteScale::Tiny);
        assert_eq!(parse(&[], None).unwrap().scale, SuiteScale::Small);
        assert!(parse(&["--only"], None).is_err());
        assert!(parse(&["--only", "fig10"], None).is_err());
        // An unknown scale fails from the arguments and from the environment.
        assert!(parse(&["huge"], None).is_err());
        assert!(parse(&["--only", "fig1"], Some("huge")).is_err());
    }

    #[test]
    fn experiments_run_at_the_paper_settings() {
        use mogul_eval::scenarios::{ALPHA, KNN_K, NUM_QUERIES, TOP_K};
        assert_eq!(ALPHA, 0.99);
        assert_eq!(KNN_K, 5);
        assert_eq!(NUM_QUERIES, 10);
        assert_eq!(TOP_K, 5);
    }
}
