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
//!   `large` (default `MOGUL_SCALE`, then `small`).
//! * **`serve_net` / `load_gen`** (`src/bin/`): a standalone `MGW1` server
//!   and a socket-level load generator that prints its table and keeps its
//!   gates in the exit code. Neither is a benchmark of record: performance
//!   claims rest on `BENCHMARK.json` (the `benchmark/` package).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mogul_data::suite::SuiteScale;
use mogul_eval::ScenarioConfig;

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
/// then to `small`; a `--only` name outside [`SECTIONS`] is an error.
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
        scale: parse_scale(scale.or(env_scale).as_deref()),
        only,
    })
}

/// Parse a scale name; unknown names fall back to `Small`.
pub fn parse_scale(name: Option<&str>) -> SuiteScale {
    match name.map(|s| s.to_ascii_lowercase()) {
        Some(ref s) if s == "tiny" => SuiteScale::Tiny,
        Some(ref s) if s == "medium" => SuiteScale::Medium,
        Some(ref s) if s == "large" => SuiteScale::Large,
        _ => SuiteScale::Small,
    }
}

/// The experiment configuration used by every figure runner at a given scale.
pub fn runner_config(scale: SuiteScale) -> ScenarioConfig {
    ScenarioConfig {
        scale,
        num_queries: 10,
        ..ScenarioConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale(Some("tiny")), SuiteScale::Tiny);
        assert_eq!(parse_scale(Some("MEDIUM")), SuiteScale::Medium);
        assert_eq!(parse_scale(Some("large")), SuiteScale::Large);
        assert_eq!(parse_scale(Some("bogus")), SuiteScale::Small);
        assert_eq!(parse_scale(None), SuiteScale::Small);
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
    }

    #[test]
    fn runner_config_uses_paper_defaults() {
        let config = runner_config(SuiteScale::Tiny);
        assert_eq!(config.alpha, 0.99);
        assert_eq!(config.knn_k, 5);
        assert_eq!(config.num_queries, 10);
    }
}
