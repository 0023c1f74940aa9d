//! # mogul-bench
//!
//! Runners reproducing every table and figure of the paper's evaluation
//! section, and two operator tools for the network front door.
//!
//! * **Figure/table runners** (`src/bin/fig*.rs`, `src/bin/table2*.rs`,
//!   `src/bin/run_all.rs`): binaries that execute the experiments defined in
//!   `mogul-eval` and print the same rows/series the paper reports. Run them
//!   with `cargo run -p mogul-bench --release --bin <name> [scale]`, where
//!   `scale` is one of `tiny`, `small`, `medium`, `large` (default `small`).
//! * **`serve_net` / `load_gen`** (`src/bin/`): a standalone `MGW1` server
//!   and a socket-level load generator that prints its table and keeps its
//!   gates in the exit code. Neither is a benchmark of record: performance
//!   claims rest on `BENCHMARK.json` (the `benchmark/` package).

#![warn(missing_docs)]

use mogul_data::suite::SuiteScale;
use mogul_eval::ScenarioConfig;

/// Parse the dataset scale from the process arguments (first positional
/// argument) or the `MOGUL_SCALE` environment variable. Defaults to `small`.
pub fn scale_from_args() -> SuiteScale {
    let from_arg = std::env::args().nth(1);
    let from_env = std::env::var("MOGUL_SCALE").ok();
    parse_scale(from_arg.or(from_env).as_deref())
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
    fn runner_config_uses_paper_defaults() {
        let config = runner_config(SuiteScale::Tiny);
        assert_eq!(config.alpha, 0.99);
        assert_eq!(config.knn_k, 5);
        assert_eq!(config.num_queries, 10);
    }
}
