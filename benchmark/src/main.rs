//! The one-command benchmark behind `BENCHMARK.json`. See `README.md` in
//! this directory for the catalogue, the layer ladder and how to run it.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! benchmark [--seed N] [--seconds S] [--trace] [--smoke]    every workload, each in a child process
//! benchmark --compare A.json B.json                         two stored sets of runs, side by side
//! ```

mod catalogue;
mod corpus;
mod json;
mod ladder;
mod oracle;
mod report;
mod scratch;
mod setup;
mod stats;
mod tracer;
mod workloads;

use json::Value;
use std::process::ExitCode;

/// Every fallible step reports what failed in words; a failed gate is an
/// `Err` that ends the run with a non-zero exit code and no result line.
pub type Outcome<T> = Result<T, String>;

/// Default traffic seed.
pub const DEFAULT_SEED: u64 = 267_465;

/// Default measuring time of one run, and `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 16;

/// The traffic shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `web_indb`: in-database queries over loopback.
    NetInDb,
    /// `clustered_oos`: out-of-sample queries over loopback.
    NetOos,
    /// `web_batch`: mixed batches of 32 through in-process `serve_batch`.
    Batch,
    /// `churn_rw`: durable updates beside in-process reads.
    Churn,
}

impl Kind {
    fn of(workload: &str) -> Option<Kind> {
        match workload {
            "web_indb" => Some(Kind::NetInDb),
            "clustered_oos" => Some(Kind::NetOos),
            "web_batch" => Some(Kind::Batch),
            "churn_rw" => Some(Kind::Churn),
            _ => None,
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub name: &'static str,
    pub kind: Kind,
    pub seed: u64,
    /// Measuring time: split over the repetitions of an untraced run, and
    /// the replay length of a traced one.
    pub seconds: f64,
    pub smoke: bool,
}

impl RunConfig {
    /// Repetitions a timing is the median of.
    pub fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Set-ups `setup_s` is the median of, at least.
    pub fn setups(&self) -> usize {
        self.reps()
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--smoke] | --compare A.json B.json";

fn parse_args(argv: &[String]) -> Outcome<Args> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Outcome<String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                let text = value(&mut i, "--seed")?;
                args.seed = Some(text.parse().map_err(|_| format!("bad --seed {text}"))?);
            }
            "--seconds" => {
                let text = value(&mut i, "--seconds")?;
                let seconds: f64 = text.parse().map_err(|_| format!("bad --seconds {text}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {text} is not in (0, 600]"));
                }
                args.seconds = Some(seconds);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(args)
}

fn run_config(args: &Args, workload: &str) -> Outcome<RunConfig> {
    let spec = catalogue::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let kind = Kind::of(spec.name).expect("every catalogued workload has a kind");
    Ok(RunConfig {
        name: spec.name,
        kind,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.smoke {
            1.0
        } else {
            DEFAULT_SECONDS as f64
        }),
        smoke: args.smoke,
    })
}

/// The result line of the driver's contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a value with its unit.
fn result_line(attempted: u64, metrics: &[(&'static str, &'static str, f64)]) -> Outcome<String> {
    Value::obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(attempted as f64)),
        // A refused, shed, errored or wrongly answered operation ends the
        // run before this line: a result that exists has none.
        ("failed", Value::Num(0.0)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Value::obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

/// One workload in this process: the mode the driver runs.
fn run_one(config: &RunConfig, trace: bool) -> Outcome<()> {
    eprintln!(
        "benchmark: {} seed {} seconds {} trace {} ({} cores)",
        config.name,
        config.seed,
        config.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (attempted, metrics, detail) = if trace {
        let traced = ladder::run(config)?;
        let metrics = catalogue::PER_LAYER
            .iter()
            .map(|m| Ok((m.name, m.unit, traced.value(m.name)?)))
            .collect::<Outcome<Vec<_>>>()?;
        (traced.attempted, metrics, Value::obj::<&str>([]))
    } else {
        let timed = workloads::run(config)?;
        let metrics: Vec<_> = catalogue::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, timed.summary(m.name).median))
            .collect();
        (timed.attempted, metrics, report::detail(&timed))
    };
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<40} {value:>16.4} {unit}");
    }
    // The line before the last carries what the all-workloads mode stores
    // beside each median; the last line is the contract's.
    println!("{}", Value::obj([("detail", detail)]).render()?);
    println!("{}", result_line(attempted, &metrics)?);
    Ok(())
}

fn run() -> Outcome<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        return report::compare(a, b);
    }
    match &args.workload {
        Some(workload) => run_one(&run_config(&args, workload)?, args.trace),
        None => {
            let configs = catalogue::WORKLOADS
                .iter()
                .map(|w| run_config(&args, w.name))
                .collect::<Outcome<Vec<_>>>()?;
            report::run_all(&configs, args.trace)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "web_indb",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("web_indb"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(10.0), false)
        );
        let args = parse_args(&argv(&["--trace", "1", "--smoke"])).unwrap();
        assert!(args.trace && args.smoke);
        // A bare `--trace` is on, and does not swallow the next flag.
        let args = parse_args(&argv(&["--trace", "--seed", "3"])).unwrap();
        assert!(args.trace);
        assert_eq!(args.seed, Some(3));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
        assert!(run_config(&Args::default(), "no_such_workload").is_err());
    }

    /// The emitted result line round-trips through the module's own reader,
    /// has exactly the contract's keys, and names only contract-valid names.
    #[test]
    fn the_result_line_meets_the_contract() {
        let metrics: Vec<_> = catalogue::END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, m.unit, 1.5 + i as f64 / 3.0))
            .collect();
        let line = result_line(1234, &metrics).unwrap();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1234.0));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
        let emitted = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(emitted.len(), catalogue::END_TO_END.len());
        for ((name, metric), spec) in emitted.iter().zip(catalogue::END_TO_END) {
            assert!(catalogue::is_valid_name(name));
            assert_eq!(name, spec.name);
            assert_eq!(metric.get("unit").unwrap().as_str(), Some(spec.unit));
            assert!(metric.get("value").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(metric.as_object().unwrap().len(), 2);
        }
        // A NaN metric stops the run instead of being written down.
        assert!(result_line(1, &[("setup_s", "s", f64::NAN)]).is_err());
    }
}
