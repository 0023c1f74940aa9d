//! The human-facing side: run every workload in its own child process and
//! store the set of runs, and compare two stored sets.

use crate::catalogue::{self, Better, END_TO_END, WORKLOADS};
use crate::json::{self, Value};
use crate::workloads::Timed;
use crate::{scratch, Outcome, RunConfig};
use std::process::{Command, Stdio};

/// What an untraced run stores beside each median: the least and the
/// greatest repetition and the sample counts. The workload's own p99 is
/// stored here too, median included: it is not an end-to-end metric (see
/// `catalogue::END_TO_END`), but a reader of the stored set should see it.
pub fn detail(timed: &Timed) -> Value {
    let mut pairs: Vec<(String, Value)> = END_TO_END
        .iter()
        .map(|m| {
            let s = timed.summary(m.name);
            (
                m.name.to_string(),
                Value::obj([("min", Value::Num(s.min)), ("max", Value::Num(s.max))]),
            )
        })
        .collect();
    let p99 = timed.summary("query_p99_us");
    pairs.push((
        "query_p99_us".into(),
        Value::obj([
            ("median", Value::Num(p99.median)),
            ("min", Value::Num(p99.min)),
            ("max", Value::Num(p99.max)),
        ]),
    ));
    pairs.push((
        "latency_samples_per_rep".into(),
        Value::Arr(
            timed
                .latency_samples
                .iter()
                .map(|&n| Value::Num(n as f64))
                .collect(),
        ),
    ));
    Value::Obj(pairs)
}

/// Run this executable again for one workload and parse its last two lines.
fn child_run(config: &RunConfig, trace: bool) -> Outcome<(Value, Value)> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", config.name])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if config.smoke {
        command.arg("--smoke");
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("run the {} child: {e}", config.name))?;
    if !output.status.success() {
        return Err(format!(
            "the {} run (trace {}) failed: {}",
            config.name,
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the child printed no result line")?;
    let detail = lines.next().ok_or("the child printed no detail line")?;
    let result = json::parse(result).map_err(|e| format!("child result line: {e}"))?;
    let detail = json::parse(detail).map_err(|e| format!("child detail line: {e}"))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("the {} run reported incorrect output", config.name));
    }
    Ok((result, detail.get("detail").cloned().unwrap_or(Value::Null)))
}

/// Every workload, each in its own child process so that `setup_s` and
/// `peak_rss_mb` belong to one workload. Nothing is written unless every
/// child passed its gates.
pub fn run_all(configs: &[RunConfig], trace: bool) -> Outcome<()> {
    let mut workloads = Vec::new();
    for config in configs {
        if let Some(spec) = WORKLOADS.iter().find(|w| w.name == config.name) {
            eprintln!("{}: {}", spec.name, spec.why);
        }
        let (result, detail) = child_run(config, false)?;
        let mut entry = vec![
            (
                "end_to_end".to_string(),
                result.get("metrics").cloned().unwrap_or(Value::Null),
            ),
            ("detail".to_string(), detail),
            (
                "attempted".to_string(),
                result.get("attempted").cloned().unwrap_or(Value::Null),
            ),
            (
                "failed".to_string(),
                result.get("failed").cloned().unwrap_or(Value::Null),
            ),
        ];
        if trace {
            let (traced, _) = child_run(config, true)?;
            entry.push((
                "per_layer".to_string(),
                traced.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        workloads.push((config.name.to_string(), Value::Obj(entry)));
    }
    let first = configs.first().ok_or("no workloads")?;
    let doc = Value::obj([
        ("seed", Value::Num(first.seed as f64)),
        ("seconds", Value::Num(first.seconds)),
        ("smoke", Value::Bool(first.smoke)),
        (
            "cores",
            Value::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    print_table(&doc);
    let name = format!(
        "results-seed{}{}.json",
        first.seed,
        if first.smoke { "-smoke" } else { "" }
    );
    let path = scratch::root().join(name);
    std::fs::write(&path, doc.render()? + "\n").map_err(|e| format!("write results: {e}"))?;
    // What was written must read back through the module's own reader.
    let reread = std::fs::read_to_string(&path).map_err(|e| format!("re-read results: {e}"))?;
    if json::parse(&reread)? != doc {
        return Err("the stored results do not read back as written".into());
    }
    println!("wrote {}", path.display());
    Ok(())
}

fn metric_value(doc: &Value, workload: &str, family: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(family)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn print_table(doc: &Value) {
    println!("{:<24} {:>9}", "end to end", "unit");
    print!("{:<34}", "");
    for w in WORKLOADS {
        print!(" {:>15}", w.name);
    }
    println!();
    for m in END_TO_END {
        print!("{:<24} {:>9}", m.name, m.unit);
        for w in WORKLOADS {
            match metric_value(doc, w.name, "end_to_end", m.name) {
                Some(v) => print!(" {v:>15.4}"),
                None => print!(" {:>15}", "-"),
            }
        }
        println!();
    }
    if metric_value(
        doc,
        WORKLOADS[0].name,
        "per_layer",
        catalogue::PER_LAYER[0].name,
    )
    .is_none()
    {
        return;
    }
    println!("\nper layer (traced run)");
    for m in catalogue::PER_LAYER {
        print!("{:<42} {:>9}", m.name, m.unit);
        for w in WORKLOADS {
            match metric_value(doc, w.name, "per_layer", m.name) {
                Some(v) => print!(" {v:>15.4}"),
                None => print!(" {:>15}", "-"),
            }
        }
        println!();
    }
}

fn load(path: &str) -> Outcome<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// How much worse `b` is than `a`, as a share of `a`: positive is worse.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Per workload and end-to-end metric: both values, how much worse B is, the
/// bound, and a mark on anything beyond the bound in either direction.
pub fn compare(path_a: &str, path_b: &str) -> Outcome<()> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    let mut beyond = 0usize;
    for w in WORKLOADS {
        for m in END_TO_END {
            let values = (
                metric_value(&a, w.name, "end_to_end", m.name),
                metric_value(&b, w.name, "end_to_end", m.name),
            );
            let (Some(va), Some(vb)) = values else {
                println!("{:<14} {:<22} missing from one of the sets", w.name, m.name);
                beyond += 1;
                continue;
            };
            let worse = worsening(m.better, va, vb);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let mark = if worse > bound {
                beyond += 1;
                "  << B is worse beyond the bound"
            } else if -worse > bound {
                beyond += 1;
                "  >> B is better beyond the bound"
            } else {
                ""
            };
            println!(
                "{:<14} {:<22} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.1}%{mark}",
                w.name,
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{beyond} pairing(s) beyond their bound");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
    }

    #[test]
    fn metric_values_are_found_by_path() {
        let doc = json::parse(
            r#"{"workloads": {"web_indb": {"end_to_end": {"setup_s": {"value": 2.5, "unit": "s"}}}}}"#,
        )
        .unwrap();
        assert_eq!(
            metric_value(&doc, "web_indb", "end_to_end", "setup_s"),
            Some(2.5)
        );
        assert_eq!(metric_value(&doc, "web_indb", "per_layer", "setup_s"), None);
        assert_eq!(
            metric_value(&doc, "churn_rw", "end_to_end", "setup_s"),
            None
        );
    }
}
