//! Shared machinery of the machine-readable performance baseline
//! (`BENCH_query.json`): rendering, parsing, merging and validating the
//! trajectory file, hand-rolled because the workspace deliberately has no
//! third-party dependencies.
//!
//! Two binaries write the file: `perf_baseline` (core search / serving /
//! update scenarios) and `load_gen` (network saturation rows measured over
//! real sockets). Each **merges** its rows into the existing file instead of
//! clobbering the other's, keyed by scenario name.
//!
//! Schema (one trajectory point per run):
//!
//! ```json
//! {
//!   "git_rev": "<short rev or \"unknown\">",
//!   "date": "YYYY-MM-DD",
//!   "smoke": false,
//!   "scenarios": { "<name>": { "p50_us": 1.0, "p95_us": 2.0, "qps": 3.0 } }
//! }
//! ```

use std::cmp::Ordering;

/// One row of the baseline file: per-iteration latency percentiles plus
/// queries-per-second of a named scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Scenario name (the merge key).
    pub name: String,
    /// Median per-iteration latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-iteration latency, microseconds.
    pub p95_us: f64,
    /// Queries (not iterations) answered per second.
    pub qps: f64,
}

/// Percentile (0.0 ..= 1.0) of a latency sample in microseconds. Samples are
/// in seconds; the result is scaled to microseconds.
pub fn percentile_us(latencies: &[f64], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx] * 1e6
}

/// Render a complete baseline document from rows.
pub fn render_json(rows: &[ScenarioRow], smoke: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    out.push_str(&format!("  \"date\": \"{}\",\n", today_utc()));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"scenarios\": {\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"qps\": {:.1} }}{}\n",
            row.name,
            row.p50_us,
            row.p95_us,
            row.qps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Merge `fresh` rows into `existing`: rows with the same name are replaced
/// in place (preserving the file's row order), new names append at the end.
pub fn merge_rows(existing: &[ScenarioRow], fresh: &[ScenarioRow]) -> Vec<ScenarioRow> {
    let mut merged: Vec<ScenarioRow> = existing.to_vec();
    for row in fresh {
        match merged.iter_mut().find(|r| r.name == row.name) {
            Some(slot) => *slot = row.clone(),
            None => merged.push(row.clone()),
        }
    }
    merged
}

/// Short git revision of the working tree, or `"unknown"`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Civil date from the Unix timestamp (Howard Hinnant's days-to-civil
/// algorithm) — no chrono in this workspace.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let days = secs.div_euclid(86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — enough to validate the baseline file and to pull its
// scenario rows back out for merging. Input is machine-generated (by this
// module or a previous version of it), but the reader still fails closed on
// anything malformed.
// ---------------------------------------------------------------------------

/// Assert `input` is one well-formed JSON value (objects, strings, numbers,
/// booleans) with nothing trailing.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

/// Parse the `"scenarios"` object of a baseline document back into rows
/// (file order preserved). Returns an empty list for an empty scenarios
/// object; fails on structural problems.
pub fn parse_scenarios(input: &str) -> Result<Vec<ScenarioRow>, String> {
    validate_json(input)?;
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err("baseline document must be an object".into());
    }
    pos += 1;
    let mut rows = Vec::new();
    loop {
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) == Some(&b'}') {
            break;
        }
        let key = parse_string_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        if key == "scenarios" {
            rows = parse_scenario_object(bytes, &mut pos)?;
        } else {
            parse_value(bytes, &mut pos)?;
        }
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) == Some(&b',') {
            pos += 1;
        }
    }
    Ok(rows)
}

fn parse_scenario_object(bytes: &[u8], pos: &mut usize) -> Result<Vec<ScenarioRow>, String> {
    if bytes.get(*pos) != Some(&b'{') {
        return Err("\"scenarios\" must be an object".into());
    }
    *pos += 1;
    let mut rows = Vec::new();
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(rows);
        }
        let name = parse_string_value(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' after scenario name at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let row = parse_row_fields(bytes, pos, name)?;
        rows.push(row);
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b',') {
            *pos += 1;
        }
    }
}

fn parse_row_fields(bytes: &[u8], pos: &mut usize, name: String) -> Result<ScenarioRow, String> {
    if bytes.get(*pos) != Some(&b'{') {
        return Err(format!("scenario {name:?} must be an object"));
    }
    *pos += 1;
    let (mut p50_us, mut p95_us, mut qps) = (None, None, None);
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            break;
        }
        let field = parse_string_value(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' in scenario {name:?}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_number_value(bytes, pos)?;
        match field.as_str() {
            "p50_us" => p50_us = Some(value),
            "p95_us" => p95_us = Some(value),
            "qps" => qps = Some(value),
            other => return Err(format!("unknown field {other:?} in scenario {name:?}")),
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b',') {
            *pos += 1;
        }
    }
    match (p50_us, p95_us, qps) {
        (Some(p50_us), Some(p95_us), Some(qps)) => Ok(ScenarioRow {
            name,
            p50_us,
            p95_us,
            qps,
        }),
        _ => Err(format!("scenario {name:?} is missing a required field")),
    }
}

/// A parsed baseline document: the top-level metadata plus every row.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDoc {
    /// Short git revision the rows were measured at (`"unknown"` allowed).
    pub git_rev: String,
    /// Measurement date, `YYYY-MM-DD`.
    pub date: String,
    /// Whether the rows came from a `--smoke` run (unfit as a baseline).
    pub smoke: bool,
    /// The scenario rows, in file order.
    pub rows: Vec<ScenarioRow>,
}

/// Parse and validate a **whole** baseline document against the schema in
/// `docs/PERFORMANCE.md`: exactly the four top-level keys (`git_rev`,
/// `date`, `smoke`, `scenarios`), a well-formed date, unique scenario names,
/// and rows whose three fields are finite, non-negative and satisfy
/// `p50_us ≤ p95_us`. `required` lists scenario names that must be present
/// (pass `&[]` to skip the coverage check). Fails closed with a description
/// of the first violation.
pub fn validate_document(input: &str, required: &[&str]) -> Result<BaselineDoc, String> {
    validate_json(input)?;
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err("baseline document must be an object".into());
    }
    pos += 1;
    let (mut git_rev, mut date, mut smoke, mut rows) = (None, None, None, None);
    loop {
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) == Some(&b'}') {
            break;
        }
        let key = parse_string_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        match key.as_str() {
            "git_rev" => git_rev = Some(parse_string_value(bytes, &mut pos)?),
            "date" => date = Some(parse_string_value(bytes, &mut pos)?),
            "smoke" => {
                smoke = Some(match bytes.get(pos) {
                    Some(b't') => {
                        parse_literal(bytes, &mut pos, "true")?;
                        true
                    }
                    _ => {
                        parse_literal(bytes, &mut pos, "false")?;
                        false
                    }
                })
            }
            "scenarios" => rows = Some(parse_scenario_object(bytes, &mut pos)?),
            other => return Err(format!("unknown top-level key {other:?}")),
        }
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) == Some(&b',') {
            pos += 1;
        }
    }
    let doc = BaselineDoc {
        git_rev: git_rev.ok_or("missing top-level \"git_rev\"")?,
        date: date.ok_or("missing top-level \"date\"")?,
        smoke: smoke.ok_or("missing top-level \"smoke\"")?,
        rows: rows.ok_or("missing top-level \"scenarios\"")?,
    };
    if doc.git_rev.is_empty() || !doc.git_rev.chars().all(|c| c.is_ascii_alphanumeric()) {
        return Err(format!("malformed git_rev {:?}", doc.git_rev));
    }
    let d = doc.date.as_bytes();
    let date_ok = d.len() == 10
        && d[4] == b'-'
        && d[7] == b'-'
        && d.iter()
            .enumerate()
            .all(|(i, &c)| matches!(i, 4 | 7) || c.is_ascii_digit());
    if !date_ok {
        return Err(format!("malformed date {:?} (want YYYY-MM-DD)", doc.date));
    }
    for (i, row) in doc.rows.iter().enumerate() {
        if row.name.is_empty() {
            return Err(format!("scenario #{i} has an empty name"));
        }
        if doc.rows[..i].iter().any(|r| r.name == row.name) {
            return Err(format!("duplicate scenario {:?}", row.name));
        }
        for (field, value) in [
            ("p50_us", row.p50_us),
            ("p95_us", row.p95_us),
            ("qps", row.qps),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "scenario {:?}: {field} = {value} is invalid",
                    row.name
                ));
            }
        }
        if row.p50_us > row.p95_us {
            return Err(format!(
                "scenario {:?}: p50_us {} exceeds p95_us {}",
                row.name, row.p50_us, row.p95_us
            ));
        }
    }
    for &name in required {
        if !doc.rows.iter().any(|r| r.name == name) {
            return Err(format!("required scenario {name:?} is missing"));
        }
    }
    Ok(doc)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'"') => parse_string_value(bytes, pos).map(drop),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number_value(bytes, pos).map(drop),
        other => Err(format!("unexpected token {other:?} at byte {pos}")),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string_value(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or '}}', got {other:?} at byte {pos}")),
        }
    }
}

fn parse_string_value(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let start = *pos;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                let s = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?
                    .to_string();
                *pos += 1;
                return Ok(s);
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number_value(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while let Some(&c) = bytes.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ScenarioRow> {
        vec![
            ScenarioRow {
                name: "search_batch32".into(),
                p50_us: 10.5,
                p95_us: 20.25,
                qps: 95_000.0,
            },
            ScenarioRow {
                name: "net_closed_c2".into(),
                p50_us: 120.0,
                p95_us: 480.0,
                qps: 16_000.5,
            },
        ]
    }

    #[test]
    fn render_parse_round_trip() {
        let json = render_json(&rows(), true);
        validate_json(&json).unwrap();
        let back = parse_scenarios(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "search_batch32");
        assert!((back[0].p50_us - 10.5).abs() < 1e-9);
        assert!((back[1].qps - 16_000.5).abs() < 1e-6);
    }

    #[test]
    fn merge_replaces_by_name_and_appends_new() {
        let existing = rows();
        let fresh = vec![
            ScenarioRow {
                name: "net_closed_c2".into(),
                p50_us: 99.0,
                p95_us: 300.0,
                qps: 20_000.0,
            },
            ScenarioRow {
                name: "net_open_10x".into(),
                p50_us: 150.0,
                p95_us: 600.0,
                qps: 12_000.0,
            },
        ];
        let merged = merge_rows(&existing, &fresh);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].name, "search_batch32"); // untouched, in place
        assert!((merged[1].p50_us - 99.0).abs() < 1e-9); // replaced in place
        assert_eq!(merged[2].name, "net_open_10x"); // appended
    }

    #[test]
    fn malformed_documents_fail_closed() {
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(parse_scenarios("[]").is_err());
        assert!(parse_scenarios("{\"scenarios\": {\"x\": {\"p50_us\": 1.0}}}").is_err());
        assert!(parse_scenarios(
            "{\"scenarios\": {\"x\": {\"p50_us\": 1.0, \"p95_us\": 2.0, \"qps\": \"fast\"}}}"
        )
        .is_err());
    }

    #[test]
    fn empty_scenarios_parse_to_no_rows() {
        assert!(parse_scenarios("{\"scenarios\": {}}").unwrap().is_empty());
        // A document with no scenarios key at all: no rows, not an error.
        assert!(parse_scenarios("{\"smoke\": false}").unwrap().is_empty());
    }

    #[test]
    fn validate_document_accepts_rendered_output() {
        let json = render_json(&rows(), false);
        let doc = validate_document(&json, &["search_batch32", "net_closed_c2"]).unwrap();
        assert!(!doc.smoke);
        assert_eq!(doc.date, today_utc());
        assert_eq!(doc.rows.len(), 2);
        // Required-row coverage is enforced.
        let err = validate_document(&json, &["search_batch32", "kernel_scale_diag"]).unwrap_err();
        assert!(err.contains("kernel_scale_diag"), "{err}");
    }

    #[test]
    fn validate_document_rejects_schema_violations() {
        let good = render_json(&rows(), false);
        // Missing top-level key.
        let missing = good.replacen("\"smoke\": false,\n", "", 1);
        assert!(validate_document(&missing, &[])
            .unwrap_err()
            .contains("smoke"));
        // Unknown top-level key.
        let unknown = good.replacen("\"smoke\"", "\"smokey\"", 1);
        assert!(validate_document(&unknown, &[])
            .unwrap_err()
            .contains("smokey"));
        // Malformed date.
        let bad_date = good.replacen(&today_utc(), "2026-8-8", 1);
        assert!(validate_document(&bad_date, &[])
            .unwrap_err()
            .contains("date"));
        // p50 above p95.
        let inverted = good.replacen("\"p50_us\": 10.500", "\"p50_us\": 99.000", 1);
        assert!(validate_document(&inverted, &[])
            .unwrap_err()
            .contains("exceeds"));
        // Duplicate scenario name.
        let duplicated = good.replacen("\"net_closed_c2\"", "\"search_batch32\"", 1);
        assert!(validate_document(&duplicated, &[])
            .unwrap_err()
            .contains("duplicate"));
        // Non-finite / negative values never sneak in.
        let negative = good.replacen("\"qps\": 95000.0", "\"qps\": -1.0", 1);
        assert!(validate_document(&negative, &[])
            .unwrap_err()
            .contains("invalid"));
    }

    #[test]
    fn committed_baseline_matches_the_schema() {
        // The repo-root BENCH_query.json must always validate; CI runs the
        // same check via `perf_baseline --validate`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
        let json = std::fs::read_to_string(path).expect("BENCH_query.json at repo root");
        let doc = validate_document(&json, &["search_batch32", "serve_panel_b32"]).unwrap();
        assert!(
            !doc.smoke,
            "committed baseline must be a full run, not smoke"
        );
    }

    #[test]
    fn date_and_rev_are_well_formed() {
        let date = today_utc();
        assert_eq!(date.len(), 10);
        assert_eq!(&date[4..5], "-");
        let rev = git_rev();
        assert!(rev == "unknown" || rev.chars().all(|c| c.is_ascii_alphanumeric()));
    }
}
