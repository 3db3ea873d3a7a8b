//! Bench regression gate (CI tool): compares the machine-readable bench
//! results emitted by the testkit harness (`TESTKIT_BENCH_JSON`, one JSON
//! line per bench) against the committed `BENCH_baseline.json`.
//!
//! Two kinds of checks:
//!
//! * **absolute** — each baselined bench's fresh median must stay within
//!   `threshold_factor` (default 2x; `BENCH_CHECK_FACTOR` overrides) of
//!   its committed median, so a runaway regression fails CI even when
//!   every bench slows down together;
//! * **ratio** — named cross-bench invariants measured *within* the fresh
//!   run, immune to machine speed: e.g. the vectorized engine must stay
//!   at least `min`x faster than the Volcano engine on the
//!   `vectorized_scan` shape.
//!
//! `--write-baseline` refreshes the committed medians from a fresh run
//! (keeping the configured threshold and ratio invariants).
//!
//! JSON handling is deliberately hand-rolled: the workspace is hermetic
//! (no serde), and both files are flat machine-generated objects.

use cbqt_common::hash::HashMap;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct BenchResult {
    group: String,
    bench: String,
    median_ns: f64,
}

#[derive(Debug, Clone)]
struct Ratio {
    name: String,
    numerator: String,
    denominator: String,
    min: f64,
}

/// Extracts every brace-balanced *flat* object (no nested braces) from
/// `text`. Both files this tool reads are machine-generated with flat
/// per-bench / per-ratio objects, so this is exact for them.
fn flat_objects(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut start = None;
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => start = Some(i),
            b'}' => {
                if let Some(s) = start.take() {
                    // only emit innermost objects; the outer wrapper's
                    // opening brace was overwritten by inner ones
                    out.push(&text[s..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// `"key":"string"` field of a flat JSON object.
fn json_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// `"key":number` field of a flat JSON object.
fn json_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_results(text: &str) -> Vec<BenchResult> {
    flat_objects(text)
        .into_iter()
        .filter(|o| json_str(o, "type").as_deref() == Some("bench"))
        .filter_map(|o| {
            Some(BenchResult {
                group: json_str(o, "group")?,
                bench: json_str(o, "bench")?,
                median_ns: json_num(o, "median_ns")?,
            })
        })
        .collect()
}

fn parse_baseline(text: &str) -> (f64, Vec<BenchResult>, Vec<Ratio>) {
    let threshold = json_num(text, "threshold_factor").unwrap_or(2.0);
    let mut benches = Vec::new();
    let mut ratios = Vec::new();
    for o in flat_objects(text) {
        if let Some(min) = json_num(o, "min") {
            if let (Some(name), Some(num), Some(den)) = (
                json_str(o, "name"),
                json_str(o, "numerator"),
                json_str(o, "denominator"),
            ) {
                ratios.push(Ratio {
                    name,
                    numerator: num,
                    denominator: den,
                    min,
                });
                continue;
            }
        }
        if let (Some(group), Some(bench), Some(median_ns)) = (
            json_str(o, "group"),
            json_str(o, "bench"),
            json_num(o, "median_ns"),
        ) {
            benches.push(BenchResult {
                group,
                bench,
                median_ns,
            });
        }
    }
    (threshold, benches, ratios)
}

fn render_baseline(threshold: f64, benches: &[BenchResult], ratios: &[Ratio]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"threshold_factor\": {threshold},\n"));
    s.push_str("  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{}}}{}\n",
            b.group,
            b.bench,
            b.median_ns as u64,
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"ratios\": [\n");
    for (i, r) in ratios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\":\"{}\",\"numerator\":\"{}\",\"denominator\":\"{}\",\"min\":{}}}{}\n",
            r.name,
            r.numerator,
            r.denominator,
            r.min,
            if i + 1 < ratios.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn default_ratios() -> Vec<Ratio> {
    vec![Ratio {
        name: "vectorized_speedup".to_string(),
        numerator: "vectorized_scan/volcano".to_string(),
        denominator: "vectorized_scan/vectorized".to_string(),
        min: 2.0,
    }]
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_check [--results PATH] [--baseline PATH] [--write-baseline]\n\
         \n\
         Gates fresh bench results (default target/bench_results.json, the\n\
         file ci/bench_smoke.sh collects via TESTKIT_BENCH_JSON) against the\n\
         committed baseline (default BENCH_baseline.json). --write-baseline\n\
         refreshes the baseline medians from the fresh results instead,\n\
         preserving the threshold and ratio invariants.\n\
         BENCH_CHECK_FACTOR overrides the baseline's threshold_factor."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut results_path = "target/bench_results.json".to_string();
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--results" => results_path = args.next().unwrap_or_else(|| usage()),
            "--baseline" => baseline_path = args.next().unwrap_or_else(|| usage()),
            "--write-baseline" => write_baseline = true,
            _ => usage(),
        }
    }

    let results_text = match std::fs::read_to_string(&results_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read results {results_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results = parse_results(&results_text);
    if results.is_empty() {
        eprintln!("bench_check: no bench lines found in {results_path}");
        return ExitCode::FAILURE;
    }
    let mut fresh: HashMap<String, f64> = HashMap::default();
    for r in &results {
        // last write wins, so a re-run appended to the same file gates on
        // its most recent measurements
        fresh.insert(format!("{}/{}", r.group, r.bench), r.median_ns);
    }

    if write_baseline {
        let (threshold, _, ratios) = std::fs::read_to_string(&baseline_path)
            .map(|t| parse_baseline(&t))
            .unwrap_or((2.0, Vec::new(), default_ratios()));
        let ratios = if ratios.is_empty() {
            default_ratios()
        } else {
            ratios
        };
        let mut dedup: Vec<BenchResult> = Vec::new();
        for r in &results {
            let key = format!("{}/{}", r.group, r.bench);
            dedup.retain(|d| format!("{}/{}", d.group, d.bench) != key);
            dedup.push(BenchResult {
                median_ns: fresh[&key],
                ..r.clone()
            });
        }
        if let Err(e) = std::fs::write(&baseline_path, render_baseline(threshold, &dedup, &ratios))
        {
            eprintln!("bench_check: cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "bench_check: wrote {baseline_path} with {} bench(es), {} ratio(s)",
            dedup.len(),
            ratios.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut threshold, baseline, ratios) = parse_baseline(&baseline_text);
    if let Ok(f) = std::env::var("BENCH_CHECK_FACTOR") {
        match f.trim().parse() {
            Ok(v) => threshold = v,
            Err(_) => {
                eprintln!("bench_check: BENCH_CHECK_FACTOR is not a number: {f}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failures = 0u32;
    for b in &baseline {
        let key = format!("{}/{}", b.group, b.bench);
        match fresh.get(&key) {
            None => {
                println!("FAIL {key}: baselined bench missing from results");
                failures += 1;
            }
            Some(&m) => {
                let limit = b.median_ns * threshold;
                let verdict = if m <= limit { "ok  " } else { "FAIL" };
                println!(
                    "{verdict} {key}: median {:.2}ms vs baseline {:.2}ms (limit {threshold}x)",
                    m / 1e6,
                    b.median_ns / 1e6
                );
                if m > limit {
                    failures += 1;
                }
            }
        }
    }
    for r in &ratios {
        match (fresh.get(&r.numerator), fresh.get(&r.denominator)) {
            (Some(&num), Some(&den)) if den > 0.0 => {
                let ratio = num / den;
                let verdict = if ratio >= r.min { "ok  " } else { "FAIL" };
                println!(
                    "{verdict} ratio {}: {} / {} = {ratio:.2}x (min {}x)",
                    r.name, r.numerator, r.denominator, r.min
                );
                if ratio < r.min {
                    failures += 1;
                }
            }
            _ => {
                println!(
                    "FAIL ratio {}: {} or {} missing from results",
                    r.name, r.numerator, r.denominator
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        println!("bench_check: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!(
        "bench_check: all {} bench(es) and {} ratio(s) within limits",
        baseline.len(),
        ratios.len()
    );
    ExitCode::SUCCESS
}
