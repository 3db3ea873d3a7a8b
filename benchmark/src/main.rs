//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cbqt-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                [--repeat N] [--write-expected]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod checksum;
mod expected;
mod metrics;
mod rng;
mod runner;
mod span;
mod stats;
mod workloads;

use expected::Expected;
use metrics::{json_number, metrics_json, Metric, END_TO_END};
use runner::Outcome;
use span::SpanLog;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::WORKLOADS;

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.0).collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            args.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("cannot read {flag} {value}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| w.0 == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
                    format!("unknown workload {value}; choose one of {names:?} or all")
                })?;
                args.workloads = vec![known.0];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The benchmark's own directory (`benchmark/`), given by `run.sh`.
fn bench_dir() -> PathBuf {
    std::env::var_os("CBQT_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn load_expected(seed: u64) -> Result<Option<Expected>, String> {
    let path = bench_dir().join(format!("expected/seed{seed}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(text) => Expected::parse(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

fn print_outcome(o: &Outcome, traced: bool) {
    let kind = if traced { "traced" } else { "plain" };
    println!("\n== {} ({kind} run, {} passes) ==", o.workload, o.passes);
    for m in o.metrics.iter().chain(&o.extra) {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, file, now) in &o.count_drift {
        println!("  count moved: {name} was {file} in the expected file, is {now}");
    }
    println!(
        "  ops_failed / ops_attempted: {} / {}",
        o.failed, o.attempted
    );
    if let Some(f) = &o.first_failure {
        println!("  FIRST FAILURE: {f}");
    }
}

/// The contract's result line.
fn result_line(outcomes: &[Outcome], qualify: bool) -> String {
    let metrics: Vec<Metric> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |m| Metric {
                name: if qualify {
                    format!("{}.{}", o.workload, m.name)
                } else {
                    m.name.clone()
                },
                ..m.clone()
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics_json(&metrics)
    )
}

fn environment_json(args: &Args, traced: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"client_threads\": 1, \"loop\": \"closed\", \"parallelism\": 1}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("CBQT_BENCH_RUSTC"),
        env("CBQT_BENCH_COMMIT"),
        args.seed,
        json_number(args.seconds),
        traced
    )
}

fn outcome_json(o: &Outcome) -> String {
    format!(
        "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"passes\": {}, \
         \"metrics\": {}, \"extra\": {}}}",
        o.workload,
        o.correct(),
        o.attempted,
        o.failed,
        o.passes,
        metrics_json(&o.metrics),
        metrics_json(&o.extra)
    )
}

/// `out/results.json`: the environment and every set's outcomes.
fn write_results(args: &Args, traced: bool, sets: &[Vec<Outcome>]) -> std::io::Result<()> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let sets_json: Vec<String> = sets
        .iter()
        .map(|set| {
            let rows: Vec<String> = set.iter().map(outcome_json).collect();
            format!("[{}]", rows.join(", "))
        })
        .collect();
    std::fs::write(
        dir.join("results.json"),
        format!(
            "{{\"environment\": {}, \"sets\": [{}]}}\n",
            environment_json(args, traced),
            sets_json.join(",\n ")
        ),
    )
}

fn write_trace(logs: &[(String, SpanLog)]) -> std::io::Result<()> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(dir.join("trace.jsonl"))?);
    for (workload, log) in logs {
        log.write_jsonl(workload, &mut file)?;
    }
    std::io::Write::flush(&mut file)
}

/// Per end-to-end metric × workload over the repeated sets: median,
/// quartiles, and whether the sets agree within the metric's bound. A
/// pairing whose sets disagree by more than the bound is "unresolved":
/// no later comparison on it could tell a change from noise.
fn repeat_report(sets: &[Vec<Outcome>]) -> (String, bool) {
    let mut text = String::from(
        "\n== repeat: agreement of the sets, per end-to-end metric x workload ==\n  \
         workload         metric         better       median          q1          q3   spread    range   bound  verdict\n",
    );
    let mut all_steady = true;
    for (i, first) in sets[0].iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|s| s[i].metric(m.name)).collect();
            let med = stats::median(&values).unwrap_or(0.0);
            let [q1, _, q3] = stats::quartiles(&values).unwrap_or([med; 3]);
            let spread = stats::spread(&values).unwrap_or(0.0);
            let sorted = stats::sorted(&values);
            let range = if med > 0.0 {
                (sorted[sorted.len() - 1] - sorted[0]) / med
            } else {
                0.0
            };
            let steady = range <= m.bound;
            all_steady &= steady;
            let _ = writeln!(
                text,
                "  {:<16} {:<14} {:<6} {:>12.3} {:>11.3} {:>11.3} {:>7.1}% {:>7.1}% {:>6.0}%  {}",
                first.workload,
                m.name,
                m.better.as_str(),
                med,
                q1,
                q3,
                spread * 100.0,
                range * 100.0,
                m.bound * 100.0,
                if steady { "steady" } else { "unresolved" }
            );
        }
    }
    (text, all_steady)
}

fn write_expected(args: &Args, outcomes: &[Outcome]) -> Result<(), String> {
    let mut file = load_expected(args.seed)?.unwrap_or_default();
    for o in outcomes {
        let entry = file.0.entry(o.workload.clone()).or_default();
        entry.chunks = o.digests.clone();
        entry.counts = o.counts.iter().cloned().collect();
    }
    let path = bench_dir().join(format!("expected/seed{}.txt", args.seed));
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
        .and_then(|()| std::fs::write(&path, file.render(args.seed)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    // writing the expected file needs the traced run's counts, and must
    // not be checked against the file it is about to replace
    let traced = args.trace || args.write_expected;
    let expected = if args.write_expected {
        None
    } else {
        load_expected(args.seed)?
    };
    println!(
        "cbqt benchmark: seed {}, {} s per workload, closed loop, 1 client thread, parallelism = 1, {}",
        args.seed,
        args.seconds,
        if traced { "traced run (per-layer metrics)" } else { "plain run (end-to-end metrics, tracing off)" }
    );
    println!("environment: {}", environment_json(args, traced));
    if expected.is_none() && !args.write_expected {
        println!(
            "note: no expected/seed{}.txt; answers are checked against the twin / model only",
            args.seed
        );
    }

    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    let mut logs: Vec<(String, SpanLog)> = Vec::new();
    for set in 0..args.repeat {
        if args.repeat > 1 {
            println!("\n#### set {} of {} ####", set + 1, args.repeat);
        }
        let mut outcomes = Vec::new();
        for &name in &args.workloads {
            let expect = expected.as_ref().and_then(|e| e.0.get(name));
            let outcome = if traced {
                let mut log = SpanLog::default();
                let o = runner::run_traced(name, args.seed, args.seconds, expect, &mut log);
                logs.push((name.to_string(), log));
                o
            } else {
                runner::run_plain(name, args.seed, args.seconds, expect)
            };
            print_outcome(&outcome, traced);
            outcomes.push(outcome);
        }
        sets.push(outcomes);
    }

    let mut ok = sets.iter().flatten().all(Outcome::correct);
    if args.repeat > 1 && !traced {
        let (text, steady) = repeat_report(&sets);
        print!("{text}");
        ok &= steady;
    }
    if args.write_expected {
        write_expected(args, &sets[0])?;
    }
    write_results(args, traced, &sets)
        .map_err(|e| format!("cannot write out/results.json: {e}"))?;
    if traced {
        write_trace(&logs).map_err(|e| format!("cannot write out/trace.jsonl: {e}"))?;
    }
    let last = sets.last().expect("at least one set");
    println!("{}", result_line(last, last.len() > 1));
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cbqt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cbqt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
