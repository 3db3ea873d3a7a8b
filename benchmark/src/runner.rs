//! Runs one workload: the plain run for the end-to-end metrics (tracing
//! off) and the traced run for the per-layer metrics.

use crate::checksum::Checksum;
use crate::expected::{mismatched_chunks, WorkloadExpect};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::span::{LayerTime, SpanLog};
use crate::stats::{median, tail};
use crate::workloads::{self, chunk_digests, Counters, Pass, Staged, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// `setup_s` is the median over several set-ups (the workload set up
/// last is the one measured): at least `MIN_SETUPS`, then more until
/// they took `SETUP_BUDGET_S` together or `MAX_SETUPS` were made, so a
/// milliseconds-long set-up is sampled often enough to be steady.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: String,
    /// The contract's metrics: every end-to-end one (plain run) or every
    /// per-layer one (traced run).
    pub metrics: Vec<Metric>,
    /// Reported beside them, not gated.
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub passes: usize,
    /// Digests of the reference answers, as the expected file holds them.
    pub digests: Vec<Checksum>,
    /// Exact counts of the traced run, as printed into the expected file.
    pub counts: Vec<(String, String)>,
    /// Counts that differ from the expected file: `(name, file, now)`.
    pub count_drift: Vec<(String, String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn note_failure(&mut self, failed: u64, what: Option<String>) {
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure = what;
        }
    }
}

fn fresh(name: &str, seed: u64) -> Box<dyn Workload> {
    workloads::setup(name, seed).expect("workload names are checked by the caller")
}

fn timed_setup(name: &str, seed: u64, samples: &mut Vec<f64>) -> Box<dyn Workload> {
    let t0 = Instant::now();
    let w = fresh(name, seed);
    samples.push(t0.elapsed().as_secs_f64());
    w
}

/// Compares the reference answers with `expected/seed<N>.txt`; each
/// chunk is one attempted check, each differing chunk one failure.
fn check_against_file(w: &dyn Workload, expect: Option<&WorkloadExpect>, out: &mut Outcome) {
    out.digests = chunk_digests(&w.reference());
    let Some(expect) = expect else { return };
    let bad = mismatched_chunks(expect, &out.digests);
    out.attempted += out.digests.len().max(expect.chunks.len()) as u64;
    let what = bad.first().map(|i| {
        format!(
            "reference answers differ from the expected file in chunk {i} (statements {}..{})",
            i * workloads::CHUNK,
            (i + 1) * workloads::CHUNK
        )
    });
    out.note_failure(bad.len() as u64, what);
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn median_u64(values: &[u64]) -> Option<f64> {
    median(&values.iter().map(|v| *v as f64).collect::<Vec<_>>())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The latency of each statement of the list: the median, over the run's
/// passes, of the latency at that position. One hiccup of the host (this
/// sandbox's CPU is shared) then moves one sample of one statement, not a
/// whole pass's sum.
fn slot_medians(passes: &[Pass], lat: impl Fn(&Pass) -> &Vec<u64>) -> Vec<f64> {
    (0..lat(&passes[0]).len())
        .filter_map(|i| median_u64(&passes.iter().map(|p| lat(p)[i]).collect::<Vec<_>>()))
        .collect()
}

/// The end-to-end run: tracing off, passes repeated for `seconds`. Each
/// statement's latency is its median over the passes; throughput and the
/// read median are computed from those.
pub fn run_plain(name: &str, seed: u64, seconds: f64, expect: Option<&WorkloadExpect>) -> Outcome {
    let mut out = Outcome {
        workload: name.to_string(),
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let mut w = timed_setup(name, seed, &mut setups);
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(w);
        w = timed_setup(name, seed, &mut setups);
    }
    check_against_file(w.as_ref(), expect, &mut out);

    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        let pass = w.pass(None);
        measured += t0.elapsed();
        out.attempted += pass.attempted();
        out.note_failure(pass.failed, pass.first_failure.clone());
        passes.push(pass);
        if measured.as_secs_f64() >= seconds {
            break;
        }
        if w.fresh_each_pass() {
            drop(w);
            w = timed_setup(name, seed, &mut setups);
        }
    }
    out.passes = passes.len();
    let reads = slot_medians(&passes, |p| &p.read_ns);
    let writes = slot_medians(&passes, |p| &p.write_ns);
    for m in &END_TO_END {
        let value = match m.name {
            "stmts_per_s" => {
                (reads.len() + writes.len()) as f64
                    / ((reads.iter().sum::<f64>() + writes.iter().sum::<f64>()) / 1e9)
            }
            "read_p50_us" => median(&reads).map_or(0.0, us),
            "setup_s" => median(&setups).unwrap_or(0.0),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        out.metrics.push(Metric {
            name: m.name.to_string(),
            value,
            unit: m.unit,
        });
    }

    let mut extra = |name: &str, value: f64, unit: &'static str| {
        out.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    let pooled = |lat: fn(&Pass) -> &Vec<u64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| lat(p).iter().map(|v| us(*v as f64)))
            .collect()
    };
    let all_reads = pooled(|p| &p.read_ns);
    extra("read_samples", all_reads.len() as f64, "count");
    if let Some((p, v)) = tail(&all_reads) {
        extra(&format!("read_p{p}_us"), v, "us");
    }
    if !writes.is_empty() {
        let all_writes = pooled(|p| &p.write_ns);
        extra("write_p50_us", median(&writes).map_or(0.0, us), "us");
        extra("write_samples", all_writes.len() as f64, "count");
        if let Some((p, v)) = tail(&all_writes) {
            extra(&format!("write_p{p}_us"), v, "us");
        }
    }
    extra("passes", passes.len() as f64, "count");
    extra("stmts_per_pass", passes[0].attempted() as f64, "count");
    extra("setup_samples", setups.len() as f64, "count");
    extra("peak_rss_mb", peak_rss_mb(), "MB");
    extra("ops_attempted", out.attempted as f64, "count");
    extra("ops_failed", out.failed as f64, "count");
    out
}

/// Sums over the served passes of a traced run.
#[derive(Default)]
struct Served {
    read_ns: u64,
    write_ns: u64,
    reads: u64,
    optimize_ns: u64,
    execute_ns: u64,
    reoptimized: u64,
    counters: Counters,
    drift: Vec<f64>,
    write_p50_us: Vec<f64>,
}

impl Served {
    fn add(&mut self, pass: &Pass, before: Counters, after: Counters) {
        self.read_ns += pass.read_ns.iter().sum::<u64>();
        self.write_ns += pass.write_ns.iter().sum::<u64>();
        self.reads += pass.read_ns.len() as u64;
        self.optimize_ns += pass.optimize_ns;
        self.execute_ns += pass.execute_ns;
        self.reoptimized += pass.reoptimized;
        self.counters.cache_hits += after.cache_hits - before.cache_hits;
        self.counters.cache_misses += after.cache_misses - before.cache_misses;
        self.counters.invalidations += after.invalidations - before.invalidations;
        self.counters.feedback_entries = after.feedback_entries;
        if !pass.write_ns.is_empty() {
            // read latency of the last tenth of the pass over the first
            // tenth: how much the accumulated versions slow a scan
            let tenth = (pass.read_ns.len() / 10).max(1);
            let first = median_u64(&pass.read_ns[..tenth]);
            let last = median_u64(&pass.read_ns[pass.read_ns.len() - tenth..]);
            if let (Some(first), Some(last)) = (first, last) {
                self.drift.push(last / first);
            }
            self.write_p50_us.extend(median_u64(&pass.write_ns).map(us));
        }
    }
}

/// Per span name, the median over the replays of its busy and self time.
fn median_layer_times(
    replays: &[BTreeMap<&'static str, LayerTime>],
) -> BTreeMap<&'static str, LayerTime> {
    let over = |name: &str, f: fn(&LayerTime) -> u64| {
        let values: Vec<u64> = replays.iter().filter_map(|r| r.get(name).map(f)).collect();
        median_u64(&values).unwrap_or(0.0) as u64
    };
    replays[0]
        .iter()
        .map(|(&name, t)| {
            let t = LayerTime {
                count: t.count,
                busy_ns: over(name, |t| t.busy_ns),
                self_ns: over(name, |t| t.self_ns),
            };
            (name, t)
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run, in rounds for `seconds`: a staged replay (spans and
/// exact counts), an untraced served pass, a traced served pass. Layer
/// times are per-span-name medians over the rounds' replays and
/// `trace.coverage` pairs each replay with the untraced pass right after
/// it, so a slow minute of the host moves both sides alike. Only the first
/// round's spans are kept for `trace.jsonl`; later rounds record into a
/// scratch log, so the file stays a few megabytes.
pub fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    expect: Option<&WorkloadExpect>,
    log: &mut SpanLog,
) -> Outcome {
    let mut out = Outcome {
        workload: name.to_string(),
        ..Outcome::default()
    };
    let mut w = fresh(name, seed);
    check_against_file(w.as_ref(), expect, &mut out);

    let mut first: Option<Staged> = None;
    let mut replay_times: Vec<BTreeMap<&'static str, LayerTime>> = Vec::new();
    let mut served = Served::default();
    let (mut plain_tput, mut traced_tput, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = SpanLog::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || traced_tput.is_empty() {
        scratch.clear();
        let kept = first.is_none();
        let spans = if kept { &mut *log } else { &mut scratch };

        // the replay runs on fresh state; its counts are the same in
        // every round, so the first round's are reported
        if !kept && w.fresh_each_pass() {
            drop(w);
            w = fresh(name, seed);
        }
        let start = spans.len();
        let staged = w.staged(spans);
        out.attempted += staged.statements;
        out.note_failure(staged.failed, staged.first_failure.clone());
        let times = spans.by_name_since(start);
        let staged_mean_ns = ratio(
            times.get("staged").map_or(0.0, |t| t.busy_ns as f64),
            staged.statements as f64,
        );
        replay_times.push(times);
        let n = staged.statements as usize;
        first.get_or_insert(staged);

        for traced in [false, true] {
            if w.fresh_each_pass() {
                drop(w);
                w = fresh(name, seed);
            }
            let before = w.counters();
            let pass = w.pass(traced.then_some(&mut *spans));
            served.add(&pass, before, w.counters());
            out.attempted += pass.attempted();
            out.note_failure(pass.failed, pass.first_failure.clone());
            out.passes += 1;
            if traced {
                traced_tput.push(pass.stmts_per_s());
            } else {
                plain_tput.push(pass.stmts_per_s());
                // end-to-end latency of the statements the replay staged
                let e2e_mean_ns = if n as u64 == pass.attempted() {
                    pass.timed_ns() as f64 / n as f64
                } else {
                    pass.read_ns[..n].iter().sum::<u64>() as f64 / n as f64
                };
                coverage.push(ratio(staged_mean_ns, e2e_mean_ns));
            }
        }
    }
    let staged = first.expect("at least one round ran");
    let staged_times = median_layer_times(&replay_times);

    let busy = |span: &str| staged_times.get(span).map_or(0.0, |t| t.busy_ns as f64);
    let mean_us = |span: &str| {
        staged_times
            .get(span)
            .map_or(0.0, |t| us(ratio(t.busy_ns as f64, t.count as f64)))
    };
    let wall = (served.read_ns + served.write_ns) as f64;
    let serve_self = served.read_ns as f64 - (served.optimize_ns + served.execute_ns) as f64;
    let c = served.counters;
    for (metric, unit, _) in PER_LAYER {
        let value = match metric {
            "sql.parse_us" => mean_us("sql.parse"),
            "sql.parameterize_us" => mean_us("sql.parameterize"),
            "core.serve_self_us" => us(ratio(serve_self, served.reads as f64)),
            "core.serve_self_share" => ratio(serve_self, wall),
            "core.optimize_share" => ratio(served.optimize_ns as f64, wall),
            "core.exec_share" => ratio(served.execute_ns as f64, wall),
            "core.dml_share" => ratio(served.write_ns as f64, wall),
            "core.cache_hit_ratio" => {
                ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64)
            }
            "core.invalidations" => c.invalidations as f64,
            "core.reoptimized" => served.reoptimized as f64,
            "qgm.build_us" => mean_us("qgm.build"),
            "transform.optimize_us" => mean_us("transform.optimize"),
            "transform.heuristic_us" => mean_us("transform.heuristic"),
            "transform.search_overhead" => {
                let h = busy("transform.heuristic");
                if h > 0.0 {
                    busy("transform.cost_based") / h - 1.0
                } else {
                    0.0
                }
            }
            "transform.states" => staged.states as f64,
            "transform.blocks_costed" => staged.blocks_costed as f64,
            "transform.annotation_hit_ratio" => ratio(
                staged.annotation_hits as f64,
                (staged.annotation_hits + staged.blocks_costed) as f64,
            ),
            "transform.cutoffs" => staged.cutoffs as f64,
            "transform.default_parallel_ratio" => {
                ratio(busy("transform.parallel0"), busy("transform.cost_based"))
            }
            "optimizer.enumerate_us" => mean_us("optimizer.enumerate"),
            "optimizer.est_cost_sum" => staged.est_cost_sum,
            "exec.run_us" => mean_us("exec.run"),
            "exec.work_units" => staged.work_units,
            "exec.work_per_row_out" => ratio(staged.work_units, staged.rows_out as f64),
            "catalog.feedback_entries" => c.feedback_entries as f64,
            "storage.write_us" => mean_us("storage.write"),
            "storage.commit_us" => mean_us("storage.commit"),
            "storage.write_p50_us" => median(&served.write_p50_us).unwrap_or(0.0),
            "storage.versions_per_live_row" => {
                ratio(staged.versions as f64, staged.live_rows as f64)
            }
            "storage.scan_drift" => median(&served.drift).unwrap_or(0.0),
            "trace.coverage" => median(&coverage).unwrap_or(0.0),
            "trace.overhead_frac" => {
                1.0 - ratio(
                    median(&traced_tput).unwrap_or(0.0),
                    median(&plain_tput).unwrap_or(0.0),
                )
            }
            "trace.spans" => log.len() as f64,
            "trace.staged_statements" => staged.statements as f64,
            "trace.failed" => out.failed as f64,
            other => unreachable!("per-layer metric {other} has no measurement"),
        };
        out.metrics.push(Metric {
            name: metric.to_string(),
            value,
            unit,
        });
    }

    // busy and self time of every span name, for the human report
    for (span, t) in log.by_name() {
        for (kind, ns) in [("busy", t.busy_ns), ("self", t.self_ns)] {
            out.extra.push(Metric {
                name: format!("span.{span}.{kind}_ms"),
                value: ns as f64 / 1e6,
                unit: "ms",
            });
        }
    }

    for name in crate::metrics::EXACT_COUNTS {
        let now = crate::metrics::json_number(out.metric(name).unwrap_or(0.0));
        if let Some(file) = expect.and_then(|e| e.counts.get(name)) {
            if *file != now {
                out.count_drift
                    .push((name.to_string(), file.clone(), now.clone()));
            }
        }
        out.counts.push((name.to_string(), now));
    }
    out
}
