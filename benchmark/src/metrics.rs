//! The metric names, units, directions and regression bounds. They are
//! repeated in `BENCHMARK.json`; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the engine sees. Measured with tracing off.
///
/// The bounds are the largest the contract allows. The issue's rule is
/// max(10%, 2 x the spread observed over >= 5 runs): on this sandbox the
/// host's speed drifts by +-20% over minutes (see README, "Noise"), ten-run
/// quartile spreads of 2-27% were observed, and twice that is capped here.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Metrics of single layers, taken in the traced run. `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 35] = [
    ("sql.parse_us", "us", Better::Lower),
    ("sql.parameterize_us", "us", Better::Lower),
    ("core.serve_self_us", "us", Better::Lower),
    ("core.serve_self_share", "ratio", Better::Lower),
    ("core.optimize_share", "ratio", Better::Lower),
    ("core.exec_share", "ratio", Better::Lower),
    ("core.dml_share", "ratio", Better::Lower),
    ("core.cache_hit_ratio", "ratio", Better::Higher),
    ("core.invalidations", "count", Better::Lower),
    ("core.reoptimized", "count", Better::Lower),
    ("qgm.build_us", "us", Better::Lower),
    ("transform.optimize_us", "us", Better::Lower),
    ("transform.heuristic_us", "us", Better::Lower),
    ("transform.search_overhead", "ratio", Better::Lower),
    ("transform.states", "count", Better::Lower),
    ("transform.blocks_costed", "count", Better::Lower),
    ("transform.annotation_hit_ratio", "ratio", Better::Higher),
    ("transform.cutoffs", "count", Better::Higher),
    ("transform.default_parallel_ratio", "ratio", Better::Lower),
    ("optimizer.enumerate_us", "us", Better::Lower),
    ("optimizer.est_cost_sum", "cost", Better::Lower),
    ("exec.run_us", "us", Better::Lower),
    ("exec.work_units", "count", Better::Lower),
    ("exec.work_per_row_out", "ratio", Better::Lower),
    ("catalog.feedback_entries", "count", Better::Lower),
    ("storage.write_us", "us", Better::Lower),
    ("storage.commit_us", "us", Better::Lower),
    ("storage.write_p50_us", "us", Better::Lower),
    ("storage.versions_per_live_row", "ratio", Better::Lower),
    ("storage.scan_drift", "ratio", Better::Lower),
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("trace.spans", "count", Better::Lower),
    ("trace.staged_statements", "count", Better::Higher),
    ("trace.failed", "count", Better::Lower),
];

/// Counts that must repeat exactly for one seed on one host; recorded in
/// `expected/seed<N>.txt`.
pub const EXACT_COUNTS: [&str; 7] = [
    "transform.states",
    "transform.blocks_costed",
    "transform.cutoffs",
    "optimizer.est_cost_sum",
    "exec.work_units",
    "storage.versions_per_live_row",
    "trace.staged_statements",
];

/// One measured value with its unit, in report order.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A float with all its digits, in a form JSON accepts.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written one metric per line; each line must
    /// agree with the tables above, and nothing may be missing.
    #[test]
    fn benchmark_json_agrees_with_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let line_of = |name: &str| {
            let needle = format!("\"name\": \"{name}\"");
            text.lines()
                .find(|l| l.contains(&needle))
                .unwrap_or_else(|| panic!("{name} is missing from BENCHMARK.json"))
        };
        for m in &END_TO_END {
            let line = line_of(m.name);
            assert!(
                line.contains(&format!("\"unit\": \"{}\"", m.unit)),
                "{line}"
            );
            assert!(
                line.contains(&format!("\"better\": \"{}\"", m.better.as_str())),
                "{line}"
            );
            assert!(line.contains(&format!("\"bound\": {}", m.bound)), "{line}");
        }
        for (name, unit, better) in PER_LAYER {
            let line = line_of(name);
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
            assert!(
                line.contains(&format!("\"better\": \"{}\"", better.as_str())),
                "{line}"
            );
        }
        for (name, why) in crate::workloads::WORKLOADS {
            let line = line_of(name);
            assert!(why.len() <= 200, "{name}: why is {} characters", why.len());
            assert!(line.contains(why), "{name}: why differs in BENCHMARK.json");
        }
        let metric_lines = text.matches("\"better\":").count();
        assert_eq!(metric_lines, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.1)));
        for c in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == c), "{c}");
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(f64::NAN), "0");
        let m = [Metric {
            name: "a".into(),
            value: 0.5,
            unit: "s",
        }];
        assert_eq!(
            metrics_json(&m),
            "{\"a\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
    }
}
