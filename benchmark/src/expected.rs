//! `expected/seed<N>.txt`: committed digests of the reference answers
//! and the exact counts of the traced run. The twin database and the
//! `mixed_rw` model are computed by the code under test's own process; a
//! bug that moves the measured engine and its reference together still
//! shows as a difference from this file.
//!
//! Checksum lines gate correctness (a query's answer must never change).
//! Count lines do not: a later change may legitimately explore fewer
//! states, so a moved count is reported, not failed.

use crate::checksum::Checksum;
use std::collections::BTreeMap;
use std::fmt::Write;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadExpect {
    /// One digest per chunk of reference answers, in order.
    pub chunks: Vec<Checksum>,
    /// Exact counts of the traced run, by metric name, as printed.
    pub counts: BTreeMap<String, String>,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Expected(pub BTreeMap<String, WorkloadExpect>);

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut out = Expected::default();
        let mut current: Option<&mut WorkloadExpect> = None;
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            let bad = || format!("expected file line {}: cannot read {line:?}", n + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = Some(out.0.entry(name.to_string()).or_default());
                continue;
            }
            let section = current.as_deref_mut().ok_or_else(bad)?;
            let mut words = line.split_whitespace();
            match (words.next(), words.next(), words.next()) {
                (Some("chunk"), Some(index), Some(sum)) => {
                    if index.parse() != Ok(section.chunks.len()) {
                        return Err(bad());
                    }
                    section.chunks.push(Checksum::parse(sum).ok_or_else(bad)?);
                }
                (Some("count"), Some(name), Some(value)) => {
                    section.counts.insert(name.to_string(), value.to_string());
                }
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }

    pub fn render(&self, seed: u64) -> String {
        let mut text = format!(
            "# Reference digests and exact counts for --seed {seed}.\n\
             # Regenerate with: benchmark/run.sh --seed {seed} --write-expected\n\
             # chunk = digest of up to {} consecutive reference answers (rows:sum).\n\
             # count = exact count from the traced run; informational, not gating.\n",
            crate::workloads::CHUNK
        );
        for (name, w) in &self.0 {
            let _ = writeln!(text, "\n[{name}]");
            for (i, c) in w.chunks.iter().enumerate() {
                let _ = writeln!(text, "chunk {i} {}", c.to_text());
            }
            for (k, v) in &w.counts {
                let _ = writeln!(text, "count {k} {v}");
            }
        }
        text
    }
}

/// Indexes of the chunks whose digest differs from the file's (a missing
/// or surplus chunk differs too).
pub fn mismatched_chunks(expect: &WorkloadExpect, actual: &[Checksum]) -> Vec<usize> {
    (0..expect.chunks.len().max(actual.len()))
        .filter(|&i| expect.chunks.get(i) != actual.get(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expected {
        let mut e = Expected::default();
        let w = e.0.entry("cold_joins".to_string()).or_default();
        w.chunks = vec![
            Checksum {
                rows: 3,
                sum: 0xabc,
            },
            Checksum { rows: 0, sum: 1 },
        ];
        w.counts
            .insert("transform.states".to_string(), "17".to_string());
        e.0.entry("warm_scan".to_string()).or_default().chunks = vec![Checksum { rows: 9, sum: 9 }];
        e
    }

    #[test]
    fn render_then_parse_round_trips() {
        let e = sample();
        assert_eq!(Expected::parse(&e.render(42)), Ok(e));
    }

    #[test]
    fn parse_rejects_garbage_and_out_of_order_chunks() {
        assert!(
            Expected::parse("chunk 0 1:1").is_err(),
            "line before any section"
        );
        assert!(
            Expected::parse("[w]\nchunk 1 1:1").is_err(),
            "chunk index skips 0"
        );
        assert!(Expected::parse("[w]\nchunk 0 zz").is_err());
        assert!(Expected::parse("[w]\nwhat is this").is_err());
    }

    #[test]
    fn a_flipped_checksum_is_a_mismatch() {
        let e = sample();
        let w = &e.0["cold_joins"];
        assert!(mismatched_chunks(w, &w.chunks).is_empty());
        let mut flipped = w.chunks.clone();
        flipped[1].sum ^= 1;
        assert_eq!(mismatched_chunks(w, &flipped), vec![1]);
        assert_eq!(mismatched_chunks(w, &w.chunks[..1]), vec![1]);
    }
}
