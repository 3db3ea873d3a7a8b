//! Per-operator runtime counters backing `EXPLAIN ANALYZE` and the
//! cardinality-feedback loop.
//!
//! When enabled on an [`Engine`](crate::Engine), every execution of a
//! block or join-tree node records rows produced, work units and wall
//! time, keyed by the element's [`PlanNodeId`]: its position, the
//! ordinal of the canonical plan walk. The engine carries the id of the
//! element it runs, so a sub-plan shared by `Arc` at two positions keeps
//! two sets of counters, and a reader walking the same plan
//! ([`BlockPlan::visit_entities`](cbqt_optimizer::BlockPlan::visit_entities),
//! `explain_annotated`) is handed the ids to look up. Ids are dense
//! positions, so the counters are a `Vec` indexed by id. A metrics table
//! also carries the [fingerprint](PlanIndex::fingerprint) of the plan it
//! was recorded against, so a reader holding some other plan can tell.

use cbqt_optimizer::{PlanIndex, PlanNodeId};
use std::time::Duration;

/// Runtime counters for one plan operator, accumulated across all of its
/// executions in a single query run (lateral views and correlated
/// subqueries execute many times).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpMetrics {
    /// Total rows produced across all executions.
    pub rows: u64,
    /// Number of executions. Correlation-cache hits do not execute and
    /// are therefore not counted.
    pub execs: u64,
    /// Work units, inclusive of children (same currency as the cost
    /// model, so `work` is directly comparable to estimated cost).
    pub work: f64,
    /// Wall time, inclusive of children.
    pub elapsed: Duration,
}

impl OpMetrics {
    /// Rows produced per execution — the quantity a per-execution
    /// cardinality estimate predicts (correlated operators re-execute,
    /// so cumulative rows alone would overstate their cardinality).
    pub fn rows_per_exec(&self) -> f64 {
        self.rows as f64 / self.execs.max(1) as f64
    }
}

/// Side table of [`OpMetrics`] per plan element, filled in by the engine
/// and consumed by `BlockPlan::explain_annotated` and the feedback
/// harvester.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Counters by position; an element never executed has `execs == 0`.
    ops: Vec<OpMetrics>,
    /// Fingerprint of the plan these counters were recorded against
    /// (0 until [`ExecMetrics::bind`]).
    fingerprint: u64,
}

impl ExecMetrics {
    pub fn new() -> ExecMetrics {
        ExecMetrics::default()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements executed at least once.
    pub fn len(&self) -> usize {
        self.ops.iter().filter(|m| m.execs > 0).count()
    }

    /// Binds the table to the plan `index` describes, so a reader can
    /// check it holds the same plan ([`ExecMetrics::matches`]), and
    /// makes room for one counter per position.
    pub fn bind(&mut self, index: &PlanIndex) {
        self.fingerprint = index.fingerprint();
        self.ops.clear();
        self.ops.resize(index.len(), OpMetrics::default());
    }

    /// True when this table was recorded against a plan structurally
    /// identical to the one `index` describes.
    pub fn matches(&self, index: &PlanIndex) -> bool {
        self.fingerprint == index.fingerprint()
    }

    /// Accumulates one execution of the element `id`.
    pub fn record(&mut self, id: PlanNodeId, rows: u64, work: f64, elapsed: Duration) {
        let at = id.0 as usize;
        if at >= self.ops.len() {
            self.ops.resize(at + 1, OpMetrics::default());
        }
        let m = &mut self.ops[at];
        m.rows += rows;
        m.execs += 1;
        m.work += work;
        m.elapsed += elapsed;
    }

    /// Counters for the element at position `id`; `None` when the run
    /// never reached it.
    pub fn get(&self, id: PlanNodeId) -> Option<OpMetrics> {
        self.ops.get(id.0 as usize).filter(|m| m.execs > 0).copied()
    }

    /// All `(id, metrics)` pairs in canonical plan order. Ids are
    /// structural, so two engines run against *any* allocation of the
    /// same plan produce directly comparable snapshots — the
    /// differential oracle compares these.
    pub fn snapshot(&self) -> Vec<(PlanNodeId, OpMetrics)> {
        let ops = self.ops.iter().enumerate();
        ops.filter(|(_, m)| m.execs > 0)
            .map(|(at, &m)| (PlanNodeId(at as u32), m))
            .collect()
    }

    /// EXPLAIN-line annotation for the element at position `id`.
    /// Operators the run never reached (e.g. pruned by an empty outer
    /// side) are labelled explicitly so estimation gaps stand out.
    pub fn annotate(&self, id: PlanNodeId) -> Option<String> {
        Some(match self.get(id) {
            Some(m) => format!(
                "[actual rows={} execs={} work={:.0} time={:.3}ms]",
                m.rows,
                m.execs,
                m.work,
                m.elapsed.as_secs_f64() * 1e3,
            ),
            None => "[never executed]".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_across_executions() {
        let mut m = ExecMetrics::new();
        m.record(PlanNodeId(42), 10, 5.0, Duration::from_millis(1));
        m.record(PlanNodeId(42), 7, 2.5, Duration::from_millis(2));
        let op = m.get(PlanNodeId(42)).unwrap();
        assert_eq!(m.get(PlanNodeId(41)), None, "never executed");
        assert_eq!(m.len(), 1);
        assert_eq!(op.rows, 17);
        assert_eq!(op.execs, 2);
        assert!((op.work - 7.5).abs() < 1e-9);
        assert_eq!(op.elapsed, Duration::from_millis(3));
        assert!((op.rows_per_exec() - 8.5).abs() < 1e-9);
    }

    #[test]
    fn rows_per_exec_is_zero_safe() {
        let m = OpMetrics::default();
        assert_eq!(m.rows_per_exec(), 0.0);
    }
}
