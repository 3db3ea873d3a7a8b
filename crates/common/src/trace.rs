//! Structured optimizer tracing — the 10053-event idiom.
//!
//! Oracle practitioners debug the cost-based transformation framework
//! through event 10053, a text trace of every decision the optimizer
//! takes. This module is the structured equivalent for this engine: the
//! transformation framework and the physical optimizer emit one
//! [`TraceEvent`] per transformation examined, per state costed, per
//! cost cut-off taken (§3.4.1) and per cost-annotation hit or miss
//! (§3.4.2), plus the before/after SQL of the winning state.
//!
//! Tracing is **off by default and free when off**: producers hold a
//! [`Tracer`] handle (a copyable `Option<&dyn TraceSink>`) and build
//! events inside a closure that [`Tracer::emit`] never calls while the
//! tracer is disabled. Enabling costs one sink call per event.
//!
//! The crate deliberately has no dependencies: a sink is anything
//! implementing [`TraceSink`], and [`TraceBuffer`] is the bundled
//! collecting sink (interior mutability via `Mutex`, so a shared
//! `&Database` can trace concurrently).

use std::fmt;
use std::sync::Mutex;

/// One optimizer trace event.
///
/// Events appear in emission order: heuristic phase first, then per
/// cost-based transformation a `TransformBegin`, its `StateCosted` /
/// `CutoffTaken` stream and a `TransformEnd`, interspersed with
/// `AnnotationHit` / `BlockCosted` from the physical optimizer, and
/// finally `QueryRewritten` + `FinalPlan`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Summary of the heuristic (always-beneficial) rewrites of §2.
    Heuristics { summary: String },
    /// A cost-based transformation started enumerating its state space
    /// over `targets` transformation objects with the given §3.2 search
    /// strategy.
    TransformBegin {
        transform: String,
        targets: usize,
        strategy: String,
    },
    /// One state was costed on a deep copy of the query tree. `merges`
    /// is the §3.3.1 interleaving sub-choice (one flag per view created
    /// by the state; empty when the state creates no views); `cost` is
    /// `None` when the §3.4.1 cost cut-off aborted the evaluation.
    StateCosted {
        transform: String,
        state: Vec<usize>,
        merges: Vec<bool>,
        cost: Option<f64>,
    },
    /// The §3.4.1 cost cut-off aborted the state above: its partial cost
    /// already exceeded the best complete state.
    CutoffTaken {
        transform: String,
        state: Vec<usize>,
    },
    /// The winning state of the transformation was applied to the main
    /// query tree.
    TransformEnd {
        transform: String,
        best_state: Vec<usize>,
        interleaved: bool,
        cost: f64,
    },
    /// §3.4.2 cost-annotation reuse: the block's plan was served from
    /// the annotation cache instead of being re-optimized.
    AnnotationHit { block: String },
    /// Annotation miss: the block was optimized from scratch.
    BlockCosted { block: String },
    /// The join search started on a block of two or more FROM items.
    JoinEnumBegin { block: String, items: usize },
    /// The join search finished: `memo_entries` connected node sets
    /// were costed (those of two or more nodes each charged one unit of
    /// the per-block state allowance), `memo_hits` memo lookups were
    /// served while pairing, and `pairs` joins were actually priced, over
    /// `rounds` rounds (1: the block was planned exactly; more: wider
    /// than its window, it was planned in windows). `degraded` is true
    /// when the allowance narrowed a window.
    JoinEnumEnd {
        block: String,
        memo_entries: usize,
        memo_hits: usize,
        pairs: usize,
        rounds: usize,
        degraded: bool,
    },
    /// The statement's optimizer-state budget ran out mid-search: the
    /// framework stops costing states and keeps the best state found so
    /// far (or the heuristic plan if none was costed). The statement
    /// still executes, flagged `degraded`.
    SearchDegraded { transform: String, states_used: u64 },
    /// The query text before any transformation and after the winning
    /// states of every transformation were applied.
    QueryRewritten { before: String, after: String },
    /// Final physical plan summary for the transformed query.
    FinalPlan { cost: f64, est_rows: f64 },
    /// The shared plan cache served a fully optimized plan for this
    /// normalized SQL text (compiled under the current catalog version).
    PlanCacheHit { key: String, version: u64 },
    /// No cached plan existed for this normalized SQL text; the query
    /// goes through the full CBQT pipeline and the result is cached.
    PlanCacheMiss { key: String },
    /// A cached plan existed but a table it reads changed shape (an
    /// index or statistics changed since) or its live row count drifted
    /// by the feedback divergence ratio; the plan was evicted and the
    /// query re-optimized. Commits alone never fire it. The versions are
    /// the global catalog (shape) version then and now.
    PlanCacheInvalidated {
        key: String,
        cached_version: u64,
        current_version: u64,
    },
    /// A plan family exists for this canonical query text, but none of
    /// its cached variants was compiled for the selectivity bucket of the
    /// incoming bind values; the query is re-optimized with the new binds
    /// peeked and cached as a sibling variant.
    PlanCacheBindMismatch { key: String, bucket: String },
    /// A sibling plan was added to an existing family after a bind
    /// mismatch; `variants` is the family's variant count afterwards.
    PlanCacheFamilySplit { key: String, variants: usize },
    /// A cached variant had been marked suspect (runtime actuals diverged
    /// from its estimates beyond the configured ratio); this probe
    /// recompiles it with the observed cardinalities fed back.
    PlanCacheReoptimize { key: String, bucket: String },
    /// The estimator replaced an NDV-based scan cardinality guess with a
    /// previously observed actual from the feedback store.
    FeedbackApplied {
        table: String,
        pred: String,
        observed: f64,
        estimate: f64,
    },
    /// A transaction opened; `snapshot` is the commit watermark it reads
    /// as of.
    TxnBegin { txn: u64, snapshot: u64 },
    /// A transaction committed, publishing `versions` row versions at
    /// the new commit watermark.
    TxnCommit {
        txn: u64,
        watermark: u64,
        versions: usize,
    },
    /// A transaction rolled back (explicitly, or aborted by an error /
    /// contained panic / injected fault), discarding `versions` row
    /// versions.
    TxnRollback { txn: u64, versions: usize },
    /// First-updater-wins write-write conflict: `txn` lost to `winner`
    /// on a row of `table`.
    TxnConflict {
        txn: u64,
        winner: u64,
        table: String,
    },
    /// An UPDATE or DELETE found its target rows: `access` is the
    /// access path the planner chose for the scan of `table`, `rows`
    /// the versions the statement goes on to write, `work` the
    /// executor work units the scan charged, `cached` whether the
    /// target plan came from the plan cache.
    DmlTarget {
        table: String,
        access: String,
        rows: usize,
        work: f64,
        cached: bool,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Heuristics { summary } => write!(f, "HEURISTICS {summary}"),
            TraceEvent::TransformBegin {
                transform,
                targets,
                strategy,
            } => write!(f, "TRANSFORM {transform}: {targets} target(s), {strategy}"),
            TraceEvent::StateCosted {
                transform,
                state,
                merges,
                cost,
            } => {
                write!(f, "STATE {transform} {state:?}")?;
                if merges.iter().any(|&m| m) {
                    write!(f, " interleaved {merges:?}")?;
                }
                match cost {
                    Some(c) => write!(f, " cost={c:.0}"),
                    None => write!(f, " cost=CUTOFF"),
                }
            }
            TraceEvent::CutoffTaken { transform, state } => {
                write!(f, "CUTOFF {transform} {state:?}")
            }
            TraceEvent::TransformEnd {
                transform,
                best_state,
                interleaved,
                cost,
            } => write!(
                f,
                "DECISION {transform}: best {best_state:?}{} cost={cost:.0}",
                if *interleaved {
                    " + interleaved merge"
                } else {
                    ""
                }
            ),
            TraceEvent::SearchDegraded {
                transform,
                states_used,
            } => write!(
                f,
                "SEARCH DEGRADED at {transform}: optimizer state budget exhausted \
                 after {states_used} state(s), keeping best plan so far"
            ),
            TraceEvent::AnnotationHit { block } => write!(f, "ANNOTATION HIT {block}"),
            TraceEvent::BlockCosted { block } => write!(f, "BLOCK COSTED {block}"),
            TraceEvent::JoinEnumBegin { block, items } => {
                write!(f, "JOIN ENUM BEGIN {block}: {items} item(s)")
            }
            TraceEvent::JoinEnumEnd {
                block,
                memo_entries,
                memo_hits,
                pairs,
                rounds,
                degraded,
            } => write!(
                f,
                "JOIN ENUM END {block}: memo={memo_entries} hits={memo_hits} \
                 pairs={pairs} rounds={rounds}{}",
                if *degraded {
                    " DEGRADED (state allowance narrowed the window)"
                } else {
                    ""
                }
            ),
            TraceEvent::QueryRewritten { before, after } => {
                write!(f, "REWRITE\n  before: {before}\n  after:  {after}")
            }
            TraceEvent::FinalPlan { cost, est_rows } => {
                write!(f, "FINAL PLAN cost={cost:.0} est_rows={est_rows:.0}")
            }
            TraceEvent::PlanCacheHit { key, version } => {
                write!(f, "PLAN CACHE HIT v{version} {key}")
            }
            TraceEvent::PlanCacheMiss { key } => write!(f, "PLAN CACHE MISS {key}"),
            TraceEvent::PlanCacheInvalidated {
                key,
                cached_version,
                current_version,
            } => write!(
                f,
                "PLAN CACHE INVALIDATED v{cached_version} -> v{current_version} {key}"
            ),
            TraceEvent::PlanCacheBindMismatch { key, bucket } => {
                write!(f, "PLAN CACHE BIND MISMATCH bucket={bucket} {key}")
            }
            TraceEvent::PlanCacheFamilySplit { key, variants } => {
                write!(f, "PLAN CACHE FAMILY SPLIT variants={variants} {key}")
            }
            TraceEvent::PlanCacheReoptimize { key, bucket } => {
                write!(f, "PLAN CACHE REOPTIMIZE bucket={bucket} {key}")
            }
            TraceEvent::FeedbackApplied {
                table,
                pred,
                observed,
                estimate,
            } => write!(
                f,
                "FEEDBACK APPLIED {table}[{pred}]: est_rows={estimate:.1} -> observed={observed:.1}"
            ),
            TraceEvent::TxnBegin { txn, snapshot } => {
                write!(f, "TXN BEGIN txn={txn} snapshot=w{snapshot}")
            }
            TraceEvent::TxnCommit {
                txn,
                watermark,
                versions,
            } => write!(
                f,
                "TXN COMMIT txn={txn} watermark=w{watermark} versions={versions}"
            ),
            TraceEvent::TxnRollback { txn, versions } => {
                write!(f, "TXN ROLLBACK txn={txn} versions={versions}")
            }
            TraceEvent::TxnConflict { txn, winner, table } => {
                write!(f, "TXN CONFLICT txn={txn} lost to txn={winner} on {table}")
            }
            TraceEvent::DmlTarget {
                table,
                access,
                rows,
                work,
                cached,
            } => write!(
                f,
                "DML TARGET table={table} access={access} rows={rows} work={work:.0} \
                 cached={cached}"
            ),
        }
    }
}

/// Receives trace events. `record` takes `&self` so a sink can be shared
/// by reference across the whole optimization pipeline.
pub trait TraceSink {
    fn record(&self, event: TraceEvent);
}

/// A copyable handle producers carry; `Tracer::disabled()` makes every
/// [`Tracer::emit`] a no-op that never even constructs its event.
#[derive(Clone, Copy, Default)]
pub struct Tracer<'a> {
    sink: Option<&'a dyn TraceSink>,
}

impl<'a> Tracer<'a> {
    /// The no-op tracer: zero overhead beyond one pointer-null test.
    pub const fn disabled() -> Tracer<'a> {
        Tracer { sink: None }
    }

    pub fn new(sink: &'a dyn TraceSink) -> Tracer<'a> {
        Tracer { sink: Some(sink) }
    }

    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `f`, which is only called when the
    /// tracer is enabled — callers can format strings inside the closure
    /// without paying for them in the disabled case.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink {
            sink.record(f());
        }
    }
}

impl fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// The bundled collecting sink: appends every event to an in-memory
/// list. Interior mutability lets a `&Database` (possibly shared behind
/// `Arc`) trace without a mutable borrow.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceBuffer {
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// Removes and returns all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for TraceBuffer {
    fn record(&self, event: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let tracer = Tracer::disabled();
        let mut built = false;
        tracer.emit(|| {
            built = true;
            TraceEvent::FinalPlan {
                cost: 0.0,
                est_rows: 0.0,
            }
        });
        assert!(!built);
        assert!(!tracer.enabled());
    }

    #[test]
    fn buffer_collects_in_order() {
        let buf = TraceBuffer::new();
        let tracer = Tracer::new(&buf);
        assert!(tracer.enabled());
        tracer.emit(|| TraceEvent::AnnotationHit {
            block: "QB1".into(),
        });
        tracer.emit(|| TraceEvent::BlockCosted {
            block: "QB2".into(),
        });
        assert_eq!(buf.len(), 2);
        let events = buf.take();
        assert!(buf.is_empty());
        assert_eq!(
            events,
            vec![
                TraceEvent::AnnotationHit {
                    block: "QB1".into()
                },
                TraceEvent::BlockCosted {
                    block: "QB2".into()
                },
            ]
        );
    }

    #[test]
    fn display_is_one_line_per_event() {
        let e = TraceEvent::StateCosted {
            transform: "subquery unnesting (inline view)".into(),
            state: vec![1, 0],
            merges: vec![true],
            cost: Some(42.0),
        };
        let s = e.to_string();
        assert!(s.contains("interleaved"), "{s}");
        assert!(s.contains("cost=42"), "{s}");
        let cut = TraceEvent::StateCosted {
            transform: "x".into(),
            state: vec![1],
            merges: vec![],
            cost: None,
        };
        assert!(cut.to_string().contains("CUTOFF"));
    }
}
