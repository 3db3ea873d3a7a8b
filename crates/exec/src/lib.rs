//! Execution engine: a row-oriented interpreter over physical plans.
//!
//! The engine implements everything the paper's transformations need to
//! be *observable* in run time:
//!
//! * tuple-iteration-semantics (TIS) evaluation of non-unnested
//!   subqueries, with **correlation caching** keyed on the binding values
//!   (the paper notes Oracle caches semijoin/antijoin and filter results;
//!   §2.1.1);
//! * nested-loop (block and index-probe), hash, and sort-merge joins with
//!   inner / semi / anti (incl. null-aware) / left-outer variants and
//!   stop-at-first-match behaviour;
//! * lateral re-execution of correlated (JPPD) views;
//! * hash aggregation with grouping sets, windowed aggregates, distinct
//!   and generalized distinct-on, ORDER BY, and Oracle-style ROWNUM
//!   semantics (the limit applies before GROUP BY / ORDER BY, with early
//!   exit so pulled-up expensive predicates are only evaluated until the
//!   limit fills);
//! * deterministic *work units* counted with the same weights the cost
//!   model uses, so measured work and estimated cost share a currency.

pub(crate) mod batch;
pub mod column;
pub mod engine;
pub mod eval;
pub mod metrics;
pub(crate) mod vexpr;

pub use batch::ProgramSet;
pub use engine::{Engine, ExecStats};
pub use metrics::{ExecMetrics, OpMetrics};

#[cfg(test)]
mod tests;
