//! Query transformations and the cost-based transformation (CBQT)
//! framework — the paper's primary contribution.
//!
//! Two transformation families (§2):
//!
//! * **heuristic** (imperative — always applied when legal): SPJ view
//!   merging, join elimination, subquery unnesting by merging into
//!   semi-/anti-joins, filter predicate move-around (incl. through
//!   GROUP BY keys and window PARTITION BY), and group pruning;
//! * **cost-based**: subquery unnesting that generates inline views,
//!   group-by / distinct view merging, join predicate pushdown,
//!   group-by placement, join factorization, predicate pullup,
//!   MINUS/INTERSECT → join conversion, and disjunction → UNION ALL
//!   expansion.
//!
//! The [`framework`] module implements §3: per-transformation state
//! spaces, the four search strategies (exhaustive, iterative
//! improvement, linear, two-pass) with automatic selection, interleaving
//! of unnesting with view merging (§3.3.1), juxtaposition of view
//! merging with join predicate pushdown (§3.3.2), and the shared cost
//! annotations + cost cut-off of §3.4.

pub mod costbased;
pub mod framework;
pub mod heuristic;
mod unnest;
pub mod util;
mod view_pred;

pub use framework::{
    optimize_query, optimize_query_feedback, CbqtConfig, CbqtOutcome, FeedbackConfig,
    SearchStrategy, TransformSet,
};
