//! Physical optimizer: cardinality estimation, cost model, access-path
//! selection, join enumeration, and per-block plan generation.
//!
//! In the paper's architecture (§3.1, Figure 1), the physical optimizer
//! serves double duty: it produces the final execution plan *and* it is
//! the **cost estimation technique** the cost-based transformation
//! framework invokes on each candidate state. Three of the paper's
//! optimization-performance techniques live here:
//!
//! * **cost cut-off** (§3.4.1): block optimization aborts as soon as the
//!   accumulated cost exceeds the best complete state found so far;
//! * **reuse of query sub-tree cost annotations** (§3.4.2): each query
//!   block's plan is cached under a canonical rendering of the block, so
//!   equivalent sub-trees across transformation states are optimized
//!   once;
//! * **caching of expensive optimizer computations** (§3.4.4): dynamic
//!   sampling results for tables without statistics are cached across
//!   optimizer calls.

pub mod est;
pub mod optimize;
pub mod plan;

pub use est::{
    clamp_feedback_rows, scan_feedback_key, CardFeedback, ColInfo, Estimator, FeedbackShape,
    RelStats,
};
#[doc(hidden)]
pub use optimize::record_optimized_trees;
pub use optimize::{
    is_cutoff, CostAnnotations, DynamicSampler, Optimizer, OptimizerConfig, OptimizerStats,
    SamplingCache, COST_CUTOFF,
};
pub use plan::*;
