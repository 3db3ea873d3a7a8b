//! Shared primitives for the CBQT engine: SQL values, data types, rows,
//! error handling, and small utilities used by every other crate.
//!
//! The value model is deliberately small — `NULL`, 64-bit integers, 64-bit
//! floats, strings, booleans and dates — which is enough to express every
//! query shape the paper's transformations target while keeping the
//! executor simple and fast.

pub mod error;
pub mod failpoint;
pub mod governor;
pub mod hash;
pub mod trace;
pub mod value;

pub use error::{Error, Result};
pub use governor::{CancelToken, ExecutionLimits, Governor, StateCharge};
pub use trace::{TraceBuffer, TraceEvent, TraceSink, Tracer};
pub use value::{DataType, Datum, Row, Value};

/// Total-order "strictly cheaper" comparison for plan costs.
///
/// Cost arithmetic can produce NaN (degenerate statistics, 0/0 in
/// selectivity math); `f64::total_cmp` sorts NaN *above* `+∞`, so a NaN
/// cost never wins against any finite or infinite alternative and never
/// panics the way `partial_cmp().unwrap()` does. Every cost comparison
/// in the optimizer and the transformation framework goes through this
/// helper (or `total_cmp` directly for sorts).
#[inline]
pub fn cost_lt(a: f64, b: f64) -> bool {
    a.total_cmp(&b) == std::cmp::Ordering::Less
}

/// How far apart an estimated and an observed cardinality are, as a
/// symmetric ratio ≥ 1 (`max(a/e, e/a)`): 1.0 means perfect, 10.0 means
/// a 10× miss in either direction.
///
/// The math is deliberately NaN/zero-safe — cardinality feedback feeds
/// this with raw runtime counters, and degenerate inputs must never
/// produce NaN/∞ or trigger a re-optimization storm:
/// - both sides are floored at one row before dividing (estimate=0 and
///   actual=0 are common and legitimate — an empty scan estimated empty
///   is a *perfect* estimate, ratio 1.0, not 0/0);
/// - non-finite inputs (a NaN cost, an ∞ blow-up) return `f64::MAX`
///   rather than propagating — a plan costed on garbage *should* look
///   maximally divergent, but comparably so (`MAX > any threshold`,
///   while NaN compares false against everything and would mask the
///   miss).
#[inline]
pub fn divergence_ratio(estimate: f64, actual: f64) -> f64 {
    if !estimate.is_finite() || !actual.is_finite() {
        return f64::MAX;
    }
    let e = estimate.max(1.0);
    let a = actual.max(1.0);
    (a / e).max(e / a)
}

/// Which interpreter the engine uses to execute physical plans. A
/// caller picks one by name (`CbqtConfig::execution_mode`,
/// `Engine::set_mode`); there is no process-wide switch, and
/// `ExecutionMode::default()` is the vectorized engine.
///
/// Both interpreters run the *same* plans and must produce identical
/// results, per-operator row counts and work. A work budget is checked
/// against the statement's total work once the plan has run, so both
/// engines succeed or fail under it alike; mid-run checks are early
/// exits only. The row-at-a-time engine is kept as the correctness
/// oracle for the vectorized one (see the fuzzer's `--differential-exec`
/// mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Columnar batch interpreter: operators exchange ~1024-row batches
    /// and expressions are compiled once per operator instead of being
    /// tree-walked per row. The default.
    #[default]
    Vectorized,
    /// Row-at-a-time Volcano interpreter, kept as the differential
    /// oracle and as a fallback.
    Volcano,
}

impl ExecutionMode {
    pub fn as_str(self) -> &'static str {
        match self {
            ExecutionMode::Vectorized => "vectorized",
            ExecutionMode::Volcano => "volcano",
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Truth value of SQL three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    /// Converts a nullable boolean into a truth value.
    pub fn from_opt(b: Option<bool>) -> Truth {
        match b {
            Some(true) => Truth::True,
            Some(false) => Truth::False,
            None => Truth::Unknown,
        }
    }

    /// True iff this truth value passes a WHERE/HAVING filter.
    pub fn passes(self) -> bool {
        self == Truth::True
    }

    /// SQL `AND` with three-valued semantics.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// SQL `OR` with three-valued semantics.
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// SQL `NOT` with three-valued semantics.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_and_table() {
        use Truth::*;
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
    }

    #[test]
    fn truth_or_table() {
        use Truth::*;
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(True), True);
        assert_eq!(Unknown.or(True), True);
        assert_eq!(Unknown.or(False), Unknown);
        assert_eq!(Unknown.or(Unknown), Unknown);
    }

    #[test]
    fn truth_not() {
        assert_eq!(Truth::True.not(), Truth::False);
        assert_eq!(Truth::False.not(), Truth::True);
        assert_eq!(Truth::Unknown.not(), Truth::Unknown);
    }

    #[test]
    fn truth_passes() {
        assert!(Truth::True.passes());
        assert!(!Truth::False.passes());
        assert!(!Truth::Unknown.passes());
    }

    #[test]
    fn divergence_ratio_is_symmetric_and_floored() {
        assert_eq!(divergence_ratio(10.0, 100.0), 10.0);
        assert_eq!(divergence_ratio(100.0, 10.0), 10.0);
        assert_eq!(divergence_ratio(50.0, 50.0), 1.0);
        // sub-row estimates are floored at one row: 0.25 est vs 5 actual
        // is a 5x miss, not a 20x one
        assert_eq!(divergence_ratio(0.25, 5.0), 5.0);
    }

    #[test]
    fn divergence_ratio_degenerate_inputs_are_safe() {
        // empty scan estimated empty: perfect, never a reopt trigger
        assert_eq!(divergence_ratio(0.0, 0.0), 1.0);
        assert_eq!(divergence_ratio(0.0, 1.0), 1.0);
        assert_eq!(divergence_ratio(1.0, 0.0), 1.0);
        // negatives floor to one row rather than flipping the ratio sign
        assert_eq!(divergence_ratio(-3.0, 4.0), 4.0);
        // non-finite inputs look maximally divergent, never NaN
        for (e, a) in [
            (f64::NAN, 10.0),
            (10.0, f64::NAN),
            (f64::INFINITY, 10.0),
            (10.0, f64::NEG_INFINITY),
        ] {
            let r = divergence_ratio(e, a);
            assert!(r.is_finite(), "divergence_ratio({e}, {a}) = {r}");
            assert_eq!(r, f64::MAX);
        }
        // and every finite result is >= 1
        assert!(divergence_ratio(1e-300, 1e300) >= 1.0);
    }
}
