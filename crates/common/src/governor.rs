//! Statement-level resource governor.
//!
//! The paper's §3.4.1 cost cut-off bounds *per-state* optimizer work; this
//! module bounds a *whole statement*. A [`Governor`] is built once per
//! statement from [`ExecutionLimits`] and threaded through the
//! transformation search, the join enumerator, and every executor loop.
//! Checks are designed to be cheap enough for per-row call sites: the
//! unlimited governor is a single `Option` test, and a limited one is an
//! atomic load plus occasional clock reads.
//!
//! Two very different failure semantics coexist here, on purpose:
//!
//! - **Optimizer-state budget** — exhausting it *degrades* the search:
//!   the framework keeps the best-costed state found so far (or the
//!   heuristic plan if nothing was costed yet) and the statement still
//!   runs, flagged `degraded`. Planning effort is advisory.
//! - **Wall-clock deadline, executor row/work budgets, cancellation** —
//!   these hard-fail with [`Error::ResourceExhausted`] /
//!   [`Error::Cancelled`]. Execution effort is a hard promise.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-statement resource limits. All fields default to "unlimited";
/// build with the `with_*` methods.
///
/// ```
/// use cbqt_common::governor::ExecutionLimits;
/// use std::time::Duration;
/// let limits = ExecutionLimits::none()
///     .with_deadline(Duration::from_millis(250))
///     .with_optimizer_states(64)
///     .with_row_budget(1_000_000);
/// assert!(limits.is_limited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionLimits {
    /// Wall-clock budget for the whole statement (compile + execute).
    pub deadline: Option<Duration>,
    /// Maximum number of transformation states the CBQT search may cost.
    /// Exhausting it degrades the search instead of failing the query.
    pub optimizer_states: Option<u64>,
    /// Maximum number of rows the executor may process (scanned, joined,
    /// or emitted — a proxy for memory and CPU).
    pub row_budget: Option<u64>,
    /// Maximum executor work units (the engine's internal cost-like
    /// accounting currency, roughly rows touched per operator).
    pub work_budget: Option<f64>,
}

impl ExecutionLimits {
    /// No limits at all.
    pub fn none() -> ExecutionLimits {
        ExecutionLimits::default()
    }

    pub fn with_deadline(mut self, d: Duration) -> ExecutionLimits {
        self.deadline = Some(d);
        self
    }

    pub fn with_optimizer_states(mut self, states: u64) -> ExecutionLimits {
        self.optimizer_states = Some(states);
        self
    }

    pub fn with_row_budget(mut self, rows: u64) -> ExecutionLimits {
        self.row_budget = Some(rows);
        self
    }

    pub fn with_work_budget(mut self, work: f64) -> ExecutionLimits {
        self.work_budget = Some(work);
        self
    }

    /// True if any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.optimizer_states.is_some()
            || self.row_budget.is_some()
            || self.work_budget.is_some()
    }
}

/// Cooperative cancellation handle: cheap to clone (one `Arc`), safe to
/// trigger from any thread. Statements governed by a [`Governor`] built
/// over this token observe the flag at their next check point.
///
/// Tokens form a tree: [`CancelToken::child`] derives a token that also
/// observes every ancestor, so a database-wide token can fence all
/// sessions while cancelling one session's token leaves its siblings
/// untouched.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A new token linked under this one: the child reports cancelled
    /// when it — or any ancestor — is cancelled, but cancelling the
    /// child never affects the parent or sibling children.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Requests cancellation of every statement governed by this token
    /// or a [`child`](CancelToken::child) of it. The flag is sticky:
    /// call [`CancelToken::reset`] before reusing the token for new
    /// statements.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// Clears a previous [`CancelToken::cancel`] on *this* token so
    /// subsequent statements run normally. A cancelled ancestor must be
    /// reset separately.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// Outcome of charging one state against the optimizer budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateCharge {
    /// Within budget; the state may be costed.
    Charged,
    /// The budget ran out on *this* charge — the caller should emit its
    /// one-time degradation trace event, then stop costing states.
    ExhaustedNow,
    /// The budget was already exhausted earlier.
    Exhausted,
}

struct Inner {
    cancel: CancelToken,
    start: Instant,
    deadline: Option<Duration>,
    optimizer_states: Option<u64>,
    states_used: AtomicU64,
    row_budget: Option<u64>,
    rows_used: AtomicU64,
    work_budget: Option<f64>,
    degraded: AtomicBool,
    /// A join search's per-block memo allowance narrowed one of its
    /// windows. Kept separate from `degraded`, which alone drops later
    /// blocks to windows of two (`search_exhausted`).
    enum_degraded: AtomicBool,
    /// Counts interrupt checks so `Instant::now()` is consulted only
    /// every few checks (call sites already batch per ~128 rows).
    checks: AtomicU64,
}

/// The per-statement governor handle threaded through planner and
/// executor. `Governor::unlimited()` is a no-op on every path (a single
/// `Option` test), so ungoverned statements pay nothing.
#[derive(Clone, Default)]
pub struct Governor {
    inner: Option<Arc<Inner>>,
}

/// Check the wall clock on every Nth interrupt check; call sites batch
/// their checks per ~128 rows, so the deadline is still observed promptly.
const CLOCK_CHECK_MASK: u64 = 0x7;

impl Governor {
    /// A governor that enforces nothing. This is the default for every
    /// entry point that doesn't take explicit limits.
    pub fn unlimited() -> Governor {
        Governor { inner: None }
    }

    /// Builds a governor enforcing `limits`, observing `cancel`. The
    /// wall clock starts now.
    pub fn new(limits: &ExecutionLimits, cancel: CancelToken) -> Governor {
        Governor {
            inner: Some(Arc::new(Inner {
                cancel,
                start: Instant::now(),
                deadline: limits.deadline,
                optimizer_states: limits.optimizer_states,
                states_used: AtomicU64::new(0),
                row_budget: limits.row_budget,
                rows_used: AtomicU64::new(0),
                work_budget: limits.work_budget,
                degraded: AtomicBool::new(false),
                enum_degraded: AtomicBool::new(false),
                checks: AtomicU64::new(0),
            })),
        }
    }

    /// True when this governor enforces at least cancellation.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Checks cancellation and the wall-clock deadline. Used from
    /// planner loops, where row/work budgets don't apply.
    #[inline]
    pub fn check_interrupt(&self) -> Result<()> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.check_interrupt(),
        }
    }

    /// Charges `rows` processed rows and the engine's current `work`
    /// total against the executor budgets, and checks interrupts.
    /// Call sites batch (~128 rows) so this stays off the per-row path.
    #[inline]
    pub fn charge_exec(&self, rows: u64, work: f64) -> Result<()> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.charge_exec(rows, work),
        }
    }

    /// Charges one transformation state against the optimizer budget.
    /// Never fails: exhaustion degrades the search rather than erroring.
    #[inline]
    pub fn charge_state(&self) -> StateCharge {
        let Some(inner) = &self.inner else {
            return StateCharge::Charged;
        };
        let Some(budget) = inner.optimizer_states else {
            return StateCharge::Charged;
        };
        let used = inner.states_used.fetch_add(1, Ordering::Relaxed);
        if used < budget {
            StateCharge::Charged
        } else if !inner.degraded.swap(true, Ordering::Relaxed) {
            StateCharge::ExhaustedNow
        } else {
            StateCharge::Exhausted
        }
    }

    /// True once the statement's optimizer work has been degraded in any
    /// way: the CBQT search ran out of transformation states, or a join
    /// search's memo allowance narrowed a window. Degraded
    /// plans are valid but reflect a truncated search — callers use this
    /// to flag `QueryStats::degraded` and to skip plan-cache publishing.
    pub fn optimizer_exhausted(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.degraded.load(Ordering::Relaxed)
                    || inner.enum_degraded.load(Ordering::Relaxed)
            }
        }
    }

    /// True once the CBQT *search* budget specifically has run out (the
    /// framework stops costing candidate states; join searches then run
    /// windows of two). Join-enumeration degradation is deliberately
    /// excluded: it is local to one block of one state and must not
    /// narrow the windows of later states.
    pub fn search_exhausted(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.degraded.load(Ordering::Relaxed),
        }
    }

    /// The configured optimizer-state budget, if any. Join enumeration
    /// uses it as the per-block memo allowance (each memo entry of two or
    /// more nodes charges one unit) — a snapshot of the *configured* budget rather
    /// than the live counter, so a block's plan depends only on the
    /// block itself and stays identical across annotation-cache hits
    /// and recomputation.
    pub fn state_budget(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|inner| inner.optimizer_states)
    }

    /// Records that a join search's memo allowance narrowed one of its
    /// windows. Sticky for the statement.
    pub fn mark_enum_degraded(&self) {
        if let Some(inner) = &self.inner {
            inner.enum_degraded.store(true, Ordering::Relaxed);
        }
    }

    /// Number of states charged so far (for stats/tracing).
    pub fn states_used(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.states_used.load(Ordering::Relaxed),
        }
    }
}

impl Inner {
    #[inline]
    fn check_interrupt(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(Error::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            let n = self.checks.fetch_add(1, Ordering::Relaxed);
            if n & CLOCK_CHECK_MASK == 0 && self.start.elapsed() > deadline {
                return Err(Error::resource_exhausted(format!(
                    "wall-clock deadline of {deadline:?} exceeded"
                )));
            }
        }
        Ok(())
    }

    #[inline]
    fn charge_exec(&self, rows: u64, work: f64) -> Result<()> {
        if let Some(budget) = self.row_budget {
            let used = self.rows_used.fetch_add(rows, Ordering::Relaxed) + rows;
            if used > budget {
                return Err(Error::resource_exhausted(format!(
                    "executor row budget of {budget} rows exceeded"
                )));
            }
        }
        if let Some(budget) = self.work_budget {
            if work > budget {
                return Err(Error::resource_exhausted(format!(
                    "executor work budget of {budget} exceeded"
                )));
            }
        }
        self.check_interrupt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_free_and_passes() {
        let g = Governor::unlimited();
        assert!(!g.is_active());
        assert!(g.check_interrupt().is_ok());
        assert!(g.charge_exec(1_000_000, 1e18).is_ok());
        assert_eq!(g.charge_state(), StateCharge::Charged);
        assert!(!g.optimizer_exhausted());
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancelToken::new();
        let g = Governor::new(&ExecutionLimits::none(), token.clone());
        assert!(g.check_interrupt().is_ok());
        token.cancel();
        assert_eq!(g.check_interrupt(), Err(Error::Cancelled));
        assert_eq!(g.charge_exec(1, 0.0), Err(Error::Cancelled));
        token.reset();
        assert!(g.check_interrupt().is_ok());
    }

    #[test]
    fn deadline_trips() {
        let limits = ExecutionLimits::none().with_deadline(Duration::from_millis(0));
        let g = Governor::new(&limits, CancelToken::new());
        std::thread::sleep(Duration::from_millis(2));
        // The clock is only consulted every few checks; hammer it.
        let tripped =
            (0..64).any(|_| matches!(g.check_interrupt(), Err(Error::ResourceExhausted(_))));
        assert!(tripped);
    }

    #[test]
    fn row_budget_trips_and_reports() {
        let limits = ExecutionLimits::none().with_row_budget(100);
        let g = Governor::new(&limits, CancelToken::new());
        assert!(g.charge_exec(60, 0.0).is_ok());
        let err = g.charge_exec(60, 0.0).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert!(err.to_string().contains("row budget"));
    }

    #[test]
    fn work_budget_trips() {
        let limits = ExecutionLimits::none().with_work_budget(500.0);
        let g = Governor::new(&limits, CancelToken::new());
        assert!(g.charge_exec(0, 499.0).is_ok());
        assert!(matches!(
            g.charge_exec(0, 501.0),
            Err(Error::ResourceExhausted(_))
        ));
    }

    #[test]
    fn state_budget_degrades_once() {
        let limits = ExecutionLimits::none().with_optimizer_states(2);
        let g = Governor::new(&limits, CancelToken::new());
        assert_eq!(g.charge_state(), StateCharge::Charged);
        assert_eq!(g.charge_state(), StateCharge::Charged);
        assert!(!g.optimizer_exhausted());
        assert_eq!(g.charge_state(), StateCharge::ExhaustedNow);
        assert_eq!(g.charge_state(), StateCharge::Exhausted);
        assert!(g.optimizer_exhausted());
        assert_eq!(g.states_used(), 4);
    }

    #[test]
    fn clones_share_state() {
        let limits = ExecutionLimits::none().with_optimizer_states(1);
        let g = Governor::new(&limits, CancelToken::new());
        let g2 = g.clone();
        assert_eq!(g.charge_state(), StateCharge::Charged);
        assert_eq!(g2.charge_state(), StateCharge::ExhaustedNow);
        assert!(g.optimizer_exhausted());
    }
}
