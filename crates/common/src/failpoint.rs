//! Fault-injection points ("failpoints") compiled into the engine.
//!
//! A failpoint is a named site in production code — a storage scan, an
//! executor operator, the optimizer — where a test can inject a failure.
//! Sites are spelled with the [`failpoint!`](crate::failpoint!) macro:
//!
//! ```ignore
//! cbqt_common::failpoint!(cbqt_common::failpoint::EXEC_JOIN);
//! ```
//!
//! **Zero cost when disabled**: the macro's expansion is one relaxed
//! atomic load of a global "any failpoint armed" flag; the registry map
//! is consulted only while at least one failpoint is armed, which only
//! happens inside the fault-injection test harness
//! (`cbqt_testkit::failpoints`). Production serving never arms any.
//!
//! An armed failpoint either returns [`Error::Internal`] from the site
//! (the common case) or panics there (to exercise the `catch_unwind` +
//! lock-poison recovery at the `Database` boundary).
//!
//! Site names are declared here as constants so the set of registered
//! failpoints ([`ALL`]) is a compile-time fact the robustness suite can
//! enumerate; a site and its name can't drift apart.

use crate::error::{Error, Result};
use crate::hash::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Storage: table lookup feeding every base-table scan.
pub const STORAGE_SCAN: &str = "storage.scan";
/// Storage: index lookup feeding index-driven access paths.
pub const STORAGE_INDEX: &str = "storage.index";
/// Executor: base-table scan operator.
pub const EXEC_SCAN: &str = "exec.scan";
/// Executor: join operator (hash / merge / nested-loop / lateral).
pub const EXEC_JOIN: &str = "exec.join";
/// Executor: aggregation operator.
pub const EXEC_AGG: &str = "exec.agg";
/// Executor: set-operation operator (UNION/INTERSECT/EXCEPT).
pub const EXEC_SETOP: &str = "exec.setop";
/// Optimizer: per-block physical planning.
pub const OPTIMIZER_PLAN: &str = "optimizer.plan_block";
/// Storage: appending an uncommitted row version (first write path of a
/// transaction; fires before any mutation so an injected fault leaves
/// the heap untouched).
pub const STORAGE_WRITE_VERSION: &str = "storage.write.version";
/// Storage: commit publish — the atomic restamp that makes a
/// transaction's versions visible and advances the watermark. Fires
/// before publish, so a fault here aborts the transaction whole.
pub const STORAGE_COMMIT_PUBLISH: &str = "storage.commit.publish";
/// Transaction: first-updater-wins conflict check on UPDATE/DELETE.
pub const TXN_CONFLICT_CHECK: &str = "txn.conflict.check";

/// Every failpoint compiled into the engine.
pub const ALL: &[&str] = &[
    STORAGE_SCAN,
    STORAGE_INDEX,
    EXEC_SCAN,
    EXEC_JOIN,
    EXEC_AGG,
    EXEC_SETOP,
    OPTIMIZER_PLAN,
    STORAGE_WRITE_VERSION,
    STORAGE_COMMIT_PUBLISH,
    TXN_CONFLICT_CHECK,
];

/// What an armed failpoint does when its site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The site returns `Error::Internal`.
    Error,
    /// The site panics (exercising unwind containment).
    Panic,
}

/// Fast-path gate: true iff at least one failpoint is armed.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<&'static str, FailAction>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, FailAction>>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<&'static str, FailAction>> {
    // A panic injected *while* the registry lock is held can't happen
    // (arming and firing never panic inside the critical section), but
    // recover anyway: a poisoned registry must never wedge the harness.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms `name` with `action`. `name` must be one of [`ALL`].
pub fn arm(name: &'static str, action: FailAction) {
    assert!(ALL.contains(&name), "unknown failpoint {name:?}");
    let mut reg = lock_registry();
    reg.insert(name, action);
    ANY_ARMED.store(true, Ordering::SeqCst);
}

/// Disarms `name`; a site reached afterwards behaves normally.
pub fn disarm(name: &'static str) {
    let mut reg = lock_registry();
    reg.remove(name);
    if reg.is_empty() {
        ANY_ARMED.store(false, Ordering::SeqCst);
    }
}

/// Disarms everything (test teardown / fuzzer round reset).
pub fn disarm_all() {
    let mut reg = lock_registry();
    reg.clear();
    ANY_ARMED.store(false, Ordering::SeqCst);
}

/// Called by the [`failpoint!`](crate::failpoint!) macro at each site.
/// Returns `Err(Error::Internal)` or panics iff `name` is armed.
#[inline]
pub fn fire(name: &'static str) -> Result<()> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire_slow(name)
}

#[cold]
fn fire_slow(name: &'static str) -> Result<()> {
    let action = lock_registry().get(name).copied();
    match action {
        None => Ok(()),
        Some(FailAction::Error) => Err(Error::internal(format!(
            "injected failure at failpoint {name}"
        ))),
        Some(FailAction::Panic) => panic!("injected panic at failpoint {name}"),
    }
}

/// Declares a fault-injection site. Expands to a `?`-propagated
/// [`fire`] call, so the enclosing function must return
/// [`crate::Result`]. One relaxed atomic load when nothing is armed.
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        $crate::failpoint::fire($name)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is process-global; keep this module's tests in a
    // single #[test] so parallel test threads can't interleave arming.
    #[test]
    fn arm_fire_disarm_cycle() {
        assert!(fire(EXEC_SCAN).is_ok());

        arm(EXEC_SCAN, FailAction::Error);
        let err = fire(EXEC_SCAN).unwrap_err();
        assert!(matches!(err, Error::Internal(_)), "{err}");
        assert!(err.to_string().contains(EXEC_SCAN));
        // other points are unaffected
        assert!(fire(EXEC_JOIN).is_ok());

        disarm(EXEC_SCAN);
        assert!(fire(EXEC_SCAN).is_ok());

        arm(EXEC_AGG, FailAction::Panic);
        let caught = std::panic::catch_unwind(|| fire(EXEC_AGG).unwrap());
        assert!(caught.is_err());
        disarm_all();
        assert!(fire(EXEC_AGG).is_ok());

        // the macro compiles inside a Result-returning fn
        fn site() -> Result<()> {
            crate::failpoint!(EXEC_SETOP);
            Ok(())
        }
        assert!(site().is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown failpoint")]
    fn arming_unknown_name_is_rejected() {
        arm("no.such.point", FailAction::Error);
    }
}
