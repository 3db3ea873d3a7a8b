//! Robustness end-to-end: the statement-level resource governor
//! (deadlines, budgets, cooperative cancellation, graceful search
//! degradation) and the fault-injection harness (every registered
//! failpoint must surface as an `Err`, never a panic or a hang, and the
//! database must keep serving afterwards).
//!
//! Failpoints are process-global, so every test here holds
//! `failpoints::serial()`, armed or not: an unguarded test running
//! beside an every-failpoint walk fails on the site that walk armed.

use cbqt::common::failpoint;
use cbqt::common::{Error, Value};
use cbqt::{Database, StatementLimits};
use cbqt_testkit::failpoints::{self, Fail};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE departments (dept_id INT PRIMARY KEY, department_name VARCHAR(30) NOT NULL);
         CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30) NOT NULL,
             dept_id INT REFERENCES departments(dept_id), salary INT);
         CREATE INDEX i_emp_dept ON employees (dept_id);
         CREATE TABLE nums (n INT PRIMARY KEY);",
    )
    .unwrap();
    let mut rows = Vec::new();
    for d in 0..8i64 {
        rows.push(vec![Value::Int(d), Value::str(format!("dept{d}"))]);
    }
    db.load_rows("departments", rows).unwrap();
    let mut rows = Vec::new();
    for e in 0..200i64 {
        rows.push(vec![
            Value::Int(e),
            Value::str(format!("emp{e}")),
            Value::Int(e % 8),
            Value::Int(1000 + (e * 37) % 3000),
        ]);
    }
    db.load_rows("employees", rows).unwrap();
    let rows = (0..150i64).map(|n| vec![Value::Int(n)]).collect();
    db.load_rows("nums", rows).unwrap();
    db.analyze().unwrap();
    db
}

/// A query whose full execution takes far longer than any limit used in
/// these tests: a three-way cross join (150^3 = 3.4M output rows).
const BIG_CROSS_JOIN: &str =
    "SELECT COUNT(*) FROM (SELECT a.n FROM nums a, nums b, nums c WHERE a.n + b.n + c.n > -1) t";

#[test]
fn deadline_trips_within_twice_the_limit() {
    let _serial = failpoints::serial();
    let db = fixture();
    let limit = Duration::from_millis(400);
    let t0 = Instant::now();
    let err = db
        .query_with_limits(BIG_CROSS_JOIN, StatementLimits::none().with_deadline(limit))
        .unwrap_err();
    let elapsed = t0.elapsed();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert!(err.to_string().contains("deadline"), "{err}");
    assert!(
        elapsed < 2 * limit,
        "deadline of {limit:?} observed only after {elapsed:?}"
    );
    // the database keeps serving normally afterwards
    let r = db.query("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}

#[test]
fn row_and_work_budgets_trip() {
    let _serial = failpoints::serial();
    let db = fixture();
    let err = db
        .query_with_limits(
            BIG_CROSS_JOIN,
            StatementLimits::none().with_row_budget(10_000),
        )
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert!(err.to_string().contains("row budget"), "{err}");

    let err = db
        .query_with_limits(
            BIG_CROSS_JOIN,
            StatementLimits::none().with_work_budget(50_000.0),
        )
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert!(err.to_string().contains("work budget"), "{err}");

    // generous budgets leave results untouched
    let r = db
        .query_with_limits(
            "SELECT COUNT(*) FROM employees",
            StatementLimits::none()
                .with_row_budget(1_000_000)
                .with_work_budget(1e12),
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
    assert!(!r.stats.degraded);
}

#[test]
fn cross_thread_cancellation_stops_a_running_query() {
    let _serial = failpoints::serial();
    let db = Arc::new(fixture());
    let token = db.cancel_token();
    let runner = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.query(BIG_CROSS_JOIN))
    };
    std::thread::sleep(Duration::from_millis(150));
    token.cancel();
    let result = runner.join().expect("query thread must not panic");
    let err = result.unwrap_err();
    assert!(matches!(err, Error::Cancelled), "{err}");
    // the flag is sticky: new statements fail until reset
    assert!(matches!(
        db.query("SELECT COUNT(*) FROM employees"),
        Err(Error::Cancelled)
    ));
    token.reset();
    let r = db.query("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}

/// A query the CBQT search spends several states on, so a tiny
/// optimizer-state budget is guaranteed to trip mid-search.
const SEARCHY: &str = "SELECT d.department_name FROM departments d WHERE d.dept_id IN \
     (SELECT e.dept_id FROM employees e WHERE e.salary > \
      (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)) \
     ORDER BY d.department_name";

#[test]
fn optimizer_budget_degrades_gracefully() {
    let _serial = failpoints::serial();
    let db = fixture();
    // degraded run first: a cached full plan would short-circuit the
    // search and nothing would be left to degrade
    let report = db
        .trace_with_limits(SEARCHY, StatementLimits::none().with_optimizer_states(1))
        .unwrap();
    assert!(report.stats.degraded, "budget of 1 state must degrade");
    let rendered = report.render();
    assert!(rendered.contains("SEARCH DEGRADED"), "{rendered}");
    assert!(rendered.contains("state budget exhausted"), "{rendered}");
    // a degraded plan is never published to the shared plan cache
    assert_eq!(db.plan_cache_stats().entries, 0);

    // the degraded plan is valid: same rows as the full search's plan
    let full = db.query(SEARCHY).unwrap();
    assert!(!full.stats.degraded);
    assert!(full.stats.states_explored > 1);
    let degraded = db
        .query_with_limits(SEARCHY, StatementLimits::none().with_optimizer_states(1))
        .unwrap();
    // second limited run hits the plan cache published by the full run —
    // served plans are complete, so nothing degrades
    assert!(degraded.stats.plan_cache_hit);
    db.clear_plan_cache();
    let degraded = db
        .query_with_limits(SEARCHY, StatementLimits::none().with_optimizer_states(1))
        .unwrap();
    assert!(degraded.stats.degraded);
    assert_eq!(degraded.rows, full.rows);
    assert_eq!(degraded.columns, full.columns);
}

#[test]
fn zero_state_budget_still_produces_a_plan() {
    let _serial = failpoints::serial();
    let db = fixture();
    let r = db
        .query_with_limits(SEARCHY, StatementLimits::none().with_optimizer_states(0))
        .unwrap();
    assert!(r.stats.degraded);
    assert_eq!(r.rows, db.query(SEARCHY).unwrap().rows);
}

/// Per-failpoint probe: a query guaranteed to traverse the injected
/// site when compiled fresh against the fixture schema.
fn probe_sql(name: &str) -> &'static str {
    match name {
        failpoint::STORAGE_SCAN | failpoint::EXEC_SCAN | failpoint::OPTIMIZER_PLAN => {
            "SELECT COUNT(*) FROM employees"
        }
        failpoint::STORAGE_INDEX => "SELECT employee_name FROM employees WHERE emp_id = 7",
        failpoint::EXEC_JOIN => {
            "SELECT e.employee_name, d.department_name FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id"
        }
        failpoint::EXEC_AGG => "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id",
        failpoint::EXEC_SETOP => {
            "SELECT emp_id FROM employees UNION SELECT dept_id FROM departments"
        }
        other => panic!("no probe query for failpoint {other:?}"),
    }
}

/// Write-path failpoints probe through DML instead: `(probe, undo)`
/// statement pairs over the `nums` table, where `undo` restores the
/// fixture state after a successful disarmed run of `probe`.
fn write_probes(name: &str) -> Option<&'static [(&'static str, &'static str)]> {
    match name {
        failpoint::STORAGE_WRITE_VERSION => Some(&[
            (
                "INSERT INTO nums VALUES (900)",
                "DELETE FROM nums WHERE n = 900",
            ),
            (
                "UPDATE nums SET n = n + 2000 WHERE n = 7",
                "UPDATE nums SET n = n - 2000 WHERE n = 2007",
            ),
        ]),
        failpoint::TXN_CONFLICT_CHECK => Some(&[(
            "DELETE FROM nums WHERE n = 3",
            "INSERT INTO nums VALUES (3)",
        )]),
        failpoint::STORAGE_COMMIT_PUBLISH => Some(&[(
            "UPDATE nums SET n = n + 1000 WHERE n = 5",
            "UPDATE nums SET n = n - 1000 WHERE n = 1005",
        )]),
        _ => None,
    }
}

/// Shared body of the two every-failpoint loops: injects at `name`
/// (error or panic action via `arm`), runs the site's probe, lets
/// `check_err` validate the surfaced error, and asserts the database
/// rolled back cleanly and keeps serving.
fn check_failpoint(db: &Database, name: &'static str, panic_action: bool) {
    // fresh compilation each round so optimizer-side sites fire too
    db.clear_plan_cache();
    let check_err = |err: &Error| {
        if panic_action {
            assert!(matches!(err, Error::Internal(_)), "failpoint {name}: {err}");
            assert!(
                err.to_string().contains("panicked"),
                "failpoint {name}: {err}"
            );
        } else {
            assert!(
                err.to_string().contains(name),
                "failpoint {name}: unexpected error {err}"
            );
        }
    };
    let arm = |n| {
        if panic_action {
            Fail::panic(n)
        } else {
            Fail::error(n)
        }
    };

    if let Some(probes) = write_probes(name) {
        let session = db.session();
        let count = "SELECT COUNT(*) FROM nums";
        let base = db.query(count).unwrap().rows[0][0].clone();
        let recipe_hits = || db.plan_cache_stats().recipe_hits;
        for &(sql, undo) in probes {
            // the full route with nothing cached, then the recipe route:
            // a disarmed run of the probe and its undo records their
            // recipes (INSERT has none)
            for from_recipe in [false, true] {
                db.clear_plan_cache();
                if from_recipe {
                    session.execute(sql).unwrap();
                    session.execute(undo).unwrap();
                }
                assert!(db.query(count).is_ok());
                assert!(db.query(count).unwrap().stats.plan_cache_hit);
                let served = u64::from(from_recipe && !sql.starts_with("INSERT"));
                let before = recipe_hits();
                {
                    let _fp = arm(name);
                    let err = session.execute(sql).unwrap_err();
                    check_err(&err);
                }
                assert_eq!(
                    recipe_hits() - before,
                    served,
                    "failpoint {name}: {sql} recipe hits"
                );
                // a fault anywhere between the first write and
                // commit-publish aborts the whole statement: no rows
                // changed, no version bump — cached plans over the table
                // stay warm
                let after = db.query(count).unwrap();
                assert_eq!(after.rows[0][0], base, "failpoint {name}: partial write");
                assert!(
                    after.stats.plan_cache_hit,
                    "failpoint {name}: rolled-back write invalidated cached plans"
                );
                // disarmed: the same write succeeds, from its recipe if
                // it has one, and the database keeps serving
                let before = recipe_hits();
                session.execute(sql).unwrap_or_else(|e| {
                    panic!("follow-up write after failpoint {name} failed: {e}")
                });
                assert_eq!(recipe_hits() - before, served, "failpoint {name}: {sql}");
                session.execute(undo).unwrap();
                assert_eq!(db.query(count).unwrap().rows[0][0], base, "{name}");
            }
        }
        return;
    }

    let sql = probe_sql(name);
    {
        let _fp = arm(name);
        let err = db.query(sql).unwrap_err();
        check_err(&err);
    }
    // disarmed: the same statement succeeds and the cache is coherent
    let cold = db
        .query(sql)
        .unwrap_or_else(|e| panic!("follow-up query after failpoint {name} failed: {e}"));
    let warm = db.query(sql).unwrap();
    assert!(warm.stats.plan_cache_hit, "failpoint {name}");
    assert_eq!(warm.rows, cold.rows, "failpoint {name}");
}

#[test]
fn every_failpoint_errors_cleanly_and_service_resumes() {
    let _serial = failpoints::serial();
    let db = fixture();
    for &name in failpoints::all() {
        check_failpoint(&db, name, false);
    }
}

#[test]
fn every_failpoint_panic_is_contained() {
    let _serial = failpoints::serial();
    // silence the default per-panic stderr backtrace for this loop;
    // panics are expected and caught at the statement boundary
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let db = fixture();
    let mut checked = 0;
    for &name in failpoints::all() {
        check_failpoint(&db, name, true);
        checked += 1;
    }
    std::panic::set_hook(prev);
    assert_eq!(checked, failpoints::all().len());
    // after a whole round of injected panics the cache still works
    let stats = db.plan_cache_stats();
    assert!(stats.bytes <= stats.capacity_bytes, "{stats:?}");
    let a = db.query("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(a.rows[0][0], Value::Int(200));
}

#[test]
fn limits_on_cache_hits_are_still_enforced() {
    let _serial = failpoints::serial();
    let db = fixture();
    let sql = "SELECT COUNT(*) FROM (SELECT a.n FROM nums a, nums b WHERE a.n + b.n > -1) t";
    // compile + cache the plan with no limits (22.5k joined rows)
    assert!(!db.query(sql).unwrap().stats.plan_cache_hit);
    // a later limited execution of the cached plan must still trip
    let err = db
        .query_with_limits(sql, StatementLimits::none().with_row_budget(1_000))
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert!(err.to_string().contains("row budget"), "{err}");
}

#[test]
fn session_cancel_scopes_to_one_session() {
    let _serial = failpoints::serial();
    let db = fixture();
    std::thread::scope(|scope| {
        let s1 = db.session();
        let token = s1.cancel_token();
        let runner = scope.spawn(move || s1.query(BIG_CROSS_JOIN));
        std::thread::sleep(Duration::from_millis(150));
        token.cancel();
        let err = runner
            .join()
            .expect("query thread must not panic")
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
    });
    // a sibling session and the plain entry points keep serving — no
    // database-wide fence, no reset() needed anywhere else
    let s2 = db.session();
    let r = s2.query("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
    let r = db.query("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}

#[test]
fn cancelled_update_returns_the_governors_error_and_writes_nothing() {
    let _serial = failpoints::serial();
    let db = fixture();
    let sum = "SELECT SUM(salary) FROM employees";
    let before = db.query(sum).unwrap().rows;
    let warm = |what: &str| {
        let r = db.query(sum).unwrap();
        assert_eq!(r.rows, before, "{what}: partial write");
        assert!(r.stats.plan_cache_hit, "{what}: cached plans went cold");
    };
    warm("baseline");
    let raise = "UPDATE employees SET salary = salary + 1";

    // a fenced session: the UPDATE stops at the governor's first check
    let s = db.session();
    let token = s.cancel_token();
    token.cancel();
    assert!(matches!(s.execute(raise), Err(Error::Cancelled)));
    warm("pre-cancelled UPDATE");
    token.reset();

    // cancelled from another thread while its target scan is running
    // (the filter's subquery is the 3.4M-row cross join)
    std::thread::scope(|scope| {
        let s = db.session();
        let token = s.cancel_token();
        let runner = scope.spawn(move || {
            s.execute(
                "UPDATE employees SET salary = salary + 1 WHERE emp_id IN \
                 (SELECT a.n FROM nums a, nums b, nums c WHERE a.n + b.n + c.n > -1)",
            )
        });
        std::thread::sleep(Duration::from_millis(150));
        token.cancel();
        let err = runner
            .join()
            .expect("UPDATE thread must not panic")
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
    });
    warm("UPDATE cancelled mid-scan");

    // unfenced, the same statement goes through
    assert!(matches!(
        s.execute_statement(raise).unwrap(),
        cbqt::StatementResult::RowsAffected(200)
    ));
    assert_ne!(db.query(sum).unwrap().rows, before);
}

/// A 5k-row table: every budget below is far under one scan of it.
fn big_table() -> Database {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let rows = (0..5000i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
        .collect();
    db.load_rows("big", rows).unwrap();
    db.analyze().unwrap();
    db
}

#[test]
fn update_over_budget_fails_before_its_first_write() {
    let _serial = failpoints::serial();
    let db = big_table();
    let sum = "SELECT SUM(v) FROM big";
    let before = db.query(sum).unwrap().rows;
    let raise = "UPDATE big SET v = v + 1";
    let s = db.session();
    for limits in [
        StatementLimits::none().with_work_budget(100.0),
        StatementLimits::none().with_row_budget(100),
    ] {
        // auto-commit: the statement's own transaction is rolled back
        let err = s.execute_with_limits(raise, limits).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert!(!s.in_transaction());
        assert_eq!(db.query(sum).unwrap().rows, before, "partial write");
        let txns = db.txn_stats();
        assert_eq!(txns.begun, txns.committed + txns.rolled_back, "{txns:?}");

        // inside an explicit transaction the failed write aborts it,
        // earlier writes included
        s.begin().unwrap();
        s.execute("UPDATE big SET v = 1000 WHERE id = 1").unwrap();
        let err = s.execute_with_limits(raise, limits).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert!(!s.in_transaction());
        assert_eq!(db.query(sum).unwrap().rows, before, "partial write");
    }
    // the same statement without a budget goes through
    let r = s.execute_with_limits(raise, StatementLimits::none());
    assert!(matches!(r, Ok(cbqt::StatementResult::RowsAffected(5000))));
}

#[test]
fn update_with_no_optimizer_budget_still_writes_every_row() {
    let _serial = failpoints::serial();
    let db = big_table();
    let s = db.session();
    let starved = StatementLimits::none().with_optimizer_states(0);
    let r = s.execute_with_limits("UPDATE big SET v = v + 1 WHERE v < 100", starved);
    assert!(matches!(r, Ok(cbqt::StatementResult::RowsAffected(5000))));
    let r = s.execute_with_limits("DELETE FROM big WHERE id >= 2500", starved);
    assert!(matches!(r, Ok(cbqt::StatementResult::RowsAffected(2500))));
    assert!(!s.in_transaction());
    // sum of (i % 7) + 1 over the 2500 rows left
    let want: i64 = (0..2500i64).map(|i| i % 7 + 1).sum();
    let got = db.query("SELECT SUM(v), COUNT(*) FROM big").unwrap().rows;
    assert_eq!(got, vec![vec![Value::Int(want), Value::Int(2500)]]);
    // a query through the same entry point is `query_with_limits`
    let r = s
        .execute_with_limits("SELECT COUNT(*) FROM big", starved)
        .unwrap();
    assert_eq!(r.rows().unwrap().rows, vec![vec![Value::Int(2500)]]);
}

#[test]
fn cancelled_session_stays_fenced_until_its_own_reset() {
    let _serial = failpoints::serial();
    let db = fixture();
    let s = db.session();
    let token = s.cancel_token();
    token.cancel();
    assert!(matches!(
        s.query("SELECT COUNT(*) FROM employees"),
        Err(Error::Cancelled)
    ));
    token.reset();
    let r = s.query("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}

#[test]
fn database_token_fences_every_session() {
    let _serial = failpoints::serial();
    let db = fixture();
    let s = db.session();
    db.cancel_token().cancel();
    assert!(matches!(
        s.query("SELECT COUNT(*) FROM employees"),
        Err(Error::Cancelled)
    ));
    assert!(matches!(
        db.query("SELECT COUNT(*) FROM employees"),
        Err(Error::Cancelled)
    ));
    db.cancel_token().reset();
    let r = s.query("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}
