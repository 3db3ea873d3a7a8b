//! Integration tests for the vectorized execution engine and its
//! Volcano differential oracle at the `Database` level: mode selection
//! via config, agreement across the full CBQT pipeline (transformed
//! plans, joins, set operations, subqueries), and governor interaction.

use cbqt::common::ExecutionMode;
use cbqt::{Database, StatementLimits};

fn hr_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE departments (dept_id INT PRIMARY KEY, department_name VARCHAR(30),
             loc_id INT);
         CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30),
             dept_id INT REFERENCES departments(dept_id), salary INT);
         CREATE INDEX i_emp_dept ON employees (dept_id);",
    )
    .unwrap();
    let mut deps = Vec::new();
    for d in 0..8i64 {
        deps.push(vec![
            cbqt::common::Value::Int(d),
            cbqt::common::Value::str(format!("d{d}")),
            cbqt::common::Value::Int(d % 3),
        ]);
    }
    db.load_rows("departments", deps).unwrap();
    let mut emps = Vec::new();
    for e in 0..3000i64 {
        emps.push(vec![
            cbqt::common::Value::Int(e),
            cbqt::common::Value::str(format!("e{e}")),
            if e % 11 == 0 {
                cbqt::common::Value::Null
            } else {
                cbqt::common::Value::Int(e % 8)
            },
            cbqt::common::Value::Int((e * 37) % 9000),
        ]);
    }
    db.load_rows("employees", emps).unwrap();
    db.execute_mut("ANALYZE").unwrap();
    db
}

const QUERIES: &[&str] = &[
    // scan + filter + aggregate across multiple batches
    "SELECT e.dept_id, COUNT(*), SUM(e.salary), MIN(e.salary) FROM employees e \
     WHERE e.salary > 4000 GROUP BY e.dept_id ORDER BY e.dept_id",
    // unnestable subquery (exercises transformed plans)
    "SELECT e.employee_name FROM employees e WHERE e.salary > \
     (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id) \
     AND e.emp_id < 50",
    // hash join + left outer
    "SELECT e.emp_id, d.department_name FROM employees e LEFT JOIN departments d \
     ON e.dept_id = d.dept_id WHERE e.emp_id < 30 ORDER BY e.emp_id",
    // set operations
    "SELECT d.dept_id FROM departments d MINUS SELECT e.dept_id FROM employees e \
     WHERE e.salary > 8000",
    // ROWNUM early-exit
    "SELECT v.emp_id FROM (SELECT emp_id FROM employees ORDER BY salary DESC) v \
     WHERE rownum <= 5",
    // windows fall back to the row path inside the batched pipeline
    "SELECT e.emp_id, SUM(e.salary) OVER (PARTITION BY e.dept_id) FROM employees e \
     WHERE e.emp_id < 40",
];

#[test]
fn both_engines_agree_through_full_pipeline() {
    let mut db = hr_db();
    for sql in QUERIES {
        db.config_mut().execution_mode = ExecutionMode::Vectorized;
        let v = db.query(sql).unwrap();
        db.config_mut().execution_mode = ExecutionMode::Volcano;
        let o = db.query(sql).unwrap();
        assert_eq!(v.rows, o.rows, "engines disagree on {sql}");
    }
}

#[test]
fn differential_oracle_reports_no_mismatches() {
    let db = hr_db();
    for sql in QUERIES {
        let mismatches = db.differential_exec(sql, &StatementLimits::none()).unwrap();
        assert!(mismatches.is_empty(), "{sql}: {mismatches:?}");
    }
}

#[test]
fn differential_oracle_matches_governor_outcomes() {
    let db = hr_db();
    // a row budget far below the 3000-row scan trips both engines with
    // the same error class — the oracle reports agreement, not failure
    let limits = StatementLimits::none().with_row_budget(500);
    let mismatches = db
        .differential_exec("SELECT SUM(e.salary) FROM employees e", &limits)
        .unwrap();
    assert!(mismatches.is_empty(), "{mismatches:?}");
    // and a generous budget leaves both engines succeeding
    let limits = StatementLimits::none().with_row_budget(1_000_000);
    let mismatches = db
        .differential_exec("SELECT SUM(e.salary) FROM employees e", &limits)
        .unwrap();
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

#[test]
fn explain_analyze_reports_engine() {
    let mut db = hr_db();
    db.config_mut().execution_mode = ExecutionMode::Vectorized;
    let out = db
        .explain_analyze("SELECT COUNT(*) FROM employees")
        .unwrap();
    assert!(out.contains("engine=vectorized"), "{out}");
    db.config_mut().execution_mode = ExecutionMode::Volcano;
    let out = db
        .explain_analyze("SELECT COUNT(*) FROM employees")
        .unwrap();
    assert!(out.contains("engine=volcano"), "{out}");
}

#[test]
fn execution_mode_parses_and_defaults() {
    assert_eq!(ExecutionMode::default(), ExecutionMode::Vectorized);
}

/// A statement far smaller than one governor tick (128 rows) still
/// answers to its work budget: the budget is checked against the
/// statement's total work once the plan has run, in both engines.
#[test]
fn a_work_budget_holds_below_one_governor_tick() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE tiny (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let rows = (0..8i64).map(|i| vec![cbqt::common::Value::Int(i), cbqt::common::Value::Int(i)]);
    db.load_rows("tiny", rows.collect()).unwrap();
    db.execute_mut("ANALYZE").unwrap();
    let sql = "SELECT COUNT(*) FROM tiny";
    let work = db.query(sql).unwrap().stats.work_units;
    assert!(work > 0.0, "{work}");
    let limits = StatementLimits::none().with_work_budget(work / 2.0);
    for mode in [ExecutionMode::Vectorized, ExecutionMode::Volcano] {
        db.config_mut().execution_mode = mode;
        match db.query_with_limits(sql, limits) {
            Err(cbqt::common::Error::ResourceExhausted(m)) => {
                assert!(m.contains("work budget"), "{mode}: {m}")
            }
            other => panic!("{mode}: expected ResourceExhausted, got {other:?}"),
        }
        // the whole budget is enough
        let whole = StatementLimits::none().with_work_budget(work);
        assert_eq!(db.query_with_limits(sql, whole).unwrap().rows.len(), 1);
    }
    let mismatches = db.differential_exec(sql, &limits).unwrap();
    assert!(mismatches.is_empty(), "{mismatches:?}");
}
