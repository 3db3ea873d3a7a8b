//! Vectorized vs Volcano execution on the bread-and-butter pipelines:
//! a 100k-row scan with a selective filter feeding a grouped aggregate
//! (`vectorized` / `volcano`), and a 12k x 8k hash join feeding a grouped
//! aggregate (`vectorized_join` / `volcano_join`: the shape of the repo
//! benchmark's `warm_scan` template 3 at its widest filter), the same
//! join with `job_history (emp_id)` indexed and a filter that keeps a
//! quarter of the employees, which plans an index nested loop — a
//! lateral join probing the index once per employee
//! (`vectorized_lateral` / `volcano_lateral`: template 3 at a narrow
//! filter), and 1 000 warm literal-text primary-key lookups on a
//! 20k-row table (`vectorized_point` / `volcano_point`: the repo
//! benchmark's `warm_point`). The regression gate
//! (`ci/check_bench_regression.sh`) asserts the vectorized engine stays
//! faster than the row engine by the ratios `BENCH_baseline.json`
//! names on the scan, the hash join and the lateral join, and that a
//! point lookup costs it about what it costs the row engine
//! (`point_lookup_parity`), in addition to the absolute thresholds.

use cbqt::common::{ExecutionMode, Value};
use cbqt::Database;
use cbqt_testkit::bench::Harness;

const ROWS: i64 = 100_000;
const SQL: &str = "SELECT m.grp, COUNT(*), SUM(m.val), MIN(m.val), MAX(m.val) \
                   FROM measurements m \
                   WHERE m.val > 5000 AND m.flag = 1 \
                   GROUP BY m.grp";

fn build_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE measurements (id INT PRIMARY KEY, grp INT, val INT, flag INT);",
    )
    .unwrap();
    // Deterministic synthetic data: ~64 groups, ~50% filter selectivity
    // (val > 5000 keeps half, flag = 1 keeps half of those).
    let mut rows = Vec::with_capacity(ROWS as usize);
    let mut x: i64 = 0x2545_F491;
    for id in 0..ROWS {
        // xorshift keeps the generator dependency-free and stable
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        rows.push(vec![
            Value::Int(id),
            Value::Int(x.rem_euclid(64)),
            Value::Int((x >> 8).rem_euclid(10_000)),
            Value::Int((x >> 3) & 1),
        ]);
    }
    db.load_rows("measurements", rows).unwrap();
    db.analyze().unwrap();
    db
}

const JOIN_EMPLOYEES: i64 = 8_000;
const JOIN_HISTORY: i64 = 12_000;
const JOIN_SQL: &str = "SELECT j.job_title, COUNT(*) c, MAX(j.start_date) m \
                        FROM job_history j, employees e \
                        WHERE j.emp_id = e.emp_id AND e.salary > 1000 \
                        GROUP BY j.job_title";

/// [`JOIN_SQL`] with a salary filter that keeps about a quarter of the
/// employees.
const LATERAL_SQL: &str = "SELECT j.job_title, COUNT(*) c, MAX(j.start_date) m \
                           FROM job_history j, employees e \
                           WHERE j.emp_id = e.emp_id AND e.salary > 7500 \
                           GROUP BY j.job_title";

/// `employees` (8k) and `job_history` (12k) of the HR schema. With no
/// index on `job_history.emp_id` ([`JOIN_SQL`]) the join is a hash join
/// whatever the statistics say; the salary filter keeps about 90% of
/// employees.
fn build_join_db() -> Database {
    let db = build_hr_db(false);
    let plan = db.explain(JOIN_SQL).unwrap();
    assert!(plan.contains("Hash Inner JOIN"), "not a hash join:\n{plan}");
    db
}

/// [`build_join_db`]'s tables with `job_history (emp_id)` indexed: the
/// narrower filter of [`LATERAL_SQL`] plans an index nested loop.
fn build_lateral_db() -> Database {
    let db = build_hr_db(true);
    let plan = db.explain(LATERAL_SQL).unwrap();
    assert!(plan.contains("JOIN LATERAL"), "not a lateral join:\n{plan}");
    db
}

fn build_hr_db(index: bool) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30), \
             dept_id INT, salary INT, mgr_id INT); \
         CREATE TABLE job_history (emp_id INT NOT NULL, job_title VARCHAR(30), \
             start_date INT, dept_id INT);",
    )
    .unwrap();
    let mut x: i64 = 0x5DEE_CE66;
    let mut next = |n: i64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 8).rem_euclid(n)
    };
    let employees = (0..JOIN_EMPLOYEES)
        .map(|e| {
            vec![
                Value::Int(e),
                Value::str(format!("e{e}")),
                Value::Int(next(40)),
                Value::Int(next(10_000)),
                Value::Int(next(JOIN_EMPLOYEES)),
            ]
        })
        .collect();
    db.load_rows("employees", employees).unwrap();
    let history = (0..JOIN_HISTORY)
        .map(|j| {
            vec![
                Value::Int(next(JOIN_EMPLOYEES)),
                Value::str(format!("t{}", j % 9)),
                Value::Int(19_900_000 + next(95_000)),
                Value::Int(next(40)),
            ]
        })
        .collect();
    db.load_rows("job_history", history).unwrap();
    if index {
        db.execute_script("CREATE INDEX i_jh_emp ON job_history (emp_id);")
            .unwrap();
    }
    db.analyze().unwrap();
    db
}

const POINT_ROWS: i64 = 20_000;
const POINT_LOOKUPS: i64 = 1_000;

/// `accounts` of the repo benchmark's `warm_point`: 20k rows keyed by
/// `id`, read by primary-key lookups with a fresh literal each.
fn build_point_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE accounts (id INT PRIMARY KEY, owner INT NOT NULL, branch INT, \
             balance INT, note VARCHAR(20));",
    )
    .unwrap();
    let rows = (0..POINT_ROWS)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(id / 2),
                Value::Int(id % 50),
                Value::Int(id * 31 % 1_000_000),
                Value::str(format!("acct-{id}")),
            ]
        })
        .collect();
    db.load_rows("accounts", rows).unwrap();
    db.analyze().unwrap();
    db
}

fn bench(c: &mut Harness) {
    let mut g = c.benchmark_group("vectorized_scan");
    g.sample_size(15);
    let pipelines = [
        (build_db(), SQL, ""),
        (build_join_db(), JOIN_SQL, "_join"),
        (build_lateral_db(), LATERAL_SQL, "_lateral"),
    ];
    for (db, sql, suffix) in pipelines {
        let mut db = db;
        for (name, mode) in [
            ("vectorized", ExecutionMode::Vectorized),
            ("volcano", ExecutionMode::Volcano),
        ] {
            db.config_mut().execution_mode = mode;
            g.bench_function(&format!("{name}{suffix}"), |b| {
                b.iter(|| db.query(sql).unwrap().rows.len())
            });
        }
    }
    // warm point lookups: the plan cache serves every statement, so a
    // lookup costs its serving path and one engine set-up
    let mut db = build_point_db();
    let lookups: Vec<String> = (0..POINT_LOOKUPS)
        .map(|i| {
            let id = i * 7_919 % POINT_ROWS;
            format!("SELECT balance, branch, note FROM accounts WHERE id = {id}")
        })
        .collect();
    for (name, mode) in [
        ("vectorized_point", ExecutionMode::Vectorized),
        ("volcano_point", ExecutionMode::Volcano),
    ] {
        db.config_mut().execution_mode = mode;
        db.clear_plan_cache();
        for sql in &lookups {
            db.query(sql).unwrap();
        }
        g.bench_function(name, |b| {
            b.iter(|| {
                let found = lookups.iter().map(|sql| db.query(sql).unwrap().rows.len());
                found.sum::<usize>()
            })
        });
    }
    g.finish();
}

cbqt_testkit::bench_main!(bench);
