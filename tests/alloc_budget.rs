//! Allocation budgets per statement kind: the heap allocations a
//! statement makes, counted exactly by a counting global allocator.
//!
//! Each warm kind runs 1 000 statements after a warm-up (plan cache,
//! recipes and the feedback store in their steady state); each cold kind
//! (a recipe miss, and cache-miss compiles of the Table-2 query and of a
//! `cold_joins`-shaped snowflake) runs 50 after 10. Every kind is held to
//! a ceiling of allocations per statement, under both engines. A count
//! above its ceiling fails; a count below it is printed, so the ceiling
//! is tightened in the change that lowered it.
//!
//! The ceilings apply to release builds only: a debug build serves every
//! recipe hit twice and checks cached programs against fresh ones, so
//! its counts say nothing about the serving path.
//!
//! `cargo test --release -p cbqt --test alloc_budget -- --nocapture`
//! prints every count.

use cbqt::common::{ExecutionMode, Value};
use cbqt::Database;
use cbqt_testkit::alloc::{count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Statements counted per kind.
const COUNTED: usize = 1_000;
/// Statements run before counting.
const WARMUP: usize = 200;

/// The `warm_point` table: 20 000 accounts, about two per owner.
fn accounts(mode: ExecutionMode) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE accounts (id INT PRIMARY KEY, owner INT NOT NULL, branch INT, \
         balance INT, note VARCHAR(20));
         CREATE INDEX i_acc_owner ON accounts (owner);",
    )
    .unwrap();
    let rows = (0..20_000i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(id * 7919 % 10_000),
                Value::Int(id % 50),
                Value::Int(id * 31 % 1_000_000),
                Value::str(format!("acct-{id}")),
            ]
        })
        .collect();
    db.load_rows("accounts", rows).unwrap();
    db.analyze().unwrap();
    db.config_mut().execution_mode = mode;
    db
}

/// The `mixed_rw` table at 2 000 rows.
fn kv(mode: ExecutionMode) -> Database {
    kv_rows(mode, 2_000)
}

/// The `mixed_rw` table at `n` rows.
fn kv_rows(mode: ExecutionMode, n: i64) -> Database {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE kv (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL);")
        .unwrap();
    let rows = (0..n)
        .map(|id| vec![Value::Int(id), Value::Int(id % 20), Value::Int(id)])
        .collect();
    db.load_rows("kv", rows).unwrap();
    db.analyze().unwrap();
    db.config_mut().execution_mode = mode;
    db
}

/// The HR schema of the paper's Table 2 query, small: 5 locations, 20
/// departments, 200 employees and 200 job-history rows.
fn hr(mode: ExecutionMode) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE locations (loc_id INT PRIMARY KEY, country_id VARCHAR(2) NOT NULL);
         CREATE TABLE departments (dept_id INT PRIMARY KEY, department_name VARCHAR(30),
             loc_id INT REFERENCES locations(loc_id));
         CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30),
             dept_id INT REFERENCES departments(dept_id), salary INT, mgr_id INT);
         CREATE TABLE job_history (emp_id INT NOT NULL, job_title VARCHAR(30),
             start_date INT, dept_id INT);",
    )
    .unwrap();
    let countries = ["US", "UK", "DE", "JP", "FR"];
    let locations = (0..5).map(|l| vec![Value::Int(l), Value::str(countries[l as usize])]);
    let departments = (0..20i64).map(|d| {
        vec![
            Value::Int(d),
            Value::str(format!("dept{d}")),
            Value::Int(d % 5),
        ]
    });
    let employees = (0..200i64).map(|e| {
        vec![
            Value::Int(e),
            Value::str(format!("emp{e}")),
            Value::Int(e * 7 % 20),
            Value::Int(1_000 + e * 37 % 5_000),
            Value::Int(e / 10),
        ]
    });
    let history = (0..200i64).map(|j| {
        vec![
            Value::Int(j * 3 % 200),
            Value::str(format!("job{}", j % 9)),
            Value::Int(19_900_000 + j * 1_013 % 100_000),
            Value::Int(j * 11 % 20),
        ]
    });
    db.load_rows("locations", locations.collect()).unwrap();
    db.load_rows("departments", departments.collect()).unwrap();
    db.load_rows("employees", employees.collect()).unwrap();
    db.load_rows("job_history", history.collect()).unwrap();
    db.analyze().unwrap();
    db.config_mut().execution_mode = mode;
    db
}

/// The paper's Table 2 query: three base tables and four unnestable
/// multi-table subqueries (`experiments table2`).
const TABLE2: &str = "SELECT e1.employee_name \
    FROM employees e1, job_history j, departments d0 \
    WHERE e1.emp_id = j.emp_id AND e1.dept_id = d0.dept_id AND \
          e1.dept_id NOT IN (SELECT d.dept_id FROM departments d, locations l \
                             WHERE d.loc_id = l.loc_id AND l.country_id = 'JP' \
                               AND d.dept_id IS NOT NULL) AND \
          EXISTS (SELECT 1 FROM departments d, locations l \
                  WHERE d.loc_id = l.loc_id AND d.dept_id = e1.dept_id \
                    AND l.country_id = 'US') AND \
          NOT EXISTS (SELECT 1 FROM departments d, locations l \
                      WHERE d.loc_id = l.loc_id AND d.dept_id = e1.dept_id \
                        AND l.country_id = 'DE') AND \
          e1.emp_id IN (SELECT j2.emp_id FROM job_history j2, departments d2 \
                        WHERE j2.dept_id = d2.dept_id AND j2.start_date > 19950000)";

/// `cold_joins`' schema, as small: a 120-row fact table and three arms
/// of a 240-row mid and a 240-row leaf table.
fn snowflake(mode: ExecutionMode) -> Database {
    let mut db = Database::new();
    let mut ddl = String::from("CREATE TABLE fact (id INT PRIMARY KEY, a1 INT, a2 INT, a3 INT);");
    for k in 1..=3 {
        ddl.push_str(&format!(
            "CREATE TABLE mid{k} (id INT PRIMARY KEY, fkey INT, leaf_id INT);
             CREATE TABLE leaf{k} (id INT PRIMARY KEY, attr INT);"
        ));
    }
    db.execute_script(&ddl).unwrap();
    let fact = (0..120i64).map(|i| {
        let mut row = vec![Value::Int(i)];
        row.extend((1..=3).map(|k| Value::Int(i * (7 + k) % 40)));
        row
    });
    db.load_rows("fact", fact.collect()).unwrap();
    for k in 1..=3i64 {
        let mid = (0..240i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int((i * 13 + k) % 40),
                Value::Int(i * 17 % 240),
            ]
        });
        db.load_rows(&format!("mid{k}"), mid.collect()).unwrap();
        let leaf = (0..240i64).map(|i| vec![Value::Int(i), Value::Int((i + k) % 12)]);
        db.load_rows(&format!("leaf{k}"), leaf.collect()).unwrap();
    }
    db.analyze().unwrap();
    db.config_mut().execution_mode = mode;
    db
}

/// Runs `stmt(i)` for the warm-up, then counts the allocations of the
/// next [`COUNTED`] statements and returns their mean. `stmt` must not
/// allocate for anything but the statement it runs (texts are built
/// before counting).
fn per_statement(stmt: impl FnMut(usize)) -> f64 {
    mean_after(WARMUP, COUNTED, stmt)
}

/// [`per_statement`] for a cold statement, which compiles every time:
/// fewer runs, since each costs a whole search.
fn per_cold_statement(stmt: impl FnMut(usize)) -> f64 {
    mean_after(10, 50, stmt)
}

fn mean_after(warmup: usize, counted: usize, mut stmt: impl FnMut(usize)) -> f64 {
    for i in 0..warmup {
        stmt(i);
    }
    let ((), counts) = count(|| {
        for i in warmup..warmup + counted {
            stmt(i);
        }
    });
    counts.allocs as f64 / counted as f64
}

/// Holds `measured` to `ceiling` (release builds only) and prints it.
fn check(kind: &str, mode: ExecutionMode, measured: f64, ceiling: f64) {
    println!("alloc budget {kind} [{mode}]: {measured:.2} per statement (ceiling {ceiling})");
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        measured <= ceiling,
        "{kind} [{mode}] allocates {measured:.2} per statement, over its ceiling of {ceiling}"
    );
    if measured < ceiling - 0.5 {
        println!("  {kind} [{mode}] fell below its ceiling: tighten it to {measured:.0}");
    }
}

const MODES: [ExecutionMode; 2] = [ExecutionMode::Vectorized, ExecutionMode::Volcano];

/// `(vectorized, volcano)` ceiling for one kind.
fn ceiling(mode: ExecutionMode, ceilings: (f64, f64)) -> f64 {
    match mode {
        ExecutionMode::Vectorized => ceilings.0,
        ExecutionMode::Volcano => ceilings.1,
    }
}

fn texts(n: usize, f: impl Fn(usize) -> String) -> Vec<String> {
    (0..n).map(f).collect()
}

#[test]
fn warm_literal_pk_select() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!(
            "SELECT balance, branch, note FROM accounts WHERE id = {}",
            i * 7 % 20_000
        )
    });
    for mode in MODES {
        let db = accounts(mode);
        let got = per_statement(|i| assert_eq!(db.query(&sqls[i]).unwrap().rows.len(), 1));
        check(
            "warm literal PK select",
            mode,
            got,
            ceiling(mode, (23.0, 20.0)),
        );
    }
}

#[test]
fn warm_owner_lookup() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!(
            "SELECT id, balance FROM accounts WHERE owner = {}",
            i * 13 % 10_000
        )
    });
    for mode in MODES {
        let db = accounts(mode);
        let got = per_statement(|i| drop(db.query(&sqls[i]).unwrap()));
        check("warm owner lookup", mode, got, ceiling(mode, (22.0, 21.0)));
    }
}

/// `warm_scan`'s template 3 on the HR schema with `job_history (emp_id)`
/// indexed and a salary cut that keeps about a fifth of the employees:
/// an index nested loop (a lateral join over an `INDEX EQ` probe per
/// employee) with a fresh literal each.
#[test]
fn warm_lateral_join() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!(
            "SELECT j.job_title, COUNT(*) c, MAX(j.start_date) m \
             FROM job_history j, employees e \
             WHERE j.emp_id = e.emp_id AND e.salary > {} \
             GROUP BY j.job_title",
            5_000 + i % 200
        )
    });
    for mode in MODES {
        let mut db = hr(mode);
        db.execute_script("CREATE INDEX i_jh_emp ON job_history (emp_id);")
            .unwrap();
        db.analyze().unwrap();
        let plan = db.explain(&sqls[0]).unwrap();
        assert!(
            plan.contains("JOIN LATERAL") && plan.contains("INDEX EQ"),
            "not an index nested loop:\n{plan}"
        );
        let got = per_statement(|i| drop(db.query(&sqls[i]).unwrap()));
        check(
            "warm lateral join (warm_scan template 3)",
            mode,
            got,
            ceiling(mode, (78.0, 494.5)),
        );
    }
}

#[test]
fn prepared_query() {
    let binds: Vec<[Value; 1]> = (0..WARMUP + COUNTED)
        .map(|i| [Value::Int((i * 11 % 20_000) as i64)])
        .collect();
    for mode in MODES {
        let db = accounts(mode);
        let p = db
            .prepare("SELECT balance, branch, note FROM accounts WHERE id = ?")
            .unwrap();
        let got = per_statement(|i| assert_eq!(p.query(&binds[i]).unwrap().rows.len(), 1));
        check("Prepared::query", mode, got, ceiling(mode, (20.0, 17.0)));
    }
}

#[test]
fn single_row_update() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("UPDATE kv SET val = {} WHERE id = {}", i, i * 17 % 2_000)
    });
    for mode in MODES {
        let db = kv(mode);
        let writer = db.session();
        let got = per_statement(|i| drop(writer.execute_statement(&sqls[i]).unwrap()));
        check("single-row UPDATE", mode, got, ceiling(mode, (19.0, 16.0)));
    }
}

#[test]
fn update_in_an_explicit_transaction() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("UPDATE kv SET val = {} WHERE id = {}", i, i * 17 % 2_000)
    });
    for mode in MODES {
        let db = kv(mode);
        let writer = db.session();
        let got = per_statement(|i| {
            writer.begin().unwrap();
            drop(writer.execute_statement(&sqls[i]).unwrap());
            writer.commit().unwrap();
        });
        check(
            "BEGIN, single-row UPDATE, COMMIT",
            mode,
            got,
            ceiling(mode, (19.0, 16.0)),
        );
    }
}

#[test]
fn single_row_delete() {
    // 1 200 of 12 000 rows go: the target plan's row count stays well
    // inside the divergence ratio, so no statement recompiles
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("DELETE FROM kv WHERE id = {}", i * 7 % 12_000)
    });
    for mode in MODES {
        let db = kv_rows(mode, 12_000);
        let writer = db.session();
        let got = per_statement(|i| {
            let r = writer.execute_statement(&sqls[i]).unwrap();
            assert!(matches!(r, cbqt::StatementResult::RowsAffected(1)));
        });
        check("single-row DELETE", mode, got, ceiling(mode, (16.0, 15.0)));
    }
}

#[test]
fn single_row_insert() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("INSERT INTO kv VALUES ({}, {}, {})", 2_000 + i, i % 20, i)
    });
    for mode in MODES {
        let db = kv(mode);
        let writer = db.session();
        let got = per_statement(|i| drop(writer.execute_statement(&sqls[i]).unwrap()));
        check(
            "single-row INSERT … VALUES",
            mode,
            got,
            ceiling(mode, (29.5, 29.5)),
        );
    }
}

#[test]
fn sum_count_scan() {
    for mode in MODES {
        let db = kv(mode);
        let got = per_statement(|_| {
            let r = db.query("SELECT SUM(val), COUNT(*) FROM kv").unwrap();
            assert_eq!(r.rows[0][1], Value::Int(2_000));
        });
        check(
            "2 000-row SUM / COUNT scan",
            mode,
            got,
            ceiling(mode, (24.0, 2038.0)),
        );
    }
}

#[test]
fn group_read() {
    // mixed_rw's read of one group: 100 of 2 000 rows pass `grp = g`
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("SELECT SUM(val), COUNT(*) FROM kv WHERE grp = {}", i % 20)
    });
    for mode in MODES {
        let db = kv(mode);
        let got = per_statement(|i| {
            let r = db.query(&sqls[i]).unwrap();
            assert_eq!(r.rows[0][1], Value::Int(100));
        });
        check(
            "2 000-row group read (SUM / COUNT WHERE grp = g)",
            mode,
            got,
            ceiling(mode, (31.5, 2036.5)),
        );
    }
}

#[test]
fn grouped_aggregate() {
    for mode in MODES {
        let db = kv(mode);
        let got = per_statement(|_| {
            let r = db
                .query("SELECT grp, SUM(val), COUNT(*) FROM kv GROUP BY grp")
                .unwrap();
            assert_eq!(r.rows.len(), 20);
        });
        check(
            "2 000-row GROUP BY (20 groups)",
            mode,
            got,
            ceiling(mode, (90.0, 4169.0)),
        );
    }
}

#[test]
fn table2_cache_miss() {
    // the plan cache off: every run parses, searches the CBQT states and
    // plans every block afresh
    for mode in MODES {
        let mut db = hr(mode);
        db.set_plan_cache_enabled(false);
        let rows = db.query(TABLE2).unwrap().rows.len();
        let got = per_cold_statement(|_| assert_eq!(db.query(TABLE2).unwrap().rows.len(), rows));
        check(
            "Table-2 query, cache miss (compile + run)",
            mode,
            got,
            ceiling(mode, (9483.0, 10685.0)),
        );
    }
}

#[test]
fn snowflake_cache_miss() {
    // `cold_joins`' 7-table shape: one memoized join enumeration over
    // fact, three mids and three filtered leaves
    let sqls = texts(60, |i| {
        let (from, preds): (Vec<String>, Vec<String>) = (1..=3)
            .map(|k| {
                (
                    format!("mid{k} m{k}, leaf{k} l{k}"),
                    format!(
                        "f.a{k} = m{k}.fkey AND m{k}.leaf_id = l{k}.id AND l{k}.attr = {}",
                        (i + k) % 12
                    ),
                )
            })
            .unzip();
        format!(
            "SELECT f.id FROM fact f, {} WHERE {}",
            from.join(", "),
            preds.join(" AND ")
        )
    });
    for mode in MODES {
        let mut db = snowflake(mode);
        db.set_plan_cache_enabled(false);
        let got = per_cold_statement(|i| drop(db.query(&sqls[i]).unwrap()));
        check(
            "7-table snowflake, cache miss (compile + run)",
            mode,
            got,
            ceiling(mode, (1462.5, 4317.5)),
        );
    }
}

#[test]
fn recipe_miss() {
    // a comment is part of a statement's shape but not of its plan
    // family: every text misses the recipes, takes the full route
    // (parse, parameterize, family key) to a warm plan and records a
    // recipe of its own
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!(
            "SELECT balance, branch, note FROM accounts WHERE id = {} -- q{i}",
            i * 7 % 20_000
        )
    });
    for mode in MODES {
        let db = accounts(mode);
        db.query("SELECT balance, branch, note FROM accounts WHERE id = 1")
            .unwrap();
        let before = db.plan_cache_stats().recipe_hits;
        let got = per_statement(|i| assert_eq!(db.query(&sqls[i]).unwrap().rows.len(), 1));
        assert_eq!(db.plan_cache_stats().recipe_hits, before, "a recipe served");
        check("recipe miss", mode, got, ceiling(mode, (87.5, 84.5)));
    }
}
