//! Bind-parameter plan sharing end-to-end: literal extraction, the
//! prepared-statement API, adaptive cursor sharing (one plan variant
//! per selectivity bucket), per-table cache invalidation, and the
//! cache-bypass contract of EXPLAIN and the differential oracle.

use cbqt::common::Value;
use cbqt::{Database, StatementLimits};

/// employees(emp_id, salary) with `rows` rows, salary = 1000 + i
/// (uniform, all distinct), analyzed.
fn uniform_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE employees (emp_id INT PRIMARY KEY, salary INT);
         CREATE INDEX i_emp_sal ON employees (salary);",
    )
    .unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int(i), Value::Int(1000 + i)])
        .collect();
    db.load_rows("employees", data).unwrap();
    db.analyze().unwrap();
    db
}

#[test]
fn thousand_query_family_compiles_once_per_bucket() {
    let db = uniform_db(1000);
    // 1000 statements differing only in the literal: uniform data, so
    // every bind value lands in the same selectivity bucket
    for i in 0..1000i64 {
        let r = db
            .query(&format!(
                "SELECT emp_id FROM employees WHERE salary = {}",
                1000 + i
            ))
            .unwrap();
        // the shared plan must still see *this* statement's literal
        assert_eq!(r.rows, vec![vec![Value::Int(i)]], "salary = {}", 1000 + i);
        assert_eq!(r.stats.plan_cache_hit, i > 0);
        assert_eq!(r.stats.bind_params, 1);
        assert!(!r.stats.bind_mismatch);
    }
    let s = db.plan_cache_stats();
    assert_eq!((s.families, s.entries), (1, 1), "{s:?}");
    assert_eq!((s.hits, s.misses, s.bind_mismatches), (999, 1, 0), "{s:?}");
}

#[test]
fn selectivity_buckets_split_the_family() {
    let db = uniform_db(1000);
    // `salary > 1010` matches ~99% of rows; `salary > 1990` matches
    // ~1% — different log10 selectivity bands, so adaptive cursor
    // sharing must compile a sibling instead of reusing the first plan
    let broad = db
        .query("SELECT emp_id FROM employees WHERE salary > 1010")
        .unwrap();
    assert_eq!(broad.rows.len(), 989);
    assert!(!broad.stats.plan_cache_hit && !broad.stats.bind_mismatch);
    let narrow = db
        .query("SELECT emp_id FROM employees WHERE salary > 1990")
        .unwrap();
    assert_eq!(narrow.rows.len(), 9);
    assert!(!narrow.stats.plan_cache_hit);
    assert!(narrow.stats.bind_mismatch, "{:?}", narrow.stats);
    let s = db.plan_cache_stats();
    assert_eq!(s.families, 1, "one query family: {s:?}");
    assert!(s.entries >= 2, "expected >= 2 sibling plans: {s:?}");
    assert_eq!(s.bind_mismatches, 1, "{s:?}");
    // each bucket's variant now serves its own band
    let again_broad = db
        .query("SELECT emp_id FROM employees WHERE salary > 1020")
        .unwrap();
    assert!(again_broad.stats.plan_cache_hit);
    assert_eq!(again_broad.rows.len(), 979);
    let again_narrow = db
        .query("SELECT emp_id FROM employees WHERE salary > 1995")
        .unwrap();
    assert!(again_narrow.stats.plan_cache_hit);
    assert_eq!(again_narrow.rows.len(), 4);
}

#[test]
fn skewed_equality_splits_into_two_variants() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE events (id INT PRIMARY KEY, kind INT);")
        .unwrap();
    // heavy skew: kind 0 covers 99% of rows, kinds 1..=10 one row each
    let mut rows: Vec<Vec<Value>> = (0..990)
        .map(|i| vec![Value::Int(i), Value::Int(0)])
        .collect();
    for k in 1..=10i64 {
        rows.push(vec![Value::Int(989 + k), Value::Int(k)]);
    }
    db.load_rows("events", rows).unwrap();
    db.analyze().unwrap();
    let popular = db.query("SELECT id FROM events WHERE kind = 0").unwrap();
    assert_eq!(popular.rows.len(), 990);
    let rare = db.query("SELECT id FROM events WHERE kind = 5").unwrap();
    assert_eq!(rare.rows.len(), 1);
    assert!(rare.stats.bind_mismatch, "{:?}", rare.stats);
    let s = db.plan_cache_stats();
    assert_eq!(s.families, 1, "{s:?}");
    assert_eq!(s.entries, 2, "{s:?}");
}

#[test]
fn mismatch_and_split_show_up_in_the_trace() {
    let db = uniform_db(1000);
    db.query("SELECT emp_id FROM employees WHERE salary > 1010")
        .unwrap();
    let report = db
        .trace("SELECT emp_id FROM employees WHERE salary > 1990")
        .unwrap();
    let text = report.render();
    assert!(text.contains("PLAN CACHE BIND MISMATCH bucket="), "{text}");
    assert!(
        text.contains("PLAN CACHE FAMILY SPLIT variants=2"),
        "{text}"
    );
}

#[test]
fn writes_to_one_table_leave_other_tables_plans_warm() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t1 (a INT PRIMARY KEY, b INT);
         CREATE TABLE t2 (c INT PRIMARY KEY, d INT);",
    )
    .unwrap();
    db.load_rows(
        "t1",
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect(),
    )
    .unwrap();
    db.load_rows(
        "t2",
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i * 3)])
            .collect(),
    )
    .unwrap();
    db.analyze().unwrap();
    let q1 = "SELECT b FROM t1 WHERE a = 7";
    let q2 = "SELECT d FROM t2 WHERE c = 7";
    assert!(!db.query(q1).unwrap().stats.plan_cache_hit);
    assert!(!db.query(q2).unwrap().stats.plan_cache_hit);

    let v1 = db
        .catalog()
        .table_version(db.catalog().table_by_name("t1").unwrap().id);
    let t2_id = db.catalog().table_by_name("t2").unwrap().id;
    let v2 = db.catalog().table_version(t2_id);
    db.execute_mut("INSERT INTO t1 VALUES (100, 200)").unwrap();
    // only t1's version moved
    assert!(
        db.catalog()
            .table_version(db.catalog().table_by_name("t1").unwrap().id)
            > v1
    );
    assert_eq!(db.catalog().table_version(t2_id), v2);

    // both plans are still warm: a plan depends on a table's shape,
    // and one row more in 50 is no drift
    assert!(db.query(q2).unwrap().stats.plan_cache_hit);
    let r1 = db.query(q1).unwrap();
    assert!(r1.stats.plan_cache_hit);
    assert_eq!(r1.rows, vec![vec![Value::Int(14)]]);
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (2, 2, 0), "{s:?}");

    // a load that multiplies t1 past the divergence ratio (50 rows at
    // compile, 551 now) invalidates t1's plan and leaves t2's warm
    db.load_rows(
        "t1",
        (1000..1500)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect(),
    )
    .unwrap();
    assert!(db.query(q2).unwrap().stats.plan_cache_hit);
    let r1 = db.query(q1).unwrap();
    assert!(!r1.stats.plan_cache_hit);
    assert_eq!(r1.rows, vec![vec![Value::Int(14)]]);
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (3, 3, 1), "{s:?}");
    // and the recompiled t1 plan serves the family again
    assert!(
        db.query("SELECT b FROM t1 WHERE a = 9")
            .unwrap()
            .stats
            .plan_cache_hit
    );
}

#[test]
fn explain_and_differential_bypass_the_plan_cache() {
    let db = uniform_db(100);
    let sql = "SELECT emp_id FROM employees WHERE salary = 1042";
    let before = db.plan_cache_stats();
    let cold_explain = db.explain(sql).unwrap();
    // EXPLAIN shows the query as written: the literal survives, no
    // bind slot in sight
    assert!(cold_explain.contains("1042"), "{cold_explain}");
    db.explain_analyze(sql).unwrap();
    assert!(db
        .differential_exec(sql, &StatementLimits::none())
        .unwrap()
        .is_empty());
    let after = db.plan_cache_stats();
    assert_eq!(
        (before.hits, before.misses, before.entries),
        (after.hits, after.misses, after.entries),
        "cache-exempt paths must not touch the plan cache"
    );
    // the serving path does populate it — and a warm cache does not
    // change what EXPLAIN prints
    db.query(sql).unwrap();
    assert_eq!(db.plan_cache_stats().entries, 1);
    assert_eq!(db.explain(sql).unwrap(), cold_explain);
}

#[test]
fn prepared_statements_share_the_extracted_family() {
    let db = uniform_db(1000);
    // literal text first: seeds the family
    let lit = db
        .query("SELECT emp_id FROM employees WHERE salary = 1100")
        .unwrap();
    assert_eq!(lit.rows, vec![vec![Value::Int(100)]]);
    // explicit-`?` prepared form of the same query family
    let p = db
        .prepare("SELECT emp_id FROM employees WHERE salary = ?")
        .unwrap();
    assert_eq!(p.param_count(), 1);
    assert!(p.param_defaults().is_empty());
    let bound = p.query(&[Value::Int(1200)]).unwrap();
    assert_eq!(bound.rows, vec![vec![Value::Int(200)]]);
    // same family key, same bucket: served from the literal query's plan
    assert!(bound.stats.plan_cache_hit, "{:?}", bound.stats);
    assert_eq!(db.plan_cache_stats().families, 1);

    // preparing literal text extracts the literals as defaults
    let p2 = db
        .prepare("SELECT emp_id FROM employees WHERE salary = 1300")
        .unwrap();
    assert_eq!(p2.param_count(), 1);
    assert_eq!(p2.param_defaults(), &[Value::Int(1300)]);
    assert_eq!(p2.query(&[]).unwrap().rows, vec![vec![Value::Int(300)]]);
    assert_eq!(
        p2.query(&[Value::Int(1400)]).unwrap().rows,
        vec![vec![Value::Int(400)]]
    );
    assert_eq!(db.plan_cache_stats().families, 1);
}

#[test]
fn query_bound_runs_explicit_binds_through_the_family_cache() {
    let db = uniform_db(1000);
    let sql = "SELECT emp_id FROM employees WHERE salary = ?";
    let a = db.query_bound(sql, &[Value::Int(1005)]).unwrap();
    assert_eq!(a.rows, vec![vec![Value::Int(5)]]);
    assert!(!a.stats.plan_cache_hit);
    let b = db.query_bound(sql, &[Value::Int(1006)]).unwrap();
    assert_eq!(b.rows, vec![vec![Value::Int(6)]]);
    assert!(b.stats.plan_cache_hit);
    // sessions expose the same API under their own cancel scope
    let session = db.session();
    let c = session.query_bound(sql, &[Value::Int(1007)]).unwrap();
    assert_eq!(c.rows, vec![vec![Value::Int(7)]]);
    assert!(c.stats.plan_cache_hit);
    let p = session.prepare(sql).unwrap();
    assert_eq!(
        p.query(&[Value::Int(1008)]).unwrap().rows,
        vec![vec![Value::Int(8)]]
    );
}

#[test]
fn bind_errors_are_actionable() {
    let db = uniform_db(10);
    // plain query() cannot run a statement with unbound parameters
    let err = db
        .query("SELECT emp_id FROM employees WHERE salary = ?")
        .unwrap_err();
    assert!(err.to_string().contains("query_bound"), "{err}");
    // arity mismatches name both counts
    let err = db
        .query_bound(
            "SELECT emp_id FROM employees WHERE salary = ?",
            &[Value::Int(1), Value::Int(2)],
        )
        .unwrap_err();
    assert!(err.to_string().contains("expects 1"), "{err}");
    // values against a parameterless statement are rejected
    let err = db
        .query_bound("SELECT emp_id FROM employees", &[Value::Int(1)])
        .unwrap_err();
    assert!(err.to_string().contains("no bind parameters"), "{err}");
    // DDL/DML cannot be prepared
    let err = match db.prepare("INSERT INTO employees VALUES (1, 2)") {
        Err(e) => e,
        Ok(_) => panic!("prepare accepted DML"),
    };
    assert!(
        err.to_string()
            .contains("prepare requires a query, got INSERT"),
        "{err}"
    );
}

#[test]
fn literal_and_bound_forms_agree_across_engines() {
    use cbqt::common::ExecutionMode;
    let mut rows_by_mode = Vec::new();
    for mode in [ExecutionMode::Vectorized, ExecutionMode::Volcano] {
        let mut db = uniform_db(200);
        db.config_mut().execution_mode = mode;
        let lit = db
            .query("SELECT emp_id FROM employees WHERE salary > 1150")
            .unwrap();
        let bound = db
            .query_bound(
                "SELECT emp_id FROM employees WHERE salary > ?",
                &[Value::Int(1150)],
            )
            .unwrap();
        assert_eq!(lit.rows, bound.rows);
        rows_by_mode.push(lit.rows);
    }
    assert_eq!(rows_by_mode[0], rows_by_mode[1]);
}

#[test]
fn recipes_serve_a_thousand_literal_variants_without_a_parse() {
    let db = uniform_db(1000);
    let mut off = uniform_db(1000);
    off.set_plan_cache_enabled(false);
    for i in 0..1000i64 {
        // two literals per statement; the range moves across
        // selectivity bands, so siblings compile too
        let sql = format!(
            "SELECT emp_id, salary FROM employees WHERE salary > {} AND emp_id <= {}",
            1000 + i,
            300 + (i * 7) % 700
        );
        let (got, want) = (db.query(&sql).unwrap(), off.query(&sql).unwrap());
        assert_eq!(got.rows, want.rows, "{sql}");
        assert_eq!(got.stats.bind_params, 2);
    }
    let s = db.plan_cache_stats();
    assert!(s.recipe_hits >= 998, "{s:?}");
    assert_eq!(s.recipes, 1, "{s:?}");
    assert_eq!(off.plan_cache_stats().recipes, 0);
}

#[test]
fn clearing_the_plan_cache_drops_every_recipe() {
    let mut db = uniform_db(100);
    for sql in [
        "SELECT emp_id FROM employees WHERE salary = 1005",
        "SELECT emp_id FROM employees WHERE emp_id = 7",
        "select emp_id from employees where emp_id = 7",
    ] {
        db.query(sql).unwrap();
    }
    // each spelling is its own shape
    assert_eq!(db.plan_cache_stats().recipes, 3);
    db.clear_plan_cache();
    let s = db.plan_cache_stats();
    assert_eq!((s.recipes, s.entries, s.bytes), (0, 0, 0), "{s:?}");
    // the next statement of a cleared shape takes the full route again
    db.query("SELECT emp_id FROM employees WHERE emp_id = 8")
        .unwrap();
    assert_eq!(db.plan_cache_stats().recipe_hits, 0);
    db.query("SELECT emp_id FROM employees WHERE emp_id = 9")
        .unwrap();
    assert_eq!(db.plan_cache_stats().recipe_hits, 1);
    // every toggle that clears the cache drops them too
    db.config_mut();
    assert_eq!(db.plan_cache_stats().recipes, 0);
    db.query("SELECT emp_id FROM employees WHERE emp_id = 9")
        .unwrap();
    assert_eq!(db.plan_cache_stats().recipes, 1);
    db.set_plan_cache_enabled(false);
    assert_eq!(db.plan_cache_stats().recipes, 0);
    // and with the plan cache off no recipe is recorded
    db.query("SELECT emp_id FROM employees WHERE emp_id = 9")
        .unwrap();
    assert_eq!(db.plan_cache_stats().recipes, 0);
}

#[test]
fn a_literal_equal_to_a_bind_never_recipe_serves_a_wrong_bind() {
    let db = uniform_db(100);
    let mut off = uniform_db(100);
    off.set_plan_cache_enabled(false);
    let rows = |sql: &str| {
        let got = db.query(sql).unwrap().rows;
        assert_eq!(got, off.query(sql).unwrap().rows, "{sql}");
        got
    };
    // `5` twice: the parser says the second is the bind, so a recipe is
    // recorded whose select-list constant stays fixed
    let five = "SELECT 5, emp_id FROM employees WHERE emp_id = 5";
    assert_eq!(rows(five), vec![vec![Value::Int(5), Value::Int(5)]]);
    assert_eq!(db.plan_cache_stats().recipes, 1);
    let bind = "SELECT 5, emp_id FROM employees WHERE emp_id = 6";
    assert_eq!(rows(bind), vec![vec![Value::Int(5), Value::Int(6)]]);
    assert_eq!(db.plan_cache_stats().recipe_hits, 1);
    // another constant is declined, not served the recorded one
    let six = "SELECT 6, emp_id FROM employees WHERE emp_id = 6";
    assert_eq!(rows(six), vec![vec![Value::Int(6), Value::Int(6)]]);
    assert_eq!(db.plan_cache_stats().recipe_hits, 1);
}

#[test]
fn equal_and_zero_literals_record_recipes_that_serve_each_sibling_its_binds() {
    let db = uniform_db(100);
    let mut off = uniform_db(100);
    off.set_plan_cache_enabled(false);
    let rows = |sql: &str| {
        let got = db.query(sql).unwrap().rows;
        assert_eq!(got, off.query(sql).unwrap().rows, "{sql}");
        got
    };
    let ids =
        |ids: &[i64]| -> Vec<Vec<Value>> { ids.iter().map(|&i| vec![Value::Int(i)]).collect() };
    // two equal literals, both zero: each is a slot of its own
    let between = "SELECT emp_id FROM employees WHERE emp_id BETWEEN 0 AND 0";
    assert_eq!(rows(between), ids(&[0]));
    assert_eq!(db.plan_cache_stats().recipes, 1);
    let sibling = "SELECT emp_id FROM employees WHERE emp_id BETWEEN 3 AND 5";
    assert_eq!(rows(sibling), ids(&[3, 4, 5]));
    let sibling = "SELECT emp_id FROM employees WHERE emp_id BETWEEN 7 AND 0";
    assert_eq!(rows(sibling), ids(&[]));
    assert_eq!(db.plan_cache_stats().recipe_hits, 2);
    // a write whose SET value equals its key records a recipe too
    let (session, twin) = (db.session(), off.session());
    let write = |sql: &str| {
        let (got, want) = (session.execute(sql), twin.execute(sql));
        assert_eq!((got.is_ok(), want.is_ok()), (true, true), "{sql}");
    };
    write("UPDATE employees SET salary = 5 WHERE emp_id = 5");
    let hits = db.plan_cache_stats().recipe_hits;
    write("UPDATE employees SET salary = 2 WHERE emp_id = 0");
    assert_eq!(db.plan_cache_stats().recipe_hits, hits + 1);
    let salaries = "SELECT emp_id, salary FROM employees WHERE emp_id <= 5 ORDER BY emp_id";
    let got = rows(salaries);
    assert_eq!(got[0], vec![Value::Int(0), Value::Int(2)]);
    assert_eq!(got[5], vec![Value::Int(5), Value::Int(5)]);
}

#[test]
fn an_explain_run_as_its_query_records_no_recipe() {
    let db = uniform_db(100);
    // `trace` runs the query of an EXPLAIN; the EXPLAIN's shape must
    // not learn to run
    db.trace("EXPLAIN SELECT emp_id FROM employees WHERE salary = 1005")
        .unwrap();
    assert_eq!(db.plan_cache_stats().recipes, 0);
    let r = db
        .query("EXPLAIN SELECT emp_id FROM employees WHERE salary = 1006")
        .unwrap();
    assert_eq!(r.columns, vec!["PLAN"]);
    // an explain of a recorded query's text explains it
    db.query("SELECT emp_id FROM employees WHERE salary = 1005")
        .unwrap();
    assert_eq!(db.plan_cache_stats().recipes, 1);
    let text = db
        .explain("SELECT emp_id FROM employees WHERE salary = 1006")
        .unwrap();
    assert!(text.contains("physical plan"), "{text}");
    assert_eq!(db.plan_cache_stats().recipe_hits, 0);
}
