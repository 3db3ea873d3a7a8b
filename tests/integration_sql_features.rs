//! SQL feature coverage end-to-end: window variants, set-op NULL
//! semantics, CASE forms, string functions, multi-column IN, nested
//! views, and Oracle-style corner semantics.

use cbqt::common::Value;
use cbqt::Database;

fn db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE sales (id INT PRIMARY KEY, rep INT, region VARCHAR(4),
             amount INT, day INT);
         CREATE INDEX i_sales_rep ON sales (rep);",
    )
    .unwrap();
    let mut rows = Vec::new();
    for i in 0..60i64 {
        rows.push(vec![
            Value::Int(i),
            if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(i % 5)
            },
            Value::str(if i % 2 == 0 { "east" } else { "west" }),
            Value::Int((i * 17) % 100),
            Value::Int(i % 10),
        ]);
    }
    db.load_rows("sales", rows).unwrap();
    db.analyze().unwrap();
    db
}

#[test]
fn window_desc_and_multiple_windows() {
    let d = db();
    let r = d
        .query(
            "SELECT id,
                    ROW_NUMBER() OVER (PARTITION BY region ORDER BY amount DESC) rk,
                    SUM(amount) OVER (PARTITION BY region) tot
             FROM sales WHERE day < 2 ORDER BY region, rk",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    // within each region the rank-1 row has the max amount; the partition
    // total is constant
    let mut seen_regions = cbqt_common::hash::HashSet::default();
    for w in r.rows.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if a[1] == Value::Int(1) {
            seen_regions.insert(format!("{:?}", a[2]));
        }
        if b[1].as_i64().unwrap() > 1 {
            assert_eq!(a[2], b[2], "partition total must be constant within region");
        }
    }
    assert!(!seen_regions.is_empty());
}

#[test]
fn union_distinct_treats_null_rows_as_equal() {
    let d = db();
    let r = d
        .query(
            "SELECT rep FROM sales WHERE rep IS NULL
             UNION
             SELECT rep FROM sales WHERE rep IS NULL",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0][0].is_null());
}

#[test]
fn intersect_matches_nulls() {
    let d = db();
    let r = d
        .query(
            "SELECT rep FROM sales WHERE day = 0
             INTERSECT
             SELECT rep FROM sales WHERE day = 3",
        )
        .unwrap();
    // rep NULL appears on both sides (ids 0 and 13 are NULL reps with
    // days 0 and 3) → NULL is in the intersection
    assert!(r.rows.iter().any(|row| row[0].is_null()), "{:?}", r.rows);
}

#[test]
fn case_with_operand_form() {
    let d = db();
    let r = d
        .query(
            "SELECT CASE region WHEN 'east' THEN 1 WHEN 'west' THEN 2 ELSE 0 END
             FROM sales WHERE id = 1",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
}

#[test]
fn string_functions() {
    let d = db();
    let r = d
        .query(
            "SELECT UPPER(region), LOWER(UPPER(region)), LENGTH(region),
                    region || '_' || region
             FROM sales WHERE id = 0",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::str("EAST"));
    assert_eq!(r.rows[0][1], Value::str("east"));
    assert_eq!(r.rows[0][2], Value::Int(4));
    assert_eq!(r.rows[0][3], Value::str("east_east"));
}

#[test]
fn multi_column_in_subquery() {
    let d = db();
    let r = d
        .query(
            "SELECT COUNT(*) FROM sales s WHERE (s.rep, s.region) IN
               (SELECT s2.rep, s2.region FROM sales s2 WHERE s2.amount > 90)",
        )
        .unwrap();
    let n = r.rows[0][0].as_i64().unwrap();
    assert!(n > 0);
}

#[test]
fn deeply_nested_views_merge_away() {
    let d = db();
    let plan = d
        .explain(
            "SELECT w.a FROM (SELECT v.a a FROM (SELECT u.a a FROM \
               (SELECT amount a FROM sales WHERE amount > 10) u) v) w WHERE w.a < 90",
        )
        .unwrap();
    assert!(plan.contains("3 SPJ view merge(s)"), "{plan}");
    let r = d
        .query(
            "SELECT w.a FROM (SELECT v.a a FROM (SELECT u.a a FROM \
               (SELECT amount a FROM sales WHERE amount > 10) u) v) w WHERE w.a < 90",
        )
        .unwrap();
    for row in &r.rows {
        let a = row[0].as_i64().unwrap();
        assert!(a > 10 && a < 90);
    }
}

#[test]
fn distinct_count_aggregate() {
    let d = db();
    let r = d
        .query("SELECT COUNT(DISTINCT region), COUNT(region) FROM sales")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    assert_eq!(r.rows[0][1], Value::Int(60));
}

#[test]
fn group_by_expression_key() {
    let d = db();
    let r = d
        .query("SELECT MOD(amount, 2), COUNT(*) FROM sales GROUP BY MOD(amount, 2) ORDER BY 1")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let total: i64 = r.rows.iter().map(|row| row[1].as_i64().unwrap()).sum();
    assert_eq!(total, 60);
}

#[test]
fn in_list_with_null_semantics() {
    let d = db();
    // rep IN (0, NULL): matches rep=0; NULL rep rows are unknown → out
    let with_null = d
        .query("SELECT COUNT(*) FROM sales WHERE rep IN (0, NULL)")
        .unwrap();
    let without = d
        .query("SELECT COUNT(*) FROM sales WHERE rep IN (0)")
        .unwrap();
    assert_eq!(with_null.rows[0][0], without.rows[0][0]);
    // NOT IN (0, NULL) filters everything (unknown for all non-0 rows)
    let not_in = d
        .query("SELECT COUNT(*) FROM sales WHERE rep NOT IN (0, NULL)")
        .unwrap();
    assert_eq!(not_in.rows[0][0], Value::Int(0));
}

#[test]
fn order_by_nulls_first_and_last() {
    let d = db();
    let first = d
        .query("SELECT rep FROM sales ORDER BY rep ASC NULLS FIRST")
        .unwrap();
    assert!(first.rows[0][0].is_null());
    let last = d
        .query("SELECT rep FROM sales ORDER BY rep ASC NULLS LAST")
        .unwrap();
    assert!(last.rows.last().unwrap()[0].is_null());
}

#[test]
fn scalar_subquery_in_select_list() {
    let d = db();
    let r = d
        .query(
            "SELECT s.id, (SELECT MAX(s2.amount) FROM sales s2 WHERE s2.rep = s.rep) m
             FROM sales s WHERE s.id < 5 ORDER BY s.id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    // id 0 has NULL rep → correlated max over empty set → NULL
    assert!(r.rows[0][1].is_null());
    assert!(!r.rows[1][1].is_null());
}

#[test]
fn having_without_group_by() {
    let d = db();
    let r = d
        .query("SELECT COUNT(*) FROM sales HAVING COUNT(*) > 10")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = d
        .query("SELECT COUNT(*) FROM sales HAVING COUNT(*) > 100")
        .unwrap();
    assert!(r.rows.is_empty());
}
#[test]
fn fromless_select() {
    let db = cbqt::Database::new();
    let r = db.query("SELECT 1, 2 + 3").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![
            cbqt::common::Value::Int(1),
            cbqt::common::Value::Int(5)
        ]]
    );
}

#[test]
fn quantifiers_over_empty_sets() {
    let d = db();
    // ALL over the empty set is TRUE for every row
    let r = d
        .query(
            "SELECT COUNT(*) FROM sales WHERE amount > ALL (SELECT amount FROM sales WHERE id < 0)",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(60));
    // ANY over the empty set is FALSE for every row
    let r = d
        .query(
            "SELECT COUNT(*) FROM sales WHERE amount < ANY (SELECT amount FROM sales WHERE id < 0)",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    // EXISTS over the empty set
    let r = d
        .query("SELECT COUNT(*) FROM sales WHERE EXISTS (SELECT 1 FROM sales s2 WHERE s2.id < 0)")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    // scalar subquery over the empty set is NULL → comparison unknown
    let r = d
        .query("SELECT COUNT(*) FROM sales WHERE amount > (SELECT MAX(amount) FROM sales WHERE id < 0)")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
}

/// Checks that `sql` returns `want` (sorted rows, columns joined by `|`)
/// with every transformation off, and the same rows in the default
/// cost-based mode and in heuristic mode (`cost_based = false`), under
/// both engines.
fn assert_rewrites_keep_rows(db: &mut Database, sql: &str, want: &[&str]) {
    use cbqt::common::ExecutionMode;
    use cbqt::TransformSet;
    let rows = |db: &Database, what: &str| -> Vec<String> {
        let r = db
            .query(sql)
            .unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
        let mut rows: Vec<String> = r
            .rows
            .iter()
            .map(|row| {
                let cols: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                cols.join("|")
            })
            .collect();
        rows.sort();
        rows
    };
    db.set_plan_cache_enabled(false);
    let cfg = db.config_mut();
    cfg.cost_based = false;
    cfg.heuristic_unnest_merge = false;
    cfg.transforms = TransformSet {
        unnest: false,
        view_merge: false,
        jppd: false,
        setop_to_join: false,
        group_by_placement: false,
        predicate_pullup: false,
        join_factorization: false,
        or_expansion: false,
    };
    assert_eq!(rows(db, "transformations off"), want, "{sql}");
    for mode in [ExecutionMode::Vectorized, ExecutionMode::Volcano] {
        for (label, cost_based) in [("default", true), ("heuristic", false)] {
            let cfg = db.config_mut();
            cfg.execution_mode = mode;
            cfg.cost_based = cost_based;
            cfg.heuristic_unnest_merge = true;
            cfg.transforms = TransformSet::default();
            let what = format!("{label}, {mode:?}");
            assert_eq!(rows(db, &what), want, "{what}\n{sql}");
        }
    }
}

/// `employees(emp_id, dept_id, salary)`, `departments(dept_id, loc)` and
/// `job_history(emp_id NOT NULL, dept_id)` filled by `inserts`.
fn hr_db(inserts: &str) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE employees (emp_id INT PRIMARY KEY, dept_id INT, salary INT);
         CREATE TABLE departments (dept_id INT PRIMARY KEY, loc INT);
         CREATE TABLE job_history (emp_id INT NOT NULL, dept_id INT);",
    )
    .unwrap();
    db.execute_script(inserts).unwrap();
    db.analyze().unwrap();
    db
}

#[test]
fn scalar_aggregate_unnesting_keeps_rows_a_null_average_decides() {
    // Employee 1 has no department, so its correlated average is NULL:
    // only a conjunct that compares the subquery directly rejects it.
    let mut db = hr_db("INSERT INTO employees VALUES (1, NULL, 200), (2, 7, 50), (3, 7, 150);");
    let avg = "(SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)";
    for (filter, want) in [
        (
            format!("e.salary > 120 OR e.salary > {avg}"),
            &["1", "3"][..],
        ),
        (
            format!("NOT (e.salary < 0 AND e.salary > {avg})"),
            &["1", "2", "3"][..],
        ),
        (format!("(e.salary > {avg}) IS NULL"), &["1"][..]),
        (format!("e.salary > {avg}"), &["3"][..]),
    ] {
        let sql = format!("SELECT e.emp_id FROM employees e WHERE {filter}");
        assert_rewrites_keep_rows(&mut db, &sql, want);
    }
}

#[test]
fn correlated_not_in_keeps_rows_past_a_null_correlation_key() {
    // s's NULL `k` matches no outer row, so 2 NOT IN (empty set) holds;
    // as a key of a null-aware anti join it would reject every row.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (a INT, k INT);
         CREATE TABLE s (b INT NOT NULL, k INT);
         CREATE TABLE u (b INT NOT NULL);
         INSERT INTO t VALUES (1, 1), (2, 2);
         INSERT INTO s VALUES (1, 1), (5, NULL);
         INSERT INTO u VALUES (1), (5);",
    )
    .unwrap();
    db.analyze().unwrap();
    // one table: unnesting by merging; two: unnesting into a view
    for from in ["s", "s, u"] {
        let join = if from == "s" { "" } else { "s.b = u.b AND " };
        let sql = format!(
            "SELECT t.a FROM t WHERE t.a NOT IN (SELECT s.b FROM {from} WHERE {join}s.k = t.k)"
        );
        assert_rewrites_keep_rows(&mut db, &sql, &["2"]);
    }
}

#[test]
fn group_by_view_read_by_a_parent_subquery_stays_a_view() {
    // merged, the parent's COUNT subquery would read MIN(id) outside the
    // aggregation
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE emp (id INT PRIMARY KEY, dept INT, sal INT);
         CREATE TABLE dept (dept INT PRIMARY KEY);
         CREATE TABLE jh (id INT NOT NULL, dept INT);
         INSERT INTO emp VALUES (1, 10, 100), (2, 10, 200), (3, 20, 300);
         INSERT INTO dept VALUES (10), (20), (30);
         INSERT INTO jh VALUES (1, 10);",
    )
    .unwrap();
    db.analyze().unwrap();
    let sql = "SELECT v.dept FROM (SELECT dept, MIN(id) id FROM emp GROUP BY dept) v, dept d \
               WHERE v.dept = d.dept AND (SELECT COUNT(*) FROM jh j WHERE j.id = v.id) = 0";
    assert_rewrites_keep_rows(&mut db, sql, &["20"]);
}

#[test]
fn subquery_in_a_left_operand_keeps_its_subplan() {
    // The left operand is a scalar subquery; unnesting the right-hand
    // subquery must not move it into a join condition.
    let mut db = hr_db(
        "INSERT INTO employees VALUES (1, 10, 100), (2, 20, 200), (3, NULL, 300), (4, 30, 400);
         INSERT INTO departments VALUES (10, 1), (20, 2);
         INSERT INTO job_history VALUES (1, 10), (2, 30);",
    );
    let max = "(SELECT MAX(d.dept_id) FROM departments d WHERE d.dept_id = e.dept_id)";
    for (test, want) in [
        ("IN (SELECT j.dept_id FROM job_history j)", &["1"][..]),
        ("NOT IN (SELECT j.dept_id FROM job_history j)", &["2"][..]),
        ("> ANY (SELECT j.dept_id FROM job_history j)", &["2"][..]),
    ] {
        let sql = format!("SELECT e.emp_id FROM employees e WHERE {max} {test}");
        assert_rewrites_keep_rows(&mut db, &sql, want);
    }
}

/// `t(id, g, x)` holding `(i, i % 2, 10·i)` for i = 0..5, `u(id, a)`
/// holding (1, 1), (2, 1), (3, 2), and the one-row `one`: a filter
/// compared with `(SELECT c FROM one)` is pinned above its view, since
/// no rewrite pushes a subquery into one.
fn tu_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT);
         CREATE TABLE u (id INT PRIMARY KEY, a INT);
         CREATE TABLE one (k INT);
         INSERT INTO t VALUES (0, 0, 0), (1, 1, 10), (2, 0, 20), (3, 1, 30), (4, 0, 40), (5, 1, 50);
         INSERT INTO u VALUES (1, 1), (2, 1), (3, 2);
         INSERT INTO one VALUES (0);",
    )
    .unwrap();
    db.analyze().unwrap();
    db
}

/// Checks `sql`, whose filter push-down may move into its view, and
/// `pinned`, the same statement with the filter kept above the view,
/// both return `want` in every configuration.
fn assert_pushdown_keeps_rows(sql: &str, pinned: &str, want: &[&str]) {
    let mut db = tu_db();
    assert_rewrites_keep_rows(&mut db, pinned, want);
    assert_rewrites_keep_rows(&mut db, sql, want);
}

#[test]
fn filter_on_a_constant_output_stays_above_a_scalar_aggregate() {
    let view = "SELECT v.c, v.k FROM (SELECT COUNT(*) AS c, 1 AS k FROM t) v";
    assert_pushdown_keeps_rows(
        &format!("{view} WHERE v.k = 2"),
        &format!("{view} WHERE v.k = (SELECT 2 FROM one)"),
        &[],
    );
}

#[test]
fn lower_bound_written_constant_first_stays_above_a_running_sum() {
    let view = "SELECT v.x, v.rs FROM (SELECT x, SUM(x) OVER (ORDER BY x) AS rs FROM t) v";
    assert_pushdown_keeps_rows(
        &format!("{view} WHERE 20 < v.x"),
        &format!("{view} WHERE (SELECT 20 FROM one) < v.x"),
        &["30|60", "40|100", "50|150"],
    );
}

#[test]
fn filter_on_a_window_output_stays_above_the_window() {
    let view = "SELECT v.g, v.rn FROM \
                (SELECT g, ROW_NUMBER() OVER (PARTITION BY g ORDER BY g) AS rn FROM t) v";
    assert_pushdown_keeps_rows(
        &format!("{view} WHERE v.rn = 1"),
        &format!("{view} WHERE v.rn = (SELECT 1 FROM one)"),
        &["0|1", "1|1"],
    );
}

#[test]
fn having_filter_stays_above_a_window_over_the_groups() {
    let view = "SELECT v.a, v.c, v.rs FROM (SELECT a, COUNT(*) AS c, \
                SUM(COUNT(*)) OVER (ORDER BY a) AS rs FROM u GROUP BY a) v";
    assert_pushdown_keeps_rows(
        &format!("{view} WHERE v.c < 2"),
        &format!("{view} WHERE v.c < (SELECT 2 FROM one)"),
        &["2|1|3"],
    );
}

#[test]
fn filter_stays_above_a_union_all_with_a_rownum_branch() {
    let view = "SELECT v.x FROM \
                (SELECT x FROM t WHERE ROWNUM <= 2 UNION ALL SELECT x FROM t WHERE x = 50) v";
    assert_pushdown_keeps_rows(
        &format!("{view} WHERE v.x > 5"),
        &format!("{view} WHERE v.x > (SELECT 5 FROM one)"),
        &["10", "50"],
    );
}

#[test]
fn lower_bound_stays_above_a_union_all_branch_with_a_running_sum() {
    let view = "SELECT v.x, v.rs FROM \
                (SELECT x, SUM(x) OVER (ORDER BY x) rs FROM t UNION ALL SELECT a, a FROM u) v";
    assert_pushdown_keeps_rows(
        &format!("{view} WHERE v.x > 20"),
        &format!("{view} WHERE v.x > (SELECT 20 FROM one)"),
        &["30|60", "40|100", "50|150"],
    );
}

#[test]
fn pullup_adds_no_output_to_an_aggregated_view() {
    let sql = "SELECT v.g, v.c FROM (SELECT g, COUNT(*) AS c FROM t \
               WHERE EXPENSIVE(x, 50) > 0 GROUP BY g) v WHERE ROWNUM <= 5";
    assert_rewrites_keep_rows(&mut tu_db(), sql, &["0|2", "1|3"]);
}

#[test]
fn pullup_lifts_nothing_out_of_a_rownum_view() {
    let sql = "SELECT v.g FROM (SELECT g FROM t WHERE EXPENSIVE(x, 50) > 0 AND ROWNUM <= 2 \
               ORDER BY g) v WHERE ROWNUM <= 5";
    assert_rewrites_keep_rows(&mut tu_db(), sql, &["0", "1"]);
}

/// `t`'s sums by `g` with a grand total, whose `g` is NULL: a filter
/// that hides a NULL `g` behind NVL or CASE keeps the total's row, so
/// group pruning (§2.1.4) must keep its grouping set. The pinned form
/// `… OR 1 = 0` is no comparison at the top and prunes nothing.
fn assert_rollup_filter_keeps_rows(filter: &str, want: &[&str]) {
    let sql = format!(
        "SELECT v.g, v.s FROM (SELECT g, SUM(x) AS s FROM t GROUP BY ROLLUP (g)) v WHERE {filter}"
    );
    assert_pushdown_keeps_rows(&sql, &format!("{sql} OR 1 = 0"), want);
}

#[test]
fn group_pruning_keeps_the_total_under_nvl() {
    assert_rollup_filter_keeps_rows("NVL(v.g, 9) = 9", &["NULL|150"]);
}

#[test]
fn group_pruning_keeps_the_total_under_case_is_null() {
    assert_rollup_filter_keeps_rows(
        "(CASE WHEN v.g IS NULL THEN 1 ELSE 0 END) = 1",
        &["NULL|150"],
    );
}

#[test]
fn group_pruning_keeps_the_total_under_nvl_in_a_list() {
    assert_rollup_filter_keeps_rows("NVL(v.g, 9) IN (9)", &["NULL|150"]);
}

#[test]
fn group_pruning_still_prunes_on_a_comparison() {
    assert_rollup_filter_keeps_rows("v.g = 1", &["1|90"]);
}

#[test]
fn running_sum_gives_order_by_peers_one_value() {
    // the default frame is RANGE: the three rows tied on g = 0 all sum
    // to the last of them, as Q7's explicit spelling does
    let want = ["0|60", "0|60", "0|60", "1|150", "1|150", "1|150"];
    for frame in ["", " RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"] {
        let sql = format!("SELECT g, SUM(x) OVER (ORDER BY g{frame}) FROM t");
        assert_rewrites_keep_rows(&mut tu_db(), &sql, &want);
    }
}
