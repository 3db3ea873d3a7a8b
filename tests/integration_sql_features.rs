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
