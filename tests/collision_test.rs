//! A comment can hide the rest of a line: two texts that differ only in
//! a line break inside a comment are two statements, and must never
//! share a plan.

use cbqt::Database;

#[test]
fn text_hidden_in_a_comment_never_shares_a_plan() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (a INT, b INT);
         INSERT INTO t VALUES (1, 10);
         INSERT INTO t VALUES (2, 20);",
    )
    .unwrap();
    let filtered = "SELECT t.a FROM t -- note\nWHERE t.a = 1";
    let unfiltered = "SELECT t.a FROM t -- note WHERE t.a = 1";
    assert_eq!(db.query(filtered).unwrap().rows.len(), 1);
    let r = db.query(unfiltered).unwrap();
    assert_eq!(r.rows.len(), 2, "wrong rows served from the plan cache");
    assert!(!r.stats.plan_cache_hit);
    // the second text recorded its shape's recipe; served from it, the
    // statement still reads every row
    let before = db.plan_cache_stats().recipe_hits;
    let r = db.query(unfiltered).unwrap();
    assert_eq!(db.plan_cache_stats().recipe_hits, before + 1);
    assert_eq!(r.rows.len(), 2, "wrong rows served from a recipe");
}
