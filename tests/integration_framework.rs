//! Framework-level integration: the four search strategies agree on
//! results, annotation reuse fires across states, and the configuration
//! switches behave.

use cbqt::common::Value;
use cbqt::{Database, SearchStrategy};
use std::time::Duration;

fn db() -> Database {
    db_with_rows(300)
}

fn db_with_rows(n: i64) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t1 (a INT PRIMARY KEY, b INT, c INT);
         CREATE TABLE t2 (a INT PRIMARY KEY, b INT, c INT);
         CREATE TABLE t3 (a INT PRIMARY KEY, b INT, c INT);
         CREATE INDEX i1 ON t1 (b); CREATE INDEX i2 ON t2 (b); CREATE INDEX i3 ON t3 (b);",
    )
    .unwrap();
    for t in ["t1", "t2", "t3"] {
        let mut rows = Vec::new();
        for i in 0..n {
            rows.push(vec![Value::Int(i), Value::Int(i % 25), Value::Int(i % 7)]);
        }
        db.load_rows(t, rows).unwrap();
    }
    db.analyze().unwrap();
    db
}

/// The paper's Table 2 query shape: three base tables and four
/// unnestable multi-table subqueries (NOT IN / EXISTS / NOT EXISTS /
/// IN); multi-table subqueries require the cost-based inline-view
/// unnesting, so each contributes a state-space object.
const TABLE2_QUERY: &str = "SELECT t1.a FROM t1, t2, t3
    WHERE t1.b = t2.b AND t2.c = t3.c AND
          t1.a NOT IN (SELECT x1.b FROM t1 x1, t2 y1 WHERE x1.a = y1.a
                       AND x1.c = 3 AND x1.b IS NOT NULL) AND
          EXISTS (SELECT 1 FROM t2 x2, t3 y2 WHERE x2.a = y2.a
                  AND x2.b = t1.b AND x2.c = 5) AND
          NOT EXISTS (SELECT 1 FROM t3 x3, t1 y3 WHERE x3.a = y3.a
                      AND x3.b = t1.b AND x3.c = 6) AND
          t1.c IN (SELECT x4.c FROM t2 x4, t3 y4 WHERE x4.a = y4.a AND x4.b = 10)";

fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    v.sort();
    v
}

#[test]
fn strategies_agree_on_results() {
    let mut base = None;
    for strategy in [
        SearchStrategy::Exhaustive,
        SearchStrategy::Linear,
        SearchStrategy::Iterative,
        SearchStrategy::TwoPass,
        SearchStrategy::Auto,
    ] {
        let mut d = db();
        d.config_mut().search = strategy;
        let r = d.query(TABLE2_QUERY).unwrap();
        let c = canon(&r.rows);
        match &base {
            None => base = Some(c),
            Some(b) => assert_eq!(*b, c, "{strategy:?} diverged"),
        }
    }
}

#[test]
fn strategy_state_counts_match_paper_shape() {
    // single-table subqueries are merged heuristically; to exercise the
    // cost-based unnesting space the subqueries must be unmergeable —
    // this uses the interleave=off simple count check instead
    let mut d = db();
    d.config_mut().interleave = false;
    d.config_mut().search = SearchStrategy::TwoPass;
    let two = d.query(TABLE2_QUERY).unwrap();
    let mut d = db();
    d.config_mut().interleave = false;
    d.config_mut().search = SearchStrategy::Exhaustive;
    let ex = d.query(TABLE2_QUERY).unwrap();
    assert!(two.stats.states_explored <= ex.stats.states_explored);
}

#[test]
fn annotation_reuse_reduces_blocks_costed() {
    let mut with_reuse = db();
    with_reuse.config_mut().optimizer.reuse_annotations = true;
    let r1 = with_reuse.query(TABLE2_QUERY).unwrap();
    let mut without = db();
    without.config_mut().optimizer.reuse_annotations = false;
    let r2 = without.query(TABLE2_QUERY).unwrap();
    assert_eq!(canon(&r1.rows), canon(&r2.rows));
    assert!(r1.stats.annotation_hits > 0);
    assert_eq!(r2.stats.annotation_hits, 0);
    assert!(
        r1.stats.blocks_costed < r2.stats.blocks_costed,
        "reuse must shrink optimization work: {} vs {}",
        r1.stats.blocks_costed,
        r2.stats.blocks_costed
    );
}

/// An inner block may reuse an outer block's alias. The first two
/// branches below then spell their subquery's column the same way —
/// alias `e`, second column — while one reads the outer `a.y` and the
/// other the inner `b.q`. The annotation key has to follow the binding,
/// not the spelling: the second branch must not be served the first
/// one's plan, and the third, which repeats the first, must be.
#[test]
fn annotation_reuse_tells_a_shadowed_alias_from_the_outer_one() {
    let branch = |subquery: &str| {
        format!("SELECT o.x FROM a o WHERE o.x < 0 OR EXISTS (SELECT 1 FROM {subquery} > 3)")
    };
    let three = |first: &str, second: &str| {
        [branch(first), branch(second), branch(first)].join(" UNION ALL ")
    };
    // unqualified, `y` can only be the outer table's and `q` the inner's
    let shadowed = three("b o WHERE y", "b o WHERE q");
    // the same two bindings on one table, spelled out
    let same_table = three("a e WHERE o.y", "a e WHERE e.y");
    let make = |reuse: bool| {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE a (x INT, y INT); CREATE TABLE b (p INT, q INT);
             INSERT INTO a VALUES (1, 5); INSERT INTO a VALUES (2, 1);
             INSERT INTO b VALUES (7, 2);",
        )
        .unwrap();
        db.analyze().unwrap();
        // literals stay literals: as bind slots no two would be alike
        db.set_plan_cache_enabled(false);
        db.config_mut().optimizer.reuse_annotations = reuse;
        db
    };
    let (with_reuse, without) = (make(true), make(false));
    // a.y > 3 holds for x = 1 only; no b.q > 3; some a.y > 3
    let expected = [
        (&shadowed, vec!["1", "1"]),
        (&same_table, vec!["1", "1", "1", "2"]),
    ];
    for (sql, rows) in expected {
        let reused = with_reuse.query(sql).unwrap();
        // the third branch; its subquery binds another `o` than the first's
        assert_eq!(reused.stats.annotation_hits, 1, "{sql}");
        assert_eq!(canon(&reused.rows), rows, "{sql}");
        assert_eq!(canon(&without.query(sql).unwrap().rows), rows, "{sql}");
    }
}

/// A star-shaped main block (4 inner items, the bushy enumerator's
/// tier) plus an unnestable two-table EXISTS, so unnested states carry a
/// semi-joined item and the others stay all-inner.
const STAR_QUERY: &str = "SELECT f.a FROM t1 f, t2 d1, t3 d2, t1 d3
    WHERE f.b = d1.b AND f.c = d2.c AND d1.c = d3.c AND
          EXISTS (SELECT 1 FROM t2 x, t3 y WHERE x.a = y.a AND x.b = f.b)";

/// Everything a statement reports except wall-clock times: rendered
/// trace, EXPLAIN text, rows in output order and the `QueryStats`
/// counters. The plan cache is off so the trace, the EXPLAIN and the
/// query each run the full search.
fn observable(mut d: Database, sql: &str) -> String {
    d.set_plan_cache_enabled(false);
    let trace = d.trace(sql).unwrap().render();
    let explain = d.explain(sql).unwrap();
    let mut r = d.query(sql).unwrap();
    r.stats.optimize_time = Duration::ZERO;
    r.stats.execute_time = Duration::ZERO;
    format!(
        "{trace}\n--\n{explain}\n--\n{:?}\n--\n{:?}",
        r.rows, r.stats
    )
}

/// The search is one serial scan, so everything it reports — counters
/// and trace included — repeats exactly on a fresh database, and the
/// inert `parallelism` field cannot change any of it.
#[test]
fn search_is_deterministic_and_ignores_the_parallelism_field() {
    // the star's four-way join multiplies out, so it runs on fewer rows
    for (sql, rows) in [(TABLE2_QUERY, 300), (STAR_QUERY, 60)] {
        for strategy in [
            SearchStrategy::Auto,
            SearchStrategy::Exhaustive,
            SearchStrategy::TwoPass,
            SearchStrategy::Linear,
            SearchStrategy::Iterative,
        ] {
            let fresh = || {
                let mut d = db_with_rows(rows);
                d.config_mut().search = strategy;
                d
            };
            let reference = observable(fresh(), sql);
            assert!(reference.contains("STATE"), "{strategy:?}: no search ran");
            for p in [0, 1, 8] {
                let mut d = fresh();
                d.config_mut().parallelism = p;
                assert_eq!(
                    reference,
                    observable(d, sql),
                    "{strategy:?}: run diverged with parallelism = {p}"
                );
            }
        }
    }
}

#[test]
fn cost_cutoff_changes_nothing_semantically() {
    let mut on = db();
    on.config_mut().cost_cutoff = true;
    let r1 = on.query(TABLE2_QUERY).unwrap();
    let mut off = db();
    off.config_mut().cost_cutoff = false;
    let r2 = off.query(TABLE2_QUERY).unwrap();
    assert_eq!(canon(&r1.rows), canon(&r2.rows));
}

#[test]
fn interleaving_only_adds_states() {
    let q = "SELECT t1.a FROM t1
             WHERE t1.b > (SELECT AVG(x.b) FROM t2 x WHERE x.c = t1.c)";
    let mut with = db();
    with.config_mut().interleave = true;
    let r1 = with.query(q).unwrap();
    let mut without = db();
    without.config_mut().interleave = false;
    let r2 = without.query(q).unwrap();
    assert_eq!(canon(&r1.rows), canon(&r2.rows));
    assert!(r1.stats.states_explored >= r2.stats.states_explored);
}

#[test]
fn heuristic_mode_explores_no_states() {
    let mut d = db();
    d.config_mut().cost_based = false;
    let r = d.query(TABLE2_QUERY).unwrap();
    assert_eq!(r.stats.states_explored, 0);
}

#[test]
fn auto_strategy_degrades_to_two_pass_on_wide_queries() {
    // 17 unnestable subqueries and three disjunctions exceed the total
    // threshold (16): the disjunctions, an exhaustive search on their
    // own, are searched two-pass like the subqueries
    let sql = seventeen_exists_and_three_disjunctions();
    let report = db().trace(&sql).unwrap();
    for (transform, targets) in [
        ("subquery unnesting (inline view)", 17),
        ("disjunction into UNION ALL", 3),
    ] {
        let begin = cbqt::OptimizerEvent::TransformBegin {
            transform: transform.into(),
            targets,
            strategy: "TwoPass".into(),
        };
        assert!(report.events.contains(&begin), "{}", report.render());
    }
}

#[test]
fn annotation_reuse_distinguishes_correlated_copies() {
    // regression (found by fuzzing): OR expansion deep-copies a block
    // whose correlated subquery renders identically to the original but
    // binds different outer RefIds; annotation reuse must not hand the
    // copy the original's plan (it would reference unbound outer refs at
    // execution).
    let mut d = db();
    d.config_mut().search = SearchStrategy::Iterative;
    let sql = "SELECT t1.a FROM t1 \
               WHERE t1.b > (SELECT AVG(x.b) FROM t2 x WHERE x.c = t1.c) \
                 AND t1.a IN (SELECT t3.a FROM t3 WHERE t3.c > 2) \
                 AND (t1.c = 1 OR t1.b < 12)";
    let r = d.query(sql).expect("must execute after OR expansion");
    // reference: everything disabled
    let mut plain = db();
    plain.config_mut().cost_based = false;
    plain.config_mut().transforms = ALL_OFF;
    let reference = plain.query(sql).unwrap();
    assert_eq!(canon(&r.rows), canon(&reference.rows));
}

/// The paper's central thesis: for the same query text, the optimal
/// transformation choice depends on the data — so the framework must
/// pick *different* states on different database instances.
#[test]
fn cost_based_decisions_flip_with_data() {
    use cbqt::Database;
    let build = |outer_rows: i64, view_rows: i64, with_index: bool| -> Database {
        let mut d = Database::new();
        d.execute_script(
            "CREATE TABLE outer_t (id INT PRIMARY KEY, k INT NOT NULL);
             CREATE TABLE inner_t (id INT PRIMARY KEY, k INT NOT NULL, val INT);",
        )
        .unwrap();
        if with_index {
            d.execute_mut("CREATE INDEX i_inner_k ON inner_t (k)")
                .unwrap();
        }
        d.load_rows(
            "outer_t",
            (0..outer_rows)
                .map(|i| vec![Value::Int(i), Value::Int(i % 50)])
                .collect(),
        )
        .unwrap();
        d.load_rows(
            "inner_t",
            (0..view_rows)
                .map(|i| vec![Value::Int(i), Value::Int(i % 50), Value::Int(i % 97)])
                .collect(),
        )
        .unwrap();
        d.analyze().unwrap();
        d
    };
    // correlated aggregate subquery: TIS vs unnesting
    let sql = "SELECT o.id FROM outer_t o WHERE o.id < 3 AND o.k > \
               (SELECT AVG(i.val) FROM inner_t i WHERE i.k = o.k)";
    // tiny outer + index on the correlation column: TIS should win
    let mut tis_db = build(2000, 4000, true);
    let tis_plan = tis_db.explain(sql).unwrap();
    // large outer, no index: unnesting should win
    let sql_big = "SELECT o.id FROM outer_t o WHERE o.k > \
                   (SELECT AVG(i.val) FROM inner_t i WHERE i.k = o.k)";
    let unnest_db = build(2000, 4000, false);
    let unnest_plan = unnest_db.explain(sql_big).unwrap();
    let tis_chose_unnest = tis_plan.contains("best state [1]");
    let big_chose_unnest = unnest_plan.contains("best state [1]");
    assert!(
        !tis_chose_unnest,
        "selective outer with an index should keep TIS:\n{tis_plan}"
    );
    assert!(
        big_chose_unnest,
        "unselective outer without an index should unnest:\n{unnest_plan}"
    );
    // and both must of course be correct
    let a = tis_db.query(sql).unwrap().rows.len();
    tis_db.config_mut().transforms.unnest = false;
    tis_db.config_mut().heuristic_unnest_merge = false;
    assert_eq!(a, tis_db.query(sql).unwrap().rows.len());
}

const ALL_OFF: cbqt::TransformSet = cbqt::TransformSet {
    unnest: false,
    view_merge: false,
    jppd: false,
    setop_to_join: false,
    group_by_placement: false,
    predicate_pullup: false,
    join_factorization: false,
    or_expansion: false,
};

/// 17 two-table EXISTS subqueries over `t1` and three disjunctions.
fn seventeen_exists_and_three_disjunctions() -> String {
    let exists: Vec<String> = (0..17)
        .map(|k| {
            format!(
                "EXISTS (SELECT 1 FROM t2 x{k}, t3 y{k} WHERE x{k}.a = y{k}.a \
                 AND x{k}.b = t1.b AND x{k}.c = {})",
                k % 7
            )
        })
        .collect();
    format!(
        "SELECT t1.a FROM t1 WHERE {} AND (t1.c = 1 OR t1.b < 12) \
         AND (t1.a < 40 OR t1.b = 3) AND (t1.c = 2 OR t1.a > 250)",
        exists.join(" AND ")
    )
}

/// The objects of a switched-off transformation are not part of the
/// query's state space, so they must not count toward the total beyond
/// which `Auto` searches two-pass either: 17 unnestable subqueries with
/// unnesting off leave the three disjunctions an exhaustive search.
#[test]
fn disabled_transformations_do_not_force_two_pass() {
    let sql = seventeen_exists_and_three_disjunctions();
    let mut d = db();
    d.config_mut().transforms.unnest = false;
    let report = d.trace(&sql).unwrap();
    assert!(
        report
            .events
            .contains(&cbqt::OptimizerEvent::TransformBegin {
                transform: "disjunction into UNION ALL".into(),
                targets: 3,
                strategy: "Exhaustive".into(),
            }),
        "{}",
        report.render()
    );
    let rows = d.query(&sql).unwrap().rows;
    let mut plain = db();
    plain.config_mut().cost_based = false;
    plain.config_mut().transforms = ALL_OFF;
    assert_eq!(canon(&rows), canon(&plain.query(&sql).unwrap().rows));
}
