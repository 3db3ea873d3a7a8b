//! Exercises optimizer paths off the happy path: forced join methods,
//! join enumeration in windows past `bushy_max_items`, dynamic sampling
//! on unanalyzed tables, and empty-table behaviour.

use cbqt::common::Value;
use cbqt::Database;

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

fn join_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (id INT PRIMARY KEY, k INT);
         CREATE TABLE b (id INT PRIMARY KEY, k INT);",
    )
    .unwrap();
    let mut ra = Vec::new();
    let mut rb = Vec::new();
    for i in 0..400i64 {
        ra.push(vec![Value::Int(i), Value::Int(i % 10)]);
        rb.push(vec![Value::Int(i), Value::Int(i % 12)]);
    }
    db.load_rows("a", ra).unwrap();
    db.load_rows("b", rb).unwrap();
    db.analyze().unwrap();
    db
}

#[test]
fn all_join_methods_agree() {
    let sql = "SELECT a.id, b.id FROM a, b WHERE a.k = b.k";
    let mut reference = None;
    for (hash, merge, inl) in [
        (true, true, true),
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (false, false, false),
    ] {
        let mut db = join_db();
        let cfg = db.config_mut();
        cfg.optimizer.enable_hash_join = hash;
        cfg.optimizer.enable_merge_join = merge;
        cfg.optimizer.enable_index_nl = inl;
        let r = canon(&db.query(sql).unwrap().rows);
        match &reference {
            None => reference = Some(r),
            Some(base) => assert_eq!(
                *base, r,
                "join methods hash={hash} merge={merge} inl={inl} diverged"
            ),
        }
    }
}

/// The departments whose id no employee earning over 50 has as `dept`.
const NOT_IN: &str = "SELECT d.id FROM dept d WHERE d.id NOT IN \
                      (SELECT e.dept FROM emp e WHERE e.sal > 50)";

/// `dept` ids `0..n_dept`, `emp` ids `0..n_emp` with `dept = id +
/// offset` and a salary of 100, plus one employee with a NULL `dept`
/// and a salary of 1, which the subquery of [`NOT_IN`] filters out.
fn not_in_db(n_dept: i64, n_emp: i64, offset: i64) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE dept (id INT PRIMARY KEY);
         CREATE TABLE emp (id INT PRIMARY KEY, dept INT, sal INT);",
    )
    .unwrap();
    db.load_rows("dept", (0..n_dept).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    let mut emp: Vec<Vec<Value>> = (0..n_emp)
        .map(|i| vec![Value::Int(i), Value::Int(i + offset), Value::Int(100)])
        .collect();
    emp.push(vec![Value::Int(n_emp), Value::Null, Value::Int(1)]);
    db.load_rows("emp", emp).unwrap();
    db.analyze().unwrap();
    db.set_plan_cache_enabled(false);
    db
}

#[test]
fn not_in_ignores_null_keys_its_subquery_filters_out() {
    // The one NULL `dept` sits on a row the subquery's own filter
    // rejects. Unnested, that filter is a residual of the null-aware
    // anti join, and a join must not let the row's NULL key reject
    // every department, whichever method runs it, in either engine.
    let mut db = not_in_db(100, 50, 0);
    let sql = NOT_IN;
    let kept: Vec<String> = (50..100).map(|i| i.to_string()).collect();
    for hash in [true, false] {
        let cfg = db.config_mut();
        cfg.optimizer.enable_hash_join = hash;
        cfg.optimizer.enable_merge_join = false;
        let plan = db.explain(sql).unwrap();
        let method = if hash { "Hash Anti" } else { "NestedLoop Anti" };
        assert!(plan.contains(method), "{plan}");
        let mut rows = canon(&db.query(sql).unwrap().rows);
        rows.sort_by_key(|r| r.parse::<i64>().unwrap());
        assert_eq!(rows, kept, "{plan}");
        let limits = cbqt::StatementLimits::none();
        assert_eq!(
            db.differential_exec(sql, &limits).unwrap(),
            Vec::<String>::new()
        );
    }
}

#[test]
fn indexed_not_in_sees_a_null_key_its_filter_keeps() {
    // An index on the subquery's key, and a NULL key on a row the
    // subquery's filter keeps: NOT IN is then unknown for every
    // department, so no row qualifies. An index probe for `d.id = 70`
    // would see only `dept = 70` rows and miss the NULL, so the planner
    // must not offer index NL under a null-aware anti join.
    let mut db = not_in_db(100, 50, 0);
    db.execute_script(
        "CREATE INDEX i_emp_dept ON emp (dept);
         INSERT INTO emp VALUES (999, NULL, 100);
         ANALYZE;",
    )
    .unwrap();
    let sql = "SELECT d.id FROM dept d WHERE d.id = 70 AND d.id NOT IN \
               (SELECT e.dept FROM emp e WHERE e.sal > 50)";
    for hash in [true, false] {
        db.config_mut().optimizer.enable_hash_join = hash;
        let plan = db.explain(sql).unwrap();
        assert!(db.query(sql).unwrap().rows.is_empty(), "{plan}");
        let limits = cbqt::StatementLimits::none();
        assert_eq!(
            db.differential_exec(sql, &limits).unwrap(),
            Vec::<String>::new()
        );
    }
}

#[test]
fn hash_not_in_with_a_residual_does_linear_work() {
    // No department matches, so every one is checked for NULL keys. A
    // non-NULL id checks the subquery's NULL-key rows only, not the
    // whole build side: doubling both inputs must about double the
    // work, in either engine, not quadruple it.
    use cbqt::common::ExecutionMode;
    for mode in [ExecutionMode::Vectorized, ExecutionMode::Volcano] {
        let work = |n: i64| {
            let mut db = not_in_db(n, n, n);
            db.config_mut().execution_mode = mode;
            db.config_mut().optimizer.enable_merge_join = false;
            let plan = db.explain(NOT_IN).unwrap();
            assert!(plan.contains("Hash Anti"), "{plan}");
            let r = db.query(NOT_IN).unwrap();
            assert_eq!(r.rows.len(), n as usize, "{plan}");
            r.stats.work_units
        };
        let (small, large) = (work(1000), work(2000));
        assert!(
            large < 2.2 * small,
            "{mode:?}: work {small} at 1000 rows, {large} at 2000"
        );
    }
}

#[test]
fn merge_join_appears_in_plan_when_forced() {
    let mut db = join_db();
    let cfg = db.config_mut();
    cfg.optimizer.enable_hash_join = false;
    cfg.optimizer.enable_index_nl = false;
    let plan = db.explain("SELECT a.id FROM a, b WHERE a.k = b.k").unwrap();
    assert!(plan.contains("Merge"), "{plan}");
}

#[test]
fn greedy_enumeration_beyond_dp_limit() {
    // a 6-table all-inner chain is planned exactly by default; with
    // bushy_max_items below the item count it is planned in windows of
    // five (a five-table sub-plan, then the rest), and both must return
    // the same rows
    let mut db = Database::new();
    db.execute_mut("CREATE TABLE t0 (id INT PRIMARY KEY, nxt INT)")
        .unwrap();
    for i in 1..6 {
        db.execute_mut(&format!("CREATE TABLE t{i} (id INT PRIMARY KEY, nxt INT)"))
            .unwrap();
    }
    for t in 0..6 {
        let mut rows = Vec::new();
        for i in 0..40i64 {
            rows.push(vec![Value::Int(i), Value::Int((i + 1) % 40)]);
        }
        db.load_rows(&format!("t{t}"), rows).unwrap();
    }
    db.analyze().unwrap();
    let sql = "SELECT t0.id FROM t0, t1, t2, t3, t4, t5 \
               WHERE t0.nxt = t1.id AND t1.nxt = t2.id AND t2.nxt = t3.id \
                 AND t3.nxt = t4.id AND t4.nxt = t5.id AND t0.id < 5";
    let trace = db.trace(sql).unwrap().render();
    assert_eq!(rounds(&trace), [1], "{trace}");
    let exact = canon(&db.query(sql).unwrap().rows);
    db.config_mut().optimizer.bushy_max_items = 5;
    let trace = db.trace(sql).unwrap().render();
    assert_eq!(rounds(&trace), [2], "{trace}");
    let windowed = canon(&db.query(sql).unwrap().rows);
    assert_eq!(exact, windowed);
    assert_eq!(exact.len(), 5);
}

/// The distinct `rounds` of a rendered trace's `JOIN ENUM END` lines.
fn rounds(trace: &str) -> Vec<usize> {
    let mut rounds: Vec<usize> = trace
        .lines()
        .filter(|l| l.contains("JOIN ENUM END"))
        .filter_map(|l| l.split("rounds=").nth(1))
        .filter_map(|r| r.split_whitespace().next()?.parse().ok())
        .collect();
    rounds.sort_unstable();
    rounds.dedup();
    rounds
}

/// Two unanalyzed tables: `a` with `a_rows` rows, `b` with 2 000, both
/// joined on `v`.
fn sampled_pair(a_rows: i64) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (id INT PRIMARY KEY, v INT); CREATE TABLE b (id INT PRIMARY KEY, v INT);",
    )
    .unwrap();
    db.load_rows(
        "b",
        (0..2_000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 300)])
            .collect(),
    )
    .unwrap();
    grow_a(&mut db, 0, a_rows);
    db
}

fn grow_a(db: &mut Database, from: i64, to: i64) {
    let rows = (from..to).map(|i| vec![Value::Int(i), Value::Int(i % 300)]);
    db.load_rows("a", rows.collect()).unwrap();
}

/// Dynamic sampling (§3.4.4) forgets a sample once the compile that took
/// it is done: a table that grows is sampled afresh, so a recompile after
/// growth plans what a freshly loaded database plans — with the plan
/// cache on and off. A sample kept for the database's life planned a
/// nested loop over a "3-row" full scan of the grown table.
#[test]
fn a_grown_table_is_sampled_afresh() {
    let sql = "SELECT COUNT(*) FROM a, b WHERE a.v = b.v AND a.id > 3";
    let fresh = sampled_pair(20_000);
    let expected = fresh.explain(sql).unwrap();
    let count = fresh.query(sql).unwrap().rows;
    for cache in [true, false] {
        let mut db = sampled_pair(10);
        db.set_plan_cache_enabled(cache);
        db.query(sql).unwrap();
        grow_a(&mut db, 10, 20_000);
        db.clear_plan_cache();
        assert_eq!(db.explain(sql).unwrap(), expected, "plan cache on: {cache}");
        assert_eq!(db.query(sql).unwrap().rows, count, "plan cache on: {cache}");
    }
}

#[test]
fn unanalyzed_tables_use_dynamic_sampling() {
    let mut db = Database::new();
    db.execute_mut("CREATE TABLE big (id INT PRIMARY KEY, k INT)")
        .unwrap();
    db.execute_mut("CREATE TABLE small (id INT PRIMARY KEY, k INT)")
        .unwrap();
    let mut rows = Vec::new();
    for i in 0..5000i64 {
        rows.push(vec![Value::Int(i), Value::Int(i % 100)]);
    }
    db.load_rows("big", rows).unwrap();
    db.load_rows(
        "small",
        (0..10i64)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect(),
    )
    .unwrap();
    // NO ANALYZE: without sampling both tables would be assumed equal
    // (1000 rows); the sampler must discover big is 500x larger so the
    // planner builds the hash table on small
    let r = db
        .query("SELECT big.id FROM big, small WHERE big.k = small.k")
        .unwrap();
    assert_eq!(r.rows.len(), 500);
    let plan = db
        .explain("SELECT big.id FROM big, small WHERE big.k = small.k")
        .unwrap();
    // with sampled sizes, the big table drives (left side of the join)
    let big_pos = plan.find("SCAN t0").unwrap_or(usize::MAX);
    let small_pos = plan.find("SCAN t1").unwrap_or(0);
    assert!(
        big_pos < small_pos,
        "sampling should order big before small:\n{plan}"
    );
}

#[test]
fn empty_tables_everywhere() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE e1 (a INT PRIMARY KEY, b INT);
         CREATE TABLE e2 (a INT PRIMARY KEY, b INT);
         ANALYZE;",
    )
    .unwrap();
    assert!(db.query("SELECT * FROM e1").unwrap().rows.is_empty());
    assert!(db
        .query("SELECT e1.a FROM e1, e2 WHERE e1.a = e2.a")
        .unwrap()
        .rows
        .is_empty());
    // scalar aggregate over empty input yields one row
    let r = db.query("SELECT COUNT(*), MAX(a) FROM e1").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert!(r.rows[0][1].is_null());
    // outer join of empty to empty
    assert!(db
        .query("SELECT e1.a FROM e1 LEFT JOIN e2 ON e1.a = e2.a")
        .unwrap()
        .rows
        .is_empty());
    // set ops over empties
    assert!(db
        .query("SELECT a FROM e1 MINUS SELECT a FROM e2")
        .unwrap()
        .rows
        .is_empty());
    assert!(db
        .query("SELECT a FROM e1 UNION ALL SELECT a FROM e2")
        .unwrap()
        .rows
        .is_empty());
    // NOT IN over an empty subquery keeps every (zero) row
    assert!(db
        .query("SELECT a FROM e1 WHERE a NOT IN (SELECT a FROM e2)")
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn cross_join_without_predicates() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE x (a INT PRIMARY KEY);
         CREATE TABLE y (b INT PRIMARY KEY);",
    )
    .unwrap();
    db.load_rows("x", (0..4i64).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    db.load_rows("y", (0..5i64).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    db.analyze().unwrap();
    let r = db.query("SELECT x.a, y.b FROM x, y").unwrap();
    assert_eq!(r.rows.len(), 20);
    let r = db
        .query("SELECT x.a, y.b FROM x CROSS JOIN y WHERE x.a = y.b")
        .unwrap();
    assert_eq!(r.rows.len(), 4);
}

// --- bushy join enumeration ------------------------------------------

/// Snowflake star: a fact table with `arms` arms of (mid, leaf). Each
/// fact↔mid join expands (mid keys are non-unique, ~fanout 80), while
/// mid↔leaf joins against a selectively filtered leaf shrink the arm to
/// ~100 rows — so pre-joining each arm (a bushy shape) is dramatically
/// cheaper than threading the fat fact↔mid intermediates through a
/// left-deep pipeline.
fn snowflake_db(arms: usize) -> Database {
    let mut db = Database::new();
    let mut script =
        String::from("CREATE TABLE fact (id INT PRIMARY KEY, a1 INT, a2 INT, a3 INT, a4 INT);");
    for k in 1..=arms {
        script.push_str(&format!(
            "CREATE TABLE mid{k} (id INT PRIMARY KEY, fkey INT, leaf_id INT);
             CREATE TABLE leaf{k} (id INT PRIMARY KEY, attr INT);"
        ));
    }
    db.execute_script(&script).unwrap();
    let fact: Vec<Vec<Value>> = (0..1000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int((i * 7 + 13) % 100),
                Value::Int((i * 11 + 29) % 100),
                Value::Int((i * 3 + 41) % 100),
                Value::Int((i * 19 + 57) % 100),
            ]
        })
        .collect();
    db.load_rows("fact", fact).unwrap();
    for k in 1..=arms {
        let mid: Vec<Vec<Value>> = (0..8000i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int((i * 13 + 5 * k as i64) % 100),
                    Value::Int((i * 17 + k as i64) % 8000),
                ]
            })
            .collect();
        db.load_rows(&format!("mid{k}"), mid).unwrap();
        let leaf: Vec<Vec<Value>> = (0..8000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 100)])
            .collect();
        db.load_rows(&format!("leaf{k}"), leaf).unwrap();
    }
    db.analyze().unwrap();
    db.set_plan_cache_enabled(false);
    db
}

fn snowflake_query(arms: usize) -> String {
    let mut from = String::from("fact f");
    let mut preds = Vec::new();
    for k in 1..=arms {
        from.push_str(&format!(", mid{k} m{k}, leaf{k} l{k}"));
        preds.push(format!("f.a{k} = m{k}.fkey"));
        preds.push(format!("m{k}.leaf_id = l{k}.id"));
        preds.push(format!("l{k}.attr = {k}"));
    }
    format!("SELECT f.id FROM {from} WHERE {}", preds.join(" AND "))
}

/// The EXPLAIN of a left-deep tree has every JOIN at a distinct
/// indentation depth (one left spine); two JOIN lines at the same
/// depth prove a bushy shape.
fn has_bushy_shape(explain: &str) -> bool {
    let mut seen = std::collections::HashSet::new();
    for line in explain.lines() {
        if line.trim_start().contains("JOIN") {
            let indent = line.len() - line.trim_start().len();
            if !seen.insert(indent) {
                return true;
            }
        }
    }
    false
}

#[test]
fn six_table_star_explain_shows_bushy_shape() {
    let db = snowflake_db(2);
    // 6 tables: fact + 2 × (mid, leaf) + the extra filtered arm below
    let sql = snowflake_query(2);
    let plan = db.explain(&sql).unwrap();
    assert!(has_bushy_shape(&plan), "expected a bushy tree:\n{plan}");
    // golden anchors: arms are pre-joined and the fact scan is a full scan
    assert!(plan.contains("Hash Inner JOIN"), "{plan}");
    assert!(plan.contains("FULL SCAN"), "{plan}");
}

#[test]
fn windows_of_five_cost_at_most_1_5x_exact_on_snowflake() {
    // 7-table snowflake (fact + 3 arms): planned in windows of five it
    // takes several rounds, and its plan stays within the cliff gate of
    // the exact one
    let sql = snowflake_query(3);
    let mut db = snowflake_db(3);
    let exact = db.query(&sql).unwrap();
    db.config_mut().optimizer.bushy_max_items = 5;
    let trace = db.trace(&sql).unwrap().render();
    assert!(rounds(&trace).first().is_some_and(|&r| r > 1), "{trace}");
    let windowed = db.query(&sql).unwrap();
    assert_eq!(
        canon(&exact.rows),
        canon(&windowed.rows),
        "exact and windowed plans must return identical row sets"
    );
    assert!(
        windowed.stats.estimated_cost <= 1.5 * exact.stats.estimated_cost,
        "windowed {} above 1.5x exact {}",
        windowed.stats.estimated_cost,
        exact.stats.estimated_cost
    );
}

#[test]
fn bushy_allowance_exhaustion_degrades_gracefully_end_to_end() {
    use cbqt::StatementLimits;
    let db = snowflake_db(3);
    let sql = snowflake_query(3);
    // plenty of framework states, too few for the 7-item memo's 25
    // sets of two to five items
    let limits = StatementLimits::none().with_optimizer_states(20);
    let report = db.trace_with_limits(&sql, limits).unwrap();
    assert!(report.stats.degraded, "a narrowed window must degrade");
    let rendered = report.render();
    assert!(rendered.contains("JOIN ENUM BEGIN"), "{rendered}");
    assert!(
        rendered.contains("DEGRADED (state allowance narrowed the window)"),
        "{rendered}"
    );
    assert!(rendered.contains("SEARCH DEGRADED"), "{rendered}");
    // a degraded plan is never published to the plan cache
    assert_eq!(db.plan_cache_stats().entries, 0);
    // the narrowed plan returns exactly the full plan's rows
    let full = db.query(&sql).unwrap();
    assert!(!full.stats.degraded);
    let degraded = db.query_with_limits(&sql, limits).unwrap();
    assert!(degraded.stats.degraded);
    assert_eq!(canon(&degraded.rows), canon(&full.rows));
}

#[test]
fn disconnected_join_graph_under_tight_budget_completes() {
    // Three mutually unconnected tables force cross products; under a
    // tight state budget the search must still fold the components
    // deterministically instead of erroring.
    use cbqt::StatementLimits;
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE g1 (a INT PRIMARY KEY, v INT);
         CREATE TABLE g2 (a INT PRIMARY KEY, v INT);
         CREATE TABLE g3 (a INT PRIMARY KEY, v INT);",
    )
    .unwrap();
    for t in ["g1", "g2", "g3"] {
        db.load_rows(
            t,
            (0..6i64)
                .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                .collect(),
        )
        .unwrap();
    }
    db.analyze().unwrap();
    db.set_plan_cache_enabled(false);
    let sql = "SELECT g1.a FROM g1, g2, g3 WHERE g1.v = 0 AND g2.v = 1 AND g3.v = 2";
    let full = db.query(sql).unwrap();
    assert_eq!(full.rows.len(), 2 * 2 * 2);
    for budget in [1u64, 2, 3, 5, 8] {
        let limited = db
            .query_with_limits(sql, StatementLimits::none().with_optimizer_states(budget))
            .unwrap_or_else(|e| panic!("budget {budget} errored: {e}"));
        assert_eq!(limited.rows.len(), 8, "budget {budget}");
    }
}

#[test]
fn a_seventy_table_block_plans_in_windows() {
    // Past 64 items the search runs on word-slice masks, in windows of
    // bushy_max_items; the block must still plan and answer. The LEFT
    // JOIN puts an outer item in the windows.
    const TABLES: usize = 70;
    let mut db = Database::new();
    let mut script = String::new();
    for t in 0..TABLES {
        script.push_str(&format!("CREATE TABLE w{t} (id INT PRIMARY KEY, v INT);"));
    }
    db.execute_script(&script).unwrap();
    for t in 0..TABLES {
        let rows = (0..3i64).map(|i| vec![Value::Int(i), Value::Int(i)]);
        db.load_rows(&format!("w{t}"), rows.collect()).unwrap();
    }
    db.analyze().unwrap();
    let mut sql = String::from("SELECT COUNT(*) FROM w0");
    for t in 1..TABLES {
        let join = if t == TABLES / 2 { "LEFT JOIN" } else { "JOIN" };
        sql.push_str(&format!(" {join} w{t} ON w{}.id = w{t}.id", t - 1));
    }
    let plan = db.explain(&sql).unwrap();
    let scans = plan.lines().filter(|l| l.contains("SCAN")).count();
    assert_eq!(scans, TABLES, "one block of {TABLES} items:\n{plan}");
    let trace = db.trace(&sql).unwrap().render();
    assert!(rounds(&trace).first().is_some_and(|&r| r > 1), "{trace}");
    let r = db.query(&sql).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
}
