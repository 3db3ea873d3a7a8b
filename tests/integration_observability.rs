//! Observability integration: golden EXPLAIN / EXPLAIN ANALYZE output
//! and the structured optimizer trace (`Database::trace`), including the
//! §3.3.1 interleaving of unnesting with view merging on the paper's
//! Figure-3 query shape.

use cbqt::common::Value;
use cbqt::{Database, OptimizerEvent};

/// Deterministic four-table HR fixture (no RNG, fixed arithmetic data)
/// so EXPLAIN output is stable enough to pin as golden text.
fn golden_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE locations (loc_id INT PRIMARY KEY, country_id VARCHAR(2) NOT NULL);
         CREATE TABLE departments (dept_id INT PRIMARY KEY, department_name VARCHAR(30) NOT NULL,
             loc_id INT REFERENCES locations(loc_id));
         CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30) NOT NULL,
             dept_id INT REFERENCES departments(dept_id), salary INT);
         CREATE TABLE job_history (emp_id INT NOT NULL, job_title VARCHAR(30) NOT NULL,
             start_date INT, dept_id INT);
         CREATE INDEX i_emp_dept ON employees (dept_id);",
    )
    .unwrap();
    let mut rows = Vec::new();
    for l in 0..6i64 {
        rows.push(vec![
            Value::Int(l),
            Value::str(if l % 2 == 0 { "US" } else { "UK" }),
        ]);
    }
    db.load_rows("locations", rows).unwrap();
    let mut rows = Vec::new();
    for d in 0..8i64 {
        rows.push(vec![
            Value::Int(d),
            Value::str(format!("dept{d}")),
            Value::Int(d % 6),
        ]);
    }
    db.load_rows("departments", rows).unwrap();
    let mut rows = Vec::new();
    for e in 0..120i64 {
        rows.push(vec![
            Value::Int(e),
            Value::str(format!("emp{e}")),
            Value::Int(e % 8),
            Value::Int(1000 + (e * 37) % 3000),
        ]);
    }
    db.load_rows("employees", rows).unwrap();
    let mut rows = Vec::new();
    for j in 0..90i64 {
        rows.push(vec![
            Value::Int((j * 4) % 120),
            Value::str(format!("title{}", j % 4)),
            Value::Int(19900000 + j * 13),
            Value::Int(j % 8),
        ]);
    }
    db.load_rows("job_history", rows).unwrap();
    db.analyze().unwrap();
    db
}

/// Replaces every numeric value that immediately precedes an `ms` unit
/// (`time=1.234ms`, `... 0.567 ms`) with `#`, leaving the deterministic
/// parts (row counts, work units, costs) intact.
fn scrub_times(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                i += 1;
            }
            let mut j = i;
            if j < b.len() && b[j] == b' ' {
                j += 1;
            }
            if b[j..].starts_with(b"ms") {
                out.push(b'#');
                out.extend_from_slice(&b[i..j]);
                out.extend_from_slice(b"ms");
                i = j + 2;
            } else {
                out.extend_from_slice(&b[start..i]);
            }
        } else {
            out.push(b[i]);
            i += 1;
        }
    }
    String::from_utf8(out).unwrap()
}

const UNNEST_SQL: &str = "SELECT e.employee_name FROM employees e \
     WHERE e.salary > (SELECT AVG(e2.salary) FROM employees e2 \
                       WHERE e2.dept_id = e.dept_id)";

const GBP_SQL: &str = "SELECT d.department_name, SUM(e.salary) \
     FROM employees e, departments d WHERE e.dept_id = d.dept_id \
     GROUP BY d.department_name";

/// Paper Figure-3 / §3.3.1 shape: a join query with a correlated AVG
/// subquery (unnests into an inline view → view-merge interleaving) and
/// an IN subquery over a two-table block.
const FIG3_SQL: &str = "SELECT e1.employee_name, j.job_title \
     FROM employees e1, job_history j \
     WHERE e1.emp_id = j.emp_id AND e1.salary > \
           (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) \
       AND e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
                          WHERE d.loc_id = l.loc_id AND l.country_id = 'US')";

#[test]
fn golden_explain_subquery_unnesting() {
    let db = golden_db();
    let expected = "\
== transformed query ==
SELECT e.employee_name
FROM employees e, (
  SELECT AVG(e2.salary) AS AVG, e2.dept_id AS GK0
  FROM employees e2
  GROUP BY e2.dept_id
) VW_U0
WHERE (e.salary > VW_U0.AVG) AND (e.dept_id = VW_U0.GK0)

== transformation decisions ==
subquery unnesting (inline view): 1 target(s), strategy Exhaustive, best state [1], cost 716
view merging / join predicate pushdown: 1 target(s), strategy Exhaustive, best state [0], cost 716
heuristics: 0 SPJ view merge(s), 0 join(s) eliminated, 0 subquery merge(s), 0 predicate move(s), 0 grouping set(s) pruned

== physical plan ==
SELECT QB1 (cost=716 rows=40)
  NestedLoop Inner JOIN LATERAL (rows=40)
    VIEW QB0 (r2) (rows=8)
      SELECT QB0 (cost=368 rows=8 agg)
        SCAN t2 (r1) FULL SCAN (rows=120)
    SCAN t2 (r0) INDEX EQ (ix3) (rows=15) filter x1
";
    assert_eq!(db.explain(UNNEST_SQL).unwrap(), expected);
}

#[test]
fn golden_explain_analyze_subquery_unnesting() {
    let db = golden_db();
    // estimated (rows=) and actual ([actual rows=]) interleave per
    // operator; the lateral index scan shows the estimate (15/probe)
    // against the accumulated actual rows over 8 probes
    let expected = "\
== physical plan (analyzed) ==
SELECT QB1 (cost=716 rows=40) [actual rows=54 execs=1 work=800 time=#ms]
  NestedLoop Inner JOIN LATERAL (rows=40) [actual rows=54 execs=1 work=746 time=#ms]
    VIEW QB0 (r2) (rows=8) [actual rows=8 execs=1 work=376 time=#ms]
      SELECT QB0 (cost=368 rows=8 agg) [actual rows=8 execs=1 work=368 time=#ms]
        SCAN t2 (r1) FULL SCAN (rows=120) [actual rows=120 execs=1 work=120 time=#ms]
    SCAN t2 (r0) INDEX EQ (ix3) (rows=15) filter x1 [actual rows=120 execs=8 work=268 time=#ms]

execution: 54 row(s), 800 work unit(s), # ms, engine=vectorized
";
    let full = scrub_times(&db.explain_analyze(UNNEST_SQL).unwrap());
    let analyzed = full
        .split("== physical plan (analyzed) ==")
        .nth(1)
        .map(|t| format!("== physical plan (analyzed) =={t}"))
        .expect("analyzed section present");
    assert_eq!(analyzed, expected);
}

#[test]
fn golden_explain_group_by_placement() {
    let db = golden_db();
    let expected = "\
== transformed query ==
SELECT d.department_name, SUM(VW_G0.P1) AS SUM
FROM departments d, (
  SELECT e.dept_id AS K2, SUM(e.salary) AS P1
  FROM employees e
  GROUP BY e.dept_id
) VW_G0
WHERE (VW_G0.K2 = d.dept_id)
GROUP BY d.department_name

== transformation decisions ==
group-by placement: 1 target(s), strategy Exhaustive, best state [1], cost 421
heuristics: 0 SPJ view merge(s), 0 join(s) eliminated, 0 subquery merge(s), 0 predicate move(s), 0 grouping set(s) pruned

== physical plan ==
SELECT QB0 (cost=421 rows=8 agg)
  NestedLoop Inner JOIN (rows=8)
    SCAN t1 (r1) FULL SCAN (rows=8)
    VIEW QB1 (r2) (rows=8)
      SELECT QB1 (cost=368 rows=8 agg)
        SCAN t2 (r0) FULL SCAN (rows=120)
";
    assert_eq!(db.explain(GBP_SQL).unwrap(), expected);
}

#[test]
fn golden_explain_analyze_group_by_placement() {
    let db = golden_db();
    let expected = "\
== physical plan (analyzed) ==
SELECT QB0 (cost=421 rows=8 agg) [actual rows=8 execs=1 work=429 time=#ms]
  NestedLoop Inner JOIN (rows=8) [actual rows=8 execs=1 work=405 time=#ms]
    SCAN t1 (r1) FULL SCAN (rows=8) [actual rows=8 execs=1 work=8 time=#ms]
    VIEW QB1 (r2) (rows=8) [actual rows=8 execs=1 work=376 time=#ms]
      SELECT QB1 (cost=368 rows=8 agg) [actual rows=8 execs=1 work=368 time=#ms]
        SCAN t2 (r0) FULL SCAN (rows=120) [actual rows=120 execs=1 work=120 time=#ms]

execution: 8 row(s), 429 work unit(s), # ms, engine=vectorized
";
    let full = scrub_times(&db.explain_analyze(GBP_SQL).unwrap());
    let analyzed = full
        .split("== physical plan (analyzed) ==")
        .nth(1)
        .map(|t| format!("== physical plan (analyzed) =={t}"))
        .expect("analyzed section present");
    assert_eq!(analyzed, expected);
}

#[test]
fn interleaving_fires_on_figure3_shape() {
    let db = golden_db();
    let report = db.trace(FIG3_SQL).unwrap();
    assert!(
        report.interleaved_states() > 0,
        "expected at least one interleaved (unnest + view-merge) state:\n{}",
        report.render()
    );
    let interleaved = report.events.iter().any(
        |e| matches!(e, OptimizerEvent::StateCosted { merges, .. } if merges.iter().any(|&m| m)),
    );
    assert!(interleaved);
}

#[test]
fn trace_counts_match_query_stats() {
    let db = golden_db();
    let report = db.trace(FIG3_SQL).unwrap();
    assert_eq!(report.states_explored(), report.stats.states_explored);
    assert_eq!(report.cutoffs(), report.stats.cutoffs);
    assert_eq!(report.blocks_costed(), report.stats.blocks_costed);
    assert_eq!(report.annotation_hits(), report.stats.annotation_hits);
    // the traced run populated the plan cache, so the same query through
    // the ordinary path is served from it: no optimizer work, same plan
    let r = db.query(FIG3_SQL).unwrap();
    assert!(r.stats.plan_cache_hit);
    assert_eq!(r.stats.states_explored, 0);
    assert_eq!(r.stats.estimated_cost, report.stats.estimated_cost);
    // on a fresh database the ordinary path reports the same counters as
    // the traced run
    let r2 = golden_db().query(FIG3_SQL).unwrap();
    assert_eq!(r2.stats.states_explored, report.stats.states_explored);
    assert_eq!(r2.stats.blocks_costed, report.stats.blocks_costed);
}

#[test]
fn golden_trace_plan_cache_events() {
    let mut db = golden_db();
    let cache_lines = |db: &cbqt::Database| -> Vec<String> {
        db.trace(GBP_SQL)
            .unwrap()
            .render()
            .lines()
            .filter(|l| l.starts_with("PLAN CACHE"))
            .map(str::to_string)
            .collect()
    };
    let key = cbqt::plan_cache_key(GBP_SQL).unwrap();
    // cold: a miss, followed by the full event stream
    assert_eq!(cache_lines(&db), vec![format!("PLAN CACHE MISS {key}")]);
    // warm: a hit is the *only* optimizer event
    let v = db.catalog().version();
    let report = db.trace(GBP_SQL).unwrap();
    assert_eq!(report.render(), format!("PLAN CACHE HIT v{v} {key}\n"));
    assert!(report.stats.plan_cache_hit);
    assert_eq!(report.states_explored(), 0);
    // DDL bumps the catalog version: the stale plan is evicted, the
    // query re-optimized and re-cached
    db.execute_mut("CREATE INDEX i_emp_sal ON employees (salary)")
        .unwrap();
    let v2 = db.catalog().version();
    assert!(v2 > v);
    assert_eq!(
        cache_lines(&db)[0],
        format!("PLAN CACHE INVALIDATED v{v} -> v{v2} {key}")
    );
    assert_eq!(
        cache_lines(&db),
        vec![format!("PLAN CACHE HIT v{v2} {key}")]
    );
}

#[test]
fn explain_is_deterministic_across_fresh_databases() {
    // regression: DP join enumeration used to expand HashMap keys in
    // arbitrary order, so cost ties could flip the printed join order
    let a = golden_db().explain(GBP_SQL).unwrap();
    let b = golden_db().explain(GBP_SQL).unwrap();
    assert_eq!(a, b);
    let plan_shape = |t: &str| {
        t.lines()
            .filter(|l| l.contains("SCAN") || l.contains("VIEW") || l.contains("JOIN"))
            .map(|l| l.split('[').next().unwrap().trim_end().to_string())
            .collect::<Vec<_>>()
    };
    let c = golden_db().explain_analyze(GBP_SQL).unwrap();
    assert_eq!(plan_shape(&a), plan_shape(&c), "{a}\n---\n{c}");
}

/// The analyzed-plan section of `EXPLAIN ANALYZE`, times scrubbed.
fn analyzed_plan(db: &Database, sql: &str) -> String {
    let full = scrub_times(&db.explain_analyze(sql).unwrap());
    let plan = full.split("== physical plan (analyzed) ==").nth(1);
    plan.expect("analyzed section present").to_string()
}

fn sorted_rows(db: &Database, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .query(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// Two textually identical blocks get one cost annotation (§3.4.2): the
/// second is a hit under another block id. Its plan must still be an
/// element of its own — runtime metrics are kept per plan element, and a
/// plan shared between the two positions would add QB1's executions to
/// QB0's.
#[test]
fn twin_blocks_keep_separate_actuals() {
    let union = "SELECT e.employee_name FROM employees e WHERE e.salary > 3000 \
                 UNION ALL \
                 SELECT e.employee_name FROM employees e WHERE e.salary > 3000";
    let exists = "SELECT d.department_name FROM departments d WHERE \
        EXISTS (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 3900) \
        OR EXISTS (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 3900)";
    let mut db = golden_db();
    // literals stay literals: as bind slots the two 3000s would differ
    db.set_plan_cache_enabled(false);
    // and estimates stay estimates from one run to the next
    db.config_mut().feedback.enabled = false;
    for sql in [union, exists] {
        let stats = db.trace(sql).unwrap().stats;
        assert!(
            stats.annotation_hits >= 1,
            "the twin is an annotation hit: {stats:?}"
        );
    }
    assert_eq!(
        analyzed_plan(&db, union),
        "
UnionAll (cost=400 rows=56) [actual rows=54 execs=1 work=396 time=#ms]
  SELECT QB0 (cost=172 rows=28) [actual rows=27 execs=1 work=171 time=#ms]
    SCAN t2 (r0) FULL SCAN (rows=28) filter x1 [actual rows=27 execs=1 work=144 time=#ms]
  SELECT QB1 (cost=172 rows=28) [actual rows=27 execs=1 work=171 time=#ms]
    SCAN t2 (r0) FULL SCAN (rows=28) filter x1 [actual rows=27 execs=1 work=144 time=#ms]

execution: 54 row(s), 396 work unit(s), # ms, engine=vectorized
"
    );
    // the OR stops at the first EXISTS that holds: QB1 runs for the five
    // departments QB0 found nothing for
    assert_eq!(
        analyzed_plan(&db, exists),
        "
SELECT QB2 (cost=627 rows=6) [actual rows=3 execs=1 work=490 time=#ms]
  SCAN t1 (r0) FULL SCAN (rows=8) [actual rows=8 execs=1 work=8 time=#ms]
  SUBQUERY QB0:
    SELECT QB0 (cost=37 rows=0) [actual rows=3 execs=8 work=295 time=#ms]
      SCAN t2 (r1) INDEX EQ (ix3) (rows=0) filter x2 [actual rows=3 execs=8 work=292 time=#ms]
  SUBQUERY QB1:
    SELECT QB1 (cost=37 rows=0) [actual rows=0 execs=5 work=182 time=#ms]
      SCAN t2 (r1) INDEX EQ (ix3) (rows=0) filter x2 [actual rows=0 execs=5 work=182 time=#ms]

execution: 3 row(s), 490 work unit(s), # ms, engine=vectorized
"
    );
    let mut plain = golden_db();
    plain.config_mut().cost_based = false;
    plain.config_mut().heuristic_unnest_merge = false;
    plain.config_mut().transforms = cbqt::TransformSet {
        unnest: false,
        view_merge: false,
        jppd: false,
        setop_to_join: false,
        group_by_placement: false,
        predicate_pullup: false,
        join_factorization: false,
        or_expansion: false,
    };
    plain.config_mut().optimizer.reuse_annotations = false;
    for sql in [union, exists] {
        assert_eq!(sorted_rows(&db, sql), sorted_rows(&plain, sql));
    }
}
