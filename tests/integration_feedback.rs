//! Cardinality feedback and re-optimization end-to-end: the
//! estimate-vs-actual loop (observe → mark suspect → recompile with
//! observed cardinalities), per-bind-band feedback isolation, the
//! governor interplay (a degraded recompile pins the old variant
//! instead of looping), and per-node metrics identity in EXPLAIN
//! ANALYZE.
//!
//! Failpoints are process-global, so every test here holds
//! `failpoints::serial()`, armed or not: an unguarded recompile running
//! beside the fault-injection test fails on the site that test armed.

use cbqt::common::failpoint;
use cbqt::common::Value;
use cbqt::{Database, StatementLimits};
use cbqt_testkit::failpoints::{self, Fail};

/// t(id, a, b) with 1000 rows where a = b = i % 20: under column
/// independence the optimizer estimates `a = K AND b = K` at
/// 1000/20/20 ≈ 2.5 rows, but the columns are perfectly correlated and
/// the true count is 50 — a 20× miss, beyond the default 10× divergence
/// ratio.
fn correlated_db() -> Database {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);")
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..1000)
        .map(|i| vec![Value::Int(i), Value::Int(i % 20), Value::Int(i % 20)])
        .collect();
    db.load_rows("t", rows).unwrap();
    db.analyze().unwrap();
    db
}

const CORRELATED_SQL: &str = "SELECT id FROM t WHERE a = 7 AND b = 7";

#[test]
fn estimate_miss_triggers_reoptimization_end_to_end() {
    let _serial = failpoints::serial();
    let db = correlated_db();

    // cold: compile on the independence estimate, execute, harvest the
    // 20x miss — the published variant is marked suspect
    let before = db.query(CORRELATED_SQL).unwrap();
    assert_eq!(before.rows.len(), 50);
    assert!(!before.stats.plan_cache_hit && !before.stats.reoptimized);
    assert!(!db.feedback_store().is_empty(), "no cardinality observed");

    // the next probe recompiles instead of serving the suspect plan,
    // and the optimizer consumes the observed cardinality
    let report = db.trace(CORRELATED_SQL).unwrap();
    assert!(report.stats.reoptimized, "{:?}", report.stats);
    assert!(!report.stats.plan_cache_hit);
    let text = report.render();
    assert!(text.contains("PLAN CACHE REOPTIMIZE"), "{text}");
    assert!(text.contains("FEEDBACK APPLIED t"), "{text}");
    assert!(text.contains("observed=50.0"), "{text}");

    // the reoptimized plan was republished: warm serving resumes and
    // results are identical before and after
    let after = db.query(CORRELATED_SQL).unwrap();
    assert!(after.stats.plan_cache_hit, "{:?}", after.stats);
    assert!(!after.stats.reoptimized);
    assert_eq!(before.rows, after.rows);

    let s = db.plan_cache_stats();
    assert_eq!(s.reoptimizations, 1, "{s:?}");

    // EXPLAIN compiles with feedback too: the estimate now matches the
    // actual within the divergence threshold (here: exactly)
    let ea = db.explain_analyze(CORRELATED_SQL).unwrap();
    let scan = ea
        .lines()
        .find(|l| l.contains("SCAN") && l.contains("actual rows="))
        .unwrap_or_else(|| panic!("no annotated scan line in {ea}"));
    assert!(scan.contains("(rows=50)"), "estimate not corrected: {scan}");
    assert!(scan.contains("actual rows=50 "), "{scan}");
}

#[test]
fn accurate_estimates_never_reoptimize() {
    let _serial = failpoints::serial();
    let db = correlated_db();
    // single-column predicate: the estimate (50) matches the actual, so
    // repeated serving stays on the warm plan forever
    for i in 0..5 {
        let r = db.query("SELECT id FROM t WHERE a = 3").unwrap();
        assert_eq!(r.rows.len(), 50);
        assert_eq!(r.stats.plan_cache_hit, i > 0, "{:?}", r.stats);
        assert!(!r.stats.reoptimized);
    }
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.reoptimizations), (4, 0), "{s:?}");
}

#[test]
fn disabling_feedback_disables_the_loop() {
    let _serial = failpoints::serial();
    let mut db = correlated_db();
    db.config_mut().feedback.enabled = false;
    for i in 0..4 {
        let r = db.query(CORRELATED_SQL).unwrap();
        assert_eq!(r.rows.len(), 50);
        assert_eq!(r.stats.plan_cache_hit, i > 0);
        assert!(!r.stats.reoptimized);
    }
    assert_eq!(db.plan_cache_stats().reoptimizations, 0);
    assert!(db.feedback_store().is_empty(), "harvest ran while disabled");
}

/// skewt(id, a, b) with heavy skew on `a`: 900 rows with a = 0, of
/// which every tenth has b = 5 and the others a b of their own above
/// 1 000, plus 100 rows a = 1..=100 with b = a. The outliers stretch
/// b's histogram, so a popular-band probe (a = 0 AND b = 5) estimates
/// about one row against 90, past the 10× divergence ratio; rare-band
/// probes (a = K, b = K) estimate accurately.
fn skewed_db() -> Database {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE skewt (id INT PRIMARY KEY, a INT, b INT);")
        .unwrap();
    let mut rows: Vec<Vec<Value>> = (0..900)
        .map(|i| {
            let b = if i % 10 == 5 { 5 } else { 1000 + i };
            vec![Value::Int(i), Value::Int(0), Value::Int(b)]
        })
        .collect();
    for i in 900..1000i64 {
        rows.push(vec![
            Value::Int(i),
            Value::Int(i - 899),
            Value::Int(i - 899),
        ]);
    }
    db.load_rows("skewt", rows).unwrap();
    db.analyze().unwrap();
    db
}

#[test]
fn feedback_is_isolated_per_bind_band() {
    let _serial = failpoints::serial();
    let db = skewed_db();
    let popular = "SELECT id FROM skewt WHERE a = 0 AND b = 5";
    let rare = "SELECT id FROM skewt WHERE a = 7 AND b = 7";

    // popular band: histogram estimate ~1, actual 90 — suspect
    let p1 = db.query(popular).unwrap();
    assert_eq!(p1.rows.len(), 90);

    // rare band: lands in a different selectivity bucket, compiles its
    // own sibling variant, and its estimate is accurate
    let r1 = db.query(rare).unwrap();
    assert_eq!(r1.rows.len(), 1);
    assert!(r1.stats.bind_mismatch, "{:?}", r1.stats);

    // the rare variant stays warm: the popular band's suspect mark and
    // feedback entry must not poison the sibling bucket
    let r2 = db.query(rare).unwrap();
    assert!(r2.stats.plan_cache_hit, "{:?}", r2.stats);
    assert!(!r2.stats.reoptimized);

    // the popular variant re-optimizes exactly once, then serves warm
    let p2 = db.query(popular).unwrap();
    assert!(p2.stats.reoptimized, "{:?}", p2.stats);
    assert_eq!(p2.rows, p1.rows);
    let p3 = db.query(popular).unwrap();
    assert!(p3.stats.plan_cache_hit, "{:?}", p3.stats);
    assert_eq!(db.plan_cache_stats().reoptimizations, 1);

    // both bands observed — under distinct keys
    assert!(
        db.feedback_store().len() >= 2,
        "{}",
        db.feedback_store().len()
    );
}

/// Semi-join query over the correlated columns: the divergent scan of
/// `t` still mis-estimates 20×, and the plan has several operators for
/// the per-node metrics assertions.
const SUBQUERY_SQL: &str = "SELECT id FROM t WHERE a = 7 AND b = 7 \
     AND EXISTS (SELECT 1 FROM small s WHERE s.x = t.id)";

/// Like [`SUBQUERY_SQL`], but the IN subquery carries a correlated
/// aggregate, giving the CBQT search a real cost-based state space — a
/// tiny optimizer-state budget is guaranteed to trip mid-search.
const SEARCHY_SQL: &str = "SELECT id FROM t WHERE a = 7 AND b = 7 AND id IN \
     (SELECT s.x FROM small s WHERE s.x > \
      (SELECT AVG(s2.x) FROM small s2 WHERE s2.y = s.y))";

fn correlated_db_with_subquery() -> Database {
    let mut db = correlated_db();
    db.execute_script("CREATE TABLE small (x INT PRIMARY KEY, y INT);")
        .unwrap();
    db.load_rows(
        "small",
        (0..1000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 10)])
            .collect(),
    )
    .unwrap();
    db.analyze().unwrap();
    db
}

#[test]
fn degraded_reoptimization_pins_the_variant_instead_of_looping() {
    let _serial = failpoints::serial();
    let db = correlated_db_with_subquery();

    // t-matches are ids with id % 20 == 7; of those, the IN keeps ids
    // above their y-group's average (group y=7 averages 502): 25 rows
    let first = db.query(SEARCHY_SQL).unwrap();
    assert_eq!(first.rows.len(), 25);
    assert!(!first.stats.degraded);
    assert!(first.stats.states_explored > 1, "{:?}", first.stats);

    // the re-optimization runs under a one-state optimizer budget: the
    // search degrades, so the recompiled plan must NOT be published
    // (SEARCH DEGRADED invariant) — and the suspect variant is pinned
    let entries_before = db.plan_cache_stats().entries;
    let reopt = db
        .query_with_limits(
            SEARCHY_SQL,
            StatementLimits::none().with_optimizer_states(1),
        )
        .unwrap();
    assert!(reopt.stats.reoptimized, "{:?}", reopt.stats);
    assert!(reopt.stats.degraded, "{:?}", reopt.stats);
    assert_eq!(reopt.rows, first.rows);
    assert_eq!(db.plan_cache_stats().entries, entries_before);

    // no loop: the old variant keeps serving, and renewed divergence
    // cannot re-trigger the optimizer — every further run is a hit
    for _ in 0..3 {
        let r = db.query(SEARCHY_SQL).unwrap();
        assert!(r.stats.plan_cache_hit, "{:?}", r.stats);
        assert!(!r.stats.reoptimized);
        assert_eq!(r.rows, first.rows);
    }
    assert_eq!(db.plan_cache_stats().reoptimizations, 1);
}

#[test]
fn failed_reoptimization_recovers_without_losing_the_plan() {
    let _serial = failpoints::serial();
    let db = correlated_db();
    assert_eq!(db.query(CORRELATED_SQL).unwrap().rows.len(), 50);

    // the re-optimizing compile hits an injected optimizer fault; the
    // statement fails, but the family must survive
    {
        let _fp = Fail::error(failpoint::OPTIMIZER_PLAN);
        let err = db.query(CORRELATED_SQL).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }

    // recovery: the cached plan still serves (its suspect mark was
    // consumed by the failed probe), diverges again, and the retried
    // re-optimization completes
    let served = db.query(CORRELATED_SQL).unwrap();
    assert!(served.stats.plan_cache_hit, "{:?}", served.stats);
    assert_eq!(served.rows.len(), 50);
    let reopt = db.query(CORRELATED_SQL).unwrap();
    assert!(reopt.stats.reoptimized, "{:?}", reopt.stats);
    assert_eq!(reopt.rows, served.rows);
    assert_eq!(db.plan_cache_stats().reoptimizations, 2);
}

#[test]
fn explain_analyze_actuals_are_per_node() {
    let _serial = failpoints::serial();
    // regression for address-keyed metrics: a multi-operator plan must
    // report each operator's own actuals — node identity is the stable
    // EXPLAIN ordinal, not a heap address that a reallocation can alias
    let db = correlated_db_with_subquery();
    let ea = db.explain_analyze(SUBQUERY_SQL).unwrap();
    let annotated: Vec<&str> = ea.lines().filter(|l| l.contains("actual rows=")).collect();
    assert!(
        annotated.len() >= 3,
        "expected >= 3 annotated operators:\n{ea}"
    );
    assert!(!ea.contains("[never executed]"), "{ea}");
    assert!(!ea.contains("[metrics from different plan]"), "{ea}");
    // the outer scan runs once and emits 50 rows; the inner index probe
    // runs once per outer row — aliased identities would collapse these
    // into one counter
    assert!(
        annotated
            .iter()
            .any(|l| l.contains("SCAN") && l.contains("actual rows=50 execs=1 ")),
        "{ea}"
    );
    assert!(annotated.iter().any(|l| l.contains("execs=50 ")), "{ea}");
}
