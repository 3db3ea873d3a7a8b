//! The statements and optimizer modes the search pins
//! (`search_stability`) and the annotation-key partition test
//! (`fingerprint_partition`) both run: every workload family, the
//! paper's Table 2 shape and a seven-`EXISTS` query, each under every
//! §3.2 strategy, heuristic mode and a three-state governor budget.

use cbqt::common::{ExecutionLimits, Value};
use cbqt::{Database, SearchStrategy};
use cbqt_bench::{Family, WorkloadGen};

const SEED: u64 = 20_060_912;
const PER_FAMILY: usize = 6;

/// (label, search, cost_based, optimizer-state budget).
pub type Mode = (&'static str, SearchStrategy, bool, Option<u64>);

pub const MODES: [Mode; 7] = [
    ("exhaustive", SearchStrategy::Exhaustive, true, None),
    ("iterative", SearchStrategy::Iterative, true, None),
    ("linear", SearchStrategy::Linear, true, None),
    ("two-pass", SearchStrategy::TwoPass, true, None),
    ("auto", SearchStrategy::Auto, true, None),
    ("heuristic", SearchStrategy::Auto, false, None),
    ("governed", SearchStrategy::Auto, true, Some(3)),
];

/// Resets `db` to the default settings under `mode` and returns the
/// limits its statements run with.
pub fn set_mode(db: &mut Database, (_, search, cost_based, budget): &Mode) -> ExecutionLimits {
    *db.config_mut() = cbqt::OptimizerSettings::default();
    db.config_mut().search = *search;
    db.config_mut().cost_based = *cost_based;
    // no harvested actuals: each mode sees the same estimates
    db.config_mut().feedback.enabled = false;
    match budget {
        Some(n) => ExecutionLimits::none().with_optimizer_states(*n),
        None => ExecutionLimits::none(),
    }
}

/// The paper's Table 2 shape (three base tables, four unnestable
/// multi-table subqueries), as in `tests/integration_framework.rs`.
const TABLE2_QUERY: &str = "SELECT t1.a FROM t1, t2, t3
    WHERE t1.b = t2.b AND t2.c = t3.c AND
          t1.a NOT IN (SELECT x1.b FROM t1 x1, t2 y1 WHERE x1.a = y1.a
                       AND x1.c = 3 AND x1.b IS NOT NULL) AND
          EXISTS (SELECT 1 FROM t2 x2, t3 y2 WHERE x2.a = y2.a
                  AND x2.b = t1.b AND x2.c = 5) AND
          NOT EXISTS (SELECT 1 FROM t3 x3, t1 y3 WHERE x3.a = y3.a
                      AND x3.b = t1.b AND x3.c = 6) AND
          t1.c IN (SELECT x4.c FROM t2 x4, t3 y4 WHERE x4.a = y4.a AND x4.b = 10)";

fn table2_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t1 (a INT PRIMARY KEY, b INT, c INT);
         CREATE TABLE t2 (a INT PRIMARY KEY, b INT, c INT);
         CREATE TABLE t3 (a INT PRIMARY KEY, b INT, c INT);
         CREATE INDEX i1 ON t1 (b); CREATE INDEX i2 ON t2 (b); CREATE INDEX i3 ON t3 (b);",
    )
    .unwrap();
    for t in ["t1", "t2", "t3"] {
        let rows = (0..300)
            .map(|i| vec![Value::Int(i), Value::Int(i % 25), Value::Int(i % 7)])
            .collect();
        db.load_rows(t, rows).unwrap();
    }
    db.analyze().unwrap();
    db
}

/// Seven two-table EXISTS subqueries: more objects than
/// the exhaustive threshold (5), so `Auto` resolves to Linear here (it is
/// Exhaustive on every other row).
fn wide_query() -> String {
    let subqueries: Vec<String> = (0..7)
        .map(|k| {
            format!(
                "EXISTS (SELECT 1 FROM t2 x{k}, t3 y{k} WHERE x{k}.a = y{k}.a \
                 AND x{k}.b = t1.b AND x{k}.c = {})",
                k % 7
            )
        })
        .collect();
    format!("SELECT t1.a FROM t1 WHERE {}", subqueries.join(" AND "))
}

/// Calls `f(row, database, statement)` for every statement of the set,
/// plan cache off: six per `Family::all()` entry under the family's
/// name, then the `table2` and `wide` rows.
pub fn for_each_statement(mut f: impl FnMut(&'static str, &mut Database, &str)) {
    let mut gen = WorkloadGen::new(SEED);
    gen.scale = 0.3;
    for &family in Family::all() {
        for mut inst in gen.generate(family, PER_FAMILY) {
            inst.db.set_plan_cache_enabled(false);
            f(family.name(), &mut inst.db, &inst.sql);
        }
    }
    let mut db = table2_db();
    db.set_plan_cache_enabled(false);
    f("table2", &mut db, TABLE2_QUERY);
    f("wide", &mut db, &wide_query());
}
