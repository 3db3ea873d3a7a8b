//! Join search windows on a 9-table snowflake: planned exactly (the
//! default `bushy_max_items`, 10) vs in windows of five
//! (`bushy_max_items = 5`, so the block takes several rounds of the
//! iterative DP). Each fact↔mid join expands (~200x fanout), while
//! mid↔leaf joins against a selectively filtered leaf shrink each arm to
//! ~200 rows — so the plan has to pre-join the arms (a bushy shape) to
//! avoid fat intermediates. The regression gate (`window_vs_exact_cost`
//! in `BENCH_baseline.json`) asserts this windowed plan stays within 1.5x
//! of the exact one end to end. It does not cover the default window on
//! blocks past 10 items; `experiments joins` sweeps those.
//!
//! `optimize_only` is the EXPLAIN of the same statement at the default:
//! parse, transformations and the join search, without execution.
//! `snowflake_search_share` (`bushy / optimize_only` ≥ 10) keeps the
//! search small next to running the plan it picks.

use cbqt::common::Value;
use cbqt::Database;
use cbqt_testkit::bench::Harness;

const ARMS: usize = 4;
/// Rows per mid table: the fact↔mid fanout is `MID_ROWS / 100`.
const MID_ROWS: i64 = 20_000;

fn build_db() -> Database {
    let mut db = Database::new();
    let mut script =
        String::from("CREATE TABLE fact (id INT PRIMARY KEY, a1 INT, a2 INT, a3 INT, a4 INT);");
    for k in 1..=ARMS {
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
    for k in 1..=ARMS {
        let mid: Vec<Vec<Value>> = (0..MID_ROWS)
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
    // every rep must exercise the enumerator, not the serving-path cache
    db.set_plan_cache_enabled(false);
    db
}

fn query() -> String {
    let mut from = String::from("fact f");
    let mut preds = Vec::new();
    for k in 1..=ARMS {
        from.push_str(&format!(", mid{k} m{k}, leaf{k} l{k}"));
        preds.push(format!("f.a{k} = m{k}.fkey"));
        preds.push(format!("m{k}.leaf_id = l{k}.id"));
        preds.push(format!("l{k}.attr = {k}"));
    }
    format!("SELECT f.id FROM {from} WHERE {}", preds.join(" AND "))
}

fn bench(c: &mut Harness) {
    let mut db = build_db();
    let sql = query();
    let mut g = c.benchmark_group("bushy_join");
    g.sample_size(15);
    for (name, bushy_max) in [("bushy", 10usize), ("window", 5)] {
        db.config_mut().optimizer.bushy_max_items = bushy_max;
        g.bench_function(name, |b| b.iter(|| db.query(&sql).unwrap().rows.len()));
    }
    db.config_mut().optimizer.bushy_max_items = 10;
    g.bench_function("optimize_only", |b| {
        b.iter(|| db.explain(&sql).unwrap().len())
    });
    g.finish();
}

cbqt_testkit::bench_main!(bench);
