//! Repeated-query serving throughput: cold (plan cache cleared before
//! every execution, so each rep pays the full CBQT search) vs warm
//! (plan served from the shared cache). The acceptance bar for the
//! cache is a ≥5× speedup on hits.
//!
//! A second pair serves one point-lookup family warm, 1000 statements
//! per rep: as literal text (`warm_literal_text`, found through the
//! recipe of the statement's shape) and through a prepared statement
//! (`warm_prepared`, which never parses). The gate
//! `literal_text_vs_prepared` (`warm_prepared / warm_literal_text` ≥
//! 0.8 in `BENCH_baseline.json`) keeps the text route within 1.25× of
//! the prepared one.

use cbqt::common::Value;
use cbqt::Database;
use cbqt_bench::workload::{Family, WorkloadGen};
use cbqt_testkit::bench::Harness;

/// Rows of the point-lookup table, and statements per rep.
const ROWS: i64 = 20_000;
const LOOKUPS: i64 = 1000;

/// accounts(id, balance) keyed by id, analyzed.
fn point_db() -> Database {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT);")
        .unwrap();
    let rows = (0..ROWS)
        .map(|i| vec![Value::Int(i), Value::Int(i * 7 % 1000)])
        .collect();
    db.load_rows("accounts", rows).unwrap();
    db.analyze().unwrap();
    db
}

/// The ids one rep looks up: spread over the table, never 0.
fn ids() -> impl Iterator<Item = i64> {
    (1..=LOOKUPS).map(|i| i * 19 % ROWS)
}

fn bench(c: &mut Harness) {
    let mut gen = WorkloadGen::new(27);
    gen.scale = 0.1;
    let inst = gen.generate(Family::Unnest, 1).pop().unwrap();
    let (db, sql) = (inst.db, inst.sql);
    let mut g = c.benchmark_group("plan_cache");
    g.sample_size(30);
    g.bench_function("cold_compile_each_rep", |b| {
        b.iter(|| {
            db.clear_plan_cache();
            db.query(&sql).unwrap().rows.len()
        })
    });
    g.bench_function("warm_cache_hit", |b| {
        b.iter(|| db.query(&sql).unwrap().rows.len())
    });

    let db = point_db();
    let texts: Vec<String> = ids()
        .map(|id| format!("SELECT balance FROM accounts WHERE id = {id}"))
        .collect();
    let prepared = db
        .prepare("SELECT balance FROM accounts WHERE id = ?")
        .unwrap();
    let binds: Vec<[Value; 1]> = ids().map(|id| [Value::Int(id)]).collect();
    g.sample_size(20);
    g.bench_function("warm_literal_text", |b| {
        b.iter(|| {
            let rows = texts.iter().map(|s| db.query(s).unwrap().rows.len());
            rows.sum::<usize>()
        })
    });
    g.bench_function("warm_prepared", |b| {
        b.iter(|| {
            let rows = binds.iter().map(|v| prepared.query(v).unwrap().rows.len());
            rows.sum::<usize>()
        })
    });
    g.finish();
}

cbqt_testkit::bench_main!(bench);
