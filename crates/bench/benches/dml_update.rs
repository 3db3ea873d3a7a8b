//! What a write costs: auto-commit `UPDATE … WHERE pk = ?` against the
//! same table at 2 000 and at 32 000 rows, no reader anywhere. The
//! target row is found by an index probe and the new version is
//! appended in place, so the statement must cost about the same at
//! both sizes — the gate is the ratio invariant `dml_update_flat`
//! (`pk_2k` ÷ `pk_32k` ≥ 0.5: 16× the rows, under 2× the time). A
//! write that scans or copies the table lands near 1/16.

use cbqt::common::Value;
use cbqt::{Database, StatementResult};
use cbqt_testkit::bench::Harness;

/// Statements per timed sample, each on a different key.
const BATCH: i64 = 64;

fn kv_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE kv (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)")
        .unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|id| vec![Value::Int(id), Value::Int(id % 8), Value::Int(id % 1000)])
        .collect();
    db.load_rows("kv", data).unwrap();
    db.analyze().unwrap();
    db
}

fn bench(c: &mut Harness) {
    let mut g = c.benchmark_group("dml_update");
    g.sample_size(20);
    for (name, rows) in [("pk_2k", 2_000i64), ("pk_32k", 32_000i64)] {
        let db = kv_db(rows);
        let session = db.session();
        // a fixed stride walks the key space without revisiting a key
        // inside one sample
        let mut next = 0i64;
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    next = (next + 7_919) % rows;
                    let sql = format!("UPDATE kv SET val = {} WHERE id = {next}", next % 1000);
                    match session.execute_statement(&sql).unwrap() {
                        StatementResult::RowsAffected(1) => {}
                        other => panic!("{sql}: {other:?}"),
                    }
                }
            })
        });
        let stats = db.txn_stats();
        assert_eq!(
            (stats.heap_copies, stats.index_copies),
            (0, 0),
            "{name}: a write copied the table"
        );
    }
    g.finish();
}

cbqt_testkit::bench_main!(bench);
