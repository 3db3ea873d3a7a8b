//! Bind-parameter plan sharing on a 1000-statement query family: the
//! same predicate with 1000 different literals, served either with the
//! plan cache off (`uncached`: every statement pays one CBQT compile) or
//! through the plan-family cache (the whole family shares one
//! parameterized plan per selectivity bucket). The gate
//! (`bind_sharing_speedup` in `BENCH_baseline.json`) is `uncached /
//! bind_shared_cold` ≥ 2: the cold arm starts every rep from an empty
//! cache, so the ratio isolates the 999 compiles sharing avoids.

use cbqt::common::Value;
use cbqt::Database;
use cbqt_testkit::bench::Harness;

const FAMILY: i64 = 1000;

/// employees(emp_id, salary) with salary = 1000 + i (uniform, all
/// distinct, analyzed) plus the 1000-statement family probing it.
fn setup() -> (Database, Vec<String>) {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE employees (emp_id INT PRIMARY KEY, salary INT);
         CREATE INDEX i_emp_sal ON employees (salary);",
    )
    .unwrap();
    let data: Vec<Vec<Value>> = (0..FAMILY)
        .map(|i| vec![Value::Int(i), Value::Int(1000 + i)])
        .collect();
    db.load_rows("employees", data).unwrap();
    db.analyze().unwrap();
    let sqls = (0..FAMILY)
        .map(|i| format!("SELECT emp_id FROM employees WHERE salary = {}", 1000 + i))
        .collect();
    (db, sqls)
}

fn run_family(db: &Database, sqls: &[String]) -> usize {
    sqls.iter().map(|s| db.query(s).unwrap().rows.len()).sum()
}

fn bench(c: &mut Harness) {
    let (mut db, sqls) = setup();
    let mut g = c.benchmark_group("plan_cache_binds");
    g.sample_size(10);

    // No plan cache: 1000 compiles per rep.
    db.set_plan_cache_enabled(false);
    g.bench_function("uncached", |b| b.iter(|| run_family(&db, &sqls)));

    // One extracted family: cold compiles once per selectivity bucket
    // (here: once), warm serves all 1000 statements from that plan.
    db.set_plan_cache_enabled(true);
    g.bench_function("bind_shared_cold", |b| {
        b.iter(|| {
            db.clear_plan_cache();
            run_family(&db, &sqls)
        })
    });
    g.bench_function("bind_shared_warm", |b| b.iter(|| run_family(&db, &sqls)));
    g.finish();
}

cbqt_testkit::bench_main!(bench);
