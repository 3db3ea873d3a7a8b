//! Allocation budgets per statement kind: the heap allocations a warm
//! statement makes, counted exactly by a counting global allocator.
//!
//! Each kind runs 1 000 statements after a warm-up (plan cache, recipes
//! and the feedback store in their steady state) and is held to a
//! ceiling of allocations per statement, under both engines. A count
//! above its ceiling fails; a count below it is printed, so the ceiling
//! is tightened in the change that lowered it.
//!
//! The ceilings apply to release builds only: a debug build serves every
//! recipe hit twice and checks cached programs against fresh ones, so
//! its counts say nothing about the serving path.
//!
//! `cargo test --release -p cbqt --test alloc_budget -- --nocapture`
//! prints every count.

use cbqt::common::{ExecutionMode, Value};
use cbqt::Database;
use cbqt_testkit::alloc::{count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Statements counted per kind.
const COUNTED: usize = 1_000;
/// Statements run before counting.
const WARMUP: usize = 200;

/// The `warm_point` table: 20 000 accounts, about two per owner.
fn accounts(mode: ExecutionMode) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE accounts (id INT PRIMARY KEY, owner INT NOT NULL, branch INT, \
         balance INT, note VARCHAR(20));
         CREATE INDEX i_acc_owner ON accounts (owner);",
    )
    .unwrap();
    let rows = (0..20_000i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(id * 7919 % 10_000),
                Value::Int(id % 50),
                Value::Int(id * 31 % 1_000_000),
                Value::str(format!("acct-{id}")),
            ]
        })
        .collect();
    db.load_rows("accounts", rows).unwrap();
    db.analyze().unwrap();
    db.config_mut().execution_mode = mode;
    db
}

/// The `mixed_rw` table at 2 000 rows.
fn kv(mode: ExecutionMode) -> Database {
    kv_rows(mode, 2_000)
}

/// The `mixed_rw` table at `n` rows.
fn kv_rows(mode: ExecutionMode, n: i64) -> Database {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE kv (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL);")
        .unwrap();
    let rows = (0..n)
        .map(|id| vec![Value::Int(id), Value::Int(id % 20), Value::Int(id)])
        .collect();
    db.load_rows("kv", rows).unwrap();
    db.analyze().unwrap();
    db.config_mut().execution_mode = mode;
    db
}

/// Runs `stmt(i)` for the warm-up, then counts the allocations of the
/// next [`COUNTED`] statements and returns their mean. `stmt` must not
/// allocate for anything but the statement it runs (texts are built
/// before counting).
fn per_statement(mut stmt: impl FnMut(usize)) -> f64 {
    for i in 0..WARMUP {
        stmt(i);
    }
    let ((), counts) = count(|| {
        for i in WARMUP..WARMUP + COUNTED {
            stmt(i);
        }
    });
    counts.allocs as f64 / COUNTED as f64
}

/// Holds `measured` to `ceiling` (release builds only) and prints it.
fn check(kind: &str, mode: ExecutionMode, measured: f64, ceiling: f64) {
    println!("alloc budget {kind} [{mode}]: {measured:.2} per statement (ceiling {ceiling})");
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        measured <= ceiling,
        "{kind} [{mode}] allocates {measured:.2} per statement, over its ceiling of {ceiling}"
    );
    if measured < ceiling - 0.5 {
        println!("  {kind} [{mode}] fell below its ceiling: tighten it to {measured:.0}");
    }
}

const MODES: [ExecutionMode; 2] = [ExecutionMode::Vectorized, ExecutionMode::Volcano];

/// `(vectorized, volcano)` ceiling for one kind.
fn ceiling(mode: ExecutionMode, ceilings: (f64, f64)) -> f64 {
    match mode {
        ExecutionMode::Vectorized => ceilings.0,
        ExecutionMode::Volcano => ceilings.1,
    }
}

fn texts(n: usize, f: impl Fn(usize) -> String) -> Vec<String> {
    (0..n).map(f).collect()
}

#[test]
fn warm_literal_pk_select() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!(
            "SELECT balance, branch, note FROM accounts WHERE id = {}",
            i * 7 % 20_000
        )
    });
    for mode in MODES {
        let db = accounts(mode);
        let got = per_statement(|i| assert_eq!(db.query(&sqls[i]).unwrap().rows.len(), 1));
        check(
            "warm literal PK select",
            mode,
            got,
            ceiling(mode, (25.0, 23.0)),
        );
    }
}

#[test]
fn warm_owner_lookup() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!(
            "SELECT id, balance FROM accounts WHERE owner = {}",
            i * 13 % 10_000
        )
    });
    for mode in MODES {
        let db = accounts(mode);
        let got = per_statement(|i| drop(db.query(&sqls[i]).unwrap()));
        check("warm owner lookup", mode, got, ceiling(mode, (24.0, 24.0)));
    }
}

#[test]
fn prepared_query() {
    let binds: Vec<[Value; 1]> = (0..WARMUP + COUNTED)
        .map(|i| [Value::Int((i * 11 % 20_000) as i64)])
        .collect();
    for mode in MODES {
        let db = accounts(mode);
        let p = db
            .prepare("SELECT balance, branch, note FROM accounts WHERE id = ?")
            .unwrap();
        let got = per_statement(|i| assert_eq!(p.query(&binds[i]).unwrap().rows.len(), 1));
        check("Prepared::query", mode, got, ceiling(mode, (24.0, 22.0)));
    }
}

#[test]
fn single_row_update() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("UPDATE kv SET val = {} WHERE id = {}", i, i * 17 % 2_000)
    });
    for mode in MODES {
        let db = kv(mode);
        let writer = db.session();
        let got = per_statement(|i| drop(writer.execute_statement(&sqls[i]).unwrap()));
        check("single-row UPDATE", mode, got, ceiling(mode, (22.0, 20.0)));
    }
}

#[test]
fn update_in_an_explicit_transaction() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("UPDATE kv SET val = {} WHERE id = {}", i, i * 17 % 2_000)
    });
    for mode in MODES {
        let db = kv(mode);
        let writer = db.session();
        let got = per_statement(|i| {
            writer.begin().unwrap();
            drop(writer.execute_statement(&sqls[i]).unwrap());
            writer.commit().unwrap();
        });
        check(
            "BEGIN, single-row UPDATE, COMMIT",
            mode,
            got,
            ceiling(mode, (22.0, 20.0)),
        );
    }
}

#[test]
fn single_row_delete() {
    // 1 200 of 12 000 rows go: the target plan's row count stays well
    // inside the divergence ratio, so no statement recompiles
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("DELETE FROM kv WHERE id = {}", i * 7 % 12_000)
    });
    for mode in MODES {
        let db = kv_rows(mode, 12_000);
        let writer = db.session();
        let got = per_statement(|i| {
            let r = writer.execute_statement(&sqls[i]).unwrap();
            assert!(matches!(r, cbqt::StatementResult::RowsAffected(1)));
        });
        check("single-row DELETE", mode, got, ceiling(mode, (18.0, 18.0)));
    }
}

#[test]
fn single_row_insert() {
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("INSERT INTO kv VALUES ({}, {}, {})", 2_000 + i, i % 20, i)
    });
    for mode in MODES {
        let db = kv(mode);
        let writer = db.session();
        let got = per_statement(|i| drop(writer.execute_statement(&sqls[i]).unwrap()));
        check(
            "single-row INSERT … VALUES",
            mode,
            got,
            ceiling(mode, (31.5, 31.5)),
        );
    }
}

#[test]
fn sum_count_scan() {
    for mode in MODES {
        let db = kv(mode);
        let got = per_statement(|_| {
            let r = db.query("SELECT SUM(val), COUNT(*) FROM kv").unwrap();
            assert_eq!(r.rows[0][1], Value::Int(2_000));
        });
        check(
            "2 000-row SUM / COUNT scan",
            mode,
            got,
            ceiling(mode, (25.0, 2039.0)),
        );
    }
}

#[test]
fn group_read() {
    // mixed_rw's read of one group: 100 of 2 000 rows pass `grp = g`
    let sqls = texts(WARMUP + COUNTED, |i| {
        format!("SELECT SUM(val), COUNT(*) FROM kv WHERE grp = {}", i % 20)
    });
    for mode in MODES {
        let db = kv(mode);
        let got = per_statement(|i| {
            let r = db.query(&sqls[i]).unwrap();
            assert_eq!(r.rows[0][1], Value::Int(100));
        });
        check(
            "2 000-row group read (SUM / COUNT WHERE grp = g)",
            mode,
            got,
            ceiling(mode, (34.0, 2039.0)),
        );
    }
}

#[test]
fn grouped_aggregate() {
    for mode in MODES {
        let db = kv(mode);
        let got = per_statement(|_| {
            let r = db
                .query("SELECT grp, SUM(val), COUNT(*) FROM kv GROUP BY grp")
                .unwrap();
            assert_eq!(r.rows.len(), 20);
        });
        check(
            "2 000-row GROUP BY (20 groups)",
            mode,
            got,
            ceiling(mode, (91.0, 4170.0)),
        );
    }
}
