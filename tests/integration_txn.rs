//! End-to-end MVCC transaction semantics: snapshot isolation across
//! sessions, atomic commit publishing, exact rollback, auto-abort on
//! statement failure, plan-cache interaction (data versions bump only
//! at commit, and cached plans survive them), transaction trace events,
//! and the statement surface (BEGIN / COMMIT / ROLLBACK in scripts, DDL
//! rejection in transactions). UPDATE and DELETE find their rows
//! through a planned target query: access paths,
//! read-all-then-write-all, write cost and NOT NULL enforcement are
//! checked here too.
//!
//! Every test holds [`failpoints::serial`]: one test arms the
//! process-global commit-publish failpoint, and a commit on another
//! test's thread (any `load_rows`, auto-commit or COMMIT) would fail
//! on it.

use cbqt::common::{Error, Value};
use cbqt::{Database, OptimizerEvent, Session, StatementResult};
use cbqt_testkit::failpoints::{self, Fail};

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(20) NOT NULL, balance INT);
         CREATE INDEX i_acc_bal ON accounts (balance);",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..20i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(format!("owner{i}")),
                Value::Int(100 * i),
            ]
        })
        .collect();
    db.load_rows("accounts", rows).unwrap();
    db.analyze().unwrap();
    db
}

fn count(db: &Database, sql: &str) -> i64 {
    match db.query(sql).unwrap().rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("expected Int, got {v:?}"),
    }
}

#[test]
fn uncommitted_writes_visible_only_to_their_own_transaction() {
    let _serial = failpoints::serial();
    let db = fixture();
    let writer = db.session();
    let reader = db.session();

    writer.begin().unwrap();
    assert!(writer.in_transaction());
    writer
        .execute("INSERT INTO accounts VALUES (100, 'new', 5)")
        .unwrap();
    writer
        .execute("UPDATE accounts SET balance = -1 WHERE id = 0")
        .unwrap();

    // own transaction sees both writes
    let own = writer.query("SELECT COUNT(*) FROM accounts").unwrap();
    assert_eq!(own.rows[0][0], Value::Int(21));
    let own_upd = writer
        .query("SELECT balance FROM accounts WHERE id = 0")
        .unwrap();
    assert_eq!(own_upd.rows, vec![vec![Value::Int(-1)]]);

    // other sessions and the database handle still see the old state
    assert_eq!(count(&db, "SELECT COUNT(*) FROM accounts"), 20);
    let other = reader
        .query("SELECT balance FROM accounts WHERE id = 0")
        .unwrap();
    assert_eq!(other.rows, vec![vec![Value::Int(0)]]);

    writer.commit().unwrap();
    assert!(!writer.in_transaction());

    // commit publishes everything atomically
    assert_eq!(count(&db, "SELECT COUNT(*) FROM accounts"), 21);
    let after = reader
        .query("SELECT balance FROM accounts WHERE id = 0")
        .unwrap();
    assert_eq!(after.rows, vec![vec![Value::Int(-1)]]);
}

#[test]
fn rollback_restores_exact_pre_transaction_state() {
    let _serial = failpoints::serial();
    let db = fixture();
    let before = db.query("SELECT id, owner, balance FROM accounts").unwrap();
    let s = db.session();
    s.begin().unwrap();
    s.execute("INSERT INTO accounts VALUES (200, 'ghost', 1)")
        .unwrap();
    s.execute("DELETE FROM accounts WHERE id < 5").unwrap();
    s.execute("UPDATE accounts SET balance = 0 WHERE id >= 15")
        .unwrap();
    s.rollback().unwrap();
    assert!(!s.in_transaction());

    let after = db.query("SELECT id, owner, balance FROM accounts").unwrap();
    let mut a: Vec<String> = before.rows.iter().map(|r| format!("{r:?}")).collect();
    let mut b: Vec<String> = after.rows.iter().map(|r| format!("{r:?}")).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "rollback did not restore the exact state");
    // indexed access path agrees with the restored heap
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM accounts WHERE balance = 0"),
        1
    );
}

#[test]
fn statements_outside_transactions_autocommit() {
    let _serial = failpoints::serial();
    let mut db = fixture();
    for sql in [
        "INSERT INTO accounts VALUES (300, 'auto', 7)",
        "UPDATE accounts SET balance = 8 WHERE id = 300",
        "DELETE FROM accounts WHERE id = 300",
    ] {
        let results = db.execute_script(sql).unwrap();
        assert!(
            matches!(results[0], StatementResult::RowsAffected(1)),
            "{sql}: {results:?}"
        );
    }
    assert_eq!(count(&db, "SELECT COUNT(*) FROM accounts"), 20);
    let stats = db.txn_stats();
    assert!(stats.begun >= 3 && stats.committed >= 3, "{stats:?}");
}

#[test]
fn failed_write_statement_aborts_the_whole_transaction() {
    let _serial = failpoints::serial();
    let db = fixture();
    let s = db.session();
    s.begin().unwrap();
    s.execute("INSERT INTO accounts VALUES (400, 'kept?', 1)")
        .unwrap();
    // a runtime error mid-write (division by zero during the row
    // rewrite) aborts the whole open transaction
    let err = s
        .execute("UPDATE accounts SET balance = balance / 0 WHERE id = 400")
        .unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    assert!(!s.in_transaction(), "failed write left the txn open");
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM accounts WHERE id = 400"),
        0,
        "earlier write of the aborted txn survived"
    );
    // pre-execution validation errors never start the write, so the
    // transaction survives them — just like a failed SELECT
    s.begin().unwrap();
    let err = s
        .execute("INSERT INTO accounts VALUES (401, 'bad')")
        .unwrap_err();
    assert!(err.to_string().contains("INSERT value count mismatch"));
    assert!(s.in_transaction(), "validation error aborted the txn");
    assert!(s.query("SELECT nope FROM accounts").is_err());
    assert!(s.in_transaction(), "failed read aborted the txn");
    s.rollback().unwrap();
}

#[test]
fn rolled_back_writes_keep_cached_plans_warm() {
    let _serial = failpoints::serial();
    let db = fixture();
    let sql = "SELECT owner FROM accounts WHERE balance > 1500";
    let cold = db.query(sql).unwrap();
    assert!(!cold.stats.plan_cache_hit);
    assert!(db.query(sql).unwrap().stats.plan_cache_hit);

    let hits_before = db.plan_cache_stats().hits;
    let s = db.session();
    s.begin().unwrap();
    s.execute("UPDATE accounts SET balance = 1 WHERE id = 19")
        .unwrap();
    s.rollback().unwrap();

    // an aborted write must NOT bump table versions: the cached plan
    // still serves, and the answer is unchanged
    let warm = db.query(sql).unwrap();
    assert!(
        warm.stats.plan_cache_hit,
        "rolled-back write invalidated cached plans"
    );
    assert_eq!(db.plan_cache_stats().hits, hits_before + 1);
    assert_eq!(warm.rows.len(), cold.rows.len());

    // a committed write moves the table's data version, not its shape:
    // the plan keeps serving, and reads the write
    let table = db.catalog().table_by_name("accounts").unwrap().id;
    let data = db.catalog().table_version(table);
    s.begin().unwrap();
    s.execute("UPDATE accounts SET balance = 1 WHERE id = 19")
        .unwrap();
    s.commit().unwrap();
    assert!(db.catalog().table_version(table) > data);
    let after = db.query(sql).unwrap();
    assert!(after.stats.plan_cache_hit);
    assert_eq!(after.rows.len(), cold.rows.len() - 1);
}

#[test]
fn in_transaction_queries_serve_from_cache_against_the_txn_snapshot() {
    let _serial = failpoints::serial();
    let db = fixture();
    let sql = "SELECT COUNT(*) FROM accounts";
    db.query(sql).unwrap();
    assert!(db.query(sql).unwrap().stats.plan_cache_hit);

    let s = db.session();
    s.begin().unwrap();
    s.execute("INSERT INTO accounts VALUES (500, 'cached', 9)")
        .unwrap();
    // same cached plan, but executed against the transaction snapshot:
    // it must include the uncommitted row
    let r = s.query(sql).unwrap();
    assert!(r.stats.plan_cache_hit, "in-txn query missed the warm cache");
    assert_eq!(r.rows[0][0], Value::Int(21));
    s.rollback().unwrap();
    assert_eq!(count(&db, sql), 20);
}

#[test]
fn begin_commit_rollback_statement_surface() {
    let _serial = failpoints::serial();
    let mut db = fixture();
    // nested BEGIN is an error
    let results = db.execute_script("BEGIN; BEGIN;");
    assert!(results.unwrap_err().to_string().contains("already open"));
    // the failed BEGIN aborted the script's transaction; COMMIT and
    // ROLLBACK without an open transaction are no-ops
    assert!(matches!(
        db.execute_script("COMMIT").unwrap()[0],
        StatementResult::Txn
    ));
    assert!(matches!(
        db.execute_script("ROLLBACK").unwrap()[0],
        StatementResult::Txn
    ));

    // a scripted transaction commits atomically
    let results = db
        .execute_script(
            "BEGIN;
             INSERT INTO accounts VALUES (600, 'scripted', 3);
             UPDATE accounts SET balance = 4 WHERE id = 600;
             COMMIT;",
        )
        .unwrap();
    assert!(matches!(results[0], StatementResult::Txn));
    assert!(matches!(results[3], StatementResult::Txn));
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM accounts WHERE balance = 4"),
        1
    );

    // a scripted rollback leaves no trace
    db.execute_script("BEGIN; DELETE FROM accounts; ROLLBACK;")
        .unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM accounts"), 21);
}

#[test]
fn session_prepared_statement_reads_its_own_transaction() {
    let _serial = failpoints::serial();
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE kv (k INT PRIMARY KEY, v INT);
         INSERT INTO kv VALUES (1, 10), (2, 20);
         ANALYZE;",
    )
    .unwrap();
    let read = "SELECT v FROM kv WHERE k = 1";
    let s = db.session();
    let other = db.session();
    // prepared before the transaction opens: what binds a statement to
    // a transaction is the session that prepared it, not when
    let prepared = s.prepare(read).unwrap();
    let others = other.prepare(read).unwrap();
    let routes = |want: i64, when: &str| {
        let want = vec![vec![Value::Int(want)]];
        assert_eq!(s.query(read).unwrap().rows, want, "query {when}");
        let bound = s.query_bound("SELECT v FROM kv WHERE k = ?", &[Value::Int(1)]);
        assert_eq!(bound.unwrap().rows, want, "query_bound {when}");
        assert_eq!(prepared.query(&[]).unwrap().rows, want, "prepared {when}");
        let again = s.prepare(read).unwrap();
        assert_eq!(again.query(&[]).unwrap().rows, want, "re-prepared {when}");
    };
    routes(10, "before the transaction");

    s.begin().unwrap();
    s.execute("UPDATE kv SET v = 99 WHERE k = 1").unwrap();
    routes(99, "inside the transaction");
    // everyone else still reads the committed row
    let committed = vec![vec![Value::Int(10)]];
    assert_eq!(others.query(&[]).unwrap().rows, committed);
    assert_eq!(
        db.prepare(read).unwrap().query(&[]).unwrap().rows,
        committed
    );

    s.rollback().unwrap();
    routes(10, "after rollback");
    assert_eq!(others.query(&[]).unwrap().rows, committed);
}

#[test]
fn ddl_and_analyze_are_rejected_inside_transactions() {
    let _serial = failpoints::serial();
    let mut db = fixture();
    db.execute_mut("BEGIN").unwrap();
    for sql in [
        "CREATE TABLE t2 (a INT PRIMARY KEY)",
        "CREATE INDEX i2 ON accounts (owner)",
        "ANALYZE",
    ] {
        let err = db.execute_mut(sql).unwrap_err();
        assert!(
            err.to_string()
                .contains("cannot run inside an open transaction"),
            "{sql}: {err}"
        );
    }
    db.execute_mut("ROLLBACK").unwrap();

    // sessions never get DDL at all: it needs exclusive access
    let s = db.session();
    let err = s
        .execute("CREATE TABLE t3 (a INT PRIMARY KEY)")
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("requires a query, DML or transaction control, got CREATE TABLE"),
        "{err}"
    );
}

#[test]
fn txn_stats_count_lifecycle_events() {
    let _serial = failpoints::serial();
    let db = fixture();
    let base = db.txn_stats();
    let s = db.session();

    s.begin().unwrap();
    s.execute("INSERT INTO accounts VALUES (700, 'a', 1)")
        .unwrap();
    s.commit().unwrap();

    s.begin().unwrap();
    s.execute("INSERT INTO accounts VALUES (701, 'b', 1)")
        .unwrap();
    s.rollback().unwrap();

    let w1 = db.session();
    let w2 = db.session();
    w1.begin().unwrap();
    w2.begin().unwrap();
    w1.execute("UPDATE accounts SET balance = 2 WHERE id = 700")
        .unwrap();
    assert!(matches!(
        w2.execute("UPDATE accounts SET balance = 3 WHERE id = 700")
            .unwrap_err(),
        Error::WriteConflict(_)
    ));
    w1.commit().unwrap();

    let now = db.txn_stats();
    assert!(now.begun >= base.begun + 4, "{now:?}");
    assert!(now.committed >= base.committed + 2, "{now:?}");
    assert!(now.rolled_back >= base.rolled_back + 2, "{now:?}");
    assert_eq!(now.conflicts, base.conflicts + 1, "{now:?}");
}

#[test]
fn trace_statement_reports_transaction_events() {
    let _serial = failpoints::serial();
    let db = fixture();
    let s = db.session();

    // autocommit DML traces BEGIN + COMMIT around the write
    let r = s
        .trace_statement("INSERT INTO accounts VALUES (800, 'traced', 1)")
        .unwrap();
    let text = r.render();
    assert!(text.contains("TXN BEGIN"), "missing begin: {text}");
    assert!(text.contains("TXN COMMIT"), "missing commit: {text}");

    // an explicit transaction traces its control statements
    let begin = s.trace_statement("BEGIN").unwrap().render();
    assert!(begin.contains("TXN BEGIN"), "{begin}");
    s.execute("DELETE FROM accounts WHERE id = 800").unwrap();
    let rb = s.trace_statement("ROLLBACK").unwrap().render();
    assert!(rb.contains("TXN ROLLBACK"), "{rb}");
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM accounts WHERE id = 800"),
        1
    );

    // a conflicting write traces TXN CONFLICT before it aborts
    let other = db.session();
    s.begin().unwrap();
    other.begin().unwrap();
    s.execute("UPDATE accounts SET balance = 5 WHERE id = 800")
        .unwrap();
    let err = other
        .trace_statement("UPDATE accounts SET balance = 6 WHERE id = 800")
        .unwrap_err();
    assert!(matches!(err, Error::WriteConflict(_)));
    s.commit().unwrap();
}

#[test]
fn commit_publish_failpoint_rolls_back_the_explicit_transaction() {
    let _serial = failpoints::serial();
    let db = fixture();
    let s = db.session();
    s.begin().unwrap();
    s.execute("UPDATE accounts SET balance = balance + 1000 WHERE id < 10")
        .unwrap();
    {
        let _fp = Fail::error(cbqt::common::failpoint::STORAGE_COMMIT_PUBLISH);
        let err = s.commit().unwrap_err();
        assert!(err.to_string().contains("storage.commit.publish"), "{err}");
    }
    assert!(!s.in_transaction());
    // nothing published, nothing half-applied: only ids 10..19 had
    // balance >= 1000 before the attempt
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM accounts WHERE balance >= 1000"),
        10
    );
    // the database keeps serving and can commit afterwards
    s.begin().unwrap();
    s.execute("UPDATE accounts SET balance = balance + 1000 WHERE id = 0")
        .unwrap();
    s.commit().unwrap();
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM accounts WHERE balance >= 1000"),
        11
    );
}

#[test]
fn dropping_a_session_rolls_back_its_open_transaction() {
    let _serial = failpoints::serial();
    let db = fixture();
    {
        let s = db.session();
        s.begin().unwrap();
        s.execute("DELETE FROM accounts").unwrap();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM accounts"), 20);
    }
    // the dropped session's uncommitted deletes are gone
    assert_eq!(count(&db, "SELECT COUNT(*) FROM accounts"), 20);
    let s2 = db.session();
    assert_eq!(
        s2.query("SELECT COUNT(*) FROM accounts").unwrap().rows[0][0],
        Value::Int(20)
    );
}

// -- UPDATE / DELETE through the planner's access paths -----------------

/// `kv (id INT PRIMARY KEY, k INT, tag VARCHAR)` with `rows` rows,
/// `k = id`, and a secondary index on `k`.
fn kv(rows: i64) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE kv (id INT PRIMARY KEY, k INT, tag VARCHAR(8));
         CREATE INDEX i_kv_k ON kv (k);",
    )
    .unwrap();
    let data = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i),
                Value::str(format!("t{}", i % 4)),
            ]
        })
        .collect();
    db.load_rows("kv", data).unwrap();
    db.analyze().unwrap();
    db
}

fn affected(s: &Session<'_>, sql: &str) -> u64 {
    match s.execute_statement(sql).unwrap() {
        StatementResult::RowsAffected(n) => n,
        other => panic!("{sql}: expected a row count, got {other:?}"),
    }
}

/// `(access, rows, work)` of the statement's `DML TARGET` trace event.
fn dml_target(s: &Session<'_>, sql: &str) -> (String, usize, f64) {
    let report = s.trace_statement(sql).unwrap();
    let found = report.events.iter().find_map(|e| match e {
        OptimizerEvent::DmlTarget {
            table,
            access,
            rows,
            work,
            ..
        } => {
            assert_eq!(table, "kv");
            Some((access.clone(), *rows, *work))
        }
        _ => None,
    });
    found.unwrap_or_else(|| panic!("{sql}: no DML TARGET event in\n{}", report.render()))
}

#[test]
fn pk_equality_dml_probes_the_index_at_a_cost_independent_of_table_size() {
    let _serial = failpoints::serial();
    let (small, large) = (kv(1_000), kv(50_000));
    for sql in [
        "UPDATE kv SET tag = 'x' WHERE id = 617",
        "DELETE FROM kv WHERE id = 617",
    ] {
        let (s_access, s_rows, s_work) = dml_target(&small.session(), sql);
        let (l_access, l_rows, l_work) = dml_target(&large.session(), sql);
        assert!(s_access.starts_with("INDEX EQ"), "{sql}: {s_access}");
        assert!(l_access.starts_with("INDEX EQ"), "{sql}: {l_access}");
        assert_eq!((s_rows, l_rows), (1, 1), "{sql}");
        assert!(
            s_work > 0.0 && l_work <= 2.0 * s_work,
            "{sql}: work {s_work} on 1k rows, {l_work} on 50k rows"
        );
    }
    // the rendered trace names the access path
    let text = small
        .session()
        .trace_statement("UPDATE kv SET tag = 'y' WHERE id = 3")
        .unwrap()
        .render();
    assert!(
        text.contains("DML TARGET table=kv access=INDEX EQ"),
        "{text}"
    );
    assert_eq!(count(&large, "SELECT COUNT(*) FROM kv"), 49_999);
    assert_eq!(count(&large, "SELECT COUNT(*) FROM kv WHERE tag = 'x'"), 0);
}

#[test]
fn autocommit_updates_copy_nothing_and_a_held_snapshot_costs_one_copy() {
    let _serial = failpoints::serial();
    let update_every_row = |db: &Database| {
        let s = db.session();
        for i in 0..1_000 {
            assert_eq!(
                affected(
                    &s,
                    &format!("UPDATE kv SET k = {} WHERE id = {i}", i + 5_000)
                ),
                1
            );
        }
    };
    // no reader anywhere: every write happens in place
    let db = kv(1_000);
    let base = db.txn_stats();
    update_every_row(&db);
    let now = db.txn_stats();
    assert_eq!(now.heap_copies, base.heap_copies, "{now:?}");
    assert_eq!(now.index_copies, base.index_copies, "{now:?}");

    // one snapshot held across all of them: the first write copies the
    // heap once and each of the table's two indexes once, the rest
    // write the copies in place; the snapshot keeps its original rows
    let db = kv(1_000);
    let base = db.txn_stats();
    let held = db.storage().snapshot();
    update_every_row(&db);
    let now = db.txn_stats();
    assert_eq!(now.heap_copies, base.heap_copies + 1, "{now:?}");
    assert_eq!(now.index_copies, base.index_copies + 2, "{now:?}");
    let table = db.catalog().table_by_name("kv").unwrap().id;
    let old = held.table(table).unwrap();
    assert_eq!(old.version_count(), 1_000);
    assert!(
        old.rows().all(|r| r[0] == r[1]),
        "held snapshot saw a write"
    );
    drop(held);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM kv WHERE k >= 5000"), 1_000);
}

#[test]
fn update_of_its_own_search_key_touches_each_row_once() {
    let _serial = failpoints::serial();
    // Halloween: the new versions land inside the scanned index range
    let db = kv(300);
    let s = db.session();
    let sql = "UPDATE kv SET k = k + 1000 WHERE k >= 0";
    let (access, rows, _) = dml_target(&s, sql);
    assert_eq!(rows, 300, "{access}");
    let r = db.query("SELECT id, k FROM kv ORDER BY id").unwrap();
    assert_eq!(r.rows.len(), 300);
    for row in &r.rows {
        let (Value::Int(id), Value::Int(k)) = (&row[0], &row[1]) else {
            panic!("{row:?}")
        };
        assert_eq!(*k, id + 1000, "row {id} was moved more than once");
    }
    // and again through a narrow range the planner serves by index
    let (access, rows, _) = dml_target(&s, "UPDATE kv SET k = k + 1 WHERE k >= 1295");
    assert!(access.starts_with("INDEX RANGE"), "{access}");
    assert_eq!(rows, 5);
    assert_eq!(count(&db, "SELECT COUNT(*) FROM kv WHERE k >= 1295"), 5);
    assert_eq!(count(&db, "SELECT MAX(k) FROM kv"), 1300);
}

#[test]
fn dml_inside_one_transaction_sees_its_own_writes() {
    let _serial = failpoints::serial();
    let db = kv(10);
    let s = db.session();
    s.begin().unwrap();
    // the same row twice: the second statement finds the first's version
    assert_eq!(affected(&s, "UPDATE kv SET k = k + 1 WHERE id = 4"), 1);
    assert_eq!(affected(&s, "UPDATE kv SET k = k + 1 WHERE id = 4"), 1);
    // a deleted row is gone for the transaction's later statements
    assert_eq!(affected(&s, "DELETE FROM kv WHERE id = 5"), 1);
    assert_eq!(affected(&s, "UPDATE kv SET k = 0 WHERE id = 5"), 0);
    // its own insert is updatable and deletable
    assert_eq!(affected(&s, "INSERT INTO kv VALUES (100, 1, 'new')"), 1);
    assert_eq!(affected(&s, "UPDATE kv SET k = k + 41 WHERE id = 100"), 1);
    assert_eq!(
        count(&db, "SELECT COUNT(*) FROM kv WHERE id IN (5, 100)"),
        1
    );
    s.commit().unwrap();
    let r = db
        .query("SELECT id, k FROM kv WHERE id IN (4, 5, 100) ORDER BY id")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(4), Value::Int(6)],
            vec![Value::Int(100), Value::Int(42)]
        ]
    );

    // first updater wins, the loser aborts with the usual message
    let (w1, w2) = (db.session(), db.session());
    w1.begin().unwrap();
    w2.begin().unwrap();
    assert_eq!(affected(&w1, "UPDATE kv SET k = 7 WHERE id = 1"), 1);
    let err = w2.execute("DELETE FROM kv WHERE id <= 1").unwrap_err();
    assert!(matches!(err, Error::WriteConflict(_)), "{err}");
    let text = err.to_string();
    assert!(
        text.contains("lost a first-updater race to transaction")
            && text.contains("on table kv; retry on a fresh snapshot"),
        "{text}"
    );
    assert!(!w2.in_transaction());
    w1.commit().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM kv WHERE id <= 1"), 2);
}

#[test]
fn autocommit_updates_of_one_shape_compile_their_target_once() {
    let _serial = failpoints::serial();
    let run = |cached: bool| {
        let mut db = kv(200);
        db.set_plan_cache_enabled(cached);
        let s = db.session();
        let first = s
            .trace_statement("UPDATE kv SET tag = 'u0' WHERE id = 0")
            .unwrap()
            .render();
        // the SET and WHERE literals are bind slots: one family
        for i in 1..1_000i64 {
            let sql = format!("UPDATE kv SET tag = 'u{}' WHERE id = {}", i % 7, i % 200);
            assert_eq!(affected(&s, &sql), 1, "{sql}");
        }
        let last = s
            .trace_statement("UPDATE kv SET tag = 'z' WHERE id = 5")
            .unwrap()
            .render();
        drop(s);
        let stats = db.plan_cache_stats();
        let rows = db.query("SELECT id, k, tag FROM kv ORDER BY id");
        (first, last, stats, rows.unwrap().rows)
    };
    let (first, last, stats, rows) = run(true);
    assert!(first.contains("cached=false"), "{first}");
    assert!(last.contains("cached=true"), "{last}");
    // 1 001 statements: one compile, and their commits invalidate nothing
    assert_eq!(
        (stats.misses, stats.hits, stats.invalidations),
        (1, 1_000, 0),
        "{stats:?}"
    );
    let (first, _, _, fresh) = run(false);
    assert!(first.contains("cached=false"), "{first}");
    assert_eq!(rows, fresh);
}

#[test]
fn an_update_in_a_transaction_reads_its_snapshot_through_the_cached_target_plan() {
    let _serial = failpoints::serial();
    let db = kv(50);
    let (writer, other, reader) = (db.session(), db.session(), db.session());
    let sum = |s: &Session<'_>| s.query("SELECT SUM(k) FROM kv").unwrap().rows[0][0].clone();
    // warm the family, then pin a reader
    assert_eq!(affected(&writer, "UPDATE kv SET k = k + 1 WHERE id = 0"), 1);
    reader.begin().unwrap();
    let pinned = sum(&reader);

    writer.begin().unwrap();
    for _ in 0..2 {
        // the second statement finds the first one's uncommitted version
        let text = writer
            .trace_statement("UPDATE kv SET k = k + 1 WHERE id = 3")
            .unwrap()
            .render();
        assert!(
            text.contains("rows=1 ") && text.contains("cached=true"),
            "{text}"
        );
    }
    // a commit after the writer's snapshot, through the same cached plan
    assert_eq!(affected(&other, "UPDATE kv SET k = k + 10 WHERE id = 7"), 1);
    let k_of = |s: &Session<'_>, id: i64| {
        let sql = format!("SELECT k FROM kv WHERE id = {id}");
        s.query(&sql).unwrap().rows[0][0].clone()
    };
    assert_eq!(k_of(&writer, 3), Value::Int(5));
    assert_eq!(k_of(&writer, 7), Value::Int(7));
    // the pinned reader sees neither
    assert_eq!(sum(&reader), pinned);
    writer.commit().unwrap();
    reader.commit().unwrap();
    assert_eq!(k_of(&reader, 3), Value::Int(5));
    assert_eq!(k_of(&reader, 7), Value::Int(17));
    let s = db.plan_cache_stats();
    assert_eq!(s.invalidations, 0, "{s:?}");
}

#[test]
fn dml_predicates_and_set_expressions_are_full_sql() {
    let _serial = failpoints::serial();
    let db = kv(40);
    let s = db.session();
    assert_eq!(
        affected(&s, "UPDATE kv SET k = -1 WHERE id IN (3, 5, 7, 400)"),
        3
    );
    assert_eq!(
        affected(&s, "UPDATE kv SET k = -2 WHERE id BETWEEN 10 AND 12"),
        3
    );
    assert_eq!(
        affected(&s, "DELETE FROM kv WHERE tag LIKE 't3%' AND id > 30"),
        3
    );
    assert_eq!(
        affected(&s, "UPDATE kv SET tag = tag || '!' WHERE kv.id = 0"),
        1
    );
    assert_eq!(
        db.query("SELECT tag FROM kv WHERE id = 0").unwrap().rows,
        vec![vec![Value::str("t0!")]]
    );
    assert_eq!(
        affected(
            &s,
            "UPDATE kv SET k = (SELECT MAX(id) FROM kv) \
             WHERE id IN (SELECT id FROM kv WHERE k = -2)"
        ),
        3
    );
    // ids 31, 35 and 39 are gone: MAX(id) is 38, which row 38 had already
    assert_eq!(count(&db, "SELECT COUNT(*) FROM kv WHERE k = 38"), 4);
    // a filter that evaluates to NULL selects nothing
    assert_eq!(affected(&s, "UPDATE kv SET k = 0 WHERE k = NULL"), 0);
    assert_eq!(affected(&s, "DELETE FROM kv WHERE NOT (k > NULL)"), 0);
    assert_eq!(
        affected(&s, "DELETE FROM kv WHERE tag IN ('nope', NULL)"),
        0
    );
    // an aggregate would collapse the target rows into one
    let err = s.execute("UPDATE kv SET k = SUM(k)").unwrap_err();
    assert!(err.to_string().contains("aggregate"), "{err}");
    // analysis errors never start the write: an open transaction survives
    s.begin().unwrap();
    assert!(s.execute("UPDATE kv SET k = 1 WHERE nope = 2").is_err());
    assert!(s.execute("DELETE FROM kv WHERE other.id = 2").is_err());
    assert!(s.in_transaction(), "analysis error aborted the txn");
    s.rollback().unwrap();
    assert_eq!(count(&db, "SELECT COUNT(*) FROM kv"), 37);
}

#[test]
fn not_null_columns_reject_null_writes() {
    let _serial = failpoints::serial();
    // both `code` columns are NOT NULL, so `code NOT IN (SELECT code
    // FROM allowed)` is unnested into a plain anti-join. A NULL smuggled
    // into `allowed.code` makes that rewrite return rows SQL says are
    // unknown.
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE allowed (code INT NOT NULL);
         CREATE TABLE items (id INT PRIMARY KEY, code INT NOT NULL);
         INSERT INTO allowed VALUES (1), (2);
         INSERT INTO items VALUES (10, 1), (11, 3);
         ANALYZE;",
    )
    .unwrap();
    let s = db.session();
    let insert = s.execute("INSERT INTO allowed VALUES (4), (NULL)");
    let update = s.execute("UPDATE allowed SET code = NULL WHERE code = 2");

    // whatever `allowed` holds now, NOT IN must follow three-valued logic
    let codes = db.query("SELECT code FROM allowed").unwrap().rows;
    let has_null = codes.iter().any(|r| r[0].is_null());
    let want: Vec<Vec<Value>> = if has_null {
        Vec::new()
    } else {
        vec![vec![Value::Int(11)]]
    };
    let got = db
        .query("SELECT id FROM items WHERE code NOT IN (SELECT code FROM allowed)")
        .unwrap();
    assert_eq!(got.rows, want, "allowed = {codes:?}");

    for (what, result) in [("INSERT", insert), ("UPDATE", update)] {
        let err = result.expect_err(what);
        assert!(matches!(err, Error::Execution(_)), "{what}: {err}");
        assert!(err.to_string().contains("allowed.code"), "{what}: {err}");
    }
    // statement-atomic: the (4) beside the NULL was not written either
    assert_eq!(codes.len(), 2);
    // a primary key is NOT NULL too, and a violation aborts the open
    // transaction like any other failed write
    s.begin().unwrap();
    s.execute("INSERT INTO items VALUES (12, 2)").unwrap();
    let err = s
        .execute("UPDATE items SET id = NULL WHERE id = 10")
        .unwrap_err();
    assert!(err.to_string().contains("items.id"), "{err}");
    assert!(!s.in_transaction());
    assert_eq!(count(&db, "SELECT COUNT(*) FROM items"), 2);
}

// -- UPDATE / DELETE served from statement-shape recipes ----------------

/// The plan cache's `(recipes, recipe_hits)`.
fn recipes(db: &Database) -> (usize, u64) {
    let s = db.plan_cache_stats();
    (s.recipes, s.recipe_hits)
}

#[test]
fn writes_of_one_shape_are_served_from_one_recipe() {
    let _serial = failpoints::serial();
    let updates: Vec<String> = (1..=1_000i64)
        .map(|i| {
            format!(
                "UPDATE kv SET k = {} WHERE id = {}",
                10_000 + i,
                i * 7 % 2_000
            )
        })
        .collect();
    let deletes: Vec<String> = (1..=200i64)
        .map(|i| format!("DELETE FROM kv WHERE id = {}", i * 13 % 2_000))
        .collect();
    let run = |db: &Database, checked: bool| {
        let s = db.session();
        for sql in &updates {
            assert_eq!(affected(&s, sql), 1, "{sql}");
        }
        if checked {
            let (n, hits) = recipes(db);
            assert_eq!(n, 1, "one UPDATE shape, one recipe");
            assert!(hits >= 999, "{hits} UPDATEs served from the recipe");
        }
        for sql in &deletes {
            assert_eq!(affected(&s, sql), 1, "{sql}");
        }
        if checked {
            let (n, hits) = recipes(db);
            assert_eq!(n, 2, "one DELETE shape, one more recipe");
            assert!(hits >= 999 + 199, "{hits} writes served from recipes");
        }
        db.query("SELECT id, k, tag FROM kv ORDER BY id")
            .unwrap()
            .rows
    };
    let db = kv(2_000);
    let mut twin = kv(2_000);
    twin.set_plan_cache_enabled(false);
    let rows = run(&db, true);
    assert_eq!(rows.len(), 1_800);
    assert_eq!(rows, run(&twin, false));
    assert_eq!(recipes(&twin), (0, 0));
}

#[test]
fn a_write_recipe_is_refused_where_its_statement_is() {
    let _serial = failpoints::serial();
    let sql = "UPDATE kv SET k = 7 WHERE id = 3";
    let refusals = |db: &Database| {
        let read = |r: cbqt::common::Result<()>| r.unwrap_err().to_string();
        [
            read(db.query(sql).map(drop)),
            read(db.execute(sql).map(drop)),
            read(db.trace(sql).map(drop)),
            read(db.explain(sql).map(drop)),
        ]
    };
    let want = refusals(&kv(10));
    assert!(want[0].contains("requires a query, got UPDATE"), "{want:?}");

    let db = kv(10);
    let s = db.session();
    assert_eq!(affected(&s, "UPDATE kv SET k = 8 WHERE id = 4"), 1);
    assert_eq!(recipes(&db), (1, 0));
    // the shape has a recipe, yet no read entry point runs it
    assert_eq!(refusals(&db), want);
    assert_eq!(recipes(&db), (1, 0));
    assert_eq!(count(&db, "SELECT k FROM kv WHERE id = 3"), 3);
    // a session statement still does
    assert_eq!(affected(&s, sql), 1);
    assert_eq!(recipes(&db).1, 1);
    assert_eq!(count(&db, "SELECT k FROM kv WHERE id = 3"), 7);
}

/// Runs `sql` on `s` and checks that it was served from its shape's
/// recipe.
fn from_recipe(db: &Database, s: &Session<'_>, sql: &str) -> cbqt::common::Result<StatementResult> {
    let before = recipes(db).1;
    let r = s.execute_statement(sql);
    assert_eq!(recipes(db).1, before + 1, "{sql} missed its recipe");
    r
}

#[test]
fn a_recipe_write_in_a_transaction_reads_its_own_writes_and_loses_races() {
    let _serial = failpoints::serial();
    let db = kv(20);
    let (w1, w2) = (db.session(), db.session());
    let k_of = |s: &Session<'_>, id: i64| {
        let sql = format!("SELECT k FROM kv WHERE id = {id}");
        s.query(&sql).unwrap().rows[0][0].clone()
    };
    let bump = |s: &Session<'_>, id: i64| {
        from_recipe(&db, s, &format!("UPDATE kv SET k = k + 5 WHERE id = {id}"))
    };
    assert_eq!(affected(&w1, "UPDATE kv SET k = k + 5 WHERE id = 1"), 1);
    assert_eq!(recipes(&db), (1, 0));

    // the second write finds the first one's uncommitted version
    w1.begin().unwrap();
    for _ in 0..2 {
        assert!(matches!(bump(&w1, 3), Ok(StatementResult::RowsAffected(1))));
    }
    assert_eq!(k_of(&w1, 3), Value::Int(13));
    assert_eq!(k_of(&w2, 3), Value::Int(3));
    w1.rollback().unwrap();
    assert_eq!(k_of(&w1, 3), Value::Int(3));

    // first updater wins, on the recipe route too
    w1.begin().unwrap();
    w2.begin().unwrap();
    assert!(matches!(bump(&w1, 4), Ok(StatementResult::RowsAffected(1))));
    let err = bump(&w2, 4).unwrap_err();
    assert!(matches!(err, Error::WriteConflict(_)), "{err}");
    assert!(
        err.to_string().contains("lost a first-updater race"),
        "{err}"
    );
    assert!(!w2.in_transaction());
    w1.commit().unwrap();
    assert_eq!(k_of(&w2, 4), Value::Int(9));
}

#[test]
fn a_recipe_write_of_a_fixed_null_still_meets_not_null() {
    let _serial = failpoints::serial();
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE items (id INT PRIMARY KEY, code INT NOT NULL);
         INSERT INTO items VALUES (10, 1), (11, 3);",
    )
    .unwrap();
    let s = db.session();
    // no row matches, so nothing is written and the shape records
    assert_eq!(
        affected(&s, "UPDATE items SET code = NULL WHERE id = 99"),
        0
    );
    assert_eq!(recipes(&db), (1, 0));
    s.begin().unwrap();
    let err = from_recipe(&db, &s, "UPDATE items SET code = NULL WHERE id = 11").unwrap_err();
    assert!(matches!(err, Error::Execution(_)), "{err}");
    assert!(err.to_string().contains("items.code"), "{err}");
    assert!(!s.in_transaction());
    assert_eq!(
        db.query("SELECT code FROM items WHERE id = 11")
            .unwrap()
            .rows,
        vec![vec![Value::Int(3)]]
    );
}

#[test]
fn a_write_with_two_equal_literals_records_a_recipe() {
    let _serial = failpoints::serial();
    let db = kv(20);
    let s = db.session();
    // the parser names each literal, so equal values are two slots
    assert_eq!(affected(&s, "UPDATE kv SET k = 5 WHERE id = 5"), 1);
    assert_eq!(recipes(&db), (1, 0));
    assert_eq!(affected(&s, "UPDATE kv SET k = 9 WHERE id = 6"), 1);
    assert_eq!(recipes(&db), (1, 1));
    assert_eq!(affected(&s, "UPDATE kv SET k = 7 WHERE id = 7"), 1);
    assert_eq!(recipes(&db), (1, 2));
    assert_eq!(
        count(&db, "SELECT SUM(k) FROM kv WHERE id IN (5, 6, 7)"),
        21
    );
}
