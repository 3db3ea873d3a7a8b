//! The statement entry points are wrappers over one serving path, and
//! this file is the oracle that they are thin:
//!
//! * **parity** — every route a query can take (`Database` / `Session`
//!   × `query`, `execute`, `query_bound`, `query_with_limits`, `trace`,
//!   a prepared statement, a script) returns the same rows and the same
//!   non-time `QueryStats`, on a cold cache and on the second serve, and
//!   the traced routes emit the same events. The pinned counters were
//!   generated before the routes were folded into one path;
//! * **refusal** — an entry point that does not accept a statement kind
//!   refuses it before anything runs: `Error::Unsupported` in one
//!   wording, no row written, no transaction opened, and the same table
//!   of expectations holds for both handles.

use cbqt::common::{Error, Row, Value};
use cbqt::{Database, OptimizerEvent, QueryStats, Session, StatementLimits, StatementResult};

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE departments (dept_id INT PRIMARY KEY, name VARCHAR(30) NOT NULL);
         CREATE TABLE employees (emp_id INT PRIMARY KEY,
             dept_id INT REFERENCES departments(dept_id), salary INT);
         CREATE INDEX i_emp_dept ON employees (dept_id);",
    )
    .unwrap();
    let depts = (0..10i64)
        .map(|d| vec![Value::Int(d), Value::str(format!("dept{d}"))])
        .collect();
    let emps = (0..200i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 10), Value::Int(1000 + i * 10)])
        .collect();
    db.load_rows("departments", depts).unwrap();
    db.load_rows("employees", emps).unwrap();
    db.analyze().unwrap();
    db
}

/// Everything of `QueryStats` that does not depend on the clock.
fn counters(s: &QueryStats) -> String {
    format!(
        "hit={} binds={} states={} cutoffs={} blocks={} ann={} cost={:#x} work={:#x} \
         subq={}/{} mismatch={} degraded={} reopt={}",
        s.plan_cache_hit,
        s.bind_params,
        s.states_explored,
        s.cutoffs,
        s.blocks_costed,
        s.annotation_hits,
        s.estimated_cost.to_bits(),
        s.work_units.to_bits(),
        s.subquery_cache_hits,
        s.subquery_cache_misses,
        s.bind_mismatch,
        s.degraded,
        s.reoptimized,
    )
}

/// What a route hands back: the rows (the traced routes have none) and
/// the stats.
type Served = (Option<Vec<Row>>, QueryStats);

/// The rows and the [`counters`] every other route must reproduce.
type Pinned = (Vec<Row>, String);

/// One way of getting a query served. `run` is called twice on one
/// fresh database: the cold serve, then the warm one.
struct Route {
    name: &'static str,
    /// Whether the route can carry explicit `?` values.
    takes_binds: bool,
    run: fn(&mut Database, &str, &[Value]) -> Served,
}

fn rows(r: cbqt::QueryResult) -> Served {
    (Some(r.rows), r.stats)
}

fn statement_rows(r: StatementResult) -> Served {
    rows(r.into_rows().expect("a query produces rows"))
}

fn traced(r: cbqt::TraceReport) -> Served {
    (None, r.stats)
}

const NONE: StatementLimits = StatementLimits {
    deadline: None,
    optimizer_states: None,
    row_budget: None,
    work_budget: None,
};

#[rustfmt::skip]
const ROUTES: &[Route] = &[
    Route { name: "Database::query", takes_binds: false,
            run: |db, sql, _| rows(db.query(sql).unwrap()) },
    Route { name: "Database::execute", takes_binds: false,
            run: |db, sql, _| rows(db.execute(sql).unwrap().unwrap()) },
    Route { name: "Database::execute_mut", takes_binds: false,
            run: |db, sql, _| rows(db.execute_mut(sql).unwrap().unwrap()) },
    Route { name: "Database::execute_script", takes_binds: false,
            run: |db, sql, _| statement_rows(db.execute_script(sql).unwrap().remove(0)) },
    Route { name: "Database::query_bound", takes_binds: true,
            run: |db, sql, binds| rows(db.query_bound(sql, binds).unwrap()) },
    Route { name: "Database::prepare", takes_binds: true,
            run: |db, sql, binds| rows(db.prepare(sql).unwrap().query(binds).unwrap()) },
    Route { name: "Database::query_with_limits", takes_binds: false,
            run: |db, sql, _| rows(db.query_with_limits(sql, NONE).unwrap()) },
    Route { name: "Database::trace", takes_binds: false,
            run: |db, sql, _| traced(db.trace(sql).unwrap()) },
    Route { name: "Database::trace_with_limits", takes_binds: false,
            run: |db, sql, _| traced(db.trace_with_limits(sql, NONE).unwrap()) },
    Route { name: "Session::query", takes_binds: false,
            run: |db, sql, _| rows(db.session().query(sql).unwrap()) },
    Route { name: "Session::execute", takes_binds: false,
            run: |db, sql, _| rows(db.session().execute(sql).unwrap().unwrap()) },
    Route { name: "Session::execute_statement", takes_binds: false,
            run: |db, sql, _| statement_rows(db.session().execute_statement(sql).unwrap()) },
    Route { name: "Session::query_bound", takes_binds: true,
            run: |db, sql, binds| rows(db.session().query_bound(sql, binds).unwrap()) },
    Route { name: "Session::prepare", takes_binds: true,
            run: |db, sql, binds| rows(db.session().prepare(sql).unwrap().query(binds).unwrap()) },
    Route { name: "Session::query_with_limits", takes_binds: false,
            run: |db, sql, _| rows(db.session().query_with_limits(sql, NONE).unwrap()) },
    Route { name: "Session::trace", takes_binds: false,
            run: |db, sql, _| traced(db.session().trace(sql).unwrap()) },
    Route { name: "Session::trace_with_limits", takes_binds: false,
            run: |db, sql, _| traced(db.session().trace_with_limits(sql, NONE).unwrap()) },
    Route { name: "Session::trace_statement", takes_binds: false,
            run: |db, sql, _| traced(db.session().trace_statement(sql).unwrap()) },
];

/// A query, its bind values, and what every route must report for it:
/// row count, then `(states, blocks, estimated-cost bits, binds)` of the
/// cold serve. The warm serve is a cache hit at the same cost.
struct Case {
    sql: &'static str,
    binds: &'static [Value],
    rows: usize,
    cold: (u64, u64, u64, usize),
}

const CASES: &[Case] = &[
    // point lookup
    Case {
        sql: "SELECT emp_id, salary FROM employees WHERE emp_id = 42",
        binds: &[],
        rows: 1,
        cold: (0, 1, 0x4025_5463_d3bf_29f0, 1),
    },
    // join + aggregate
    Case {
        sql: "SELECT d.name, COUNT(*), SUM(e.salary) FROM departments d, employees e \
              WHERE e.dept_id = d.dept_id AND e.salary > 1500 GROUP BY d.name ORDER BY d.name",
        binds: &[],
        rows: 10,
        cold: (2, 3, 0x408e_5b82_2cbd_80c5, 1),
    },
    // correlated subquery
    Case {
        sql: "SELECT e1.emp_id FROM employees e1 WHERE e1.salary > \
              (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) \
              ORDER BY e1.emp_id",
        binds: &[],
        rows: 100,
        cold: (6, 8, 0x409e_a43d_76de_0842, 0),
    },
    // explicit binds
    Case {
        sql: "SELECT emp_id FROM employees WHERE dept_id = ? AND salary > ? ORDER BY emp_id",
        binds: &[Value::Int(3), Value::Int(1500)],
        rows: 15,
        cold: (0, 1, 0x4066_469d_6eca_7502, 2),
    },
];

#[test]
fn every_route_serves_a_query_identically_cold_and_warm() {
    for case in CASES {
        let mut reference: Option<(&str, [Pinned; 2])> = None;
        for route in ROUTES {
            if !case.binds.is_empty() && !route.takes_binds {
                continue;
            }
            let mut db = fixture();
            let serves = [(); 2].map(|()| (route.run)(&mut db, case.sql, case.binds));
            let cold = &serves[0].1;
            assert_eq!(
                (
                    cold.states_explored,
                    cold.blocks_costed,
                    cold.estimated_cost.to_bits(),
                    cold.bind_params
                ),
                case.cold,
                "{} cold: {}",
                route.name,
                case.sql
            );
            assert!(!cold.plan_cache_hit, "{} cold: {}", route.name, case.sql);
            let warm = &serves[1].1;
            assert!(warm.plan_cache_hit, "{} warm: {}", route.name, case.sql);
            assert_eq!(
                (warm.states_explored, warm.blocks_costed),
                (0, 0),
                "{} warm: {}",
                route.name,
                case.sql
            );
            assert_eq!(
                warm.estimated_cost.to_bits(),
                cold.estimated_cost.to_bits(),
                "{} warm: {}",
                route.name,
                case.sql
            );

            let (ref_name, want) = reference.get_or_insert_with(|| {
                let [c, w] = &serves;
                let rows = |s: &Served| s.0.clone().expect("the first route returns rows");
                assert_eq!(rows(c).len(), case.rows, "{}: {}", route.name, case.sql);
                (
                    route.name,
                    [(rows(c), counters(&c.1)), (rows(w), counters(&w.1))],
                )
            });
            for (i, ((got_rows, got_stats), (want_rows, want_stats))) in
                serves.iter().zip(want.iter()).enumerate()
            {
                let which = ["cold", "warm"][i];
                if let Some(got_rows) = got_rows {
                    assert_eq!(
                        got_rows, want_rows,
                        "{} vs {ref_name}, {which} rows: {}",
                        route.name, case.sql
                    );
                }
                assert_eq!(
                    &counters(got_stats),
                    want_stats,
                    "{} vs {ref_name}, {which} stats: {}",
                    route.name,
                    case.sql
                );
            }
        }
    }
}

#[test]
fn every_traced_route_emits_the_same_events() {
    type Trace = fn(&Database, &str) -> Vec<OptimizerEvent>;
    let routes: &[(&str, Trace)] = &[
        ("Database::trace", |db, sql| db.trace(sql).unwrap().events),
        ("Database::trace_with_limits", |db, sql| {
            db.trace_with_limits(sql, NONE).unwrap().events
        }),
        ("Session::trace", |db, sql| {
            db.session().trace(sql).unwrap().events
        }),
        ("Session::trace_with_limits", |db, sql| {
            db.session().trace_with_limits(sql, NONE).unwrap().events
        }),
        ("Session::trace_statement", |db, sql| {
            db.session().trace_statement(sql).unwrap().events
        }),
    ];
    for case in CASES.iter().filter(|c| c.binds.is_empty()) {
        let mut want: Option<[Vec<OptimizerEvent>; 2]> = None;
        for (name, trace) in routes {
            let db = fixture();
            let got = [(); 2].map(|()| trace(&db, case.sql));
            assert!(
                matches!(got[0][0], OptimizerEvent::PlanCacheMiss { .. }),
                "{name} cold: {:?}",
                got[0][0]
            );
            assert!(
                matches!(got[1][..], [OptimizerEvent::PlanCacheHit { .. }]),
                "{name} warm: {:?}",
                got[1]
            );
            let want = want.get_or_insert_with(|| got.clone());
            assert_eq!(&got, want, "{name}: {}", case.sql);
        }
    }
}

/// The statement kinds, by the name a refusal gives them.
const KINDS: &[(&str, &str)] = &[
    ("SELECT", "SELECT v FROM kv WHERE k = 1"),
    ("EXPLAIN", "EXPLAIN SELECT v FROM kv WHERE k = 1"),
    ("INSERT", "INSERT INTO kv VALUES (9, 90)"),
    ("UPDATE", "UPDATE kv SET v = 99 WHERE k = 1"),
    ("DELETE", "DELETE FROM kv WHERE k = 1"),
    ("BEGIN", "BEGIN"),
    ("COMMIT", "COMMIT"),
    ("ROLLBACK", "ROLLBACK"),
    ("CREATE TABLE", "CREATE TABLE t2 (a INT PRIMARY KEY)"),
    ("CREATE INDEX", "CREATE INDEX i_kv_v ON kv (v)"),
    ("ANALYZE", "ANALYZE"),
];

/// What an entry point accepts.
#[derive(Clone, Copy, PartialEq)]
enum Accepts {
    /// SELECT only.
    Query,
    /// SELECT or EXPLAIN.
    Read,
    /// Everything a shared borrow can run: reads, DML, transaction
    /// control — not DDL or ANALYZE.
    Shared,
}

impl Accepts {
    fn admits(self, kind: &str) -> bool {
        match self {
            Accepts::Query => kind == "SELECT",
            Accepts::Read => matches!(kind, "SELECT" | "EXPLAIN"),
            Accepts::Shared => !matches!(kind, "CREATE TABLE" | "CREATE INDEX" | "ANALYZE"),
        }
    }

    fn wants(self) -> &'static str {
        match self {
            Accepts::Query | Accepts::Read => "a query",
            Accepts::Shared => "a query, DML or transaction control",
        }
    }
}

/// Either handle; the refusal table is the same for both.
enum Handle<'a> {
    Db(&'a Database),
    Session(&'a Session<'a>),
}

/// Calls the same-named method on whichever handle this is.
macro_rules! call {
    ($h:expr, $method:ident($($arg:expr),*)) => {
        match $h {
            Handle::Db(h) => h.$method($($arg),*).map(drop),
            Handle::Session(h) => h.$method($($arg),*).map(drop),
        }
    };
}

type Entry = fn(&Handle<'_>, &str) -> Result<(), Error>;

/// Entry points both handles have, with what they accept.
#[rustfmt::skip]
const COMMON: &[(&str, Accepts, Entry)] = &[
    ("query", Accepts::Read, |h, sql| call!(h, query(sql))),
    ("query_bound", Accepts::Query, |h, sql| call!(h, query_bound(sql, &[]))),
    ("query_with_limits", Accepts::Query, |h, sql| call!(h, query_with_limits(sql, NONE))),
    ("prepare", Accepts::Query, |h, sql| call!(h, prepare(sql))),
    ("trace", Accepts::Read, |h, sql| call!(h, trace(sql))),
    ("trace_with_limits", Accepts::Read, |h, sql| call!(h, trace_with_limits(sql, NONE))),
    ("explain", Accepts::Read, |h, sql| call!(h, explain(sql))),
    ("explain_analyze", Accepts::Read, |h, sql| call!(h, explain_analyze(sql))),
];

/// `execute` differs by handle: a `Database` behind `&self` is
/// read-only, a session writes through MVCC.
#[rustfmt::skip]
const DB_ONLY: &[(&str, Accepts, Entry)] = &[
    ("execute", Accepts::Read, |h, sql| match h {
        Handle::Db(db) => db.execute(sql).map(drop),
        Handle::Session(_) => unreachable!(),
    }),
];

fn session_of<'a>(h: &'a Handle<'a>) -> &'a Session<'a> {
    match h {
        Handle::Session(s) => s,
        Handle::Db(_) => unreachable!(),
    }
}

#[rustfmt::skip]
const SESSION_ONLY: &[(&str, Accepts, Entry)] = &[
    ("execute", Accepts::Shared, |h, sql| session_of(h).execute(sql).map(drop)),
    ("execute_statement", Accepts::Shared, |h, sql| session_of(h).execute_statement(sql).map(drop)),
    ("execute_with_limits", Accepts::Shared,
     |h, sql| session_of(h).execute_with_limits(sql, NONE).map(drop)),
    ("trace_statement", Accepts::Shared, |h, sql| session_of(h).trace_statement(sql).map(drop)),
];

fn kv() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE kv (k INT PRIMARY KEY, v INT);
         INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30);
         ANALYZE;",
    )
    .unwrap();
    db
}

fn kv_rows(db: &Database) -> Vec<Row> {
    db.query("SELECT k, v FROM kv ORDER BY k").unwrap().rows
}

#[test]
fn a_refused_statement_writes_nothing_and_opens_no_transaction() {
    for on_session in [false, true] {
        let extra = if on_session { SESSION_ONLY } else { DB_ONLY };
        for (entry, accepts, call) in COMMON.iter().chain(extra) {
            for (kind, sql) in KINDS {
                let db = kv();
                let before = (kv_rows(&db), db.txn_stats());
                let session = db.session();
                let handle = if on_session {
                    Handle::Session(&session)
                } else {
                    Handle::Db(&db)
                };
                let what = format!(
                    "{}::{entry}({kind})",
                    if on_session { "Session" } else { "Database" }
                );
                let result = call(&handle, sql);
                if accepts.admits(kind) {
                    assert!(result.is_ok(), "{what}: {result:?}");
                    continue;
                }
                assert!(result.is_err(), "{what}: {result:?}");
                assert!(!session.in_transaction(), "{what}");
                assert_eq!((kv_rows(&db), db.txn_stats()), before, "{what}");
                match result {
                    Err(Error::Unsupported(msg)) => assert_eq!(
                        msg,
                        format!("{entry} requires {}, got {kind}", accepts.wants()),
                        "{what}"
                    ),
                    other => panic!("{what}: expected Unsupported, got {other:?}"),
                }
            }
        }
    }
}
