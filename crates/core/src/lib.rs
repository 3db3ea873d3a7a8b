//! # cbqt — Cost-Based Query Transformation
//!
//! A from-scratch Rust reproduction of *"Cost-Based Query Transformation
//! in Oracle"* (Ahmed et al., VLDB 2006): a SQL engine whose optimizer
//! combines heuristic and **cost-based query transformations** — subquery
//! unnesting, group-by/distinct view merging, join predicate pushdown,
//! group-by placement, join factorization, predicate pullup,
//! MINUS/INTERSECT conversion and OR expansion — driven by the paper's
//! state-space search framework (exhaustive / iterative / linear /
//! two-pass) with interleaving, juxtaposition, cost-annotation reuse and
//! cost cut-off.
//!
//! ## Quick start
//!
//! ```
//! use cbqt::Database;
//!
//! let mut db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE departments (dept_id INT PRIMARY KEY, name VARCHAR(30));
//!      CREATE TABLE employees (emp_id INT PRIMARY KEY, dept_id INT
//!          REFERENCES departments(dept_id), salary INT);
//!      CREATE INDEX i_emp_dept ON employees (dept_id);
//!      INSERT INTO departments VALUES (1, 'R&D'), (2, 'Sales');
//!      INSERT INTO employees VALUES (10, 1, 100), (11, 1, 200), (12, 2, 300);
//!      ANALYZE;",
//! ).unwrap();
//! let result = db.query(
//!     "SELECT d.name FROM departments d WHERE EXISTS \
//!      (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 150)",
//! ).unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```

use cbqt_catalog::{Catalog, FeedbackStore};
use cbqt_common::{CancelToken, ExecutionLimits, Result, Row, TraceEvent, Value};
use cbqt_sql::ast::Statement;
use cbqt_sql::{parameterize, parse_statement, parse_statements_spanned, render_query};
use cbqt_storage::Storage;
use cbqt_transform::CbqtConfig;
use serve::{catch_internal, refused, Accept, Request, Scope};
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;
use std::time::Duration;

/// The entry points [`Database`] and [`Session`] share, defined once:
/// on either handle each fills a [`Request`] and serves it in the
/// handle's own scope — the database-wide cancel token and the
/// database's transaction slot, or the session's.
macro_rules! shared_entry_points {
    () => {
        /// Executes a query and returns its rows. An `EXPLAIN [ANALYZE]`
        /// statement is accepted too and returns the plan text as rows.
        pub fn query(&self, sql: &str) -> Result<QueryResult> {
            self.scope().rows(Request::new("query", sql, Accept::Read))
        }

        /// Executes a query with explicit values for its `?` bind
        /// parameters (positional, left to right). The plan is cached once
        /// per query *family* and selectivity bucket, so repeated calls
        /// with different values skip the optimizer entirely. A statement
        /// without `?` placeholders accepts only an empty `binds` slice
        /// (its literals are extracted into binds automatically).
        pub fn query_bound(&self, sql: &str, binds: &[Value]) -> Result<QueryResult> {
            self.scope()
                .rows(Request::new("query_bound", sql, Accept::Query).binds(binds))
        }

        /// Prepares a query for repeated execution with varying bind
        /// values. The statement is parsed and normalized once; if it has
        /// no explicit `?` placeholders, its predicate literals are
        /// extracted into bind parameters (exposed via
        /// [`param_defaults`](Prepared::param_defaults)) so every
        /// [`Prepared::query`] call — whatever the values — shares one plan
        /// family in the cache. Only queries can be prepared; DDL and DML
        /// go through [`execute_mut`](Database::execute_mut).
        pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>> {
            self.scope().prepare(sql)
        }

        /// Executes a query under explicit [resource limits](crate::StatementLimits):
        /// a wall-clock deadline, an optimizer-state budget, and executor
        /// row/work budgets, all enforced by a per-statement governor.
        ///
        /// Exhausting the *optimizer* budget degrades the search gracefully —
        /// the statement still runs, on the best plan found so far (or the
        /// heuristic plan if nothing was costed), with
        /// [`QueryStats::degraded`](crate::QueryStats::degraded) set. The deadline, the executor budgets
        /// and cancellation hard-fail with `Error::ResourceExhausted` /
        /// `Error::Cancelled`.
        pub fn query_with_limits(&self, sql: &str, limits: ExecutionLimits) -> Result<QueryResult> {
            self.scope()
                .rows(Request::new("query_with_limits", sql, Accept::Query).limits(limits))
        }

        /// EXPLAIN: the transformed query text, transformation decisions,
        /// and the physical plan — without executing.
        pub fn explain(&self, sql: &str) -> Result<String> {
            let accept = Accept::Explain { analyze: false };
            self.scope().plan_text(Request::new("explain", sql, accept))
        }

        /// EXPLAIN ANALYZE: like [`explain`](Self::explain), but also
        /// executes the query and interleaves the actual per-operator row
        /// counts, execution counts, work units and wall time with the
        /// optimizer's estimates.
        pub fn explain_analyze(&self, sql: &str) -> Result<String> {
            let accept = Accept::Explain { analyze: true };
            self.scope()
                .plan_text(Request::new("explain_analyze", sql, accept))
        }

        /// Optimizes *and executes* `sql` with the structured optimizer
        /// trace enabled, returning every event the transformation framework
        /// and physical optimizer emitted plus the run's [`QueryStats`](crate::QueryStats).
        pub fn trace(&self, sql: &str) -> Result<TraceReport> {
            self.scope().report(Request::new("trace", sql, Accept::Run))
        }

        /// Like [`trace`](Self::trace), but governed by explicit
        /// [resource limits](crate::StatementLimits) — a degraded search leaves a
        /// `SearchDegraded` event in the trace.
        pub fn trace_with_limits(&self, sql: &str, limits: ExecutionLimits) -> Result<TraceReport> {
            self.scope()
                .report(Request::new("trace_with_limits", sql, Accept::Run).limits(limits))
        }
    };
}

mod ddl;
mod differential;
mod dml;
mod explain;
pub mod plan_cache;
mod serve;
mod session;
mod txn;

pub use cbqt_catalog as catalog;
pub use cbqt_common as common;
pub use cbqt_exec as exec;
pub use cbqt_optimizer as optimizer;
pub use cbqt_qgm as qgm;
pub use cbqt_sql as sql;
pub use cbqt_storage as storage;
pub use cbqt_transform as transform;

pub use cbqt_common::DataType;
pub use cbqt_common::{CancelToken as StatementCancelToken, ExecutionLimits as StatementLimits};
pub use cbqt_common::{TraceEvent as OptimizerEvent, TraceSink};
pub use cbqt_storage::TxnStats;
pub use cbqt_transform::{CbqtConfig as OptimizerSettings, SearchStrategy, TransformSet};
pub use differential::{DifferentialReport, JoinsRan};
pub use plan_cache::{BucketSig as PlanBucketSig, PlanCache, PlanCacheStats};
pub use session::{Prepared, Session};

/// Result of one query execution, including the measurements the
/// paper's experiments report.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub stats: QueryStats,
}

/// Optimization + execution measurements.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Wall-clock time spent in transformation + physical optimization.
    pub optimize_time: Duration,
    /// Wall-clock execution time.
    pub execute_time: Duration,
    /// Deterministic execution work units (cost-model currency).
    pub work_units: f64,
    /// Estimated cost of the chosen plan.
    pub estimated_cost: f64,
    /// Transformation states costed by the CBQT framework.
    pub states_explored: u64,
    /// §3.4.1 cost cut-offs taken while costing states.
    pub cutoffs: u64,
    /// Query blocks optimized / reused via cost annotations.
    pub blocks_costed: u64,
    pub annotation_hits: u64,
    /// TIS / lateral correlation cache behaviour.
    pub subquery_cache_hits: u64,
    pub subquery_cache_misses: u64,
    /// True when the plan was served from the shared plan cache (no
    /// optimizer work: `states_explored`/`blocks_costed` are 0).
    pub plan_cache_hit: bool,
    /// Number of bind parameters this execution resolved — explicit `?`
    /// placeholders plus literals extracted at normalization time.
    pub bind_params: usize,
    /// True when a plan family existed for this query but none of its
    /// cached variants matched the incoming binds' selectivity bucket
    /// (adaptive cursor sharing compiled and cached a sibling plan).
    pub bind_mismatch: bool,
    /// True when the optimizer-state budget of
    /// [`ExecutionLimits`](StatementLimits) ran out mid-search: the plan
    /// executed is valid but reflects the best state costed before the
    /// budget tripped, not the full CBQT search. Degraded plans are not
    /// published to the plan cache.
    pub degraded: bool,
    /// True when this execution recompiled a cached plan that runtime
    /// cardinality feedback had marked suspect (estimate vs. actual
    /// divergence of 10× or more). The
    /// recompile saw the observed cardinalities.
    pub reoptimized: bool,
}

/// Result of one statement of a script (see [`Database::execute_script`]).
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// A query (or EXPLAIN) produced rows.
    Rows(QueryResult),
    /// DML completed; the number of rows affected.
    RowsAffected(u64),
    /// DDL (CREATE TABLE / CREATE INDEX) completed.
    Ddl,
    /// ANALYZE recomputed optimizer statistics.
    Analyzed,
    /// BEGIN / COMMIT / ROLLBACK transaction control completed.
    Txn,
}

impl StatementResult {
    /// The produced rows, if this statement was a query.
    pub fn into_rows(self) -> Option<QueryResult> {
        match self {
            StatementResult::Rows(r) => Some(r),
            _ => None,
        }
    }

    pub fn rows(&self) -> Option<&QueryResult> {
        match self {
            StatementResult::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// Structured optimizer trace of one query (see [`Database::trace`]):
/// the raw event list plus the same [`QueryStats`] a normal run reports,
/// with helpers that derive the paper's counters from the events.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Events in emission order (see `cbqt_common::trace`).
    pub events: Vec<TraceEvent>,
    /// Stats of the traced run — event-derived counters match these.
    pub stats: QueryStats,
}

impl TraceReport {
    /// States costed, counted from the events (one `StateCosted` per
    /// optimizer invocation — equals `stats.states_explored`).
    pub fn states_explored(&self) -> u64 {
        self.count(|e| matches!(e, TraceEvent::StateCosted { .. }))
    }

    /// §3.4.1 cut-offs taken, counted from the events.
    pub fn cutoffs(&self) -> u64 {
        self.count(|e| matches!(e, TraceEvent::CutoffTaken { .. }))
    }

    /// §3.4.2 annotation hits, counted from the events.
    pub fn annotation_hits(&self) -> u64 {
        self.count(|e| matches!(e, TraceEvent::AnnotationHit { .. }))
    }

    /// Blocks optimized from scratch, counted from the events.
    pub fn blocks_costed(&self) -> u64 {
        self.count(|e| matches!(e, TraceEvent::BlockCosted { .. }))
    }

    /// States whose §3.3.1 interleaved view-merge sub-choice merged at
    /// least one created view.
    pub fn interleaved_states(&self) -> u64 {
        self.count(
            |e| matches!(e, TraceEvent::StateCosted { merges, .. } if merges.iter().any(|&m| m)),
        )
    }

    /// The query text before and after transformation, if recorded.
    pub fn rewrite(&self) -> Option<(&str, &str)> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::QueryRewritten { before, after } => Some((before.as_str(), after.as_str())),
            _ => None,
        })
    }

    /// Human-readable rendering, one line per event — the 10053-style
    /// text trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(e)).count() as u64
    }
}

/// An embedded CBQT database: catalog + storage + optimizer + engine.
///
/// Read-only entry points ([`query`](Database::query),
/// [`execute`](Database::execute), [`explain`](Database::explain),
/// [`explain_analyze`](Database::explain_analyze),
/// [`trace`](Database::trace)) take `&self`; only DDL / DML / ANALYZE
/// ([`execute_mut`](Database::execute_mut),
/// [`execute_script`](Database::execute_script), …) need `&mut self`, so
/// a populated database can be shared behind `Arc` by read-only
/// sessions (`Database: Send + Sync`, asserted at compile time).
///
/// Queries through [`query`](Database::query) /
/// [`execute`](Database::execute) / [`trace`](Database::trace) are
/// served through a shared [`PlanCache`]: literals are extracted into
/// bind parameters at normalization time, so one plan *family* (keyed
/// by the canonical render of the parameterized query) serves a whole
/// family of literal variations, with one plan variant per bind
/// selectivity bucket (adaptive cursor sharing) and per-table version
/// invalidation — see [`plan_cache`] for keying and invalidation
/// rules, and [`prepare`](Database::prepare) /
/// [`query_bound`](Database::query_bound) for explicit `?` binds.
pub struct Database {
    catalog: Catalog,
    storage: Storage,
    config: CbqtConfig,
    plan_cache: PlanCache,
    plan_cache_enabled: bool,
    feedback: FeedbackStore,
    cancel: CancelToken,
    /// The open explicit transaction of the `&mut self` statement entry
    /// points (`execute_script` / `execute_mut`), if any. Each
    /// [`Session`] carries its own slot; the storage layer itself
    /// supports any number of concurrent transactions.
    txn: Mutex<Option<u64>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Database {
        Database {
            catalog: Catalog::new(),
            storage: Storage::new(),
            config: CbqtConfig::default(),
            plan_cache: PlanCache::default(),
            plan_cache_enabled: true,
            feedback: FeedbackStore::default(),
            cancel: CancelToken::new(),
            txn: Mutex::new(None),
        }
    }

    /// The database-wide cancellation token — the root of the token
    /// tree. Clone it into another thread and call
    /// [`cancel`](StatementCancelToken::cancel) to stop every in-flight
    /// statement *of every session* at its next governor check point
    /// (statements fail with `Error::Cancelled`). The flag is sticky —
    /// call [`reset`](StatementCancelToken::reset) before issuing new
    /// statements. To cancel one caller without fencing the others,
    /// give each caller its own [`session`](Database::session).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Opens a read-only session: a lightweight handle with its own
    /// [cancel token](Session::cancel_token), derived as a child of the
    /// database-wide token. Cancelling a session stops only that
    /// session's in-flight and future statements; other sessions (and
    /// the plain [`Database`] entry points) are unaffected. The
    /// database-wide token still fences every session.
    pub fn session(&self) -> Session<'_> {
        Session {
            db: self,
            cancel: self.cancel.child(),
            txn: Mutex::new(None),
        }
    }

    /// The optimizer / framework configuration (mutable — experiments
    /// flip transformations on and off through this). Any configuration
    /// change can change what plan a query compiles to, so the plan
    /// cache is cleared.
    pub fn config_mut(&mut self) -> &mut CbqtConfig {
        self.plan_cache.clear();
        &mut self.config
    }

    /// Hit/miss/invalidation counters of the shared plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// The catalog-level cardinality-feedback store: observed base-scan
    /// cardinalities harvested after execution, keyed by (table,
    /// normalized predicate, bind selectivity bands) and consulted by
    /// the optimizer on recompile.
    pub fn feedback_store(&self) -> &FeedbackStore {
        &self.feedback
    }

    /// Drops every cached plan (keeps the counters).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Enables or disables the plan cache for this database. Disabling
    /// also clears it. Measurement harnesses that time the *optimizer*
    /// (the paper's experiments) turn the cache off so repeated runs of
    /// one query keep exercising the CBQT search.
    pub fn set_plan_cache_enabled(&mut self, enabled: bool) {
        self.plan_cache_enabled = enabled;
        if !enabled {
            self.plan_cache.clear();
        }
    }

    /// Inert: a plan-cache key is always the family's canonical render
    /// ([`plan_cache_key`]). Kept while the `benchmark/` package calls
    /// it; the next `benchmark` PR drops both the call and this method.
    #[doc(hidden)]
    pub fn set_bind_sharing_enabled(&mut self, _enabled: bool) {}

    pub fn config(&self) -> &CbqtConfig {
        &self.config
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Runs a semicolon-separated DDL/DML/query script and returns one
    /// [`StatementResult`] per statement, in order. Each query
    /// statement is served through the shared plan-family cache —
    /// re-running a script (or issuing one of its queries through
    /// [`query`](Database::query)) reuses the cached plans.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<StatementResult>> {
        parse_statements_spanned(script)?
            .into_iter()
            .map(|(stmt, span)| self.run_statement(stmt, &script[span]))
            .collect()
    }

    /// Convenience over [`execute_script`](Database::execute_script)
    /// preserving the historical behaviour: the rows of the *last*
    /// statement, if that statement was a query.
    pub fn query_script(&mut self, script: &str) -> Result<Option<QueryResult>> {
        let last = self.execute_script(script)?.pop();
        Ok(last.and_then(StatementResult::into_rows))
    }

    /// Executes a single *read-only* SQL statement (a query or an
    /// `EXPLAIN [ANALYZE]`). Statements that mutate the database — DDL,
    /// INSERT, ANALYZE — are rejected; run those through
    /// [`execute_mut`](Database::execute_mut).
    pub fn execute(&self, sql: &str) -> Result<Option<QueryResult>> {
        self.scope()
            .statement(Request::new("execute", sql, Accept::Read))
            .map(StatementResult::into_rows)
    }

    /// Executes any single SQL statement, including DDL / DML / ANALYZE.
    pub fn execute_mut(&mut self, sql: &str) -> Result<Option<QueryResult>> {
        let stmt = parse_statement(sql)?;
        Ok(self.run_statement(stmt, sql)?.into_rows())
    }

    /// DDL and ANALYZE run here, under their own panic boundary; every
    /// other statement is served like a session's, in the database's
    /// own scope.
    fn run_statement(&mut self, stmt: Statement, sql: &str) -> Result<StatementResult> {
        match stmt {
            Statement::Analyze | Statement::CreateTable(_) | Statement::CreateIndex(_) => {
                catch_internal(AssertUnwindSafe(|| self.run_ddl(stmt)))
            }
            other => self
                .scope()
                .statement(Request::new("execute_mut", sql, Accept::Shared).parsed(other)),
        }
    }

    /// The caller identity of the plain `Database` entry points: the
    /// database-wide cancel token and the database's own transaction
    /// slot.
    fn scope(&self) -> Scope<'_> {
        Scope {
            db: self,
            cancel: &self.cancel,
            slot: &self.txn,
        }
    }

    shared_entry_points!();

    /// Lifetime transaction counters (begun / committed / rolled back /
    /// write-write conflicts) of the underlying storage. Auto-committed
    /// statements count: every write statement outside an explicit
    /// transaction is its own transaction.
    pub fn txn_stats(&self) -> TxnStats {
        self.storage.txn_stats()
    }
}

/// Compile-time proof of the `Arc`-shareability claim: the database and
/// its plan cache are `Send + Sync`. All per-query mutable state (the
/// TIS correlation cache, runtime metrics) lives in the per-execution
/// [`Engine`](exec::Engine), never in the shared type.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Database>();
    _assert_send_sync::<PlanCache>();
};

/// The plan-cache family key `sql` is served under: the canonical
/// render of the query with its predicate literals extracted into bind
/// parameters. Two statements differing only in those literals (or in
/// case and whitespace) share a key — and therefore a plan family.
pub fn plan_cache_key(sql: &str) -> Result<String> {
    match parse_statement(sql)? {
        Statement::Query(q) => Ok(render_query(&parameterize(&q).query)),
        other => Err(refused("plan_cache_key", Accept::Query, &other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_db() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE departments (dept_id INT PRIMARY KEY, name VARCHAR(30) NOT NULL);
             CREATE TABLE employees (emp_id INT PRIMARY KEY,
                 dept_id INT REFERENCES departments(dept_id), salary INT);
             CREATE INDEX i_emp_dept ON employees (dept_id);",
        )
        .unwrap();
        let mut emp_rows = Vec::new();
        for i in 0..100i64 {
            emp_rows.push(vec![
                Value::Int(i),
                if i == 99 {
                    Value::Null
                } else {
                    Value::Int(i % 10)
                },
                Value::Int(1000 + i * 10),
            ]);
        }
        let mut dept_rows = Vec::new();
        for d in 0..10i64 {
            dept_rows.push(vec![Value::Int(d), Value::str(format!("dept{d}"))]);
        }
        db.load_rows("departments", dept_rows).unwrap();
        db.load_rows("employees", emp_rows).unwrap();
        db.analyze().unwrap();
        db
    }

    #[test]
    fn ddl_and_insert_roundtrip() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10));
             INSERT INTO t VALUES (1, 'x'), (2, NULL), (-3, 'y');
             ANALYZE;",
        )
        .unwrap();
        let r = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(r.columns, vec!["a", "b"]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::Int(-3));
        assert!(r.rows[2][1].is_null());
    }

    #[test]
    fn correlated_subquery_end_to_end() {
        let db = demo_db();
        let r = db
            .query(
                "SELECT e1.emp_id FROM employees e1 WHERE e1.salary > \
                 (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) \
                 ORDER BY e1.emp_id",
            )
            .unwrap();
        // each dept 0..9 has 10 members with salaries in arithmetic
        // progression: exactly the top half beat the average, minus the
        // null-dept employee 99
        assert!(!r.rows.is_empty());
        assert!(r.stats.estimated_cost > 0.0);
        assert!(r.stats.states_explored > 0);
    }

    #[test]
    fn cost_based_matches_heuristic_results() {
        let mut db = demo_db();
        let q = "SELECT d.name FROM departments d WHERE d.dept_id IN \
                 (SELECT e.dept_id FROM employees e WHERE e.salary > 1500) ORDER BY d.name";
        let cb = db.query(q).unwrap();
        db.config_mut().cost_based = false;
        let hr = db.query(q).unwrap();
        assert_eq!(cb.rows, hr.rows);
        assert_eq!(hr.stats.states_explored, 0);
    }

    #[test]
    fn repeated_query_hits_plan_cache() {
        let db = demo_db();
        let q = "SELECT e1.emp_id FROM employees e1 WHERE e1.salary > \
                 (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) \
                 ORDER BY e1.emp_id";
        let cold = db.query(q).unwrap();
        assert!(!cold.stats.plan_cache_hit);
        assert!(cold.stats.states_explored > 0);
        // whitespace / keyword-case variants share the normalized key
        let warm = db
            .query(
                "select e1.emp_id FROM  employees e1 WHERE e1.salary > \
                 (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) \
                 ORDER BY e1.emp_id;",
            )
            .unwrap();
        assert!(warm.stats.plan_cache_hit);
        assert_eq!(warm.stats.states_explored, 0);
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm.columns, cold.columns);
        assert_eq!(warm.stats.estimated_cost, cold.stats.estimated_cost);
        let s = db.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn ddl_and_analyze_invalidate_plan_cache() {
        let mut db = demo_db();
        let q = "SELECT e.emp_id FROM employees e WHERE e.salary = 1500";
        db.query(q).unwrap();
        assert!(db.query(q).unwrap().stats.plan_cache_hit);
        db.execute_mut("CREATE INDEX i_emp_sal ON employees (salary)")
            .unwrap();
        let r = db.query(q).unwrap();
        assert!(!r.stats.plan_cache_hit, "stale plan served after DDL");
        assert!(db.plan_cache_stats().invalidations >= 1);
        // statistics recomputation also invalidates
        assert!(db.query(q).unwrap().stats.plan_cache_hit);
        db.analyze().unwrap();
        assert!(!db.query(q).unwrap().stats.plan_cache_hit);
        // DML does not: a plan depends on the table's shape, not its
        // data...
        assert!(db.query(q).unwrap().stats.plan_cache_hit);
        db.execute_mut("INSERT INTO employees VALUES (200, 1, 1500)")
            .unwrap();
        let r = db.query(q).unwrap();
        assert!(r.stats.plan_cache_hit);
        assert_eq!(r.rows.len(), 2);
        // ...until the table's size drifts past the divergence ratio
        // (101 rows at compile, 1 101 now)
        let rows = (1000..2000i64)
            .map(|i| vec![Value::Int(i), Value::Int(1), Value::Int(7)])
            .collect();
        db.load_rows("employees", rows).unwrap();
        assert!(!db.query(q).unwrap().stats.plan_cache_hit);
    }

    #[test]
    fn config_change_clears_plan_cache() {
        let mut db = demo_db();
        let q = "SELECT COUNT(*) FROM employees";
        db.query(q).unwrap();
        assert!(db.query(q).unwrap().stats.plan_cache_hit);
        db.config_mut().cost_based = false;
        assert!(!db.query(q).unwrap().stats.plan_cache_hit);
        // disabling stops both lookups and inserts
        db.set_plan_cache_enabled(false);
        db.query(q).unwrap();
        let before = db.plan_cache_stats();
        db.query(q).unwrap();
        assert_eq!(db.plan_cache_stats(), before);
    }

    #[test]
    fn explain_shows_decisions_and_plan() {
        let db = demo_db();
        let text = db
            .explain(
                "SELECT e1.emp_id FROM employees e1 WHERE e1.salary > \
                 (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id)",
            )
            .unwrap();
        assert!(text.contains("transformed query"), "{text}");
        assert!(text.contains("physical plan"), "{text}");
    }

    #[test]
    fn explain_statement_via_sql() {
        let db = demo_db();
        let r = db
            .query("EXPLAIN SELECT emp_id FROM employees WHERE dept_id = 3")
            .unwrap();
        assert_eq!(r.columns, vec!["PLAN"]);
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let db = demo_db();
        let r = db.query("SELECT COUNT(*) FROM employees").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(100));
        assert!(r.stats.work_units > 0.0);
        assert!(r.stats.blocks_costed > 0);
    }

    #[test]
    fn errors_surface_cleanly() {
        let mut db = demo_db();
        assert!(db.query("SELECT nope FROM employees").is_err());
        assert!(db.execute_mut("CREATE TABLE employees (x INT)").is_err());
        assert!(db
            .execute_mut("INSERT INTO employees VALUES (1, 2)")
            .is_err());
        assert!(db.query("SELECT * FROM missing").is_err());
        // the read-only entry point refuses mutating statements, naming
        // what it was given
        let err = db
            .execute("CREATE TABLE nope (x INT)")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("execute requires a query, got CREATE TABLE"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut db = demo_db();
        assert!(db
            .execute_mut("CREATE INDEX i_emp_dept ON employees (salary)")
            .is_err());
    }

    #[test]
    fn insert_accepts_signed_and_null_constants() {
        let mut db = Database::new();
        let results = db
            .execute_script(
                "CREATE TABLE t (a INT PRIMARY KEY, b INT);
                 INSERT INTO t VALUES (1, -NULL), (+2, -5);",
            )
            .unwrap();
        assert!(matches!(results[0], StatementResult::Ddl));
        assert!(matches!(results[1], StatementResult::RowsAffected(2)));
        let r = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert!(r.rows[0][1].is_null());
        assert_eq!(r.rows[1][1], Value::Int(-5));
        // non-constant expressions are rejected with the offending text
        let err = db
            .execute_mut("INSERT INTO t VALUES (3, 1 + 2)")
            .unwrap_err()
            .to_string();
        assert!(err.contains("(1 + 2)"), "{err}");
    }

    #[test]
    fn query_script_returns_last_result() {
        let mut db = Database::new();
        let r = db
            .query_script(
                "CREATE TABLE t (a INT PRIMARY KEY);
                 INSERT INTO t VALUES (1), (2);
                 SELECT a FROM t ORDER BY a",
            )
            .unwrap()
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        // trailing non-query yields None, matching the historic contract
        assert!(db.query_script("ANALYZE;").unwrap().is_none());
    }

    #[test]
    fn shared_reference_queries() {
        let db = demo_db();
        let shared = &db;
        let a = shared.query("SELECT COUNT(*) FROM employees").unwrap();
        let b = shared
            .explain("SELECT COUNT(*) FROM employees")
            .map(|t| t.contains("physical plan"))
            .unwrap();
        assert_eq!(a.rows[0][0], Value::Int(100));
        assert!(b);
    }

    #[test]
    fn trace_reports_consistent_counts() {
        let db = demo_db();
        let report = db
            .trace(
                "SELECT d.name FROM departments d WHERE d.dept_id IN \
                 (SELECT e.dept_id FROM employees e WHERE e.salary > 1500)",
            )
            .unwrap();
        assert!(!report.events.is_empty());
        assert_eq!(report.states_explored(), report.stats.states_explored);
        assert_eq!(report.cutoffs(), report.stats.cutoffs);
        assert_eq!(report.blocks_costed(), report.stats.blocks_costed);
        assert_eq!(report.annotation_hits(), report.stats.annotation_hits);
        let (before, after) = report.rewrite().expect("rewrite event");
        assert!(before.contains("SELECT"), "{before}");
        assert!(after.contains("SELECT"), "{after}");
        assert!(
            report.render().contains("FINAL PLAN"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn explain_analyze_shows_actual_rows() {
        let db = demo_db();
        let text = db
            .explain_analyze("SELECT e.emp_id FROM employees e WHERE e.dept_id = 3")
            .unwrap();
        assert!(text.contains("physical plan (analyzed)"), "{text}");
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains("actual rows=10"), "{text}");
        assert!(text.contains("execution:"), "{text}");
    }
}
