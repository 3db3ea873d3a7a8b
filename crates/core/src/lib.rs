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

use cbqt_catalog::{
    selectivity_band, Catalog, Column, Constraint, FeedbackKey, FeedbackStore, ForeignKey, Table,
    TableId,
};
use cbqt_common::{
    divergence_ratio, CancelToken, Error, ExecutionLimits, ExecutionMode, Governor, Result, Row,
    TraceBuffer, TraceEvent, Tracer, Value,
};
use cbqt_exec::Engine;
use cbqt_optimizer::{
    scan_feedback_key, BlockPlan, CardFeedback, DynamicSampler, PlanEntity, PlanIndex, PlanNode,
    PlanNodeId, SamplingCache,
};
use cbqt_qgm::{
    build_query_tree, build_query_tree_with_binds, collect_base_tables, collect_bind_sites,
    render_tree, BindSite, BindSiteOp, QueryTree,
};
use cbqt_sql::ast::{self, Statement};
use cbqt_sql::render_query;
use cbqt_sql::{count_params, parameterize, parse_statement, parse_statements_spanned};
use cbqt_storage::Storage;
use cbqt_transform::{optimize_query_feedback, CbqtConfig, CbqtOutcome};
use plan_cache::{BucketSig, CachedPlan, Lookup};
use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod plan_cache;

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
pub use plan_cache::{normalize_sql, BucketSig as PlanBucketSig, PlanCache, PlanCacheStats};

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
    /// divergence beyond `CbqtConfig::feedback.divergence_ratio`). The
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
    sampling_cache: SamplingCache,
    plan_cache: PlanCache,
    plan_cache_enabled: bool,
    bind_sharing_enabled: bool,
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
            sampling_cache: SamplingCache::default(),
            plan_cache: PlanCache::default(),
            plan_cache_enabled: true,
            bind_sharing_enabled: true,
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

    /// Enables or disables bind-parameter extraction and adaptive
    /// cursor sharing on the serving path. When disabled, plans are
    /// keyed by [`normalize_sql`] of the literal statement text — every
    /// distinct literal combination compiles and caches its own plan
    /// (the pre-bind-sharing behaviour, kept for benchmarking the two
    /// modes against each other), and statements with explicit `?`
    /// binds are executed without caching. Toggling clears the cache:
    /// the two modes key plans differently.
    pub fn set_bind_sharing_enabled(&mut self, enabled: bool) {
        self.bind_sharing_enabled = enabled;
        self.plan_cache.clear();
    }

    pub fn bind_sharing_enabled(&self) -> bool {
        self.bind_sharing_enabled
    }

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
    /// statement is keyed into the shared plan cache by its own SQL
    /// text, carved out of the script source — re-running a script (or
    /// issuing one of its queries through [`query`](Database::query))
    /// reuses the cached plans.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<StatementResult>> {
        parse_statements_spanned(script)?
            .into_iter()
            .map(|(stmt, span)| {
                let sql = &script[span];
                catch_internal(AssertUnwindSafe(|| self.run_statement(stmt, sql)))
            })
            .collect()
    }

    /// Convenience over [`execute_script`](Database::execute_script)
    /// preserving the historical behaviour: the rows of the *last*
    /// statement, if that statement was a query.
    pub fn query_script(&mut self, script: &str) -> Result<Option<QueryResult>> {
        let mut last = None;
        for r in self.execute_script(script)? {
            last = r.into_rows();
        }
        Ok(last)
    }

    /// Executes a single *read-only* SQL statement (a query or an
    /// `EXPLAIN [ANALYZE]`). Statements that mutate the database — DDL,
    /// INSERT, ANALYZE — are rejected; run those through
    /// [`execute_mut`](Database::execute_mut).
    pub fn execute(&self, sql: &str) -> Result<Option<QueryResult>> {
        self.execute_governed(sql, &self.statement_governor())
    }

    fn execute_governed(&self, sql: &str, governor: &Governor) -> Result<Option<QueryResult>> {
        catch_internal(|| {
            let stmt = parse_statement(sql)?;
            match stmt {
                Statement::Query(q) => Ok(Some(self.run_query_cached(
                    sql,
                    &q,
                    None,
                    Tracer::disabled(),
                    governor,
                    self.open_txn(),
                )?)),
                Statement::Explain { query, analyze } => Ok(Some(self.explain_result(
                    &query,
                    analyze,
                    governor,
                    self.open_txn(),
                )?)),
                other => Err(Error::unsupported(format!(
                    "{} mutates the database; use execute_mut",
                    statement_kind(&other)
                ))),
            }
        })
    }

    /// Executes any single SQL statement, including DDL / DML / ANALYZE.
    pub fn execute_mut(&mut self, sql: &str) -> Result<Option<QueryResult>> {
        let stmt = parse_statement(sql)?;
        catch_internal(AssertUnwindSafe(|| {
            Ok(self.run_statement(stmt, sql)?.into_rows())
        }))
    }

    /// Executes a query and returns its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?
            .ok_or_else(|| Error::analysis("statement did not produce rows"))
    }

    /// Executes a query with explicit values for its `?` bind
    /// parameters (positional, left to right). The plan is cached once
    /// per query *family* and selectivity bucket, so repeated calls
    /// with different values skip the optimizer entirely. A statement
    /// without `?` placeholders accepts only an empty `binds` slice
    /// (its literals are extracted into binds automatically).
    pub fn query_bound(&self, sql: &str, binds: &[Value]) -> Result<QueryResult> {
        self.query_bound_governed(sql, binds, &self.statement_governor(), self.open_txn())
    }

    fn query_bound_governed(
        &self,
        sql: &str,
        binds: &[Value],
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<QueryResult> {
        catch_internal(|| {
            let q = match parse_statement(sql)? {
                Statement::Query(q) => q,
                other => {
                    return Err(Error::unsupported(format!(
                        "query_bound requires a query, got {}",
                        statement_kind(&other)
                    )))
                }
            };
            self.run_query_cached(sql, &q, Some(binds), Tracer::disabled(), governor, txn)
        })
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
        self.prepare_with(sql, self.cancel.clone())
    }

    fn prepare_with(&self, sql: &str, cancel: CancelToken) -> Result<Prepared<'_>> {
        catch_internal(|| {
            let q = match parse_statement(sql)? {
                Statement::Query(q) => q,
                other => {
                    return Err(Error::unsupported(format!(
                        "prepare requires a query, got {}; run DDL/DML through execute_mut",
                        statement_kind(&other)
                    )))
                }
            };
            let (query, defaults) = if count_params(&q) > 0 {
                (*q, Vec::new())
            } else {
                let p = parameterize(&q);
                (p.query, p.binds)
            };
            let param_count = count_params(&query);
            Ok(Prepared {
                db: self,
                cancel,
                sql: sql.to_string(),
                query,
                defaults,
                param_count,
            })
        })
    }

    /// Executes a query under explicit [resource limits](StatementLimits):
    /// a wall-clock deadline, an optimizer-state budget, and executor
    /// row/work budgets, all enforced by a per-statement governor.
    ///
    /// Exhausting the *optimizer* budget degrades the search gracefully —
    /// the statement still runs, on the best plan found so far (or the
    /// heuristic plan if nothing was costed), with
    /// [`QueryStats::degraded`] set. The deadline, the executor budgets
    /// and cancellation hard-fail with `Error::ResourceExhausted` /
    /// `Error::Cancelled`.
    pub fn query_with_limits(&self, sql: &str, limits: ExecutionLimits) -> Result<QueryResult> {
        self.query_with_limits_governed(
            sql,
            Governor::new(&limits, self.cancel.clone()),
            self.open_txn(),
        )
    }

    fn query_with_limits_governed(
        &self,
        sql: &str,
        governor: Governor,
        txn: Option<u64>,
    ) -> Result<QueryResult> {
        catch_internal(|| {
            let q = match parse_statement(sql)? {
                Statement::Query(q) => q,
                other => {
                    return Err(Error::unsupported(format!(
                        "query_with_limits requires a query, got {}",
                        statement_kind(&other)
                    )))
                }
            };
            self.run_query_cached(sql, &q, None, Tracer::disabled(), &governor, txn)
        })
    }

    /// Differential oracle: optimizes `sql` once, then executes the
    /// *same* plan allocation through both engines — vectorized and
    /// Volcano — each under a fresh governor built from `limits`, and
    /// reports every observable divergence.
    ///
    /// Compared surfaces:
    /// * result rows, in order (both engines are order-deterministic
    ///   over the same plan, so this is an exact comparison);
    /// * per-operator [`ExecMetrics`](exec::ExecMetrics) — operator
    ///   set, row counts and execution counts exactly, work units to a
    ///   relative tolerance (both engines charge the same weights, but
    ///   accumulate in different association orders);
    /// * aggregate [`ExecStats`](exec::ExecStats) — work to the same
    ///   tolerance, subquery-cache hits/misses exactly;
    /// * failure class (`Error` variant) when either run fails — which
    ///   row of a batch trips a fault first is representation-dependent,
    ///   so messages are allowed to differ, the variant is not. Caught
    ///   panics (from armed failpoints) are folded into
    ///   `Error::Internal`, same as the `Database` boundary does.
    ///
    /// Returns `Ok(mismatches)` — empty means the engines agree. `Err`
    /// is reserved for failures *before* execution (parse, analysis,
    /// optimization), which neither engine reached.
    pub fn differential_exec(&self, sql: &str, limits: &ExecutionLimits) -> Result<Vec<String>> {
        catch_internal(AssertUnwindSafe(|| {
            self.differential_exec_inner(sql, limits)
        }))
    }

    fn differential_exec_inner(&self, sql: &str, limits: &ExecutionLimits) -> Result<Vec<String>> {
        let q = match parse_statement(sql)? {
            Statement::Query(q) => q,
            other => {
                return Err(Error::unsupported(format!(
                    "differential_exec requires a query, got {}",
                    statement_kind(&other)
                )))
            }
        };
        let outcome = self.plan_uncached(
            &q,
            Tracer::disabled(),
            &self.statement_governor(),
            StatementPath::Differential,
        )?;

        let mut runs = Vec::new();
        for mode in [ExecutionMode::Vectorized, ExecutionMode::Volcano] {
            let mut engine = Engine::new(&self.catalog, &self.storage);
            engine.set_mode(mode);
            engine.set_governor(Governor::new(limits, self.cancel.clone()));
            engine.enable_metrics();
            let result = catch_internal(AssertUnwindSafe(|| engine.run(&outcome.plan)));
            let stats = engine.stats();
            let metrics = engine.take_metrics().unwrap_or_default().snapshot();
            runs.push((result, stats, metrics));
        }
        let (vec_run, volcano_run) = (&runs[0], &runs[1]);

        let mut mismatches = Vec::new();
        match (&vec_run.0, &volcano_run.0) {
            (Ok(vrows), Ok(orows)) => {
                if vrows != orows {
                    mismatches.push(format!(
                        "result rows differ: vectorized {} row(s), volcano {} row(s){}",
                        vrows.len(),
                        orows.len(),
                        first_row_divergence(vrows, orows)
                    ));
                }
            }
            (Err(ve), Err(oe)) => {
                if std::mem::discriminant(ve) != std::mem::discriminant(oe) {
                    mismatches.push(format!(
                        "error class differs: vectorized {ve:?}, volcano {oe:?}"
                    ));
                }
            }
            (Ok(vrows), Err(oe)) => mismatches.push(format!(
                "vectorized succeeded ({} row(s)) but volcano failed: {oe:?}",
                vrows.len()
            )),
            (Err(ve), Ok(orows)) => mismatches.push(format!(
                "volcano succeeded ({} row(s)) but vectorized failed: {ve:?}",
                orows.len()
            )),
        }

        // Work, cache counters and per-operator metrics are only
        // comparable when both runs finished: a fault or budget trip
        // stops the two engines at representation-dependent points
        // mid-plan (cumulative totals are identical, intermediate
        // prefixes are not).
        if vec_run.0.is_ok() && volcano_run.0.is_ok() {
            if !approx_work(vec_run.1.work, volcano_run.1.work) {
                mismatches.push(format!(
                    "total work differs: vectorized {:.3}, volcano {:.3}",
                    vec_run.1.work, volcano_run.1.work
                ));
            }
            if (vec_run.1.cache_hits, vec_run.1.cache_misses)
                != (volcano_run.1.cache_hits, volcano_run.1.cache_misses)
            {
                mismatches.push(format!(
                    "subquery cache counters differ: vectorized {}h/{}m, volcano {}h/{}m",
                    vec_run.1.cache_hits,
                    vec_run.1.cache_misses,
                    volcano_run.1.cache_hits,
                    volcano_run.1.cache_misses
                ));
            }
            compare_metrics(&vec_run.2, &volcano_run.2, &mut mismatches);
        }
        Ok(mismatches)
    }

    /// EXPLAIN: the transformed query text, transformation decisions,
    /// and the physical plan — without executing.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_sql(sql, false, &self.statement_governor(), self.open_txn())
    }

    /// EXPLAIN ANALYZE: like [`explain`](Database::explain), but also
    /// executes the query and interleaves the actual per-operator row
    /// counts, execution counts, work units and wall time with the
    /// optimizer's estimates.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        self.explain_sql(sql, true, &self.statement_governor(), self.open_txn())
    }

    /// Optimizes *and executes* `sql` with the structured optimizer
    /// trace enabled, returning every event the transformation framework
    /// and physical optimizer emitted plus the run's [`QueryStats`].
    pub fn trace(&self, sql: &str) -> Result<TraceReport> {
        self.trace_governed(sql, &self.statement_governor(), self.open_txn())
    }

    /// Like [`trace`](Database::trace), but governed by explicit
    /// [resource limits](StatementLimits) — a degraded search leaves a
    /// `SearchDegraded` event in the trace.
    pub fn trace_with_limits(&self, sql: &str, limits: ExecutionLimits) -> Result<TraceReport> {
        self.trace_governed(
            sql,
            &Governor::new(&limits, self.cancel.clone()),
            self.open_txn(),
        )
    }

    fn trace_governed(
        &self,
        sql: &str,
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<TraceReport> {
        catch_internal(|| {
            let stmt = parse_statement(sql)?;
            let query = match stmt {
                Statement::Query(q) | Statement::Explain { query: q, .. } => q,
                _ => return Err(Error::analysis("trace requires a query")),
            };
            let buffer = TraceBuffer::new();
            let result =
                self.run_query_cached(sql, &query, None, Tracer::new(&buffer), governor, txn)?;
            Ok(TraceReport {
                events: buffer.take(),
                stats: result.stats,
            })
        })
    }

    /// The governor every implicit-limits entry point runs under: no
    /// budgets, but the database's [cancel token](Database::cancel_token)
    /// is still observed, so any in-flight statement can be stopped.
    fn statement_governor(&self) -> Governor {
        Governor::new(&ExecutionLimits::none(), self.cancel.clone())
    }

    fn explain_sql(
        &self,
        sql: &str,
        analyze: bool,
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<String> {
        catch_internal(|| {
            let stmt = parse_statement(sql)?;
            let (query, analyze) = match stmt {
                Statement::Query(q) => (q, analyze),
                Statement::Explain { query, analyze: a } => (query, analyze || a),
                _ => return Err(Error::analysis("EXPLAIN requires a query")),
            };
            self.explain_query(&query, analyze, governor, txn)
        })
    }

    /// The single EXPLAIN formatter behind [`explain`](Database::explain),
    /// [`explain_analyze`](Database::explain_analyze) and the SQL
    /// `EXPLAIN [ANALYZE]` statement.
    fn explain_query(
        &self,
        query: &ast::Query,
        analyze: bool,
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<String> {
        let outcome =
            self.plan_uncached(query, Tracer::disabled(), governor, StatementPath::Explain)?;
        let mut out = String::new();
        out.push_str("== transformed query ==\n");
        out.push_str(&render_tree(&outcome.tree, &self.catalog));
        out.push_str("\n\n== transformation decisions ==\n");
        if outcome.decisions.is_empty() {
            out.push_str("(none applicable)\n");
        }
        for (name, d) in &outcome.decisions {
            out.push_str(&format!("{name}: {d}\n"));
        }
        out.push_str(&format!("heuristics: {}\n", outcome.heuristics.summary()));
        if analyze {
            let mut engine = self.engine_for(txn)?;
            engine.set_mode(self.config.execution_mode);
            engine.enable_metrics();
            let t0 = Instant::now();
            let rows = engine.run(&outcome.plan)?;
            let execute_time = t0.elapsed();
            let metrics = engine.take_metrics().unwrap_or_default();
            let index = PlanIndex::build(&outcome.plan);
            out.push_str("\n== physical plan (analyzed) ==\n");
            out.push_str(
                &outcome
                    .plan
                    .explain_annotated(&mut |e| metrics.annotate(&index, e)),
            );
            out.push_str(&format!(
                "\nexecution: {} row(s), {:.0} work unit(s), {:.3} ms, engine={}\n",
                rows.len(),
                engine.stats().work,
                execute_time.as_secs_f64() * 1e3,
                engine.mode(),
            ));
        } else {
            out.push_str("\n== physical plan ==\n");
            out.push_str(&outcome.plan.explain());
        }
        Ok(out)
    }

    fn explain_result(
        &self,
        query: &ast::Query,
        analyze: bool,
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<QueryResult> {
        let text = self.explain_query(query, analyze, governor, txn)?;
        Ok(QueryResult {
            columns: vec!["PLAN".to_string()],
            rows: text.lines().map(|l| vec![Value::str(l)]).collect(),
            stats: QueryStats::default(),
        })
    }

    /// Recomputes optimizer statistics from the stored data.
    pub fn analyze(&mut self) -> Result<()> {
        self.storage.analyze(&mut self.catalog)
    }

    /// Bulk-loads generated rows into a table (used by the workload
    /// harness; maintains indexes).
    pub fn load_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self
            .catalog
            .table_by_name(table)
            .ok_or_else(|| Error::catalog(format!("unknown table {table}")))?;
        let tid = t.id;
        let ncols = t.columns.len();
        for r in &rows {
            if r.len() != ncols {
                return Err(Error::execution(format!(
                    "row arity {} does not match table {table} ({ncols})",
                    r.len()
                )));
            }
        }
        self.with_write_txn(&self.txn, Tracer::disabled(), |txn| {
            for row in rows {
                self.storage.write_version(txn, tid, row)?;
            }
            Ok(())
        })
    }

    fn run_statement(&mut self, stmt: Statement, sql: &str) -> Result<StatementResult> {
        match stmt {
            Statement::Analyze => {
                self.reject_in_txn("ANALYZE")?;
                self.analyze()?;
                Ok(StatementResult::Analyzed)
            }
            Statement::CreateTable(ct) => {
                self.reject_in_txn("CREATE TABLE")?;
                self.create_table(ct)?;
                Ok(StatementResult::Ddl)
            }
            Statement::CreateIndex(ci) => {
                self.reject_in_txn("CREATE INDEX")?;
                self.create_index(ci)?;
                Ok(StatementResult::Ddl)
            }
            other => {
                let governor = self.statement_governor();
                self.run_statement_shared(other, sql, &self.txn, Tracer::disabled(), &governor)
            }
        }
    }

    /// DDL and ANALYZE rewrite shared catalog state that open snapshots
    /// may be reading through; they only run between transactions.
    fn reject_in_txn(&self, what: &str) -> Result<()> {
        if self.open_txn().is_some() {
            return Err(Error::unsupported(format!(
                "{what} cannot run inside an open transaction; COMMIT or ROLLBACK first"
            )));
        }
        Ok(())
    }

    /// Statement dispatch shared by the `&mut self` entry points (which
    /// pass the database's own transaction slot) and [`Session`]s (which
    /// pass theirs): queries, DML, and transaction control. DDL and
    /// ANALYZE need `&mut self` and are rejected here.
    fn run_statement_shared(
        &self,
        stmt: Statement,
        sql: &str,
        slot: &Mutex<Option<u64>>,
        tracer: Tracer<'_>,
        governor: &Governor,
    ) -> Result<StatementResult> {
        match stmt {
            Statement::Query(q) => Ok(StatementResult::Rows(self.run_query_cached(
                sql,
                &q,
                None,
                tracer,
                governor,
                slot_txn(slot),
            )?)),
            Statement::Explain { query, analyze } => Ok(StatementResult::Rows(
                self.explain_result(&query, analyze, governor, slot_txn(slot))?,
            )),
            Statement::Insert(ins) => Ok(StatementResult::RowsAffected(
                self.insert_shared(ins, slot, tracer)?,
            )),
            Statement::Update(u) => Ok(StatementResult::RowsAffected(
                self.update_shared(u, slot, tracer, governor)?,
            )),
            Statement::Delete(d) => Ok(StatementResult::RowsAffected(
                self.delete_shared(d, slot, tracer, governor)?,
            )),
            Statement::Begin => {
                self.begin_in(slot, tracer)?;
                Ok(StatementResult::Txn)
            }
            Statement::Commit => {
                self.commit_in(slot, tracer)?;
                Ok(StatementResult::Txn)
            }
            Statement::Rollback => {
                self.rollback_in(slot, tracer)?;
                Ok(StatementResult::Txn)
            }
            other
            @ (Statement::CreateTable(_) | Statement::CreateIndex(_) | Statement::Analyze) => {
                Err(Error::unsupported(format!(
                    "{} requires exclusive database access; use execute_mut",
                    statement_kind(&other)
                )))
            }
        }
    }

    /// The open explicit transaction of the `&mut self` entry points.
    fn open_txn(&self) -> Option<u64> {
        slot_txn(&self.txn)
    }

    /// Lifetime transaction counters (begun / committed / rolled back /
    /// write-write conflicts) of the underlying storage. Auto-committed
    /// statements count: every write statement outside an explicit
    /// transaction is its own transaction.
    pub fn txn_stats(&self) -> TxnStats {
        self.storage.txn_stats()
    }

    fn begin_in(&self, slot: &Mutex<Option<u64>>, tracer: Tracer<'_>) -> Result<()> {
        let mut s = lock_slot(slot);
        if s.is_some() {
            return Err(Error::analysis(
                "a transaction is already open; COMMIT or ROLLBACK it first",
            ));
        }
        let (txn, snapshot) = self.storage.begin();
        *s = Some(txn);
        drop(s);
        tracer.emit(|| TraceEvent::TxnBegin { txn, snapshot });
        Ok(())
    }

    /// COMMIT of the slot's open transaction (no-op without one). A
    /// fault or contained panic on the publish path aborts the whole
    /// transaction — commit is atomic: either every version becomes
    /// visible at the new watermark, or none does.
    fn commit_in(&self, slot: &Mutex<Option<u64>>, tracer: Tracer<'_>) -> Result<()> {
        let Some(txn) = lock_slot(slot).take() else {
            return Ok(());
        };
        self.commit_txn(txn, tracer)
    }

    fn commit_txn(&self, txn: u64, tracer: Tracer<'_>) -> Result<()> {
        match catch_internal(AssertUnwindSafe(|| self.storage.commit(txn))) {
            Ok(info) => {
                // versions bump at commit, and only at commit: cached
                // plans over the written tables go stale the moment the
                // writes become visible, never before
                for t in &info.tables {
                    self.catalog.bump_table_version(*t);
                }
                tracer.emit(|| TraceEvent::TxnCommit {
                    txn,
                    watermark: info.watermark,
                    versions: info.versions,
                });
                Ok(())
            }
            Err(e) => {
                let versions = self.storage.rollback(txn);
                tracer.emit(|| TraceEvent::TxnRollback { txn, versions });
                Err(e)
            }
        }
    }

    /// ROLLBACK of the slot's open transaction (no-op without one);
    /// infallible — abort paths must never fail.
    fn rollback_in(&self, slot: &Mutex<Option<u64>>, tracer: Tracer<'_>) -> Result<()> {
        let Some(txn) = lock_slot(slot).take() else {
            return Ok(());
        };
        let versions = self.storage.rollback(txn);
        tracer.emit(|| TraceEvent::TxnRollback { txn, versions });
        Ok(())
    }

    /// Runs `f` with write access under the slot's open transaction, or
    /// — outside an explicit transaction — under a fresh auto-commit
    /// transaction that commits on success. Any error or contained
    /// panic in `f` (or on the commit publish path) rolls the whole
    /// transaction back, restoring exactly the pre-transaction state;
    /// for an explicit transaction that aborts the open transaction,
    /// matching the first-updater-wins contract (the losing side of a
    /// write conflict must release its claims immediately, not at some
    /// later COMMIT).
    fn with_write_txn<T>(
        &self,
        slot: &Mutex<Option<u64>>,
        tracer: Tracer<'_>,
        f: impl FnOnce(u64) -> Result<T>,
    ) -> Result<T> {
        let open = slot_txn(slot);
        if let Some(txn) = open {
            match catch_internal(AssertUnwindSafe(|| f(txn))) {
                Ok(v) => Ok(v),
                Err(e) => {
                    lock_slot(slot).take();
                    let versions = self.storage.rollback(txn);
                    tracer.emit(|| TraceEvent::TxnRollback { txn, versions });
                    Err(e)
                }
            }
        } else {
            let (txn, snapshot) = self.storage.begin();
            tracer.emit(|| TraceEvent::TxnBegin { txn, snapshot });
            match catch_internal(AssertUnwindSafe(|| f(txn))) {
                Ok(v) => {
                    self.commit_txn(txn, tracer)?;
                    Ok(v)
                }
                Err(e) => {
                    let versions = self.storage.rollback(txn);
                    tracer.emit(|| TraceEvent::TxnRollback { txn, versions });
                    Err(e)
                }
            }
        }
    }

    /// Compiles a query *without* touching the bind-family plan cache:
    /// no literal extraction, no probe, no publish. This is the single
    /// bypass — every cache-exempt path ([`StatementPath::Explain`],
    /// [`StatementPath::Differential`], [`StatementPath::Dml`]) must
    /// compile through here, and
    /// the path must answer `false` to [`path_uses_plan_cache`].
    fn plan_uncached(
        &self,
        q: &ast::Query,
        tracer: Tracer<'_>,
        governor: &Governor,
        path: StatementPath,
    ) -> Result<CbqtOutcome> {
        assert!(
            !path_uses_plan_cache(path),
            "{path:?} serves from the plan cache; use run_query_cached"
        );
        let tree = build_query_tree(&self.catalog, q)?;
        self.optimize_governed(&tree, tracer, governor)
    }

    fn optimize_governed(
        &self,
        tree: &QueryTree,
        tracer: Tracer<'_>,
        governor: &Governor,
    ) -> Result<CbqtOutcome> {
        // dynamic sampling (§3.4.4): tables without statistics are sized
        // by probing storage, with results cached across optimizer calls
        let sampler = StorageSampler {
            catalog: &self.catalog,
            storage: &self.storage,
        };
        // cardinality feedback: observed base-scan cardinalities from
        // earlier executions override the estimator's NDV guesses. An
        // empty store returns no hits, so first compiles are unchanged.
        let source = FeedbackSource {
            store: &self.feedback,
            catalog: &self.catalog,
        };
        let feedback: Option<&dyn CardFeedback> = if self.config.feedback.enabled {
            Some(&source)
        } else {
            None
        };
        optimize_query_feedback(
            tree,
            &self.catalog,
            &self.config,
            &self.sampling_cache,
            Some(&sampler),
            feedback,
            tracer,
            governor,
        )
    }

    /// Post-execution feedback harvest: records each eligible base
    /// scan's observed per-execution cardinality in the feedback store
    /// and returns the worst estimate-vs-actual [`divergence_ratio`]
    /// seen (1.0 when nothing was eligible). Scans whose residual
    /// filters are ineligible for a feedback key — e.g. they carry
    /// bound equi-join probes referencing other refids — are skipped,
    /// mirroring the eligibility the estimator applies on recompile.
    fn harvest_feedback(
        &self,
        plan: &BlockPlan,
        metrics: &cbqt_exec::ExecMetrics,
        binds: &[Value],
    ) -> f64 {
        let index = PlanIndex::build(plan);
        let mut worst = 1.0_f64;
        plan.visit_entities(&mut |entity| {
            let PlanEntity::Node(node) = entity else {
                return;
            };
            let PlanNode::ScanBase {
                table,
                refid,
                filter,
                rows,
                ..
            } = node
            else {
                return;
            };
            let Some(key) = scan_feedback_key(&self.catalog, *table, *refid, filter, binds) else {
                return;
            };
            let Some(m) = metrics.get(&index, entity) else {
                return;
            };
            let observed = m.rows_per_exec();
            self.feedback
                .observe(key, observed, self.catalog.table_version(*table));
            worst = worst.max(divergence_ratio(*rows, observed));
        });
        worst
    }

    /// The serving path ([`StatementPath::Serve`]): resolve the query's
    /// bind parameters (explicit `?` values, or literals extracted at
    /// normalization time when bind sharing is on), probe the shared
    /// plan cache, and on a hit execute the cached `Arc<BlockPlan>`
    /// with a fresh per-query [`Engine`] (all mutable execution state
    /// lives there) after installing the bind values. A miss,
    /// invalidation or bind-bucket mismatch runs the full CBQT pipeline
    /// (with the binds peeked for costing) and caches the result as a
    /// family variant.
    fn run_query_cached(
        &self,
        sql: &str,
        q: &ast::Query,
        binds: Option<&[Value]>,
        tracer: Tracer<'_>,
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<QueryResult> {
        let n = count_params(q);
        let (fam, values): (Cow<'_, ast::Query>, Vec<Value>) = match binds {
            Some(vals) if n > 0 => {
                if vals.len() != n {
                    return Err(Error::analysis(format!(
                        "statement expects {n} bind value(s), got {}",
                        vals.len()
                    )));
                }
                (Cow::Borrowed(q), vals.to_vec())
            }
            Some(vals) if !vals.is_empty() => {
                return Err(Error::analysis(format!(
                    "statement has no bind parameters but {} value(s) were supplied",
                    vals.len()
                )));
            }
            _ => {
                if n > 0 {
                    return Err(Error::analysis(format!(
                        "statement has {n} bind parameter(s); supply values \
                         via query_bound or a prepared statement"
                    )));
                }
                if self.plan_cache_enabled && self.bind_sharing_enabled {
                    let p = parameterize(q);
                    (Cow::Owned(p.query), p.binds)
                } else {
                    (Cow::Borrowed(q), Vec::new())
                }
            }
        };

        let key: Option<String> =
            if !self.plan_cache_enabled || !path_uses_plan_cache(StatementPath::Serve) {
                None
            } else if self.bind_sharing_enabled {
                // family key: the canonical render of the parameterized AST
                Some(render_query(&fam))
            } else if values.is_empty() {
                // legacy literal-text keying
                Some(plan_cache::normalize_sql(sql))
            } else {
                // explicit binds with bind sharing off: text keying would
                // conflate different bind values — run uncached
                None
            };
        let Some(key) = key else {
            return self.run_query_pipeline(&fam, &values, tracer, None, false, governor, txn);
        };

        let version = self.catalog.version();
        // side-channel: remember the bucket the probe computed, so a
        // post-execution divergence can mark exactly that variant suspect
        let mut probe_sig: Option<BucketSig> = None;
        let lookup = self.plan_cache.lookup(
            &key,
            |sites| {
                let sig = self.bucket_sig(sites, &values);
                probe_sig = Some(sig.clone());
                sig
            },
            |deps| {
                deps.iter()
                    .all(|&(t, v)| self.catalog.table_version(t) == v)
            },
        );
        match lookup {
            Lookup::Hit(cached) => {
                tracer.emit(|| TraceEvent::PlanCacheHit {
                    key: key.clone(),
                    version: cached.version,
                });
                // in-transaction reads never harvest feedback: observed
                // cardinalities over uncommitted data must not steer
                // recompiles of statements reading committed state
                let feedback_on = self.config.feedback.enabled && txn.is_none();
                let t1 = Instant::now();
                let mut engine = self.engine_for(txn)?;
                engine.set_mode(self.config.execution_mode);
                engine.set_governor(governor.clone());
                engine.set_params(values.clone());
                if feedback_on {
                    engine.enable_metrics_light();
                }
                let rows = engine.run(&cached.plan)?;
                let execute_time = t1.elapsed();
                let exec_stats = engine.stats();
                if feedback_on {
                    if let Some(metrics) = engine.take_metrics() {
                        let divergence = self.harvest_feedback(&cached.plan, &metrics, &values);
                        if divergence >= self.config.feedback.divergence_ratio {
                            if let Some(sig) = probe_sig.as_ref() {
                                self.plan_cache.mark_suspect(&key, sig);
                            }
                        }
                    }
                }
                Ok(QueryResult {
                    columns: (*cached.columns).clone(),
                    rows,
                    stats: QueryStats {
                        optimize_time: Duration::ZERO,
                        execute_time,
                        work_units: exec_stats.work,
                        estimated_cost: cached.plan.cost,
                        states_explored: 0,
                        cutoffs: 0,
                        blocks_costed: 0,
                        annotation_hits: 0,
                        subquery_cache_hits: exec_stats.cache_hits,
                        subquery_cache_misses: exec_stats.cache_misses,
                        plan_cache_hit: true,
                        bind_params: values.len(),
                        bind_mismatch: false,
                        degraded: false,
                        reoptimized: false,
                    },
                })
            }
            Lookup::Reoptimize { cached: _, sig } => {
                // the variant was marked suspect by a previous execution's
                // divergence; recompile with the feedback store's observed
                // cardinalities and republish under the same bucket
                tracer.emit(|| TraceEvent::PlanCacheReoptimize {
                    key: key.clone(),
                    bucket: format!("{sig:?}"),
                });
                let mut r = self.run_query_pipeline(
                    &fam,
                    &values,
                    tracer,
                    Some((key, version)),
                    true,
                    governor,
                    txn,
                )?;
                r.stats.reoptimized = true;
                Ok(r)
            }
            Lookup::Invalidated { cached_version } => {
                tracer.emit(|| TraceEvent::PlanCacheInvalidated {
                    key: key.clone(),
                    cached_version,
                    current_version: version,
                });
                self.run_query_pipeline(
                    &fam,
                    &values,
                    tracer,
                    Some((key, version)),
                    false,
                    governor,
                    txn,
                )
            }
            Lookup::BindMismatch { sig, variants } => {
                tracer.emit(|| TraceEvent::PlanCacheBindMismatch {
                    key: key.clone(),
                    bucket: format!("{sig:?}"),
                });
                let mut r = self.run_query_pipeline(
                    &fam,
                    &values,
                    tracer,
                    Some((key.clone(), version)),
                    false,
                    governor,
                    txn,
                )?;
                r.stats.bind_mismatch = true;
                // degraded plans are not published, so no sibling joined
                // the family
                if !r.stats.degraded {
                    tracer.emit(|| TraceEvent::PlanCacheFamilySplit {
                        key,
                        variants: variants + 1,
                    });
                }
                Ok(r)
            }
            Lookup::Miss => {
                tracer.emit(|| TraceEvent::PlanCacheMiss { key: key.clone() });
                self.run_query_pipeline(
                    &fam,
                    &values,
                    tracer,
                    Some((key, version)),
                    false,
                    governor,
                    txn,
                )
            }
        }
    }

    /// One selectivity band per bind site ([`selectivity_band`]) of the
    /// site's predicate under the incoming bind value. Bind vectors
    /// landing in the same bands share a cached plan; a vector landing
    /// elsewhere compiles a sibling.
    /// Unanalyzed tables put every value into one band (naive sharing
    /// until ANALYZE provides the statistics ACS needs).
    fn bucket_sig(&self, sites: &[BindSite], binds: &[Value]) -> BucketSig {
        sites
            .iter()
            .map(|site| {
                let Some(v) = binds.get(site.slot) else {
                    return 0;
                };
                let Ok(t) = self.catalog.table(site.table) else {
                    return 0;
                };
                if !t.stats.analyzed {
                    return 0;
                }
                let Some(cs) = t.stats.column(site.column) else {
                    return 0;
                };
                let sel = match site.op {
                    BindSiteOp::Eq => cs.eq_selectivity(t.stats.rows, Some(v)),
                    BindSiteOp::Lt { inclusive } => cs.range_selectivity(v, true, inclusive),
                    BindSiteOp::Gt { inclusive } => cs.range_selectivity(v, false, inclusive),
                };
                selectivity_band(sel)
            })
            .collect()
    }

    /// Full transformation + optimization + execution, with `binds`
    /// peeked by the estimator and installed on the engine. When
    /// `cache_as` is set, the compiled plan is published to the plan
    /// cache under that key as the variant for the binds' selectivity
    /// bucket, recording the per-table versions it was compiled against
    /// — DDL needs `&mut self`, so versions cannot move under a running
    /// `&self` query.
    /// `reopt` is true when this compile was triggered by a
    /// [`Lookup::Reoptimize`] probe: a plan compiled *with* feedback that
    /// still diverges (or degrades) pins its cache variant via
    /// `block_reopt`, so suspect marks can never loop one query through
    /// the optimizer repeatedly.
    #[allow(clippy::too_many_arguments)]
    fn run_query_pipeline(
        &self,
        q: &ast::Query,
        binds: &[Value],
        tracer: Tracer<'_>,
        cache_as: Option<(String, u64)>,
        reopt: bool,
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<QueryResult> {
        let tree = build_query_tree_with_binds(&self.catalog, q, binds)?;
        let columns = tree.block(tree.root)?.output_names(&tree);
        // bind sites and table dependencies come from the
        // pre-transformation tree (transforms treat binds as opaque
        // scalars and never add base tables)
        let (sites, deps) = if cache_as.is_some() {
            let deps: Vec<(TableId, u64)> = collect_base_tables(&tree)
                .into_iter()
                .map(|t| (t, self.catalog.table_version(t)))
                .collect();
            (collect_bind_sites(&tree), deps)
        } else {
            (Vec::new(), Vec::new())
        };

        let t0 = Instant::now();
        let outcome = self.optimize_governed(&tree, tracer, governor)?;
        let optimize_time = t0.elapsed();
        let CbqtOutcome {
            plan,
            states_explored,
            cutoffs,
            optimizer_stats,
            degraded,
            ..
        } = outcome;
        let plan = Arc::new(plan);

        let feedback_on = self.config.feedback.enabled && txn.is_none();
        let t1 = Instant::now();
        let mut engine = self.engine_for(txn)?;
        engine.set_mode(self.config.execution_mode);
        engine.set_governor(governor.clone());
        engine.set_params(binds.to_vec());
        if feedback_on {
            engine.enable_metrics_light();
        }
        let rows = engine.run(&plan)?;
        let execute_time = t1.elapsed();
        let exec_stats = engine.stats();
        let divergence = if feedback_on {
            engine
                .take_metrics()
                .map(|m| self.harvest_feedback(&plan, &m, binds))
                .unwrap_or(1.0)
        } else {
            1.0
        };

        // A degraded plan is valid but reflects a truncated search; keep
        // it out of the shared cache so unbudgeted statements never pay
        // for one statement's tight optimizer budget.
        if !degraded {
            if let Some((key, version)) = cache_as {
                let sig = self.bucket_sig(&sites, binds);
                self.plan_cache.insert(
                    key.clone(),
                    sig.clone(),
                    Arc::new(sites),
                    CachedPlan {
                        plan: Arc::clone(&plan),
                        columns: Arc::new(columns.clone()),
                        version,
                        deps: Arc::new(deps),
                    },
                );
                if feedback_on && divergence >= self.config.feedback.divergence_ratio {
                    if reopt {
                        // feedback-informed recompile still diverges: pin
                        // this variant so it keeps serving rather than
                        // bouncing through the optimizer on every probe
                        self.plan_cache.block_reopt(&key, &sig);
                    } else {
                        self.plan_cache.mark_suspect(&key, &sig);
                    }
                }
            }
        } else if reopt {
            // the recompile degraded and was not published — the old
            // variant keeps serving; pin it so the suspect mark cannot
            // re-trigger an equally budget-starved recompile forever
            if let Some((key, _)) = cache_as {
                let sig = self.bucket_sig(&sites, binds);
                self.plan_cache.block_reopt(&key, &sig);
            }
        }

        Ok(QueryResult {
            columns,
            rows,
            stats: QueryStats {
                optimize_time,
                execute_time,
                work_units: exec_stats.work,
                estimated_cost: plan.cost,
                states_explored,
                cutoffs,
                blocks_costed: optimizer_stats.blocks_costed,
                annotation_hits: optimizer_stats.annotation_hits,
                subquery_cache_hits: exec_stats.cache_hits,
                subquery_cache_misses: exec_stats.cache_misses,
                plan_cache_hit: false,
                bind_params: binds.len(),
                bind_mismatch: false,
                degraded,
                reoptimized: false,
            },
        })
    }

    fn create_table(&mut self, ct: ast::CreateTable) -> Result<()> {
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        let mut pk_cols = Vec::new();
        let mut unique_cols = Vec::new();
        let mut fks: Vec<(usize, String, String)> = Vec::new();
        for (i, c) in ct.columns.iter().enumerate() {
            columns.push(Column {
                name: c.name.clone(),
                data_type: c.data_type,
                not_null: c.not_null || c.primary_key,
            });
            if c.primary_key {
                pk_cols.push(i);
            }
            if c.unique {
                unique_cols.push(i);
            }
            if let Some((parent, pcol)) = &c.references {
                fks.push((i, parent.clone(), pcol.clone()));
            }
        }
        if !pk_cols.is_empty() {
            constraints.push(Constraint::PrimaryKey(pk_cols.clone()));
        }
        for u in unique_cols {
            constraints.push(Constraint::Unique(vec![u]));
        }
        let col_index = |name: &str| -> Result<usize> {
            ct.columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| Error::catalog(format!("unknown column {name}")))
        };
        for tc in &ct.constraints {
            match tc {
                ast::TableConstraint::PrimaryKey(cols) => {
                    let idx: Vec<usize> =
                        cols.iter().map(|c| col_index(c)).collect::<Result<_>>()?;
                    constraints.push(Constraint::PrimaryKey(idx));
                }
                ast::TableConstraint::Unique(cols) => {
                    let idx: Vec<usize> =
                        cols.iter().map(|c| col_index(c)).collect::<Result<_>>()?;
                    constraints.push(Constraint::Unique(idx));
                }
                ast::TableConstraint::ForeignKey {
                    columns: cols,
                    parent,
                    parent_columns,
                } => {
                    let parent_t = self
                        .catalog
                        .table_by_name(parent)
                        .ok_or_else(|| Error::catalog(format!("unknown parent table {parent}")))?;
                    let pidx: Vec<usize> = parent_columns
                        .iter()
                        .map(|c| {
                            parent_t
                                .column_index(c)
                                .ok_or_else(|| Error::catalog(format!("unknown parent column {c}")))
                        })
                        .collect::<Result<_>>()?;
                    let idx: Vec<usize> =
                        cols.iter().map(|c| col_index(c)).collect::<Result<_>>()?;
                    constraints.push(Constraint::ForeignKey(ForeignKey {
                        columns: idx,
                        parent: parent_t.id,
                        parent_columns: pidx,
                    }));
                }
            }
        }
        for (i, parent, pcol) in fks {
            let parent_t = self
                .catalog
                .table_by_name(&parent)
                .ok_or_else(|| Error::catalog(format!("unknown parent table {parent}")))?;
            let pc = parent_t
                .column_index(&pcol)
                .ok_or_else(|| Error::catalog(format!("unknown parent column {pcol}")))?;
            constraints.push(Constraint::ForeignKey(ForeignKey {
                columns: vec![i],
                parent: parent_t.id,
                parent_columns: vec![pc],
            }));
        }
        let tid = self.catalog.add_table(&ct.name, columns, constraints)?;
        self.storage.create_table(tid);
        // primary keys get an index automatically (like Oracle)
        if let Some(pk) = self.catalog.table(tid)?.primary_key().map(|p| p.to_vec()) {
            let name = format!("pk_{}", ct.name.to_ascii_lowercase());
            let ix = self.catalog.add_index(&name, tid, pk.clone(), true)?;
            self.storage.build_index(ix, tid, pk)?;
        }
        Ok(())
    }

    fn create_index(&mut self, ci: ast::CreateIndex) -> Result<()> {
        let t = self
            .catalog
            .table_by_name(&ci.table)
            .ok_or_else(|| Error::catalog(format!("unknown table {}", ci.table)))?;
        let tid = t.id;
        let cols: Vec<usize> = ci
            .columns
            .iter()
            .map(|c| {
                t.column_index(c)
                    .ok_or_else(|| Error::catalog(format!("unknown column {c}")))
            })
            .collect::<Result<_>>()?;
        let ix = self
            .catalog
            .add_index(&ci.name, tid, cols.clone(), ci.unique)?;
        self.storage.build_index(ix, tid, cols)?;
        Ok(())
    }

    /// A fresh per-query engine reading as of the latest committed
    /// snapshot, or — inside a transaction — as of the transaction's
    /// begin watermark plus its own uncommitted writes.
    fn engine_for(&self, txn: Option<u64>) -> Result<Engine<'_>> {
        Ok(match txn {
            Some(t) => Engine::with_snapshot(&self.catalog, self.storage.txn_snapshot(t)?),
            None => Engine::new(&self.catalog, &self.storage),
        })
    }

    fn insert_shared(
        &self,
        ins: ast::Insert,
        slot: &Mutex<Option<u64>>,
        tracer: Tracer<'_>,
    ) -> Result<u64> {
        let t = self
            .catalog
            .table_by_name(&ins.table)
            .ok_or_else(|| Error::catalog(format!("unknown table {}", ins.table)))?;
        let tid = t.id;
        let ncols = t.columns.len();
        let positions: Vec<usize> = match &ins.columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    t.column_index(c)
                        .ok_or_else(|| Error::catalog(format!("unknown column {c}")))
                })
                .collect::<Result<_>>()?,
            None => (0..ncols).collect(),
        };
        let mut rows = Vec::with_capacity(ins.rows.len());
        for r in &ins.rows {
            if r.len() != positions.len() {
                return Err(Error::analysis("INSERT value count mismatch"));
            }
            let mut row: Row = vec![Value::Null; ncols];
            for (pos, e) in positions.iter().zip(r.iter()) {
                row[*pos] = eval_const(e)?;
            }
            rows.push(row);
        }
        let n = rows.len() as u64;
        self.with_write_txn(slot, tracer, |txn| {
            for row in &rows {
                check_not_null(t, row)?;
            }
            for row in rows {
                self.storage.write_version(txn, tid, row)?;
            }
            Ok(())
        })?;
        Ok(n)
    }

    fn update_shared(
        &self,
        u: ast::Update,
        slot: &Mutex<Option<u64>>,
        tracer: Tracer<'_>,
        governor: &Governor,
    ) -> Result<u64> {
        let t = self
            .catalog
            .table_by_name(&u.table)
            .ok_or_else(|| Error::catalog(format!("unknown table {}", u.table)))?;
        // the new row, column by column: the SET expression where one
        // is given (the last one wins), the old value otherwise
        let mut new_row: Vec<ast::Expr> = t.columns.iter().map(|c| column_of(t, &c.name)).collect();
        for (c, e) in u.sets {
            let i = t
                .column_index(&c)
                .ok_or_else(|| Error::catalog(format!("unknown column {c}")))?;
            // an aggregate would collapse the target query to one row
            if e.contains_aggregate() {
                return Err(Error::analysis(format!(
                    "aggregate functions are not allowed in UPDATE SET expressions: {e}"
                )));
            }
            new_row[i] = e;
        }
        let plan = self.plan_dml_target(t, new_row, u.filter, tracer, governor)?;
        self.with_write_txn(slot, tracer, |txn| {
            let targets = self.scan_dml_target(txn, t, &plan, tracer, governor)?;
            for row in &targets {
                check_not_null(t, row)?;
            }
            let n = targets.len() as u64;
            for mut row in targets {
                self.claim_version(txn, t, rowid_of(&row)?, tracer)?;
                row.truncate(t.columns.len());
                self.storage.write_version(txn, t.id, row)?;
            }
            Ok(n)
        })
    }

    fn delete_shared(
        &self,
        d: ast::Delete,
        slot: &Mutex<Option<u64>>,
        tracer: Tracer<'_>,
        governor: &Governor,
    ) -> Result<u64> {
        let t = self
            .catalog
            .table_by_name(&d.table)
            .ok_or_else(|| Error::catalog(format!("unknown table {}", d.table)))?;
        let plan = self.plan_dml_target(t, Vec::new(), d.filter, tracer, governor)?;
        self.with_write_txn(slot, tracer, |txn| {
            let targets = self.scan_dml_target(txn, t, &plan, tracer, governor)?;
            for row in &targets {
                self.claim_version(txn, t, rowid_of(row)?, tracer)?;
            }
            Ok(targets.len() as u64)
        })
    }

    /// Compiles the target query of an UPDATE or DELETE over `t` —
    /// `SELECT <outputs>, t.ROWID FROM t WHERE <filter>` — through the
    /// same pipeline as any query, so the rows to write are found by
    /// the access path the planner picks and every expression is
    /// evaluated by the executor. Never cached: the statement's own
    /// commit bumps the table version a cached plan would depend on.
    fn plan_dml_target(
        &self,
        t: &Table,
        outputs: Vec<ast::Expr>,
        filter: Option<ast::Expr>,
        tracer: Tracer<'_>,
        governor: &Governor,
    ) -> Result<BlockPlan> {
        let items = outputs
            .into_iter()
            .chain([column_of(t, "ROWID")])
            .map(|expr| ast::SelectItem::Expr { expr, alias: None })
            .collect();
        let query = ast::Query {
            body: ast::SetExpr::Select(Box::new(ast::Select {
                distinct: false,
                items,
                from: vec![ast::TableRef::Table {
                    name: t.name.clone(),
                    alias: None,
                }],
                where_clause: filter,
                group_by: None,
                having: None,
            })),
            order_by: Vec::new(),
        };
        Ok(self
            .plan_uncached(&query, tracer, governor, StatementPath::Dml)?
            .plan)
    }

    /// Runs a [target plan](Database::plan_dml_target) against the
    /// transaction's snapshot under the statement's governor and returns
    /// its rows, version ordinal last. The engine and the snapshot it
    /// pins are gone when this returns: every read of the statement
    /// precedes its first write (no Halloween problem), and the writes
    /// that follow find the heap and index `Arc`s unshared.
    fn scan_dml_target(
        &self,
        txn: u64,
        t: &Table,
        plan: &BlockPlan,
        tracer: Tracer<'_>,
        governor: &Governor,
    ) -> Result<Vec<Row>> {
        let mut engine = self.engine_for(Some(txn))?;
        engine.set_mode(self.config.execution_mode);
        engine.set_governor(governor.clone());
        let rows = engine.run(plan)?;
        tracer.emit(|| TraceEvent::DmlTarget {
            table: t.name.clone(),
            access: target_access(plan, t.id),
            rows: rows.len(),
            work: engine.stats().work,
        });
        Ok(rows)
    }

    /// First-updater-wins claim on one version; losing the race is a
    /// [`Error::WriteConflict`] (the caller's transaction aborts).
    fn claim_version(&self, txn: u64, t: &Table, ordinal: usize, tracer: Tracer<'_>) -> Result<()> {
        let Some(winner) = self.storage.try_delete_version(txn, t.id, ordinal)? else {
            return Ok(());
        };
        tracer.emit(|| TraceEvent::TxnConflict {
            txn,
            winner,
            table: t.name.clone(),
        });
        Err(Error::write_conflict(format!(
            "transaction {txn} lost a first-updater race to transaction \
             {winner} on table {}; retry on a fresh snapshot",
            t.name
        )))
    }
}

/// A prepared statement: a query parsed and normalized once, executed
/// many times with varying bind values (see [`Database::prepare`]).
///
/// If the source text had explicit `?` placeholders, those are the
/// statement's parameters. Otherwise the predicate literals were
/// extracted into parameters at preparation — their original values are
/// available as [`param_defaults`](Prepared::param_defaults), and
/// calling [`query`](Prepared::query) with an empty slice runs with
/// them. Every execution is served through the shared plan-family
/// cache: one compile per selectivity bucket, adaptive cursor sharing
/// picking the variant that matches the incoming values.
pub struct Prepared<'a> {
    db: &'a Database,
    cancel: CancelToken,
    sql: String,
    /// The parameterized query (bind slots in place of literals).
    query: ast::Query,
    /// Literals extracted at preparation (empty for explicit-`?` text).
    defaults: Vec<Value>,
    param_count: usize,
}

impl Prepared<'_> {
    /// Number of bind parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The literal values extracted at preparation time, in slot order
    /// (empty when the statement was written with explicit `?`).
    pub fn param_defaults(&self) -> &[Value] {
        &self.defaults
    }

    /// The original statement text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Executes the statement with `binds` bound to its parameters, in
    /// slot order. An empty slice re-runs the extracted literal
    /// defaults when the statement has them; otherwise `binds` must
    /// supply exactly [`param_count`](Prepared::param_count) values.
    pub fn query(&self, binds: &[Value]) -> Result<QueryResult> {
        let binds: &[Value] = if binds.is_empty() && !self.defaults.is_empty() {
            &self.defaults
        } else {
            binds
        };
        let governor = Governor::new(&ExecutionLimits::none(), self.cancel.clone());
        catch_internal(|| {
            self.db.run_query_cached(
                &self.sql,
                &self.query,
                Some(binds),
                Tracer::disabled(),
                &governor,
                self.db.open_txn(),
            )
        })
    }

    /// [`query`](Prepared::query) shaped like [`Database::execute`]
    /// (prepared statements are always queries, so this always returns
    /// `Some` on success).
    pub fn execute(&self, binds: &[Value]) -> Result<Option<QueryResult>> {
        self.query(binds).map(Some)
    }
}

/// A session over a shared [`Database`] with its own cancellation
/// scope and its own transaction slot (see [`Database::session`]).
///
/// Every statement issued through the session runs under a governor
/// built over the session's [cancel token](Session::cancel_token) — a
/// child of the database-wide token. Cancelling the session token stops
/// this session's statements only; cancelling the database token stops
/// every session. The session borrows the database immutably, so any
/// number of sessions can run concurrently — including writers: DML
/// goes through the MVCC storage layer under snapshot isolation, so
/// readers never block on a session's open transaction and vice versa.
/// Between [`begin`](Session::begin) and [`commit`](Session::commit)
/// the session's statements read as of the transaction's begin
/// watermark plus its own uncommitted writes; outside an explicit
/// transaction every write statement auto-commits. DDL and ANALYZE
/// still require exclusive access ([`Database::execute_mut`]).
pub struct Session<'a> {
    db: &'a Database,
    cancel: CancelToken,
    txn: Mutex<Option<u64>>,
}

impl Session<'_> {
    /// Opens an explicit transaction. Errors if one is already open.
    pub fn begin(&self) -> Result<()> {
        self.db.begin_in(&self.txn, Tracer::disabled())
    }

    /// Commits the open transaction, atomically publishing its writes
    /// at a new commit watermark (and invalidating cached plans over
    /// the written tables). Without an open transaction this is a
    /// no-op. A fault on the publish path aborts the transaction whole
    /// and surfaces the error — never a partial commit.
    pub fn commit(&self) -> Result<()> {
        self.db.commit_in(&self.txn, Tracer::disabled())
    }

    /// Rolls back the open transaction, restoring exactly the
    /// pre-transaction state. Without an open transaction: a no-op.
    pub fn rollback(&self) -> Result<()> {
        self.db.rollback_in(&self.txn, Tracer::disabled())
    }

    /// True while an explicit transaction is open in this session.
    pub fn in_transaction(&self) -> bool {
        slot_txn(&self.txn).is_some()
    }
    /// This session's cancellation token. Sticky like the database-wide
    /// token, but scoped: [`reset`](StatementCancelToken::reset) on it
    /// only unfences this session.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    fn governor(&self) -> Governor {
        Governor::new(&ExecutionLimits::none(), self.cancel.clone())
    }

    /// Executes one statement — query, DML, or transaction control —
    /// under this session's cancellation scope and transaction slot.
    /// Like [`Database::execute`], returns rows only for queries; DDL
    /// and ANALYZE are rejected (they need
    /// [`Database::execute_mut`]).
    pub fn execute(&self, sql: &str) -> Result<Option<QueryResult>> {
        self.execute_statement(sql).map(StatementResult::into_rows)
    }

    /// [`execute`](Session::execute) with the full
    /// [`StatementResult`] (row counts for DML, markers for
    /// transaction control).
    pub fn execute_statement(&self, sql: &str) -> Result<StatementResult> {
        catch_internal(AssertUnwindSafe(|| {
            let stmt = parse_statement(sql)?;
            self.db
                .run_statement_shared(stmt, sql, &self.txn, Tracer::disabled(), &self.governor())
        }))
    }

    /// [`execute_statement`](Session::execute_statement) with the
    /// optimizer/transaction trace enabled: the returned report carries
    /// every event the statement emitted — including `TXN
    /// BEGIN/COMMIT/ROLLBACK/CONFLICT` lifecycle events for DML and
    /// transaction control.
    pub fn trace_statement(&self, sql: &str) -> Result<TraceReport> {
        catch_internal(AssertUnwindSafe(|| {
            let buffer = TraceBuffer::new();
            let stmt = parse_statement(sql)?;
            let r = self.db.run_statement_shared(
                stmt,
                sql,
                &self.txn,
                Tracer::new(&buffer),
                &self.governor(),
            )?;
            Ok(TraceReport {
                events: buffer.take(),
                stats: r.rows().map(|q| q.stats.clone()).unwrap_or_default(),
            })
        }))
    }

    /// [`Database::query`] under this session's cancellation scope.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?
            .ok_or_else(|| Error::analysis("statement did not produce rows"))
    }

    /// [`Database::query_with_limits`] with the limits' governor built
    /// over this session's token.
    pub fn query_with_limits(&self, sql: &str, limits: ExecutionLimits) -> Result<QueryResult> {
        self.db.query_with_limits_governed(
            sql,
            Governor::new(&limits, self.cancel.clone()),
            slot_txn(&self.txn),
        )
    }

    /// [`Database::query_bound`] under this session's cancellation
    /// scope.
    pub fn query_bound(&self, sql: &str, binds: &[Value]) -> Result<QueryResult> {
        self.db
            .query_bound_governed(sql, binds, &self.governor(), slot_txn(&self.txn))
    }

    /// [`Database::prepare`] with executions governed by this session's
    /// cancel token instead of the database-wide one.
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>> {
        self.db.prepare_with(sql, self.cancel.clone())
    }

    /// [`Database::explain`] under this session's cancellation scope.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.db
            .explain_sql(sql, false, &self.governor(), slot_txn(&self.txn))
    }

    /// [`Database::explain_analyze`] under this session's scope.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        self.db
            .explain_sql(sql, true, &self.governor(), slot_txn(&self.txn))
    }

    /// [`Database::trace`] under this session's cancellation scope.
    pub fn trace(&self, sql: &str) -> Result<TraceReport> {
        self.db
            .trace_governed(sql, &self.governor(), slot_txn(&self.txn))
    }

    /// [`Database::trace_with_limits`] with the limits' governor built
    /// over this session's token.
    pub fn trace_with_limits(&self, sql: &str, limits: ExecutionLimits) -> Result<TraceReport> {
        self.db.trace_governed(
            sql,
            &Governor::new(&limits, self.cancel.clone()),
            slot_txn(&self.txn),
        )
    }
}

impl Drop for Session<'_> {
    /// A session dropped mid-transaction aborts it — uncommitted writes
    /// are never published, and the storage-side transaction state is
    /// released.
    fn drop(&mut self) {
        let _ = self.rollback();
    }
}

/// Compile-time proof of the `Arc`-shareability claim: the database and
/// its plan cache are `Send + Sync`. All per-query mutable state (the
/// TIS correlation cache, runtime metrics) lives in the per-execution
/// [`Engine`], never in the shared type.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Database>();
    _assert_send_sync::<PlanCache>();
};

/// Statement-level panic boundary: an unexpected panic inside parsing,
/// optimization, or execution (a bug — or an injected fault, see
/// `cbqt_common::failpoint`) is caught here and surfaced as
/// `Error::Internal` instead of unwinding through the embedding
/// application. All shared caches recover from lock poisoning (the plan
/// cache clears a poisoned shard; the sampling cache and trace buffer
/// keep their contents), so the database stays usable afterwards.
/// Work units accumulate identically in both engines up to float
/// association order; compare with a relative tolerance.
fn approx_work(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Points at the first differing row (or a length difference) so a
/// fuzzer failure is actionable without re-running.
fn first_row_divergence(a: &[Row], b: &[Row]) -> String {
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        if ra != rb {
            return format!("; first divergence at row {i}: vectorized {ra:?}, volcano {rb:?}");
        }
    }
    String::new()
}

/// Compares two [`ExecMetrics`](cbqt_exec::ExecMetrics) snapshots taken
/// against the same plan: identical structural node-id sets, exact
/// rows/execs, work to tolerance. Ids are ordinals in canonical plan
/// order, so the snapshots compare pairwise even across allocations.
fn compare_metrics(
    vec: &[(PlanNodeId, cbqt_exec::OpMetrics)],
    volcano: &[(PlanNodeId, cbqt_exec::OpMetrics)],
    mismatches: &mut Vec<String>,
) {
    let vec_ids: Vec<PlanNodeId> = vec.iter().map(|(a, _)| *a).collect();
    let volcano_ids: Vec<PlanNodeId> = volcano.iter().map(|(a, _)| *a).collect();
    if vec_ids != volcano_ids {
        mismatches.push(format!(
            "metrics operator sets differ: vectorized recorded {} op(s), volcano {} op(s)",
            vec_ids.len(),
            volcano_ids.len()
        ));
        return;
    }
    for ((id, vm), (_, om)) in vec.iter().zip(volcano.iter()) {
        if vm.rows != om.rows || vm.execs != om.execs {
            mismatches.push(format!(
                "op {id} counters differ: vectorized rows={} execs={}, \
                 volcano rows={} execs={}",
                vm.rows, vm.execs, om.rows, om.execs
            ));
        }
        if !approx_work(vm.work, om.work) {
            mismatches.push(format!(
                "op {id} work differs: vectorized {:.3}, volcano {:.3}",
                vm.work, om.work
            ));
        }
    }
}

fn catch_internal<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(Error::internal(format!("statement panicked: {msg}")))
        }
    }
}

/// Which execution path a statement is served through — the single
/// authority on plan-cache interaction. `Serve` (queries through
/// `query`/`execute`/`query_bound`/`Prepared`/`trace`/scripts) probes
/// the bind-family cache and publishes compiled plans; every other
/// path must compile through [`Database::plan_uncached`], which
/// asserts against this predicate: EXPLAIN output must show the plan
/// for the literal text as written (no literal extraction, no cached
/// plan), the differential oracle must hand both engines a fresh,
/// cache-independent allocation, and an UPDATE / DELETE target query
/// reads a table whose version the statement's own commit bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatementPath {
    Serve,
    Explain,
    Differential,
    Dml,
}

/// True iff statements on `path` probe and populate the plan cache.
const fn path_uses_plan_cache(path: StatementPath) -> bool {
    matches!(path, StatementPath::Serve)
}

/// The plan-cache family key `sql` is served under when bind sharing
/// is enabled (the default): the canonical render of the query with
/// its predicate literals extracted into bind parameters. Two
/// statements differing only in those literals (or in case and
/// whitespace) share a key — and therefore a plan family. With bind
/// sharing disabled, keys are [`normalize_sql`] of the literal text
/// instead.
pub fn plan_cache_key(sql: &str) -> Result<String> {
    let q = match parse_statement(sql)? {
        Statement::Query(q) => q,
        other => {
            return Err(Error::analysis(format!(
                "plan cache keys exist for queries only, got {}",
                statement_kind(&other)
            )))
        }
    };
    Ok(render_query(&parameterize(&q).query))
}

/// Human-readable kind of a statement, for error messages.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Query(_) => "SELECT",
        Statement::Explain { .. } => "EXPLAIN",
        Statement::CreateTable(_) => "CREATE TABLE",
        Statement::CreateIndex(_) => "CREATE INDEX",
        Statement::Insert(_) => "INSERT",
        Statement::Update(_) => "UPDATE",
        Statement::Delete(_) => "DELETE",
        Statement::Analyze => "ANALYZE",
        Statement::Begin => "BEGIN",
        Statement::Commit => "COMMIT",
        Statement::Rollback => "ROLLBACK",
    }
}

/// Locks a transaction slot, recovering from poisoning: a slot holds a
/// plain `Option<u64>`, always valid whatever statement panicked while
/// it was held.
fn lock_slot(slot: &Mutex<Option<u64>>) -> std::sync::MutexGuard<'_, Option<u64>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The transaction currently open in `slot`, if any.
fn slot_txn(slot: &Mutex<Option<u64>>) -> Option<u64> {
    *lock_slot(slot)
}

/// Evaluates a constant INSERT expression: literals, `NULL`, and the
/// unary `+`/`-` signs (SQL semantics: negating NULL yields NULL).
fn eval_const(e: &ast::Expr) -> Result<Value> {
    match e {
        ast::Expr::Literal(v) => Ok(v.clone()),
        ast::Expr::Unary {
            op: ast::UnOp::Neg,
            expr,
        } => {
            let v = eval_const(expr)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Double(d) => Ok(Value::Double(-d)),
                other => Err(Error::analysis(format!(
                    "cannot negate non-numeric INSERT value {e}: {other}"
                ))),
            }
        }
        other => Err(Error::unsupported(format!(
            "INSERT values must be constant expressions, got {other}"
        ))),
    }
}

/// `t.<name>` as an AST column reference.
fn column_of(t: &Table, name: &str) -> ast::Expr {
    ast::Expr::Column {
        qualifier: Some(t.name.clone()),
        name: name.to_string(),
    }
}

/// The version ordinal a DML target row ends with.
fn rowid_of(row: &Row) -> Result<usize> {
    let ordinal = match row.last() {
        Some(Value::Int(o)) => usize::try_from(*o).ok(),
        _ => None,
    };
    ordinal.ok_or_else(|| Error::internal("DML target row does not end with a ROWID"))
}

/// How the target plan reaches `table`: the access path of its first
/// scan of the table in EXPLAIN order.
fn target_access(plan: &BlockPlan, table: TableId) -> String {
    let mut found = None;
    plan.visit_entities(&mut |entity| {
        if let PlanEntity::Node(PlanNode::ScanBase {
            table: scanned,
            access,
            ..
        }) = entity
        {
            if *scanned == table && found.is_none() {
                found = Some(access.describe());
            }
        }
    });
    found.unwrap_or_default()
}

/// `NOT NULL` (and `PRIMARY KEY`) columns are trusted by the
/// transformations — NOT IN unnesting, set-operator conversion — so a
/// write must never store a NULL in one. `row` leads with the table's
/// columns; anything after them (a target row's ROWID) is ignored.
fn check_not_null(t: &Table, row: &[Value]) -> Result<()> {
    match t
        .columns
        .iter()
        .zip(row)
        .find(|(c, v)| c.not_null && v.is_null())
    {
        Some((c, _)) => Err(Error::execution(format!(
            "NULL value in column {}.{} violates its NOT NULL constraint",
            t.name, c.name
        ))),
        None => Ok(()),
    }
}

/// Dynamic sampling over the in-memory storage (§3.4.4): scans a bounded
/// sample of an unanalyzed table to estimate its cardinality.
struct StorageSampler<'a> {
    catalog: &'a Catalog,
    storage: &'a Storage,
}

impl DynamicSampler for StorageSampler<'_> {
    fn sample(&self, table: TableId, _conjuncts_key: &str) -> Option<(f64, f64)> {
        let _ = self.catalog.table(table).ok()?;
        let rows = self.storage.row_count(table);
        Some((rows as f64, 1.0))
    }
}

/// Adapter feeding the database's [`FeedbackStore`] to the optimizer's
/// [`CardFeedback`] hook. Staleness is enforced at lookup time: entries
/// observed against an older table version are discarded, never served.
struct FeedbackSource<'a> {
    store: &'a FeedbackStore,
    catalog: &'a Catalog,
}

impl CardFeedback for FeedbackSource<'_> {
    fn observed_rows(&self, key: &FeedbackKey) -> Option<f64> {
        self.store
            .lookup(key, self.catalog.table_version(key.table))
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
        // as does DML
        assert!(db.query(q).unwrap().stats.plan_cache_hit);
        db.execute_mut("INSERT INTO employees VALUES (200, 1, 1500)")
            .unwrap();
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
        // the read-only entry point refuses mutating statements with a
        // pointer at the right method
        let err = db
            .execute("CREATE TABLE nope (x INT)")
            .unwrap_err()
            .to_string();
        assert!(err.contains("execute_mut"), "{err}");
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
