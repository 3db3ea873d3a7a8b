//! The two handles that borrow a [`Database`]: a [`Session`] with its
//! own cancel token and transaction slot, and a [`Prepared`] statement
//! bound to the scope that prepared it.

use crate::serve::{Accept, Request, Scope};
use crate::{Database, QueryResult, StatementResult, TraceReport};
use cbqt_common::{CancelToken, ExecutionLimits, Result, Tracer, Value};
use cbqt_sql::ast;
use std::sync::Mutex;

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
/// picking the variant that matches the incoming values. The statement
/// holds its family, so an execution starts at the cache probe, as a
/// statement served from its shape's recipe does.
pub struct Prepared<'a> {
    pub(crate) scope: Scope<'a>,
    pub(crate) sql: String,
    /// The plan-family key, rendered once at preparation (`None` runs
    /// uncached).
    pub(crate) key: Option<String>,
    /// The parameterized query (bind slots in place of literals).
    pub(crate) family: ast::Query,
    /// Literals extracted at preparation (empty for explicit-`?` text).
    pub(crate) defaults: Vec<Value>,
    pub(crate) param_count: usize,
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
        self.scope.serve_prepared(self, binds)
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
    pub(crate) db: &'a Database,
    pub(crate) cancel: CancelToken,
    pub(crate) txn: Mutex<Option<u64>>,
}

impl Session<'_> {
    /// Opens an explicit transaction. Errors if one is already open.
    pub fn begin(&self) -> Result<()> {
        self.scope().begin(Tracer::disabled())
    }

    /// Commits the open transaction, atomically publishing its writes
    /// at a new commit watermark (and the written tables' data versions
    /// and live row counts to the catalog; cached plans survive unless
    /// a table's size drifts). Without an open transaction this is a
    /// no-op. A fault on the publish path aborts the transaction whole
    /// and surfaces the error — never a partial commit.
    pub fn commit(&self) -> Result<()> {
        self.scope().commit(Tracer::disabled())
    }

    /// Rolls back the open transaction, restoring exactly the
    /// pre-transaction state. Without an open transaction: a no-op.
    pub fn rollback(&self) -> Result<()> {
        self.scope().rollback(Tracer::disabled())
    }

    /// True while an explicit transaction is open in this session.
    pub fn in_transaction(&self) -> bool {
        self.scope().open_txn().is_some()
    }

    /// This session's cancellation token. Sticky like the database-wide
    /// token, but scoped: [`reset`](crate::StatementCancelToken::reset) on it
    /// only unfences this session.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// This session's caller identity: its own cancel token and its own
    /// transaction slot.
    fn scope(&self) -> Scope<'_> {
        Scope {
            db: self.db,
            cancel: &self.cancel,
            slot: &self.txn,
        }
    }

    /// Executes one statement — query, DML, or transaction control —
    /// under this session's cancellation scope and transaction slot.
    /// Like [`Database::execute`], returns rows only for queries; DDL
    /// and ANALYZE are rejected (they need
    /// [`Database::execute_mut`]).
    pub fn execute(&self, sql: &str) -> Result<Option<QueryResult>> {
        self.scope()
            .statement(Request::new("execute", sql, Accept::Shared))
            .map(StatementResult::into_rows)
    }

    /// [`execute`](Session::execute) with the full
    /// [`StatementResult`] (row counts for DML, markers for
    /// transaction control).
    pub fn execute_statement(&self, sql: &str) -> Result<StatementResult> {
        self.scope()
            .statement(Request::new("execute_statement", sql, Accept::Shared))
    }

    /// [`execute_statement`](Session::execute_statement) under explicit
    /// [resource limits](crate::StatementLimits). For a query this is
    /// [`query_with_limits`](Session::query_with_limits); for UPDATE and
    /// DELETE the budgets govern the target query that finds the rows
    /// to write — exhausting the optimizer-state budget degrades its
    /// search and the statement still writes every row, while the
    /// deadline, the row / work budgets and cancellation fail the
    /// statement before its first write (an auto-commit statement writes
    /// nothing; inside an explicit transaction the transaction aborts,
    /// as after any failed write).
    pub fn execute_with_limits(
        &self,
        sql: &str,
        limits: ExecutionLimits,
    ) -> Result<StatementResult> {
        self.scope()
            .statement(Request::new("execute_with_limits", sql, Accept::Shared).limits(limits))
    }

    /// [`execute_statement`](Session::execute_statement) with the
    /// optimizer/transaction trace enabled: the returned report carries
    /// every event the statement emitted — including `TXN
    /// BEGIN/COMMIT/ROLLBACK/CONFLICT` lifecycle events for DML and
    /// transaction control.
    pub fn trace_statement(&self, sql: &str) -> Result<TraceReport> {
        self.scope()
            .report(Request::new("trace_statement", sql, Accept::Shared))
    }

    shared_entry_points!();
}

impl Drop for Session<'_> {
    /// A session dropped mid-transaction aborts it — uncommitted writes
    /// are never published, and the storage-side transaction state is
    /// released.
    fn drop(&mut self) {
        let _ = self.rollback();
    }
}
