//! INSERT / UPDATE / DELETE. UPDATE and DELETE have no evaluator of
//! their own: they get a target plan the way a query does, from the
//! plan cache or the query pipeline, read every target before writing
//! any, then claim and append versions inside the scope's
//! [write bracket](Scope::with_write_txn).

use crate::serve::{Ctx, Measure, Planned, Scope};
use crate::Database;
use cbqt_catalog::{Table, TableId};
use cbqt_common::{Error, Result, Row, TraceEvent, Tracer, Value};
use cbqt_optimizer::{BlockPlan, PlanEntity, PlanNode};
use cbqt_sql::{ast, parameterize_dml_target};

impl Scope<'_> {
    pub(crate) fn insert(self, ins: ast::Insert, ctx: Ctx<'_>) -> Result<u64> {
        let t = self.db.table_named(&ins.table)?;
        let ncols = t.columns.len();
        let positions: Vec<usize> = match &ins.columns {
            Some(cols) => cols
                .iter()
                .map(|c| column_named(t, c))
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
        self.with_write_txn(ctx.tracer, |txn| {
            for row in &rows {
                check_not_null(t, row)?;
            }
            for row in rows {
                self.db.storage.write_version(txn, t.id, row)?;
            }
            Ok(n)
        })
    }

    pub(crate) fn update(self, u: ast::Update, ctx: Ctx<'_>) -> Result<u64> {
        let db = self.db;
        let t = db.table_named(&u.table)?;
        // the new row, column by column: the SET expression where one
        // is given (the last one wins), the old value otherwise
        let mut new_row: Vec<ast::Expr> = t.columns.iter().map(|c| column_of(t, &c.name)).collect();
        for (c, e) in u.sets {
            let i = column_named(t, &c)?;
            // an aggregate would collapse the target query to one row
            if e.contains_aggregate() {
                return Err(Error::analysis(format!(
                    "aggregate functions are not allowed in UPDATE SET expressions: {e}"
                )));
            }
            new_row[i] = e;
        }
        let target = db.plan_dml_target(t, new_row, u.filter, ctx)?;
        self.with_write_txn(ctx.tracer, |txn| {
            let targets = db.scan_dml_target(txn, t, &target, ctx)?;
            for row in &targets {
                check_not_null(t, row)?;
            }
            let n = targets.len() as u64;
            for mut row in targets {
                db.claim_version(txn, t, rowid_of(&row)?, ctx.tracer)?;
                row.truncate(t.columns.len());
                db.storage.write_version(txn, t.id, row)?;
            }
            Ok(n)
        })
    }

    pub(crate) fn delete(self, d: ast::Delete, ctx: Ctx<'_>) -> Result<u64> {
        let db = self.db;
        let t = db.table_named(&d.table)?;
        let target = db.plan_dml_target(t, Vec::new(), d.filter, ctx)?;
        self.with_write_txn(ctx.tracer, |txn| {
            let targets = db.scan_dml_target(txn, t, &target, ctx)?;
            for row in &targets {
                db.claim_version(txn, t, rowid_of(row)?, ctx.tracer)?;
            }
            Ok(targets.len() as u64)
        })
    }
}

impl Database {
    pub(crate) fn table_named(&self, name: &str) -> Result<&Table> {
        self.catalog
            .table_by_name(name)
            .ok_or_else(|| Error::catalog(format!("unknown table {name}")))
    }

    /// Bulk-loads generated rows into a table (used by the workload
    /// harness; maintains indexes).
    pub fn load_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self.table_named(table)?;
        let ncols = t.columns.len();
        if let Some(r) = rows.iter().find(|r| r.len() != ncols) {
            return Err(Error::execution(format!(
                "row arity {} does not match table {table} ({ncols})",
                r.len()
            )));
        }
        self.scope().with_write_txn(Tracer::disabled(), |txn| {
            for row in rows {
                self.storage.write_version(txn, t.id, row)?;
            }
            Ok(())
        })
    }

    /// Plans the target query of an UPDATE or DELETE over `t` —
    /// `SELECT <outputs>, t.ROWID FROM t WHERE <filter>` — like any
    /// query, so the rows to write are found by the access path the
    /// planner picks and every expression is evaluated by the executor.
    /// The literals of the SET list and the filter become bind slots
    /// ([`parameterize_dml_target`]), so every statement of one shape
    /// shares a cached family. A plan depends on the table's shape, not
    /// its data, so the statement's own commit leaves it warm.
    fn plan_dml_target(
        &self,
        t: &Table,
        outputs: Vec<ast::Expr>,
        filter: Option<ast::Expr>,
        ctx: Ctx<'_>,
    ) -> Result<DmlTarget> {
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
        let (fam, binds) = if self.plan_cache_enabled && self.bind_sharing_enabled {
            let p = parameterize_dml_target(&query);
            (p.query, p.binds)
        } else {
            (query, Vec::new())
        };
        let key = self.family_key(&fam, !binds.is_empty(), None);
        let planned = self.plan_family(key, &fam, &binds, ctx)?;
        Ok(DmlTarget { planned, binds })
    }

    /// Runs a [target plan](Database::plan_dml_target) against the
    /// transaction's snapshot under the statement's governor and returns
    /// its rows, version ordinal last. No engine and no snapshot
    /// outlives [`execute_plan`](Database::execute_plan): every read of
    /// the statement precedes its first write (no Halloween problem),
    /// and the writes that follow find the heap and index `Arc`s
    /// unshared.
    fn scan_dml_target(
        &self,
        txn: u64,
        t: &Table,
        target: &DmlTarget,
        ctx: Ctx<'_>,
    ) -> Result<Vec<Row>> {
        let (plan, binds) = (&target.planned.plan, &target.binds);
        let programs = Some(&target.planned.runtime.programs);
        let (measure, mode) = (Measure::Nothing, self.config.execution_mode);
        let exec = self.execute_plan(
            plan,
            programs,
            binds,
            ctx.governor,
            Some(txn),
            measure,
            mode,
        )?;
        ctx.tracer.emit(|| TraceEvent::DmlTarget {
            table: t.name.clone(),
            access: target_access(plan, t.id),
            rows: exec.rows.len(),
            work: exec.stats.work,
            cached: target.planned.search.is_none(),
        });
        Ok(exec.rows)
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

/// The target plan of an UPDATE or DELETE and the bind values it runs
/// with.
struct DmlTarget {
    planned: Planned,
    binds: Vec<Value>,
}

/// The position of column `name` in `t`.
pub(crate) fn column_named(t: &Table, name: &str) -> Result<usize> {
    t.column_index(name)
        .ok_or_else(|| Error::catalog(format!("unknown column {name}")))
}

/// Evaluates a constant INSERT expression: literals, `NULL`, and the
/// unary `+`/`-` signs (SQL semantics: negating NULL yields NULL).
fn eval_const(e: &ast::Expr) -> Result<Value> {
    match e {
        ast::Expr::Literal(v) => Ok(v.clone()),
        ast::Expr::Unary {
            op: ast::UnOp::Neg,
            expr,
        } => match eval_const(expr)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(d) => Ok(Value::Double(-d)),
            other => Err(Error::analysis(format!(
                "cannot negate non-numeric INSERT value {e}: {other}"
            ))),
        },
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
    plan.visit_entities(&mut |_, entity| {
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
