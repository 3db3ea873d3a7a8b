//! INSERT / UPDATE / DELETE. UPDATE and DELETE have no evaluator of
//! their own: each is a target query
//! ([`Database::dml_target`]) planned the way a query is, from the plan
//! cache or the query pipeline ([`Database::plan_family`]), and one
//! write step ([`Scope::write_targets`]) that reads every target before
//! writing any, then claims and appends versions inside the scope's
//! [write bracket](Scope::with_write_txn). A statement served from its
//! shape's recipe skips the first step and takes the other two.

use crate::serve::{statement_kind, Ctx, Measure, Planned, Scope};
use crate::Database;
use cbqt_catalog::{Table, TableId};
use cbqt_common::{Error, Result, Row, TraceEvent, Tracer, Value};
use cbqt_optimizer::{BlockPlan, PlanEntity, PlanNode};
use cbqt_sql::ast::{self, Statement};
use cbqt_sql::{parameterize_dml_target, Dml, Parameterized, Recipe, RecipeKind, Shape};

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

    /// An UPDATE or DELETE served the full way: its target query, the
    /// family and binds [`parameterize_dml_target`] makes of it, then
    /// [`write_family`](Scope::write_family). With `record`, the shape
    /// of `sql` had no recipe: one is derived from this route and
    /// recorded once the statement has succeeded.
    pub(crate) fn write(
        self,
        stmt: Statement,
        sql: &str,
        record: Option<Shape>,
        ctx: Ctx<'_>,
    ) -> Result<u64> {
        let db = self.db;
        let (dml, t, query) = db.dml_target(stmt)?;
        let (p, key) = db.dml_family(query);
        let Some(shape) = record else {
            return self.write_family(dml, t, key, &p.query, &p.binds, ctx);
        };
        let recipe_key = key.clone();
        let n = self.write_family(dml, t, key, &p.query, &p.binds, ctx)?;
        // in lower case, a hit looks its table up without a copy
        let kind = RecipeKind::Write {
            dml,
            table: t.name.to_ascii_lowercase().into(),
        };
        let recipe =
            recipe_key.and_then(|key| Recipe::derive(sql, &shape, kind, key, p.query, &p.sources));
        if let Some(recipe) = recipe {
            db.plan_cache.insert_recipe(shape, recipe);
        }
        Ok(n)
    }

    /// Plans the target family `fam` of a write to `t` — probe under
    /// `key`, compile on a miss — and writes the rows it finds with
    /// `binds` bound. The full route and the recipe route of UPDATE and
    /// DELETE both end here.
    pub(crate) fn write_family(
        self,
        dml: Dml,
        t: &Table,
        key: Option<String>,
        fam: &ast::Query,
        binds: &[Value],
        ctx: Ctx<'_>,
    ) -> Result<u64> {
        let planned = self.db.plan_family(key, fam, binds, ctx)?;
        self.write_targets(dml, t, &planned, binds, ctx)
    }

    /// The one write step of UPDATE and DELETE, in the write bracket:
    /// scan the targets, check NOT NULL on the new rows of an UPDATE,
    /// claim each target's version and, for an UPDATE, append its new
    /// one.
    fn write_targets(
        self,
        dml: Dml,
        t: &Table,
        planned: &Planned,
        binds: &[Value],
        ctx: Ctx<'_>,
    ) -> Result<u64> {
        let db = self.db;
        self.with_write_txn(ctx.tracer, |txn| {
            let targets = db.scan_dml_target(txn, t, planned, binds, ctx)?;
            if dml == Dml::Update {
                for row in &targets {
                    check_not_null(t, row)?;
                }
            }
            let n = targets.len() as u64;
            for mut row in targets {
                db.claim_version(txn, t, rowid_of(&row)?, ctx.tracer)?;
                if dml == Dml::Update {
                    row.truncate(t.columns.len());
                    db.storage.write_version(txn, t.id, row)?;
                }
            }
            Ok(n)
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

    /// The table an UPDATE or DELETE writes and its target query —
    /// `SELECT <outputs>, t.ROWID FROM t WHERE <filter>` — so the rows
    /// to write are found by the access path the planner picks and every
    /// expression is evaluated by the executor. An UPDATE's outputs are
    /// its new row, column by column: the SET expression where one is
    /// given (the last one wins), the old value otherwise; a DELETE has
    /// none.
    pub(crate) fn dml_target(&self, stmt: Statement) -> Result<(Dml, &Table, ast::Query)> {
        let (dml, t, outputs, filter) = match stmt {
            Statement::Update(u) => {
                let t = self.table_named(&u.table)?;
                let mut new_row: Vec<ast::Expr> =
                    t.columns.iter().map(|c| column_of(t, &c.name)).collect();
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
                (Dml::Update, t, new_row, u.filter)
            }
            Statement::Delete(d) => (
                Dml::Delete,
                self.table_named(&d.table)?,
                Vec::new(),
                d.filter,
            ),
            other => {
                return Err(Error::internal(format!(
                    "{} has no target query",
                    statement_kind(&other)
                )))
            }
        };
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
        Ok((dml, t, query))
    }

    /// The plan family of a target query, with its binds and their
    /// sources, and its key. While the plan cache is on, the literals of
    /// the SET list and the filter become bind slots
    /// ([`parameterize_dml_target`]), so every statement of one shape
    /// shares a cached family. A plan depends on the table's shape, not
    /// its data, so the statement's own commit leaves it warm.
    pub(crate) fn dml_family(&self, query: ast::Query) -> (Parameterized, Option<String>) {
        let p = if self.plan_cache_enabled {
            parameterize_dml_target(&query)
        } else {
            Parameterized {
                query,
                binds: Vec::new(),
                sources: Vec::new(),
            }
        };
        let key = self.family_key(&p.query);
        (p, key)
    }

    /// Runs a target plan against the transaction's snapshot under the
    /// statement's governor and returns its rows, version ordinal last.
    /// No engine and no snapshot outlives
    /// [`execute_plan`](Database::execute_plan): every read of the
    /// statement precedes its first write (no Halloween problem), and
    /// the writes that follow find the heap and index `Arc`s unshared.
    fn scan_dml_target(
        &self,
        txn: u64,
        t: &Table,
        planned: &Planned,
        binds: &[Value],
        ctx: Ctx<'_>,
    ) -> Result<Vec<Row>> {
        let plan = &planned.plan;
        let programs = Some(&planned.runtime.programs);
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
            cached: planned.search.is_none(),
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

/// The position of column `name` in `t`.
pub(crate) fn column_named(t: &Table, name: &str) -> Result<usize> {
    t.column_index(name)
        .ok_or_else(|| Error::catalog(format!("unknown column {name}")))
}

/// Evaluates a constant INSERT expression: literals, `NULL`, and the
/// unary `+`/`-` signs (SQL semantics: negating NULL yields NULL).
fn eval_const(e: &ast::Expr) -> Result<Value> {
    match e {
        ast::Expr::Literal(v, _) => Ok(v.clone()),
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
