//! Lowers a parsed AST into the query-graph model, performing name
//! resolution against the catalog.
//!
//! Normalizations applied here (all semantics-preserving):
//! * `BETWEEN` becomes a conjunction of two comparisons;
//! * `NOT EXISTS` / `NOT IN (subquery)` fold into negated subquery kinds;
//! * ANSI `JOIN ... ON` trees are flattened into the block's table list
//!   (inner-join ON conditions become WHERE conjuncts; outer joins become
//!   [`JoinInfo::LeftOuter`] annotations);
//! * `WHERE ROWNUM < k` conjuncts are extracted into a block limit;
//! * `GROUP BY ROLLUP` expands into grouping sets;
//! * a query-level `ORDER BY` on a set operation is wrapped in a SELECT
//!   block so every ORDER BY belongs to a SELECT.

use crate::model::*;
use cbqt_catalog::Catalog;
use cbqt_common::{Error, Result, Value};
use cbqt_sql::ast::{self, BinOp, Expr, JoinKind, SelectItem, SetExpr, SetOp, TableRef, UnOp};

/// Builds a query tree from an AST query. Bind parameters (`?`) are
/// rejected — use [`build_query_tree_with_binds`].
pub fn build_query_tree(catalog: &Catalog, query: &ast::Query) -> Result<QueryTree> {
    build_query_tree_with_binds(catalog, query, &[])
}

/// Builds a query tree from an AST query whose bind slots take their
/// *peek* values from `binds` (one value per slot, in slot order). The
/// peeks are embedded in [`QExpr::Param`] nodes so the optimizer costs
/// the tree as if the binds were literals; execution may later rebind.
pub fn build_query_tree_with_binds(
    catalog: &Catalog,
    query: &ast::Query,
    binds: &[Value],
) -> Result<QueryTree> {
    let mut b = Builder {
        catalog,
        tree: QueryTree::new(),
        scopes: Vec::new(),
        binds,
    };
    let root = b.build_query(query)?;
    b.tree.root = root;
    b.tree.validate()?;
    Ok(b.tree)
}

/// Column metadata visible through one table reference.
#[derive(Debug, Clone)]
struct ScopeEntry {
    alias: String,
    refid: RefId,
    /// Visible column names, in output order.
    columns: Vec<String>,
    /// Base tables expose a virtual ROWID at ordinal `columns.len()`.
    has_rowid: bool,
}

type Scope = Vec<ScopeEntry>;

struct Builder<'a> {
    catalog: &'a Catalog,
    tree: QueryTree,
    scopes: Vec<Scope>,
    /// Peek values for bind slots, in slot order.
    binds: &'a [Value],
}

impl<'a> Builder<'a> {
    fn build_query(&mut self, q: &ast::Query) -> Result<BlockId> {
        let id = self.build_set_expr(&q.body)?;
        if q.order_by.is_empty() {
            return Ok(id);
        }
        match self.tree.block(id)? {
            QueryBlock::Select(_) => {
                // resolve ORDER BY in the block's own scope
                let scope = self.scope_for_block(id)?;
                self.scopes.push(scope);
                let order = self.resolve_order_items(&q.order_by, Some(id))?;
                self.scopes.pop();
                self.tree.select_mut(id)?.order_by = order;
                Ok(id)
            }
            QueryBlock::SetOp(_) => {
                // wrap in SELECT * FROM (setop) ORDER BY ...
                let names = self.tree.block(id)?.output_names(&self.tree);
                let refid = self.tree.new_ref();
                let select: Vec<OutputItem> = names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| OutputItem {
                        expr: QExpr::col(refid, i),
                        name: n.clone(),
                    })
                    .collect();
                let wrapper = SelectBlock {
                    tables: vec![QTable {
                        refid,
                        alias: "SETOP$".into(),
                        source: QTableSource::View(id),
                        join: JoinInfo::Inner,
                    }],
                    select,
                    ..Default::default()
                };
                let wid = self.tree.add_block(QueryBlock::Select(wrapper));
                let scope = self.scope_for_block(wid)?;
                self.scopes.push(scope);
                let order = self.resolve_order_items(&q.order_by, Some(wid))?;
                self.scopes.pop();
                self.tree.select_mut(wid)?.order_by = order;
                Ok(wid)
            }
        }
    }

    /// Builds the scope exposed by an already-built SELECT block.
    fn scope_for_block(&self, id: BlockId) -> Result<Scope> {
        let s = self.tree.select(id)?;
        let mut scope = Vec::new();
        for t in &s.tables {
            scope.push(self.scope_entry_for(t)?);
        }
        Ok(scope)
    }

    fn scope_entry_for(&self, t: &QTable) -> Result<ScopeEntry> {
        let (columns, has_rowid) = match &t.source {
            QTableSource::Base(tid) => {
                let tbl = self.catalog.table(*tid)?;
                (tbl.columns.iter().map(|c| c.name.clone()).collect(), true)
            }
            QTableSource::View(b) => (self.tree.block(*b)?.output_names(&self.tree), false),
        };
        Ok(ScopeEntry {
            alias: t.alias.clone(),
            refid: t.refid,
            columns,
            has_rowid,
        })
    }

    fn build_set_expr(&mut self, se: &SetExpr) -> Result<BlockId> {
        match se {
            SetExpr::Select(s) => self.build_select(s),
            SetExpr::SetOp { op, left, right } => {
                // flatten same-operator chains for UNION ALL / UNION
                let mut inputs = Vec::new();
                self.flatten_setop(*op, left, &mut inputs)?;
                self.flatten_setop(*op, right, &mut inputs)?;
                let arity = self.tree.block(inputs[0])?.output_arity(&self.tree);
                for i in &inputs {
                    if self.tree.block(*i)?.output_arity(&self.tree) != arity {
                        return Err(Error::analysis("set operands have different column counts"));
                    }
                }
                Ok(self.tree.add_block(QueryBlock::SetOp(SetOpBlock {
                    op: *op,
                    inputs,
                    order_by: Vec::new(),
                })))
            }
        }
    }

    fn flatten_setop(&mut self, op: SetOp, se: &SetExpr, out: &mut Vec<BlockId>) -> Result<()> {
        match se {
            SetExpr::SetOp {
                op: inner_op,
                left,
                right,
            } if *inner_op == op && matches!(op, SetOp::UnionAll | SetOp::Union) => {
                self.flatten_setop(op, left, out)?;
                self.flatten_setop(op, right, out)?;
                Ok(())
            }
            other => {
                out.push(self.build_set_expr(other)?);
                Ok(())
            }
        }
    }

    fn build_select(&mut self, sel: &ast::Select) -> Result<BlockId> {
        let mut blk = SelectBlock {
            distinct: sel.distinct,
            ..Default::default()
        };
        let mut extra_where: Vec<Expr> = Vec::new();

        // FROM: flatten, building scope as we go
        self.scopes.push(Vec::new());
        let result = self.build_select_inner(sel, &mut blk, &mut extra_where);
        self.scopes.pop();
        result?;
        Ok(self.tree.add_block(QueryBlock::Select(blk)))
    }

    fn build_select_inner(
        &mut self,
        sel: &ast::Select,
        blk: &mut SelectBlock,
        _extra: &mut [Expr],
    ) -> Result<()> {
        for tref in &sel.from {
            self.flatten_table_ref(tref, blk)?;
        }

        // WHERE
        if let Some(w) = &sel.where_clause {
            let e = self.resolve_expr(w)?;
            let mut conj = Vec::new();
            e.split_conjuncts(&mut conj);
            blk.where_conjuncts.extend(conj);
        }
        extract_rownum_limit(blk)?;

        // GROUP BY
        if let Some(g) = &sel.group_by {
            for e in &g.exprs {
                blk.group_by.push(self.resolve_expr(e)?);
            }
            if g.rollup {
                let n = blk.group_by.len();
                // ROLLUP(a, b) => {(a,b), (a), ()}
                let sets: Vec<Vec<usize>> = (0..=n).rev().map(|k| (0..k).collect()).collect();
                blk.grouping_sets = Some(sets);
            }
        }

        // HAVING
        if let Some(h) = &sel.having {
            let e = self.resolve_expr(h)?;
            let mut conj = Vec::new();
            e.split_conjuncts(&mut conj);
            blk.having.extend(conj);
        }

        // SELECT list
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    let scope = self.scopes.last().unwrap().clone();
                    for entry in &scope {
                        expand_wildcard(&entry.clone(), blk);
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let scope = self.scopes.last().unwrap().clone();
                    let entry = scope
                        .iter()
                        .find(|e| e.alias.eq_ignore_ascii_case(q))
                        .ok_or_else(|| Error::analysis(format!("unknown alias {q}.*")))?;
                    expand_wildcard(entry, blk);
                }
                SelectItem::Expr { expr, alias } => {
                    let e = self.resolve_expr(expr)?;
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| derive_name(expr, blk.select.len()));
                    blk.select.push(OutputItem { expr: e, name });
                }
            }
        }
        if blk.select.is_empty() {
            return Err(Error::analysis("empty select list"));
        }

        // aggregate validity: aggregates may not appear in WHERE
        for c in &blk.where_conjuncts {
            if c.contains_agg() {
                return Err(Error::analysis("aggregate function not allowed in WHERE"));
            }
        }
        Ok(())
    }

    fn flatten_table_ref(&mut self, tref: &TableRef, blk: &mut SelectBlock) -> Result<()> {
        match tref {
            TableRef::Table { .. } | TableRef::Derived { .. } => {
                let qt = self.build_table_primary(tref, JoinInfo::Inner)?;
                let entry = self.scope_entry_for(&qt)?;
                blk.tables.push(qt);
                self.scopes.last_mut().unwrap().push(entry);
                Ok(())
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => match kind {
                JoinKind::Inner | JoinKind::Cross => {
                    self.flatten_table_ref(left, blk)?;
                    self.flatten_table_ref(right, blk)?;
                    if let Some(cond) = on {
                        let e = self.resolve_expr(cond)?;
                        let mut conj = Vec::new();
                        e.split_conjuncts(&mut conj);
                        blk.where_conjuncts.extend(conj);
                    }
                    Ok(())
                }
                JoinKind::LeftOuter => {
                    self.flatten_table_ref(left, blk)?;
                    self.add_outer_side(right, on, blk)
                }
                JoinKind::RightOuter => {
                    // a RIGHT JOIN b == b LEFT JOIN a
                    self.flatten_table_ref(right, blk)?;
                    self.add_outer_side(left, on, blk)
                }
            },
        }
    }

    fn add_outer_side(
        &mut self,
        side: &TableRef,
        on: &Option<Expr>,
        blk: &mut SelectBlock,
    ) -> Result<()> {
        if matches!(side, TableRef::Join { .. }) {
            return Err(Error::unsupported(
                "the null-producing side of an outer join must be a single table or view",
            ));
        }
        let mut qt = self.build_table_primary(side, JoinInfo::Inner)?;
        let entry = self.scope_entry_for(&qt)?;
        self.scopes.last_mut().unwrap().push(entry);
        let cond = on
            .as_ref()
            .ok_or_else(|| Error::analysis("outer join requires an ON condition"))?;
        let e = self.resolve_expr(cond)?;
        let mut conj = Vec::new();
        e.split_conjuncts(&mut conj);
        qt.join = JoinInfo::LeftOuter { on: conj };
        blk.tables.push(qt);
        Ok(())
    }

    fn build_table_primary(&mut self, tref: &TableRef, join: JoinInfo) -> Result<QTable> {
        match tref {
            TableRef::Table { name, alias } => {
                let tbl = self
                    .catalog
                    .table_by_name(name)
                    .ok_or_else(|| Error::analysis(format!("unknown table {name}")))?;
                let refid = self.tree.new_ref();
                Ok(QTable {
                    refid,
                    alias: alias.clone().unwrap_or_else(|| name.clone()),
                    source: QTableSource::Base(tbl.id),
                    join,
                })
            }
            TableRef::Derived { query, alias } => {
                let block = self.build_query(query)?;
                let refid = self.tree.new_ref();
                Ok(QTable {
                    refid,
                    alias: alias.clone(),
                    source: QTableSource::View(block),
                    join,
                })
            }
            TableRef::Join { .. } => Err(Error::analysis("nested join cannot be aliased")),
        }
    }

    // -- expression resolution -------------------------------------------

    fn resolve_expr(&mut self, e: &Expr) -> Result<QExpr> {
        match e {
            Expr::Column { qualifier, name } => self.resolve_column(qualifier.as_deref(), name),
            Expr::Literal(v, _) => Ok(QExpr::Lit(v.clone())),
            Expr::Param(slot) => match self.binds.get(*slot) {
                Some(v) => Ok(QExpr::Param {
                    slot: *slot,
                    peek: v.clone(),
                }),
                None => Err(Error::analysis(format!(
                    "bind parameter ?{slot} has no value ({} supplied)",
                    self.binds.len()
                ))),
            },
            Expr::Binary { op, left, right } => {
                let l = self.resolve_expr(left)?;
                let r = self.resolve_expr(right)?;
                Ok(QExpr::bin(*op, l, r))
            }
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => Ok(QExpr::Neg(Box::new(self.resolve_expr(expr)?))),
            Expr::Unary {
                op: UnOp::Not,
                expr,
            } => {
                let inner = self.resolve_expr(expr)?;
                Ok(negate(inner))
            }
            Expr::IsNull { expr, negated } => Ok(QExpr::IsNull {
                expr: Box::new(self.resolve_expr(expr)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let e = self.resolve_expr(expr)?;
                let list = list
                    .iter()
                    .map(|x| self.resolve_expr(x))
                    .collect::<Result<_>>()?;
                Ok(QExpr::InList {
                    expr: Box::new(e),
                    list,
                    negated: *negated,
                })
            }
            Expr::InSubquery {
                exprs,
                query,
                negated,
            } => {
                let lhs: Vec<QExpr> = exprs
                    .iter()
                    .map(|x| self.resolve_expr(x))
                    .collect::<Result<_>>()?;
                let block = self.build_query(query)?;
                let arity = self.tree.block(block)?.output_arity(&self.tree);
                if arity != lhs.len() {
                    return Err(Error::analysis(format!(
                        "IN subquery returns {arity} columns, {} expected",
                        lhs.len()
                    )));
                }
                Ok(QExpr::Subq {
                    block,
                    kind: SubqKind::In {
                        lhs,
                        negated: *negated,
                    },
                })
            }
            Expr::Exists { query, negated } => {
                let block = self.build_query(query)?;
                Ok(QExpr::Subq {
                    block,
                    kind: SubqKind::Exists { negated: *negated },
                })
            }
            Expr::Quantified {
                op,
                quant,
                left,
                query,
            } => {
                let lhs = self.resolve_expr(left)?;
                let block = self.build_query(query)?;
                if self.tree.block(block)?.output_arity(&self.tree) != 1 {
                    return Err(Error::analysis(
                        "quantified subquery must return one column",
                    ));
                }
                Ok(QExpr::Subq {
                    block,
                    kind: SubqKind::Quant {
                        op: *op,
                        quant: *quant,
                        lhs: Box::new(lhs),
                    },
                })
            }
            Expr::ScalarSubquery(query) => {
                let block = self.build_query(query)?;
                if self.tree.block(block)?.output_arity(&self.tree) != 1 {
                    return Err(Error::analysis("scalar subquery must return one column"));
                }
                Ok(QExpr::Subq {
                    block,
                    kind: SubqKind::Scalar,
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.resolve_expr(expr)?;
                let lo = self.resolve_expr(low)?;
                let hi = self.resolve_expr(high)?;
                let both = QExpr::bin(
                    BinOp::And,
                    QExpr::bin(BinOp::GtEq, e.clone(), lo),
                    QExpr::bin(BinOp::LtEq, e, hi),
                );
                Ok(if *negated { negate(both) } else { both })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(QExpr::Like {
                expr: Box::new(self.resolve_expr(expr)?),
                pattern: Box::new(self.resolve_expr(pattern)?),
                negated: *negated,
            }),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let operand = match operand {
                    Some(o) => Some(Box::new(self.resolve_expr(o)?)),
                    None => None,
                };
                let branches = branches
                    .iter()
                    .map(|(w, t)| Ok((self.resolve_expr(w)?, self.resolve_expr(t)?)))
                    .collect::<Result<_>>()?;
                let else_expr = match else_expr {
                    Some(o) => Some(Box::new(self.resolve_expr(o)?)),
                    None => None,
                };
                Ok(QExpr::Case {
                    operand,
                    branches,
                    else_expr,
                })
            }
            Expr::Func {
                name,
                args,
                distinct,
                window,
            } => self.resolve_func(name, args, *distinct, window.as_ref()),
            Expr::Rownum => Ok(QExpr::Func {
                name: "$ROWNUM".into(),
                args: vec![],
            }),
        }
    }

    fn resolve_func(
        &mut self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        window: Option<&ast::WindowSpec>,
    ) -> Result<QExpr> {
        let upper = name.to_ascii_uppercase();
        if upper == "$ROW" {
            return Err(Error::analysis(
                "row expression is only valid before IN (subquery)",
            ));
        }
        let agg = match upper.as_str() {
            "COUNT" if args.is_empty() => Some(AggFunc::CountStar),
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        };
        if let Some(func) = agg {
            if args.len() > 1 {
                return Err(Error::analysis(format!(
                    "{upper} takes at most one argument"
                )));
            }
            let arg = match args.first() {
                Some(a) => Some(Box::new(self.resolve_expr(a)?)),
                None => None,
            };
            if func != AggFunc::CountStar && arg.is_none() {
                return Err(Error::analysis(format!("{upper} requires an argument")));
            }
            if let Some(w) = window {
                let partition_by = w
                    .partition_by
                    .iter()
                    .map(|e| self.resolve_expr(e))
                    .collect::<Result<_>>()?;
                let order_by = self.resolve_order_items(&w.order_by, None)?;
                return Ok(QExpr::Win {
                    func: WinFunc::Agg(func),
                    arg,
                    partition_by,
                    order_by,
                });
            }
            return Ok(QExpr::Agg {
                func,
                arg,
                distinct,
            });
        }
        if upper == "ROW_NUMBER" {
            let w = window.ok_or_else(|| Error::analysis("ROW_NUMBER requires an OVER clause"))?;
            let partition_by = w
                .partition_by
                .iter()
                .map(|e| self.resolve_expr(e))
                .collect::<Result<_>>()?;
            let order_by = self.resolve_order_items(&w.order_by, None)?;
            return Ok(QExpr::Win {
                func: WinFunc::RowNumber,
                arg: None,
                partition_by,
                order_by,
            });
        }
        if window.is_some() {
            return Err(Error::unsupported(format!("window function {upper}")));
        }
        const SCALARS: &[(&str, usize, usize)] = &[
            ("UPPER", 1, 1),
            ("LOWER", 1, 1),
            ("LENGTH", 1, 1),
            ("ABS", 1, 1),
            ("MOD", 2, 2),
            ("FLOOR", 1, 1),
            ("CEIL", 1, 1),
            ("SIGN", 1, 1),
            ("NVL", 2, 2),
            ("LNNVL", 1, 1),
            // EXPENSIVE(expr [, work_units]) — deterministic CPU burner
            // standing in for the paper's procedural-language predicates.
            ("EXPENSIVE", 1, 2),
        ];
        let spec = SCALARS.iter().find(|(n, _, _)| *n == upper);
        let Some((_, lo, hi)) = spec else {
            return Err(Error::analysis(format!("unknown function {upper}")));
        };
        if args.len() < *lo || args.len() > *hi {
            return Err(Error::analysis(format!("wrong argument count for {upper}")));
        }
        let args = args
            .iter()
            .map(|a| self.resolve_expr(a))
            .collect::<Result<_>>()?;
        Ok(QExpr::Func { name: upper, args })
    }

    fn resolve_order_items(
        &mut self,
        items: &[ast::OrderItem],
        block: Option<BlockId>,
    ) -> Result<Vec<QOrder>> {
        items
            .iter()
            .map(|o| {
                // positional ORDER BY (ORDER BY 2) and select-alias refs
                let expr = if let (Some(b), Expr::Literal(Value::Int(i), _)) = (block, &o.expr) {
                    let s = self.tree.select(b)?;
                    let idx = (*i - 1) as usize;
                    s.select
                        .get(idx)
                        .map(|item| item.expr.clone())
                        .ok_or_else(|| Error::analysis(format!("ORDER BY position {i} invalid")))?
                } else if let (
                    Some(b),
                    Expr::Column {
                        qualifier: None,
                        name,
                    },
                ) = (block, &o.expr)
                {
                    let s = self.tree.select(b)?;
                    match s
                        .select
                        .iter()
                        .find(|it| it.name.eq_ignore_ascii_case(name))
                    {
                        Some(item) => item.expr.clone(),
                        None => self.resolve_expr(&o.expr)?,
                    }
                } else {
                    self.resolve_expr(&o.expr)?
                };
                Ok(QOrder {
                    expr,
                    desc: o.desc,
                    // Oracle default: NULLS LAST for ASC, NULLS FIRST for DESC
                    nulls_first: o.nulls_first.unwrap_or(o.desc),
                })
            })
            .collect()
    }

    fn resolve_column(&mut self, qualifier: Option<&str>, name: &str) -> Result<QExpr> {
        if let Some(q) = qualifier {
            for scope in self.scopes.iter().rev() {
                if let Some(entry) = scope.iter().find(|e| e.alias.eq_ignore_ascii_case(q)) {
                    return column_in_entry(entry, name)
                        .ok_or_else(|| Error::analysis(format!("column {name} not found in {q}")));
                }
            }
            return Err(Error::analysis(format!("unknown table alias {q}")));
        }
        for scope in self.scopes.iter().rev() {
            let mut matches = Vec::new();
            for entry in scope {
                if let Some(e) = column_in_entry(entry, name) {
                    matches.push(e);
                }
            }
            match matches.len() {
                0 => continue,
                1 => return Ok(matches.pop().unwrap()),
                _ => return Err(Error::analysis(format!("ambiguous column {name}"))),
            }
        }
        Err(Error::analysis(format!("unknown column {name}")))
    }
}

fn column_in_entry(entry: &ScopeEntry, name: &str) -> Option<QExpr> {
    if entry.has_rowid && name.eq_ignore_ascii_case("ROWID") {
        return Some(QExpr::col(entry.refid, entry.columns.len()));
    }
    entry
        .columns
        .iter()
        .position(|c| c.eq_ignore_ascii_case(name))
        .map(|i| QExpr::col(entry.refid, i))
}

fn expand_wildcard(entry: &ScopeEntry, blk: &mut SelectBlock) {
    for (i, c) in entry.columns.iter().enumerate() {
        blk.select.push(OutputItem {
            expr: QExpr::col(entry.refid, i),
            name: c.clone(),
        });
    }
}

/// Applies `NOT` with subquery-aware folding.
fn negate(e: QExpr) -> QExpr {
    match e {
        QExpr::Subq {
            block,
            kind: SubqKind::Exists { negated },
        } => QExpr::Subq {
            block,
            kind: SubqKind::Exists { negated: !negated },
        },
        QExpr::Subq {
            block,
            kind: SubqKind::In { lhs, negated },
        } => QExpr::Subq {
            block,
            kind: SubqKind::In {
                lhs,
                negated: !negated,
            },
        },
        QExpr::IsNull { expr, negated } => QExpr::IsNull {
            expr,
            negated: !negated,
        },
        QExpr::Not(inner) => *inner,
        other => QExpr::Not(Box::new(other)),
    }
}

fn derive_name(e: &Expr, ordinal: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.to_ascii_uppercase(),
        _ => format!("EXPR${ordinal}"),
    }
}

/// Extracts `ROWNUM < k` / `ROWNUM <= k` conjuncts into
/// [`SelectBlock::rownum_limit`]; any other ROWNUM use is rejected.
fn extract_rownum_limit(blk: &mut SelectBlock) -> Result<()> {
    let mut kept = Vec::new();
    let mut limit: Option<u64> = None;
    for c in std::mem::take(&mut blk.where_conjuncts) {
        match rownum_bound(&c) {
            Some(n) => limit = Some(limit.map_or(n, |l| l.min(n))),
            None => kept.push(c),
        }
    }
    // reject residual ROWNUM references
    for c in &kept {
        let mut bad = false;
        c.walk(&mut |e| {
            if matches!(e, QExpr::Func { name, .. } if name == "$ROWNUM") {
                bad = true;
            }
        });
        if bad {
            return Err(Error::unsupported(
                "ROWNUM is only supported as a top-level 'ROWNUM < k' conjunct",
            ));
        }
    }
    blk.where_conjuncts = kept;
    if limit.is_some() {
        blk.rownum_limit = limit;
    }
    Ok(())
}

fn rownum_bound(e: &QExpr) -> Option<u64> {
    let QExpr::Bin { op, left, right } = e else {
        return None;
    };
    let is_rownum = |x: &QExpr| matches!(x, QExpr::Func { name, .. } if name == "$ROWNUM");
    let lit = |x: &QExpr| match x {
        QExpr::Lit(Value::Int(i)) => Some(*i),
        _ => None,
    };
    if is_rownum(left) {
        let n = lit(right)?;
        return match op {
            BinOp::Lt => Some((n - 1).max(0) as u64),
            BinOp::LtEq => Some(n.max(0) as u64),
            _ => None,
        };
    }
    if is_rownum(right) {
        let n = lit(left)?;
        return match op {
            BinOp::Gt => Some((n - 1).max(0) as u64),
            BinOp::GtEq => Some(n.max(0) as u64),
            _ => None,
        };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_catalog::{Column, Constraint, ForeignKey};
    use cbqt_common::DataType;
    use cbqt_sql::parse_query;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let icol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Int,
            not_null: false,
        };
        let scol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Str,
            not_null: false,
        };
        let loc = cat
            .add_table(
                "locations",
                vec![icol("loc_id"), scol("country_id"), scol("city")],
                vec![Constraint::PrimaryKey(vec![0])],
            )
            .unwrap();
        let dept = cat
            .add_table(
                "departments",
                vec![icol("dept_id"), scol("department_name"), icol("loc_id")],
                vec![
                    Constraint::PrimaryKey(vec![0]),
                    Constraint::ForeignKey(ForeignKey {
                        columns: vec![2],
                        parent: loc,
                        parent_columns: vec![0],
                    }),
                ],
            )
            .unwrap();
        cat.add_table(
            "employees",
            vec![
                icol("emp_id"),
                scol("employee_name"),
                icol("dept_id"),
                icol("salary"),
                icol("mgr_id"),
            ],
            vec![
                Constraint::PrimaryKey(vec![0]),
                Constraint::ForeignKey(ForeignKey {
                    columns: vec![2],
                    parent: dept,
                    parent_columns: vec![0],
                }),
            ],
        )
        .unwrap();
        cat.add_table(
            "job_history",
            vec![
                icol("emp_id"),
                scol("job_title"),
                icol("start_date"),
                icol("dept_id"),
            ],
            vec![],
        )
        .unwrap();
        cat
    }

    fn build(sql: &str) -> QueryTree {
        let cat = catalog();
        build_query_tree(&cat, &parse_query(sql).unwrap()).unwrap()
    }

    fn build_err(sql: &str) -> Error {
        let cat = catalog();
        build_query_tree(&cat, &parse_query(sql).unwrap()).unwrap_err()
    }

    #[test]
    fn simple_select_resolves() {
        let t = build("SELECT e.employee_name, salary FROM employees e WHERE e.dept_id = 10");
        let s = t.select(t.root).unwrap();
        assert_eq!(s.tables.len(), 1);
        assert_eq!(s.select.len(), 2);
        assert_eq!(s.select[0].name, "employee_name");
        assert_eq!(s.where_conjuncts.len(), 1);
    }

    #[test]
    fn wildcard_expansion() {
        let t = build("SELECT * FROM departments");
        let s = t.select(t.root).unwrap();
        assert_eq!(s.select.len(), 3);
        assert_eq!(s.select[1].name, "department_name");
    }

    #[test]
    fn qualified_wildcard() {
        let t = build("SELECT d.* , e.salary FROM departments d, employees e");
        let s = t.select(t.root).unwrap();
        assert_eq!(s.select.len(), 4);
    }

    #[test]
    fn ambiguous_column_rejected() {
        let e = build_err("SELECT dept_id FROM employees, departments");
        assert!(matches!(e, Error::Analysis(_)));
    }

    #[test]
    fn unknown_table_rejected() {
        let e = build_err("SELECT x FROM nonexistent");
        assert!(e.to_string().contains("unknown table"));
    }

    #[test]
    fn correlated_subquery_resolves_outer() {
        let t = build(
            "SELECT e1.employee_name FROM employees e1 WHERE e1.salary > \
             (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id)",
        );
        let s = t.select(t.root).unwrap();
        let sub = s.subquery_blocks();
        assert_eq!(sub.len(), 1);
        assert!(t.is_correlated(sub[0]));
    }

    #[test]
    fn ansi_inner_join_flattens() {
        let t = build(
            "SELECT e.employee_name FROM employees e JOIN departments d ON e.dept_id = d.dept_id",
        );
        let s = t.select(t.root).unwrap();
        assert_eq!(s.tables.len(), 2);
        assert!(s.tables.iter().all(|t| t.join.is_inner()));
        assert_eq!(s.where_conjuncts.len(), 1);
    }

    #[test]
    fn left_outer_join_annotated() {
        let t = build(
            "SELECT e.employee_name FROM employees e LEFT JOIN departments d ON e.dept_id = d.dept_id",
        );
        let s = t.select(t.root).unwrap();
        assert_eq!(s.tables.len(), 2);
        assert!(matches!(s.tables[1].join, JoinInfo::LeftOuter { .. }));
        assert!(s.where_conjuncts.is_empty());
    }

    #[test]
    fn right_outer_join_swapped() {
        let t = build(
            "SELECT e.employee_name FROM departments d RIGHT JOIN employees e ON e.dept_id = d.dept_id",
        );
        let s = t.select(t.root).unwrap();
        // employees becomes the preserved side (first), departments annotated
        assert_eq!(s.tables[0].alias, "e");
        assert!(matches!(s.tables[1].join, JoinInfo::LeftOuter { .. }));
    }

    #[test]
    fn rownum_extracted() {
        let t = build("SELECT employee_name FROM employees WHERE rownum < 20 AND salary > 10");
        let s = t.select(t.root).unwrap();
        assert_eq!(s.rownum_limit, Some(19));
        assert_eq!(s.where_conjuncts.len(), 1);
    }

    #[test]
    fn rownum_in_complex_position_rejected() {
        let e = build_err("SELECT employee_name FROM employees WHERE rownum + 1 < 20");
        assert!(matches!(e, Error::Unsupported(_)));
    }

    #[test]
    fn rollup_grouping_sets() {
        let t = build("SELECT dept_id, COUNT(*) FROM employees GROUP BY ROLLUP (dept_id, mgr_id)");
        let s = t.select(t.root).unwrap();
        assert_eq!(s.group_by.len(), 2);
        assert_eq!(s.grouping_sets, Some(vec![vec![0, 1], vec![0], vec![]]));
    }

    #[test]
    fn between_normalized() {
        let t = build("SELECT employee_name FROM employees WHERE salary BETWEEN 10 AND 20");
        let s = t.select(t.root).unwrap();
        assert_eq!(s.where_conjuncts.len(), 2);
    }

    #[test]
    fn union_all_flattened() {
        let t = build(
            "SELECT emp_id FROM employees UNION ALL SELECT emp_id FROM job_history \
             UNION ALL SELECT dept_id FROM departments",
        );
        match t.block(t.root).unwrap() {
            QueryBlock::SetOp(s) => {
                assert_eq!(s.op, SetOp::UnionAll);
                assert_eq!(s.inputs.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn setop_arity_mismatch_rejected() {
        let e = build_err(
            "SELECT emp_id, salary FROM employees UNION ALL SELECT emp_id FROM job_history",
        );
        assert!(e.to_string().contains("column counts"));
    }

    #[test]
    fn setop_with_order_by_wrapped() {
        let t = build(
            "SELECT emp_id FROM employees UNION ALL SELECT emp_id FROM job_history ORDER BY emp_id",
        );
        let s = t.select(t.root).unwrap();
        assert_eq!(s.tables.len(), 1);
        assert!(matches!(s.tables[0].source, QTableSource::View(_)));
        assert_eq!(s.order_by.len(), 1);
    }

    #[test]
    fn order_by_position_and_alias() {
        let t = build("SELECT salary * 2 AS dbl, emp_id FROM employees ORDER BY 1, dbl DESC");
        let s = t.select(t.root).unwrap();
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].expr, s.select[0].expr);
        assert!(s.order_by[1].desc);
        // Oracle default nulls: DESC => nulls first
        assert!(s.order_by[1].nulls_first);
    }

    #[test]
    fn rowid_pseudo_column() {
        let t = build("SELECT e.rowid FROM employees e");
        let s = t.select(t.root).unwrap();
        // employees has 5 columns, rowid is ordinal 5
        assert_eq!(s.select[0].expr, QExpr::col(s.tables[0].refid, 5));
    }

    #[test]
    fn not_exists_folds() {
        let t = build(
            "SELECT d.dept_id FROM departments d WHERE NOT EXISTS \
             (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)",
        );
        let s = t.select(t.root).unwrap();
        assert!(matches!(
            &s.where_conjuncts[0],
            QExpr::Subq {
                kind: SubqKind::Exists { negated: true },
                ..
            }
        ));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let e = build_err("SELECT emp_id FROM employees WHERE SUM(salary) > 10");
        assert!(e.to_string().contains("not allowed in WHERE"));
    }

    #[test]
    fn unknown_function_rejected() {
        let e = build_err("SELECT FOO(salary) FROM employees");
        assert!(e.to_string().contains("unknown function"));
    }

    #[test]
    fn window_function_resolves() {
        let t = build(
            "SELECT emp_id, AVG(salary) OVER (PARTITION BY dept_id ORDER BY emp_id) FROM employees",
        );
        let s = t.select(t.root).unwrap();
        assert!(s.select[1].expr.contains_window());
        assert!(!s.is_aggregated());
    }

    #[test]
    fn derived_table_columns_visible() {
        let t = build(
            "SELECT v.avg_sal FROM (SELECT dept_id, AVG(salary) avg_sal FROM employees GROUP BY dept_id) v \
             WHERE v.dept_id = 5",
        );
        let s = t.select(t.root).unwrap();
        assert!(matches!(s.tables[0].source, QTableSource::View(_)));
        // avg_sal is output 1 of the view
        assert_eq!(s.select[0].expr, QExpr::col(s.tables[0].refid, 1));
    }

    #[test]
    fn paper_q1_builds() {
        let t = build(
            "SELECT e1.employee_name, j.job_title \
             FROM employees e1, job_history j \
             WHERE e1.emp_id = j.emp_id AND j.start_date > 19980101 AND \
                   e1.salary > (SELECT AVG(e2.salary) FROM employees e2 \
                                WHERE e2.dept_id = e1.dept_id) AND \
                   e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
                                  WHERE d.loc_id = l.loc_id AND l.country_id = 'US')",
        );
        let s = t.select(t.root).unwrap();
        assert_eq!(s.tables.len(), 2);
        let subs = s.subquery_blocks();
        assert_eq!(subs.len(), 2);
        assert!(t.is_correlated(subs[0]));
        assert!(!t.is_correlated(subs[1]));
        // bottom-up order visits both subqueries before the root
        let order = t.bottom_up();
        assert_eq!(*order.last().unwrap(), t.root);
        assert_eq!(order.len(), 3);
    }
}
