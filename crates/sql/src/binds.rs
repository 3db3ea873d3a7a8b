//! Literal extraction into bind parameters.
//!
//! [`parameterize`] rewrites a query so that constant literals in
//! predicate positions (`WHERE` / `HAVING` / `JOIN ... ON`, recursively
//! through subqueries and derived tables) become positional
//! [`Expr::Param`] slots, returning the extracted values alongside the
//! rewritten query. One cached plan can then serve the whole query
//! family (`salary = 100` vs `salary = 200`), with adaptive cursor
//! sharing deciding upstream whether the bound values still fit the
//! plan's selectivity bucket.
//!
//! Extraction rules:
//! - only predicate positions are touched: the SELECT list, `GROUP BY`,
//!   `ORDER BY`, and window specifications keep their literals (they
//!   shape the output, not the plan's selectivity);
//! - `ROWNUM` comparisons keep their bound — the optimizer folds
//!   `ROWNUM <= k` into a limit at plan time, so `k` is part of the
//!   plan's shape;
//! - `LIKE` patterns stay literal (pattern shape drives the estimator);
//! - `TRUE`/`FALSE`/`NULL` stay literal (three-valued-logic shortcuts
//!   fire at normalization time);
//! - a statement that already contains explicit `?` placeholders is
//!   returned untouched: the caller controls its binds.
//!
//! Every slot also reports where the parser read its literal
//! ([`Parameterized::sources`]): the literal a statement-shape recipe
//! reads the slot from, whatever values the literals hold.
//!
//! [`parameterize_dml_target`] applies the same rules to the target
//! query of an UPDATE or DELETE and also extracts the literals of its
//! top-level SELECT list, which holds the SET expressions.
//!
//! Slots are assigned in token order (the order the clauses render in),
//! so a family key produced by [`crate::render::render_query`] re-parses
//! with identical slot numbering — extracted-literal and hand-written
//! `?` forms of the same query family share one cache key *and* one
//! slot layout.

use crate::ast::*;
use cbqt_common::value::Value;

/// Result of [`parameterize`].
#[derive(Debug, Clone)]
pub struct Parameterized {
    /// The rewritten query; extracted literal sites hold `Expr::Param`.
    pub query: Query,
    /// Extracted literal values, indexed by slot. Empty when the input
    /// already used explicit placeholders (or had nothing to extract).
    pub binds: Vec<Value>,
    /// Where the parser read each slot's literal ([`Stamp`]), indexed
    /// by slot.
    pub sources: Vec<Option<Source>>,
}

/// Extract predicate literals into bind parameters. See the module
/// docs for the eligibility rules.
pub fn parameterize(q: &Query) -> Parameterized {
    extract(q, false)
}

/// [`parameterize`] for the target query of an UPDATE or DELETE,
/// `SELECT <new row>, ROWID FROM t WHERE <filter>`: the literals of the
/// top-level SELECT list — the SET expressions — become bind slots as
/// well, so `SET v = 7 WHERE k = 3` and `SET v = 9 WHERE k = 4` share
/// one family. Those outputs are written back, never returned, so no
/// result shape depends on them.
pub fn parameterize_dml_target(q: &Query) -> Parameterized {
    extract(q, true)
}

fn extract(q: &Query, items: bool) -> Parameterized {
    let mut x = Extract {
        binds: Vec::new(),
        sources: Vec::new(),
        items,
    };
    let mut query = q.clone();
    if count_params(q) == 0 {
        x.query(&mut query);
    }
    Parameterized {
        query,
        binds: x.binds,
        sources: x.sources,
    }
}

/// Number of bind slots a query expects (`max slot + 1` across every
/// clause, including subqueries and derived tables).
pub fn count_params(q: &Query) -> usize {
    let mut max: Option<usize> = None;
    for_each_expr(q, &mut |e| {
        if let Expr::Param(i) = e {
            max = Some(max.map_or(*i, |m| m.max(*i)));
        }
    });
    max.map_or(0, |m| m + 1)
}

// ---------------------------------------------------------------------
// deep traversal helpers
// ---------------------------------------------------------------------

/// Visit `q` and every nested query (derived tables and expression
/// subqueries, to any depth).
pub fn for_each_query<'a>(q: &'a Query, f: &mut impl FnMut(&'a Query)) {
    let mut stack: Vec<&'a Query> = vec![q];
    while let Some(q) = stack.pop() {
        f(q);
        let mut kids: Vec<&'a Query> = Vec::new();
        for_each_select(&q.body, &mut |s| {
            for item in &s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    nested_queries(expr, &mut kids);
                }
            }
            for t in &s.from {
                from_queries(t, &mut kids);
            }
            for e in [&s.where_clause, &s.having].into_iter().flatten() {
                nested_queries(e, &mut kids);
            }
            if let Some(g) = &s.group_by {
                for e in &g.exprs {
                    nested_queries(e, &mut kids);
                }
            }
        });
        for o in &q.order_by {
            nested_queries(&o.expr, &mut kids);
        }
        // Preorder, left to right: push children reversed so the first
        // child pops first.
        stack.extend(kids.into_iter().rev());
    }
}

/// Visit every `Select` block in a set-expression tree (not descending
/// into derived tables or subqueries — pair with [`for_each_query`]).
fn for_each_select<'a>(s: &'a SetExpr, f: &mut impl FnMut(&'a Select)) {
    match s {
        SetExpr::Select(sel) => f(sel),
        SetExpr::SetOp { left, right, .. } => {
            for_each_select(left, f);
            for_each_select(right, f);
        }
    }
}

fn from_queries<'a>(t: &'a TableRef, out: &mut Vec<&'a Query>) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Derived { query, .. } => out.push(query),
        TableRef::Join {
            left, right, on, ..
        } => {
            from_queries(left, out);
            from_queries(right, out);
            if let Some(e) = on {
                nested_queries(e, out);
            }
        }
    }
}

/// Every subquery body under `e`: an expression's own body after
/// those of its children.
fn nested_queries<'a>(e: &'a Expr, out: &mut Vec<&'a Query>) {
    e.for_each_child(|c| nested_queries(c, out));
    out.extend(e.subquery());
}

/// Visit every expression node in the statement, including inside
/// subqueries and derived tables.
pub fn for_each_expr(q: &Query, f: &mut impl FnMut(&Expr)) {
    for_each_query(q, &mut |q| {
        for_each_select(&q.body, &mut |s| {
            for item in &s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    expr.walk(f);
                }
            }
            for t in &s.from {
                from_exprs(t, f);
            }
            for e in [&s.where_clause, &s.having].into_iter().flatten() {
                e.walk(f);
            }
            if let Some(g) = &s.group_by {
                for e in &g.exprs {
                    e.walk(f);
                }
            }
        });
        for o in &q.order_by {
            o.expr.walk(f);
        }
    });
}

fn from_exprs(t: &TableRef, f: &mut impl FnMut(&Expr)) {
    match t {
        TableRef::Table { .. } | TableRef::Derived { .. } => {}
        TableRef::Join {
            left, right, on, ..
        } => {
            from_exprs(left, f);
            from_exprs(right, f);
            if let Some(e) = on {
                e.walk(f);
            }
        }
    }
}

// ---------------------------------------------------------------------
// the extraction rewrite
// ---------------------------------------------------------------------

struct Extract {
    binds: Vec<Value>,
    sources: Vec<Option<Source>>,
    /// Extract from the next SELECT list too (the top-level one of a
    /// DML target query; cleared once used).
    items: bool,
}

impl Extract {
    // Traversal order mirrors `render_query` exactly so slot numbers
    // match token order in the rendered family key.

    fn query(&mut self, q: &mut Query) {
        self.set_expr(&mut q.body);
    }

    fn set_expr(&mut self, s: &mut SetExpr) {
        match s {
            SetExpr::Select(sel) => self.select(sel),
            SetExpr::SetOp { left, right, .. } => {
                self.set_expr(left);
                self.set_expr(right);
            }
        }
    }

    fn select(&mut self, s: &mut Select) {
        if std::mem::take(&mut self.items) {
            for item in &mut s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    self.expr(expr);
                }
            }
        }
        for t in &mut s.from {
            self.table_ref(t);
        }
        for e in [&mut s.where_clause, &mut s.having].into_iter().flatten() {
            self.expr(e);
        }
    }

    fn table_ref(&mut self, t: &mut TableRef) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Derived { query, .. } => self.query(query),
            TableRef::Join {
                left, right, on, ..
            } => {
                self.table_ref(left);
                self.table_ref(right);
                if let Some(e) = on {
                    self.expr(e);
                }
            }
        }
    }

    /// Rewrite within a predicate position.
    fn expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Literal(v, Stamp(source)) if extractable(v) => {
                self.sources.push(*source);
                let slot = Expr::Param(self.binds.len());
                if let Expr::Literal(v, _) = std::mem::replace(e, slot) {
                    self.binds.push(v);
                }
            }
            // ROWNUM bounds are folded into the plan; keep them literal.
            Expr::Binary { op, left, right }
                if op.is_comparison()
                    && (matches!(**left, Expr::Rownum) || matches!(**right, Expr::Rownum)) => {}
            // The pattern's shape drives selectivity estimation; only
            // the tested expression is rewritten.
            Expr::Like { expr, .. } => self.expr(expr),
            // Window clauses are not predicate positions; args are.
            Expr::Func { args, .. } => args.iter_mut().for_each(|a| self.expr(a)),
            _ => {
                e.for_each_child_mut(|c| self.expr(c));
                if let Some(q) = e.subquery_mut() {
                    self.query(q);
                }
            }
        }
    }
}

fn extractable(v: &Value) -> bool {
    matches!(
        v,
        Value::Int(_) | Value::Double(_) | Value::Str(_) | Value::Date(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::render::render_query;

    fn param(q: &str) -> Parameterized {
        parameterize(&parse_query(q).unwrap())
    }

    #[test]
    fn extracts_predicate_literals_in_token_order() {
        let p = param("SELECT name FROM emp WHERE salary > 100 AND dept = 'eng'");
        assert_eq!(p.binds, vec![Value::Int(100), Value::str("eng")]);
        let r = render_query(&p.query);
        assert_eq!(
            r,
            "SELECT name FROM emp WHERE ((salary > ?) AND (dept = ?))"
        );
        // The rendered family key re-parses to the identical AST — slot
        // numbering included.
        assert_eq!(parse_query(&r).unwrap(), p.query);
    }

    #[test]
    fn family_members_share_a_key() {
        let a = render_query(&param("SELECT * FROM emp WHERE salary = 100").query);
        let b = render_query(&param("select * from EMP where salary=200").query);
        assert_eq!(a, b);
    }

    #[test]
    fn select_list_group_by_and_order_by_stay_literal() {
        let p = param("SELECT salary + 5 FROM emp GROUP BY dept_id, 2 ORDER BY 1");
        assert!(p.binds.is_empty());
        let r = render_query(&p.query);
        assert!(
            r.contains("(salary + 5)") && r.contains("ORDER BY 1"),
            "{r}"
        );
    }

    #[test]
    fn rownum_like_bool_and_null_stay_literal() {
        let p = param(
            "SELECT * FROM emp WHERE ROWNUM <= 5 AND name LIKE 'a%' \
             AND active = TRUE AND x IS NULL AND salary > 10",
        );
        assert_eq!(p.binds, vec![Value::Int(10)]);
        let r = render_query(&p.query);
        assert!(r.contains("ROWNUM <= 5"), "{r}");
        assert!(r.contains("LIKE 'a%'"), "{r}");
        assert!(r.contains("= TRUE"), "{r}");
    }

    #[test]
    fn subqueries_and_join_on_participate() {
        let p = param(
            "SELECT * FROM emp e JOIN dept d ON e.dept_id = d.id AND d.region = 7 \
             WHERE EXISTS (SELECT 1 FROM bonus b WHERE b.emp_id = e.id AND b.amount > 50)",
        );
        assert_eq!(p.binds, vec![Value::Int(7), Value::Int(50)]);
        let r = render_query(&p.query);
        assert_eq!(parse_query(&r).unwrap(), p.query);
    }

    #[test]
    fn explicit_placeholders_disable_extraction() {
        let p = param("SELECT * FROM emp WHERE salary = ? AND dept = 'eng'");
        assert!(p.binds.is_empty());
        assert_eq!(count_params(&p.query), 1);
        let r = render_query(&p.query);
        assert!(r.contains("= ?") && r.contains("'eng'"), "{r}");
    }

    #[test]
    fn explicit_and_extracted_forms_share_key_and_slots() {
        let lit = param("SELECT * FROM emp WHERE salary > 100 AND dept = 'eng'");
        let bound = param("SELECT * FROM emp WHERE salary > ? AND dept = ?");
        assert_eq!(render_query(&lit.query), render_query(&bound.query));
        assert_eq!(lit.query, bound.query);
    }

    #[test]
    fn counts_params_in_nested_positions() {
        let q = parse_query(
            "SELECT (SELECT max(x) FROM t WHERE y = ?) FROM s \
             WHERE s.a IN (SELECT b FROM u WHERE c = ?) ORDER BY ?",
        )
        .unwrap();
        assert_eq!(count_params(&q), 3);
    }

    #[test]
    fn dml_targets_extract_their_select_list_first() {
        let q = parse_query("SELECT v + 5, 'x', rowid FROM kv WHERE k = 3").unwrap();
        let p = parameterize_dml_target(&q);
        assert_eq!(p.binds, vec![Value::Int(5), Value::str("x"), Value::Int(3)]);
        let r = render_query(&p.query);
        assert_eq!(r, "SELECT (v + ?), ?, rowid FROM kv WHERE (k = ?)");
        assert_eq!(parse_query(&r).unwrap(), p.query);
        // two statements differing only in SET and WHERE literals share
        // a family
        let other = parse_query("SELECT v + 9, 'y', rowid FROM kv WHERE k = 4").unwrap();
        assert_eq!(render_query(&parameterize_dml_target(&other).query), r);
        // only the top-level list: a nested one keeps its literals
        let nested = parse_query("SELECT (SELECT 1 FROM t WHERE t.a = 2) FROM kv").unwrap();
        assert_eq!(parameterize_dml_target(&nested).binds, vec![Value::Int(2)]);
    }

    #[test]
    fn in_list_items_are_extracted() {
        let p = param("SELECT * FROM emp WHERE dept_id IN (1, 2, 3)");
        assert_eq!(p.binds, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}
