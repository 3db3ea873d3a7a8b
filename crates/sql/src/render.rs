//! Canonical SQL rendering.
//!
//! [`render_query`] turns an AST back into deterministic SQL text: one
//! space between tokens, uppercase keywords, lowercase identifiers, and
//! explicit parentheses around every binary expression and set-operation
//! operand. Two queries render identically iff their ASTs are identical
//! up to identifier case, which is what the plan cache needs for a
//! *family key*: after literal extraction (see [`crate::binds`]) every
//! member of a parameterized query family renders to the same string,
//! and re-parsing the rendered text reproduces the same AST (including
//! `?` bind-slot numbering, because extraction assigns slots in token
//! order).

use crate::ast::*;
use cbqt_common::value::Value;
use std::fmt::Write;

/// Render a query to its canonical SQL text.
pub fn render_query(q: &Query) -> String {
    let mut out = String::new();
    query(q, &mut out);
    out
}

fn query(q: &Query, out: &mut String) {
    set_expr(&q.body, out);
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        order_items(&q.order_by, out);
    }
}

fn order_items(items: &[OrderItem], out: &mut String) {
    for (i, o) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        expr(&o.expr, out);
        if o.desc {
            out.push_str(" DESC");
        }
        match o.nulls_first {
            Some(true) => out.push_str(" NULLS FIRST"),
            Some(false) => out.push_str(" NULLS LAST"),
            None => {}
        }
    }
}

fn set_expr(s: &SetExpr, out: &mut String) {
    match s {
        SetExpr::Select(sel) => select(sel, out),
        SetExpr::SetOp { op, left, right } => {
            set_operand(left, out);
            let kw = match op {
                SetOp::UnionAll => " UNION ALL ",
                SetOp::Union => " UNION ",
                SetOp::Intersect => " INTERSECT ",
                SetOp::Minus => " MINUS ",
            };
            out.push_str(kw);
            set_operand(right, out);
        }
    }
}

/// Set-operation operands are parenthesized whenever they are
/// themselves set operations so the rendered text re-parses to the
/// exact original tree regardless of operator precedence.
fn set_operand(s: &SetExpr, out: &mut String) {
    match s {
        SetExpr::Select(sel) => select(sel, out),
        SetExpr::SetOp { .. } => {
            out.push('(');
            set_expr(s, out);
            out.push(')');
        }
    }
}

fn select(s: &Select, out: &mut String) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(q) => {
                ident(q, out);
                out.push_str(".*");
            }
            SelectItem::Expr { expr: e, alias } => {
                expr(e, out);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    ident(a, out);
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        for (i, t) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            table_ref(t, out);
        }
    }
    if let Some(w) = &s.where_clause {
        out.push_str(" WHERE ");
        expr(w, out);
    }
    if let Some(g) = &s.group_by {
        out.push_str(" GROUP BY ");
        if g.rollup {
            out.push_str("ROLLUP (");
        }
        for (i, e) in g.exprs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            expr(e, out);
        }
        if g.rollup {
            out.push(')');
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        expr(h, out);
    }
}

fn table_ref(t: &TableRef, out: &mut String) {
    match t {
        TableRef::Table { name, alias } => {
            ident(name, out);
            if let Some(a) = alias {
                out.push(' ');
                ident(a, out);
            }
        }
        TableRef::Derived { query: q, alias } => {
            out.push('(');
            query(q, out);
            out.push_str(") ");
            ident(alias, out);
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            table_ref(left, out);
            let kw = match kind {
                JoinKind::Inner => " JOIN ",
                JoinKind::LeftOuter => " LEFT JOIN ",
                JoinKind::RightOuter => " RIGHT JOIN ",
                JoinKind::Cross => " CROSS JOIN ",
            };
            out.push_str(kw);
            table_ref(right, out);
            if let Some(e) = on {
                out.push_str(" ON ");
                expr(e, out);
            }
        }
    }
}

fn expr(e: &Expr, out: &mut String) {
    let not = |n: bool| if n { "NOT " } else { "" };
    match e {
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                ident(q, out);
                out.push('.');
            }
            ident(name, out);
        }
        Expr::Literal(v, _) => literal(v, out),
        Expr::Param(_) => out.push('?'),
        Expr::Binary { op, left, right } => {
            out.push('(');
            expr(left, out);
            let _ = write!(out, " {op} ");
            expr(right, out);
            out.push(')');
        }
        Expr::Unary { op, expr: inner } => {
            out.push('(');
            out.push_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => "NOT ",
            });
            expr(inner, out);
            out.push(')');
        }
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            expr(inner, out);
            let _ = write!(out, " IS {}NULL", not(*negated));
        }
        Expr::InList {
            expr: inner,
            list,
            negated,
        } => {
            expr(inner, out);
            let _ = write!(out, " {}IN (", not(*negated));
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(item, out);
            }
            out.push(')');
        }
        Expr::InSubquery {
            exprs,
            query: q,
            negated,
        } => {
            if let [single] = exprs.as_slice() {
                expr(single, out);
            } else {
                out.push('(');
                for (i, item) in exprs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr(item, out);
                }
                out.push(')');
            }
            let _ = write!(out, " {}IN (", not(*negated));
            query(q, out);
            out.push(')');
        }
        Expr::Exists { query: q, negated } => {
            let _ = write!(out, "{}EXISTS (", not(*negated));
            query(q, out);
            out.push(')');
        }
        Expr::Quantified {
            op,
            quant,
            left,
            query: q,
        } => {
            expr(left, out);
            let qk = match quant {
                Quant::Any => "ANY",
                Quant::All => "ALL",
            };
            let _ = write!(out, " {op} {qk} (");
            query(q, out);
            out.push(')');
        }
        Expr::ScalarSubquery(q) => {
            out.push('(');
            query(q, out);
            out.push(')');
        }
        Expr::Between {
            expr: inner,
            low,
            high,
            negated,
        } => {
            expr(inner, out);
            let _ = write!(out, " {}BETWEEN ", not(*negated));
            expr(low, out);
            out.push_str(" AND ");
            expr(high, out);
        }
        Expr::Like {
            expr: inner,
            pattern,
            negated,
        } => {
            expr(inner, out);
            let _ = write!(out, " {}LIKE ", not(*negated));
            expr(pattern, out);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                expr(op, out);
            }
            for (w, t) in branches {
                out.push_str(" WHEN ");
                expr(w, out);
                out.push_str(" THEN ");
                expr(t, out);
            }
            if let Some(el) = else_expr {
                out.push_str(" ELSE ");
                expr(el, out);
            }
            out.push_str(" END");
        }
        Expr::Func {
            name,
            args,
            distinct,
            window,
        } => {
            ident(name, out);
            out.push('(');
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(a, out);
            }
            out.push(')');
            if let Some(w) = window {
                out.push_str(" OVER (");
                let mut need_space = false;
                if !w.partition_by.is_empty() {
                    out.push_str("PARTITION BY ");
                    for (i, p) in w.partition_by.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        expr(p, out);
                    }
                    need_space = true;
                }
                if !w.order_by.is_empty() {
                    if need_space {
                        out.push(' ');
                    }
                    out.push_str("ORDER BY ");
                    order_items(&w.order_by, out);
                }
                out.push(')');
            }
        }
        Expr::Rownum => out.push_str("ROWNUM"),
    }
}

fn literal(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        // `{:?}` keeps a `.0` (or exponent) so the text re-parses as a
        // Double, never collapsing to an Int.
        Value::Double(d) => {
            let _ = write!(out, "{d:?}");
        }
        Value::Str(s) => {
            out.push('\'');
            for c in s.chars() {
                if c == '\'' {
                    out.push('\'');
                }
                out.push(c);
            }
            out.push('\'');
        }
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        // The quoted form accepts negative day counts too.
        Value::Date(d) => {
            let _ = write!(out, "DATE '{d}'");
        }
    }
}

/// Keywords that would change meaning if an identifier rendered bare.
/// Superset of the parser's reserved list plus expression-level
/// keywords; anything here (or lexically unsafe) renders quoted.
fn is_keyword(upper: &str) -> bool {
    matches!(
        upper,
        "SELECT"
            | "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "ON"
            | "JOIN"
            | "LEFT"
            | "RIGHT"
            | "INNER"
            | "CROSS"
            | "OUTER"
            | "UNION"
            | "INTERSECT"
            | "MINUS"
            | "EXCEPT"
            | "AND"
            | "OR"
            | "NOT"
            | "AS"
            | "SET"
            | "VALUES"
            | "USING"
            | "LIMIT"
            | "BY"
            | "DESC"
            | "ASC"
            | "NULLS"
            | "INTO"
            | "DISTINCT"
            | "ALL"
            | "ANY"
            | "SOME"
            | "IN"
            | "IS"
            | "NULL"
            | "TRUE"
            | "FALSE"
            | "BETWEEN"
            | "LIKE"
            | "CASE"
            | "WHEN"
            | "THEN"
            | "ELSE"
            | "END"
            | "EXISTS"
            | "OVER"
            | "PARTITION"
            | "ROWNUM"
            | "DATE"
            | "FIRST"
            | "LAST"
            | "ROLLUP"
    )
}

/// Lowercase an identifier when it is lexically a plain identifier and
/// not a keyword; otherwise emit it quoted verbatim.
fn ident(name: &str, out: &mut String) {
    let lower = name.to_ascii_lowercase();
    let mut chars = lower.chars();
    let safe = match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {
            chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        }
        _ => false,
    };
    if safe && !is_keyword(&name.to_ascii_uppercase()) {
        out.push_str(&lower);
    } else {
        out.push('"');
        out.push_str(name);
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    /// Render must be a fixpoint under parse (key stability).
    fn round_trip(sql: &str) -> String {
        let q1 = parse_query(sql).expect("parse input");
        let r1 = render_query(&q1);
        let q2 = parse_query(&r1).unwrap_or_else(|e| panic!("re-parse `{r1}`: {e}"));
        assert_eq!(r1, render_query(&q2), "render not a fixpoint for `{sql}`");
        r1
    }

    /// Fixpoint plus exact AST faithfulness — valid when the input
    /// already uses lowercase identifiers.
    fn round_trip_exact(sql: &str) -> String {
        let q1 = parse_query(sql).expect("parse input");
        let r1 = round_trip(sql);
        let q2 = parse_query(&r1).unwrap();
        assert_eq!(q1, q2, "AST changed across render/parse for `{sql}`");
        r1
    }

    #[test]
    fn renders_are_reparsable_fixpoints() {
        for sql in [
            "SELECT * FROM emp",
            "SELECT DISTINCT e.name AS n, salary + 1 FROM emp e WHERE salary > 100 AND dept = 'eng'",
            "SELECT d.name, count(*) FROM emp e JOIN dept d ON e.dept_id = d.id \
             WHERE e.salary >= 50 GROUP BY d.name HAVING count(*) > 2 ORDER BY 2 DESC NULLS LAST",
            "SELECT * FROM emp WHERE dept_id IN (SELECT id FROM dept WHERE name LIKE 'e%')",
            "SELECT * FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE dept.id = emp.dept_id)",
            "SELECT * FROM emp WHERE NOT EXISTS (SELECT 1 FROM dept) AND salary <> 3",
            "SELECT * FROM emp WHERE salary > ANY (SELECT salary FROM emp WHERE dept_id = 4)",
            "SELECT * FROM (SELECT salary s FROM emp) v WHERE v.s BETWEEN 1 AND 10",
            "SELECT name FROM emp WHERE salary = 1 UNION ALL SELECT name FROM emp WHERE salary = 2",
            "SELECT x FROM a UNION SELECT x FROM b INTERSECT SELECT x FROM c",
            "SELECT CASE WHEN salary > 10 THEN 'hi' ELSE 'lo' END FROM emp",
            "SELECT sum(salary) OVER (PARTITION BY dept_id ORDER BY hired) FROM emp",
            "SELECT * FROM emp WHERE ROWNUM <= 5 AND salary IS NOT NULL",
            "SELECT * FROM emp WHERE (a, b) IN (SELECT x, y FROM t)",
            "SELECT * FROM emp GROUP BY ROLLUP (dept_id, title)",
            "SELECT -x, 2.5, 3e2, DATE '100', 'it''s' FROM emp WHERE b = TRUE",
            "SELECT * FROM emp WHERE a = ? AND b > ?",
        ] {
            round_trip_exact(sql);
        }
    }

    #[test]
    fn case_and_whitespace_variants_share_one_render() {
        let a = round_trip("SELECT name FROM emp WHERE salary = 100");
        let b = round_trip("select  NAME   from EMP\nwhere SALARY = 100");
        assert_eq!(a, b);
        assert_eq!(a, "SELECT name FROM emp WHERE (salary = 100)");
    }

    #[test]
    fn set_operands_keep_tree_shape() {
        // Parenthesized right-nested MINUS must not collapse into the
        // left-associative reading.
        let nested = round_trip("SELECT x FROM a MINUS (SELECT x FROM b MINUS SELECT x FROM c)");
        let flat = round_trip("SELECT x FROM a MINUS SELECT x FROM b MINUS SELECT x FROM c");
        assert_ne!(nested, flat);
    }

    #[test]
    fn doubles_keep_their_type() {
        let r = round_trip("SELECT * FROM t WHERE x = 300e0");
        assert!(r.contains("300.0"), "got {r}");
    }

    #[test]
    fn awkward_identifiers_render_quoted() {
        let q1 = parse_query("SELECT \"Mixed Case\" FROM \"order\"").unwrap();
        let r = render_query(&q1);
        assert_eq!(r, "SELECT \"Mixed Case\" FROM \"order\"");
        assert_eq!(parse_query(&r).unwrap(), q1);
    }
}
