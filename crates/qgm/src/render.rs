//! Renders a query tree back to SQL-like text.
//!
//! For people: EXPLAIN output, trace events, debugging. The optimizer
//! does not read it — the cost-annotation store (§3.4.2) is keyed by
//! [`crate::fingerprint`], which hashes the same structure without
//! building the text; `fingerprint_partition` in `cbqt-bench` holds the
//! two to the same equivalence classes, and is `render_block`'s caller.

use crate::model::*;
use cbqt_catalog::Catalog;
use cbqt_sql::ast::SetOp;
use std::collections::HashMap;
use std::fmt::Write;

/// Renders the whole tree rooted at `tree.root`.
pub fn render_tree(tree: &QueryTree, catalog: &Catalog) -> String {
    let r = Renderer::new(tree, catalog);
    r.render_block(tree.root, 0)
}

/// Renders a single block (and its nested blocks).
pub fn render_block(tree: &QueryTree, catalog: &Catalog, id: BlockId) -> String {
    let r = Renderer::new(tree, catalog);
    r.render_block(id, 0)
}

struct Renderer<'a> {
    tree: &'a QueryTree,
    catalog: &'a Catalog,
    /// refid -> (alias, source) over the whole tree.
    refs: HashMap<RefId, (String, QTableSource)>,
}

impl<'a> Renderer<'a> {
    fn new(tree: &'a QueryTree, catalog: &'a Catalog) -> Self {
        let mut refs = HashMap::new();
        for id in tree.block_ids() {
            if let Ok(QueryBlock::Select(s)) = tree.block(id) {
                for t in &s.tables {
                    refs.insert(t.refid, (t.alias.clone(), t.source.clone()));
                }
            }
        }
        Renderer {
            tree,
            catalog,
            refs,
        }
    }

    fn indent(depth: usize) -> String {
        "  ".repeat(depth)
    }

    fn render_block(&self, id: BlockId, depth: usize) -> String {
        match self.tree.block(id) {
            Ok(QueryBlock::Select(s)) => self.render_select(s, depth),
            Ok(QueryBlock::SetOp(s)) => self.render_setop(s, depth),
            Err(_) => format!("<dangling {id}>"),
        }
    }

    fn render_setop(&self, s: &SetOpBlock, depth: usize) -> String {
        let op = match s.op {
            SetOp::UnionAll => "UNION ALL",
            SetOp::Union => "UNION",
            SetOp::Intersect => "INTERSECT",
            SetOp::Minus => "MINUS",
        };
        s.inputs
            .iter()
            .map(|i| self.render_block(*i, depth))
            .collect::<Vec<_>>()
            .join(&format!("\n{}{op}\n", Self::indent(depth)))
    }

    fn render_select(&self, s: &SelectBlock, depth: usize) -> String {
        let pad = Self::indent(depth);
        let mut out = String::new();
        write!(out, "{pad}SELECT ").unwrap();
        if s.distinct {
            out.push_str("DISTINCT ");
        }
        let items: Vec<String> = s
            .select
            .iter()
            .map(|i| {
                let e = self.render_expr(&i.expr);
                if i.name.starts_with("EXPR$") || e.ends_with(&format!(".{}", i.name)) {
                    e
                } else {
                    format!("{e} AS {}", i.name)
                }
            })
            .collect();
        out.push_str(&items.join(", "));
        if !s.tables.is_empty() {
            write!(out, "\n{pad}FROM ").unwrap();
            let tbls: Vec<String> = s
                .tables
                .iter()
                .map(|t| self.render_table(t, depth))
                .collect();
            out.push_str(&tbls.join(", "));
        }
        let mut conjuncts: Vec<String> = s
            .where_conjuncts
            .iter()
            .map(|c| self.render_expr(c))
            .collect();
        if let Some(limit) = s.rownum_limit {
            conjuncts.push(format!("ROWNUM <= {limit}"));
        }
        if !conjuncts.is_empty() {
            write!(out, "\n{pad}WHERE {}", conjuncts.join(" AND ")).unwrap();
        }
        if !s.group_by.is_empty() || s.grouping_sets.is_some() {
            let keys: Vec<String> = s.group_by.iter().map(|e| self.render_expr(e)).collect();
            if let Some(sets) = &s.grouping_sets {
                let sets_s: Vec<String> = sets
                    .iter()
                    .map(|set| {
                        let cols: Vec<&str> = set.iter().map(|&i| keys[i].as_str()).collect();
                        format!("({})", cols.join(", "))
                    })
                    .collect();
                write!(out, "\n{pad}GROUP BY GROUPING SETS ({})", sets_s.join(", ")).unwrap();
            } else {
                write!(out, "\n{pad}GROUP BY {}", keys.join(", ")).unwrap();
            }
        }
        if !s.having.is_empty() {
            let conj: Vec<String> = s.having.iter().map(|e| self.render_expr(e)).collect();
            write!(out, "\n{pad}HAVING {}", conj.join(" AND ")).unwrap();
        }
        if let Some(keys) = &s.distinct_keys {
            let ks: Vec<String> = keys.iter().map(|e| self.render_expr(e)).collect();
            write!(out, "\n{pad}DISTINCT ON ({})", ks.join(", ")).unwrap();
        }
        if !s.order_by.is_empty() {
            let os: Vec<String> = s
                .order_by
                .iter()
                .map(|o| {
                    format!(
                        "{}{}",
                        self.render_expr(&o.expr),
                        if o.desc { " DESC" } else { "" }
                    )
                })
                .collect();
            write!(out, "\n{pad}ORDER BY {}", os.join(", ")).unwrap();
        }
        out
    }

    fn render_table(&self, t: &QTable, depth: usize) -> String {
        let src = match &t.source {
            QTableSource::Base(tid) => self
                .catalog
                .table(*tid)
                .map(|tb| tb.name.clone())
                .unwrap_or_else(|_| format!("<table {}>", tid.0)),
            QTableSource::View(b) => {
                format!(
                    "(\n{}\n{})",
                    self.render_block(*b, depth + 1),
                    Self::indent(depth)
                )
            }
        };
        let base = format!("{src} {}", t.alias);
        match &t.join {
            JoinInfo::Inner => base,
            JoinInfo::Lateral { semi } => {
                if *semi {
                    format!("LATERAL SEMI {base}")
                } else {
                    format!("LATERAL {base}")
                }
            }
            JoinInfo::Semi { on } => {
                format!("SEMI JOIN {base} ON ({})", self.render_conj(on))
            }
            JoinInfo::Anti { on, null_aware } => {
                let kw = if *null_aware {
                    "NULL-AWARE ANTI JOIN"
                } else {
                    "ANTI JOIN"
                };
                format!("{kw} {base} ON ({})", self.render_conj(on))
            }
            JoinInfo::LeftOuter { on } => {
                format!("LEFT OUTER JOIN {base} ON ({})", self.render_conj(on))
            }
        }
    }

    fn render_conj(&self, cs: &[QExpr]) -> String {
        cs.iter()
            .map(|c| self.render_expr(c))
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    fn render_col(&self, r: RefId, c: usize) -> String {
        match self.refs.get(&r) {
            Some((alias, QTableSource::Base(tid))) => match self.catalog.table(*tid) {
                Ok(t) if c < t.columns.len() => format!("{alias}.{}", t.columns[c].name),
                Ok(_) => format!("{alias}.ROWID"),
                Err(_) => format!("{alias}.col{c}"),
            },
            Some((alias, QTableSource::View(b))) => {
                let names = self
                    .tree
                    .block(*b)
                    .map(|blk| blk.output_names(self.tree))
                    .unwrap_or_default();
                match names.get(c) {
                    Some(n) => format!("{alias}.{n}"),
                    None => format!("{alias}.col{c}"),
                }
            }
            None => format!("?r{}.col{c}", r.0),
        }
    }

    fn render_expr(&self, e: &QExpr) -> String {
        match e {
            QExpr::Col { table, column } => self.render_col(*table, *column),
            QExpr::Lit(v) => v.to_string(),
            QExpr::Param { slot, peek } => format!(":{slot}({peek})"),
            QExpr::Bin { op, left, right } => {
                format!(
                    "({} {op} {})",
                    self.render_expr(left),
                    self.render_expr(right)
                )
            }
            QExpr::Not(x) => format!("NOT ({})", self.render_expr(x)),
            QExpr::Neg(x) => format!("-({})", self.render_expr(x)),
            QExpr::IsNull { expr, negated } => format!(
                "{} IS {}NULL",
                self.render_expr(expr),
                if *negated { "NOT " } else { "" }
            ),
            QExpr::InList {
                expr,
                list,
                negated,
            } => format!(
                "{} {}IN ({})",
                self.render_expr(expr),
                if *negated { "NOT " } else { "" },
                list.iter()
                    .map(|x| self.render_expr(x))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            QExpr::Like {
                expr,
                pattern,
                negated,
            } => format!(
                "{} {}LIKE {}",
                self.render_expr(expr),
                if *negated { "NOT " } else { "" },
                self.render_expr(pattern)
            ),
            QExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let mut s = String::from("CASE");
                if let Some(o) = operand {
                    write!(s, " {}", self.render_expr(o)).unwrap();
                }
                for (w, t) in branches {
                    write!(
                        s,
                        " WHEN {} THEN {}",
                        self.render_expr(w),
                        self.render_expr(t)
                    )
                    .unwrap();
                }
                if let Some(x) = else_expr {
                    write!(s, " ELSE {}", self.render_expr(x)).unwrap();
                }
                s.push_str(" END");
                s
            }
            QExpr::Func { name, args } => format!(
                "{name}({})",
                args.iter()
                    .map(|x| self.render_expr(x))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            QExpr::Agg {
                func,
                arg,
                distinct,
            } => {
                let inner = match arg {
                    Some(a) => format!(
                        "{}{}",
                        if *distinct { "DISTINCT " } else { "" },
                        self.render_expr(a)
                    ),
                    None => "*".to_string(),
                };
                format!("{}({inner})", func.name())
            }
            QExpr::Win {
                func,
                arg,
                partition_by,
                order_by,
            } => {
                let fname = match func {
                    WinFunc::Agg(a) => a.name(),
                    WinFunc::RowNumber => "ROW_NUMBER",
                };
                let inner = arg
                    .as_ref()
                    .map(|a| self.render_expr(a))
                    .unwrap_or_default();
                let mut over = String::new();
                if !partition_by.is_empty() {
                    write!(
                        over,
                        "PARTITION BY {}",
                        partition_by
                            .iter()
                            .map(|x| self.render_expr(x))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                    .unwrap();
                }
                if !order_by.is_empty() {
                    if !over.is_empty() {
                        over.push(' ');
                    }
                    write!(
                        over,
                        "ORDER BY {}",
                        order_by
                            .iter()
                            .map(|o| format!(
                                "{}{}",
                                self.render_expr(&o.expr),
                                if o.desc { " DESC" } else { "" }
                            ))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                    .unwrap();
                }
                format!("{fname}({inner}) OVER ({over})")
            }
            QExpr::Subq { block, kind } => {
                let body = self.render_block(*block, 1);
                match kind {
                    SubqKind::Scalar => format!("(\n{body})"),
                    SubqKind::Exists { negated } => {
                        format!("{}EXISTS (\n{body})", if *negated { "NOT " } else { "" })
                    }
                    SubqKind::In { lhs, negated } => {
                        let l: Vec<String> = lhs.iter().map(|x| self.render_expr(x)).collect();
                        format!(
                            "({}) {}IN (\n{body})",
                            l.join(", "),
                            if *negated { "NOT " } else { "" }
                        )
                    }
                    SubqKind::Quant { op, quant, lhs } => format!(
                        "{} {op} {} (\n{body})",
                        self.render_expr(lhs),
                        match quant {
                            Quant::Any => "ANY",
                            Quant::All => "ALL",
                        }
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_query_tree;
    use cbqt_catalog::{Column, Constraint};
    use cbqt_common::DataType;
    use cbqt_sql::parse_query;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let icol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Int,
            not_null: false,
        };
        cat.add_table(
            "t",
            vec![icol("a"), icol("b")],
            vec![Constraint::PrimaryKey(vec![0])],
        )
        .unwrap();
        cat.add_table("u", vec![icol("x"), icol("y")], vec![])
            .unwrap();
        cat
    }

    fn roundtrip(sql: &str) -> String {
        let cat = catalog();
        let tree = build_query_tree(&cat, &parse_query(sql).unwrap()).unwrap();
        render_tree(&tree, &cat)
    }

    #[test]
    fn renders_simple_select() {
        let s = roundtrip("SELECT a, b FROM t WHERE a > 1");
        assert!(s.contains("SELECT t.a, t.b"));
        assert!(s.contains("FROM t t"));
        assert!(s.contains("WHERE (t.a > 1)"));
    }

    #[test]
    fn renders_subquery() {
        let s = roundtrip("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)");
        assert!(s.contains("EXISTS ("));
        assert!(s.contains("(u.x = t.a)"));
    }

    #[test]
    fn renders_group_by_and_alias() {
        let s = roundtrip("SELECT a, SUM(b) total FROM t GROUP BY a HAVING SUM(b) > 5");
        assert!(s.contains("SUM(t.b) AS total"));
        assert!(s.contains("GROUP BY t.a"));
        assert!(s.contains("HAVING (SUM(t.b) > 5)"));
    }

    #[test]
    fn renders_setop() {
        let s = roundtrip("SELECT a FROM t UNION ALL SELECT x FROM u");
        assert!(s.contains("UNION ALL"));
    }

    #[test]
    fn equivalent_blocks_render_identically() {
        let cat = catalog();
        let t1 =
            build_query_tree(&cat, &parse_query("SELECT a FROM t WHERE b = 3").unwrap()).unwrap();
        let t2 =
            build_query_tree(&cat, &parse_query("SELECT a FROM t WHERE b = 3").unwrap()).unwrap();
        assert_eq!(render_tree(&t1, &cat), render_tree(&t2, &cat));
    }

    #[test]
    fn renders_rownum_and_order() {
        let s = roundtrip("SELECT a FROM t WHERE rownum <= 10 ORDER BY a DESC");
        assert!(s.contains("ROWNUM <= 10"));
        assert!(s.contains("ORDER BY t.a DESC"));
    }
}
