//! Shared helpers for transformations: tree-wide substitution, alias
//! management, mergeability predicates.

use crate::view_pred::substitute;
use cbqt_catalog::Catalog;
use cbqt_common::hash::HashSet;
use cbqt_common::{Error, Result};
use cbqt_qgm::{
    BinOp, BlockId, JoinInfo, QExpr, QTable, QTableSource, QueryBlock, QueryTree, RefId,
    SelectBlock,
};

/// Splices the view that `view_ref` names in block `parent` into
/// `parent`, the step SPJ (§2.1) and group-by / distinct (§2.2.2) view
/// merging share: the view's tables take its place in the FROM list,
/// renamed away from the parent's aliases, its WHERE joins the parent's,
/// and every reference to one of its columns becomes the expression the
/// view computes. Returns the rest of the view block (select list,
/// grouping, HAVING, DISTINCT) for the caller's own step.
pub fn splice_view(tree: &mut QueryTree, parent: BlockId, view_ref: RefId) -> Result<SelectBlock> {
    let p = tree.select(parent)?;
    let pos = p
        .tables
        .iter()
        .position(|t| t.refid == view_ref)
        .ok_or_else(|| Error::transform("view ref vanished"))?;
    let QTableSource::View(vid) = p.tables[pos].source else {
        return Err(Error::transform("not a view"));
    };
    let QueryBlock::Select(mut v) = tree.take_block(vid)? else {
        return Err(Error::transform("set-op views cannot merge"));
    };
    dedup_aliases(tree.select(parent)?, &mut v.tables, vid);
    let p = tree.select_mut(parent)?;
    // keep join order roughly stable: splice at the same spot
    p.tables.splice(pos..=pos, v.tables.drain(..));
    p.where_conjuncts.append(&mut v.where_conjuncts);
    // RefIds are tree-unique, so the substitution runs tree-wide (it also
    // fixes correlated references from nested subqueries)
    for id in tree.block_ids() {
        if let Ok(QueryBlock::Select(s)) = tree.block_mut(id) {
            s.for_each_expr_mut(&mut |e| substitute(e, view_ref, &v.select));
        }
    }
    Ok(v)
}

/// True if any expression anywhere in the tree (outside `exclude_block`'s
/// given conjunct indices) references the given table.
pub fn table_used_elsewhere(
    tree: &QueryTree,
    refid: RefId,
    exclude_block: BlockId,
    exclude_where_idx: &HashSet<usize>,
) -> bool {
    let mut used = false;
    for id in tree.block_ids() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        // select, group by, having, order by, distinct keys, join conds
        for t in &s.tables {
            if t.refid == refid {
                // the table's own ON condition disappears with it
                continue;
            }
            for c in t.join.on_conjuncts() {
                if c.referenced_tables().contains(&refid) {
                    used = true;
                }
            }
        }
        for (i, c) in s.where_conjuncts.iter().enumerate() {
            if id == exclude_block && exclude_where_idx.contains(&i) {
                continue;
            }
            if c.referenced_tables().contains(&refid) {
                used = true;
            }
        }
        for it in &s.select {
            if it.expr.referenced_tables().contains(&refid) {
                used = true;
            }
        }
        for e in s.group_by.iter().chain(s.having.iter()) {
            if e.referenced_tables().contains(&refid) {
                used = true;
            }
        }
        for o in &s.order_by {
            if o.expr.referenced_tables().contains(&refid) {
                used = true;
            }
        }
        if let Some(keys) = &s.distinct_keys {
            for e in keys {
                if e.referenced_tables().contains(&refid) {
                    used = true;
                }
            }
        }
    }
    used
}

/// Renames tables being moved into `parent` to avoid alias collisions.
/// The renaming is deterministic (suffix = source block id) so that
/// equivalent transformation states render identically for annotation
/// reuse.
pub fn dedup_aliases(parent: &SelectBlock, incoming: &mut [QTable], src_block: BlockId) {
    let taken: HashSet<String> = parent
        .tables
        .iter()
        .map(|t| t.alias.to_ascii_lowercase())
        .collect();
    for t in incoming.iter_mut() {
        if taken.contains(&t.alias.to_ascii_lowercase()) {
            t.alias = format!("{}_{}", t.alias, src_block.0);
        }
    }
}

/// True if a select block is a plain SPJ block: no distinct, grouping,
/// having, windows, set ops, ordering or limit.
pub fn is_spj(s: &SelectBlock) -> bool {
    !s.distinct
        && s.distinct_keys.is_none()
        && s.group_by.is_empty()
        && s.grouping_sets.is_none()
        && s.having.is_empty()
        && s.rownum_limit.is_none()
        && s.order_by.is_empty()
        && !s
            .select
            .iter()
            .any(|i| i.expr.contains_agg() || i.expr.contains_window())
}

/// Resolves whether an expression is provably non-null: a literal
/// non-null value, or a base-table column with a NOT NULL constraint that
/// is not on the null-producing side of an outer join.
pub fn provably_not_null(
    tree: &QueryTree,
    catalog: &Catalog,
    owner: &SelectBlock,
    e: &QExpr,
) -> bool {
    match e {
        QExpr::Lit(v) => !v.is_null(),
        QExpr::Col { table, column } => {
            let Some(t) = owner.table(*table) else {
                // reference to an outer block: resolve there
                if let Some(b) = tree.ref_owner(*table) {
                    if let Ok(s) = tree.select(b) {
                        return provably_not_null(tree, catalog, s, e);
                    }
                }
                return false;
            };
            if matches!(t.join, JoinInfo::LeftOuter { .. }) {
                return false;
            }
            match &t.source {
                QTableSource::Base(tid) => catalog
                    .table(*tid)
                    .ok()
                    .and_then(|tbl| tbl.columns.get(*column))
                    .map(|c| c.not_null)
                    .unwrap_or(
                        *column >= catalog.table(*tid).map(|t| t.columns.len()).unwrap_or(0),
                    ),
                QTableSource::View(_) => false,
            }
        }
        _ => false,
    }
}

/// Whether conjunct `conj` cannot be TRUE while column `col` of `table`
/// is NULL: an AND with a side that rejects it, or a comparison, LIKE,
/// IN-list or IS NOT NULL with an operand that is NULL whenever the
/// column is. OR, NOT, IS NULL, CASE and functions (NVL, LNNVL) do not
/// count.
pub fn rejects_null(conj: &QExpr, table: RefId, col: usize) -> bool {
    let strict = |e: &QExpr| null_with(e, table, col);
    match conj {
        QExpr::Bin {
            op: BinOp::And,
            left,
            right,
        } => rejects_null(left, table, col) || rejects_null(right, table, col),
        QExpr::Bin { op, left, right } if op.is_comparison() => strict(left) || strict(right),
        QExpr::Like { expr, pattern, .. } => strict(expr) || strict(pattern),
        QExpr::InList { expr, .. } => strict(expr),
        QExpr::IsNull { expr, negated } => *negated && strict(expr),
        _ => false,
    }
}

/// Whether `e` is NULL whenever column `col` of `table` is: the column,
/// or arithmetic, concatenation or negation over it.
fn null_with(e: &QExpr, table: RefId, col: usize) -> bool {
    match e {
        QExpr::Col { table: t, column } => (*t, *column) == (table, col),
        QExpr::Bin {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Concat,
            left,
            right,
        } => null_with(left, table, col) || null_with(right, table, col),
        QExpr::Neg(e) => null_with(e, table, col),
        _ => false,
    }
}

/// Finds the parent table entry (block id + table index) referencing a
/// given view block.
pub fn find_view_ref(tree: &QueryTree, view_block: BlockId) -> Option<(BlockId, RefId)> {
    for id in tree.block_ids() {
        if let Ok(QueryBlock::Select(s)) = tree.block(id) {
            for t in &s.tables {
                if t.source == QTableSource::View(view_block) {
                    return Some((id, t.refid));
                }
            }
        }
    }
    None
}

/// Inverts a comparison operator (for ALL-quantifier unnesting:
/// `x > ALL (S)` becomes an antijoin on `x <= s`).
pub fn invert_comparison(op: cbqt_qgm::BinOp) -> Option<cbqt_qgm::BinOp> {
    use cbqt_qgm::BinOp::*;
    Some(match op {
        Eq => NotEq,
        NotEq => Eq,
        Lt => GtEq,
        LtEq => Gt,
        Gt => LtEq,
        GtEq => Lt,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_qgm::OutputItem;

    #[test]
    fn invert_ops() {
        use cbqt_qgm::BinOp::*;
        assert_eq!(invert_comparison(Gt), Some(LtEq));
        assert_eq!(invert_comparison(Eq), Some(NotEq));
        assert_eq!(invert_comparison(And), None);
    }

    #[test]
    fn spj_detection() {
        let mut s = SelectBlock::default();
        s.select.push(OutputItem {
            expr: QExpr::lit(1i64),
            name: "x".into(),
        });
        assert!(is_spj(&s));
        s.distinct = true;
        assert!(!is_spj(&s));
    }

    #[test]
    fn alias_dedup_appends_block_id() {
        let mut parent = SelectBlock::default();
        parent.tables.push(QTable {
            refid: RefId(0),
            alias: "e".into(),
            source: QTableSource::Base(cbqt_catalog::TableId(0)),
            join: JoinInfo::Inner,
        });
        let mut incoming = vec![QTable {
            refid: RefId(1),
            alias: "E".into(),
            source: QTableSource::Base(cbqt_catalog::TableId(1)),
            join: JoinInfo::Inner,
        }];
        dedup_aliases(&parent, &mut incoming, BlockId(7));
        assert_eq!(incoming[0].alias, "E_7");
    }
}
