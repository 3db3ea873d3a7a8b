//! Shared helpers for transformations: tree-wide substitution, alias
//! management, mergeability predicates.

use cbqt_catalog::Catalog;
use cbqt_common::hash::HashSet;
use cbqt_common::Result;
use cbqt_qgm::{
    BlockId, JoinInfo, QExpr, QTable, QTableSource, QueryBlock, QueryTree, RefId, SelectBlock,
};

/// Substitutes every reference `Col{view_ref, i}` anywhere in the tree
/// with `outputs[i]`. Used when a view is merged into its parent: because
/// RefIds are tree-unique, substitution is safe to run globally (it also
/// fixes correlated references from nested subqueries).
pub fn substitute_view_columns(tree: &mut QueryTree, view_ref: RefId, outputs: &[QExpr]) {
    for id in tree.block_ids() {
        if let Ok(QueryBlock::Select(s)) = tree.block_mut(id) {
            s.for_each_expr_mut(&mut |e| {
                e.rewrite(&mut |n| match n {
                    QExpr::Col { table, column } if *table == view_ref => {
                        outputs.get(*column).cloned()
                    }
                    _ => None,
                })
            });
        }
    }
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

/// True if the block's expressions contain any subquery reference.
pub fn block_has_subqueries(s: &SelectBlock) -> bool {
    let mut found = false;
    s.for_each_expr(&mut |e| {
        if e.contains_subquery() {
            found = true;
        }
    });
    found
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

/// Repoints references to `old_block` (as a view source or a subquery)
/// to `new_block` throughout the tree, and moves the root if needed.
pub fn repoint_block(tree: &mut QueryTree, old_block: BlockId, new_block: BlockId) -> Result<()> {
    if tree.root == old_block {
        tree.root = new_block;
    }
    for id in tree.block_ids() {
        if id == new_block {
            continue;
        }
        match tree.block_mut(id)? {
            QueryBlock::Select(s) => {
                for t in &mut s.tables {
                    if t.source == QTableSource::View(old_block) {
                        t.source = QTableSource::View(new_block);
                    }
                }
                s.for_each_expr_mut(&mut |e| {
                    e.rewrite(&mut |n| match n {
                        QExpr::Subq { block, kind } if *block == old_block => Some(QExpr::Subq {
                            block: new_block,
                            kind: kind.clone(),
                        }),
                        _ => None,
                    })
                });
            }
            QueryBlock::SetOp(s) => {
                for i in &mut s.inputs {
                    if *i == old_block {
                        *i = new_block;
                    }
                }
            }
        }
    }
    Ok(())
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
