//! Moving a predicate across a view boundary: the one rule that filter
//! move-around (§2.1.3), join predicate pushdown (§2.2.3) and predicate
//! pullup (§2.2.6) share. A conjunct is written over a view's outputs
//! (`Col { view_ref, i }`); [`landing`] says whether, and where, the view
//! can evaluate it instead without changing which of its rows survive.

use cbqt_common::Result;
use cbqt_qgm::{
    BinOp, BlockId, OutputItem, QExpr, QOrder, QueryBlock, QueryTree, RefId, SelectBlock,
};

/// Where a conjunct lands inside a select view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Landing {
    /// Below the view's aggregation, as a WHERE conjunct.
    Where,
    /// On the view's groups, as a HAVING conjunct.
    Having,
}

/// Rewrites `e`, written over the outputs of `view_ref`, into the
/// expressions of `outputs`.
pub(crate) fn substitute(e: &mut QExpr, view_ref: RefId, outputs: &[OutputItem]) {
    e.rewrite(&mut |n| match n {
        QExpr::Col { table, column } if *table == view_ref => {
            outputs.get(*column).map(|i| i.expr.clone())
        }
        _ => None,
    });
}

/// Whether and where view block `view` can evaluate `conj`, written over
/// the outputs of `view_ref`. A set-op view takes it only if every
/// branch, of any operator and at any depth, does.
pub(crate) fn landing(
    tree: &QueryTree,
    view: BlockId,
    view_ref: RefId,
    conj: &QExpr,
) -> Option<Landing> {
    match tree.block(view).ok()? {
        QueryBlock::Select(v) => landing_in(v, view_ref, conj),
        QueryBlock::SetOp(so) => so.inputs.iter().try_fold(Landing::Where, |l, b| {
            Some(l.max(landing(tree, *b, view_ref, conj)?))
        }),
    }
}

/// The rule for a select view:
/// * a view with a ROWNUM limit takes nothing;
/// * a conjunct that reads an aggregate output lands in HAVING; in an
///   aggregated view, one that reads only grouping keys lands in WHERE —
///   unless the view is a scalar aggregate, whose one row a WHERE cannot
///   remove, or groups by grouping sets; anything else stays above;
/// * a conjunct that reads a window output stays above; otherwise the
///   windows, computed after HAVING, must keep their values: every output
///   the conjunct reads is a PARTITION BY key of every window, or it is a
///   constant upper bound on a window's single ascending ORDER BY key.
pub(crate) fn landing_in(v: &SelectBlock, view_ref: RefId, conj: &QExpr) -> Option<Landing> {
    if v.rownum_limit.is_some() {
        return None;
    }
    let mut cols = Vec::new();
    conj.collect_cols(&mut cols);
    let read: Vec<&QExpr> = cols
        .iter()
        .filter(|(r, _)| *r == view_ref)
        .map(|(_, i)| v.select.get(*i).map(|o| &o.expr))
        .collect::<Option<_>>()?;
    if read.iter().any(|e| e.contains_window()) {
        return None;
    }
    let on_keys = |e: &QExpr| {
        let mut cols = Vec::new();
        e.collect_cols(&mut cols);
        v.group_by.contains(e)
            || cols
                .iter()
                .all(|&(r, c)| v.group_by.contains(&QExpr::col(r, c)))
    };
    let landing = if read.iter().any(|e| e.contains_agg()) {
        Landing::Having
    } else if !v.is_aggregated()
        || !v.group_by.is_empty() && v.grouping_sets.is_none() && read.iter().all(|e| on_keys(e))
    {
        Landing::Where
    } else {
        return None;
    };
    let mut windows_keep = true;
    for item in &v.select {
        item.expr.walk(&mut |w| {
            if let QExpr::Win {
                partition_by,
                order_by,
                ..
            } = w
            {
                windows_keep &= read.iter().all(|e| partition_by.contains(e))
                    || upper_bound(v, view_ref, conj, order_by);
            }
        });
    }
    windows_keep.then_some(landing)
}

/// `conj` is `key < c`, `key <= c`, `c > key` or `c >= key`, where `c`
/// reads no output and `key` is the output `order_by`, ascending with
/// NULLs last, sorts on alone: the rows it removes all sort after the
/// rows it keeps, so the running frames of those are unchanged.
fn upper_bound(v: &SelectBlock, view_ref: RefId, conj: &QExpr, order_by: &[QOrder]) -> bool {
    let (QExpr::Bin { op, left, right }, [o]) = (conj, order_by) else {
        return false;
    };
    let (key, c) = match op {
        BinOp::Lt | BinOp::LtEq => (left, right),
        BinOp::Gt | BinOp::GtEq => (right, left),
        _ => return false,
    };
    let on_key = matches!(**key, QExpr::Col { table, column }
        if table == view_ref && v.select.get(column).is_some_and(|i| i.expr == o.expr));
    on_key && !o.desc && !o.nulls_first && !c.referenced_tables().contains(&view_ref)
}

/// Lands `conj` in view block `view` — in every branch of a set-op view
/// — where [`landing`] puts it. Returns false, leaving the tree as it
/// was, when the view cannot take it.
pub(crate) fn push(
    tree: &mut QueryTree,
    view: BlockId,
    view_ref: RefId,
    conj: &QExpr,
) -> Result<bool> {
    let Some(landing) = landing(tree, view, view_ref, conj) else {
        return Ok(false);
    };
    match tree.block_mut(view)? {
        QueryBlock::Select(v) => {
            let mut e = conj.clone();
            substitute(&mut e, view_ref, &v.select);
            match landing {
                Landing::Where => v.where_conjuncts.push(e),
                Landing::Having => v.having.push(e),
            }
        }
        QueryBlock::SetOp(so) => {
            for b in so.inputs.clone() {
                push(tree, b, view_ref, conj)?;
            }
        }
    }
    Ok(true)
}
