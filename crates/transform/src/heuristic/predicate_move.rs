//! Filter predicate move-around (§2.1.3): pushes inexpensive filter
//! predicates from a block into the views it references so filtering
//! happens early, and generates transitive predicates from join
//! equivalence classes.
//!
//! Supported pushes:
//! * into plain SPJ sub-expressions of a view (always);
//! * into group-by views when the predicate lands on grouping
//!   expressions (pushed below the aggregation); predicates on aggregate
//!   outputs become HAVING conjuncts;
//! * through window functions when the predicate lands on every window's
//!   PARTITION BY columns (the paper's Q7 → Q8), or is an upper bound on
//!   the single ascending ORDER BY column of every window (running
//!   frames are unaffected by removing later rows);
//! * into every branch of a UNION ALL / UNION / INTERSECT / MINUS view.
//!
//! Expensive predicates (procedural functions / subqueries) are never
//! moved — predicate *pullup* (§2.2.6) is the cost-based counterpart.

use cbqt_catalog::Catalog;
use cbqt_common::Result;
use cbqt_qgm::{
    BinOp, BlockId, JoinInfo, QExpr, QTableSource, QueryBlock, QueryTree, RefId, SelectBlock,
};

/// Runs predicate pushdown + transitivity to fixpoint (bounded); returns
/// the number of predicates moved or generated.
pub fn push_filter_predicates(tree: &mut QueryTree, catalog: &Catalog) -> Result<usize> {
    let mut total = 0;
    for _ in 0..4 {
        let t = generate_transitive(tree)?;
        let p = push_once(tree, catalog)?;
        total += t + p;
        if t + p == 0 {
            break;
        }
    }
    Ok(total)
}

/// One pass of pushing single-view predicates into their views.
fn push_once(tree: &mut QueryTree, _catalog: &Catalog) -> Result<usize> {
    let mut moved = 0;
    for id in tree.bottom_up() {
        let Ok(QueryBlock::Select(_)) = tree.block(id) else {
            continue;
        };
        // iterate conjuncts by index; rebuild the kept list
        let conjuncts = tree.select(id)?.where_conjuncts.clone();
        let mut kept = Vec::with_capacity(conjuncts.len());
        for c in conjuncts {
            if try_push_conjunct(tree, id, &c)? {
                moved += 1;
            } else {
                kept.push(c);
            }
        }
        tree.select_mut(id)?.where_conjuncts = kept;
    }
    Ok(moved)
}

/// Attempts to push one conjunct of block `id` into a view it solely
/// references. Returns true when pushed (the caller then drops it).
fn try_push_conjunct(tree: &mut QueryTree, id: BlockId, c: &QExpr) -> Result<bool> {
    if c.is_expensive() {
        return Ok(false);
    }
    let refs = c.referenced_tables();
    let s = tree.select(id)?;
    let declared = s.declared_refs();
    let local: Vec<RefId> = refs
        .iter()
        .copied()
        .filter(|r| declared.contains(r))
        .collect();
    if local.len() != 1 {
        return Ok(false);
    }
    let target = local[0];
    let Some(t) = s.table(target) else {
        return Ok(false);
    };
    if !matches!(t.join, JoinInfo::Inner) {
        return Ok(false);
    }
    let QTableSource::View(vid) = t.source else {
        return Ok(false);
    };
    push_into_block(tree, vid, target, c)
}

/// Pushes `c` (expressed over the view's outputs) into view block `vid`.
fn push_into_block(tree: &mut QueryTree, vid: BlockId, view_ref: RefId, c: &QExpr) -> Result<bool> {
    match tree.block(vid)? {
        QueryBlock::Select(v) => {
            if v.rownum_limit.is_some() || !v.order_by.is_empty() && v.rownum_limit.is_some() {
                return Ok(false);
            }
            if v.rownum_limit.is_some() {
                return Ok(false);
            }
            // substitute output refs with the underlying expressions
            let outputs: Vec<QExpr> = v.select.iter().map(|i| i.expr.clone()).collect();
            let mut pushed = c.clone();
            let mut failed = false;
            pushed.rewrite(&mut |n| match n {
                QExpr::Col { table, column } if *table == view_ref => match outputs.get(*column) {
                    Some(e) => Some(e.clone()),
                    None => {
                        failed = true;
                        None
                    }
                },
                _ => None,
            });
            if failed {
                return Ok(false);
            }
            let v = tree.select(vid)?;
            let has_windows = v.select.iter().any(|i| i.expr.contains_window());
            let aggregated = v.is_aggregated();
            if pushed.contains_agg() {
                // lands on aggregate outputs → becomes HAVING (sound for
                // grouping sets too: HAVING applies per output group row)
                tree.select_mut(vid)?.having.push(pushed);
                return Ok(true);
            }
            if aggregated {
                // must land on grouping expressions only
                let gb = &v.group_by;
                let ok = exprs_within(&pushed, gb);
                if !ok || v.grouping_sets.is_some() {
                    // grouping-set views are handled by group pruning
                    return Ok(false);
                }
            }
            if has_windows && !window_push_ok(v, &pushed, c) {
                return Ok(false);
            }
            if v.distinct {
                // pushing below DISTINCT is always sound for filters
            }
            tree.select_mut(vid)?.where_conjuncts.push(pushed);
            Ok(true)
        }
        QueryBlock::SetOp(so) => {
            let inputs = so.inputs.clone();
            // push a copy into every branch; each branch sees the conjunct
            // expressed over ITS select list
            let mut rewritten = Vec::with_capacity(inputs.len());
            for b in &inputs {
                let QueryBlock::Select(bs) = tree.block(*b)? else {
                    return Ok(false); // nested set ops: skip
                };
                if bs.is_aggregated() && !exprs_within_outputs(c, bs, view_ref) {
                    return Ok(false);
                }
                let outputs: Vec<QExpr> = bs.select.iter().map(|i| i.expr.clone()).collect();
                let mut pushed = c.clone();
                let mut failed = false;
                pushed.rewrite(&mut |n| match n {
                    QExpr::Col { table, column } if *table == view_ref => {
                        match outputs.get(*column) {
                            Some(e) => Some(e.clone()),
                            None => {
                                failed = true;
                                None
                            }
                        }
                    }
                    _ => None,
                });
                if failed || pushed.contains_agg() {
                    return Ok(false);
                }
                rewritten.push(pushed);
            }
            for (b, p) in inputs.iter().zip(rewritten) {
                tree.select_mut(*b)?.where_conjuncts.push(p);
            }
            Ok(true)
        }
    }
}

/// All column references of `e` appear among `allowed` expressions.
fn exprs_within(e: &QExpr, allowed: &[QExpr]) -> bool {
    let mut cols = Vec::new();
    e.collect_cols(&mut cols);
    cols.iter()
        .all(|(r, c)| allowed.iter().any(|a| *a == QExpr::col(*r, *c)))
}

fn exprs_within_outputs(c: &QExpr, bs: &SelectBlock, view_ref: RefId) -> bool {
    // conjunct references view outputs; in an aggregated branch, those
    // outputs must be grouping expressions
    let mut cols = Vec::new();
    c.collect_cols(&mut cols);
    cols.iter().all(|(r, idx)| {
        if *r != view_ref {
            return true;
        }
        match bs.select.get(*idx) {
            Some(item) => bs.group_by.contains(&item.expr),
            None => false,
        }
    })
}

/// Is pushing below the view's window functions sound?
fn window_push_ok(v: &SelectBlock, pushed: &QExpr, _orig: &QExpr) -> bool {
    let mut cols = Vec::new();
    pushed.collect_cols(&mut cols);
    let col_exprs: Vec<QExpr> = cols.iter().map(|(r, c)| QExpr::col(*r, *c)).collect();
    let mut ok = true;
    for item in &v.select {
        item.expr.walk(&mut |e| {
            if let QExpr::Win {
                partition_by,
                order_by,
                ..
            } = e
            {
                let in_pby = col_exprs.iter().all(|ce| partition_by.contains(ce));
                if in_pby {
                    return;
                }
                // upper bound on the single ascending ORDER BY column:
                // running frames of retained rows are unaffected
                let upper_bound_ok = order_by.len() == 1
                    && !order_by[0].desc
                    && col_exprs.len() == 1
                    && order_by[0].expr == col_exprs[0]
                    && matches!(
                        pushed,
                        QExpr::Bin {
                            op: BinOp::Lt | BinOp::LtEq,
                            ..
                        }
                    );
                if !upper_bound_ok {
                    ok = false;
                }
            }
        });
    }
    ok
}

/// Generates transitive single-table predicates from equality classes:
/// `a.x = b.y AND a.x > 5` implies `b.y > 5`. Only literal comparisons
/// are propagated, only across Inner tables, and only when the result is
/// not already present.
fn generate_transitive(tree: &mut QueryTree) -> Result<usize> {
    let mut added = 0;
    for id in tree.bottom_up() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        let declared = s.declared_refs();
        let inner: cbqt_common::hash::HashSet<RefId> = s
            .tables
            .iter()
            .filter(|t| matches!(t.join, JoinInfo::Inner))
            .map(|t| t.refid)
            .collect();
        // equivalence classes over (ref, col)
        let mut classes: Vec<Vec<(RefId, usize)>> = Vec::new();
        for c in &s.where_conjuncts {
            if let Some((a, b)) = c.as_col_equality() {
                if !inner.contains(&a.0) || !inner.contains(&b.0) {
                    continue;
                }
                let ia = classes.iter().position(|cl| cl.contains(&a));
                let ib = classes.iter().position(|cl| cl.contains(&b));
                match (ia, ib) {
                    (Some(x), Some(y)) if x != y => {
                        let merged = classes.remove(y.max(x));
                        classes[x.min(y)].extend(merged);
                    }
                    (Some(x), None) => classes[x].push(b),
                    (None, Some(y)) => classes[y].push(a),
                    (None, None) => classes.push(vec![a, b]),
                    _ => {}
                }
            }
        }
        // literal comparisons on class members
        let mut new_conjuncts: Vec<QExpr> = Vec::new();
        for c in &s.where_conjuncts {
            let QExpr::Bin { op, left, right } = c else {
                continue;
            };
            if !op.is_comparison() {
                continue;
            }
            let (col, lit, col_left) = match (&**left, &**right) {
                (QExpr::Col { table, column }, QExpr::Lit(v)) => ((*table, *column), v, true),
                (QExpr::Lit(v), QExpr::Col { table, column }) => ((*table, *column), v, false),
                _ => continue,
            };
            if !declared.contains(&col.0) {
                continue;
            }
            let Some(class) = classes.iter().find(|cl| cl.contains(&col)) else {
                continue;
            };
            for &(r, cc) in class {
                if (r, cc) == col {
                    continue;
                }
                let derived = if col_left {
                    QExpr::bin(*op, QExpr::col(r, cc), QExpr::Lit(lit.clone()))
                } else {
                    QExpr::bin(*op, QExpr::Lit(lit.clone()), QExpr::col(r, cc))
                };
                if !s.where_conjuncts.contains(&derived) && !new_conjuncts.contains(&derived) {
                    new_conjuncts.push(derived);
                }
            }
        }
        if !new_conjuncts.is_empty() {
            added += new_conjuncts.len();
            tree.select_mut(id)?.where_conjuncts.extend(new_conjuncts);
        }
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    #[test]
    fn pushes_into_group_by_view_on_grouping_key() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.avg_sal FROM (SELECT dept_id, AVG(salary) avg_sal FROM employees \
             GROUP BY dept_id) v WHERE v.dept_id = 5",
        );
        let n = push_filter_predicates(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert!(root.where_conjuncts.is_empty());
        let vid = root.view_blocks()[0];
        assert_eq!(tree.select(vid).unwrap().where_conjuncts.len(), 1);
    }

    #[test]
    fn predicate_on_aggregate_output_becomes_having() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.dept_id FROM (SELECT dept_id, AVG(salary) avg_sal FROM employees \
             GROUP BY dept_id) v WHERE v.avg_sal > 100",
        );
        let n = push_filter_predicates(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        let root = tree.select(tree.root).unwrap();
        let vid = root.view_blocks()[0];
        assert_eq!(tree.select(vid).unwrap().having.len(), 1);
    }

    #[test]
    fn paper_q7_to_q8_window_pushdown() {
        // both the PARTITION BY predicate and the ORDER BY upper bound push
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT acct_id, time, ravg FROM \
             (SELECT acct_id, time, AVG(balance) OVER (PARTITION BY acct_id ORDER BY time) ravg \
              FROM accounts) v \
             WHERE acct_id = 17 AND time <= 12",
        );
        let n = push_filter_predicates(&mut tree, &cat).unwrap();
        assert_eq!(n, 2);
        let root = tree.select(tree.root).unwrap();
        assert!(root.where_conjuncts.is_empty());
        let vid = root.view_blocks()[0];
        assert_eq!(tree.select(vid).unwrap().where_conjuncts.len(), 2);
    }

    #[test]
    fn lower_bound_on_window_order_by_not_pushed() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT acct_id, ravg FROM \
             (SELECT acct_id, time, AVG(balance) OVER (PARTITION BY acct_id ORDER BY time) ravg \
              FROM accounts) v \
             WHERE time > 12",
        );
        // time > 12 would change running averages of retained rows
        assert_eq!(push_filter_predicates(&mut tree, &cat).unwrap(), 0);
    }

    #[test]
    fn pushes_into_union_all_branches() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.id FROM \
             (SELECT emp_id id FROM employees UNION ALL SELECT emp_id id FROM job_history) v \
             WHERE v.id < 100",
        );
        let n = push_filter_predicates(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        let vid = root.view_blocks()[0];
        let QueryBlock::SetOp(so) = tree.block(vid).unwrap() else {
            panic!()
        };
        for b in &so.inputs {
            assert_eq!(tree.select(*b).unwrap().where_conjuncts.len(), 1);
        }
    }

    #[test]
    fn expensive_predicate_not_pushed() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.dept_id FROM (SELECT dept_id, AVG(salary) a FROM employees \
             GROUP BY dept_id) v WHERE EXPENSIVE(v.dept_id, 10) > 0",
        );
        assert_eq!(push_filter_predicates(&mut tree, &cat).unwrap(), 0);
    }

    #[test]
    fn predicate_on_non_group_column_not_pushed() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.m FROM (SELECT dept_id, MAX(salary) m, MIN(salary) mn FROM employees \
             GROUP BY dept_id) v WHERE v.m - v.mn > 10",
        );
        // references aggregates → having push
        let n = push_filter_predicates(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        let root = tree.select(tree.root).unwrap();
        let vid = root.view_blocks()[0];
        assert_eq!(tree.select(vid).unwrap().having.len(), 1);
    }

    #[test]
    fn transitive_predicates_generated() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id AND d.dept_id = 7",
        );
        let n = push_filter_predicates(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        let s = tree.select(tree.root).unwrap();
        // e.dept_id = 7 was derived
        assert_eq!(s.where_conjuncts.len(), 3);
    }

    #[test]
    fn rownum_view_blocks_push() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.employee_name FROM \
             (SELECT employee_name, salary FROM employees WHERE rownum <= 5) v \
             WHERE v.salary > 10",
        );
        assert_eq!(push_filter_predicates(&mut tree, &cat).unwrap(), 0);
    }
}
