//! Group-by / distinct view merging (§2.2.2) and join predicate
//! pushdown (§2.2.3), **juxtaposed** (§3.3.2): when both apply to the
//! same view, the target has arity 3 (none / merge / JPPD) and the
//! framework costs all alternatives against each other — the paper's
//! Q12 vs Q13 vs Q18 comparison.

use super::{ApplyEffect, CbTransform, Target};
use crate::framework::TransformSet;
use crate::util::{dedup_aliases, substitute_view_columns, table_used_elsewhere};
use cbqt_catalog::Catalog;
use cbqt_common::hash::HashSet;
use cbqt_common::{Error, Result};
use cbqt_qgm::{BlockId, JoinInfo, QExpr, QTableSource, QueryBlock, QueryTree, RefId};

pub struct CbViewTransform;

impl CbTransform for CbViewTransform {
    fn name(&self) -> &'static str {
        "view merging / join predicate pushdown"
    }

    fn find_targets(&self, tree: &QueryTree, catalog: &Catalog) -> Vec<Target> {
        let mut out = Vec::new();
        for id in tree.bottom_up() {
            let Ok(QueryBlock::Select(s)) = tree.block(id) else {
                continue;
            };
            for t in &s.tables {
                if !matches!(t.join, JoinInfo::Inner) {
                    continue;
                }
                let QTableSource::View(v) = t.source else {
                    continue;
                };
                let can_merge = can_merge_view(tree, catalog, id, t.refid, v);
                let can_jppd = can_jppd_view(tree, id, t.refid, v);
                if can_merge || can_jppd {
                    out.push(Target::View {
                        block: id,
                        view_ref: t.refid,
                        can_merge,
                        can_jppd,
                    });
                }
            }
        }
        out
    }

    /// The split view-merge / JPPD switches each gate one of the
    /// juxtaposed alternatives.
    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target> {
        let Target::View {
            block,
            view_ref,
            can_merge,
            can_jppd,
        } = target
        else {
            return None;
        };
        let (can_merge, can_jppd) = (can_merge && set.view_merge, can_jppd && set.jppd);
        (can_merge || can_jppd).then_some(Target::View {
            block,
            view_ref,
            can_merge,
            can_jppd,
        })
    }

    /// Always merge; never JPPD (the paper introduces JPPD as a
    /// cost-based-only transformation).
    fn heuristic_choice(
        &self,
        _tree: &QueryTree,
        _catalog: &Catalog,
        target: &Target,
    ) -> Option<usize> {
        let mergeable = matches!(
            target,
            Target::View {
                can_merge: true,
                ..
            }
        );
        mergeable.then_some(1)
    }

    fn arity(&self, target: &Target) -> usize {
        let Target::View {
            can_merge,
            can_jppd,
            ..
        } = target
        else {
            return 2;
        };
        1 + usize::from(*can_merge) + usize::from(*can_jppd)
    }

    fn apply(
        &self,
        tree: &mut QueryTree,
        catalog: &Catalog,
        target: &Target,
        choice: usize,
    ) -> Result<ApplyEffect> {
        let Target::View {
            block,
            view_ref,
            can_merge,
            can_jppd,
        } = target
        else {
            return Err(Error::transform("wrong target kind"));
        };
        let do_merge = *can_merge && choice == 1;
        let do_jppd = *can_jppd && choice == 1 + usize::from(*can_merge);
        if do_merge {
            merge_view(tree, catalog, *block, *view_ref)?;
        } else if do_jppd {
            jppd_view(tree, *block, *view_ref)?;
        } else {
            return Err(Error::transform("invalid choice for view target"));
        }
        Ok(ApplyEffect::default())
    }
}

/// Directly merges a group-by or distinct view (also called by the
/// framework when interleaving unnesting with view merging, §3.3.1).
pub fn merge_view(
    tree: &mut QueryTree,
    catalog: &Catalog,
    parent: BlockId,
    view_ref: RefId,
) -> Result<()> {
    let _ = catalog;
    let vid = {
        let p = tree.select(parent)?;
        let t = p
            .table(view_ref)
            .ok_or_else(|| Error::transform("view ref vanished"))?;
        match t.source {
            QTableSource::View(v) => v,
            QTableSource::Base(_) => return Err(Error::transform("not a view")),
        }
    };
    let QueryBlock::Select(mut v) = tree.take_block(vid)? else {
        return Err(Error::transform("set-op views cannot merge"));
    };
    {
        let p = tree.select(parent)?;
        dedup_aliases(p, &mut v.tables, vid);
    }
    let outputs: Vec<QExpr> = v.select.iter().map(|i| i.expr.clone()).collect();
    let distinct_case = v.distinct && !v.is_aggregated();

    // rowids of the parent's other row-producing tables keep the parent's
    // multiplicity intact (the paper adds j.rowid etc. in Q11/Q18)
    let rowid_keys: Vec<QExpr> = {
        let p = tree.select(parent)?;
        p.tables
            .iter()
            .filter(|t| t.refid != view_ref)
            .filter(|t| matches!(t.join, JoinInfo::Inner | JoinInfo::LeftOuter { .. }))
            .filter_map(|t| match t.source {
                QTableSource::Base(tid) => {
                    let n = catalog.table(tid).ok()?.columns.len();
                    Some(QExpr::col(t.refid, n))
                }
                QTableSource::View(_) => None,
            })
            .collect()
    };

    {
        let p = tree.select_mut(parent)?;
        let pos = p
            .tables
            .iter()
            .position(|t| t.refid == view_ref)
            .expect("checked above");
        p.tables.remove(pos);
        for (i, t) in v.tables.drain(..).enumerate() {
            p.tables.insert(pos + i, t);
        }
        p.where_conjuncts.append(&mut v.where_conjuncts);
        if distinct_case {
            // Q12 → Q18: pull the distinct up, keyed by the outer rowids
            // plus the view's outputs
            let mut keys = rowid_keys;
            keys.extend(outputs.iter().cloned());
            p.distinct_keys = Some(keys);
        } else {
            // Q10 → Q11: group by the outer rowids plus the view's keys
            let mut gb = rowid_keys;
            gb.append(&mut v.group_by);
            p.group_by = gb;
            p.having.append(&mut v.having);
        }
    }
    substitute_view_columns(tree, view_ref, &outputs);
    // WHERE conjuncts that now contain aggregates must become HAVING
    if !distinct_case {
        let p = tree.select_mut(parent)?;
        let mut kept = Vec::new();
        for c in p.where_conjuncts.drain(..) {
            if c.contains_agg() {
                p.having.push(c);
            } else {
                kept.push(c);
            }
        }
        p.where_conjuncts = kept;
    }
    Ok(())
}

/// Checks group-by / distinct view mergeability into `parent`.
pub fn can_merge_view(
    tree: &QueryTree,
    catalog: &Catalog,
    parent: BlockId,
    view_ref: RefId,
    vid: BlockId,
) -> bool {
    let Ok(p) = tree.select(parent) else {
        return false;
    };
    let Ok(QueryBlock::Select(v)) = tree.block(vid) else {
        return false;
    };
    // parent must be a plain (non-aggregated, unlimited) block
    if p.is_aggregated()
        || p.distinct_keys.is_some()
        || p.rownum_limit.is_some()
        || p.grouping_sets.is_some()
        || p.select.iter().any(|i| i.expr.contains_window())
    {
        return false;
    }
    // other parent tables must be base tables (they contribute rowids)
    for t in &p.tables {
        if t.refid == view_ref {
            continue;
        }
        match (&t.source, &t.join) {
            (QTableSource::Base(_), JoinInfo::Inner | JoinInfo::LeftOuter { .. }) => {}
            _ => return false,
        }
    }
    let _ = catalog;
    // view shape
    if v.rownum_limit.is_some()
        || !v.order_by.is_empty()
        || v.grouping_sets.is_some()
        || v.distinct_keys.is_some()
        || v.select.iter().any(|i| i.expr.contains_window())
        || v.tables.is_empty()
        || tree.is_correlated(vid)
    {
        return false;
    }
    // tables inside the view must be plainly joined
    if !v.tables.iter().all(|t| t.join.is_inner()) {
        return false;
    }
    let group_by_case = v.is_aggregated() && !v.group_by.is_empty() && !v.distinct;
    let distinct_case = v.distinct && !v.is_aggregated();
    if !(group_by_case || distinct_case) {
        return false;
    }
    // nested subqueries in the view's HAVING would need relocation; keep
    // those unmerged
    let mut has_subq = false;
    v.for_each_expr(&mut |e| {
        if e.contains_subquery() {
            has_subq = true;
        }
    });
    !has_subq
}

/// Checks JPPD applicability: the parent has at least one pushable equi
/// join predicate onto the view.
pub fn can_jppd_view(tree: &QueryTree, parent: BlockId, view_ref: RefId, vid: BlockId) -> bool {
    !pushable_conjuncts(tree, parent, view_ref, vid).is_empty()
}

/// Indexes of the parent WHERE conjuncts that can be pushed into the
/// view as correlated predicates.
fn pushable_conjuncts(
    tree: &QueryTree,
    parent: BlockId,
    view_ref: RefId,
    vid: BlockId,
) -> Vec<usize> {
    let Ok(p) = tree.select(parent) else {
        return Vec::new();
    };
    let declared = p.declared_refs();
    let mut out = Vec::new();
    for (i, c) in p.where_conjuncts.iter().enumerate() {
        let Some(out_idx) = pushable_output(c, view_ref, &declared) else {
            continue;
        };
        if !push_target_ok(tree, vid, out_idx) {
            out.clear();
            return out; // one unpushable reference blocks the whole view
        }
        out.push(i);
    }
    out
}

/// If `c` is `view.col = expr(other parent tables)`, returns the view
/// output index.
fn pushable_output(c: &QExpr, view_ref: RefId, declared: &HashSet<RefId>) -> Option<usize> {
    let (l, r) = c.as_equality()?;
    let side = |a: &QExpr, b: &QExpr| -> Option<usize> {
        let QExpr::Col { table, column } = a else {
            return None;
        };
        if *table != view_ref {
            return None;
        }
        if b.contains_subquery() {
            return None;
        }
        let brefs = b.referenced_tables();
        if brefs.is_empty() || brefs.contains(&view_ref) {
            return None;
        }
        if !brefs.iter().all(|x| declared.contains(x)) {
            return None;
        }
        Some(*column)
    };
    side(l, r).or_else(|| side(r, l))
}

/// Can a predicate be pushed onto view output `out_idx`?
fn push_target_ok(tree: &QueryTree, vid: BlockId, out_idx: usize) -> bool {
    match tree.block(vid) {
        Ok(QueryBlock::Select(v)) => {
            if v.rownum_limit.is_some()
                || !v.order_by.is_empty()
                || v.grouping_sets.is_some()
                || v.select.iter().any(|i| i.expr.contains_window())
            {
                return false;
            }
            let Some(item) = v.select.get(out_idx) else {
                return false;
            };
            if v.is_aggregated() {
                // must land on a grouping expression
                v.group_by.contains(&item.expr)
            } else {
                !item.expr.contains_agg()
            }
        }
        Ok(QueryBlock::SetOp(so)) => {
            if !matches!(so.op, cbqt_qgm::SetOp::UnionAll) {
                return false;
            }
            so.inputs.iter().all(|b| push_target_ok(tree, *b, out_idx))
        }
        Err(_) => false,
    }
}

/// Applies JPPD: join predicates become correlated view predicates; the
/// view becomes lateral. When the view is DISTINCT and every output has
/// an equi-join pushed and nothing else references the view, the
/// distinct is dropped and the join degenerates to a (lateral) semijoin
/// — the paper's Q12 → Q13.
pub fn jppd_view(tree: &mut QueryTree, parent: BlockId, view_ref: RefId) -> Result<()> {
    let vid = {
        let p = tree.select(parent)?;
        match p.table(view_ref).map(|t| &t.source) {
            Some(QTableSource::View(v)) => *v,
            _ => return Err(Error::transform("view ref vanished")),
        }
    };
    let idxs = pushable_conjuncts(tree, parent, view_ref, vid);
    if idxs.is_empty() {
        return Err(Error::transform("no pushable join predicates"));
    }
    // remove the conjuncts from the parent
    let declared = tree.select(parent)?.declared_refs();
    let mut pushed: Vec<(usize, QExpr)> = Vec::new();
    {
        let p = tree.select_mut(parent)?;
        let mut kept = Vec::new();
        for (i, c) in p.where_conjuncts.drain(..).enumerate() {
            if idxs.contains(&i) {
                kept.push(QExpr::Lit(cbqt_common::Value::Bool(true))); // placeholder
                let out_idx = pushable_output(&c, view_ref, &declared).expect("validated pushable");
                let (l, r) = c.as_equality().expect("validated equality");
                let outer = if matches!(l, QExpr::Col { table, .. } if *table == view_ref) {
                    r.clone()
                } else {
                    l.clone()
                };
                pushed.push((out_idx, outer));
                kept.pop();
            } else {
                kept.push(c);
            }
        }
        p.where_conjuncts = kept;
    }
    let pushed_outputs: HashSet<usize> = pushed.iter().map(|(i, _)| *i).collect();
    push_into_view(tree, vid, &pushed)?;

    // distinct-removal optimization
    let mut semi = false;
    {
        let v_all_pushed = match tree.block(vid)? {
            QueryBlock::Select(v) => {
                v.distinct
                    && !v.is_aggregated()
                    && (0..v.select.len()).all(|i| pushed_outputs.contains(&i))
            }
            QueryBlock::SetOp(_) => false,
        };
        if v_all_pushed && !table_used_elsewhere(tree, view_ref, parent, &HashSet::default()) {
            if let QueryBlock::Select(v) = tree.block_mut(vid)? {
                v.distinct = false;
            }
            semi = true;
        }
    }
    let p = tree.select_mut(parent)?;
    let t = p.table_mut(view_ref).expect("checked above");
    t.join = JoinInfo::Lateral { semi };
    Ok(())
}

/// Pushes `(output index, outer expr)` equalities into the view (or each
/// UNION ALL branch).
fn push_into_view(tree: &mut QueryTree, vid: BlockId, pushed: &[(usize, QExpr)]) -> Result<()> {
    match tree.block(vid)? {
        QueryBlock::Select(_) => {
            let outputs: Vec<QExpr> = {
                let v = tree.select(vid)?;
                v.select.iter().map(|i| i.expr.clone()).collect()
            };
            let v = tree.select_mut(vid)?;
            for (idx, outer) in pushed {
                v.where_conjuncts
                    .push(QExpr::eq(outputs[*idx].clone(), outer.clone()));
            }
            Ok(())
        }
        QueryBlock::SetOp(so) => {
            let inputs = so.inputs.clone();
            for b in inputs {
                push_into_view(tree, b, pushed)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    /// The paper's Q12 (completed): employees + job history for
    /// departments located in the UK or US, via a distinct view.
    const PAPER_Q12: &str = "SELECT e1.employee_name, j.job_title \
        FROM employees e1, job_history j, \
             (SELECT DISTINCT d.dept_id FROM departments d, locations l \
              WHERE d.loc_id = l.loc_id AND l.country_id IN ('UK', 'US')) v \
        WHERE e1.dept_id = v.dept_id AND e1.emp_id = j.emp_id AND \
              j.start_date > 19980101";

    #[test]
    fn q12_view_is_juxtaposed() {
        let cat = catalog();
        let tree = build(&cat, PAPER_Q12);
        let targets = CbViewTransform.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 1);
        let Target::View {
            can_merge,
            can_jppd,
            ..
        } = &targets[0]
        else {
            panic!()
        };
        assert!(can_merge);
        assert!(can_jppd);
        assert_eq!(CbViewTransform.arity(&targets[0]), 3);
    }

    #[test]
    fn q12_to_q13_jppd_removes_distinct_and_becomes_lateral_semi() {
        let cat = catalog();
        let mut tree = build(&cat, PAPER_Q12);
        let targets = CbViewTransform.find_targets(&tree, &cat);
        // choice 2 = JPPD (merge is choice 1)
        CbViewTransform
            .apply(&mut tree, &cat, &targets[0], 2)
            .unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        let vt = root
            .tables
            .iter()
            .find(|t| matches!(t.source, QTableSource::View(_)))
            .unwrap();
        assert!(matches!(vt.join, JoinInfo::Lateral { semi: true }));
        let QTableSource::View(vb) = vt.source else {
            panic!()
        };
        let v = tree.select(vb).unwrap();
        assert!(!v.distinct, "distinct must be removed");
        // the join predicate is now correlated inside the view
        assert!(tree.is_correlated(vb));
    }

    #[test]
    fn q12_to_q18_merge_pulls_distinct_up() {
        let cat = catalog();
        let mut tree = build(&cat, PAPER_Q12);
        let targets = CbViewTransform.find_targets(&tree, &cat);
        CbViewTransform
            .apply(&mut tree, &cat, &targets[0], 1)
            .unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        // all four tables in one block
        assert_eq!(root.tables.len(), 4);
        // distinct pulled up with rowid keys: e1.rowid, j.rowid + outputs
        let keys = root.distinct_keys.as_ref().unwrap();
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn group_by_view_merges_with_rowid_grouping() {
        // the Q10 → Q11 shape
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e1.employee_name, v.avg_sal \
             FROM employees e1, (SELECT dept_id, AVG(salary) avg_sal FROM employees \
                                 GROUP BY dept_id) v \
             WHERE e1.dept_id = v.dept_id AND e1.salary > 1000",
        );
        let targets = CbViewTransform.find_targets(&tree, &cat);
        let t = targets
            .iter()
            .find(|t| {
                matches!(
                    t,
                    Target::View {
                        can_merge: true,
                        ..
                    }
                )
            })
            .unwrap();
        CbViewTransform.apply(&mut tree, &cat, t, 1).unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.tables.len(), 2);
        // group by = e1.rowid + dept_id
        assert_eq!(root.group_by.len(), 2);
        // the avg output is now an aggregate in the parent
        assert!(root.select[1].expr.contains_agg());
    }

    #[test]
    fn jppd_into_group_by_view_keeps_group_by() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e1.employee_name, v.avg_sal \
             FROM employees e1, (SELECT dept_id, AVG(salary) avg_sal FROM employees \
                                 GROUP BY dept_id) v \
             WHERE e1.dept_id = v.dept_id",
        );
        let targets = CbViewTransform.find_targets(&tree, &cat);
        let t = targets
            .iter()
            .find(|t| matches!(t, Target::View { can_jppd: true, .. }))
            .unwrap();
        let Target::View { can_merge, .. } = t else {
            panic!()
        };
        let jppd_choice = 1 + usize::from(*can_merge);
        CbViewTransform
            .apply(&mut tree, &cat, t, jppd_choice)
            .unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        let vt = root
            .tables
            .iter()
            .find(|t| matches!(t.source, QTableSource::View(_)))
            .unwrap();
        // aggregate outputs are referenced → plain lateral, group-by kept
        assert!(matches!(vt.join, JoinInfo::Lateral { semi: false }));
        let QTableSource::View(vb) = vt.source else {
            panic!()
        };
        assert_eq!(tree.select(vb).unwrap().group_by.len(), 1);
    }

    #[test]
    fn jppd_into_union_all_view() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT d.department_name, v.eid FROM departments d, \
             (SELECT emp_id eid, dept_id did FROM employees \
              UNION ALL SELECT emp_id eid, dept_id did FROM job_history) v \
             WHERE v.did = d.dept_id",
        );
        let targets = CbViewTransform.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 1);
        let Target::View {
            can_merge,
            can_jppd,
            ..
        } = &targets[0]
        else {
            panic!()
        };
        assert!(!can_merge);
        assert!(can_jppd);
        CbViewTransform
            .apply(&mut tree, &cat, &targets[0], 1)
            .unwrap();
        tree.validate().unwrap();
        // predicate landed in both branches
        let root = tree.select(tree.root).unwrap();
        let vt = root
            .tables
            .iter()
            .find(|t| matches!(t.source, QTableSource::View(_)))
            .unwrap();
        let QTableSource::View(vb) = vt.source else {
            panic!()
        };
        let QueryBlock::SetOp(so) = tree.block(vb).unwrap() else {
            panic!()
        };
        for b in &so.inputs {
            assert_eq!(tree.select(*b).unwrap().where_conjuncts.len(), 1);
        }
    }

    #[test]
    fn aggregated_parent_cannot_merge() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT COUNT(*) FROM employees e1, \
             (SELECT DISTINCT dept_id FROM departments) v \
             WHERE e1.dept_id = v.dept_id",
        );
        let targets = CbViewTransform.find_targets(&tree, &cat);
        // JPPD may still apply, but merge must not
        for t in &targets {
            let Target::View { can_merge, .. } = t else {
                panic!()
            };
            assert!(!can_merge);
        }
    }
}
