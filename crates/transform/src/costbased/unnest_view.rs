//! Cost-based subquery unnesting that generates inline views (§2.2.1).
//!
//! Two shapes:
//! * **correlated aggregate subqueries** (the paper's Q1 → Q10): the
//!   subquery becomes a group-by view grouped on its correlation
//!   columns, joined back to the outer block;
//! * **multi-table (or otherwise unmergeable) EXISTS / NOT EXISTS / IN /
//!   NOT IN / ANY subqueries**: the subquery becomes an inline view
//!   joined by semijoin / antijoin, preserving the requirement that the
//!   subquery's own join happens before the (anti)join (§2.2.1).
//!
//! Whether unnesting pays off depends on filters, indexes on correlation
//! columns and data sizes — exactly why the decision is cost-based; the
//! pre-10g heuristic rule is available for the experiments (see
//! [`heuristic_would_unnest`]).

use super::{ApplyEffect, CbTransform, Target};
use crate::framework::TransformSet;
use crate::heuristic::unnest_merge::is_mergeable_subquery;
use cbqt_catalog::Catalog;
use cbqt_common::hash::HashSet;
use cbqt_common::{Error, Result};
use cbqt_qgm::{
    AggFunc, BlockId, JoinInfo, OutputItem, QExpr, QTable, QTableSource, Quant, QueryBlock,
    QueryTree, RefId, SubqKind,
};

pub struct CbUnnestView;

impl CbTransform for CbUnnestView {
    fn name(&self) -> &'static str {
        "subquery unnesting (inline view)"
    }

    fn find_targets(&self, tree: &QueryTree, catalog: &Catalog) -> Vec<Target> {
        let mut out = Vec::new();
        for id in tree.bottom_up() {
            let Ok(QueryBlock::Select(s)) = tree.block(id) else {
                continue;
            };
            for c in &s.where_conjuncts {
                for subq in c.subquery_blocks() {
                    if classify(tree, catalog, id, subq, c).is_some()
                        && !out.contains(&Target::Subquery { block: id, subq })
                    {
                        out.push(Target::Subquery { block: id, subq });
                    }
                }
            }
        }
        out
    }

    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target> {
        set.unnest.then_some(target)
    }

    /// Unnest unless the pre-10g index rule says otherwise.
    fn heuristic_choice(
        &self,
        tree: &QueryTree,
        catalog: &Catalog,
        target: &Target,
    ) -> Option<usize> {
        let Target::Subquery { block, subq } = target else {
            return None;
        };
        heuristic_would_unnest(tree, catalog, *block, *subq).then_some(1)
    }

    fn apply(
        &self,
        tree: &mut QueryTree,
        catalog: &Catalog,
        target: &Target,
        _choice: usize,
    ) -> Result<ApplyEffect> {
        let Target::Subquery { block, subq } = target else {
            return Err(Error::transform("wrong target kind"));
        };
        let (conj_idx, conj) = {
            let s = tree.select(*block)?;
            s.where_conjuncts
                .iter()
                .enumerate()
                .find(|(_, c)| c.subquery_blocks().contains(subq))
                .map(|(i, c)| (i, c.clone()))
                .ok_or_else(|| Error::transform("subquery conjunct vanished"))?
        };
        let shape = classify(tree, catalog, *block, *subq, &conj)
            .ok_or_else(|| Error::transform("subquery no longer unnestable"))?;
        match shape {
            Shape::Aggregate => unnest_aggregate(tree, *block, *subq, conj_idx),
            Shape::SemiAnti => unnest_semi_anti(tree, catalog, *block, *subq, conj_idx),
        }
    }
}

enum Shape {
    Aggregate,
    SemiAnti,
}

/// A correlated conjunct usable for unnesting: `inner = outer` equality.
fn split_correlation(tree: &QueryTree, sub: BlockId, c: &QExpr) -> Option<(QExpr, QExpr)> {
    let (l, r) = c.as_equality()?;
    let declared = collect_subtree_refs(tree, sub);
    let l_inner = !l.referenced_tables().is_empty()
        && l.referenced_tables().iter().all(|t| declared.contains(t));
    let r_inner = !r.referenced_tables().is_empty()
        && r.referenced_tables().iter().all(|t| declared.contains(t));
    let l_outer = l.referenced_tables().iter().all(|t| !declared.contains(t));
    let r_outer = r.referenced_tables().iter().all(|t| !declared.contains(t));
    if l_inner && r_outer && !r.referenced_tables().is_empty() {
        return Some((l.clone(), r.clone()));
    }
    if r_inner && l_outer && !l.referenced_tables().is_empty() {
        return Some((r.clone(), l.clone()));
    }
    None
}

fn collect_subtree_refs(tree: &QueryTree, root: BlockId) -> HashSet<RefId> {
    let mut out = HashSet::default();
    let mut stack = vec![root];
    while let Some(b) = stack.pop() {
        if let Ok(blk) = tree.block(b) {
            match blk {
                QueryBlock::Select(s) => {
                    for t in &s.tables {
                        out.insert(t.refid);
                        if let QTableSource::View(v) = t.source {
                            stack.push(v);
                        }
                    }
                    s.for_each_expr(&mut |e| stack.extend(e.subquery_blocks()));
                }
                QueryBlock::SetOp(s) => stack.extend(s.inputs.iter().copied()),
            }
        }
    }
    out
}

fn classify(
    tree: &QueryTree,
    catalog: &Catalog,
    outer: BlockId,
    sub: BlockId,
    conj: &QExpr,
) -> Option<Shape> {
    let Ok(QueryBlock::Select(s)) = tree.block(sub) else {
        return None;
    };
    let outer_s = tree.select(outer).ok()?;
    // correlation must resolve to the outer block's own tables
    let outer_declared = outer_s.declared_refs();
    if !tree
        .correlated_refs(sub)
        .iter()
        .all(|r| outer_declared.contains(r))
    {
        return None;
    }
    if s.rownum_limit.is_some()
        || !s.order_by.is_empty()
        || s.grouping_sets.is_some()
        || s.select.iter().any(|i| i.expr.contains_window())
    {
        return None;
    }
    // every correlated conjunct must be extractable as inner = outer
    let declared = collect_subtree_refs(tree, sub);
    for c in &s.where_conjuncts {
        let is_correlated = c.referenced_tables().iter().any(|t| !declared.contains(t));
        if is_correlated && split_correlation(tree, sub, c).is_none() {
            return None;
        }
        if is_correlated && c.contains_subquery() {
            return None;
        }
    }
    // correlation must not hide deeper than the subquery's own WHERE
    let mut deep_corr = false;
    for t in &s.tables {
        if let QTableSource::View(v) = t.source {
            if tree.is_correlated(v) {
                deep_corr = true;
            }
        }
    }
    s.for_each_expr(&mut |e| {
        for b in e.subquery_blocks() {
            if tree
                .correlated_refs(b)
                .iter()
                .any(|r| !declared.contains(r))
            {
                deep_corr = true;
            }
        }
    });
    if deep_corr {
        return None;
    }

    // aggregate shape: scalar subquery with a single aggregate output
    if matches!(find_subq_kind(conj, sub)?, SubqKind::Scalar) {
        if s.group_by.is_empty()
            && !s.distinct
            && s.select.len() == 1
            && s.tables.iter().all(|t| t.join.is_inner())
        {
            if let QExpr::Agg {
                func,
                distinct: false,
                ..
            } = &s.select[0].expr
            {
                // COUNT over an empty group would have to produce 0, which
                // an inner join back cannot (the classic COUNT bug): skip
                if !matches!(func, AggFunc::Count | AggFunc::CountStar) {
                    return Some(Shape::Aggregate);
                }
            }
        }
        return None;
    }

    // semi/anti shape: the conjunct IS the subquery reference and the
    // merging heuristic could not handle it
    let QExpr::Subq { block, kind } = conj else {
        return None;
    };
    if block != &sub || is_mergeable_subquery(tree, sub) {
        return None;
    }
    if s.is_aggregated() && !s.group_by.is_empty() {
        // grouped subqueries: correlation columns must be grouping
        // expressions to be exposed in the view
        for c in &s.where_conjuncts {
            if let Some((inner, _)) = split_correlation(tree, sub, c) {
                if !s.group_by.contains(&inner) {
                    return None;
                }
            }
        }
    } else if s.is_aggregated() {
        return None; // scalar-aggregated EXISTS: keep TIS
    }
    match kind {
        SubqKind::Exists { .. } => Some(Shape::SemiAnti),
        SubqKind::In { lhs, .. } => {
            if lhs.iter().any(|e| e.contains_subquery()) {
                return None;
            }
            Some(Shape::SemiAnti)
        }
        SubqKind::Quant { op, quant, lhs } => {
            if !op.is_comparison() || lhs.contains_subquery() {
                return None;
            }
            match quant {
                Quant::Any => Some(Shape::SemiAnti),
                Quant::All => {
                    // ALL needs BOTH connecting sides provably non-null
                    // (§2.1.1): a NULL on either side makes the ALL
                    // comparison UNKNOWN, which an antijoin cannot model
                    let out_ok =
                        crate::util::provably_not_null(tree, catalog, s, &s.select[0].expr);
                    let lhs_ok = crate::util::provably_not_null(tree, catalog, outer_s, lhs);
                    if out_ok && lhs_ok {
                        Some(Shape::SemiAnti)
                    } else {
                        None
                    }
                }
            }
        }
        SubqKind::Scalar => None,
    }
}

fn find_subq_kind(conj: &QExpr, sub: BlockId) -> Option<SubqKind> {
    let mut found: Option<SubqKind> = None;
    conj.walk(&mut |e| {
        if let QExpr::Subq { block, kind } = e {
            if *block == sub && found.is_none() {
                found = Some(kind.clone());
            }
        }
    });
    found
}

/// Q1 → Q10: aggregate subquery becomes a group-by view.
fn unnest_aggregate(
    tree: &mut QueryTree,
    outer: BlockId,
    sub: BlockId,
    conj_idx: usize,
) -> Result<ApplyEffect> {
    // extract correlations from the subquery
    let mut correlations: Vec<(QExpr, QExpr)> = Vec::new();
    {
        let declared = collect_subtree_refs(tree, sub);
        let s = tree.select_mut(sub)?;
        let mut kept = Vec::new();
        for c in s.where_conjuncts.drain(..) {
            let is_corr = c.referenced_tables().iter().any(|t| !declared.contains(t));
            if is_corr {
                // shape was validated in classify
                let (l, r) = c.as_equality().expect("validated equality");
                let l_inner = l.referenced_tables().iter().all(|t| declared.contains(t))
                    && !l.referenced_tables().is_empty();
                if l_inner {
                    correlations.push((l.clone(), r.clone()));
                } else {
                    correlations.push((r.clone(), l.clone()));
                }
            } else {
                kept.push(c);
            }
        }
        s.where_conjuncts = kept;
        // expose correlation columns and group by them
        for (k, (inner, _)) in correlations.iter().enumerate() {
            s.select.push(OutputItem {
                expr: inner.clone(),
                name: format!("GK{k}"),
            });
            s.group_by.push(inner.clone());
        }
    }
    // join the view into the outer block
    let rv = tree.new_ref();
    let alias = format!("VW_U{}", sub.0);
    {
        let p = tree.select_mut(outer)?;
        p.tables.push(QTable {
            refid: rv,
            alias,
            source: QTableSource::View(sub),
            join: JoinInfo::Inner,
        });
        // replace the Subq node inside the conjunct with the view's
        // aggregate output
        p.where_conjuncts[conj_idx].rewrite(&mut |e| match e {
            QExpr::Subq {
                block,
                kind: SubqKind::Scalar,
            } if *block == sub => Some(QExpr::col(rv, 0)),
            _ => None,
        });
        for (k, (_, outer_expr)) in correlations.iter().enumerate() {
            p.where_conjuncts
                .push(QExpr::eq(outer_expr.clone(), QExpr::col(rv, 1 + k)));
        }
    }
    Ok(ApplyEffect {
        created_views: vec![(outer, rv)],
    })
}

/// Multi-table EXISTS / IN / quantified subquery becomes an inline view
/// joined by semijoin or antijoin.
fn unnest_semi_anti(
    tree: &mut QueryTree,
    catalog: &Catalog,
    outer: BlockId,
    sub: BlockId,
    conj_idx: usize,
) -> Result<ApplyEffect> {
    let conj = tree.select_mut(outer)?.where_conjuncts.remove(conj_idx);
    let QExpr::Subq { kind, .. } = conj else {
        return Err(Error::transform("expected subquery conjunct"));
    };
    // extract correlations
    let mut correlations: Vec<(QExpr, QExpr)> = Vec::new();
    {
        let declared = collect_subtree_refs(tree, sub);
        let s = tree.select_mut(sub)?;
        let mut kept = Vec::new();
        for c in s.where_conjuncts.drain(..) {
            let is_corr = c.referenced_tables().iter().any(|t| !declared.contains(t));
            if is_corr {
                let (l, r) = c.as_equality().expect("validated equality");
                let l_inner = l.referenced_tables().iter().all(|t| declared.contains(t))
                    && !l.referenced_tables().is_empty();
                if l_inner {
                    correlations.push((l.clone(), r.clone()));
                } else {
                    correlations.push((r.clone(), l.clone()));
                }
            } else {
                kept.push(c);
            }
        }
        s.where_conjuncts = kept;
    }
    let base_arity = tree.select(sub)?.select.len();
    {
        let s = tree.select_mut(sub)?;
        for (k, (inner, _)) in correlations.iter().enumerate() {
            s.select.push(OutputItem {
                expr: inner.clone(),
                name: format!("JK{k}"),
            });
        }
    }
    let rv = tree.new_ref();
    let mut on: Vec<QExpr> = correlations
        .iter()
        .enumerate()
        .map(|(k, (_, outer_expr))| QExpr::eq(QExpr::col(rv, base_arity + k), outer_expr.clone()))
        .collect();
    let join = match kind {
        SubqKind::Exists { negated } => {
            if negated {
                JoinInfo::Anti {
                    on,
                    null_aware: false,
                }
            } else {
                JoinInfo::Semi { on }
            }
        }
        SubqKind::In { lhs, negated } => {
            for (i, l) in lhs.iter().enumerate() {
                on.push(QExpr::eq(l.clone(), QExpr::col(rv, i)));
            }
            if negated {
                let outer_s = tree.select(outer)?;
                let sub_s = tree.select(sub)?;
                let all_nn = lhs
                    .iter()
                    .all(|l| crate::util::provably_not_null(tree, catalog, outer_s, l))
                    && sub_s.select[..lhs.len()].iter().all(|item| {
                        crate::util::provably_not_null(tree, catalog, sub_s, &item.expr)
                    });
                JoinInfo::Anti {
                    on,
                    null_aware: !all_nn,
                }
            } else {
                JoinInfo::Semi { on }
            }
        }
        SubqKind::Quant { op, quant, lhs } => match quant {
            Quant::Any => {
                on.push(QExpr::bin(op, (*lhs).clone(), QExpr::col(rv, 0)));
                JoinInfo::Semi { on }
            }
            Quant::All => {
                let inv = crate::util::invert_comparison(op)
                    .ok_or_else(|| Error::transform("bad ALL operator"))?;
                on.push(QExpr::bin(inv, (*lhs).clone(), QExpr::col(rv, 0)));
                JoinInfo::Anti {
                    on,
                    null_aware: false,
                }
            }
        },
        SubqKind::Scalar => return Err(Error::transform("scalar subquery in semi/anti shape")),
    };
    tree.select_mut(outer)?.tables.push(QTable {
        refid: rv,
        alias: format!("VW_S{}", sub.0),
        source: QTableSource::View(sub),
        join,
    });
    // semi/anti views are not view-merge candidates — no interleave
    Ok(ApplyEffect::default())
}

/// The pre-10g heuristic unnesting rule the paper describes (§2.2.1):
/// "if there exist filter predicates in the outer query and there are
/// indexes on the local columns in the subquery correlation, then the
/// subquery should NOT be unnested." Used by the experiments to compare
/// heuristic-based against cost-based decisions.
pub fn heuristic_would_unnest(
    tree: &QueryTree,
    catalog: &Catalog,
    outer: BlockId,
    sub: BlockId,
) -> bool {
    let Ok(outer_s) = tree.select(outer) else {
        return false;
    };
    let Ok(sub_s) = tree.select(sub) else {
        return false;
    };
    let has_outer_filters = outer_s.where_conjuncts.iter().any(|c| {
        !c.contains_subquery()
            && c.referenced_tables()
                .iter()
                .all(|r| outer_s.table(*r).is_some())
    });
    // indexes on the local (inner) columns of the correlation?
    let declared = collect_subtree_refs(tree, sub);
    let mut has_index_on_correlation = false;
    for c in &sub_s.where_conjuncts {
        let is_corr = c.referenced_tables().iter().any(|t| !declared.contains(t));
        if !is_corr {
            continue;
        }
        let Some((QExpr::Col { table, column }, _)) = split_correlation(tree, sub, c) else {
            continue;
        };
        if let Some(QTable {
            source: QTableSource::Base(tid),
            ..
        }) = sub_s.table(table)
        {
            if catalog.has_index_with_leading(*tid, column) {
                has_index_on_correlation = true;
            }
        }
    }
    !(has_outer_filters && has_index_on_correlation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};
    use cbqt_qgm::BinOp;

    const PAPER_Q1: &str = "SELECT e1.employee_name, j.job_title \
        FROM employees e1, job_history j \
        WHERE e1.emp_id = j.emp_id AND j.start_date > 19980101 AND \
              e1.salary > (SELECT AVG(e2.salary) FROM employees e2 \
                           WHERE e2.dept_id = e1.dept_id) AND \
              e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
                             WHERE d.loc_id = l.loc_id AND l.country_id = 'US')";

    #[test]
    fn q1_has_two_targets() {
        let cat = catalog();
        let tree = build(&cat, PAPER_Q1);
        let targets = CbUnnestView.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 2, "{targets:?}");
    }

    #[test]
    fn q1_aggregate_unnests_to_group_by_view() {
        // the paper's Q1 → Q10 transformation
        let cat = catalog();
        let mut tree = build(&cat, PAPER_Q1);
        let targets = CbUnnestView.find_targets(&tree, &cat);
        let agg_target = targets
            .iter()
            .find(|t| {
                let Target::Subquery { subq, .. } = t else {
                    return false;
                };
                tree.select(*subq)
                    .map(|s| s.is_aggregated())
                    .unwrap_or(false)
            })
            .unwrap();
        let eff = CbUnnestView.apply(&mut tree, &cat, agg_target, 1).unwrap();
        tree.validate().unwrap();
        assert_eq!(eff.created_views.len(), 1);
        let root = tree.select(tree.root).unwrap();
        // e1, j, and the new view
        assert_eq!(root.tables.len(), 3);
        let (_, rv) = eff.created_views[0];
        let vt = root.table(rv).unwrap();
        let QTableSource::View(vb) = vt.source else {
            panic!()
        };
        let v = tree.select(vb).unwrap();
        // AVG + the exposed correlation column, grouped
        assert_eq!(v.select.len(), 2);
        assert_eq!(v.group_by.len(), 1);
        // the comparison now references the view output
        assert!(root
            .where_conjuncts
            .iter()
            .any(|c| matches!(c, QExpr::Bin { op: BinOp::Gt, .. })));
    }

    #[test]
    fn q1_in_subquery_unnests_to_semijoined_view() {
        let cat = catalog();
        let mut tree = build(&cat, PAPER_Q1);
        let targets = CbUnnestView.find_targets(&tree, &cat);
        let in_target = targets
            .iter()
            .find(|t| {
                let Target::Subquery { subq, .. } = t else {
                    return false;
                };
                tree.select(*subq)
                    .map(|s| !s.is_aggregated())
                    .unwrap_or(false)
            })
            .unwrap();
        CbUnnestView.apply(&mut tree, &cat, in_target, 1).unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.tables.len(), 3);
        assert!(root
            .tables
            .iter()
            .any(|t| matches!(t.join, JoinInfo::Semi { .. })));
    }

    #[test]
    fn both_q1_subqueries_unnest_together() {
        let cat = catalog();
        let mut tree = build(&cat, PAPER_Q1);
        let targets = CbUnnestView.find_targets(&tree, &cat);
        for t in &targets {
            CbUnnestView.apply(&mut tree, &cat, t, 1).unwrap();
        }
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.tables.len(), 4);
    }

    #[test]
    fn count_subquery_not_unnested() {
        // the COUNT bug guard
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT d.department_name FROM departments d WHERE 3 < \
             (SELECT COUNT(*) FROM employees e WHERE e.dept_id = d.dept_id)",
        );
        assert!(CbUnnestView.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn multi_table_not_exists_unnests_to_anti_view() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e WHERE NOT EXISTS \
             (SELECT 1 FROM departments d, locations l \
              WHERE d.loc_id = l.loc_id AND d.dept_id = e.dept_id)",
        );
        let targets = CbUnnestView.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 1);
        CbUnnestView.apply(&mut tree, &cat, &targets[0], 1).unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert!(root.tables.iter().any(|t| matches!(
            t.join,
            JoinInfo::Anti {
                null_aware: false,
                ..
            }
        )));
    }

    #[test]
    fn non_equality_correlation_not_unnested() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT e1.employee_name FROM employees e1 WHERE e1.salary > \
             (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.salary < e1.salary)",
        );
        assert!(CbUnnestView.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn heuristic_rule_respects_indexes() {
        let cat = catalog(); // has i_emp_dept on employees.dept_id
        let tree = build(&cat, PAPER_Q1);
        let root = tree.root;
        let targets = CbUnnestView.find_targets(&tree, &cat);
        let Target::Subquery { subq, .. } = targets
            .iter()
            .find(|t| {
                let Target::Subquery { subq, .. } = t else {
                    return false;
                };
                tree.select(*subq)
                    .map(|s| s.is_aggregated())
                    .unwrap_or(false)
            })
            .unwrap()
        else {
            panic!()
        };
        // Q1 has outer filters (start_date) and an index on e2.dept_id →
        // the pre-10g rule says: do NOT unnest
        assert!(!heuristic_would_unnest(&tree, &cat, root, *subq));
    }
}
