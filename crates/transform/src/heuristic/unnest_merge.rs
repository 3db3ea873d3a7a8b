//! Subquery unnesting by merging (§2.1.1) — the *imperative* category of
//! unnesting: a single-table EXISTS / IN / ANY / NOT EXISTS / NOT IN /
//! ALL subquery is merged into its containing block as a semijoin or
//! antijoin annotation on the subquery's table.
//!
//! Multi-table and aggregated subqueries require inline views and are
//! handled by the *cost-based* unnesting transformation (§2.2.1).

use crate::util::{dedup_aliases, invert_comparison, provably_not_null};
use cbqt_catalog::Catalog;
use cbqt_common::Result;
use cbqt_qgm::{BlockId, JoinInfo, QExpr, Quant, QueryBlock, QueryTree, SubqKind};

/// Applies merging unnesting everywhere; returns the number of
/// subqueries unnested.
pub fn unnest_by_merging(tree: &mut QueryTree, catalog: &Catalog) -> Result<usize> {
    let mut count = 0;
    loop {
        let Some((block, conj_idx)) = find_candidate(tree, catalog)? else {
            return Ok(count);
        };
        apply(tree, block, conj_idx, catalog)?;
        count += 1;
    }
}

/// Is this subquery block mergeable (single table, SPJ, no nested
/// subqueries, correlations only via its WHERE)?
fn mergeable(tree: &QueryTree, sub: BlockId) -> bool {
    let Ok(QueryBlock::Select(s)) = tree.block(sub) else {
        return false;
    };
    if s.tables.len() != 1 || !matches!(s.tables[0].join, JoinInfo::Inner) {
        return false;
    }
    if !s.group_by.is_empty()
        || s.grouping_sets.is_some()
        || !s.having.is_empty()
        || s.rownum_limit.is_some()
        || s.select
            .iter()
            .any(|i| i.expr.contains_agg() || i.expr.contains_window())
    {
        return false;
    }
    // nested subqueries inside the WHERE would end up in join ON
    // conditions, which the executor does not evaluate subplans for
    let mut has_subq = false;
    s.for_each_expr(&mut |e| {
        if e.contains_subquery() {
            has_subq = true;
        }
    });
    !has_subq
}

fn find_candidate(tree: &QueryTree, catalog: &Catalog) -> Result<Option<(BlockId, usize)>> {
    for id in tree.bottom_up() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        for (i, c) in s.where_conjuncts.iter().enumerate() {
            let QExpr::Subq { block, kind } = c else {
                continue;
            };
            if !mergeable(tree, *block) {
                continue;
            }
            let sub = tree.select(*block)?;
            match kind {
                SubqKind::Exists { .. } => return Ok(Some((id, i))),
                SubqKind::In { lhs, negated } => {
                    if *negated {
                        // NOT IN is unnestable as a null-aware antijoin;
                        // plain antijoin when both sides are non-null
                        let _ = (lhs, sub);
                    }
                    return Ok(Some((id, i)));
                }
                SubqKind::Quant { op, quant, lhs } => {
                    if !op.is_comparison() {
                        continue;
                    }
                    match quant {
                        Quant::Any => return Ok(Some((id, i))),
                        Quant::All => {
                            // ALL is only unnestable when NEITHER side of
                            // the connecting condition can be NULL
                            // (§2.1.1): a NULL on either side makes the
                            // comparison UNKNOWN, which ALL must treat as
                            // a failure — an antijoin cannot.
                            if quant_sides_not_null(tree, catalog, id, *block, lhs)? {
                                return Ok(Some((id, i)));
                            }
                        }
                    }
                }
                SubqKind::Scalar => {}
            }
        }
    }
    Ok(None)
}

fn quant_sides_not_null(
    tree: &QueryTree,
    catalog: &Catalog,
    outer: BlockId,
    sub: BlockId,
    lhs: &QExpr,
) -> Result<bool> {
    let outer_s = tree.select(outer)?;
    let sub_s = tree.select(sub)?;
    let out_ok = provably_not_null(tree, catalog, sub_s, &sub_s.select[0].expr);
    let lhs_ok = provably_not_null(tree, catalog, outer_s, lhs);
    Ok(out_ok && lhs_ok)
}

fn apply(tree: &mut QueryTree, block: BlockId, conj_idx: usize, catalog: &Catalog) -> Result<()> {
    // detach the conjunct
    let conj = tree.select_mut(block)?.where_conjuncts.remove(conj_idx);
    let QExpr::Subq { block: sub, kind } = conj else {
        return Err(cbqt_common::Error::transform("expected subquery conjunct"));
    };
    let QueryBlock::Select(mut s) = tree.take_block(sub)? else {
        return Err(cbqt_common::Error::transform("expected SELECT subquery"));
    };
    let mut on: Vec<QExpr> = s.where_conjuncts.drain(..).collect();
    let (join, extra_on) = match kind {
        SubqKind::Exists { negated } => {
            let j = if negated {
                JoinInfo::Anti {
                    on: vec![],
                    null_aware: false,
                }
            } else {
                JoinInfo::Semi { on: vec![] }
            };
            (j, vec![])
        }
        SubqKind::In { lhs, negated } => {
            let conds: Vec<QExpr> = lhs
                .iter()
                .zip(s.select.iter())
                .map(|(l, item)| QExpr::eq(l.clone(), item.expr.clone()))
                .collect();
            if negated {
                // null-aware unless both sides are provably non-null
                let outer_s = tree.select(block)?;
                let all_nn = lhs
                    .iter()
                    .all(|l| provably_not_null(tree, catalog, outer_s, l))
                    && s.select
                        .iter()
                        .all(|item| provably_not_null(tree, catalog, &s, &item.expr));
                (
                    JoinInfo::Anti {
                        on: vec![],
                        null_aware: !all_nn,
                    },
                    conds,
                )
            } else {
                (JoinInfo::Semi { on: vec![] }, conds)
            }
        }
        SubqKind::Quant { op, quant, lhs } => {
            let cond = match quant {
                Quant::Any => QExpr::bin(op, (*lhs).clone(), s.select[0].expr.clone()),
                Quant::All => {
                    let inv = invert_comparison(op)
                        .ok_or_else(|| cbqt_common::Error::transform("bad ALL operator"))?;
                    QExpr::bin(inv, (*lhs).clone(), s.select[0].expr.clone())
                }
            };
            let j = match quant {
                Quant::Any => JoinInfo::Semi { on: vec![] },
                Quant::All => JoinInfo::Anti {
                    on: vec![],
                    null_aware: false,
                },
            };
            (j, vec![cond])
        }
        SubqKind::Scalar => {
            return Err(cbqt_common::Error::transform(
                "scalar subquery cannot merge",
            ))
        }
    };
    on.extend(extra_on);

    let mut incoming = std::mem::take(&mut s.tables);
    {
        let p = tree.select(block)?;
        dedup_aliases(p, &mut incoming, sub);
    }
    let mut table = incoming.pop().expect("mergeable subquery has one table");
    table.join = match join {
        JoinInfo::Semi { .. } => JoinInfo::Semi { on },
        JoinInfo::Anti { null_aware, .. } => JoinInfo::Anti { on, null_aware },
        other => other,
    };
    tree.select_mut(block)?.tables.push(table);
    Ok(())
}

/// Exposed for tests: checks mergeability of a specific subquery block.
pub fn is_mergeable_subquery(tree: &QueryTree, sub: BlockId) -> bool {
    mergeable(tree, sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};
    use cbqt_qgm::BinOp;

    #[test]
    fn exists_becomes_semijoin() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT d.department_name FROM departments d WHERE EXISTS \
             (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 200000)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 1);
        tree.validate().unwrap();
        let s = tree.select(tree.root).unwrap();
        assert_eq!(s.tables.len(), 2);
        match &s.tables[1].join {
            JoinInfo::Semi { on } => assert_eq!(on.len(), 2),
            other => panic!("expected semi, got {other:?}"),
        }
    }

    #[test]
    fn not_exists_becomes_antijoin() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT d.department_name FROM departments d WHERE NOT EXISTS \
             (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 1);
        let s = tree.select(tree.root).unwrap();
        assert!(matches!(
            s.tables[1].join,
            JoinInfo::Anti {
                null_aware: false,
                ..
            }
        ));
    }

    #[test]
    fn in_becomes_semijoin_with_connecting_condition() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT d.department_name FROM departments d WHERE d.dept_id IN \
             (SELECT e.dept_id FROM employees e WHERE e.salary > 100)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 1);
        let s = tree.select(tree.root).unwrap();
        match &s.tables[1].join {
            JoinInfo::Semi { on } => assert_eq!(on.len(), 2), // salary filter + connect
            other => panic!("expected semi, got {other:?}"),
        }
    }

    #[test]
    fn not_in_nullable_is_null_aware() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT d.department_name FROM departments d WHERE d.dept_id NOT IN \
             (SELECT e.dept_id FROM employees e)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 1);
        let s = tree.select(tree.root).unwrap();
        // employees.dept_id is nullable → null-aware antijoin
        assert!(matches!(
            s.tables[1].join,
            JoinInfo::Anti {
                null_aware: true,
                ..
            }
        ));
    }

    #[test]
    fn not_in_non_null_is_plain_anti() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e WHERE e.emp_id NOT IN \
             (SELECT j.emp_id FROM job_history j)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 1);
        let s = tree.select(tree.root).unwrap();
        assert!(matches!(
            s.tables[1].join,
            JoinInfo::Anti {
                null_aware: false,
                ..
            }
        ));
    }

    #[test]
    fn any_becomes_semijoin() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e WHERE e.salary > ANY \
             (SELECT e2.salary FROM employees e2 WHERE e2.dept_id = 1)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 1);
        let s = tree.select(tree.root).unwrap();
        assert!(matches!(s.tables[1].join, JoinInfo::Semi { .. }));
    }

    #[test]
    fn all_on_nullable_column_not_merged() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e WHERE e.salary > ALL \
             (SELECT e2.salary FROM employees e2)", // salary nullable
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 0);
    }

    #[test]
    fn all_on_non_null_column_merged_with_inverted_op() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e WHERE e.emp_id > ALL \
             (SELECT j.emp_id FROM job_history j)", // emp_id NOT NULL
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 1);
        let s = tree.select(tree.root).unwrap();
        match &s.tables[1].join {
            JoinInfo::Anti { on, .. } => {
                // inverted: emp_id <= j.emp_id
                assert!(matches!(
                    on[0],
                    QExpr::Bin {
                        op: BinOp::LtEq,
                        ..
                    }
                ));
            }
            other => panic!("expected anti, got {other:?}"),
        }
    }

    #[test]
    fn multi_table_subquery_not_merged() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e WHERE e.dept_id IN \
             (SELECT d.dept_id FROM departments d, locations l WHERE d.loc_id = l.loc_id)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 0);
    }

    #[test]
    fn aggregated_subquery_not_merged() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e WHERE e.salary > \
             (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)",
        );
        assert_eq!(unnest_by_merging(&mut tree, &cat).unwrap(), 0);
    }
}
