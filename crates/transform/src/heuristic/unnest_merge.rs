//! Subquery unnesting by merging (§2.1.1) — the *imperative* category of
//! unnesting: a single-table EXISTS / IN / ANY / NOT EXISTS / NOT IN /
//! ALL subquery is merged into its containing block as a semijoin or
//! antijoin annotation on the subquery's table.
//!
//! Multi-table and aggregated subqueries require inline views and are
//! handled by the *cost-based* unnesting transformation (§2.2.1).

use crate::unnest::{semi_anti_applicable, semi_anti_join};
use crate::util::dedup_aliases;
use cbqt_catalog::Catalog;
use cbqt_common::Result;
use cbqt_qgm::{BlockId, JoinInfo, QExpr, QueryBlock, QueryTree};

/// Applies merging unnesting everywhere; returns the number of
/// subqueries unnested.
pub fn unnest_by_merging(tree: &mut QueryTree, catalog: &Catalog) -> Result<usize> {
    let mut count = 0;
    while let Some((block, conj_idx, null_aware)) = find_candidate(tree, catalog) {
        apply(tree, block, conj_idx, null_aware)?;
        count += 1;
    }
    Ok(count)
}

/// Is this subquery block mergeable (single table, SPJ, no nested
/// subqueries, correlations only via its WHERE)?
pub(crate) fn mergeable(tree: &QueryTree, sub: BlockId) -> bool {
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

/// The first subquery conjunct that merges: its block, its index and
/// whether its anti join is null-aware.
fn find_candidate(tree: &QueryTree, catalog: &Catalog) -> Option<(BlockId, usize, bool)> {
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
            if let Some(null_aware) = semi_anti_applicable(tree, catalog, id, *block, kind) {
                return Some((id, i, null_aware));
            }
        }
    }
    None
}

fn apply(tree: &mut QueryTree, block: BlockId, conj_idx: usize, null_aware: bool) -> Result<()> {
    // detach the conjunct
    let conj = tree.select_mut(block)?.where_conjuncts.remove(conj_idx);
    let QExpr::Subq { block: sub, kind } = conj else {
        return Err(cbqt_common::Error::transform("expected subquery conjunct"));
    };
    let QueryBlock::Select(mut s) = tree.take_block(sub)? else {
        return Err(cbqt_common::Error::transform("expected SELECT subquery"));
    };
    // the subquery's WHERE, correlation included, joins its one table
    let outputs: Vec<QExpr> = s.select.drain(..).map(|i| i.expr).collect();
    let join = semi_anti_join(
        kind,
        &outputs,
        std::mem::take(&mut s.where_conjuncts),
        null_aware,
    )?;
    dedup_aliases(tree.select(block)?, &mut s.tables, sub);
    let mut table = s.tables.pop().expect("mergeable subquery has one table");
    table.join = join;
    tree.select_mut(block)?.tables.push(table);
    Ok(())
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
