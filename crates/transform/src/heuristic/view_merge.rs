//! SPJ view merging (§2.1, §3.1 ordering): inline views without
//! distinct / grouping / windows / limits are merged into their parent
//! block, removing query-block boundaries so the join enumerator can
//! reorder across them.

use crate::util::{is_spj, splice_view};
use cbqt_common::Result;
use cbqt_qgm::{BlockId, JoinInfo, QTableSource, QueryBlock, QueryTree, RefId};

/// Merges every mergeable SPJ view, bottom-up, until none remain.
/// Returns the number of views merged.
pub fn merge_spj_views(tree: &mut QueryTree) -> Result<usize> {
    let mut merged = 0;
    while let Some((parent, view_ref)) = find_candidate(tree) {
        splice_view(tree, parent, view_ref)?;
        merged += 1;
    }
    Ok(merged)
}

/// Finds `(parent_block, view_refid)` for one mergeable view.
fn find_candidate(tree: &QueryTree) -> Option<(BlockId, RefId)> {
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
            let Ok(QueryBlock::Select(vs)) = tree.block(v) else {
                continue;
            };
            if !is_spj(vs) {
                continue;
            }
            // a view that the parent's sibling blocks are correlated to is
            // still fine — refids are stable under merging
            return Some((id, t.refid));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    #[test]
    fn merges_simple_spj_view() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.n FROM (SELECT e.employee_name n, e.dept_id d FROM employees e \
             WHERE e.salary > 1000) v WHERE v.d = 3",
        );
        let n = merge_spj_views(&mut tree).unwrap();
        assert_eq!(n, 1);
        tree.validate().unwrap();
        let s = tree.select(tree.root).unwrap();
        assert_eq!(s.tables.len(), 1);
        assert!(matches!(s.tables[0].source, QTableSource::Base(_)));
        // both predicates now in the merged block
        assert_eq!(s.where_conjuncts.len(), 2);
    }

    #[test]
    fn merges_nested_views() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT w.n FROM (SELECT v.n n FROM (SELECT employee_name n FROM employees) v) w",
        );
        let n = merge_spj_views(&mut tree).unwrap();
        assert_eq!(n, 2);
        tree.validate().unwrap();
        assert_eq!(tree.select(tree.root).unwrap().tables.len(), 1);
    }

    #[test]
    fn does_not_merge_group_by_view() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.a FROM (SELECT AVG(salary) a, dept_id FROM employees GROUP BY dept_id) v",
        );
        let n = merge_spj_views(&mut tree).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn does_not_merge_distinct_view() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.dept_id FROM (SELECT DISTINCT dept_id FROM employees) v",
        );
        assert_eq!(merge_spj_views(&mut tree).unwrap(), 0);
    }

    #[test]
    fn merge_handles_alias_collision() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name, v.n FROM employees e, \
             (SELECT e.employee_name n FROM employees e) v",
        );
        assert_eq!(merge_spj_views(&mut tree).unwrap(), 1);
        tree.validate().unwrap();
        let s = tree.select(tree.root).unwrap();
        assert_eq!(s.tables.len(), 2);
        assert_ne!(
            s.tables[0].alias.to_ascii_lowercase(),
            s.tables[1].alias.to_ascii_lowercase()
        );
    }

    #[test]
    fn merged_view_exposes_correlation_targets() {
        // a subquery correlated to the view's output keeps working
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT v.d FROM (SELECT dept_id d FROM employees) v WHERE EXISTS \
             (SELECT 1 FROM departments x WHERE x.dept_id = v.d)",
        );
        assert_eq!(merge_spj_views(&mut tree).unwrap(), 1);
        tree.validate().unwrap();
    }
}
