//! Group pruning (§2.1.4): removes grouping sets from a view when outer
//! predicates on grouping columns cannot be satisfied by those sets.
//!
//! A grouping set that does not contain grouping column `g` produces
//! rows with `g = NULL`; an outer conjunct that rejects a NULL `g`
//! ([`rejects_null`]) filters all such rows, so the set need not be
//! computed at all. The pass runs
//! after predicate move-around so pruning predicates sit next to the
//! grouping view (§2.1.4).

use crate::util::rejects_null;
use cbqt_catalog::Catalog;
use cbqt_common::Result;
use cbqt_qgm::{BlockId, JoinInfo, QTableSource, QueryBlock, QueryTree, RefId};

/// Prunes grouping sets in all views; returns the number of sets removed.
pub fn prune_groups(tree: &mut QueryTree, _catalog: &Catalog) -> Result<usize> {
    let mut pruned = 0;
    for id in tree.bottom_up() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        let mut jobs: Vec<(BlockId, RefId)> = Vec::new();
        for t in &s.tables {
            if !matches!(t.join, JoinInfo::Inner) {
                continue;
            }
            if let QTableSource::View(v) = t.source {
                if let Ok(QueryBlock::Select(vs)) = tree.block(v) {
                    if vs.grouping_sets.is_some() {
                        jobs.push((v, t.refid));
                    }
                }
            }
        }
        for (v, view_ref) in jobs {
            pruned += prune_view(tree, id, view_ref, v)?;
        }
    }
    Ok(pruned)
}

fn prune_view(
    tree: &mut QueryTree,
    outer: BlockId,
    view_ref: RefId,
    vid: BlockId,
) -> Result<usize> {
    // grouping columns a conjunct of the outer block rejects NULL on
    let mut required: Vec<usize> = Vec::new();
    {
        let outer_s = tree.select(outer)?;
        let v = tree.select(vid)?;
        for c in &outer_s.where_conjuncts {
            let mut cols = Vec::new();
            c.collect_cols(&mut cols);
            for (r, out_idx) in cols {
                if r != view_ref || !rejects_null(c, r, out_idx) {
                    continue;
                }
                // which group-by expr does this output map to?
                if let Some(item) = v.select.get(out_idx) {
                    if let Some(gi) = v.group_by.iter().position(|g| *g == item.expr) {
                        if !required.contains(&gi) {
                            required.push(gi);
                        }
                    }
                }
            }
        }
    }
    if required.is_empty() {
        return Ok(0);
    }
    let v = tree.select_mut(vid)?;
    let Some(sets) = &mut v.grouping_sets else {
        return Ok(0);
    };
    let before = sets.len();
    sets.retain(|set| required.iter().all(|gi| set.contains(gi)));
    let removed = before - sets.len();
    // a single surviving full set degenerates to a plain GROUP BY
    if sets.len() == 1 && sets[0].len() == v.group_by.len() {
        v.grouping_sets = None;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::predicate_move::push_filter_predicates;
    use crate::heuristic::testutil::{build, catalog};

    fn rollup_tree(cat: &cbqt_catalog::Catalog, outer_pred: &str) -> QueryTree {
        build(
            cat,
            &format!(
                "SELECT v.loc_id, v.dept_id, v.c FROM \
                 (SELECT d.loc_id, d.dept_id, COUNT(*) c FROM departments d \
                  GROUP BY ROLLUP (d.loc_id, d.dept_id)) v \
                 WHERE {outer_pred}"
            ),
        )
    }

    #[test]
    fn predicate_on_finest_column_prunes_coarse_sets() {
        let cat = catalog();
        // paper Q9: predicate on the innermost rollup column prunes the
        // (loc) and () sets, under strict arithmetic too
        for pred in ["v.dept_id = 3", "v.dept_id + 1 = 4"] {
            let mut tree = rollup_tree(&cat, pred);
            let n = prune_groups(&mut tree, &cat).unwrap();
            assert_eq!(n, 2, "{pred}");
            let root = tree.select(tree.root).unwrap();
            let vid = root.view_blocks()[0];
            let v = tree.select(vid).unwrap();
            // only the full set survived → degenerates to plain GROUP BY
            assert!(v.grouping_sets.is_none());
        }
    }

    #[test]
    fn predicate_on_coarse_column_prunes_only_grand_total() {
        let cat = catalog();
        let mut tree = rollup_tree(&cat, "v.loc_id = 1");
        let n = prune_groups(&mut tree, &cat).unwrap();
        assert_eq!(n, 1); // only () removed
        let root = tree.select(tree.root).unwrap();
        let vid = root.view_blocks()[0];
        let v = tree.select(vid).unwrap();
        assert_eq!(v.grouping_sets.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn is_null_predicate_does_not_prune() {
        let cat = catalog();
        // nor does a comparison over a function or CASE that hides the NULL
        for pred in [
            "v.dept_id IS NULL",
            "NVL(v.dept_id, 9) = 9",
            "(CASE WHEN v.dept_id IS NULL THEN 1 ELSE 0 END) = 1",
            "NVL(v.dept_id, 9) IN (9)",
        ] {
            let mut tree = rollup_tree(&cat, pred);
            assert_eq!(prune_groups(&mut tree, &cat).unwrap(), 0, "{pred}");
        }
    }

    #[test]
    fn works_after_predicate_move() {
        // predicate move-around runs first (as in the paper), group
        // pruning still fires on the original outer predicates
        let cat = catalog();
        let mut tree = rollup_tree(&cat, "v.dept_id = 3 AND v.c > 0");
        let moved = push_filter_predicates(&mut tree).unwrap();
        // c > 0 goes to HAVING; dept_id = 3 cannot move (grouping sets)
        assert_eq!(moved, 1);
        let n = prune_groups(&mut tree, &cat).unwrap();
        assert_eq!(n, 2);
    }
}
