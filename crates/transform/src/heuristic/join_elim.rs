//! Join elimination (§2.1.2): removes a table when constraints guarantee
//! the join cannot change the result.
//!
//! Two patterns:
//! * **PK–FK**: an inner join from a child's foreign key to the parent's
//!   primary key, where no other column of the parent is used — Q4 → Q6.
//!   If the FK columns are nullable, `IS NOT NULL` filters are added.
//! * **outer join on a unique key**: a left-outer-joined table whose ON
//!   condition equi-joins its unique key, with no other column used —
//!   Q5 → Q6.

use crate::util::table_used_elsewhere;
use cbqt_catalog::Catalog;
use cbqt_common::hash::HashSet;
use cbqt_common::Result;
use cbqt_qgm::{JoinInfo, QExpr, QTableSource, QueryBlock, QueryTree, RefId};

/// Applies join elimination everywhere; returns the number of tables
/// removed.
pub fn eliminate_joins(tree: &mut QueryTree, catalog: &Catalog) -> Result<usize> {
    let mut removed = 0;
    loop {
        if let Some(()) = eliminate_one_pk_fk(tree, catalog)? {
            removed += 1;
            continue;
        }
        if let Some(()) = eliminate_one_outer_unique(tree, catalog)? {
            removed += 1;
            continue;
        }
        return Ok(removed);
    }
}

fn eliminate_one_pk_fk(tree: &mut QueryTree, catalog: &Catalog) -> Result<Option<()>> {
    for id in tree.bottom_up() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        for parent_t in &s.tables {
            if !matches!(parent_t.join, JoinInfo::Inner) {
                continue;
            }
            let QTableSource::Base(ptid) = parent_t.source else {
                continue;
            };
            let ptable = catalog.table(ptid)?;
            let Some(pk) = ptable.primary_key() else {
                continue;
            };
            // find a child table joining its FK to this PK
            for child_t in &s.tables {
                if child_t.refid == parent_t.refid {
                    continue;
                }
                let QTableSource::Base(ctid) = child_t.source else {
                    continue;
                };
                let ctable = catalog.table(ctid)?;
                for fk in ctable.foreign_keys() {
                    if fk.parent != ptid || fk.parent_columns != pk {
                        continue;
                    }
                    // do all pk-fk join conjuncts exist?
                    let mut join_idx: Vec<usize> = Vec::new();
                    let mut matched_pairs = 0;
                    for (i, c) in s.where_conjuncts.iter().enumerate() {
                        if let Some(((t1, c1), (t2, c2))) = c.as_col_equality() {
                            let pair = if t1 == child_t.refid && t2 == parent_t.refid {
                                Some((c1, c2))
                            } else if t2 == child_t.refid && t1 == parent_t.refid {
                                Some((c2, c1))
                            } else {
                                None
                            };
                            if let Some((fk_col, pk_col)) = pair {
                                if let Some(k) = fk.columns.iter().position(|&fc| fc == fk_col) {
                                    if fk.parent_columns[k] == pk_col {
                                        join_idx.push(i);
                                        matched_pairs += 1;
                                    }
                                }
                            }
                        }
                    }
                    if matched_pairs < fk.columns.len() {
                        continue;
                    }
                    // parent must be unused outside those join conjuncts
                    let excl: HashSet<usize> = join_idx.iter().copied().collect();
                    if table_used_elsewhere(tree, parent_t.refid, id, &excl) {
                        continue;
                    }
                    let parent_ref = parent_t.refid;
                    let child_ref = child_t.refid;
                    let fk_cols = fk.columns.clone();
                    let nullable: Vec<usize> = fk_cols
                        .iter()
                        .copied()
                        .filter(|&c| !ctable.columns[c].not_null)
                        .collect();
                    apply_removal(tree, id, parent_ref, &excl, child_ref, &nullable)?;
                    return Ok(Some(()));
                }
            }
        }
    }
    Ok(None)
}

fn eliminate_one_outer_unique(tree: &mut QueryTree, catalog: &Catalog) -> Result<Option<()>> {
    for id in tree.bottom_up() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        for t in &s.tables {
            let JoinInfo::LeftOuter { on } = &t.join else {
                continue;
            };
            let QTableSource::Base(tid) = t.source else {
                continue;
            };
            let table = catalog.table(tid)?;
            // every ON conjunct must be an equality with t's column on one
            // side; the equated t-columns must form a unique key
            let mut t_cols: Vec<usize> = Vec::new();
            let mut ok = true;
            for c in on {
                match c.as_col_equality() {
                    Some(((t1, c1), (t2, c2))) => {
                        if t1 == t.refid && t2 != t.refid {
                            t_cols.push(c1);
                        } else if t2 == t.refid && t1 != t.refid {
                            t_cols.push(c2);
                        } else {
                            ok = false;
                        }
                    }
                    None => ok = false,
                }
            }
            if !ok || t_cols.is_empty() || !table.is_unique_key(&t_cols) {
                continue;
            }
            if table_used_elsewhere(tree, t.refid, id, &HashSet::default()) {
                continue;
            }
            let refid = t.refid;
            let blk = tree.select_mut(id)?;
            blk.tables.retain(|x| x.refid != refid);
            return Ok(Some(()));
        }
    }
    Ok(None)
}

fn apply_removal(
    tree: &mut QueryTree,
    block: cbqt_qgm::BlockId,
    parent_ref: RefId,
    join_conjuncts: &HashSet<usize>,
    child_ref: RefId,
    nullable_fk_cols: &[usize],
) -> Result<()> {
    let blk = tree.select_mut(block)?;
    blk.tables.retain(|x| x.refid != parent_ref);
    let mut kept = Vec::new();
    for (i, c) in blk.where_conjuncts.drain(..).enumerate() {
        if !join_conjuncts.contains(&i) {
            kept.push(c);
        }
    }
    for &c in nullable_fk_cols {
        kept.push(QExpr::IsNull {
            expr: Box::new(QExpr::col(child_ref, c)),
            negated: true,
        });
    }
    blk.where_conjuncts = kept;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    #[test]
    fn pk_fk_join_eliminated_with_not_null_guard() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name, e.salary FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id",
        );
        let n = eliminate_joins(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        tree.validate().unwrap();
        let s = tree.select(tree.root).unwrap();
        assert_eq!(s.tables.len(), 1);
        // employees.dept_id is nullable → IS NOT NULL added
        assert_eq!(s.where_conjuncts.len(), 1);
        assert!(matches!(
            s.where_conjuncts[0],
            QExpr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn join_kept_when_parent_columns_used() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name, d.department_name FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id",
        );
        assert_eq!(eliminate_joins(&mut tree, &cat).unwrap(), 0);
    }

    #[test]
    fn join_kept_when_extra_filter_on_parent() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id AND d.loc_id = 4",
        );
        assert_eq!(eliminate_joins(&mut tree, &cat).unwrap(), 0);
    }

    #[test]
    fn outer_join_on_unique_key_eliminated() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name, e.salary FROM employees e \
             LEFT OUTER JOIN departments d ON e.dept_id = d.dept_id",
        );
        let n = eliminate_joins(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        tree.validate().unwrap();
        let s = tree.select(tree.root).unwrap();
        assert_eq!(s.tables.len(), 1);
        // outer join elimination adds no filters (left rows all retained)
        assert!(s.where_conjuncts.is_empty());
    }

    #[test]
    fn outer_join_on_non_unique_key_kept() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e \
             LEFT OUTER JOIN departments d ON e.dept_id = d.loc_id",
        );
        assert_eq!(eliminate_joins(&mut tree, &cat).unwrap(), 0);
    }

    #[test]
    fn chained_elimination() {
        // after removing departments, nothing else is removable
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT j.job_title FROM job_history j, employees e, departments d \
             WHERE j.emp_id = e.emp_id AND e.dept_id = d.dept_id",
        );
        // employees.dept_id is used in the e-d join only; d is unused:
        // d removed first, then e becomes removable via j.emp_id FK? —
        // e.dept_id IS NOT NULL guard now references e, so e must stay.
        let n = eliminate_joins(&mut tree, &cat).unwrap();
        assert_eq!(n, 1);
        tree.validate().unwrap();
        assert_eq!(tree.select(tree.root).unwrap().tables.len(), 2);
    }
}
