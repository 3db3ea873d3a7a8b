//! Join factorization (§2.2.5): a base table that appears in every
//! branch of a UNION ALL is pulled out of the branches and joined to the
//! remaining UNION ALL view once — Q14 → Q15. Applied one table at a
//! time; repeated application factors several common tables.

use super::{ApplyEffect, CbTransform, Target};
use crate::framework::TransformSet;
use cbqt_catalog::{Catalog, TableId};
use cbqt_common::{Error, Result, Value};
use cbqt_qgm::{
    BlockId, JoinInfo, OutputItem, QExpr, QTable, QTableSource, QueryBlock, QueryTree, RefId,
    SelectBlock, SetOp,
};

pub struct CbJoinFactorization;

impl CbTransform for CbJoinFactorization {
    fn name(&self) -> &'static str {
        "join factorization"
    }

    fn find_targets(&self, tree: &QueryTree, catalog: &Catalog) -> Vec<Target> {
        let mut out = Vec::new();
        for id in tree.bottom_up() {
            let Ok(QueryBlock::SetOp(so)) = tree.block(id) else {
                continue;
            };
            if so.op != SetOp::UnionAll || so.inputs.len() < 2 {
                continue;
            }
            let Some(candidates) = common_tables(tree, &so.inputs) else {
                continue;
            };
            for tid in candidates {
                if plan_factorization(tree, id, tid).is_some() {
                    out.push(Target::Factorize {
                        setop: id,
                        table: tid,
                    });
                }
            }
        }
        let _ = catalog;
        out
    }

    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target> {
        set.join_factorization.then_some(target)
    }

    fn apply(
        &self,
        tree: &mut QueryTree,
        _catalog: &Catalog,
        target: &Target,
        _choice: usize,
    ) -> Result<ApplyEffect> {
        let Target::Factorize { setop, table } = target else {
            return Err(Error::transform("wrong target kind"));
        };
        let plan = plan_factorization(tree, *setop, *table)
            .ok_or_else(|| Error::transform("factorization no longer applicable"))?;
        execute_factorization(tree, *setop, plan)
    }
}

/// Table ids appearing exactly once in every branch.
fn common_tables(tree: &QueryTree, inputs: &[BlockId]) -> Option<Vec<TableId>> {
    let mut common: Option<Vec<TableId>> = None;
    for b in inputs {
        let Ok(QueryBlock::Select(s)) = tree.block(*b) else {
            return None;
        };
        if s.is_aggregated()
            || s.distinct
            || s.distinct_keys.is_some()
            || s.rownum_limit.is_some()
            || !s.order_by.is_empty()
        {
            return None;
        }
        let mut ids = Vec::new();
        for t in &s.tables {
            if let (QTableSource::Base(tid), JoinInfo::Inner) = (&t.source, &t.join) {
                ids.push(*tid);
            }
        }
        let uniq: Vec<TableId> = ids
            .iter()
            .copied()
            .filter(|t| ids.iter().filter(|x| *x == t).count() == 1)
            .collect();
        common = Some(match common {
            None => uniq,
            Some(prev) => prev.into_iter().filter(|t| uniq.contains(t)).collect(),
        });
    }
    common.filter(|c| !c.is_empty())
}

/// What factoring `table` out of `setop` would do, per branch.
struct FactorPlan {
    /// per-branch: the table reference to remove
    branch_refs: Vec<RefId>,
    /// output position → the table column it passes through (consistent
    /// across branches)
    passthrough: Vec<(usize, usize)>,
    /// sorted table columns used in join predicates; per branch, the
    /// expressions they join to
    join_cols: Vec<usize>,
    branch_join_exprs: Vec<Vec<QExpr>>,
    /// the table entry cloned from branch 0 (provides alias + TableId)
    table_entry: QTable,
}

fn plan_factorization(tree: &QueryTree, setop: BlockId, tid: TableId) -> Option<FactorPlan> {
    let Ok(QueryBlock::SetOp(so)) = tree.block(setop) else {
        return None;
    };
    let inputs = so.inputs.clone();
    let mut branch_refs = Vec::new();
    let mut passthrough: Option<Vec<(usize, usize)>> = None;
    let mut join_cols: Option<Vec<usize>> = None;
    let mut branch_join_exprs: Vec<Vec<QExpr>> = Vec::new();
    let mut table_entry: Option<QTable> = None;

    for b in &inputs {
        let Ok(s) = tree.select(*b) else { return None };
        let t = s
            .tables
            .iter()
            .find(|t| t.source == QTableSource::Base(tid) && t.join.is_inner())?;
        let tref = t.refid;
        if table_entry.is_none() {
            table_entry = Some(t.clone());
        }
        branch_refs.push(tref);

        // outputs referencing the table must be plain column passthroughs
        let mut pt = Vec::new();
        for (p, item) in s.select.iter().enumerate() {
            if item.expr.referenced_tables().contains(&tref) {
                match &item.expr {
                    QExpr::Col { table, column } if *table == tref => pt.push((p, *column)),
                    _ => return None,
                }
            }
        }
        match &passthrough {
            None => passthrough = Some(pt),
            Some(prev) if *prev == pt => {}
            _ => return None,
        }

        // conjuncts referencing the table must be `t.col = local expr`
        // (single-table predicates on t are not supported — they would
        // have to be identical across branches)
        let mut jc: Vec<(usize, QExpr)> = Vec::new();
        for c in &s.where_conjuncts {
            if !c.referenced_tables().contains(&tref) {
                continue;
            }
            let (l, r) = c.as_equality()?;
            let (tcol, expr) = match (l, r) {
                (QExpr::Col { table, column }, other) if *table == tref => (*column, other),
                (other, QExpr::Col { table, column }) if *table == tref => (*column, other),
                _ => return None,
            };
            if expr.referenced_tables().contains(&tref)
                || expr.referenced_tables().is_empty()
                || expr.contains_subquery()
            {
                return None;
            }
            jc.push((tcol, expr.clone()));
        }
        jc.sort_by_key(|(c, _)| *c);
        let cols: Vec<usize> = jc.iter().map(|(c, _)| *c).collect();
        match &join_cols {
            None => join_cols = Some(cols),
            Some(prev) if *prev == cols => {}
            _ => return None,
        }
        branch_join_exprs.push(jc.into_iter().map(|(_, e)| e).collect());
    }
    Some(FactorPlan {
        branch_refs,
        passthrough: passthrough?,
        join_cols: join_cols?,
        branch_join_exprs,
        table_entry: table_entry?,
    })
}

fn execute_factorization(
    tree: &mut QueryTree,
    setop: BlockId,
    plan: FactorPlan,
) -> Result<ApplyEffect> {
    let inputs = {
        let QueryBlock::SetOp(so) = tree.block(setop)? else {
            return Err(Error::transform("not a set op"));
        };
        so.inputs.clone()
    };
    let arity = tree.block(setop)?.output_arity(tree);

    // find who references the setop before we restructure
    let parent_view = crate::util::find_view_ref(tree, setop);
    let is_root = tree.root == setop;
    if parent_view.is_none() && !is_root {
        return Err(Error::transform("factorization target has no parent"));
    }

    // rewrite each branch
    for (bi, b) in inputs.iter().enumerate() {
        let tref = plan.branch_refs[bi];
        let s = tree.select_mut(*b)?;
        s.tables.retain(|t| t.refid != tref);
        s.where_conjuncts
            .retain(|c| !c.referenced_tables().contains(&tref));
        for (p, _) in &plan.passthrough {
            s.select[*p] = OutputItem {
                expr: QExpr::Lit(Value::Null),
                name: format!("PRUNED{p}"),
            };
        }
        for (k, e) in plan.branch_join_exprs[bi].iter().enumerate() {
            s.select.push(OutputItem {
                expr: e.clone(),
                name: format!("FJ{k}"),
            });
        }
    }

    // build the factored block F
    let rt = tree.new_ref();
    let rv = tree.new_ref();
    let mut f = SelectBlock::default();
    f.tables.push(QTable {
        refid: rt,
        alias: plan.table_entry.alias.clone(),
        source: plan.table_entry.source.clone(),
        join: JoinInfo::Inner,
    });
    f.tables.push(QTable {
        refid: rv,
        alias: format!("VW_F{}", setop.0),
        source: QTableSource::View(setop),
        join: JoinInfo::Inner,
    });
    for p in 0..arity {
        let expr = match plan.passthrough.iter().find(|(pp, _)| *pp == p) {
            Some((_, col)) => QExpr::col(rt, *col),
            None => QExpr::col(rv, p),
        };
        f.select.push(OutputItem {
            expr,
            name: format!("C{p}"),
        });
    }
    for (k, col) in plan.join_cols.iter().enumerate() {
        f.where_conjuncts
            .push(QExpr::eq(QExpr::col(rt, *col), QExpr::col(rv, arity + k)));
    }
    let fid = tree.add_block(QueryBlock::Select(f));

    // repoint the parent (or root) to F
    if is_root {
        tree.root = fid;
    } else if let Some((pblock, pref)) = parent_view {
        let p = tree.select_mut(pblock)?;
        let t = p.table_mut(pref).expect("parent view ref");
        t.source = QTableSource::View(fid);
    }
    Ok(ApplyEffect {
        created_views: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    /// The paper's Q14 (reconstructed): two UNION ALL branches sharing
    /// departments + locations; we factor departments.
    const Q14ISH: &str = "SELECT e.employee_name, d.department_name \
        FROM employees e, departments d WHERE e.dept_id = d.dept_id \
        UNION ALL \
        SELECT j.job_title, d.department_name \
        FROM job_history j, departments d WHERE j.dept_id = d.dept_id";

    #[test]
    fn finds_common_table() {
        let cat = catalog();
        let tree = build(&cat, Q14ISH);
        let targets = CbJoinFactorization.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 1, "{targets:?}");
        let Target::Factorize { table, .. } = &targets[0] else {
            panic!()
        };
        assert_eq!(cat.table(*table).unwrap().name, "departments");
    }

    #[test]
    fn factorization_pulls_table_out() {
        let cat = catalog();
        let mut tree = build(&cat, Q14ISH);
        let targets = CbJoinFactorization.find_targets(&tree, &cat);
        CbJoinFactorization
            .apply(&mut tree, &cat, &targets[0], 1)
            .unwrap();
        tree.validate().unwrap();
        // the new root joins departments to a UNION ALL view
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.tables.len(), 2);
        assert!(matches!(root.tables[0].source, QTableSource::Base(_)));
        assert!(matches!(root.tables[1].source, QTableSource::View(_)));
        assert_eq!(root.where_conjuncts.len(), 1);
        // branches no longer contain departments
        let QTableSource::View(u) = root.tables[1].source else {
            panic!()
        };
        let QueryBlock::SetOp(so) = tree.block(u).unwrap() else {
            panic!()
        };
        for b in &so.inputs {
            let s = tree.select(*b).unwrap();
            assert_eq!(s.tables.len(), 1);
            // join expr exposed as an extra output
            assert_eq!(s.select.len(), 3);
        }
    }

    #[test]
    fn no_target_when_table_filtered_differently() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT e.employee_name FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id AND d.loc_id = 1 \
             UNION ALL \
             SELECT j.job_title FROM job_history j, departments d WHERE j.dept_id = d.dept_id",
        );
        // d.loc_id = 1 is a single-table predicate on d → not factorable
        assert!(CbJoinFactorization.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn no_target_for_union_distinct() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT d.dept_id FROM departments d UNION SELECT d.dept_id FROM departments d",
        );
        assert!(CbJoinFactorization.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn factored_query_under_a_parent_view() {
        let cat = catalog();
        let mut tree = build(&cat, &format!("SELECT w.employee_name FROM ({Q14ISH}) w"));
        let targets = CbJoinFactorization.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 1);
        CbJoinFactorization
            .apply(&mut tree, &cat, &targets[0], 1)
            .unwrap();
        tree.validate().unwrap();
    }
}
