//! Predicate pullup (§2.2.6): expensive filter predicates inside a view
//! are pulled into the containing query, which evaluates them lazily —
//! profitable when the containing query has a ROWNUM limit and the view
//! has a blocking operator (ORDER BY), so only the first k surviving
//! rows ever pay for the predicate (Q16 → Q17). A conjunct is lifted
//! only where the shared rule of `view_pred.rs` would push it back
//! into the view's WHERE.

use super::{ApplyEffect, CbTransform, Target};
use crate::framework::TransformSet;
use crate::view_pred::{landing_in, Landing};
use cbqt_catalog::Catalog;
use cbqt_common::{Error, Result};
use cbqt_qgm::{
    BlockId, JoinInfo, OutputItem, QExpr, QTableSource, QueryBlock, QueryTree, RefId, SelectBlock,
};

pub struct CbPredicatePullup;

impl CbTransform for CbPredicatePullup {
    fn name(&self) -> &'static str {
        "predicate pullup"
    }

    fn find_targets(&self, tree: &QueryTree, _catalog: &Catalog) -> Vec<Target> {
        let mut out = Vec::new();
        for id in tree.bottom_up() {
            let Ok(QueryBlock::Select(p)) = tree.block(id) else {
                continue;
            };
            // only considered when the containing query has a ROWNUM limit
            if p.rownum_limit.is_none() {
                continue;
            }
            for t in &p.tables {
                if !matches!(t.join, JoinInfo::Inner) {
                    continue;
                }
                let QTableSource::View(v) = t.source else {
                    continue;
                };
                let Ok(QueryBlock::Select(vs)) = tree.block(v) else {
                    continue;
                };
                // the view must contain a blocking operator
                if vs.order_by.is_empty() && !vs.is_aggregated() && !vs.distinct {
                    continue;
                }
                for (ci, c) in vs.where_conjuncts.iter().enumerate() {
                    if !c.is_expensive() || c.contains_subquery() {
                        continue;
                    }
                    // only a conjunct the view would take back into its
                    // WHERE keeps the view's rows when evaluated above it
                    let mut lifted = vs.clone();
                    if lift(&mut lifted, t.refid, c)
                        .is_some_and(|e| landing_in(&lifted, t.refid, &e) == Some(Landing::Where))
                    {
                        out.push(Target::PullupPred {
                            parent: id,
                            view: v,
                            conjunct: ci,
                        });
                    }
                }
            }
        }
        out
    }

    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target> {
        set.predicate_pullup.then_some(target)
    }

    fn apply(
        &self,
        tree: &mut QueryTree,
        _catalog: &Catalog,
        target: &Target,
        _choice: usize,
    ) -> Result<ApplyEffect> {
        let Target::PullupPred {
            parent,
            view,
            conjunct,
        } = target
        else {
            return Err(Error::transform("wrong target kind"));
        };
        pull_up(tree, *parent, *view, *conjunct)
    }
}

/// Rewrites `pred`, over the tables of view `vs`, over the view's outputs
/// (`Col { view_ref, i }`). A column no output exposes becomes a new
/// output, which only a view that is neither DISTINCT nor aggregated can
/// take without changing its rows. None if `pred` reads a table the view
/// does not declare (a correlation) or a column the view cannot expose.
fn lift(vs: &mut SelectBlock, view_ref: RefId, pred: &QExpr) -> Option<QExpr> {
    let declared = vs.declared_refs();
    let fixed = vs.distinct || vs.is_aggregated();
    let mut ok = true;
    let mut lifted = pred.clone();
    lifted.rewrite(&mut |n| {
        let QExpr::Col { table, .. } = n else {
            return None;
        };
        ok &= declared.contains(table);
        let i = vs
            .select
            .iter()
            .position(|o| o.expr == *n)
            .unwrap_or_else(|| {
                ok &= !fixed;
                let name = format!("PU{}", vs.select.len());
                vs.select.push(OutputItem {
                    expr: n.clone(),
                    name,
                });
                vs.select.len() - 1
            });
        Some(QExpr::col(view_ref, i))
    });
    ok.then_some(lifted)
}

fn pull_up(
    tree: &mut QueryTree,
    parent: BlockId,
    view: BlockId,
    conjunct: usize,
) -> Result<ApplyEffect> {
    let view_ref: RefId = {
        let p = tree.select(parent)?;
        p.tables
            .iter()
            .find(|t| t.source == QTableSource::View(view))
            .map(|t| t.refid)
            .ok_or_else(|| Error::transform("view ref vanished"))?
    };
    let vs = tree.select_mut(view)?;
    if conjunct >= vs.where_conjuncts.len() {
        return Err(Error::transform("conjunct index out of date"));
    }
    let pred = vs.where_conjuncts.remove(conjunct);
    let lifted = lift(vs, view_ref, &pred).ok_or_else(|| Error::transform("cannot lift"))?;
    tree.select_mut(parent)?.where_conjuncts.push(lifted);
    Ok(ApplyEffect::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    /// The paper's Q16 shape: a blocking view with two expensive
    /// predicates under a ROWNUM < 20 outer query.
    const Q16ISH: &str = "SELECT v.employee_name FROM \
        (SELECT employee_name, salary FROM employees \
         WHERE EXPENSIVE(salary, 200) > 1000 AND EXPENSIVE(emp_id, 100) > 0 \
         ORDER BY employee_name) v \
        WHERE rownum < 20";

    #[test]
    fn two_targets_one_per_expensive_predicate() {
        let cat = catalog();
        let tree = build(&cat, Q16ISH);
        let targets = CbPredicatePullup.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn pullup_moves_predicate_and_exposes_columns() {
        let cat = catalog();
        let mut tree = build(&cat, Q16ISH);
        let targets = CbPredicatePullup.find_targets(&tree, &cat);
        // pull the second predicate (references emp_id, not an output)
        CbPredicatePullup
            .apply(&mut tree, &cat, &targets[1], 1)
            .unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.where_conjuncts.len(), 1);
        assert!(root.where_conjuncts[0].is_expensive());
        let QTableSource::View(v) = root.tables[0].source else {
            panic!()
        };
        let vs = tree.select(v).unwrap();
        assert_eq!(vs.where_conjuncts.len(), 1);
        // emp_id was appended as a new output
        assert_eq!(vs.select.len(), 3);
    }

    #[test]
    fn both_predicates_can_pull() {
        let cat = catalog();
        let mut tree = build(&cat, Q16ISH);
        // indices shift after the first pull: re-find targets
        let t1 = CbPredicatePullup.find_targets(&tree, &cat)[0].clone();
        CbPredicatePullup.apply(&mut tree, &cat, &t1, 1).unwrap();
        let t2 = CbPredicatePullup.find_targets(&tree, &cat)[0].clone();
        CbPredicatePullup.apply(&mut tree, &cat, &t2, 1).unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.where_conjuncts.len(), 2);
    }

    #[test]
    fn no_target_without_rownum() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT v.employee_name FROM \
             (SELECT employee_name FROM employees WHERE EXPENSIVE(salary, 200) > 1000 \
              ORDER BY employee_name) v",
        );
        assert!(CbPredicatePullup.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn no_target_without_blocking_operator() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT v.employee_name FROM \
             (SELECT employee_name FROM employees WHERE EXPENSIVE(salary, 200) > 1000) v \
             WHERE rownum < 20",
        );
        assert!(CbPredicatePullup.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn cheap_predicates_not_lifted() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT v.employee_name FROM \
             (SELECT employee_name FROM employees WHERE salary > 1000 ORDER BY employee_name) v \
             WHERE rownum < 20",
        );
        assert!(CbPredicatePullup.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn distinct_view_gets_no_new_output() {
        // lifting EXPENSIVE(salary) would add salary to the DISTINCT list;
        // a predicate on an existing output lifts
        let cat = catalog();
        for (pred, targets) in [("salary", 0), ("dept_id", 1)] {
            let tree = build(
                &cat,
                &format!(
                    "SELECT v.dept_id FROM (SELECT DISTINCT dept_id FROM employees \
                     WHERE EXPENSIVE({pred}, 200) > 10 ORDER BY dept_id) v WHERE rownum < 20"
                ),
            );
            let found = CbPredicatePullup.find_targets(&tree, &cat);
            assert_eq!(found.len(), targets, "{pred}");
        }
    }
}
