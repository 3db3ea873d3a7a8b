//! Disjunction into UNION ALL expansion (§2.2.8, "OR expansion"): a
//! disjunctive WHERE conjunct splits the block into UNION ALL branches,
//! one per disjunct, with `LNNVL` guards on later branches so no row is
//! produced twice. Each branch can then use the access path its own
//! disjunct enables.

use super::{ApplyEffect, CbTransform, Target};
use crate::framework::TransformSet;
use cbqt_catalog::Catalog;
use cbqt_common::{Error, Result};
use cbqt_qgm::{
    BinOp, BlockId, JoinInfo, OutputItem, QExpr, QTable, QTableSource, QueryBlock, QueryTree,
    SelectBlock, SetOp, SetOpBlock,
};

/// Branch-count cap: wider disjunctions are left as post-filters.
const MAX_BRANCHES: usize = 4;

pub struct CbOrExpansion;

impl CbTransform for CbOrExpansion {
    fn name(&self) -> &'static str {
        "disjunction into UNION ALL"
    }

    fn find_targets(&self, tree: &QueryTree, _catalog: &Catalog) -> Vec<Target> {
        let mut out = Vec::new();
        for id in tree.bottom_up() {
            let Ok(QueryBlock::Select(s)) = tree.block(id) else {
                continue;
            };
            if s.is_aggregated()
                || s.distinct
                || s.distinct_keys.is_some()
                || s.grouping_sets.is_some()
                || s.rownum_limit.is_some()
                || s.select.iter().any(|i| i.expr.contains_window())
            {
                continue;
            }
            if tree.root != id && crate::util::find_view_ref(tree, id).is_none() {
                continue; // subquery blocks are left to unnesting
            }
            for (ci, c) in s.where_conjuncts.iter().enumerate() {
                let ds = disjuncts(c);
                if ds.len() >= 2 && ds.len() <= MAX_BRANCHES && !c.contains_subquery() {
                    out.push(Target::OrExpand {
                        block: id,
                        conjunct: ci,
                    });
                }
            }
        }
        out
    }

    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target> {
        set.or_expansion.then_some(target)
    }

    fn apply(
        &self,
        tree: &mut QueryTree,
        _catalog: &Catalog,
        target: &Target,
        _choice: usize,
    ) -> Result<ApplyEffect> {
        let Target::OrExpand { block, conjunct } = target else {
            return Err(Error::transform("wrong target kind"));
        };
        expand(tree, *block, *conjunct)
    }
}

fn disjuncts(e: &QExpr) -> Vec<QExpr> {
    let mut out = Vec::new();
    fn rec(e: &QExpr, out: &mut Vec<QExpr>) {
        match e {
            QExpr::Bin {
                op: BinOp::Or,
                left,
                right,
            } => {
                rec(left, out);
                rec(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    rec(e, &mut out);
    out
}

fn expand(tree: &mut QueryTree, block: BlockId, conjunct: usize) -> Result<ApplyEffect> {
    let (ds, order_by) = {
        let s = tree.select(block)?;
        let c = s
            .where_conjuncts
            .get(conjunct)
            .ok_or_else(|| Error::transform("conjunct index out of date"))?;
        (disjuncts(c), s.order_by.clone())
    };
    if ds.len() < 2 {
        return Err(Error::transform("not a disjunction"));
    }
    let parent_view = crate::util::find_view_ref(tree, block);
    let is_root = tree.root == block;

    // one copy of the block per disjunct
    let snapshot = tree.clone();
    let mut branches = Vec::with_capacity(ds.len());
    for j in 0..ds.len() {
        let copy = tree.import_subtree(&snapshot, block)?;
        {
            let s = tree.select_mut(copy)?;
            s.order_by.clear(); // ordering happens above the UNION ALL
                                // replace the disjunction with: d_j AND LNNVL(d_0..j-1)
            let copied = s.where_conjuncts.remove(conjunct);
            let copied_ds = disjuncts(&copied);
            s.where_conjuncts.push(copied_ds[j].clone());
            for prev in copied_ds.iter().take(j) {
                s.where_conjuncts.push(QExpr::Func {
                    name: "LNNVL".into(),
                    args: vec![prev.clone()],
                });
            }
        }
        branches.push(copy);
    }
    let union = tree.add_block(QueryBlock::SetOp(SetOpBlock {
        op: SetOp::UnionAll,
        inputs: branches,
        order_by: Vec::new(),
    }));

    // ORDER BY (root blocks) needs a wrapper select above the UNION ALL
    let new_top = if order_by.is_empty() {
        union
    } else {
        let names = tree.block(union)?.output_names(tree);
        let rw = tree.new_ref();
        let select: Vec<OutputItem> = names
            .iter()
            .enumerate()
            .map(|(i, n)| OutputItem {
                expr: QExpr::col(rw, i),
                name: n.clone(),
            })
            .collect();
        // re-express the order keys over the wrapper outputs: they must
        // be among the select items (checked here)
        let orig = tree.select(block)?;
        let mut wrapped_order = Vec::new();
        for o in &order_by {
            let Some(pos) = orig.select.iter().position(|it| it.expr == o.expr) else {
                return Err(Error::transform(
                    "ORDER BY key not in select list; expansion skipped",
                ));
            };
            wrapped_order.push(cbqt_qgm::QOrder {
                expr: QExpr::col(rw, pos),
                desc: o.desc,
                nulls_first: o.nulls_first,
            });
        }
        let wrapper = SelectBlock {
            tables: vec![QTable {
                refid: rw,
                alias: format!("VW_O{}", block.0),
                source: QTableSource::View(union),
                join: JoinInfo::Inner,
            }],
            select,
            order_by: wrapped_order,
            ..Default::default()
        };
        tree.add_block(QueryBlock::Select(wrapper))
    };

    if is_root {
        tree.root = new_top;
    } else if let Some((pblock, pref)) = parent_view {
        let p = tree.select_mut(pblock)?;
        let t = p.table_mut(pref).expect("parent view ref");
        t.source = QTableSource::View(new_top);
    }
    tree.remove_block(block);
    Ok(ApplyEffect::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    const OR_Q: &str = "SELECT e.employee_name FROM employees e \
        WHERE e.emp_id = 5 OR e.salary > 100000";

    #[test]
    fn finds_disjunction() {
        let cat = catalog();
        let tree = build(&cat, OR_Q);
        assert_eq!(CbOrExpansion.find_targets(&tree, &cat).len(), 1);
    }

    #[test]
    fn expansion_creates_union_all_with_lnnvl() {
        let cat = catalog();
        let mut tree = build(&cat, OR_Q);
        let t = CbOrExpansion.find_targets(&tree, &cat)[0].clone();
        CbOrExpansion.apply(&mut tree, &cat, &t, 1).unwrap();
        tree.validate().unwrap();
        let QueryBlock::SetOp(so) = tree.block(tree.root).unwrap() else {
            panic!("expected UNION ALL root")
        };
        assert_eq!(so.op, SetOp::UnionAll);
        assert_eq!(so.inputs.len(), 2);
        // second branch carries the LNNVL guard
        let b2 = tree.select(so.inputs[1]).unwrap();
        assert!(b2
            .where_conjuncts
            .iter()
            .any(|c| matches!(c, QExpr::Func { name, .. } if name == "LNNVL")));
    }

    #[test]
    fn order_by_wrapped_above_union() {
        let cat = catalog();
        let mut tree = build(&cat, &format!("{OR_Q} ORDER BY e.employee_name"));
        let t = CbOrExpansion.find_targets(&tree, &cat)[0].clone();
        CbOrExpansion.apply(&mut tree, &cat, &t, 1).unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.order_by.len(), 1);
        assert!(matches!(root.tables[0].source, QTableSource::View(_)));
    }

    #[test]
    fn three_way_disjunction() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT e.emp_id FROM employees e \
             WHERE e.emp_id = 1 OR e.emp_id = 2 OR e.emp_id = 3",
        );
        let t = CbOrExpansion.find_targets(&tree, &cat)[0].clone();
        CbOrExpansion.apply(&mut tree, &cat, &t, 1).unwrap();
        let QueryBlock::SetOp(so) = tree.block(tree.root).unwrap() else {
            panic!()
        };
        assert_eq!(so.inputs.len(), 3);
        // last branch has two LNNVL guards
        let b3 = tree.select(so.inputs[2]).unwrap();
        let guards = b3
            .where_conjuncts
            .iter()
            .filter(|c| matches!(c, QExpr::Func { name, .. } if name == "LNNVL"))
            .count();
        assert_eq!(guards, 2);
    }

    #[test]
    fn aggregated_block_not_expanded() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT COUNT(*) FROM employees e WHERE e.emp_id = 5 OR e.salary > 100000",
        );
        assert!(CbOrExpansion.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn subquery_disjunct_not_expanded() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT e.emp_id FROM employees e WHERE e.emp_id = 5 OR \
             EXISTS (SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)",
        );
        assert!(CbOrExpansion.find_targets(&tree, &cat).is_empty());
    }
}
