//! Group-by placement (§2.2.4): pushes the group-by operator below the
//! joins ("eager aggregation", [Yan & Larson]) by pre-aggregating one
//! table into a group-by view keyed on its join and grouping columns.
//!
//! `SUM`/`COUNT` become partial aggregates re-aggregated with `SUM`
//! above the join; `AVG` decomposes into `SUM`/`COUNT`; `MIN`/`MAX`
//! re-aggregate with themselves. Valid because the view groups by every
//! column of the chosen table that the join or the outer query uses, so
//! join fan-out multiplies whole groups uniformly.

use super::{ApplyEffect, CbTransform, Target};
use crate::framework::TransformSet;
use cbqt_catalog::Catalog;
use cbqt_common::{Error, Result};
use cbqt_qgm::{
    AggFunc, BinOp, BlockId, JoinInfo, OutputItem, QExpr, QTable, QTableSource, QueryBlock,
    QueryTree, RefId, SelectBlock,
};

pub struct CbGroupByPlacement;

impl CbTransform for CbGroupByPlacement {
    fn name(&self) -> &'static str {
        "group-by placement"
    }

    fn find_targets(&self, tree: &QueryTree, _catalog: &Catalog) -> Vec<Target> {
        let mut out = Vec::new();
        for id in tree.bottom_up() {
            let Ok(QueryBlock::Select(s)) = tree.block(id) else {
                continue;
            };
            if !eligible_block(s) {
                continue;
            }
            for t in &s.tables {
                if !matches!(t.source, QTableSource::Base(_)) || !t.join.is_inner() {
                    continue;
                }
                if aggs_of(s).is_empty() {
                    continue;
                }
                if aggs_all_on(s, t.refid) {
                    out.push(Target::GroupByPush {
                        block: id,
                        table_ref: t.refid,
                    });
                }
            }
        }
        out
    }

    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target> {
        set.group_by_placement.then_some(target)
    }

    fn apply(
        &self,
        tree: &mut QueryTree,
        _catalog: &Catalog,
        target: &Target,
        _choice: usize,
    ) -> Result<ApplyEffect> {
        let Target::GroupByPush { block, table_ref } = target else {
            return Err(Error::transform("wrong target kind"));
        };
        push_group_by(tree, *block, *table_ref)
    }
}

fn eligible_block(s: &SelectBlock) -> bool {
    s.group_by.len() + s.tables.len() >= 3 // group-by over ≥2 tables
        && !s.group_by.is_empty()
        && s.grouping_sets.is_none()
        && !s.distinct
        && s.distinct_keys.is_none()
        && s.rownum_limit.is_none()
        && s.tables.len() >= 2
        && s.tables.iter().all(|t| t.join.is_inner())
        && !s.select.iter().any(|i| i.expr.contains_window())
        && !block_refs_subqueries(s)
}

fn block_refs_subqueries(s: &SelectBlock) -> bool {
    let mut found = false;
    s.for_each_expr(&mut |e| {
        if e.contains_subquery() {
            found = true;
        }
    });
    found
}

/// Collects the distinct aggregate expressions of a block.
fn aggs_of(s: &SelectBlock) -> Vec<QExpr> {
    let mut aggs = Vec::new();
    s.for_each_expr(&mut |e| {
        e.walk(&mut |n| {
            if matches!(n, QExpr::Agg { .. }) && !aggs.contains(n) {
                aggs.push(n.clone());
            }
        });
    });
    aggs
}

/// All aggregates reference only columns of `table` (COUNT(*) counts the
/// join result, which eager aggregation also supports), none is
/// DISTINCT, and functions are decomposable.
fn aggs_all_on(s: &SelectBlock, table: RefId) -> bool {
    for a in aggs_of(s) {
        let QExpr::Agg { arg, distinct, .. } = &a else {
            return false;
        };
        if *distinct {
            return false;
        }
        if let Some(arg) = arg {
            let refs = arg.referenced_tables();
            if refs.is_empty() || !refs.iter().all(|r| *r == table) {
                return false;
            }
        }
        // COUNT(*) is fine: the partial counts rows of `table`, the join
        // fan-out is applied by the outer SUM
    }
    true
}

fn push_group_by(tree: &mut QueryTree, block: BlockId, table_ref: RefId) -> Result<ApplyEffect> {
    // 1. columns of the table needed outside aggregate arguments
    let mut needed: Vec<usize> = Vec::new();
    {
        let s = tree.select(block)?;
        let mut note = |e: &QExpr| {
            probe(e, &mut |n| match n {
                QExpr::Agg { .. } => true, // don't descend into agg args
                QExpr::Col { table, column } => {
                    if *table == table_ref && !needed.contains(column) {
                        needed.push(*column);
                    }
                    false
                }
                _ => false,
            });
        };
        for c in &s.where_conjuncts {
            note(c);
        }
        for g in &s.group_by {
            note(g);
        }
        for i in &s.select {
            note(&i.expr);
        }
        for h in &s.having {
            note(h);
        }
        for o in &s.order_by {
            note(&o.expr);
        }
    }
    needed.sort_unstable();

    // 2. build the pre-aggregation view
    let aggs = {
        let s = tree.select(block)?;
        aggs_of(s)
    };
    let (table_entry, moved_preds) = {
        let s = tree.select_mut(block)?;
        let pos = s
            .tables
            .iter()
            .position(|t| t.refid == table_ref)
            .ok_or_else(|| Error::transform("table ref vanished"))?;
        let entry = s.tables.remove(pos);
        // single-table predicates on the table move into the view
        let mut moved = Vec::new();
        let mut kept = Vec::new();
        for c in s.where_conjuncts.drain(..) {
            let refs = c.referenced_tables();
            if !c.contains_subquery() && !refs.is_empty() && refs.iter().all(|r| *r == table_ref) {
                moved.push(c);
            } else {
                kept.push(c);
            }
        }
        s.where_conjuncts = kept;
        (entry, moved)
    };

    let mut view = SelectBlock {
        tables: vec![QTable {
            join: JoinInfo::Inner,
            ..table_entry
        }],
        where_conjuncts: moved_preds,
        ..Default::default()
    };
    for &c in &needed {
        view.select.push(OutputItem {
            expr: QExpr::col(table_ref, c),
            name: format!("K{c}"),
        });
        view.group_by.push(QExpr::col(table_ref, c));
    }
    // partial aggregates; record how each original agg is rebuilt
    let mut rebuild: Vec<(QExpr, QExpr)> = Vec::new(); // (original, outer replacement)
    let rv = tree.new_ref();
    for a in &aggs {
        let QExpr::Agg { func, arg, .. } = a else {
            unreachable!()
        };
        let slot = view.select.len();
        match func {
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                view.select.push(OutputItem {
                    expr: a.clone(),
                    name: format!("P{slot}"),
                });
                let outer_func = if *func == AggFunc::Sum {
                    AggFunc::Sum
                } else {
                    *func
                };
                rebuild.push((
                    a.clone(),
                    QExpr::Agg {
                        func: outer_func,
                        arg: Some(Box::new(QExpr::col(rv, slot))),
                        distinct: false,
                    },
                ));
            }
            AggFunc::Count | AggFunc::CountStar => {
                view.select.push(OutputItem {
                    expr: a.clone(),
                    name: format!("P{slot}"),
                });
                rebuild.push((
                    a.clone(),
                    QExpr::Agg {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(QExpr::col(rv, slot))),
                        distinct: false,
                    },
                ));
            }
            AggFunc::Avg => {
                let arg = arg.clone().expect("AVG has an argument");
                view.select.push(OutputItem {
                    expr: QExpr::Agg {
                        func: AggFunc::Sum,
                        arg: Some(arg.clone()),
                        distinct: false,
                    },
                    name: format!("P{slot}S"),
                });
                view.select.push(OutputItem {
                    expr: QExpr::Agg {
                        func: AggFunc::Count,
                        arg: Some(arg),
                        distinct: false,
                    },
                    name: format!("P{slot}C"),
                });
                let sum = QExpr::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(QExpr::col(rv, slot))),
                    distinct: false,
                };
                let cnt = QExpr::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(QExpr::col(rv, slot + 1))),
                    distinct: false,
                };
                rebuild.push((a.clone(), QExpr::bin(BinOp::Div, sum, cnt)));
            }
        }
    }
    let vid = tree.add_block(QueryBlock::Select(view));

    // 3. splice the view into the block and rewrite expressions
    {
        let s = tree.select_mut(block)?;
        s.tables.push(QTable {
            refid: rv,
            alias: format!("VW_G{}", block.0),
            source: QTableSource::View(vid),
            join: JoinInfo::Inner,
        });
        let col_slot = |c: usize| needed.iter().position(|&x| x == c).expect("collected");
        s.for_each_expr_mut(&mut |e| {
            e.rewrite_topdown(&mut |n| {
                if let Some((_, repl)) = rebuild.iter().find(|(orig, _)| orig == n) {
                    return Some(repl.clone());
                }
                if let QExpr::Col { table, column } = n {
                    if *table == table_ref {
                        return Some(QExpr::col(rv, col_slot(*column)));
                    }
                }
                None
            });
        });
    }
    Ok(ApplyEffect::default())
}

/// A preorder walk that does not descend below a node `stop` accepts.
fn probe(e: &QExpr, stop: &mut impl FnMut(&QExpr) -> bool) {
    if !stop(e) {
        e.for_each_child(|c| probe(c, stop));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    const GB_QUERY: &str = "SELECT d.department_name, SUM(e.salary) total, AVG(e.salary) a, \
                                   COUNT(*) c \
        FROM employees e, departments d \
        WHERE e.dept_id = d.dept_id \
        GROUP BY d.department_name";

    #[test]
    fn finds_target_on_aggregated_table() {
        let cat = catalog();
        let tree = build(&cat, GB_QUERY);
        let targets = CbGroupByPlacement.find_targets(&tree, &cat);
        assert_eq!(targets.len(), 1);
        let Target::GroupByPush { table_ref, .. } = &targets[0] else {
            panic!()
        };
        let root = tree.select(tree.root).unwrap();
        assert_eq!(root.table(*table_ref).unwrap().alias, "e");
    }

    #[test]
    fn pushes_partial_aggregation_below_join() {
        let cat = catalog();
        let mut tree = build(&cat, GB_QUERY);
        let targets = CbGroupByPlacement.find_targets(&tree, &cat);
        CbGroupByPlacement
            .apply(&mut tree, &cat, &targets[0], 1)
            .unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        // employees replaced by a view
        assert!(root
            .tables
            .iter()
            .any(|t| matches!(t.source, QTableSource::View(_))));
        let vt = root
            .tables
            .iter()
            .find(|t| matches!(t.source, QTableSource::View(_)))
            .unwrap();
        let QTableSource::View(vb) = vt.source else {
            panic!()
        };
        let v = tree.select(vb).unwrap();
        // view groups by e.dept_id and carries SUM, SUM+COUNT (avg), COUNT(*)
        assert_eq!(v.group_by.len(), 1);
        assert_eq!(v.select.len(), 1 + 4);
        // outer aggregates re-aggregate the partials
        assert!(root.select[1].expr.contains_agg());
        // outer AVG became SUM/SUM
        assert!(matches!(
            root.select[2].expr,
            QExpr::Bin { op: BinOp::Div, .. }
        ));
    }

    #[test]
    fn no_target_when_aggs_span_tables() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT SUM(e.salary + d.loc_id) FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id GROUP BY d.department_name",
        );
        assert!(CbGroupByPlacement.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn no_target_for_distinct_agg() {
        let cat = catalog();
        let tree = build(
            &cat,
            "SELECT COUNT(DISTINCT e.salary) FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id GROUP BY d.department_name",
        );
        assert!(CbGroupByPlacement.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn single_table_predicates_move_into_view() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT d.department_name, SUM(e.salary) FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id AND e.salary > 100 GROUP BY d.department_name",
        );
        let targets = CbGroupByPlacement.find_targets(&tree, &cat);
        CbGroupByPlacement
            .apply(&mut tree, &cat, &targets[0], 1)
            .unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        let vt = root
            .tables
            .iter()
            .find(|t| matches!(t.source, QTableSource::View(_)))
            .unwrap();
        let QTableSource::View(vb) = vt.source else {
            panic!()
        };
        assert_eq!(tree.select(vb).unwrap().where_conjuncts.len(), 1);
        // join predicate stays outside
        assert_eq!(root.where_conjuncts.len(), 1);
    }
}
