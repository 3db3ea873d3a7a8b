//! Set operators into joins (§2.2.7): `INTERSECT` becomes a semijoin,
//! `MINUS` an antijoin, each under a duplicate-eliminating block. The
//! set operators match NULLs, so the join conditions are null-safe
//! unless both sides are provably non-null (then plain equality, which
//! hash joins handle). Duplicate elimination can run at the join output
//! (choice 1) or at the join input (choice 2) — a cost-based placement
//! decision akin to distinct placement.

use super::{ApplyEffect, CbTransform, Target};
use crate::framework::TransformSet;
use cbqt_catalog::Catalog;
use cbqt_common::{Error, Result};
use cbqt_qgm::{
    BinOp, BlockId, JoinInfo, OutputItem, QExpr, QTable, QTableSource, QueryBlock, QueryTree,
    SelectBlock, SetOp,
};

pub struct CbSetOpToJoin;

impl CbTransform for CbSetOpToJoin {
    fn name(&self) -> &'static str {
        "MINUS/INTERSECT into join"
    }

    fn find_targets(&self, tree: &QueryTree, _catalog: &Catalog) -> Vec<Target> {
        let mut out = Vec::new();
        for id in tree.bottom_up() {
            let Ok(QueryBlock::SetOp(so)) = tree.block(id) else {
                continue;
            };
            if !matches!(so.op, SetOp::Intersect | SetOp::Minus) || so.inputs.len() != 2 {
                continue;
            }
            if tree.root == id || crate::util::find_view_ref(tree, id).is_some() {
                out.push(Target::SetOpJoin { setop: id });
            }
        }
        out
    }

    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target> {
        set.setop_to_join.then_some(target)
    }

    fn arity(&self, _target: &Target) -> usize {
        // 0 = keep the set operator, 1 = join + distinct output,
        // 2 = join + distinct input
        3
    }

    fn apply(
        &self,
        tree: &mut QueryTree,
        catalog: &Catalog,
        target: &Target,
        choice: usize,
    ) -> Result<ApplyEffect> {
        let Target::SetOpJoin { setop } = target else {
            return Err(Error::transform("wrong target kind"));
        };
        convert(tree, catalog, *setop, choice)
    }
}

fn convert(
    tree: &mut QueryTree,
    catalog: &Catalog,
    setop: BlockId,
    choice: usize,
) -> Result<ApplyEffect> {
    let (op, left, right) = {
        let QueryBlock::SetOp(so) = tree.block(setop)? else {
            return Err(Error::transform("not a set op"));
        };
        (so.op, so.inputs[0], so.inputs[1])
    };
    let arity = tree.block(left)?.output_arity(tree);
    let names = tree.block(left)?.output_names(tree);
    let parent_view = crate::util::find_view_ref(tree, setop);
    let is_root = tree.root == setop;

    let rl = tree.new_ref();
    let rr = tree.new_ref();
    // null-safe join conditions column by column
    let mut on = Vec::with_capacity(arity);
    for i in 0..arity {
        let plain_ok =
            output_not_null(tree, catalog, left, i) && output_not_null(tree, catalog, right, i);
        let eq = QExpr::eq(QExpr::col(rl, i), QExpr::col(rr, i));
        if plain_ok {
            on.push(eq);
        } else {
            let both_null = QExpr::bin(
                BinOp::And,
                QExpr::IsNull {
                    expr: Box::new(QExpr::col(rl, i)),
                    negated: false,
                },
                QExpr::IsNull {
                    expr: Box::new(QExpr::col(rr, i)),
                    negated: false,
                },
            );
            on.push(QExpr::bin(BinOp::Or, eq, both_null));
        }
    }
    let join = match op {
        SetOp::Intersect => JoinInfo::Semi { on },
        SetOp::Minus => JoinInfo::Anti {
            on,
            null_aware: false,
        },
        _ => unreachable!("filtered in find_targets"),
    };
    let mut j = SelectBlock::default();
    j.tables.push(QTable {
        refid: rl,
        alias: format!("SL{}", setop.0),
        source: QTableSource::View(left),
        join: JoinInfo::Inner,
    });
    j.tables.push(QTable {
        refid: rr,
        alias: format!("SR{}", setop.0),
        source: QTableSource::View(right),
        join,
    });
    for (i, n) in names.iter().enumerate() {
        j.select.push(OutputItem {
            expr: QExpr::col(rl, i),
            name: n.clone(),
        });
    }
    match choice {
        1 => j.distinct = true,
        2 => {
            // distinct at the input: dedup the left side before joining
            match tree.block_mut(left)? {
                QueryBlock::Select(ls) => ls.distinct = true,
                QueryBlock::SetOp(_) => j.distinct = true, // fall back
            }
        }
        _ => return Err(Error::transform("invalid choice for set-op conversion")),
    }
    let jid = tree.add_block(QueryBlock::Select(j));
    if is_root {
        tree.root = jid;
    } else if let Some((pblock, pref)) = parent_view {
        let p = tree.select_mut(pblock)?;
        let t = p.table_mut(pref).expect("parent view ref");
        t.source = QTableSource::View(jid);
    }
    tree.remove_block(setop);
    Ok(ApplyEffect::default())
}

fn output_not_null(tree: &QueryTree, catalog: &Catalog, block: BlockId, col: usize) -> bool {
    match tree.block(block) {
        Ok(QueryBlock::Select(s)) => match s.select.get(col) {
            Some(item) => crate::util::provably_not_null(tree, catalog, s, &item.expr),
            None => false,
        },
        Ok(QueryBlock::SetOp(so)) => so
            .inputs
            .iter()
            .all(|b| output_not_null(tree, catalog, *b, col)),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    const MINUS_Q: &str = "SELECT d.dept_id FROM departments d \
        MINUS SELECT e.dept_id FROM employees e";

    #[test]
    fn finds_minus_and_intersect() {
        let cat = catalog();
        let tree = build(&cat, MINUS_Q);
        assert_eq!(CbSetOpToJoin.find_targets(&tree, &cat).len(), 1);
        let tree = build(
            &cat,
            "SELECT dept_id FROM departments INTERSECT SELECT dept_id FROM employees",
        );
        assert_eq!(CbSetOpToJoin.find_targets(&tree, &cat).len(), 1);
        let tree = build(
            &cat,
            "SELECT dept_id FROM departments UNION SELECT dept_id FROM employees",
        );
        assert!(CbSetOpToJoin.find_targets(&tree, &cat).is_empty());
    }

    #[test]
    fn minus_becomes_antijoin_with_distinct_output() {
        let cat = catalog();
        let mut tree = build(&cat, MINUS_Q);
        let t = CbSetOpToJoin.find_targets(&tree, &cat)[0].clone();
        CbSetOpToJoin.apply(&mut tree, &cat, &t, 1).unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert!(root.distinct);
        assert!(matches!(root.tables[1].join, JoinInfo::Anti { .. }));
        // departments.dept_id is NOT NULL; employees.dept_id nullable →
        // null-safe OR condition
        let JoinInfo::Anti { on, .. } = &root.tables[1].join else {
            panic!()
        };
        assert!(matches!(on[0], QExpr::Bin { op: BinOp::Or, .. }));
    }

    #[test]
    fn intersect_becomes_semijoin_with_input_distinct() {
        let cat = catalog();
        let mut tree = build(
            &cat,
            "SELECT d.dept_id FROM departments d INTERSECT SELECT e.emp_id FROM employees e",
        );
        let t = CbSetOpToJoin.find_targets(&tree, &cat)[0].clone();
        CbSetOpToJoin.apply(&mut tree, &cat, &t, 2).unwrap();
        tree.validate().unwrap();
        let root = tree.select(tree.root).unwrap();
        assert!(!root.distinct);
        assert!(matches!(root.tables[1].join, JoinInfo::Semi { .. }));
        // plain equality: both sides NOT NULL
        let JoinInfo::Semi { on } = &root.tables[1].join else {
            panic!()
        };
        assert!(matches!(on[0], QExpr::Bin { op: BinOp::Eq, .. }));
        // left input got distinct
        let QTableSource::View(l) = root.tables[0].source else {
            panic!()
        };
        assert!(tree.select(l).unwrap().distinct);
    }

    #[test]
    fn conversion_under_parent_view() {
        let cat = catalog();
        let mut tree = build(&cat, &format!("SELECT w.dept_id FROM ({MINUS_Q}) w"));
        let t = CbSetOpToJoin.find_targets(&tree, &cat)[0].clone();
        CbSetOpToJoin.apply(&mut tree, &cat, &t, 1).unwrap();
        tree.validate().unwrap();
    }
}
