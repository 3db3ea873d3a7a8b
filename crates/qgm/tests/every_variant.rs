//! Every `QExpr` variant, with a marker column of its own in every child
//! slot: pins the order `walk` (preorder), `walk_mut` and `rewrite`
//! (postorder), `rewrite_topdown` and the direct-child visit meet
//! children in, and the order a block lists its expressions in.

use cbqt_catalog::TableId;
use cbqt_qgm::{
    AggFunc, BinOp, BlockId, JoinInfo, OutputItem, QExpr, QOrder, QTable, QTableSource, Quant,
    RefId, SelectBlock, SubqKind, WinFunc,
};

fn c(n: usize) -> QExpr {
    QExpr::col(RefId(0), n)
}

fn b(e: QExpr) -> Box<QExpr> {
    Box::new(e)
}

fn order(e: QExpr) -> QOrder {
    QOrder {
        expr: e,
        desc: false,
        nulls_first: false,
    }
}

/// A node's label: `cN` for marker column N, a literal's value, else
/// the variant's name.
fn label(e: &QExpr) -> String {
    match e {
        QExpr::Col { column, .. } => format!("c{column}"),
        QExpr::Lit(v) => v.to_string(),
        other => format!("{other:?}")
            .chars()
            .take_while(|c| c.is_alphanumeric())
            .collect(),
    }
}

fn subq(kind: SubqKind) -> QExpr {
    QExpr::Subq {
        block: BlockId(7),
        kind,
    }
}

/// A case whose children are all leaves: postorder is the preorder
/// with the parent moved last.
fn flat(e: QExpr, pre: Vec<&'static str>) -> (QExpr, Vec<&'static str>, Vec<&'static str>) {
    let mut post = pre.clone();
    post.rotate_left(1);
    (e, pre, post)
}

/// One expression per variant (every subquery kind, CASE with operand
/// and ELSE, a window with PARTITION BY and ORDER BY) plus two nested
/// ones, each with its preorder and postorder labels.
fn cases() -> Vec<(QExpr, Vec<&'static str>, Vec<&'static str>)> {
    let mut out = vec![
        flat(c(0), vec!["c0"]),
        flat(QExpr::lit(7i64), vec!["7"]),
        flat(
            QExpr::Param {
                slot: 0,
                peek: 3i64.into(),
            },
            vec!["Param"],
        ),
        flat(QExpr::bin(BinOp::Add, c(0), c(1)), vec!["Bin", "c0", "c1"]),
        flat(QExpr::Not(b(c(0))), vec!["Not", "c0"]),
        flat(QExpr::Neg(b(c(0))), vec!["Neg", "c0"]),
        flat(
            QExpr::IsNull {
                expr: b(c(0)),
                negated: true,
            },
            vec!["IsNull", "c0"],
        ),
        flat(
            QExpr::InList {
                expr: b(c(0)),
                list: vec![c(1), c(2)],
                negated: false,
            },
            vec!["InList", "c0", "c1", "c2"],
        ),
        flat(
            QExpr::Like {
                expr: b(c(0)),
                pattern: b(c(1)),
                negated: false,
            },
            vec!["Like", "c0", "c1"],
        ),
        flat(
            QExpr::Case {
                operand: Some(b(c(0))),
                branches: vec![(c(1), c(2)), (c(3), c(4))],
                else_expr: Some(b(c(5))),
            },
            vec!["Case", "c0", "c1", "c2", "c3", "c4", "c5"],
        ),
        flat(
            QExpr::Func {
                name: "MOD".into(),
                args: vec![c(0), c(1)],
            },
            vec!["Func", "c0", "c1"],
        ),
        flat(
            QExpr::Agg {
                func: AggFunc::Sum,
                arg: Some(b(c(0))),
                distinct: false,
            },
            vec!["Agg", "c0"],
        ),
        flat(
            QExpr::Agg {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            },
            vec!["Agg"],
        ),
        flat(
            QExpr::Win {
                func: WinFunc::Agg(AggFunc::Sum),
                arg: Some(b(c(0))),
                partition_by: vec![c(1), c(2)],
                order_by: vec![order(c(3)), order(c(4))],
            },
            vec!["Win", "c0", "c1", "c2", "c3", "c4"],
        ),
        flat(subq(SubqKind::Scalar), vec!["Subq"]),
        flat(subq(SubqKind::Exists { negated: true }), vec!["Subq"]),
        flat(
            subq(SubqKind::In {
                lhs: vec![c(0), c(1)],
                negated: false,
            }),
            vec!["Subq", "c0", "c1"],
        ),
        flat(
            subq(SubqKind::Quant {
                op: BinOp::Gt,
                quant: Quant::All,
                lhs: b(c(0)),
            }),
            vec!["Subq", "c0"],
        ),
    ];
    out.push((
        QExpr::Not(b(QExpr::Case {
            operand: None,
            branches: vec![(QExpr::eq(c(0), c(1)), QExpr::Neg(b(c(2))))],
            else_expr: None,
        })),
        vec!["Not", "Case", "Bin", "c0", "c1", "Neg", "c2"],
        vec!["c0", "c1", "Bin", "c2", "Neg", "Case", "Not"],
    ));
    out.push((
        QExpr::InList {
            expr: b(QExpr::Func {
                name: "ABS".into(),
                args: vec![c(0)],
            }),
            list: vec![subq(SubqKind::Quant {
                op: BinOp::Eq,
                quant: Quant::Any,
                lhs: b(QExpr::bin(BinOp::Mul, c(1), c(2))),
            })],
            negated: true,
        },
        vec!["InList", "Func", "c0", "Subq", "Bin", "c1", "c2"],
        vec!["c0", "Func", "c1", "c2", "Bin", "Subq", "InList"],
    ));
    out
}

#[test]
fn walk_is_preorder_over_every_child() {
    for (e, pre, _) in cases() {
        let mut seen = Vec::new();
        e.walk(&mut |n| seen.push(label(n)));
        assert_eq!(seen, pre, "{e:?}");
    }
}

#[test]
fn walk_mut_and_rewrite_are_postorder() {
    for (e, pre, post) in cases() {
        let mut seen = Vec::new();
        e.clone().walk_mut(&mut |n| seen.push(label(n)));
        assert_eq!(seen, post, "walk_mut {e:?}");

        let mut seen = Vec::new();
        e.clone().rewrite(&mut |n| {
            seen.push(label(n));
            None
        });
        assert_eq!(seen, post, "rewrite {e:?}");

        let mut seen = Vec::new();
        e.clone().rewrite_topdown(&mut |n| {
            seen.push(label(n));
            None
        });
        assert_eq!(seen, pre, "rewrite_topdown {e:?}");
    }
}

#[test]
fn direct_children_are_the_walks_second_level() {
    let win = &cases()[13].0;
    let mut kids = Vec::new();
    win.clone().for_each_child_mut(|k| kids.push(label(k)));
    assert_eq!(kids, ["c0", "c1", "c2", "c3", "c4"]);
    let nested = &cases()[19].0;
    let mut kids = Vec::new();
    nested.clone().for_each_child_mut(|k| kids.push(label(k)));
    assert_eq!(kids, ["Func", "Subq"]);
}

#[test]
fn rewrite_replaces_bottom_up_and_topdown_stops_at_a_replacement() {
    // every marker column becomes its successor; a replaced node's new
    // children are not revisited top-down
    for (e, pre, _) in cases() {
        let mut up = e.clone();
        up.rewrite(&mut |n| match n {
            QExpr::Col { table, column } => Some(QExpr::col(*table, column + 1)),
            _ => None,
        });
        let mut seen = Vec::new();
        up.walk(&mut |n| seen.push(label(n)));
        let shifted: Vec<String> = pre
            .iter()
            .map(|l| match l.strip_prefix('c') {
                Some(n) => format!("c{}", n.parse::<usize>().unwrap() + 1),
                None => l.to_string(),
            })
            .collect();
        assert_eq!(seen, shifted, "{e:?}");
    }
    let mut e = QExpr::Not(b(QExpr::Neg(b(c(0)))));
    let mut offered = Vec::new();
    e.rewrite_topdown(&mut |n| {
        offered.push(label(n));
        matches!(n, QExpr::Neg(_)).then(|| QExpr::Neg(b(c(9))))
    });
    assert_eq!(offered, ["Not", "Neg"]);
    assert_eq!(e, QExpr::Not(b(QExpr::Neg(b(c(9))))));
}

#[test]
fn a_block_lists_its_expressions_in_one_order() {
    let table = |n: u32, join| QTable {
        refid: RefId(n),
        alias: format!("t{n}"),
        source: QTableSource::Base(TableId(0)),
        join,
    };
    let mut s = SelectBlock {
        tables: vec![
            table(1, JoinInfo::Inner),
            table(2, JoinInfo::Semi { on: vec![c(0)] }),
            table(
                3,
                JoinInfo::Anti {
                    on: vec![c(1), c(2)],
                    null_aware: true,
                },
            ),
            table(4, JoinInfo::Lateral { semi: false }),
            table(5, JoinInfo::LeftOuter { on: vec![c(3)] }),
        ],
        select: vec![OutputItem {
            expr: c(4),
            name: "x".into(),
        }],
        where_conjuncts: vec![c(5)],
        distinct: false,
        distinct_keys: Some(vec![c(11)]),
        group_by: vec![c(6), c(7)],
        grouping_sets: None,
        having: vec![c(8)],
        order_by: vec![order(c(9)), order(c(10))],
        rownum_limit: None,
    };
    let want = [
        "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11",
    ];
    let mut seen = Vec::new();
    s.for_each_expr(&mut |e| seen.push(label(e)));
    assert_eq!(seen, want);
    let mut seen = Vec::new();
    s.for_each_expr_mut(&mut |e| seen.push(label(e)));
    assert_eq!(seen, want);
}
