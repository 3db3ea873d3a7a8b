//! Property test for `util::rejects_null`, the per-column NULL-rejection
//! test group pruning (§2.1.4) relies on: whenever it says a conjunct
//! rejects NULL on a column, evaluating the conjunct on a row that holds
//! NULL there is never TRUE.

use cbqt_catalog::Catalog;
use cbqt_common::{Truth, Value};
use cbqt_exec::eval::{Bindings, EvalCtx};
use cbqt_exec::Engine;
use cbqt_optimizer::{Layout, PlanNodeId};
use cbqt_qgm::{BinOp, QExpr, RefId};
use cbqt_storage::Storage;
use cbqt_testkit::prop::{just, option_of, recursive, vec_of, SBox, Strategy};
use cbqt_testkit::{one_of, props};
use cbqt_transform::util::rejects_null;

const T: RefId = RefId(0);

fn func(name: &str, args: Vec<QExpr>) -> QExpr {
    QExpr::Func {
        name: name.into(),
        args,
    }
}

/// Integer expressions over the three columns of `T`, with the strict
/// operators and the ones that hide a NULL (NVL, CASE).
fn arb_value() -> SBox<QExpr> {
    let leaf = one_of![
        (0usize..3).prop_map(|c| QExpr::col(T, c)),
        (-3i64..4).prop_map(QExpr::lit),
        just(QExpr::Lit(Value::Null)),
    ]
    .boxed();
    recursive(leaf, 3, |inner| {
        one_of![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| QExpr::bin(BinOp::Add, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| QExpr::bin(BinOp::Sub, a, b)),
            inner.clone().prop_map(|a| QExpr::Neg(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| func("NVL", vec![a, b])),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| QExpr::Case {
                operand: None,
                branches: vec![(
                    QExpr::IsNull {
                        expr: Box::new(a),
                        negated: false,
                    },
                    b,
                )],
                else_expr: Some(Box::new(c)),
            }),
        ]
        .boxed()
    })
}

/// Predicates over [`arb_value`]: comparisons, IN-lists, IS [NOT] NULL,
/// LNNVL, AND, OR and NOT.
fn arb_conjunct() -> SBox<QExpr> {
    let v = arb_value();
    let leaf = one_of![
        (v.clone(), v.clone()).prop_map(|(a, b)| QExpr::eq(a, b)),
        (v.clone(), v.clone()).prop_map(|(a, b)| QExpr::bin(BinOp::Lt, a, b)),
        (v.clone(), vec_of(v.clone(), 1..=3), 0usize..2).prop_map(|(a, list, n)| {
            QExpr::InList {
                expr: Box::new(a),
                list,
                negated: n == 1,
            }
        }),
        (v.clone(), 0usize..2).prop_map(|(a, n)| QExpr::IsNull {
            expr: Box::new(a),
            negated: n == 1,
        }),
    ]
    .boxed();
    recursive(leaf, 3, |inner| {
        one_of![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| QExpr::bin(BinOp::And, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| QExpr::bin(BinOp::Or, a, b)),
            inner.clone().prop_map(|a| QExpr::Not(Box::new(a))),
            inner.clone().prop_map(|a| func("LNNVL", vec![a])),
        ]
        .boxed()
    })
}

props! {
    #[cases(3000)]
    fn a_rejected_null_never_passes(
        conj in arb_conjunct(),
        row in vec_of(option_of(-3i64..4), 3..=3),
    ) {
        let (catalog, storage) = (Catalog::new(), Storage::new());
        let engine = Engine::new(&catalog, &storage);
        let layout = Layout {
            slots: vec![(T, 0, 3)],
            width: 3,
        };
        let ctx = EvalCtx {
            engine: &engine,
            layout: &layout,
            aggs: &[],
            agg_base: 3,
            windows: &[],
            win_base: 3,
            subplans: &[],
            subplans_at: PlanNodeId(0),
            outer: Bindings::default(),
        };
        for col in 0..3 {
            if !rejects_null(&conj, T, col) {
                continue;
            }
            let mut row: Vec<Value> = row.iter().map(|v| v.map_or(Value::Null, Value::Int)).collect();
            row[col] = Value::Null;
            let truth = ctx.eval_truth(&conj, &row).expect("evaluates");
            assert!(truth != Truth::True, "TRUE with column {col} NULL: {conj:?} on {row:?}");
        }
    }
}
