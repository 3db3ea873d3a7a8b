//! Property tests for the batch engine's typed columns: on random columns
//! of `Int`, `Double`, `Date` and NULL cells — integers near both ends of
//! `i64` and past 2^53 included — a typed (`Int`) column hashes, compares
//! and folds exactly as the `Value`s it stands for do, so typed and
//! untyped batches meet in one key table and every aggregate finishes
//! alike.

use cbqt_common::hash::{hash_all, KeyHasher};
use cbqt_common::Value;
use cbqt_exec::column::Column;
use cbqt_exec::eval::AggAcc;
use cbqt_qgm::AggFunc;
use cbqt_testkit::prop::{any_i64, just, vec_of, Strategy};
use cbqt_testkit::{one_of, props};
use std::hash::Hasher;

/// Integers where the kernels can slip: small ones, any, the `f64`
/// precision edge at 2^53, and the two ends of `i64` (a SUM wraps there).
fn int() -> impl Strategy<Value = i64> {
    one_of![
        -4i64..4,
        any_i64(),
        (1i64 << 53) - 3..(1i64 << 53) + 3,
        i64::MAX - 3..=i64::MAX,
        i64::MIN..=i64::MIN + 3,
    ]
}

/// An `Int` or NULL cell: what a typed column holds.
fn int_or_null() -> impl Strategy<Value = Value> {
    one_of![int().prop_map(Value::Int), just(Value::Null)]
}

/// Any numeric cell or NULL, doubles equal to some integers included.
fn cell() -> impl Strategy<Value = Value> {
    one_of![
        int().prop_map(Value::Int),
        just(Value::Null),
        (-4i64..4).prop_map(|i| Value::Double(i as f64)),
        ((1i64 << 53) - 3..(1i64 << 53) + 3).prop_map(|i| Value::Double(i as f64)),
        (-4.0f64..4.0).prop_map(Value::Double),
        just(Value::Double(-0.0)),
        (-4i32..4).prop_map(Value::Date),
    ]
}

/// The column a batch holds for `vals`: `Int` when it can be. A scan's
/// one-pass gather and the cell-by-cell builder type it alike, and both
/// read back every value.
fn typed(vals: &[Value]) -> Column {
    let scanned = Column::of_cells(vals.len(), vals.iter());
    let built: Column = vals.iter().cloned().collect();
    let int = |c: &Column| matches!(c, Column::Int(_));
    assert_eq!(int(&scanned), int(&built), "{vals:?}");
    for (i, v) in vals.iter().enumerate() {
        assert_eq!((&*scanned.get(i), &*built.get(i)), (v, v));
    }
    scanned
}

/// Each cell's hash, hashed column-wise as a key table hashes it.
fn hashes(col: &Column) -> Vec<u64> {
    let mut hs = vec![KeyHasher::default(); col.len()];
    col.hash_cells(&mut hs);
    hs.iter().map(Hasher::finish).collect()
}

const FUNCS: [AggFunc; 6] = [
    AggFunc::CountStar,
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

fn acc(func: AggFunc, distinct: bool) -> AggAcc {
    match distinct {
        true => AggAcc::new_distinct(func),
        false => AggAcc::new(func),
    }
}

/// A finished aggregate, bit for bit.
fn finished(accs: &[AggAcc]) -> String {
    format!("{:?}", accs.iter().map(AggAcc::finish).collect::<Vec<_>>())
}

props! {
    fn typed_cells_hash_like_values(a in vec_of(int_or_null(), 1..=24)) {
        let col = typed(&a);
        assert!(matches!(col, Column::Int(_)) || a.iter().all(Value::is_null));
        for ((i, v), h) in a.iter().enumerate().zip(hashes(&col)) {
            assert_eq!(*col.get(i), *v);
            assert_eq!(h, hash_all([v]), "cell {i}: {v:?}");
        }
    }

    fn typed_cells_compare_like_values(
        a in vec_of(int_or_null(), 1..=16),
        b in vec_of(cell(), 1..=16),
    ) {
        let (ta, tb, vb) = (typed(&a), typed(&b), Column::from(b.clone()));
        let (ha, hb) = (hashes(&ta), hashes(&vb));
        for (i, x) in a.iter().enumerate() {
            for (k, y) in b.iter().enumerate() {
                let (eq, ord) = (x == y, x.total_cmp(y));
                assert_eq!(ta.eq_value(i, y), eq, "{x:?} = {y:?}");
                for other in [&tb, &vb] {
                    assert_eq!(other.eq_value(k, x), eq, "{y:?} = {x:?}");
                    assert_eq!(ta.cell_cmp(i, other, k), ord, "{x:?} against {y:?}");
                    assert_eq!(other.cell_cmp(k, &ta, i), ord.reverse());
                }
                // equal keys meet in one hash bucket, typed or not
                if eq {
                    assert_eq!(ha[i], hb[k], "{x:?} = {y:?}");
                }
            }
        }
    }

    fn typed_folds_match_one_add_per_value(a in vec_of(int_or_null(), 0..=24)) {
        let col = typed(&a);
        // three groups, rows dealt round-robin, two accumulators per group
        let gids: Vec<u32> = (0..a.len() as u32).map(|i| i % 3).collect();
        for func in FUNCS {
            for distinct in [false, true] {
                let mut one = acc(func, distinct);
                a.iter().for_each(|v| one.add(v));
                let mut all = acc(func, distinct);
                all.add_all(&col);
                assert_eq!(finished(&[one]), finished(&[all]), "{func:?} distinct={distinct}");
                let mut by_row: Vec<AggAcc> = (0..6).map(|_| acc(func, distinct)).collect();
                for (v, &g) in a.iter().zip(&gids) {
                    by_row[g as usize * 2 + 1].add(v);
                }
                let mut folded: Vec<AggAcc> = (0..6).map(|_| acc(func, distinct)).collect();
                AggAcc::add_by_group(&mut folded[1..], 2, Some(&col), &Value::Int(1), &gids);
                assert_eq!(finished(&by_row), finished(&folded), "{func:?} by group");
            }
        }
    }

    fn a_fold_over_typed_then_untyped_batches_matches_one_add_per_value(
        a in vec_of(int_or_null(), 0..=12),
        b in vec_of(cell(), 0..=12),
    ) {
        // a MIN / MAX / SUM that starts typed and meets a Double later
        for func in FUNCS {
            let mut one = AggAcc::new(func);
            a.iter().chain(&b).for_each(|v| one.add(v));
            let mut all = AggAcc::new(func);
            all.add_all(&typed(&a));
            all.add_all(&typed(&b));
            assert_eq!(finished(&[one]), finished(&[all]), "{func:?}");
        }
    }
}
