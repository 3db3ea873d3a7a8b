//! `cold_joins`: 5–9-table star / snowflake joins, cold. No statement
//! has a cost-based transformation target (`states_explored = 0`), so
//! optimization is one large memoized join enumeration — the optimizer
//! layer used differently from `cold_transform`'s many small per-state
//! calls. The schema is `crates/bench/benches/bushy_join.rs`'s (copied,
//! not imported), with the data shrunk until optimization is at least
//! 0.6 of a statement's wall time; an enumerator that gets faster by
//! picking worse join orders still shows, as a slower execute.

use super::{Instance, ReadPlan};
use crate::rng::Rng;
use cbqt::common::Value;

const ARMS: usize = 4;
const FACT_ROWS: i64 = 120;
const MID_ROWS: i64 = 240;
const LEAF_ROWS: i64 = 240;
/// Join-key domain: each fact row meets `MID_ROWS / KEYS` mid rows per arm.
const KEYS: i64 = 40;
/// Leaf attribute domain: an `attr = c` filter keeps 1 leaf row in 12.
const ATTRS: i64 = 12;

/// `(arms that reach their leaf, arms that stop at mid)` per shape;
/// tables = 1 + 2·snow + star.
const SHAPES: [(usize, usize); 6] = [(0, 4), (2, 0), (1, 3), (3, 0), (3, 1), (4, 0)];
const VARIANTS: usize = 2;
pub const STATEMENTS: usize = SHAPES.len() * VARIANTS;

pub fn generate(seed: u64) -> ReadPlan {
    let mut data = Rng::stream(seed, "cold_joins.data");
    let mut lit = Rng::stream(seed, "cold_joins.literals");

    let mut ddl =
        String::from("CREATE TABLE fact (id INT PRIMARY KEY, a1 INT, a2 INT, a3 INT, a4 INT);");
    for k in 1..=ARMS {
        ddl.push_str(&format!(
            "CREATE TABLE mid{k} (id INT PRIMARY KEY, fkey INT, leaf_id INT);
             CREATE TABLE leaf{k} (id INT PRIMARY KEY, attr INT);"
        ));
    }
    let mut tables: Vec<(&'static str, Vec<Vec<Value>>)> = Vec::new();
    let fact = (0..FACT_ROWS)
        .map(|i| {
            let mut row = vec![Value::Int(i)];
            row.extend((0..ARMS).map(|_| Value::Int(data.range(0, KEYS))));
            row
        })
        .collect();
    tables.push(("fact", fact));
    const MID: [&str; ARMS] = ["mid1", "mid2", "mid3", "mid4"];
    const LEAF: [&str; ARMS] = ["leaf1", "leaf2", "leaf3", "leaf4"];
    for k in 0..ARMS {
        let mid = (0..MID_ROWS)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(data.range(0, KEYS)),
                    Value::Int(data.range(0, LEAF_ROWS)),
                ]
            })
            .collect();
        tables.push((MID[k], mid));
        let leaf = (0..LEAF_ROWS)
            .map(|i| vec![Value::Int(i), Value::Int(data.range(0, ATTRS))])
            .collect();
        tables.push((LEAF[k], leaf));
    }

    let mut stmts = Vec::with_capacity(STATEMENTS);
    for (snow, star) in SHAPES {
        for _ in 0..VARIANTS {
            stmts.push((0, join_query(snow, star, &mut lit)));
        }
    }
    ReadPlan {
        instances: vec![Instance { ddl, tables }],
        stmts,
        cold: true,
        warmup_passes: 2,
        staged_limit: STATEMENTS,
    }
}

/// A join of `fact` with `snow` full arms (mid and filtered leaf) and
/// `star` arms that stop at a filtered mid.
fn join_query(snow: usize, star: usize, lit: &mut Rng) -> String {
    let mut from = String::from("fact f");
    let mut preds = Vec::new();
    for k in 1..=snow + star {
        from.push_str(&format!(", mid{k} m{k}"));
        preds.push(format!("f.a{k} = m{k}.fkey"));
        if k <= snow {
            from.push_str(&format!(", leaf{k} l{k}"));
            preds.push(format!("m{k}.leaf_id = l{k}.id"));
            preds.push(format!("l{k}.attr = {}", lit.range(0, ATTRS)));
        } else {
            // keeps about one mid row in six, so the fan-out of a star
            // arm stays near one
            preds.push(format!("m{k}.leaf_id < {}", lit.range(36, 44)));
        }
    }
    format!("SELECT f.id FROM {from} WHERE {}", preds.join(" AND "))
}
