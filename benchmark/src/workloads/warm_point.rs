//! `warm_point`: OLTP-shaped traffic — primary-key and indexed-equality
//! lookups, each with a fresh literal, on a 20k-row table with a warm
//! plan cache. A statement takes ~10 µs and execution is well under half
//! of it, so the serving path in `core` (parse, parameterize, family-key
//! render, cache probe, engine set-up, feedback harvest) is what this
//! workload measures.

use super::{Instance, ReadPlan};
use crate::rng::Rng;
use cbqt::common::Value;

const ROWS: i64 = 20_000;
/// About two accounts per owner.
const OWNERS: i64 = 10_000;
pub const STATEMENTS: usize = 4_000;
/// The staged replay optimizes every statement it covers; a tenth of the
/// list already repeats each of the two families 100+ times.
const STAGED: usize = 400;

pub fn generate(seed: u64) -> ReadPlan {
    let mut data = Rng::stream(seed, "warm_point.data");
    let mut lit = Rng::stream(seed, "warm_point.literals");
    let rows = (0..ROWS)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(data.range(0, OWNERS)),
                Value::Int(data.range(0, 50)),
                Value::Int(data.range(0, 1_000_000)),
                Value::str(format!("acct-{id}")),
            ]
        })
        .collect();
    let stmts = (0..STATEMENTS)
        .map(|i| {
            let sql = if i % 4 == 3 {
                format!(
                    "SELECT id, balance FROM accounts WHERE owner = {}",
                    lit.range(0, OWNERS)
                )
            } else {
                format!(
                    "SELECT balance, branch, note FROM accounts WHERE id = {}",
                    lit.range(0, ROWS)
                )
            };
            (0, sql)
        })
        .collect();
    ReadPlan {
        instances: vec![Instance {
            ddl: "CREATE TABLE accounts (id INT PRIMARY KEY, owner INT NOT NULL, branch INT, \
                      balance INT, note VARCHAR(20));
                  CREATE INDEX i_acc_owner ON accounts (owner);"
                .to_string(),
            tables: vec![("accounts", rows)],
        }],
        stmts,
        cold: false,
        warmup_passes: 2,
        staged_limit: STAGED,
    }
}
