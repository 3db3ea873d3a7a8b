//! Search stability across the §3.2 strategies.
//!
//! Every workload family plus the Table 2 query shape is searched under
//! each strategy, in heuristic mode and once under a three-state
//! governor budget, and the ordered search events (with cost bits) plus
//! the statement's counters are digested. The constants were generated
//! before the four hand-written strategy loops became visit orders over
//! one `try_state`, so they pin that refactor's contract: same states,
//! same order, same budgets, same events and counters. A change that is
//! *meant* to move the search regenerates the table from the failure
//! output and says so in its description.

use cbqt::common::{ExecutionLimits, TraceEvent, Value};
use cbqt::{Database, SearchStrategy};
use cbqt_bench::{Family, WorkloadGen};
use std::fmt::Write;

const SEED: u64 = 20_060_912;
const PER_FAMILY: usize = 6;

/// (label, search, cost_based, optimizer-state budget).
const MODES: [(&str, SearchStrategy, bool, Option<u64>); 7] = [
    ("exhaustive", SearchStrategy::Exhaustive, true, None),
    ("iterative", SearchStrategy::Iterative, true, None),
    ("linear", SearchStrategy::Linear, true, None),
    ("two-pass", SearchStrategy::TwoPass, true, None),
    ("auto", SearchStrategy::Auto, true, None),
    ("heuristic", SearchStrategy::Auto, false, None),
    ("governed", SearchStrategy::Auto, true, Some(3)),
];

/// The paper's Table 2 shape (three base tables, four unnestable
/// multi-table subqueries), as in `tests/integration_framework.rs`.
const TABLE2_QUERY: &str = "SELECT t1.a FROM t1, t2, t3
    WHERE t1.b = t2.b AND t2.c = t3.c AND
          t1.a NOT IN (SELECT x1.b FROM t1 x1, t2 y1 WHERE x1.a = y1.a
                       AND x1.c = 3 AND x1.b IS NOT NULL) AND
          EXISTS (SELECT 1 FROM t2 x2, t3 y2 WHERE x2.a = y2.a
                  AND x2.b = t1.b AND x2.c = 5) AND
          NOT EXISTS (SELECT 1 FROM t3 x3, t1 y3 WHERE x3.a = y3.a
                      AND x3.b = t1.b AND x3.c = 6) AND
          t1.c IN (SELECT x4.c FROM t2 x4, t3 y4 WHERE x4.a = y4.a AND x4.b = 10)";

fn table2_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t1 (a INT PRIMARY KEY, b INT, c INT);
         CREATE TABLE t2 (a INT PRIMARY KEY, b INT, c INT);
         CREATE TABLE t3 (a INT PRIMARY KEY, b INT, c INT);
         CREATE INDEX i1 ON t1 (b); CREATE INDEX i2 ON t2 (b); CREATE INDEX i3 ON t3 (b);",
    )
    .unwrap();
    for t in ["t1", "t2", "t3"] {
        let rows = (0..300)
            .map(|i| vec![Value::Int(i), Value::Int(i % 25), Value::Int(i % 7)])
            .collect();
        db.load_rows(t, rows).unwrap();
    }
    db.analyze().unwrap();
    db
}

/// Seven two-table EXISTS subqueries: more objects than
/// `exhaustive_threshold`, so `Auto` resolves to Linear here (it is
/// Exhaustive on every other row).
fn wide_query() -> String {
    let subqueries: Vec<String> = (0..7)
        .map(|k| {
            format!(
                "EXISTS (SELECT 1 FROM t2 x{k}, t3 y{k} WHERE x{k}.a = y{k}.a \
                 AND x{k}.b = t1.b AND x{k}.c = {})",
                k % 7
            )
        })
        .collect();
    format!("SELECT t1.a FROM t1 WHERE {}", subqueries.join(" AND "))
}

/// One row per `Family::all()` entry plus the Table 2 and wide rows, one
/// column per `MODES` entry.
const EXPECTED: [[u64; 7]; 12] = [
    // unnest-agg
    [
        0xb0ffc0a607dcc7a4,
        0xb0616c9f4b6e9661,
        0xdc10db78a35af791,
        0x14897f6aa06905e7,
        0xb0ffc0a607dcc7a4,
        0x6fc2f126addebbe6,
        0xda65dd8649fc66b4,
    ],
    // unnest-exists
    [
        0x55c6a72d4b2777b6,
        0xff567b838920418b,
        0x6000b285103a0ed4,
        0x0112f692904243f6,
        0x55c6a72d4b2777b6,
        0x1ddca428ba663ee5,
        0x55c6a72d4b2777b6,
    ],
    // jppd-view
    [
        0x25fea6c839d9abf1,
        0xbc799795159ecdea,
        0xc02a33b606214c89,
        0xf535692ec451407e,
        0x25fea6c839d9abf1,
        0x03ae3ab8cdea005c,
        0x25fea6c839d9abf1,
    ],
    // gb-placement
    [
        0xb0a1c6b1bea3133a,
        0x3b92545e92f1541f,
        0xc19a554322099140,
        0x2fd35a99f5d00162,
        0xb0a1c6b1bea3133a,
        0x8fa49e2b48729978,
        0xb5089ff505a6d1af,
    ],
    // factorize
    [
        0x65cea4ba419a939f,
        0x08c51cf733054a91,
        0xc4089ab819478bf3,
        0xf111e06f58fdd1dd,
        0x65cea4ba419a939f,
        0x14424c89bb0b4cd8,
        0x65cea4ba419a939f,
    ],
    // setop
    [
        0x59dc0d97aa2961c6,
        0xf0b3ff7efbbbff8a,
        0x0d236db910ababda,
        0x2f1afcf10e7bb72e,
        0x59dc0d97aa2961c6,
        0x9947ac088b1f73df,
        0x59dc0d97aa2961c6,
    ],
    // or-expand
    [
        0x4b0268774e89d339,
        0x975a926f8b5aca1b,
        0x67446d3212f48d19,
        0xbf9d2fe4212e8a3b,
        0x4b0268774e89d339,
        0xe7464bb9f0d0db56,
        0x4b0268774e89d339,
    ],
    // pred-pullup
    [
        0x3304ef17b4b4e0b2,
        0x3dc13214ba574178,
        0x4b23da2f493fd8de,
        0xc235286c68a876f0,
        0x3304ef17b4b4e0b2,
        0xf95d6b5789ca26ca,
        0x3304ef17b4b4e0b2,
    ],
    // star-join
    [
        0x0ec89abcd7ef9ce3,
        0x0ec89abcd7ef9ce3,
        0x0ec89abcd7ef9ce3,
        0x0ec89abcd7ef9ce3,
        0x0ec89abcd7ef9ce3,
        0x0ec89abcd7ef9ce3,
        0xafd59082490002f0,
    ],
    // snowflake
    [
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0x3165132abdd5dba4,
    ],
    // table2
    [
        0x68cab9dbd34986d2,
        0x3edc96c5d88224f8,
        0x914eda995d57db59,
        0x066fccd95155f8e5,
        0x68cab9dbd34986d2,
        0xe754e1488ba83f3e,
        0xa7cc73b9b22569b4,
    ],
    // wide
    [
        0x1155b70046210d0f,
        0x77c7d1c3945450ee,
        0x38e7028414e6b877,
        0xb66f14107b1728ba,
        0x38e7028414e6b877,
        0x98884164a3c571a0,
        0x4a0acace241ed693,
    ],
];

struct Row {
    name: &'static str,
    digests: [u64; 7],
    texts: [String; 7],
}

impl Row {
    fn new(name: &'static str) -> Row {
        Row {
            name,
            digests: [0xcbf2_9ce4_8422_2325; 7], // FNV-1a offset basis
            texts: Default::default(),
        }
    }

    /// Traces `sql` under every mode and folds the search events and the
    /// counters into the row.
    fn add(&mut self, db: &mut Database, sql: &str) {
        for (m, (_, search, cost_based, budget)) in MODES.iter().enumerate() {
            *db.config_mut() = cbqt::OptimizerSettings::default();
            db.config_mut().search = *search;
            db.config_mut().cost_based = *cost_based;
            // no harvested actuals: each mode sees the same estimates
            db.config_mut().feedback.enabled = false;
            let limits = match budget {
                Some(n) => ExecutionLimits::none().with_optimizer_states(*n),
                None => ExecutionLimits::none(),
            };
            let report = db.trace_with_limits(sql, limits).expect("trace");
            let mut text = format!("-- {sql}\n");
            for e in &report.events {
                search_event(&mut text, e);
            }
            let s = &report.stats;
            writeln!(
                text,
                "states={} cutoffs={} blocks={} hits={} cost bits {:#x}",
                s.states_explored,
                s.cutoffs,
                s.blocks_costed,
                s.annotation_hits,
                s.estimated_cost.to_bits()
            )
            .unwrap();
            for b in text.bytes() {
                self.digests[m] = (self.digests[m] ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            self.texts[m].push_str(&text);
        }
    }
}

/// Appends the line for one search event (costs as bit patterns); every
/// other event kind is left out except the rewritten query text, which
/// pins the tree the winning states produced.
fn search_event(text: &mut String, e: &TraceEvent) {
    let bits = |c: &Option<f64>| c.map(f64::to_bits);
    match e {
        TraceEvent::TransformBegin { .. }
        | TraceEvent::CutoffTaken { .. }
        | TraceEvent::SearchDegraded { .. } => writeln!(text, "{e}"),
        TraceEvent::StateCosted {
            transform,
            state,
            merges,
            cost,
        } => writeln!(
            text,
            "STATE {transform} {state:?} {merges:?} {:x?}",
            bits(cost)
        ),
        TraceEvent::TransformEnd {
            transform,
            best_state,
            interleaved,
            cost,
        } => writeln!(
            text,
            "DECISION {transform} {best_state:?} {interleaved} {:#x}",
            cost.to_bits()
        ),
        TraceEvent::QueryRewritten { after, .. } => writeln!(text, "AFTER {after}"),
        _ => Ok(()),
    }
    .unwrap();
}

#[test]
fn search_events_and_counters_match_the_pre_refactor_digests() {
    let mut gen = WorkloadGen::new(SEED);
    gen.scale = 0.3;
    let mut rows = Vec::new();
    for &family in Family::all() {
        let mut row = Row::new(family.name());
        for mut inst in gen.generate(family, PER_FAMILY) {
            inst.db.set_plan_cache_enabled(false);
            row.add(&mut inst.db, &inst.sql);
        }
        rows.push(row);
    }
    let mut row = Row::new("table2");
    let mut db = table2_db();
    db.set_plan_cache_enabled(false);
    row.add(&mut db, TABLE2_QUERY);
    rows.push(row);
    let mut row = Row::new("wide");
    row.add(&mut db, &wide_query());
    rows.push(row);

    let actual: Vec<[u64; 7]> = rows.iter().map(|r| r.digests).collect();
    if actual != EXPECTED {
        for (row, expected) in rows.iter().zip(EXPECTED) {
            for (m, (mode, ..)) in MODES.iter().enumerate() {
                if row.digests[m] != expected[m] {
                    eprintln!("=== {} / {mode} moved ===\n{}", row.name, row.texts[m]);
                }
            }
        }
        eprintln!("const EXPECTED: [[u64; 7]; {}] = [", rows.len());
        for Row { name, digests, .. } in &rows {
            eprintln!("    // {name}");
            eprintln!("    [");
            for d in digests {
                eprintln!("        {d:#018x},");
            }
            eprintln!("    ],");
        }
        eprintln!("];");
        panic!("the search moved (see the event lists above)");
    }
}
