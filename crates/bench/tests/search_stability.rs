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

mod common;

use cbqt::common::TraceEvent;
use cbqt::Database;
use common::MODES;
use std::fmt::Write;

/// One row per `Family::all()` entry plus the Table 2 and wide rows, one
/// column per `MODES` entry.
const EXPECTED: [[u64; 7]; 12] = [
    // unnest-agg
    [
        0xf3eaeaf4fb9b8be9,
        0xb0616c9f4b6e9661,
        0xdc10db78a35af791,
        0xf668e131b6b0dfee,
        0xf3eaeaf4fb9b8be9,
        0x09991ef120a33e7e,
        0x51ac9fdc17541710,
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
        0xd33ba759da9ee613,
        0x6d4c1e3aff7d95b8,
        0x9e02f377e2dcd57f,
        0x94dd6cf97507e6a4,
        0xd33ba759da9ee613,
        0x8665cb489c6176c2,
        0xd33ba759da9ee613,
    ],
    // gb-placement
    [
        0xb0a1c6b1bea3133a,
        0x3b92545e92f1541f,
        0xc19a554322099140,
        0x2fd35a99f5d00162,
        0xb0a1c6b1bea3133a,
        0x8fa49e2b48729978,
        0xb0a1c6b1bea3133a,
    ],
    // factorize
    [
        0x03da2295ca60ccdf,
        0x04a27df27f5f9d51,
        0xd68053acdeba473b,
        0x1c0d6bb6a37b76f5,
        0x03da2295ca60ccdf,
        0x14424c89bb0b4cd8,
        0x03da2295ca60ccdf,
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
        0x0ec89abcd7ef9ce3,
    ],
    // snowflake
    [
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0xcbaf26e91325be72,
        0x16a079cff4605daf,
    ],
    // table2
    [
        0x17783b70424ae9a7,
        0x33789ce75fbf2f2c,
        0xea443c89990d5259,
        0x844f866a8e41516d,
        0x17783b70424ae9a7,
        0x71a4db9c8d4e947c,
        0xad9d83cb0c572ccc,
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
        for (m, mode) in MODES.iter().enumerate() {
            let limits = common::set_mode(db, mode);
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
    let mut rows: Vec<Row> = Vec::new();
    common::for_each_statement(|name, db, sql| {
        if rows.last().is_none_or(|row| row.name != name) {
            rows.push(Row::new(name));
        }
        let row = rows.last_mut().expect("pushed above");
        row.add(db, sql);
    });

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
