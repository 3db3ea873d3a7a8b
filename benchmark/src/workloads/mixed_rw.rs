//! `mixed_rw`: writes beside reads, on one thread. A writer `Session`
//! issues single-row auto-commit `UPDATE`s; every tenth statement a
//! reader `Session` runs a `SUM` / `COUNT` scan; some reads happen inside
//! a reader transaction that pinned its snapshot before the preceding
//! writes. Every pass starts from a fresh database, because what it
//! measures is the drift: versions accumulate (there is no GC), every
//! `UPDATE` scans them, every commit invalidates the reader's cached
//! plan, and a pinned snapshot forces the next write to clone the heap.
//!
//! The reference is the benchmark's own model of the table, not a twin
//! database: it is checked on every read (at the pinned state for
//! in-transaction reads) and against the whole table after the pass.

use super::{served, staged_query, Counters, Pass, Staged, Workload};
use crate::checksum::Checksum;
use crate::rng::Rng;
use crate::span::SpanLog;
use cbqt::common::{Row, Value};
use cbqt::Database;
use std::collections::HashMap;

/// Sized so that a pass fits several times into `run_seconds` while the
/// heap still grows by two thirds (1350 dead versions on 2000 live rows):
/// an `UPDATE` costs time proportional to the heap, not to one row.
const ROWS: i64 = 2_000;
const GROUPS: i64 = 8;
/// Timed statements per pass: nine `UPDATE`s, then one read.
pub const STATEMENTS: usize = 1_500;
const READ_EVERY: usize = 10;
/// Every fifth read is an in-transaction read at a pinned snapshot.
const PIN_EVERY: usize = 5;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Update {
        id: i64,
        val: i64,
    },
    /// `SUM(val), COUNT(*)` over one group, or the whole table.
    Read {
        grp: Option<i64>,
    },
    /// The reader opens a transaction, pinning its snapshot here.
    Pin,
    /// A read inside the reader's open transaction, which then commits.
    PinnedRead {
        grp: Option<i64>,
    },
}

impl Op {
    pub fn sql(&self) -> Option<String> {
        match self {
            Op::Update { id, val } => Some(format!("UPDATE kv SET val = {val} WHERE id = {id}")),
            Op::Read { grp } | Op::PinnedRead { grp } => Some(match grp {
                Some(g) => format!("SELECT SUM(val), COUNT(*) FROM kv WHERE grp = {g}"),
                None => "SELECT SUM(val), COUNT(*) FROM kv".to_string(),
            }),
            Op::Pin => None,
        }
    }
}

fn table_rows(rows: i64, seed: u64) -> Vec<Row> {
    let mut data = Rng::stream(seed, "mixed_rw.data");
    (0..rows)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(data.range(0, GROUPS)),
                Value::Int(data.range(0, 1000)),
            ]
        })
        .collect()
}

/// `statements` timed statements over ids `0..rows`, plus the untimed
/// `Pin` markers.
pub fn script_for(rows: i64, statements: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng::stream(seed, "mixed_rw.script");
    let mut ops = Vec::new();
    for i in 0..statements {
        let read_no = i / READ_EVERY;
        let pinned = read_no % PIN_EVERY == PIN_EVERY - 1;
        if i % READ_EVERY == 0 && pinned {
            ops.push(Op::Pin);
        }
        if i % READ_EVERY == READ_EVERY - 1 {
            let grp = read_no.is_multiple_of(2).then(|| rng.range(0, GROUPS));
            ops.push(if pinned {
                Op::PinnedRead { grp }
            } else {
                Op::Read { grp }
            });
        } else {
            ops.push(Op::Update {
                id: rng.range(0, rows),
                val: rng.range(0, 1000),
            });
        }
    }
    ops
}

#[cfg(test)]
pub fn script(seed: u64) -> Vec<Op> {
    script_for(ROWS, STATEMENTS, seed)
}

/// The benchmark's model of table `kv`: id → (grp, val).
#[derive(Debug, Clone)]
pub struct Model(HashMap<i64, (i64, i64)>);

impl Model {
    pub fn new(rows: &[Row]) -> Model {
        Model(
            rows.iter()
                .map(|r| {
                    let int = |v: &Value| v.as_i64().expect("kv holds integers");
                    (int(&r[0]), (int(&r[1]), int(&r[2])))
                })
                .collect(),
        )
    }

    pub fn update(&mut self, id: i64, val: i64) {
        if let Some(row) = self.0.get_mut(&id) {
            row.1 = val;
        }
    }

    /// What `SELECT SUM(val), COUNT(*) [WHERE grp = g]` must return.
    pub fn answer(&self, grp: Option<i64>) -> Checksum {
        let (mut sum, mut count) = (0i64, 0i64);
        for (g, v) in self.0.values() {
            if grp.is_none_or(|want| want == *g) {
                sum += v;
                count += 1;
            }
        }
        let sum = if count == 0 {
            Value::Null
        } else {
            Value::Int(sum)
        };
        Checksum::of(&[vec![sum, Value::Int(count)]])
    }

    /// Checksum of `SELECT id, grp, val FROM kv`.
    pub fn table(&self) -> Checksum {
        let rows: Vec<Row> = self
            .0
            .iter()
            .map(|(id, (g, v))| vec![Value::Int(*id), Value::Int(*g), Value::Int(*v)])
            .collect();
        Checksum::of(&rows)
    }
}

/// The reference answer of every read of `script`, in order, and the
/// model after the last statement. In-transaction reads answer from the
/// state at their `Pin`.
pub fn reference_answers(script: &[Op], mut model: Model) -> (Vec<Checksum>, Model) {
    let mut answers = Vec::new();
    let mut pinned: Option<Model> = None;
    for op in script {
        match op {
            Op::Update { id, val } => model.update(*id, *val),
            Op::Read { grp } => answers.push(model.answer(*grp)),
            Op::Pin => pinned = Some(model.clone()),
            Op::PinnedRead { grp } => answers.push(
                pinned
                    .take()
                    .expect("script pins before every in-transaction read")
                    .answer(*grp),
            ),
        }
    }
    (answers, model)
}

pub fn build_kv(rows: Vec<Row>) -> Database {
    super::build_database(&super::Instance {
        ddl: "CREATE TABLE kv (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL);"
            .to_string(),
        tables: vec![("kv", rows)],
    })
}

pub struct MixedRw {
    db: Database,
    script: Vec<Op>,
    answers: Vec<Checksum>,
    initial: Model,
    final_table: Checksum,
    /// A pass or staged replay has already written to `db`.
    used: bool,
}

impl MixedRw {
    pub fn setup(seed: u64) -> MixedRw {
        MixedRw::setup_sized(ROWS, STATEMENTS, seed)
    }

    pub fn setup_sized(rows: i64, statements: usize, seed: u64) -> MixedRw {
        let data = table_rows(rows, seed);
        let script = script_for(rows, statements, seed);
        let initial = Model::new(&data);
        let (answers, last) = reference_answers(&script, initial.clone());
        let db = build_kv(data);
        // warm the two read families, as a long-running server would be
        for grp in [None, Some(0)] {
            let sql = Op::Read { grp }.sql().expect("reads have text");
            db.query(&sql).expect("mixed_rw warm-up read");
        }
        MixedRw {
            db,
            script,
            answers,
            initial,
            final_table: last.table(),
            used: false,
        }
    }

    fn check_final_table(&self) -> Option<String> {
        match self.db.query("SELECT id, grp, val FROM kv") {
            Ok(r) if Checksum::of(&r.rows) == self.final_table => None,
            Ok(r) => Some(format!(
                "final table is {} but the model says {}",
                Checksum::of(&r.rows).to_text(),
                self.final_table.to_text()
            )),
            Err(e) => Some(format!("final table scan failed: {e}")),
        }
    }
}

impl Workload for MixedRw {
    fn pass(&mut self, mut log: Option<&mut SpanLog>) -> Pass {
        assert!(!self.used, "mixed_rw passes need a fresh database");
        self.used = true;
        let (writer, reader) = (self.db.session(), self.db.session());
        let mut pass = Pass::default();
        let mut answers = self.answers.iter();
        for (i, op) in self.script.iter().enumerate() {
            let Some(sql) = op.sql() else {
                if reader.begin().is_err() {
                    pass.fail(|| format!("op {i}: reader BEGIN failed"));
                }
                continue;
            };
            let is_write = matches!(op, Op::Update { .. });
            let session = if is_write { &writer } else { &reader };
            let name = if is_write { "core.dml" } else { "core.query" };
            let (result, ns) = served(log.as_deref_mut(), name, i as u32, || {
                session.execute_statement(&sql)
            });
            if is_write {
                pass.write_ns.push(ns);
                match result {
                    Ok(cbqt::StatementResult::RowsAffected(1)) => {}
                    other => pass.fail(|| format!("op {i}: {sql} gave {other:?}")),
                }
                continue;
            }
            pass.read_ns.push(ns);
            let expect = answers.next().expect("one reference answer per read");
            match result.map(cbqt::StatementResult::into_rows) {
                Ok(Some(r)) => {
                    pass.optimize_ns += r.stats.optimize_time.as_nanos() as u64;
                    pass.execute_ns += r.stats.execute_time.as_nanos() as u64;
                    pass.reoptimized += u64::from(r.stats.reoptimized);
                    let got = Checksum::of(&r.rows);
                    if got != *expect {
                        pass.fail(|| {
                            format!(
                                "op {i}: {sql} returned {} but the model says {}",
                                got.to_text(),
                                expect.to_text()
                            )
                        });
                    }
                }
                other => pass.fail(|| format!("op {i}: {sql} gave {:?}", other.map(|_| ()))),
            }
            if matches!(op, Op::PinnedRead { .. }) && reader.commit().is_err() {
                pass.fail(|| format!("op {i}: reader COMMIT failed"));
            }
        }
        drop((writer, reader));
        if let Some(problem) = self.check_final_table() {
            pass.fail(|| problem);
        }
        pass
    }

    /// DML → commit with a span on each, reads stage by stage. The
    /// staged path reads the latest committed state, so the replay skips
    /// the pins and checks every read against the model as of that
    /// statement.
    fn staged(&mut self, log: &mut SpanLog) -> Staged {
        assert!(!self.used, "mixed_rw staged replay needs a fresh database");
        self.used = true;
        let mut out = Staged::default();
        let mut model = self.initial.clone();
        let writer = self.db.session();
        for (i, op) in self.script.iter().enumerate() {
            let (Some(sql), stmt) = (op.sql(), i as u32) else {
                continue;
            };
            out.statements += 1;
            let root = log.open("stmt", None, stmt);
            match op {
                Op::Update { id, val } => {
                    model.update(*id, *val);
                    let staged = log.open("staged", Some(root), stmt);
                    let began = writer.begin();
                    let (wrote, _) = log.time("storage.write", Some(staged), stmt, || {
                        writer.execute_statement(&sql)
                    });
                    let (committed, _) =
                        log.time("storage.commit", Some(staged), stmt, || writer.commit());
                    log.close(staged);
                    let ok = began.is_ok()
                        && committed.is_ok()
                        && matches!(wrote, Ok(cbqt::StatementResult::RowsAffected(1)));
                    if !ok {
                        out.fail(format!("staged op {i}: {sql} did not update one row"));
                    }
                }
                Op::Read { grp } | Op::PinnedRead { grp } => {
                    match staged_query(&self.db, &sql, log, root, stmt, &mut out) {
                        Ok(rows) => {
                            out.rows_out += rows.len() as u64;
                            if Checksum::of(&rows) != model.answer(*grp) {
                                out.fail(format!("staged op {i}: {sql} disagrees with the model"));
                            }
                        }
                        Err(e) => out.fail(format!("staged op {i}: {sql} failed: {e}")),
                    }
                }
                Op::Pin => unreachable!("pins have no statement text"),
            }
            log.close(root);
        }
        drop(writer);
        if let Some(problem) = self.check_final_table() {
            out.fail(problem);
        }
        let table = self.db.catalog().table_by_name("kv").expect("kv exists").id;
        let snapshot = self.db.storage().snapshot();
        let kv = snapshot.table(table).expect("kv has data");
        out.versions = kv.version_count() as u64;
        out.live_rows = kv.visible_count() as u64;
        out
    }

    fn counters(&self) -> Counters {
        let s = self.db.plan_cache_stats();
        Counters {
            cache_hits: s.hits,
            cache_misses: s.misses,
            invalidations: s.invalidations,
            feedback_entries: self.db.feedback_store().len() as u64,
        }
    }

    /// Every read's answer, then the table after the last statement.
    fn reference(&self) -> Vec<Checksum> {
        let mut all = self.answers.clone();
        all.push(self.final_table);
        all
    }

    fn fresh_each_pass(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model against the engine on a 50-statement script: every
    /// read, the pinned ones at their pinned state, and the final table.
    #[test]
    fn model_agrees_with_the_engine_on_a_50_statement_script() {
        let mut w = MixedRw::setup_sized(200, 50, 11);
        let pins = w.script.iter().filter(|op| **op == Op::Pin).count();
        assert_eq!(pins, 1, "the short script must exercise one pinned read");
        assert_eq!(w.script.len(), 50 + pins);
        let pass = w.pass(None);
        assert_eq!(pass.attempted(), 50);
        assert_eq!(pass.write_ns.len(), 45);
        assert_eq!(pass.failed, 0, "{:?}", pass.first_failure);
    }

    #[test]
    fn pinned_reads_answer_from_the_state_at_the_pin() {
        let rows: Vec<Row> = (0..4)
            .map(|i| vec![Value::Int(i), Value::Int(0), Value::Int(10)])
            .collect();
        let script = vec![
            Op::Pin,
            Op::Update { id: 1, val: 50 },
            Op::PinnedRead { grp: None },
            Op::Read { grp: None },
        ];
        let (answers, last) = reference_answers(&script, Model::new(&rows));
        let row = |sum| Checksum::of(&[vec![Value::Int(sum), Value::Int(4)]]);
        assert_eq!(answers, vec![row(40), row(80)]);
        assert_ne!(last.table(), Model::new(&rows).table());
    }

    #[test]
    fn a_wrong_model_answer_is_counted_as_a_failed_statement() {
        let mut w = MixedRw::setup_sized(100, 20, 3);
        w.answers[0].sum ^= 1;
        let pass = w.pass(None);
        assert_eq!(pass.failed, 1);
        assert!(pass.first_failure.unwrap().contains("model says"));
    }

    #[test]
    fn staged_replay_agrees_with_the_model_and_counts_versions() {
        let mut w = MixedRw::setup_sized(100, 30, 5);
        let mut log = SpanLog::default();
        let s = w.staged(&mut log);
        assert_eq!(s.failed, 0, "{:?}", s.first_failure);
        assert_eq!(s.statements, 30);
        assert_eq!(s.live_rows, 100);
        // 27 single-row updates each leave one dead version behind
        assert_eq!(s.versions, 100 + 27);
        assert_eq!(log.by_name()["storage.commit"].count, 27);
    }
}
