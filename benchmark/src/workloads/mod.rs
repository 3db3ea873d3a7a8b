//! The five workloads. Each is a fixed list of statements generated from
//! the seed, driven in a closed loop by one client through `Database` /
//! `Session`, and checked statement by statement against a reference.

pub mod cold_joins;
pub mod cold_transform;
pub mod mixed_rw;
pub mod schema;
pub mod warm_point;
pub mod warm_scan;

use crate::checksum::Checksum;
use crate::span::{SpanId, SpanLog};
use cbqt::common::{ExecutionMode, Row};
use cbqt::exec::Engine;
use cbqt::optimizer::{CostAnnotations, Optimizer, SamplingCache};
use cbqt::{qgm, sql, transform, Database};
use std::time::Instant;

/// Name, reason and fixed per-pass statement count of each workload, in
/// report order. The reasons are repeated in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "cold_transform",
        "hard-parse path: eight transformation families plus the Table-2 shape on tiny data, plan cache \
         cleared before every statement, so transform and per-state optimizer calls dominate",
    ),
    (
        "cold_joins",
        "5-9 table star/snowflake joins with no transformation states, cold: one large memoized join \
         enumeration per statement, so the optimizer layer dominates and a worse plan shows as slower execute",
    ),
    (
        "warm_point",
        "primary-key and indexed-equality lookups with a fresh literal each on a 20k-row table, warm plan \
         cache: parse, parameterize, cache probe and engine set-up in core dominate (OLTP-shaped traffic)",
    ),
    (
        "warm_scan",
        "scan, join and aggregate statements at scale 4 with a warm plan cache: exec does nearly all the \
         work, so transform and optimizer changes must show no movement here",
    ),
    (
        "mixed_rw",
        "single-row auto-commit UPDATEs beside SUM/COUNT scans and pinned-snapshot reads from a fresh \
         database: stresses storage version growth, commit and per-commit plan invalidation",
    ),
];

/// What one closed-loop pass over a workload's statement list measured.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Latency of each SELECT, in statement order.
    pub read_ns: Vec<u64>,
    /// Latency of each DML statement (auto-commit included).
    pub write_ns: Vec<u64>,
    /// Statements that errored or returned a wrong answer.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Sums of `QueryStats` over the pass's SELECTs.
    pub optimize_ns: u64,
    pub execute_ns: u64,
    pub reoptimized: u64,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        (self.read_ns.len() + self.write_ns.len()) as u64
    }

    pub fn timed_ns(&self) -> u64 {
        self.read_ns.iter().sum::<u64>() + self.write_ns.iter().sum::<u64>()
    }

    pub fn stmts_per_s(&self) -> f64 {
        self.attempted() as f64 / (self.timed_ns() as f64 / 1e9)
    }

    pub(crate) fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// Counts gathered by the staged replay. All of them repeat exactly for
/// one seed: the replay runs once, on a freshly set-up workload.
#[derive(Debug, Default, Clone)]
pub struct Staged {
    pub statements: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub states: u64,
    pub blocks_costed: u64,
    pub annotation_hits: u64,
    pub cutoffs: u64,
    pub est_cost_sum: f64,
    pub work_units: f64,
    pub rows_out: u64,
    /// `mixed_rw` only: heap versions and visible rows of the written
    /// table after the script.
    pub versions: u64,
    pub live_rows: u64,
}

impl Staged {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }
}

/// Layer counters read from the database(s) after the passes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub invalidations: u64,
    pub feedback_entries: u64,
}

pub trait Workload {
    /// One closed-loop pass over the fixed statement list. With a span
    /// log, each statement is recorded as a `stmt` root span with a
    /// `core.query` / `core.dml` child around the public call.
    fn pass(&mut self, log: Option<&mut SpanLog>) -> Pass;

    /// Replays the statements stage by stage through the layers' public
    /// functions, a span around each call, and checks the staged rows
    /// against the same reference the passes use.
    fn staged(&mut self, log: &mut SpanLog) -> Staged;

    fn counters(&self) -> Counters;

    /// The reference checksums in pass order — what
    /// `expected/seed<N>.txt` digests.
    fn reference(&self) -> Vec<Checksum>;

    /// True when a pass consumes the set-up state (the runner sets the
    /// workload up again before every pass).
    fn fresh_each_pass(&self) -> bool {
        false
    }
}

/// Builds the named workload from the seed: schema, load, `ANALYZE`,
/// reference answers and cache warm-up — everything `setup_s` times.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold_transform" => Box::new(ReadSet::setup(cold_transform::generate(seed))),
        "cold_joins" => Box::new(ReadSet::setup(cold_joins::generate(seed))),
        "warm_point" => Box::new(ReadSet::setup(warm_point::generate(seed))),
        "warm_scan" => Box::new(ReadSet::setup(warm_scan::generate(seed))),
        "mixed_rw" => Box::new(mixed_rw::MixedRw::setup(seed)),
        _ => return None,
    })
}

/// One database to build: DDL, then bulk-loaded rows per table.
pub struct Instance {
    pub ddl: String,
    pub tables: Vec<(&'static str, Vec<Row>)>,
}

/// The generated inputs of a read-only workload.
pub struct ReadPlan {
    pub instances: Vec<Instance>,
    /// `(instance index, SQL text)` in pass order.
    pub stmts: Vec<(usize, String)>,
    /// Clear the plan cache (outside the timed region) before every
    /// statement.
    pub cold: bool,
    /// Untimed passes run during set-up so the plan cache, its bind
    /// buckets and the feedback store reach their steady state.
    pub warmup_passes: usize,
    /// Statements the staged replay covers (a prefix of `stmts`).
    pub staged_limit: usize,
}

/// The benchmark's pinned configuration: `parallelism = 1`, everything
/// else `Database::new()` defaults (see README, "Pinned configuration").
pub fn build_database(inst: &Instance) -> Database {
    let mut db = Database::new();
    db.execute_script(&inst.ddl).expect("benchmark DDL");
    for (table, rows) in &inst.tables {
        db.load_rows(table, rows.clone()).expect("benchmark load");
    }
    db.analyze().expect("benchmark ANALYZE");
    db.config_mut().parallelism = 1;
    db
}

/// The reference twin: heuristic-only planning, the row-at-a-time engine,
/// no plan cache, no bind sharing, no feedback — as little shared
/// machinery with the measured configuration as the engine allows.
fn build_twin(inst: &Instance) -> Database {
    let mut db = build_database(inst);
    let c = db.config_mut();
    c.cost_based = false;
    c.execution_mode = ExecutionMode::Volcano;
    c.feedback.enabled = false;
    db.set_plan_cache_enabled(false);
    db.set_bind_sharing_enabled(false);
    db
}

struct Stmt {
    db: usize,
    sql: String,
    expect: Checksum,
}

/// A read-only workload: databases, statements and their references.
pub struct ReadSet {
    dbs: Vec<Database>,
    stmts: Vec<Stmt>,
    cold: bool,
    staged_limit: usize,
}

impl ReadSet {
    pub fn setup(plan: ReadPlan) -> ReadSet {
        let twins: Vec<Database> = plan.instances.iter().map(build_twin).collect();
        let stmts = plan
            .stmts
            .into_iter()
            .map(|(db, sql)| {
                let rows = twins[db]
                    .query(&sql)
                    .unwrap_or_else(|e| panic!("reference twin failed on {sql}: {e}"))
                    .rows;
                Stmt {
                    db,
                    expect: Checksum::of(&rows),
                    sql,
                }
            })
            .collect();
        drop(twins);
        let mut set = ReadSet {
            dbs: plan.instances.iter().map(build_database).collect(),
            stmts,
            cold: plan.cold,
            staged_limit: plan.staged_limit,
        };
        for _ in 0..plan.warmup_passes {
            set.pass(None);
        }
        set
    }
}

impl Workload for ReadSet {
    fn pass(&mut self, mut log: Option<&mut SpanLog>) -> Pass {
        let sessions: Vec<_> = self.dbs.iter().map(Database::session).collect();
        let mut pass = Pass::default();
        pass.read_ns.reserve(self.stmts.len());
        for (i, stmt) in self.stmts.iter().enumerate() {
            if self.cold {
                self.dbs[stmt.db].clear_plan_cache();
            }
            let session = &sessions[stmt.db];
            let (result, ns) = served(log.as_deref_mut(), "core.query", i as u32, || {
                session.query(&stmt.sql)
            });
            pass.read_ns.push(ns);
            match result {
                Ok(r) => {
                    pass.optimize_ns += r.stats.optimize_time.as_nanos() as u64;
                    pass.execute_ns += r.stats.execute_time.as_nanos() as u64;
                    pass.reoptimized += u64::from(r.stats.reoptimized);
                    let got = Checksum::of(&r.rows);
                    if got != stmt.expect {
                        pass.fail(|| {
                            format!(
                                "statement {i} returned {} but the reference is {}: {}",
                                got.to_text(),
                                stmt.expect.to_text(),
                                stmt.sql
                            )
                        });
                    }
                }
                Err(e) => pass.fail(|| format!("statement {i} failed: {e}: {}", stmt.sql)),
            }
        }
        pass
    }

    fn staged(&mut self, log: &mut SpanLog) -> Staged {
        let mut out = Staged::default();
        for (i, stmt) in self.stmts.iter().take(self.staged_limit).enumerate() {
            out.statements += 1;
            let root = log.open("stmt", None, i as u32);
            match staged_query(&self.dbs[stmt.db], &stmt.sql, log, root, i as u32, &mut out) {
                Ok(rows) => {
                    out.rows_out += rows.len() as u64;
                    let got = Checksum::of(&rows);
                    if got != stmt.expect {
                        out.fail(format!(
                            "staged statement {i} returned {} but the reference is {}: {}",
                            got.to_text(),
                            stmt.expect.to_text(),
                            stmt.sql
                        ));
                    }
                }
                Err(e) => out.fail(format!("staged statement {i} failed: {e}: {}", stmt.sql)),
            }
            log.close(root);
        }
        out
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for db in &self.dbs {
            let s = db.plan_cache_stats();
            c.cache_hits += s.hits;
            c.cache_misses += s.misses;
            c.invalidations += s.invalidations;
            c.feedback_entries += db.feedback_store().len() as u64;
        }
        c
    }

    fn reference(&self) -> Vec<Checksum> {
        self.stmts.iter().map(|s| s.expect).collect()
    }
}

/// One statement through the public entry point, with its latency in
/// nanoseconds. With a span log the call is recorded as a `stmt` root
/// span with one child named `name`; without, only `Instant` runs.
pub(crate) fn served<T>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    stmt: u32,
    call: impl FnOnce() -> T,
) -> (T, u64) {
    match log {
        Some(log) => {
            let root = log.open("stmt", None, stmt);
            let (r, d) = log.time(name, Some(root), stmt, call);
            log.close(root);
            (r, d.as_nanos() as u64)
        }
        None => {
            let t0 = Instant::now();
            let r = call();
            (r, t0.elapsed().as_nanos() as u64)
        }
    }
}

/// One SELECT taken through the layers' public functions in the order
/// the serving path calls them, a span around each. Then the probes the
/// layer ratios need, which are not part of the staged path: the search
/// again under the pinned configuration (now with warm CPU caches, like
/// the probes it is compared with), heuristic-only, the shipped default
/// `parallelism = 0`, and bare join enumeration.
pub fn staged_query(
    db: &Database,
    text: &str,
    log: &mut SpanLog,
    root: SpanId,
    stmt: u32,
    out: &mut Staged,
) -> cbqt::common::Result<Vec<Row>> {
    let (catalog, config) = (db.catalog(), db.config());
    let sampling = SamplingCache::default();

    let staged = log.open("staged", Some(root), stmt);
    let (query, _) = log.time("sql.parse", Some(staged), stmt, || sql::parse_query(text));
    let query = query?;
    let (family, _) = log.time("sql.parameterize", Some(staged), stmt, || {
        let p = sql::parameterize(&query);
        // the serving path renders the family key on every probe
        std::hint::black_box(sql::render_query(&p.query));
        p
    });
    let (tree, _) = log.time("qgm.build", Some(staged), stmt, || {
        qgm::build_query_tree_with_binds(catalog, &family.query, &family.binds)
    });
    let tree = tree?;
    let (outcome, _) = log.time("transform.optimize", Some(staged), stmt, || {
        transform::optimize_query(&tree, catalog, config, &sampling)
    });
    let outcome = outcome?;
    let (run, _) = log.time("exec.run", Some(staged), stmt, || {
        let mut engine = Engine::new(catalog, db.storage());
        engine.set_mode(config.execution_mode);
        engine.set_params(family.binds.clone());
        engine.run(&outcome.plan).map(|rows| (rows, engine.stats()))
    });
    log.close(staged);
    let (rows, exec_stats) = run?;

    out.states += outcome.states_explored;
    out.cutoffs += outcome.cutoffs;
    out.blocks_costed += outcome.optimizer_stats.blocks_costed;
    out.annotation_hits += outcome.optimizer_stats.annotation_hits;
    out.est_cost_sum += outcome.plan.cost;
    out.work_units += exec_stats.work;

    let probe = log.open("probe", Some(root), stmt);
    let mut heuristic = config.clone();
    heuristic.cost_based = false;
    let mut shipped = config.clone();
    shipped.parallelism = 0;
    for (name, cfg) in [
        ("transform.cost_based", config),
        ("transform.heuristic", &heuristic),
        ("transform.parallel0", &shipped),
    ] {
        let (r, _) = log.time(name, Some(probe), stmt, || {
            transform::optimize_query(&tree, catalog, cfg, &sampling).map(drop)
        });
        r?;
    }
    let annotations = CostAnnotations::new();
    let (r, _) = log.time("optimizer.enumerate", Some(probe), stmt, || {
        let mut optimizer = Optimizer::new(catalog, &annotations, &sampling);
        optimizer.config = config.optimizer.clone();
        optimizer.optimize(&tree, None).map(drop)
    });
    r?;
    log.close(probe);
    Ok(rows)
}

/// Digest of up to [`CHUNK`] consecutive reference checksums, so the
/// expected file stays small for the 4000-statement workload.
pub const CHUNK: usize = 50;

pub fn chunk_digests(reference: &[Checksum]) -> Vec<Checksum> {
    reference
        .chunks(CHUNK)
        .map(|chunk| {
            let mut rows = 0u64;
            let mut sum = 0u64;
            for (i, c) in chunk.iter().enumerate() {
                rows = rows.wrapping_add(c.rows);
                // position-dependent, so swapping two answers shows
                sum = sum.wrapping_add(c.sum.rotate_left(i as u32 % 63).wrapping_mul(i as u64 + 1));
            }
            Checksum { rows, sum }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn statement_list(name: &str, seed: u64) -> Vec<u8> {
        let mut text = String::new();
        match name {
            "cold_transform" => push_plan(&mut text, cold_transform::generate(seed)),
            "cold_joins" => push_plan(&mut text, cold_joins::generate(seed)),
            "warm_point" => push_plan(&mut text, warm_point::generate(seed)),
            "warm_scan" => push_plan(&mut text, warm_scan::generate(seed)),
            "mixed_rw" => {
                for s in mixed_rw::script(seed) {
                    text.push_str(&format!("{s:?}\n"));
                }
            }
            other => panic!("unknown workload {other}"),
        }
        text.into_bytes()
    }

    fn push_plan(text: &mut String, plan: ReadPlan) {
        for inst in &plan.instances {
            text.push_str(&inst.ddl);
            for (table, rows) in &inst.tables {
                text.push_str(&format!("{table}: {rows:?}\n"));
            }
        }
        for (db, sql) in &plan.stmts {
            text.push_str(&format!("{db}: {sql}\n"));
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        for (name, _) in WORKLOADS {
            let a = statement_list(name, 42);
            assert!(!a.is_empty(), "{name}");
            assert_eq!(a, statement_list(name, 42), "{name} is not deterministic");
            assert_ne!(a, statement_list(name, 7), "{name} ignores its seed");
        }
    }

    #[test]
    fn statement_counts_do_not_depend_on_the_seed() {
        for seed in [1, 42, 1234] {
            assert_eq!(
                cold_transform::generate(seed).stmts.len(),
                cold_transform::STATEMENTS
            );
            assert_eq!(
                cold_joins::generate(seed).stmts.len(),
                cold_joins::STATEMENTS
            );
            assert_eq!(
                warm_point::generate(seed).stmts.len(),
                warm_point::STATEMENTS
            );
            assert_eq!(warm_scan::generate(seed).stmts.len(), warm_scan::STATEMENTS);
            let timed = mixed_rw::script(seed)
                .iter()
                .filter(|op| op.sql().is_some())
                .count();
            assert_eq!(timed, mixed_rw::STATEMENTS);
        }
    }

    #[test]
    fn chunk_digest_sees_a_flipped_or_swapped_answer() {
        let reference: Vec<Checksum> = (0..120u64)
            .map(|i| Checksum {
                rows: i,
                sum: i * 977,
            })
            .collect();
        let base = chunk_digests(&reference);
        assert_eq!(base.len(), 3);
        let mut flipped = reference.clone();
        flipped[70].sum ^= 1;
        let d = chunk_digests(&flipped);
        assert_eq!(d[0], base[0]);
        assert_ne!(d[1], base[1]);
        let mut swapped = reference.clone();
        swapped.swap(3, 4);
        assert_ne!(chunk_digests(&swapped)[0], base[0]);
    }
}
