//! Experiment runners reproducing the paper's evaluation artifacts:
//! Figure 2 (CBQT vs heuristic), Figure 3 (unnesting), Figure 4 (JPPD),
//! §4.3 (group-by placement), Table 1 (annotation reuse) and Table 2
//! (search-strategy optimization times), plus a join-enumeration width
//! sweep.
//!
//! Every experiment is also a differential test: the baseline and the
//! treatment configuration must return identical result sets on every
//! instance.

use crate::workload::{Family, Instance, WorkloadGen};
use cbqt::common::Value;
use cbqt::{Database, SearchStrategy};
use std::fmt::Write as _;
use std::time::Duration;

/// Work-unit charge per query block the optimizer costs (the
/// deterministic stand-in for optimization time in the improvement
/// metric).
pub const OPT_BLOCK_UNITS: f64 = 40.0;

/// One timed run of a query under some configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    pub opt: Duration,
    pub exec: Duration,
    /// Deterministic work units (the stable proxy for execution time).
    pub work: f64,
    pub states: u64,
    /// Query blocks the optimizer costed (its deterministic effort unit).
    pub blocks: u64,
}

impl Measurement {
    /// Total run time (optimization + execution), the paper's metric.
    pub fn total(&self) -> Duration {
        self.opt + self.exec
    }

    /// Work-unit total with optimization charged deterministically at
    /// `OPT_BLOCK_UNITS` per optimized query block — build-mode
    /// independent, so debug tests and release runs report the same
    /// improvements. Wall-clock `total()` is reported alongside.
    pub fn total_units(&self) -> f64 {
        self.work + self.blocks as f64 * OPT_BLOCK_UNITS
    }
}

fn measure(db: &mut Database, sql: &str, reps: usize) -> (Measurement, Vec<String>) {
    // these experiments time the optimizer itself: repeated reps must
    // keep exercising the CBQT search, not the serving-path plan cache
    db.set_plan_cache_enabled(false);
    let mut best: Option<Measurement> = None;
    let mut rows = Vec::new();
    for _ in 0..reps.max(1) {
        let r = db.query(sql).expect("experiment query must run");
        let m = Measurement {
            opt: r.stats.optimize_time,
            exec: r.stats.execute_time,
            work: r.stats.work_units,
            states: r.stats.states_explored,
            blocks: r.stats.blocks_costed,
        };
        if best.map(|b| m.total() < b.total()).unwrap_or(true) {
            best = Some(m);
        }
        rows = canon(&r.rows);
    }
    (best.unwrap(), rows)
}

fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    v.sort();
    v
}

/// Result for one instance under baseline and treatment.
#[derive(Debug)]
pub struct InstanceResult {
    pub id: usize,
    pub family: Family,
    pub base: Measurement,
    pub treat: Measurement,
    pub traits_desc: String,
}

impl InstanceResult {
    /// Per-instance improvement in percent: `(base/treat - 1) * 100`
    /// over work units (deterministic across runs).
    pub fn improvement_pct(&self) -> f64 {
        (self.base.total_units() / self.treat.total_units().max(1e-9) - 1.0) * 100.0
    }
}

/// Improvement over the top-N% most expensive queries.
#[derive(Debug, Clone, Copy)]
pub struct BucketReport {
    pub top_pct: f64,
    pub improvement_pct: f64,
    pub queries: usize,
}

/// Full report of one figure-style experiment.
#[derive(Debug)]
pub struct ExperimentReport {
    pub name: String,
    pub results: Vec<InstanceResult>,
    pub buckets: Vec<BucketReport>,
    pub avg_improvement_pct: f64,
    pub degraded_count: usize,
    pub degraded_avg_pct: f64,
    pub opt_time_increase_pct: f64,
}

impl ExperimentReport {
    fn build(name: &str, mut results: Vec<InstanceResult>) -> ExperimentReport {
        // rank by baseline expense ("top N longest running without the
        // transformation", as in the paper)
        results.sort_by(|a, b| b.base.total_units().total_cmp(&a.base.total_units()));
        let n = results.len().max(1);
        let mut buckets = Vec::new();
        for pct in [5.0, 10.0, 25.0, 50.0, 80.0, 100.0] {
            let k = (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n);
            let base: f64 = results[..k].iter().map(|r| r.base.total_units()).sum();
            let treat: f64 = results[..k].iter().map(|r| r.treat.total_units()).sum();
            buckets.push(BucketReport {
                top_pct: pct,
                improvement_pct: (base / treat.max(1e-9) - 1.0) * 100.0,
                queries: k,
            });
        }
        let base: f64 = results.iter().map(|r| r.base.total_units()).sum();
        let treat: f64 = results.iter().map(|r| r.treat.total_units()).sum();
        let avg_improvement_pct = (base / treat.max(1e-9) - 1.0) * 100.0;
        let degraded: Vec<f64> = results
            .iter()
            .map(|r| r.improvement_pct())
            .filter(|&i| i < -1.0)
            .collect();
        let degraded_count = degraded.len();
        let degraded_avg_pct = if degraded.is_empty() {
            0.0
        } else {
            -degraded.iter().sum::<f64>() / degraded.len() as f64
        };
        let base_opt: f64 = results.iter().map(|r| r.base.opt.as_secs_f64()).sum();
        let treat_opt: f64 = results.iter().map(|r| r.treat.opt.as_secs_f64()).sum();
        let opt_time_increase_pct = (treat_opt / base_opt.max(1e-12) - 1.0) * 100.0;
        ExperimentReport {
            name: name.to_string(),
            results,
            buckets,
            avg_improvement_pct,
            degraded_count,
            degraded_avg_pct,
            opt_time_increase_pct,
        }
    }

    /// Renders the report in the shape of the paper's figures.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "=== {} ===", self.name).unwrap();
        writeln!(out, "{} affected queries", self.results.len()).unwrap();
        writeln!(
            out,
            "average total-run-time improvement: {:+.0}%",
            self.avg_improvement_pct
        )
        .unwrap();
        writeln!(
            out,
            "degraded: {} queries ({:.0}% of affected), average degradation {:.0}%",
            self.degraded_count,
            100.0 * self.degraded_count as f64 / self.results.len().max(1) as f64,
            self.degraded_avg_pct
        )
        .unwrap();
        // the plan itself ran more than 1% more work: a wrong plan
        // choice, not the search's optimization charge
        let more_work: Vec<f64> = self
            .results
            .iter()
            .map(|r| r.treat.work / r.base.work.max(1e-9) - 1.0)
            .filter(|&m| m > 0.01)
            .collect();
        let lo = more_work.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = more_work.iter().copied().fold(0.0, f64::max);
        let range = match more_work.is_empty() {
            true => String::new(),
            false => format!(" (by {:.0}% to {:.0}%)", 100.0 * lo, 100.0 * hi),
        };
        writeln!(
            out,
            "more work: {} queries run more execution work than the baseline plan{range}",
            more_work.len(),
        )
        .unwrap();
        writeln!(
            out,
            "optimization time increase: {:+.0}%",
            self.opt_time_increase_pct
        )
        .unwrap();
        writeln!(out, "\n  top N% most expensive   improvement   (queries)").unwrap();
        for b in &self.buckets {
            writeln!(
                out,
                "  {:>6.0}%                 {:>+8.0}%     ({})",
                b.top_pct, b.improvement_pct, b.queries
            )
            .unwrap();
        }
        out
    }
}

/// Runs one experiment: each instance under `baseline` and `treatment`
/// database configurations, verifying identical results.
fn run_paired(
    name: &str,
    instances: Vec<Instance>,
    baseline: impl Fn(&mut Database),
    treatment: impl Fn(&mut Database),
    reps: usize,
) -> ExperimentReport {
    let mut results = Vec::new();
    for mut inst in instances {
        baseline(&mut inst.db);
        let (base, base_rows) = measure(&mut inst.db, &inst.sql, reps);
        treatment(&mut inst.db);
        let (treat, treat_rows) = measure(&mut inst.db, &inst.sql, reps);
        assert_eq!(
            base_rows,
            treat_rows,
            "instance {} ({}) diverged between configurations:\n{}",
            inst.id,
            inst.family.name(),
            inst.sql
        );
        results.push(InstanceResult {
            id: inst.id,
            family: inst.family,
            base,
            treat,
            traits_desc: inst.traits_desc,
        });
    }
    ExperimentReport::build(name, results)
}

fn default_config(db: &mut Database) {
    *db.config_mut() = cbqt::OptimizerSettings::default();
}

/// Figure 2: all transformations cost-based vs. heuristic-based
/// decisions.
pub fn run_fig2(seed: u64, n: usize, scale: f64, reps: usize) -> ExperimentReport {
    let mut gen = WorkloadGen::new(seed);
    gen.scale = scale;
    let instances = gen.generate_mixed(n);
    run_paired(
        "Figure 2: cost-based vs heuristic transformation (total run time)",
        instances,
        |db| {
            default_config(db);
            db.config_mut().cost_based = false;
        },
        default_config,
        reps,
    )
}

/// Figure 3: unnesting disabled vs. cost-based unnesting.
pub fn run_fig3(seed: u64, n: usize, scale: f64, reps: usize) -> ExperimentReport {
    let mut gen = WorkloadGen::new(seed);
    gen.scale = scale;
    let mut instances = gen.generate(Family::Unnest, n / 2);
    instances.extend(gen.generate(Family::UnnestExists, n - n / 2));
    run_paired(
        "Figure 3: subquery unnesting disabled vs cost-based",
        instances,
        |db| {
            default_config(db);
            db.config_mut().transforms.unnest = false;
            db.config_mut().heuristic_unnest_merge = false;
        },
        default_config,
        reps,
    )
}

/// Figure 4: JPPD disabled vs. cost-based JPPD.
pub fn run_fig4(seed: u64, n: usize, scale: f64, reps: usize) -> ExperimentReport {
    let mut gen = WorkloadGen::new(seed);
    gen.scale = scale;
    let instances = gen.generate(Family::Jppd, n);
    run_paired(
        "Figure 4: join predicate pushdown disabled vs cost-based",
        instances,
        |db| {
            default_config(db);
            db.config_mut().transforms.jppd = false;
        },
        default_config,
        reps,
    )
}

/// §4.3: group-by placement on vs. off, with the paper's headline counts
/// (queries improved by >200% and >1000%).
pub fn run_gbp(seed: u64, n: usize, scale: f64, reps: usize) -> (ExperimentReport, String) {
    let mut gen = WorkloadGen::new(seed);
    gen.scale = scale;
    let instances = gen.generate(Family::GroupByPlacement, n);
    let report = run_paired(
        "Section 4.3: group-by placement off vs on",
        instances,
        |db| {
            default_config(db);
            db.config_mut().transforms.group_by_placement = false;
        },
        default_config,
        reps,
    );
    let over_200 = report
        .results
        .iter()
        .filter(|r| r.improvement_pct() > 200.0)
        .count();
    let over_1000 = report
        .results
        .iter()
        .filter(|r| r.improvement_pct() > 1000.0)
        .count();
    let extra = format!(
        "queries improved by more than 200%: {over_200}\n\
         queries improved by more than 1000%: {over_1000}\n"
    );
    (report, extra)
}

/// Join enumeration across widths: snowflakes of a fact table and 2 to
/// 7 (mid, leaf) arms — 5 to 15 FROM items — each planned exactly
/// (`bushy_max_items` = its width), at the default (exact up to 10
/// items, windows past that) and pairwise (`bushy_max_items = 0`).
/// Reports estimated cost, executed work, optimize time and search
/// rounds per width and setting — the plan-cost-vs-relations table the
/// DRL join-ordering paper draws — and asserts that every setting
/// returns the same rows.
pub fn run_joins(seed: u64, scale: f64, reps: usize) -> String {
    join_sweep(seed, scale, reps, 2..=7)
}

fn join_sweep(seed: u64, scale: f64, reps: usize, arms: std::ops::RangeInclusive<usize>) -> String {
    let mut db = snowflake_db(seed, scale, *arms.end());
    db.set_plan_cache_enabled(false);
    let default = cbqt::optimizer::OptimizerConfig::default().bushy_max_items;
    let mut out = String::new();
    writeln!(
        out,
        "=== Join enumeration: plan cost vs relations (snowflake, fact + {}..{} arms) ===\n\
         \x20 items  setting    rounds     est. cost    work units   optimize ms",
        arms.start(),
        arms.end()
    )
    .unwrap();
    for k in arms {
        let items = 1 + 2 * k;
        let sql = snowflake_query(k);
        let mut reference: Option<Vec<String>> = None;
        for (label, bushy) in [("exact", items), ("default", default), ("pairwise", 0)] {
            default_config(&mut db);
            // every setting plans from the same static estimates, not
            // from what an earlier setting's run fed back
            db.config_mut().feedback.enabled = false;
            db.config_mut().optimizer.bushy_max_items = bushy;
            let mut best_opt = Duration::MAX;
            let mut last = None;
            for _ in 0..reps.max(1) {
                let r = db.query(&sql).expect("snowflake query must run");
                best_opt = best_opt.min(r.stats.optimize_time);
                last = Some(r);
            }
            let r = last.expect("one rep at least");
            let rows = canon(&r.rows);
            match &reference {
                None => reference = Some(rows),
                Some(e) => assert_eq!(*e, rows, "{items} items: {label} diverged from exact"),
            }
            let trace = db.trace(&sql).expect("snowflake query must trace");
            let rounds = trace.events.iter().find_map(|e| match e {
                cbqt::OptimizerEvent::JoinEnumEnd { rounds, .. } => Some(*rounds),
                _ => None,
            });
            writeln!(
                out,
                "  {items:>5}  {label:<9} {:>6} {:>13.0} {:>13.0} {:>13.3}",
                rounds.unwrap_or(0),
                r.stats.estimated_cost,
                r.stats.work_units,
                best_opt.as_secs_f64() * 1e3
            )
            .unwrap();
        }
    }
    out
}

/// A fact table with `arms` foreign keys, each into a mid table of ~10
/// rows per key value whose rows point at a leaf table. The query keeps
/// a tenth of each leaf, so an arm filtered through its leaf matches
/// about one mid row per fact row, and the result stays near the fact
/// table's size at any width while a plan that joins mids before their
/// leaves multiplies rows tenfold per arm.
fn snowflake_db(seed: u64, scale: f64, arms: usize) -> Database {
    let mut rng = cbqt_testkit::Rng::seed_from_u64(seed);
    let rows = |n: f64| ((n * scale) as i64).max(10);
    let (facts, mids, leaves) = (rows(1000.0), rows(1000.0), rows(1000.0));
    let keys: Vec<String> = (1..=arms).map(|k| format!(", a{k} INT")).collect();
    let mut script = format!("CREATE TABLE fact (id INT PRIMARY KEY{});", keys.concat());
    for k in 1..=arms {
        script.push_str(&format!(
            "CREATE TABLE mid{k} (id INT PRIMARY KEY, fkey INT, leaf_id INT);
             CREATE TABLE leaf{k} (id INT PRIMARY KEY, attr INT);"
        ));
    }
    let mut db = Database::new();
    db.execute_script(&script).expect("snowflake schema");
    let fact = (0..facts)
        .map(|i| {
            let fks = (0..arms).map(|_| Value::Int(rng.gen_range(0..100i64)));
            std::iter::once(Value::Int(i)).chain(fks).collect()
        })
        .collect();
    db.load_rows("fact", fact).unwrap();
    for k in 1..=arms {
        let mid = (0..mids)
            .map(|i| {
                let (fkey, leaf) = (rng.gen_range(0..100i64), rng.gen_range(0..leaves));
                vec![Value::Int(i), Value::Int(fkey), Value::Int(leaf)]
            })
            .collect();
        db.load_rows(&format!("mid{k}"), mid).unwrap();
        let leaf = (0..leaves)
            .map(|i| vec![Value::Int(i), Value::Int(i % 100)])
            .collect();
        db.load_rows(&format!("leaf{k}"), leaf).unwrap();
    }
    db.analyze().unwrap();
    db
}

fn snowflake_query(arms: usize) -> String {
    let mut from = String::from("fact f");
    let mut preds = Vec::new();
    for k in 1..=arms {
        from.push_str(&format!(", mid{k} m{k}, leaf{k} l{k}"));
        preds.push(format!("f.a{k} = m{k}.fkey"));
        preds.push(format!("m{k}.leaf_id = l{k}.id"));
        preds.push(format!("l{k}.attr < 10"));
    }
    format!("SELECT f.id FROM {from} WHERE {}", preds.join(" AND "))
}

/// Table 1's numbers: the exhaustive state space of the paper's Q1,
/// optimized with and without §3.4.2 annotation reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1 {
    pub states: u64,
    /// `(query blocks optimized, reused from annotations)`.
    pub with_reuse: (u64, u64),
    pub without_reuse: (u64, u64),
}

impl Table1 {
    pub fn render(&self) -> String {
        format!(
            "=== Table 1: re-use and state space (paper's Q1) ===\n\
             query: two unnestable subqueries, exhaustive search\n\
             states costed: {} (expected 4: (0,0) (1,0) (0,1) (1,1))\n\n\
             \x20 configuration          query blocks optimized   reused from annotations\n\
             \x20 without reuse          {:>6}                   {:>6}\n\
             \x20 with reuse (§3.4.2)    {:>6}                   {:>6}\n\n\
             (counts include the final re-optimization of the winning tree: 4 states x 3\n\
             blocks + 3 final = 15; reuse collapses equivalent sub-trees across states.)\n\
             paper: 12 query blocks across 4 states, 4 of which are avoided by reuse.\n",
            self.states,
            self.without_reuse.0,
            self.without_reuse.1,
            self.with_reuse.0,
            self.with_reuse.1,
        )
    }
}

/// Table 1: reuse of query sub-tree cost annotations across the
/// exhaustive state space of the paper's Q1.
pub fn run_table1(seed: u64) -> Table1 {
    let mut gen = WorkloadGen::new(seed);
    gen.scale = 0.5;
    let mut inst = gen.generate(Family::Unnest, 1).pop().unwrap();
    // isolate unnesting with exhaustive search and no interleaving (the
    // exact setting of the paper's Table 1 walkthrough)
    let configure = |db: &mut Database, reuse: bool| {
        default_config(db);
        let c = db.config_mut();
        c.search = SearchStrategy::Exhaustive;
        c.interleave = false;
        c.transforms.view_merge = false;
        c.transforms.jppd = false;
        c.transforms.setop_to_join = false;
        c.transforms.group_by_placement = false;
        c.transforms.predicate_pullup = false;
        c.transforms.join_factorization = false;
        c.transforms.or_expansion = false;
        c.optimizer.reuse_annotations = reuse;
        // exact block counts need every state fully optimized
        c.cost_cutoff = false;
    };
    configure(&mut inst.db, true);
    let with_reuse = inst.db.query(&inst.sql).unwrap().stats;
    configure(&mut inst.db, false);
    let without = inst.db.query(&inst.sql).unwrap().stats;
    Table1 {
        states: with_reuse.states_explored,
        with_reuse: (with_reuse.blocks_costed, with_reuse.annotation_hits),
        without_reuse: (without.blocks_costed, without.annotation_hits),
    }
}

/// Table 2: optimization time and number of states for the four search
/// strategies on a 3-table query with four unnestable subqueries.
pub fn run_table2(seed: u64, reps: usize) -> String {
    let mut gen = WorkloadGen::new(seed);
    gen.scale = 0.3;
    // build a dedicated instance with the paper's Table 2 query shape:
    // three base tables, four multi-table subqueries (NOT IN, EXISTS,
    // NOT EXISTS, IN), all valid for unnesting
    let base = gen.generate(Family::Unnest, 1).pop().unwrap();
    let mut db = base.db;
    // Table 2 times the search strategies; keep the plan cache out
    db.set_plan_cache_enabled(false);
    let sql = "SELECT e1.employee_name \
        FROM employees e1, job_history j, departments d0 \
        WHERE e1.emp_id = j.emp_id AND e1.dept_id = d0.dept_id AND \
              e1.dept_id NOT IN (SELECT d.dept_id FROM departments d, locations l \
                                 WHERE d.loc_id = l.loc_id AND l.country_id = 'JP' \
                                   AND d.dept_id IS NOT NULL) AND \
              EXISTS (SELECT 1 FROM departments d, locations l \
                      WHERE d.loc_id = l.loc_id AND d.dept_id = e1.dept_id \
                        AND l.country_id = 'US') AND \
              NOT EXISTS (SELECT 1 FROM departments d, locations l \
                          WHERE d.loc_id = l.loc_id AND d.dept_id = e1.dept_id \
                            AND l.country_id = 'DE') AND \
              e1.emp_id IN (SELECT j2.emp_id FROM job_history j2, departments d2 \
                            WHERE j2.dept_id = d2.dept_id AND j2.start_date > 19950000)";

    let mut out = String::new();
    writeln!(
        out,
        "=== Table 2: optimization time per search strategy ===\n\
         query: 3 base tables + 4 unnestable multi-table subqueries\n"
    )
    .unwrap();
    writeln!(out, "  strategy     optimization time   #states").unwrap();
    let mut reference: Option<Vec<String>> = None;
    for (label, strategy, cost_based) in [
        ("Heuristic", SearchStrategy::Auto, false),
        ("Two Pass", SearchStrategy::TwoPass, true),
        ("Linear", SearchStrategy::Linear, true),
        ("Exhaustive", SearchStrategy::Exhaustive, true),
    ] {
        default_config(&mut db);
        let c = db.config_mut();
        c.cost_based = cost_based;
        c.search = strategy;
        c.interleave = false;
        let mut best_opt = Duration::MAX;
        let mut states = 0;
        let mut rows = Vec::new();
        for _ in 0..reps.max(1) {
            let r = db.query(sql).unwrap();
            if r.stats.optimize_time < best_opt {
                best_opt = r.stats.optimize_time;
            }
            states = r.stats.states_explored.max(1); // heuristic counts as 1
            rows = canon(&r.rows);
        }
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(*r, rows, "{label} diverged"),
        }
        writeln!(
            out,
            "  {label:<12} {:>12.3} ms   {:>5}",
            best_opt.as_secs_f64() * 1e3,
            states
        )
        .unwrap();
    }
    writeln!(
        out,
        "\npaper: 0.24s/1, 0.33s/2, 0.61s/5, 0.97s/16 (on 2006 hardware)."
    )
    .unwrap();
    out
}

/// `--trace`: the structured optimizer trace (the event log behind
/// `Database::trace`) for one Figure-3 unnesting instance, so the state
/// space the experiments walk can be inspected by eye.
pub fn run_trace(seed: u64, scale: f64) -> String {
    let mut gen = WorkloadGen::new(seed);
    gen.scale = scale;
    let inst = gen.generate(Family::Unnest, 1).pop().unwrap();
    let report = inst.db.trace(&inst.sql).expect("trace query must run");
    let mut out = String::new();
    writeln!(
        out,
        "=== optimizer trace: one Figure-3 unnesting instance ===\n{}\n",
        inst.sql.trim()
    )
    .unwrap();
    out.push_str(&report.render());
    writeln!(
        out,
        "\nstates costed: {}  cut-offs: {}  blocks optimized: {}  annotation hits: {}",
        report.states_explored(),
        report.cutoffs(),
        report.blocks_costed(),
        report.annotation_hits()
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_small_run_shows_unnesting_wins() {
        let report = run_fig3(11, 6, 0.5, 1);
        assert_eq!(report.results.len(), 6);
        // unnesting must help on average for this workload
        assert!(
            report.avg_improvement_pct > 0.0,
            "expected positive improvement, got {:.0}%\n{}",
            report.avg_improvement_pct,
            report.render()
        );
    }

    #[test]
    fn fig2_small_run_completes_and_verifies() {
        let report = run_fig2(13, 8, 0.1, 1);
        assert_eq!(report.results.len(), 8);
        assert_eq!(report.buckets.len(), 6);
        let text = report.render();
        assert!(text.contains("top N%"), "{text}");
    }

    #[test]
    fn table1_reuse_matches_paper_counts() {
        // 15 block optimizations without reuse (12 across states + 3 in
        // the final pass); with reuse 7, and 8 reused — the paper's 4
        // avoided optimizations plus the fully-cached final pass
        assert_eq!(
            run_table1(17),
            Table1 {
                states: 4,
                with_reuse: (7, 8),
                without_reuse: (15, 0),
            }
        );
    }

    /// Column `col` (0 = items) of the `join_sweep` row for `items` and
    /// `setting`.
    fn sweep_cell(text: &str, items: usize, setting: &str, col: usize) -> f64 {
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{items}  {setting}")))
            .unwrap_or_else(|| panic!("{text}"));
        row.split_whitespace().nth(col).unwrap().parse().unwrap()
    }

    #[test]
    fn join_sweep_agrees_across_windows() {
        // up to 11 items: the default setting runs windows at the widest
        let text = join_sweep(29, 0.1, 1, 2..=5);
        assert_eq!(text.lines().count(), 2 + 4 * 3, "{text}");
        assert!(sweep_cell(&text, 11, "default", 2) > 1.0, "{text}");
    }

    #[test]
    fn join_sweep_default_within_2x_exact_past_the_window() {
        // The default runs windows on 11 and 13 items. Its commit rule
        // locks in a mid without its leaf here (1.81x / 1.68x the exact
        // estimated cost); the left-deep fallback it replaced cost 4.6x /
        // 4.7x. Estimates are deterministic, so the margin is exact.
        let text = join_sweep(42, 1.0, 1, 5..=6);
        for items in [11, 13] {
            let exact = sweep_cell(&text, items, "exact", 3);
            let default = sweep_cell(&text, items, "default", 3);
            assert!(default <= 2.0 * exact, "{items} items:\n{text}");
        }
    }

    #[test]
    fn table2_strategies_ordered_by_states() {
        let text = run_table2(19, 1);
        assert!(text.contains("Heuristic"), "{text}");
        assert!(text.contains("Exhaustive"), "{text}");
    }

    #[test]
    fn trace_dump_shows_state_space() {
        let text = run_trace(23, 0.3);
        assert!(text.contains("STATE"), "{text}");
        assert!(text.contains("FINAL PLAN"), "{text}");
        assert!(text.contains("states costed:"), "{text}");
    }
}
