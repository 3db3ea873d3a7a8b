//! Extended differential fuzzing (dev tool): many random databases and
//! queries, comparing all-transformations-off against cost-based under
//! every search strategy and against the heuristic rules.

use cbqt::common::{Error, Value};
use cbqt::sql::{Lexer, TokenKind};
use cbqt::{
    Database, PlanCacheStats, SearchStrategy, StatementLimits, StatementResult, TransformSet,
};
use cbqt_testkit::failpoints::{self, Fail};
use cbqt_testkit::Rng;
use std::collections::HashMap;
use std::time::Duration;

fn random_db(rng: &mut Rng) -> Database {
    let nloc = rng.gen_range(1..6i64);
    let ndept = rng.gen_range(1..20i64);
    let nemp = rng.gen_range(0..250i64);
    let njh = rng.gen_range(0..200i64);
    load_db(rng, [nloc, ndept, nemp, njh], false)
}

/// A database several batches deep: 2–4k employees and job-history rows
/// with skewed join keys — half the employees in department 0, half the
/// job history on 20 employees — so hash tables hold long duplicate
/// runs and every operator's input crosses the 1024-row batch size.
fn random_large_db(rng: &mut Rng) -> Database {
    let nloc = rng.gen_range(1..6i64);
    let ndept = rng.gen_range(5..40i64);
    let nemp = rng.gen_range(2000..4000i64);
    let njh = rng.gen_range(2000..4000i64);
    load_db(rng, [nloc, ndept, nemp, njh], true)
}

/// The HR schema with `[locations, departments, employees, job_history]`
/// rows drawn from `rng`; `skew` concentrates the join keys.
fn load_db(rng: &mut Rng, [nloc, ndept, nemp, njh]: [i64; 4], skew: bool) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE locations (loc_id INT PRIMARY KEY, country_id VARCHAR(2) NOT NULL);
         CREATE TABLE departments (dept_id INT PRIMARY KEY, department_name VARCHAR(30),
             loc_id INT REFERENCES locations(loc_id));
         CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30),
             dept_id INT REFERENCES departments(dept_id), salary INT, mgr_id INT);
         CREATE TABLE job_history (emp_id INT NOT NULL, job_title VARCHAR(30),
             start_date INT, dept_id INT);
         CREATE INDEX i_emp_dept ON employees (dept_id);",
    )
    .unwrap();
    let nf = rng.gen_range(0.0..0.4);
    let mut rows = Vec::new();
    for l in 0..nloc {
        rows.push(vec![
            Value::Int(l),
            Value::str(["US", "UK", "DE"][rng.gen_range(0usize..3)]),
        ]);
    }
    db.load_rows("locations", rows).unwrap();
    let mut rows = Vec::new();
    for d in 0..ndept {
        rows.push(vec![
            Value::Int(d),
            Value::str(format!("d{d}")),
            Value::Int(rng.gen_range(0..nloc)),
        ]);
    }
    db.load_rows("departments", rows).unwrap();
    let mut rows = Vec::new();
    for e in 0..nemp {
        rows.push(vec![
            Value::Int(e),
            Value::str(format!("e{e}")),
            if rng.gen_bool(nf) {
                Value::Null
            } else if skew && rng.gen_bool(0.5) {
                Value::Int(0)
            } else {
                Value::Int(rng.gen_range(0..ndept))
            },
            if rng.gen_bool(nf / 2.0) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..8000))
            },
            Value::Int(rng.gen_range(0..nemp.max(1))),
        ]);
    }
    db.load_rows("employees", rows).unwrap();
    let mut rows = Vec::new();
    for _j in 0..njh {
        let emp = match skew && rng.gen_bool(0.5) {
            true => rng.gen_range(0..20i64),
            false => rng.gen_range(0..nemp.max(1)),
        };
        rows.push(vec![
            Value::Int(emp),
            Value::str(format!("t{}", rng.gen_range(0..4))),
            Value::Int(19_900_000 + rng.gen_range(0i64..50_000)),
            if rng.gen_bool(nf) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..ndept))
            },
        ]);
    }
    db.load_rows("job_history", rows).unwrap();
    if rng.gen_bool(0.7) {
        db.analyze().unwrap();
    }
    db
}

fn random_query(rng: &mut Rng) -> String {
    let sal = rng.gen_range(0..8000);
    let date = 19_900_000 + rng.gen_range(0..50_000);
    let c = ["US", "UK", "DE"][rng.gen_range(0usize..3)];
    let k = rng.gen_range(0..20);
    match rng.gen_range(0..26) {
        0 => "SELECT e1.employee_name FROM employees e1 WHERE e1.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id)".to_string(),
        1 => format!("SELECT e.employee_name FROM employees e WHERE e.dept_id IN (SELECT d.dept_id FROM departments d, locations l WHERE d.loc_id = l.loc_id AND l.country_id = '{c}') AND e.salary > {sal}"),
        2 => format!("SELECT e1.employee_name, j.job_title FROM employees e1, job_history j, (SELECT DISTINCT d.dept_id FROM departments d, locations l WHERE d.loc_id = l.loc_id AND l.country_id IN ('UK','{c}')) v WHERE e1.dept_id = v.dept_id AND e1.emp_id = j.emp_id AND j.start_date > {date}"),
        3 => format!("SELECT d.department_name, SUM(e.salary), COUNT(*), MIN(e.salary) FROM employees e, departments d WHERE e.dept_id = d.dept_id AND e.salary > {sal} GROUP BY d.department_name"),
        4 => format!("SELECT e.employee_name, d.department_name FROM employees e, departments d WHERE e.dept_id = d.dept_id UNION ALL SELECT j.job_title, d.department_name FROM job_history j, departments d WHERE j.dept_id = d.dept_id AND j.start_date > {date}"),
        5 => format!("SELECT d.dept_id FROM departments d MINUS SELECT e.dept_id FROM employees e WHERE e.salary > {sal}"),
        6 => "SELECT e.dept_id FROM employees e INTERSECT SELECT j.dept_id FROM job_history j".to_string(),
        7 => format!("SELECT e.employee_name FROM employees e WHERE e.emp_id = {k} OR e.salary > {sal} OR e.dept_id = {}", k % 7),
        8 => format!("SELECT e.employee_name FROM employees e WHERE NOT EXISTS (SELECT 1 FROM departments d, locations l WHERE d.loc_id = l.loc_id AND d.dept_id = e.dept_id AND l.country_id = '{c}')"),
        9 => format!("SELECT v.employee_name FROM (SELECT employee_name, salary FROM employees WHERE EXPENSIVE(salary, 5) > {sal} ORDER BY salary DESC) v WHERE rownum <= {}", k + 1),
        10 => format!("SELECT v.country_id, v.dept_id, v.t FROM (SELECT l.country_id, d.dept_id, COUNT(*) t FROM departments d, locations l WHERE d.loc_id = l.loc_id GROUP BY ROLLUP (l.country_id, d.dept_id)) v WHERE v.dept_id = {}", k % 10),
        11 => format!("SELECT e.emp_id, SUM(e.salary) OVER (PARTITION BY e.dept_id ORDER BY e.emp_id) FROM employees e WHERE e.salary > {sal}"),
        12 => format!("SELECT e.employee_name FROM employees e WHERE e.dept_id NOT IN (SELECT j.dept_id FROM job_history j, departments d WHERE j.dept_id = d.dept_id AND j.start_date > {date})"),
        13 => "SELECT e.emp_id FROM employees e WHERE e.salary > ALL (SELECT j.emp_id FROM job_history j, departments d WHERE j.dept_id = d.dept_id)".to_string(),
        14 => format!("SELECT e.employee_name, d.department_name FROM employees e LEFT JOIN departments d ON e.dept_id = d.dept_id WHERE e.salary > {sal} AND EXISTS (SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)"),
        15 => format!("SELECT x.dn, x.c FROM (SELECT d.department_name dn, COUNT(*) c FROM employees e, departments d WHERE e.dept_id = d.dept_id GROUP BY d.department_name) x WHERE x.c > {}", k % 5),
        16 => format!("SELECT e1.emp_id FROM employees e1 WHERE e1.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) AND e1.emp_id IN (SELECT j.emp_id FROM job_history j WHERE j.start_date > {date}) AND (e1.mgr_id = {k} OR e1.salary < {sal})"),
        17 => format!("SELECT d.department_name, v.m FROM departments d, (SELECT e.dept_id, MAX(e.salary) m FROM employees e GROUP BY e.dept_id) v WHERE d.dept_id = v.dept_id AND d.department_name = 'd{}'", k % 8),
        18 => "SELECT w.c FROM (SELECT dept_id, COUNT(*) c FROM employees GROUP BY dept_id MINUS SELECT dept_id, COUNT(*) c FROM job_history GROUP BY dept_id) w".to_string(),
        19 => format!("SELECT e.emp_id FROM employees e WHERE (e.dept_id = {} AND e.salary > {sal}) OR e.emp_id IN (SELECT j.emp_id FROM job_history j WHERE j.start_date < {date}) ", k % 6),
        20 => format!("SELECT v.emp_id FROM (SELECT emp_id, ROW_NUMBER() OVER (ORDER BY salary DESC) rn FROM employees) v WHERE v.rn <= {}", k + 1),
        21 => "SELECT e.employee_name FROM employees e WHERE e.salary >= ALL (SELECT e2.salary FROM employees e2, departments d WHERE e2.dept_id = d.dept_id AND e2.salary IS NOT NULL) OR e.dept_id IS NULL".to_string(),
        // star: job_history fact with two independent dimension arms
        22 => format!("SELECT e.employee_name, d.department_name FROM job_history j, employees e, departments d WHERE j.emp_id = e.emp_id AND j.dept_id = d.dept_id AND e.salary > {sal} AND j.start_date > {date}"),
        // Twins: the second copy of each block is an annotation hit under
        // another block id and shares the first one's plan, so one plan
        // element sits at two positions. No literals, so bind sharing
        // leaves the copies identical.
        23 => {
            let col = ["d.dept_id", "d.loc_id", "l.country_id"][(k % 3) as usize];
            let view = format!("(SELECT DISTINCT {col} c FROM departments d, locations l WHERE d.loc_id = l.loc_id) v");
            format!("SELECT v.c FROM {view} UNION ALL SELECT v.c FROM {view}")
        }
        24 => {
            let test = ["e.mgr_id IS NOT NULL", "e.mgr_id IS NULL", "e.salary IS NULL"][(k % 3) as usize];
            let exists = format!("EXISTS (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND {test})");
            format!("SELECT d.department_name FROM departments d WHERE {exists} OR {exists}")
        }
        // snowflake: fact -> employees arm plus departments -> locations chain
        _ => format!("SELECT COUNT(*) FROM job_history j, employees e, departments d, locations l WHERE j.emp_id = e.emp_id AND j.dept_id = d.dept_id AND d.loc_id = l.loc_id AND l.country_id = '{c}' AND e.salary > {sal}"),
    }
}

/// NOT IN over the indexed `employees.dept_id`, whose NULL keys the
/// subquery's filter may keep. A point on the outer side makes an index
/// probe tempting, and a probe would miss the NULL; a high salary bar
/// leaves most departments without a matching key, so the NULL alone
/// decides. The main differential round runs one beside every
/// `random_query`.
fn null_keyed_not_in(rng: &mut Rng) -> String {
    let dept = rng.gen_range(0..10);
    let sal = rng.gen_range(7000..8000);
    format!("SELECT d.department_name FROM departments d WHERE d.dept_id = {dept} AND d.dept_id NOT IN (SELECT e.dept_id FROM employees e WHERE e.salary > {sal})")
}

/// Join-heavy query pool for the `--joins` oracle: every shape is a
/// multi-way (3+ item) join so the exact memo and pairwise windows both
/// get real join-order decisions. Arms 6 to 9 leave semi, anti and
/// outer joins in the block, which the memo plans under their partial
/// orders; the last arm is wider than the default window, so the search
/// plans it in rounds.
fn random_join_query(rng: &mut Rng) -> String {
    let sal = rng.gen_range(0..8000);
    let date = 19_900_000 + rng.gen_range(0..50_000);
    let c = ["US", "UK", "DE"][rng.gen_range(0usize..3)];
    let k = rng.gen_range(0..20);
    match rng.gen_range(0..11) {
        // star: job_history fact with two independent dimension arms
        0 => format!("SELECT e.employee_name, d.department_name FROM job_history j, employees e, departments d WHERE j.emp_id = e.emp_id AND j.dept_id = d.dept_id AND e.salary > {sal} AND j.start_date > {date}"),
        // snowflake: fact -> employees arm plus departments -> locations chain
        1 => format!("SELECT COUNT(*) FROM job_history j, employees e, departments d, locations l WHERE j.emp_id = e.emp_id AND j.dept_id = d.dept_id AND d.loc_id = l.loc_id AND l.country_id = '{c}' AND e.salary > {sal}"),
        // chain with a selective mid-chain filter
        2 => format!("SELECT e.emp_id, l.country_id FROM employees e, departments d, locations l WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND d.department_name = 'd{}'", k % 8),
        // self-join arm: manager lookup plus a dimension
        3 => format!("SELECT m.employee_name FROM employees e, employees m, departments d WHERE e.mgr_id = m.emp_id AND e.dept_id = d.dept_id AND e.salary > {sal}"),
        // 4-way snowflake under grouping
        4 => format!("SELECT d.department_name, COUNT(*) FROM job_history j, employees e, departments d, locations l WHERE j.emp_id = e.emp_id AND e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND j.start_date > {date} AND l.country_id = '{c}' GROUP BY d.department_name"),
        // disconnected join graph: two components forced into a
        // cross-product by the enumerator
        5 => format!("SELECT COUNT(*) FROM departments d, locations l, job_history j WHERE d.loc_id = l.loc_id AND j.start_date > {date} AND l.country_id = '{c}'"),
        // EXISTS under a 3-way chain: a semi join once unnested
        6 => format!("SELECT e.employee_name, l.country_id FROM employees e, departments d, locations l WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND e.salary > {sal} AND EXISTS (SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id AND j.start_date > {date})"),
        // NOT IN beside a join: a null-aware anti join once unnested
        7 => format!("SELECT e.emp_id, d.department_name FROM employees e, departments d WHERE e.dept_id = d.dept_id AND e.dept_id NOT IN (SELECT j.dept_id FROM job_history j WHERE j.start_date > {date})"),
        // EXISTS on the employees arm of a snowflake and NOT IN on its
        // departments arm: once both unnest, the memo may hash-join two
        // annotated halves, a shape no left-deep plan has
        8 => format!("SELECT COUNT(*) FROM job_history j, employees e, departments d, locations l WHERE j.emp_id = e.emp_id AND j.dept_id = d.dept_id AND d.loc_id = l.loc_id AND l.country_id = '{c}' AND EXISTS (SELECT 1 FROM job_history h WHERE h.emp_id = e.emp_id AND h.start_date > {date}) AND d.dept_id NOT IN (SELECT m.dept_id FROM employees m WHERE m.salary > {sal})"),
        // outer-join chain: both right sides are order-constrained
        9 => format!("SELECT e.employee_name, d.department_name, l.country_id FROM employees e LEFT JOIN departments d ON e.dept_id = d.dept_id LEFT JOIN locations l ON d.loc_id = l.loc_id WHERE e.salary > {sal}"),
        // 11 to 14 items: a manager chain of employees, each with its
        // department and that department's location, and one EXISTS (a
        // semi join once unnested). Every join is to a primary key, so
        // no join order blows up, and every table is selected from, so
        // join elimination keeps them all.
        _ => {
            let tables = 10 + (k % 4) as usize;
            let (mut from, mut cols) = (Vec::new(), Vec::new());
            let mut preds = vec![format!("e0.salary > {sal}")];
            for t in 0..tables {
                let i = t / 3;
                match t % 3 {
                    0 => {
                        from.push(format!("employees e{i}"));
                        cols.push(format!("e{i}.emp_id"));
                        if i > 0 {
                            preds.push(format!("e{i}.emp_id = e{}.mgr_id", i - 1));
                        }
                    }
                    1 => {
                        from.push(format!("departments d{i}"));
                        cols.push(format!("d{i}.department_name"));
                        preds.push(format!("d{i}.dept_id = e{i}.dept_id"));
                    }
                    _ => {
                        from.push(format!("locations l{i}"));
                        cols.push(format!("l{i}.country_id"));
                        preds.push(format!("l{i}.loc_id = d{i}.loc_id"));
                    }
                }
            }
            let x = k as usize % tables.div_ceil(3);
            preds.push(format!("EXISTS (SELECT 1 FROM job_history j WHERE j.emp_id = e{x}.emp_id AND j.start_date > {date})"));
            format!("SELECT {} FROM {} WHERE {}", cols.join(", "), from.join(", "), preds.join(" AND "))
        }
    }
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

/// Whether plan-cache stats add up: within the byte budget, bytes held
/// exactly while some plan variant or recipe is, and no family without
/// a variant.
fn coherent(stats: &PlanCacheStats) -> bool {
    stats.bytes <= stats.capacity_bytes
        && (stats.entries + stats.recipes == 0) == (stats.bytes == 0)
        && stats.families <= stats.entries
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--iters N] [--seed S] [--failpoints]\n\
         \x20           [--differential-exec] [--binds] [--feedback] [--txn]\n\
         \x20           [--joins] [N]\n\
         \n\
         Runs N differential-fuzz rounds (default 300): a random query,\n\
         and a NOT IN over an indexed key with NULLs, on a random\n\
         database must return the rows of the run with every\n\
         transformation off under each search strategy (Exhaustive,\n\
         TwoPass, Iterative, Linear, Auto) and under the heuristic rules\n\
         (cost_based = false). Round i uses seed S + i (S defaults to 0),\n\
         so any reported failure reproduces with\n\
         `fuzz --iters 1 --seed <failing seed>`.\n\
         \n\
         --failpoints switches to fault-injection fuzzing: each round arms\n\
         random failpoints (error and panic modes) and random tight\n\
         resource limits. Queries may fail, but must only ever fail with\n\
         an Err — no panics escaping the statement boundary, no hangs —\n\
         and the database must keep serving consistently afterwards.\n\
         Result-row comparison is skipped (faults and limits legitimately\n\
         abort statements).\n\
         \n\
         --differential-exec switches to the execution-engine oracle:\n\
         each round optimizes random queries once and runs the same plan\n\
         through both the vectorized and the Volcano engine, asserting\n\
         identical result rows, per-operator metrics, and governor\n\
         outcomes (see Database::differential_exec). Combine with\n\
         --failpoints to also arm random faults during the paired runs —\n\
         both engines must then fail with the same error class.\n\
         \n\
         --binds switches to the bind-sharing oracle: each round runs\n\
         random queries three ways — literal text (the bind-extraction\n\
         serving path), prepared with its extracted defaults, and\n\
         prepared re-bound explicitly — and all three must return\n\
         identical rows while the plan-family cache stays coherent\n\
         (byte-bounded, families <= variants). Copies of each query\n\
         with a few number literals changed, served as text (mostly\n\
         from the recipe of the query's shape), must return the rows\n\
         of a plan-cache-off twin, and the run must serve at least one\n\
         statement from a recipe. Combine with\n\
         --failpoints to also arm random faults: runs may fail, but\n\
         only with an Err, and the database must keep serving.\n\
         \n\
         --feedback switches to the cardinality-feedback oracle: each\n\
         round serves random queries repeatedly with feedback-driven\n\
         re-optimization on, against a feedback-off twin database as\n\
         the row oracle. Re-optimization must never change result rows,\n\
         and no query may re-optimize more than once (the suspect/pin\n\
         protocol forbids loops). Combine with --failpoints to also arm\n\
         random faults around the serves.\n\
         \n\
         --txn switches to the MVCC transaction oracle: each round\n\
         interleaves three transactional writer sessions against two\n\
         serial single-writer twin databases that replay a transaction's\n\
         statements only at its successful commit: one with the same\n\
         primary key (UPDATE/DELETE targets found through the index),\n\
         one with no index (targets found by full scan), both with the\n\
         plan cache off, so the main database's cached target plans meet\n\
         a fresh compile. Rows must match\n\
         both twins at every commit and at round end; a claim model\n\
         predicts exactly which statements (point, IN-list and range\n\
         writes) must lose the first-updater-wins race\n\
         (Error::WriteConflict); plain readers must never see\n\
         uncommitted rows and a pinned reader must keep its snapshot\n\
         through query, query_bound and a statement prepared before it\n\
         pinned. Writes of a shape seen before are served from its\n\
         statement-shape recipe, and the run must serve at least one.\n\
         Combine with --failpoints to also arm random faults around\n\
         every write: statements may then fail or abort their\n\
         transaction, but only with an Err, and the twin oracle holds.\n\
         \n\
         --joins switches to the join-order oracle: each round builds\n\
         the same random database twice — with the default\n\
         bushy_max_items and with bushy_max_items = 0 (pairwise\n\
         windows) — and every multi-way join query, including EXISTS /\n\
         NOT IN / LEFT JOIN shapes and blocks wider than the default\n\
         window, must return identical row sets from both, also under\n\
         random tight optimizer-state budgets that narrow the windows.\n\
         Combine with\n\
         --failpoints to also arm random faults: either side may then\n\
         fail, but only with an Err, and both databases must keep\n\
         serving."
    );
    std::process::exit(2);
}

struct Args {
    iters: u64,
    base_seed: u64,
    failpoints: bool,
    differential: bool,
    binds: bool,
    feedback: bool,
    txn: bool,
    joins: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        iters: 300,
        base_seed: 0,
        failpoints: false,
        differential: false,
        binds: false,
        feedback: false,
        txn: false,
        joins: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" | "-n" => {
                parsed.iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" | "-s" => {
                parsed.base_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--failpoints" => parsed.failpoints = true,
            "--differential-exec" => parsed.differential = true,
            "--binds" => parsed.binds = true,
            "--feedback" => parsed.feedback = true,
            "--txn" => parsed.txn = true,
            "--joins" => parsed.joins = true,
            "--help" | "-h" => usage(),
            // bare positional N, the pre-CLI invocation style
            other => match other.parse() {
                Ok(n) => parsed.iters = n,
                Err(_) => usage(),
            },
        }
    }
    parsed
}

/// One fault-injection round: random faults + random tight limits over
/// random queries, then a sanity check that the database still serves
/// and its plan cache is coherent. Returns the number of failures.
fn failpoint_round(seed: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let db = random_db(&mut rng);
    let names = failpoints::all();
    for _ in 0..4 {
        let sql = random_query(&mut rng);
        let armed = if rng.gen_bool(0.7) {
            let name = names[rng.gen_range(0usize..names.len())];
            Some(if rng.gen_bool(0.3) {
                Fail::panic(name)
            } else {
                Fail::error(name)
            })
        } else {
            None
        };
        let mut limits = StatementLimits::none();
        if rng.gen_bool(0.5) {
            limits = limits.with_optimizer_states(rng.gen_range(0i64..6) as u64);
        }
        if rng.gen_bool(0.5) {
            limits = limits.with_row_budget(rng.gen_range(1i64..2000) as u64);
        }
        if rng.gen_bool(0.3) {
            limits = limits.with_work_budget(rng.gen_range(100i64..50_000) as f64);
        }
        if rng.gen_bool(0.3) {
            limits = limits.with_deadline(Duration::from_millis(rng.gen_range(1i64..20) as u64));
        }
        // Ok and Err are both legitimate under faults; a panic would
        // abort the whole process and fail the run.
        let _ = db.query_with_limits(&sql, limits);
        drop(armed);
    }
    let mut failures = 0;
    let stats = db.plan_cache_stats();
    if !coherent(&stats) {
        println!("seed {seed}: INCONSISTENT plan cache after faults: {stats:?}");
        failures += 1;
    }
    match db.query("SELECT COUNT(*) FROM employees") {
        Ok(r) => {
            if r.rows.len() != 1 {
                println!("seed {seed}: SANITY query returned {} rows", r.rows.len());
                failures += 1;
            }
        }
        Err(e) => {
            println!("seed {seed}: SANITY query failed after faults: {e}");
            failures += 1;
        }
    }
    failures
}

/// One join-order round: the same random database is built twice from
/// the same seed — with the default `bushy_max_items` (blocks of up to
/// 10 items planned exactly, wider ones in windows) and with
/// `bushy_max_items = 0` (pairwise windows) — and every multi-way join
/// query must return identical row sets from both. The semi / anti /
/// outer arms of the query pool keep the join kernel's non-inner branch
/// under the oracle at both settings, and the wide arm runs several
/// rounds at the default.
/// Random tight optimizer-state budgets are mixed in so windows the
/// allowance narrows are exercised: a degraded plan must still agree
/// with the twin, and must never surface an
/// error. With `with_faults`, random failpoints are armed around each
/// run of the two; either side may then fail, but only with an `Err`,
/// and both databases must keep serving. Returns the number of failures.
fn joins_round(seed: u64, with_faults: bool) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let default = random_db(&mut rng);
    // a twin with identical data planned pairwise: the row oracle
    let mut pairwise = random_db(&mut Rng::seed_from_u64(seed));
    pairwise.config_mut().optimizer.bushy_max_items = 0;
    let twins = [("default", default), ("pairwise", pairwise)];
    let names = failpoints::all();
    let mut failures = 0;
    for _ in 0..4 {
        let sql = random_join_query(&mut rng);
        let mut limits = StatementLimits::none();
        if rng.gen_bool(0.4) {
            // tight state budgets narrow the windows; rows must be
            // unaffected
            limits = limits.with_optimizer_states(rng.gen_range(0i64..40) as u64);
        }
        let armed = if with_faults && rng.gen_bool(0.5) {
            let name = names[rng.gen_range(0usize..names.len())];
            Some(if rng.gen_bool(0.3) {
                Fail::panic(name)
            } else {
                Fail::error(name)
            })
        } else {
            None
        };
        let runs: Vec<_> = twins
            .iter()
            .map(|(_, d)| d.query_with_limits(&sql, limits).map(|r| canon(&r.rows)))
            .collect();
        drop(armed);
        for ((label, _), run) in twins.iter().zip(&runs) {
            match (run, &runs[0]) {
                (Ok(rows), Ok(reference)) if rows != reference => {
                    println!(
                        "seed {seed}: JOIN ORDER MISMATCH ({label} {} vs default {} rows)\n{sql}",
                        rows.len(),
                        reference.len()
                    );
                    failures += 1;
                }
                (Err(e), _) if !with_faults => {
                    println!("seed {seed}: {label} ERROR {e}\n{sql}");
                    failures += 1;
                }
                _ => {}
            }
        }
    }
    for (label, d) in &twins {
        let stats = d.plan_cache_stats();
        if !coherent(&stats) {
            println!("seed {seed}: INCONSISTENT {label} plan cache: {stats:?}");
            failures += 1;
        }
        match d.query("SELECT COUNT(*) FROM employees") {
            Ok(r) if r.rows.len() == 1 => {}
            Ok(r) => {
                println!(
                    "seed {seed}: {label} SANITY query returned {} rows",
                    r.rows.len()
                );
                failures += 1;
            }
            Err(e) => {
                println!("seed {seed}: {label} SANITY query failed: {e}");
                failures += 1;
            }
        }
    }
    failures
}

/// Seeds whose differential round trips a work budget in one engine and
/// not the other: the vectorized engine charges work at other points
/// than Volcano, so a budget between the two totals splits them. They
/// are reported, not failed, until one charge table serves the cost
/// model and both engines (ROADMAP.md, "Cost = work"), which makes the
/// totals equal by construction.
const KNOWN_WORK_BUDGET_DIVERGENCES: &[u64] = &[338, 762];

/// One execution-differential round: random queries (three from the
/// general pool, one from the join pool, then one from either on a
/// [`random_large_db`], unfaulted) through
/// [`Database::differential_exec`], which runs each optimized plan
/// through both the vectorized and the Volcano engine and reports any
/// divergence in rows, metrics, or governor outcome. With
/// `with_faults`, random failpoints are armed around each paired run —
/// both engines see the same armed faults, so the oracle still demands
/// matching error classes; such a run has no resource limits. Returns
/// the number of failures.
fn differential_round(seed: u64, with_faults: bool) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let db = random_db(&mut rng);
    let names = failpoints::all();
    let mut failures = 0;
    for i in 0..4 {
        let sql = if i < 3 {
            random_query(&mut rng)
        } else {
            random_join_query(&mut rng)
        };
        let armed = if with_faults && rng.gen_bool(0.6) {
            let name = names[rng.gen_range(0usize..names.len())];
            Some(if rng.gen_bool(0.3) {
                Fail::panic(name)
            } else {
                Fail::error(name)
            })
        } else {
            None
        };
        let mut limits = StatementLimits::none();
        if rng.gen_bool(0.4) {
            limits = limits.with_row_budget(rng.gen_range(1i64..2000) as u64);
        }
        if rng.gen_bool(0.3) {
            limits = limits.with_work_budget(rng.gen_range(100i64..50_000) as f64);
        }
        // No deadlines here: wall-clock trips are timing-dependent and
        // would flag spurious divergence between the two engines. For
        // the same reason a statement with an armed fault runs without
        // limits (the draws above still happen, so every seed keeps its
        // queries): the engines reach the fault and a budget in different
        // orders — the vectorized one charges a whole batch before a
        // subquery runs, Volcano reaches the subquery on row one — so
        // with two causes armed there is no single right error class.
        if armed.is_some() {
            limits = StatementLimits::none();
        }
        failures += exec_divergences(seed, &db, &sql, &limits, armed.is_some());
        drop(armed);
    }
    // one more query on a database several batches deep, drawn from a
    // stream of its own so every seed keeps the queries above; a row
    // budget (identical in both engines by construction) may cut it
    let mut big = Rng::seed_from_u64(seed ^ 0x00b1_6b47_c4e5);
    let db = random_large_db(&mut big);
    let sql = match big.gen_bool(0.5) {
        true => random_query(&mut big),
        false => random_join_query(&mut big),
    };
    let limits = match big.gen_bool(0.3) {
        true => StatementLimits::none().with_row_budget(big.gen_range(1000i64..20_000) as u64),
        false => StatementLimits::none(),
    };
    failures += exec_divergences(seed, &db, &sql, &limits, false);
    failures
}

/// Runs `sql` through [`Database::differential_exec`] and reports each
/// divergence; returns how many count as failures.
fn exec_divergences(
    seed: u64,
    db: &Database,
    sql: &str,
    limits: &StatementLimits,
    faulted: bool,
) -> u64 {
    let mut failures = 0;
    match db.differential_exec(sql, limits) {
        Ok(mismatches) => {
            for m in mismatches {
                if KNOWN_WORK_BUDGET_DIVERGENCES.contains(&seed) && m.contains("work budget") {
                    println!("seed {seed}: KNOWN work-budget DIVERGENCE {m}\n{sql}");
                    continue;
                }
                println!("seed {seed}: DIVERGENCE {m}\n{sql}");
                failures += 1;
            }
        }
        // An armed fault can fire during parsing/optimization,
        // before either engine runs; that is not a divergence.
        Err(_) if faulted => {}
        Err(e) => {
            println!("seed {seed}: PRE-EXEC ERROR {e}\n{sql}");
            failures += 1;
        }
    }
    failures
}

/// One bind-sharing round: every random query is run three ways —
/// literal text (the bind-extraction serving path), prepared with its
/// extracted defaults, and prepared re-bound to those defaults
/// explicitly — and all three must return identical rows. Then
/// [`SIBLINGS`] copies of it with a few number literals changed are
/// served as text, mostly from the recipe of its shape, and each must
/// return the rows of a plan-cache-off twin. Afterwards the plan-family
/// cache must be coherent: byte-bounded, no phantom bytes, and never
/// more families than cached variants (every family holds at least
/// one). With `with_faults`, random failpoints are armed around the
/// three-way runs; failures must stay behind `Err` and the database
/// must keep serving. Returns the number of failures and of statements
/// served from a recipe.
fn binds_round(seed: u64, with_faults: bool) -> (u64, u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let db = random_db(&mut rng);
    // twin database with identical data and no plan cache: the row
    // oracle of the siblings
    let mut twin = random_db(&mut Rng::seed_from_u64(seed));
    twin.set_plan_cache_enabled(false);
    // a stream of its own, so the siblings leave the query stream as it
    // was
    let mut perturb = Rng::seed_from_u64(seed ^ 0x5eed_5eed);
    let names = failpoints::all();
    let mut failures = 0;
    for _ in 0..4 {
        let sql = random_query(&mut rng);
        let armed = if with_faults && rng.gen_bool(0.5) {
            let name = names[rng.gen_range(0usize..names.len())];
            Some(if rng.gen_bool(0.3) {
                Fail::panic(name)
            } else {
                Fail::error(name)
            })
        } else {
            None
        };
        let literal = db.query(&sql);
        let prepared = db.prepare(&sql).and_then(|p| {
            let defaulted = p.query(&[])?;
            let rebound = p.query(p.param_defaults())?;
            Ok((defaulted, rebound))
        });
        drop(armed);
        match (literal, prepared) {
            (Ok(l), Ok((d, r))) => {
                let want = canon(&l.rows);
                if want != canon(&d.rows) || want != canon(&r.rows) {
                    println!("seed {seed}: BIND MISMATCH literal vs prepared rows\n{sql}");
                    failures += 1;
                }
            }
            // An armed fault may abort any of the three runs
            // independently; Err is the only acceptable failure shape.
            _ if with_faults => {}
            (Err(e), _) => {
                println!("seed {seed}: LITERAL ERROR {e}\n{sql}");
                failures += 1;
            }
            (_, Err(e)) => {
                println!("seed {seed}: PREPARED ERROR {e}\n{sql}");
                failures += 1;
            }
        }
        for _ in 0..SIBLINGS {
            let k = perturb.gen_range(1usize..4);
            let sibling = with_numbers_changed(&mut perturb, &sql, k);
            let got = db.query(&sibling).map(|r| canon(&r.rows));
            let want = twin.query(&sibling).map(|r| canon(&r.rows));
            match (got, want) {
                (Ok(got), Ok(want)) if got != want => {
                    println!("seed {seed}: SIBLING MISMATCH vs the plan-cache-off twin\n{sibling}");
                    failures += 1;
                }
                (Ok(_), Ok(_)) | (Err(_), Err(_)) => {}
                (got, want) => {
                    let (got, want) = (got.err(), want.err());
                    println!("seed {seed}: SIBLING ERROR {got:?} vs twin {want:?}\n{sibling}");
                    failures += 1;
                }
            }
        }
    }
    let stats = db.plan_cache_stats();
    if !coherent(&stats) {
        println!("seed {seed}: INCOHERENT plan cache: {stats:?}");
        failures += 1;
    }
    match db.query("SELECT COUNT(*) FROM employees") {
        Ok(r) if r.rows.len() == 1 => {}
        Ok(r) => {
            println!("seed {seed}: SANITY query returned {} rows", r.rows.len());
            failures += 1;
        }
        Err(e) => {
            println!("seed {seed}: SANITY query failed: {e}");
            failures += 1;
        }
    }
    (failures, stats.recipe_hits)
}

/// Copies of each bind-round query served with changed literals.
const SIBLINGS: usize = 3;

/// `sql` with `k` of its number literals, picked at random, rewritten
/// to other values of a similar size (an integer stays an integer).
fn with_numbers_changed(rng: &mut Rng, sql: &str, k: usize) -> String {
    let Ok(tokens) = Lexer::tokenize(sql) else {
        return sql.to_string();
    };
    let mut numbers: Vec<(usize, &str)> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Number(text) => Some((t.offset, text.as_str())),
            _ => None,
        })
        .collect();
    let mut picked: Vec<(usize, &str)> = (0..k.min(numbers.len()))
        .map(|_| numbers.remove(rng.gen_range(0usize..numbers.len())))
        .collect();
    // back to front, so every offset still points at its literal
    picked.sort_by_key(|&(offset, _)| std::cmp::Reverse(offset));
    let mut out = sql.to_string();
    for (offset, text) in picked {
        let size = text.parse::<f64>().unwrap_or(10.0) as i64;
        let value = rng.gen_range(0i64..2 * size + 20);
        let new = if text.contains(['.', 'e', 'E']) {
            format!("{value}.5")
        } else {
            value.to_string()
        };
        out.replace_range(offset..offset + text.len(), &new);
    }
    out
}

/// One cardinality-feedback round: random queries served repeatedly
/// against a feedback-on database, with a feedback-off twin (same seed,
/// same data) as the row oracle. Re-optimization must be transparent —
/// identical rows on every serve — and bounded: the suspect/pin
/// protocol allows at most one re-optimization per query, never a
/// compile loop. With `with_faults`, random failpoints are armed around
/// each serve; aborted serves may re-arm a suspect mark, so only the
/// row oracle and the serving sanity check apply. Returns the number of
/// failures.
fn feedback_round(seed: u64, with_faults: bool) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let db = random_db(&mut rng);
    // twin database with identical data, feedback off: the row oracle
    let mut oracle = random_db(&mut Rng::seed_from_u64(seed));
    oracle.config_mut().feedback.enabled = false;
    let oracle = oracle;
    let names = failpoints::all();
    let mut failures = 0;
    for _ in 0..3 {
        let sql = random_query(&mut rng);
        let want = match oracle.query(&sql) {
            Ok(r) => Some(canon(&r.rows)),
            Err(_) => None, // the feedback run must then fail too
        };
        let mut reopts = 0u32;
        for _serve in 0..4 {
            let armed = if with_faults && rng.gen_bool(0.4) {
                let name = names[rng.gen_range(0usize..names.len())];
                Some(if rng.gen_bool(0.3) {
                    Fail::panic(name)
                } else {
                    Fail::error(name)
                })
            } else {
                None
            };
            let got = db.query(&sql);
            drop(armed);
            match (got, &want) {
                (Ok(r), Some(w)) => {
                    if &canon(&r.rows) != w {
                        println!("seed {seed}: FEEDBACK ROW DRIFT\n{sql}");
                        failures += 1;
                    }
                    if r.stats.reoptimized {
                        reopts += 1;
                    }
                }
                (Ok(_), None) => {
                    println!("seed {seed}: feedback run succeeded, oracle failed\n{sql}");
                    failures += 1;
                }
                (Err(_), _) if with_faults => {}
                (Err(_), None) => {}
                (Err(e), Some(_)) => {
                    println!("seed {seed}: FEEDBACK ERROR {e}\n{sql}");
                    failures += 1;
                }
            }
        }
        if !with_faults && reopts > 1 {
            println!("seed {seed}: RE-OPTIMIZATION LOOP ({reopts} recompiles)\n{sql}");
            failures += 1;
        }
    }
    let stats = db.plan_cache_stats();
    if !coherent(&stats) {
        println!("seed {seed}: INCOHERENT plan cache: {stats:?}");
        failures += 1;
    }
    match db.query("SELECT COUNT(*) FROM employees") {
        Ok(r) if r.rows.len() == 1 => {}
        Ok(r) => {
            println!("seed {seed}: SANITY query returned {} rows", r.rows.len());
            failures += 1;
        }
        Err(e) => {
            println!("seed {seed}: SANITY query failed: {e}");
            failures += 1;
        }
    }
    failures
}

/// One MVCC transaction round: three interleaved transactional writer
/// sessions mutate a key/value table on the main database while two
/// serial single-writer twins replay each transaction's buffered
/// statements only at its successful commit — one with the same
/// primary key (UPDATE / DELETE targets found through the index), one
/// without any index (every target found by a full scan). The twins
/// run with the plan cache off, so every target plan the main database
/// serves from its cache is checked against a fresh compile. They are
/// the oracle: after every commit (and at round end) the three
/// databases must hold identical rows, so uncommitted or rolled-back
/// work must never leak and both target paths must pick the same rows.
/// A per-key claim model predicts exactly which statements must lose a
/// first-updater-wins race (deliberate cross-partition conflict
/// probes, and ranges that reach into another writer's partition) and
/// how many rows every other statement affects, and a pinned reader
/// session must keep its snapshot across other transactions' commits —
/// through `query`, `query_bound` and a statement prepared before it
/// pinned.
/// With `with_faults`, random failpoints are armed around each writer
/// statement: any statement may then fail — while it is planned,
/// leaving its transaction open and untouched, or once it runs,
/// aborting it — but only with an `Err`, and the twin oracle still
/// holds because failed statements and aborted transactions are never
/// replayed. Writes of a shape seen before are served from its
/// statement-shape recipe, so the twins check the recipe route too.
/// Returns the number of failures and of writes served from a recipe.
fn txn_round(seed: u64, with_faults: bool) -> (u64, u64) {
    const WRITERS: usize = 3;
    let mut rng = Rng::seed_from_u64(seed);
    let nkeys = rng.gen_range(10..50i64);
    let build = |seed: u64, nkeys: i64, ddl: &str| -> Database {
        let mut db = Database::new();
        db.execute_script(ddl).unwrap();
        let mut data = Rng::seed_from_u64(seed ^ 0x5EED);
        let rows: Vec<Vec<Value>> = (0..nkeys)
            .map(|k| vec![Value::Int(k), Value::Int(data.gen_range(0..1000))])
            .collect();
        db.load_rows("kv", rows).unwrap();
        db.analyze().unwrap();
        db
    };
    let with_pk = "CREATE TABLE kv (k INT PRIMARY KEY, v INT)";
    let db = build(seed, nkeys, with_pk);
    // the twins compile every statement fresh, so each UPDATE / DELETE
    // target plan the main database serves from its cache is checked
    // against a new compile of the same statement
    let mut twin = build(seed, nkeys, with_pk);
    twin.set_plan_cache_enabled(false);
    let mut scan_twin = build(seed, nkeys, "CREATE TABLE kv (k INT, v INT)");
    scan_twin.set_plan_cache_enabled(false);
    let twin_rows = |twin: &mut Database| -> Vec<String> {
        canon(&twin.query("SELECT k, v FROM kv").unwrap().rows)
    };

    let mut failures = 0;
    let mut recipe_writes = 0;
    let recipe_hits = || db.plan_cache_stats().recipe_hits;
    let names = failpoints::all();
    let sessions: Vec<_> = (0..WRITERS).map(|_| db.session()).collect();
    // per-writer model state: open?, snapshot counter, visible view,
    // claimed keys, buffered statements for twin replay
    let mut open = [false; WRITERS];
    let mut snap = [0u64; WRITERS];
    let mut view: Vec<HashMap<i64, i64>> = vec![HashMap::new(); WRITERS];
    let mut claims: Vec<Vec<i64>> = vec![Vec::new(); WRITERS];
    let mut buffer: Vec<Vec<String>> = vec![Vec::new(); WRITERS];
    // global model: logical commit counter, per-key last commit
    let mut commit_counter = 0u64;
    let mut committed_at: HashMap<i64, u64> = HashMap::new();
    let mut open_claim: HashMap<i64, usize> = HashMap::new();
    let mut next_insert = 10_000i64;
    // one pinned reader session: must see the same rows for its whole
    // transaction no matter what commits around it, by every route a
    // session reads through — plain text, explicit binds and a statement
    // prepared before the snapshot was pinned
    const PINNED_READ: &str = "SELECT k, v FROM kv";
    let pinned = db.session();
    let pinned_stmt = pinned.prepare(PINNED_READ).unwrap();
    let mut pinned_want: Option<Vec<String>> = None;

    let abort = |w: usize,
                 claims: &mut Vec<Vec<i64>>,
                 open_claim: &mut HashMap<i64, usize>,
                 open: &mut [bool; WRITERS],
                 buffer: &mut Vec<Vec<String>>| {
        for k in claims[w].drain(..) {
            open_claim.remove(&k);
        }
        buffer[w].clear();
        open[w] = false;
    };

    for _step in 0..40 {
        let w = rng.gen_range(0..WRITERS);
        let s = &sessions[w];
        if !open[w] {
            s.begin().unwrap();
            open[w] = true;
            snap[w] = commit_counter;
            view[w] = twin
                .query("SELECT k, v FROM kv")
                .unwrap()
                .rows
                .iter()
                .map(|r| match (&r[0], &r[1]) {
                    (Value::Int(k), Value::Int(v)) => (*k, *v),
                    _ => unreachable!("kv holds ints"),
                })
                .collect();
            continue;
        }
        let op = rng.gen_range(0..11);
        if op == 9 {
            // COMMIT: on success the twins replay the buffer and all
            // three databases must agree row for row
            match s.commit() {
                Ok(()) => {
                    commit_counter += 1;
                    for k in claims[w].drain(..) {
                        open_claim.remove(&k);
                        committed_at.insert(k, commit_counter);
                    }
                    for sql in buffer[w].drain(..) {
                        twin.execute_mut(&sql).unwrap();
                        scan_twin.execute_mut(&sql).unwrap();
                    }
                    open[w] = false;
                    let got = canon(&db.query("SELECT k, v FROM kv").unwrap().rows);
                    for (name, t) in [("serial", &mut twin), ("full-scan", &mut scan_twin)] {
                        if got != twin_rows(t) {
                            println!("seed {seed}: COMMIT DIVERGED from {name} twin (writer {w})");
                            failures += 1;
                        }
                    }
                }
                Err(e) => {
                    if !with_faults {
                        println!("seed {seed}: COMMIT ERROR {e}");
                        failures += 1;
                    }
                    // failed commit = abort: nothing replays
                    abort(w, &mut claims, &mut open_claim, &mut open, &mut buffer);
                }
            }
            continue;
        }
        if op == 10 {
            if s.rollback().is_err() && !with_faults {
                println!("seed {seed}: ROLLBACK ERROR");
                failures += 1;
            }
            abort(w, &mut claims, &mut open_claim, &mut open, &mut buffer);
            continue;
        }

        // a write statement: pick its keys and predict the outcome
        let mine: Vec<i64> = view[w]
            .keys()
            .copied()
            .filter(|k| (*k as usize) % WRITERS == w)
            .collect();
        // a key of the writer's own partition (with none left, a
        // likely-deleted one: a 0-row no-op)
        let own_key = |rng: &mut Rng| {
            if mine.is_empty() {
                rng.gen_range(0..nkeys)
            } else {
                mine[rng.gen_range(0..mine.len())]
            }
        };
        let (sql, keys, is_insert): (String, Vec<i64>, bool) = match op {
            0 | 1 => {
                // own-partition UPDATE (evens bump, odds overwrite)
                let k = own_key(&mut rng);
                let d = rng.gen_range(1..100);
                (
                    if op == 0 {
                        format!("UPDATE kv SET v = v + {d} WHERE k = {k}")
                    } else {
                        format!("UPDATE kv SET v = {d} WHERE k = {k}")
                    },
                    vec![k],
                    false,
                )
            }
            2 => {
                // own-partition DELETE
                let k = own_key(&mut rng);
                (format!("DELETE FROM kv WHERE k = {k}"), vec![k], false)
            }
            3 | 4 => {
                // INSERT a globally-fresh key
                next_insert += 1;
                let k = next_insert;
                (
                    format!("INSERT INTO kv VALUES ({k}, {})", rng.gen_range(0..1000)),
                    vec![k],
                    true,
                )
            }
            5 | 6 => {
                // own-partition IN-list UPDATE / DELETE
                let list: Vec<i64> = (0..rng.gen_range(2..4usize))
                    .map(|_| own_key(&mut rng))
                    .collect();
                let text: Vec<String> = list.iter().map(i64::to_string).collect();
                let text = text.join(", ");
                (
                    if op == 5 {
                        format!("UPDATE kv SET v = v + 7 WHERE k IN ({text})")
                    } else {
                        format!("DELETE FROM kv WHERE k IN ({text})")
                    },
                    list,
                    false,
                )
            }
            7 => {
                // narrow range UPDATE / DELETE: it reaches into the other
                // writers' partitions, so the claim model decides
                let lo = rng.gen_range(0..nkeys);
                let hi = lo + rng.gen_range(0..3i64);
                (
                    if rng.gen_bool(0.5) {
                        format!("UPDATE kv SET v = v - 3 WHERE k BETWEEN {lo} AND {hi}")
                    } else {
                        format!("DELETE FROM kv WHERE k >= {lo} AND k <= {hi}")
                    },
                    (lo..=hi).collect(),
                    false,
                )
            }
            _ => {
                // deliberate conflict probe: go after a key another
                // open transaction has already claimed
                let theirs: Vec<i64> = open_claim
                    .iter()
                    .filter(|(_, owner)| **owner != w)
                    .map(|(k, _)| *k)
                    .collect();
                let k = if theirs.is_empty() {
                    rng.gen_range(0..nkeys)
                } else {
                    theirs[rng.gen_range(0..theirs.len())]
                };
                (
                    format!("UPDATE kv SET v = v + 1 WHERE k = {k}"),
                    vec![k],
                    false,
                )
            }
        };
        // predicted outcome per the claim model: `touched` is what the
        // predicate selects from the writer's view
        let mut touched: Vec<i64> = keys
            .into_iter()
            .filter(|k| is_insert || view[w].contains_key(k))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let expect_conflict = !is_insert
            && touched.iter().any(|k| {
                open_claim.get(k).is_some_and(|o| *o != w)
                    || committed_at.get(k).is_some_and(|c| *c > snap[w])
            });
        let expect_rows = if expect_conflict {
            0
        } else {
            touched.len() as u64
        };

        let armed = if with_faults && rng.gen_bool(0.4) {
            let name = names[rng.gen_range(0usize..names.len())];
            Some(if rng.gen_bool(0.3) {
                Fail::panic(name)
            } else {
                Fail::error(name)
            })
        } else {
            None
        };
        let hits = recipe_hits();
        let outcome = s.execute_statement(&sql);
        recipe_writes += recipe_hits() - hits;
        drop(armed);
        match outcome {
            Ok(r) => {
                if expect_conflict && !with_faults {
                    println!("seed {seed}: MISSED CONFLICT among k={touched:?}\n{sql}");
                    failures += 1;
                }
                match r {
                    StatementResult::RowsAffected(n) if n == expect_rows => {}
                    other => {
                        if !with_faults || !expect_conflict {
                            println!(
                                "seed {seed}: expected {expect_rows} rows affected, got {other:?}\n{sql}"
                            );
                            failures += 1;
                        }
                    }
                }
                // apply to the model and buffer for twin replay
                for key in touched {
                    if is_insert {
                        view[w].insert(key, 0);
                    } else if !expect_conflict {
                        if sql.starts_with("DELETE") {
                            view[w].remove(&key);
                        }
                        if !claims[w].contains(&key) {
                            claims[w].push(key);
                            open_claim.insert(key, w);
                        }
                    }
                }
                buffer[w].push(sql);
            }
            Err(e) => {
                if !with_faults && !expect_conflict {
                    println!("seed {seed}: UNEXPECTED WRITE ERROR {e}\n{sql}");
                    failures += 1;
                }
                if expect_conflict && !with_faults && !matches!(e, Error::WriteConflict(_)) {
                    println!("seed {seed}: expected WriteConflict, got {e}\n{sql}");
                    failures += 1;
                }
                // a write statement that fails once it runs aborts the
                // whole txn; only a fault while it is planned leaves the
                // txn open, with nothing written and the model unchanged
                if !s.in_transaction() {
                    abort(w, &mut claims, &mut open_claim, &mut open, &mut buffer);
                } else if !with_faults {
                    println!("seed {seed}: failed write left the transaction open\n{sql}");
                    failures += 1;
                    let _ = s.rollback();
                    abort(w, &mut claims, &mut open_claim, &mut open, &mut buffer);
                }
            }
        }

        // plain readers always see exactly the committed (twin) state
        if rng.gen_bool(0.3) {
            let got = canon(&db.query("SELECT k, v FROM kv").unwrap().rows);
            if got != twin_rows(&mut twin) {
                println!("seed {seed}: READER saw uncommitted or lost rows");
                failures += 1;
            }
        }
        // pin (or check) the snapshot reader
        match &pinned_want {
            None => {
                if rng.gen_bool(0.2) {
                    pinned.begin().unwrap();
                    pinned_want = Some(twin_rows(&mut twin));
                }
            }
            Some(want) => {
                let routes = [
                    ("query", pinned.query(PINNED_READ)),
                    ("query_bound", pinned.query_bound(PINNED_READ, &[])),
                    ("prepared", pinned_stmt.query(&[])),
                ];
                for (route, got) in routes {
                    if &canon(&got.unwrap().rows) != want {
                        println!("seed {seed}: PINNED READER snapshot drifted on {route}");
                        failures += 1;
                    }
                }
            }
        }
    }

    // close everything out and compare the final states
    for (w, s) in sessions.iter().enumerate() {
        if open[w] {
            let _ = s.rollback();
        }
    }
    let _ = pinned.rollback();
    let got = canon(&db.query("SELECT k, v FROM kv").unwrap().rows);
    for (name, t) in [("serial", &mut twin), ("full-scan", &mut scan_twin)] {
        if got != twin_rows(t) {
            println!("seed {seed}: FINAL STATE diverged from {name} twin");
            failures += 1;
        }
    }
    let stats = db.txn_stats();
    if stats.begun != stats.committed + stats.rolled_back {
        println!("seed {seed}: txn accounting leak: {stats:?}");
        failures += 1;
    }
    (failures, recipe_writes)
}

/// One query of the main differential round: every transformation off
/// is the reference, and each search strategy and the heuristic rules
/// must return its rows. Returns the number of failures.
fn differential_query(seed: u64, db: &mut Database, sql: &str) -> u64 {
    db.config_mut().cost_based = false;
    db.config_mut().transforms = TransformSet {
        unnest: false,
        view_merge: false,
        jppd: false,
        setop_to_join: false,
        group_by_placement: false,
        predicate_pullup: false,
        join_factorization: false,
        or_expansion: false,
    };
    db.config_mut().heuristic_unnest_merge = false;
    let reference = match db.query(sql) {
        Ok(r) => canon(&r.rows),
        Err(e) => {
            println!("seed {seed}: REF ERROR {e}\n{sql}");
            return 1;
        }
    };
    let mut failures = 0;
    // every §3.2 strategy, then the heuristic rules (`Auto` is not
    // consulted there) — all with the default `TransformSet`
    for (label, strategy, cost_based) in [
        ("Exhaustive", SearchStrategy::Exhaustive, true),
        ("TwoPass", SearchStrategy::TwoPass, true),
        ("Iterative", SearchStrategy::Iterative, true),
        ("Linear", SearchStrategy::Linear, true),
        ("Auto", SearchStrategy::Auto, true),
        ("heuristic", SearchStrategy::Auto, false),
    ] {
        db.config_mut().cost_based = cost_based;
        db.config_mut().transforms = TransformSet::default();
        db.config_mut().heuristic_unnest_merge = true;
        db.config_mut().search = strategy;
        match db.query(sql) {
            Ok(r) => {
                let got = canon(&r.rows);
                if got != reference {
                    println!(
                        "seed {seed} {label}: MISMATCH ({} vs {} rows)\n{sql}",
                        reference.len(),
                        got.len()
                    );
                    failures += 1;
                }
            }
            Err(e) => {
                println!("seed {seed} {label}: ERROR {e}\n{sql}");
                failures += 1;
            }
        }
    }
    failures
}

fn main() {
    let args = parse_args();
    let (rounds, base_seed, failpoint_mode) = (args.iters, args.base_seed, args.failpoints);
    let mut failures = 0;
    if args.joins {
        if failpoint_mode {
            // injected panics are expected and caught at the statement
            // boundary; keep them off stderr
            std::panic::set_hook(Box::new(|_| {}));
        }
        for seed in base_seed..base_seed + rounds {
            failures += joins_round(seed, failpoint_mode);
        }
        println!("join-order fuzz complete: {rounds} rounds, {failures} failures");
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }
    if args.txn {
        if failpoint_mode {
            // injected panics are expected and caught at the statement
            // boundary; keep them off stderr
            std::panic::set_hook(Box::new(|_| {}));
        }
        let mut recipe_writes = 0;
        for seed in base_seed..base_seed + rounds {
            let (failed, hits) = txn_round(seed, failpoint_mode);
            failures += failed;
            recipe_writes += hits;
        }
        // repeated write shapes exist to drive the recipe route: a run
        // that never took it left it unchecked
        if recipe_writes == 0 {
            println!("no write was served from a recipe");
            failures += 1;
        }
        println!(
            "txn fuzz complete: {rounds} rounds, {failures} failures, \
             {recipe_writes} DML recipe hits"
        );
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }
    if args.feedback {
        if failpoint_mode {
            // injected panics are expected and caught at the statement
            // boundary; keep them off stderr
            std::panic::set_hook(Box::new(|_| {}));
        }
        for seed in base_seed..base_seed + rounds {
            failures += feedback_round(seed, failpoint_mode);
        }
        println!("feedback fuzz complete: {rounds} rounds, {failures} failures");
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }
    if args.binds {
        if failpoint_mode {
            // injected panics are expected and caught at the statement
            // boundary; keep them off stderr
            std::panic::set_hook(Box::new(|_| {}));
        }
        let mut recipe_hits = 0;
        for seed in base_seed..base_seed + rounds {
            let (failed, hits) = binds_round(seed, failpoint_mode);
            failures += failed;
            recipe_hits += hits;
        }
        // the siblings exist to drive the recipe route: a run that never
        // took it tested nothing new
        if recipe_hits == 0 {
            println!("no statement was served from a recipe");
            failures += 1;
        }
        println!(
            "bind-sharing fuzz complete: {rounds} rounds, {failures} failures, \
             {recipe_hits} recipe hits"
        );
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }
    if args.differential {
        if failpoint_mode {
            // injected panics are expected and caught inside
            // differential_exec; keep them off stderr
            std::panic::set_hook(Box::new(|_| {}));
        }
        for seed in base_seed..base_seed + rounds {
            failures += differential_round(seed, failpoint_mode);
        }
        println!("differential-exec fuzz complete: {rounds} rounds, {failures} failures");
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }
    if failpoint_mode {
        // injected panics are expected and caught at the statement
        // boundary; keep them off stderr
        std::panic::set_hook(Box::new(|_| {}));
        for seed in base_seed..base_seed + rounds {
            failures += failpoint_round(seed);
        }
        println!("failpoint fuzz complete: {rounds} rounds, {failures} failures");
        std::process::exit(if failures > 0 { 1 } else { 0 });
    }
    for seed in base_seed..base_seed + rounds {
        let mut rng = Rng::seed_from_u64(seed);
        let mut db = random_db(&mut rng);
        let queries = [random_query(&mut rng), null_keyed_not_in(&mut rng)];
        for sql in &queries {
            failures += differential_query(seed, &mut db, sql);
        }
    }
    println!("fuzz complete: {rounds} rounds, {failures} failures");
    std::process::exit(if failures > 0 { 1 } else { 0 });
}
