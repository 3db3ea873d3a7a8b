//! Differential fuzzing (dev tool): seven row oracles over random
//! databases and statements, run by one driver. An oracle builds its
//! twins from a round's seed, draws its statements and checks its
//! invariants; the driver owns the seed loop, the panic hook, fault
//! arming, the still-serving check and the failure tally.

use cbqt::common::{Error, Value};
use cbqt::sql::{Lexer, TokenKind};
use cbqt::{Database, QueryResult, SearchStrategy, StatementLimits, StatementResult, TransformSet};
use cbqt_testkit::failpoints::{self, Fail};
use cbqt_testkit::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
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

/// A query shaped for the batch engine's scan and aggregate kernels: one
/// to three aggregates over the nullable `salary` (SUM, AVG, MIN, MAX,
/// COUNT(col), DISTINCT, a MIN over strings, and an argument that turns
/// `Double` on one row), maybe grouped, under a filter that the scan tests
/// in place (`col <cmp> lit`, a flipped `lit < col`, `col <cmp> col`, a
/// ROWID bound) or that puts a computed conjunct between two in-place
/// ones.
fn kernel_query(rng: &mut Rng) -> String {
    let sal = rng.gen_range(0..8000);
    let k = rng.gen_range(0..4000);
    let d = rng.gen_range(0..10);
    let aggs = [
        "SUM(e.salary)".to_string(),
        "AVG(e.salary)".to_string(),
        "MIN(e.salary)".to_string(),
        "MAX(e.salary)".to_string(),
        "COUNT(e.salary)".to_string(),
        "COUNT(*)".to_string(),
        "SUM(DISTINCT e.salary)".to_string(),
        "MIN(e.employee_name)".to_string(),
        format!("SUM(CASE WHEN e.emp_id = {k} THEN 0.5 ELSE e.salary END)"),
        "AVG(e.salary / 3)".to_string(),
    ];
    let n = rng.gen_range(1..4usize);
    let list: Vec<&str> = (0..n)
        .map(|_| aggs[rng.gen_range(0..aggs.len())].as_str())
        .collect();
    let filter = match rng.gen_range(0..7) {
        0 => String::new(),
        1 => format!("WHERE {sal} < e.salary"),
        2 => format!("WHERE e.dept_id = {d}"),
        3 => format!("WHERE e.salary >= {sal} AND e.emp_id + 0 > {k} AND e.dept_id <> {d}"),
        4 => "WHERE e.mgr_id > e.emp_id".to_string(),
        5 => format!("WHERE e.ROWID < {k} AND {d} >= e.dept_id"),
        _ => format!("WHERE e.salary IS NULL OR e.salary > {sal}"),
    };
    match rng.gen_bool(0.4) {
        true => format!(
            "SELECT e.dept_id, {} FROM employees e {filter} GROUP BY e.dept_id",
            list.join(", ")
        ),
        false => format!("SELECT {} FROM employees e {filter}", list.join(", ")),
    }
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

/// One row oracle: the flag that selects it, what it checks and its
/// round.
struct Oracle {
    /// `None` for the default oracle.
    flag: Option<&'static str>,
    /// What it checks: its paragraph of the usage text.
    about: &'static str,
    /// A run must serve at least one statement from a recipe: the
    /// oracle is there to check that route.
    needs_recipe_hits: bool,
    /// A run counts the statements whose plan ran each join method and
    /// must run at least one lateral join: the oracle is there to check
    /// every join loop of both engines.
    needs_lateral_joins: bool,
    round: fn(&mut Round),
}

/// Every oracle, in the order of the usage text. Of several oracle
/// flags given, the one latest here wins.
static ORACLES: [Oracle; 7] = [
    STRATEGIES,
    FAILPOINTS,
    DIFFERENTIAL_EXEC,
    BINDS,
    FEEDBACK,
    TXN,
    JOINS,
];

fn usage() -> ! {
    let flags: Vec<String> = ORACLES
        .iter()
        .filter_map(|o| Some(format!("[{}]", o.flag?)))
        .collect();
    eprintln!(
        "usage: fuzz [--iters N] [--seed S] {} [N]\n\
         \n\
         Runs N rounds (default 300) of the row oracle its flag picks (below).\n\
         Round i draws everything from seed S + i (S defaults to 0), so\n\
         `fuzz <flags> --seed <failing seed> --iters 1` replays a failing round.\n\
         Beside another oracle's flag, --failpoints arms random failpoints\n\
         (error and panic modes) in its rounds: statements may then fail, but\n\
         only with an Err, and the databases must keep serving.",
        flags.join(" ")
    );
    for o in &ORACLES {
        eprintln!("\n{}", o.flag.unwrap_or("(no flag)"));
        for line in o.about.lines() {
            eprintln!("    {line}");
        }
    }
    std::process::exit(2);
}

fn main() {
    let (mut oracle, mut iters, mut base_seed, mut faults) = (0, 300, 0, false);
    let mut args = std::env::args().skip(1);
    let number = |args: &mut dyn Iterator<Item = String>| {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" | "-n" => iters = number(&mut args),
            "--seed" | "-s" => base_seed = number(&mut args),
            "--help" | "-h" => usage(),
            flag => match ORACLES.iter().position(|o| o.flag == Some(flag)) {
                Some(i) => {
                    faults |= flag == "--failpoints";
                    oracle = oracle.max(i);
                }
                // bare positional N, the pre-CLI invocation style
                None => iters = flag.parse().unwrap_or_else(|_| usage()),
            },
        }
    }
    let oracle = &ORACLES[oracle];
    if faults {
        // injected panics are expected and caught at the statement
        // boundary; keep them off stderr
        std::panic::set_hook(Box::new(|_| {}));
    }
    let mut r = Round {
        faults,
        ..Round::default()
    };
    for seed in base_seed..base_seed + iters {
        r.seed = seed;
        (oracle.round)(&mut r);
    }
    let mut hits = String::new();
    if oracle.needs_recipe_hits {
        if r.recipe_hits == 0 {
            println!("no statement was served from a recipe");
            r.failures += 1;
        }
        hits = format!(", {} recipe hits", r.recipe_hits);
    }
    if oracle.needs_lateral_joins {
        let [hash, nested_loop, merge, lateral] = r.joins_ran;
        println!(
            "statements whose plan ran a join: {hash} hash, {nested_loop} nested-loop, \
             {merge} merge, {lateral} lateral"
        );
        if lateral == 0 {
            println!("no plan ran a lateral join");
            r.failures += 1;
        }
    }
    println!(
        "fuzz complete: {iters} rounds, {} failures{hits}",
        r.failures
    );
    std::process::exit(i32::from(r.failures > 0));
}

/// The round being run, and the run's tallies.
#[derive(Default)]
struct Round {
    seed: u64,
    /// `--failpoints`: arm random faults ([`Round::arm`]).
    faults: bool,
    failures: u64,
    /// Statements served from a recipe.
    recipe_hits: u64,
    /// Statements whose plan ran a hash, a block nested-loop, a merge
    /// and a lateral join.
    joins_ran: [u64; 4],
}

/// The sanity query of a database built by [`random_db`].
const HR_SANITY: &str = "SELECT COUNT(*) FROM employees";

/// A query's rows in a canonical order, or its error.
type Rows = Result<Vec<String>, Error>;

fn rows(run: Result<QueryResult, Error>) -> Rows {
    let mut rows: Vec<String> = run?
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    Ok(rows)
}

impl Round {
    fn fail(&mut self, what: impl Display) {
        println!("seed {}: {what}", self.seed);
        self.failures += 1;
    }

    /// With probability `p`, when the run arms faults, a failpoint drawn
    /// from `rng` armed in the error or (less often) the panic mode; it
    /// is disarmed when dropped. Draws nothing when the run arms none.
    fn arm(&self, rng: &mut Rng, p: f64) -> Option<Fail> {
        if !self.faults || !rng.gen_bool(p) {
            return None;
        }
        let names = failpoints::all();
        let name = names[rng.gen_range(0usize..names.len())];
        Some(match rng.gen_bool(0.3) {
            true => Fail::panic(name),
            false => Fail::error(name),
        })
    }

    /// Checks that each named database still serves at round end: its
    /// plan cache is coherent — within its byte budget, holding bytes
    /// exactly while it holds a plan variant or a recipe, and no family
    /// without a variant — and its sanity query (a count over one of its
    /// tables) returns its one row.
    fn still_serving(&mut self, dbs: &[(&str, &Database, &str)]) {
        for (label, db, sanity) in dbs {
            let s = db.plan_cache_stats();
            if s.bytes > s.capacity_bytes
                || (s.entries + s.recipes == 0) != (s.bytes == 0)
                || s.families > s.entries
            {
                self.fail(format_args!("INCOHERENT {label} plan cache: {s:?}"));
            }
            match db.query(sanity) {
                Ok(r) if r.rows.len() == 1 => {}
                Ok(r) => self.fail(format_args!(
                    "{label} SANITY query returned {} rows",
                    r.rows.len()
                )),
                Err(e) => self.fail(format_args!("{label} SANITY query failed: {e}")),
            }
        }
    }

    /// Whether `run`, the run of `sql` the others are compared with,
    /// succeeded; its failure is reported unless `faulted` (a failpoint
    /// was armed in it).
    fn ok(&mut self, what: &str, run: &Rows, faulted: bool, sql: &str) -> bool {
        if let (Err(e), false) = (run, faulted) {
            self.fail(format_args!("{what} ERROR {e}\n{sql}"));
        }
        run.is_ok()
    }

    /// Reports where `got` parts from `want`, the result of `sql` on the
    /// twin `got` is checked against: other rows, or an error on one side
    /// only. `faulted` (a failpoint was armed in `got`'s run) excuses an
    /// error of `got`.
    fn compare(&mut self, what: &str, got: &Rows, want: &Rows, faulted: bool, sql: &str) {
        match (got, want) {
            (Ok(g), Ok(w)) if g != w => self.fail(format_args!(
                "{what} MISMATCH ({} vs {} rows)\n{sql}",
                g.len(),
                w.len()
            )),
            (Err(e), Ok(_)) if !faulted => self.fail(format_args!("{what} ERROR {e}\n{sql}")),
            (Ok(_), Err(e)) => self.fail(format_args!("{what} OK, its twin failed: {e}\n{sql}")),
            _ => {}
        }
    }
}

const STRATEGIES: Oracle = Oracle {
    flag: None,
    about: "A random query, and a NOT IN over an indexed key with NULLs, on a\n\
            random database must return the rows of the run with every\n\
            transformation off under each search strategy (Exhaustive,\n\
            TwoPass, Iterative, Linear, Auto) and under the heuristic rules\n\
            (cost_based = false), all with the default TransformSet.",
    needs_recipe_hits: false,
    needs_lateral_joins: false,
    round: strategies_round,
};

fn strategies_round(r: &mut Round) {
    let mut rng = Rng::seed_from_u64(r.seed);
    let mut db = random_db(&mut rng);
    for sql in [random_query(&mut rng), null_keyed_not_in(&mut rng)] {
        let config = db.config_mut();
        config.cost_based = false;
        config.transforms = TransformSet {
            unnest: false,
            view_merge: false,
            jppd: false,
            setop_to_join: false,
            group_by_placement: false,
            predicate_pullup: false,
            join_factorization: false,
            or_expansion: false,
        };
        config.heuristic_unnest_merge = false;
        let want = rows(db.query(&sql));
        if !r.ok("transformations-off", &want, false, &sql) {
            continue;
        }
        for (label, search, cost_based) in [
            ("Exhaustive", SearchStrategy::Exhaustive, true),
            ("TwoPass", SearchStrategy::TwoPass, true),
            ("Iterative", SearchStrategy::Iterative, true),
            ("Linear", SearchStrategy::Linear, true),
            ("Auto", SearchStrategy::Auto, true),
            ("heuristic", SearchStrategy::Auto, false),
        ] {
            let config = db.config_mut();
            config.cost_based = cost_based;
            config.transforms = TransformSet::default();
            config.heuristic_unnest_merge = true;
            config.search = search;
            r.compare(label, &rows(db.query(&sql)), &want, false, &sql);
        }
    }
}

const FAILPOINTS: Oracle = Oracle {
    flag: Some("--failpoints"),
    about: "Each round runs random queries under a random armed failpoint\n\
            and random tight resource limits (optimizer states, rows, work,\n\
            a deadline). A query may fail, but only with an Err: no panic\n\
            escapes the statement boundary, nothing hangs, and the database\n\
            keeps serving with a coherent plan cache. Rows are not compared:\n\
            faults and limits legitimately abort statements.",
    needs_recipe_hits: false,
    needs_lateral_joins: false,
    round: failpoints_round,
};

fn failpoints_round(r: &mut Round) {
    let mut rng = Rng::seed_from_u64(r.seed);
    let db = random_db(&mut rng);
    for _ in 0..4 {
        let sql = random_query(&mut rng);
        let armed = r.arm(&mut rng, 0.7);
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
    r.still_serving(&[("main", &db, HR_SANITY)]);
}

const DIFFERENTIAL_EXEC: Oracle = Oracle {
    flag: Some("--differential-exec"),
    about: "Each round optimizes random queries (three from the general pool,\n\
            one from the join pool, then one from either and one shaped for\n\
            the scan and aggregate kernels on a 2-4k-row database with\n\
            skewed join keys) once and runs the plan through\n\
            both the vectorized and the Volcano engine, which must agree on\n\
            rows, per-operator metrics and governor outcome under random row\n\
            and work budgets (Database::differential_exec). Under\n\
            --failpoints both engines see the same armed fault, with no\n\
            limits, and must fail with the same error class. The run prints\n\
            how many statements' plans ran a hash, a nested-loop, a merge\n\
            and a lateral join, and fails when none ran a lateral join.",
    needs_recipe_hits: false,
    needs_lateral_joins: true,
    round: differential_round,
};

fn differential_round(r: &mut Round) {
    let mut rng = Rng::seed_from_u64(r.seed);
    let db = random_db(&mut rng);
    for i in 0..4 {
        let sql = if i < 3 {
            random_query(&mut rng)
        } else {
            random_join_query(&mut rng)
        };
        let armed = r.arm(&mut rng, 0.6);
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
        exec_divergences(r, &db, &sql, &limits, armed.is_some());
        drop(armed);
    }
    // one more query on a database several batches deep, drawn from a
    // stream of its own so every seed keeps the queries above; a row
    // budget (identical in both engines by construction) may cut it
    let mut big = Rng::seed_from_u64(r.seed ^ 0x00b1_6b47_c4e5);
    let db = random_large_db(&mut big);
    let sql = match big.gen_bool(0.5) {
        true => random_query(&mut big),
        false => random_join_query(&mut big),
    };
    let limits = match big.gen_bool(0.3) {
        true => StatementLimits::none().with_row_budget(big.gen_range(1000i64..20_000) as u64),
        false => StatementLimits::none(),
    };
    exec_divergences(r, &db, &sql, &limits, false);
    // and one kernel-shaped query on it, from a stream of its own too
    let mut kern = Rng::seed_from_u64(r.seed ^ 0x6b65_726e_656c);
    let sql = kernel_query(&mut kern);
    exec_divergences(r, &db, &sql, &StatementLimits::none(), false);
}

/// Runs `sql` through [`Database::differential_report`], reports each
/// divergence and counts the join methods its plan ran.
fn exec_divergences(
    r: &mut Round,
    db: &Database,
    sql: &str,
    limits: &StatementLimits,
    faulted: bool,
) {
    match db.differential_report(sql, limits) {
        Ok(report) => {
            let j = report.joins_ran;
            let ran = [j.hash, j.nested_loop, j.merge, j.lateral];
            for (count, ran) in r.joins_ran.iter_mut().zip(ran) {
                *count += u64::from(ran);
            }
            for m in report.mismatches {
                r.fail(format_args!("DIVERGENCE {m}\n{sql}"));
            }
        }
        // An armed fault can fire during parsing/optimization,
        // before either engine runs; that is not a divergence.
        Err(_) if faulted => {}
        Err(e) => r.fail(format_args!("PRE-EXEC ERROR {e}\n{sql}")),
    }
}

const BINDS: Oracle = Oracle {
    flag: Some("--binds"),
    about: "Each round runs random queries three ways: literal text (the\n\
            bind-extraction serving path), prepared with its extracted\n\
            defaults, and prepared re-bound explicitly; all three must\n\
            return the same rows. Copies of each query with a few number\n\
            literals changed, served as text (mostly from the recipe of the\n\
            query's shape), must return the rows of a plan-cache-off twin.\n\
            The plan-family cache must stay coherent, and the run must serve\n\
            at least one statement from a recipe.",
    needs_recipe_hits: true,
    needs_lateral_joins: false,
    round: binds_round,
};

fn binds_round(r: &mut Round) {
    let mut rng = Rng::seed_from_u64(r.seed);
    let db = random_db(&mut rng);
    // the same data: the row oracle of the siblings
    let mut twin = random_db(&mut Rng::seed_from_u64(r.seed));
    twin.set_plan_cache_enabled(false);
    // a stream of its own, so the siblings leave the query stream as it
    // was
    let mut perturb = Rng::seed_from_u64(r.seed ^ 0x5eed_5eed);
    for _ in 0..4 {
        let sql = random_query(&mut rng);
        let armed = r.arm(&mut rng, 0.5);
        let literal = rows(db.query(&sql));
        let prepared = db
            .prepare(&sql)
            .and_then(|p| Ok([p.query(&[])?, p.query(p.param_defaults())?]));
        drop(armed);
        if r.ok("literal", &literal, r.faults, &sql) {
            let runs: Vec<Rows> = match prepared {
                Ok(runs) => runs.map(|run| rows(Ok(run))).into(),
                Err(e) => vec![Err(e)],
            };
            for got in &runs {
                r.compare("prepared", got, &literal, r.faults, &sql);
            }
        }
        for _ in 0..SIBLINGS {
            let k = perturb.gen_range(1usize..4);
            let sibling = with_numbers_changed(&mut perturb, &sql, k);
            let got = rows(db.query(&sibling));
            let want = rows(twin.query(&sibling));
            r.compare("SIBLING", &got, &want, false, &sibling);
        }
    }
    r.recipe_hits += db.plan_cache_stats().recipe_hits;
    r.still_serving(&[("main", &db, HR_SANITY)]);
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

const FEEDBACK: Oracle = Oracle {
    flag: Some("--feedback"),
    about: "Each round serves random queries repeatedly with feedback-driven\n\
            re-optimization on, against a feedback-off twin as the row\n\
            oracle. Re-optimization must never change rows, and no query may\n\
            re-optimize more than once (the suspect/pin protocol forbids\n\
            loops; not checked under --failpoints, where an aborted serve\n\
            may re-arm a suspect mark). Each round ends with a scan that\n\
            feedback cannot settle: before every serve a commit moves another\n\
            number of rows into its filter and retires the observations, so\n\
            its re-optimized plan still diverges and must be pinned after\n\
            exactly one recompile.",
    needs_recipe_hits: false,
    needs_lateral_joins: false,
    round: feedback_round,
};

fn feedback_round(r: &mut Round) {
    let mut rng = Rng::seed_from_u64(r.seed);
    let db = random_db(&mut rng);
    // the same data, feedback off: the row oracle
    let mut oracle = random_db(&mut Rng::seed_from_u64(r.seed));
    oracle.config_mut().feedback.enabled = false;
    for _ in 0..3 {
        let sql = random_query(&mut rng);
        // when the oracle fails, every serve must fail too
        let want = rows(oracle.query(&sql));
        let mut reopts = 0;
        for _serve in 0..4 {
            let armed = r.arm(&mut rng, 0.4);
            let got = db.query(&sql);
            drop(armed);
            reopts += u32::from(got.as_ref().is_ok_and(|g| g.stats.reoptimized));
            r.compare("FEEDBACK", &rows(got), &want, r.faults, &sql);
        }
        if !r.faults && reopts > 1 {
            r.fail(format_args!(
                "RE-OPTIMIZATION LOOP ({reopts} recompiles)\n{sql}"
            ));
        }
    }
    r.still_serving(&[("main", &db, HR_SANITY)]);
    drifting_scan(r);
}

/// A scan whose every execution sees another row count: before each
/// serve, UPDATEs leave exactly `id < m` rows (a fresh `m` each time) in
/// the filtered value. Its first plan estimates from the statistics of
/// uniform data and diverges; every commit retires the table's
/// observations, so the re-optimized plan estimates from the same stale
/// statistics and diverges again. The protocol must pin it there: one
/// recompile in four serves, neither none nor one per serve.
fn drifting_scan(r: &mut Round) {
    let mut rng = Rng::seed_from_u64(r.seed ^ 0xD21F7);
    let n = rng.gen_range(300..500i64);
    let hot = rng.gen_range(0..50i64);
    let build = |feedback: bool| {
        let mut db = Database::new();
        db.execute_script("CREATE TABLE drift (id INT PRIMARY KEY, c INT, v INT)")
            .unwrap();
        let rows = (0..n).map(|id| vec![Value::Int(id), Value::Int(id % 50), Value::Int(id)]);
        db.load_rows("drift", rows.collect()).unwrap();
        db.analyze().unwrap();
        db.config_mut().feedback.enabled = feedback;
        db
    };
    let (db, oracle) = (build(true), build(false));
    let sql = format!("SELECT COUNT(*), SUM(v) FROM drift WHERE c = {hot}");
    let mut reopts = 0;
    for _serve in 0..4 {
        let m = rng.gen_range(n / 2..n);
        for d in [&db, &oracle] {
            let writer = d.session();
            writer
                .execute(&format!("UPDATE drift SET c = -1 WHERE c = {hot}"))
                .unwrap();
            writer
                .execute(&format!("UPDATE drift SET c = {hot} WHERE id < {m}"))
                .unwrap();
        }
        let want = rows(oracle.query(&sql));
        let armed = r.arm(&mut rng, 0.4);
        let got = db.query(&sql);
        drop(armed);
        reopts += u32::from(got.as_ref().is_ok_and(|g| g.stats.reoptimized));
        r.compare("DRIFT", &rows(got), &want, r.faults, &sql);
    }
    if !r.faults && reopts != 1 {
        r.fail(format_args!(
            "DRIFTING SCAN re-optimized {reopts} times, not once\n{sql}"
        ));
    }
    r.still_serving(&[("drift", &db, "SELECT COUNT(*) FROM drift")]);
}

const TXN: Oracle = Oracle {
    flag: Some("--txn"),
    about: "Each round interleaves three writer sessions' transactions on a\n\
            key/value table. Two serial twins with the plan cache off replay a\n\
            transaction only at its commit, one through the primary key and\n\
            one with no index (full scans), and must hold the main database's\n\
            rows at every commit and at round end. A claim model predicts\n\
            which writes (point, IN-list, range) lose the first-updater-wins\n\
            race (Error::WriteConflict) and how many rows every other one\n\
            affects. Plain readers must never see uncommitted rows; a pinned\n\
            reader keeps its snapshot through query, query_bound and a\n\
            statement prepared before it pinned. Writes of a shape seen before\n\
            are served from its statement-shape recipe, and the run must\n\
            serve at least one. Under --failpoints a failed write leaves its\n\
            transaction open (a fault while planned) or aborts it, and the\n\
            twins still agree: failed statements and aborted transactions\n\
            are never replayed.",
    needs_recipe_hits: true,
    needs_lateral_joins: false,
    round: txn_round,
};

/// A writer session's part of the `--txn` claim model.
#[derive(Default)]
struct Writer {
    open: bool,
    /// The logical commit its transaction's snapshot was taken after.
    snap: u64,
    /// The keys its transaction sees.
    view: BTreeSet<i64>,
    claims: Vec<i64>,
    /// Its transaction's statements, replayed on the twins at commit.
    buffer: Vec<String>,
}

impl Writer {
    /// Ends the transaction with nothing replayed.
    fn abort(&mut self, open_claim: &mut BTreeMap<i64, usize>) {
        for k in self.claims.drain(..) {
            open_claim.remove(&k);
        }
        self.buffer.clear();
        self.open = false;
    }
}

fn txn_round(r: &mut Round) {
    const WRITERS: usize = 3;
    const KV: &str = "SELECT k, v FROM kv";
    let seed = r.seed;
    let mut rng = Rng::seed_from_u64(r.seed);
    let nkeys = rng.gen_range(10..50i64);
    let build = |ddl: &str, plan_cache: bool| -> Database {
        let mut db = Database::new();
        db.execute_script(ddl).unwrap();
        let mut data = Rng::seed_from_u64(seed ^ 0x5EED);
        let rows: Vec<Vec<Value>> = (0..nkeys)
            .map(|k| vec![Value::Int(k), Value::Int(data.gen_range(0..1000))])
            .collect();
        db.load_rows("kv", rows).unwrap();
        db.analyze().unwrap();
        db.set_plan_cache_enabled(plan_cache);
        db
    };
    let with_pk = "CREATE TABLE kv (k INT PRIMARY KEY, v INT)";
    let db = build(with_pk, true);
    // the twins compile every statement fresh, so each UPDATE / DELETE
    // target plan the main database serves from its cache is checked
    // against a new compile of the same statement
    let mut twins = [
        ("serial", build(with_pk, false)),
        ("full-scan", build("CREATE TABLE kv (k INT, v INT)", false)),
    ];
    let kv = |db: &Database| rows(db.query(KV));

    let sessions: Vec<_> = (0..WRITERS).map(|_| db.session()).collect();
    let mut writers: Vec<Writer> = (0..WRITERS).map(|_| Writer::default()).collect();
    // global model: logical commit counter, the last commit of each key,
    // and the open transaction claiming each key
    let mut commit_counter = 0u64;
    let mut committed_at: BTreeMap<i64, u64> = BTreeMap::new();
    let mut open_claim: BTreeMap<i64, usize> = BTreeMap::new();
    let mut next_insert = 10_000i64;
    // one pinned reader session: must see the same rows for its whole
    // transaction no matter what commits around it, by every route a
    // session reads through — plain text, explicit binds and a statement
    // prepared before the snapshot was pinned
    let pinned = db.session();
    let pinned_stmt = pinned.prepare(KV).unwrap();
    let mut pinned_want: Option<Rows> = None;

    for _step in 0..40 {
        let w = rng.gen_range(0..WRITERS);
        let (s, me) = (&sessions[w], &mut writers[w]);
        if !me.open {
            s.begin().unwrap();
            me.open = true;
            me.snap = commit_counter;
            let keys = twins[0].1.query("SELECT k FROM kv").unwrap().rows;
            me.view = keys
                .iter()
                .map(|row| match row[0] {
                    Value::Int(k) => k,
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
                    for k in me.claims.drain(..) {
                        open_claim.remove(&k);
                        committed_at.insert(k, commit_counter);
                    }
                    let got = kv(&db);
                    for (name, twin) in &mut twins {
                        for sql in &me.buffer {
                            twin.execute_mut(sql).unwrap();
                        }
                        let what = format!("COMMIT of writer {w} vs the {name} twin");
                        r.compare(&what, &got, &kv(twin), false, KV);
                    }
                    me.buffer.clear();
                    me.open = false;
                }
                Err(e) => {
                    if !r.faults {
                        r.fail(format_args!("COMMIT ERROR {e}"));
                    }
                    // failed commit = abort: nothing replays
                    me.abort(&mut open_claim);
                }
            }
            continue;
        }
        if op == 10 {
            if s.rollback().is_err() && !r.faults {
                r.fail("ROLLBACK ERROR");
            }
            me.abort(&mut open_claim);
            continue;
        }

        // a write statement: pick its keys and predict the outcome
        let mine: Vec<i64> = me
            .view
            .iter()
            .copied()
            .filter(|k| (*k as usize) % WRITERS == w)
            .collect();
        // one of `keys`; with none, any key (likely a deleted one: a
        // 0-row no-op)
        let pick = |rng: &mut Rng, keys: &[i64]| match keys.len() {
            0 => rng.gen_range(0..nkeys),
            n => keys[rng.gen_range(0..n)],
        };
        let is_insert = matches!(op, 3 | 4);
        let (sql, keys): (String, Vec<i64>) = match op {
            // own-partition UPDATE (evens bump, odds overwrite)
            0 | 1 => {
                let k = pick(&mut rng, &mine);
                let d = rng.gen_range(1..100i32);
                let v = if op == 0 {
                    format!("v + {d}")
                } else {
                    d.to_string()
                };
                (format!("UPDATE kv SET v = {v} WHERE k = {k}"), vec![k])
            }
            // own-partition DELETE
            2 => {
                let k = pick(&mut rng, &mine);
                (format!("DELETE FROM kv WHERE k = {k}"), vec![k])
            }
            // INSERT a globally-fresh key
            3 | 4 => {
                next_insert += 1;
                let (k, v) = (next_insert, rng.gen_range(0..1000));
                (format!("INSERT INTO kv VALUES ({k}, {v})"), vec![k])
            }
            // own-partition IN-list UPDATE / DELETE
            5 | 6 => {
                let keys: Vec<i64> = (0..rng.gen_range(2..4usize))
                    .map(|_| pick(&mut rng, &mine))
                    .collect();
                let list: Vec<String> = keys.iter().map(i64::to_string).collect();
                let verb = if op == 5 {
                    "UPDATE kv SET v = v + 7"
                } else {
                    "DELETE FROM kv"
                };
                (format!("{verb} WHERE k IN ({})", list.join(", ")), keys)
            }
            // narrow range UPDATE / DELETE: it reaches into the other
            // writers' partitions, so the claim model decides
            7 => {
                let lo = rng.gen_range(0..nkeys);
                let hi = lo + rng.gen_range(0..3i64);
                let sql = match rng.gen_bool(0.5) {
                    true => format!("UPDATE kv SET v = v - 3 WHERE k BETWEEN {lo} AND {hi}"),
                    false => format!("DELETE FROM kv WHERE k >= {lo} AND k <= {hi}"),
                };
                (sql, (lo..=hi).collect())
            }
            // deliberate conflict probe: go after a key another open
            // transaction has already claimed
            _ => {
                let theirs: Vec<i64> = open_claim
                    .iter()
                    .filter(|(_, owner)| **owner != w)
                    .map(|(k, _)| *k)
                    .collect();
                let k = pick(&mut rng, &theirs);
                (format!("UPDATE kv SET v = v + 1 WHERE k = {k}"), vec![k])
            }
        };
        // predicted outcome per the claim model: `touched` is what the
        // predicate selects from the writer's view
        let mut touched: Vec<i64> = keys
            .into_iter()
            .filter(|k| is_insert || me.view.contains(k))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let expect_conflict = !is_insert
            && touched.iter().any(|k| {
                open_claim.get(k).is_some_and(|o| *o != w)
                    || committed_at.get(k).is_some_and(|c| *c > me.snap)
            });
        let expect_rows = if expect_conflict {
            0
        } else {
            touched.len() as u64
        };

        let armed = r.arm(&mut rng, 0.4);
        let hits = db.plan_cache_stats().recipe_hits;
        let outcome = s.execute_statement(&sql);
        r.recipe_hits += db.plan_cache_stats().recipe_hits - hits;
        drop(armed);
        match outcome {
            Ok(result) => {
                if expect_conflict && !r.faults {
                    r.fail(format_args!("MISSED CONFLICT among k={touched:?}\n{sql}"));
                }
                let affected =
                    matches!(result, StatementResult::RowsAffected(n) if n == expect_rows);
                if !(affected || r.faults && expect_conflict) {
                    r.fail(format_args!(
                        "expected {expect_rows} rows affected, got {result:?}\n{sql}"
                    ));
                }
                // apply to the model and buffer for twin replay
                for key in touched {
                    if is_insert {
                        me.view.insert(key);
                    } else if !expect_conflict {
                        if sql.starts_with("DELETE") {
                            me.view.remove(&key);
                        }
                        if !me.claims.contains(&key) {
                            me.claims.push(key);
                            open_claim.insert(key, w);
                        }
                    }
                }
                me.buffer.push(sql);
            }
            Err(e) => {
                // unfaulted, a write fails only by losing a predicted race
                let lost_race = expect_conflict && matches!(e, Error::WriteConflict(_));
                if !(r.faults || lost_race) {
                    let predicted = format!("conflict predicted: {expect_conflict}");
                    r.fail(format_args!("WRITE ERROR {e} ({predicted})\n{sql}"));
                }
                // a write statement that fails once it runs aborts the
                // whole txn; only a fault while it is planned leaves the
                // txn open, with nothing written and the model unchanged
                if !s.in_transaction() {
                    me.abort(&mut open_claim);
                } else if !r.faults {
                    r.fail(format_args!(
                        "failed write left the transaction open\n{sql}"
                    ));
                    let _ = s.rollback();
                    me.abort(&mut open_claim);
                }
            }
        }

        // plain readers always see exactly the committed (twin) state
        if rng.gen_bool(0.3) {
            r.compare("READER", &kv(&db), &kv(&twins[0].1), false, KV);
        }
        // pin (or check) the snapshot reader
        match &pinned_want {
            None => {
                if rng.gen_bool(0.2) {
                    pinned.begin().unwrap();
                    pinned_want = Some(kv(&twins[0].1));
                }
            }
            Some(want) => {
                let routes = [
                    ("query", pinned.query(KV)),
                    ("query_bound", pinned.query_bound(KV, &[])),
                    ("prepared", pinned_stmt.query(&[])),
                ];
                for (route, got) in routes {
                    r.compare(
                        &format!("PINNED READER on {route}"),
                        &rows(got),
                        want,
                        false,
                        KV,
                    );
                }
            }
        }
    }

    // close everything out and compare the final states
    for (s, writer) in sessions.iter().zip(&writers) {
        if writer.open {
            let _ = s.rollback();
        }
    }
    let _ = pinned.rollback();
    let got = kv(&db);
    for (name, twin) in &twins {
        r.compare(
            &format!("FINAL STATE vs the {name} twin"),
            &got,
            &kv(twin),
            false,
            KV,
        );
    }
    let stats = db.txn_stats();
    if stats.begun != stats.committed + stats.rolled_back {
        r.fail(format_args!("txn accounting leak: {stats:?}"));
    }
}

const JOINS: Oracle = Oracle {
    flag: Some("--joins"),
    about: "Each round builds the same random database twice, at the default\n\
            bushy_max_items (blocks of up to 10 items planned exactly, wider\n\
            ones in windows) and at bushy_max_items = 0 (pairwise windows),\n\
            and every multi-way join query must return the same rows from\n\
            both: inner, EXISTS, NOT IN and LEFT JOIN shapes, and blocks\n\
            wider than the default window, which the default plans in\n\
            several rounds. Random tight optimizer-state budgets narrow the\n\
            windows: a degraded plan must still agree, and never fail.",
    needs_recipe_hits: false,
    needs_lateral_joins: false,
    round: joins_round,
};

fn joins_round(r: &mut Round) {
    let mut rng = Rng::seed_from_u64(r.seed);
    let default = random_db(&mut rng);
    // the same data, planned pairwise
    let mut pairwise = random_db(&mut Rng::seed_from_u64(r.seed));
    pairwise.config_mut().optimizer.bushy_max_items = 0;
    for _ in 0..4 {
        let sql = random_join_query(&mut rng);
        let mut limits = StatementLimits::none();
        if rng.gen_bool(0.4) {
            limits = limits.with_optimizer_states(rng.gen_range(0i64..40) as u64);
        }
        let armed = r.arm(&mut rng, 0.5);
        let [want, got] = [&default, &pairwise].map(|db| rows(db.query_with_limits(&sql, limits)));
        drop(armed);
        if r.ok("default", &want, r.faults, &sql) {
            r.compare("pairwise", &got, &want, r.faults, &sql);
        }
    }
    r.still_serving(&[
        ("default", &default, HR_SANITY),
        ("pairwise", &pairwise, HR_SANITY),
    ]);
}
