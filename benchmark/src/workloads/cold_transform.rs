//! `cold_transform`: the hard-parse path. The eight transformation
//! families (templates copied from `crates/bench/src/workload.rs`) plus
//! the Table-2 shape (3 tables + 4 unnestable subqueries, from
//! `crates/bench/src/experiments.rs`), each on six tiny databases. The
//! plan cache is cleared before every statement, so each one pays parse,
//! QGM build, the heuristic pass, the cost-based state search with its
//! per-state optimizer calls, and a short execution.

use super::schema::{hr_instance, HrProfile, COUNTRIES};
use super::ReadPlan;
use crate::rng::Rng;

/// Scale 0.05 of the original generator's 300–4000 employees. The grid
/// is fixed so every seed does the same amount of work; it spans the
/// cost-relevant knobs the original drew at random (fan-out, indexes on
/// the correlation columns, outer selectivity, NULLs).
const PROFILES: [HrProfile; 6] = [
    HrProfile {
        n_emp: 40,
        n_dept: 6,
        n_loc: 4,
        n_jh: 30,
        jh_concentrated: false,
        emp_dept_index: true,
        jh_dept_index: false,
        null_frac: 0.0,
        outer_sel: 0.1,
    },
    HrProfile {
        n_emp: 80,
        n_dept: 10,
        n_loc: 4,
        n_jh: 120,
        jh_concentrated: true,
        emp_dept_index: false,
        jh_dept_index: true,
        null_frac: 0.05,
        outer_sel: 0.3,
    },
    HrProfile {
        n_emp: 120,
        n_dept: 16,
        n_loc: 6,
        n_jh: 60,
        jh_concentrated: false,
        emp_dept_index: true,
        jh_dept_index: true,
        null_frac: 0.10,
        outer_sel: 0.02,
    },
    HrProfile {
        n_emp: 160,
        n_dept: 24,
        n_loc: 8,
        n_jh: 400,
        jh_concentrated: true,
        emp_dept_index: false,
        jh_dept_index: false,
        null_frac: 0.0,
        outer_sel: 0.8,
    },
    HrProfile {
        n_emp: 200,
        n_dept: 30,
        n_loc: 10,
        n_jh: 100,
        jh_concentrated: false,
        emp_dept_index: true,
        jh_dept_index: false,
        null_frac: 0.12,
        outer_sel: 0.005,
    },
    HrProfile {
        n_emp: 60,
        n_dept: 8,
        n_loc: 5,
        n_jh: 240,
        jh_concentrated: true,
        emp_dept_index: true,
        jh_dept_index: true,
        null_frac: 0.03,
        outer_sel: 0.3,
    },
];

/// Instances that also run the Table-2 statement.
const TABLE2_PROFILES: [usize; 2] = [1, 4];

const FAMILIES: usize = 8;
pub const STATEMENTS: usize = PROFILES.len() * FAMILIES + TABLE2_PROFILES.len();

pub fn generate(seed: u64) -> ReadPlan {
    let mut data = Rng::stream(seed, "cold_transform.data");
    let mut lit = Rng::stream(seed, "cold_transform.literals");
    let instances = PROFILES.iter().map(|p| hr_instance(p, &mut data)).collect();
    let mut stmts = Vec::with_capacity(STATEMENTS);
    for (i, p) in PROFILES.iter().enumerate() {
        let cut = p.salary_cut();
        let country = *lit.pick(&COUNTRIES);
        for family in 0..FAMILIES {
            stmts.push((i, family_query(family, i, cut, country, &mut lit)));
        }
        if TABLE2_PROFILES.contains(&i) {
            stmts.push((i, table2_query(&mut lit)));
        }
    }
    ReadPlan {
        instances,
        stmts,
        cold: true,
        // two passes let the feedback store settle, so timed passes all
        // compile against the same observed cardinalities
        warmup_passes: 2,
        staged_limit: STATEMENTS,
    }
}

/// One statement of family `family` (in `workload.rs` order: unnest-agg,
/// unnest-exists, jppd-view, gb-placement, factorize, setop, or-expand,
/// pred-pullup). Variants the original drew at random (NOT EXISTS, view
/// kind, set operator) rotate with the instance index instead, so every
/// seed runs the same mix; the seed picks the literals.
fn family_query(
    family: usize,
    instance: usize,
    sal_cut: i64,
    country: &str,
    lit: &mut Rng,
) -> String {
    match family {
        0 => format!(
            "SELECT e1.employee_name, j.job_title \
             FROM employees e1, job_history j \
             WHERE e1.emp_id = j.emp_id AND e1.salary > {sal_cut} AND \
                   e1.salary > (SELECT AVG(e2.salary) FROM employees e2 \
                                WHERE e2.dept_id = e1.dept_id) AND \
                   e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
                                  WHERE d.loc_id = l.loc_id AND l.country_id = '{country}')"
        ),
        1 => {
            let neg = if instance.is_multiple_of(2) {
                "NOT "
            } else {
                ""
            };
            format!(
                "SELECT e.employee_name FROM employees e \
                 WHERE e.salary > {sal_cut} AND \
                       {neg}EXISTS (SELECT 1 FROM departments d, locations l \
                                    WHERE d.loc_id = l.loc_id AND d.dept_id = e.dept_id \
                                      AND l.country_id = '{country}')"
            )
        }
        2 => {
            let k = lit.range(0, 4);
            let outer_pred = if instance.is_multiple_of(2) {
                format!("d.department_name = 'dept{k}'")
            } else {
                format!("d.loc_id = {k}")
            };
            match instance % 3 {
                0 => format!(
                    "SELECT d.department_name, v.avg_sal \
                     FROM departments d, \
                          (SELECT e.dept_id, AVG(e.salary) avg_sal \
                           FROM employees e GROUP BY e.dept_id) v \
                     WHERE d.dept_id = v.dept_id AND {outer_pred}"
                ),
                1 => format!(
                    "SELECT d.department_name \
                     FROM departments d, \
                          (SELECT DISTINCT e.dept_id FROM employees e \
                           WHERE e.salary > {sal_cut}) v \
                     WHERE d.dept_id = v.dept_id AND {outer_pred}"
                ),
                _ => format!(
                    "SELECT d.department_name, v.val \
                     FROM departments d, \
                          (SELECT e.dept_id did, e.salary val FROM employees e \
                           UNION ALL \
                           SELECT j.dept_id did, j.start_date val FROM job_history j) v \
                     WHERE v.did = d.dept_id AND {outer_pred}"
                ),
            }
        }
        3 => format!(
            "SELECT d.department_name, COUNT(*) c, SUM(j.start_date) s, \
                    MAX(j.start_date) m \
             FROM job_history j, employees e, departments d \
             WHERE j.emp_id = e.emp_id AND e.dept_id = d.dept_id \
               AND e.salary > {sal_cut} \
             GROUP BY d.department_name"
        ),
        4 => format!(
            "SELECT e.employee_name, d.department_name \
             FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id AND e.salary > {sal_cut} \
             UNION ALL \
             SELECT j.job_title, d.department_name \
             FROM job_history j, departments d WHERE j.dept_id = d.dept_id"
        ),
        5 => {
            let op = if instance.is_multiple_of(2) {
                "MINUS"
            } else {
                "INTERSECT"
            };
            format!(
                "SELECT d.dept_id FROM departments d \
                 {op} \
                 SELECT e.dept_id FROM employees e WHERE e.salary > {sal_cut}"
            )
        }
        6 => {
            let id = lit.range(0, 40);
            format!(
                "SELECT e.employee_name FROM employees e \
                 WHERE e.emp_id = {id} OR e.salary > {sal_cut}"
            )
        }
        _ => {
            // EXPENSIVE's cost is its second argument: fixed per instance,
            // or the seed would decide how much execution work there is
            let units = 60 * (instance as i64 + 1);
            format!(
                "SELECT v.employee_name FROM \
                   (SELECT employee_name, salary FROM employees \
                    WHERE EXPENSIVE(salary, {units}) > {sal_cut} \
                    ORDER BY salary DESC) v \
                 WHERE rownum <= 20"
            )
        }
    }
}

/// The paper's Table-2 query shape: three base tables and four
/// multi-table subqueries (NOT IN, EXISTS, NOT EXISTS, IN), all valid
/// for unnesting — the widest state space in the benchmark.
fn table2_query(lit: &mut Rng) -> String {
    let mut c = COUNTRIES;
    lit.shuffle(&mut c);
    let date = 19_900_000 + lit.range(40_000, 60_000);
    format!(
        "SELECT e1.employee_name \
         FROM employees e1, job_history j, departments d0 \
         WHERE e1.emp_id = j.emp_id AND e1.dept_id = d0.dept_id AND \
               e1.dept_id NOT IN (SELECT d.dept_id FROM departments d, locations l \
                                  WHERE d.loc_id = l.loc_id AND l.country_id = '{}' \
                                    AND d.dept_id IS NOT NULL) AND \
               EXISTS (SELECT 1 FROM departments d, locations l \
                       WHERE d.loc_id = l.loc_id AND d.dept_id = e1.dept_id \
                         AND l.country_id = '{}') AND \
               NOT EXISTS (SELECT 1 FROM departments d, locations l \
                           WHERE d.loc_id = l.loc_id AND d.dept_id = e1.dept_id \
                             AND l.country_id = '{}') AND \
               e1.emp_id IN (SELECT j2.emp_id FROM job_history j2, departments d2 \
                             WHERE j2.dept_id = d2.dept_id AND j2.start_date > {date})",
        c[0], c[1], c[2]
    )
}
