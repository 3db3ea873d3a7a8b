//! `warm_scan`: scans, joins and aggregates over the HR schema at scale 4
//! with a warm plan cache. Every statement is a cache hit that runs for
//! milliseconds, so `exec` does nearly all the work: the control
//! workload on which `transform` / `optimizer` changes must not move.

use super::schema::{hr_instance, HrProfile, SALARY_MAX};
use super::ReadPlan;
use crate::rng::Rng;

/// Scale 4 of the original generator's mid-range instance.
const PROFILE: HrProfile = HrProfile {
    n_emp: 8_000,
    n_dept: 40,
    n_loc: 8,
    n_jh: 12_000,
    jh_concentrated: false,
    emp_dept_index: true,
    jh_dept_index: false,
    null_frac: 0.05,
    outer_sel: 0.3,
};

const TEMPLATES: usize = 6;
/// Selectivities of the salary / date filter, one statement per template
/// each; they land in different bind buckets, so the warm cache holds
/// several plan variants per family.
const SELECTIVITIES: [f64; 4] = [0.05, 0.25, 0.5, 0.9];
pub const STATEMENTS: usize = TEMPLATES * SELECTIVITIES.len();

pub fn generate(seed: u64) -> ReadPlan {
    let mut data = Rng::stream(seed, "warm_scan.data");
    let mut lit = Rng::stream(seed, "warm_scan.literals");
    let mut stmts = Vec::with_capacity(STATEMENTS);
    for sel in SELECTIVITIES {
        for template in 0..TEMPLATES {
            // a little jitter so each seed has its own literals without
            // leaving the selectivity band
            let jitter = lit.range(-100, 100);
            let sal = (SALARY_MAX as f64 * (1.0 - sel)) as i64 + jitter;
            let date = 19_900_000 + (95_000.0 * (1.0 - sel)) as i64 + jitter;
            stmts.push((0, scan_query(template, sal, date)));
        }
    }
    ReadPlan {
        instances: vec![hr_instance(&PROFILE, &mut data)],
        stmts,
        cold: false,
        // a suspect plan is re-optimized on its next probe; three passes
        // let those single-shot recompiles finish before timing starts
        warmup_passes: 3,
        staged_limit: STATEMENTS,
    }
}

fn scan_query(template: usize, sal: i64, date: i64) -> String {
    match template {
        0 => format!(
            "SELECT COUNT(*) c, SUM(e.salary) s, MAX(e.mgr_id) m \
             FROM employees e WHERE e.salary > {sal}"
        ),
        1 => format!(
            "SELECT e.dept_id, COUNT(*) c, AVG(e.salary) a \
             FROM employees e WHERE e.salary > {sal} GROUP BY e.dept_id"
        ),
        2 => format!(
            "SELECT d.department_name, COUNT(*) c, SUM(e.salary) s \
             FROM employees e, departments d \
             WHERE e.dept_id = d.dept_id AND e.salary > {sal} \
             GROUP BY d.department_name"
        ),
        3 => format!(
            "SELECT j.job_title, COUNT(*) c, MAX(j.start_date) m \
             FROM job_history j, employees e \
             WHERE j.emp_id = e.emp_id AND e.salary > {sal} \
             GROUP BY j.job_title"
        ),
        4 => format!(
            "SELECT l.country_id, COUNT(*) c, MIN(j.start_date) m \
             FROM job_history j, departments d, locations l \
             WHERE j.dept_id = d.dept_id AND d.loc_id = l.loc_id \
               AND j.start_date > {date} \
             GROUP BY l.country_id"
        ),
        _ => format!(
            "SELECT j.dept_id, j.job_title, COUNT(*) c \
             FROM job_history j WHERE j.start_date > {date} \
             GROUP BY j.dept_id, j.job_title"
        ),
    }
}
