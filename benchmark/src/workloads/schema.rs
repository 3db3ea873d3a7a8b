//! The HR schema (locations / departments / employees / job_history)
//! shared by `cold_transform` and `warm_scan`. Copied from
//! `crates/bench/src/workload.rs` rather than imported, so later edits
//! there cannot change this benchmark's inputs. Unlike the original, the
//! table sizes and index choices are fixed per profile: the seed decides
//! only the row contents, so the amount of work does not depend on it.

use super::Instance;
use crate::rng::Rng;
use cbqt::common::Value;

pub const COUNTRIES: [&str; 4] = ["US", "UK", "DE", "JP"];
pub const SALARY_MAX: i64 = 10_000;

#[derive(Debug, Clone, Copy)]
pub struct HrProfile {
    pub n_emp: i64,
    pub n_dept: i64,
    pub n_loc: i64,
    pub n_jh: i64,
    /// Concentrate job history on few employees (high join fan-out — the
    /// case where eager aggregation pays).
    pub jh_concentrated: bool,
    pub emp_dept_index: bool,
    pub jh_dept_index: bool,
    pub null_frac: f64,
    /// Share of employees the outer salary filter keeps.
    pub outer_sel: f64,
}

impl HrProfile {
    /// The salary threshold realizing `outer_sel`.
    pub fn salary_cut(&self) -> i64 {
        (SALARY_MAX as f64 * (1.0 - self.outer_sel)) as i64
    }
}

pub fn hr_instance(p: &HrProfile, rng: &mut Rng) -> Instance {
    let mut ddl = String::from(
        "CREATE TABLE locations (loc_id INT PRIMARY KEY, country_id VARCHAR(2) NOT NULL);
         CREATE TABLE departments (dept_id INT PRIMARY KEY, department_name VARCHAR(30),
             loc_id INT REFERENCES locations(loc_id));
         CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30),
             dept_id INT REFERENCES departments(dept_id), salary INT, mgr_id INT);
         CREATE TABLE job_history (emp_id INT NOT NULL, job_title VARCHAR(30),
             start_date INT, dept_id INT);
         CREATE INDEX i_jh_emp ON job_history (emp_id);",
    );
    if p.emp_dept_index {
        ddl.push_str("CREATE INDEX i_emp_dept ON employees (dept_id);");
    }
    if p.jh_dept_index {
        ddl.push_str("CREATE INDEX i_jh_dept ON job_history (dept_id);");
    }

    // every country appears, so no seed turns a country filter empty
    let locations = (0..p.n_loc)
        .map(|l| {
            let country = if (l as usize) < COUNTRIES.len() {
                COUNTRIES[l as usize]
            } else {
                *rng.pick(&COUNTRIES)
            };
            vec![Value::Int(l), Value::str(country)]
        })
        .collect();
    let departments = (0..p.n_dept)
        .map(|d| {
            vec![
                Value::Int(d),
                Value::str(format!("dept{d}")),
                Value::Int(rng.range(0, p.n_loc)),
            ]
        })
        .collect();
    let employees = (0..p.n_emp)
        .map(|e| {
            vec![
                Value::Int(e),
                Value::str(format!("e{e}")),
                if rng.chance(p.null_frac) {
                    Value::Null
                } else {
                    Value::Int(rng.range(0, p.n_dept))
                },
                Value::Int(rng.range(0, SALARY_MAX)),
                Value::Int(rng.range(0, p.n_emp)),
            ]
        })
        .collect();
    let jh_emp_range = if p.jh_concentrated {
        (p.n_emp / 50).max(1)
    } else {
        p.n_emp
    };
    let job_history = (0..p.n_jh)
        .map(|j| {
            vec![
                Value::Int(rng.range(0, jh_emp_range)),
                Value::str(format!("t{}", j % 9)),
                Value::Int(19_900_000 + rng.range(0, 95_000)),
                Value::Int(rng.range(0, p.n_dept)),
            ]
        })
        .collect();
    Instance {
        ddl,
        tables: vec![
            ("locations", locations),
            ("departments", departments),
            ("employees", employees),
            ("job_history", job_history),
        ],
    }
}
