//! Synthetic workload: randomized database instances plus parameterized
//! query templates, one family per transformation under study.

use cbqt::common::Value;
use cbqt::Database;
use cbqt_testkit::Rng;

/// Query families, named for the transformation they exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Correlated aggregate + IN subqueries (Q1 shape) — unnesting.
    Unnest,
    /// EXISTS / NOT EXISTS multi-table subqueries — unnesting.
    UnnestExists,
    /// Distinct / group-by views joined to outer tables (Q12) — view
    /// merging and JPPD.
    Jppd,
    /// Group-by over joins — group-by placement.
    GroupByPlacement,
    /// UNION ALL with a common table — join factorization.
    Factorize,
    /// MINUS / INTERSECT — set operator conversion.
    SetOp,
    /// Disjunctive predicates — OR expansion.
    Disjunction,
    /// ROWNUM + expensive predicates in blocking views — pullup.
    Pullup,
    /// Fact table joined to several dimensions — bushy join enumeration.
    Star,
    /// A fact→mid→leaf dimension chain — bushy join enumeration over a
    /// snowflake arm.
    Snowflake,
}

impl Family {
    pub fn all() -> &'static [Family] {
        &[
            Family::Unnest,
            Family::UnnestExists,
            Family::Jppd,
            Family::GroupByPlacement,
            Family::Factorize,
            Family::SetOp,
            Family::Disjunction,
            Family::Pullup,
            Family::Star,
            Family::Snowflake,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Family::Unnest => "unnest-agg",
            Family::UnnestExists => "unnest-exists",
            Family::Jppd => "jppd-view",
            Family::GroupByPlacement => "gb-placement",
            Family::Factorize => "factorize",
            Family::SetOp => "setop",
            Family::Disjunction => "or-expand",
            Family::Pullup => "pred-pullup",
            Family::Star => "star-join",
            Family::Snowflake => "snowflake",
        }
    }
}

/// One benchmark instance: a populated database and a query against it.
pub struct Instance {
    pub id: usize,
    pub family: Family,
    pub db: Database,
    pub sql: String,
    /// A short description of the randomized characteristics.
    pub traits_desc: String,
}

/// Deterministic workload generator.
pub struct WorkloadGen {
    rng: Rng,
    next_id: usize,
    /// Scale multiplier on table sizes (1.0 = the default laptop-sized
    /// instances).
    pub scale: f64,
}

impl WorkloadGen {
    pub fn new(seed: u64) -> WorkloadGen {
        WorkloadGen {
            rng: Rng::seed_from_u64(seed),
            next_id: 0,
            scale: 1.0,
        }
    }

    /// Generates `n` instances of one family.
    pub fn generate(&mut self, family: Family, n: usize) -> Vec<Instance> {
        (0..n).map(|_| self.instance(family)).collect()
    }

    /// Generates a mixed workload covering all families.
    pub fn generate_mixed(&mut self, n: usize) -> Vec<Instance> {
        let fams = Family::all();
        (0..n)
            .map(|i| self.instance(fams[i % fams.len()]))
            .collect()
    }

    fn instance(&mut self, family: Family) -> Instance {
        let id = self.next_id;
        self.next_id += 1;
        // randomized database characteristics — the cost-relevant knobs
        let scale = self.scale;
        let n_emp = ((self.rng.gen_range(300..4000) as f64) * scale) as i64;
        let n_dept = self.rng.gen_range(4..80i64).min(n_emp.max(2) / 2);
        let n_loc = self.rng.gen_range(2..12i64);
        let n_jh = ((self.rng.gen_range(100..2500) as f64)
            * scale
            * if self.rng.gen_bool(0.4) { 4.0 } else { 1.0 }) as i64;
        // sometimes concentrate job history on few employees (high join
        // fan-out — the case where eager aggregation pays)
        let jh_emp_range = if self.rng.gen_bool(0.5) {
            (n_emp / 50).max(1)
        } else {
            n_emp.max(1)
        };
        let with_corr_index = self.rng.gen_bool(0.5);
        let outer_filter_sel = *[0.005, 0.02, 0.1, 0.3, 0.8]
            .get(self.rng.gen_range(0usize..5))
            .unwrap();
        let null_frac = self.rng.gen_range(0.0..0.15);
        let salary_max = 10_000i64;

        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE locations (loc_id INT PRIMARY KEY, country_id VARCHAR(2) NOT NULL);
             CREATE TABLE departments (dept_id INT PRIMARY KEY, department_name VARCHAR(30),
                 loc_id INT REFERENCES locations(loc_id));
             CREATE TABLE employees (emp_id INT PRIMARY KEY, employee_name VARCHAR(30),
                 dept_id INT REFERENCES departments(dept_id), salary INT, mgr_id INT);
             CREATE TABLE job_history (emp_id INT NOT NULL, job_title VARCHAR(30),
                 start_date INT, dept_id INT);
             CREATE INDEX i_jh_emp ON job_history (emp_id);",
        )
        .expect("schema");
        if with_corr_index {
            db.execute_mut("CREATE INDEX i_emp_dept ON employees (dept_id)")
                .unwrap();
        }
        if self.rng.gen_bool(0.5) {
            db.execute_mut("CREATE INDEX i_jh_dept ON job_history (dept_id)")
                .unwrap();
        }
        let countries = ["US", "UK", "DE", "JP"];
        let mut rows = Vec::new();
        for l in 0..n_loc {
            rows.push(vec![
                Value::Int(l),
                Value::str(countries[self.rng.gen_range(0..countries.len())]),
            ]);
        }
        db.load_rows("locations", rows).unwrap();
        let mut rows = Vec::new();
        for d in 0..n_dept {
            rows.push(vec![
                Value::Int(d),
                Value::str(format!("dept{d}")),
                Value::Int(self.rng.gen_range(0..n_loc)),
            ]);
        }
        db.load_rows("departments", rows).unwrap();
        let mut rows = Vec::new();
        for e in 0..n_emp {
            rows.push(vec![
                Value::Int(e),
                Value::str(format!("e{e}")),
                if self.rng.gen_bool(null_frac) {
                    Value::Null
                } else {
                    Value::Int(self.rng.gen_range(0..n_dept))
                },
                Value::Int(self.rng.gen_range(0..salary_max)),
                Value::Int(self.rng.gen_range(0..n_emp.max(1))),
            ]);
        }
        db.load_rows("employees", rows).unwrap();
        let mut rows = Vec::new();
        for j in 0..n_jh {
            rows.push(vec![
                Value::Int(self.rng.gen_range(0..jh_emp_range)),
                Value::str(format!("t{}", j % 9)),
                Value::Int(19_900_000 + self.rng.gen_range(0i64..95_000)),
                Value::Int(self.rng.gen_range(0..n_dept)),
            ]);
        }
        db.load_rows("job_history", rows).unwrap();
        db.analyze().unwrap();

        // the outer filter threshold realizing the chosen selectivity
        let sal_cut = (salary_max as f64 * (1.0 - outer_filter_sel)) as i64;
        let country = countries[self.rng.gen_range(0..countries.len())];
        let sql = self.query_for(family, sal_cut, country);
        let traits_desc = format!(
            "emp={n_emp} dept={n_dept} jh={n_jh} corr_index={with_corr_index} \
             outer_sel={outer_filter_sel} nulls={null_frac:.2}"
        );
        Instance {
            id,
            family,
            db,
            sql,
            traits_desc,
        }
    }

    fn query_for(&mut self, family: Family, sal_cut: i64, country: &str) -> String {
        match family {
            Family::Unnest => format!(
                "SELECT e1.employee_name, j.job_title \
                 FROM employees e1, job_history j \
                 WHERE e1.emp_id = j.emp_id AND e1.salary > {sal_cut} AND \
                       e1.salary > (SELECT AVG(e2.salary) FROM employees e2 \
                                    WHERE e2.dept_id = e1.dept_id) AND \
                       e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
                                      WHERE d.loc_id = l.loc_id AND l.country_id = '{country}')"
            ),
            Family::UnnestExists => {
                let neg = if self.rng.gen_bool(0.5) { "NOT " } else { "" };
                format!(
                    "SELECT e.employee_name FROM employees e \
                     WHERE e.salary > {sal_cut} AND \
                           {neg}EXISTS (SELECT 1 FROM departments d, locations l \
                                        WHERE d.loc_id = l.loc_id AND d.dept_id = e.dept_id \
                                          AND l.country_id = '{country}')"
                )
            }
            Family::Jppd => {
                // an *expensive* view joined from a small outer whose
                // restriction is NOT on the join column (so predicate
                // move-around cannot capture it; only the join predicate
                // itself restricts the view — the JPPD case). Half the
                // instances use an unmergeable UNION ALL view, where JPPD
                // is the only applicable view transformation (§2.2.3).
                let k = self.rng.gen_range(0..4);
                let outer_pred = if self.rng.gen_bool(0.5) {
                    format!("d.department_name = 'dept{k}'")
                } else {
                    format!("d.loc_id = {k}")
                };
                match self.rng.gen_range(0..3) {
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
            Family::GroupByPlacement => format!(
                // aggregates over the fan-out side of the join: eager
                // aggregation (group-by placement) collapses job_history
                // to one row per employee before the joins
                "SELECT d.department_name, COUNT(*) c, SUM(j.start_date) s, \
                        MAX(j.start_date) m \
                 FROM job_history j, employees e, departments d \
                 WHERE j.emp_id = e.emp_id AND e.dept_id = d.dept_id \
                   AND e.salary > {sal_cut} \
                 GROUP BY d.department_name"
            ),
            Family::Factorize => format!(
                "SELECT e.employee_name, d.department_name \
                 FROM employees e, departments d \
                 WHERE e.dept_id = d.dept_id AND e.salary > {sal_cut} \
                 UNION ALL \
                 SELECT j.job_title, d.department_name \
                 FROM job_history j, departments d WHERE j.dept_id = d.dept_id"
            ),
            Family::SetOp => {
                let op = if self.rng.gen_bool(0.5) {
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
            Family::Disjunction => {
                let id = self.rng.gen_range(0..200);
                format!(
                    "SELECT e.employee_name FROM employees e \
                     WHERE e.emp_id = {id} OR e.salary > {sal_cut}"
                )
            }
            Family::Pullup => {
                let units = self.rng.gen_range(50..400);
                format!(
                    "SELECT v.employee_name FROM \
                       (SELECT employee_name, salary FROM employees \
                        WHERE EXPENSIVE(salary, {units}) > {sal_cut} \
                        ORDER BY salary DESC) v \
                     WHERE rownum <= 20"
                )
            }
            Family::Star => {
                // job_history as the fact, employees and departments as
                // dimensions with independent selective filters — the
                // shape where the bushy tier can pre-reduce dimensions
                let k = self.rng.gen_range(0..4);
                format!(
                    "SELECT e.employee_name, d.department_name \
                     FROM job_history j, employees e, departments d \
                     WHERE j.emp_id = e.emp_id AND j.dept_id = d.dept_id \
                       AND e.salary > {sal_cut} AND d.loc_id = {k}"
                )
            }
            Family::Snowflake => format!(
                // fact → employees → departments → locations arm: the
                // selective filter sits at the far leaf, so a bushy plan
                // can reduce the arm before touching the fact table
                "SELECT COUNT(*) c FROM job_history j, employees e, departments d, locations l \
                 WHERE j.emp_id = e.emp_id AND e.dept_id = d.dept_id \
                   AND d.loc_id = l.loc_id AND l.country_id = '{country}' \
                   AND e.salary > {sal_cut}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let mut g1 = WorkloadGen::new(7);
        let mut g2 = WorkloadGen::new(7);
        let a = g1.generate(Family::Unnest, 2);
        let b = g2.generate(Family::Unnest, 2);
        assert_eq!(a[0].sql, b[0].sql);
        assert_eq!(a[0].traits_desc, b[0].traits_desc);
        assert_eq!(a[1].traits_desc, b[1].traits_desc);
    }

    #[test]
    fn every_family_produces_runnable_instances() {
        let mut g = WorkloadGen::new(3);
        g.scale = 0.1; // keep the test fast
        for &f in Family::all() {
            let mut inst = g.generate(f, 1).pop().unwrap();
            let r = inst
                .db
                .query(&inst.sql)
                .unwrap_or_else(|e| panic!("family {} failed: {e}\n{}", f.name(), inst.sql));
            // results must also be stable vs heuristic mode
            inst.db.config_mut().cost_based = false;
            let h = inst.db.query(&inst.sql).unwrap();
            assert_eq!(r.rows.len(), h.rows.len(), "family {}", f.name());
        }
    }

    #[test]
    fn mixed_workload_round_robins_families() {
        let mut g = WorkloadGen::new(1);
        g.scale = 0.05;
        let batch = g.generate_mixed(8);
        let fams: cbqt_common::hash::HashSet<&str> =
            batch.iter().map(|i| i.family.name()).collect();
        assert_eq!(fams.len(), 8);
    }
}
