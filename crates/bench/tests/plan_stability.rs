//! Plan stability of the join search at two window sizes.
//!
//! Every workload family is planned under the default
//! `bushy_max_items` (blocks of up to 10 items planned exactly) and
//! under `bushy_max_items = 0` (pairwise: windows of two), and the
//! EXPLAIN text plus the bit pattern of the estimated cost are
//! digested. The default column was generated before the join-costing
//! kernels were unified, so it pins that refactor's contract: same
//! plans, same costs, on semi / anti / outer / lateral blocks; the
//! pairwise column was regenerated when windows replaced the greedy
//! fallback. A change that is *meant* to move plans regenerates the
//! table from the failure output and says so in its description.

use cbqt::Database;
use cbqt_bench::{Family, WorkloadGen};

const SEED: u64 = 20_060_912;
const PER_FAMILY: usize = 6;

/// (label, bushy_max_items); `None` keeps the default.
const TIERS: [(&str, Option<usize>); 2] = [("default", None), ("pairwise", Some(0))];

/// Shapes no family generates: outer joins, and anti joins that are
/// certain to reach the final plan (planned with heuristic unnesting,
/// which unnests whenever it is legal).
const NON_INNER: [&str; 4] = [
    "SELECT e.employee_name, d.department_name FROM employees e \
     LEFT JOIN departments d ON e.dept_id = d.dept_id WHERE e.salary > 5000",
    "SELECT e.employee_name FROM employees e WHERE e.dept_id NOT IN \
     (SELECT j.dept_id FROM job_history j WHERE j.start_date > 19940000)",
    "SELECT e.employee_name FROM employees e WHERE e.salary > 2000 AND NOT EXISTS \
     (SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)",
    "SELECT e.employee_name, d.department_name FROM employees e \
     LEFT JOIN departments d ON e.dept_id = d.dept_id \
     WHERE EXISTS (SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)",
];

/// One row per `Family::all()` entry plus the `NON_INNER` row, one
/// column per `TIERS` entry.
const EXPECTED: [[u64; 2]; 11] = [
    [0x7f78769b11afa20a, 0x289363bd40d6a2dc], // unnest-agg
    [0x143db46a53ed478a, 0x6f1b0da69393c579], // unnest-exists
    [0x8f49f391d5e9db14, 0xd9e876b9d4051cad], // jppd-view
    [0xcd866350a2934ef8, 0xd89e13b80b586819], // gb-placement
    [0xa3d8eb85b8bfe1ca, 0x1c73864f4a92d891], // factorize
    [0xc930d8b9d6135386, 0xa89b24f17db158f3], // setop
    [0x597c794e0b013163, 0x5a2007211312e479], // or-expand
    [0x6a13f6ff74e567d9, 0x6a13f6ff74e567d9], // pred-pullup
    [0x87d268e1d400da0f, 0x510395d4c9fcc471], // star-join
    [0xec0f1d337501207c, 0x600d66ca5e030cea], // snowflake
    [0xaa1a9ab313b69f14, 0x61a74e58e3ac9773], // non-inner
];

struct Row {
    name: &'static str,
    digests: [u64; 2],
    texts: [String; 2],
}

impl Row {
    fn new(name: &'static str) -> Row {
        Row {
            name,
            digests: [0xcbf2_9ce4_8422_2325; 2], // FNV-1a offset basis
            texts: Default::default(),
        }
    }

    /// Plans and runs `sql` under every tier and folds the EXPLAIN text
    /// and the cost bits into the row.
    fn add(&mut self, db: &mut Database, sql: &str, cost_based: bool) {
        for (t, (_, bushy)) in TIERS.iter().enumerate() {
            *db.config_mut() = cbqt::OptimizerSettings::default();
            db.config_mut().cost_based = cost_based;
            if let Some(n) = bushy {
                db.config_mut().optimizer.bushy_max_items = *n;
            }
            let explain = db.explain(sql).expect("explain");
            let cost = db.query(sql).expect("query").stats.estimated_cost;
            let text = format!("-- {sql}\n{explain}\ncost bits {:#x}\n", cost.to_bits());
            for b in text.bytes() {
                self.digests[t] = (self.digests[t] ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            self.texts[t].push_str(&text);
        }
    }
}

#[test]
fn plans_and_costs_match_the_pre_refactor_digests() {
    let mut gen = WorkloadGen::new(SEED);
    gen.scale = 0.3;
    let mut rows = Vec::new();
    for &family in Family::all() {
        let mut row = Row::new(family.name());
        for mut inst in gen.generate(family, PER_FAMILY) {
            inst.db.set_plan_cache_enabled(false);
            row.add(&mut inst.db, &inst.sql, true);
        }
        rows.push(row);
    }
    let mut row = Row::new("non-inner");
    let mut inst = gen.generate(Family::Unnest, 1).pop().expect("one instance");
    inst.db.set_plan_cache_enabled(false);
    for sql in NON_INNER {
        row.add(&mut inst.db, sql, false);
    }
    rows.push(row);

    let actual: Vec<[u64; 2]> = rows.iter().map(|r| r.digests).collect();
    if actual != EXPECTED {
        for (row, expected) in rows.iter().zip(EXPECTED) {
            for (t, (tier, _)) in TIERS.iter().enumerate() {
                if row.digests[t] != expected[t] {
                    eprintln!("=== {} / {tier} moved ===\n{}", row.name, row.texts[t]);
                }
            }
        }
        eprintln!("const EXPECTED: [[u64; 2]; {}] = [", rows.len());
        for Row { name, digests, .. } in &rows {
            eprintln!(
                "    [{:#018x}, {:#018x}], // {name}",
                digests[0], digests[1]
            );
        }
        eprintln!("];");
        panic!("plans or costs moved (see the table above)");
    }
}
