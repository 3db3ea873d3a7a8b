//! Synthetic data generators.
//!
//! The experiment harness builds randomized database instances: table
//! sizes, value skew and foreign-key fan-out all vary per instance so
//! that transformation decisions genuinely depend on cost (the paper's
//! central premise).

use cbqt_common::{Row, Value};
use cbqt_testkit::Rng;

/// Generator for one column's values.
#[derive(Debug, Clone)]
pub enum ColumnGen {
    /// 0, 1, 2, ... (dense primary key).
    Serial,
    /// Uniform integer in `[lo, hi]`.
    UniformInt { lo: i64, hi: i64 },
    /// Zipf-skewed integer in `[0, n)`; `theta` near 0 is uniform, near 1
    /// is highly skewed. Used to create duplicate-heavy join columns
    /// (which the paper notes make semijoin caching attractive).
    Zipf { n: u64, theta: f64 },
    /// Uniform double in `[lo, hi)`.
    UniformDouble { lo: f64, hi: f64 },
    /// Picks uniformly from a fixed string list.
    Choice(Vec<&'static str>),
    /// A foreign key referencing serial keys `[0, parent_rows)`.
    Fk { parent_rows: u64 },
    /// Wraps another generator, replacing a fraction of values by NULL.
    Nullable {
        inner: Box<ColumnGen>,
        null_frac: f64,
    },
    /// Constant value.
    Const(Value),
}

impl ColumnGen {
    fn generate(&self, row: u64, rng: &mut Rng, zipf_cache: &mut Vec<f64>) -> Value {
        match self {
            ColumnGen::Serial => Value::Int(row as i64),
            ColumnGen::UniformInt { lo, hi } => Value::Int(rng.gen_range(*lo..=*hi)),
            ColumnGen::Zipf { n, theta } => {
                Value::Int(zipf_sample(*n, *theta, rng, zipf_cache) as i64)
            }
            ColumnGen::UniformDouble { lo, hi } => Value::Double(rng.gen_range(*lo..*hi)),
            ColumnGen::Choice(opts) => Value::str(opts[rng.gen_range(0..opts.len())]),
            ColumnGen::Fk { parent_rows } => {
                Value::Int(rng.gen_range(0..(*parent_rows).max(1)) as i64)
            }
            ColumnGen::Nullable { inner, null_frac } => {
                if rng.gen_bool(*null_frac) {
                    Value::Null
                } else {
                    inner.generate(row, rng, zipf_cache)
                }
            }
            ColumnGen::Const(v) => v.clone(),
        }
    }
}

/// Draws from a Zipf(θ) distribution over `[0, n)` using the standard
/// CDF-inversion over harmonic weights (cached per generator run).
fn zipf_sample(n: u64, theta: f64, rng: &mut Rng, cache: &mut Vec<f64>) -> u64 {
    let n = n.max(1) as usize;
    if cache.len() != n {
        cache.clear();
        let mut sum = 0.0;
        for i in 0..n {
            sum += 1.0 / ((i + 1) as f64).powf(theta);
            cache.push(sum);
        }
        let total = cache[n - 1];
        for v in cache.iter_mut() {
            *v /= total;
        }
    }
    let u: f64 = rng.gen_f64();
    match cache.binary_search_by(|p| p.total_cmp(&u)) {
        Ok(i) | Err(i) => i.min(n - 1) as u64,
    }
}

/// Deterministic row generator for a table.
#[derive(Debug, Clone)]
pub struct RowGenerator {
    pub rows: u64,
    pub columns: Vec<ColumnGen>,
    pub seed: u64,
}

impl RowGenerator {
    pub fn new(rows: u64, columns: Vec<ColumnGen>, seed: u64) -> RowGenerator {
        RowGenerator {
            rows,
            columns,
            seed,
        }
    }

    /// Generates all rows.
    pub fn generate(&self) -> Vec<Row> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut caches: Vec<Vec<f64>> = vec![Vec::new(); self.columns.len()];
        let mut out = Vec::with_capacity(self.rows as usize);
        for r in 0..self.rows {
            let row: Row = self
                .columns
                .iter()
                .zip(caches.iter_mut())
                .map(|(g, cache)| g.generate(r, &mut rng, cache))
                .collect();
            out.push(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_common::hash::HashMap;

    #[test]
    fn serial_is_dense() {
        let g = RowGenerator::new(5, vec![ColumnGen::Serial], 1);
        let rows = g.generate();
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4)
            ]
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let g1 = RowGenerator::new(100, vec![ColumnGen::UniformInt { lo: 0, hi: 1000 }], 42);
        let g2 = RowGenerator::new(100, vec![ColumnGen::UniformInt { lo: 0, hi: 1000 }], 42);
        assert_eq!(g1.generate(), g2.generate());
        let g3 = RowGenerator::new(100, vec![ColumnGen::UniformInt { lo: 0, hi: 1000 }], 43);
        assert_ne!(g1.generate(), g3.generate());
    }

    #[test]
    fn uniform_respects_bounds() {
        let g = RowGenerator::new(500, vec![ColumnGen::UniformInt { lo: 10, hi: 20 }], 7);
        for r in g.generate() {
            let v = r[0].as_i64().unwrap();
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let g = RowGenerator::new(5000, vec![ColumnGen::Zipf { n: 100, theta: 1.0 }], 3);
        let mut counts: HashMap<i64, usize> = HashMap::default();
        for r in g.generate() {
            *counts.entry(r[0].as_i64().unwrap()).or_default() += 1;
        }
        let c0 = counts.get(&0).copied().unwrap_or(0);
        let c50 = counts.get(&50).copied().unwrap_or(0);
        assert!(c0 > c50 * 5, "zipf head {c0} should dominate tail {c50}");
    }

    #[test]
    fn nullable_fraction_approximate() {
        let g = RowGenerator::new(
            2000,
            vec![ColumnGen::Nullable {
                inner: Box::new(ColumnGen::UniformInt { lo: 0, hi: 9 }),
                null_frac: 0.25,
            }],
            11,
        );
        let nulls = g.generate().iter().filter(|r| r[0].is_null()).count();
        assert!((400..600).contains(&nulls), "nulls={nulls}");
    }

    #[test]
    fn fk_within_parent_range() {
        let g = RowGenerator::new(300, vec![ColumnGen::Fk { parent_rows: 10 }], 5);
        for r in g.generate() {
            let v = r[0].as_i64().unwrap();
            assert!((0..10).contains(&v));
        }
    }

    #[test]
    fn choice_and_const() {
        let g = RowGenerator::new(
            50,
            vec![
                ColumnGen::Choice(vec!["US", "UK"]),
                ColumnGen::Const(Value::Int(9)),
            ],
            2,
        );
        for r in g.generate() {
            assert!(matches!(r[0].as_str(), Some("US") | Some("UK")));
            assert_eq!(r[1], Value::Int(9));
        }
    }
}
