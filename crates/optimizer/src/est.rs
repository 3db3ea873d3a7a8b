//! Cardinality and selectivity estimation.

use cbqt_catalog::{selectivity_band, Catalog, ColumnStats, FeedbackKey, TableId};
use cbqt_common::hash::HashMap;
use cbqt_common::Value;
use cbqt_qgm::{BinOp, QExpr, RefId, SubqKind};

/// Default row count assumed for tables without statistics (when dynamic
/// sampling is unavailable).
pub const DEFAULT_ROWS: f64 = 1000.0;
/// Default NDV as a fraction of row count for columns without stats.
pub const DEFAULT_NDV_FRAC: f64 = 0.1;
/// Default selectivity of a predicate we cannot analyze.
pub const DEFAULT_SEL: f64 = 0.25;
/// Default selectivity of an EXISTS / IN subquery filter.
pub const SUBQ_SEL: f64 = 0.5;
/// Default selectivity of a comparison against a scalar subquery.
pub const SCALAR_CMP_SEL: f64 = 0.33;

/// Source of observed scan cardinalities the estimator prefers over its
/// NDV/histogram guesses: the runtime side of the cardinality-feedback
/// loop.
pub trait CardFeedback {
    /// Observed output rows for the scan `key` describes, if an
    /// execution against the current table version recorded one.
    fn observed_rows(&self, key: &FeedbackKey) -> Option<f64>;
}

/// Clamps an observed cardinality to finite-and-nonnegative before it
/// may re-enter the cost model — the same hygiene
/// [`Estimator::selectivity`] applies. `None` means "unusable, keep the
/// static estimate" rather than a silent default.
pub fn clamp_feedback_rows(rows: f64) -> Option<f64> {
    (rows.is_finite() && rows >= 0.0).then_some(rows)
}

/// Builds the [`FeedbackKey`] identifying a base-table scan for
/// cardinality feedback, or `None` when the scan is not feedback-eligible.
///
/// Eligible filters are conjunctions of simple comparisons of the scan's
/// *own* columns against values (`Lit` or `Param`) plus non-negated
/// IN-lists of values — the shapes whose observed cardinality is a pure
/// property of (table, predicate, value bands) and therefore safe to
/// replay into a later compilation. Anything else (correlated columns,
/// subqueries, arithmetic) returns `None`: observing those would key on
/// an incomplete description and poison unrelated scans.
///
/// `params` resolves `Param` slots to the *runtime* bind values when the
/// caller has them (the record side); an empty slice falls back to each
/// param's compile-time peek (the estimate side). Both sides band the
/// values through [`selectivity_band`], so an estimate-side probe under
/// one bind bucket can only see actuals recorded under that bucket —
/// sibling bind-sharing variants never share entries.
///
/// The rendered predicate masks values (`c1=?`) and sorts conjuncts, so
/// conjunct order and literal spelling never split entries.
pub fn scan_feedback_key(
    catalog: &Catalog,
    table: TableId,
    refid: RefId,
    preds: &[QExpr],
    params: &[Value],
) -> Option<FeedbackKey> {
    Some(FeedbackShape::of(table, refid, preds)?.key(catalog, params))
}

/// The half of a scan's [`FeedbackKey`] that no bind value moves: the
/// masked, sorted predicate text, and what each conjunct's band is read
/// from. A plan derives it once per scan; each execution then only
/// bands its values ([`FeedbackShape::key`]).
#[derive(Debug, Clone)]
pub struct FeedbackShape {
    table: TableId,
    pred: String,
    /// In predicate-text order.
    conjuncts: Vec<Conjunct>,
}

#[derive(Debug, Clone)]
struct Conjunct {
    /// Position of the conjunct's mask among the distinct masks, sorted.
    rank: u32,
    column: usize,
    test: Test,
}

#[derive(Debug, Clone)]
enum Test {
    Eq(Operand),
    Range {
        lt: bool,
        inclusive: bool,
        bound: Operand,
    },
    InList(Vec<Operand>),
}

/// The value side of a conjunct: a literal, or a bind slot with the
/// peek its plan was compiled under.
#[derive(Debug, Clone)]
enum Operand {
    Lit(Value),
    Param { slot: usize, peek: Value },
}

impl Operand {
    fn of(e: &QExpr) -> Option<Operand> {
        match e {
            QExpr::Lit(v) => Some(Operand::Lit(v.clone())),
            QExpr::Param { slot, peek } => Some(Operand::Param {
                slot: *slot,
                peek: peek.clone(),
            }),
            _ => None,
        }
    }

    fn value<'v>(&'v self, params: &'v [Value]) -> &'v Value {
        match self {
            Operand::Lit(v) => v,
            Operand::Param { slot, peek } => params.get(*slot).unwrap_or(peek),
        }
    }
}

impl FeedbackShape {
    /// The shape of the key of a scan of `table` as `refid` under the
    /// conjuncts `preds`, or `None` when the scan is not
    /// feedback-eligible (see [`scan_feedback_key`]).
    pub fn of(table: TableId, refid: RefId, preds: &[QExpr]) -> Option<FeedbackShape> {
        let mut masked: Vec<(String, usize, Test)> = Vec::with_capacity(preds.len());
        for c in preds {
            match c {
                QExpr::Bin { op, left, right } => {
                    // normalize to col-op-value with the column on the left
                    let (column, value, op) = match (&**left, &**right) {
                        (QExpr::Col { table: t, column }, v) if *t == refid => (*column, v, *op),
                        (v, QExpr::Col { table: t, column }) if *t == refid => {
                            let flipped = match op {
                                BinOp::Eq => BinOp::Eq,
                                BinOp::Lt => BinOp::Gt,
                                BinOp::LtEq => BinOp::GtEq,
                                BinOp::Gt => BinOp::Lt,
                                BinOp::GtEq => BinOp::LtEq,
                                _ => return None,
                            };
                            (*column, v, flipped)
                        }
                        _ => return None,
                    };
                    let bound = Operand::of(value)?;
                    let (sym, test) = match op {
                        BinOp::Eq => ("=", Test::Eq(bound)),
                        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                            let lt = matches!(op, BinOp::Lt | BinOp::LtEq);
                            let inclusive = matches!(op, BinOp::LtEq | BinOp::GtEq);
                            let sym = match op {
                                BinOp::Lt => "<",
                                BinOp::LtEq => "<=",
                                BinOp::Gt => ">",
                                _ => ">=",
                            };
                            let test = Test::Range {
                                lt,
                                inclusive,
                                bound,
                            };
                            (sym, test)
                        }
                        _ => return None,
                    };
                    masked.push((format!("c{column}{sym}?"), column, test));
                }
                QExpr::InList {
                    expr,
                    list,
                    negated: false,
                } => {
                    let QExpr::Col { table: t, column } = &**expr else {
                        return None;
                    };
                    if *t != refid {
                        return None;
                    }
                    let items = list.iter().map(Operand::of).collect::<Option<Vec<_>>>()?;
                    let mask = format!("c{column} IN({})?", list.len());
                    masked.push((mask, *column, Test::InList(items)));
                }
                _ => return None,
            }
        }
        masked.sort_by(|a, b| a.0.cmp(&b.0));
        let mut pred = String::new();
        let mut conjuncts = Vec::with_capacity(masked.len());
        let (mut rank, mut last) = (0, None);
        for (mask, column, test) in masked {
            if let Some(last) = &last {
                pred.push_str(" AND ");
                if *last != mask {
                    rank += 1;
                }
            }
            pred.push_str(&mask);
            conjuncts.push(Conjunct { rank, column, test });
            last = Some(mask);
        }
        Some(FeedbackShape {
            table,
            pred,
            conjuncts,
        })
    }

    /// The key of a scan with bind values `params` (an empty slice reads
    /// every slot's peek).
    pub fn key(&self, catalog: &Catalog, params: &[Value]) -> FeedbackKey {
        let stats = catalog
            .table(self.table)
            .ok()
            .map(|t| &t.stats)
            .filter(|ts| ts.analyzed);
        // unanalyzed tables put every value into one band, exactly like
        // adaptive cursor sharing's bucket_sig
        let column = |c: usize| stats.and_then(|ts| Some((ts.rows, ts.column(c)?)));
        let band = |c: &Conjunct| match &c.test {
            Test::Eq(bound) => column(c.column).map_or(0, |(rows, cs)| {
                selectivity_band(cs.eq_selectivity(rows, Some(bound.value(params))))
            }),
            Test::Range {
                lt,
                inclusive,
                bound,
            } => column(c.column).map_or(0, |(_, cs)| {
                selectivity_band(cs.range_selectivity(bound.value(params), *lt, *inclusive))
            }),
            Test::InList(items) => column(c.column).map_or(0, |(rows, cs)| {
                let sel: f64 = items
                    .iter()
                    .map(|v| cs.eq_selectivity(rows, Some(v.value(params))))
                    .sum();
                selectivity_band(sel.clamp(0.0, 1.0))
            }),
        };
        let mut bands: Vec<i8> = self.conjuncts.iter().map(band).collect();
        // conjuncts of one mask order by band, as sorting (mask, band)
        // pairs would
        let mut start = 0;
        for i in 1..=bands.len() {
            if i == bands.len() || self.conjuncts[i].rank != self.conjuncts[start].rank {
                bands[start..i].sort_unstable();
                start = i;
            }
        }
        FeedbackKey {
            table: self.table,
            pred: self.pred.clone(),
            bands,
        }
    }
}

/// Statistics for one relation (base table reference or view output)
/// as seen by the estimator.
#[derive(Debug, Clone)]
pub struct RelStats {
    pub rows: f64,
    /// Per-column NDV (for base tables the last entry is the ROWID).
    pub ndv: Vec<f64>,
}

impl RelStats {
    pub fn ndv_of(&self, col: usize) -> f64 {
        self.ndv
            .get(col)
            .copied()
            .unwrap_or(self.rows * DEFAULT_NDV_FRAC)
            .max(1.0)
    }
}

/// Information the estimator can recover about one column reference.
#[derive(Debug, Clone, Copy)]
pub struct ColInfo<'a> {
    pub ndv: f64,
    pub rows: f64,
    pub stats: Option<&'a ColumnStats>,
}

/// Estimator over a set of in-scope relations.
///
/// `rels` maps every table reference that is *local* to the join being
/// estimated; references not present (correlated outer columns) are
/// treated as bound scalars.
pub struct Estimator<'a> {
    pub catalog: &'a Catalog,
    pub rels: &'a HashMap<RefId, RelStats>,
    /// Base-table identity for refs that scan catalog tables, to recover
    /// full `ColumnStats` (histograms etc.).
    pub base: &'a HashMap<RefId, cbqt_catalog::TableId>,
}

impl<'a> Estimator<'a> {
    pub fn col_info(&self, refid: RefId, col: usize) -> Option<ColInfo<'a>> {
        let rel = self.rels.get(&refid)?;
        let stats = self.base.get(&refid).and_then(|tid| {
            let t = self.catalog.table(*tid).ok()?;
            if t.stats.analyzed {
                t.stats.column(col)
            } else {
                None
            }
        });
        Some(ColInfo {
            ndv: rel.ndv_of(col),
            rows: rel.rows,
            stats,
        })
    }

    fn expr_col(&self, e: &QExpr) -> Option<(RefId, usize)> {
        match e {
            QExpr::Col { table, column } => Some((*table, *column)),
            _ => None,
        }
    }

    /// Whether an expression is "bound" at evaluation time: constant or
    /// referencing only out-of-scope (outer) tables.
    pub fn is_bound(&self, e: &QExpr) -> bool {
        if e.contains_subquery() {
            return false;
        }
        e.referenced_tables()
            .iter()
            .all(|r| !self.rels.contains_key(r))
    }

    fn literal_of<'b>(&self, e: &'b QExpr) -> Option<&'b Value> {
        match e {
            QExpr::Lit(v) => Some(v),
            // Bind peeking: cost the site with the value the statement
            // was compiled with (adaptive cursor sharing re-buckets
            // later executions against the cached plan's profile).
            QExpr::Param { peek, .. } => Some(peek),
            _ => None,
        }
    }

    /// Selectivity of a single conjunct over the in-scope relations.
    ///
    /// The result is always finite and in `[0, 1]`: degenerate
    /// statistics (zero-NDV columns, zero-row tables, collapsed
    /// min==max ranges) can drive the underlying math to NaN or ±∞, and
    /// a non-finite selectivity would poison every cost downstream.
    pub fn selectivity(&self, e: &QExpr) -> f64 {
        let s = self.selectivity_raw(e);
        if s.is_finite() {
            s.clamp(0.0, 1.0)
        } else {
            DEFAULT_SEL
        }
    }

    fn selectivity_raw(&self, e: &QExpr) -> f64 {
        match e {
            QExpr::Bin {
                op: BinOp::And,
                left,
                right,
            } => self.selectivity(left) * self.selectivity(right),
            QExpr::Bin {
                op: BinOp::Or,
                left,
                right,
            } => {
                let (a, b) = (self.selectivity(left), self.selectivity(right));
                (a + b - a * b).clamp(0.0, 1.0)
            }
            QExpr::Bin { op, left, right } if op.is_comparison() => {
                self.comparison_sel(*op, left, right)
            }
            QExpr::Not(inner) => (1.0 - self.selectivity(inner)).clamp(0.01, 1.0),
            QExpr::IsNull { expr, negated } => {
                let s = match self.expr_col(expr).and_then(|(r, c)| self.col_info(r, c)) {
                    Some(ci) => match ci.stats {
                        Some(cs) if ci.rows > 0.0 => (cs.nulls as f64 / ci.rows).clamp(0.0, 1.0),
                        _ => 0.05,
                    },
                    None => 0.05,
                };
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            QExpr::InList {
                expr,
                list,
                negated,
            } => {
                let eq = self.eq_sel_for(expr, None);
                let s = (eq * list.len() as f64).clamp(0.0, 1.0);
                if *negated {
                    (1.0 - s).max(0.01)
                } else {
                    s.max(0.001)
                }
            }
            QExpr::Like { negated, .. } => {
                if *negated {
                    0.9
                } else {
                    0.1
                }
            }
            QExpr::Subq { kind, .. } => match kind {
                SubqKind::Exists { .. } | SubqKind::In { .. } => SUBQ_SEL,
                SubqKind::Quant { .. } => SUBQ_SEL,
                SubqKind::Scalar => SCALAR_CMP_SEL,
            },
            QExpr::Bin { left, right, .. } => {
                // non-comparison binary (arith) used as predicate: unknown
                let _ = (left, right);
                DEFAULT_SEL
            }
            QExpr::Lit(Value::Bool(true)) => 1.0,
            QExpr::Lit(Value::Bool(false)) => 0.0,
            _ => DEFAULT_SEL,
        }
    }

    fn comparison_sel(&self, op: BinOp, left: &QExpr, right: &QExpr) -> f64 {
        // scalar-subquery comparisons get the classic default
        if left.contains_subquery() || right.contains_subquery() {
            return SCALAR_CMP_SEL;
        }
        let lcol = self
            .expr_col(left)
            .and_then(|(r, c)| self.col_info(r, c).map(|i| (r, c, i)));
        let rcol = self
            .expr_col(right)
            .and_then(|(r, c)| self.col_info(r, c).map(|i| (r, c, i)));
        match op {
            BinOp::Eq => match (&lcol, &rcol) {
                (Some((_, _, li)), Some((_, _, ri))) => 1.0 / li.ndv.max(ri.ndv),
                (Some((_, _, li)), None) if self.is_bound(right) => {
                    self.eq_with_stats(li, self.literal_of(right))
                }
                (None, Some((_, _, ri))) if self.is_bound(left) => {
                    self.eq_with_stats(ri, self.literal_of(left))
                }
                (Some((_, _, li)), None) => 1.0 / li.ndv,
                (None, Some((_, _, ri))) => 1.0 / ri.ndv,
                _ => DEFAULT_SEL,
            },
            BinOp::NotEq => {
                let eq = self.comparison_sel(BinOp::Eq, left, right);
                (1.0 - eq).max(0.01)
            }
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                // range predicate against a bound value
                if let (Some((_, _, ci)), true) = (&lcol, self.is_bound(right)) {
                    if let (Some(cs), Some(v)) = (ci.stats, self.literal_of(right)) {
                        let lt = matches!(op, BinOp::Lt | BinOp::LtEq);
                        return cs
                            .range_selectivity(v, lt, matches!(op, BinOp::LtEq | BinOp::GtEq))
                            .clamp(0.0001, 1.0);
                    }
                    return 0.33;
                }
                if let (Some((_, _, ci)), true) = (&rcol, self.is_bound(left)) {
                    if let (Some(cs), Some(v)) = (ci.stats, self.literal_of(left)) {
                        // v < col  ==  col > v
                        let lt = matches!(op, BinOp::Gt | BinOp::GtEq);
                        return cs
                            .range_selectivity(v, lt, matches!(op, BinOp::LtEq | BinOp::GtEq))
                            .clamp(0.0001, 1.0);
                    }
                    return 0.33;
                }
                0.33
            }
            _ => DEFAULT_SEL,
        }
    }

    fn eq_with_stats(&self, ci: &ColInfo<'_>, lit: Option<&Value>) -> f64 {
        match ci.stats {
            Some(cs) => cs
                .eq_selectivity(ci.rows.max(1.0) as u64, lit)
                .clamp(0.000001, 1.0),
            None => (1.0 / ci.ndv).clamp(0.000001, 1.0),
        }
    }

    /// Equality selectivity against an expression (for IN-list sizing).
    fn eq_sel_for(&self, e: &QExpr, lit: Option<&Value>) -> f64 {
        match self.expr_col(e).and_then(|(r, c)| self.col_info(r, c)) {
            Some(ci) => self.eq_with_stats(&ci, lit),
            None => 0.05,
        }
    }

    /// Estimated number of groups for a set of grouping expressions over
    /// `input_rows`.
    pub fn group_count(&self, keys: &[QExpr], input_rows: f64) -> f64 {
        if keys.is_empty() {
            return 1.0;
        }
        let mut prod = 1.0_f64;
        for k in keys {
            let ndv = match self.expr_col(k).and_then(|(r, c)| self.col_info(r, c)) {
                Some(ci) => ci.ndv,
                None => (input_rows * DEFAULT_NDV_FRAC).max(1.0),
            };
            prod *= ndv;
            if prod > input_rows {
                return input_rows.max(1.0);
            }
        }
        prod.min(input_rows).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_catalog::{Column, Constraint};
    use cbqt_common::DataType;

    fn setup() -> (
        Catalog,
        HashMap<RefId, RelStats>,
        HashMap<RefId, cbqt_catalog::TableId>,
    ) {
        let mut cat = Catalog::new();
        let icol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Int,
            not_null: false,
        };
        let t = cat
            .add_table(
                "t",
                vec![icol("a"), icol("b")],
                vec![Constraint::PrimaryKey(vec![0])],
            )
            .unwrap();
        // fake analyzed stats
        {
            let tbl = cat.table_mut(t).unwrap();
            tbl.stats.analyzed = true;
            tbl.stats.rows = 1000;
            tbl.stats.columns = vec![
                ColumnStats {
                    ndv: 1000,
                    nulls: 0,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(999)),
                    histogram: None,
                },
                ColumnStats {
                    ndv: 10,
                    nulls: 100,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(9)),
                    histogram: None,
                },
            ];
        }
        let mut rels = HashMap::default();
        rels.insert(
            RefId(0),
            RelStats {
                rows: 1000.0,
                ndv: vec![1000.0, 10.0, 1000.0],
            },
        );
        let mut base = HashMap::default();
        base.insert(RefId(0), t);
        (cat, rels, base)
    }

    #[test]
    fn eq_literal_uses_ndv() {
        let (cat, rels, base) = setup();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let e = QExpr::eq(QExpr::col(RefId(0), 1), QExpr::lit(3i64));
        let s = est.selectivity(&e);
        // ndv 10, 10% nulls -> 0.09
        assert!((s - 0.09).abs() < 0.001, "{s}");
    }

    #[test]
    fn col_col_eq_uses_larger_ndv() {
        let (cat, mut rels, base) = setup();
        rels.insert(
            RefId(1),
            RelStats {
                rows: 100.0,
                ndv: vec![50.0],
            },
        );
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let e = QExpr::eq(QExpr::col(RefId(0), 0), QExpr::col(RefId(1), 0));
        assert!((est.selectivity(&e) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn range_interpolation() {
        let (cat, rels, base) = setup();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let e = QExpr::bin(BinOp::Lt, QExpr::col(RefId(0), 0), QExpr::lit(500i64));
        let s = est.selectivity(&e);
        assert!((s - 0.5).abs() < 0.05, "{s}");
        // reversed: 500 < a  ==  a > 500
        let e = QExpr::bin(BinOp::Lt, QExpr::lit(500i64), QExpr::col(RefId(0), 0));
        let s = est.selectivity(&e);
        assert!((s - 0.5).abs() < 0.05, "{s}");
    }

    #[test]
    fn correlated_eq_is_bound() {
        let (cat, rels, base) = setup();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        // RefId(7) is not local — treated as a bound outer scalar
        let outer = QExpr::col(RefId(7), 0);
        assert!(est.is_bound(&outer));
        let e = QExpr::eq(QExpr::col(RefId(0), 1), outer);
        let s = est.selectivity(&e);
        assert!(s > 0.0 && s < 0.2, "{s}");
    }

    #[test]
    fn and_or_combine() {
        let (cat, rels, base) = setup();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let p = QExpr::eq(QExpr::col(RefId(0), 1), QExpr::lit(3i64));
        let and = QExpr::bin(BinOp::And, p.clone(), p.clone());
        assert!(est.selectivity(&and) < est.selectivity(&p));
        let or = QExpr::bin(BinOp::Or, p.clone(), p.clone());
        assert!(est.selectivity(&or) > est.selectivity(&p));
    }

    #[test]
    fn group_count_capped_by_rows() {
        let (cat, rels, base) = setup();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let g = est.group_count(&[QExpr::col(RefId(0), 1)], 1000.0);
        assert!((g - 10.0).abs() < 1e-9);
        let g2 = est.group_count(&[QExpr::col(RefId(0), 0), QExpr::col(RefId(0), 1)], 500.0);
        assert!((g2 - 500.0).abs() < 1e-9);
        assert!((est.group_count(&[], 500.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn subquery_defaults() {
        let (cat, rels, base) = setup();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let e = QExpr::Subq {
            block: cbqt_qgm::BlockId(5),
            kind: SubqKind::Exists { negated: false },
        };
        assert_eq!(est.selectivity(&e), SUBQ_SEL);
    }

    #[test]
    fn degenerate_stats_yield_finite_selectivity() {
        // zero rows, zero NDV, collapsed min==max: every predicate must
        // still get a finite selectivity in [0, 1]
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "empty",
                vec![Column {
                    name: "a".into(),
                    data_type: DataType::Int,
                    not_null: false,
                }],
                vec![],
            )
            .unwrap();
        {
            let tbl = cat.table_mut(t).unwrap();
            tbl.stats.analyzed = true;
            tbl.stats.rows = 0;
            tbl.stats.columns = vec![ColumnStats {
                ndv: 0,
                nulls: 0,
                min: Some(Value::Int(5)),
                max: Some(Value::Int(5)),
                histogram: None,
            }];
        }
        let mut rels = HashMap::default();
        rels.insert(
            RefId(0),
            RelStats {
                rows: 0.0,
                ndv: vec![0.0],
            },
        );
        let mut base = HashMap::default();
        base.insert(RefId(0), t);
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let col = || QExpr::col(RefId(0), 0);
        for e in [
            QExpr::eq(col(), QExpr::lit(5i64)),
            QExpr::bin(BinOp::NotEq, col(), QExpr::lit(5i64)),
            QExpr::bin(BinOp::Lt, col(), QExpr::lit(5i64)),
            QExpr::bin(BinOp::GtEq, col(), QExpr::lit(5i64)),
            QExpr::eq(col(), col()),
            QExpr::Not(Box::new(QExpr::eq(col(), QExpr::lit(5i64)))),
        ] {
            let s = est.selectivity(&e);
            assert!(s.is_finite() && (0.0..=1.0).contains(&s), "{e:?} -> {s}");
        }
    }

    #[test]
    fn feedback_key_masks_sorts_and_bands() {
        let (cat, _, base) = setup();
        let t = base[&RefId(0)];
        // b = 3 AND a < 500, given in the opposite order and with the
        // column on either side
        let preds = [
            QExpr::bin(BinOp::Gt, QExpr::lit(500i64), QExpr::col(RefId(0), 0)),
            QExpr::eq(QExpr::lit(3i64), QExpr::col(RefId(0), 1)),
        ];
        let k = scan_feedback_key(&cat, t, RefId(0), &preds, &[]).unwrap();
        assert_eq!(k.pred, "c0<? AND c1=?");
        // a < 500 over [0,999] ~ 0.5 -> band 0; b = 3 with ndv 10 and 10%
        // nulls ~ 0.09 -> band -1
        assert_eq!(k.bands, vec![0, -1]);
        // same predicates in canonical order produce the identical key
        let preds2 = [
            QExpr::eq(QExpr::col(RefId(0), 1), QExpr::lit(3i64)),
            QExpr::bin(BinOp::Lt, QExpr::col(RefId(0), 0), QExpr::lit(500i64)),
        ];
        assert_eq!(
            scan_feedback_key(&cat, t, RefId(0), &preds2, &[]).unwrap(),
            k
        );
    }

    #[test]
    fn feedback_key_orders_conjuncts_of_one_mask_by_band() {
        let (cat, _, base) = setup();
        let t = base[&RefId(0)];
        // a > 10 (~0.99, band 0) and a > 990 (~0.01, band -2): one mask
        let wide = QExpr::bin(BinOp::Gt, QExpr::col(RefId(0), 0), QExpr::lit(10i64));
        let narrow = QExpr::bin(BinOp::Gt, QExpr::col(RefId(0), 0), QExpr::lit(990i64));
        let b = QExpr::eq(QExpr::col(RefId(0), 1), QExpr::lit(3i64));
        let k = scan_feedback_key(
            &cat,
            t,
            RefId(0),
            &[wide.clone(), b.clone(), narrow.clone()],
            &[],
        )
        .unwrap();
        assert_eq!(k.pred, "c0>? AND c0>? AND c1=?");
        let mut sorted = k.bands[..2].to_vec();
        sorted.sort();
        assert_eq!(k.bands[..2], sorted[..], "{:?}", k.bands);
        assert_ne!(k.bands[0], k.bands[1]);
        // conjunct order never splits the key
        let flipped = scan_feedback_key(&cat, t, RefId(0), &[narrow, b, wide], &[]).unwrap();
        assert_eq!(flipped, k);
    }

    #[test]
    fn feedback_key_resolves_params_against_runtime_binds() {
        let (cat, _, base) = setup();
        let t = base[&RefId(0)];
        let pred = [QExpr::eq(
            QExpr::col(RefId(0), 0),
            QExpr::Param {
                slot: 0,
                peek: Value::Int(7),
            },
        )];
        let compile = scan_feedback_key(&cat, t, RefId(0), &pred, &[]).unwrap();
        // the runtime bind matches the peek: identical key
        let run = scan_feedback_key(&cat, t, RefId(0), &pred, &[Value::Int(7)]).unwrap();
        assert_eq!(compile, run);
        // predicate text never depends on the value, only bands may
        let other = scan_feedback_key(&cat, t, RefId(0), &pred, &[Value::Int(9)]).unwrap();
        assert_eq!(other.pred, compile.pred);
    }

    #[test]
    fn feedback_key_rejects_ineligible_filters() {
        let (cat, _, base) = setup();
        let t = base[&RefId(0)];
        // correlated column on the value side
        let corr = [QExpr::eq(QExpr::col(RefId(0), 0), QExpr::col(RefId(7), 0))];
        assert!(scan_feedback_key(&cat, t, RefId(0), &corr, &[]).is_none());
        // negated IN-list
        let notin = [QExpr::InList {
            expr: Box::new(QExpr::col(RefId(0), 0)),
            list: vec![QExpr::lit(1i64)],
            negated: true,
        }];
        assert!(scan_feedback_key(&cat, t, RefId(0), &notin, &[]).is_none());
        // one eligible + one ineligible conjunct rejects the whole scan
        let mixed = [
            QExpr::eq(QExpr::col(RefId(0), 0), QExpr::lit(1i64)),
            QExpr::bin(BinOp::NotEq, QExpr::col(RefId(0), 1), QExpr::lit(2i64)),
        ];
        assert!(scan_feedback_key(&cat, t, RefId(0), &mixed, &[]).is_none());
        // the empty filter is eligible: full-scan cardinality
        let k = scan_feedback_key(&cat, t, RefId(0), &[], &[]).unwrap();
        assert_eq!(k.pred, "");
        assert!(k.bands.is_empty());
    }

    #[test]
    fn clamp_feedback_rows_mirrors_selectivity_hygiene() {
        assert_eq!(clamp_feedback_rows(50.0), Some(50.0));
        assert_eq!(clamp_feedback_rows(0.0), Some(0.0));
        assert_eq!(clamp_feedback_rows(-1.0), None);
        assert_eq!(clamp_feedback_rows(f64::NAN), None);
        assert_eq!(clamp_feedback_rows(f64::INFINITY), None);
    }
}
