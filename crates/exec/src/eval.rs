//! Expression evaluation over executor rows, with outer-binding frames
//! for correlation and slot-mapped aggregate / window values.

use crate::batch::Batch;
use crate::column::{Column, Ints};
use crate::engine::Engine;
use cbqt_common::hash::{HashMap, HashSet};
use cbqt_common::{Error, Result, Row, Truth, Value};
use cbqt_optimizer::{weights, Layout, PlanNodeId, SelectPlan};
use cbqt_qgm::{BinOp, QExpr, Quant, SubqKind, WinFunc};
use std::borrow::Cow;

/// One level of bindings: the layout of a row plus the row itself.
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    pub(crate) layout: &'a Layout,
    pub(crate) row: FrameRow<'a>,
}

/// The row a [`Frame`] binds: a row, or a row of a batch read in place
/// (the batch engine binds a join's left row without assembling it).
#[derive(Clone, Copy)]
pub(crate) enum FrameRow<'a> {
    Row(&'a [Value]),
    Batch(&'a Batch, usize),
}

impl<'a> Frame<'a> {
    /// Column `j` of the bound row. A batch column the block pruned is
    /// never read: whatever binds a batch row keeps the columns read
    /// through it live.
    #[inline]
    pub(crate) fn value(&self, j: usize) -> Cow<'a, Value> {
        match self.row {
            FrameRow::Row(row) => Cow::Borrowed(&row[j]),
            FrameRow::Batch(b, i) => b.cols[j].get(i),
        }
    }
}

/// Stack of binding frames, innermost last.
#[derive(Clone, Default)]
pub struct Bindings<'a> {
    pub(crate) frames: Vec<Frame<'a>>,
}

impl<'a> Bindings<'a> {
    pub fn push(&self, layout: &'a Layout, row: &'a [Value]) -> Bindings<'a> {
        self.push_frame(layout, FrameRow::Row(row))
    }

    /// These bindings with `row` of `layout` innermost.
    pub(crate) fn push_frame(&self, layout: &'a Layout, row: FrameRow<'a>) -> Bindings<'a> {
        let mut b = Bindings {
            frames: Vec::with_capacity(self.frames.len() + 1),
        };
        b.frames.extend_from_slice(&self.frames);
        b.frames.push(Frame { layout, row });
        b
    }

    /// Rebinds the innermost frame to `row` of the same layout: a join
    /// moves its binding from one left row to the next in place.
    pub(crate) fn rebind(&mut self, row: FrameRow<'a>) {
        if let Some(f) = self.frames.last_mut() {
            f.row = row;
        }
    }

    /// Column `col` of the innermost frame that binds `refid`, with the
    /// row engine's errors for a column out of range and an unbound
    /// reference.
    pub(crate) fn value(&self, refid: cbqt_qgm::RefId, col: usize) -> Result<Cow<'a, Value>> {
        for f in self.frames.iter().rev() {
            if let Some((off, w)) = f.layout.offset_of(refid) {
                if col < w {
                    return Ok(f.value(off + col));
                }
                return Err(Error::execution(format!(
                    "column {col} out of range for outer r{}",
                    refid.0
                )));
            }
        }
        Err(Error::execution(format!(
            "unbound table reference r{}",
            refid.0
        )))
    }
}

/// Evaluation context for one block's rows.
#[derive(Clone)]
pub struct EvalCtx<'a> {
    pub engine: &'a Engine<'a>,
    pub layout: &'a Layout,
    /// Aggregate expressions whose values sit at `agg_base + i`.
    pub aggs: &'a [QExpr],
    pub agg_base: usize,
    /// Window expressions whose values sit at `win_base + i`.
    pub windows: &'a [QExpr],
    pub win_base: usize,
    /// Plans for subquery blocks referenced by expressions.
    pub subplans: &'a [(cbqt_qgm::BlockId, std::sync::Arc<cbqt_optimizer::BlockPlan>)],
    /// Position of the first of `subplans` in the plan walk; the others
    /// follow it in order.
    pub subplans_at: PlanNodeId,
    /// Outer binding frames (for correlated evaluation).
    pub outer: Bindings<'a>,
}

impl<'a> EvalCtx<'a> {
    /// The context of the post-join pipeline of the select block at
    /// position `id`: its aggregate, window and subquery slots.
    pub(crate) fn of_select(
        engine: &'a Engine<'a>,
        sp: &'a SelectPlan,
        id: PlanNodeId,
        binds: &Bindings<'a>,
    ) -> EvalCtx<'a> {
        EvalCtx {
            engine,
            layout: &sp.layout,
            aggs: &sp.aggs,
            agg_base: sp.layout.width,
            windows: &sp.windows,
            win_base: sp.layout.width + sp.aggs.len(),
            subplans: &sp.subplans,
            // the join tree comes first
            subplans_at: engine.after(id.first_child()),
            outer: binds.clone(),
        }
    }

    /// Resolves a column reference against the local row, then the outer
    /// frames from innermost to outermost.
    fn resolve_col(&self, refid: cbqt_qgm::RefId, col: usize, row: &[Value]) -> Result<Value> {
        if let Some((off, w)) = self.layout.offset_of(refid) {
            if col < w {
                return Ok(row[off + col].clone());
            }
            return Err(Error::execution(format!(
                "column {col} out of range for r{}",
                refid.0
            )));
        }
        self.outer.value(refid, col).map(Cow::into_owned)
    }

    /// Evaluates an expression to a value (`NULL` represents UNKNOWN for
    /// boolean expressions).
    pub fn eval(&self, e: &QExpr, row: &[Value]) -> Result<Value> {
        match e {
            QExpr::Col { table, column } => self.resolve_col(*table, *column, row),
            QExpr::Lit(v) => Ok(v.clone()),
            QExpr::Param { slot, peek } => Ok(self.engine.param(*slot, peek).clone()),
            QExpr::Bin { op, left, right } => self.eval_binary(*op, left, right, row),
            QExpr::Not(x) => Ok(truth_value(self.eval_truth(x, row)?.not())),
            QExpr::Neg(x) => {
                let v = self.eval(x, row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Double(d) => Ok(Value::Double(-d)),
                    other => Err(Error::execution(format!("cannot negate {other}"))),
                }
            }
            QExpr::IsNull { expr, negated } => {
                let v = self.eval(expr, row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            QExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval(expr, row)?;
                let mut unknown = false;
                let mut found = false;
                for item in list {
                    let iv = self.eval(item, row)?;
                    match v.sql_eq(&iv) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => unknown = true,
                    }
                }
                let t = if found {
                    Truth::True
                } else if unknown {
                    Truth::Unknown
                } else {
                    Truth::False
                };
                Ok(truth_value(if *negated { t.not() } else { t }))
            }
            QExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(expr, row)?;
                let p = self.eval(pattern, row)?;
                match (v.as_str(), p.as_str()) {
                    (Some(s), Some(pat)) => {
                        let m = like_match(s, pat);
                        Ok(Value::Bool(m != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            QExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                for (w, t) in branches {
                    let fire = match operand {
                        Some(op) => {
                            let ov = self.eval(op, row)?;
                            let wv = self.eval(w, row)?;
                            ov.sql_eq(&wv) == Some(true)
                        }
                        None => self.eval_truth(w, row)?.passes(),
                    };
                    if fire {
                        return self.eval(t, row);
                    }
                }
                match else_expr {
                    Some(x) => self.eval(x, row),
                    None => Ok(Value::Null),
                }
            }
            QExpr::Func { name, args } => self.eval_func(name, args, row),
            QExpr::Agg { .. } => match self.aggs.iter().position(|a| a == e) {
                Some(i) => Ok(row
                    .get(self.agg_base + i)
                    .cloned()
                    .ok_or_else(|| Error::execution("aggregate slot out of range"))?),
                None => Err(Error::execution(
                    "aggregate used outside aggregation context",
                )),
            },
            QExpr::Win { .. } => match self.windows.iter().position(|w| w == e) {
                Some(i) => Ok(row
                    .get(self.win_base + i)
                    .cloned()
                    .ok_or_else(|| Error::execution("window slot out of range"))?),
                None => Err(Error::execution("window function not computed")),
            },
            QExpr::Subq { block, kind } => self.eval_subquery(*block, kind, row),
        }
    }

    /// Evaluates an expression as a three-valued truth.
    pub fn eval_truth(&self, e: &QExpr, row: &[Value]) -> Result<Truth> {
        match e {
            QExpr::Bin {
                op: BinOp::And,
                left,
                right,
            } => {
                let l = self.eval_truth(left, row)?;
                if l == Truth::False {
                    return Ok(Truth::False);
                }
                Ok(l.and(self.eval_truth(right, row)?))
            }
            QExpr::Bin {
                op: BinOp::Or,
                left,
                right,
            } => {
                let l = self.eval_truth(left, row)?;
                if l == Truth::True {
                    return Ok(Truth::True);
                }
                Ok(l.or(self.eval_truth(right, row)?))
            }
            _ => {
                let v = self.eval(e, row)?;
                Ok(match v {
                    Value::Null => Truth::Unknown,
                    Value::Bool(b) => Truth::from_opt(Some(b)),
                    other => {
                        return Err(Error::execution(format!(
                            "expected boolean predicate, got {other}"
                        )))
                    }
                })
            }
        }
    }

    fn eval_binary(&self, op: BinOp, left: &QExpr, right: &QExpr, row: &[Value]) -> Result<Value> {
        match op {
            BinOp::And | BinOp::Or => {
                let t = self.eval_truth(
                    &QExpr::Bin {
                        op,
                        left: Box::new(left.clone()),
                        right: Box::new(right.clone()),
                    },
                    row,
                )?;
                Ok(truth_value(t))
            }
            BinOp::Add => self.eval(left, row)?.numeric_add(&self.eval(right, row)?),
            BinOp::Sub => self.eval(left, row)?.numeric_sub(&self.eval(right, row)?),
            BinOp::Mul => self.eval(left, row)?.numeric_mul(&self.eval(right, row)?),
            BinOp::Div => self.eval(left, row)?.numeric_div(&self.eval(right, row)?),
            BinOp::Concat => {
                let (l, r) = (self.eval(left, row)?, self.eval(right, row)?);
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::str(format!(
                    "{}{}",
                    display_raw(&l),
                    display_raw(&r)
                )))
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let (l, r) = (self.eval(left, row)?, self.eval(right, row)?);
                Ok(match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::NotEq => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::LtEq => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::GtEq => ord != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    }),
                })
            }
        }
    }

    fn eval_func(&self, name: &str, args: &[QExpr], row: &[Value]) -> Result<Value> {
        match name {
            "EXPENSIVE" => {
                let units = match args.get(1) {
                    Some(u) => self
                        .eval(u, row)?
                        .as_f64()
                        .unwrap_or(weights::EXPENSIVE_DEFAULT),
                    None => weights::EXPENSIVE_DEFAULT,
                };
                self.engine.burn(units);
                self.eval(&args[0], row)
            }
            "NVL" => {
                let v = self.eval(&args[0], row)?;
                if v.is_null() {
                    self.eval(&args[1], row)
                } else {
                    Ok(v)
                }
            }
            "LNNVL" => {
                // LNNVL(p): TRUE if p is FALSE or UNKNOWN
                let t = self.eval_truth(&args[0], row)?;
                Ok(Value::Bool(!t.passes()))
            }
            "UPPER" | "LOWER" => {
                let v = self.eval(&args[0], row)?;
                Ok(match v.as_str() {
                    Some(s) => {
                        if name == "UPPER" {
                            Value::str(s.to_uppercase())
                        } else {
                            Value::str(s.to_lowercase())
                        }
                    }
                    None => Value::Null,
                })
            }
            "LENGTH" => {
                let v = self.eval(&args[0], row)?;
                Ok(match v.as_str() {
                    Some(s) => Value::Int(s.chars().count() as i64),
                    None => Value::Null,
                })
            }
            "ABS" => {
                let v = self.eval(&args[0], row)?;
                Ok(match v {
                    Value::Null => Value::Null,
                    Value::Int(i) => Value::Int(i.abs()),
                    Value::Double(d) => Value::Double(d.abs()),
                    other => return Err(Error::execution(format!("ABS of {other}"))),
                })
            }
            "MOD" => {
                let a = self.eval(&args[0], row)?;
                let b = self.eval(&args[1], row)?;
                match (a.as_i64(), b.as_i64()) {
                    (Some(_), Some(0)) => Err(Error::execution("MOD by zero")),
                    (Some(x), Some(y)) => Ok(Value::Int(x % y)),
                    _ => Ok(Value::Null),
                }
            }
            "FLOOR" | "CEIL" => {
                let v = self.eval(&args[0], row)?;
                Ok(match v.as_f64() {
                    Some(d) => {
                        Value::Int(if name == "FLOOR" { d.floor() } else { d.ceil() } as i64)
                    }
                    None => Value::Null,
                })
            }
            "SIGN" => {
                let v = self.eval(&args[0], row)?;
                Ok(match v.as_f64() {
                    Some(d) => Value::Int(if d > 0.0 {
                        1
                    } else if d < 0.0 {
                        -1
                    } else {
                        0
                    }),
                    None => Value::Null,
                })
            }
            other => Err(Error::execution(format!(
                "unknown function {other} at runtime"
            ))),
        }
    }

    fn eval_subquery(
        &self,
        block: cbqt_qgm::BlockId,
        kind: &SubqKind,
        row: &[Value],
    ) -> Result<Value> {
        let k = self
            .subplans
            .iter()
            .position(|(b, _)| *b == block)
            .ok_or_else(|| Error::execution(format!("no subplan for {block}")))?;
        let at = (0..k).fold(self.subplans_at, |at, _| self.engine.after(at));
        let binds = self.outer.push(self.layout, row);
        let rows = self
            .engine
            .execute_cached(&self.subplans[k].1, at, &binds)?;
        match kind {
            SubqKind::Scalar => match rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rows[0][0].clone()),
                _ => Err(Error::execution(
                    "single-row subquery returns more than one row",
                )),
            },
            SubqKind::Exists { negated } => Ok(Value::Bool(rows.is_empty() == *negated)),
            SubqKind::In { lhs, negated } => {
                let keys: Vec<Value> = lhs
                    .iter()
                    .map(|e| self.eval(e, row))
                    .collect::<Result<_>>()?;
                let mut unknown = false;
                let mut found = false;
                for r in rows.iter() {
                    let mut all_true = true;
                    let mut any_unknown = false;
                    for (k, v) in keys.iter().zip(r.iter()) {
                        match k.sql_eq(v) {
                            Some(true) => {}
                            Some(false) => {
                                all_true = false;
                                break;
                            }
                            None => {
                                any_unknown = true;
                                all_true = false;
                            }
                        }
                    }
                    if all_true {
                        found = true;
                        break;
                    }
                    if any_unknown {
                        unknown = true;
                    }
                }
                let t = if found {
                    Truth::True
                } else if unknown {
                    Truth::Unknown
                } else {
                    Truth::False
                };
                Ok(truth_value(if *negated { t.not() } else { t }))
            }
            SubqKind::Quant { op, quant, lhs } => {
                let l = self.eval(lhs, row)?;
                let mut result = match quant {
                    Quant::All => Truth::True,
                    Quant::Any => Truth::False,
                };
                for r in rows.iter() {
                    let cmp = match l.sql_cmp(&r[0]) {
                        None => Truth::Unknown,
                        Some(ord) => Truth::from_opt(Some(match op {
                            BinOp::Eq => ord == std::cmp::Ordering::Equal,
                            BinOp::NotEq => ord != std::cmp::Ordering::Equal,
                            BinOp::Lt => ord == std::cmp::Ordering::Less,
                            BinOp::LtEq => ord != std::cmp::Ordering::Greater,
                            BinOp::Gt => ord == std::cmp::Ordering::Greater,
                            BinOp::GtEq => ord != std::cmp::Ordering::Less,
                            _ => return Err(Error::execution("bad quantified operator")),
                        })),
                    };
                    result = match quant {
                        Quant::All => result.and(cmp),
                        Quant::Any => result.or(cmp),
                    };
                }
                Ok(truth_value(result))
            }
        }
    }
}

/// Converts a truth value to a SQL boolean value.
pub fn truth_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

pub(crate) fn display_raw(v: &Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => other.to_string(),
    }
}

/// SQL LIKE matcher (`%` any run, `_` exactly one character; no escape
/// support).
///
/// Iterative two-pointer scan with single-level `%` backtracking —
/// O(len(s)·len(p)) worst case, unlike the naive recursive formulation
/// whose `%` branch is exponential on patterns like `%a%a%a%…` — and it
/// walks `char`s, so `_` consumes one whole character even in multi-byte
/// UTF-8 text.
pub fn like_match(s: &str, p: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = p.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    // position after the most recent `%`, and the input position its
    // run currently extends to
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            // mismatch after a `%`: grow its run by one char and retry
            star = Some((sp, ss + 1));
            pi = sp;
            si = ss + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Window-function computation over a block's row set.
///
/// `rows` are mutated in place: each window expression's value is pushed
/// onto every row (in `windows` order). An aggregate's frame is SQL's
/// default, `RANGE UNBOUNDED PRECEDING`: ORDER BY peers share a value.
pub fn compute_windows(ctx: &EvalCtx<'_>, rows: &mut [Row], windows: &[QExpr]) -> Result<()> {
    for w in windows {
        let QExpr::Win {
            func,
            arg,
            partition_by,
            order_by,
        } = w
        else {
            return Err(Error::execution("non-window expr in window list"));
        };
        // partition rows by key
        let mut parts: HashMap<Vec<Value>, Vec<usize>> = HashMap::default();
        for (i, r) in rows.iter().enumerate() {
            let key: Vec<Value> = partition_by
                .iter()
                .map(|e| ctx.eval(e, r))
                .collect::<Result<_>>()?;
            parts.entry(key).or_default().push(i);
        }
        let mut values: Vec<Value> = vec![Value::Null; rows.len()];
        let cmp = |a: &[Value], b: &[Value]| {
            for (j, o) in order_by.iter().enumerate() {
                let ord = crate::engine::order_cmp(&a[j], &b[j], o.desc, o.nulls_first);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        };
        for (_, idxs) in parts {
            // each row with its ORDER BY key, sorted; without ORDER BY
            // every key is empty and every row a peer of every other
            let mut keyed: Vec<(Vec<Value>, usize)> = idxs
                .iter()
                .map(|&i| {
                    let k: Vec<Value> = order_by
                        .iter()
                        .map(|o| ctx.eval(&o.expr, &rows[i]))
                        .collect::<Result<_>>()?;
                    Ok((k, i))
                })
                .collect::<Result<_>>()?;
            if !order_by.is_empty() {
                keyed.sort_by(|a, b| cmp(&a.0, &b.0));
                ctx.engine.add_work(
                    weights::SORT * (idxs.len().max(2) as f64).log2() * idxs.len() as f64,
                );
            }
            match func {
                WinFunc::RowNumber => {
                    for (n, (_, i)) in keyed.iter().enumerate() {
                        values[*i] = Value::Int(n as i64 + 1);
                    }
                }
                WinFunc::Agg(af) => {
                    // RANGE from the partition's start to the current
                    // row's last peer: a peer group takes one value
                    let mut acc = AggAcc::new(*af);
                    let mut first = 0;
                    for n in 0..keyed.len() {
                        let v = match arg {
                            Some(a) => ctx.eval(a, &rows[keyed[n].1])?,
                            None => Value::Int(1),
                        };
                        acc.add(&v);
                        if keyed
                            .get(n + 1)
                            .is_none_or(|next| cmp(&next.0, &keyed[n].0).is_ne())
                        {
                            let out = acc.finish();
                            for (_, i) in &keyed[first..=n] {
                                values[*i] = out.clone();
                            }
                            first = n + 1;
                        }
                    }
                }
            }
            ctx.engine.add_work(idxs.len() as f64 * weights::AGG);
        }
        for (i, r) in rows.iter_mut().enumerate() {
            r.push(values[i].clone());
        }
    }
    Ok(())
}

/// Streaming aggregate accumulator shared by GROUP BY and window frames.
#[derive(Debug, Clone)]
pub struct AggAcc {
    func: cbqt_qgm::AggFunc,
    count: i64,
    sum: f64,
    sum_is_int: bool,
    isum: i64,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Option<HashSet<Value>>,
}

impl AggAcc {
    pub fn new(func: cbqt_qgm::AggFunc) -> AggAcc {
        AggAcc {
            func,
            count: 0,
            sum: 0.0,
            sum_is_int: true,
            isum: 0,
            min: None,
            max: None,
            distinct: None,
        }
    }

    pub fn new_distinct(func: cbqt_qgm::AggFunc) -> AggAcc {
        let mut a = AggAcc::new(func);
        a.distinct = Some(HashSet::default());
        a
    }

    /// One accumulator per aggregate slot of a select block, in slot
    /// order; a DISTINCT aggregate gets a distinct accumulator.
    pub(crate) fn for_slots(aggs: &[QExpr]) -> Result<Vec<AggAcc>> {
        aggs.iter()
            .map(|a| match a {
                QExpr::Agg { func, distinct, .. } => Ok(match distinct {
                    true => AggAcc::new_distinct(*func),
                    false => AggAcc::new(*func),
                }),
                _ => Err(Error::execution("non-aggregate in agg slot list")),
            })
            .collect()
    }

    pub fn add(&mut self, v: &Value) {
        use cbqt_qgm::AggFunc::*;
        if self.func == CountStar {
            self.count += 1;
            return;
        }
        if v.is_null() {
            return;
        }
        if let Some(set) = &mut self.distinct {
            if !set.insert(v.clone()) {
                return;
            }
        }
        self.count += 1;
        match self.func {
            Sum | Avg => match v {
                Value::Int(i) => {
                    self.isum = self.isum.wrapping_add(*i);
                    self.sum += *i as f64;
                }
                _ => {
                    self.sum_is_int = false;
                    self.sum += v.as_f64().unwrap_or(0.0);
                }
            },
            Min => {
                if self
                    .min
                    .as_ref()
                    .map(|m| v.total_cmp(m).is_lt())
                    .unwrap_or(true)
                {
                    self.min = Some(v.clone());
                }
            }
            Max => {
                if self
                    .max
                    .as_ref()
                    .map(|m| v.total_cmp(m).is_gt())
                    .unwrap_or(true)
                {
                    self.max = Some(v.clone());
                }
            }
            Count | CountStar => {}
        }
    }

    /// Adds `v` `n` times, as `n` calls of [`add`](AggAcc::add) would;
    /// COUNT(\*) counts all `n` at once.
    pub fn add_repeated(&mut self, v: &Value, n: usize) {
        match self.func {
            cbqt_qgm::AggFunc::CountStar => self.count += n as i64,
            _ => (0..n).for_each(|_| self.add(v)),
        }
    }

    /// Adds every cell of `col`, in order, as one [`add`](AggAcc::add)
    /// per value would. COUNT(\*) counts the column's length; a
    /// non-DISTINCT SUM, AVG or COUNT folds `Int`s and skips NULLs in a
    /// tight loop, adding in the same order (so a floating sum rounds
    /// alike), and hands any other value to `add`. An `Int` column folds
    /// its `i64`s, MIN and MAX too.
    pub fn add_all(&mut self, col: &Column) {
        use cbqt_qgm::AggFunc::*;
        let col = match col {
            Column::Int(x) => return self.add_ints(x),
            Column::Values(col) => col,
        };
        match (self.func, self.distinct.is_some()) {
            (CountStar, _) => self.count += col.len() as i64,
            (Count, false) => self.count += col.iter().filter(|v| !v.is_null()).count() as i64,
            (Sum | Avg, false) => {
                // the running totals stay in locals through the loop
                let (mut count, mut isum, mut sum) = (self.count, self.isum, self.sum);
                for v in col {
                    if let Value::Int(i) = v {
                        count += 1;
                        isum = isum.wrapping_add(*i);
                        sum += *i as f64;
                    } else if !v.is_null() {
                        (self.count, self.isum, self.sum) = (count, isum, sum);
                        self.add(v);
                        (count, isum, sum) = (self.count, self.isum, self.sum);
                    }
                }
                (self.count, self.isum, self.sum) = (count, isum, sum);
            }
            _ => col.iter().for_each(|v| self.add(v)),
        }
    }

    /// [`add_all`](AggAcc::add_all) of an `Int` column.
    fn add_ints(&mut self, x: &Ints) {
        use cbqt_qgm::AggFunc::*;
        match (self.func, self.distinct.is_some()) {
            (CountStar, _) => self.count += x.len() as i64,
            (Count, false) => self.count += x.non_null().count() as i64,
            (Sum | Avg, false) => {
                let (mut count, mut isum, mut sum) = (self.count, self.isum, self.sum);
                for i in x.non_null() {
                    count += 1;
                    isum = isum.wrapping_add(i);
                    sum += i as f64;
                }
                (self.count, self.isum, self.sum) = (count, isum, sum);
            }
            (Min | Max, false) => x.non_null().for_each(|i| self.add_extreme(i)),
            _ => (0..x.len()).for_each(|i| self.add(&x.value(i))),
        }
    }

    /// Adds each row of a batch to its group's accumulator of one
    /// aggregate: row `i` goes to `accs[gids[i] * stride]`, reading
    /// `col`'s cell `i`, or `star` when the aggregate has no argument.
    /// Each accumulator sees its rows in batch order, and the
    /// accumulators at the stride share one function, so the fold
    /// decides it once.
    pub fn add_by_group(
        accs: &mut [AggAcc],
        stride: usize,
        col: Option<&Column>,
        star: &Value,
        gids: &[u32],
    ) {
        use cbqt_qgm::AggFunc::*;
        let Some(a0) = accs.first() else {
            return;
        };
        let at = |g: u32| g as usize * stride;
        match (a0.func, a0.distinct.is_some(), col) {
            (CountStar, ..) => gids.iter().for_each(|&g| accs[at(g)].count += 1),
            (Count, false, Some(Column::Int(x))) => {
                for (i, &g) in gids.iter().enumerate() {
                    accs[at(g)].count += x.get(i).is_some() as i64;
                }
            }
            (Sum | Avg, false, Some(Column::Int(x))) => {
                for (i, &g) in gids.iter().enumerate() {
                    if let Some(v) = x.get(i) {
                        accs[at(g)].add_int(v);
                    }
                }
            }
            (Min | Max, false, Some(Column::Int(x))) => {
                for (i, &g) in gids.iter().enumerate() {
                    if let Some(v) = x.get(i) {
                        accs[at(g)].add_extreme(v);
                    }
                }
            }
            (Count, false, Some(Column::Values(col))) => {
                for (&g, v) in gids.iter().zip(col) {
                    accs[at(g)].count += !v.is_null() as i64;
                }
            }
            (Sum | Avg, false, Some(Column::Values(col))) => {
                for (&g, v) in gids.iter().zip(col) {
                    let acc = &mut accs[at(g)];
                    match v {
                        Value::Int(i) => acc.add_int(*i),
                        Value::Null => {}
                        _ => acc.add(v),
                    }
                }
            }
            (.., Some(col)) => {
                for (i, &g) in gids.iter().enumerate() {
                    accs[at(g)].add(&col.get(i));
                }
            }
            (.., None) => gids.iter().for_each(|&g| accs[at(g)].add(star)),
        }
    }

    /// What [`add`](AggAcc::add) does with `Value::Int(i)` in a
    /// non-DISTINCT SUM or AVG.
    #[inline]
    fn add_int(&mut self, i: i64) {
        self.count += 1;
        self.isum = self.isum.wrapping_add(i);
        self.sum += i as f64;
    }

    /// What [`add`](AggAcc::add) does with `Value::Int(i)` in a
    /// non-DISTINCT MIN or MAX: against an `Int` extreme, one `i64`
    /// compare.
    #[inline]
    fn add_extreme(&mut self, i: i64) {
        let (slot, min) = match self.func {
            cbqt_qgm::AggFunc::Min => (&mut self.min, true),
            _ => (&mut self.max, false),
        };
        match slot {
            Some(Value::Int(m)) => {
                self.count += 1;
                if (min && i < *m) || (!min && i > *m) {
                    *m = i;
                }
            }
            None => {
                self.count += 1;
                *slot = Some(Value::Int(i));
            }
            Some(_) => self.add(&Value::Int(i)),
        }
    }

    pub fn finish(&self) -> Value {
        use cbqt_qgm::AggFunc::*;
        match self.func {
            Count | CountStar => Value::Int(self.count),
            Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.isum)
                } else {
                    Value::Double(self.sum)
                }
            }
            Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double(self.sum / self.count as f64)
                }
            }
            Min => self.min.clone().unwrap_or(Value::Null),
            Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_qgm::AggFunc;

    #[test]
    fn like_matcher() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", ""));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("abc", "a%b%c"));
        assert!(!like_match("abc", "a%b%d"));
        assert!(like_match("mississippi", "%issi%ippi"));
    }

    #[test]
    fn like_matcher_counts_chars_not_bytes() {
        // `_` must consume one whole multi-byte character
        assert!(like_match("déjà", "d_j_"));
        assert!(like_match("日本語", "___"));
        assert!(!like_match("日本語", "____"));
        assert!(like_match("naïve", "na%ve"));
        assert!(like_match("日本語", "日%"));
    }

    #[test]
    fn like_matcher_pathological_pattern_is_fast() {
        // the old recursive matcher was exponential on this shape; the
        // iterative matcher is O(n·m) and finishes instantly
        let s = "a".repeat(64);
        let p = format!("{}b", "%a".repeat(24));
        let t0 = std::time::Instant::now();
        assert!(!like_match(&s, &p));
        let q = format!("{}%", "%a".repeat(24));
        assert!(like_match(&s, &q));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "pathological LIKE took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn agg_count_star_counts_nulls() {
        let mut a = AggAcc::new(AggFunc::CountStar);
        a.add(&Value::Null);
        a.add(&Value::Int(1));
        assert_eq!(a.finish(), Value::Int(2));
    }

    #[test]
    fn agg_count_skips_nulls() {
        let mut a = AggAcc::new(AggFunc::Count);
        a.add(&Value::Null);
        a.add(&Value::Int(1));
        assert_eq!(a.finish(), Value::Int(1));
    }

    #[test]
    fn agg_sum_avg() {
        let mut s = AggAcc::new(AggFunc::Sum);
        let mut av = AggAcc::new(AggFunc::Avg);
        for i in 1..=4 {
            s.add(&Value::Int(i));
            av.add(&Value::Int(i));
        }
        assert_eq!(s.finish(), Value::Int(10));
        assert_eq!(av.finish(), Value::Double(2.5));
    }

    #[test]
    fn agg_sum_empty_is_null() {
        let s = AggAcc::new(AggFunc::Sum);
        assert!(s.finish().is_null());
        let c = AggAcc::new(AggFunc::Count);
        assert_eq!(c.finish(), Value::Int(0));
    }

    #[test]
    fn agg_min_max() {
        let mut mn = AggAcc::new(AggFunc::Min);
        let mut mx = AggAcc::new(AggFunc::Max);
        for v in [3i64, 1, 4, 1, 5] {
            mn.add(&Value::Int(v));
            mx.add(&Value::Int(v));
        }
        assert_eq!(mn.finish(), Value::Int(1));
        assert_eq!(mx.finish(), Value::Int(5));
    }

    #[test]
    fn agg_distinct_sum() {
        let mut s = AggAcc::new_distinct(AggFunc::Sum);
        for v in [2i64, 2, 3, 3, 3] {
            s.add(&Value::Int(v));
        }
        assert_eq!(s.finish(), Value::Int(5));
    }
}
