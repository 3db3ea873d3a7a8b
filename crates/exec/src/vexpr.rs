//! Compiled per-batch expression programs for the vectorized engine.
//!
//! A [`VecExpr`] is compiled **once per plan** from a `QExpr` (see
//! [`ProgramSet`](crate::batch::ProgramSet)) by resolving every column
//! reference to a direct batch-column index (the row engine re-walks the
//! layout per row); a bind parameter compiles to its slot, read from the
//! engine's bind vector when the program runs. A program is evaluated
//! with a per-batch loop over a *selection vector*. Short-circuiting
//! constructs (`AND`/`OR`, `CASE`, `IN`-lists, `NVL`) refine the
//! selection instead of branching per row, so the set of `(row,
//! subexpression)` evaluations — and therefore every `EXPENSIVE()` burn
//! and work unit — is exactly the set the Volcano oracle produces.
//!
//! A column of an outer binding frame (a correlated reference, or the
//! left row a lateral join's right side runs for) compiles to
//! [`VecExpr::Outer`]: one value per execution, read like a bind, so a
//! correlated comparison such as `j.emp_id = e.emp_id` is still a direct
//! comparison. Subqueries compile to [`VecExpr::Fallback`], which
//! gathers the affected rows and evaluates them through the ordinary
//! row-wise [`EvalCtx`] — same TIS caches, same errors.

use crate::batch::Batch;
use crate::column::{Column, Ints};
use crate::eval::{display_raw, like_match, truth_value, EvalCtx};
use cbqt_common::{Error, Result, Truth, Value};
use cbqt_optimizer::{weights, Layout};
use cbqt_qgm::{BinOp, QExpr, RefId};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Slot mapping used while compiling: mirrors the fields of [`EvalCtx`]
/// that decide how a `QExpr` resolves to a row position. It holds no
/// bind values: programs are compiled once per plan and read each
/// execution's binds when they run.
pub(crate) struct CompileCtx<'a> {
    pub layout: &'a Layout,
    pub aggs: &'a [QExpr],
    pub agg_base: usize,
    pub windows: &'a [QExpr],
    pub win_base: usize,
}

impl<'a> CompileCtx<'a> {
    /// A context with no aggregate / window slots (scans, join keys).
    pub fn plain(layout: &'a Layout) -> CompileCtx<'a> {
        CompileCtx {
            layout,
            aggs: &[],
            agg_base: 0,
            windows: &[],
            win_base: 0,
        }
    }
}

/// Built-in scalar functions the batch interpreter executes natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuncOp {
    Expensive,
    Nvl,
    Lnnvl,
    Upper,
    Lower,
    Length,
    Abs,
    Mod,
    Floor,
    Ceil,
    Sign,
}

/// One compiled expression node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VecExpr {
    /// Local column, resolved to a direct batch-column index.
    Col(usize),
    /// Aggregate output slot; errors like the row engine when the batch
    /// does not (yet) carry aggregate columns.
    AggSlot(usize),
    /// Window output slot.
    WinSlot(usize),
    Lit(Value),
    /// Bind slot: the execution's value for `slot`, or `peek` when the
    /// execution installed none ([`Engine::param`](crate::engine::Engine::param)).
    Param {
        slot: usize,
        peek: Value,
    },
    /// Column `column` of the outer reference `table`: the value the
    /// innermost binding frame holds, the same for every row of one
    /// execution. Errors like the row engine when no frame binds it.
    Outer {
        table: RefId,
        column: usize,
    },
    /// Non-logical binary operator (arithmetic, comparison, `||`).
    Bin {
        op: BinOp,
        l: Box<VecExpr>,
        r: Box<VecExpr>,
    },
    And {
        l: Box<VecExpr>,
        r: Box<VecExpr>,
    },
    Or {
        l: Box<VecExpr>,
        r: Box<VecExpr>,
    },
    Not(Box<VecExpr>),
    Neg(Box<VecExpr>),
    IsNull {
        e: Box<VecExpr>,
        negated: bool,
    },
    InList {
        e: Box<VecExpr>,
        list: Vec<VecExpr>,
        negated: bool,
    },
    Like {
        e: Box<VecExpr>,
        pattern: Box<VecExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<VecExpr>>,
        branches: Vec<(VecExpr, VecExpr)>,
        else_expr: Option<Box<VecExpr>>,
    },
    Func {
        op: FuncOp,
        args: Vec<VecExpr>,
    },
    /// Errors with the given message when evaluated over a non-empty
    /// selection; the row engine raises the same error per row, i.e.
    /// only if the expression is ever reached.
    LazyErr(String),
    /// Row-wise escape hatch for subqueries: gather the row, evaluate via
    /// [`EvalCtx`].
    Fallback(Box<QExpr>),
}

/// Compiles a `QExpr` against the given slot mapping.
pub(crate) fn compile(e: &QExpr, cx: &CompileCtx<'_>) -> VecExpr {
    match e {
        QExpr::Col { table, column } => match cx.layout.offset_of(*table) {
            Some((off, w)) if *column < w => VecExpr::Col(off + column),
            Some(_) => VecExpr::LazyErr(format!("column {column} out of range for r{}", table.0)),
            // outer reference: read from the binding frames when run
            None => VecExpr::Outer {
                table: *table,
                column: *column,
            },
        },
        QExpr::Lit(v) => VecExpr::Lit(v.clone()),
        QExpr::Param { slot, peek } => VecExpr::Param {
            slot: *slot,
            peek: peek.clone(),
        },
        QExpr::Bin {
            op: BinOp::And,
            left,
            right,
        } => VecExpr::And {
            l: Box::new(compile(left, cx)),
            r: Box::new(compile(right, cx)),
        },
        QExpr::Bin {
            op: BinOp::Or,
            left,
            right,
        } => VecExpr::Or {
            l: Box::new(compile(left, cx)),
            r: Box::new(compile(right, cx)),
        },
        QExpr::Bin { op, left, right } => VecExpr::Bin {
            op: *op,
            l: Box::new(compile(left, cx)),
            r: Box::new(compile(right, cx)),
        },
        QExpr::Not(x) => VecExpr::Not(Box::new(compile(x, cx))),
        QExpr::Neg(x) => VecExpr::Neg(Box::new(compile(x, cx))),
        QExpr::IsNull { expr, negated } => VecExpr::IsNull {
            e: Box::new(compile(expr, cx)),
            negated: *negated,
        },
        QExpr::InList {
            expr,
            list,
            negated,
        } => VecExpr::InList {
            e: Box::new(compile(expr, cx)),
            list: list.iter().map(|i| compile(i, cx)).collect(),
            negated: *negated,
        },
        QExpr::Like {
            expr,
            pattern,
            negated,
        } => VecExpr::Like {
            e: Box::new(compile(expr, cx)),
            pattern: Box::new(compile(pattern, cx)),
            negated: *negated,
        },
        QExpr::Case {
            operand,
            branches,
            else_expr,
        } => VecExpr::Case {
            operand: operand.as_ref().map(|o| Box::new(compile(o, cx))),
            branches: branches
                .iter()
                .map(|(w, t)| (compile(w, cx), compile(t, cx)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(compile(x, cx))),
        },
        QExpr::Func { name, args } => {
            let op = match name.as_str() {
                "EXPENSIVE" => FuncOp::Expensive,
                "NVL" => FuncOp::Nvl,
                "LNNVL" => FuncOp::Lnnvl,
                "UPPER" => FuncOp::Upper,
                "LOWER" => FuncOp::Lower,
                "LENGTH" => FuncOp::Length,
                "ABS" => FuncOp::Abs,
                "MOD" => FuncOp::Mod,
                "FLOOR" => FuncOp::Floor,
                "CEIL" => FuncOp::Ceil,
                "SIGN" => FuncOp::Sign,
                other => return VecExpr::LazyErr(format!("unknown function {other} at runtime")),
            };
            VecExpr::Func {
                op,
                args: args.iter().map(|a| compile(a, cx)).collect(),
            }
        }
        QExpr::Agg { .. } => match cx.aggs.iter().position(|a| a == e) {
            Some(i) => VecExpr::AggSlot(cx.agg_base + i),
            None => VecExpr::LazyErr("aggregate used outside aggregation context".into()),
        },
        QExpr::Win { .. } => match cx.windows.iter().position(|w| w == e) {
            Some(i) => VecExpr::WinSlot(cx.win_base + i),
            None => VecExpr::LazyErr("window function not computed".into()),
        },
        QExpr::Subq { .. } => VecExpr::Fallback(Box::new(e.clone())),
    }
}

impl VecExpr {
    /// Whether any node in this program needs a gathered full row (a
    /// subquery fallback). Such programs require the batch to be fully
    /// materialized.
    pub(crate) fn uses_fallback(&self) -> bool {
        let mut found = false;
        self.walk(&mut |n| {
            if matches!(n, VecExpr::Fallback(_)) {
                found = true;
            }
        });
        found
    }

    /// Number of nodes in the program.
    pub(crate) fn nodes(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Collects every batch-column index the program reads directly.
    pub(crate) fn collect_cols(&self, out: &mut Vec<usize>) {
        self.walk(&mut |n| {
            if let VecExpr::Col(i) | VecExpr::AggSlot(i) | VecExpr::WinSlot(i) = n {
                out.push(*i);
            }
        });
    }

    fn walk(&self, f: &mut impl FnMut(&VecExpr)) {
        f(self);
        match self {
            VecExpr::Bin { l, r, .. } | VecExpr::And { l, r } | VecExpr::Or { l, r } => {
                l.walk(f);
                r.walk(f);
            }
            VecExpr::Not(x) | VecExpr::Neg(x) => x.walk(f),
            VecExpr::IsNull { e, .. } => e.walk(f),
            VecExpr::InList { e, list, .. } => {
                e.walk(f);
                for i in list {
                    i.walk(f);
                }
            }
            VecExpr::Like { e, pattern, .. } => {
                e.walk(f);
                pattern.walk(f);
            }
            VecExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(x) = else_expr {
                    x.walk(f);
                }
            }
            VecExpr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            VecExpr::Col(_)
            | VecExpr::AggSlot(_)
            | VecExpr::WinSlot(_)
            | VecExpr::Lit(_)
            | VecExpr::Param { .. }
            | VecExpr::Outer { .. }
            | VecExpr::LazyErr(_)
            | VecExpr::Fallback(_) => {}
        }
    }

    /// Evaluates the program over the rows named by `sel`; the result is
    /// aligned with `sel` (entry `k` is the value for row `sel[k]`).
    pub(crate) fn eval(
        &self,
        batch: &Batch,
        sel: &[usize],
        ctx: &EvalCtx<'_>,
    ) -> Result<Vec<Value>> {
        match self {
            VecExpr::Col(i) => {
                debug_assert!(
                    sel.is_empty() || batch.cols[*i].len() == batch.len,
                    "a program reads pruned column {i}"
                );
                Ok(batch.cols[*i].values_at(sel))
            }
            VecExpr::AggSlot(i) => {
                if sel.is_empty() {
                    return Ok(Vec::new());
                }
                if *i >= batch.cols.len() {
                    return Err(Error::execution("aggregate slot out of range"));
                }
                Ok(batch.cols[*i].values_at(sel))
            }
            VecExpr::WinSlot(i) => {
                if sel.is_empty() {
                    return Ok(Vec::new());
                }
                if *i >= batch.cols.len() {
                    return Err(Error::execution("window slot out of range"));
                }
                Ok(batch.cols[*i].values_at(sel))
            }
            VecExpr::Lit(v) => Ok(vec![v.clone(); sel.len()]),
            VecExpr::Param { slot, peek } => {
                Ok(vec![ctx.engine.param(*slot, peek).clone(); sel.len()])
            }
            VecExpr::Outer { table, column } => match sel.is_empty() {
                true => Ok(Vec::new()),
                false => Ok(vec![
                    ctx.outer.value(*table, *column)?.into_owned();
                    sel.len()
                ]),
            },
            VecExpr::Bin { op, l, r } => {
                let lv = l.eval(batch, sel, ctx)?;
                let rv = r.eval(batch, sel, ctx)?;
                let mut out = Vec::with_capacity(sel.len());
                match op {
                    BinOp::Add => {
                        for (a, b) in lv.iter().zip(rv.iter()) {
                            out.push(a.numeric_add(b)?);
                        }
                    }
                    BinOp::Sub => {
                        for (a, b) in lv.iter().zip(rv.iter()) {
                            out.push(a.numeric_sub(b)?);
                        }
                    }
                    BinOp::Mul => {
                        for (a, b) in lv.iter().zip(rv.iter()) {
                            out.push(a.numeric_mul(b)?);
                        }
                    }
                    BinOp::Div => {
                        for (a, b) in lv.iter().zip(rv.iter()) {
                            out.push(a.numeric_div(b)?);
                        }
                    }
                    BinOp::Concat => {
                        for (a, b) in lv.iter().zip(rv.iter()) {
                            if a.is_null() || b.is_null() {
                                out.push(Value::Null);
                            } else {
                                out.push(Value::str(format!(
                                    "{}{}",
                                    display_raw(a),
                                    display_raw(b)
                                )));
                            }
                        }
                    }
                    BinOp::Eq
                    | BinOp::NotEq
                    | BinOp::Lt
                    | BinOp::LtEq
                    | BinOp::Gt
                    | BinOp::GtEq => {
                        for (a, b) in lv.iter().zip(rv.iter()) {
                            out.push(truth_value(compare(*op, a, b)));
                        }
                    }
                    BinOp::And | BinOp::Or => unreachable!("compiled to And/Or variants"),
                }
                Ok(out)
            }
            VecExpr::And { .. } | VecExpr::Or { .. } | VecExpr::Not(_) => {
                let t = self.eval_truth(batch, sel, ctx)?;
                Ok(t.into_iter().map(truth_value).collect())
            }
            VecExpr::Neg(x) => {
                let v = x.eval(batch, sel, ctx)?;
                v.into_iter()
                    .map(|v| match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Double(d) => Ok(Value::Double(-d)),
                        other => Err(Error::execution(format!("cannot negate {other}"))),
                    })
                    .collect()
            }
            VecExpr::IsNull { e, negated } => {
                let v = e.eval(batch, sel, ctx)?;
                Ok(v.into_iter()
                    .map(|v| Value::Bool(v.is_null() != *negated))
                    .collect())
            }
            VecExpr::InList { e, list, negated } => {
                let v = e.eval(batch, sel, ctx)?;
                // selection refinement mirrors the row engine's per-row
                // break on the first matching list item
                let mut found = vec![false; sel.len()];
                let mut unknown = vec![false; sel.len()];
                let mut remaining: Vec<usize> = (0..sel.len()).collect();
                for item in list {
                    if remaining.is_empty() {
                        break;
                    }
                    let rows: Vec<usize> = remaining.iter().map(|&p| sel[p]).collect();
                    let iv = item.eval(batch, &rows, ctx)?;
                    let mut next = Vec::with_capacity(remaining.len());
                    for (k, &p) in remaining.iter().enumerate() {
                        match v[p].sql_eq(&iv[k]) {
                            Some(true) => found[p] = true,
                            Some(false) => next.push(p),
                            None => {
                                unknown[p] = true;
                                next.push(p);
                            }
                        }
                    }
                    remaining = next;
                }
                Ok((0..sel.len())
                    .map(|p| {
                        let t = if found[p] {
                            Truth::True
                        } else if unknown[p] {
                            Truth::Unknown
                        } else {
                            Truth::False
                        };
                        truth_value(if *negated { t.not() } else { t })
                    })
                    .collect())
            }
            VecExpr::Like {
                e,
                pattern,
                negated,
            } => {
                let v = e.eval(batch, sel, ctx)?;
                let p = pattern.eval(batch, sel, ctx)?;
                Ok(v.iter()
                    .zip(p.iter())
                    .map(|(v, p)| match (v.as_str(), p.as_str()) {
                        (Some(s), Some(pat)) => Value::Bool(like_match(s, pat) != *negated),
                        _ => Value::Null,
                    })
                    .collect())
            }
            VecExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let mut out = vec![Value::Null; sel.len()];
                let mut remaining: Vec<usize> = (0..sel.len()).collect();
                for (w, t) in branches {
                    if remaining.is_empty() {
                        break;
                    }
                    let rows: Vec<usize> = remaining.iter().map(|&p| sel[p]).collect();
                    let fire: Vec<bool> = match operand {
                        // the row engine re-evaluates the operand per
                        // branch; mirror that for side-effect parity
                        Some(op) => {
                            let ov = op.eval(batch, &rows, ctx)?;
                            let wv = w.eval(batch, &rows, ctx)?;
                            ov.iter()
                                .zip(wv.iter())
                                .map(|(o, w)| o.sql_eq(w) == Some(true))
                                .collect()
                        }
                        None => {
                            let tw = w.eval_truth(batch, &rows, ctx)?;
                            tw.into_iter().map(|t| t.passes()).collect()
                        }
                    };
                    let fired: Vec<usize> = remaining
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| fire[*k])
                        .map(|(_, &p)| p)
                        .collect();
                    if !fired.is_empty() {
                        let frows: Vec<usize> = fired.iter().map(|&p| sel[p]).collect();
                        let tv = t.eval(batch, &frows, ctx)?;
                        for (k, &p) in fired.iter().enumerate() {
                            out[p] = tv[k].clone();
                        }
                    }
                    remaining = remaining
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| !fire[*k])
                        .map(|(_, &p)| p)
                        .collect();
                }
                if let Some(x) = else_expr {
                    if !remaining.is_empty() {
                        let rows: Vec<usize> = remaining.iter().map(|&p| sel[p]).collect();
                        let xv = x.eval(batch, &rows, ctx)?;
                        for (k, &p) in remaining.iter().enumerate() {
                            out[p] = xv[k].clone();
                        }
                    }
                }
                Ok(out)
            }
            VecExpr::Func { op, args } => self.eval_func(*op, args, batch, sel, ctx),
            VecExpr::LazyErr(msg) => {
                if sel.is_empty() {
                    Ok(Vec::new())
                } else {
                    Err(Error::execution(msg.clone()))
                }
            }
            VecExpr::Fallback(q) => sel
                .iter()
                .map(|&r| ctx.eval(q, &batch.gather_row(r)))
                .collect(),
        }
    }

    fn eval_func(
        &self,
        op: FuncOp,
        args: &[VecExpr],
        batch: &Batch,
        sel: &[usize],
        ctx: &EvalCtx<'_>,
    ) -> Result<Vec<Value>> {
        match op {
            FuncOp::Expensive => {
                let units: Vec<f64> = match args.get(1) {
                    Some(u) => u
                        .eval(batch, sel, ctx)?
                        .iter()
                        .map(|v| v.as_f64().unwrap_or(weights::EXPENSIVE_DEFAULT))
                        .collect(),
                    None => vec![weights::EXPENSIVE_DEFAULT; sel.len()],
                };
                for u in units {
                    ctx.engine.burn(u);
                }
                args[0].eval(batch, sel, ctx)
            }
            FuncOp::Nvl => {
                let mut v = args[0].eval(batch, sel, ctx)?;
                // lazy second argument, evaluated only for NULL rows
                let nulls: Vec<usize> = (0..sel.len()).filter(|&k| v[k].is_null()).collect();
                if !nulls.is_empty() {
                    let rows: Vec<usize> = nulls.iter().map(|&k| sel[k]).collect();
                    let w = args[1].eval(batch, &rows, ctx)?;
                    for (j, &k) in nulls.iter().enumerate() {
                        v[k] = w[j].clone();
                    }
                }
                Ok(v)
            }
            FuncOp::Lnnvl => {
                let t = args[0].eval_truth(batch, sel, ctx)?;
                Ok(t.into_iter().map(|t| Value::Bool(!t.passes())).collect())
            }
            FuncOp::Upper | FuncOp::Lower => {
                let v = args[0].eval(batch, sel, ctx)?;
                Ok(v.iter()
                    .map(|v| match v.as_str() {
                        Some(s) => {
                            if op == FuncOp::Upper {
                                Value::str(s.to_uppercase())
                            } else {
                                Value::str(s.to_lowercase())
                            }
                        }
                        None => Value::Null,
                    })
                    .collect())
            }
            FuncOp::Length => {
                let v = args[0].eval(batch, sel, ctx)?;
                Ok(v.iter()
                    .map(|v| match v.as_str() {
                        Some(s) => Value::Int(s.chars().count() as i64),
                        None => Value::Null,
                    })
                    .collect())
            }
            FuncOp::Abs => {
                let v = args[0].eval(batch, sel, ctx)?;
                v.into_iter()
                    .map(|v| match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(i.abs())),
                        Value::Double(d) => Ok(Value::Double(d.abs())),
                        other => Err(Error::execution(format!("ABS of {other}"))),
                    })
                    .collect()
            }
            FuncOp::Mod => {
                let a = args[0].eval(batch, sel, ctx)?;
                let b = args[1].eval(batch, sel, ctx)?;
                a.iter()
                    .zip(b.iter())
                    .map(|(a, b)| match (a.as_i64(), b.as_i64()) {
                        (Some(_), Some(0)) => Err(Error::execution("MOD by zero")),
                        (Some(x), Some(y)) => Ok(Value::Int(x % y)),
                        _ => Ok(Value::Null),
                    })
                    .collect()
            }
            FuncOp::Floor | FuncOp::Ceil => {
                let v = args[0].eval(batch, sel, ctx)?;
                Ok(v.iter()
                    .map(|v| match v.as_f64() {
                        Some(d) => Value::Int(if op == FuncOp::Floor {
                            d.floor()
                        } else {
                            d.ceil()
                        } as i64),
                        None => Value::Null,
                    })
                    .collect())
            }
            FuncOp::Sign => {
                let v = args[0].eval(batch, sel, ctx)?;
                Ok(v.iter()
                    .map(|v| match v.as_f64() {
                        Some(d) => Value::Int(if d > 0.0 {
                            1
                        } else if d < 0.0 {
                            -1
                        } else {
                            0
                        }),
                        None => Value::Null,
                    })
                    .collect())
            }
        }
    }

    /// The value of a direct operand — a column, an aggregate or window
    /// slot, a literal, a bind or an outer column — for row `row`, read
    /// in place without materializing an operand vector; `None` for any
    /// other program, for a slot the batch does not carry and for an
    /// unbound outer column. Backs the comparison fast path in
    /// [`eval_truth`](VecExpr::eval_truth) and the row-wise projection.
    pub(crate) fn cell<'v>(
        &'v self,
        batch: &'v Batch,
        row: usize,
        ctx: &'v EvalCtx<'_>,
    ) -> Option<Cow<'v, Value>> {
        match self {
            VecExpr::Col(i) => {
                debug_assert_eq!(
                    batch.cols[*i].len(),
                    batch.len,
                    "a program reads pruned column {i}"
                );
                Some(batch.cols[*i].get(row))
            }
            VecExpr::AggSlot(i) | VecExpr::WinSlot(i) => batch.cols.get(*i).map(|c| c.get(row)),
            _ => self.constant(ctx),
        }
    }

    /// The `Int` column this program reads, when it is a column and the
    /// batch holds that column typed.
    fn int_col<'v>(&self, batch: &'v Batch) -> Option<&'v Ints> {
        match self {
            VecExpr::Col(i) => match &batch.cols[*i] {
                Column::Int(x) => Some(x),
                Column::Values(_) => None,
            },
            _ => None,
        }
    }

    /// Whether [`cell`](VecExpr::cell) reads this program.
    pub(crate) fn is_cell(&self) -> bool {
        matches!(
            self,
            VecExpr::Col(_)
                | VecExpr::AggSlot(_)
                | VecExpr::WinSlot(_)
                | VecExpr::Lit(_)
                | VecExpr::Param { .. }
                | VecExpr::Outer { .. }
        )
    }

    /// A direct comparison operand: a column, a literal, a bind or an
    /// outer column, which cannot raise once [`bound`](VecExpr::bound)
    /// has found its frame.
    fn is_direct(&self) -> bool {
        matches!(
            self,
            VecExpr::Col(_) | VecExpr::Lit(_) | VecExpr::Param { .. } | VecExpr::Outer { .. }
        )
    }

    /// `l <op> r` when the program is a comparison of two direct
    /// operands — the shape filters decide in place, reading both
    /// operands where they lie.
    pub(crate) fn direct_cmp(&self) -> Option<(BinOp, &VecExpr, &VecExpr)> {
        match self {
            VecExpr::Bin { op, l, r } if is_cmp(*op) && l.is_direct() && r.is_direct() => {
                Some((*op, l, r))
            }
            _ => None,
        }
    }

    /// The value of a literal, a bind or an outer column, the same for
    /// every row of one execution; `None` for any other program and for
    /// an unbound outer column.
    pub(crate) fn constant<'v>(&'v self, ctx: &'v EvalCtx<'_>) -> Option<Cow<'v, Value>> {
        match self {
            VecExpr::Lit(v) => Some(Cow::Borrowed(v)),
            VecExpr::Param { slot, peek } => Some(Cow::Borrowed(ctx.engine.param(*slot, peek))),
            VecExpr::Outer { table, column } => ctx.outer.value(*table, *column).ok(),
            _ => None,
        }
    }

    /// Checks that an outer column operand has a frame to read, with the
    /// row engine's error when it has none; any other program passes.
    pub(crate) fn bound(&self, ctx: &EvalCtx<'_>) -> Result<()> {
        match self {
            VecExpr::Outer { table, column } => ctx.outer.value(*table, *column).map(drop),
            _ => Ok(()),
        }
    }

    /// Keeps in `sel` the rows on which the program is true: what
    /// [`eval_truth`](VecExpr::eval_truth) decides, applied in place. A
    /// direct comparison is decided row by row with no truth vector; an
    /// `Int` column against an `Int` constant or another `Int` column
    /// compares `i64`s.
    pub(crate) fn refine(
        &self,
        batch: &Batch,
        sel: &mut Vec<usize>,
        ctx: &EvalCtx<'_>,
    ) -> Result<()> {
        if let Some((op, l, r)) = self.direct_cmp() {
            if !sel.is_empty() {
                l.bound(ctx)?;
                r.bound(ctx)?;
            }
            let int = |e: &VecExpr| match e.constant(ctx).as_deref() {
                Some(Value::Int(c)) => Some(*c),
                _ => None,
            };
            match (l.int_col(batch), r.int_col(batch), int(l), int(r)) {
                (Some(x), Some(y), ..) => {
                    retain_cmp(op, sel, |row| Some(x.get(row)?.cmp(&y.get(row)?)));
                }
                (Some(x), _, _, Some(c)) => {
                    retain_cmp(op, sel, |row| Some(x.get(row)?.cmp(&c)));
                }
                (_, Some(y), Some(c), _) => {
                    retain_cmp(op, sel, |row| Some(c.cmp(&y.get(row)?)));
                }
                _ => retain_cmp(op, sel, |row| {
                    let (a, b) = (l.cell(batch, row, ctx), r.cell(batch, row, ctx));
                    order(&a.unwrap(), &b.unwrap())
                }),
            }
            return Ok(());
        }
        let truths = self.eval_truth(batch, sel, ctx)?;
        let mut pass = truths.iter().map(|t| t.passes());
        sel.retain(|_| pass.next() == Some(true));
        Ok(())
    }

    /// Evaluates the program as a three-valued truth per selected row,
    /// with `AND`/`OR` short-circuiting by selection refinement.
    pub(crate) fn eval_truth(
        &self,
        batch: &Batch,
        sel: &[usize],
        ctx: &EvalCtx<'_>,
    ) -> Result<Vec<Truth>> {
        // fast path for the ubiquitous `col <cmp> lit` / `col <cmp> col`
        // filter shape: compare operands in place instead of cloning both
        // sides into operand vectors. Semantics are identical to the
        // generic Bin arm (the same ordering, and this shape cannot raise).
        if let Some((op, l, r)) = self.direct_cmp() {
            if !sel.is_empty() {
                l.bound(ctx)?;
                r.bound(ctx)?;
            }
            let truth = |&row: &usize| {
                let (a, b) = (l.cell(batch, row, ctx), r.cell(batch, row, ctx));
                compare(op, &a.unwrap(), &b.unwrap())
            };
            return Ok(sel.iter().map(truth).collect());
        }
        match self {
            VecExpr::And { l, r } => {
                let lt = l.eval_truth(batch, sel, ctx)?;
                let need: Vec<usize> = (0..sel.len()).filter(|&k| lt[k] != Truth::False).collect();
                let rows: Vec<usize> = need.iter().map(|&k| sel[k]).collect();
                let rt = r.eval_truth(batch, &rows, ctx)?;
                let mut out = lt;
                for (j, &k) in need.iter().enumerate() {
                    out[k] = out[k].and(rt[j]);
                }
                Ok(out)
            }
            VecExpr::Or { l, r } => {
                let lt = l.eval_truth(batch, sel, ctx)?;
                let need: Vec<usize> = (0..sel.len()).filter(|&k| lt[k] != Truth::True).collect();
                let rows: Vec<usize> = need.iter().map(|&k| sel[k]).collect();
                let rt = r.eval_truth(batch, &rows, ctx)?;
                let mut out = lt;
                for (j, &k) in need.iter().enumerate() {
                    out[k] = out[k].or(rt[j]);
                }
                Ok(out)
            }
            VecExpr::Not(x) => {
                let t = x.eval_truth(batch, sel, ctx)?;
                Ok(t.into_iter().map(|t| t.not()).collect())
            }
            VecExpr::Fallback(q) => sel
                .iter()
                .map(|&r| ctx.eval_truth(q, &batch.gather_row(r)))
                .collect(),
            _ => {
                let v = self.eval(batch, sel, ctx)?;
                v.into_iter()
                    .map(|v| match v {
                        Value::Null => Ok(Truth::Unknown),
                        Value::Bool(b) => Ok(Truth::from_opt(Some(b))),
                        other => Err(Error::execution(format!(
                            "expected boolean predicate, got {other}"
                        ))),
                    })
                    .collect()
            }
        }
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
    )
}

/// The SQL ordering of two values, [`Value::sql_cmp`]'s: `None` when
/// either is NULL or they do not compare (a NaN). Two `Int`s or two
/// `Double`s are tested for first, each with a plain branch.
#[inline]
pub(crate) fn order(a: &Value, b: &Value) -> Option<Ordering> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Some(x.cmp(y));
    }
    if let (Value::Double(x), Value::Double(y)) = (a, b) {
        return x.partial_cmp(y);
    }
    a.sql_cmp(b)
}

/// Whether an ordering satisfies the comparison `op` ([`is_cmp`]
/// operators only).
#[inline]
fn holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// SQL comparison `a <op> b` of two values ([`is_cmp`] operators only).
#[inline]
pub(crate) fn compare(op: BinOp, a: &Value, b: &Value) -> Truth {
    match order(a, b) {
        None => Truth::Unknown,
        Some(ord) => Truth::from_opt(Some(holds(op, ord))),
    }
}

/// Keeps the entries `k` of `sel` whose ordering `ord(k)` satisfies the
/// comparison `op` — what `compare(op, ..).passes()` keeps. Each
/// operator gets a loop of its own, so the operator is decided once per
/// call instead of once per row.
#[inline]
pub(crate) fn retain_cmp(op: BinOp, sel: &mut Vec<usize>, ord: impl Fn(usize) -> Option<Ordering>) {
    match op {
        BinOp::Eq => sel.retain(|&k| ord(k).is_some_and(Ordering::is_eq)),
        BinOp::NotEq => sel.retain(|&k| ord(k).is_some_and(Ordering::is_ne)),
        BinOp::Lt => sel.retain(|&k| ord(k).is_some_and(Ordering::is_lt)),
        BinOp::LtEq => sel.retain(|&k| ord(k).is_some_and(Ordering::is_le)),
        BinOp::Gt => sel.retain(|&k| ord(k).is_some_and(Ordering::is_gt)),
        BinOp::GtEq => sel.retain(|&k| ord(k).is_some_and(Ordering::is_ge)),
        _ => unreachable!("not a comparison"),
    }
}
