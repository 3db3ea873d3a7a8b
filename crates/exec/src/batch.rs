//! Columnar batch execution: the vectorized counterpart of the Volcano
//! row interpreter in [`crate::engine`].
//!
//! Operators exchange [`Batch`]es of up to [`BATCH_SIZE`] rows stored
//! column-wise; predicates and projections run as [`crate::vexpr`]
//! programs compiled once per operator. Work-unit charges and governor
//! row ticks are the batch-granular aggregates of exactly what the row
//! engine charges per row, so both engines produce identical results,
//! per-operator row counts, work totals, and governor outcomes — the
//! property the fuzzer's `--differential-exec` mode asserts.
//!
//! Operators the batch form cannot express faithfully fall back to the
//! row engine: lateral joins and nested-loop / merge joins run through
//! [`Engine::exec_node`] (which records its own metrics), window
//! functions and ROWNUM limits drop to rows for the affected stage.

use crate::engine::{combined_layout, concat, null_pad, order_cmp, Engine};
use crate::eval::{compute_windows, AggAcc, Bindings, EvalCtx};
use crate::vexpr::{compile, CompileCtx, VecExpr};
use cbqt_common::failpoint;
use cbqt_common::{Error, Result, Row, Value};
use cbqt_optimizer::{weights, JoinMethod, Layout, PlanJoinKind, PlanNode, PlanNodeId, SelectPlan};
use cbqt_qgm::QExpr;
use std::collections::{HashMap, HashSet};

/// Target rows per batch: large enough to amortize per-batch dispatch,
/// small enough to keep a batch's columns cache-resident.
pub(crate) const BATCH_SIZE: usize = 1024;

/// A columnar batch: `cols[j][i]` is column `j` of row `i`.
///
/// A zero-width batch (`cols` empty) still carries `len` rows — the
/// OneRow source produces exactly that shape.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch {
    pub cols: Vec<Vec<Value>>,
    pub len: usize,
}

impl Batch {
    /// Reassembles row `i` as a wide row (for row-wise fallbacks).
    pub fn gather_row(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c[i].clone()).collect()
    }

    /// Keeps only the rows named by `sel`, in order.
    pub fn gather(&self, sel: &[usize]) -> Batch {
        Batch {
            cols: self
                .cols
                .iter()
                .map(|c| sel.iter().map(|&i| c[i].clone()).collect())
                .collect(),
            len: sel.len(),
        }
    }

    /// Moves the batch into row form.
    pub fn into_rows(self) -> Vec<Row> {
        let mut iters: Vec<_> = self.cols.into_iter().map(|c| c.into_iter()).collect();
        (0..self.len)
            .map(|_| iters.iter_mut().map(|it| it.next().unwrap()).collect())
            .collect()
    }
}

/// Transposes rows into batches of at most [`BATCH_SIZE`], moving values.
pub(crate) fn rows_to_batches(rows: Vec<Row>, width: usize) -> Vec<Batch> {
    let mut out = Vec::with_capacity(rows.len().div_ceil(BATCH_SIZE).max(1));
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); width];
    let mut n = 0usize;
    for row in rows {
        for (j, v) in row.into_iter().enumerate().take(width) {
            cols[j].push(v);
        }
        n += 1;
        if n == BATCH_SIZE {
            out.push(Batch {
                cols: std::mem::replace(&mut cols, vec![Vec::new(); width]),
                len: n,
            });
            n = 0;
        }
    }
    if n > 0 {
        out.push(Batch { cols, len: n });
    }
    out
}

/// Flattens batches back into rows, moving values.
pub(crate) fn batches_to_rows(batches: Vec<Batch>) -> Vec<Row> {
    let mut out = Vec::new();
    for b in batches {
        out.extend(b.into_rows());
    }
    out
}

/// Whether the batch interpreter executes this node natively. Lateral
/// joins re-execute their right side per left row, and nested-loop /
/// merge joins are row-wise by nature — those run through the row
/// engine wholesale.
fn batchable(node: &PlanNode) -> bool {
    match node {
        PlanNode::Join {
            method, lateral, ..
        } => !*lateral && matches!(method, JoinMethod::Hash),
        _ => true,
    }
}

/// Executes the plan node at position `id` into batches, recording
/// per-operator metrics under the id the row engine uses (so EXPLAIN
/// ANALYZE output and the differential oracle line up across engines).
pub(crate) fn exec_node_batched(
    eng: &Engine<'_>,
    node: &PlanNode,
    id: PlanNodeId,
    binds: &Bindings<'_>,
) -> Result<Vec<Batch>> {
    if !batchable(node) {
        // exec_node records its own metrics for this node and its subtree
        let rows = eng.exec_node(node, id, binds)?;
        return Ok(rows_to_batches(rows, node.width()));
    }
    if !eng.metrics_enabled() {
        return exec_node_batched_inner(eng, node, id, binds);
    }
    let work0 = eng.work_now();
    let start = eng.metrics_timed().then(std::time::Instant::now);
    let out = exec_node_batched_inner(eng, node, id, binds)?;
    eng.record_metric(
        id,
        out.iter().map(|b| b.len as u64).sum(),
        eng.work_now() - work0,
        start.map(|s| s.elapsed()).unwrap_or_default(),
    );
    Ok(out)
}

fn exec_node_batched_inner(
    eng: &Engine<'_>,
    node: &PlanNode,
    id: PlanNodeId,
    binds: &Bindings<'_>,
) -> Result<Vec<Batch>> {
    match node {
        PlanNode::OneRow => {
            eng.add_work(weights::ROW);
            Ok(vec![Batch {
                cols: Vec::new(),
                len: 1,
            }])
        }
        PlanNode::ScanBase {
            table,
            refid,
            width,
            access,
            filter,
            ..
        } => {
            cbqt_common::failpoint!(failpoint::EXEC_SCAN);
            let w = *width;
            let layout = Layout {
                slots: vec![(*refid, 0, w)],
                width: w,
            };
            let ctx = eng.simple_ctx(&layout, binds);
            let data = eng.snapshot().table(*table)?;
            let ordinals = eng.scan_ordinals(access, &ctx, &data)?;
            let cxp = CompileCtx::plain(&layout, eng.params());
            let progs: Vec<VecExpr> = filter.iter().map(|c| compile(c, &cxp)).collect();
            let needs_full = progs.iter().any(VecExpr::uses_fallback);
            let have = needed_cols(&progs, w, needs_full);
            let mut out = Vec::new();
            for chunk in ordinals.chunks(BATCH_SIZE) {
                eng.tick_rows(chunk.len() as u64)?;
                // materialize only the columns the filter reads; the
                // ROWID pseudo-column sits at index `w - 1`
                let mut fb = Batch {
                    cols: vec![Vec::new(); w],
                    len: chunk.len(),
                };
                for (j, col) in fb.cols.iter_mut().enumerate() {
                    if !have[j] {
                        continue;
                    }
                    col.reserve(chunk.len());
                    if j + 1 == w {
                        col.extend(chunk.iter().map(|&o| Value::Int(o as i64)));
                    } else {
                        col.extend(chunk.iter().map(|&o| data.row(o)[j].clone()));
                    }
                }
                let sel = filter_batch(eng, &fb, &progs, &ctx)?;
                if sel.is_empty() {
                    continue;
                }
                // full-width output for the survivors only
                let mut ob = Batch {
                    cols: vec![Vec::with_capacity(sel.len()); w],
                    len: sel.len(),
                };
                for (j, col) in ob.cols.iter_mut().enumerate() {
                    if have[j] {
                        col.extend(sel.iter().map(|&k| fb.cols[j][k].clone()));
                    } else if j + 1 == w {
                        col.extend(sel.iter().map(|&k| Value::Int(chunk[k] as i64)));
                    } else {
                        col.extend(sel.iter().map(|&k| data.row(chunk[k])[j].clone()));
                    }
                }
                out.push(ob);
            }
            Ok(out)
        }
        PlanNode::ScanView {
            refid,
            width,
            plan,
            filter,
            ..
        } => {
            let rows = eng.execute_cached(plan, id.first_child(), binds)?;
            let w = *width;
            let layout = Layout {
                slots: vec![(*refid, 0, w)],
                width: w,
            };
            let ctx = eng.simple_ctx(&layout, binds);
            let cxp = CompileCtx::plain(&layout, eng.params());
            let progs: Vec<VecExpr> = filter.iter().map(|c| compile(c, &cxp)).collect();
            let needs_full = progs.iter().any(VecExpr::uses_fallback);
            let have = needed_cols(&progs, w, needs_full);
            let mut out = Vec::new();
            let mut start = 0usize;
            while start < rows.len() {
                let end = (start + BATCH_SIZE).min(rows.len());
                let n = end - start;
                eng.tick_rows(n as u64)?;
                eng.add_work(n as f64 * weights::ROW);
                let mut fb = Batch {
                    cols: vec![Vec::new(); w],
                    len: n,
                };
                for (j, col) in fb.cols.iter_mut().enumerate() {
                    if !have[j] {
                        continue;
                    }
                    col.reserve(n);
                    col.extend(rows[start..end].iter().map(|r| r[j].clone()));
                }
                let sel = filter_batch(eng, &fb, &progs, &ctx)?;
                if !sel.is_empty() {
                    let mut ob = Batch {
                        cols: vec![Vec::with_capacity(sel.len()); w],
                        len: sel.len(),
                    };
                    for (j, col) in ob.cols.iter_mut().enumerate() {
                        if have[j] {
                            col.extend(sel.iter().map(|&k| fb.cols[j][k].clone()));
                        } else {
                            col.extend(sel.iter().map(|&k| rows[start + k][j].clone()));
                        }
                    }
                    out.push(ob);
                }
                start = end;
            }
            Ok(out)
        }
        PlanNode::Join {
            left,
            right,
            kind,
            equi,
            residual,
            ..
        } => hash_join_batched(
            eng,
            left,
            right,
            id,
            *kind,
            equi,
            residual,
            binds,
            node.width(),
        ),
    }
}

/// Column mask for sparse scan materialization: which of the `w` batch
/// columns the filter programs read. Fallback programs gather full rows,
/// so they force every column on.
fn needed_cols(progs: &[VecExpr], w: usize, needs_full: bool) -> Vec<bool> {
    let mut have = vec![needs_full; w];
    if !needs_full {
        let mut idx = Vec::new();
        for p in progs {
            p.collect_cols(&mut idx);
        }
        for j in idx {
            if j < w {
                have[j] = true;
            }
        }
    }
    have
}

/// Applies compiled filter conjuncts to a batch with selection
/// refinement. Charges one PRED per conjunct per row still selected —
/// the aggregate of the row engine's per-row break-on-fail charges.
pub(crate) fn filter_batch(
    eng: &Engine<'_>,
    b: &Batch,
    progs: &[VecExpr],
    ctx: &EvalCtx<'_>,
) -> Result<Vec<usize>> {
    let mut sel: Vec<usize> = (0..b.len).collect();
    for p in progs {
        if sel.is_empty() {
            break;
        }
        eng.add_work(sel.len() as f64 * weights::PRED);
        let t = p.eval_truth(b, &sel, ctx)?;
        sel = sel
            .iter()
            .zip(t.iter())
            .filter(|(_, t)| t.passes())
            .map(|(&i, _)| i)
            .collect();
    }
    Ok(sel)
}

/// Hash join over batches: build and probe keys are computed column-wise
/// per batch; candidate matching, residual predicates, and output
/// emission mirror the row engine's `hash_join` exactly (same tick
/// counts, same work charges, same null-aware anti-join semantics).
#[allow(clippy::too_many_arguments)]
fn hash_join_batched(
    eng: &Engine<'_>,
    left: &PlanNode,
    right: &PlanNode,
    id: PlanNodeId,
    kind: PlanJoinKind,
    equi: &[(QExpr, QExpr)],
    residual: &[QExpr],
    binds: &Bindings<'_>,
    out_width: usize,
) -> Result<Vec<Batch>> {
    cbqt_common::failpoint!(failpoint::EXEC_JOIN);
    let (left_id, right_id) = (id.first_child(), eng.after(id.first_child()));
    let lbatches = exec_node_batched(eng, left, left_id, binds)?;
    let llayout = Layout::from_node(left);
    let rlayout = Layout::from_node(right);
    let combined = combined_layout(&llayout, &rlayout);
    let rwidth = right.width();
    let cctx = eng.simple_ctx(&combined, binds);
    let rkctx = eng.simple_ctx(&rlayout, binds);
    let lkctx = eng.simple_ctx(&llayout, binds);
    let rbatches = exec_node_batched(eng, right, right_id, binds)?;

    // build on right
    let rprogs: Vec<VecExpr> = {
        let cxr = CompileCtx::plain(&rlayout, eng.params());
        equi.iter().map(|(_, re)| compile(re, &cxr)).collect()
    };
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    let mut null_rows = Vec::new();
    let mut base = 0usize;
    for b in &rbatches {
        eng.tick_rows(b.len as u64)?;
        eng.add_work(b.len as f64 * weights::HASH_BUILD);
        let sel: Vec<usize> = (0..b.len).collect();
        let kcols: Vec<Vec<Value>> = rprogs
            .iter()
            .map(|p| p.eval(b, &sel, &rkctx))
            .collect::<Result<_>>()?;
        for i in 0..b.len {
            let key: Vec<Value> = kcols.iter().map(|c| c[i].clone()).collect();
            if key.iter().any(Value::is_null) {
                null_rows.push(base + i);
                continue;
            }
            table.entry(key).or_default().push(base + i);
        }
        base += b.len;
    }
    let rrows = batches_to_rows(rbatches);

    // probe keys, column-wise per left batch
    let lprogs: Vec<VecExpr> = {
        let cxl = CompileCtx::plain(&llayout, eng.params());
        equi.iter().map(|(le, _)| compile(le, &cxl)).collect()
    };
    let mut lkeys: Vec<Vec<Value>> = Vec::new();
    for b in &lbatches {
        eng.tick_rows(b.len as u64)?;
        eng.add_work(b.len as f64 * weights::HASH_PROBE);
        let sel: Vec<usize> = (0..b.len).collect();
        let kcols: Vec<Vec<Value>> = lprogs
            .iter()
            .map(|p| p.eval(b, &sel, &lkctx))
            .collect::<Result<_>>()?;
        for i in 0..b.len {
            lkeys.push(kcols.iter().map(|c| c[i].clone()).collect());
        }
    }
    let lrows = batches_to_rows(lbatches);

    let mut out: Vec<Row> = Vec::new();
    for (k, lrow) in lrows.iter().enumerate() {
        let key = &lkeys[k];
        let null_key = key.iter().any(Value::is_null);
        let hits = if null_key { None } else { table.get(key) };
        let mut matched = false;
        if let Some(idxs) = hits {
            for &i in idxs {
                eng.tick()?;
                let rrow = &rrows[i];
                if !residual.is_empty() {
                    eng.add_work(residual.len() as f64 * weights::PRED);
                    let crow = concat(lrow, rrow);
                    let mut pass = true;
                    for c in residual {
                        if !cctx.eval_truth(c, &crow)?.passes() {
                            pass = false;
                            break;
                        }
                    }
                    if !pass {
                        continue;
                    }
                }
                matched = true;
                match kind {
                    PlanJoinKind::Inner | PlanJoinKind::LeftOuter => {
                        out.push(concat(lrow, rrow));
                    }
                    PlanJoinKind::Semi => {
                        out.push(lrow.clone());
                        break;
                    }
                    PlanJoinKind::Anti { .. } => break,
                }
            }
        }
        if !matched {
            match kind {
                PlanJoinKind::LeftOuter => out.push(null_pad(lrow, rwidth)),
                PlanJoinKind::Anti { null_aware } => {
                    let rejects = null_aware
                        && eng.null_aware_rejects(
                            &cctx, lrow, null_key, &rrows, &null_rows, residual,
                        )?;
                    if !rejects {
                        out.push(lrow.clone());
                    }
                }
                _ => {}
            }
        }
    }
    eng.add_work(out.len() as f64 * weights::ROW);
    Ok(rows_to_batches(out, out_width))
}

/// Vectorized select-block pipeline: the batch counterpart of
/// `Engine::exec_select`, stage for stage.
pub(crate) fn exec_select_batched(
    eng: &Engine<'_>,
    sp: &SelectPlan,
    id: PlanNodeId,
    binds: &Bindings<'_>,
) -> Result<Vec<Row>> {
    let mut batches = exec_node_batched(eng, &sp.join, id.first_child(), binds)?;
    let base_ctx = EvalCtx::of_select(eng, sp, id, binds);
    let cx = CompileCtx {
        layout: &sp.layout,
        aggs: &sp.aggs,
        agg_base: sp.layout.width,
        windows: &sp.windows,
        win_base: sp.layout.width + sp.aggs.len(),
        params: eng.params(),
    };

    // WHERE residue + ROWNUM
    if sp.rownum_limit.is_some() {
        // the limit's early exit decides exactly which rows ever get
        // evaluated — reuse the shared row loop
        let rows = eng.post_filter_rows(sp, &base_ctx, batches_to_rows(batches))?;
        batches = rows_to_batches(rows, sp.layout.width);
    } else {
        let progs: Vec<VecExpr> = sp.post_filter.iter().map(|c| compile(c, &cx)).collect();
        let mut kept = Vec::with_capacity(batches.len());
        for b in batches {
            eng.tick_rows(b.len as u64)?;
            let sel = filter_batch(eng, &b, &progs, &base_ctx)?;
            if sel.len() == b.len {
                kept.push(b);
            } else if !sel.is_empty() {
                kept.push(b.gather(&sel));
            }
        }
        batches = kept;
    }

    // aggregation + HAVING
    let aggregated = !sp.group_by.is_empty()
        || sp.grouping_sets.is_some()
        || !sp.aggs.is_empty()
        || !sp.having.is_empty();
    if aggregated {
        batches = aggregate_batched(eng, sp, &base_ctx, &cx, batches)?;
        let progs: Vec<VecExpr> = sp.having.iter().map(|c| compile(c, &cx)).collect();
        let mut kept = Vec::with_capacity(batches.len());
        for b in batches {
            // no governor tick here: the row engine doesn't tick HAVING
            let sel = filter_batch(eng, &b, &progs, &base_ctx)?;
            if sel.len() == b.len {
                kept.push(b);
            } else if !sel.is_empty() {
                kept.push(b.gather(&sel));
            }
        }
        batches = kept;
    }

    // window functions: row-wise stage shared with the row engine
    if !sp.windows.is_empty() {
        let mut rows = batches_to_rows(batches);
        compute_windows(&base_ctx, &mut rows, &sp.windows)?;
        let w = rows.first().map(|r| r.len()).unwrap_or(0);
        batches = rows_to_batches(rows, w);
    }

    // distinct / distinct-on: first-occurrence order across batches
    if sp.distinct || sp.distinct_keys.is_some() {
        let keys: Vec<QExpr> = match &sp.distinct_keys {
            Some(k) => k.clone(),
            None => sp.select.clone(),
        };
        let kprogs: Vec<VecExpr> = keys.iter().map(|e| compile(e, &cx)).collect();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let mut kept = Vec::with_capacity(batches.len());
        for b in batches {
            eng.add_work(b.len as f64 * weights::DEDUP);
            let sel: Vec<usize> = (0..b.len).collect();
            let kcols: Vec<Vec<Value>> = kprogs
                .iter()
                .map(|p| p.eval(&b, &sel, &base_ctx))
                .collect::<Result<_>>()?;
            let mut keep = Vec::new();
            for i in 0..b.len {
                let key: Vec<Value> = kcols.iter().map(|c| c[i].clone()).collect();
                if seen.insert(key) {
                    keep.push(i);
                }
            }
            if keep.len() == b.len {
                kept.push(b);
            } else if !keep.is_empty() {
                kept.push(b.gather(&keep));
            }
        }
        batches = kept;
    }

    // order by: keys computed column-wise, then one stable sort
    if !sp.order_by.is_empty() {
        let total: usize = batches.iter().map(|b| b.len).sum();
        let n = total.max(2) as f64;
        eng.add_work(weights::SORT * n * n.log2());
        let oprogs: Vec<VecExpr> = sp.order_by.iter().map(|o| compile(&o.expr, &cx)).collect();
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(total);
        for b in batches {
            let sel: Vec<usize> = (0..b.len).collect();
            let kcols: Vec<Vec<Value>> = oprogs
                .iter()
                .map(|p| p.eval(&b, &sel, &base_ctx))
                .collect::<Result<_>>()?;
            for (i, r) in b.into_rows().into_iter().enumerate() {
                keyed.push((kcols.iter().map(|c| c[i].clone()).collect(), r));
            }
        }
        keyed.sort_by(|a, b| {
            for (j, o) in sp.order_by.iter().enumerate() {
                let ord = order_cmp(&a.0[j], &b.0[j], o.desc, o.nulls_first);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
        let w = rows.first().map(|r| r.len()).unwrap_or(0);
        batches = rows_to_batches(rows, w);
    }

    // projection
    let sprogs: Vec<VecExpr> = sp.select.iter().map(|e| compile(e, &cx)).collect();
    let mut out: Vec<Row> = Vec::new();
    for b in batches {
        eng.tick_rows(b.len as u64)?;
        eng.add_work(b.len as f64 * weights::ROW);
        let sel: Vec<usize> = (0..b.len).collect();
        let pcols: Vec<Vec<Value>> = sprogs
            .iter()
            .map(|p| p.eval(&b, &sel, &base_ctx))
            .collect::<Result<_>>()?;
        out.extend(
            Batch {
                cols: pcols,
                len: b.len,
            }
            .into_rows(),
        );
    }
    Ok(out)
}

/// Batch-granular hash aggregation with representative-row semantics,
/// grouping sets, and the empty-input scalar group — the exact semantics
/// of `Engine::aggregate`, with group keys and aggregate arguments
/// evaluated column-wise per batch.
fn aggregate_batched(
    eng: &Engine<'_>,
    sp: &SelectPlan,
    ctx: &EvalCtx<'_>,
    cx: &CompileCtx<'_>,
    batches: Vec<Batch>,
) -> Result<Vec<Batch>> {
    cbqt_common::failpoint!(failpoint::EXEC_AGG);
    let sets: Vec<Vec<usize>> = match &sp.grouping_sets {
        Some(s) => s.clone(),
        None => vec![(0..sp.group_by.len()).collect()],
    };
    let make_accs = || -> Result<Vec<AggAcc>> {
        sp.aggs
            .iter()
            .map(|a| match a {
                QExpr::Agg { func, distinct, .. } => Ok(if *distinct {
                    AggAcc::new_distinct(*func)
                } else {
                    AggAcc::new(*func)
                }),
                _ => Err(Error::execution("non-aggregate in agg slot list")),
            })
            .collect()
    };
    let gprogs: Vec<VecExpr> = sp.group_by.iter().map(|g| compile(g, cx)).collect();
    // aggregate argument programs; a non-Agg slot errors later via
    // make_accs, matching the row engine
    let aprogs: Vec<Option<VecExpr>> = sp
        .aggs
        .iter()
        .map(|a| match a {
            QExpr::Agg { arg, .. } => arg.as_ref().map(|x| compile(x, cx)),
            _ => None,
        })
        .collect();

    let mut out_rows: Vec<Row> = Vec::new();
    for set in &sets {
        let mut groups: HashMap<Vec<Value>, (Row, Vec<AggAcc>)> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for b in &batches {
            eng.tick_rows(b.len as u64)?;
            eng.add_work(b.len as f64 * weights::AGG);
            let sel: Vec<usize> = (0..b.len).collect();
            let kcols: Vec<Vec<Value>> = set
                .iter()
                .map(|&i| gprogs[i].eval(b, &sel, ctx))
                .collect::<Result<_>>()?;
            let acols: Vec<Option<Vec<Value>>> = aprogs
                .iter()
                .map(|p| match p {
                    Some(p) => p.eval(b, &sel, ctx).map(Some),
                    None => Ok(None),
                })
                .collect::<Result<_>>()?;
            for i in 0..b.len {
                let key: Vec<Value> = kcols.iter().map(|c| c[i].clone()).collect();
                let entry = match groups.get_mut(&key) {
                    Some(e) => e,
                    None => {
                        order.push(key.clone());
                        groups
                            .entry(key.clone())
                            .or_insert((b.gather_row(i), make_accs()?))
                    }
                };
                for (j, acc) in entry.1.iter_mut().enumerate() {
                    let v = match &acols[j] {
                        Some(c) => c[i].clone(),
                        None => Value::Int(1),
                    };
                    acc.add(&v);
                }
            }
        }
        // scalar aggregate over empty input: one all-NULL group
        if groups.is_empty() && sp.group_by.is_empty() && sets.len() == 1 {
            let mut row: Row = vec![Value::Null; sp.layout.width];
            for acc in &make_accs()? {
                row.push(acc.finish());
            }
            out_rows.push(row);
            continue;
        }
        let full_set: HashSet<usize> = set.iter().copied().collect();
        for key in order {
            let (mut rep, accs) = groups.remove(&key).unwrap();
            // grouping-set semantics: group-by columns not in this set
            // read as NULL (simple column group-bys only, which is all
            // the builder produces for ROLLUP)
            if sp.grouping_sets.is_some() {
                for (i, g) in sp.group_by.iter().enumerate() {
                    if !full_set.contains(&i) {
                        if let QExpr::Col { table, column } = g {
                            if let Some((off, w)) = sp.layout.offset_of(*table) {
                                if *column < w {
                                    rep[off + column] = Value::Null;
                                }
                            }
                        }
                    }
                }
            }
            for acc in &accs {
                rep.push(acc.finish());
            }
            out_rows.push(rep);
        }
    }
    Ok(rows_to_batches(out_rows, sp.layout.width + sp.aggs.len()))
}
