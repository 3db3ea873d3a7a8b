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
//! Rows stay in batches through joins and aggregates. A hash join builds
//! a table from key to right-side row ids and emits pairs of ids, and
//! its output is gathered column by column from those pairs. GROUP BY,
//! DISTINCT and ORDER BY work on row ids and group ids too: a row's key
//! is hashed once and compared in place, never copied into a per-row
//! key. Each select block computes once per execution the set of
//! columns anything above its scans reads ([`Live`]); scans, views and
//! joins materialize only those, and the others stay empty `Vec`s.
//!
//! Nested-loop, merge and lateral joins produce their inputs batched and
//! run the row loop both engines share ([`Engine::join_rows`]). What
//! still runs row-wise: the right side of a lateral join (once per left
//! row, through [`Engine::exec_node`]), window frames, the ROWNUM early
//! exit, and correlated subqueries.

use crate::engine::{combined_layout, order_cmp, Engine, RightInput};
use crate::eval::{compute_windows, AggAcc, Bindings, EvalCtx};
use crate::vexpr::{compile, CompileCtx, VecExpr};
use cbqt_common::failpoint;
use cbqt_common::hash::hash_all;
use cbqt_common::{Error, Result, Row, Value};
use cbqt_optimizer::{weights, JoinMethod, Layout, PlanJoinKind, PlanNode, PlanNodeId, SelectPlan};
use cbqt_qgm::{QExpr, RefId};
use std::borrow::Cow;

/// Target rows per batch: large enough to amortize per-batch dispatch,
/// small enough to keep a batch's columns cache-resident.
pub(crate) const BATCH_SIZE: usize = 1024;

/// A columnar batch: `cols[j][i]` is column `j` of row `i`.
///
/// A zero-width batch (`cols` empty) still carries `len` rows — the
/// OneRow source produces exactly that shape. A column no operator above
/// reads is *pruned*: it stays an empty `Vec` while `len > 0`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch {
    pub cols: Vec<Vec<Value>>,
    pub len: usize,
}

impl Batch {
    /// Whether column `j` is materialized (not pruned).
    fn has(&self, j: usize) -> bool {
        self.cols[j].len() == self.len
    }

    /// Reassembles row `i` as a wide row (for row-wise fallbacks); a
    /// pruned column reads NULL.
    pub fn gather_row(&self, i: usize) -> Row {
        self.cols
            .iter()
            .map(|c| c.get(i).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Keeps only the rows named by `sel`, in order.
    pub fn gather(&self, sel: &[usize]) -> Batch {
        Batch {
            cols: (0..self.cols.len())
                .map(|j| match self.has(j) {
                    true => sel.iter().map(|&i| self.cols[j][i].clone()).collect(),
                    false => Vec::new(),
                })
                .collect(),
            len: sel.len(),
        }
    }

    /// Moves the batch into row form; a pruned column reads NULL.
    pub fn into_rows(self) -> Vec<Row> {
        let len = self.len;
        let mut iters: Vec<Option<std::vec::IntoIter<Value>>> = self
            .cols
            .into_iter()
            .map(|c| (c.len() == len).then(|| c.into_iter()))
            .collect();
        (0..len)
            .map(|_| {
                iters
                    .iter_mut()
                    .map(|it| it.as_mut().map_or(Value::Null, |it| it.next().unwrap()))
                    .collect()
            })
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

/// Splits full-length columns into batches of at most [`BATCH_SIZE`]
/// rows; a column shorter than `len` is pruned and stays empty.
fn into_batches(cols: Vec<Vec<Value>>, len: usize) -> Vec<Batch> {
    if len <= BATCH_SIZE {
        return match len {
            0 => Vec::new(),
            _ => vec![Batch { cols, len }],
        };
    }
    let mut iters: Vec<Option<std::vec::IntoIter<Value>>> = cols
        .into_iter()
        .map(|c| (c.len() == len).then(|| c.into_iter()))
        .collect();
    (0..len)
        .step_by(BATCH_SIZE)
        .map(|start| {
            let n = BATCH_SIZE.min(len - start);
            let cols = iters
                .iter_mut()
                .map(|it| match it {
                    Some(it) => it.by_ref().take(n).collect(),
                    None => Vec::new(),
                })
                .collect();
            Batch { cols, len: n }
        })
        .collect()
}

/// A row's position among the batches of one operator's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rid {
    b: u32,
    r: u32,
}

impl Rid {
    fn new(b: usize, r: usize) -> Rid {
        Rid {
            b: b as u32,
            r: r as u32,
        }
    }
}

/// The right id of an outer join's NULL-padded row.
const PAD: Rid = Rid {
    b: u32::MAX,
    r: u32::MAX,
};

/// Column `j` of the rows `ids` names, in order; [`PAD`] reads NULL.
fn gather_col(src: &[Batch], j: usize, ids: impl Iterator<Item = Rid>) -> Vec<Value> {
    ids.map(|id| match id == PAD {
        true => Value::Null,
        false => src[id.b as usize].cols[j][id.r as usize].clone(),
    })
    .collect()
}

/// The rows `ids` names, gathered column by column into batches of at
/// most [`BATCH_SIZE`]; columns pruned in `src` stay pruned.
fn gather_ids(src: &[Batch], ids: &[Rid]) -> Vec<Batch> {
    let width = src.first().map_or(0, |b| b.cols.len());
    let keep: Vec<bool> = (0..width).map(|j| src.iter().all(|b| b.has(j))).collect();
    ids.chunks(BATCH_SIZE)
        .map(|chunk| Batch {
            cols: (0..width)
                .map(|j| match keep[j] {
                    true => gather_col(src, j, chunk.iter().copied()),
                    false => Vec::new(),
                })
                .collect(),
            len: chunk.len(),
        })
        .collect()
}

/// The columns of a select block's join tree that anything above the
/// scans reads, as sorted `(table reference, column)` pairs: the union
/// of the columns of its post-join filter, GROUP BY keys, aggregate
/// arguments, HAVING, DISTINCT / ORDER BY keys and select list, and of
/// every join's equi-keys and residual. Computed once per execution of
/// the block.
pub(crate) struct Live(Vec<(RefId, usize)>);

impl Live {
    /// `None` keeps every column: the block has a row-wise stage that
    /// may read any column of a row — a fallback program (a subquery or
    /// an outer reference), a lateral join, window functions or a
    /// ROWNUM limit.
    fn of(sp: &SelectPlan) -> Option<Live> {
        if !sp.windows.is_empty() || sp.rownum_limit.is_some() {
            return None;
        }
        let (mut cols, mut defined) = (Vec::new(), Vec::new());
        if !join_cols(&sp.join, &mut cols, &mut defined)
            || cols.iter().any(|(r, _)| !defined.contains(r))
        {
            return None;
        }
        let joins = cols.len();
        let block = sp
            .post_filter
            .iter()
            .chain(&sp.group_by)
            .chain(&sp.aggs)
            .chain(&sp.having)
            .chain(sp.distinct_keys.iter().flatten())
            .chain(sp.order_by.iter().map(|o| &o.expr))
            .chain(&sp.select);
        for e in block {
            if e.contains_subquery() {
                return None;
            }
            e.collect_cols(&mut cols);
        }
        if cols[joins..]
            .iter()
            .any(|(r, _)| sp.layout.offset_of(*r).is_none())
        {
            return None;
        }
        cols.sort_unstable();
        cols.dedup();
        Some(Live(cols))
    }

    /// Which columns of `layout` to materialize (all of them without a
    /// mask).
    fn mask(live: Option<&Live>, layout: &Layout) -> Vec<bool> {
        let Some(live) = live else {
            return vec![true; layout.width];
        };
        let mut keep = vec![false; layout.width];
        for &(r, c) in &live.0 {
            if let Some((off, w)) = layout.offset_of(r) {
                if c < w {
                    keep[off + c] = true;
                }
            }
        }
        keep
    }
}

/// Collects the columns a join tree's keys and residuals read, and the
/// references it defines. False when the tree needs full rows: a
/// lateral join, or a key or residual with a subquery.
fn join_cols(node: &PlanNode, cols: &mut Vec<(RefId, usize)>, defined: &mut Vec<RefId>) -> bool {
    match node {
        PlanNode::OneRow => true,
        PlanNode::ScanBase { refid, .. } | PlanNode::ScanView { refid, .. } => {
            defined.push(*refid);
            true
        }
        PlanNode::Join {
            left,
            right,
            equi,
            residual,
            lateral,
            ..
        } => {
            let exprs = equi.iter().flat_map(|(l, r)| [l, r]).chain(residual);
            for e in exprs {
                if e.contains_subquery() {
                    return false;
                }
                e.collect_cols(cols);
            }
            !*lateral && join_cols(left, cols, defined) && join_cols(right, cols, defined)
        }
    }
}

/// Evaluates `progs` over every row of `b`; a bare column is borrowed,
/// not copied.
fn eval_all<'b, 'p>(
    progs: impl IntoIterator<Item = &'p VecExpr>,
    b: &'b Batch,
    ctx: &EvalCtx<'_>,
) -> Result<Vec<Cow<'b, [Value]>>> {
    let mut all: Option<Vec<usize>> = None;
    progs
        .into_iter()
        .map(|p| match p {
            VecExpr::Col(i) => {
                debug_assert!(b.has(*i), "a program reads pruned column {i}");
                Ok(Cow::Borrowed(&b.cols[*i][..]))
            }
            _ => {
                let sel = all.get_or_insert_with(|| (0..b.len).collect());
                p.eval(b, sel, ctx).map(Cow::Owned)
            }
        })
        .collect()
}

/// The hash of row `i`'s key, over the key columns `kc`.
fn key_hash(kc: &[Cow<[Value]>], i: usize) -> u64 {
    hash_all(kc.iter().map(|c| &c[i]))
}

/// Whether row `i`'s key equals `key`, value by value under `Value`'s
/// equality: NULL meets NULL (a join drops NULL keys before asking) and
/// `Int(1)` meets `Double(1.0)`, as in the row engine's hash tables.
fn key_eq<'v>(kc: &[Cow<[Value]>], i: usize, key: impl IntoIterator<Item = &'v Value>) -> bool {
    kc.iter().zip(key).all(|(c, k)| c[i] == *k)
}

/// Groups of equal keys, found by hash: each bucket chains the ids of
/// the groups whose key hashes there, and a lookup confirms a candidate
/// with the caller's full-key comparison, so two keys that merely share
/// a hash stay two groups. Ids count up from 0 in first-insertion order.
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    /// Bucket (`hash & (len - 1)`) → newest group in its chain.
    heads: Vec<u32>,
    /// Group → the next group in its bucket's chain.
    next: Vec<u32>,
    /// Group → its key's hash.
    hashes: Vec<u64>,
}

/// End of a chain.
const NONE: u32 = u32::MAX;

impl GroupTable {
    /// The group whose hash is `h` and whose key `eq` accepts.
    pub fn find(&self, h: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.heads.is_empty() {
            return None;
        }
        let mut g = self.heads[h as usize & (self.heads.len() - 1)];
        while g != NONE {
            if self.hashes[g as usize] == h && eq(g as usize) {
                return Some(g as usize);
            }
            g = self.next[g as usize];
        }
        None
    }

    /// [`find`](GroupTable::find), or a new group; the flag says the
    /// group is new.
    pub fn find_or_insert(&mut self, h: u64, eq: impl FnMut(usize) -> bool) -> (usize, bool) {
        if let Some(g) = self.find(h, eq) {
            return (g, false);
        }
        let g = self.hashes.len();
        if g >= self.heads.len() {
            self.grow();
        }
        let bucket = h as usize & (self.heads.len() - 1);
        self.hashes.push(h);
        self.next.push(self.heads[bucket]);
        self.heads[bucket] = g as u32;
        (g, true)
    }

    /// Doubles the buckets (at least 16), keeping at most one group per
    /// bucket on average.
    fn grow(&mut self) {
        let n = (self.heads.len() * 2).max(16);
        self.heads = vec![NONE; n];
        for (g, h) in self.hashes.iter().enumerate() {
            let bucket = *h as usize & (n - 1);
            self.next[g] = self.heads[bucket];
            self.heads[bucket] = g as u32;
        }
    }
}

/// Executes the plan node at position `id` into batches, recording
/// per-operator metrics under the id the row engine uses (so EXPLAIN
/// ANALYZE output and the differential oracle line up across engines).
/// Only the columns `live` names are materialized.
pub(crate) fn exec_node_batched(
    eng: &Engine<'_>,
    node: &PlanNode,
    id: PlanNodeId,
    binds: &Bindings<'_>,
    live: Option<&Live>,
) -> Result<Vec<Batch>> {
    if !eng.metrics_enabled() {
        return exec_node_batched_inner(eng, node, id, binds, live);
    }
    let work0 = eng.work_now();
    let start = eng.metrics_timed().then(std::time::Instant::now);
    let out = exec_node_batched_inner(eng, node, id, binds, live)?;
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
    live: Option<&Live>,
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
            let keep = Live::mask(live, &layout);
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
                // the live columns of the survivors only
                let all = sel.len() == chunk.len();
                let cols = (0..w).map(|j| match (keep[j], have[j]) {
                    (false, _) => Vec::new(),
                    (true, true) if all => std::mem::take(&mut fb.cols[j]),
                    (true, true) => sel.iter().map(|&k| fb.cols[j][k].clone()).collect(),
                    (true, false) if j + 1 == w => {
                        sel.iter().map(|&k| Value::Int(chunk[k] as i64)).collect()
                    }
                    (true, false) => sel.iter().map(|&k| data.row(chunk[k])[j].clone()).collect(),
                });
                out.push(Batch {
                    cols: cols.collect(),
                    len: sel.len(),
                });
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
            let keep = Live::mask(live, &layout);
            let mut out = Vec::new();
            for rows in rows.chunks(BATCH_SIZE) {
                let n = rows.len();
                eng.tick_rows(n as u64)?;
                eng.add_work(n as f64 * weights::ROW);
                let mut fb = Batch {
                    cols: vec![Vec::new(); w],
                    len: n,
                };
                for (j, col) in fb.cols.iter_mut().enumerate() {
                    if have[j] {
                        col.extend(rows.iter().map(|r| r[j].clone()));
                    }
                }
                let sel = filter_batch(eng, &fb, &progs, &ctx)?;
                if sel.is_empty() {
                    continue;
                }
                let all = sel.len() == n;
                let cols = (0..w).map(|j| match (keep[j], have[j]) {
                    (false, _) => Vec::new(),
                    (true, true) if all => std::mem::take(&mut fb.cols[j]),
                    (true, true) => sel.iter().map(|&k| fb.cols[j][k].clone()).collect(),
                    (true, false) => sel.iter().map(|&k| rows[k][j].clone()).collect(),
                });
                out.push(Batch {
                    cols: cols.collect(),
                    len: sel.len(),
                });
            }
            Ok(out)
        }
        PlanNode::Join {
            left,
            right,
            kind,
            method: JoinMethod::Hash,
            equi,
            residual,
            lateral: false,
            ..
        } => hash_join_batched(eng, left, right, id, *kind, equi, residual, binds, live),
        PlanNode::Join {
            left,
            right,
            kind,
            method,
            equi,
            residual,
            lateral,
            ..
        } => {
            // both inputs batched, then the row loop the engines share;
            // a lateral right side runs row-wise, once per left row
            cbqt_common::failpoint!(failpoint::EXEC_JOIN);
            let (left_id, right_id) = (id.first_child(), eng.after(id.first_child()));
            let lrows = batches_to_rows(exec_node_batched(eng, left, left_id, binds, live)?);
            let right_in = match lateral {
                true => RightInput::Lateral(right, right_id),
                false => {
                    let rbatches = exec_node_batched(eng, right, right_id, binds, live)?;
                    RightInput::Rows(right, batches_to_rows(rbatches))
                }
            };
            let out = eng.join_rows(
                left, right_in, *kind, *method, equi, residual, &lrows, binds,
            )?;
            Ok(rows_to_batches(out, node.width()))
        }
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

/// Hash join over batches that emits row ids: the build side becomes one
/// group per distinct non-NULL key, holding its right-side row ids in
/// build order; the probe writes pairs of left id and right id (or
/// [`PAD`]), and the output is gathered column by column from those
/// pairs — the live columns only. Candidate order, residual checks,
/// ticks, work charges and null-aware anti-join semantics are the row
/// engine's `hash_join`, exactly.
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
    live: Option<&Live>,
) -> Result<Vec<Batch>> {
    cbqt_common::failpoint!(failpoint::EXEC_JOIN);
    let (left_id, right_id) = (id.first_child(), eng.after(id.first_child()));
    let lbatches = exec_node_batched(eng, left, left_id, binds, live)?;
    let llayout = Layout::from_node(left);
    let rlayout = Layout::from_node(right);
    let combined = combined_layout(&llayout, &rlayout);
    let cctx = eng.simple_ctx(&combined, binds);
    let rkctx = eng.simple_ctx(&rlayout, binds);
    let lkctx = eng.simple_ctx(&llayout, binds);
    let rbatches = exec_node_batched(eng, right, right_id, binds, live)?;

    // build on right: key groups, each compared by its first row's key
    let rprogs: Vec<VecExpr> = {
        let cxr = CompileCtx::plain(&rlayout, eng.params());
        equi.iter().map(|(_, re)| compile(re, &cxr)).collect()
    };
    let mut rkeys = Vec::with_capacity(rbatches.len());
    let mut table = GroupTable::default();
    let mut first: Vec<Rid> = Vec::new();
    let mut members: Vec<(u32, Rid)> = Vec::new();
    let mut null_rows: Vec<Rid> = Vec::new();
    for (bi, b) in rbatches.iter().enumerate() {
        eng.tick_rows(b.len as u64)?;
        eng.add_work(b.len as f64 * weights::HASH_BUILD);
        rkeys.push(eval_all(&rprogs, b, &rkctx)?);
        let kc = &rkeys[bi];
        for i in 0..b.len {
            if kc.iter().any(|c| c[i].is_null()) {
                null_rows.push(Rid::new(bi, i));
                continue;
            }
            let (g, new) = table.find_or_insert(key_hash(kc, i), |g| {
                let f = first[g];
                key_eq(kc, i, rkeys[f.b as usize].iter().map(|c| &c[f.r as usize]))
            });
            if new {
                first.push(Rid::new(bi, i));
            }
            members.push((g as u32, Rid::new(bi, i)));
        }
    }
    // group g's rows are by_group[starts[g]..starts[g + 1]], in build order
    let mut starts = vec![0usize; first.len() + 1];
    for &(g, _) in &members {
        starts[g as usize + 1] += 1;
    }
    for g in 0..first.len() {
        starts[g + 1] += starts[g];
    }
    let mut fill = starts.clone();
    let mut by_group = vec![PAD; members.len()];
    for (g, rid) in members {
        by_group[fill[g as usize]] = rid;
        fill[g as usize] += 1;
    }

    // probe keys, column-wise per left batch
    let lprogs: Vec<VecExpr> = {
        let cxl = CompileCtx::plain(&llayout, eng.params());
        equi.iter().map(|(le, _)| compile(le, &cxl)).collect()
    };
    let mut lkeys = Vec::with_capacity(lbatches.len());
    for b in &lbatches {
        eng.tick_rows(b.len as u64)?;
        eng.add_work(b.len as f64 * weights::HASH_PROBE);
        lkeys.push(eval_all(&lprogs, b, &lkctx)?);
    }

    let mut pairs: Vec<(Rid, Rid)> = Vec::new();
    // left row ++ candidate right row, for residual checks
    let mut crow: Row = Vec::new();
    // every right row, for a NULL probe key of a null-aware anti join
    let mut all_right: Option<Vec<Rid>> = None;
    for (bi, (b, kc)) in lbatches.iter().zip(&lkeys).enumerate() {
        for i in 0..b.len {
            let lid = Rid::new(bi, i);
            let null_key = kc.iter().any(|c| c[i].is_null());
            let hits: &[Rid] = match null_key {
                true => &[],
                false => {
                    let g = table.find(key_hash(kc, i), |g| {
                        let f = first[g];
                        key_eq(kc, i, rkeys[f.b as usize].iter().map(|c| &c[f.r as usize]))
                    });
                    g.map_or(&[], |g| &by_group[starts[g]..starts[g + 1]])
                }
            };
            if !residual.is_empty() && !hits.is_empty() {
                crow = b.gather_row(i);
            }
            let mut matched = false;
            for &rid in hits {
                eng.tick()?;
                if !residual.is_empty() {
                    eng.add_work(residual.len() as f64 * weights::PRED);
                    crow.truncate(llayout.width);
                    let rb = &rbatches[rid.b as usize];
                    let rv = rb.cols.iter().map(|c| c.get(rid.r as usize));
                    crow.extend(rv.map(|v| v.cloned().unwrap_or(Value::Null)));
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
                    PlanJoinKind::Inner | PlanJoinKind::LeftOuter => pairs.push((lid, rid)),
                    PlanJoinKind::Semi => {
                        pairs.push((lid, PAD));
                        break;
                    }
                    PlanJoinKind::Anti { .. } => break,
                }
            }
            if !matched {
                match kind {
                    PlanJoinKind::LeftOuter => pairs.push((lid, PAD)),
                    PlanJoinKind::Anti { null_aware } => {
                        let rejects = null_aware && {
                            let cands: &[Rid] = match null_key {
                                true => all_right.get_or_insert_with(|| {
                                    let ids = rbatches.iter().enumerate();
                                    ids.flat_map(|(bi, b)| (0..b.len).map(move |i| Rid::new(bi, i)))
                                        .collect()
                                }),
                                false => &null_rows,
                            };
                            let pick = |k: usize| {
                                let rid = cands[k];
                                rbatches[rid.b as usize].gather_row(rid.r as usize)
                            };
                            let lrow = b.gather_row(i);
                            eng.null_aware_rejects(&cctx, &lrow, cands.len(), pick, residual)?
                        };
                        if !rejects {
                            pairs.push((lid, PAD));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    eng.add_work(pairs.len() as f64 * weights::ROW);

    // gather the output, column by column
    let lkeep = Live::mask(live, &llayout);
    let rkeep = match kind {
        PlanJoinKind::Semi | PlanJoinKind::Anti { .. } => Vec::new(),
        _ => Live::mask(live, &rlayout),
    };
    let out = pairs.chunks(BATCH_SIZE).map(|chunk| {
        let lcols = lkeep.iter().enumerate().map(|(j, keep)| match keep {
            true => gather_col(&lbatches, j, chunk.iter().map(|p| p.0)),
            false => Vec::new(),
        });
        let rcols = rkeep.iter().enumerate().map(|(j, keep)| match keep {
            true => gather_col(&rbatches, j, chunk.iter().map(|p| p.1)),
            false => Vec::new(),
        });
        Batch {
            cols: lcols.chain(rcols).collect(),
            len: chunk.len(),
        }
    });
    Ok(out.collect())
}

/// Vectorized select-block pipeline: the batch counterpart of
/// `Engine::exec_select`, stage for stage.
pub(crate) fn exec_select_batched(
    eng: &Engine<'_>,
    sp: &SelectPlan,
    id: PlanNodeId,
    binds: &Bindings<'_>,
) -> Result<Vec<Row>> {
    let live = Live::of(sp);
    let mut batches = exec_node_batched(eng, &sp.join, id.first_child(), binds, live.as_ref())?;
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
        let keep = Live::mask(live.as_ref(), &sp.layout);
        batches = aggregate_batched(eng, sp, &base_ctx, &cx, batches, &keep)?;
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
        let keys = sp.distinct_keys.as_ref().unwrap_or(&sp.select);
        let kprogs: Vec<VecExpr> = keys.iter().map(|e| compile(e, &cx)).collect();
        let mut seen = GroupTable::default();
        let mut seen_keys: Vec<Value> = Vec::new();
        let mut kept = Vec::with_capacity(batches.len());
        for b in batches {
            eng.add_work(b.len as f64 * weights::DEDUP);
            let kc = eval_all(&kprogs, &b, &base_ctx)?;
            let mut keep = Vec::new();
            for i in 0..b.len {
                let nk = kc.len();
                let eq = |g: usize| key_eq(&kc, i, &seen_keys[g * nk..(g + 1) * nk]);
                if seen.find_or_insert(key_hash(&kc, i), eq).1 {
                    seen_keys.extend(kc.iter().map(|c| c[i].clone()));
                    keep.push(i);
                }
            }
            drop(kc);
            if keep.len() == b.len {
                kept.push(b);
            } else if !keep.is_empty() {
                kept.push(b.gather(&keep));
            }
        }
        batches = kept;
    }

    // order by: keys computed column-wise, then one stable sort of row ids
    if !sp.order_by.is_empty() {
        let total: usize = batches.iter().map(|b| b.len).sum();
        let n = total.max(2) as f64;
        eng.add_work(weights::SORT * n * n.log2());
        let oprogs: Vec<VecExpr> = sp.order_by.iter().map(|o| compile(&o.expr, &cx)).collect();
        let sorted = {
            let keys: Vec<Vec<Cow<[Value]>>> = batches
                .iter()
                .map(|b| eval_all(&oprogs, b, &base_ctx))
                .collect::<Result<_>>()?;
            let mut ids: Vec<Rid> = Vec::with_capacity(total);
            for (bi, b) in batches.iter().enumerate() {
                ids.extend((0..b.len).map(|i| Rid::new(bi, i)));
            }
            ids.sort_by(|a, b| {
                let (ka, kb) = (&keys[a.b as usize], &keys[b.b as usize]);
                for (j, o) in sp.order_by.iter().enumerate() {
                    let (x, y) = (&ka[j][a.r as usize], &kb[j][b.r as usize]);
                    let ord = order_cmp(x, y, o.desc, o.nulls_first);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            gather_ids(&batches, &ids)
        };
        batches = sorted;
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

/// Batch-granular hash aggregation by group id, with representative-row
/// semantics, grouping sets, and the empty-input scalar group — the
/// exact semantics of `Engine::aggregate`. Each row's key is hashed once
/// and compared in place against its group's stored key; aggregate
/// arguments are read from their columns by reference. A group's
/// representative row is the id of its first row, gathered (the `keep`
/// columns only) when the groups are complete.
fn aggregate_batched(
    eng: &Engine<'_>,
    sp: &SelectPlan,
    ctx: &EvalCtx<'_>,
    cx: &CompileCtx<'_>,
    batches: Vec<Batch>,
    keep: &[bool],
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
    let (w, na) = (sp.layout.width, sp.aggs.len());
    let count_star = Value::Int(1);

    let mut out: Vec<Vec<Value>> = vec![Vec::new(); w + na];
    let mut out_len = 0usize;
    for set in &sets {
        let nk = set.len();
        let mut table = GroupTable::default();
        // per group: its first row, its key (nk values), its accumulators
        let mut first: Vec<Rid> = Vec::new();
        let mut keys: Vec<Value> = Vec::new();
        let mut accs: Vec<AggAcc> = Vec::new();
        for (bi, b) in batches.iter().enumerate() {
            eng.tick_rows(b.len as u64)?;
            eng.add_work(b.len as f64 * weights::AGG);
            let kc = eval_all(set.iter().map(|&i| &gprogs[i]), b, ctx)?;
            let ac: Vec<Option<Cow<[Value]>>> = aprogs
                .iter()
                .map(|p| match p {
                    Some(p) => Ok(eval_all([p], b, ctx)?.pop()),
                    None => Ok(None),
                })
                .collect::<Result<_>>()?;
            for i in 0..b.len {
                let (g, new) = match nk {
                    0 => (0, first.is_empty()),
                    _ => {
                        let eq = |g: usize| key_eq(&kc, i, &keys[g * nk..(g + 1) * nk]);
                        table.find_or_insert(key_hash(&kc, i), eq)
                    }
                };
                if new {
                    first.push(Rid::new(bi, i));
                    keys.extend(kc.iter().map(|c| c[i].clone()));
                    accs.extend(make_accs()?);
                }
                for (acc, a) in accs[g * na..(g + 1) * na].iter_mut().zip(&ac) {
                    acc.add(a.as_ref().map_or(&count_star, |c| &c[i]));
                }
            }
        }
        // scalar aggregate over empty input: one all-NULL group
        if first.is_empty() && sp.group_by.is_empty() && sets.len() == 1 {
            for (j, col) in out.iter_mut().enumerate().take(w) {
                if keep[j] {
                    col.push(Value::Null);
                }
            }
            for (col, acc) in out[w..].iter_mut().zip(make_accs()?) {
                col.push(acc.finish());
            }
            out_len += 1;
            continue;
        }
        for (j, col) in out.iter_mut().enumerate().take(w) {
            if keep[j] {
                col.extend(gather_col(&batches, j, first.iter().copied()));
            }
        }
        // grouping-set semantics: group-by columns not in this set read
        // as NULL (simple column group-bys only, which is all the
        // builder produces for ROLLUP)
        if sp.grouping_sets.is_some() {
            for (i, g) in sp.group_by.iter().enumerate() {
                if set.contains(&i) {
                    continue;
                }
                if let QExpr::Col { table, column } = g {
                    if let Some((off, cw)) = sp.layout.offset_of(*table) {
                        if *column < cw && keep[off + column] {
                            out[off + column][out_len..].fill(Value::Null);
                        }
                    }
                }
            }
        }
        for (j, col) in out[w..].iter_mut().enumerate() {
            col.extend((0..first.len()).map(|g| accs[g * na + j].finish()));
        }
        out_len += first.len();
    }
    Ok(into_batches(out, out_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With every key hashing alike, each group sits in one chain and
    /// only the full-key comparison keeps them apart.
    #[test]
    fn chained_groups_compare_full_keys() {
        let keys = [3, 1, 3, 2, 1, 3];
        let mut table = GroupTable::default();
        let mut group_keys: Vec<i64> = Vec::new();
        let mut ids = Vec::new();
        for k in keys {
            let (g, new) = table.find_or_insert(7, |g| group_keys[g] == k);
            if new {
                group_keys.push(k);
            }
            ids.push(g);
        }
        assert_eq!(group_keys, [3, 1, 2], "first-occurrence order");
        assert_eq!(ids, [0, 1, 0, 2, 1, 0]);
        assert_eq!(table.find(7, |g| group_keys[g] == 2), Some(2));
        assert_eq!(table.find(7, |g| group_keys[g] == 9), None);
        assert_eq!(
            table.find(8, |g| group_keys[g] == 2),
            None,
            "hash must match"
        );
    }

    /// Growth re-chains every group: ids and lookups survive it.
    #[test]
    fn groups_survive_growth() {
        let mut table = GroupTable::default();
        for k in 0..1000u64 {
            let h = hash_all([&Value::Int(k as i64)]);
            assert_eq!(
                table.find_or_insert(h, |g| g as u64 == k),
                (k as usize, true)
            );
        }
        for k in (0..1000u64).rev() {
            let h = hash_all([&Value::Int(k as i64)]);
            assert_eq!(table.find(h, |g| g as u64 == k), Some(k as usize));
        }
    }

    #[test]
    fn pruned_columns_read_null_and_stay_pruned() {
        let b = Batch {
            cols: vec![vec![Value::Int(1), Value::Int(2)], Vec::new()],
            len: 2,
        };
        assert_eq!(b.gather_row(1), vec![Value::Int(2), Value::Null]);
        let g = b.gather(&[1]);
        assert_eq!((g.cols[0].len(), g.cols[1].len(), g.len), (1, 0, 1));
        assert_eq!(
            b.into_rows(),
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Null]
            ]
        );
        let cols = vec![(0..2500).map(Value::Int).collect(), Vec::new()];
        let batches = into_batches(cols, 2500);
        let lens: Vec<_> = batches.iter().map(|b| (b.len, b.cols[1].len())).collect();
        assert_eq!(lens, [(1024, 0), (1024, 0), (452, 0)]);
    }
}
