//! Columnar batch execution: the vectorized counterpart of the Volcano
//! row interpreter in [`crate::engine`].
//!
//! Operators exchange [`Batch`]es of up to [`BATCH_SIZE`] rows stored
//! column-wise; predicates and projections run as [`crate::vexpr`]
//! programs. Programs are compiled **once per plan**, not per execution:
//! a [`ProgramSet`] holds, by plan position, everything the pipeline
//! derives from the plan — each block's live columns, each scan's,
//! view's and hash join's programs and column masks, and each block's
//! post-filter, GROUP BY, aggregate, HAVING, DISTINCT, ORDER BY and
//! select programs. A bind parameter compiles to its slot, so a cached
//! plan keeps one set for every bind vector, and an execution allocates
//! only for the rows it produces. Work-unit charges and governor row
//! ticks are the batch-granular aggregates of exactly what the row
//! engine charges per row, so both engines produce identical results,
//! per-operator row counts and work totals. Row ticks reach the governor
//! at the same multiples of its quantum in both, and a work budget is
//! checked against the statement's total work once the plan has run
//! (a mid-run check only stops a statement early), so both succeed or
//! fail under the same budgets — the property the fuzzer's
//! `--differential-exec` mode asserts.
//!
//! Rows stay in batches through joins and aggregates. Every join emits
//! pairs of left and right row ids, and its output is gathered column by
//! column from those pairs. A hash join builds a table from key to
//! right-side row ids; a block nested loop and a merge join test or sort
//! row ids of their batched inputs. A lateral join binds each left row
//! as the innermost frame of its right side, read in place from the
//! left batch: an index nested loop probes the index once per left row,
//! tests the scan's conjuncts on the heap rows in place and pairs the
//! surviving heap ordinals, and a lateral view runs batched, once per
//! distinct binding, through the TIS cache. An outer column compiles to
//! a per-execution constant ([`VecExpr::Outer`]), so a correlated
//! re-check such as `j.emp_id = e.emp_id` is an in-place conjunct. GROUP BY,
//! DISTINCT and ORDER BY work on row ids and group ids too: a row's key
//! is hashed once and compared in place, never copied into a per-row
//! key. A [`Live`] set names the columns something reads above a point
//! of a block's join tree; each scan, view and join materializes only
//! those read above it (a join's own keys only below it), and the
//! others stay empty `Vec`s.
//!
//! Scans filter in place. A conjunct that compares two direct operands
//! (`col <cmp> lit | bind | col`) is tested on the source row where it
//! lies — the heap row of a base scan, the view's row of a view scan —
//! and copies nothing; any other conjunct materializes the columns it
//! reads, for the rows still selected only, and the conjuncts run in the
//! plan's order, so PRED charges and errors fall as in the row engine.
//! The survivors' live columns are then gathered once. Aggregates fold
//! whole columns: a scalar aggregate makes one accumulator call per
//! aggregate per batch ([`AggAcc::add_all`]), and a grouped one first
//! computes the batch's group ids, then folds each aggregate's column by
//! group id ([`AggAcc::add_by_group`]); `Int`s fold in a tight loop, in
//! row order, so every sum rounds as the row engine's does. A comparison
//! decides its operator once per loop ([`retain_cmp`]).
//!
//! What still runs row-wise: window frames, the ROWNUM early exit, and
//! subqueries (a [`VecExpr::Fallback`] program evaluates them through
//! the row engine's `EvalCtx`, with its TIS cache).

use crate::engine::{collect_node_refs, combined_layout, order_cmp, Engine};
use crate::eval::{compute_windows, AggAcc, Bindings, EvalCtx, FrameRow};
use crate::vexpr::{compile, order, retain_cmp, CompileCtx, VecExpr};
use cbqt_common::failpoint;
use cbqt_common::hash::{hash_all, HashMap, HashSet};
use cbqt_common::{Error, Result, Row, Value};
use cbqt_optimizer::{
    weights, BlockPlan, JoinMethod, Layout, PlanIndex, PlanJoinKind, PlanNode, PlanNodeId,
    PlanRoot, SelectPlan,
};
use cbqt_qgm::{QExpr, RefId};
use cbqt_storage::SnapTable;
use std::borrow::Cow;
use std::mem::size_of;
use std::sync::Arc;

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

/// Rows addressed by [`Rid`]: an operator's output batches, or a heap
/// table whose rows a join names by ordinal.
trait RowsById {
    /// Column `j` of row `id` (never [`PAD`]).
    fn at(&self, id: Rid, j: usize) -> Value;
}

impl RowsById for [Batch] {
    #[inline]
    fn at(&self, id: Rid, j: usize) -> Value {
        self[id.b as usize].cols[j][id.r as usize].clone()
    }
}

/// The heap rows an index nested loop's pairs name: [`Rid::r`] is the
/// ordinal, and the ROWID pseudo-column (index `rowid`) reads it.
struct HeapById<'a> {
    /// `None` until the first probe reads the table.
    data: Option<SnapTable<'a>>,
    rowid: usize,
}

impl RowsById for HeapById<'_> {
    #[inline]
    fn at(&self, id: Rid, j: usize) -> Value {
        let ordinal = id.r as usize;
        match j == self.rowid {
            true => Value::Int(ordinal as i64),
            false => {
                let data = self.data.as_ref().expect("a paired heap row was probed");
                data.row(ordinal)[j].clone()
            }
        }
    }
}

/// Column `j` of the rows `ids` names, in order; [`PAD`] reads NULL.
fn gather_col<R: RowsById + ?Sized>(
    src: &R,
    j: usize,
    ids: impl Iterator<Item = Rid>,
) -> Vec<Value> {
    ids.map(|id| match id == PAD {
        true => Value::Null,
        false => src.at(id, j),
    })
    .collect()
}

/// A join's output from the pairs it emitted: each pair's left row and
/// right row ([`PAD`]: NULLs) side by side, gathered column by column
/// into batches of at most [`BATCH_SIZE`] — the kept columns only.
fn gather_pairs<R: RowsById + ?Sized>(
    lbatches: &[Batch],
    jp: &JoinProgs,
    right: &R,
    pairs: &[(Rid, Rid)],
) -> Vec<Batch> {
    let out = pairs.chunks(BATCH_SIZE).map(|chunk| {
        let (lkeep, rkeep) = jp.keep.split_at(jp.llayout.width);
        let lcols = lkeep.iter().enumerate().map(|(j, keep)| match keep {
            true => gather_col(lbatches, j, chunk.iter().map(|p| p.0)),
            false => Vec::new(),
        });
        let rcols = rkeep.iter().enumerate().map(|(j, keep)| match keep {
            true => gather_col(right, j, chunk.iter().map(|p| p.1)),
            false => Vec::new(),
        });
        Batch {
            cols: lcols.chain(rcols).collect(),
            len: chunk.len(),
        }
    });
    out.collect()
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

/// The columns that something reads above a point of a select block's
/// join tree, as `(table reference, column)` pairs: at the top, those of
/// the block's post-join filter, GROUP BY keys, aggregate arguments,
/// HAVING, DISTINCT / ORDER BY keys and select list; below a join, also
/// the join's equi-keys and residual, and below its left side the
/// columns a lateral right side reads through its binding. Each scan,
/// view and join keeps only the columns read above it. Computed once
/// per plan, when its [`ProgramSet`] is built.
pub(crate) struct Live(Vec<(RefId, usize)>);

impl Live {
    /// The block's own columns, or `None`, which keeps every column: the
    /// block has a row-wise stage that may read any column of a row — a
    /// subquery's fallback program, window functions or a ROWNUM limit.
    /// A column of an outer reference is read from its binding frame,
    /// not from the block's batches, and no layout of the block holds
    /// it.
    fn of(sp: &SelectPlan) -> Option<Live> {
        if !sp.windows.is_empty() || sp.rownum_limit.is_some() || join_subquery(&sp.join) {
            return None;
        }
        let block = sp
            .post_filter
            .iter()
            .chain(&sp.group_by)
            .chain(&sp.aggs)
            .chain(&sp.having)
            .chain(sp.distinct_keys.iter().flatten())
            .chain(sp.order_by.iter().map(|o| &o.expr))
            .chain(&sp.select);
        let mut cols = Vec::new();
        for e in block {
            if e.contains_subquery() {
                return None;
            }
            e.collect_cols(&mut cols);
        }
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

/// Whether a join key or residual of the tree has a subquery, whose
/// fallback program reads full rows.
fn join_subquery(node: &PlanNode) -> bool {
    match node {
        PlanNode::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            let mut exprs = equi.iter().flat_map(|(l, r)| [l, r]).chain(residual);
            exprs.any(QExpr::contains_subquery) || join_subquery(left) || join_subquery(right)
        }
        _ => false,
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
        .map(|p| eval_col(p, b, ctx, &mut all))
        .collect()
}

/// Evaluates `p` over every row of `b`; a bare column is borrowed, not
/// copied. `all` caches the selection of every row for the next call.
fn eval_col<'b>(
    p: &VecExpr,
    b: &'b Batch,
    ctx: &EvalCtx<'_>,
    all: &mut Option<Vec<usize>>,
) -> Result<Cow<'b, [Value]>> {
    match p {
        VecExpr::Col(i) => {
            debug_assert!(b.has(*i), "a program reads pruned column {i}");
            Ok(Cow::Borrowed(&b.cols[*i][..]))
        }
        _ => {
            let sel = all.get_or_insert_with(|| (0..b.len).collect());
            p.eval(b, sel, ctx).map(Cow::Owned)
        }
    }
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

/// Everything the batch engine derives from one plan, compiled once and
/// kept by position ([`PlanNodeId`]): an execution looks its programs
/// up instead of compiling them. A cached plan keeps its set beside it;
/// [`Engine::run`] builds one for a plan it is handed bare.
#[derive(Debug)]
pub struct ProgramSet {
    index: Arc<PlanIndex>,
    /// By position, in plan-walk order.
    steps: Vec<Step>,
}

/// What is compiled at one plan position (boxed, so a position with
/// nothing compiled costs a pointer).
#[derive(Debug, PartialEq)]
enum Step {
    /// Nothing: a set operation or ONE ROW.
    Nothing,
    Select(Box<SelectProgs>),
    /// A base-table scan or a view scan.
    Scan(Box<ScanProgs>),
    Join(Box<JoinProgs>),
}

/// A select block's pipeline above its join tree.
#[derive(Debug, PartialEq)]
struct SelectProgs {
    /// The block's live columns: what aggregation gathers of a group's
    /// representative row.
    keep: Vec<bool>,
    post_filter: Vec<VecExpr>,
    group_by: Vec<VecExpr>,
    /// Per aggregate slot, its argument (`None`: `COUNT(*)`, or a slot
    /// that is no aggregate, which errors when accumulators are made).
    agg_args: Vec<Option<VecExpr>>,
    /// The grouping sets, as positions in `group_by`.
    sets: Vec<Vec<usize>>,
    having: Vec<VecExpr>,
    /// The DISTINCT (or DISTINCT ON) keys; empty without DISTINCT.
    distinct: Vec<VecExpr>,
    order_by: Vec<VecExpr>,
    select: Vec<VecExpr>,
    /// Every select program is a [cell](VecExpr::cell): the projection
    /// writes output rows directly, with no column-to-row transpose.
    cells: bool,
}

/// A base-table or view scan: its filter conjuncts, in the plan's order,
/// and which of its columns the block keeps.
#[derive(Debug, PartialEq)]
struct ScanProgs {
    layout: Layout,
    filter: Vec<ScanConj>,
    /// Live columns.
    keep: Vec<bool>,
}

/// One conjunct of a scan's filter.
#[derive(Debug, PartialEq)]
enum ScanConj {
    /// A comparison of two direct operands ([`VecExpr::direct_cmp`]),
    /// tested on the source row in place: nothing is materialized.
    InPlace(VecExpr),
    /// Any other program, run over a batch in which the columns it reads
    /// (`cols`, all of them for a fallback program) are materialized for
    /// the rows still selected.
    Batched { prog: VecExpr, cols: Vec<usize> },
}

/// A join's key programs, layouts and kept columns, whatever its method.
#[derive(Debug, PartialEq)]
struct JoinProgs {
    llayout: Layout,
    rlayout: Layout,
    /// The left and right layouts side by side.
    combined: Layout,
    /// Per equi pair, its left and its right key program.
    keys: Vec<(VecExpr, VecExpr)>,
    /// The output's kept columns: the left's, then the right's — none
    /// for a semi or anti join, which outputs left rows only.
    keep: Vec<bool>,
}

impl ProgramSet {
    /// Compiles `plan`, with its position index.
    pub fn of(plan: &BlockPlan) -> ProgramSet {
        let index = Arc::new(PlanIndex::build(plan));
        let mut steps = Vec::with_capacity(index.len());
        block_steps(plan, &mut steps);
        debug_assert_eq!(steps.len(), index.len(), "steps out of walk order");
        ProgramSet { index, steps }
    }

    /// The position index of the compiled plan.
    pub fn index(&self) -> &Arc<PlanIndex> {
        &self.index
    }

    /// Estimated bytes held: every step, mask, layout slot and program
    /// node (the `QExpr` of a fallback program is not counted).
    pub fn estimated_bytes(&self) -> usize {
        let progs = |ps: &[VecExpr]| ps.iter().map(VecExpr::nodes).sum::<usize>();
        let slots = |l: &Layout| l.slots.len() * size_of::<(RefId, usize, usize)>();
        let steps = self.steps.iter().map(|s| match s {
            Step::Nothing => 0,
            Step::Select(p) => {
                let args = p
                    .agg_args
                    .iter()
                    .flatten()
                    .map(VecExpr::nodes)
                    .sum::<usize>();
                let lists = [
                    &p.post_filter,
                    &p.group_by,
                    &p.having,
                    &p.distinct,
                    &p.order_by,
                    &p.select,
                ];
                size_of::<SelectProgs>()
                    + p.keep.len()
                    + p.sets
                        .iter()
                        .map(|s| s.len() * size_of::<usize>())
                        .sum::<usize>()
                    + (args + lists.iter().map(|l| progs(l)).sum::<usize>()) * size_of::<VecExpr>()
            }
            Step::Scan(p) => {
                let conjs = p.filter.iter().map(|c| match c {
                    ScanConj::InPlace(p) => p.nodes() * size_of::<VecExpr>(),
                    ScanConj::Batched { prog, cols } => {
                        prog.nodes() * size_of::<VecExpr>() + cols.len() * size_of::<usize>()
                    }
                });
                size_of::<ScanProgs>()
                    + slots(&p.layout)
                    + p.filter.len() * size_of::<ScanConj>()
                    + conjs.sum::<usize>()
                    + p.keep.len()
            }
            Step::Join(p) => {
                size_of::<JoinProgs>()
                    + slots(&p.llayout)
                    + slots(&p.rlayout)
                    + slots(&p.combined)
                    + p.keys
                        .iter()
                        .map(|(l, r)| l.nodes() + r.nodes())
                        .sum::<usize>()
                        * size_of::<VecExpr>()
                    + p.keep.len()
            }
        });
        size_of::<ProgramSet>() + self.steps.len() * size_of::<Step>() + steps.sum::<usize>()
    }

    fn step(&self, id: PlanNodeId) -> Option<&Step> {
        self.steps.get(id.0 as usize)
    }

    fn select(&self, id: PlanNodeId) -> Result<&SelectProgs> {
        match self.step(id) {
            Some(Step::Select(p)) => Ok(p),
            _ => Err(Error::internal(format!("no select programs at {id}"))),
        }
    }

    fn scan(&self, id: PlanNodeId) -> Result<&ScanProgs> {
        match self.step(id) {
            Some(Step::Scan(p)) => Ok(p),
            _ => Err(Error::internal(format!("no scan programs at {id}"))),
        }
    }

    fn join(&self, id: PlanNodeId) -> Result<&JoinProgs> {
        match self.step(id) {
            Some(Step::Join(p)) => Ok(p),
            _ => Err(Error::internal(format!("no join programs at {id}"))),
        }
    }

    /// The layout of the scan at `id`, which the row engine reads too.
    pub(crate) fn scan_layout(&self, id: PlanNodeId) -> Result<&Layout> {
        self.scan(id).map(|p| &p.layout)
    }

    /// The left, right and combined layouts of the join at `id`, which
    /// the row engine reads too.
    pub(crate) fn join_layouts(&self, id: PlanNodeId) -> Result<[&Layout; 3]> {
        self.join(id).map(|p| [&p.llayout, &p.rlayout, &p.combined])
    }
}

/// Two sets are equal when they compile plans of one shape to the same
/// programs at every position.
impl PartialEq for ProgramSet {
    fn eq(&self, other: &ProgramSet) -> bool {
        self.index.fingerprint() == other.index.fingerprint() && self.steps == other.steps
    }
}

/// Appends the steps of the block `plan` and of everything below it, in
/// plan-walk order.
fn block_steps(plan: &BlockPlan, steps: &mut Vec<Step>) {
    let at = steps.len();
    steps.push(Step::Nothing);
    match &plan.root {
        PlanRoot::Select(sp) => {
            let mut live = Live::of(sp);
            node_steps(&sp.join, live.as_mut(), steps);
            for (_, p) in &sp.subplans {
                block_steps(p, steps);
            }
            steps[at] = Step::Select(Box::new(SelectProgs::of(sp, live.as_ref())));
        }
        PlanRoot::SetOp(sop) => {
            for i in &sop.inputs {
                block_steps(i, steps);
            }
        }
    }
}

/// Appends the steps of a join-tree node, below which `live` is read
/// (`None`: every column); `live` is restored on return.
fn node_steps(node: &PlanNode, live: Option<&mut Live>, steps: &mut Vec<Step>) {
    match node {
        PlanNode::OneRow => steps.push(Step::Nothing),
        PlanNode::ScanBase {
            refid,
            width,
            filter,
            ..
        } => steps.push(Step::Scan(Box::new(ScanProgs::of(
            *refid,
            *width,
            filter,
            live.as_deref(),
        )))),
        PlanNode::ScanView {
            refid,
            width,
            plan,
            filter,
            ..
        } => {
            steps.push(Step::Scan(Box::new(ScanProgs::of(
                *refid,
                *width,
                filter,
                live.as_deref(),
            ))));
            block_steps(plan, steps);
        }
        PlanNode::Join {
            left,
            right,
            kind,
            equi,
            residual,
            lateral,
            ..
        } => {
            let p = JoinProgs::of(left, right, *kind, equi, live.as_deref());
            steps.push(Step::Join(Box::new(p)));
            let Some(live) = live else {
                node_steps(left, None, steps);
                node_steps(right, None, steps);
                return;
            };
            // the join reads its keys and residual of both inputs, and a
            // lateral right side reads the left rows it is bound to
            let above = live.0.len();
            for e in equi.iter().flat_map(|(l, r)| [l, r]).chain(residual) {
                e.collect_cols(&mut live.0);
            }
            let both = live.0.len();
            if *lateral {
                collect_node_refs(right, &mut HashSet::default(), &mut live.0);
            }
            node_steps(left, Some(&mut *live), steps);
            live.0.truncate(both);
            node_steps(right, Some(&mut *live), steps);
            live.0.truncate(above);
        }
    }
}

impl SelectProgs {
    fn of(sp: &SelectPlan, live: Option<&Live>) -> SelectProgs {
        let cx = CompileCtx {
            layout: &sp.layout,
            aggs: &sp.aggs,
            agg_base: sp.layout.width,
            windows: &sp.windows,
            win_base: sp.layout.width + sp.aggs.len(),
        };
        let all = |es: &[QExpr]| -> Vec<VecExpr> { es.iter().map(|e| compile(e, &cx)).collect() };
        let distinct = match (&sp.distinct_keys, sp.distinct) {
            (Some(keys), _) => all(keys),
            (None, true) => all(&sp.select),
            (None, false) => Vec::new(),
        };
        let select = all(&sp.select);
        SelectProgs {
            keep: Live::mask(live, &sp.layout),
            post_filter: all(&sp.post_filter),
            group_by: all(&sp.group_by),
            agg_args: sp
                .aggs
                .iter()
                .map(|a| match a {
                    QExpr::Agg { arg, .. } => arg.as_ref().map(|x| compile(x, &cx)),
                    _ => None,
                })
                .collect(),
            sets: match &sp.grouping_sets {
                Some(s) => s.clone(),
                None => vec![(0..sp.group_by.len()).collect()],
            },
            having: all(&sp.having),
            distinct,
            order_by: sp.order_by.iter().map(|o| compile(&o.expr, &cx)).collect(),
            cells: select.iter().all(VecExpr::is_cell),
            select,
        }
    }
}

impl ScanProgs {
    fn of(refid: RefId, width: usize, filter: &[QExpr], live: Option<&Live>) -> ScanProgs {
        let layout = Layout {
            slots: vec![(refid, 0, width)],
            width,
        };
        let cx = CompileCtx::plain(&layout);
        let filter = filter.iter().map(|c| {
            let prog = compile(c, &cx);
            match prog.direct_cmp().is_some() {
                true => ScanConj::InPlace(prog),
                false => ScanConj::Batched {
                    cols: read_cols(&prog, width),
                    prog,
                },
            }
        });
        ScanProgs {
            filter: filter.collect(),
            keep: Live::mask(live, &layout),
            layout,
        }
    }
}

impl JoinProgs {
    /// The left key programs, in equi order.
    fn lkeys(&self) -> impl Iterator<Item = &VecExpr> + Clone {
        self.keys.iter().map(|k| &k.0)
    }

    /// The right key programs, in equi order.
    fn rkeys(&self) -> impl Iterator<Item = &VecExpr> + Clone {
        self.keys.iter().map(|k| &k.1)
    }

    /// Whether the join outputs right rows (no semi or anti join).
    fn outputs_right(&self) -> bool {
        self.keep.len() > self.llayout.width
    }

    fn of(
        left: &PlanNode,
        right: &PlanNode,
        kind: PlanJoinKind,
        equi: &[(QExpr, QExpr)],
        live: Option<&Live>,
    ) -> JoinProgs {
        let llayout = Layout::from_node(left);
        let rlayout = Layout::from_node(right);
        let (cxl, cxr) = (CompileCtx::plain(&llayout), CompileCtx::plain(&rlayout));
        let combined = combined_layout(&llayout, &rlayout);
        let mut keep = Live::mask(live, &combined);
        if let PlanJoinKind::Semi | PlanJoinKind::Anti { .. } = kind {
            keep.truncate(llayout.width);
        }
        JoinProgs {
            keys: equi
                .iter()
                .map(|(le, re)| (compile(le, &cxl), compile(re, &cxr)))
                .collect(),
            keep,
            combined,
            llayout,
            rlayout,
        }
    }
}

/// Executes the plan node at position `id` into batches, recording
/// per-operator metrics under the id the row engine uses (so EXPLAIN
/// ANALYZE output and the differential oracle line up across engines).
/// Only the columns its block keeps live are materialized.
pub(crate) fn exec_node_batched(
    eng: &Engine<'_>,
    node: &PlanNode,
    id: PlanNodeId,
    binds: &Bindings<'_>,
) -> Result<Vec<Batch>> {
    let rows = |out: &Vec<Batch>| out.iter().map(|b| b.len).sum();
    eng.metered(id, rows, || exec_node_batched_inner(eng, node, id, binds))
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
        PlanNode::ScanBase { table, access, .. } => {
            cbqt_common::failpoint!(failpoint::EXEC_SCAN);
            let set = eng.programs();
            let sc = set.scan(id)?;
            let ctx = eng.simple_ctx(&sc.layout, binds);
            let data = eng.snapshot().table(*table)?;
            let mut ordinals = Vec::new();
            eng.scan_ordinals(access, &ctx, &data, &mut ordinals)?;
            let src = HeapRows {
                data,
                ordinals: &ordinals,
                // the ROWID pseudo-column sits at index `w - 1`
                rowid: sc.layout.width - 1,
            };
            scan_batches(eng, sc, &ctx, &src, ordinals.len(), 0.0)
        }
        PlanNode::ScanView { plan, .. } => {
            let rows = eng.execute_cached(plan, id.first_child(), binds)?;
            let set = eng.programs();
            let sc = set.scan(id)?;
            let ctx = eng.simple_ctx(&sc.layout, binds);
            scan_batches(eng, sc, &ctx, &rows[..], rows.len(), weights::ROW)
        }
        PlanNode::Join {
            left,
            right,
            kind,
            method,
            residual,
            lateral,
            ..
        } => {
            cbqt_common::failpoint!(failpoint::EXEC_JOIN);
            let j = JoinRun {
                eng,
                id,
                kind: *kind,
                residual,
                binds,
            };
            match (method, lateral) {
                (_, true) => j.lateral(left, right),
                (JoinMethod::Hash, false) => j.hash(left, right),
                (JoinMethod::NestedLoop, false) => j.nested_loop(left, right),
                (JoinMethod::Merge, false) => j.merge(left, right),
            }
        }
    }
}

/// The rows a scan filters or a join tests, read where they lie.
trait ScanRows {
    /// Column `j` of source row `i`, borrowed where the source keeps it.
    fn cell(&self, i: usize, j: usize) -> Cow<'_, Value>;

    /// Column `j` of source row `i`, copied out.
    #[inline]
    fn value(&self, i: usize, j: usize) -> Value {
        self.cell(i, j).into_owned()
    }
}

/// A base scan's heap rows, by ordinal; the ROWID pseudo-column (index
/// `rowid`, past the heap row's end) reads the ordinal.
struct HeapRows<'a> {
    data: SnapTable<'a>,
    ordinals: &'a [usize],
    rowid: usize,
}

impl ScanRows for HeapRows<'_> {
    #[inline]
    fn cell(&self, i: usize, j: usize) -> Cow<'_, Value> {
        match j == self.rowid {
            true => Cow::Owned(Value::Int(self.ordinals[i] as i64)),
            false => Cow::Borrowed(&self.data.row(self.ordinals[i])[j]),
        }
    }
}

/// A view scan's input: the view's output rows.
impl ScanRows for [Row] {
    #[inline]
    fn cell(&self, i: usize, j: usize) -> Cow<'_, Value> {
        Cow::Borrowed(&self[i][j])
    }
}

/// A batch's rows; a pruned column reads NULL.
impl ScanRows for Batch {
    #[inline]
    fn cell(&self, i: usize, j: usize) -> Cow<'_, Value> {
        match self.cols[j].get(i) {
            Some(v) => Cow::Borrowed(v),
            None => Cow::Owned(Value::Null),
        }
    }
}

/// The rows of `batches` that `ids` names, in that order.
struct RidRows<'a> {
    batches: &'a [Batch],
    ids: &'a [Rid],
}

impl ScanRows for RidRows<'_> {
    #[inline]
    fn cell(&self, k: usize, j: usize) -> Cow<'_, Value> {
        let id = self.ids[k];
        self.batches[id.b as usize].cell(id.r as usize, j)
    }
}

/// Filters the `n` rows of `src` in chunks of at most [`BATCH_SIZE`] and
/// keeps the live columns of the survivors. The conjuncts run in the
/// plan's order: an in-place one tests the source rows where they lie,
/// and any other materializes the columns it reads, for the rows still
/// selected only. The survivors' live columns are then gathered once,
/// straight from the source. `row_work` is charged per source row.
fn scan_batches<S: ScanRows + ?Sized>(
    eng: &Engine<'_>,
    sc: &ScanProgs,
    ctx: &EvalCtx<'_>,
    src: &S,
    n: usize,
    row_work: f64,
) -> Result<Vec<Batch>> {
    let mut out = Vec::with_capacity(n.div_ceil(BATCH_SIZE));
    // the survivors of a chunk, when there is a filter to refine them
    let mut sel: Vec<usize> = Vec::new();
    for start in (0..n).step_by(BATCH_SIZE) {
        let len = BATCH_SIZE.min(n - start);
        eng.tick_rows(len as u64)?;
        if row_work > 0.0 {
            eng.add_work(len as f64 * row_work);
        }
        // the columns batched conjuncts read
        let mut fb = Batch {
            cols: Vec::new(),
            len,
        };
        if !sc.filter.is_empty() {
            sel.clear();
            sel.extend(0..len);
            filter_scan(eng, sc, ctx, src, start, &mut fb, &mut sel)?;
            if sel.is_empty() {
                continue;
            }
        }
        // the survivors' chunk positions; `None`: every row survived
        let kept = (!sc.filter.is_empty() && sel.len() < len).then_some(&sel[..]);
        let gather = |j: usize| -> Vec<Value> {
            let value = |k: usize| src.value(start + k, j);
            match kept {
                None => (0..len).map(value).collect(),
                Some(kept) => kept.iter().map(|&k| value(k)).collect(),
            }
        };
        let cols = sc
            .keep
            .iter()
            .enumerate()
            .map(|(j, &keep)| match (keep, kept) {
                (false, _) => Vec::new(),
                // every row survived, so a materialized column is whole
                (true, None) if fb.cols.get(j).is_some_and(|c| c.len() == len) => {
                    std::mem::take(&mut fb.cols[j])
                }
                (true, _) => gather(j),
            });
        out.push(Batch {
            cols: cols.collect(),
            len: kept.map_or(len, <[usize]>::len),
        });
    }
    Ok(out)
}

/// Refines `sel`, the selected positions of the chunk of `src` that
/// starts at `start`, by each of the scan's conjuncts in turn, charging
/// one PRED per conjunct per row still selected — what the row engine's
/// per-row break-on-fail charges add up to. A batched conjunct first
/// materializes in `fb` each column it reads that no earlier one did:
/// NULL at the positions no longer selected.
fn filter_scan<S: ScanRows + ?Sized>(
    eng: &Engine<'_>,
    sc: &ScanProgs,
    ctx: &EvalCtx<'_>,
    src: &S,
    start: usize,
    fb: &mut Batch,
    sel: &mut Vec<usize>,
) -> Result<()> {
    for conj in &sc.filter {
        if sel.is_empty() {
            break;
        }
        eng.add_work(sel.len() as f64 * weights::PRED);
        let (prog, cols) = match conj {
            ScanConj::InPlace(p) => {
                refine_in_place(p, ctx, src, start, sel)?;
                continue;
            }
            ScanConj::Batched { prog, cols } => (prog, cols),
        };
        if fb.cols.is_empty() {
            fb.cols = vec![Vec::new(); sc.layout.width];
        }
        for &j in cols {
            if fb.cols[j].is_empty() {
                let mut col = vec![Value::Null; fb.len];
                for &k in sel.iter() {
                    col[k] = src.value(start + k, j);
                }
                fb.cols[j] = col;
            }
        }
        prog.refine(fb, sel, ctx)?;
    }
    Ok(())
}

/// Keeps in `sel` the chunk positions on which the direct comparison
/// `prog` holds, reading a column operand from the source row in place
/// and a literal, bind or outer column once.
fn refine_in_place<S: ScanRows + ?Sized>(
    prog: &VecExpr,
    ctx: &EvalCtx<'_>,
    src: &S,
    start: usize,
    sel: &mut Vec<usize>,
) -> Result<()> {
    let (op, l, r) = prog
        .direct_cmp()
        .expect("an in-place conjunct is a direct comparison");
    l.bound(ctx)?;
    r.bound(ctx)?;
    // a direct operand that is no constant is a column
    let col = |e: &VecExpr| match e {
        VecExpr::Col(j) => *j,
        _ => unreachable!("direct operand {e:?}"),
    };
    match (l.constant(ctx), r.constant(ctx)) {
        (None, Some(v)) => {
            let j = col(l);
            retain_cmp(op, sel, |k| order(&src.cell(start + k, j), v));
        }
        (Some(v), None) => {
            let j = col(r);
            retain_cmp(op, sel, |k| order(v, &src.cell(start + k, j)));
        }
        (None, None) => {
            let (a, b) = (col(l), col(r));
            retain_cmp(op, sel, |k| {
                order(&src.cell(start + k, a), &src.cell(start + k, b))
            });
        }
        (Some(a), Some(b)) => retain_cmp(op, sel, |_| order(a, b)),
    }
    Ok(())
}

/// The columns of a `w`-wide scan batch that `prog` reads, sorted: every
/// column for a fallback program, which gathers full rows.
fn read_cols(prog: &VecExpr, w: usize) -> Vec<usize> {
    if prog.uses_fallback() {
        return (0..w).collect();
    }
    let mut cols = Vec::new();
    prog.collect_cols(&mut cols);
    cols.retain(|&j| j < w);
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Applies compiled filter conjuncts to a batch, refining the selection
/// `sel` in place. Charges one PRED per conjunct per row still selected
/// — the aggregate of the row engine's per-row break-on-fail charges.
fn filter_batch(
    eng: &Engine<'_>,
    b: &Batch,
    progs: &[VecExpr],
    ctx: &EvalCtx<'_>,
    sel: &mut Vec<usize>,
) -> Result<()> {
    for p in progs {
        if sel.is_empty() {
            break;
        }
        eng.add_work(sel.len() as f64 * weights::PRED);
        p.refine(b, sel, ctx)?;
    }
    Ok(())
}

/// Keeps the rows of `batches` that pass every one of `progs`, ticking
/// the governor per batch when `tick`. No programs keep every batch as
/// it is.
fn filter_batches(
    eng: &Engine<'_>,
    batches: Vec<Batch>,
    progs: &[VecExpr],
    ctx: &EvalCtx<'_>,
    tick: bool,
) -> Result<Vec<Batch>> {
    if progs.is_empty() {
        if tick {
            for b in &batches {
                eng.tick_rows(b.len as u64)?;
            }
        }
        return Ok(batches);
    }
    let mut kept = Vec::with_capacity(batches.len());
    let mut sel = Vec::new();
    for b in batches {
        if tick {
            eng.tick_rows(b.len as u64)?;
        }
        sel.clear();
        sel.extend(0..b.len);
        filter_batch(eng, &b, progs, ctx, &mut sel)?;
        if sel.len() == b.len {
            kept.push(b);
        } else if !sel.is_empty() {
            kept.push(b.gather(&sel));
        }
    }
    Ok(kept)
}

/// One execution of a join node: what every join method reads.
struct JoinRun<'r> {
    eng: &'r Engine<'r>,
    id: PlanNodeId,
    kind: PlanJoinKind,
    residual: &'r [QExpr],
    binds: &'r Bindings<'r>,
}

/// The pair test of the row engine's nested-loop and lateral join loop:
/// one tick and one PRED per key and residual conjunct (at least one),
/// the keys compared in order until one differs, then the residual on
/// the two rows side by side. A key that is a column or a constant is
/// read in place; any other key program runs on the one row, as often
/// as the row engine evaluates it.
struct PairTest<'p> {
    jp: &'p JoinProgs,
    kind: PlanJoinKind,
    residual: &'p [QExpr],
    /// The context of the left keys, under the join's own bindings.
    lctx: EvalCtx<'p>,
    /// The context of the residual, over the two rows side by side.
    cctx: EvalCtx<'p>,
}

impl PairTest<'_> {
    /// Whether left row `i` of `lb` joins row `k` of `src`, whose keys
    /// run in `rctx` (a lateral right side's sees its probe binding).
    /// `crow` is the caller's buffer for the residual's row.
    fn matches<S: ScanRows + ?Sized>(
        &self,
        lb: &Batch,
        i: usize,
        src: &S,
        k: usize,
        rctx: &EvalCtx<'_>,
        crow: &mut Row,
    ) -> Result<bool> {
        let eng = self.lctx.engine;
        eng.tick()?;
        let tests = self.jp.keys.len() + self.residual.len();
        eng.add_work(tests.max(1) as f64 * weights::PRED);
        let (lw, rw) = (self.jp.llayout.width, self.jp.rlayout.width);
        for (lp, rp) in &self.jp.keys {
            let lv = key_of(lp, lb, i, &self.lctx, lw)?;
            let rv = key_of(rp, src, k, rctx, rw)?;
            if lv.sql_eq(&rv) != Some(true) {
                return Ok(false);
            }
        }
        self.residual_holds(lb, i, src, k, crow)
    }

    /// Whether every residual conjunct holds on left row `i` of `lb` and
    /// row `k` of `src`, side by side in `crow`.
    fn residual_holds<S: ScanRows + ?Sized>(
        &self,
        lb: &Batch,
        i: usize,
        src: &S,
        k: usize,
        crow: &mut Row,
    ) -> Result<bool> {
        if self.residual.is_empty() {
            return Ok(true);
        }
        crow.clear();
        crow.extend((0..self.jp.llayout.width).map(|j| lb.value(i, j)));
        crow.extend((0..self.jp.rlayout.width).map(|j| src.value(k, j)));
        for c in self.residual {
            if !self.cctx.eval_truth(c, crow)?.passes() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The body of the row engine's lateral loop for left row `lid` of
    /// `lb`: tests it against the rows its probe produced, in order, and
    /// emits pairs by the join kind, NULL-padding an unmatched outer row
    /// and keeping an unmatched anti-join row (under NOT IN, only when
    /// its key has no NULL or the probe found no row).
    fn lateral_row<S: Probed>(
        &self,
        lb: &Batch,
        lid: Rid,
        src: &S,
        rctx: &EvalCtx<'_>,
        crow: &mut Row,
        pairs: &mut Vec<(Rid, Rid)>,
    ) -> Result<()> {
        let i = lid.r as usize;
        let mut matched = false;
        for k in 0..src.len() {
            if !self.matches(lb, i, src, k, rctx, crow)? {
                continue;
            }
            matched = true;
            match self.kind {
                PlanJoinKind::Inner | PlanJoinKind::LeftOuter => pairs.push((lid, src.id(k))),
                PlanJoinKind::Semi => {
                    pairs.push((lid, PAD));
                    break;
                }
                PlanJoinKind::Anti { .. } => break,
            }
        }
        match self.kind {
            PlanJoinKind::LeftOuter if !matched => pairs.push((lid, PAD)),
            PlanJoinKind::Anti { null_aware } if !matched => {
                // NOT IN: a NULL probe key never qualifies unless the
                // right side is empty
                let mut null_key = false;
                if null_aware {
                    for p in self.jp.lkeys() {
                        null_key |= key_of(p, lb, i, &self.lctx, self.jp.llayout.width)?.is_null();
                    }
                }
                if src.len() == 0 || !null_key {
                    pairs.push((lid, PAD));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// The rows one probe of a lateral join produced, by position, and
/// their ids among the join's right rows.
trait Probed: ScanRows {
    fn len(&self) -> usize;
    fn id(&self, k: usize) -> Rid;
}

/// An index probe's surviving heap rows: a row's id is its ordinal.
impl Probed for HeapRows<'_> {
    fn len(&self) -> usize {
        self.ordinals.len()
    }

    fn id(&self, k: usize) -> Rid {
        Rid::new(0, self.ordinals[k])
    }
}

impl Probed for RidRows<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn id(&self, k: usize) -> Rid {
        self.ids[k]
    }
}

/// Key program `p`'s value on row `k` of `src` (`width` columns): a
/// column or a constant is read in place, and any other program runs
/// on the one row.
fn key_of<'v, S: ScanRows + ?Sized>(
    p: &'v VecExpr,
    src: &'v S,
    k: usize,
    ctx: &'v EvalCtx<'_>,
    width: usize,
) -> Result<Cow<'v, Value>> {
    if let VecExpr::Col(j) = p {
        return Ok(src.cell(k, *j));
    }
    if let Some(v) = p.constant(ctx) {
        return Ok(Cow::Borrowed(v));
    }
    let row = Batch {
        cols: (0..width).map(|j| vec![src.value(k, j)]).collect(),
        len: 1,
    };
    Ok(Cow::Owned(
        p.eval(&row, &[0], ctx)?.pop().unwrap_or(Value::Null),
    ))
}

/// The ids of every row of `batches`, in order.
fn all_ids(batches: &[Batch]) -> Vec<Rid> {
    let ids = batches.iter().enumerate();
    ids.flat_map(|(b, x)| (0..x.len).map(move |r| Rid::new(b, r)))
        .collect()
}

impl<'r> JoinRun<'r> {
    /// The positions of the join's left and right children.
    fn children(&self) -> (PlanNodeId, PlanNodeId) {
        let left = self.id.first_child();
        (left, self.eng.after(left))
    }

    fn pair_test<'p>(&'p self, jp: &'p JoinProgs) -> PairTest<'p> {
        PairTest {
            jp,
            kind: self.kind,
            residual: self.residual,
            lctx: self.eng.simple_ctx(&jp.llayout, self.binds),
            cctx: self.eng.simple_ctx(&jp.combined, self.binds),
        }
    }

    /// Hash join over batches that emits row ids: the build side becomes
    /// one group per distinct non-NULL key, holding its right-side row
    /// ids in build order; the probe writes pairs of left id and right id
    /// (or [`PAD`]), and the output is gathered column by column from
    /// those pairs — the live columns only. Candidate order, residual
    /// checks, ticks, work charges and null-aware anti-join semantics are
    /// the row engine's `hash_join`, exactly.
    fn hash(&self, left: &PlanNode, right: &PlanNode) -> Result<Vec<Batch>> {
        let (eng, binds, kind, residual) = (self.eng, self.binds, self.kind, self.residual);
        let (left_id, right_id) = self.children();
        let lbatches = exec_node_batched(eng, left, left_id, binds)?;
        let set = eng.programs();
        let hj = set.join(self.id)?;
        let test = self.pair_test(hj);
        let rkctx = eng.simple_ctx(&hj.rlayout, binds);
        let rbatches = exec_node_batched(eng, right, right_id, binds)?;
        // build on right: key groups, each compared by its first row's key
        let mut rkeys = Vec::with_capacity(rbatches.len());
        let mut table = GroupTable::default();
        let mut first: Vec<Rid> = Vec::new();
        let mut members: Vec<(u32, Rid)> = Vec::new();
        let mut null_rows: Vec<Rid> = Vec::new();
        for (bi, b) in rbatches.iter().enumerate() {
            eng.tick_rows(b.len as u64)?;
            eng.add_work(b.len as f64 * weights::HASH_BUILD);
            rkeys.push(eval_all(hj.rkeys(), b, &rkctx)?);
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
        let mut lkeys = Vec::with_capacity(lbatches.len());
        for b in &lbatches {
            eng.tick_rows(b.len as u64)?;
            eng.add_work(b.len as f64 * weights::HASH_PROBE);
            lkeys.push(eval_all(hj.lkeys(), b, &test.lctx)?);
        }

        let (mut pairs, mut crow) = (Vec::new(), Vec::new());
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
                let mut matched = false;
                for &rid in hits {
                    eng.tick()?;
                    if !residual.is_empty() {
                        eng.add_work(residual.len() as f64 * weights::PRED);
                        let rb = &rbatches[rid.b as usize];
                        if !test.residual_holds(b, i, rb, rid.r as usize, &mut crow)? {
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
                                    true => all_right.get_or_insert_with(|| all_ids(&rbatches)),
                                    false => &null_rows,
                                };
                                let pick = |k: usize| {
                                    let rid = cands[k];
                                    rbatches[rid.b as usize].gather_row(rid.r as usize)
                                };
                                let lrow = b.gather_row(i);
                                eng.null_aware_rejects(
                                    &test.cctx,
                                    &lrow,
                                    cands.len(),
                                    pick,
                                    residual,
                                )?
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
        Ok(gather_pairs(&lbatches, hj, &rbatches[..], &pairs))
    }

    /// Block nested loop over both inputs batched: each left row is
    /// tested against the right rows in order, and a semi or anti join
    /// stops at its first match and, with no residual, caches the
    /// outcome on its left key (§2.1.1). Pairs of row ids are emitted
    /// and the output gathered from them. Charges, ticks and order are
    /// the row engine's `nl_join`.
    fn nested_loop(&self, left: &PlanNode, right: &PlanNode) -> Result<Vec<Batch>> {
        let (eng, binds, kind) = (self.eng, self.binds, self.kind);
        let (left_id, right_id) = self.children();
        let lbatches = exec_node_batched(eng, left, left_id, binds)?;
        let rbatches = exec_node_batched(eng, right, right_id, binds)?;
        let set = eng.programs();
        let jp = set.join(self.id)?;
        let test = self.pair_test(jp);
        let rctx = eng.simple_ctx(&jp.rlayout, binds);
        let all = all_ids(&rbatches);
        let rows = RidRows {
            batches: &rbatches,
            ids: &all,
        };
        let (lw, rw) = (jp.llayout.width, jp.rlayout.width);
        let cacheable = matches!(kind, PlanJoinKind::Semi | PlanJoinKind::Anti { .. })
            && !jp.keys.is_empty()
            && self.residual.is_empty();
        let mut match_cache: HashMap<Vec<Value>, bool> = HashMap::default();
        // NOT IN: the right rows whose key is NULL, found at the first
        // unmatched left row
        let mut null_rows: Option<Vec<usize>> = None;
        let (mut pairs, mut crow) = (Vec::new(), Vec::new());
        for (bi, lb) in lbatches.iter().enumerate() {
            for i in 0..lb.len {
                let lid = Rid::new(bi, i);
                let lkey = match cacheable {
                    true => {
                        let key = jp.lkeys().map(|p| key_of(p, lb, i, &test.lctx, lw));
                        Some(
                            key.map(|v| v.map(Cow::into_owned))
                                .collect::<Result<Vec<_>>>()?,
                        )
                    }
                    false => None,
                };
                let cached = lkey.as_ref().and_then(|k| match_cache.get(k)).copied();
                let matched = match cached {
                    Some(m) => {
                        eng.add_work(weights::HASH_PROBE);
                        m
                    }
                    None => {
                        let mut m = false;
                        for (k, &rid) in all.iter().enumerate() {
                            if test.matches(lb, i, &rows, k, &rctx, &mut crow)? {
                                m = true;
                                match kind {
                                    PlanJoinKind::Inner | PlanJoinKind::LeftOuter => {
                                        pairs.push((lid, rid))
                                    }
                                    _ => break,
                                }
                            }
                        }
                        if let Some(key) = lkey {
                            match_cache.insert(key, m);
                        }
                        m
                    }
                };
                match kind {
                    PlanJoinKind::Semi if matched => pairs.push((lid, PAD)),
                    PlanJoinKind::Anti { null_aware } if !matched => {
                        let rejects = null_aware && {
                            if null_rows.is_none() {
                                let mut found = Vec::new();
                                for k in 0..all.len() {
                                    for rp in jp.rkeys() {
                                        if key_of(rp, &rows, k, &rctx, rw)?.is_null() {
                                            found.push(k);
                                            break;
                                        }
                                    }
                                }
                                null_rows = Some(found);
                            }
                            let mut left_null = false;
                            for lp in jp.lkeys() {
                                left_null |= key_of(lp, lb, i, &test.lctx, lw)?.is_null();
                            }
                            let null_rows = null_rows.as_deref().unwrap_or_default();
                            let n = match left_null {
                                true => all.len(),
                                false => null_rows.len(),
                            };
                            let pick = |c: usize| {
                                let id = all[if left_null { c } else { null_rows[c] }];
                                rbatches[id.b as usize].gather_row(id.r as usize)
                            };
                            let lrow = lb.gather_row(i);
                            eng.null_aware_rejects(&test.cctx, &lrow, n, pick, self.residual)?
                        };
                        if !rejects {
                            pairs.push((lid, PAD));
                        }
                    }
                    PlanJoinKind::LeftOuter if !matched => pairs.push((lid, PAD)),
                    _ => {}
                }
            }
        }
        eng.add_work(pairs.len() as f64 * weights::ROW);
        Ok(gather_pairs(&lbatches, jp, &rbatches[..], &pairs))
    }

    /// Sort-merge join over both inputs batched: each side's keys are
    /// computed column-wise, its row ids sorted once (stably) by key,
    /// and equal-key groups are cross-combined into pairs of row ids.
    /// Charges, ticks and order are the row engine's `merge_join`.
    fn merge(&self, left: &PlanNode, right: &PlanNode) -> Result<Vec<Batch>> {
        let (eng, binds) = (self.eng, self.binds);
        let (left_id, right_id) = self.children();
        let lbatches = exec_node_batched(eng, left, left_id, binds)?;
        let rbatches = exec_node_batched(eng, right, right_id, binds)?;
        let set = eng.programs();
        let jp = set.join(self.id)?;
        let test = self.pair_test(jp);
        let rctx = eng.simple_ctx(&jp.rlayout, binds);
        let count = |bs: &[Batch]| bs.iter().map(|b| b.len).sum::<usize>().max(2) as f64;
        let (ln, rn) = (count(&lbatches), count(&rbatches));
        eng.add_work(weights::SORT * (ln * ln.log2() + rn * rn.log2()));
        // a side's key columns, by batch
        type Keys<'b> = Vec<Vec<Cow<'b, [Value]>>>;
        fn key<'k>(kc: &'k Keys<'_>, id: Rid) -> impl Iterator<Item = &'k Value> {
            kc[id.b as usize].iter().map(move |c| &c[id.r as usize])
        }
        fn keys<'p, 'b>(
            progs: impl Iterator<Item = &'p VecExpr> + Clone,
            bs: &'b [Batch],
            ctx: &EvalCtx<'_>,
        ) -> Result<Keys<'b>> {
            bs.iter().map(|b| eval_all(progs.clone(), b, ctx)).collect()
        }
        let lk = keys(jp.lkeys(), &lbatches, &test.lctx)?;
        let rk = keys(jp.rkeys(), &rbatches, &rctx)?;
        let sorted = |kc: &Keys<'_>, bs: &[Batch]| {
            let mut ids = all_ids(bs);
            ids.sort_by(|a, b| key(kc, *a).cmp(key(kc, *b)));
            ids
        };
        let (lids, rids) = (sorted(&lk, &lbatches), sorted(&rk, &rbatches));
        let rows = RidRows {
            batches: &rbatches,
            ids: &rids,
        };
        let (mut pairs, mut crow) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0usize, 0usize);
        while i < lids.len() && j < rids.len() {
            eng.tick()?;
            eng.add_work(weights::ROW);
            // NULL keys never join
            if key(&lk, lids[i]).any(Value::is_null) {
                i += 1;
                continue;
            }
            if key(&rk, rids[j]).any(Value::is_null) {
                j += 1;
                continue;
            }
            match key(&lk, lids[i]).cmp(key(&rk, rids[j])) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // cross-combine the two equal-key groups
                    let group = lids[i];
                    let (li0, rj0) = (i, j);
                    while i < lids.len() && key(&lk, lids[i]).eq(key(&lk, group)) {
                        i += 1;
                    }
                    while j < rids.len() && key(&rk, rids[j]).eq(key(&lk, group)) {
                        j += 1;
                    }
                    for &lid in &lids[li0..i] {
                        let lb = &lbatches[lid.b as usize];
                        for (k, &rid) in rids.iter().enumerate().take(j).skip(rj0) {
                            eng.tick()?;
                            if !self.residual.is_empty() {
                                eng.add_work(self.residual.len() as f64 * weights::PRED);
                                if !test.residual_holds(lb, lid.r as usize, &rows, k, &mut crow)? {
                                    continue;
                                }
                            }
                            pairs.push((lid, rid));
                        }
                    }
                }
            }
        }
        eng.add_work(pairs.len() as f64 * weights::ROW);
        Ok(gather_pairs(&lbatches, jp, &rbatches[..], &pairs))
    }

    /// A lateral join: the right side runs once per left row, with that
    /// row bound as its innermost frame — read in place from the left
    /// batch, never assembled. A base-table right side (an index nested
    /// loop) is probed per left row, its conjuncts tested on the heap
    /// rows in place and the surviving ordinals paired; any other right
    /// side (a lateral view) runs batched with the plan's programs and
    /// through the TIS cache. Each probe records one execution of the
    /// right side, and the pair test, the outer and anti-join tails,
    /// ticks and charges are the row engine's lateral loop.
    fn lateral(&self, left: &PlanNode, right: &PlanNode) -> Result<Vec<Batch>> {
        let (eng, binds) = (self.eng, self.binds);
        let (left_id, right_id) = self.children();
        let lbatches = exec_node_batched(eng, left, left_id, binds)?;
        let set = eng.programs();
        let jp = set.join(self.id)?;
        let Some(first) = lbatches.first() else {
            return Ok(Vec::new());
        };
        let mut probe = binds.push_frame(&jp.llayout, FrameRow::Batch(first, 0));
        let test = self.pair_test(jp);
        let (mut pairs, mut crow) = (Vec::new(), Vec::new());
        if let PlanNode::ScanBase { table, access, .. } = right {
            let sc = set.scan(right_id)?;
            let mut rctx = eng.simple_ctx(&sc.layout, &probe);
            let mut heap = HeapById {
                data: None,
                rowid: sc.layout.width - 1,
            };
            // buffers every probe reuses
            let (mut hits, mut sel, mut cands) = (Vec::new(), Vec::new(), Vec::new());
            for (bi, lb) in lbatches.iter().enumerate() {
                for i in 0..lb.len {
                    rctx.outer.rebind(FrameRow::Batch(lb, i));
                    // one execution of the right scan per probe
                    let (data, _) = eng.metered(
                        right_id,
                        |(_, n): &(SnapTable<'_>, usize)| *n,
                        || {
                            cbqt_common::failpoint!(failpoint::EXEC_SCAN);
                            let data = match heap.data {
                                Some(data) => data,
                                None => *heap.data.insert(eng.snapshot().table(*table)?),
                            };
                            eng.scan_ordinals(access, &rctx, &data, &mut hits)?;
                            filter_hits(eng, sc, &rctx, data, &hits, &mut sel, &mut cands)?;
                            Ok((data, cands.len()))
                        },
                    )?;
                    let src = HeapRows {
                        data,
                        ordinals: &cands,
                        rowid: heap.rowid,
                    };
                    test.lateral_row(lb, Rid::new(bi, i), &src, &rctx, &mut crow, &mut pairs)?;
                }
            }
            eng.add_work(pairs.len() as f64 * weights::ROW);
            return Ok(gather_pairs(&lbatches, jp, &heap, &pairs));
        }
        let mut rctx = eng.simple_ctx(&jp.rlayout, &probe);
        // the right rows pairs name, and one probe's ids among them
        let (mut store, mut ids) = (Vec::new(), Vec::new());
        for (bi, lb) in lbatches.iter().enumerate() {
            for i in 0..lb.len {
                probe.rebind(FrameRow::Batch(lb, i));
                rctx.outer.rebind(FrameRow::Batch(lb, i));
                let base = store.len();
                store.extend(exec_node_batched(eng, right, right_id, &probe)?);
                ids.clear();
                for (b, rb) in store[base..].iter().enumerate() {
                    ids.extend((0..rb.len).map(|r| Rid::new(base + b, r)));
                }
                let src = RidRows {
                    batches: &store,
                    ids: &ids,
                };
                test.lateral_row(lb, Rid::new(bi, i), &src, &rctx, &mut crow, &mut pairs)?;
                if !jp.outputs_right() {
                    // a semi or anti join outputs no right row
                    store.truncate(base);
                }
            }
        }
        eng.add_work(pairs.len() as f64 * weights::ROW);
        Ok(gather_pairs(&lbatches, jp, &store[..], &pairs))
    }
}

/// Filters an index probe's `hits` by the scan's conjuncts, tested on
/// the heap rows in place a chunk of at most [`BATCH_SIZE`] at a time
/// as [`scan_batches`] does, and leaves the survivors' ordinals in
/// `out`; `sel` is the caller's buffer.
fn filter_hits(
    eng: &Engine<'_>,
    sc: &ScanProgs,
    ctx: &EvalCtx<'_>,
    data: SnapTable<'_>,
    hits: &[usize],
    sel: &mut Vec<usize>,
    out: &mut Vec<usize>,
) -> Result<()> {
    out.clear();
    let src = HeapRows {
        data,
        ordinals: hits,
        rowid: sc.layout.width - 1,
    };
    for start in (0..hits.len()).step_by(BATCH_SIZE) {
        let len = BATCH_SIZE.min(hits.len() - start);
        eng.tick_rows(len as u64)?;
        sel.clear();
        sel.extend(0..len);
        let mut fb = Batch {
            cols: Vec::new(),
            len,
        };
        filter_scan(eng, sc, ctx, &src, start, &mut fb, sel)?;
        out.extend(sel.iter().map(|&k| hits[start + k]));
    }
    Ok(())
}

/// Vectorized select-block pipeline: the batch counterpart of
/// `Engine::exec_select`, stage for stage, running the block's programs
/// from the engine's [`ProgramSet`].
pub(crate) fn exec_select_batched(
    eng: &Engine<'_>,
    sp: &SelectPlan,
    id: PlanNodeId,
    binds: &Bindings<'_>,
) -> Result<Vec<Row>> {
    let mut batches = exec_node_batched(eng, &sp.join, id.first_child(), binds)?;
    let set = eng.programs();
    let progs = set.select(id)?;
    let base_ctx = EvalCtx::of_select(eng, sp, id, binds);

    // WHERE residue + ROWNUM
    if sp.rownum_limit.is_some() {
        // the limit's early exit decides exactly which rows ever get
        // evaluated — reuse the shared row loop
        let rows = eng.post_filter_rows(sp, &base_ctx, batches_to_rows(batches))?;
        batches = rows_to_batches(rows, sp.layout.width);
    } else {
        batches = filter_batches(eng, batches, &progs.post_filter, &base_ctx, true)?;
    }

    // aggregation + HAVING
    let aggregated = !sp.group_by.is_empty()
        || sp.grouping_sets.is_some()
        || !sp.aggs.is_empty()
        || !sp.having.is_empty();
    if aggregated {
        batches = aggregate_batched(eng, sp, progs, &base_ctx, batches)?;
        // no governor tick here: the row engine doesn't tick HAVING
        batches = filter_batches(eng, batches, &progs.having, &base_ctx, false)?;
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
        let mut seen = GroupTable::default();
        let mut seen_keys: Vec<Value> = Vec::new();
        let mut kept = Vec::with_capacity(batches.len());
        for b in batches {
            eng.add_work(b.len as f64 * weights::DEDUP);
            let kc = eval_all(&progs.distinct, &b, &base_ctx)?;
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
        let sorted = {
            let keys: Vec<Vec<Cow<[Value]>>> = batches
                .iter()
                .map(|b| eval_all(&progs.order_by, b, &base_ctx))
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

    // projection: cells are written straight into output rows
    let mut out: Vec<Row> = Vec::with_capacity(batches.iter().map(|b| b.len).sum());
    for b in batches {
        eng.tick_rows(b.len as u64)?;
        eng.add_work(b.len as f64 * weights::ROW);
        if progs.cells {
            for i in 0..b.len {
                let mut row = Vec::with_capacity(progs.select.len());
                for p in &progs.select {
                    row.push(match p.cell(&b, i, &base_ctx) {
                        Some(v) => v.clone(),
                        // a slot the batch does not carry: the program's
                        // own error
                        None => p.eval(&b, &[i], &base_ctx)?.pop().unwrap_or(Value::Null),
                    });
                }
                out.push(row);
            }
            continue;
        }
        let sel: Vec<usize> = (0..b.len).collect();
        let pcols: Vec<Vec<Value>> = progs
            .select
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
/// representative row is the id of its first row, gathered (the block's
/// live columns only) when the groups are complete.
fn aggregate_batched(
    eng: &Engine<'_>,
    sp: &SelectPlan,
    progs: &SelectProgs,
    ctx: &EvalCtx<'_>,
    batches: Vec<Batch>,
) -> Result<Vec<Batch>> {
    cbqt_common::failpoint!(failpoint::EXEC_AGG);
    let (sets, keep) = (&progs.sets, &progs.keep);
    let (w, na) = (sp.layout.width, sp.aggs.len());
    let count_star = Value::Int(1);

    let mut out: Vec<Vec<Value>> = vec![Vec::new(); w + na];
    let mut out_len = 0usize;
    // a batch's key and argument columns, and its group ids by row:
    // buffers every batch reuses
    let mut kc: Vec<Cow<[Value]>> = Vec::new();
    let mut ac: Vec<Option<Cow<[Value]>>> = Vec::with_capacity(na);
    let mut gids: Vec<u32> = Vec::new();
    for set in sets {
        let nk = set.len();
        let mut table = GroupTable::default();
        // per group: its first row, its key (nk values), its accumulators
        let mut first: Vec<Rid> = Vec::new();
        let mut keys: Vec<Value> = Vec::new();
        let mut accs: Vec<AggAcc> = Vec::new();
        for (bi, b) in batches.iter().enumerate() {
            eng.tick_rows(b.len as u64)?;
            eng.add_work(b.len as f64 * weights::AGG);
            if b.len == 0 {
                continue;
            }
            let mut all = None;
            kc.clear();
            for &i in set {
                kc.push(eval_col(&progs.group_by[i], b, ctx, &mut all)?);
            }
            ac.clear();
            for p in &progs.agg_args {
                let col = p.as_ref().map(|p| eval_col(p, b, ctx, &mut all));
                ac.push(col.transpose()?);
            }
            if nk == 0 {
                // one group: each accumulator folds the batch's column
                if first.is_empty() {
                    first.push(Rid::new(bi, 0));
                    accs.extend(AggAcc::for_slots(&sp.aggs)?);
                }
                for (acc, a) in accs.iter_mut().zip(&ac) {
                    match a {
                        Some(col) => acc.add_all(col),
                        None => acc.add_repeated(&count_star, b.len),
                    }
                }
                continue;
            }
            gids.clear();
            gids.reserve(BATCH_SIZE.max(b.len));
            for i in 0..b.len {
                let eq = |g: usize| key_eq(&kc, i, &keys[g * nk..(g + 1) * nk]);
                let (g, new) = table.find_or_insert(key_hash(&kc, i), eq);
                if new {
                    first.push(Rid::new(bi, i));
                    keys.extend(kc.iter().map(|c| c[i].clone()));
                    accs.extend(AggAcc::for_slots(&sp.aggs)?);
                }
                gids.push(g as u32);
            }
            // then each accumulator's column, by group id
            for (j, a) in ac.iter().enumerate() {
                let col = a.as_deref();
                AggAcc::add_by_group(&mut accs[j..], na, col, &count_star, &gids);
            }
        }
        // scalar aggregate over empty input: one all-NULL group
        if first.is_empty() && sp.group_by.is_empty() && sets.len() == 1 {
            for (j, col) in out.iter_mut().enumerate().take(w) {
                if keep[j] {
                    col.push(Value::Null);
                }
            }
            for (col, acc) in out[w..].iter_mut().zip(AggAcc::for_slots(&sp.aggs)?) {
                col.push(acc.finish());
            }
            out_len += 1;
            continue;
        }
        for (j, col) in out.iter_mut().enumerate().take(w) {
            if keep[j] {
                col.extend(gather_col(&batches[..], j, first.iter().copied()));
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
    use crate::tests::{assert_engines_agree_on, plan_of};
    use cbqt_catalog::{Catalog, Column};
    use cbqt_common::DataType;
    use cbqt_qgm::AggFunc;
    use cbqt_storage::Storage;

    /// `k(id, g, n, x, w, s)` with `total` rows, for the scan and fold
    /// kernels: `g = id % 7`; `n` NULL on every third row, else
    /// `id % 50`; `x` an `Int`, but a `Double` on every 700th row, so a
    /// SUM turns floating mid-batch; `w` near `i64::MAX`, so a SUM wraps;
    /// `s` a string, NULL on every fifth row.
    fn setup_kernels(total: i64) -> (Catalog, Storage) {
        let mut cat = Catalog::new();
        let col = |n: &str, data_type| Column {
            name: n.into(),
            data_type,
            not_null: false,
        };
        let names = ["id", "g", "n", "x", "w"];
        let mut cols: Vec<Column> = names.iter().map(|n| col(n, DataType::Int)).collect();
        cols.push(col("s", DataType::Str));
        let t = cat.add_table("k", cols, vec![]).unwrap();
        let st = Storage::new();
        st.create_table(t);
        for i in 0..total {
            let row = vec![
                Value::Int(i),
                Value::Int(i % 7),
                match i % 3 {
                    0 => Value::Null,
                    _ => Value::Int(i % 50),
                },
                match i % 700 {
                    699 => Value::Double(i as f64 + 0.1),
                    _ => Value::Int(i),
                },
                Value::Int(i64::MAX - 10 + i % 5),
                match i % 5 {
                    0 => Value::Null,
                    _ => Value::str(format!("s{:05}", (i * 7919) % 10007)),
                },
            ];
            st.insert(t, row).unwrap();
        }
        st.analyze(&mut cat).unwrap();
        (cat, st)
    }

    /// Runs `sql` under both engines (rows, per-node rows and work, total
    /// work all equal) and returns the rows.
    fn agree(cat: &Catalog, st: &Storage, sql: &str) -> Vec<Row> {
        assert_engines_agree_on(cat, st, &plan_of(cat, sql)).0
    }

    /// The shape of each conjunct of the first scan's filter: its
    /// operands in place (`col<lit`, `lit<col`, `col<col`), or
    /// `batched`.
    fn scan_conjs(cat: &Catalog, sql: &str) -> Vec<&'static str> {
        let set = ProgramSet::of(&plan_of(cat, sql));
        let scan = set.steps.iter().find_map(|s| match s {
            Step::Scan(p) => Some(p),
            _ => None,
        });
        let conjs = scan.expect("a scan").filter.iter();
        conjs
            .map(|c| match c {
                ScanConj::Batched { .. } => "batched",
                ScanConj::InPlace(p) => match p.direct_cmp().unwrap() {
                    (_, VecExpr::Col(_), VecExpr::Col(_)) => "col<col",
                    (_, VecExpr::Col(_), _) => "col<lit",
                    _ => "lit<col",
                },
            })
            .collect()
    }

    /// A value's bits, so that two doubles compare exactly.
    fn bits(v: &Value) -> (u8, u64) {
        match v {
            Value::Double(d) => (1, d.to_bits()),
            Value::Int(i) => (2, *i as u64),
            Value::Null => (0, 0),
            other => panic!("not a number: {other}"),
        }
    }

    #[test]
    fn scalar_folds_agree_with_the_row_engine() {
        for total in [0, 1, 1023, 1024, 1025, 2500] {
            let (cat, st) = setup_kernels(total);
            let rows = agree(
                &cat,
                &st,
                "SELECT COUNT(*), COUNT(n), SUM(n), AVG(n), MIN(n), MAX(n), \
                 SUM(x), AVG(x), SUM(w), MIN(s), MAX(s), COUNT(s) FROM k",
            );
            assert_eq!(rows.len(), 1, "{total} rows: one scalar group");
            let r = &rows[0];
            assert_eq!(r[0], Value::Int(total), "COUNT(*)");
            let nonnull = (0..total).filter(|i| i % 3 != 0).count() as i64;
            assert_eq!(r[1], Value::Int(nonnull), "COUNT(n) skips NULLs");
            if total == 0 {
                // the empty-input scalar group: counts 0, the rest NULL
                assert!(r[2..].iter().take(9).all(Value::is_null), "{r:?}");
                assert_eq!(r[11], Value::Int(0));
                continue;
            }
            // SUM(x) turns floating at row 699 and keeps adding in order
            let mut sum = 0f64;
            for i in 0..total {
                sum += match i % 700 {
                    699 => i as f64 + 0.1,
                    _ => i as f64,
                };
            }
            match total > 699 {
                true => assert_eq!(bits(&r[6]), bits(&Value::Double(sum))),
                false => assert_eq!(r[6], Value::Int((0..total).sum())),
            }
            let avg = Value::Double(sum / total as f64);
            assert_eq!(bits(&r[7]), bits(&avg), "AVG(x), bit for bit");
            let wrapped = (0..total).fold(0i64, |a, i| a.wrapping_add(i64::MAX - 10 + i % 5));
            assert_eq!(r[8], Value::Int(wrapped), "SUM wraps like the row engine");
        }
    }

    #[test]
    fn grouped_and_distinct_folds_agree_with_the_row_engine() {
        for total in [0, 5, 1025, 2500] {
            let (cat, st) = setup_kernels(total);
            let rows = agree(
                &cat,
                &st,
                "SELECT g, COUNT(*), COUNT(n), SUM(n), AVG(x), SUM(x), MIN(s), MAX(s), \
                 SUM(w), COUNT(DISTINCT n), SUM(DISTINCT n), AVG(DISTINCT x) \
                 FROM k GROUP BY g ORDER BY g",
            );
            assert_eq!(rows.len(), total.min(7) as usize);
            let count: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
            assert_eq!(count, total);
            agree(
                &cat,
                &st,
                "SELECT COUNT(DISTINCT n), SUM(DISTINCT n), MIN(DISTINCT s) FROM k",
            );
            // NULL-heavy input: most rows filtered to NULL arguments
            agree(
                &cat,
                &st,
                "SELECT g, SUM(n), COUNT(n), MAX(n) FROM k WHERE n IS NULL OR g = 1 GROUP BY g",
            );
        }
    }

    #[test]
    fn fold_kernels_match_one_add_per_value() {
        let col = [
            Value::Int(3),
            Value::Null,
            Value::Int(i64::MAX),
            Value::Double(0.1),
            Value::Int(4),
            Value::str("a"),
            Value::Int(-2),
        ];
        let funcs = [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        for func in funcs {
            for distinct in [false, true] {
                let new = || match distinct {
                    true => AggAcc::new_distinct(func),
                    false => AggAcc::new(func),
                };
                let mut one = new();
                col.iter().for_each(|v| one.add(v));
                let mut all = new();
                all.add_all(&col[..4]);
                all.add_all(&col[4..]);
                let (a, b) = (one.finish(), all.finish());
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{func:?}");
                // three groups, rows dealt round-robin, two accumulators
                // per group (the fold's stride)
                let gids: Vec<u32> = (0..col.len() as u32).map(|i| i % 3).collect();
                let mut by_row: Vec<AggAcc> = (0..6).map(|_| new()).collect();
                for (v, &g) in col.iter().zip(&gids) {
                    by_row[g as usize * 2 + 1].add(v);
                }
                let mut folded: Vec<AggAcc> = (0..6).map(|_| new()).collect();
                AggAcc::add_by_group(&mut folded[1..], 2, Some(&col), &Value::Int(1), &gids);
                let finish = |accs: &[AggAcc]| {
                    format!("{:?}", accs.iter().map(AggAcc::finish).collect::<Vec<_>>())
                };
                assert_eq!(finish(&by_row), finish(&folded), "{func:?} by group");
            }
        }
        // no argument: COUNT(*) counts rows, anything else adds the star
        let mut star = AggAcc::new(AggFunc::CountStar);
        star.add_repeated(&Value::Int(1), 5);
        assert_eq!(star.finish(), Value::Int(5));
        let mut sum = AggAcc::new(AggFunc::Sum);
        sum.add_repeated(&Value::Int(1), 5);
        assert_eq!(sum.finish(), Value::Int(5));
    }

    #[test]
    fn in_place_conjuncts_agree_with_the_row_engine() {
        let (cat, st) = setup_kernels(2500);
        // `lit < col` keeps its operand order: flipped, it keeps the
        // complement
        let sql = "SELECT id FROM k WHERE 2000 < id";
        assert_eq!(scan_conjs(&cat, sql), ["lit<col"]);
        let rows = agree(&cat, &st, sql);
        assert_eq!(rows.len(), 499);
        let sql = "SELECT COUNT(*) FROM k WHERE 10 >= n";
        assert_eq!(scan_conjs(&cat, sql), ["lit<col"]);
        let nulls_fail = (0..2500).filter(|i| i % 3 != 0 && i % 50 <= 10).count() as i64;
        assert_eq!(agree(&cat, &st, sql), [vec![Value::Int(nulls_fail)]]);
        // the ROWID pseudo-column reads the heap ordinal in place
        let sql = "SELECT id FROM k WHERE ROWID < 1500 AND g = 3";
        assert_eq!(scan_conjs(&cat, sql), ["col<lit", "col<lit"]);
        let rows = agree(&cat, &st, sql);
        assert_eq!(rows.len(), (0..1500).filter(|i| i % 7 == 3).count());
        // two columns, and a Double against an Int
        let sql = "SELECT id FROM k WHERE x <> id AND n < g";
        assert_eq!(scan_conjs(&cat, sql), ["col<col", "col<col"]);
        let rows = agree(&cat, &st, sql);
        let want = (0..2500).filter(|i| i % 700 == 699 && i % 3 != 0 && i % 50 < i % 7);
        assert_eq!(rows.len(), want.count());
        agree(
            &cat,
            &st,
            "SELECT id FROM k WHERE x > 699.05 AND x < id + 1",
        );
    }

    #[test]
    fn a_batched_conjunct_between_in_place_ones_keeps_pred_order() {
        let (cat, st) = setup_kernels(2500);
        // `100 / id` raises on id 0 unless `id > 0` has dropped it; the
        // per-node work pins one PRED per conjunct per row still selected
        let sql = "SELECT id, s FROM k WHERE id > 0 AND 100 / id < 1 AND n = 1";
        assert_eq!(scan_conjs(&cat, sql), ["col<lit", "batched", "col<lit"]);
        let rows = agree(&cat, &st, sql);
        assert_eq!(
            rows.len(),
            (101..2500).filter(|i| i % 50 == 1 && i % 3 != 0).count()
        );
        // a batched conjunct first: its column is materialized for every
        // row, and the in-place one after it sees the survivors
        let sql = "SELECT id FROM k WHERE n + 1 = 2 AND id > 1000 AND s LIKE 's0%'";
        assert_eq!(scan_conjs(&cat, sql), ["batched", "col<lit", "batched"]);
        agree(&cat, &st, sql);
    }

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
