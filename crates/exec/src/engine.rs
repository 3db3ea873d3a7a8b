//! Block execution: scans, joins, aggregation, windows, distinct, order,
//! ROWNUM — plus the TIS subquery cache.

use crate::batch::ProgramSet;
use crate::eval::{compute_windows, AggAcc, Bindings, EvalCtx};
use crate::metrics::ExecMetrics;
use cbqt_catalog::Catalog;
use cbqt_common::failpoint;
use cbqt_common::hash::{HashMap, HashSet};
use cbqt_common::{Error, ExecutionMode, Governor, Result, Row, Value};
use cbqt_optimizer::{
    weights, AccessPath, BlockPlan, JoinMethod, Layout, PlanJoinKind, PlanNode, PlanNodeId,
    PlanRoot, SelectPlan,
};
use cbqt_qgm::{BlockId, QExpr, RefId, SetOp};
use cbqt_storage::{SnapTable, Snapshot, Storage};
use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::cmp::Ordering;
use std::ops::Bound;
use std::rc::Rc;
use std::sync::Arc;

/// TIS cache: (subquery block, correlation binding values) → rows.
type SubqCache = HashMap<(BlockId, Vec<Value>), Rc<Vec<Row>>>;

/// Execution statistics for one query run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Deterministic work units (same weights as the cost model).
    pub work: f64,
    /// Subquery / lateral-view cache hits (correlation caching).
    pub cache_hits: u64,
    /// Subquery / lateral-view executions (cache misses).
    pub cache_misses: u64,
}

/// The execution engine. Create one per query execution; the TIS cache
/// lives for the duration of the query.
///
/// It runs select blocks with the vectorized batch engine unless the
/// caller picks the Volcano row engine with [`Engine::set_mode`]. The
/// two agree on rows, per-operator rows and work, and total work. Set
/// operations, the metrics wrapper, access paths, the nested-loop /
/// merge / lateral join loop and the ROWNUM filter are one code path
/// for both. A work budget is checked against
/// the statement's total work once the plan has run, so both engines
/// succeed or fail under it alike.
pub struct Engine<'a> {
    pub catalog: &'a Catalog,
    /// The MVCC snapshot every scan reads "as of". Pinned at engine
    /// construction: a statement sees one consistent watermark (plus its
    /// own transaction's uncommitted writes) for its whole execution.
    snapshot: Snapshot,
    work: Cell<f64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    subq_cache: RefCell<SubqCache>,
    /// Per-operator runtime counters; `None` (the default) keeps the
    /// execution path free of timing calls.
    metrics: RefCell<Option<ExecMetrics>>,
    /// Whether metric records include wall-clock timing. Light mode
    /// (used by the serving path's feedback harvest) skips the
    /// `Instant::now` pair per operator execution.
    metrics_timing: Cell<bool>,
    /// The compiled programs of the plan being run, with its position
    /// index, installed by every run ([`Engine::run`],
    /// [`Engine::run_programs`]). Every operator is handed the
    /// [`PlanNodeId`] of the element it runs — its position in the plan
    /// walk — derives its children's ids through the index, and the
    /// batch engine looks its programs up by that id.
    programs: RefCell<Option<Arc<ProgramSet>>>,
    /// Statement-level resource governor; `Governor::unlimited()` (the
    /// default) makes every check a single `Option` test.
    governor: Governor,
    /// Rows processed so far; the governor is charged once per
    /// [`GOVERNOR_BATCH`] boundary the count crosses.
    ticks: Cell<u64>,
    /// Which interpreter executes select blocks: the vectorized batch
    /// engine or the row-at-a-time Volcano oracle.
    mode: ExecutionMode,
    /// Bind values for this execution, indexed by `QExpr::Param` slot,
    /// borrowed when the caller keeps them. Empty means "use each
    /// param's peek value" (the values the plan was compiled with).
    params: Cow<'a, [Value]>,
}

/// Rows processed between governor checks. Small enough that deadlines
/// and budgets trip promptly, large enough to keep atomics off the
/// per-row path. Both engines charge through [`Engine::tick_rows`], so
/// they charge the same multiples of this quantum and row-budget
/// outcomes are identical across engines.
const GOVERNOR_BATCH: u64 = 128;

/// The right input of [`Engine::join_rows`]: rows produced once, or a
/// lateral side (node and position) run once per left row.
enum RightInput<'p> {
    Rows(&'p PlanNode, Vec<Row>),
    Lateral(&'p PlanNode, PlanNodeId),
}

impl<'a> Engine<'a> {
    /// An engine reading the latest committed state (autocommit reads).
    pub fn new(catalog: &'a Catalog, storage: &Storage) -> Engine<'a> {
        Engine::with_snapshot(catalog, storage.snapshot())
    }

    /// An engine reading through an explicit [`Snapshot`] — the path
    /// statements inside an open transaction take.
    pub fn with_snapshot(catalog: &'a Catalog, snapshot: Snapshot) -> Engine<'a> {
        Engine {
            catalog,
            snapshot,
            work: Cell::new(0.0),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            subq_cache: RefCell::new(HashMap::default()),
            metrics: RefCell::new(None),
            metrics_timing: Cell::new(true),
            programs: RefCell::new(None),
            governor: Governor::unlimited(),
            ticks: Cell::new(0),
            mode: ExecutionMode::default(),
            params: Cow::Borrowed(&[]),
        }
    }

    /// Installs the bind values for this execution — a `Vec`, or a
    /// slice the caller keeps for the engine's life. `QExpr::Param`
    /// slots resolve against them; slots past their end fall back to
    /// their compiled-in peek values.
    pub fn set_params(&mut self, params: impl Into<Cow<'a, [Value]>>) {
        self.params = params.into();
    }

    /// Resolves a bind slot: the installed value, or `peek` when none
    /// was installed for the slot.
    #[inline]
    pub(crate) fn param<'v>(&'v self, slot: usize, peek: &'v Value) -> &'v Value {
        self.params.get(slot).unwrap_or(peek)
    }

    /// The MVCC snapshot this engine reads through.
    #[inline]
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Selects the interpreter for this engine; a new engine runs the
    /// vectorized one (`ExecutionMode::default()`).
    pub fn set_mode(&mut self, mode: ExecutionMode) {
        self.mode = mode;
    }

    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Installs the statement's resource governor: row/work budgets and
    /// deadline/cancellation interrupts are observed by every operator
    /// loop (batched per `GOVERNOR_BATCH` rows), and the work budget once
    /// more against the total when the plan has run.
    pub fn set_governor(&mut self, governor: Governor) {
        self.governor = governor;
    }

    /// Charges one processed row against the governor. Every
    /// `next()`-style row loop calls this, so a runaway statement is
    /// interrupted wherever its time goes.
    #[inline]
    pub(crate) fn tick(&self) -> Result<()> {
        self.tick_rows(1)
    }

    /// Charges `n` processed rows in one call, consulting the governor
    /// once per [`GOVERNOR_BATCH`] boundary crossed. A row loop and a
    /// batch loop over the same rows make the same charges.
    #[inline]
    pub(crate) fn tick_rows(&self, n: u64) -> Result<()> {
        let t0 = self.ticks.get();
        let t1 = t0.wrapping_add(n);
        self.ticks.set(t1);
        let blocks = t1 / GOVERNOR_BATCH - t0 / GOVERNOR_BATCH;
        if blocks > 0 {
            self.governor
                .charge_exec(blocks * GOVERNOR_BATCH, self.work.get())?;
        }
        Ok(())
    }

    /// Turns on per-operator metrics collection (EXPLAIN ANALYZE).
    pub fn enable_metrics(&self) {
        *self.metrics.borrow_mut() = Some(ExecMetrics::new());
        self.metrics_timing.set(true);
    }

    /// Turns on metrics collection without per-operator wall-clock
    /// timing: rows/execs/work are still counted (what the feedback
    /// harvest needs), but the two `Instant::now` calls per operator
    /// execution are skipped — cheap enough for every served query.
    pub fn enable_metrics_light(&self) {
        *self.metrics.borrow_mut() = Some(ExecMetrics::new());
        self.metrics_timing.set(false);
    }

    /// Returns the metrics collected since [`Engine::enable_metrics`],
    /// leaving collection enabled with a fresh table.
    pub fn take_metrics(&self) -> Option<ExecMetrics> {
        self.metrics.borrow_mut().as_mut().map(std::mem::take)
    }

    /// Executes a root plan and returns the projected rows, compiling
    /// its [`ProgramSet`] first.
    pub fn run(&self, plan: &BlockPlan) -> Result<Vec<Row>> {
        self.run_with(plan, Arc::new(ProgramSet::of(plan)))
    }

    /// [`run`](Engine::run) with the plan's program set compiled by the
    /// caller — a cached plan keeps one, so an execution of it compiles
    /// nothing. `programs` must be compiled from `plan`; debug builds
    /// check it against a fresh build.
    pub fn run_programs(&self, plan: &BlockPlan, programs: &Arc<ProgramSet>) -> Result<Vec<Row>> {
        debug_assert!(
            **programs == ProgramSet::of(plan),
            "a program set of another plan"
        );
        self.run_with(plan, Arc::clone(programs))
    }

    fn run_with(&self, plan: &BlockPlan, programs: Arc<ProgramSet>) -> Result<Vec<Row>> {
        if let Some(m) = self.metrics.borrow_mut().as_mut() {
            m.bind(programs.index());
        }
        *self.programs.borrow_mut() = Some(programs);
        let rows = self.execute_block(plan, PlanNodeId(0), &Bindings::default())?;
        // the budget holds for the statement's total work; the checks at
        // row ticks only stop a runaway statement early
        self.governor.charge_exec(0, self.work.get())?;
        Ok(rows)
    }

    /// The program set of the running plan.
    pub(crate) fn programs(&self) -> Ref<'_, ProgramSet> {
        Ref::map(self.programs.borrow(), |p| {
            p.as_deref().expect("every run installs a program set")
        })
    }

    pub fn stats(&self) -> ExecStats {
        ExecStats {
            work: self.work.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
        }
    }

    pub(crate) fn add_work(&self, w: f64) {
        self.work.set(self.work.get() + w);
    }

    /// Runs the element at position `id` and, when metrics are on,
    /// records one execution of it: the rows `rows` counts in its
    /// output, the work it charged and (unless light) its wall time.
    /// Every block and plan node of both engines runs through here.
    pub(crate) fn metered<T>(
        &self,
        id: PlanNodeId,
        rows: impl FnOnce(&T) -> usize,
        run: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if self.metrics.borrow().is_none() {
            return run();
        }
        let work0 = self.work.get();
        let start = self.metrics_timing.get().then(std::time::Instant::now);
        let out = run()?;
        let elapsed = start.map(|s| s.elapsed()).unwrap_or_default();
        let work = self.work.get() - work0;
        if let Some(m) = self.metrics.borrow_mut().as_mut() {
            m.record(id, rows(&out) as u64, work, elapsed);
        }
        Ok(out)
    }

    /// The id the plan walk reaches after `id`'s subtree — the next
    /// sibling of a join's left side, a set operation's input or a
    /// subplan.
    pub(crate) fn after(&self, id: PlanNodeId) -> PlanNodeId {
        self.programs().index().after(id)
    }

    /// Burns CPU for the EXPENSIVE() stand-in UDF: deterministic work
    /// proportional to `units`, visible both in wall time and in the work
    /// counter.
    pub(crate) fn burn(&self, units: f64) {
        self.add_work(units);
        let iters = (units.max(0.0) * 25.0) as u64;
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..iters {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
    }

    /// Executes a (possibly correlated) block plan at position `id` with
    /// caching on the values of its outer references (`plan.free`) — the
    /// TIS correlation cache.
    pub(crate) fn execute_cached(
        &self,
        plan: &BlockPlan,
        id: PlanNodeId,
        binds: &Bindings<'_>,
    ) -> Result<Rc<Vec<Row>>> {
        let mut key = Vec::with_capacity(plan.free.len());
        for (r, c) in &plan.free {
            key.push(resolve_outer(binds, *r, *c)?);
        }
        let cache_key = (plan.block, key);
        if let Some(hit) = self.subq_cache.borrow().get(&cache_key) {
            self.cache_hits.set(self.cache_hits.get() + 1);
            self.add_work(weights::HASH_PROBE);
            return Ok(Rc::clone(hit));
        }
        self.cache_misses.set(self.cache_misses.get() + 1);
        let rows = Rc::new(self.execute_block(plan, id, binds)?);
        self.subq_cache
            .borrow_mut()
            .insert(cache_key, Rc::clone(&rows));
        Ok(rows)
    }

    fn execute_block(
        &self,
        plan: &BlockPlan,
        id: PlanNodeId,
        binds: &Bindings<'_>,
    ) -> Result<Vec<Row>> {
        self.metered(id, Vec::len, || self.execute_block_inner(plan, id, binds))
    }

    fn execute_block_inner(
        &self,
        plan: &BlockPlan,
        id: PlanNodeId,
        binds: &Bindings<'_>,
    ) -> Result<Vec<Row>> {
        match &plan.root {
            PlanRoot::Select(sp) => match self.mode {
                ExecutionMode::Volcano => self.exec_select(sp, id, binds),
                ExecutionMode::Vectorized => crate::batch::exec_select_batched(self, sp, id, binds),
            },
            PlanRoot::SetOp(sop) => {
                let mut inputs: Vec<Vec<Row>> = Vec::with_capacity(sop.inputs.len());
                let mut at = id.first_child();
                for i in &sop.inputs {
                    inputs.push(self.execute_block(i, at, binds)?);
                    at = self.after(at);
                }
                self.exec_setop(sop.op, inputs)
            }
        }
    }

    /// Set operations over the inputs' rows, for both engines: UNION
    /// and INTERSECT / MINUS dedup through one `HashSet<Row>` and keep
    /// first-occurrence order; the governor ticks and DEDUP work are
    /// charged once per [`crate::batch::BATCH_SIZE`] chunk.
    fn exec_setop(&self, op: SetOp, mut inputs: Vec<Vec<Row>>) -> Result<Vec<Row>> {
        cbqt_common::failpoint!(failpoint::EXEC_SETOP);
        let chunked = |this: &Engine<'_>, rows: &[Row]| -> Result<()> {
            for chunk in rows.chunks(crate::batch::BATCH_SIZE) {
                this.tick_rows(chunk.len() as u64)?;
                this.add_work(chunk.len() as f64 * weights::DEDUP);
            }
            Ok(())
        };
        match op {
            SetOp::UnionAll => {
                let mut out = Vec::new();
                for mut i in inputs {
                    self.add_work(i.len() as f64 * weights::ROW);
                    out.append(&mut i);
                }
                self.governor
                    .charge_exec(out.len() as u64, self.work.get())?;
                Ok(out)
            }
            SetOp::Union => {
                let mut seen: HashSet<Row> = HashSet::default();
                let mut out = Vec::new();
                for i in inputs {
                    chunked(self, &i)?;
                    for r in i {
                        if seen.insert(r.clone()) {
                            out.push(r);
                        }
                    }
                }
                Ok(out)
            }
            SetOp::Intersect | SetOp::Minus => {
                let right: HashSet<Row> = inputs.pop().unwrap_or_default().into_iter().collect();
                let left = inputs.pop().unwrap_or_default();
                chunked(self, &left)?;
                let keep_present = op == SetOp::Intersect;
                let mut seen: HashSet<Row> = HashSet::default();
                let mut out = Vec::new();
                for r in left {
                    if right.contains(&r) == keep_present && seen.insert(r.clone()) {
                        out.push(r);
                    }
                }
                Ok(out)
            }
        }
    }

    fn exec_select(
        &self,
        sp: &SelectPlan,
        id: PlanNodeId,
        binds: &Bindings<'_>,
    ) -> Result<Vec<Row>> {
        let rows = self.exec_node(&sp.join, id.first_child(), binds)?;
        let base_ctx = EvalCtx::of_select(self, sp, id, binds);

        let mut rows = self.post_filter_rows(sp, &base_ctx, rows)?;

        // aggregation
        let aggregated = !sp.group_by.is_empty()
            || sp.grouping_sets.is_some()
            || !sp.aggs.is_empty()
            || !sp.having.is_empty();
        if aggregated {
            rows = self.aggregate(sp, &base_ctx, rows)?;
            // HAVING
            let mut kept = Vec::new();
            for r in rows {
                let mut pass = true;
                for h in &sp.having {
                    self.add_work(weights::PRED);
                    if !base_ctx.eval_truth(h, &r)?.passes() {
                        pass = false;
                        break;
                    }
                }
                if pass {
                    kept.push(r);
                }
            }
            rows = kept;
        }

        // window functions
        if !sp.windows.is_empty() {
            compute_windows(&base_ctx, &mut rows, &sp.windows)?;
        }

        // distinct / distinct-on
        if sp.distinct || sp.distinct_keys.is_some() {
            let keys: Vec<QExpr> = match &sp.distinct_keys {
                Some(k) => k.clone(),
                None => sp.select.clone(),
            };
            let mut seen: HashSet<Vec<Value>> = HashSet::default();
            let mut kept = Vec::new();
            for r in rows {
                self.add_work(weights::DEDUP);
                let key: Vec<Value> = keys
                    .iter()
                    .map(|e| base_ctx.eval(e, &r))
                    .collect::<Result<_>>()?;
                if seen.insert(key) {
                    kept.push(r);
                }
            }
            rows = kept;
        }

        // order by
        if !sp.order_by.is_empty() {
            let n = rows.len().max(2) as f64;
            self.add_work(weights::SORT * n * n.log2());
            let mut keyed: Vec<(Vec<Value>, Row)> = rows
                .into_iter()
                .map(|r| {
                    let k: Vec<Value> = sp
                        .order_by
                        .iter()
                        .map(|o| base_ctx.eval(&o.expr, &r))
                        .collect::<Result<_>>()?;
                    Ok((k, r))
                })
                .collect::<Result<_>>()?;
            keyed.sort_by(|a, b| {
                for (j, o) in sp.order_by.iter().enumerate() {
                    let ord = order_cmp(&a.0[j], &b.0[j], o.desc, o.nulls_first);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, r)| r).collect();
        }

        // projection
        let mut out = Vec::with_capacity(rows.len());
        for r in &rows {
            self.tick()?;
            self.add_work(weights::ROW);
            let proj: Row = sp
                .select
                .iter()
                .map(|e| base_ctx.eval(e, r))
                .collect::<Result<_>>()?;
            out.push(proj);
        }
        Ok(out)
    }

    /// WHERE residue (TIS subquery filters etc.) + ROWNUM, with early
    /// exit once the limit is reached. Shared by both engines: the
    /// vectorized path falls back to this row loop whenever a
    /// `rownum_limit` is present, because the limit's early exit decides
    /// exactly which rows ever get evaluated.
    pub(crate) fn post_filter_rows(
        &self,
        sp: &SelectPlan,
        ctx: &EvalCtx<'_>,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>> {
        let mut filtered: Vec<Row> = Vec::new();
        for r in rows {
            self.tick()?;
            let mut pass = true;
            for c in &sp.post_filter {
                self.add_work(weights::PRED);
                if !ctx.eval_truth(c, &r)?.passes() {
                    pass = false;
                    break;
                }
            }
            if pass {
                filtered.push(r);
                if let Some(lim) = sp.rownum_limit {
                    if filtered.len() as u64 >= lim {
                        break;
                    }
                }
            }
        }
        Ok(filtered)
    }

    /// Hash aggregation with representative-row semantics and grouping
    /// sets. Output rows are `representative wide row ++ agg values`.
    pub(crate) fn aggregate(
        &self,
        sp: &SelectPlan,
        ctx: &EvalCtx<'_>,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>> {
        cbqt_common::failpoint!(failpoint::EXEC_AGG);
        let sets: Vec<Vec<usize>> = match &sp.grouping_sets {
            Some(s) => s.clone(),
            None => vec![(0..sp.group_by.len()).collect()],
        };

        let mut out: Vec<Row> = Vec::new();
        for set in &sets {
            let mut groups: HashMap<Vec<Value>, (Row, Vec<AggAcc>)> = HashMap::default();
            let mut order: Vec<Vec<Value>> = Vec::new();
            for r in &rows {
                self.tick()?;
                self.add_work(weights::AGG);
                let key: Vec<Value> = set
                    .iter()
                    .map(|&i| ctx.eval(&sp.group_by[i], r))
                    .collect::<Result<_>>()?;
                let entry = match groups.get_mut(&key) {
                    Some(e) => e,
                    None => {
                        order.push(key.clone());
                        groups
                            .entry(key.clone())
                            .or_insert((r.clone(), AggAcc::for_slots(&sp.aggs)?))
                    }
                };
                for (acc, agg) in entry.1.iter_mut().zip(sp.aggs.iter()) {
                    let QExpr::Agg { arg, .. } = agg else {
                        unreachable!()
                    };
                    let v = match arg {
                        Some(a) => ctx.eval(a, r)?,
                        None => Value::Int(1),
                    };
                    acc.add(&v);
                }
            }
            // scalar aggregate over empty input: one all-NULL group
            if groups.is_empty() && sp.group_by.is_empty() && sets.len() == 1 {
                let rep: Row = vec![Value::Null; sp.layout.width];
                let accs = AggAcc::for_slots(&sp.aggs)?;
                let mut row = rep;
                for acc in &accs {
                    row.push(acc.finish());
                }
                out.push(row);
                continue;
            }
            let full_set: HashSet<usize> = set.iter().copied().collect();
            for key in order {
                let (mut rep, accs) = groups.remove(&key).unwrap();
                // grouping-set semantics: group-by columns not in this
                // set read as NULL (requires simple column group-bys,
                // which is all the builder produces for ROLLUP)
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
                out.push(rep);
            }
        }
        Ok(out)
    }

    pub(crate) fn exec_node(
        &self,
        node: &PlanNode,
        id: PlanNodeId,
        binds: &Bindings<'_>,
    ) -> Result<Vec<Row>> {
        self.metered(id, Vec::len, || self.exec_node_inner(node, id, binds))
    }

    fn exec_node_inner(
        &self,
        node: &PlanNode,
        id: PlanNodeId,
        binds: &Bindings<'_>,
    ) -> Result<Vec<Row>> {
        match node {
            PlanNode::OneRow => {
                self.add_work(weights::ROW);
                Ok(vec![Vec::new()])
            }
            PlanNode::ScanBase {
                table,
                access,
                filter,
                ..
            } => {
                cbqt_common::failpoint!(failpoint::EXEC_SCAN);
                let set = self.programs();
                let ctx = self.simple_ctx(set.scan_layout(id)?, binds);
                let data = self.snapshot.table(*table)?;
                let mut ordinals = Vec::new();
                self.scan_ordinals(access, &ctx, &data, &mut ordinals)?;
                let mut out = Vec::new();
                for ordinal in ordinals {
                    self.tick()?;
                    // one allocation per row: the heap row and its ROWID
                    let heap_row = data.row(ordinal);
                    let mut row = Vec::with_capacity(heap_row.len() + 1);
                    row.extend_from_slice(heap_row);
                    row.push(Value::Int(ordinal as i64));
                    let mut pass = true;
                    for c in filter {
                        self.add_work(weights::PRED);
                        if !ctx.eval_truth(c, &row)?.passes() {
                            pass = false;
                            break;
                        }
                    }
                    if pass {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            PlanNode::ScanView { plan, filter, .. } => {
                let rows = self.execute_cached(plan, id.first_child(), binds)?;
                let set = self.programs();
                let ctx = self.simple_ctx(set.scan_layout(id)?, binds);
                let mut out = Vec::new();
                for r in rows.iter() {
                    self.tick()?;
                    self.add_work(weights::ROW);
                    let mut pass = true;
                    for c in filter {
                        self.add_work(weights::PRED);
                        if !ctx.eval_truth(c, r)?.passes() {
                            pass = false;
                            break;
                        }
                    }
                    if pass {
                        out.push(r.clone());
                    }
                }
                Ok(out)
            }
            PlanNode::Join {
                left,
                right,
                kind,
                method,
                equi,
                residual,
                lateral,
                ..
            } => self.exec_join(
                left, right, id, *kind, *method, equi, residual, *lateral, binds,
            ),
        }
    }

    /// Resolves an access path to the matching *visible* row ordinals in
    /// `hits` (cleared first, so a caller probing many times reuses one
    /// buffer), charging the same work units the row engine always has
    /// (per visible row for full scans, index probe + per-visible-hit
    /// fetch). Shared by both engines, so their work metrics stay
    /// identical.
    pub(crate) fn scan_ordinals(
        &self,
        access: &AccessPath,
        ctx: &EvalCtx<'_>,
        data: &SnapTable<'_>,
        hits: &mut Vec<usize>,
    ) -> Result<()> {
        hits.clear();
        match access {
            AccessPath::FullScan => {
                // sized for every version, so the list never regrows
                hits.reserve(data.version_count());
                hits.extend(data.visible_ordinals());
                self.add_work(hits.len() as f64 * weights::ROW);
                return Ok(());
            }
            AccessPath::IndexEq { index, key } => {
                self.add_work(weights::INDEX_PROBE);
                // a one-column key is probed with no key vector
                let (one, many);
                let keyvals: &[Value] = match key.as_slice() {
                    [k] => {
                        one = self.key_value(k, ctx)?;
                        std::slice::from_ref(&*one)
                    }
                    _ => {
                        many = key
                            .iter()
                            .map(|e| self.key_value(e, ctx).map(Cow::into_owned))
                            .collect::<Result<Vec<_>>>()?;
                        &many
                    }
                };
                let ix = self.snapshot.index(*index)?;
                if ix.columns.len() == keyvals.len() {
                    hits.extend_from_slice(ix.lookup_eq(keyvals));
                } else if let Some(first) = keyvals.first() {
                    // prefix probe: range over the leading column
                    ix.lookup_range(Bound::Included(first), Bound::Included(first), hits);
                }
            }
            AccessPath::IndexRange { index, lo, hi } => {
                self.add_work(weights::INDEX_PROBE);
                let bound = |b: &Option<(QExpr, bool)>| -> Result<Bound<Value>> {
                    Ok(match b {
                        Some((e, inc)) => {
                            let v = self.key_value(e, ctx)?.into_owned();
                            match inc {
                                true => Bound::Included(v),
                                false => Bound::Excluded(v),
                            }
                        }
                        None => Bound::Unbounded,
                    })
                };
                let (lo_v, hi_v) = (bound(lo)?, bound(hi)?);
                let ix = self.snapshot.index(*index)?;
                ix.lookup_range(as_ref_bound(&lo_v), as_ref_bound(&hi_v), hits);
            }
        }
        hits.retain(|&o| data.visible(o));
        self.add_work(hits.len() as f64 * weights::INDEX_FETCH);
        Ok(())
    }

    /// The value of an index key expression, which references only outer
    /// bindings: a literal, a bind or an outer column is borrowed, and
    /// anything else is evaluated against the bindings alone.
    fn key_value<'v>(&'v self, e: &'v QExpr, ctx: &'v EvalCtx<'_>) -> Result<Cow<'v, Value>> {
        match e {
            QExpr::Lit(v) => Ok(Cow::Borrowed(v)),
            QExpr::Param { slot, peek } => Ok(Cow::Borrowed(self.param(*slot, peek))),
            QExpr::Col { table, column } => ctx.outer.value(*table, *column),
            _ => {
                let empty = Layout::default();
                let kctx = EvalCtx {
                    layout: &empty,
                    ..ctx.clone()
                };
                kctx.eval(e, &[]).map(Cow::Owned)
            }
        }
    }

    /// Produces a join's children with the row engine, then runs the
    /// join loop over their rows.
    #[allow(clippy::too_many_arguments)]
    fn exec_join(
        &self,
        left: &PlanNode,
        right: &PlanNode,
        id: PlanNodeId,
        kind: PlanJoinKind,
        method: JoinMethod,
        equi: &[(QExpr, QExpr)],
        residual: &[QExpr],
        lateral: bool,
        binds: &Bindings<'_>,
    ) -> Result<Vec<Row>> {
        cbqt_common::failpoint!(failpoint::EXEC_JOIN);
        let (left_id, right_id) = (id.first_child(), self.after(id.first_child()));
        let lrows = self.exec_node(left, left_id, binds)?;
        let right_in = if lateral {
            RightInput::Lateral(right, right_id)
        } else {
            RightInput::Rows(right, self.exec_node(right, right_id, binds)?)
        };
        let set = self.programs();
        let layouts = set.join_layouts(id)?;
        self.join_rows(
            layouts, right_in, kind, method, equi, residual, &lrows, binds,
        )
    }

    /// The row engine's join loop over rows, once both children are
    /// produced (a lateral right side is produced here, once per left
    /// row), with the join's compiled left, right and combined layouts.
    /// The batch engine's joins in [`crate::batch`] charge, tick and
    /// order their output exactly as this loop does.
    #[allow(clippy::too_many_arguments)]
    fn join_rows(
        &self,
        [llayout, rlayout_node, combined]: [&Layout; 3],
        right_in: RightInput<'_>,
        kind: PlanJoinKind,
        method: JoinMethod,
        equi: &[(QExpr, QExpr)],
        residual: &[QExpr],
        lrows: &[Row],
        binds: &Bindings<'_>,
    ) -> Result<Vec<Row>> {
        let right = match &right_in {
            RightInput::Lateral(node, _) | RightInput::Rows(node, _) => *node,
        };
        let rwidth = right.width();

        let lctx = self.simple_ctx(llayout, binds);
        let cctx = self.simple_ctx(combined, binds);

        let rrows = match right_in {
            RightInput::Rows(_, rrows) => rrows,
            RightInput::Lateral(_, right_id) => {
                // right side re-executed per left row
                let mut out = Vec::new();
                for lrow in lrows {
                    let b2 = binds.push(llayout, lrow);
                    let rrows = self.exec_node(right, right_id, &b2)?;
                    let rctx = self.simple_ctx(rlayout_node, &b2);
                    let mut matched = false;
                    for rrow in &rrows {
                        self.tick()?;
                        self.add_work((equi.len() + residual.len()).max(1) as f64 * weights::PRED);
                        if !self.pair_matches(&lctx, &rctx, &cctx, lrow, rrow, equi, residual)? {
                            continue;
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
                    match kind {
                        PlanJoinKind::LeftOuter if !matched => {
                            out.push(null_pad(lrow, rwidth));
                        }
                        PlanJoinKind::Anti { null_aware } if !matched => {
                            if null_aware {
                                // NOT IN: a NULL probe key never qualifies
                                // unless the right side is empty
                                let keys: Vec<Value> = equi
                                    .iter()
                                    .map(|(l, _)| lctx.eval(l, lrow))
                                    .collect::<Result<_>>()?;
                                if rrows.is_empty() || !keys.iter().any(Value::is_null) {
                                    out.push(lrow.clone());
                                }
                            } else {
                                out.push(lrow.clone());
                            }
                        }
                        _ => {}
                    }
                }
                self.add_work(out.len() as f64 * weights::ROW);
                return Ok(out);
            }
        };
        let rctx = self.simple_ctx(rlayout_node, binds);

        match method {
            JoinMethod::Hash => self.hash_join(
                lrows, &rrows, kind, equi, residual, &lctx, &rctx, &cctx, rwidth,
            ),
            JoinMethod::Merge => {
                self.merge_join(lrows, &rrows, equi, residual, &lctx, &rctx, &cctx)
            }
            JoinMethod::NestedLoop => self.nl_join(
                lrows, &rrows, kind, equi, residual, &lctx, &rctx, &cctx, rwidth,
            ),
        }
    }

    pub(crate) fn simple_ctx<'b>(
        &'b self,
        layout: &'b Layout,
        binds: &Bindings<'b>,
    ) -> EvalCtx<'b> {
        EvalCtx {
            engine: self,
            layout,
            aggs: &[],
            agg_base: 0,
            windows: &[],
            win_base: 0,
            subplans: &[],
            subplans_at: PlanNodeId(0),
            outer: binds.clone(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn pair_matches(
        &self,
        lctx: &EvalCtx<'_>,
        rctx: &EvalCtx<'_>,
        cctx: &EvalCtx<'_>,
        lrow: &[Value],
        rrow: &[Value],
        equi: &[(QExpr, QExpr)],
        residual: &[QExpr],
    ) -> Result<bool> {
        for (le, re) in equi {
            let lv = lctx.eval(le, lrow)?;
            let rv = rctx.eval(re, rrow)?;
            if lv.sql_eq(&rv) != Some(true) {
                return Ok(false);
            }
        }
        if !residual.is_empty() {
            let crow = concat(lrow, rrow);
            for c in residual {
                if !cctx.eval_truth(c, &crow)?.passes() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Whether a left row that matched no right row still fails a
    /// null-aware anti join (NOT IN): some right row passes the residual
    /// with it while its key or that row's key is NULL. The caller picks
    /// the `candidates`: the right rows whose key is NULL for a non-NULL
    /// left key, every right row for a NULL one; `rrow(k)` fetches the
    /// k-th. Each row checked against a residual is charged. A residual
    /// that reads only the right side is the subquery's own filter, so a
    /// right row it rejects is not in the subquery at all, NULL key or
    /// not. Both engines call this, so their charges stay equal.
    pub(crate) fn null_aware_rejects<R: AsRef<[Value]>>(
        &self,
        cctx: &EvalCtx<'_>,
        lrow: &[Value],
        candidates: usize,
        mut rrow: impl FnMut(usize) -> R,
        residual: &[QExpr],
    ) -> Result<bool> {
        if residual.is_empty() {
            return Ok(candidates > 0);
        }
        for k in 0..candidates {
            self.tick()?;
            self.add_work(residual.len() as f64 * weights::PRED);
            let crow = concat(lrow, rrow(k).as_ref());
            let mut pass = true;
            for c in residual {
                if !cctx.eval_truth(c, &crow)?.passes() {
                    pass = false;
                    break;
                }
            }
            if pass {
                return Ok(true);
            }
        }
        Ok(false)
    }

    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &self,
        lrows: &[Row],
        rrows: &[Row],
        kind: PlanJoinKind,
        equi: &[(QExpr, QExpr)],
        residual: &[QExpr],
        lctx: &EvalCtx<'_>,
        rctx: &EvalCtx<'_>,
        cctx: &EvalCtx<'_>,
        rwidth: usize,
    ) -> Result<Vec<Row>> {
        // build on right
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::default();
        let mut null_rows = Vec::new();
        for (i, r) in rrows.iter().enumerate() {
            self.tick()?;
            self.add_work(weights::HASH_BUILD);
            let key: Vec<Value> = equi
                .iter()
                .map(|(_, re)| rctx.eval(re, r))
                .collect::<Result<_>>()?;
            if key.iter().any(Value::is_null) {
                null_rows.push(i);
                continue;
            }
            table.entry(key).or_default().push(i);
        }
        let mut out = Vec::new();
        for lrow in lrows {
            self.tick()?;
            self.add_work(weights::HASH_PROBE);
            let key: Vec<Value> = equi
                .iter()
                .map(|(le, _)| lctx.eval(le, lrow))
                .collect::<Result<_>>()?;
            let null_key = key.iter().any(Value::is_null);
            let hits = if null_key { None } else { table.get(&key) };
            let mut matched = false;
            if let Some(idxs) = hits {
                for &i in idxs {
                    self.tick()?;
                    let rrow = &rrows[i];
                    if !residual.is_empty() {
                        self.add_work(residual.len() as f64 * weights::PRED);
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
                        let rejects = null_aware && {
                            let n = if null_key {
                                rrows.len()
                            } else {
                                null_rows.len()
                            };
                            let pick = |k: usize| &rrows[if null_key { k } else { null_rows[k] }];
                            self.null_aware_rejects(cctx, lrow, n, pick, residual)?
                        };
                        if !rejects {
                            out.push(lrow.clone());
                        }
                    }
                    _ => {}
                }
            }
        }
        self.add_work(out.len() as f64 * weights::ROW);
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn merge_join(
        &self,
        lrows: &[Row],
        rrows: &[Row],
        equi: &[(QExpr, QExpr)],
        residual: &[QExpr],
        lctx: &EvalCtx<'_>,
        rctx: &EvalCtx<'_>,
        cctx: &EvalCtx<'_>,
    ) -> Result<Vec<Row>> {
        let ln = lrows.len().max(2) as f64;
        let rn = rrows.len().max(2) as f64;
        self.add_work(weights::SORT * (ln * ln.log2() + rn * rn.log2()));
        let mut lk: Vec<(Vec<Value>, usize)> = lrows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let k: Vec<Value> = equi
                    .iter()
                    .map(|(le, _)| lctx.eval(le, r))
                    .collect::<Result<_>>()?;
                Ok((k, i))
            })
            .collect::<Result<_>>()?;
        let mut rk: Vec<(Vec<Value>, usize)> = rrows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let k: Vec<Value> = equi
                    .iter()
                    .map(|(_, re)| rctx.eval(re, r))
                    .collect::<Result<_>>()?;
                Ok((k, i))
            })
            .collect::<Result<_>>()?;
        lk.sort_by(|a, b| a.0.cmp(&b.0));
        rk.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lk.len() && j < rk.len() {
            self.tick()?;
            self.add_work(weights::ROW);
            // NULL keys never join
            if lk[i].0.iter().any(Value::is_null) {
                i += 1;
                continue;
            }
            if rk[j].0.iter().any(Value::is_null) {
                j += 1;
                continue;
            }
            match lk[i].0.cmp(&rk[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // cross-combine the two equal-key groups
                    let key = lk[i].0.clone();
                    let li0 = i;
                    while i < lk.len() && lk[i].0 == key {
                        i += 1;
                    }
                    let rj0 = j;
                    while j < rk.len() && rk[j].0 == key {
                        j += 1;
                    }
                    for li in li0..i {
                        for rj in rj0..j {
                            self.tick()?;
                            let lrow = &lrows[lk[li].1];
                            let rrow = &rrows[rk[rj].1];
                            if !residual.is_empty() {
                                self.add_work(residual.len() as f64 * weights::PRED);
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
                            out.push(concat(lrow, rrow));
                        }
                    }
                }
            }
        }
        self.add_work(out.len() as f64 * weights::ROW);
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn nl_join(
        &self,
        lrows: &[Row],
        rrows: &[Row],
        kind: PlanJoinKind,
        equi: &[(QExpr, QExpr)],
        residual: &[QExpr],
        lctx: &EvalCtx<'_>,
        rctx: &EvalCtx<'_>,
        cctx: &EvalCtx<'_>,
        rwidth: usize,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        // semijoin/antijoin caching on the left key values (§2.1.1)
        let cacheable = matches!(kind, PlanJoinKind::Semi | PlanJoinKind::Anti { .. })
            && !equi.is_empty()
            && residual.is_empty();
        let mut match_cache: HashMap<Vec<Value>, bool> = HashMap::default();
        // NOT IN: the right rows whose key is NULL, found at the first
        // unmatched left row
        let mut null_rows: Option<Vec<usize>> = None;
        for lrow in lrows {
            let lkey: Option<Vec<Value>> = if cacheable {
                Some(
                    equi.iter()
                        .map(|(le, _)| lctx.eval(le, lrow))
                        .collect::<Result<_>>()?,
                )
            } else {
                None
            };
            let cached = lkey.as_ref().and_then(|k| match_cache.get(k)).copied();
            let matched = match cached {
                Some(m) => {
                    self.add_work(weights::HASH_PROBE);
                    m
                }
                None => {
                    let mut m = false;
                    for rrow in rrows {
                        self.tick()?;
                        self.add_work((equi.len() + residual.len()).max(1) as f64 * weights::PRED);
                        if self.pair_matches(lctx, rctx, cctx, lrow, rrow, equi, residual)? {
                            m = true;
                            match kind {
                                PlanJoinKind::Inner | PlanJoinKind::LeftOuter => {
                                    out.push(concat(lrow, rrow));
                                }
                                _ => break,
                            }
                        }
                    }
                    if let Some(k) = lkey {
                        match_cache.insert(k, m);
                    }
                    m
                }
            };
            match kind {
                PlanJoinKind::Semi if matched => out.push(lrow.clone()),
                PlanJoinKind::Anti { null_aware } if !matched => {
                    let rejects = null_aware && {
                        if null_rows.is_none() {
                            let mut found = Vec::new();
                            for (i, r) in rrows.iter().enumerate() {
                                for (_, re) in equi {
                                    if rctx.eval(re, r)?.is_null() {
                                        found.push(i);
                                        break;
                                    }
                                }
                            }
                            null_rows = Some(found);
                        }
                        let mut left_null = false;
                        for (le, _) in equi {
                            left_null |= lctx.eval(le, lrow)?.is_null();
                        }
                        let null_rows = null_rows.as_deref().unwrap_or_default();
                        let n = if left_null {
                            rrows.len()
                        } else {
                            null_rows.len()
                        };
                        let pick = |k: usize| &rrows[if left_null { k } else { null_rows[k] }];
                        self.null_aware_rejects(cctx, lrow, n, pick, residual)?
                    };
                    if !rejects {
                        out.push(lrow.clone());
                    }
                }
                PlanJoinKind::LeftOuter if !matched => out.push(null_pad(lrow, rwidth)),
                _ => {}
            }
        }
        self.add_work(out.len() as f64 * weights::ROW);
        Ok(out)
    }
}

/// Resolves an outer column reference through the binding frames
/// (innermost first).
fn resolve_outer(binds: &Bindings<'_>, refid: RefId, col: usize) -> Result<Value> {
    for f in binds.frames.iter().rev() {
        if let Some((off, w)) = f.layout.offset_of(refid) {
            if col < w {
                return Ok(f.value(off + col).into_owned());
            }
            return Err(Error::execution(format!(
                "outer column {col} out of range for r{}",
                refid.0
            )));
        }
    }
    Err(Error::execution(format!(
        "unbound outer reference r{}",
        refid.0
    )))
}

fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

pub(crate) fn concat(l: &[Value], r: &[Value]) -> Row {
    let mut row = Vec::with_capacity(l.len() + r.len());
    row.extend_from_slice(l);
    row.extend_from_slice(r);
    row
}

pub(crate) fn null_pad(l: &[Value], rwidth: usize) -> Row {
    let mut row = Vec::with_capacity(l.len() + rwidth);
    row.extend_from_slice(l);
    row.extend(std::iter::repeat_n(Value::Null, rwidth));
    row
}

pub(crate) fn combined_layout(l: &Layout, r: &Layout) -> Layout {
    let mut slots = l.slots.clone();
    for (rr, off, w) in &r.slots {
        slots.push((*rr, off + l.width, *w));
    }
    Layout {
        slots,
        width: l.width + r.width,
    }
}

/// Comparison for ORDER BY with configurable direction and null placement.
pub fn order_cmp(a: &Value, b: &Value, desc: bool, nulls_first: bool) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => {
            if nulls_first {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (false, true) => {
            if nulls_first {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (false, false) => {
            let ord = a.total_cmp(b);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        }
    }
}
