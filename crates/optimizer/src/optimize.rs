//! Per-block plan generation: access paths, join enumeration (one
//! memoized subset search over bushy trees, run in windows past
//! `bushy_max_items`, pricing through one kernel,
//! `JoinEnumerator::price`, and building a plan tree only for the join
//! order it picks), post-join costing, and the optimizer-level caches
//! from §3.4.

use crate::est::{Estimator, RelStats, DEFAULT_NDV_FRAC, DEFAULT_ROWS};
use crate::plan::{weights, *};
use cbqt_catalog::{Catalog, TableId};
use cbqt_common::failpoint;
use cbqt_common::hash::{HashMap, HashSet};
use cbqt_common::{cost_lt, Error, Governor, Result, TraceEvent, Tracer, Value};
use cbqt_qgm::{
    fingerprint, BlockId, JoinInfo, QExpr, QTableSource, QueryBlock, QueryTree, RefId, SelectBlock,
    SetOp,
};
use std::cell::{Cell, OnceCell, RefCell};
use std::hash::Hash;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Tuning knobs of the physical optimizer.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Blocks of up to this many FROM items are planned exactly; wider
    /// blocks and exhausted searches run windows of at most this many
    /// items (iterative DP). At 0 or 1 every window is a pair.
    pub bushy_max_items: usize,
    pub enable_index_nl: bool,
    pub enable_hash_join: bool,
    pub enable_merge_join: bool,
    /// Enable §3.4.2 cost-annotation reuse.
    pub reuse_annotations: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            bushy_max_items: 10,
            enable_index_nl: true,
            enable_hash_join: true,
            enable_merge_join: true,
            reuse_annotations: true,
        }
    }
}

/// Counters reported by the optimizer (Table 1 reproduces these).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerStats {
    /// Query blocks actually optimized (annotation misses).
    pub blocks_costed: u64,
    /// Query blocks whose plan was reused from a cost annotation.
    pub annotation_hits: u64,
    /// A join search's per-block state allowance narrowed one of its
    /// windows. Sticky for the optimizer's lifetime; the optimizer also
    /// marks its governor.
    pub enum_degraded: bool,
}

/// Cost-annotation store (§3.4.2): structural block key
/// ([`fingerprint::block_keys`]) → plan. Shared across all transformation
/// states of one optimization session; interior mutability lets every
/// optimizer of the session hold a plain `&CostAnnotations`. Plans are
/// held by `Arc`, so a hit costs a reference count, not a copy.
#[derive(Debug, Default)]
pub struct CostAnnotations {
    plans: RefCell<HashMap<u64, Arc<BlockPlan>>>,
}

impl CostAnnotations {
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the annotated plan for a block key.
    pub fn get(&self, key: u64) -> Option<Arc<BlockPlan>> {
        self.plans.borrow().get(&key).cloned()
    }

    /// Records the annotated plan for a block key.
    pub fn insert(&self, key: u64, plan: Arc<BlockPlan>) {
        self.plans.borrow_mut().insert(key, plan);
    }

    pub fn len(&self) -> usize {
        self.plans.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Dynamic sampling (§3.4.4): asks the storage layer for an estimate of
/// `(rows, selectivity)` of single-table conjuncts on a table without
/// statistics. Results are cached in a [`SamplingCache`].
pub trait DynamicSampler {
    fn sample(&self, table: TableId, conjuncts_key: &str) -> Option<(f64, f64)>;
}

/// Cache for dynamic-sampling results, shared across optimizer calls.
pub type SamplingCache = Mutex<HashMap<(TableId, String), (f64, f64)>>;

thread_local! {
    /// Trees handed to an optimizer on this thread while
    /// [`record_optimized_trees`] runs; `None` (always, outside tests)
    /// records nothing.
    static OPTIMIZED_TREES: RefCell<Option<Vec<QueryTree>>> = const { RefCell::new(None) };
}

/// Test hook: runs `body` and returns, beside its result, every tree an
/// [`Optimizer`] on the calling thread was asked to plan meanwhile — each
/// state a transformation search costs, and the final tree. The trees
/// are copy-on-write clones.
#[doc(hidden)]
pub fn record_optimized_trees<R>(body: impl FnOnce() -> R) -> (R, Vec<QueryTree>) {
    OPTIMIZED_TREES.with(|t| *t.borrow_mut() = Some(Vec::new()));
    let result = body();
    let trees = OPTIMIZED_TREES.with(|t| t.borrow_mut().take());
    (result, trees.unwrap_or_default())
}

/// `(cost, rows)` of a join tree, as bits.
#[cfg(test)]
type CostBits = (u64, u64);

#[cfg(test)]
thread_local! {
    /// `(priced, built)` bits of every join tree [`JoinEnumerator::plan`]
    /// built on this thread.
    static PRICED_BUILT: RefCell<Vec<(CostBits, CostBits)>> = const { RefCell::new(Vec::new()) };
}

/// Sentinel message used by the cost cut-off mechanism (§3.4.1).
pub const COST_CUTOFF: &str = "COST_CUTOFF";

/// Returns true if an error is the cost-cut-off sentinel.
pub fn is_cutoff(e: &Error) -> bool {
    matches!(e, Error::Plan(m) if m == COST_CUTOFF)
}

/// The physical optimizer.
pub struct Optimizer<'a> {
    pub catalog: &'a Catalog,
    pub config: OptimizerConfig,
    pub annotations: &'a CostAnnotations,
    pub sampler: Option<&'a dyn DynamicSampler>,
    pub sampling_cache: &'a SamplingCache,
    /// Observed-cardinality source (the feedback loop's estimate side):
    /// when set, eligible base-table scans prefer a previously observed
    /// actual over the NDV/histogram estimate. `None` (the default)
    /// estimates statically.
    pub feedback: Option<&'a dyn crate::est::CardFeedback>,
    pub stats: OptimizerStats,
    /// Optimizer trace sink (disabled by default; see `cbqt_common::trace`).
    pub tracer: Tracer<'a>,
    /// Statement-level resource governor. Deadline/cancellation are
    /// observed inside join enumeration; once the search is exhausted
    /// every block plans in windows of two, and each join search spends
    /// a per-block allowance of the optimizer-state budget
    /// (`JoinEnumerator::search`).
    pub governor: Governor,
}

impl<'a> Optimizer<'a> {
    pub fn new(
        catalog: &'a Catalog,
        annotations: &'a CostAnnotations,
        sampling_cache: &'a SamplingCache,
    ) -> Self {
        Optimizer {
            catalog,
            config: OptimizerConfig::default(),
            annotations,
            sampler: None,
            sampling_cache,
            feedback: None,
            stats: OptimizerStats::default(),
            tracer: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Optimizes the whole tree bottom-up and returns the root plan.
    /// With `budget` set, aborts with the [`COST_CUTOFF`] error as soon
    /// as the root cost provably exceeds it.
    pub fn optimize(&mut self, tree: &QueryTree, budget: Option<f64>) -> Result<BlockPlan> {
        // the annotation store keeps the root's plan too, so this is a
        // copy of the root block (its children stay shared)
        self.optimize_shared(tree, budget).map(Arc::unwrap_or_clone)
    }

    /// [`Optimizer::optimize`] for a caller that only reads the plan —
    /// costing a transformation state needs `cost` alone.
    pub fn optimize_shared(
        &mut self,
        tree: &QueryTree,
        budget: Option<f64>,
    ) -> Result<Arc<BlockPlan>> {
        OPTIMIZED_TREES.with(|t| {
            if let Some(trees) = t.borrow_mut().as_mut() {
                trees.push(tree.clone());
            }
        });
        // one pass keys every block and finds what it reads from outside
        // its subtree; without reuse the keys go unused
        let mut plans: HashMap<BlockId, Arc<BlockPlan>> = HashMap::default();
        for (id, key, free) in fingerprint::block_keys(tree) {
            let key = self.config.reuse_annotations.then_some(key);
            let plan = self.plan_block(tree, id, key, free, &plans, budget)?;
            if let Some(b) = budget {
                // the root cost is at least the cost of any block that the
                // root (transitively) executes at least once
                if id == tree.root && plan.cost > b {
                    return Err(Error::plan(COST_CUTOFF));
                }
            }
            plans.insert(id, plan);
        }
        plans
            .remove(&tree.root)
            .ok_or_else(|| Error::plan("root block was not planned"))
    }

    fn plan_block(
        &mut self,
        tree: &QueryTree,
        id: BlockId,
        key: Option<u64>,
        free: fingerprint::FreeCols,
        plans: &HashMap<BlockId, Arc<BlockPlan>>,
        budget: Option<f64>,
    ) -> Result<Arc<BlockPlan>> {
        cbqt_common::failpoint!(failpoint::OPTIMIZER_PLAN);
        self.governor.check_interrupt()?;
        if let Some(p) = key.and_then(|k| self.annotations.get(k)) {
            self.stats.annotation_hits += 1;
            self.tracer.emit(|| TraceEvent::AnnotationHit {
                block: id.to_string(),
            });
            // Every copy-on-write copy of a tree keeps its block ids, so
            // across states the plan is shared as it is. A twin under
            // another id (an OR-expansion branch, a repeated subquery)
            // gets the stored plan relabelled at the root; plan elements
            // are positions, so the two share every child; the key holds
            // the free list, so the two read the same outer columns.
            return Ok(if p.block == id {
                p
            } else {
                Arc::new(BlockPlan {
                    block: id,
                    ..(*p).clone()
                })
            });
        }
        self.stats.blocks_costed += 1;
        self.tracer.emit(|| TraceEvent::BlockCosted {
            block: id.to_string(),
        });
        let plan = match tree.block(id)? {
            QueryBlock::Select(s) => self.plan_select(tree, id, s, free, plans, budget)?,
            QueryBlock::SetOp(s) => {
                let inputs: Vec<Arc<BlockPlan>> = s
                    .inputs
                    .iter()
                    .map(|i| {
                        plans
                            .get(i)
                            .map(Arc::clone)
                            .ok_or_else(|| Error::plan(format!("missing child plan {i}")))
                    })
                    .collect::<Result<_>>()?;
                let mut cost: f64 = inputs.iter().map(|p| p.cost).sum();
                let total: f64 = inputs.iter().map(|p| p.rows).sum();
                let (rows, extra) = match s.op {
                    SetOp::UnionAll => (total, total * weights::ROW),
                    SetOp::Union => ((total * 0.7).max(1.0), total * weights::DEDUP),
                    SetOp::Intersect => {
                        let m = inputs.iter().map(|p| p.rows).fold(f64::INFINITY, f64::min);
                        ((m * 0.5).max(1.0), total * weights::DEDUP)
                    }
                    SetOp::Minus => ((inputs[0].rows * 0.5).max(1.0), total * weights::DEDUP),
                };
                cost += extra;
                let out_ndv = setop_ndv(s.op, &inputs, rows);
                BlockPlan {
                    block: id,
                    root: PlanRoot::SetOp(SetOpPlan { op: s.op, inputs }),
                    cost,
                    rows,
                    out_ndv,
                    free,
                }
            }
        };
        if let (Some(b), true) = (budget, plan.cost.is_finite()) {
            // any single block costing more than the budget dooms the state
            if plan.cost > b {
                return Err(Error::plan(COST_CUTOFF));
            }
        }
        let plan = Arc::new(plan);
        if let Some(k) = key {
            self.annotations.insert(k, Arc::clone(&plan));
        }
        Ok(plan)
    }

    /// Plans one block's join over `M`-wide item masks: the search runs,
    /// then the winner's tree is built. Returns the tree, its cost and
    /// rows, and whether the state allowance narrowed a window.
    fn enumerate<M: Mask>(
        &self,
        est: &Estimator<'_>,
        items: &[Item],
        table_preds: &HashMap<RefId, Vec<QExpr>>,
        join_preds: &[QExpr],
        budget: Option<f64>,
        id: BlockId,
    ) -> Result<(PlanNode, f64, f64, bool)> {
        let e = JoinEnumerator::<M>::new(self, est, items, table_preds, join_preds, budget, id);
        let (node, cost, rows) = e.plan()?;
        Ok((node, cost, rows, e.enum_degraded.get()))
    }

    fn plan_select(
        &mut self,
        tree: &QueryTree,
        id: BlockId,
        s: &SelectBlock,
        free: fingerprint::FreeCols,
        plans: &HashMap<BlockId, Arc<BlockPlan>>,
        budget: Option<f64>,
    ) -> Result<BlockPlan> {
        let declared = s.declared_refs();

        // --- relation statistics per item --------------------------------
        let mut rels: HashMap<RefId, RelStats> = HashMap::default();
        let mut base: HashMap<RefId, TableId> = HashMap::default();
        for t in &s.tables {
            match &t.source {
                QTableSource::Base(tid) => {
                    let tbl = self.catalog.table(*tid)?;
                    let rows = if tbl.stats.analyzed {
                        tbl.stats.rows as f64
                    } else {
                        DEFAULT_ROWS
                    };
                    let mut ndv: Vec<f64> = (0..tbl.columns.len())
                        .map(|c| {
                            if tbl.stats.analyzed {
                                tbl.stats
                                    .column(c)
                                    .map(|cs| cs.ndv as f64)
                                    .unwrap_or(1.0)
                                    .max(1.0)
                            } else {
                                (rows * DEFAULT_NDV_FRAC).max(1.0)
                            }
                        })
                        .collect();
                    ndv.push(rows.max(1.0)); // virtual ROWID
                    rels.insert(t.refid, RelStats { rows, ndv });
                    base.insert(t.refid, *tid);
                }
                QTableSource::View(b) => {
                    let p = plans
                        .get(b)
                        .ok_or_else(|| Error::plan(format!("missing view plan {b}")))?;
                    rels.insert(
                        t.refid,
                        RelStats {
                            rows: p.rows,
                            ndv: p.out_ndv.clone(),
                        },
                    );
                }
            }
        }

        // --- partition WHERE conjuncts ------------------------------------
        let mut table_preds: HashMap<RefId, Vec<QExpr>> = HashMap::default();
        let mut join_preds: Vec<QExpr> = Vec::new();
        let mut post_filter: Vec<QExpr> = Vec::new();
        let outer_annotated: HashSet<RefId> = s
            .tables
            .iter()
            .filter(|t| matches!(t.join, JoinInfo::LeftOuter { .. }))
            .map(|t| t.refid)
            .collect();
        let has_limit = s.rownum_limit.is_some();
        for c in &s.where_conjuncts {
            let locals: Vec<RefId> = c
                .referenced_tables()
                .into_iter()
                .filter(|r| declared.contains(r))
                .collect();
            // expensive predicates under a ROWNUM limit stay above the
            // join so the early exit bounds their evaluations (§2.2.6)
            if c.contains_subquery()
                || locals.iter().any(|r| outer_annotated.contains(r))
                || (has_limit && expensive_cost(c) > 0.0)
            {
                post_filter.push(c.clone());
            } else {
                match locals.len() {
                    0 => post_filter.push(c.clone()),
                    1 => table_preds.entry(locals[0]).or_default().push(c.clone()),
                    _ => join_preds.push(c.clone()),
                }
            }
        }

        // --- dynamic sampling for unanalyzed base tables -------------------
        for t in &s.tables {
            if let QTableSource::Base(tid) = &t.source {
                let tbl = self.catalog.table(*tid)?;
                if !tbl.stats.analyzed {
                    if let Some(sampler) = self.sampler {
                        let preds = table_preds.get(&t.refid).cloned().unwrap_or_default();
                        let key_str = format!("{}|{}", tbl.name, preds.len());
                        let cached = {
                            // a poisoned cache only means another optimizer
                            // thread panicked mid-insert; the map itself is
                            // still a valid cache, so keep using it
                            self.sampling_cache
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .get(&(*tid, key_str.clone()))
                                .copied()
                        };
                        let sampled = match cached {
                            Some(v) => Some(v),
                            None => {
                                let v = sampler.sample(*tid, &key_str);
                                if let Some(v) = v {
                                    self.sampling_cache
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .insert((*tid, key_str), v);
                                }
                                v
                            }
                        };
                        if let Some((rows, _sel)) = sampled {
                            if let Some(rs) = rels.get_mut(&t.refid) {
                                rs.rows = rows.max(1.0);
                                let n = rs.ndv.len();
                                rs.ndv =
                                    vec![(rows * DEFAULT_NDV_FRAC).max(1.0); n.saturating_sub(1)];
                                rs.ndv.push(rows.max(1.0));
                            }
                        }
                    }
                }
            }
        }

        // --- join enumeration ---------------------------------------------
        let items: Vec<Item> = s
            .tables
            .iter()
            .map(|t| self.make_item(tree, t, &declared, &rels, plans))
            .collect::<Result<_>>()?;

        let est = Estimator {
            catalog: self.catalog,
            rels: &rels,
            base: &base,
        };
        // One search at any width: item sets are `u64` masks up to 64
        // items and word slices past that.
        let (join_node, mut cost, mut rows, enum_degraded) = match items.len() {
            // FROM-less SELECT: one constant row
            0 => (PlanNode::OneRow, weights::ROW, 1.0, false),
            1..=64 => self.enumerate::<u64>(&est, &items, &table_preds, &join_preds, budget, id)?,
            _ => self.enumerate::<WideMask>(&est, &items, &table_preds, &join_preds, budget, id)?,
        };
        if enum_degraded {
            self.stats.enum_degraded = true;
            // the payload is the per-block allowance that narrowed the
            // window (the configured budget), not the statement's
            // states_used counter
            self.tracer.emit(|| TraceEvent::SearchDegraded {
                transform: "join enumeration".to_string(),
                states_used: self.governor.state_budget().unwrap_or(0),
            });
            self.governor.mark_enum_degraded();
        }

        // --- post-join pipeline --------------------------------------------
        let layout = Layout::from_node(&join_node);

        // subquery (TIS) filters
        let mut subplans: Vec<(BlockId, Arc<BlockPlan>)> = Vec::new();
        let collect_subplans = |e: &QExpr, subplans: &mut Vec<(BlockId, Arc<BlockPlan>)>| {
            for b in e.subquery_blocks() {
                if !subplans.iter().any(|(x, _)| *x == b) {
                    if let Some(p) = plans.get(&b) {
                        subplans.push((b, Arc::clone(p)));
                    }
                }
            }
        };
        for c in &post_filter {
            collect_subplans(c, &mut subplans);
        }
        for i in &s.select {
            collect_subplans(&i.expr, &mut subplans);
        }
        for h in &s.having {
            collect_subplans(h, &mut subplans);
        }

        // TIS cost: each referenced subquery runs once per distinct binding
        // (the execution engine caches results on the correlation values —
        // §2.1.1's caching), plus a cache probe per input row.
        let mut post_sel = 1.0;
        for c in &post_filter {
            post_sel *= est.selectivity(c);
        }
        // with a ROWNUM limit the executor stops filtering once the limit
        // fills, so only ~limit/selectivity input rows ever pay for the
        // post-filter — the economics behind predicate pullup (§2.2.6)
        let expected_filtered = match s.rownum_limit {
            Some(lim) => (lim as f64 / post_sel.max(1e-9)).min(rows),
            None => rows,
        };
        for (_, p) in &subplans {
            let corr = &p.free;
            let eff = if corr.is_empty() {
                1.0
            } else {
                let mut prod = 1.0_f64;
                for (r, cidx) in corr {
                    let ndv = rels
                        .get(r)
                        .map(|rs| rs.ndv_of(*cidx))
                        .unwrap_or(DEFAULT_ROWS);
                    prod = (prod * ndv).min(1e15);
                }
                prod.min(expected_filtered)
            };
            cost += eff * p.cost + expected_filtered * weights::HASH_PROBE;
        }
        cost += expected_filtered * post_filter.len() as f64 * weights::PRED;
        let expensive_units: f64 = post_filter.iter().map(expensive_cost).sum();
        cost += expected_filtered * expensive_units;
        rows = (rows * post_sel).max(0.0);

        // aggregation
        let mut aggs: Vec<QExpr> = Vec::new();
        let mut windows: Vec<QExpr> = Vec::new();
        let scan_for_special = |e: &QExpr, aggs: &mut Vec<QExpr>, wins: &mut Vec<QExpr>| {
            e.walk(&mut |n| match n {
                QExpr::Agg { .. } if !aggs.contains(n) => {
                    aggs.push(n.clone());
                }
                QExpr::Win { .. } if !wins.contains(n) => {
                    wins.push(n.clone());
                }
                _ => {}
            });
        };
        for i in &s.select {
            scan_for_special(&i.expr, &mut aggs, &mut windows);
        }
        for h in &s.having {
            scan_for_special(h, &mut aggs, &mut windows);
        }
        for o in &s.order_by {
            scan_for_special(&o.expr, &mut aggs, &mut windows);
        }

        let aggregated = !s.group_by.is_empty() || !s.having.is_empty() || !aggs.is_empty();
        if aggregated {
            let nsets = s.grouping_sets.as_ref().map(|g| g.len()).unwrap_or(1) as f64;
            cost += rows * weights::AGG * nsets;
            let groups = if let Some(sets) = &s.grouping_sets {
                let mut total = 0.0;
                for set in sets {
                    let keys: Vec<QExpr> = set.iter().map(|&i| s.group_by[i].clone()).collect();
                    total += est.group_count(&keys, rows);
                }
                total
            } else {
                est.group_count(&s.group_by, rows)
            };
            rows = groups;
            // HAVING
            let mut hsel = 1.0;
            for h in &s.having {
                hsel *= est.selectivity(h);
                cost += rows * weights::PRED;
            }
            rows = (rows * hsel).max(0.0);
        }

        // windows: sort per distinct (partition, order) spec + one pass
        if !windows.is_empty() {
            let n = rows.max(1.0);
            cost += windows.len() as f64 * (weights::SORT * n * n.log2().max(1.0) + n);
        }

        // distinct
        if s.distinct || s.distinct_keys.is_some() {
            cost += rows * weights::DEDUP;
            let keys: Vec<QExpr> = match &s.distinct_keys {
                Some(k) => k.clone(),
                None => s.select.iter().map(|i| i.expr.clone()).collect(),
            };
            rows = est.group_count(&keys, rows);
        }

        // order by
        if !s.order_by.is_empty() {
            let n = rows.max(2.0);
            cost += weights::SORT * n * n.log2();
        }

        // rownum limit: truncates output; when there is no blocking sort
        // upstream the expensive post-filter work is also bounded
        if let Some(limit) = s.rownum_limit {
            rows = rows.min(limit as f64);
        }

        // projection
        cost += rows * weights::ROW;
        // scalar subqueries in the select list run per output row
        for i in &s.select {
            for b in i.expr.subquery_blocks() {
                if let Some(p) = plans.get(&b) {
                    let corr_execs = if p.free.is_empty() { 1.0 } else { rows };
                    cost += corr_execs.max(1.0) * p.cost;
                }
            }
        }
        let select_expensive: f64 = s.select.iter().map(|i| expensive_cost(&i.expr)).sum();
        cost += rows * select_expensive;

        rows = rows.max(if aggregated && s.group_by.is_empty() {
            1.0
        } else {
            0.0
        });

        // output NDV per select item
        let out_ndv: Vec<f64> = s
            .select
            .iter()
            .map(|i| match &i.expr {
                QExpr::Col { table, column } => rels
                    .get(table)
                    .map(|rs| rs.ndv_of(*column))
                    .unwrap_or(rows)
                    .min(rows.max(1.0)),
                QExpr::Lit(_) | QExpr::Param { .. } => 1.0,
                QExpr::Agg { .. } => rows.max(1.0),
                _ => (rows * 0.5).max(1.0),
            })
            .collect();

        let plan = SelectPlan {
            join: join_node,
            layout,
            post_filter,
            aggs,
            group_by: s.group_by.clone(),
            grouping_sets: s.grouping_sets.clone(),
            having: s.having.clone(),
            windows,
            select: s.select.iter().map(|i| i.expr.clone()).collect(),
            distinct: s.distinct,
            distinct_keys: s.distinct_keys.clone(),
            order_by: s.order_by.clone(),
            rownum_limit: s.rownum_limit,
            subplans,
        };
        Ok(BlockPlan {
            block: id,
            root: PlanRoot::Select(Box::new(plan)),
            cost,
            rows: rows.max(0.0),
            out_ndv,
            free,
        })
    }

    fn make_item(
        &self,
        tree: &QueryTree,
        t: &cbqt_qgm::QTable,
        declared: &HashSet<RefId>,
        rels: &HashMap<RefId, RelStats>,
        plans: &HashMap<BlockId, Arc<BlockPlan>>,
    ) -> Result<Item> {
        let mut deps: Vec<RefId> = Vec::new();
        for c in t.join.on_conjuncts() {
            deps.extend(
                c.referenced_tables()
                    .into_iter()
                    .filter(|r| declared.contains(r) && *r != t.refid),
            );
        }
        let (kind, correlated, plan) = match &t.source {
            QTableSource::Base(tid) => (ItemKind::Base(*tid), false, None),
            QTableSource::View(b) => {
                let view = plans
                    .get(b)
                    .ok_or_else(|| Error::plan(format!("missing view plan {b}")))?;
                let corr = view.free.iter().map(|(r, _)| *r);
                let corr: Vec<RefId> = corr.filter(|r| declared.contains(r)).collect();
                let correlated = !corr.is_empty();
                deps.extend(corr);
                (ItemKind::View(*b), correlated, Some(Arc::clone(view)))
            }
        };
        let rows = rels.get(&t.refid).map(|r| r.rows).unwrap_or(DEFAULT_ROWS);
        Ok(Item {
            refid: t.refid,
            kind,
            join: t.join.clone(),
            deps,
            correlated,
            plan,
            base_rows: rows,
            width: match &t.source {
                QTableSource::Base(tid) => self.catalog.table(*tid)?.columns.len() + 1,
                QTableSource::View(b) => tree.block(*b)?.output_arity(tree),
            },
        })
    }
}

fn expensive_cost(e: &QExpr) -> f64 {
    let mut total = 0.0;
    e.walk(&mut |n| {
        if let QExpr::Func { name, args } = n {
            if name == "EXPENSIVE" {
                total += match args.get(1) {
                    Some(QExpr::Lit(Value::Int(u))) => *u as f64,
                    _ => weights::EXPENSIVE_DEFAULT,
                };
            }
        }
    });
    total
}

#[derive(Debug, Clone)]
enum ItemKind {
    Base(TableId),
    View(BlockId),
}

#[derive(Debug, Clone)]
struct Item {
    refid: RefId,
    kind: ItemKind,
    join: JoinInfo,
    /// Items (by refid) that must precede this one.
    deps: Vec<RefId>,
    /// View correlated to sibling tables (lateral).
    correlated: bool,
    plan: Option<Arc<BlockPlan>>,
    base_rows: f64,
    width: usize,
}

impl Item {
    /// Only a plain inner item with no ordering dependency can start a
    /// join order: annotated items are some join's right side, and a
    /// lateral view needs its bindings in scope.
    fn can_drive(&self) -> bool {
        self.join.is_inner() && self.deps.is_empty()
    }
}

/// A set of a block's items (or of a search round's nodes), by index.
/// The join kernel and the search are written once against this trait:
/// `u64` serves every block of up to 64 items, [`WideMask`] the wider
/// ones. Up to 64 members, both order sets as binary numbers.
trait Mask: Clone + Ord + Hash {
    /// The empty set of a block with `n` items.
    fn empty(n: usize) -> Self;
    fn insert(&mut self, i: usize);
    fn union(&self, other: &Self) -> Self;
    /// `self \ other`.
    fn minus(&self, other: &Self) -> Self;
    /// `self ⊆ a ∪ b`.
    fn within(&self, a: &Self, b: &Self) -> bool;
    fn intersects(&self, other: &Self) -> bool;
    /// Members in ascending item order.
    fn ones(&self) -> impl Iterator<Item = usize> + '_;

    fn subset_of(&self, other: &Self) -> bool {
        self.within(other, other)
    }

    /// Every non-empty proper subset, ascending. The set has fewer than
    /// 64 members.
    fn parts(&self) -> impl Iterator<Item = Self> + '_ {
        let members: Vec<usize> = self.ones().collect();
        let none = self.minus(self); // the empty set, at this width
        (1..(1u64 << members.len()) - 1).map(move |c| {
            let mut part = none.clone();
            bits(c).for_each(|b| part.insert(members[b]));
            part
        })
    }
}

/// Set bits of one word, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

impl Mask for u64 {
    fn empty(n: usize) -> Self {
        debug_assert!(n <= u64::BITS as usize);
        0
    }
    fn insert(&mut self, i: usize) {
        *self |= 1 << i;
    }
    fn union(&self, other: &Self) -> Self {
        self | other
    }
    fn minus(&self, other: &Self) -> Self {
        self & !other
    }
    fn within(&self, a: &Self, b: &Self) -> bool {
        self & !(a | b) == 0
    }
    fn intersects(&self, other: &Self) -> bool {
        self & other != 0
    }
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        bits(*self)
    }
    fn parts(&self) -> impl Iterator<Item = Self> + '_ {
        // the next submask up is `(part - set) & set`
        let (set, mut part) = (*self, 0u64);
        std::iter::from_fn(move || {
            part = part.wrapping_sub(set) & set;
            (part != set).then_some(part)
        })
    }
}

/// An item set of a block wider than 64 items: one bit per item over
/// `⌈n / 64⌉` words, the same length for every set of the block. Sets
/// order word by word from the lowest, so as binary numbers while they
/// fit one word.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct WideMask(Box<[u64]>);

impl Mask for WideMask {
    fn empty(n: usize) -> Self {
        WideMask(vec![0; n.div_ceil(64)].into())
    }
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn union(&self, other: &Self) -> Self {
        WideMask(self.0.iter().zip(&*other.0).map(|(a, b)| a | b).collect())
    }
    fn minus(&self, other: &Self) -> Self {
        WideMask(self.0.iter().zip(&*other.0).map(|(a, b)| a & !b).collect())
    }
    fn within(&self, a: &Self, b: &Self) -> bool {
        let mut words = self.0.iter().zip(&*a.0).zip(&*b.0);
        words.all(|((s, a), b)| s & !(a | b) == 0)
    }
    fn intersects(&self, other: &Self) -> bool {
        self.0.iter().zip(&*other.0).any(|(a, b)| a & b != 0)
    }
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.0.iter().enumerate();
        words.flat_map(|(w, &word)| bits(word).map(move |i| w * 64 + i))
    }
}

/// The join tree a [`Partial`] stands for: which leaves, joined in which
/// order. How each join runs is not kept — building the winner asks
/// [`JoinEnumerator::price`] again.
enum Shape {
    Leaf(usize),
    Join(Rc<Shape>, Rc<Shape>),
}

/// A priced sub-plan: what the searches compare and memoize. Only the
/// winner's plan tree is ever built ([`JoinEnumerator::plan`]).
#[derive(Clone)]
struct Partial<M> {
    cost: f64,
    rows: f64,
    mask: M,
    shape: Rc<Shape>,
}

impl<M: Mask> Partial<M> {
    /// The item a single-leaf sub-plan scans.
    fn leaf(&self) -> Option<usize> {
        match *self.shape {
            Shape::Leaf(i) => Some(i),
            Shape::Join(..) => None,
        }
    }

    /// `l` joined to `r` as `priced` says.
    fn join(l: &Self, r: &Self, priced: &Priced) -> Self {
        Partial {
            cost: priced.cost,
            rows: priced.rows,
            mask: l.mask.union(&r.mask),
            shape: Rc::new(Shape::Join(Rc::clone(&l.shape), Rc::clone(&r.shape))),
        }
    }
}

/// What [`JoinEnumerator::price`] decided for one join.
struct Priced {
    cost: f64,
    rows: f64,
    kind: PlanJoinKind,
    method: JoinMethod,
    /// Slot of the index-NL probe replacing the right side's own plan,
    /// in the right item's probe cache.
    probe: Option<usize>,
    /// The right side runs per left row (an index probe or a lateral view).
    lateral: bool,
}

/// One side of an equality conjunct, as pricing reads it.
struct EqSide<M> {
    /// Items it references.
    mask: M,
    /// It references some column at all, local or outer.
    any_ref: bool,
    ndv: Option<f64>,
}

impl<M: Mask> EqSide<M> {
    /// Evaluable over `side` alone: it touches its input, and outer
    /// references are constants here.
    fn on(&self, side: &M) -> bool {
        self.any_ref && self.mask.subset_of(side)
    }
}

/// A join conjunct — a WHERE conjunct over several items, or an item's
/// ON conjunct — reduced to what pricing reads.
struct Conj<'b, M> {
    expr: &'b QExpr,
    /// Items it references.
    mask: M,
    sel: f64,
    /// Both sides, when it is an equality.
    eq: Option<(EqSide<M>, EqSide<M>)>,
}

impl<M: Mask> Conj<'_, M> {
    /// Orients an equality as a join key between `l` and `r`: `false`
    /// when its left expression reads `l` only and its right one `r`
    /// only, `true` the other way round, `None` for a residual.
    fn orient(&self, l: &M, r: &M) -> Option<bool> {
        let (a, b) = self.eq.as_ref()?;
        if a.on(l) && b.on(r) {
            Some(false)
        } else if a.on(r) && b.on(l) {
            Some(true)
        } else {
            None
        }
    }

    /// `(left, right)` NDVs of the join key an oriented equality makes.
    fn key_ndv(&self, flip: bool) -> (Option<f64>, Option<f64>) {
        let (a, b) = self.eq.as_ref().expect("only equalities orient");
        if flip {
            (b.ndv, a.ndv)
        } else {
            (a.ndv, b.ndv)
        }
    }

    /// The `(left_expr, right_expr)` pair of an oriented equality.
    fn equi(&self, flip: bool) -> (QExpr, QExpr) {
        let (a, b) = self.expr.as_equality().expect("only equalities orient");
        if flip {
            (b.clone(), a.clone())
        } else {
            (a.clone(), b.clone())
        }
    }
}

/// What the join kernel knows about a block before it prices any pair.
struct Facts<'b, M> {
    /// `join_preds`, in order.
    preds: Vec<Conj<'b, M>>,
    /// Each item's ON conjuncts.
    on: Vec<Vec<Conj<'b, M>>>,
    /// Each item's ordering dependencies.
    deps: Vec<M>,
}

/// Every item planned on its own: the base case of both searches.
struct Leaves<M> {
    nodes: Vec<PlanNode>,
    parts: Vec<Partial<M>>,
}

/// An index-NL probe of one base item, planned once per block and
/// oriented equi set.
struct Probe {
    /// The equi set: `2 * conjunct id + flipped` per pair, in order
    /// (ids as [`JoinEnumerator::for_each_conj`] numbers them).
    key: Box<[u32]>,
    node: PlanNode,
    cost: f64,
    /// The scan is an index path; otherwise probing is no candidate.
    indexed: bool,
}

/// What a join search did, for its `JOIN ENUM END` event.
#[derive(Default)]
struct Tally {
    /// Memo entries made, one-node entries included.
    entries: usize,
    /// Memo lookups served while pairing.
    hits: usize,
    /// Joins priced.
    pairs: usize,
    rounds: usize,
}

struct JoinEnumerator<'b, 'a, M> {
    opt: &'b Optimizer<'a>,
    est: &'b Estimator<'a>,
    items: &'b [Item],
    table_preds: &'b HashMap<RefId, Vec<QExpr>>,
    join_preds: &'b [QExpr],
    budget: Option<f64>,
    /// Block being enumerated (JOIN ENUM trace events).
    block: BlockId,
    /// Set when the state allowance narrowed a window of the search.
    /// Read by `plan_select` after enumeration.
    enum_degraded: Cell<bool>,
    /// Planned once and then shared, so a block costs (and traces) each
    /// base scan once however many join orders look at it. Filled on
    /// first use so `JOIN ENUM BEGIN` still precedes the scans' own
    /// trace events.
    leaves: OnceCell<Leaves<M>>,
    facts: OnceCell<Facts<'b, M>>,
    /// Per item, the index-NL probes planned so far.
    probes: RefCell<Vec<Vec<Probe>>>,
}

impl<'b, 'a, M: Mask> JoinEnumerator<'b, 'a, M> {
    fn new(
        opt: &'b Optimizer<'a>,
        est: &'b Estimator<'a>,
        items: &'b [Item],
        table_preds: &'b HashMap<RefId, Vec<QExpr>>,
        join_preds: &'b [QExpr],
        budget: Option<f64>,
        block: BlockId,
    ) -> Self {
        JoinEnumerator {
            opt,
            est,
            items,
            table_preds,
            join_preds,
            budget,
            block,
            enum_degraded: Cell::new(false),
            leaves: OnceCell::new(),
            facts: OnceCell::new(),
            probes: RefCell::new(items.iter().map(|_| Vec::new()).collect()),
        }
    }

    /// The join search: a memo over connected node subsets, run in
    /// rounds (Kossmann & Stocker's iterative DP, IDP-1). Round one's
    /// nodes are the items; a later round's nodes also include the
    /// sub-plans earlier rounds committed.
    ///
    /// A round builds the connected node subsets level by level (level
    /// s + 1 is every level-s set grown by one join-graph neighbour) and
    /// prices each over every partition into two memo entries with a join
    /// edge between them, both orientations, so bushy trees fall out
    /// naturally. The join graph has a hyperedge per join predicate and
    /// per item with its prerequisites ([`Facts::deps`]); cross products
    /// appear only when the components fold at the end.
    ///
    /// The window is the largest level such that the entries of two or
    /// more nodes number at most `2^b − b − 1` for `b` =
    /// `bushy_max_items` (those of a `b`-node clique) and at most the
    /// state allowance left; it never drops below 2. A component planned
    /// whole becomes one node; otherwise the cheapest entry of its
    /// largest planned level does (the lowest set on ties), and the next
    /// round runs on the contracted graph. So a block of at most `b`
    /// items is planned exactly in one round, and a window of 2 — what
    /// an exhausted search runs — is pairwise greedy over the same memo.
    ///
    /// Semi / anti / outer / lateral items keep their partial order
    /// through [`Self::legal`]: one joins only as a single right side
    /// with its prerequisites on the left, and never starts a join
    /// order. So an entry of two or more items holds every prerequisite
    /// of its items and joins as a plain inner join on either side —
    /// which is why a committed sub-plan can stand in for its items.
    ///
    /// The state allowance is a snapshot of the governor's configured
    /// optimizer-state budget, not the shared remaining counter, so the
    /// plan is a function of the block alone, whether planned afresh or
    /// served from the annotation cache; each entry of two or more nodes
    /// spends one unit.
    ///
    /// Determinism: levels and partitions are visited in a fixed set
    /// order (ascending, up to 64 items) and cost ties keep the first
    /// minimum (`total_cmp`), so EXPLAIN output and trace streams are
    /// byte-identical run to run.
    fn search(&self) -> Result<Partial<M>> {
        let n = self.items.len();
        if n > 1 {
            self.opt.tracer.emit(|| TraceEvent::JoinEnumBegin {
                block: self.block.to_string(),
                items: n,
            });
        }
        let one = |i: usize| {
            let mut m = M::empty(n);
            m.insert(i);
            m
        };
        // Item adjacency. An item's edge to its prerequisites connects
        // its subsets once they hold them; prerequisites only it relates
        // (a lateral view binding two unjoined items) become adjacent
        // too, so the set holding all of them is connected before the
        // item joins it.
        let facts = self.facts();
        let deps = (0..n).map(|j| facts.deps[j].union(&one(j)));
        let mut adj = vec![M::empty(n); n];
        for edge in facts.preds.iter().map(|c| c.mask.clone()).chain(deps) {
            for i in edge.ones() {
                adj[i] = adj[i].union(&edge);
            }
        }
        let b = self.opt.config.bushy_max_items;
        let clique = u32::try_from(b)
            .ok()
            .and_then(|b| 1u64.checked_shl(b))
            .map_or(u64::MAX, |p| p - b as u64 - 1);
        let exhausted = self.opt.governor.search_exhausted();
        let mut left = self.opt.governor.state_budget();
        let mut tally = Tally::default();
        let mut nodes = self.leaves().parts.clone();
        loop {
            tally.rounds += 1;
            tally.entries += nodes.len();
            // each node's join-graph neighbours, as a node set
            let near: Vec<M> = nodes
                .iter()
                .enumerate()
                .map(|(u, p)| {
                    let reach = p.mask.ones().fold(M::empty(n), |m, i| m.union(&adj[i]));
                    let mut near = M::empty(n);
                    for (v, q) in nodes.iter().enumerate() {
                        if v != u && q.mask.intersects(&reach) {
                            near.insert(v);
                        }
                    }
                    near
                })
                .collect();
            if near.iter().all(|s| s.ones().next().is_none()) {
                break; // no join edge: every component is one node
            }
            let around = |set: &M| set.ones().fold(M::empty(n), |m, u| m.union(&near[u]));

            // --- connected node sets by level, up to the window ---------
            let limit = if exhausted {
                0
            } else {
                left.map_or(clique, |l| l.min(clique))
            };
            let mut levels: Vec<Vec<M>> = vec![(0..nodes.len()).map(one).collect()];
            let mut created = 0;
            // an entry splits into at most 2^63 parts (`Mask::parts`)
            while levels.len() < b.clamp(2, 63) {
                let mut next: Vec<M> = Vec::new();
                for set in &levels[levels.len() - 1] {
                    next.extend(around(set).minus(set).ones().map(|v| {
                        let mut grown = set.clone();
                        grown.insert(v);
                        grown
                    }));
                }
                if next.is_empty() {
                    break;
                }
                next.sort_unstable();
                next.dedup();
                let total = created + next.len() as u64;
                if levels.len() > 1 && total > limit {
                    // the allowance, not the clique count, stops it here
                    if !exhausted && total <= clique {
                        self.enum_degraded.set(true);
                    }
                    break;
                }
                created = total;
                levels.push(next);
            }
            left = left.map(|l| l.saturating_sub(created));

            // --- the memo ----------------------------------------------
            // one entry per node and per connected set at most, so the
            // memo never regrows while it fills
            let sets = levels.iter().map(Vec::len).sum();
            let mut memo: HashMap<M, Partial<M>> =
                HashMap::with_capacity_and_hasher(sets, Default::default());
            memo.extend(nodes.iter().enumerate().map(|(u, p)| (one(u), p.clone())));
            for set in levels[1..].iter().flatten() {
                self.opt.governor.check_interrupt()?;
                tally.entries += 1;
                if let Some(p) = self.best_split(set, &memo, &near, &mut tally) {
                    memo.insert(set.clone(), p);
                }
            }

            // --- commit one node per component -------------------------
            let window = levels.len();
            let mut committed: Vec<M> = Vec::new();
            let mut seen = M::empty(n);
            let mut unfinished = false;
            for u in 0..nodes.len() {
                if seen.intersects(&one(u)) {
                    continue;
                }
                let mut comp = one(u);
                loop {
                    let grown = comp.union(&around(&comp));
                    if grown == comp {
                        break;
                    }
                    comp = grown;
                }
                seen = seen.union(&comp);
                let size = comp.ones().count();
                if size < 2 {
                    continue;
                }
                if !memo.contains_key(&comp) {
                    // a component inside the window has no plan at all
                    if size <= window {
                        return Err(self.no_plan());
                    }
                    unfinished = true;
                    let planned = |level: &Vec<M>| {
                        let sets = level.iter().filter(|s| s.subset_of(&comp));
                        sets.filter_map(|s| memo.get(s).map(|p| (s, p.cost)))
                            .reduce(|a, b| if b.1.total_cmp(&a.1).is_lt() { b } else { a })
                            .map(|(s, _)| s.clone())
                    };
                    comp = levels[1..]
                        .iter()
                        .rev()
                        .find_map(planned)
                        .ok_or_else(|| self.no_plan())?;
                }
                committed.push(comp);
            }
            // a committed node takes the place of its lowest member, so
            // nodes stay in order of their lowest item
            nodes = (0..nodes.len())
                .filter_map(|u| match committed.iter().find(|s| s.intersects(&one(u))) {
                    None => Some(nodes[u].clone()),
                    Some(s) => (s.ones().next() == Some(u)).then(|| memo[s].clone()),
                })
                .collect();
            if !unfinished {
                break;
            }
        }

        // components fold in order, except that one item unable to drive
        // (an uncorrelated semi item) never starts the fold
        let start = nodes
            .iter()
            .position(|p| p.leaf().is_none_or(|i| self.items[i].can_drive()))
            .ok_or_else(|| Error::plan("no valid driving table"))?;
        let mut fin = nodes.remove(start);
        for part in nodes {
            // deterministic cross-product between components: no join
            // edge exists, so pricing yields the block-NL candidate with
            // an empty predicate set
            tally.pairs += 1;
            fin = Partial::join(&fin, &part, &self.price(&fin, &part));
        }
        if let Some(b) = self.budget {
            if fin.cost > b {
                return Err(Error::plan(COST_CUTOFF));
            }
        }
        if n > 1 {
            self.opt.tracer.emit(|| TraceEvent::JoinEnumEnd {
                block: self.block.to_string(),
                memo_entries: tally.entries,
                memo_hits: tally.hits,
                pairs: tally.pairs,
                rounds: tally.rounds,
                degraded: self.enum_degraded.get(),
            });
        }
        Ok(fin)
    }

    /// The cheapest join of `set` out of two memo entries that partition
    /// it with a join edge between them, or `None` if no partition is
    /// legal and, under a budget, survives the §3.4.1 prune: every
    /// candidate pays the left side's cost, and the right side's unless
    /// an index NL probes a single base item instead of scanning it.
    fn best_split(
        &self,
        set: &M,
        memo: &HashMap<M, Partial<M>>,
        near: &[M],
        tally: &mut Tally,
    ) -> Option<Partial<M>> {
        let mut best: Option<(Priced, M)> = None;
        for s1 in set.parts() {
            let s2 = set.minus(&s1);
            if !s1.ones().any(|u| near[u].intersects(&s2)) {
                continue;
            }
            let (Some(l), Some(r)) = (memo.get(&s1), memo.get(&s2)) else {
                continue;
            };
            if !self.legal(l, r) {
                continue;
            }
            tally.hits += 2;
            if let Some(b) = self.budget {
                let probed = r
                    .leaf()
                    .is_some_and(|i| matches!(self.items[i].kind, ItemKind::Base(_)));
                if l.cost > b || (r.cost > b && !probed) {
                    continue;
                }
            }
            tally.pairs += 1;
            let cand = self.price(l, r);
            if best
                .as_ref()
                .is_none_or(|(b, _)| cand.cost.total_cmp(&b.cost).is_lt())
            {
                best = Some((cand, s1));
            }
        }
        let (p, s1) = best?;
        Some(Partial::join(&memo[&s1], &memo[&set.minus(&s1)], &p))
    }

    /// The error of a block the search found no plan for: a cost cut-off
    /// under a budget, where the §3.4.1 prune drops plans, and an
    /// internal error naming the block otherwise.
    fn no_plan(&self) -> Error {
        match self.budget {
            Some(_) => Error::plan(COST_CUTOFF),
            None => Error::plan(format!(
                "join enumeration found no plan for block {}",
                self.block
            )),
        }
    }

    /// Runs the search, then builds the plan tree of the join order it
    /// picked — the only plan tree the enumeration builds. Returns the
    /// tree with the cost and rows the search priced it at.
    fn plan(&self) -> Result<(PlanNode, f64, f64)> {
        let best = self.search()?;
        let (node, built) = self.build(&best.shape);
        let bits = |p: &Partial<M>| (p.cost.to_bits(), p.rows.to_bits());
        debug_assert_eq!(bits(&best), bits(&built), "built join tree reprices");
        #[cfg(test)]
        PRICED_BUILT.with(|v| v.borrow_mut().push((bits(&best), bits(&built))));
        Ok((node, best.cost, best.rows))
    }

    /// Builds the plan tree of `shape` bottom-up. Each join replays
    /// [`Self::price`] on its built children for the decision, and the
    /// same conjunct walk supplies the equi / residual split.
    fn build(&self, shape: &Rc<Shape>) -> (PlanNode, Partial<M>) {
        let (l, r) = match &**shape {
            Shape::Leaf(i) => {
                let leaves = self.leaves();
                return (leaves.nodes[*i].clone(), leaves.parts[*i].clone());
            }
            Shape::Join(l, r) => (l, r),
        };
        let (lnode, l) = self.build(l);
        let (rnode, r) = self.build(r);
        debug_assert!(
            self.legal(&l, &r),
            "join order breaks the items' partial order"
        );
        let priced = self.price(&l, &r);
        let item = r.leaf();
        let mut equi: Vec<(QExpr, QExpr)> = Vec::new();
        let mut residual: Vec<QExpr> = Vec::new();
        self.for_each_conj(&l.mask, &r.mask, item, |_, c, orient| match orient {
            Some(flip) => equi.push(c.equi(flip)),
            None => residual.push(c.expr.clone()),
        });
        let right = match (priced.probe, item) {
            (Some(slot), Some(i)) => self.probes.borrow()[i][slot].node.clone(),
            _ => rnode,
        };
        let node = PlanNode::Join {
            left: Box::new(lnode),
            right: Box::new(right),
            kind: priced.kind,
            method: priced.method,
            equi,
            residual,
            lateral: priced.lateral,
            rows: priced.rows,
        };
        let built = Partial {
            cost: priced.cost,
            rows: priced.rows,
            mask: l.mask.union(&r.mask),
            shape: Rc::clone(shape),
        };
        (node, built)
    }

    /// Whether joining `l` to `r` keeps the items' partial order: a
    /// single left item must be able to drive, and a single right item
    /// needs its prerequisites on the left. A composite side holds every
    /// prerequisite of its items, so it may join on either side.
    fn legal(&self, l: &Partial<M>, r: &Partial<M>) -> bool {
        l.leaf().is_none_or(|i| self.items[i].can_drive())
            && r.leaf()
                .is_none_or(|j| self.facts().deps[j].subset_of(&l.mask))
    }

    fn facts(&self) -> &Facts<'b, M> {
        self.facts.get_or_init(|| {
            let n = self.items.len();
            let index: HashMap<RefId, usize> = self
                .items
                .iter()
                .enumerate()
                .map(|(i, it)| (it.refid, i))
                .collect();
            let mask_of = |refs: &mut dyn Iterator<Item = RefId>| {
                let mut m = M::empty(n);
                refs.filter_map(|r| index.get(&r))
                    .for_each(|&i| m.insert(i));
                m
            };
            let side = |e: &QExpr| {
                let refs = e.referenced_tables();
                EqSide {
                    mask: mask_of(&mut refs.iter().copied()),
                    any_ref: !refs.is_empty(),
                    ndv: self.col_ndv(e),
                }
            };
            let conj = |c: &'b QExpr| Conj {
                expr: c,
                mask: mask_of(&mut c.referenced_tables().into_iter()),
                sel: self.est.selectivity(c),
                eq: c.as_equality().map(|(a, b)| (side(a), side(b))),
            };
            let items = self.items;
            Facts {
                preds: self.join_preds.iter().map(conj).collect(),
                on: items
                    .iter()
                    .map(|it| it.join.on_conjuncts().iter().map(conj).collect())
                    .collect(),
                deps: items
                    .iter()
                    .map(|it| mask_of(&mut it.deps.iter().copied()))
                    .collect(),
            }
        })
    }

    fn leaves(&self) -> &Leaves<M> {
        self.leaves.get_or_init(|| {
            let n = self.items.len();
            let (nodes, parts) = self
                .items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let (node, cost, rows) = self.plan_leaf(item);
                    let mut mask = M::empty(n);
                    mask.insert(i);
                    let shape = Rc::new(Shape::Leaf(i));
                    let part = Partial {
                        cost,
                        rows,
                        mask,
                        shape,
                    };
                    (node, part)
                })
                .unzip();
            Leaves { nodes, parts }
        })
    }

    /// Walks the conjuncts that join `l` to `r`, in the order their
    /// selectivities multiply: WHERE conjuncts spanning the two sides
    /// (one local to a side was applied when that side was planned) in
    /// `join_preds` order, then the right item's ON conjuncts. `f` gets
    /// each conjunct's id — its index in `join_preds`, or past those its
    /// index among the item's ON conjuncts — and its orientation as a
    /// join key ([`Conj::orient`]).
    fn for_each_conj(
        &self,
        l: &M,
        r: &M,
        item: Option<usize>,
        mut f: impl FnMut(u32, &Conj<'b, M>, Option<bool>),
    ) {
        let facts = self.facts();
        for (id, c) in facts.preds.iter().enumerate() {
            if c.mask.within(l, r) && c.mask.intersects(l) && c.mask.intersects(r) {
                f(id as u32, c, c.orient(l, r));
            }
        }
        for (k, c) in item.map_or(&[][..], |i| &facts.on[i]).iter().enumerate() {
            f((facts.preds.len() + k) as u32, c, c.orient(l, r));
        }
    }

    /// Prices joining two disjoint sub-plans: the one place a join is
    /// costed, so plans of every window — and the transformation states
    /// whose blocks they plan — compete on one scale. A single-item
    /// right side joins under that item's annotation (semi / anti /
    /// outer / lateral) with its ON conjuncts; a composite right side is
    /// a memo entry, which holds every prerequisite of its items, and
    /// joins as an inner join. WHERE conjuncts that cross the two sides
    /// join the predicate too: equalities oriented with the left
    /// expression on `l` and the right one on `r` are join keys,
    /// everything else is residual. Candidates: hash (build right, probe
    /// left), merge (inner only in the executor), block nested loop
    /// (always valid — the cross-product fallback), and index NL when
    /// the right side is a single base item. A lateral view has one
    /// candidate, a nested loop that re-runs it per distinct binding.
    /// Ties keep the first candidate in that order.
    fn price(&self, l: &Partial<M>, r: &Partial<M>) -> Priced {
        let item = r.leaf();
        let kind = match item.map_or(&JoinInfo::Inner, |i| &self.items[i].join) {
            JoinInfo::Inner | JoinInfo::Lateral { semi: false } => PlanJoinKind::Inner,
            JoinInfo::Semi { .. } | JoinInfo::Lateral { semi: true } => PlanJoinKind::Semi,
            JoinInfo::Anti { null_aware, .. } => PlanJoinKind::Anti {
                null_aware: *null_aware,
            },
            JoinInfo::LeftOuter { .. } => PlanJoinKind::LeftOuter,
        };

        let mut sel = 1.0;
        let (mut equis, mut residuals) = (0usize, 0usize);
        // (left, right) NDVs of the first join key
        let mut first_key: Option<(Option<f64>, Option<f64>)> = None;
        // the equi set, keying the index-NL probe (see `Probe::key`)
        let mut key: Vec<u32> = Vec::new();
        self.for_each_conj(&l.mask, &r.mask, item, |id, c, orient| {
            sel *= c.sel;
            match orient {
                Some(flip) => {
                    equis += 1;
                    first_key.get_or_insert_with(|| c.key_ndv(flip));
                    key.push(2 * id + flip as u32);
                }
                None => residuals += 1,
            }
        });

        let semi_or_anti = matches!(kind, PlanJoinKind::Semi | PlanJoinKind::Anti { .. });
        let inner_rows = (l.rows * r.rows * sel).max(0.0);
        let out_rows = if semi_or_anti {
            // match probability under the containment assumption
            let matched = match first_key {
                Some((lndv, rndv)) if r.rows > 0.0 => {
                    let lndv = lndv.unwrap_or(l.rows.max(1.0));
                    let rndv = rndv.unwrap_or(r.rows);
                    (rndv / lndv).clamp(0.01, 1.0)
                }
                _ => 0.7,
            };
            if kind == PlanJoinKind::Semi {
                (l.rows * matched).max(0.0)
            } else {
                (l.rows * (1.0 - matched)).max(l.rows * 0.01)
            }
        } else if kind == PlanJoinKind::LeftOuter {
            inner_rows.max(l.rows)
        } else {
            inner_rows
        };
        // semi/anti probes stop at the first match and cache on duplicate
        // left keys (§2.1.1)
        let (effective_left, probe_fraction) = if semi_or_anti {
            let ndv = first_key.and_then(|(lndv, _)| lndv);
            (l.rows.min(ndv.unwrap_or(l.rows)), 0.5)
        } else {
            (l.rows, 1.0)
        };

        // (method, index-NL probe slot, cost) of the cheapest candidate
        let mut best: Option<(JoinMethod, Option<usize>, f64)> = None;
        let mut consider = |method, probe, cost: f64| {
            if best.is_none_or(|(_, _, b)| cost.total_cmp(&b).is_lt()) {
                best = Some((method, probe, cost));
            }
        };
        let lateral_view = item.filter(|&i| self.items[i].correlated);
        if let Some(view) = lateral_view {
            // the view runs once per distinct combination of the left
            // columns it depends on (binding cache) — approximated by
            // the row counts of the tables it binds, in item order
            let mut bindings = 1.0_f64;
            for d in self.facts().deps[view].ones() {
                if let Some(rs) = self.est.rels.get(&self.items[d].refid) {
                    bindings = (bindings * rs.rows.max(1.0)).min(1e15);
                }
            }
            let cost = l.cost
                + l.rows.min(bindings).max(1.0) * r.cost
                + l.rows * weights::HASH_PROBE
                + inner_rows * weights::ROW;
            consider(JoinMethod::NestedLoop, None, cost);
        } else {
            if self.opt.config.enable_hash_join && equis > 0 {
                let cost = l.cost
                    + r.cost
                    + r.rows * weights::HASH_BUILD
                    + l.rows * weights::HASH_PROBE
                    + inner_rows * residuals as f64 * weights::PRED
                    + out_rows * weights::ROW;
                consider(JoinMethod::Hash, None, cost);
            }
            if self.opt.config.enable_merge_join && equis > 0 && kind == PlanJoinKind::Inner {
                let ln = l.rows.max(2.0);
                let rn = r.rows.max(2.0);
                let cost = l.cost
                    + r.cost
                    + weights::SORT * (ln * ln.log2() + rn * rn.log2())
                    + (l.rows + r.rows) * weights::ROW
                    + out_rows * weights::ROW;
                consider(JoinMethod::Merge, None, cost);
            }
            // block nested loop over the materialized right side: always
            // valid, and the only candidate for a predicate-less cross
            // product
            let pred_count = (equis + residuals).max(1) as f64;
            let cost = l.cost
                + r.cost
                + effective_left * r.rows * pred_count * weights::PRED * probe_fraction
                + out_rows * weights::ROW;
            consider(JoinMethod::NestedLoop, None, cost);
            // index nested loop: re-scan a base item per left row with
            // the equi columns as probe keys (a composite sub-plan has no
            // index to probe). Not under NOT IN: a probe sees only the
            // rows whose key equals the left key, so a NULL key that
            // must reject every left row would never be seen.
            let can_probe = self.opt.config.enable_index_nl
                && equis > 0
                && kind != (PlanJoinKind::Anti { null_aware: true });
            if let (true, Some(i)) = (can_probe, item) {
                if let ItemKind::Base(tid) = self.items[i].kind {
                    let (slot, pcost, indexed) = self.probe(i, tid, &key, &l.mask, &r.mask);
                    // only worthwhile when an index path was chosen
                    if indexed {
                        let cost = l.cost
                            + effective_left * pcost
                            + l.rows * weights::HASH_PROBE * 0.1
                            + out_rows * weights::ROW;
                        consider(JoinMethod::NestedLoop, Some(slot), cost);
                    }
                }
            }
        }

        let (method, probe, cost) = best.expect("a nested loop is always a candidate");
        Priced {
            cost,
            rows: out_rows,
            kind,
            method,
            probe,
            lateral: lateral_view.is_some() || probe.is_some(),
        }
    }

    /// The index-NL probe of base item `i` under the equi set `key` (see
    /// [`Probe::key`]) that joining `l` to it yields, as `(slot, cost,
    /// indexed)`: planned on first use, then read by every pairing that
    /// yields the same set. A probe scan has bound keys, so
    /// `best_base_scan` applies no feedback and emits no event — caching
    /// it changes nothing but the time.
    fn probe(&self, i: usize, tid: TableId, key: &[u32], l: &M, r: &M) -> (usize, f64, bool) {
        let probes = self.probes.borrow();
        if let Some(slot) = probes[i].iter().position(|p| *p.key == *key) {
            return (slot, probes[i][slot].cost, probes[i][slot].indexed);
        }
        drop(probes);
        let mut equi: Vec<(QExpr, QExpr)> = Vec::new();
        self.for_each_conj(l, r, Some(i), |_, c, orient| {
            if let Some(flip) = orient {
                equi.push(c.equi(flip));
            }
        });
        let item = &self.items[i];
        let preds = self
            .table_preds
            .get(&item.refid)
            .map_or(&[][..], Vec::as_slice);
        let (node, cost, _) = self.best_base_scan(item, tid, preds, &equi);
        let indexed = matches!(
            node,
            PlanNode::ScanBase {
                access: AccessPath::IndexEq { .. } | AccessPath::IndexRange { .. },
                ..
            }
        );
        let mut probes = self.probes.borrow_mut();
        probes[i].push(Probe {
            key: key.into(),
            node,
            cost,
            indexed,
        });
        (probes[i].len() - 1, cost, indexed)
    }

    /// Plans one item on its own with its single-table predicates
    /// folded in: the best access path of a base table, or a view's
    /// block plan under a filter.
    fn plan_leaf(&self, item: &Item) -> (PlanNode, f64, f64) {
        let preds = self
            .table_preds
            .get(&item.refid)
            .cloned()
            .unwrap_or_default();
        match &item.kind {
            ItemKind::Base(tid) => self.best_base_scan(item, *tid, &preds, &[]),
            ItemKind::View(b) => {
                let p = item.plan.as_ref().expect("view items carry their plan");
                let mut sel = 1.0;
                for c in &preds {
                    sel *= self.est.selectivity(c);
                }
                let rows = (p.rows * sel).max(0.0);
                // a lateral view's cost is per binding; `price`
                // multiplies it out
                let cost = if item.correlated {
                    p.cost
                } else {
                    p.cost + p.rows * preds.len() as f64 * weights::PRED
                };
                let node = PlanNode::ScanView {
                    block: *b,
                    refid: item.refid,
                    width: item.width,
                    plan: Arc::clone(p),
                    correlated: item.correlated,
                    filter: preds,
                    rows,
                };
                (node, cost, rows)
            }
        }
    }

    /// Observed output cardinality for a base-table scan, when the
    /// optimizer has a feedback source and the scan's filter is
    /// feedback-eligible (see [`crate::est::scan_feedback_key`]).
    /// Clamped finite-and-nonnegative before re-entering the cost model;
    /// applications are traced as `FEEDBACK APPLIED`.
    fn observed_scan_rows(
        &self,
        tid: TableId,
        refid: RefId,
        preds: &[QExpr],
        est_rows: f64,
    ) -> Option<f64> {
        let fb = self.opt.feedback?;
        let key = crate::est::scan_feedback_key(self.opt.catalog, tid, refid, preds, &[])?;
        let observed = crate::est::clamp_feedback_rows(fb.observed_rows(&key)?)?;
        self.opt.tracer.emit(|| TraceEvent::FeedbackApplied {
            table: self
                .opt
                .catalog
                .table(tid)
                .map(|t| t.name.clone())
                .unwrap_or_else(|_| format!("#{}", tid.0)),
            pred: key.pred.clone(),
            observed,
            estimate: est_rows,
        });
        Some(observed)
    }

    /// Best access path for a base table given bound predicates
    /// (`bound_equi` are additional equality pairs whose "outer" side is
    /// available at probe time — used for index nested loops).
    fn best_base_scan(
        &self,
        item: &Item,
        tid: TableId,
        preds: &[QExpr],
        bound_equi: &[(QExpr, QExpr)],
    ) -> (PlanNode, f64, f64) {
        let rows = item.base_rows;
        let mut sel = 1.0;
        for c in preds {
            sel *= self.est.selectivity(c);
        }
        for (l, r) in bound_equi {
            sel *= self.est.selectivity(&QExpr::eq((*l).clone(), (*r).clone()));
        }
        let mut out_rows = (rows * sel).max(0.0);
        // cardinality feedback: a previously observed actual for this
        // exact (table, predicate, bands) beats any static guess. Probe
        // keys are value-free only for the pure local-filter shape, so
        // index-NL probes (bound_equi) keep their static estimate.
        if bound_equi.is_empty() {
            if let Some(observed) = self.observed_scan_rows(tid, item.refid, preds, out_rows) {
                out_rows = observed;
            }
        }
        let expensive: f64 = preds.iter().map(expensive_cost).sum();

        // full scan baseline
        let full_cost = rows * weights::ROW
            + rows * (preds.len() + bound_equi.len()) as f64 * weights::PRED
            + rows * expensive;
        let mut filter: Vec<QExpr> = preds.to_vec();
        for (l, r) in bound_equi {
            filter.push(QExpr::eq(l.clone(), r.clone()));
        }
        let mut best = (
            PlanNode::ScanBase {
                table: tid,
                refid: item.refid,
                width: item.width,
                access: AccessPath::FullScan,
                filter: filter.clone(),
                rows: out_rows,
            },
            full_cost,
            out_rows,
        );

        if !self.opt.config.enable_index_nl {
            return best;
        }

        // candidate equality keys: col = bound-expr conjuncts
        let mut eq_cols: Vec<(usize, QExpr)> = Vec::new();
        let mut collect_eq = |l: &QExpr, r: &QExpr| {
            if let QExpr::Col { table, column } = l {
                if *table == item.refid && self.est.is_bound(r) {
                    eq_cols.push((*column, r.clone()));
                }
            }
        };
        for c in preds.iter() {
            if let Some((l, r)) = c.as_equality() {
                collect_eq(l, r);
                collect_eq(r, l);
            }
        }
        for (l, r) in bound_equi {
            // callers pass (outer_expr, local_col); accept either side
            if let QExpr::Col { table, column } = r {
                if *table == item.refid {
                    eq_cols.push((*column, l.clone()));
                }
            }
            if let QExpr::Col { table, column } = l {
                if *table == item.refid {
                    eq_cols.push((*column, r.clone()));
                }
            }
        }

        if !eq_cols.is_empty() {
            let cols: Vec<usize> = eq_cols.iter().map(|(c, _)| *c).collect();
            if let Some(ix) = self.opt.catalog.best_index_for(tid, &cols) {
                // how many leading index columns are matched
                let mut key = Vec::new();
                for ic in &ix.columns {
                    match eq_cols.iter().find(|(c, _)| c == ic) {
                        Some((_, e)) => key.push(e.clone()),
                        None => break,
                    }
                }
                if !key.is_empty() {
                    let mut key_sel = 1.0;
                    for (i, _) in key.iter().enumerate() {
                        let col = ix.columns[i];
                        let ndv = self
                            .est
                            .col_info(item.refid, col)
                            .map(|ci| ci.ndv)
                            .unwrap_or((rows * DEFAULT_NDV_FRAC).max(1.0));
                        key_sel *= 1.0 / ndv;
                    }
                    let matched = (rows * key_sel).max(0.0);
                    // residual predicates still evaluated per fetched row
                    let cost = weights::INDEX_PROBE
                        + matched * weights::INDEX_FETCH
                        + matched * filter.len() as f64 * weights::PRED
                        + matched * expensive;
                    if cost_lt(cost, best.1) {
                        best = (
                            PlanNode::ScanBase {
                                table: tid,
                                refid: item.refid,
                                width: item.width,
                                access: AccessPath::IndexEq { index: ix.id, key },
                                filter: filter.clone(),
                                rows: out_rows,
                            },
                            cost,
                            out_rows,
                        );
                    }
                }
            }
        }

        // range access on a leading index column
        for c in preds {
            if let QExpr::Bin { op, left, right } = c {
                use cbqt_qgm::BinOp::*;
                if !matches!(op, Lt | LtEq | Gt | GtEq) {
                    continue;
                }
                let (col_side, bound_side, col_is_left) = match (&**left, &**right) {
                    (QExpr::Col { table, column }, b)
                        if *table == item.refid && self.est.is_bound(b) =>
                    {
                        ((*table, *column), b, true)
                    }
                    (b, QExpr::Col { table, column })
                        if *table == item.refid && self.est.is_bound(b) =>
                    {
                        ((*table, *column), b, false)
                    }
                    _ => continue,
                };
                let Some(ix) = self
                    .opt
                    .catalog
                    .indexes_on(tid)
                    .find(|ix| ix.columns.first() == Some(&col_side.1))
                else {
                    continue;
                };
                let rsel = self.est.selectivity(c).clamp(0.0, 1.0);
                let matched = rows * rsel;
                let cost = weights::INDEX_PROBE
                    + matched * weights::INDEX_FETCH
                    + matched * filter.len() as f64 * weights::PRED
                    + matched * expensive;
                if cost_lt(cost, best.1) {
                    // col < bound  => hi bound;  col > bound => lo bound
                    let inclusive = matches!(op, LtEq | GtEq);
                    let is_upper = matches!(op, Lt | LtEq) == col_is_left;
                    let (lo, hi) = if is_upper {
                        (None, Some((bound_side.clone(), inclusive)))
                    } else {
                        (Some((bound_side.clone(), inclusive)), None)
                    };
                    best = (
                        PlanNode::ScanBase {
                            table: tid,
                            refid: item.refid,
                            width: item.width,
                            access: AccessPath::IndexRange {
                                index: ix.id,
                                lo,
                                hi,
                            },
                            filter: filter.clone(),
                            rows: out_rows,
                        },
                        cost,
                        out_rows,
                    );
                }
            }
        }
        best
    }

    fn col_ndv(&self, e: &QExpr) -> Option<f64> {
        match e {
            QExpr::Col { table, column } => self.est.rels.get(table).map(|rs| rs.ndv_of(*column)),
            _ => None,
        }
    }
}

/// Each output column's NDV of a set operation over `inputs` that yields
/// `rows` rows: the sum of the inputs' NDVs for UNION ALL and UNION (no
/// value is assumed to repeat across inputs), the smallest for
/// INTERSECT, and the left input's for MINUS — each capped at the output
/// rows.
fn setop_ndv(op: SetOp, inputs: &[Arc<BlockPlan>], rows: f64) -> Vec<f64> {
    let ndv = |p: &BlockPlan, c: usize| p.out_ndv.get(c).copied().unwrap_or(p.rows.max(1.0));
    (0..inputs[0].out_ndv.len())
        .map(|c| {
            let each = inputs.iter().map(|p| ndv(p, c));
            let n = match op {
                SetOp::UnionAll | SetOp::Union => each.sum(),
                SetOp::Intersect => each.fold(f64::INFINITY, f64::min),
                SetOp::Minus => ndv(&inputs[0], c),
            };
            n.min(rows).max(1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_catalog::{Column, ColumnStats, Constraint, ForeignKey};
    use cbqt_common::DataType;
    use cbqt_qgm::build_query_tree;
    use cbqt_sql::parse_query;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let icol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Int,
            not_null: false,
        };
        let dept = cat
            .add_table(
                "departments",
                vec![icol("dept_id"), icol("loc_id")],
                vec![Constraint::PrimaryKey(vec![0])],
            )
            .unwrap();
        let emp = cat
            .add_table(
                "employees",
                vec![icol("emp_id"), icol("dept_id"), icol("salary")],
                vec![
                    Constraint::PrimaryKey(vec![0]),
                    Constraint::ForeignKey(ForeignKey {
                        columns: vec![1],
                        parent: dept,
                        parent_columns: vec![0],
                    }),
                ],
            )
            .unwrap();
        // statistics: 100 departments, 10_000 employees
        {
            let t = cat.table_mut(dept).unwrap();
            t.stats.analyzed = true;
            t.stats.rows = 100;
            t.stats.columns = vec![
                ColumnStats {
                    ndv: 100,
                    nulls: 0,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(99)),
                    histogram: None,
                },
                ColumnStats {
                    ndv: 10,
                    nulls: 0,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(9)),
                    histogram: None,
                },
            ];
        }
        {
            let t = cat.table_mut(emp).unwrap();
            t.stats.analyzed = true;
            t.stats.rows = 10_000;
            t.stats.columns = vec![
                ColumnStats {
                    ndv: 10_000,
                    nulls: 0,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(9999)),
                    histogram: None,
                },
                ColumnStats {
                    ndv: 100,
                    nulls: 0,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(99)),
                    histogram: None,
                },
                ColumnStats {
                    ndv: 5_000,
                    nulls: 0,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(200_000)),
                    histogram: None,
                },
            ];
        }
        cat.add_index("pk_emp", emp, vec![0], true).unwrap();
        cat.add_index("i_emp_dept", emp, vec![1], false).unwrap();
        cat.add_index("pk_dept", dept, vec![0], true).unwrap();
        cat
    }

    fn plan(sql: &str) -> (BlockPlan, Catalog) {
        let cat = catalog();
        let tree = build_query_tree(&cat, &parse_query(sql).unwrap()).unwrap();
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        let p = opt.optimize(&tree, None).unwrap();
        (p, cat)
    }

    #[test]
    fn plans_single_table_scan() {
        let (p, _) = plan("SELECT emp_id FROM employees WHERE salary > 100000");
        let sp = p.as_select().unwrap();
        assert!(matches!(sp.join, PlanNode::ScanBase { .. }));
        assert!(p.rows > 0.0 && p.rows < 10_000.0);
    }

    #[test]
    fn equality_picks_index() {
        let (p, _) = plan("SELECT emp_id FROM employees WHERE emp_id = 5");
        let sp = p.as_select().unwrap();
        match &sp.join {
            PlanNode::ScanBase { access, .. } => {
                assert!(matches!(access, AccessPath::IndexEq { .. }), "{access:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.rows <= 2.0);
    }

    #[test]
    fn join_produces_two_leaf_plan() {
        let (p, _) =
            plan("SELECT e.emp_id FROM employees e, departments d WHERE e.dept_id = d.dept_id");
        let sp = p.as_select().unwrap();
        match &sp.join {
            PlanNode::Join { rows, .. } => {
                // FK join: ~10000 rows
                assert!(*rows > 5_000.0 && *rows < 20_000.0, "{rows}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sp.layout.slots.len(), 2);
        // employees has 3 cols + rowid
        let total: usize = sp.layout.width;
        assert_eq!(total, 4 + 3);
    }

    #[test]
    fn small_probe_prefers_index_nl() {
        // one department's employees: driving from departments with an
        // index NL into employees should win over hashing 10k rows
        let (p, _) = plan(
            "SELECT e.emp_id FROM departments d, employees e \
             WHERE e.dept_id = d.dept_id AND d.dept_id = 42",
        );
        let sp = p.as_select().unwrap();
        match &sp.join {
            PlanNode::Join {
                method, lateral, ..
            } => {
                assert_eq!(*method, JoinMethod::NestedLoop);
                assert!(lateral);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn correlated_subquery_costed_with_tis() {
        let (p, _) = plan(
            "SELECT e1.emp_id FROM employees e1 WHERE e1.salary > \
             (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id)",
        );
        let sp = p.as_select().unwrap();
        assert_eq!(sp.subplans.len(), 1);
        assert_eq!(sp.post_filter.len(), 1);
        // subplan itself must exist with nonzero cost
        assert!(sp.subplans[0].1.cost > 0.0);
        // TIS runs capped by ndv(dept_id)=100, so total cost is far less
        // than rows * subplan_cost
        let sub_cost = sp.subplans[0].1.cost;
        assert!(
            p.cost < 10_000.0 * sub_cost,
            "cost {} vs {}",
            p.cost,
            sub_cost
        );
    }

    #[test]
    fn semijoin_partial_order_respected() {
        // build a tree with a semi-annotated table manually
        let cat = catalog();
        let tree = build_query_tree(
            &cat,
            &parse_query(
                "SELECT d.dept_id FROM departments d WHERE EXISTS \
                 (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)",
            )
            .unwrap(),
        )
        .unwrap();
        // (not unnested here — planner treats it as TIS filter)
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        let p = opt.optimize(&tree, None).unwrap();
        assert!(p.cost > 0.0);
    }

    #[test]
    fn annotation_reuse_counts() {
        let cat = catalog();
        let tree = build_query_tree(
            &cat,
            &parse_query("SELECT emp_id FROM employees WHERE salary > 10").unwrap(),
        )
        .unwrap();
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        opt.optimize(&tree, None).unwrap();
        assert_eq!(opt.stats.blocks_costed, 1);
        assert_eq!(opt.stats.annotation_hits, 0);
        // re-optimizing the equivalent tree hits the annotation
        let tree2 = build_query_tree(
            &cat,
            &parse_query("SELECT emp_id FROM employees WHERE salary > 10").unwrap(),
        )
        .unwrap();
        opt.optimize(&tree2, None).unwrap();
        assert_eq!(opt.stats.blocks_costed, 1);
        assert_eq!(opt.stats.annotation_hits, 1);
    }

    fn view_plan(p: &BlockPlan) -> &Arc<BlockPlan> {
        fn find(n: &PlanNode) -> Option<&Arc<BlockPlan>> {
            match n {
                PlanNode::ScanView { plan, .. } => Some(plan),
                PlanNode::Join { left, right, .. } => find(left).or_else(|| find(right)),
                PlanNode::OneRow | PlanNode::ScanBase { .. } => None,
            }
        }
        find(&p.as_select().unwrap().join).expect("a view scan")
    }

    #[test]
    fn annotation_hits_share_the_stored_plans() {
        let cat = catalog();
        let tree = build_query_tree(
            &cat,
            &parse_query(
                "SELECT e.emp_id FROM employees e, \
                   (SELECT d.dept_id FROM departments d WHERE d.loc_id = 3) v \
                 WHERE e.dept_id = v.dept_id AND e.salary > \
                   (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)",
            )
            .unwrap(),
        )
        .unwrap();
        let blocks = tree.bottom_up().len() as u64;
        assert_eq!(blocks, 3);
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        let first = opt.optimize(&tree, None).unwrap();
        assert_eq!((opt.stats.blocks_costed, opt.stats.annotation_hits), (3, 0));
        // the same tree again (what a copy-on-write state is for every
        // block it did not touch): all hits, and the children are the
        // first plan's children, not copies of them
        let second = opt.optimize(&tree.clone(), None).unwrap();
        assert_eq!(
            (opt.stats.blocks_costed, opt.stats.annotation_hits),
            (3, blocks)
        );
        assert_eq!(first, second);
        assert!(Arc::ptr_eq(view_plan(&first), view_plan(&second)));
        let subplan = |p: &BlockPlan| Arc::clone(&p.as_select().unwrap().subplans[0].1);
        assert!(Arc::ptr_eq(&subplan(&first), &subplan(&second)));
    }

    #[test]
    fn a_twin_block_gets_a_plan_of_its_own() {
        // two identical branches, each over an identical view: the
        // second branch and its view hit the first's annotations under
        // other block ids; the second branch is the first relabelled at
        // its root and shares everything below it
        let (p, _) = plan(
            "SELECT v.dept_id FROM (SELECT d.dept_id FROM departments d WHERE d.loc_id = 3) v \
             UNION ALL \
             SELECT v.dept_id FROM (SELECT d.dept_id FROM departments d WHERE d.loc_id = 3) v",
        );
        let PlanRoot::SetOp(s) = &p.root else {
            panic!("unexpected {:?}", p.root)
        };
        let (a, b) = (&s.inputs[0], &s.inputs[1]);
        assert_ne!(a.block, b.block);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert!(!Arc::ptr_eq(a, b));
        assert!(Arc::ptr_eq(view_plan(a), view_plan(b)));
        // the shared elements are at two positions, and count at both
        assert_eq!(PlanIndex::build(&p).len(), 1 + 2 * 4);
    }

    #[test]
    fn cost_cutoff_aborts() {
        let cat = catalog();
        let tree = build_query_tree(
            &cat,
            &parse_query(
                "SELECT e.emp_id FROM employees e, departments d WHERE e.dept_id = d.dept_id",
            )
            .unwrap(),
        )
        .unwrap();
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        opt.config.reuse_annotations = false;
        let err = opt.optimize(&tree, Some(1.0)).unwrap_err();
        assert!(is_cutoff(&err));
    }

    #[test]
    fn cutoff_keeps_an_index_nl_plan_under_budget() {
        // the plan probes employees by index from the one department, so
        // it never pays the employees scan, which alone costs more than
        // the budget
        let sql = "SELECT e.emp_id FROM departments d, employees e \
                   WHERE e.dept_id = d.dept_id AND d.dept_id = 42";
        let (free, cat) = plan(sql);
        let tree = build_query_tree(&cat, &parse_query(sql).unwrap()).unwrap();
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        let budgeted = opt.optimize(&tree, Some(free.cost * 1.01)).unwrap();
        assert_eq!(budgeted.cost.to_bits(), free.cost.to_bits());
    }

    #[test]
    fn union_all_plan() {
        let (p, _) = plan("SELECT emp_id FROM employees UNION ALL SELECT dept_id FROM departments");
        match &p.root {
            PlanRoot::SetOp(s) => {
                assert_eq!(s.op, SetOp::UnionAll);
                assert_eq!(s.inputs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!((p.rows - 10_100.0).abs() < 1.0);
    }

    /// A join to a UNION ALL view whose key takes 100 values in 20 000
    /// rows. With the key's NDV taken as the view's row count, the join
    /// looked like 100 rows; each input's NDV (100) sums to 200, so it is
    /// estimated at 10 000 of its 20 000 rows.
    #[test]
    fn a_join_to_a_union_all_view_reads_its_key_ndv() {
        let sql = "SELECT d.loc_id FROM departments d, \
                   (SELECT dept_id k FROM employees UNION ALL SELECT dept_id FROM employees) v \
                   WHERE d.dept_id = v.k";
        let (p, _) = plan(sql);
        let sp = p.as_select().unwrap();
        let view = |n: &PlanNode| match n {
            PlanNode::ScanView { plan, .. } => Some(Arc::clone(plan)),
            _ => None,
        };
        let v = match &sp.join {
            PlanNode::Join { left, right, .. } => view(left).or_else(|| view(right)),
            other => view(other),
        };
        let v = v.expect("the view stays a view");
        assert_eq!(v.out_ndv, [200.0], "sum of the inputs' NDVs");
        assert!(p.rows > 5_000.0, "join estimated at {} rows", p.rows);
    }

    /// Each set operation's column NDV: the sum for UNION ALL and UNION,
    /// the smallest for INTERSECT, the left input's for MINUS, each capped
    /// at the output rows.
    #[test]
    fn set_op_ndv_per_operator() {
        let ndv = |sql: &str| {
            let (p, _) = plan(sql);
            assert!(matches!(p.root, PlanRoot::SetOp(_)), "{sql}");
            (p.out_ndv[0], p.rows)
        };
        let emp = "SELECT dept_id FROM employees";
        let loc = "SELECT loc_id FROM departments";
        assert_eq!(ndv(&format!("{emp} UNION ALL {loc}")).0, 110.0);
        assert_eq!(ndv(&format!("{emp} UNION {loc}")).0, 110.0);
        assert_eq!(ndv(&format!("{emp} INTERSECT {loc}")).0, 10.0);
        assert_eq!(ndv(&format!("{loc} MINUS {emp}")).0, 10.0);
        // capped: 10 000 + 100 distinct ids in 10 100 rows, and 2 rows
        // at most out of one department's INTERSECT
        let (n, rows) =
            ndv("SELECT emp_id FROM employees UNION ALL SELECT dept_id FROM departments");
        assert_eq!(n, rows);
        let (n, rows) = ndv("SELECT emp_id FROM employees WHERE emp_id < 3 \
             INTERSECT SELECT dept_id FROM departments");
        assert!(n <= rows, "{n} distinct in {rows} rows");
    }

    #[test]
    fn group_by_cardinality() {
        let (p, _) = plan("SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id");
        assert!((p.rows - 100.0).abs() < 5.0, "{}", p.rows);
        let sp = p.as_select().unwrap();
        assert_eq!(sp.aggs.len(), 1);
    }

    #[test]
    fn rownum_limits_rows() {
        let (p, _) = plan("SELECT emp_id FROM employees WHERE rownum <= 10");
        assert!((p.rows - 10.0).abs() < 1e-6);
    }

    // --- windows ---------------------------------------------------------

    fn traced_plan_with(
        sql: &str,
        tweak: impl FnOnce(&mut Optimizer),
    ) -> (BlockPlan, OptimizerStats, Vec<TraceEvent>) {
        let cat = catalog();
        let tree = build_query_tree(&cat, &parse_query(sql).unwrap()).unwrap();
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let buf = cbqt_common::TraceBuffer::new();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        opt.tracer = Tracer::new(&buf);
        tweak(&mut opt);
        let p = opt.optimize(&tree, None).unwrap();
        (p, opt.stats, buf.take())
    }

    fn has_enum_begin(events: &[TraceEvent]) -> bool {
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::JoinEnumBegin { .. }))
    }

    /// `(rounds, degraded)` of the trace's `JOIN ENUM END`.
    fn enum_end(events: &[TraceEvent]) -> Option<(usize, bool)> {
        events.iter().find_map(|e| match e {
            TraceEvent::JoinEnumEnd {
                rounds, degraded, ..
            } => Some((*rounds, *degraded)),
            _ => None,
        })
    }

    const TWO_TABLE: &str =
        "SELECT e.emp_id FROM employees e, departments d WHERE e.dept_id = d.dept_id";

    /// A chain of three items, `e1 - d - e2`.
    const THREE_TABLE: &str = "SELECT e1.emp_id FROM employees e1, employees e2, departments d \
                               WHERE e1.dept_id = d.dept_id AND e2.dept_id = d.dept_id";

    #[test]
    fn single_item_block_skips_bushy_tier() {
        let (_, stats, events) = traced_plan_with("SELECT emp_id FROM employees", |_| {});
        assert!(!has_enum_begin(&events));
        assert!(!stats.enum_degraded);
    }

    #[test]
    fn bushy_tier_fires_within_item_limit() {
        let (_, stats, events) = traced_plan_with(TWO_TABLE, |_| {});
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::JoinEnumBegin { items: 2, .. })),
            "{events:?}"
        );
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::JoinEnumEnd {
                degraded: false,
                ..
            }
        )));
        assert!(!stats.enum_degraded);
    }

    #[test]
    fn bushy_disabled_falls_back_to_greedy() {
        // b = 0 plans in windows of two: a pair is planned exactly, and
        // a chain of three takes a pair and then the rest
        let (exact, _, _) = traced_plan_with(TWO_TABLE, |_| {});
        let (pair, stats, events) = traced_plan_with(TWO_TABLE, |opt| {
            opt.config.bushy_max_items = 0;
        });
        assert_eq!(enum_end(&events), Some((1, false)));
        assert!(!stats.enum_degraded);
        assert_eq!(exact.cost.to_bits(), pair.cost.to_bits());
        let (exact, _, _) = traced_plan_with(THREE_TABLE, |_| {});
        let (pairwise, stats, events) = traced_plan_with(THREE_TABLE, |opt| {
            opt.config.bushy_max_items = 0;
        });
        assert_eq!(enum_end(&events), Some((2, false)));
        assert!(!stats.enum_degraded);
        assert!(exact.cost <= pairwise.cost);
    }

    #[test]
    fn item_count_above_bushy_limit_uses_greedy() {
        let (_, _, events) = traced_plan_with(THREE_TABLE, |opt| {
            opt.config.bushy_max_items = 2; // 3 items > limit
        });
        assert_eq!(enum_end(&events), Some((2, false)));
        // raising the limit back plans the block in one round
        let (_, _, events) = traced_plan_with(THREE_TABLE, |_| {});
        assert_eq!(enum_end(&events), Some((1, false)));
    }

    #[test]
    fn bushy_never_costs_worse_than_left_deep() {
        // a pairwise plan is one of the bushy trees the exact memo prices
        let cat = catalog();
        let inner = build_query_tree(&cat, &parse_query(THREE_TABLE).unwrap()).unwrap();
        for tree in [inner, annotated_tree(&cat)] {
            let bushy = plan_with(&cat, &tree, 10).0.cost;
            let greedy = plan_with(&cat, &tree, 0).0.cost;
            assert!(bushy <= greedy, "bushy {bushy} > greedy {greedy}");
        }
    }

    #[test]
    fn an_annotated_block_is_planned_by_the_memo() {
        // a left-outer, a semi, an anti and a lateral item in one block
        let cat = catalog();
        let tree = annotated_tree(&cat);
        let (bushy, events) = plan_with(&cat, &tree, 10);
        let begin = |e: &TraceEvent| matches!(e, TraceEvent::JoinEnumBegin { items: 5, .. });
        assert!(events.iter().any(begin), "{events:?}");
        let greedy = plan_with(&cat, &tree, 0).0;
        assert!(
            bushy.cost <= greedy.cost,
            "{} > {}",
            bushy.cost,
            greedy.cost
        );
    }

    #[test]
    fn a_lateral_view_binding_two_unjoined_items_is_planned() {
        // `e` made plain inner: no predicate joins it to `d`, only the
        // lateral view's bindings relate the two
        let cat = catalog();
        let mut tree = annotated_tree(&cat);
        let root = tree.root;
        tree.select_mut(root).unwrap().tables[1].join = JoinInfo::Inner;
        let (bushy, events) = plan_with(&cat, &tree, 10);
        assert!(has_enum_begin(&events));
        assert!(bushy.cost <= plan_with(&cat, &tree, 0).0.cost);
    }

    #[test]
    fn exhausted_search_drops_every_tier_to_greedy() {
        use cbqt_common::{CancelToken, ExecutionLimits};
        let limits = ExecutionLimits::none().with_optimizer_states(1);
        let governor = Governor::new(&limits, CancelToken::new());
        governor.charge_state(); // uses the only state
        governor.charge_state(); // trips the degraded flag
        assert!(governor.search_exhausted());
        let (p, stats, events) = traced_plan_with(THREE_TABLE, |opt| {
            opt.governor = governor.clone();
        });
        // windows of two, which the allowance did not narrow
        assert_eq!(enum_end(&events), Some((2, false)));
        assert!(!stats.enum_degraded);
        assert!(p.cost > 0.0);
    }

    #[test]
    fn bushy_allowance_exhaustion_degrades_to_greedy() {
        use cbqt_common::{CancelToken, ExecutionLimits};
        // an allowance of one entry cannot fund the three sets of two or
        // more items, so the window narrows to pairs
        let limits = ExecutionLimits::none().with_optimizer_states(1);
        let governor = Governor::new(&limits, CancelToken::new());
        let (p, stats, events) = traced_plan_with(THREE_TABLE, |opt| {
            opt.governor = governor.clone();
        });
        assert!(stats.enum_degraded);
        assert_eq!(enum_end(&events), Some((2, true)));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::SearchDegraded { .. })),
            "{events:?}"
        );
        // the narrowed plan is still valid and executable
        assert!(p.cost > 0.0);
        // memo charges never touch the framework's shared state counter
        assert_eq!(governor.states_used(), 0);
        // the degradation is sticky on the governor (blocks cache publish)
        assert!(governor.optimizer_exhausted());
        // ... but does not narrow the windows of later blocks
        assert!(!governor.search_exhausted());
    }

    #[test]
    fn feedback_is_applied_once_per_base_scan() {
        struct Always(f64);
        impl crate::est::CardFeedback for Always {
            fn observed_rows(&self, _: &cbqt_catalog::FeedbackKey) -> Option<f64> {
                Some(self.0)
            }
        }
        // employees SEMI JOIN departments, as unnesting would leave it:
        // the memo plans a non-inner block like any other
        let cat = catalog();
        let mut tree = build_query_tree(&cat, &parse_query(TWO_TABLE).unwrap()).unwrap();
        let root = tree.root;
        let block = tree.select_mut(root).unwrap();
        let on = std::mem::take(&mut block.where_conjuncts);
        block.tables[1].join = JoinInfo::Semi { on };
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let buf = cbqt_common::TraceBuffer::new();
        let feedback = Always(50.0);
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        opt.tracer = Tracer::new(&buf);
        opt.feedback = Some(&feedback);
        opt.optimize(&tree, None).unwrap();
        let mut applied: Vec<String> = buf
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::FeedbackApplied { table, .. } => Some(table),
                _ => None,
            })
            .collect();
        applied.sort();
        assert_eq!(applied, ["departments", "employees"]);
    }

    #[test]
    fn a_cyclic_dependency_graph_has_no_plan() {
        // A crafted ordering-dependency cycle between two annotated
        // items, unreachable from parsed SQL: no join order keeps the
        // partial order, so the search fails the block with an error
        // naming it rather than panicking.
        let mut cat = Catalog::new();
        let tid = cat
            .add_table(
                "t",
                vec![Column {
                    name: "x".into(),
                    data_type: cbqt_common::DataType::Int,
                    not_null: false,
                }],
                vec![],
            )
            .unwrap();
        let mk = |r: u32, join: JoinInfo, deps: &[u32]| Item {
            refid: RefId(r),
            kind: ItemKind::Base(tid),
            join,
            deps: deps.iter().map(|d| RefId(*d)).collect(),
            correlated: false,
            plan: None,
            base_rows: 10.0,
            width: 2,
        };
        let items = vec![
            mk(0, JoinInfo::Inner, &[]),
            mk(1, JoinInfo::Semi { on: vec![] }, &[2]),
            mk(2, JoinInfo::Semi { on: vec![] }, &[1]),
        ];
        let rels: HashMap<RefId, RelStats> = (0..3u32)
            .map(|r| {
                (
                    RefId(r),
                    RelStats {
                        rows: 10.0,
                        ndv: vec![10.0, 10.0],
                    },
                )
            })
            .collect();
        let base: HashMap<RefId, TableId> = (0..3u32).map(|r| (RefId(r), tid)).collect();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        let table_preds = HashMap::default();
        let join_preds: Vec<QExpr> = vec![];
        for b in [10, 0] {
            opt.config.bushy_max_items = b;
            let enumerator = JoinEnumerator::<u64>::new(
                &opt,
                &est,
                &items,
                &table_preds,
                &join_preds,
                None,
                BlockId(7),
            );
            let err = enumerator.plan().expect_err("no order keeps the cycle");
            assert!(!is_cutoff(&err), "{err}");
            assert!(err.to_string().contains(&BlockId(7).to_string()), "{err}");
        }
    }

    // --- pricing vs building -------------------------------------------

    /// An analyzed table with an integer column per `(name, ndv)` and a
    /// primary-key index on the first.
    fn analyzed_table(cat: &mut Catalog, name: &str, rows: u64, cols: &[(&str, u64)]) {
        let columns = cols
            .iter()
            .map(|(c, _)| Column {
                name: (*c).into(),
                data_type: DataType::Int,
                not_null: false,
            })
            .collect();
        let tid = cat
            .add_table(name, columns, vec![Constraint::PrimaryKey(vec![0])])
            .unwrap();
        let t = cat.table_mut(tid).unwrap();
        t.stats.analyzed = true;
        t.stats.rows = rows;
        t.stats.columns = cols
            .iter()
            .map(|&(_, ndv)| ColumnStats {
                ndv,
                nulls: 0,
                min: Some(Value::Int(0)),
                max: Some(Value::Int(ndv as i64 - 1)),
                histogram: None,
            })
            .collect();
        cat.add_index(&format!("pk_{name}"), tid, vec![0], true)
            .unwrap();
    }

    /// The `cold_joins` schema at its statistics: a fact table with four
    /// arms of mid → leaf.
    fn star_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let fact = [("id", 120), ("a1", 40), ("a2", 40), ("a3", 40), ("a4", 40)];
        analyzed_table(&mut cat, "fact", 120, &fact);
        for k in 1..=4 {
            let mid = [("id", 240), ("fkey", 40), ("leaf_id", 240)];
            analyzed_table(&mut cat, &format!("mid{k}"), 240, &mid);
            let leaf = [("id", 240), ("attr", 12)];
            analyzed_table(&mut cat, &format!("leaf{k}"), 240, &leaf);
        }
        cat
    }

    /// A `cold_joins` statement: `fact` with `snow` arms down to a
    /// filtered leaf and `star` arms that stop at a filtered mid.
    fn star_query(snow: usize, star: usize) -> String {
        let mut from = String::from("fact f");
        let mut preds = Vec::new();
        for k in 1..=snow + star {
            from.push_str(&format!(", mid{k} m{k}"));
            preds.push(format!("f.a{k} = m{k}.fkey"));
            if k <= snow {
                from.push_str(&format!(", leaf{k} l{k}"));
                preds.push(format!("m{k}.leaf_id = l{k}.id"));
                preds.push(format!("l{k}.attr = {}", k + 2));
            } else {
                preds.push(format!("m{k}.leaf_id < {}", 36 + k));
            }
        }
        format!("SELECT f.id FROM {from} WHERE {}", preds.join(" AND "))
    }

    /// One block holding a left-outer, a semi, an anti and a lateral
    /// item, as unnesting and JPPD would leave them. The lateral view
    /// binds two siblings.
    fn annotated_tree(cat: &Catalog) -> QueryTree {
        let sql = "SELECT d.dept_id FROM departments d, employees e, employees s, \
                   employees a, (SELECT w.dept_id, w.salary FROM employees w) v \
                   WHERE e.dept_id = d.dept_id AND s.dept_id = d.dept_id \
                     AND a.emp_id = d.loc_id";
        let mut tree = build_query_tree(cat, &parse_query(sql).unwrap()).unwrap();
        let root = tree.root;
        let block = tree.select_mut(root).unwrap();
        let mut on = std::mem::take(&mut block.where_conjuncts).into_iter();
        let mut one = || vec![on.next().unwrap()];
        block.tables[1].join = JoinInfo::LeftOuter { on: one() };
        block.tables[2].join = JoinInfo::Semi { on: one() };
        block.tables[3].join = JoinInfo::Anti {
            on: one(),
            null_aware: true,
        };
        block.tables[4].join = JoinInfo::Lateral { semi: false };
        let col = |t: &cbqt_qgm::QTable, column| QExpr::Col {
            table: t.refid,
            column,
        };
        let (d, e) = (col(&block.tables[0], 0), col(&block.tables[1], 2));
        let QTableSource::View(view) = block.tables[4].source else {
            panic!("v is a view")
        };
        let view = tree.select_mut(view).unwrap();
        let (w_dept, w_salary) = (col(&view.tables[0], 1), col(&view.tables[0], 2));
        view.where_conjuncts = vec![QExpr::eq(w_dept, d), QExpr::eq(w_salary, e)];
        tree
    }

    #[test]
    fn priced_join_trees_build_back_bit_for_bit_on_every_tier() {
        // the six cold_joins shapes: star 5, snowflake 5 / 7 / 9, mixed 6 / 8
        const SHAPES: [(usize, usize); 6] = [(0, 4), (2, 0), (1, 3), (3, 0), (3, 1), (4, 0)];
        let (star, emp) = (star_catalog(), catalog());
        let mut cases: Vec<(&Catalog, QueryTree)> = SHAPES
            .iter()
            .map(|&(snow, arms)| {
                let ast = parse_query(&star_query(snow, arms)).unwrap();
                (&star, build_query_tree(&star, &ast).unwrap())
            })
            .collect();
        cases.push((&emp, annotated_tree(&emp)));
        for (cat, tree) in &cases {
            // exact, windows of five (several rounds on the wider shapes),
            // pairwise
            for bushy in [10, 5, 0] {
                let (plan, blocks) = priced_and_built(cat, tree, bushy);
                assert!(!blocks.is_empty());
                for (priced, built) in &blocks {
                    assert_eq!(priced, built, "bushy_max_items {bushy}:\n{plan}");
                }
                let again = priced_and_built(cat, tree, bushy).0;
                assert_eq!(again, plan, "bushy_max_items {bushy} planned twice");
            }
        }
        let (emp, annotated) = cases.last().unwrap();
        let plan = priced_and_built(emp, annotated, 10).0;
        for kind in ["LeftOuter", "Semi", "Anti", "correlated: true"] {
            assert!(plan.contains(kind), "{kind} missing:\n{plan}");
        }
    }

    /// Plans `tree` with the given `bushy_max_items`; returns the plan
    /// and its trace.
    fn plan_with(cat: &Catalog, tree: &QueryTree, bushy: usize) -> (BlockPlan, Vec<TraceEvent>) {
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let buf = cbqt_common::TraceBuffer::new();
        let mut opt = Optimizer::new(cat, &ann, &cache);
        opt.tracer = Tracer::new(&buf);
        opt.config.bushy_max_items = bushy;
        (opt.optimize(tree, None).unwrap(), buf.take())
    }

    /// Plans `tree` with the given `bushy_max_items` and returns the
    /// plan's `Debug` text with every block's `(priced, built)` join bits.
    fn priced_and_built(
        cat: &Catalog,
        tree: &QueryTree,
        bushy: usize,
    ) -> (String, Vec<(CostBits, CostBits)>) {
        PRICED_BUILT.with(|v| v.borrow_mut().clear());
        let plan = plan_with(cat, tree, bushy).0;
        (format!("{plan:?}"), PRICED_BUILT.with(|v| v.take()))
    }

    fn mask_laws<M: Mask + PartialEq + std::fmt::Debug>(n: usize) {
        let set = |items: &[usize]| {
            let mut m = M::empty(n);
            items.iter().for_each(|&i| m.insert(i));
            m
        };
        let all: Vec<usize> = (0..n).collect();
        let (first, last, full) = (set(&[0]), set(&[n - 1]), set(&all));
        assert_eq!(full.ones().collect::<Vec<_>>(), all, "n = {n}");
        assert_eq!(M::empty(n).ones().count(), 0);
        let ends = first.union(&last);
        assert_eq!(ends.ones().collect::<Vec<_>>(), [0, n - 1]);
        assert_eq!(ends, set(&[n - 1, 0, n - 1]));
        assert!(ends.intersects(&last) && !first.intersects(&last));
        assert!(ends.within(&first, &last) && !ends.within(&first, &first));
        assert!(last.subset_of(&full) && !full.subset_of(&ends));
        assert!(M::empty(n).subset_of(&first));
    }

    #[test]
    fn masks_hold_63_64_and_65_items() {
        mask_laws::<u64>(63);
        mask_laws::<u64>(64);
        for n in [63, 64, 65, 129] {
            mask_laws::<WideMask>(n);
        }
    }

    /// Plans a chain of `n` base items with rising row counts on
    /// `M`-wide masks with `bushy_max_items` = `b`; returns the plan's
    /// text, the bits of its cost and rows, and the trace.
    fn chain<M: Mask>(n: u32, b: usize) -> (String, u64, u64, Vec<TraceEvent>) {
        let mut cat = Catalog::new();
        let x = Column {
            name: "x".into(),
            data_type: DataType::Int,
            not_null: false,
        };
        let tid = cat.add_table("t", vec![x], vec![]).unwrap();
        let items: Vec<Item> = (0..n)
            .map(|r| Item {
                refid: RefId(r),
                kind: ItemKind::Base(tid),
                join: JoinInfo::Inner,
                deps: vec![],
                correlated: false,
                plan: None,
                base_rows: 10.0 + r as f64,
                width: 2,
            })
            .collect();
        let rels: HashMap<RefId, RelStats> = items
            .iter()
            .map(|it| {
                let ndv = vec![it.base_rows, it.base_rows];
                (
                    it.refid,
                    RelStats {
                        rows: it.base_rows,
                        ndv,
                    },
                )
            })
            .collect();
        let base: HashMap<RefId, TableId> = (0..n).map(|r| (RefId(r), tid)).collect();
        let est = Estimator {
            catalog: &cat,
            rels: &rels,
            base: &base,
        };
        let col = |r| QExpr::Col {
            table: RefId(r),
            column: 0,
        };
        let join_preds: Vec<QExpr> = (1..n).map(|r| QExpr::eq(col(r - 1), col(r))).collect();
        let table_preds = HashMap::default();
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let buf = cbqt_common::TraceBuffer::new();
        let mut opt = Optimizer::new(&cat, &ann, &cache);
        opt.tracer = Tracer::new(&buf);
        opt.config.bushy_max_items = b;
        let e = JoinEnumerator::<M>::new(
            &opt,
            &est,
            &items,
            &table_preds,
            &join_preds,
            None,
            BlockId(0),
        );
        let (node, cost, rows) = e.plan().unwrap();
        (
            format!("{node:?}"),
            cost.to_bits(),
            rows.to_bits(),
            buf.take(),
        )
    }

    #[test]
    fn one_kernel_plans_a_chain_at_any_width() {
        // the windowed search on `u64` masks and on word-slice masks:
        // the same code, so the same plan bit for bit wherever both apply
        for n in [63, 64] {
            let (narrow, wide) = (chain::<u64>(n, 10), chain::<WideMask>(n, 10));
            assert_eq!(narrow, wide, "n = {n}");
            assert!(enum_end(&narrow.3).is_some_and(|(rounds, _)| rounds > 1));
        }
        let (plan, cost, _, _) = chain::<WideMask>(65, 10);
        assert_eq!(plan.matches("ScanBase").count(), 65);
        assert!(f64::from_bits(cost) > 0.0);
    }

    #[test]
    fn a_chain_wider_than_the_window_plans_in_rounds() {
        // 12 items at b = 10. Round one makes the chain's 63 connected
        // sets of 2 to 10 items: the window stops at b, and 63 is far
        // under the C = 2^10 - 11 = 1013 entries a round may make. It
        // commits the cheapest 10-item set, and round two plans the
        // three nodes left (three sets of two or more). Each round's
        // one-node entries count too.
        let (_, cost, _, events) = chain::<u64>(12, 10);
        let memo = events.iter().find_map(|e| match e {
            TraceEvent::JoinEnumEnd { memo_entries, .. } => Some(*memo_entries),
            _ => None,
        });
        assert_eq!(memo, Some(12 + 63 + 3 + 3));
        assert_eq!(enum_end(&events), Some((2, false)));
        let cost = f64::from_bits(cost);
        let pairwise = f64::from_bits(chain::<u64>(12, 0).1);
        let exact = f64::from_bits(chain::<u64>(12, 12).1);
        assert!(
            exact <= cost && cost <= pairwise,
            "{exact} {cost} {pairwise}"
        );
    }

    #[test]
    fn explain_renders() {
        let (p, _) =
            plan("SELECT e.emp_id FROM employees e, departments d WHERE e.dept_id = d.dept_id");
        let text = p.explain();
        assert!(text.contains("JOIN"), "{text}");
        assert!(text.contains("SCAN"), "{text}");
    }
}
