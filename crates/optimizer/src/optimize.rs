//! Per-block plan generation: access paths, join enumeration (a
//! memoized subset search over bushy trees and a greedy pass, both
//! pricing through one kernel, `JoinEnumerator::price`, and building a
//! plan tree only for the join order they pick), post-join costing, and
//! the optimizer-level caches from §3.4.

use crate::est::{Estimator, RelStats, DEFAULT_NDV_FRAC, DEFAULT_ROWS};
use crate::plan::{weights, *};
use cbqt_catalog::{Catalog, TableId};
use cbqt_common::failpoint;
use cbqt_common::{cost_lt, Error, Governor, Result, TraceEvent, Tracer, Value};
use cbqt_qgm::{
    fingerprint, BlockId, JoinInfo, QExpr, QTableSource, QueryBlock, QueryTree, RefId, SelectBlock,
    SetOp,
};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Tuning knobs of the physical optimizer.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Blocks of 2 to this many FROM items (and at most 64), whatever
    /// their items' join kinds, use the memoized bushy enumerator;
    /// larger blocks fall back to a greedy heuristic. Set to 0 to plan
    /// every block greedily.
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
    /// A bushy join enumeration ran out of its per-block state
    /// allowance and degraded to the greedy path. Sticky for the
    /// optimizer's lifetime; the optimizer also marks its governor.
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
    /// every block plans greedily, and each memo search spends a
    /// per-block allowance of the optimizer-state budget
    /// (`JoinEnumerator::enum_left`).
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
        let mut plans: HashMap<BlockId, Planned> = HashMap::new();
        for (id, key, free) in fingerprint::block_keys(tree) {
            let key = self.config.reuse_annotations.then_some(key);
            let plan = self.plan_block(tree, id, key, &plans, budget)?;
            if let Some(b) = budget {
                // the root cost is at least the cost of any block that the
                // root (transitively) executes at least once
                if id == tree.root && plan.cost > b {
                    return Err(Error::plan(COST_CUTOFF));
                }
            }
            plans.insert(id, Planned { plan, free });
        }
        plans
            .remove(&tree.root)
            .map(|p| p.plan)
            .ok_or_else(|| Error::plan("root block was not planned"))
    }

    fn plan_block(
        &mut self,
        tree: &QueryTree,
        id: BlockId,
        key: Option<u64>,
        plans: &HashMap<BlockId, Planned>,
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
            // are positions, so the two share every child.
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
            QueryBlock::Select(s) => self.plan_select(tree, id, s, plans, budget)?,
            QueryBlock::SetOp(s) => {
                let inputs: Vec<Arc<BlockPlan>> = s
                    .inputs
                    .iter()
                    .map(|i| {
                        plans
                            .get(i)
                            .map(|p| Arc::clone(&p.plan))
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
                let arity = inputs[0].out_ndv.len();
                let out_ndv = vec![rows.max(1.0); arity];
                BlockPlan {
                    block: id,
                    root: PlanRoot::SetOp(SetOpPlan { op: s.op, inputs }),
                    cost,
                    rows,
                    out_ndv,
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

    /// Plans one block's join over `M`-wide item masks: `tier` searches,
    /// then the winner's tree is built. Returns the tree, its cost and
    /// rows, and whether a bushy search degraded.
    #[allow(clippy::too_many_arguments)]
    fn enumerate<M: Mask>(
        &self,
        est: &Estimator<'_>,
        items: &[Item],
        table_preds: &HashMap<RefId, Vec<QExpr>>,
        join_preds: &[QExpr],
        budget: Option<f64>,
        id: BlockId,
        tier: impl FnOnce(&JoinEnumerator<'_, '_, M>) -> Result<Partial<M>>,
    ) -> Result<(PlanNode, f64, f64, bool)> {
        let e = JoinEnumerator::new(self, est, items, table_preds, join_preds, budget, id);
        let (node, cost, rows) = e.plan(tier)?;
        Ok((node, cost, rows, e.enum_degraded.get()))
    }

    fn plan_select(
        &mut self,
        tree: &QueryTree,
        id: BlockId,
        s: &SelectBlock,
        plans: &HashMap<BlockId, Planned>,
        budget: Option<f64>,
    ) -> Result<BlockPlan> {
        let declared = s.declared_refs();

        // --- relation statistics per item --------------------------------
        let mut rels: HashMap<RefId, RelStats> = HashMap::new();
        let mut base: HashMap<RefId, TableId> = HashMap::new();
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
                    let p = &planned_view(plans, *b)?.plan;
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
        let mut table_preds: HashMap<RefId, Vec<QExpr>> = HashMap::new();
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
        // Tier selection: the bushy memo plans every block of 2 to
        // bushy_max_items items, whatever their join kinds; it keys
        // subsets by `u64` masks, so it never applies past 64 items.
        // Greedy plans the rest at any width (a single item is its own
        // plan either way). The framework's search-degraded flag drops
        // every later block straight to greedy; the per-block memo
        // allowance (enum_left) is a snapshot of the configured budget,
        // so tier choice and plan shape depend only on the block itself —
        // identical across CBQT states.
        let n = items.len();
        let narrow = n <= u64::BITS as usize;
        let memo = narrow
            && (2..=self.config.bushy_max_items).contains(&n)
            && !self.governor.search_exhausted();
        let (join_node, mut cost, mut rows, bushy_degraded) = if n == 0 {
            // FROM-less SELECT: one constant row
            (PlanNode::OneRow, weights::ROW, 1.0, false)
        } else if narrow {
            self.enumerate::<u64>(&est, &items, &table_preds, &join_preds, budget, id, |e| {
                if memo {
                    e.enumerate_bushy()
                } else {
                    e.enumerate_greedy()
                }
            })?
        } else {
            self.enumerate::<WideMask>(&est, &items, &table_preds, &join_preds, budget, id, |e| {
                e.enumerate_greedy()
            })?
        };
        if bushy_degraded {
            self.stats.enum_degraded = true;
            // the payload is the per-block allowance that ran out (the
            // configured budget), not the statement's states_used counter
            self.tracer.emit(|| TraceEvent::SearchDegraded {
                transform: "bushy join enumeration".to_string(),
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
                        subplans.push((b, Arc::clone(&p.plan)));
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
        for (b, p) in &subplans {
            let corr = &plans[b].free;
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
                    cost += corr_execs.max(1.0) * p.plan.cost;
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
        })
    }

    fn make_item(
        &self,
        tree: &QueryTree,
        t: &cbqt_qgm::QTable,
        declared: &HashSet<RefId>,
        rels: &HashMap<RefId, RelStats>,
        plans: &HashMap<BlockId, Planned>,
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
                let view = planned_view(plans, *b)?;
                let corr = view.free.iter().map(|(r, _)| *r);
                let corr: Vec<RefId> = corr.filter(|r| declared.contains(r)).collect();
                let correlated = !corr.is_empty();
                deps.extend(corr);
                (ItemKind::View(*b), correlated, Some(Arc::clone(&view.plan)))
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

/// A block planned earlier in one optimizer call, with the outer columns
/// its subtree reads (its free list from [`fingerprint::block_keys`]).
struct Planned {
    plan: Arc<BlockPlan>,
    free: fingerprint::FreeCols,
}

fn planned_view(plans: &HashMap<BlockId, Planned>, b: BlockId) -> Result<&Planned> {
    plans
        .get(&b)
        .ok_or_else(|| Error::plan(format!("missing view plan {b}")))
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

/// A set of a block's items, by index into `items`. The join kernel is
/// written once against this trait: `u64` serves every block of up to
/// 64 items (both tiers), [`WideMask`] the wider ones (greedy).
trait Mask: Clone {
    /// The empty set of a block with `n` items.
    fn empty(n: usize) -> Self;
    fn insert(&mut self, i: usize);
    fn union(&self, other: &Self) -> Self;
    /// `self ⊆ a ∪ b`.
    fn within(&self, a: &Self, b: &Self) -> bool;
    fn intersects(&self, other: &Self) -> bool;
    /// Members in ascending item order.
    fn ones(&self) -> impl Iterator<Item = usize> + '_;

    fn subset_of(&self, other: &Self) -> bool {
        self.within(other, other)
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
    fn within(&self, a: &Self, b: &Self) -> bool {
        self & !(a | b) == 0
    }
    fn intersects(&self, other: &Self) -> bool {
        self & other != 0
    }
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        bits(*self)
    }
}

/// An item set of a block wider than 64 items: one bit per item over
/// `⌈n / 64⌉` words, the same length for every set of the block.
#[derive(Debug, Clone, PartialEq, Eq)]
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

struct JoinEnumerator<'b, 'a, M> {
    opt: &'b Optimizer<'a>,
    est: &'b Estimator<'a>,
    items: &'b [Item],
    table_preds: &'b HashMap<RefId, Vec<QExpr>>,
    join_preds: &'b [QExpr],
    budget: Option<f64>,
    /// Block being enumerated (JOIN ENUM trace events).
    block: BlockId,
    /// Remaining per-block bushy-memo state allowance — a snapshot of
    /// the governor's configured optimizer-state budget, deliberately
    /// NOT the shared remaining counter: a constant allowance makes the
    /// chosen plan a function of the block alone, so a block costs the
    /// same whether it is planned afresh or served from the annotation
    /// cache. Every block the memo plans spends it, semi / anti / outer /
    /// lateral items included. `None` = unlimited.
    enum_left: Cell<Option<u64>>,
    /// Set when the bushy enumeration exhausted `enum_left` and
    /// degraded to greedy. Read by `plan_select` after enumeration.
    enum_degraded: Cell<bool>,
    /// Planned once and then shared, so a block costs (and traces) each
    /// base scan once however many join orders — or tiers, when the
    /// bushy memo degrades — look at it. Filled on first use so a bushy
    /// search's `JOIN ENUM BEGIN` still precedes the scans' own trace
    /// events.
    leaves: OnceCell<Leaves<M>>,
    facts: OnceCell<Facts<'b, M>>,
    /// Per item, the index-NL probes planned so far.
    probes: RefCell<Vec<Vec<Probe>>>,
}

/// Union of the join-graph neighborhoods of every item in `mask`
/// (including bits inside `mask` itself — callers mask those out).
fn mask_neighbors(mask: u64, adj: &[u64]) -> u64 {
    mask.ones().fold(0, |nb, i| nb | adj[i])
}

/// The items the join graph reaches from `seed` without leaving `within`.
fn mask_reach(seed: u64, within: u64, adj: &[u64]) -> u64 {
    let mut m = seed;
    loop {
        let grow = mask_neighbors(m, adj) & within & !m;
        if grow == 0 {
            return m;
        }
        m |= grow;
    }
}

/// The subset search: it keys its memo by item set, so it exists for
/// blocks of at most 64 items.
impl JoinEnumerator<'_, '_, u64> {
    /// Charges one unit of the per-block bushy state allowance. Returns
    /// false (and latches the degraded flag) once the allowance is gone.
    fn charge_memo_entry(&self) -> bool {
        match self.enum_left.get() {
            None => true,
            Some(0) => {
                self.enum_degraded.set(true);
                false
            }
            Some(n) => {
                self.enum_left.set(Some(n - 1));
                true
            }
        }
    }

    /// Memoized bushy join enumeration (csg-cmp-pair style): a memo
    /// keyed by connected item subsets (bitset keys) caches the best
    /// priced sub-plan per subset, priced over every partition into
    /// two connected halves with a join edge between them — both
    /// orientations, so bushy trees fall out naturally — with the
    /// existing access-path alternatives at the leaves. Connectivity
    /// comes from the join graph: each join predicate, and each item
    /// with its prerequisites ([`Facts::deps`]), is a hyperedge.
    /// Subsets without a connecting edge are never costed, and
    /// cross-products appear only when folding distinct connected
    /// components at the end (naive 3^n partitioning never runs).
    ///
    /// Semi / anti / outer / lateral items keep their partial order
    /// through [`Self::legal`]: one joins only as a single right side
    /// with its prerequisites on the left, and never starts a join
    /// order. So a memo entry of two or more items holds every
    /// prerequisite of its items, and joins as a plain inner join on
    /// either side.
    ///
    /// Every memo entry costed charges one unit of the per-block state
    /// allowance ([`Self::charge_memo_entry`]); exhaustion abandons the
    /// memo mid-enumeration and degrades to the greedy path.
    ///
    /// Determinism: component masks, subset masks, and partition
    /// submasks are all visited in ascending numeric order, and cost
    /// ties keep the first minimum (`total_cmp` / `cost_lt`), so EXPLAIN
    /// output and trace streams are byte-identical run-to-run.
    fn enumerate_bushy(&self) -> Result<Partial<u64>> {
        let n = self.items.len();
        debug_assert!((2..=u64::BITS as usize).contains(&n));
        self.opt.tracer.emit(|| TraceEvent::JoinEnumBegin {
            block: self.block.to_string(),
            items: n,
        });
        let mut memo_entries = 0usize;
        let mut memo_hits = 0usize;
        let mut pairs = 0usize;

        // --- join-graph adjacency over item indices ------------------------
        // An item's edge to its prerequisites connects its subsets once
        // they hold them; prerequisites only it relates (a lateral view
        // binding two unjoined items) become adjacent too, so the subset
        // holding all of them is connected before the item joins it.
        let facts = self.facts();
        let deps = (0..n).map(|j| facts.deps[j] | 1 << j);
        let mut adj = vec![0u64; n];
        for edge in facts.preds.iter().map(|c| c.mask).chain(deps) {
            for i in edge.ones() {
                adj[i] |= edge & !(1 << i);
            }
        }

        // --- connected components (ascending lowest set bit) --------------
        let mut comps: Vec<u64> = Vec::new();
        let mut seen = 0u64;
        for i in 0..n {
            if seen & (1 << i) != 0 {
                continue;
            }
            let m = mask_reach(1 << i, u64::MAX, &adj);
            seen |= m;
            comps.push(m);
        }

        // --- per-component memo over connected subsets ---------------------
        let mut memo: HashMap<u64, Partial<u64>> = HashMap::new();
        let mut parts: Vec<Partial<u64>> = Vec::new();
        for &comp in &comps {
            // leaves
            for i in comp.ones() {
                if !self.charge_memo_entry() {
                    return self.bushy_degrade(memo_entries, memo_hits, pairs);
                }
                memo_entries += 1;
                memo.insert(1 << i, self.leaves().parts[i].clone());
            }
            let csize = comp.count_ones() as usize;
            if csize >= 2 {
                // all submasks of the component, bucketed by size and
                // visited in ascending numeric order within each size
                let mut by_size: Vec<Vec<u64>> = vec![Vec::new(); csize + 1];
                let mut s = comp;
                loop {
                    by_size[s.count_ones() as usize].push(s);
                    if s == 0 {
                        break;
                    }
                    s = (s - 1) & comp;
                }
                for v in &mut by_size {
                    v.sort_unstable();
                }
                for masks in &by_size[2..] {
                    for &mask in masks {
                        self.opt.governor.check_interrupt()?;
                        // connected: grown from its lowest item
                        if mask_reach(mask & mask.wrapping_neg(), mask, &adj) != mask {
                            continue;
                        }
                        if !self.charge_memo_entry() {
                            return self.bushy_degrade(memo_entries, memo_hits, pairs);
                        }
                        memo_entries += 1;
                        let mut best: Option<(Priced, u64)> = None;
                        // every proper partition (s1, mask \ s1), both
                        // orientations via the full submask sweep
                        let mut subs: Vec<u64> = Vec::new();
                        let mut s1 = (mask - 1) & mask;
                        while s1 != 0 {
                            subs.push(s1);
                            s1 = (s1 - 1) & mask;
                        }
                        subs.sort_unstable();
                        for s1 in subs {
                            let s2 = mask & !s1;
                            // a join edge must connect the halves
                            // (cross-products only between components)
                            if mask_neighbors(s1, &adj) & s2 == 0 {
                                continue;
                            }
                            let (Some(l), Some(r)) = (memo.get(&s1), memo.get(&s2)) else {
                                continue;
                            };
                            if !self.legal(l, r) {
                                continue;
                            }
                            memo_hits += 2;
                            if let Some(b) = self.budget {
                                // §3.4.1 cost cut-off prunes this pair: every
                                // candidate pays the left side's cost, and the
                                // right side's unless an index NL probes a
                                // single base item instead of scanning it
                                let probed = r.leaf().is_some_and(|i| {
                                    matches!(self.items[i].kind, ItemKind::Base(_))
                                });
                                if l.cost > b || (r.cost > b && !probed) {
                                    continue;
                                }
                            }
                            pairs += 1;
                            let cand = self.price(l, r);
                            if best
                                .as_ref()
                                .is_none_or(|(b, _)| cand.cost.total_cmp(&b.cost).is_lt())
                            {
                                best = Some((cand, s1));
                            }
                        }
                        if let Some((p, s1)) = best {
                            let joined = Partial::join(&memo[&s1], &memo[&(mask & !s1)], &p);
                            memo.insert(mask, joined);
                        }
                    }
                }
            }
            parts.push(match memo.remove(&comp) {
                Some(p) => p,
                // with a budget the only way to lose the full-component
                // entry is the cut-off prune above
                None if self.budget.is_some() => return Err(Error::plan(COST_CUTOFF)),
                None => return Err(Error::plan("bushy join enumeration found no complete plan")),
            });
        }
        // components fold in order, except that one item unable to drive
        // (an uncorrelated semi item) never starts the fold
        let start = parts
            .iter()
            .position(|p| p.leaf().is_none_or(|i| self.items[i].can_drive()))
            .ok_or_else(|| Error::plan("no valid driving table"))?;
        let mut fin = parts.remove(start);
        for part in parts {
            // deterministic cross-product between components: no join
            // edge exists, so pricing yields the block-NL candidate with
            // an empty predicate set
            pairs += 1;
            fin = Partial::join(&fin, &part, &self.price(&fin, &part));
        }
        if let Some(b) = self.budget {
            if fin.cost > b {
                return Err(Error::plan(COST_CUTOFF));
            }
        }
        self.opt.tracer.emit(|| TraceEvent::JoinEnumEnd {
            block: self.block.to_string(),
            memo_entries,
            memo_hits,
            pairs,
            degraded: false,
        });
        Ok(fin)
    }

    /// Abandons a budget-exhausted bushy enumeration: emits the
    /// degraded end event and re-plans the whole block greedily over
    /// the leaves already planned (the greedy pass is O(n²) joins —
    /// cheap next to the memo).
    fn bushy_degrade(
        &self,
        memo_entries: usize,
        memo_hits: usize,
        pairs: usize,
    ) -> Result<Partial<u64>> {
        self.opt.tracer.emit(|| TraceEvent::JoinEnumEnd {
            block: self.block.to_string(),
            memo_entries,
            memo_hits,
            pairs,
            degraded: true,
        });
        self.enumerate_greedy()
    }
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
            enum_left: Cell::new(opt.governor.state_budget()),
            enum_degraded: Cell::new(false),
            leaves: OnceCell::new(),
            facts: OnceCell::new(),
            probes: RefCell::new(items.iter().map(|_| Vec::new()).collect()),
        }
    }

    /// Runs one search tier, then builds the plan tree of the join order
    /// it picked — the only plan tree the enumeration builds. Returns the
    /// tree with the cost and rows the search priced it at.
    fn plan(&self, tier: impl FnOnce(&Self) -> Result<Partial<M>>) -> Result<(PlanNode, f64, f64)> {
        let best = tier(self)?;
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
            self.legal(&l, &r) || self.stuck(&l),
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

    /// No item outside `l` has its prerequisites in it: only a
    /// dependency cycle gets here, and greedy joins one regardless.
    fn stuck(&self, l: &Partial<M>) -> bool {
        let outside = self.leaves().parts.iter().zip(&self.facts().deps);
        outside
            .filter(|(leaf, _)| !leaf.mask.subset_of(&l.mask))
            .all(|(_, deps)| !deps.subset_of(&l.mask))
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
    /// costed, so bushy and greedy plans — and the transformation states
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
            // index to probe)
            let can_probe = self.opt.config.enable_index_nl && equis > 0;
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

    /// Greedy fallback for very wide blocks: start from the cheapest
    /// driving table, repeatedly add the extension with minimal cost.
    fn enumerate_greedy(&self) -> Result<Partial<M>> {
        let n = self.items.len();
        let leaves = &self.leaves().parts;
        let facts = self.facts();
        let mut included = vec![false; n];
        // pick cheapest valid start
        let mut start: Option<usize> = None;
        for (i, item) in self.items.iter().enumerate() {
            if item.can_drive() && start.is_none_or(|s| cost_lt(leaves[i].cost, leaves[s].cost)) {
                start = Some(i);
            }
        }
        let i0 = start.ok_or_else(|| Error::plan("no valid driving table"))?;
        included[i0] = true;
        let mut cur = leaves[i0].clone();
        for _ in 1..n {
            let mut bestc: Option<(usize, Priced)> = None;
            for (i, leaf) in leaves.iter().enumerate() {
                if included[i] || !facts.deps[i].subset_of(&cur.mask) {
                    continue;
                }
                let cand = self.price(&cur, leaf);
                if bestc
                    .as_ref()
                    .map(|(_, b)| cost_lt(cand.cost, b.cost))
                    .unwrap_or(true)
                {
                    bestc = Some((i, cand));
                }
            }
            let (i, p) = bestc.unwrap_or_else(|| {
                // No remaining item has its ordering dependencies in
                // scope (a dependency cycle among annotated items).
                // Connect the stuck remainder deterministically
                // instead of failing the statement: the lowest-index
                // remaining item whose ON conjuncts are satisfiable
                // once it joins (preferring one whose references are
                // fully in scope), attached as a plain extension —
                // with no shared columns this costs out as a
                // cross-product via the block-NL candidate.
                let pick = (0..n)
                    .filter(|&i| !included[i])
                    .find(|&i| {
                        let own = &leaves[i].mask;
                        facts.on[i].iter().all(|c| c.mask.within(&cur.mask, own))
                    })
                    .or_else(|| (0..n).find(|&i| !included[i]))
                    .expect("greedy loop ran past all items");
                (pick, self.price(&cur, &leaves[pick]))
            });
            included[i] = true;
            cur = Partial::join(&cur, &leaves[i], &p);
        }
        Ok(cur)
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

    // --- enumerator tier selection ------------------------------------

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

    const TWO_TABLE: &str =
        "SELECT e.emp_id FROM employees e, departments d WHERE e.dept_id = d.dept_id";

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
        let (bushy, _, _) = traced_plan_with(TWO_TABLE, |_| {});
        let (greedy, stats, events) = traced_plan_with(TWO_TABLE, |opt| {
            opt.config.bushy_max_items = 0;
        });
        assert!(!has_enum_begin(&events), "greedy must not trace JOIN ENUM");
        assert!(!stats.enum_degraded);
        assert!(bushy.cost <= greedy.cost);
    }

    #[test]
    fn item_count_above_bushy_limit_uses_greedy() {
        let sql = "SELECT e1.emp_id FROM employees e1, employees e2, departments d \
                   WHERE e1.dept_id = d.dept_id AND e2.dept_id = d.dept_id";
        let (_, _, events) = traced_plan_with(sql, |opt| {
            opt.config.bushy_max_items = 2; // 3 items > limit
        });
        assert!(!has_enum_begin(&events));
        // raising the limit back turns the bushy tier on
        let (_, _, events) = traced_plan_with(sql, |_| {});
        assert!(has_enum_begin(&events));
    }

    #[test]
    fn bushy_never_costs_worse_than_left_deep() {
        // greedy grows one left-deep order; the memo prices it too
        let cat = catalog();
        let sql = "SELECT e1.emp_id FROM employees e1, employees e2, departments d \
                   WHERE e1.dept_id = d.dept_id AND e2.dept_id = d.dept_id";
        let inner = build_query_tree(&cat, &parse_query(sql).unwrap()).unwrap();
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
        let (p, stats, events) = traced_plan_with(TWO_TABLE, |opt| {
            opt.governor = governor.clone();
        });
        // greedy tier: no JOIN ENUM trace, but still a valid plan
        assert!(!has_enum_begin(&events));
        assert!(!stats.enum_degraded);
        assert!(p.cost > 0.0);
    }

    #[test]
    fn bushy_allowance_exhaustion_degrades_to_greedy() {
        use cbqt_common::{CancelToken, ExecutionLimits};
        // budget of 2 memo entries cannot even seed the two leaves plus
        // the pair, so the enumeration degrades mid-flight
        let limits = ExecutionLimits::none().with_optimizer_states(2);
        let governor = Governor::new(&limits, CancelToken::new());
        let (p, stats, events) = traced_plan_with(TWO_TABLE, |opt| {
            opt.governor = governor.clone();
        });
        assert!(stats.enum_degraded);
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::JoinEnumEnd { degraded: true, .. })));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::SearchDegraded { .. })),
            "{events:?}"
        );
        // the degraded greedy plan is still valid and executable
        assert!(p.cost > 0.0);
        // memo charges never touch the framework's shared state counter
        assert_eq!(governor.states_used(), 0);
        // the degradation is sticky on the governor (blocks cache publish)
        assert!(governor.optimizer_exhausted());
        // ... but does not force later blocks off the memo
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
    fn greedy_completes_a_cyclic_dependency_graph() {
        // A crafted ordering-dependency cycle between two annotated
        // items — unreachable from parsed SQL today, but the greedy
        // fallback must finish with a deterministic cross-product
        // connection rather than erroring out mid-plan.
        fn count_scans(n: &PlanNode) -> usize {
            match n {
                PlanNode::Join { left, right, .. } => count_scans(left) + count_scans(right),
                PlanNode::ScanBase { .. } => 1,
                _ => 0,
            }
        }
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
        let opt = Optimizer::new(&cat, &ann, &cache);
        let table_preds = HashMap::new();
        let join_preds: Vec<QExpr> = vec![];
        let run = || {
            let enumerator = JoinEnumerator::<u64>::new(
                &opt,
                &est,
                &items,
                &table_preds,
                &join_preds,
                None,
                BlockId(0),
            );
            enumerator
                .plan(JoinEnumerator::enumerate_greedy)
                .expect("cyclic deps must not error")
        };
        let (node, cost, _) = run();
        assert_eq!(count_scans(&node), 3, "all three items joined");
        assert!(cost > 0.0);
        // deterministic: a second enumeration produces the same plan
        let (node2, cost2, _) = run();
        assert_eq!(cost.to_bits(), cost2.to_bits());
        assert_eq!(format!("{node:?}"), format!("{node2:?}"));
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
            // bushy, forced greedy
            for bushy in [10, 0] {
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

    #[test]
    fn one_kernel_plans_a_chain_at_any_width() {
        // a chain of `n` items with rising row counts, planned greedily
        // on `u64` masks and on word-slice masks: the same kernel, so
        // the same plan bit for bit wherever both apply
        let mut cat = Catalog::new();
        let x = Column {
            name: "x".into(),
            data_type: DataType::Int,
            not_null: false,
        };
        let tid = cat.add_table("t", vec![x], vec![]).unwrap();
        let ann = CostAnnotations::new();
        let cache = SamplingCache::default();
        let opt = Optimizer::new(&cat, &ann, &cache);
        fn greedy<M: Mask>(opt: &Optimizer, est: &Estimator, items: &[Item]) -> (String, u64, u64) {
            let col = |r| QExpr::Col {
                table: RefId(r),
                column: 0,
            };
            let n = items.len() as u32;
            let join_preds: Vec<QExpr> = (1..n).map(|r| QExpr::eq(col(r - 1), col(r))).collect();
            let table_preds = HashMap::new();
            let e = JoinEnumerator::<M>::new(
                opt,
                est,
                items,
                &table_preds,
                &join_preds,
                None,
                BlockId(0),
            );
            let (node, cost, rows) = e.plan(JoinEnumerator::enumerate_greedy).unwrap();
            (format!("{node:?}"), cost.to_bits(), rows.to_bits())
        }
        let chain = |n: u32, wide: bool| {
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
            if wide {
                greedy::<WideMask>(&opt, &est, &items)
            } else {
                greedy::<u64>(&opt, &est, &items)
            }
        };
        for n in [63, 64] {
            assert_eq!(chain(n, false), chain(n, true), "n = {n}");
        }
        let (plan, cost, _) = chain(65, true);
        assert_eq!(plan.matches("ScanBase").count(), 65);
        assert!(f64::from_bits(cost) > 0.0);
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
