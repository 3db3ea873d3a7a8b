//! The cost-based transformation framework (§3).
//!
//! Transformations are applied **sequentially** in the paper's order
//! (§3.1): each transformation enumerates a state space over its targets
//! in the current query tree, costs candidate states on *deep copies* of
//! the tree with the physical optimizer, and the winning state is
//! applied to the main tree before the next transformation runs.
//!
//! State-space machinery (§3.2):
//! * a state is a vector of per-target choices (bits generalized to
//!   small arities so juxtaposed alternatives fit, §3.3.2/§3.3.3);
//! * four search strategies — exhaustive (2^N), iterative improvement,
//!   linear (N+1), two-pass (2) — with automatic selection based on the
//!   number of transformation objects;
//! * interleaving (§3.3.1): when unnesting creates a view, the merge of
//!   that view is evaluated *within* the same state, so "unnest + merge"
//!   can win even when "unnest" alone loses;
//! * cost annotations are shared across all states (§3.4.2) and the best
//!   cost so far is passed as a cut-off budget (§3.4.1).

use crate::costbased::view_transform::{can_merge_view, merge_view};
use crate::costbased::{default_transforms, ApplyEffect, CbTransform, Target};
use crate::heuristic::{apply_heuristics_with, HeuristicReport};
use cbqt_catalog::Catalog;
use cbqt_common::{
    cost_lt, Error, ExecutionMode, Governor, Result, StateCharge, TraceEvent, Tracer,
};
use cbqt_optimizer::{
    is_cutoff, BlockPlan, CardFeedback, CostAnnotations, DynamicSampler, Optimizer,
    OptimizerConfig, OptimizerStats, SamplingCache,
};
use cbqt_qgm::{render, QTableSource, QueryTree};

/// Search strategies of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Pick automatically from the object counts (the paper's default).
    Auto,
    /// All states of the space.
    Exhaustive,
    /// Iterative improvement: random restarts + greedy descent.
    Iterative,
    /// Linear: fix one coordinate at a time (N+1 states).
    Linear,
    /// Two states: nothing transformed vs. everything transformed.
    TwoPass,
}

/// Which transformations are enabled — used by the experiments to turn
/// individual transformations off or force heuristic behaviour.
#[derive(Debug, Clone)]
pub struct TransformSet {
    pub unnest: bool,
    pub view_merge: bool,
    /// Join predicate pushdown (disable independently of view merging —
    /// the paper's Figure 4 experiment).
    pub jppd: bool,
    pub setop_to_join: bool,
    pub group_by_placement: bool,
    pub predicate_pullup: bool,
    pub join_factorization: bool,
    pub or_expansion: bool,
}

impl Default for TransformSet {
    fn default() -> Self {
        TransformSet {
            unnest: true,
            view_merge: true,
            jppd: true,
            setop_to_join: true,
            group_by_placement: true,
            predicate_pullup: true,
            join_factorization: true,
            or_expansion: true,
        }
    }
}

impl TransformSet {
    fn enabled(&self, name: &str) -> bool {
        match name {
            "subquery unnesting (inline view)" => self.unnest,
            "view merging / join predicate pushdown" => self.view_merge || self.jppd,
            "MINUS/INTERSECT into join" => self.setop_to_join,
            "group-by placement" => self.group_by_placement,
            "predicate pullup" => self.predicate_pullup,
            "join factorization" => self.join_factorization,
            "disjunction into UNION ALL" => self.or_expansion,
            _ => true,
        }
    }
}

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct CbqtConfig {
    /// Master switch: `false` = heuristic-only mode. Cost-based
    /// transformations are then applied by fixed rules (the pre-10g
    /// behaviour the paper compares against in §4.1).
    pub cost_based: bool,
    pub search: SearchStrategy,
    /// Per-transformation: up to this many targets → exhaustive search.
    pub exhaustive_threshold: usize,
    /// Per-transformation: above the exhaustive threshold and up to this
    /// many targets → linear; beyond → two-pass for everything.
    pub linear_threshold: usize,
    /// Total targets in the whole query beyond which every
    /// transformation uses two-pass (§3.2).
    pub total_two_pass_threshold: usize,
    /// Enable §3.3.1 interleaving of unnesting with view merging.
    pub interleave: bool,
    /// Heuristic unnesting-by-merging (§2.1.1). Disabled together with
    /// `transforms.unnest` to reproduce the paper's "unnesting completely
    /// disabled" baseline (Figure 3).
    pub heuristic_unnest_merge: bool,
    /// §3.4.1 cost cut-off during state evaluation.
    pub cost_cutoff: bool,
    pub transforms: TransformSet,
    pub optimizer: OptimizerConfig,
    /// Iterative improvement: number of restarts.
    pub iterative_restarts: usize,
    /// Iterative improvement: max states explored.
    pub iterative_max_states: usize,
    /// Inert: the state-space search is serial and nothing in the
    /// workspace reads this field. It survives only because the frozen
    /// `benchmark/` package assigns it; the next `benchmark` PR drops
    /// both the assignments and the field.
    #[doc(hidden)]
    pub parallelism: usize,
    /// Which interpreter executes the chosen physical plan: the
    /// vectorized batch engine (default) or the row-at-a-time Volcano
    /// oracle. Defaults to the process-wide `CBQT_EXEC_MODE` setting so
    /// the whole test suite can be flipped onto the oracle path.
    pub execution_mode: ExecutionMode,
    /// Cardinality feedback & re-optimization knobs.
    pub feedback: FeedbackConfig,
}

/// Knobs of the cardinality-feedback loop: runtime actuals harvested
/// into the feedback store, suspect-marking of cached plans whose
/// estimates diverged, and feedback-informed recompilation.
#[derive(Debug, Clone)]
pub struct FeedbackConfig {
    /// Master switch. When off, nothing is harvested, estimates stay
    /// purely static, and cached plans are never marked suspect.
    pub enabled: bool,
    /// A cached plan is marked suspect when an eligible scan's observed
    /// cardinality diverges from its estimate by at least this
    /// symmetric ratio (`max(actual/est, est/actual)` with both sides
    /// floored at one row). The suspect plan is recompiled — with the
    /// observed actuals fed back — on its next cache probe.
    pub divergence_ratio: f64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            enabled: true,
            divergence_ratio: 10.0,
        }
    }
}

impl Default for CbqtConfig {
    fn default() -> Self {
        CbqtConfig {
            cost_based: true,
            search: SearchStrategy::Auto,
            exhaustive_threshold: 5,
            linear_threshold: 12,
            total_two_pass_threshold: 16,
            interleave: true,
            heuristic_unnest_merge: true,
            cost_cutoff: true,
            transforms: TransformSet::default(),
            optimizer: OptimizerConfig::default(),
            iterative_restarts: 3,
            iterative_max_states: 24,
            parallelism: 1,
            execution_mode: ExecutionMode::from_env(),
            feedback: FeedbackConfig::default(),
        }
    }
}

/// Result of the full optimization: the transformed tree, its physical
/// plan, and bookkeeping for the experiments.
#[derive(Debug)]
pub struct CbqtOutcome {
    pub tree: QueryTree,
    pub plan: BlockPlan,
    pub heuristics: HeuristicReport,
    /// `(transformation name, human-readable decision)` log.
    pub decisions: Vec<(String, String)>,
    /// States costed across all cost-based transformations.
    pub states_explored: u64,
    /// §3.4.1 cost cut-offs taken while costing states.
    pub cutoffs: u64,
    pub optimizer_stats: OptimizerStats,
    /// True when the statement's optimizer-state budget ran out
    /// mid-search: the plan is valid and executable but reflects the
    /// best state found before the budget tripped, not the full search.
    pub degraded: bool,
}

/// Runs the full pipeline: heuristic transformations, then each
/// cost-based transformation over its state space, then final physical
/// optimization — untraced, ungoverned, without a dynamic sampler or
/// cardinality feedback (see [`optimize_query_feedback`] for those).
pub fn optimize_query(
    tree: &QueryTree,
    catalog: &Catalog,
    config: &CbqtConfig,
    sampling_cache: &SamplingCache,
) -> Result<CbqtOutcome> {
    optimize_query_feedback(
        tree,
        catalog,
        config,
        sampling_cache,
        None,
        None,
        Tracer::disabled(),
        &Governor::unlimited(),
    )
}

/// The pipeline of [`optimize_query`] with every hook the serving path
/// uses:
/// * `sampler` — dynamic sampling for tables without statistics
///   (§3.4.4); results are cached in `sampling_cache` across states and
///   across queries.
/// * `tracer` — every transformation examined, state costed, cut-off
///   taken and annotation hit/miss is emitted, plus the before/after
///   rendered SQL of the winning states. With `Tracer::disabled()` no
///   event is ever constructed.
/// * `governor` — cancellation and the wall-clock deadline are observed
///   between and inside state costings (hard failure); exhausting the
///   optimizer-state budget *degrades* the search instead — remaining
///   states are skipped, the best state found so far wins, and the
///   outcome is flagged [`CbqtOutcome::degraded`].
/// * `feedback` — when set, eligible base-table scans are estimated from
///   previously observed actuals instead of NDV/histogram guesses (traced
///   as `FEEDBACK APPLIED`). This is how a suspect cached plan recompiles
///   into one whose estimates match runtime reality.
#[allow(clippy::too_many_arguments)]
pub fn optimize_query_feedback(
    tree: &QueryTree,
    catalog: &Catalog,
    config: &CbqtConfig,
    sampling_cache: &SamplingCache,
    sampler: Option<&dyn DynamicSampler>,
    feedback: Option<&dyn CardFeedback>,
    tracer: Tracer<'_>,
    governor: &Governor,
) -> Result<CbqtOutcome> {
    let before_sql = if tracer.enabled() {
        render::render_tree(tree, catalog)
    } else {
        String::new()
    };
    let mut tree = tree.clone();
    let heuristics = apply_heuristics_with(&mut tree, catalog, config.heuristic_unnest_merge)?;
    tracer.emit(|| TraceEvent::Heuristics {
        summary: heuristics.summary(),
    });

    let annotations = CostAnnotations::new();
    let ctx = CostContext {
        catalog,
        config,
        annotations: &annotations,
        sampling_cache,
        sampler,
        feedback,
        governor,
    };
    let mut states_explored = 0u64;
    let mut cutoffs = 0u64;
    let mut decisions: Vec<(String, String)> = Vec::new();
    let mut opt_stats = OptimizerStats::default();

    let transforms = default_transforms();
    for t in &transforms {
        if !config.transforms.enabled(t.name()) {
            continue;
        }
        if config.cost_based {
            let session = TransformSession {
                ctx,
                states: &mut states_explored,
                cutoffs: &mut cutoffs,
                stats: &mut opt_stats,
                tracer,
            };
            let decision = session.run(&mut tree, t.as_ref())?;
            if let Some(d) = decision {
                decisions.push((t.name().to_string(), d));
            }
            // transformations can expose heuristic work (e.g. SPJ views
            // from set-op conversion) — §3.1
            apply_heuristics_with(&mut tree, catalog, config.heuristic_unnest_merge)?;
        } else {
            let applied = apply_heuristic_rule(&mut tree, catalog, t.as_ref())?;
            if applied > 0 {
                decisions.push((
                    t.name().to_string(),
                    format!("applied by heuristic rule on {applied} object(s)"),
                ));
                apply_heuristics_with(&mut tree, catalog, config.heuristic_unnest_merge)?;
            }
        }
    }

    // final physical optimization of the winning tree; this always runs
    // (even when the search degraded) so the statement gets a valid,
    // executable plan. The governor's interrupts still apply inside.
    let plan = ctx.optimize(tracer, &tree, None, &mut opt_stats)?;
    tracer.emit(|| TraceEvent::QueryRewritten {
        before: before_sql,
        after: render::render_tree(&tree, catalog),
    });
    tracer.emit(|| TraceEvent::FinalPlan {
        cost: plan.cost,
        est_rows: plan.rows,
    });
    Ok(CbqtOutcome {
        tree,
        plan,
        heuristics,
        decisions,
        states_explored,
        cutoffs,
        optimizer_stats: opt_stats,
        degraded: governor.optimizer_exhausted(),
    })
}

/// Heuristic-mode stand-in for the cost-based decisions (§4.1 compares
/// against this): unnesting always fires unless the pre-10g index rule
/// says otherwise; view merging always fires; the rest never fire
/// (group-by placement "is never applied using heuristics").
fn apply_heuristic_rule(
    tree: &mut QueryTree,
    catalog: &Catalog,
    t: &dyn CbTransform,
) -> Result<usize> {
    let mut applied = 0;
    match t.name() {
        "subquery unnesting (inline view)" => loop {
            let targets = t.find_targets(tree, catalog);
            let Some(target) = targets.into_iter().find(|tg| {
                let Target::Subquery { block, subq } = tg else {
                    return false;
                };
                crate::costbased::unnest_view::heuristic_would_unnest(tree, catalog, *block, *subq)
            }) else {
                return Ok(applied);
            };
            t.apply(tree, catalog, &target, 1)?;
            applied += 1;
        },
        "view merging / join predicate pushdown" => loop {
            // heuristic: always merge; never JPPD (the paper introduces
            // JPPD as a cost-based-only transformation)
            let targets = t.find_targets(tree, catalog);
            let Some(target) = targets.into_iter().find(|tg| {
                matches!(
                    tg,
                    Target::View {
                        can_merge: true,
                        ..
                    }
                )
            }) else {
                return Ok(applied);
            };
            t.apply(tree, catalog, &target, 1)?;
            applied += 1;
        },
        _ => Ok(applied),
    }
}

/// Everything costing a state needs besides the tree itself.
#[derive(Clone, Copy)]
struct CostContext<'a> {
    catalog: &'a Catalog,
    config: &'a CbqtConfig,
    annotations: &'a CostAnnotations,
    sampling_cache: &'a SamplingCache,
    sampler: Option<&'a dyn DynamicSampler>,
    feedback: Option<&'a dyn CardFeedback>,
    governor: &'a Governor,
}

impl CostContext<'_> {
    /// Runs the physical optimizer over `tree` (under the §3.4.1 budget,
    /// when given) and adds its counters to `stats`.
    fn optimize(
        self,
        tracer: Tracer<'_>,
        tree: &QueryTree,
        budget: Option<f64>,
        stats: &mut OptimizerStats,
    ) -> Result<BlockPlan> {
        let mut opt = Optimizer::new(self.catalog, self.annotations, self.sampling_cache);
        opt.sampler = self.sampler;
        opt.feedback = self.feedback;
        opt.config = self.config.optimizer.clone();
        opt.tracer = tracer;
        opt.governor = self.governor.clone();
        let res = opt.optimize(tree, budget);
        stats.blocks_costed += opt.stats.blocks_costed;
        stats.annotation_hits += opt.stats.annotation_hits;
        stats.enum_degraded |= opt.stats.enum_degraded;
        res
    }
}

/// A costed state's outcome: `None` when the state was pruned (cut-off
/// or budget), else its cost and the per-target interleave decisions.
type StateOutcome = Option<(f64, Vec<bool>)>;

struct TransformSession<'a> {
    ctx: CostContext<'a>,
    states: &'a mut u64,
    cutoffs: &'a mut u64,
    stats: &'a mut OptimizerStats,
    tracer: Tracer<'a>,
}

impl<'a> TransformSession<'a> {
    /// Runs one cost-based transformation over its state space on `tree`,
    /// applying the winning state in place. Returns a decision string if
    /// the transformation had targets.
    fn run(mut self, tree: &mut QueryTree, t: &dyn CbTransform) -> Result<Option<String>> {
        let mut targets = t.find_targets(tree, self.ctx.catalog);
        // the split view-merge / JPPD switches restrict the juxtaposed
        // alternatives of view targets
        if t.name() == "view merging / join predicate pushdown" {
            let set = &self.ctx.config.transforms;
            targets = targets
                .into_iter()
                .filter_map(|tg| match tg {
                    Target::View {
                        block,
                        view_ref,
                        can_merge,
                        can_jppd,
                    } => {
                        let m = can_merge && set.view_merge;
                        let j = can_jppd && set.jppd;
                        if m || j {
                            Some(Target::View {
                                block,
                                view_ref,
                                can_merge: m,
                                can_jppd: j,
                            })
                        } else {
                            None
                        }
                    }
                    other => Some(other),
                })
                .collect();
        }
        if targets.is_empty() {
            return Ok(None);
        }
        let arities: Vec<usize> = targets.iter().map(|tg| t.arity(tg)).collect();
        let strategy = self.pick_strategy(tree, t, targets.len());
        self.tracer.emit(|| TraceEvent::TransformBegin {
            transform: t.name().to_string(),
            targets: targets.len(),
            strategy: format!("{strategy:?}"),
        });
        let space = StateSpace { arities: &arities };

        let mut best_state = vec![0usize; targets.len()];
        let mut best_sub: Vec<bool> = Vec::new();
        let mut best_cost = f64::INFINITY;
        let tree_ref: &QueryTree = tree;

        match strategy {
            SearchStrategy::Exhaustive => {
                let states = space.all_states();
                let outcomes =
                    self.evaluate_batch(tree_ref, t, &targets, &states, best_cost, |_| false)?;
                for (state, out) in states.into_iter().zip(outcomes) {
                    if let Some((cost, sub)) = out {
                        if cost_lt(cost, best_cost) {
                            best_cost = cost;
                            best_state = state;
                            best_sub = sub;
                        }
                    }
                }
            }
            SearchStrategy::TwoPass => {
                let states = vec![space.zero_state(), space.one_state()];
                let outcomes =
                    self.evaluate_batch(tree_ref, t, &targets, &states, best_cost, |_| false)?;
                for (state, out) in states.into_iter().zip(outcomes) {
                    if let Some((cost, sub)) = out {
                        if cost_lt(cost, best_cost) {
                            best_cost = cost;
                            best_state = state;
                            best_sub = sub;
                        }
                    }
                }
            }
            SearchStrategy::Linear => {
                // dynamic-programming flavoured: start from all-zero and
                // greedily fix each coordinate at its best alternative
                let mut current = space.zero_state();
                let first = self.evaluate_batch(
                    tree_ref,
                    t,
                    &targets,
                    std::slice::from_ref(&current),
                    best_cost,
                    |_| false,
                )?;
                if let Some(Some((cost, sub))) = first.into_iter().next() {
                    best_cost = cost;
                    best_state = current.clone();
                    best_sub = sub;
                }
                for i in 0..targets.len() {
                    // all alternatives of one coordinate, in one scan
                    let cands: Vec<Vec<usize>> = (1..arities[i])
                        .map(|c| {
                            let mut s = current.clone();
                            s[i] = c;
                            s
                        })
                        .collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let outcomes =
                        self.evaluate_batch(tree_ref, t, &targets, &cands, best_cost, |_| false)?;
                    let mut local_best = current[i];
                    for (cand, out) in cands.into_iter().zip(outcomes) {
                        if let Some((cost, sub)) = out {
                            if cost_lt(cost, best_cost) {
                                best_cost = cost;
                                local_best = cand[i];
                                best_state = cand;
                                best_sub = sub;
                            }
                        }
                    }
                    current[i] = local_best;
                }
            }
            SearchStrategy::Iterative => {
                let mut rng = Lcg::new(0x5DEECE66D ^ targets.len() as u64);
                let mut explored = 0usize;
                for restart in 0..self.ctx.config.iterative_restarts.max(1) {
                    let mut current: Vec<usize> = if restart == 0 {
                        space.zero_state()
                    } else {
                        arities.iter().map(|&a| rng.below(a)).collect()
                    };
                    let init = self.evaluate_batch(
                        tree_ref,
                        t,
                        &targets,
                        std::slice::from_ref(&current),
                        best_cost,
                        |_| false,
                    )?;
                    let mut current_cost = match init.into_iter().next().flatten() {
                        Some((c, sub)) => {
                            if cost_lt(c, best_cost) {
                                best_cost = c;
                                best_state = current.clone();
                                best_sub = sub;
                            }
                            c
                        }
                        None => f64::INFINITY,
                    };
                    explored += 1;
                    // greedy first-improvement descent over
                    // single-coordinate moves: the neighborhood
                    // (truncated to the remaining state allowance) is
                    // scanned up to the first improving move.
                    let mut improved = true;
                    while improved && explored < self.ctx.config.iterative_max_states {
                        improved = false;
                        let mut moves: Vec<Vec<usize>> = Vec::new();
                        for i in 0..targets.len() {
                            for c in 0..arities[i] {
                                if c != current[i] {
                                    let mut cand = current.clone();
                                    cand[i] = c;
                                    moves.push(cand);
                                }
                            }
                        }
                        moves.truncate(self.ctx.config.iterative_max_states - explored);
                        if moves.is_empty() {
                            break;
                        }
                        let cc = current_cost;
                        let outcomes =
                            self.evaluate_batch(tree_ref, t, &targets, &moves, best_cost, {
                                move |out| matches!(out, Some((cost, _)) if cost_lt(*cost, cc))
                            })?;
                        explored += outcomes.len();
                        for (cand, out) in moves.into_iter().zip(outcomes) {
                            if let Some((cost, sub)) = out {
                                if cost_lt(cost, current_cost) {
                                    current = cand.clone();
                                    current_cost = cost;
                                    improved = true;
                                    if cost_lt(cost, best_cost) {
                                        best_cost = cost;
                                        best_state = cand;
                                        best_sub = sub;
                                    }
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            SearchStrategy::Auto => unreachable!("resolved in pick_strategy"),
        }

        // apply the winning state to the main tree
        if best_state.iter().any(|&c| c > 0) {
            let effects = apply_state(tree, self.ctx.catalog, t, &targets, &best_state)?;
            // interleaved merges chosen during costing
            let created: Vec<_> = effects
                .iter()
                .flat_map(|e| e.created_views.iter().copied())
                .collect();
            for (k, (parent, view_ref)) in created.iter().enumerate() {
                if best_sub.get(k).copied().unwrap_or(false) {
                    merge_view(tree, self.ctx.catalog, *parent, *view_ref)?;
                }
            }
            debug_assert!(tree.validate().is_ok(), "{:?} broke the tree", t.name());
        }
        self.tracer.emit(|| TraceEvent::TransformEnd {
            transform: t.name().to_string(),
            best_state: best_state.clone(),
            interleaved: best_sub.iter().any(|&b| b),
            cost: best_cost,
        });
        Ok(Some(format!(
            "{} target(s), strategy {:?}, best state {:?}{}, cost {:.0}",
            targets.len(),
            strategy,
            best_state,
            if best_sub.iter().any(|&b| b) {
                " + interleaved merge"
            } else {
                ""
            },
            best_cost,
        )))
    }

    fn pick_strategy(
        &self,
        tree: &QueryTree,
        _t: &dyn CbTransform,
        n_targets: usize,
    ) -> SearchStrategy {
        match self.ctx.config.search {
            SearchStrategy::Auto => {
                // total transformation objects across the whole query
                let total: usize = default_transforms()
                    .iter()
                    .map(|tt| tt.find_targets(tree, self.ctx.catalog).len())
                    .sum();
                if total > self.ctx.config.total_two_pass_threshold {
                    SearchStrategy::TwoPass
                } else if n_targets <= self.ctx.config.exhaustive_threshold {
                    SearchStrategy::Exhaustive
                } else if n_targets <= self.ctx.config.linear_threshold {
                    SearchStrategy::Linear
                } else {
                    SearchStrategy::TwoPass
                }
            }
            s => s,
        }
    }

    /// Costs one state on a copy of `tree`: apply the choices, optimize.
    /// With interleaving, every subset of "merge the created views" is
    /// also costed and the best sub-choice returned (§3.3.1).
    fn cost_state(
        &mut self,
        tree: &QueryTree,
        t: &dyn CbTransform,
        targets: &[Target],
        state: &[usize],
        budget: f64,
    ) -> Result<StateOutcome> {
        let ctx = self.ctx;
        // Statement-level optimizer budget (graceful degradation): once
        // it runs out, remaining states are skipped as if cut off — the
        // best state costed so far stands, or the all-zero state (the
        // heuristic tree) if nothing was costed yet.
        match ctx.governor.charge_state() {
            StateCharge::Charged => {}
            StateCharge::ExhaustedNow => {
                self.tracer.emit(|| TraceEvent::SearchDegraded {
                    transform: t.name().to_string(),
                    states_used: ctx.governor.states_used().saturating_sub(1),
                });
                return Ok(None);
            }
            StateCharge::Exhausted => return Ok(None),
        }
        // cancellation / deadline are hard interrupts even mid-search
        ctx.governor.check_interrupt()?;
        // The deep copy of §3.1 — skipped entirely for the all-zero state,
        // which applies no transformation (and with the copy-on-write arena
        // a taken copy shares every block until the state mutates it).
        let mut copy_slot: Option<QueryTree> = None;
        let effects = if state.iter().any(|&c| c > 0) {
            let copy = copy_slot.insert(tree.clone());
            match apply_state(copy, ctx.catalog, t, targets, state) {
                Ok(e) => e,
                Err(_) => return Ok(None), // state not applicable
            }
        } else {
            Vec::new()
        };
        let copy: &QueryTree = copy_slot.as_ref().unwrap_or(tree);
        let created: Vec<_> = effects
            .iter()
            .flat_map(|e| e.created_views.iter().copied())
            .collect();

        let mut best: StateOutcome = None;
        let budget_of =
            |best: &StateOutcome| -> f64 { best.as_ref().map(|(c, _)| *c).unwrap_or(budget) };

        // base state (no interleaved merges)
        let base_cost = self.optimize_copy(copy, budget_of(&best))?;
        trace_state_event(self.tracer, t, state, vec![false; created.len()], base_cost);
        if let Some(cost) = base_cost {
            best = Some((cost, vec![false; created.len()]));
        }

        if ctx.config.interleave && !created.is_empty() && created.len() <= 3 {
            let n = created.len();
            for mask in 1..(1u32 << n) {
                // the merged copy is materialized lazily: if the first
                // requested merge is not even applicable, no clone happens
                let mut merged_slot: Option<QueryTree> = None;
                let mut sub = vec![false; n];
                let mut ok = true;
                for (k, (parent, view_ref)) in created.iter().enumerate() {
                    if mask & (1 << k) != 0 {
                        let cur: &QueryTree = merged_slot.as_ref().unwrap_or(copy);
                        let vid = {
                            let Ok(p) = cur.select(*parent) else {
                                ok = false;
                                break;
                            };
                            match p.table(*view_ref).map(|x| &x.source) {
                                Some(QTableSource::View(v)) => *v,
                                _ => {
                                    ok = false;
                                    break;
                                }
                            }
                        };
                        if !can_merge_view(cur, ctx.catalog, *parent, *view_ref, vid) {
                            ok = false;
                            break;
                        }
                        let merged = merged_slot.get_or_insert_with(|| copy.clone());
                        if merge_view(merged, ctx.catalog, *parent, *view_ref).is_err() {
                            ok = false;
                            break;
                        }
                        sub[k] = true;
                    }
                }
                let Some(merged_copy) = merged_slot else {
                    continue;
                };
                if !ok {
                    continue;
                }
                let merged_cost = self.optimize_copy(&merged_copy, budget_of(&best))?;
                trace_state_event(self.tracer, t, state, sub.clone(), merged_cost);
                if let Some(cost) = merged_cost {
                    if best
                        .as_ref()
                        .map(|(c, _)| cost_lt(cost, *c))
                        .unwrap_or(true)
                    {
                        best = Some((cost, sub));
                    }
                }
            }
        }
        Ok(best)
    }

    /// Optimizes one candidate copy under the §3.4.1 budget; `None` when
    /// the cost cut-off fired.
    fn optimize_copy(&mut self, copy: &QueryTree, budget: f64) -> Result<Option<f64>> {
        *self.states += 1;
        let budget = (self.ctx.config.cost_cutoff && budget.is_finite()).then_some(budget);
        match self.ctx.optimize(self.tracer, copy, budget, self.stats) {
            Ok(plan) => Ok(Some(plan.cost)),
            Err(e) if is_cutoff(&e) => {
                *self.cutoffs += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Costs candidate states in order, each with the running best cost
    /// as its §3.4.1 budget, and returns their outcomes: one per state,
    /// fewer than `batch.len()` when `stop` ends the scan early.
    fn evaluate_batch(
        &mut self,
        tree: &QueryTree,
        t: &dyn CbTransform,
        targets: &[Target],
        batch: &[Vec<usize>],
        mut best_cost: f64,
        mut stop: impl FnMut(&StateOutcome) -> bool,
    ) -> Result<Vec<StateOutcome>> {
        let mut outcomes = Vec::with_capacity(batch.len());
        for state in batch {
            let out = self.cost_state(tree, t, targets, state, best_cost)?;
            if let Some((c, _)) = &out {
                if cost_lt(*c, best_cost) {
                    best_cost = *c;
                }
            }
            let done = stop(&out);
            outcomes.push(out);
            if done {
                break;
            }
        }
        Ok(outcomes)
    }
}

/// Emits one `StateCosted` event (and `CutoffTaken` when the cost
/// cut-off fired) for a just-costed `(state, merges)` combination.
fn trace_state_event(
    tracer: Tracer<'_>,
    t: &dyn CbTransform,
    state: &[usize],
    merges: Vec<bool>,
    cost: Option<f64>,
) {
    tracer.emit(|| TraceEvent::StateCosted {
        transform: t.name().to_string(),
        state: state.to_vec(),
        merges,
        cost,
    });
    if cost.is_none() {
        tracer.emit(|| TraceEvent::CutoffTaken {
            transform: t.name().to_string(),
            state: state.to_vec(),
        });
    }
}

/// Applies a state (choice per target) to a tree.
fn apply_state(
    tree: &mut QueryTree,
    catalog: &Catalog,
    t: &dyn CbTransform,
    targets: &[Target],
    state: &[usize],
) -> Result<Vec<ApplyEffect>> {
    let mut effects = Vec::new();
    for (target, &choice) in targets.iter().zip(state.iter()) {
        if choice == 0 {
            continue;
        }
        effects.push(t.apply(tree, catalog, target, choice)?);
    }
    if tree.validate().is_err() {
        return Err(Error::transform("state application produced invalid tree"));
    }
    Ok(effects)
}

/// The state space over per-target arities.
struct StateSpace<'a> {
    arities: &'a [usize],
}

impl<'a> StateSpace<'a> {
    fn zero_state(&self) -> Vec<usize> {
        vec![0; self.arities.len()]
    }

    /// "Transform everything": the first alternative of every target.
    fn one_state(&self) -> Vec<usize> {
        self.arities.iter().map(|&a| usize::from(a > 1)).collect()
    }

    /// Cartesian product of all choices.
    fn all_states(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new()];
        for &a in self.arities {
            let mut next = Vec::with_capacity(out.len() * a);
            for prefix in &out {
                for c in 0..a {
                    let mut s = prefix.clone();
                    s.push(c);
                    next.push(s);
                }
            }
            out = next;
        }
        out
    }
}

/// Tiny deterministic LCG so iterative improvement needs no external
/// randomness (reproducible experiments).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::testutil::{build, catalog};

    fn outcome(sql: &str, config: &CbqtConfig) -> CbqtOutcome {
        let cat = catalog();
        let tree = build(&cat, sql);
        let cache = SamplingCache::default();
        optimize_query(&tree, &cat, config, &cache).unwrap()
    }

    const PAPER_Q1: &str = "SELECT e1.employee_name, j.job_title \
        FROM employees e1, job_history j \
        WHERE e1.emp_id = j.emp_id AND j.start_date > 19980101 AND \
              e1.salary > (SELECT AVG(e2.salary) FROM employees e2 \
                           WHERE e2.dept_id = e1.dept_id) AND \
              e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
                             WHERE d.loc_id = l.loc_id AND l.country_id = 'US')";

    #[test]
    fn q1_exhaustive_explores_state_space() {
        let config = CbqtConfig {
            interleave: false,
            ..Default::default()
        };
        let out = outcome(PAPER_Q1, &config);
        // 2 unnesting targets → exhaustive = 4 states (plus later passes)
        assert!(out.states_explored >= 4, "{}", out.states_explored);
        assert!(out.plan.cost > 0.0);
        out.tree.validate().unwrap();
    }

    #[test]
    fn q1_two_pass_explores_two_states() {
        let config = CbqtConfig {
            search: SearchStrategy::TwoPass,
            interleave: false,
            transforms: TransformSet {
                view_merge: false,
                jppd: false,
                setop_to_join: false,
                group_by_placement: false,
                predicate_pullup: false,
                join_factorization: false,
                or_expansion: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = outcome(PAPER_Q1, &config);
        assert_eq!(out.states_explored, 2);
    }

    #[test]
    fn q1_linear_explores_n_plus_one() {
        let config = CbqtConfig {
            search: SearchStrategy::Linear,
            interleave: false,
            transforms: TransformSet {
                view_merge: false,
                jppd: false,
                setop_to_join: false,
                group_by_placement: false,
                predicate_pullup: false,
                join_factorization: false,
                or_expansion: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = outcome(PAPER_Q1, &config);
        assert_eq!(out.states_explored, 3); // N+1 with N=2
    }

    #[test]
    fn q1_iterative_bounded() {
        let config = CbqtConfig {
            search: SearchStrategy::Iterative,
            interleave: false,
            iterative_max_states: 6,
            transforms: TransformSet {
                view_merge: false,
                jppd: false,
                setop_to_join: false,
                group_by_placement: false,
                predicate_pullup: false,
                join_factorization: false,
                or_expansion: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = outcome(PAPER_Q1, &config);
        assert!(
            out.states_explored >= 2 && out.states_explored <= 12,
            "{}",
            out.states_explored
        );
    }

    #[test]
    fn heuristic_mode_applies_rules_without_costing() {
        let config = CbqtConfig {
            cost_based: false,
            ..Default::default()
        };
        let out = outcome(PAPER_Q1, &config);
        assert_eq!(out.states_explored, 0);
        out.tree.validate().unwrap();
    }

    #[test]
    fn interleaving_costs_merge_of_created_view() {
        let config = CbqtConfig {
            interleave: true,
            ..Default::default()
        };
        let out = outcome(PAPER_Q1, &config);
        // with interleaving, more states than the plain 4 are costed
        assert!(out.states_explored > 4, "{}", out.states_explored);
        out.tree.validate().unwrap();
    }

    #[test]
    fn decisions_are_logged() {
        let out = outcome(PAPER_Q1, &CbqtConfig::default());
        assert!(
            out.decisions.iter().any(|(n, _)| n.contains("unnesting")),
            "{:?}",
            out.decisions
        );
    }

    #[test]
    fn annotation_reuse_across_states() {
        // Table 1: exhaustive over Q1's two subqueries — the unchanged
        // subquery blocks are reused across states
        let config = CbqtConfig {
            interleave: false,
            ..Default::default()
        };
        let out = outcome(PAPER_Q1, &config);
        assert!(
            out.optimizer_stats.annotation_hits > 0,
            "{:?}",
            out.optimizer_stats
        );
    }

    #[test]
    fn juxtaposed_view_decision_runs() {
        let q12 = "SELECT e1.employee_name, j.job_title \
            FROM employees e1, job_history j, \
                 (SELECT DISTINCT d.dept_id FROM departments d, locations l \
                  WHERE d.loc_id = l.loc_id AND l.country_id IN ('UK', 'US')) v \
            WHERE e1.dept_id = v.dept_id AND e1.emp_id = j.emp_id AND \
                  j.start_date > 19980101";
        let out = outcome(q12, &CbqtConfig::default());
        assert!(
            out.decisions
                .iter()
                .any(|(n, _)| n.contains("view merging")),
            "{:?}",
            out.decisions
        );
        out.tree.validate().unwrap();
    }

    #[test]
    fn state_space_enumeration() {
        let space = StateSpace { arities: &[2, 3] };
        assert_eq!(space.all_states().len(), 6);
        assert_eq!(space.zero_state(), vec![0, 0]);
        assert_eq!(space.one_state(), vec![1, 1]);
    }

    #[test]
    fn zero_state_costing_makes_no_deep_clones() {
        // The all-zero state applies no transformation, so costing it
        // must not copy the tree at all — neither a tree clone nor any
        // copy-on-write block materialization.
        let cat = catalog();
        let tree = build(&cat, PAPER_Q1);
        let cache = SamplingCache::default();
        let annotations = CostAnnotations::new();
        let governor = Governor::unlimited();
        let config = CbqtConfig::default();
        let ctx = CostContext {
            catalog: &cat,
            config: &config,
            annotations: &annotations,
            sampling_cache: &cache,
            sampler: None,
            feedback: None,
            governor: &governor,
        };
        let t = crate::costbased::unnest_view::CbUnnestView;
        let targets = t.find_targets(&tree, &cat);
        assert!(!targets.is_empty());
        let zero = vec![0usize; targets.len()];
        let (mut states, mut cutoffs, mut stats) = (0, 0, OptimizerStats::default());
        let mut session = TransformSession {
            ctx,
            states: &mut states,
            cutoffs: &mut cutoffs,
            stats: &mut stats,
            tracer: Tracer::disabled(),
        };
        let before = cbqt_qgm::deep_block_clones();
        let out = session
            .cost_state(&tree, &t, &targets, &zero, f64::INFINITY)
            .unwrap();
        assert!(out.is_some());
        assert_eq!(cbqt_qgm::deep_block_clones() - before, 0);
    }

    #[test]
    fn search_wide_deep_clones_stay_below_full_copies() {
        let config = CbqtConfig::default();
        let cat = catalog();
        let tree = build(&cat, PAPER_Q1);
        let cache = SamplingCache::default();
        let blocks = tree.block_ids().len() as u64;
        let before = cbqt_qgm::deep_block_clones();
        let out = optimize_query(&tree, &cat, &config, &cache).unwrap();
        let clones = cbqt_qgm::deep_block_clones() - before;
        assert!(out.states_explored > 4);
        assert!(
            clones < out.states_explored * blocks,
            "{clones} deep clones for {} states x {blocks} blocks",
            out.states_explored
        );
    }
}
