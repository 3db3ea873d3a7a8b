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
//!   number of transformation objects; they differ only in which states
//!   they visit, every state goes through one `Search::try_state`;
//! * interleaving (§3.3.1): when unnesting creates a view, the merge of
//!   that view is evaluated *within* the same state, so "unnest + merge"
//!   can win even when "unnest" alone loses;
//! * cost annotations are shared across all states (§3.4.2) and the best
//!   cost so far is passed as a cut-off budget (§3.4.1).

use crate::costbased::view_transform::{can_merge_view, merge_view};
use crate::costbased::{default_transforms, CbTransform, Target};
use crate::heuristic::{apply_heuristics_with, HeuristicReport};
use cbqt_catalog::Catalog;
use cbqt_common::{
    cost_lt, Error, ExecutionMode, Governor, Result, StateCharge, TraceEvent, Tracer,
};
use cbqt_optimizer::{
    is_cutoff, BlockPlan, CardFeedback, CostAnnotations, DynamicSampler, Optimizer,
    OptimizerConfig, OptimizerStats, SamplingCache,
};
use cbqt_qgm::{render, BlockId, QTableSource, QueryTree, RefId};
use std::borrow::Cow;
use std::sync::Arc;

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
/// individual transformations off or force heuristic behaviour. What a
/// switch gates is said by the transformation it belongs to
/// (`CbTransform::enabled`), in cost-based and heuristic mode alike.
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

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct CbqtConfig {
    /// Master switch: `false` = heuristic-only mode. Cost-based
    /// transformations are then applied by fixed rules (the pre-10g
    /// behaviour the paper compares against in §4.1).
    pub cost_based: bool,
    pub search: SearchStrategy,
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
    /// Inert: the state-space search is serial and nothing in the
    /// workspace reads this field. It survives only because the frozen
    /// `benchmark/` package assigns it; the next `benchmark` PR drops
    /// both the assignments and the field.
    #[doc(hidden)]
    pub parallelism: usize,
    /// Which interpreter executes the chosen physical plan: the
    /// vectorized batch engine (default) or the row-at-a-time Volcano
    /// oracle. A caller that wants the oracle sets it here; nothing
    /// process-wide overrides it.
    pub execution_mode: ExecutionMode,
    /// Cardinality feedback & re-optimization.
    pub feedback: FeedbackConfig,
}

/// The switch of the cardinality-feedback loop: runtime actuals
/// harvested into the feedback store, suspect-marking of cached plans
/// whose estimates diverged 10× or more, and feedback-informed
/// recompilation.
#[derive(Debug, Clone)]
pub struct FeedbackConfig {
    /// Master switch. When off, nothing is harvested, estimates stay
    /// purely static, and cached plans are never marked suspect.
    pub enabled: bool,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig { enabled: true }
    }
}

impl Default for CbqtConfig {
    fn default() -> Self {
        CbqtConfig {
            cost_based: true,
            search: SearchStrategy::Auto,
            interleave: true,
            heuristic_unnest_merge: true,
            cost_cutoff: true,
            transforms: TransformSet::default(),
            optimizer: OptimizerConfig::default(),
            parallelism: 1,
            execution_mode: ExecutionMode::default(),
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
        tracer,
    };
    let mut tally = Tally::default();
    let mut decisions: Vec<(String, String)> = Vec::new();
    // the query-wide object count behind `pick_strategy`, counted at
    // most once per version of the tree
    let mut total: Option<usize> = None;

    let transforms = default_transforms();
    for t in &transforms {
        let outcome = if config.cost_based {
            let t = t.as_ref();
            search_and_apply(ctx, &mut tally, &mut tree, t, &transforms, &mut total)?
        } else {
            apply_heuristic_rule(&mut tree, catalog, &config.transforms, t.as_ref())?
        };
        let Some((decision, changed)) = outcome else {
            continue;
        };
        decisions.push((t.name().to_string(), decision));
        // a transformation can expose heuristic work (e.g. SPJ views
        // from set-op conversion) — §3.1; one that left the tree as it
        // was cannot
        if changed {
            apply_heuristics_with(&mut tree, catalog, config.heuristic_unnest_merge)?;
            total = None;
        }
    }

    // final physical optimization of the winning tree; this always runs
    // (even when the search degraded) so the statement gets a valid,
    // executable plan. The governor's interrupts still apply inside.
    let plan = Arc::unwrap_or_clone(ctx.optimize(&tree, None, &mut tally.stats)?);
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
        states_explored: tally.states,
        cutoffs: tally.cutoffs,
        optimizer_stats: tally.stats,
        degraded: governor.optimizer_exhausted(),
    })
}

/// The objects of `t` in `tree`, each restricted to the alternatives the
/// switches leave on. The cost-based search, the query-wide total behind
/// [`pick_strategy`] and heuristic mode all get their targets here, so a
/// switch means the same thing to each of them.
fn enabled_targets(
    t: &dyn CbTransform,
    tree: &QueryTree,
    catalog: &Catalog,
    set: &TransformSet,
) -> Vec<Target> {
    let targets = t.find_targets(tree, catalog).into_iter();
    targets.filter_map(|tg| t.enabled(set, tg)).collect()
}

/// Heuristic-mode stand-in for the cost-based decisions (§4.1 compares
/// against this): every object gets the alternative its transformation's
/// pre-10g rule picks, if it has one. Returns the decision string and
/// "the tree changed" if any object was transformed.
fn apply_heuristic_rule(
    tree: &mut QueryTree,
    catalog: &Catalog,
    set: &TransformSet,
    t: &dyn CbTransform,
) -> Result<Option<(String, bool)>> {
    let mut applied = 0;
    // one application can invalidate the other targets: find them anew
    loop {
        let mut targets = enabled_targets(t, tree, catalog, set).into_iter();
        let pick = |tg| Some((t.heuristic_choice(tree, catalog, &tg)?, tg));
        let Some((choice, target)) = targets.find_map(pick) else {
            let decision = || format!("applied by heuristic rule on {applied} object(s)");
            return Ok((applied > 0).then(|| (decision(), true)));
        };
        t.apply(tree, catalog, &target, choice)?;
        applied += 1;
    }
}

/// Runs one cost-based transformation over its state space on `tree` and
/// applies the winning state in place. Returns the decision string and
/// whether the tree changed, if the transformation had targets.
fn search_and_apply(
    ctx: CostContext<'_>,
    tally: &mut Tally,
    tree: &mut QueryTree,
    t: &dyn CbTransform,
    transforms: &[Box<dyn CbTransform>],
    total: &mut Option<usize>,
) -> Result<Option<(String, bool)>> {
    let set = &ctx.config.transforms;
    let targets = enabled_targets(t, tree, ctx.catalog, set);
    if targets.is_empty() {
        return Ok(None);
    }
    // total transformation objects across the whole query: the caller
    // keeps the count until a search changes the tree
    let total = || {
        *total.get_or_insert_with(|| {
            let all = transforms.iter();
            all.map(|tt| enabled_targets(tt.as_ref(), tree, ctx.catalog, set).len())
                .sum()
        })
    };
    let strategy = pick_strategy(ctx.config, targets.len(), total);
    ctx.tracer.emit(|| TraceEvent::TransformBegin {
        transform: t.name().to_string(),
        targets: targets.len(),
        strategy: format!("{strategy:?}"),
    });
    let mut search = Search::new(ctx, t, tree, &targets, tally);
    search.visit(strategy)?;
    let best = search.best;

    // apply the winning state to the main tree
    let changed = best.state.iter().any(|&c| c > 0);
    if changed {
        let created = apply_state(tree, ctx.catalog, t, &targets, &best.state)?;
        // interleaved merges chosen during costing
        for (k, (parent, view_ref)) in created.iter().enumerate() {
            if best.merges.get(k) == Some(&true) {
                merge_view(tree, ctx.catalog, *parent, *view_ref)?;
            }
        }
        debug_assert!(tree.validate().is_ok(), "{:?} broke the tree", t.name());
    }
    let interleaved = best.merges.iter().any(|&b| b);
    ctx.tracer.emit(|| TraceEvent::TransformEnd {
        transform: t.name().to_string(),
        best_state: best.state.clone(),
        interleaved,
        cost: best.cost,
    });
    let decision = format!(
        "{} target(s), strategy {:?}, best state {:?}{}, cost {:.0}",
        targets.len(),
        strategy,
        best.state,
        if interleaved {
            " + interleaved merge"
        } else {
            ""
        },
        best.cost,
    );
    Ok(Some((decision, changed)))
}

/// `Auto` searches a transformation with up to this many targets
/// exhaustively, and with up to [`LINEAR_THRESHOLD`] linearly; beyond
/// that, or when the query holds more than [`TOTAL_TWO_PASS_THRESHOLD`]
/// targets of every enabled transformation in all, two-pass.
const EXHAUSTIVE_THRESHOLD: usize = 5;
const LINEAR_THRESHOLD: usize = 12;
const TOTAL_TWO_PASS_THRESHOLD: usize = 16;

/// Resolves `Auto` from the object counts (§3.2): `n_targets` of this
/// transformation, `total` of every enabled transformation in the query.
fn pick_strategy(
    config: &CbqtConfig,
    n_targets: usize,
    total: impl FnOnce() -> usize,
) -> SearchStrategy {
    if config.search != SearchStrategy::Auto {
        return config.search;
    }
    if total() > TOTAL_TWO_PASS_THRESHOLD {
        SearchStrategy::TwoPass
    } else if n_targets <= EXHAUSTIVE_THRESHOLD {
        SearchStrategy::Exhaustive
    } else if n_targets <= LINEAR_THRESHOLD {
        SearchStrategy::Linear
    } else {
        SearchStrategy::TwoPass
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
    tracer: Tracer<'a>,
}

impl CostContext<'_> {
    /// Runs the physical optimizer over `tree` (under the §3.4.1 budget,
    /// when given) and adds its counters to `stats`.
    fn optimize(
        self,
        tree: &QueryTree,
        budget: Option<f64>,
        stats: &mut OptimizerStats,
    ) -> Result<Arc<BlockPlan>> {
        let mut opt = Optimizer::new(self.catalog, self.annotations, self.sampling_cache);
        opt.sampler = self.sampler;
        opt.feedback = self.feedback;
        opt.config = self.config.optimizer.clone();
        opt.tracer = self.tracer;
        opt.governor = self.governor.clone();
        let res = opt.optimize_shared(tree, budget);
        stats.blocks_costed += opt.stats.blocks_costed;
        stats.annotation_hits += opt.stats.annotation_hits;
        stats.enum_degraded |= opt.stats.enum_degraded;
        res
    }
}

/// What the searches of one statement add up to.
#[derive(Default)]
struct Tally {
    /// States costed (one per optimizer call, interleave subsets too).
    states: u64,
    /// §3.4.1 cost cut-offs taken.
    cutoffs: u64,
    stats: OptimizerStats,
}

/// The best state a search has costed so far.
struct Best {
    cost: f64,
    state: Vec<usize>,
    /// Its §3.3.1 interleave choices, one flag per view it creates.
    merges: Vec<bool>,
}

/// The state-space search of one transformation over its `targets` in
/// `tree` (§3.2). A state is a choice per target; every state is costed
/// the same way, by [`Search::try_state`], and the strategies differ only
/// in which states [`Search::visit`] hands it.
struct Search<'a> {
    ctx: CostContext<'a>,
    t: &'a dyn CbTransform,
    tree: &'a QueryTree,
    targets: &'a [Target],
    tally: &'a mut Tally,
    best: Best,
}

/// Iterative improvement: number of restarts, and the states it
/// explores over all of them.
const ITERATIVE_RESTARTS: usize = 3;
const ITERATIVE_MAX_STATES: usize = 24;

impl<'a> Search<'a> {
    /// A search that has costed nothing yet: the all-zero state (the
    /// tree as it is) stands until a costed state beats it.
    fn new(
        ctx: CostContext<'a>,
        t: &'a dyn CbTransform,
        tree: &'a QueryTree,
        targets: &'a [Target],
        tally: &'a mut Tally,
    ) -> Search<'a> {
        let best = Best {
            cost: f64::INFINITY,
            state: vec![0; targets.len()],
            merges: Vec::new(),
        };
        Search {
            ctx,
            t,
            tree,
            targets,
            tally,
            best,
        }
    }

    /// Visits the states of `strategy` in its order.
    fn visit(&mut self, strategy: SearchStrategy) -> Result<()> {
        let arities: Vec<usize> = self.targets.iter().map(|tg| self.t.arity(tg)).collect();
        let space = StateSpace { arities: &arities };
        match strategy {
            SearchStrategy::Exhaustive => {
                for state in space.all_states() {
                    self.try_state(&state)?;
                }
            }
            SearchStrategy::TwoPass => {
                for state in [space.zero_state(), space.one_state()] {
                    self.try_state(&state)?;
                }
            }
            SearchStrategy::Linear => {
                // dynamic-programming flavoured: start from all-zero and
                // fix each coordinate in turn at its best alternative
                let mut current = space.zero_state();
                self.try_state(&current)?;
                for (i, &arity) in arities.iter().enumerate() {
                    for c in 1..arity {
                        current[i] = c;
                        self.try_state(&current)?;
                    }
                    current[i] = self.best.state[i];
                }
            }
            SearchStrategy::Iterative => {
                let mut rng = Lcg::new(0x5DEECE66D ^ arities.len() as u64);
                let mut explored = 0usize;
                for restart in 0..ITERATIVE_RESTARTS {
                    let start: Vec<usize> = if restart == 0 {
                        space.zero_state()
                    } else {
                        arities.iter().map(|&a| rng.below(a)).collect()
                    };
                    let mut current_cost = self.try_state(&start)?.unwrap_or(f64::INFINITY);
                    explored += 1;
                    // greedy first-improvement descent over
                    // single-coordinate moves: the neighborhood is
                    // scanned up to the first improving move, within
                    // the remaining state allowance
                    let mut moves = space.moves(&start);
                    while explored < ITERATIVE_MAX_STATES {
                        let Some(cand) = moves.next() else {
                            break; // a local minimum
                        };
                        explored += 1;
                        match self.try_state(&cand)? {
                            Some(cost) if cost_lt(cost, current_cost) => {
                                current_cost = cost;
                                moves = space.moves(&cand);
                            }
                            _ => {}
                        }
                    }
                }
            }
            SearchStrategy::Auto => unreachable!("resolved in pick_strategy"),
        }
        Ok(())
    }

    /// Costs one state and returns its cost, `None` when it was pruned
    /// (cut-off, statement budget, or not applicable). This is the one
    /// place a state is admitted, costed and compared: it charges the
    /// governor, applies the choices to a copy of the tree, optimizes
    /// the copy — with interleaving, every subset of "merge the created
    /// views" as well (§3.3.1) — under the best cost so far as the
    /// §3.4.1 budget, and keeps the state if it beats that best.
    fn try_state(&mut self, state: &[usize]) -> Result<Option<f64>> {
        let ctx = self.ctx;
        let name = self.t.name();
        // Statement-level optimizer budget (graceful degradation): once
        // it runs out, remaining states are skipped as if cut off — the
        // best state costed so far stands, or the all-zero state (the
        // heuristic tree) if nothing was costed yet.
        match ctx.governor.charge_state() {
            StateCharge::Charged => {}
            StateCharge::ExhaustedNow => {
                ctx.tracer.emit(|| TraceEvent::SearchDegraded {
                    transform: name.to_string(),
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
        let mut copy = Cow::Borrowed(self.tree);
        let created = if state.iter().any(|&c| c > 0) {
            match apply_state(copy.to_mut(), ctx.catalog, self.t, self.targets, state) {
                Ok(created) => created,
                Err(_) => return Ok(None), // state not applicable
            }
        } else {
            Vec::new()
        };

        // mask 0 is the base state (no interleaved merges)
        let n = created.len();
        let masks = if ctx.config.interleave && n <= 3 {
            1u32 << n
        } else {
            1
        };
        let mut state_cost: Option<f64> = None;
        for mask in 0..masks {
            let Some(candidate) = merge_subset(&copy, ctx.catalog, &created, mask) else {
                continue;
            };
            let merges: Vec<bool> = (0..n).map(|k| mask & (1 << k) != 0).collect();
            let cost = self.cost_copy(&candidate)?;
            ctx.tracer.emit(|| TraceEvent::StateCosted {
                transform: name.to_string(),
                state: state.to_vec(),
                merges: merges.clone(),
                cost,
            });
            let Some(cost) = cost else {
                ctx.tracer.emit(|| TraceEvent::CutoffTaken {
                    transform: name.to_string(),
                    state: state.to_vec(),
                });
                continue;
            };
            if state_cost.is_none_or(|c| cost_lt(cost, c)) {
                state_cost = Some(cost);
            }
            if cost_lt(cost, self.best.cost) {
                let state = state.to_vec();
                self.best = Best {
                    cost,
                    state,
                    merges,
                };
            }
        }
        Ok(state_cost)
    }

    /// Optimizes one candidate copy with the best cost so far as its
    /// §3.4.1 budget; `None` when the cost cut-off fired.
    fn cost_copy(&mut self, copy: &QueryTree) -> Result<Option<f64>> {
        self.tally.states += 1;
        let budget = self.best.cost;
        let budget = (self.ctx.config.cost_cutoff && budget.is_finite()).then_some(budget);
        match self.ctx.optimize(copy, budget, &mut self.tally.stats) {
            Ok(plan) => Ok(Some(plan.cost)),
            Err(e) if is_cutoff(&e) => {
                self.tally.cutoffs += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// `copy` with the created views that `mask` selects merged into their
/// parents (§3.3.1), or `None` when one of them cannot merge. The merged
/// tree is materialized lazily: if the first requested merge is not even
/// applicable, no clone happens.
fn merge_subset<'t>(
    copy: &'t QueryTree,
    catalog: &Catalog,
    created: &[(BlockId, RefId)],
    mask: u32,
) -> Option<Cow<'t, QueryTree>> {
    let mut merged = Cow::Borrowed(copy);
    for (k, (parent, view_ref)) in created.iter().enumerate() {
        if mask & (1 << k) == 0 {
            continue;
        }
        let QTableSource::View(vid) = merged.select(*parent).ok()?.table(*view_ref)?.source else {
            return None;
        };
        if !can_merge_view(&merged, *parent, *view_ref, vid) {
            return None;
        }
        merge_view(merged.to_mut(), catalog, *parent, *view_ref).ok()?;
    }
    Some(merged)
}

/// Applies a state (choice per target) to a tree and returns the
/// `(parent block, view refid)` of every view that created — what
/// interleaving (§3.3.1) can offer to view merging.
fn apply_state(
    tree: &mut QueryTree,
    catalog: &Catalog,
    t: &dyn CbTransform,
    targets: &[Target],
    state: &[usize],
) -> Result<Vec<(BlockId, RefId)>> {
    let mut created = Vec::new();
    for (target, &choice) in targets.iter().zip(state.iter()) {
        if choice == 0 {
            continue;
        }
        created.extend(t.apply(tree, catalog, target, choice)?.created_views);
    }
    if tree.validate().is_err() {
        return Err(Error::transform("state application produced invalid tree"));
    }
    Ok(created)
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

    /// The states one coordinate away from `from`, by coordinate and
    /// then by choice.
    fn moves(&self, from: &[usize]) -> std::vec::IntoIter<Vec<usize>> {
        let mut out = Vec::new();
        for (i, &a) in self.arities.iter().enumerate() {
            for c in (0..a).filter(|&c| c != from[i]) {
                let mut cand = from.to_vec();
                cand[i] = c;
                out.push(cand);
            }
        }
        out.into_iter()
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
        // each restart costs its start before the allowance is checked
        assert!(
            out.states_explored >= 2
                && out.states_explored <= (ITERATIVE_MAX_STATES + ITERATIVE_RESTARTS) as u64,
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
        let moves: Vec<_> = space.moves(&[1, 0]).collect();
        assert_eq!(moves, [vec![0, 0], vec![1, 1], vec![1, 2]]);
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
            tracer: Tracer::disabled(),
        };
        let t = crate::costbased::unnest_view::CbUnnestView;
        let targets = t.find_targets(&tree, &cat);
        assert!(!targets.is_empty());
        let zero = vec![0usize; targets.len()];
        let mut tally = Tally::default();
        let mut search = Search::new(ctx, &t, &tree, &targets, &mut tally);
        let before = cbqt_qgm::deep_block_clones();
        let out = search.try_state(&zero).unwrap();
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
