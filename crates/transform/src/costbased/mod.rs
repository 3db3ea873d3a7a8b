//! Cost-based transformations (§2.2) and the common trait the framework
//! drives them through.
//!
//! Every transformation reports the *objects* it could apply to
//! ([`Target`]s) and an arity per target (2 for on/off; 3 when two
//! mutually exclusive alternatives are juxtaposed, §3.3.2). The framework
//! enumerates states over those targets, applies choices to deep copies
//! of the query tree, and costs each copy with the physical optimizer.
//!
//! Targets are identified by block / table-reference ids, which are
//! stable across deep copies (`QueryTree::clone`), so a target computed
//! on the original tree can be applied to any copy.

pub mod gb_placement;
pub mod join_factor;
pub mod or_expand;
pub mod pred_pullup;
pub mod setop_join;
pub mod unnest_view;
pub mod view_transform;

use crate::framework::TransformSet;
use cbqt_catalog::Catalog;
use cbqt_common::Result;
use cbqt_qgm::{BlockId, QueryTree, RefId};

/// An object a cost-based transformation may apply to.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A subquery to unnest into an inline view: `(containing block,
    /// subquery block)`.
    Subquery { block: BlockId, subq: BlockId },
    /// A group-by / distinct / set-op view eligible for merging and/or
    /// join predicate pushdown.
    View {
        block: BlockId,
        view_ref: RefId,
        can_merge: bool,
        can_jppd: bool,
    },
    /// A group-by block and the table to push aggregation into.
    GroupByPush { block: BlockId, table_ref: RefId },
    /// A UNION ALL block and a base table common to all branches.
    Factorize {
        setop: BlockId,
        table: cbqt_catalog::TableId,
    },
    /// An expensive predicate (by conjunct index) in a blocking view
    /// under a ROWNUM-limited parent.
    PullupPred {
        parent: BlockId,
        view: BlockId,
        conjunct: usize,
    },
    /// An INTERSECT / MINUS block to convert into a join.
    SetOpJoin { setop: BlockId },
    /// A disjunctive WHERE conjunct to expand into UNION ALL branches.
    OrExpand { block: BlockId, conjunct: usize },
}

/// What an application did — used by the framework for interleaving
/// (§3.3.1): views created by unnesting can immediately be offered to
/// view merging.
#[derive(Debug, Clone, Default)]
pub struct ApplyEffect {
    /// `(parent block, view refid)` of views created by this application.
    pub created_views: Vec<(BlockId, RefId)>,
}

/// A cost-based transformation.
pub trait CbTransform {
    fn name(&self) -> &'static str;

    /// Objects this transformation can apply to in the given tree.
    fn find_targets(&self, tree: &QueryTree, catalog: &Catalog) -> Vec<Target>;

    /// The switch(es) of `set` that gate this transformation: `target`
    /// restricted to the alternatives they leave on, `None` when that is
    /// none of them. Deliberately without a default — a transformation
    /// must say what turns it off.
    fn enabled(&self, set: &TransformSet, target: Target) -> Option<Target>;

    /// The alternative of `target` the pre-10g heuristic rule applies
    /// (heuristic mode, §4.1); `None` — the default — leaves it alone.
    fn heuristic_choice(
        &self,
        _tree: &QueryTree,
        _catalog: &Catalog,
        _target: &Target,
    ) -> Option<usize> {
        None
    }

    /// Number of alternatives for a target, *including* "do nothing"
    /// (choice 0). Two unless alternatives are juxtaposed.
    fn arity(&self, _target: &Target) -> usize {
        2
    }

    /// Applies alternative `choice` (≥1) of `target` to `tree`.
    fn apply(
        &self,
        tree: &mut QueryTree,
        catalog: &Catalog,
        target: &Target,
        choice: usize,
    ) -> Result<ApplyEffect>;
}

/// The paper's sequential ordering of the cost-based transformations
/// implemented here (§3.1; star transformation is out of scope).
pub fn default_transforms() -> Vec<Box<dyn CbTransform>> {
    vec![
        Box::new(unnest_view::CbUnnestView),
        Box::new(view_transform::CbViewTransform),
        Box::new(setop_join::CbSetOpToJoin),
        Box::new(gb_placement::CbGroupByPlacement),
        Box::new(pred_pullup::CbPredicatePullup),
        Box::new(join_factor::CbJoinFactorization),
        Box::new(or_expand::CbOrExpansion),
    ]
}
