//! Physical plan structures produced by the optimizer and interpreted by
//! the execution engine.

use cbqt_catalog::{IndexId, TableId};
use cbqt_qgm::{BlockId, QExpr, QOrder, RefId, SetOp};
use std::sync::Arc;

/// Cost-model constants. The execution engine counts *work units* with
/// the same weights, so estimated cost and measured work are in the same
/// currency; estimation error then comes from cardinality estimation —
/// exactly the error source the paper attributes degradations to (§4.2).
pub mod weights {
    /// Touching one row in a scan or join output.
    pub const ROW: f64 = 1.0;
    /// Evaluating one predicate conjunct on one row.
    pub const PRED: f64 = 0.2;
    /// Descending a B-tree index once.
    pub const INDEX_PROBE: f64 = 8.0;
    /// Fetching one row through an index entry.
    pub const INDEX_FETCH: f64 = 1.5;
    /// Inserting one row into a hash table.
    pub const HASH_BUILD: f64 = 1.5;
    /// Probing a hash table once.
    pub const HASH_PROBE: f64 = 1.2;
    /// Per-row sort weight; total sort cost is `SORT * n * log2(n)`.
    pub const SORT: f64 = 2.0;
    /// Per-row aggregation weight.
    pub const AGG: f64 = 2.0;
    /// Per-row projection/distinct hashing weight.
    pub const DEDUP: f64 = 1.2;
    /// Default per-call cost of the EXPENSIVE() stand-in UDF when the
    /// call site does not pass an explicit unit count.
    pub const EXPENSIVE_DEFAULT: f64 = 50.0;
}

/// How a base-table scan locates its rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    FullScan,
    /// Equality probe on an index; `key` expressions are evaluated
    /// against bindings available at probe time (literals, correlated
    /// outer columns, or left-side join columns).
    IndexEq {
        index: IndexId,
        key: Vec<QExpr>,
    },
    /// Single-column range scan on the index's leading column.
    IndexRange {
        index: IndexId,
        lo: Option<(QExpr, bool)>,
        hi: Option<(QExpr, bool)>,
    },
}

impl AccessPath {
    pub fn describe(&self) -> String {
        match self {
            AccessPath::FullScan => "FULL SCAN".to_string(),
            AccessPath::IndexEq { index, .. } => format!("INDEX EQ (ix{})", index.0),
            AccessPath::IndexRange { index, .. } => format!("INDEX RANGE (ix{})", index.0),
        }
    }
}

/// Physical join methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    /// Materialized block nested loop; the right side may be an indexed
    /// probe or a correlated (lateral) re-execution.
    NestedLoop,
    /// Build the right side into a hash table, probe with the left.
    Hash,
    /// Sort both sides on the equi-key and merge.
    Merge,
}

/// Join semantics at a join node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanJoinKind {
    Inner,
    /// Left rows with at least one match (stop-at-first-match).
    Semi,
    /// Left rows with no match; `null_aware` selects NOT IN semantics.
    Anti {
        null_aware: bool,
    },
    LeftOuter,
}

/// A node of the join tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Produces exactly one zero-width row (FROM-less SELECT).
    OneRow,
    ScanBase {
        table: TableId,
        refid: RefId,
        /// Output width including the virtual ROWID column.
        width: usize,
        access: AccessPath,
        /// Residual filter conjuncts evaluated per fetched row.
        filter: Vec<QExpr>,
        /// Estimated output rows (for EXPLAIN).
        rows: f64,
    },
    ScanView {
        block: BlockId,
        refid: RefId,
        width: usize,
        /// The view block's plan, shared with the annotation store and
        /// with every other plan that reuses it (§3.4.2).
        plan: Arc<BlockPlan>,
        /// True when the view references columns bound outside it
        /// (correlated / JPPD lateral view): it is re-executed per outer
        /// row with result caching on the correlation values.
        correlated: bool,
        filter: Vec<QExpr>,
        /// Estimated output rows (for EXPLAIN).
        rows: f64,
    },
    Join {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: PlanJoinKind,
        method: JoinMethod,
        /// Equi-join pairs `(left_expr, right_expr)`.
        equi: Vec<(QExpr, QExpr)>,
        /// Other join conjuncts evaluated on the concatenated row.
        residual: Vec<QExpr>,
        /// Right side is re-evaluated per left row (index NL probe or
        /// lateral view).
        lateral: bool,
        /// Estimated output rows (for EXPLAIN).
        rows: f64,
    },
}

impl PlanNode {
    pub fn width(&self) -> usize {
        match self {
            PlanNode::OneRow => 0,
            PlanNode::ScanBase { width, .. } | PlanNode::ScanView { width, .. } => *width,
            PlanNode::Join {
                left, right, kind, ..
            } => match kind {
                PlanJoinKind::Semi | PlanJoinKind::Anti { .. } => left.width(),
                _ => left.width() + right.width(),
            },
        }
    }

    /// Leaf refids in join order (left-deep: the order tables appear in
    /// the output row).
    pub fn leaf_refs(&self, out: &mut Vec<(RefId, usize)>) {
        match self {
            PlanNode::OneRow => {}
            PlanNode::ScanBase { refid, width, .. } | PlanNode::ScanView { refid, width, .. } => {
                out.push((*refid, *width));
            }
            PlanNode::Join {
                left, right, kind, ..
            } => {
                left.leaf_refs(out);
                if !matches!(kind, PlanJoinKind::Semi | PlanJoinKind::Anti { .. }) {
                    right.leaf_refs(out);
                }
            }
        }
    }
}

/// Maps table references to their slice of the concatenated executor row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layout {
    /// `(refid, offset, width)`.
    pub slots: Vec<(RefId, usize, usize)>,
    pub width: usize,
}

impl Layout {
    pub fn from_node(node: &PlanNode) -> Layout {
        let mut leaves = Vec::new();
        node.leaf_refs(&mut leaves);
        let mut slots = Vec::new();
        let mut off = 0;
        for (r, w) in leaves {
            slots.push((r, off, w));
            off += w;
        }
        Layout { slots, width: off }
    }

    pub fn offset_of(&self, refid: RefId) -> Option<(usize, usize)> {
        self.slots
            .iter()
            .find(|(r, _, _)| *r == refid)
            .map(|(_, o, w)| (*o, *w))
    }
}

/// Plan for a SELECT block: join tree plus the post-join pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    pub join: PlanNode,
    pub layout: Layout,
    /// Conjuncts evaluated on the joined row (subquery filters — the
    /// tuple-iteration-semantics operator — and predicates on outer-join
    /// results).
    pub post_filter: Vec<QExpr>,
    /// Canonical list of aggregate expressions computed by this block;
    /// the executor appends their values after the wide row.
    pub aggs: Vec<QExpr>,
    pub group_by: Vec<QExpr>,
    pub grouping_sets: Option<Vec<Vec<usize>>>,
    pub having: Vec<QExpr>,
    /// Canonical list of window expressions, appended after aggregates.
    pub windows: Vec<QExpr>,
    pub select: Vec<QExpr>,
    pub distinct: bool,
    pub distinct_keys: Option<Vec<QExpr>>,
    pub order_by: Vec<QOrder>,
    pub rownum_limit: Option<u64>,
    /// Plans for non-unnested subqueries referenced by this block's
    /// expressions, shared like [`PlanNode::ScanView`]'s.
    pub subplans: Vec<(BlockId, Arc<BlockPlan>)>,
}

/// Plan for a set-operation block.
#[derive(Debug, Clone, PartialEq)]
pub struct SetOpPlan {
    pub op: SetOp,
    pub inputs: Vec<Arc<BlockPlan>>,
}

/// A fully-costed plan for one query block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    pub block: BlockId,
    pub root: PlanRoot,
    /// Estimated cost of one execution of this block.
    pub cost: f64,
    /// Estimated output cardinality.
    pub rows: f64,
    /// Estimated number of distinct values per output column.
    pub out_ndv: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum PlanRoot {
    Select(Box<SelectPlan>),
    SetOp(SetOpPlan),
}

/// A plan element handed to a plan walk or an EXPLAIN annotator: either
/// one block root or one node of a join tree, always together with its
/// [`PlanNodeId`] — the element's *position*. Side tables (runtime
/// metrics) key elements by that id, so one shared sub-plan reached at
/// two positions is two elements.
#[derive(Clone, Copy)]
pub enum PlanEntity<'a> {
    Block(&'a BlockPlan),
    Node(&'a PlanNode),
}

impl PlanEntity<'_> {
    /// Estimated output rows of this element (what EXPLAIN prints).
    pub fn est_rows(&self) -> f64 {
        match self {
            PlanEntity::Block(b) => b.rows,
            PlanEntity::Node(n) => match n {
                PlanNode::OneRow => 1.0,
                PlanNode::ScanBase { rows, .. }
                | PlanNode::ScanView { rows, .. }
                | PlanNode::Join { rows, .. } => *rows,
            },
        }
    }
}

/// Identity of one plan element within its plan: its *position*, the
/// ordinal of the element in the canonical walk (the order EXPLAIN
/// prints). The walk hands ids out, so the id survives cloning the plan,
/// and a sub-plan shared by `Arc` at two positions is two elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanNodeId(pub u32);

impl PlanNodeId {
    /// The id of this element's first child in the walk.
    pub fn first_child(self) -> PlanNodeId {
        PlanNodeId(self.0 + 1)
    }
}

impl std::fmt::Display for PlanNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The shape of one plan as positions: every element's subtree size, so
/// a walker that knows an element's id knows its children's, plus a
/// structural fingerprint of the whole plan. Metrics recorded against
/// one plan carry the fingerprint, so applying them to a structurally
/// different plan is detectable instead of silently attributing
/// counters to the wrong operator.
#[derive(Debug, Clone)]
pub struct PlanIndex {
    /// The element at id `i` and everything below it are ids
    /// `i .. i + sizes[i]`.
    sizes: Vec<u32>,
    fingerprint: u64,
}

impl PlanIndex {
    /// Walks `plan` in canonical (EXPLAIN) order.
    pub fn build(plan: &BlockPlan) -> PlanIndex {
        // The fingerprint is the plan's identity for its metrics, and no
        // full-plan compare follows a match, so it keeps std's SipHash
        // (fixed keys) rather than the maps' cheaper `KeyHasher`.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut sizes = Vec::new();
        let mut hasher = DefaultHasher::new();
        plan.walk(&mut sizes, &mut |id, e| {
            id.0.hash(&mut hasher);
            match e {
                PlanEntity::Block(b) => {
                    0u8.hash(&mut hasher);
                    b.block.0.hash(&mut hasher);
                }
                PlanEntity::Node(n) => match n {
                    PlanNode::OneRow => 1u8.hash(&mut hasher),
                    PlanNode::ScanBase {
                        table,
                        refid,
                        access,
                        filter,
                        ..
                    } => {
                        2u8.hash(&mut hasher);
                        table.0.hash(&mut hasher);
                        refid.0.hash(&mut hasher);
                        filter.len().hash(&mut hasher);
                        match access {
                            AccessPath::FullScan => 0u8.hash(&mut hasher),
                            AccessPath::IndexEq { index, .. } => {
                                1u8.hash(&mut hasher);
                                index.0.hash(&mut hasher);
                            }
                            AccessPath::IndexRange { index, .. } => {
                                2u8.hash(&mut hasher);
                                index.0.hash(&mut hasher);
                            }
                        }
                    }
                    PlanNode::ScanView { block, refid, .. } => {
                        3u8.hash(&mut hasher);
                        block.0.hash(&mut hasher);
                        refid.0.hash(&mut hasher);
                    }
                    PlanNode::Join {
                        kind,
                        method,
                        lateral,
                        ..
                    } => {
                        4u8.hash(&mut hasher);
                        join_kind_tag(*kind).hash(&mut hasher);
                        join_method_tag(*method).hash(&mut hasher);
                        lateral.hash(&mut hasher);
                    }
                },
            }
        });
        PlanIndex {
            sizes,
            fingerprint: hasher.finish(),
        }
    }

    /// The id the walk reaches right after `id`'s subtree: its next
    /// sibling's, or whatever follows its parent's last child.
    pub fn after(&self, id: PlanNodeId) -> PlanNodeId {
        PlanNodeId(id.0 + self.sizes[id.0 as usize])
    }

    /// Structural fingerprint of the indexed plan. Two indexes over
    /// clones of the same plan share it; structurally different plans
    /// (with overwhelming probability) do not.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }
}

fn join_kind_tag(k: PlanJoinKind) -> u8 {
    match k {
        PlanJoinKind::Inner => 0,
        PlanJoinKind::Semi => 1,
        PlanJoinKind::Anti { null_aware: false } => 2,
        PlanJoinKind::Anti { null_aware: true } => 3,
        PlanJoinKind::LeftOuter => 4,
    }
}

fn join_method_tag(m: JoinMethod) -> u8 {
    match m {
        JoinMethod::NestedLoop => 0,
        JoinMethod::Hash => 1,
        JoinMethod::Merge => 2,
    }
}

/// Callback appending per-element detail (e.g. actual row counts) to
/// EXPLAIN lines; return `None` for no annotation.
pub type Annotator<'a> = dyn FnMut(PlanNodeId, PlanEntity<'_>) -> Option<String> + 'a;

/// Hands out the next id of a walk.
fn take(next: &mut u32) -> PlanNodeId {
    *next += 1;
    PlanNodeId(*next - 1)
}

impl BlockPlan {
    pub fn as_select(&self) -> Option<&SelectPlan> {
        match &self.root {
            PlanRoot::Select(s) => Some(s),
            PlanRoot::SetOp(_) => None,
        }
    }

    /// Indented EXPLAIN text.
    pub fn explain(&self) -> String {
        self.explain_annotated(&mut |_, _| None)
    }

    /// Visits every plan element (block roots and join-tree nodes) in
    /// canonical order — the exact order EXPLAIN prints them — with its
    /// [`PlanNodeId`], the element's ordinal in that order.
    pub fn visit_entities<'a>(&'a self, f: &mut impl FnMut(PlanNodeId, PlanEntity<'a>)) {
        self.walk(&mut Vec::new(), f);
    }

    /// [`BlockPlan::visit_entities`], leaving each element's subtree size
    /// at its id in `sizes`; ids are positions in `sizes`.
    fn walk<'a>(&'a self, sizes: &mut Vec<u32>, f: &mut impl FnMut(PlanNodeId, PlanEntity<'a>)) {
        let at = sizes.len();
        sizes.push(0);
        f(PlanNodeId(at as u32), PlanEntity::Block(self));
        match &self.root {
            PlanRoot::Select(sp) => {
                walk_node(&sp.join, sizes, f);
                for (_, p) in &sp.subplans {
                    p.walk(sizes, f);
                }
            }
            PlanRoot::SetOp(sp) => {
                for i in &sp.inputs {
                    i.walk(sizes, f);
                }
            }
        }
        sizes[at] = (sizes.len() - at) as u32;
    }

    /// Indented EXPLAIN text with a per-element annotation appended to
    /// each line — the single formatter behind both plain `EXPLAIN` and
    /// `EXPLAIN ANALYZE`.
    pub fn explain_annotated(&self, annotate: &mut Annotator<'_>) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0, &mut 0, annotate);
        s
    }

    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        next: &mut u32,
        annotate: &mut Annotator<'_>,
    ) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let note = note_for(annotate(take(next), PlanEntity::Block(self)));
        match &self.root {
            PlanRoot::Select(sp) => {
                writeln!(
                    out,
                    "{pad}SELECT {} (cost={:.0} rows={:.0}{}{}{}){note}",
                    self.block,
                    self.cost,
                    self.rows,
                    if sp.group_by.is_empty() && sp.aggs.is_empty() {
                        ""
                    } else {
                        " agg"
                    },
                    if sp.distinct || sp.distinct_keys.is_some() {
                        " distinct"
                    } else {
                        ""
                    },
                    match sp.rownum_limit {
                        Some(_) => " limit",
                        None => "",
                    },
                )
                .unwrap();
                explain_node(&sp.join, out, depth + 1, next, annotate);
                for (b, p) in &sp.subplans {
                    writeln!(out, "{pad}  SUBQUERY {b}:").unwrap();
                    p.explain_into(out, depth + 2, next, annotate);
                }
            }
            PlanRoot::SetOp(sp) => {
                writeln!(
                    out,
                    "{pad}{:?} (cost={:.0} rows={:.0}){note}",
                    sp.op, self.cost, self.rows
                )
                .unwrap();
                for i in &sp.inputs {
                    i.explain_into(out, depth + 1, next, annotate);
                }
            }
        }
    }

    /// Estimated deep size of this plan in bytes (stems plus heap
    /// allocations), the currency the plan cache's memory bound is
    /// expressed in. An estimate, not an exact measurement: shared
    /// `Arc<str>` literals are counted once per reference.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut n = size_of::<BlockPlan>() + self.out_ndv.capacity() * size_of::<f64>();
        match &self.root {
            PlanRoot::Select(sp) => {
                n += size_of::<SelectPlan>();
                n += node_bytes(&sp.join);
                n += sp.layout.slots.capacity() * size_of::<(RefId, usize, usize)>();
                for e in sp
                    .post_filter
                    .iter()
                    .chain(&sp.aggs)
                    .chain(&sp.group_by)
                    .chain(&sp.having)
                    .chain(&sp.windows)
                    .chain(&sp.select)
                    .chain(sp.distinct_keys.iter().flatten())
                {
                    n += qexpr_bytes(e);
                }
                if let Some(sets) = &sp.grouping_sets {
                    n += sets
                        .iter()
                        .map(|s| s.capacity() * size_of::<usize>())
                        .sum::<usize>();
                }
                for o in &sp.order_by {
                    n += size_of::<QOrder>() + qexpr_bytes(&o.expr);
                }
                for (_, p) in &sp.subplans {
                    n += p.estimated_bytes();
                }
            }
            PlanRoot::SetOp(sp) => {
                n += sp.inputs.iter().map(|p| p.estimated_bytes()).sum::<usize>();
            }
        }
        n
    }
}

fn node_bytes(node: &PlanNode) -> usize {
    use std::mem::size_of;
    let stem = size_of::<PlanNode>();
    stem + match node {
        PlanNode::OneRow => 0,
        PlanNode::ScanBase { access, filter, .. } => {
            access_bytes(access) + filter.iter().map(qexpr_bytes).sum::<usize>()
        }
        PlanNode::ScanView { plan, filter, .. } => {
            plan.estimated_bytes() + filter.iter().map(qexpr_bytes).sum::<usize>()
        }
        PlanNode::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            node_bytes(left)
                + node_bytes(right)
                + equi
                    .iter()
                    .map(|(l, r)| qexpr_bytes(l) + qexpr_bytes(r))
                    .sum::<usize>()
                + residual.iter().map(qexpr_bytes).sum::<usize>()
        }
    }
}

fn access_bytes(access: &AccessPath) -> usize {
    match access {
        AccessPath::FullScan => 0,
        AccessPath::IndexEq { key, .. } => key.iter().map(qexpr_bytes).sum(),
        AccessPath::IndexRange { lo, hi, .. } => lo
            .iter()
            .chain(hi.iter())
            .map(|(e, _)| qexpr_bytes(e))
            .sum(),
    }
}

fn qexpr_bytes(e: &QExpr) -> usize {
    use cbqt_common::Value;
    use std::mem::size_of;
    let stem = size_of::<QExpr>();
    stem + match e {
        QExpr::Col { .. } | QExpr::Subq { .. } => 0,
        QExpr::Lit(v) => match v {
            Value::Str(s) => s.len(),
            _ => 0,
        },
        QExpr::Param { peek, .. } => match peek {
            Value::Str(s) => s.len(),
            _ => 0,
        },
        QExpr::Bin { left, right, .. } => qexpr_bytes(left) + qexpr_bytes(right),
        QExpr::Not(x) | QExpr::Neg(x) => qexpr_bytes(x),
        QExpr::IsNull { expr, .. } => qexpr_bytes(expr),
        QExpr::InList { expr, list, .. } => {
            qexpr_bytes(expr) + list.iter().map(qexpr_bytes).sum::<usize>()
        }
        QExpr::Like { expr, pattern, .. } => qexpr_bytes(expr) + qexpr_bytes(pattern),
        QExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            operand.as_deref().map(qexpr_bytes).unwrap_or(0)
                + branches
                    .iter()
                    .map(|(c, v)| qexpr_bytes(c) + qexpr_bytes(v))
                    .sum::<usize>()
                + else_expr.as_deref().map(qexpr_bytes).unwrap_or(0)
        }
        QExpr::Func { name, args } => name.len() + args.iter().map(qexpr_bytes).sum::<usize>(),
        QExpr::Agg { arg, .. } => arg.as_deref().map(qexpr_bytes).unwrap_or(0),
        QExpr::Win {
            arg,
            partition_by,
            order_by,
            ..
        } => {
            arg.as_deref().map(qexpr_bytes).unwrap_or(0)
                + partition_by.iter().map(qexpr_bytes).sum::<usize>()
                + order_by
                    .iter()
                    .map(|o| size_of::<QOrder>() + qexpr_bytes(&o.expr))
                    .sum::<usize>()
        }
    }
}

fn walk_node<'a>(
    n: &'a PlanNode,
    sizes: &mut Vec<u32>,
    f: &mut impl FnMut(PlanNodeId, PlanEntity<'a>),
) {
    let at = sizes.len();
    sizes.push(0);
    f(PlanNodeId(at as u32), PlanEntity::Node(n));
    match n {
        PlanNode::OneRow | PlanNode::ScanBase { .. } => {}
        PlanNode::ScanView { plan, .. } => plan.walk(sizes, f),
        PlanNode::Join { left, right, .. } => {
            walk_node(left, sizes, f);
            walk_node(right, sizes, f);
        }
    }
    sizes[at] = (sizes.len() - at) as u32;
}

fn note_for(a: Option<String>) -> String {
    match a {
        Some(a) => format!(" {a}"),
        None => String::new(),
    }
}

fn explain_node(
    n: &PlanNode,
    out: &mut String,
    depth: usize,
    next: &mut u32,
    annotate: &mut Annotator<'_>,
) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    let note = note_for(annotate(take(next), PlanEntity::Node(n)));
    match n {
        PlanNode::OneRow => {
            writeln!(out, "{pad}ONE ROW{note}").unwrap();
        }
        PlanNode::ScanBase {
            table,
            refid,
            access,
            filter,
            rows,
            ..
        } => {
            writeln!(
                out,
                "{pad}SCAN t{} (r{}) {} (rows={rows:.0}){}{note}",
                table.0,
                refid.0,
                access.describe(),
                if filter.is_empty() {
                    String::new()
                } else {
                    format!(" filter x{}", filter.len())
                }
            )
            .unwrap();
        }
        PlanNode::ScanView {
            block,
            refid,
            correlated,
            plan,
            rows,
            ..
        } => {
            writeln!(
                out,
                "{pad}VIEW {block} (r{}){} (rows={rows:.0}){note}",
                refid.0,
                if *correlated { " LATERAL" } else { "" }
            )
            .unwrap();
            plan.explain_into(out, depth + 1, next, annotate);
        }
        PlanNode::Join {
            left,
            right,
            kind,
            method,
            lateral,
            rows,
            ..
        } => {
            writeln!(
                out,
                "{pad}{:?} {:?} JOIN{} (rows={rows:.0}){note}",
                method,
                kind,
                if *lateral { " LATERAL" } else { "" }
            )
            .unwrap();
            explain_node(left, out, depth + 1, next, annotate);
            explain_node(right, out, depth + 1, next, annotate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(r: u32, w: usize) -> PlanNode {
        PlanNode::ScanBase {
            table: TableId(0),
            refid: RefId(r),
            width: w,
            access: AccessPath::FullScan,
            filter: vec![],
            rows: 0.0,
        }
    }

    #[test]
    fn layout_from_left_deep_tree() {
        let j = PlanNode::Join {
            left: Box::new(PlanNode::Join {
                left: Box::new(scan(0, 3)),
                right: Box::new(scan(1, 2)),
                kind: PlanJoinKind::Inner,
                method: JoinMethod::Hash,
                equi: vec![],
                residual: vec![],
                lateral: false,
                rows: 0.0,
            }),
            right: Box::new(scan(2, 4)),
            kind: PlanJoinKind::Inner,
            method: JoinMethod::Hash,
            equi: vec![],
            residual: vec![],
            lateral: false,
            rows: 0.0,
        };
        let l = Layout::from_node(&j);
        assert_eq!(l.width, 9);
        assert_eq!(l.offset_of(RefId(0)), Some((0, 3)));
        assert_eq!(l.offset_of(RefId(1)), Some((3, 2)));
        assert_eq!(l.offset_of(RefId(2)), Some((5, 4)));
        assert_eq!(l.offset_of(RefId(9)), None);
    }

    #[test]
    fn semi_join_does_not_widen() {
        let j = PlanNode::Join {
            left: Box::new(scan(0, 3)),
            right: Box::new(scan(1, 2)),
            kind: PlanJoinKind::Semi,
            method: JoinMethod::Hash,
            equi: vec![],
            residual: vec![],
            lateral: false,
            rows: 0.0,
        };
        assert_eq!(j.width(), 3);
        let l = Layout::from_node(&j);
        assert_eq!(l.slots.len(), 1);
    }

    #[test]
    fn estimated_bytes_counts_the_tree() {
        let leaf = BlockPlan {
            block: BlockId(0),
            root: PlanRoot::Select(Box::new(SelectPlan {
                join: scan(0, 3),
                layout: Layout::default(),
                post_filter: vec![],
                aggs: vec![],
                group_by: vec![],
                grouping_sets: None,
                having: vec![],
                windows: vec![],
                select: vec![QExpr::Col {
                    table: RefId(0),
                    column: 1,
                }],
                distinct: false,
                distinct_keys: None,
                order_by: vec![],
                rownum_limit: None,
                subplans: vec![],
            })),
            cost: 1.0,
            rows: 1.0,
            out_ndv: vec![],
        };
        let small = leaf.estimated_bytes();
        assert!(small > 0);
        // a set-op over two copies is strictly bigger than one copy
        let bigger = BlockPlan {
            block: BlockId(1),
            root: PlanRoot::SetOp(SetOpPlan {
                op: SetOp::Union,
                inputs: vec![Arc::new(leaf.clone()), Arc::new(leaf)],
            }),
            cost: 2.0,
            rows: 2.0,
            out_ndv: vec![],
        };
        assert!(bigger.estimated_bytes() > 2 * small);
    }

    fn block_over(join: PlanNode) -> BlockPlan {
        BlockPlan {
            block: BlockId(0),
            root: PlanRoot::Select(Box::new(SelectPlan {
                join,
                layout: Layout::default(),
                post_filter: vec![],
                aggs: vec![],
                group_by: vec![],
                grouping_sets: None,
                having: vec![],
                windows: vec![],
                select: vec![],
                distinct: false,
                distinct_keys: None,
                order_by: vec![],
                rownum_limit: None,
                subplans: vec![],
            })),
            cost: 1.0,
            rows: 1.0,
            out_ndv: vec![],
        }
    }

    #[test]
    fn plan_index_ids_are_stable_across_clones() {
        let plan = block_over(PlanNode::Join {
            left: Box::new(scan(0, 3)),
            right: Box::new(scan(1, 2)),
            kind: PlanJoinKind::Inner,
            method: JoinMethod::Hash,
            equi: vec![],
            residual: vec![],
            lateral: false,
            rows: 0.0,
        });
        let clone = plan.clone();
        let ix_a = PlanIndex::build(&plan);
        let ix_b = PlanIndex::build(&clone);
        // same structure: same fingerprint, same ordinal for each
        // element position — even though every address differs
        assert_eq!(ix_a.fingerprint(), ix_b.fingerprint());
        assert_eq!(ix_a.len(), ix_b.len());
        let mut ids_a = Vec::new();
        plan.visit_entities(&mut |id, _| ids_a.push(id));
        let mut ids_b = Vec::new();
        clone.visit_entities(&mut |id, _| ids_b.push(id));
        assert_eq!(ids_a, ids_b);
        assert_eq!(
            ids_a,
            (0..ids_a.len() as u32).map(PlanNodeId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_index_fingerprint_distinguishes_structures() {
        let hash = block_over(PlanNode::Join {
            left: Box::new(scan(0, 3)),
            right: Box::new(scan(1, 2)),
            kind: PlanJoinKind::Inner,
            method: JoinMethod::Hash,
            equi: vec![],
            residual: vec![],
            lateral: false,
            rows: 0.0,
        });
        let nl = block_over(PlanNode::Join {
            left: Box::new(scan(0, 3)),
            right: Box::new(scan(1, 2)),
            kind: PlanJoinKind::Inner,
            method: JoinMethod::NestedLoop,
            equi: vec![],
            residual: vec![],
            lateral: false,
            rows: 0.0,
        });
        let single = block_over(scan(0, 3));
        assert_ne!(
            PlanIndex::build(&hash).fingerprint(),
            PlanIndex::build(&nl).fingerprint()
        );
        assert_ne!(
            PlanIndex::build(&hash).fingerprint(),
            PlanIndex::build(&single).fingerprint()
        );
    }

    #[test]
    fn outer_join_widens() {
        let j = PlanNode::Join {
            left: Box::new(scan(0, 3)),
            right: Box::new(scan(1, 2)),
            kind: PlanJoinKind::LeftOuter,
            method: JoinMethod::Hash,
            equi: vec![],
            residual: vec![],
            lateral: false,
            rows: 0.0,
        };
        assert_eq!(j.width(), 5);
    }
}
