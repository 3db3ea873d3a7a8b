//! QGM data structures and manipulation helpers.

use cbqt_catalog::TableId;
use cbqt_common::hash::HashSet;
use cbqt_common::{Error, Result, Value};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

thread_local! {
    /// Per-thread count of *deep* block materializations: the number of
    /// times a shared `Arc<QueryBlock>` actually had to be cloned
    /// because a writer touched it (`block_mut` on a shared block, or
    /// `take_block` of a shared block). Tree clones themselves are
    /// O(blocks) pointer bumps and never count. Thread-local so tests
    /// can assert on before/after deltas without interference from
    /// cargo's parallel test threads — see
    /// [`deep_block_clones`].
    static DEEP_BLOCK_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic counter of deep [`QueryBlock`] clones forced by
/// copy-on-write on the *calling thread* (see [`QueryTree`]). Tests
/// snapshot it before and after an operation and assert on the delta.
pub fn deep_block_clones() -> u64 {
    DEEP_BLOCK_CLONES.with(|c| c.get())
}

#[inline]
fn note_deep_clone() {
    DEEP_BLOCK_CLONES.with(|c| c.set(c.get() + 1));
}

pub use cbqt_sql::ast::{BinOp, Quant, SetOp};

/// Identifies a query block within its [`QueryTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QB{}", self.0)
    }
}

/// Tree-unique identifier of a table reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefId(pub u32);

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count | AggFunc::CountStar => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Window functions (a pragmatic subset: the aggregates plus ROW_NUMBER).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WinFunc {
    Agg(AggFunc),
    RowNumber,
}

/// Ordering key.
#[derive(Debug, Clone, PartialEq)]
pub struct QOrder {
    pub expr: QExpr,
    pub desc: bool,
    pub nulls_first: bool,
}

/// How a non-unnested subquery is connected to its parent predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum SubqKind {
    Scalar,
    Exists {
        negated: bool,
    },
    In {
        lhs: Vec<QExpr>,
        negated: bool,
    },
    Quant {
        op: BinOp,
        quant: Quant,
        lhs: Box<QExpr>,
    },
}

/// QGM scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum QExpr {
    /// Reference to column `column` of the table reference `table`.
    /// For base tables, `column` is the catalog ordinal (the ordinal just
    /// past the last column is the virtual ROWID); for views it is the
    /// position in the view's select list.
    Col {
        table: RefId,
        column: usize,
    },
    Lit(Value),
    /// Positional bind parameter. `peek` carries the value the
    /// statement was first compiled with so cost estimation can treat
    /// the site like a literal (bind peeking); execution resolves the
    /// slot against the current bind vector, falling back to `peek`
    /// when none is installed. Transforms treat `Param` as an opaque
    /// bound scalar.
    Param {
        slot: usize,
        peek: Value,
    },
    Bin {
        op: BinOp,
        left: Box<QExpr>,
        right: Box<QExpr>,
    },
    Not(Box<QExpr>),
    Neg(Box<QExpr>),
    IsNull {
        expr: Box<QExpr>,
        negated: bool,
    },
    InList {
        expr: Box<QExpr>,
        list: Vec<QExpr>,
        negated: bool,
    },
    Like {
        expr: Box<QExpr>,
        pattern: Box<QExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<QExpr>>,
        branches: Vec<(QExpr, QExpr)>,
        else_expr: Option<Box<QExpr>>,
    },
    /// Scalar function call (UPPER, ABS, MOD, EXPENSIVE, ...).
    Func {
        name: String,
        args: Vec<QExpr>,
    },
    /// Plain (non-windowed) aggregate.
    Agg {
        func: AggFunc,
        arg: Option<Box<QExpr>>,
        distinct: bool,
    },
    /// Window function.
    Win {
        func: WinFunc,
        arg: Option<Box<QExpr>>,
        partition_by: Vec<QExpr>,
        order_by: Vec<QOrder>,
    },
    /// Subquery reference.
    Subq {
        block: BlockId,
        kind: SubqKind,
    },
}

impl QExpr {
    pub fn col(table: RefId, column: usize) -> QExpr {
        QExpr::Col { table, column }
    }

    pub fn lit(v: impl Into<Value>) -> QExpr {
        QExpr::Lit(v.into())
    }

    pub fn bin(op: BinOp, l: QExpr, r: QExpr) -> QExpr {
        QExpr::Bin {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    pub fn eq(l: QExpr, r: QExpr) -> QExpr {
        QExpr::bin(BinOp::Eq, l, r)
    }

    /// Visits this expression and all children, *including* subquery
    /// reference nodes themselves but not descending into the referenced
    /// blocks (those live in the tree arena).
    pub fn walk(&self, f: &mut impl FnMut(&QExpr)) {
        f(self);
        match self {
            QExpr::Bin { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            QExpr::Not(e) | QExpr::Neg(e) => e.walk(f),
            QExpr::IsNull { expr, .. } => expr.walk(f),
            QExpr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            QExpr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            QExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            QExpr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            QExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
            QExpr::Win {
                arg,
                partition_by,
                order_by,
                ..
            } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
                for e in partition_by {
                    e.walk(f);
                }
                for o in order_by {
                    o.expr.walk(f);
                }
            }
            QExpr::Subq { kind, .. } => match kind {
                SubqKind::In { lhs, .. } => {
                    for e in lhs {
                        e.walk(f);
                    }
                }
                SubqKind::Quant { lhs, .. } => lhs.walk(f),
                SubqKind::Scalar | SubqKind::Exists { .. } => {}
            },
            QExpr::Col { .. } | QExpr::Lit(_) | QExpr::Param { .. } => {}
        }
    }

    /// Mutable visit (post-order on children, then the node itself is
    /// *not* revisited — use [`QExpr::rewrite`] for node replacement).
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut QExpr)) {
        match self {
            QExpr::Bin { left, right, .. } => {
                left.walk_mut(f);
                right.walk_mut(f);
            }
            QExpr::Not(e) | QExpr::Neg(e) => e.walk_mut(f),
            QExpr::IsNull { expr, .. } => expr.walk_mut(f),
            QExpr::InList { expr, list, .. } => {
                expr.walk_mut(f);
                for e in list {
                    e.walk_mut(f);
                }
            }
            QExpr::Like { expr, pattern, .. } => {
                expr.walk_mut(f);
                pattern.walk_mut(f);
            }
            QExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.walk_mut(f);
                }
                for (w, t) in branches {
                    w.walk_mut(f);
                    t.walk_mut(f);
                }
                if let Some(e) = else_expr {
                    e.walk_mut(f);
                }
            }
            QExpr::Func { args, .. } => {
                for a in args {
                    a.walk_mut(f);
                }
            }
            QExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.walk_mut(f);
                }
            }
            QExpr::Win {
                arg,
                partition_by,
                order_by,
                ..
            } => {
                if let Some(a) = arg {
                    a.walk_mut(f);
                }
                for e in partition_by {
                    e.walk_mut(f);
                }
                for o in order_by {
                    o.expr.walk_mut(f);
                }
            }
            QExpr::Subq { kind, .. } => match kind {
                SubqKind::In { lhs, .. } => {
                    for e in lhs {
                        e.walk_mut(f);
                    }
                }
                SubqKind::Quant { lhs, .. } => lhs.walk_mut(f),
                SubqKind::Scalar | SubqKind::Exists { .. } => {}
            },
            QExpr::Col { .. } | QExpr::Lit(_) | QExpr::Param { .. } => {}
        }
        f(self);
    }

    /// Rewrites the tree bottom-up: `f` may replace any node by returning
    /// `Some(replacement)`.
    pub fn rewrite(&mut self, f: &mut impl FnMut(&QExpr) -> Option<QExpr>) {
        self.walk_mut(&mut |e| {
            if let Some(n) = f(e) {
                *e = n;
            }
        });
    }

    /// Calls `f` on each *direct* child expression.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut QExpr)) {
        match self {
            QExpr::Bin { left, right, .. } => {
                f(left);
                f(right);
            }
            QExpr::Not(e) | QExpr::Neg(e) => f(e),
            QExpr::IsNull { expr, .. } => f(expr),
            QExpr::InList { expr, list, .. } => {
                f(expr);
                for e in list {
                    f(e);
                }
            }
            QExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            QExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    f(o);
                }
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                if let Some(e) = else_expr {
                    f(e);
                }
            }
            QExpr::Func { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            QExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            QExpr::Win {
                arg,
                partition_by,
                order_by,
                ..
            } => {
                if let Some(a) = arg {
                    f(a);
                }
                for e in partition_by {
                    f(e);
                }
                for o in order_by {
                    f(&mut o.expr);
                }
            }
            QExpr::Subq { kind, .. } => match kind {
                SubqKind::In { lhs, .. } => {
                    for e in lhs {
                        f(e);
                    }
                }
                SubqKind::Quant { lhs, .. } => f(lhs),
                SubqKind::Scalar | SubqKind::Exists { .. } => {}
            },
            QExpr::Col { .. } | QExpr::Lit(_) | QExpr::Param { .. } => {}
        }
    }

    /// Rewrites top-down: when `f` returns a replacement for a node, the
    /// node is replaced and its (new) children are *not* visited. Needed
    /// when the replacement decision depends on un-rewritten children
    /// (e.g. matching whole aggregate expressions in group-by placement).
    pub fn rewrite_topdown(&mut self, f: &mut impl FnMut(&QExpr) -> Option<QExpr>) {
        if let Some(n) = f(self) {
            *self = n;
            return;
        }
        self.for_each_child_mut(|c| c.rewrite_topdown(f));
    }

    /// Collects all `(RefId, column)` pairs referenced (not descending
    /// into subquery blocks).
    pub fn collect_cols(&self, out: &mut Vec<(RefId, usize)>) {
        self.walk(&mut |e| {
            if let QExpr::Col { table, column } = e {
                out.push((*table, *column));
            }
        });
    }

    /// The set of table refs this expression mentions directly.
    pub fn referenced_tables(&self) -> HashSet<RefId> {
        let mut cols = Vec::new();
        self.collect_cols(&mut cols);
        cols.into_iter().map(|(r, _)| r).collect()
    }

    /// True if the expression mentions only tables from `allowed`.
    pub fn references_only(&self, allowed: &HashSet<RefId>) -> bool {
        self.referenced_tables().is_subset(allowed)
    }

    /// True if this expression (not descending into subqueries) contains
    /// a plain aggregate node.
    pub fn contains_agg(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, QExpr::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// True if this expression contains a window-function node.
    pub fn contains_window(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, QExpr::Win { .. }) {
                found = true;
            }
        });
        found
    }

    /// True if this expression contains a subquery reference.
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, QExpr::Subq { .. }) {
                found = true;
            }
        });
        found
    }

    /// "Expensive" in the paper's sense (§2.2.6): contains a procedural
    /// function (our `EXPENSIVE` UDF) or a subquery.
    pub fn is_expensive(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| match e {
            QExpr::Func { name, .. } if name == "EXPENSIVE" => found = true,
            QExpr::Subq { .. } => found = true,
            _ => {}
        });
        found
    }

    /// All subquery blocks directly referenced by this expression.
    pub fn subquery_blocks(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let QExpr::Subq { block, .. } = e {
                out.push(*block);
            }
        });
        out
    }

    /// Splits a conjunction into its conjuncts.
    pub fn split_conjuncts(self, out: &mut Vec<QExpr>) {
        match self {
            QExpr::Bin {
                op: BinOp::And,
                left,
                right,
            } => {
                left.split_conjuncts(out);
                right.split_conjuncts(out);
            }
            other => out.push(other),
        }
    }

    /// Conjoins expressions into one (None for empty input).
    pub fn conjoin(exprs: Vec<QExpr>) -> Option<QExpr> {
        let mut it = exprs.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, e| QExpr::bin(BinOp::And, acc, e)))
    }

    /// If this is `a = b` returns the two sides.
    pub fn as_equality(&self) -> Option<(&QExpr, &QExpr)> {
        match self {
            QExpr::Bin {
                op: BinOp::Eq,
                left,
                right,
            } => Some((left, right)),
            _ => None,
        }
    }

    /// If this is a simple column equality `t1.c1 = t2.c2`, returns both
    /// column references.
    pub fn as_col_equality(&self) -> Option<((RefId, usize), (RefId, usize))> {
        let (l, r) = self.as_equality()?;
        match (l, r) {
            (
                QExpr::Col {
                    table: t1,
                    column: c1,
                },
                QExpr::Col {
                    table: t2,
                    column: c2,
                },
            ) => Some(((*t1, *c1), (*t2, *c2))),
            _ => None,
        }
    }
}

/// Where a table reference's rows come from.
#[derive(Debug, Clone, PartialEq)]
pub enum QTableSource {
    Base(TableId),
    View(BlockId),
}

/// Join semantics of a table reference within its block.
///
/// `Inner` tables are freely reorderable; the others impose a partial
/// order: the annotated table must be joined *after* every table its ON
/// condition (or, for `Lateral`, its correlation) references.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinInfo {
    Inner,
    /// This reference is the right side of a semijoin with `on`.
    Semi {
        on: Vec<QExpr>,
    },
    /// Right side of an antijoin; `null_aware` selects the NOT IN
    /// semantics where NULLs in the connecting columns poison matches.
    Anti {
        on: Vec<QExpr>,
        null_aware: bool,
    },
    /// Right (null-producing) side of a left outer join.
    LeftOuter {
        on: Vec<QExpr>,
    },
    /// A view correlated to sibling tables (produced by join predicate
    /// pushdown): must be evaluated per outer row, nested-loop only.
    /// `semi` marks the JPPD variant where the view's distinct was
    /// removed and the join degenerates to a semijoin (§2.2.3).
    Lateral {
        semi: bool,
    },
}

impl JoinInfo {
    pub fn on_conjuncts(&self) -> &[QExpr] {
        match self {
            JoinInfo::Semi { on } | JoinInfo::Anti { on, .. } | JoinInfo::LeftOuter { on } => on,
            JoinInfo::Inner | JoinInfo::Lateral { .. } => &[],
        }
    }

    pub fn is_inner(&self) -> bool {
        matches!(self, JoinInfo::Inner)
    }
}

/// A table reference inside a SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    pub refid: RefId,
    pub alias: String,
    pub source: QTableSource,
    pub join: JoinInfo,
}

/// One output column of a block.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputItem {
    pub expr: QExpr,
    pub name: String,
}

/// A SELECT query block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectBlock {
    pub tables: Vec<QTable>,
    pub select: Vec<OutputItem>,
    /// WHERE clause, split into conjuncts.
    pub where_conjuncts: Vec<QExpr>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Generalized distinct: dedup rows on these expressions before
    /// projection. Produced by distinct-view merging, where the keys are
    /// the outer tables' rowids plus the select list.
    pub distinct_keys: Option<Vec<QExpr>>,
    /// Grouping expressions (full list).
    pub group_by: Vec<QExpr>,
    /// Grouping sets as index lists into `group_by`; `None` means the
    /// single full set. `GROUP BY ROLLUP(a, b)` yields `[[0,1],[0],[]]`.
    pub grouping_sets: Option<Vec<Vec<usize>>>,
    /// HAVING clause conjuncts.
    pub having: Vec<QExpr>,
    pub order_by: Vec<QOrder>,
    /// `WHERE ROWNUM < k` extracted into a limit.
    pub rownum_limit: Option<u64>,
}

impl SelectBlock {
    /// True if the block performs any aggregation.
    pub fn is_aggregated(&self) -> bool {
        !self.group_by.is_empty()
            || !self.having.is_empty()
            || self.select.iter().any(|i| i.expr.contains_agg())
    }

    /// Looks up a table reference by RefId.
    pub fn table(&self, refid: RefId) -> Option<&QTable> {
        self.tables.iter().find(|t| t.refid == refid)
    }

    pub fn table_mut(&mut self, refid: RefId) -> Option<&mut QTable> {
        self.tables.iter_mut().find(|t| t.refid == refid)
    }

    /// RefIds declared in this block.
    pub fn declared_refs(&self) -> HashSet<RefId> {
        self.tables.iter().map(|t| t.refid).collect()
    }

    /// Iterates over all expressions of the block (select, where, group
    /// by, having, order by, join on-conditions).
    pub fn for_each_expr(&self, f: &mut impl FnMut(&QExpr)) {
        for t in &self.tables {
            for e in t.join.on_conjuncts() {
                f(e);
            }
        }
        for i in &self.select {
            f(&i.expr);
        }
        for e in &self.where_conjuncts {
            f(e);
        }
        for e in &self.group_by {
            f(e);
        }
        for e in &self.having {
            f(e);
        }
        for o in &self.order_by {
            f(&o.expr);
        }
        if let Some(keys) = &self.distinct_keys {
            for e in keys {
                f(e);
            }
        }
    }

    /// Mutable variant of [`SelectBlock::for_each_expr`].
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut QExpr)) {
        for t in &mut self.tables {
            match &mut t.join {
                JoinInfo::Semi { on } | JoinInfo::Anti { on, .. } | JoinInfo::LeftOuter { on } => {
                    for e in on {
                        f(e);
                    }
                }
                JoinInfo::Inner | JoinInfo::Lateral { .. } => {}
            }
        }
        for i in &mut self.select {
            f(&mut i.expr);
        }
        for e in &mut self.where_conjuncts {
            f(e);
        }
        for e in &mut self.group_by {
            f(e);
        }
        for e in &mut self.having {
            f(e);
        }
        for o in &mut self.order_by {
            f(&mut o.expr);
        }
        if let Some(keys) = &mut self.distinct_keys {
            for e in keys {
                f(e);
            }
        }
    }

    /// All subquery blocks referenced from this block's expressions.
    pub fn subquery_blocks(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_expr(&mut |e| out.extend(e.subquery_blocks()));
        out
    }

    /// View blocks referenced from the FROM list.
    pub fn view_blocks(&self) -> Vec<BlockId> {
        self.tables
            .iter()
            .filter_map(|t| match t.source {
                QTableSource::View(b) => Some(b),
                QTableSource::Base(_) => None,
            })
            .collect()
    }
}

/// A set-operation block (UNION \[ALL\] / INTERSECT / MINUS) over two or
/// more inputs. `UNION ALL` inputs are flattened n-ary; the other
/// operators are binary.
#[derive(Debug, Clone, PartialEq)]
pub struct SetOpBlock {
    pub op: SetOp,
    pub inputs: Vec<BlockId>,
    pub order_by: Vec<QOrder>,
}

/// A query block: SELECT or set operation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBlock {
    Select(SelectBlock),
    SetOp(SetOpBlock),
}

impl QueryBlock {
    pub fn as_select(&self) -> Option<&SelectBlock> {
        match self {
            QueryBlock::Select(s) => Some(s),
            QueryBlock::SetOp(_) => None,
        }
    }

    pub fn as_select_mut(&mut self) -> Option<&mut SelectBlock> {
        match self {
            QueryBlock::Select(s) => Some(s),
            QueryBlock::SetOp(_) => None,
        }
    }

    /// Number of output columns.
    pub fn output_arity(&self, tree: &QueryTree) -> usize {
        match self {
            QueryBlock::Select(s) => s.select.len(),
            QueryBlock::SetOp(s) => tree
                .block(s.inputs[0])
                .map(|b| b.output_arity(tree))
                .unwrap_or(0),
        }
    }

    /// Output column names.
    pub fn output_names(&self, tree: &QueryTree) -> Vec<String> {
        match self {
            QueryBlock::Select(s) => s.select.iter().map(|i| i.name.clone()).collect(),
            QueryBlock::SetOp(s) => tree
                .block(s.inputs[0])
                .map(|b| b.output_names(tree))
                .unwrap_or_default(),
        }
    }
}

/// The whole query tree: an arena of blocks plus the root id.
///
/// The arena is **copy-on-write**: each slot holds an `Arc<QueryBlock>`,
/// so `QueryTree::clone` (the §3.1 per-state deep copy of the CBQT
/// search) only bumps one refcount per block. A cloned tree lazily
/// materializes a private copy of a block the first time a
/// transformation mutates it ([`QueryTree::block_mut`] /
/// [`QueryTree::take_block`] via `Arc::make_mut` semantics), so a
/// candidate state pays only for the blocks it actually rewrites.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTree {
    blocks: Vec<Option<Arc<QueryBlock>>>,
    pub root: BlockId,
    next_ref: u32,
}

impl QueryTree {
    pub fn new() -> QueryTree {
        QueryTree {
            blocks: Vec::new(),
            root: BlockId(0),
            next_ref: 0,
        }
    }

    pub fn add_block(&mut self, b: QueryBlock) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Some(Arc::new(b)));
        id
    }

    pub fn new_ref(&mut self) -> RefId {
        let r = RefId(self.next_ref);
        self.next_ref += 1;
        r
    }

    pub fn block(&self, id: BlockId) -> Result<&QueryBlock> {
        self.blocks
            .get(id.0 as usize)
            .and_then(|slot| slot.as_deref())
            .ok_or_else(|| Error::transform(format!("dangling block {id}")))
    }

    /// Mutable access to a block. If the block is shared with a cloned
    /// tree (copy-on-write), this is the point where a private deep copy
    /// is materialized.
    pub fn block_mut(&mut self, id: BlockId) -> Result<&mut QueryBlock> {
        let arc = self
            .blocks
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| Error::transform(format!("dangling block {id}")))?;
        if Arc::strong_count(arc) > 1 {
            note_deep_clone();
        }
        Ok(Arc::make_mut(arc))
    }

    pub fn select(&self, id: BlockId) -> Result<&SelectBlock> {
        self.block(id)?
            .as_select()
            .ok_or_else(|| Error::transform(format!("{id} is not a SELECT block")))
    }

    pub fn select_mut(&mut self, id: BlockId) -> Result<&mut SelectBlock> {
        self.block_mut(id)?
            .as_select_mut()
            .ok_or_else(|| Error::transform(format!("{id} is not a SELECT block")))
    }

    /// Removes a block from the arena (after a merge). References must
    /// already have been repointed.
    pub fn remove_block(&mut self, id: BlockId) {
        if let Some(slot) = self.blocks.get_mut(id.0 as usize) {
            *slot = None;
        }
    }

    /// Takes a block out of the arena, leaving the slot dead. A block
    /// still shared with another tree is deep-copied out (copy-on-write).
    pub fn take_block(&mut self, id: BlockId) -> Result<QueryBlock> {
        let arc = self
            .blocks
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or_else(|| Error::transform(format!("dangling block {id}")))?;
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|shared| {
            note_deep_clone();
            (*shared).clone()
        }))
    }

    /// All live block ids.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| BlockId(i as u32)))
            .collect()
    }

    /// Ids of blocks reachable from the root, in bottom-up (children
    /// before parents) order. The traversal order of the optimizer (§3.1:
    /// "a query tree is traversed in a bottom-up manner").
    pub fn bottom_up(&self) -> Vec<BlockId> {
        let mut order = Vec::new();
        let mut seen = HashSet::default();
        self.visit_post(self.root, &mut seen, &mut order);
        order
    }

    fn visit_post(&self, id: BlockId, seen: &mut HashSet<BlockId>, out: &mut Vec<BlockId>) {
        if !seen.insert(id) {
            return;
        }
        if let Ok(b) = self.block(id) {
            match b {
                QueryBlock::Select(s) => {
                    for v in s.view_blocks() {
                        self.visit_post(v, seen, out);
                    }
                    for sq in s.subquery_blocks() {
                        self.visit_post(sq, seen, out);
                    }
                }
                QueryBlock::SetOp(s) => {
                    for i in &s.inputs {
                        self.visit_post(*i, seen, out);
                    }
                }
            }
        }
        out.push(id);
    }

    /// The parent block of `child`, if reachable from the root.
    pub fn parent_of(&self, child: BlockId) -> Option<BlockId> {
        for id in self.bottom_up() {
            if id == child {
                continue;
            }
            if let Ok(b) = self.block(id) {
                let children: Vec<BlockId> = match b {
                    QueryBlock::Select(s) => {
                        let mut c = s.view_blocks();
                        c.extend(s.subquery_blocks());
                        c
                    }
                    QueryBlock::SetOp(s) => s.inputs.clone(),
                };
                if children.contains(&child) {
                    return Some(id);
                }
            }
        }
        None
    }

    /// The block in which a given table reference is declared.
    pub fn ref_owner(&self, refid: RefId) -> Option<BlockId> {
        for id in self.block_ids() {
            if let Ok(QueryBlock::Select(s)) = self.block(id) {
                if s.table(refid).is_some() {
                    return Some(id);
                }
            }
        }
        None
    }

    /// RefIds referenced by block `id`'s expressions (and the
    /// expressions of its nested subtree) that are *not* declared inside
    /// the subtree rooted at `id` — i.e. its correlations.
    pub fn correlated_refs(&self, id: BlockId) -> HashSet<RefId> {
        let mut declared = HashSet::default();
        let mut referenced = HashSet::default();
        self.collect_subtree(id, &mut declared, &mut referenced);
        referenced.difference(&declared).copied().collect()
    }

    fn collect_subtree(
        &self,
        id: BlockId,
        declared: &mut HashSet<RefId>,
        referenced: &mut HashSet<RefId>,
    ) {
        let Ok(b) = self.block(id) else { return };
        match b {
            QueryBlock::Select(s) => {
                for t in &s.tables {
                    declared.insert(t.refid);
                    if let QTableSource::View(v) = t.source {
                        self.collect_subtree(v, declared, referenced);
                    }
                }
                s.for_each_expr(&mut |e| {
                    referenced.extend(e.referenced_tables());
                    for sq in e.subquery_blocks() {
                        self.collect_subtree(sq, declared, referenced);
                    }
                });
            }
            QueryBlock::SetOp(s) => {
                for i in &s.inputs {
                    self.collect_subtree(*i, declared, referenced);
                }
            }
        }
    }

    /// True when block `id` (including nested blocks) is correlated to
    /// tables declared outside its subtree.
    pub fn is_correlated(&self, id: BlockId) -> bool {
        !self.correlated_refs(id).is_empty()
    }

    /// Column-level correlation info: the distinct `(RefId, column)`
    /// pairs referenced inside the subtree of `id` whose table is
    /// declared outside the subtree. Drives correlation-cache sizing
    /// (the executor caches TIS results per distinct binding).
    pub fn correlated_cols(&self, id: BlockId) -> Vec<(RefId, usize)> {
        // one walk: every distinct column in first-seen order and every
        // table the subtree declares; what it declares is then dropped
        let mut declared = HashSet::default();
        let mut cols: Vec<(RefId, usize)> = Vec::new();
        let mut stack = vec![id];
        let mut seen = HashSet::default();
        while let Some(b) = stack.pop() {
            if !seen.insert(b) {
                continue;
            }
            match self.block(b) {
                Ok(QueryBlock::Select(s)) => {
                    declared.extend(s.tables.iter().map(|t| t.refid));
                    s.for_each_expr(&mut |e| {
                        e.walk(&mut |n| match n {
                            QExpr::Col { table, column } if !cols.contains(&(*table, *column)) => {
                                cols.push((*table, *column));
                            }
                            QExpr::Subq { block, .. } => stack.push(*block),
                            _ => {}
                        })
                    });
                    stack.extend(s.view_blocks());
                }
                Ok(QueryBlock::SetOp(s)) => stack.extend(s.inputs.iter().copied()),
                Err(_) => {}
            }
        }
        cols.retain(|(r, _)| !declared.contains(r));
        cols
    }

    /// Deep-copies the subtree rooted at `src` (possibly from another
    /// tree), remapping block ids and ref ids, and returns the new root
    /// id. Used when transformations instantiate an alternative.
    pub fn import_subtree(&mut self, src_tree: &QueryTree, src: BlockId) -> Result<BlockId> {
        use cbqt_common::hash::HashMap;
        let mut block_map: HashMap<BlockId, BlockId> = HashMap::default();
        let mut ref_map: HashMap<RefId, RefId> = HashMap::default();
        // collect subtree ids in bottom-up order
        let mut seen = HashSet::default();
        let mut order = Vec::new();
        src_tree.visit_post(src, &mut seen, &mut order);
        // pre-allocate new ids
        for &b in &order {
            let nb = self.add_block(QueryBlock::Select(SelectBlock::default()));
            block_map.insert(b, nb);
        }
        for &b in &order {
            let mut copy = src_tree.block(b)?.clone();
            match &mut copy {
                QueryBlock::Select(s) => {
                    for t in &mut s.tables {
                        let nr = self.new_ref();
                        ref_map.insert(t.refid, nr);
                        t.refid = nr;
                        if let QTableSource::View(v) = &mut t.source {
                            *v = block_map[v];
                        }
                    }
                }
                QueryBlock::SetOp(s) => {
                    for i in &mut s.inputs {
                        *i = block_map[i];
                    }
                }
            }
            *self.block_mut(block_map[&b])? = copy;
        }
        // remap refs and subquery blocks in all copied expressions
        for &b in &order {
            let nb = block_map[&b];
            if let QueryBlock::Select(s) = self.block_mut(nb)? {
                s.for_each_expr_mut(&mut |e| {
                    e.rewrite(&mut |n| match n {
                        QExpr::Col { table, column } => ref_map.get(table).map(|nr| QExpr::Col {
                            table: *nr,
                            column: *column,
                        }),
                        QExpr::Subq { block, kind } => block_map.get(block).map(|nb| QExpr::Subq {
                            block: *nb,
                            kind: kind.clone(),
                        }),
                        _ => None,
                    })
                });
            }
        }
        Ok(block_map[&src])
    }

    /// Structural validation used by tests and debug assertions: every
    /// column reference must resolve to a table declared in the block or
    /// one of its ancestors, and view column ordinals must be in range.
    pub fn validate(&self) -> Result<()> {
        self.validate_block(self.root, &HashSet::default())
    }

    fn validate_block(&self, id: BlockId, outer: &HashSet<RefId>) -> Result<()> {
        match self.block(id)? {
            QueryBlock::Select(s) => {
                if s.select.is_empty() {
                    return Err(Error::transform(format!("{id} has empty select list")));
                }
                let mut scope = outer.clone();
                scope.extend(s.tables.iter().map(|t| t.refid));
                // aliases unique
                let mut names = HashSet::default();
                for t in &s.tables {
                    if !names.insert(t.alias.to_ascii_lowercase()) {
                        return Err(Error::transform(format!(
                            "duplicate alias {} in {id}",
                            t.alias
                        )));
                    }
                }
                let mut err: Option<Error> = None;
                s.for_each_expr(&mut |e| {
                    e.walk(&mut |n| {
                        if let QExpr::Col { table, .. } = n {
                            if !scope.contains(table) && err.is_none() {
                                err = Some(Error::transform(format!(
                                    "unresolved table ref {:?} in {id}",
                                    table
                                )));
                            }
                        }
                    });
                });
                if let Some(e) = err {
                    return Err(e);
                }
                for t in &s.tables {
                    if let QTableSource::View(v) = t.source {
                        self.validate_block(v, &scope)?;
                    }
                }
                let mut sub_err = Ok(());
                s.for_each_expr(&mut |e| {
                    for sq in e.subquery_blocks() {
                        if sub_err.is_ok() {
                            sub_err = self.validate_block(sq, &scope);
                        }
                    }
                });
                sub_err
            }
            QueryBlock::SetOp(s) => {
                if s.inputs.len() < 2 {
                    return Err(Error::transform(format!("{id} set op with <2 inputs")));
                }
                let arity = self.block(s.inputs[0])?.output_arity(self);
                for i in &s.inputs {
                    if self.block(*i)?.output_arity(self) != arity {
                        return Err(Error::transform(format!("{id} set op arity mismatch")));
                    }
                    self.validate_block(*i, outer)?;
                }
                Ok(())
            }
        }
    }
}

impl Default for QueryTree {
    fn default() -> Self {
        QueryTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `SELECT t.c0 FROM base0 t WHERE t.c1 = 5` by hand.
    fn tiny_tree() -> (QueryTree, RefId) {
        let mut tree = QueryTree::new();
        let r = tree.new_ref();
        let blk = SelectBlock {
            tables: vec![QTable {
                refid: r,
                alias: "t".into(),
                source: QTableSource::Base(TableId(0)),
                join: JoinInfo::Inner,
            }],
            select: vec![OutputItem {
                expr: QExpr::col(r, 0),
                name: "c0".into(),
            }],
            where_conjuncts: vec![QExpr::eq(QExpr::col(r, 1), QExpr::lit(5i64))],
            ..Default::default()
        };
        let root = tree.add_block(QueryBlock::Select(blk));
        tree.root = root;
        (tree, r)
    }

    #[test]
    fn tiny_tree_validates() {
        let (tree, _) = tiny_tree();
        tree.validate().unwrap();
    }

    #[test]
    fn deep_copy_is_clone() {
        let (tree, _) = tiny_tree();
        let copy = tree.clone();
        assert_eq!(tree, copy);
    }

    #[test]
    fn clone_shares_blocks_until_mutated() {
        // Cloning the tree must not deep-copy any block; mutating one
        // block of the clone must deep-copy exactly that block; and the
        // original must be unaffected by the clone's mutation.
        let (tree, _) = tiny_tree();
        let before = deep_block_clones();
        let mut copy = tree.clone();
        assert_eq!(
            deep_block_clones() - before,
            0,
            "tree clone must be O(1) per block (Arc bump), not a deep copy"
        );
        // read-only access never materializes
        let _ = copy.block(copy.root).unwrap();
        assert_eq!(deep_block_clones() - before, 0);
        // first mutation of a shared block materializes exactly one copy
        copy.select_mut(copy.root).unwrap().distinct = true;
        assert_eq!(deep_block_clones() - before, 1);
        // second mutation of the now-private block is free
        copy.select_mut(copy.root).unwrap().distinct = false;
        assert_eq!(deep_block_clones() - before, 1);
        assert_eq!(tree, copy, "original must be untouched");
    }

    #[test]
    fn take_block_deep_copies_only_when_shared() {
        let (tree, _) = tiny_tree();
        let mut copy = tree.clone();
        let before = deep_block_clones();
        // root is shared with `tree`, so taking it must clone out
        let taken = copy.take_block(copy.root).unwrap();
        assert_eq!(deep_block_clones() - before, 1);
        assert_eq!(&taken, tree.block(tree.root).unwrap());
        // an unshared tree gives its block away without copying
        let (mut solo, _) = tiny_tree();
        let before = deep_block_clones();
        let _ = solo.take_block(solo.root).unwrap();
        assert_eq!(deep_block_clones() - before, 0);
    }

    #[test]
    fn validation_catches_dangling_ref() {
        let (mut tree, _) = tiny_tree();
        let bogus = RefId(99);
        tree.select_mut(tree.root)
            .unwrap()
            .where_conjuncts
            .push(QExpr::col(bogus, 0));
        assert!(tree.validate().is_err());
    }

    #[test]
    fn validation_catches_duplicate_alias() {
        let (mut tree, _) = tiny_tree();
        let root = tree.root;
        let r2 = tree.new_ref();
        tree.select_mut(root).unwrap().tables.push(QTable {
            refid: r2,
            alias: "T".into(), // same alias, different case
            source: QTableSource::Base(TableId(0)),
            join: JoinInfo::Inner,
        });
        assert!(tree.validate().is_err());
    }

    #[test]
    fn conjunct_split_and_join() {
        let e = QExpr::bin(
            BinOp::And,
            QExpr::bin(BinOp::And, QExpr::lit(1i64), QExpr::lit(2i64)),
            QExpr::lit(3i64),
        );
        let mut out = Vec::new();
        e.split_conjuncts(&mut out);
        assert_eq!(out.len(), 3);
        let joined = QExpr::conjoin(out).unwrap();
        let mut out2 = Vec::new();
        joined.split_conjuncts(&mut out2);
        assert_eq!(out2.len(), 3);
    }

    #[test]
    fn correlation_detection() {
        // outer: FROM t(r0); subquery: FROM u(r1) WHERE u.c0 = t.c0
        let mut tree = QueryTree::new();
        let r0 = tree.new_ref();
        let r1 = tree.new_ref();
        let sub = tree.add_block(QueryBlock::Select(SelectBlock {
            tables: vec![QTable {
                refid: r1,
                alias: "u".into(),
                source: QTableSource::Base(TableId(1)),
                join: JoinInfo::Inner,
            }],
            select: vec![OutputItem {
                expr: QExpr::lit(1i64),
                name: "one".into(),
            }],
            where_conjuncts: vec![QExpr::eq(QExpr::col(r1, 0), QExpr::col(r0, 0))],
            ..Default::default()
        }));
        let root = tree.add_block(QueryBlock::Select(SelectBlock {
            tables: vec![QTable {
                refid: r0,
                alias: "t".into(),
                source: QTableSource::Base(TableId(0)),
                join: JoinInfo::Inner,
            }],
            select: vec![OutputItem {
                expr: QExpr::col(r0, 0),
                name: "c0".into(),
            }],
            where_conjuncts: vec![QExpr::Subq {
                block: sub,
                kind: SubqKind::Exists { negated: false },
            }],
            ..Default::default()
        }));
        tree.root = root;
        tree.validate().unwrap();
        assert!(tree.is_correlated(sub));
        assert_eq!(
            tree.correlated_refs(sub).into_iter().collect::<Vec<_>>(),
            vec![r0]
        );
        assert!(!tree.is_correlated(root));
        assert_eq!(tree.parent_of(sub), Some(root));
        assert_eq!(tree.ref_owner(r1), Some(sub));
        // bottom-up puts the subquery before the root
        let order = tree.bottom_up();
        assert_eq!(order, vec![sub, root]);
    }

    #[test]
    fn correlated_cols_come_in_first_seen_order() {
        // The executor sizes its correlation cache from this list and the
        // optimizer multiplies NDVs along it, so the order is part of
        // the contract: a block's own expressions first, then nested
        // blocks last-pushed-first — not the order of the SQL text.
        use cbqt_catalog::{Catalog, Column};
        let mut cat = Catalog::new();
        let cols = |names: &[&str]| {
            let col = |n: &&str| Column {
                name: n.to_string(),
                data_type: cbqt_common::DataType::Int,
                not_null: false,
            };
            names.iter().map(col).collect::<Vec<_>>()
        };
        cat.add_table("t", cols(&["a", "b", "c", "d"]), vec![])
            .unwrap();
        cat.add_table("u", cols(&["x", "y"]), vec![]).unwrap();
        let sql = "SELECT t.a FROM t WHERE EXISTS (\
                     SELECT 1 FROM u WHERE u.x = t.b \
                       AND EXISTS (SELECT 1 FROM u u2 WHERE u2.y = t.a AND u2.x = u.y) \
                       AND EXISTS (SELECT 1 FROM u u3 WHERE u3.y = t.d) \
                       AND u.y = t.c)";
        let tree = crate::build_query_tree(&cat, &cbqt_sql::parse_query(sql).unwrap()).unwrap();
        let t = tree.select(tree.root).unwrap().tables[0].refid;
        let outer = tree.select(tree.root).unwrap().subquery_blocks()[0];
        assert_eq!(
            tree.correlated_cols(outer),
            [(t, 1), (t, 2), (t, 3), (t, 0)],
            "t.b, t.c (own conjuncts), then u3's t.d, then u2's t.a"
        );
        // the inner block is correlated to both enclosing blocks
        let inner = tree.select(outer).unwrap().subquery_blocks()[0];
        let u = tree.select(outer).unwrap().tables[0].refid;
        assert_eq!(tree.correlated_cols(inner), [(t, 0), (u, 1)]);
        assert!(tree.correlated_cols(tree.root).is_empty());
    }

    #[test]
    fn import_subtree_remaps_ids() {
        let (src, _) = tiny_tree();
        let mut dst = QueryTree::new();
        // occupy some ids first so remapping is observable
        dst.new_ref();
        let imported = dst.import_subtree(&src, src.root).unwrap();
        let s = dst.select(imported).unwrap();
        let new_ref = s.tables[0].refid;
        assert_ne!(new_ref, RefId(0), "ref must be remapped");
        // where clause must reference the remapped id
        let mut cols = Vec::new();
        s.where_conjuncts[0].collect_cols(&mut cols);
        assert_eq!(cols[0].0, new_ref);
    }

    #[test]
    fn rewrite_replaces_nodes() {
        let mut e = QExpr::bin(BinOp::Add, QExpr::lit(1i64), QExpr::lit(2i64));
        e.rewrite(&mut |n| match n {
            QExpr::Lit(Value::Int(1)) => Some(QExpr::lit(10i64)),
            _ => None,
        });
        match e {
            QExpr::Bin { left, .. } => assert_eq!(*left, QExpr::lit(10i64)),
            _ => panic!(),
        }
    }

    #[test]
    fn expensive_detection() {
        let e = QExpr::Func {
            name: "EXPENSIVE".into(),
            args: vec![QExpr::lit(1i64)],
        };
        assert!(e.is_expensive());
        let e2 = QExpr::Func {
            name: "UPPER".into(),
            args: vec![QExpr::lit("x")],
        };
        assert!(!e2.is_expensive());
    }

    #[test]
    fn is_aggregated_checks() {
        let mut s = SelectBlock::default();
        s.select.push(OutputItem {
            expr: QExpr::lit(1i64),
            name: "x".into(),
        });
        assert!(!s.is_aggregated());
        s.select[0].expr = QExpr::Agg {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        };
        assert!(s.is_aggregated());
    }
}
