//! Structural fingerprints of query blocks: the keys of the §3.4.2
//! cost-annotation store.
//!
//! [`block_keys`] mirrors [`crate::render`] — two blocks get the same key
//! when they render to the same text *and* bind the same outer columns
//! (`fingerprint_partition` in `cbqt-bench` holds it to that on every
//! tree a search produces) — but never builds the text. The few fields a
//! plan embeds and the text drops (`nulls_first`, an `EXPR$n` output
//! name, a set operation's ORDER BY) are in the key all the same.
//!
//! One bottom-up pass hashes each block's own structure with every child
//! view, subquery and set-op input replaced by that child's
//! already-computed hash, and carries the block's *free* column
//! references (tables declared outside its subtree) upward, so the
//! correlation identities fall out of the same pass.
//!
//! A column is hashed by what it is *bound* to, never by how it is
//! spelled and never by a [`RefId`] of the subtree:
//!
//! - a column of a table the block declares is that table's position in
//!   the block's FROM list (whose entries are hashed alias and source);
//! - a free column is its slot in the block's free list, described the
//!   way it renders (alias, and base table or view output name). The
//!   list itself, with the `RefId`s, goes into the key: a reused plan
//!   embeds those references;
//! - a block that takes in a child says, for every free column of the
//!   child, which of its own tables binds it, or which of its own free
//!   slots it becomes.
//!
//! So the copies OR expansion and join factorization make with fresh
//! `RefId`s still share one plan, while an inner block that reuses an
//! outer alias (`FROM a e WHERE … (SELECT … FROM b e WHERE y > 3)`) keys
//! its parent by whether `y` is the outer or the inner `e`'s.

use crate::model::*;
use cbqt_common::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A block's free list: the distinct `(RefId, column)` references in its
/// subtree to tables declared outside it, first-seen order — what
/// [`QueryTree::correlated_cols`] finds by a walk of its own.
pub type FreeCols = Vec<(RefId, usize)>;

/// The annotation key of every block reachable from the root, in
/// [`QueryTree::bottom_up`] order, with the block's free list.
/// Deterministic: fixed hasher keys, no address or iteration-order
/// dependence.
pub fn block_keys(tree: &QueryTree) -> Vec<(BlockId, u64, FreeCols)> {
    let order = tree.bottom_up();
    let mut declared: Vec<Option<&QTable>> = Vec::new();
    for &id in &order {
        if let Ok(QueryBlock::Select(s)) = tree.block(id) {
            for t in &s.tables {
                let slot = t.refid.0 as usize;
                if declared.len() <= slot {
                    declared.resize(slot + 1, None);
                }
                declared[slot] = Some(t);
            }
        }
    }
    let mut done: Vec<Option<Shape>> = Vec::new();
    let mut keys = Vec::with_capacity(order.len());
    for id in order {
        let Ok(block) = tree.block(id) else { continue };
        let mut pass = Pass {
            tree,
            declared: &declared,
            done: &done,
            own: &[],
            h: DefaultHasher::new(),
            free: Vec::new(),
        };
        match block {
            QueryBlock::Select(s) => pass.select(s),
            QueryBlock::SetOp(s) => pass.setop(s),
        }
        let shape = Shape {
            hash: pass.h.finish(),
            free: pass.free,
        };
        keys.push((id, shape.key(), shape.free.clone()));
        let slot = id.0 as usize;
        if done.len() <= slot {
            done.resize_with(slot + 1, || None);
        }
        done[slot] = Some(shape);
    }
    keys
}

/// What a parent needs of a finished block.
struct Shape {
    /// The block's structure with every column hashed by its binding:
    /// equal for two copies that differ only in their `RefId`s.
    hash: u64,
    free: FreeCols,
}

impl Shape {
    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash.hash(&mut h);
        self.free.len().hash(&mut h);
        for (r, c) in &self.free {
            r.0.hash(&mut h);
            c.hash(&mut h);
        }
        h.finish()
    }
}

/// The hashing of one block. Every variant writes a tag and every list
/// its length first, so neighbouring fields cannot run together.
struct Pass<'a> {
    tree: &'a QueryTree,
    /// Every reachable table declaration, by `RefId`.
    declared: &'a [Option<&'a QTable>],
    done: &'a [Option<Shape>],
    /// Tables the block itself declares: references to them are local.
    own: &'a [QTable],
    h: DefaultHasher,
    free: FreeCols,
}

/// The name of output column `c` of block `b`, as
/// [`QueryBlock::output_names`] has it.
fn output_name(tree: &QueryTree, mut b: BlockId, c: usize) -> Option<&str> {
    loop {
        match tree.block(b).ok()? {
            QueryBlock::Select(s) => return s.select.get(c).map(|i| i.name.as_str()),
            QueryBlock::SetOp(s) => b = *s.inputs.first()?,
        }
    }
}

impl<'a> Pass<'a> {
    fn tag(&mut self, t: u8) {
        t.hash(&mut self.h);
    }

    /// Position of `table` among the tables this block declares.
    fn own_table(&self, table: RefId) -> Option<usize> {
        self.own.iter().position(|t| t.refid == table)
    }

    /// Slot of `(table, column)` in this block's free list.
    fn free_slot(&mut self, table: RefId, column: usize) -> usize {
        let seen = self.free.iter().position(|f| *f == (table, column));
        seen.unwrap_or_else(|| {
            self.free.push((table, column));
            self.free.len() - 1
        })
    }

    fn col(&mut self, table: RefId, column: usize) {
        if let Some(at) = self.own_table(table) {
            self.tag(0);
            at.hash(&mut self.h);
            column.hash(&mut self.h);
            return;
        }
        self.tag(1);
        self.free_slot(table, column).hash(&mut self.h);
        column.hash(&mut self.h);
        // A transformation may rename the table or wrap it in a view and
        // keep its `RefId`; the text shows that, and so does the key.
        match self.declared.get(table.0 as usize).copied().flatten() {
            Some(t) => {
                t.alias.hash(&mut self.h);
                match &t.source {
                    QTableSource::Base(tid) => {
                        self.tag(0);
                        tid.0.hash(&mut self.h);
                    }
                    QTableSource::View(v) => {
                        self.tag(1);
                        output_name(self.tree, *v, column).hash(&mut self.h);
                    }
                }
            }
            // no reachable block declares it: only the id names it
            None => self.tag(0xff),
        }
    }

    /// A child block: its hash stands in for its structure, and each
    /// column it leaves free is bound by a table of this block or is free
    /// here too.
    fn child(&mut self, id: BlockId) {
        let done = self.done;
        match done.get(id.0 as usize).and_then(Option::as_ref) {
            Some(shape) => {
                shape.hash.hash(&mut self.h);
                shape.free.len().hash(&mut self.h);
                for &(r, c) in &shape.free {
                    match self.own_table(r) {
                        Some(at) => {
                            self.tag(0);
                            at.hash(&mut self.h);
                        }
                        None => {
                            self.tag(1);
                            self.free_slot(r, c).hash(&mut self.h);
                        }
                    }
                }
            }
            // dangling reference: renders as `<dangling QBn>`
            None => {
                self.tag(0xff);
                id.0.hash(&mut self.h);
            }
        }
    }

    fn exprs(&mut self, es: &[QExpr]) {
        es.len().hash(&mut self.h);
        for e in es {
            self.expr(e);
        }
    }

    fn opt_expr(&mut self, e: &Option<Box<QExpr>>) {
        match e {
            None => self.tag(0),
            Some(e) => {
                self.tag(1);
                self.expr(e);
            }
        }
    }

    fn orders(&mut self, os: &[QOrder]) {
        os.len().hash(&mut self.h);
        for QOrder {
            expr,
            desc,
            nulls_first,
        } in os
        {
            self.expr(expr);
            desc.hash(&mut self.h);
            nulls_first.hash(&mut self.h);
        }
    }

    /// `Value`'s own `Hash` conflates `Int(1)`, `Double(1.0)` and
    /// `Date(1)` (they compare equal); a plan embeds the literal, so the
    /// variant is part of the key.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.tag(0),
            Value::Int(i) => {
                self.tag(1);
                i.hash(&mut self.h);
            }
            Value::Double(d) => {
                self.tag(2);
                d.to_bits().hash(&mut self.h);
            }
            Value::Str(s) => {
                self.tag(3);
                s.hash(&mut self.h);
            }
            Value::Bool(b) => {
                self.tag(4);
                b.hash(&mut self.h);
            }
            Value::Date(d) => {
                self.tag(5);
                d.hash(&mut self.h);
            }
        }
    }

    fn expr(&mut self, e: &QExpr) {
        match e {
            QExpr::Col { table, column } => {
                self.tag(0);
                self.col(*table, *column);
            }
            QExpr::Lit(v) => {
                self.tag(1);
                self.value(v);
            }
            QExpr::Param { slot, peek } => {
                self.tag(2);
                slot.hash(&mut self.h);
                self.value(peek);
            }
            QExpr::Bin { op, left, right } => {
                self.tag(3);
                op.hash(&mut self.h);
                self.expr(left);
                self.expr(right);
            }
            QExpr::Not(x) => {
                self.tag(4);
                self.expr(x);
            }
            QExpr::Neg(x) => {
                self.tag(5);
                self.expr(x);
            }
            QExpr::IsNull { expr, negated } => {
                self.tag(6);
                negated.hash(&mut self.h);
                self.expr(expr);
            }
            QExpr::InList {
                expr,
                list,
                negated,
            } => {
                self.tag(7);
                negated.hash(&mut self.h);
                self.expr(expr);
                self.exprs(list);
            }
            QExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.tag(8);
                negated.hash(&mut self.h);
                self.expr(expr);
                self.expr(pattern);
            }
            QExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                self.tag(9);
                self.opt_expr(operand);
                branches.len().hash(&mut self.h);
                for (w, t) in branches {
                    self.expr(w);
                    self.expr(t);
                }
                self.opt_expr(else_expr);
            }
            QExpr::Func { name, args } => {
                self.tag(10);
                name.hash(&mut self.h);
                self.exprs(args);
            }
            QExpr::Agg {
                func,
                arg,
                distinct,
            } => {
                self.tag(11);
                func.hash(&mut self.h);
                distinct.hash(&mut self.h);
                self.opt_expr(arg);
            }
            QExpr::Win {
                func,
                arg,
                partition_by,
                order_by,
            } => {
                self.tag(12);
                func.hash(&mut self.h);
                self.opt_expr(arg);
                self.exprs(partition_by);
                self.orders(order_by);
            }
            QExpr::Subq { block, kind } => {
                self.tag(13);
                match kind {
                    SubqKind::Scalar => self.tag(0),
                    SubqKind::Exists { negated } => {
                        self.tag(1);
                        negated.hash(&mut self.h);
                    }
                    SubqKind::In { lhs, negated } => {
                        self.tag(2);
                        negated.hash(&mut self.h);
                        self.exprs(lhs);
                    }
                    SubqKind::Quant { op, quant, lhs } => {
                        self.tag(3);
                        op.hash(&mut self.h);
                        quant.hash(&mut self.h);
                        self.expr(lhs);
                    }
                }
                self.child(*block);
            }
        }
    }

    // Destructured without `..` here and in `setop`: a field added to
    // the model has to be given a place in the key to compile.
    fn select(&mut self, s: &'a SelectBlock) {
        let SelectBlock {
            tables,
            select,
            where_conjuncts,
            distinct,
            distinct_keys,
            group_by,
            grouping_sets,
            having,
            order_by,
            rownum_limit,
        } = s;
        self.own = tables;
        self.tag(0);
        tables.len().hash(&mut self.h);
        for QTable {
            // references name a declaration by its position here
            refid: _,
            alias,
            source,
            join,
        } in tables
        {
            alias.hash(&mut self.h);
            match source {
                QTableSource::Base(tid) => {
                    self.tag(0);
                    tid.0.hash(&mut self.h);
                }
                QTableSource::View(v) => {
                    self.tag(1);
                    self.child(*v);
                }
            }
            match join {
                JoinInfo::Inner => self.tag(0),
                JoinInfo::Semi { on } => {
                    self.tag(1);
                    self.exprs(on);
                }
                JoinInfo::Anti { on, null_aware } => {
                    self.tag(2);
                    null_aware.hash(&mut self.h);
                    self.exprs(on);
                }
                JoinInfo::LeftOuter { on } => {
                    self.tag(3);
                    self.exprs(on);
                }
                JoinInfo::Lateral { semi } => {
                    self.tag(4);
                    semi.hash(&mut self.h);
                }
            }
        }
        select.len().hash(&mut self.h);
        for OutputItem { expr, name } in select {
            name.hash(&mut self.h);
            self.expr(expr);
        }
        self.exprs(where_conjuncts);
        distinct.hash(&mut self.h);
        match distinct_keys {
            None => self.tag(0),
            Some(keys) => {
                self.tag(1);
                self.exprs(keys);
            }
        }
        self.exprs(group_by);
        grouping_sets.hash(&mut self.h);
        self.exprs(having);
        self.orders(order_by);
        rownum_limit.hash(&mut self.h);
    }

    fn setop(&mut self, s: &SetOpBlock) {
        let SetOpBlock {
            op,
            inputs,
            order_by,
        } = s;
        self.tag(1);
        op.hash(&mut self.h);
        inputs.len().hash(&mut self.h);
        for i in inputs {
            self.child(*i);
        }
        self.orders(order_by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_catalog::TableId;

    fn base_table(refid: RefId, alias: &str, table: u32, join: JoinInfo) -> QTable {
        QTable {
            refid,
            alias: alias.into(),
            source: QTableSource::Base(TableId(table)),
            join,
        }
    }

    fn one_item(expr: QExpr, name: &str) -> Vec<OutputItem> {
        vec![OutputItem {
            expr,
            name: name.into(),
        }]
    }

    /// A root block that has one of everything the table below flips:
    ///
    /// ```text
    /// SELECT t.c0 FROM t, ANTI JOIN u ON (u.c0 = t.c0), LATERAL (SELECT 1 FROM w) v
    /// WHERE t.c1 = 1 AND t.c0 IN (2, :0(3)) AND EXISTS (SELECT 1 FROM x WHERE x.c0 = t.c0)
    /// GROUP BY t.c0 ORDER BY t.c0
    /// ```
    fn sample() -> QueryTree {
        let mut tree = QueryTree::new();
        let [t, u, v, w, x] = [(); 5].map(|()| tree.new_ref());
        let view = tree.add_block(QueryBlock::Select(SelectBlock {
            tables: vec![base_table(w, "w", 2, JoinInfo::Inner)],
            select: one_item(QExpr::lit(1i64), "one"),
            ..Default::default()
        }));
        let subquery = tree.add_block(QueryBlock::Select(SelectBlock {
            tables: vec![base_table(x, "x", 3, JoinInfo::Inner)],
            select: one_item(QExpr::lit(1i64), "one"),
            where_conjuncts: vec![QExpr::eq(QExpr::col(x, 0), QExpr::col(t, 0))],
            ..Default::default()
        }));
        let anti = JoinInfo::Anti {
            on: vec![QExpr::eq(QExpr::col(u, 0), QExpr::col(t, 0))],
            null_aware: false,
        };
        tree.root = tree.add_block(QueryBlock::Select(SelectBlock {
            tables: vec![
                base_table(t, "t", 0, JoinInfo::Inner),
                base_table(u, "u", 1, anti),
                QTable {
                    refid: v,
                    alias: "v".into(),
                    source: QTableSource::View(view),
                    join: JoinInfo::Lateral { semi: false },
                },
            ],
            select: one_item(QExpr::col(t, 0), "c0"),
            where_conjuncts: vec![
                QExpr::eq(QExpr::col(t, 1), QExpr::lit(1i64)),
                QExpr::InList {
                    expr: Box::new(QExpr::col(t, 0)),
                    list: vec![
                        QExpr::lit(2i64),
                        QExpr::Param {
                            slot: 0,
                            peek: Value::Int(3),
                        },
                    ],
                    negated: false,
                },
                QExpr::Subq {
                    block: subquery,
                    kind: SubqKind::Exists { negated: false },
                },
            ],
            group_by: vec![QExpr::col(t, 0)],
            order_by: vec![QOrder {
                expr: QExpr::col(t, 0),
                desc: false,
                nulls_first: false,
            }],
            ..Default::default()
        }));
        tree
    }

    fn key_of(tree: &QueryTree, id: BlockId) -> u64 {
        let keys = block_keys(tree);
        keys.iter().find(|(b, _, _)| *b == id).expect("reachable").1
    }

    fn root_key(tree: &QueryTree) -> u64 {
        key_of(tree, tree.root)
    }

    fn set_first_literal(s: &mut SelectBlock, v: Value) {
        let QExpr::Bin { right, .. } = &mut s.where_conjuncts[0] else {
            panic!("sample() changed")
        };
        **right = QExpr::Lit(v);
    }

    #[test]
    fn every_single_change_changes_the_key() {
        type Flip = fn(&mut SelectBlock);
        let flips: [(&str, Flip); 18] = [
            ("distinct", |s| s.distinct = true),
            ("rownum_limit", |s| s.rownum_limit = Some(10)),
            ("QOrder.desc", |s| s.order_by[0].desc = true),
            ("QOrder.nulls_first", |s| s.order_by[0].nulls_first = true),
            ("Anti.null_aware", |s| {
                let JoinInfo::Anti { null_aware, .. } = &mut s.tables[1].join else {
                    panic!("sample() changed")
                };
                *null_aware = true;
            }),
            ("Lateral.semi", |s| {
                s.tables[2].join = JoinInfo::Lateral { semi: true }
            }),
            ("grouping_sets", |s| s.grouping_sets = Some(vec![vec![0]])),
            ("distinct_keys Some(vec![])", |s| {
                s.distinct_keys = Some(vec![])
            }),
            ("Int(1) -> Double(1.0)", |s| {
                set_first_literal(s, Value::Double(1.0))
            }),
            ("Int(1) -> Date(1)", |s| {
                set_first_literal(s, Value::Date(1))
            }),
            ("Param.slot", |s| {
                let QExpr::InList { list, .. } = &mut s.where_conjuncts[1] else {
                    panic!("sample() changed")
                };
                list[1] = QExpr::Param {
                    slot: 1,
                    peek: Value::Int(3),
                };
            }),
            ("Param.peek", |s| {
                let QExpr::InList { list, .. } = &mut s.where_conjuncts[1] else {
                    panic!("sample() changed")
                };
                list[1] = QExpr::Param {
                    slot: 0,
                    peek: Value::Int(4),
                };
            }),
            ("InList.negated", |s| {
                let QExpr::InList { negated, .. } = &mut s.where_conjuncts[1] else {
                    panic!("sample() changed")
                };
                *negated = true;
            }),
            ("Exists.negated", |s| {
                let QExpr::Subq { kind, .. } = &mut s.where_conjuncts[2] else {
                    panic!("sample() changed")
                };
                *kind = SubqKind::Exists { negated: true };
            }),
            ("output name", |s| s.select[0].name = "renamed".into()),
            ("table alias", |s| s.tables[0].alias = "t2".into()),
            ("base table", |s| {
                s.tables[0].source = QTableSource::Base(TableId(9))
            }),
            ("WHERE conjunct -> HAVING", |s| {
                let c = s.where_conjuncts.remove(0);
                s.having.push(c);
            }),
        ];
        let mut keys = vec![("the sample", root_key(&sample()))];
        for (what, flip) in flips {
            let mut tree = sample();
            let root = tree.root;
            flip(tree.select_mut(root).unwrap());
            keys.push((what, root_key(&tree)));
        }
        for (i, (a, ka)) in keys.iter().enumerate() {
            for (b, kb) in &keys[i + 1..] {
                assert_ne!(ka, kb, "`{a}` and `{b}` share a key");
            }
        }
    }

    #[test]
    fn renaming_refids_keeps_a_closed_block_and_moves_a_correlated_one() {
        let tree = sample();
        let mut copy = QueryTree::new();
        for _ in 0..20 {
            copy.new_ref(); // so that every RefId of the copy differs
        }
        copy.root = copy.import_subtree(&tree, tree.root).unwrap();
        let renamed = copy.select(copy.root).unwrap();
        let original = tree.select(tree.root).unwrap();
        assert_ne!(renamed.tables[0].refid, original.tables[0].refid);
        // the root and its view reference nothing outside themselves
        assert_eq!(root_key(&copy), root_key(&tree));
        assert_eq!(
            key_of(&copy, renamed.view_blocks()[0]),
            key_of(&tree, original.view_blocks()[0])
        );
        // the subquery binds `t` of the enclosing block: a plan made for
        // one `t` holds that RefId and is no good under the other
        assert_ne!(
            key_of(&copy, renamed.subquery_blocks()[0]),
            key_of(&tree, original.subquery_blocks()[0])
        );
    }

    /// `SELECT e.c0 FROM t0 e WHERE EXISTS (SELECT 1 FROM t0 e WHERE e.c1 > 3)`
    /// with the subquery's `e.c1` read from the inner `e` or the outer one.
    fn shadowing(outer_column: bool) -> QueryTree {
        let mut tree = QueryTree::new();
        let [outer, inner] = [(); 2].map(|()| tree.new_ref());
        let bound = if outer_column { outer } else { inner };
        let subquery = tree.add_block(QueryBlock::Select(SelectBlock {
            tables: vec![base_table(inner, "e", 0, JoinInfo::Inner)],
            select: one_item(QExpr::lit(1i64), "one"),
            where_conjuncts: vec![QExpr::bin(
                BinOp::Gt,
                QExpr::col(bound, 1),
                QExpr::lit(3i64),
            )],
            ..Default::default()
        }));
        tree.root = tree.add_block(QueryBlock::Select(SelectBlock {
            tables: vec![base_table(outer, "e", 0, JoinInfo::Inner)],
            select: one_item(QExpr::col(outer, 0), "c0"),
            where_conjuncts: vec![QExpr::Subq {
                block: subquery,
                kind: SubqKind::Exists { negated: false },
            }],
            ..Default::default()
        }));
        tree
    }

    #[test]
    fn a_shadowed_alias_is_keyed_by_what_it_binds() {
        // both trees spell every column alike, down to the base table
        let (inner, outer) = (shadowing(false), shadowing(true));
        let subquery = |t: &QueryTree| t.select(t.root).unwrap().subquery_blocks()[0];
        assert_ne!(
            key_of(&inner, subquery(&inner)),
            key_of(&outer, subquery(&outer))
        );
        // the root binds what the subquery left free: no correlation is
        // left to tell the two roots apart, the binding has to
        assert_ne!(root_key(&inner), root_key(&outer));
        // while fresh `RefId`s leave either key alone
        for tree in [inner, outer] {
            let mut copy = QueryTree::new();
            copy.root = copy.import_subtree(&tree, tree.root).unwrap();
            assert_eq!(root_key(&copy), root_key(&tree));
        }
    }

    #[test]
    fn keys_follow_bottom_up_order_and_repeat() {
        let tree = sample();
        let keys = block_keys(&tree);
        let ids: Vec<BlockId> = keys.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, tree.bottom_up());
        assert_eq!(keys, block_keys(&tree.clone()));
    }
}
