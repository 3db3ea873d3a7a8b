//! The subquery-unnesting kernel that unnesting by merging (§2.1.1,
//! [`crate::heuristic::unnest_merge`]) and unnesting into inline views
//! (§2.2.1, [`crate::costbased::unnest_view`]) share: whether a subquery
//! of a given kind can become a semi or anti join, the split of its
//! correlation into `inner = outer` keys, and the join itself. The two
//! rewrites differ only in where the subquery lands (its one table, or
//! an inline view) and so in how its outputs are spelled.

use crate::util::{invert_comparison, provably_not_null};
use cbqt_catalog::Catalog;
use cbqt_common::hash::HashSet;
use cbqt_common::{Error, Result};
use cbqt_qgm::{
    BlockId, JoinInfo, OutputItem, QExpr, QTableSource, Quant, QueryTree, RefId, SubqKind,
};

/// Whether the WHERE conjunct `kind` over subquery block `sub` of block
/// `outer` can become a semi or anti join: `Some(null_aware)` when it
/// can, `None` when it must stay a subquery.
pub(crate) fn semi_anti_applicable(
    tree: &QueryTree,
    catalog: &Catalog,
    outer: BlockId,
    sub: BlockId,
    kind: &SubqKind,
) -> Option<bool> {
    let outer_s = tree.select(outer).ok()?;
    let sub_s = tree.select(sub).ok()?;
    let not_null = |owner, e| provably_not_null(tree, catalog, owner, e);
    match kind {
        SubqKind::Exists { .. } => Some(false),
        // a subquery in a left operand would move into the join's ON
        // list, which the executor evaluates no subplans for
        SubqKind::In { lhs, .. } if lhs.iter().any(QExpr::contains_subquery) => None,
        SubqKind::In { negated: false, .. } => Some(false),
        SubqKind::In { lhs, negated: true } => {
            // null-aware unless both sides are provably non-null
            let null_aware = !(lhs.iter().all(|l| not_null(outer_s, l))
                && sub_s.select.iter().all(|i| not_null(sub_s, &i.expr)));
            // Both engines treat a NULL in any key of a null-aware anti
            // join as a NULL NOT IN value, a correlation key's too: a
            // correlated NOT IN that needs one stays a subquery.
            (!null_aware || !tree.is_correlated(sub)).then_some(null_aware)
        }
        SubqKind::Quant { op, lhs, .. } if !op.is_comparison() || lhs.contains_subquery() => None,
        SubqKind::Quant {
            quant: Quant::Any, ..
        } => Some(false),
        // ALL needs both connecting sides provably non-null (§2.1.1): a
        // NULL on either side makes the comparison UNKNOWN, which ALL
        // must treat as a failure and an anti join cannot
        SubqKind::Quant {
            quant: Quant::All,
            lhs,
            ..
        } => (not_null(outer_s, lhs) && not_null(sub_s, &sub_s.select[0].expr)).then_some(false),
        SubqKind::Scalar => None,
    }
}

/// The semi or anti join the subquery conjunct `kind` becomes: `on`
/// (what already ties the subquery to its outer block), then the
/// conjuncts that connect `kind`'s left operands to `outputs`, the
/// subquery's select list as the outer block reads it. `null_aware` is
/// [`semi_anti_applicable`]'s answer.
pub(crate) fn semi_anti_join(
    kind: SubqKind,
    outputs: &[QExpr],
    mut on: Vec<QExpr>,
    null_aware: bool,
) -> Result<JoinInfo> {
    let anti = match kind {
        SubqKind::Exists { negated } => negated,
        SubqKind::In { lhs, negated } => {
            on.extend(
                lhs.into_iter()
                    .zip(outputs)
                    .map(|(l, o)| QExpr::eq(l, o.clone())),
            );
            negated
        }
        SubqKind::Quant { op, quant, lhs } => {
            // `x > ALL (S)` is the anti join on `x <= s`
            let op = match quant {
                Quant::Any => op,
                Quant::All => {
                    invert_comparison(op).ok_or_else(|| Error::transform("bad ALL operator"))?
                }
            };
            on.push(QExpr::bin(op, *lhs, outputs[0].clone()));
            quant == Quant::All
        }
        SubqKind::Scalar => return Err(Error::transform("scalar subquery cannot unnest")),
    };
    Ok(match anti {
        true => JoinInfo::Anti { on, null_aware },
        false => JoinInfo::Semi { on },
    })
}

/// A subquery's correlation, split from its WHERE.
pub(crate) struct Correlation<'t> {
    /// Each correlated conjunct as its `(inner, outer)` sides, in WHERE
    /// order.
    pub(crate) keys: Vec<(&'t QExpr, &'t QExpr)>,
    /// Whether each WHERE conjunct, in order, is one of the keys.
    is_key: Vec<bool>,
}

/// Splits the correlation of subquery block `sub` from its WHERE.
/// `None` when that correlation is not all `inner = outer` equalities of
/// the WHERE: a correlated conjunct of another form or holding a
/// subquery, or a correlated view or nested subquery inside `sub`.
pub(crate) fn split_correlation(tree: &QueryTree, sub: BlockId) -> Option<Correlation<'_>> {
    let s = tree.select(sub).ok()?;
    let outer: HashSet<RefId> = tree.correlated_cols(sub).iter().map(|&(r, _)| r).collect();
    let side = |e: &QExpr, inner: bool| {
        let refs = e.referenced_tables();
        !refs.is_empty() && refs.iter().all(|t| outer.contains(t) != inner)
    };
    let mut split = Correlation {
        keys: Vec::new(),
        is_key: Vec::with_capacity(s.where_conjuncts.len()),
    };
    for c in &s.where_conjuncts {
        let is_key = c.referenced_tables().iter().any(|t| outer.contains(t));
        split.is_key.push(is_key);
        if !is_key {
            continue;
        }
        let (l, r) = c.as_equality().filter(|_| !c.contains_subquery())?;
        if side(l, true) && side(r, false) {
            split.keys.push((l, r));
        } else if side(r, true) && side(l, false) {
            split.keys.push((r, l));
        } else {
            return None;
        }
    }
    // correlation must not hide deeper than the subquery's own WHERE
    let mut deep = s.tables.iter().any(|t| match t.source {
        QTableSource::View(v) => tree.is_correlated(v),
        QTableSource::Base(_) => false,
    });
    s.for_each_expr(&mut |e| {
        for b in e.subquery_blocks() {
            deep |= tree
                .correlated_cols(b)
                .iter()
                .any(|(r, _)| outer.contains(r));
        }
    });
    (!deep).then_some(split)
}

/// Moves the correlation of subquery block `sub` out of its WHERE: the
/// inner side of each key becomes an output named `{name}{k}` after its
/// existing ones. Returns the keys.
pub(crate) fn expose_correlation(
    tree: &mut QueryTree,
    sub: BlockId,
    name: &str,
) -> Result<Vec<(QExpr, QExpr)>> {
    let split = split_correlation(tree, sub)
        .ok_or_else(|| Error::transform("correlation no longer splits"))?;
    let keys: Vec<(QExpr, QExpr)> = split
        .keys
        .iter()
        .map(|&(inner, outer)| (inner.clone(), outer.clone()))
        .collect();
    let mut is_key = split.is_key.into_iter();
    let s = tree.select_mut(sub)?;
    // `retain` visits the conjuncts once each, in order
    s.where_conjuncts.retain(|_| is_key.next() == Some(false));
    for (k, (inner, _)) in keys.iter().enumerate() {
        s.select.push(OutputItem {
            expr: inner.clone(),
            name: format!("{name}{k}"),
        });
    }
    Ok(keys)
}
