//! Bind-site discovery for adaptive cursor sharing.
//!
//! A *bind site* is a comparison between a base-table column and a bind
//! parameter in the pre-transformation query tree. The plan cache
//! profiles each cached plan by the selectivity band of its bind sites;
//! on a cache hit the incoming bind values are re-bucketed against the
//! same sites and a mismatch compiles a sibling plan instead of
//! serving a plan optimized for a very different selectivity.

use crate::model::*;
use cbqt_catalog::TableId;

/// Comparison shape at a bind site, mirroring what the estimator
/// distinguishes (`est.rs`): equality vs range probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindSiteOp {
    /// `col = ?` (also each `?` inside `col IN (...)`).
    Eq,
    /// `col < ?` / `col <= ?`.
    Lt { inclusive: bool },
    /// `col > ?` / `col >= ?`.
    Gt { inclusive: bool },
}

/// One `column <op> ?slot` occurrence against a base table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BindSite {
    pub slot: usize,
    pub table: TableId,
    /// Catalog column ordinal.
    pub column: usize,
    pub op: BindSiteOp,
}

/// Collect the bind sites of a (pre-transformation) query tree, in
/// deterministic traversal order. Parameters that never meet a
/// base-table column comparison simply yield no site — their values
/// cannot shift plan choice through the estimator, so any value shares
/// the plan.
pub fn collect_bind_sites(tree: &QueryTree) -> Vec<BindSite> {
    let mut sites = Vec::new();
    for id in tree.block_ids() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        // RefId -> base TableId for this block's tables.
        let base = |refid: RefId| -> Option<TableId> {
            s.tables
                .iter()
                .find(|t| t.refid == refid)
                .and_then(|t| match t.source {
                    QTableSource::Base(tid) => Some(tid),
                    QTableSource::View(_) => None,
                })
        };
        s.for_each_expr(&mut |e| {
            e.walk(&mut |e| match e {
                QExpr::Bin { op, left, right } if op.is_comparison() => {
                    let (col, param, flipped) = match (&**left, &**right) {
                        (QExpr::Col { table, column }, QExpr::Param { slot, .. }) => {
                            ((*table, *column), *slot, false)
                        }
                        (QExpr::Param { slot, .. }, QExpr::Col { table, column }) => {
                            ((*table, *column), *slot, true)
                        }
                        _ => return,
                    };
                    let Some(tid) = base(col.0) else { return };
                    let site_op = match (op, flipped) {
                        (BinOp::Eq, _) => BindSiteOp::Eq,
                        (BinOp::NotEq, _) => return, // ~no selectivity signal
                        (BinOp::Lt, false) | (BinOp::Gt, true) => {
                            BindSiteOp::Lt { inclusive: false }
                        }
                        (BinOp::LtEq, false) | (BinOp::GtEq, true) => {
                            BindSiteOp::Lt { inclusive: true }
                        }
                        (BinOp::Gt, false) | (BinOp::Lt, true) => {
                            BindSiteOp::Gt { inclusive: false }
                        }
                        (BinOp::GtEq, false) | (BinOp::LtEq, true) => {
                            BindSiteOp::Gt { inclusive: true }
                        }
                        _ => return,
                    };
                    sites.push(BindSite {
                        slot: param,
                        table: tid,
                        column: col.1,
                        op: site_op,
                    });
                }
                QExpr::InList { expr, list, .. } => {
                    if let QExpr::Col { table, column } = &**expr {
                        if let Some(tid) = base(*table) {
                            for item in list {
                                if let QExpr::Param { slot, .. } = item {
                                    sites.push(BindSite {
                                        slot: *slot,
                                        table: tid,
                                        column: *column,
                                        op: BindSiteOp::Eq,
                                    });
                                }
                            }
                        }
                    }
                }
                _ => {}
            });
        });
    }
    sites
}

/// Every base table referenced anywhere in a (pre-transformation)
/// query tree, deduplicated, in deterministic block order. The plan
/// cache pairs these with the catalog's per-table shape versions and
/// live row counts to invalidate a cached plan only when a table it
/// actually reads changes shape or drifts in size.
pub fn collect_base_tables(tree: &QueryTree) -> Vec<TableId> {
    let mut tables = Vec::new();
    for id in tree.block_ids() {
        let Ok(QueryBlock::Select(s)) = tree.block(id) else {
            continue;
        };
        for t in &s.tables {
            if let QTableSource::Base(tid) = t.source {
                if !tables.contains(&tid) {
                    tables.push(tid);
                }
            }
        }
    }
    tables
}
