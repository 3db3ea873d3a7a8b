//! The outer columns a plan reads, found by walking the plan itself.
//! `BlockPlan::free` comes from the query tree instead (the optimizer
//! takes it from `fingerprint::block_keys`); this walk is the test-side
//! check that the two agree. The engine's unit tests take the `free` of
//! their hand-built plans from it, and `fingerprint_partition` in
//! `cbqt-bench` compares it with every plan the optimizer builds.

use cbqt_common::hash::HashSet;
use cbqt_optimizer::{BlockPlan, PlanNode, PlanRoot};
use cbqt_qgm::RefId;

/// Every distinct `(RefId, column)` that `plan` reads of a table no scan
/// inside it declares, in first-seen order.
pub fn outer_reads(plan: &BlockPlan) -> Vec<(RefId, usize)> {
    let (mut declared, mut read) = (HashSet::default(), Vec::new());
    block(plan, &mut declared, &mut read);
    let mut outer = Vec::new();
    for c in read {
        if !declared.contains(&c.0) && !outer.contains(&c) {
            outer.push(c);
        }
    }
    outer
}

fn block(plan: &BlockPlan, declared: &mut HashSet<RefId>, read: &mut Vec<(RefId, usize)>) {
    match &plan.root {
        PlanRoot::Select(sp) => {
            node(&sp.join, declared, read);
            let exprs = sp
                .post_filter
                .iter()
                .chain(&sp.group_by)
                .chain(&sp.having)
                .chain(&sp.select)
                .chain(&sp.aggs)
                .chain(&sp.windows)
                .chain(sp.order_by.iter().map(|o| &o.expr))
                .chain(sp.distinct_keys.iter().flatten());
            for e in exprs {
                e.collect_cols(read);
            }
            for (_, p) in &sp.subplans {
                block(p, declared, read);
            }
        }
        PlanRoot::SetOp(s) => {
            for i in &s.inputs {
                block(i, declared, read);
            }
        }
    }
}

fn node(n: &PlanNode, declared: &mut HashSet<RefId>, read: &mut Vec<(RefId, usize)>) {
    match n {
        PlanNode::OneRow => {}
        PlanNode::ScanBase {
            refid,
            access,
            filter,
            ..
        } => {
            declared.insert(*refid);
            for e in access.exprs().chain(filter) {
                e.collect_cols(read);
            }
        }
        PlanNode::ScanView {
            refid,
            plan,
            filter,
            ..
        } => {
            declared.insert(*refid);
            for e in filter {
                e.collect_cols(read);
            }
            block(plan, declared, read);
        }
        PlanNode::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            node(left, declared, read);
            node(right, declared, read);
            for e in equi.iter().flat_map(|(l, r)| [l, r]).chain(residual) {
                e.collect_cols(read);
            }
        }
    }
}
