//! The annotation key is the rendering's partition.
//!
//! §3.4.2 reuse is keyed by `fingerprint::block_keys`, which never builds
//! SQL text. Its contract is stated against the text it replaced: two
//! blocks share a key exactly when `render_block` prints them alike *and*
//! `correlated_cols` binds them to the same outer columns. This test
//! holds it to that on every tree the optimizer is asked to plan — each
//! state of each search, and the final tree — and on a `RefId`-renamed
//! copy of each, for the query set and the modes of `search_stability`
//! plus statements whose inner blocks reuse an outer block's alias. The
//! free list `block_keys` returns beside each key — all the optimizer
//! knows of a block's correlation — must be `correlated_cols`, element
//! for element. The optimizer hands that list on as `BlockPlan::free`,
//! which both engines key the correlation cache by: it must hold, as a
//! set, the outer columns the plan itself reads.

mod common;
#[path = "../../exec/tests/support/outer_reads.rs"]
mod outer_reads;

use cbqt::optimizer::{
    record_optimized_trees, BlockPlan, CostAnnotations, Optimizer, PlanNode, PlanRoot,
    SamplingCache,
};
use cbqt::qgm::{fingerprint, render, QueryTree, RefId};
use cbqt::Database;
use cbqt_common::hash::{HashMap, HashSet};

/// What keyed an annotation before the fingerprint did.
type Rendered = (String, Vec<(RefId, usize)>);

/// Subqueries that stay subqueries (a disjunction is not unnested) over
/// a table aliased like the outer one: `o.y` in the first branch is the
/// outer `a.y`, `o.q` in the second the inner `b.q`, and a key made of
/// alias and column position alone cannot tell the two branches apart.
const SHADOWED_ALIAS: [&str; 2] = [
    "SELECT o.x FROM a o WHERE o.x < 0 OR EXISTS (SELECT 1 FROM b o WHERE y > 3) \
     UNION ALL \
     SELECT o.x FROM a o WHERE o.x < 0 OR EXISTS (SELECT 1 FROM b o WHERE q > 3)",
    "SELECT o.x FROM a o WHERE o.x IN (SELECT o.p FROM b o WHERE q > y) \
        OR o.x IN (SELECT o.p FROM b o WHERE q > p)",
];

fn shadowed_alias_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (x INT, y INT); CREATE TABLE b (p INT, q INT);
         INSERT INTO a VALUES (1, 5); INSERT INTO a VALUES (2, 1);
         INSERT INTO b VALUES (7, 2);",
    )
    .unwrap();
    db.analyze().unwrap();
    db.set_plan_cache_enabled(false);
    db
}

#[test]
fn block_keys_partition_blocks_like_rendering_and_correlation() {
    let mut blocks = 0usize;
    let mut check = |name: &str, db: &mut Database, sql: &str| {
        for mode in &common::MODES {
            let trees = trees_and_twins(name, db, sql, mode);
            // classes are compared across the whole statement: that is
            // the lifetime of one annotation store
            let mut by_key: HashMap<u64, Rendered> = HashMap::default();
            let mut by_rendered: HashMap<Rendered, u64> = HashMap::default();
            for tree in &trees {
                for (id, key, free) in fingerprint::block_keys(tree) {
                    let rendered = (
                        render::render_block(tree, db.catalog(), id),
                        tree.correlated_cols(id),
                    );
                    // the optimizer reads correlation from the free list
                    // alone: TIS cost products multiply in its order
                    assert_eq!(
                        free, rendered.1,
                        "{name}/{}: the free list of {id} is not its correlated \
                         columns in first-seen order\n-- {sql}",
                        mode.0
                    );
                    blocks += 1;
                    let first = by_key.entry(key).or_insert_with(|| rendered.clone());
                    assert_eq!(
                        *first, rendered,
                        "{name}/{}: one key for two blocks that render or correlate \
                         differently — something the rendering shows is missing from \
                         the fingerprint\n-- {sql}",
                        mode.0
                    );
                    let first = *by_rendered.entry(rendered.clone()).or_insert(key);
                    assert_eq!(
                        first, key,
                        "{name}/{}: two keys for blocks that render alike and bind the \
                         same outer columns — the fingerprint is finer than the \
                         rendering, so plans stop being shared (blocks_costed goes up). \
                         Is a column of a table declared inside the block hashed by its \
                         raw RefId instead of by alias?\n-- {sql}\n{}\ncorrelated {:?}",
                        mode.0, rendered.0, rendered.1
                    );
                }
            }
        }
    };
    common::for_each_statement(&mut check);
    let mut db = shadowed_alias_db();
    for sql in SHADOWED_ALIAS {
        check("shadowed alias", &mut db, sql);
    }
    assert!(blocks > 1_000, "only {blocks} blocks compared");
}

/// Every tree the optimizer is asked to plan for `sql` under `mode`, each
/// followed by a copy of itself under fresh `RefId`s and block ids, what
/// OR expansion and join factorization make of a branch: its
/// uncorrelated blocks render as before and must find the original's
/// plans.
fn trees_and_twins(
    name: &str,
    db: &mut Database,
    sql: &str,
    mode: &common::Mode,
) -> Vec<QueryTree> {
    let limits = common::set_mode(db, mode);
    let (report, trees) = record_optimized_trees(|| db.trace_with_limits(sql, limits));
    report.expect("trace");
    assert!(!trees.is_empty(), "{name}/{}: nothing was planned", mode.0);
    let twins = trees.iter().map(|tree| {
        let mut twin = tree.clone();
        twin.root = twin.import_subtree(tree, tree.root).expect("import");
        twin
    });
    let twins: Vec<_> = twins.collect();
    trees.into_iter().chain(twins).collect()
}

/// Calls `f` on `plan` and on every block plan below it.
fn each_block(plan: &BlockPlan, f: &mut impl FnMut(&BlockPlan)) {
    f(plan);
    match &plan.root {
        PlanRoot::Select(sp) => {
            let mut nodes = vec![&sp.join];
            while let Some(n) = nodes.pop() {
                match n {
                    PlanNode::ScanView { plan, .. } => each_block(plan, f),
                    PlanNode::Join { left, right, .. } => nodes.extend([&**left, &**right]),
                    PlanNode::OneRow | PlanNode::ScanBase { .. } => {}
                }
            }
            for (_, p) in &sp.subplans {
                each_block(p, f);
            }
        }
        PlanRoot::SetOp(s) => {
            for i in &s.inputs {
                each_block(i, f);
            }
        }
    }
}

#[test]
fn plan_free_lists_are_the_outer_columns_each_plan_reads() {
    let mut blocks = 0usize;
    let mut check = |name: &str, db: &mut Database, sql: &str| {
        for mode in &common::MODES {
            // one annotation store per statement, as in a search: twins
            // and repeated blocks get a stored plan relabelled
            let annotations = CostAnnotations::new();
            let sampling = SamplingCache::default();
            for tree in trees_and_twins(name, db, sql, mode) {
                let mut opt = Optimizer::new(db.catalog(), &annotations, &sampling);
                let plan = opt.optimize(&tree, None).expect("plan");
                each_block(&plan, &mut |p| {
                    let free: HashSet<_> = p.free.iter().copied().collect();
                    let read: HashSet<_> = outer_reads::outer_reads(p).into_iter().collect();
                    assert_eq!(
                        free, read,
                        "{name}/{}: block {} carries free list {:?}, but its plan reads \
                         {:?} from outside\n-- {sql}",
                        mode.0, p.block, p.free, read
                    );
                    blocks += 1;
                });
            }
        }
    };
    common::for_each_statement(&mut check);
    let mut db = shadowed_alias_db();
    for sql in SHADOWED_ALIAS {
        check("shadowed alias", &mut db, sql);
    }
    assert!(blocks > 1_000, "only {blocks} block plans compared");
}
