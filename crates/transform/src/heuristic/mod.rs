//! Heuristic (imperative) transformations — §2.1.
//!
//! These are always applied when legal, in the paper's sequential order:
//! SPJ view merging, join elimination, subquery unnesting by merging,
//! filter predicate move-around, group pruning.

pub mod group_prune;
pub mod join_elim;
pub mod predicate_move;
pub mod unnest_merge;
pub mod view_merge;

use cbqt_catalog::Catalog;
use cbqt_common::Result;
use cbqt_qgm::QueryTree;

/// Which heuristic passes ran and how many rewrites each performed.
#[derive(Debug, Clone, Default)]
pub struct HeuristicReport {
    pub spj_views_merged: usize,
    pub joins_eliminated: usize,
    pub subqueries_merged: usize,
    pub predicates_pushed: usize,
    pub groups_pruned: usize,
}

impl HeuristicReport {
    pub fn total(&self) -> usize {
        self.spj_views_merged
            + self.joins_eliminated
            + self.subqueries_merged
            + self.predicates_pushed
            + self.groups_pruned
    }

    /// One-line human-readable summary (shared by EXPLAIN and the trace).
    pub fn summary(&self) -> String {
        format!(
            "{} SPJ view merge(s), {} join(s) eliminated, {} subquery merge(s), \
             {} predicate move(s), {} grouping set(s) pruned",
            self.spj_views_merged,
            self.joins_eliminated,
            self.subqueries_merged,
            self.predicates_pushed,
            self.groups_pruned,
        )
    }
}

/// Variant with unnesting-by-merging switchable (the Figure 3 experiment
/// disables *all* unnesting, including the imperative kind).
pub fn apply_heuristics_with(
    tree: &mut QueryTree,
    catalog: &Catalog,
    unnest_merge: bool,
) -> Result<HeuristicReport> {
    let mut report = HeuristicReport::default();
    // A couple of iterations are enough: transformations expose work for
    // each other (e.g. unnesting a single-table subquery after its inner
    // view was merged).
    for _ in 0..3 {
        let mut changed = 0;
        changed += add(
            &mut report.spj_views_merged,
            view_merge::merge_spj_views(tree)?,
        );
        changed += add(
            &mut report.joins_eliminated,
            join_elim::eliminate_joins(tree, catalog)?,
        );
        if unnest_merge {
            changed += add(
                &mut report.subqueries_merged,
                unnest_merge::unnest_by_merging(tree, catalog)?,
            );
        }
        changed += add(
            &mut report.predicates_pushed,
            predicate_move::push_filter_predicates(tree)?,
        );
        changed += add(
            &mut report.groups_pruned,
            group_prune::prune_groups(tree, catalog)?,
        );
        if changed == 0 {
            break;
        }
    }
    debug_assert!(
        tree.validate().is_ok(),
        "heuristics broke the tree: {:?}",
        tree.validate()
    );
    Ok(report)
}

fn add(counter: &mut usize, n: usize) -> usize {
    *counter += n;
    n
}

#[cfg(test)]
pub(crate) mod testutil {
    use cbqt_catalog::{Catalog, Column, Constraint, ForeignKey};
    use cbqt_common::DataType;
    use cbqt_qgm::{build_query_tree, QueryTree};
    use cbqt_sql::parse_query;

    /// The paper's running schema: locations, departments, employees,
    /// job_history (+ a small accounts table for window examples).
    pub fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let icol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Int,
            not_null: false,
        };
        let nncol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Int,
            not_null: true,
        };
        let scol = |n: &str| Column {
            name: n.into(),
            data_type: DataType::Str,
            not_null: false,
        };
        let loc = cat
            .add_table(
                "locations",
                vec![nncol("loc_id"), scol("country_id"), scol("city")],
                vec![Constraint::PrimaryKey(vec![0])],
            )
            .unwrap();
        let dept = cat
            .add_table(
                "departments",
                vec![nncol("dept_id"), scol("department_name"), icol("loc_id")],
                vec![
                    Constraint::PrimaryKey(vec![0]),
                    Constraint::ForeignKey(ForeignKey {
                        columns: vec![2],
                        parent: loc,
                        parent_columns: vec![0],
                    }),
                ],
            )
            .unwrap();
        let emp = cat
            .add_table(
                "employees",
                vec![
                    nncol("emp_id"),
                    scol("employee_name"),
                    icol("dept_id"),
                    icol("salary"),
                    icol("mgr_id"),
                ],
                vec![
                    Constraint::PrimaryKey(vec![0]),
                    Constraint::ForeignKey(ForeignKey {
                        columns: vec![2],
                        parent: dept,
                        parent_columns: vec![0],
                    }),
                ],
            )
            .unwrap();
        cat.add_table(
            "job_history",
            vec![
                nncol("emp_id"),
                scol("job_title"),
                icol("start_date"),
                icol("dept_id"),
            ],
            vec![Constraint::ForeignKey(ForeignKey {
                columns: vec![0],
                parent: emp,
                parent_columns: vec![0],
            })],
        )
        .unwrap();
        cat.add_table(
            "accounts",
            vec![nncol("acct_id"), icol("time"), icol("balance")],
            vec![],
        )
        .unwrap();
        cat.add_index("i_emp_dept", emp, vec![2], false).unwrap();
        cat.add_index("pk_dept", dept, vec![0], true).unwrap();
        cat
    }

    pub fn build(cat: &Catalog, sql: &str) -> QueryTree {
        build_query_tree(cat, &parse_query(sql).unwrap()).unwrap()
    }
}
