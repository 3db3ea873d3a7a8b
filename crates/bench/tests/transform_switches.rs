//! Every `TransformSet` switch means the same thing in both modes.
//!
//! For each of the eight switches, under the cost-based search and
//! under the heuristic rules, on a query of the workload family that
//! triggers it: turning the switch off removes that transformation's
//! decision (for the split `view_merge` / `jppd` switches, that
//! alternative of the juxtaposed view decision) and leaves the rows
//! alone. With every switch off no transformation begins at all.

use cbqt::common::TraceEvent;
use cbqt::{Database, TransformSet};
use cbqt_bench::{Family, Instance, WorkloadGen};

const SEED: u64 = 20_060_912;

const UNNEST: &str = "subquery unnesting (inline view)";
const VIEW: &str = "view merging / join predicate pushdown";

/// What a switch gates.
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    /// A whole transformation, by its decision-line name.
    Whole(&'static str),
    /// The merge alternative of the view decision.
    Merge,
    /// The join-predicate-pushdown alternative of the view decision.
    Jppd,
}

/// (field, how to turn it off, a family it applies to, what it gates).
type Switch = (&'static str, fn(&mut TransformSet), Family, Gate);

/// One row per `TransformSet` field. A field added to the struct breaks
/// `ALL_OFF` below until it is listed; a transformation that no switch
/// gates fails `all_switches_off_begins_no_transformation`.
const SWITCHES: [Switch; 8] = [
    (
        "unnest",
        |s| s.unnest = false,
        Family::Unnest,
        Gate::Whole(UNNEST),
    ),
    (
        "view_merge",
        |s| s.view_merge = false,
        Family::Jppd,
        Gate::Merge,
    ),
    ("jppd", |s| s.jppd = false, Family::Jppd, Gate::Jppd),
    (
        "setop_to_join",
        |s| s.setop_to_join = false,
        Family::SetOp,
        Gate::Whole("MINUS/INTERSECT into join"),
    ),
    (
        "group_by_placement",
        |s| s.group_by_placement = false,
        Family::GroupByPlacement,
        Gate::Whole("group-by placement"),
    ),
    (
        "predicate_pullup",
        |s| s.predicate_pullup = false,
        Family::Pullup,
        Gate::Whole("predicate pullup"),
    ),
    (
        "join_factorization",
        |s| s.join_factorization = false,
        Family::Factorize,
        Gate::Whole("join factorization"),
    ),
    (
        "or_expansion",
        |s| s.or_expansion = false,
        Family::Disjunction,
        Gate::Whole("disjunction into UNION ALL"),
    ),
];

const ALL_OFF: TransformSet = TransformSet {
    unnest: false,
    view_merge: false,
    jppd: false,
    setop_to_join: false,
    group_by_placement: false,
    predicate_pullup: false,
    join_factorization: false,
    or_expansion: false,
};

/// Everything one statement shows of its transformation decisions.
struct Run {
    explain: String,
    before: String,
    after: String,
    events: Vec<TraceEvent>,
    states_explored: u64,
    rows: Vec<String>,
}

impl Run {
    fn of(db: &mut Database, sql: &str, cost_based: bool, set: TransformSet) -> Run {
        *db.config_mut() = cbqt::OptimizerSettings::default();
        db.config_mut().cost_based = cost_based;
        db.config_mut().transforms = set;
        let report = db.trace(sql).expect("trace");
        let (before, after) = report.rewrite().expect("rewrite event");
        let mut rows: Vec<String> = db
            .query(sql)
            .expect("query")
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        Run {
            explain: db.explain(sql).expect("explain"),
            before: before.to_string(),
            after: after.to_string(),
            states_explored: report.stats.states_explored,
            events: report.events,
            rows,
        }
    }

    /// EXPLAIN carries a decision line for the transformation.
    fn decided(&self, transform: &str) -> bool {
        let prefix = format!("{transform}: ");
        self.explain.lines().any(|l| l.starts_with(&prefix))
    }

    /// Alternatives per object the search costed for the
    /// transformation, "leave it alone" included; 0 when it never ran.
    fn alternatives(&self, transform: &str) -> usize {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StateCosted {
                    transform: t,
                    state,
                    ..
                } if t == transform => state.iter().max().map(|c| c + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// A view of the original query is gone from the transformed one.
    fn merged(&self) -> bool {
        self.after.matches("SELECT").count() < self.before.matches("SELECT").count()
    }

    /// A view of the transformed query had join predicates pushed in.
    fn lateral(&self) -> bool {
        self.after.contains("LATERAL")
    }
}

/// The first instance of the family the switch applies to. For the view
/// switches that is one whose view has both alternatives (a group-by or
/// distinct view; a UNION ALL view can only take pushed predicates).
fn instance_for(family: Family) -> Instance {
    let mut gen = WorkloadGen::new(SEED);
    gen.scale = 0.3;
    let mut inst = gen
        .generate(family, 6)
        .into_iter()
        .find(|i| family != Family::Jppd || !i.sql.contains("UNION ALL"))
        .expect("an instance with a mergeable view");
    inst.db.set_plan_cache_enabled(false);
    inst
}

#[test]
fn each_switch_gates_its_transformation_in_both_modes() {
    for (field, turn_off, family, gate) in SWITCHES {
        let mut inst = instance_for(family);
        for cost_based in [true, false] {
            let mut set = TransformSet::default();
            let on = Run::of(&mut inst.db, &inst.sql, cost_based, set.clone());
            turn_off(&mut set);
            let off = Run::of(&mut inst.db, &inst.sql, cost_based, set);
            let ctx = format!(
                "{field} / cost_based={cost_based}\n-- on\n{}\n-- off\n{}",
                on.explain, off.explain
            );
            match gate {
                Gate::Whole(name) => {
                    // of these only unnesting has a heuristic rule
                    assert_eq!(on.decided(name), cost_based || name == UNNEST, "{ctx}");
                    assert!(!off.decided(name), "{ctx}");
                }
                Gate::Merge | Gate::Jppd if cost_based => {
                    assert_eq!(on.alternatives(VIEW), 3, "{ctx}");
                    assert_eq!(off.alternatives(VIEW), 2, "{ctx}");
                }
                Gate::Merge | Gate::Jppd => {
                    // the heuristic rule always merges and never pushes
                    assert!(on.decided(VIEW) && on.merged(), "{ctx}");
                    assert_eq!(off.decided(VIEW), gate == Gate::Jppd, "{ctx}");
                }
            }
            match gate {
                Gate::Merge => assert!(!off.merged(), "{ctx}"),
                Gate::Jppd => assert!(!off.lateral(), "{ctx}"),
                Gate::Whole(_) => {}
            }
            assert_eq!(on.rows, off.rows, "{ctx}");
        }
    }
}

#[test]
fn all_switches_off_begins_no_transformation() {
    for &family in Family::all() {
        let mut inst = instance_for(family);
        let on = Run::of(&mut inst.db, &inst.sql, true, TransformSet::default());
        let off = Run::of(&mut inst.db, &inst.sql, true, ALL_OFF);
        let begun: Vec<&TraceEvent> = off
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TransformBegin { .. }))
            .collect();
        assert!(begun.is_empty(), "{}: {begun:?}", family.name());
        assert_eq!(off.states_explored, 0, "{}", family.name());
        assert_eq!(on.rows, off.rows, "{}", family.name());
    }
}
