//! The engine-vs-engine differential oracle behind
//! [`Database::differential_exec`].

use crate::serve::{catch_internal, refused, Accept, Ctx, Executed, Measure, StatementPath};
use crate::Database;
use cbqt_common::{ExecutionLimits, ExecutionMode, Governor, Result, Row, Tracer};
use cbqt_exec::{ExecMetrics, OpMetrics};
use cbqt_optimizer::{BlockPlan, JoinMethod, PlanEntity, PlanNode, PlanNodeId};
use cbqt_sql::ast::Statement;
use cbqt_sql::parse_statement;

impl Database {
    /// Differential oracle: optimizes `sql` once, then executes the
    /// *same* plan allocation through both engines — vectorized and
    /// Volcano — each under a fresh governor built from `limits`, and
    /// reports every observable divergence.
    ///
    /// Compared surfaces:
    /// * result rows, in order (both engines are order-deterministic
    ///   over the same plan, so this is an exact comparison);
    /// * per-operator [`ExecMetrics`] — operator
    ///   set, row counts and execution counts exactly, work units to a
    ///   relative tolerance (both engines charge the same weights, but
    ///   accumulate in different association orders);
    /// * aggregate [`ExecStats`](crate::exec::ExecStats) — work to the same
    ///   tolerance, subquery-cache hits/misses exactly;
    /// * failure class (`Error` variant) when either run fails — which
    ///   row of a batch trips a fault first is representation-dependent,
    ///   so messages are allowed to differ, the variant is not. Caught
    ///   panics (from armed failpoints) are folded into
    ///   `Error::Internal`, same as the `Database` boundary does. A work
    ///   budget is checked against each run's total work once its plan
    ///   has run, so both runs succeed or fail under it alike; a
    ///   mid-run check may stop one engine earlier than the other, but
    ///   never decides the outcome alone.
    ///
    /// Returns `Ok(mismatches)` — empty means the engines agree. `Err`
    /// is reserved for failures *before* execution (parse, analysis,
    /// optimization), which neither engine reached.
    pub fn differential_exec(&self, sql: &str, limits: &ExecutionLimits) -> Result<Vec<String>> {
        self.differential_report(sql, limits).map(|r| r.mismatches)
    }

    /// [`differential_exec`](Database::differential_exec), also telling
    /// which join methods the plan ran.
    pub fn differential_report(
        &self,
        sql: &str,
        limits: &ExecutionLimits,
    ) -> Result<DifferentialReport> {
        catch_internal(|| {
            let q = match parse_statement(sql)? {
                Statement::Query(q) => q,
                other => return Err(refused("differential_exec", Accept::Query, &other)),
            };
            let ctx = Ctx {
                governor: &Governor::new(&ExecutionLimits::none(), self.cancel.clone()),
                tracer: Tracer::disabled(),
            };
            let outcome = self.plan_uncached(&q, ctx, StatementPath::Differential)?;

            // each engine runs the same plan allocation under a fresh governor
            let run = |mode| {
                let governor = Governor::new(limits, self.cancel.clone());
                let measure = Measure::Timings;
                catch_internal(|| {
                    self.execute_plan(&outcome.plan, None, &[], &governor, None, measure, mode)
                })
            };
            let mut mismatches = Vec::new();
            let mut joins_ran = JoinsRan::default();
            match (run(ExecutionMode::Vectorized), run(ExecutionMode::Volcano)) {
                // Work, cache counters and per-operator metrics are only
                // comparable when both runs finished: a fault or budget trip
                // stops the two engines at representation-dependent points
                // mid-plan (cumulative totals are identical, intermediate
                // prefixes are not).
                (Ok(vec), Ok(volcano)) => {
                    if let Some(m) = &vec.metrics {
                        joins_ran = JoinsRan::of(&outcome.plan, m);
                    }
                    if vec.rows != volcano.rows {
                        mismatches.push(format!(
                            "result rows differ: vectorized {} row(s), volcano {} row(s){}",
                            vec.rows.len(),
                            volcano.rows.len(),
                            first_row_divergence(&vec.rows, &volcano.rows)
                        ));
                    }
                    let (v, o) = (vec.stats, volcano.stats);
                    if !approx_work(v.work, o.work) {
                        mismatches.push(format!(
                            "total work differs: vectorized {:.3}, volcano {:.3}",
                            v.work, o.work
                        ));
                    }
                    if (v.cache_hits, v.cache_misses) != (o.cache_hits, o.cache_misses) {
                        mismatches.push(format!(
                            "subquery cache counters differ: vectorized {}h/{}m, volcano {}h/{}m",
                            v.cache_hits, v.cache_misses, o.cache_hits, o.cache_misses
                        ));
                    }
                    let snapshot = |run: Executed| run.metrics.unwrap_or_default().snapshot();
                    compare_metrics(&snapshot(vec), &snapshot(volcano), &mut mismatches);
                }
                (Err(ve), Err(oe)) => {
                    if std::mem::discriminant(&ve) != std::mem::discriminant(&oe) {
                        mismatches.push(format!(
                            "error class differs: vectorized {ve:?}, volcano {oe:?}"
                        ));
                    }
                }
                (Ok(vec), Err(oe)) => mismatches.push(format!(
                    "vectorized succeeded ({} row(s)) but volcano failed: {oe:?}",
                    vec.rows.len()
                )),
                (Err(ve), Ok(volcano)) => mismatches.push(format!(
                    "volcano succeeded ({} row(s)) but vectorized failed: {ve:?}",
                    volcano.rows.len()
                )),
            }
            Ok(DifferentialReport {
                mismatches,
                joins_ran,
            })
        })
    }
}

/// What [`Database::differential_report`] found.
#[derive(Debug, Clone, Default)]
pub struct DifferentialReport {
    /// Every divergence between the engines; empty when they agree.
    pub mismatches: Vec<String>,
    /// The join methods of the plan's joins that ran at least once, when
    /// both engines finished.
    pub joins_ran: JoinsRan,
}

/// Which join methods a plan ran: a lateral join (an index nested loop
/// or a lateral view) counts as lateral whatever its method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinsRan {
    pub hash: bool,
    /// A block nested loop over a materialized right side.
    pub nested_loop: bool,
    pub merge: bool,
    pub lateral: bool,
}

impl JoinsRan {
    /// The methods of the joins of `plan` that `metrics` saw execute.
    fn of(plan: &BlockPlan, metrics: &ExecMetrics) -> JoinsRan {
        let mut ran = JoinsRan::default();
        plan.visit_entities(&mut |id, e| {
            let PlanEntity::Node(PlanNode::Join {
                method, lateral, ..
            }) = e
            else {
                return;
            };
            if metrics.get(id).is_none() {
                return;
            }
            match (method, lateral) {
                (_, true) => ran.lateral = true,
                (JoinMethod::Hash, false) => ran.hash = true,
                (JoinMethod::NestedLoop, false) => ran.nested_loop = true,
                (JoinMethod::Merge, false) => ran.merge = true,
            }
        });
        ran
    }
}

/// Work units accumulate identically in both engines up to float
/// association order; compare with a relative tolerance.
fn approx_work(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Points at the first differing row (or a length difference) so a
/// fuzzer failure is actionable without re-running.
fn first_row_divergence(a: &[Row], b: &[Row]) -> String {
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        if ra != rb {
            return format!("; first divergence at row {i}: vectorized {ra:?}, volcano {rb:?}");
        }
    }
    String::new()
}

/// Compares two [`ExecMetrics`](cbqt_exec::ExecMetrics) snapshots taken
/// against the same plan: identical structural node-id sets, exact
/// rows/execs, work to tolerance. Ids are ordinals in canonical plan
/// order, so the snapshots compare pairwise even across allocations.
fn compare_metrics(
    vec: &[(PlanNodeId, OpMetrics)],
    volcano: &[(PlanNodeId, OpMetrics)],
    mismatches: &mut Vec<String>,
) {
    let vec_ids: Vec<PlanNodeId> = vec.iter().map(|(a, _)| *a).collect();
    let volcano_ids: Vec<PlanNodeId> = volcano.iter().map(|(a, _)| *a).collect();
    if vec_ids != volcano_ids {
        mismatches.push(format!(
            "metrics operator sets differ: vectorized recorded {} op(s), volcano {} op(s)",
            vec_ids.len(),
            volcano_ids.len()
        ));
        return;
    }
    for ((id, vm), (_, om)) in vec.iter().zip(volcano.iter()) {
        if vm.rows != om.rows || vm.execs != om.execs {
            mismatches.push(format!(
                "op {id} counters differ: vectorized rows={} execs={}, \
                 volcano rows={} execs={}",
                vm.rows, vm.execs, om.rows, om.execs
            ));
        }
        if !approx_work(vm.work, om.work) {
            mismatches.push(format!(
                "op {id} work differs: vectorized {:.3}, volcano {:.3}",
                vm.work, om.work
            ));
        }
    }
}
