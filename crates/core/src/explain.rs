//! The single EXPLAIN formatter behind `explain`, `explain_analyze` and
//! the SQL `EXPLAIN [ANALYZE]` statement.

use crate::serve::{Ctx, Measure, Scope};
use cbqt_common::{Governor, Result, Tracer};
use cbqt_optimizer::PlanIndex;
use cbqt_qgm::render_tree;
use cbqt_sql::ast;

impl Scope<'_> {
    /// The transformed query text, the transformation decisions and the
    /// physical plan of `query`; with `analyze`, the query is also
    /// executed and the plan annotated with what each operator did.
    pub(crate) fn explain_query(
        self,
        query: &ast::Query,
        analyze: bool,
        governor: &Governor,
    ) -> Result<String> {
        let db = self.db;
        let ctx = Ctx {
            governor,
            tracer: Tracer::disabled(),
        };
        let outcome = db.plan_uncached(query, ctx)?;
        let mut out = String::new();
        out.push_str("== transformed query ==\n");
        out.push_str(&render_tree(&outcome.tree, &db.catalog));
        out.push_str("\n\n== transformation decisions ==\n");
        if outcome.decisions.is_empty() {
            out.push_str("(none applicable)\n");
        }
        for (name, d) in &outcome.decisions {
            out.push_str(&format!("{name}: {d}\n"));
        }
        out.push_str(&format!("heuristics: {}\n", outcome.heuristics.summary()));
        if analyze {
            let (measure, mode) = (Measure::Timings, db.config.execution_mode);
            let txn = self.open_txn();
            let exec = db.execute_plan(&outcome.plan, None, &[], governor, txn, measure, mode)?;
            let metrics = exec.metrics.unwrap_or_default();
            debug_assert!(metrics.matches(&PlanIndex::build(&outcome.plan)));
            out.push_str("\n== physical plan (analyzed) ==\n");
            out.push_str(
                &outcome
                    .plan
                    .explain_annotated(&mut |id, _| metrics.annotate(id)),
            );
            out.push_str(&format!(
                "\nexecution: {} row(s), {:.0} work unit(s), {:.3} ms, engine={}\n",
                exec.rows.len(),
                exec.stats.work,
                exec.elapsed.as_secs_f64() * 1e3,
                mode,
            ));
        } else {
            out.push_str("\n== physical plan ==\n");
            out.push_str(&outcome.plan.explain());
        }
        Ok(out)
    }
}
