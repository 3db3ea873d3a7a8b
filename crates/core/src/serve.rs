//! The one serving path. Every statement entry point on [`Database`] and
//! [`Session`](crate::Session) fills a [`Request`] and
//! hands it to [`Scope::serve`] (through the projection its signature
//! needs: [`Scope::statement`], [`rows`](Scope::rows),
//! [`report`](Scope::report) or [`plan_text`](Scope::plan_text)), which
//! does each step exactly once: panic boundary → governor → tracer →
//! recipe probe → parse → accept rule → dispatch to query / EXPLAIN /
//! DML / transaction control. A [`Prepared`] query holds its family and
//! goes from the governor and the tracer straight to
//! [`Scope::serve_family`], as a recipe hit does.
//!
//! A statement that runs from its own text first looks for the recipe
//! of its [`Shape`] (see [`cbqt_sql::shape`]). A hit yields the family
//! key, family query and bind values without a parse and goes straight
//! to [`Scope::serve_family`] — or, for an UPDATE or DELETE recipe, to
//! [`Scope::write_family`], where the full route of a write ends too.
//! Anything else takes the full route, and the first successful full
//! route of a shape records its recipe. The query arm
//! ([`Scope::serve_query`]) resolves binds, gets a plan from
//! [`Database::plan_family`] — family key, probe, and on anything but a
//! hit a compile that publishes — and runs it. UPDATE and DELETE get
//! their target plans from the same function. Every plan this crate
//! executes — cached, freshly compiled, EXPLAIN ANALYZE, a DML target
//! scan, either side of the differential oracle — runs through
//! [`Database::execute_plan`].

use crate::plan_cache::{BucketSig, CachedPlan, Lookup, RecipeProbe, Runtime, TableDep};
use crate::{Database, Prepared, QueryResult, QueryStats, StatementResult, TraceReport};
use cbqt_catalog::{selectivity_band, Catalog, FeedbackKey, FeedbackStore, TableId};
use cbqt_common::{
    divergence_ratio, CancelToken, Error, ExecutionLimits, ExecutionMode, Governor, Result, Row,
    TraceBuffer, TraceEvent, Tracer, Value,
};
use cbqt_exec::{Engine, ExecMetrics, ExecStats, ProgramSet};
use cbqt_optimizer::{BlockPlan, CardFeedback, DynamicSampler, SamplingCache};
use cbqt_qgm::{
    build_query_tree, build_query_tree_with_binds, collect_base_tables, collect_bind_sites,
    BindSite, BindSiteOp, QueryTree,
};
use cbqt_sql::ast::{self, Source, Statement};
use cbqt_sql::{
    count_params, parameterize, parse_statement, render_query, Recipe, RecipeKind, Shape,
};
use cbqt_storage::Storage;
use cbqt_transform::{optimize_query_feedback, CbqtOutcome};
use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Who is asking: the database a statement runs against, the cancel
/// token its governor observes and the transaction slot it reads and
/// writes through. [`Database::scope`] lends the database's own token
/// and slot, [`Session::scope`](crate::Session) the session's — nothing
/// else distinguishes the two handles.
#[derive(Clone, Copy)]
pub(crate) struct Scope<'a> {
    pub(crate) db: &'a Database,
    pub(crate) cancel: &'a CancelToken,
    pub(crate) slot: &'a Mutex<Option<u64>>,
}

/// What one statement runs under, from the first step of
/// [`Scope::serve`] to the last: the governor that budgets and
/// interrupts it and the tracer that collects its events.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'s> {
    pub(crate) governor: &'s Governor,
    pub(crate) tracer: Tracer<'s>,
}

/// Which statement kinds an entry point serves, and — for the two
/// kinds every read entry point shares — how.
#[derive(Clone, Copy)]
pub(crate) enum Accept {
    /// A query, run.
    Query,
    /// A query, run, or an EXPLAIN, explained.
    Read,
    /// A query or an EXPLAIN; either way the query is run (`trace`).
    Run,
    /// A query or an EXPLAIN; either way the query is explained, as
    /// text (`explain` / `explain_analyze`).
    Explain { analyze: bool },
    /// Everything that runs under a shared borrow of the database:
    /// what [`Accept::Read`] serves, DML and transaction control. DDL
    /// and ANALYZE rewrite the catalog and need `&mut Database`.
    Shared,
}

impl Accept {
    fn admits(self, stmt: &Statement) -> bool {
        match stmt {
            Statement::Query(_) => true,
            Statement::Explain { .. } => !matches!(self, Accept::Query),
            Statement::CreateTable(_) | Statement::CreateIndex(_) | Statement::Analyze => false,
            _ => matches!(self, Accept::Shared),
        }
    }

    /// Whether a recipe of `kind` may serve a request: a write's only
    /// under [`Accept::Shared`]. Any other entry point declines it, so
    /// the statement is parsed and refused by [`admits`](Accept::admits)
    /// exactly as it is without a recipe.
    fn admits_recipe(self, kind: &RecipeKind) -> bool {
        matches!(kind, RecipeKind::Query) || matches!(self, Accept::Shared)
    }

    /// Whether to explain the query of `stmt` — a query, or an EXPLAIN
    /// of one — instead of running it, and if so whether with ANALYZE.
    fn explains(self, stmt: &Statement) -> Option<bool> {
        let written = match stmt {
            Statement::Explain { analyze, .. } => Some(*analyze),
            _ => None,
        };
        match self {
            Accept::Run => None,
            Accept::Explain { analyze } => Some(analyze || written == Some(true)),
            _ => written,
        }
    }
}

/// The one error a statement kind is refused with, before anything
/// runs.
pub(crate) fn refused(entry: &str, accept: Accept, stmt: &Statement) -> Error {
    let wants = match accept {
        Accept::Shared => "a query, DML or transaction control",
        _ => "a query",
    };
    Error::unsupported(format!(
        "{entry} requires {wants}, got {}",
        statement_kind(stmt)
    ))
}

/// One statement to serve.
pub(crate) struct Request<'r> {
    /// The public method asked, for the refusal message.
    entry: &'static str,
    /// The statement text: parsed unless `stmt` is set.
    sql: &'r str,
    /// The statement, when the caller has parsed it already (a script
    /// statement).
    stmt: Option<Statement>,
    /// Explicit values for the query's `?` parameters.
    binds: Option<&'r [Value]>,
    limits: ExecutionLimits,
    /// Collect the statement's trace events ([`Scope::report`] sets it).
    traced: bool,
    accept: Accept,
}

impl<'r> Request<'r> {
    pub(crate) fn new(entry: &'static str, sql: &'r str, accept: Accept) -> Request<'r> {
        Request {
            entry,
            sql,
            stmt: None,
            binds: None,
            limits: ExecutionLimits::none(),
            traced: false,
            accept,
        }
    }

    pub(crate) fn parsed(self, stmt: Statement) -> Request<'r> {
        Request {
            stmt: Some(stmt),
            ..self
        }
    }

    pub(crate) fn binds(self, binds: &'r [Value]) -> Request<'r> {
        Request {
            binds: Some(binds),
            ..self
        }
    }

    pub(crate) fn limits(self, limits: ExecutionLimits) -> Request<'r> {
        Request { limits, ..self }
    }
}

/// What a served statement produced.
enum Output {
    Statement(StatementResult),
    /// EXPLAIN text, not yet cut into `PLAN` rows.
    Plan(String),
}

impl<'a> Scope<'a> {
    /// Serves one statement — see the module docs for the steps — and
    /// returns its output with, for a traced request, its events.
    fn serve(self, req: Request<'_>) -> Result<(Output, Vec<TraceEvent>)> {
        self.framed(req.limits, req.traced, |ctx| self.dispatch(req, ctx))
    }

    /// Runs `f` in the frame every statement is served in: the panic
    /// boundary, a governor over `limits`, and a tracer when `traced`.
    fn framed<T>(
        self,
        limits: ExecutionLimits,
        traced: bool,
        f: impl FnOnce(Ctx<'_>) -> Result<T>,
    ) -> Result<(T, Vec<TraceEvent>)> {
        catch_internal(|| {
            // the wall clock of a deadline starts before the parse
            let governor = Governor::new(&limits, self.cancel.clone());
            let buffer = traced.then(TraceBuffer::new);
            let tracer = buffer
                .as_ref()
                .map_or(Tracer::disabled(), |b| Tracer::new(b));
            let ctx = Ctx {
                governor: &governor,
                tracer,
            };
            let output = f(ctx)?;
            Ok((output, buffer.map_or_else(Vec::new, |b| b.take())))
        })
    }

    /// Recipe probe, parse, accept rule and dispatch: the steps of
    /// [`serve`](Scope::serve) after the governor and the tracer.
    fn dispatch(self, req: Request<'_>, ctx: Ctx<'_>) -> Result<Output> {
        let rows = |r| Output::Statement(StatementResult::Rows(r));
        let affected = |n| Output::Statement(StatementResult::RowsAffected(n));
        let txn = |()| Output::Statement(StatementResult::Txn);
        let mut record = None;
        if let Some(shape) = self.recipe_shape(&req) {
            let admits = |kind: &RecipeKind| req.accept.admits_recipe(kind);
            match self.db.plan_cache.recipe(req.sql, &shape, admits) {
                RecipeProbe::Hit { recipe, binds } => {
                    #[cfg(debug_assertions)]
                    self.db.assert_full_route_agrees(req.sql, &recipe, &binds);
                    let key = Some(recipe.key().to_string());
                    let fam = recipe.family();
                    return Ok(match recipe.kind() {
                        RecipeKind::Query => rows(self.serve_family(key, fam, &binds, ctx)?),
                        RecipeKind::Write { dml, table } => {
                            let t = self.db.table_named(table)?;
                            affected(self.write_family(*dml, t, key, fam, &binds, ctx)?)
                        }
                    });
                }
                RecipeProbe::Absent => record = Some(shape),
                RecipeProbe::Declined => {}
            }
        }
        let stmt = match req.stmt {
            Some(stmt) => stmt,
            None => parse_statement(req.sql)?,
        };
        if !req.accept.admits(&stmt) {
            return Err(refused(req.entry, req.accept, &stmt));
        }
        // reads (a query, an EXPLAIN) run from a borrow of the statement;
        // writes and transaction control consume it
        Ok(match &stmt {
            Statement::Query(q) | Statement::Explain { query: q, .. } => {
                match req.accept.explains(&stmt) {
                    None => {
                        // an EXPLAIN run as its query (`trace`) must not
                        // teach its shape to run
                        let record = record.filter(|_| matches!(stmt, Statement::Query(_)));
                        rows(self.serve_query(req.sql, q, req.binds, record, ctx)?)
                    }
                    Some(analyze) => Output::Plan(self.explain_query(q, analyze, ctx.governor)?),
                }
            }
            _ => match stmt {
                Statement::Insert(ins) => affected(self.insert(ins, ctx)?),
                w @ (Statement::Update(_) | Statement::Delete(_)) => {
                    affected(self.write(w, req.sql, record, ctx)?)
                }
                Statement::Begin => self.begin(ctx.tracer).map(txn)?,
                Statement::Commit => self.commit(ctx.tracer).map(txn)?,
                Statement::Rollback => self.rollback(ctx.tracer).map(txn)?,
                other => unreachable!("{} passed the accept rule", statement_kind(&other)),
            },
        })
    }

    /// The shape a request probes recipes with: only a statement that
    /// runs from its own text — not pre-parsed, no explicit binds, not
    /// explained — and only while recipes' route, the plan cache, is on.
    /// Whether the recipe found may serve the request is
    /// [`Accept::admits_recipe`]'s call.
    fn recipe_shape(self, req: &Request<'_>) -> Option<Shape> {
        let runs_text = req.stmt.is_none()
            && req.binds.is_none()
            && !matches!(req.accept, Accept::Explain { .. });
        (runs_text && self.db.plan_cache_enabled).then(|| Shape::of(req.sql))?
    }

    /// [`serve`](Scope::serve) for the wrappers that return whatever
    /// the statement produced.
    pub(crate) fn statement(self, req: Request<'_>) -> Result<StatementResult> {
        Ok(match self.serve(req)?.0 {
            Output::Statement(r) => r,
            Output::Plan(text) => StatementResult::Rows(QueryResult {
                columns: vec!["PLAN".to_string()],
                rows: text.lines().map(|l| vec![Value::str(l)]).collect(),
                stats: QueryStats::default(),
            }),
        })
    }

    /// [`serve`](Scope::serve) for the wrappers that return rows; their
    /// accept rule admits only statements that produce them.
    pub(crate) fn rows(self, req: Request<'_>) -> Result<QueryResult> {
        let rows = self.statement(req)?.into_rows();
        rows.ok_or_else(|| Error::internal("the accept rule admitted a statement without rows"))
    }

    /// [`serve`](Scope::serve) for `explain` / `explain_analyze`.
    pub(crate) fn plan_text(self, req: Request<'_>) -> Result<String> {
        match self.serve(req)?.0 {
            Output::Plan(text) => Ok(text),
            Output::Statement(_) => Err(Error::internal("Accept::Explain ran a statement")),
        }
    }

    /// [`serve`](Scope::serve) with the trace collected. The report's
    /// stats are those of the query the statement ran, zeroes for any
    /// other statement.
    pub(crate) fn report(self, req: Request<'_>) -> Result<TraceReport> {
        let (output, events) = self.serve(Request {
            traced: true,
            ..req
        })?;
        let stats = match output {
            Output::Statement(StatementResult::Rows(r)) => r.stats,
            _ => QueryStats::default(),
        };
        Ok(TraceReport { events, stats })
    }

    /// Parses and normalizes a query for repeated execution in this
    /// scope (see [`Database::prepare`]).
    pub(crate) fn prepare(self, sql: &str) -> Result<Prepared<'a>> {
        catch_internal(|| {
            let q = match parse_statement(sql)? {
                Statement::Query(q) => q,
                other => return Err(refused("prepare", Accept::Query, &other)),
            };
            let (family, defaults) = if count_params(&q) > 0 {
                (*q, Vec::new())
            } else {
                let p = parameterize(&q);
                (p.query, p.binds)
            };
            Ok(Prepared {
                scope: self,
                sql: sql.to_string(),
                key: self.db.family_key(&family),
                param_count: count_params(&family),
                family,
                defaults,
            })
        })
    }

    /// Runs a [`Prepared`] query's family with `binds` bound, in the frame
    /// of [`serve`](Scope::serve), as a recipe hit is served.
    pub(crate) fn serve_prepared(self, p: &Prepared<'_>, binds: &[Value]) -> Result<QueryResult> {
        let (rows, _) = self.framed(ExecutionLimits::none(), false, |ctx| {
            check_bind_count(p.param_count, binds.len())?;
            self.serve_family(p.key.clone(), &p.family, binds, ctx)
        })?;
        Ok(rows)
    }

    /// The query arm: resolve the query's bind parameters (explicit `?`
    /// values, or literals extracted at normalization time) and its
    /// family key, then [`serve_family`](Scope::serve_family). With
    /// `record`, the shape of `sql` had no recipe: one is derived from
    /// this route and recorded once the statement has run.
    fn serve_query(
        self,
        sql: &str,
        q: &ast::Query,
        binds: Option<&[Value]>,
        record: Option<Shape>,
        ctx: Ctx<'_>,
    ) -> Result<QueryResult> {
        let db = self.db;
        let (fam, values, sources) = db.resolve_binds(q, binds)?;
        let key = db.family_key(&fam);
        let (Some(shape), Some(recipe_key)) = (record, key.clone()) else {
            return self.serve_family(key, &fam, &values, ctx);
        };
        let fam = fam.into_owned();
        let result = self.serve_family(key, &fam, &values, ctx)?;
        let kind = RecipeKind::Query;
        if let Some(recipe) = Recipe::derive(sql, &shape, kind, recipe_key, fam, &sources) {
            db.plan_cache.insert_recipe(shape, recipe);
        }
        Ok(result)
    }

    /// Gets a plan for the family `fam` ([`Database::plan_family`]) and
    /// runs it with `values` bound.
    fn serve_family(
        self,
        key: Option<String>,
        fam: &ast::Query,
        values: &[Value],
        ctx: Ctx<'_>,
    ) -> Result<QueryResult> {
        let db = self.db;
        let txn = self.open_txn();
        let planned = db.plan_family(key, fam, values, ctx)?;
        let (exec, diverged) = db.run_plan(&planned, values, ctx.governor, txn)?;
        db.settle_variant(&planned, diverged);
        let columns = (*planned.columns).clone();
        Ok(query_result(
            columns,
            &planned.plan,
            exec,
            values.len(),
            planned.search,
        ))
    }
}

/// A query's plan family, its bind values and where extracted ones were read.
type Resolved<'q> = (Cow<'q, ast::Query>, Vec<Value>, Vec<Option<Source>>);

/// A plan for one query family (see [`Database::plan_family`]).
pub(crate) struct Planned {
    pub(crate) plan: Arc<BlockPlan>,
    columns: Arc<Vec<String>>,
    pub(crate) runtime: Arc<Runtime>,
    /// What compiling the plan measured; `None` for a cache hit.
    pub(crate) search: Option<QueryStats>,
    /// The key and bucket of the plan's cache variant, when it has one.
    variant: Option<(String, BucketSig)>,
}

/// One execution of a plan by [`Database::execute_plan`].
pub(crate) struct Executed {
    pub(crate) rows: Vec<Row>,
    pub(crate) stats: ExecStats,
    pub(crate) elapsed: Duration,
    /// What the engine measured per operator, if asked to.
    pub(crate) metrics: Option<ExecMetrics>,
}

/// How much an execution measures per operator.
#[derive(Clone, Copy)]
pub(crate) enum Measure {
    Nothing,
    /// Row and execution counts — what the feedback harvest reads.
    Counts,
    /// Counts plus per-operator wall time (EXPLAIN ANALYZE).
    Timings,
}

/// The result of a served query. `search` is the half of the stats
/// that compiling the plan filled in; a cached plan has none. The
/// execution half is filled in here.
fn query_result(
    columns: Vec<String>,
    plan: &BlockPlan,
    exec: Executed,
    bind_params: usize,
    search: Option<QueryStats>,
) -> QueryResult {
    QueryResult {
        columns,
        rows: exec.rows,
        stats: QueryStats {
            execute_time: exec.elapsed,
            work_units: exec.stats.work,
            estimated_cost: plan.cost,
            subquery_cache_hits: exec.stats.cache_hits,
            subquery_cache_misses: exec.stats.cache_misses,
            plan_cache_hit: search.is_none(),
            bind_params,
            ..search.unwrap_or_default()
        },
    }
}

impl Database {
    /// Runs `plan` on a fresh engine — all mutable execution state
    /// lives there — reading as of the latest committed snapshot, or,
    /// inside transaction `txn`, as of its begin watermark plus its own
    /// uncommitted writes. The engine and the snapshot it pins are gone
    /// when this returns. `programs` is the plan's compiled program set
    /// when it has one (a planned query or DML target); without it the
    /// engine compiles one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_plan(
        &self,
        plan: &BlockPlan,
        programs: Option<&Arc<ProgramSet>>,
        binds: &[Value],
        governor: &Governor,
        txn: Option<u64>,
        measure: Measure,
        mode: ExecutionMode,
    ) -> Result<Executed> {
        let t0 = Instant::now();
        let mut engine = match txn {
            Some(t) => Engine::with_snapshot(&self.catalog, self.storage.txn_snapshot(t)?),
            None => Engine::new(&self.catalog, &self.storage),
        };
        engine.set_mode(mode);
        engine.set_governor(governor.clone());
        engine.set_params(binds);
        match measure {
            Measure::Nothing => {}
            Measure::Counts => engine.enable_metrics_light(),
            Measure::Timings => engine.enable_metrics(),
        }
        let rows = match programs {
            Some(programs) => engine.run_programs(plan, programs)?,
            None => engine.run(plan)?,
        };
        Ok(Executed {
            rows,
            elapsed: t0.elapsed(),
            stats: engine.stats(),
            metrics: engine.take_metrics(),
        })
    }

    /// Executes a served query's plan and harvests cardinality feedback
    /// from it; also returns whether the harvest saw an estimate off by
    /// [`DIVERGENCE_RATIO`] or more. In-transaction reads
    /// never harvest: observed cardinalities over uncommitted data must
    /// not steer recompiles of statements reading committed state.
    fn run_plan(
        &self,
        planned: &Planned,
        binds: &[Value],
        governor: &Governor,
        txn: Option<u64>,
    ) -> Result<(Executed, bool)> {
        let (plan, runtime) = (&planned.plan, &planned.runtime);
        let measure = if self.config.feedback.enabled && txn.is_none() {
            Measure::Counts
        } else {
            Measure::Nothing
        };
        let (programs, mode) = (Some(&runtime.programs), self.config.execution_mode);
        let exec = self.execute_plan(plan, programs, binds, governor, txn, measure, mode)?;
        let diverged = exec
            .metrics
            .as_ref()
            .is_some_and(|m| self.harvest_feedback(runtime, m, binds) >= DIVERGENCE_RATIO);
        Ok((exec, diverged))
    }

    /// Checks explicit bind values against the query's `?` count, or —
    /// without explicit values, while the plan cache is on — extracts
    /// the query's predicate literals into binds. Returns the query of
    /// the plan family, the values to install and, for extracted ones,
    /// where the parser read each.
    fn resolve_binds<'q>(
        &self,
        q: &'q ast::Query,
        binds: Option<&[Value]>,
    ) -> Result<Resolved<'q>> {
        let n = count_params(q);
        match binds {
            Some(vals) if n > 0 || !vals.is_empty() => {
                check_bind_count(n, vals.len())?;
                Ok((Cow::Borrowed(q), vals.to_vec(), Vec::new()))
            }
            _ if n > 0 => Err(Error::analysis(format!(
                "statement has {n} bind parameter(s); supply values \
                 via query_bound or a prepared statement"
            ))),
            _ if self.plan_cache_enabled => {
                let p = parameterize(q);
                Ok((Cow::Owned(p.query), p.binds, p.sources))
            }
            _ => Ok((Cow::Borrowed(q), Vec::new(), Vec::new())),
        }
    }

    /// One selectivity band per bind site ([`selectivity_band`]) of the
    /// site's predicate under the incoming bind value. Bind vectors
    /// landing in the same bands share a cached plan; a vector landing
    /// elsewhere compiles a sibling.
    /// Unanalyzed tables put every value into one band (naive sharing
    /// until ANALYZE provides the statistics ACS needs).
    fn bucket_sig(&self, sites: &[BindSite], binds: &[Value]) -> BucketSig {
        let band = |site: &BindSite| {
            let v = binds.get(site.slot)?;
            let t = self.catalog.table(site.table).ok()?;
            let cs = t.stats.column(site.column).filter(|_| t.stats.analyzed)?;
            Some(selectivity_band(match site.op {
                BindSiteOp::Eq => cs.eq_selectivity(t.stats.rows, Some(v)),
                BindSiteOp::Lt { inclusive } => cs.range_selectivity(v, true, inclusive),
                BindSiteOp::Gt { inclusive } => cs.range_selectivity(v, false, inclusive),
            }))
        };
        sites.iter().map(|s| band(s).unwrap_or(0)).collect()
    }

    /// The plan-cache key of the family `fam` — its canonical render —
    /// or `None` to compile it uncached, while the plan cache is off.
    pub(crate) fn family_key(&self, fam: &ast::Query) -> Option<String> {
        self.plan_cache_enabled.then(|| render_query(fam))
    }

    /// Gets a plan for the family `fam`, with `binds` peeked for
    /// costing: probes the plan cache under `key` and serves a hit; on
    /// a miss, an invalidation, a bind-bucket mismatch or a feedback
    /// reoptimization runs the full CBQT pipeline and publishes the
    /// result as the variant for the binds' selectivity bucket. Without
    /// a key it compiles and publishes nothing. Queries and UPDATE /
    /// DELETE targets both get their plans here.
    pub(crate) fn plan_family(
        &self,
        key: Option<String>,
        fam: &ast::Query,
        binds: &[Value],
        ctx: Ctx<'_>,
    ) -> Result<Planned> {
        let Some(key) = key else {
            return self.compile(fam, binds, ctx, None, false);
        };
        let tracer = ctx.tracer;
        let version = self.catalog.version();
        // side-channel: remember the bucket the probe computed, so a
        // post-execution divergence can mark exactly that variant suspect
        let mut probe_sig: Option<BucketSig> = None;
        let lookup = self.plan_cache.lookup(
            &key,
            |sites| {
                let sig = self.bucket_sig(sites, binds);
                probe_sig = Some(sig.clone());
                sig
            },
            |deps| self.deps_current(deps),
        );
        // every arm but the hit recompiles; they differ in their trace
        // event, in whether feedback asked for the recompile and in
        // whether a sibling joins the family
        let (reopt, siblings) = match lookup {
            Lookup::Hit(cached) => {
                tracer.emit(|| TraceEvent::PlanCacheHit {
                    key: key.clone(),
                    version: cached.version,
                });
                return Ok(Planned {
                    plan: cached.plan,
                    columns: cached.columns,
                    runtime: cached.runtime,
                    search: None,
                    variant: probe_sig.map(|sig| (key, sig)),
                });
            }
            // the variant was marked suspect by a previous execution's
            // divergence; recompile with the feedback store's observed
            // cardinalities and republish under the same bucket
            Lookup::Reoptimize { cached: _, sig } => {
                tracer.emit(|| TraceEvent::PlanCacheReoptimize {
                    key: key.clone(),
                    bucket: format!("{sig:?}"),
                });
                (true, None)
            }
            Lookup::Invalidated { cached_version } => {
                tracer.emit(|| TraceEvent::PlanCacheInvalidated {
                    key: key.clone(),
                    cached_version,
                    current_version: version,
                });
                (false, None)
            }
            Lookup::BindMismatch { sig, variants } => {
                tracer.emit(|| TraceEvent::PlanCacheBindMismatch {
                    key: key.clone(),
                    bucket: format!("{sig:?}"),
                });
                (false, Some(variants))
            }
            Lookup::Miss => {
                tracer.emit(|| TraceEvent::PlanCacheMiss { key: key.clone() });
                (false, None)
            }
        };
        let mut planned = self.compile(fam, binds, ctx, Some((key, version)), reopt)?;
        if let (Some(variants), Some(search)) = (siblings, planned.search.as_mut()) {
            search.bind_mismatch = true;
            // degraded plans are not published, so no sibling joined
            // the family
            if let (false, Some((key, _))) = (search.degraded, &planned.variant) {
                tracer.emit(|| TraceEvent::PlanCacheFamilySplit {
                    key: key.clone(),
                    variants: variants + 1,
                });
            }
        }
        Ok(planned)
    }

    /// Whether a cached plan's table dependencies still hold: every
    /// table has the shape it was compiled against, and a live row
    /// count within the feedback divergence ratio of the recorded one.
    /// Atomic loads only — this runs on every cache hit.
    fn deps_current(&self, deps: &[TableDep]) -> bool {
        deps.iter().all(|d| {
            let live = self.catalog.live_rows(d.table);
            self.catalog.shape_version(d.table) == d.shape
                && divergence_ratio(d.rows as f64, live as f64) < DIVERGENCE_RATIO
        })
    }

    /// Full transformation + optimization of `q`, with `binds` peeked by
    /// the estimator. When `cache_as` is set, the compiled plan is
    /// published to the plan cache under that key as the variant for
    /// the binds' selectivity bucket, with the [`TableDep`]s of the
    /// tables it reads — DDL needs `&mut self`, so shapes cannot move
    /// under a running `&self` statement. A degraded plan is not
    /// published.
    fn compile(
        &self,
        q: &ast::Query,
        binds: &[Value],
        ctx: Ctx<'_>,
        cache_as: Option<(String, u64)>,
        reopt: bool,
    ) -> Result<Planned> {
        let tree = build_query_tree_with_binds(&self.catalog, q, binds)?;
        let columns = Arc::new(tree.block(tree.root)?.output_names(&tree));
        // bind sites and table dependencies come from the
        // pre-transformation tree (transforms treat binds as opaque
        // scalars and never add base tables)
        let (sites, deps) = if cache_as.is_some() {
            let deps: Vec<TableDep> = collect_base_tables(&tree)
                .into_iter()
                .map(|table| TableDep {
                    table,
                    shape: self.catalog.shape_version(table),
                    rows: self.catalog.live_rows(table),
                })
                .collect();
            (collect_bind_sites(&tree), deps)
        } else {
            (Vec::new(), Vec::new())
        };

        let t0 = Instant::now();
        let outcome = self.optimize(&tree, ctx)?;
        let search = QueryStats {
            optimize_time: t0.elapsed(),
            states_explored: outcome.states_explored,
            cutoffs: outcome.cutoffs,
            blocks_costed: outcome.optimizer_stats.blocks_costed,
            annotation_hits: outcome.optimizer_stats.annotation_hits,
            degraded: outcome.degraded,
            reoptimized: reopt,
            ..QueryStats::default()
        };
        // the final plan's programs, compiled once for every execution
        let runtime = Arc::new(Runtime::of(&outcome.plan));
        let plan = Arc::new(outcome.plan);
        let variant = cache_as.map(|(key, version)| {
            let sig = self.bucket_sig(&sites, binds);
            // A degraded plan is valid but reflects a truncated search;
            // keep it out of the shared cache so unbudgeted statements
            // never pay for one statement's tight optimizer budget.
            if !search.degraded {
                self.plan_cache.insert(
                    key.clone(),
                    sig.clone(),
                    Arc::new(sites),
                    CachedPlan {
                        plan: Arc::clone(&plan),
                        columns: Arc::clone(&columns),
                        version,
                        deps: Arc::new(deps),
                        runtime: Arc::clone(&runtime),
                    },
                );
            }
            (key, sig)
        });
        Ok(Planned {
            plan,
            columns,
            runtime,
            search: Some(search),
            variant,
        })
    }

    /// What a served query's execution says about its cache variant: a
    /// plan whose estimates `diverged` from the actuals is marked
    /// suspect, so the next probe recompiles it with feedback. A
    /// feedback-informed recompile that still diverges, or that degraded
    /// and was not published (the old variant keeps serving), pins the
    /// variant instead, so suspect marks can never loop one query
    /// through the optimizer.
    fn settle_variant(&self, planned: &Planned, diverged: bool) {
        let Some((key, sig)) = &planned.variant else {
            return;
        };
        let (reopt, degraded) = planned
            .search
            .as_ref()
            .map_or((false, false), |s| (s.reoptimized, s.degraded));
        if reopt && (degraded || diverged) {
            self.plan_cache.block_reopt(key, sig);
        } else if diverged && !degraded {
            self.plan_cache.mark_suspect(key, sig);
        }
    }

    /// Compiles a query *without* touching the bind-family plan cache:
    /// no literal extraction, no probe, no publish. EXPLAIN and the
    /// differential oracle compile through here: EXPLAIN output must
    /// show the plan for the literal text as written, and the oracle
    /// must hand both engines a fresh, cache-independent plan.
    pub(crate) fn plan_uncached(&self, q: &ast::Query, ctx: Ctx<'_>) -> Result<CbqtOutcome> {
        let tree = build_query_tree(&self.catalog, q)?;
        self.optimize(&tree, ctx)
    }

    fn optimize(&self, tree: &QueryTree, ctx: Ctx<'_>) -> Result<CbqtOutcome> {
        // dynamic sampling (§3.4.4): tables without statistics are sized
        // by probing storage. A sample is reused by every CBQT state of
        // this call and forgotten after it, so a table that grows is
        // sampled afresh by the next compile.
        let sampling = SamplingCache::default();
        let sampler = StorageSampler {
            catalog: &self.catalog,
            storage: &self.storage,
        };
        // cardinality feedback: observed base-scan cardinalities from
        // earlier executions override the estimator's NDV guesses. An
        // empty store returns no hits, so first compiles are unchanged.
        let source = FeedbackSource {
            store: &self.feedback,
            catalog: &self.catalog,
        };
        let feedback = self
            .config
            .feedback
            .enabled
            .then_some(&source as &dyn CardFeedback);
        optimize_query_feedback(
            tree,
            &self.catalog,
            &self.config,
            &sampling,
            Some(&sampler),
            feedback,
            ctx.tracer,
            ctx.governor,
        )
    }

    /// Post-execution feedback harvest: records each eligible base
    /// scan's observed per-execution cardinality in the feedback store
    /// and returns the worst estimate-vs-actual [`divergence_ratio`]
    /// seen (1.0 when nothing was eligible). Scans whose residual
    /// filters are ineligible for a feedback key — e.g. they carry
    /// bound equi-join probes referencing other refids — were left out
    /// of the [`Runtime`], mirroring the eligibility the estimator
    /// applies on recompile.
    fn harvest_feedback(&self, runtime: &Runtime, metrics: &ExecMetrics, binds: &[Value]) -> f64 {
        debug_assert!(metrics.matches(runtime.index()));
        let mut worst = 1.0_f64;
        for (id, estimate, shape) in &runtime.scans {
            let Some(m) = metrics.get(*id) else {
                continue;
            };
            let key = shape.key(&self.catalog, binds);
            let observed = m.rows_per_exec();
            let version = self.catalog.table_version(key.table);
            self.feedback.observe(key, observed, version);
            worst = worst.max(divergence_ratio(*estimate, observed));
        }
        worst
    }

    /// Serves `sql` the full way and checks that it gets the family key,
    /// family and bind values its recipe gave it: a query through
    /// [`resolve_binds`](Database::resolve_binds), an UPDATE or DELETE
    /// through the target-query builder of its full route.
    #[cfg(debug_assertions)]
    fn assert_full_route_agrees(&self, sql: &str, recipe: &Recipe, binds: &[Value]) {
        let stmt = parse_statement(sql).expect("a recipe's statement parses");
        let (fam, values, key) = match (stmt, recipe.kind()) {
            (Statement::Query(q), RecipeKind::Query) => {
                let (fam, values, _) = self
                    .resolve_binds(&q, None)
                    .expect("binds of a recipe's query");
                let key = self.family_key(&fam);
                (fam.into_owned(), values, key)
            }
            (stmt, RecipeKind::Write { dml, table }) => {
                let (written, t, query) = self
                    .dml_target(stmt)
                    .expect("the target query of a recipe's write");
                assert_eq!(written, *dml, "recipe kind of {sql:?}");
                assert!(
                    t.name.eq_ignore_ascii_case(table),
                    "recipe table of {sql:?}"
                );
                let (p, key) = self.dml_family(query);
                (p.query, p.binds, key)
            }
            (stmt, kind) => panic!(
                "a {kind:?} recipe served {sql:?}, a {}",
                statement_kind(&stmt)
            ),
        };
        assert_eq!(key.as_deref(), Some(recipe.key()), "recipe key of {sql:?}");
        // `Debug` shows the variant: `5` and `5.0` differ
        assert_eq!(
            format!("{values:?}"),
            format!("{binds:?}"),
            "recipe binds of {sql:?}"
        );
        assert!(fam == *recipe.family(), "recipe family of {sql:?}");
    }
}

/// Statement-level panic boundary: an unexpected panic inside parsing,
/// optimization, or execution (a bug — or an injected fault, see
/// `cbqt_common::failpoint`) is caught here and surfaced as
/// `Error::Internal` instead of unwinding through the embedding
/// application. All shared caches recover from lock poisoning (the plan
/// cache clears a poisoned shard; the sampling cache and trace buffer
/// keep their contents), so the database stays usable afterwards.
pub(crate) fn catch_internal<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(Error::internal(format!("statement panicked: {msg}")))
        }
    }
}

/// The error for `got` bind values given to a statement with `n` bind
/// parameters, if they do not match.
fn check_bind_count(n: usize, got: usize) -> Result<()> {
    let msg = match n {
        _ if got == n => return Ok(()),
        0 => format!("statement has no bind parameters but {got} value(s) were supplied"),
        _ => format!("statement expects {n} bind value(s), got {got}"),
    };
    Err(Error::analysis(msg))
}

/// A cached plan is marked suspect (recompiled on its next probe, with
/// the observed actuals fed back) when a scan's estimate and actual rows
/// diverge by at least this symmetric ratio, both floored at one row,
/// and dropped once a table it reads has drifted that far in size.
const DIVERGENCE_RATIO: f64 = 10.0;

/// Human-readable kind of a statement, for error messages.
pub(crate) fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Query(_) => "SELECT",
        Statement::Explain { .. } => "EXPLAIN",
        Statement::CreateTable(_) => "CREATE TABLE",
        Statement::CreateIndex(_) => "CREATE INDEX",
        Statement::Insert(_) => "INSERT",
        Statement::Update(_) => "UPDATE",
        Statement::Delete(_) => "DELETE",
        Statement::Analyze => "ANALYZE",
        Statement::Begin => "BEGIN",
        Statement::Commit => "COMMIT",
        Statement::Rollback => "ROLLBACK",
    }
}

/// Dynamic sampling over the in-memory storage (§3.4.4): scans a bounded
/// sample of an unanalyzed table to estimate its cardinality.
struct StorageSampler<'a> {
    catalog: &'a Catalog,
    storage: &'a Storage,
}

impl DynamicSampler for StorageSampler<'_> {
    fn sample(&self, table: TableId, _conjuncts_key: &str) -> Option<(f64, f64)> {
        let _ = self.catalog.table(table).ok()?;
        let rows = self.storage.row_count(table);
        Some((rows as f64, 1.0))
    }
}

/// Adapter feeding the database's [`FeedbackStore`] to the optimizer's
/// [`CardFeedback`] hook. Staleness is enforced at lookup time: entries
/// observed against an older table version are discarded, never served.
struct FeedbackSource<'a> {
    store: &'a FeedbackStore,
    catalog: &'a Catalog,
}

impl CardFeedback for FeedbackSource<'_> {
    fn observed_rows(&self, key: &FeedbackKey) -> Option<f64> {
        self.store
            .lookup(key, self.catalog.table_version(key.table))
    }
}
