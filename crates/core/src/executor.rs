//! Plan execution and outcome reporting.
//!
//! The executor drives generated DOL programs through [`dol::DolEngine`]
//! with [`crate::lamclient::LamFactory`] services, then shapes the raw task
//! statuses/results into user-facing reports. Every LAM client it uses is
//! checked out of the session's [`ConnCache`]:
//!
//! * retrievals become [`Multitable`]s (one table per database, §2);
//! * cross-database joins are executed by shipping partial results to the
//!   coordinator (the "partial results are collected in one database,
//!   acting as the coordinator" flow of §4.1) and return a single table;
//! * updates and multitransactions report per-database termination states
//!   and the DOL return code.

use crate::conns::ConnCache;
use crate::error::MdbsError;
use crate::lamclient::{decode_task_result, ClientConfig, LamFactory, PartialResult};
use crate::merge;
use crate::multitable::{Multitable, MultitableEntry};
use crate::planner::{self, Estimate, PlannerContext};
use crate::proto::{Request, Response, TaskMode};
use crate::retry::{shared_stats, ExecStats, SharedExecStats};
use crate::translate::{
    DbRoute, DbSubquery, Decomposition, GeneratedPlan, PushdownPlan, MTX_FAILED,
};
use crate::wal::{Wal, WalObserver, WalRecord};
use crate::wire;
use dol::{DolEngine, DolOutcome, TaskStatus};
use ldbs::engine::ResultSet;
use ldbs::eval::value_literal;
use ldbs::value::Value;
use msql_lang::printer::print_select;
use msql_lang::{BinaryOp, ColumnRef, Expr, Literal, Select, SelectItem};
use netsim::FaultKind;
use obs::{labeled, ExplainReport, Span, SpanCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Default per-edge cap on the distinct key values shipped as a semi-join
/// `IN (…)` filter. This is the *no-statistics fallback*: when the cost
/// planner has fresh estimates for both ends of an edge, the decision is an
/// estimated-bytes comparison instead and the cap does not apply.
pub const DEFAULT_SEMIJOIN_CAP: usize = 256;

/// Per-database outcome of a modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbOutcome {
    /// The database.
    pub database: String,
    /// Its scope key.
    pub key: String,
    /// Terminal status of its subquery.
    pub status: TaskStatus,
    /// Rows affected (0 when the subquery aborted).
    pub affected: u64,
    /// Local error, if the subquery failed.
    pub error: Option<String>,
    /// Network attempts spent on the subquery (0 = its LAM was never
    /// reached, 1 = no retries).
    pub attempts: u32,
    /// The last network fault seen executing the subquery, if any.
    pub fault: Option<FaultKind>,
}

impl DbOutcome {
    /// An outcome with no network telemetry attached.
    pub fn new(
        database: String,
        key: String,
        status: TaskStatus,
        affected: u64,
        error: Option<String>,
    ) -> Self {
        DbOutcome { database, key, status, affected, error, attempts: 0, fault: None }
    }
}

/// Outcome of a vital multiple update (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// True when all vital subqueries committed.
    pub success: bool,
    /// The DOL return code.
    pub return_code: i32,
    /// Per-database outcomes, in plan order.
    pub outcomes: Vec<DbOutcome>,
    /// Communication accounting for this statement (retries, faults,
    /// degraded subqueries).
    pub stats: ExecStats,
}

/// Outcome of a multitransaction (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtxReport {
    /// Index of the achieved acceptable state (0 = preferred), or `None`
    /// when the multitransaction failed.
    pub achieved_state: Option<usize>,
    /// The DOL return code.
    pub return_code: i32,
    /// Per-database outcomes.
    pub outcomes: Vec<DbOutcome>,
    /// Communication accounting for this statement.
    pub stats: ExecStats,
}

/// The result of executing one MSQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum MsqlOutcome {
    /// A multiple retrieval: a set of tables.
    Multitable(Multitable),
    /// A cross-database join: a single table evaluated at the coordinator.
    Table(ResultSet),
    /// A (vital) multiple update.
    Update(UpdateReport),
    /// A multitransaction.
    Mtx(MtxReport),
    /// Scope/dictionary/DDL administration.
    Admin(String),
    /// An `EXPLAIN`ed statement: the traced profile of its execution.
    Explain(Box<ExplainReport>),
}

impl MsqlOutcome {
    /// Unwraps a multitable outcome.
    pub fn into_multitable(self) -> Result<Multitable, MdbsError> {
        match self {
            MsqlOutcome::Multitable(mt) => Ok(mt),
            other => Err(MdbsError::Internal(format!("expected a multitable, got {other:?}"))),
        }
    }

    /// Unwraps a single-table outcome.
    pub fn into_table(self) -> Result<ResultSet, MdbsError> {
        match self {
            MsqlOutcome::Table(rs) => Ok(rs),
            other => Err(MdbsError::Internal(format!("expected a table, got {other:?}"))),
        }
    }

    /// Unwraps an update report.
    pub fn into_update(self) -> Result<UpdateReport, MdbsError> {
        match self {
            MsqlOutcome::Update(u) => Ok(u),
            other => Err(MdbsError::Internal(format!("expected an update report, got {other:?}"))),
        }
    }

    /// Unwraps a multitransaction report.
    pub fn into_mtx(self) -> Result<MtxReport, MdbsError> {
        match self {
            MsqlOutcome::Mtx(m) => Ok(m),
            other => Err(MdbsError::Internal(format!("expected an mtx report, got {other:?}"))),
        }
    }

    /// Unwraps an EXPLAIN report.
    pub fn into_explain(self) -> Result<ExplainReport, MdbsError> {
        match self {
            MsqlOutcome::Explain(r) => Ok(*r),
            other => Err(MdbsError::Internal(format!("expected an explain report, got {other:?}"))),
        }
    }
}

/// Executes generated plans against the federation's network.
pub struct Executor {
    /// The session's connections: every LAM client is checked out here.
    pub conns: ConnCache,
    /// Settings every client runs under: timeout, retry policy, the
    /// session-level stats cell (every run merges its counters there), the
    /// federation's metrics registry and the wire format.
    pub config: ClientConfig,
    /// Whether DOL task batches run in parallel (one thread per service).
    pub parallel: bool,
    /// Graceful degradation: treat an unreachable LAM at OPEN time as a
    /// failed (but reported) subquery instead of failing the whole plan —
    /// the §3.2 vital semantics then decide the statement's fate.
    pub tolerate_unreachable: bool,
    /// Semi-join reduction of cross-database joins: ship the reducer's
    /// distinct join-key values to the other sites as `IN (…)` filters so
    /// only matching rows cross the wire.
    pub semijoin: bool,
    /// Per-edge cap on the distinct key values shipped as an `IN (…)`
    /// filter; an edge whose key set exceeds it falls back to full shipping.
    pub semijoin_cap: usize,
    /// Aggregate/top-k pushdown of cross-database joins: when the
    /// decomposition proved the query's aggregates decomposable (or it is a
    /// pure-product top-k), each site computes partial aggregates (or a
    /// site-local top-k) and the MDBS layer merges them, instead of shipping
    /// full partials to a coordinator. Off — or an ineligible query — takes
    /// the classic coordinator path, byte-for-byte.
    pub agg_pushdown: bool,
    /// Where execution spans hang (disabled unless the federation is
    /// tracing the statement).
    pub trace: SpanCtx,
    /// Site statistics for cost-based planning of cross-database joins.
    /// `None` (or a context lacking a table) keeps the heuristic data-flow
    /// decisions, byte-for-byte.
    pub planner: Option<PlannerContext>,
    /// Durable multitransaction log. When set, every plan that carries
    /// recovery material logs its lifecycle (BEGIN, first-phase outcomes,
    /// the settle decision, resolutions, END) so
    /// [`crate::Federation::recover`] can finish interrupted statements.
    pub wal: Option<Wal>,
    /// Makes this statement's coordinator temporaries private: each partial
    /// loads as `part_<db>_<suffix>`, so statements of concurrent sessions
    /// never share one.
    pub temp_suffix: String,
}

impl Executor {
    /// Runs the program, returning the DOL outcome plus this run's own
    /// communication accounting (also merged into the session stats).
    fn run_program(&self, plan: &GeneratedPlan) -> Result<(DolOutcome, ExecStats), MdbsError> {
        let run_stats = shared_stats();
        let factory = LamFactory {
            conns: self.conns.clone(),
            config: ClientConfig {
                stats: SharedExecStats::clone(&run_stats),
                ..self.config.clone()
            },
            tolerate_unreachable: self.tolerate_unreachable,
        };
        let mut engine =
            if self.parallel { DolEngine::new(&factory) } else { DolEngine::serial(&factory) };
        engine.trace = self.trace.clone();
        // Log the multitransaction BEGIN (tasks, states, oracle, the
        // presumed-abort compensation set) before anything executes, and
        // install the observer that records every later transition.
        let logged = match (&self.wal, &plan.recovery) {
            (Some(wal), Some(recovery)) => {
                let mtx_id = wal.next_mtx_id();
                wal.append(&WalRecord::Begin {
                    mtx_id,
                    tasks: recovery.tasks.clone(),
                    states: recovery.states.clone(),
                    oracle: recovery.oracle.clone(),
                    abort_compensate: recovery.abort_compensate.clone(),
                })
                .map_err(MdbsError::from)?;
                engine.observer = Some(Arc::new(WalObserver::new(
                    wal.clone(),
                    mtx_id,
                    recovery.decisions.clone(),
                )));
                Some((wal.clone(), mtx_id))
            }
            _ => None,
        };
        let result = engine.execute(&plan.program);
        // Merge the run's accounting even when the program failed — the
        // faults that sank it are exactly what the session stats must show.
        let snapshot = run_stats.lock().clone();
        self.config.stats.lock().merge(&snapshot);
        let out = result?;
        // END only on success: any error (including a simulated crash) leaves
        // the image open so recovery re-resolves it. So does a task whose
        // request went out but whose reply never came (every reply lost, or
        // the LAM died mid-request): the LAM may hold it prepared or
        // committed, so it is in doubt like an unacknowledged COMMIT, and
        // recovery's RESOLVE settles it.
        let in_doubt = plan.tasks.iter().any(|t| {
            out.status(&t.task) == Some(TaskStatus::Error)
                && snapshot.task(&t.task).is_some_and(|m| m.attempts > 0)
        });
        if let Some((wal, mtx_id)) = logged.filter(|_| !in_doubt) {
            wal.append(&WalRecord::End { mtx_id }).map_err(MdbsError::from)?;
        }
        Ok((out, snapshot))
    }

    fn outcomes(
        &self,
        plan: &GeneratedPlan,
        out: &DolOutcome,
        stats: &ExecStats,
    ) -> Vec<DbOutcome> {
        plan.tasks
            .iter()
            .map(|t| {
                let status = out.status(&t.task).unwrap_or(TaskStatus::Error);
                let affected = out
                    .task_results
                    .get(&t.task)
                    .and_then(|r| decode_task_result(r).ok())
                    .map(|(a, _)| a)
                    .unwrap_or(0);
                let telemetry = stats.task(&t.task);
                DbOutcome {
                    database: t.database.clone(),
                    key: t.key.clone(),
                    status,
                    affected,
                    error: out.error(&t.task).map(str::to_string),
                    attempts: telemetry.map(|m| m.attempts).unwrap_or(0),
                    fault: telemetry.and_then(|m| m.fault),
                }
            })
            .collect()
    }

    /// Counts non-vital subqueries that failed while the statement as a
    /// whole survived — the §3.2 "tolerated" losses — into both the run
    /// snapshot and the session stats.
    fn count_degraded(&self, plan: &GeneratedPlan, outcomes: &[DbOutcome], stats: &mut ExecStats) {
        let degraded = plan
            .tasks
            .iter()
            .zip(outcomes)
            .filter(|(t, o)| {
                !t.vital && !matches!(o.status, TaskStatus::Committed | TaskStatus::Prepared)
            })
            .count() as u64;
        if degraded > 0 {
            stats.degraded += degraded;
            self.config.stats.lock().degraded += degraded;
        }
    }

    /// Runs a retrieval plan, assembling a multitable from the per-database
    /// partial results. A database whose task failed contributes no table;
    /// if every database failed the query fails.
    pub fn run_retrieval(&self, plan: &GeneratedPlan) -> Result<Multitable, MdbsError> {
        let (out, _stats) = self.run_program(plan)?;
        let mut tables = Vec::new();
        let mut last_error: Option<String> = None;
        for t in &plan.tasks {
            match out.status(&t.task) {
                Some(TaskStatus::Committed) => {
                    let result = out.task_results.get(&t.task).ok_or_else(|| {
                        MdbsError::Internal(format!("task {} lost its result", t.task))
                    })?;
                    let (_, payload) = decode_task_result(result)?;
                    let rs = match payload {
                        Some(p) => wire::decode_result_set(&p)?,
                        None => ResultSet::default(),
                    };
                    tables.push(MultitableEntry { database: t.database.clone(), result: rs });
                }
                _ => {
                    last_error = Some(format!("retrieval failed at `{}`", t.database));
                }
            }
        }
        if tables.is_empty() {
            if let Some(e) = last_error {
                return Err(MdbsError::Local { service: "retrieval".into(), message: e });
            }
        }
        Ok(Multitable { tables })
    }

    /// Runs a vital update plan.
    pub fn run_update(&self, plan: &GeneratedPlan) -> Result<UpdateReport, MdbsError> {
        let (out, mut stats) = self.run_program(plan)?;
        let outcomes = self.outcomes(plan, &out, &stats);
        let success = out.dolstatus == 0;
        if success {
            self.count_degraded(plan, &outcomes, &mut stats);
        }
        Ok(UpdateReport { success, return_code: out.dolstatus, outcomes, stats })
    }

    /// Runs a multitransaction plan. `n_states` is the number of acceptable
    /// states (to map the DOL return code back to a state index).
    pub fn run_mtx(&self, plan: &GeneratedPlan, n_states: usize) -> Result<MtxReport, MdbsError> {
        let (out, mut stats) = self.run_program(plan)?;
        let achieved_state = if out.dolstatus >= 0
            && (out.dolstatus as usize) < n_states
            && out.dolstatus != MTX_FAILED
        {
            Some(out.dolstatus as usize)
        } else {
            None
        };
        let outcomes = self.outcomes(plan, &out, &stats);
        if achieved_state.is_some() {
            self.count_degraded(plan, &outcomes, &mut stats);
        }
        Ok(MtxReport { achieved_state, return_code: out.dolstatus, outcomes, stats })
    }

    /// Executes a decomposed cross-database join: runs each local subquery,
    /// ships the partial results to the coordinator, evaluates the modified
    /// global query there, and cleans up the temporaries.
    ///
    /// Two data-flow optimisations apply (§5 argues multidatabase
    /// optimisation is about exactly this — data flow control and
    /// parallelism across sites, not individual database operations):
    ///
    /// * **Semi-join reduction** (when [`Self::semijoin`] and the
    ///   decomposition carries equi-join edges): one *reducer* subquery runs
    ///   first, its distinct join-key values are injected into the other
    ///   subqueries as `IN (…)` filters, and only matching rows cross the
    ///   wire. An edge whose key set exceeds [`Self::semijoin_cap`] falls
    ///   back to full shipping.
    /// * **Parallel partial dispatch** (when [`Self::parallel`]): the
    ///   remaining subqueries run concurrently, one scoped thread per LAM,
    ///   so N sites cost ≈1 round trip instead of N.
    pub fn run_cross_db(
        &self,
        dec: &Decomposition,
        routes: &HashMap<String, DbRoute>,
    ) -> Result<ResultSet, MdbsError> {
        let join_span = self.trace.child("join");

        // Resolve every route up front so a missing one fails before any
        // subquery is dispatched.
        let sub_routes: Vec<&DbRoute> = dec
            .subqueries
            .iter()
            .map(|sub| {
                routes.get(&sub.database).ok_or_else(|| {
                    MdbsError::Catalog(format!("no route for database `{}`", sub.database))
                })
            })
            .collect::<Result<_, _>>()?;

        // Cost-based planning: estimates exist only when the planner context
        // holds fresh statistics for *every* table of *every* subquery — a
        // single unanalyzed table keeps the whole join on the heuristics.
        let estimates: Option<Vec<Estimate>> = self
            .planner
            .as_ref()
            .and_then(|ctx| dec.subqueries.iter().map(|s| ctx.estimate_subquery(s)).collect());
        if estimates.is_some() {
            self.config.metrics.counter_add("planner.costed_joins", 1);
        }

        // Aggregate/top-k pushdown: when decomposition proved the query
        // eligible, skip the coordinator flow entirely — each site computes
        // its partial aggregates (or local top-k) and the merge happens
        // here, at the MDBS layer. Any ineligible query carries
        // `pushdown: None` and continues on the classic path unchanged.
        if self.agg_pushdown {
            if let Some(plan) = &dec.pushdown {
                return self.run_pushdown(dec, plan, &sub_routes, estimates.as_deref(), &join_span);
            }
        }

        // 1. Semi-join reduction: run the reducer, harvest its join keys.
        let n = dec.subqueries.len();
        let mut results: Vec<Option<PartialResult>> = vec![None; n];
        let mut filters: Vec<Vec<Expr>> = vec![Vec::new(); n];
        let mut keys_shipped = 0u64;
        if self.semijoin && n > 1 && !dec.join_keys.is_empty() {
            let reducer = match &estimates {
                Some(est) => pick_reducer_costed(dec, est),
                None => pick_reducer(dec),
            };
            let sub = &dec.subqueries[reducer];
            let est_rows = estimates.as_ref().map(|e| e[reducer].rows.round() as u64);
            let result = self.dispatch_partial(
                sub,
                sub_routes[reducer],
                &[],
                false,
                est_rows,
                &join_span.ctx(),
            )?;
            let rs = wire::decode_result_set(&result.payload)?;
            for key in &dec.join_keys {
                let (Some(own), Some(other)) =
                    (key.side_in(&sub.database), key.side_opposite(&sub.database))
                else {
                    continue;
                };
                let Some(col) = rs.columns.iter().position(|c| c.name == own.part_column) else {
                    continue;
                };
                let mut values: Vec<Value> = rs
                    .rows
                    .iter()
                    .map(|r| r[col].clone())
                    .filter(|v| !matches!(v, Value::Null))
                    .collect();
                values.sort_by(|a, b| a.total_cmp(b));
                values.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
                let Some(target) = dec.subqueries.iter().position(|s| s.database == other.database)
                else {
                    continue;
                };
                // Reduce-or-not: costed when both ends have estimates (an
                // empty key set always reduces — the filter is free and
                // prunes everything), the fixed cap otherwise.
                if !values.is_empty() {
                    let ship = match (&estimates, &self.planner) {
                        (Some(est), Some(ctx)) => {
                            // Ship iff the bytes the filter prunes from the
                            // target's partial exceed the key list's own
                            // bytes. `min(1, keys/NDV)` of the target's rows
                            // survive a k-key filter under uniformity.
                            let key_bytes: f64 = values.iter().map(planner::value_width).sum();
                            let survives = ctx
                                .join_key_ndv(
                                    &dec.subqueries[target],
                                    other.binding.as_str(),
                                    other.column.as_str(),
                                )
                                .map_or(1.0, |ndv| {
                                    if ndv == 0 {
                                        0.0
                                    } else {
                                        (values.len() as f64 / ndv as f64).min(1.0)
                                    }
                                });
                            let benefit = est[target].bytes * (1.0 - survives);
                            let ship = benefit > key_bytes;
                            let verdict = if ship {
                                "planner.edges_reduced"
                            } else {
                                "planner.edges_skipped"
                            };
                            self.config.metrics.counter_add(verdict, 1);
                            ship
                        }
                        _ => values.len() <= self.semijoin_cap,
                    };
                    if !ship {
                        continue; // predicted (or presumed) too expensive — full shipping
                    }
                }
                let filter = if values.is_empty() {
                    // No key can match; keep the subquery's shape (the
                    // coordinator still needs its column metadata) but let
                    // it ship zero rows.
                    Expr::Binary {
                        left: Box::new(Expr::Literal(Literal::Int(0))),
                        op: BinaryOp::Eq,
                        right: Box::new(Expr::Literal(Literal::Int(1))),
                    }
                } else {
                    keys_shipped += values.len() as u64;
                    Expr::InList {
                        expr: Box::new(Expr::Column(ColumnRef::with_table(
                            other.binding.as_str(),
                            other.column.as_str(),
                        ))),
                        list: values.iter().map(|v| Expr::Literal(value_literal(v))).collect(),
                        negated: false,
                    }
                };
                filters[target].push(filter);
            }
            results[reducer] = Some(result);
        }

        // 2. Dispatch the remaining subqueries — concurrently when allowed.
        // The unreduced baseline is measured (never shipped) only under
        // tracing, where the savings feed the EXPLAIN report.
        let measure = join_span.is_enabled();
        let pending: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();
        let dispatched: Vec<(usize, Result<PartialResult, MdbsError>)> =
            if self.parallel && pending.len() > 1 {
                let ctx = join_span.ctx();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = pending
                        .iter()
                        .map(|&i| {
                            let ctx = ctx.clone();
                            let sub = &dec.subqueries[i];
                            let route = sub_routes[i];
                            let extra = filters[i].as_slice();
                            let est = estimates.as_ref().map(|e| e[i].rows.round() as u64);
                            scope.spawn(move || {
                                (i, self.dispatch_partial(sub, route, extra, measure, est, &ctx))
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("partial dispatch thread panicked"))
                        .collect()
                })
            } else {
                pending
                    .iter()
                    .map(|&i| {
                        let sub = &dec.subqueries[i];
                        (
                            i,
                            self.dispatch_partial(
                                sub,
                                sub_routes[i],
                                &filters[i],
                                measure,
                                estimates.as_ref().map(|e| e[i].rows.round() as u64),
                                &join_span.ctx(),
                            ),
                        )
                    })
                    .collect()
            };
        let mut first_err: Option<(usize, MdbsError)> = None;
        for (i, r) in dispatched {
            match r {
                Ok(p) => results[i] = Some(p),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        let partials: Vec<(String, PartialResult)> = dec
            .subqueries
            .iter()
            .zip(results)
            .map(|(sub, r)| {
                (self.temp_name(&sub.part_table), r.expect("every subquery dispatched"))
            })
            .collect();

        // 3. Name the strategy and total savings on the join span/metrics.
        // The coordinator's LDBS hash-joins a two-table Q' on its equi keys;
        // anything else enumerates the (filtered) cross product.
        let reduced = filters.iter().any(|f| !f.is_empty());
        let base = if n == 2 && !dec.join_keys.is_empty() { "hash" } else { "product" };
        let strategy = if reduced { format!("semijoin+{base}") } else { base.to_string() };
        let bytes_saved: u64 =
            partials.iter().map(|(_, p)| p.full_bytes.saturating_sub(p.payload.len() as u64)).sum();
        join_span.note("strategy", &strategy);
        join_span.note("keys_shipped", keys_shipped);
        join_span.note("bytes_saved", bytes_saved);
        if estimates.is_some() {
            join_span.note("planner", "costed");
        }
        self.config.metrics.counter_add(&labeled("join.strategy", "strategy", &strategy), 1);
        self.config.metrics.counter_add("join.keys_shipped", keys_shipped);
        let route = routes.get(&dec.coordinator).ok_or_else(|| {
            MdbsError::Catalog(format!("no route for coordinator `{}`", dec.coordinator))
        })?;
        // 4. Collect the partial results at the coordinator.
        let coord = self.conns.checkout(&route.site, &dec.coordinator, &self.config)?;
        {
            let span = join_span.child(format!("lam:collect:{}", dec.coordinator));
            span.note("db", &dec.coordinator);
            span.note("partials", partials.len());
            // One batched round trip: collection stays ≈1 link latency no
            // matter how many sites contributed partials.
            coord.load_partials(
                partials.iter().map(|(t, p)| (t.clone(), p.payload.clone())).collect(),
            )?;
        }

        // 5. Evaluate the modified global query Q' and clean up. With
        // estimates, its FROM list is greedily reordered by ascending
        // estimated partial cardinality, so the coordinator's join builds
        // its smallest intermediates first. A wildcard projection expands
        // in FROM order, so reordering would permute columns — skip it.
        let span = join_span.child(format!("lam:global:{}", dec.coordinator));
        span.note("db", &dec.coordinator);
        let wildcard = dec
            .global_query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)));
        let mut global = dec.global_query.clone();
        if let Some(est) = estimates.as_ref().filter(|_| n > 1 && !wildcard) {
            let est_of = |tref: &msql_lang::TableRef| {
                dec.subqueries
                    .iter()
                    .position(|s| s.part_table == tref.table.as_str())
                    .map_or(f64::MAX, |i| est[i].rows)
            };
            global.from.sort_by(|a, b| est_of(a).total_cmp(&est_of(b)));
            if global.from != dec.global_query.from {
                let order: Vec<&str> = global.from.iter().map(|t| t.table.as_str()).collect();
                span.note("join_order", order.join(","));
            }
        }
        // Q' reads this statement's private temporaries, aliased back to
        // the `part_<db>` names its column references use.
        for tref in &mut global.from {
            let part = tref.table.as_str().to_string();
            tref.table = self.temp_name(&part).into();
            tref.alias = Some(part);
        }
        let sql = print_select(&global);
        let req = Request::Task {
            name: "QGLOBAL".into(),
            mode: TaskMode::Auto,
            database: dec.coordinator.clone(),
            commands: vec![sql],
        };
        let (resp, attempts, _faults) = coord.call_traced(&req, &span);
        span.note("attempts", attempts);
        let _ = coord.drop_temps(partials.iter().map(|(t, _)| t.clone()).collect());
        match resp? {
            Response::TaskDone { status: 'C', payload: Some(p), .. } => {
                span.note("bytes", p.len());
                let rs = wire::decode_result_set(&p)?;
                span.note("rows", rs.rows.len());
                Ok(rs)
            }
            Response::TaskDone { status: 'C', payload: None, .. } => Ok(ResultSet::default()),
            Response::TaskDone { error, .. } => Err(MdbsError::Local {
                service: dec.coordinator.clone(),
                message: error.unwrap_or_else(|| "global query failed".into()),
            }),
            other => Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    /// The name `part_table` loads under at the coordinator for this
    /// statement.
    fn temp_name(&self, part_table: &str) -> String {
        format!("{part_table}_{}", self.temp_suffix)
    }

    /// Checks out one subquery's LAM connection and evaluates the subquery
    /// there, with `extra` conjuncts (semi-join filters) ANDed onto its
    /// WHERE clause. When filters were injected and `measure` is set, the
    /// LAM also measures the unreduced subquery so the span/metrics can
    /// report bytes saved. `est_rows` is the planner's pre-reduction row
    /// estimate, noted on the partial span so EXPLAIN can show estimated
    /// vs. actual.
    fn dispatch_partial(
        &self,
        sub: &DbSubquery,
        route: &DbRoute,
        extra: &[Expr],
        measure: bool,
        est_rows: Option<u64>,
        ctx: &SpanCtx,
    ) -> Result<PartialResult, MdbsError> {
        let client = self.conns.checkout(&route.site, &sub.database, &self.config)?;
        let span = ctx.child(format!("lam:partial:{}", sub.database));
        if let Some(est) = est_rows {
            span.note("est_rows", est);
        }
        let sql = if extra.is_empty() {
            print_select(&sub.select)
        } else {
            span.note("reduced", "semijoin");
            print_select(&with_conjuncts(&sub.select, extra))
        };
        let baseline = (measure && !extra.is_empty()).then(|| print_select(&sub.select));
        let result = client.run_partial(&sql, baseline.as_deref(), &span)?;
        if let Some(access) = &result.access {
            span.note("access", access);
        }
        if result.full_bytes > 0 {
            let saved = result.full_bytes.saturating_sub(result.payload.len() as u64);
            span.note("saved", saved);
            self.config
                .metrics
                .counter_add(&labeled("lam.bytes_saved", "db", &sub.database), saved);
        }
        Ok(result)
    }

    /// Executes an aggregate/top-k pushdown plan: every site evaluates its
    /// rewritten subquery (partial aggregates grouped by join + group keys,
    /// or a site-local top-k), the reduced partials cross the wire, and the
    /// merge happens here at the MDBS layer — no coordinator round trips.
    /// Under tracing, each site also measures (never ships) its *unpushed*
    /// subquery so EXPLAIN can show the pushdown's savings.
    fn run_pushdown(
        &self,
        dec: &Decomposition,
        plan: &PushdownPlan,
        sub_routes: &[&DbRoute],
        estimates: Option<&[Estimate]>,
        join_span: &Span,
    ) -> Result<ResultSet, MdbsError> {
        let (kind, site_sql): (&str, Vec<String>) = match plan {
            PushdownPlan::Aggregate(p) => {
                ("agg", p.sites.iter().map(|s| print_select(&s.select)).collect())
            }
            PushdownPlan::TopK(p) => {
                ("topk", p.sites.iter().map(|s| print_select(&s.select)).collect())
            }
        };
        let measure = join_span.is_enabled();
        let n = dec.subqueries.len();
        let dispatched: Vec<(usize, Result<PartialResult, MdbsError>)> = if self.parallel && n > 1 {
            let ctx = join_span.ctx();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let ctx = ctx.clone();
                        let sub = &dec.subqueries[i];
                        let sql = site_sql[i].as_str();
                        let est = estimates.map(|e| e[i].rows.round() as u64);
                        scope.spawn(move || {
                            (
                                i,
                                self.dispatch_pushed(
                                    sub,
                                    sub_routes[i],
                                    sql,
                                    kind,
                                    measure,
                                    est,
                                    &ctx,
                                ),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pushed dispatch thread panicked"))
                    .collect()
            })
        } else {
            (0..n)
                .map(|i| {
                    (
                        i,
                        self.dispatch_pushed(
                            &dec.subqueries[i],
                            sub_routes[i],
                            &site_sql[i],
                            kind,
                            measure,
                            estimates.map(|e| e[i].rows.round() as u64),
                            &join_span.ctx(),
                        ),
                    )
                })
                .collect()
        };
        let mut results: Vec<Option<PartialResult>> = vec![None; n];
        let mut first_err: Option<(usize, MdbsError)> = None;
        for (i, r) in dispatched {
            match r {
                Ok(p) => results[i] = Some(p),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        let partials: Vec<PartialResult> =
            results.into_iter().map(|r| r.expect("every site dispatched")).collect();
        let parts: Vec<ResultSet> = partials
            .iter()
            .map(|p| wire::decode_result_set(&p.payload))
            .collect::<Result<_, _>>()?;

        let shipped: u64 = parts.iter().map(|p| p.rows.len() as u64).sum();
        let bytes_saved: u64 =
            partials.iter().map(|p| p.full_bytes.saturating_sub(p.payload.len() as u64)).sum();
        self.config.metrics.counter_add("agg.pushdown", 1);
        let merged = match plan {
            PushdownPlan::Aggregate(p) => {
                let rs = merge::merge_aggregate(p, &parts)?;
                self.config.metrics.counter_add("agg.groups_merged", rs.rows.len() as u64);
                rs
            }
            PushdownPlan::TopK(p) => {
                self.config.metrics.counter_add("topk.rows_shipped", shipped);
                merge::merge_topk(p, &parts)?
            }
        };
        join_span.note("strategy", format!("{kind}-pushdown"));
        join_span.note("keys_shipped", 0u64);
        join_span.note("bytes_saved", bytes_saved);
        if estimates.is_some() {
            join_span.note("planner", "costed");
        }
        self.config
            .metrics
            .counter_add(&labeled("join.strategy", "strategy", &format!("{kind}-pushdown")), 1);
        Ok(merged)
    }

    /// Checks out one site's LAM connection and evaluates its *pushed*
    /// (pre-aggregated or top-k-limited) subquery there. `est_rows` is the
    /// planner's estimate for the site's *unpushed* partial, noted on the
    /// span so EXPLAIN can contrast shipped rows against what full shipping
    /// would have cost; when `measure` is set the LAM also measures (never
    /// ships) the unpushed subquery for the same comparison.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_pushed(
        &self,
        sub: &DbSubquery,
        route: &DbRoute,
        sql: &str,
        kind: &str,
        measure: bool,
        est_rows: Option<u64>,
        ctx: &SpanCtx,
    ) -> Result<PartialResult, MdbsError> {
        let client = self.conns.checkout(&route.site, &sub.database, &self.config)?;
        let span = ctx.child(format!("lam:partial:{}", sub.database));
        if let Some(est) = est_rows {
            span.note("est_rows", est);
        }
        span.note("pushed", kind);
        let baseline = measure.then(|| print_select(&sub.select));
        let result = client.run_partial_agg(sql, baseline.as_deref(), &span)?;
        if result.full_rows > 0 {
            span.note("full_rows", result.full_rows);
        }
        if result.full_bytes > 0 {
            let saved = result.full_bytes.saturating_sub(result.payload.len() as u64);
            span.note("saved", saved);
            self.config
                .metrics
                .counter_add(&labeled("lam.bytes_saved", "db", &sub.database), saved);
        }
        Ok(result)
    }
}

/// Chooses the semi-join reducer: among the subqueries on at least one join
/// edge, the one whose WHERE clause carries the most pushed-down local
/// conjuncts — a cheap proxy for selectivity — ties broken by plan order.
fn pick_reducer(dec: &Decomposition) -> usize {
    let mut best = 0usize;
    let mut best_score = -1i64;
    for (i, sub) in dec.subqueries.iter().enumerate() {
        if !dec.join_keys.iter().any(|k| k.side_in(&sub.database).is_some()) {
            continue;
        }
        let score = conjunct_count(sub.select.where_clause.as_ref()) as i64;
        if score > best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

/// Chooses the semi-join reducer from the planner's estimates: among the
/// subqueries on at least one join edge, the one with the smallest estimated
/// partial — the most selective site reduces, whatever its conjunct count —
/// ties broken by plan order.
fn pick_reducer_costed(dec: &Decomposition, est: &[Estimate]) -> usize {
    let mut best = 0usize;
    let mut best_rows = f64::MAX;
    for (i, sub) in dec.subqueries.iter().enumerate() {
        if !dec.join_keys.iter().any(|k| k.side_in(&sub.database).is_some()) {
            continue;
        }
        if est[i].rows < best_rows {
            best = i;
            best_rows = est[i].rows;
        }
    }
    best
}

/// Counts the AND-ed conjuncts of a WHERE clause (0 when absent).
fn conjunct_count(e: Option<&Expr>) -> usize {
    fn walk(e: &Expr) -> usize {
        match e {
            Expr::Binary { left, op: BinaryOp::And, right } => walk(left) + walk(right),
            _ => 1,
        }
    }
    e.map_or(0, walk)
}

/// ANDs extra conjuncts onto a subquery's WHERE clause.
fn with_conjuncts(sel: &Select, extra: &[Expr]) -> Select {
    let mut out = sel.clone();
    let mut clause = out.where_clause.take();
    for e in extra {
        clause = Some(match clause {
            Some(w) => {
                Expr::Binary { left: Box::new(w), op: BinaryOp::And, right: Box::new(e.clone()) }
            }
            None => e.clone(),
        });
    }
    out.where_clause = clause;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_unwrappers_reject_wrong_kind() {
        let admin = MsqlOutcome::Admin("ok".into());
        assert!(admin.clone().into_multitable().is_err());
        assert!(admin.clone().into_update().is_err());
        assert!(admin.clone().into_mtx().is_err());
        assert!(admin.into_table().is_err());
        let mt = MsqlOutcome::Multitable(Multitable::default());
        assert!(mt.into_multitable().is_ok());
    }
}
