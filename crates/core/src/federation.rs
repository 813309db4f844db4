//! The public facade: a loosely coupled federation executing extended MSQL.
//!
//! Since the concurrency split, the facade is layered the way the paper's
//! server is ("the server handles multiple user sessions"):
//!
//! * [`FederationCore`] — the shared, thread-safe substrate: the network,
//!   both dictionaries, the LAM handles, the trigger registry, the logical
//!   clock and the metrics registry. One per federation, behind an `Arc`.
//! * [`Session`] — one user's execution context: scope, deferred-commit
//!   global transaction, per-session accounting, tracing and WAL. Cheap to
//!   create ([`Session::session`]), `Send`, and independent — N threads run
//!   N sessions against the same core at once.
//! * [`Federation`] — the primary session plus ownership of the core, kept
//!   as the single-user entry point. It derefs to its [`Session`], so all
//!   pre-split code compiles unchanged.

use crate::codec::WireFormat;
use crate::conns::{Conn, ConnCache};
use crate::error::MdbsError;
use crate::executor::{DbOutcome, Executor, MsqlOutcome, UpdateReport, DEFAULT_SEMIJOIN_CAP};
use crate::gtxn::GlobalTransaction;
use crate::lam::{spawn_lam_with, LamConfig, LamHandle};
use crate::lamclient::{ClientConfig, LamFactory};
use crate::planner::PlannerContext;
use crate::retry::{shared_stats, ExecStats, RetryPolicy, SharedExecStats};
use crate::scope::SessionScope;
use crate::translate::{
    self, multitransaction_plan, retrieval_plan, update_plan, DbRoute, Decomposition, MtxQueryPlan,
    Translated,
};
use crate::wal::{Wal, WalDecision, WalRecord};
use catalog::{
    apply_import, AuxiliaryDirectory, GddColumn, GddTable, GlobalDataDictionary, ServiceEntry,
};
use ldbs::profile::StatementClass;
use ldbs::Engine;
use msql_lang::printer::print;
use msql_lang::{
    CreateIndex, CreateTable, DropIndex, DropTable, MsqlQuery, Multitransaction, QueryBody,
    Statement,
};
use netsim::Network;
use obs::{
    labeled, ExplainReport, LogicalClock, MetricsRegistry, MetricsSnapshot, Span, SpanCtx,
    SpanTree, Tracer, WireSummary,
};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many times a session transparently re-runs a statement whose every
/// subtransaction aborted as a deadlock victim. Victims are chosen so the
/// surviving transaction makes progress, so a bounded retry almost always
/// succeeds; past the bound the retriable error surfaces to the caller.
const DEADLOCK_RETRIES: u32 = 4;

/// One registered interdatabase trigger.
#[derive(Debug, Clone)]
struct TriggerDef {
    name: String,
    database: msql_lang::WildName,
    table: msql_lang::WildName,
    event: msql_lang::TriggerEvent,
    action: Statement,
}

/// The shared substrate of a federation: everything that is one-per-server
/// rather than one-per-user. All mutable pieces sit behind their own locks,
/// so concurrent sessions only serialize on catalog *changes*, never on
/// statement execution.
pub struct FederationCore {
    net: Network,
    ad: RwLock<AuxiliaryDirectory>,
    gdd: RwLock<GlobalDataDictionary>,
    lams: RwLock<HashMap<String, LamHandle>>,
    /// Interdatabase triggers (MSQL §2), fired after committed
    /// modifications in immediate (non-deferred) mode.
    triggers: RwLock<Vec<TriggerDef>>,
    /// Deterministic logical clock, shared with the network probe and every
    /// statement tracer (no wall time: identical runs read identical ticks).
    clock: LogicalClock,
    /// Shared metrics registry: the network probe, LAM clients and the
    /// executor all write here; [`Session::metrics`] reads it back.
    metrics: MetricsRegistry,
    /// The GDD's statistics tier: per database, the site statistics its LAM
    /// exported over the `STATS` exchange. Filled lazily the first time a
    /// cross-database join touches the database, invalidated by DDL and
    /// `ANALYZE` against it.
    site_stats: RwLock<HashMap<String, Vec<crate::wire::SiteTableStats>>>,
    /// Next session id (the primary session is 0).
    session_seq: AtomicU64,
}

/// One user session on a federation: private scope, deferred-commit state,
/// LAM connections, accounting, tracing and WAL, plus an `Arc` to the shared
/// core. `Send`, so sessions move to worker threads; create them with
/// [`Session::session`].
pub struct Session {
    /// Pending vital subqueries in deferred-commit mode. Declared before
    /// `core` so a drop-time rollback still finds live LAM threads.
    gtxn: GlobalTransaction,
    /// This session's LAM connections, keyed by (site, database). Every
    /// client the session uses is checked out here, so statements after
    /// the first reach a LAM without a connect round trip. They close when
    /// the session drops.
    conns: ConnCache,
    /// Numbers this session's executors, naming each statement's private
    /// coordinator temporaries.
    temp_seq: AtomicU64,
    /// §3.2.2 deferred-commit mode: vital subqueries stay prepared across
    /// statements until a synchronization point.
    deferred: bool,
    scope: SessionScope,
    /// Recursion guard for cascading triggers.
    trigger_depth: u32,
    /// Run DOL task batches in parallel (default true).
    pub parallel: bool,
    /// Per-request network timeout.
    pub timeout: Duration,
    /// Transient-fault retry policy for every LAM request (default: a
    /// single attempt, faults surface immediately).
    pub retry: RetryPolicy,
    /// Tunables for the LAM server threads this federation spawns
    /// (control timeout, poll interval, dedup cache size).
    pub lam_config: LamConfig,
    /// Graceful degradation: tolerate services unreachable at OPEN time,
    /// letting the §3.2 vital semantics decide the statement's fate
    /// (default false: an unreachable service fails the plan at OPEN).
    pub tolerate_unreachable: bool,
    /// Semi-join reduction of cross-database joins (default true): ship the
    /// reducer's distinct join-key values to the other sites as `IN (…)`
    /// filters so only matching rows cross the wire.
    pub semijoin: bool,
    /// Per-edge cap on the distinct key values shipped as a semi-join
    /// filter; beyond it the edge falls back to full shipping. Applies only
    /// when the cost planner has no estimates for the edge — with fresh
    /// statistics the decision is an estimated-bytes comparison instead.
    pub semijoin_cap: usize,
    /// Cost-based planning of cross-database joins (default true): when the
    /// coordinator holds fresh `ANALYZE` statistics for every table a join
    /// reads, estimated row/byte counts pick the semi-join reducer, decide
    /// each reduction edge by predicted benefit and order the modified
    /// global query by ascending estimated cardinality. Databases without
    /// statistics keep the heuristic path unchanged.
    pub cost_planner: bool,
    /// Aggregate/top-k pushdown of cross-database joins (default true):
    /// when decomposition proves a 2-site query's aggregates decomposable
    /// (or it is a pure-product top-k), each site pre-aggregates (or limits)
    /// locally and the MDBS layer merges the reduced partials. Off — or any
    /// ineligible query — executes the classic ship-everything coordinator
    /// plan, byte-for-byte.
    pub agg_pushdown: bool,
    /// Encoding LAM requests travel in (default [`WireFormat::Text`], the
    /// debug and golden-trace format). [`WireFormat::Binary`] switches this
    /// session's clients to length-prefixed columnar frames; the servers
    /// mirror whatever format each request arrives in, so sessions with
    /// different settings coexist on one federation.
    pub wire_format: WireFormat,
    /// Session-level communication accounting.
    stats: SharedExecStats,
    /// The tracer of the statement currently executing (None between
    /// statements; trigger actions reuse the active tracer).
    trace: Option<Tracer>,
    /// Where spans opened by long-lived components (executor, DOL engine)
    /// hang while a statement runs.
    trace_ctx: SpanCtx,
    /// Raw span forest of the most recently completed top-level statement.
    last_trace: Option<SpanTree>,
    /// Durable multitransaction log (None until [`Session::enable_wal`]
    /// or [`Session::set_wal`]). When present, the executor records every
    /// settle-bearing statement's lifecycle and [`Session::recover`] can
    /// finish statements a crashed coordinator left behind.
    wal: Option<Wal>,
    /// This session's id (0 = the primary session; span notes and labeled
    /// metrics carry it for every spawned session).
    id: u64,
    core: Arc<FederationCore>,
}

// Sessions are handed to worker threads; keep that a compile-time guarantee.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

/// A running federation: the shared core plus its primary session. Derefs to
/// [`Session`], so single-user code uses it exactly as before the split.
pub struct Federation {
    session: Session,
}

impl Deref for Federation {
    type Target = Session;
    fn deref(&self) -> &Session {
        &self.session
    }
}

impl DerefMut for Federation {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

/// Collapses statement text to a deterministic one-line span label.
fn text_note(text: &str) -> String {
    let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
    if flat.chars().count() > 72 {
        let cut: String = flat.chars().take(72).collect();
        format!("{cut}...")
    } else {
        flat
    }
}

impl Default for Federation {
    fn default() -> Self {
        Federation::new()
    }
}

impl Federation {
    /// Creates an empty federation on a fresh (zero-latency) network.
    pub fn new() -> Self {
        Federation::with_network(Network::new())
    }

    /// Creates a federation on an existing network (latency/failure models
    /// installed by the caller).
    pub fn with_network(net: Network) -> Self {
        let clock = LogicalClock::new();
        let metrics = MetricsRegistry::new();
        net.attach_probe(clock.clone(), metrics.clone());
        let core = Arc::new(FederationCore {
            net,
            ad: RwLock::new(AuxiliaryDirectory::new()),
            gdd: RwLock::new(GlobalDataDictionary::new()),
            lams: RwLock::new(HashMap::new()),
            triggers: RwLock::new(Vec::new()),
            clock,
            metrics,
            site_stats: RwLock::new(HashMap::new()),
            session_seq: AtomicU64::new(1),
        });
        Federation { session: Session::with_core(core, 0) }
    }
}

impl Session {
    fn with_core(core: Arc<FederationCore>, id: u64) -> Session {
        Session {
            gtxn: GlobalTransaction::default(),
            conns: ConnCache::new(core.net.clone()),
            temp_seq: AtomicU64::new(0),
            deferred: false,
            scope: SessionScope::new(),
            trigger_depth: 0,
            parallel: true,
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            lam_config: LamConfig::default(),
            tolerate_unreachable: false,
            semijoin: true,
            semijoin_cap: DEFAULT_SEMIJOIN_CAP,
            cost_planner: true,
            agg_pushdown: true,
            wire_format: WireFormat::default(),
            stats: shared_stats(),
            trace: None,
            trace_ctx: SpanCtx::disabled(),
            last_trace: None,
            wal: None,
            id,
            core,
        }
    }

    /// Opens a new independent session on the same federation core: fresh
    /// scope, fresh accounting, its own connections, no WAL, configuration
    /// copied from this session. The handle is `Send` — move it to a worker
    /// thread and run statements concurrently with every other session.
    pub fn session(&self) -> Session {
        let id = self.core.session_seq.fetch_add(1, Ordering::Relaxed);
        let mut s = Session::with_core(Arc::clone(&self.core), id);
        s.parallel = self.parallel;
        s.timeout = self.timeout;
        s.retry = self.retry.clone();
        s.lam_config = self.lam_config.clone();
        s.tolerate_unreachable = self.tolerate_unreachable;
        s.semijoin = self.semijoin;
        s.semijoin_cap = self.semijoin_cap;
        s.cost_planner = self.cost_planner;
        s.agg_pushdown = self.agg_pushdown;
        s.wire_format = self.wire_format;
        s
    }

    /// This session's id (0 for the federation's primary session).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The federation's logical clock. It advances on observable events only
    /// (span open/close, simulated network traffic), so latencies read off it
    /// are deterministic.
    pub fn clock(&self) -> &LogicalClock {
        &self.core.clock
    }

    /// Observability snapshot: every counter/gauge/histogram accumulated so
    /// far (network traffic, per-LAM calls and payloads, per-phase
    /// latencies), with each service's local engine statistics scraped into
    /// `ldbs.*{service=...}` gauges at call time.
    pub fn metrics(&self) -> MetricsSnapshot {
        for (service, lam) in self.core.lams.read().iter() {
            let stats = lam.engine.lock().stats();
            let gauge = |name: &str, value: u64| {
                self.core.metrics.gauge_set(&labeled(name, "service", service), value as i64);
            };
            gauge("ldbs.statements", stats.statements);
            gauge("ldbs.commits", stats.commits);
            gauge("ldbs.aborts", stats.aborts);
            gauge("ldbs.prepares", stats.prepares);
            gauge("ldbs.rows_scanned", stats.rows_scanned);
            gauge("ldbs.index_hits", stats.index_hits);
            gauge("lam.served", lam.stats.served.load(std::sync::atomic::Ordering::Relaxed));
            gauge("lam.replayed", lam.stats.replayed.load(std::sync::atomic::Ordering::Relaxed));
        }
        self.core.metrics.snapshot()
    }

    /// The live metrics registry (to reset between phases or to share with
    /// external components).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// The normalized span tree of the most recently completed top-level
    /// statement, or `None` before the first statement runs.
    pub fn last_trace(&self) -> Option<SpanTree> {
        self.last_trace.clone().map(|mut t| {
            t.normalize();
            t
        })
    }

    /// A snapshot of the session's communication accounting (attempts,
    /// retries, faults, degraded subqueries) across every statement
    /// executed so far.
    pub fn exec_stats(&self) -> ExecStats {
        self.stats.lock().clone()
    }

    /// The shared network (to install latency models or read traffic stats).
    pub fn network(&self) -> &Network {
        &self.core.net
    }

    /// The Global Data Dictionary (a read guard: concurrent sessions read
    /// in parallel, catalog changes briefly exclude them).
    pub fn gdd(&self) -> RwLockReadGuard<'_, GlobalDataDictionary> {
        self.core.gdd.read()
    }

    /// The Auxiliary Directory (a read guard).
    pub fn ad(&self) -> RwLockReadGuard<'_, AuxiliaryDirectory> {
        self.core.ad.read()
    }

    /// The current session scope.
    pub fn scope(&self) -> &SessionScope {
        &self.scope
    }

    /// The shared engine of a service (tests and fixtures seed data and
    /// inject failures through this).
    pub fn engine(&self, service: &str) -> Option<Arc<Mutex<Engine>>> {
        self.core.lams.read().get(&service.to_ascii_lowercase()).map(|l| Arc::clone(&l.engine))
    }

    /// Registers a service: spawns its LAM at `site` and records an
    /// Auxiliary Directory entry derived from the engine's capability
    /// profile (equivalent to the INCORPORATE statement an administrator
    /// would issue).
    pub fn add_service(
        &mut self,
        service: &str,
        site: &str,
        engine: Engine,
    ) -> Result<(), MdbsError> {
        let service = service.to_ascii_lowercase();
        let mut lams = self.core.lams.write();
        if lams.contains_key(&service) {
            return Err(MdbsError::Catalog(format!("service `{service}` already added")));
        }
        let profile = engine.profile.clone();
        let lam = spawn_lam_with(&self.core.net, &service, site, engine, self.lam_config.clone())?;
        self.core.ad.write().insert(ServiceEntry {
            name: service.clone(),
            site: site.to_string(),
            multi_database: profile.multi_database,
            commit_mode: profile.capability_for(StatementClass::Dml),
            create_mode: Some(profile.capability_for(StatementClass::Create)),
            insert_mode: Some(profile.capability_for(StatementClass::Insert)),
            drop_mode: Some(profile.capability_for(StatementClass::Drop)),
        });
        lams.insert(service, lam);
        Ok(())
    }

    /// Creates a database on a service and registers it in the GDD.
    pub fn create_database(&mut self, service: &str, database: &str) -> Result<(), MdbsError> {
        let service = service.to_ascii_lowercase();
        let lams = self.core.lams.read();
        let lam = lams
            .get(&service)
            .ok_or_else(|| MdbsError::Catalog(format!("unknown service `{service}`")))?;
        lam.engine
            .lock()
            .create_database(database)
            .map_err(|e| MdbsError::Local { service: service.clone(), message: e.to_string() })?;
        drop(lams);
        self.core.gdd.write().register_database(database, &service)?;
        Ok(())
    }

    /// Builds the `database → route` map the planner and executor need.
    fn routes(&self) -> Result<HashMap<String, DbRoute>, MdbsError> {
        let gdd = self.core.gdd.read();
        let ad = self.core.ad.read();
        let mut out = HashMap::new();
        for db in gdd.database_names() {
            let service = gdd.service_of(db)?;
            let entry = ad.service(service)?;
            out.insert(
                db.to_string(),
                DbRoute {
                    database: db.to_string(),
                    site: entry.site.clone(),
                    supports_2pc: entry.supports_2pc(),
                },
            );
        }
        Ok(out)
    }

    /// The settings every LAM client of this session runs under, applied
    /// afresh on each checkout.
    fn client_config(&self) -> ClientConfig {
        ClientConfig {
            timeout: self.timeout,
            retry: self.retry.clone(),
            stats: SharedExecStats::clone(&self.stats),
            metrics: self.core.metrics.clone(),
            wire_format: self.wire_format,
        }
    }

    fn executor(&self) -> Executor {
        Executor {
            conns: self.conns.clone(),
            config: self.client_config(),
            parallel: self.parallel,
            tolerate_unreachable: self.tolerate_unreachable,
            semijoin: self.semijoin,
            semijoin_cap: self.semijoin_cap,
            agg_pushdown: self.agg_pushdown,
            trace: self.trace_ctx.clone(),
            planner: None,
            wal: self.wal.clone(),
            temp_suffix: format!("{}_{}", self.id, self.temp_seq.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Enables an in-memory write-ahead log and returns its handle. The
    /// handle is the log's "disk": it stays valid after this session (or
    /// a statement running on it) dies, so a successor coordinator can be
    /// built around the same log and [`Session::recover`] from it.
    pub fn enable_wal(&mut self) -> Wal {
        let wal = Wal::in_memory();
        self.set_wal(wal.clone());
        wal
    }

    /// Installs an existing log — file-backed, or carried over from a
    /// crashed coordinator.
    pub fn set_wal(&mut self, wal: Wal) {
        wal.attach_metrics(self.core.metrics.clone());
        self.wal = Some(wal);
    }

    /// The installed write-ahead log, if any.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Finishes every multitransaction the log shows as interrupted: for
    /// each un-ended image, replays the logged decision (or presumes abort
    /// when the coordinator died before deciding) and re-resolves every
    /// unresolved task via `RESOLVE` — committing or rolling back prepared
    /// subtransactions and compensating autocommitted ones. Idempotent and
    /// re-enterable: every resolution is logged as it lands, so a crash
    /// *during* recovery just leaves less for the next pass.
    pub fn recover(&mut self) -> Result<RecoveryReport, MdbsError> {
        let Some(wal) = self.wal.clone() else {
            return Ok(RecoveryReport::default());
        };
        let tracer = Tracer::new(self.core.clock.clone());
        let root = tracer.root("recovery");
        let started = self.core.clock.now();
        self.core.metrics.counter_add("recovery.runs", 1);
        let result = self.recover_images(&wal, &root);
        if let Err(e) = &result {
            root.note("error", text_note(&e.to_string()));
        }
        root.end();
        self.core.metrics.observe("phase.recovery", self.core.clock.now().saturating_sub(started));
        self.last_trace = Some(SpanTree::from_records(&tracer.records()));
        result
    }

    fn recover_images(&mut self, wal: &Wal, root: &Span) -> Result<RecoveryReport, MdbsError> {
        let mut report = RecoveryReport::default();
        for image in wal.replay()? {
            if image.ended {
                continue;
            }
            let span = root.child("recover-mtx");
            span.note("mtx", image.mtx_id.to_string());
            self.core.metrics.counter_add("recovery.mtx", 1);
            // The decision rules the settle phase. No decision record means
            // the coordinator died first: presume abort (§3.4 semantics —
            // prepared tasks roll back, autocommitted ones are compensated).
            let (commit_set, compensate_set, achieved_state) = match &image.decision {
                Some(WalDecision::Commit { state, commit, compensate }) => {
                    span.note("decision", format!("commit-state-{state}"));
                    (commit.clone(), compensate.clone(), Some(*state as usize))
                }
                Some(WalDecision::Abort { compensate }) => {
                    span.note("decision", "abort");
                    (Vec::new(), compensate.clone(), None)
                }
                None => {
                    span.note("decision", "presumed-abort");
                    self.core.metrics.counter_add("recovery.presumed_abort", 1);
                    (Vec::new(), image.abort_compensate.clone(), None)
                }
            };
            let mut statuses: HashMap<String, dol::TaskStatus> = image
                .resolved
                .iter()
                .map(|(task, &code)| (task.clone(), status_from_code(code)))
                .collect();
            for task in &image.tasks {
                if image.resolved.contains_key(&task.name) {
                    continue;
                }
                let tspan = span.child("resolve");
                tspan.note("task", &task.name);
                let should_commit = commit_set.contains(&task.name);
                // A task logged 'C' is settled at its LAM already — no RPC
                // needed unless it must be compensated below.
                let code = if image.prepared.get(&task.name) == Some(&'C') {
                    'C'
                } else {
                    let client = self.connect(&task.site, &task.database)?;
                    client.resolve_task_outcome(&task.name, should_commit, &tspan)?
                };
                self.core.metrics.counter_add("recovery.resolved", 1);
                // An autocommitted task that the decision excludes is undone
                // semantically (§3.3). Idempotent at the LAM ('K' memory).
                let code = if code == 'C' && !should_commit && compensate_set.contains(&task.name) {
                    let client = self.connect(&task.site, &task.database)?;
                    client.compensate_commands(&task.name, &task.compensation, &tspan)?;
                    self.core.metrics.counter_add("recovery.compensated", 1);
                    'K'
                } else {
                    code
                };
                tspan.note("status", code.to_string());
                tspan.end();
                wal.append(&WalRecord::TaskResolved {
                    mtx_id: image.mtx_id,
                    task: task.name.clone(),
                    status: code,
                })?;
                statuses.insert(task.name.clone(), status_from_code(code));
            }
            wal.append(&WalRecord::End { mtx_id: image.mtx_id })?;
            span.end();
            report.recovered.push(RecoveredMtx {
                mtx_id: image.mtx_id,
                achieved_state,
                presumed_abort: image.decision.is_none(),
                statuses,
                states: image.states,
                oracle: image.oracle,
            });
        }
        Ok(report)
    }

    /// A LAM connection for direct (non-DOL) traffic, checked out of the
    /// session's cache under its current settings.
    fn connect(&self, site: &str, database: &str) -> Result<Conn, MdbsError> {
        self.conns.checkout(site, database, &self.client_config())
    }

    /// Parses and executes a raw DOL program against the federation's
    /// services — the paper's intermediate language, exposed directly for
    /// hand-written evaluation plans and tooling. `OPEN <database> AT
    /// <site>` checks a connection out of the session's cache.
    pub fn execute_dol(&mut self, program: &str) -> Result<dol::DolOutcome, MdbsError> {
        let parsed = dol::parse_program(program)?;
        let factory = LamFactory {
            conns: self.conns.clone(),
            config: self.client_config(),
            tolerate_unreachable: self.tolerate_unreachable,
        };
        let mut engine = if self.parallel {
            dol::DolEngine::new(&factory)
        } else {
            dol::DolEngine::serial(&factory)
        };
        engine.trace = self.trace_ctx.clone();
        Ok(engine.execute(&parsed)?)
    }

    /// Switches §3.2.2 deferred-commit mode on or off. In deferred mode,
    /// vital subqueries stay prepared across statements and are resolved
    /// together at the next synchronization point (`COMMIT`, `ROLLBACK`, a
    /// `USE` scope change, or session end). Turning the mode off is itself a
    /// synchronization point.
    pub fn set_deferred_commit(&mut self, deferred: bool) -> Option<UpdateReport> {
        let report =
            if !deferred && !self.gtxn.is_empty() { Some(self.gtxn.resolve(false)) } else { None };
        self.deferred = deferred;
        report
    }

    /// Number of vital subqueries currently pending in the global
    /// transaction (deferred-commit mode).
    pub fn pending_vital_subqueries(&self) -> usize {
        self.gtxn.len()
    }

    /// True when the statement's result is an all-aborted deadlock outcome
    /// the session may transparently re-run: nothing committed, nothing is
    /// held open, and at least one subtransaction was a deadlock victim.
    fn retriable_deadlock(&self, result: &Result<MsqlOutcome, MdbsError>) -> bool {
        if self.deferred || self.trigger_depth > 0 {
            return false;
        }
        match result {
            Err(e) => e.to_string().contains("deadlock victim"),
            Ok(MsqlOutcome::Update(r)) => {
                !r.success
                    && r.outcomes.iter().all(|o| o.status != dol::TaskStatus::Committed)
                    && r.outcomes
                        .iter()
                        .any(|o| o.error.as_deref().is_some_and(|e| e.contains("deadlock victim")))
            }
            _ => false,
        }
    }

    /// Parses and executes one MSQL statement. The parse itself runs under
    /// the statement's root span, so traces show the full lifecycle.
    pub fn execute(&mut self, msql: &str) -> Result<MsqlOutcome, MdbsError> {
        let mut attempts = 0;
        loop {
            let result = self.traced_statement(text_note(msql), |fed, span| {
                let started = fed.core.clock.now();
                let parse = span.child("parse");
                let stmt = match msql_lang::parse_statement(msql) {
                    Ok(stmt) => stmt,
                    Err(e) => {
                        parse.note("error", "syntax");
                        return Err(MdbsError::Parse(e.display_with_source(msql)));
                    }
                };
                parse.end();
                fed.core
                    .metrics
                    .observe("phase.parse", fed.core.clock.now().saturating_sub(started));
                fed.dispatch_statement(&stmt, span)
            });
            if attempts < DEADLOCK_RETRIES && self.retriable_deadlock(&result) {
                attempts += 1;
                self.core.metrics.counter_add("session.deadlock_retries", 1);
                continue;
            }
            return result;
        }
    }

    /// Runs `f` under a per-statement root span. A top-level call starts a
    /// fresh tracer and captures the finished span forest into
    /// [`Session::last_trace`]; a nested call (a trigger action, an
    /// EXPLAIN target) hangs a `statement` span under the active context.
    fn traced_statement<F>(&mut self, label: String, f: F) -> Result<MsqlOutcome, MdbsError>
    where
        F: FnOnce(&mut Session, &Span) -> Result<MsqlOutcome, MdbsError>,
    {
        let nested = self.trace.is_some();
        let span = if nested {
            self.trace_ctx.child("statement")
        } else {
            let tracer = Tracer::new(self.core.clock.clone());
            let root = tracer.root("statement");
            self.trace = Some(tracer);
            root
        };
        if !label.is_empty() {
            span.note("text", label);
        }
        // Label spawned sessions' spans and metrics; the primary session
        // (id 0) stays unlabeled so single-user traces are unchanged.
        if self.id != 0 {
            span.note("session", self.id.to_string());
        }
        let prev_ctx = std::mem::replace(&mut self.trace_ctx, span.ctx());
        let started = self.core.clock.now();
        let result = f(self, &span);
        self.trace_ctx = prev_ctx;
        if let Err(e) = &result {
            span.note("error", text_note(&e.to_string()));
        }
        span.end();
        self.core.metrics.observe("phase.statement", self.core.clock.now().saturating_sub(started));
        if self.id != 0 {
            self.core
                .metrics
                .counter_add(&labeled("session.statements", "session", &self.id.to_string()), 1);
        }
        if !nested {
            if let Some(tracer) = self.trace.take() {
                self.last_trace = Some(SpanTree::from_records(&tracer.records()));
            }
        }
        result
    }

    /// Executes the statement with full tracing, then returns the measured
    /// profile — span tree plus per-LAM cost table — instead of the
    /// statement's own outcome. EXPLAIN *runs* its target (the paper's
    /// simulated costs are observed, not estimated).
    pub fn explain(&mut self, stmt: &Statement) -> Result<MsqlOutcome, MdbsError> {
        let text = print(stmt);
        // Snapshot the wire byte counters around the run so the report can
        // show what this statement alone put on the wire per format.
        let text_before = self.core.metrics.counter("net.bytes_text");
        let binary_before = self.core.metrics.counter("net.bytes_binary");
        self.execute_statement(stmt)?;
        let tree = self.last_trace().unwrap_or_default();
        let mut report = ExplainReport::from_tree(text, tree);
        // Populated only when binary frames actually shipped: the text
        // default renders byte-identically to pre-codec reports, which the
        // golden traces pin.
        let bytes_binary = self.core.metrics.counter("net.bytes_binary") - binary_before;
        if bytes_binary > 0 {
            report.wire = Some(WireSummary {
                format: self.wire_format.label().to_string(),
                bytes_text: self.core.metrics.counter("net.bytes_text") - text_before,
                bytes_binary,
            });
        }
        Ok(MsqlOutcome::Explain(Box::new(report)))
    }

    /// Parses and executes a script, returning one outcome per statement.
    pub fn execute_script(&mut self, msql: &str) -> Result<Vec<MsqlOutcome>, MdbsError> {
        let script = msql_lang::parse_script(msql)
            .map_err(|e| MdbsError::Parse(e.display_with_source(msql)))?;
        let mut out = Vec::with_capacity(script.statements.len());
        for stmt in &script.statements {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    /// Executes a pre-parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<MsqlOutcome, MdbsError> {
        if let Statement::Explain(inner) = stmt {
            return self.explain(inner);
        }
        let mut attempts = 0;
        loop {
            let result = self.traced_statement(text_note(&print(stmt)), |fed, span| {
                fed.dispatch_statement(stmt, span)
            });
            if attempts < DEADLOCK_RETRIES && self.retriable_deadlock(&result) {
                attempts += 1;
                self.core.metrics.counter_add("session.deadlock_retries", 1);
                continue;
            }
            return result;
        }
    }

    /// The statement dispatcher proper, running under `span`.
    fn dispatch_statement(
        &mut self,
        stmt: &Statement,
        span: &Span,
    ) -> Result<MsqlOutcome, MdbsError> {
        match stmt {
            Statement::Use(u) => {
                // A scope change is a synchronization point (§3.2.2).
                if self.deferred && !self.gtxn.is_empty() {
                    let report = self.gtxn.resolve(false);
                    self.scope.apply_use(u)?;
                    return Ok(MsqlOutcome::Update(report));
                }
                self.scope.apply_use(u)?;
                Ok(MsqlOutcome::Admin(format!(
                    "scope: {}",
                    self.scope
                        .databases
                        .iter()
                        .map(|d| if d.vital {
                            format!("{} VITAL", d.key())
                        } else {
                            d.key().to_string()
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                )))
            }
            Statement::Let(l) => {
                self.scope.apply_let(l)?;
                Ok(MsqlOutcome::Admin(format!(
                    "{} semantic variable(s) declared",
                    l.variables.len()
                )))
            }
            Statement::Incorporate(inc) => {
                let entry = self.core.ad.write().incorporate(inc).clone();
                Ok(MsqlOutcome::Admin(format!(
                    "service `{}` incorporated at site `{}`",
                    entry.name, entry.site
                )))
            }
            Statement::Import(imp) => {
                let entry = self.core.ad.read().service(&imp.service)?.clone();
                let client = self.connect(&entry.site, &imp.database)?;
                let schema = client.fetch_schema()?;
                let imported = apply_import(&mut self.core.gdd.write(), imp, &schema)?;
                Ok(MsqlOutcome::Admin(format!(
                    "imported {} object(s) from `{}`: {}",
                    imported.len(),
                    imp.database,
                    imported.join(", ")
                )))
            }
            Statement::Query(q) => self.execute_query(q, span),
            Statement::Multitransaction(m) => self.execute_multitransaction(m, span),
            Statement::Explain(inner) => {
                // Already inside a trace (this EXPLAIN arrived as text or as
                // a trigger action): run the target as a nested statement,
                // then report on the spans collected so far.
                let text = print(inner);
                let text_before = self.core.metrics.counter("net.bytes_text");
                let binary_before = self.core.metrics.counter("net.bytes_binary");
                self.execute_statement(inner)?;
                let records = self.trace.as_ref().map(|t| t.records()).unwrap_or_default();
                let mut tree = SpanTree::from_records(&records);
                tree.normalize();
                let mut report = ExplainReport::from_tree(text, tree);
                // Same rule as `Session::explain`: the wire summary appears
                // only when binary frames actually shipped.
                let bytes_binary = self.core.metrics.counter("net.bytes_binary") - binary_before;
                if bytes_binary > 0 {
                    report.wire = Some(WireSummary {
                        format: self.wire_format.label().to_string(),
                        bytes_text: self.core.metrics.counter("net.bytes_text") - text_before,
                        bytes_binary,
                    });
                }
                Ok(MsqlOutcome::Explain(Box::new(report)))
            }
            Statement::CreateTable(ct) => self.execute_create_table(ct),
            Statement::DropTable(dt) => self.execute_drop_table(dt),
            Statement::Analyze(target) => self.execute_analyze(target.as_ref()),
            Statement::CreateIndex(ci) => self.execute_create_index(ci),
            Statement::DropIndex(di) => self.execute_drop_index(di),
            Statement::CreateDatabase(_) | Statement::DropDatabase(_) => {
                Err(MdbsError::Unsupported(
                    "CREATE/DROP DATABASE must name a service; use \
                     Federation::create_database(service, name)"
                        .into(),
                ))
            }
            Statement::CreateTrigger(t) => {
                let mut triggers = self.core.triggers.write();
                if triggers.iter().any(|existing| existing.name == t.name) {
                    return Err(MdbsError::Catalog(format!("trigger `{}` already exists", t.name)));
                }
                triggers.push(TriggerDef {
                    name: t.name.clone(),
                    database: t.database.clone(),
                    table: t.table.clone(),
                    event: t.event,
                    action: (*t.action).clone(),
                });
                Ok(MsqlOutcome::Admin(format!(
                    "trigger `{}` created on {}.{} AFTER {}",
                    t.name,
                    t.database,
                    t.table,
                    t.event.name()
                )))
            }
            Statement::DropTrigger(name) => {
                let mut triggers = self.core.triggers.write();
                let before = triggers.len();
                triggers.retain(|t| &t.name != name);
                if triggers.len() == before {
                    return Err(MdbsError::Catalog(format!("unknown trigger `{name}`")));
                }
                Ok(MsqlOutcome::Admin(format!("trigger `{name}` dropped")))
            }
            Statement::Commit => {
                if self.deferred && !self.gtxn.is_empty() {
                    return Ok(MsqlOutcome::Update(self.gtxn.resolve(false)));
                }
                Ok(MsqlOutcome::Admin(
                    "synchronization point: nothing pending (each MSQL statement commits or \
                     aborts its vital set when it terminates, §3.2.2)"
                        .into(),
                ))
            }
            Statement::Rollback => {
                if self.deferred && !self.gtxn.is_empty() {
                    return Ok(MsqlOutcome::Update(self.gtxn.resolve(true)));
                }
                Ok(MsqlOutcome::Admin("synchronization point: nothing pending to roll back".into()))
            }
        }
    }

    fn execute_query(&mut self, q: &MsqlQuery, span: &Span) -> Result<MsqlOutcome, MdbsError> {
        // USE/LET attached to the query update the session scope, which then
        // persists (interactive MSQL behaviour).
        if let Some(u) = &q.use_clause {
            self.scope.apply_use(u)?;
        }
        for l in &q.lets {
            self.scope.apply_let(l)?;
        }
        // Inter-database data transfer (an MSQL §2 capability): INSERT INTO
        // a table of one database from a SELECT over other databases.
        if let QueryBody::Insert(ins) = &q.body {
            if let Some(target) = self.transfer_target(ins)? {
                return self.execute_data_transfer(ins, &target);
            }
        }
        let routes = self.routes()?;
        let translate_started = self.core.clock.now();
        let translated = {
            let gdd = self.core.gdd.read();
            translate::translate_body_traced(&q.body, &self.scope, &gdd, span)?
        };
        self.core
            .metrics
            .observe("phase.translate", self.core.clock.now().saturating_sub(translate_started));
        match translated {
            Translated::PerDb(locals) => match &q.body {
                QueryBody::Select(_) => {
                    if !q.comps.is_empty() {
                        return Err(MdbsError::BadCompClause(
                            "COMP applies to modification statements".into(),
                        ));
                    }
                    let plan = {
                        let pg = span.child("plangen");
                        pg.note("shape", "retrieval");
                        let plan = retrieval_plan(&locals, &routes)?;
                        pg.note("tasks", plan.tasks.len());
                        plan
                    };
                    let started = self.core.clock.now();
                    let mt = self.executor().run_retrieval(&plan)?;
                    self.core
                        .metrics
                        .observe("phase.execute", self.core.clock.now().saturating_sub(started));
                    Ok(MsqlOutcome::Multitable(mt))
                }
                _ => {
                    let comps = self.comp_map(q, &locals)?;
                    if self.deferred {
                        return self.run_deferred_update(&locals, &comps, &routes);
                    }
                    let plan = {
                        let pg = span.child("plangen");
                        pg.note("shape", "update");
                        let plan = update_plan(&locals, &comps, &routes)?;
                        pg.note("tasks", plan.tasks.len());
                        plan
                    };
                    let started = self.core.clock.now();
                    let report = self.executor().run_update(&plan)?;
                    self.core
                        .metrics
                        .observe("phase.execute", self.core.clock.now().saturating_sub(started));
                    // Fire interdatabase triggers for committed subqueries.
                    let mut events = Vec::new();
                    for (local, outcome) in locals.iter().zip(&report.outcomes) {
                        if outcome.status != dol::TaskStatus::Committed || outcome.affected == 0 {
                            continue;
                        }
                        if let Statement::Query(inner) = &local.statement {
                            let (event, table) = match &inner.body {
                                QueryBody::Update(u) => {
                                    (msql_lang::TriggerEvent::Update, u.table.table.clone())
                                }
                                QueryBody::Insert(i) => {
                                    (msql_lang::TriggerEvent::Insert, i.table.table.clone())
                                }
                                QueryBody::Delete(d) => {
                                    (msql_lang::TriggerEvent::Delete, d.table.table.clone())
                                }
                                QueryBody::Select(_) => continue,
                            };
                            events.push((local.database.clone(), table, event));
                        }
                    }
                    self.fire_triggers(&events)?;
                    Ok(MsqlOutcome::Update(report))
                }
            },
            Translated::CrossDb(dec) => {
                let started = self.core.clock.now();
                let rs = self.run_cross_db_costed(&dec, &routes)?;
                self.core
                    .metrics
                    .observe("phase.execute", self.core.clock.now().saturating_sub(started));
                Ok(MsqlOutcome::Table(rs))
            }
        }
    }

    /// Validates COMP clauses against the locals and renders their
    /// compensating statements as SQL.
    fn comp_map(
        &self,
        q: &MsqlQuery,
        locals: &[translate::LocalQuery],
    ) -> Result<HashMap<String, Vec<String>>, MdbsError> {
        let mut out: HashMap<String, Vec<String>> = HashMap::new();
        for comp in &q.comps {
            let name = comp.database.as_str();
            let Some(scope_db) = self.scope.resolve(name) else {
                return Err(MdbsError::BadCompClause(format!(
                    "`{name}` is not in the current scope"
                )));
            };
            let key = scope_db.key().to_string();
            if !locals.iter().any(|l| l.key == key) {
                return Err(MdbsError::BadCompClause(format!(
                    "`{name}` has no pertinent subquery to compensate"
                )));
            }
            let sql = match comp.statement.as_ref() {
                Statement::Query(inner) => print(&Statement::Query(inner.clone())),
                other => print(other),
            };
            out.entry(key).or_default().push(sql);
        }
        Ok(out)
    }

    /// Detects an inter-database transfer: an `INSERT ... SELECT` whose
    /// explicitly qualified target database differs from every database the
    /// source SELECT reads. Returns the target database name.
    fn transfer_target(&self, ins: &msql_lang::Insert) -> Result<Option<String>, MdbsError> {
        let Some(tq) = &ins.table.database else { return Ok(None) };
        let msql_lang::InsertSource::Select(sel) = &ins.source else { return Ok(None) };
        let gdd = self.core.gdd.read();
        let target = match self.scope.resolve(tq.as_str()) {
            Some(d) => d.database.clone(),
            None if gdd.has_database(tq.as_str()) => tq.as_str().to_string(),
            None => return Err(MdbsError::NotInScope(tq.as_str().to_string())),
        };
        // Does the source read the target database? Then it is a local
        // insert-select, handled by the ordinary pipeline.
        for tref in &sel.from {
            let owner = match &tref.database {
                Some(q) => self.scope.resolve(q.as_str()).map(|d| d.database.clone()),
                None => {
                    let mut found = None;
                    for d in &self.scope.databases {
                        if gdd.table(&d.database, tref.table.as_str()).is_ok() {
                            found = Some(d.database.clone());
                            break;
                        }
                    }
                    found
                }
            };
            if owner.as_deref() == Some(target.as_str()) {
                return Ok(None);
            }
        }
        Ok(Some(target))
    }

    /// Executes an inter-database transfer: evaluates the source SELECT
    /// (single database or cross-database join), then ships the rows to the
    /// target as batched multi-row INSERTs.
    fn execute_data_transfer(
        &mut self,
        ins: &msql_lang::Insert,
        target: &str,
    ) -> Result<MsqlOutcome, MdbsError> {
        let msql_lang::InsertSource::Select(sel) = &ins.source else {
            return Err(MdbsError::Internal("transfer without a SELECT source".into()));
        };
        let routes = self.routes()?;
        // 1. Evaluate the source.
        let translated = {
            let gdd = self.core.gdd.read();
            translate::translate_body(&QueryBody::Select((**sel).clone()), &self.scope, &gdd)?
        };
        let rows = match translated {
            Translated::PerDb(locals) => {
                let sources: Vec<&str> = locals.iter().map(|l| l.database.as_str()).collect();
                if sources.len() != 1 {
                    return Err(MdbsError::Unsupported(format!(
                        "the transfer source must resolve to a single database; it is \
                         pertinent to {sources:?} — qualify the source tables"
                    )));
                }
                let plan = retrieval_plan(&locals, &routes)?;
                let mt = self.executor().run_retrieval(&plan)?;
                mt.tables.into_iter().next().map(|t| t.result).unwrap_or_default()
            }
            Translated::CrossDb(dec) => self.run_cross_db_costed(&dec, &routes)?,
        };

        // 2. Ship the rows as batched INSERT statements.
        let route = routes
            .get(target)
            .ok_or_else(|| MdbsError::Catalog(format!("no route for `{target}`")))?;
        let columns: Vec<msql_lang::WildName> = ins.columns.clone();
        let mut commands = Vec::new();
        for chunk in rows.rows.chunks(64) {
            let values: Vec<Vec<msql_lang::Expr>> = chunk
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|v| msql_lang::Expr::Literal(ldbs::eval::value_literal(v)))
                        .collect()
                })
                .collect();
            let insert = msql_lang::Insert {
                table: msql_lang::TableRef {
                    database: None,
                    table: ins.table.table.clone(),
                    alias: None,
                },
                columns: columns.clone(),
                source: msql_lang::InsertSource::Values(values),
            };
            commands.push(print(&Statement::Query(MsqlQuery {
                use_clause: None,
                lets: Vec::new(),
                body: QueryBody::Insert(insert),
                comps: Vec::new(),
            })));
        }
        let transferred = rows.rows.len() as u64;
        if !commands.is_empty() {
            let client = self.connect(&route.site, target)?;
            let span = self.trace_ctx.child(format!("transfer:{target}"));
            span.note("db", target);
            span.note("rows", transferred);
            let req = crate::proto::Request::Task {
                name: "TRANSFER".into(),
                mode: crate::proto::TaskMode::Auto,
                database: target.to_string(),
                commands,
            };
            let (resp, attempts, _faults) = client.call_traced(&req, &span);
            span.note("attempts", attempts);
            match resp? {
                crate::proto::Response::TaskDone { status: 'C', .. } => {}
                crate::proto::Response::TaskDone { error, .. } => {
                    return Err(MdbsError::Local {
                        service: target.to_string(),
                        message: error.unwrap_or_else(|| "transfer failed".into()),
                    })
                }
                other => return Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
            }
        }
        Ok(MsqlOutcome::Update(crate::executor::UpdateReport {
            success: true,
            return_code: 0,
            outcomes: vec![crate::executor::DbOutcome::new(
                target.to_string(),
                target.to_string(),
                dol::TaskStatus::Committed,
                transferred,
                None,
            )],
            stats: Default::default(),
        }))
    }

    /// Deferred-mode execution of a modification: vital subqueries are held
    /// open by the global transaction; non-vital ones autocommit
    /// immediately, as always.
    fn run_deferred_update(
        &mut self,
        locals: &[translate::LocalQuery],
        comps: &HashMap<String, Vec<String>>,
        routes: &HashMap<String, DbRoute>,
    ) -> Result<MsqlOutcome, MdbsError> {
        let mut outcomes = Vec::with_capacity(locals.len());
        let config = self.client_config();
        for l in locals {
            let route = routes
                .get(&l.database)
                .ok_or_else(|| MdbsError::Catalog(format!("no route for `{}`", l.database)))?;
            let sql = print(&l.statement);
            if l.vital {
                let compensation = comps.get(&l.key).cloned().unwrap_or_default();
                if !route.supports_2pc && compensation.is_empty() {
                    return Err(MdbsError::VitalWithoutCompensation { database: l.key.clone() });
                }
                let conns = &self.conns;
                let (status, affected) = self.gtxn.execute_held(
                    || conns.checkout(&route.site, &l.database, &config),
                    &l.key,
                    &l.database,
                    sql,
                    route.supports_2pc,
                    compensation,
                )?;
                outcomes.push(DbOutcome::new(
                    l.database.clone(),
                    l.key.clone(),
                    status,
                    affected,
                    None,
                ));
            } else {
                let client = self.connect(&route.site, &l.database)?;
                let resp = client.call(crate::proto::Request::Task {
                    name: format!("NV_{}", l.key),
                    mode: crate::proto::TaskMode::Auto,
                    database: l.database.clone(),
                    commands: vec![sql],
                })?;
                let (status, affected, error) = match resp {
                    crate::proto::Response::TaskDone { status: 'C', affected, .. } => {
                        (dol::TaskStatus::Committed, affected, None)
                    }
                    crate::proto::Response::TaskDone { error, .. } => {
                        (dol::TaskStatus::Aborted, 0, error)
                    }
                    other => return Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
                };
                outcomes.push(DbOutcome::new(
                    l.database.clone(),
                    l.key.clone(),
                    status,
                    affected,
                    error,
                ));
            }
        }
        // Interim report: success means the global transaction can still
        // commit; vital members show their held (Prepared/Committed) status.
        let committable = self.gtxn.all_committable();
        Ok(MsqlOutcome::Update(UpdateReport {
            success: committable,
            return_code: if committable { 0 } else { 1 },
            outcomes,
            stats: Default::default(),
        }))
    }

    /// Fires the interdatabase triggers matching the given
    /// `(database, table, event)` occurrences. Cascades are bounded to depth
    /// 4; a failing action fails the calling statement (the local updates
    /// have already committed — exactly the loose coupling the paper's
    /// compensation machinery exists for).
    fn fire_triggers(
        &mut self,
        events: &[(String, msql_lang::WildName, msql_lang::TriggerEvent)],
    ) -> Result<usize, MdbsError> {
        if events.is_empty() || self.trigger_depth >= 4 {
            return Ok(0);
        }
        let mut actions = Vec::new();
        {
            let triggers = self.core.triggers.read();
            for (db, table, event) in events {
                for t in triggers.iter() {
                    if t.event == *event
                        && t.database.matches(db)
                        && t.table.matches(table.as_str())
                    {
                        actions.push(t.action.clone());
                    }
                }
            }
        }
        if actions.is_empty() {
            return Ok(0);
        }
        // Actions run in their own scope (they usually start with USE);
        // the interrupted session scope is restored afterwards. Their nested
        // statement spans hang under one `triggers` span.
        let span = self.trace_ctx.child("triggers");
        span.note("actions", actions.len());
        let prev_ctx = std::mem::replace(&mut self.trace_ctx, span.ctx());
        let saved_scope = self.scope.clone();
        self.trigger_depth += 1;
        let run = (|| {
            for action in &actions {
                self.execute_statement(action)?;
            }
            Ok(actions.len())
        })();
        self.trigger_depth -= 1;
        self.scope = saved_scope;
        self.trace_ctx = prev_ctx;
        span.end();
        run
    }

    fn execute_multitransaction(
        &mut self,
        m: &Multitransaction,
        span: &Span,
    ) -> Result<MsqlOutcome, MdbsError> {
        let routes = self.routes()?;
        // Each component query manages its own scope; the session scope is
        // untouched by the block.
        let mut working = self.scope.clone();
        let mut queries = Vec::with_capacity(m.queries.len());
        for q in &m.queries {
            if let Some(u) = &q.use_clause {
                working.apply_use(u)?;
            }
            for l in &q.lets {
                working.apply_let(l)?;
            }
            let translated = {
                let gdd = self.core.gdd.read();
                translate::translate_body_traced(&q.body, &working, &gdd, span)?
            };
            let locals = match translated {
                Translated::PerDb(locals) => locals,
                Translated::CrossDb(_) => {
                    return Err(MdbsError::Mtx(
                        "cross-database joins are not allowed inside a multitransaction".into(),
                    ))
                }
            };
            // COMP validation against this component's scope.
            let mut comps: HashMap<String, Vec<String>> = HashMap::new();
            for comp in &q.comps {
                let name = comp.database.as_str();
                let Some(scope_db) = working.resolve(name) else {
                    return Err(MdbsError::BadCompClause(format!(
                        "`{name}` is not in the component query's scope"
                    )));
                };
                let sql = print(comp.statement.as_ref());
                comps.entry(scope_db.key().to_string()).or_default().push(sql);
            }
            queries.push(MtxQueryPlan { locals, comps });
        }
        let states: Vec<Vec<String>> = m
            .acceptable_states
            .iter()
            .map(|s| s.databases.iter().map(|d| d.as_str().to_string()).collect())
            .collect();
        let plan = {
            let pg = span.child("plangen");
            pg.note("shape", "multitransaction");
            pg.note("queries", queries.len());
            pg.note("states", states.len());
            let plan = multitransaction_plan(&queries, &states, &routes)?;
            pg.note("tasks", plan.tasks.len());
            plan
        };
        let started = self.core.clock.now();
        let report = self.executor().run_mtx(&plan, states.len())?;
        self.core.metrics.observe("phase.execute", self.core.clock.now().saturating_sub(started));
        Ok(MsqlOutcome::Mtx(report))
    }

    fn execute_create_table(&mut self, ct: &CreateTable) -> Result<MsqlOutcome, MdbsError> {
        let database = self.ddl_target(&ct.table)?;
        let routes = self.routes()?;
        let route = routes
            .get(&database)
            .ok_or_else(|| MdbsError::Catalog(format!("no route for `{database}`")))?;
        // Ship the CREATE with the qualifier stripped.
        let mut local = ct.clone();
        local.table.database = None;
        let client = self.connect(&route.site, &database)?;
        let resp = client.call(crate::proto::Request::Task {
            name: "DDL".into(),
            mode: crate::proto::TaskMode::Auto,
            database: database.clone(),
            commands: vec![print(&Statement::CreateTable(local))],
        })?;
        match resp {
            crate::proto::Response::TaskDone { status: 'C', .. } => {
                // Export the new table to the multidatabase level.
                let columns = ct
                    .columns
                    .iter()
                    .map(|c| GddColumn::new(c.name.clone(), c.type_name))
                    .collect();
                self.core
                    .gdd
                    .write()
                    .put_table(&database, GddTable::new(ct.table.table.as_str(), columns))?;
                // DDL invalidates whatever statistics were cached for the
                // database — the next costed join re-pulls them.
                self.core.site_stats.write().remove(&database);
                Ok(MsqlOutcome::Admin(format!(
                    "table `{}` created in `{database}`",
                    ct.table.table
                )))
            }
            crate::proto::Response::TaskDone { error, .. } => Err(MdbsError::Local {
                service: database,
                message: error.unwrap_or_else(|| "CREATE TABLE failed".into()),
            }),
            other => Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    fn execute_drop_table(&mut self, dt: &DropTable) -> Result<MsqlOutcome, MdbsError> {
        let database = self.ddl_target(&dt.table)?;
        let routes = self.routes()?;
        let route = routes
            .get(&database)
            .ok_or_else(|| MdbsError::Catalog(format!("no route for `{database}`")))?;
        let mut local = dt.clone();
        local.table.database = None;
        let client = self.connect(&route.site, &database)?;
        let resp = client.call(crate::proto::Request::Task {
            name: "DDL".into(),
            mode: crate::proto::TaskMode::Auto,
            database: database.clone(),
            commands: vec![print(&Statement::DropTable(local))],
        })?;
        match resp {
            crate::proto::Response::TaskDone { status: 'C', .. } => {
                let _ = self.core.gdd.write().drop_table(&database, dt.table.table.as_str());
                self.core.site_stats.write().remove(&database);
                Ok(MsqlOutcome::Admin(format!(
                    "table `{}` dropped from `{database}`",
                    dt.table.table
                )))
            }
            crate::proto::Response::TaskDone { error, .. } => Err(MdbsError::Local {
                service: database,
                message: error.unwrap_or_else(|| "DROP TABLE failed".into()),
            }),
            other => Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Ships an ANALYZE to the owning LAM (a qualified target names its
    /// database; a bare `ANALYZE` requires a single-database scope), then
    /// invalidates the coordinator's cached statistics for that database so
    /// the next costed join re-pulls the fresh snapshot.
    fn execute_analyze(
        &mut self,
        target: Option<&msql_lang::TableRef>,
    ) -> Result<MsqlOutcome, MdbsError> {
        let database = match target {
            Some(t) => self.ddl_target(t)?,
            None => match self.scope.databases.as_slice() {
                [only] => only.database.clone(),
                [] => return Err(MdbsError::EmptyScope),
                _ => {
                    return Err(MdbsError::Unsupported(
                        "ANALYZE over a multi-database scope is ambiguous; name the table \
                         or narrow the scope"
                            .into(),
                    ))
                }
            },
        };
        let routes = self.routes()?;
        let route = routes
            .get(&database)
            .ok_or_else(|| MdbsError::Catalog(format!("no route for `{database}`")))?;
        // Ship the ANALYZE with the qualifier stripped.
        let local = Statement::Analyze(target.map(|t| {
            let mut t = t.clone();
            t.database = None;
            t
        }));
        let client = self.connect(&route.site, &database)?;
        let resp = client.call(crate::proto::Request::Task {
            name: "ANALYZE".into(),
            mode: crate::proto::TaskMode::Auto,
            database: database.clone(),
            commands: vec![print(&local)],
        })?;
        match resp {
            crate::proto::Response::TaskDone { status: 'C', affected, .. } => {
                self.core.site_stats.write().remove(&database);
                Ok(MsqlOutcome::Admin(format!("analyzed {affected} table(s) in `{database}`")))
            }
            crate::proto::Response::TaskDone { error, .. } => Err(MdbsError::Local {
                service: database,
                message: error.unwrap_or_else(|| "ANALYZE failed".into()),
            }),
            other => Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Builds the statistics context for one decomposition: per involved
    /// database, the cached site statistics, pulled over the `STATS`
    /// exchange on first use. Failures degrade rather than fail — a
    /// database whose statistics cannot be fetched simply contributes no
    /// estimates, which keeps its decisions heuristic. `None` when the
    /// session has the cost planner off or nothing usable was found.
    fn planner_context(
        &self,
        dec: &Decomposition,
        routes: &HashMap<String, DbRoute>,
    ) -> Option<PlannerContext> {
        if !self.cost_planner {
            return None;
        }
        let mut ctx = PlannerContext::default();
        let mut dbs: Vec<&str> = dec.subqueries.iter().map(|s| s.database.as_str()).collect();
        dbs.sort_unstable();
        dbs.dedup();
        for db in dbs {
            let cached = self.core.site_stats.read().get(db).cloned();
            let tables = match cached {
                Some(t) => {
                    self.core.metrics.counter_add("planner.stats_cache_hits", 1);
                    t
                }
                None => {
                    let Some(route) = routes.get(db) else { continue };
                    let Ok(client) = self.connect(&route.site, db) else { continue };
                    match client.fetch_stats() {
                        Ok(t) => {
                            self.core.metrics.counter_add("planner.stats_fetches", 1);
                            self.core.site_stats.write().insert(db.to_string(), t.clone());
                            t
                        }
                        Err(_) => {
                            self.core.metrics.counter_add("planner.stats_fetch_errors", 1);
                            continue;
                        }
                    }
                }
            };
            ctx.insert_db(db, tables);
        }
        if ctx.is_empty() {
            None
        } else {
            Some(ctx)
        }
    }

    /// Runs a cross-database decomposition with the cost planner's context
    /// attached (when the session has it enabled and statistics exist).
    fn run_cross_db_costed(
        &self,
        dec: &Decomposition,
        routes: &HashMap<String, DbRoute>,
    ) -> Result<ldbs::engine::ResultSet, MdbsError> {
        let mut ex = self.executor();
        ex.planner = self.planner_context(dec, routes);
        ex.run_cross_db(dec, routes)
    }

    /// Ships a CREATE INDEX to the owning LAM. Indexes are a local access
    /// path, not a multidatabase object, so nothing is registered in the GDD.
    fn execute_create_index(&mut self, ci: &CreateIndex) -> Result<MsqlOutcome, MdbsError> {
        let database = self.ddl_target(&ci.table)?;
        let routes = self.routes()?;
        let route = routes
            .get(&database)
            .ok_or_else(|| MdbsError::Catalog(format!("no route for `{database}`")))?;
        let mut local = ci.clone();
        local.table.database = None;
        let client = self.connect(&route.site, &database)?;
        let resp = client.call(crate::proto::Request::Task {
            name: "DDL".into(),
            mode: crate::proto::TaskMode::Auto,
            database: database.clone(),
            commands: vec![print(&Statement::CreateIndex(local))],
        })?;
        match resp {
            crate::proto::Response::TaskDone { status: 'C', .. } => Ok(MsqlOutcome::Admin(
                format!("index `{}` created on `{database}`.`{}`", ci.name, ci.table.table),
            )),
            crate::proto::Response::TaskDone { error, .. } => Err(MdbsError::Local {
                service: database,
                message: error.unwrap_or_else(|| "CREATE INDEX failed".into()),
            }),
            other => Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Ships a DROP INDEX to the owning LAM.
    fn execute_drop_index(&mut self, di: &DropIndex) -> Result<MsqlOutcome, MdbsError> {
        let database = self.ddl_target(&di.table)?;
        let routes = self.routes()?;
        let route = routes
            .get(&database)
            .ok_or_else(|| MdbsError::Catalog(format!("no route for `{database}`")))?;
        let mut local = di.clone();
        local.table.database = None;
        let client = self.connect(&route.site, &database)?;
        let resp = client.call(crate::proto::Request::Task {
            name: "DDL".into(),
            mode: crate::proto::TaskMode::Auto,
            database: database.clone(),
            commands: vec![print(&Statement::DropIndex(local))],
        })?;
        match resp {
            crate::proto::Response::TaskDone { status: 'C', .. } => Ok(MsqlOutcome::Admin(
                format!("index `{}` dropped from `{database}`.`{}`", di.name, di.table.table),
            )),
            crate::proto::Response::TaskDone { error, .. } => Err(MdbsError::Local {
                service: database,
                message: error.unwrap_or_else(|| "DROP INDEX failed".into()),
            }),
            other => Err(MdbsError::Wire(format!("unexpected reply: {other:?}"))),
        }
    }

    /// The database a DDL statement targets: the explicit qualifier, or the
    /// single database in scope.
    fn ddl_target(&self, table: &msql_lang::TableRef) -> Result<String, MdbsError> {
        if let Some(q) = &table.database {
            if let Some(d) = self.scope.resolve(q.as_str()) {
                return Ok(d.database.clone());
            }
            // DDL may target an imported database outside the scope too.
            if self.core.gdd.read().has_database(q.as_str()) {
                return Ok(q.as_str().to_string());
            }
            return Err(MdbsError::NotInScope(q.as_str().to_string()));
        }
        match self.scope.databases.as_slice() {
            [only] => Ok(only.database.clone()),
            [] => Err(MdbsError::EmptyScope),
            _ => Err(MdbsError::Unsupported(
                "DDL over a multi-database scope is ambiguous; qualify the table name".into(),
            )),
        }
    }
}

fn status_from_code(code: char) -> dol::TaskStatus {
    dol::TaskStatus::from_code(code).unwrap_or(dol::TaskStatus::Error)
}

/// What [`Session::recover`] did for one interrupted multitransaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredMtx {
    /// The log's multitransaction id.
    pub mtx_id: u64,
    /// The acceptable state the logged decision installed (`None` for
    /// abort, logged or presumed).
    pub achieved_state: Option<usize>,
    /// True when no decision record existed and recovery presumed abort.
    pub presumed_abort: bool,
    /// Final per-task statuses after recovery (logged resolutions plus the
    /// ones this pass produced).
    pub statuses: HashMap<String, dol::TaskStatus>,
    /// The acceptable termination states, from the log.
    pub states: Vec<Vec<String>>,
    /// The tasks the consistency oracle covers, from the log.
    pub oracle: Vec<String>,
}

impl RecoveredMtx {
    /// The §3.4 consistency check over the oracle's task set: either some
    /// acceptable state is exactly realised, or everything is undone.
    /// Non-oracle tasks (non-vital update subqueries) are excluded — they
    /// commit under either decision, by design.
    pub fn is_consistent(&self) -> bool {
        let filtered: HashMap<String, dol::TaskStatus> = self
            .statuses
            .iter()
            .filter(|(task, _)| self.oracle.contains(task))
            .map(|(task, &status)| (task.clone(), status))
            .collect();
        crate::mtx::is_consistent_outcome(&self.states, &filtered)
    }
}

/// Everything one [`Session::recover`] pass settled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// One entry per interrupted multitransaction, in log order.
    pub recovered: Vec<RecoveredMtx>,
}
