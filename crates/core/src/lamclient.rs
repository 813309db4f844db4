//! Local Access Managers — the client side.
//!
//! A [`LamClient`] is one open connection from the DOL engine to a remote
//! LAM: it implements [`dol::DolService`] by shipping [`crate::proto`]
//! requests over the simulated network, and adds the data-flow operations
//! the executor needs (schema fetch, partial-result loading at the
//! coordinator). Sessions keep their clients in a
//! [`crate::conns::ConnCache`], so one connection serves many statements.

use crate::codec::{self, WireFormat};
use crate::conns::ConnCache;
use crate::error::MdbsError;
use crate::proto::{self, Request, Response, TaskMode};
use crate::retry::{shared_stats, RetryPolicy, SharedExecStats};
use dol::engine::TaskExecution;
use dol::TaskStatus;
use dol::{DolError, DolService, ServiceFactory};
use netsim::{Body, BufferPool, Endpoint, FaultKind, NetError, Network};
use obs::{labeled, MetricsRegistry, Span};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Correlation ids for logical requests. Each logical call gets one id; all
/// of its retry attempts share it, so the LAM can deduplicate resends and
/// the client can discard stale responses from abandoned attempts.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

/// Packs a task's affected-row count and optional result payload into the
/// single result string [`dol::engine::TaskExecution`] carries.
pub fn encode_task_result(affected: u64, payload: Option<&str>) -> String {
    match payload {
        Some(p) => format!("AFFECTED {affected}\n{p}"),
        None => format!("AFFECTED {affected}\n"),
    }
}

/// Reverses [`encode_task_result`]; returns `(affected, payload)`.
pub fn decode_task_result(result: &str) -> Result<(u64, Option<String>), MdbsError> {
    let (header, payload) = result
        .split_once('\n')
        .ok_or_else(|| MdbsError::Wire("missing task result header".into()))?;
    let affected = header
        .strip_prefix("AFFECTED ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| MdbsError::Wire(format!("bad task result header `{header}`")))?;
    let payload = if payload.is_empty() { None } else { Some(payload.to_string()) };
    Ok((affected, payload))
}

/// The outcome of one [`LamClient::run_partial`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialResult {
    /// `wire::encode_result_set` payload of the (possibly reduced) subquery.
    pub payload: String,
    /// Rows in `payload`.
    pub rows: u64,
    /// Rows the unreduced baseline would have shipped (0 when unmeasured).
    pub full_rows: u64,
    /// Bytes the unreduced baseline would have shipped (0 when unmeasured).
    pub full_bytes: u64,
    /// Round-trip attempts spent on the request.
    pub attempts: u32,
    /// Access path the local engine took (`probe` or `scan`), when reported.
    pub access: Option<String>,
}

/// The settings a [`LamClient`] runs under. Each owner (a session, an
/// executor, a DOL factory) applies its current ones on every checkout from
/// a [`ConnCache`], so a reused connection behaves exactly like a new one.
#[derive(Clone)]
pub struct ClientConfig {
    /// Per-request timeout.
    pub timeout: Duration,
    /// Transient-fault retry policy.
    pub retry: RetryPolicy,
    /// Stats cell the client records its calls into.
    pub stats: SharedExecStats,
    /// Metrics sink for the client's `lam.*` and `wire.*` series.
    pub metrics: MetricsRegistry,
    /// Request encoding (the LAM mirrors it in replies).
    pub wire_format: WireFormat,
}

impl ClientConfig {
    /// Fail-fast defaults: no retries, private stats and metrics, text.
    pub fn new(timeout: Duration) -> Self {
        ClientConfig {
            timeout,
            retry: RetryPolicy::default(),
            stats: shared_stats(),
            metrics: MetricsRegistry::new(),
            wire_format: WireFormat::default(),
        }
    }
}

/// One connection to a LAM, bound to a database on that service.
pub struct LamClient {
    endpoint: Endpoint,
    net: Network,
    site: String,
    /// The database this connection is opened on.
    pub database: String,
    timeout: Duration,
    /// Transient-fault retry policy (default: a single attempt).
    retry: RetryPolicy,
    /// Shared fault/retry accounting.
    stats: SharedExecStats,
    /// Metrics sink for `lam.*` series (a private registry unless attached
    /// to a federation's via [`Self::configure`]).
    metrics: MetricsRegistry,
    /// Encoding used for requests (the server mirrors it in replies). Text
    /// unless negotiated up via [`Self::configure`].
    wire_format: WireFormat,
    /// Lease pool for binary frame buffers.
    pool: BufferPool,
    /// Set once a request met a terminal fault: the LAM is gone, so a
    /// connection cache drops this client instead of keeping it.
    terminal: AtomicBool,
}

/// One attempt's failure: a classified network fault, or a protocol error
/// that no resend can fix.
enum AttemptError {
    Net(NetError),
    Fatal(MdbsError),
}

impl LamClient {
    /// Opens a connection: registers a unique client endpoint and pings the
    /// LAM to verify it is reachable. No retries; see [`Self::connect_with`].
    pub fn connect(
        net: &Network,
        site: &str,
        database: &str,
        timeout: Duration,
    ) -> Result<Self, MdbsError> {
        LamClient::connect_with(
            net,
            site,
            database,
            timeout,
            RetryPolicy::default(),
            shared_stats(),
        )
    }

    /// Opens a connection with an explicit retry policy and a shared stats
    /// cell (so the executor can aggregate accounting across clients).
    pub fn connect_with(
        net: &Network,
        site: &str,
        database: &str,
        timeout: Duration,
        retry: RetryPolicy,
        stats: SharedExecStats,
    ) -> Result<Self, MdbsError> {
        let name = format!("__cli_{}_{}", site, CLIENT_SEQ.fetch_add(1, Ordering::Relaxed));
        let endpoint = net.register(&name)?;
        let client = LamClient {
            endpoint,
            net: net.clone(),
            site: site.to_string(),
            database: database.to_string(),
            timeout,
            retry,
            stats,
            metrics: MetricsRegistry::new(),
            wire_format: WireFormat::default(),
            pool: BufferPool::default(),
            terminal: AtomicBool::new(false),
        };
        // The bootstrap PING always travels as text: negotiation is applied
        // by the owner after connect, and text is the universal fallback.
        match client.call(Request::Ping)? {
            Response::Ok => Ok(client),
            other => Err(MdbsError::Net(format!("unexpected ping reply: {other:?}"))),
        }
    }

    /// The shared stats cell this client records into.
    pub fn stats(&self) -> SharedExecStats {
        SharedExecStats::clone(&self.stats)
    }

    /// Applies an owner's settings. The LAM mirrors whatever format each
    /// request arrives in, so switching the encoding needs no server-side
    /// coordination and may happen between any two calls.
    pub fn configure(&mut self, config: &ClientConfig) {
        self.timeout = config.timeout;
        self.retry = config.retry.clone();
        self.stats = SharedExecStats::clone(&config.stats);
        self.metrics = config.metrics.clone();
        self.wire_format = config.wire_format;
    }

    /// The site this connection talks to.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// True once a request met a terminal fault (the LAM is gone).
    pub fn saw_terminal_fault(&self) -> bool {
        self.terminal.load(Ordering::Relaxed)
    }

    /// The request encoding in use.
    pub fn wire_format(&self) -> WireFormat {
        self.wire_format
    }

    /// Sends one logical request and waits for its response, retrying
    /// transient faults per the client's [`RetryPolicy`].
    pub fn call(&self, req: Request) -> Result<Response, MdbsError> {
        self.call_full(&req).0
    }

    /// Like [`Self::call`], also reporting how many attempts were spent and
    /// the last fault observed (telemetry for per-task reporting).
    ///
    /// Every attempt of one logical call shares a correlation id, so the
    /// LAM server executes the request at most once no matter how often it
    /// is resent — state-changing requests (`Task`, `Commit`, `Abort`,
    /// `Exec`, `Compensate`) are as safe to retry as reads. A lost
    /// `Commit` acknowledgement in particular is re-asked here rather than
    /// misreported as an abort. Only `Shutdown` is never retried.
    pub fn call_full(
        &self,
        req: &Request,
    ) -> (Result<Response, MdbsError>, u32, Option<FaultKind>) {
        let (result, attempts, faults) = self.call_traced(req, &Span::disabled());
        (result, attempts, faults.last().copied())
    }

    /// Like [`Self::call_full`], opening one `rpc` child of `span` per
    /// attempt (annotated with the fault that killed it, if any) and
    /// returning every fault observed across the attempts.
    pub fn call_traced(
        &self,
        req: &Request,
        span: &Span,
    ) -> (Result<Response, MdbsError>, u32, Vec<FaultKind>) {
        let id = REQUEST_SEQ.fetch_add(1, Ordering::Relaxed);
        // Encoded once per logical call; every retry resends the same bytes.
        let encode_start = Instant::now();
        let framed: Body = match self.wire_format {
            WireFormat::Text => Body::Text(proto::encode_with_correlation(id, &req.encode())),
            WireFormat::Binary => Body::Binary(codec::encode_request(&self.pool, Some(id), req)),
        };
        self.metrics.observe(
            &labeled("wire.encode_us", "format", self.wire_format.label()),
            encode_start.elapsed().as_micros() as u64,
        );
        let max_attempts =
            if matches!(req, Request::Shutdown) { 1 } else { self.retry.max_attempts.max(1) };
        let overall_deadline = Instant::now() + self.retry.deadline;
        let mut faults: Vec<FaultKind> = Vec::new();
        let mut last_net: Option<NetError> = None;
        let mut attempts = 0u32;
        while attempts < max_attempts {
            if attempts > 0 {
                let pause = self.retry.backoff(attempts + 1);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                if Instant::now() >= overall_deadline {
                    break;
                }
            }
            attempts += 1;
            let rpc = span.child("rpc");
            rpc.note("attempt", attempts);
            match self.attempt(id, &framed) {
                Ok(resp) => {
                    drop(rpc);
                    self.stats.lock().record_call(attempts, &faults, true);
                    return (Ok(resp), attempts, faults);
                }
                Err(AttemptError::Net(e)) => {
                    let kind = e.fault_kind();
                    rpc.note("fault", fault_label(kind));
                    faults.push(kind);
                    last_net = Some(e);
                    if kind == FaultKind::Terminal {
                        self.terminal.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                Err(AttemptError::Fatal(e)) => {
                    rpc.note("error", "protocol");
                    drop(rpc);
                    self.stats.lock().record_call(attempts, &faults, false);
                    return (Err(e), attempts, faults);
                }
            }
        }
        self.stats.lock().record_call(attempts, &faults, false);
        let err = match faults.last().copied() {
            Some(FaultKind::Terminal) => MdbsError::LamUnavailable { site: self.site.clone() },
            _ => {
                let detail = last_net
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "retry deadline exceeded".to_string());
                MdbsError::Net(format!("{detail} (site `{}`, {attempts} attempt(s))", self.site))
            }
        };
        (Err(err), attempts, faults)
    }

    /// One send/receive round. Responses whose correlation id does not match
    /// are stale replies to abandoned attempts and are discarded. Replies
    /// are accepted in either wire format — the server mirrors the request's
    /// format, but a stale text reply must not wedge a binary client.
    fn attempt(&self, id: u64, framed: &Body) -> Result<Response, AttemptError> {
        self.endpoint.send(&self.site, framed.clone()).map_err(AttemptError::Net)?;
        let deadline = Instant::now() + self.timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(AttemptError::Net(NetError::Timeout));
            }
            let msg = self.endpoint.recv_timeout(deadline - now).map_err(AttemptError::Net)?;
            let decode_start = Instant::now();
            let (matched, format) = match &msg.body {
                Body::Text(text) => {
                    let (corr, body) = proto::split_correlation(text);
                    let matched = (corr == Some(id)).then(|| Response::decode(body));
                    (matched, WireFormat::Text)
                }
                Body::Binary(bytes) => {
                    let matched = (codec::peek_correlation(bytes) == Some(id))
                        .then(|| codec::decode_response(bytes).map(|(_, resp)| resp));
                    (matched, WireFormat::Binary)
                }
            };
            // A reply to an earlier attempt or an earlier logical call is
            // skipped; the server's dedup cache already answered (or will
            // answer) the live id.
            if let Some(result) = matched {
                self.metrics.observe(
                    &labeled("wire.decode_us", "format", format.label()),
                    decode_start.elapsed().as_micros() as u64,
                );
                return result.map_err(AttemptError::Fatal);
            }
        }
    }

    /// Opens a persistent local transaction under `name` (deferred global
    /// transactions).
    pub fn begin_task(&self, name: &str) -> Result<(), MdbsError> {
        match self
            .call(Request::Begin { name: name.to_string(), database: self.database.clone() })?
        {
            Response::Ok => Ok(()),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected begin reply: {other:?}"))),
        }
    }

    /// Executes commands inside an open task. Returns `(status, affected,
    /// error)` where status `'E'` means still active and `'A'` means the
    /// statement failed (the transaction stays open).
    pub fn exec_in_task(
        &self,
        task: &str,
        commands: Vec<String>,
    ) -> Result<(char, u64, Option<String>), MdbsError> {
        match self.call(Request::Exec { task: task.to_string(), commands })? {
            Response::TaskDone { status, affected, error, .. } => Ok((status, affected, error)),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected exec reply: {other:?}"))),
        }
    }

    /// Moves an open task to prepared-to-commit. Returns `'P'` on success or
    /// `'A'` (with the error) when the vote failed and the local transaction
    /// was rolled back.
    pub fn prepare_task(&self, task: &str) -> Result<(char, Option<String>), MdbsError> {
        match self.call(Request::Prepare { task: task.to_string() })? {
            Response::TaskDone { status, error, .. } => Ok((status, error)),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected prepare reply: {other:?}"))),
        }
    }

    /// Fetches the public Local Conceptual Schema of this connection's
    /// database (for IMPORT).
    pub fn fetch_schema(&self) -> Result<Vec<catalog::GddTable>, MdbsError> {
        match self.call(Request::Schema { database: self.database.clone() })? {
            Response::OkPayload { payload } => crate::wire::decode_schema(&payload),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected schema reply: {other:?}"))),
        }
    }

    /// Fetches the optimizer statistics this connection's database collected
    /// via `ANALYZE`. Tables never analyzed are absent from the answer; the
    /// coordinator caches what it gets in the GDD statistics tier.
    pub fn fetch_stats(&self) -> Result<Vec<crate::wire::SiteTableStats>, MdbsError> {
        match self.call(Request::Stats { database: self.database.clone(), table: None })? {
            Response::OkPayload { payload } => crate::wire::decode_stats(&payload),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected stats reply: {other:?}"))),
        }
    }

    /// Evaluates one local subquery of a decomposed cross-database join on
    /// the LAM and ships its serialized result back, annotating `span` and
    /// the `lam.*` metrics with the shipped volume. When `baseline` is set,
    /// the LAM also measures (without shipping) the unreduced subquery so
    /// semi-join savings are quantifiable.
    pub fn run_partial(
        &self,
        sql: &str,
        baseline: Option<&str>,
        span: &Span,
    ) -> Result<PartialResult, MdbsError> {
        let req = Request::Partial {
            database: self.database.clone(),
            sql: sql.to_string(),
            baseline: baseline.map(str::to_string),
        };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result? {
            Response::PartialDone {
                payload: Some(p),
                error: None,
                full_rows,
                full_bytes,
                access,
            } => {
                let rows = payload_rows(&p);
                span.note("rows", rows);
                span.note("bytes", p.len());
                let db = self.database.as_str();
                self.metrics.counter_add(&labeled("lam.rows", "db", db), rows);
                self.metrics.counter_add(&labeled("lam.bytes", "db", db), p.len() as u64);
                Ok(PartialResult { payload: p, rows, full_rows, full_bytes, attempts, access })
            }
            Response::PartialDone { error: Some(message), .. } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected partial reply: {other:?}"))),
        }
    }

    /// Evaluates a pushed-down (pre-aggregating or top-k) site query on the
    /// LAM and ships its reduced result back, annotating `span` and the
    /// `lam.*` metrics with the shipped volume. When `baseline` is set, the
    /// LAM also measures (without shipping) the *unpushed* subquery so the
    /// pushdown's savings are quantifiable.
    pub fn run_partial_agg(
        &self,
        sql: &str,
        baseline: Option<&str>,
        span: &Span,
    ) -> Result<PartialResult, MdbsError> {
        let req = Request::PartialAgg {
            database: self.database.clone(),
            sql: sql.to_string(),
            baseline: baseline.map(str::to_string),
        };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result? {
            Response::PartialAggDone {
                payload: Some(p),
                error: None,
                groups: _,
                full_rows,
                full_bytes,
            } => {
                let rows = payload_rows(&p);
                span.note("rows", rows);
                span.note("bytes", p.len());
                let db = self.database.as_str();
                self.metrics.counter_add(&labeled("lam.rows", "db", db), rows);
                self.metrics.counter_add(&labeled("lam.bytes", "db", db), p.len() as u64);
                Ok(PartialResult {
                    payload: p,
                    rows,
                    full_rows,
                    full_bytes,
                    attempts,
                    access: None,
                })
            }
            Response::PartialAggDone { error: Some(message), .. } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected partialagg reply: {other:?}"))),
        }
    }

    /// Loads a serialized partial result as a temporary table (coordinator
    /// collection).
    pub fn load_partial(&self, table: &str, payload: &str) -> Result<(), MdbsError> {
        match self.call(Request::Load {
            database: self.database.clone(),
            table: table.to_string(),
            payload: payload.to_string(),
        })? {
            Response::Ok => Ok(()),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected load reply: {other:?}"))),
        }
    }

    /// Loads every partial result as a temporary table in a single round
    /// trip, so coordinator collection costs one link latency regardless of
    /// how many sites contributed partials.
    pub fn load_partials(&self, parts: Vec<(String, String)>) -> Result<(), MdbsError> {
        match self.call(Request::LoadMany { database: self.database.clone(), parts })? {
            Response::Ok => Ok(()),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected load reply: {other:?}"))),
        }
    }

    /// Drops several temporary tables in a single round trip.
    pub fn drop_temps(&self, tables: Vec<String>) -> Result<(), MdbsError> {
        match self.call(Request::DropMany { database: self.database.clone(), tables })? {
            Response::Ok => Ok(()),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected drop reply: {other:?}"))),
        }
    }

    /// Drops a temporary table.
    pub fn drop_temp(&self, table: &str) -> Result<(), MdbsError> {
        match self
            .call(Request::DropTemp { database: self.database.clone(), table: table.to_string() })?
        {
            Response::Ok => Ok(()),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected drop reply: {other:?}"))),
        }
    }
}

impl LamClient {
    /// Annotates a task/commit/abort/compensate span with this client's
    /// communication telemetry and folds it into the `lam.*` metrics.
    fn record_obs(&self, span: &Span, attempts: u32, faults: &[FaultKind]) {
        span.note("db", &self.database);
        span.note("attempts", attempts);
        if let Some(kind) = faults.last() {
            span.note("fault", fault_label(*kind));
            span.note("faults", faults.len());
        }
        let db = self.database.as_str();
        self.metrics.counter_add(&labeled("lam.calls", "db", db), 1);
        self.metrics.counter_add(&labeled("lam.attempts", "db", db), u64::from(attempts.max(1)));
        self.metrics
            .counter_add(&labeled("lam.retries", "db", db), u64::from(attempts.saturating_sub(1)));
        self.metrics.counter_add(&labeled("lam.faults", "db", db), faults.len() as u64);
    }

    fn run_task(&mut self, task: &dol::TaskDef, span: &Span) -> TaskExecution {
        let mode = if task.nocommit { TaskMode::NoCommit } else { TaskMode::Auto };
        let req = Request::Task {
            name: task.name.clone(),
            mode,
            database: self.database.clone(),
            commands: task.commands.clone(),
        };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        self.stats.lock().record_task(&task.name, attempts, faults.last().copied());
        match result {
            Ok(Response::TaskDone { status, affected, payload, error }) => {
                let status = match status {
                    'P' => TaskStatus::Prepared,
                    'C' => TaskStatus::Committed,
                    'A' => TaskStatus::Aborted,
                    _ => TaskStatus::Error,
                };
                if affected > 0 {
                    span.note("affected", affected);
                }
                if let Some(p) = payload.as_deref() {
                    let rows = payload_rows(p);
                    span.note("rows", rows);
                    span.note("bytes", p.len());
                    let db = self.database.as_str();
                    self.metrics.counter_add(&labeled("lam.rows", "db", db), rows);
                    self.metrics.counter_add(&labeled("lam.bytes", "db", db), p.len() as u64);
                }
                TaskExecution {
                    status,
                    result: Some(encode_task_result(affected, payload.as_deref())),
                    error,
                }
            }
            Ok(other) => TaskExecution {
                status: TaskStatus::Error,
                result: None,
                error: Some(format!("unexpected reply: {other:?}")),
            },
            // Exhausted retries (or a terminal fault) surface as errors —
            // the global plan treats them like local aborts (paper §3.2:
            // "one or more LDBMSs may be forced to abort").
            Err(e) => TaskExecution {
                status: TaskStatus::Error,
                result: None,
                error: Some(e.to_string()),
            },
        }
    }

    /// Sends an ack-only second-phase request, tracing its round trips.
    ///
    /// A `COMMIT` whose every acknowledgement is lost to *transient* faults
    /// (the site is still registered — the LAM may well have committed) is
    /// reported as [`DolError::InDoubt`], never as a plain service error:
    /// the caller must route it to recovery rather than presume abort.
    fn phase_two(&mut self, req: Request, span: &Span) -> Result<(), DolError> {
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result {
            Ok(Response::Ok) => Ok(()),
            Ok(Response::Err { message }) => Err(DolError::Service(message)),
            Ok(other) => Err(DolError::Service(format!("unexpected reply: {other:?}"))),
            Err(MdbsError::Net(_)) if matches!(&req, Request::Commit { .. }) => {
                let task = match &req {
                    Request::Commit { task } => task.clone(),
                    _ => unreachable!(),
                };
                span.note("in_doubt", &task);
                Err(DolError::InDoubt { service: self.site.clone(), task })
            }
            Err(e) => Err(DolError::Service(e.to_string())),
        }
    }

    /// Recovery's outcome query: asks the LAM to settle `task` per the
    /// coordinator's logged decision and report the status it ended in
    /// (`'C'`/`'A'`). The LAM answers from its own state — committing or
    /// rolling back a still-prepared subtransaction, repeating a recorded
    /// outcome, or presuming abort for a task it never heard of.
    pub fn resolve_task_outcome(
        &self,
        task: &str,
        commit: bool,
        span: &Span,
    ) -> Result<char, MdbsError> {
        let req = Request::Resolve { task: task.to_string(), commit };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result? {
            Response::TaskDone { status, .. } => Ok(status),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected resolve reply: {other:?}"))),
        }
    }

    /// Recovery's compensation path: runs the logged compensating commands
    /// for `task`. The LAM's `'K'` outcome memory makes this idempotent, so
    /// a recovery pass that repeats it (after losing the resolution record)
    /// cannot double-apply.
    pub fn compensate_commands(
        &self,
        task: &str,
        commands: &[String],
        span: &Span,
    ) -> Result<(), MdbsError> {
        let req = Request::Compensate {
            task: task.to_string(),
            database: self.database.clone(),
            commands: commands.to_vec(),
        };
        let (result, attempts, faults) = self.call_traced(&req, span);
        self.record_obs(span, attempts, &faults);
        match result? {
            Response::Ok => Ok(()),
            Response::Err { message } => {
                Err(MdbsError::Local { service: self.site.clone(), message })
            }
            other => Err(MdbsError::Wire(format!("unexpected compensate reply: {other:?}"))),
        }
    }
}

/// Stable lower-case label for fault annotations in spans and goldens.
fn fault_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::Terminal => "terminal",
    }
}

/// Counts the data rows in a wire-encoded result-set payload.
fn payload_rows(payload: &str) -> u64 {
    payload.lines().filter(|l| *l == "R" || l.starts_with("R ")).count() as u64
}

impl Drop for LamClient {
    fn drop(&mut self) {
        self.net.deregister(self.endpoint.name());
    }
}

impl DolService for LamClient {
    fn execute_task(&mut self, task: &dol::TaskDef) -> TaskExecution {
        self.run_task(task, &Span::disabled())
    }

    fn execute_task_traced(&mut self, task: &dol::TaskDef, span: &Span) -> TaskExecution {
        self.run_task(task, span)
    }

    fn commit_task(&mut self, task_name: &str) -> Result<(), DolError> {
        self.commit_task_traced(task_name, &Span::disabled())
    }

    fn commit_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        self.phase_two(Request::Commit { task: task_name.to_string() }, span)
    }

    fn abort_task(&mut self, task_name: &str) -> Result<(), DolError> {
        self.abort_task_traced(task_name, &Span::disabled())
    }

    fn abort_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        self.phase_two(Request::Abort { task: task_name.to_string() }, span)
    }

    fn compensate_task(&mut self, task: &dol::TaskDef) -> Result<(), DolError> {
        self.compensate_task_traced(task, &Span::disabled())
    }

    fn compensate_task_traced(&mut self, task: &dol::TaskDef, span: &Span) -> Result<(), DolError> {
        self.phase_two(
            Request::Compensate {
                task: task.name.clone(),
                database: self.database.clone(),
                commands: task.compensation.clone(),
            },
            span,
        )
    }

    fn close(&mut self) {
        // Connection teardown happens in Drop (endpoint deregistration).
    }
}

/// [`ServiceFactory`] for DOL programs: `OPEN <database> AT <site>` checks
/// a [`LamClient`] bound to that database out of the session's
/// [`ConnCache`] — a lookup when the session already holds one.
pub struct LamFactory {
    /// Where OPEN takes its connections from.
    pub conns: ConnCache,
    /// Settings every opened client runs under.
    pub config: ClientConfig,
    /// Graceful degradation: when set, a service whose LAM cannot be
    /// reached at OPEN time yields a stub that reports every task as failed
    /// instead of failing the whole plan — the §3.2 vital semantics then
    /// decide whether the statement survives the loss.
    pub tolerate_unreachable: bool,
}

impl LamFactory {
    /// A factory over a private connection cache with the default
    /// (no-retry, fail-fast) behaviour.
    pub fn new(net: Network, timeout: Duration) -> Self {
        LamFactory {
            conns: ConnCache::new(net),
            config: ClientConfig::new(timeout),
            tolerate_unreachable: false,
        }
    }
}

impl ServiceFactory for LamFactory {
    fn connect(&self, service: &str, site: &str) -> Result<Box<dyn DolService>, DolError> {
        match self.conns.checkout(site, service, &self.config) {
            Ok(conn) => Ok(Box::new(conn)),
            Err(e) if self.tolerate_unreachable => Ok(Box::new(UnreachableService {
                site: site.to_string(),
                reason: e.to_string(),
                stats: SharedExecStats::clone(&self.config.stats),
            })),
            Err(e) => {
                Err(DolError::OpenFailed { service: service.to_string(), reason: e.to_string() })
            }
        }
    }
}

/// Stand-in service for a LAM that could not be reached at OPEN time. Every
/// task fails with an error status (never panics or hangs), so the DOL
/// program's vital semantics decide the statement's fate; commit/abort of
/// tasks that never ran are no-ops.
struct UnreachableService {
    site: String,
    reason: String,
    stats: SharedExecStats,
}

impl DolService for UnreachableService {
    fn execute_task(&mut self, task: &dol::TaskDef) -> TaskExecution {
        // The terminal fault itself was counted by the failed connect; here
        // we only pin the task-level telemetry.
        self.stats.lock().record_task(&task.name, 0, Some(FaultKind::Terminal));
        TaskExecution {
            status: TaskStatus::Error,
            result: None,
            error: Some(format!("site `{}` unreachable: {}", self.site, self.reason)),
        }
    }

    fn commit_task(&mut self, _task_name: &str) -> Result<(), DolError> {
        Ok(())
    }

    fn abort_task(&mut self, _task_name: &str) -> Result<(), DolError> {
        Ok(())
    }

    fn compensate_task(&mut self, _task: &dol::TaskDef) -> Result<(), DolError> {
        Ok(())
    }

    fn close(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lam::spawn_lam;
    use ldbs::profile::DbmsProfile;
    use ldbs::Engine;

    /// Generous per-request timeout for tests (nothing should ever wait
    /// this long on the zero-latency test network).
    const TEST_TIMEOUT: Duration = Duration::from_secs(5);

    fn setup() -> (Network, crate::lam::LamHandle) {
        setup_on(Network::new())
    }

    fn setup_on(net: Network) -> (Network, crate::lam::LamHandle) {
        let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("avis").unwrap();
        engine.execute("avis", "CREATE TABLE cars (code INT, rate FLOAT)").unwrap();
        engine.execute("avis", "INSERT INTO cars VALUES (1, 40.0)").unwrap();
        let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
        (net, lam)
    }

    #[test]
    fn task_result_roundtrip() {
        let enc = encode_task_result(5, Some("COLS x:int\nR I:1\n"));
        let (affected, payload) = decode_task_result(&enc).unwrap();
        assert_eq!(affected, 5);
        assert!(payload.unwrap().starts_with("COLS"));
        let (a2, p2) = decode_task_result(&encode_task_result(0, None)).unwrap();
        assert_eq!(a2, 0);
        assert!(p2.is_none());
    }

    #[test]
    fn client_executes_select_task() {
        let (net, _lam) = setup();
        let mut client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let task = dol::TaskDef {
            name: "Q1".into(),
            service: "a".into(),
            nocommit: false,
            commands: vec!["SELECT code FROM cars".into()],
            compensation: vec![],
        };
        let exec = client.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Committed);
        let (_, payload) = decode_task_result(&exec.result.unwrap()).unwrap();
        let rs = crate::wire::decode_result_set(&payload.unwrap()).unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn client_prepare_commit_cycle() {
        let (net, lam) = setup();
        let mut client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: true,
            commands: vec!["UPDATE cars SET rate = 50 WHERE code = 1".into()],
            compensation: vec![],
        };
        let exec = client.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Prepared);
        client.commit_task("T1").unwrap();
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(50.0));
    }

    #[test]
    fn connect_to_missing_site_fails() {
        let net = Network::new();
        assert!(LamClient::connect(&net, "nowhere", "db", Duration::from_millis(100)).is_err());
    }

    #[test]
    fn partitioned_site_yields_error_status() {
        let (net, _lam) = setup();
        let mut client =
            LamClient::connect(&net, "site1", "avis", Duration::from_millis(200)).unwrap();
        net.partition(client.endpoint.name(), "site1");
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: false,
            commands: vec!["SELECT code FROM cars".into()],
            compensation: vec![],
        };
        let exec = client.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Error);
        assert!(exec.error.unwrap().contains("partition"));
    }

    #[test]
    fn schema_fetch_via_client() {
        let (net, _lam) = setup();
        let client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let tables = client.fetch_schema().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name, "cars");
    }

    #[test]
    fn factory_builds_working_service() {
        let (net, _lam) = setup();
        let factory = LamFactory::new(net.clone(), TEST_TIMEOUT);
        let mut svc = factory.connect("avis", "site1").unwrap();
        let task = dol::TaskDef {
            name: "Q".into(),
            service: "a".into(),
            nocommit: false,
            commands: vec!["SELECT code FROM cars".into()],
            compensation: vec![],
        };
        assert_eq!(svc.execute_task(&task).status, TaskStatus::Committed);
        assert!(factory.connect("avis", "ghost_site").is_err());
    }

    #[test]
    fn lenient_factory_degrades_unreachable_service_to_error_tasks() {
        let (net, _lam) = setup();
        let mut factory = LamFactory::new(net.clone(), TEST_TIMEOUT);
        factory.tolerate_unreachable = true;
        let mut svc = factory.connect("void", "ghost_site").unwrap();
        let task = dol::TaskDef {
            name: "NV".into(),
            service: "v".into(),
            nocommit: false,
            commands: vec!["SELECT 1".into()],
            compensation: vec![],
        };
        let exec = svc.execute_task(&task);
        assert_eq!(exec.status, TaskStatus::Error);
        assert!(exec.error.unwrap().contains("unreachable"));
        assert!(svc.commit_task("NV").is_ok(), "no-op on a task that never ran");
        let stats = factory.config.stats.lock();
        assert_eq!(stats.terminal_faults, 1);
        assert_eq!(stats.task("NV").unwrap().fault, Some(netsim::FaultKind::Terminal));
    }

    #[test]
    fn retry_recovers_from_forced_request_drop() {
        let net = Network::with_seed(11);
        let (net, _lam) = setup_on(net);
        let stats = shared_stats();
        let client = LamClient::connect_with(
            &net,
            "site1",
            "avis",
            Duration::from_millis(100),
            RetryPolicy::retries(4),
            SharedExecStats::clone(&stats),
        )
        .unwrap();
        // The next client→LAM message is lost; the retry must succeed.
        net.drop_next(client.endpoint.name(), "site1", 1);
        let resp = client.call(Request::Ping).unwrap();
        assert_eq!(resp, Response::Ok);
        let s = stats.lock();
        assert_eq!(s.retries, 1, "exactly one resend");
        assert_eq!(s.transient_faults, 1);
        assert_eq!(s.recovered, 1);
    }

    #[test]
    fn retry_recovers_from_lost_reply_without_reexecuting() {
        let net = Network::with_seed(12);
        let (net, lam) = setup_on(net);
        let client = LamClient::connect_with(
            &net,
            "site1",
            "avis",
            Duration::from_millis(100),
            RetryPolicy::retries(4),
            shared_stats(),
        )
        .unwrap();
        // The LAM's *reply* is lost: the update commits locally, the ack
        // does not arrive. Without a re-ask this misreports an abort.
        net.drop_next("site1", client.endpoint.name(), 1);
        let resp = client
            .call(Request::Task {
                name: "T1".into(),
                mode: TaskMode::Auto,
                database: "avis".into(),
                commands: vec!["UPDATE cars SET rate = rate + 1 WHERE code = 1".into()],
            })
            .unwrap();
        assert!(
            matches!(resp, Response::TaskDone { status: 'C', affected: 1, .. }),
            "re-ask reports the commit: {resp:?}"
        );
        // Dedup at the server: the update ran once, not twice.
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(41.0));
    }

    #[test]
    fn no_retry_policy_fails_on_drop() {
        let net = Network::with_seed(13);
        let (net, _lam) = setup_on(net);
        let client = LamClient::connect(&net, "site1", "avis", Duration::from_millis(50)).unwrap();
        net.drop_next(client.endpoint.name(), "site1", 1);
        let err = client.call(Request::Ping).unwrap_err();
        assert!(matches!(err, MdbsError::Net(_)), "single attempt times out: {err:?}");
    }

    #[test]
    fn lost_commit_acks_surface_in_doubt() {
        let net = Network::with_seed(14);
        let (net, lam) = setup_on(net);
        let mut client = LamClient::connect_with(
            &net,
            "site1",
            "avis",
            Duration::from_millis(50),
            RetryPolicy::retries(3),
            shared_stats(),
        )
        .unwrap();
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: true,
            commands: vec!["UPDATE cars SET rate = 60 WHERE code = 1".into()],
            compensation: vec![],
        };
        assert_eq!(client.execute_task(&task).status, TaskStatus::Prepared);
        // Every commit acknowledgement is lost; the commit itself lands.
        net.set_link_drop_probability("site1", client.endpoint.name(), 1.0);
        let err = client.commit_task("T1").unwrap_err();
        assert!(
            matches!(err, DolError::InDoubt { ref service, ref task }
                if service == "site1" && task == "T1"),
            "expected InDoubt, got {err:?}"
        );
        // Mapped across the DOL boundary with the variant intact.
        let mdbs: MdbsError = err.into();
        assert!(matches!(mdbs, MdbsError::InDoubt { ref site, ref task }
            if site == "site1" && task == "T1"));
        // The LAM really did commit — recovery's re-ask would find 'C'.
        net.set_link_drop_probability("site1", client.endpoint.name(), 0.0);
        assert_eq!(client.resolve_task_outcome("T1", true, &Span::disabled()).unwrap(), 'C');
        let rate = {
            let mut e = lam.engine.lock();
            e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
                .unwrap()
                .into_result_set()
                .unwrap()
                .rows[0][0]
                .clone()
        };
        assert_eq!(rate, ldbs::value::Value::Float(60.0));
    }

    #[test]
    fn dead_lam_commit_is_not_in_doubt() {
        let (net, lam) = setup();
        let mut client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        let task = dol::TaskDef {
            name: "T1".into(),
            service: "a".into(),
            nocommit: true,
            commands: vec!["UPDATE cars SET rate = 70 WHERE code = 1".into()],
            compensation: vec![],
        };
        assert_eq!(client.execute_task(&task).status, TaskStatus::Prepared);
        lam.shutdown();
        let err = client.commit_task("T1").unwrap_err();
        assert!(
            matches!(err, DolError::Service(ref m) if m.contains("unavailable")),
            "terminal fault is a plain service error, got {err:?}"
        );
    }

    #[test]
    fn dead_lam_yields_lam_unavailable_not_timeout() {
        let (net, lam) = setup();
        let client = LamClient::connect(&net, "site1", "avis", TEST_TIMEOUT).unwrap();
        lam.shutdown(); // deregisters the site
        let start = Instant::now();
        let err = client.call(Request::Ping).unwrap_err();
        assert!(
            matches!(err, MdbsError::LamUnavailable { ref site } if site == "site1"),
            "expected LamUnavailable, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "terminal faults fail fast, no timeout wait"
        );
    }
}
