//! The traced run's layer view, measured from outside the program.
//!
//! Spans live in memory (one log per closed loop) and are written out when
//! the run ends. The traced pass records one `statement` span around each
//! `Session::execute`. The probe pass then replays a sample of the same
//! statements through each layer's public functions — parse, translate,
//! plan generation, the local engine, the codec, the merge, a LAM
//! connection and a ping — each call under its own span, so every layer's
//! self time is attributed to the statement it belongs to.

use crate::spec::{Class, Plan, Stmt};
use ldbs::engine::ResultSet;
use ldbs::value::Value;
use mdbs::lamclient::LamClient;
use mdbs::proto::{Request, Response};
use mdbs::retry::shared_stats;
use mdbs::translate::{
    multitransaction_plan, retrieval_plan, translate_body, update_plan, DbRoute, Decomposition,
    MtxQueryPlan, PushdownPlan, Translated,
};
use mdbs::{merge, wire, Federation, RetryPolicy, SessionScope, WireFormat};
use msql_lang::{
    print, printer::print_select, BinaryOp, ColumnRef, Expr, Literal, MsqlQuery, QueryBody, Select,
    Statement,
};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// The statement it belongs to ([`stmt_id`]).
    pub stmt: u64,
    /// Monotonic ns since the run's base instant.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A statement's id: its session and position in that session's list.
pub fn stmt_id(session: usize, index: usize) -> u64 {
    ((session as u64) << 32) | index as u64
}

/// An in-memory span log for one thread.
pub struct SpanLog {
    base: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new(base: Instant, thread: usize) -> Self {
        SpanLog { base, thread: thread as u64, next: 0, spans: Vec::new() }
    }

    fn alloc(&mut self) -> u64 {
        self.next += 1;
        ((self.thread + 1) << 40) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.base).as_nanos() as u64
    }

    /// Records an interval measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        stmt: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.alloc();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec { id, parent, name, stmt, start_ns, end_ns });
    }

    /// Runs `f` under a new span; `f` gets the span's id for its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        stmt: u64,
        f: impl FnOnce(&mut Self, u64) -> T,
    ) -> T {
        let id = self.alloc();
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec { id, parent, name, stmt, start_ns, end_ns });
        out
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its children cover.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb.saturating_sub(ca);
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Writes every span as one tab-separated line.
pub fn dump(path: &std::path::Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id\tparent\tname\tsession\tstatement\tstart_ns\tend_ns")?;
    for log in logs {
        for s in &log.spans {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.name,
                s.stmt >> 32,
                s.stmt & 0xffff_ffff,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    f.flush()
}

/// Layers the probe times, in-process ones first.
pub const IN_PROCESS: [&str; 7] = [
    "msql_lang.parse",
    "translate.translate",
    "translate.plangen",
    "ldbs.exec",
    "codec.encode",
    "codec.decode",
    "merge",
];

fn routes(fed: &Federation) -> Result<HashMap<String, DbRoute>, String> {
    let gdd = fed.gdd();
    let ad = fed.ad();
    let mut out = HashMap::new();
    for db in gdd.database_names() {
        let service = gdd.service_of(db).map_err(|e| e.to_string())?;
        let entry = ad.service(service).map_err(|e| e.to_string())?;
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

fn apply_scope(scope: &mut SessionScope, q: &MsqlQuery) -> Result<(), String> {
    if let Some(u) = &q.use_clause {
        scope.apply_use(u).map_err(|e| e.to_string())?;
    }
    for l in &q.lets {
        scope.apply_let(l).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn comp_map(q: &MsqlQuery, scope: &SessionScope) -> HashMap<String, Vec<String>> {
    let mut out: HashMap<String, Vec<String>> = HashMap::new();
    for comp in &q.comps {
        if let Some(db) = scope.resolve(comp.database.as_str()) {
            out.entry(db.key().to_string()).or_default().push(print(comp.statement.as_ref()));
        }
    }
    out
}

fn literal(v: &Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Bool(b) => Literal::Bool(*b),
    }
}

/// What the probe of one statement gathered besides its spans.
#[derive(Default)]
struct Probe {
    /// Partial results the sites would ship, in site order.
    parts: Vec<ResultSet>,
    /// The pushed plan whose partials the coordinator merges.
    pushdown: Option<PushdownPlan>,
    /// The first database the statement opens.
    first_db: Option<String>,
}

struct Ctx<'a> {
    fed: &'a Federation,
    routes: &'a HashMap<String, DbRoute>,
    stmt: u64,
}

impl Ctx<'_> {
    /// Runs one local subquery on its site's engine. Writes run inside a
    /// transaction that is rolled back, so the probe changes no data.
    fn exec(
        &self,
        log: &mut SpanLog,
        parent: u64,
        db: &str,
        sql: &str,
        class: Class,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let service = self.fed.gdd().service_of(db).map_err(|e| e.to_string())?.to_string();
        let engine = self.fed.engine(&service).ok_or_else(|| format!("no engine for {service}"))?;
        log.span("ldbs.exec", parent, self.stmt, |_, _| {
            let mut e = engine.lock();
            match class {
                Class::Read => {
                    let rs = e
                        .execute(db, sql)
                        .and_then(|o| o.into_result_set())
                        .map_err(|e| format!("{sql}: {e}"))?;
                    probe.parts.push(rs);
                }
                Class::Write => {
                    // An injected write failure is part of the workload.
                    let txn = e.begin();
                    let _ = e.execute_in(txn, db, sql);
                    let _ = e.rollback(txn);
                }
            }
            Ok(())
        })
    }

    fn query(
        &self,
        log: &mut SpanLog,
        parent: u64,
        q: &MsqlQuery,
        class: Class,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let mut scope = SessionScope::new();
        apply_scope(&mut scope, q)?;
        let translated = log.span("translate.translate", parent, self.stmt, |_, _| {
            translate_body(&q.body, &scope, &self.fed.gdd())
        });
        match translated.map_err(|e| e.to_string())? {
            Translated::PerDb(locals) => {
                log.span("translate.plangen", parent, self.stmt, |_, _| match &q.body {
                    QueryBody::Select(_) => retrieval_plan(&locals, self.routes),
                    _ => update_plan(&locals, &comp_map(q, &scope), self.routes),
                })
                .map_err(|e| e.to_string())?;
                probe.first_db = locals.first().map(|l| l.database.clone());
                for l in &locals {
                    self.exec(log, parent, &l.database, &print(&l.statement), class, probe)?;
                }
            }
            Translated::CrossDb(dec) => {
                probe.first_db = dec.subqueries.first().map(|s| s.database.clone());
                let pushed = if self.fed.agg_pushdown { dec.pushdown.clone() } else { None };
                let selects: Vec<String> = match &pushed {
                    Some(PushdownPlan::Aggregate(p)) => {
                        p.sites.iter().map(|s| print_select(&s.select)).collect()
                    }
                    Some(PushdownPlan::TopK(p)) => {
                        p.sites.iter().map(|s| print_select(&s.select)).collect()
                    }
                    None => return self.semi_join(log, parent, &dec, probe),
                };
                for (sub, sql) in dec.subqueries.iter().zip(&selects) {
                    self.exec(log, parent, &sub.database, sql, Class::Read, probe)?;
                }
                probe.pushdown = pushed;
            }
        }
        Ok(())
    }

    /// The site subqueries of a join that is not pushed down, shipped the
    /// way the executor ships them: the reducer first, then every subquery
    /// it joins with, filtered by the reducer's distinct key values
    /// (`IN (…)`, or `0 = 1` for none) when the key list fits under the
    /// session's `semijoin_cap`. The reducer is the smallest partial, which
    /// is the cost planner's choice; the probe does not copy the executor's
    /// reduce-or-not estimate and always reduces under the cap.
    fn semi_join(
        &self,
        log: &mut SpanLog,
        parent: u64,
        dec: &Decomposition,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let mut selects: Vec<Select> = dec.subqueries.iter().map(|s| s.select.clone()).collect();
        if !self.fed.semijoin || dec.join_keys.is_empty() {
            for (sub, sel) in dec.subqueries.iter().zip(&selects) {
                self.exec(log, parent, &sub.database, &print_select(sel), Class::Read, probe)?;
            }
            return Ok(());
        }
        // Sizing runs are not timed.
        let mut sizes = Vec::with_capacity(selects.len());
        for (sub, sel) in dec.subqueries.iter().zip(&selects) {
            sizes.push(self.rows(&sub.database, &print_select(sel))?);
        }
        let r = (0..sizes.len()).min_by_key(|&i| sizes[i]).expect("a join has subqueries");
        let reducer = &dec.subqueries[r];
        self.exec(log, parent, &reducer.database, &print_select(&selects[r]), Class::Read, probe)?;
        let keys = probe.parts.last().expect("the reducer's partial").clone();
        for key in &dec.join_keys {
            let (Some(own), Some(other)) =
                (key.side_in(&reducer.database), key.side_opposite(&reducer.database))
            else {
                continue;
            };
            let Some(col) = keys.columns.iter().position(|c| c.name == own.part_column) else {
                continue;
            };
            let Some(t) = dec.subqueries.iter().position(|s| s.database == other.database) else {
                continue;
            };
            let mut values: Vec<Value> = keys
                .rows
                .iter()
                .map(|row| row[col].clone())
                .filter(|v| *v != Value::Null)
                .collect();
            values.sort_by(|a, b| a.total_cmp(b));
            values.dedup_by(|a, b| a.total_cmp(b).is_eq());
            if values.len() > self.fed.semijoin_cap {
                continue;
            }
            let filter = if values.is_empty() {
                Expr::Binary {
                    left: Box::new(Expr::Literal(Literal::Int(0))),
                    op: BinaryOp::Eq,
                    right: Box::new(Expr::Literal(Literal::Int(1))),
                }
            } else {
                Expr::InList {
                    expr: Box::new(Expr::Column(ColumnRef::with_table(
                        other.binding.as_str(),
                        other.column.as_str(),
                    ))),
                    list: values.iter().map(|v| Expr::Literal(literal(v))).collect(),
                    negated: false,
                }
            };
            let sel = &mut selects[t];
            sel.where_clause = Some(match sel.where_clause.take() {
                Some(w) => {
                    Expr::Binary { left: Box::new(w), op: BinaryOp::And, right: Box::new(filter) }
                }
                None => filter,
            });
        }
        for (i, (sub, sel)) in dec.subqueries.iter().zip(&selects).enumerate() {
            if i != r {
                self.exec(log, parent, &sub.database, &print_select(sel), Class::Read, probe)?;
            }
        }
        Ok(())
    }

    /// Rows a read returns, untimed.
    fn rows(&self, db: &str, sql: &str) -> Result<usize, String> {
        let service = self.fed.gdd().service_of(db).map_err(|e| e.to_string())?.to_string();
        let engine = self.fed.engine(&service).ok_or_else(|| format!("no engine for {service}"))?;
        let rs = engine
            .lock()
            .execute(db, sql)
            .and_then(|o| o.into_result_set())
            .map_err(|e| format!("{sql}: {e}"))?;
        Ok(rs.rows.len())
    }

    fn multitransaction(
        &self,
        log: &mut SpanLog,
        parent: u64,
        m: &msql_lang::Multitransaction,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let mut scope = SessionScope::new();
        let mut queries = Vec::new();
        for q in &m.queries {
            apply_scope(&mut scope, q)?;
            let translated = log.span("translate.translate", parent, self.stmt, |_, _| {
                translate_body(&q.body, &scope, &self.fed.gdd())
            });
            let Translated::PerDb(locals) = translated.map_err(|e| e.to_string())? else {
                return Err("cross-database join inside a multitransaction".into());
            };
            queries.push(MtxQueryPlan { locals, comps: comp_map(q, &scope) });
        }
        let states: Vec<Vec<String>> = m
            .acceptable_states
            .iter()
            .map(|s| s.databases.iter().map(|d| d.as_str().to_string()).collect())
            .collect();
        log.span("translate.plangen", parent, self.stmt, |_, _| {
            multitransaction_plan(&queries, &states, self.routes)
        })
        .map_err(|e| e.to_string())?;
        probe.first_db = queries.first().and_then(|q| q.locals.first()).map(|l| l.database.clone());
        for l in queries.iter().flat_map(|q| &q.locals) {
            self.exec(log, parent, &l.database, &print(&l.statement), Class::Write, probe)?;
        }
        Ok(())
    }

    /// Probes one statement under a `probe` root span.
    fn statement(&self, log: &mut SpanLog, st: &Stmt) -> Result<(), String> {
        log.span("probe", 0, self.stmt, |log, pid| {
            let parsed = log.span("msql_lang.parse", pid, self.stmt, |_, _| {
                msql_lang::parse_statement(&st.sql)
            });
            let mut probe = Probe::default();
            match parsed.map_err(|e| e.to_string())? {
                Statement::Query(q) => self.query(log, pid, &q, st.class, &mut probe)?,
                Statement::Multitransaction(m) => {
                    self.multitransaction(log, pid, &m, &mut probe)?
                }
                other => return Err(format!("unexpected statement {}", print(&other))),
            }
            let format = self.fed.wire_format;
            let mut decoded = Vec::with_capacity(probe.parts.len());
            for rs in &probe.parts {
                let rs = match format {
                    WireFormat::Text => {
                        let text = log.span("codec.encode", pid, self.stmt, |_, _| {
                            wire::encode_result_set(rs)
                        });
                        log.span("codec.decode", pid, self.stmt, |_, _| {
                            wire::decode_result_set(&text)
                        })
                    }
                    WireFormat::Binary => {
                        let bytes = log.span("codec.encode", pid, self.stmt, |_, _| {
                            mdbs::codec::columnar::encode_result_set(rs)
                        });
                        log.span("codec.decode", pid, self.stmt, |_, _| {
                            mdbs::codec::columnar::decode_result_set(&bytes)
                        })
                    }
                };
                decoded.push(rs.map_err(|e| e.to_string())?);
            }
            match &probe.pushdown {
                Some(PushdownPlan::Aggregate(p)) => {
                    log.span("merge", pid, self.stmt, |_, _| merge::merge_aggregate(p, &decoded))
                        .map_err(|e| e.to_string())?;
                }
                Some(PushdownPlan::TopK(p)) => {
                    log.span("merge", pid, self.stmt, |_, _| merge::merge_topk(p, &decoded))
                        .map_err(|e| e.to_string())?;
                }
                None => {}
            }
            if let Some(db) = &probe.first_db {
                let site = &self.routes.get(db).ok_or_else(|| format!("no route to {db}"))?.site;
                let client = log
                    .span("lamclient.open", pid, self.stmt, |_, _| {
                        LamClient::connect_with(
                            self.fed.network(),
                            site,
                            db,
                            self.fed.timeout,
                            RetryPolicy::default(),
                            shared_stats(),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                match log.span("netsim.rtt", pid, self.stmt, |_, _| client.call(Request::Ping)) {
                    Ok(Response::Ok) => {}
                    other => return Err(format!("ping: {other:?}")),
                }
            }
            Ok(())
        })
    }
}

/// Probes every `stride`-th statement of each session's timed list.
pub fn probe_pass(
    fed: &Federation,
    plan: &Plan,
    log: &mut SpanLog,
    stride: usize,
) -> Result<usize, String> {
    let routes = routes(fed)?;
    let mut probed = 0;
    for (session, list) in plan.timed.iter().enumerate() {
        for (j, st) in list.iter().enumerate().step_by(stride.max(1)) {
            let ctx = Ctx { fed, routes: &routes, stmt: stmt_id(session, j) };
            ctx.statement(log, st)
                .map_err(|e| format!("probe of `{}` failed: {e}\n  sql: {}", st.kind, st.sql))?;
            probed += 1;
        }
    }
    Ok(probed)
}

/// Per statement, the self time (ns) of each span name.
pub fn per_statement(logs: &[&SpanLog]) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for log in logs {
        let selfs = self_times(&log.spans);
        for s in &log.spans {
            *out.entry(s.stmt).or_default().entry(s.name).or_insert(0) += selfs[&s.id];
        }
    }
    out
}
