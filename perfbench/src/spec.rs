//! What a workload is made of: generated statements, the answers the
//! benchmark expects for them, and the check of a program outcome against
//! such an answer.

use dol::TaskStatus;
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use mdbs::wire::encode_value;
use mdbs::{DbOutcome, MdbsError, MsqlOutcome};

/// Latency class of a statement. Latency is reported per class, never over
/// the whole mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Retrievals: multiple queries, cross-database joins, aggregates.
    Read,
    /// Modifications: updates, inserts, deletes, multitransactions.
    Write,
}

/// One row of an expected answer.
pub type Row = Vec<Value>;

/// The §3.2–3.3 terminal state a subquery must reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Committed,
    /// Prepared or executed, then rolled back by the global decision.
    RolledBack,
    /// The subquery that failed (an injected write failure).
    Failed,
    /// Committed, then undone by its COMP statement.
    Compensated,
}

impl Status {
    fn admits(self, got: TaskStatus) -> bool {
        match self {
            Status::Committed => got == TaskStatus::Committed,
            Status::RolledBack => got == TaskStatus::Aborted,
            Status::Failed => matches!(got, TaskStatus::Aborted | TaskStatus::Error),
            Status::Compensated => got == TaskStatus::Compensated,
        }
    }
}

/// Expected terminal state of one database's subquery.
#[derive(Clone, Debug, PartialEq)]
pub struct DbExpect {
    pub db: String,
    pub status: Status,
    /// Rows the subquery affected, when it committed.
    pub affected: Option<u64>,
}

impl DbExpect {
    pub fn new(db: &str, status: Status, affected: Option<u64>) -> Self {
        DbExpect { db: db.to_string(), status, affected }
    }
}

/// The answer the benchmark computed for a statement from its own data.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A multitable: one table per database, each compared as a multiset.
    Tables(Vec<(String, Vec<Row>)>),
    /// One coordinator table, compared as a sequence when `ordered`.
    Table { rows: Vec<Row>, ordered: bool },
    /// A (vital) update: overall success and every database's fate.
    Update { success: bool, dbs: Vec<DbExpect> },
    /// A multitransaction: the achieved acceptable state and every fate.
    Mtx { state: Option<usize>, dbs: Vec<DbExpect> },
}

/// One generated statement.
#[derive(Debug)]
pub struct Stmt {
    /// Statement kind, for the per-kind figures and the class-boundary check.
    pub kind: &'static str,
    pub class: Class,
    pub sql: String,
    pub expect: Expect,
}

/// A row the benchmark reads back from a site after the run, with the value
/// it expects there.
#[derive(Debug)]
pub struct FinalCheck {
    pub service: String,
    pub db: String,
    pub sql: String,
    pub rows: Vec<Row>,
}

/// One site of a generated federation.
pub struct SiteLoad {
    pub service: String,
    pub site: String,
    pub db: String,
    pub profile: DbmsProfile,
    /// DDL and INSERTs, run on the local engine before it joins.
    pub load: Vec<String>,
    /// Tables whose writes the site's failure policy rejects.
    pub fail_writes: Vec<String>,
}

/// How to build a workload's federation.
pub enum Build {
    /// `mdbs::fixtures::paper_federation_with`, default profiles.
    Paper,
    /// Generated sites, imported, then `ANALYZE`d by these MSQL statements.
    Sites { sites: Vec<SiteLoad>, analyze: Vec<String> },
}

/// Everything one run executes, generated from the seed.
pub struct Plan {
    pub build: Build,
    /// Per session, run once during set-up.
    pub warmup: Vec<Vec<Stmt>>,
    /// Per session, the timed statement list.
    pub timed: Vec<Vec<Stmt>>,
    /// Read back after the timed phase.
    pub finals: Vec<FinalCheck>,
}

impl Plan {
    /// Total statements in the timed lists.
    pub fn timed_len(&self) -> usize {
        self.timed.iter().map(Vec::len).sum()
    }

    /// A byte-exact rendering of everything generated from the seed.
    #[cfg(test)]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if let Build::Sites { sites, analyze } = &self.build {
            for s in sites {
                out.push_str(&format!(
                    "site {} {} {} fail={:?}\n",
                    s.service, s.site, s.db, s.fail_writes
                ));
                for l in &s.load {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            for a in analyze {
                out.push_str(a);
                out.push('\n');
            }
        }
        for (tag, lists) in [("warmup", &self.warmup), ("timed", &self.timed)] {
            for (s, list) in lists.iter().enumerate() {
                for st in list {
                    out.push_str(&format!(
                        "{tag} s{s} {} {:?}\n{}\n{:?}\n",
                        st.kind, st.class, st.sql, st.expect
                    ));
                }
            }
        }
        for f in &self.finals {
            out.push_str(&format!("final {} {} {} {:?}\n", f.service, f.db, f.sql, f.rows));
        }
        out
    }
}

/// Canonical text of a row: the text wire encoding of each value.
pub fn render(row: &[Value]) -> String {
    row.iter().map(encode_value).collect::<Vec<_>>().join("|")
}

fn rendered(rows: &[Row], ordered: bool) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| render(r)).collect();
    if !ordered {
        out.sort_unstable();
    }
    out
}

pub fn diff_rows(what: &str, got: &[Row], want: &[Row], ordered: bool) -> Result<(), String> {
    let (g, w) = (rendered(got, ordered), rendered(want, ordered));
    if g == w {
        return Ok(());
    }
    let first = g.iter().zip(&w).position(|(a, b)| a != b).unwrap_or(g.len().min(w.len()));
    Err(format!(
        "{what}: {} rows, expected {}; first difference at row {first}: got {:?}, expected {:?}",
        g.len(),
        w.len(),
        g.get(first),
        w.get(first)
    ))
}

fn check_fates(outcomes: &[DbOutcome], dbs: &[DbExpect]) -> Result<(), String> {
    if outcomes.len() != dbs.len() {
        return Err(format!("{} subqueries reported, expected {}", outcomes.len(), dbs.len()));
    }
    for want in dbs {
        let Some(got) = outcomes.iter().find(|o| o.database == want.db) else {
            return Err(format!("no outcome for database {}", want.db));
        };
        if !want.status.admits(got.status) {
            return Err(format!(
                "{}: status {:?}, expected {:?} (error: {:?})",
                want.db, got.status, want.status, got.error
            ));
        }
        if let Some(n) = want.affected {
            if got.affected != n {
                return Err(format!("{}: {} rows affected, expected {n}", want.db, got.affected));
            }
        }
    }
    Ok(())
}

/// Compares a statement's outcome with the benchmark's expected answer.
pub fn check(expect: &Expect, got: &Result<MsqlOutcome, MdbsError>) -> Result<(), String> {
    let out = match got {
        Ok(out) => out,
        Err(e) => return Err(format!("error: {e}")),
    };
    match (expect, out) {
        (Expect::Tables(want), MsqlOutcome::Multitable(mt)) => {
            if mt.tables.len() != want.len() {
                let dbs: Vec<&str> = mt.tables.iter().map(|t| t.database.as_str()).collect();
                return Err(format!("multitable over {dbs:?}, expected {} tables", want.len()));
            }
            for (db, rows) in want {
                let Some(t) = mt.tables.iter().find(|t| &t.database == db) else {
                    return Err(format!("no table for database {db}"));
                };
                diff_rows(db, &t.result.rows, rows, false)?;
            }
            Ok(())
        }
        (Expect::Table { rows, ordered }, MsqlOutcome::Table(rs)) => {
            diff_rows("table", &rs.rows, rows, *ordered)
        }
        (Expect::Update { success, dbs }, MsqlOutcome::Update(r)) => {
            if r.success != *success {
                return Err(format!("success {}, expected {success}", r.success));
            }
            check_fates(&r.outcomes, dbs)
        }
        (Expect::Mtx { state, dbs }, MsqlOutcome::Mtx(r)) => {
            if r.achieved_state != *state {
                return Err(format!("state {:?}, expected {state:?}", r.achieved_state));
            }
            check_fates(&r.outcomes, dbs)
        }
        (_, other) => Err(format!("unexpected outcome kind: {}", outcome_kind(other))),
    }
}

fn outcome_kind(out: &MsqlOutcome) -> &'static str {
    match out {
        MsqlOutcome::Multitable(_) => "multitable",
        MsqlOutcome::Table(_) => "table",
        MsqlOutcome::Update(_) => "update",
        MsqlOutcome::Mtx(_) => "multitransaction",
        MsqlOutcome::Admin(_) => "admin",
        MsqlOutcome::Explain(_) => "explain",
    }
}
