//! `vital_writes_0ms`: four generated sites on a 0 ms fabric, one session.
//! `v0`–`v2` offer 2PC (Oracle-like and Ingres-like), `v3` is
//! autocommit-only. Every `ledger` write on `v1` is rejected by its failure
//! policy, so the statement kinds that touch it roll back, compensate or
//! fall back to a multitransaction's second state at a fixed share of
//! every block, whatever the seed. INSERT and DELETE come in pairs, so no
//! table grows.

use super::{kinds, Block};
use crate::rng::Rng;
use crate::spec::{Build, Class, DbExpect, Expect, FinalCheck, Plan, Row, SiteLoad, Status, Stmt};
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;

const ACCTS: usize = 2000;
const LEDGER: usize = 100;
const HIST: usize = 500;
const SITES: usize = 4;

/// `insert_delete` expands to two statements, so a block is 22 statements:
/// 6 reads and 16 writes, 3 of which hit the failing table.
const BLOCK: Block = &[
    ("point_acct", 4),
    ("point_ledger", 2),
    ("vital_update", 3),
    ("insert_delete", 2),
    ("comp_update", 4),
    ("vital_rollback", 1),
    ("comp_compensated", 1),
    ("mtx_preferred", 2),
    ("mtx_fallback", 1),
];

struct Model {
    /// Per site, balance by account id.
    bal: Vec<Vec<i64>>,
    /// Per site, ledger counter by id.
    ledger: Vec<Vec<i64>>,
    /// Next fresh history key.
    next_hk: i64,
}

fn db(i: usize) -> String {
    format!("v{i}")
}

fn profile(i: usize) -> DbmsProfile {
    match i {
        0 | 2 => DbmsProfile::oracle_like(),
        1 => DbmsProfile::ingres_like(),
        _ => DbmsProfile::autocommit_only(),
    }
}

fn sites(m: &Model) -> Vec<SiteLoad> {
    (0..SITES)
        .map(|i| {
            let mut load = vec![
                "CREATE TABLE acct (id INT, bal INT)".to_string(),
                "CREATE INDEX acct_id ON acct (id) USING HASH".to_string(),
                "CREATE TABLE ledger (id INT, n INT)".to_string(),
                "CREATE INDEX ledger_id ON ledger (id) USING HASH".to_string(),
                "CREATE TABLE hist (hk INT, note CHAR(12))".to_string(),
                "CREATE INDEX hist_hk ON hist (hk) USING HASH".to_string(),
            ];
            load.extend(
                m.bal[i]
                    .iter()
                    .enumerate()
                    .map(|(id, b)| format!("INSERT INTO acct VALUES ({id}, {b})")),
            );
            load.extend(
                m.ledger[i]
                    .iter()
                    .enumerate()
                    .map(|(id, n)| format!("INSERT INTO ledger VALUES ({id}, {n})")),
            );
            load.extend((0..HIST).map(|hk| format!("INSERT INTO hist VALUES ({hk}, 'h{hk}')")));
            SiteLoad {
                service: format!("svc_v{i}"),
                site: format!("site_v{i}"),
                db: db(i),
                profile: profile(i),
                load,
                fail_writes: if i == 1 { vec!["ledger".into()] } else { Vec::new() },
            }
        })
        .collect()
}

fn fates(list: &[(usize, Status)]) -> Vec<DbExpect> {
    list.iter()
        .map(|(i, st)| DbExpect::new(&db(*i), *st, (*st == Status::Committed).then_some(1)))
        .collect()
}

fn point(values: &[Vec<i64>], id: usize) -> Expect {
    Expect::Tables(
        (0..SITES)
            .map(|i| {
                (db(i), vec![vec![Value::Int(id as i64), Value::Int(values[i][id])]] as Vec<Row>)
            })
            .collect(),
    )
}

/// Appends the statements of one kind (two for `insert_delete`).
fn push(rng: &mut Rng, m: &mut Model, kind: &'static str, out: &mut Vec<Stmt>) {
    use Status::*;
    let id = rng.below(ACCTS as u64) as usize;
    let lid = rng.below(LEDGER as u64) as usize;
    let d = rng.range(1, 100);
    let (class, sql, expect) = match kind {
        "point_acct" => (
            Class::Read,
            format!("USE v0 v1 v2 v3 SELECT id, bal FROM acct WHERE id = {id}"),
            point(&m.bal, id),
        ),
        "point_ledger" => (
            Class::Read,
            format!("USE v0 v1 v2 v3 SELECT id, n FROM ledger WHERE id = {lid}"),
            point(&m.ledger, lid),
        ),
        "vital_update" => {
            for i in 0..3 {
                m.bal[i][id] += d;
            }
            (
                Class::Write,
                format!(
                    "USE v0 VITAL v1 VITAL v2 VITAL \
                     UPDATE acct SET bal = bal + {d} WHERE id = {id}"
                ),
                Expect::Update {
                    success: true,
                    dbs: fates(&[(0, Committed), (1, Committed), (2, Committed)]),
                },
            )
        }
        "insert_delete" => {
            let hk = m.next_hk;
            m.next_hk += 1;
            let ok =
                Expect::Update { success: true, dbs: fates(&[(0, Committed), (1, Committed)]) };
            out.push(Stmt {
                kind: "insert",
                class: Class::Write,
                sql: format!("USE v0 VITAL v1 VITAL INSERT INTO hist VALUES ({hk}, 'n{hk}')"),
                expect: ok.clone(),
            });
            (Class::Write, format!("USE v0 VITAL v1 VITAL DELETE FROM hist WHERE hk = {hk}"), ok)
        }
        "comp_update" => {
            for i in [2, 3] {
                m.bal[i][id] += d;
            }
            (
                Class::Write,
                format!(
                    "USE v2 VITAL v3 VITAL UPDATE acct SET bal = bal + {d} WHERE id = {id} \
                     COMP v3 UPDATE acct SET bal = bal - {d} WHERE id = {id}"
                ),
                Expect::Update { success: true, dbs: fates(&[(2, Committed), (3, Committed)]) },
            )
        }
        "vital_rollback" => (
            Class::Write,
            format!("USE v0 VITAL v1 VITAL v2 VITAL UPDATE ledger SET n = n + 1 WHERE id = {lid}"),
            Expect::Update {
                success: false,
                dbs: fates(&[(0, RolledBack), (1, Failed), (2, RolledBack)]),
            },
        ),
        "comp_compensated" => (
            Class::Write,
            format!(
                "USE v1 VITAL v3 VITAL UPDATE ledger SET n = n + 1 WHERE id = {lid} \
                 COMP v3 UPDATE ledger SET n = n - 1 WHERE id = {lid}"
            ),
            Expect::Update { success: false, dbs: fates(&[(1, Failed), (3, Compensated)]) },
        ),
        "mtx_preferred" => {
            for i in [0, 1] {
                m.bal[i][id] += d;
            }
            (
                Class::Write,
                format!(
                    "BEGIN MULTITRANSACTION \
                     USE v0 v1 UPDATE acct SET bal = bal + {d} WHERE id = {id}; \
                     USE v2 UPDATE acct SET bal = bal + {d} WHERE id = {id}; \
                     COMMIT v0 AND v1, v2 END MULTITRANSACTION"
                ),
                Expect::Mtx {
                    state: Some(0),
                    dbs: fates(&[(0, Committed), (1, Committed), (2, RolledBack)]),
                },
            )
        }
        "mtx_fallback" => {
            m.ledger[2][lid] += 1;
            (
                Class::Write,
                format!(
                    "BEGIN MULTITRANSACTION \
                     USE v0 v1 UPDATE ledger SET n = n + 1 WHERE id = {lid}; \
                     USE v2 UPDATE ledger SET n = n + 1 WHERE id = {lid}; \
                     COMMIT v0 AND v1, v2 END MULTITRANSACTION"
                ),
                Expect::Mtx {
                    state: Some(1),
                    dbs: fates(&[(0, RolledBack), (1, Failed), (2, Committed)]),
                },
            )
        }
        other => unreachable!("unknown vital_writes kind {other}"),
    };
    let kind = if kind == "insert_delete" { "delete" } else { kind };
    out.push(Stmt { kind, class, sql, expect });
}

/// Generates the data, the warm-up block and the timed list (one session).
pub fn plan(seed: u64, statements: usize) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let mut m = Model {
        bal: (0..SITES).map(|_| (0..ACCTS).map(|_| rng.range(0, 10_000)).collect()).collect(),
        ledger: (0..SITES).map(|_| (0..LEDGER).map(|_| rng.range(0, 100)).collect()).collect(),
        next_hk: HIST as i64,
    };
    let build = Build::Sites { sites: sites(&m), analyze: Vec::new() };
    let mut list = |stream: u64, n: usize| -> Vec<Stmt> {
        let mut rng = Rng::new(seed, stream);
        let mut out = Vec::new();
        for k in kinds(&mut rng, BLOCK, n) {
            push(&mut rng, &mut m, k, &mut out);
            if out.len() >= n {
                break;
            }
        }
        out
    };
    let warmup = vec![list(10, 20)];
    let timed = vec![list(20, statements)];
    let mut finals = Vec::new();
    for i in 0..SITES {
        let ids = |v: &Vec<i64>| -> Vec<Row> {
            v.iter()
                .enumerate()
                .map(|(id, x)| vec![Value::Int(id as i64), Value::Int(*x)])
                .collect()
        };
        let svc = format!("svc_v{i}");
        finals.push(FinalCheck {
            service: svc.clone(),
            db: db(i),
            sql: "SELECT id, bal FROM acct".into(),
            rows: ids(&m.bal[i]),
        });
        finals.push(FinalCheck {
            service: svc.clone(),
            db: db(i),
            sql: "SELECT id, n FROM ledger".into(),
            rows: ids(&m.ledger[i]),
        });
        finals.push(FinalCheck {
            service: svc,
            db: db(i),
            sql: "SELECT COUNT(*) FROM hist".into(),
            rows: vec![vec![Value::Int(HIST as i64)]],
        });
    }
    Plan { build, warmup, timed, finals }
}
