//! Fault-tolerant LAM communication, end to end.
//!
//! The paper's prototype ran over an unreliable campus network (§4.1); these
//! scenarios re-run the Q1/Q2 experiments with per-link message loss
//! injected into the simulated fabric and assert the retry layer's
//! guarantees:
//!
//! * with a retry policy, lossy links are survived deterministically
//!   (seeded RNG + serial execution = reproducible drop pattern);
//! * without retries, the same lossy links sink the statement;
//! * an unreachable NON VITAL site degrades the statement instead of
//!   failing it when the federation opts in (§3.2);
//! * a lost commit acknowledgement is re-asked and answered from the LAM's
//!   reply cache — reported as committed, executed exactly once.

use dol::TaskStatus;
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::lam::spawn_lam;
use mdbs::lamclient::LamClient;
use mdbs::proto::{Request, Response, TaskMode};
use mdbs::retry::shared_stats;
use mdbs::{CrashPlan, CrashWhen, Federation, MdbsError, RetryPolicy, Session};
use netsim::{FaultKind, Network};
use std::time::{Duration, Instant};

const Q1: &str = "USE avis national
    LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
    SELECT %code, type, ~rate FROM car WHERE status = 'available'";

const Q2: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

/// Drop probability the acceptance scenarios run at.
const DROP_P: f64 = 0.3;

/// Builds the paper federation on a seeded network, then degrades every
/// link touching `sites` (both directions) with probability `p`. Serial
/// execution keeps the seeded drop sequence deterministic; the short
/// timeout keeps lost messages cheap.
fn lossy_federation(seed: u64, sites: &[&str], p: f64) -> Federation {
    let mut fed = paper_federation_with(Network::with_seed(seed), FederationProfiles::default());
    fed.parallel = false;
    fed.timeout = Duration::from_millis(150);
    for site in sites {
        fed.network().set_link_drop_probability("*", site, p);
        fed.network().set_link_drop_probability(site, "*", p);
    }
    fed
}

/// Restores lossless links so LAM shutdown at drop time is not slowed by
/// lost control messages.
fn heal(fed: &Federation, sites: &[&str]) {
    for site in sites {
        fed.network().clear_link_drop_probability("*", site);
        fed.network().clear_link_drop_probability(site, "*");
    }
}

fn rate(fed: &Federation, service: &str, db: &str, sql: &str) -> Value {
    let engine = fed.engine(service).unwrap();
    let mut engine = engine.lock();
    engine.execute(db, sql).unwrap().into_result_set().unwrap().rows[0][0].clone()
}

#[test]
fn q1_succeeds_deterministically_on_lossy_links_with_retries() {
    let sites = ["site4", "site5"];
    let mut fed = lossy_federation(0xA1, &sites, DROP_P);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };

    let mt = fed.execute(Q1).unwrap().into_multitable().unwrap();
    assert_eq!(mt.tables.len(), 2, "both databases answered despite the lossy links");
    assert_eq!(mt.table("avis").unwrap().rows.len(), 2);
    assert_eq!(mt.table("national").unwrap().rows.len(), 2);

    let stats = fed.exec_stats();
    let dropped = fed.network().stats().dropped;
    assert!(dropped > 0, "the drop injection actually fired (dropped = {dropped})");
    assert!(stats.retries > 0, "lost messages were resent: {stats:?}");
    assert!(stats.transient_faults > 0, "drops were classified transient: {stats:?}");
    assert!(stats.recovered > 0, "at least one call recovered via retry: {stats:?}");
    assert_eq!(stats.terminal_faults, 0, "nothing terminal on a merely lossy network");
    heal(&fed, &sites);
}

#[test]
fn q1_fails_on_the_same_lossy_links_without_retries() {
    let sites = ["site4", "site5"];
    let mut fed = lossy_federation(0xA1, &sites, DROP_P);
    // Default policy: single attempt, faults surface immediately.
    assert!(!fed.retry.enabled());

    let complete = match fed.execute(Q1) {
        Ok(out) => out.into_multitable().unwrap().tables.len() == 2,
        Err(_) => false,
    };
    assert!(!complete, "without retries the lossy links must sink the retrieval");
    let stats = fed.exec_stats();
    assert_eq!(stats.retries, 0, "no resends under the single-attempt policy");
    assert!(stats.transient_faults > 0, "the losses were observed: {stats:?}");
    assert!(fed.network().stats().dropped > 0);
    heal(&fed, &sites);
}

#[test]
fn q2_commits_deterministically_on_lossy_links_with_retries() {
    let sites = ["site1", "site2", "site3"];
    let mut fed = lossy_federation(0xB2, &sites, DROP_P);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(report.success, "{report:?}");
    assert_eq!(report.return_code, 0);
    for o in &report.outcomes {
        assert_eq!(o.status, TaskStatus::Committed, "{o:?}");
        assert!(o.attempts >= 1, "telemetry shows the LAM was reached: {o:?}");
    }
    // The statement-level report carries this run's accounting.
    assert!(report.stats.attempts >= 3, "{:?}", report.stats);
    let dropped = fed.network().stats().dropped;
    assert!(dropped > 0, "the drop injection actually fired (dropped = {dropped})");
    assert!(report.stats.retries > 0, "{:?}", report.stats);

    heal(&fed, &sites);
    // All three heterogeneous schemas were updated exactly once.
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1)
    );
    assert_eq!(
        rate(&fed, "svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 10"),
        Value::Float(95.0 * 1.1)
    );
    assert_eq!(
        rate(&fed, "svc_united", "united", "SELECT rates FROM flight WHERE fn = 20"),
        Value::Float(110.0 * 1.1)
    );
}

#[test]
fn q2_fails_on_the_same_lossy_links_without_retries() {
    let sites = ["site1", "site2", "site3"];
    let mut fed = lossy_federation(0xB2, &sites, DROP_P);

    let succeeded = match fed.execute(Q2) {
        Ok(out) => out.into_update().unwrap().success,
        Err(_) => false,
    };
    assert!(!succeeded, "without retries the lossy links must sink the vital update");
    heal(&fed, &sites);
}

#[test]
fn unreachable_nonvital_site_degrades_the_statement_when_tolerated() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.parallel = false;
    fed.timeout = Duration::from_millis(300);
    fed.tolerate_unreachable = true;
    // delta's site vanishes (site2). Its subquery in Q2 is NON VITAL.
    fed.network().deregister("site2");

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(report.success, "§3.2: the multiquery succeeds without its NON VITAL member");
    let by_key = |k: &str| report.outcomes.iter().find(|o| o.key == k).unwrap();
    assert_eq!(by_key("continental").status, TaskStatus::Committed);
    assert_eq!(by_key("united").status, TaskStatus::Committed);
    let delta = by_key("delta");
    assert_ne!(delta.status, TaskStatus::Committed, "{delta:?}");
    assert_eq!(delta.attempts, 0, "delta's LAM was never reached");
    assert_eq!(delta.fault, Some(FaultKind::Terminal), "{delta:?}");
    assert!(report.stats.degraded >= 1, "{:?}", report.stats);
    assert!(report.stats.terminal_faults >= 1, "{:?}", report.stats);
    assert!(fed.exec_stats().degraded >= 1, "session stats aggregate the degradation");

    // The vital members really committed; delta kept its old fare.
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1)
    );
    assert_eq!(
        rate(&fed, "svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 10"),
        Value::Float(95.0)
    );
}

#[test]
fn unreachable_vital_site_still_fails_even_when_tolerated() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.parallel = false;
    fed.timeout = Duration::from_millis(300);
    fed.tolerate_unreachable = true;
    // united's site vanishes (site3). Its subquery in Q2 is VITAL.
    fed.network().deregister("site3");

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(!report.success, "a lost VITAL member can never be degraded away (§3.2)");
    // The surviving vital member must not have committed either.
    let continental = report.outcomes.iter().find(|o| o.key == "continental").unwrap();
    assert_ne!(continental.status, TaskStatus::Committed, "{continental:?}");
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0),
        "continental rolled back with its vital partner lost"
    );
}

#[test]
fn lost_commit_ack_is_reasked_and_reports_committed() {
    let net = Network::new();
    let mut engine = ldbs::Engine::new("svc", DbmsProfile::oracle_like());
    engine.create_database("avis").unwrap();
    engine.execute("avis", "CREATE TABLE cars (code INT, rate FLOAT)").unwrap();
    engine.execute("avis", "INSERT INTO cars VALUES (1, 40.0)").unwrap();
    let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();

    let client = LamClient::connect_with(
        &net,
        "site1",
        "avis",
        Duration::from_millis(100),
        RetryPolicy::retries(4),
        shared_stats(),
    )
    .unwrap();
    // 2PC round: execute-and-prepare, then commit.
    let resp = client
        .call(Request::Task {
            name: "T1".into(),
            mode: TaskMode::NoCommit,
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = 50 WHERE code = 1".into()],
        })
        .unwrap();
    assert!(matches!(resp, Response::TaskDone { status: 'P', .. }), "{resp:?}");

    // The LAM's next outgoing message — the commit acknowledgement — is
    // lost. The client re-asks under the same correlation id; the LAM
    // replays the cached Ok instead of re-running the commit (which would
    // report `unknown prepared task`).
    net.drop_next("site1", "*", 1);
    let resp = client.call(Request::Commit { task: "T1".into() }).unwrap();
    assert_eq!(resp, Response::Ok, "the re-ask reports the commit");
    let s = client.stats();
    let s = s.lock();
    assert_eq!(s.retries, 1, "exactly one resend: {s:?}");
    assert_eq!(s.recovered, 1, "{s:?}");
    drop(s);

    let committed = {
        let mut e = lam.engine.lock();
        e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap()
            .rows[0][0]
            .clone()
    };
    assert_eq!(committed, Value::Float(50.0), "committed exactly once");
}

#[test]
fn injected_drops_are_annotated_on_the_surviving_spans() {
    let sites = ["site4", "site5"];
    let mut fed = lossy_federation(0xA1, &sites, DROP_P);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };

    fed.execute(Q1).unwrap();
    heal(&fed, &sites);

    let note = |n: &obs::SpanNode, key: &str| {
        n.notes.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };

    // Every retry layer fault inside a traced call shows up as a `fault`
    // annotation on an `rpc` span; the owning task span's `faults`/`attempts`
    // notes agree with its rpc children exactly.
    let trace = fed.last_trace().expect("the statement left a trace");
    let mut rpc_faults = 0u64;
    let mut annotated_tasks = 0u64;
    trace.visit(&mut |n| {
        if n.name == "rpc" && note(n, "fault").is_some() {
            assert_eq!(note(n, "fault").as_deref(), Some("transient"), "{n:?}");
            rpc_faults += 1;
        }
        if n.name.starts_with("task:") {
            let rpcs = n.children.iter().filter(|c| c.name == "rpc").count() as u64;
            let failed =
                n.children.iter().filter(|c| c.name == "rpc" && note(c, "fault").is_some()).count()
                    as u64;
            let attempts: u64 = note(n, "attempts").unwrap().parse().unwrap();
            assert_eq!(attempts, rpcs, "one rpc child per attempt: {n:?}");
            let faults: u64 = note(n, "faults").map_or(0, |v| v.parse().unwrap());
            assert_eq!(faults, failed, "the faults note counts the failed attempts: {n:?}");
            if faults > 0 {
                annotated_tasks += 1;
            }
        }
    });
    assert!(rpc_faults > 0, "the loss injection left visible fault annotations");
    assert!(annotated_tasks > 0, "at least one task span carries a fault summary");

    // The retry layer saw at least the traced faults (connection pings are
    // retried too, but outside any task span), and nothing terminal.
    let stats = fed.exec_stats();
    assert!(rpc_faults <= stats.transient_faults, "{rpc_faults} traced vs {stats:?}");
    assert_eq!(stats.terminal_faults, 0, "{stats:?}");

    // Observability and the network fabric agree on what was dropped: the
    // probe-fed `net.dropped` counter matches netsim's own accounting.
    let metrics = fed.metrics();
    let dropped = fed.network().stats().dropped;
    assert!(dropped > 0, "the drop injection actually fired");
    assert_eq!(metrics.counters.get("net.dropped").copied().unwrap_or(0), dropped);
}

const Q3_UPDATE_WITH_COMP: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'
    COMP continental
    UPDATE flights
    SET rate = rate / 1.1
    WHERE source = 'Houston' AND destination = 'San Antonio'";

/// The Q3 setup whose continental member autocommits (no 2PC): its subquery
/// is settled at the LAM the moment it executes, so a coordinator crash
/// before the decision forces recovery down the §3.3 compensation path.
fn autocommit_continental_federation() -> Federation {
    let mut fed = paper_federation_with(
        Network::with_seed(0xC3),
        FederationProfiles {
            continental: DbmsProfile::autocommit_only(),
            ..FederationProfiles::default()
        },
    );
    fed.parallel = false;
    fed
}

/// Crashes the Q3 coordinator immediately before it logs its decision,
/// recovers on a successor federation sharing the same log, and renders the
/// recovery trace: presumed abort, delta/united rolled back via RESOLVE,
/// autocommitted continental compensated.
fn recovery_trace() -> String {
    // Locate the decision record in a crash-free run of the same scenario.
    let decide_at = {
        let mut fed = autocommit_continental_federation();
        let wal = fed.enable_wal();
        fed.execute(Q3_UPDATE_WITH_COMP).unwrap();
        wal.records()
            .unwrap()
            .iter()
            .position(|r| r.kind().starts_with("decision"))
            .expect("a settle-bearing statement logs a decision")
    };

    let mut fed = autocommit_continental_federation();
    let wal = fed.enable_wal();
    wal.arm_crash(CrashPlan { at: decide_at, when: CrashWhen::Before });
    fed.execute(Q3_UPDATE_WITH_COMP).unwrap_err();
    assert!(wal.crashed(), "the armed crash point fired");

    // The restarted coordinator replays the log against the LAMs, which —
    // being autonomous sites — survived the coordinator's crash.
    let report = fed.recover().unwrap();
    assert_eq!(report.recovered.len(), 1);
    let mtx = &report.recovered[0];
    assert!(mtx.presumed_abort, "no decision record survived the crash");
    assert_eq!(mtx.achieved_state, None);
    // T1 = continental (VITAL, autocommitted → compensated), T2 = delta
    // (NON VITAL, § 3.2: outside the oracle, stays committed), T3 = united
    // (VITAL, prepared → rolled back by RESOLVE).
    assert_eq!(mtx.statuses.get("T1"), Some(&TaskStatus::Compensated), "{mtx:?}");
    assert_eq!(mtx.statuses.get("T2"), Some(&TaskStatus::Committed), "{mtx:?}");
    assert_eq!(mtx.statuses.get("T3"), Some(&TaskStatus::Aborted), "{mtx:?}");
    assert!(mtx.is_consistent());

    // The compensation really undid continental's autocommitted fare bump.
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1 / 1.1)
    );

    fed.last_trace().expect("recovery leaves a trace").render()
}

/// Pins the recovery span tree against `tests/golden/recovery.trace`. Two
/// fresh runs must render byte-identically (logical clock + serial
/// execution); regenerate after an intentional change with
/// `UPDATE_GOLDEN=1 cargo test --test fault_tolerance`.
#[test]
fn recovery_trace_is_golden() {
    let first = recovery_trace();
    let second = recovery_trace();
    assert_eq!(first, second, "recovery trace differs between two identical runs");

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/recovery.trace");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &first).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden file {path:?} — generate it with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        first, want,
        "golden recovery trace drift — if the change is intended, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test fault_tolerance"
    );
}

#[test]
fn dead_lam_fails_fast_even_with_retries_enabled() {
    let net = Network::new();
    let mut engine = ldbs::Engine::new("svc", DbmsProfile::oracle_like());
    engine.create_database("avis").unwrap();
    let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
    let client = LamClient::connect_with(
        &net,
        "site1",
        "avis",
        Duration::from_secs(5),
        RetryPolicy::retries(5),
        shared_stats(),
    )
    .unwrap();
    lam.shutdown(); // deregisters the site

    let start = Instant::now();
    let err = client.call(Request::Ping).unwrap_err();
    assert!(
        matches!(err, MdbsError::LamUnavailable { ref site } if site == "site1"),
        "terminal faults are not retried: {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(1), "no timeout, no backoff loop");
}

// ---- Session-scoped connections ------------------------------------------
//
// A session keeps its LAM connections across statements. A dead LAM is
// still caught at OPEN (its site is deregistered, so the cached connection
// is evicted and the reconnect fails); a partition or lossy link is met by
// the first request and handled by the retry policy.

/// Q2 on a federation that lost `site` — before its first statement (a
/// cold OPEN) or after one successful Q2 (a warm session holding a cached
/// connection to it). The outcome is reduced to what §3.2 decides: per
/// member status, attempts and last fault, or the statement's error.
fn q2_after_losing(site: &str, warm: bool, tolerate: bool) -> Result<String, String> {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.parallel = false;
    fed.timeout = Duration::from_millis(300);
    fed.tolerate_unreachable = tolerate;
    // A fresh session (the primary one is warm from the fixture's IMPORTs).
    let mut session = fed.session();
    if warm {
        assert!(session.execute(Q2).unwrap().into_update().unwrap().success);
    }
    let evicted = fed.metrics_registry().counter("conn.evicted");
    fed.network().deregister(site);
    let result = session.execute(Q2);
    let evicted = fed.metrics_registry().counter("conn.evicted") - evicted;
    assert_eq!(evicted, u64::from(warm), "only a warm session holds a connection to evict");
    let outcome = result.map_err(|e| e.to_string())?.into_update().unwrap();
    let members: Vec<String> = outcome
        .outcomes
        .iter()
        .map(|o| format!("{}={:?}/{}/{:?}", o.key, o.status, o.attempts, o.fault))
        .collect();
    Ok(format!("success={} {}", outcome.success, members.join(" ")))
}

#[test]
fn a_lam_lost_between_statements_fails_open_exactly_as_a_cold_open() {
    // VITAL united (site3): the statement fails at OPEN, warm or cold.
    let cold = q2_after_losing("site3", false, false);
    assert!(cold.as_ref().is_err_and(|e| e.contains("site3")), "{cold:?}");
    assert_eq!(q2_after_losing("site3", true, false), cold);

    // Tolerated, a lost VITAL member still sinks the statement.
    let cold = q2_after_losing("site3", false, true).unwrap();
    assert!(cold.starts_with("success=false"), "{cold}");
    assert!(cold.contains("united=Error/0/Some(Terminal)"), "{cold}");
    assert_eq!(q2_after_losing("site3", true, true).unwrap(), cold);

    // Tolerated, NON VITAL delta (site2) degrades with attempts == 0.
    let cold = q2_after_losing("site2", false, true).unwrap();
    assert!(cold.starts_with("success=true"), "{cold}");
    assert!(cold.contains("delta=Error/0/Some(Terminal)"), "{cold}");
    assert_eq!(q2_after_losing("site2", true, true).unwrap(), cold);
}

#[test]
fn a_partition_after_warm_up_is_met_by_the_first_request_and_retried() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.parallel = false;
    fed.timeout = Duration::from_millis(150);
    fed.retry = RetryPolicy::retries(3);
    assert!(fed.execute(Q2).unwrap().into_update().unwrap().success);
    let opened = fed.metrics_registry().counter("conn.opened");
    let before =
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1");

    // united (site3, VITAL) is cut off from every peer. OPEN is a cache
    // lookup, so the TASK request is what meets the partition.
    fed.network().partition("*", "site3");
    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(!report.success, "a partitioned VITAL member fails the statement: {report:?}");
    let united = report.outcomes.iter().find(|o| o.key == "united").unwrap();
    assert_eq!(united.attempts, 3, "retried per the policy: {united:?}");
    assert_eq!(united.fault, Some(FaultKind::Transient), "{united:?}");
    assert!(report.stats.retries >= 2, "{:?}", report.stats);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        before,
        "continental rolled back with its vital partner unreachable"
    );

    // The partition heals; the cached connections carry on (a transient
    // fault does not discard them).
    fed.network().heal("*", "site3");
    assert!(fed.execute(Q2).unwrap().into_update().unwrap().success);
    assert_eq!(fed.metrics_registry().counter("conn.opened"), opened, "no reconnect");
}

/// Counts the request attempts (`rpc` spans) of the last statement.
fn rpc_spans(session: &Session) -> u64 {
    session.last_trace().unwrap().render().lines().filter(|l| l.contains("rpc [")).count() as u64
}

#[test]
fn a_warm_rerun_of_q2_sends_no_ping() {
    let fed = paper_federation_with(Network::new(), FederationProfiles::default());
    // A fresh session: the federation's primary one is already warm from
    // the fixture's IMPORTs.
    let mut session = fed.session();
    let messages = || fed.metrics_registry().counter("net.messages");

    let m0 = messages();
    assert!(session.execute(Q2).unwrap().into_update().unwrap().success);
    let cold = messages() - m0;
    let requests = rpc_spans(&session);
    assert_eq!(requests, 5, "3 TASKs and 2 COMMITs");
    assert_eq!(cold, 2 * (requests + 3), "a cold session PINGs each of its 3 OPENs");

    let m1 = messages();
    assert!(session.execute(Q2).unwrap().into_update().unwrap().success);
    assert_eq!(rpc_spans(&session), requests);
    assert_eq!(messages() - m1, 2 * requests, "warm: one request and one reply each");
}

/// united's LAM prepares T3, but every reply to it is lost: the coordinator
/// sees an error, yet the LAM holds the subtransaction prepared. The task
/// is in doubt, so its log image stays open and recovery rolls it back —
/// no prepared transaction outlives the statement's resolution.
#[test]
fn a_first_phase_task_whose_replies_are_all_lost_is_resolved_by_recovery() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.parallel = false;
    fed.timeout = Duration::from_millis(100);
    fed.retry = RetryPolicy::retries(3);
    let wal = fed.enable_wal();
    fed.network().drop_next("site3", "*", 3);

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(!report.success, "{report:?}");
    let united = report.outcomes.iter().find(|o| o.key == "united").unwrap();
    assert_eq!((united.status, united.attempts), (TaskStatus::Error, 3), "{united:?}");
    let engine = fed.engine("svc_united").unwrap();
    assert_eq!(engine.lock().prepared_txns().len(), 1, "the LAM holds T3 prepared");
    assert!(wal.replay().unwrap().iter().any(|image| !image.ended), "T3 is in doubt");

    let recovered = fed.recover().unwrap();
    assert_eq!(recovered.recovered.len(), 1);
    assert_eq!(recovered.recovered[0].statuses.get("T3"), Some(&TaskStatus::Aborted));
    assert!(recovered.recovered[0].is_consistent());
    assert!(engine.lock().prepared_txns().is_empty(), "recovery rolled T3 back");
}
