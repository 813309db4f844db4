//! Cross-database joins: decomposition into largest local subqueries, a
//! coordinator collecting partial results, and the modified global query Q'
//! (paper §4.3's decomposition phase + §4.1's "partial results are collected
//! in one database, acting as the coordinator").

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;

#[test]
fn join_flights_with_cars_across_databases() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    // Which available cars are cheaper per day than each Houston→San Antonio
    // flight? (A nonsensical but join-shaped business question.)
    let rs = fed
        .execute(
            "SELECT f.flnu, c.code
             FROM continental.flights f, avis.cars c
             WHERE f.source = 'Houston' AND f.destination = 'San Antonio'
               AND c.carst = 'available' AND c.rate < f.rate
             ORDER BY f.flnu, c.code",
        )
        .unwrap()
        .into_table()
        .unwrap();
    // flight 1 (rate 100) vs available cars 1 (39.5) and 3 (25.0).
    assert_eq!(rs.columns.len(), 2);
    assert_eq!(rs.columns[0].name, "flnu");
    assert_eq!(rs.columns[1].name, "code");
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(1)]);
    assert_eq!(rs.rows[1], vec![Value::Int(1), Value::Int(3)]);
}

#[test]
fn local_predicates_are_pushed_down() {
    // Verify pushdown operationally: byte traffic with a selective local
    // predicate must be lower than without it, because the partial result
    // shipped to the coordinator is smaller.
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    let net = fed.network().clone();

    net.reset_stats();
    fed.execute(
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE c.rate < f.rate",
    )
    .unwrap();
    let unfiltered = net.stats().bytes;

    net.reset_stats();
    fed.execute(
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE f.flnu = 1 AND c.code = 1 AND c.rate < f.rate",
    )
    .unwrap();
    let filtered = net.stats().bytes;

    assert!(
        filtered < unfiltered,
        "pushdown should shrink shipped partials: {filtered} >= {unfiltered}"
    );
}

#[test]
fn aggregates_evaluate_at_the_coordinator() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    let rs = fed
        .execute(
            "SELECT COUNT(*) AS pairs FROM continental.flights f, avis.cars c
             WHERE c.rate < f.rate",
        )
        .unwrap()
        .into_table()
        .unwrap();
    // 3 flights × 3 cars, count pairs where car rate < flight rate:
    // rates: flights 100/80/60; cars 39.5/59/25.
    // All three cars are cheaper than every flight: 3 × 3 = 9.
    assert_eq!(rs.rows[0][0], Value::Int(9));
}

#[test]
fn temporaries_are_cleaned_up_at_the_coordinator() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    fed.execute(
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c WHERE c.rate < f.rate",
    )
    .unwrap();
    // No part_* table remains in either database.
    for (svc, db) in [("svc_continental", "continental"), ("svc_avis", "avis")] {
        let engine = fed.engine(svc).unwrap();
        let engine = engine.lock();
        let names = engine.database(db).unwrap().table_names();
        assert!(
            names.iter().all(|n| !n.starts_with("part_")),
            "leftover temporaries in {db}: {names:?}"
        );
    }
}

#[test]
fn three_way_cross_database_join() {
    let mut fed = paper_federation();
    fed.execute("USE continental delta avis").unwrap();
    let rs = fed
        .execute(
            "SELECT a.flnu, b.fnu, c.code
             FROM continental.flights a, delta.flight b, avis.cars c
             WHERE a.source = b.source AND a.source = 'Houston' AND c.code = 1
             ORDER BY a.flnu, b.fnu",
        )
        .unwrap()
        .into_table()
        .unwrap();
    // continental Houston flights: 1, 2; delta Houston flights: 10, 11.
    assert_eq!(rs.rows.len(), 4);
}

/// A selective cross-db equi-join: only Houston flights share a source with
/// delta, so shipping continental's distinct join keys first lets delta
/// filter most of its rows before they cross the wire.
const EQUI_JOIN: &str = "SELECT f.flnu, g.fnu
     FROM continental.flights f, delta.flight g
     WHERE f.source = g.source AND f.destination = g.dest
     ORDER BY f.flnu, g.fnu";

#[test]
fn semijoin_reduces_shipped_bytes() {
    // `lam.bytes` counts the partial-result payloads shipped back from the
    // sites — the volume the semi-join reduction attacks.
    let run = |semijoin: bool| {
        let mut fed = paper_federation();
        fed.semijoin = semijoin;
        fed.execute("USE continental delta").unwrap();
        let rs = fed.execute(EQUI_JOIN).unwrap().into_table().unwrap();
        let shipped: u64 = fed
            .metrics()
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("lam.bytes{"))
            .map(|(_, v)| *v)
            .sum();
        (rs, shipped)
    };
    let (with, bytes_with) = run(true);
    let (without, bytes_without) = run(false);
    assert_eq!(with.rows, without.rows, "reduction must not change the result");
    assert!(
        bytes_with < bytes_without,
        "semijoin should ship fewer partial bytes: {bytes_with} >= {bytes_without}"
    );
}

#[test]
fn semijoin_on_and_off_agree_across_queries() {
    for query in [
        EQUI_JOIN,
        // Residual non-equi predicate on top of the equi key.
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE f.flnu = c.code AND c.rate < f.rate ORDER BY f.flnu",
        // No equi keys at all: semijoin has nothing to do.
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE c.rate < f.rate ORDER BY f.flnu, c.code",
        // Three sites, one equi edge.
        "SELECT a.flnu, b.fnu, c.code
         FROM continental.flights a, delta.flight b, avis.cars c
         WHERE a.source = b.source AND c.code = 1 ORDER BY a.flnu, b.fnu",
    ] {
        let run = |semijoin: bool| {
            let mut fed = paper_federation();
            fed.semijoin = semijoin;
            fed.execute("USE continental delta avis").unwrap();
            fed.execute(query).unwrap().into_table().unwrap()
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.rows, off.rows, "semijoin changed the result of {query}");
    }
}

#[test]
fn tiny_key_cap_falls_back_to_full_shipping() {
    let mut fed = paper_federation();
    fed.semijoin_cap = 0; // every key set exceeds the cap
    fed.execute("USE continental delta").unwrap();
    let reduced = {
        let mut f2 = paper_federation();
        f2.execute("USE continental delta").unwrap();
        f2.execute(EQUI_JOIN).unwrap().into_table().unwrap()
    };
    let rs = fed.execute(EQUI_JOIN).unwrap().into_table().unwrap();
    assert_eq!(rs.rows, reduced.rows, "capped fallback must match the reduced result");
}

#[test]
fn explain_reports_join_strategy_and_bytes_saved() {
    let mut fed = paper_federation();
    fed.parallel = false; // deterministic trace
    fed.execute("USE continental delta").unwrap();
    let report = fed.execute(&format!("EXPLAIN {EQUI_JOIN}")).unwrap().into_explain().unwrap();
    let join = report.join.as_ref().expect("cross-db EXPLAIN carries a join summary");
    assert_eq!(join.strategy, "semijoin+hash");
    assert!(join.keys_shipped > 0, "{join:?}");
    assert!(join.bytes_saved > 0, "{join:?}");
    let text = report.render();
    assert!(text.contains("join strategy: semijoin+hash"), "{text}");
    assert!(text.contains("bytes saved by semijoin:"), "{text}");
}

#[test]
fn parallel_and_serial_dispatch_agree() {
    let run = |parallel: bool| {
        let mut fed = paper_federation();
        fed.parallel = parallel;
        fed.execute("USE continental delta avis").unwrap();
        fed.execute(
            "SELECT a.flnu, b.fnu, c.code
             FROM continental.flights a, delta.flight b, avis.cars c
             WHERE a.source = b.source AND c.code = 1 ORDER BY a.flnu, b.fnu",
        )
        .unwrap()
        .into_table()
        .unwrap()
    };
    assert_eq!(run(true).rows, run(false).rows);
}

#[test]
fn join_with_empty_partial_result() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    let rs = fed
        .execute(
            "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
             WHERE f.source = 'Nowhere' AND c.rate < f.rate",
        )
        .unwrap()
        .into_table()
        .unwrap();
    assert!(rs.rows.is_empty());
}

/// Two sessions run the same two-site join shape at once, each with its own
/// filter, many times over a 1 ms fabric (so their coordinator phases
/// overlap). Each statement's partials load under names private to that
/// statement, so every answer is its own session's: no `unknown table`
/// error, no rows of the other session's filter, no leftover temporaries.
#[test]
fn concurrent_sessions_keep_their_coordinator_temporaries_apart() {
    let net = netsim::Network::new();
    net.set_latency(netsim::LatencyModel::uniform(std::time::Duration::from_millis(1)));
    let mut fed = mdbs::fixtures::paper_federation_with(net, Default::default());
    fed.execute("USE continental avis").unwrap();
    let sql = |flnu: i64| {
        format!(
            "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
             WHERE f.flnu = {flnu} AND c.rate < f.rate ORDER BY c.code"
        )
    };
    let expected: Vec<Vec<Vec<Value>>> =
        [1, 2].iter().map(|&n| fed.execute(&sql(n)).unwrap().into_table().unwrap().rows).collect();
    assert_ne!(expected[0], expected[1], "the two filters must tell the sessions apart");
    assert!(!expected[0].is_empty());

    let sessions: Vec<mdbs::Session> = (0..2).map(|_| fed.session()).collect();
    std::thread::scope(|scope| {
        for (i, mut session) in sessions.into_iter().enumerate() {
            let (sql, expected) = (sql(i as i64 + 1), expected[i].clone());
            scope.spawn(move || {
                session.execute("USE continental avis").unwrap();
                for round in 0..40 {
                    let rows = session
                        .execute(&sql)
                        .unwrap_or_else(|e| panic!("session {i}, round {round}: {e}"))
                        .into_table()
                        .unwrap()
                        .rows;
                    assert_eq!(rows, expected, "session {i}, round {round}");
                }
            });
        }
    });
    for (svc, db) in [("svc_continental", "continental"), ("svc_avis", "avis")] {
        let engine = fed.engine(svc).unwrap();
        let names = engine.lock().database(db).unwrap().table_names();
        assert!(names.iter().all(|n| !n.starts_with("part_")), "leftovers in {db}: {names:?}");
    }
}
