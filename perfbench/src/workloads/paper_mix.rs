//! `paper_mix_1ms`: the paper's five-database federation (appendix schemas
//! and rows, default profiles) on a 1 ms fabric, driven by two sessions.
//!
//! Reads ship no column that the writes change, so every shipped byte is
//! the same whatever the interleaving of the two sessions. The non-vital
//! fare raises of both sessions hit the same tables (ldbs lock waits); each
//! session's vital updates own their tables, because vital writers sharing
//! a table form a cross-engine hold-and-wait that only the lock-wait
//! timeout breaks.

use super::{kinds, Block};
use crate::rng::Rng;
use crate::spec::{Build, Class, DbExpect, Expect, FinalCheck, Plan, Row, Status, Stmt};
use ldbs::value::Value;

/// Per session: three read kinds, the shared non-vital update and the
/// session's own vital update.
const BLOCKS: [Block; 2] = [
    &[("q1_flights", 2), ("car_let", 2), ("join_2site", 2), ("q2_nonvital", 3), ("vital_seats", 2)],
    &[("q1_flights", 2), ("car_let", 2), ("join_2site", 2), ("q2_nonvital", 3), ("vital_cars", 2)],
];

/// Flights of the appendix fixture: (database, day, source, destination).
const FLIGHTS: [(&str, &str, &str, &str); 7] = [
    ("continental", "mon", "Houston", "San Antonio"),
    ("continental", "mon", "Houston", "Dallas"),
    ("continental", "mon", "Austin", "San Antonio"),
    ("delta", "tue", "Houston", "San Antonio"),
    ("delta", "tue", "Houston", "New Orleans"),
    ("united", "wed", "Houston", "San Antonio"),
    ("united", "wed", "El Paso", "San Antonio"),
];

/// Cars of the appendix fixture: (database, code, type, rate, status).
const CARS: [(&str, i64, &str, Option<f64>, &str); 6] = [
    ("avis", 1, "sedan", Some(39.5), "available"),
    ("avis", 2, "suv", Some(59.0), "rented"),
    ("avis", 3, "compact", Some(25.0), "available"),
    ("national", 7, "sedan", None, "available"),
    ("national", 8, "van", None, "available"),
    ("national", 9, "suv", None, "rented"),
];

/// The Houston–San Antonio fares the Q2 update raises: (service, database,
/// read-back SQL, initial fare).
const FARES: [(&str, &str, &str, f64); 3] = [
    ("svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1", 100.0),
    ("svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 10", 95.0),
    ("svc_united", "united", "SELECT rates FROM flight WHERE fn = 20", 110.0),
];

/// Seat tables the vital seat update writes: (service, database, read-back
/// SQL prefix, initial client of seats 1 and 2).
const SEATS: [(&str, &str, &str, [Option<&str>; 2]); 3] = [
    (
        "svc_continental",
        "continental",
        "SELECT clientname FROM f838 WHERE seatnu =",
        [Some("kim"), None],
    ),
    ("svc_delta", "delta", "SELECT passname FROM f747 WHERE snu =", [None, None]),
    ("svc_united", "united", "SELECT pasna FROM fn727 WHERE sn =", [None, None]),
];

const AIRLINES: [&str; 3] = ["continental", "delta", "united"];
const CITIES: [&str; 3] = ["Houston", "Austin", "El Paso"];
const CAR_STATES: [&str; 2] = ["available", "rented"];

/// What the writes have done so far, as the benchmark computes it.
struct Model {
    /// Sum of every committed fare raise.
    fare_raise: i64,
    /// Last client written to seat 1 and 2 (session 0 only).
    seats: [Option<String>; 2],
    /// Last client written to each car, in `CARS` order (session 1 only).
    cars: [Option<String>; 6],
    /// Per-session counter for generated client names.
    names: [usize; 2],
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn opt(v: &Option<String>) -> Value {
    v.as_ref().map_or(Value::Null, |c| s(c))
}

fn committed(dbs: &[&str], affected: &[u64]) -> Vec<DbExpect> {
    dbs.iter().zip(affected).map(|(db, n)| DbExpect::new(db, Status::Committed, Some(*n))).collect()
}

fn next(rng: &mut Rng, model: &mut Model, session: usize, kind: &'static str) -> Stmt {
    match kind {
        "q1_flights" => {
            let city = *rng.pick(&CITIES);
            let tables = AIRLINES
                .iter()
                .map(|db| {
                    let rows: Vec<Row> = FLIGHTS
                        .iter()
                        .filter(|f| f.0 == *db && f.2 == city)
                        .map(|f| vec![s(f.1), s(f.3)])
                        .collect();
                    (db.to_string(), rows)
                })
                .collect();
            let sql = format!(
                "USE continental delta united \
                 SELECT day, dest% FROM flight% WHERE sour% = '{city}'"
            );
            Stmt { kind, class: Class::Read, sql, expect: Expect::Tables(tables) }
        }
        "car_let" => {
            let st = *rng.pick(&CAR_STATES);
            let tables = ["avis", "national"]
                .iter()
                .map(|db| {
                    let rows: Vec<Row> = CARS
                        .iter()
                        .filter(|c| c.0 == *db && c.4 == st)
                        .map(|c| {
                            // `~rate` is optional: national has no rate column,
                            // so its rows leave it out.
                            let mut row = vec![Value::Int(c.1), s(c.2)];
                            row.extend(c.3.map(Value::Float));
                            row
                        })
                        .collect();
                    (db.to_string(), rows)
                })
                .collect();
            Stmt {
                kind,
                class: Class::Read,
                sql: format!(
                    "USE avis national LET car.type.status BE cars.cartype.carst vehicle.vty.vstat \
                     SELECT %code, type, ~rate FROM car WHERE status = '{st}'"
                ),
                expect: Expect::Tables(tables),
            }
        }
        "join_2site" => {
            let st = *rng.pick(&CAR_STATES);
            let mut rows = Vec::new();
            for c in CARS.iter().filter(|c| c.0 == "avis" && c.4 == st) {
                for v in CARS.iter().filter(|v| v.0 == "national" && v.2 == c.2) {
                    rows.push(vec![Value::Int(c.1), Value::Int(v.1)]);
                }
            }
            Stmt {
                kind,
                class: Class::Read,
                sql: format!(
                    "USE avis national SELECT c.code, v.vcode FROM avis.cars c, national.vehicle v \
                     WHERE c.cartype = v.vty AND c.carst = '{st}'"
                ),
                expect: Expect::Table { rows, ordered: false },
            }
        }
        "q2_nonvital" => {
            let d = rng.range(1, 4);
            model.fare_raise += d;
            Stmt {
                kind,
                class: Class::Write,
                sql: format!(
                    "USE continental delta united UPDATE flight% SET rate% = rate% + {d} \
                     WHERE sour% = 'Houston' AND dest% = 'San Antonio'"
                ),
                expect: Expect::Update { success: true, dbs: committed(&AIRLINES, &[1, 1, 1]) },
            }
        }
        "vital_seats" => {
            let k = rng.range(1, 3);
            model.names[session] += 1;
            let name = format!("p{session}x{:06}", model.names[session]);
            model.seats[k as usize - 1] = Some(name.clone());
            Stmt {
                kind,
                class: Class::Write,
                sql: format!(
                    "USE continental VITAL delta VITAL united VITAL \
                     LET seat.no.cl BE f838.seatnu.clientname f747.snu.passname fn727.sn.pasna \
                     UPDATE seat SET cl = '{name}' WHERE no = {k}"
                ),
                expect: Expect::Update { success: true, dbs: committed(&AIRLINES, &[1, 1, 1]) },
            }
        }
        "vital_cars" => {
            let st = *rng.pick(&CAR_STATES);
            model.names[session] += 1;
            let name = format!("c{session}x{:06}", model.names[session]);
            let mut affected = [0u64; 2];
            for (i, c) in CARS.iter().enumerate() {
                if c.4 == st {
                    model.cars[i] = Some(name.clone());
                    affected[usize::from(c.0 == "national")] += 1;
                }
            }
            Stmt {
                kind,
                class: Class::Write,
                sql: format!(
                    "USE avis VITAL national VITAL LET car.status BE cars.carst vehicle.vstat \
                     UPDATE car SET client = '{name}' WHERE status = '{st}'"
                ),
                expect: Expect::Update {
                    success: true,
                    dbs: committed(&["avis", "national"], &affected),
                },
            }
        }
        other => unreachable!("unknown paper_mix kind {other}"),
    }
}

/// Generates warm-up and timed lists for both sessions.
pub fn plan(seed: u64, per_session: usize) -> Plan {
    let mut model =
        Model { fare_raise: 0, seats: [None, None], cars: Default::default(), names: [0; 2] };
    let mut lists = |stream: u64, n: usize| -> Vec<Vec<Stmt>> {
        (0..2)
            .map(|session| {
                let mut rng = Rng::new(seed, stream + session as u64);
                kinds(&mut rng, BLOCKS[session], n)
                    .into_iter()
                    .map(|k| next(&mut rng, &mut model, session, k))
                    .collect()
            })
            .collect()
    };
    let warmup = lists(10, 1);
    let timed = lists(20, per_session);

    let mut finals = Vec::new();
    for (svc, db, sql, fare) in FARES {
        finals.push(FinalCheck {
            service: svc.into(),
            db: db.into(),
            sql: sql.into(),
            rows: vec![vec![Value::Float(fare + model.fare_raise as f64)]],
        });
    }
    for (svc, db, sql, initial) in SEATS {
        for (k, (written, initial)) in model.seats.iter().zip(initial).enumerate() {
            let client = match (written, initial) {
                (Some(c), _) => s(c),
                (None, Some(c)) => s(c),
                (None, None) => Value::Null,
            };
            finals.push(FinalCheck {
                service: svc.into(),
                db: db.into(),
                sql: format!("{sql} {}", k + 1),
                rows: vec![vec![client]],
            });
        }
    }
    for (i, c) in CARS.iter().enumerate() {
        let (svc, sql) = if c.0 == "avis" {
            ("svc_avis", format!("SELECT client FROM cars WHERE code = {}", c.1))
        } else {
            ("svc_national", format!("SELECT client FROM vehicle WHERE vcode = {}", c.1))
        };
        finals.push(FinalCheck {
            service: svc.into(),
            db: c.0.into(),
            sql,
            rows: vec![vec![opt(&model.cars[i])]],
        });
    }
    Plan { build: Build::Paper, warmup, timed, finals }
}
