//! `analytic_joins_0ms`: three generated sites holding thousands of rows on
//! a 0 ms fabric, one session. `db0.orders` and `db1.cust` are `ANALYZE`d,
//! so joins between them take the costed planner; `db2.items` is not, so
//! joins with it take the heuristic semi-join path. Point updates change
//! values but never a table's size, and stay far below the freshness
//! threshold of `planner::is_fresh`, so every read keeps its plan.

use super::{kinds, Block};
use crate::rng::Rng;
use crate::spec::{Build, Class, DbExpect, Expect, FinalCheck, Plan, Row, SiteLoad, Status, Stmt};
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use std::collections::BTreeMap;

const ORDERS: usize = 3000;
const CUSTS: usize = 1000;
const ITEMS: usize = 2000;
const REGIONS: i64 = 20;
const GROUPS: i64 = 10;
const CATS: i64 = 50;

/// One statement in ten is a write. The read p50 falls in the middle of
/// `costed_join` and the p95 inside `pushed_groupby`, away from the
/// boundaries between kinds.
const BLOCK: Block = &[
    ("semijoin", 2),
    ("topk_product", 2),
    ("costed_join", 10),
    ("pushed_groupby", 4),
    ("point_update", 2),
];

struct Order {
    oid: i64,
    cust: i64,
    item: i64,
    g: i64,
    amt: i64,
}

struct Cust {
    cid: i64,
    region: i64,
    score: i64,
}

struct Item {
    iid: i64,
    cat: i64,
    price: i64,
}

/// The generated data, updated as the statement list is generated.
struct Model {
    orders: Vec<Order>,
    custs: Vec<Cust>,
    items: Vec<Item>,
}

fn cust_name(cid: i64) -> String {
    format!("c{cid:05}")
}

fn item_label(iid: i64) -> String {
    format!("i{iid:05}")
}

/// `n` values, each of `0..buckets` equally often, in seeded order: every
/// customer, region, group and category is equally large, so the work of
/// a statement kind does not depend on which key the seed picks.
fn balanced(rng: &mut Rng, n: usize, buckets: i64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).map(|i| i % buckets).collect();
    rng.shuffle(&mut v);
    v
}

fn generate(seed: u64) -> Model {
    let mut rng = Rng::new(seed, 1);
    let cust = balanced(&mut rng, ORDERS, CUSTS as i64);
    let group = balanced(&mut rng, ORDERS, GROUPS);
    let region = balanced(&mut rng, CUSTS, REGIONS);
    let cat = balanced(&mut rng, ITEMS, CATS);
    let orders = (0..ORDERS)
        .map(|i| Order {
            oid: i as i64,
            cust: cust[i],
            item: rng.below(ITEMS as u64) as i64,
            g: group[i],
            amt: rng.range(1, 1000),
        })
        .collect();
    let custs = (0..CUSTS)
        .map(|i| Cust { cid: i as i64, region: region[i], score: rng.range(0, 1000) })
        .collect();
    let items =
        (0..ITEMS).map(|i| Item { iid: i as i64, cat: cat[i], price: rng.range(1, 500) }).collect();
    Model { orders, custs, items }
}

fn sites(m: &Model) -> Vec<SiteLoad> {
    let site = |i: usize, profile: DbmsProfile, load: Vec<String>| SiteLoad {
        service: format!("svc{i}"),
        site: format!("site{i}"),
        db: format!("db{i}"),
        profile,
        load,
        fail_writes: Vec::new(),
    };
    let mut orders = vec![
        "CREATE TABLE orders (oid INT, cust INT, item INT, g INT, amt INT)".to_string(),
        "CREATE INDEX orders_oid ON orders (oid) USING HASH".to_string(),
        "CREATE INDEX orders_cust ON orders (cust) USING HASH".to_string(),
    ];
    orders.extend(m.orders.iter().map(|o| {
        format!("INSERT INTO orders VALUES ({}, {}, {}, {}, {})", o.oid, o.cust, o.item, o.g, o.amt)
    }));
    let mut custs = vec![
        "CREATE TABLE cust (cid INT, region INT, score INT, name CHAR(8))".to_string(),
        "CREATE INDEX cust_cid ON cust (cid) USING HASH".to_string(),
    ];
    custs.extend(m.custs.iter().map(|c| {
        format!(
            "INSERT INTO cust VALUES ({}, {}, {}, '{}')",
            c.cid,
            c.region,
            c.score,
            cust_name(c.cid)
        )
    }));
    let mut items = vec![
        "CREATE TABLE items (iid INT, cat INT, price INT, label CHAR(8))".to_string(),
        "CREATE INDEX items_iid ON items (iid) USING HASH".to_string(),
    ];
    items.extend(m.items.iter().map(|i| {
        format!(
            "INSERT INTO items VALUES ({}, {}, {}, '{}')",
            i.iid,
            i.cat,
            i.price,
            item_label(i.iid)
        )
    }));
    vec![
        site(0, DbmsProfile::oracle_like(), orders),
        site(1, DbmsProfile::ingres_like(), custs),
        site(2, DbmsProfile::oracle_like(), items),
    ]
}

const USE_ALL: &str = "USE db0 db1 db2";

fn next(rng: &mut Rng, m: &mut Model, kind: &'static str) -> Stmt {
    match kind {
        "semijoin" => {
            let c = rng.below(CUSTS as u64) as i64;
            let rows: Vec<Row> = m
                .orders
                .iter()
                .filter(|o| o.cust == c)
                .map(|o| {
                    let label = item_label(m.items[o.item as usize].iid);
                    vec![Value::Int(o.oid), Value::Int(o.amt), Value::Str(label)]
                })
                .collect();
            Stmt {
                kind,
                class: Class::Read,
                sql: format!(
                    "{USE_ALL} SELECT o.oid, o.amt, i.label FROM db0.orders o, db2.items i \
                     WHERE o.item = i.iid AND o.cust = {c}"
                ),
                expect: Expect::Table { rows, ordered: false },
            }
        }
        "costed_join" => {
            let r = rng.below(REGIONS as u64) as i64;
            let mut rows = Vec::new();
            for o in &m.orders {
                let c = &m.custs[o.cust as usize];
                if c.region == r {
                    rows.push(vec![
                        Value::Str(cust_name(c.cid)),
                        Value::Int(o.oid),
                        Value::Int(o.amt),
                    ]);
                }
            }
            Stmt {
                kind,
                class: Class::Read,
                sql: format!(
                    "{USE_ALL} SELECT c.name, o.oid, o.amt FROM db1.cust c, db0.orders o \
                     WHERE c.cid = o.cust AND c.region = {r}"
                ),
                expect: Expect::Table { rows, ordered: false },
            }
        }
        "pushed_groupby" => {
            let r = rng.range(8, 12);
            // g -> (count, sum(amt), min(score))
            let mut groups: BTreeMap<i64, (i64, i64, i64)> = BTreeMap::new();
            for o in &m.orders {
                let c = &m.custs[o.cust as usize];
                if c.region < r {
                    let e = groups.entry(o.g).or_insert((0, 0, i64::MAX));
                    e.0 += 1;
                    e.1 += o.amt;
                    e.2 = e.2.min(c.score);
                }
            }
            let rows = groups
                .into_iter()
                .map(|(g, (n, sum, min))| {
                    vec![Value::Int(g), Value::Int(n), Value::Int(sum), Value::Int(min)]
                })
                .collect();
            Stmt {
                kind,
                class: Class::Read,
                sql: format!(
                    "{USE_ALL} SELECT o.g, COUNT(*), SUM(o.amt), MIN(c.score) \
                     FROM db0.orders o, db1.cust c WHERE o.cust = c.cid AND c.region < {r} \
                     GROUP BY o.g"
                ),
                expect: Expect::Table { rows, ordered: false },
            }
        }
        "topk_product" => {
            let g = rng.below(GROUPS as u64) as i64;
            let cat = rng.below(CATS as u64) as i64;
            let mut os: Vec<&Order> = m.orders.iter().filter(|o| o.g == g).collect();
            os.sort_by_key(|o| (std::cmp::Reverse(o.amt), o.oid));
            let mut is: Vec<&Item> = m.items.iter().filter(|i| i.cat == cat).collect();
            is.sort_by_key(|i| (i.price, i.iid));
            let rows = os
                .iter()
                .flat_map(|o| is.iter().map(move |i| (o, i)))
                .take(10)
                .map(|(o, i)| {
                    vec![
                        Value::Int(o.oid),
                        Value::Int(o.amt),
                        Value::Int(i.iid),
                        Value::Int(i.price),
                    ]
                })
                .collect();
            Stmt {
                kind,
                class: Class::Read,
                sql: format!(
                    "{USE_ALL} SELECT o.oid, o.amt, i.iid, i.price FROM db0.orders o, db2.items i \
                     WHERE o.g = {g} AND i.cat = {cat} \
                     ORDER BY o.amt DESC, o.oid, i.price, i.iid LIMIT 10"
                ),
                expect: Expect::Table { rows, ordered: true },
            }
        }
        "point_update" => {
            let d = rng.range(1, 10) * if rng.below(2) == 0 { 1 } else { -1 };
            let (db, sql) = match rng.below(3) {
                0 => {
                    let o = &mut m.orders[rng.below(ORDERS as u64) as usize];
                    o.amt += d;
                    (
                        "db0",
                        format!("USE db0 UPDATE orders SET amt = amt + {d} WHERE oid = {}", o.oid),
                    )
                }
                1 => {
                    let c = &mut m.custs[rng.below(CUSTS as u64) as usize];
                    c.score += d;
                    (
                        "db1",
                        format!(
                            "USE db1 UPDATE cust SET score = score + {d} WHERE cid = {}",
                            c.cid
                        ),
                    )
                }
                _ => {
                    let i = &mut m.items[rng.below(ITEMS as u64) as usize];
                    i.price += d;
                    (
                        "db2",
                        format!(
                            "USE db2 UPDATE items SET price = price + {d} WHERE iid = {}",
                            i.iid
                        ),
                    )
                }
            };
            Stmt {
                kind,
                class: Class::Write,
                sql,
                expect: Expect::Update {
                    success: true,
                    dbs: vec![DbExpect::new(db, Status::Committed, Some(1))],
                },
            }
        }
        other => unreachable!("unknown analytic_joins kind {other}"),
    }
}

/// Generates the data, the warm-up block and the timed list (one session).
pub fn plan(seed: u64, statements: usize) -> Plan {
    let mut m = generate(seed);
    let build = Build::Sites {
        sites: sites(&m),
        analyze: vec!["ANALYZE db0.orders".into(), "ANALYZE db1.cust".into()],
    };
    let mut list = |stream: u64, n: usize| -> Vec<Stmt> {
        let mut rng = Rng::new(seed, stream);
        kinds(&mut rng, BLOCK, n).into_iter().map(|k| next(&mut rng, &mut m, k)).collect()
    };
    let warmup = vec![list(10, 1)];
    let timed = vec![list(20, statements)];
    let finals = vec![
        FinalCheck {
            service: "svc0".into(),
            db: "db0".into(),
            sql: "SELECT oid, amt FROM orders".into(),
            rows: m.orders.iter().map(|o| vec![Value::Int(o.oid), Value::Int(o.amt)]).collect(),
        },
        FinalCheck {
            service: "svc1".into(),
            db: "db1".into(),
            sql: "SELECT cid, score FROM cust".into(),
            rows: m.custs.iter().map(|c| vec![Value::Int(c.cid), Value::Int(c.score)]).collect(),
        },
        FinalCheck {
            service: "svc2".into(),
            db: "db2".into(),
            sql: "SELECT iid, price FROM items".into(),
            rows: m.items.iter().map(|i| vec![Value::Int(i.iid), Value::Int(i.price)]).collect(),
        },
    ];
    Plan { build, warmup, timed, finals }
}
