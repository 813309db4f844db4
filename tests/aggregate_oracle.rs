//! Property test: **aggregate/top-k pushdown is an optimization, not a
//! semantic**.
//!
//! For any data distribution — empty groups, all-NULL aggregated columns,
//! sites with zero rows, single-site degenerates — a query executed with
//! pushdown on must return exactly the rows of (a) the same query with
//! pushdown off (the classic ship-everything coordinator plan) and (b) a
//! plain-Rust reference evaluator written independently of both.
//!
//! Merged pushdown output is emitted in sorted group-key order while the
//! coordinator plan preserves first-seen order, so unordered queries are
//! compared as sorted multisets; ordered queries order by enough columns to
//! make the prefix unique per row value, so they compare as sequences.
//!
//! Aggregated columns carry only integers (or NULL): partial SUMs merge by
//! scaled multiplication while the reference adds sequentially, and only
//! integer arithmetic makes those bit-identical.

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Scenario {
    /// Rows of `avis.t1 (k, g, v)` — join key, group key, aggregated value.
    t1: Vec<(i64, i64, Option<i64>)>,
    /// Rows of `national.t2 (k, w)` — join key, aggregated value.
    t2: Vec<(i64, Option<i64>)>,
    /// Index into the query shapes exercised by `run`/`reference`.
    query: usize,
}

const N_QUERIES: usize = 6;

fn scenario() -> impl Strategy<Value = Scenario> {
    let opt = || prop::option::of(0i64..7);
    (
        prop::collection::vec((0i64..5, 0i64..3, opt()), 0..12),
        prop::collection::vec((0i64..5, opt()), 0..12),
        0usize..N_QUERIES,
    )
        .prop_map(|(t1, t2, query)| Scenario { t1, t2, query })
}

/// The query shapes: 0–2 are decomposable aggregates (plain, grand total,
/// ordered + limited), 3 is a pure-product top-k, 4 is a single-site
/// degenerate that never decomposes (pushdown must be a no-op), 5 is a
/// pure-product GROUP BY (the site without group keys ships a grand total).
fn query_sql(q: usize) -> &'static str {
    match q {
        0 => {
            "SELECT t.g, COUNT(*), SUM(t.v), MIN(u.w), AVG(u.w) \
             FROM avis.t1 t, national.t2 u WHERE t.k = u.k GROUP BY t.g"
        }
        1 => {
            "SELECT COUNT(*), COUNT(u.w), SUM(t.v), MAX(u.w) \
             FROM avis.t1 t, national.t2 u WHERE t.k = u.k"
        }
        2 => {
            "SELECT t.g, COUNT(*), SUM(u.w) FROM avis.t1 t, national.t2 u \
             WHERE t.k = u.k GROUP BY t.g ORDER BY t.g DESC LIMIT 2"
        }
        3 => {
            "SELECT t.v, u.w FROM avis.t1 t, national.t2 u \
             ORDER BY t.v DESC, u.w LIMIT 4"
        }
        4 => "SELECT t.g, COUNT(*), SUM(t.v) FROM avis.t1 t GROUP BY t.g",
        5 => "SELECT t.g, COUNT(*), SUM(u.w) FROM avis.t1 t, national.t2 u GROUP BY t.g",
        _ => unreachable!(),
    }
}

/// Whether the query's ORDER BY pins a total output order (compare as a
/// sequence); otherwise compare as a sorted multiset.
fn ordered(q: usize) -> bool {
    matches!(q, 2 | 3)
}

fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

fn normalise(mut rows: Vec<Vec<Value>>, q: usize) -> Vec<Vec<Value>> {
    if !ordered(q) {
        rows.sort_by(|a, b| cmp_rows(a, b));
    }
    rows
}

/// Runs the scenario's query through a fresh federation and returns its rows.
fn run(s: &Scenario, pushdown: bool) -> Vec<Vec<Value>> {
    let mut fed = paper_federation();
    fed.agg_pushdown = pushdown;
    fed.execute("USE avis national").unwrap();
    fed.execute("CREATE TABLE avis.t1 (k INT, g INT, v INT)").unwrap();
    fed.execute("CREATE TABLE national.t2 (k INT, w INT)").unwrap();
    let lit = |v: &Option<i64>| v.map_or("NULL".to_string(), |x| x.to_string());
    {
        let engine = fed.engine("svc_avis").unwrap();
        let mut engine = engine.lock();
        for (k, g, v) in &s.t1 {
            engine
                .execute("avis", &format!("INSERT INTO t1 VALUES ({k}, {g}, {})", lit(v)))
                .unwrap();
        }
    }
    {
        let engine = fed.engine("svc_national").unwrap();
        let mut engine = engine.lock();
        for (k, w) in &s.t2 {
            engine
                .execute("national", &format!("INSERT INTO t2 VALUES ({k}, {})", lit(w)))
                .unwrap();
        }
    }
    let outcome = fed.execute(query_sql(s.query)).unwrap();
    let rows = match outcome {
        mdbs::MsqlOutcome::Table(rs) => rs.rows,
        mdbs::MsqlOutcome::Multitable(mt) => {
            // The single-site degenerate returns a one-table multitable.
            assert_eq!(mt.tables.len(), 1, "degenerate query should touch one database");
            mt.tables.into_iter().next().unwrap().result.rows
        }
        other => panic!("unexpected outcome {other:?}"),
    };
    normalise(rows, s.query)
}

/// Aggregate accumulator for the reference evaluator.
#[derive(Default, Clone)]
struct Acc {
    count: i64,
    sum_v: Option<i64>,
    cnt_w: i64,
    sum_w: Option<i64>,
    min_w: Option<i64>,
    max_w: Option<i64>,
}

impl Acc {
    fn add(&mut self, v: Option<i64>, w: Option<i64>) {
        self.count += 1;
        if let Some(v) = v {
            self.sum_v = Some(self.sum_v.unwrap_or(0) + v);
        }
        if let Some(w) = w {
            self.cnt_w += 1;
            self.sum_w = Some(self.sum_w.unwrap_or(0) + w);
            self.min_w = Some(self.min_w.map_or(w, |m| m.min(w)));
            self.max_w = Some(self.max_w.map_or(w, |m| m.max(w)));
        }
    }

    fn avg_w(&self) -> Value {
        match self.sum_w {
            Some(s) if self.cnt_w > 0 => Value::Float(s as f64 / self.cnt_w as f64),
            _ => Value::Null,
        }
    }
}

fn int_or_null(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// Plain-Rust reference evaluation of the scenario's query.
fn reference(s: &Scenario) -> Vec<Vec<Value>> {
    let rows = match s.query {
        4 => {
            // Single-site: GROUP t1 BY g.
            let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
            for (_, g, v) in &s.t1 {
                groups.entry(*g).or_default().add(*v, None);
            }
            groups
                .into_iter()
                .map(|(g, a)| vec![Value::Int(g), Value::Int(a.count), int_or_null(a.sum_v)])
                .collect()
        }
        3 => {
            // Pure-product top-k over (v, w).
            let mut rows: Vec<Vec<Value>> =
                s.t1.iter()
                    .flat_map(|(_, _, v)| {
                        s.t2.iter().map(move |(_, w)| vec![int_or_null(*v), int_or_null(*w)])
                    })
                    .collect();
            rows.sort_by(|a, b| b[0].total_cmp(&a[0]).then(a[1].total_cmp(&b[1])));
            rows.truncate(4);
            rows
        }
        _ => {
            // Equi-join on k (shape 5: the full product), then aggregate.
            let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
            let mut total = Acc::default();
            for (k1, g, v) in &s.t1 {
                for (k2, w) in &s.t2 {
                    if k1 == k2 || s.query == 5 {
                        groups.entry(*g).or_default().add(*v, *w);
                        total.add(*v, *w);
                    }
                }
            }
            match s.query {
                0 => groups
                    .into_iter()
                    .map(|(g, a)| {
                        vec![
                            Value::Int(g),
                            Value::Int(a.count),
                            int_or_null(a.sum_v),
                            int_or_null(a.min_w),
                            a.avg_w(),
                        ]
                    })
                    .collect(),
                1 => vec![vec![
                    Value::Int(total.count),
                    Value::Int(total.cnt_w),
                    int_or_null(total.sum_v),
                    int_or_null(total.max_w),
                ]],
                2 => {
                    let mut rows: Vec<Vec<Value>> = groups
                        .into_iter()
                        .rev() // ORDER BY t.g DESC
                        .map(|(g, a)| {
                            vec![Value::Int(g), Value::Int(a.count), int_or_null(a.sum_w)]
                        })
                        .collect();
                    rows.truncate(2);
                    rows
                }
                5 => groups
                    .into_iter()
                    .map(|(g, a)| vec![Value::Int(g), Value::Int(a.count), int_or_null(a.sum_w)])
                    .collect(),
                _ => unreachable!(),
            }
        }
    };
    normalise(rows, s.query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pushed_and_unpushed_plans_match_the_reference(s in scenario()) {
        let expected = reference(&s);
        let pushed = run(&s, true);
        let unpushed = run(&s, false);
        prop_assert_eq!(
            &pushed,
            &expected,
            "pushdown-on diverged from the reference (scenario {:?})",
            s
        );
        prop_assert_eq!(
            &unpushed,
            &expected,
            "pushdown-off diverged from the reference (scenario {:?})",
            s
        );
    }
}

/// The degenerate shapes the strategy may under-sample, pinned exactly once.
/// The last pair pins a pure product over an empty site: its pushed grand
/// total ships one zero-count row, which once merged as if it were a row
/// (`[[0, 0], [1, 0]]` instead of no rows).
#[test]
fn empty_sites_and_all_null_columns_agree() {
    for query in 0..N_QUERIES {
        for (t1, t2) in [
            (vec![], vec![]),                                    // both sites empty
            (vec![(1, 0, None), (1, 1, None)], vec![(1, None)]), // all-NULL aggregates
            (vec![(1, 0, Some(3))], vec![]),                     // one empty site
            (vec![(1, 0, Some(3)), (1, 1, Some(4))], vec![]),    // two groups, empty site
        ] {
            let s = Scenario { t1, t2, query };
            let expected = reference(&s);
            assert_eq!(run(&s, true), expected, "pushdown-on, scenario {s:?}");
            assert_eq!(run(&s, false), expected, "pushdown-off, scenario {s:?}");
        }
    }
}
