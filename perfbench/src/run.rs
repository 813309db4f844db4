//! Set-up, the timed closed loop and the end-to-end figures.

use crate::spec::{check, diff_rows, Class, Plan, Stmt};
use crate::trace::{stmt_id, SpanLog};
use crate::workloads::{build, Workload};
use mdbs::{Federation, Session};
use std::collections::BTreeMap;
use std::time::Instant;

/// A built, warmed federation with one session per closed loop. Sessions
/// are declared first so they drop before the federation's LAMs stop.
pub struct Ready {
    pub sessions: Vec<Session>,
    pub fed: Federation,
}

fn failure(phase: &str, st: &Stmt, err: &str) -> String {
    format!("{phase} `{}` statement failed: {err}\n  sql: {}", st.kind, st.sql)
}

/// Set-up as `setup_s` times it: federation build, data load, `IMPORT`,
/// `ANALYZE` and the warm-up pass. Warm-up answers are checked too; the
/// failures come back with the federation.
pub fn set_up(w: &Workload, plan: &Plan) -> Result<(Ready, f64, Vec<String>), String> {
    let t = Instant::now();
    let fed = build(plan, w.link_ms)?;
    let mut sessions: Vec<Session> = (0..w.sessions).map(|_| fed.session()).collect();
    let mut failures = Vec::new();
    for (s, list) in plan.warmup.iter().enumerate() {
        for st in list {
            let got = sessions[s].execute(&st.sql);
            if let Err(e) = check(&st.expect, &got) {
                failures.push(failure("warm-up", st, &e));
            }
        }
    }
    Ok((Ready { sessions, fed }, t.elapsed().as_secs_f64(), failures))
}

/// One statement's latency.
pub struct Sample {
    pub kind: &'static str,
    pub class: Class,
    pub ns: u64,
    /// Whether the outcome matched the expected answer.
    pub ok: bool,
}

/// What one timed pass over the plan's statement lists measured.
pub struct Pass {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub failed: usize,
    pub first_failure: Option<String>,
    /// Deltas of the requested counters over the pass.
    pub counters: BTreeMap<String, u64>,
    /// Per session, the statement spans (traced passes only).
    pub logs: Vec<SpanLog>,
}

impl Pass {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn throughput(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }
}

struct SessionOut {
    samples: Vec<Sample>,
    failed: usize,
    first_failure: Option<String>,
    log: Option<SpanLog>,
}

/// One closed loop: the next statement goes out when the previous answer
/// is back and checked.
fn drive(
    sess: &mut Session,
    list: &[Stmt],
    session: usize,
    mut log: Option<SpanLog>,
) -> SessionOut {
    let mut out = SessionOut {
        samples: Vec::with_capacity(list.len()),
        failed: 0,
        first_failure: None,
        log: None,
    };
    for (j, st) in list.iter().enumerate() {
        let t0 = Instant::now();
        let got = sess.execute(&st.sql);
        let t1 = Instant::now();
        if let Some(log) = log.as_mut() {
            log.record("statement", 0, stmt_id(session, j), t0, t1);
        }
        let checked = check(&st.expect, &got);
        let ns = (t1 - t0).as_nanos() as u64;
        out.samples.push(Sample { kind: st.kind, class: st.class, ns, ok: checked.is_ok() });
        if let Err(e) = checked {
            out.failed += 1;
            if out.first_failure.is_none() {
                out.first_failure = Some(failure("timed", st, &e));
            }
        }
    }
    out.log = log;
    out
}

/// Runs the first `take` statements of every session's timed list
/// concurrently, reading `counters` only before and after. With `base`, each
/// statement is also recorded as a span.
pub fn timed_pass(
    ready: &mut Ready,
    plan: &Plan,
    take: usize,
    counters: &[&str],
    base: Option<Instant>,
) -> Pass {
    let reg = ready.fed.metrics_registry().clone();
    let before: Vec<u64> = counters.iter().map(|c| reg.counter(c)).collect();
    let start = Instant::now();
    let outs: Vec<SessionOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .sessions
            .iter_mut()
            .zip(&plan.timed)
            .enumerate()
            .map(|(i, (sess, list))| {
                let log = base.map(|b| SpanLog::new(b, i));
                scope.spawn(move || drive(sess, &list[..take.min(list.len())], i, log))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let counters =
        counters.iter().zip(before).map(|(c, b)| (c.to_string(), reg.counter(c) - b)).collect();
    let mut pass = Pass {
        samples: Vec::new(),
        wall_s,
        failed: 0,
        first_failure: None,
        counters,
        logs: Vec::new(),
    };
    for o in outs {
        pass.samples.extend(o.samples);
        pass.failed += o.failed;
        pass.first_failure = pass.first_failure.or(o.first_failure);
        pass.logs.extend(o.log);
    }
    pass
}

/// Reads back the rows the plan expects at each site after the run.
pub fn final_checks(fed: &Federation, plan: &Plan) -> Result<(), String> {
    for f in &plan.finals {
        let engine = fed.engine(&f.service).ok_or_else(|| format!("no service {}", f.service))?;
        let rs = engine
            .lock()
            .execute(&f.db, &f.sql)
            .and_then(|o| o.into_result_set())
            .map_err(|e| format!("final read `{}`: {e}", f.sql))?;
        diff_rows(&format!("final state `{}` on {}", f.sql, f.db), &rs.rows, &f.rows, false)?;
    }
    Ok(())
}

/// Nearest-rank quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 for none).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Smallest class size for which p99 is reported.
const P99_MIN_SAMPLES: usize = 1000;
/// Smallest class size for which p95 is meaningful.
const P95_MIN_SAMPLES: usize = 200;
/// A reported quantile must sit at least this far (as a share of the
/// class) from any boundary between statement kinds whose latencies do not
/// overlap; closer, the quantile flips between the two kinds from run to run.
const BOUNDARY_MARGIN: f64 = 0.04;

/// Latency summary of one class.
pub struct ClassStats {
    pub class: Class,
    pub sorted: Vec<u64>,
    /// Per kind: sample count and sorted latencies.
    pub kinds: BTreeMap<&'static str, Vec<u64>>,
}

impl ClassStats {
    pub fn of(samples: &[Sample], class: Class) -> Self {
        let mut kinds: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in samples.iter().filter(|s| s.class == class) {
            kinds.entry(s.kind).or_default().push(s.ns);
        }
        let mut sorted: Vec<u64> = kinds.values().flatten().copied().collect();
        sorted.sort_unstable();
        for v in kinds.values_mut() {
            v.sort_unstable();
        }
        ClassStats { class, sorted, kinds }
    }

    pub fn ms(&self, q: f64) -> f64 {
        quantile(&self.sorted, q) as f64 / 1e6
    }

    /// The quantiles this class reports.
    pub fn reported(&self) -> Vec<f64> {
        let mut qs = vec![0.5, 0.95];
        if self.sorted.len() >= P99_MIN_SAMPLES {
            qs.push(0.99);
        }
        qs
    }

    /// Checks the class has enough samples for a p95 and that no reported
    /// quantile's rank falls on a boundary between two statement kinds
    /// whose latency ranges are apart (p90 of the faster below p10 of the
    /// slower).
    pub fn check(&self) -> Result<(), String> {
        let n = self.sorted.len();
        if n < P95_MIN_SAMPLES {
            return Err(format!("{:?}: {n} samples, a p95 needs {P95_MIN_SAMPLES}", self.class));
        }
        let mut kinds: Vec<(&str, &Vec<u64>)> = self.kinds.iter().map(|(k, v)| (*k, v)).collect();
        kinds.sort_by_key(|(_, v)| quantile(v, 0.5));
        let mut cum = 0.0;
        for pair in kinds.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            cum += lo.1.len() as f64 / n as f64;
            if quantile(lo.1, 0.9) >= quantile(hi.1, 0.1) {
                continue;
            }
            for q in self.reported() {
                if (q - cum).abs() < BOUNDARY_MARGIN {
                    return Err(format!(
                        "{:?} p{} falls at {cum:.3}, the boundary between `{}` and `{}`",
                        self.class,
                        q * 100.0,
                        lo.0,
                        hi.0
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
