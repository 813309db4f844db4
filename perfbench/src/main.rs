//! The federation benchmark: one command runs a named workload against the
//! public API, checks every answer and prints its metrics by name and unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! statement list untraced and traced, probes each layer from outside, and
//! prints the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Result files and the
//! span dump go to `perfbench/out/`. See `perfbench/README.md`.

mod rng;
mod run;
mod spec;
mod trace;
mod workloads;

use run::{final_checks, median, peak_rss_mb, set_up, timed_pass, ClassStats, Pass, Ready};
use spec::{Class, Plan};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::{per_statement, probe_pass, SpanLog, IN_PROCESS};
use workloads::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Statements probed layer by layer in a traced run (at most).
const PROBES: usize = 400;
/// Statements per session in `--smoke` mode.
const SMOKE_STATEMENTS: usize = 40;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <1..600> --trace <0|1> [--smoke]",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(workloads::by_name(&val()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(val().parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(val().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        usage();
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed: seed.unwrap_or_else(|| usage()),
        seconds,
        trace: trace.unwrap_or(false),
        smoke,
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The git revision of the source tree, when it is a git checkout.
fn git_revision() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("unknown")
        .to_string()
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Everything a run reports besides its metrics.
struct Report {
    seed: u64,
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra figures for the result file (sample counts, p99, per kind).
    detail: Vec<Metric>,
}

impl Report {
    fn fail(&mut self, why: String) {
        println!("CHECK FAILED (seed {}): {why}", self.seed);
        self.correct = false;
    }
}

/// Latency figures of one class: reported quantiles in the metrics, counts,
/// p99 and per-kind medians in the detail.
fn class_figures(report: &mut Report, pass: &Pass, class: Class) {
    let cs = ClassStats::of(&pass.samples, class);
    let tag = if class == Class::Read { "read" } else { "write" };
    report.metrics.push(metric(&format!("{tag}_p50_ms"), cs.ms(0.5), "ms"));
    report.metrics.push(metric(&format!("{tag}_p95_ms"), cs.ms(0.95), "ms"));
    report.detail.push(metric(&format!("{tag}_samples"), cs.sorted.len() as f64, "count"));
    if cs.reported().contains(&0.99) {
        report.detail.push(metric(&format!("{tag}_p99_ms"), cs.ms(0.99), "ms"));
    }
    for (kind, v) in &cs.kinds {
        let failed = pass.samples.iter().filter(|s| s.kind == *kind && !s.ok).count();
        report.detail.push(metric(&format!("kind.{kind}.samples"), v.len() as f64, "count"));
        report.detail.push(metric(&format!("kind.{kind}.failed"), failed as f64, "count"));
        report.detail.push(metric(
            &format!("kind.{kind}.p50_ms"),
            run::quantile(v, 0.5) as f64 / 1e6,
            "ms",
        ));
    }
}

fn check_pass(report: &mut Report, pass: &Pass, ready: &Ready, plan: &Plan, smoke: bool) {
    report.attempted = pass.attempted();
    report.failed = pass.failed;
    if let Some(f) = &pass.first_failure {
        report.fail(format!(
            "{} of {} statements wrong; first: {f}",
            pass.failed,
            pass.attempted()
        ));
    }
    if let Err(e) = final_checks(&ready.fed, plan) {
        report.fail(e);
    }
    for class in [Class::Read, Class::Write] {
        let cs = ClassStats::of(&pass.samples, class);
        if let Err(e) = cs.check() {
            if !smoke {
                report.fail(e);
            }
        }
    }
}

/// Builds and warms `SETUPS` times; keeps the last federation.
fn setups(
    w: &Workload,
    plan: &Plan,
    times: usize,
    report: &mut Report,
) -> Result<(Ready, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut ready = None;
    for _ in 0..times {
        drop(ready.take());
        let (r, s, failures) = set_up(w, plan)?;
        if let Some(f) = failures.first() {
            report.fail(format!("{} warm-up statements wrong; first: {f}", failures.len()));
        }
        secs.push(s);
        ready = Some(r);
    }
    Ok((ready.expect("at least one set-up"), secs))
}

fn untraced(args: &Args, plan: &Plan, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    let (mut ready, mut secs) = setups(w, plan, if args.smoke { 1 } else { SETUPS }, report)?;
    let pass = timed_pass(&mut ready, plan, usize::MAX, &["net.bytes", "net.messages"], None);
    check_pass(report, &pass, &ready, plan, args.smoke);
    let n = pass.attempted() as f64;
    report.metrics.push(metric("throughput_stmt_s", pass.throughput(), "1/s"));
    class_figures(report, &pass, Class::Read);
    class_figures(report, &pass, Class::Write);
    report.metrics.push(metric("success_frac", (n - pass.failed as f64) / n, "frac"));
    report.metrics.push(metric("wire_bytes_per_stmt", pass.counters["net.bytes"] as f64 / n, "B"));
    report.metrics.push(metric("msgs_per_stmt", pass.counters["net.messages"] as f64 / n, "count"));
    report.metrics.push(metric("setup_s", median(&mut secs), "s"));
    drop(ready);
    report.metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    report.detail.push(metric("timed_wall_s", pass.wall_s, "s"));
    report.detail.push(metric("net.bytes", pass.counters["net.bytes"] as f64, "B"));
    report.detail.push(metric("net.messages", pass.counters["net.messages"] as f64, "count"));
    Ok(())
}

/// Sum of every series in `map` whose name starts with `prefix`.
fn sum_prefix<V: Copy + Into<i128>>(map: &BTreeMap<String, V>, prefix: &str) -> i128 {
    map.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| (*v).into()).sum()
}

fn traced(args: &Args, plan: &Plan, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    // Untraced reference pass over the first half of the same lists, on a
    // fresh federation, for the trace overhead. Blocks repeat the same kinds,
    // so half the list has the mix of the whole.
    let (mut ready, _) = setups(w, plan, 1, report)?;
    let half = plan.timed.iter().map(Vec::len).max().unwrap_or(0).div_ceil(2);
    let reference = timed_pass(&mut ready, plan, half, &[], None);
    drop(ready);
    if let Some(f) = &reference.first_failure {
        report.fail(format!("untraced reference pass: {} wrong; first: {f}", reference.failed));
    }

    let (mut ready, _) = setups(w, plan, 1, report)?;
    let base = Instant::now();
    let before = ready.fed.metrics();
    let pass = timed_pass(&mut ready, plan, usize::MAX, &[], Some(base));
    let after = ready.fed.metrics();
    check_pass(report, &pass, &ready, plan, args.smoke);
    let n = pass.attempted() as f64;

    let delta = |prefix: &str| {
        (sum_prefix(&after.counters, prefix) - sum_prefix(&before.counters, prefix)) as f64
    };
    let gauge = |prefix: &str| {
        (sum_prefix(&after.gauges, prefix) - sum_prefix(&before.gauges, prefix)) as f64
    };

    let mut probe_log = SpanLog::new(base, w.sessions);
    let stride = plan.timed_len().div_ceil(PROBES).max(1);
    let probed = probe_pass(&ready.fed, plan, &mut probe_log, stride)?;
    drop(ready);

    let mut logs: Vec<&SpanLog> = pass.logs.iter().collect();
    logs.push(&probe_log);
    let per = per_statement(&logs);
    let mut totals: Vec<f64> =
        per.values().filter_map(|m| m.get("statement")).map(|ns| *ns as f64 / 1e3).collect();
    let total_us = median(&mut totals);
    let layer_us = |name: &str| {
        let mut v: Vec<f64> =
            per.values().filter_map(|m| m.get(name)).map(|ns| *ns as f64 / 1e3).collect();
        median(&mut v)
    };
    let probed_stmts: Vec<&BTreeMap<&str, u64>> =
        per.values().filter(|m| m.contains_key("probe")).collect();
    let inproc = |m: &BTreeMap<&str, u64>| {
        IN_PROCESS.iter().filter_map(|l| m.get(l)).sum::<u64>() as f64 / 1e3
    };
    let mut sums: Vec<f64> = probed_stmts.iter().map(|m| inproc(m)).collect();
    let mut residual: Vec<f64> = probed_stmts
        .iter()
        .map(|m| m.get("statement").copied().unwrap_or(0) as f64 / 1e3 - inproc(m))
        .collect();
    let inproc_median = median(&mut sums);
    if inproc_median > total_us {
        report.fail(format!(
            "median in-process layer time {inproc_median:.1} us exceeds \
             median statement time {total_us:.1} us"
        ));
    }

    let rows = delta("lam.rows{");
    let bytes = delta("lam.bytes{");
    let saved = delta("lam.bytes_saved{");
    let m = &mut report.metrics;
    m.push(metric("msql_lang.parse_us", layer_us("msql_lang.parse"), "us"));
    m.push(metric("translate.translate_us", layer_us("translate.translate"), "us"));
    m.push(metric("translate.plangen_us", layer_us("translate.plangen"), "us"));
    m.push(metric("lamclient.open_us", layer_us("lamclient.open"), "us"));
    m.push(metric("netsim.rtt_us", layer_us("netsim.rtt"), "us"));
    m.push(metric("lamclient.calls_per_stmt", delta("lam.calls{") / n, "count"));
    m.push(metric("lamclient.retries_per_stmt", delta("lam.retries{") / n, "count"));
    m.push(metric(
        "session.deadlock_retries_per_stmt",
        delta("session.deadlock_retries") / n,
        "count",
    ));
    m.push(metric("ldbs.exec_us", layer_us("ldbs.exec"), "us"));
    m.push(metric(
        "ldbs.rows_scanned_per_row",
        gauge("ldbs.rows_scanned{") / rows.max(1.0),
        "ratio",
    ));
    m.push(metric("ldbs.index_hits_per_stmt", gauge("ldbs.index_hits{") / n, "count"));
    m.push(metric("ldbs.prepares_per_stmt", gauge("ldbs.prepares{") / n, "count"));
    m.push(metric("ldbs.aborts_per_stmt", gauge("ldbs.aborts{") / n, "count"));
    m.push(metric("codec.encode_us", layer_us("codec.encode"), "us"));
    m.push(metric("codec.decode_us", layer_us("codec.decode"), "us"));
    m.push(metric("codec.bytes_per_row", bytes / rows.max(1.0), "B"));
    m.push(metric("join.keys_shipped_per_stmt", delta("join.keys_shipped") / n, "count"));
    m.push(metric("join.bytes_saved_frac", saved / (bytes + saved).max(1.0), "frac"));
    m.push(metric("agg.groups_merged_per_stmt", delta("agg.groups_merged") / n, "count"));
    m.push(metric("topk.rows_shipped_per_stmt", delta("topk.rows_shipped") / n, "count"));
    m.push(metric("planner.costed_joins_per_stmt", delta("planner.costed_joins") / n, "count"));
    m.push(metric("planner.stats_fetches_per_stmt", delta("planner.stats_fetches") / n, "count"));
    m.push(metric("executor.unattributed_us", median(&mut residual), "us"));
    m.push(metric("statement.total_us", total_us, "us"));
    let (tu, tt) = (reference.throughput(), pass.throughput());
    m.push(metric("trace.overhead_frac", (tu - tt) / tu, "frac"));

    let d = &mut report.detail;
    // Only pushed joins merge at the coordinator, so on a workload without
    // them this time would read 0 on every run; it stays out of the metrics.
    d.push(metric("merge.us", layer_us("merge"), "us"));
    d.push(metric("probed_statements", probed as f64, "count"));
    d.push(metric("inprocess_sum_us", inproc_median, "us"));
    d.push(metric("untraced_throughput_stmt_s", tu, "1/s"));
    d.push(metric("traced_throughput_stmt_s", tt, "1/s"));
    for name in [
        "lam.calls{",
        "lam.retries{",
        "lam.rows{",
        "lam.bytes{",
        "lam.bytes_saved{",
        "net.messages",
        "net.bytes",
    ] {
        d.push(metric(&format!("total.{}", name.trim_end_matches('{')), delta(name), "count"));
    }
    for name in [
        "ldbs.rows_scanned{",
        "ldbs.index_hits{",
        "ldbs.prepares{",
        "ldbs.aborts{",
        "ldbs.statements{",
    ] {
        d.push(metric(&format!("total.{}", name.trim_end_matches('{')), gauge(name), "count"));
    }

    let spans = out_dir().join(format!("{}-seed{}-spans.tsv", w.name, args.seed));
    trace::dump(&spans, &logs).map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!("spans: {}", spans.display());
    Ok(())
}

/// Generates the plan from the seed and runs it.
fn execute(args: &Args) -> Result<(Report, usize), String> {
    let w = args.workload;
    let per_session = if args.smoke {
        SMOKE_STATEMENTS
    } else {
        (w.rate * args.seconds as usize).div_ceil(w.sessions)
    };
    let plan = (w.plan)(args.seed, per_session);
    let mut report = Report {
        seed: args.seed,
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        detail: Vec::new(),
    };
    if args.trace {
        traced(args, &plan, &mut report)?;
    } else {
        untraced(args, &plan, &mut report)?;
    }
    Ok((report, plan.timed_len()))
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let started = Instant::now();
    let (report, statements) = match execute(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"statements\": {statements}, \"sessions\": {}, \"link_ms\": {}, \"nproc\": {nproc}, \
         \"profile\": {}, \"git_rev\": {}, \"run_wall_s\": {}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        w.sessions,
        w.link_ms,
        json_str(profile),
        json_str(&git_revision()),
        started.elapsed().as_secs_f64()
    );
    for m in report.metrics.iter().chain(&report.detail) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let file = out_dir().join(format!(
        "{}-seed{}-trace{}{}.json",
        w.name,
        args.seed,
        u8::from(args.trace),
        if args.smoke { "-smoke" } else { "" }
    ));
    let body = format!(
        "{{\"meta\": {meta}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}, \"detail\": {}}}\n",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics),
        metrics_json(&report.detail)
    );
    if let Err(e) = std::fs::write(&file, body) {
        eprintln!("perfbench: writing {}: {e}", file.display());
    }
    println!("meta: {meta}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Report {
        let args = Args {
            workload: workloads::by_name(workload).expect("known workload"),
            seed: 7,
            seconds: 1,
            trace,
            smoke: true,
        };
        execute(&args).expect("smoke run completes").0
    }

    fn plain(name: &str, extra: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    }

    #[test]
    fn a_seed_fixes_the_statement_list() {
        for w in &workloads::ALL {
            let a = (w.plan)(5, 60).dump();
            assert_eq!(a, (w.plan)(5, 60).dump(), "{}: same seed, same list", w.name);
            assert_ne!(a, (w.plan)(6, 60).dump(), "{}: other seed, other list", w.name);
        }
    }

    #[test]
    fn smoke_runs_check_every_answer_and_name_every_metric_plainly() {
        for w in &workloads::ALL {
            for trace in [false, true] {
                let r = smoke(w.name, trace);
                for m in r.metrics.iter().chain(&r.detail) {
                    assert!(plain(&m.name, ""), "metric name {:?}", m.name);
                    assert!(plain(m.unit, "/%") && m.unit.len() <= 16, "unit {:?}", m.unit);
                }
                assert!(r.attempted > 0);
                if w.name == "paper_mix_1ms" {
                    // Concurrent cross-database joins of two sessions share the
                    // coordinator's `part_<db>` temp tables, so a join may fail
                    // or return the other session's rows. Every other kind
                    // must be right.
                    for m in r.detail.iter().filter(|m| m.name.ends_with(".failed")) {
                        assert!(
                            m.value == 0.0 || m.name == "kind.join_2site.failed",
                            "{} = {}",
                            m.name,
                            m.value
                        );
                    }
                } else {
                    assert!(
                        r.correct && r.failed == 0,
                        "{} (trace {trace}) has wrong answers",
                        w.name
                    );
                }
            }
        }
    }
}
