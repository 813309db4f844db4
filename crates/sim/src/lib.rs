//! Deterministic crash-recovery simulation for the MSQL federation.
//!
//! The coordinator's write-ahead log (`mdbs::wal`) defines the crash-point
//! space: every protocol transition appends one record, and a
//! [`CrashPlan`] kills the coordinator immediately before or after any
//! given append. This crate drives a real federation — five LAM threads on
//! a seeded simulated network — through the paper's queries under such
//! crashes (optionally combined with seeded message loss), runs
//! [`mdbs::Federation::recover`], and checks two invariants:
//!
//! 1. **Consistency** (§3.4): for every interrupted statement, the oracle
//!    task set either exactly realises one acceptable termination state or
//!    is entirely undone ([`mdbs::RecoveredMtx::is_consistent`]).
//! 2. **No orphans**: after recovery, no LDBS holds a prepared
//!    transaction whose coordinator is gone
//!    ([`ldbs::Engine::prepared_txns`] is empty everywhere).
//!
//! Everything is deterministic: the network RNG, the retry jitter and the
//! logical clock are seeded, and tasks run serially. A failing schedule is
//! fully described by its [`SimConfig`] — the panic message of every test
//! prints the config plus the command that replays exactly that schedule.

use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::retry::RetryPolicy;
use mdbs::{CrashPlan, CrashWhen, Federation};
use netsim::Network;
use std::time::Duration;

pub use mdbs::wal;

/// The five fixture services, keyed as [`mdbs::fixtures`] registers them.
pub const SERVICES: &[&str] =
    &["svc_continental", "svc_delta", "svc_united", "svc_avis", "svc_national"];

/// The five fixture sites (site1..site5, same order as [`SERVICES`]).
pub const SITES: &[&str] = &["site1", "site2", "site3", "site4", "site5"];

/// One workload the simulation can crash: an MSQL statement plus the
/// service-profile variation it needs.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable name, used in failure reports.
    pub name: &'static str,
    /// The MSQL text.
    pub msql: &'static str,
    /// Run continental as an autocommit-only service (the §3.3
    /// compensation path needs one).
    pub autocommit_continental: bool,
}

/// Q1 — the §2 multiple retrieval (avis + national). Retrievals log
/// nothing (no settle phase), so its crash-point space is empty; it is in
/// the set to prove exactly that.
pub const Q1_RETRIEVAL: Scenario = Scenario {
    name: "q1_retrieval",
    msql: "USE avis national
        LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
        SELECT %code, type, ~rate FROM car WHERE status = 'available'",
    autocommit_continental: false,
};

/// Q2 — the §3.2 vital update: continental and united prepare (2PC),
/// delta autocommits non-vitally.
pub const Q2_VITAL_UPDATE: Scenario = Scenario {
    name: "q2_vital_update",
    msql: "USE continental VITAL delta united VITAL
        UPDATE flight%
        SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
    autocommit_continental: false,
};

/// Q3 — the §3.3 compensation path: continental is autocommit-only, so its
/// vital subquery commits immediately and is semantically undone by the
/// COMP block when the statement aborts (or when recovery presumes abort).
pub const Q3_COMP_UPDATE: Scenario = Scenario {
    name: "q3_comp_update",
    msql: "USE continental VITAL delta united VITAL
        UPDATE flight%
        SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'
        COMP continental
        UPDATE flights
        SET rate = rate / 1.1
        WHERE source = 'Houston' AND destination = 'San Antonio'",
    autocommit_continental: true,
};

/// Q4 — the §3.4 travel-agent multitransaction with two acceptable states.
pub const Q4_TRAVEL_AGENT: Scenario = Scenario {
    name: "q4_travel_agent",
    msql: "BEGIN MULTITRANSACTION
        USE continental delta
        LET fltab.snu.sstat.clname BE
            f838.seatnu.seatstatus.clientname
            f747.snu.sstat.passname
        UPDATE fltab
        SET sstat = 'TAKEN', clname = 'wenders'
        WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
        USE avis national
        LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
        UPDATE cartab
        SET cstat = 'TAKEN', client = 'wenders'
        WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
        COMMIT
          continental AND national
          delta AND avis
        END MULTITRANSACTION",
    autocommit_continental: false,
};

/// Every scenario the sweeps cover.
pub const SCENARIOS: &[Scenario] =
    &[Q1_RETRIEVAL, Q2_VITAL_UPDATE, Q3_COMP_UPDATE, Q4_TRAVEL_AGENT];

/// One fully-described simulation schedule. `Debug`-printing a config (as
/// every failure message does) is enough to replay it exactly.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the network RNG (message loss and latency jitter).
    pub seed: u64,
    /// Coordinator crash during statement execution, if any.
    pub crash: Option<CrashPlan>,
    /// A second crash, armed when the first recovery pass starts — the
    /// "recovery itself dies" (mid-resolve) case.
    pub recovery_crash: Option<CrashPlan>,
    /// Sites whose links (both directions) drop messages during execution.
    /// Healed before recovery — the operator fixes the network before
    /// restarting the coordinator.
    pub drop_sites: Vec<&'static str>,
    /// Per-message drop probability on those links.
    pub drop_p: f64,
    /// After recovery, run the scenario once more on the same session: the
    /// LAM connections the crashed statement and recovery used stay cached
    /// and must serve it.
    pub rerun: bool,
}

impl SimConfig {
    /// A loss-free schedule with a single execution-time crash.
    pub fn crash_only(seed: u64, crash: CrashPlan) -> Self {
        SimConfig {
            seed,
            crash: Some(crash),
            recovery_crash: None,
            drop_sites: Vec::new(),
            drop_p: 0.0,
            rerun: false,
        }
    }

    /// A schedule with no crash and no loss (baseline).
    pub fn clean(seed: u64) -> Self {
        SimConfig {
            seed,
            crash: None,
            recovery_crash: None,
            drop_sites: Vec::new(),
            drop_p: 0.0,
            rerun: false,
        }
    }
}

/// What one simulated schedule did.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Whether an armed crash fired during execution.
    pub crashed: bool,
    /// The statement error, when execution did not complete (a crash, or
    /// loss sinking the statement).
    pub exec_error: Option<String>,
    /// Interrupted multitransactions recovery settled.
    pub recovered: usize,
    /// Recovery passes it took (more than one only under a recovery crash).
    pub recovery_passes: u32,
    /// Total WAL records at the end.
    pub wal_records: usize,
    /// LAM connections opened from the first statement on. The fixture's
    /// IMPORTs leave one cached per database, so a run that only reuses
    /// them reports 0.
    pub connects: u64,
}

fn build_federation(scenario: &Scenario, cfg: &SimConfig) -> Federation {
    let profiles = if scenario.autocommit_continental {
        FederationProfiles {
            continental: ldbs::profile::DbmsProfile::autocommit_only(),
            ..FederationProfiles::default()
        }
    } else {
        FederationProfiles::default()
    };
    let mut fed = paper_federation_with(Network::with_seed(cfg.seed), profiles);
    // Serial tasks + seeded network + logical clock = reproducible runs.
    fed.parallel = false;
    fed.timeout = Duration::from_millis(150);
    fed.retry = RetryPolicy::retries(4);
    for site in &cfg.drop_sites {
        fed.network().set_link_drop_probability("*", site, cfg.drop_p);
        fed.network().set_link_drop_probability(site, "*", cfg.drop_p);
    }
    fed
}

fn heal(fed: &Federation, sites: &[&'static str]) {
    for site in sites {
        fed.network().clear_link_drop_probability("*", site);
        fed.network().clear_link_drop_probability(site, "*");
    }
}

/// Upper bound on recovery passes before the harness declares the schedule
/// stuck. One pass suffices without a recovery crash; a single recovery
/// crash needs two.
const MAX_RECOVERY_PASSES: u32 = 5;

/// Runs one schedule end to end and checks both invariants. `Err` carries
/// a full description of the violation and the schedule; the caller only
/// adds the replay command.
pub fn run(scenario: &Scenario, cfg: &SimConfig) -> Result<SimOutcome, String> {
    let mut fed = build_federation(scenario, cfg);
    let opened = fed.metrics_registry().counter("conn.opened");
    let wal = fed.enable_wal();
    if let Some(plan) = cfg.crash {
        wal.arm_crash(plan);
    }
    let exec_error = fed.execute(scenario.msql).err().map(|e| e.to_string());
    let crashed = wal.crashed();
    if cfg.crash.is_some() && cfg.drop_sites.is_empty() && !crashed {
        // A loss-free schedule must reach its crash point unless the point
        // lies beyond the statement's record count — which enumeration
        // never produces.
        let n = wal.record_count();
        if cfg.crash.map(|c| c.at < n) == Some(true) {
            return Err(format!(
                "[{}] armed crash {:?} never fired ({n} records written)",
                scenario.name, cfg.crash
            ));
        }
    }

    // The operator fixes the network, then restarts the coordinator:
    // recovery runs loss-free. It is a no-op when nothing was interrupted.
    heal(&fed, &cfg.drop_sites);
    if let Some(plan) = cfg.recovery_crash {
        wal.arm_crash(plan);
    }
    let mut passes = 0;
    let recovered;
    loop {
        passes += 1;
        if passes > MAX_RECOVERY_PASSES {
            return Err(format!(
                "[{}] recovery did not converge in {MAX_RECOVERY_PASSES} passes; cfg={cfg:?}",
                scenario.name
            ));
        }
        match fed.recover() {
            Ok(report) => {
                recovered = report.recovered.len();
                for mtx in &report.recovered {
                    if !mtx.is_consistent() {
                        return Err(format!(
                            "[{}] INCONSISTENT outcome after recovery: mtx {} achieved={:?} \
                             statuses={:?} states={:?} oracle={:?}; cfg={cfg:?}",
                            scenario.name,
                            mtx.mtx_id,
                            mtx.achieved_state,
                            mtx.statuses,
                            mtx.states,
                            mtx.oracle
                        ));
                    }
                }
                break;
            }
            Err(_) if wal.crashed() => {
                // The recovery pass itself died (mid-resolve double crash).
                // Its progress is logged; the next pass finishes the rest.
                continue;
            }
            Err(e) => {
                return Err(format!("[{}] recovery failed: {e}; cfg={cfg:?}", scenario.name));
            }
        }
    }

    check_no_orphans(&fed, scenario, "recovery", &exec_error, cfg)?;
    if cfg.rerun {
        fed.execute(scenario.msql).map_err(|e| {
            format!("[{}] rerun after recovery failed: {e}; cfg={cfg:?}", scenario.name)
        })?;
        check_no_orphans(&fed, scenario, "the rerun", &exec_error, cfg)?;
    }

    Ok(SimOutcome {
        crashed,
        exec_error,
        recovered,
        recovery_passes: passes,
        wal_records: wal.record_count(),
        connects: fed.metrics_registry().counter("conn.opened") - opened,
    })
}

/// No-orphan invariant: every prepared subtransaction everywhere has been
/// settled — nothing waits forever for a dead coordinator.
fn check_no_orphans(
    fed: &Federation,
    scenario: &Scenario,
    after: &str,
    exec_error: &Option<String>,
    cfg: &SimConfig,
) -> Result<(), String> {
    for service in SERVICES {
        let engine = fed.engine(service).expect("fixture service exists");
        let orphans = engine.lock().prepared_txns();
        if !orphans.is_empty() {
            return Err(format!(
                "[{}] ORPHANED prepared transactions at `{service}` after {after}: {orphans:?}; \
                 exec_error={exec_error:?}; cfg={cfg:?}",
                scenario.name
            ));
        }
    }
    Ok(())
}

/// The crash-point space of a scenario: the number of WAL records a
/// crash-free run writes. Points are `{Before, After} × 0..count`.
pub fn crash_point_count(scenario: &Scenario) -> usize {
    let cfg = SimConfig::clean(0);
    let mut fed = build_federation(scenario, &cfg);
    let wal = fed.enable_wal();
    fed.execute(scenario.msql).expect("crash-free fixture scenario executes");
    wal.record_count()
}

/// Tiny deterministic generator for the random-schedule sweep (xorshift*;
/// no external RNG, identical on every platform).
pub struct SimRng(u64);

impl SimRng {
    /// Seeds the stream; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng(seed.wrapping_mul(2685821657736338717).wrapping_add(1442695040888963407))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform value in `0..bound` (bound ≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Derives the fully-determined schedule for `seed` over the update/mtx
/// scenarios. Printed seeds replay exactly: the schedule is a pure
/// function of the seed and the (fixed) per-scenario crash-point count.
pub fn schedule_for_seed(seed: u64, points: &[(Scenario, usize)]) -> (Scenario, SimConfig) {
    let mut rng = SimRng::new(seed);
    let (scenario, n) = points[rng.below(points.len() as u64) as usize];
    // Beyond-the-end indices mean "no crash": the schedule then tests pure
    // message loss (and recovery of whatever the loss interrupted).
    let at = rng.below(n as u64 + 4) as usize;
    let crash = if at < n {
        let when = if rng.below(2) == 0 { CrashWhen::Before } else { CrashWhen::After };
        Some(CrashPlan { at, when })
    } else {
        None
    };
    let drop_sites: Vec<&'static str> = match rng.below(3) {
        0 => Vec::new(),
        1 => vec![SITES[rng.below(SITES.len() as u64) as usize]],
        _ => {
            let a = SITES[rng.below(SITES.len() as u64) as usize];
            let b = SITES[rng.below(SITES.len() as u64) as usize];
            if a == b {
                vec![a]
            } else {
                vec![a, b]
            }
        }
    };
    let drop_p = if drop_sites.is_empty() { 0.0 } else { [0.1, 0.2, 0.3][rng.below(3) as usize] };
    (scenario, SimConfig { seed, crash, recovery_crash: None, drop_sites, drop_p, rerun: false })
}

/// The seed range a sweep test runs: `SIM_SEEDS=a..b` overrides the
/// default (used by CI's quick smoke pass).
pub fn seed_range(default: std::ops::Range<u64>) -> std::ops::Range<u64> {
    match std::env::var("SIM_SEEDS") {
        Ok(spec) => {
            let parts: Vec<&str> = spec.splitn(2, "..").collect();
            match parts.as_slice() {
                [a, b] => {
                    let start = a.trim().parse().unwrap_or(default.start);
                    let end = b.trim().parse().unwrap_or(default.end);
                    start..end
                }
                _ => default,
            }
        }
        Err(_) => default,
    }
}

/// The replay command printed with every failure.
pub fn repro_command(seed: u64) -> String {
    format!("SIM_SEEDS={seed}..{} cargo test -p sim --test random_schedules", seed + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_runs_leave_nothing_to_recover() {
        for scenario in SCENARIOS {
            let out = run(scenario, &SimConfig::clean(1)).unwrap();
            assert!(!out.crashed, "[{}]", scenario.name);
            assert_eq!(out.exec_error, None, "[{}]", scenario.name);
            assert_eq!(out.recovered, 0, "[{}] recovery must be a no-op", scenario.name);
        }
    }

    #[test]
    fn retrieval_has_no_crash_points() {
        assert_eq!(crash_point_count(&Q1_RETRIEVAL), 0, "retrievals never engage the WAL");
    }

    #[test]
    fn settle_bearing_scenarios_have_crash_points() {
        for scenario in [&Q2_VITAL_UPDATE, &Q3_COMP_UPDATE, &Q4_TRAVEL_AGENT] {
            let n = crash_point_count(scenario);
            assert!(n >= 4, "[{}] expected a real crash-point space, got {n}", scenario.name);
        }
    }

    #[test]
    fn crash_point_count_is_deterministic() {
        assert_eq!(crash_point_count(&Q4_TRAVEL_AGENT), crash_point_count(&Q4_TRAVEL_AGENT));
    }

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let points = [(Q2_VITAL_UPDATE, 8), (Q4_TRAVEL_AGENT, 11)];
        for seed in 0..50 {
            let (a_scn, a_cfg) = schedule_for_seed(seed, &points);
            let (b_scn, b_cfg) = schedule_for_seed(seed, &points);
            assert_eq!(a_scn.name, b_scn.name);
            assert_eq!(format!("{a_cfg:?}"), format!("{b_cfg:?}"));
        }
    }

    #[test]
    fn seed_range_parses_override() {
        // No env in unit tests — just exercise the default path.
        assert_eq!(seed_range(0..200), 0..200);
    }

    #[test]
    fn a_crash_before_the_decision_presumes_abort() {
        // Crash before any record can fire only via the BEGIN append —
        // point 0 Before kills the coordinator before anything ran.
        let out = run(
            &Q2_VITAL_UPDATE,
            &SimConfig::crash_only(3, CrashPlan { at: 0, when: CrashWhen::Before }),
        )
        .unwrap();
        assert!(out.crashed);
        assert_eq!(out.recovered, 0, "nothing was logged, nothing to recover");
    }

    #[test]
    fn a_crash_after_begin_recovers_one_mtx() {
        let out = run(
            &Q2_VITAL_UPDATE,
            &SimConfig::crash_only(3, CrashPlan { at: 0, when: CrashWhen::After }),
        )
        .unwrap();
        assert!(out.crashed);
        assert_eq!(out.recovered, 1);
        assert_eq!(out.recovery_passes, 1);
    }
}
