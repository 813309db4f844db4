//! Systematic crash-point sweep: for every scenario, kill the coordinator
//! immediately before and after *every* WAL record a crash-free run writes,
//! recover, and check the §3.4 consistency + no-orphan invariants.
//!
//! A failing point panics with the exact `SimConfig`; replaying it is
//! `run(scenario, &SimConfig::crash_only(seed, CrashPlan { at, when }))`.

use mdbs::{CrashPlan, CrashWhen};
use sim::{crash_point_count, run, SimConfig, Q2_VITAL_UPDATE, Q3_COMP_UPDATE, Q4_TRAVEL_AGENT};

const SWEEP_SEED: u64 = 7;

fn sweep(scenario: &sim::Scenario) {
    let n = crash_point_count(scenario);
    assert!(n > 0, "[{}] nothing to sweep", scenario.name);
    for at in 0..n {
        for when in [CrashWhen::Before, CrashWhen::After] {
            let cfg = SimConfig::crash_only(SWEEP_SEED, CrashPlan { at, when });
            let out = run(scenario, &cfg).unwrap_or_else(|e| {
                panic!(
                    "[{}] crash point {at}/{n} {when:?} violated an invariant:\n{e}",
                    scenario.name
                )
            });
            // Points inside the statement must actually crash it; recovery
            // must settle the one interrupted statement in a single pass.
            assert!(out.crashed, "[{}] point {at} {when:?} did not fire", scenario.name);
            assert_eq!(out.recovery_passes, 1, "[{}] point {at} {when:?}", scenario.name);
        }
    }
}

/// The coordinator crashes while holding cached LAM connections. The
/// crashed statement returns them to the session's cache, recovery settles
/// the interrupted statement over them, and the same session then runs the
/// scenario again on them: no reconnect anywhere, both invariants hold.
#[test]
fn cached_connections_outlive_a_crashed_statement() {
    for scenario in [&Q2_VITAL_UPDATE, &Q3_COMP_UPDATE, &Q4_TRAVEL_AGENT] {
        let n = crash_point_count(scenario);
        for at in 0..n {
            for when in [CrashWhen::Before, CrashWhen::After] {
                let cfg = SimConfig {
                    rerun: true,
                    ..SimConfig::crash_only(SWEEP_SEED, CrashPlan { at, when })
                };
                let out = run(scenario, &cfg).unwrap_or_else(|e| {
                    panic!("[{}] crash point {at}/{n} {when:?}:\n{e}", scenario.name)
                });
                assert!(out.crashed, "[{}] point {at} {when:?} did not fire", scenario.name);
                assert_eq!(out.connects, 0, "[{}] point {at} {when:?} reconnected", scenario.name);
            }
        }
    }
}

#[test]
fn q2_vital_update_survives_every_crash_point() {
    sweep(&Q2_VITAL_UPDATE);
}

#[test]
fn q3_comp_update_survives_every_crash_point() {
    sweep(&Q3_COMP_UPDATE);
}

#[test]
fn q4_travel_agent_survives_every_crash_point() {
    sweep(&Q4_TRAVEL_AGENT);
}

/// Mid-resolve double crashes: the coordinator dies during execution, the
/// replacement dies again during recovery (at each of the first records a
/// recovery pass appends), and a third pass must still converge to a
/// consistent, orphan-free state.
#[test]
fn q4_recovery_survives_crashing_again_mid_resolve() {
    let n = crash_point_count(&Q4_TRAVEL_AGENT);
    for at in 0..n {
        // Execution dies after record `at`; the log then holds `at + 1`
        // records, so recovery's own appends start there.
        let recovery_at = at + 1;
        for when in [CrashWhen::Before, CrashWhen::After] {
            let cfg = SimConfig {
                seed: 11,
                crash: Some(CrashPlan { at, when: CrashWhen::After }),
                recovery_crash: Some(CrashPlan { at: recovery_at, when }),
                drop_sites: Vec::new(),
                drop_p: 0.0,
                rerun: false,
            };
            let out = run(&Q4_TRAVEL_AGENT, &cfg).unwrap_or_else(|e| {
                panic!("[q4] double crash at {at}, recovery crash at {recovery_at} {when:?}:\n{e}")
            });
            assert!(out.crashed);
            if at == n - 1 {
                // The final record is END: crashing after it interrupts
                // nothing, so recovery no-ops and the second crash (armed
                // past the end of the log) never fires.
                assert_eq!(out.recovered, 0, "statement had completed");
                assert_eq!(out.recovery_passes, 1);
            } else {
                assert!(
                    out.recovery_passes >= 2,
                    "recovery crash at {recovery_at} {when:?} should force a second pass \
                     (got {} passes)",
                    out.recovery_passes
                );
            }
        }
    }
}
