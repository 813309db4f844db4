//! The three named workloads and the code they share: statement-list
//! assembly from blocks of kinds, and the federation build.

pub mod analytic_joins;
pub mod paper_mix;
pub mod vital_writes;

use crate::rng::Rng;
use crate::spec::{Build, Plan};
use ldbs::Engine;
use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::Federation;
use netsim::{LatencyModel, Network};
use std::time::Duration;

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    /// Concurrent sessions, each a closed loop on its own thread.
    pub sessions: usize,
    /// One-way link latency of the fabric.
    pub link_ms: u64,
    /// Timed statements per second of requested run length, all sessions
    /// together. The statement count is this times `--seconds`, so a run's
    /// work is fixed by its arguments and every count repeats exactly.
    pub rate: usize,
    /// Generates the run's plan: `(seed, statements per session)`.
    pub plan: fn(u64, usize) -> Plan,
}

pub const ALL: [Workload; 3] = [
    Workload { name: "paper_mix_1ms", sessions: 2, link_ms: 1, rate: 160, plan: paper_mix::plan },
    Workload {
        name: "analytic_joins_0ms",
        sessions: 1,
        link_ms: 0,
        rate: 105,
        plan: analytic_joins::plan,
    },
    Workload {
        name: "vital_writes_0ms",
        sessions: 1,
        link_ms: 0,
        rate: 900,
        plan: vital_writes::plan,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// One block of statement kinds: each kind with its count per block. Every
/// block holds exactly these counts, so a kind's share is the same for
/// every seed; the seed only orders a block and fills in its parameters.
pub type Block = &'static [(&'static str, usize)];

/// `statements` kinds (rounded up to whole blocks), each block shuffled.
pub fn kinds(rng: &mut Rng, block: Block, statements: usize) -> Vec<&'static str> {
    let per_block: usize = block.iter().map(|(_, n)| n).sum();
    let mut out = Vec::with_capacity(statements + per_block);
    while out.len() < statements {
        let mut b: Vec<&'static str> =
            block.iter().flat_map(|(k, n)| std::iter::repeat_n(*k, *n)).collect();
        rng.shuffle(&mut b);
        out.extend(b);
    }
    out
}

/// Builds the plan's federation on a fresh fabric: engines, data load,
/// `IMPORT`, `ANALYZE`. Every `Session` setting stays at its default.
pub fn build(plan: &Plan, link_ms: u64) -> Result<Federation, String> {
    let net = Network::new();
    if link_ms > 0 {
        net.set_latency(LatencyModel::uniform(Duration::from_millis(link_ms)));
    }
    match &plan.build {
        Build::Paper => Ok(paper_federation_with(net, FederationProfiles::default())),
        Build::Sites { sites, analyze } => {
            let mut fed = Federation::with_network(net);
            for s in sites {
                let mut e = Engine::new(s.service.clone(), s.profile.clone());
                e.create_database(&s.db).map_err(|e| e.to_string())?;
                for sql in &s.load {
                    e.execute(&s.db, sql).map_err(|e| format!("{sql}: {e}"))?;
                }
                for t in &s.fail_writes {
                    e.failure_policy_mut().fail_writes_to(t);
                }
                fed.add_service(&s.service, &s.site, e).map_err(|e| e.to_string())?;
                fed.execute(&format!("IMPORT DATABASE {} FROM SERVICE {}", s.db, s.service))
                    .map_err(|e| e.to_string())?;
            }
            if !analyze.is_empty() {
                let dbs: Vec<&str> = sites.iter().map(|s| s.db.as_str()).collect();
                fed.execute(&format!("USE {}", dbs.join(" "))).map_err(|e| e.to_string())?;
                for a in analyze {
                    fed.execute(a).map_err(|e| format!("{a}: {e}"))?;
                }
            }
            Ok(fed)
        }
    }
}
