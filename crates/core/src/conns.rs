//! Session-scoped LAM connections.
//!
//! Every LAM client a session uses is checked out of its private
//! [`ConnCache`], keyed by (site, database): DOL `OPEN`, cross-database
//! partials, the coordinator's collect, direct traffic (IMPORT, ANALYZE,
//! DDL, statistics, recovery) and the members of a deferred global
//! transaction. Many statements thus share one connection, the way the
//! TimesGraph RFC lets many queries share one.
//!
//! * A **miss** opens a connection as [`LamClient::connect_with`] does:
//!   register an endpoint, then one PING round trip.
//! * A **hit** sends nothing. It applies the owner's current
//!   [`ClientConfig`] (timeout, retry policy, stats, metrics, wire format),
//!   so a reused connection behaves exactly like a new one.
//! * **Liveness.** A LAM that stopped has deregistered its site, so a hit on
//!   an unregistered site is evicted at checkout and reconnected; that
//!   connect fails exactly as a cold `OPEN` does. A partition or a lossy
//!   link is invisible at checkout: the first request meets it, and the
//!   [`crate::retry::RetryPolicy`] handles it as for any other request.
//! * A client whose request met a terminal fault is dropped, not returned.
//!
//! Connections live as long as their session; dropping the session closes
//! them (deregisters their endpoints).

use crate::error::MdbsError;
use crate::lamclient::{ClientConfig, LamClient};
use dol::engine::TaskExecution;
use dol::{DolError, DolService, TaskDef};
use netsim::Network;
use obs::Span;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Idle connections by (site, database).
type Idle = Arc<Mutex<HashMap<(String, String), Vec<LamClient>>>>;

/// A session's idle LAM connections. Cloning shares the cache.
#[derive(Clone)]
pub struct ConnCache {
    net: Network,
    idle: Idle,
}

impl ConnCache {
    /// An empty cache over `net`.
    pub fn new(net: Network) -> Self {
        ConnCache { net, idle: Idle::default() }
    }

    /// Checks out a connection to `database` at `site`, configured with
    /// `config`: a cached one when its site is still registered, otherwise a
    /// new one (register + PING). Counts `conn.reused`, `conn.opened` and
    /// `conn.evicted` into `config.metrics`.
    pub fn checkout(
        &self,
        site: &str,
        database: &str,
        config: &ClientConfig,
    ) -> Result<Conn, MdbsError> {
        let cached = {
            let mut idle = self.idle.lock();
            if self.net.is_registered(site) {
                idle.get_mut(&(site.to_string(), database.to_string())).and_then(Vec::pop)
            } else {
                let mut evicted = 0;
                idle.retain(|(s, _), clients| {
                    let dead = s == site;
                    if dead {
                        evicted += clients.len() as u64;
                    }
                    !dead
                });
                if evicted > 0 {
                    config.metrics.counter_add("conn.evicted", evicted);
                }
                None
            }
        };
        let mut client = match cached {
            Some(client) => {
                config.metrics.counter_add("conn.reused", 1);
                client
            }
            None => {
                let client = LamClient::connect_with(
                    &self.net,
                    site,
                    database,
                    config.timeout,
                    config.retry.clone(),
                    config.stats.clone(),
                )?;
                config.metrics.counter_add("conn.opened", 1);
                client
            }
        };
        client.configure(config);
        Ok(Conn { client: Some(client), home: Arc::clone(&self.idle) })
    }
}

/// A connection checked out of a [`ConnCache`]. Derefs to its
/// [`LamClient`]; dropping it returns the client to the cache unless a
/// request met a terminal fault.
pub struct Conn {
    client: Option<LamClient>,
    home: Idle,
}

impl Deref for Conn {
    type Target = LamClient;
    fn deref(&self) -> &LamClient {
        self.client.as_ref().expect("a checked-out connection holds its client")
    }
}

impl DerefMut for Conn {
    fn deref_mut(&mut self) -> &mut LamClient {
        self.client.as_mut().expect("a checked-out connection holds its client")
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let Some(client) = self.client.take() else { return };
        if client.saw_terminal_fault() {
            return; // dropping the client closes its endpoint
        }
        let key = (client.site().to_string(), client.database.clone());
        self.home.lock().entry(key).or_default().push(client);
    }
}

/// A DOL service over a checked-out connection; `CLOSE` (or the end of the
/// program) drops it back into the cache.
impl DolService for Conn {
    fn execute_task(&mut self, task: &TaskDef) -> TaskExecution {
        (**self).execute_task(task)
    }

    fn execute_task_traced(&mut self, task: &TaskDef, span: &Span) -> TaskExecution {
        (**self).execute_task_traced(task, span)
    }

    fn commit_task(&mut self, task_name: &str) -> Result<(), DolError> {
        (**self).commit_task(task_name)
    }

    fn commit_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        (**self).commit_task_traced(task_name, span)
    }

    fn abort_task(&mut self, task_name: &str) -> Result<(), DolError> {
        (**self).abort_task(task_name)
    }

    fn abort_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        (**self).abort_task_traced(task_name, span)
    }

    fn compensate_task(&mut self, task: &TaskDef) -> Result<(), DolError> {
        (**self).compensate_task(task)
    }

    fn compensate_task_traced(&mut self, task: &TaskDef, span: &Span) -> Result<(), DolError> {
        (**self).compensate_task_traced(task, span)
    }

    fn close(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lam::spawn_lam;
    use crate::proto::{Request, Response};
    use ldbs::profile::DbmsProfile;
    use ldbs::Engine;
    use std::time::Duration;

    fn setup() -> (Network, crate::lam::LamHandle) {
        let net = Network::new();
        let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("avis").unwrap();
        let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
        (net, lam)
    }

    fn config() -> ClientConfig {
        ClientConfig::new(Duration::from_secs(5))
    }

    impl ConnCache {
        fn idle_connections(&self) -> usize {
            self.idle.lock().values().map(Vec::len).sum()
        }
    }

    #[test]
    fn a_returned_connection_is_reused_without_a_ping() {
        let (net, _lam) = setup();
        let cache = ConnCache::new(net.clone());
        let cfg = config();
        drop(cache.checkout("site1", "avis", &cfg).unwrap());
        assert_eq!(net.stats().messages, 2, "a miss pays one PING round trip");
        assert_eq!(cache.idle_connections(), 1);
        let conn = cache.checkout("site1", "avis", &cfg).unwrap();
        assert_eq!(net.stats().messages, 2, "a hit sends nothing");
        assert_eq!(cache.idle_connections(), 0, "a checked-out connection is not idle");
        assert!(conn.call(Request::Schema { database: "avis".into() }).is_ok());
        drop(conn);
        assert_eq!(cfg.metrics.counter("conn.opened"), 1);
        assert_eq!(cfg.metrics.counter("conn.reused"), 1);
    }

    #[test]
    fn concurrent_checkouts_of_one_key_get_distinct_connections() {
        let (net, _lam) = setup();
        let cache = ConnCache::new(net);
        let cfg = config();
        let a = cache.checkout("site1", "avis", &cfg).unwrap();
        let b = cache.checkout("site1", "avis", &cfg).unwrap();
        drop((a, b));
        assert_eq!(cache.idle_connections(), 2);
        assert_eq!(cfg.metrics.counter("conn.opened"), 2);
    }

    #[test]
    fn a_hit_applies_the_owners_current_settings() {
        let (net, _lam) = setup();
        let cache = ConnCache::new(net);
        drop(cache.checkout("site1", "avis", &config()).unwrap());
        let binary = ClientConfig {
            wire_format: crate::codec::WireFormat::Binary,
            timeout: Duration::from_millis(77),
            ..config()
        };
        let conn = cache.checkout("site1", "avis", &binary).unwrap();
        assert_eq!(conn.wire_format(), crate::codec::WireFormat::Binary);
        assert_eq!(conn.call(Request::Ping).unwrap(), Response::Ok);
        assert_eq!(binary.stats.lock().calls, 1, "calls land in the new owner's stats");
    }

    #[test]
    fn a_dead_lam_is_evicted_at_checkout_and_fails_like_a_cold_open() {
        let (net, lam) = setup();
        let cache = ConnCache::new(net.clone());
        let cfg = config();
        drop(cache.checkout("site1", "avis", &cfg).unwrap());
        lam.shutdown(); // deregisters site1
        let sent = net.stats().messages;
        let err = cache.checkout("site1", "avis", &cfg).err().expect("dead LAM");
        assert!(matches!(err, MdbsError::LamUnavailable { .. }), "{err:?}");
        assert_eq!(net.stats().messages, sent, "nothing reaches a deregistered site");
        assert_eq!(cache.idle_connections(), 0);
        assert_eq!(cfg.metrics.counter("conn.evicted"), 1);
    }

    #[test]
    fn a_client_that_met_a_terminal_fault_is_not_returned() {
        let (net, lam) = setup();
        let cache = ConnCache::new(net);
        let conn = cache.checkout("site1", "avis", &config()).unwrap();
        lam.shutdown();
        assert!(conn.call(Request::Ping).is_err());
        assert!(conn.saw_terminal_fault());
        drop(conn);
        assert_eq!(cache.idle_connections(), 0);
    }
}
