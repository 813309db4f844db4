//! The network fabric and site endpoints.

use crate::error::NetError;
use crate::latency::LatencyModel;
use crate::message::{Body, Envelope, Message};
use crate::stats::NetStats;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use obs::{LogicalClock, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observability hook: every send advances the logical clock (so traces see
/// network activity as time) and feeds the `net.*` metric series.
#[derive(Clone, Default)]
struct Probe {
    clock: LogicalClock,
    metrics: MetricsRegistry,
}

#[derive(Default)]
struct Fabric {
    probe: RwLock<Option<Probe>>,
    sites: RwLock<HashMap<String, Sender<Envelope>>>,
    latency: RwLock<LatencyModel>,
    partitions: RwLock<HashSet<(String, String)>>,
    drop_probability: RwLock<f64>,
    link_drop_probability: RwLock<HashMap<(String, String), f64>>,
    /// Deterministic injection: the next N messages on a link are dropped.
    forced_drops: RwLock<HashMap<(String, String), u64>>,
    rng: Mutex<Option<StdRng>>,
    stats: Mutex<NetStats>,
    seq: AtomicU64,
}

/// A simulated network shared by all sites of the federation. Cloning is
/// cheap (shared fabric).
#[derive(Clone, Default)]
pub struct Network {
    fabric: Arc<Fabric>,
}

impl Network {
    /// Creates a network with no latency and no failures.
    pub fn new() -> Self {
        Network::default()
    }

    /// Creates a network with a seeded RNG for stochastic drops.
    pub fn with_seed(seed: u64) -> Self {
        let net = Network::default();
        *net.fabric.rng.lock() = Some(StdRng::seed_from_u64(seed));
        net
    }

    /// Registers a site and returns its endpoint.
    pub fn register(&self, name: &str) -> Result<Endpoint, NetError> {
        let (tx, rx) = unbounded();
        let mut sites = self.fabric.sites.write();
        if sites.contains_key(name) {
            return Err(NetError::DuplicateSite(name.to_string()));
        }
        sites.insert(name.to_string(), tx);
        Ok(Endpoint { name: name.to_string(), rx, fabric: Arc::clone(&self.fabric) })
    }

    /// Removes a site; pending messages to it are lost.
    pub fn deregister(&self, name: &str) {
        self.fabric.sites.write().remove(name);
    }

    /// True while a site of this name is registered. A stopped LAM
    /// deregisters itself, so this is a message-free liveness check.
    pub fn is_registered(&self, name: &str) -> bool {
        self.fabric.sites.read().contains_key(name)
    }

    /// Installs a latency model.
    pub fn set_latency(&self, model: LatencyModel) {
        *self.fabric.latency.write() = model;
    }

    /// Sets the probability that any message is silently dropped.
    pub fn set_drop_probability(&self, p: f64) {
        *self.fabric.drop_probability.write() = p.clamp(0.0, 1.0);
        self.ensure_rng();
    }

    /// Sets a directional per-link drop probability. Where both a global
    /// and a link probability apply, the larger wins. Either endpoint may be
    /// the wildcard `"*"`, matching any site — useful to degrade every link
    /// touching one site when the peers (e.g. ephemeral client endpoints)
    /// are not known in advance. An exact link entry takes precedence over a
    /// wildcard one.
    pub fn set_link_drop_probability(&self, from: &str, to: &str, p: f64) {
        self.fabric
            .link_drop_probability
            .write()
            .insert((from.to_string(), to.to_string()), p.clamp(0.0, 1.0));
        self.ensure_rng();
    }

    /// Sets the same drop probability in both directions.
    pub fn set_link_drop_probability_symmetric(&self, a: &str, b: &str, p: f64) {
        self.set_link_drop_probability(a, b, p);
        self.set_link_drop_probability(b, a, p);
    }

    /// Removes a per-link drop probability.
    pub fn clear_link_drop_probability(&self, from: &str, to: &str) {
        self.fabric.link_drop_probability.write().remove(&(from.to_string(), to.to_string()));
    }

    /// Deterministically drops the next `count` messages sent on the
    /// `from → to` link, then restores normal delivery. Used to lose a
    /// specific message (e.g. exactly one commit ack) without randomness.
    /// Either endpoint may be the wildcard `"*"`; an exact link entry is
    /// consumed before a wildcard one.
    pub fn drop_next(&self, from: &str, to: &str, count: u64) {
        self.fabric.forced_drops.write().insert((from.to_string(), to.to_string()), count);
    }

    /// Injects an extra directional delay (latency spike) on a link,
    /// stacking on top of the installed latency model.
    pub fn inject_link_delay(&self, from: &str, to: &str, extra: Duration) {
        self.fabric.latency.write().inject_spike(from, to, extra);
    }

    /// Clears an injected latency spike.
    pub fn clear_link_delay(&self, from: &str, to: &str) {
        self.fabric.latency.write().clear_spike(from, to);
    }

    fn ensure_rng(&self) {
        let mut rng = self.fabric.rng.lock();
        if rng.is_none() {
            *rng = Some(StdRng::seed_from_u64(0));
        }
    }

    /// Partitions two sites (both directions refuse sends). Either side may
    /// be the wildcard `"*"`, cutting one site off from every peer
    /// (including client endpoints whose names are not known in advance).
    pub fn partition(&self, a: &str, b: &str) {
        let mut p = self.fabric.partitions.write();
        p.insert((a.to_string(), b.to_string()));
        p.insert((b.to_string(), a.to_string()));
    }

    /// Heals a partition.
    pub fn heal(&self, a: &str, b: &str) {
        let mut p = self.fabric.partitions.write();
        p.remove(&(a.to_string(), b.to_string()));
        p.remove(&(b.to_string(), a.to_string()));
    }

    /// Attaches an observability probe: every delivered or dropped message
    /// ticks `clock` once and increments the `net.messages` / `net.bytes` /
    /// `net.dropped` / `net.refused` counters in `metrics`.
    pub fn attach_probe(&self, clock: LogicalClock, metrics: MetricsRegistry) {
        *self.fabric.probe.write() = Some(Probe { clock, metrics });
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.fabric.stats.lock().clone()
    }

    /// Resets the traffic counters (between benchmark iterations).
    pub fn reset_stats(&self) {
        *self.fabric.stats.lock() = NetStats::default();
    }
}

/// A site's handle on the network: send to any site, receive from a private
/// mailbox.
pub struct Endpoint {
    name: String,
    rx: Receiver<Envelope>,
    fabric: Arc<Fabric>,
}

impl Endpoint {
    /// This endpoint's site name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ticks the attached probe (if any) and bumps one `net.*` counter.
    /// Exactly one clock tick per observable network event — golden traces
    /// pin tick-derived spans, so the per-format byte counters below ride on
    /// the same event without extra ticks.
    fn probe_event(&self, counter: &str, body: Option<&Body>) {
        if let Some(probe) = self.fabric.probe.read().as_ref() {
            probe.clock.tick();
            probe.metrics.counter_add(counter, 1);
            if let Some(body) = body {
                if !body.is_empty() {
                    probe.metrics.counter_add("net.bytes", body.len() as u64);
                    let variant = match body {
                        Body::Text(_) => "net.bytes_text",
                        Body::Binary(_) => "net.bytes_binary",
                    };
                    probe.metrics.counter_add(variant, body.len() as u64);
                }
            }
        }
    }

    /// Sends a message. Fails fast on partitions and unknown sites; a
    /// stochastic drop is reported as success (the sender cannot tell — it
    /// will observe a receive timeout instead), mirroring real datagram
    /// behaviour.
    pub fn send(&self, to: &str, body: impl Into<Body>) -> Result<(), NetError> {
        let body = body.into();
        let partitioned = {
            let cuts = self.fabric.partitions.read();
            !cuts.is_empty()
                && [(self.name.as_str(), to), ("*", to), (self.name.as_str(), "*")]
                    .iter()
                    .any(|&(a, b)| cuts.contains(&(a.to_string(), b.to_string())))
        };
        if partitioned {
            self.fabric.stats.lock().refused += 1;
            self.probe_event("net.refused", None);
            return Err(NetError::Partitioned { from: self.name.clone(), to: to.to_string() });
        }
        let sites = self.fabric.sites.read();
        let tx = sites.get(to).ok_or_else(|| NetError::UnknownSite(to.to_string()))?;
        let link = (self.name.clone(), to.to_string());
        // Exact match first, then wildcard sender, then wildcard receiver.
        let link_keys =
            [link.clone(), ("*".to_string(), to.to_string()), (self.name.clone(), "*".to_string())];
        // Deterministic forced drop (highest precedence).
        {
            let mut forced = self.fabric.forced_drops.write();
            for key in &link_keys {
                if let Some(remaining) = forced.get_mut(key) {
                    if *remaining > 0 {
                        *remaining -= 1;
                        if *remaining == 0 {
                            forced.remove(key);
                        }
                        self.fabric.stats.lock().record_drop(&self.name, to);
                        self.probe_event("net.dropped", None);
                        return Ok(());
                    }
                }
            }
        }
        // Stochastic drop: the larger of the global and per-link rates.
        let p = {
            let global = *self.fabric.drop_probability.read();
            let map = self.fabric.link_drop_probability.read();
            let per_link = link_keys.iter().find_map(|key| map.get(key).copied()).unwrap_or(0.0);
            global.max(per_link)
        };
        if p > 0.0 {
            let mut rng = self.fabric.rng.lock();
            if let Some(rng) = rng.as_mut() {
                if rng.gen_bool(p) {
                    self.fabric.stats.lock().record_drop(&self.name, to);
                    self.probe_event("net.dropped", None);
                    return Ok(());
                }
            }
        }
        let delay = self.fabric.latency.read().delay(&self.name, to);
        let seq = self.fabric.seq.fetch_add(1, Ordering::Relaxed);
        let message = Message { from: self.name.clone(), to: to.to_string(), body, seq };
        self.fabric.stats.lock().record_send(&self.name, to, message.body.len());
        self.probe_event("net.messages", Some(&message.body));
        let envelope = Envelope { message, deliver_at: Instant::now() + delay };
        tx.send(envelope).map_err(|_| NetError::Disconnected)?;
        Ok(())
    }

    /// Receives the next message, waiting at most `timeout`. Honours each
    /// message's simulated delivery time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, NetError> {
        let deadline = Instant::now() + timeout;
        let envelope = match self.rx.recv_deadline(deadline) {
            Ok(e) => e,
            Err(RecvTimeoutError::Timeout) => return Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => return Err(NetError::Disconnected),
        };
        // Wait out the simulated flight time (senders enqueue instantly).
        let now = Instant::now();
        if envelope.deliver_at > now {
            std::thread::sleep(envelope.deliver_at - now);
        }
        Ok(envelope.message)
    }

    /// Receives with a generous default timeout (tests, servers).
    pub fn recv(&self) -> Result<Message, NetError> {
        self.recv_timeout(Duration::from_secs(10))
    }

    /// True when a message is ready in the mailbox (may still be in
    /// simulated flight).
    pub fn has_mail(&self) -> bool {
        !self.rx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        a.send("b", "hello").unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.from, "a");
        assert_eq!(m.body, "hello");
    }

    #[test]
    fn unknown_site_is_an_error() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        assert!(matches!(a.send("ghost", "x"), Err(NetError::UnknownSite(_))));
    }

    #[test]
    fn duplicate_site_rejected() {
        let net = Network::new();
        let _a = net.register("a").unwrap();
        assert!(matches!(net.register("a"), Err(NetError::DuplicateSite(_))));
    }

    #[test]
    fn messages_preserve_order_per_link() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        for i in 0..10 {
            a.send("b", format!("m{i}")).unwrap();
        }
        for i in 0..10 {
            assert_eq!(b.recv().unwrap().body, format!("m{i}"));
        }
    }

    #[test]
    fn partition_refuses_sends_and_heals() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        net.partition("a", "b");
        assert!(matches!(a.send("b", "x"), Err(NetError::Partitioned { .. })));
        assert!(matches!(b.send("a", "x"), Err(NetError::Partitioned { .. })));
        net.heal("a", "b");
        a.send("b", "x").unwrap();
        assert_eq!(b.recv().unwrap().body, "x");
        assert_eq!(net.stats().refused, 2);
    }

    #[test]
    fn wildcard_partition_cuts_a_site_off_from_every_peer() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let c = net.register("c").unwrap();
        net.partition("*", "b");
        assert!(matches!(a.send("b", "x"), Err(NetError::Partitioned { .. })));
        assert!(matches!(b.send("c", "x"), Err(NetError::Partitioned { .. })));
        a.send("c", "x").unwrap();
        assert_eq!(c.recv().unwrap().body, "x");
        net.heal("*", "b");
        a.send("b", "y").unwrap();
        assert_eq!(b.recv().unwrap().body, "y");
    }

    #[test]
    fn registration_is_observable_without_traffic() {
        let net = Network::new();
        assert!(!net.is_registered("a"));
        let _a = net.register("a").unwrap();
        assert!(net.is_registered("a"));
        net.deregister("a");
        assert!(!net.is_registered("a"));
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let net = Network::with_seed(7);
        net.set_drop_probability(1.0);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        a.send("b", "x").unwrap(); // sender cannot tell
        assert!(matches!(b.recv_timeout(Duration::from_millis(20)), Err(NetError::Timeout)));
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn per_link_drop_probability_only_affects_that_link() {
        let net = Network::with_seed(11);
        net.set_link_drop_probability("a", "b", 1.0);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        a.send("b", "lost").unwrap();
        assert!(matches!(b.recv_timeout(Duration::from_millis(20)), Err(NetError::Timeout)));
        // The reverse direction is unaffected.
        b.send("a", "ok").unwrap();
        assert_eq!(a.recv().unwrap().body, "ok");
        assert_eq!(net.stats().link_dropped("a", "b"), 1);
        assert_eq!(net.stats().link_dropped("b", "a"), 0);
        net.clear_link_drop_probability("a", "b");
        a.send("b", "healed").unwrap();
        assert_eq!(b.recv().unwrap().body, "healed");
    }

    #[test]
    fn wildcard_link_drop_matches_any_peer() {
        let net = Network::with_seed(3);
        net.set_link_drop_probability("*", "b", 1.0);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let c = net.register("c").unwrap();
        a.send("b", "x").unwrap();
        c.send("b", "y").unwrap();
        assert!(matches!(b.recv_timeout(Duration::from_millis(20)), Err(NetError::Timeout)));
        assert_eq!(net.stats().dropped, 2, "both senders hit the wildcard link");
        // Other destinations are unaffected.
        b.send("a", "ok").unwrap();
        assert_eq!(a.recv().unwrap().body, "ok");
        // An exact entry takes precedence over the wildcard.
        net.set_link_drop_probability("a", "b", 0.0);
        a.send("b", "through").unwrap();
        assert_eq!(b.recv().unwrap().body, "through");
    }

    #[test]
    fn wildcard_forced_drop_loses_next_outgoing_message() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        net.drop_next("a", "*", 1);
        a.send("b", "lost").unwrap();
        a.send("b", "kept").unwrap();
        assert_eq!(b.recv().unwrap().body, "kept");
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn drop_next_loses_exactly_n_messages() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        net.drop_next("a", "b", 2);
        a.send("b", "one").unwrap();
        a.send("b", "two").unwrap();
        a.send("b", "three").unwrap();
        assert_eq!(b.recv().unwrap().body, "three");
        assert!(matches!(b.recv_timeout(Duration::from_millis(10)), Err(NetError::Timeout)));
        assert_eq!(net.stats().dropped, 2);
    }

    #[test]
    fn injected_delay_spikes_slow_one_link() {
        let net = Network::new();
        net.inject_link_delay("a", "b", Duration::from_millis(30));
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let start = Instant::now();
        a.send("b", "x").unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
        net.clear_link_delay("a", "b");
        let start = Instant::now();
        a.send("b", "y").unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() < Duration::from_millis(25));
    }

    #[test]
    fn latency_delays_delivery() {
        let net = Network::new();
        let mut model = LatencyModel::instant();
        model.set_link("a", "b", Duration::from_millis(30));
        net.set_latency(model);
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let start = Instant::now();
        a.send("b", "x").unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn latency_overlaps_for_messages_in_flight() {
        // Two messages sent at once through 30 ms links arrive ~together,
        // not serially — the property parallel plans rely on.
        let net = Network::new();
        net.set_latency(LatencyModel::uniform(Duration::from_millis(30)));
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let start = Instant::now();
        a.send("b", "one").unwrap();
        a.send("b", "two").unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(30));
        assert!(elapsed < Duration::from_millis(55), "elapsed {elapsed:?}");
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        let _b = net.register("b").unwrap();
        a.send("b", "12345").unwrap();
        a.send("b", "1").unwrap();
        let s = net.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 6);
        assert_eq!(s.link_messages("a", "b"), 2);
        net.reset_stats();
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn probe_ticks_clock_and_counts_traffic() {
        let net = Network::new();
        let clock = LogicalClock::new();
        let metrics = MetricsRegistry::new();
        net.attach_probe(clock.clone(), metrics.clone());
        let a = net.register("a").unwrap();
        let _b = net.register("b").unwrap();
        a.send("b", "12345").unwrap();
        net.drop_next("a", "b", 1);
        a.send("b", "lost").unwrap();
        assert_eq!(clock.now(), 2, "one tick per observable network event");
        assert_eq!(metrics.counter("net.messages"), 1);
        assert_eq!(metrics.counter("net.bytes"), 5);
        assert_eq!(metrics.counter("net.bytes_text"), 5);
        assert_eq!(metrics.counter("net.bytes_binary"), 0);
        assert_eq!(metrics.counter("net.dropped"), 1);
    }

    #[test]
    fn binary_bodies_ship_and_count_separately() {
        let net = Network::new();
        let clock = LogicalClock::new();
        let metrics = MetricsRegistry::new();
        net.attach_probe(clock.clone(), metrics.clone());
        let a = net.register("a").unwrap();
        let b = net.register("b").unwrap();
        let pool = crate::pool::BufferPool::new(4);
        let mut frame = pool.lease();
        frame.extend_from_slice(&[0xB1, 0x01, 0x00]);
        a.send("b", frame).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.body.as_binary(), Some(&[0xB1u8, 0x01, 0x00][..]));
        assert_eq!(metrics.counter("net.bytes"), 3);
        assert_eq!(metrics.counter("net.bytes_binary"), 3);
        assert_eq!(metrics.counter("net.bytes_text"), 0);
        assert_eq!(clock.now(), 1, "format does not change tick accounting");
        drop(m);
        assert_eq!(pool.idle(), 1, "receiver-side drop refills the sender's pool");
    }

    #[test]
    fn timeout_when_no_mail() {
        let net = Network::new();
        let a = net.register("a").unwrap();
        assert!(matches!(a.recv_timeout(Duration::from_millis(10)), Err(NetError::Timeout)));
    }

    #[test]
    fn cross_thread_usage() {
        let net = Network::new();
        let server = net.register("server").unwrap();
        let client = net.register("client").unwrap();
        let handle = std::thread::spawn(move || {
            let m = server.recv().unwrap();
            server.send(&m.from, format!("echo:{}", m.body)).unwrap();
        });
        client.send("server", "ping").unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(reply.body, "echo:ping");
        handle.join().unwrap();
    }
}
