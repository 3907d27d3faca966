//! A real multi-threaded deployment of the token-passing protocols.
//!
//! Each node runs on its own OS thread, hosting one [`atp_net::Harness`]
//! per shard; messages travel as **encoded byte frames** (see
//! [`crate::codec`]) inside a [`crate::encode_shard_frame`] envelope over
//! a pluggable byte [`Transport`] — in-process mpsc channels by default
//! ([`Cluster::start`]), or real loopback TCP sockets
//! ([`Cluster::start_on`] with [`atp_net::TcpTransport`]). The exact
//! on-the-wire protocol is exercised either way. Ticks are mapped to
//! wall-clock time through [`ClusterConfig::tick`].
//!
//! One node loop serves both front ends: [`Cluster`] is the `K = 1` case
//! with node-addressed requests, and [`ShardedCluster`] runs `K`
//! consistent-hash shards with key-addressed requests.
//!
//! The cluster is generic over `P:` [`WireProtocol`], defaulting to System
//! BinarySearch; any of the four protocol families deploys unchanged.
//!
//! Inbound frames are **untrusted network input**: frames that fail to
//! decode are counted ([`Cluster::decode_errors`]) and dropped, never
//! panicked on — a peer speaking garbage cannot take a node down.
//!
//! ```rust
//! use atp_core::{Cluster, ClusterConfig, TokenEvent};
//! use atp_net::NodeId;
//! use std::time::Duration;
//!
//! let cluster: Cluster = Cluster::start(ClusterConfig::new(4));
//! cluster.request(NodeId::new(2), 42);
//! let granted = cluster.await_grant(NodeId::new(2), Duration::from_secs(5));
//! assert!(granted);
//! cluster.shutdown();
//! ```

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atp_net::{
    ChanTransport, CloseReport, Endpoint, Harness, NodeId, SimTime, Topology, Transport,
};

use crate::binary::BinaryNode;
use crate::codec::{decode_shard_frame, encode_shard_frame};
use crate::config::ProtocolConfig;
use crate::event::{TokenEvent, Want};
use crate::shard::{ShardId, ShardMap};
use crate::wire::WireProtocol;

/// Configuration for a threaded [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (threads).
    pub n: usize,
    /// Protocol tunables. The default enables adaptive token speed so an
    /// idle cluster does not spin the token at channel speed.
    pub protocol: ProtocolConfig,
    /// Wall-clock duration of one simulated tick.
    pub tick: Duration,
    /// RNG seed base (node `i` uses `seed + i`).
    pub seed: u64,
}

impl ClusterConfig {
    /// Sensible defaults for `n` nodes: 1 ms ticks, adaptive token speed.
    pub fn new(n: usize) -> Self {
        ClusterConfig {
            n,
            protocol: ProtocolConfig::default()
                .with_adaptive_speed(true)
                .with_max_idle_pass_ticks(64),
            tick: Duration::from_millis(1),
            seed: 0,
        }
    }

    /// Overrides the protocol configuration.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the tick duration.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Out-of-band control messages to one node thread (the data plane is the
/// transport; this channel carries only what a real deployment would get
/// from its local host).
enum Control {
    External(ShardId, Want),
    Shutdown,
}

enum Due {
    Timer { shard: ShardId, kind: u64 },
    Send { to: NodeId, frame: Vec<u8> },
}

struct DueEntry {
    at: Instant,
    seq: u64,
    what: Due,
}

impl PartialEq for DueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DueEntry {}
impl PartialOrd for DueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (at, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Turns a node's event into an item of the cluster's merged stream, so
/// each front end keeps its own event type over the one node loop.
type Tag<Ev> = fn(ShardId, NodeId, TokenEvent) -> Ev;

/// Counters the node threads of one cluster update.
#[derive(Default)]
struct Counters {
    /// Grants for every (node, shard) pair, `n × K`, at `node * K + shard`.
    grants: Mutex<Vec<u64>>,
    decode_errors: AtomicU64,
    frames_lost: AtomicU64,
}

/// What every node thread of one cluster shares.
#[derive(Clone)]
struct NodeShared<Ev> {
    topology: Topology,
    /// One protocol configuration per shard; its length is `K`.
    shard_cfgs: Arc<[ProtocolConfig]>,
    tick: Duration,
    tag: Tag<Ev>,
    events_tx: Sender<Ev>,
    counters: Arc<Counters>,
}

/// The node threads of a running cluster, the senders that steer them,
/// their merged event stream and the counters they update. Dropping it
/// stops and joins every thread.
struct Core<Ev: Clone + Send + 'static> {
    senders: Vec<Sender<Control>>,
    events_rx: Receiver<Ev>,
    threads: Vec<JoinHandle<CloseReport>>,
    counters: Arc<Counters>,
}

impl<Ev: Clone + Send + 'static> Core<Ev> {
    /// Starts `n` node threads on transport `T`, each hosting one instance
    /// of `P` per entry of `shard_cfgs`.
    fn start<P: WireProtocol, T: Transport>(
        n: usize,
        shard_cfgs: Vec<ProtocolConfig>,
        tick: Duration,
        seed: u64,
        tag: Tag<Ev>,
    ) -> std::io::Result<Self> {
        assert!(n > 0, "cluster needs at least one node");
        let endpoints = T::endpoints(n)?;
        let (events_tx, events_rx) = channel();
        let counters = Arc::new(Counters {
            grants: Mutex::new(vec![0u64; n * shard_cfgs.len()]),
            ..Counters::default()
        });
        let shared = NodeShared {
            topology: Topology::ring(n),
            shard_cfgs: shard_cfgs.into(),
            tick,
            tag,
            events_tx,
            counters: Arc::clone(&counters),
        };
        let mut senders = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for (i, endpoint) in endpoints.into_iter().enumerate() {
            let (tx, rx) = channel();
            senders.push(tx);
            let id = NodeId::new(i as u32);
            let seed = seed.wrapping_add(i as u64);
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || {
                node_main::<P, T::Endpoint, Ev>(id, seed, rx, endpoint, shared)
            }));
        }
        Ok(Core {
            senders,
            events_rx,
            threads,
            counters,
        })
    }

    /// Blocks until an event matching `hit` arrives, or `timeout` elapses.
    /// Other events arriving in between are discarded.
    fn await_event(&self, timeout: Duration, hit: impl Fn(&Ev) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            match self.events_rx.recv_timeout(left) {
                Ok(ev) if hit(&ev) => return true,
                Ok(_) => {}
                Err(_) => return false,
            }
        }
        false
    }

    /// The `n × K` grant counters observed so far.
    fn grant_matrix(&self) -> Vec<u64> {
        self.counters
            .grants
            .lock()
            .expect("grant counters poisoned")
            .clone()
    }

    /// Stops every node thread, waits for them to exit, and returns each
    /// node's transport teardown report.
    fn join_all(&mut self) -> Vec<CloseReport> {
        for tx in &self.senders {
            let _ = tx.send(Control::Shutdown);
        }
        self.threads
            .drain(..)
            .map(|t| t.join().unwrap_or_default())
            .collect()
    }
}

impl<Ev: Clone + Send + 'static> Drop for Core<Ev> {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// A handle for injecting requests into one node of a running [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterHandle {
    node: NodeId,
    tx: Sender<Control>,
}

impl ClusterHandle {
    /// The node this handle addresses.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Makes the node ready: it will acquire the token and broadcast
    /// `payload`. Watch the cluster's event stream for the grant.
    pub fn want(&self, payload: u64) {
        let want = Want::new(payload);
        let _ = self.tx.send(Control::External(ShardId(0), want));
    }
}

/// A running multi-threaded token-passing cluster: the single-shard case
/// of the node loop [`ShardedCluster`] also runs, with node-addressed
/// requests.
pub struct Cluster<P: WireProtocol = BinaryNode> {
    core: Core<(NodeId, TokenEvent)>,
    _protocol: std::marker::PhantomData<P>,
}

impl<P: WireProtocol> std::fmt::Debug for Cluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("protocol", &P::LABEL)
            .field("n", &self.len())
            .field("grants", &self.grants())
            .finish()
    }
}

impl<P: WireProtocol> Cluster<P> {
    /// Starts `config.n` node threads over in-process channels and mints
    /// the token at node 0.
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0`.
    pub fn start(config: ClusterConfig) -> Self {
        Cluster::start_on::<ChanTransport>(config).expect("channel transport is infallible")
    }

    /// Starts the cluster on an arbitrary byte transport (e.g.
    /// [`atp_net::TcpTransport`] for real loopback sockets).
    ///
    /// # Errors
    ///
    /// Propagates transport construction failures (socket binds).
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0`.
    pub fn start_on<T: Transport>(config: ClusterConfig) -> std::io::Result<Self> {
        // One shard with the configuration as given, so the token is
        // minted wherever `config.protocol` says (node 0 by default).
        let core = Core::start::<P, T>(
            config.n,
            vec![config.protocol],
            config.tick,
            config.seed,
            |_, node, ev| (node, ev),
        )?;
        Ok(Cluster {
            core,
            _protocol: std::marker::PhantomData,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.core.senders.len()
    }

    /// Always `false`: clusters have at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A cloneable handle to one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn handle(&self, node: NodeId) -> ClusterHandle {
        ClusterHandle {
            node,
            tx: self.core.senders[node.index()].clone(),
        }
    }

    /// Makes `node` ready with `payload` (shorthand for
    /// [`Cluster::handle`] + [`ClusterHandle::want`]).
    pub fn request(&self, node: NodeId, payload: u64) {
        self.handle(node).want(payload);
    }

    /// The merged event stream of all nodes.
    pub fn events(&self) -> &Receiver<(NodeId, TokenEvent)> {
        &self.core.events_rx
    }

    /// Blocks until `node` reports a grant, or `timeout` elapses.
    /// Other events arriving in between are discarded.
    pub fn await_grant(&self, node: NodeId, timeout: Duration) -> bool {
        self.core.await_event(timeout, |(who, ev)| {
            *who == node && matches!(ev, TokenEvent::Granted { .. })
        })
    }

    /// Per-node grant counters observed so far.
    pub fn grants(&self) -> Vec<u64> {
        // With K = 1 the `n × K` matrix is already one counter per node.
        self.core.grant_matrix()
    }

    /// Inbound frames that failed to decode (and were dropped). Nonzero
    /// means a peer — or an interloper — sent bytes that are not valid
    /// protocol frames; the protocol's retransmit machinery covers any
    /// real frame mangled in transit.
    pub fn decode_errors(&self) -> u64 {
        self.core.counters.decode_errors.load(Ordering::Relaxed)
    }

    /// Frames the transport dropped (unreachable peers, severed streams),
    /// summed over all nodes.
    pub fn frames_lost(&self) -> u64 {
        self.core.counters.frames_lost.load(Ordering::Relaxed)
    }

    /// Stops every node thread, waits for them to exit, and returns each
    /// node's transport teardown report (assert
    /// [`CloseReport::is_clean`] to prove no thread leaked).
    pub fn shutdown(mut self) -> Vec<CloseReport> {
        self.core.join_all()
    }
}

/// Configuration for a [`ShardedCluster`].
#[derive(Debug, Clone)]
pub struct ShardedClusterConfig {
    /// Number of nodes (threads).
    pub n: usize,
    /// Number of shards `K` (independent tokens).
    pub shards: u16,
    /// Protocol tunables applied to every shard; each shard's
    /// `initial_holder` is overridden with its consistent-hash home.
    pub protocol: ProtocolConfig,
    /// Wall-clock duration of one simulated tick.
    pub tick: Duration,
    /// RNG seed base (node `i`, shard `s` uses `seed + i` namespaced by `s`).
    pub seed: u64,
}

impl ShardedClusterConfig {
    /// Sensible defaults for `n` nodes and `k` shards.
    pub fn new(n: usize, shards: u16) -> Self {
        ShardedClusterConfig {
            n,
            shards,
            protocol: ProtocolConfig::default()
                .with_adaptive_speed(true)
                .with_max_idle_pass_ticks(64),
            tick: Duration::from_millis(1),
            seed: 0,
        }
    }

    /// Overrides the protocol configuration.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the tick duration.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A running multi-token cluster: `K` independent instances of protocol
/// `P` multiplexed over one transport, with **key-addressed** requests.
///
/// Callers no longer pick a node: [`ShardedCluster::request`] hashes the
/// key to a shard ([`ShardMap::shard_of_key`]), and the `Want` enters at
/// the shard's consistent-hash home node. On the wire every frame is a
/// [`crate::encode_shard_frame`] envelope; each node thread demuxes by
/// shard id into one [`Harness`] per shard, so a frame from shard *i*
/// can never perturb shard *j*.
///
/// ```rust
/// use atp_core::{ShardedCluster, ShardedClusterConfig};
/// use std::time::Duration;
///
/// let cluster: ShardedCluster = ShardedCluster::start(
///     ShardedClusterConfig::new(3, 4).with_tick(Duration::from_micros(200)),
/// );
/// cluster.request(0xfeed, 42); // key-addressed: no NodeId in sight
/// assert!(cluster.await_grant(0xfeed, Duration::from_secs(10)));
/// cluster.shutdown();
/// ```
pub struct ShardedCluster<P: WireProtocol = BinaryNode> {
    map: ShardMap,
    core: Core<(ShardId, NodeId, TokenEvent)>,
    _protocol: std::marker::PhantomData<P>,
}

impl<P: WireProtocol> std::fmt::Debug for ShardedCluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("protocol", &P::LABEL)
            .field("n", &self.len())
            .field("shards", &self.map.shards())
            .finish()
    }
}

impl<P: WireProtocol> ShardedCluster<P> {
    /// Starts `config.n` node threads over in-process channels, each
    /// hosting `config.shards` protocol instances.
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0` or `config.shards == 0`.
    pub fn start(config: ShardedClusterConfig) -> Self {
        ShardedCluster::start_on::<ChanTransport>(config).expect("channel transport is infallible")
    }

    /// Starts the sharded cluster on an arbitrary byte transport.
    ///
    /// # Errors
    ///
    /// Propagates transport construction failures (socket binds).
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0` or `config.shards == 0`.
    pub fn start_on<T: Transport>(config: ShardedClusterConfig) -> std::io::Result<Self> {
        let map = ShardMap::new(config.shards, config.n);
        // Each shard mints its token at its consistent-hash home.
        let shard_cfgs = (0..config.shards)
            .map(|s| config.protocol.with_initial_holder(map.owner(ShardId(s))))
            .collect();
        let core = Core::start::<P, T>(
            config.n,
            shard_cfgs,
            config.tick,
            config.seed,
            |shard, node, ev| (shard, node, ev),
        )?;
        Ok(ShardedCluster {
            map,
            core,
            _protocol: std::marker::PhantomData,
        })
    }

    /// The placement table (key → shard → home node).
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.core.senders.len()
    }

    /// Always `false`: clusters have at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Key-addressed request: hashes `key` to a shard and makes that
    /// shard's ring acquire its token to broadcast `payload`. Returns the
    /// shard the key routed to.
    pub fn request(&self, key: u64, payload: u64) -> ShardId {
        let shard = self.map.shard_of_key(key);
        let home = self.map.home(shard);
        let _ = self.core.senders[home.index()].send(Control::External(shard, Want::new(payload)));
        shard
    }

    /// The merged event stream of all shards on all nodes.
    pub fn events(&self) -> &Receiver<(ShardId, NodeId, TokenEvent)> {
        &self.core.events_rx
    }

    /// Blocks until `key`'s shard reports a grant, or `timeout` elapses.
    pub fn await_grant(&self, key: u64, timeout: Duration) -> bool {
        let shard = self.map.shard_of_key(key);
        self.core.await_event(timeout, |(s, _, ev)| {
            *s == shard && matches!(ev, TokenEvent::Granted { .. })
        })
    }

    /// Per-shard grant counters observed so far.
    pub fn grants(&self) -> Vec<u64> {
        let matrix = self.core.grant_matrix();
        let k = usize::from(self.map.shards());
        (0..k)
            .map(|s| matrix.iter().skip(s).step_by(k).sum())
            .collect()
    }

    /// Inbound frames that failed to decode (bad envelope, unknown shard
    /// id, or inner-frame garbage), summed over all nodes.
    pub fn decode_errors(&self) -> u64 {
        self.core.counters.decode_errors.load(Ordering::Relaxed)
    }

    /// Stops every node thread and returns each node's transport
    /// teardown report.
    pub fn shutdown(mut self) -> Vec<CloseReport> {
        self.core.join_all()
    }
}

/// One node thread: `K` protocol instances (one [`Harness`] per shard)
/// sharing one endpoint, one control channel and one due-time heap.
fn node_main<P: WireProtocol, E: Endpoint, Ev>(
    id: NodeId,
    seed: u64,
    rx: Receiver<Control>,
    mut endpoint: E,
    shared: NodeShared<Ev>,
) -> CloseReport {
    let counters = &shared.counters;
    let start = Instant::now();
    let ticks_now = |start: Instant| -> SimTime {
        let t = start.elapsed().as_nanos() / shared.tick.as_nanos().max(1);
        SimTime::from_ticks(t as u64)
    };
    // One protocol instance per shard, each with its own token home, its
    // own generation space (shards never share frames), and a
    // shard-namespaced RNG seed (shard 0 keeps the node's seed as is).
    let k = shared.shard_cfgs.len();
    let mut harnesses: Vec<Harness<P>> = shared
        .shard_cfgs
        .iter()
        .enumerate()
        .map(|(s, &cfg)| {
            Harness::new(
                id,
                shared.topology,
                P::build(cfg),
                seed ^ ((s as u64) << 32),
            )
        })
        .collect();
    let mut heap: BinaryHeap<DueEntry> = BinaryHeap::new();
    let mut seq = 0u64;
    let now0 = ticks_now(start);
    for h in harnesses.iter_mut() {
        h.init(now0);
    }

    loop {
        // Flush effects of the last dispatch, shard by shard. Events go
        // out *before* any outbound frames: once the token frame is on the
        // wire, the receiver can grant and publish its event, so
        // publishing our own events first is what keeps the merged event
        // stream causally ordered (Released always observed before the
        // next Granted).
        let mut staged = false;
        for (s, harness) in harnesses.iter_mut().enumerate() {
            let shard = ShardId(s as u16);
            for ev in harness.node_mut().take_events() {
                if matches!(ev, TokenEvent::Granted { .. }) {
                    let mut grants = counters.grants.lock().expect("grant counters poisoned");
                    grants[id.index() * k + s] += 1;
                }
                let _ = shared.events_tx.send((shared.tag)(shard, id, ev));
            }
            for ob in harness.take_outbound() {
                let frame = encode_shard_frame(shard.0, &P::encode_msg(&ob.msg));
                if ob.hold == 0 {
                    endpoint.stage(ob.to, &frame);
                    staged = true;
                } else {
                    seq += 1;
                    heap.push(DueEntry {
                        at: Instant::now() + shared.tick * ob.hold as u32,
                        seq,
                        what: Due::Send { to: ob.to, frame },
                    });
                }
            }
            for t in harness.take_timers() {
                seq += 1;
                heap.push(DueEntry {
                    at: Instant::now() + shared.tick * t.delay as u32,
                    seq,
                    what: Due::Timer {
                        shard,
                        kind: t.kind,
                    },
                });
            }
        }
        if staged {
            endpoint.flush();
        }
        // Fire overdue entries.
        let now = Instant::now();
        if let Some(head) = heap.peek() {
            if head.at <= now {
                let entry = heap.pop().expect("peeked");
                match entry.what {
                    Due::Timer { shard, kind } => {
                        harnesses[shard.index()].fire_timer(ticks_now(start), kind)
                    }
                    Due::Send { to, frame } => {
                        endpoint.stage(to, &frame);
                        endpoint.flush();
                    }
                }
                continue;
            }
        }

        // Control plane first (non-blocking), then block on the data plane
        // until the next due entry (capped so control stays responsive).
        match rx.try_recv() {
            Ok(Control::External(shard, want)) => {
                harnesses[shard.index()].external(ticks_now(start), want);
                continue;
            }
            Ok(Control::Shutdown) | Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {}
        }
        let wait = heap
            .peek()
            .map(|e| e.at.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(5))
            .min(Duration::from_millis(5));
        if let Some((from, frame)) = endpoint.recv_timeout(wait) {
            // Untrusted network input, two layers deep: a bad envelope,
            // an out-of-range shard id, or inner garbage each count and
            // drop — one shard's garbage never reaches another's state.
            // The sender's retransmit layer re-covers anything that
            // mattered.
            match decode_shard_frame(&frame) {
                Ok((s, inner)) if (s as usize) < k => match P::decode_msg(inner) {
                    Ok(msg) => harnesses[s as usize].deliver(ticks_now(start), from, msg),
                    Err(_) => {
                        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    }
                },
                _ => {
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    let report = endpoint.close();
    counters
        .frames_lost
        .fetch_add(endpoint.frames_lost(), Ordering::Relaxed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::ChanEndpoint;

    use crate::binary::BinaryMsg;
    use crate::naimi::NaimiNode;
    use crate::ring::RingNode;
    use crate::search::SearchNode;

    #[test]
    fn cluster_grants_a_request() {
        let cluster: Cluster = Cluster::start(ClusterConfig::new(3).with_tick(Duration::from_micros(200)));
        cluster.request(NodeId::new(1), 7);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(10)));
        assert_eq!(cluster.decode_errors(), 0);
        cluster.shutdown();
    }

    #[test]
    fn cluster_serves_concurrent_requesters() {
        let cluster: Cluster = Cluster::start(ClusterConfig::new(4).with_tick(Duration::from_micros(200)));
        for i in 0..4 {
            cluster.request(NodeId::new(i), i as u64);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut granted = [false; 4];
        while granted.iter().any(|g| !g) && Instant::now() < deadline {
            if let Ok((who, TokenEvent::Granted { .. })) =
                cluster.events().recv_timeout(Duration::from_millis(500))
            {
                granted[who.index()] = true;
            }
        }
        assert_eq!(granted, [true; 4]);
        assert_eq!(cluster.grants(), vec![1, 1, 1, 1], "one grant per node");
        cluster.shutdown();
    }

    #[test]
    fn handles_are_cloneable_and_attributed() {
        let cluster: Cluster = Cluster::start(ClusterConfig::new(2).with_tick(Duration::from_micros(200)));
        let h = cluster.handle(NodeId::new(1));
        let h2 = h.clone();
        assert_eq!(h2.node(), NodeId::new(1));
        h2.want(5);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(10)));
        cluster.shutdown();
    }

    #[test]
    fn every_protocol_deploys_on_channels() {
        fn serve_one<P: WireProtocol>() {
            let cluster: Cluster<P> =
                Cluster::start(ClusterConfig::new(3).with_tick(Duration::from_micros(200)));
            cluster.request(NodeId::new(2), 1);
            assert!(
                cluster.await_grant(NodeId::new(2), Duration::from_secs(15)),
                "{} never granted",
                P::LABEL
            );
            for report in cluster.shutdown() {
                assert!(report.is_clean());
            }
        }
        serve_one::<RingNode>();
        serve_one::<SearchNode>();
        serve_one::<BinaryNode>();
        serve_one::<NaimiNode>();
    }

    /// The undecodable frames node 0 reads before any real frame: byte
    /// soup with no envelope tag, an envelope naming a shard no cluster
    /// here has, an envelope cut short after its tag, and a well-formed
    /// envelope around inner garbage.
    fn garbage_frames() -> Vec<Vec<u8>> {
        // 0xff is no protocol's tag and not the envelope's.
        let soup = vec![0xff, 0xee, 0xdd];
        let mut frames = vec![soup.clone(); 10];
        let probe = BinaryMsg::ProbeReq {
            holder: NodeId::new(1),
            span: 1,
        };
        frames.push(encode_shard_frame(u16::MAX, &BinaryNode::encode_msg(&probe)));
        frames.push(encode_shard_frame(0, &[])[..1].to_vec());
        frames.push(encode_shard_frame(0, &soup));
        frames
    }

    /// A transport that delivers byte soup alongside real traffic: node 0's
    /// endpoint yields [`garbage_frames`] before any real receive. The
    /// cluster must count them and keep serving — the network-facing
    /// decode path never panics on garbage.
    struct GarbageChanTransport;

    struct GarbageEndpoint {
        inner: ChanEndpoint,
        garbage: Vec<Vec<u8>>,
    }

    impl Endpoint for GarbageEndpoint {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn stage(&mut self, to: NodeId, frame: &[u8]) {
            self.inner.stage(to, frame);
        }
        fn flush(&mut self) {
            self.inner.flush();
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
            // A valid sender id keeps the blame on the payload.
            if let Some(frame) = self.garbage.pop() {
                return Some((NodeId::new(1), frame));
            }
            self.inner.recv_timeout(timeout)
        }
        fn frames_lost(&self) -> u64 {
            self.inner.frames_lost()
        }
        fn close(&mut self) -> CloseReport {
            self.inner.close()
        }
    }

    impl Transport for GarbageChanTransport {
        type Endpoint = GarbageEndpoint;
        fn label() -> &'static str {
            "chan+garbage"
        }
        fn endpoints(n: usize) -> std::io::Result<Vec<GarbageEndpoint>> {
            Ok(ChanTransport::endpoints(n)?
                .into_iter()
                .enumerate()
                .map(|(i, inner)| GarbageEndpoint {
                    inner,
                    garbage: if i == 0 { garbage_frames() } else { Vec::new() },
                })
                .collect())
        }
    }

    /// Waits (bounded) until `count` reaches `want`, then returns it. Node
    /// 0 reads its garbage on its first idle polls, but a request served
    /// elsewhere need not wait for that.
    fn settled(count: impl Fn() -> u64, want: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        while count() < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        count()
    }

    #[test]
    fn garbage_frames_are_counted_and_service_continues() {
        let injected = garbage_frames().len() as u64;
        let tick = Duration::from_micros(200);

        let cluster: Cluster = Cluster::start_on::<GarbageChanTransport>(
            ClusterConfig::new(3).with_tick(tick),
        )
        .expect("channel transport is infallible");
        let counted = settled(|| cluster.decode_errors(), injected);
        assert_eq!(counted, injected, "every garbage frame counted");
        cluster.request(NodeId::new(2), 42);
        assert!(
            cluster.await_grant(NodeId::new(2), Duration::from_secs(15)),
            "garbage frames must not stall the cluster"
        );
        assert_eq!(cluster.decode_errors(), injected);
        for report in cluster.shutdown() {
            assert!(report.is_clean());
        }

        let sharded: ShardedCluster = ShardedCluster::start_on::<GarbageChanTransport>(
            ShardedClusterConfig::new(3, 2).with_tick(tick),
        )
        .expect("channel transport is infallible");
        let counted = settled(|| sharded.decode_errors(), injected);
        assert_eq!(counted, injected, "every garbage frame counted");
        for s in 0..2 {
            let key = (0u64..)
                .find(|&k| sharded.map().shard_of_key(k).0 == s)
                .expect("every shard owns some key");
            sharded.request(key, key);
            assert!(
                sharded.await_grant(key, Duration::from_secs(15)),
                "garbage frames must not stall shard {s}"
            );
        }
        assert_eq!(sharded.decode_errors(), injected);
        for report in sharded.shutdown() {
            assert!(report.is_clean());
        }
    }

    #[test]
    fn sharded_cluster_serves_keys_across_shards() {
        let cluster: ShardedCluster = ShardedCluster::start(
            ShardedClusterConfig::new(3, 4).with_tick(Duration::from_micros(200)),
        );
        // Enough distinct keys to hit more than one shard.
        let keys: Vec<u64> = (0..6).map(|i| 0x1000 + 7 * i).collect();
        let mut shards_hit = std::collections::BTreeSet::new();
        for &key in &keys {
            shards_hit.insert(cluster.request(key, key));
        }
        assert!(shards_hit.len() > 1, "keys all hashed to one shard");
        // await_grant discards other shards' events, so tally the merged
        // stream directly: every request must produce a grant.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut granted = 0usize;
        while granted < keys.len() && Instant::now() < deadline {
            if let Ok((_, _, TokenEvent::Granted { .. })) =
                cluster.events().recv_timeout(Duration::from_millis(500))
            {
                granted += 1;
            }
        }
        assert_eq!(granted, keys.len(), "not every key was granted");
        assert_eq!(cluster.decode_errors(), 0);
        let grants = cluster.grants();
        assert_eq!(grants.len(), 4, "one counter per shard");
        assert_eq!(grants.iter().sum::<u64>(), keys.len() as u64);
        for report in cluster.shutdown() {
            assert!(report.is_clean());
        }
    }

    #[test]
    fn sharded_cluster_runs_over_tcp_loopback() {
        let cluster: ShardedCluster<NaimiNode> =
            ShardedCluster::start_on::<atp_net::TcpTransport>(
                ShardedClusterConfig::new(3, 2).with_tick(Duration::from_micros(500)),
            )
            .expect("bind loopback");
        cluster.request(99, 1);
        assert!(cluster.await_grant(99, Duration::from_secs(20)));
        assert_eq!(cluster.decode_errors(), 0);
        for report in cluster.shutdown() {
            assert!(report.is_clean(), "leaked threads: {report:?}");
        }
    }

    #[test]
    fn cluster_runs_over_tcp_loopback() {
        let cluster: Cluster<BinaryNode> = Cluster::start_on::<atp_net::TcpTransport>(
            ClusterConfig::new(3).with_tick(Duration::from_micros(500)),
        )
        .expect("bind loopback");
        cluster.request(NodeId::new(1), 7);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(20)));
        assert_eq!(cluster.decode_errors(), 0);
        for report in cluster.shutdown() {
            assert!(report.is_clean(), "leaked threads: {report:?}");
        }
    }
}
