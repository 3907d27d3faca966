//! The threaded-runtime workloads.
//!
//! * `rt-chan` — the unsharded `Cluster`, n = 8, over in-process channels,
//!   one closed-loop client (C = 1) visiting the nodes round-robin, in an
//!   order drawn from the seed afresh for each round.
//! * `rt-tcp-shards` — `ShardedCluster`, n = 8, K = 4, over loopback TCP,
//!   Zipf keys drawn from the seed, one closed-loop client per core.
//!
//! Load comes from this one generator thread: a client issues its next
//! request only after the grant of its previous one. Each protocol runs in
//! turn on a fresh cluster. A request is timed from `request()` to the
//! generator's receipt of its `Granted` event, matched through the
//! `Requested` event that carries the request id.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use atp_core::{
    Cluster, ClusterConfig, ShardMap, ShardedCluster, ShardedClusterConfig, TokenEvent,
    WireProtocol,
};
use atp_net::{ChanTransport, NodeId, TcpTransport, Transport};
use atp_sim::runner::{ProtocolNode, ProtocolVisitor};
use atp_sim::{KeyDist, Protocol};
use atp_util::rng::{Rng, SeedableRng, StdRng};

use crate::stats::{median, quantile};
use crate::trace::{self, now_ns, pack, Kind, Request, Timed, Traced, PROTOS};
use crate::{input_seed, Outcome, INPUT_SETS};

const NODES: usize = 8;
const SHARDS: u16 = 4;
/// Wall-clock length of one protocol tick (the `cluster` binary's default).
const TICK: Duration = Duration::from_micros(200);
/// Measured requests per protocol per repetition.
const CHAN_REQUESTS: usize = 250;
const TCP_REQUESTS: usize = 200;
/// Zipf keys are ranks in `0..KEY_UNIVERSE` (the `cluster` binary's choice).
const KEY_UNIVERSE: usize = 4 * NODES;
/// A request with no grant by then counts as failed.
const DEADLINE: Duration = Duration::from_secs(10);

static NEXT_PAYLOAD: AtomicU64 = AtomicU64::new(1);

/// Which runtime workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Rt {
    Chan,
    TcpShards,
}

impl Rt {
    fn name(self) -> &'static str {
        match self {
            Rt::Chan => "rt-chan",
            Rt::TcpShards => "rt-tcp-shards",
        }
    }
}

/// One input set of a run.
struct Inputs {
    seed: u64,
    nodes: Vec<u32>,
    keys: Vec<u64>,
    clients: usize,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c1a5_0000_0002);
        let mut nodes = Vec::with_capacity(CHAN_REQUESTS + NODES);
        while nodes.len() < CHAN_REQUESTS {
            let mut round: Vec<u32> = (0..NODES as u32).collect();
            for i in (1..NODES).rev() {
                round.swap(i, rng.gen_range(0..=i));
            }
            nodes.extend(round);
        }
        nodes.truncate(CHAN_REQUESTS);
        let keys = (0..TCP_REQUESTS)
            .map(|_| KeyDist::Zipf.draw(&mut rng, KEY_UNIVERSE))
            .collect();
        let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
        Inputs {
            seed,
            nodes,
            keys,
            clients,
        }
    }
}

/// One protocol's share of a repetition.
#[derive(Default)]
struct ProtoRun {
    setup: f64,
    wall: f64,
    latencies_ms: Vec<f64>,
    per_shard: Vec<u64>,
}

/// Issues one request at `node` and waits for its grant.
fn chan_request<P: WireProtocol>(
    cluster: &Cluster<P>,
    node: u32,
    log: Option<&mut Vec<Request>>,
) -> Option<f64> {
    let payload = NEXT_PAYLOAD.fetch_add(1, Ordering::Relaxed);
    let issued = now_ns();
    let deadline = Instant::now() + DEADLINE;
    cluster.request(NodeId::new(node), payload);
    let mut req = None;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match cluster.events().recv_timeout(left).ok()? {
            (who, TokenEvent::Requested { req: r, .. }) if who.raw() == node && req.is_none() => {
                req = Some(r);
            }
            (who, TokenEvent::Granted { req: r, .. }) if who.raw() == node && req == Some(r) => {
                let granted = now_ns();
                if let Some(log) = log {
                    log.push(Request {
                        proto: trace::proto_of(P::LABEL),
                        payload,
                        req: pack(r),
                        issued,
                        granted,
                    });
                }
                return Some((granted - issued) as f64 / 1e6);
            }
            _ => {}
        }
    }
}

fn chan_run<P: WireProtocol, T: Transport>(
    inputs: &Inputs,
    log: Option<&mut Vec<Request>>,
    out: &mut Outcome,
) -> ProtoRun {
    let mut run = ProtoRun::default();
    out.attempted += inputs.nodes.len() as u64;
    let t0 = Instant::now();
    let config = ClusterConfig::new(NODES)
        .with_tick(TICK)
        .with_seed(inputs.seed);
    let cluster: Cluster<P> = match Cluster::start_on::<T>(config) {
        Ok(c) => c,
        Err(e) => {
            out.failed += inputs.nodes.len() as u64;
            out.problem(format!("{}: start_on failed: {e}", P::LABEL));
            return run;
        }
    };
    trace::set_serving(true);
    // Warm-up: every node served once before measuring.
    let warm = (0..NODES as u32).all(|node| chan_request(&cluster, node, None).is_some());
    run.setup = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut log = log;
    if warm {
        for &node in &inputs.nodes {
            match chan_request(&cluster, node, log.as_deref_mut()) {
                Some(ms) => run.latencies_ms.push(ms),
                None => break,
            }
        }
    }
    run.wall = t1.elapsed().as_secs_f64();
    let unserved = inputs.nodes.len() - run.latencies_ms.len();
    let granted: u64 = cluster.grants().iter().sum();
    let decode_errors = cluster.decode_errors();
    trace::set_serving(false);
    let reports = cluster.shutdown();
    check_run(
        P::LABEL,
        unserved,
        (NODES + inputs.nodes.len()) as u64,
        granted,
        decode_errors,
        reports.iter().all(|r| r.is_clean()),
        out,
    );
    run
}

fn check_run(
    label: &str,
    unserved: usize,
    issued: u64,
    granted: u64,
    decode_errors: u64,
    clean: bool,
    out: &mut Outcome,
) {
    out.failed += unserved as u64;
    if unserved > 0 {
        out.problem(format!(
            "{label}: {unserved} requests without a grant within {DEADLINE:?}"
        ));
    } else if granted != issued {
        out.problem(format!(
            "{label}: {issued} requests issued, {granted} grants counted"
        ));
    }
    if decode_errors != 0 {
        out.problem(format!("{label}: {decode_errors} decode errors"));
    }
    if !clean {
        out.problem(format!("{label}: unclean shutdown (threads leaked)"));
    }
}

/// Runs `keys` through `clients` closed-loop clients; returns the
/// latencies of the requests granted, in grant order.
fn shard_loop<P: WireProtocol>(
    cluster: &ShardedCluster<P>,
    keys: &[u64],
    clients: usize,
    mut log: Option<&mut Vec<Request>>,
) -> Vec<f64> {
    let mut awaiting: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); SHARDS as usize];
    let mut open: HashMap<(u16, u64), (u64, u64)> = HashMap::new();
    let mut latencies = Vec::with_capacity(keys.len());
    let mut next = 0;
    let mut in_flight = 0;
    let issue = |k: usize, awaiting: &mut Vec<VecDeque<(u64, u64)>>| {
        let payload = NEXT_PAYLOAD.fetch_add(1, Ordering::Relaxed);
        let issued = now_ns();
        let shard = cluster.request(keys[k], payload);
        awaiting[shard.index()].push_back((payload, issued));
    };
    while next < keys.len() && in_flight < clients {
        issue(next, &mut awaiting);
        next += 1;
        in_flight += 1;
    }
    while in_flight > 0 {
        let Ok((shard, _, ev)) = cluster.events().recv_timeout(DEADLINE) else {
            break;
        };
        match ev {
            TokenEvent::Requested { req, .. } => {
                if let Some(p) = awaiting[shard.index()].pop_front() {
                    open.insert((shard.0, pack(req)), p);
                }
            }
            TokenEvent::Granted { req, .. } => {
                let Some((payload, issued)) = open.remove(&(shard.0, pack(req))) else {
                    continue;
                };
                let granted = now_ns();
                latencies.push((granted - issued) as f64 / 1e6);
                if let Some(log) = log.as_deref_mut() {
                    log.push(Request {
                        proto: trace::proto_of(P::LABEL),
                        payload,
                        req: pack(req),
                        issued,
                        granted,
                    });
                }
                in_flight -= 1;
                if next < keys.len() {
                    issue(next, &mut awaiting);
                    next += 1;
                    in_flight += 1;
                }
            }
            _ => {}
        }
    }
    latencies
}

fn shard_run<P: WireProtocol, T: Transport>(
    inputs: &Inputs,
    log: Option<&mut Vec<Request>>,
    out: &mut Outcome,
) -> ProtoRun {
    let mut run = ProtoRun::default();
    out.attempted += inputs.keys.len() as u64;
    let t0 = Instant::now();
    let config = ShardedClusterConfig::new(NODES, SHARDS)
        .with_tick(TICK)
        .with_seed(inputs.seed);
    let cluster: ShardedCluster<P> = match ShardedCluster::start_on::<T>(config) {
        Ok(c) => c,
        Err(e) => {
            out.failed += inputs.keys.len() as u64;
            out.problem(format!("{}: start_on failed: {e}", P::LABEL));
            return run;
        }
    };
    trace::set_serving(true);
    // Warm-up: every shard served once before measuring.
    let warm_keys: Vec<u64> = (0..SHARDS)
        .map(|s| {
            (0u64..)
                .find(|&k| cluster.map().shard_of_key(k).0 == s)
                .expect("every shard owns some key")
        })
        .collect();
    let warm = shard_loop(&cluster, &warm_keys, 1, None).len() == warm_keys.len();
    run.setup = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    if warm {
        run.latencies_ms = shard_loop(&cluster, &inputs.keys, inputs.clients, log);
    }
    run.wall = t1.elapsed().as_secs_f64();
    let unserved = inputs.keys.len() - run.latencies_ms.len();
    run.per_shard = cluster.grants();
    let decode_errors = cluster.decode_errors();
    trace::set_serving(false);
    let reports = cluster.shutdown();
    check_run(
        P::LABEL,
        unserved,
        (warm_keys.len() + inputs.keys.len()) as u64,
        run.per_shard.iter().sum(),
        decode_errors,
        reports.iter().all(|r| r.is_clean()),
        out,
    );
    run
}

/// Runs every protocol once; the traced form wraps protocol and transport.
fn rep(
    rt: Rt,
    inputs: &Inputs,
    traced: bool,
    log: &mut Vec<Request>,
    out: &mut Outcome,
) -> Vec<ProtoRun> {
    struct One<'a> {
        rt: Rt,
        inputs: &'a Inputs,
        traced: bool,
        log: &'a mut Vec<Request>,
        out: &'a mut Outcome,
    }
    impl ProtocolVisitor for One<'_> {
        type Out = ProtoRun;
        fn run<P: ProtocolNode>(self) -> ProtoRun {
            trace::set_transport_proto(P::LABEL);
            let (i, o) = (self.inputs, self.out);
            match (self.rt, self.traced) {
                (Rt::Chan, false) => chan_run::<P, ChanTransport>(i, None, o),
                (Rt::Chan, true) => {
                    chan_run::<Timed<P>, Traced<ChanTransport>>(i, Some(self.log), o)
                }
                (Rt::TcpShards, false) => shard_run::<P, TcpTransport>(i, None, o),
                (Rt::TcpShards, true) => {
                    shard_run::<Timed<P>, Traced<TcpTransport>>(i, Some(self.log), o)
                }
            }
        }
    }
    Protocol::ALL
        .iter()
        .map(|p| {
            p.dispatch(One {
                rt,
                inputs,
                traced,
                log: &mut *log,
                out: &mut *out,
            })
        })
        .collect()
}

/// `rt-chan` and `rt-tcp-shards`.
pub fn run(rt: Rt, seed: u64, seconds: f64, tracing: bool, out: &mut Outcome) {
    let sets: Vec<Inputs> = (0..INPUT_SETS)
        .map(|i| Inputs::new(input_seed(seed, i)))
        .collect();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut latencies: [Vec<f64>; 4] = Default::default();
    let mut proto_wall = [0f64; 4];
    let mut per_shard = vec![0u64; SHARDS as usize];
    let mut log = Vec::new();
    trace::keep_spans();
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let inputs = &sets[walls.len() % sets.len()];
        let runs = rep(rt, inputs, false, &mut log, out);
        setups.push(runs.iter().map(|r| r.setup).sum());
        walls.push(runs.iter().map(|r| r.wall).sum());
        for (i, r) in runs.iter().enumerate() {
            latencies[i].extend_from_slice(&r.latencies_ms);
            proto_wall[i] += r.wall;
            for (total, g) in per_shard.iter_mut().zip(&r.per_shard) {
                *total += g;
            }
        }
        if tracing {
            let runs = rep(rt, inputs, true, &mut log, out);
            traced_walls.push(runs.iter().map(|r| r.wall).sum());
        }
    }
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    for (i, p) in PROTOS.iter().enumerate() {
        let (p50, p99) = (quantile(&latencies[i], 0.5), quantile(&latencies[i], 0.99));
        let per_s = latencies[i].len() as f64 / proto_wall[i].max(f64::MIN_POSITIVE);
        eprintln!(
            "{} {p}: {} grants, p50 {p50:.3} ms, p99 {p99:.3} ms, {per_s:.1} grants/s",
            rt.name(),
            latencies[i].len()
        );
        if tracing {
            out.set(format!("grant_p50_ms.{p}"), p50);
            out.set(format!("grant_p99_ms.{p}"), p99);
            out.set(format!("grants_per_s.{p}"), per_s);
        }
    }
    if tracing {
        per_layer(rt, seed, &log, &traced_walls, &walls, &per_shard, out);
    }
}

fn per_layer(
    rt: Rt,
    seed: u64,
    log: &[Request],
    traced_walls: &[f64],
    walls: &[f64],
    per_shard: &[u64],
    out: &mut Outcome,
) {
    let reps = traced_walls.len() as f64;
    let (spans, tally) = trace::take();
    let path = format!(".bench_out/spans-{}-{seed}.jsonl", rt.name());
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::File::create(&path))
        .map(std::io::BufWriter::new)
        .and_then(|mut file| {
            let red = trace::reduce(log, &spans, &mut file, 50_000)?;
            std::io::Write::flush(&mut file)?;
            Ok(red)
        });
    let red = match written {
        Ok(red) => red,
        Err(e) => {
            out.problem(format!("writing {path}: {e}"));
            return;
        }
    };
    let sum = |k: Kind, f: fn(&trace::Tally) -> u64| -> f64 {
        tally[k as usize].iter().map(f).sum::<u64>() as f64
    };
    for (i, p) in PROTOS.iter().enumerate() {
        let h = tally[Kind::Handler as usize][i];
        out.set(format!("core.handler_s.{p}"), h.ns as f64 / 1e9 / reps);
        out.set(format!("core.handler_calls.{p}"), h.calls as f64 / reps);
        let grants = tally[Kind::Granted as usize][i].calls.max(1) as f64;
        let frames = tally[Kind::Encode as usize][i].calls as f64;
        out.set(format!("core.msgs_per_grant.{p}"), frames / grants);
        let hop = tally[Kind::TokenHop as usize][i];
        out.set(
            format!("core.token_bytes_per_hop.{p}"),
            hop.bytes as f64 / hop.calls.max(1) as f64,
        );
        out.set(
            format!("core.runtime.want_wakeup_ms.p50.{p}"),
            quantile(&red.want_wakeup_ms[i], 0.5),
        );
        out.set(
            format!("core.runtime.want_wakeup_ms.p99.{p}"),
            quantile(&red.want_wakeup_ms[i], 0.99),
        );
    }
    out.set(
        "core.runtime.grant_publish_ms.p50",
        median(&red.grant_publish_ms),
    );
    out.set("core.runtime.request_self_s", red.request_self_s / reps);
    out.set(
        "core.codec.encode_s",
        sum(Kind::Encode, |t| t.ns) / 1e9 / reps,
    );
    out.set(
        "core.codec.decode_s",
        sum(Kind::Decode, |t| t.ns) / 1e9 / reps,
    );
    out.set("core.codec.bytes", sum(Kind::Encode, |t| t.bytes) / reps);
    out.set("core.codec.frames", sum(Kind::Encode, |t| t.calls) / reps);
    out.set("core.codec.decode_errors", sum(Kind::Decode, |t| t.misses));
    out.set(
        "net.transport.stage_s",
        sum(Kind::Stage, |t| t.ns) / 1e9 / reps,
    );
    out.set(
        "net.transport.flush_s",
        sum(Kind::Flush, |t| t.ns) / 1e9 / reps,
    );
    out.set(
        "net.transport.flushes",
        sum(Kind::Flush, |t| t.calls) / reps,
    );
    out.set(
        "net.transport.frames_per_flush",
        sum(Kind::Stage, |t| t.calls) / sum(Kind::Flush, |t| t.calls).max(1.0),
    );
    out.set("net.transport.bytes", sum(Kind::Stage, |t| t.bytes) / reps);
    out.set(
        "net.transport.recv_wait_s",
        sum(Kind::Recv, |t| t.ns) / 1e9 / reps,
    );
    out.set(
        "net.transport.recv_idle_polls",
        sum(Kind::Recv, |t| t.misses) / reps,
    );
    out.set("net.transport.frames_lost", sum(Kind::Lost, |t| t.calls));
    if sum(Kind::Lost, |t| t.calls) > 0.0 || sum(Kind::Decode, |t| t.misses) > 0.0 {
        out.problem("traced run lost or failed to decode frames".to_string());
    }
    if rt == Rt::TcpShards {
        let map = ShardMap::new(SHARDS, NODES);
        let keys: Vec<u64> = (0..KEY_UNIVERSE as u64).collect();
        let rounds = 10_000;
        let t = Instant::now();
        for _ in 0..rounds {
            for &k in &keys {
                std::hint::black_box(map.shard_of_key(std::hint::black_box(k)));
            }
        }
        let calls = (rounds * keys.len()) as f64;
        out.set("core.shard.route_ns", t.elapsed().as_nanos() as f64 / calls);
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        out.set("core.shard.grant_skew", max / mean.max(1.0));
    }
    out.set(
        "trace.overhead_frac",
        median(traced_walls) / median(walls) - 1.0,
    );
}
