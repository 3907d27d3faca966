//! The simulator workloads.
//!
//! * `sim-large-n` — the Figure 9 shape at N = 10,000 (ring, binary, naimi),
//!   one request per ~10 ticks over 4 token rounds, arrivals generated here
//!   from the seed and handed to the runner through [`Pregenerated`].
//! * `sim-paper-figs` — the paper-scale Figure 9 and Figure 10 point lists
//!   through the sweep executor on all pool workers.
//!
//! Untraced repetitions go through the program's own entry points
//! (`run_experiment`, `run_points`). The traced repetition of `sim-large-n`
//! drives `World` directly with [`Timed`] nodes and `WorldConfig::profile`,
//! mirroring the runner's loop, and must reproduce the untraced summary.

use std::time::{Duration, Instant};

use atp_core::{EventSource, ProtocolConfig, TokenEvent, Want};
use atp_net::{NodeId, SchedStats, SimTime, StepOutcome, World, WorldConfig};
use atp_sim::experiments::{fig10, fig9};
use atp_sim::runner::{ProtocolNode, ProtocolVisitor};
use atp_sim::{
    run_experiment, run_points, Arrival, ExperimentSpec, Metrics, NetProfile, PointSpec, Protocol,
    RunSummary, SpanCollector, Workload,
};
use atp_util::dist::exp_gap_ticks;
use atp_util::pool;
use atp_util::rng::{Rng, SeedableRng, StdRng};

use crate::stats::{fnv1a, median, quantile};
use crate::trace::{self, Kind, Timed, PROTOS};
use crate::{input_seed, Outcome, INPUT_SETS};

/// Ring size of `sim-large-n`.
const LARGE_N: usize = 10_000;
/// Token rounds simulated per protocol (horizon = rounds × N ticks).
const ROUNDS: u64 = 4;
/// Mean system-wide ticks between requests (the paper's Figure 9 load).
const MEAN_GAP: f64 = 10.0;
/// Search is absent: its gimme flood grows quadratically in N.
const LARGE_N_PROTOCOLS: [Protocol; 3] = [Protocol::Ring, Protocol::Binary, Protocol::Naimi];

/// Digests of the deterministic outputs for pinned seeds: per line
/// `<workload> <seed>` and, for each input set, the FNV-1a digest of its
/// summaries' JSON.
const PINS: &str = include_str!("../pins.txt");

fn pinned(workload: &str, seed: u64, set: usize) -> Option<u64> {
    PINS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.nth(set)?, 16).ok())?
    })
}

fn digest(summaries: &[RunSummary]) -> u64 {
    fnv1a(summaries.iter().map(RunSummary::to_json))
}

fn proto_index(p: Protocol) -> usize {
    trace::proto_of(p.label()) as usize
}

/// Arrivals the benchmark generated, returned to the runner as they are.
struct Pregenerated(Vec<Arrival>);

impl Workload for Pregenerated {
    fn arrivals(&mut self, _n: usize, _horizon: SimTime, _rng: &mut StdRng) -> Vec<Arrival> {
        self.0.clone()
    }

    fn label(&self) -> String {
        format!("bench-global-poisson(gap={MEAN_GAP})")
    }
}

/// System-wide Poisson arrivals on uniformly random nodes in `[1, horizon]`.
fn arrivals(seed: u64, n: usize, horizon: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_a77e_0000_0001);
    let mut out = Vec::new();
    let mut t = 0u64;
    loop {
        t += exp_gap_ticks(&mut rng, MEAN_GAP);
        if t > horizon {
            return out;
        }
        out.push(Arrival {
            at: SimTime::from_ticks(t),
            node: NodeId::new(rng.gen_range(0..n as u32)),
            payload: out.len() as u64 + 1,
        });
    }
}

fn large_n_spec(protocol: Protocol, seed: u64) -> ExperimentSpec {
    ExperimentSpec::new(protocol, LARGE_N, ROUNDS * LARGE_N as u64).with_seed(seed)
}

/// Time to build one `World` of `n` fresh `protocol` nodes.
fn world_setup(protocol: Protocol, n: usize, seed: u64) -> Duration {
    struct Build(usize, u64);
    impl ProtocolVisitor for Build {
        type Out = Duration;
        fn run<N: ProtocolNode>(self) -> Duration {
            let cfg = ProtocolConfig::default().with_record_log(false);
            let t = Instant::now();
            let world: World<N> = World::from_nodes(
                (0..self.0).map(|_| N::build(cfg)).collect(),
                WorldConfig::default().seed(self.1),
            );
            let took = t.elapsed();
            drop(std::hint::black_box(world));
            took
        }
    }
    protocol.dispatch(Build(n, seed))
}

/// Median time to build every listed `(protocol, n, seed)` world, over 21
/// builds after two unmeasured ones.
fn setup_time(worlds: &[(Protocol, usize, u64)]) -> f64 {
    let build = || -> f64 {
        worlds
            .iter()
            .map(|&(p, n, seed)| world_setup(p, n, seed).as_secs_f64())
            .sum()
    };
    build();
    build();
    let times: Vec<f64> = (0..21).map(|_| build()).collect();
    median(&times)
}

/// Requests that got no grant, and problems found, in one repetition.
fn check_summaries(summaries: &[RunSummary], expected_requests: Option<u64>, out: &mut Outcome) {
    for s in summaries {
        let m = &s.metrics;
        out.attempted += m.requests;
        out.failed += m.unserved as u64;
        if m.unserved != 0 || m.grants != m.requests {
            out.problem(format!(
                "{} n={}: {} requests, {} grants, {} unserved",
                s.protocol.label(),
                s.metrics.n,
                m.requests,
                m.grants,
                m.unserved
            ));
        }
        if let Some(want) = expected_requests.filter(|&w| w != m.requests) {
            out.problem(format!(
                "{}: runner saw {} requests, benchmark generated {want}",
                s.protocol.label(),
                m.requests
            ));
        }
    }
}

/// Checks the digest of a repetition on input set `set` against earlier
/// repetitions on the same set and against the pin.
fn check_digest(
    workload: &str,
    seed: u64,
    set: usize,
    d: u64,
    seen: &mut [Option<u64>],
    out: &mut Outcome,
) {
    if *seen[set].get_or_insert(d) != d {
        out.problem(format!(
            "{workload} set {set}: digest {d:016x} differs from an earlier repetition"
        ));
    }
    if let Some(pin) = pinned(workload, seed, set).filter(|&p| p != d) {
        out.problem(format!(
            "{workload} seed {seed} set {set}: digest {d:016x}, pinned {pin:016x}"
        ));
    }
}

fn large_n_inputs(seed: u64) -> Vec<(u64, Vec<Arrival>)> {
    (0..INPUT_SETS)
        .map(|i| {
            let s = input_seed(seed, i);
            (s, arrivals(s, LARGE_N, ROUNDS * LARGE_N as u64))
        })
        .collect()
}

/// Per-protocol message and token-frame figures the summaries carry.
fn protocol_counters(summaries: &[RunSummary], out: &mut Outcome) {
    for s in summaries {
        let p = PROTOS[proto_index(s.protocol)];
        let grants = s.metrics.grants.max(1) as f64;
        let msgs = (s.net.token_sent + s.net.control_sent) as f64;
        out.set(format!("core.msgs_per_grant.{p}"), msgs / grants);
        let hops = s.spans.dispatches.max(1) as f64;
        out.set(
            format!("core.token_bytes_per_hop.{p}"),
            s.spans.dispatch_bytes as f64 / hops,
        );
    }
}

/// One untraced repetition: each protocol through `run_experiment`.
fn large_n_rep(seed: u64, arrivals: &[Arrival]) -> (Vec<RunSummary>, Vec<Duration>) {
    LARGE_N_PROTOCOLS
        .iter()
        .map(|&p| {
            let t = Instant::now();
            let s = run_experiment(&large_n_spec(p, seed), &mut Pregenerated(arrivals.to_vec()));
            (s, t.elapsed())
        })
        .unzip()
}

/// What one traced drive of the large-N world measured.
#[derive(Default)]
struct TracedDrive {
    wall: Duration,
    pop_ns: u64,
    deliver_ns: u64,
    drain_ns: u64,
    events: u64,
    sched: SchedStats,
    /// `(requests, grants, events, mean responsiveness bits)` to compare
    /// with the untraced summary.
    fingerprint: (u64, u64, u64, u64),
}

/// The runner's drive loop over [`Timed`] nodes with world profiling on.
fn traced_drive<N: ProtocolNode>(seed: u64, arrivals: &[Arrival]) -> TracedDrive {
    let spec = large_n_spec(Protocol::Ring, seed);
    let start = Instant::now();
    let mut world: World<Timed<N>> = World::from_nodes(
        (0..spec.n).map(|_| Timed(N::build(spec.cfg))).collect(),
        WorldConfig::default().seed(spec.seed).profile(true),
    );
    let horizon = SimTime::from_ticks(spec.horizon_ticks);
    let deadline = horizon.saturating_add(NetProfile::unit().grace_for(spec.n));
    world.reserve_events(arrivals.len());
    for a in arrivals {
        world.schedule_external(a.at, a.node, Want::new(a.payload));
    }
    let mut metrics = Metrics::new(spec.n);
    let mut spans = SpanCollector::new();
    let mut drain_ns = 0u64;
    let mut drained: Vec<TokenEvent> = Vec::new();
    loop {
        match world.step() {
            StepOutcome::Quiescent => break,
            StepOutcome::Consumed { at } if at >= deadline => break,
            StepOutcome::Consumed { .. } => {}
            StepOutcome::Dispatched { node, at } => {
                let t0 = Instant::now();
                drained.clear();
                world.node_mut(node).take_events_into(&mut drained);
                for ev in &drained {
                    metrics.on_event(node, ev);
                    spans.on_event(ev);
                }
                drain_ns += t0.elapsed().as_nanos() as u64;
                if (at >= horizon && metrics.unserved() == 0) || at >= deadline {
                    break;
                }
            }
        }
    }
    for i in 0..world.len() {
        let node = NodeId::new(i as u32);
        if world.node(node).has_events() {
            drained.clear();
            world.node_mut(node).take_events_into(&mut drained);
            for ev in &drained {
                metrics.on_event(node, ev);
            }
        }
    }
    let wall = start.elapsed();
    let profile = world.profile().copied().unwrap_or_default();
    let summary = metrics.summarize();
    TracedDrive {
        wall,
        pop_ns: profile.pop_ns,
        deliver_ns: profile.deliver_ns,
        drain_ns,
        events: world.stats().events_processed,
        sched: world.sched_stats(),
        fingerprint: (
            summary.requests,
            summary.grants,
            world.stats().events_processed,
            summary.responsiveness.mean.to_bits(),
        ),
    }
}

fn traced_rep(seed: u64, arrivals: &[Arrival]) -> Vec<(Protocol, TracedDrive)> {
    struct Drive<'a>(u64, &'a [Arrival]);
    impl ProtocolVisitor for Drive<'_> {
        type Out = TracedDrive;
        fn run<N: ProtocolNode>(self) -> TracedDrive {
            traced_drive::<N>(self.0, self.1)
        }
    }
    LARGE_N_PROTOCOLS
        .iter()
        .map(|&p| (p, p.dispatch(Drive(seed, arrivals))))
        .collect()
}

/// `sim-large-n`.
pub fn large_n(seed: u64, seconds: f64, tracing: bool, out: &mut Outcome) {
    const NAME: &str = "sim-large-n";
    let sets = large_n_inputs(seed);
    let worlds: Vec<(Protocol, usize, u64)> = LARGE_N_PROTOCOLS
        .iter()
        .map(|&p| (p, LARGE_N, sets[0].0))
        .collect();
    out.set("setup_s", setup_time(&worlds));

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_proto = [(Duration::ZERO, 0u64); 4];
    let mut traced_sum = TracedDrive::default();
    let mut seen = vec![None; sets.len()];
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let set = walls.len() % sets.len();
        let (seed_i, arrivals) = (sets[set].0, &sets[set].1);
        let t = Instant::now();
        let (summaries, times) = large_n_rep(seed_i, arrivals);
        walls.push(t.elapsed().as_secs_f64());
        check_summaries(&summaries, Some(arrivals.len() as u64), out);
        check_digest(NAME, seed, set, digest(&summaries), &mut seen, out);
        if !tracing {
            continue;
        }
        for (s, took) in summaries.iter().zip(&times) {
            let cell = &mut per_proto[proto_index(s.protocol)];
            cell.0 += *took;
            cell.1 += s.net.events;
        }
        protocol_counters(&summaries, out);
        let t = Instant::now();
        for (p, tr) in traced_rep(seed_i, arrivals) {
            let s = summaries
                .iter()
                .find(|s| s.protocol == p)
                .expect("one summary per protocol");
            let untraced = (
                s.metrics.requests,
                s.metrics.grants,
                s.net.events,
                s.metrics.responsiveness.mean.to_bits(),
            );
            if tr.fingerprint != untraced {
                out.problem(format!(
                    "{}: traced drive {:?} != runner {untraced:?}",
                    p.label(),
                    tr.fingerprint
                ));
            }
            traced_sum.wall += tr.wall;
            traced_sum.pop_ns += tr.pop_ns;
            traced_sum.deliver_ns += tr.deliver_ns;
            traced_sum.drain_ns += tr.drain_ns;
            traced_sum.events += tr.events;
            traced_sum.sched.merge(&tr.sched);
        }
        traced_walls.push(t.elapsed().as_secs_f64());
    }
    eprintln!(
        "{NAME}: repetition wall times {walls:.3?} s, input sets cycled 0..{}",
        sets.len()
    );
    out.set("wall_s", median(&walls));
    if !tracing {
        return;
    }
    let reps = traced_walls.len() as f64;
    let (_, tally) = trace::take();
    for (i, p) in PROTOS.iter().enumerate() {
        let h = tally[Kind::Handler as usize][i];
        out.set(format!("core.handler_s.{p}"), h.ns as f64 / 1e9 / reps);
        out.set(format!("core.handler_calls.{p}"), h.calls as f64 / reps);
        let (took, events) = per_proto[i];
        if events > 0 {
            out.set(
                format!("net.world.ns_per_event.{p}"),
                took.as_nanos() as f64 / events as f64,
            );
        }
    }
    let pop = traced_sum.pop_ns as f64 / 1e9 / reps;
    let deliver = traced_sum.deliver_ns as f64 / 1e9 / reps;
    let drain = traced_sum.drain_ns as f64 / 1e9 / reps;
    out.set("net.world.pop_s", pop);
    out.set("net.world.deliver_s", deliver);
    out.set("sim.drain_s", drain);
    out.set("net.world.events", traced_sum.events as f64 / reps);
    out.set(
        "net.wheel.cascades",
        traced_sum.sched.cascades as f64 / reps,
    );
    out.set(
        "net.wheel.overflow_promotions",
        traced_sum.sched.overflow_promotions as f64 / reps,
    );
    out.set(
        "net.wheel.arena_bytes_allocated",
        traced_sum.sched.arena_bytes_allocated as f64 / reps,
    );
    let traced_wall = traced_sum.wall.as_secs_f64() / reps;
    out.set("sim.accounted_frac", (pop + deliver + drain) / traced_wall);
    out.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&walls) - 1.0,
    );
}

fn figs_points(seed: u64) -> Vec<PointSpec> {
    let mut f9 = fig9::Config::paper();
    f9.seed = seed;
    let mut f10 = fig10::Config::paper();
    f10.seed = seed.wrapping_add(1);
    let mut points = fig9::points(&f9);
    points.extend(fig10::points(&f10));
    points
}

/// `sim-paper-figs`.
pub fn paper_figs(seed: u64, seconds: f64, tracing: bool, out: &mut Outcome) {
    const NAME: &str = "sim-paper-figs";
    let sets: Vec<Vec<PointSpec>> = (0..INPUT_SETS)
        .map(|i| figs_points(input_seed(seed, i)))
        .collect();
    let worlds: Vec<(Protocol, usize, u64)> = sets[0]
        .iter()
        .map(|p| (p.spec.protocol, p.spec.n, p.spec.seed))
        .collect();
    out.set("setup_s", setup_time(&worlds));

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut point_s = Vec::new();
    let mut busy = Vec::new();
    let mut per_proto = [(0f64, 0u64); 4];
    let mut profile = atp_sim::RunProfile::default();
    let mut seen = vec![None; sets.len()];
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let set = walls.len() % sets.len();
        let points = &sets[set];
        let t = Instant::now();
        let summaries = run_points(points);
        walls.push(t.elapsed().as_secs_f64());
        check_summaries(&summaries, None, out);
        check_digest(NAME, seed, set, digest(&summaries), &mut seen, out);
        if !tracing {
            continue;
        }
        protocol_counters(&summaries, out);
        let workers = pool::worker_count().min(points.len()).max(1);
        let t = Instant::now();
        let results = pool::par_map(points, |p| {
            let t = Instant::now();
            let (s, prof) = p.run_profiled();
            (s, prof, t.elapsed().as_secs_f64())
        });
        let wall = t.elapsed().as_secs_f64();
        traced_walls.push(wall);
        let traced: Vec<RunSummary> = results.iter().map(|r| r.0.clone()).collect();
        if digest(&traced) != digest(&summaries) {
            out.problem(format!("{NAME}: profiled points differ from run_points"));
        }
        let mut total = 0.0;
        for (s, prof, took) in &results {
            profile.merge(prof);
            point_s.push(*took);
            total += took;
            let cell = &mut per_proto[proto_index(s.protocol)];
            cell.0 += took;
            cell.1 += s.net.events;
        }
        busy.push(total / (wall * workers as f64));
    }
    eprintln!(
        "{NAME}: repetition wall times {walls:.3?} s, input sets cycled 0..{}",
        sets.len()
    );
    out.set("wall_s", median(&walls));
    if !tracing {
        return;
    }
    let reps = traced_walls.len() as f64;
    for (i, p) in PROTOS.iter().enumerate() {
        let (took, events) = per_proto[i];
        if events > 0 {
            out.set(
                format!("net.world.ns_per_event.{p}"),
                took * 1e9 / events as f64,
            );
        }
    }
    let pop = profile.pop_ns as f64 / 1e9 / reps;
    let deliver = profile.deliver_ns as f64 / 1e9 / reps;
    let drain = profile.drain_ns as f64 / 1e9 / reps;
    out.set("net.world.pop_s", pop);
    out.set("net.world.deliver_s", deliver);
    out.set("sim.drain_s", drain);
    out.set("net.world.events", profile.steps as f64 / reps);
    out.set("net.wheel.cascades", profile.sched.cascades as f64 / reps);
    out.set(
        "net.wheel.overflow_promotions",
        profile.sched.overflow_promotions as f64 / reps,
    );
    out.set(
        "net.wheel.arena_bytes_allocated",
        profile.sched.arena_bytes_allocated as f64 / reps,
    );
    out.set("sim.sweep.points", sets[0].len() as f64);
    out.set("sim.sweep.point_s.p50", median(&point_s));
    out.set("sim.sweep.point_s.max", quantile(&point_s, 1.0));
    out.set("util.pool.busy_frac", median(&busy));
    // Point runs overlap on the workers, so their phases are compared
    // with the summed point time rather than the sweep's wall time.
    let point_total: f64 = point_s.iter().sum::<f64>() / reps;
    out.set("sim.accounted_frac", (pop + deliver + drain) / point_total);
    out.set(
        "trace.overhead_frac",
        median(&traced_walls) / median(&walls) - 1.0,
    );
}

/// The pin line for one seed of a simulator workload.
pub fn pin(workload: &str, seed: u64) -> Option<String> {
    let digests: Vec<u64> = match workload {
        "sim-large-n" => large_n_inputs(seed)
            .iter()
            .map(|(s, arrivals)| digest(&large_n_rep(*s, arrivals).0))
            .collect(),
        "sim-paper-figs" => (0..INPUT_SETS)
            .map(|i| digest(&run_points(&figs_points(input_seed(seed, i)))))
            .collect(),
        _ => return None,
    };
    let digests: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    Some(format!("{workload} {seed} {}", digests.join(" ")))
}
