//! Micro-benchmarks of the executable protocol plane, on the in-repo
//! `atp_util::bench` harness. Run `-- --smoke` for a single-iteration
//! sanity pass (what `ci.sh` does; it keeps the `{"suite":"protocols",...}`
//! lines as `BENCH_protocols.json`).

use atp_core::{
    decode_binary_msg, encode_binary_msg, BinaryMsg, BinaryNode, LogEntry, OrderState,
    ProtocolConfig, RequestId, RingNode, TokenFrame, TokenMode, Want,
};
use atp_net::{NodeId, SimTime, World, WorldConfig};
use atp_sim::runner::{run_experiment, ExperimentSpec, Protocol};
use atp_sim::workload::{GlobalPoisson, SingleShot};
use atp_util::bench::Runner;

fn main() {
    let mut r = Runner::from_args("protocols");

    // Latency (wall-clock) of simulating one request-to-grant cycle.
    for n in [16usize, 64, 256] {
        r.bench(&format!("single_grant/binary/{n}"), || {
            let spec = ExperimentSpec::new(Protocol::Binary, n, 10 + 8 * n as u64);
            let mut wl = SingleShot::new(SimTime::from_ticks(5), NodeId::new(n as u32 / 2));
            let s = run_experiment(&spec, &mut wl);
            assert_eq!(s.metrics.grants, 1);
            s.duration_ticks
        });
        r.bench(&format!("single_grant/ring/{n}"), || {
            let spec = ExperimentSpec::new(Protocol::Ring, n, 10 + 8 * n as u64);
            let mut wl = SingleShot::new(SimTime::from_ticks(5), NodeId::new(n as u32 / 2));
            let s = run_experiment(&spec, &mut wl);
            assert_eq!(s.metrics.grants, 1);
            s.duration_ticks
        });
    }

    // Simulation throughput: events per wall-clock second under steady load.
    let horizon = 20_000u64;
    for protocol in Protocol::ALL {
        r.bench(&format!("sim_throughput/{}", protocol.label()), || {
            let spec = ExperimentSpec::new(protocol, 64, horizon);
            let mut wl = GlobalPoisson::new(10.0);
            run_experiment(&spec, &mut wl).net.events
        });
    }

    // Raw world stepping cost: an idle rotating ring (pure engine overhead).
    r.bench("idle_rotation_100k_ticks", || {
        let cfg = ProtocolConfig::default().with_record_log(false);
        let mut w: World<RingNode> = World::from_nodes(
            (0..32).map(|_| RingNode::new(cfg)).collect(),
            WorldConfig::default(),
        );
        w.run_until(SimTime::from_ticks(100_000));
        w.stats().total_sent()
    });

    // Wire codec throughput on a realistic token frame.
    let mut frame = TokenFrame::new(64);
    for i in 0..32u32 {
        frame.on_possess(NodeId::new(i % 8), true);
        frame.append(NodeId::new(i % 8), i as u64);
    }
    let msg = BinaryMsg::Token {
        frame: Box::new(frame),
        mode: TokenMode::Rotate,
    };
    let bytes = encode_binary_msg(&msg);
    r.bench("codec/encode_token_frame", || encode_binary_msg(&msg));
    r.bench("codec/decode_token_frame", || {
        decode_binary_msg(&bytes).expect("valid frame")
    });

    // History application on possession: a node one lap behind applies the
    // ~N/gap entries carried since its last visit (1000 at N = 10k, gap 10).
    let window: Vec<LogEntry> = (1..=1_000u64)
        .map(|seq| LogEntry {
            seq,
            origin: NodeId::new((seq % 97) as u32),
            payload: seq.wrapping_mul(0x9e37_79b9),
            round: 0,
        })
        .collect();
    r.bench("history_apply_window_1k", || {
        let mut order = OrderState::new(false);
        order.apply_entries(&window, SimTime::ZERO);
        order.digest()
    });
    // The same window appended to a token, which chains each entry once at
    // append time: the node one lap behind adopts the token's digest memo.
    let mut frame = TokenFrame::new(64);
    for e in &window {
        frame.append(e.origin, e.payload);
    }
    assert_eq!(frame.carried(), &window[..]);
    let mut reference = OrderState::new(false);
    reference.apply_entries(&window, SimTime::ZERO);
    r.bench("history_apply_window_1k_memo", || {
        let mut order = OrderState::new(false);
        order.apply_frame_entries(&frame, SimTime::ZERO);
        assert_eq!(order.digest(), reference.digest());
        order.digest()
    });

    // Satisfied-window membership: the probe Binary, Search and Naimi run
    // on every trap, gimme and possession, against a full 4000-id window
    // (the grants of a 4-round N = 10k run). Half the probes hit.
    let mut frame = TokenFrame::new(4_000);
    for k in 0..4_000u64 {
        frame.mark_satisfied(RequestId::new(
            NodeId::new((k % 1_000) as u32),
            1 + k / 1_000,
        ));
    }
    let probes: Vec<RequestId> = (0..256u64)
        .map(|k| RequestId::new(NodeId::new((k * 37 % 1_000) as u32), 1 + k % 8))
        .collect();
    r.bench("satisfied_probe_window_4k", || {
        let hits = probes.iter().filter(|p| frame.is_satisfied(p)).count();
        assert_eq!(hits, 128);
        hits
    });

    // Cost of the external-request path (on_external through search issue).
    r.bench("request_injection_1k", || {
        let cfg = ProtocolConfig::default().with_record_log(false);
        let mut w: World<BinaryNode> = World::from_nodes(
            (0..64).map(|_| BinaryNode::new(cfg)).collect(),
            WorldConfig::default(),
        );
        for k in 0..1_000u64 {
            w.schedule_external(
                SimTime::from_ticks(1 + k),
                NodeId::new((k % 64) as u32),
                Want::new(k),
            );
        }
        w.run_until(SimTime::from_ticks(2_000));
        w.stats().total_sent()
    });

    r.finish();
}
