//! The traced run's measuring wrappers and its in-memory span store.
//!
//! Nothing here changes what the wrapped code does. [`Timed`] forwards every
//! protocol callback and codec call to the protocol it wraps, and [`Traced`]
//! forwards every endpoint call to the transport it wraps; both only read
//! the clock around the call and record what they saw. `check_noop` proves
//! it for all four protocols before a traced run reports anything.
//!
//! Recording is per thread (node threads, pool workers, the generator) and
//! merges into one global store when the thread exits or calls [`take`], so
//! the hot path takes no lock.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use atp_core::{Checkpoint, EventSource, OrderState, ProtocolConfig, RequestId, TokenEvent, Want};
use atp_core::{CodecError, WireProtocol};
use atp_net::{CloseReport, Context, Endpoint, Node, NodeId, Transport};
use atp_sim::runner::ProtocolNode;

/// Protocol labels, in the index order every per-protocol table uses.
pub const PROTOS: [&str; 4] = ["ring", "search", "binary", "naimi"];

/// What a recorded span or count measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A protocol callback (`on_init`, `on_message`, `on_external`, `on_timer`).
    Handler,
    /// `WireProtocol::encode_msg`; `bytes` is the frame length.
    Encode,
    /// `WireProtocol::decode_msg`; a miss is a decode error.
    Decode,
    /// `Endpoint::stage`; `bytes` is the frame length.
    Stage,
    /// `Endpoint::flush`.
    Flush,
    /// `Endpoint::recv_timeout`; a miss is a poll that returned nothing.
    Recv,
    /// Instant at which `on_external` began; the tag is the request payload.
    External,
    /// Instant at which a `Granted` event left its handler; the tag is the
    /// packed request id.
    Granted,
    /// A `TokenDispatched` event; `bytes` is its encoded token-frame size.
    TokenHop,
    /// Frames the endpoint lost while the cluster was serving (`calls` is
    /// the count); teardown drops frames to already-closed peers by design.
    Lost,
}

const KINDS: usize = 10;

/// Kinds that are child spans of a request: work done on its behalf, and
/// the receive calls its nodes sat in.
const CHILD_KINDS: [Kind; 6] = [
    Kind::Handler,
    Kind::Encode,
    Kind::Decode,
    Kind::Stage,
    Kind::Flush,
    Kind::Recv,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Handler => "handler",
            Kind::Encode => "encode",
            Kind::Decode => "decode",
            Kind::Stage => "stage",
            Kind::Flush => "flush",
            Kind::Recv => "recv",
            Kind::External => "external",
            Kind::Granted => "granted",
            Kind::TokenHop => "token_hop",
            Kind::Lost => "lost",
        }
    }
}

/// One recorded interval (or instant, when `start == end`).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub proto: u8,
    pub start: u64,
    pub end: u64,
    pub tag: u64,
}

/// Totals for one `(kind, protocol)` cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
    pub bytes: u64,
    pub misses: u64,
}

/// Totals indexed `[kind][protocol]`.
pub type Tallies = [[Tally; 4]; KINDS];

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    tally: Tallies,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    tally: Tallies,
}

impl Local {
    fn merge_into_store(&mut self) {
        let mut store = STORE.lock().unwrap_or_else(|e| e.into_inner());
        store.spans.append(&mut self.spans);
        for (k, row) in self.tally.iter_mut().enumerate() {
            for (p, cell) in row.iter_mut().enumerate() {
                let s = &mut store.tally[k][p];
                s.calls += cell.calls;
                s.ns += cell.ns;
                s.bytes += cell.bytes;
                s.misses += cell.misses;
                *cell = Tally::default();
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.merge_into_store();
    }
}

static STORE: Mutex<Store> = Mutex::new(Store {
    spans: Vec::new(),
    tally: [[Tally {
        calls: 0,
        ns: 0,
        bytes: 0,
        misses: 0,
    }; 4]; KINDS],
});
static KEEP_SPANS: AtomicBool = AtomicBool::new(false);
static CURRENT_PROTO: AtomicU8 = AtomicU8::new(0);
static SERVING: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Nanoseconds since the process's first call.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Keeps individual spans from now on. The runtime workloads do; the
/// simulator keeps totals only, as its event counts run into the millions.
pub fn keep_spans() {
    KEEP_SPANS.store(true, Ordering::Relaxed);
}

fn record(kind: Kind, proto: u8, start: u64, end: u64, tag: u64, bytes: u64, miss: bool) {
    let keep = KEEP_SPANS.load(Ordering::Relaxed);
    // A thread already tearing down its locals still reports what it saw.
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        let t = &mut l.tally[kind as usize][proto as usize];
        t.calls += 1;
        t.ns += end - start;
        t.bytes += bytes;
        t.misses += u64::from(miss);
        if keep {
            l.spans.push(Span {
                kind,
                proto,
                start,
                end,
                tag,
            });
        }
    });
}

/// Names the protocol that transport calls are charged to. The runtime
/// workloads run one protocol at a time, and an endpoint cannot tell
/// which protocol's frames it carries.
pub fn set_transport_proto(label: &str) {
    CURRENT_PROTO.store(proto_of(label), Ordering::Relaxed);
}

/// Marks whether the cluster is serving; frames lost outside that window
/// (during start-up or teardown) are not counted.
pub fn set_serving(on: bool) {
    SERVING.store(on, Ordering::Relaxed);
}

fn transport_proto() -> u8 {
    CURRENT_PROTO.load(Ordering::Relaxed)
}

/// Empties the global store, after moving the calling thread's records
/// into it. Other threads move theirs when they exit, so join them first.
pub fn take() -> (Vec<Span>, Tallies) {
    LOCAL.with(|l| l.borrow_mut().merge_into_store());
    let mut store = STORE.lock().unwrap_or_else(|e| e.into_inner());
    let spans = std::mem::take(&mut store.spans);
    let tally = std::mem::take(&mut store.tally);
    (spans, tally)
}

/// Packs a request id into one span tag.
pub fn pack(req: RequestId) -> u64 {
    (u64::from(req.origin.raw()) << 40) | (req.seq & ((1 << 40) - 1))
}

/// Index of a protocol label in [`PROTOS`].
pub const fn proto_of(label: &str) -> u8 {
    let mut i = 0;
    while i < PROTOS.len() {
        let (a, b) = (PROTOS[i].as_bytes(), label.as_bytes());
        if a.len() == b.len() {
            let mut j = 0;
            while j < a.len() && a[j] == b[j] {
                j += 1;
            }
            if j == a.len() {
                return i as u8;
            }
        }
        i += 1;
    }
    panic!("unknown protocol label");
}

/// A protocol with a clock around each callback and codec call.
#[derive(Debug)]
pub struct Timed<P>(pub P);

impl<P: WireProtocol> Timed<P> {
    const PROTO: u8 = proto_of(P::LABEL);

    fn handler<R>(f: impl FnOnce() -> R) -> R {
        let t = now_ns();
        let r = f();
        record(Kind::Handler, Self::PROTO, t, now_ns(), 0, 0, false);
        r
    }

    fn observe(events: &[TokenEvent]) {
        for ev in events {
            match *ev {
                TokenEvent::Granted { req, .. } => {
                    let t = now_ns();
                    record(Kind::Granted, Self::PROTO, t, t, pack(req), 0, false);
                }
                TokenEvent::TokenDispatched { bytes, .. } => {
                    record(Kind::TokenHop, Self::PROTO, 0, 0, 0, bytes, false);
                }
                _ => {}
            }
        }
    }
}

impl<P: WireProtocol> Node for Timed<P> {
    type Msg = P::Msg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, P::Msg>) {
        Self::handler(|| self.0.on_init(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        Self::handler(|| self.0.on_message(from, msg, ctx));
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, P::Msg>) {
        let t = now_ns();
        record(Kind::External, Self::PROTO, t, t, ev.payload, 0, false);
        Self::handler(|| self.0.on_external(ev, ctx));
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, P::Msg>) {
        Self::handler(|| self.0.on_timer(kind, ctx));
    }

    fn on_crash(&mut self) {
        self.0.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.0.on_recover(ctx);
    }
}

impl<P: WireProtocol> EventSource for Timed<P> {
    fn take_events(&mut self) -> Vec<TokenEvent> {
        let events = self.0.take_events();
        Self::observe(&events);
        events
    }

    fn take_events_into(&mut self, out: &mut Vec<TokenEvent>) {
        let from = out.len();
        self.0.take_events_into(out);
        Self::observe(&out[from..]);
    }

    fn has_events(&self) -> bool {
        self.0.has_events()
    }
}

impl<P: WireProtocol> WireProtocol for Timed<P> {
    const LABEL: &'static str = P::LABEL;

    fn build(cfg: ProtocolConfig) -> Self {
        Timed(P::build(cfg))
    }

    fn encode_msg(msg: &Self::Msg) -> Vec<u8> {
        let t = now_ns();
        let frame = P::encode_msg(msg);
        let len = frame.len() as u64;
        record(Kind::Encode, Self::PROTO, t, now_ns(), 0, len, false);
        frame
    }

    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, CodecError> {
        let t = now_ns();
        let msg = P::decode_msg(bytes);
        let len = bytes.len() as u64;
        record(Kind::Decode, Self::PROTO, t, now_ns(), 0, len, msg.is_err());
        msg
    }

    fn msg_encoded_len(msg: &Self::Msg) -> usize {
        P::msg_encoded_len(msg)
    }

    fn order_state(&self) -> &OrderState {
        self.0.order_state()
    }

    fn checkpoint(&self) -> Checkpoint {
        self.0.checkpoint()
    }

    fn restore(cfg: ProtocolConfig, ck: &Checkpoint) -> Self {
        Timed(P::restore(cfg, ck))
    }
}

impl<P: ProtocolNode> ProtocolNode for Timed<P> {
    fn grants_count(&self) -> u64 {
        self.0.grants_count()
    }
    fn applied_len(&self) -> u64 {
        self.0.applied_len()
    }
    fn holds_token_now(&self) -> bool {
        self.0.holds_token_now()
    }
    fn token_generation(&self) -> u32 {
        self.0.token_generation()
    }
    fn dup_discarded_count(&self) -> u64 {
        self.0.dup_discarded_count()
    }
    fn retransmit_count(&self) -> u64 {
        self.0.retransmit_count()
    }
}

/// A transport whose endpoints have a clock around each call.
#[derive(Debug)]
pub struct Traced<T>(PhantomData<T>);

/// An endpoint of a [`Traced`] transport.
#[derive(Debug)]
pub struct TracedEndpoint<E>(E);

impl<T: Transport> Transport for Traced<T> {
    type Endpoint = TracedEndpoint<T::Endpoint>;

    fn label() -> &'static str {
        T::label()
    }

    fn endpoints(n: usize) -> std::io::Result<Vec<Self::Endpoint>> {
        Ok(T::endpoints(n)?.into_iter().map(TracedEndpoint).collect())
    }
}

impl<E: Endpoint> Endpoint for TracedEndpoint<E> {
    fn id(&self) -> NodeId {
        self.0.id()
    }

    fn stage(&mut self, to: NodeId, frame: &[u8]) {
        let t = now_ns();
        self.0.stage(to, frame);
        record(
            Kind::Stage,
            transport_proto(),
            t,
            now_ns(),
            0,
            frame.len() as u64,
            false,
        );
    }

    fn flush(&mut self) {
        let lost_before = self.0.frames_lost();
        let t = now_ns();
        self.0.flush();
        record(Kind::Flush, transport_proto(), t, now_ns(), 0, 0, false);
        let lost = self.0.frames_lost() - lost_before;
        if lost > 0 && SERVING.load(Ordering::Relaxed) {
            let _ = LOCAL.try_with(|l| {
                l.borrow_mut().tally[Kind::Lost as usize][transport_proto() as usize].calls += lost
            });
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        let t = now_ns();
        let got = self.0.recv_timeout(timeout);
        let len = got.as_ref().map_or(0, |(_, f)| f.len() as u64);
        record(
            Kind::Recv,
            transport_proto(),
            t,
            now_ns(),
            0,
            len,
            got.is_none(),
        );
        got
    }

    fn frames_lost(&self) -> u64 {
        self.0.frames_lost()
    }

    fn sever(&mut self) {
        self.0.sever();
    }

    fn close(&mut self) -> CloseReport {
        self.0.close()
    }
}

/// One closed-loop request as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub proto: u8,
    pub payload: u64,
    /// Packed request id ([`pack`]) from the `Requested` event.
    pub req: u64,
    pub issued: u64,
    pub granted: u64,
}

/// What the runtime spans reduce to.
#[derive(Debug, Default)]
pub struct Reduced {
    /// Per protocol: `request()` to `on_external`, in ms.
    pub want_wakeup_ms: [Vec<f64>; 4],
    /// Handler `Granted` to generator receipt, in ms.
    pub grant_publish_ms: Vec<f64>,
    /// Summed over requests: request-span time in which no node thread was
    /// inside a handler, codec or send call — time spent waiting, whether
    /// blocked in `recv_timeout` or queued for a thread.
    pub request_self_s: f64,
}

/// Joins the generator's requests with the node-side spans: a child span
/// counts toward every request of its protocol whose window it overlaps.
/// Writes the request spans and their children (up to `cap` lines) as JSON
/// lines to `out`.
pub fn reduce(
    requests: &[Request],
    spans: &[Span],
    out: &mut impl std::io::Write,
    cap: usize,
) -> std::io::Result<Reduced> {
    use std::collections::HashMap;

    let mut external: HashMap<u64, u64> = HashMap::new();
    let mut granted: HashMap<(u8, u64), Vec<u64>> = HashMap::new();
    let mut children: [Vec<Span>; 4] = Default::default();
    for s in spans {
        match s.kind {
            Kind::External => {
                external.entry(s.tag).or_insert(s.start);
            }
            Kind::Granted => granted.entry((s.proto, s.tag)).or_default().push(s.start),
            k if CHILD_KINDS.contains(&k) => children[s.proto as usize].push(*s),
            _ => {}
        }
    }
    for c in children.iter_mut() {
        c.sort_unstable_by_key(|s| s.start);
    }
    let longest: Vec<u64> = children
        .iter()
        .map(|c| c.iter().map(|s| s.end - s.start).max().unwrap_or(0))
        .collect();

    let mut red = Reduced::default();
    let mut lines = 0usize;
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_unstable_by_key(|&i| requests[i].issued);
    for (id, &i) in order.iter().enumerate() {
        let r = requests[i];
        let p = r.proto as usize;
        if let Some(&at) = external.get(&r.payload) {
            red.want_wakeup_ms[p].push(at.saturating_sub(r.issued) as f64 / 1e6);
        }
        if let Some(times) = granted.get(&(r.proto, r.req)) {
            if let Some(&at) = times.iter().filter(|&&t| t <= r.granted).max() {
                red.grant_publish_ms.push((r.granted - at) as f64 / 1e6);
            }
        }
        let c = &children[p];
        let lo = c.partition_point(|s| s.start + longest[p] < r.issued);
        let hi = c.partition_point(|s| s.start < r.granted);
        let mut covered = 0u64;
        let mut reach = r.issued;
        for s in c[lo..hi].iter().filter(|s| s.kind != Kind::Recv) {
            let (a, b) = (s.start.max(reach), s.end.min(r.granted));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        red.request_self_s += (r.granted - r.issued - covered) as f64 / 1e9;
        if lines < cap {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":null,\"kind\":\"request\",\"proto\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                id + 1,
                PROTOS[p],
                r.issued,
                r.granted
            )?;
            lines += 1;
            for s in &c[lo..hi] {
                if lines >= cap || s.end <= r.issued {
                    continue;
                }
                writeln!(
                    out,
                    "{{\"id\":null,\"parent\":{},\"kind\":\"{}\",\"proto\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    id + 1,
                    s.kind.name(),
                    PROTOS[p],
                    s.start,
                    s.end
                )?;
                lines += 1;
            }
        }
    }
    Ok(red)
}
