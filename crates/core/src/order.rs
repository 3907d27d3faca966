//! Per-node ordered-delivery state: the local prefix history `P|(x, H_x)`.
//!
//! System S1 introduced per-node prefix copies of the global history; the
//! **prefix property** (Definition 2) demands every node's applied history is
//! a prefix of `H`. This module maintains that local prefix: entries are
//! applied strictly in `seq` order with no gaps, so the applied sequence is a
//! prefix of `H` *by construction*; a chained digest lets tests compare two
//! nodes' prefixes in O(1) without retaining the entries.

use crate::event::{EventBuf, TokenEvent};
use crate::token::TokenFrame;
use crate::types::LogEntry;
use atp_net::SimTime;

/// Chained digest over a history prefix (multiply-fold over entry words).
///
/// Two nodes whose `(applied_seq, digest)` pairs agree have byte-identical
/// prefixes with overwhelming probability; a node with smaller `applied_seq`
/// can be checked against another's digest history when full logs are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryDigest(pub u64);

impl HistoryDigest {
    /// Digest of the empty history.
    pub const EMPTY: HistoryDigest = HistoryDigest(0xcbf2_9ce4_8422_2325);

    /// Extends the digest with one entry.
    #[inline]
    pub fn chain(self, entry: &LogEntry) -> HistoryDigest {
        // A holder that cannot adopt the token's digest memo re-chains the
        // carried window (~N/gap entries), so the loop-carried dependency
        // bounds that fallback. The entry is first folded into one word
        // that does not depend on the running digest — those multiplies
        // overlap across consecutive entries — and only a single
        // multiply-fold round is serial. Digest values are compared only
        // within a run and never reach checked-in artifacts.
        let mut h = (self.0 ^ entry_word(entry)).wrapping_mul(K_CHAIN);
        h ^= h >> 32;
        HistoryDigest(h)
    }
}

const K_CHAIN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Mixes one entry's `(seq, origin, payload)` into a single word.
///
/// With the other two fields fixed, each field reaches the word through
/// invertible steps only (odd multiplications, xors, a final xor-shift),
/// so changing any one field always changes the word. The chain step is
/// a bijection of the running digest for a fixed word, so such a change
/// always changes the final digest.
#[inline]
fn entry_word(entry: &LogEntry) -> u64 {
    const K_SEQ: u64 = 0xbf58_476d_1ce4_e5b9;
    const K_MIX: u64 = 0x94d0_49bb_1331_11eb;
    let w = (entry.seq.wrapping_mul(K_SEQ) ^ entry.payload).wrapping_mul(K_MIX)
        ^ u64::from(entry.origin.raw()).wrapping_mul(K_CHAIN);
    w ^ (w >> 31)
}

/// The local ordered log of one node.
#[derive(Debug, Clone)]
pub struct OrderState {
    applied_seq: u64,
    digest: HistoryDigest,
    /// Digest after each applied entry (index `i` = digest of prefix of
    /// length `i+1`); kept only when `record_log` is on.
    digests: Vec<HistoryDigest>,
    log: Vec<LogEntry>,
    record_log: bool,
    /// Entries that arrived with `seq > applied_seq + 1` and had to be
    /// skipped (the node was down long enough to miss the carried window).
    gap_events: u64,
    /// Digest chain steps run by the explicit apply loop (entries adopted
    /// from a token's digest memo are not chained, so not counted).
    chain_steps: u64,
    /// Test-only seeded fault: use an off-by-one duplicate-skip bound in
    /// [`OrderState::apply`]. See [`OrderState::enable_bad_prefix_skip`].
    bad_skip: bool,
}

impl OrderState {
    /// Creates an empty local history.
    pub fn new(record_log: bool) -> Self {
        OrderState {
            applied_seq: 0,
            digest: HistoryDigest::EMPTY,
            digests: Vec::new(),
            log: Vec::new(),
            record_log,
            gap_events: 0,
            chain_steps: 0,
            bad_skip: false,
        }
    }

    /// Rebuilds a local history from checkpointed durable state.
    ///
    /// With `record_log` on and a non-empty `log`, the digest chain is
    /// recomputed entry by entry — the checkpoint's `digest` is then
    /// required to match, so a corrupted checkpoint cannot silently fork
    /// the prefix property. With logs off (or an empty log), the
    /// `(applied_seq, digest)` pair is restored verbatim and per-length
    /// digests stay unavailable, exactly as after a live run without logs.
    pub fn restore(
        record_log: bool,
        applied_seq: u64,
        digest: HistoryDigest,
        log: Vec<LogEntry>,
    ) -> Self {
        let mut state = OrderState::new(record_log);
        if record_log && !log.is_empty() {
            let mut chained = HistoryDigest::EMPTY;
            for entry in &log {
                chained = chained.chain(entry);
                state.digests.push(chained);
            }
            assert_eq!(chained, digest, "checkpoint digest does not match its log");
            assert_eq!(
                log.last().map(|e| e.seq),
                Some(applied_seq),
                "checkpoint applied_seq does not match its log"
            );
            state.log = log;
        }
        state.applied_seq = applied_seq;
        state.digest = digest;
        state
    }

    /// **Test-only seeded mutation** — do not call outside DST harnesses.
    ///
    /// Makes [`OrderState::apply`] skip only entries *strictly below*
    /// `applied_seq` instead of at-or-below, so a redelivered window whose
    /// last entry equals `applied_seq` re-chains that entry into the digest.
    /// This is exactly the off-by-one a careless duplicate check would
    /// introduce; it silently corrupts the digest (violating the prefix
    /// property) without tripping any local assertion, making it the
    /// calibration target the DST explorer must find and minimize.
    #[doc(hidden)]
    pub fn enable_bad_prefix_skip(&mut self) {
        self.bad_skip = true;
    }

    /// Applies `token`'s carried window: the same result as
    /// [`OrderState::apply`] on [`TokenFrame::carried`], in O(1) digest
    /// work when the token knows its window's digests.
    ///
    /// The memo is adopted only when this node's prefix ends inside or just
    /// before the window and its digest equals the memo's digest at that
    /// length; since `memo[i] = chain(memo[i-1], carried[i])`, the loop
    /// would then compute exactly the memo's digests. Every other case — a
    /// lagging node with gaps, a diverged digest, a frame without a memo
    /// (decoded or regenerated), the seeded `bad_prefix_skip` fault — runs
    /// the explicit loop.
    pub(crate) fn apply_frame(&mut self, token: &TokenFrame, at: SimTime, events: &mut EventBuf) {
        let entries = token.carried();
        if let (false, Some(first), Some((before, after))) =
            (self.bad_skip, entries.first(), token.digest_memo())
        {
            // Memo frames are minted locally, so seqs start at 1 and are
            // consecutive: `skip` entries of the window are already applied.
            let skip = self
                .applied_seq
                .checked_sub(first.seq - 1)
                .and_then(|s| usize::try_from(s).ok());
            if let Some(skip) = skip.filter(|&s| s < entries.len()) {
                let at_applied = if skip == 0 { before } else { after[skip - 1] };
                if at_applied == self.digest {
                    self.applied_seq = entries[entries.len() - 1].seq;
                    self.digest = after[after.len() - 1];
                    if self.record_log {
                        for (entry, digest) in entries[skip..].iter().zip(&after[skip..]) {
                            self.log.push(*entry);
                            self.digests.push(*digest);
                            events.push(TokenEvent::Delivered { entry: *entry, at });
                        }
                    }
                    return;
                }
            }
        }
        self.apply(entries, at, events);
    }

    /// Applies every entry in `entries` that directly extends the local
    /// prefix, emitting [`TokenEvent::Delivered`] into `events`.
    ///
    /// `entries` must be sorted by `seq` (the token keeps them so). Entries
    /// at or below `applied_seq` are duplicates and skipped silently; an
    /// entry beyond `applied_seq + 1` indicates the node missed the carried
    /// window (crash recovery) and increments the gap counter instead of
    /// violating the prefix invariant.
    pub(crate) fn apply(&mut self, entries: &[LogEntry], at: SimTime, events: &mut EventBuf) {
        // Fast path: the whole carried window is already applied — the
        // common case when a circulating token revisits a caught-up node.
        // (Skipped under the seeded fault, which re-admits the boundary
        // entry on purpose.)
        if !self.bad_skip && entries.last().is_none_or(|e| e.seq <= self.applied_seq) {
            return;
        }
        // `entries` is sorted by seq: skip the already-applied prefix in
        // O(log n) instead of scanning it (the lazy-search token carries its
        // full history, so a linear skip would make possessions quadratic).
        let start = if self.bad_skip {
            // Seeded fault: strictly-below bound re-admits the entry at
            // exactly `applied_seq`, double-chaining it into the digest.
            entries.partition_point(|e| e.seq < self.applied_seq)
        } else {
            entries.partition_point(|e| e.seq <= self.applied_seq)
        };
        // Locals keep the serial chain step in registers instead of
        // round-tripping it through `self` on every entry.
        let (mut applied_seq, mut digest) = (self.applied_seq, self.digest);
        let mut chained = 0;
        for entry in &entries[start..] {
            if entry.seq > applied_seq + 1 {
                self.gap_events += 1;
                continue;
            }
            applied_seq = entry.seq;
            digest = digest.chain(entry);
            chained += 1;
            if self.record_log {
                self.log.push(*entry);
                self.digests.push(digest);
                events.push(TokenEvent::Delivered { entry: *entry, at });
            }
        }
        self.applied_seq = applied_seq;
        self.digest = digest;
        self.chain_steps += chained;
    }

    /// [`OrderState::apply`] for callers outside the protocol handlers
    /// (benchmarks, external drivers): returns the emitted events, which
    /// are none when `record_log` is off.
    pub fn apply_entries(&mut self, entries: &[LogEntry], at: SimTime) -> Vec<TokenEvent> {
        let mut events = EventBuf::default();
        self.apply(entries, at, &mut events);
        events.take()
    }

    /// [`OrderState::apply_frame`] for callers outside the protocol
    /// handlers, like [`OrderState::apply_entries`].
    pub fn apply_frame_entries(&mut self, token: &TokenFrame, at: SimTime) -> Vec<TokenEvent> {
        let mut events = EventBuf::default();
        self.apply_frame(token, at, &mut events);
        events.take()
    }

    /// Length of the applied prefix.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Digest of the applied prefix.
    pub fn digest(&self) -> HistoryDigest {
        self.digest
    }

    /// Digest of the prefix of length `len` (requires `record_log`).
    ///
    /// Returns `None` if `len` exceeds the applied prefix or logs are off
    /// (except `len == 0`, which is always the empty digest).
    pub fn digest_at(&self, len: u64) -> Option<HistoryDigest> {
        if len == 0 {
            return Some(HistoryDigest::EMPTY);
        }
        if len == self.applied_seq {
            return Some(self.digest);
        }
        self.digests.get(len as usize - 1).copied()
    }

    /// The applied entries (empty when `record_log` is off).
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// The applied entries from position `from_seq` on, capped at `max`.
    /// Empty when logs are off or `from_seq` is beyond the applied prefix.
    pub fn suffix_from(&self, from_seq: u64, max: usize) -> Vec<LogEntry> {
        if from_seq == 0 || from_seq > self.applied_seq || self.log.is_empty() {
            return Vec::new();
        }
        let start = (from_seq - 1) as usize;
        self.log
            .get(start..)
            .map(|s| s.iter().take(max).copied().collect())
            .unwrap_or_default()
    }

    /// Number of entries that could not be applied due to gaps.
    pub fn gap_events(&self) -> u64 {
        self.gap_events
    }

    /// Digest chain steps the explicit apply loop has run (a work counter:
    /// entries adopted from a token's digest memo cost none).
    pub fn chain_steps(&self) -> u64 {
        self.chain_steps
    }

    /// Returns `true` when `self`'s applied history is a prefix of
    /// `other`'s (both with `record_log` on, or equal lengths).
    pub fn is_prefix_of(&self, other: &OrderState) -> bool {
        if self.applied_seq > other.applied_seq {
            return false;
        }
        match other.digest_at(self.applied_seq) {
            Some(d) => d == self.digest,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::NodeId;

    fn entry(seq: u64, payload: u64) -> LogEntry {
        LogEntry {
            seq,
            origin: NodeId::new(0),
            payload,
            round: 0,
        }
    }

    fn apply(state: &mut OrderState, entries: &[LogEntry]) -> usize {
        state.apply_entries(entries, SimTime::ZERO).len()
    }

    #[test]
    fn applies_in_order_and_dedups() {
        let mut s = OrderState::new(true);
        let n = apply(&mut s, &[entry(1, 10), entry(2, 20)]);
        assert_eq!(n, 2);
        // Redelivery of the same window is idempotent.
        let n = apply(&mut s, &[entry(1, 10), entry(2, 20), entry(3, 30)]);
        assert_eq!(n, 1);
        assert_eq!(s.applied_seq(), 3);
        assert_eq!(s.log().len(), 3);
        assert_eq!(s.gap_events(), 0);
    }

    #[test]
    fn gaps_are_counted_not_applied() {
        let mut s = OrderState::new(true);
        let n = apply(&mut s, &[entry(5, 50)]);
        assert_eq!(n, 0);
        assert_eq!(s.applied_seq(), 0);
        assert_eq!(s.gap_events(), 1);
    }

    #[test]
    fn prefix_relation_via_digests() {
        let mut a = OrderState::new(true);
        let mut b = OrderState::new(true);
        let entries = [entry(1, 1), entry(2, 2), entry(3, 3)];
        apply(&mut a, &entries[..2]);
        apply(&mut b, &entries);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
    }

    #[test]
    fn diverged_histories_are_not_prefixes() {
        let mut a = OrderState::new(true);
        let mut b = OrderState::new(true);
        apply(&mut a, &[entry(1, 1)]);
        apply(&mut b, &[entry(1, 999)]);
        assert!(!a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
    }

    #[test]
    fn empty_history_is_prefix_of_everything() {
        let a = OrderState::new(true);
        let mut b = OrderState::new(true);
        apply(&mut b, &[entry(1, 1)]);
        assert!(a.is_prefix_of(&b));
    }

    #[test]
    fn record_log_off_keeps_counters_only() {
        let mut s = OrderState::new(false);
        // No Delivered events are emitted in counters-only mode.
        assert_eq!(apply(&mut s, &[entry(1, 1), entry(2, 2)]), 0);
        assert_eq!(s.applied_seq(), 2);
        assert!(s.log().is_empty());
        assert!(s.digest_at(1).is_none());
        assert_eq!(s.digest_at(2), Some(s.digest()));
        assert_eq!(s.digest_at(0), Some(HistoryDigest::EMPTY));
    }

    #[test]
    fn suffix_from_returns_requested_run() {
        let mut s = OrderState::new(true);
        apply(&mut s, &[entry(1, 10), entry(2, 20), entry(3, 30)]);
        let suffix = s.suffix_from(2, 10);
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].seq, 2);
        assert_eq!(s.suffix_from(2, 1).len(), 1);
        assert!(s.suffix_from(4, 10).is_empty());
        assert!(s.suffix_from(0, 10).is_empty());
        let off = OrderState::new(false);
        assert!(off.suffix_from(1, 10).is_empty());
    }

    #[test]
    fn bad_prefix_skip_corrupts_digest_on_redelivery() {
        let mut good = OrderState::new(true);
        let mut bad = OrderState::new(true);
        bad.enable_bad_prefix_skip();
        let entries = [entry(1, 10), entry(2, 20)];
        apply(&mut good, &entries);
        apply(&mut bad, &entries);
        // First delivery: indistinguishable.
        assert_eq!(good.digest(), bad.digest());
        assert!(bad.is_prefix_of(&good));
        // Redelivered overlapping window: the faulty bound re-chains the
        // entry at `applied_seq`, silently diverging the digest.
        apply(&mut good, &entries);
        apply(&mut bad, &entries);
        assert_eq!(good.applied_seq(), bad.applied_seq());
        assert_ne!(good.digest(), bad.digest());
        assert!(!bad.is_prefix_of(&good));
    }

    #[test]
    fn digest_chain_is_order_sensitive() {
        let d1 = HistoryDigest::EMPTY.chain(&entry(1, 1)).chain(&entry(2, 2));
        let d2 = HistoryDigest::EMPTY.chain(&entry(2, 2)).chain(&entry(1, 1));
        assert_ne!(d1, d2);
    }

    /// One step of the frame-side script in
    /// [`apply_frame_matches_explicit_loop`].
    #[derive(Debug, Clone, Copy)]
    enum FrameOp {
        Append { origin: u32, payload: u64 },
        /// `on_possess` by `node`; rotational arrivals at node 0 run `gc`.
        Possess { node: u32, rotational: bool },
        KeepLast(usize),
        Regenerate,
        RoundTrip,
        Clone,
        /// Apply the frame at node `i % nodes`.
        Apply(usize),
    }

    /// A node's starting point: how much of the initial history it has
    /// applied, and whether a corrupted copy of it (diverged digest).
    #[derive(Debug, Clone, Copy)]
    struct NodeStart {
        lag_from_end: usize,
        record_log: bool,
        diverged: bool,
        bad_skip: bool,
    }

    #[derive(Debug)]
    struct Script {
        cap: usize,
        initial: Vec<(u32, u64)>,
        nodes: Vec<NodeStart>,
        ops: Vec<FrameOp>,
    }

    fn arb_script(g: &mut atp_util::check::Gen) -> Script {
        use atp_util::rng::Rng;
        let initial = g.vec(0..24, |g| (g.gen_range(0u32..8), g.gen_range(0u64..1000)));
        let len = initial.len();
        let nodes = g.vec(1..6, |g| NodeStart {
            // Lags up to the whole initial history, so after a `gc` some
            // nodes lag beyond the carried window.
            lag_from_end: g.gen_range(0..len + 1),
            record_log: g.gen_bool(0.5),
            diverged: g.gen_bool(0.2),
            bad_skip: g.gen_bool(0.15),
        });
        let ops = g.vec(0..64, |g| match g.gen_range(0u32..16) {
            0..=4 => FrameOp::Append {
                origin: g.gen_range(0u32..8),
                payload: g.gen_range(0u64..1000),
            },
            5..=7 => FrameOp::Possess {
                node: g.gen_range(0u32..3),
                rotational: g.gen_bool(0.8),
            },
            8 => FrameOp::KeepLast(g.gen_range(0usize..8)),
            9 => FrameOp::Regenerate,
            10 => FrameOp::RoundTrip,
            11 => FrameOp::Clone,
            _ => FrameOp::Apply(g.gen_range(0usize..8)),
        });
        Script {
            cap: g.gen_range(1usize..8),
            initial,
            nodes,
            ops,
        }
    }

    /// Each node is a pair: one copy applies through the frame (memo fast
    /// path when it applies), the other through the explicit loop.
    fn assert_same(via_frame: &OrderState, reference: &OrderState) {
        assert_eq!(via_frame.applied_seq(), reference.applied_seq());
        assert_eq!(via_frame.digest(), reference.digest());
        assert_eq!(via_frame.gap_events(), reference.gap_events());
        assert_eq!(via_frame.log(), reference.log());
        for len in 0..=reference.applied_seq() + 1 {
            assert_eq!(via_frame.digest_at(len), reference.digest_at(len), "len {len}");
        }
        assert!(via_frame.chain_steps() <= reference.chain_steps());
    }

    /// Whether `frame` knows its digests and carries entries `node` lacks,
    /// starting right after a prefix whose digest equals `node`'s.
    fn memo_extends(frame: &TokenFrame, node: &OrderState) -> bool {
        let (Some((before, after)), Some(first), Some(last)) = (
            frame.digest_memo(),
            frame.carried().first(),
            frame.carried().last(),
        ) else {
            return false;
        };
        let applied = node.applied_seq();
        if applied + 1 < first.seq || applied >= last.seq {
            return false;
        }
        let memo_at = if applied + 1 == first.seq {
            before
        } else {
            after[(applied - first.seq) as usize]
        };
        memo_at == node.digest()
    }

    /// Applying a token's carried window through the frame (and its digest
    /// memo) is indistinguishable from `apply(frame.carried())`, over random
    /// append / possession-`gc` / `gc_keep_last` / regenerate /
    /// encode→decode / clone scripts and nodes at random lags, with logs on
    /// or off, diverged digests and the seeded `bad_prefix_skip` fault.
    #[test]
    fn apply_frame_matches_explicit_loop() {
        use atp_util::check::Check;
        Check::new("apply_frame_matches_explicit_loop")
            .cases(512)
            .run(arb_script, |script| {
                let mut frame = TokenFrame::new(script.cap);
                for &(origin, payload) in &script.initial {
                    frame.append(NodeId::new(origin), payload);
                }
                let history = frame.carried().to_vec();
                let mut nodes: Vec<(OrderState, OrderState)> = script
                    .nodes
                    .iter()
                    .map(|start| {
                        let mut prefix = history[..history.len() - start.lag_from_end].to_vec();
                        if start.diverged {
                            if let Some(e) = prefix.first_mut() {
                                e.payload ^= 1;
                            }
                        }
                        let mut pair = (
                            OrderState::new(start.record_log),
                            OrderState::new(start.record_log),
                        );
                        for state in [&mut pair.0, &mut pair.1] {
                            if start.bad_skip {
                                state.enable_bad_prefix_skip();
                            }
                            state.apply_entries(&prefix, SimTime::ZERO);
                        }
                        pair
                    })
                    .collect();
                for (step, op) in script.ops.iter().enumerate() {
                    match *op {
                        FrameOp::Append { origin, payload } => {
                            frame.append(NodeId::new(origin), payload);
                        }
                        FrameOp::Possess { node, rotational } => {
                            frame.on_possess(NodeId::new(node), rotational);
                        }
                        FrameOp::KeepLast(keep) => frame.gc_keep_last(keep),
                        FrameOp::Regenerate => {
                            frame = TokenFrame::regenerate(
                                frame.generation + 1,
                                frame.committed(),
                                script.cap,
                                Vec::new(),
                            );
                            assert!(frame.digest_memo().is_none());
                        }
                        FrameOp::RoundTrip => {
                            let mut bytes = Vec::new();
                            frame.encode(&mut bytes);
                            let back = TokenFrame::decode(&mut bytes.as_slice()).expect("decode");
                            assert_eq!(back, frame);
                            assert!(back.digest_memo().is_none());
                            frame = back;
                        }
                        FrameOp::Clone => {
                            let copy = frame.clone();
                            assert_eq!(copy.digest_memo(), frame.digest_memo());
                            frame = copy;
                        }
                        FrameOp::Apply(i) => {
                            let at = SimTime::from_ticks(step as u64);
                            let (via_frame, reference) = &mut nodes[i % script.nodes.len()];
                            let bad_skip = reference.bad_skip;
                            let adoptable = !bad_skip && memo_extends(&frame, via_frame);
                            let chained_before = via_frame.chain_steps();
                            let fast = via_frame.apply_frame_entries(&frame, at);
                            let slow = reference.apply_entries(frame.carried(), at);
                            assert_eq!(fast, slow, "step {step}");
                            assert_same(via_frame, reference);
                            if adoptable {
                                assert_eq!(via_frame.chain_steps(), chained_before);
                            }
                            if bad_skip {
                                // The seeded fault always takes the loop.
                                assert_eq!(via_frame.chain_steps(), reference.chain_steps());
                            }
                        }
                    }
                    // The memo is exactly the chain over the carried window.
                    if let Some((before, after)) = frame.digest_memo() {
                        assert_eq!(after.len(), frame.carried().len());
                        let mut d = before;
                        for (entry, memo) in frame.carried().iter().zip(after) {
                            d = d.chain(entry);
                            assert_eq!(d, *memo);
                        }
                    }
                }
            });
    }

    /// A holder one lap behind a 1000-entry window adopts the memo without
    /// a single chain step and ends where the explicit loop ends.
    #[test]
    fn caught_up_node_adopts_the_memo_without_chaining() {
        let mut frame = TokenFrame::new(8);
        let mut node = OrderState::new(true);
        frame.append(NodeId::new(0), 7);
        node.apply_frame_entries(&frame, SimTime::ZERO);
        assert_eq!(node.chain_steps(), 0);
        for i in 0..1000 {
            frame.append(NodeId::new(i % 5), i as u64);
        }
        let mut reference = node.clone();
        let events = node.apply_frame_entries(&frame, SimTime::ZERO);
        assert_eq!(events.len(), 1000);
        assert_eq!(node.chain_steps(), 0);
        assert_eq!(events, reference.apply_entries(frame.carried(), SimTime::ZERO));
        assert_eq!(reference.chain_steps(), 1000);
        assert_same(&node, &reference);
        // Without a memo (a decoded frame) the same node would chain.
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        let decoded = TokenFrame::decode(&mut bytes.as_slice()).expect("decode");
        let mut fresh = OrderState::new(false);
        fresh.apply_frame_entries(&decoded, SimTime::ZERO);
        assert_eq!(fresh.chain_steps(), 1001);
        assert_eq!(fresh.digest(), node.digest());
    }

    fn digest_of(entries: &[LogEntry]) -> HistoryDigest {
        entries.iter().fold(HistoryDigest::EMPTY, |d, e| d.chain(e))
    }

    /// No single-step edit of a window collides with the original digest:
    /// an adjacent swap, a duplicated entry, a dropped entry, or a one-bit
    /// flip in `seq`, `origin` or `payload`.
    #[test]
    fn digest_detects_single_edits() {
        use atp_util::rng::{Rng, RngCore, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xd1_9e57);
        for case in 0..10_000u64 {
            // Half the windows use small structured payloads (the shape the
            // simulator produces), half use random words.
            let structured = case % 2 == 0;
            let start = rng.gen_range(1u64..1 << 20);
            let len = rng.gen_range(2usize..=24);
            let window: Vec<LogEntry> = (0..len as u64)
                .map(|i| LogEntry {
                    seq: start + i,
                    origin: NodeId::new(
                        rng.gen_range(0u32..if structured { 64 } else { u32::MAX }),
                    ),
                    payload: if structured {
                        start + i
                    } else {
                        rng.next_u64()
                    },
                    round: 0,
                })
                .collect();
            let original = digest_of(&window);
            let at = rng.gen_range(0..len);

            let mut swapped = window.clone();
            swapped.swap(at.min(len - 2), at.min(len - 2) + 1);
            assert_ne!(digest_of(&swapped), original, "adjacent swap, case {case}");

            let mut duplicated = window.clone();
            duplicated.insert(at, window[at]);
            assert_ne!(digest_of(&duplicated), original, "duplicate, case {case}");

            let mut dropped = window.clone();
            dropped.remove(at);
            assert_ne!(digest_of(&dropped), original, "drop, case {case}");

            let mut flipped = window.clone();
            match rng.gen_range(0u32..3) {
                0 => flipped[at].seq ^= 1 << rng.gen_range(0u32..64),
                1 => {
                    let raw = flipped[at].origin.raw() ^ 1 << rng.gen_range(0u32..32);
                    flipped[at].origin = NodeId::new(raw);
                }
                _ => flipped[at].payload ^= 1 << rng.gen_range(0u32..64),
            }
            assert_ne!(digest_of(&flipped), original, "bit flip, case {case}");
        }
    }
}
