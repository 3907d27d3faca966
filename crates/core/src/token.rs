//! The token frame: the single "expensive" artifact that circulates.
//!
//! In System Message-Passing the global history `H` stops existing as state
//! and travels inside token messages. [`TokenFrame`] is the bounded-size
//! realization: instead of the full history it carries
//!
//! * the *committed length* of `H` (`next_seq`), which is all a holder needs
//!   to append;
//! * a **carried window** of recent [`LogEntry`]s — every entry appended
//!   during the current and previous round. A rotation takes exactly one
//!   round to show an entry to every node, so older entries are garbage
//!   (Section 4.4's round-counter bounding);
//! * a **satisfied window** of recently granted [`RequestId`]s used by the
//!   token-rotation trap cleanup;
//! * the rotation bookkeeping (visit counter, round counter, idle rounds)
//!   that drives visit stamps and the adaptive-speed optimization.
//!
//! Beside the carried window a locally minted frame keeps a *digest memo*:
//! the [`HistoryDigest`] of `H` just before the window and after each
//! carried entry. It is chained once per append, so a caught-up holder
//! adopts the window's digests instead of re-chaining every entry. The memo
//! is derived state: never encoded, and unknown after `decode` and
//! `regenerate`, where holders fall back to chaining.

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::VecDeque;

use atp_net::NodeId;

use crate::codec::CodecError;
use crate::order::HistoryDigest;
use crate::types::{LogEntry, RequestId, VisitStamp};

/// The circulating token and its bounded payload.
///
/// `Debug` and `PartialEq` are written out by hand only to leave the
/// derived satisfied-window index and digest memo out; they cover every
/// other field.
#[derive(Clone)]
pub struct TokenFrame {
    /// Token generation; bumped on regeneration after a loss (Section 5).
    /// Frames from superseded generations are discarded on receipt.
    pub generation: u32,
    /// Per-generation transfer counter: bumped on every token-bearing send.
    /// Receivers keep a `(generation, transfer_seq)` watermark so duplicated
    /// or retransmitted frames are suppressed idempotently.
    transfer_seq: u64,
    /// Global possession counter: incremented every time a node takes the
    /// token. Doubles as the visit-stamp source for rule 6's comparison.
    visit_seq: u64,
    /// Completed rotations (increments when the rotating token re-enters
    /// node 0).
    round: u64,
    /// Next position of the global history `H` to be assigned (1-based).
    next_seq: u64,
    /// Entries appended during the current and previous round.
    carried: Vec<LogEntry>,
    /// Recently satisfied requests, newest at the back.
    satisfied: VecDeque<RequestId>,
    /// How many times each id occurs in `satisfied`, so a membership probe
    /// costs O(log W) instead of a scan of the window. Derived state: never
    /// encoded or iterated, rebuilt by `decode`.
    satisfied_index: BTreeMap<RequestId, u32>,
    satisfied_cap: usize,
    /// Digests of `H` along the carried window; `None` when unknown (a
    /// decoded or regenerated frame). Derived state: never encoded.
    memo: Option<DigestMemo>,
    /// Consecutive full rounds in which nobody used the token.
    idle_rounds: u32,
    demand_this_round: bool,
    /// Nodes believed crashed: rotation skips them (Section 5 / future-work
    /// membership sketch). Populated at regeneration time from inquiry
    /// non-repliers; drained by `readmit` when a node announces recovery.
    excluded: Vec<NodeId>,
}

impl TokenFrame {
    /// Mints a fresh token (generation 0, empty history).
    ///
    /// `satisfied_cap` bounds the satisfied window (use
    /// [`ProtocolConfig::effective_window`](crate::ProtocolConfig::effective_window)).
    pub fn new(satisfied_cap: usize) -> Self {
        TokenFrame {
            generation: 0,
            transfer_seq: 0,
            visit_seq: 0,
            round: 0,
            next_seq: 1,
            carried: Vec::new(),
            satisfied: VecDeque::new(),
            satisfied_index: BTreeMap::new(),
            satisfied_cap: satisfied_cap.max(1),
            memo: Some(DigestMemo {
                before: HistoryDigest::EMPTY,
                after: Vec::new(),
            }),
            idle_rounds: 0,
            demand_this_round: false,
            excluded: Vec::new(),
        }
    }

    /// Mints a replacement token after a loss: it inherits the best-known
    /// history length, continues with `generation + 1`, and excludes the
    /// nodes believed dead so rotation routes around them.
    pub fn regenerate(
        generation: u32,
        known_seq: u64,
        satisfied_cap: usize,
        excluded: Vec<NodeId>,
    ) -> Self {
        let mut t = TokenFrame::new(satisfied_cap);
        t.generation = generation;
        t.next_seq = known_seq + 1;
        t.excluded = excluded;
        t.memo = None;
        t
    }

    /// Marks `node` as crashed: rotation will skip it.
    pub fn exclude(&mut self, node: NodeId) {
        if !self.excluded.contains(&node) {
            self.excluded.push(node);
        }
    }

    /// Readmits a recovered node into the rotation.
    pub fn readmit(&mut self, node: NodeId) {
        self.excluded.retain(|n| *n != node);
    }

    /// Whether `node` is currently excluded from the rotation.
    pub fn is_excluded(&self, node: NodeId) -> bool {
        self.excluded.contains(&node)
    }

    /// The per-generation transfer counter (see [`TokenFrame::bump_transfer`]).
    pub fn transfer_seq(&self) -> u64 {
        self.transfer_seq
    }

    /// Advances the transfer counter; call exactly once before every
    /// token-bearing send so each copy in flight is uniquely identified by
    /// `(generation, transfer_seq)`.
    pub fn bump_transfer(&mut self) {
        self.transfer_seq += 1;
    }

    /// The nodes currently excluded from the rotation.
    pub fn excluded(&self) -> &[NodeId] {
        &self.excluded
    }

    /// The next rotation destination from `me`: the first successor not
    /// excluded as crashed. Falls back to `me` if everyone else is excluded.
    pub fn next_live_successor(&self, topology: atp_net::Topology, me: NodeId) -> NodeId {
        let mut next = topology.successor(me);
        for _ in 0..topology.len() {
            if !self.is_excluded(next) {
                return next;
            }
            next = topology.successor(next);
        }
        me
    }

    /// Records a possession by `node`; returns the node's new visit stamp.
    ///
    /// `rotational` is true for ring-rotation arrivals (rule 3), false for
    /// out-of-band grants (rules 7/8); only rotational arrivals at node 0
    /// advance the round counter.
    pub fn on_possess(&mut self, node: NodeId, rotational: bool) -> VisitStamp {
        self.visit_seq += 1;
        if rotational && node.index() == 0 && self.visit_seq > 1 {
            self.round += 1;
            if self.demand_this_round {
                self.idle_rounds = 0;
            } else {
                self.idle_rounds = self.idle_rounds.saturating_add(1);
            }
            self.demand_this_round = false;
            self.gc();
        }
        VisitStamp(self.visit_seq)
    }

    /// Appends one datum to the global history on behalf of `origin`.
    pub fn append(&mut self, origin: NodeId, payload: u64) -> LogEntry {
        let entry = LogEntry {
            seq: self.next_seq,
            origin,
            payload,
            round: self.round,
        };
        self.next_seq += 1;
        self.carried.push(entry);
        if let Some(memo) = &mut self.memo {
            let prev = memo.after.last().copied().unwrap_or(memo.before);
            memo.after.push(prev.chain(&entry));
        }
        self.demand_this_round = true;
        self.idle_rounds = 0;
        entry
    }

    /// Records that `req` has been granted (for rotation trap cleanup).
    pub fn mark_satisfied(&mut self, req: RequestId) {
        if self.satisfied.len() == self.satisfied_cap {
            if let Some(evicted) = self.satisfied.pop_front() {
                if let Entry::Occupied(mut slot) = self.satisfied_index.entry(evicted) {
                    *slot.get_mut() -= 1;
                    if *slot.get() == 0 {
                        slot.remove();
                    }
                }
            }
        }
        self.satisfied.push_back(req);
        *self.satisfied_index.entry(req).or_insert(0) += 1;
        self.demand_this_round = true;
    }

    /// Whether `req` appears in the satisfied window.
    pub fn is_satisfied(&self, req: &RequestId) -> bool {
        self.satisfied_index.contains_key(req)
    }

    /// Entries the token still carries (current and previous round).
    pub fn carried(&self) -> &[LogEntry] {
        &self.carried
    }

    /// The digest memo as `(digest of H before carried[0], digest after each
    /// carried entry)`, or `None` when unknown. The second slice is as long
    /// as [`TokenFrame::carried`].
    pub(crate) fn digest_memo(&self) -> Option<(HistoryDigest, &[HistoryDigest])> {
        self.memo.as_ref().map(|m| (m.before, m.after.as_slice()))
    }

    /// Number of entries committed to `H` so far.
    pub fn committed(&self) -> u64 {
        self.next_seq - 1
    }

    /// Completed rotation count.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Global possession counter value.
    pub fn visits(&self) -> u64 {
        self.visit_seq
    }

    /// Consecutive demand-free rounds (drives adaptive token speed).
    pub fn idle_rounds(&self) -> u32 {
        self.idle_rounds
    }

    /// Drops carried entries older than the previous round.
    fn gc(&mut self) {
        let keep_from = self.round.saturating_sub(1);
        // Entries are appended in round order, so the victims are exactly
        // a prefix: locate it by bisection and drop it in one move instead
        // of predicate-scanning the whole window every possession.
        let cut = self.carried.partition_point(|e| e.round < keep_from);
        self.drop_carried_prefix(cut);
    }

    /// Keeps only the `keep` most recent carried entries.
    ///
    /// Used by the lazy-token search protocol, whose token has no rounds to
    /// GC by: recipients that fell further behind than `keep` entries record
    /// gaps instead of stalling the window.
    pub fn gc_keep_last(&mut self, keep: usize) {
        self.drop_carried_prefix(self.carried.len().saturating_sub(keep));
    }

    /// Drops the `cut` oldest carried entries and their memo digests.
    fn drop_carried_prefix(&mut self, cut: usize) {
        if cut == 0 {
            return;
        }
        self.carried.drain(..cut);
        if let Some(memo) = &mut self.memo {
            memo.before = memo.after[cut - 1];
            memo.after.drain(..cut);
        }
    }

    /// Serializes the frame into `buf` (little-endian, length-prefixed
    /// collections). The inverse of [`TokenFrame::decode`].
    pub fn encode(&self, buf: &mut impl atp_util::buf::BufMut) {
        buf.put_u32_le(self.generation);
        buf.put_u64_le(self.transfer_seq);
        buf.put_u64_le(self.visit_seq);
        buf.put_u64_le(self.round);
        buf.put_u64_le(self.next_seq);
        buf.put_u32_le(self.idle_rounds);
        buf.put_u8(self.demand_this_round as u8);
        buf.put_u32_le(self.satisfied_cap as u32);
        buf.put_u32_le(self.carried.len() as u32);
        for e in &self.carried {
            buf.put_u64_le(e.seq);
            buf.put_u32_le(e.origin.raw());
            buf.put_u64_le(e.payload);
            buf.put_u64_le(e.round);
        }
        buf.put_u32_le(self.satisfied.len() as u32);
        for r in &self.satisfied {
            buf.put_u32_le(r.origin.raw());
            buf.put_u64_le(r.seq);
        }
        buf.put_u32_le(self.excluded.len() as u32);
        for n in &self.excluded {
            buf.put_u32_le(n.raw());
        }
    }

    /// Exact byte length [`TokenFrame::encode`] would produce, computed
    /// without encoding (observability code sizes frames per send and
    /// must not allocate on the hot path).
    pub fn encoded_len(&self) -> usize {
        // Fixed header (45) + three u32 length prefixes (12), then the
        // per-element costs of carried / satisfied / excluded.
        57 + 28 * self.carried.len() + 12 * self.satisfied.len() + 4 * self.excluded.len()
    }

    /// Deserializes a frame previously written by [`TokenFrame::encode`].
    ///
    /// Returns [`CodecError::Truncated`] if `buf` is truncated and
    /// [`CodecError::SatisfiedOverCap`] if the satisfied window is longer
    /// than its cap: `mark_satisfied` evicts one id per push, so such a
    /// window would never shrink back to its bound. The carried window must
    /// be what `append` builds — strictly consecutive seqs ending at
    /// `next_seq - 1`, with `next_seq >= 1` — or decoding fails with
    /// [`CodecError::ZeroNextSeq`], [`CodecError::CarriedNotConsecutive`]
    /// or [`CodecError::CarriedTailMismatch`]; history application bisects
    /// the window by seq and relies on that shape.
    pub fn decode(buf: &mut impl atp_util::buf::Buf) -> Result<Self, CodecError> {
        fn need(buf: &impl atp_util::buf::Buf, n: usize) -> Result<(), CodecError> {
            if buf.remaining() >= n {
                Ok(())
            } else {
                Err(CodecError::Truncated)
            }
        }
        need(buf, 4 + 8 + 8 + 8 + 8 + 4 + 1 + 4 + 4)?;
        let generation = buf.get_u32_le();
        let transfer_seq = buf.get_u64_le();
        let visit_seq = buf.get_u64_le();
        let round = buf.get_u64_le();
        let next_seq = buf.get_u64_le();
        if next_seq == 0 {
            return Err(CodecError::ZeroNextSeq);
        }
        let idle_rounds = buf.get_u32_le();
        let demand_this_round = buf.get_u8() != 0;
        let satisfied_cap = buf.get_u32_le().max(1);
        let n_carried = buf.get_u32_le() as usize;
        let mut carried = Vec::with_capacity(n_carried.min(1 << 16));
        for _ in 0..n_carried {
            need(buf, 8 + 4 + 8 + 8)?;
            let seq = buf.get_u64_le();
            if let Some(prev) = carried.last().map(|e: &LogEntry| e.seq) {
                if prev.checked_add(1) != Some(seq) {
                    return Err(CodecError::CarriedNotConsecutive { prev, seq });
                }
            }
            carried.push(LogEntry {
                seq,
                origin: NodeId::new(buf.get_u32_le()),
                payload: buf.get_u64_le(),
                round: buf.get_u64_le(),
            });
        }
        if let Some(last) = carried.last().map(|e| e.seq) {
            if last.checked_add(1) != Some(next_seq) {
                return Err(CodecError::CarriedTailMismatch { last, next_seq });
            }
        }
        need(buf, 4)?;
        let n_satisfied = buf.get_u32_le();
        if n_satisfied > satisfied_cap {
            return Err(CodecError::SatisfiedOverCap {
                len: n_satisfied,
                cap: satisfied_cap,
            });
        }
        let mut satisfied = VecDeque::with_capacity((n_satisfied as usize).min(1 << 16));
        let mut satisfied_index = BTreeMap::new();
        for _ in 0..n_satisfied {
            need(buf, 4 + 8)?;
            let req = RequestId::new(NodeId::new(buf.get_u32_le()), buf.get_u64_le());
            satisfied.push_back(req);
            *satisfied_index.entry(req).or_insert(0) += 1;
        }
        need(buf, 4)?;
        let n_excluded = buf.get_u32_le() as usize;
        let mut excluded = Vec::with_capacity(n_excluded.min(1 << 16));
        for _ in 0..n_excluded {
            need(buf, 4)?;
            excluded.push(NodeId::new(buf.get_u32_le()));
        }
        Ok(TokenFrame {
            generation,
            transfer_seq,
            visit_seq,
            round,
            next_seq,
            carried,
            satisfied,
            satisfied_index,
            satisfied_cap: satisfied_cap as usize,
            memo: None,
            idle_rounds,
            demand_this_round,
            excluded,
        })
    }
}

/// Digests of `H` along a frame's carried window: `after[i]` is
/// `chain(digest before carried[i], carried[i])`, so `after` is as long as
/// the window and its last element is the digest of the whole of `H`.
#[derive(Clone)]
struct DigestMemo {
    /// Digest of `H` just before `carried[0]` (of all of `H` when the
    /// window is empty).
    before: HistoryDigest,
    after: Vec<HistoryDigest>,
}

impl std::fmt::Debug for TokenFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TokenFrame {
            generation,
            transfer_seq,
            visit_seq,
            round,
            next_seq,
            carried,
            satisfied,
            satisfied_index: _,
            satisfied_cap,
            memo: _,
            idle_rounds,
            demand_this_round,
            excluded,
        } = self;
        f.debug_struct("TokenFrame")
            .field("generation", generation)
            .field("transfer_seq", transfer_seq)
            .field("visit_seq", visit_seq)
            .field("round", round)
            .field("next_seq", next_seq)
            .field("carried", carried)
            .field("satisfied", satisfied)
            .field("satisfied_cap", satisfied_cap)
            .field("idle_rounds", idle_rounds)
            .field("demand_this_round", demand_this_round)
            .field("excluded", excluded)
            .finish()
    }
}

impl PartialEq for TokenFrame {
    fn eq(&self, other: &Self) -> bool {
        let TokenFrame {
            generation,
            transfer_seq,
            visit_seq,
            round,
            next_seq,
            carried,
            satisfied,
            satisfied_index: _,
            satisfied_cap,
            memo: _,
            idle_rounds,
            demand_this_round,
            excluded,
        } = self;
        *generation == other.generation
            && *transfer_seq == other.transfer_seq
            && *visit_seq == other.visit_seq
            && *round == other.round
            && *next_seq == other.next_seq
            && *carried == other.carried
            && *satisfied == other.satisfied
            && *satisfied_cap == other.satisfied_cap
            && *idle_rounds == other.idle_rounds
            && *demand_this_round == other.demand_this_round
            && *excluded == other.excluded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_contiguous_seqs() {
        let mut t = TokenFrame::new(8);
        let a = t.append(NodeId::new(1), 10);
        let b = t.append(NodeId::new(2), 20);
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert_eq!(t.committed(), 2);
        assert_eq!(t.carried().len(), 2);
    }

    #[test]
    fn possession_stamps_are_monotone() {
        let mut t = TokenFrame::new(8);
        let s1 = t.on_possess(NodeId::new(0), true);
        let s2 = t.on_possess(NodeId::new(1), true);
        assert!(s2.is_fresher_than(s1));
    }

    #[test]
    fn rounds_advance_only_on_rotational_reentry_at_origin() {
        let mut t = TokenFrame::new(8);
        t.on_possess(NodeId::new(0), true); // initial possession, no round yet
        t.on_possess(NodeId::new(1), true);
        assert_eq!(t.round(), 0);
        t.on_possess(NodeId::new(0), true); // completed a lap
        assert_eq!(t.round(), 1);
        t.on_possess(NodeId::new(0), false); // out-of-band possession: no lap
        assert_eq!(t.round(), 1);
    }

    #[test]
    fn idle_rounds_count_and_reset_on_demand() {
        let mut t = TokenFrame::new(8);
        t.on_possess(NodeId::new(0), true);
        t.on_possess(NodeId::new(0), true);
        t.on_possess(NodeId::new(0), true);
        assert_eq!(t.idle_rounds(), 2);
        t.append(NodeId::new(0), 1);
        assert_eq!(t.idle_rounds(), 0);
        t.on_possess(NodeId::new(0), true);
        // demand flag was consumed by the lap: round was busy.
        assert_eq!(t.idle_rounds(), 0);
        t.on_possess(NodeId::new(0), true);
        assert_eq!(t.idle_rounds(), 1);
    }

    #[test]
    fn gc_drops_entries_two_rounds_old() {
        let mut t = TokenFrame::new(8);
        t.on_possess(NodeId::new(0), true);
        t.append(NodeId::new(0), 1); // round 0
        t.on_possess(NodeId::new(0), true); // round 1
        t.append(NodeId::new(0), 2); // round 1
        assert_eq!(t.carried().len(), 2);
        t.on_possess(NodeId::new(0), true); // round 2: round-0 entry dropped
        assert_eq!(t.carried().len(), 1);
        assert_eq!(t.carried()[0].seq, 2);
        assert_eq!(t.committed(), 2);
    }

    #[test]
    fn transfer_seq_starts_at_zero_and_bumps() {
        let mut t = TokenFrame::new(8);
        assert_eq!(t.transfer_seq(), 0);
        t.bump_transfer();
        t.bump_transfer();
        assert_eq!(t.transfer_seq(), 2);
        // A regenerated frame starts a fresh transfer sequence.
        let t2 = TokenFrame::regenerate(3, 0, 8, vec![]);
        assert_eq!(t2.transfer_seq(), 0);
    }

    #[test]
    fn satisfied_window_is_bounded_fifo() {
        let mut t = TokenFrame::new(2);
        let r = |i| RequestId::new(NodeId::new(i), 1);
        t.mark_satisfied(r(0));
        t.mark_satisfied(r(1));
        t.mark_satisfied(r(2));
        assert!(!t.is_satisfied(&r(0)));
        assert!(t.is_satisfied(&r(1)));
        assert!(t.is_satisfied(&r(2)));
    }

    /// The satisfied index agrees with a linear scan of the window at every
    /// step, for seeded sequences with repeated ids and every cap from 1 to
    /// 64, and survives an encode/decode round trip without changing the
    /// wire bytes.
    #[test]
    fn satisfied_index_matches_linear_scan() {
        use atp_util::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5a7_15f1ed);
        for cap in 1..=64usize {
            let mut t = TokenFrame::new(cap);
            let mut model: VecDeque<RequestId> = VecDeque::new();
            // A small id universe forces repeats inside one window.
            let universe = (cap as u32 / 2).max(2);
            let id = |rng: &mut StdRng| {
                RequestId::new(
                    NodeId::new(rng.gen_range(0..universe)),
                    rng.gen_range(1u64..=2),
                )
            };
            for _ in 0..4 * cap + 8 {
                let req = id(&mut rng);
                t.mark_satisfied(req);
                if model.len() == cap {
                    model.pop_front();
                }
                model.push_back(req);
                assert_eq!(t.satisfied, model);
                for _ in 0..4 {
                    let probe = id(&mut rng);
                    assert_eq!(t.is_satisfied(&probe), t.satisfied.contains(&probe));
                }
            }

            let mut bytes = Vec::new();
            t.encode(&mut bytes);
            assert_eq!(bytes.len(), t.encoded_len());
            // The satisfied section is exactly the plain window's encoding.
            let mut expected = (model.len() as u32).to_le_bytes().to_vec();
            for r in &model {
                expected.extend_from_slice(&r.origin.raw().to_le_bytes());
                expected.extend_from_slice(&r.seq.to_le_bytes());
            }
            expected.extend_from_slice(&0u32.to_le_bytes());
            assert!(bytes.ends_with(&expected));

            let mut back = TokenFrame::decode(&mut bytes.as_slice()).expect("round trip");
            assert_eq!(back, t);
            let mut again = Vec::new();
            back.encode(&mut again);
            assert_eq!(again, bytes);
            assert_eq!(back.encoded_len(), t.encoded_len());
            for origin in 0..=universe {
                for seq in 1..=3 {
                    let probe = RequestId::new(NodeId::new(origin), seq);
                    assert_eq!(back.is_satisfied(&probe), model.contains(&probe));
                }
            }
            // The rebuilt index keeps evicting in step with the window.
            for _ in 0..2 * cap {
                let req = id(&mut rng);
                back.mark_satisfied(req);
                if model.len() == cap {
                    model.pop_front();
                }
                model.push_back(req);
                let probe = id(&mut rng);
                assert_eq!(back.is_satisfied(&probe), model.contains(&probe));
            }
        }
    }

    #[test]
    fn regeneration_preserves_history_length() {
        let mut t = TokenFrame::new(8);
        t.append(NodeId::new(0), 5);
        t.append(NodeId::new(0), 6);
        let t2 = TokenFrame::regenerate(3, t.committed(), 8, vec![NodeId::new(5)]);
        assert_eq!(t2.generation, 3);
        assert_eq!(t2.committed(), 2);
        assert!(t2.carried().is_empty());
        assert!(t2.is_excluded(NodeId::new(5)));
        let mut t2 = t2;
        t2.exclude(NodeId::new(5));
        assert_eq!(t2.excluded().len(), 1);
        t2.readmit(NodeId::new(5));
        assert!(!t2.is_excluded(NodeId::new(5)));
    }
}
