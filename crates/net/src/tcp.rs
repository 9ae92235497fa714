//! TCP sender/receiver state machines.
//!
//! The protocol comparison at the centre of the paper's second campaign
//! (HTTP/1.1 vs HTTP/2, Fig. 8a/8b) is, at the transport level, a
//! comparison between *six short parallel congestion windows* and *one
//! long shared one*. Getting that right requires an actual congestion
//! controller, not a fixed-latency pipe, so this module implements a
//! Reno/NewReno-style sender:
//!
//! * slow start from a 10-segment initial window (RFC 6928, matching the
//!   Chrome/Linux stacks webpeg recorded through),
//! * congestion avoidance with the standard `MSS²/cwnd` per-ACK growth,
//! * fast retransmit on three duplicate ACKs with NewReno partial-ACK
//!   retransmission (no SACK),
//! * retransmission timeouts with exponential backoff and Karn-corrected
//!   RTT estimation (RFC 6298 smoothing).
//!
//! The structures here are *pure state machines*: they decide what to send
//! and how to react to ACKs, but performing the sends (and experiencing
//! loss and queueing) is the job of [`crate::sim::NetSim`]. This split
//! keeps the transport logic unit-testable without a simulator.

use crate::time::{SimDuration, SimTime};

/// Maximum segment size in payload bytes. 1460 = 1500-byte Ethernet MTU
/// minus 40 bytes of IPv4+TCP headers.
pub const MSS: u64 = 1460;

/// Initial congestion window, in segments (RFC 6928).
pub const INITIAL_WINDOW_SEGMENTS: u64 = 10;

/// Bytes of L3/L4 header accounted per segment on the wire.
pub const HEADER_BYTES: u64 = 40;

/// Duplicate-ACK threshold for fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;

/// Lower clamp on the retransmission timeout. Real stacks use 200 ms–1 s;
/// we use 200 ms so RTO behaviour is visible on simulated broadband RTTs.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// Upper clamp on the retransmission timeout.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// Initial RTO before any RTT sample exists (RFC 6298 says 1 s).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// A transmission instruction produced by [`TcpSender::next_segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentToSend {
    /// First byte offset (inclusive).
    pub start: u64,
    /// One past the last byte offset.
    pub end: u64,
    /// Whether this is a retransmission.
    pub retransmission: bool,
}

impl SegmentToSend {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the segment carries no payload (never produced in practice).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Bytes this segment occupies on the wire, including headers.
    pub fn wire_bytes(&self) -> u64 {
        self.len() + HEADER_BYTES
    }
}

/// What an ACK caused the sender to do, reported for tracing/tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// The ACK advanced `snd_una` in the normal course of things.
    Advanced,
    /// A duplicate ACK that did not yet trigger recovery.
    Duplicate,
    /// The third duplicate ACK: fast retransmit has been queued.
    FastRetransmit,
    /// A partial ACK during recovery: the next hole has been queued for
    /// retransmission (NewReno).
    PartialAck,
    /// The ACK completed recovery.
    RecoveryComplete,
    /// The ACK was stale (below `snd_una` with no outstanding data).
    Ignored,
}

/// Reno/NewReno congestion-controlled sender over an abstract byte stream.
#[derive(Debug, Clone)]
pub struct TcpSender {
    mss: u64,
    /// Congestion window in bytes. Kept as f64 so congestion-avoidance
    /// growth of MSS²/cwnd per ACK accumulates smoothly.
    cwnd: f64,
    ssthresh: f64,
    /// Lowest unacknowledged byte.
    snd_una: u64,
    /// Next fresh byte to transmit.
    snd_nxt: u64,
    /// Total bytes the application has made available to send.
    app_limit: u64,
    dup_acks: u32,
    /// `Some(recovery_point)` while in loss recovery; recovery ends when
    /// `snd_una` passes this.
    recovery: Option<u64>,
    /// Active retransmission range `[cursor, end)`; segments the SACK
    /// scoreboard covers are skipped, so only genuine holes are re-sent.
    rtx: Option<(u64, u64)>,
    /// SACK scoreboard: the union of every advertised block (RFC 2018
    /// carries at most 3 blocks per ACK, so the sender accumulates them),
    /// pruned as the cumulative point advances.
    sacked: RangeSet,
    /// ACK-clocked retransmission credit (RFC 6675's pipe control,
    /// simplified): each returning ACK during recovery licenses one
    /// retransmission, so recovery drains into the queue at the rate the
    /// queue empties instead of re-flooding it.
    rtx_credit: u64,
    /// Dupacks since the recovery cursor last moved; a pile-up means the
    /// hole's own retransmission was lost, and the cursor rewinds (the
    /// job RACK does in modern stacks) instead of waiting out an RTO.
    dupacks_since_progress: u32,
    /// Whether the most recent `update_sack` carried new information.
    last_sack_new: bool,
    // --- RTT estimation (RFC 6298) ---
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rto_backoff: u32,
    /// Send times of fresh segments still awaiting acknowledgement:
    /// `(seq_end, sent_at, rtx_epoch_at_send)`. Sampling every segment
    /// (rather than one probe per RTT) lets the RTT estimator see the
    /// queueing built *within* a burst — which is what HyStart needs.
    send_times: std::collections::VecDeque<(u64, SimTime, u64)>,
    /// Incremented on every retransmission; samples from older epochs are
    /// ambiguous (Karn) and skipped.
    rtx_epoch: u64,
    /// Smallest RTT sample seen (HyStart's baseline).
    min_rtt: Option<SimDuration>,
    // --- counters ---
    segments_sent: u64,
    retransmissions: u64,
    timeouts: u64,
}

impl TcpSender {
    /// A fresh sender with an empty send buffer.
    pub fn new() -> TcpSender {
        TcpSender {
            mss: MSS,
            cwnd: (INITIAL_WINDOW_SEGMENTS * MSS) as f64,
            ssthresh: f64::INFINITY,
            snd_una: 0,
            snd_nxt: 0,
            app_limit: 0,
            dup_acks: 0,
            recovery: None,
            rtx: None,
            sacked: RangeSet::default(),
            rtx_credit: 0,
            dupacks_since_progress: 0,
            last_sack_new: false,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: INITIAL_RTO,
            rto_backoff: 0,
            send_times: std::collections::VecDeque::new(),
            rtx_epoch: 0,
            min_rtt: None,
            segments_sent: 0,
            retransmissions: 0,
            timeouts: 0,
        }
    }

    /// Make `bytes` more application data available for transmission.
    pub fn app_write(&mut self, bytes: u64) {
        self.app_limit += bytes;
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Whether all written application data has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.app_limit
    }

    /// Whether the sender is *application-limited*: everything the
    /// application has written is already on the wire, so absent a
    /// retransmission the next [`TcpSender::next_segment`] returns `None`.
    pub(crate) fn app_limited(&self) -> bool {
        self.snd_nxt >= self.app_limit
    }

    /// Whether the send path is in its clean fast-path state: no recovery
    /// episode, no pending retransmission cursor, no SACKed holes, and no
    /// duplicate-ACK count. This is the state a fully-acked in-order
    /// exchange leaves behind; burst batching in `NetSim` requires it
    /// before deferring ACK processing.
    pub(crate) fn window_quiescent(&self) -> bool {
        self.recovery.is_none()
            && self.rtx.is_none()
            && self.sacked.is_empty()
            && self.dup_acks == 0
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current retransmission timeout, including backoff.
    pub fn current_rto(&self) -> SimDuration {
        let backed_off = self.rto.saturating_mul(1u32 << self.rto_backoff.min(16));
        backed_off.min(MAX_RTO).max(MIN_RTO)
    }

    /// Total segments handed to the network (including retransmissions).
    pub fn segments_sent(&self) -> u64 {
        self.segments_sent
    }

    /// Retransmitted segments (fast retransmit + RTO).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// RTO events fired.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// The next segment to put on the wire, if the window and send buffer
    /// allow one. The caller must then call [`TcpSender::mark_sent`].
    ///
    /// Retransmissions take priority over fresh data and are exempt from
    /// the window check (the standard loss-recovery behaviour — the data
    /// they cover is already counted in flight).
    pub fn next_segment(&self) -> Option<SegmentToSend> {
        if let Some((mut cursor, mut end)) = self.rtx {
            // Only data *below* SACKed bytes is presumed lost (RFC 6675's
            // IsLost); anything above the highest SACK is still in
            // flight. With an empty scoreboard (RTO path) the whole
            // range is fair game — that is go-back-N.
            if let Some(highest) = self.sacked.highest_end() {
                end = end.min(highest);
            }
            // Skip everything the receiver has SACKed — only holes go out.
            while cursor < end {
                match self.sacked.end_of_range_covering(cursor) {
                    Some(e) => cursor = e,
                    None => break,
                }
            }
            if cursor < end {
                // ACK-clocked: each retransmission needs a credit, and the
                // burst stays window-limited past the cumulative point.
                if self.rtx_credit > 0
                    && cursor.saturating_sub(self.snd_una) < self.cwnd as u64
                {
                    let mut seg_end = (cursor + self.mss).min(end);
                    if let Some(s) = self.sacked.next_start_after(cursor) {
                        seg_end = seg_end.min(s);
                    }
                    return Some(SegmentToSend { start: cursor, end: seg_end, retransmission: true });
                }
                return None;
            }
        }
        if self.snd_nxt >= self.app_limit {
            return None;
        }
        // Pipe estimate (RFC 6675): SACKed bytes have left the network,
        // so new data may flow during recovery instead of idling the
        // link for a full queue-drain while retransmissions trickle.
        let sacked: u64 = self
            .sacked
            .as_slice()
            .iter()
            .map(|&(s, e)| e.min(self.snd_nxt).saturating_sub(s.max(self.snd_una)))
            .sum();
        let pipe = self.in_flight().saturating_sub(sacked);
        if pipe + 1 > self.cwnd as u64 {
            return None;
        }
        // Allow the segment if at least one byte fits; real stacks send a
        // full segment once any window opens (we avoid silly-window logic
        // because the receiver never shrinks its window in this model).
        let end = (self.snd_nxt + self.mss).min(self.app_limit);
        Some(SegmentToSend { start: self.snd_nxt, end, retransmission: false })
    }

    /// Record that `seg` was handed to the network at `now`.
    pub fn mark_sent(&mut self, seg: SegmentToSend, now: SimTime) {
        self.segments_sent += 1;
        if seg.retransmission {
            self.retransmissions += 1;
            self.rtx_credit = self.rtx_credit.saturating_sub(1);
            if let Some((cursor, end)) = self.rtx {
                debug_assert!(seg.start >= cursor, "retransmissions walk the range");
                self.rtx = Some((seg.end.max(cursor), end));
            }
            self.rtx_epoch += 1;
        } else {
            debug_assert_eq!(seg.start, self.snd_nxt, "fresh data must be in order");
            self.snd_nxt = seg.end;
            self.send_times.push_back((seg.end, now, self.rtx_epoch));
        }
    }

    /// Merge the SACK blocks carried on an incoming ACK into the
    /// scoreboard (call before [`TcpSender::on_ack`]). Records whether
    /// the ACK carried any *new* information — RFC 6675 only treats an
    /// ACK as a duplicate worth reacting to when it does (acks of
    /// spuriously retransmitted data advertise nothing new and must not
    /// feed back into more retransmission).
    pub fn update_sack(&mut self, sack: SackBlocks) {
        let mut new_info = false;
        for &(start, end) in sack.as_slice() {
            // Any byte of the block not already covered is new.
            new_info |= self.sacked.insert(start, end) < end - start;
        }
        self.last_sack_new = new_info;
    }

    /// Process a cumulative ACK for all bytes `< ack`.
    pub fn on_ack(&mut self, ack: u64, now: SimTime) -> AckOutcome {
        if ack > self.snd_una {
            // --- new data acknowledged ---
            let delta = ack - self.snd_una;
            self.snd_una = ack;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            self.sacked.remove_below(ack);
            self.sample_rtt(ack, now);

            if let Some(recovery_point) = self.recovery {
                if ack >= recovery_point {
                    // Recovery complete; deflate to ssthresh.
                    self.recovery = None;
                    self.rtx = None;
                    self.rtx_credit = 0;
                    self.cwnd = self.ssthresh;
                    return AckOutcome::RecoveryComplete;
                }
                // Partial ACK: the cumulative point advanced into the
                // range; skip anything now acknowledged and keep walking.
                // The advance means segments left the network: grant
                // proportional retransmission credit.
                if let Some((cursor, end)) = self.rtx {
                    self.rtx = Some((cursor.max(self.snd_una), end));
                }
                self.rtx_credit += (delta / self.mss).max(1);
                self.dupacks_since_progress = 0;
                return AckOutcome::PartialAck;
            }

            // Window growth.
            if self.cwnd < self.ssthresh {
                self.cwnd += self.mss as f64; // slow start: +1 MSS per ACK
            } else {
                self.cwnd += (self.mss * self.mss) as f64 / self.cwnd; // CA
            }
            return AckOutcome::Advanced;
        }

        // Duplicate ACK only counts when data is outstanding AND it told
        // us something new (RFC 6675's DupAck definition); acks of
        // duplicate data carry no new SACK ranges and are inert.
        if ack == self.snd_una && self.in_flight() > 0 {
            if !self.last_sack_new && !self.sacked.is_empty() {
                return AckOutcome::Ignored;
            }
            if self.recovery.is_some() {
                // Each dupack signals a segment left the network: one
                // more retransmission may enter (pipe control).
                self.rtx_credit += 1;
                self.dupacks_since_progress += 1;
                if self.dupacks_since_progress >= 16 {
                    // Rescue: the hole retransmission itself was lost.
                    self.dupacks_since_progress = 0;
                    if let Some((_, end)) = self.rtx {
                        self.rtx = Some((self.snd_una, end));
                    }
                }
                return AckOutcome::Duplicate;
            }
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESHOLD {
                self.enter_fast_recovery();
                return AckOutcome::FastRetransmit;
            }
            return AckOutcome::Duplicate;
        }
        AckOutcome::Ignored
    }

    /// A retransmission timer fired at `now`. Collapses the window to one
    /// segment and queues the first unacked byte for retransmission.
    /// Returns `false` (and does nothing) if no data is outstanding.
    pub fn on_rto(&mut self) -> bool {
        if self.in_flight() == 0 {
            return false;
        }
        self.timeouts += 1;
        self.ssthresh = (self.in_flight() as f64 / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.mss as f64;
        self.dup_acks = 0;
        // Go-back-N from the cumulative point, ACK-clocked and
        // window-limited (cwnd grows back through slow start).
        self.recovery = Some(self.snd_nxt);
        self.rtx = Some((self.snd_una, self.snd_nxt));
        self.rtx_credit = 1;
        self.rto_backoff = (self.rto_backoff + 1).min(16);
        self.rtx_epoch += 1;
        true
    }

    fn enter_fast_recovery(&mut self) {
        self.ssthresh = (self.in_flight() as f64 / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.ssthresh;
        self.recovery = Some(self.snd_nxt);
        self.rtx = Some((self.snd_una, self.snd_nxt));
        // The three dupacks that got us here are three departures.
        self.rtx_credit = 3;
    }

    fn sample_rtt(&mut self, ack: u64, now: SimTime) {
        // Pop everything this cumulative ACK covers; the *last* covered
        // segment carries the freshest (tail-of-burst) timing.
        let mut newest: Option<(SimTime, u64)> = None;
        while let Some(&(seq_end, sent_at, epoch)) = self.send_times.front() {
            if seq_end > ack {
                break;
            }
            self.send_times.pop_front();
            newest = Some((sent_at, epoch));
        }
        let Some((sent_at, epoch)) = newest else { return };
        if epoch != self.rtx_epoch {
            return; // Karn: a retransmission happened since; ambiguous
        }
        let sample = now.since(sent_at);
        self.min_rtt = Some(match self.min_rtt {
            Some(m) if m <= sample => m,
            _ => sample,
        });
        // HyStart-style slow-start exit (what 2016-era CUBIC servers ran):
        // once queueing delay shows up in the RTT, stop doubling — this is
        // what saves a single large flow from the overshoot collapse that
        // Reno-with-fixed-ssthresh suffers on every bulk transfer.
        if self.cwnd < self.ssthresh {
            // The probe rides the tail of each burst and therefore sees
            // the burst's own serialisation as queueing; demand a
            // substantial standing queue (half the base RTT, ≥8 ms)
            // before exiting, or slow start stops far below the BDP.
            // lint:allow(D4): min_rtt was set from this very sample a few lines above
            let base = self.min_rtt.expect("just set").as_micros();
            let threshold = base + (base / 2).max(8_000);
            if sample.as_micros() > threshold {
                self.ssthresh = self.cwnd;
            }
        }
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = SimDuration::from_micros(sample.as_micros() / 2);
            }
            Some(srtt) => {
                let err = srtt.as_micros().abs_diff(sample.as_micros());
                self.rttvar =
                    SimDuration::from_micros((3 * self.rttvar.as_micros() + err) / 4);
                self.srtt = Some(SimDuration::from_micros(
                    (7 * srtt.as_micros() + sample.as_micros()) / 8,
                ));
            }
        }
        let rto = SimDuration::from_micros(
            // lint:allow(D4): srtt was set in the branch above before the RTO is computed
            self.srtt.expect("just set").as_micros() + 4 * self.rttvar.as_micros().max(1_000),
        );
        self.rto = rto.max(MIN_RTO).min(MAX_RTO);
    }

    /// Smoothed RTT estimate, if a valid sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }
}

impl Default for TcpSender {
    fn default() -> Self {
        Self::new()
    }
}

/// Up to three SACK blocks carried on an ACK (RFC 2018 allows 3–4; three
/// suffice to cover drop-tail burst holes in practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    blocks: [(u64, u64); 3],
    len: u8,
}

impl SackBlocks {
    /// Build from the first three of `ranges`.
    pub fn from_ranges(ranges: &[(u64, u64)]) -> SackBlocks {
        let mut out = SackBlocks::default();
        for &r in ranges.iter().take(3) {
            out.push(r);
        }
        out
    }

    fn push(&mut self, range: (u64, u64)) {
        // lint:allow(D7): callers push at most three blocks per ACK
        self.blocks[self.len as usize] = range;
        self.len += 1;
    }

    /// The blocks as a slice.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.blocks[..self.len as usize]
    }

    /// Whether `seq` falls inside any block.
    pub fn covers(&self, seq: u64) -> bool {
        self.as_slice().iter().any(|&(s, e)| s <= seq && seq < e)
    }

    /// End of the block covering `seq`, if any.
    pub fn skip_past(&self, seq: u64) -> Option<u64> {
        self.as_slice().iter().find(|&&(s, e)| s <= seq && seq < e).map(|&(_, e)| e)
    }

    /// Start of the first block beginning strictly after `seq`, if any.
    pub fn next_block_start(&self, seq: u64) -> Option<u64> {
        self.as_slice().iter().filter(|&&(s, _)| s > seq).map(|&(s, _)| s).min()
    }
}

/// A set of byte ranges `[start, end)`, kept as a sorted array of
/// disjoint, non-adjacent ranges. Both the sender's SACK scoreboard and
/// the receiver's reassembly buffer hold a handful of ranges, so a
/// sorted array beats a tree; its buffer is reused, so steady-state
/// updates allocate nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RangeSet {
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// The ranges in ascending order.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Add `[start, end)`, merging it with every overlapping or adjacent
    /// range. Returns how many of its bytes the set already covered.
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        // Ranges `i..j` overlap or touch the new one.
        let i = self.ranges.partition_point(|&(_, e)| e < start);
        let j = self.ranges.partition_point(|&(s, _)| s <= end);
        if i == j {
            self.ranges.insert(i, (start, end));
            return 0;
        }
        // lint:allow(D7): i < j <= len, so ranges i..j exist
        let covered = self.ranges[i..j]
            .iter()
            .map(|&(s, e)| e.min(end).saturating_sub(s.max(start)))
            .sum();
        // lint:allow(D7, n=3): i < j <= len, so ranges i and j - 1 exist
        self.ranges[i] = (start.min(self.ranges[i].0), end.max(self.ranges[j - 1].1));
        self.ranges.drain(i + 1..j);
        covered
    }

    /// Drop every range that ends at or below `seq`.
    pub fn remove_below(&mut self, seq: u64) {
        if self.ranges.first().is_some_and(|&(_, e)| e <= seq) {
            let n = self.ranges.partition_point(|&(_, e)| e <= seq);
            self.ranges.drain(..n);
        }
    }

    /// The end of the range containing `seq`, if any.
    pub fn end_of_range_covering(&self, seq: u64) -> Option<u64> {
        let i = self.ranges.partition_point(|&(s, _)| s <= seq);
        i.checked_sub(1).map(|i| self.ranges[i]).filter(|&(_, e)| seq < e).map(|(_, e)| e)
    }

    /// The start of the first range beginning strictly after `seq`.
    pub fn next_start_after(&self, seq: u64) -> Option<u64> {
        let i = self.ranges.partition_point(|&(s, _)| s <= seq);
        self.ranges.get(i).map(|&(s, _)| s)
    }

    /// The end of the highest range.
    pub fn highest_end(&self) -> Option<u64> {
        self.ranges.last().map(|&(_, e)| e)
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }
}

/// Receiver side: cumulative ACK generation and in-order delivery
/// accounting, with an out-of-order reassembly buffer whose ranges are
/// advertised back to the sender as SACK blocks.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    /// Next byte expected in order.
    rcv_nxt: u64,
    /// Out-of-order ranges.
    ooo: RangeSet,
    /// Rotation cursor so successive ACKs advertise *different* ranges —
    /// three blocks per ACK only cover a burst-loss buffer if they
    /// rotate (what real stacks do).
    sack_rotate: usize,
}

/// Result of receiving one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiveOutcome {
    /// Cumulative ACK to send (next expected byte).
    pub ack: u64,
    /// Bytes newly available to the application, in order, because of
    /// this segment (0 for out-of-order or duplicate segments).
    pub newly_delivered: u64,
    /// SACK blocks advertising the reassembly buffer's holes' far sides.
    pub sack: SackBlocks,
}

impl TcpReceiver {
    /// A fresh receiver expecting byte 0.
    pub fn new() -> TcpReceiver {
        TcpReceiver::default()
    }

    /// Total in-order bytes delivered to the application so far.
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes held in the reassembly buffer (received out of order).
    pub fn buffered(&self) -> u64 {
        self.ooo.covered()
    }

    /// Accept the segment `[start, end)`.
    pub fn on_segment(&mut self, start: u64, end: u64) -> ReceiveOutcome {
        assert!(start <= end, "segment range inverted");
        let before = self.rcv_nxt;
        if end <= self.rcv_nxt {
            // Entirely duplicate.
            return ReceiveOutcome {
                ack: self.rcv_nxt,
                newly_delivered: 0,
                sack: SackBlocks::from_ranges(self.ooo.as_slice()),
            };
        }
        let start = start.max(self.rcv_nxt);
        if start > self.rcv_nxt {
            // Out of order: stash and emit a duplicate ACK with SACK
            // info — the block containing this segment first (RFC 2018),
            // then two more ranges chosen by rotation so that a long
            // burst's whole buffer map reaches the sender over a few ACKs.
            self.ooo.insert(start, end);
            let ranges = self.ooo.as_slice();
            // The range containing the segment, and the others in order.
            let recent = ranges.partition_point(|&(s, _)| s <= start) - 1;
            let others = ranges.len() - 1;
            let mut sack = SackBlocks::default();
            sack.push(ranges[recent]);
            if others > 0 {
                for k in 0..2usize.min(others) {
                    let i = (self.sack_rotate + k) % others;
                    sack.push(ranges[i + usize::from(i >= recent)]);
                }
                self.sack_rotate = (self.sack_rotate + 2) % others;
            }
            return ReceiveOutcome { ack: self.rcv_nxt, newly_delivered: 0, sack };
        }
        // In order: advance, then drain every buffered range the advance
        // reaches (each one may reach the next).
        self.rcv_nxt = end;
        while let Some(&(s, e)) = self.ooo.as_slice().first() {
            if s > self.rcv_nxt {
                break;
            }
            self.rcv_nxt = self.rcv_nxt.max(e);
            self.ooo.remove_below(e);
        }
        ReceiveOutcome {
            ack: self.rcv_nxt,
            newly_delivered: self.rcv_nxt - before,
            sack: SackBlocks::from_ranges(self.ooo.as_slice()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_window(s: &mut TcpSender, now: SimTime) -> Vec<SegmentToSend> {
        let mut out = Vec::new();
        while let Some(seg) = s.next_segment() {
            s.mark_sent(seg, now);
            out.push(seg);
        }
        out
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let mut s = TcpSender::new();
        s.app_write(1_000_000);
        let segs = drain_window(&mut s, SimTime::ZERO);
        assert_eq!(segs.len(), 10);
        assert_eq!(s.in_flight(), 10 * MSS);
        assert!(segs.iter().all(|g| g.len() == MSS && !g.retransmission));
    }

    #[test]
    fn short_flow_sends_partial_final_segment() {
        let mut s = TcpSender::new();
        s.app_write(2000);
        let segs = drain_window(&mut s, SimTime::ZERO);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), MSS);
        assert_eq!(segs[1].len(), 2000 - MSS);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new();
        s.app_write(10_000_000);
        let t0 = SimTime::ZERO;
        let w0 = drain_window(&mut s, t0).len();
        // ACK the whole first window one RTT later.
        let t1 = SimTime::from_millis(50);
        for i in 1..=w0 as u64 {
            s.on_ack(i * MSS, t1);
        }
        let w1 = drain_window(&mut s, t1).len();
        // cwnd grew by 1 MSS per ACK → window doubled.
        assert_eq!(w1, 2 * w0);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut s = TcpSender::new();
        s.app_write(100_000_000);
        // Force CA by setting up a recovery and completing it.
        let t = SimTime::ZERO;
        drain_window(&mut s, t);
        // 3 dupacks → fast retransmit → recovery.
        s.on_ack(0, t);
        s.on_ack(0, t);
        assert_eq!(s.on_ack(0, t), AckOutcome::FastRetransmit);
        let rec_point = s.in_flight(); // == snd_nxt
        assert_eq!(s.on_ack(rec_point, SimTime::from_millis(100)), AckOutcome::RecoveryComplete);
        let cwnd_after = s.cwnd_bytes();
        // One full window of ACKs in CA grows cwnd by ~1 MSS total.
        let acks = cwnd_after / MSS;
        let base = s.snd_una;
        // Send fresh data so ACKs aren't duplicates.
        drain_window(&mut s, SimTime::from_millis(100));
        for i in 1..=acks {
            s.on_ack(base + i * MSS, SimTime::from_millis(150));
        }
        let grown = s.cwnd_bytes();
        let delta = grown as i64 - cwnd_after as i64;
        assert!((delta - MSS as i64).abs() <= MSS as i64 / 4, "CA growth {delta}");
    }

    #[test]
    fn fast_retransmit_after_three_dupacks() {
        let mut s = TcpSender::new();
        s.app_write(100_000);
        drain_window(&mut s, SimTime::ZERO);
        let flight_before = s.in_flight();
        assert_eq!(s.on_ack(0, SimTime::ZERO), AckOutcome::Duplicate);
        assert_eq!(s.on_ack(0, SimTime::ZERO), AckOutcome::Duplicate);
        assert_eq!(s.on_ack(0, SimTime::ZERO), AckOutcome::FastRetransmit);
        // Window halved (>= 2 MSS floor).
        assert_eq!(s.cwnd_bytes(), flight_before / 2);
        // The queued retransmission covers the first segment.
        let seg = s.next_segment().expect("retransmission pending");
        assert!(seg.retransmission);
        assert_eq!(seg.start, 0);
        assert_eq!(seg.len(), MSS);
        s.mark_sent(seg, SimTime::ZERO);
        assert_eq!(s.retransmissions(), 1);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = TcpSender::new();
        s.app_write(100_000);
        drain_window(&mut s, SimTime::ZERO);
        for _ in 0..3 {
            s.on_ack(0, SimTime::ZERO);
        }
        let seg = s.next_segment().unwrap();
        s.mark_sent(seg, SimTime::ZERO);
        // Partial ACK: only the first segment's worth arrives.
        assert_eq!(s.on_ack(MSS, SimTime::from_millis(60)), AckOutcome::PartialAck);
        let seg2 = s.next_segment().unwrap();
        assert!(seg2.retransmission);
        assert_eq!(seg2.start, MSS);
    }

    #[test]
    fn rto_collapses_window() {
        let mut s = TcpSender::new();
        s.app_write(100_000);
        drain_window(&mut s, SimTime::ZERO);
        assert!(s.on_rto());
        assert_eq!(s.cwnd_bytes(), MSS);
        assert_eq!(s.timeouts(), 1);
        let seg = s.next_segment().unwrap();
        assert!(seg.retransmission);
        assert_eq!(seg.start, 0);
        // Backoff doubles the effective RTO.
        let rto1 = s.current_rto();
        s.mark_sent(seg, SimTime::ZERO);
        s.on_rto();
        assert_eq!(s.current_rto().as_micros(), (rto1.as_micros() * 2).min(MAX_RTO.as_micros()));
    }

    #[test]
    fn rto_without_outstanding_data_is_noop() {
        let mut s = TcpSender::new();
        assert!(!s.on_rto());
        assert_eq!(s.timeouts(), 0);
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let mut s = TcpSender::new();
        s.app_write(MSS);
        let seg = s.next_segment().unwrap();
        s.mark_sent(seg, SimTime::ZERO);
        s.on_ack(MSS, SimTime::from_millis(80));
        let srtt = s.srtt().expect("sample taken");
        assert_eq!(srtt, SimDuration::from_millis(80));
        // RTO = srtt + 4*max(rttvar,1ms) = 80 + 4*40 = 240 ms.
        assert_eq!(s.current_rto(), SimDuration::from_millis(240));
    }

    #[test]
    fn karn_poisons_rtt_after_retransmission() {
        let mut s = TcpSender::new();
        s.app_write(10 * MSS);
        drain_window(&mut s, SimTime::ZERO);
        s.on_rto();
        let seg = s.next_segment().unwrap();
        s.mark_sent(seg, SimTime::from_millis(500));
        // The ACK covers the probe but the sample is ambiguous → no srtt.
        s.on_ack(MSS, SimTime::from_millis(600));
        assert!(s.srtt().is_none());
    }

    #[test]
    fn all_acked_tracks_completion() {
        let mut s = TcpSender::new();
        s.app_write(3000);
        assert!(!s.all_acked());
        drain_window(&mut s, SimTime::ZERO);
        s.on_ack(3000, SimTime::from_millis(10));
        assert!(s.all_acked());
    }

    // ----- receiver -----

    #[test]
    fn receiver_in_order_delivery() {
        let mut r = TcpReceiver::new();
        let o = r.on_segment(0, 1460);
        assert_eq!((o.ack, o.newly_delivered), (1460, 1460));
        assert!(o.sack.as_slice().is_empty());
        let o = r.on_segment(1460, 2000);
        assert_eq!((o.ack, o.newly_delivered), (2000, 540));
        assert_eq!(r.delivered(), 2000);
    }

    #[test]
    fn receiver_out_of_order_buffers_and_drains() {
        let mut r = TcpReceiver::new();
        // Segment 2 arrives first: dup-ACK for 0, nothing delivered.
        let o = r.on_segment(1460, 2920);
        assert_eq!((o.ack, o.newly_delivered), (0, 0));
        assert_eq!(o.sack.as_slice(), &[(1460, 2920)], "dup-ack advertises the buffered range");
        assert_eq!(r.buffered(), 1460);
        // Hole fills: both segments deliver at once.
        let o = r.on_segment(0, 1460);
        assert_eq!((o.ack, o.newly_delivered), (2920, 2920));
        assert!(o.sack.as_slice().is_empty());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn receiver_ignores_duplicates() {
        let mut r = TcpReceiver::new();
        r.on_segment(0, 1460);
        let o = r.on_segment(0, 1460);
        assert_eq!((o.ack, o.newly_delivered), (1460, 0));
        // Partial overlap delivers only the new part.
        let o = r.on_segment(1000, 2000);
        assert_eq!((o.ack, o.newly_delivered), (2000, 540));
    }

    #[test]
    fn receiver_merges_ooo_ranges() {
        let mut r = TcpReceiver::new();
        r.on_segment(2920, 4380); // third segment
        r.on_segment(1460, 2920); // second segment — adjacent, must merge
        assert_eq!(r.buffered(), 2920);
        let o = r.on_segment(0, 1460);
        assert_eq!(o.ack, 4380);
        assert_eq!(o.newly_delivered, 4380);
    }

    #[test]
    fn receiver_multiple_holes() {
        let mut r = TcpReceiver::new();
        r.on_segment(1460, 2920);
        r.on_segment(4380, 5840);
        assert_eq!(r.buffered(), 2920);
        let o = r.on_segment(0, 1460);
        // Only the first hole closes; the second range stays buffered.
        assert_eq!(o.ack, 2920);
        assert_eq!(r.buffered(), 1460);
        let o = r.on_segment(2920, 4380);
        assert_eq!(o.ack, 5840);
        assert_eq!(r.buffered(), 0);
    }
}
